//! # baselines — the comparator transports from the paper's evaluation
//!
//! Three from-scratch implementations of the systems LowFive is measured
//! against in §IV:
//!
//! * [`puempi`] — the "hand-written MPI code that performs the same data
//!   redistribution" of Fig. 7. Both sides know the decompositions
//!   analytically; producers ship each box intersection **serializing one
//!   point at a time**, exactly the behavior the paper credits for
//!   LowFive's small-scale win ("LowFive optimizes the serialization of
//!   contiguous regions better than the hand-written code, which simply
//!   iterates over all the data points … one point at a time").
//!
//! * [`bredala`] — the Decaf transport of Fig. 9/10: a container of
//!   annotated fields, each redistributed under a **contiguous** policy
//!   (1-d lists, efficient chunk moves) or a **bounding-box** policy
//!   (grids; coordinates travel with every point and intersections are
//!   computed per point — the measured pathology on the grid dataset).
//!
//! * [`dataspaces`] — the staging service of Fig. 8: dedicated server
//!   ranks index `put_local` registrations (data stay on producers) and
//!   answer queries; consumers then pull directly from producers. Fewer
//!   round trips than index–serve–query, at the cost of extra resources
//!   and an n-d-array-only data model.

pub mod boxes;
pub mod bredala;
pub mod dataspaces;
pub mod puempi;
