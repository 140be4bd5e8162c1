//! # diyblk — block-parallel decomposition and RPC, after DIY
//!
//! LowFive "depends on the DIY block parallel model to perform efficient
//! data redistribution" (paper Fig. 2). This crate is the from-scratch
//! stand-in for the pieces of DIY the paper exercises:
//!
//! * [`factor_count`] — factor *n* into *d* factors "as close to each
//!   other as possible" (paper §III-B), defining the shape of the common
//!   decomposition,
//! * [`RegularDecomposer`] — cut a d-dimensional domain into a grid of
//!   blocks, map block global ids (gids) to bounds, and answer the central
//!   geometric query of index–serve–query: *which blocks does this
//!   bounding box intersect?*,
//! * [`assigner`] — map block gids to ranks (one block per producer
//!   process in the paper's usage; contiguous and round-robin assignment
//!   for generality),
//! * [`rpc`] — the "custom remote procedure call abstraction implemented
//!   over MPI" that index, serve, and query are written with.

// The zero-copy transport path hands refcounted buffers around by
// value; a stray `.clone()` there silently reintroduces the copy this
// crate exists to avoid, so redundant clones are a hard error.
#![deny(clippy::redundant_clone)]

pub mod assigner;
pub mod decompose;
pub mod factor;
pub mod rpc;

pub use assigner::{Assigner, ContiguousAssigner, RoundRobinAssigner};
pub use decompose::RegularDecomposer;
pub use factor::factor_count;
pub use rpc::{Caller, RetryPolicy, RpcClient, RpcError, RpcServer, ServeOutcome};
