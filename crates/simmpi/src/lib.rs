//! # simmpi — a thread-backed message-passing substrate
//!
//! `simmpi` is a from-scratch stand-in for MPI used by the LowFive
//! reproduction. *Ranks are OS threads* inside a single process; a
//! [`World`] owns one mailbox per rank, and [`World::run`] spawns the
//! ranks as scoped threads, handing each a [`Comm`].
//!
//! The surface mirrors the subset of MPI that LowFive, DIY, and the
//! baselines in the paper actually exercise:
//!
//! * tagged point-to-point messaging: [`Comm::send`], [`Comm::recv`],
//!   [`Comm::isend`], [`Comm::irecv`], [`Comm::probe`] / [`Comm::iprobe`],
//!   with `ANY_SOURCE` / `ANY_TAG` wildcards,
//! * collectives: barrier, broadcast, gather(v), allgather, reduce,
//!   allreduce, exclusive scan,
//! * communicator management: [`Comm::split`] with color/key (used to carve
//!   producer and consumer task communicators out of the world), plus rank
//!   translation between a sub-communicator and its world,
//! * transparent transport statistics ([`TransportStats`]) so benchmarks can
//!   report message and byte counts,
//! * an optional [`CostModel`] that charges a per-message latency and a
//!   per-byte cost on delivery, for experiments that want to emulate an
//!   interconnect slower than shared memory.
//!
//! Message payloads are [`bytes::Bytes`]: cloning a payload is a refcount
//! bump, so a producer that keeps its buffer immutable shares memory with
//! the in-flight message — this is what makes LowFive's *shallow copy*
//! (zero-copy) dataset mode meaningful inside one address space.
//!
//! ## Example
//!
//! ```
//! use simmpi::World;
//!
//! // Ring: each rank sends its rank to the next one.
//! let sums = World::run(4, |comm| {
//!     let next = (comm.rank() + 1) % comm.size();
//!     let prev = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send_u64s(next, 7, &[comm.rank() as u64]);
//!     let got = comm.recv_u64s(prev.into(), 7.into()).1;
//!     got[0]
//! });
//! assert_eq!(sums, vec![3, 0, 1, 2]);
//! ```

// The zero-copy transport path hands refcounted buffers around by
// value; a stray `.clone()` there silently reintroduces the copy this
// crate exists to avoid, so redundant clones are a hard error.
#![deny(clippy::redundant_clone)]

mod bufpool;
mod collectives;
mod comm;
mod cost;
mod envelope;
mod fault;
mod mailbox;
mod payload;
pub mod pod;
mod sink;
mod stats;
mod task;
mod transport;
mod world;

pub use bufpool::BufPool;
pub use comm::{Comm, RecvError, RecvRequest, SendError};
pub use cost::CostModel;
pub use envelope::{Envelope, PartsEnvelope, SrcSel, Tag, TagSel, ANY_SOURCE, ANY_TAG};
pub use fault::{FaultEvent, FaultKind, FaultPlan, KillSpec, PeerDied, RankKilled};
pub use payload::Payload;
pub use pod::Pod;
pub use sink::{FrameBody, RecvSink};
pub use stats::TransportStats;
pub use task::{TaskComm, TaskSpec, TaskWorld, TaskWorldBuilder};
pub use transport::{SocketConfig, SocketMode, TransportKind};
pub use world::{ChaosOutput, RankDeath, World, WorldBuilder};
