//! # lowfive — in situ data transport for HPC workflows
//!
//! A from-scratch Rust reproduction of **LowFive** (Peterka et al.,
//! IPDPS 2023): a data transport layer, structured as an HDF5 Virtual
//! Object Layer plugin, that lets the tasks of an in situ workflow
//! exchange datasets directly over message passing — or through ordinary
//! files, or both at once — with no change to code that already speaks the
//! HDF5 API.
//!
//! The three VOL layers mirror the paper's class hierarchy (§III-A):
//!
//! | paper class | here | role |
//! |---|---|---|
//! | base VOL | [`BaseVol`] | catch everything, pass through to storage |
//! | metadata VOL | [`MetadataVol`] | in-memory replica of the HDF5 hierarchy, deep/shallow data regions |
//! | distributed metadata VOL | [`DistMetadataVol`] | producer/consumer transport with index–serve–query redistribution |
//!
//! Data redistribution from *n* producer ranks to *m* consumer ranks
//! follows Algorithms 1–3 of the paper exactly: producers agree on a
//! *common decomposition* of each dataset (block counts from
//! [`diyblk::factor_count`]), **index** their written regions by the
//! blocks they intersect, then **serve**; consumers **query** in two
//! steps (redirect, then fetch), and data travel as maximal contiguous
//! runs — never element by element.
//!
//! ## Quick start (single producer / single consumer)
//!
//! ```
//! use std::sync::Arc;
//! use lowfive::DistVolBuilder;
//! use minih5::{Datatype, Dataspace, Selection, Vol, H5};
//! use simmpi::{TaskSpec, TaskWorld};
//!
//! // 3 producer ranks, 1 consumer rank.
//! let specs = [TaskSpec::new("producer", 3), TaskSpec::new("consumer", 1)];
//! TaskWorld::run(&specs, |tc| {
//!     let producers: Vec<usize> = (0..3).collect();
//!     let consumers = vec![3];
//!     let vol: Arc<dyn Vol> = if tc.task_id == 0 {
//!         DistVolBuilder::new(tc.world.clone(), tc.local.clone())
//!             .produce("*.h5", consumers.clone())
//!             .build()
//!     } else {
//!         DistVolBuilder::new(tc.world.clone(), tc.local.clone())
//!             .consume("*.h5", producers.clone())
//!             .build()
//!     };
//!     let h5 = H5::with_vol(vol);
//!     if tc.task_id == 0 {
//!         // Each producer rank writes 4 elements of a 12-element vector.
//!         let f = h5.create_file("demo.h5").unwrap();
//!         let d = f
//!             .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[12]))
//!             .unwrap();
//!         let base = tc.local.rank() as u64 * 4;
//!         let vals: Vec<u64> = (base..base + 4).collect();
//!         d.write_selection(&Selection::block(&[base], &[4]), &vals).unwrap();
//!         f.close().unwrap(); // indexes, then serves the consumer
//!     } else {
//!         let f = h5.open_file("demo.h5").unwrap();
//!         let d = f.open_dataset("x").unwrap();
//!         assert_eq!(d.read_all::<u64>().unwrap(), (0..12).collect::<Vec<u64>>());
//!         f.close().unwrap(); // releases the producers
//!     }
//! });
//! ```

// The zero-copy transport path hands refcounted buffers around by
// value; a stray `.clone()` there silently reintroduces the copy this
// crate exists to avoid, so redundant clones are a hard error.
#![deny(clippy::redundant_clone)]
// This crate is the workspace's public API surface; every exported item
// carries rustdoc (promoted to an error by the CI docs job).
#![warn(missing_docs)]

pub mod base;
pub mod dist;
pub mod metadata;
pub mod props;
pub mod protocol;
mod readbuf;
pub mod stream;

pub use base::BaseVol;
pub use dist::{DistMetadataVol, DistVolBuilder, Link, LinkDir, Retained, TransportProfile};
pub use metadata::MetadataVol;
pub use props::{glob_match, BackPressure, LowFiveProps};
pub use stream::{Step, StepPolicy, StepPublisher, StepSubscription};
