//! Ablations of three design choices the paper credits for LowFive's
//! speed. Each is a pair of variants run on the same input; the
//! `figures -- ablations` experiment times them.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lowfive::{DistVolBuilder, LowFiveProps, MetadataVol};
use minih5::selection::pack;
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{TaskSpec, TaskWorld};

/// Contiguous-run serialization versus point by point — the mechanism
/// the paper gives for beating hand-written MPI (§IV-B-c). A y-slab of a
/// 256×256×64 grid of 8-byte elements: many medium-length runs, the
/// shape redistribution sees.
pub struct Serialization {
    space: Dataspace,
    sel: Selection,
    src: Vec<u8>,
}

impl Serialization {
    const ES: usize = 8;

    pub fn new() -> Self {
        let space = Dataspace::simple(&[256, 256, 64]);
        let src = vec![7u8; space.npoints() as usize * Self::ES];
        Serialization { space, sel: Selection::block(&[0, 64, 0], &[256, 128, 64]), src }
    }

    /// Pack the slab one contiguous run at a time (LowFive's path).
    pub fn contiguous_runs(&self) -> Vec<u8> {
        pack(&self.sel, &self.space, Self::ES, &self.src)
    }

    /// Pack the same slab one element at a time, recomputing each offset.
    pub fn point_by_point(&self) -> Vec<u8> {
        let es = Self::ES;
        let mut out = Vec::with_capacity(self.sel.npoints(&self.space) as usize * es);
        for run in self.sel.runs(&self.space) {
            for i in 0..run.len {
                let off = (run.offset + i) as usize * es;
                out.extend_from_slice(&self.src[off..off + es]);
            }
        }
        out
    }
}

impl Default for Serialization {
    fn default() -> Self {
        Self::new()
    }
}

/// Deep versus shallow (zero-copy) dataset ownership in the metadata VOL
/// (§III-A): create a file in a fresh in-memory VOL, write `data` as one
/// dataset with `ownership`, close it.
pub fn write_once(data: &Bytes, ownership: Ownership) {
    let vol = MetadataVol::over_native(LowFiveProps::new());
    let f = vol.file_create("o.h5").unwrap();
    let space = Dataspace::simple(&[data.len() as u64]);
    let d = vol.dataset_create(f, "d", &Datatype::UInt8, &space).unwrap();
    vol.dataset_write(d, &Selection::all(), data.clone(), ownership).unwrap();
    vol.file_close(f).unwrap();
}

/// Synchronous serve (the paper's baseline) versus asynchronous overlap
/// serve (its §V-C future work): two producer ranks write three
/// snapshots with a 2 ms compute phase between them, one consumer takes
/// 2 ms before each read.
pub fn serve_snapshots(overlap: bool) {
    const STEPS: usize = 3;
    const N: u64 = 1 << 12;
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 1)];
    TaskWorld::builder(&specs).run(move |tc| {
        let builder = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        let vol = if tc.task_id == 0 {
            builder.produce("ov*", vec![2]).async_serve(overlap).build()
        } else {
            builder.consume("ov*", vec![0, 1]).build()
        };
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        for s in 0..STEPS {
            if tc.task_id == 0 {
                let f = h5.create_file(&format!("ov{s}")).unwrap();
                let d = f.create_dataset("x", Datatype::UInt64, Dataspace::simple(&[N])).unwrap();
                let half = N / 2;
                let lo = tc.local.rank() as u64 * half;
                let vals: Vec<u64> = (lo..lo + half).collect();
                d.write_selection(&Selection::block(&[lo], &[half]), &vals).unwrap();
                f.close().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            } else {
                let f = h5.open_file(&format!("ov{s}")).unwrap();
                let d = f.open_dataset("x").unwrap();
                std::thread::sleep(Duration::from_millis(2));
                d.read_all::<u64>().unwrap();
                f.close().unwrap();
            }
        }
        if tc.task_id == 0 {
            vol.drain();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_serializations_pack_the_same_bytes() {
        let s = Serialization::new();
        assert_eq!(s.contiguous_runs(), s.point_by_point());
    }

    #[test]
    fn both_serve_modes_complete() {
        serve_snapshots(false);
        serve_snapshots(true);
    }
}
