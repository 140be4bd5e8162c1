//! Failure injection: errors must propagate cleanly across the transport
//! instead of wedging producers or consumers.

use std::sync::Arc;

use lowfive::{
    DistVolBuilder, LowFiveProps, MetadataVol, StepPolicy, StepPublisher, StepSubscription,
};
use minih5::{Dataspace, Datatype, H5Error, Ownership, Selection, Vol, H5};
use simmpi::{TaskComm, TaskSpec, TaskWorld};

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

fn pair_vols(tc: &TaskComm) -> Arc<dyn Vol> {
    let producers = world_ranks(tc, 0);
    let consumers = world_ranks(tc, 1);
    if tc.task_id == 0 {
        DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
    } else {
        DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
    }
}

/// A consumer asking for a dataset that does not exist gets a clean error
/// (shipped across the wire), and the workflow still terminates.
#[test]
fn remote_missing_dataset_propagates_error() {
    let specs = [TaskSpec::new("p", 2), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        let h5 = H5::with_vol(pair_vols(&tc));
        if tc.task_id == 0 {
            let f = h5.create_file("e.h5").unwrap();
            let d = f.create_dataset("real", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
            let s = tc.local.rank() as u64 * 2;
            d.write_selection(&Selection::block(&[s], &[2]), &[s, s + 1]).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("e.h5").unwrap();
            // Missing path is a NotFound from the local (imported) tree.
            assert!(matches!(f.open_dataset("ghost"), Err(H5Error::NotFound(_))));
            // The real dataset still works afterwards.
            let d = f.open_dataset("real").unwrap();
            assert_eq!(d.read_all::<u64>().unwrap(), vec![0, 1, 2, 3]);
            f.close().unwrap();
        }
    });
}

/// Selections that do not fit the remote dataspace fail on the consumer
/// without poisoning the session.
#[test]
fn remote_invalid_selection_rejected() {
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        let h5 = H5::with_vol(pair_vols(&tc));
        if tc.task_id == 0 {
            let f = h5.create_file("sel.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt32, Dataspace::simple(&[4])).unwrap();
            d.write_all(&[1u32, 2, 3, 4]).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("sel.h5").unwrap();
            let d = f.open_dataset("x").unwrap();
            // Out-of-bounds selection.
            assert!(matches!(
                d.read_selection::<u32>(&Selection::block(&[2], &[4])),
                Err(H5Error::ShapeMismatch(_))
            ));
            // Wrong element type.
            assert!(d.read_selection::<u64>(&Selection::all()).is_err());
            // Valid read still succeeds afterwards.
            assert_eq!(d.read_all::<u32>().unwrap(), vec![1, 2, 3, 4]);
            f.close().unwrap();
        }
    });
}

/// Every mutation on a consumed file is rejected read-only.
#[test]
fn consumed_files_are_fully_read_only() {
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        let h5 = H5::with_vol(pair_vols(&tc));
        if tc.task_id == 0 {
            let f = h5.create_file("ro.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[2])).unwrap();
            d.write_all(&[1u8, 2]).unwrap();
            f.close().unwrap();
        } else {
            let f = h5.open_file("ro.h5").unwrap();
            assert!(f.create_group("g").is_err());
            assert!(f.create_dataset("y", Datatype::UInt8, Dataspace::simple(&[1])).is_err());
            assert!(f
                .create_dataset_chunked("z", Datatype::UInt8, Dataspace::simple(&[2]), &[1])
                .is_err());
            assert!(f.set_attr("a", 1u32).is_err());
            let d = f.open_dataset("x").unwrap();
            assert!(d.write_all(&[9u8, 9]).is_err());
            assert!(d.extend(&[4]).is_err());
            f.close().unwrap();
        }
    });
}

/// Using a closed handle is an InvalidHandle error, not a panic.
#[test]
fn closed_handles_rejected_cleanly() {
    let vol = Arc::new(MetadataVol::over_native(LowFiveProps::new()));
    let f = vol.file_create("h.h5").unwrap();
    let d = vol.dataset_create(f, "x", &Datatype::UInt8, &Dataspace::simple(&[1])).unwrap();
    vol.file_close(f).unwrap();
    assert!(matches!(vol.list(f), Err(H5Error::InvalidHandle(_))));
    // Dataset handle survives (tree outlives the file handle), but a
    // second close of the file is invalid.
    assert!(vol.dataset_meta(d).is_ok());
    assert!(matches!(vol.file_close(f), Err(H5Error::InvalidHandle(_))));
}

/// Consumer-side open of a file nobody produces fails (pattern mismatch
/// falls through to storage and reports the I/O error) rather than
/// hanging.
#[test]
fn open_of_unproduced_file_fails_fast() {
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("data-*", consumers.clone())
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("data-*", producers.clone())
                .build()
        };
        let h5 = H5::with_vol(vol);
        if tc.task_id == 0 {
            let f = h5.create_file("data-1").unwrap();
            f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[1]))
                .unwrap()
                .write_all(&[7u8])
                .unwrap();
            f.close().unwrap();
        } else {
            // "other" does not match the consume pattern → storage path →
            // immediate I/O error (no such file on disk).
            assert!(matches!(h5.open_file("/nonexistent/other"), Err(H5Error::Io(_))));
            // The produced file still arrives.
            let f = h5.open_file("data-1").unwrap();
            assert_eq!(f.open_dataset("x").unwrap().read_all::<u8>().unwrap(), vec![7]);
            f.close().unwrap();
        }
    });
}

/// Retired method ids are not reused: the separate redirect query (2) and
/// the single-entry data query (3) draw the unknown-method error, and the
/// producer keeps serving.
#[test]
fn retired_methods_draw_the_unknown_method_error() {
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        let h5 = H5::with_vol(pair_vols(&tc));
        if tc.task_id == 0 {
            let f = h5.create_file("retired.h5").unwrap();
            let d = f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[2])).unwrap();
            d.write_all(&[5u8, 6]).unwrap();
            f.close().unwrap();
        } else {
            let rpc = diyblk::RpcClient::new(&tc.world);
            for method in [2, 3] {
                let reply = rpc.call(world_ranks(&tc, 0)[0], method, b"retired.h5");
                let err = lowfive::protocol::dec_result(&reply).unwrap_err();
                let want = format!("unknown RPC method {method}");
                assert!(matches!(&err, H5Error::Vol(m) if m.contains(&want)), "{err}");
            }
            let f = h5.open_file("retired.h5").unwrap();
            assert_eq!(f.open_dataset("x").unwrap().read_all::<u8>().unwrap(), vec![5, 6]);
            f.close().unwrap();
        }
    });
}

/// Step streaming needs overlap mode, and both ends are told so with a
/// typed error instead of a wait: `StepPublisher::new` refuses a sync-mode
/// VOL up front, and a subscriber that reaches a sync-mode producer's
/// serve loop gets `H5Error::Vol` from the first reply. (Without the
/// guard the subscribe would be held as one for a series not registered
/// yet — so a missing guard shows here as a hang, caught by the watchdog.)
#[test]
fn streaming_against_a_sync_mode_producer_fails_promptly() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
        TaskWorld::run(&specs, |tc| {
            let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
            if tc.task_id == 0 {
                let vol = b.produce("sim.h5@s*", world_ranks(&tc, 1)).build();
                let refused = StepPublisher::new(vol.clone(), "sim.h5").map(|_| ()).unwrap_err();
                assert!(matches!(&refused, H5Error::Vol(m) if m.contains("overlap mode")));
                // A sync-mode close runs the serve loop on this thread: the
                // subscribe below is answered from inside it.
                let f = H5::with_vol(vol as Arc<dyn Vol>).create_file("sim.h5@s0").unwrap();
                f.close().unwrap();
            } else {
                let vol = b.consume("sim.h5@s*", world_ranks(&tc, 0)).build();
                let err = StepSubscription::new(vol.clone(), "sim.h5", StepPolicy::EveryStep)
                    .map(|_| ())
                    .unwrap_err();
                assert!(matches!(&err, H5Error::Vol(m) if m.contains("overlap mode")), "{err}");
                // Release the producer: the file itself is served as usual.
                let f = H5::with_vol(vol as Arc<dyn Vol>).open_file("sim.h5@s0").unwrap();
                f.close().unwrap();
            }
        });
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("subscribe against a sync-mode producer hung (or a rank panicked)");
}

/// A consume link that lists no producer ranks has no home producer to
/// ask: an open and a step subscription through it each fail with
/// `H5Error::Vol` naming the link's pattern (they used to divide by zero
/// or index an empty list).
#[test]
fn a_link_without_remote_ranks_is_an_error_not_a_panic() {
    TaskWorld::run(&[TaskSpec::new("c", 1)], |tc| {
        let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
            .consume("data-*", vec![])
            .consume("sim.h5@s*", vec![])
            .build();
        let err =
            H5::with_vol(vol.clone() as Arc<dyn Vol>).open_file("data-1").map(|_| ()).unwrap_err();
        assert!(matches!(&err, H5Error::Vol(m) if m.contains("data-*")), "{err}");
        let err =
            StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).map(|_| ()).unwrap_err();
        assert!(matches!(&err, H5Error::Vol(m) if m.contains("sim.h5@s*")), "{err}");
    });
}

/// Oversized and undersized write buffers are rejected with
/// ShapeMismatch by every layer.
#[test]
fn buffer_size_validation_everywhere() {
    let vol = Arc::new(MetadataVol::over_native(LowFiveProps::new()));
    let f = vol.file_create("sz.h5").unwrap();
    let d = vol.dataset_create(f, "x", &Datatype::UInt32, &Dataspace::simple(&[4])).unwrap();
    for bad in [0usize, 1, 15, 17, 64] {
        let r = vol.dataset_write(
            d,
            &Selection::all(),
            bytes::Bytes::from(vec![0u8; bad]),
            Ownership::Deep,
        );
        assert!(matches!(r, Err(H5Error::ShapeMismatch(_))), "len {bad} accepted");
    }
    assert!(vol
        .dataset_write(d, &Selection::all(), bytes::Bytes::from(vec![0u8; 16]), Ownership::Deep)
        .is_ok());
    vol.file_close(f).unwrap();
}
