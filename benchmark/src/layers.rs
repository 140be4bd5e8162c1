//! The layer pass: single-purpose loops timing calls into one crate's
//! public functions, so that a change to one layer has a number of its
//! own beside the end-to-end ones. Layers are the crates.
//!
//! Every loop runs [`REPS`] timed repetitions after one discarded
//! repetition; geometry is the bulk workloads' (2 producers × 96³ cells,
//! consumers reading y-halves) wherever a geometry is needed. Rank
//! threads are bound to CPUs round-robin, as in the workloads, so a
//! round trip between ranks 0 and 1 always crosses CPUs.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use diyblk::rpc::{Call, RpcClient, RpcServer, ServeOutcome};
use diyblk::RegularDecomposer;
use lowfive::protocol::{
    dec_coded, dec_data_req_batch, enc_data_req_batch, encode_coded, get_data_reply_header,
    PayloadReader, ReplyFrame, CAP_ALL, CODEC_DELTA_RLE,
};
use lowfive::{LowFiveProps, MetadataVol};
use minih5::selection::overlap_runs;
use minih5::{Dataspace, Datatype, Ownership, Selection, Vol};
use simmpi::{Comm, Payload, TransportKind, World};

use crate::gen::{splitmix64, Grid};
use crate::metrics::Named;
use crate::sysres::bind_to_cpu;

/// Timed repetitions per metric.
pub const REPS: usize = 5;

const BULK: Grid = Grid { producers: 2, consumers: 2, slab: [96, 96, 96] };
const MIB8: usize = 8 << 20;
const GIB: f64 = (1u64 << 30) as f64;

/// Every metric of the layer pass.
pub const LAYERS: [Named; 21] = [
    ("simmpi.inproc_rtt_us", "us"),
    ("simmpi.inproc_gibps", "GiB/s"),
    ("simmpi.socket_rtt_us", "us"),
    ("simmpi.socket_gibps", "GiB/s"),
    ("simmpi.socket_parts_gibps", "GiB/s"),
    ("simmpi.alltoall_us", "us"),
    ("simmpi.barrier_us", "us"),
    ("diyblk.rpc_rtt_us", "us"),
    ("diyblk.rpc_payload_gibps", "GiB/s"),
    ("diyblk.call_many_rtt_us", "us"),
    ("diyblk.decompose_ns", "ns"),
    ("minih5.runs_ns_per_run", "ns"),
    ("minih5.overlap_ns_per_run", "ns"),
    ("lowfive.protocol.batch_req_ns", "ns"),
    ("lowfive.protocol.reply_walk_gibps", "GiB/s"),
    ("lowfive.memvol.write_deep_gibps", "GiB/s"),
    ("lowfive.memvol.write_shallow_us", "us"),
    ("lowfive.codec.delta_enc_gibps", "GiB/s"),
    ("lowfive.codec.delta_dec_gibps", "GiB/s"),
    ("lowfive.codec.delta_ratio", "ratio"),
    ("lowfive.codec.random_enc_gibps", "GiB/s"),
];

/// Run the whole pass: per metric of [`LAYERS`], in order, its samples.
/// `scale` divides every iteration count (the smoke test passes 20).
pub fn run(scale: usize) -> Vec<Vec<f64>> {
    let n = |iters: usize| (iters / scale).max(2);
    let alltoall = |c: &Comm| {
        black_box(c.alltoall_bytes(vec![Bytes::from_static(&[7; 16]); c.size()]));
    };
    let (delta_enc, delta_dec, delta_ratio) = codec_delta(n(8));
    let passes: [&dyn Fn() -> Vec<f64>; 21] = [
        &|| pingpong(TransportKind::InProc, n(5_000), None, micros),
        &|| pingpong(TransportKind::InProc, n(1_000), Some(1), gibps(MIB8)),
        &|| pingpong(TransportKind::Socket, n(1_000), None, micros),
        &|| pingpong(TransportKind::Socket, n(30), Some(1), gibps(MIB8)),
        &|| pingpong(TransportKind::Socket, n(30), Some(64), gibps(MIB8)),
        &|| collective(n(1_500), alltoall),
        &|| collective(n(1_000), Comm::barrier),
        &|| rpc(n(1_500), 1, false),
        &|| rpc(n(400), 1, true),
        &|| rpc(n(600), 3, false),
        &|| decompose(n(20_000)),
        &|| selection_runs(n(2_000)),
        &|| selection_overlap(n(2_000)),
        &|| batch_req(n(20_000)),
        &|| reply_walk(n(40)),
        &|| memvol_write(n(40), Ownership::Deep),
        &|| memvol_write(n(4_000), Ownership::Shallow),
        &|| delta_enc.clone(),
        &|| delta_dec.clone(),
        &|| delta_ratio.clone(),
        &|| codec_random(n(8)),
    ];
    LAYERS
        .iter()
        .zip(passes)
        .map(|(named, pass)| {
            let t0 = Instant::now();
            let samples = pass();
            eprintln!("lfbench: layers: {} took {:.2} s", named.0, t0.elapsed().as_secs_f64());
            samples
        })
        .collect()
}

/// One discarded repetition, then [`REPS`] kept ones.
fn reps(mut once: impl FnMut() -> f64) -> Vec<f64> {
    once();
    (0..REPS).map(|_| once()).collect()
}

fn micros(seconds: f64, iters: usize) -> f64 {
    seconds * 1e6 / iters as f64
}

fn nanos(seconds: f64, iters: usize) -> f64 {
    seconds * 1e9 / iters as f64
}

fn gibps(bytes_per_iter: usize) -> impl Fn(f64, usize) -> f64 + Copy {
    move |seconds, iters| (bytes_per_iter * iters) as f64 / GIB / seconds
}

/// Time `iters` runs of `op`, converted by `unit(seconds, iters)`.
fn timed(iters: usize, unit: impl Fn(f64, usize) -> f64, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    unit(t0.elapsed().as_secs_f64(), iters)
}

const TAG: u32 = 11;

/// Rank 0 sends to rank 1 and waits for the answer. `big: None` is a
/// 16-byte echo (round-trip time); `Some(parts)` sends 8 MiB in that
/// many parts and gets one byte back (one-way bandwidth).
fn pingpong(
    transport: TransportKind,
    iters: usize,
    big: Option<usize>,
    unit: impl Fn(f64, usize) -> f64 + Copy + Send + Sync,
) -> Vec<f64> {
    let block = Bytes::from(vec![0xA5u8; MIB8]);
    let out = World::builder(2).transport(transport).run(|c| {
        bind_to_cpu(c.rank());
        if c.rank() == 1 {
            for _ in 0..iters * (REPS + 1) {
                let got = c.recv_parts(0.into(), TAG.into()).payload;
                let answer = if big.is_some() { 1 } else { got.len() };
                c.send(0, TAG, vec![0u8; answer]);
            }
            return Vec::new();
        }
        reps(|| {
            timed(iters, unit, || {
                match big {
                    None => c.send(1, TAG, vec![0u8; 16]),
                    Some(1) => c.send(1, TAG, block.clone()),
                    Some(parts) => {
                        let each = MIB8 / parts;
                        let lent = (0..parts).map(|i| block.slice(i * each..(i + 1) * each));
                        c.send_parts(1, TAG, Payload::from_parts(lent.collect()));
                    }
                }
                black_box(c.recv(1.into(), TAG.into()));
            })
        })
    });
    out.results.into_iter().next().expect("rank 0")
}

/// A 4-rank collective, timed on rank 0.
fn collective(iters: usize, op: impl Fn(&Comm) + Send + Sync) -> Vec<f64> {
    let out = World::builder(4).transport(TransportKind::InProc).run(|c| {
        bind_to_cpu(c.rank());
        if c.rank() != 0 {
            (0..iters * (REPS + 1)).for_each(|_| op(&c));
            return Vec::new();
        }
        reps(|| timed(iters, micros, || op(&c)))
    });
    out.results.into_iter().next().expect("rank 0")
}

const M_ECHO: u32 = 1;
const M_STOP: u32 = 2;

/// `RpcClient` on the last rank against `servers` `RpcServer::serve`
/// loops: a 16-byte echo (one `call`, or one `call_many` over all
/// servers), or — `payload` — an 8 MiB reply lent as 64 parts.
fn rpc(iters: usize, servers: usize, payload: bool) -> Vec<f64> {
    let block = Bytes::from(vec![0x5Au8; MIB8]);
    let out = World::builder(servers + 1).transport(TransportKind::InProc).run(|c| {
        bind_to_cpu(c.rank());
        if c.rank() < servers {
            RpcServer::new(&c).serve(|_, method, args| match method {
                M_STOP => ServeOutcome::Stop(Some(Bytes::new())),
                _ if payload => {
                    let each = MIB8 / 64;
                    let lent = (0..64).map(|i| block.slice(i * each..(i + 1) * each));
                    ServeOutcome::ReplyParts(Payload::from_parts(lent.collect()))
                }
                _ => ServeOutcome::Reply(args),
            });
            return Vec::new();
        }
        let client = RpcClient::new(&c);
        let calls: Vec<Call> = (0..servers).map(|s| Call::new(s, M_ECHO, vec![0u8; 16])).collect();
        let samples = reps(|| {
            if payload {
                timed(iters, gibps(MIB8), || {
                    black_box(client.call_payload(0, M_ECHO, &[0; 16]));
                })
            } else if servers == 1 {
                timed(iters, micros, || {
                    black_box(client.call(0, M_ECHO, &[0; 16]));
                })
            } else {
                timed(iters, micros, || {
                    black_box(client.call_many_collect(&calls, None));
                })
            }
        });
        (0..servers).for_each(|s| drop(client.call(s, M_STOP, &[])));
        samples
    });
    out.results.into_iter().last().expect("client rank")
}

fn decompose(iters: usize) -> Vec<f64> {
    let dims = BULK.dims();
    let query = BULK.consumer_box(1);
    reps(|| {
        timed(iters, nanos, || {
            let d = RegularDecomposer::new(black_box(&dims), BULK.producers);
            black_box(d.blocks_intersecting(&query));
        })
    })
}

fn selection_runs(iters: usize) -> Vec<f64> {
    let space = Dataspace::simple(&BULK.dims());
    let sel = BULK.consumer_box(1).to_selection();
    let runs = sel.runs(&space).len();
    reps(|| timed(iters, nanos, || drop(black_box(sel.runs(black_box(&space))))) / runs as f64)
}

fn selection_overlap(iters: usize) -> Vec<f64> {
    let space = Dataspace::simple(&BULK.dims());
    let region = BULK.producer_box(1).to_selection().runs(&space);
    let query = BULK.consumer_box(1).to_selection().runs(&space);
    let runs = overlap_runs(&region, &query).len();
    reps(|| {
        timed(iters, nanos, || drop(black_box(overlap_runs(black_box(&region), &query))))
            / runs as f64
    })
}

/// Encode + decode of a 4-entry `M_DATA_BATCH` request.
fn batch_req(iters: usize) -> Vec<f64> {
    let entries: Vec<(String, Selection)> = BULK
        .consumer_chunks(1, 0, 4)
        .iter()
        .map(|bb| ("grid".to_string(), bb.to_selection()))
        .collect();
    reps(|| {
        timed(iters, nanos, || {
            let frame = enc_data_req_batch(black_box("bulk_shallow.17.h5"), &entries);
            black_box(dec_data_req_batch(&frame).expect("round trip"));
        })
    })
}

/// The consumer's scatter kernel from outside: a producer's lent reply
/// for one bulk read (96 segments of 36 KiB) is framed, its header
/// decoded, and every segment copied to its place in the read buffer.
fn reply_walk(iters: usize) -> Vec<f64> {
    let space = Dataspace::simple(&BULK.dims());
    let region = BULK.producer_box(1).to_selection().runs(&space);
    let query_box = BULK.consumer_box(1);
    let overlaps = overlap_runs(&region, &query_box.to_selection().runs(&space));
    let slab = Bytes::from(vec![0x3Cu8; BULK.slab_bytes()]);
    let blob_len: u64 = overlaps.iter().map(|o| o.len * 8).sum();
    let mut dst = vec![0u8; query_box.npoints() as usize * 8];
    reps(|| {
        timed(iters, gibps(blob_len as usize), || {
            let mut frame = ReplyFrame::new();
            frame.put_u64(1);
            frame.put_u64(overlaps.len() as u64);
            for o in &overlaps {
                frame.put_u64(o.b_off);
                frame.put_u64(o.len);
            }
            frame.put_blob_len(blob_len);
            for o in &overlaps {
                let at = o.a_off as usize * 8;
                frame.lend(slab.slice(at..at + o.len as usize * 8));
            }
            let mut reader = PayloadReader::new(frame.finish());
            let (_, segs, _) = get_data_reply_header(&mut reader).expect("header");
            for (off, len) in segs {
                let at = off as usize * 8;
                reader.copy_into(&mut dst[at..at + len as usize * 8]).expect("segment");
            }
            black_box(&mut dst);
        })
    })
}

/// Create a file in a `MetadataVol::over_native`, write one 2 MiB
/// dataset region with `ownership`, close it: GiB/s when the write
/// copies (deep), microseconds per file when it lends (shallow).
fn memvol_write(iters: usize, ownership: Ownership) -> Vec<f64> {
    let data = Bytes::from(vec![0x11u8; 2 << 20]);
    let cells = (data.len() / 8) as u64;
    reps(|| {
        // A fresh connector per repetition: it retains every file.
        let vol = MetadataVol::over_native(LowFiveProps::new());
        let mut file_no = 0;
        let write = || {
            file_no += 1;
            let f = vol.file_create(&format!("layer.{file_no}.h5")).expect("create");
            let d = vol
                .dataset_create(f, "grid", &Datatype::UInt64, &Dataspace::simple(&[cells]))
                .expect("dataset");
            vol.dataset_write(d, &Selection::all(), data.clone(), ownership).expect("write");
            vol.file_close(f).expect("close");
        };
        match ownership {
            Ownership::Deep => timed(iters, gibps(data.len()), write),
            Ownership::Shallow => timed(iters, micros, write),
        }
    })
}

const CODEC_BYTES: usize = 4 << 20;

/// Delta-RLE over a smooth field (consecutive `u64`s): encode rate,
/// decode rate, and coded size over raw size.
fn codec_delta(iters: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let smooth: Vec<u8> = (0..CODEC_BYTES as u64 / 8).flat_map(|v| v.to_le_bytes()).collect();
    let raw = Bytes::from(smooth);
    let coded = encode_coded(Payload::from(raw.clone()), CODEC_DELTA_RLE).into_bytes();
    assert_eq!(dec_coded(&coded, CAP_ALL).expect("decode"), raw);
    let enc = reps(|| {
        timed(iters, gibps(CODEC_BYTES), || {
            black_box(encode_coded(Payload::from(raw.clone()), CODEC_DELTA_RLE));
        })
    });
    let dec = reps(|| {
        timed(iters, gibps(CODEC_BYTES), || {
            black_box(dec_coded(black_box(&coded), CAP_ALL).expect("decode"));
        })
    });
    (enc, dec, vec![coded.len() as f64 / raw.len() as f64; REPS])
}

/// Delta-RLE over incompressible bytes: the cost of trying and falling
/// back to raw.
fn codec_random(iters: usize) -> Vec<f64> {
    let noise: Vec<u8> =
        (0..CODEC_BYTES as u64 / 8).flat_map(|i| splitmix64(i).to_le_bytes()).collect();
    let raw = Bytes::from(noise);
    reps(|| {
        timed(iters, gibps(CODEC_BYTES), || {
            black_box(encode_coded(Payload::from(raw.clone()), CODEC_DELTA_RLE));
        })
    })
}
