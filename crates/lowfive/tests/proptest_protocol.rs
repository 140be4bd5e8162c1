//! Decoder-robustness properties for the wire protocol: every decoder
//! must answer hostile bytes with `Err`, never a panic — and never a
//! silently-wrong value where the framing makes that detectable.
//!
//! Every frame comes from one list, [`frames`]: each [`Request`] variant
//! (a test fails when a variant has no row), each reply type, the result
//! wrapper in both forms, and the data reply as the consumer reads it.
//! Three attack shapes run over all of them:
//!
//! * **truncation** at every possible cut — exhaustive, not sampled,
//!   since frames are tiny;
//! * **trailing garbage** after a valid frame — rejected by the
//!   `expect_eof` discipline (a decoder that ignores leftover bytes
//!   would silently mask interleaving bugs upstream);
//! * **random byte flips** — sampled by proptest; the decode may
//!   succeed (most fields carry no checksum) but must never panic.
//!
//! The same list pins every frame's bytes ([`GOLDEN`]). Two properties
//! pin the off-wire delta-RLE codec the benchmark's layer pass times:
//! `encode_coded` → `dec_coded` is the identity on arbitrary bodies
//! under any two-part split of the input, and a corrupted compressed
//! frame never expands to a length other than the one it declares.

use bytes::Bytes;
use lowfive::protocol::*;
use minih5::{BBox, H5Error, H5Result, Selection};
use proptest::prelude::*;
use simmpi::Payload;

/// A frame fixture: `(name, valid frame, decoder)`. The decoder says
/// whether a byte string decodes *as this frame*, in full.
type Frame = (String, Bytes, Box<dyn Fn(&[u8]) -> bool>);

/// One row per [`Request`] variant, every field set off its default.
fn requests(sel: &Selection) -> Vec<Request<'_>> {
    vec![
        Request::Metadata { file: "a.h5" },
        Request::DataBatch {
            file: "f.h5",
            entries: BatchEntries::Read(vec![("d", sel.clone()), ("e", Selection::all())]),
        },
        Request::Done { file: "f.h5" },
        Request::Shutdown,
        Request::StepSub { series: "sim.h5" },
        Request::StepNext { series: "sim.h5", cursor: 4, policy: StepPolicy::SkipOk(2) },
        Request::StepAck { series: "sim.h5", cursor: 11 },
    ]
}

/// The row name of a request. The match is exhaustive: a new variant
/// does not compile until it is named here, and then fails
/// [`every_request_variant_has_a_row`] until [`requests`] lists it.
fn request_name(req: &Request) -> &'static str {
    match req {
        Request::Metadata { .. } => "req_metadata",
        Request::DataBatch { .. } => "req_data_batch",
        Request::Done { .. } => "req_done",
        Request::Shutdown => "req_shutdown",
        Request::StepSub { .. } => "req_step_sub",
        Request::StepNext { .. } => "req_step_next",
        Request::StepAck { .. } => "req_step_ack",
    }
}

/// Every variant name [`request_name`] knows.
const REQUEST_VARIANTS: usize = 7;

/// The data reply of the fixtures: two entries, the first with a lent
/// blob, the second empty; owners are checked against a three-rank task.
fn batch_reply() -> Payload {
    let mut w = BatchReplyWriter::new(2);
    w.owners(&[0, 2]);
    w.owners(&[1]);
    w.body(4, [(0, 2)].into_iter(), 2, [Bytes::from_static(&[9, 9])]);
    w.body(4, std::iter::empty(), 0, []);
    w.finish()
}

/// Walk a data reply the way the consumer's scatter does.
fn read_batch(reply: Payload, producers: usize) -> H5Result<()> {
    let mut r = BatchReplyReader::new(reply, producers)?;
    for _ in 0..r.entries() {
        r.owners(|_| {})?;
    }
    let mut segs = Vec::new();
    for _ in 0..r.entries() {
        let (_, blob_len) = r.body(&mut segs)?;
        r.blob().skip(blob_len)?;
    }
    r.finish()
}

/// The bytes as the transport may deliver them: cut into parts.
fn in_parts(b: &[u8]) -> Payload {
    let b = Bytes::copy_from_slice(b);
    let cuts = [0, b.len() / 3, b.len() / 2, b.len()];
    Payload::from_parts(cuts.windows(2).map(|w| b.slice(w[0]..w[1])).collect())
}

fn row(name: &str, frame: Bytes, dec: impl Fn(&[u8]) -> bool + 'static) -> Frame {
    (name.to_string(), frame, Box::new(dec))
}

/// Every frame kind the protocol defines.
fn frames() -> Vec<Frame> {
    let sel = Selection::block(&[0, 0], &[2, 2]);
    let mut out: Vec<Frame> = requests(&sel)
        .iter()
        .map(|req| {
            let method = req.method();
            row(request_name(req), req.encode().finish(), move |b| {
                Request::decode(method, b).is_ok()
            })
        })
        .collect();
    let meta = MetadataReply { gen: 7, meta: Default::default() };
    let sub = StepSubReply { window_start: 2, next_seq: 5, ended: false };
    let step = StepNextReply::Step { seq: 9, file: "s@s1".into(), gen: 2, pub_ns: 77 };
    let mut bundle = IndexBundle::default();
    bundle.push("f.h5", "d", 7, &BBox::new(vec![0], vec![4]));
    bundle.push("f.h5", "e", 8, &BBox::new(vec![1, 2], vec![3, 4]));
    let is_step_next = |b: &[u8]| StepNextReply::decode(b).is_ok();
    out.extend([
        row("metadata_reply", meta.encode().finish(), |b| MetadataReply::decode(b).is_ok()),
        row("step_sub_reply", sub.encode().finish(), |b| StepSubReply::decode(b).is_ok()),
        row("step_next_pending", StepNextReply::Pending.encode().finish(), is_step_next),
        row("step_next_step", step.encode().finish(), is_step_next),
        row("step_next_ended", StepNextReply::Ended { head: 6 }.encode().finish(), is_step_next),
        row("index_bundle", bundle.finish(), |b| IndexBundle::decode(b).is_ok()),
        row("batch_reply", batch_reply().to_bytes(), |b| read_batch(in_parts(b), 3).is_ok()),
        // The data reply as served: result wrapper, then the reply; read
        // as the consumer reads it, in place and in parts.
        row("result_batch_reply", enc_result_payload(Ok(batch_reply())).to_bytes(), |b| {
            dec_result_payload(in_parts(b)).and_then(|p| read_batch(p, 3)).is_ok()
        }),
        // A step announce as served: one buffer, the ok byte in its
        // headroom.
        row("result_step_next", result_frame(Ok(step.encode())).finish(), |b| {
            dec_result(&Bytes::copy_from_slice(b))
                .and_then(|body| StepNextReply::decode(&body))
                .is_ok()
        }),
        row("result_metadata", result_frame(Ok(meta.encode())).finish(), |b| {
            dec_result(&Bytes::copy_from_slice(b)).and_then(|m| MetadataReply::decode(&m)).is_ok()
        }),
        row("result_ack", OK_EMPTY, |b| {
            dec_result(&Bytes::copy_from_slice(b)).is_ok_and(|body| body.is_empty())
        }),
        row("result_not_found", enc_result(Err(H5Error::NotFound("x.h5".into()))), |b| {
            matches!(dec_result(&Bytes::copy_from_slice(b)), Err(H5Error::NotFound(n)) if n == "x.h5")
        }),
        row(
            "result_peer_unavailable",
            enc_result(Err(H5Error::PeerUnavailable("rank 1 dead".into()))),
            |b| {
                matches!(dec_result_payload(in_parts(b)),
                    Err(H5Error::PeerUnavailable(m)) if m == "rank 1 dead")
            },
        ),
        // A request the producer could not decode.
        row("result_format", enc_result(Err(H5Error::Format("3 trailing bytes".into()))), |b| {
            matches!(dec_result(&Bytes::copy_from_slice(b)),
                Err(H5Error::Format(m)) if m == "3 trailing bytes")
        }),
    ]);
    out
}

/// Every frame of [`frames`], by name, as it crosses the wire. A
/// refactor of the protocol's types must leave these bytes alone: they
/// are the wire. The rows the codec's removal changed (the two requests
/// and two replies that carried codec fields, and the two served replies
/// that carried a codec prefix) were regenerated then; every other row
/// is as commit `689b2ac` wrote it.
const GOLDEN: [(&str, &str); 21] = [
    ("req_metadata", "0400000000000000612e6835"),
    ("req_data_batch", "0400000000000000662e683502000000000000000100000000000000640102000000000000000000000000000000020000000000000001000000000000000200000000000000000000000000000002000000000000000100000000000000020000000000000001000000000000006500"),
    ("req_done", "0400000000000000662e6835"),
    ("req_shutdown", ""),
    ("req_step_sub", "060000000000000073696d2e6835"),
    ("req_step_next", "060000000000000073696d2e68350400000000000000020200000000000000"),
    ("req_step_ack", "060000000000000073696d2e68350b00000000000000"),
    ("metadata_reply", "0700000000000000000000000000000000000000000000000000000000000000"),
    ("step_sub_reply", "0200000000000000050000000000000000"),
    ("step_next_pending", "00"),
    ("step_next_step", "01090000000000000004000000000000007340733102000000000000004d00000000000000"),
    ("step_next_ended", "020600000000000000"),
    ("index_bundle", "02000000000000000400000000000000662e6835010000000000000064070000000000000001000000000000000000000000000000010000000000000004000000000000000400000000000000662e68350100000000000000650800000000000000020000000000000001000000000000000200000000000000020000000000000003000000000000000400000000000000"),
    ("batch_reply", "020000000000000002000000000000000000000000000000020000000000000001000000000000000100000000000000040000000000000001000000000000000000000000000000020000000000000002000000000000000909040000000000000000000000000000000000000000000000"),
    ("result_batch_reply", "01020000000000000002000000000000000000000000000000020000000000000001000000000000000100000000000000040000000000000001000000000000000000000000000000020000000000000002000000000000000909040000000000000000000000000000000000000000000000"),
    ("result_step_next", "0101090000000000000004000000000000007340733102000000000000004d00000000000000"),
    ("result_metadata", "010700000000000000000000000000000000000000000000000000000000000000"),
    ("result_ack", "01"),
    ("result_not_found", "00010400000000000000782e6835"),
    ("result_peer_unavailable", "00020b0000000000000072616e6b20312064656164"),
    ("result_format", "000310000000000000003320747261696c696e67206279746573"),
];

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

#[test]
fn frames_match_their_golden_bytes() {
    let all = frames();
    assert_eq!(all.len(), GOLDEN.len(), "every frame has golden bytes, and no more");
    for ((name, frame, _), (golden_name, golden)) in all.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "rows in the same order");
        assert_eq!(hex(frame), golden, "{name}: the bytes on the wire changed");
    }
}

#[test]
fn every_request_variant_has_a_row() {
    let sel = Selection::all();
    let mut named: Vec<&str> = requests(&sel).iter().map(request_name).collect();
    named.sort_unstable();
    named.dedup();
    assert_eq!(named.len(), REQUEST_VARIANTS, "a Request variant has no row: {named:?}");
}

#[test]
fn every_frame_decodes_whole() {
    for (name, frame, dec) in frames() {
        assert!(dec(&frame), "{name}: the untouched frame must decode");
    }
}

#[test]
fn every_truncation_is_rejected() {
    for (name, frame, dec) in frames() {
        for cut in 0..frame.len() {
            assert!(!dec(&frame[..cut]), "{name}: truncation to {cut}/{} bytes", frame.len());
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for (name, frame, dec) in frames() {
        for pad in [&[0u8][..], &[0xFF], &[1, 2], &[0xAB, 0xCD, 0xEF, 0x01]] {
            let mut b = frame.to_vec();
            b.extend_from_slice(pad);
            assert!(!dec(&b), "{name}: {} trailing bytes accepted", pad.len());
        }
    }
}

/// Owner lists are checked against the producer task: an owner outside
/// it, or an owner count the frame cannot hold, is a format error.
#[test]
fn owners_outside_the_producer_task_are_rejected() {
    let mut w = BatchReplyWriter::new(1);
    w.owners(&[0, 3]);
    w.body(1, std::iter::empty(), 0, []);
    let frame = w.finish();
    assert!(read_batch(frame.clone(), 4).is_ok());
    let e = read_batch(frame, 3).unwrap_err();
    assert!(matches!(&e, H5Error::Format(m) if m.contains("owner rank 3")), "{e}");
    let huge: Vec<u8> = [1, u64::MAX / 8].into_iter().flat_map(u64::to_le_bytes).collect();
    let e = read_batch(Payload::from(huge), 3).unwrap_err();
    assert!(matches!(e, H5Error::Format(_)), "{e}");
}

/// An owner rank from the wire is checked before it indexes anything: a
/// producer whose batch reply names a rank outside its task fails the
/// consumer's read with `H5Error::Format`, never a panic.
#[test]
fn out_of_range_owner_fails_the_read_cleanly() {
    use diyblk::rpc::{RpcServer, ServeOutcome};
    use lowfive::{DistVolBuilder, LowFiveProps, MetadataVol};
    use minih5::{Dataspace, Datatype, Vol, H5};
    use simmpi::{TaskSpec, TaskWorld};

    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::run(&specs, |tc| {
        if tc.task_id == 0 {
            // A hand-rolled producer: a real metadata tree, a forged reply
            // naming owner 7 of a one-rank task.
            let tree = MetadataVol::over_native(LowFiveProps::new());
            let f = tree.file_create("forged.h5").unwrap();
            tree.dataset_create(f, "x", &Datatype::UInt64, &Dataspace::simple(&[4])).unwrap();
            let meta = tree.file_meta("forged.h5").unwrap();
            let forged = || {
                let mut w = BatchReplyWriter::new(1);
                w.owners(&[7]);
                w.body(0, std::iter::empty(), 0, []);
                w.finish()
            };
            RpcServer::new(&tc.world).serve(|_, method, _| match method {
                M_METADATA => ServeOutcome::Reply(
                    result_frame(Ok(MetadataReply { gen: 0, meta: meta.clone() }.encode()))
                        .finish(),
                ),
                M_DATA_BATCH => ServeOutcome::ReplyParts(enc_result_payload(Ok(forged()))),
                _ => ServeOutcome::Stop(Some(OK_EMPTY)),
            });
        } else {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .consume("*", vec![0])
                .build();
            let f = H5::with_vol(vol as std::sync::Arc<dyn Vol>).open_file("forged.h5").unwrap();
            let err = f.open_dataset("x").unwrap().read_all::<u64>().unwrap_err();
            assert!(matches!(&err, H5Error::Format(m) if m.contains("owner rank 7")), "{err}");
            f.close().unwrap();
        }
    });
}

/// A request that does not decode is counted under `rpc_malformed` and
/// answered with the decode error, never acked as a DONE for some other
/// file. The producer keeps serving: the consumer's well-formed DONE
/// that follows ends its session.
#[test]
fn truncated_done_is_counted_and_answered_with_the_error() {
    use diyblk::RpcClient;
    use lowfive::DistVolBuilder;
    use minih5::{Dataspace, Datatype, Vol, H5};
    use simmpi::{TaskSpec, TaskWorld};

    let reg = obsv::Registry::new();
    let specs = [TaskSpec::new("p", 1), TaskSpec::new("c", 1)];
    TaskWorld::builder(&specs).observe(reg.clone()).run(|tc| {
        if tc.task_id == 0 {
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .produce("*", vec![1])
                .build();
            let f = H5::with_vol(vol as std::sync::Arc<dyn Vol>).create_file("t.h5").unwrap();
            f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[1])).unwrap();
            // Serves until the consumer's DONE for "t.h5" arrives.
            f.close().unwrap();
        } else {
            // A hand-rolled consumer: a DONE cut inside its name's length.
            let rpc = RpcClient::new(&tc.world);
            let done = Request::Done { file: "t.h5" };
            let whole = done.encode().finish();
            let reply = rpc.call(0, done.method(), &whole[..5]);
            let err = dec_result(&reply).unwrap_err();
            assert!(matches!(&err, H5Error::Format(_)), "{err}");
            let reply = rpc.call(0, done.method(), &whole);
            assert!(dec_result(&reply).is_ok(), "the whole DONE is acked");
        }
    });
    assert_eq!(reg.report().counter(obsv::Ctr::RpcMalformed), 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Arbitrary single-byte corruption never panics a decoder. The
    /// decode may still succeed — most fields carry no checksum — but
    /// it must fail *cleanly* when it fails.
    #[test]
    fn byte_flips_never_panic(
        which in any::<u64>(),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let all = frames();
        let (_, frame, dec) = &all[(which % all.len() as u64) as usize];
        let mut b = frame.to_vec();
        if !b.is_empty() {
            let i = (pos as usize) % b.len();
            b[i] ^= xor;
        }
        let _ = dec(&b);
    }

    /// Corrupting a *compressed* frame may shrink or grow the expansion,
    /// but the declared-length discipline catches every size mismatch:
    /// a flip in the RLE pair stream either errs or expands to exactly
    /// the declared length — never to a differently-sized body. The body
    /// is one 8-byte element repeated, which the delta lag turns into
    /// zero runs, so it compresses.
    #[test]
    fn rle_expansion_length_is_pinned(
        elem in any::<u64>(),
        n in 2usize..25,
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let body: Vec<u8> = std::iter::repeat_n(elem.to_le_bytes(), n).flatten().collect();
        let coded = encode_coded(Payload::from(body.clone()), CODEC_DELTA_RLE).to_bytes();
        if coded[0] != CODEC_DELTA_RLE {
            return; // fell back to raw: nothing structured to corrupt
        }
        let mut b = coded.to_vec();
        let i = (pos as usize) % b.len();
        b[i] ^= xor;
        if let Ok(back) = dec_coded(&Bytes::from(b.clone()), CAP_ALL) {
            // The frame still declared *some* length and the expansion
            // matched it; a silent size change is impossible.
            let declared = u64::from_le_bytes(b[1..9].try_into().unwrap());
            prop_assert_eq!(back.len() as u64, declared);
        }
    }

    /// encode → decode is the identity, raw or delta-RLE, on any body
    /// and any two-part split (the encoder walks parts).
    #[test]
    fn codec_roundtrip_is_identity(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        split in any::<u64>(),
        delta in any::<bool>(),
    ) {
        let cut = (split as usize) % (body.len() + 1);
        let mut p = Payload::new();
        p.push(Bytes::copy_from_slice(&body[..cut]));
        p.push(Bytes::copy_from_slice(&body[cut..]));
        let coded = encode_coded(p, if delta { CODEC_DELTA_RLE } else { 0 });
        let back = dec_coded(&coded.to_bytes(), CAP_ALL).unwrap();
        prop_assert_eq!(&back[..], &body[..]);
    }
}
