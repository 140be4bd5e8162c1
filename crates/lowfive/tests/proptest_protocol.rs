//! Decoder-robustness properties for the wire protocol: every `dec_*`
//! must answer hostile bytes with `Err`, never a panic — and never a
//! silently-wrong value where the framing makes that detectable.
//!
//! Three attack shapes, over every frame kind the protocol defines:
//!
//! * **truncation** at every possible cut — exhaustive, not sampled,
//!   since frames are tiny;
//! * **trailing garbage** after a valid frame — rejected by the
//!   `expect_eof` discipline (a decoder that ignores leftover bytes
//!   would silently mask interleaving bugs upstream);
//! * **random byte flips** — sampled by proptest; the decode may
//!   succeed (most fields carry no checksum) but must never panic.
//!
//! Plus the codec identity: `encode_coded` → `decode_coded_payload` is
//! the identity on arbitrary bodies, under every codec and any
//! multi-part split of the input.

use bytes::Bytes;
use lowfive::protocol::*;
use minih5::format::FileMeta;
use minih5::{BBox, Selection};
use proptest::prelude::*;
use simmpi::Payload;

/// A frame-kind fixture: `(name, valid frame, decoder)`.
type Frame = (&'static str, Bytes, fn(&[u8]) -> bool);

/// Every structured frame kind. The result-wrapper and raw-codec frames
/// are deliberately absent — their bodies are opaque by design, so
/// "leftover bytes" is not a concept they can check.
fn frames() -> Vec<Frame> {
    let sel = Selection::block(&[0, 0], &[2, 2]);
    let step = StepNextReply::Step { seq: 9, file: "s@s1".into(), gen: 2, pub_ns: 77 };
    vec![
        ("metadata_req", enc_metadata_req("a.h5", CAP_ALL), |b| dec_metadata_req(b).is_ok()),
        ("codec_offer", enc_codec_offer("a.h5", CAP_RLE | CAP_RAW), |b| dec_codec_offer(b).is_ok()),
        (
            "data_req_batch",
            enc_data_req_batch("f.h5", &[("d".into(), sel.clone()), ("e".into(), sel.clone())]),
            |b| dec_data_req_batch(b).is_ok(),
        ),
        ("done_req", enc_done_req("f.h5"), |b| dec_done_req(b).is_ok()),
        ("metadata_reply", enc_metadata_reply(7, CAP_ALL, &FileMeta::default()), |b| {
            dec_metadata_reply(b).is_ok()
        }),
        // The owner lists lead the bodies, so a cut or a flip may land in
        // either half; owners are checked against a three-rank task.
        (
            "data_reply_batch",
            enc_data_reply_batch(&[
                DataReply {
                    gen: 4,
                    owners: vec![0, 2],
                    segs: vec![(0, 2)],
                    blob: Bytes::from_static(&[9, 9]),
                },
                DataReply { gen: 4, owners: vec![1], segs: vec![], blob: Bytes::new() },
            ]),
            |b| dec_data_reply_batch(b, 3).is_ok(),
        ),
        (
            "index_bundle",
            enc_index_bundle(&[("f.h5".into(), "d".into(), 7, BBox::new(vec![0], vec![4]))]),
            |b| dec_index_bundle(b).is_ok(),
        ),
        ("step_sub_req", enc_step_sub_req("sim.h5", CAP_ALL), |b| dec_step_sub_req(b).is_ok()),
        ("step_sub_reply", enc_step_sub_reply(2, 5, false, CAP_RAW), |b| {
            dec_step_sub_reply(b).is_ok()
        }),
        ("step_next_req", enc_step_next_req("sim.h5", 3, 1, 0), |b| dec_step_next_req(b).is_ok()),
        ("step_next_reply", enc_step_next_reply(&step), |b| dec_step_next_reply(b).is_ok()),
        ("step_ack_req", enc_step_ack_req("sim.h5", 11), |b| dec_step_ack_req(b).is_ok()),
        // A *compressed* coded frame is structured (length header + pair
        // stream), so truncation and padding are detectable — unlike its
        // raw sibling, whose body is opaque.
        ("rle_coded", encode_coded(Payload::from(vec![7u8; 64]), CODEC_RLE).to_bytes(), |b| {
            dec_coded(&Bytes::copy_from_slice(b), CAP_ALL).is_ok()
        }),
    ]
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
    let reply = DataReply { gen: 1, owners: vec![0, 3], segs: vec![], blob: Bytes::new() };
    let frame = enc_data_reply_batch(&[reply]);
    assert!(dec_data_reply_batch(&frame, 4).is_ok());
    let e = dec_data_reply_batch(&frame, 3).unwrap_err();
    assert!(matches!(&e, minih5::H5Error::Format(m) if m.contains("owner rank 3")), "{e}");
    let huge: Vec<u8> = [1, u64::MAX / 8].into_iter().flat_map(u64::to_le_bytes).collect();
    let e = dec_data_reply_batch(&huge, 3).unwrap_err();
    assert!(matches!(e, minih5::H5Error::Format(_)), "{e}");
}

/// An owner rank from the wire is checked before it indexes anything: a
/// producer whose batch reply names a rank outside its task fails the
/// consumer's read with `H5Error::Format`, never a panic.
#[test]
fn out_of_range_owner_fails_the_read_cleanly() {
    use diyblk::rpc::{RpcServer, ServeOutcome};
    use lowfive::{DistVolBuilder, LowFiveProps, MetadataVol};
    use minih5::{Dataspace, Datatype, H5Error, Vol, H5};
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
            let forged = enc_data_reply_batch(&[DataReply {
                gen: 0,
                owners: vec![7],
                segs: vec![],
                blob: Bytes::new(),
            }]);
            RpcServer::new(&tc.world).serve(|_, method, _| match method {
                M_METADATA => {
                    ServeOutcome::Reply(enc_result(Ok(enc_metadata_reply(0, CAP_RAW, &meta))))
                }
                M_DATA_BATCH => ServeOutcome::Reply(enc_result(Ok(encode_coded(
                    Payload::from(forged.clone()),
                    CODEC_RAW,
                )
                .to_bytes()))),
                _ => ServeOutcome::Stop(Some(enc_result(Ok(Bytes::new())))),
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Arbitrary single-byte corruption never panics a decoder. The
    /// decode may still succeed — most fields carry no checksum — but
    /// it must fail *cleanly* when it fails.
    #[test]
    fn byte_flips_never_panic(
        which in 0usize..17,
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let all = frames();
        let (_, frame, dec) = &all[which % all.len()];
        let mut b = frame.to_vec();
        let i = (pos as usize) % b.len();
        b[i] ^= xor;
        let _ = dec(&b);
    }

    /// Corrupting a *compressed* frame may shrink or grow the expansion,
    /// but the declared-length discipline catches every size mismatch:
    /// a flip in the RLE pair stream either errs or expands to exactly
    /// the declared length — never to a differently-sized body.
    #[test]
    fn rle_expansion_length_is_pinned(
        body in proptest::collection::vec(0u8..4, 16..200),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let coded = encode_coded(Payload::from(body.clone()), CODEC_RLE).to_bytes();
        if coded[0] != CODEC_RLE {
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

    /// encode → decode is the identity for every codec, on any body and
    /// any two-part split (the encoder walks parts, the decoder fuses
    /// them back).
    #[test]
    fn codec_roundtrip_is_identity(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        split in any::<u64>(),
        codec in 0u8..3,
    ) {
        let cut = (split as usize) % (body.len() + 1);
        let mut p = Payload::new();
        p.push(Bytes::copy_from_slice(&body[..cut]));
        p.push(Bytes::copy_from_slice(&body[cut..]));
        let coded = encode_coded(p, codec);
        let back = decode_coded_payload(coded.clone(), CAP_ALL).unwrap();
        prop_assert_eq!(&back.to_bytes()[..], &body[..]);
        let back = dec_coded(&coded.to_bytes(), CAP_ALL).unwrap();
        prop_assert_eq!(&back[..], &body[..]);
    }
}
