//! Deterministic fuzz of the TCP frame decode path (satellite of the
//! hostile-cluster PR): seeded random corruption — truncations, bit
//! flips, length-lying prefixes — must always surface as *typed* errors
//! ([`FrameError`] from the framing layer, `PvfsError` from the codec),
//! never as a panic, a hang, or an oversized allocation.
//!
//! The corpus is the codec's committed frames (`pvfs-proto`'s
//! `fixtures.rs`): every request opcode, untraced and traced, every
//! response kind and every error code, list I/O with trailing region
//! data and bulk payloads among them. So the mutations exercise the
//! actual header/trailing/bulk boundaries rather than arbitrary noise.
//! Seeds are fixed: a failure reproduces exactly.

use bytes::Bytes;
use pvfs_net::tcp::frame::{read_frame, write_frame, FrameError, FrameReader, LEN_PREFIX};
use pvfs_net::tcp::TcpCluster;
use pvfs_proto::{
    decode_message, decode_response, encode_message, Message, Request, Response, MAX_WIRE_FRAME,
};
use pvfs_server::{IoDaemon, IodConfig};
use pvfs_types::{
    ClientId, FileHandle, PvfsError, Region, RegionList, RequestId, ServerId, StripeLayout,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::Arc;

#[path = "../../proto/src/fixtures.rs"]
mod fixtures;

/// Every frame in the corpus, already length-prefix framed for the wire.
fn corpus_wire() -> Vec<Vec<u8>> {
    let requests = fixtures::REQUESTS.iter().flat_map(|(_, v1, v2)| [*v1, *v2]);
    let replies = fixtures::RESPONSES.iter().chain(&fixtures::ERRORS);
    requests
        .chain(replies.map(|(_, frame)| *frame))
        .map(|hex| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Bytes::from(fixtures::bytes(hex))).unwrap();
            wire
        })
        .collect()
}

/// Feed mangled wire bytes through the full decode stack. The only
/// acceptable outcomes are a typed frame error or a frame that then
/// either decodes or fails with a typed `PvfsError` — never a panic.
/// `frames` is the test's one long-lived connection reader: every round
/// receives into whatever buffer the rounds before left it, which is how
/// a real connection meets a mangled frame.
fn decode_stack(frames: &mut FrameReader, wire: &[u8]) {
    let mut r = wire;
    loop {
        match frames.read_frame(&mut r) {
            Ok(frame) => {
                // Both interpretations must be panic-free: a mangled
                // stream does not say which peer sent it.
                let _ = decode_message(frame.clone());
                let _ = decode_response(frame);
            }
            Err(FrameError::Closed) => break,
            Err(FrameError::TooLarge(PvfsError::FrameTooLarge { len, max })) => {
                assert!(len > max, "TooLarge must only fire over the cap");
                break;
            }
            Err(FrameError::TooLarge(other)) => {
                panic!("TooLarge must carry FrameTooLarge, got {other:?}")
            }
            Err(FrameError::Io(_)) => break,
        }
    }
}

/// Truncating a valid frame at EVERY byte boundary yields `Closed` (cut
/// before the first byte), a typed I/O error (cut mid-frame), or — when
/// the cut lands past the announced frame — a clean decode. Exhaustive,
/// not sampled: truncation is the failure disconnect injection produces.
#[test]
fn every_truncation_point_is_a_typed_error() {
    let mut frames = FrameReader::new();
    for wire in corpus_wire() {
        // A reader that has just failed mid-frame is not poisoned: the
        // whole frame still arrives intact through it afterwards.
        let whole = frames.read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(whole.as_ref(), &wire[LEN_PREFIX..]);
        drop(whole);
        for cut in 0..wire.len() {
            let t = &wire[..cut];
            let mut r = t;
            match frames.read_frame(&mut r) {
                Ok(frame) => {
                    // Only possible when the whole announced frame fit
                    // before the cut (cut inside a *following* frame is
                    // impossible here — one frame per wire buffer).
                    assert_eq!(cut, wire.len(), "short read produced a full frame");
                    let _ = decode_message(frame);
                }
                Err(FrameError::Closed) => assert_eq!(cut, 0, "Closed only at a frame boundary"),
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
                }
                Err(FrameError::TooLarge(_)) => {
                    panic!("truncation cannot announce an oversized frame")
                }
            }
            let again = frames.read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(
                again.as_ref(),
                &wire[LEN_PREFIX..],
                "cut {cut} poisoned the reader"
            );
        }
    }
}

/// Seeded bit flips anywhere in the wire image (prefix or body): the
/// decode stack must never panic and never allocate past the cap. This
/// is the corruption class the `corrupt` fault injects plus worse —
/// injected corruption only truncates, flips also hit the prefix.
#[test]
fn random_bit_flips_never_panic() {
    let corpus = corpus_wire();
    let mut frames = FrameReader::new();
    let mut rng = StdRng::seed_from_u64(0xf1f1_f1f1);
    for round in 0..2_000usize {
        let mut wire = corpus[round % corpus.len()].clone();
        // 1..=4 independent bit flips per round.
        for _ in 0..rng.gen_range(1usize..=4) {
            let byte = rng.gen_range(0usize..wire.len());
            let bit = rng.gen_range(0u32..8);
            wire[byte] ^= 1 << bit;
        }
        decode_stack(&mut frames, &wire);
    }
}

/// Length-lying prefixes: the prefix is rewritten to a random value
/// (including far past the real body and past the global cap) while the
/// body stays put. Oversized announcements must be the typed
/// `FrameTooLarge` with nothing allocated; undersized ones must decode
/// or fail typed; overlong-but-capped ones must die as mid-frame EOF.
#[test]
fn length_lying_prefixes_are_typed_errors() {
    let corpus = corpus_wire();
    let mut frames = FrameReader::new();
    let mut rng = StdRng::seed_from_u64(0x11ed_cafe);
    for round in 0..2_000usize {
        let mut wire = corpus[round % corpus.len()].clone();
        let body_len = wire.len() - LEN_PREFIX;
        let lie: u32 = match round % 4 {
            // Undersized: frame boundary lands mid-message.
            0 => rng.gen_range(0u32..=body_len as u32),
            // Overlong but under the cap: read runs off the stream end.
            1 => rng.gen_range(body_len as u32 + 1..=MAX_WIRE_FRAME as u32),
            // Just over the cap.
            2 => rng.gen_range(MAX_WIRE_FRAME as u32 + 1..=MAX_WIRE_FRAME as u32 + 9000),
            // Anywhere in u32 space, including ~4 GiB.
            _ => rng.gen::<u64>() as u32,
        };
        wire[..LEN_PREFIX].copy_from_slice(&lie.to_le_bytes());
        decode_stack(&mut frames, &wire);
    }
}

/// Random garbage streams (not derived from any valid frame) through
/// the whole stack, plus the pathological empty-and-tiny prefixes.
#[test]
fn arbitrary_garbage_never_panics() {
    let mut frames = FrameReader::new();
    let mut rng = StdRng::seed_from_u64(0xbad_f00d);
    for _ in 0..2_000usize {
        let len = rng.gen_range(0usize..512);
        let wire: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        decode_stack(&mut frames, &wire);
    }
}

/// A well-formed frame can still lie about sizes *inside* the message:
/// a list read naming a 2^40-byte region passes every framing and codec
/// check. Over a live tcp daemon it must come back as a typed protocol
/// error — not take the daemon down sizing a reply buffer — and the
/// same connection must go on being served.
#[test]
fn read_naming_a_huge_region_is_answered_and_the_daemon_keeps_serving() {
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let mut conn = TcpStream::connect(tcp.server_addrs()[0]).unwrap();
    let l = StripeLayout::new(0, 1, 1 << 16).unwrap();
    let fh = FileHandle(7);
    let mut call = |id: u64, request: Request| {
        let frame = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(id),
            request,
        })
        .unwrap();
        write_frame(&mut conn, &frame).unwrap();
        let (rid, response) = decode_response(read_frame(&mut conn).unwrap()).unwrap();
        assert_eq!(rid, RequestId(id));
        response
    };

    let written = call(
        1,
        Request::Write {
            handle: fh,
            layout: l,
            region: Region::new(0, 8),
            data: Bytes::from(vec![0x5a; 8]),
        },
    );
    assert_eq!(written, Response::Written { bytes: 8 });

    let hostile = RegionList::from_regions(vec![Region::new(0, 8), Region::new(64, 1 << 40)]);
    match call(
        2,
        Request::ReadList {
            handle: fh,
            layout: l,
            regions: hostile.unwrap(),
        },
    ) {
        Response::Error(PvfsError::Protocol(_)) => {}
        other => panic!("expected a typed protocol error, got {other:?}"),
    }

    let read = call(
        3,
        Request::Read {
            handle: fh,
            layout: l,
            region: Region::new(0, 8),
        },
    );
    assert_eq!(
        read,
        Response::Data {
            data: Bytes::from(vec![0x5a; 8])
        }
    );
    assert_eq!(daemons[0].ledger().snapshot().errors, 1);
}
