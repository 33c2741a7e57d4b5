//! Fuzz-style tests for the binary frame decoder: adversarial and
//! random byte streams must error cleanly — never panic, never
//! over-allocate, never mis-frame — and valid streams must decode
//! identically under any chunking.
//!
//! The decoder's safety contract:
//!
//! - every header byte is validated as it arrives, so garbage fails
//!   fast and an announced length is bounds-checked **before** any
//!   payload buffer is sized to it;
//! - a strict prefix of a valid frame is always `Ok(None)` (need more
//!   bytes), never an error;
//! - the first error poisons the decoder — the stream has no
//!   recoverable framing — and repeats verbatim forever after.

use magseven::serve::frame::{
    encode_request, encode_response, FrameDecoder, FrameError, HEADER_BYTES, MAGIC, MAX_PAYLOAD,
    VERSION,
};
use magseven::serve::wire::{Request, Response};
use magseven::serve::EvalRequest;
use proptest::prelude::*;

/// Drains everything the decoder will currently give, counting frames,
/// and returns the first error (if any). Panics here are test failures.
fn drain_requests(dec: &mut FrameDecoder) -> (usize, Option<FrameError>) {
    let mut frames = 0;
    loop {
        match dec.next_request() {
            Ok(Some(_)) => frames += 1,
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// A small deterministic pool of workloads for generated requests.
fn workload(pick: usize) -> &'static str {
    ["uav-mission", "square", "w", "a-rather-long-workload-name-for-framing"][pick % 4]
}

proptest! {
    /// Arbitrary byte soup, fed in arbitrary chunks: the decoder never
    /// panics, never buffers more than it was fed, and once it errors
    /// the error is sticky and verbatim-stable.
    #[test]
    fn random_bytes_never_panic_and_errors_are_sticky(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        splits in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut dec = FrameDecoder::new();
        let mut fed = 0usize;
        let mut first_err: Option<FrameError> = None;
        let mut cursor = 0usize;
        for &n in &splits {
            if cursor >= bytes.len() {
                break;
            }
            let end = (cursor + n).min(bytes.len());
            dec.feed(&bytes[cursor..end]);
            fed += end - cursor;
            cursor = end;
            prop_assert!(dec.pending_bytes() <= fed, "decoder cannot hold more than it was fed");
            let (_, err) = drain_requests(&mut dec);
            if let Some(e) = err {
                first_err = Some(e);
                break;
            }
        }
        if let Some(e) = first_err {
            // Poisoned: same error, forever, even across more feeds.
            for _ in 0..3 {
                dec.feed(&[MAGIC, VERSION]);
                prop_assert_eq!(dec.next_request().unwrap_err(), e.clone());
            }
        }
    }

    /// A generated request round-trips bit-exactly through
    /// encode → any-chunking → decode → re-encode, for any split
    /// pattern (NaN costs and negative zeros included via raw bits).
    #[test]
    fn valid_frames_survive_any_chunking(
        pick in 0usize..4,
        value_bits in prop::collection::vec(0u64..=u64::MAX, 0..6),
        seed in 0u64..=u64::MAX,
        splits in prop::collection::vec(1usize..16, 1..64),
    ) {
        let values: Vec<f64> = value_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let request = Request::Eval(EvalRequest::new(workload(pick), values, seed));
        let encoded = encode_request(&request);

        let mut dec = FrameDecoder::new();
        let mut cursor = 0usize;
        let mut decoded = None;
        for &n in splits.iter().cycle() {
            if cursor >= encoded.len() {
                break;
            }
            let end = (cursor + n).min(encoded.len());
            dec.feed(&encoded[cursor..end]);
            cursor = end;
            match dec.next_request() {
                Ok(Some(req)) => {
                    prop_assert_eq!(cursor, encoded.len(), "frame completed early");
                    decoded = Some(req);
                }
                Ok(None) => prop_assert!(cursor < encoded.len(), "full frame must decode"),
                Err(e) => prop_assert!(false, "valid frame errored: {}", e),
            }
        }
        let decoded = decoded.expect("frame decodes once fully fed");
        prop_assert_eq!(encode_request(&decoded), encoded, "re-encode must be bit-identical");
    }

    /// Every strict prefix of a valid frame is `Ok(None)` — truncation
    /// at any boundary asks for more bytes, it never errors and never
    /// yields a frame.
    #[test]
    fn every_truncation_boundary_is_incomplete_not_an_error(
        pick in 0usize..4,
        nvalues in 0usize..5,
        seed in 0u64..1 << 48,
    ) {
        let values: Vec<f64> = (0..nvalues).map(|i| i as f64 * 1.5 - 2.0).collect();
        let request = Request::Eval(EvalRequest::new(workload(pick), values, seed));
        let encoded = encode_request(&request);
        for cut in 0..encoded.len() {
            let mut dec = FrameDecoder::new();
            dec.feed(&encoded[..cut]);
            match dec.next_request() {
                Ok(None) => {}
                Ok(Some(_)) => prop_assert!(false, "decoded from a {cut}-byte prefix"),
                Err(e) => prop_assert!(false, "prefix of {} bytes errored: {}", cut, e),
            }
            // The remainder completes the frame.
            dec.feed(&encoded[cut..]);
            prop_assert!(dec.next_request().unwrap().is_some(), "cut at {}", cut);
            prop_assert_eq!(dec.pending_bytes(), 0);
        }
    }

    /// Mutating any single header byte of a valid frame never panics:
    /// the decoder returns an error or (for a kind that remains valid)
    /// a cleanly decoded message — and never both mis-frames and
    /// continues.
    #[test]
    fn single_byte_header_mutations_fail_cleanly(
        byte in 0usize..8,
        xor in 1u8..=255,
        seed in 0u64..1 << 48,
    ) {
        let request = Request::Eval(EvalRequest::new("uav-mission", vec![1.0, 2.0], seed));
        let mut encoded = encode_request(&request);
        encoded[byte] ^= xor;
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        match dec.next_request() {
            Err(_) => {
                // Poisoned from here on.
                prop_assert!(dec.next_request().is_err());
            }
            Ok(_) => {
                // A length mutation can leave a well-formed-but-short
                // stream (Ok(None)) or re-frame into a smaller valid
                // message; both are clean outcomes, not mis-frames.
            }
        }
    }

    /// Responses fuzz the same way requests do: encode → chunk →
    /// decode → re-encode is bit-identical (NaN costs included).
    #[test]
    fn response_frames_survive_any_chunking(
        cost_bits in 0u64..=u64::MAX,
        cached in prop::bool::ANY,
        split in 1usize..16,
    ) {
        let response = Response::Cost { cost: f64::from_bits(cost_bits), cached };
        let encoded = encode_response(&response);
        let mut dec = FrameDecoder::new();
        for chunk in encoded.chunks(split) {
            dec.feed(chunk);
        }
        let decoded = dec.next_response().unwrap().expect("complete response");
        prop_assert_eq!(encode_response(&decoded), encoded);
    }
}

/// Hand-picked adversarial corpus: each case must error (or stay
/// incomplete) without panicking, and an oversized announced length
/// must be rejected from the 8 header bytes alone — the decoder never
/// sizes a buffer to an attacker-chosen length.
#[test]
fn adversarial_corpus_errors_cleanly() {
    // (name, bytes, expect_error)
    let max = u32::try_from(MAX_PAYLOAD).unwrap();
    let corpus: Vec<(&str, Vec<u8>, bool)> = vec![
        ("empty", vec![], false),
        ("wrong magic", vec![0x00], true),
        ("text protocol leaks in", b"op = eval\n\n".to_vec(), true),
        ("magic only", vec![MAGIC], false),
        ("bad version", vec![MAGIC, 0x7f], true),
        ("bad reserved", vec![MAGIC, VERSION, 0x01, 0xff], true),
        ("unknown kind", vec![MAGIC, VERSION, 0x42, 0, 0, 0, 0, 0], true),
        (
            "huge length",
            {
                let mut v = vec![MAGIC, VERSION, 0x01, 0];
                v.extend_from_slice(&u32::MAX.to_le_bytes());
                v
            },
            true,
        ),
        (
            "length just over the cap",
            {
                let mut v = vec![MAGIC, VERSION, 0x01, 0];
                v.extend_from_slice(&(max + 1).to_le_bytes());
                v
            },
            true,
        ),
        (
            "length at the cap, body missing",
            {
                let mut v = vec![MAGIC, VERSION, 0x01, 0];
                v.extend_from_slice(&max.to_le_bytes());
                v
            },
            false,
        ), // incomplete, not an error
        ("response kind on the request path", encode_response(&Response::Busy), true),
        (
            "eval with truncated payload",
            {
                let mut v = encode_request(&Request::Eval(EvalRequest::new("w", vec![1.0], 7)));
                let shorter = u32::try_from(v.len() - HEADER_BYTES - 4).unwrap();
                v[4..8].copy_from_slice(&shorter.to_le_bytes());
                v.truncate(HEADER_BYTES + shorter as usize);
                v
            },
            true,
        ),
        (
            "eval with trailing garbage",
            {
                let mut v = encode_request(&Request::Telemetry);
                let longer = 4u32;
                v[4..8].copy_from_slice(&longer.to_le_bytes());
                v.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
                v
            },
            true,
        ),
        ("all magic bytes", vec![MAGIC; 64], true), // byte 2 (= MAGIC) is no valid version
    ];
    for (name, bytes, expect_error) in corpus {
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let result = dec.next_request();
        if expect_error {
            assert!(result.is_err(), "{name}: wanted an error, got {result:?}");
        } else {
            assert_eq!(
                result.as_ref().ok().map(Option::as_ref),
                Some(None),
                "{name}: wanted incomplete, got {result:?}"
            );
        }
        // Over-allocation guard: whatever happened, the decoder holds
        // only the bytes it was fed — an announced length is never
        // turned into capacity.
        assert!(dec.pending_bytes() <= bytes.len(), "{name}: decoder grew past its input");
    }
}

/// A stream of many back-to-back frames decodes completely and in
/// order, for every chunk size from 1 byte up.
#[test]
fn multi_frame_streams_decode_in_order_at_every_chunk_size() {
    let requests: Vec<Request> = (0..5)
        .map(|i| {
            Request::Eval(EvalRequest::new(workload(i), vec![i as f64, -1.0 / i as f64], i as u64))
        })
        .chain([Request::Telemetry, Request::Shutdown])
        .collect();
    let stream: Vec<u8> = requests.iter().flat_map(encode_request).collect();
    for chunk in 1..=stream.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(req) = dec.next_request().unwrap() {
                got.push(req);
            }
        }
        assert_eq!(got.len(), requests.len(), "chunk size {chunk}");
        for (g, w) in got.iter().zip(&requests) {
            assert_eq!(encode_request(g), encode_request(w), "chunk size {chunk}");
        }
        assert_eq!(dec.pending_bytes(), 0, "chunk size {chunk}");
    }
}

/// Kinds `0x02` and `0x82` carried a retired cache-stats request and its
/// response; both now decode as unknown kinds, never as a message.
#[test]
fn retired_stats_kinds_are_unknown() {
    let mut dec = FrameDecoder::new();
    dec.feed(&[MAGIC, VERSION, 0x02, 0, 0, 0, 0, 0]);
    assert_eq!(dec.next_request(), Err(FrameError::UnknownKind(0x02)));

    // The retired response's five u64 counters.
    let mut bytes = vec![MAGIC, VERSION, 0x82, 0];
    bytes.extend_from_slice(&40u32.to_le_bytes());
    bytes.extend_from_slice(&[0; 40]);
    let mut dec = FrameDecoder::new();
    dec.feed(&bytes);
    assert_eq!(dec.next_response(), Err(FrameError::UnknownKind(0x82)));
}
