//! The binary wire protocol: length-prefixed, versioned frames.
//!
//! Each frame is an 8-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       1     magic   (0xA7 — never a valid first byte of the legacy
//!                        text protocol, so one peeked byte selects the
//!                        protocol per connection)
//! 1       1     version (currently 1)
//! 2       1     kind    (request/response discriminant, below)
//! 3       1     reserved (must be 0)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload
//! ```
//!
//! Kinds `0x01`, `0x03` and `0x04` are requests (eval, shutdown,
//! telemetry); kinds `0x81` and `0x83..=0x86` are responses (cost, busy,
//! stopping, error, telemetry). `0x02` and `0x82` are unassigned, so a
//! client of the retired cache-stats request gets
//! [`FrameError::UnknownKind`], never another message.
//! Integers are little-endian; floats travel as [`f64::to_bits`], so a
//! cost decoded from a frame is the server's cost bit for bit.
//!
//! [`FrameDecoder`] is incremental: feed it arbitrary byte chunks and
//! pull complete messages out. It validates the header *before*
//! allocating anything sized by the untrusted length field, so an
//! adversarial `len = u32::MAX` costs a clean [`FrameError::Oversized`],
//! never an allocation. Malformed input of any kind is an error, never a
//! panic — the fuzz suite in `tests/serve_frame_fuzz.rs` holds it to
//! that.

use crate::key::EvalRequest;
use crate::wire::{Request, Response};

/// First byte of every binary frame. `0xA7` is not valid leading UTF-8
/// and no legacy text message begins with it, so the server can sniff
/// the protocol from one byte.
pub const MAGIC: u8 = 0xA7;

/// Highest frame-layout version this build speaks.
pub const VERSION: u8 = 1;

/// Hard bound on one frame's payload. Headers announcing more are
/// rejected without allocating.
pub const MAX_PAYLOAD: usize = 256 * 1024;

/// Bytes in the fixed frame header.
pub const HEADER_BYTES: usize = 8;

const KIND_REQ_EVAL: u8 = 0x01;
const KIND_REQ_SHUTDOWN: u8 = 0x03;
const KIND_REQ_TELEMETRY: u8 = 0x04;
const KIND_RESP_COST: u8 = 0x81;
const KIND_RESP_BUSY: u8 = 0x83;
const KIND_RESP_STOPPING: u8 = 0x84;
const KIND_RESP_ERROR: u8 = 0x85;
const KIND_RESP_TELEMETRY: u8 = 0x86;

/// Longest workload tag / error message carried in a frame.
const MAX_STRING_BYTES: usize = 4096;
/// Most design values in one eval request.
const MAX_VALUES: usize = 4096;
/// Most `(name, value)` pairs in one telemetry response.
const MAX_TELEMETRY_PAIRS: usize = 256;

/// Why a byte stream is not a valid frame sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first byte of a frame was not [`MAGIC`].
    BadMagic(u8),
    /// The version byte names a layout this build does not speak.
    BadVersion(u8),
    /// The reserved header byte was nonzero.
    BadReserved(u8),
    /// The header announced a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Announced payload length.
        len: u64,
        /// The bound it exceeded.
        max: usize,
    },
    /// The kind byte is not a known request/response discriminant.
    UnknownKind(u8),
    /// The payload ended before the field being decoded.
    Truncated(&'static str),
    /// A decoded field was out of its domain.
    BadField(&'static str),
    /// Payload bytes remained after the last field of the message.
    TrailingBytes(usize),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x} (want 0x{MAGIC:02x})"),
            Self::BadVersion(v) => write!(f, "unsupported frame version {v} (speak {VERSION})"),
            Self::BadReserved(b) => write!(f, "reserved header byte must be 0, got 0x{b:02x}"),
            Self::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte bound")
            }
            Self::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            Self::Truncated(field) => write!(f, "payload truncated inside `{field}`"),
            Self::BadField(field) => write!(f, "invalid value for `{field}`"),
            Self::TrailingBytes(n) => write!(f, "{n} unexpected bytes after the last field"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A little-endian payload reader that can only fail, never read out of
/// bounds.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated(field))?;
        if end > self.bytes.len() {
            return Err(FrameError::Truncated(field));
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn string(&mut self, field: &'static str) -> Result<String, FrameError> {
        let len = self.u32(field)? as usize;
        if len > MAX_STRING_BYTES {
            return Err(FrameError::BadField(field));
        }
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadField(field))
    }

    fn finish(self) -> Result<(), FrameError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes(left))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.push(0);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes one request as a binary frame.
///
/// # Examples
///
/// ```
/// use m7_serve::frame::{encode_request, FrameDecoder};
/// use m7_serve::EvalRequest;
/// use m7_serve::wire::Request;
///
/// let req = Request::Eval(EvalRequest::new("uav-mission", vec![1.0, 2.5], 42));
/// let mut decoder = FrameDecoder::new();
/// decoder.feed(&encode_request(&req));
/// assert_eq!(decoder.next_request().unwrap(), Some(req));
/// ```
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Eval(eval) => {
            let mut p = Vec::new();
            put_string(&mut p, &eval.workload);
            p.extend_from_slice(&eval.seed.to_le_bytes());
            p.extend_from_slice(&(eval.values.len() as u32).to_le_bytes());
            for v in &eval.values {
                p.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            frame(KIND_REQ_EVAL, &p)
        }
        Request::Telemetry => frame(KIND_REQ_TELEMETRY, &[]),
        Request::Shutdown => frame(KIND_REQ_SHUTDOWN, &[]),
    }
}

/// Encodes one response as a binary frame.
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Cost { cost, cached } => {
            let mut p = Vec::with_capacity(9);
            p.extend_from_slice(&cost.to_bits().to_le_bytes());
            p.push(u8::from(*cached));
            frame(KIND_RESP_COST, &p)
        }
        Response::Telemetry(stats) => {
            let pairs = stats.pairs();
            debug_assert!(pairs.len() <= MAX_TELEMETRY_PAIRS);
            let mut p = Vec::with_capacity(4 + pairs.len() * 24);
            p.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (name, value) in pairs {
                put_string(&mut p, name);
                p.extend_from_slice(&value.to_le_bytes());
            }
            frame(KIND_RESP_TELEMETRY, &p)
        }
        Response::Busy => frame(KIND_RESP_BUSY, &[]),
        Response::Stopping => frame(KIND_RESP_STOPPING, &[]),
        Response::Error(msg) => {
            let mut p = Vec::new();
            let clipped: String = msg.chars().take(MAX_STRING_BYTES / 4).collect();
            put_string(&mut p, &clipped);
            frame(KIND_RESP_ERROR, &p)
        }
    }
}

fn decode_request_payload(kind: u8, payload: &[u8]) -> Result<Request, FrameError> {
    match kind {
        KIND_REQ_EVAL => {
            let mut r = Reader::new(payload);
            let workload = r.string("workload")?;
            let seed = r.u64("seed")?;
            let n = r.u32("values.len")? as usize;
            if n > MAX_VALUES {
                return Err(FrameError::BadField("values.len"));
            }
            // The remaining payload bounds the claimed count before any
            // allocation sized by it.
            let bits = r.take(n.saturating_mul(8), "values")?;
            let values = bits
                .chunks_exact(8)
                .map(|c| {
                    f64::from_bits(u64::from_le_bytes([
                        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                    ]))
                })
                .collect();
            r.finish()?;
            Ok(Request::Eval(EvalRequest { workload, values, seed }))
        }
        KIND_REQ_TELEMETRY => {
            Reader::new(payload).finish()?;
            Ok(Request::Telemetry)
        }
        KIND_REQ_SHUTDOWN => {
            Reader::new(payload).finish()?;
            Ok(Request::Shutdown)
        }
        other => Err(FrameError::UnknownKind(other)),
    }
}

fn decode_response_payload(kind: u8, payload: &[u8]) -> Result<Response, FrameError> {
    match kind {
        KIND_RESP_COST => {
            let mut r = Reader::new(payload);
            let cost = f64::from_bits(r.u64("cost")?);
            let cached = match r.u8("cached")? {
                0 => false,
                1 => true,
                _ => return Err(FrameError::BadField("cached")),
            };
            r.finish()?;
            Ok(Response::Cost { cost, cached })
        }
        KIND_RESP_TELEMETRY => {
            let mut r = Reader::new(payload);
            let n = r.u32("telemetry.len")? as usize;
            if n > MAX_TELEMETRY_PAIRS {
                return Err(FrameError::BadField("telemetry.len"));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.string("telemetry.name")?;
                let value = r.u64("telemetry.value")?;
                pairs.push((name, value));
            }
            r.finish()?;
            Ok(Response::Telemetry(Box::new(crate::introspect::ServerStats::from_pairs(
                pairs.iter().map(|(k, v)| (k.as_str(), *v)),
            ))))
        }
        KIND_RESP_BUSY => {
            Reader::new(payload).finish()?;
            Ok(Response::Busy)
        }
        KIND_RESP_STOPPING => {
            Reader::new(payload).finish()?;
            Ok(Response::Stopping)
        }
        KIND_RESP_ERROR => {
            let mut r = Reader::new(payload);
            let msg = r.string("error")?;
            r.finish()?;
            Ok(Response::Error(msg))
        }
        other => Err(FrameError::UnknownKind(other)),
    }
}

/// An incremental frame decoder: buffer arbitrary chunks, pull complete
/// messages.
///
/// Once a call returns an error the decoder is poisoned — the stream has
/// no recoverable framing — and every later call returns the same error.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned message.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Validates the next header and, if its frame is complete, returns
    /// `(kind, payload)`.
    fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = &self.buf[self.consumed..];
        if avail.is_empty() {
            self.compact();
            return Ok(None);
        }
        // Validate every header byte that has arrived so garbage fails
        // fast, before the full header is even in.
        if avail[0] != MAGIC {
            return self.poison(FrameError::BadMagic(avail[0]));
        }
        if avail.len() >= 2 && avail[1] != VERSION {
            return self.poison(FrameError::BadVersion(avail[1]));
        }
        if avail.len() >= 4 && avail[3] != 0 {
            return self.poison(FrameError::BadReserved(avail[3]));
        }
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        if len > MAX_PAYLOAD {
            return self.poison(FrameError::Oversized { len: len as u64, max: MAX_PAYLOAD });
        }
        let kind = avail[2];
        if !matches!(
            kind,
            KIND_REQ_EVAL
                | KIND_REQ_SHUTDOWN
                | KIND_REQ_TELEMETRY
                | KIND_RESP_COST
                | KIND_RESP_BUSY
                | KIND_RESP_STOPPING
                | KIND_RESP_ERROR
                | KIND_RESP_TELEMETRY
        ) {
            return self.poison(FrameError::UnknownKind(kind));
        }
        if avail.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        let payload = avail[HEADER_BYTES..HEADER_BYTES + len].to_vec();
        self.consumed += HEADER_BYTES + len;
        self.compact();
        Ok(Some((kind, payload)))
    }

    fn poison(&mut self, err: FrameError) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        self.poisoned = Some(err.clone());
        Err(err)
    }

    /// Reclaims consumed prefix bytes so the buffer never grows beyond
    /// one in-flight frame plus one read chunk.
    fn compact(&mut self) {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Decodes the next complete request, or `Ok(None)` if more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Any framing or payload violation — see [`FrameError`].
    pub fn next_request(&mut self) -> Result<Option<Request>, FrameError> {
        match self.next_frame()? {
            None => Ok(None),
            Some((kind, payload)) => match decode_request_payload(kind, &payload) {
                Ok(req) => Ok(Some(req)),
                Err(err) => {
                    self.poisoned = Some(err.clone());
                    Err(err)
                }
            },
        }
    }

    /// Decodes the next complete response, or `Ok(None)` if more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Any framing or payload violation — see [`FrameError`].
    pub fn next_response(&mut self) -> Result<Option<Response>, FrameError> {
        match self.next_frame()? {
            None => Ok(None),
            Some((kind, payload)) => match decode_response_payload(kind, &payload) {
                Ok(resp) => Ok(Some(resp)),
                Err(err) => {
                    self.poisoned = Some(err.clone());
                    Err(err)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Eval(EvalRequest::new("uav-mission", vec![1.0, -0.0, 1e300], 42)),
            Request::Eval(EvalRequest::new("", vec![], 0)),
            Request::Telemetry,
            Request::Shutdown,
        ];
        for req in reqs {
            let mut d = FrameDecoder::new();
            d.feed(&encode_request(&req));
            assert_eq!(d.next_request().unwrap(), Some(req));
            assert_eq!(d.next_request().unwrap(), None);
            assert_eq!(d.pending_bytes(), 0);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let resps = [
            Response::Cost { cost: 1.0 / 3.0, cached: true },
            Response::Cost { cost: f64::NAN, cached: false },
            Response::Busy,
            Response::Stopping,
            Response::Error("line 2: unknown key `warp`".to_string()),
        ];
        for resp in resps {
            let mut d = FrameDecoder::new();
            d.feed(&encode_response(&resp));
            let got = d.next_response().unwrap().expect("complete frame");
            match (&got, &resp) {
                (Response::Cost { cost: a, .. }, Response::Cost { cost: b, .. }) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(got, resp),
            }
        }
    }

    #[test]
    fn split_feeds_reassemble() {
        let req = Request::Eval(EvalRequest::new("poly", vec![2.0, 3.0, 5.0], 7));
        let bytes = encode_request(&req);
        for split in 0..bytes.len() {
            let mut d = FrameDecoder::new();
            d.feed(&bytes[..split]);
            // Incomplete prefixes either need more bytes or are still
            // header-valid; they must never produce a message early.
            assert_eq!(d.next_request().unwrap(), None, "split at {split}");
            d.feed(&bytes[split..]);
            assert_eq!(d.next_request().unwrap(), Some(req.clone()), "split at {split}");
        }
    }

    #[test]
    fn two_frames_in_one_feed() {
        let a = Request::Telemetry;
        let b = Request::Eval(EvalRequest::new("w", vec![4.0], 1));
        let mut bytes = encode_request(&a);
        bytes.extend_from_slice(&encode_request(&b));
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_request().unwrap(), Some(a));
        assert_eq!(d.next_request().unwrap(), Some(b));
        assert_eq!(d.next_request().unwrap(), None);
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut hdr = vec![MAGIC, VERSION, KIND_REQ_EVAL, 0];
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&hdr);
        let err = d.next_request().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
        // Poisoned: the error is sticky.
        assert_eq!(d.next_request().unwrap_err(), err);
    }

    #[test]
    fn bad_magic_version_kind_reserved_fail_fast() {
        let mut d = FrameDecoder::new();
        d.feed(b"op = eval\n");
        assert!(matches!(d.next_request().unwrap_err(), FrameError::BadMagic(b'o')));

        let mut d = FrameDecoder::new();
        d.feed(&[MAGIC, 9]);
        assert!(matches!(d.next_request().unwrap_err(), FrameError::BadVersion(9)));

        let mut d = FrameDecoder::new();
        d.feed(&[MAGIC, VERSION, 0x7f, 0, 0, 0, 0, 0]);
        assert!(matches!(d.next_request().unwrap_err(), FrameError::UnknownKind(0x7f)));

        let mut d = FrameDecoder::new();
        d.feed(&[MAGIC, VERSION, KIND_REQ_TELEMETRY, 1]);
        assert!(matches!(d.next_request().unwrap_err(), FrameError::BadReserved(1)));
    }

    #[test]
    fn truncated_payload_fields_error_cleanly() {
        // A well-formed header announcing 4 payload bytes, but the eval
        // payload needs more than that for its fields.
        let mut bytes = vec![MAGIC, VERSION, KIND_REQ_EVAL, 0];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]); // workload len 0, then nothing
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert!(matches!(d.next_request().unwrap_err(), FrameError::Truncated(_)));
    }

    #[test]
    fn values_count_is_bounded_by_payload() {
        // Claim 2^28 values in a tiny payload: must error, not allocate.
        let mut p = Vec::new();
        put_string(&mut p, "w");
        p.extend_from_slice(&7u64.to_le_bytes());
        p.extend_from_slice(&(1u32 << 28).to_le_bytes());
        let mut bytes = vec![MAGIC, VERSION, KIND_REQ_EVAL, 0];
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&p);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let err = d.next_request().unwrap_err();
        assert!(
            matches!(err, FrameError::BadField("values.len") | FrameError::Truncated(_)),
            "{err}"
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = vec![MAGIC, VERSION, KIND_REQ_TELEMETRY, 0];
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"xyz");
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_request().unwrap_err(), FrameError::TrailingBytes(3));
    }

    #[test]
    fn telemetry_response_round_trips() {
        let stats = crate::introspect::ServerStats {
            uptime_ms: 5000,
            requests: 123456789,
            shed: 7,
            ..crate::introspect::ServerStats::default()
        };
        let mut d = FrameDecoder::new();
        d.feed(&encode_response(&Response::Telemetry(Box::new(stats.clone()))));
        assert_eq!(d.next_response().unwrap(), Some(Response::Telemetry(Box::new(stats))));
        assert_eq!(d.pending_bytes(), 0);
    }

    #[test]
    fn telemetry_pair_count_is_bounded() {
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = vec![MAGIC, VERSION, KIND_RESP_TELEMETRY, 0];
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&p);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_response().unwrap_err(), FrameError::BadField("telemetry.len"));
    }

    #[test]
    fn requests_do_not_decode_as_responses() {
        let mut d = FrameDecoder::new();
        d.feed(&encode_request(&Request::Telemetry));
        assert_eq!(d.next_response().unwrap_err(), FrameError::UnknownKind(KIND_REQ_TELEMETRY));
    }
}
