//! Byte-level codec primitives shared by every Reptile wire encoding.
//!
//! The serve crate's binary protocol established the house framing
//! discipline; this module extracts its byte-level core so the distributed
//! layer (shipped relation partitions, view plans, partial aggregate tables
//! — see [`crate::ship`] and `reptile-wire`) encodes with the same rules:
//!
//! * **Big-endian fixed-width integers** (`u8`/`u32`/`u64`) — no varints, no
//!   platform-dependent `usize` on the wire.
//! * **`f64` as raw bits** ([`f64::to_bits`]/[`f64::from_bits`]): a partial
//!   aggregate must merge to the *bit-exact* serial result, so floats round
//!   trip bit-for-bit, NaN payloads and signed zeros included.
//! * **Counts validated before allocation** ([`Reader::count`]): a decoder
//!   never reserves more memory than the remaining bytes could possibly
//!   fill, so a hostile length prefix cannot allocate unbounded memory.
//! * **Total decoders with typed errors** ([`CodecError`]): truncated,
//!   garbage, or oversized input returns an error — never a panic, never a
//!   partially decoded value.
//!
//! It also holds the one framing layer both binary protocols run on — the
//! serving front door's "RP" and the worker wire's "RW" are two
//! [`FrameSpec`] constants over [`read_frame`] / [`write_frame`]:
//!
//! ```text
//! [payload_len: u32 BE]  length of everything after these 4 bytes
//! [magic: 2 bytes]       FrameSpec::magic
//! [version: u8]          FrameSpec::version; others are rejected typed
//! [kind: u8]             one of FrameSpec::kinds
//! [request_id: u64 BE]   echoed verbatim in the response
//! [body]                 kind-specific; decoded with [`Reader`]
//! ```
//!
//! A length prefix or header that breaks the protocol is a [`FrameError`];
//! body bytes that do not decode are a [`CodecError`].

use crate::value::Value;
use std::fmt;
use std::io::{Read, Write};

/// Hard cap on any single encoded payload shipped over a worker wire —
/// `reptile-wire`'s 64 MiB frame cap is defined from this constant, so
/// encode-time validation ([`check_payload_size`]) and read-time rejection
/// share one number.
pub const MAX_WIRE_PAYLOAD: usize = 64 << 20;

/// Frame-header headroom subtracted from [`MAX_WIRE_PAYLOAD`] when
/// validating a payload at encode time (frame header + domain/op envelope).
const WIRE_ENVELOPE_HEADROOM: usize = 64;

/// Validate an encoded payload against the wire frame cap **at encode
/// time**, leaving headroom for the frame header and the domain/op
/// envelope. A payload that could only ever die at the framing layer is
/// rejected typed here ([`CodecError::Oversized`]) — never a panic, never a
/// silently truncated frame.
pub fn check_payload_size(what: &str, len: usize) -> Result<(), CodecError> {
    let cap = MAX_WIRE_PAYLOAD - WIRE_ENVELOPE_HEADROOM;
    if len > cap {
        return Err(CodecError::Oversized {
            what: what.to_string(),
            len,
            cap,
        });
    }
    Ok(())
}

/// Typed decode failure. Every [`Reader`] method returns one of these
/// instead of panicking, whatever the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-width read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// An enum tag byte had no defined meaning.
    BadTag(u8),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// A count prefix promised more elements than the remaining bytes could
    /// possibly hold (rejected *before* any allocation).
    CountOverflow {
        /// The count the prefix claimed.
        count: u64,
        /// Bytes remaining after the prefix.
        remaining: usize,
    },
    /// A decoder consumed the payload but bytes were left over.
    TrailingBytes(usize),
    /// Structurally valid bytes that violate a semantic invariant (e.g. a
    /// code out of dictionary range).
    Invalid(String),
    /// An encoded payload exceeds the wire frame cap (caught at encode
    /// time by [`check_payload_size`], before any frame is written).
    Oversized {
        /// What was being encoded.
        what: String,
        /// The payload's encoded length.
        len: usize,
        /// The cap it exceeded.
        cap: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::BadTag(tag) => write!(f, "unknown tag byte 0x{tag:02x}"),
            CodecError::BadUtf8 => write!(f, "string bytes are not valid UTF-8"),
            CodecError::CountOverflow { count, remaining } => write!(
                f,
                "count prefix {count} cannot fit in {remaining} remaining bytes"
            ),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
            CodecError::Oversized { what, len, cap } => write!(
                f,
                "{what} encodes to {len} bytes, above the {cap}-byte wire cap"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a big-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append an `f64` as its raw bit pattern (bit-exact round trip).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string (`u32` byte length + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Value variant tags (stable wire contract).
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Append a [`Value`] (tag byte + payload; floats as raw bits).
pub fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, TAG_NULL),
        Value::Int(i) => {
            put_u8(buf, TAG_INT);
            put_u64(buf, *i as u64);
        }
        Value::Float(x) => {
            put_u8(buf, TAG_FLOAT);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            put_u8(buf, TAG_STR);
            put_str(buf, s);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A cursor over untrusted bytes. Every read is bounds-checked and returns
/// [`CodecError`] on malformed input; nothing panics.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Assert the payload is fully consumed (decoders call this last so
    /// garbage appended to a valid payload is rejected, not ignored).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32` element count and validate it against the remaining
    /// bytes **before** the caller allocates: with each element at least
    /// `min_element_len` bytes, a count that cannot fit is rejected here, so
    /// a hostile prefix can never size an allocation.
    pub fn count(&mut self, min_element_len: usize) -> Result<usize, CodecError> {
        let count = self.u32()? as u64;
        let need = count.saturating_mul(min_element_len.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(CodecError::CountOverflow {
                count,
                remaining: self.remaining(),
            });
        }
        Ok(count as usize)
    }

    /// Read `n` raw bytes (for length-prefixed nested payloads).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a [`Value`] (tag byte + payload).
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(self.f64()?)),
            TAG_STR => Ok(Value::str(self.str()?)),
            tag => Err(CodecError::BadTag(tag)),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Header bytes after the length prefix: magic, version, kind, request id.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 1 + 8;

/// One framed protocol: the header it stamps and checks, its payload cap,
/// and its kind table (both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// The first two payload bytes of every frame.
    pub magic: [u8; 2],
    /// The version this build speaks; frames carrying another are rejected.
    pub version: u8,
    /// Cap on a payload (everything after the length prefix), checked
    /// before a prefix's payload is allocated and before a payload is
    /// written.
    pub max_len: u32,
    /// Every kind the protocol defines; any other is
    /// [`FrameError::UnknownKind`].
    pub kinds: &'static [u8],
}

impl FrameSpec {
    /// Start a frame payload: the header, ready for the body to be appended
    /// and the result handed to [`write_frame`].
    pub fn header(&self, kind: u8, id: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.put_header(&mut out, kind, id);
        out
    }

    /// Encode a whole frame's payload (header + body).
    pub fn encode(&self, frame: &Frame) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + frame.body.len());
        self.put_header(&mut out, frame.kind, frame.id);
        out.extend_from_slice(&frame.body);
        out
    }

    fn put_header(&self, out: &mut Vec<u8>, kind: u8, id: u64) {
        out.extend_from_slice(&self.magic);
        put_u8(out, self.version);
        put_u8(out, kind);
        put_u64(out, id);
    }

    /// Check a header against this protocol: magic, then version, then kind.
    fn check_header(&self, header: &[u8; FRAME_HEADER_LEN]) -> Result<(u8, u64), FrameError> {
        let magic = [header[0], header[1]];
        if magic != self.magic {
            return Err(FrameError::BadMagic(magic));
        }
        if header[2] != self.version {
            return Err(FrameError::UnsupportedVersion(header[2]));
        }
        let kind = header[3];
        if !self.kinds.contains(&kind) {
            return Err(FrameError::UnknownKind(kind));
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&header[4..]);
        Ok((kind, u64::from_be_bytes(id)))
    }
}

/// A frame whose header checked out: kind, correlation id and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind, one of the protocol's [`FrameSpec::kinds`].
    pub kind: u8,
    /// Caller-chosen correlation id, echoed verbatim in replies.
    pub id: u64,
    /// Kind-specific body bytes, uninterpreted at this layer.
    pub body: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(kind: u8, id: u64, body: Vec<u8>) -> Self {
        Frame { kind, id, body }
    }

    /// Bytes the frame occupies on a stream: length prefix, header, body.
    pub fn wire_len(&self) -> usize {
        4 + FRAME_HEADER_LEN + self.body.len()
    }
}

/// A length prefix or header that breaks the protocol. Body bytes never
/// produce one of these; they fail as [`CodecError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a frame, or a payload was shorter than the
    /// header.
    Truncated,
    /// A payload longer than the protocol's cap: a length prefix (rejected
    /// before the payload is read) or a payload handed to [`write_frame`]
    /// (rejected before anything is written).
    Oversized {
        /// The payload length.
        len: u64,
        /// The protocol's [`FrameSpec::max_len`].
        cap: u32,
    },
    /// The first two payload bytes were not the protocol's magic.
    BadMagic([u8; 2]),
    /// The frame speaks a version this build does not.
    UnsupportedVersion(u8),
    /// A kind outside the protocol's kind table.
    UnknownKind(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds the {cap}-byte cap")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A failure while moving frames over a stream.
#[derive(Debug)]
pub enum StreamError {
    /// The length prefix or header broke the protocol.
    Frame(FrameError),
    /// The underlying stream failed.
    Io(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Frame(e) => write!(f, "frame error: {e}"),
            StreamError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<FrameError> for StreamError {
    fn from(e: FrameError) -> Self {
        StreamError::Frame(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// Write one frame payload (see [`FrameSpec::header`] and
/// [`FrameSpec::encode`]) behind its length prefix. `w` sees exactly
/// `write_all(prefix)`, `write_all(payload)`, `flush()`. A payload above
/// `spec.max_len` fails typed before anything is written. Returns the bytes
/// written.
pub fn write_frame(
    w: &mut impl Write,
    spec: &FrameSpec,
    payload: &[u8],
) -> Result<usize, StreamError> {
    if payload.len() > spec.max_len as usize {
        return Err(FrameError::Oversized {
            len: payload.len() as u64,
            cap: spec.max_len,
        }
        .into());
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(4 + payload.len())
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary.
/// EOF mid-frame is [`FrameError::Truncated`]; a length prefix above
/// `spec.max_len` is [`FrameError::Oversized`] and nothing after it is
/// read. Every other frame is read to its end before its header is
/// checked, so after a [`FrameError::UnknownKind`] the stream is still at a
/// frame boundary.
pub fn read_frame(r: &mut impl Read, spec: &FrameSpec) -> Result<Option<Frame>, StreamError> {
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(FrameError::Truncated.into()),
    }
    let len = u32::from_be_bytes(prefix);
    if len > spec.max_len {
        return Err(FrameError::Oversized {
            len: u64::from(len),
            cap: spec.max_len,
        }
        .into());
    }
    let len = len as usize;
    let head = len.min(FRAME_HEADER_LEN);
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut body = vec![0u8; len - head];
    if fill(r, &mut header[..head])? < head
        || fill(r, &mut body)? < body.len()
        || head < FRAME_HEADER_LEN
    {
        return Err(FrameError::Truncated.into());
    }
    let (kind, id) = spec.check_header(&header)?;
    Ok(Some(Frame { kind, id, body }))
}

/// Read into `buf` until it is full or the stream ends; returns the bytes
/// read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.0);
        put_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn values_round_trip_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let values = [
            Value::Null,
            Value::int(i64::MIN),
            Value::int(-1),
            Value::float(nan),
            Value::float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("Ofla"),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let decoded = r.value().unwrap();
            match (v, &decoded) {
                // NaN != NaN under PartialEq; compare bits explicitly.
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &decoded),
            }
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncation_never_panics() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::str("district"));
        put_u64(&mut buf, 42);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let first = r.value();
            if cut < buf.len() - 8 {
                // Some prefix of the value is missing.
                if first.is_ok() {
                    assert!(r.u64().is_err());
                }
            }
        }
    }

    #[test]
    fn oversized_count_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.count(8), Err(CodecError::CountOverflow { .. })));
        // Strings validate their length prefix the same way.
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str(), Err(CodecError::CountOverflow { .. })));
    }

    #[test]
    fn bad_tag_and_bad_utf8_are_typed() {
        let mut r = Reader::new(&[0xEE]);
        assert_eq!(r.value(), Err(CodecError::BadTag(0xEE)));
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn payload_size_check_is_typed() {
        check_payload_size("partial", 0).unwrap();
        check_payload_size("partial", MAX_WIRE_PAYLOAD / 2).unwrap();
        let err = check_payload_size("gram partial", MAX_WIRE_PAYLOAD).unwrap_err();
        assert!(matches!(err, CodecError::Oversized { len, .. } if len == MAX_WIRE_PAYLOAD));
        assert!(err.to_string().contains("gram partial"));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(2)));
    }
}
