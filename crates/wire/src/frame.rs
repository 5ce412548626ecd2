//! The worker wire protocol's framing layer (version 1).
//!
//! Same discipline as the serve crate's front-door protocol, with its own
//! magic so a worker and a serving front door can never be confused for
//! one another:
//!
//! ```text
//! [payload_len: u32 BE]  length of everything after these 4 bytes
//! [magic: 2 bytes "RW"]
//! [version: u8]          PROTOCOL_VERSION; others are rejected typed
//! [kind: u8]             frame kind (request or response discriminant)
//! [request_id: u64 BE]   echoed verbatim in the response
//! [body]                 kind-specific, opaque at this layer
//! ```
//!
//! Bodies are byte payloads produced by the `ship`/`payload` codecs
//! (relation partitions, encoded factors, scatter plans, aggregate
//! partials) — this layer moves them; it never interprets them.
//!
//! **Decode safety.** Every decoder is total: truncated, oversized,
//! garbage, wrong-magic, wrong-version and trailing-byte inputs all return
//! a typed [`FrameError`] — never a panic, never a partial read. A length
//! prefix above [`MAX_FRAME_LEN`] is rejected *before* the payload is
//! read, so a hostile prefix cannot trigger an allocation.

use std::io::{Read, Write};

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame magic: "RW" (Reptile Worker) — distinct from the serving front
/// door's "RP" so cross-connected processes fail typed, not confused.
pub const MAGIC: [u8; 2] = *b"RW";

/// Hard cap on a frame's payload length. Worker frames carry whole
/// relation partitions and encoded factors, so the cap is far above the
/// serving protocol's: 64 MiB. Defined from the codec layer's
/// [`MAX_WIRE_PAYLOAD`](reptile_relational::codec::MAX_WIRE_PAYLOAD) so
/// encode-time payload validation and read-time rejection share one number.
pub const MAX_FRAME_LEN: u32 = reptile_relational::codec::MAX_WIRE_PAYLOAD as u32;

/// Frame header length: magic + version + kind + request id.
const HEADER_LEN: usize = 2 + 1 + 1 + 8;

/// Liveness probe; answered with [`KIND_OK`].
pub const KIND_PING: u8 = 0;
/// Load one relation partition (body: `ship::encode_partition` bytes).
pub const KIND_LOAD_PARTITION: u8 = 1;
/// Load one keyed state blob (body: domain byte + key + payload).
pub const KIND_LOAD_STATE: u8 = 2;
/// Execute one scatter operation (body: op byte + request payload).
pub const KIND_SCATTER: u8 = 3;
/// Ask the worker process to exit after acknowledging.
pub const KIND_SHUTDOWN: u8 = 4;
/// Success with no payload (answers ping / load / shutdown).
pub const KIND_OK: u8 = 0x80;
/// Success carrying a scatter result payload.
pub const KIND_RESULT: u8 = 0x81;
/// Typed failure (body: kind tag + message string).
pub const KIND_ERROR: u8 = 0x82;
/// Success carrying a worker-computed gram partial (gram-cell range or
/// per-cluster `ZᵀZ` blocks; body codecs in `reptile-model`).
pub const KIND_GRAM_PARTIAL: u8 = 0x83;
/// Success carrying a worker-computed E-step partial (per-cluster posterior
/// moments; body codecs in `reptile-model`).
pub const KIND_ESTEP_PARTIAL: u8 = 0x84;

/// Typed framing failure. Every malformed input maps to exactly one of
/// these; decoding never panics and never partially succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before the structure it promised.
    Truncated,
    /// The first two payload bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The frame speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// Unknown frame kind discriminant.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "worker frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad worker frame magic {m:?}"),
            FrameError::UnsupportedVersion(v) => write!(
                f,
                "unsupported worker protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            FrameError::UnknownKind(k) => write!(f, "unknown worker frame kind {k:#04x}"),
            FrameError::Oversized(n) => write!(
                f,
                "worker frame payload of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame: kind, correlation id, opaque body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind discriminant (one of the `KIND_*` constants).
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
        4 + HEADER_LEN + self.body.len()
    }

    /// Encode the frame's payload (everything after the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.kind);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Decode a frame payload (everything after the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Frame, FrameError> {
        if payload.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let magic: [u8; 2] = payload[0..2].try_into().expect("2 bytes");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = payload[2];
        if version != PROTOCOL_VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let kind = payload[3];
        if !matches!(
            kind,
            KIND_PING
                | KIND_LOAD_PARTITION
                | KIND_LOAD_STATE
                | KIND_SCATTER
                | KIND_SHUTDOWN
                | KIND_OK
                | KIND_RESULT
                | KIND_ERROR
                | KIND_GRAM_PARTIAL
                | KIND_ESTEP_PARTIAL
        ) {
            return Err(FrameError::UnknownKind(kind));
        }
        let id = u64::from_be_bytes(payload[4..12].try_into().expect("8 bytes"));
        Ok(Frame {
            kind,
            id,
            body: payload[HEADER_LEN..].to_vec(),
        })
    }
}

/// A failure while moving worker frames over a stream.
#[derive(Debug)]
pub enum WireError {
    /// The bytes violated the framing protocol.
    Frame(FrameError),
    /// The underlying stream failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Write one frame (length prefix + payload) to `w`. Returns the total
/// bytes written (for the coordinator's bytes-shipped accounting). A
/// payload above [`MAX_FRAME_LEN`] fails typed before writing anything.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    let payload = frame.encode();
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::Oversized(payload.len() as u32).into());
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(frame.wire_len())
}

/// Read one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; EOF mid-frame is [`FrameError::Truncated`], a length prefix
/// above [`MAX_FRAME_LEN`] is [`FrameError::Oversized`] (the payload is
/// *not* read).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated.into())
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len).into());
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(Frame::decode(&payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        for (kind, id, body) in [
            (KIND_PING, 0u64, vec![]),
            (KIND_SCATTER, u64::MAX, vec![1u8, 2, 3]),
            (KIND_RESULT, 42, vec![0u8; 1000]),
            (KIND_GRAM_PARTIAL, 43, vec![8u8; 24]),
            (KIND_ESTEP_PARTIAL, 44, vec![9u8; 48]),
        ] {
            let frame = Frame::new(kind, id, body);
            assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
        }
    }

    #[test]
    fn hostile_payloads_are_typed_errors() {
        let good = Frame::new(KIND_SCATTER, 7, vec![9u8; 16]).encode();
        for cut in 0..HEADER_LEN {
            assert_eq!(Frame::decode(&good[..cut]), Err(FrameError::Truncated));
        }
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(FrameError::BadMagic(_))
        ));
        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert_eq!(
            Frame::decode(&bad_version),
            Err(FrameError::UnsupportedVersion(99))
        );
        let mut bad_kind = good.clone();
        bad_kind[3] = 0x55;
        assert_eq!(Frame::decode(&bad_kind), Err(FrameError::UnknownKind(0x55)));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut stream: &[u8] = &(u32::MAX).to_be_bytes();
        assert!(matches!(
            read_frame(&mut stream),
            Err(WireError::Frame(FrameError::Oversized(_)))
        ));
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        let a = Frame::new(KIND_LOAD_STATE, 1, vec![5u8; 10]);
        let b = Frame::new(KIND_OK, 1, vec![]);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cursor: &[u8] = &buf;
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(a));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(b));
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // EOF mid-frame is typed.
        let mut truncated: &[u8] = &buf[..buf.len() - 3];
        let _ = read_frame(&mut truncated).unwrap();
        assert!(matches!(
            read_frame(&mut truncated),
            Err(WireError::Frame(FrameError::Truncated))
        ));
    }
}
