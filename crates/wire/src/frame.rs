//! The worker wire protocol "RW": its frame constant and kind table.
//!
//! Framing — length prefix, header, cap, stream reads and writes, typed
//! [`FrameError`](reptile_relational::codec::FrameError)s — is
//! [`reptile_relational::codec`]'s, shared with the serving front door's
//! "RP". The two differ only in the constants here: their own magic, so a
//! worker and a front door cross-connected fail typed instead of confused,
//! and a cap far above the front door's, because worker frames carry whole
//! relation partitions and encoded factors.
//!
//! Bodies are byte payloads produced by the `ship`/`payload` codecs
//! (relation partitions, encoded factors, scatter plans, aggregate
//! partials) — this layer moves them; it never interprets them.

use reptile_relational::codec::{FrameSpec, MAX_WIRE_PAYLOAD};

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

/// The worker wire's frames: magic `"RW"`, version 1, payloads up to
/// [`MAX_WIRE_PAYLOAD`] (64 MiB) — the same number encode-time payload
/// validation checks against.
pub const RW: FrameSpec = FrameSpec {
    magic: *b"RW",
    version: 1,
    max_len: MAX_WIRE_PAYLOAD as u32,
    kinds: &[
        KIND_PING,
        KIND_LOAD_PARTITION,
        KIND_LOAD_STATE,
        KIND_SCATTER,
        KIND_SHUTDOWN,
        KIND_OK,
        KIND_RESULT,
        KIND_ERROR,
        KIND_GRAM_PARTIAL,
        KIND_ESTEP_PARTIAL,
    ],
};
