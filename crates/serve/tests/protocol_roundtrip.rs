//! RP body codecs: round-trip property test and hostile bodies.
//!
//! `decode(encode(request)) == request` for randomized requests (random
//! predicates, group keys, unicode strings, random `f64` bit patterns
//! including NaN payloads), and the decoders reject truncated, garbage,
//! hostile-count and trailing-byte bodies with typed errors — never a
//! panic, never a partial success. Every payload goes through the real RP
//! reader first; the framing itself is covered for both protocols by
//! `reptile-wire`'s `tests/framing.rs`.

use reptile::Direction;
use reptile_datasets::SimRng;
use reptile_relational::codec::{
    read_frame, write_frame, CodecError, Frame, FrameError, StreamError, FRAME_HEADER_LEN,
};
use reptile_relational::{AggregateKind, Value};
use reptile_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, IngestRequest,
    RecommendRequest, Request, RequestFrame, Response, ResponseFrame, ServeErrorKind,
    WireIngestReport, WireRecommendation, WireScoredGroup, RP,
};

const STATISTICS: [AggregateKind; 7] = [
    AggregateKind::Count,
    AggregateKind::Sum,
    AggregateKind::Mean,
    AggregateKind::Std,
    AggregateKind::Var,
    AggregateKind::Min,
    AggregateKind::Max,
];

const ERROR_KINDS: [ServeErrorKind; 5] = [
    ServeErrorKind::Overloaded,
    ServeErrorKind::DeadlineExceeded,
    ServeErrorKind::BadRequest,
    ServeErrorKind::Engine,
    ServeErrorKind::Internal,
];

fn random_bits(rng: &mut SimRng) -> u64 {
    // Compose a full 64-bit pattern from two bounded draws so NaN payloads,
    // infinities and subnormals all occur.
    let hi = rng.below(1 << 32) as u64;
    let lo = rng.below(1 << 32) as u64;
    (hi << 32) | lo
}

fn random_f64(rng: &mut SimRng) -> f64 {
    f64::from_bits(random_bits(rng))
}

fn random_string(rng: &mut SimRng) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'B', '7', '_', ' ', 'é', 'λ', '—', '中', '🦀', '\n', '"',
    ];
    let len = rng.below(12);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

fn random_value(rng: &mut SimRng) -> Value {
    match rng.below(4) {
        0 => Value::Null,
        1 => Value::Int(random_bits(rng) as i64),
        2 => Value::Float(random_f64(rng)),
        _ => Value::Str(random_string(rng).into()),
    }
}

fn random_direction(rng: &mut SimRng) -> Direction {
    match rng.below(3) {
        0 => Direction::TooHigh,
        1 => Direction::TooLow,
        _ => Direction::ShouldBe(random_f64(rng)),
    }
}

fn random_recommend(rng: &mut SimRng) -> RecommendRequest {
    RecommendRequest {
        predicate: (0..rng.below(4))
            .map(|_| (random_string(rng), random_value(rng)))
            .collect(),
        group_by: (0..rng.below(4)).map(|_| random_string(rng)).collect(),
        measure: random_string(rng),
        complaint_key: (0..rng.below(4)).map(|_| random_value(rng)).collect(),
        statistic: STATISTICS[rng.below(STATISTICS.len())],
        direction: random_direction(rng),
        deadline_ms: rng.below(1 << 31) as u32,
        fault: random_string(rng),
    }
}

fn random_ingest(rng: &mut SimRng) -> IngestRequest {
    let row = |rng: &mut SimRng| (0..rng.below(4)).map(|_| random_value(rng)).collect();
    IngestRequest {
        inserts: (0..rng.below(4)).map(|_| row(rng)).collect(),
        deletes: (0..rng.below(4)).map(|_| row(rng)).collect(),
    }
}

fn random_request_frame(rng: &mut SimRng) -> RequestFrame {
    RequestFrame {
        id: random_bits(rng),
        request: match rng.below(8) {
            0 => Request::Ping,
            1 | 2 => Request::Ingest(random_ingest(rng)),
            _ => Request::Recommend(random_recommend(rng)),
        },
    }
}

fn random_response_frame(rng: &mut SimRng) -> ResponseFrame {
    let response = match rng.below(4) {
        0 => Response::Pong,
        1 => Response::Error {
            kind: ERROR_KINDS[rng.below(ERROR_KINDS.len())],
            message: random_string(rng),
        },
        2 => Response::IngestReport(WireIngestReport {
            inserted: random_bits(rng),
            deleted: random_bits(rng),
            relation_version: random_bits(rng),
        }),
        _ => Response::Recommendation(WireRecommendation {
            original_value: random_f64(rng),
            relation_version: random_bits(rng),
            ranked: (0..rng.below(4))
                .map(|_| WireScoredGroup {
                    hierarchy: random_string(rng),
                    added_attribute: random_string(rng),
                    key: (0..rng.below(3)).map(|_| random_value(rng)).collect(),
                    observed: random_f64(rng),
                    expected: random_f64(rng),
                    repaired_complaint_value: random_f64(rng),
                    penalty: random_f64(rng),
                    improvement: random_f64(rng),
                })
                .collect(),
        }),
    };
    ResponseFrame {
        id: random_bits(rng),
        response,
    }
}

/// Frame `payload` behind a length prefix that matches it and read it back
/// through the RP reader: header-level failures come back as
/// [`FrameError`], exactly as the door's reader sees them.
fn frame(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut stream = Vec::new();
    write_frame(&mut stream, &RP, payload).expect("payload under the cap");
    match read_frame(&mut stream.as_slice(), &RP) {
        Ok(frame) => Ok(frame.expect("one frame")),
        Err(StreamError::Frame(err)) => Err(err),
        Err(StreamError::Io(err)) => panic!("in-memory read failed: {err}"),
    }
}

fn decode_request_payload(payload: &[u8]) -> RequestFrame {
    decode_request(&frame(payload).expect("header checks")).expect("request decodes")
}

/// `decode(encode(x)) == x` for randomized frames in both directions.
/// `Value`/`Direction` equality uses total bit-pattern order, so this holds
/// even for NaN payloads and signed zeros.
#[test]
fn roundtrip_randomized_frames() {
    let mut rng = SimRng::seed_from_u64(0xC0DEC);
    for _ in 0..500 {
        let req = random_request_frame(&mut rng);
        assert_eq!(decode_request_payload(&encode_request(&req)), req);

        let resp = random_response_frame(&mut rng);
        let encoded = encode_response(&resp);
        let decoded = decode_response(&frame(&encoded).unwrap()).expect("response decodes");
        // Response floats travel raw (`WireScoredGroup` holds plain `f64`s,
        // whose `==` is not reflexive for NaN), so the bit-exactness claim
        // is checked on the bytes: re-encoding the decoded frame must
        // reproduce the original encoding exactly.
        assert_eq!(encode_response(&decoded), encoded);
    }
}

/// Every strict prefix of a valid payload, framed as a whole frame, is a
/// typed error: a prefix shorter than the header is `FrameError::Truncated`,
/// a longer one passes the header check and its body fails as a
/// `CodecError` — never a panic, never an `Ok`.
#[test]
fn truncation_at_every_prefix_is_typed() {
    let mut rng = SimRng::seed_from_u64(0x7241);
    for _ in 0..40 {
        let payload = encode_request(&random_request_frame(&mut rng));
        for cut in 0..payload.len() {
            match frame(&payload[..cut]) {
                Err(err) => {
                    assert!(cut < FRAME_HEADER_LEN, "prefix {cut}: {err:?}");
                    assert_eq!(err, FrameError::Truncated);
                }
                Ok(body) => match decode_request(&body).expect_err("prefix must not decode") {
                    CodecError::Truncated { .. } | CodecError::CountOverflow { .. } => {}
                    other => panic!("unexpected error class for prefix {cut}: {other:?}"),
                },
            }
        }
        let payload = encode_response(&random_response_frame(&mut rng));
        for cut in 0..payload.len() {
            if let Ok(body) = frame(&payload[..cut]) {
                decode_response(&body).expect_err("prefix must not decode");
            }
        }
    }
}

/// Random garbage bytes never panic the reader or the decoders and never
/// partially succeed: any `Ok` must re-encode to a canonical payload that
/// decodes to the same frame (i.e. an accidental parse is still a *total*
/// parse).
#[test]
fn garbage_never_panics_and_never_partially_decodes() {
    let mut rng = SimRng::seed_from_u64(0x6A42);
    for _ in 0..2000 {
        let len = rng.below(64);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        if len >= 4 && rng.below(2) == 0 {
            // Half the time, a valid header so bodies get fuzzed too.
            let kind = RP.kinds[rng.below(RP.kinds.len())];
            bytes[..4].copy_from_slice(&[RP.magic[0], RP.magic[1], RP.version, kind]);
        }
        let Ok(body) = frame(&bytes) else { continue };
        if let Ok(req) = decode_request(&body) {
            assert_eq!(decode_request_payload(&encode_request(&req)), req);
        }
        if let Ok(resp) = decode_response(&body) {
            // Compared as bytes: response floats travel raw, and NaN != NaN.
            let again = decode_response(&frame(&encode_response(&resp)).unwrap()).unwrap();
            assert_eq!(encode_response(&again), encode_response(&resp));
        }
    }
}

/// Mutating a valid frame's header bytes yields the matching typed
/// `FrameError`; a well-framed payload in the wrong direction or with
/// trailing bytes is a typed `CodecError`.
#[test]
fn header_mutations_are_typed() {
    let valid = encode_request(&RequestFrame {
        id: 42,
        request: Request::Ping,
    });

    let mut bad_magic = valid.clone();
    bad_magic[0] = b'X';
    assert_eq!(frame(&bad_magic), Err(FrameError::BadMagic([b'X', b'P'])));

    let mut bad_version = valid.clone();
    bad_version[2] = RP.version + 1;
    assert_eq!(
        frame(&bad_version),
        Err(FrameError::UnsupportedVersion(RP.version + 1))
    );

    // Version 1 ingest reports carried a hierarchy list that version 2
    // dropped: a v1 frame is refused by its header, never misread.
    let mut v1 = valid.clone();
    v1[2] = 1;
    assert_eq!(frame(&v1), Err(FrameError::UnsupportedVersion(1)));

    let mut bad_kind = valid.clone();
    bad_kind[3] = 0x7F;
    assert_eq!(frame(&bad_kind), Err(FrameError::UnknownKind(0x7F)));

    // A response kind on the request decoder (and the reverse) is a typed
    // body error: the kind is RP's, just not this direction's.
    let pong = encode_response(&ResponseFrame {
        id: 1,
        response: Response::Pong,
    });
    assert!(matches!(
        decode_request(&frame(&pong).unwrap()),
        Err(CodecError::Invalid(_))
    ));
    assert!(matches!(
        decode_response(&frame(&valid).unwrap()),
        Err(CodecError::Invalid(_))
    ));

    let mut trailing = valid;
    trailing.push(0);
    assert_eq!(
        decode_request(&frame(&trailing).unwrap()),
        Err(CodecError::TrailingBytes(1))
    );
}

/// A hostile sequence count (huge `u32` with few bytes behind it) is
/// rejected before any allocation sized by it.
#[test]
fn hostile_sequence_counts_are_rejected() {
    let mut rng = SimRng::seed_from_u64(0xBADC);
    let valid = encode_request(&random_request_frame(&mut rng));
    // Stamp 0xFFFFFFFF over every 4-byte window in the body; each mutation
    // must fail typed, not OOM or panic.
    for pos in FRAME_HEADER_LEN..valid.len().saturating_sub(4) {
        let mut hostile = valid.clone();
        hostile[pos..pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let _ =
            decode_request(&frame(&hostile).unwrap()).expect_err("hostile count must be rejected");
    }
}
