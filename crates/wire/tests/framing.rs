//! One hostile-bytes harness over both frame protocols.
//!
//! The front door's "RP" and the worker wire's "RW" are two
//! [`FrameSpec`] constants over the same `codec::read_frame` /
//! `codec::write_frame`; every case here runs once with each. The last
//! tests pin what the protocols put on the wire: golden frames captured
//! from the two hand-written framing layers this one replaced, and the
//! exact calls `write_frame` makes on its writer.

use reptile::Direction;
use reptile_relational::codec::{
    read_frame, write_frame, Frame, FrameError, FrameSpec, StreamError, FRAME_HEADER_LEN,
};
use reptile_relational::exec::OP_VIEW_SCAN;
use reptile_relational::{AggregateKind, Value};
use reptile_serve::{
    encode_request, encode_response, RecommendRequest, Request, RequestFrame, Response,
    ResponseFrame, WireRecommendation, WireScoredGroup, RP,
};
use reptile_wire::frame::{KIND_SCATTER, RW};
use std::io::Write;

const PROTOCOLS: [FrameSpec; 2] = [RP, RW];

/// A small deterministic generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_frame(spec: &FrameSpec, rng: &mut Rng) -> Frame {
    let kind = spec.kinds[rng.below(spec.kinds.len())];
    let body = (0..rng.below(300)).map(|_| rng.next() as u8).collect();
    Frame::new(kind, rng.next(), body)
}

/// Append `frame` to `stream` as `spec` frames it.
fn put(stream: &mut Vec<u8>, spec: &FrameSpec, frame: &Frame) {
    let written = write_frame(stream, spec, &spec.encode(frame)).unwrap();
    assert_eq!(written, frame.wire_len());
}

/// Read one frame from `bytes`, unwrapping the stream error to its framing
/// error (an in-memory read never fails with io).
fn read(bytes: &mut &[u8], spec: &FrameSpec) -> Result<Option<Frame>, FrameError> {
    read_frame(bytes, spec).map_err(|err| match err {
        StreamError::Frame(err) => err,
        StreamError::Io(err) => panic!("in-memory read failed: {err}"),
    })
}

/// A kind byte outside `spec`'s table.
fn unknown_kind(spec: &FrameSpec) -> u8 {
    (0..=u8::MAX).find(|k| !spec.kinds.contains(k)).unwrap()
}

#[test]
fn random_frames_round_trip_and_end_cleanly() {
    let mut rng = Rng(0xF2A3);
    for spec in &PROTOCOLS {
        let frames: Vec<Frame> = (0..200).map(|_| random_frame(spec, &mut rng)).collect();
        let mut stream = Vec::new();
        for frame in &frames {
            put(&mut stream, spec, frame);
        }
        let mut cursor = stream.as_slice();
        for frame in &frames {
            assert_eq!(read(&mut cursor, spec).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(read(&mut cursor, spec), Ok(None), "clean EOF is None");
        assert_eq!(read(&mut &[][..], spec), Ok(None));
    }
}

/// EOF anywhere inside a frame — inside the length prefix, inside every
/// prefix of the header, inside the body — is typed `Truncated`, and so is
/// a complete payload too short to hold a header.
#[test]
fn eof_mid_frame_and_short_payloads_are_truncated() {
    let mut rng = Rng(0x7241);
    for spec in &PROTOCOLS {
        let frame = random_frame(spec, &mut rng);
        let mut stream = Vec::new();
        put(&mut stream, spec, &frame);
        for cut in 1..stream.len() {
            assert_eq!(
                read(&mut &stream[..cut], spec),
                Err(FrameError::Truncated),
                "{:?} cut at {cut}",
                spec.magic
            );
        }
        let payload = spec.encode(&frame);
        for len in 0..FRAME_HEADER_LEN {
            let mut short = Vec::new();
            write_frame(&mut short, spec, &payload[..len]).unwrap();
            assert_eq!(
                read(&mut short.as_slice(), spec),
                Err(FrameError::Truncated)
            );
        }
    }
}

/// A length prefix above the cap is refused before anything behind it is
/// read (so before any payload buffer is sized by it).
#[test]
fn over_cap_length_prefix_is_rejected_before_reading() {
    for spec in &PROTOCOLS {
        for len in [spec.max_len + 1, u32::MAX] {
            let mut stream = len.to_be_bytes().to_vec();
            stream.extend_from_slice(&[0u8; 16]);
            let mut cursor = stream.as_slice();
            assert_eq!(
                read(&mut cursor, spec),
                Err(FrameError::Oversized {
                    len: u64::from(len),
                    cap: spec.max_len
                })
            );
            assert_eq!(cursor.len(), 16, "nothing after the prefix may be read");
        }
    }
}

/// An over-cap payload fails typed and reaches no writer call; a payload
/// exactly at the cap is written.
#[test]
fn over_cap_write_fails_typed_and_writes_nothing() {
    for spec in &PROTOCOLS {
        let cap = spec.max_len as usize;
        let payload = vec![0u8; cap + 1];
        let mut out = Recorder::default();
        match write_frame(&mut out, spec, &payload) {
            Err(StreamError::Frame(err)) => assert_eq!(
                err,
                FrameError::Oversized {
                    len: cap as u64 + 1,
                    cap: spec.max_len
                }
            ),
            other => panic!("over-cap write must fail typed, got {other:?}"),
        }
        assert!(out.calls.is_empty(), "nothing may be written");
        assert_eq!(
            write_frame(&mut out, spec, &payload[..cap]).unwrap(),
            4 + cap
        );
        assert_eq!(out.calls, [Call::Write(4), Call::Write(cap), Call::Flush]);
    }
}

/// A bad magic, a bad version and an unknown kind each fail with their own
/// typed error, after the whole frame was read (the stream stays at a
/// frame boundary).
#[test]
fn header_errors_are_typed() {
    let mut rng = Rng(0x6A42);
    for spec in &PROTOCOLS {
        let good = spec.encode(&random_frame(spec, &mut rng));
        let mutate = |at: usize, byte: u8| {
            let mut payload = good.clone();
            payload[at] = byte;
            let mut stream = Vec::new();
            write_frame(&mut stream, spec, &payload).unwrap();
            put(&mut stream, spec, &Frame::new(spec.kinds[0], 1, vec![]));
            let mut cursor = stream.as_slice();
            let err = read(&mut cursor, spec).unwrap_err();
            assert_eq!(read(&mut cursor, spec).unwrap().unwrap().id, 1);
            err
        };
        assert_eq!(mutate(0, b'X'), FrameError::BadMagic([b'X', spec.magic[1]]));
        assert_eq!(
            mutate(2, spec.version + 1),
            FrameError::UnsupportedVersion(spec.version + 1)
        );
        let kind = unknown_kind(spec);
        assert_eq!(mutate(3, kind), FrameError::UnknownKind(kind));
    }
}

/// An RP frame fed to the RW reader, and the reverse, fail as `BadMagic`.
#[test]
fn cross_protocol_frames_fail_as_bad_magic() {
    for (from, to) in [(RP, RW), (RW, RP)] {
        let mut stream = Vec::new();
        put(
            &mut stream,
            &from,
            &Frame::new(from.kinds[0], 3, vec![1, 2, 3]),
        );
        assert_eq!(
            read(&mut stream.as_slice(), &to),
            Err(FrameError::BadMagic(from.magic))
        );
    }
}

// ---------------------------------------------------------------------------
// Neutral on the wire
// ---------------------------------------------------------------------------

/// One call `write_frame` made on its writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Write(usize),
    Flush,
}

/// A writer that records the calls it receives instead of the bytes.
#[derive(Default)]
struct Recorder {
    calls: Vec<Call>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls.push(Call::Write(buf.len()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.calls.push(Call::Flush);
        Ok(())
    }
}

/// `write_frame` makes exactly three calls per frame: the 4-byte length
/// prefix, the payload, a flush.
#[test]
fn write_frame_makes_exactly_three_calls() {
    let mut rng = Rng(0x5EC);
    for spec in &PROTOCOLS {
        for _ in 0..8 {
            let payload = spec.encode(&random_frame(spec, &mut rng));
            let mut out = Recorder::default();
            write_frame(&mut out, spec, &payload).unwrap();
            assert_eq!(
                out.calls,
                [Call::Write(4), Call::Write(payload.len()), Call::Flush]
            );
        }
    }
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn framed(spec: &FrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut stream = Vec::new();
    write_frame(&mut stream, spec, payload).unwrap();
    stream
}

#[test]
fn rp_recommend_request_bytes_are_unchanged() {
    let request = RequestFrame {
        id: 0x0102_0304_0506_0708,
        request: Request::Recommend(RecommendRequest {
            predicate: vec![
                ("district".into(), Value::str("Ofla")),
                ("year".into(), Value::Int(-1986)),
                ("rain".into(), Value::Float(-0.5)),
                ("note".into(), Value::Null),
            ],
            group_by: vec!["district".into(), "village".into()],
            measure: "severity".into(),
            complaint_key: vec![Value::str("Ofla"), Value::str("Zata")],
            statistic: AggregateKind::Mean,
            direction: Direction::ShouldBe(2.5),
            deadline_ms: 250,
            fault: String::new(),
        }),
    };
    assert_eq!(
        framed(&RP, &encode_request(&request)),
        hex(concat!(
            "0000009f5250010101020304050607080000000400000008646973747269637403000000044f66",
            "6c61000000047965617201fffffffffffff83e000000047261696e02bfe0000000000000000000",
            "046e6f746500000000020000000864697374726963740000000776696c6c616765000000087365",
            "7665726974790000000203000000044f666c6103000000045a61746102024004000000000000",
            "000000fa00000000",
        ))
    );
}

#[test]
fn rp_recommendation_response_bytes_are_unchanged() {
    let response = ResponseFrame {
        id: 42,
        response: Response::Recommendation(WireRecommendation {
            original_value: 1.25,
            relation_version: 7,
            ranked: vec![
                WireScoredGroup {
                    hierarchy: "geo".into(),
                    added_attribute: "village".into(),
                    key: vec![Value::str("Ofla"), Value::str("Zata")],
                    observed: 0.75,
                    expected: 2.0,
                    repaired_complaint_value: -0.0,
                    penalty: 0.125,
                    improvement: 3.5,
                },
                WireScoredGroup {
                    hierarchy: "time".into(),
                    added_attribute: "month".into(),
                    key: vec![Value::Int(1986), Value::Int(7)],
                    observed: f64::from_bits(0x7FF8_0000_0000_1234),
                    expected: f64::INFINITY,
                    repaired_complaint_value: 1e-300,
                    penalty: 6.0,
                    improvement: -1.0,
                },
            ],
        }),
    };
    assert_eq!(
        framed(&RP, &encode_response(&response)),
        hex(concat!(
            "000000bf52500181000000000000002a3ff40000000000000000000000000007000000020000",
            "000367656f0000000776696c6c6167650000000203000000044f666c6103000000045a617461",
            "3fe8000000000000400000000000000080000000000000003fc0000000000000400c00000000",
            "00000000000474696d65000000056d6f6e7468000000020100000000000007c2010000000000",
            "0000077ff80000000012347ff000000000000001a56e1fc2f8f3594018000000000000bff000",
            "0000000000",
        ))
    );
}

#[test]
fn rw_scatter_frame_bytes_are_unchanged() {
    let frame = Frame::new(
        KIND_SCATTER,
        0x0A0B_0C0D_0E0F_1011,
        vec![OP_VIEW_SCAN, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F],
    );
    assert_eq!(
        framed(&RW, &RW.encode(&frame)),
        hex("00000013525701030a0b0c0d0e0f101101deadbeef007f")
    );
}
