//! Fuzz the two parsers outside input reaches first: `read_frame` (bytes
//! off a socket) and `JobSpec::from_json` (the spec a submit carries, and
//! the `spec.json` a restarted server recovers). Random bytes, every
//! truncation of a valid spec frame and sampled single-byte flips of it
//! must come back `Ok` or as a typed `PtError` — a panic fails the test.
//! A spec that parses also goes through what `submit` does with it next:
//! the admission width (`cores()`) and the persisted text (`to_json()`,
//! which must parse back to the same spec).

use proptest::prelude::*;
use pt_io::Json;
use pt_num::rng::XorShift64;
use pt_par::RankLayout;
use pt_serve::{read_frame, write_frame, JobSpec};

/// A valid spec with every key present.
const SPEC: &str = r#"{"name": "fuzz", "system": {"supercell": [1, 1, 2], "ecut": 2.5,
    "xc": "pbe", "hybrid": true, "bands": 4, "exchange": "ace", "ace_refresh_interval": 2},
    "laser": {"a0": 0.02, "t0_as": 200, "sigma_as": 100}, "dt_as": 25, "steps": 3,
    "checkpoint_every": 1, "ranks": 2, "threads_per_rank": 1}"#;

/// Bytes random JSON-ish text is drawn from, so the parser gets past the
/// first byte more often than uniform noise lets it.
const JSON_ALPHABET: &[u8] = b"{}[]\":, \n0123456789.eE+-truefalsnl\\u\xce\xa8abcxyz";

fn spec_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &Json::parse(SPEC).unwrap()).unwrap();
    frame
}

/// What the server does with an accepted spec before a job exists.
fn admit(spec: &JobSpec) {
    let _ = spec.cores();
    assert_eq!(JobSpec::from_json(&spec.to_json()).as_ref(), Ok(spec));
}

/// Feed `bytes` to both parsers: as a frame stream (frames back to back
/// until EOF or the first error, each one a candidate submit), and as spec
/// text (what recovery reads from disk).
fn ingest(bytes: &[u8]) {
    let mut r = bytes;
    while let Ok(Some(frame)) = read_frame(&mut r) {
        if let Ok(spec) = JobSpec::from_value(&frame).and_then(|s| s.validate().map(|()| s)) {
            admit(&spec);
        }
    }
    if let Ok(spec) = JobSpec::from_json(&String::from_utf8_lossy(bytes)) {
        admit(&spec);
    }
}

#[test]
fn the_fixture_is_a_valid_spec_frame() {
    let frame = spec_frame();
    let spec = JobSpec::from_value(&read_frame(&mut &frame[..]).unwrap().unwrap()).unwrap();
    spec.validate().unwrap();
    assert_eq!(JobSpec::from_json(SPEC).unwrap(), spec);
}

#[test]
fn every_truncation_of_a_spec_frame_is_a_typed_error() {
    let frame = spec_frame();
    for keep in 0..frame.len() {
        let cut = &frame[..keep];
        match read_frame(&mut &cut[..]) {
            Ok(None) => assert_eq!(keep, 0, "only an empty stream is a clean close"),
            Ok(Some(_)) => panic!("a frame cut to {keep} bytes parsed"),
            Err(_) => {}
        }
        // the body cut short is never a spec either
        if keep > 4 {
            let text = String::from_utf8_lossy(&cut[4..]);
            assert!(JobSpec::from_json(&text).is_err(), "{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_either_parser(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
        json_ish in 0u8..2,
        framed in 0u8..2,
    ) {
        let mut rng = XorShift64::new(seed);
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| {
                let x = rng.next_u64();
                if json_ish == 1 {
                    JSON_ALPHABET[(x % JSON_ALPHABET.len() as u64) as usize]
                } else {
                    x as u8
                }
            })
            .collect();
        if framed == 1 {
            // a well-formed length prefix: the body reaches UTF-8 and JSON
            let mut f = (bytes.len() as u32).to_le_bytes().to_vec();
            f.append(&mut bytes);
            bytes = f;
        }
        ingest(&bytes);
    }

    #[test]
    fn single_byte_flips_of_a_spec_frame_never_panic(pos in 0usize..4096, byte in 0u16..256) {
        let mut frame = spec_frame();
        let i = pos % frame.len();
        frame[i] = byte as u8;
        ingest(&frame);
        ingest(&frame[4..]);
    }
}

/// Regression: `ranks × threads_per_rank` is the admission width, and a
/// spec whose product overflows `usize` passed `validate` — `cores()` then
/// panicked (debug) or wrapped to a tiny width (release) inside `submit`.
#[test]
fn a_layout_whose_core_count_overflows_is_refused() {
    let huge = 1u64 << 33;
    let text = SPEC.replace(
        r#""ranks": 2, "threads_per_rank": 1"#,
        &format!(r#""ranks": {huge}, "threads_per_rank": {huge}"#),
    );
    assert_ne!(text, SPEC);
    assert!(JobSpec::from_json(&text).is_err());
    assert!(RankLayout {
        ranks: usize::MAX,
        threads_per_rank: 2,
    }
    .validate()
    .is_err());
    ingest(text.as_bytes());
}
