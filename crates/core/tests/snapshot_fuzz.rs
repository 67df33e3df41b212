//! Fuzz the snapshot reader with a real LDA snapshot (a one-step PT-CN run
//! of 4 bands on Si-8): random byte files, truncations at every offset
//! inside the header and the section table plus sampled offsets in the
//! payloads, and sampled single-byte flips go through the three readers a
//! resume runs — `SnapshotFile::open`, `RunCheckpoint::read` and
//! `Simulation::resume`. Each must come back as a typed `PtError` (a
//! random file may also open as an empty container, which nothing reads);
//! a panic fails the test. The cases are drawn by the `proptest` shim,
//! whose seed is the property's name.

use proptest::prelude::*;
use pt_core::{latest_checkpoint, PtError, RunCheckpoint, Simulation, SimulationBuilder};
use pt_ham::KsSystem;
use pt_io::SnapshotFile;
use pt_lattice::silicon_cubic_supercell;
use pt_linalg::CMat;
use pt_num::rng::XorShift64;
use pt_xc::XcKind;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Header bytes: magic, version, section count, section-table offset.
const HEADER_LEN: usize = 24;

fn lda_system() -> &'static KsSystem {
    static SYS: OnceLock<KsSystem> = OnceLock::new();
    SYS.get_or_init(|| {
        KsSystem::builder(silicon_cubic_supercell(1, 1, 1))
            .ecut(2.0)
            .xc(XcKind::Lda)
            .occupations(vec![2.0; 4])
            .build()
            .unwrap()
    })
}

/// The bytes of the snapshot a one-step run writes, made once per binary.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let sys = lda_system();
        let dir = std::env::temp_dir().join(format!("pt_snapshot_fuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut psi = CMat::rand_normalized(sys.grids.ng(), sys.n_bands(), 7);
        pt_linalg::orthonormalize_columns(&mut psi, 0.0);
        SimulationBuilder::new(sys)
            .initial_orbitals(psi)
            .dt(pt_num::units::attosecond_to_au(25.0))
            .steps(1)
            .checkpoint_every(1, &dir)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let path = latest_checkpoint(&dir).unwrap().expect("one snapshot");
        let bytes = std::fs::read(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    })
}

/// Byte offset of the section table (the header's last word).
fn table_offset(bytes: &[u8]) -> usize {
    u64::from_le_bytes(bytes[16..HEADER_LEN].try_into().unwrap()) as usize
}

/// What the three readers make of `bytes`, written to a file of `tag`'s:
/// `open`, `read`, `resume`, each `Ok(())` or its error.
fn readers(tag: &str, bytes: &[u8]) -> [Result<(), PtError>; 3] {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "pt_snapshot_fuzz_{}_{tag}.ptio",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let got = [
        SnapshotFile::open(&path).map(drop),
        RunCheckpoint::read(&path).map(drop),
        Simulation::resume(lda_system(), &path).map(drop),
    ];
    std::fs::remove_file(&path).unwrap();
    got
}

fn is_format_error(r: &Result<(), PtError>) -> bool {
    matches!(r, Err(PtError::SnapshotFormat { .. }))
}

/// A snapshot cut to `keep` bytes is a format error to every reader.
fn assert_truncation_refused(tag: &str, keep: usize) {
    let got = readers(tag, &snapshot()[..keep]);
    assert!(
        got.iter().all(is_format_error),
        "cut to {keep} bytes: {got:?}"
    );
}

#[test]
fn the_fixture_resumes() {
    let got = readers("whole", snapshot());
    assert!(got.iter().all(Result::is_ok), "{got:?}");
    assert!(table_offset(snapshot()) > HEADER_LEN);
}

#[test]
fn every_truncation_in_the_header_and_the_section_table_is_refused() {
    let bytes = snapshot();
    for keep in (0..HEADER_LEN).chain(table_offset(bytes)..bytes.len()) {
        assert_truncation_refused("cut_table", keep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncations_inside_the_payloads_are_refused(at in 0usize..1 << 30) {
        let payloads = table_offset(snapshot()) - HEADER_LEN;
        assert_truncation_refused("cut_payload", HEADER_LEN + at % payloads);
    }

    #[test]
    fn random_byte_files_are_refused(seed in 0u64..u64::MAX, len in 0usize..512, shape in 0u8..3) {
        let mut rng = XorShift64::new(seed);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // past the magic and the version, then also past the header: a
        // small section count and a table offset inside the file
        if shape >= 1 && len >= HEADER_LEN {
            bytes[..12].copy_from_slice(&snapshot()[..12]);
        }
        if shape == 2 && len >= HEADER_LEN {
            let n_sections = (rng.next_u64() % 4) as u32;
            let table = HEADER_LEN + (rng.next_u64() as usize) % (len - HEADER_LEN + 1);
            bytes[12..16].copy_from_slice(&n_sections.to_le_bytes());
            bytes[16..24].copy_from_slice(&(table as u64).to_le_bytes());
        }
        let [open, read, resume] = readers("random", &bytes);
        // an empty table is a valid, empty container; nothing resumes it
        prop_assert!(open.is_ok() || is_format_error(&open), "{open:?}");
        prop_assert!(is_format_error(&read), "{read:?}");
        prop_assert!(is_format_error(&resume), "{resume:?}");
    }

    #[test]
    fn single_byte_flips_are_refused(pos in 0usize..1 << 30, mask in 1u16..256, anywhere in 0u8..2) {
        let mut bytes = snapshot().to_vec();
        // half the flips land anywhere (mostly the ψ payload), half in the
        // few bytes no CRC covers: the header and the section table
        let table = table_offset(&bytes);
        let uncovered = HEADER_LEN + bytes.len() - table;
        let at = match (anywhere, pos % uncovered) {
            (1, _) => pos % bytes.len(),
            (_, p) if p < HEADER_LEN => p,
            (_, p) => table + p - HEADER_LEN,
        };
        bytes[at] ^= mask as u8;
        // a flip inside a payload fails its CRC at open; one in the header
        // or the table fails there or leaves a section the reader misses
        let [open, read, resume] = readers("flip", &bytes);
        prop_assert!(open.is_ok() || is_format_error(&open), "byte {at}: {open:?}");
        prop_assert!(is_format_error(&read), "byte {at}: {read:?}");
        prop_assert!(is_format_error(&resume), "byte {at}: {resume:?}");
    }
}
