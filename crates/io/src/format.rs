//! The versioned binary snapshot container.
//!
//! A snapshot file is a flat, little-endian, self-describing bag of named
//! **sections**:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PTIOSNAP"
//! 8       4     u32 format version (currently 1)
//! 12      4     u32 section count
//! 16      8     u64 section-table offset
//! 24      …     section payloads, back to back
//! table   …     per section: u16 name length, name (UTF-8), u8 kind,
//!               u64 payload offset, u64 payload length, u32 CRC-32
//! ```
//!
//! Section kinds: `u64` arrays, `f64` arrays, UTF-8 strings, and complex
//! column-major matrices of `f64` pairs — every value round-trips to the
//! bit. Kind 5, a retired `f32` matrix payload, is refused: a quantized ψ
//! could never resume bit-exactly.
//!
//! Every payload carries its own CRC-32; [`SnapshotFile::open`] verifies
//! all of them (plus magic, version, table bounds and that no section is
//! named twice) before returning, so truncation and corruption surface as
//! [`PtError::SnapshotFormat`] — the reader never panics on malformed
//! input. [`SnapshotWriter::finish`]
//! writes to a temporary sibling and renames it into place, so a crash
//! mid-write can never leave a half-written file under the final name.

use crate::crc32::crc32;
use pt_ham::PtError;
use pt_linalg::CMat;
use pt_num::c64;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File magic.
pub const MAGIC: [u8; 8] = *b"PTIOSNAP";
/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
/// Kind tag of the retired single-precision complex-matrix payload.
const RETIRED_F32_MATRIX: u8 = 5;

/// Payload type of one section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    U64s,
    F64s,
    Str,
    CMatF64,
}

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::U64s => 1,
            Kind::F64s => 2,
            Kind::Str => 3,
            Kind::CMatF64 => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Kind> {
        match tag {
            1 => Some(Kind::U64s),
            2 => Some(Kind::F64s),
            3 => Some(Kind::Str),
            4 => Some(Kind::CMatF64),
            _ => None,
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Kind::U64s => "u64 array",
            Kind::F64s => "f64 array",
            Kind::Str => "string",
            Kind::CMatF64 => "complex matrix (f64)",
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> PtError {
    PtError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

fn format_err(path: &Path, reason: impl Into<String>) -> PtError {
    PtError::SnapshotFormat {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Builds a snapshot in memory and writes it atomically on
/// [`SnapshotWriter::finish`].
pub struct SnapshotWriter {
    path: PathBuf,
    sections: Vec<(String, Kind, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Start a snapshot destined for `path` (nothing touches the
    /// filesystem until [`SnapshotWriter::finish`]).
    pub fn create(path: impl Into<PathBuf>) -> Self {
        SnapshotWriter {
            path: path.into(),
            sections: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, kind: Kind, payload: Vec<u8>) -> Result<(), PtError> {
        if name.is_empty() || name.len() > u16::MAX as usize {
            return Err(format_err(
                &self.path,
                format!("section name length {} out of range", name.len()),
            ));
        }
        if self.sections.iter().any(|(n, _, _)| n == name) {
            return Err(format_err(
                &self.path,
                format!("duplicate section '{name}'"),
            ));
        }
        self.sections.push((name.to_string(), kind, payload));
        Ok(())
    }

    /// Add a `u64` array section.
    pub fn put_u64s(&mut self, name: &str, data: &[u64]) -> Result<(), PtError> {
        let mut bytes = Vec::with_capacity(8 * data.len());
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.push(name, Kind::U64s, bytes)
    }

    /// Add an `f64` array section (exact bits).
    pub fn put_f64s(&mut self, name: &str, data: &[f64]) -> Result<(), PtError> {
        let mut bytes = Vec::with_capacity(8 * data.len());
        for v in data {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.push(name, Kind::F64s, bytes)
    }

    /// Add a UTF-8 string section.
    pub fn put_str(&mut self, name: &str, value: &str) -> Result<(), PtError> {
        self.push(name, Kind::Str, value.as_bytes().to_vec())
    }

    /// Add a complex column-major matrix section (exact bits).
    pub fn put_cmat(&mut self, name: &str, m: &CMat) -> Result<(), PtError> {
        let mut bytes = Vec::with_capacity(16 + 16 * m.data().len());
        bytes.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
        bytes.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
        for z in m.data() {
            bytes.extend_from_slice(&z.re.to_bits().to_le_bytes());
            bytes.extend_from_slice(&z.im.to_bits().to_le_bytes());
        }
        self.push(name, Kind::CMatF64, bytes)
    }

    /// Assemble the container and write it atomically (temporary sibling +
    /// rename).
    pub fn finish(self) -> Result<(), PtError> {
        let n = self.sections.len();
        let payload_total: usize = self.sections.iter().map(|(_, _, p)| p.len()).sum();
        let table_offset = HEADER_LEN + payload_total;
        let mut bytes = Vec::with_capacity(table_offset + 32 * n);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(n as u32).to_le_bytes());
        bytes.extend_from_slice(&(table_offset as u64).to_le_bytes());
        let mut offsets = Vec::with_capacity(n);
        for (_, _, payload) in &self.sections {
            offsets.push(bytes.len() as u64);
            bytes.extend_from_slice(payload);
        }
        debug_assert_eq!(bytes.len(), table_offset);
        for ((name, kind, payload), offset) in self.sections.iter().zip(offsets) {
            bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(kind.tag());
            bytes.extend_from_slice(&offset.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let tmp = self.path.with_extension("ptio.tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, e))
    }
}

#[derive(Debug)]
struct Section {
    kind: Kind,
    payload: Vec<u8>,
}

/// A fully-read, fully-verified snapshot: every access after
/// [`SnapshotFile::open`] is in-memory and infallible except for
/// missing-section / wrong-kind lookups.
#[derive(Debug)]
pub struct SnapshotFile {
    path: PathBuf,
    sections: BTreeMap<String, Section>,
}

/// Little-endian field cursor over a byte slice (bounds-checked).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(out)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    #[expect(clippy::expect_used, reason = "invariant: take(4) is 4 bytes")]
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("invariant")))
    }

    #[expect(clippy::expect_used, reason = "invariant: take(8) is 8 bytes")]
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("invariant")))
    }
}

impl SnapshotFile {
    /// Read and verify `path`: magic, format version, table bounds, the
    /// CRC-32 of every section payload, and that every section has a
    /// known kind and a name of its own. Any defect — including plain
    /// truncation — is a typed [`PtError::SnapshotFormat`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PtError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        Self::parse(path, &bytes)
    }

    fn parse(path: &Path, bytes: &[u8]) -> Result<Self, PtError> {
        if bytes.len() < HEADER_LEN {
            return Err(format_err(
                path,
                format!("file is {} bytes, shorter than the header", bytes.len()),
            ));
        }
        if bytes[..8] != MAGIC {
            return Err(format_err(path, "bad magic (not a pt-io snapshot)"));
        }
        let mut cur = Cursor { bytes, pos: 8 };
        #[expect(
            clippy::expect_used,
            reason = "invariant: bytes.len() >= HEADER_LEN was checked above"
        )]
        let version = cur.u32().expect("invariant");
        if version != FORMAT_VERSION {
            return Err(format_err(
                path,
                format!("format version {version} (this build reads {FORMAT_VERSION})"),
            ));
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: bytes.len() >= HEADER_LEN was checked above"
        )]
        let n_sections = cur.u32().expect("invariant") as usize;
        #[expect(
            clippy::expect_used,
            reason = "invariant: bytes.len() >= HEADER_LEN was checked above"
        )]
        let table_offset = cur.u64().expect("invariant") as usize;
        if table_offset < HEADER_LEN || table_offset > bytes.len() {
            return Err(format_err(
                path,
                format!("section table offset {table_offset} out of bounds"),
            ));
        }
        let mut table = Cursor {
            bytes,
            pos: table_offset,
        };
        let mut sections = BTreeMap::new();
        for i in 0..n_sections {
            let entry = (|| {
                let name_len = table.u16()? as usize;
                let name = std::str::from_utf8(table.take(name_len)?).ok()?.to_string();
                let tag = table.take(1)?[0];
                let offset = table.u64()? as usize;
                let len = table.u64()? as usize;
                let crc = table.u32()?;
                Some((name, tag, offset, len, crc))
            })();
            let Some((name, tag, offset, len, crc)) = entry else {
                return Err(format_err(
                    path,
                    format!("section table truncated at entry {i}"),
                ));
            };
            if tag == RETIRED_F32_MATRIX {
                return Err(format_err(
                    path,
                    format!(
                        "section '{name}' holds a retired f32 complex-matrix payload \
                         (kind {tag}); a single-precision matrix cannot resume \
                         bit-exactly and is not read"
                    ),
                ));
            }
            let Some(kind) = Kind::from_tag(tag) else {
                return Err(format_err(
                    path,
                    format!("section '{name}' has unknown kind tag {tag}"),
                ));
            };
            let payload = bytes
                .get(offset..offset.saturating_add(len))
                .ok_or_else(|| {
                    format_err(
                        path,
                        format!(
                            "section '{name}' payload [{offset}, {offset}+{len}) out of bounds"
                        ),
                    )
                })?;
            let got = crc32(payload);
            if got != crc {
                return Err(format_err(
                    path,
                    format!("crc mismatch in section '{name}': stored {crc:#010x}, computed {got:#010x}"),
                ));
            }
            // the writer refuses duplicates, but a CRC-valid file is still
            // outside input: a second copy must not silently win
            match sections.entry(name) {
                Entry::Occupied(e) => {
                    return Err(format_err(
                        path,
                        format!("section '{}' appears twice", e.key()),
                    ))
                }
                Entry::Vacant(e) => {
                    e.insert(Section {
                        kind,
                        payload: payload.to_vec(),
                    });
                }
            }
        }
        Ok(SnapshotFile {
            path: path.to_path_buf(),
            sections,
        })
    }

    /// Names of all sections (sorted).
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.keys().map(String::as_str).collect()
    }

    /// Whether a section exists.
    pub fn has(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    fn section(&self, name: &str, want: Kind) -> Result<&Section, PtError> {
        let s = self
            .sections
            .get(name)
            .ok_or_else(|| format_err(&self.path, format!("missing section '{name}'")))?;
        if s.kind != want {
            return Err(format_err(
                &self.path,
                format!(
                    "section '{name}' is a {}, expected a {}",
                    s.kind.describe(),
                    want.describe()
                ),
            ));
        }
        Ok(s)
    }

    /// A `u64` array section.
    #[expect(clippy::expect_used, reason = "invariant: chunks_exact(8)")]
    pub fn u64s(&self, name: &str) -> Result<Vec<u64>, PtError> {
        let s = self.section(name, Kind::U64s)?;
        if s.payload.len() % 8 != 0 {
            return Err(format_err(
                &self.path,
                format!(
                    "section '{name}' length {} is not a u64 multiple",
                    s.payload.len()
                ),
            ));
        }
        Ok(s.payload
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("invariant")))
            .collect())
    }

    /// An `f64` array section (exact bits).
    #[expect(clippy::expect_used, reason = "invariant: chunks_exact(8)")]
    pub fn f64s(&self, name: &str) -> Result<Vec<f64>, PtError> {
        let s = self.section(name, Kind::F64s)?;
        if s.payload.len() % 8 != 0 {
            return Err(format_err(
                &self.path,
                format!(
                    "section '{name}' length {} is not an f64 multiple",
                    s.payload.len()
                ),
            ));
        }
        Ok(s.payload
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("invariant"))))
            .collect())
    }

    /// A UTF-8 string section.
    pub fn str(&self, name: &str) -> Result<String, PtError> {
        let s = self.section(name, Kind::Str)?;
        String::from_utf8(s.payload.clone())
            .map_err(|_| format_err(&self.path, format!("section '{name}' is not valid UTF-8")))
    }

    /// A complex matrix section (exact bits).
    pub fn cmat(&self, name: &str) -> Result<CMat, PtError> {
        let s = self.section(name, Kind::CMatF64)?;
        let mut cur = Cursor {
            bytes: &s.payload,
            pos: 0,
        };
        let (Some(nrows), Some(ncols)) = (cur.u64(), cur.u64()) else {
            return Err(format_err(
                &self.path,
                format!("section '{name}' is too short for a matrix header"),
            ));
        };
        let (nrows, ncols) = (nrows as usize, ncols as usize);
        // fully checked arithmetic: a doctored header claiming huge extents
        // must fall through to the typed error, not overflow (the read
        // path's no-panic contract)
        let n = nrows.checked_mul(ncols).filter(|&n| {
            n.checked_mul(16)
                .and_then(|b| b.checked_add(16))
                .is_some_and(|want| s.payload.len() == want)
        });
        let Some(n) = n else {
            return Err(format_err(
                &self.path,
                format!(
                    "section '{name}' payload length {} does not match a {nrows}x{ncols} matrix",
                    s.payload.len()
                ),
            ));
        };
        let mut data = Vec::with_capacity(n);
        for pair in s.payload[16..].chunks_exact(16) {
            #[expect(clippy::expect_used, reason = "invariant: 16-byte chunk halves")]
            let re = f64::from_bits(u64::from_le_bytes(pair[..8].try_into().expect("invariant")));
            #[expect(clippy::expect_used, reason = "invariant: 16-byte chunk halves")]
            let im = f64::from_bits(u64::from_le_bytes(pair[8..].try_into().expect("invariant")));
            data.push(c64::new(re, im));
        }
        Ok(CMat::from_vec(nrows, ncols, data))
    }

    /// Typed convenience: a `u64` section expected to hold exactly one
    /// value.
    pub fn u64(&self, name: &str) -> Result<u64, PtError> {
        match self.u64s(name)?.as_slice() {
            [v] => Ok(*v),
            other => Err(format_err(
                &self.path,
                format!("section '{name}' holds {} values, expected 1", other.len()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pt_io_format_{}_{tag}.ptio", std::process::id()))
    }

    fn sample(path: &Path) {
        let mut w = SnapshotWriter::create(path);
        w.put_u64s("meta", &[3, u64::MAX, 0]).unwrap();
        w.put_f64s("t", &[0.25, -1.5e-300, f64::MAX]).unwrap();
        w.put_str("prop/name", "pt-cn").unwrap();
        w.put_cmat("psi", &CMat::rand_normalized(17, 3, 9)).unwrap();
        w.finish().unwrap();
    }

    /// A hand-assembled container holding `sections` (name, kind tag,
    /// payload) in order, every CRC valid — what the writer would produce
    /// if it did not check its input.
    fn container(sections: &[(&str, u8, &[u8])]) -> Vec<u8> {
        let payload_len: usize = sections.iter().map(|(_, _, p)| p.len()).sum();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&((HEADER_LEN + payload_len) as u64).to_le_bytes());
        for (_, _, payload) in sections {
            bytes.extend_from_slice(payload);
        }
        let mut offset = HEADER_LEN;
        for (name, tag, payload) in sections {
            bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(*tag);
            bytes.extend_from_slice(&(offset as u64).to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len();
        }
        bytes
    }

    /// The `SnapshotFormat` reason `open` gives for `bytes`.
    fn open_error(tag: &str, bytes: &[u8]) -> String {
        let path = tmp_path(tag);
        std::fs::write(&path, bytes).unwrap();
        let got = SnapshotFile::open(&path);
        std::fs::remove_file(&path).unwrap();
        match got {
            Err(PtError::SnapshotFormat { reason, .. }) => reason,
            other => panic!("expected a SnapshotFormat error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_every_section_kind_exactly() {
        let path = tmp_path("roundtrip");
        sample(&path);
        let f = SnapshotFile::open(&path).unwrap();
        assert_eq!(f.section_names(), vec!["meta", "prop/name", "psi", "t"]);
        assert_eq!(f.u64s("meta").unwrap(), vec![3, u64::MAX, 0]);
        let t = f.f64s("t").unwrap();
        assert_eq!(t[0].to_bits(), 0.25f64.to_bits());
        assert_eq!(t[1].to_bits(), (-1.5e-300f64).to_bits());
        assert_eq!(f.str("prop/name").unwrap(), "pt-cn");
        let psi = f.cmat("psi").unwrap();
        let want = CMat::rand_normalized(17, 3, 9);
        for (a, b) in psi.data().iter().zip(want.data()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let path = tmp_path("corrupt");
        sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        // truncate at several depths, including mid-table
        for keep in [0usize, 7, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 3] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(
                    SnapshotFile::open(&path),
                    Err(PtError::SnapshotFormat { .. })
                ),
                "truncation to {keep} bytes not detected"
            );
        }
        // flip one payload byte: CRC must catch it
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = SnapshotFile::open(&path).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
        // wrong version
        let mut vbad = bytes.clone();
        vbad[8] = 0xEE;
        std::fs::write(&path, &vbad).unwrap();
        let err = SnapshotFile::open(&path).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
        // wrong magic
        let mut mbad = bytes;
        mbad[0] = b'X';
        std::fs::write(&path, &mbad).unwrap();
        assert!(matches!(
            SnapshotFile::open(&path),
            Err(PtError::SnapshotFormat { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lookup_misuse_is_typed() {
        let path = tmp_path("lookup");
        sample(&path);
        let f = SnapshotFile::open(&path).unwrap();
        assert!(matches!(
            f.u64s("nope"),
            Err(PtError::SnapshotFormat { .. })
        ));
        assert!(matches!(f.str("meta"), Err(PtError::SnapshotFormat { .. })));
        assert!(matches!(f.u64("meta"), Err(PtError::SnapshotFormat { .. })));
        assert!(matches!(f.cmat("t"), Err(PtError::SnapshotFormat { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn huge_matrix_header_is_a_typed_error_not_an_overflow() {
        // hand-assemble a container whose (CRC-valid) matrix section
        // header claims astronomical extents over a 16-byte payload: the
        // byte-count validation must use checked arithmetic and return the
        // typed error, not trip overflow checks
        let mut payload = Vec::new();
        payload.extend_from_slice(&(1u64 << 60).to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        let bytes = container(&[("m", Kind::CMatF64.tag(), &payload)]);
        let path = tmp_path("hugehdr");
        std::fs::write(&path, &bytes).unwrap();
        let f = SnapshotFile::open(&path).unwrap();
        let err = f.cmat("m").unwrap_err();
        assert!(matches!(err, PtError::SnapshotFormat { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_section_named_twice_is_a_typed_error_not_a_silent_overwrite() {
        // two CRC-valid copies of "steps": the reader must not let the
        // later one win
        let (first, second) = (7u64.to_le_bytes(), 9u64.to_le_bytes());
        let u64s = Kind::U64s.tag();
        let bytes = container(&[("steps", u64s, &first), ("steps", u64s, &second)]);
        let reason = open_error("twice", &bytes);
        assert!(reason.contains("'steps' appears twice"), "{reason}");
        // the same two payloads under two names still load
        let bytes = container(&[("a", u64s, &first), ("b", u64s, &second)]);
        let path = tmp_path("twice_ok");
        std::fs::write(&path, &bytes).unwrap();
        let f = SnapshotFile::open(&path).unwrap();
        assert_eq!((f.u64("a").unwrap(), f.u64("b").unwrap()), (7, 9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_retired_f32_matrix_section_is_refused_at_open() {
        // kind 5 held a single-precision matrix: 16-byte header, f32 pairs
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0.5f32.to_le_bytes());
        payload.extend_from_slice(&(-0.25f32).to_le_bytes());
        let bytes = container(&[("psi", RETIRED_F32_MATRIX, &payload)]);
        let reason = open_error("retired", &bytes);
        assert!(
            reason.contains("'psi'") && reason.contains("retired f32"),
            "{reason}"
        );
    }

    #[test]
    fn writer_rejects_duplicate_sections() {
        let mut w = SnapshotWriter::create(tmp_path("dup"));
        w.put_u64s("a", &[1]).unwrap();
        assert!(matches!(
            w.put_f64s("a", &[1.0]),
            Err(PtError::SnapshotFormat { .. })
        ));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            SnapshotFile::open("/nonexistent/dir/x.ptio"),
            Err(PtError::Io { .. })
        ));
    }
}
