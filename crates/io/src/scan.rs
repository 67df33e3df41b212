//! Checkpoint-directory listing: the `ckpt_*.ptio` files of a run
//! directory, oldest first.
//!
//! A run directory after a crash can hold anything: the rolling window of
//! good snapshots, a file truncated by the kill, a corrupt one from a bad
//! disk, plus stale files from earlier trajectories. Listing never opens
//! a file; the reader that resumes from one validates it
//! ([`crate::SnapshotFile::open`] checks magic, format version, table
//! bounds and every section CRC) and a defect surfaces there as a typed
//! [`PtError`], never as a panic.

use pt_ham::PtError;
use std::path::{Path, PathBuf};

/// All `ckpt_*.ptio` files in `dir`, ascending by file name — i.e. by
/// step, since the step number in the name is zero-padded. Does **not**
/// open the files.
pub fn snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, PtError> {
    let rd = std::fs::read_dir(dir).map_err(|e| PtError::Io {
        path: dir.display().to_string(),
        reason: e.to_string(),
    })?;
    let mut files: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "ptio")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt_"))
        })
        .collect();
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_only_snapshot_names_by_step_and_a_missing_directory_is_io() {
        let dir = std::env::temp_dir().join(format!("pt_scan_{}_list", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(snapshot_files(&dir).unwrap().is_empty());
        for name in [
            "ckpt_00000010.ptio",
            "ckpt_00000002.ptio",
            "notes.txt",
            "other.ptio",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        // listed, not opened: a directory with a snapshot's name is listed too
        std::fs::create_dir(dir.join("ckpt_00000011.ptio")).unwrap();
        assert_eq!(
            snapshot_files(&dir).unwrap(),
            [
                "ckpt_00000002.ptio",
                "ckpt_00000010.ptio",
                "ckpt_00000011.ptio"
            ]
            .map(|n| dir.join(n))
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(snapshot_files(&dir), Err(PtError::Io { .. })));
    }
}
