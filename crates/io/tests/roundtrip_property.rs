//! Property test: arbitrary random orbital blocks survive the snapshot
//! container bit-exactly.

use proptest::prelude::*;
use pt_io::{SnapshotFile, SnapshotWriter};
use pt_linalg::CMat;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_cmat_blocks_round_trip(nrows in 1usize..64, ncols in 1usize..9, seed in 1u64..1_000_000) {
        let path = std::env::temp_dir().join(format!(
            "pt_io_prop_{}_{nrows}x{ncols}_{seed}.ptio",
            std::process::id()
        ));
        let m = CMat::rand_normalized(nrows, ncols, seed);
        let mut w = SnapshotWriter::create(&path);
        w.put_cmat("block", &m).unwrap();
        w.put_u64s("dims", &[nrows as u64, ncols as u64]).unwrap();
        w.finish().unwrap();
        let f = SnapshotFile::open(&path).unwrap();
        prop_assert_eq!(f.u64s("dims").unwrap(), vec![nrows as u64, ncols as u64]);
        let got = f.cmat("block").unwrap();
        prop_assert_eq!((got.nrows(), got.ncols()), (nrows, ncols));
        for (a, b) in got.data().iter().zip(m.data()) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
