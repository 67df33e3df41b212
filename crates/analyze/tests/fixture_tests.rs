//! Fixture tests: each seeded-violation file under `tests/fixtures/`
//! (a tree the workspace walker deliberately skips) is fed to
//! `check_source` under a crafted workspace-relative path label, which is
//! what selects crate scope and test-code classification. Each lint must
//! fire on its seeded lines, stay quiet on the sanctioned forms, honor
//! `allow` pragmas, and respect its crate scope.

use pt_analyze::{check_source, Finding};

fn lines_of(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn undocumented_unsafe_fires_and_safety_comments_clear_it() {
    let src = include_str!("fixtures/undocumented_unsafe.rs");
    let findings = check_source("crates/par/src/fixture.rs", src);
    // Only the bare block fires; same-line, block-above, and the
    // comment-above-a-spilled-statement forms are all documented.
    assert_eq!(lines_of(&findings, "undocumented-unsafe"), vec![5]);
    assert_eq!(findings.len(), 1, "unexpected extra findings: {findings:?}");
}

#[test]
fn library_unwrap_fires_on_unwrap_expect_panic_only_in_library_code() {
    let src = include_str!("fixtures/library_unwrap.rs");
    let findings = check_source("crates/core/src/fixture.rs", src);
    // bad_unwrap, bad_expect (message lacks the `invariant: ` prefix),
    // bad_panic; the invariant-form expect, both pragma'd unwraps, and the
    // `#[cfg(test)]` module are all exempt.
    assert_eq!(lines_of(&findings, "library-unwrap"), vec![6, 10, 15]);
    assert_eq!(findings.len(), 3, "unexpected extra findings: {findings:?}");
}

#[test]
fn library_unwrap_is_scoped_to_typed_error_crates() {
    let src = include_str!("fixtures/library_unwrap.rs");
    let findings = check_source("crates/lattice/src/fixture.rs", src);
    assert!(lines_of(&findings, "library-unwrap").is_empty());
}

#[test]
fn library_unwrap_exempts_whole_test_files_by_path() {
    let src = include_str!("fixtures/library_unwrap.rs");
    let findings = check_source("crates/core/tests/fixture.rs", src);
    assert!(lines_of(&findings, "library-unwrap").is_empty());
}

#[test]
fn nondeterministic_iteration_flags_every_hash_container_mention() {
    let src = include_str!("fixtures/nondeterministic_iteration.rs");
    let findings = check_source("crates/ham/src/fixture.rs", src);
    // Two `use` lines, two mentions on the construction line; the
    // pragma'd HashSet on line 15 is suppressed.
    assert_eq!(
        lines_of(&findings, "nondeterministic-iteration"),
        vec![5, 6, 9, 9]
    );
    assert!(!lines_of(&findings, "nondeterministic-iteration").contains(&15));
}

#[test]
fn nondeterministic_iteration_is_scoped_to_numeric_crates() {
    let src = include_str!("fixtures/nondeterministic_iteration.rs");
    let findings = check_source("crates/serve/src/fixture.rs", src);
    assert!(lines_of(&findings, "nondeterministic-iteration").is_empty());
}

#[test]
fn raw_thread_spawn_fires_outside_par_and_mpi() {
    let src = include_str!("fixtures/raw_thread_spawn.rs");
    let findings = check_source("crates/serve/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, "raw-thread-spawn"), vec![7]);
}

#[test]
fn raw_thread_spawn_exempts_the_thread_owning_crates() {
    let src = include_str!("fixtures/raw_thread_spawn.rs");
    for label in ["crates/par/src/fixture.rs", "crates/mpi/src/fixture.rs"] {
        let findings = check_source(label, src);
        assert!(
            lines_of(&findings, "raw-thread-spawn").is_empty(),
            "{label} should be exempt"
        );
    }
}

#[test]
fn wallclock_in_kernel_fires_on_instant_now_and_systemtime() {
    let src = include_str!("fixtures/wallclock_in_kernel.rs");
    let findings = check_source("crates/fft/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, "wallclock-in-kernel"), vec![8, 13]);
}

#[test]
fn wallclock_in_kernel_is_scoped_to_kernel_crates() {
    let src = include_str!("fixtures/wallclock_in_kernel.rs");
    let findings = check_source("crates/serve/src/fixture.rs", src);
    assert!(lines_of(&findings, "wallclock-in-kernel").is_empty());
}

#[test]
fn wallclock_in_kernel_carves_out_the_trace_crate() {
    // pt-trace sits in the kernel dependency cone (every instrumented hot
    // path links it) but is the designated owner of all timestamping: the
    // carve-out is crate-scoped, so the same clock-reading source that
    // fires in fft is clean under crates/trace — with no pragmas.
    let src = include_str!("fixtures/wallclock_in_kernel.rs");
    let findings = check_source("crates/trace/src/fixture.rs", src);
    assert!(
        lines_of(&findings, "wallclock-in-kernel").is_empty(),
        "trace must be carve-out clean: {findings:?}"
    );
    // same source still fires in a real kernel crate (guard against the
    // carve-out accidentally widening)
    let findings = check_source("crates/core/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, "wallclock-in-kernel"), vec![8, 13]);
}

#[test]
fn parallel_mutable_capture_flags_writes_to_captured_state() {
    let src = include_str!("fixtures/parallel_mutable_capture.rs");
    let findings = check_source("crates/ham/src/fixture.rs", src);
    // lock().push() through a captured Mutex, a compound assignment to a
    // captured counter, and a field assignment through a captured struct;
    // let/for/closure-param locals and the pragma'd slot-fill are quiet.
    assert_eq!(
        lines_of(&findings, "parallel-mutable-capture"),
        vec![9, 16, 23]
    );
    assert_eq!(findings.len(), 3, "unexpected extra findings: {findings:?}");
}

#[test]
fn parallel_mutable_capture_is_exempt_in_par_and_test_code() {
    let src = include_str!("fixtures/parallel_mutable_capture.rs");
    // pt-par owns the primitives (its internals may stage state by design)
    let findings = check_source("crates/par/src/fixture.rs", src);
    assert!(lines_of(&findings, "parallel-mutable-capture").is_empty());
    // integration tests are exempt by path
    let findings = check_source("crates/ham/tests/fixture.rs", src);
    assert!(lines_of(&findings, "parallel-mutable-capture").is_empty());
}

#[test]
fn float_fold_order_fires_on_float_reductions_not_integer_ones() {
    let src = include_str!("fixtures/float_fold_order.rs");
    let findings = check_source("crates/linalg/src/fixture.rs", src);
    // sum::<f64>, fold, untyped sum(), product::<f64>; the integer
    // sum::<usize> and the pragma'd line are quiet.
    assert_eq!(lines_of(&findings, "float-fold-order"), vec![6, 10, 14, 19]);
    assert_eq!(findings.len(), 4, "unexpected extra findings: {findings:?}");
}

#[test]
fn meta_lints_catch_malformed_and_stale_pragmas() {
    let src = include_str!("fixtures/pragmas.rs");
    let findings = check_source("crates/core/src/fixture.rs", src);
    // A reason-less pragma and an unknown-lint pragma are invalid AND
    // suppress nothing — the unwraps under them still fire.
    assert_eq!(lines_of(&findings, "invalid-pragma"), vec![5, 10]);
    assert_eq!(lines_of(&findings, "library-unwrap"), vec![6, 11]);
    // A well-formed pragma covering a clean line is flagged as stale.
    assert_eq!(lines_of(&findings, "unused-pragma"), vec![15]);
    assert_eq!(findings.len(), 5, "unexpected extra findings: {findings:?}");
}

#[test]
fn shim_crates_get_their_own_crate_key() {
    // `crates/shims/proptest` must key as `shims/proptest`, which is NOT in the
    // numeric-crate list — float-fold-order does not apply there.
    let src = "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    let findings = check_source("crates/shims/proptest/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
    // …but the same source in a numeric crate fires.
    let findings = check_source("crates/num/src/fixture.rs", src);
    assert_eq!(lines_of(&findings, "float-fold-order"), vec![1]);
}
