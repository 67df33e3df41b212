//! Regenerate the paper's Summit evaluation from the anchored model:
//! Tables 1–2, Figs. 3 and 6–10, the 1.5 h/fs headline and the §6 power
//! parity.
//!
//! Run with: `cargo run --release --example paper_artifacts`

fn main() {
    print!(
        "{}",
        pwdft_rt::perf::paper_report(&pwdft_rt::perf::CostModel::new())
    );
}
