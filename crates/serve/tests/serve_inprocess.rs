//! In-process server acceptance: concurrent jobs produce the same bits
//! as running alone, live tails agree with the final table, cancellation
//! is honored and resumable, and never-fitting jobs are refused up front.

use pt_par::RankLayout;
use pt_serve::{start, Client, JobSpec, JobState, LaserSpec, ServerConfig, SystemSpec};
use pt_xc::XcKind;
use std::path::PathBuf;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(600);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pt_serve_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn serial_spec(name: &str, steps: usize) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        system: SystemSpec {
            supercell: [1, 1, 1],
            ecut: 2.0,
            xc: XcKind::Lda,
            hybrid: false,
            bands: None,
            exchange: Default::default(),
        },
        laser: Some(LaserSpec {
            a0: 0.02,
            t0_as: 200.0,
            sigma_as: 100.0,
        }),
        dt_as: 25.0,
        steps,
        checkpoint_every: 1,
        layout: RankLayout::new(1, 1),
    }
}

/// Compare every column of a fetched table against a reference series,
/// bit for bit (the JSON writer emits shortest-round-trip floats, so the
/// wire preserves exact bits).
fn assert_table_matches_series(table: &pt_io::Json, series: &pt_core::TimeSeries) {
    let ref_table = series.to_table().unwrap();
    for name in ["t", "energy", "current_z", "rho_residual", "n_electrons"] {
        let got = Client::table_column(table, name)
            .unwrap_or_else(|| panic!("fetched table missing column '{name}'"));
        let want = ref_table
            .get(name)
            .unwrap_or_else(|| panic!("reference table missing column '{name}'"));
        assert_eq!(got.len(), want.len(), "column '{name}' length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "column '{name}'[{i}]: {a:e} != {b:e} (serving changed the numbers)"
            );
        }
    }
}

/// Replay every column of a fetched table through `tail` and compare bit
/// for bit: the job's live progress serves exactly what it fetches.
fn assert_tails_match_table(client: &mut Client, job: u64, table: &pt_io::Json) {
    let columns = table.get("columns").and_then(pt_io::Json::as_obj).unwrap();
    for (name, _) in columns {
        let mut tailed: Vec<f64> = Vec::new();
        client
            .tail(job, name, 0, false, |chunk| {
                tailed.extend_from_slice(&chunk.values)
            })
            .unwrap();
        let want = Client::table_column(table, name).unwrap();
        assert_eq!(tailed.len(), want.len(), "tailed '{name}' length");
        for (i, (a, b)) in tailed.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "tailed '{name}'[{i}]");
        }
    }
}

#[test]
fn concurrent_jobs_match_solo_references_and_live_tails() {
    let dir = tmp_dir("fleet");
    let spec_a = serial_spec("fleet-a", 4);
    let spec_b = serial_spec("fleet-b", 3);
    // references: the same specs run uninterrupted, in-process, no server
    let ref_a = spec_a.run_reference().unwrap();
    let ref_b = spec_b.run_reference().unwrap();

    // budget 2 → both 1-core jobs run concurrently
    let handle = start(ServerConfig::new(&dir, 2)).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let job_a = client.submit(&spec_a).unwrap();
    let job_b = client.submit(&spec_b).unwrap();

    // live-tail job A's energy on a second connection while it runs
    let mut tail_client = Client::connect(&addr).unwrap();
    let mut tailed: Vec<f64> = Vec::new();
    let final_state = tail_client
        .tail(job_a, "energy", 0, true, |chunk| {
            assert_eq!(chunk.start, tailed.len(), "tail stream skipped rows");
            tailed.extend_from_slice(&chunk.values);
        })
        .unwrap();
    assert_eq!(final_state, JobState::Done);

    let row_a = client.wait_terminal(job_a, WAIT).unwrap();
    let row_b = client.wait_terminal(job_b, WAIT).unwrap();
    assert_eq!(row_a.state, JobState::Done, "{:?}", row_a.error);
    assert_eq!(row_b.state, JobState::Done, "{:?}", row_b.error);
    assert_eq!(row_a.steps_done, 4);

    // the scheduler never oversubscribed (it asserts internally too)
    // and the fetched tables carry exactly the solo-run bits
    let table_a = client.fetch(job_a).unwrap();
    let table_b = client.fetch(job_b).unwrap();
    assert_table_matches_series(&table_a, &ref_a);
    assert_table_matches_series(&table_b, &ref_b);

    // the live tail saw exactly the final energy column
    let energy_a = Client::table_column(&table_a, "energy").unwrap();
    assert_eq!(tailed.len(), energy_a.len());
    for (i, (a, b)) in tailed.iter().zip(&energy_a).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "tailed energy[{i}]");
    }

    // tail of a finished job replays from the requested cursor
    let mut replay: Vec<f64> = Vec::new();
    let state = tail_client
        .tail(job_a, "energy", 2, false, |chunk| {
            replay.extend_from_slice(&chunk.values)
        })
        .unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(replay.len(), energy_a.len() - 2);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_resumes_on_restart_with_identical_bits() {
    let dir = tmp_dir("cancel");
    let spec = serial_spec("cancellable", 5);
    let reference = spec.run_reference().unwrap();

    let handle = start(ServerConfig::new(&dir, 2)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let job = client.submit(&spec).unwrap();
    // let at least one step commit so the cancel leaves a snapshot behind
    let mut seen = 0usize;
    let mut tail = Client::connect(&handle.addr().to_string()).unwrap();
    let _ = tail.tail(job, "t", 0, true, |chunk| {
        seen += chunk.t.len();
        if seen >= 1 && !chunk.state.is_terminal() {
            // request cancellation from inside the live tail
            let mut c = Client::connect(&handle.addr().to_string()).unwrap();
            let _ = c.cancel(job);
        }
    });
    let row = client.wait_terminal(job, WAIT).unwrap();
    let job_dir = dir.join("jobs").join(format!("job_{job:08}"));
    if row.state == JobState::Cancelled {
        assert!(job_dir.join("cancelled").exists(), "marker missing");
        assert!(
            row.steps_done < spec.steps,
            "cancel landed only after the job finished"
        );
        // the cancel wrote a final snapshot at the boundary it stopped on
        assert!(
            pt_io::snapshot_files(&job_dir)
                .unwrap()
                .iter()
                .any(|p| pt_io::SnapshotFile::open(p).is_ok()),
            "no snapshot to resume from"
        );
        handle.stop();
        // clear the cancellation and restart the server on the same dir:
        // recovery re-enqueues the job and it resumes from its snapshot
        std::fs::remove_file(job_dir.join("cancelled")).unwrap();
        let handle2 = start(ServerConfig::new(&dir, 2)).unwrap();
        let mut client2 = Client::connect(&handle2.addr().to_string()).unwrap();
        let row2 = client2.wait_terminal(job, WAIT).unwrap();
        assert_eq!(row2.state, JobState::Done, "{:?}", row2.error);
        let table = client2.fetch(job).unwrap();
        assert_table_matches_series(&table, &reference);
        // the resumed job's progress (restored prefix plus live steps)
        // tails every column exactly as fetched
        assert_tails_match_table(&mut client2, job, &table);
        handle2.stop();
    } else {
        // tiny systems can finish before the cancel lands; the run must
        // then be a plain completed one with reference bits
        assert_eq!(row.state, JobState::Done, "{:?}", row.error);
        let table = client.fetch(job).unwrap();
        assert_table_matches_series(&table, &reference);
        handle.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nan_sample_keeps_its_row_in_a_recovered_done_job() {
    // a done job on disk whose energy column holds a NaN (written `null`)
    let dir = tmp_dir("nan");
    let job_dir = dir.join("jobs").join("job_00000000");
    std::fs::create_dir_all(&job_dir).unwrap();
    let spec = serial_spec("nan", 3);
    std::fs::write(job_dir.join("spec.json"), spec.to_json()).unwrap();
    let mut result = pt_io::Table::new();
    result.column("t", vec![1.0, 2.0, 3.0]).unwrap();
    result.column("energy", vec![-1.0, f64::NAN, -1.2]).unwrap();
    result.write_json(job_dir.join("result.json")).unwrap();

    let handle = start(ServerConfig::new(&dir, 2)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    assert_eq!(client.wait_terminal(0, WAIT).unwrap().state, JobState::Done);
    let assert_in_place = |what: &str, energy: &[f64]| {
        assert_eq!(energy.len(), 3, "{what}: the NaN row vanished");
        assert!(energy[1].is_nan(), "{what}: {energy:?}");
        assert_eq!((energy[0], energy[2]), (-1.0, -1.2), "{what}");
    };
    // the rehydrated progress serves the column through `tail` ...
    let mut tailed = Vec::new();
    client
        .tail(0, "energy", 0, false, |chunk| {
            assert_eq!(chunk.t.len(), chunk.values.len(), "tail frame out of line");
            tailed.extend_from_slice(&chunk.values);
        })
        .unwrap();
    assert_in_place("tailed", &tailed);
    // ... and `fetch` serves the table itself
    let table = client.fetch(0).unwrap();
    assert_in_place("fetched", &Client::table_column(&table, "energy").unwrap());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hopeless_and_malformed_submissions_are_refused_up_front() {
    let dir = tmp_dir("refuse");
    let handle = start(ServerConfig::new(&dir, 2)).unwrap();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    // wider than the whole budget: typed refusal at submit, never queued
    let mut wide = serial_spec("wide", 2);
    wide.layout = RankLayout::new(2, 2);
    let err = client.submit(&wide).unwrap_err().to_string();
    assert!(err.contains("can never run"), "{err}");
    assert!(
        client.status().unwrap().is_empty(),
        "refused job was queued"
    );

    // malformed spec: zero steps
    let mut broken = serial_spec("broken", 2);
    broken.steps = 0;
    assert!(client.submit(&broken).is_err());

    // operations on unknown jobs are typed errors, not hangs
    assert!(client.cancel(99).is_err());
    assert!(client.fetch(99).is_err());
    let err = client
        .tail(99, "energy", 0, false, |_| {})
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown job"), "{err}");

    // the connection survives all those errors
    assert!(client.status().unwrap().is_empty());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
