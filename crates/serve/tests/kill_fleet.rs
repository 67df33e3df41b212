//! The headline durability test: a fleet of jobs (one hybrid 2 × 2, two
//! serial) is submitted to a real `pt-serve-server` process, tailed live,
//! then the server is killed with SIGKILL mid-run. A fresh server on the
//! same run directory must auto-resume every interrupted job from its
//! newest valid snapshot and finish the whole fleet with final series
//! **bit-identical** to uninterrupted in-process references.

use pt_io::Json;
use pt_par::RankLayout;
use pt_serve::{Client, JobSpec, JobState, LaserSpec, SystemSpec};
use pt_xc::XcKind;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(600);

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pt_serve_kill_{}_{tag}", std::process::id()));
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

fn hybrid_spec(name: &str, steps: usize) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        system: SystemSpec {
            supercell: [1, 1, 1],
            ecut: 2.0,
            xc: XcKind::Pbe,
            hybrid: true,
            bands: Some(4),
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
        layout: RankLayout::new(2, 2),
    }
}

/// Start the real server binary on `run_dir` and wait for its
/// `LISTENING <addr>` line. The test waits (or SIGKILLs then waits)
/// every child it spawns.
#[allow(clippy::zombie_processes)]
fn spawn_server(run_dir: &Path, budget: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pt-serve-server"))
        .arg(run_dir)
        .arg(budget.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pt-serve-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let deadline = Instant::now() + WAIT;
    loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("LISTENING ") {
                    // keep draining stdout so the child never blocks on a
                    // full pipe
                    std::thread::spawn(move || for _ in lines.by_ref() {});
                    return (child, addr.trim().to_string());
                }
            }
            Some(Err(_)) | None => panic!("server exited before listening"),
        }
        assert!(Instant::now() < deadline, "server never announced its port");
    }
}

fn assert_bits_eq(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}[{i}]: {a:e} != {b:e} (kill/restart changed the numbers)"
        );
    }
}

#[test]
fn sigkill_mid_fleet_then_restart_completes_every_job_bit_exactly() {
    let dir = tmp_dir("fleet");
    let specs = [
        hybrid_spec("hybrid-2x2", 2),
        serial_spec("serial-long", 6),
        serial_spec("serial-short", 4),
    ];
    // uninterrupted in-process references, one per spec, computed before
    // any server exists
    let references: Vec<pt_io::Table> = specs
        .iter()
        .map(|s| s.run_reference().unwrap().to_table().unwrap())
        .collect();

    // budget 6 fits the whole fleet at once (4 + 1 + 1)
    let (mut server, addr) = spawn_server(&dir, 6);
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = specs.iter().map(|s| client.submit(s).unwrap()).collect();

    // tail the long serial job live; SIGKILL the server the moment the
    // fleet has demonstrably committed steps (so snapshots exist and the
    // kill lands mid-run, not before the fleet starts)
    let mut rows_seen = 0usize;
    let tail_job = ids[1];
    let mut tail = Client::connect(&addr).unwrap();
    let _ = tail.tail(tail_job, "energy", 0, true, |chunk| {
        rows_seen += chunk.values.len();
        if rows_seen >= 2 {
            server.kill().expect("SIGKILL the server"); // SIGKILL on unix
        }
    });
    // the tail stream either ended cleanly (job finished first) or died
    // with the server — both are fine; what matters is the kill happened
    assert!(rows_seen >= 2, "never saw live steps before the kill path");
    let _ = server.wait();

    // restart on the same run dir: recovery re-enqueues interrupted jobs
    // and auto-resumes them from their newest valid snapshots
    let (mut server2, addr2) = spawn_server(&dir, 6);
    let mut client2 = Client::connect(&addr2).unwrap();
    for (i, (&id, spec)) in ids.iter().zip(&specs).enumerate() {
        let row = client2.wait_terminal(id, WAIT).unwrap();
        assert_eq!(
            row.state,
            JobState::Done,
            "job {i} ({}) after restart: {:?}",
            spec.name,
            row.error
        );
    }

    // every job's served result is bit-identical to its solo reference
    for ((&id, spec), reference) in ids.iter().zip(&specs).zip(&references) {
        let table = client2.fetch(id).unwrap();
        for column in ["t", "energy", "current_z", "n_electrons", "rho_residual"] {
            let got = Client::table_column(&table, column)
                .unwrap_or_else(|| panic!("{}: missing column {column}", spec.name));
            let want = reference.get(column).unwrap();
            assert_bits_eq(&format!("{} {column}", spec.name), &got, want);
        }
        assert_eq!(
            Client::table_column(&table, "t").unwrap().len(),
            spec.steps,
            "{}: wrong final step count",
            spec.name
        );
    }

    // a tail replayed after restart serves the full (rehydrated) history
    let mut replayed = 0usize;
    let state = client2
        .tail(ids[1], "energy", 0, false, |chunk| {
            replayed += chunk.values.len()
        })
        .unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(replayed, specs[1].steps);

    // every fetched column replays through `tail` to the bit, whichever
    // way the job's progress was rebuilt: rehydrated from `result.json`
    // (done before the kill) or restored prefix plus live steps (resumed)
    for &id in &ids {
        let table = client2.fetch(id).unwrap();
        let columns = table.get("columns").and_then(Json::as_obj).unwrap();
        for (name, _) in columns {
            let mut tailed = Vec::new();
            client2
                .tail(id, name, 0, false, |chunk| {
                    tailed.extend_from_slice(&chunk.values)
                })
                .unwrap();
            let want = Client::table_column(&table, name).unwrap();
            assert_bits_eq(&format!("job {id} tailed {name}"), &tailed, &want);
        }
    }

    // clean shutdown this time
    client2.shutdown().unwrap();
    let status = server2.wait().unwrap();
    assert!(status.success(), "server exit after shutdown: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
