//! `JobSpec` — the JSON description of one simulation job.
//!
//! A spec is everything the server needs to (re)create a run from
//! nothing: the Kohn–Sham system (supercell, cutoff, functional), the
//! laser coupling, the propagation window, the checkpoint cadence and the
//! `ranks × threads_per_rank` layout the scheduler charges against its
//! core budget. Specs travel as JSON (parsed with [`pt_io::Json`], no
//! serde) and are persisted verbatim into the job directory on submit —
//! after a server crash the spec file plus the newest valid snapshot are
//! sufficient to finish the job bit-exactly.

use pt_core::{LaserPulse, SimulationBuilder};
use pt_ham::{ExchangeMode, HybridConfig, KsSystem, PtError};
use pt_io::Json;
use pt_lattice::silicon_cubic_supercell;
use pt_num::units::attosecond_to_au;
use pt_par::RankLayout;
use pt_scf::{scf_loop, ScfOptions};
use pt_xc::XcKind;

/// The Kohn–Sham system a job propagates (silicon supercell family —
/// the lattice the reproduction ships).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    /// Cubic supercell repetitions along x, y, z.
    pub supercell: [usize; 3],
    /// Plane-wave cutoff (Ha).
    pub ecut: f64,
    /// Base functional: `"lda"` or `"pbe"`.
    pub xc: XcKind,
    /// Whether to layer screened hybrid exchange (HSE06) on top.
    pub hybrid: bool,
    /// Occupied-band override (`None` derives bands from the
    /// pseudopotential electron count).
    pub bands: Option<usize>,
    /// Exchange evaluation during propagation: full pair-FFT Fock, or the
    /// ACE projector. JSON keys: `"exchange": "full" | "ace"` plus, for
    /// `"ace"`, `"ace_refresh_interval"` (default 1); absent → full.
    pub exchange: ExchangeMode,
}

/// Laser coupling (the paper's 380 nm Gaussian pulse family).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaserSpec {
    /// Peak vector potential (a.u.).
    pub a0: f64,
    /// Pulse center (attoseconds).
    pub t0_as: f64,
    /// Gaussian width (attoseconds).
    pub sigma_as: f64,
}

/// One simulation job, JSON-round-trippable.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (shown in `status`).
    pub name: String,
    /// The system to build and propagate.
    pub system: SystemSpec,
    /// Optional laser coupling.
    pub laser: Option<LaserSpec>,
    /// Time step (attoseconds).
    pub dt_as: f64,
    /// Steps to propagate.
    pub steps: usize,
    /// Emit a rolling snapshot every this many steps.
    pub checkpoint_every: usize,
    /// The ranks × threads layout the job occupies while running.
    pub layout: RankLayout,
}

impl JobSpec {
    /// Parse and [validate](JobSpec::validate) a spec from JSON text.
    pub fn from_json(text: &str) -> Result<JobSpec, PtError> {
        let v = Json::parse(text)?;
        let spec = Self::from_value(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Decode from an already-parsed JSON value.
    pub fn from_value(v: &Json) -> Result<JobSpec, PtError> {
        let bad = |what: &str| PtError::InvalidConfig(format!("job spec: {what}"));
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("'name' (string) is required"))?
            .to_string();
        let sys = v
            .get("system")
            .ok_or_else(|| bad("'system' (object) is required"))?;
        let supercell = match sys.get("supercell").and_then(Json::as_arr) {
            Some([a, b, c]) => {
                let d = |j: &Json| j.as_u64().map(|x| x as usize);
                match (d(a), d(b), d(c)) {
                    (Some(a), Some(b), Some(c)) => [a, b, c],
                    _ => return Err(bad("'system.supercell' entries must be integers")),
                }
            }
            None => [1, 1, 1],
            _ => return Err(bad("'system.supercell' must be a 3-array")),
        };
        let ecut = sys
            .get("ecut")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("'system.ecut' (number) is required"))?;
        // an optional string key: absent is the default, a present value
        // of any other JSON type is an error — never the default
        let opt_str = |key: &str| match sys.get(key) {
            None => Ok(None),
            Some(j) => j
                .as_str()
                .map(Some)
                .ok_or_else(|| bad(&format!("'system.{key}' must be a string"))),
        };
        let xc = match opt_str("xc")? {
            Some("lda") | None => XcKind::Lda,
            Some("pbe") => XcKind::Pbe,
            Some(other) => return Err(bad(&format!("unknown xc '{other}' (lda|pbe)"))),
        };
        let hybrid = match sys.get("hybrid") {
            None => false,
            Some(j) => j
                .as_bool()
                .ok_or_else(|| bad("'system.hybrid' must be a boolean"))?,
        };
        let bands = match sys.get("bands") {
            None => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or_else(|| bad("'system.bands' must be an integer"))?
                    as usize,
            ),
        };
        const MTS_REMOVED: &str = "the 'ace_mts' exchange mode and its 'ace_inner_substeps' \
             key were removed (slower and less accurate than 'ace' at the same \
             refresh interval); use \"exchange\": \"ace\"";
        if sys.get("ace_inner_substeps").is_some() {
            return Err(bad(MTS_REMOVED));
        }
        let exchange = match opt_str("exchange")? {
            Some("full") | None => {
                if sys.get("ace_refresh_interval").is_some() {
                    return Err(bad(
                        "'system.ace_refresh_interval' needs \"exchange\": \"ace\"",
                    ));
                }
                ExchangeMode::Full
            }
            Some("ace") => ExchangeMode::Ace {
                refresh_interval: match sys.get("ace_refresh_interval") {
                    None => 1,
                    Some(j) => j.as_u64().filter(|&x| x >= 1).ok_or_else(|| {
                        bad("'system.ace_refresh_interval' must be a positive integer")
                    })? as usize,
                },
            },
            Some("ace_mts") => return Err(bad(MTS_REMOVED)),
            Some(other) => return Err(bad(&format!("unknown exchange '{other}' (full|ace)"))),
        };
        let laser = match v.get("laser") {
            None | Some(Json::Null) => None,
            Some(l) => {
                let f = |key: &str| {
                    l.get(key).and_then(Json::as_f64).ok_or_else(|| {
                        bad(&format!(
                            "'laser.{key}' (number) is required when laser is set"
                        ))
                    })
                };
                Some(LaserSpec {
                    a0: f("a0")?,
                    t0_as: f("t0_as")?,
                    sigma_as: f("sigma_as")?,
                })
            }
        };
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("'{key}' (number) is required")))
        };
        let int = |key: &str, default: u64| match v.get(key) {
            None => Ok(default),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| bad(&format!("'{key}' must be a nonnegative integer"))),
        };
        let dt_as = num("dt_as")?;
        let steps = v
            .get("steps")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("'steps' (integer) is required"))? as usize;
        let checkpoint_every = int("checkpoint_every", 1)? as usize;
        let ranks = int("ranks", 1)? as usize;
        let threads_per_rank = int("threads_per_rank", 1)? as usize;
        Ok(JobSpec {
            name,
            system: SystemSpec {
                supercell,
                ecut,
                xc,
                hybrid,
                bands,
                exchange,
            },
            laser,
            dt_as,
            steps,
            checkpoint_every,
            layout: RankLayout {
                ranks,
                threads_per_rank,
            },
        })
    }

    /// Encode as a JSON value ([`JobSpec::from_value`] inverts it).
    pub fn to_value(&self) -> Json {
        let mut sys = vec![
            (
                "supercell".to_string(),
                Json::Arr(
                    self.system
                        .supercell
                        .iter()
                        .map(|&x| Json::Num(x as f64))
                        .collect(),
                ),
            ),
            ("ecut".to_string(), Json::Num(self.system.ecut)),
            (
                "xc".to_string(),
                Json::Str(match self.system.xc {
                    XcKind::Lda => "lda".into(),
                    XcKind::Pbe => "pbe".into(),
                }),
            ),
            ("hybrid".to_string(), Json::Bool(self.system.hybrid)),
        ];
        if let Some(nb) = self.system.bands {
            sys.push(("bands".to_string(), Json::Num(nb as f64)));
        }
        match self.system.exchange {
            ExchangeMode::Full => {} // the default; absent key round-trips
            ExchangeMode::Ace { refresh_interval } => {
                sys.push(("exchange".to_string(), Json::Str("ace".into())));
                sys.push((
                    "ace_refresh_interval".to_string(),
                    Json::Num(refresh_interval as f64),
                ));
            }
        }
        let mut pairs = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("system".to_string(), Json::Obj(sys)),
        ];
        if let Some(l) = &self.laser {
            pairs.push((
                "laser".to_string(),
                Json::Obj(vec![
                    ("a0".to_string(), Json::Num(l.a0)),
                    ("t0_as".to_string(), Json::Num(l.t0_as)),
                    ("sigma_as".to_string(), Json::Num(l.sigma_as)),
                ]),
            ));
        }
        pairs.extend([
            ("dt_as".to_string(), Json::Num(self.dt_as)),
            ("steps".to_string(), Json::Num(self.steps as f64)),
            (
                "checkpoint_every".to_string(),
                Json::Num(self.checkpoint_every as f64),
            ),
            ("ranks".to_string(), Json::Num(self.layout.ranks as f64)),
            (
                "threads_per_rank".to_string(),
                Json::Num(self.layout.threads_per_rank as f64),
            ),
        ]);
        Json::Obj(pairs)
    }

    /// Serialize as JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().dump()
    }

    /// Reject malformed specs up front with a typed error — before they
    /// reach the queue.
    pub fn validate(&self) -> Result<(), PtError> {
        if self.name.is_empty() {
            return Err(PtError::InvalidConfig(
                "job spec: name must be nonempty".into(),
            ));
        }
        if !(self.system.ecut.is_finite() && self.system.ecut > 0.0) {
            return Err(PtError::InvalidConfig(format!(
                "job spec: ecut must be positive, got {}",
                self.system.ecut
            )));
        }
        if self.system.supercell.contains(&0) {
            return Err(PtError::InvalidConfig(
                "job spec: supercell extents must be nonzero".into(),
            ));
        }
        // refused here, not when the admitted job builds its system
        if self.system.bands == Some(0) {
            return Err(PtError::InvalidConfig(
                "job spec: bands must be at least 1".into(),
            ));
        }
        self.system.exchange.validate()?;
        if self.system.exchange != ExchangeMode::Full && !self.system.hybrid {
            return Err(PtError::InvalidConfig(
                "job spec: ACE exchange requires 'system.hybrid': true".into(),
            ));
        }
        if !(self.dt_as.is_finite() && self.dt_as > 0.0) {
            return Err(PtError::InvalidConfig(format!(
                "job spec: dt_as must be positive, got {}",
                self.dt_as
            )));
        }
        // JSON carries no non-finite number, so what this refuses from a
        // parsed spec is a zero or negative sigma_as
        if let Some(l) = self.laser_pulse() {
            l.validate()
                .map_err(|msg| PtError::InvalidConfig(format!("job spec: {msg}")))?;
        }
        if self.steps == 0 {
            return Err(PtError::InvalidConfig(
                "job spec: steps must be at least 1".into(),
            ));
        }
        if self.checkpoint_every == 0 {
            return Err(PtError::InvalidConfig(
                "job spec: checkpoint_every must be at least 1".into(),
            ));
        }
        self.layout.validate().map_err(PtError::InvalidConfig)?;
        Ok(())
    }

    /// Cores this job occupies while running (`ranks × threads_per_rank`).
    pub fn cores(&self) -> usize {
        self.layout.cores()
    }

    /// Time step in atomic units.
    pub fn dt_au(&self) -> f64 {
        attosecond_to_au(self.dt_as)
    }

    /// The laser pulse, if configured.
    pub fn laser_pulse(&self) -> Option<LaserPulse> {
        self.laser.map(|l| {
            LaserPulse::paper_380nm(
                l.a0,
                attosecond_to_au(l.t0_as),
                attosecond_to_au(l.sigma_as),
            )
        })
    }

    /// Build the Kohn–Sham system this spec describes. The spec's
    /// [`RankLayout`] goes onto the system as is
    /// ([`KsSystemBuilder::layout`](pt_ham::KsSystemBuilder::layout)): the
    /// system then computes on a dedicated pool as wide as the cores the
    /// scheduler charged (SCF and everything replicated), and its exact
    /// exchange runs inline on it for one rank or on the system's rank
    /// team with pinned pools for more.
    pub fn build_system(&self) -> Result<KsSystem, PtError> {
        let [a, b, c] = self.system.supercell;
        let mut builder = KsSystem::builder(silicon_cubic_supercell(a, b, c))
            .ecut(self.system.ecut)
            .xc(self.system.xc);
        if self.system.hybrid {
            builder = builder.hybrid(HybridConfig::hse06());
        }
        builder = builder.exchange_mode(self.system.exchange);
        if let Some(nb) = self.system.bands {
            builder = builder.occupations(vec![2.0; nb]);
        }
        builder.layout(self.layout).build()
    }

    /// Converge the ground state and configure a fresh run of this spec
    /// (no checkpointing armed — callers add policies/taps, then
    /// `build()`). This is THE definition of what a job computes: the
    /// server's job runner and any reference calculation must both go
    /// through it so bit-exactness comparisons compare like with like.
    pub fn fresh_builder<'a>(&self, sys: &'a KsSystem) -> Result<SimulationBuilder<'a>, PtError> {
        let gs = scf_loop(sys, ScfOptions::default())?;
        let builder = SimulationBuilder::new(sys)
            .initial_orbitals(gs.orbitals)
            .dt(self.dt_au())
            .steps(self.steps);
        Ok(match self.laser_pulse() {
            Some(laser) => builder.laser(laser),
            None => builder,
        })
    }

    /// Run the spec start to finish in-process with no server, no
    /// checkpoints and no streaming — the uninterrupted reference a
    /// served job's final series must match bit-for-bit.
    pub fn run_reference(&self) -> Result<pt_core::TimeSeries, PtError> {
        let sys = self.build_system()?;
        let mut sim = self.fresh_builder(&sys)?.build()?;
        let series = sim.run();
        drop(sim);
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            system: SystemSpec {
                supercell: [1, 1, 1],
                ecut: 2.0,
                xc: XcKind::Lda,
                hybrid: false,
                bands: None,
                exchange: ExchangeMode::Full,
            },
            laser: Some(LaserSpec {
                a0: 0.02,
                t0_as: 200.0,
                sigma_as: 100.0,
            }),
            dt_as: 25.0,
            steps: 3,
            checkpoint_every: 1,
            layout: RankLayout::new(1, 1),
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec("roundtrip");
        let text = spec.to_json();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);
        // hybrid distributed variant too
        let mut h = tiny_spec("h");
        h.system.hybrid = true;
        h.system.bands = Some(4);
        h.system.xc = XcKind::Pbe;
        h.laser = None;
        h.layout = RankLayout::new(2, 2);
        assert_eq!(JobSpec::from_json(&h.to_json()).unwrap(), h);
        assert_eq!(h.cores(), 4);
        // the ACE variant round-trips too
        h.system.exchange = ExchangeMode::Ace {
            refresh_interval: 4,
        };
        assert_eq!(JobSpec::from_json(&h.to_json()).unwrap(), h);
    }

    #[test]
    fn exchange_spec_parses_defaults_and_rejects_misuse() {
        let spec = JobSpec::from_json(
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "ace"},
                "dt_as": 25.0, "steps": 2}"#,
        )
        .unwrap();
        assert_eq!(
            spec.system.exchange,
            ExchangeMode::Ace {
                refresh_interval: 1
            }
        );
        for bad in [
            // ACE without hybrid: nothing to compress
            r#"{"name": "a", "system": {"ecut": 2.0, "exchange": "ace"}, "dt_as": 25.0, "steps": 2}"#,
            // unknown mode
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "exx"}, "dt_as": 25.0, "steps": 2}"#,
            // zero interval
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "ace", "ace_refresh_interval": 0}, "dt_as": 25.0, "steps": 2}"#,
            // a present key of the wrong JSON type is never the default
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": 3}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": null}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "a", "system": {"ecut": 2.0, "xc": ["pbe"]}, "dt_as": 25.0, "steps": 2}"#,
            // an interval without the mode that reads it
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "ace_refresh_interval": 4}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "full", "ace_refresh_interval": 4}, "dt_as": 25.0, "steps": 2}"#,
        ] {
            assert!(
                matches!(JobSpec::from_json(bad), Err(PtError::InvalidConfig(_))),
                "{bad}"
            );
        }
        // the removed MTS mode: a typed error that names the removal
        for removed in [
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "ace_mts", "ace_refresh_interval": 2, "ace_inner_substeps": 2}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "ace_mts"}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "a", "system": {"ecut": 2.0, "hybrid": true, "exchange": "ace", "ace_inner_substeps": 2}, "dt_as": 25.0, "steps": 2}"#,
        ] {
            match JobSpec::from_json(removed) {
                Err(PtError::InvalidConfig(msg)) => assert!(msg.contains("removed"), "{msg}"),
                other => panic!("{removed}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn minimal_spec_text_applies_defaults() {
        let spec = JobSpec::from_json(
            r#"{"name": "min", "system": {"ecut": 2.0}, "dt_as": 25.0, "steps": 2}"#,
        )
        .unwrap();
        assert_eq!(spec.system.supercell, [1, 1, 1]);
        assert_eq!(spec.system.xc, XcKind::Lda);
        assert!(!spec.system.hybrid);
        assert_eq!(spec.checkpoint_every, 1);
        assert_eq!(spec.layout, RankLayout::new(1, 1));
        assert!(spec.laser.is_none());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"name": "x"}"#,
            r#"{"name": "x", "system": {"ecut": 2.0}, "dt_as": 25.0}"#,
            r#"{"name": "x", "system": {"ecut": 2.0}, "dt_as": 25.0, "steps": 0}"#,
            r#"{"name": "x", "system": {"ecut": -1.0}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "x", "system": {"ecut": 2.0, "xc": "b3lyp"}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "x", "system": {"ecut": 2.0}, "dt_as": 25.0, "steps": 2, "ranks": 0}"#,
            r#"{"name": "", "system": {"ecut": 2.0}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "x", "system": {"ecut": 2.0}, "dt_as": 25.0, "steps": 2, "checkpoint_every": 0}"#,
            // no occupied band: KsSystemBuilder::build would refuse it only
            // after the job was admitted and held its cores
            r#"{"name": "x", "system": {"ecut": 2.0, "bands": 0}, "dt_as": 25.0, "steps": 2}"#,
            // sigma 0: A(t0) = a0·exp(−0/0)·sin 0 is NaN, every sample with it
            r#"{"name": "x", "system": {"ecut": 2.0}, "laser": {"a0": 0.02, "t0_as": 0, "sigma_as": 0}, "dt_as": 25.0, "steps": 2}"#,
            r#"{"name": "x", "system": {"ecut": 2.0}, "laser": {"a0": 0.02, "t0_as": 200, "sigma_as": -100}, "dt_as": 25.0, "steps": 2}"#,
        ] {
            assert!(
                matches!(JobSpec::from_json(bad), Err(PtError::InvalidConfig(_))),
                "{bad}"
            );
        }
    }
}
