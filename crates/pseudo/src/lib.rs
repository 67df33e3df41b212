//! `pt-pseudo` — norm-conserving pseudopotentials.
//!
//! The paper uses SG15 ONCV pseudopotentials (Hamann 2013 / Schlipf–Gygi
//! 2015), which ship as numerical tables. To keep this reproduction fully
//! self-contained we substitute the **GTH analytic family**
//! (Goedecker–Teter–Hutter, PRB 54, 1703 (1996)): the same
//! norm-conserving, Kleinman–Bylander separable structure — a local
//! potential plus a small set of separable nonlocal projectors — but with
//! closed-form real- and reciprocal-space expressions, so no data files are
//! needed and every matrix element can be unit-tested against quadrature.
//! This substitution preserves everything the paper's evaluation exercises:
//! the cost structure of applying the pseudopotential (dense local multiply
//! + sparse real-space projectors, §3.2) and the physics of bulk silicon.
//!
//! Two application paths are provided, mirroring PWDFT:
//! * reciprocal space (reference implementation),
//! * **real space** sparse projectors (Wang, PRB 64, 201107 (2001)) — the
//!   paper stores all nonlocal projectors on every processor (~432 MB for
//!   1536 atoms) and applies them with zero communication.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

mod gth;
mod local;
mod nonlocal;

pub use gth::{gth_parameters, GthParams};
pub use local::LocalPotential;
pub use nonlocal::{NonlocalPs, Projector, UnsupportedAngularMomentum, MAX_ANGULAR_MOMENTUM};
