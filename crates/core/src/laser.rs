//! The external laser pulse (§4: 380 nm wavelength, Gaussian envelope).
//!
//! Periodic systems couple to light in the velocity gauge: the Hamiltonian
//! kinetic term becomes ½|−i∇ + A(t)|² with a spatially uniform vector
//! potential A(t) (dipole approximation). The electric field is
//! E(t) = −∂A/∂t.

/// A linearly polarized Gaussian-envelope pulse.
#[derive(Clone, Copy, Debug)]
pub struct LaserPulse {
    /// Peak vector-potential amplitude |A|max (a.u.).
    pub a0: f64,
    /// Carrier angular frequency ω (Ha).
    pub omega: f64,
    /// Envelope center t₀ (a.u. time).
    pub t0: f64,
    /// Envelope width σ (a.u. time).
    pub sigma: f64,
    /// Polarization direction (unit vector).
    pub polarization: [f64; 3],
}

impl LaserPulse {
    /// The paper's pulse: 380 nm (ħω ≈ 0.12 Ha), centered at `t0` with
    /// width `sigma`, polarized along z.
    pub fn paper_380nm(a0: f64, t0: f64, sigma: f64) -> Self {
        LaserPulse {
            a0,
            omega: pt_num::units::wavelength_nm_to_hartree(380.0),
            t0,
            sigma,
            polarization: [0.0, 0.0, 1.0],
        }
    }

    /// Check the pulse: every field finite and the envelope width
    /// positive (σ = 0 makes `A(t₀)` a 0/0 NaN and `A` zero everywhere
    /// else). Returns a human-readable complaint for callers to wrap in
    /// their error type.
    pub fn validate(&self) -> Result<(), String> {
        let [px, py, pz] = self.polarization;
        if ![self.a0, self.omega, self.t0, self.sigma, px, py, pz]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(format!("laser pulse fields must be finite, got {self:?}"));
        }
        if self.sigma <= 0.0 {
            return Err(format!(
                "laser envelope width sigma must be positive, got {}",
                self.sigma
            ));
        }
        Ok(())
    }

    /// Vector potential A(t).
    pub fn a_field(&self, t: f64) -> [f64; 3] {
        let tau = t - self.t0;
        let env = (-tau * tau / (2.0 * self.sigma * self.sigma)).exp();
        let a = self.a0 * env * (self.omega * tau).sin();
        [
            a * self.polarization[0],
            a * self.polarization[1],
            a * self.polarization[2],
        ]
    }

    /// Electric field E(t) = −dA/dt (analytic derivative).
    pub fn e_field(&self, t: f64) -> [f64; 3] {
        let tau = t - self.t0;
        let env = (-tau * tau / (2.0 * self.sigma * self.sigma)).exp();
        let da = self.a0
            * env
            * (self.omega * (self.omega * tau).cos()
                - tau / (self.sigma * self.sigma) * (self.omega * tau).sin());
        [
            -da * self.polarization[0],
            -da * self.polarization[1],
            -da * self.polarization[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photon_energy_matches_380nm() {
        let p = LaserPulse::paper_380nm(0.01, 100.0, 30.0);
        assert!((p.omega * pt_num::units::EV_PER_HARTREE - 3.2627).abs() < 1e-3);
    }

    #[test]
    fn e_field_is_minus_da_dt() {
        let p = LaserPulse::paper_380nm(0.05, 50.0, 20.0);
        for &t in &[30.0, 50.0, 71.3] {
            let h = 1e-5;
            let ap = p.a_field(t + h);
            let am = p.a_field(t - h);
            let e = p.e_field(t);
            for d in 0..3 {
                let num = -(ap[d] - am[d]) / (2.0 * h);
                assert!((e[d] - num).abs() < 1e-8, "t={t} d={d}: {} vs {num}", e[d]);
            }
        }
    }

    #[test]
    fn envelope_decays() {
        let p = LaserPulse::paper_380nm(0.05, 50.0, 10.0);
        let far = p.a_field(50.0 + 8.0 * 10.0);
        assert!(far.iter().all(|v| v.abs() < 1e-10));
    }
}
