//! Equation of state and transport properties.

/// A calorically perfect gas.
///
/// CRoCCo's full chemistry tracks per-species heats (Eq. 2); the DMR
/// evaluation case is a single perfect-gas species, which is what we model.
/// All benchmark problems use nondimensional units where `r_gas = 1/γ` gives
/// a unit sound speed at ρ = p = 1 unless stated otherwise.
#[derive(Clone, Copy, Debug)]
pub struct PerfectGas {
    /// Ratio of specific heats γ.
    pub gamma: f64,
    /// Specific gas constant R.
    pub r_gas: f64,
    /// Reference dynamic viscosity μ₀ at `t_ref` (Sutherland).
    pub mu_ref: f64,
    /// Sutherland reference temperature.
    pub t_ref: f64,
    /// Sutherland constant S.
    pub t_s: f64,
    /// Prandtl number (for the heat flux).
    pub prandtl: f64,
}

impl PerfectGas {
    /// Air: γ = 1.4, SI units.
    pub fn air() -> Self {
        PerfectGas {
            gamma: 1.4,
            r_gas: 287.05,
            mu_ref: 1.716e-5,
            t_ref: 273.15,
            t_s: 110.4,
            prandtl: 0.72,
        }
    }

    /// The nondimensional gas used by the canonical test problems (Sod, DMR,
    /// isentropic vortex): γ = 1.4, R = 1.
    pub fn nondimensional() -> Self {
        PerfectGas {
            gamma: 1.4,
            r_gas: 1.0,
            mu_ref: 0.0,
            t_ref: 1.0,
            t_s: 0.0,
            prandtl: 0.72,
        }
    }

    /// Specific heat at constant volume.
    pub fn cv(&self) -> f64 {
        self.r_gas / (self.gamma - 1.0)
    }

    /// Specific heat at constant pressure.
    pub fn cp(&self) -> f64 {
        self.gamma * self.r_gas / (self.gamma - 1.0)
    }

    /// Temperature from density and pressure: `T = p / (ρ R)`.
    pub fn temperature(&self, rho: f64, p: f64) -> f64 {
        p / (rho * self.r_gas)
    }

    /// Pressure from density and temperature.
    pub fn pressure(&self, rho: f64, t: f64) -> f64 {
        rho * self.r_gas * t
    }

    /// Speed of sound `a = √(γ p / ρ)`.
    pub fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        debug_assert!(p > 0.0 && rho > 0.0, "unphysical state p={p} rho={rho}");
        (self.gamma * p / rho).sqrt()
    }

    /// Sutherland dynamic viscosity μ(T).
    pub fn viscosity(&self, t: f64) -> f64 {
        if self.mu_ref == 0.0 {
            return 0.0; // inviscid nondimensional runs
        }
        self.mu_ref * (t / self.t_ref).powf(1.5) * (self.t_ref + self.t_s) / (t + self.t_s)
    }

    /// Thermal conductivity from μ and the Prandtl number.
    pub fn conductivity(&self, t: f64) -> f64 {
        self.conductivity_from_viscosity(self.viscosity(t))
    }

    /// [`conductivity`](Self::conductivity) from an already evaluated
    /// `μ = viscosity(t)`: `k = μ c_p / Pr`.
    pub fn conductivity_from_viscosity(&self, mu: f64) -> f64 {
        mu * self.cp() / self.prandtl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn air_sound_speed_at_stp() {
        let g = PerfectGas::air();
        let rho = 1.225;
        let p = 101_325.0;
        let a = g.sound_speed(rho, p);
        assert!((a - 340.3).abs() < 1.0, "a = {a}");
        let t = g.temperature(rho, p);
        assert!((t - 288.1).abs() < 0.5, "T = {t}");
    }

    #[test]
    fn sutherland_matches_reference_point() {
        let g = PerfectGas::air();
        assert!((g.viscosity(g.t_ref) - g.mu_ref).abs() < 1e-20);
        // μ grows with T.
        assert!(g.viscosity(600.0) > g.viscosity(300.0));
    }

    #[test]
    fn specific_heats_consistent() {
        let g = PerfectGas::air();
        assert!((g.cp() - g.cv() - g.r_gas).abs() < 1e-9);
        assert!((g.cp() / g.cv() - g.gamma).abs() < 1e-12);
    }

    #[test]
    fn nondimensional_gas_is_inviscid() {
        let g = PerfectGas::nondimensional();
        assert_eq!(g.viscosity(1.0), 0.0);
        assert_eq!(g.conductivity(1.0), 0.0);
        // Unit state has sound speed sqrt(gamma).
        assert!((g.sound_speed(1.0, 1.0) - 1.4f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn pressure_temperature_roundtrip() {
        let g = PerfectGas::air();
        let p = g.pressure(0.5, 400.0);
        assert!((g.temperature(0.5, p) - 400.0).abs() < 1e-10);
    }
}
