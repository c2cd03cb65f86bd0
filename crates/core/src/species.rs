//! Multi-species gas mixtures (the full Eq. 1/Eq. 2 thermodynamics).
//!
//! The paper's governing equations carry one continuity equation per species
//! `s` with production rate `w_s`, and a total energy
//!
//! ```text
//! E = Σ_s ρ_s c_vs T + ½ ρ uᵢuᵢ + Σ_s ρ_s h°_s        (Eq. 2)
//! ```
//!
//! with per-species specific heats `c_vs` and formation heats `h°_s` — the
//! thermodynamics CRoCCo needs for chemically-reacting hypersonic flow. The
//! DMR evaluation case is single-species, so the production solver in
//! `driver` stays on the 5-component state; this module supplies the mixture
//! layer (state layout, conversions, mixture properties) plus the reacting
//! source terms in [`crate::chemistry`], exercised by the reactor tests and
//! ready for a multi-species driver.

/// Universal gas constant (J / mol / K).
pub const R_UNIVERSAL: f64 = 8.314_462_618;

/// One chemical species.
#[derive(Clone, Debug)]
pub struct Species {
    /// Display name.
    pub name: String,
    /// Molar mass (kg/mol).
    pub molar_mass: f64,
    /// Specific heat at constant volume `c_vs` (J / kg / K), assumed
    /// calorically perfect per species as in Eq. 2.
    pub cv: f64,
    /// Heat of formation `h°_s` (J / kg).
    pub h_formation: f64,
}

impl Species {
    /// Specific gas constant `R_s = R_u / M_s`.
    pub fn r_gas(&self) -> f64 {
        R_UNIVERSAL / self.molar_mass
    }

    /// Specific heat at constant pressure.
    pub fn cp(&self) -> f64 {
        self.cv + self.r_gas()
    }
}

/// A mixture of calorically perfect species.
#[derive(Clone, Debug)]
pub struct GasMixture {
    /// The species, in state-vector order.
    pub species: Vec<Species>,
}

/// The conserved state of an `ns`-species mixture:
/// `[ρ_1 … ρ_ns, ρu, ρv, ρw, E]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MixtureState {
    /// Partial densities ρ_s.
    pub rho_s: Vec<f64>,
    /// Momentum ρ·u.
    pub mom: [f64; 3],
    /// Total energy per unit volume, per Eq. 2.
    pub energy: f64,
}

/// Primitive mixture quantities.
#[derive(Clone, Debug, PartialEq)]
pub struct MixturePrimitive {
    /// Partial densities.
    pub rho_s: Vec<f64>,
    /// Velocity.
    pub vel: [f64; 3],
    /// Pressure.
    pub p: f64,
    /// Temperature.
    pub t: f64,
}

impl GasMixture {
    /// A two-species dissociating toy mixture A₂ ⇌ 2A with air-like numbers:
    /// the canonical testbed for hypersonic chemistry coupling.
    pub fn dissociating_pair() -> Self {
        GasMixture {
            species: vec![
                Species {
                    name: "A2".to_string(),
                    molar_mass: 0.028,
                    cv: 743.0,
                    h_formation: 0.0,
                },
                Species {
                    name: "A".to_string(),
                    molar_mass: 0.014,
                    cv: 890.0,
                    // Dissociation energy stored as formation heat of the atom.
                    h_formation: 3.36e7,
                },
            ],
        }
    }

    /// Number of species.
    pub fn ns(&self) -> usize {
        self.species.len()
    }

    /// Number of conserved components (`ns + 4`).
    pub fn ncomp(&self) -> usize {
        self.ns() + 4
    }

    /// Total density of a state.
    pub fn density(&self, rho_s: &[f64]) -> f64 {
        rho_s.iter().sum()
    }

    /// Mixture gas constant `R = Σ Y_s R_s`.
    pub fn r_mix(&self, rho_s: &[f64]) -> f64 {
        let rho = self.density(rho_s);
        rho_s
            .iter()
            .zip(&self.species)
            .map(|(r, s)| r / rho * s.r_gas())
            .sum()
    }

    /// Mixture `c_v = Σ Y_s c_vs`.
    pub fn cv_mix(&self, rho_s: &[f64]) -> f64 {
        let rho = self.density(rho_s);
        rho_s
            .iter()
            .zip(&self.species)
            .map(|(r, s)| r / rho * s.cv)
            .sum()
    }

    /// Mixture ratio of specific heats `γ = (c_v + R)/c_v`.
    pub fn gamma_mix(&self, rho_s: &[f64]) -> f64 {
        let cv = self.cv_mix(rho_s);
        (cv + self.r_mix(rho_s)) / cv
    }

    /// Frozen speed of sound `a = √(γ R T)`.
    pub fn sound_speed(&self, rho_s: &[f64], t: f64) -> f64 {
        (self.gamma_mix(rho_s) * self.r_mix(rho_s) * t).sqrt()
    }

    /// Total energy per Eq. 2 from primitives.
    pub fn energy(&self, rho_s: &[f64], vel: [f64; 3], t: f64) -> f64 {
        let rho = self.density(rho_s);
        let thermal: f64 = rho_s
            .iter()
            .zip(&self.species)
            .map(|(r, s)| r * (s.cv * t + s.h_formation))
            .sum();
        thermal + 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2])
    }

    /// Recovers the temperature from a conserved state by inverting Eq. 2
    /// (linear in `T` for calorically perfect species).
    pub fn temperature(&self, state: &MixtureState) -> f64 {
        let rho = self.density(&state.rho_s);
        let ke = 0.5
            * (state.mom[0] * state.mom[0]
                + state.mom[1] * state.mom[1]
                + state.mom[2] * state.mom[2])
            / rho;
        let formation: f64 = state
            .rho_s
            .iter()
            .zip(&self.species)
            .map(|(r, s)| r * s.h_formation)
            .sum();
        let rho_cv: f64 = state
            .rho_s
            .iter()
            .zip(&self.species)
            .map(|(r, s)| r * s.cv)
            .sum();
        (state.energy - ke - formation) / rho_cv
    }

    /// Full primitive recovery.
    pub fn to_primitive(&self, state: &MixtureState) -> MixturePrimitive {
        let rho = self.density(&state.rho_s);
        let vel = [
            state.mom[0] / rho,
            state.mom[1] / rho,
            state.mom[2] / rho,
        ];
        let t = self.temperature(state);
        let p = rho * self.r_mix(&state.rho_s) * t;
        MixturePrimitive {
            rho_s: state.rho_s.clone(),
            vel,
            p,
            t,
        }
    }

    /// Conserved state from primitives.
    pub fn from_primitive(&self, w: &MixturePrimitive) -> MixtureState {
        let rho = self.density(&w.rho_s);
        MixtureState {
            rho_s: w.rho_s.clone(),
            mom: [rho * w.vel[0], rho * w.vel[1], rho * w.vel[2]],
            energy: self.energy(&w.rho_s, w.vel, w.t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> GasMixture {
        GasMixture::dissociating_pair()
    }

    #[test]
    fn primitive_conserved_roundtrip() {
        let m = mix();
        let w = MixturePrimitive {
            rho_s: vec![0.8, 0.2],
            vel: [500.0, -100.0, 25.0],
            p: 0.0, // recomputed
            t: 2500.0,
        };
        let u = m.from_primitive(&w);
        let w2 = m.to_primitive(&u);
        assert!((w2.t - 2500.0).abs() < 1e-8, "T = {}", w2.t);
        for d in 0..3 {
            assert!((w2.vel[d] - w.vel[d]).abs() < 1e-9);
        }
        assert!(w2.p > 0.0);
    }

    #[test]
    fn mixture_properties_interpolate_between_pure_species() {
        let m = mix();
        let pure0 = m.r_mix(&[1.0, 0.0]);
        let pure1 = m.r_mix(&[0.0, 1.0]);
        let half = m.r_mix(&[0.5, 0.5]);
        assert!((pure0 - m.species[0].r_gas()).abs() < 1e-12);
        assert!((pure1 - m.species[1].r_gas()).abs() < 1e-12);
        assert!(pure0 < half && half < pure1);
    }

    #[test]
    fn formation_heat_is_invisible_to_temperature_roundtrip() {
        // Converting A2 into A at fixed T raises E by the formation heat;
        // temperature recovery must still return the same T.
        let m = mix();
        let t = 3000.0;
        let a = m.from_primitive(&MixturePrimitive {
            rho_s: vec![1.0, 0.0],
            vel: [0.0; 3],
            p: 0.0,
            t,
        });
        let b = m.from_primitive(&MixturePrimitive {
            rho_s: vec![0.0, 1.0],
            vel: [0.0; 3],
            p: 0.0,
            t,
        });
        assert!(b.energy > a.energy, "dissociation stores energy");
        assert!((m.temperature(&a) - t).abs() < 1e-9);
        assert!((m.temperature(&b) - t).abs() < 1e-9);
    }

    #[test]
    fn sound_speed_uses_mixture_gamma() {
        let m = mix();
        let a = m.sound_speed(&[1.0, 0.0], 300.0);
        // Diatomic-like: gamma ≈ (743+297)/743 ≈ 1.4.
        let g = m.gamma_mix(&[1.0, 0.0]);
        assert!((g - 1.4).abs() < 0.01, "gamma {g}");
        assert!((a - (g * m.species[0].r_gas() * 300.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn dissociation_at_constant_energy_cools_the_gas() {
        // Moving mass from A2 to A at fixed total energy consumes the
        // formation heat ⇒ lower temperature (endothermic).
        let m = mix();
        let base = m.from_primitive(&MixturePrimitive {
            rho_s: vec![1.0, 0.0],
            vel: [0.0; 3],
            p: 0.0,
            t: 5000.0,
        });
        let reacted = MixtureState {
            rho_s: vec![0.9, 0.1],
            mom: base.mom,
            energy: base.energy,
        };
        assert!(m.temperature(&reacted) < 5000.0);
    }
}
