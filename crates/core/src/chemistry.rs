//! Finite-rate chemistry: the production terms `w_s` of Eq. 1.
//!
//! Law-of-mass-action kinetics with Arrhenius rate coefficients, plus a
//! constant-volume reactor integrator (built on the solver's own low-storage
//! schemes) that demonstrates the coupling CRoCCo uses for
//! "chemically-reacting hypersonic flows". Total mass and total energy are
//! conserved identically by construction — the formation enthalpies in Eq. 2
//! turn reaction progress into temperature change without an explicit energy
//! source term.

use crate::integrators::TimeScheme;
use crate::species::{GasMixture, MixtureState};

/// Arrhenius rate coefficient `k(T) = A · T^β · exp(−T_a / T)`.
#[derive(Clone, Copy, Debug)]
pub struct Arrhenius {
    /// Pre-exponential factor (mol, m³, s units as implied by the order).
    pub a: f64,
    /// Temperature exponent β.
    pub beta: f64,
    /// Activation temperature `T_a = E_a / R_u` (K).
    pub t_activation: f64,
}

impl Arrhenius {
    /// Evaluates `k(T)`.
    pub fn rate(&self, t: f64) -> f64 {
        self.a * t.powf(self.beta) * (-self.t_activation / t).exp()
    }
}

/// One elementary reaction with integer stoichiometry.
#[derive(Clone, Debug)]
pub struct Reaction {
    /// Reactant stoichiometric coefficients ν′ per species.
    pub nu_reactants: Vec<u32>,
    /// Product stoichiometric coefficients ν″ per species.
    pub nu_products: Vec<u32>,
    /// Forward rate.
    pub forward: Arrhenius,
    /// Optional reverse rate (None = irreversible).
    pub reverse: Option<Arrhenius>,
}

/// A reaction mechanism over a mixture.
#[derive(Clone, Debug)]
pub struct Mechanism {
    /// The mixture the mechanism acts on.
    pub mixture: GasMixture,
    /// Elementary reactions.
    pub reactions: Vec<Reaction>,
}

impl Mechanism {
    /// The toy dissociation mechanism `A₂ ⇌ 2A` on
    /// [`GasMixture::dissociating_pair`], with rates scaled so interesting
    /// progress happens in microseconds at ~5000 K.
    pub fn dissociation() -> Self {
        Mechanism {
            mixture: GasMixture::dissociating_pair(),
            reactions: vec![Reaction {
                nu_reactants: vec![1, 0],
                nu_products: vec![0, 2],
                forward: Arrhenius {
                    a: 5.0e9,
                    beta: 0.0,
                    t_activation: 5.0e4,
                },
                reverse: Some(Arrhenius {
                    a: 5.0e2,
                    beta: 0.0,
                    t_activation: 0.0,
                }),
            }],
        }
    }

    /// Mass production rates `w_s` (kg/m³/s) from partial densities and
    /// temperature: law of mass action on molar concentrations
    /// `[X_s] = ρ_s / M_s`.
    pub fn production_rates(&self, rho_s: &[f64], t: f64) -> Vec<f64> {
        let ns = self.mixture.ns();
        let conc: Vec<f64> = rho_s
            .iter()
            .zip(&self.mixture.species)
            .map(|(r, s)| (r / s.molar_mass).max(0.0))
            .collect();
        let mut wdot_molar = vec![0.0; ns]; // mol/m³/s
        for rx in &self.reactions {
            let mut qf = rx.forward.rate(t);
            for (s, &nu) in rx.nu_reactants.iter().enumerate() {
                qf *= conc[s].powi(nu as i32);
            }
            let mut qr = 0.0;
            if let Some(rev) = &rx.reverse {
                qr = rev.rate(t);
                for (s, &nu) in rx.nu_products.iter().enumerate() {
                    qr *= conc[s].powi(nu as i32);
                }
            }
            let q = qf - qr;
            for ((w, &np), &nr) in wdot_molar
                .iter_mut()
                .zip(&rx.nu_products)
                .zip(&rx.nu_reactants)
            {
                *w += (np as f64 - nr as f64) * q;
            }
        }
        wdot_molar
            .iter()
            .zip(&self.mixture.species)
            .map(|(w, s)| w * s.molar_mass)
            .collect()
    }

    /// `true` if every reaction conserves mass (`Σ ν′ M = Σ ν″ M`).
    pub fn conserves_mass(&self) -> bool {
        self.reactions.iter().all(|rx| {
            let lhs: f64 = rx
                .nu_reactants
                .iter()
                .zip(&self.mixture.species)
                .map(|(&n, s)| n as f64 * s.molar_mass)
                .sum();
            let rhs: f64 = rx
                .nu_products
                .iter()
                .zip(&self.mixture.species)
                .map(|(&n, s)| n as f64 * s.molar_mass)
                .sum();
            (lhs - rhs).abs() < 1e-12
        })
    }

    /// Advances a constant-volume adiabatic reactor by `dt` using a 2N
    /// scheme: only the partial densities change; momentum and total energy
    /// are invariant (Eq. 2 absorbs the heat release), so temperature is
    /// re-derived from the state each stage.
    pub fn reactor_step(&self, state: &mut MixtureState, dt: f64, scheme: TimeScheme) {
        let ns = self.mixture.ns();
        let mut du = vec![0.0; ns];
        for s in 0..scheme.stages() {
            let t = self.mixture.temperature(state);
            let w = self.production_rates(&state.rho_s, t);
            for i in 0..ns {
                du[i] = scheme.a(s) * du[i] + dt * w[i];
                state.rho_s[i] += scheme.b(s) * du[i];
            }
        }
    }
}

/// Equilibrium constant direction helper: the net molar rate of reaction 0
/// at the given state (diagnostics for tests).
pub fn net_rate(mech: &Mechanism, rho_s: &[f64], t: f64) -> f64 {
    let w = mech.production_rates(rho_s, t);
    // Species 1 (product) production in molar units.
    w[1] / mech.mixture.species[1].molar_mass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::MixturePrimitive;

    #[test]
    fn mechanism_conserves_mass_by_construction() {
        let m = Mechanism::dissociation();
        assert!(m.conserves_mass());
        // Pointwise: Σ w_s = 0 for any state.
        let w = m.production_rates(&[0.7, 0.3], 4000.0);
        assert!((w[0] + w[1]).abs() < 1e-10 * w[1].abs().max(1e-30));
    }

    #[test]
    fn hot_gas_dissociates_cold_gas_recombines() {
        let m = Mechanism::dissociation();
        // Hot, mostly molecular: net dissociation (w_A > 0).
        let w_hot = m.production_rates(&[1.0, 0.01], 6000.0);
        assert!(w_hot[1] > 0.0, "hot gas must dissociate: {w_hot:?}");
        // Cold, mostly atomic: net recombination (w_A < 0).
        let w_cold = m.production_rates(&[0.01, 1.0], 300.0);
        assert!(w_cold[1] < 0.0, "cold gas must recombine: {w_cold:?}");
    }

    #[test]
    fn reactor_conserves_mass_and_energy_and_cools() {
        let m = Mechanism::dissociation();
        let mut state = m.mixture.from_primitive(&MixturePrimitive {
            rho_s: vec![1.0, 1e-6],
            vel: [0.0; 3],
            p: 0.0,
            t: 6000.0,
        });
        let mass0 = m.mixture.density(&state.rho_s);
        let e0 = state.energy;
        let t0 = m.mixture.temperature(&state);
        for _ in 0..2000 {
            m.reactor_step(&mut state, 1e-9, TimeScheme::Rk3Williamson);
        }
        let mass1 = m.mixture.density(&state.rho_s);
        let t1 = m.mixture.temperature(&state);
        assert!(((mass1 - mass0) / mass0).abs() < 1e-12, "mass drift");
        assert_eq!(state.energy, e0, "reactor is adiabatic by construction");
        assert!(state.rho_s[1] > 1e-4, "dissociation must progress");
        assert!(t1 < t0, "endothermic dissociation must cool: {t0} -> {t1}");
        assert!(state.rho_s.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn reactor_approaches_a_steady_composition() {
        let m = Mechanism::dissociation();
        let mut state = m.mixture.from_primitive(&MixturePrimitive {
            rho_s: vec![0.5, 0.5],
            vel: [0.0; 3],
            p: 0.0,
            t: 5000.0,
        });
        let mut last_change = f64::INFINITY;
        let mut prev = state.rho_s[1];
        for _ in 0..50 {
            for _ in 0..400 {
                m.reactor_step(&mut state, 1e-9, TimeScheme::Rk3Williamson);
            }
            last_change = (state.rho_s[1] - prev).abs();
            prev = state.rho_s[1];
        }
        assert!(
            last_change < 1e-5,
            "composition still moving by {last_change}"
        );
        // At the steady state the net rate is ~zero.
        let t = m.mixture.temperature(&state);
        let q = net_rate(&m, &state.rho_s, t);
        let q0 = net_rate(&m, &[1.0, 1e-6], 6000.0);
        assert!(q.abs() < 1e-3 * q0.abs(), "net rate {q} vs initial {q0}");
    }

    #[test]
    fn arrhenius_rate_grows_with_temperature() {
        let k = Arrhenius {
            a: 1.0,
            beta: 0.0,
            t_activation: 1e4,
        };
        assert!(k.rate(2000.0) > k.rate(1000.0));
        assert!(k.rate(300.0) > 0.0);
    }
}
