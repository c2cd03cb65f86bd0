//! The kernel backend (`SolverConfig::kernel_backend`) must be
//! *observationally invisible*: the default plane-laned SIMD kernels
//! restructure the hot loops — direction-major scratch, lanes across the
//! plane orthogonal to the sweep — but never reassociate, reorder, or
//! contract a single per-cell operation, so the solution must match the
//! scalar reference **bitwise** — not merely close. (No ULP tolerance is
//! needed: the only scalar fallback, characteristic reconstruction, runs
//! the identical scalar code.)
//!
//! These tests run the compression-ramp configuration (sheared curvilinear
//! grid, two AMR levels, a regrid mid-run at `regrid_freq = 3`) under the
//! default backend against an explicitly named `BackendKind::Scalar` oracle
//! across the `overlap` × `nan_poison` matrix (under `--features fabcheck`
//! the sanitizer's checks run in every leg), plus an LES leg exercising the
//! laned viscous/SGS kernels. DESIGN.md §4h spells out why bitwise identity
//! holds; this suite is the end-to-end proof.

mod common;

use common::{ramp_builder, run_single as run_bits};
use crocco::solver::backend::BackendKind;
use crocco::solver::config::{CodeVersion, SolverConfig, SolverConfigBuilder};
use crocco::solver::problems::ProblemKind;
use proptest::prelude::*;

/// The oracle: `b` with the scalar per-point kernels named explicitly, so
/// the comparison cannot degenerate into the default against itself.
fn scalar(b: SolverConfigBuilder) -> SolverConfig {
    b.kernel_backend(BackendKind::Scalar).build()
}

/// The configuration under test: `b` as built, on the default backend.
fn default_backend(b: SolverConfigBuilder) -> SolverConfig {
    let cfg = b.build();
    assert_eq!(cfg.kernel_backend, BackendKind::Lanes, "the default is the lane kernels");
    cfg
}

#[test]
fn backends_match_scalar_bitwise_on_the_ramp() {
    // 4 steps crosses the regrid at step 3, so the kernels also run over
    // freshly regridded patches.
    let reference = run_bits(scalar(ramp_builder().threads(4)), 4);
    let got = run_bits(default_backend(ramp_builder().threads(4)), 4);
    assert_eq!(reference.len(), got.len());
    assert!(reference == got, "default backend diverged from scalar bitwise");
}

/// LES leg on the periodic vortex: the ramp's physical-BC fill leaves the
/// fourth ghost ring (which only the viscous kernel's `grow(4)` primitive
/// pass reads) unfilled, so LES rides the configuration `les_mode.rs`
/// already proves complete.
fn vortex_builder() -> SolverConfigBuilder {
    SolverConfig::builder()
        .problem(ProblemKind::IsentropicVortex)
        .extents(16, 16, 8)
        .version(CodeVersion::V2_0)
        .cfl(0.4)
}

#[test]
fn backends_match_scalar_bitwise_with_les() {
    // LES exercises the laned viscous + Smagorinsky kernels end to end.
    let reference = run_bits(scalar(vortex_builder().threads(2).les(0.16)), 4);
    let got = run_bits(default_backend(vortex_builder().threads(2).les(0.16)), 4);
    assert!(reference == got, "default backend diverged under LES");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn backends_compose_with_overlap_fabcheck_poison(
        overlap in any::<bool>(),
        nan_poison in any::<bool>(),
        steps in 3u32..5,
    ) {
        // The full composition matrix: the task-graph executor consumes the
        // backend through the same `accumulate_rhs` seam, the sanitizer's
        // aliasing proofs and ghost-epoch discipline must hold for the
        // restructured kernels, and poisoning must stay semantics-free.
        let composed = || {
            ramp_builder()
                .threads(4)
                .overlap(overlap)
                .nan_poison(nan_poison)
        };
        let reference = run_bits(scalar(composed()), steps);
        let got = run_bits(default_backend(composed()), steps);
        prop_assert_eq!(reference.len(), got.len());
        prop_assert!(
            reference == got,
            "default backend diverged (overlap={}, poison={})",
            overlap, nan_poison
        );
    }
}
