//! The fabcheck sanitizer must be *observationally invisible*: turning the
//! `nan_poison` knob on may only trap bugs, never perturb a correct
//! solution. This property runs the compression-ramp configuration (the
//! curvilinear case from `examples/compression_ramp.rs`, shrunk) twice and
//! demands bitwise-identical state — not merely close. The test is
//! meaningful in every build: with the `fabcheck` cargo feature the poisoned
//! allocations and the plan-alias proofs are live (the feature alone decides
//! the latter); without it the knob must be inert by construction.

mod common;

use common::{ramp_builder, run_single};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn nan_poisoning_is_bitwise_invisible_on_the_ramp(
        cfl in prop::sample::select(vec![0.4f64, 0.5]),
        steps in 3u32..5,
    ) {
        let plain = run_single(ramp_builder().cfl(cfl).build(), steps);
        let poisoned = run_single(
            ramp_builder().cfl(cfl).nan_poison(true).build(),
            steps,
        );
        prop_assert_eq!(plain.len(), poisoned.len());
        prop_assert!(plain == poisoned, "poisoned run diverged bitwise");
    }
}
