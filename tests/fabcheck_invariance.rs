//! The fabcheck sanitizer must be *observationally invisible*: turning the
//! `fabcheck`/`nan_poison` knobs on may only trap bugs, never perturb a
//! correct solution. These properties run the compression-ramp configuration
//! (the curvilinear case from `examples/compression_ramp.rs`, shrunk) twice
//! and demand bitwise-identical state — not merely close. The test is
//! meaningful in every build: with the `fabcheck` cargo feature the poisoned
//! allocations and epoch checks are live; without it the knobs must be inert
//! by construction.

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
            ramp_builder().cfl(cfl).fabcheck(true).nan_poison(true).build(),
            steps,
        );
        prop_assert_eq!(plain.len(), poisoned.len());
        prop_assert!(plain == poisoned, "poisoned run diverged bitwise");
    }

    #[test]
    fn sanitizer_toggle_is_bitwise_invisible(
        steps in 3u32..5,
    ) {
        let off = run_single(ramp_builder().fabcheck(false).build(), steps);
        let on = run_single(ramp_builder().fabcheck(true).build(), steps);
        prop_assert!(off == on, "fabcheck toggle changed results");
    }
}
