//! Integration test: checkpoint/restart continues a run bit-for-bit — the
//! property production campaigns on Summit rely on (jobs are chained through
//! the batch system).

use crocco::solver::config::{CodeVersion, SolverConfig};
use crocco::solver::driver::Simulation;
use crocco::solver::io::{
    parse_checkpoint, read_checkpoint, write_checkpoint, write_checkpoint_bytes,
};
use crocco::solver::problems::ProblemKind;
use crocco::solver::validation::l2_difference;

fn cfg(version: CodeVersion, levels: usize) -> SolverConfig {
    SolverConfig::builder()
        .problem(ProblemKind::SodX)
        .extents(48, 4, 4)
        .version(version)
        .max_levels(levels)
        .regrid_freq(4)
        .build()
}

#[test]
fn restart_continues_bit_for_bit_single_level() {
    let c = cfg(CodeVersion::V1_1, 1);
    // Reference: 10 straight steps.
    let mut reference = Simulation::new(c.clone());
    reference.advance_steps(10);

    // Candidate: 5 steps, checkpoint, restore, 5 more.
    let mut first = Simulation::new(c.clone());
    first.advance_steps(5);
    let path = std::env::temp_dir().join("crocco_restart_single.chk");
    write_checkpoint(&first, &path).unwrap();
    let chk = read_checkpoint(&path).unwrap();
    let mut resumed = Simulation::from_checkpoint(c, &chk);
    assert_eq!(resumed.step_count(), 5);
    assert_eq!(resumed.time(), first.time());
    resumed.advance_steps(5);

    assert_eq!(resumed.step_count(), reference.step_count());
    assert_eq!(resumed.time(), reference.time());
    for (c_idx, d) in l2_difference(&reference, &resumed).iter().enumerate() {
        assert_eq!(*d, 0.0, "component {c_idx} diverged after restart");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn restart_preserves_amr_hierarchy() {
    let c = cfg(CodeVersion::V2_1, 2);
    let mut first = Simulation::new(c.clone());
    first.advance_steps(3);
    let boxes_before: Vec<_> = (0..first.nlevels())
        .map(|l| first.hierarchy().level(l).ba.boxes().to_vec())
        .collect();
    let path = std::env::temp_dir().join("crocco_restart_amr.chk");
    write_checkpoint(&first, &path).unwrap();
    let chk = read_checkpoint(&path).unwrap();
    let resumed = Simulation::from_checkpoint(c, &chk);
    assert_eq!(resumed.nlevels(), first.nlevels());
    for (l, boxes) in boxes_before.iter().enumerate() {
        assert_eq!(
            resumed.hierarchy().level(l).ba.boxes(),
            &boxes[..],
            "level {l} grids changed across restart"
        );
    }
    for (c_idx, d) in l2_difference(&first, &resumed).iter().enumerate() {
        assert_eq!(*d, 0.0, "component {c_idx} corrupted by restart");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn amr_run_restarts_and_keeps_marching() {
    let c = cfg(CodeVersion::V2_1, 2);
    let mut reference = Simulation::new(c.clone());
    reference.advance_steps(8); // crosses a regrid at step 4

    let mut first = Simulation::new(c.clone());
    first.advance_steps(4);
    let path = std::env::temp_dir().join("crocco_restart_march.chk");
    write_checkpoint(&first, &path).unwrap();
    let chk = read_checkpoint(&path).unwrap();
    let mut resumed = Simulation::from_checkpoint(c, &chk);
    resumed.advance_steps(4);

    assert!(!resumed.has_nonfinite());
    assert_eq!(resumed.step_count(), reference.step_count());
    // Same physical time and bitwise-equal fields (regrids are deterministic
    // functions of the state).
    assert_eq!(resumed.time(), reference.time());
    for (c_idx, d) in l2_difference(&reference, &resumed).iter().enumerate() {
        assert_eq!(*d, 0.0, "component {c_idx} diverged after regrid+restart");
    }
    std::fs::remove_file(path).ok();
}

/// Format stability across the CRC-kernel and serialiser rewrite: a 2-level
/// AMR checkpoint written by the commit before it (PR 17, `4bb967f`; 3 steps
/// of the Sod tube below) still passes its seal, restores, and re-serialises
/// to the very same bytes — header, row order of every body, trailer.
#[test]
fn checkpoint_written_by_the_previous_commit_restores_bitwise() {
    let golden: &[u8] = include_bytes!("data/pr17_sod_amr.chk");
    let c = SolverConfig::builder()
        .problem(ProblemKind::SodX)
        .extents(32, 4, 4)
        .version(CodeVersion::V2_1)
        .max_levels(2)
        .regrid_freq(4)
        .build();
    let chk = parse_checkpoint(golden).expect("the old checkpoint passes its whole-file CRC");
    assert_eq!((chk.step, chk.levels.len()), (3, 2));
    assert_eq!(chk.time.to_bits(), 0.0094395521512261f64.to_bits());
    let mut resumed = Simulation::from_checkpoint(c, &chk);
    assert_eq!(write_checkpoint_bytes(&resumed), golden);
    resumed.advance_steps(2); // crosses the regrid at step 4
    assert!(!resumed.has_nonfinite());
}
