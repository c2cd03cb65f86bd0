//! `AverageDown`: restrict covered coarse cells to the mean of their fine
//! children (Algorithm 2, line 11 of the paper).

use crocco_fab::exchange::{exchange, pack_chunk, unpack_chunk, Layout};
use crocco_fab::{with_rw, FArrayBox, MultiFab};
use crocco_geometry::{IndexBox, IntVect};
use crocco_runtime::cluster::CommError;
use crocco_runtime::GroupEndpoint;

/// Sets every coarse cell covered by the fine level to the arithmetic mean of
/// its `ratio³` covering fine cells, for every component.
pub fn average_down(fine: &MultiFab, coarse: &mut MultiFab, ratio: IntVect) {
    assert_eq!(fine.ncomp(), coarse.ncomp());
    let ncomp = fine.ncomp();
    let inv = 1.0 / (ratio[0] * ratio[1] * ratio[2]) as f64;
    for j in 0..fine.nfabs() {
        let fbox = fine.valid_box(j);
        let cfoot = fbox.coarsen(ratio);
        for (i, overlap) in coarse.boxarray().intersections(cfoot) {
            let ffab = fine.fab(j);
            restrict_into(ffab, fbox, coarse.fab_mut(i), overlap, ratio, ncomp, inv);
        }
    }
}

/// The per-chunk restriction kernel shared by the replicated and owned
/// paths: writes the mean of each coarse cell's `ratio³` children into
/// `cfab` over `overlap` (a subset of `fbox.coarsen(ratio)`).
fn restrict_into(
    ffab: &FArrayBox,
    fbox: IndexBox,
    cfab: &mut FArrayBox,
    overlap: IndexBox,
    ratio: IntVect,
    ncomp: usize,
    inv: f64,
) {
    for cp in overlap.cells() {
        let children = IndexBox::new(cp, cp).refine(ratio).intersection(&fbox);
        debug_assert_eq!(
            children.num_points(),
            (ratio[0] * ratio[1] * ratio[2]) as u64,
            "fine boxes must be ratio-aligned"
        );
        for c in 0..ncomp {
            let sum: f64 = children.cells().map(|p| ffab.get(p, c)).sum();
            cfab.set(cp, c, sum * inv);
        }
    }
}

/// [`average_down`] for owned-data MultiFabs on a cluster: the fine owner of
/// each restriction chunk computes the child means locally and ships only
/// the restricted coarse cells to the coarse owner, one message per peer.
///
/// Every group member enumerates the identical chunk list (fine patch outer,
/// `coarse.boxarray().intersections` inner — the exact loop order of the
/// replicated [`average_down`]), so every rank derives the same layout. A
/// remote chunk is restricted into a scratch fab by the same kernel as a
/// local one and travels as a [`pack_chunk`] payload, so the coarse result
/// is bitwise-identical to the replicated restriction. Chunks whose fine
/// and coarse owner coincide never touch the wire.
///
/// `tag` is the round's tag ([`crocco_runtime::tags::round`]). A detected
/// fault surfaces as a typed [`CommError`].
pub fn average_down_dist(
    fine: &MultiFab,
    coarse: &mut MultiFab,
    ratio: IntVect,
    ep: &GroupEndpoint<'_>,
    tag: u64,
) -> Result<(), CommError> {
    assert_eq!(fine.ncomp(), coarse.ncomp());
    let ncomp = fine.ncomp();
    let inv = 1.0 / (ratio[0] * ratio[1] * ratio[2]) as f64;
    let rank = ep.rank();

    // Chunk enumeration: deterministic and identical on every rank, since
    // it reads only replicated metadata.
    let chunks: Vec<(usize, usize, IndexBox)> = (0..fine.nfabs())
        .flat_map(|j| {
            let cfoot = fine.valid_box(j).coarsen(ratio);
            coarse
                .boxarray()
                .intersections(cfoot)
                .into_iter()
                .map(move |(i, overlap)| (j, i, overlap))
        })
        .collect();
    let (fine_dm, coarse_dm) = (fine.distribution(), coarse.distribution().clone());
    let layout = Layout::new(
        rank,
        chunks.iter().enumerate().map(|(k, &(j, i, overlap))| {
            let bytes = overlap.num_points() as usize * ncomp * 8;
            (k, fine_dm.owner(j), coarse_dm.owner(i), bytes)
        }),
    );
    let restrict = |j: usize, cfab: &mut FArrayBox, overlap: IndexBox| {
        restrict_into(fine.fab(j), fine.valid_box(j), cfab, overlap, ratio, ncomp, inv);
    };
    let landed = exchange(ep, &layout, tag, &mut |k, out| {
        let (j, _, overlap) = chunks[k];
        let mut restricted = FArrayBox::new(overlap, ncomp);
        restrict(j, &mut restricted, overlap);
        pack_chunk(&restricted, overlap, IntVect::ZERO, ncomp, out);
    })?;

    // Apply in chunk order: local restriction for chunks whose fine source
    // is owned here, landed bytes for the rest. Chunk write regions are
    // pairwise disjoint (fine valid boxes are disjoint and ratio-aligned),
    // so application order cannot change the result.
    for (k, &(j, i, overlap)) in chunks.iter().enumerate() {
        if coarse_dm.owner(i) != rank {
            continue;
        }
        match landed.get(k) {
            Some(bytes) => with_rw(coarse.fab_mut(i), |rw| unpack_chunk(rw, overlap, ncomp, bytes)),
            None => restrict(j, coarse.fab_mut(i), overlap),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_fab::{BoxArray, DistributionMapping};
    use std::sync::Arc;

    fn mf(boxes: Vec<IndexBox>, ncomp: usize) -> MultiFab {
        let ba = Arc::new(BoxArray::new(boxes));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        MultiFab::new(ba, dm, ncomp, 0)
    }

    #[test]
    fn constant_field_restricts_to_itself() {
        let mut coarse = mf(vec![IndexBox::from_extents(8, 8, 8)], 2);
        let mut fine = mf(
            vec![IndexBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11))],
            2,
        );
        fine.set_val(7.0);
        coarse.set_val(1.0);
        average_down(&fine, &mut coarse, IntVect::splat(2));
        // Covered coarse cells (2..5)³ become 7, others stay 1.
        assert_eq!(coarse.fab(0).get(IntVect::new(3, 3, 3), 0), 7.0);
        assert_eq!(coarse.fab(0).get(IntVect::new(0, 0, 0), 0), 1.0);
        assert_eq!(coarse.fab(0).get(IntVect::new(3, 3, 3), 1), 7.0);
    }

    #[test]
    fn linear_field_restricts_exactly() {
        // The mean of a linear field over the 8 children equals its value at
        // the coarse center: average_down must be exact.
        let mut coarse = mf(vec![IndexBox::from_extents(4, 4, 4)], 1);
        let mut fine = mf(vec![IndexBox::from_extents(8, 8, 8)], 1);
        let f = |p: IntVect, s: f64| {
            3.0 * (p[0] as f64 + 0.5) / s - 2.0 * (p[1] as f64 + 0.5) / s
                + 0.25 * (p[2] as f64 + 0.5) / s
        };
        for p in fine.valid_box(0).cells() {
            let v = f(p, 2.0);
            fine.fab_mut(0).set(p, 0, v);
        }
        average_down(&fine, &mut coarse, IntVect::splat(2));
        for p in coarse.valid_box(0).cells() {
            let expect = f(p, 1.0);
            assert!((coarse.fab(0).get(p, 0) - expect).abs() < 1e-13);
        }
    }

    #[test]
    fn conservation_of_totals_over_covered_region() {
        let mut coarse = mf(vec![IndexBox::from_extents(4, 4, 4)], 1);
        let mut fine = mf(vec![IndexBox::from_extents(8, 8, 8)], 1);
        // Random-ish fine data.
        for (i, p) in fine.valid_box(0).cells().enumerate() {
            fine.fab_mut(0).set(p, 0, (i as f64 * 0.37).sin());
        }
        average_down(&fine, &mut coarse, IntVect::splat(2));
        let fine_total = fine.sum(0);
        let coarse_total = coarse.sum(0) * 8.0; // coarse cells are 8× larger
        assert!((fine_total - coarse_total).abs() < 1e-10);
    }

    /// Distributed restriction over owned MultiFabs reproduces the
    /// replicated restriction bitwise on every owned coarse patch, with the
    /// fine and coarse levels distributed differently so chunks cross ranks.
    #[test]
    fn distributed_average_down_matches_replicated_bitwise() {
        use crocco_fab::DistributionStrategy;
        use crocco_runtime::{tags, LocalCluster};

        let nranks = 2usize;
        let coarse_boxes = vec![
            IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7)),
            IndexBox::new(IntVect::new(8, 0, 0), IntVect::new(15, 7, 7)),
        ];
        let fine_boxes = vec![
            IndexBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
            IndexBox::new(IntVect::new(12, 4, 4), IntVect::new(19, 11, 11)),
        ];
        let cba = Arc::new(BoxArray::new(coarse_boxes));
        let cdm = Arc::new(DistributionMapping::new(
            &cba,
            nranks,
            DistributionStrategy::RoundRobin,
        ));
        let fba = Arc::new(BoxArray::new(fine_boxes));
        let fdm = Arc::new(DistributionMapping::new(
            &fba,
            nranks,
            DistributionStrategy::MortonSfc,
        ));
        let fill = |mf: &mut MultiFab| {
            for i in 0..mf.nfabs() {
                if !mf.is_allocated(i) {
                    continue;
                }
                let b = mf.valid_box(i);
                for p in b.cells() {
                    let v = ((p[0] * 31 + p[1] * 7 + p[2]) as f64 * 0.37).sin();
                    mf.fab_mut(i).set(p, 0, v);
                }
            }
        };

        let mut oracle_fine = MultiFab::new(fba.clone(), fdm.clone(), 1, 0);
        fill(&mut oracle_fine);
        let mut oracle_coarse = MultiFab::new(cba.clone(), cdm.clone(), 1, 0);
        oracle_coarse.set_val(-1.0);
        average_down(&oracle_fine, &mut oracle_coarse, IntVect::splat(2));

        let results = LocalCluster::run(nranks, |ep| {
            let gep = GroupEndpoint::full(&ep);
            let rank = gep.rank();
            let mut fine = MultiFab::new_owned(fba.clone(), fdm.clone(), 1, 0, rank);
            fill(&mut fine);
            let mut coarse = MultiFab::new_owned(cba.clone(), cdm.clone(), 1, 0, rank);
            for i in 0..coarse.nfabs() {
                if coarse.is_allocated(i) {
                    coarse.fab_mut(i).fill(-1.0);
                }
            }
            average_down_dist(&fine, &mut coarse, IntVect::splat(2), &gep, tags::round(0, 5))
                .expect("fault-free restriction");
            coarse
        });
        for (rank, coarse) in results.iter().enumerate() {
            for i in 0..coarse.nfabs() {
                if coarse.is_allocated(i) {
                    assert_eq!(
                        coarse.fab(i).data(),
                        oracle_coarse.fab(i).data(),
                        "rank {rank} coarse patch {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_coverage_touches_only_covered_cells() {
        let mut coarse = mf(vec![IndexBox::from_extents(8, 8, 8)], 1);
        let mut fine = mf(
            vec![IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 7, 7))],
            1,
        );
        fine.set_val(5.0);
        coarse.set_val(-1.0);
        average_down(&fine, &mut coarse, IntVect::splat(2));
        for p in coarse.valid_box(0).cells() {
            let covered = p.all_lt(IntVect::new(4, 4, 4)) && IntVect::ZERO.all_le(p);
            let expect = if covered { 5.0 } else { -1.0 };
            assert_eq!(coarse.fab(0).get(p, 0), expect, "{p:?}");
        }
    }
}
