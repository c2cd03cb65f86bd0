//! Integration test: the real threaded message-passing runtime carries a
//! ghost exchange whose result matches the single-process `FillBoundary` —
//! proving the exchange engine's pack → one message per peer → decode →
//! unpack path end to end across the `runtime`, `fab`, and `geometry` crates.

use crocco::fab::{redistribute, BoxArray, DistributionMapping, DistributionStrategy, MultiFab};
use crocco::geometry::{decompose::ChopParams, IndexBox, ProblemDomain};
use crocco::runtime::{tags, GroupEndpoint, LocalCluster};
use std::sync::Arc;

#[test]
fn threaded_cluster_ghost_exchange_matches_fill_boundary() {
    const NRANKS: usize = 4;
    const NCOMP: usize = 2;
    const NGHOST: i64 = 2;
    let domain_box = IndexBox::from_extents(16, 16, 8);
    let domain = ProblemDomain::new(domain_box, [false, false, true]);
    let ba = Arc::new(BoxArray::decompose(domain_box, ChopParams::new(4, 8)));
    let dm = Arc::new(DistributionMapping::new(
        &ba,
        NRANKS,
        DistributionStrategy::MortonSfc,
    ));

    let fill_valid = |mf: &mut MultiFab| {
        let owned: Vec<usize> = (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)).collect();
        for i in owned {
            for p in mf.valid_box(i).cells() {
                for c in 0..NCOMP {
                    let v = (p[0] + 37 * p[1] + 1369 * p[2]) as f64 + 0.5 * c as f64;
                    mf.fab_mut(i).set(p, c, v);
                }
            }
        }
    };

    // Reference: single-process FillBoundary.
    let mut reference = MultiFab::new(ba.clone(), dm.clone(), NCOMP, NGHOST);
    fill_valid(&mut reference);
    let plan = reference.fill_boundary(&domain);

    // Distributed: each rank allocates only its patches and executes the
    // same plan over real channels, reading valid cells out of a copy.
    let results = LocalCluster::run(NRANKS, |ep| {
        let gep = GroupEndpoint::full(&ep);
        let mut mf = MultiFab::new_owned(ba.clone(), dm.clone(), NCOMP, NGHOST, gep.rank());
        fill_valid(&mut mf);
        let tag = tags::round(0, 0);
        redistribute(&mf.clone(), &mut mf, &plan, &gep, tag).expect("fault-free exchange");
        mf
    });

    // Compare every ghost cell against the single-process reference.
    for (rank, mf) in results.iter().enumerate() {
        for i in (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)) {
            assert_eq!(dm.owner(i), rank);
            for p in reference.valid_box(i).grow(NGHOST).cells() {
                for c in 0..NCOMP {
                    let (got, want) = (mf.fab(i).get(p, c), reference.fab(i).get(p, c));
                    assert_eq!(got, want, "patch {i} cell {p:?} comp {c}");
                }
            }
        }
    }
}
