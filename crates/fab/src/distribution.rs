//! `DistributionMapping`: box → rank ownership.

use crate::boxarray::BoxArray;
use crocco_geometry::morton;

/// How boxes are assigned to ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistributionStrategy {
    /// Boxes are dealt to ranks in listed order, one at a time.
    RoundRobin,
    /// Boxes are sorted along the Z-Morton space-filling curve and the curve
    /// is sliced into per-rank segments of approximately equal cell counts —
    /// the default AMReX balancer the paper uses (§III-B).
    MortonSfc,
    /// Greedy knapsack: heaviest box goes to the currently lightest rank.
    /// Better balance, worse locality — an AMReX option kept for the
    /// load-balancing ablation.
    Knapsack,
}

/// The ownership map of one level: which rank owns each box (AMReX
/// `DistributionMapping`). Load balancing is carried out per level,
/// independently and in sequence, exactly as described in §III-B.
#[derive(Clone, Debug)]
pub struct DistributionMapping {
    owners: Vec<usize>,
    nranks: usize,
    /// Identity token (see [`BoxArray::id`]): shared by clones, fresh per
    /// construction, part of the communication-plan cache key.
    id: u64,
}

impl PartialEq for DistributionMapping {
    fn eq(&self, other: &Self) -> bool {
        self.owners == other.owners && self.nranks == other.nranks
    }
}

impl DistributionMapping {
    /// Builds an ownership map for `ba` over `nranks` ranks.
    pub fn new(ba: &BoxArray, nranks: usize, strategy: DistributionStrategy) -> Self {
        assert!(nranks > 0);
        let owners = match strategy {
            DistributionStrategy::RoundRobin => {
                (0..ba.len()).map(|i| i % nranks).collect::<Vec<_>>()
            }
            DistributionStrategy::MortonSfc => sfc_assign(ba, nranks),
            DistributionStrategy::Knapsack => knapsack_assign(ba, nranks),
        };
        DistributionMapping {
            owners,
            nranks,
            id: crate::boxarray::next_identity(),
        }
    }

    /// Ownership map placing every box on rank 0 (serial runs and tests).
    pub fn all_on_root(ba: &BoxArray) -> Self {
        DistributionMapping {
            owners: vec![0; ba.len()],
            nranks: 1,
            id: crate::boxarray::next_identity(),
        }
    }

    /// The identity token, keying cached communication plans.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rank owning box `i`.
    #[inline]
    pub fn owner(&self, i: usize) -> usize {
        self.owners[i]
    }

    /// Number of ranks this map was built for.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// All owners, indexed by box id.
    pub fn owners(&self) -> &[usize] {
        &self.owners
    }

    /// Per-rank total cell counts for `ba`.
    pub fn rank_loads(&self, ba: &BoxArray) -> Vec<u64> {
        let mut loads = vec![0u64; self.nranks];
        for (i, &r) in self.owners.iter().enumerate() {
            loads[r] += ba.get(i).num_points();
        }
        loads
    }

    /// Load imbalance: max rank load over mean rank load (1.0 is perfect).
    pub fn imbalance(&self, ba: &BoxArray) -> f64 {
        let loads = self.rank_loads(ba);
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Z-Morton SFC assignment: order boxes by the Morton key of their low
/// corner, then slice the curve into contiguous chunks of ~equal cell counts.
fn sfc_assign(ba: &BoxArray, nranks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ba.len()).collect();
    order.sort_by_key(|&i| morton::box_key(ba.get(i).lo()));
    let total: u64 = ba.num_points();
    let per_rank = (total as f64 / nranks as f64).max(1.0);
    let mut owners = vec![0usize; ba.len()];
    let mut acc = 0u64;
    for &i in &order {
        // Rank for the *start* of this box along the curve.
        let r = ((acc as f64 / per_rank) as usize).min(nranks - 1);
        owners[i] = r;
        acc += ba.get(i).num_points();
    }
    owners
}

/// Greedy knapsack: sort boxes by descending weight, assign each to the rank
/// with the least accumulated load.
fn knapsack_assign(ba: &BoxArray, nranks: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ba.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ba.get(i).num_points()));
    let mut loads = vec![0u64; nranks];
    let mut owners = vec![0usize; ba.len()];
    for &i in &order {
        let r = (0..nranks).min_by_key(|&r| loads[r]).unwrap();
        owners[i] = r;
        loads[r] += ba.get(i).num_points();
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_geometry::{decompose::ChopParams, IndexBox};

    fn uniform_ba() -> BoxArray {
        BoxArray::decompose(IndexBox::from_extents(64, 64, 64), ChopParams::new(8, 16))
    }

    #[test]
    fn round_robin_covers_all_ranks() {
        let ba = uniform_ba();
        let dm = DistributionMapping::new(&ba, 8, DistributionStrategy::RoundRobin);
        for r in 0..8 {
            assert!(dm.owners().contains(&r));
        }
        assert_eq!(dm.owners().len(), ba.len());
    }

    #[test]
    fn sfc_balances_uniform_grid_nearly_perfectly() {
        let ba = uniform_ba(); // 64 equal boxes
        let dm = DistributionMapping::new(&ba, 8, DistributionStrategy::MortonSfc);
        assert!(dm.imbalance(&ba) < 1.01, "imbalance {}", dm.imbalance(&ba));
    }

    #[test]
    fn sfc_assigns_contiguous_curve_segments() {
        let ba = uniform_ba();
        let dm = DistributionMapping::new(&ba, 4, DistributionStrategy::MortonSfc);
        // Walk the curve: rank ids must be non-decreasing.
        let mut order: Vec<usize> = (0..ba.len()).collect();
        order.sort_by_key(|&i| morton::box_key(ba.get(i).lo()));
        let ranks: Vec<usize> = order.iter().map(|&i| dm.owner(i)).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
    }

    #[test]
    fn knapsack_beats_round_robin_on_skewed_boxes() {
        // Mixed box sizes: 1 big + several small.
        use crocco_geometry::IntVect;
        let boxes = vec![
            IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(31, 31, 31)),
            IndexBox::new(IntVect::new(32, 0, 0), IntVect::new(39, 7, 7)),
            IndexBox::new(IntVect::new(32, 8, 0), IntVect::new(39, 15, 7)),
            IndexBox::new(IntVect::new(32, 16, 0), IntVect::new(39, 23, 7)),
            IndexBox::new(IntVect::new(32, 24, 0), IntVect::new(39, 31, 7)),
        ];
        let ba = BoxArray::new(boxes);
        let rr = DistributionMapping::new(&ba, 2, DistributionStrategy::RoundRobin);
        let ks = DistributionMapping::new(&ba, 2, DistributionStrategy::Knapsack);
        assert!(ks.imbalance(&ba) <= rr.imbalance(&ba));
    }

    #[test]
    fn loads_sum_to_total() {
        let ba = uniform_ba();
        for strat in [
            DistributionStrategy::RoundRobin,
            DistributionStrategy::MortonSfc,
            DistributionStrategy::Knapsack,
        ] {
            let dm = DistributionMapping::new(&ba, 6, strat);
            let loads = dm.rank_loads(&ba);
            assert_eq!(loads.iter().sum::<u64>(), ba.num_points());
        }
    }

    #[test]
    fn more_ranks_than_boxes_is_fine() {
        let ba = BoxArray::new(vec![IndexBox::from_extents(8, 8, 8)]);
        let dm = DistributionMapping::new(&ba, 16, DistributionStrategy::MortonSfc);
        assert_eq!(dm.owner(0), 0);
        assert_eq!(dm.nranks(), 16);
    }
}
