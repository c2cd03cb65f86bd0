//! Communication plans: the exact data-motion behind `FillBoundary` and
//! `ParallelCopy`.
//!
//! The paper's scaling analysis (§VI-B/§VI-C, Figs. 5–7) hinges on *which*
//! messages these two operations generate: `FillBoundary` is point-to-point
//! between neighboring patches, while the curvilinear interpolator's
//! `ParallelCopy` is effectively global. A [`CopyPlan`] captures that message
//! list exactly — source/destination box, owning ranks, region, and byte
//! count — so the same object both executes the copy locally and prices it on
//! the simulated Summit network.

use crate::boxarray::BoxArray;
use crate::distribution::DistributionMapping;
use crocco_geometry::{IndexBox, IntVect, ProblemDomain};
use std::collections::HashMap;

/// One contiguous region copied from a source box to a destination box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyChunk {
    /// Index of the source box in its BoxArray.
    pub src_id: usize,
    /// Index of the destination box in its BoxArray.
    pub dst_id: usize,
    /// Rank owning the source box.
    pub src_rank: usize,
    /// Rank owning the destination box.
    pub dst_rank: usize,
    /// Region to fill, in *destination* index space.
    pub region: IndexBox,
    /// Source cell for destination cell `p` is `p - shift` (non-zero only for
    /// periodic wraps).
    pub shift: IntVect,
}

impl CopyChunk {
    /// Payload size in bytes for `ncomp` double-precision components.
    pub fn bytes(&self, ncomp: usize) -> u64 {
        self.region.num_points() * ncomp as u64 * 8
    }

    /// `true` if source and destination live on the same rank.
    pub fn is_local(&self) -> bool {
        self.src_rank == self.dst_rank
    }
}

/// A full communication plan: every chunk needed by one collective data-motion
/// operation, plus the component count it will move.
#[derive(Clone, Debug, Default)]
pub struct CopyPlan {
    /// All copy chunks (local and remote).
    pub chunks: Vec<CopyChunk>,
    /// Number of components moved per cell.
    pub ncomp: usize,
}

/// Aggregate statistics of a plan, used by the network cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Number of distinct (src_rank, dst_rank) message pairs, excluding local.
    pub num_messages: u64,
    /// Total off-rank payload bytes.
    pub remote_bytes: u64,
    /// Total on-rank payload bytes.
    pub local_bytes: u64,
    /// Largest total payload received by any single rank.
    pub max_rank_recv_bytes: u64,
    /// Largest number of distinct message partners (sends + receives) of any
    /// single rank — the per-rank latency term of the α–β model.
    pub max_rank_msgs: u64,
    /// Number of distinct ranks that communicate (send or receive).
    pub ranks_involved: u64,
}

impl CopyPlan {
    /// Chunk-index ranges grouped by destination box: each `(start, end)`
    /// pair delimits a run of chunks sharing one `dst_id`. Distinct groups
    /// write distinct destination fabs, so groups can execute concurrently.
    ///
    /// Both plan builders emit chunks ordered by destination, giving one run
    /// per `dst_id`. If a hand-built plan interleaves destinations, the runs
    /// are collapsed to a single serial group so parallel execution stays
    /// race-free.
    pub fn dst_groups(&self) -> Vec<(usize, usize)> {
        let n = self.chunks.len();
        let mut groups = Vec::new();
        let mut start = 0;
        for i in 1..=n {
            if i == n || self.chunks[i].dst_id != self.chunks[start].dst_id {
                groups.push((start, i));
                start = i;
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(groups.len());
        if groups
            .iter()
            .any(|&(s, _)| !seen.insert(self.chunks[s].dst_id))
        {
            return vec![(0, n)];
        }
        groups
    }

    /// Computes per-rank aggregate statistics for cost modeling.
    pub fn stats(&self) -> PlanStats {
        let mut pairs: HashMap<(usize, usize), u64> = HashMap::new();
        let mut recv: HashMap<usize, u64> = HashMap::new();
        let mut ranks: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut local = 0u64;
        let mut remote = 0u64;
        for c in &self.chunks {
            let b = c.bytes(self.ncomp);
            if c.is_local() {
                local += b;
            } else {
                remote += b;
                *pairs.entry((c.src_rank, c.dst_rank)).or_default() += b;
                *recv.entry(c.dst_rank).or_default() += b;
                ranks.insert(c.src_rank);
                ranks.insert(c.dst_rank);
            }
        }
        let mut per_rank_msgs: HashMap<usize, u64> = HashMap::new();
        for (src, dst) in pairs.keys() {
            *per_rank_msgs.entry(*src).or_default() += 1;
            *per_rank_msgs.entry(*dst).or_default() += 1;
        }
        PlanStats {
            num_messages: pairs.len() as u64,
            remote_bytes: remote,
            local_bytes: local,
            max_rank_recv_bytes: recv.values().copied().max().unwrap_or(0),
            max_rank_msgs: per_rank_msgs.values().copied().max().unwrap_or(0),
            ranks_involved: ranks.len() as u64,
        }
    }
}

/// The ghost cells of a patch that a stage's kernels read — what every ghost
/// producer (same-level exchange, coarse→fine interpolation, physical
/// boundary conditions) fills and nothing more. State is still allocated
/// with its full ghost width; a footprint only narrows what gets written.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GhostFootprint {
    /// The six face slabs, `depth` cells deep, without edges or corners —
    /// AMReX's `FillBoundary(cross = true)`, for stencils that reach only
    /// along their own sweep axis.
    Faces(i64),
    /// The full shell `valid.grow(depth) − valid`, edges and corners
    /// included.
    Shell(i64),
}

impl GhostFootprint {
    /// How far the footprint reaches past the valid box.
    pub fn depth(self) -> i64 {
        match self {
            GhostFootprint::Faces(d) | GhostFootprint::Shell(d) => d,
        }
    }

    /// The footprint's ghost cells around `valid` as disjoint boxes: the six
    /// face slabs (`Faces`, in `boundary_shells` order), or the shell cut
    /// into slabs (`Shell`).
    pub fn regions(self, valid: IndexBox) -> Vec<IndexBox> {
        match self {
            GhostFootprint::Faces(d) => {
                valid.boundary_shells(d).into_iter().map(|(_, _, b)| b).collect()
            }
            GhostFootprint::Shell(d) => {
                let mut shell = Vec::with_capacity(6);
                valid.grow(d).subtract(valid, &mut shell);
                shell
            }
        }
    }

    /// Whether ghost cell `p` of the patch over `valid` is in the footprint
    /// (`false` for valid cells).
    pub fn contains(self, valid: IndexBox, p: IntVect) -> bool {
        let d = self.depth();
        if valid.contains(p) || !valid.grow(d).contains(p) {
            return false;
        }
        match self {
            GhostFootprint::Shell(_) => true,
            GhostFootprint::Faces(_) => {
                (0..3).filter(|&k| p[k] < valid.lo()[k] || p[k] > valid.hi()[k]).count() == 1
            }
        }
    }
}

/// Builds the `FillBoundary` plan: for every destination box, fill its ghost
/// shell from the valid regions of every same-level neighbor, including
/// periodic images. Point-to-point only — this is the cheap path in Fig. 7.
pub fn fill_boundary_plan(
    ba: &BoxArray,
    dm: &DistributionMapping,
    domain: &ProblemDomain,
    nghost: i64,
    ncomp: usize,
) -> CopyPlan {
    let shifts = domain.periodic_shifts();
    let mut chunks = Vec::new();
    for dst_id in 0..ba.len() {
        let valid = ba.get(dst_id);
        let grown = valid.grow(nghost);
        // Ghost region = grown minus valid, handled per-source to keep chunks
        // rectangular: intersect each neighbor's (shifted) valid box with the
        // grown box, then discard the part inside our own valid box.
        for &shift in &shifts {
            // Source boxes appear shifted by `shift` in destination space.
            let probe = grown.shift(-shift);
            for (src_id, overlap_src) in ba.intersections(probe) {
                let overlap_dst = overlap_src.shift(shift);
                if shift == IntVect::ZERO && src_id == dst_id {
                    continue; // our own valid data
                }
                // Split off any part that lies inside the destination's valid
                // region (it is already correct there).
                let mut regions = Vec::new();
                overlap_dst.subtract(valid, &mut regions);
                for region in regions {
                    chunks.push(CopyChunk {
                        src_id,
                        dst_id,
                        src_rank: dm.owner(src_id),
                        dst_rank: dm.owner(dst_id),
                        region,
                        shift,
                    });
                }
            }
        }
    }
    CopyPlan { chunks, ncomp }
}

/// [`fill_boundary_plan`] over a [`GhostFootprint`]: a `Shell` is that plan
/// exactly; `Faces` fills each face slab from the (periodically shifted)
/// neighbors it overlaps — per destination, slab by slab, shift by shift —
/// so edge and corner ghosts are neither copied nor sent.
pub fn fill_boundary_plan_over(
    ba: &BoxArray,
    dm: &DistributionMapping,
    domain: &ProblemDomain,
    footprint: GhostFootprint,
    ncomp: usize,
) -> CopyPlan {
    let GhostFootprint::Faces(_) = footprint else {
        return fill_boundary_plan(ba, dm, domain, footprint.depth(), ncomp);
    };
    let shifts = domain.periodic_shifts();
    let mut chunks = Vec::new();
    for dst_id in 0..ba.len() {
        for slab in footprint.regions(ba.get(dst_id)) {
            for &shift in &shifts {
                // A slab lies outside its own patch, so every overlap is a
                // ghost region (a periodic self-image included).
                for (src_id, overlap_src) in ba.intersections(slab.shift(-shift)) {
                    chunks.push(CopyChunk {
                        src_id,
                        dst_id,
                        src_rank: dm.owner(src_id),
                        dst_rank: dm.owner(dst_id),
                        region: overlap_src.shift(shift),
                        shift,
                    });
                }
            }
        }
    }
    CopyPlan { chunks, ncomp }
}

/// Builds a `ParallelCopy` plan: fill each destination box (grown by
/// `dst_ghost`) from the valid regions of a *different* BoxArray. With a
/// coarse, widely-distributed source this is the global communication the
/// paper blames for CRoCCo 2.0's weak-scaling loss.
pub fn parallel_copy_plan(
    src_ba: &BoxArray,
    src_dm: &DistributionMapping,
    dst_ba: &BoxArray,
    dst_dm: &DistributionMapping,
    domain: &ProblemDomain,
    dst_ghost: i64,
    ncomp: usize,
) -> CopyPlan {
    let shifts = domain.periodic_shifts();
    let mut chunks = Vec::new();
    for dst_id in 0..dst_ba.len() {
        let grown = dst_ba.get(dst_id).grow(dst_ghost);
        for &shift in &shifts {
            let probe = grown.shift(-shift);
            for (src_id, overlap_src) in src_ba.intersections(probe) {
                chunks.push(CopyChunk {
                    src_id,
                    dst_id,
                    src_rank: src_dm.owner(src_id),
                    dst_rank: dst_dm.owner(dst_id),
                    region: overlap_src.shift(shift),
                    shift,
                });
            }
        }
    }
    CopyPlan { chunks, ncomp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crocco_geometry::decompose::ChopParams;

    fn setup(nranks: usize) -> (BoxArray, DistributionMapping, ProblemDomain) {
        let domain_box = IndexBox::from_extents(32, 32, 16);
        let ba = BoxArray::decompose(domain_box, ChopParams::new(8, 16));
        let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::MortonSfc);
        let domain = ProblemDomain::new(domain_box, [false, false, true]);
        (ba, dm, domain)
    }

    #[test]
    fn fill_boundary_regions_lie_in_ghost_shell() {
        let (ba, dm, domain) = setup(4);
        let plan = fill_boundary_plan(&ba, &dm, &domain, 4, 5);
        assert!(!plan.chunks.is_empty());
        for c in &plan.chunks {
            let valid = ba.get(c.dst_id);
            assert!(valid.grow(4).contains_box(&c.region));
            assert!(!valid.intersects(&c.region), "chunk inside valid region");
            // Source data must exist: region - shift inside src box.
            assert!(ba.get(c.src_id).contains_box(&c.region.shift(-c.shift)));
        }
    }

    #[test]
    fn fill_boundary_chunks_for_one_box_are_disjoint() {
        let (ba, dm, domain) = setup(2);
        let plan = fill_boundary_plan(&ba, &dm, &domain, 2, 1);
        for dst in 0..ba.len() {
            let regions: Vec<IndexBox> = plan
                .chunks
                .iter()
                .filter(|c| c.dst_id == dst)
                .map(|c| c.region)
                .collect();
            for (i, a) in regions.iter().enumerate() {
                for b in &regions[i + 1..] {
                    assert!(!a.intersects(b), "{a:?} overlaps {b:?} for dst {dst}");
                }
            }
        }
    }

    #[test]
    fn interior_box_ghosts_fully_covered() {
        // With enough neighbors + z-periodicity, a truly interior box's ghost
        // shell must be fully covered by incoming chunks.
        let domain_box = IndexBox::from_extents(32, 32, 16);
        let ba = BoxArray::decompose(domain_box, ChopParams::new(8, 8));
        let dm = DistributionMapping::all_on_root(&ba);
        let domain = ProblemDomain::new(domain_box, [false, false, true]);
        let nghost = 4;
        let plan = fill_boundary_plan(&ba, &dm, &domain, nghost, 1);
        // Find a box strictly interior in x and y.
        let interior = (0..ba.len())
            .find(|&i| {
                let b = ba.get(i);
                b.lo()[0] > 0 && b.hi()[0] < 31 && b.lo()[1] > 0 && b.hi()[1] < 31
            })
            .expect("no interior box");
        let valid = ba.get(interior);
        let covered: u64 = plan
            .chunks
            .iter()
            .filter(|c| c.dst_id == interior)
            .map(|c| c.region.num_points())
            .sum();
        let shell = valid.grow(nghost).num_points() - valid.num_points();
        assert_eq!(covered, shell);
    }

    /// A face plan is the shell plan cut to the face slabs: every face
    /// ghost comes from the same source patch through the same shift, and
    /// no edge or corner ghost is copied.
    #[test]
    fn face_plan_is_the_shell_plan_on_the_face_slabs() {
        for nranks in [1, 3] {
            let (ba, dm, domain) = setup(nranks);
            let depth = 3;
            let shell = fill_boundary_plan(&ba, &dm, &domain, depth, 2);
            let faces = fill_boundary_plan_over(&ba, &dm, &domain, GhostFootprint::Faces(depth), 2);
            let source = |plan: &CopyPlan, dst: usize| {
                let mut at = HashMap::new();
                for c in plan.chunks.iter().filter(|c| c.dst_id == dst) {
                    for p in c.region.cells() {
                        assert!(at.insert(p, (c.src_id, c.shift, c.src_rank)).is_none(), "{p:?} twice");
                    }
                }
                at
            };
            for dst in 0..ba.len() {
                let valid = ba.get(dst);
                let want: HashMap<_, _> = source(&shell, dst)
                    .into_iter()
                    .filter(|(p, _)| GhostFootprint::Faces(depth).contains(valid, *p))
                    .collect();
                assert_eq!(source(&faces, dst), want, "dst {dst}");
            }
            let bytes = |p: &CopyPlan| p.stats().local_bytes + p.stats().remote_bytes;
            assert!(bytes(&faces) < bytes(&shell));
        }
    }

    #[test]
    fn periodic_wrap_generates_shifted_chunks() {
        let (ba, dm, domain) = setup(1);
        let plan = fill_boundary_plan(&ba, &dm, &domain, 2, 1);
        assert!(
            plan.chunks.iter().any(|c| c.shift != IntVect::ZERO),
            "expected periodic chunks in z"
        );
        // But none in x or y (non-periodic).
        assert!(plan
            .chunks
            .iter()
            .all(|c| c.shift[0] == 0 && c.shift[1] == 0));
    }

    #[test]
    fn plan_stats_classify_local_vs_remote() {
        let (ba, dm, domain) = setup(4);
        let plan = fill_boundary_plan(&ba, &dm, &domain, 2, 5);
        let stats = plan.stats();
        assert!(stats.remote_bytes > 0);
        assert!(stats.local_bytes > 0);
        assert!(stats.num_messages > 0);
        assert!(stats.ranks_involved <= 4);
        let serial = DistributionMapping::all_on_root(&ba);
        let plan1 = fill_boundary_plan(&ba, &serial, &domain, 2, 5);
        let s1 = plan1.stats();
        assert_eq!(s1.remote_bytes, 0);
        assert_eq!(s1.num_messages, 0);
        assert_eq!(
            s1.local_bytes,
            stats.local_bytes + stats.remote_bytes,
            "total data motion must not depend on the distribution"
        );
    }

    #[test]
    fn parallel_copy_reaches_across_box_arrays() {
        let (src_ba, src_dm, domain) = setup(4);
        // Destination: one fine-level-style box somewhere in the middle.
        let dst_ba = BoxArray::new(vec![IndexBox::new(
            IntVect::new(8, 8, 4),
            IntVect::new(23, 23, 11),
        )]);
        let dst_dm = DistributionMapping::all_on_root(&dst_ba);
        let plan = parallel_copy_plan(&src_ba, &src_dm, &dst_ba, &dst_dm, &domain, 4, 3);
        let covered: u64 = plan.chunks.iter().map(|c| c.region.num_points()).sum();
        assert_eq!(covered, dst_ba.get(0).grow(4).num_points());
        // Many source ranks feed one destination rank: that is the global
        // pattern the paper identifies.
        let src_ranks: std::collections::HashSet<_> =
            plan.chunks.iter().map(|c| c.src_rank).collect();
        assert!(src_ranks.len() > 1);
    }
}
