//! Memoized communication plans.
//!
//! Plans only change when a level's grids change (regrid), yet the hot loop
//! asks for the *same* `FillBoundary`/`ParallelCopy` plan every RK stage of
//! every step. AMReX amortizes this by caching the copy metadata in
//! `FabArrayBase`, keyed on `BoxArray`/`DistributionMapping` identity
//! (arXiv:2009.12009, §3); STREAmS-2 does the same for its halo-exchange
//! setup. [`PlanCache`] is that cache: plans are built once per
//! (grids, ghost width, component count, domain) combination and reused until
//! the hierarchy invalidates the cache at regrid.
//!
//! Identity tokens ([`BoxArray::id`], [`DistributionMapping::id`]) make the
//! key O(1): clones share the token, fresh constructions (i.e. new grids)
//! never do, so a stale plan can never be served for new grids even without
//! invalidation — `invalidate` exists to bound memory, not for correctness.

use crate::boxarray::BoxArray;
use crate::distribution::DistributionMapping;
use crate::plan::{fill_boundary_plan_over, parallel_copy_plan, CopyPlan, GhostFootprint, PlanStats};
use crocco_geometry::ProblemDomain;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A plan plus everything derivable from it that callers need every
/// execution: precomputed [`PlanStats`] (the network-model input, previously
/// recomputed per call) and destination groups for parallel execution.
#[derive(Clone, Debug, Default)]
pub struct CachedPlan {
    /// The communication plan itself.
    pub plan: CopyPlan,
    /// Aggregate statistics, computed once at build time.
    pub stats: PlanStats,
    /// `dst_id`-grouped chunk ranges (see [`CopyPlan::dst_groups`]).
    pub groups: Vec<(usize, usize)>,
}

impl CachedPlan {
    /// Wraps a freshly built plan, precomputing stats and groups.
    pub fn new(plan: CopyPlan) -> Self {
        let stats = plan.stats();
        let groups = plan.dst_groups();
        CachedPlan {
            plan,
            stats,
            groups,
        }
    }
}

/// Which operation a cached plan belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// Same-level ghost exchange.
    FillBoundary,
    /// Cross-BoxArray gather.
    ParallelCopy,
    /// Client-defined auxiliary entry (e.g. the AMR two-level gather plan);
    /// the tag namespaces independent clients.
    Aux(u32),
}

/// The full cache key. Identity tokens stand in for the grids; the remaining
/// fields capture every other input the plan builders read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Operation discriminant.
    pub op: PlanOp,
    /// Source BoxArray identity.
    pub src_ba: u64,
    /// Source DistributionMapping identity.
    pub src_dm: u64,
    /// Destination BoxArray identity (same as src for FillBoundary).
    pub dst_ba: u64,
    /// Destination DistributionMapping identity.
    pub dst_dm: u64,
    /// Destination ghost cells: the footprint a `FillBoundary` fills, the
    /// full shell a `ParallelCopy` reaches.
    pub ghost: GhostFootprint,
    /// Components moved.
    pub ncomp: usize,
    /// Domain low corner.
    pub domain_lo: [i64; 3],
    /// Domain high corner.
    pub domain_hi: [i64; 3],
    /// Domain periodicity.
    pub periodic: [bool; 3],
    /// Extra client bits for `Aux` entries (0 otherwise).
    pub aux: u64,
}

impl PlanKey {
    fn domain_fields(domain: &ProblemDomain) -> ([i64; 3], [i64; 3], [bool; 3]) {
        (domain.bx.lo().0, domain.bx.hi().0, domain.periodic)
    }

    /// Key for a same-level `FillBoundary` plan over `footprint`.
    pub fn fill_boundary(
        ba: &BoxArray,
        dm: &DistributionMapping,
        domain: &ProblemDomain,
        footprint: GhostFootprint,
        ncomp: usize,
    ) -> Self {
        let (domain_lo, domain_hi, periodic) = Self::domain_fields(domain);
        PlanKey {
            op: PlanOp::FillBoundary,
            src_ba: ba.id(),
            src_dm: dm.id(),
            dst_ba: ba.id(),
            dst_dm: dm.id(),
            ghost: footprint,
            ncomp,
            domain_lo,
            domain_hi,
            periodic,
            aux: 0,
        }
    }

    /// Key for a cross-BoxArray `ParallelCopy` plan.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_copy(
        src_ba: &BoxArray,
        src_dm: &DistributionMapping,
        dst_ba: &BoxArray,
        dst_dm: &DistributionMapping,
        domain: &ProblemDomain,
        dst_ghost: i64,
        ncomp: usize,
    ) -> Self {
        let (domain_lo, domain_hi, periodic) = Self::domain_fields(domain);
        PlanKey {
            op: PlanOp::ParallelCopy,
            src_ba: src_ba.id(),
            src_dm: src_dm.id(),
            dst_ba: dst_ba.id(),
            dst_dm: dst_dm.id(),
            ghost: GhostFootprint::Shell(dst_ghost),
            ncomp,
            domain_lo,
            domain_hi,
            periodic,
            aux: 0,
        }
    }
}

/// The memoization table. One instance lives in the AMR hierarchy and is
/// shared by every fill operation; `invalidate` is called at regrid.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<CachedPlan>>>,
    aux: Mutex<HashMap<PlanKey, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    build_nanos: AtomicU64,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cached full-shell `FillBoundary` plan for these grids, building
    /// it on miss.
    pub fn fill_boundary(
        &self,
        ba: &BoxArray,
        dm: &DistributionMapping,
        domain: &ProblemDomain,
        nghost: i64,
        ncomp: usize,
    ) -> Arc<CachedPlan> {
        self.fill_boundary_over(ba, dm, domain, GhostFootprint::Shell(nghost), ncomp)
    }

    /// The cached `FillBoundary` plan over `footprint`, building it on miss
    /// ([`fill_boundary_plan_over`]).
    pub fn fill_boundary_over(
        &self,
        ba: &BoxArray,
        dm: &DistributionMapping,
        domain: &ProblemDomain,
        footprint: GhostFootprint,
        ncomp: usize,
    ) -> Arc<CachedPlan> {
        let key = PlanKey::fill_boundary(ba, dm, domain, footprint, ncomp);
        self.get_or_build(key, || fill_boundary_plan_over(ba, dm, domain, footprint, ncomp))
    }

    /// The cached `ParallelCopy` plan for these grids, building it on miss.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_copy(
        &self,
        src_ba: &BoxArray,
        src_dm: &DistributionMapping,
        dst_ba: &BoxArray,
        dst_dm: &DistributionMapping,
        domain: &ProblemDomain,
        dst_ghost: i64,
        ncomp: usize,
    ) -> Arc<CachedPlan> {
        let key = PlanKey::parallel_copy(src_ba, src_dm, dst_ba, dst_dm, domain, dst_ghost, ncomp);
        self.get_or_build(key, || {
            parallel_copy_plan(src_ba, src_dm, dst_ba, dst_dm, domain, dst_ghost, ncomp)
        })
    }

    /// Generic memoization: returns the entry for `key`, invoking `build`
    /// (timed and counted as a miss) if absent.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> CopyPlan,
    ) -> Arc<CachedPlan> {
        let mut map = self.plans.lock().unwrap();
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let entry = Arc::new(CachedPlan::new(build()));
        self.build_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        map.insert(key, entry.clone());
        entry
    }

    /// Memoizes an arbitrary client-owned value under an [`PlanOp::Aux`]
    /// key (the AMR layer caches its two-level gather plan this way).
    ///
    /// # Panics
    /// Panics if an entry under `key` exists with a different type `T`.
    pub fn get_or_build_aux<T: Send + Sync + 'static>(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut map = self.aux.lock().unwrap();
        if let Some(hit) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit
                .clone()
                .downcast::<T>()
                .expect("aux plan-cache type mismatch for key");
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let entry = Arc::new(build());
        self.build_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        map.insert(key, entry.clone());
        entry
    }

    /// Drops every cached entry (called at regrid). Outstanding `Arc`s stay
    /// valid; they are simply no longer served.
    pub fn invalidate(&self) {
        self.plans.lock().unwrap().clear();
        self.aux.lock().unwrap().clear();
    }

    /// Number of cached entries (plans + aux).
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap().len() + self.aux.lock().unwrap().len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total wall-clock seconds spent building plans on misses — the cost
    /// the cache removes from the steady-state step loop.
    pub fn build_seconds(&self) -> f64 {
        self.build_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crate::plan::fill_boundary_plan;
    use crocco_geometry::decompose::ChopParams;
    use crocco_geometry::IndexBox;

    fn setup() -> (BoxArray, DistributionMapping, ProblemDomain) {
        let bx = IndexBox::from_extents(32, 16, 16);
        let ba = BoxArray::decompose(bx, ChopParams::new(8, 8));
        let dm = DistributionMapping::new(&ba, 4, DistributionStrategy::MortonSfc);
        (ba, dm, ProblemDomain::new(bx, [false, false, true]))
    }

    #[test]
    fn repeat_lookup_is_a_hit_returning_the_same_plan() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        let a = cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        let b = cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(cache.build_seconds() > 0.0);
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        let a = cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        let b = cache.fill_boundary(&ba, &dm, &domain, 3, 5); // nghost differs
        let c = cache.fill_boundary(&ba, &dm, &domain, 2, 1); // ncomp differs
        // Same depth, face slabs only.
        let d = cache.fill_boundary_over(&ba, &dm, &domain, GhostFootprint::Faces(2), 5);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn new_grids_never_reuse_old_entries_even_without_invalidation() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        let a = cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        // Identical boxes, fresh construction — as after a no-op regrid that
        // still rebuilt the arrays.
        let ba2 = BoxArray::new(ba.boxes().to_vec());
        let dm2 = DistributionMapping::new(&ba2, 4, DistributionStrategy::MortonSfc);
        let b = cache.fill_boundary(&ba2, &dm2, &domain, 2, 5);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.plan.chunks, a.plan.chunks, "plans must still agree");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_plan_matches_direct_build() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        let cached = cache.fill_boundary(&ba, &dm, &domain, 4, 5);
        let fresh = fill_boundary_plan(&ba, &dm, &domain, 4, 5);
        assert_eq!(cached.plan.chunks, fresh.chunks);
        assert_eq!(cached.stats, fresh.stats());
        assert_eq!(cached.groups, fresh.dst_groups());
    }

    #[test]
    fn invalidate_clears_everything() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        let key = PlanKey {
            op: PlanOp::Aux(7),
            ..PlanKey::fill_boundary(&ba, &dm, &domain, GhostFootprint::Shell(2), 5)
        };
        cache.get_or_build_aux(key, || 42usize);
        assert_eq!(cache.len(), 2);
        cache.invalidate();
        assert!(cache.is_empty());
        // Rebuild works after invalidation.
        cache.fill_boundary(&ba, &dm, &domain, 2, 5);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn aux_entries_roundtrip_by_type() {
        let (ba, dm, domain) = setup();
        let cache = PlanCache::new();
        let key = PlanKey {
            op: PlanOp::Aux(1),
            ..PlanKey::fill_boundary(&ba, &dm, &domain, GhostFootprint::Shell(2), 5)
        };
        let v1: Arc<Vec<u64>> = cache.get_or_build_aux(key, || vec![1, 2, 3]);
        let v2: Arc<Vec<u64>> = cache.get_or_build_aux(key, || unreachable!());
        assert!(Arc::ptr_eq(&v1, &v2));
    }
}
