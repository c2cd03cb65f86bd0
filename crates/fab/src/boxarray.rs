//! `BoxArray`: the patch list of one AMR level.

use crocco_geometry::{decompose::ChopParams, IndexBox, IntVect};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of BoxArray/DistributionMapping identity tokens. Zero is
/// reserved for "unassigned" (freshly deserialized values).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh, process-unique identity token.
pub(crate) fn next_identity() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The collection of patch boxes at one AMR level (AMReX `BoxArray`).
///
/// Boxes are disjoint (validated on construction) and carry a bucket-grid
/// spatial index so the `O(patches²)` intersection queries behind
/// `FillBoundary`, `ParallelCopy`, and two-level interpolation stay fast at
/// Summit scale (tens of thousands of patches at 1024 nodes).
#[derive(Clone, Debug)]
pub struct BoxArray {
    boxes: Vec<IndexBox>,
    /// Edge length of the bucket grid used by the spatial index.
    bucket: i64,
    /// Bucket coordinate → indices of boxes that touch the bucket.
    index: HashMap<IntVect, Vec<u32>>,
    /// Process-unique identity token assigned at construction and shared by
    /// clones. Two arrays with the same id hold the same boxes, so the id is
    /// a cheap communication-plan cache key (AMReX caches FillBoundary
    /// metadata the same way, keyed on `BoxArray` identity).
    id: u64,
}

impl PartialEq for BoxArray {
    fn eq(&self, other: &Self) -> bool {
        self.boxes == other.boxes
    }
}

impl BoxArray {
    /// Builds a box array from disjoint boxes.
    ///
    /// # Panics
    /// Panics if any box is empty or any two boxes overlap (checked via the
    /// spatial index, so construction is near-linear).
    pub fn new(boxes: Vec<IndexBox>) -> Self {
        assert!(!boxes.is_empty(), "a BoxArray needs at least one box");
        for b in &boxes {
            assert!(!b.is_empty(), "BoxArray cannot hold empty boxes");
        }
        // Bucket size: the median box edge is a good compromise.
        let mut edges: Vec<i64> = boxes.iter().map(|b| b.size().max_component()).collect();
        edges.sort_unstable();
        let bucket = edges[edges.len() / 2].max(1);
        let mut ba = BoxArray {
            boxes,
            bucket,
            index: HashMap::new(),
            id: next_identity(),
        };
        ba.rebuild_index();
        // Disjointness check using the index.
        for (i, b) in ba.boxes.iter().enumerate() {
            for j in ba.candidate_ids(*b) {
                if (j as usize) > i {
                    assert!(
                        !ba.boxes[j as usize].intersects(b),
                        "BoxArray boxes {i} and {j} overlap: {b:?} vs {:?}",
                        ba.boxes[j as usize]
                    );
                }
            }
        }
        ba
    }

    /// Builds the level-0 box array by chopping a whole domain.
    pub fn decompose(domain: IndexBox, params: ChopParams) -> Self {
        BoxArray::new(crocco_geometry::decompose::decompose_domain(domain, params))
    }

    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, b) in self.boxes.iter().enumerate() {
            let lo = b.lo().coarsen(IntVect::splat(self.bucket));
            let hi = b.hi().coarsen(IntVect::splat(self.bucket));
            for bc in IndexBox::new(lo, hi).cells() {
                self.index.entry(bc).or_default().push(i as u32);
            }
        }
    }

    /// The identity token: process-unique, assigned at construction, shared
    /// by clones. Used to key cached communication plans.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Candidate box ids whose bucket footprint intersects `probe`'s.
    fn candidate_ids(&self, probe: IndexBox) -> Vec<u32> {
        let lo = probe.lo().coarsen(IntVect::splat(self.bucket));
        let hi = probe.hi().coarsen(IntVect::splat(self.bucket));
        let mut ids = Vec::new();
        for bc in IndexBox::new(lo, hi).cells() {
            if let Some(v) = self.index.get(&bc) {
                ids.extend_from_slice(v);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of boxes.
    #[inline]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` if there are no boxes (cannot happen for a constructed array,
    /// but useful for `Option<BoxArray>` call sites).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The `i`-th box.
    #[inline]
    pub fn get(&self, i: usize) -> IndexBox {
        self.boxes[i]
    }

    /// All boxes.
    #[inline]
    pub fn boxes(&self) -> &[IndexBox] {
        &self.boxes
    }

    /// Total number of cells across all boxes.
    pub fn num_points(&self) -> u64 {
        self.boxes.iter().map(|b| b.num_points()).sum()
    }

    /// The bounding hull of all boxes.
    pub fn hull(&self) -> IndexBox {
        self.boxes
            .iter()
            .fold(IndexBox::EMPTY, |acc, b| acc.hull(b))
    }

    /// All `(box_id, overlap)` pairs where a box overlaps `probe`.
    pub fn intersections(&self, probe: IndexBox) -> Vec<(usize, IndexBox)> {
        if probe.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for id in self.candidate_ids(probe) {
            let isect = self.boxes[id as usize].intersection(&probe);
            if !isect.is_empty() {
                out.push((id as usize, isect));
            }
        }
        out
    }

    /// `true` if `probe` is fully covered by the union of the boxes.
    pub fn covers(&self, probe: IndexBox) -> bool {
        let covered: u64 = self
            .intersections(probe)
            .iter()
            .map(|(_, b)| b.num_points())
            .sum();
        covered == probe.num_points()
    }

    /// `true` if any box intersects `probe`.
    pub fn intersects_any(&self, probe: IndexBox) -> bool {
        self.candidate_ids(probe)
            .iter()
            .any(|&id| self.boxes[id as usize].intersects(&probe))
    }

    /// A new array with every box refined by `ratio`.
    pub fn refine(&self, ratio: IntVect) -> BoxArray {
        BoxArray::new(self.boxes.iter().map(|b| b.refine(ratio)).collect())
    }

    /// A new array with every box coarsened by `ratio`. The caller must
    /// ensure the boxes are `ratio`-aligned or the result may overlap.
    pub fn coarsen(&self, ratio: IntVect) -> BoxArray {
        BoxArray::new(self.boxes.iter().map(|b| b.coarsen(ratio)).collect())
    }

    /// The parts of `probe` *not* covered by any box, as a disjoint box list.
    /// This is the complement operation behind proper-nesting enforcement.
    pub fn complement_in(&self, probe: IndexBox) -> Vec<IndexBox> {
        let mut remaining = vec![probe];
        for id in self.candidate_ids(probe) {
            let cut = self.boxes[id as usize];
            let mut next = Vec::with_capacity(remaining.len());
            for r in remaining {
                r.subtract(cut, &mut next);
            }
            remaining = next;
            if remaining.is_empty() {
                break;
            }
        }
        remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [i64; 3], hi: [i64; 3]) -> IndexBox {
        IndexBox::new(IntVect(lo), IntVect(hi))
    }

    #[test]
    fn decompose_roundtrip() {
        let domain = IndexBox::from_extents(64, 32, 16);
        let ba = BoxArray::decompose(domain, ChopParams::new(8, 16));
        assert_eq!(ba.num_points(), domain.num_points());
        assert_eq!(ba.hull(), domain);
        assert!(ba.covers(domain));
    }

    #[test]
    #[should_panic]
    fn overlapping_boxes_rejected() {
        BoxArray::new(vec![b([0, 0, 0], [3, 3, 3]), b([2, 2, 2], [5, 5, 5])]);
    }

    #[test]
    fn intersections_find_all_neighbors() {
        let ba = BoxArray::new(vec![
            b([0, 0, 0], [7, 7, 7]),
            b([8, 0, 0], [15, 7, 7]),
            b([0, 8, 0], [7, 15, 7]),
        ]);
        // A ghost shell around box 0 must touch boxes 1 and 2.
        let probe = ba.get(0).grow(2);
        let hits = ba.intersections(probe);
        let ids: Vec<usize> = hits.iter().map(|(i, _)| *i).collect();
        assert!(ids.contains(&0) && ids.contains(&1) && ids.contains(&2));
        // Overlap with box 1 is the 2-wide strip.
        let (_, isect) = hits.iter().find(|(i, _)| *i == 1).unwrap();
        assert_eq!(*isect, b([8, 0, 0], [9, 7, 7]));
    }

    #[test]
    fn covers_detects_holes() {
        let ba = BoxArray::new(vec![b([0, 0, 0], [7, 7, 7]), b([16, 0, 0], [23, 7, 7])]);
        assert!(ba.covers(b([0, 0, 0], [7, 7, 7])));
        assert!(!ba.covers(b([0, 0, 0], [23, 7, 7]))); // gap in the middle
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let ba = BoxArray::decompose(IndexBox::from_extents(32, 32, 32), ChopParams::new(8, 16));
        let r = IntVect::splat(2);
        let fine = ba.refine(r);
        assert_eq!(fine.num_points(), ba.num_points() * 8);
        assert_eq!(fine.coarsen(r), ba);
    }

    #[test]
    fn complement_of_full_cover_is_empty() {
        let domain = IndexBox::from_extents(32, 32, 32);
        let ba = BoxArray::decompose(domain, ChopParams::new(8, 8));
        assert!(ba.complement_in(domain).is_empty());
    }

    #[test]
    fn complement_partitions_probe() {
        let ba = BoxArray::new(vec![b([8, 8, 8], [15, 15, 15])]);
        let probe = b([0, 0, 0], [23, 23, 23]);
        let rest = ba.complement_in(probe);
        let total: u64 = rest.iter().map(|r| r.num_points()).sum();
        assert_eq!(total + ba.get(0).num_points(), probe.num_points());
        for r in &rest {
            assert!(!r.intersects(&ba.get(0)));
            assert!(probe.contains_box(r));
        }
        // Pieces are mutually disjoint.
        for (i, a) in rest.iter().enumerate() {
            for c in &rest[i + 1..] {
                assert!(!a.intersects(c));
            }
        }
    }

    #[test]
    fn identity_tokens_are_unique_and_shared_by_clones() {
        let a = BoxArray::new(vec![b([0, 0, 0], [7, 7, 7])]);
        let c = a.clone();
        assert_ne!(a.id(), 0);
        assert_eq!(a.id(), c.id(), "clones must share identity");
        // An equal-by-value but independently constructed array gets its own
        // identity: plans keyed on ids are never shared across regrids.
        let d = BoxArray::new(vec![b([0, 0, 0], [7, 7, 7])]);
        assert_eq!(a, d);
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn subtract_box_disjoint_cut_keeps_original() {
        let probe = b([0, 0, 0], [3, 3, 3]);
        let far = b([10, 10, 10], [12, 12, 12]);
        let mut out = Vec::new();
        probe.subtract(far, &mut out);
        assert_eq!(out, vec![probe]);
        // The complement against an array that misses the probe is the probe.
        assert_eq!(BoxArray::new(vec![far]).complement_in(probe), vec![probe]);
    }
}
