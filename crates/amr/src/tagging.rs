//! Cell tagging for refinement.

use crocco_fab::MultiFab;
use crocco_geometry::{IndexBox, IntVect};
use crocco_runtime::cluster::take_field;
use std::collections::HashSet;

/// A tag-union payload that is not a whole number of `i64` coordinate
/// triples — the bytes crossed the wire, so their length is an input to
/// validate ([`TagSet::absorb_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedTags {
    /// Length of the offending payload in bytes.
    pub len: usize,
}

impl std::fmt::Display for MalformedTags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag-union payload of {} bytes is not a sequence of i64 triples", self.len)
    }
}

impl std::error::Error for MalformedTags {}

/// The set of cells tagged for refinement at one level.
///
/// Tags live in that level's index space. The solver produces them from its
/// refinement criteria (density/momentum gradients, §II-B, or the pure
/// turbulence-resolving criterion of §III-C); this container buffers and
/// restricts them for the regridder.
#[derive(Clone, Debug, Default)]
pub struct TagSet {
    cells: HashSet<IntVect>,
}

impl TagSet {
    /// An empty tag set.
    pub fn new() -> Self {
        TagSet::default()
    }

    /// Tags one cell.
    pub fn tag(&mut self, p: IntVect) {
        self.cells.insert(p);
    }

    /// Tags every cell of `bx`.
    pub fn tag_box(&mut self, bx: IndexBox) {
        for p in bx.cells() {
            self.cells.insert(p);
        }
    }

    /// Number of tagged cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if nothing is tagged.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// `true` if `p` is tagged.
    pub fn contains(&self, p: IntVect) -> bool {
        self.cells.contains(&p)
    }

    /// Iterates over tagged cells (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = IntVect> + '_ {
        self.cells.iter().copied()
    }

    /// Tagged cells as a vector (arbitrary order).
    pub fn to_vec(&self) -> Vec<IntVect> {
        self.cells.iter().copied().collect()
    }

    /// Grows every tag by `buffer` cells in each direction (the AMReX
    /// `n_error_buf`): guarantees features stay inside the fine patch until
    /// the next regrid, per the CFL-based regrid-frequency argument of §II-B.
    pub fn buffer(&self, buffer: i64, domain: IndexBox) -> TagSet {
        let mut out = TagSet::new();
        for &p in &self.cells {
            let b = IndexBox::new(p, p).grow(buffer).intersection(&domain);
            for q in b.cells() {
                out.cells.insert(q);
            }
        }
        out
    }

    /// Restricts tags to `domain`.
    pub fn restrict(&self, domain: IndexBox) -> TagSet {
        TagSet {
            cells: self
                .cells
                .iter()
                .copied()
                .filter(|p| domain.contains(*p))
                .collect(),
        }
    }

    /// Tags every valid cell of `mf`'s component `comp` whose absolute value
    /// exceeds `threshold` — the building block for gradient-based criteria
    /// (the solver stores |∇ρ| or |∇(ρu)| into a scratch component first).
    pub fn tag_where_above(mf: &MultiFab, comp: usize, threshold: f64) -> TagSet {
        let mut out = TagSet::new();
        for (i, vbx) in mf.iter_valid() {
            let fab = mf.fab(i);
            for p in vbx.cells() {
                if fab.get(p, comp).abs() > threshold {
                    out.tag(p);
                }
            }
        }
        out
    }

    /// Coarsens all tags by `ratio` (deduplicating).
    pub fn coarsen(&self, ratio: IntVect) -> TagSet {
        TagSet {
            cells: self.cells.iter().map(|p| p.coarsen(ratio)).collect(),
        }
    }

    /// Serializes the tag set as lexicographically sorted little-endian
    /// `i64` coordinate triples — the wire format of the distributed regrid
    /// tag union. Sorting makes the bytes a pure function of the *set*
    /// (`HashSet` iteration order never leaks), so identical sets produce
    /// identical payloads on every rank.
    pub fn to_sorted_bytes(&self) -> Vec<u8> {
        let mut cells = self.to_vec();
        cells.sort_unstable_by_key(|p| (p[0], p[1], p[2]));
        let mut out = Vec::with_capacity(cells.len() * 24);
        for p in cells {
            for d in 0..3 {
                out.extend_from_slice(&p[d].to_le_bytes());
            }
        }
        out
    }

    /// Unions the cells of a [`TagSet::to_sorted_bytes`] payload into this
    /// set (the receive side of the distributed tag union). A payload that
    /// ends inside a triple is rejected whole: the set is left untouched.
    pub fn absorb_bytes(&mut self, mut bytes: &[u8]) -> Result<(), MalformedTags> {
        let len = bytes.len();
        let mut cells = Vec::with_capacity(len / 24);
        while !bytes.is_empty() {
            let mut coord = || {
                take_field(&mut bytes)
                    .map(i64::from_le_bytes)
                    .ok_or(MalformedTags { len })
            };
            cells.push(IntVect::new(coord()?, coord()?, coord()?));
        }
        self.cells.extend(cells);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crocco_fab::{BoxArray, DistributionMapping};
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn tag_and_query() {
        let mut t = TagSet::new();
        assert!(t.is_empty());
        t.tag(IntVect::new(1, 2, 3));
        t.tag(IntVect::new(1, 2, 3)); // idempotent
        assert_eq!(t.len(), 1);
        assert!(t.contains(IntVect::new(1, 2, 3)));
        assert!(!t.contains(IntVect::ZERO));
    }

    #[test]
    fn buffer_grows_and_clips() {
        let domain = IndexBox::from_extents(8, 8, 8);
        let mut t = TagSet::new();
        t.tag(IntVect::ZERO); // at the corner
        let b = t.buffer(1, domain);
        // 2×2×2 clipped block around the corner.
        assert_eq!(b.len(), 8);
        assert!(b.contains(IntVect::new(1, 1, 1)));
        assert!(!b.contains(IntVect::new(-1, 0, 0)));
    }

    #[test]
    fn restrict_drops_outside_tags() {
        let mut t = TagSet::new();
        t.tag(IntVect::new(0, 0, 0));
        t.tag(IntVect::new(100, 0, 0));
        let r = t.restrict(IndexBox::from_extents(8, 8, 8));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn coarsen_deduplicates() {
        let mut t = TagSet::new();
        t.tag_box(IndexBox::from_extents(4, 4, 4));
        let c = t.coarsen(IntVect::splat(2));
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn sorted_bytes_are_set_deterministic_and_union_roundtrips() {
        let mut a = TagSet::new();
        let mut b = TagSet::new();
        // Same set, different insertion order.
        for p in [
            IntVect::new(3, -1, 2),
            IntVect::new(0, 0, 0),
            IntVect::new(3, 5, -7),
        ] {
            a.tag(p);
        }
        for p in [
            IntVect::new(3, 5, -7),
            IntVect::new(3, -1, 2),
            IntVect::new(0, 0, 0),
        ] {
            b.tag(p);
        }
        assert_eq!(a.to_sorted_bytes(), b.to_sorted_bytes());

        let mut c = TagSet::new();
        c.tag(IntVect::new(9, 9, 9));
        c.absorb_bytes(&a.to_sorted_bytes()).expect("whole triples");
        assert_eq!(c.len(), 4);
        assert!(c.contains(IntVect::new(3, 5, -7)));
        assert!(c.contains(IntVect::new(9, 9, 9)));
        // Absorbing again is idempotent (set union).
        c.absorb_bytes(&b.to_sorted_bytes()).expect("whole triples");
        assert_eq!(c.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `absorb_bytes` reads bytes another rank sent: whatever truncation,
        /// extension or stomping does to a valid payload, the result is a
        /// typed error that leaves the set alone or a set holding every
        /// decoded triple — never a panic.
        #[test]
        fn mutated_tag_payloads_decode_or_fail_typed(
            cells in prop::collection::vec((any::<i64>(), any::<i64>(), any::<i64>()), 0..12usize),
            extension in prop::collection::vec(any::<u8>(), 1..48usize),
            stomps in prop::collection::vec((any::<u64>(), any::<u8>()), 0..8usize),
        ) {
            let mut sent = TagSet::new();
            for (x, y, z) in cells {
                sent.tag(IntVect::new(x, y, z));
            }
            let pristine = sent.to_sorted_bytes();
            let mut stomped = pristine.clone();
            for (at, byte) in stomps {
                if !stomped.is_empty() {
                    let at = (at % stomped.len() as u64) as usize;
                    stomped[at] = byte;
                }
            }
            let mut extended = stomped.clone();
            extended.extend_from_slice(&extension);
            let truncations = (0..=pristine.len()).map(|keep| pristine[..keep].to_vec());
            for payload in truncations.chain([stomped, extended]) {
                let mut held = TagSet::new();
                held.tag(IntVect::new(7, 7, 7));
                match held.absorb_bytes(&payload) {
                    Ok(()) => {
                        prop_assert!(payload.len().is_multiple_of(24));
                        prop_assert!(held.contains(IntVect::new(7, 7, 7)));
                        prop_assert!(held.len() <= 1 + payload.len() / 24);
                        if payload == pristine {
                            prop_assert!(sent.iter().all(|p| held.contains(p)));
                        }
                    }
                    Err(e) => {
                        prop_assert!(!payload.len().is_multiple_of(24));
                        prop_assert_eq!(e, MalformedTags { len: payload.len() });
                        prop_assert_eq!(held.len(), 1, "a rejected payload left cells behind");
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_tagging_from_multifab() {
        let bx = IndexBox::from_extents(8, 8, 8);
        let ba = Arc::new(BoxArray::new(vec![bx]));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let mut mf = MultiFab::new(ba, dm, 1, 0);
        mf.fab_mut(0).set(IntVect::new(3, 3, 3), 0, -5.0);
        mf.fab_mut(0).set(IntVect::new(4, 4, 4), 0, 0.5);
        let t = TagSet::tag_where_above(&mf, 0, 1.0);
        assert_eq!(t.len(), 1);
        assert!(t.contains(IntVect::new(3, 3, 3))); // |−5| > 1
    }
}
