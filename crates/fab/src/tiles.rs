//! Logical tiling of patches (BoxLib/AMReX tiling, the paper's ref. \[24\]).
//!
//! Large patches are traversed as a sequence of cache-sized *tiles*: the
//! `MFIter`-with-tiling pattern that keeps stencil working sets resident in
//! cache and exposes finer-grained parallelism than whole patches. Tiles are
//! a pure index-space decomposition — no data is copied.

use crocco_geometry::{IndexBox, IntVect};

/// Splits `bx` into tiles no larger than `tile` in each direction. Tiles
/// partition the box exactly (no overlap, full coverage), in z-then-y-then-x
/// order.
pub fn tile_boxes(bx: IndexBox, tile: IntVect) -> Vec<IndexBox> {
    assert!((0..3).all(|d| tile[d] > 0), "tile extents must be positive");
    let mut out = Vec::new();
    let lo = bx.lo();
    let hi = bx.hi();
    let mut kz = lo[2];
    while kz <= hi[2] {
        let z1 = (kz + tile[2] - 1).min(hi[2]);
        let mut ky = lo[1];
        while ky <= hi[1] {
            let y1 = (ky + tile[1] - 1).min(hi[1]);
            let mut kx = lo[0];
            while kx <= hi[0] {
                let x1 = (kx + tile[0] - 1).min(hi[0]);
                out.push(IndexBox::new(
                    IntVect::new(kx, ky, kz),
                    IntVect::new(x1, y1, z1),
                ));
                kx = x1 + 1;
            }
            ky = y1 + 1;
        }
        kz = z1 + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_the_box() {
        let bx = IndexBox::from_extents(20, 12, 10);
        let tiles = tile_boxes(bx, IntVect::new(8, 5, 4));
        let total: u64 = tiles.iter().map(|t| t.num_points()).sum();
        assert_eq!(total, bx.num_points());
        for (i, a) in tiles.iter().enumerate() {
            assert!(bx.contains_box(a));
            assert!(a.size()[0] <= 8 && a.size()[1] <= 5 && a.size()[2] <= 4);
            for b in &tiles[i + 1..] {
                assert!(!a.intersects(b));
            }
        }
        // ceil(20/8)·ceil(12/5)·ceil(10/4) = 3·3·3.
        assert_eq!(tiles.len(), 27);
    }

    #[test]
    fn pencil_tiles_never_split_x() {
        let bx = IndexBox::from_extents(64, 32, 32);
        let tiles = tile_boxes(bx, IntVect::new(1_000_000, 8, 8));
        // Never split in x.
        assert!(tiles.iter().all(|t| t.size()[0] == 64));
        assert_eq!(tiles.len(), (32 / 8) * (32 / 8));
    }

    #[test]
    fn one_cell_tiles_enumerate_cells() {
        let bx = IndexBox::from_extents(3, 2, 2);
        let tiles = tile_boxes(bx, IntVect::ONE);
        assert_eq!(tiles.len(), 12);
        assert!(tiles.iter().all(|t| t.num_points() == 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The exact-partition contract under arbitrary box origins, box
        /// extents, and tile shapes — including every remainder case: no
        /// overlap, no gap, every tile within bounds and within the
        /// requested shape, and each direction split into full-size tiles
        /// plus at most one remainder of exactly `extent mod tile` cells.
        #[test]
        fn tiles_partition_exactly(
            ox in -5i64..5,
            oy in -5i64..5,
            oz in -5i64..5,
            nx in 1i64..24,
            ny in 1i64..16,
            nz in 1i64..12,
            tx in 1i64..30,
            ty in 1i64..20,
            tz in 1i64..14,
        ) {
            use proptest::prelude::prop_assert;
            use proptest::prelude::prop_assert_eq;
            let lo = IntVect::new(ox, oy, oz);
            let bx = IndexBox::new(lo, lo + IntVect::new(nx - 1, ny - 1, nz - 1));
            let tile = IntVect::new(tx, ty, tz);
            let tiles = tile_boxes(bx, tile);

            // Expected tile count: ceil(n/t) per direction.
            let ceil = |n: i64, t: i64| (n + t - 1) / t;
            prop_assert_eq!(
                tiles.len() as i64,
                ceil(nx, tx) * ceil(ny, ty) * ceil(nz, tz)
            );

            // No gap: total points match. No overlap: pairwise disjoint.
            // Together: every cell lies in exactly one tile.
            let total: u64 = tiles.iter().map(|t| t.num_points()).sum();
            prop_assert_eq!(total, bx.num_points());
            for (i, a) in tiles.iter().enumerate() {
                prop_assert!(bx.contains_box(a));
                for d in 0..3 {
                    prop_assert!(a.size()[d] <= tile[d]);
                }
                for b in &tiles[i + 1..] {
                    prop_assert!(!a.intersects(b));
                }
            }

            // Remainder handling per direction: interior tiles are
            // full-size; only a tile touching the high edge may be the
            // (nonzero) remainder.
            for t in &tiles {
                for d in 0..3 {
                    let n = [nx, ny, nz][d];
                    let want = [tx, ty, tz][d].min(n);
                    if t.hi()[d] == bx.hi()[d] {
                        let rem = n % [tx, ty, tz][d];
                        let edge = if rem == 0 { want } else { rem };
                        prop_assert_eq!(t.size()[d], edge);
                    } else {
                        prop_assert_eq!(t.size()[d], want);
                    }
                }
            }
        }
    }
}
