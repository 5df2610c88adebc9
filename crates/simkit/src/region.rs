//! Deterministic mesh partitioning for region-sharded simulation.
//!
//! Conservative parallel discrete-event simulation needs a *lookahead*: a
//! lower bound on how long an event in one partition takes to influence
//! another. In this codebase every inter-router connection is cut by at
//! least one register slice (a two-phase [`crate::Fifo`]), so nothing
//! crosses a link in less than one cycle — one cycle of lookahead, which
//! is exactly the granularity of the engines' `step()` loop. A cycle can
//! therefore be computed *in parallel per region* as long as (a) every
//! component reads only start-of-cycle snapshots (the two-phase
//! [`crate::Fifo`] discipline) and (b) pushes/pops on channels that cross
//! a region boundary are buffered and replayed at a barrier in a fixed
//! order.
//!
//! [`RegionMap`] is the partitioner: it slices a `cols`×`rows` mesh into
//! horizontal bands of whole rows (contiguous router rectangles). Row-major
//! node numbering then makes every region a *contiguous* index range, which
//! keeps per-region component arrays sliceable and the commit order (region
//! 0, region 1, …) identical to ascending node order. The partition depends
//! only on `(cols, rows, regions)` — never on thread timing — so a sharded
//! run is a pure function of its inputs, like the serial engine.
//!
//! [`split_front`] is how an engine hands each region's worker its part:
//! called once per region, in region order, it cuts the next contiguous
//! range off an array with `split_at_mut`, so every worker holds a plain
//! `&mut` to its own components and the borrow checker, not a runtime
//! argument, proves the parts disjoint.
//!
//! # Examples
//!
//! ```
//! use simkit::region::RegionMap;
//!
//! let map = RegionMap::new(4, 4, 3); // 4×4 mesh, up to 3 regions
//! assert_eq!(map.regions(), 3);
//! assert_eq!(map.nodes(0), 0..8);   // rows 0..2
//! assert_eq!(map.nodes(1), 8..12);  // row 2
//! assert_eq!(map.nodes(2), 12..16); // row 3
//! assert_eq!(map.region_of(5), 0);
//! ```

use std::ops::Range;

/// A deterministic partition of a `cols`×`rows` mesh into horizontal bands
/// of whole rows. See the [module documentation](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    cols: usize,
    rows: usize,
    /// `band_rows[r]` = first row of region `r`; one extra entry = `rows`.
    band_rows: Vec<usize>,
    /// Row index → region index, for O(1) [`region_of`](Self::region_of).
    region_of_row: Vec<u32>,
}

impl RegionMap {
    /// Partitions the mesh into `min(regions, rows)` row bands, as evenly
    /// as possible (earlier bands take the remainder rows). `regions == 0`
    /// is treated as 1.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is empty.
    #[must_use]
    pub fn new(cols: usize, rows: usize, regions: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh must be non-empty");
        let regions = regions.clamp(1, rows);
        let (base, extra) = (rows / regions, rows % regions);
        let mut band_rows = Vec::with_capacity(regions + 1);
        let mut region_of_row = Vec::with_capacity(rows);
        let mut row = 0;
        for r in 0..regions {
            band_rows.push(row);
            let height = base + usize::from(r < extra);
            for _ in 0..height {
                region_of_row.push(r as u32);
            }
            row += height;
        }
        band_rows.push(rows);
        debug_assert_eq!(row, rows);
        Self {
            cols,
            rows,
            band_rows,
            region_of_row,
        }
    }

    /// Number of regions in the partition.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.band_rows.len() - 1
    }

    /// Mesh width the map was built for.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mesh height the map was built for.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total node count (`cols * rows`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The region owning `node` (row-major node numbering).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[must_use]
    pub fn region_of(&self, node: usize) -> usize {
        self.region_of_row[node / self.cols] as usize
    }

    /// The contiguous node range of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a region index.
    #[must_use]
    pub fn nodes(&self, r: usize) -> Range<usize> {
        self.band_rows[r] * self.cols..self.band_rows[r + 1] * self.cols
    }

    /// Whether `a` and `b` live in different regions — i.e. a channel
    /// between them crosses a region boundary and must be mirrored.
    #[must_use]
    pub fn is_boundary(&self, a: usize, b: usize) -> bool {
        self.region_of(a) != self.region_of(b)
    }
}

/// Splits the first `len` elements off the front of `rest` and returns
/// them, leaving the remainder in `rest`. Called once per region in region
/// order with each region's share of an array, it yields the regions'
/// disjoint `&mut` parts — the safe `split_at_mut` form of handing every
/// worker its own components.
///
/// # Panics
///
/// Panics if `rest` holds fewer than `len` elements.
///
/// # Examples
///
/// ```
/// use simkit::region::split_front;
///
/// let mut data = [0, 1, 2, 3, 4];
/// let mut rest = &mut data[..];
/// let a = split_front(&mut rest, 2);
/// let b = split_front(&mut rest, 3);
/// a[0] = 10;
/// b[2] = 40;
/// assert!(rest.is_empty());
/// assert_eq!(data, [10, 1, 2, 3, 40]);
/// ```
pub fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    rest.split_off_mut(..len)
        .expect("region part runs past the end of the array")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_the_mesh_exactly_once() {
        for (cols, rows, regions) in [(4, 4, 1), (4, 4, 4), (5, 7, 3), (3, 16, 4), (8, 8, 5)] {
            let map = RegionMap::new(cols, rows, regions);
            let mut seen = vec![false; cols * rows];
            for r in 0..map.regions() {
                for n in map.nodes(r) {
                    assert!(!seen[n], "node {n} in two regions");
                    seen[n] = true;
                    assert_eq!(map.region_of(n), r);
                }
            }
            assert!(seen.iter().all(|&s| s), "{cols}x{rows}/{regions}");
        }
    }

    #[test]
    fn regions_clamped_to_rows() {
        let map = RegionMap::new(4, 3, 16);
        assert_eq!(map.regions(), 3);
        let map = RegionMap::new(4, 3, 0);
        assert_eq!(map.regions(), 1);
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let a = RegionMap::new(16, 16, 4);
        let b = RegionMap::new(16, 16, 4);
        assert_eq!(a, b);
        // 16 rows over 4 regions: 4 rows each.
        for r in 0..4 {
            assert_eq!(a.nodes(r).len(), 4 * 16);
        }
        // 7 rows over 3 regions: 3, 2, 2.
        let c = RegionMap::new(2, 7, 3);
        assert_eq!(
            (0..3).map(|r| c.nodes(r).len() / 2).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
    }

    #[test]
    fn boundary_is_region_inequality() {
        let map = RegionMap::new(4, 4, 2); // rows 0..2 | rows 2..4
        assert!(!map.is_boundary(0, 4)); // rows 0-1: same band
        assert!(map.is_boundary(4, 8)); // rows 1-2: crosses the cut
        assert!(!map.is_boundary(8, 12));
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn split_front_refuses_a_part_past_the_end() {
        let mut data = [0u8; 3];
        let mut rest = &mut data[..];
        let _ = split_front(&mut rest, 2);
        let _ = split_front(&mut rest, 2);
    }
}
