//! A sorted-array baseline index over super-covering cells.
//!
//! The paper motivates the radix tree by comparison with "a (sorted)
//! vector" probed by binary search: the trie's O(k) comparison-free descent
//! versus O(log n) comparisons. This module materializes that alternative
//! so the claim is measurable (ablation A4 in DESIGN.md): the *same*
//! super-covering cells, stored as parallel sorted arrays of
//! `[range_min, range_max]` with the same tagged 4-byte slot values as the trie,
//! probed by binary search on the query's leaf id.
//!
//! Because super-covering cells are disjoint, a leaf id is contained in at
//! most one `[range_min, range_max]` interval — the one with the greatest
//! `range_min` ≤ leaf id, found by one partition-point search.

use crate::lookup::{LookupTable, LookupTableBuilder};
use crate::supercover::SuperCovering;
use crate::trie::{encode_terminal, Probe};
use s2cell::CellId;

/// Sorted-array cell index (binary-search baseline).
#[derive(Debug)]
pub struct SortedCellIndex {
    mins: Vec<u64>,
    maxs: Vec<u64>,
    payloads: Vec<u32>,
    table: LookupTable,
}

impl SortedCellIndex {
    /// Builds from a super covering (cells must be disjoint, which
    /// [`crate::supercover::build_super_covering`] guarantees).
    pub fn build(sc: &SuperCovering) -> SortedCellIndex {
        let mut rows: Vec<(u64, u64, u32)> = Vec::with_capacity(sc.cells.len());
        let mut tb = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            let payload = encode_terminal(refs, &mut tb);
            rows.push((cell.range_min().0, cell.range_max().0, payload));
        }
        rows.sort_unstable_by_key(|r| r.0);
        SortedCellIndex {
            mins: rows.iter().map(|r| r.0).collect(),
            maxs: rows.iter().map(|r| r.1).collect(),
            payloads: rows.iter().map(|r| r.2).collect(),
            table: tb.build(),
        }
    }

    /// Probes with a leaf cell id: binary search for the candidate
    /// interval, one containment check.
    #[inline]
    pub fn lookup(&self, leaf: CellId) -> Probe {
        let id = leaf.0;
        // partition_point returns the first index with min > id; the
        // candidate interval is the one before it.
        let idx = self.mins.partition_point(|&m| m <= id);
        if idx == 0 {
            return Probe::Miss;
        }
        let i = idx - 1;
        if id > self.maxs[i] {
            return Probe::Miss;
        }
        Probe::from_terminal(self.payloads[i])
    }

    /// The shared lookup table for `Probe::Table` results.
    #[inline]
    pub fn table(&self) -> &LookupTable {
        &self.table
    }

    /// Number of indexed cells.
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// True if no cells are indexed.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Heap bytes (two u64 range arrays, the u32 slot array, and the
    /// lookup table).
    pub fn memory_bytes(&self) -> usize {
        (self.mins.len() + self.maxs.len()) * 8
            + self.payloads.len() * 4
            + self.table.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covering::{cover_polygon, CoveringParams};
    use crate::refs::PolygonRef;
    use crate::supercover::{build_from_pairs, build_super_covering};
    use geom::{Coord, Polygon, Ring};
    use s2cell::LatLng;

    fn leaf(lat: f64, lng: f64) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(lat, lng))
    }

    #[test]
    fn empty_index_misses() {
        let idx = SortedCellIndex::build(&SuperCovering::default());
        assert!(idx.is_empty());
        assert_eq!(idx.lookup(leaf(40.7, -74.0)), Probe::Miss);
    }

    #[test]
    fn hit_and_miss() {
        let cell = leaf(40.7580, -73.9855).parent(14);
        let sc = build_from_pairs(vec![(cell, PolygonRef::true_hit(3))]);
        let idx = SortedCellIndex::build(&sc);
        assert_eq!(
            idx.lookup(leaf(40.7580, -73.9855)),
            Probe::One(PolygonRef::true_hit(3))
        );
        assert_eq!(idx.lookup(leaf(41.5, -74.0)), Probe::Miss);
        // Just outside the interval on both sides.
        assert_eq!(idx.lookup(CellId(cell.range_min().0 - 2)), Probe::Miss);
        assert_eq!(idx.lookup(CellId(cell.range_max().0 + 2)), Probe::Miss);
    }

    #[test]
    fn agrees_with_act_on_real_covering() {
        // The binary-search index and the trie must answer identically for
        // the same super covering.
        let poly = Polygon::new(
            Ring::new(vec![
                Coord::new(-74.02, 40.68),
                Coord::new(-73.98, 40.68),
                Coord::new(-73.98, 40.72),
                Coord::new(-74.02, 40.72),
            ]),
            vec![],
        );
        let params = CoveringParams::new(15.0);
        let cov = cover_polygon(&poly, &params).unwrap();
        let sc = build_super_covering(&[cov]);

        let sorted = SortedCellIndex::build(&sc);
        let mut act = crate::trie::Act::new();
        let mut tb = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            act.insert(*cell, refs, &mut tb);
        }

        for i in 0..60 {
            for j in 0..60 {
                let p = leaf(40.67 + 0.001 * i as f64, -74.03 + 0.001 * j as f64);
                assert_eq!(sorted.lookup(p), act.lookup(p), "at ({i},{j})");
            }
        }
    }

    #[test]
    fn memory_accounting() {
        let cell = leaf(40.7, -74.0).parent(12);
        let sc = build_from_pairs(vec![(cell, PolygonRef::true_hit(1))]);
        let idx = SortedCellIndex::build(&sc);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.memory_bytes(), 2 * 8 + 4);
    }
}
