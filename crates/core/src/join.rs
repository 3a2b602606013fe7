//! The streaming point-polygon join: probe, classify, aggregate.
//!
//! The paper's evaluation joins a stream of points against the indexed
//! polygons and *counts the number of points per polygon*. Two modes:
//!
//! * **Approximate** (the paper's contribution): every reference returned
//!   by the probe counts — true hits are exact, candidate hits may be false
//!   positives within ε of the polygon. No geometry is touched; the
//!   refinement phase is entirely avoided.
//! * **Exact** (validation / classical filter-and-refine): true hits count
//!   directly, candidate hits are refined with a point-in-polygon test.
//!
//! The multithreaded driver partitions the point stream into contiguous
//! chunks, one per thread, each with a private counter array — no shared
//! mutable state, no atomics; counters are merged at the end. This mirrors
//! the paper's scalability experiment (Figure 4).

use crate::index::ActIndex;
use crate::trie::Probe;
use geom::{Coord, PreparedPolygon};
use s2cell::CellId;

/// Aggregate outcome of a join run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Points probed.
    pub points: u64,
    /// Probe outcomes that were true hits (counted without refinement).
    pub true_hits: u64,
    /// Probe outcomes that were candidate hits.
    pub candidate_hits: u64,
    /// Points matching no indexed cell.
    pub misses: u64,
    /// Candidate hits that survived refinement (exact mode only).
    pub refined_hits: u64,
}

/// Default points per [`join_approx_cells_batch`] block: enough lanes to
/// saturate the memory pipeline's outstanding-miss capacity, small enough
/// that lane state stays in registers/L1.
///
/// Tradeoff: batching pays for itself when probes miss cache — the larger
/// tries in `BENCH_probe.json` gain ~1.3–1.5× — but on indexes whose hot
/// node set is cache-resident (few polygons, shallow probe termination)
/// the lane bookkeeping can cost ~10%. Workloads in that regime should
/// pass `batch = 1` to [`join_approx_cells_batch`] /
/// [`join_parallel_cells_batch`], which degenerates to scalar probing.
pub const DEFAULT_PROBE_BATCH: usize = 64;

/// Counts points per polygon in **approximate** mode from precomputed leaf
/// cell ids (the measured hot path of the paper's Figure 3), probing one
/// point at a time. [`join_approx_cells_batch`] is the faster batched
/// variant; this scalar loop stays as the reference implementation.
pub fn join_approx_cells(index: &ActIndex, cells: &[CellId], counts: &mut [u64]) -> JoinStats {
    let mut stats = JoinStats {
        points: cells.len() as u64,
        ..JoinStats::default()
    };
    let (view, table) = (index.as_view(), index.table());
    for &cell in cells {
        accumulate(view.probe_cell(cell), table, counts, &mut stats);
    }
    stats
}

/// [`join_approx_cells`] with batched trie probes: points are processed in
/// blocks of `batch` (see [`DEFAULT_PROBE_BATCH`]) via
/// [`crate::ActIndexView::probe_batch`], overlapping the dependent loads
/// of different keys in the memory pipeline. Counts and stats are identical
/// to the scalar loop for any `batch`; `batch == 0` is treated as 1.
pub fn join_approx_cells_batch(
    index: &ActIndex,
    cells: &[CellId],
    counts: &mut [u64],
    batch: usize,
) -> JoinStats {
    let mut stats = JoinStats {
        points: cells.len() as u64,
        ..JoinStats::default()
    };
    let batch = batch.clamp(1, cells.len().max(1));
    let (view, table) = (index.as_view(), index.table());
    let mut probes = vec![Probe::Miss; batch];
    for chunk in cells.chunks(batch) {
        let out = &mut probes[..chunk.len()];
        view.probe_batch(chunk, out);
        for &p in out.iter() {
            accumulate(p, table, counts, &mut stats);
        }
    }
    stats
}

/// Approximate join from raw coordinates (includes the point→cell
/// conversion in the measured work).
pub fn join_approx_coords(index: &ActIndex, coords: &[Coord], counts: &mut [u64]) -> JoinStats {
    let mut stats = JoinStats {
        points: coords.len() as u64,
        ..JoinStats::default()
    };
    let (view, table) = (index.as_view(), index.table());
    for &c in coords {
        accumulate(view.probe_coord(c), table, counts, &mut stats);
    }
    stats
}

#[inline]
fn accumulate(
    probe: Probe,
    table: &crate::lookup::LookupTable,
    counts: &mut [u64],
    stats: &mut JoinStats,
) {
    match probe {
        Probe::Miss => stats.misses += 1,
        Probe::One(r) => {
            counts[r.id as usize] += 1;
            if r.interior {
                stats.true_hits += 1;
            } else {
                stats.candidate_hits += 1;
            }
        }
        Probe::Table(off) => {
            let (trues, cands) = table.decode(off);
            for &id in trues {
                counts[id as usize] += 1;
            }
            for &id in cands {
                counts[id as usize] += 1;
            }
            stats.true_hits += trues.len() as u64;
            stats.candidate_hits += cands.len() as u64;
        }
    }
}

/// A refinement engine for exact mode: prepared polygons for fast PIP.
#[derive(Debug)]
pub struct Refiner {
    prepared: Vec<PreparedPolygon>,
}

impl Refiner {
    /// Prepares all polygons (one-time cost).
    pub fn new(polygons: &[geom::Polygon]) -> Refiner {
        Refiner {
            prepared: polygons
                .iter()
                .map(|p| PreparedPolygon::new(p, 0))
                .collect(),
        }
    }

    /// Exact containment test for polygon `id`.
    #[inline]
    pub fn contains(&self, id: u32, c: Coord) -> bool {
        self.prepared[id as usize].contains(c)
    }

    /// Number of prepared polygons.
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// True if no polygons were prepared.
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }
}

/// **Exact** join: candidates are refined by point-in-polygon tests. True
/// hits skip refinement — the paper's true-hit-filtering benefit carries
/// over to exact joins as avoided PIP calls (tracked in
/// [`JoinStats::candidate_hits`] vs [`JoinStats::true_hits`]).
pub fn join_exact(
    index: &ActIndex,
    refiner: &Refiner,
    coords: &[Coord],
    counts: &mut [u64],
) -> JoinStats {
    let mut stats = JoinStats {
        points: coords.len() as u64,
        ..JoinStats::default()
    };
    let (view, table) = (index.as_view(), index.table());
    for &c in coords {
        match view.probe_coord(c) {
            Probe::Miss => stats.misses += 1,
            Probe::One(r) => refine_one(r.id, r.interior, c, refiner, counts, &mut stats),
            Probe::Table(off) => {
                let (trues, cands) = table.decode(off);
                for &id in trues {
                    counts[id as usize] += 1;
                    stats.true_hits += 1;
                }
                for &id in cands {
                    stats.candidate_hits += 1;
                    if refiner.contains(id, c) {
                        counts[id as usize] += 1;
                        stats.refined_hits += 1;
                    }
                }
            }
        }
    }
    stats
}

#[inline]
fn refine_one(
    id: u32,
    interior: bool,
    c: Coord,
    refiner: &Refiner,
    counts: &mut [u64],
    stats: &mut JoinStats,
) {
    if interior {
        counts[id as usize] += 1;
        stats.true_hits += 1;
    } else {
        stats.candidate_hits += 1;
        if refiner.contains(id, c) {
            counts[id as usize] += 1;
            stats.refined_hits += 1;
        }
    }
}

/// Multithreaded approximate join over precomputed cell ids, probing in
/// blocks of `batch` lanes inside each worker (see
/// [`DEFAULT_PROBE_BATCH`]; `batch == 0` or `1` degenerates to scalar
/// probing).
///
/// Partitions `cells` into `threads` contiguous chunks on a [`jobs::JobPool`]
/// with per-chunk counter arrays — no shared mutable state, no atomics;
/// counters are merged after the pool drains. Returns the merged counts and
/// stats, bit-identical to the sequential join.
pub fn join_parallel_cells_batch(
    index: &ActIndex,
    cells: &[CellId],
    num_polygons: usize,
    threads: usize,
    batch: usize,
) -> (Vec<u64>, JoinStats) {
    let pool = jobs::JobPool::new(threads);
    let chunk = cells.len().div_ceil(threads).max(1);
    let results = pool.map_range(0..cells.len(), chunk, |r| {
        let mut counts = vec![0u64; num_polygons];
        let stats = join_approx_cells_batch(index, &cells[r], &mut counts, batch);
        (counts, stats)
    });
    let mut counts = vec![0u64; num_polygons];
    let mut stats = JoinStats::default();
    for (c, s) in results {
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
        stats.points += s.points;
        stats.true_hits += s.true_hits;
        stats.candidate_hits += s.candidate_hits;
        stats.misses += s.misses;
        stats.refined_hits += s.refined_hits;
    }
    (counts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::coord_to_cell;
    use geom::{Polygon, Ring};

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        )
    }

    fn setup() -> (Vec<Polygon>, ActIndex) {
        let polys = vec![square(-74.05, 40.70, 0.02), square(-73.95, 40.70, 0.02)];
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        (polys, idx)
    }

    fn test_points() -> Vec<Coord> {
        let mut pts = Vec::new();
        // 10 points deep in polygon 0, 5 in polygon 1, 5 outside all.
        for k in 0..10 {
            pts.push(Coord::new(-74.05 + 0.001 * k as f64, 40.70));
        }
        for k in 0..5 {
            pts.push(Coord::new(-73.95 + 0.001 * k as f64, 40.70));
        }
        for k in 0..5 {
            pts.push(Coord::new(-74.2, 40.88 + 0.001 * k as f64));
        }
        pts
    }

    #[test]
    fn approx_counts_match_geometry() {
        let (_, idx) = setup();
        let pts = test_points();
        let mut counts = vec![0u64; 2];
        let stats = join_approx_coords(&idx, &pts, &mut counts);
        assert_eq!(counts, vec![10, 5]);
        assert_eq!(stats.points, 20);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.true_hits + stats.candidate_hits, 15);
        // Deep-interior points should be true hits.
        assert!(stats.true_hits >= 13);
    }

    #[test]
    fn cells_and_coords_paths_agree() {
        let (_, idx) = setup();
        let pts = test_points();
        let cells: Vec<CellId> = pts.iter().map(|&c| coord_to_cell(c)).collect();
        let mut c1 = vec![0u64; 2];
        let mut c2 = vec![0u64; 2];
        let s1 = join_approx_coords(&idx, &pts, &mut c1);
        let s2 = join_approx_cells(&idx, &cells, &mut c2);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn exact_equals_brute_force() {
        let (polys, idx) = setup();
        let refiner = Refiner::new(&polys);
        // Points including some within ε of the boundary.
        let mut pts = test_points();
        for k in 0..20 {
            pts.push(Coord::new(
                -74.07 + 0.002 * k as f64,
                40.68 + 0.0001 * k as f64,
            ));
        }
        let mut exact = vec![0u64; 2];
        join_exact(&idx, &refiner, &pts, &mut exact);
        // Brute force.
        let mut brute = vec![0u64; 2];
        for &c in &pts {
            for (i, _p) in polys.iter().enumerate() {
                // Use the same PIP engine as the refiner for boundary-rule
                // consistency.
                if refiner.contains(i as u32, c) {
                    brute[i] += 1;
                }
            }
        }
        assert_eq!(exact, brute);
    }

    #[test]
    fn approx_overcounts_only_within_epsilon() {
        let (polys, idx) = setup();
        let pts = test_points();
        let mut approx = vec![0u64; 2];
        join_approx_coords(&idx, &pts, &mut approx);
        // Every approximate hit must be within ε of the polygon.
        for &c in &pts {
            for (id, _) in idx.as_view().lookup_refs(c) {
                let d = polys[id as usize].distance_meters(c);
                assert!(
                    d <= idx.stats().precision_m,
                    "approx hit at distance {d} exceeds ε"
                );
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (_, idx) = setup();
        let pts = test_points();
        let cells: Vec<CellId> = pts.iter().map(|&c| coord_to_cell(c)).collect();
        let mut seq = vec![0u64; 2];
        let seq_stats = join_approx_cells(&idx, &cells, &mut seq);
        for threads in [1usize, 2, 3, 8] {
            let (par, par_stats) =
                join_parallel_cells_batch(&idx, &cells, 2, threads, DEFAULT_PROBE_BATCH);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_stats, seq_stats, "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let (_, idx) = setup();
        let mut counts = vec![0u64; 2];
        let stats = join_approx_cells(&idx, &[], &mut counts);
        assert_eq!(stats.points, 0);
        let (par, _) = join_parallel_cells_batch(&idx, &[], 2, 4, DEFAULT_PROBE_BATCH);
        assert_eq!(par, vec![0, 0]);
        let stats = join_approx_cells_batch(&idx, &[], &mut counts, 64);
        assert_eq!(stats.points, 0);
    }

    #[test]
    fn batched_equals_scalar_for_any_batch_size() {
        let (_, idx) = setup();
        let pts = test_points();
        let cells: Vec<CellId> = pts.iter().map(|&c| coord_to_cell(c)).collect();
        let mut scalar = vec![0u64; 2];
        let scalar_stats = join_approx_cells(&idx, &cells, &mut scalar);
        for batch in [0usize, 1, 2, 7, 64, 256, 1000] {
            let mut counts = vec![0u64; 2];
            let stats = join_approx_cells_batch(&idx, &cells, &mut counts, batch);
            assert_eq!(counts, scalar, "batch={batch}");
            assert_eq!(stats, scalar_stats, "batch={batch}");
        }
    }

    #[test]
    fn parallel_batch_equals_sequential() {
        let (_, idx) = setup();
        let pts = test_points();
        let cells: Vec<CellId> = pts.iter().map(|&c| coord_to_cell(c)).collect();
        let mut seq = vec![0u64; 2];
        let seq_stats = join_approx_cells(&idx, &cells, &mut seq);
        for (threads, batch) in [(2usize, 1usize), (3, 8), (4, 64)] {
            let (par, par_stats) = join_parallel_cells_batch(&idx, &cells, 2, threads, batch);
            assert_eq!(par, seq, "threads={threads} batch={batch}");
            assert_eq!(par_stats, seq_stats, "threads={threads} batch={batch}");
        }
    }
}
