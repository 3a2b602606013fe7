//! Adaptive and memory-budgeted ACT variants.
//!
//! The paper's introduction sketches two deployment modes beyond the basic
//! index (§I, last paragraph):
//!
//! 1. **Memory budget**: "If ACT cannot guarantee the desired precision
//!    given a certain memory budget, the refinement phase clearly cannot be
//!    omitted." — [`build_with_budget`] finds the finest terminal level
//!    whose index fits the budget and reports the achieved precision and
//!    whether the requested guarantee holds (if not, exact mode /
//!    refinement must be used for candidates).
//!
//! 2. **Query-adaptive refinement**: "Our solution is to adaptively alter
//!    the trie structure based on the distribution of query points to
//!    provide higher precision where it is actually needed. Thus, the
//!    probability for true hits increases, false positives are reduced." —
//!    [`AdaptiveIndex`] starts from a coarse base index and, given a sample
//!    of query traffic, re-covers the *hottest candidate cells* at the
//!    target precision, turning most of their area into true-hit interior
//!    cells. The paper defers this to future work; this is a faithful
//!    realization of the sketch.

use crate::covering::{cover_uv_polygon, cover_uv_polygon_within, CoveringParams};
use crate::index::ActIndex;
use crate::refs::PolygonRef;
use crate::supercover::build_from_pairs;
use crate::trie::{Probe, GRANULARITY};
use crate::uvpoly::{MultiFaceError, UvPolygon};
use geom::Polygon;
use s2cell::{metrics, CellId};
use std::collections::HashMap;

/// Result of a budget-constrained build.
#[derive(Debug)]
pub struct BudgetedBuild {
    /// The built index (at the finest precision that fit).
    pub index: ActIndex,
    /// The precision the index actually guarantees (max cell diagonal of
    /// its terminal level), in meters.
    pub achieved_precision_m: f64,
    /// True if `achieved ≤ requested`: the approximate join satisfies the
    /// requested ε without refinement.
    pub guaranteed: bool,
}

/// Builds the finest index that fits in `budget_bytes` (trie + lookup
/// table), starting from the level that guarantees `target_precision_m`
/// and coarsening one level at a time.
///
/// Returns an error if any polygon spans multiple cube faces.
pub fn build_with_budget(
    polygons: &[Polygon],
    target_precision_m: f64,
    budget_bytes: usize,
) -> Result<BudgetedBuild, MultiFaceError> {
    let target_level = metrics::level_for_max_diag_meters(target_precision_m);
    let mut level = target_level;
    loop {
        let precision = metrics::max_diag_meters(level);
        let index = ActIndex::build(polygons, precision)?;
        if index.memory_bytes() <= budget_bytes || level <= 4 {
            return Ok(BudgetedBuild {
                achieved_precision_m: precision,
                guaranteed: level >= target_level,
                index,
            });
        }
        level -= 1;
    }
}

/// Configuration of the query-adaptive index.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveParams {
    /// The precision hot regions are refined to.
    pub target_precision_m: f64,
    /// The precision of the coarse base build (must be ≥ target).
    pub base_precision_m: f64,
    /// Hard cap on total index memory after adaptation.
    pub budget_bytes: usize,
    /// At most this many hot cells are refined per [`AdaptiveIndex::adapt`]
    /// call.
    pub max_refined_cells: usize,
}

/// Outcome of one adaptation round.
#[derive(Debug, Clone, Default)]
pub struct AdaptReport {
    /// Cells actually refined this round.
    pub refined_cells: usize,
    /// Candidate (non-true-hit) probe fraction on the sample, before.
    pub candidate_rate_before: f64,
    /// Candidate probe fraction on the sample, after.
    pub candidate_rate_after: f64,
    /// Index bytes before / after.
    pub bytes_before: usize,
    pub bytes_after: usize,
}

/// An ACT index that refines itself where query traffic concentrates.
#[derive(Debug)]
pub struct AdaptiveIndex {
    index: ActIndex,
    uvpolys: Vec<UvPolygon>,
    params: AdaptiveParams,
    /// Current cell set as raw pairs (regenerated on each adaptation).
    pairs: Vec<(CellId, PolygonRef)>,
}

impl AdaptiveIndex {
    /// Builds the coarse base index.
    pub fn build(
        polygons: &[Polygon],
        params: AdaptiveParams,
    ) -> Result<AdaptiveIndex, MultiFaceError> {
        assert!(
            params.base_precision_m >= params.target_precision_m,
            "base precision must be coarser than (≥) the target"
        );
        let base = CoveringParams::new(params.base_precision_m);
        let mut pairs = Vec::new();
        let mut uvpolys = Vec::with_capacity(polygons.len());
        for (id, poly) in polygons.iter().enumerate() {
            let uv = UvPolygon::from_polygon(poly)?;
            let cov = cover_uv_polygon(&uv, &base);
            for &(cell, interior) in &cov.cells {
                pairs.push((
                    cell,
                    PolygonRef {
                        id: id as u32,
                        interior,
                    },
                ));
            }
            uvpolys.push(uv);
        }
        let index = rebuild(&pairs, base);
        Ok(AdaptiveIndex {
            index,
            uvpolys,
            params,
            pairs,
        })
    }

    /// The current queryable index.
    #[inline]
    pub fn index(&self) -> &ActIndex {
        &self.index
    }

    /// Observes a sample of query traffic and refines the hottest candidate
    /// regions to the target precision, within the memory budget.
    ///
    /// Returns the adaptation report; calling it again with fresh samples
    /// continues refining (already-refined regions no longer produce
    /// coarse candidates, so the heat moves on).
    pub fn adapt(&mut self, sample: &[CellId]) -> AdaptReport {
        let mut report = AdaptReport {
            bytes_before: self.index.memory_bytes(),
            ..AdaptReport::default()
        };

        // 1. Heat map over slot-level cells whose probe was (partly) a
        //    candidate.
        let mut heat: HashMap<CellId, u64> = HashMap::new();
        let hot_slots = candidate_slots(&self.index, sample);
        for &slot in &hot_slots {
            *heat.entry(slot).or_insert(0) += 1;
        }
        report.candidate_rate_before = hot_slots.len() as f64 / sample.len().max(1) as f64;
        if heat.is_empty() {
            report.candidate_rate_after = report.candidate_rate_before;
            report.bytes_after = report.bytes_before;
            return report;
        }

        // 2. Hottest slot cells first.
        let mut hot: Vec<(CellId, u64)> = heat.into_iter().collect();
        hot.sort_unstable_by_key(|&(_, count)| std::cmp::Reverse(count));
        hot.truncate(self.params.max_refined_cells);

        // 3. Replace the candidate references of every indexed cell that
        //    overlaps a hot slot cell with a finer re-covering of that cell.
        let target = CoveringParams::new(self.params.target_precision_m);
        let mut refined = 0usize;
        for (hot_cell, _) in hot {
            let mut new_pairs: Vec<(CellId, PolygonRef)> = Vec::new();
            let mut touched = false;
            self.pairs.retain(|&(cell, r)| {
                let overlaps = cell.contains(hot_cell) || hot_cell.contains(cell);
                if !overlaps || r.interior || cell.level() >= target.terminal_level() {
                    return true;
                }
                // Re-cover polygon r.id within the indexed cell at the
                // target precision.
                let cov = cover_uv_polygon_within(&self.uvpolys[r.id as usize], &target, cell);
                for &(c, interior) in &cov.cells {
                    new_pairs.push((c, PolygonRef { id: r.id, interior }));
                }
                touched = true;
                false
            });
            if touched {
                refined += 1;
                self.pairs.append(&mut new_pairs);
            }
        }
        report.refined_cells = refined;

        // 4. Rebuild. Refinement never degrades correctness (finer cells
        //    satisfy a stricter bound), so the new index is always adopted;
        //    a budget overshoot is surfaced via bytes_after > budget_bytes,
        //    which callers use as the signal to stop adapting.
        let base = CoveringParams::new(self.params.base_precision_m);
        self.index = rebuild(&self.pairs, base);
        report.bytes_after = self.index.memory_bytes();

        // 5. Post-adaptation candidate rate on the same sample.
        let after = candidate_slots(&self.index, sample).len();
        report.candidate_rate_after = after as f64 / sample.len().max(1) as f64;
        report
    }
}

/// The slot-level cell (the quadtree cell of the trie slot that ended
/// the walk) of every sample probe that returned a candidate, from one
/// batched walk over the sample.
fn candidate_slots(index: &ActIndex, sample: &[CellId]) -> Vec<CellId> {
    let mut probes = vec![Probe::Miss; sample.len()];
    let mut depths = vec![0u8; sample.len()];
    index
        .as_view()
        .probe_batch_depths(sample, &mut probes, &mut depths);
    sample
        .iter()
        .zip(probes.into_iter().zip(depths))
        .filter(|&(_, (probe, _))| probe_has_candidate(probe, index))
        .map(|(q, (_, depth))| q.parent(depth * GRANULARITY))
        .collect()
}

fn probe_has_candidate(probe: Probe, index: &ActIndex) -> bool {
    match probe {
        Probe::Miss => false,
        Probe::One(r) => !r.interior,
        Probe::Table(off) => !index.table().decode(off).1.is_empty(),
    }
}

fn rebuild(pairs: &[(CellId, PolygonRef)], params: CoveringParams) -> ActIndex {
    let sc = build_from_pairs(pairs.to_vec());
    ActIndex::from_supercover(sc, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::coord_to_cell;
    use geom::{Coord, Ring};

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

    #[test]
    fn budgeted_build_tight_budget_degrades_gracefully() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        // A budget too small for 4 m must coarsen and report no guarantee.
        let tight = build_with_budget(&polys, 4.0, 200_000).unwrap();
        assert!(!tight.guaranteed);
        assert!(tight.achieved_precision_m > 4.0);
        assert!(tight.index.memory_bytes() <= 200_000);
        // A generous budget keeps the target precision.
        let roomy = build_with_budget(&polys, 15.0, 64 << 20).unwrap();
        assert!(roomy.guaranteed);
        assert!(roomy.achieved_precision_m <= 15.0);
    }

    #[test]
    fn budgeted_build_never_violates_achieved_precision() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        let b = build_with_budget(&polys, 4.0, 300_000).unwrap();
        // Every approximate hit is within the *achieved* precision.
        for k in 0..500 {
            let p = Coord::new(-74.03 + 0.00012 * k as f64, 40.7);
            for (id, _) in b.index.as_view().lookup_refs(p) {
                assert!(
                    polys[id as usize].distance_meters(p) <= b.achieved_precision_m * 1.0001,
                    "violation at {p}"
                );
            }
        }
    }

    #[test]
    fn adaptive_reduces_candidate_rate_where_it_is_hot() {
        let polys = vec![square(-74.0, 40.7, 0.02), square(-73.95, 40.7, 0.02)];
        let params = AdaptiveParams {
            target_precision_m: 4.0,
            base_precision_m: 60.0,
            budget_bytes: 256 << 20,
            max_refined_cells: 512,
        };
        let mut adaptive = AdaptiveIndex::build(&polys, params).unwrap();

        // Query traffic concentrated on one edge of polygon 0 (boundary
        // hits ⇒ coarse candidates).
        let sample: Vec<CellId> = (0..4000)
            .map(|k| {
                coord_to_cell(Coord::new(
                    -74.02 + 0.000002 * (k % 40) as f64,
                    40.69 + 0.00001 * k as f64,
                ))
            })
            .collect();

        let report = adaptive.adapt(&sample);
        assert!(report.refined_cells > 0, "hot cells must be refined");
        assert!(
            report.candidate_rate_after < report.candidate_rate_before,
            "adaptation must reduce the candidate rate: {report:?}"
        );

        // Correctness is preserved: sample points inside polygon 0 are
        // still reported.
        for &q in sample.iter().step_by(97) {
            let center = q.to_latlng();
            let c = Coord::new(center.lng_degrees(), center.lat_degrees());
            let inside: Vec<u32> = (0..polys.len() as u32)
                .filter(|&i| polys[i as usize].contains(c))
                .collect();
            let reported: Vec<u32> = adaptive
                .index()
                .as_view()
                .lookup_refs(c)
                .iter()
                .map(|&(id, _)| id)
                .collect();
            for id in inside {
                assert!(reported.contains(&id), "lost polygon {id} at {c}");
            }
        }
    }

    #[test]
    fn adapt_with_no_candidates_is_a_noop() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        let params = AdaptiveParams {
            target_precision_m: 15.0,
            base_precision_m: 60.0,
            budget_bytes: 256 << 20,
            max_refined_cells: 64,
        };
        let mut adaptive = AdaptiveIndex::build(&polys, params).unwrap();
        // Deep-interior traffic only: all true hits.
        let sample: Vec<CellId> = (0..500)
            .map(|k| coord_to_cell(Coord::new(-74.0 + 0.00001 * k as f64, 40.7)))
            .collect();
        let bytes = adaptive.index().memory_bytes();
        let report = adaptive.adapt(&sample);
        assert_eq!(report.refined_cells, 0);
        assert_eq!(adaptive.index().memory_bytes(), bytes);
    }
}
