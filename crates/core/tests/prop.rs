//! Property-based tests for the ACT core: trie ≡ model, super-covering
//! semantics preservation, the precision guarantee, index agreement, and
//! live-mutation (insert/remove/compact) ≡ fresh rebuild.

use act_core::covering::{cover_uv_polygon, covering_bound};
use act_core::snapshot::SnapshotBuf;
use act_core::supercover::build_from_pairs;
use act_core::uvpoly::UvPolygon;
use act_core::{
    ActIndex, CoveringParams, LookupTableBuilder, PolygonRef, Probe, RefSet, SortedCellIndex,
};
use geom::{Coord, Polygon, Ring};
use proptest::prelude::*;
use s2cell::{CellId, LatLng};
use std::collections::BTreeMap;

mod reference;

fn arb_nyc_latlng() -> impl Strategy<Value = LatLng> {
    (40.5f64..40.9, -74.2f64..-73.8).prop_map(|(lat, lng)| LatLng::from_degrees(lat, lng))
}

/// Random (cell, ref) pairs around NYC; cells may duplicate and nest —
/// exactly what the super covering must resolve.
fn arb_pairs() -> impl Strategy<Value = Vec<(CellId, PolygonRef)>> {
    proptest::collection::vec(
        (arb_nyc_latlng(), 6u8..=24, 0u32..6, proptest::bool::ANY),
        1..24,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(ll, level, id, interior)| {
                (
                    CellId::from_latlng(ll).parent(level),
                    PolygonRef { id, interior },
                )
            })
            .collect()
    })
}

/// Pairs drawn from the ancestors of three nearby leaves, so nearly every
/// cell nests in or duplicates another — the push-down's worst case.
fn arb_nested_pairs() -> impl Strategy<Value = Vec<(CellId, PolygonRef)>> {
    (
        arb_nyc_latlng(),
        proptest::collection::vec((0usize..3, 8u8..=20, 0u32..5, proptest::bool::ANY), 1..32),
    )
        .prop_map(|(ll, specs)| {
            let base = CellId::from_latlng(ll);
            let leaves = [
                base,
                base.parent(21).next().range_min(),
                base.parent(16).prev().range_max(),
            ];
            specs
                .into_iter()
                .map(|(k, level, id, interior)| {
                    (leaves[k].parent(level), PolygonRef { id, interior })
                })
                .collect()
        })
}

/// The reference semantics of a covering pair set at a leaf: the merged
/// refs of *all* input cells containing the leaf, true-hit winning on
/// duplicates.
fn model_refs_at(pairs: &[(CellId, PolygonRef)], leaf: CellId) -> Vec<PolygonRef> {
    let mut out: Vec<PolygonRef> = Vec::new();
    for &(cell, r) in pairs {
        if cell.contains(leaf) {
            match out.iter_mut().find(|x| x.id == r.id) {
                Some(x) => x.interior |= r.interior,
                None => out.push(r),
            }
        }
    }
    out.sort_by_key(|r| r.id);
    out
}

fn resolve(index_probe: Probe, table: &act_core::LookupTable) -> Vec<PolygonRef> {
    let mut v: Vec<PolygonRef> = act_core::resolve_probe(index_probe, table)
        .map(|(id, interior)| PolygonRef { id, interior })
        .collect();
    v.sort_by_key(|r| r.id);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flagship property: for ANY set of (possibly nested, possibly
    /// duplicated) covering pairs, the super covering + trie answer every
    /// leaf query exactly like the naive "check all cells" model.
    #[test]
    fn supercover_and_trie_preserve_semantics(pairs in arb_pairs(), probes in proptest::collection::vec(arb_nyc_latlng(), 16)) {
        let sc = build_from_pairs(pairs.clone());

        // Structural invariant: cells are unique and non-nested.
        let mut sorted: Vec<CellId> = sc.cells.iter().map(|(c, _)| *c).collect();
        sorted.sort_by_key(|c| c.range_min().0);
        for w in sorted.windows(2) {
            prop_assert!(w[0].range_max().0 < w[1].range_min().0,
                "cells overlap: {:?} {:?}", w[0], w[1]);
        }

        // Build the trie.
        let mut act = act_core::Act::new();
        let mut tb = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            act.insert(*cell, refs, &mut tb);
        }
        let table = tb.build();

        // Semantic equivalence at probe leaves + at every input cell's
        // own center leaf (guaranteed interesting points).
        let mut leaves: Vec<CellId> = probes.iter().map(|&ll| CellId::from_latlng(ll)).collect();
        for (cell, _) in &pairs {
            leaves.push(cell.range_min());
            leaves.push(cell.range_max());
        }
        for leaf in leaves {
            let expected = model_refs_at(&pairs, leaf);
            let got = resolve(act.lookup(leaf), &table);
            prop_assert_eq!(got, expected, "at leaf {:?}", leaf);
        }
    }

    /// The one-pass sweep reproduces the round-based push-down it
    /// replaced — the same cells in the same order, the same reference
    /// sets, the same split count — for any duplicated and nested input.
    #[test]
    fn sweep_matches_round_based_reference(pairs in arb_pairs(), nested in arb_nested_pairs()) {
        for input in [pairs, nested] {
            let want = reference::build_from_pairs(input.clone());
            let got = build_from_pairs(input);
            prop_assert_eq!(got.pushdown_splits, want.pushdown_splits);
            prop_assert_eq!(got.cells, want.cells);
        }
    }

    /// Batched probing is exactly the scalar probe, lane by lane, for any
    /// trie shape and any query mix (hits, misses, empty faces, partial
    /// final blocks).
    #[test]
    fn lookup_batch_equals_scalar_lookup(pairs in arb_pairs(), probes in proptest::collection::vec(arb_nyc_latlng(), 1..96)) {
        let sc = build_from_pairs(pairs.clone());
        let mut act = act_core::Act::new();
        let mut tb = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            act.insert(*cell, refs, &mut tb);
        }
        let mut leaves: Vec<CellId> = probes.iter().map(|&ll| CellId::from_latlng(ll)).collect();
        for (cell, _) in &pairs {
            leaves.push(cell.range_min());
            leaves.push(cell.range_max());
        }
        let mut out = vec![Probe::Miss; leaves.len()];
        act.lookup_batch(&leaves, &mut out);
        for (leaf, got) in leaves.iter().zip(&out) {
            prop_assert_eq!(*got, act.lookup(*leaf), "at leaf {:?}", leaf);
        }
    }

    /// With 4-byte slots every multi-reference cell resolves through the
    /// lookup table. Over cells that each carry two references (nesting
    /// and duplicates make some carry more), every probe path — scalar,
    /// batch, batch with depths, and a zero-copy snapshot view — returns
    /// exactly the `RefSet` the super covering inserted for the leaf's
    /// cell, and nothing off it.
    #[test]
    fn two_ref_cells_resolve_identically_on_every_probe_path(
        cells in proptest::collection::vec(
            (arb_nyc_latlng(), 12u8..=22, 0u32..8, 1u32..8, proptest::bool::ANY, proptest::bool::ANY),
            1..20,
        ),
        probes in proptest::collection::vec(arb_nyc_latlng(), 1..64),
    ) {
        let mut pairs = Vec::new();
        for &(ll, level, a, step, fa, fb) in &cells {
            let cell = CellId::from_latlng(ll).parent(level);
            pairs.push((cell, PolygonRef { id: a, interior: fa }));
            pairs.push((cell, PolygonRef { id: (a + step) % 8, interior: fb }));
        }
        let sc = build_from_pairs(pairs.clone());
        prop_assert!(sc.cells.iter().any(|(_, r)| matches!(r, RefSet::Two(..))));
        let inserted: Vec<(CellId, Vec<PolygonRef>)> = sc
            .cells
            .iter()
            .map(|(c, r)| {
                let mut v: Vec<PolygonRef> = r.iter().collect();
                v.sort_by_key(|r| r.id);
                (*c, v)
            })
            .collect();
        let index = ActIndex::from_supercover(sc, CoveringParams::new(15.0));
        let mut bytes = Vec::new();
        index.save_snapshot(&mut bytes).unwrap();
        let buf = SnapshotBuf::from_bytes(&bytes).unwrap();
        let view = buf.view().unwrap();

        let mut leaves: Vec<CellId> = probes.iter().map(|&ll| CellId::from_latlng(ll)).collect();
        for (cell, _) in &pairs {
            leaves.push(cell.range_min());
            leaves.push(cell.range_max());
        }
        let mut batch = vec![Probe::Miss; leaves.len()];
        let mut depth_batch = vec![Probe::Miss; leaves.len()];
        let mut depths = vec![0u8; leaves.len()];
        let mut viewed = vec![Probe::Miss; leaves.len()];
        index.as_view().probe_batch(&leaves, &mut batch);
        index.act().lookup_batch_depths(&leaves, &mut depth_batch, &mut depths);
        view.probe_batch(&leaves, &mut viewed);
        for (i, &leaf) in leaves.iter().enumerate() {
            let want = inserted
                .iter()
                .find(|(c, _)| c.contains(leaf))
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            let scalar = index.as_view().probe_cell(leaf);
            if want.len() >= 2 {
                prop_assert!(matches!(scalar, Probe::Table(_)), "inline multi-ref at {:?}", leaf);
            }
            prop_assert_eq!(resolve(scalar, index.table()), want.clone(), "scalar at {:?}", leaf);
            prop_assert_eq!(batch[i], scalar, "batch at {:?}", leaf);
            prop_assert_eq!(depth_batch[i], scalar, "batch_depths at {:?}", leaf);
            let mut from_view: Vec<PolygonRef> = view
                .resolve_refs(viewed[i])
                .map(|(id, interior)| PolygonRef { id, interior })
                .collect();
            from_view.sort_by_key(|r| r.id);
            prop_assert_eq!(from_view, want, "view at {:?}", leaf);
        }
    }

    /// The sorted-array index answers identically to the trie.
    #[test]
    fn sorted_index_equals_trie(pairs in arb_pairs(), probes in proptest::collection::vec(arb_nyc_latlng(), 16)) {
        let sc = build_from_pairs(pairs.clone());
        let sorted = SortedCellIndex::build(&sc);
        let mut act = act_core::Act::new();
        let mut tb = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            act.insert(*cell, refs, &mut tb);
        }
        let table = tb.build();
        for ll in probes {
            let leaf = CellId::from_latlng(ll);
            let a = resolve(act.lookup(leaf), &table);
            let s = resolve(sorted.lookup(leaf), sorted.table());
            prop_assert_eq!(a, s);
        }
    }

    /// RefSet::merge is order-insensitive (set semantics with
    /// true-hit-wins).
    #[test]
    fn refset_merge_order_insensitive(refs in proptest::collection::vec((0u32..8, proptest::bool::ANY), 1..10)) {
        let make = |order: &[(u32, bool)]| {
            let mut it = order.iter();
            let &(id, interior) = it.next().unwrap();
            let mut s = RefSet::single(PolygonRef { id, interior });
            for &(id, interior) in it {
                s.merge(PolygonRef { id, interior });
            }
            let mut v: Vec<PolygonRef> = s.iter().collect();
            v.sort_by_key(|r| r.id);
            v
        };
        let forward = make(&refs);
        let mut rev = refs.clone();
        rev.reverse();
        prop_assert_eq!(forward, make(&rev));
    }
}

/// Random overlapping axis-aligned squares around NYC — a quick-to-cover
/// polygon set for snapshot round-trip properties.
fn arb_squares() -> impl Strategy<Value = Vec<Polygon>> {
    proptest::collection::vec((-74.15f64..-73.85, 40.55f64..40.85, 0.003f64..0.02), 1..5).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(cx, cy, half)| {
                    Polygon::new(
                        Ring::new(vec![
                            Coord::new(cx - half, cy - half),
                            Coord::new(cx + half, cy - half),
                            Coord::new(cx + half, cy + half),
                            Coord::new(cx - half, cy + half),
                        ]),
                        vec![],
                    )
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// save → load → probe ≡ in-memory probe, in both load modes (owned
    /// [`ActIndex::load_snapshot`] and zero-copy
    /// [`act_core::ActIndexView`]), and the loaded index's batched walk
    /// ≡ its scalar walk, for random polygon sets and probe points.
    #[test]
    fn snapshot_roundtrip_preserves_probes(
        polys in arb_squares(),
        probes in proptest::collection::vec((-74.2f64..-73.8, 40.5f64..40.9), 1..48),
    ) {
        let built = ActIndex::build(&polys, 60.0).unwrap();
        let mut bytes = Vec::new();
        built.save_snapshot(&mut bytes).unwrap();

        let owned = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        let buf = SnapshotBuf::from_bytes(&bytes).unwrap();
        let view = buf.view().unwrap();

        let coords: Vec<Coord> = probes.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        let cells: Vec<CellId> = coords.iter().map(|&c| act_core::coord_to_cell(c)).collect();
        for (&c, &cell) in coords.iter().zip(&cells) {
            let want = built.as_view().probe_cell(cell);
            prop_assert_eq!(owned.as_view().probe_cell(cell), want, "owned probe at {}", c);
            prop_assert_eq!(view.probe_cell(cell), want, "view probe at {}", c);
            prop_assert_eq!(owned.as_view().lookup_refs(c), built.as_view().lookup_refs(c), "owned refs at {}", c);
            prop_assert_eq!(view.lookup_refs(c), built.as_view().lookup_refs(c), "view refs at {}", c);
        }
        // lookup_batch ≡ scalar on both loaded forms.
        let mut owned_out = vec![Probe::Miss; cells.len()];
        let mut view_out = vec![Probe::Miss; cells.len()];
        owned.as_view().probe_batch(&cells, &mut owned_out);
        view.probe_batch(&cells, &mut view_out);
        for (i, &cell) in cells.iter().enumerate() {
            prop_assert_eq!(owned_out[i], built.as_view().probe_cell(cell));
            prop_assert_eq!(view_out[i], built.as_view().probe_cell(cell));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end precision guarantee on random convex polygons: no false
    /// negatives, and every reported match is within ε.
    #[test]
    fn precision_guarantee_holds(
        angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 8..14),
        cx in -74.1f64..-73.9,
        cy in 40.6f64..40.8,
        r_km in 0.3f64..2.0,
        precision in prop_oneof![Just(60.0f64), Just(15.0), Just(4.0)],
        probes in proptest::collection::vec((-0.05f64..0.05, -0.05f64..0.05), 40),
    ) {
        let mut sorted = angles.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup_by(|a, b| (*a - *b).abs() < 1e-3);
        prop_assume!(sorted.len() >= 3);
        let r_deg = r_km / 111.0;
        let verts: Vec<Coord> = sorted
            .iter()
            .map(|&th| Coord::new(cx + r_deg * th.cos(), cy + 0.75 * r_deg * th.sin()))
            .collect();
        let poly = Polygon::new(Ring::new(verts), vec![]);
        let index = ActIndex::build(std::slice::from_ref(&poly), precision).unwrap();

        for (dx, dy) in probes {
            let p = Coord::new(cx + dx, cy + dy);
            let matched = !index.as_view().lookup_refs(p).is_empty();
            let dist = poly.distance_meters(p);
            if poly.contains(p) {
                prop_assert!(matched, "false negative at {} (dist {})", p, dist);
            }
            if matched {
                prop_assert!(
                    dist <= precision * 1.0001,
                    "match at distance {} exceeds ε = {}", dist, precision
                );
            }
            // Contrapositive: far points never match.
            if dist > precision * 1.0001 {
                prop_assert!(!matched);
            }
        }
    }

    /// True hits are always geometrically exact.
    #[test]
    fn true_hits_are_exact(
        cx in -74.1f64..-73.9,
        cy in 40.6f64..40.8,
        half in 0.002f64..0.03,
        probes in proptest::collection::vec((-0.05f64..0.05, -0.05f64..0.05), 30),
    ) {
        let poly = Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        );
        let index = ActIndex::build(std::slice::from_ref(&poly), 15.0).unwrap();
        for (dx, dy) in probes {
            let p = Coord::new(cx + dx, cy + dy);
            for (_, interior) in index.as_view().lookup_refs(p) {
                if interior {
                    prop_assert!(poly.contains(p), "true hit outside polygon at {}", p);
                }
            }
        }
    }
}

/// A polygon around `center` for the covering-bound property, by `kind`:
/// a convex polygon of radius `r_m` meters, the same with a hole, a cell's
/// corners, or the midpoints of a cell's edges (every vertex on a cell
/// edge). The cells are at `level`.
fn bound_polygon(kind: u8, center: LatLng, r_m: f64, angles: &[f64], level: u8) -> Polygon {
    let (cx, cy) = (center.lng_degrees(), center.lat_degrees());
    let ring_at = |r_m: f64| {
        let r_deg = r_m / 111_000.0;
        let verts = angles
            .iter()
            .map(|&th| Coord::new(cx + r_deg * th.cos(), cy + 0.75 * r_deg * th.sin()));
        Ring::new(verts.collect())
    };
    let cell = s2cell::Cell::from_cellid(CellId::from_latlng(center).parent(level));
    let corners = cell
        .vertices_latlng()
        .map(|ll| Coord::new(ll.lng_degrees(), ll.lat_degrees()));
    match kind {
        0 => Polygon::new(ring_at(r_m), vec![]),
        1 => Polygon::new(ring_at(r_m), vec![ring_at(r_m / 3.0)]),
        2 => Polygon::new(Ring::new(corners.to_vec()), vec![]),
        _ => {
            let mid = |a: Coord, b: Coord| Coord::new(0.5 * (a.x + b.x), 0.5 * (a.y + b.y));
            let edges = (0..4).map(|k| mid(corners[k], corners[(k + 1) % 4]));
            Polygon::new(Ring::new(edges.collect()), vec![])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bound an index build admits each covering at: a cell no finer
    /// than L(ε) that contains every cell of the covering, and the deepest
    /// such cell, so the covering spans at least two of its children
    /// unless it is the bound itself or the bound is at L(ε). Radii run
    /// from 0.1 m, below one terminal cell at every ε, to 3 km.
    #[test]
    fn covering_lies_inside_its_bound(
        kind in 0u8..4,
        center in arb_nyc_latlng(),
        log_r_m in -1.0f64..3.5,
        angles in proptest::collection::vec(0.0f64..std::f64::consts::TAU, 6..12),
        level in 8u8..=24,
        precision in prop_oneof![Just(60.0f64), Just(15.0), Just(4.0)],
    ) {
        let mut angles = angles;
        angles.sort_by(f64::total_cmp);
        angles.dedup_by(|a, b| (*a - *b).abs() < 1e-3);
        prop_assume!(angles.len() >= 3);
        let poly = bound_polygon(kind, center, 10f64.powf(log_r_m), &angles, level);
        let params = CoveringParams::new(precision);
        let uv = UvPolygon::from_polygon(&poly).unwrap();
        let bound = covering_bound(&uv, &params);
        let cells: Vec<CellId> = cover_uv_polygon(&uv, &params).cells.iter().map(|&(c, _)| c).collect();
        prop_assert!(
            bound.level() <= params.terminal_level(),
            "bound {:?} finer than L(ε) = {}", bound, params.terminal_level()
        );
        for &cell in &cells {
            prop_assert!(bound.contains(cell), "kind {}: {:?} outside bound {:?}", kind, cell, bound);
        }
        if cells != [bound] && bound.level() < params.terminal_level() {
            let children: std::collections::BTreeSet<CellId> =
                cells.iter().map(|c| c.parent(bound.level() + 1)).collect();
            prop_assert!(children.len() >= 2, "kind {}: bound {:?} is not the deepest", kind, bound);
        }
    }
}

// ---------------------------------------------------------------------
// Live mutation: incremental insert/remove/compact ≡ fresh rebuild
// ---------------------------------------------------------------------

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

/// Fresh-rebuild reference: covers every live polygon under its real id
/// (ids are sparse after edits, so this goes through `build_from_pairs`
/// rather than `ActIndex::build`'s dense slice-index ids).
fn rebuild(live: &BTreeMap<u32, Polygon>, precision_m: f64) -> ActIndex {
    let params = CoveringParams::new(precision_m);
    let mut pairs: Vec<(CellId, PolygonRef)> = Vec::new();
    for (&id, poly) in live {
        let uv = UvPolygon::from_polygon(poly).unwrap();
        for &(cell, interior) in &cover_uv_polygon(&uv, &params).cells {
            pairs.push((cell, PolygonRef { id, interior }));
        }
    }
    ActIndex::from_supercover(build_from_pairs(pairs), params)
}

/// One step of a random edit script over a small id space (so removes,
/// upserts, and remove-then-reinsert all actually happen).
#[derive(Debug, Clone)]
enum EditOp {
    Insert {
        id: u32,
        cx: f64,
        cy: f64,
        half: f64,
    },
    Remove {
        id: u32,
    },
    Compact,
}

fn arb_insert_op() -> impl Strategy<Value = EditOp> {
    (0u32..6, -74.15f64..-73.85, 40.55f64..40.85, 0.003f64..0.02)
        .prop_map(|(id, cx, cy, half)| EditOp::Insert { id, cx, cy, half })
}

fn arb_edit_script() -> impl Strategy<Value = Vec<EditOp>> {
    proptest::collection::vec(
        // The vendored prop_oneof! has no arm weights; repeating the
        // insert arm skews the mix toward inserts (~4:2:1).
        prop_oneof![
            arb_insert_op(),
            arb_insert_op(),
            arb_insert_op(),
            arb_insert_op(),
            (0u32..6).prop_map(|id| EditOp::Remove { id }),
            (0u32..6).prop_map(|id| EditOp::Remove { id }),
            Just(EditOp::Compact),
        ],
        1..12,
    )
}

/// Points that must agree: the random probes plus every edited polygon's
/// center and corners (guaranteed hits, boundaries, and stale locations
/// of removed polygons).
fn mutation_probe_points(script: &[EditOp], probes: &[(f64, f64)]) -> Vec<Coord> {
    let mut pts: Vec<Coord> = probes.iter().map(|&(x, y)| Coord::new(x, y)).collect();
    for op in script {
        if let EditOp::Insert { cx, cy, half, .. } = *op {
            pts.push(Coord::new(cx, cy));
            pts.push(Coord::new(cx - half, cy - half));
            pts.push(Coord::new(cx + half, cy + half));
            pts.push(Coord::new(cx + half * 1.01, cy));
        }
    }
    pts
}

/// The first of `pts` where `a` and `b` answer differently (as sets).
fn first_divergence(a: &ActIndex, b: &ActIndex, pts: &[Coord]) -> Option<Coord> {
    pts.iter().copied().find(|&c| {
        let mut got = a.as_view().lookup_refs(c);
        let mut want = b.as_view().lookup_refs(c);
        got.sort_unstable();
        want.sort_unstable();
        got != want
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The mutation flagship: after ANY random edit script (upserts,
    /// removes of present and absent ids, interleaved explicit compacts)
    /// applied to a built index, every probe answers exactly like an index
    /// rebuilt from scratch over the surviving polygon set.
    ///
    /// The script runs on a clone of a primed index, which shares the
    /// original's per-id inventory lists: the original must still answer
    /// as before, and its own removals — driven by those shared lists —
    /// must still match a rebuild.
    #[test]
    fn incremental_edits_equal_fresh_rebuild(
        initial in arb_squares(),
        script in arb_edit_script(),
        probes in proptest::collection::vec((-74.2f64..-73.8, 40.5f64..40.9), 24),
    ) {
        let precision = 60.0;
        let mut live: BTreeMap<u32, Polygon> = initial
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.clone()))
            .collect();
        let initial_live = live.clone();
        let mut original = rebuild(&live, precision);
        original.prime_mutations();
        let mut idx = original.clone();
        for op in &script {
            match *op {
                EditOp::Insert { id, cx, cy, half } => {
                    let p = square(cx, cy, half);
                    idx.insert_polygon(id, &p).unwrap();
                    live.insert(id, p);
                }
                EditOp::Remove { id } => {
                    let changed = idx.remove_polygon(id);
                    prop_assert_eq!(changed, live.remove(&id).is_some(),
                        "remove({}) change-report disagrees with model", id);
                }
                EditOp::Compact => idx.compact(),
            }
        }
        let pts = mutation_probe_points(&script, &probes);
        let fresh = rebuild(&live, precision);
        prop_assert_eq!(first_divergence(&idx, &fresh, &pts), None,
            "diverged from fresh rebuild");
        // Compaction is probe-invariant from any mutated state.
        idx.compact();
        prop_assert_eq!(first_divergence(&idx, &fresh, &pts), None,
            "diverged after compaction");

        // The clone's edits left the original untouched...
        prop_assert_eq!(first_divergence(&original, &rebuild(&initial_live, precision), &pts),
            None, "original changed under its clone's edits");
        // ...including the inventory lists its removals walk.
        let mut survivors = initial_live;
        for op in &script {
            if let EditOp::Insert { id, .. } | EditOp::Remove { id } = *op {
                if survivors.remove(&id).is_some() {
                    prop_assert!(original.remove_polygon(id), "original lost polygon {}", id);
                }
            }
        }
        prop_assert_eq!(first_divergence(&original, &rebuild(&survivors, precision), &pts),
            None, "original's removals diverged from a rebuild");
    }

    /// Removing a polygon and re-inserting the identical geometry restores
    /// probe behavior exactly; removing everything empties the index; and
    /// an index grown entirely from an empty build matches a fresh build.
    #[test]
    fn remove_reinsert_and_empty_index(
        polys in arb_squares(),
        probes in proptest::collection::vec((-74.2f64..-73.8, 40.5f64..40.9), 24),
    ) {
        let precision = 60.0;
        let built = ActIndex::build(&polys, precision).unwrap();
        let pts: Vec<Coord> = probes
            .iter()
            .map(|&(x, y)| Coord::new(x, y))
            .chain(polys.iter().map(|p| {
                let b = p.outer().vertices()[0];
                Coord::new(b.x + 0.001, b.y + 0.001)
            }))
            .collect();

        // Remove then re-insert the same shape under the same id.
        let mut idx = built.clone();
        let victim = (polys.len() - 1) as u32;
        prop_assert!(idx.remove_polygon(victim));
        prop_assert!(!idx.remove_polygon(victim), "double remove must be a no-op");
        idx.insert_polygon(victim, &polys[victim as usize]).unwrap();
        for &c in &pts {
            let mut got = idx.as_view().lookup_refs(c);
            let mut want = built.as_view().lookup_refs(c);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "remove+reinsert at {} diverged", c);
        }

        // Remove everything: the index must answer like an empty one.
        let mut idx = built.clone();
        for id in 0..polys.len() as u32 {
            prop_assert!(idx.remove_polygon(id));
        }
        for &c in &pts {
            prop_assert!(idx.as_view().lookup_refs(c).is_empty(), "ghost refs at {}", c);
        }
        idx.compact();
        prop_assert_eq!(idx.stats().indexed_cells, 0);

        // Grow from empty: insert-by-insert ≡ batch build.
        let mut grown = ActIndex::build(&[], precision).unwrap();
        for (i, p) in polys.iter().enumerate() {
            grown.insert_polygon(i as u32, p).unwrap();
        }
        for &c in &pts {
            let mut got = grown.as_view().lookup_refs(c);
            let mut want = built.as_view().lookup_refs(c);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "grown-from-empty at {} diverged", c);
        }
    }
}

/// A fresh temp path per call, so concurrent cases never share a file.
fn unique_temp_path(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("act-prop-{}-{tag}-{n}.snap", std::process::id()))
}

/// Applies one edit to `idx` and to the model of live polygons.
fn apply_edit(idx: &mut ActIndex, live: &mut BTreeMap<u32, Polygon>, op: &EditOp) {
    match *op {
        EditOp::Insert { id, cx, cy, half } => {
            let p = square(cx, cy, half);
            idx.insert_polygon(id, &p).unwrap();
            live.insert(id, p);
        }
        EditOp::Remove { id } => {
            assert_eq!(idx.remove_polygon(id), live.remove(&id).is_some());
        }
        EditOp::Compact => idx.compact(),
    }
}

fn answers(idx: &ActIndex, pts: &[Coord]) -> Vec<Vec<(u32, bool)>> {
    pts.iter()
        .map(|&c| {
            let mut refs = idx.as_view().lookup_refs(c);
            refs.sort_unstable();
            refs
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Copy-on-write over a mapped base, per point: a random edit script
    /// runs epoch by epoch the way the delta watcher runs it — each edit
    /// lands on a clone of the previous epoch, opened over the mapped
    /// snapshot — and must answer every probe point like the same script
    /// on a deep `to_owned_index` copy and like a rebuild. After each
    /// edit the previous epoch must still answer its own (pre-edit) set.
    /// A compaction of the result must equal a one-shard split of it
    /// byte for byte.
    #[test]
    fn edits_over_a_mapped_base_copy_only_what_they_write(
        initial in arb_squares(),
        script in arb_edit_script(),
        probes in proptest::collection::vec((-74.2f64..-73.8, 40.5f64..40.9), 24),
    ) {
        let precision = 60.0;
        let mut live: BTreeMap<u32, Polygon> = initial
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.clone()))
            .collect();
        let path = unique_temp_path("cow");
        rebuild(&live, precision).as_view().save_file(&path).unwrap();
        let snap = std::sync::Arc::new(act_core::MappedSnapshot::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
        let pts = mutation_probe_points(&script, &probes);

        let mut deep = snap.to_owned_index();
        let mut epoch = ActIndex::from_mapped(std::sync::Arc::clone(&snap));
        epoch.prime_mutations();
        let mut deep_live = live.clone();
        for op in &script {
            let before = answers(&epoch, &pts);
            let mut next = epoch.clone();
            apply_edit(&mut next, &mut live, op);
            apply_edit(&mut deep, &mut deep_live, op);
            prop_assert_eq!(answers(&epoch, &pts), before,
                "the previous epoch changed under {:?}", op);
            epoch = next;
        }
        prop_assert_eq!(first_divergence(&epoch, &deep, &pts), None,
            "diverged from the same script on a deep copy");
        let fresh = rebuild(&live, precision);
        prop_assert_eq!(first_divergence(&epoch, &fresh, &pts), None,
            "diverged from a fresh rebuild");
        prop_assert!(answers(&ActIndex::from_mapped(snap), &pts)
            == answers(&rebuild(&initial.iter().enumerate()
                .map(|(i, p)| (i as u32, p.clone())).collect(), precision), &pts),
            "the mapped base changed");

        let split = act_core::split_index(&epoch, act_core::DEFAULT_SPLIT_LEVEL, 1).remove(0);
        epoch.compact();
        prop_assert!(epoch.identical_to(&split), "compaction differs from a one-shard split");
        prop_assert_eq!(epoch.act().ext_bytes(), 0, "a compaction leaves one segment");
    }
}
