//! Workspace smoke test: the README / `act_core` lib.rs quickstart path,
//! end to end. Guards the documented example against drift — if this test
//! and the doctest ever disagree, the docs are stale.

use act_core::ActIndex;
use geom::{Coord, Polygon, Ring};

/// The quickstart polygon: one ~4 km square around Midtown Manhattan.
fn midtown() -> Polygon {
    Polygon::new(
        Ring::new(vec![
            Coord::new(-74.00, 40.74),
            Coord::new(-73.96, 40.74),
            Coord::new(-73.96, 40.78),
            Coord::new(-74.00, 40.78),
        ]),
        vec![],
    )
}

#[test]
fn quickstart_true_hit_vs_candidate_hit() {
    let precision = 15.0;
    let index = ActIndex::build(&[midtown()], precision).unwrap();

    // Deep-interior probe (Times Square): must be a *true hit* — reported
    // from a cell entirely inside the polygon, no geometry check needed.
    let refs = index.as_view().lookup_refs(Coord::new(-73.9855, 40.7580));
    assert_eq!(refs, vec![(0, true)], "quickstart doc example drifted");

    // March a transect across the eastern edge (x = -73.96), from 40 m
    // inside to 40 m outside in ~2 m steps, checking the precision
    // contract at every probe:
    //   * contained points always match (no false negatives),
    //   * every match lies within ε of the polygon,
    //   * points farther than ε never match.
    let poly = midtown();
    let meter_lng = 1.0 / (111_320.0 * (40.76f64).to_radians().cos());
    let mut candidate_hits = 0;
    for step in -20..=20 {
        let p = Coord::new(-73.96 + 2.0 * step as f64 * meter_lng, 40.76);
        let refs = index.as_view().lookup_refs(p);
        let dist = poly.distance_meters(p);
        if poly.contains(p) {
            assert!(!refs.is_empty(), "false negative {dist} m inside");
        }
        for &(id, interior) in &refs {
            assert_eq!(id, 0);
            assert!(dist <= 15.0 * 1.0001, "match at {dist} m exceeds ε");
            if !interior {
                candidate_hits += 1;
            }
        }
        if dist > 15.0 * 1.0001 {
            assert!(refs.is_empty(), "match {dist} m away violates ε");
        }
    }
    // The transect crosses the boundary, so some probes must have landed
    // in boundary cells — the candidate-hit path is genuinely exercised.
    assert!(candidate_hits > 0, "no candidate hit along the transect");

    // Probe far outside (Brooklyn, ~8 km away): no match at all.
    assert!(index
        .as_view()
        .lookup_refs(Coord::new(-73.95, 40.65))
        .is_empty());
}

#[test]
fn quickstart_index_is_well_formed() {
    let index = ActIndex::build(&[midtown()], 15.0).unwrap();
    let stats = index.stats();
    assert_eq!(stats.precision_m, 15.0);
    assert!(index.memory_bytes() > 0);
}
