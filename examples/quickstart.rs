//! Quickstart: build an ACT index over a handful of zones and join a few
//! points — the 60-second tour of the public API.
//!
//! ```text
//! cargo run --release -p act-examples --example quickstart
//! ```

use act_core::{ActIndex, Probe};
use geom::{Coord, Polygon, Ring};

fn zone(name: &str, cx: f64, cy: f64, half: f64) -> (String, Polygon) {
    (
        name.to_string(),
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        ),
    )
}

fn main() {
    // 1. Define polygons (here: three square "zones" around Manhattan).
    let zones = [
        zone("midtown", -73.98, 40.76, 0.02),
        zone("downtown", -74.01, 40.71, 0.02),
        zone("uptown", -73.95, 40.81, 0.02),
    ];
    let polygons: Vec<Polygon> = zones.iter().map(|(_, p)| p.clone()).collect();

    // 2. Build the index with a 15 m precision guarantee: every reported
    //    match is either exact or within 15 m of the polygon.
    let index = ActIndex::build(&polygons, 15.0).expect("city-scale polygons fit one cube face");
    let st = index.stats();
    println!(
        "index built: {} cells, {} trie bytes, terminal level {}",
        st.indexed_cells, st.act_bytes, st.terminal_level
    );

    // 3. Probe points.
    let queries = [
        ("Times Square", Coord::new(-73.9855, 40.7580)),
        ("Wall Street", Coord::new(-74.0090, 40.7060)),
        ("Central Park N", Coord::new(-73.9510, 40.7970)),
        ("JFK-ish", Coord::new(-73.78, 40.64)),
    ];
    for (label, p) in queries {
        let refs = index.as_view().lookup_refs(p);
        if refs.is_empty() {
            println!("{label:>15}: no zone");
        } else {
            for (id, true_hit) in refs {
                println!(
                    "{label:>15}: {} ({})",
                    zones[id as usize].0,
                    if true_hit {
                        "true hit — exact"
                    } else {
                        "candidate — within ε"
                    }
                );
            }
        }
    }

    // 4. The raw probe API for hot paths (no allocation):
    let cell = act_core::coord_to_cell(Coord::new(-73.9855, 40.7580));
    match index.as_view().probe_cell(cell) {
        Probe::One(r) => println!("raw probe: polygon {} interior={}", r.id, r.interior),
        other => println!("raw probe: {other:?}"),
    }
}
