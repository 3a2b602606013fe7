//! Traffic monitoring: vehicle positions joined against fine-grained street
//! cells (census-block-scale polygons), comparing the approximate join with
//! the exact filter-and-refine join.
//!
//! This is the paper's second motivating use case ("positions of vehicles
//! need to be joined with street segments to enable real-time traffic
//! control"), and it demonstrates the precision/performance trade-off
//! empirically: the approximate join's per-polygon counts deviate from the
//! exact ones only for vehicles within ε of a boundary, and the measured
//! precision violations are exactly zero.
//!
//! ```text
//! cargo run --release -p act-examples --example traffic_cells
//! ```

use self::helpers::percentile;
use act_core::{ActIndex, Refiner};
use std::time::Instant;

// Tiny local helpers (the examples crate is dependency-light on purpose).
mod helpers {
    pub fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    }
}

const VEHICLES: usize = 1_000_000;

fn main() {
    // Street-segment-like small polygons: a 40×25 slice of the census tier.
    let ds = datagen::blocks_scaled(40, 25, 42);
    let precision = 4.0; // GPS accuracy is ~5 m; ε = 4 m is stricter.
    println!(
        "building ACT over {} street cells at ε = {precision} m...",
        ds.polygons.len()
    );
    let t = Instant::now();
    let index = ActIndex::build(&ds.polygons, precision).unwrap();
    println!(
        "built in {:.2} s — {:.1} MB",
        t.elapsed().as_secs_f64(),
        index.memory_bytes() as f64 / 1e6
    );

    // Vehicle positions.
    let gen = datagen::PointGen::nyc_taxi_like(ds.bbox, 99);
    let positions = gen.take_vec(VEHICLES);

    // Touch the trie once so the timed runs below measure steady-state
    // probing, not first-touch page faults on a fresh multi-hundred-MB
    // allocation.
    let mut warmup = vec![0u64; ds.polygons.len()];
    act_core::join_approx_coords(
        &index,
        &positions[..100_000.min(positions.len())],
        &mut warmup,
    );

    // Approximate join (no refinement).
    let mut approx = vec![0u64; ds.polygons.len()];
    let t = Instant::now();
    let astats = act_core::join_approx_coords(&index, &positions, &mut approx);
    let approx_secs = t.elapsed().as_secs_f64();

    // Exact join (candidates refined with point-in-polygon tests).
    let refiner = Refiner::new(&ds.polygons);
    let mut exact = vec![0u64; ds.polygons.len()];
    let t = Instant::now();
    let estats = act_core::join_exact(&index, &refiner, &positions, &mut exact);
    let exact_secs = t.elapsed().as_secs_f64();

    println!("\n{VEHICLES} vehicle positions:");
    println!(
        "  approximate: {:.2} s ({:.1} M pos/s) — {} true hits, {} candidates",
        approx_secs,
        VEHICLES as f64 / approx_secs / 1e6,
        astats.true_hits,
        astats.candidate_hits
    );
    println!(
        "  exact:       {:.2} s ({:.1} M pos/s) — {} candidates refined, {} survived",
        exact_secs,
        VEHICLES as f64 / exact_secs / 1e6,
        estats.candidate_hits,
        estats.refined_hits
    );

    // Per-cell relative count error introduced by approximation.
    let mut rel_errors: Vec<f64> = approx
        .iter()
        .zip(&exact)
        .filter(|&(_, &e)| e > 0)
        .map(|(&a, &e)| (a as f64 - e as f64).abs() / e as f64)
        .collect();
    rel_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("\nper-cell count deviation (approx vs exact):");
    println!("  median: {:.4}%", 100.0 * percentile(&rel_errors, 0.5));
    println!("  p99:    {:.4}%", 100.0 * percentile(&rel_errors, 0.99));
    println!("  max:    {:.4}%", 100.0 * percentile(&rel_errors, 1.0));

    // Validate the precision guarantee on every false positive.
    println!("\nvalidating the ε guarantee on all approximate matches...");
    let mut violations = 0u64;
    let mut checked = 0u64;
    for &p in positions.iter().take(200_000) {
        for (id, _) in index.as_view().lookup_refs(p) {
            checked += 1;
            if ds.polygons[id as usize].distance_meters(p) > precision {
                violations += 1;
            }
        }
    }
    println!("  {checked} matches checked, {violations} violations (must be 0)");
    assert_eq!(violations, 0, "precision guarantee violated");
}
