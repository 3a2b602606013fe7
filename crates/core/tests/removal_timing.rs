//! Census-scale removal timing, run by hand (ignored by default):
//!
//! ```sh
//! cargo test --release -p act-core --test removal_timing -- --ignored --nocapture
//! ```
//!
//! Builds the census lattice, primes mutation state (timed, with its
//! `mutation_state_bytes` and the bound cells per id), and times
//! `remove_polygon` on a spread of present ids. With the per-id bound
//! cells this walks only the territories of at most 16 cells per id, not
//! the whole ref arena. It then times a 4-shard `split_index` at split
//! level 10 (route-census's fleet) of the edited index and checks every
//! point of a 100k-point sample against its owning shard. Last it times
//! `compact()` on clones of the edited index, primed and unprimed (a
//! snapshot round trip of it, which drops the mutation state), best of
//! three each, and checks that a compaction clears all waste without
//! changing a probe answer on that sample.

use act_core::{coord_to_cell, shard_of_cell, split_index, ActIndex};
use datagen::PointGen;
use std::time::Instant;

#[test]
#[ignore = "timing harness, run with --ignored --nocapture"]
fn census_scale_removal_timing() {
    let ds = datagen::census_blocks(42);
    let polys = &ds.polygons;
    let pool = jobs::JobPool::with_available_parallelism();
    let t = Instant::now();
    let mut index = ActIndex::build_parallel(polys, 15.0, &pool).expect("build census");
    println!(
        "built census index: {} polygons in {:.2} s",
        polys.len(),
        t.elapsed().as_secs_f64()
    );

    // Pay the one-time mutation priming (the per-id bound cells)
    // outside the measured region; steady-state removal is what the
    // delta watcher feels per `Remove` op.
    let t = Instant::now();
    index.prime_mutations();
    println!("prime_mutations: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let mut per_id = index.bound_cell_counts();
    per_id.sort_unstable();
    println!(
        "mutation_state_bytes: {:.2} MB; bound cells per id: p50 {}, max {} ({} ids)",
        index.mutation_state_bytes() as f64 / 1e6,
        per_id.get(per_id.len() / 2).copied().unwrap_or(0),
        per_id.last().copied().unwrap_or(0),
        per_id.len()
    );
    let t = Instant::now();
    drop(index.clone());
    println!(
        "clone of the primed index: {:.2} ms",
        t.elapsed().as_secs_f64() * 1e3
    );

    let step = (polys.len() / 64).max(1);
    let ids: Vec<u32> = (0..polys.len() as u32).step_by(step).take(64).collect();
    let t = Instant::now();
    for &id in &ids {
        assert!(index.remove_polygon(id), "id {id} should be present");
    }
    let per = t.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
    println!("removal: {} ids, {per:.1} us/removal", ids.len());

    assert!(index.waste_bytes() > 0, "removals must leave garbage");

    // One compaction of the edited index, timed; probe answers on the
    // sample must be the same before and after.
    let sample = PointGen::nyc_taxi_like(ds.bbox, 7).take_vec(100_000);
    let answers = |index: &ActIndex| -> Vec<Vec<(u32, bool)>> {
        let view = index.as_view();
        sample.iter().map(|&c| view.lookup_refs(c)).collect()
    };
    let before = answers(&index);

    // The split the routed fleet serves; each sampled point must answer
    // from its owning shard as from the whole index.
    let (split_level, num_shards) = (10, 4);
    let t = Instant::now();
    let shards = split_index(&index, split_level, num_shards);
    println!(
        "split_index: {:.1} ms, {num_shards} shards at split level {split_level}",
        t.elapsed().as_secs_f64() * 1e3
    );
    for (&c, want) in sample.iter().zip(&before) {
        let s = shard_of_cell(coord_to_cell(c), split_level, num_shards);
        assert_eq!(
            &shards[s].as_view().lookup_refs(c),
            want,
            "shard {s} answers {c:?} unlike the whole index"
        );
    }
    drop(shards);

    // The same index without mutation state: a snapshot round trip.
    let mut image = Vec::new();
    index
        .save_snapshot(&mut image)
        .expect("save the edited index");
    let unprimed = ActIndex::load_snapshot(&mut image.as_slice()).expect("load it back");
    drop(image);
    assert_eq!(unprimed.mutation_state_bytes(), 0);
    let time_compact = |index: &ActIndex| {
        let mut copy = index.clone();
        let t = Instant::now();
        copy.compact();
        t.elapsed().as_secs_f64()
    };
    let (mut cold, mut primed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        cold = cold.min(time_compact(&unprimed));
        primed = primed.min(time_compact(&index));
    }
    println!(
        "compact (best of 3, interleaved): primed {primed:.3} s, unprimed {cold:.3} s ({:.2}x)",
        primed / cold
    );
    drop(unprimed);

    let (bytes, waste) = (index.memory_bytes(), index.waste_bytes());
    index.compact();
    println!(
        "compact: {:.1} -> {:.1} MB, {waste} B of waste cleared",
        bytes as f64 / 1e6,
        index.memory_bytes() as f64 / 1e6
    );
    assert_eq!(index.waste_bytes(), 0, "a compaction clears all waste");
    let after = answers(&index);
    for (k, (want, got)) in before.iter().zip(&after).enumerate() {
        assert_eq!(
            got, want,
            "compaction changed the answer at {:?}",
            sample[k]
        );
    }
}
