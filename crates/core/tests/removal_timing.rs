//! Census-scale removal timing, run by hand (ignored by default):
//!
//! ```sh
//! cargo test --release -p act-core --test removal_timing -- --ignored --nocapture
//! ```
//!
//! Builds the census lattice, primes mutation state, and times
//! `remove_polygon` on a spread of present ids. With the per-id cell
//! inventory this walks only the cells each id touches, not the whole
//! ref arena. It then times one `compact()` of the edited index and
//! checks that it clears all waste without changing a probe answer on a
//! 100k-point sample.

use act_core::ActIndex;
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

    // Pay the one-time mutation priming (the per-id cell inventory)
    // outside the measured region; steady-state removal is what the
    // delta watcher feels per `Remove` op.
    let t = Instant::now();
    index.prime_mutations();
    println!("prime_mutations: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

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
    let (bytes, waste) = (index.memory_bytes(), index.waste_bytes());
    let t = Instant::now();
    index.compact();
    println!(
        "compact: {:.2} s, {:.1} -> {:.1} MB, {waste} B of waste cleared",
        t.elapsed().as_secs_f64(),
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
