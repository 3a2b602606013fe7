//! In-process component microbench for the hot-cell cache: per-point
//! costs of the pieces the serve path composes — coordinate→cell, the
//! MLP-batched trie walk (with and without ref resolution), and the
//! cache's fill + warm-hit paths — against either the paper's `census`
//! host dataset (`cachebench census`, shallow partition, ~1 ref/pt) or
//! the stacked-geofence preset (`cachebench surge`, 16 overlapping
//! layers, ~16 refs/pt, the cache's design point). The hit loop's
//! result sink is asserted equal to the walk's, so the numbers can't
//! come from a lookup that quietly stopped answering correctly.
//!
//! Wall-clock numbers on a shared machine are ±10-20%; use them to
//! compare paths within one run, not across runs. The end-to-end
//! off/on contract lives in `loadgen --zipf`, not here.
use act_core::{coord_to_cell, MappedSnapshot, Probe};
use act_serve::{CacheConfig, HotCellCache};
use bench::{make_points, paper_datasets, snapshot_path};
use std::time::Instant;

fn main() {
    let seed = 42;
    let which = std::env::args().nth(1).unwrap_or_else(|| "census".into());
    let ds = if which == "surge" {
        datagen::surge_zones(seed, 16, 8, 8)
    } else {
        paper_datasets(seed)
            .into_iter()
            .find(|d| d.name == "census")
            .expect("census")
    };
    let dir = "target/serve-bench";
    std::fs::create_dir_all(dir).unwrap();
    let path = snapshot_path(dir, &ds.name, 15.0);
    if !bench::snapshot_is_current(&path) {
        let t = Instant::now();
        let built = act_core::ActIndex::build(&ds.polygons, 15.0).expect("build");
        println!("built {} in {:.1}s", ds.name, t.elapsed().as_secs_f64());
        let mut f = std::fs::File::create(&path).unwrap();
        built.save_snapshot(&mut f).unwrap();
    }
    println!(
        "{}: {} polygons, snapshot {:.1} MB",
        ds.name,
        ds.polygons.len(),
        std::fs::metadata(&path).unwrap().len() as f64 / 1e6
    );
    let snap = MappedSnapshot::open(&path).unwrap();
    let view = snap.view();

    let points = make_points(&ds, 65_536, seed);
    // Zipf(1.1) workload over the hot set, like run_zipf.
    let n = 2_000_000usize;
    let mut cdf = Vec::with_capacity(points.len());
    let mut acc = 0.0f64;
    for k in 0..points.len() {
        acc += 1.0 / ((k + 1) as f64).powf(1.1);
        cdf.push(acc);
    }
    for c in cdf.iter_mut() {
        *c /= acc;
    }
    let mut state = 0x51F0EDu64 | 1;
    let workload: Vec<_> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let r = cdf.partition_point(|&c| c < u).min(points.len() - 1);
            points[r]
        })
        .collect();

    // 1. coord_to_cell
    let t = Instant::now();
    let cells: Vec<_> = workload.iter().map(|&c| coord_to_cell(c)).collect();
    println!(
        "coord_to_cell: {:.1} ns/pt",
        t.elapsed().as_nanos() as f64 / n as f64
    );

    // 2. warm walk, batched 2048 at a time (like the server batch path)
    let mut probes = vec![Probe::Miss; 2048];
    for chunk in cells.chunks(2048).take(64) {
        view.probe_batch(chunk, &mut probes[..chunk.len()]);
    }
    let t = Instant::now();
    for chunk in cells.chunks(2048) {
        view.probe_batch(chunk, &mut probes[..chunk.len()]);
    }
    println!(
        "warm probe_batch: {:.1} ns/pt",
        t.elapsed().as_nanos() as f64 / n as f64
    );

    // 3. walk + resolve_refs (the full cacheless answer path)
    let mut sink = 0u64;
    let t = Instant::now();
    for chunk in cells.chunks(2048) {
        view.probe_batch(chunk, &mut probes[..chunk.len()]);
        for &p in &probes[..chunk.len()] {
            for (id, _) in view.resolve_refs(p) {
                sink = sink.wrapping_add(id as u64);
            }
        }
    }
    println!(
        "walk+resolve: {:.1} ns/pt (sink {sink})",
        t.elapsed().as_nanos() as f64 / n as f64
    );

    // refs/pt + exact-answer oracle on a sample (overlap correctness)
    {
        let refiner = act_core::Refiner::new(&ds.polygons);
        let mut total_refs = 0u64;
        for (k, &c) in cells.iter().enumerate().take(2000) {
            let mut p = [Probe::Miss];
            view.probe_batch(&cells[k..k + 1], &mut p);
            let mut act: Vec<u32> = view
                .resolve_refs(p[0])
                .filter(|&(id, interior)| interior || refiner.contains(id, workload[k]))
                .map(|(id, _)| id)
                .collect();
            total_refs += view.resolve_refs(p[0]).count() as u64;
            act.sort_unstable();
            let mut brute: Vec<u32> = (0..ds.polygons.len() as u32)
                .filter(|&id| refiner.contains(id, workload[k]))
                .collect();
            brute.sort_unstable();
            assert_eq!(act, brute, "overlap answers diverge at point {k}");
            let _ = c;
        }
        println!(
            "oracle ok on 2000 pts, {:.1} candidate refs/pt",
            total_refs as f64 / 2000.0
        );
    }

    // 4. depth-reporting walk + fill
    let cache = HotCellCache::new(&CacheConfig {
        shards: 1,
        capacity: 65_536,
    });
    let mut depths = vec![0u8; 2048];
    let mut arena: Vec<u32> = Vec::new();
    for chunk in cells.chunks(2048) {
        view.probe_batch_depths(
            chunk,
            &mut probes[..chunk.len()],
            &mut depths[..chunk.len()],
        );
        for (i, &c) in chunk.iter().enumerate() {
            arena.clear();
            arena.extend(
                view.resolve_refs(probes[i])
                    .map(|(id, hit)| (id << 1) | hit as u32),
            );
            cache.insert(c, depths[i], 1, &arena);
        }
    }
    println!("cache len after fill: {}", cache.len());

    // 5. warm cache hit loop (the cache-on answer path)
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut sink2 = 0u64;
    let t = Instant::now();
    for chunk in cells.chunks(2048) {
        arena.clear();
        spans.clear();
        let hits = cache.get_batch(chunk, 1, &mut arena, &mut spans);
        cache.record(hits, chunk.len() as u64 - hits);
        for &(s, l1) in &spans {
            if l1 > 0 {
                for &w in &arena[s..s + l1 - 1] {
                    sink2 = sink2.wrapping_add((w >> 1) as u64);
                }
            }
        }
    }
    println!(
        "cache hit path: {:.1} ns/pt (sink {sink2}, hits {} misses {})",
        t.elapsed().as_nanos() as f64 / n as f64,
        cache.hits(),
        cache.misses()
    );
    assert_eq!(sink, sink2, "cache answers diverge from walk answers");
}
