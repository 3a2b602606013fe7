//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **A1 hierarchy**: ACT's hierarchical cells vs a Magellan-style flat
//!   uniform grid at comparable memory.
//! * **A3 true-hit filtering**: exact join with interior cells enabled vs
//!   disabled (every probe that would be a true hit must instead be
//!   refined by a point-in-polygon test).
//! * **A4 radix vs binary search**: the ACT trie vs a sorted-array index
//!   over the *same* super-covering cells (the comparison §II of the paper
//!   argues qualitatively).

use act_core::{
    build_super_covering, cover_polygon, ActIndex, CoveringParams, Refiner, SortedCellIndex,
};
use bench::{make_points, to_cells};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grid::UniformGrid;

const BATCH: usize = 200_000;

fn bench_hierarchy(c: &mut Criterion) {
    let ds = datagen::neighborhoods(42);
    let points = make_points(&ds, BATCH, 7);
    let cells = to_cells(&points);
    let n = ds.polygons.len();

    let index = ActIndex::build(&ds.polygons, 15.0).unwrap();
    // Match the flat grid's memory to ACT's: each grid ref is 4 B plus one
    // 4 B offset per cell; solve nx*ny ≈ act_bytes/8 for a square-ish grid.
    let target_cells = (index.memory_bytes() / 8).max(1024);
    let nx = (target_cells as f64).sqrt() as usize;
    let flat = UniformGrid::build(&ds.polygons, ds.bbox, nx, nx);

    let mut group = c.benchmark_group("ablation_hierarchy");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(15);

    group.bench_function(BenchmarkId::new("act_15m", "neighborhoods"), |b| {
        let mut counts = vec![0u64; n];
        b.iter(|| act_core::join_approx_cells(&index, &cells, &mut counts));
    });
    group.bench_function(
        BenchmarkId::new(format!("flat_grid_{nx}x{nx}"), "neighborhoods"),
        |b| {
            let mut counts = vec![0u64; n];
            b.iter(|| {
                for &p in &points {
                    for &r in flat.query_raw(p) {
                        counts[(r >> 1) as usize] += 1;
                    }
                }
            });
        },
    );
    group.finish();
}

fn bench_true_hit_filtering(c: &mut Criterion) {
    let ds = datagen::neighborhoods(42);
    let points = make_points(&ds, BATCH, 7);
    let n = ds.polygons.len();
    let refiner = Refiner::new(&ds.polygons);
    let params = CoveringParams::new(15.0);

    // Interior cells enabled (normal ACT).
    let with_interior = ActIndex::build(&ds.polygons, 15.0).unwrap();

    // Interior cells disabled: demote every interior cell to a candidate.
    let coverings: Vec<_> = ds
        .polygons
        .iter()
        .map(|p| {
            let mut cov = cover_polygon(p, &params).unwrap();
            for (_, interior) in cov.cells.iter_mut() {
                *interior = false;
            }
            cov
        })
        .collect();
    let no_interior = ActIndex::from_coverings(coverings, params, 0.0);

    let mut group = c.benchmark_group("ablation_true_hit_filtering");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(10);

    group.bench_function("exact_join_with_interior_cells", |b| {
        let mut counts = vec![0u64; n];
        b.iter(|| act_core::join_exact(&with_interior, &refiner, &points, &mut counts));
    });
    group.bench_function("exact_join_without_interior_cells", |b| {
        let mut counts = vec![0u64; n];
        b.iter(|| act_core::join_exact(&no_interior, &refiner, &points, &mut counts));
    });
    group.finish();
}

fn bench_radix_vs_binary_search(c: &mut Criterion) {
    let ds = datagen::neighborhoods(42);
    let points = make_points(&ds, BATCH, 7);
    let cells = to_cells(&points);
    let params = CoveringParams::new(15.0);

    let coverings: Vec<_> = ds
        .polygons
        .iter()
        .map(|p| cover_polygon(p, &params).unwrap())
        .collect();
    let sc = build_super_covering(&coverings);
    let sorted = SortedCellIndex::build(&sc);
    let index = ActIndex::from_coverings(
        ds.polygons
            .iter()
            .map(|p| cover_polygon(p, &params).unwrap())
            .collect(),
        params,
        0.0,
    );
    let view = index.as_view();

    let mut group = c.benchmark_group("ablation_radix_vs_binary_search");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(15);

    group.bench_function("act_trie_lookup", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &cell in &cells {
                if !matches!(view.probe_cell(cell), act_core::Probe::Miss) {
                    hits += 1;
                }
            }
            hits
        });
    });
    group.bench_function("sorted_array_binary_search", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &cell in &cells {
                if !matches!(sorted.lookup(cell), act_core::Probe::Miss) {
                    hits += 1;
                }
            }
            hits
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hierarchy,
    bench_true_hit_filtering,
    bench_radix_vs_binary_search
);
criterion_main!(benches);
