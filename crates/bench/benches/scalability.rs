//! Criterion counterpart of the paper's Figure 4: the multithreaded join
//! driver at increasing thread counts.
//!
//! On the paper's 14-core machine this shows near-linear scaling; on a
//! small container it mainly validates that the parallel driver adds no
//! overhead at 1 thread and stays correct. The `fig4` binary prints the
//! paper-style series with correctness assertions.

use act_core::{join_parallel_cells_batch, ActIndex, DEFAULT_PROBE_BATCH};
use bench::{make_points, to_cells};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const BATCH: usize = 400_000;

fn bench_scalability(c: &mut Criterion) {
    let ds = datagen::neighborhoods(42);
    let index = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let points = make_points(&ds, BATCH, 7);
    let cells = to_cells(&points);
    let n = ds.polygons.len();

    let mut group = c.benchmark_group("fig4_scalability");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.sample_size(15);

    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("neighborhoods_15m", threads), |b| {
            b.iter(|| join_parallel_cells_batch(&index, &cells, n, threads, DEFAULT_PROBE_BATCH));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
