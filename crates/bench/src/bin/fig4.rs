//! Regenerates the paper's **Figure 4**: multithreaded scalability of the
//! approximate join for 1…32 threads.
//!
//! ```text
//! cargo run --release -p bench --bin fig4 [--points 10000000] [--full]
//! ```
//!
//! The paper runs ACT-4m on a 14-core/28-thread socket and reports
//! near-linear scaling plus hyper-threading gains (the workload is bound by
//! memory latency). This machine's core count is printed with the results;
//! on a single-core container the curve is flat and the run degenerates to
//! a *mechanism validation*: per-thread partitioning must produce exactly
//! the same counts as the sequential join (asserted here), with zero shared
//! mutable state. See EXPERIMENTS.md for the substitution note.
//!
//! Census runs at 4 m only with `--full` (multi-GB index); without it, the
//! census series uses 15 m and is labelled accordingly.

use act_core::{join_parallel_cells_batch, ActIndex};
use bench::{feasible, make_points, paper_datasets, run_act_join, to_cells, Opts};

const THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn main() {
    let opts = Opts::parse();
    let threads = opts.threads_or(&THREADS);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "FIGURE 4: scalability, {} M points, batch {}, {} hardware thread(s) on this machine",
        opts.points as f64 / 1e6,
        opts.batch,
        cores
    );
    println!("(paper: 14 cores / 28 hyperthreads, ACT-4m, peak 4.30 B points/s)");
    println!();
    println!(
        "{:<18} {:>8} {:>14} {:>10}",
        "dataset", "threads", "M points/s", "speedup"
    );

    for ds in paper_datasets(opts.seed) {
        if !opts.wants(&ds.name) {
            continue;
        }
        let precision = if feasible(&ds.name, 4.0, opts.full) {
            4.0
        } else {
            15.0
        };
        let label = format!("{}-{}m", ds.name, precision);
        let index = ActIndex::build(&ds.polygons, precision).expect("single-face datasets");
        let points = make_points(&ds, opts.points, opts.seed);
        let cells = to_cells(&points);

        // Sequential reference for correctness checking. Workers probe in
        // batches (ActIndexView::probe_batch), so each thread also exploits
        // memory-level parallelism within its partition.
        let seq = run_act_join(&index, &cells, ds.polygons.len());
        let mut base = 0.0;
        for &t_count in &threads {
            let t = std::time::Instant::now();
            let (counts, _stats) =
                join_parallel_cells_batch(&index, &cells, ds.polygons.len(), t_count, opts.batch);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(
                counts, seq.counts,
                "parallel join must reproduce sequential counts exactly"
            );
            let mpts = cells.len() as f64 / secs / 1e6;
            if base == 0.0 {
                base = mpts;
            }
            println!(
                "{:<18} {:>8} {:>14.1} {:>9.2}x",
                label,
                t_count,
                mpts,
                mpts / base
            );
        }
        println!();
    }

    println!("shape checks vs. the paper:");
    println!(" * per-thread counts merge to exactly the sequential result");
    println!("   (embarrassingly parallel by construction — validated above)");
    println!(" * on multi-core hardware the curve is near-linear in physical");
    println!(
        "   cores with extra gains from SMT; on this {} -thread machine the",
        cores
    );
    println!("   curve's plateau reflects the hardware, not the algorithm");
}
