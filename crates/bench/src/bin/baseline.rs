//! Emits the repo's machine-readable performance baseline:
//! `BENCH_build.json` (serial vs parallel index build, Table-I-style
//! workload) and `BENCH_probe.json` (scalar vs batched probes plus a
//! thread sweep). These files are committed so every future perf PR can
//! diff against the trajectory.
//!
//! ```text
//! cargo run --release -p bench --bin baseline [--points N] [--threads 1,2,4] [--batch B]
//!     [--datasets boroughs,neighborhoods,census,surge]
//! ```
//!
//! Build runs reuse [`act_core::ActIndex::build_parallel`] and assert the
//! parallel arena is byte-identical to the serial one before recording a
//! time — a baseline entry for a wrong index would be worse than none.
//! Each build also records `build_peak_mb`: how far the process's peak
//! RSS rose above its RSS before the build (the index plus the build's
//! transient), read from `/proc/self/status` (0 where unavailable).
//!
//! Besides the three paper datasets, `surge` is the 16-layer surge-zone
//! stack (~16 refs per point), built at its 60 m and 15 m tiers: the
//! push-down-heavy case of the super-covering merge.

use act_core::ActIndex;
use bench::json::{array, pretty, Obj};
use bench::{
    feasible, make_points, paper_datasets, run_act_join, run_act_join_batch, to_cells, Opts,
};
use datagen::Dataset;
use jobs::JobPool;
use std::time::Instant;

/// Default thread sweep (ISSUE baseline: 1/2/4).
const DEFAULT_THREADS: [usize; 3] = [1, 2, 4];

fn hardware_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Build-phase precision per dataset: the finest tier whose index is
/// feasible without `--full` (census at 4 m needs several GB).
fn build_precision(name: &str, full: bool) -> f64 {
    if feasible(name, 4.0, full) {
        4.0
    } else {
        15.0
    }
}

/// The surge stack's tiers: its act-bench tier and the paper's 15 m.
const SURGE_PRECISIONS: [f64; 2] = [60.0, 15.0];

/// A `/proc/self/status` field in MB (0 where /proc is unavailable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build`, returning its result and how far the peak RSS rose
/// above the RSS before it, in MB.
fn with_build_peak<T>(build: impl FnOnce() -> T) -> (T, f64) {
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_mb("VmRSS:");
    let out = build();
    (out, (status_mb("VmHWM:") - before).max(0.0))
}

/// A build's phase split as this thread saw it. Coverings overlap the
/// sweep, so the first figure is the bound pass plus the sweep's time
/// covering or waiting for coverings, not every covering's time.
fn phases(st: &act_core::BuildStats) -> String {
    format!(
        "coverings {:.3} s, sweep + populate {:.3} s, table finish {:.3} s",
        st.build_coverings_secs, st.build_supercover_secs, st.build_insert_secs
    )
}

fn main() {
    let opts = Opts::parse();
    let threads = opts.threads_or(&DEFAULT_THREADS);
    let hw = hardware_threads();
    println!(
        "BASELINE: build + probe, {} M points, seed {}, threads {:?}, batch {}, {} hardware thread(s)",
        opts.points as f64 / 1e6,
        opts.seed,
        threads,
        opts.batch,
        hw
    );

    let mut build_entries = Vec::new();
    let mut probe_entries = Vec::new();

    let mut runs: Vec<(Dataset, f64)> = paper_datasets(opts.seed)
        .into_iter()
        .filter(|ds| opts.wants(&ds.name))
        .map(|ds| {
            let precision = build_precision(&ds.name, opts.full);
            (ds, precision)
        })
        .collect();
    if opts.wants("surge") {
        for precision in SURGE_PRECISIONS {
            runs.push((datagen::surge_zones(opts.seed, 16, 8, 8), precision));
        }
    }

    for (ds, precision) in runs {
        println!(
            "\n=== {} ({} polygons, {precision} m) ===",
            ds.name,
            ds.polygons.len()
        );

        // ----- build: serial reference -----
        let t = Instant::now();
        let (serial, serial_peak_mb) = with_build_peak(|| {
            ActIndex::build(&ds.polygons, precision).expect("single-face datasets")
        });
        let serial_secs = t.elapsed().as_secs_f64();
        let st = serial.stats();
        println!(
            "build serial: {serial_secs:.3} s ({}), peak +{serial_peak_mb:.0} MB",
            phases(st)
        );

        // --snapshot DIR: persist the built index on first run; on later
        // runs load the file back and verify it matches today's build
        // byte for byte (a drifted snapshot would invalidate every number
        // recorded against it).
        if let Some(dir) = &opts.snapshot {
            let path = bench::snapshot_path(dir, &ds.name, precision);
            if bench::snapshot_is_current(&path) {
                let t = Instant::now();
                let mut f = std::fs::File::open(&path).expect("open snapshot");
                let loaded = ActIndex::load_snapshot(&mut f)
                    .unwrap_or_else(|e| panic!("load snapshot {}: {e}", path.display()));
                let load_secs = t.elapsed().as_secs_f64();
                assert!(
                    loaded.identical_to(&serial),
                    "snapshot {} does not match today's build — delete it and re-save",
                    path.display()
                );
                println!(
                    "snapshot load: {load_secs:.3} s from {} ({:.2}x vs serial build)",
                    path.display(),
                    serial_secs / load_secs
                );
            } else {
                std::fs::create_dir_all(dir).expect("create snapshot dir");
                let t = Instant::now();
                let mut f = std::fs::File::create(&path).expect("create snapshot");
                let bytes = serial.save_snapshot(&mut f).expect("save snapshot");
                let save_secs = t.elapsed().as_secs_f64();
                println!(
                    "snapshot save: {save_secs:.3} s, {} bytes to {}",
                    bytes,
                    path.display()
                );
            }
        }

        // ----- build: parallel sweep -----
        let mut parallel_entries = Vec::new();
        for &t_count in &threads {
            let pool = JobPool::new(t_count);
            let t = Instant::now();
            let (par, par_peak_mb) = with_build_peak(|| {
                ActIndex::build_parallel(&ds.polygons, precision, &pool)
                    .expect("single-face datasets")
            });
            let par_secs = t.elapsed().as_secs_f64();
            let identical = par.act().slots() == serial.act().slots()
                && par.act().roots() == serial.act().roots()
                && par.stats().indexed_cells == serial.stats().indexed_cells;
            assert!(
                identical,
                "parallel build diverged from serial — not recording"
            );
            let pst = par.stats();
            println!(
                "build {t_count} thread(s): {par_secs:.3} s  ({:.2}x vs serial; {}), peak +{par_peak_mb:.0} MB",
                serial_secs / par_secs,
                phases(pst)
            );
            parallel_entries.push(
                Obj::new()
                    .int("threads", t_count as u64)
                    .num("total_secs", par_secs)
                    .num("covering_secs", pst.build_coverings_secs)
                    .num("supercover_secs", pst.build_supercover_secs)
                    .num("insert_secs", pst.build_insert_secs)
                    .num("build_peak_mb", par_peak_mb)
                    .num("speedup_vs_serial", serial_secs / par_secs)
                    .bool("byte_identical", identical)
                    .build(),
            );
        }
        build_entries.push(
            Obj::new()
                .str("dataset", &ds.name)
                .int("polygons", ds.polygons.len() as u64)
                .num("precision_m", precision)
                .int("indexed_cells", st.indexed_cells)
                .int("pushdown_splits", st.pushdown_splits)
                .int("act_bytes", st.act_bytes as u64)
                .raw(
                    "serial",
                    Obj::new()
                        .num("total_secs", serial_secs)
                        .num("covering_secs", st.build_coverings_secs)
                        .num("supercover_secs", st.build_supercover_secs)
                        .num("insert_secs", st.build_insert_secs)
                        .num("build_peak_mb", serial_peak_mb)
                        .build(),
                )
                .raw("parallel", array(parallel_entries))
                .build(),
        );

        // ----- probe: scalar vs batched, then thread sweep -----
        let points = make_points(&ds, opts.points, opts.seed);
        let cells = to_cells(&points);
        let scalar = run_act_join(&serial, &cells, ds.polygons.len());
        let batched = run_act_join_batch(&serial, &cells, ds.polygons.len(), opts.batch);
        assert_eq!(
            scalar.counts, batched.counts,
            "batched probe diverged from scalar — not recording"
        );
        println!(
            "probe scalar: {:.1} M pts/s   batched({}): {:.1} M pts/s  ({:.2}x)",
            scalar.mpts_per_sec,
            opts.batch,
            batched.mpts_per_sec,
            batched.mpts_per_sec / scalar.mpts_per_sec
        );

        let mut thread_entries = Vec::new();
        let mut base = 0.0;
        let base_threads = threads.first().copied().unwrap_or(1);
        for &t_count in &threads {
            let t = Instant::now();
            let (counts, _) = act_core::join_parallel_cells_batch(
                &serial,
                &cells,
                ds.polygons.len(),
                t_count,
                opts.batch,
            );
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(counts, scalar.counts, "parallel join diverged");
            let mpts = cells.len() as f64 / secs / 1e6;
            if base == 0.0 {
                base = mpts;
            }
            println!(
                "probe {t_count} thread(s): {mpts:.1} M pts/s  ({:.2}x vs {base_threads} thread(s))",
                mpts / base
            );
            thread_entries.push(
                Obj::new()
                    .int("threads", t_count as u64)
                    .num("mpts_per_sec", mpts)
                    .num("speedup_vs_first", mpts / base)
                    .build(),
            );
        }
        probe_entries.push(
            Obj::new()
                .str("dataset", &ds.name)
                .int("polygons", ds.polygons.len() as u64)
                .num("precision_m", precision)
                .num("scalar_mpts_per_sec", scalar.mpts_per_sec)
                .num("batched_mpts_per_sec", batched.mpts_per_sec)
                .num(
                    "batched_speedup",
                    batched.mpts_per_sec / scalar.mpts_per_sec,
                )
                .raw("thread_sweep", array(thread_entries))
                .build(),
        );
    }

    let machine = bench::json::machine_stamp;
    let build_doc = Obj::new()
        .str("bench", "build")
        .str("command", "cargo run --release -p bench --bin baseline")
        .raw("machine", machine())
        .int("seed", opts.seed)
        .raw("build_runs", array(build_entries))
        .build();
    let probe_doc = Obj::new()
        .str("bench", "probe")
        .str("command", "cargo run --release -p bench --bin baseline")
        .raw("machine", machine())
        .int("points", opts.points as u64)
        .int("seed", opts.seed)
        .int("batch", opts.batch as u64)
        .raw("probe_runs", array(probe_entries))
        .build();

    // Anchor to the workspace root (two levels above crates/bench) so the
    // committed baselines are updated regardless of the invocation CWD.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join("BENCH_build.json"), pretty(&build_doc))
        .expect("write BENCH_build.json");
    std::fs::write(root.join("BENCH_probe.json"), pretty(&probe_doc))
        .expect("write BENCH_probe.json");
    println!(
        "\nwrote BENCH_build.json and BENCH_probe.json to {}",
        root.display()
    );
}
