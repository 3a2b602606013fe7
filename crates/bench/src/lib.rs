//! # bench — shared harness for regenerating the paper's tables and figures
//!
//! Binaries (paper artifacts; run with `--release`):
//!
//! * `table1`   — index metrics per dataset × precision (paper Table I)
//! * `fig3`     — single-threaded throughput, ACT vs R-tree baseline (Fig. 3)
//! * `fig4`     — multithreaded scalability (Fig. 4)
//! * `baseline` — machine-readable perf baseline (`BENCH_build.json` /
//!   `BENCH_probe.json`, committed at the repo root)
//! * `snapshot` — build-once/load-many index-persistence baseline
//!   (`BENCH_snapshot.json`, committed at the repo root; `--mmap` adds
//!   the memory-mapped load rows)
//! * `act-bench` — the repository's benchmark: five end-to-end workloads
//!   and a per-layer ledger (its own package; see its README)
//!
//! The serving contracts live in tests, not here: overload, fairness and
//! faults in `tests/tests/serve_chaos.rs` and `serve_faults.rs`, the
//! hot-cell cache's floor in `cache_floor.rs`, and the drive of an
//! external fleet in `fleet_drive.rs`.
//!
//! Criterion benches (`cargo bench`): `throughput`, `scalability`,
//! `ablations`, `build_phase`.
//!
//! The experiment binaries (all but `act-bench`, which parses its own)
//! share the [`Opts`] flags (see [`USAGE`]); unknown flags print the
//! usage message and exit non-zero.

#![forbid(unsafe_code)]

use act_core::{coord_to_cell, ActIndex, JoinStats};
use datagen::{Dataset, PointGen};
use geom::Coord;
use s2cell::CellId;
use std::time::Instant;

pub mod json;

/// The paper's three precision tiers, in meters.
pub const PRECISIONS: [f64; 3] = [60.0, 15.0, 4.0];

/// Simple CLI options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Number of query points (paper: 1 B; default here: 10 M).
    pub points: usize,
    /// Workload seed.
    pub seed: u64,
    /// Include the census × 4 m configuration (multi-GB index).
    pub full: bool,
    /// Restrict to matching dataset names (empty = all).
    pub datasets: Vec<String>,
    /// Thread counts for scaling sweeps (empty = the binary's default).
    pub threads: Vec<usize>,
    /// Points per batched-probe block (`--batch 1` degenerates to scalar).
    pub batch: usize,
    /// Directory for index snapshots: binaries that support it save each
    /// built index there on first run and load-and-verify on later runs.
    pub snapshot: Option<String>,
    /// Also measure memory-mapped snapshot loads (`snapshot` bin).
    pub mmap: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            points: 10_000_000,
            seed: 42,
            full: false,
            datasets: Vec::new(),
            threads: Vec::new(),
            batch: act_core::DEFAULT_PROBE_BATCH,
            snapshot: None,
            mmap: false,
        }
    }
}

/// The usage text printed when CLI parsing fails.
pub const USAGE: &str = "\
usage: <bin> [options]
  --points N        query points (default 10_000_000; '_' separators ok)
  --seed S          workload seed (default 42)
  --full            include the census x 4 m configuration (multi-GB index)
  --datasets a,b    restrict to matching dataset names (default: all)
  --threads 1,2,4   thread counts for scaling sweeps (default: per binary)
  --batch B         points per batched-probe block (default 64; 1 = scalar)
  --snapshot DIR    save built indexes as snapshots in DIR on first run;
                    load-and-verify them on later runs
  --mmap            also measure memory-mapped snapshot loads
                    (snapshot bin; adds the mmap rows to BENCH_snapshot.json)
(env: ACT_FULL=1 behaves like --full)";

impl Opts {
    /// Parses the shared experiment flags from argv; unknown or malformed
    /// flags print [`USAGE`] to stderr and exit with status 2.
    pub fn parse() -> Opts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut o = match Self::try_parse(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        };
        if std::env::var("ACT_FULL").is_ok() {
            o.full = true;
        }
        o
    }

    /// [`Opts::parse`] on an explicit argument list, returning an error
    /// message instead of exiting (testable core of the parser).
    pub fn try_parse(args: &[String]) -> Result<Opts, String> {
        fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
            *i += 1;
            args.get(*i)
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{flag} requires a value"))
        }
        let mut o = Opts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--points" => {
                    o.points = value(args, &mut i, "--points")?
                        .replace('_', "")
                        .parse()
                        .map_err(|_| "--points expects an integer".to_string())?;
                }
                "--seed" => {
                    o.seed = value(args, &mut i, "--seed")?
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?;
                }
                "--full" => o.full = true,
                "--datasets" => {
                    o.datasets = value(args, &mut i, "--datasets")?
                        .split(',')
                        .map(str::to_string)
                        .collect();
                }
                "--threads" => {
                    o.threads = value(args, &mut i, "--threads")?
                        .split(',')
                        .map(|t| {
                            t.parse::<usize>().ok().filter(|&t| t >= 1).ok_or_else(|| {
                                "--threads expects positive integers like 1,2,4".to_string()
                            })
                        })
                        .collect::<Result<Vec<usize>, String>>()?;
                }
                "--batch" => {
                    o.batch = value(args, &mut i, "--batch")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&b| b >= 1)
                        .ok_or_else(|| "--batch expects a positive integer".to_string())?;
                }
                "--snapshot" => {
                    let dir = value(args, &mut i, "--snapshot")?;
                    if dir.is_empty() {
                        return Err("--snapshot expects a directory path".to_string());
                    }
                    o.snapshot = Some(dir.to_string());
                }
                "--mmap" => o.mmap = true,
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        Ok(o)
    }

    /// True if dataset `name` is selected.
    pub fn wants(&self, name: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d == name)
    }

    /// The sweep thread counts, or `default` when `--threads` wasn't given.
    pub fn threads_or(&self, default: &[usize]) -> Vec<usize> {
        if self.threads.is_empty() {
            default.to_vec()
        } else {
            self.threads.clone()
        }
    }
}

/// The snapshot file naming convention shared by the experiment binaries:
/// `<dir>/<dataset>-<precision>m.snap`.
pub fn snapshot_path(dir: &str, dataset: &str, precision_m: f64) -> std::path::PathBuf {
    std::path::Path::new(dir).join(format!("{dataset}-{precision_m}m.snap"))
}

/// True when `path` holds a snapshot in the format this build writes
/// (magic and version checked from the header only). Snapshot caches
/// rebuild when this is false, so a format-version bump never leaves a
/// binary tripping over its own stale cache.
pub fn snapshot_is_current(path: &std::path::Path) -> bool {
    use std::io::Read;
    let mut head = [0u8; 12];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .is_ok()
        && head[0..8] == act_core::snapshot::MAGIC
        && head[8..12] == act_core::snapshot::FORMAT_VERSION.to_le_bytes()
}

/// Loads the three paper datasets (boroughs, neighborhoods, census).
pub fn paper_datasets(seed: u64) -> Vec<Dataset> {
    vec![
        datagen::boroughs(seed),
        datagen::neighborhoods(seed),
        datagen::census_blocks(seed),
    ]
}

/// Whether a (dataset, precision) cell is feasible by default: census at
/// 4 m needs several GB of trie nodes (see DESIGN.md §4) and is opt-in.
pub fn feasible(dataset: &str, precision_m: f64, full: bool) -> bool {
    full || dataset != "census" || precision_m > 4.0
}

/// Generates the taxi-like query points.
pub fn make_points(ds: &Dataset, n: usize, seed: u64) -> Vec<Coord> {
    PointGen::nyc_taxi_like(ds.bbox, seed).take_vec(n)
}

/// Converts points to leaf cell ids (done once, outside measured loops, as
/// ingest would in a streaming system).
pub fn to_cells(points: &[Coord]) -> Vec<CellId> {
    points.iter().map(|&c| coord_to_cell(c)).collect()
}

/// Outcome of one timed join run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub secs: f64,
    pub mpts_per_sec: f64,
    pub stats: JoinStats,
    pub counts: Vec<u64>,
}

/// The shared warmup/timing protocol of every join runner: a warmup pass
/// over a prefix touches the trie's pages first, so the timed loop
/// measures steady-state probing rather than page faults. Scalar and
/// batched numbers are directly comparable because both go through here.
fn timed_join(
    cells: &[CellId],
    num_polygons: usize,
    join: impl Fn(&[CellId], &mut [u64]) -> JoinStats,
) -> RunResult {
    let mut counts = vec![0u64; num_polygons];
    let warm = cells.len().min(200_000);
    join(&cells[..warm], &mut counts);
    counts.iter_mut().for_each(|c| *c = 0);
    let t = Instant::now();
    let stats = join(cells, &mut counts);
    let secs = t.elapsed().as_secs_f64();
    RunResult {
        secs,
        mpts_per_sec: cells.len() as f64 / secs / 1e6,
        stats,
        counts,
    }
}

/// Times the approximate cell-id join (the paper's measured hot path).
pub fn run_act_join(index: &ActIndex, cells: &[CellId], num_polygons: usize) -> RunResult {
    timed_join(cells, num_polygons, |c, counts| {
        act_core::join_approx_cells(index, c, counts)
    })
}

/// Times the approximate join with **batched** probes (blocks of `batch`
/// through [`act_core::join_approx_cells_batch`]).
pub fn run_act_join_batch(
    index: &ActIndex,
    cells: &[CellId],
    num_polygons: usize,
    batch: usize,
) -> RunResult {
    timed_join(cells, num_polygons, |c, counts| {
        act_core::join_approx_cells_batch(index, c, counts, batch)
    })
}

/// Times the R-tree baseline: candidate counting without refinement, as in
/// the paper ("for each returned candidate, we simply increase the counter
/// of the respective polygon").
pub fn run_rtree_join(tree: &rtree::RTree, points: &[Coord], num_polygons: usize) -> RunResult {
    let mut counts = vec![0u64; num_polygons];
    let mut hits = Vec::with_capacity(16);
    let mut total_hits = 0u64;
    for &p in points.iter().take(200_000) {
        hits.clear();
        tree.query_point_into(p, &mut hits);
    }
    let t = Instant::now();
    for &p in points {
        hits.clear();
        tree.query_point_into(p, &mut hits);
        for &id in &hits {
            counts[id as usize] += 1;
        }
        total_hits += hits.len() as u64;
    }
    let secs = t.elapsed().as_secs_f64();
    RunResult {
        secs,
        mpts_per_sec: points.len() as f64 / secs / 1e6,
        stats: JoinStats {
            points: points.len() as u64,
            candidate_hits: total_hits,
            ..JoinStats::default()
        },
        counts,
    }
}

/// Builds the paper's R-tree baseline (insertion-based, rstar-like splits,
/// max 8 entries) over the polygons' MBRs.
pub fn build_rtree(ds: &Dataset) -> rtree::RTree {
    let mut t = rtree::RTree::new(8);
    for (i, p) in ds.polygons.iter().enumerate() {
        t.insert(*p.bbox(), i as u32);
    }
    t
}

/// Formats a byte count like the paper's Table I (kB / MB / GB).
pub fn fmt_bytes(b: usize) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Formats a cell count in millions, Table-I style.
pub fn fmt_mcells(c: u64) -> String {
    format!("{:.2}", c as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_gate() {
        assert!(feasible("boroughs", 4.0, false));
        assert!(feasible("census", 15.0, false));
        assert!(!feasible("census", 4.0, false));
        assert!(feasible("census", 4.0, true));
    }

    #[test]
    fn harness_smoke() {
        // Tiny end-to-end run: index a small dataset, join points both ways.
        let ds = datagen::blocks_scaled(6, 5, 1);
        let index = ActIndex::build(&ds.polygons, 60.0).unwrap();
        let pts = make_points(&ds, 20_000, 7);
        let cells = to_cells(&pts);
        let act = run_act_join(&index, &cells, ds.polygons.len());
        assert_eq!(act.stats.points, 20_000);
        // Partition ⇒ nearly every point matches something.
        assert!(act.stats.misses < 1_000, "misses {}", act.stats.misses);

        let tree = build_rtree(&ds);
        let rt = run_rtree_join(&tree, &pts, ds.polygons.len());
        assert_eq!(rt.stats.points, 20_000);
        // MBR candidates ⊇ actual matches.
        assert!(rt.counts.iter().sum::<u64>() >= act.counts.iter().sum::<u64>() / 2);
    }

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::try_parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_parses_all_flags() {
        let o = parse(&[
            "--points",
            "1_000_000",
            "--seed",
            "7",
            "--full",
            "--datasets",
            "boroughs,census",
            "--threads",
            "1,2,4",
            "--batch",
            "128",
            "--snapshot",
            "target/snaps",
            "--mmap",
        ])
        .unwrap();
        assert_eq!(o.points, 1_000_000);
        assert_eq!(o.seed, 7);
        assert!(o.full);
        assert_eq!(o.datasets, vec!["boroughs", "census"]);
        assert_eq!(o.threads, vec![1, 2, 4]);
        assert_eq!(o.batch, 128);
        assert_eq!(o.snapshot.as_deref(), Some("target/snaps"));
        assert!(o.mmap);
    }

    #[test]
    fn cli_rejects_unknown_and_malformed_flags() {
        assert!(parse(&["--nope"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["--points"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--points", "abc"]).unwrap_err().contains("integer"));
        assert!(parse(&["--threads", "1,0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--batch", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--snapshot"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--snapshot", ""])
            .unwrap_err()
            .contains("directory"));
        // Load-generation flags belong to no experiment bin.
        for retired in [
            &["--overload"][..],
            &["--faults"],
            &["--router-addr", "127.0.0.1:9000"],
            &["--zipf", "1.1"],
            &["--greedy"],
            &["--router"],
        ] {
            assert!(
                parse(retired).unwrap_err().contains("unknown argument"),
                "{retired:?}"
            );
        }
    }

    #[test]
    fn snapshot_path_convention() {
        assert_eq!(
            snapshot_path("d", "census", 15.0),
            std::path::Path::new("d").join("census-15m.snap")
        );
    }

    #[test]
    fn stale_snapshot_caches_are_not_current() {
        let path = std::env::temp_dir().join(format!("bench-current-{}.snap", std::process::id()));
        assert!(!snapshot_is_current(&path), "a missing file");
        let mut bytes = Vec::new();
        ActIndex::build(&[], 15.0)
            .unwrap()
            .save_snapshot(&mut bytes)
            .unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(snapshot_is_current(&path));
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(!snapshot_is_current(&path), "a retired format version");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cli_threads_default_fallback() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.threads_or(&[1, 2, 4]), vec![1, 2, 4]);
        let o = parse(&["--threads", "8"]).unwrap();
        assert_eq!(o.threads_or(&[1, 2, 4]), vec![8]);
    }

    #[test]
    fn batched_harness_agrees_with_scalar() {
        let ds = datagen::blocks_scaled(6, 5, 1);
        let index = ActIndex::build(&ds.polygons, 60.0).unwrap();
        let pts = make_points(&ds, 20_000, 7);
        let cells = to_cells(&pts);
        let scalar = run_act_join(&index, &cells, ds.polygons.len());
        let batched = run_act_join_batch(&index, &cells, ds.polygons.len(), 64);
        assert_eq!(scalar.counts, batched.counts);
        assert_eq!(scalar.stats, batched.stats);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(2_500), "2.5 kB");
        assert_eq!(fmt_bytes(3_100_000), "3.1 MB");
        assert_eq!(fmt_bytes(1_210_000_000), "1.21 GB");
        assert_eq!(fmt_mcells(1_330_000), "1.33");
    }
}
