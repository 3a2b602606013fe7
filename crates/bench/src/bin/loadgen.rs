//! loadgen — drives an `act-serve` server over TCP and records the
//! client-observed latency distribution and throughput to
//! `BENCH_serve.json` (committed at the repo root).
//!
//! ```text
//! cargo run --release -p bench --bin loadgen -- \
//!     [--datasets census] [--points N] [--seed S] [--threads C] [--batch B] \
//!     [--snapshot DIR] [--overload]
//! ```
//!
//! The server is spawned **in-process** on an ephemeral loopback port —
//! same code path as an external `act-serve`, but the run is
//! self-contained and the numbers include the full protocol round trip
//! (frame encode → TCP → decode → cell conversion → micro-batched probe
//! → response encode → TCP → decode). `--threads` is the number of
//! client connections (micro-batches form *across* connections),
//! `--batch` the points per request frame.
//!
//! Every run verifies before it records: the per-zone counts aggregated
//! from server replies must equal an offline probe of the same snapshot
//! over the same points, and an exact-mode sample must match refining
//! locally. On a single-core container the server and clients share one
//! hardware thread, so recorded numbers are a *floor* — see the
//! machine stamp.
//!
//! Every response read carries a deadline: a wedged server surfaces as a
//! typed `"failed": true` row in `BENCH_serve.json` (and a non-zero
//! exit), never as a hung benchmark.
//!
//! `--overload` adds a second phase against a **fresh, deliberately
//! small** server: queue depth D lanes, one worker whose per-batch delay
//! pins capacity to a known constant, and pipelining clients driving ≥4×
//! that capacity. The phase asserts the admission-control contract —
//! every frame answered (`OK` or `LOADSHED`, nothing dropped), queue
//! high-water ≤ D, `accepted = answered + shed` — verifies the `OK`
//! answers against an offline probe of exactly those frames, and records
//! shed rate + goodput-under-overload rows.
//!
//! The throughput phase runs with the observability pipeline **on**
//! (`ObsConfig::default()`): the recorded throughput is the
//! fully-instrumented number, and the row carries the *server-side*
//! per-stage latency distribution (queue wait, batch walk, exact
//! refine, reply write, admission→flush total) pulled over the wire
//! with a STATS read. Stage quantiles are log-bucket
//! lower bounds, so `server_frame_p99 ≤ client_frame_p99` is asserted,
//! not assumed.
//!
//! `--router-addr HOST:PORT` drives an **already-running** `act-route`
//! (or `act-serve`) instead of spawning in-process — the CI
//! observability smoke uses this to point loadgen at a fleet started
//! with `--metrics-addr`. The external fleet must serve the same
//! dataset snapshot; counts are still verified against the local
//! offline probe, and the in-process phases (overload/faults/router)
//! are skipped.
//!
//! `--router` adds the sharded-serving phase: the snapshot splits into
//! [`ROUTER_SHARDS`] per-shard snapshots (`act_core::write_shard_files`),
//! one worker per shard, and the scatter-gather router in front — the
//! same wire protocol, so the measured path is identical to the
//! single-process run plus the extra hop. The phase verifies the routed
//! counts against the offline probe, cross-checks the router's merged
//! counter block against the per-worker sums, and records routed
//! throughput next to the single-process number from the first phase.

use act_core::{coord_to_cell, MappedSnapshot, Probe, Refiner};
use act_serve::{protocol as proto, Client, ObsConfig, ServeConfig, Server};
use bench::json::{array, machine_stamp, pretty, Obj};
use bench::{make_points, paper_datasets, snapshot_path, Opts};
use geom::Coord;
use std::io::Write;
use std::time::{Duration, Instant};

/// Points per exact-mode verification sample.
const EXACT_SAMPLE: usize = 2_000;
/// Response-read deadline: far above any healthy frame latency, far
/// below "the bench hung overnight".
const READ_DEADLINE: Duration = Duration::from_secs(30);

/// Overload phase shape: queue depth D (lanes), frame size, pipelined
/// frames per connection, connections, and the per-batch delay that pins
/// worker capacity to `OVERLOAD_BATCH_LANES / OVERLOAD_BATCH_DELAY`.
const OVERLOAD_DEPTH_LANES: usize = 1_024;
const OVERLOAD_FRAME: usize = 256;
// The *server-side* per-connection in-flight cap for the phase. The
// client pipelines without a window of its own (decoupled writer +
// always-draining reader, see `overload_conn`), so this cap — and TCP
// backpressure behind it — is what bounds the server's buffering.
const OVERLOAD_WINDOW: usize = 32;
const OVERLOAD_CONNS: usize = 4;
const OVERLOAD_BATCH_LANES: usize = 256;
const OVERLOAD_BATCH_DELAY: Duration = Duration::from_millis(2);
/// Cap on overload-phase points (the phase measures shedding, not
/// scale; ~1 600 frames is plenty).
const OVERLOAD_MAX_POINTS: usize = 409_600;
/// Configured offered-load target, as a multiple of service capacity.
/// The measured offered rate is recorded alongside this target; when
/// TCP backpressure behind `max_inflight_frames` throttles the writers
/// below it, the run is a *throttled equilibrium* and the row says so
/// instead of passing the target off as what was actually offered.
const OVERLOAD_TARGET_X_CAPACITY: f64 = 4.0;

/// Hot-cell cache phase shape (`--zipf S`): the fixed hot set the
/// Zipf(S) sampler draws from (large enough that the skew's cold tail
/// spills the CPU caches the way production traffic does — a tiny hot
/// set would leave even the cacheless walk L1-resident and measure
/// nothing), the frame size (large, so per-frame protocol overhead
/// doesn't dilute the walk-vs-cache difference), and the cap on
/// sampled probes.
const ZIPF_HOT_SET: usize = 65_536;
const ZIPF_FRAME: usize = 4_096;
const ZIPF_MAX_POINTS: usize = 2_097_152;
/// Measured-pass repetitions per [`zipf_run`]; the recorded time is the
/// best rep. One rep is ~100 ms of wall clock, short enough that one
/// scheduler hiccup swings the ratio by tens of percent — best-of-N
/// reads through the noise to the server's actual steady-state rate.
const ZIPF_REPS: usize = 7;
/// Frames in flight during a measured rep. Strict request/reply
/// ping-pong leaves the server idle for the client's turnaround after
/// every frame — a constant both sides pay that dilutes the ratio under
/// test. A few frames of pipelining keep the worker continuously busy;
/// kept small so in-flight bytes stay well under the kernel socket
/// buffers (a stalled server write plus a stalled client write is a
/// deadlock).
const ZIPF_PIPELINE: usize = 3;
/// Frames of skewed traffic driven at an external target (`--router-addr
/// --zipf`, the CI cache smoke) — enough to warm and then hit the cache.
const ZIPF_SMOKE_FRAMES: usize = 128;

/// Fairness phase shape (`--greedy`): one greedy connection blasts
/// `FAIR_FRAME`-point frames nonstop while polite clients each work
/// through a fixed stripe, against a worker whose per-batch delay pins
/// capacity to `FAIR_BATCH_LANES / FAIR_BATCH_DELAY` lanes/s. The phase
/// runs twice — without and with `client_quota_lanes` — and records the
/// worst polite client's goodput for each.
///
/// The queue is deliberately deep relative to the batch: queue depth is
/// what an unquota'd greedy connection gets to own, and every lane it
/// owns stretches the backlog-proportional retry hint a shed polite
/// client honors before trying again — so depth × greedy monopoly is
/// precisely the harm on display. The quota-on run caps any one
/// connection at a single batch's worth, which leaves the same deep
/// queue nearly empty and the polite clients rotating at fair share.
const FAIR_FRAME: usize = 256;
const FAIR_POLITE_FRAME: usize = 256;
const FAIR_POLITE_CLIENTS: usize = 3;
const FAIR_POLITE_FRAMES: usize = 32;
const FAIR_BATCH_LANES: usize = 256;
const FAIR_BATCH_DELAY: Duration = Duration::from_millis(2);
const FAIR_DEPTH_LANES: usize = 8_192;
const FAIR_WINDOW: usize = 32;
/// The per-connection quota for the quota-on run: one batch's worth —
/// the greedy connection can keep the worker busy but can no longer own
/// the queue.
const FAIR_QUOTA_LANES: usize = 256;
/// Frames in the pipelined burst driven at an external target
/// (`--router-addr --greedy`, the CI fairness smoke).
const GREEDY_BURST_FRAMES: usize = 64;

/// Sharded-serving phase shape: the fleet size behind the router.
const ROUTER_SHARDS: usize = 4;
/// Split level for the routed phase. The paper datasets are one
/// metropolitan area; at the global default (level 4, ~600 km cells)
/// the whole city is one prefix and one shard does all the work. Level
/// 10 (~10 km cells) spreads an NYC-sized bbox over ~100 prefixes so
/// the fleet actually shares the load — the row records the per-shard
/// split so imbalance is visible, not assumed away.
const ROUTER_SPLIT_LEVEL: u8 = 10;

/// One connection's measured-run outcome: per-zone counts + frame
/// latencies (µs), or the typed failure that ends the run.
type ConnResult = Result<(Vec<u64>, Vec<f64>), String>;
/// One overload connection's outcome: per-frame OK mask (false =
/// LOADSHED) + zone counts over the OK frames + how long the writer
/// took to push its whole stripe onto the wire (the offered-load side
/// of the measurement, distinct from when replies finished arriving).
type OverloadResult = Result<(Vec<bool>, Vec<u64>, Duration), String>;

/// A seeded Zipf(s) rank sampler over `0..n`: precomputed CDF +
/// xorshift64* uniforms + binary search. Deterministic, so the cache-off
/// and cache-on runs (and any re-run with the same seed) draw the exact
/// same skewed workload.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, s: f64, seed: u64) -> Zipf {
        assert!(n > 0, "zipf needs a non-empty hot set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            state: seed | 1,
        }
    }

    fn next_rank(&mut self) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The server-side pipeline stages recorded into the bench row, in
/// pipeline order. Each is a nanosecond histogram on the wire.
const TIME_STAGES: &[(&str, u8)] = &[
    ("queue_wait", proto::STAGE_QUEUE_WAIT),
    ("walk", proto::STAGE_WALK),
    ("refine", proto::STAGE_REFINE),
    ("write", proto::STAGE_WRITE),
    ("frame_total", proto::STAGE_FRAME_TOTAL),
];

/// Quantile of a wire stage histogram in its native unit (`NaN` when
/// the stage is absent or empty). Log-bucketed: the returned value is
/// the bucket **lower bound**, i.e. a slight understatement.
fn stage_raw(hists: &[proto::StageHistogram], stage: u8, q: f64) -> f64 {
    hists
        .iter()
        .find(|h| h.stage == stage && h.hist.count() > 0)
        .map_or(f64::NAN, |h| h.hist.quantile(q) as f64)
}

/// [`stage_raw`] for the nanosecond time stages, scaled to µs.
fn stage_us(hists: &[proto::StageHistogram], stage: u8, q: f64) -> f64 {
    stage_raw(hists, stage, q) / 1e3
}

/// Appends the per-stage server-side p50/p99 columns to a bench row.
fn with_stage_quantiles(mut row: Obj, hists: &[proto::StageHistogram]) -> Obj {
    for &(name, stage) in TIME_STAGES {
        row = row
            .num(
                &format!("server_{name}_p50_us"),
                stage_us(hists, stage, 0.50),
            )
            .num(
                &format!("server_{name}_p99_us"),
                stage_us(hists, stage, 0.99),
            );
    }
    row.num(
        "server_probe_depth_p50",
        stage_raw(hists, proto::STAGE_PROBE_DEPTH, 0.50),
    )
    .num(
        "server_probe_depth_p99",
        stage_raw(hists, proto::STAGE_PROBE_DEPTH, 0.99),
    )
}

fn main() {
    let opts = Opts::parse();
    let selected: Vec<String> = if opts.datasets.is_empty() {
        // The acceptance configuration: the census-scale lattice.
        vec!["census".into()]
    } else {
        opts.datasets.clone()
    };
    let connections = opts.threads_or(&[1]);
    let connections = connections.first().copied().unwrap_or(1).max(1);
    let frame = opts.batch.clamp(1, proto::MAX_POINTS);
    let dir = opts
        .snapshot
        .clone()
        .unwrap_or_else(|| "target/serve-bench".to_string());
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    println!(
        "LOADGEN: {} points, {connections} connection(s), {frame} points/frame, datasets {selected:?}{}",
        opts.points,
        if opts.overload { ", overload phase on" } else { "" },
    );
    if opts.faults && cfg!(not(feature = "fault-injection")) {
        eprintln!("LOADGEN: --faults needs `--features fault-injection`; phase will fail typed");
    }

    let mut entries = Vec::new();
    let mut failed = false;
    for ds in paper_datasets(opts.seed) {
        if !selected.iter().any(|d| d == &ds.name) {
            continue;
        }
        match run_dataset(&ds, &dir, connections, frame, &opts) {
            Ok(mut rows) => entries.append(&mut rows),
            Err(e) => {
                // The typed failure row: the bench records *that* and
                // *why* it failed instead of hanging or dying silently.
                eprintln!("LOADGEN FAILURE on {}: {e}", ds.name);
                failed = true;
                entries.push(
                    Obj::new()
                        .str("dataset", &ds.name)
                        .bool("failed", true)
                        .str("error", &e)
                        .build(),
                );
            }
        }
    }

    let doc = Obj::new()
        .str("bench", "serve")
        .str(
            "command",
            "cargo run --release -p bench --features fault-injection --bin loadgen -- --overload --faults --router --zipf 1.1 --greedy",
        )
        .raw("machine", machine_stamp())
        .int("seed", opts.seed)
        .raw("serve_runs", array(entries))
        .build();

    // Anchor to the workspace root (two levels above crates/bench) so the
    // committed baseline is updated regardless of the invocation CWD.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join("BENCH_serve.json"), pretty(&doc)).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json to {}", root.display());
    if failed {
        std::process::exit(1);
    }
}

/// The full per-dataset pipeline: snapshot, offline truth, the measured
/// throughput run, verification, and (optionally) the overload phase.
/// Client-side I/O failures come back as `Err` rows, not hangs.
fn run_dataset(
    ds: &datagen::Dataset,
    dir: &str,
    connections: usize,
    frame: usize,
    opts: &Opts,
) -> Result<Vec<String>, String> {
    let precision = 15.0;
    println!(
        "\n=== {} ({} polygons, {precision} m) ===",
        ds.name,
        ds.polygons.len()
    );

    // Snapshot cache: build + save on first run, reuse afterwards
    // (restarts ship snapshots, not polygon sets).
    let path = snapshot_path(dir, &ds.name, precision);
    if !bench::snapshot_is_current(&path) {
        let t = Instant::now();
        let built = act_core::ActIndex::build(&ds.polygons, precision).expect("build index");
        println!(
            "built index in {:.2} s (no cached snapshot)",
            t.elapsed().as_secs_f64()
        );
        let mut f = std::fs::File::create(&path).expect("create snapshot");
        built.save_snapshot(&mut f).expect("save snapshot");
    }

    // The workload, striped across connections.
    let points = make_points(ds, opts.points, opts.seed);
    let num_zones = ds.polygons.len();

    // Offline truth from the same snapshot the server maps.
    let snap = MappedSnapshot::open(&path).expect("map snapshot");
    let mut expected = vec![0u64; num_zones];
    {
        let view = snap.view();
        let cells: Vec<_> = points.iter().map(|&c| coord_to_cell(c)).collect();
        let mut probes = vec![Probe::Miss; cells.len()];
        view.probe_batch(&cells, &mut probes);
        for &p in &probes {
            for (id, _) in view.resolve_refs(p) {
                expected[id as usize] += 1;
            }
        }
    }

    if let Some(addr) = &opts.router_addr {
        return Ok(vec![run_external(
            ds,
            &points,
            &expected,
            connections,
            frame,
            addr,
            opts,
        )?]);
    }

    let server = Server::spawn(
        &path,
        ServeConfig {
            refiner: Some(Refiner::new(&ds.polygons)),
            watch: None,
            // The headline throughput is measured with the full
            // observability pipeline on — overhead is part of the row.
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn act-serve");
    let addr = server.addr();
    let connect = |what: &str| -> Result<Client, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("{what}: connect: {e}"))?;
        c.set_read_timeout(Some(READ_DEADLINE))
            .map_err(|e| format!("{what}: set deadline: {e}"))?;
        Ok(c)
    };

    // Warmup: touch the mapped pages through the server.
    {
        let mut c = connect("warmup")?;
        for chunk in points.chunks(frame).take(64) {
            c.probe(chunk, false)
                .map_err(|e| format!("warmup probe: {e}"))?;
        }
    }
    let warm_probes = server.stats().probes;

    // Measured run: each connection owns a contiguous stripe.
    let t0 = Instant::now();
    let stripe = points.len().div_ceil(connections);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let point_stripes: Vec<&[Coord]> = points.chunks(stripe.max(1)).collect();
        let handles: Vec<_> = point_stripes
            .into_iter()
            .map(|mine| {
                scope.spawn(move || {
                    let mut client = connect("measured run")?;
                    let mut counts = vec![0u64; num_zones];
                    let mut lat_us = Vec::with_capacity(mine.len() / frame + 1);
                    for chunk in mine.chunks(frame) {
                        let t = Instant::now();
                        let reply = client
                            .probe(chunk, false)
                            .map_err(|e| format!("probe frame: {e}"))?;
                        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                        for refs in &reply.refs {
                            for &(id, _) in refs {
                                counts[id as usize] += 1;
                            }
                        }
                    }
                    Ok((counts, lat_us))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    // Verify: aggregated server answers ≡ offline probe.
    let mut counts = vec![0u64; num_zones];
    let mut latencies = Vec::new();
    for r in results {
        let (c, l) = r?;
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
        latencies.extend(l);
    }
    assert_eq!(counts, expected, "served counts diverged — not recording");

    // Exact-mode spot check against local refinement.
    let exact_n = points.len().min(EXACT_SAMPLE);
    {
        let refiner = Refiner::new(&ds.polygons);
        let view = snap.view();
        let mut c = connect("exact check")?;
        let sample = &points[..exact_n];
        let reply = c
            .probe(sample, true)
            .map_err(|e| format!("exact probe: {e}"))?;
        for (pt, got) in sample.iter().zip(&reply.refs) {
            let want: Vec<(u32, bool)> = view
                .resolve_refs(view.probe_coord(*pt))
                .filter(|&(id, interior)| interior || refiner.contains(id, *pt))
                .map(|(id, _)| (id, true))
                .collect();
            assert_eq!(*got, want, "exact mode diverged at {pt} — not recording");
        }
    }

    // Server-side per-stage distribution, over the wire (STATS) — the
    // same path an external scraper uses.
    let stats_ex = {
        let mut c = connect("stage stats")?;
        c.stats_ex().map_err(|e| format!("stats_ex: {e}"))?
    };

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let stats = server.stats();
    let measured_probes = stats.probes - warm_probes - exact_n as u64;
    assert_eq!(measured_probes, points.len() as u64);
    assert_eq!(
        stats.shed, 0,
        "the throughput phase must never shed (default depth)"
    );
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    let throughput = points.len() as f64 / secs;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    let batch_width = stats.probes as f64 / stats.batches.max(1) as f64;
    println!(
        "served {} probes in {secs:.2} s  ({:.2} M probes/s, {connections} conn, {frame}/frame)",
        points.len(),
        throughput / 1e6
    );
    println!(
        "latency/frame: p50 {p50:.0} us, p99 {p99:.0} us, max {:.0} us; mean micro-batch width {batch_width:.1}",
        latencies.last().copied().unwrap_or(f64::NAN)
    );

    // Sanity: the server-side admission→flush total must sit at or
    // below what clients observed for the same frames (stage quantiles
    // are bucket lower bounds; the client adds encode/TCP/decode).
    let hists = &stats_ex.histograms;
    let server_frame_p99_us = stage_us(hists, proto::STAGE_FRAME_TOTAL, 0.99);
    assert!(
        server_frame_p99_us <= p99,
        "server-side frame p99 ({server_frame_p99_us:.0} us) exceeded client-side p99 ({p99:.0} us)"
    );
    println!(
        "server stages p50/p99 us: queue_wait {:.1}/{:.1}, walk {:.1}/{:.1}, refine {:.1}/{:.1}, \
         write {:.1}/{:.1}, frame_total {:.1}/{:.1}; probe depth p99 {:.0}",
        stage_us(hists, proto::STAGE_QUEUE_WAIT, 0.50),
        stage_us(hists, proto::STAGE_QUEUE_WAIT, 0.99),
        stage_us(hists, proto::STAGE_WALK, 0.50),
        stage_us(hists, proto::STAGE_WALK, 0.99),
        stage_us(hists, proto::STAGE_REFINE, 0.50),
        stage_us(hists, proto::STAGE_REFINE, 0.99),
        stage_us(hists, proto::STAGE_WRITE, 0.50),
        stage_us(hists, proto::STAGE_WRITE, 0.99),
        stage_us(hists, proto::STAGE_FRAME_TOTAL, 0.50),
        stage_us(hists, proto::STAGE_FRAME_TOTAL, 0.99),
        stage_raw(hists, proto::STAGE_PROBE_DEPTH, 0.99),
    );

    let mut rows = vec![with_stage_quantiles(
        Obj::new()
            .str("dataset", &ds.name)
            .int("polygons", num_zones as u64)
            .num("precision_m", precision)
            .int("points", points.len() as u64)
            .int("connections", connections as u64)
            .int("points_per_frame", frame as u64)
            .num("secs", secs)
            .num("probes_per_sec", throughput)
            .num("frame_latency_p50_us", p50)
            .num("frame_latency_p99_us", p99)
            .num(
                "frame_latency_max_us",
                latencies.last().copied().unwrap_or(f64::NAN),
            )
            .int("server_batches", stats.batches)
            .num("mean_batch_width", batch_width)
            .int("epoch", u64::from(server.epoch()))
            .bool("obs_enabled", true)
            .bool("server_p99_le_client_p99", true)
            .bool("counts_verified", true)
            .bool("exact_mode_verified", true),
        hists,
    )
    .build()];
    server.shutdown();

    if opts.router {
        rows.push(run_router(
            ds,
            &path,
            &snap,
            &points,
            connections,
            frame,
            throughput,
        )?);
    }
    if opts.overload {
        rows.push(run_overload(ds, &path, &snap, &points)?);
    }
    if let Some(s) = opts.zipf {
        rows.extend(run_zipf(ds, &path, &snap, &points, opts.seed, s)?);
    }
    if opts.greedy {
        rows.push(run_fairness(ds, &path, &snap, &points)?);
    }
    if opts.faults {
        #[cfg(feature = "fault-injection")]
        rows.push(run_faults(ds, &path, &snap, &points)?);
        #[cfg(not(feature = "fault-injection"))]
        return Err(
            "--faults requires a loadgen built with --features fault-injection".to_string(),
        );
    }
    Ok(rows)
}

/// The external-target phase (`--router-addr`): the same striped
/// workload driven at an already-running `act-route` or `act-serve`
/// endpoint instead of an in-process spawn. Counts are verified against
/// the local offline probe (the external fleet must serve the same
/// snapshot); the exact-mode spot check is skipped because an external
/// worker may run without a refiner. The phase also pulls a STATS
/// read (recording merged per-stage quantiles when the target has
/// observability on) and probes the DUMP op, tolerating UNSUPPORTED.
#[allow(clippy::too_many_arguments)]
fn run_external(
    ds: &datagen::Dataset,
    points: &[Coord],
    expected: &[u64],
    connections: usize,
    frame: usize,
    addr: &str,
    opts: &Opts,
) -> Result<String, String> {
    use std::net::ToSocketAddrs;
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("--router-addr {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("--router-addr {addr} resolved to nothing"))?;
    let num_zones = ds.polygons.len();
    println!("external: driving {addr} with {connections} conn(s), {frame}/frame");
    let connect = |what: &str| -> Result<Client, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("{what}: connect {addr}: {e}"))?;
        c.set_read_timeout(Some(READ_DEADLINE))
            .map_err(|e| format!("{what}: set deadline: {e}"))?;
        Ok(c)
    };

    // Warmup: touch the fleet's mapped pages through the endpoint.
    {
        let mut c = connect("external warmup")?;
        for chunk in points.chunks(frame).take(64) {
            c.probe(chunk, false)
                .map_err(|e| format!("external warmup probe: {e}"))?;
        }
    }

    let t0 = Instant::now();
    let stripe = points.len().div_ceil(connections);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .chunks(stripe.max(1))
            .map(|mine| {
                scope.spawn(move || {
                    let mut client = connect("external run")?;
                    let mut counts = vec![0u64; num_zones];
                    let mut lat_us = Vec::with_capacity(mine.len() / frame + 1);
                    for chunk in mine.chunks(frame) {
                        let t = Instant::now();
                        let reply = client
                            .probe(chunk, false)
                            .map_err(|e| format!("external probe: {e}"))?;
                        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                        for refs in &reply.refs {
                            for &(id, _) in refs {
                                counts[id as usize] += 1;
                            }
                        }
                    }
                    Ok((counts, lat_us))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("external client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut counts = vec![0u64; num_zones];
    let mut latencies = Vec::new();
    for r in results {
        let (c, l) = r?;
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
        latencies.extend(l);
    }
    if counts != expected {
        return Err(
            "external counts diverged from the local offline probe — is the fleet serving the \
             same snapshot?"
                .to_string(),
        );
    }

    // Observability over the wire: merged stage histograms when the
    // target runs with obs on (empty section otherwise), and the DUMP
    // op (UNSUPPORTED when no trace ring is configured).
    let stats_ex = {
        let mut c = connect("external stats")?;
        c.stats_ex()
            .map_err(|e| format!("external stats_ex: {e}"))?
    };
    let hists = &stats_ex.histograms;
    let has_stage_hists = hists
        .iter()
        .any(|h| h.stage == proto::STAGE_FRAME_TOTAL && h.hist.count() > 0);
    let dump_lines = {
        let mut c = connect("external dump")?;
        c.dump().ok().map(|text| text.lines().count() as u64)
    };

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let throughput = points.len() as f64 / secs;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    if has_stage_hists {
        let server_p99 = stage_us(hists, proto::STAGE_FRAME_TOTAL, 0.99);
        // The external fleet's histograms cover *all* its traffic (ours
        // plus anything before), so this is a sanity print, not an
        // assert — the CI smoke asserts on a fleet only we drove.
        println!(
            "external: server frame p99 {server_p99:.0} us vs client p99 {p99:.0} us \
             (fleet-lifetime histogram)"
        );
    }
    println!(
        "external: {} probes in {secs:.2} s ({:.2} M probes/s); p50 {p50:.0} us p99 {p99:.0} us; \
         stage histograms {}, trace dump {}",
        points.len(),
        throughput / 1e6,
        if has_stage_hists { "present" } else { "absent" },
        match dump_lines {
            Some(n) => format!("{n} events"),
            None => "unsupported".to_string(),
        },
    );

    // `--zipf` against an external target: drive skewed repeat traffic at
    // the endpoint so a cache-enabled worker accumulates hits — the CI
    // cache smoke scrapes `act_cache_hits_total` off /metrics afterwards.
    let mut zipf_smoke_frames = 0u64;
    if let Some(s) = opts.zipf {
        let hot = &points[..points.len().min(ZIPF_HOT_SET)];
        let mut sampler = Zipf::new(hot.len(), s, 0x51_F0ED);
        let mut c = connect("external zipf smoke")?;
        let mut buf = Vec::with_capacity(frame);
        for _ in 0..ZIPF_SMOKE_FRAMES {
            buf.clear();
            buf.extend((0..frame).map(|_| hot[sampler.next_rank()]));
            c.probe(&buf, false)
                .map_err(|e| format!("external zipf probe: {e}"))?;
            zipf_smoke_frames += 1;
        }
        println!(
            "external: zipf({s}) smoke — {zipf_smoke_frames} frames × {frame} pts over {} hot points",
            hot.len()
        );
    }

    // `--greedy` against an external target: one pipelined burst that
    // keeps many lanes in flight on a single connection, so a
    // quota-enforcing worker sheds the over-quota frames — the CI
    // fairness smoke scrapes `act_quota_sheds_total` afterwards.
    let mut burst_ok = 0u64;
    let mut burst_shed = 0u64;
    if opts.greedy {
        let burst_frame = &points[..points.len().min(FAIR_FRAME)];
        (burst_ok, burst_shed) = greedy_burst(addr, burst_frame)?;
        println!(
            "external: greedy burst — {GREEDY_BURST_FRAMES} frames × {} pts pipelined: \
             {burst_ok} OK, {burst_shed} shed",
            burst_frame.len()
        );
    }

    let row = Obj::new()
        .str("dataset", &ds.name)
        .str("mode", "external")
        .str("addr", &addr.to_string())
        .int("points", points.len() as u64)
        .int("connections", connections as u64)
        .int("points_per_frame", frame as u64)
        .num("secs", secs)
        .num("probes_per_sec", throughput)
        .num("frame_latency_p50_us", p50)
        .num("frame_latency_p99_us", p99)
        .bool("stage_histograms_present", has_stage_hists)
        .bool("trace_dump_supported", dump_lines.is_some())
        .int("trace_dump_events", dump_lines.unwrap_or(0))
        .int("zipf_smoke_frames", zipf_smoke_frames)
        .int("greedy_burst_ok_frames", burst_ok)
        .int("greedy_burst_shed_frames", burst_shed)
        .bool("counts_verified", true);
    Ok(with_stage_quantiles(row, hists).build())
}

/// One pipelined burst at an external endpoint: [`GREEDY_BURST_FRAMES`]
/// frames written back-to-back by a decoupled writer while this thread
/// drains the replies (same deadlock-free shape as [`overload_conn`]).
/// Returns (OK frames, LOADSHED frames); any other status is an error.
fn greedy_burst(addr: std::net::SocketAddr, chunk: &[Coord]) -> Result<(u64, u64), String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("burst connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    let mut wstream = stream.try_clone().map_err(|e| e.to_string())?;
    let frame_bytes = proto::encode_probe_request(chunk, false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<(), String> {
            for _ in 0..GREEDY_BURST_FRAMES {
                wstream
                    .write_all(&frame_bytes)
                    .map_err(|e| format!("burst write: {e}"))?;
            }
            Ok(())
        });
        let mut stream = stream;
        let (mut ok, mut shed) = (0u64, 0u64);
        for _ in 0..GREEDY_BURST_FRAMES {
            let body = proto::read_frame(&mut stream, 1 << 26)
                .map_err(|e| format!("burst read: {e}"))?
                .ok_or("burst: server closed mid-conversation")?;
            let (h, _) = proto::decode_response(&body).map_err(|e| e.to_string())?;
            match h.status {
                proto::STATUS_OK => ok += 1,
                proto::STATUS_LOADSHED => shed += 1,
                s => {
                    return Err(format!(
                        "burst: frame answered {} — only OK or LOADSHED is legal",
                        proto::status_name(s)
                    ))
                }
            }
        }
        writer.join().expect("burst writer thread")?;
        Ok((ok, shed))
    })
}

/// The sharded-serving phase: sharder → [`ROUTER_SHARDS`] in-process
/// workers → scatter-gather router, the same workload driven through
/// the router's endpoint, counts verified against the offline probe and
/// the merged counter block cross-checked against per-worker sums. The
/// recorded ratio vs the single-process run is the scale-out headline;
/// on a box with fewer cores than workers it is a floor, not the
/// ceiling (see the machine stamp).
#[allow(clippy::too_many_arguments)]
fn run_router(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
    connections: usize,
    frame: usize,
    single_process_throughput: f64,
) -> Result<String, String> {
    use act_core::write_shard_files;
    use act_serve::{Router, RouterConfig};

    let num_zones = ds.polygons.len();
    println!("router: sharding into {ROUTER_SHARDS} workers, {connections} conn(s), {frame}/frame");

    // Shard the cached snapshot. The shards are derived artifacts —
    // rebuilt per run, removed after — so a refreshed base snapshot can
    // never race stale shards.
    let index = {
        let mut f = std::fs::File::open(path).map_err(|e| format!("router: open snapshot: {e}"))?;
        act_core::ActIndex::load_snapshot(&mut f).map_err(|e| format!("router: load: {e}"))?
    };
    let shard_dir = path.with_extension("shards");
    let t = Instant::now();
    let shard_paths = write_shard_files(&index, &shard_dir, ROUTER_SPLIT_LEVEL, ROUTER_SHARDS)
        .map_err(|e| format!("router: shard: {e}"))?;
    println!("router: sharded in {:.2} s", t.elapsed().as_secs_f64());
    drop(index);

    let workers: Vec<_> = shard_paths
        .iter()
        .map(|p| {
            Server::spawn(
                p,
                ServeConfig {
                    watch: None,
                    ..ServeConfig::default()
                },
            )
            .expect("spawn shard worker")
        })
        .collect();
    let router = Router::spawn(
        workers.iter().map(|w| w.addr()).collect(),
        RouterConfig {
            split_level: ROUTER_SPLIT_LEVEL,
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("router: spawn: {e}"))?;
    let addr = router.addr();
    let connect = |what: &str| -> Result<Client, String> {
        let mut c = Client::connect(addr).map_err(|e| format!("{what}: connect: {e}"))?;
        c.set_read_timeout(Some(READ_DEADLINE))
            .map_err(|e| format!("{what}: set deadline: {e}"))?;
        Ok(c)
    };

    // Warmup: touch every shard's mapped pages through the router.
    {
        let mut c = connect("router warmup")?;
        for chunk in points.chunks(frame).take(64) {
            c.probe(chunk, false)
                .map_err(|e| format!("router warmup probe: {e}"))?;
        }
    }
    let warm_probes: u64 = workers.iter().map(|w| w.stats().probes).sum();

    // Measured routed run: same striping as the single-process phase.
    let t0 = Instant::now();
    let stripe = points.len().div_ceil(connections);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .chunks(stripe.max(1))
            .map(|mine| {
                scope.spawn(move || {
                    let mut client = connect("routed run")?;
                    let mut counts = vec![0u64; num_zones];
                    let mut lat_us = Vec::with_capacity(mine.len() / frame + 1);
                    for chunk in mine.chunks(frame) {
                        let t = Instant::now();
                        let reply = client
                            .probe(chunk, false)
                            .map_err(|e| format!("routed probe: {e}"))?;
                        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                        for refs in &reply.refs {
                            for &(id, _) in refs {
                                counts[id as usize] += 1;
                            }
                        }
                    }
                    Ok((counts, lat_us))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("routed client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut counts = vec![0u64; num_zones];
    let mut latencies = Vec::new();
    for r in results {
        let (c, l) = r?;
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
        latencies.extend(l);
    }

    // Oracle: routed counts ≡ offline probe of the unsharded snapshot.
    let mut expected = vec![0u64; num_zones];
    {
        let view = snap.view();
        let cells: Vec<_> = points.iter().map(|&c| coord_to_cell(c)).collect();
        let mut probes = vec![Probe::Miss; cells.len()];
        view.probe_batch(&cells, &mut probes);
        for &p in &probes {
            for (id, _) in view.resolve_refs(p) {
                expected[id as usize] += 1;
            }
        }
    }
    assert_eq!(counts, expected, "routed counts diverged — not recording");

    // Books: every probe point was answered by exactly one worker, and
    // the router's merged counter block equals the sum of the parts.
    let per_shard: Vec<u64> = workers.iter().map(|w| w.stats().probes).collect();
    let fleet_probes: u64 = per_shard.iter().sum();
    assert_eq!(fleet_probes - warm_probes, points.len() as u64);
    let merged = {
        let mut c = connect("router stats")?;
        c.ping().map_err(|e| format!("router ping: {e}"))?
    };
    assert_eq!(merged.counters.probes, fleet_probes);
    assert_eq!(merged.counters.shed, 0, "routed run must never shed");
    assert_eq!(merged.epoch, 1, "fresh fleet min epoch");

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let throughput = points.len() as f64 / secs;
    let speedup = throughput / single_process_throughput;
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    println!(
        "router: {} probes in {secs:.2} s ({:.2} M probes/s routed vs {:.2} M single-process, \
         {speedup:.2}x with {ROUTER_SHARDS} workers); latency/frame p50 {p50:.0} us p99 {p99:.0} us; \
         per-shard probes {per_shard:?}",
        points.len(),
        throughput / 1e6,
        single_process_throughput / 1e6
    );

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&shard_dir).ok();

    Ok(Obj::new()
        .str("dataset", &ds.name)
        .str("mode", "router")
        .int("shards", ROUTER_SHARDS as u64)
        .int("split_level", ROUTER_SPLIT_LEVEL as u64)
        .raw(
            "fleet_probes_per_shard",
            format!(
                "[{}]",
                per_shard
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .int("points", points.len() as u64)
        .int("connections", connections as u64)
        .int("points_per_frame", frame as u64)
        .num("secs", secs)
        .num("probes_per_sec_routed", throughput)
        .num("probes_per_sec_single_process", single_process_throughput)
        .num("routed_over_single_process", speedup)
        .num("frame_latency_p50_us", p50)
        .num("frame_latency_p99_us", p99)
        .int("fleet_probes", fleet_probes)
        .bool("counts_verified", true)
        .bool("merged_counters_verified", true)
        .build())
}

/// The fault soak: a seeded, deterministic fault schedule — worker
/// panics, socket resets, socket stalls — fires under live traffic
/// driven through the [`act_serve::ResilientClient`]. Records the
/// latency penalty during the fault window, the time from the last
/// injected fault to the first clean reply, and whether every frame was
/// eventually answered (the client absorbing INTERNAL/reset/stall with
/// retries) with the server's books balanced.
#[cfg(feature = "fault-injection")]
fn run_faults(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
) -> Result<String, String> {
    use act_serve::faults::{FaultPlan, FaultSpec, Site};
    use act_serve::{ResilientClient, RetryPolicy};

    const FAULT_FRAME: usize = 256;
    const FAULT_MAX_FRAMES: usize = 600;
    let frames: Vec<&[Coord]> = points.chunks(FAULT_FRAME).take(FAULT_MAX_FRAMES).collect();

    // The schedule: 4 worker panics spread across the soak, 3 mid-reply
    // socket resets, 4 socket stalls. Hit numbers are per-site, so the
    // same seed + same traffic reproduces the same fault times.
    let plan = FaultPlan::new(0xFA0175)
        .stall(Duration::from_millis(5))
        .with(FaultSpec {
            site: Site::WorkerPanic,
            first: 5,
            every: 40,
            count: 4,
        })
        .with(FaultSpec {
            site: Site::ConnWrite,
            first: 10,
            every: 120,
            count: 3,
        })
        .with(FaultSpec {
            site: Site::ConnStall,
            first: 20,
            every: 90,
            count: 4,
        });
    let faults = plan.arm();
    let planned_fires: u64 = 4 + 3 + 4;
    println!(
        "faults: {} frames × {FAULT_FRAME} pts through a seeded schedule \
         (4 worker panics, 3 socket resets, 4 stalls)",
        frames.len()
    );

    let server = Server::spawn(
        path,
        ServeConfig {
            workers: 1,
            watch: None,
            faults: Some(std::sync::Arc::clone(&faults)),
            ..ServeConfig::default()
        },
    )
    .expect("spawn fault-soak act-serve");

    let mut client = ResilientClient::new(
        server.addr(),
        RetryPolicy {
            max_attempts: 10,
            read_timeout: READ_DEADLINE,
            deadline: Some(Duration::from_secs(60)),
            ..RetryPolicy::default()
        },
    )
    .map_err(|e| format!("faults: client: {e}"))?;

    let mut counts = vec![0u64; ds.polygons.len()];
    let mut fault_lat_us = Vec::new();
    let mut clean_lat_us = Vec::new();
    let mut fault_end: Option<Instant> = None;
    let mut recovery = None;
    for (k, chunk) in frames.iter().enumerate() {
        let t = Instant::now();
        let reply = client
            .probe(chunk, false)
            .map_err(|e| format!("faults: frame {k} not absorbed by retries: {e}"))?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        for refs in &reply.refs {
            for &(id, _) in refs {
                counts[id as usize] += 1;
            }
        }
        if faults.total_fires() < planned_fires {
            fault_lat_us.push(us);
        } else {
            if fault_end.is_none() {
                // This frame completed after the final injected fault:
                // its completion is the recovery point.
                let now = Instant::now();
                fault_end = Some(now);
                recovery = Some(t.elapsed());
            }
            clean_lat_us.push(us);
        }
    }
    if faults.total_fires() < planned_fires {
        return Err(format!(
            "faults: schedule only fired {}/{planned_fires} — traffic too thin to trust the row",
            faults.total_fires()
        ));
    }

    // Every frame was eventually answered correctly: aggregated counts
    // must equal the offline probe of the same frames.
    let mut want = vec![0u64; ds.polygons.len()];
    {
        let view = snap.view();
        let cells: Vec<_> = frames
            .iter()
            .flat_map(|f| f.iter().map(|&c| coord_to_cell(c)))
            .collect();
        let mut probes = vec![Probe::Miss; cells.len()];
        view.probe_batch(&cells, &mut probes);
        for &p in &probes {
            for (id, _) in view.resolve_refs(p) {
                want[id as usize] += 1;
            }
        }
    }
    assert_eq!(
        counts, want,
        "answers under fault injection diverged — not recording"
    );

    let stats = server.stats();
    server.shutdown();
    assert_eq!(
        stats.accepted,
        stats.answered + stats.shed,
        "faults: counters must reconcile"
    );
    assert_eq!(
        stats.panics_contained,
        faults.fires(Site::WorkerPanic),
        "every injected panic must be contained (none took a worker down)"
    );

    fault_lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    clean_lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99_fault = percentile(&fault_lat_us, 0.99);
    let p99_clean = percentile(&clean_lat_us, 0.99);
    let recovery_ms = recovery.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    println!(
        "faults: p99 {p99_fault:.0} us during the fault window vs {p99_clean:.0} us after; \
         recovered {recovery_ms:.1} ms after the last fault; {} panics contained, \
         {} resets, {} stalls, {} retries over {} connections — zero lost frames",
        stats.panics_contained,
        faults.fires(Site::ConnWrite),
        faults.fires(Site::ConnStall),
        client.retries(),
        client.connects(),
    );

    Ok(Obj::new()
        .str("dataset", &ds.name)
        .str("mode", "faults")
        .int("frames", frames.len() as u64)
        .int("points_per_frame", FAULT_FRAME as u64)
        .int("worker_panics_injected", faults.fires(Site::WorkerPanic))
        .int("socket_resets_injected", faults.fires(Site::ConnWrite))
        .int("socket_stalls_injected", faults.fires(Site::ConnStall))
        .int("panics_contained", stats.panics_contained)
        .num("frame_latency_p99_fault_window_us", p99_fault)
        .num("frame_latency_p99_after_us", p99_clean)
        .num("recovery_after_last_fault_ms", recovery_ms)
        .int("client_retries", client.retries())
        .int("client_connects", client.connects())
        .num("client_backoff_secs", client.backoff_slept().as_secs_f64())
        .bool("zero_lost_frames", true)
        .bool("counts_verified", true)
        .bool("counters_reconciled", true)
        .build())
}

/// The overload phase: a fresh small-queue server, pipelining clients
/// past capacity, shed-rate + goodput rows. See the bin docs for the
/// asserted contract.
fn run_overload(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
) -> Result<String, String> {
    let n_points = points.len().min(OVERLOAD_MAX_POINTS);
    let points = &points[..n_points];
    let frames: Vec<&[Coord]> = points.chunks(OVERLOAD_FRAME).collect();
    let capacity_lanes_per_sec = OVERLOAD_BATCH_LANES as f64 / OVERLOAD_BATCH_DELAY.as_secs_f64();
    println!(
        "overload: {} frames × {OVERLOAD_FRAME} pts over {OVERLOAD_CONNS} pipelining conns \
         (server in-flight cap {OVERLOAD_WINDOW}), depth {OVERLOAD_DEPTH_LANES} lanes, capacity {:.0} lanes/s",
        frames.len(),
        capacity_lanes_per_sec
    );

    let server = Server::spawn(
        path,
        ServeConfig {
            workers: 1,
            batch_lanes: OVERLOAD_BATCH_LANES,
            queue_depth_lanes: OVERLOAD_DEPTH_LANES,
            max_inflight_frames: OVERLOAD_WINDOW,
            batch_delay: Some(OVERLOAD_BATCH_DELAY),
            watch: None,
            ..ServeConfig::default()
        },
    )
    .expect("spawn overload act-serve");
    let addr = server.addr();

    // Pipelined drive: each connection owns a stripe of frames, keeps a
    // window of OVERLOAD_WINDOW requests on the wire, and records which
    // frames were answered OK vs LOADSHED (in order — the protocol
    // answers a connection's frames in request order).
    let t0 = Instant::now();
    let stripe = frames.len().div_ceil(OVERLOAD_CONNS).max(1);
    let per_conn: Vec<OverloadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .chunks(stripe)
            .map(|mine| scope.spawn(move || overload_conn(addr, mine, ds.polygons.len())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut ok_mask: Vec<bool> = Vec::with_capacity(frames.len());
    let mut got_counts = vec![0u64; ds.polygons.len()];
    let mut write_secs = 0f64;
    for r in per_conn {
        let (mask, counts, write_dur) = r?;
        ok_mask.extend(mask);
        for (acc, v) in got_counts.iter_mut().zip(counts) {
            *acc += v;
        }
        // Connections blast concurrently, so the slowest writer bounds
        // when the full point set had been offered.
        write_secs = write_secs.max(write_dur.as_secs_f64());
    }
    assert_eq!(
        ok_mask.len(),
        frames.len(),
        "every frame must be answered, OK or LOADSHED"
    );

    // Verify the OK answers against an offline probe of exactly those
    // frames — shedding must never corrupt what *is* answered.
    let mut want_counts = vec![0u64; ds.polygons.len()];
    {
        let view = snap.view();
        let ok_cells: Vec<_> = ok_mask
            .iter()
            .zip(&frames)
            .filter(|(ok, _)| **ok)
            .flat_map(|(_, f)| f.iter().map(|&c| coord_to_cell(c)))
            .collect();
        let mut probes = vec![Probe::Miss; ok_cells.len()];
        view.probe_batch(&ok_cells, &mut probes);
        for &p in &probes {
            for (id, _) in view.resolve_refs(p) {
                want_counts[id as usize] += 1;
            }
        }
    }
    assert_eq!(
        got_counts, want_counts,
        "OK answers under overload diverged from offline probe — not recording"
    );

    let ok_frames = ok_mask.iter().filter(|&&b| b).count();
    let shed_frames = frames.len() - ok_frames;
    let stats = server.stats();
    server.shutdown();

    // The admission-control contract, asserted before recording.
    assert_eq!(
        stats.accepted,
        frames.len() as u64,
        "one admission per frame"
    );
    assert_eq!(
        stats.shed, shed_frames as u64,
        "server and client agree on sheds"
    );
    assert_eq!(
        stats.accepted,
        stats.answered + stats.shed,
        "counters reconcile"
    );
    assert!(
        stats.queue_high_water_lanes <= OVERLOAD_DEPTH_LANES as u64,
        "queue high-water {} exceeded depth {OVERLOAD_DEPTH_LANES}",
        stats.queue_high_water_lanes
    );
    assert!(shed_frames > 0, "overload phase must actually shed");

    let ok_points: usize = ok_mask
        .iter()
        .zip(&frames)
        .filter(|(ok, _)| **ok)
        .map(|(_, f)| f.len())
        .sum();
    // Offered load is measured on the *write* side: the slowest writer's
    // blast time is when the full point set had been pushed onto the
    // wire. Dividing by the full-run wall clock (which includes waiting
    // for the last reply) conflated "offered" with "answered" and
    // understated the overload multiple.
    let offered_per_sec = points.len() as f64 / write_secs;
    let goodput_per_sec = ok_points as f64 / secs;
    let shed_rate = shed_frames as f64 / frames.len() as f64;
    let offered_x_capacity = offered_per_sec / capacity_lanes_per_sec;
    // TCP backpressure behind `max_inflight_frames` can throttle the
    // writers toward service rate — a stable equilibrium where the load
    // actually offered never reached the configured target. The row
    // records which regime the run was in rather than asserting it away.
    let throttled_equilibrium = offered_x_capacity < OVERLOAD_TARGET_X_CAPACITY;
    assert!(
        offered_x_capacity > 1.0,
        "overload never exceeded capacity (got {offered_x_capacity:.2}×) — raise the window/conns"
    );
    println!(
        "overload: offered {:.0} pts/s measured ({offered_x_capacity:.1}× capacity, target \
         {OVERLOAD_TARGET_X_CAPACITY:.0}×{}), goodput {:.0} pts/s, shed rate {:.1}% \
         ({shed_frames}/{} frames), queue high-water {} ≤ {OVERLOAD_DEPTH_LANES} lanes",
        offered_per_sec,
        if throttled_equilibrium {
            " — THROTTLED EQUILIBRIUM"
        } else {
            ""
        },
        goodput_per_sec,
        shed_rate * 100.0,
        frames.len(),
        stats.queue_high_water_lanes
    );

    Ok(Obj::new()
        .str("dataset", &ds.name)
        .str("mode", "overload")
        .int("points", points.len() as u64)
        .int("frames", frames.len() as u64)
        .int("points_per_frame", OVERLOAD_FRAME as u64)
        .int("connections", OVERLOAD_CONNS as u64)
        .int("server_inflight_cap", OVERLOAD_WINDOW as u64)
        .int("queue_depth_lanes", OVERLOAD_DEPTH_LANES as u64)
        .num("batch_delay_ms", OVERLOAD_BATCH_DELAY.as_secs_f64() * 1e3)
        .num("capacity_lanes_per_sec", capacity_lanes_per_sec)
        .num("secs", secs)
        .num("write_secs", write_secs)
        .num("offered_target_x_capacity", OVERLOAD_TARGET_X_CAPACITY)
        .num("offered_points_per_sec_measured", offered_per_sec)
        .num("offered_x_capacity_measured", offered_x_capacity)
        .bool("throttled_equilibrium", throttled_equilibrium)
        .num("goodput_points_per_sec", goodput_per_sec)
        .int("ok_frames", ok_frames as u64)
        .int("shed_frames", shed_frames as u64)
        .num("shed_rate", shed_rate)
        .int("queue_high_water_lanes", stats.queue_high_water_lanes)
        .bool("all_frames_answered", true)
        .bool("ok_counts_verified", true)
        .build())
}

/// Drives one overload connection over its stripe of frames with the
/// write and read sides fully decoupled: a scoped writer thread blasts
/// every frame while this thread drains replies as fast as they arrive.
/// The decoupling matters — a single-threaded sliding window blocks on
/// each *admitted* frame's service latency at the window front, which
/// self-throttles the offered load back down to roughly capacity (a
/// stable equilibrium that defeats the whole point of the phase). The
/// server's `max_inflight_frames` plus the always-draining reader keep
/// both sides deadlock-free.
fn overload_conn(
    addr: std::net::SocketAddr,
    mine: &[&[Coord]],
    num_zones: usize,
) -> OverloadResult {
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("overload connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    let mut wstream = stream.try_clone().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<Duration, String> {
            let w0 = Instant::now();
            for chunk in mine {
                wstream
                    .write_all(&proto::encode_probe_request(chunk, false))
                    .map_err(|e| format!("overload write: {e}"))?;
            }
            Ok(w0.elapsed())
        });

        let mut stream = stream;
        let mut ok_mask = Vec::with_capacity(mine.len());
        let mut counts = vec![0u64; num_zones];
        // Replies arrive in request order; the k-th reply is frame k's.
        for chunk in mine {
            let body = proto::read_frame(&mut stream, 1 << 26)
                .map_err(|e| format!("overload read (deadline {READ_DEADLINE:?}): {e}"))?
                .ok_or("overload: server closed mid-conversation")?;
            let (h, payload) = proto::decode_response(&body).map_err(|e| e.to_string())?;
            if h.op != proto::OP_PROBE {
                return Err(format!("overload: unexpected op {}", h.op));
            }
            match h.status {
                proto::STATUS_OK => {
                    if h.n as usize != chunk.len() {
                        return Err("overload: OK reply with wrong point count".into());
                    }
                    let refs =
                        proto::decode_probe_payload(h.n, payload).map_err(|e| e.to_string())?;
                    for one in refs {
                        for (id, _) in one {
                            counts[id as usize] += 1;
                        }
                    }
                    ok_mask.push(true);
                }
                proto::STATUS_LOADSHED => {
                    if h.n != 0 {
                        return Err("overload: LOADSHED reply carries entries".into());
                    }
                    // v2 sheds carry an optional 4-byte retry hint.
                    proto::decode_retry_after(payload).map_err(|e| e.to_string())?;
                    ok_mask.push(false);
                }
                s => {
                    return Err(format!(
                        "overload: frame answered {} — only OK or LOADSHED is legal",
                        proto::status_name(s)
                    ))
                }
            }
        }
        let write_dur = writer.join().expect("overload writer thread")?;
        Ok((ok_mask, counts, write_dur))
    })
}

/// Per-zone counts from an offline probe of `pts` against the mapped
/// snapshot — the oracle every serving phase verifies against.
fn offline_counts(snap: &MappedSnapshot, pts: &[Coord], num_zones: usize) -> Vec<u64> {
    let view = snap.view();
    let cells: Vec<_> = pts.iter().map(|&c| coord_to_cell(c)).collect();
    let mut probes = vec![Probe::Miss; cells.len()];
    view.probe_batch(&cells, &mut probes);
    let mut counts = vec![0u64; num_zones];
    for &p in &probes {
        for (id, _) in view.resolve_refs(p) {
            counts[id as usize] += 1;
        }
    }
    counts
}

/// The hot-cell cache phase (`--zipf S`): a Zipf(S)-skewed workload over
/// a fixed [`ZIPF_HOT_SET`] drives two fresh servers from the same
/// snapshot — identical except one runs with the result cache on — and
/// the row records both throughputs, the hit rate, and the speedup
/// (timed over a minimal-drain pass; see [`zipf_run`]). The cache-on
/// counts are verified against the same offline probe as the cache-off
/// counts, so a stale or corrupted cached answer fails the phase
/// instead of being recorded.
fn run_zipf(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
    seed: u64,
    s: f64,
) -> Result<Vec<String>, String> {
    // The host dataset's row carries the >= 1.3x contract: with cell
    // frames taking the shared coordinate->cell cost out
    // of the timed loop, a hot-set hit is a flat-table lookup plus a
    // packed-word memcpy, while a miss still pays the full trie walk —
    // and on a shallow partition the walk is the dominant per-probe
    // cost, so eliminating it shows up whole.
    let host_row = zipf_phase(
        &ds.name,
        ds.polygons.len(),
        path,
        snap,
        points,
        seed,
        s,
        Some(1.3),
    )?;

    let surge = datagen::surge_zones(seed, 16, 8, 8);
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let surge_path = snapshot_path(dir.to_str().unwrap_or("."), &surge.name, 15.0);
    if !bench::snapshot_is_current(&surge_path) {
        let t = Instant::now();
        let built = act_core::ActIndex::build(&surge.polygons, 15.0).expect("build surge index");
        println!(
            "zipf: built {} in {:.1} s (cached for reruns)",
            surge.name,
            t.elapsed().as_secs_f64()
        );
        let mut f = std::fs::File::create(&surge_path).expect("create surge snapshot");
        built.save_snapshot(&mut f).expect("save surge snapshot");
    }
    let surge_snap = MappedSnapshot::open(&surge_path).expect("map surge snapshot");
    let surge_points = make_points(&surge, ZIPF_MAX_POINTS, seed);
    // The surge preset stacks 16 overlapping zone layers (16 refs per
    // probe), so the reply payload encode dominates both sides and the
    // cache's walk elimination is a smaller slice of each probe. It
    // clears 1.3x too on typical runs, but its margin sits within
    // machine noise — the contract rides on the host row, and this one
    // is recorded as evidence, not gated.
    let surge_row = zipf_phase(
        &surge.name,
        surge.polygons.len(),
        &surge_path,
        &surge_snap,
        &surge_points,
        seed,
        s,
        None,
    )?;
    Ok(vec![host_row, surge_row])
}

/// One dataset's cache-off vs cache-on comparison; `min_speedup` is the
/// acceptance floor, asserted when present (see [`run_zipf`] for which
/// datasets carry one and why).
#[allow(clippy::too_many_arguments)]
fn zipf_phase(
    name: &str,
    num_zones: usize,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
    seed: u64,
    s: f64,
    min_speedup: Option<f64>,
) -> Result<String, String> {
    use act_serve::CacheConfig;

    let hot = &points[..points.len().min(ZIPF_HOT_SET)];
    let n_points = points.len().min(ZIPF_MAX_POINTS);
    let frame = ZIPF_FRAME.min(proto::MAX_POINTS);
    let mut sampler = Zipf::new(hot.len(), s, seed ^ 0x51_F0ED);
    let top_decile = (hot.len() / 10).max(1);
    let mut top_decile_draws = 0u64;
    let workload: Vec<Coord> = (0..n_points)
        .map(|_| {
            let rank = sampler.next_rank();
            if rank < top_decile {
                top_decile_draws += 1;
            }
            hot[rank]
        })
        .collect();
    let skew = top_decile_draws as f64 / workload.len() as f64;
    println!(
        "zipf[{name}]: {} probes, Zipf({s}) over {} hot points (top 10% of ranks drew {:.1}% of \
         traffic), {frame} pts/frame",
        workload.len(),
        hot.len(),
        skew * 100.0
    );

    // One shard, full capacity: the phase runs one worker (nothing to
    // shard for), and a metro-scale dataset's probe keys share their
    // top prefix bits — the shard selector bits — so a sharded cache
    // would cram the whole hot set into one under-sized shard.
    let cache_config = CacheConfig {
        shards: 1,
        capacity: CacheConfig::default().capacity,
    };
    let expected = offline_counts(snap, &workload, num_zones);
    // Both servers stay up for the whole phase and the measured reps
    // alternate between them, so a slow stretch of the host machine
    // (the runs share it with everything else) degrades both sides of
    // the ratio instead of whichever server it happened to land on.
    let mut off_bench = ZipfBench::start(path, &workload, frame, num_zones, None)?;
    let mut on_bench = ZipfBench::start(path, &workload, frame, num_zones, Some(cache_config))?;
    for _ in 0..ZIPF_REPS {
        off_bench.rep()?;
        on_bench.rep()?;
    }
    let off = off_bench.finish();
    let on = on_bench.finish();
    assert_eq!(
        off.counts, expected,
        "cache-off counts diverged — not recording"
    );
    assert_eq!(
        on.counts, expected,
        "cache-on counts diverged — not recording"
    );

    // Cache-off must never have consulted a cache; cache-on must have
    // consulted it once per probe and hit nearly always (the hot set is
    // tiny next to the capacity, so only first touches miss).
    assert_eq!(off.stats.cache_hits + off.stats.cache_misses, 0);
    assert_eq!(
        (on.stats.cache_hits + on.stats.cache_misses) / ZIPF_REPS as u64,
        workload.len() as u64,
        "one cache consult per probe"
    );
    let hit_rate =
        on.stats.cache_hits as f64 / (on.stats.cache_hits + on.stats.cache_misses) as f64;
    assert!(
        hit_rate > 0.9,
        "hot-set hit rate {hit_rate:.3} too low to trust the row"
    );

    let off_tput = workload.len() as f64 / off.secs;
    let on_tput = workload.len() as f64 / on.secs;
    let speedup = on_tput / off_tput;
    println!(
        "zipf[{name}]: cache off {:.2} M probes/s (p99 {:.0} us) vs cache on {:.2} M probes/s \
         (p99 {:.0} us) — {speedup:.2}x, hit rate {:.2}%",
        off_tput / 1e6,
        off.p99,
        on_tput / 1e6,
        on.p99,
        hit_rate * 100.0
    );
    if let Some(floor) = min_speedup {
        assert!(
            speedup >= floor,
            "[{name}] cache-on throughput only {speedup:.2}x cache-off — below the {floor}x contract"
        );
    }

    Ok(Obj::new()
        .str("dataset", name)
        .str("mode", "zipf_cache")
        .num("zipf_s", s)
        .int("hot_set_points", hot.len() as u64)
        .num("top_decile_traffic_share", skew)
        .int("points", workload.len() as u64)
        .int("points_per_frame", frame as u64)
        .int(
            "cache_capacity",
            act_serve::CacheConfig::default().capacity as u64,
        )
        .num("secs_cache_off", off.secs)
        .num("secs_cache_on", on.secs)
        .num("probes_per_sec_cache_off", off_tput)
        .num("probes_per_sec_cache_on", on_tput)
        .num("cache_on_over_cache_off", speedup)
        .num("frame_latency_p50_us_cache_off", off.p50)
        .num("frame_latency_p99_us_cache_off", off.p99)
        .num("frame_latency_p50_us_cache_on", on.p50)
        .num("frame_latency_p99_us_cache_on", on.p99)
        .int("cache_hits", on.stats.cache_hits)
        .int("cache_misses", on.stats.cache_misses)
        .num("cache_hit_rate", hit_rate)
        .bool("measured_pass_cell_frames", true)
        .int("measured_reps_best_of", ZIPF_REPS as u64)
        .num("speedup_floor", min_speedup.unwrap_or(f64::NAN))
        .bool("counts_verified", true)
        .build())
}

/// One side of [`zipf_phase`]'s comparison after its reps finish:
/// `secs`/latencies from the best measured rep, `counts` from the
/// verification pass, `stats` cache counters from the measured reps
/// alone.
struct ZipfRun {
    secs: f64,
    p50: f64,
    p99: f64,
    counts: Vec<u64>,
    stats: act_serve::CounterBlock,
}

/// One fresh single-worker server — with or without the cache — plus a
/// raw measured-pass stream against it. [`ZipfBench::start`] runs the
/// **verification** pass; each [`ZipfBench::rep`] is one **measured**
/// pass, and [`ZipfBench::finish`] keeps the best.
///
/// The verification pass replays the whole workload with a full decode
/// and returns per-zone counts for the offline-oracle check. Running it
/// first also makes it the warmup: it touches every mapped page and (on
/// the cache side) fills every hot cell, so the measured reps time the
/// steady hot-set state on both sides instead of each side's distinct
/// cold-start costs.
///
/// The measured reps send pre-encoded frames over a raw stream and
/// check only each reply's header, so the recorded throughput tracks
/// the server (the thing the cache changes), not the harness's own
/// encode/decode loop — on one core a fully-decoding client spends more
/// time parsing ref lists than the server spends answering, drowning
/// the walk-vs-cache difference in constant harness cost. Every answer
/// the cache can produce is still verified — it just isn't timed.
///
/// The measured frames are **cell frames** (`FLAG_CELLS`): the harness
/// pays coordinate->cell once at setup, outside the timed loop, exactly
/// as a production S2 client would — so the recorded delta is the walk
/// vs. the cache, not the fixed trigonometry both sides share. The
/// verification pass still exercises the coordinate form.
struct ZipfBench {
    server: act_serve::ServerHandle,
    stream: std::net::TcpStream,
    frames: Vec<Vec<u8>>,
    frame: usize,
    workload_len: usize,
    counts: Vec<u64>,
    warm: act_serve::CounterBlock,
    best: Option<(f64, Vec<f64>)>,
}

impl ZipfBench {
    fn start(
        path: &std::path::Path,
        workload: &[Coord],
        frame: usize,
        num_zones: usize,
        cache: Option<act_serve::CacheConfig>,
    ) -> Result<Self, String> {
        let server = Server::spawn(
            path,
            ServeConfig {
                workers: 1,
                watch: None,
                cache,
                obs: if std::env::var_os("ZIPF_STAGE_DEBUG").is_some() {
                    Some(ObsConfig::default())
                } else {
                    None
                },
                ..ServeConfig::default()
            },
        )
        .expect("spawn zipf act-serve");
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("zipf connect: {e}"))?;
        client
            .set_read_timeout(Some(READ_DEADLINE))
            .map_err(|e| format!("zipf deadline: {e}"))?;

        let mut counts = vec![0u64; num_zones];
        for chunk in workload.chunks(frame) {
            let reply = client
                .probe(chunk, false)
                .map_err(|e| format!("zipf verify: {e}"))?;
            for refs in &reply.refs {
                for &(id, _) in refs {
                    counts[id as usize] += 1;
                }
            }
        }
        let warm = server.stats();

        let cells: Vec<s2cell::CellId> = workload.iter().map(|&c| coord_to_cell(c)).collect();
        let frames: Vec<Vec<u8>> = cells
            .chunks(frame)
            .map(proto::encode_probe_cells_request)
            .collect();
        let stream = std::net::TcpStream::connect(server.addr())
            .map_err(|e| format!("zipf measured connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_DEADLINE))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            server,
            stream,
            frames,
            frame,
            workload_len: workload.len(),
            counts,
            warm,
            best: None,
        })
    }

    fn rep(&mut self) -> Result<(), String> {
        let n = self.frames.len();
        let window = ZIPF_PIPELINE.min(n);
        let mut sent_at = Vec::with_capacity(n);
        let mut lat_us = Vec::with_capacity(n);
        let t0 = Instant::now();
        // Prime the pipeline, then keep [`ZIPF_PIPELINE`] frames in
        // flight: read reply i, send frame i + window. Replies come
        // back in request order (one connection, one worker).
        for bytes in &self.frames[..window] {
            sent_at.push(Instant::now());
            self.stream
                .write_all(bytes)
                .map_err(|e| format!("zipf write: {e}"))?;
        }
        for i in 0..n {
            let body = proto::read_frame(&mut self.stream, 1 << 26)
                .map_err(|e| format!("zipf read (deadline {READ_DEADLINE:?}): {e}"))?
                .ok_or("zipf: server closed mid-run")?;
            let (h, _) = proto::decode_response(&body).map_err(|e| e.to_string())?;
            let sent = self.frame.min(self.workload_len - i * self.frame);
            if h.op != proto::OP_PROBE || h.status != proto::STATUS_OK || h.n as usize != sent {
                return Err(format!(
                    "zipf: frame {i} answered op {} status {} n {} (sent {sent})",
                    h.op,
                    proto::status_name(h.status),
                    h.n
                ));
            }
            lat_us.push(sent_at[i].elapsed().as_secs_f64() * 1e6);
            if i + window < n {
                sent_at.push(Instant::now());
                self.stream
                    .write_all(&self.frames[i + window])
                    .map_err(|e| format!("zipf write: {e}"))?;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        if self.best.as_ref().is_none_or(|(b, _)| secs < *b) {
            self.best = Some((secs, lat_us));
        }
        Ok(())
    }

    fn finish(self) -> ZipfRun {
        if std::env::var_os("ZIPF_STAGE_DEBUG").is_some() {
            if let Ok(mut c) = Client::connect(self.server.addr()) {
                if let Ok(ex) = c.stats_ex() {
                    let h = &ex.histograms;
                    eprintln!(
                        "zipf stage p50 us: queue_wait {:.1} walk {:.1} write {:.1} frame_total {:.1}",
                        stage_us(h, proto::STAGE_QUEUE_WAIT, 0.50),
                        stage_us(h, proto::STAGE_WALK, 0.50),
                        stage_us(h, proto::STAGE_WRITE, 0.50),
                        stage_us(h, proto::STAGE_FRAME_TOTAL, 0.50),
                    );
                }
            }
        }
        let (secs, mut lat_us) = self.best.expect("at least one rep");
        lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mut stats = self.server.stats();
        // Only the measured reps' cache traffic: subtract the
        // verification pass that warmed it, so hits + misses line up
        // with the measured probes exactly.
        stats.cache_hits -= self.warm.cache_hits;
        stats.cache_misses -= self.warm.cache_misses;
        self.server.shutdown();
        ZipfRun {
            secs,
            p50: percentile(&lat_us, 0.50),
            p99: percentile(&lat_us, 0.99),
            counts: self.counts,
            stats,
        }
    }
}

/// The fairness phase (`--greedy`): a capacity-pinned worker (one batch
/// of [`FAIR_BATCH_LANES`] per [`FAIR_BATCH_DELAY`]) takes one greedy
/// connection blasting frames nonstop plus [`FAIR_POLITE_CLIENTS`]
/// polite [`act_serve::ResilientClient`]s each working through a fixed
/// stripe, honoring retry hints when shed. Run twice — without and with
/// the per-connection lane quota — the row records the *worst* polite
/// client's goodput for each and asserts the ≥5x contract. Every polite
/// answer and every greedy OK answer is verified against the offline
/// oracle before recording.
fn run_fairness(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
) -> Result<String, String> {
    let need = FAIR_FRAME + FAIR_POLITE_FRAME * FAIR_POLITE_CLIENTS * FAIR_POLITE_FRAMES;
    if points.len() < need {
        return Err(format!(
            "fairness: needs {need} points, have {} — raise --points",
            points.len()
        ));
    }
    let capacity_lanes_per_sec = FAIR_BATCH_LANES as f64 / FAIR_BATCH_DELAY.as_secs_f64();
    println!(
        "fairness: 1 greedy conn ({FAIR_FRAME}-pt frames) vs {FAIR_POLITE_CLIENTS} polite \
         clients × {FAIR_POLITE_FRAMES} frames × {FAIR_POLITE_FRAME} pts, capacity \
         {capacity_lanes_per_sec:.0} lanes/s, queue {FAIR_DEPTH_LANES} lanes, quota off then \
         {FAIR_QUOTA_LANES} lanes"
    );

    // The greedy connection repeats one fixed frame (its books then
    // verify as ok_frames × the frame's offline counts); each polite
    // client owns a distinct stripe.
    let greedy_frame = &points[..FAIR_FRAME];
    let greedy_expected = offline_counts(snap, greedy_frame, ds.polygons.len());
    let stripes: Vec<&[Coord]> = (0..FAIR_POLITE_CLIENTS)
        .map(|j| {
            let at = FAIR_FRAME + FAIR_POLITE_FRAME * j * FAIR_POLITE_FRAMES;
            &points[at..at + FAIR_POLITE_FRAME * FAIR_POLITE_FRAMES]
        })
        .collect();
    let stripe_expected: Vec<Vec<u64>> = stripes
        .iter()
        .map(|st| offline_counts(snap, st, ds.polygons.len()))
        .collect();

    let off = fairness_run(path, greedy_frame, &stripes, ds.polygons.len(), None)?;
    let on = fairness_run(
        path,
        greedy_frame,
        &stripes,
        ds.polygons.len(),
        Some(FAIR_QUOTA_LANES),
    )?;
    for run in [&off, &on] {
        for (got, want) in run.polite_counts.iter().zip(&stripe_expected) {
            assert_eq!(got, want, "polite answers diverged — not recording");
        }
        let want_greedy: Vec<u64> = greedy_expected
            .iter()
            .map(|c| c * run.greedy_ok_frames)
            .collect();
        assert_eq!(
            run.greedy_counts, want_greedy,
            "greedy OK answers diverged — not recording"
        );
        assert_eq!(run.stats.accepted, run.stats.answered + run.stats.shed);
    }
    assert_eq!(off.stats.quota_sheds, 0, "no quota, no quota sheds");
    assert!(
        on.stats.quota_sheds > 0,
        "the quota run must actually shed over-quota frames"
    );

    let worst_off = off.worst_goodput();
    let worst_on = on.worst_goodput();
    let gain = worst_on / worst_off;
    println!(
        "fairness: worst polite goodput {worst_off:.0} pts/s without quota vs {worst_on:.0} \
         pts/s with — {gain:.1}x; greedy {} OK / {} shed frames without, {} OK / {} shed \
         ({} quota) with",
        off.greedy_ok_frames,
        off.greedy_shed_frames,
        on.greedy_ok_frames,
        on.greedy_shed_frames,
        on.stats.quota_sheds
    );
    assert!(
        gain >= 5.0,
        "quota only improved worst-client goodput {gain:.1}x — below the 5x contract"
    );

    Ok(Obj::new()
        .str("dataset", &ds.name)
        .str("mode", "fairness")
        .int("polite_clients", FAIR_POLITE_CLIENTS as u64)
        .int("polite_frames_each", FAIR_POLITE_FRAMES as u64)
        .int("polite_points_per_frame", FAIR_POLITE_FRAME as u64)
        .int("greedy_points_per_frame", FAIR_FRAME as u64)
        .num("capacity_lanes_per_sec", capacity_lanes_per_sec)
        .int("queue_depth_lanes", FAIR_DEPTH_LANES as u64)
        .int("quota_lanes", FAIR_QUOTA_LANES as u64)
        .num("worst_polite_goodput_no_quota", worst_off)
        .num("worst_polite_goodput_with_quota", worst_on)
        .num("quota_over_no_quota", gain)
        .num("greedy_goodput_no_quota", off.greedy_goodput)
        .num("greedy_goodput_with_quota", on.greedy_goodput)
        .int("greedy_ok_frames_no_quota", off.greedy_ok_frames)
        .int("greedy_shed_frames_no_quota", off.greedy_shed_frames)
        .int("greedy_ok_frames_with_quota", on.greedy_ok_frames)
        .int("greedy_shed_frames_with_quota", on.greedy_shed_frames)
        .int("quota_sheds", on.stats.quota_sheds)
        .int("polite_retries_no_quota", off.polite_retries)
        .int("polite_retries_with_quota", on.polite_retries)
        .bool("counts_verified", true)
        .bool("counters_reconciled", true)
        .build())
}

/// One quota-off or quota-on pass of the fairness phase.
struct FairnessRun {
    polite_goodput: Vec<f64>,
    polite_counts: Vec<Vec<u64>>,
    polite_retries: u64,
    greedy_ok_frames: u64,
    greedy_shed_frames: u64,
    greedy_counts: Vec<u64>,
    greedy_goodput: f64,
    stats: act_serve::CounterBlock,
}

impl FairnessRun {
    fn worst_goodput(&self) -> f64 {
        self.polite_goodput
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

fn fairness_run(
    path: &std::path::Path,
    greedy_frame: &[Coord],
    stripes: &[&[Coord]],
    num_zones: usize,
    quota: Option<usize>,
) -> Result<FairnessRun, String> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = Server::spawn(
        path,
        ServeConfig {
            workers: 1,
            batch_lanes: FAIR_BATCH_LANES,
            queue_depth_lanes: FAIR_DEPTH_LANES,
            max_inflight_frames: FAIR_WINDOW,
            batch_delay: Some(FAIR_BATCH_DELAY),
            client_quota_lanes: quota,
            watch: None,
            ..ServeConfig::default()
        },
    )
    .expect("spawn fairness act-serve");
    let addr = server.addr();

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (polite, greedy) = std::thread::scope(|scope| {
        let greedy = scope.spawn(|| greedy_conn(addr, greedy_frame, num_zones, &stop));
        let handles: Vec<_> = stripes
            .iter()
            .map(|mine| scope.spawn(move || polite_conn(addr, mine, num_zones)))
            .collect();
        let polite: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("polite client thread"))
            .collect();
        stop.store(true, Ordering::Release);
        (polite, greedy.join().expect("greedy client thread"))
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut polite_goodput = Vec::new();
    let mut polite_counts = Vec::new();
    let mut polite_retries = 0u64;
    for (r, stripe) in polite.into_iter().zip(stripes) {
        let (client_secs, counts, retries) = r?;
        polite_goodput.push(stripe.len() as f64 / client_secs);
        polite_counts.push(counts);
        polite_retries += retries;
    }
    let (greedy_ok_frames, greedy_shed_frames, greedy_counts) = greedy?;
    let stats = server.stats();
    server.shutdown();
    Ok(FairnessRun {
        polite_goodput,
        polite_counts,
        polite_retries,
        greedy_ok_frames,
        greedy_shed_frames,
        greedy_counts,
        greedy_goodput: greedy_ok_frames as f64 * greedy_frame.len() as f64 / secs,
        stats,
    })
}

/// The greedy connection: a decoupled writer blasts the same frame until
/// told to stop while this thread drains every reply (OK or LOADSHED).
/// The always-draining reader keeps the server's in-flight cap from
/// deadlocking the writer, exactly as in [`overload_conn`].
fn greedy_conn(
    addr: std::net::SocketAddr,
    chunk: &[Coord],
    num_zones: usize,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(u64, u64, Vec<u64>), String> {
    use std::sync::atomic::{AtomicU64, Ordering};

    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("greedy connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    let mut wstream = stream.try_clone().map_err(|e| e.to_string())?;
    let frame_bytes = proto::encode_probe_request(chunk, false);
    let written = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<(), String> {
            while !stop.load(Ordering::Acquire) {
                wstream
                    .write_all(&frame_bytes)
                    .map_err(|e| format!("greedy write: {e}"))?;
                written.fetch_add(1, Ordering::Release);
            }
            Ok(())
        });
        let mut stream = stream;
        let (mut read, mut ok, mut shed) = (0u64, 0u64, 0u64);
        let mut counts = vec![0u64; num_zones];
        loop {
            if read >= written.load(Ordering::Acquire) {
                if writer.is_finished() && read >= written.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let body = proto::read_frame(&mut stream, 1 << 26)
                .map_err(|e| format!("greedy read: {e}"))?
                .ok_or("greedy: server closed mid-conversation")?;
            let (h, payload) = proto::decode_response(&body).map_err(|e| e.to_string())?;
            match h.status {
                proto::STATUS_OK => {
                    let refs =
                        proto::decode_probe_payload(h.n, payload).map_err(|e| e.to_string())?;
                    for one in refs {
                        for (id, _) in one {
                            counts[id as usize] += 1;
                        }
                    }
                    ok += 1;
                }
                proto::STATUS_LOADSHED => {
                    proto::decode_retry_after(payload).map_err(|e| e.to_string())?;
                    shed += 1;
                }
                s => {
                    return Err(format!(
                        "greedy: frame answered {} — only OK or LOADSHED is legal",
                        proto::status_name(s)
                    ))
                }
            }
            read += 1;
        }
        writer.join().expect("greedy writer thread")?;
        Ok((ok, shed, counts))
    })
}

/// One polite client: works through its stripe frame by frame over a
/// [`act_serve::ResilientClient`], which absorbs LOADSHED by honoring
/// the server's retry hint — the civic behavior the quota is there to
/// protect. Returns (elapsed secs, per-zone counts, retries).
fn polite_conn(
    addr: std::net::SocketAddr,
    stripe: &[Coord],
    num_zones: usize,
) -> Result<(f64, Vec<u64>, u64), String> {
    use act_serve::{ResilientClient, RetryPolicy};

    let mut client = ResilientClient::from_resolved(
        addr,
        RetryPolicy {
            max_attempts: 100_000,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            read_timeout: READ_DEADLINE,
            deadline: Some(Duration::from_secs(120)),
            ..RetryPolicy::default()
        },
    );
    let mut counts = vec![0u64; num_zones];
    let t0 = Instant::now();
    for chunk in stripe.chunks(FAIR_POLITE_FRAME) {
        let reply = client
            .probe(chunk, false)
            .map_err(|e| format!("polite probe: {e}"))?;
        for refs in &reply.refs {
            for &(id, _) in refs {
                counts[id as usize] += 1;
            }
        }
    }
    Ok((t0.elapsed().as_secs_f64(), counts, client.retries()))
}
