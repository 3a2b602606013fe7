//! The five workloads. Each makes its inputs from the seed, computes the
//! oracle's answers offline, sets the system up several times (timing
//! each), warms up, measures one window, and verifies every answer. The
//! traced run then adds the per-layer ledger and a traced served pass.

use crate::data::{
    cached_snapshot, cells_of, check_point, check_sample, exe_hash, fingerprint_coords,
    fingerprint_polygons, frame_hash, frame_hashes, point_gen, point_hashes, sample_indices,
    snapshot_path, RunDir, Zipf, Zones, WORK_DIR,
};
use crate::drive::{client, closed_loop, open_loop, pipelined, raw_stream, OpenLoop, Window};
use crate::ledger::{
    fence, layers, served_pass, stage_metrics, Spans, Traffic, SHARDS, SPLIT_LEVEL,
};
use crate::metrics::Metrics;
use crate::stats::median;
use act_core::{
    coord_to_cell, join_approx_cells_batch, save_delta, write_shard_files, ActIndex, ActIndexView,
    BuildStats, DeltaLink, DeltaOp, JoinStats, MappedSnapshot, Probe, Refiner, DEFAULT_PROBE_BATCH,
};
use act_serve::{
    protocol as proto, CacheConfig, Client, ObsConfig, Router, RouterConfig, RouterHandle,
    ServeConfig, Server, ServerHandle,
};
use datagen::Dataset;
use geom::Coord;
use jobs::JobPool;
use s2cell::CellId;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "join-census",
    "serve-census",
    "serve-surge-zipf",
    "route-census",
    "churn-census",
];

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken under `SETUP_BUDGET` in all (up to `MAX_SETUPS`), so that a
/// quick set-up's median rests on more samples. `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Points per coordinate frame on the serving workloads.
const COORD_FRAME: usize = 64;
/// Cells per frame on the Zipf workload, and frames in flight.
const CELL_FRAME: usize = 4096;
const ZIPF_INFLIGHT: usize = 3;
const ZIPF_HOT_SET: usize = 65_536;
const ZIPF_S: f64 = 1.1;
/// Cells per `join_approx_cells_batch` call (one join "frame"): ~0.18 ms,
/// so a 10 s window holds ~55,000 calls, ~550 of them beyond the p99.
const JOIN_BLOCK: usize = 4096;
/// Points checked exactly against every polygon.
const EXACT_SAMPLE: usize = 2_000;
/// Open-loop offered load, and the churn delta cadence.
const CHURN_RATE_PTS: f64 = 500_000.0;
const CHURN_DELTA_EVERY: Duration = Duration::from_millis(800);
const CHURN_WATCH: Duration = Duration::from_millis(10);
/// Points the per-layer ledger times each layer over.
const LEDGER_POINTS: usize = 1 << 18;

/// One invocation's settings.
pub struct Ctx {
    pub seed: u64,
    /// The workload's own measured window (tracing off).
    pub window: Duration,
    /// The traced served pass, when tracing: the other half of the
    /// invocation's measuring time.
    pub served: Duration,
    pub smoke: bool,
    pub trace: bool,
    pub exe: u64,
}

impl Ctx {
    /// A run measuring for `seconds` in all: the workload's window, or in
    /// a traced run half of it and then the traced served pass.
    pub fn new(seed: u64, seconds: Duration, smoke: bool, trace: bool) -> Ctx {
        let window = if trace { seconds / 2 } else { seconds };
        Ctx {
            seed,
            window,
            served: seconds - window,
            smoke,
            trace,
            exe: exe_hash(),
        }
    }

    fn warmup(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(1)
        }
    }

    /// A traced run reports per-layer metrics, not `setup_s`, so one
    /// set-up (the index build on join) is enough.
    fn min_setups(&self) -> usize {
        if self.trace {
            1
        } else {
            MIN_SETUPS
        }
    }

    fn zones(&self, full: Zones) -> Zones {
        if self.smoke {
            Zones::Neighborhoods
        } else {
            full
        }
    }

    /// Points in the cycled query pool of the serving workloads.
    fn pool(&self) -> usize {
        if self.smoke {
            1 << 16
        } else {
            1 << 20
        }
    }

    /// The dataset and cached snapshot a workload indexes. On a miss a
    /// child process (`act-bench cache`) builds that one dataset: built
    /// here, the build's freed heap would stay in this process's resident
    /// set and inflate `peak_rss_mb` on whichever run found the cache
    /// cold.
    fn snapshot(&self, full: Zones) -> Result<(Zones, Dataset, PathBuf), String> {
        let z = self.zones(full);
        let ds = z.dataset();
        let path = snapshot_path(&ds, self.exe);
        if !path.exists() {
            let exe = std::env::current_exe().map_err(|e| format!("locate act-bench: {e}"))?;
            let status = std::process::Command::new(exe)
                .args(["cache", z.name()])
                .status()
                .map_err(|e| format!("run act-bench cache: {e}"))?;
            if !status.success() || !path.exists() {
                return Err(format!("act-bench cache {} failed: {status}", z.name()));
            }
        }
        Ok((z, ds, path))
    }
}

/// `act-bench cache ZONES`: builds and caches one dataset's snapshot
/// (a no-op when this build already cached it).
pub fn cache(name: &str) -> Result<i32, String> {
    let z = Zones::ALL
        .into_iter()
        .find(|z| z.name() == name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let ds = z.dataset();
    let pool = JobPool::with_available_parallelism();
    cached_snapshot(&ds, exe_hash(), || z.build(&ds, &pool))?;
    Ok(0)
}

/// One run's outcome.
pub struct Record {
    pub fp_polygons: u64,
    pub fp_points: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Record, String> {
    match name {
        "join-census" => join(ctx),
        "serve-census" => serve(ctx),
        "serve-surge-zipf" => zipf(ctx),
        "route-census" => route(ctx),
        "churn-census" => churn(ctx),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// Resets the peak-RSS watermark to the current resident set, so that a
/// later `peak_rss_mb` covers only what ran since (not input generation).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB (0 where /proc is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn file_mb(paths: &[PathBuf]) -> f64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum::<u64>() as f64
        / 1e6
}

/// The medians over a run's set-ups.
struct Setup {
    secs: f64,
    /// Peak RSS of one set-up (the watermark reset as it starts).
    peak_mb: f64,
}

/// Runs `setup` at least `min` times and on while the set-ups have taken
/// under `SETUP_BUDGET` in all (at most `MAX_SETUPS`), dropping each
/// result before the next starts; returns the medians and the last
/// result, and resets the peak-RSS watermark for the window that follows.
/// Medians, because one build's transient heap can run tens of MB above
/// the next one's.
fn timed_setups<T>(
    min: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Setup, T), String> {
    let (mut secs, mut peak) = (Vec::new(), Vec::new());
    let mut last = None;
    while secs.len() < min
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(last.take());
        reset_peak_rss();
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
        peak.push(peak_rss_mb());
    }
    reset_peak_rss();
    let medians = Setup {
        secs: median(&secs),
        peak_mb: median(&peak),
    };
    Ok((medians, last.expect("at least one set-up")))
}

/// `Server::spawn` through the first PING answered.
fn spawn_and_ping(path: &Path, config: ServeConfig) -> Result<(ServerHandle, Client), String> {
    let server = Server::spawn(path, config).map_err(|e| format!("spawn server: {e}"))?;
    let mut c = client(server.addr())?;
    c.ping().map_err(|e| format!("first ping: {e}"))?;
    Ok((server, c))
}

fn static_config() -> ServeConfig {
    ServeConfig {
        watch: None,
        ..ServeConfig::default()
    }
}

fn zipf_config() -> ServeConfig {
    // One shard: a metro area's probe keys share the shard-selector bits,
    // so a sharded cache would squeeze the hot set into one small shard.
    ServeConfig {
        cache: Some(CacheConfig {
            shards: 1,
            capacity: 65_536,
        }),
        ..static_config()
    }
}

/// The seeded query pool of the serving workloads.
fn pool_points(ds: &Dataset, ctx: &Ctx) -> Vec<Coord> {
    point_gen(ds, ctx.seed).take_vec(ctx.pool())
}

fn coord_frames(pts: &[Coord]) -> Vec<Vec<Coord>> {
    pts.chunks(COORD_FRAME).map(<[Coord]>::to_vec).collect()
}

/// A record carrying the metrics every workload reports; `windows` are
/// the warmup and measured windows (warmup answers are verified too) and
/// `bad` counts other failed checks. `peak_rss_mb` is the larger of one
/// set-up's peak and the peak since the set-ups ended.
fn record(
    ds: &Dataset,
    fp_points: u64,
    windows: &[&Window],
    bad: u64,
    setup: &Setup,
    index_mb: f64,
) -> Record {
    let w = windows.last().expect("a measured window");
    let (p50, p99) = w.latency();
    let (attempted, failed) = windows
        .iter()
        .fold((EXACT_SAMPLE as u64, bad), |(a, f), w| {
            (a + w.attempted, f + w.failed)
        });
    Record {
        fp_polygons: fingerprint_polygons(&ds.polygons),
        fp_points,
        attempted,
        failed,
        metrics: vec![
            ("points_per_s", w.points_per_s()),
            ("frame_p50_us", p50),
            ("frame_p99_us", p99),
            ("frames", w.samples.len() as f64),
            ("setup_s", setup.secs),
            ("index_mb", index_mb),
            ("peak_rss_mb", peak_rss_mb().max(setup.peak_mb)),
            ("failed_frac", failed as f64 / attempted as f64),
        ],
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// The traced part of a run, shared by every workload: the per-layer
/// ledger over the workload's traffic, then a served pass alternating an
/// obs-off and an obs-on server (plus `router`, when given) for
/// `ctx.served`. `build` is an index build this run already timed (join's
/// set-up); without one, one is timed here. Adds the per-layer metrics
/// and the served pass's frame counts to `rec`.
#[allow(clippy::too_many_arguments)]
fn traced(
    rec: &mut Record,
    ctx: &Ctx,
    workload: &'static str,
    z: Zones,
    ds: &Dataset,
    path: &Path,
    traffic: Traffic,
    config: fn() -> ServeConfig,
    build: Option<(f64, &BuildStats)>,
    router: Option<SocketAddr>,
) -> Result<(), String> {
    let mut spans = Spans::new();
    let m = &mut rec.metrics;
    let built: (f64, BuildStats);
    let build = match build {
        Some(b) => b,
        None => {
            let pool = JobPool::with_available_parallelism();
            let (index, d) = spans.time(0, "index.build", || z.build(ds, &pool));
            built = (d.as_secs_f64(), index?.stats().clone());
            (built.0, &built.1)
        }
    };
    let expected = {
        let snap = MappedSnapshot::open(path).map_err(|e| format!("open snapshot: {e}"))?;
        layers(
            &mut spans,
            &snap,
            path,
            ds.polygons.len(),
            &traffic,
            build,
            m,
        )?;
        frame_hashes(&snap.view(), &traffic.cells, traffic.frame)
    };
    let frames = traffic.frames();
    let (off, _) = spawn_and_ping(path, config())?;
    let (on, _) = spawn_and_ping(
        path,
        ServeConfig {
            obs: Some(ObsConfig::default()),
            ..config()
        },
    )?;
    let mut targets = vec![off.addr(), on.addr()];
    targets.extend(router);
    let slice = if ctx.smoke {
        Duration::from_millis(125)
    } else {
        Duration::from_secs(1)
    };
    let served = served_pass(
        &mut spans, &targets, 1, &frames, &expected, slice, ctx.served,
    )?;
    let st = off.stats();
    m.extend([
        ("server.batches", st.batches as f64),
        (
            "server.mean_batch_width",
            st.probes as f64 / st.batches.max(1) as f64,
        ),
        ("server.shed", st.shed as f64),
        (
            "server.queue_high_water_lanes",
            st.queue_high_water_lanes as f64,
        ),
    ]);
    let hists = client(on.addr())?
        .stats_ex()
        .map_err(|e| format!("stats_ex: {e}"))?
        .histograms;
    let (enc, wire, dec) = served[1].split_us();
    stage_metrics(&hists, wire, m);
    m.extend([
        ("client.encode_us", enc),
        ("client.wire_us", wire),
        ("client.decode_us", dec),
    ]);
    let (pps_off, pps_on) = (
        served[0].window.points_per_s(),
        served[1].window.points_per_s(),
    );
    m.push(("obs.overhead_pct", (pps_off - pps_on) / pps_off * 100.0));
    if let Some(routed) = served.get(2) {
        m.push((
            "router.overhead_p50_us",
            routed.window.latency().0 - served[0].window.latency().0,
        ));
    }
    off.shutdown();
    on.shutdown();

    let name = format!("trace-{workload}-{}.jsonl", ctx.seed);
    let file = Path::new(WORK_DIR).join(name);
    std::fs::write(&file, spans.jsonl()).map_err(|e| format!("write {file:?}: {e}"))?;
    eprintln!(
        "act-bench: {workload} per-layer self times (spans in {})\n{}",
        file.display(),
        spans.self_time_table()
    );
    for s in &served {
        rec.attempted += s.window.attempted;
        rec.failed += s.window.failed;
    }
    Ok(())
}

/// The input fingerprint of a query stream: its first
/// [`LEDGER_POINTS`] coordinates, in traffic order.
fn stream_fingerprint(pts: &[Coord]) -> u64 {
    fingerprint_coords(&pts[..pts.len().min(LEDGER_POINTS)])
}

fn ledger_traffic(pts: &[Coord]) -> Traffic {
    let pts = &pts[..pts.len().min(LEDGER_POINTS)];
    Traffic {
        cells: cells_of(pts),
        coords: Some(pts.to_vec()),
        convert: pts.to_vec(),
        frame: COORD_FRAME,
    }
}

// ---------------------------------------------------------------------
// join-census
// ---------------------------------------------------------------------

/// The paper's offline join: 16 M cells through `join_approx_cells_batch`
/// in [`JOIN_BLOCK`]-cell calls, cycling until the window closes. The
/// set-up is the index build; every call's stats and every pass's
/// per-polygon counts are checked against the built index's own batched
/// walk.
fn join(ctx: &Ctx) -> Result<Record, String> {
    let z = ctx.zones(Zones::Census);
    let ds = z.dataset();
    let pool = JobPool::with_available_parallelism();
    let gen = point_gen(&ds, ctx.seed);
    let n = if ctx.smoke { 1 << 20 } else { 16_000_000 };
    let head = gen.take_vec(LEDGER_POINTS);
    let fp = stream_fingerprint(&head);
    let sample: Vec<Coord> = sample_indices(n, EXACT_SAMPLE, ctx.seed)
        .into_iter()
        .map(|i| gen.point_at(i as u64))
        .collect();
    let cells: Vec<CellId> = pool
        .map_range(0..n, 1 << 16, |r| {
            r.map(|i| coord_to_cell(gen.point_at(i as u64)))
                .collect::<Vec<_>>()
        })
        .concat();

    let (setup, index) = timed_setups(ctx.min_setups(), || z.build(&ds, &pool))?;
    let view = index.as_view();
    let bad = check_sample(&ds.polygons, &view, &sample, z.precision_m());
    let (block_stats, pass_counts) = join_oracle(&view, &cells, ds.polygons.len());
    let w = join_window(&index, &cells, &block_stats, &pass_counts, ctx.window);
    let index_mb = index
        .save_snapshot(&mut std::io::sink())
        .map_err(|e| format!("size the snapshot: {e}"))? as f64
        / 1e6;
    let mut rec = record(&ds, fp, &[&w], bad, &setup, index_mb);
    if ctx.trace {
        drop(cells);
        let path = cached_snapshot(&ds, ctx.exe, || Ok(&index))?;
        traced(
            &mut rec,
            ctx,
            "join-census",
            z,
            &ds,
            &path,
            ledger_traffic(&head),
            static_config,
            Some((setup.secs, index.stats())),
            None,
        )?;
    }
    Ok(rec)
}

/// Per-call stats and per-pass polygon counts of `cells` in
/// [`JOIN_BLOCK`]-cell calls, from `probe_batch` + `resolve_refs`.
fn join_oracle(
    view: &ActIndexView<'_>,
    cells: &[CellId],
    n_polys: usize,
) -> (Vec<JoinStats>, Vec<u64>) {
    let mut counts = vec![0u64; n_polys];
    let mut probes = vec![Probe::Miss; JOIN_BLOCK];
    let stats = cells
        .chunks(JOIN_BLOCK)
        .map(|block| {
            let out = &mut probes[..block.len()];
            view.probe_batch(block, out);
            let mut st = JoinStats {
                points: block.len() as u64,
                ..JoinStats::default()
            };
            for &p in out.iter() {
                let before = st.true_hits + st.candidate_hits;
                for (id, hit) in view.resolve_refs(p) {
                    counts[id as usize] += 1;
                    if hit {
                        st.true_hits += 1;
                    } else {
                        st.candidate_hits += 1;
                    }
                }
                st.misses += u64::from(st.true_hits + st.candidate_hits == before);
            }
            st
        })
        .collect();
    (stats, counts)
}

/// Cycles `cells` through `join_approx_cells_batch` one block per call
/// until `window` closes, finishing the pass under way.
fn join_window(
    index: &ActIndex,
    cells: &[CellId],
    block_stats: &[JoinStats],
    pass_counts: &[u64],
    window: Duration,
) -> Window {
    let blocks: Vec<&[CellId]> = cells.chunks(JOIN_BLOCK).collect();
    let mut counts = vec![0u64; pass_counts.len()];
    join_approx_cells_batch(
        index,
        &cells[..cells.len().min(200_000)],
        &mut counts,
        DEFAULT_PROBE_BATCH,
    );
    let mut w = Window::new(window.as_secs_f64());
    let t0 = Instant::now();
    let mut b = 0usize;
    loop {
        if b == 0 {
            counts.iter_mut().for_each(|c| *c = 0);
        }
        let t = Instant::now();
        let st = join_approx_cells_batch(index, blocks[b], &mut counts, DEFAULT_PROBE_BATCH);
        let done = Instant::now();
        let in_window = t.duration_since(t0) < window;
        if in_window {
            w.attempted += 1;
            if st == block_stats[b] {
                w.ok(t0, done, done - t, blocks[b].len());
            } else {
                w.failed += 1;
            }
        }
        b += 1;
        if b == blocks.len() {
            // Whole pass done: the per-polygon counts must match too.
            b = 0;
            if counts != pass_counts {
                eprintln!("act-bench: join pass counts diverge from the oracle");
                w.failed += 1;
            }
            if !in_window {
                return w;
            }
        }
    }
}

// ---------------------------------------------------------------------
// serve-census
// ---------------------------------------------------------------------

/// The serving headline: one server with the default config, one client
/// connection in a closed loop of 64-point coordinate frames.
fn serve(ctx: &Ctx) -> Result<Record, String> {
    let (z, ds, path) = ctx.snapshot(Zones::Census)?;
    let pts = pool_points(&ds, ctx);
    let (expected, bad) = oracle(&ds, z, &path, &pts, ctx.seed)?;
    let fp = stream_fingerprint(&pts);
    let frames = coord_frames(&pts);
    let (setup, (server, _)) =
        timed_setups(ctx.min_setups(), || spawn_and_ping(&path, static_config()))?;
    let mut next = 0;
    let addr = server.addr();
    let warm = closed_loop(addr, &frames, &expected, &mut next, ctx.warmup())?;
    let w = closed_loop(addr, &frames, &expected, &mut next, ctx.window)?;
    server.shutdown();
    let mut rec = record(
        &ds,
        fp,
        &[&warm, &w],
        bad,
        &setup,
        file_mb(std::slice::from_ref(&path)),
    );
    if ctx.trace {
        traced(
            &mut rec,
            ctx,
            "serve-census",
            z,
            &ds,
            &path,
            ledger_traffic(&pts),
            static_config,
            None,
            None,
        )?;
    }
    Ok(rec)
}

/// Expected 64-point frame hashes for a coordinate pool, plus the count of
/// oracle violations in a seeded exact sample of it.
fn oracle(
    ds: &Dataset,
    z: Zones,
    path: &Path,
    pts: &[Coord],
    seed: u64,
) -> Result<(Vec<u64>, u64), String> {
    let snap = MappedSnapshot::open(path).map_err(|e| format!("open snapshot: {e}"))?;
    let view = snap.view();
    let expected = frame_hashes(&view, &cells_of(pts), COORD_FRAME);
    let sample: Vec<Coord> = sample_indices(pts.len(), EXACT_SAMPLE, seed)
        .into_iter()
        .map(|i| pts[i])
        .collect();
    let bad = check_sample(&ds.polygons, &view, &sample, z.precision_m());
    Ok((expected, bad))
}

// ---------------------------------------------------------------------
// serve-surge-zipf
// ---------------------------------------------------------------------

/// Skewed repeat traffic against the hot-cell cache: Zipf(1.1) draws over
/// a 65,536-point hot set of a 16-layer zone stack, sent as 4096-cell
/// frames with 3 in flight.
fn zipf(ctx: &Ctx) -> Result<Record, String> {
    let (z, ds, path) = ctx.snapshot(Zones::Surge)?;
    let hot = point_gen(&ds, ctx.seed).take_vec(ZIPF_HOT_SET);
    let hot_cells = cells_of(&hot);
    let draws = if ctx.smoke { 1 << 18 } else { 1 << 21 };
    let mut sampler = Zipf::new(hot.len(), ZIPF_S, ctx.seed);
    let ranks: Vec<usize> = (0..draws).map(|_| sampler.next_rank()).collect();
    let traffic: Vec<CellId> = ranks.iter().map(|&r| hot_cells[r]).collect();
    let head: Vec<Coord> = ranks.iter().take(LEDGER_POINTS).map(|&r| hot[r]).collect();
    let fp = stream_fingerprint(&head);
    let (hot_hash, bad) = {
        let snap = MappedSnapshot::open(&path).map_err(|e| format!("open snapshot: {e}"))?;
        let sample: Vec<Coord> = sample_indices(hot.len(), EXACT_SAMPLE, ctx.seed)
            .into_iter()
            .map(|i| hot[i])
            .collect();
        (
            point_hashes(&snap.view(), &hot_cells),
            check_sample(&ds.polygons, &snap.view(), &sample, z.precision_m()),
        )
    };
    let expected: Vec<u64> = ranks
        .chunks(CELL_FRAME)
        .map(|f| frame_hash(f.iter().map(|&r| hot_hash[r])))
        .collect();
    let frames: Vec<Vec<u8>> = traffic
        .chunks(CELL_FRAME)
        .map(proto::encode_probe_cells_request)
        .collect();
    let points: Vec<usize> = traffic.chunks(CELL_FRAME).map(<[CellId]>::len).collect();

    let (setup, (server, _)) =
        timed_setups(ctx.min_setups(), || spawn_and_ping(&path, zipf_config()))?;
    let mut next = 0;
    let warm = pipelined(
        server.addr(),
        &frames,
        &points,
        &expected,
        ZIPF_INFLIGHT,
        &mut next,
        ctx.warmup(),
    )?;
    let before = server.stats();
    let w = pipelined(
        server.addr(),
        &frames,
        &points,
        &expected,
        ZIPF_INFLIGHT,
        &mut next,
        ctx.window,
    )?;
    let after = server.stats();
    server.shutdown();
    let mut rec = record(
        &ds,
        fp,
        &[&warm, &w],
        bad,
        &setup,
        file_mb(std::slice::from_ref(&path)),
    );
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    rec.metrics.push((
        "cache.server_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    if ctx.trace {
        let n = traffic.len().min(LEDGER_POINTS);
        traced(
            &mut rec,
            ctx,
            "serve-surge-zipf",
            z,
            &ds,
            &path,
            Traffic {
                cells: traffic[..n].to_vec(),
                coords: None,
                convert: hot,
                frame: CELL_FRAME,
            },
            zipf_config,
            None,
            None,
        )?;
    }
    Ok(rec)
}

// ---------------------------------------------------------------------
// route-census
// ---------------------------------------------------------------------

/// A sharded fleet: shard files, one single-threaded worker per shard,
/// and the router in front. Fields drop in declaration order, so the
/// router and then the workers drain before the shard files go.
struct Fleet {
    router: RouterHandle,
    _workers: Vec<ServerHandle>,
    shards: Vec<PathBuf>,
    _dir: RunDir,
}

/// Shard split + `SHARDS` worker spawns + router spawn + first PING.
fn spawn_fleet(index: &ActIndex) -> Result<Fleet, String> {
    let dir = RunDir::new("route")?;
    let shards = write_shard_files(index, &dir.0, SPLIT_LEVEL, SHARDS)
        .map_err(|e| format!("shard split: {e}"))?;
    let workers = shards
        .iter()
        .map(|p| {
            Server::spawn(
                p,
                ServeConfig {
                    workers: 1,
                    ..static_config()
                },
            )
            .map_err(|e| format!("spawn shard worker: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let router = Router::spawn(
        workers.iter().map(ServerHandle::addr).collect(),
        RouterConfig {
            split_level: SPLIT_LEVEL,
            ..RouterConfig::default()
        },
    )
    .map_err(|e| format!("spawn router: {e}"))?;
    client(router.addr())?
        .ping()
        .map_err(|e| format!("first routed ping: {e}"))?;
    Ok(Fleet {
        router,
        _workers: workers,
        shards,
        _dir: dir,
    })
}

/// Serve-census through a 4-shard fleet: the same walk and codec, plus
/// the router's scatter/gather and seam dedup.
fn route(ctx: &Ctx) -> Result<Record, String> {
    let (z, ds, path) = ctx.snapshot(Zones::Census)?;
    let pts = pool_points(&ds, ctx);
    let (expected, bad) = oracle(&ds, z, &path, &pts, ctx.seed)?;
    let fp = stream_fingerprint(&pts);
    let index = {
        let snap = MappedSnapshot::open(&path).map_err(|e| format!("open snapshot: {e}"))?;
        snap.to_owned_index()
    };
    let frames = coord_frames(&pts);
    let (setup, fleet) = timed_setups(ctx.min_setups(), || spawn_fleet(&index))?;
    drop(index);
    let mut next = 0;
    let addr = fleet.router.addr();
    let warm = closed_loop(addr, &frames, &expected, &mut next, ctx.warmup())?;
    let w = closed_loop(addr, &frames, &expected, &mut next, ctx.window)?;
    let mut rec = record(&ds, fp, &[&warm, &w], bad, &setup, file_mb(&fleet.shards));
    if ctx.trace {
        traced(
            &mut rec,
            ctx,
            "route-census",
            z,
            &ds,
            &path,
            ledger_traffic(&pts),
            static_config,
            None,
            Some(fleet.router.addr()),
        )?;
    }
    Ok(rec)
}

// ---------------------------------------------------------------------
// churn-census
// ---------------------------------------------------------------------

/// Open-loop reads beside writes: 64-point frames at 0.5 M points/s while
/// a one-fence delta is published every 800 ms (alternating insert and
/// remove), with the server's watcher polling every 10 ms. A reply must
/// match the base answers at an odd epoch and the base-plus-fence answers
/// at an even one.
fn churn(ctx: &Ctx) -> Result<Record, String> {
    let (z, ds, path) = ctx.snapshot(Zones::Census)?;
    let pts = pool_points(&ds, ctx);
    let fp = stream_fingerprint(&pts);
    let (base, mut bad) = oracle(&ds, z, &path, &pts, ctx.seed)?;
    let center = pts[sample_indices(pts.len(), 1, ctx.seed ^ 0xFE)[0]];
    let fence_poly = fence(center);
    let fence_id = ds.polygons.len() as u32;
    let (live, base_sum) = {
        let snap = MappedSnapshot::open(&path).map_err(|e| format!("open snapshot: {e}"))?;
        let mut owned = snap.to_owned_index();
        owned
            .insert_polygon(fence_id, &fence_poly)
            .map_err(|e| format!("fence insert: {e}"))?;
        let view = owned.as_view();
        // The base-plus-fence oracle against brute force, on a 21×21 grid
        // over the fence and a quarter of its size around it.
        let mut polys = ds.polygons.clone();
        polys.push(fence_poly.clone());
        let refiner = Refiner::new(&polys);
        let b = fence_poly.bbox();
        let at = |lo: f64, hi: f64, k: i32| lo + (hi - lo) * (f64::from(k) * 1.5 / 20.0 - 0.25);
        for (i, j) in (0..=20).flat_map(|i| (0..=20).map(move |j| (i, j))) {
            let p = Coord::new(at(b.min.x, b.max.x, i), at(b.min.y, b.max.y, j));
            let answer: Vec<(u32, bool)> = view.resolve_refs(view.probe_coord(p)).collect();
            if let Err(e) = check_point(&polys, &refiner, p, &answer, z.precision_m()) {
                eprintln!("act-bench: fence oracle violation: {e}");
                bad += 1;
            }
        }
        (
            frame_hashes(&view, &cells_of(&pts), COORD_FRAME),
            snap.checksum(),
        )
    };

    let dir = RunDir::new("churn")?;
    let base_path = dir.0.join("base.snap");
    if std::fs::hard_link(&path, &base_path).is_err() {
        std::fs::copy(&path, &base_path).map_err(|e| format!("stage base snapshot: {e}"))?;
    }
    let frames: Vec<Vec<u8>> = pts
        .chunks(COORD_FRAME)
        .map(|f| proto::encode_probe_request(f, false))
        .collect();
    let points: Vec<usize> = pts.chunks(COORD_FRAME).map(<[Coord]>::len).collect();
    let period = Duration::from_secs_f64(COORD_FRAME as f64 / CHURN_RATE_PTS);
    let expect = |k: usize, epoch: u32| {
        if epoch.is_multiple_of(2) {
            live[k]
        } else {
            base[k]
        }
    };
    let config = || ServeConfig {
        watch: Some(CHURN_WATCH),
        ..ServeConfig::default()
    };

    let (setup, (server, mut c)) =
        timed_setups(ctx.min_setups(), || spawn_and_ping(&base_path, config()))?;
    // The first delta opens the watcher's lineage (an owned copy of the
    // base plus its mutation inventory, over a second of work): publish it
    // during the warmup and wait for it, so the window measures steady
    // churn rather than that one-time cost.
    let mut publisher = Publisher {
        base: &base_path,
        fence: &fence_poly,
        id: fence_id,
        link: DeltaLink::for_base(base_sum),
        at: Vec::new(),
    };
    publisher.publish()?;
    let warm = open_loop(
        raw_stream(server.addr())?,
        &frames,
        &points,
        period,
        ctx.warmup(),
        |_| {},
        expect,
    )?;
    let lineage_open = await_epoch(&mut c, 2)?;

    // Window deltas at 0.4 s, 1.2 s, …: with the warmup's, fewer than
    // FOLD_AFTER_DELTAS in all, so the watcher never folds mid-run.
    let n_window = ((ctx.window.as_secs_f64() / CHURN_DELTA_EVERY.as_secs_f64()) as usize)
        .clamp(1, act_serve::FOLD_AFTER_DELTAS as usize - 2);
    let mut publish_err: Option<String> = None;
    let publish = |elapsed: Duration| {
        let k = publisher.at.len() - 1;
        let due = CHURN_DELTA_EVERY / 2 + CHURN_DELTA_EVERY * k as u32;
        if k < n_window && elapsed >= due && publish_err.is_none() {
            publish_err = publisher.publish().err();
        }
    };
    let OpenLoop {
        window: w,
        lateness,
        epoch_first_seen,
    } = open_loop(
        raw_stream(server.addr())?,
        &frames,
        &points,
        period,
        ctx.window,
        publish,
        expect,
    )?;
    if let Some(e) = publish_err {
        return Err(e);
    }

    // Delta seq s is visible from the first reply at epoch ≥ s + 1; one
    // the window's traffic never saw is timed by PINGs after it.
    let mut visible_ms = Vec::new();
    for (k, &at) in publisher.at.iter().enumerate().skip(1) {
        let want = k as u32 + 2;
        let seen = match epoch_first_seen.iter().find(|&&(e, _)| e >= want) {
            Some(&(_, seen)) => seen,
            None => await_epoch(&mut c, want)?,
        };
        visible_ms.push(seen.saturating_duration_since(at).as_secs_f64() * 1e3);
    }
    let counters = c.ping().map_err(|e| format!("final ping: {e}"))?.counters;
    drop(c);
    server.shutdown();
    let mut rec = record(
        &ds,
        fp,
        &[&warm.window, &w],
        bad + counters.quarantines,
        &setup,
        file_mb(std::slice::from_ref(&base_path)),
    );
    rec.attempted += publisher.at.len() as u64;
    rec.metrics.extend([
        ("delta_visible_ms", median(&visible_ms)),
        (
            "delta.lineage_open_ms",
            lineage_open
                .saturating_duration_since(publisher.at[0])
                .as_secs_f64()
                * 1e3,
        ),
        ("gen.late_p99_us", lateness.p99_us()),
        ("delta.applies", counters.delta_applies as f64),
        ("delta.quarantines", counters.quarantines as f64),
    ]);
    if ctx.trace {
        traced(
            &mut rec,
            ctx,
            "churn-census",
            z,
            &ds,
            &path,
            ledger_traffic(&pts),
            static_config,
            None,
            None,
        )?;
    }
    Ok(rec)
}

/// Publishes the churn workload's one-fence deltas beside the base
/// snapshot, the way an operator ships them (write aside, rename into
/// place): odd sequence numbers insert the fence, even ones remove it.
struct Publisher<'a> {
    base: &'a Path,
    fence: &'a geom::Polygon,
    id: u32,
    link: DeltaLink,
    /// When each delta was renamed into place.
    at: Vec<Instant>,
}

impl Publisher<'_> {
    fn publish(&mut self) -> Result<(), String> {
        let seq = self.link.next_seq;
        let op = if seq % 2 == 1 {
            DeltaOp::Insert {
                id: self.id,
                polygon: self.fence.clone(),
            }
        } else {
            DeltaOp::Remove { id: self.id }
        };
        let mut bytes = Vec::new();
        let (next, _) =
            save_delta(&[op], self.link, &mut bytes).map_err(|e| format!("delta {seq}: {e}"))?;
        let target = act_serve::delta_path(self.base, seq);
        let tmp = target.with_extension("staged");
        std::fs::write(&tmp, &bytes).map_err(|e| format!("write {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, &target).map_err(|e| format!("rename {tmp:?}: {e}"))?;
        self.link = next;
        self.at.push(Instant::now());
        Ok(())
    }
}

/// Polls PING until the server answers at `epoch` or later and returns
/// when it first did; an epoch still missing after 10 s is an error.
fn await_epoch(c: &mut Client, epoch: u32) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let e = c.ping().map_err(|e| format!("ping: {e}"))?.epoch;
        let now = Instant::now();
        if e >= epoch {
            return Ok(now);
        }
        if now > deadline {
            return Err(format!("epoch {epoch} never served (stuck at {e})"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
