//! loadgen — drives an `act-serve` server (or a sharded fleet behind
//! `act-route`) over TCP, checks every answer it records against an
//! offline probe of the same snapshot, and writes client-observed
//! throughput and latency rows to `BENCH_serve.json` (committed at the
//! repo root).
//!
//! ```text
//! cargo run --release -p bench --bin loadgen -- \
//!     [--datasets census] [--points N] [--seed S] [--threads C] [--batch B] \
//!     [--snapshot DIR] [--router-addr HOST:PORT] \
//!     [--overload] [--faults] [--router] [--zipf S] [--greedy]
//! ```
//!
//! # Shared functions
//!
//! Each phase is one short function that owns its server configuration,
//! its contract asserts and its row. Underneath, every phase runs on the
//! same few plain functions, none of which knows which phase called it:
//!
//! - [`offline_counts`] is the oracle: per-zone counts from one batched
//!   probe of the mapped snapshot. A phase compares what the server
//!   answered against it before recording anything.
//! - [`connect`] and [`connect_raw`] dial with the read deadline set, so
//!   a wedged server surfaces as a typed `"failed": true` row and a
//!   non-zero exit, never as a hung benchmark. [`warmup`] sends 64
//!   frames to touch the target's mapped pages.
//! - [`closed_loop`] drives `--threads` connections, each owning a
//!   contiguous stripe of the points with one `--batch`-point frame in
//!   flight. It returns the summed counts, one latency per frame and
//!   the wall time. Micro-batches form *across* connections.
//! - [`pipelined`] drives one connection with its writer and reader
//!   decoupled. Every reply goes through [`read_reply`]: an OK must echo
//!   the probe op and the frame's point count, a LOADSHED must carry no
//!   entries and a well-formed retry hint, and any other status is an
//!   error.
//!
//! Recorded latencies cover the full protocol round trip: encode, TCP,
//! decode, cell conversion, micro-batched probe, and back. When server
//! and clients share few hardware threads the numbers are a floor; see
//! the machine stamp.
//!
//! # Phases
//!
//! **Throughput** (always, unless `--router-addr`): an in-process server
//! with the observability pipeline on, so the headline is the fully
//! instrumented number. Counts are verified, a 2,000-point exact-mode
//! sample must equal local refinement, nothing may be shed, and the
//! server-side frame p99 (a log-bucket lower bound read over STATS) must
//! not exceed the client p99. The row carries the server's per-stage
//! quantiles.
//!
//! **External** (`--router-addr HOST:PORT`): the same closed loop against
//! an already-running `act-route` or `act-serve` that serves the same
//! snapshot. Counts are verified, and STATS and DUMP are exercised (DUMP
//! may answer UNSUPPORTED). With `--zipf S` it also sends skewed repeat
//! frames so a cache-enabled worker hits; with `--greedy` it sends one
//! pipelined burst so a quota-enforcing worker sheds. Both are verified
//! too (for the burst, its OK answers). The in-process phases below are
//! skipped.
//!
//! **Router** (`--router`): the snapshot is split into [`ROUTER_SHARDS`]
//! shard snapshots, one in-process worker each, behind the
//! scatter-gather router. Counts are verified, the router's merged
//! counter block must equal the per-worker sums, and nothing may be
//! shed. The row records the ratio to the throughput phase.
//!
//! **Overload** (`--overload`): a small, capacity-pinned server (queue
//! depth D lanes, one worker with a fixed per-batch delay) under
//! pipelined connections that offer several times its capacity. Every
//! frame must be answered OK or LOADSHED, the queue high-water must stay
//! ≤ D, accepted = answered + shed, and the OK answers are verified. The
//! row records shed rate and goodput.
//!
//! **Faults** (`--faults`, needs `--features fault-injection`): a seeded
//! schedule of worker panics, socket resets and stalls fires under one
//! `ResilientClient`'s traffic. No frame may be lost, every panic must be
//! contained and the counters must reconcile. The row records the time
//! from the last fault to the first clean reply.
//!
//! **Zipf** (`--zipf S`): Zipf(S) traffic over a fixed hot set against
//! two single-worker servers, cache off and cache on. Both sides are
//! verified, cache hits + misses must equal the probes, and the host
//! dataset's cache-on throughput must be ≥ 1.3× cache-off.
//!
//! **Fairness** (`--greedy`): one greedy pipelined connection against
//! polite `ResilientClient`s on a capacity-pinned worker, run without and
//! with a per-connection lane quota. Every answer is verified, the
//! counters must reconcile, and the worst polite client's goodput must
//! rise ≥ 5× with the quota.

use act_core::{coord_to_cell, MappedSnapshot, Probe, Refiner};
use act_serve::{protocol as proto, Client, ObsConfig, ServeConfig, Server};
use bench::json::{array, machine_stamp, pretty, Obj};
use bench::{make_points, paper_datasets, snapshot_path, Opts};
use geom::Coord;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Snapshot precision (metres) every phase serves.
const PRECISION_M: f64 = 15.0;
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
// always-draining reader, see `pipelined`), so this cap — and TCP
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
/// Measured-pass repetitions per [`zipf_phase`] side; the recorded time is the
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

fn sorted(mut lat_us: Vec<f64>) -> Vec<f64> {
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    lat_us
}

/// p50/p99/max of a set of frame latencies in µs (`NaN` when empty).
struct Latency {
    p50: f64,
    p99: f64,
    max: f64,
}

impl Latency {
    fn of(sorted_us: &[f64]) -> Latency {
        let at = |p: f64| match sorted_us.len() {
            0 => f64::NAN,
            n => sorted_us[((n - 1) as f64 * p).round() as usize],
        };
        Latency {
            p50: at(0.50),
            p99: at(0.99),
            max: at(1.0),
        }
    }
}

/// Adds one reply's `(polygon id, hit)` lists to per-zone counts.
fn tally(counts: &mut [u64], refs: &[proto::PointRefs]) {
    for &(id, _) in refs.iter().flatten() {
        counts[id as usize] += 1;
    }
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

/// A protocol client with the read deadline set.
fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| format!("set deadline on {addr}: {e}"))?;
    Ok(c)
}

/// A raw stream for pre-encoded or pipelined frames: Nagle off, read
/// deadline set.
fn connect_raw(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true)
        .and_then(|()| s.set_read_timeout(Some(READ_DEADLINE)))
        .map_err(|e| format!("configure {addr}: {e}"))?;
    Ok(s)
}

/// Touches the target's mapped pages: the first 64 frames, answers
/// discarded.
fn warmup(addr: SocketAddr, points: &[Coord], frame: usize) -> Result<(), String> {
    let mut c = connect(addr)?;
    for chunk in points.chunks(frame).take(64) {
        c.probe(chunk, false)
            .map_err(|e| format!("warmup probe: {e}"))?;
    }
    Ok(())
}

/// A closed-loop run: summed per-zone counts, one latency per frame (µs,
/// sorted), and the wall time.
struct Run {
    counts: Vec<u64>,
    lat_us: Vec<f64>,
    secs: f64,
}

/// Drives `conns` connections at `addr`, each owning a contiguous stripe
/// of `points` and sending it `frame` points at a time, one frame in
/// flight.
fn closed_loop(
    addr: SocketAddr,
    points: &[Coord],
    conns: usize,
    frame: usize,
    num_zones: usize,
) -> Result<Run, String> {
    let t0 = Instant::now();
    let stripe = points.len().div_ceil(conns).max(1);
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .chunks(stripe)
            .map(|mine| {
                scope.spawn(move || -> Result<_, String> {
                    let mut client = connect(addr)?;
                    let mut counts = vec![0u64; num_zones];
                    let mut lat_us = Vec::with_capacity(mine.len().div_ceil(frame));
                    for chunk in mine.chunks(frame) {
                        let t = Instant::now();
                        let reply = client
                            .probe(chunk, false)
                            .map_err(|e| format!("probe frame: {e}"))?;
                        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                        tally(&mut counts, &reply.refs);
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
    let mut counts = vec![0u64; num_zones];
    let mut lat_us = Vec::new();
    for r in per_conn {
        let (c, l) = r?;
        counts.iter_mut().zip(c).for_each(|(acc, v)| *acc += v);
        lat_us.extend(l);
    }
    Ok(Run {
        counts,
        lat_us: sorted(lat_us),
        secs,
    })
}

/// A pipelined probe frame's answer.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok(Vec<proto::PointRefs>),
    Shed,
}

/// Why a pipelined reply was rejected.
#[derive(Debug, PartialEq)]
enum BadReply {
    Read(String),
    Closed,
    Malformed(&'static str),
    Op(u8),
    Count { n: u32, sent: usize },
    ShedEntries(u32),
    Status(u8),
}

/// Reads the next reply and checks it answers a probe frame of `sent`
/// points: the probe op echoed, an OK with exactly `sent` entries and a
/// well-formed payload, or a LOADSHED with no entries and a well-formed
/// retry hint. Any other status is an error.
fn read_reply(r: &mut impl std::io::Read, sent: usize) -> Result<Reply, BadReply> {
    let body = proto::read_frame(r, 1 << 26)
        .map_err(|e| BadReply::Read(format!("{e} (deadline {READ_DEADLINE:?})")))?
        .ok_or(BadReply::Closed)?;
    let (h, payload) = proto::decode_response(&body).map_err(BadReply::Malformed)?;
    if h.op != proto::OP_PROBE {
        return Err(BadReply::Op(h.op));
    }
    match h.status {
        proto::STATUS_OK if h.n as usize != sent => Err(BadReply::Count { n: h.n, sent }),
        proto::STATUS_OK => proto::decode_probe_payload(h.n, payload)
            .map(Reply::Ok)
            .map_err(BadReply::Malformed),
        proto::STATUS_LOADSHED if h.n != 0 => Err(BadReply::ShedEntries(h.n)),
        proto::STATUS_LOADSHED => proto::decode_retry_after(payload)
            .map(|_| Reply::Shed)
            .map_err(BadReply::Malformed),
        s => Err(BadReply::Status(s)),
    }
}

/// One pipelined connection's outcome: each frame's fate in request
/// order (true = OK, false = LOADSHED), per-zone counts over the OK
/// frames, and how long the writer took to put every frame on the wire.
struct Piped {
    ok: Vec<bool>,
    counts: Vec<u64>,
    write_secs: f64,
}

impl Piped {
    fn ok_frames(&self) -> u64 {
        self.ok.iter().filter(|&&ok| ok).count() as u64
    }
}

/// Drives one connection with its write and read sides decoupled: a
/// scoped writer thread sends every frame `frames` yields while this
/// thread reads and checks each reply with [`read_reply`]. The writer
/// hands each sent frame's point count to the reader over a channel, so
/// the reader waits only for replies that are owed.
///
/// The decoupling matters: a single-threaded sliding window blocks on
/// each admitted frame's service latency at the window front, which
/// throttles the offered load back to about capacity. The server's
/// `max_inflight_frames` plus the always-draining reader keep both sides
/// deadlock-free.
fn pipelined<'a>(
    addr: SocketAddr,
    frames: impl Iterator<Item = &'a [Coord]> + Send,
    num_zones: usize,
) -> Result<Piped, String> {
    let mut stream = connect_raw(addr)?;
    let mut wstream = stream.try_clone().map_err(|e| e.to_string())?;
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<f64, String> {
            let t0 = Instant::now();
            for chunk in frames {
                wstream
                    .write_all(&proto::encode_probe_request(chunk, false))
                    .map_err(|e| format!("pipelined write: {e}"))?;
                if sent_tx.send(chunk.len()).is_err() {
                    break; // the reader failed; its error is the one reported
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        });
        let (mut ok, mut counts) = (Vec::new(), vec![0u64; num_zones]);
        let read = sent_rx.iter().try_for_each(|sent| {
            let reply = read_reply(&mut stream, sent)
                .map_err(|e| format!("pipelined reply {}: {e:?}", ok.len()))?;
            if let Reply::Ok(refs) = &reply {
                tally(&mut counts, refs);
            }
            ok.push(reply != Reply::Shed);
            Ok::<(), String>(())
        });
        if read.is_err() {
            // Unblock a writer stalled on a server that stopped reading.
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
        drop(sent_rx);
        let write_secs = writer.join().expect("pipelined writer thread");
        read?;
        Ok(Piped {
            ok,
            counts,
            write_secs: write_secs?,
        })
    })
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
    const QUANTILES: [(&str, f64); 2] = [("p50", 0.50), ("p99", 0.99)];
    for &(name, stage) in TIME_STAGES {
        for (tag, q) in QUANTILES {
            row = row.num(
                &format!("server_{name}_{tag}_us"),
                stage_us(hists, stage, q),
            );
        }
    }
    for (tag, q) in QUANTILES {
        let depth = stage_raw(hists, proto::STAGE_PROBE_DEPTH, q);
        row = row.num(&format!("server_probe_depth_{tag}"), depth);
    }
    row
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

/// The dataset's snapshot under `dir`, built and saved on first use and
/// reused afterwards (restarts ship snapshots, not polygon sets).
fn cached_snapshot(dir: &str, ds: &datagen::Dataset) -> std::path::PathBuf {
    let path = snapshot_path(dir, &ds.name, PRECISION_M);
    if !bench::snapshot_is_current(&path) {
        let t = Instant::now();
        let built = act_core::ActIndex::build(&ds.polygons, PRECISION_M).expect("build index");
        println!(
            "built {} index in {:.2} s (cached for reruns)",
            ds.name,
            t.elapsed().as_secs_f64()
        );
        let mut f = std::fs::File::create(&path).expect("create snapshot");
        built.save_snapshot(&mut f).expect("save snapshot");
    }
    path
}

/// One dataset: its snapshot and workload, then either the external
/// phase alone or the throughput phase followed by each selected
/// in-process phase. Client-side I/O failures come back as `Err` rows,
/// not hangs.
fn run_dataset(
    ds: &datagen::Dataset,
    dir: &str,
    connections: usize,
    frame: usize,
    opts: &Opts,
) -> Result<Vec<String>, String> {
    println!(
        "\n=== {} ({} polygons, {PRECISION_M} m) ===",
        ds.name,
        ds.polygons.len()
    );
    let path = cached_snapshot(dir, ds);
    let snap = MappedSnapshot::open(&path).expect("map snapshot");
    let points = make_points(ds, opts.points, opts.seed);
    if let Some(addr) = &opts.router_addr {
        return Ok(vec![run_external(
            ds,
            &snap,
            &points,
            connections,
            frame,
            addr,
            opts,
        )?]);
    }

    let expected = offline_counts(&snap, &points, ds.polygons.len());
    let (row, throughput) =
        run_throughput(ds, &path, &snap, &points, &expected, connections, frame)?;
    let mut rows = vec![row];
    if opts.router {
        rows.push(run_router(
            ds,
            &path,
            &points,
            &expected,
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

/// The throughput phase: the closed loop against an in-process server
/// with observability on. Returns the row and the measured probes/s
/// (the router phase's denominator).
fn run_throughput(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
    expected: &[u64],
    connections: usize,
    frame: usize,
) -> Result<(String, f64), String> {
    let server = Server::spawn(
        path,
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
    warmup(addr, points, frame)?;
    let warm_probes = server.stats().probes;
    let run = closed_loop(addr, points, connections, frame, ds.polygons.len())?;
    assert_eq!(
        run.counts, expected,
        "served counts diverged — not recording"
    );

    // Exact-mode spot check against local refinement.
    let sample = &points[..points.len().min(EXACT_SAMPLE)];
    let refiner = Refiner::new(&ds.polygons);
    let view = snap.view();
    let reply = connect(addr)?
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

    // Server-side per-stage distribution, over the wire (STATS) — the
    // same path an external scraper uses.
    let stats_ex = connect(addr)?
        .stats_ex()
        .map_err(|e| format!("stats_ex: {e}"))?;
    let stats = server.stats();
    let measured_probes = stats.probes - warm_probes - sample.len() as u64;
    assert_eq!(measured_probes, points.len() as u64);
    assert_eq!(
        stats.shed, 0,
        "the throughput phase must never shed (default depth)"
    );
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    let throughput = points.len() as f64 / run.secs;
    let Latency { p50, p99, max } = Latency::of(&run.lat_us);
    let batch_width = stats.probes as f64 / stats.batches.max(1) as f64;
    println!(
        "served {} probes in {:.2} s  ({:.2} M probes/s, {connections} conn, {frame}/frame)",
        points.len(),
        run.secs,
        throughput / 1e6
    );
    println!(
        "latency/frame: p50 {p50:.0} us, p99 {p99:.0} us, max {max:.0} us; mean micro-batch width {batch_width:.1}"
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
    let stages: Vec<String> = TIME_STAGES
        .iter()
        .map(|&(name, stage)| {
            let (a, b) = (stage_us(hists, stage, 0.50), stage_us(hists, stage, 0.99));
            format!("{name} {a:.1}/{b:.1}")
        })
        .collect();
    println!(
        "server stages p50/p99 us: {}; probe depth p99 {:.0}",
        stages.join(", "),
        stage_raw(hists, proto::STAGE_PROBE_DEPTH, 0.99),
    );

    let row = Obj::new()
        .str("dataset", &ds.name)
        .int("polygons", ds.polygons.len() as u64)
        .num("precision_m", PRECISION_M)
        .int("points", points.len() as u64)
        .int("connections", connections as u64)
        .int("points_per_frame", frame as u64)
        .num("secs", run.secs)
        .num("probes_per_sec", throughput)
        .num("frame_latency_p50_us", p50)
        .num("frame_latency_p99_us", p99)
        .num("frame_latency_max_us", max)
        .int("server_batches", stats.batches)
        .num("mean_batch_width", batch_width)
        .int("epoch", u64::from(server.epoch()))
        .bool("obs_enabled", true)
        .bool("server_p99_le_client_p99", true)
        .bool("counts_verified", true)
        .bool("exact_mode_verified", true);
    let row = with_stage_quantiles(row, hists).build();
    server.shutdown();
    Ok((row, throughput))
}

/// The external-target phase (`--router-addr`): the closed loop against
/// an already-running `act-route` or `act-serve` endpoint instead of an
/// in-process spawn. Counts are verified against the local offline
/// probe (the external fleet must serve the same snapshot); the
/// exact-mode spot check is skipped because an external worker may run
/// without a refiner. The phase also pulls a STATS read (recording
/// merged per-stage quantiles when the target has observability on) and
/// probes the DUMP op, tolerating UNSUPPORTED.
fn run_external(
    ds: &datagen::Dataset,
    snap: &MappedSnapshot,
    points: &[Coord],
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
    warmup(addr, points, frame)?;
    let run = closed_loop(addr, points, connections, frame, num_zones)?;
    if run.counts != offline_counts(snap, points, num_zones) {
        return Err(
            "external counts diverged from the local offline probe — is the fleet serving the \
             same snapshot?"
                .to_string(),
        );
    }

    // Observability over the wire: merged stage histograms when the
    // target runs with obs on (empty section otherwise), and the DUMP
    // op (UNSUPPORTED when no trace ring is configured).
    let stats_ex = connect(addr)?
        .stats_ex()
        .map_err(|e| format!("external stats_ex: {e}"))?;
    let hists = &stats_ex.histograms;
    let has_stage_hists = hists
        .iter()
        .any(|h| h.stage == proto::STAGE_FRAME_TOTAL && h.hist.count() > 0);
    let dump_lines = connect(addr)?
        .dump()
        .ok()
        .map(|text| text.lines().count() as u64);

    let throughput = points.len() as f64 / run.secs;
    let Latency { p50, p99, .. } = Latency::of(&run.lat_us);
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
        "external: {} probes in {:.2} s ({:.2} M probes/s); p50 {p50:.0} us p99 {p99:.0} us; \
         stage histograms {}, trace dump {}",
        points.len(),
        run.secs,
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
    // The cached answers are verified like any others.
    let mut zipf_smoke_frames = 0u64;
    if let Some(s) = opts.zipf {
        let hot = &points[..points.len().min(ZIPF_HOT_SET)];
        let mut sampler = Zipf::new(hot.len(), s, 0x51_F0ED);
        let skewed: Vec<Coord> = (0..ZIPF_SMOKE_FRAMES * frame)
            .map(|_| hot[sampler.next_rank()])
            .collect();
        let smoke = closed_loop(addr, &skewed, 1, frame, num_zones)?;
        if smoke.counts != offline_counts(snap, &skewed, num_zones) {
            return Err("external zipf smoke: answers diverged from the offline probe".into());
        }
        zipf_smoke_frames = smoke.lat_us.len() as u64;
        println!(
            "external: zipf({s}) smoke — {zipf_smoke_frames} frames × {frame} pts over {} hot points",
            hot.len()
        );
    }

    // `--greedy` against an external target: one pipelined burst that
    // keeps many lanes in flight on a single connection, so a
    // quota-enforcing worker sheds the over-quota frames — the CI
    // fairness smoke scrapes `act_quota_sheds_total` afterwards. Every
    // OK answer is the same frame's, so the burst's books verify as
    // OK frames × that frame's offline counts.
    let (mut burst_ok, mut burst_shed) = (0u64, 0u64);
    if opts.greedy {
        let burst_frame = &points[..points.len().min(FAIR_FRAME)];
        let frames = std::iter::repeat_n(burst_frame, GREEDY_BURST_FRAMES);
        let burst = pipelined(addr, frames, num_zones)?;
        burst_ok = burst.ok_frames();
        burst_shed = burst.ok.len() as u64 - burst_ok;
        let once = offline_counts(snap, burst_frame, num_zones);
        if burst
            .counts
            .iter()
            .zip(&once)
            .any(|(&got, &c)| got != c * burst_ok)
        {
            return Err("external greedy burst: OK answers diverged from the offline probe".into());
        }
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
        .num("secs", run.secs)
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

/// The sharded-serving phase: sharder → [`ROUTER_SHARDS`] in-process
/// workers → scatter-gather router, the closed loop driven through the
/// router's endpoint, counts verified against the offline probe of the
/// unsharded snapshot and the merged counter block cross-checked against
/// per-worker sums. The recorded ratio vs the single-process run is the
/// scale-out headline; on a box with fewer cores than workers it is a
/// floor, not the ceiling (see the machine stamp).
fn run_router(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    points: &[Coord],
    expected: &[u64],
    connections: usize,
    frame: usize,
    single_process_throughput: f64,
) -> Result<String, String> {
    use act_core::write_shard_files;
    use act_serve::{Router, RouterConfig};

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
    warmup(addr, points, frame)?;
    let warm_probes: u64 = workers.iter().map(|w| w.stats().probes).sum();
    let run = closed_loop(addr, points, connections, frame, ds.polygons.len())?;
    assert_eq!(
        run.counts, expected,
        "routed counts diverged — not recording"
    );

    // Books: every probe point was answered by exactly one worker, and
    // the router's merged counter block equals the sum of the parts.
    let per_shard: Vec<u64> = workers.iter().map(|w| w.stats().probes).collect();
    let fleet_probes: u64 = per_shard.iter().sum();
    assert_eq!(fleet_probes - warm_probes, points.len() as u64);
    let merged = connect(addr)?
        .ping()
        .map_err(|e| format!("router ping: {e}"))?;
    assert_eq!(merged.counters.probes, fleet_probes);
    assert_eq!(merged.counters.shed, 0, "routed run must never shed");
    assert_eq!(merged.epoch, 1, "fresh fleet min epoch");

    let throughput = points.len() as f64 / run.secs;
    let speedup = throughput / single_process_throughput;
    let Latency { p50, p99, .. } = Latency::of(&run.lat_us);
    println!(
        "router: {} probes in {:.2} s ({:.2} M probes/s routed vs {:.2} M single-process, \
         {speedup:.2}x with {ROUTER_SHARDS} workers); latency/frame p50 {p50:.0} us p99 {p99:.0} us; \
         per-shard probes {per_shard:?}",
        points.len(),
        run.secs,
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
            array(per_shard.iter().map(u64::to_string)),
        )
        .int("points", points.len() as u64)
        .int("connections", connections as u64)
        .int("points_per_frame", frame as u64)
        .num("secs", run.secs)
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
    let points = &points[..points.len().min(FAULT_FRAME * FAULT_MAX_FRAMES)];
    let frames: Vec<&[Coord]> = points.chunks(FAULT_FRAME).collect();

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
    let mut recovery = None;
    for (k, chunk) in frames.iter().enumerate() {
        let t = Instant::now();
        let reply = client
            .probe(chunk, false)
            .map_err(|e| format!("faults: frame {k} not absorbed by retries: {e}"))?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        tally(&mut counts, &reply.refs);
        if faults.total_fires() < planned_fires {
            fault_lat_us.push(us);
        } else {
            // The first frame to complete after the final injected
            // fault: its completion is the recovery point.
            recovery.get_or_insert_with(|| t.elapsed());
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
    assert_eq!(
        counts,
        offline_counts(snap, points, ds.polygons.len()),
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

    let p99_fault = Latency::of(&sorted(fault_lat_us)).p99;
    let p99_clean = Latency::of(&sorted(clean_lat_us)).p99;
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
    let num_zones = ds.polygons.len();
    let points = &points[..points.len().min(OVERLOAD_MAX_POINTS)];
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

    // Pipelined drive: each connection owns a stripe of frames and
    // records which were answered OK vs LOADSHED, in order.
    let t0 = Instant::now();
    let stripe = frames.len().div_ceil(OVERLOAD_CONNS).max(1);
    let per_conn: Vec<Result<Piped, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .chunks(stripe)
            .map(|mine| scope.spawn(move || pipelined(addr, mine.iter().copied(), num_zones)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload client thread"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut ok_mask: Vec<bool> = Vec::with_capacity(frames.len());
    let mut got_counts = vec![0u64; num_zones];
    let mut write_secs = 0f64;
    for r in per_conn {
        let conn = r?;
        ok_mask.extend(conn.ok);
        got_counts
            .iter_mut()
            .zip(conn.counts)
            .for_each(|(acc, v)| *acc += v);
        // Connections blast concurrently, so the slowest writer bounds
        // when the full point set had been offered.
        write_secs = write_secs.max(conn.write_secs);
    }
    assert_eq!(
        ok_mask.len(),
        frames.len(),
        "every frame must be answered, OK or LOADSHED"
    );

    // Verify the OK answers against an offline probe of exactly those
    // frames — shedding must never corrupt what *is* answered.
    let ok_points: Vec<Coord> = ok_mask
        .iter()
        .zip(&frames)
        .filter(|(ok, _)| **ok)
        .flat_map(|(_, f)| f.iter().copied())
        .collect();
    assert_eq!(
        got_counts,
        offline_counts(snap, &ok_points, num_zones),
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

    // Offered load is measured on the *write* side: the slowest writer's
    // blast time is when the full point set had been pushed onto the
    // wire. Dividing by the full-run wall clock (which includes waiting
    // for the last reply) conflated "offered" with "answered" and
    // understated the overload multiple.
    let offered_per_sec = points.len() as f64 / write_secs;
    let goodput_per_sec = ok_points.len() as f64 / secs;
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

/// The hot-cell cache phase (`--zipf S`): a Zipf(S)-skewed workload over
/// a fixed [`ZIPF_HOT_SET`] drives two fresh servers from the same
/// snapshot — identical except one runs with the result cache on — and
/// the row records both throughputs, the hit rate, and the speedup
/// (timed over minimal-drain passes; see [`ZipfBench`]). The cache-on
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
    let host_row = zipf_phase(ds, path, snap, points, seed, s, Some(1.3))?;

    let surge = datagen::surge_zones(seed, 16, 8, 8);
    let dir = path.parent().and_then(|d| d.to_str()).unwrap_or(".");
    let surge_path = cached_snapshot(dir, &surge);
    let surge_snap = MappedSnapshot::open(&surge_path).expect("map surge snapshot");
    let surge_points = make_points(&surge, ZIPF_MAX_POINTS, seed);
    // The surge preset stacks 16 overlapping zone layers (16 refs per
    // probe), so the reply payload encode dominates both sides and the
    // cache's walk elimination is a smaller slice of each probe. It
    // clears 1.3x too on typical runs, but its margin sits within
    // machine noise — the contract rides on the host row, and this one
    // is recorded as evidence, not gated.
    let surge_row = zipf_phase(
        &surge,
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
fn zipf_phase(
    ds: &datagen::Dataset,
    path: &std::path::Path,
    snap: &MappedSnapshot,
    points: &[Coord],
    seed: u64,
    s: f64,
    min_speedup: Option<f64>,
) -> Result<String, String> {
    use act_serve::CacheConfig;

    let (name, num_zones) = (&ds.name, ds.polygons.len());
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
        off.lat.p99,
        on_tput / 1e6,
        on.lat.p99,
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
        .num("frame_latency_p50_us_cache_off", off.lat.p50)
        .num("frame_latency_p99_us_cache_off", off.lat.p99)
        .num("frame_latency_p50_us_cache_on", on.lat.p50)
        .num("frame_latency_p99_us_cache_on", on.lat.p99)
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
    lat: Latency,
    counts: Vec<u64>,
    stats: act_serve::CounterBlock,
}

/// One fresh single-worker server — with or without the cache — plus a
/// raw measured-pass stream against it. [`ZipfBench::start`] runs the
/// **verification** pass; each [`ZipfBench::rep`] is one **measured**
/// pass, and [`ZipfBench::finish`] keeps the best.
///
/// The verification pass is a one-connection [`closed_loop`] over the
/// whole workload with a full decode, returning per-zone counts for the
/// offline-oracle check. Running it first also makes it the warmup: it
/// touches every mapped page and (on the cache side) fills every hot
/// cell, so the measured reps time the steady hot-set state on both
/// sides instead of each side's distinct cold-start costs.
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
    stream: TcpStream,
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
        let counts = closed_loop(server.addr(), workload, 1, frame, num_zones)?.counts;
        let warm = server.stats();
        let cells: Vec<s2cell::CellId> = workload.iter().map(|&c| coord_to_cell(c)).collect();
        let frames: Vec<Vec<u8>> = cells
            .chunks(frame)
            .map(proto::encode_probe_cells_request)
            .collect();
        let stream = connect_raw(server.addr())?;
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
        let (secs, lat_us) = self.best.expect("at least one rep");
        let mut stats = self.server.stats();
        // Only the measured reps' cache traffic: subtract the
        // verification pass that warmed it, so hits + misses line up
        // with the measured probes exactly.
        stats.cache_hits -= self.warm.cache_hits;
        stats.cache_misses -= self.warm.cache_misses;
        self.server.shutdown();
        ZipfRun {
            secs,
            lat: Latency::of(&sorted(lat_us)),
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
    let num_zones = ds.polygons.len();
    let greedy_frame = &points[..FAIR_FRAME];
    let greedy_expected = offline_counts(snap, greedy_frame, num_zones);
    let stripes: Vec<&[Coord]> = points[FAIR_FRAME..need]
        .chunks(FAIR_POLITE_FRAME * FAIR_POLITE_FRAMES)
        .collect();
    let stripe_expected: Vec<Vec<u64>> = stripes
        .iter()
        .map(|st| offline_counts(snap, st, num_zones))
        .collect();

    let off = fairness_run(path, greedy_frame, &stripes, num_zones, None)?;
    let on = fairness_run(
        path,
        greedy_frame,
        &stripes,
        num_zones,
        Some(FAIR_QUOTA_LANES),
    )?;
    for run in [&off, &on] {
        for (got, want) in run.polite_counts.iter().zip(&stripe_expected) {
            assert_eq!(got, want, "polite answers diverged — not recording");
        }
        let want_greedy: Vec<u64> = greedy_expected
            .iter()
            .map(|c| c * run.greedy.ok_frames())
            .collect();
        assert_eq!(
            run.greedy.counts, want_greedy,
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
    let [ok_off, shed_off] = off.greedy_frames();
    let [ok_on, shed_on] = on.greedy_frames();
    println!(
        "fairness: worst polite goodput {worst_off:.0} pts/s without quota vs {worst_on:.0} \
         pts/s with — {gain:.1}x; greedy {ok_off} OK / {shed_off} shed frames without, \
         {ok_on} OK / {shed_on} shed ({} quota) with",
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
        .int("greedy_ok_frames_no_quota", ok_off)
        .int("greedy_shed_frames_no_quota", shed_off)
        .int("greedy_ok_frames_with_quota", ok_on)
        .int("greedy_shed_frames_with_quota", shed_on)
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
    greedy: Piped,
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

    /// The greedy connection's (OK, LOADSHED) frame counts.
    fn greedy_frames(&self) -> [u64; 2] {
        let ok = self.greedy.ok_frames();
        [ok, self.greedy.ok.len() as u64 - ok]
    }
}

/// One fairness pass: the greedy connection is a [`pipelined`] writer
/// repeating one frame until every polite client has finished its
/// stripe.
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
        let greedy = scope.spawn(|| {
            let frames =
                std::iter::repeat(greedy_frame).take_while(|_| !stop.load(Ordering::Acquire));
            pipelined(addr, frames, num_zones)
        });
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
    let greedy = greedy?;
    let stats = server.stats();
    server.shutdown();
    Ok(FairnessRun {
        polite_goodput,
        polite_counts,
        polite_retries,
        greedy_goodput: (greedy.ok_frames() as usize * greedy_frame.len()) as f64 / secs,
        greedy,
        stats,
    })
}

/// One polite client: works through its stripe frame by frame over a
/// [`act_serve::ResilientClient`], which absorbs LOADSHED by honoring
/// the server's retry hint — the civic behavior the quota is there to
/// protect. Returns (elapsed secs, per-zone counts, retries).
fn polite_conn(
    addr: SocketAddr,
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
        tally(&mut counts, &reply.refs);
    }
    Ok((t0.elapsed().as_secs_f64(), counts, client.retries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Polygon, Ring};

    /// An OK probe payload: per point, a count word then one ref word
    /// per `(id, hit)`.
    fn ok_payload(refs: &[proto::PointRefs]) -> Vec<u8> {
        let mut out = Vec::new();
        for one in refs {
            out.extend_from_slice(&(one.len() as u32).to_le_bytes());
            for &(id, hit) in one {
                out.extend_from_slice(&proto::encode_ref(id, hit).to_le_bytes());
            }
        }
        out
    }

    fn reply(op: u8, status: u8, n: u32, payload: &[u8]) -> Vec<u8> {
        proto::encode_response(op, status, 1, n, payload)
    }

    #[test]
    fn read_reply_decodes_ok_and_loadshed_in_order() {
        let refs = vec![vec![(3, true)], vec![], vec![(1, false), (2, true)]];
        let mut wire = reply(proto::OP_PROBE, proto::STATUS_OK, 3, &ok_payload(&refs));
        let hint = proto::encode_retry_hint(7);
        wire.extend(reply(proto::OP_PROBE, proto::STATUS_LOADSHED, 0, &hint));
        wire.extend(reply(proto::OP_PROBE, proto::STATUS_LOADSHED, 0, &[]));
        let mut r = wire.as_slice();
        assert_eq!(read_reply(&mut r, 3), Ok(Reply::Ok(refs)));
        assert_eq!(read_reply(&mut r, 5), Ok(Reply::Shed));
        assert_eq!(read_reply(&mut r, 5), Ok(Reply::Shed));
        assert_eq!(read_reply(&mut r, 5), Err(BadReply::Closed));
    }

    #[test]
    fn read_reply_rejects_each_malformed_answer() {
        let refs = vec![vec![(3, true)], vec![]];
        let payload = ok_payload(&refs);
        let cases = [
            (
                reply(proto::OP_PROBE, proto::STATUS_OK, 2, &payload),
                3,
                BadReply::Count { n: 2, sent: 3 },
            ),
            (
                reply(proto::OP_PING, proto::STATUS_OK, 2, &payload),
                2,
                BadReply::Op(proto::OP_PING),
            ),
            (
                reply(proto::OP_PROBE, proto::STATUS_LOADSHED, 2, &[]),
                2,
                BadReply::ShedEntries(2),
            ),
            (
                reply(proto::OP_PROBE, proto::STATUS_INTERNAL, 0, &[]),
                2,
                BadReply::Status(proto::STATUS_INTERNAL),
            ),
            (
                reply(proto::OP_PROBE, proto::STATUS_OK, 2, &payload[..6]),
                2,
                BadReply::Malformed("probe payload truncated inside a ref list"),
            ),
            (
                reply(proto::OP_PROBE, proto::STATUS_LOADSHED, 0, &[1, 2]),
                2,
                BadReply::Malformed("reject payload is not an optional u32 retry hint"),
            ),
        ];
        for (wire, sent, want) in cases {
            assert_eq!(read_reply(&mut wire.as_slice(), sent), Err(want));
        }
        let cut = reply(proto::OP_PROBE, proto::STATUS_OK, 2, &payload);
        assert!(matches!(
            read_reply(&mut &cut[..cut.len() - 1], 2),
            Err(BadReply::Read(_))
        ));
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        )
    }

    #[test]
    fn closed_loop_matches_the_offline_oracle() {
        let polys: Vec<Polygon> = (0..4)
            .map(|k| square(-74.05 + 0.03 * k as f64, 40.70, 0.02))
            .collect();
        let index = act_core::ActIndex::build(&polys, PRECISION_M).unwrap();
        let mut bytes = Vec::new();
        index.save_snapshot(&mut bytes).unwrap();
        let path = std::env::temp_dir().join(format!("loadgen-test-{}.snap", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let snap = MappedSnapshot::open(&path).unwrap();
        let server = Server::spawn(
            &path,
            ServeConfig {
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        let points: Vec<Coord> = (0..1_000)
            .map(|k| {
                Coord::new(
                    -74.08 + 0.00013 * k as f64,
                    40.70 + 0.00001 * (k % 7) as f64,
                )
            })
            .collect();
        let (conns, frame) = (3, 64);
        let run = closed_loop(server.addr(), &points, conns, frame, polys.len()).unwrap();
        let want = offline_counts(&snap, &points, polys.len());
        assert!(want.iter().all(|&c| c > 0), "every square is probed");
        assert_eq!(run.counts, want);
        let frames: usize = points
            .chunks(points.len().div_ceil(conns))
            .map(|stripe| stripe.len().div_ceil(frame))
            .sum();
        assert_eq!(run.lat_us.len(), frames);
        assert!(run.lat_us.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert_eq!(Latency::of(&run.lat_us).max, run.lat_us[frames - 1]);
        assert_eq!(server.stats().probes, points.len() as u64);
        server.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
