//! The TCP server: accept loop → connection readers → micro-batching
//! probe workers → epoch-pinned snapshot, with admission control and a
//! graceful-drain lifecycle on top.
//!
//! ## Threading model (std::net, no async runtime)
//!
//! * One **accept loop** hands each connection its own reader thread —
//!   unless the server is at [`ServeConfig::max_connections`], in which
//!   case the connection is answered with a single `BUSY` frame and
//!   closed before a thread is ever spawned. The accept gate, the
//!   drain-aware frame reader, the malformed-frame close and the drain
//!   deadline are the connection front end the router shares.
//! * Each **connection thread** decodes frames, converts coordinates to
//!   leaf cells (spreading that work across connections), and admits a
//!   `Job` to the shared bounded queue. Up to
//!   [`ServeConfig::max_inflight_frames`] frames may be in flight per
//!   connection (a pipelining client overlaps request and response
//!   streams); once the cap is hit the thread **stops reading** until the
//!   oldest reply is written, so a connection whose responses back up
//!   slows its own reads via ordinary TCP backpressure instead of
//!   buffering without bound. Replies always go out in request order.
//! * The queue is **bounded in lanes** (points), not frames: admission
//!   takes `queued_lanes + frame_lanes <= queue_depth_lanes`, so the
//!   worst-case queued work — and the memory behind it — is capped no
//!   matter how the traffic is framed. An overflowing probe frame is
//!   answered immediately with `LOADSHED` (never silently dropped) and
//!   the connection stays open.
//! * A small pool of **probe workers** drains the queue in **adaptive
//!   micro-batches**: drain-until-empty, up to [`ServeConfig::batch_lanes`]
//!   points per batch (256 by default — one full level-synchronous
//!   `lookup_batch` block). Under light load a worker wakes per request
//!   and latency is one queue hop; under heavy load the queue fills and
//!   batches widen toward the lane budget automatically — the same
//!   load-adaptive batching story as the paper's online join, with the
//!   batch riding the existing memory-level-parallel trie walk.
//! * Every micro-batch pins one `(snapshot, epoch)` pair from the
//!   [`IndexStore`]; a concurrent hot-swap affects only later batches,
//!   so no request ever observes a torn index.
//! * Workers run each batch's compute under `catch_unwind`: a panic
//!   poisons exactly one batch (its frames are answered with typed
//!   `INTERNAL` replies and `panics_contained` bumps) instead of the
//!   process — the worker survives to take the next batch.
//!
//! ## Graceful drain
//!
//! [`ServerHandle::shutdown`] (or drop) flips one `draining` flag and
//! then joins everything, in dependency order:
//!
//! 1. The accept loop exits — no new connections.
//! 2. Connection readers stop reading (a partially read frame is
//!    abandoned, never half-admitted) — no new work. Admission is
//!    checked under the queue lock, so "accepted before shutdown" is a
//!    linearization point, not a race.
//! 3. Workers drain every job still queued, then exit — every accepted
//!    frame gets its real answer.
//! 4. Connection threads flush their pending replies (bounded by a
//!    fixed 5 s drain grace, so one stalled client cannot wedge
//!    shutdown), then close.

use crate::cache::{CacheConfig, HotCellCache};
use crate::conn::{self, DrainClock, Front};
use crate::obs::{render_counters, render_histograms, render_trace_meta, ObsConfig, PipelineObs};
use crate::protocol as proto;
use crate::swap::{snapshot_signature, watch_loop_opts, IndexStore, WatchCounters, WatchOptions};
use act_core::{coord_to_cell, MappedSnapshot, Probe, Refiner, SnapshotError};
use act_obs::PromText;
use geom::Coord;
use s2cell::CellId;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-injection")]
use crate::faults::{FaultAction, Faults, Site};

/// A failure spawning the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket/bind/thread failures.
    Io(io::Error),
    /// The initial snapshot could not be opened or validated.
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Snapshot(e)
    }
}

/// Server tuning knobs. `Default` is a sensible local server: ephemeral
/// loopback port, one worker per hardware thread, 256-lane batches, a
/// 200 ms snapshot watcher, approximate mode only, and admission limits
/// loose enough that well-behaved traffic never sees them.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Probe worker shards (minimum 1).
    pub workers: usize,
    /// Micro-batch lane budget: a batch closes at this many points (or
    /// when the queue runs dry). 256 matches one level-synchronous
    /// `lookup_batch` block.
    pub batch_lanes: usize,
    /// Polygon refiner enabling the protocol's EXACT flag. Must be
    /// built from the same polygon set as the served snapshots — the
    /// hot-swap path ships cell tries, not geometry, so swapping to a
    /// snapshot of *different* polygons with a stale refiner is an
    /// operator error.
    pub refiner: Option<Refiner>,
    /// Snapshot-file poll interval for hot-swap; `None` disables the
    /// watcher.
    pub watch: Option<Duration>,
    /// Probe-queue depth in **lanes** (points), the bounded-memory knob:
    /// a probe frame is admitted only if `queued + frame_lanes` stays
    /// within this cap, else it is answered `LOADSHED` immediately.
    /// Frames larger than the whole depth are therefore *always* shed —
    /// size it at least [`proto::MAX_POINTS`] (the default) unless you
    /// also bound client frame sizes.
    pub queue_depth_lanes: usize,
    /// Max frames in flight per connection before the reader stops
    /// reading (TCP backpressure to that client). Bounds per-connection
    /// reply buffering.
    pub max_inflight_frames: usize,
    /// Max simultaneously served connections; the accept loop answers
    /// excess connections with one `BUSY` frame and closes them.
    pub max_connections: usize,
    /// Fault-injection / capacity-pinning knob: sleep this long before
    /// every micro-batch. `None` (the default) in production; the chaos
    /// suite's shedding and fairness tests use it to make "capacity" a
    /// known constant, so shedding is deterministic.
    pub batch_delay: Option<Duration>,
    /// Pipeline observability: per-stage latency histograms, the
    /// batch-size and probe-depth histograms, and the sampled trace
    /// ring. `None` (the default) records nothing and takes **zero**
    /// clock reads on the hot path; see [`crate::obs`].
    pub obs: Option<ObsConfig>,
    /// Hot-cell result cache consulted by the worker batch path before
    /// the trie walk; entries key on the **resolved trie cell** and
    /// carry their fill epoch, so hot-swaps invalidate structurally
    /// (see [`crate::cache`]). `None` (the default) probes every lane.
    pub cache: Option<CacheConfig>,
    /// Per-client fairness: the admitted-lanes quota one connection may
    /// have in flight. A probe frame that would push its connection
    /// past this is answered `LOADSHED` (with the retry hint) *before*
    /// the shared queue is consulted, so one greedy pipeliner cannot
    /// starve polite clients of queue depth. `None` (the default)
    /// enforces nothing.
    pub client_quota_lanes: Option<usize>,
    /// An armed fault plan ([`crate::faults::FaultPlan::arm`]); hooks in
    /// the workers, connection writers, and the watcher consult it.
    /// `None` injects nothing. Only present under the `fault-injection`
    /// feature — production builds carry no hook sites at all.
    #[cfg(feature = "fault-injection")]
    pub faults: Option<Arc<Faults>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_lanes: 256,
            refiner: None,
            watch: Some(Duration::from_millis(200)),
            queue_depth_lanes: proto::MAX_POINTS,
            max_inflight_frames: 16,
            max_connections: 256,
            batch_delay: None,
            obs: None,
            cache: None,
            client_quota_lanes: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// One enqueued probe request.
struct Job {
    cells: Vec<CellId>,
    coords: Vec<Coord>,
    exact: bool,
    reply: mpsc::SyncSender<Reply>,
    /// Admission timestamp; `Some` only with observability on (the
    /// worker derives queue-wait from it, the writer frame-total).
    admitted: Option<Instant>,
    /// The owning connection's in-flight-lanes counter (the fairness
    /// quota's book). Charged at admission by the reader; released by
    /// the worker when the reply is produced — through the `Arc`, so a
    /// connection that dies mid-flight still gets its lanes back.
    quota: Arc<AtomicU64>,
}

/// A worker's answer to one [`Job`], ready to frame.
struct Reply {
    status: u8,
    epoch: u32,
    n: u32,
    payload: Vec<u8>,
}

/// The bounded probe queue. `lanes` mirrors the summed `cells.len()` of
/// `jobs` so admission is O(1); both live under one mutex so admission,
/// batch formation, and the drain-exit check are linearized.
struct Queue {
    jobs: VecDeque<Job>,
    lanes: usize,
}

struct State {
    store: IndexStore,
    refiner: Option<Refiner>,
    queue: Mutex<Queue>,
    ready: Condvar,
    /// The drain flag, the connection cap and the connection threads.
    front: Front,
    batch_lanes: usize,
    queue_depth_lanes: usize,
    max_inflight: usize,
    batch_delay: Option<Duration>,
    probes: AtomicU64,
    accepted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    bad_frames: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    queue_hw_lanes: AtomicU64,
    panics_contained: AtomicU64,
    /// Probe frames shed by the per-client quota (also counted in
    /// `shed`; the split tells overload from unfairness on /metrics).
    quota_sheds: AtomicU64,
    /// The per-connection admitted-lanes quota; `None` enforces nothing.
    quota_lanes: Option<usize>,
    /// The hot-cell result cache; `None` walks every lane.
    cache: Option<Arc<HotCellCache>>,
    /// Watcher-side counters (transient IO errors, quarantined deltas),
    /// shared with the watch thread.
    watch: Arc<WatchCounters>,
    /// Lanes actually answered by workers, paired with `started` to give
    /// the measured drain rate behind retry-after hints.
    drained_lanes: AtomicU64,
    started: Instant,
    /// Queue high-water mark since the last STATS read (see
    /// `CounterBlock::window_high_water_lanes`). Always maintained —
    /// one relaxed `fetch_max` under the queue lock — so the windowed
    /// mark works with observability off too.
    window_hw_lanes: AtomicU64,
    /// Per-stage histograms + trace ring; `None` ⇒ no clock reads.
    obs: Option<Arc<PipelineObs>>,
    #[cfg(feature = "fault-injection")]
    faults: Option<Arc<Faults>>,
}

impl State {
    fn counter_block(&self) -> proto::CounterBlock {
        proto::CounterBlock {
            probes: self.probes.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            swaps: self.store.swaps(),
            queue_high_water_lanes: self.queue_hw_lanes.load(Ordering::Relaxed),
            delta_applies: self.store.delta_applies(),
            watch_errors: self.watch.errors(),
            quarantines: self.watch.quarantines(),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            window_high_water_lanes: self.window_hw_lanes.load(Ordering::Relaxed),
            cache_hits: self.cache.as_ref().map_or(0, |c| c.hits()),
            cache_misses: self.cache.as_ref().map_or(0, |c| c.misses()),
            quota_sheds: self.quota_sheds.load(Ordering::Relaxed),
        }
    }

    /// The reply frame for a header-only request. PING carries the
    /// counter block; STATS adds every stage histogram (empty section
    /// with observability off) and takes the **windowed** high-water
    /// mark, resetting it to zero; DUMP carries the trace ring, or
    /// answers `UNSUPPORTED` with observability off.
    fn headless_reply(&self, req: &proto::Request) -> Vec<u8> {
        let (op, status, payload) = match req {
            proto::Request::Ping => (
                proto::OP_PING,
                proto::STATUS_OK,
                proto::encode_counters(&self.counter_block()).to_vec(),
            ),
            proto::Request::Stats => {
                let mut block = self.counter_block();
                block.window_high_water_lanes = self.window_hw_lanes.swap(0, Ordering::Relaxed);
                let hists = self
                    .obs
                    .as_ref()
                    .map(|o| o.stage_histograms())
                    .unwrap_or_default();
                let payload = proto::encode_stats_ex_payload(&block, &hists);
                (proto::OP_STATS, proto::STATUS_OK, payload)
            }
            // DUMP (the reader passes no probe here). Non-destructive:
            // the ring keeps its window, so repeated dumps (and the
            // SIGINT drain) overlap.
            _ => match &self.obs {
                Some(obs) => (
                    proto::OP_DUMP,
                    proto::STATUS_OK,
                    obs.trace.dump_json_lines().into_bytes(),
                ),
                None => (proto::OP_DUMP, proto::STATUS_UNSUPPORTED, Vec::new()),
            },
        };
        proto::encode_response(op, status, self.store.epoch(), 0, &payload)
    }

    /// The `retry_after_ms` hint for a reject emitted right now: the
    /// estimated time for the current queue to drain at the measured
    /// rate (see [`proto::suggest_retry_after_ms`]).
    fn retry_hint_ms(&self) -> u32 {
        let queued = queued_lanes(&self.queue);
        let secs = self.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            self.drained_lanes.load(Ordering::Relaxed) as f64 / secs
        } else {
            0.0
        };
        proto::suggest_retry_after_ms(queued, rate)
    }
}

/// The queue's current depth in lanes, recovered through lock poison.
/// A worker panicking under the queue lock poisons it, but `lanes` is a
/// plain counter kept consistent at every await-free update — there is
/// no torn state to fear. The old `.map(..).unwrap_or(0)` masked poison
/// as an **empty** queue, so a server that had just contained a panic
/// under load advertised near-zero retry hints at exactly the moment it
/// was sickest, inviting the whole herd back early.
fn queued_lanes(queue: &Mutex<Queue>) -> u64 {
    queue.lock().unwrap_or_else(PoisonError::into_inner).lanes as u64
}

/// Spawns an [`act-serve`](crate) server over the snapshot at
/// `snapshot_path` and returns a handle once it is accepting.
pub struct Server;

impl Server {
    /// Opens (mmap-preferred) and validates the snapshot, binds
    /// `config.addr`, and starts the worker pool, accept loop, and
    /// (unless disabled) the hot-swap watcher.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the initial snapshot is unusable,
    /// [`ServeError::Io`] when the bind fails.
    pub fn spawn(
        snapshot_path: impl Into<PathBuf>,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        let path = snapshot_path.into();
        // Signature before open: if the file is replaced in the gap, the
        // watcher sees a change and re-loads — never the reverse race
        // (baselining on a file newer than the one being served).
        let initial_sig = snapshot_signature(&path);
        let snap = MappedSnapshot::open(&path)?;
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            store: IndexStore::new(snap),
            refiner: config.refiner,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                lanes: 0,
            }),
            ready: Condvar::new(),
            front: Front::new(config.max_connections),
            batch_lanes: config.batch_lanes.max(1),
            queue_depth_lanes: config.queue_depth_lanes,
            max_inflight: config.max_inflight_frames.max(1),
            batch_delay: config.batch_delay,
            probes: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_hw_lanes: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            quota_sheds: AtomicU64::new(0),
            quota_lanes: config.client_quota_lanes,
            cache: config
                .cache
                .as_ref()
                .map(|c| Arc::new(HotCellCache::new(c))),
            watch: Arc::new(WatchCounters::default()),
            drained_lanes: AtomicU64::new(0),
            started: Instant::now(),
            window_hw_lanes: AtomicU64::new(0),
            obs: config.obs.as_ref().map(|c| Arc::new(PipelineObs::new(c))),
            #[cfg(feature = "fault-injection")]
            faults: config.faults,
        });

        let mut threads = Vec::new();
        for w in 0..config.workers.max(1) {
            let st = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("act-serve-worker-{w}"))
                    .spawn(move || worker_loop(&st))
                    .expect("spawn probe worker"),
            );
        }
        {
            let st = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("act-serve-accept".to_string())
                    .spawn(move || {
                        let refuse = |stream| {
                            st.busy.fetch_add(1, Ordering::Relaxed);
                            conn::refuse_busy(stream, st.store.epoch(), st.retry_hint_ms());
                        };
                        let served = Arc::clone(&st);
                        let serve = move |stream| conn_loop(stream, &served);
                        conn::accept_loop(listener, &st.front, "act-serve-conn", refuse, serve);
                    })
                    .expect("spawn accept loop"),
            );
        }
        let watcher = config.watch.map(|interval| {
            let st = Arc::clone(&state);
            let p = path.clone();
            let opts = WatchOptions {
                interval,
                counters: Arc::clone(&st.watch),
                trace: st.obs.as_ref().map(|o| Arc::clone(&o.trace)),
                #[cfg(feature = "fault-injection")]
                faults: st.faults.clone(),
                ..WatchOptions::default()
            };
            std::thread::Builder::new()
                .name("act-serve-watch".to_string())
                .spawn(move || {
                    watch_loop_opts(&p, &st.store, &st.front.draining, initial_sig, opts)
                })
                .expect("spawn snapshot watcher")
        });

        Ok(ServerHandle {
            addr,
            state,
            threads,
            watcher,
        })
    }
}

/// A running server. Dropping it (or calling [`ServerHandle::shutdown`])
/// stops accepting, drains accepted work, flushes responses, and joins
/// every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<u64>>,
}

impl ServerHandle {
    /// The bound address (resolve the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving snapshot epoch (1 + successful hot-swaps).
    pub fn epoch(&self) -> u32 {
        self.state.store.epoch()
    }

    /// Aggregate serving counters so far — the block PING carries
    /// (reading it leaves the windowed high-water mark in place).
    pub fn stats(&self) -> proto::CounterBlock {
        self.state.counter_block()
    }

    /// The sampled trace ring's current window as JSON lines, oldest
    /// first (`None` when observability is off). Non-destructive; the
    /// `act-serve` binary prints this on SIGINT as the trace drain.
    pub fn trace_json_lines(&self) -> Option<String> {
        self.state.obs.as_ref().map(|o| o.trace.dump_json_lines())
    }

    /// A self-contained `/metrics` renderer for
    /// [`act_obs::MetricsServer`]: the counter block as Prometheus
    /// counters/gauges, plus (with observability on) every stage
    /// histogram and the trace meta counter. Scrapes are read-only —
    /// the windowed high-water mark is consumed by STATS reads,
    /// never by a scrape.
    pub fn metrics_fn(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let state = Arc::clone(&self.state);
        Arc::new(move || {
            let mut page = PromText::new();
            render_counters(&mut page, &[], state.store.epoch(), &state.counter_block());
            if let Some(obs) = &state.obs {
                render_histograms(&mut page, &[], &obs.stage_histograms());
                render_trace_meta(&mut page, &[], &obs.trace);
            }
            page.finish()
        })
    }

    /// Gracefully drains and stops the server: stop accepting, answer
    /// everything already accepted, flush responses, join every thread.
    /// Equivalent to dropping the handle, but explicit at call sites
    /// that care about ordering — and it returns the **final** counters,
    /// captured after the drain, so work answered during the drain is
    /// included (a pre-shutdown `stats()` call would undercount it).
    pub fn shutdown(mut self) -> proto::CounterBlock {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        if !self.state.front.start_drain() {
            return;
        }
        // Notify while holding the queue mutex: a worker that already
        // checked the draining flag but has not yet parked in wait()
        // still holds the lock, so acquiring it here orders this
        // notify_all after that worker reaches wait() — no lost wakeup,
        // no join() deadlock.
        {
            let _guard = self.state.queue.lock().expect("probe queue");
            self.state.ready.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        // Accept loop is down: the connection set is final. Join it (the
        // workers above drained the queue first, so every pending reply
        // the connections are flushing already exists).
        self.state.front.join_connections();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

/// Admission verdict for one probe frame.
enum Admission {
    Enqueued,
    Shed,
    Draining,
}

/// Admits `job` to the bounded queue, or rejects it. The depth check and
/// the draining check both run under the queue lock, which linearizes
/// them against worker drain-exit: a job admitted here is *guaranteed* a
/// worker answer, and after drain begins nothing new is ever admitted.
fn try_enqueue(state: &State, job: Job) -> Admission {
    let lanes = job.cells.len();
    {
        let mut q = state.queue.lock().expect("probe queue");
        if state.front.draining() {
            return Admission::Draining;
        }
        if q.lanes + lanes > state.queue_depth_lanes {
            return Admission::Shed;
        }
        q.lanes += lanes;
        q.jobs.push_back(job);
        state
            .queue_hw_lanes
            .fetch_max(q.lanes as u64, Ordering::Relaxed);
        state
            .window_hw_lanes
            .fetch_max(q.lanes as u64, Ordering::Relaxed);
    }
    state.ready.notify_one();
    Admission::Enqueued
}

/// A reply owed to the client, in request order.
enum Pending {
    /// A probe job in flight; the worker delivers here. The `Instant`
    /// is the admission stamp (`Some` only with observability on) the
    /// writer turns into the frame-total histogram sample.
    Waiting(mpsc::Receiver<Reply>, Option<Instant>),
    /// An already-rendered frame (ping/stats/shed/bad-request).
    Ready(Vec<u8>),
}

/// A connection is two threads sharing the socket: this **reader**
/// (the `act-serve-conn` thread itself) decodes frames, admits jobs, and
/// pushes one [`Pending`] entry per frame onto a **bounded** in-order
/// channel; a scoped **writer** thread drains that channel, waiting on
/// each entry's reply and writing it out. The split keeps both
/// directions event-driven — a reply never waits for a read timeout to
/// be flushed — and the channel bound *is* the per-connection in-flight
/// cap: when the client's responses back up, the channel fills, the
/// reader stops reading, and TCP backpressure does the rest.
fn conn_loop(stream: TcpStream, state: &State) {
    let Ok(w) = stream.try_clone() else { return };
    let (tx, rx) = mpsc::sync_channel::<Pending>(state.max_inflight);
    // Either side setting this tells the other to wind down (writer hit
    // an error or its drain deadline; reader hit EOF is signaled by the
    // channel disconnect instead).
    let dead = AtomicBool::new(false);
    // This connection's in-flight-lanes book for the fairness quota:
    // charged by the reader at admission, released by workers at reply
    // production. Kept even with the quota off — one relaxed add/sub
    // per frame — so flipping the knob needs no reconnects.
    let inflight_lanes = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("act-serve-conn-writer".to_string())
            .spawn_scoped(scope, || writer_loop(state, w, rx, &dead))
            .expect("spawn connection writer");
        let mut r = stream;
        reader_loop(state, &mut r, &tx, &dead, &inflight_lanes);
        // Dropping the sender is the writer's EOF: it delivers every
        // entry still owed (bounded by the drain grace), then exits; the
        // scope joins it.
        drop(tx);
    });
}

/// The read half: decode → admit → push the owed reply entry, in order.
fn reader_loop(
    state: &State,
    r: &mut TcpStream,
    tx: &mpsc::SyncSender<Pending>,
    dead: &AtomicBool,
    inflight_lanes: &Arc<AtomicU64>,
) {
    let stop = || state.front.draining() || dead.load(Ordering::Acquire);
    loop {
        let req = match conn::read_request(r, &stop) {
            Ok(Some(req)) => req,
            // Clean EOF, drain, or writer death: stop reading. What is
            // already owed still flows through the writer.
            Ok(None) => return,
            Err(op) => {
                state.bad_frames.fetch_add(1, Ordering::Relaxed);
                let epoch = state.store.epoch();
                let f = proto::encode_response(op, proto::STATUS_BAD_REQUEST, epoch, 0, &[]);
                let _ = push_pending(tx, Pending::Ready(f), dead);
                conn::drain_unread(r);
                return;
            }
        };
        match req {
            req @ (proto::Request::Ping | proto::Request::Stats | proto::Request::Dump) => {
                state.accepted.fetch_add(1, Ordering::Relaxed);
                state.answered.fetch_add(1, Ordering::Relaxed);
                // Through the pending FIFO, so it cannot overtake an
                // in-flight probe reply.
                if !push_pending(tx, Pending::Ready(state.headless_reply(&req)), dead) {
                    return;
                }
            }
            req @ (proto::Request::Probe { .. } | proto::Request::ProbeCells { .. }) => {
                // Cell frames ship pre-computed S2 leaves, so the
                // conversion below (the priciest fixed cost on the
                // probe path) only runs for coordinate frames; the
                // decoder already rejected exact-mode cell frames.
                let (cells, coords, exact): (Vec<CellId>, Vec<Coord>, bool) = match req {
                    proto::Request::Probe { coords, exact } => (
                        coords.iter().map(|&c| coord_to_cell(c)).collect(),
                        coords,
                        exact,
                    ),
                    proto::Request::ProbeCells { cells } => (cells, Vec::new(), false),
                    _ => unreachable!("matched a probe form above"),
                };
                let lanes = cells.len();
                // Per-client fairness: a frame that would push this
                // connection past its admitted-lanes quota is shed
                // *before* the shared queue is consulted — the greedy
                // pipeliner pays, not the queue everyone shares. The
                // check is reader-local (one reader per connection, so
                // load-then-charge cannot race itself; workers only
                // ever subtract, which frees quota early at worst).
                if let Some(quota) = state.quota_lanes {
                    if inflight_lanes.load(Ordering::Acquire) as usize + lanes > quota {
                        state.accepted.fetch_add(1, Ordering::Relaxed);
                        state.shed.fetch_add(1, Ordering::Relaxed);
                        state.quota_sheds.fetch_add(1, Ordering::Relaxed);
                        if let Some(obs) = &state.obs {
                            obs.trace.always("quota_shed", &[("lanes", lanes as u64)]);
                        }
                        let hint = proto::encode_retry_hint(state.retry_hint_ms());
                        let f = proto::encode_response(
                            proto::OP_PROBE,
                            proto::STATUS_LOADSHED,
                            state.store.epoch(),
                            0,
                            &hint,
                        );
                        if !push_pending(tx, Pending::Ready(f), dead) {
                            return;
                        }
                        continue;
                    }
                }
                let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(1);
                let admitted = state.obs.as_ref().map(|_| Instant::now());
                let job = Job {
                    cells,
                    coords,
                    exact,
                    reply: reply_tx,
                    admitted,
                    quota: Arc::clone(inflight_lanes),
                };
                match try_enqueue(state, job) {
                    Admission::Enqueued => {
                        inflight_lanes.fetch_add(lanes as u64, Ordering::AcqRel);
                        state.accepted.fetch_add(1, Ordering::Relaxed);
                        if let Some(obs) = &state.obs {
                            obs.trace.sampled(
                                "admission",
                                &[
                                    ("lanes", lanes as u64),
                                    ("exact", u64::from(exact)),
                                    ("epoch", u64::from(state.store.epoch())),
                                ],
                            );
                        }
                        if !push_pending(tx, Pending::Waiting(reply_rx, admitted), dead) {
                            return;
                        }
                    }
                    Admission::Shed => {
                        // Shed frames are answered, never dropped — and
                        // always with LOADSHED, nothing else. The payload
                        // carries the retry-after hint: how long until
                        // the queue that rejected this frame should have
                        // drained at the measured rate.
                        state.accepted.fetch_add(1, Ordering::Relaxed);
                        state.shed.fetch_add(1, Ordering::Relaxed);
                        if let Some(obs) = &state.obs {
                            obs.trace.always("shed", &[("lanes", lanes as u64)]);
                        }
                        let hint = proto::encode_retry_hint(state.retry_hint_ms());
                        let f = proto::encode_response(
                            proto::OP_PROBE,
                            proto::STATUS_LOADSHED,
                            state.store.epoch(),
                            0,
                            &hint,
                        );
                        if !push_pending(tx, Pending::Ready(f), dead) {
                            return;
                        }
                    }
                    // Not accepted: the drain owes this frame nothing.
                    Admission::Draining => return,
                }
            }
        }
    }
}

/// Pushes an owed reply onto the bounded channel. A full channel means
/// the connection is at its in-flight cap: the reader (our caller)
/// blocks here — which is exactly the read-side slowdown — until the
/// writer frees a slot or dies. Returns false when the writer is gone.
fn push_pending(tx: &mpsc::SyncSender<Pending>, entry: Pending, dead: &AtomicBool) -> bool {
    let mut entry = entry;
    loop {
        match tx.try_send(entry) {
            Ok(()) => return true,
            Err(mpsc::TrySendError::Full(e)) => {
                if dead.load(Ordering::Acquire) {
                    return false;
                }
                entry = e;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(mpsc::TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// The write half: deliver every owed reply, in order, event-driven.
/// After the reader disconnects the channel, whatever is buffered is
/// still delivered — that is the flush half of the graceful drain —
/// bounded by the drain grace once draining begins.
fn writer_loop(state: &State, mut w: TcpStream, rx: mpsc::Receiver<Pending>, dead: &AtomicBool) {
    let mut clock = DrainClock::default();
    let result: io::Result<()> = (|| {
        loop {
            let entry = loop {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(e) => break e,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if clock.expired(&state.front) {
                            return Err(io::ErrorKind::TimedOut.into());
                        }
                    }
                    // Reader gone and everything owed delivered: done.
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            };
            let (frame, admitted) = match entry {
                Pending::Ready(f) => (f, None),
                Pending::Waiting(reply_rx, admitted) => loop {
                    match reply_rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(reply) => {
                            break (
                                proto::encode_response(
                                    proto::OP_PROBE,
                                    reply.status,
                                    reply.epoch,
                                    reply.n,
                                    &reply.payload,
                                ),
                                admitted,
                            )
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if clock.expired(&state.front) {
                                return Err(io::ErrorKind::TimedOut.into());
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            return Err(io::ErrorKind::BrokenPipe.into())
                        }
                    }
                },
            };
            // Fault sites: a stall delays this reply (slow network), a
            // write fault kills the connection as a peer reset would —
            // the frames it owed are the client's to retry.
            #[cfg(feature = "fault-injection")]
            if let Some(faults) = &state.faults {
                if let Some(FaultAction::Stall(d)) = faults.check(Site::ConnStall) {
                    std::thread::sleep(d);
                }
                if faults.check(Site::ConnWrite).is_some() {
                    let _ = w.shutdown(std::net::Shutdown::Both);
                    return Err(faults.injected_error(Site::ConnWrite));
                }
            }
            // Probe replies with observability on pay one clock read
            // either side of the socket write; the admission stamp then
            // closes the frame-total span. `admitted` is `Some` only for
            // probe frames, and only when obs is configured.
            match (&state.obs, admitted) {
                (Some(obs), Some(t0)) => {
                    let w0 = Instant::now();
                    conn::write_all_retry(&mut w, &frame, &mut clock, &state.front)?;
                    obs.write.record(w0.elapsed().as_nanos() as u64);
                    obs.frame_total.record(t0.elapsed().as_nanos() as u64);
                }
                _ => conn::write_all_retry(&mut w, &frame, &mut clock, &state.front)?,
            }
        }
    })();
    let _ = result;
    // Tell the reader; a send failure path follows for anything still
    // buffered (workers' sends to dropped receivers are ignored).
    dead.store(true, Ordering::Release);
}

// ---------------------------------------------------------------------
// Probe workers
// ---------------------------------------------------------------------

fn worker_loop(state: &State) {
    loop {
        let batch = {
            let mut q = state.queue.lock().expect("probe queue");
            loop {
                if !q.jobs.is_empty() {
                    // Jobs outrank drain: an accepted frame is owed its
                    // real answer, so workers exit only on empty+drain.
                    break;
                }
                if state.front.draining() {
                    return;
                }
                q = state.ready.wait(q).expect("probe queue wait");
            }
            // Adaptive micro-batch: drain until the queue is empty or
            // the lane budget is met. A single over-budget job still
            // runs alone (lookup_batch blocks internally).
            let mut lanes = 0usize;
            let mut batch = Vec::new();
            while let Some(front) = q.jobs.front() {
                if !batch.is_empty() && lanes + front.cells.len() > state.batch_lanes {
                    break;
                }
                let job = q.jobs.pop_front().expect("front checked");
                lanes += job.cells.len();
                q.lanes -= job.cells.len();
                batch.push(job);
                if lanes >= state.batch_lanes {
                    break;
                }
            }
            batch
        };
        // Queue-wait closes at dequeue, recorded outside the lock (the
        // stamps are already taken; recording is two relaxed adds each).
        if let Some(obs) = &state.obs {
            let now = Instant::now();
            for job in &batch {
                if let Some(t0) = job.admitted {
                    obs.queue_wait
                        .record(now.saturating_duration_since(t0).as_nanos() as u64);
                }
            }
        }
        if let Some(delay) = state.batch_delay {
            std::thread::sleep(delay);
        }
        process_batch(state, batch);
    }
}

/// Answers one micro-batch against a single pinned `(snapshot, epoch)`.
///
/// The compute half runs under `catch_unwind`: a panic — a bug in the
/// probe path, or an injected [`Site::WorkerPanic`] — poisons **this
/// batch only**. Its frames are answered with typed `INTERNAL` replies
/// (clients see a retryable status, connections stay up), the
/// `panics_contained` counter bumps, and the worker thread survives to
/// take the next batch. `answered` counts either way, so the
/// `accepted = answered + shed` invariant holds through panics.
fn process_batch(state: &State, batch: Vec<Job>) {
    let computed = catch_unwind(AssertUnwindSafe(|| compute_replies(state, &batch)));
    let total: usize = batch.iter().map(|j| j.cells.len()).sum();
    let replies: Vec<Reply> = match computed {
        Ok(ok) => ok,
        Err(_) => {
            state.panics_contained.fetch_add(1, Ordering::Relaxed);
            let epoch = state.store.epoch();
            (0..batch.len())
                .map(|_| Reply {
                    status: proto::STATUS_INTERNAL,
                    epoch,
                    n: 0,
                    payload: Vec::new(),
                })
                .collect()
        }
    };
    debug_assert_eq!(replies.len(), batch.len());
    state
        .drained_lanes
        .fetch_add(total as u64, Ordering::Relaxed);
    for (job, reply) in batch.into_iter().zip(replies) {
        // Release the connection's quota lanes at reply production —
        // whether the reply is real or a contained-panic INTERNAL, the
        // work is out of the pipeline either way.
        job.quota
            .fetch_sub(job.cells.len() as u64, Ordering::AcqRel);
        // Counted at production: the reply exists whether or not the
        // connection survives to carry it.
        state.answered.fetch_add(1, Ordering::Relaxed);
        // A send failure means the connection died while we probed;
        // nothing to deliver to.
        let _ = job.reply.send(reply);
    }
}

/// The panic-isolated half of [`process_batch`]: one pinned
/// `(snapshot, epoch)` pair, one `lookup_batch` walk, one [`Reply`] per
/// job (in batch order). Touches only monotonic stats counters, so
/// unwinding out of here leaves no state poisoned.
fn compute_replies(state: &State, batch: &[Job]) -> Vec<Reply> {
    #[cfg(feature = "fault-injection")]
    if let Some(faults) = &state.faults {
        if faults.check(Site::WorkerPanic).is_some() {
            panic!("injected worker panic (contained; this batch answers INTERNAL)");
        }
    }
    let (snap, epoch) = state.store.current();
    let view = snap.view();
    let total: usize = batch.iter().map(|j| j.cells.len()).sum();
    // A single-job batch (the common shape when one frame fills the
    // lane budget by itself) borrows its cells straight from the job;
    // only genuinely widened batches pay the gather copy.
    let mut cells_buf = Vec::new();
    let cells: &[CellId] = if batch.len() == 1 {
        &batch[0].cells
    } else {
        cells_buf.reserve(total);
        for job in batch {
            cells_buf.extend_from_slice(&job.cells);
        }
        &cells_buf
    };
    // Only the cache-off arm resolves lanes out of `probes`; with the
    // cache on every lane lands in the span table instead, so the
    // allocation (and its memset) is skipped entirely.
    let mut probes: Vec<Probe> = Vec::new();
    // With the cache on, every lane lands in the span table — hits copy
    // their ref lists straight into the batch arena under the shard
    // read-lock, misses append theirs after the walk + fill. With it
    // off, both stay empty and lanes resolve lazily out of `probes` at
    // encode time. The arena holds **packed wire words** (the cache's
    // storage form), so an approximate hit reaches the reply payload by
    // copy alone; spans store `len + 1` so `(0, 0)` can mark a lane
    // whose miss has not been filled yet.
    let mut arena: Vec<u32> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    match &state.cache {
        Some(cache) => {
            // Read-through at the pinned epoch: consult the cache per
            // leaf, then walk **only the misses** — with termination
            // depths, so each fill keys on the resolved trie cell. An
            // entry filled under an older epoch never matches, so a
            // concurrent hot-swap can only cost misses, never staleness.
            arena.reserve(cells.len() * 2);
            spans.reserve(cells.len());
            let hits = cache.get_batch(cells, epoch, &mut arena, &mut spans);
            let miss_idx: Vec<usize> = (0..cells.len()).filter(|&i| spans[i].1 == 0).collect();
            cache.record(hits, miss_idx.len() as u64);
            let miss_cells: Vec<CellId> = miss_idx.iter().map(|&i| cells[i]).collect();
            let mut miss_probes = vec![Probe::Miss; miss_cells.len()];
            let mut depths = vec![0u8; miss_cells.len()];
            if !miss_cells.is_empty() {
                match &state.obs {
                    Some(obs) => {
                        let t0 = Instant::now();
                        view.probe_batch_depths(&miss_cells, &mut miss_probes, &mut depths);
                        obs.walk.record(t0.elapsed().as_nanos() as u64);
                        for &d in &depths {
                            obs.probe_depth.record(u64::from(d));
                        }
                    }
                    None => view.probe_batch_depths(&miss_cells, &mut miss_probes, &mut depths),
                }
            }
            for (k, &i) in miss_idx.iter().enumerate() {
                // Misses are cached even when empty — a hot cell with
                // no polygons is still hot. Packing to the wire form
                // happens once, here; hits never pay it again.
                let start = arena.len();
                arena.extend(
                    view.resolve_refs(miss_probes[k])
                        .map(|(id, hit)| proto::encode_ref(id, hit)),
                );
                cache.insert(cells[i], depths[k], epoch, &arena[start..]);
                spans[i] = (start, arena.len() - start + 1);
            }
            if let Some(obs) = &state.obs {
                obs.batch_lanes.record(total as u64);
                if total > 0 {
                    let hits = (cells.len() - miss_cells.len()) as u64;
                    obs.cache_hit_pct.record(hits * 100 / total as u64);
                }
            }
        }
        None => match &state.obs {
            Some(obs) => {
                // The depth-reporting walk mirrors `lookup_batch` level
                // by level (same memory-level parallelism); per-cell
                // depths feed the probe-depth histogram, the walk span
                // closes at batch granularity, and the batch width is
                // recorded here because this is the one place the
                // widened batch exists.
                probes.resize(cells.len(), Probe::Miss);
                let mut depths = vec![0u8; cells.len()];
                let t0 = Instant::now();
                view.probe_batch_depths(cells, &mut probes, &mut depths);
                obs.walk.record(t0.elapsed().as_nanos() as u64);
                obs.batch_lanes.record(total as u64);
                for &d in &depths {
                    obs.probe_depth.record(u64::from(d));
                }
            }
            None => {
                probes.resize(cells.len(), Probe::Miss);
                view.probe_batch(cells, &mut probes)
            }
        },
    }
    state.probes.fetch_add(total as u64, Ordering::Relaxed);
    state.batches.fetch_add(1, Ordering::Relaxed);

    let mut replies = Vec::with_capacity(batch.len());
    let mut refine_ns = 0u64;
    let mut at = 0usize;
    for job in batch {
        let n = job.cells.len();
        let reply = if job.exact && state.refiner.is_none() {
            Reply {
                status: proto::STATUS_UNSUPPORTED,
                epoch,
                n: 0,
                payload: Vec::new(),
            }
        } else {
            let refine_t0 = match &state.obs {
                Some(_) if job.exact => Some(Instant::now()),
                _ => None,
            };
            let mut payload = Vec::with_capacity(n * 8);
            for i in 0..n {
                let refine = if job.exact {
                    Some((
                        state.refiner.as_ref().expect("checked above"),
                        job.coords[i],
                    ))
                } else {
                    None
                };
                // A cached lane encodes straight from its arena span —
                // exact mode still refines against the cached
                // candidates, so the cache is refinement-agnostic.
                match spans.get(at + i) {
                    Some(&(start, len1)) if len1 > 0 => {
                        encode_point_words(&mut payload, &arena[start..start + len1 - 1], refine)
                    }
                    _ => encode_point_refs(&mut payload, view.resolve_refs(probes[at + i]), refine),
                }
            }
            if let Some(t0) = refine_t0 {
                refine_ns += t0.elapsed().as_nanos() as u64;
            }
            Reply {
                status: proto::STATUS_OK,
                epoch,
                n: n as u32,
                payload,
            }
        };
        at += n;
        replies.push(reply);
    }
    if refine_ns > 0 {
        if let Some(obs) = &state.obs {
            obs.refine.record(refine_ns);
        }
    }
    replies
}

/// Appends one point's reply section — the u32 count then one encoded
/// ref word per reported polygon — from whatever yields the resolved
/// `(id, interior)` pairs (a cached list or the live trie resolution).
/// With `refine` set (exact mode), true hits skip the point-in-polygon
/// test — the paper's true-hit filtering, carried onto the wire — and
/// candidates that fail it are dropped.
/// Encodes one point's answer from already-packed wire words (an arena
/// span). The approximate path is the reason the arena is packed: a
/// count word and a bulk byte copy, no per-ref work at all. Exact mode
/// must look inside each ref to refine it, so it unpacks and shares
/// [`encode_point_refs`].
fn encode_point_words(payload: &mut Vec<u8>, words: &[u32], refine: Option<(&Refiner, Coord)>) {
    if refine.is_some() {
        return encode_point_refs(payload, words.iter().map(|&w| proto::decode_ref(w)), refine);
    }
    payload.reserve(4 + words.len() * 4);
    payload.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for &w in words {
        payload.extend_from_slice(&w.to_le_bytes());
    }
}

fn encode_point_refs(
    payload: &mut Vec<u8>,
    refs: impl Iterator<Item = (u32, bool)>,
    refine: Option<(&Refiner, Coord)>,
) {
    let count_at = payload.len();
    payload.extend_from_slice(&0u32.to_le_bytes());
    let mut count = 0u32;
    match refine {
        Some((refiner, coord)) => {
            for (id, interior) in refs {
                if interior || refiner.contains(id, coord) {
                    payload.extend_from_slice(&proto::encode_ref(id, true).to_le_bytes());
                    count += 1;
                }
            }
        }
        None => {
            for (id, hit) in refs {
                payload.extend_from_slice(&proto::encode_ref(id, hit).to_le_bytes());
                count += 1;
            }
        }
    }
    payload[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a panic under the queue lock poisons the mutex, and
    /// the retry-hint path used to mask that as `lanes = 0` — an
    /// overloaded server advertising an empty queue. The hint must see
    /// the real occupancy through the poison.
    #[test]
    fn retry_hint_sees_real_queue_depth_through_lock_poison() {
        let queue = Arc::new(Mutex::new(Queue {
            jobs: VecDeque::new(),
            lanes: 777,
        }));
        let q = Arc::clone(&queue);
        let _ = std::thread::spawn(move || {
            let _guard = q.lock().expect("first lock of a fresh mutex");
            panic!("poison the queue lock (deliberate)");
        })
        .join();
        assert!(queue.lock().is_err(), "the lock must actually be poisoned");
        assert_eq!(
            queued_lanes(&queue),
            777,
            "poison must not masquerade as an empty queue"
        );
    }
}
