//! Scatter-gather routing over a sharded worker fleet.
//!
//! [`Router`] binds a TCP endpoint that speaks the exact same frame
//! protocol as a single worker ([`crate::protocol`]), so every existing
//! client — `Client`, `ResilientClient`, the load generator — points at
//! a router without changing a byte. Behind it sit N `act-serve`
//! workers, each mmapping one shard snapshot produced by
//! [`act_core::write_shard_files`] along the [`act_core::shard_of_cell`]
//! cut.
//!
//! ## One probe frame, end to end
//!
//! 1. **Partition**: each point's leaf cell names its owning shard via
//!    `shard_of_cell` — the single routing authority the sharder also
//!    used, so the owning shard holds every indexed cell whose territory
//!    covers the point (coarse cells were replicated at split time).
//! 2. **Scatter**: the per-shard sub-batches go out concurrently over
//!    this connection's pooled [`ResilientClient`]s (one per shard,
//!    retries/backoff/reconnect per the policy).
//! 3. **Gather**: sub-replies are stitched back in request order; each
//!    point's refs pass through [`crate::protocol::dedup_refs`] so
//!    replicated coarse cells can never double-report a polygon.
//!
//! ## Failure semantics
//!
//! Worker failures degrade along the protocol's own vocabulary, worst
//! status wins: `UNSUPPORTED` forwards as-is (the capability is missing
//! fleet-wide), any unexpected failure (connect refused after retries, a
//! protocol violation, `BAD_REQUEST`) answers `INTERNAL`, and a shard
//! mid-drain or overloaded (`BUSY`/`LOADSHED` surviving the client's own
//! retries) answers `LOADSHED` carrying the **largest** `retry_after_ms`
//! hint any shard suggested. A shard that failed enters a short cooldown
//! during which probes needing it shed immediately instead of burning
//! the retry budget again — that is what makes a rolling per-shard
//! restart cheap: the fleet keeps answering, only points owned by the
//! restarting shard shed, and the first successful contact clears the
//! cooldown. PING/STATS fan out to every shard, bypass the cooldown
//! (monitoring wants ground truth and doubles as recovery detection),
//! and merge counter blocks via [`CounterBlock::merge`] (STATS also
//! merges the stage histograms bucket-wise) with the fleet epoch
//! reported as the **minimum** shard epoch (the conservative answer to
//! "has everyone swapped yet?").
//!
//! Every fan-out — probe, PING/STATS, DUMP, and the `/metrics` scrape —
//! goes through one scatter primitive, and probe/PING/STATS share one
//! worst-status fold.
//!
//! ## Connections and drain
//!
//! Clients meet the router through the same connection front end as a
//! worker: the same accept gate (`BUSY` at
//! [`RouterConfig::max_connections`]), the same reader, the same close on
//! a malformed frame (`BAD_REQUEST` echoing the op, then FIN), and the
//! same connection loop. Each connection's reader routes one frame at a
//! time, synchronously, while its writer sends the replies already
//! routed, in request order; at 16 owed replies the reader stops reading
//! until the writer catches up. [`RouterHandle::shutdown`] stops
//! accepting and stops reading: a frame not fully read when the drain
//! starts is abandoned, never routed, and a frame that was read is always
//! answered. Reply writes obey the worker's drain deadline, so a client
//! that stops reading holds shutdown for at most 5 s.

use crate::client::{ClientError, ResilientClient, RetryPolicy};
use crate::conn::{self, Conn, Endpoint, Front};
use crate::obs::{render_counters, render_histograms, render_trace_meta, ObsConfig};
use crate::protocol::{self as proto, CounterBlock};
use act_core::{coord_to_cell, shard_of_cell, DEFAULT_SPLIT_LEVEL};
use act_obs::{PromText, TraceRing};
use geom::Coord;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Router`] listens, routes, and treats failing shards.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Split level of the shard cut. **Must equal the level the shards
    /// were written with** — it is the routing authority.
    pub split_level: u8,
    /// Retry policy for every per-shard client connection.
    pub policy: RetryPolicy,
    /// Inbound connection cap; excess connections are answered with one
    /// `BUSY` frame (op 0, the default retry hint) and closed by the
    /// same accept gate a worker uses.
    pub max_connections: usize,
    /// Router-side observability: a trace ring recording sampled frame
    /// admissions (with their shard fan-out width) and per-shard breaker
    /// open/close transitions (the router keeps no latency histograms of
    /// its own — stage timings live in the workers and are gathered
    /// through STATS). `None` records nothing.
    pub obs: Option<ObsConfig>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            split_level: DEFAULT_SPLIT_LEVEL,
            policy: RetryPolicy::default(),
            max_connections: 256,
            obs: None,
        }
    }
}

/// How long a shard that just failed is considered down. Probes needing
/// it during the window shed immediately with the remaining cooldown as
/// the retry hint, instead of re-burning the client's whole retry budget
/// per request.
const COOLDOWN: Duration = Duration::from_millis(250);

/// Per-shard circuit state, shared by every connection handler.
#[derive(Debug, Default)]
struct ShardHealth {
    /// While set and in the future, the shard is cooling down.
    down_until: Option<Instant>,
}

struct RouterState {
    split_level: u8,
    shard_addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    health: Vec<Mutex<ShardHealth>>,
    /// The drain flag, the connection cap and the connection threads.
    front: Front,
    /// Sampled-admission + breaker-transition trace ring; `None`
    /// records nothing.
    trace: Option<Arc<TraceRing>>,
}

impl RouterState {
    fn num_shards(&self) -> usize {
        self.shard_addrs.len()
    }

    /// One client per shard. Shard addresses were resolved once at
    /// router spawn, so building the pool is infallible.
    fn pool(&self) -> Vec<ResilientClient> {
        self.shard_addrs
            .iter()
            .map(|a| ResilientClient::from_resolved(*a, self.policy))
            .collect()
    }

    fn health(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardHealth> {
        // A panic while holding this trivial lock leaves a plain Option
        // behind — recover rather than cascade (see `IndexStore`).
        self.health[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Remaining cooldown of a down shard, as a retry hint in ms.
    fn down_hint(&self, shard: usize) -> Option<u32> {
        let mut h = self.health(shard);
        match h.down_until {
            Some(t) => {
                let left = t.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    h.down_until = None;
                    None
                } else {
                    Some(
                        (left.as_millis() as u64).clamp(1, u64::from(proto::RETRY_AFTER_MAX_MS))
                            as u32,
                    )
                }
            }
            None => None,
        }
    }

    fn mark_down(&self, shard: usize) {
        let was_open = {
            let mut h = self.health(shard);
            let was = h.down_until.is_some_and(|t| t > Instant::now());
            h.down_until = Some(Instant::now() + COOLDOWN);
            was
        };
        // Trace the *transition*, not every failure while already open.
        if !was_open {
            if let Some(t) = &self.trace {
                t.always(
                    "breaker_open",
                    &[
                        ("shard", shard as u64),
                        ("cooldown_ms", COOLDOWN.as_millis() as u64),
                    ],
                );
            }
        }
    }

    fn mark_up(&self, shard: usize) {
        let was_down = self.health(shard).down_until.take().is_some();
        if was_down {
            if let Some(t) = &self.trace {
                t.always("breaker_close", &[("shard", shard as u64)]);
            }
        }
    }

    /// True when the shard's breaker is currently open (cooling down).
    fn is_down(&self, shard: usize) -> bool {
        self.health(shard)
            .down_until
            .is_some_and(|t| t > Instant::now())
    }
}

/// One shard's contribution to a scattered request.
enum Outcome<T> {
    Ok(T),
    /// The shard is shedding/draining/down; carries a retry hint (ms).
    Shed(u32),
    /// The shard lacks a capability (exact mode without a refiner).
    Unsupported,
    /// The shard failed in a way retries could not mend.
    Internal,
}

impl<T> Outcome<T> {
    fn ok(self) -> Option<T> {
        match self {
            Outcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Folds a per-shard client failure into the routed vocabulary and
/// updates the shard's circuit state.
fn classify<T>(state: &RouterState, shard: usize, err: &ClientError) -> Outcome<T> {
    // Exhausted wraps the failure that ended the last attempt; the
    // routed meaning is that of the inner error.
    let last = match err {
        ClientError::Exhausted { last, .. } => last.as_ref(),
        other => other,
    };
    match last {
        ClientError::Server {
            status,
            retry_after_ms,
        } if *status == proto::STATUS_LOADSHED || *status == proto::STATUS_BUSY => {
            state.mark_down(shard);
            Outcome::Shed(retry_after_ms.unwrap_or(proto::RETRY_AFTER_DEFAULT_MS))
        }
        ClientError::Server { status, .. } if *status == proto::STATUS_UNSUPPORTED => {
            // Not a health event: the worker is alive and answering.
            Outcome::Unsupported
        }
        _ => {
            state.mark_down(shard);
            Outcome::Internal
        }
    }
}

/// The router's one scatter: `call` runs once per shard that `takes`
/// selects, and each result updates that shard's breaker (`mark_up` on
/// success, [`classify`] on failure). With `honor_cooldown`, a shard
/// whose breaker is open sheds at once with the remaining cooldown as
/// its hint instead of being called. Outcomes come back indexed by
/// shard, `None` where the shard was not selected.
fn scatter<T: Send>(
    state: &RouterState,
    clients: &mut [ResilientClient],
    takes: impl Fn(usize) -> bool,
    honor_cooldown: bool,
    call: impl Fn(usize, &mut ResilientClient) -> Result<T, ClientError> + Sync,
) -> Vec<Option<Outcome<T>>> {
    let one = |k: usize, client: &mut ResilientClient| {
        if let Some(hint) = honor_cooldown.then(|| state.down_hint(k)).flatten() {
            return Outcome::Shed(hint);
        }
        match call(k, client) {
            Ok(v) => {
                state.mark_up(k);
                Outcome::Ok(v)
            }
            Err(e) => classify(state, k, &e),
        }
    };
    let mut outcomes: Vec<Option<Outcome<T>>> = clients.iter().map(|_| None).collect();
    let chosen: Vec<usize> = (0..clients.len()).filter(|&k| takes(k)).collect();
    if let [k] = chosen[..] {
        // One participant (the common single-owner probe frame under
        // geographic locality): answer inline, no thread to pay for.
        outcomes[k] = Some(one(k, &mut clients[k]));
        return outcomes;
    }
    let one = &one;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .filter(|(k, _)| chosen.contains(k))
            .map(|(k, client)| (k, scope.spawn(move || one(k, client))))
            .collect();
        for (k, h) in handles {
            outcomes[k] = Some(h.join().unwrap_or(Outcome::Internal));
        }
    });
    outcomes
}

/// Worst status wins across a scatter's outcomes: `UNSUPPORTED` (the
/// capability is missing fleet-wide) over `INTERNAL` over `LOADSHED`
/// (carrying the **largest** hint any shard suggested). `Err` is that
/// reply frame for `op`; `Ok` holds each answering shard's value at its
/// index.
fn worst_status<T>(op: u8, outcomes: Vec<Option<Outcome<T>>>) -> Result<Vec<Option<T>>, Vec<u8>> {
    let (mut unsupported, mut internal, mut shed_hint) = (false, false, None::<u32>);
    let answers = outcomes
        .into_iter()
        .map(|o| match o? {
            Outcome::Ok(v) => Some(v),
            Outcome::Shed(h) => {
                shed_hint = Some(shed_hint.map_or(h, |x| x.max(h)));
                None
            }
            Outcome::Unsupported => {
                unsupported = true;
                None
            }
            Outcome::Internal => {
                internal = true;
                None
            }
        })
        .collect();
    if unsupported || internal {
        let status = if unsupported {
            proto::STATUS_UNSUPPORTED
        } else {
            proto::STATUS_INTERNAL
        };
        return Err(proto::encode_response(op, status, 0, 0, &[]));
    }
    match shed_hint {
        Some(hint) => {
            let hint = hint.clamp(proto::RETRY_AFTER_MIN_MS, proto::RETRY_AFTER_MAX_MS);
            let payload = proto::encode_retry_hint(hint);
            Err(proto::encode_response(
                op,
                proto::STATUS_LOADSHED,
                0,
                0,
                &payload,
            ))
        }
        None => Ok(answers),
    }
}

/// The fleet-wide view of the answering shards' STATS replies: counters
/// via [`CounterBlock::merge`] (sums, with both high-water marks taking
/// the fleet **max**), histograms via [`proto::merge_stage_histograms`]
/// (bucket-wise sums, which is exactly how log-bucketed histograms
/// compose), and the minimum epoch (0 when nobody answered).
fn merge_fleet(replies: &[Option<proto::StatsExReply>]) -> proto::StatsExReply {
    let mut fleet = proto::StatsExReply {
        epoch: replies.iter().flatten().map(|r| r.epoch).min().unwrap_or(0),
        counters: CounterBlock::default(),
        histograms: Vec::new(),
    };
    for r in replies.iter().flatten() {
        fleet.counters.merge(&r.counters);
        proto::merge_stage_histograms(&mut fleet.histograms, &r.histograms);
    }
    fleet
}

/// Spawns scatter-gather routers over a shard fleet.
pub struct Router;

impl Router {
    /// Binds `config.addr` and starts routing over `shard_addrs` (shard
    /// `k`'s worker at index `k` — the order must match the sharder's).
    ///
    /// # Errors
    /// Bind failures, or an empty shard list.
    pub fn spawn(shard_addrs: Vec<SocketAddr>, config: RouterConfig) -> io::Result<RouterHandle> {
        if shard_addrs.is_empty() {
            return Err(io::Error::other("a router needs at least one shard"));
        }
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let health = shard_addrs
            .iter()
            .map(|_| Mutex::new(ShardHealth::default()))
            .collect();
        let state = Arc::new(RouterState {
            split_level: config.split_level,
            shard_addrs,
            policy: config.policy,
            health,
            front: Front::new(config.max_connections),
            trace: config.obs.as_ref().map(|c| Arc::new(c.trace_ring())),
        });
        let accept = {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("act-route-accept".to_string())
                .spawn(move || conn::accept_loop(listener, st, "act-route-conn"))
                .expect("spawn router accept loop")
        };
        Ok(RouterHandle {
            addr,
            state,
            accept: Some(accept),
        })
    }
}

/// A running router. Dropping it (or calling [`RouterHandle::shutdown`])
/// stops accepting, lets in-flight requests finish, and joins every
/// thread.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    accept: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolve the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's own trace — sampled admissions and breaker
    /// transitions — as JSON lines (`None` when router observability is
    /// off). Non-destructive; `act-route` prints this on SIGINT.
    pub fn trace_json_lines(&self) -> Option<String> {
        self.state.trace.as_ref().map(|t| t.dump_json_lines())
    }

    /// A `/metrics` renderer for [`act_obs::MetricsServer`]. Each scrape
    /// performs one STATS scatter to the fleet (on fresh connections,
    /// updating the breakers like any routed STATS) and renders the
    /// **merged** counter/histogram families (no `shard` label, min
    /// epoch) followed by a per-shard breakdown (`shard="k"` labels),
    /// plus an `act_shard_down` breaker gauge per shard. A shard that
    /// cannot be reached during the scrape simply contributes nothing —
    /// the merged families cover whoever answered.
    pub fn metrics_fn(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let state = Arc::clone(&self.state);
        Arc::new(move || {
            let mut clients = state.pool();
            let replies: Vec<Option<proto::StatsExReply>> =
                scatter(&state, &mut clients, |_| true, false, |_, c| c.stats_ex())
                    .into_iter()
                    .map(|o| o.and_then(Outcome::ok))
                    .collect();
            let fleet = merge_fleet(&replies);
            let mut page = PromText::new();
            render_counters(&mut page, &[], fleet.epoch, &fleet.counters);
            render_histograms(&mut page, &[], &fleet.histograms);
            for (k, reply) in replies.iter().enumerate() {
                if let Some(r) = reply {
                    let label = k.to_string();
                    let labels = [("shard", label.as_str())];
                    render_counters(&mut page, &labels, r.epoch, &r.counters);
                    render_histograms(&mut page, &labels, &r.histograms);
                }
            }
            for k in 0..replies.len() {
                page.gauge(
                    "act_shard_down",
                    "1 while the shard's circuit breaker is open.",
                    &[("shard", k.to_string().as_str())],
                    if state.is_down(k) { 1.0 } else { 0.0 },
                );
            }
            if let Some(t) = &state.trace {
                render_trace_meta(&mut page, &[], t);
            }
            page.finish()
        })
    }

    /// Stops the router: no new connections, every frame already read
    /// answered (a client that stops reading gets 5 s), all threads
    /// joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if !self.state.front.start_drain() {
            return;
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.state.front.join_connections();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Connection work
// ---------------------------------------------------------------------

/// What the router does with the requests its connections read: each is
/// routed on the reader thread, over that connection's pool of shard
/// clients, while the writer sends the replies before it.
impl Endpoint for RouterState {
    type Local = Vec<ResilientClient>;

    fn front(&self) -> &Front {
        &self.front
    }

    fn open(&self) -> (Conn, Self::Local) {
        (Conn::new(conn::MAX_INFLIGHT_FRAMES, None), self.pool())
    }

    fn refuse(&self, stream: TcpStream) {
        conn::refuse_busy(stream, 0, proto::RETRY_AFTER_DEFAULT_MS);
    }

    fn answer(&self, clients: &mut Self::Local, req: proto::Request) -> Vec<u8> {
        match req {
            proto::Request::Probe { coords, exact } => {
                let send = |client: &mut ResilientClient, pts: &[Coord]| client.probe(pts, exact);
                route_probe(self, clients, &coords, exact, coord_to_cell, send)
            }
            // The cell form ([`proto::FLAG_CELLS`]) takes shard ownership
            // straight off the cell id and forwards cell frames, so no
            // conversion runs on the router or on the workers.
            proto::Request::ProbeCells { cells } => {
                let send = |client: &mut ResilientClient, pts: &[_]| client.probe_cells(pts);
                route_probe(self, clients, &cells, false, |c| c, send)
            }
            proto::Request::Ping => route_counters(self, clients, proto::OP_PING),
            proto::Request::Stats => route_counters(self, clients, proto::OP_STATS),
            proto::Request::Dump => route_dump(self, clients),
        }
    }

    fn reject(&self, op: u8) -> Vec<u8> {
        proto::encode_response(op, proto::STATUS_BAD_REQUEST, 0, 0, &[])
    }
}

/// Partition → scatter → gather for one probe frame (module docs tell
/// the full story), in either form: `to_cell` derives shard ownership,
/// `send` forwards one shard's sub-batch in the frame form that arrived.
fn route_probe<P, F>(
    state: &RouterState,
    clients: &mut [ResilientClient],
    points: &[P],
    exact: bool,
    to_cell: impl Fn(P) -> s2cell::CellId,
    send: F,
) -> Vec<u8>
where
    P: Copy + Sync,
    F: Fn(&mut ResilientClient, &[P]) -> Result<proto::ProbeReply, ClientError> + Sync,
{
    let n = state.num_shards();
    if points.is_empty() {
        return proto::encode_response(proto::OP_PROBE, proto::STATUS_OK, 0, 0, &[]);
    }
    let mut per_shard: Vec<Vec<P>> = (0..n).map(|_| Vec::new()).collect();
    let mut owner = Vec::with_capacity(points.len());
    for &p in points {
        let s = shard_of_cell(to_cell(p), state.split_level, n);
        owner.push(s);
        per_shard[s].push(p);
    }
    if let Some(t) = &state.trace {
        t.sampled(
            "admission",
            &[
                ("lanes", points.len() as u64),
                (
                    "shards",
                    per_shard.iter().filter(|p| !p.is_empty()).count() as u64,
                ),
                ("exact", u64::from(exact)),
            ],
        );
    }
    let outcomes = scatter(
        state,
        clients,
        |k| !per_shard[k].is_empty(),
        true,
        |k, client| send(client, &per_shard[k]),
    );
    let replies = match worst_status(proto::OP_PROBE, outcomes) {
        Ok(replies) => replies,
        Err(frame) => return frame,
    };

    // Gather: walk the request order, pulling each point's answer from
    // its owning shard's sub-reply (which preserved sub-batch order).
    // Every owner answered OK — any other status returned above.
    let epoch = replies.iter().flatten().map(|r| r.epoch).min().unwrap_or(0);
    let mut cursors = vec![0usize; n];
    let mut payload = Vec::new();
    for &s in &owner {
        let Some(reply) = &replies[s] else {
            unreachable!("owning shard answered OK — statuses handled above")
        };
        let mut refs = reply.refs[cursors[s]].clone();
        cursors[s] += 1;
        proto::dedup_refs(&mut refs);
        payload.extend_from_slice(&(refs.len() as u32).to_le_bytes());
        for (id, hit) in refs {
            payload.extend_from_slice(&proto::encode_ref(id, hit).to_le_bytes());
        }
    }
    proto::encode_response(
        proto::OP_PROBE,
        proto::STATUS_OK,
        epoch,
        points.len() as u32,
        &payload,
    )
}

/// PING/STATS fan out to every shard — bypassing cooldowns, so
/// monitoring sees ground truth and a recovered shard is noticed — and
/// merge into one fleet-wide reply ([`merge_fleet`]). Worst status
/// wins, as everywhere else on the router.
fn route_counters(state: &RouterState, clients: &mut [ResilientClient], op: u8) -> Vec<u8> {
    let outcomes = scatter(
        state,
        clients,
        |_| true,
        false,
        |_, client| {
            if op == proto::OP_PING {
                client.ping().map(|r| proto::StatsExReply {
                    epoch: r.epoch,
                    counters: r.counters,
                    histograms: Vec::new(),
                })
            } else {
                client.stats_ex()
            }
        },
    );
    let fleet = match worst_status(op, outcomes) {
        Ok(replies) => merge_fleet(&replies),
        Err(frame) => return frame,
    };
    let payload = if op == proto::OP_PING {
        proto::encode_counters(&fleet.counters).to_vec()
    } else {
        proto::encode_stats_ex_payload(&fleet.counters, &fleet.histograms)
    };
    proto::encode_response(op, proto::STATUS_OK, fleet.epoch, 0, &payload)
}

/// DUMP fan-out: the router's own trace (sampled admissions + breaker
/// transitions) first, then each answering shard's trace window, in
/// shard order (each line is a self-contained JSON event). A shard
/// without observability answers UNSUPPORTED and is skipped; the fleet
/// answer is UNSUPPORTED only when *nothing* — router ring included —
/// had a trace to give. Unreachable shards are skipped too: a dump is a
/// diagnostic window, and a partial window beats a fleet-wide error
/// while one shard restarts.
fn route_dump(state: &RouterState, clients: &mut [ResilientClient]) -> Vec<u8> {
    let parts: Vec<String> = scatter(state, clients, |_| true, false, |_, c| c.dump())
        .into_iter()
        .filter_map(|o| o.and_then(Outcome::ok))
        .collect();
    let own = state.trace.as_ref().map(|t| t.dump_json_lines());
    if own.is_none() && parts.is_empty() {
        return proto::encode_response(proto::OP_DUMP, proto::STATUS_UNSUPPORTED, 0, 0, &[]);
    }
    let mut lines = own.unwrap_or_default();
    for p in parts {
        lines.push_str(&p);
    }
    proto::encode_response(proto::OP_DUMP, proto::STATUS_OK, 0, 0, lines.as_bytes())
}
