//! The wire protocol: small, length-prefixed, little-endian binary frames.
//!
//! Everything on the wire is little-endian. A **frame** is a `u32` body
//! length followed by the body; request and response bodies carry a
//! fixed small header and an op-specific payload:
//!
//! ```text
//! request frame
//!   u32  body_len
//!   u8   op          1 = PROBE, 2 = PING, 3 = STATS, 4 = DUMP
//!   u8   flags       PROBE bit 0: EXACT (refine candidates via the
//!                    server's polygon set; requires a Refiner)
//!                    PROBE bit 1: CELLS (points are pre-computed S2
//!                    leaf cell ids; excludes EXACT)
//!   u16  reserved    must be 0
//!   u32  n           number of points (PROBE) or 0 (PING/STATS/DUMP)
//!   then n × { f64 lng, f64 lat }              (PROBE, coordinate form)
//!   or   n × { u64 cell_id }                   (PROBE, CELLS form)
//!
//! response frame
//!   u32  body_len
//!   u8   op          echoes the request op (0 for a BUSY accept reject)
//!   u8   status      0 = OK, 1 = BAD_REQUEST, 2 = UNSUPPORTED,
//!                    3 = INTERNAL, 4 = LOADSHED, 5 = BUSY
//!   u16  reserved    0
//!   u32  epoch       the snapshot epoch that answered (bumps on hot-swap)
//!   u32  n           number of per-point entries (PROBE) or 0 otherwise
//!   PROBE: n × { u32 count, count × u32 ref }
//!          ref = (polygon_id << 1) | hit_bit
//!            approx mode: hit_bit = is_true_hit (candidates ride along
//!            with bit 0 — the paper's ε-bounded approximate answer)
//!            exact mode:  only actual members are listed, hit_bit = 1
//!   PING:  the counter block (see [`CounterBlock`])
//!   STATS: the counter block followed by the stage histogram section
//!          (see [`encode_stats_ex_payload`]; empty section when the
//!          server runs without observability)
//!   DUMP:  UTF-8 JSON lines, one sampled trace event per line (n = 0)
//!   LOADSHED / BUSY: optionally a u32 retry_after_ms hint (n stays 0)
//! ```
//!
//! A probe frame carries at most [`MAX_POINTS`] points, which bounds
//! every allocation a frame can force on the server; oversized or
//! malformed frames get a `BAD_REQUEST` response and the connection is
//! closed. `u32 n` on the response always equals the request's `n`, so a
//! client can correlate by position; requests on one connection are
//! answered in order.
//!
//! ## Versioning
//!
//! [`PROTOCOL_VERSION`] is 5. Every peer — worker, router, client, load
//! generator, benchmark — is built from this workspace, so the protocol
//! keeps no compatibility paths for older versions: PING and STATS carry
//! exactly one [`COUNTER_BLOCK_LEN`]-byte block, and its fixed length is
//! the version check ([`decode_counters`] rejects any other length).
//! STATS always carries the stage histogram section and consumes the
//! windowed queue high-water mark; STATS and PING take no flags.
//!
//! ## Admission-control statuses
//!
//! * `LOADSHED` (probe only, `n = 0`): the server's bounded probe queue
//!   was full, so the frame was answered immediately instead of queuing.
//!   The connection **stays open** — the client may retry or back off;
//!   a shed frame is never silently dropped. The payload, when present,
//!   is a `u32 retry_after_ms` hint derived from the live queue depth
//!   and the measured drain rate ([`suggest_retry_after_ms`]).
//! * `BUSY` (op `0`, sent straight from the accept loop, then close):
//!   the server is at its connection cap and refused this connection
//!   before a reader thread was even spawned. Carries the same optional
//!   `retry_after_ms` payload.

use geom::Coord;
use s2cell::CellId;
use std::io::{self, Read, Write};

/// Wire protocol version implemented by this build (see the module docs'
/// "Versioning" section).
pub const PROTOCOL_VERSION: u32 = 5;

/// Probe a batch of coordinates.
pub const OP_PROBE: u8 = 1;
/// Liveness / epoch / counter check.
pub const OP_PING: u8 = 2;
/// Counter/metrics snapshot: PING's counter block plus the stage
/// histogram section.
pub const OP_STATS: u8 = 3;
/// Dump the server's sampled trace ring as UTF-8 JSON lines
/// (non-destructive). With observability disabled the server answers
/// `UNSUPPORTED`.
pub const OP_DUMP: u8 = 4;

/// PROBE request flag bit 0: refine candidate hits to exact membership.
pub const FLAG_EXACT: u8 = 1;
/// PROBE request flag bit 1: the payload is `n × u64` pre-computed S2
/// leaf cell ids instead of `n × 16`-byte coordinate pairs. Mutually
/// exclusive with [`FLAG_EXACT`] — refinement needs the coordinate,
/// which a cell id no longer carries. The client pays the
/// coordinate→cell conversion once at encode time and the server skips
/// it entirely. Arbitrary `u64` values are safe: a garbage id
/// prefix-matches nothing in the trie and resolves to an empty answer.
pub const FLAG_CELLS: u8 = 2;

/// Response status codes.
pub const STATUS_OK: u8 = 0;
/// The frame was structurally invalid (also closes the connection).
pub const STATUS_BAD_REQUEST: u8 = 1;
/// The request needs a capability the server lacks (exact mode without
/// a refiner).
pub const STATUS_UNSUPPORTED: u8 = 2;
/// The server failed internally while answering.
pub const STATUS_INTERNAL: u8 = 3;
/// The probe queue was full; the frame was answered immediately instead
/// of queuing (the connection stays open — retry or back off).
pub const STATUS_LOADSHED: u8 = 4;
/// The server is at its connection cap; sent once on accept, then the
/// connection is closed.
pub const STATUS_BUSY: u8 = 5;

/// Human-readable name of a status code (for logs and error displays).
pub fn status_name(status: u8) -> &'static str {
    match status {
        STATUS_OK => "OK",
        STATUS_BAD_REQUEST => "BAD_REQUEST",
        STATUS_UNSUPPORTED => "UNSUPPORTED",
        STATUS_INTERNAL => "INTERNAL",
        STATUS_LOADSHED => "LOADSHED",
        STATUS_BUSY => "BUSY",
        _ => "UNKNOWN",
    }
}

/// Hard cap on points per probe frame (bounds per-frame allocations).
pub const MAX_POINTS: usize = 65_536;
/// Request body header: op + flags + reserved + n.
pub const REQ_HEADER_LEN: usize = 8;
/// Response body header: op + status + reserved + epoch + n.
pub const RESP_HEADER_LEN: usize = 12;
/// Largest acceptable request body (a full probe frame).
pub const MAX_REQ_BODY: usize = REQ_HEADER_LEN + MAX_POINTS * 16;

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Probe `coords`; `exact` selects refine-to-membership mode.
    Probe {
        /// The query points (x = lng, y = lat degrees).
        coords: Vec<Coord>,
        /// Refine candidates via the server's polygon set.
        exact: bool,
    },
    /// Probe pre-computed S2 leaf cells ([`FLAG_CELLS`]).
    /// Always approximate — the exact flag is rejected on cell frames.
    ProbeCells {
        /// The query cells (leaf cell ids; garbage ids resolve empty).
        cells: Vec<CellId>,
    },
    /// Liveness check; the response carries epoch + the counter block.
    Ping,
    /// Counter/metrics snapshot: the counter block plus the stage
    /// histogram section.
    Stats,
    /// Dump the sampled trace ring as JSON lines.
    Dump,
}

/// One point's answer: `(polygon id, hit bit)` pairs (see the module
/// docs for the bit's meaning per mode).
pub type PointRefs = Vec<(u32, bool)>;

/// A decoded probe response.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReply {
    /// Snapshot epoch that answered (bumps on hot-swap).
    pub epoch: u32,
    /// Per-point reference lists, aligned with the request's coords.
    pub refs: Vec<PointRefs>,
}

/// A decoded ping response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingReply {
    /// Snapshot epoch currently serving.
    pub epoch: u32,
    /// The serving counter block.
    pub counters: CounterBlock,
}

/// A decoded stats response: the counter block plus the per-stage
/// histogram section. The section is empty when the answering server
/// runs without observability — the counters (including the windowed
/// high-water mark, which this read consumed) are still meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsExReply {
    /// Snapshot epoch currently serving.
    pub epoch: u32,
    /// The serving counter block.
    pub counters: CounterBlock,
    /// Per-stage histograms (merged across shards when a router
    /// answered).
    pub histograms: Vec<StageHistogram>,
}

/// The server's aggregate serving counters, as carried in PING and STATS
/// payloads: seventeen little-endian `u64` words, in field order.
///
/// Reconciliation invariant (after a graceful drain, with all replies
/// delivered): `accepted == answered + shed` — every accepted frame got
/// exactly one reply, and a shed frame is always answered `LOADSHED`,
/// never silently dropped. The invariant holds through worker panics:
/// a poisoned batch answers its frames `INTERNAL`, which still counts
/// toward `answered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterBlock {
    /// Probe points answered (sum of lanes over answered probe frames).
    pub probes: u64,
    /// Well-formed frames taken in (probe, ping, stats — shed included).
    pub accepted: u64,
    /// Frames answered with a real (non-LOADSHED) reply.
    pub answered: u64,
    /// Probe frames answered `LOADSHED` because the queue was full.
    pub shed: u64,
    /// Malformed frames answered `BAD_REQUEST` (connection then closed).
    pub bad_frames: u64,
    /// Connections refused with `BUSY` at the accept gate.
    pub busy: u64,
    /// Probe micro-batches executed (`probes / batches` = mean width).
    pub batches: u64,
    /// Successful index publishes (`epoch - 1`): full snapshot
    /// hot-swaps plus delta applies.
    pub swaps: u64,
    /// Highest queue occupancy observed, in lanes (points). Bounded by
    /// the server's configured queue depth.
    pub queue_high_water_lanes: u64,
    /// Delta files applied onto the live index (a subset of `swaps` —
    /// the updates that arrived without remapping the base snapshot).
    pub delta_applies: u64,
    /// Transient IO errors hit by the snapshot watcher while statting or
    /// reading (each one also widens the watcher's retry backoff; they
    /// are no longer silently treated as "no change").
    pub watch_errors: u64,
    /// Corrupt or wrong-chain delta files the watcher renamed to
    /// `*.quarantine` and skipped, keeping the current epoch serving.
    pub quarantines: u64,
    /// Worker-thread panics contained by `catch_unwind`: each one
    /// poisoned a single batch (its frames were answered `INTERNAL`)
    /// instead of the process.
    pub panics_contained: u64,
    /// Queue high-water mark (lanes) **since the previous STATS read** —
    /// unlike `queue_high_water_lanes`, which is since server start and
    /// goes stale after a one-off spike, this one resets on every STATS
    /// read, so a dashboard sees recent pressure, not history. PING
    /// reports it without resetting it.
    pub window_high_water_lanes: u64,
    /// Hot-cell cache hits: probed cells answered from the epoch-keyed
    /// result cache without a trie walk. Zero on servers running with
    /// the cache disabled.
    pub cache_hits: u64,
    /// Hot-cell cache misses: probed cells that walked the trie (and
    /// filled the cache, when enabled). With the cache disabled both
    /// cache counters stay zero — a miss is counted only when the cache
    /// was actually consulted.
    pub cache_misses: u64,
    /// Probe frames answered `LOADSHED` by the **per-client fairness
    /// quota** (the connection already had its full admitted-lanes
    /// budget in flight) rather than by queue depth. Always a subset of
    /// `shed` — the reconciliation invariant is unchanged.
    pub quota_sheds: u64,
}

impl CounterBlock {
    /// Folds another block into this one for a fleet-wide view (the
    /// router's merged PING/STATS reply). Every counter is a monotonic
    /// total and sums, except the two high-water marks
    /// (`queue_high_water_lanes`, `window_high_water_lanes`) — the
    /// merged value is the worst shard's.
    pub fn merge(&mut self, other: &CounterBlock) {
        self.probes += other.probes;
        self.accepted += other.accepted;
        self.answered += other.answered;
        self.shed += other.shed;
        self.bad_frames += other.bad_frames;
        self.busy += other.busy;
        self.batches += other.batches;
        self.swaps += other.swaps;
        self.queue_high_water_lanes = self
            .queue_high_water_lanes
            .max(other.queue_high_water_lanes);
        self.delta_applies += other.delta_applies;
        self.watch_errors += other.watch_errors;
        self.quarantines += other.quarantines;
        self.panics_contained += other.panics_contained;
        self.window_high_water_lanes = self
            .window_high_water_lanes
            .max(other.window_high_water_lanes);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.quota_sheds += other.quota_sheds;
    }
}

/// Canonicalizes one point's reference list after a scatter-gather
/// merge: sorted by polygon id, one entry per id, a true hit winning
/// over a candidate. Coarse indexed cells replicated across shards can
/// make two shards report the same polygon for one point; the answers
/// only ever differ in multiplicity, never in the hit bit, but the
/// true-hit-wins rule makes the merge safe even against a stale
/// replica mid-rolling-swap.
pub fn dedup_refs(refs: &mut PointRefs) {
    // Sort so `(id, true)` precedes `(id, false)`, then keep the first
    // entry of each id.
    refs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    refs.dedup_by_key(|r| r.0);
}

/// Serialized size of a [`CounterBlock`]: seventeen `u64` words.
pub const COUNTER_BLOCK_LEN: usize = 136;

/// Serializes a counter block (the PING payload, and the head of the
/// STATS payload).
pub fn encode_counters(c: &CounterBlock) -> [u8; COUNTER_BLOCK_LEN] {
    let words = [
        c.probes,
        c.accepted,
        c.answered,
        c.shed,
        c.bad_frames,
        c.busy,
        c.batches,
        c.swaps,
        c.queue_high_water_lanes,
        c.delta_applies,
        c.watch_errors,
        c.quarantines,
        c.panics_contained,
        c.window_high_water_lanes,
        c.cache_hits,
        c.cache_misses,
        c.quota_sheds,
    ];
    let mut out = [0u8; COUNTER_BLOCK_LEN];
    for (slot, w) in out.chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Decodes a counter block.
///
/// # Errors
/// Any length other than [`COUNTER_BLOCK_LEN`] — the fixed length is the
/// protocol's version check.
pub fn decode_counters(payload: &[u8]) -> Result<CounterBlock, &'static str> {
    if payload.len() != COUNTER_BLOCK_LEN {
        return Err("counter block is not seventeen u64 words");
    }
    let w = |k: usize| u64_at(payload, k * 8);
    Ok(CounterBlock {
        probes: w(0),
        accepted: w(1),
        answered: w(2),
        shed: w(3),
        bad_frames: w(4),
        busy: w(5),
        batches: w(6),
        swaps: w(7),
        queue_high_water_lanes: w(8),
        delta_applies: w(9),
        watch_errors: w(10),
        quarantines: w(11),
        panics_contained: w(12),
        window_high_water_lanes: w(13),
        cache_hits: w(14),
        cache_misses: w(15),
        quota_sheds: w(16),
    })
}

// ---------------------------------------------------------------------
// Stage histograms (STATS payload section)
// ---------------------------------------------------------------------

/// Pipeline stage ids for the wire histogram section. The first five
/// record **nanoseconds**; `BATCH_LANES` records lanes per executed
/// micro-batch and `PROBE_DEPTH` trie node accesses per probed cell.
pub const STAGE_QUEUE_WAIT: u8 = 0;
/// Batched trie walk (`probe_batch`), per micro-batch.
pub const STAGE_WALK: u8 = 1;
/// Exact-mode candidate refinement, per micro-batch that refined.
pub const STAGE_REFINE: u8 = 2;
/// Reply serialization + socket write, per probe reply.
pub const STAGE_WRITE: u8 = 3;
/// Admission to reply-flushed wall time, per probe frame.
pub const STAGE_FRAME_TOTAL: u8 = 4;
/// Lanes per executed micro-batch (a value histogram, not a latency).
pub const STAGE_BATCH_LANES: u8 = 5;
/// Trie node accesses per probed cell (0–7; see
/// `Act::lookup_batch_depths`).
pub const STAGE_PROBE_DEPTH: u8 = 6;
/// Hot-cell cache hit rate per micro-batch, in whole percent (0–100;
/// a value histogram). Recorded only on batches that consulted the
/// cache, so a cache-off server's histogram stays empty.
pub const STAGE_CACHE_HIT_PCT: u8 = 7;
/// Number of known stages (ids `0..STAGE_COUNT`).
pub const STAGE_COUNT: usize = 8;

/// Human-readable stage name (metric label / log display).
pub fn stage_name(stage: u8) -> &'static str {
    match stage {
        STAGE_QUEUE_WAIT => "queue_wait",
        STAGE_WALK => "walk",
        STAGE_REFINE => "refine",
        STAGE_WRITE => "write",
        STAGE_FRAME_TOTAL => "frame_total",
        STAGE_BATCH_LANES => "batch_lanes",
        STAGE_PROBE_DEPTH => "probe_depth",
        STAGE_CACHE_HIT_PCT => "cache_hit_pct",
        _ => "unknown",
    }
}

/// One stage's histogram as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageHistogram {
    /// `STAGE_*` id. Unknown ids decode fine (forward compatibility);
    /// displays label them `"unknown"`.
    pub stage: u8,
    /// The bucket snapshot (log-bucketed; see `act_obs::Histogram`).
    pub hist: act_obs::HistogramSnapshot,
}

/// Cap on histograms per section: headroom over [`STAGE_COUNT`] for
/// future stages while still bounding a hostile frame.
pub const MAX_WIRE_HISTS: usize = 64;

/// Serializes a STATS payload: the counter block, then
/// `u32 n_hists`, then per histogram `{ u8 stage, u8 pad[3], u64 sum,
/// u32 n_buckets, n_buckets × u64 }`. Bucket arrays are trailing-zero
/// trimmed by the snapshot, so an idle stage costs 17 bytes.
pub fn encode_stats_ex_payload(c: &CounterBlock, hists: &[StageHistogram]) -> Vec<u8> {
    assert!(hists.len() <= MAX_WIRE_HISTS, "too many wire histograms");
    let mut out = Vec::with_capacity(
        COUNTER_BLOCK_LEN
            + 4
            + hists
                .iter()
                .map(|h| 16 + h.hist.buckets.len() * 8)
                .sum::<usize>(),
    );
    out.extend_from_slice(&encode_counters(c));
    out.extend_from_slice(&(hists.len() as u32).to_le_bytes());
    for h in hists {
        debug_assert!(h.hist.buckets.len() <= act_obs::NUM_BUCKETS);
        out.push(h.stage);
        out.extend_from_slice(&[0, 0, 0]);
        out.extend_from_slice(&h.hist.sum.to_le_bytes());
        out.extend_from_slice(&(h.hist.buckets.len() as u32).to_le_bytes());
        for b in &h.hist.buckets {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    out
}

/// Decodes a STATS payload into the counter block and the stage
/// histograms.
///
/// # Errors
/// A static description of the structural violation — truncation at any
/// boundary, an oversized count, nonzero pad, or trailing bytes.
pub fn decode_stats_ex_payload(
    payload: &[u8],
) -> Result<(CounterBlock, Vec<StageHistogram>), &'static str> {
    if payload.len() < COUNTER_BLOCK_LEN + 4 {
        return Err("stats payload truncated before the histogram section");
    }
    let counters = decode_counters(&payload[..COUNTER_BLOCK_LEN])?;
    let n_hists = u32_at(payload, COUNTER_BLOCK_LEN) as usize;
    if n_hists > MAX_WIRE_HISTS {
        return Err("histogram section claims too many histograms");
    }
    let mut at = COUNTER_BLOCK_LEN + 4;
    let mut hists = Vec::with_capacity(n_hists);
    for _ in 0..n_hists {
        if at + 16 > payload.len() {
            return Err("histogram truncated at its header");
        }
        let stage = payload[at];
        if payload[at + 1] != 0 || payload[at + 2] != 0 || payload[at + 3] != 0 {
            return Err("nonzero histogram pad bytes");
        }
        let sum = u64_at(payload, at + 4);
        let n_buckets = u32_at(payload, at + 12) as usize;
        if n_buckets > act_obs::NUM_BUCKETS {
            return Err("histogram claims more buckets than the format has");
        }
        at += 16;
        if at + n_buckets * 8 > payload.len() {
            return Err("histogram truncated inside its buckets");
        }
        let buckets = (0..n_buckets)
            .map(|k| u64_at(payload, at + k * 8))
            .collect();
        at += n_buckets * 8;
        hists.push(StageHistogram {
            stage,
            hist: act_obs::HistogramSnapshot { sum, buckets },
        });
    }
    if at != payload.len() {
        return Err("trailing bytes after the histogram section");
    }
    Ok((counters, hists))
}

/// Folds `other`'s histograms into `into` by stage id (bucket-wise sum,
/// the histogram analogue of [`CounterBlock::merge`]); stages absent
/// from `into` are appended. Keeps `into` sorted by stage id so merged
/// router replies are deterministic.
pub fn merge_stage_histograms(into: &mut Vec<StageHistogram>, other: &[StageHistogram]) {
    for o in other {
        match into.iter_mut().find(|h| h.stage == o.stage) {
            Some(h) => h.hist.merge(&o.hist),
            None => into.push(o.clone()),
        }
    }
    into.sort_by_key(|h| h.stage);
}

// ---------------------------------------------------------------------
// Retry-after hints (LOADSHED / BUSY payloads)
// ---------------------------------------------------------------------

/// Serialized size of a retry-after hint: one `u32`, milliseconds.
pub const RETRY_HINT_LEN: usize = 4;

/// Floor of any emitted retry hint, milliseconds.
pub const RETRY_AFTER_MIN_MS: u32 = 1;
/// Ceiling of any emitted retry hint, milliseconds.
pub const RETRY_AFTER_MAX_MS: u32 = 5_000;
/// Hint used before the server has measured a drain rate (or for BUSY
/// rejects, where no queue estimate applies).
pub const RETRY_AFTER_DEFAULT_MS: u32 = 25;

/// Serializes a `retry_after_ms` hint (LOADSHED/BUSY response payload).
pub fn encode_retry_hint(ms: u32) -> [u8; RETRY_HINT_LEN] {
    ms.to_le_bytes()
}

/// Extracts the optional `retry_after_ms` hint from a LOADSHED or BUSY
/// reply payload. An empty payload is `None` (the hint is optional, and
/// the payload arrives from the network unvalidated).
///
/// # Errors
/// A static description of the structural violation.
pub fn decode_retry_after(payload: &[u8]) -> Result<Option<u32>, &'static str> {
    match payload.len() {
        0 => Ok(None),
        RETRY_HINT_LEN => Ok(Some(u32_at(payload, 0))),
        _ => Err("reject payload is not an optional u32 retry hint"),
    }
}

/// Derives a `retry_after_ms` hint from the live queue occupancy and the
/// measured drain rate: the estimated time for the queue to drain, so a
/// client that sleeps the hint lands when capacity is plausible again.
/// Clamped to `[RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS]`; with no
/// measured rate yet the hint falls back to [`RETRY_AFTER_DEFAULT_MS`].
pub fn suggest_retry_after_ms(queued_lanes: u64, drain_lanes_per_sec: f64) -> u32 {
    if drain_lanes_per_sec <= 0.0 || !drain_lanes_per_sec.is_finite() {
        return RETRY_AFTER_DEFAULT_MS;
    }
    let ms = ((queued_lanes as f64 / drain_lanes_per_sec) * 1_000.0).ceil();
    // `as` saturates on overflow/non-finite, and the clamp bounds it.
    (ms as u64).clamp(RETRY_AFTER_MIN_MS as u64, RETRY_AFTER_MAX_MS as u64) as u32
}

/// Packs a polygon reference for the wire.
#[inline]
pub fn encode_ref(id: u32, hit: bool) -> u32 {
    (id << 1) | hit as u32
}

/// Unpacks a wire polygon reference.
#[inline]
pub fn decode_ref(word: u32) -> (u32, bool) {
    (word >> 1, word & 1 == 1)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Renders a complete probe request frame.
pub fn encode_probe_request(coords: &[Coord], exact: bool) -> Vec<u8> {
    assert!(coords.len() <= MAX_POINTS, "probe frame over MAX_POINTS");
    let body_len = REQ_HEADER_LEN + coords.len() * 16;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(OP_PROBE);
    out.push(if exact { FLAG_EXACT } else { 0 });
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    for c in coords {
        out.extend_from_slice(&c.x.to_le_bytes());
        out.extend_from_slice(&c.y.to_le_bytes());
    }
    out
}

/// Renders a probe request frame in cell form ([`FLAG_CELLS`]): the
/// points are pre-computed S2 leaf cell ids, 8 bytes each instead of 16,
/// and the server skips the coordinate→cell conversion. Approximate
/// mode only (see [`FLAG_CELLS`] for why exact is excluded).
pub fn encode_probe_cells_request(cells: &[CellId]) -> Vec<u8> {
    assert!(cells.len() <= MAX_POINTS, "probe frame over MAX_POINTS");
    let body_len = REQ_HEADER_LEN + cells.len() * 8;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(OP_PROBE);
    out.push(FLAG_CELLS);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    for c in cells {
        out.extend_from_slice(&c.0.to_le_bytes());
    }
    out
}

/// Renders a complete ping request frame.
pub fn encode_ping_request() -> Vec<u8> {
    encode_headless_request(OP_PING)
}

/// Renders a complete stats request frame (the reply carries the counter
/// block + stage histogram section).
pub fn encode_stats_ex_request() -> Vec<u8> {
    encode_headless_request(OP_STATS)
}

/// Renders a complete trace-dump request frame.
pub fn encode_dump_request() -> Vec<u8> {
    encode_headless_request(OP_DUMP)
}

/// A request frame that is all header: op, no flags, zero points.
fn encode_headless_request(op: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + REQ_HEADER_LEN);
    out.extend_from_slice(&(REQ_HEADER_LEN as u32).to_le_bytes());
    out.push(op);
    out.push(0);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

/// Renders a complete response frame around an already-encoded payload.
pub fn encode_response(op: u8, status: u8, epoch: u32, n: u32, payload: &[u8]) -> Vec<u8> {
    let body_len = RESP_HEADER_LEN + payload.len();
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(op);
    out.push(status);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

#[inline]
fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Decodes a request body (the bytes after the `u32` length prefix).
///
/// # Errors
/// A static description of the structural violation; the server answers
/// `BAD_REQUEST` and closes the connection.
pub fn decode_request(body: &[u8]) -> Result<Request, &'static str> {
    if body.len() < REQ_HEADER_LEN {
        return Err("request body shorter than its header");
    }
    let (op, flags) = (body[0], body[1]);
    if body[2] != 0 || body[3] != 0 {
        return Err("nonzero reserved bytes");
    }
    let n = u32_at(body, 4) as usize;
    match op {
        OP_PROBE => {
            if flags & !(FLAG_EXACT | FLAG_CELLS) != 0 {
                return Err("unknown request flags");
            }
            if n > MAX_POINTS {
                return Err("probe frame exceeds MAX_POINTS");
            }
            if flags & FLAG_CELLS != 0 {
                if flags & FLAG_EXACT != 0 {
                    return Err("cell frames cannot request exact mode");
                }
                if body.len() != REQ_HEADER_LEN + n * 8 {
                    return Err("probe body length disagrees with cell count");
                }
                // Any u64 is acceptable here: a garbage id prefix-matches
                // nothing in the trie and resolves to an empty answer.
                let cells = (0..n)
                    .map(|i| CellId(u64_at(body, REQ_HEADER_LEN + i * 8)))
                    .collect();
                return Ok(Request::ProbeCells { cells });
            }
            if body.len() != REQ_HEADER_LEN + n * 16 {
                return Err("probe body length disagrees with point count");
            }
            let mut coords = Vec::with_capacity(n);
            for i in 0..n {
                let at = REQ_HEADER_LEN + i * 16;
                let (x, y) = (f64_at(body, at), f64_at(body, at + 8));
                if !x.is_finite() || !y.is_finite() {
                    return Err("non-finite coordinate");
                }
                coords.push(Coord::new(x, y));
            }
            Ok(Request::Probe {
                coords,
                exact: flags & FLAG_EXACT != 0,
            })
        }
        OP_PING | OP_STATS | OP_DUMP => {
            if flags != 0 {
                return Err("ping/stats/dump take no flags");
            }
            if n != 0 || body.len() != REQ_HEADER_LEN {
                return Err("ping/stats/dump carry no payload");
            }
            Ok(match op {
                OP_PING => Request::Ping,
                OP_STATS => Request::Stats,
                _ => Request::Dump,
            })
        }
        _ => Err("unknown op"),
    }
}

/// Response header fields, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespHeader {
    /// Echoed request op.
    pub op: u8,
    /// Status code (`STATUS_*`).
    pub status: u8,
    /// Answering snapshot epoch.
    pub epoch: u32,
    /// Per-point entry count.
    pub n: u32,
}

/// Decodes a response body into its header and payload slice.
///
/// # Errors
/// A static description of the structural violation.
pub fn decode_response(body: &[u8]) -> Result<(RespHeader, &[u8]), &'static str> {
    if body.len() < RESP_HEADER_LEN {
        return Err("response body shorter than its header");
    }
    if body[2] != 0 || body[3] != 0 {
        return Err("nonzero reserved bytes");
    }
    Ok((
        RespHeader {
            op: body[0],
            status: body[1],
            epoch: u32_at(body, 4),
            n: u32_at(body, 8),
        },
        &body[RESP_HEADER_LEN..],
    ))
}

/// Decodes a probe response payload into per-point reference lists.
///
/// # Errors
/// A static description of the structural violation.
pub fn decode_probe_payload(n: u32, payload: &[u8]) -> Result<Vec<PointRefs>, &'static str> {
    let mut refs = Vec::with_capacity(n as usize);
    let mut at = 0usize;
    for _ in 0..n {
        if at + 4 > payload.len() {
            return Err("probe payload truncated at a count");
        }
        let count = u32_at(payload, at) as usize;
        at += 4;
        if at + count * 4 > payload.len() {
            return Err("probe payload truncated inside a ref list");
        }
        let mut one = Vec::with_capacity(count);
        for k in 0..count {
            one.push(decode_ref(u32_at(payload, at + k * 4)));
        }
        at += count * 4;
        refs.push(one);
    }
    if at != payload.len() {
        return Err("trailing bytes after the last ref list");
    }
    Ok(refs)
}

// ---------------------------------------------------------------------
// Blocking frame I/O (client side and tests; the server and the router
// read requests through their shared drain-aware reader)
// ---------------------------------------------------------------------

/// Reads one length-prefixed frame body. `Ok(None)` is a clean EOF at a
/// frame boundary.
///
/// # Errors
/// I/O errors, truncation mid-frame, and frames above `max_body`.
pub fn read_frame(r: &mut impl Read, max_body: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match read_full(r, &mut len)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(io::ErrorKind::UnexpectedEof.into()),
    }
    let body_len = u32::from_le_bytes(len) as usize;
    if body_len > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds the protocol's size cap",
        ));
    }
    let mut body = vec![0u8; body_len];
    if read_full(r, &mut body)? != body_len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(body))
}

/// Writes a fully rendered frame.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

/// Reads until `buf` is full or EOF; returns bytes read. Retries on
/// `Interrupted`.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => break,
            Ok(k) => at += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_request_roundtrip() {
        let coords = vec![Coord::new(-74.0, 40.7), Coord::new(1.5, -2.25)];
        let frame = encode_probe_request(&coords, true);
        let body = read_frame(&mut frame.as_slice(), MAX_REQ_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(
            decode_request(&body).unwrap(),
            Request::Probe {
                coords,
                exact: true
            }
        );
    }

    #[test]
    fn ping_request_roundtrip() {
        let frame = encode_ping_request();
        let body = read_frame(&mut frame.as_slice(), MAX_REQ_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(decode_request(&body).unwrap(), Request::Ping);
    }

    #[test]
    fn probe_cells_request_roundtrip() {
        let cells = vec![CellId(0x9f43_2100_0000_0001), CellId(u64::MAX), CellId(0)];
        let frame = encode_probe_cells_request(&cells);
        let body = read_frame(&mut frame.as_slice(), MAX_REQ_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(
            decode_request(&body).unwrap(),
            Request::ProbeCells { cells }
        );
    }

    #[test]
    fn probe_cells_decode_matrix() {
        let frame = encode_probe_cells_request(&[CellId(7)]);
        // Cell frames are approximate-only: EXACT alongside CELLS is
        // structurally invalid, not silently ignored.
        let mut f = frame.clone();
        f[5] = FLAG_CELLS | FLAG_EXACT;
        assert_eq!(
            decode_request(&f[4..]),
            Err("cell frames cannot request exact mode")
        );
        // A cell body is 8 bytes per point, and the count must agree.
        let mut f = frame.clone();
        f[8] = 2;
        assert_eq!(
            decode_request(&f[4..]),
            Err("probe body length disagrees with cell count")
        );
        // Reserved bytes still enforced on the cell form.
        let mut f = frame.clone();
        f[7] = 1;
        assert!(decode_request(&f[4..]).is_err());
        // An empty cell frame is legal, like an empty coordinate frame.
        let empty = encode_probe_cells_request(&[]);
        assert_eq!(
            decode_request(&empty[4..]).unwrap(),
            Request::ProbeCells { cells: vec![] }
        );
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut [].as_slice(), MAX_REQ_BODY)
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        // Truncated header.
        assert!(decode_request(&[1, 0, 0]).is_err());
        // Unknown op.
        let mut frame = encode_ping_request();
        frame[4] = 99;
        assert!(decode_request(&frame[4..]).is_err());
        // Reserved bytes set.
        let mut frame = encode_probe_request(&[Coord::new(0.0, 0.0)], false);
        frame[6] = 1;
        assert!(decode_request(&frame[4..]).is_err());
        // Point count disagreeing with the body length.
        let mut frame = encode_probe_request(&[Coord::new(0.0, 0.0)], false);
        frame[8] = 2;
        assert!(decode_request(&frame[4..]).is_err());
        // Non-finite coordinate.
        let frame = encode_probe_request(&[Coord::new(f64::NAN, 0.0)], false);
        assert!(decode_request(&frame[4..]).is_err());
        // Unknown flags.
        let mut frame = encode_probe_request(&[Coord::new(0.0, 0.0)], false);
        frame[5] = 0x80;
        assert!(decode_request(&frame[4..]).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut frame.as_slice(), MAX_REQ_BODY).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn response_roundtrip_with_refs() {
        // Two points: [] and [(5, true), (9, false)].
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&encode_ref(5, true).to_le_bytes());
        payload.extend_from_slice(&encode_ref(9, false).to_le_bytes());
        let frame = encode_response(OP_PROBE, STATUS_OK, 7, 2, &payload);
        let body = read_frame(&mut frame.as_slice(), usize::MAX)
            .unwrap()
            .unwrap();
        let (h, p) = decode_response(&body).unwrap();
        assert_eq!(
            h,
            RespHeader {
                op: OP_PROBE,
                status: STATUS_OK,
                epoch: 7,
                n: 2
            }
        );
        let refs = decode_probe_payload(h.n, p).unwrap();
        assert_eq!(refs, vec![vec![], vec![(5, true), (9, false)]]);
    }

    #[test]
    fn truncated_probe_payload_is_an_error() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes()); // claims 3 refs
        payload.extend_from_slice(&encode_ref(1, true).to_le_bytes());
        assert!(decode_probe_payload(1, &payload).is_err());
        assert!(decode_probe_payload(2, &[0, 0, 0, 0]).is_err());
        // Trailing garbage.
        let mut ok = Vec::new();
        ok.extend_from_slice(&0u32.to_le_bytes());
        ok.push(0xFF);
        assert!(decode_probe_payload(1, &ok).is_err());
    }

    #[test]
    fn ref_encoding_roundtrip() {
        for (id, hit) in [
            (0u32, false),
            (0, true),
            (12345, true),
            ((1 << 30) - 1, false),
        ] {
            assert_eq!(decode_ref(encode_ref(id, hit)), (id, hit));
        }
    }

    #[test]
    fn counter_payload_roundtrip() {
        let counters = CounterBlock {
            probes: 42,
            accepted: 7,
            answered: 5,
            shed: 2,
            bad_frames: 1,
            busy: 3,
            batches: 4,
            swaps: 1,
            queue_high_water_lanes: 512,
            delta_applies: 1,
            watch_errors: 2,
            quarantines: 1,
            panics_contained: 1,
            window_high_water_lanes: 0,
            cache_hits: 0,
            cache_misses: 0,
            quota_sheds: 0,
        };
        let frame = encode_response(OP_PING, STATUS_OK, 3, 0, &encode_counters(&counters));
        let body = read_frame(&mut frame.as_slice(), usize::MAX)
            .unwrap()
            .unwrap();
        let (h, p) = decode_response(&body).unwrap();
        assert_eq!(h.epoch, 3);
        assert_eq!(decode_counters(p).unwrap(), counters);
        assert_eq!(counters.accepted, counters.answered + counters.shed);
        assert!(decode_counters(&[0; 103]).is_err());
        assert!(decode_counters(&[0; 105]).is_err());
        // The old nine-word block is rejected, not misread.
        assert!(decode_counters(&[0; 72]).is_err());
        // Near-miss sizes are rejected too.
        assert!(decode_counters(&[0; 135]).is_err());
        assert!(decode_counters(&[0; 137]).is_err());
    }

    #[test]
    fn full_counter_block_roundtrips() {
        // Every word distinct, so a field landing in the wrong slot shows.
        let counters = CounterBlock {
            probes: 11,
            accepted: 5,
            answered: 4,
            shed: 1,
            bad_frames: 2,
            busy: 3,
            batches: 6,
            swaps: 7,
            queue_high_water_lanes: 512,
            delta_applies: 8,
            watch_errors: 9,
            quarantines: 10,
            panics_contained: 12,
            window_high_water_lanes: 77,
            cache_hits: 1_000,
            cache_misses: 13,
            quota_sheds: 14,
        };
        let bytes = encode_counters(&counters);
        assert_eq!(bytes.len(), COUNTER_BLOCK_LEN);
        assert_eq!(decode_counters(&bytes).unwrap(), counters);
    }

    #[test]
    fn every_other_counter_block_length_is_rejected() {
        let bytes = [7u8; 2 * COUNTER_BLOCK_LEN + 1];
        for len in 0..=2 * COUNTER_BLOCK_LEN {
            if len != COUNTER_BLOCK_LEN {
                assert!(decode_counters(&bytes[..len]).is_err(), "length {len}");
            }
        }
        // The retired ten-, thirteen- and fourteen-word blocks included.
        for len in [80, 104, 112] {
            assert!(decode_counters(&bytes[..len]).is_err(), "length {len}");
        }
    }

    #[test]
    fn retry_hint_roundtrip_and_bounds() {
        for ms in [0u32, 1, 25, 4_999, u32::MAX] {
            let payload = encode_retry_hint(ms);
            assert_eq!(decode_retry_after(&payload).unwrap(), Some(ms));
        }
        // A reject may carry no payload: that is "no hint".
        assert_eq!(decode_retry_after(&[]).unwrap(), None);
        assert!(decode_retry_after(&[1, 2, 3]).is_err());
        assert!(decode_retry_after(&[0; 5]).is_err());

        // Derivation: no measured rate → default; otherwise queue/rate,
        // clamped.
        assert_eq!(suggest_retry_after_ms(100, 0.0), RETRY_AFTER_DEFAULT_MS);
        assert_eq!(suggest_retry_after_ms(100, -1.0), RETRY_AFTER_DEFAULT_MS);
        assert_eq!(
            suggest_retry_after_ms(100, f64::NAN),
            RETRY_AFTER_DEFAULT_MS
        );
        assert_eq!(suggest_retry_after_ms(500, 1_000.0), 500);
        assert_eq!(suggest_retry_after_ms(0, 1_000.0), RETRY_AFTER_MIN_MS);
        assert_eq!(suggest_retry_after_ms(u64::MAX, 0.001), RETRY_AFTER_MAX_MS);
    }

    #[test]
    fn counter_merge_sums_totals_and_maxes_high_water() {
        let mut a = CounterBlock {
            probes: 10,
            accepted: 5,
            answered: 4,
            shed: 1,
            queue_high_water_lanes: 700,
            swaps: 2,
            cache_hits: 90,
            cache_misses: 10,
            quota_sheds: 1,
            ..Default::default()
        };
        let b = CounterBlock {
            probes: 3,
            accepted: 2,
            answered: 2,
            busy: 1,
            queue_high_water_lanes: 512,
            window_high_water_lanes: 64,
            panics_contained: 1,
            cache_hits: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.probes, 13);
        assert_eq!(a.accepted, 7);
        assert_eq!(a.answered, 6);
        assert_eq!(a.shed, 1);
        assert_eq!(a.busy, 1);
        assert_eq!(a.swaps, 2);
        assert_eq!(a.queue_high_water_lanes, 700);
        assert_eq!(a.window_high_water_lanes, 64);
        assert_eq!(a.panics_contained, 1);
        assert_eq!(
            (a.cache_hits, a.cache_misses, a.quota_sheds),
            (100, 10, 1),
            "cache and quota counters are monotonic sums"
        );
        // The reconciliation invariant survives a merge.
        assert_eq!(a.accepted, a.answered + a.shed);
    }

    #[test]
    fn dedup_refs_sorts_and_true_hit_wins() {
        let mut refs = vec![(9, false), (3, true), (9, true), (3, true), (1, false)];
        dedup_refs(&mut refs);
        assert_eq!(refs, vec![(1, false), (3, true), (9, true)]);
        let mut refs = vec![(7, false), (7, false)];
        dedup_refs(&mut refs);
        assert_eq!(refs, vec![(7, false)]);
        let mut empty: PointRefs = vec![];
        dedup_refs(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn stats_request_roundtrip() {
        let frame = encode_stats_ex_request();
        let body = read_frame(&mut frame.as_slice(), MAX_REQ_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(decode_request(&body).unwrap(), Request::Stats);
        // STATS and PING take no flags: any flag bit is an error —
        // including bit 0, the retired histogram flag.
        for flag in [1u8, 2, 0x80] {
            let mut bad = encode_stats_ex_request();
            bad[5] = flag;
            assert!(decode_request(&bad[4..]).is_err(), "stats flag {flag}");
            let mut bad = encode_ping_request();
            bad[5] = flag;
            assert!(decode_request(&bad[4..]).is_err(), "ping flag {flag}");
        }
    }

    #[test]
    fn dump_request_roundtrip() {
        let frame = encode_dump_request();
        let body = read_frame(&mut frame.as_slice(), MAX_REQ_BODY)
            .unwrap()
            .unwrap();
        assert_eq!(decode_request(&body).unwrap(), Request::Dump);
        let mut bad = encode_dump_request();
        bad[5] = 1;
        assert!(decode_request(&bad[4..]).is_err());
    }

    fn hist_of(values: &[u64]) -> act_obs::HistogramSnapshot {
        let h = act_obs::Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn stats_ex_payload_roundtrip() {
        let counters = CounterBlock {
            probes: 42,
            accepted: 7,
            answered: 7,
            queue_high_water_lanes: 900,
            window_high_water_lanes: 120,
            ..Default::default()
        };
        let hists = vec![
            StageHistogram {
                stage: STAGE_QUEUE_WAIT,
                hist: hist_of(&[150, 9_000, 2_000_000]),
            },
            StageHistogram {
                stage: STAGE_PROBE_DEPTH,
                hist: hist_of(&[0, 3, 7, 7]),
            },
            // An idle stage travels too (empty buckets).
            StageHistogram {
                stage: STAGE_REFINE,
                hist: hist_of(&[]),
            },
        ];
        let payload = encode_stats_ex_payload(&counters, &hists);
        let (c, h) = decode_stats_ex_payload(&payload).unwrap();
        assert_eq!(c, counters);
        assert_eq!(h, hists);
        assert_eq!(h[0].hist.count(), 3);
        // The payload leads with exactly the PING counter block.
        assert_eq!(&payload[..COUNTER_BLOCK_LEN], &encode_counters(&counters));
    }

    #[test]
    fn stats_ex_payload_malformations_are_typed_errors() {
        let counters = CounterBlock::default();
        let hists = vec![StageHistogram {
            stage: STAGE_WALK,
            hist: hist_of(&[5, 77, 1_000_000_000]),
        }];
        let good = encode_stats_ex_payload(&counters, &hists);

        // Truncation at every boundary is rejected, never misread.
        for cut in [
            0,
            COUNTER_BLOCK_LEN - 8,
            COUNTER_BLOCK_LEN,
            COUNTER_BLOCK_LEN + 2,
        ] {
            assert!(decode_stats_ex_payload(&good[..cut]).is_err(), "cut {cut}");
        }
        for cut in COUNTER_BLOCK_LEN + 4..good.len() {
            assert!(decode_stats_ex_payload(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_stats_ex_payload(&long).is_err());
        // Oversized histogram count.
        let mut bad = good.clone();
        bad[COUNTER_BLOCK_LEN..COUNTER_BLOCK_LEN + 4]
            .copy_from_slice(&(MAX_WIRE_HISTS as u32 + 1).to_le_bytes());
        assert!(decode_stats_ex_payload(&bad).is_err());
        // Oversized bucket count.
        let mut bad = good.clone();
        let n_at = COUNTER_BLOCK_LEN + 4 + 12;
        bad[n_at..n_at + 4].copy_from_slice(&(act_obs::NUM_BUCKETS as u32 + 1).to_le_bytes());
        assert!(decode_stats_ex_payload(&bad).is_err());
        // Nonzero pad.
        let mut bad = good;
        bad[COUNTER_BLOCK_LEN + 4 + 1] = 1;
        assert!(decode_stats_ex_payload(&bad).is_err());
    }

    #[test]
    fn stage_histogram_merge_is_union() {
        let mut a = vec![
            StageHistogram {
                stage: STAGE_WALK,
                hist: hist_of(&[100, 200]),
            },
            StageHistogram {
                stage: STAGE_WRITE,
                hist: hist_of(&[50]),
            },
        ];
        let b = vec![
            StageHistogram {
                stage: STAGE_QUEUE_WAIT,
                hist: hist_of(&[9]),
            },
            StageHistogram {
                stage: STAGE_WALK,
                hist: hist_of(&[300, 400, 500]),
            },
        ];
        merge_stage_histograms(&mut a, &b);
        let stages: Vec<u8> = a.iter().map(|h| h.stage).collect();
        assert_eq!(stages, vec![STAGE_QUEUE_WAIT, STAGE_WALK, STAGE_WRITE]);
        let walk = &a[1].hist;
        assert_eq!(walk.count(), 5);
        assert_eq!(walk, &hist_of(&[100, 200, 300, 400, 500]));
        assert_eq!(stage_name(STAGE_WALK), "walk");
        assert_eq!(stage_name(250), "unknown");
    }

    #[test]
    fn admission_statuses_frame_cleanly() {
        // LOADSHED: a probe reject with zero entries, connection stays open.
        let frame = encode_response(OP_PROBE, STATUS_LOADSHED, 9, 0, &[]);
        let body = read_frame(&mut frame.as_slice(), usize::MAX)
            .unwrap()
            .unwrap();
        let (h, p) = decode_response(&body).unwrap();
        assert_eq!(
            (h.op, h.status, h.epoch, h.n),
            (OP_PROBE, STATUS_LOADSHED, 9, 0)
        );
        assert!(p.is_empty());
        // BUSY: an accept-gate reject carries op 0.
        let frame = encode_response(0, STATUS_BUSY, 2, 0, &[]);
        let body = read_frame(&mut frame.as_slice(), usize::MAX)
            .unwrap()
            .unwrap();
        let (h, _) = decode_response(&body).unwrap();
        assert_eq!((h.op, h.status), (0, STATUS_BUSY));
        assert_eq!(status_name(STATUS_LOADSHED), "LOADSHED");
        assert_eq!(status_name(STATUS_BUSY), "BUSY");
        assert_eq!(status_name(200), "UNKNOWN");
    }
}
