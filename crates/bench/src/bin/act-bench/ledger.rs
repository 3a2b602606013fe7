//! The traced run: spans kept in memory, each layer's public functions
//! timed over the workload's own inputs, and a served pass whose client
//! side is split through the protocol calls while the server runs with
//! and without its stage histograms.

use crate::data::{reply_hash, RunDir};
use crate::drive::{raw_stream, Window};
use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use act_core::{
    apply_delta_file, coord_to_cell, save_delta_file, shard_of_cell, split_index, BuildStats,
    DeltaLink, DeltaOp, MappedSnapshot, Probe,
};
use act_serve::protocol as proto;
use act_serve::{CacheConfig, HotCellCache};
use geom::{Coord, Polygon, Ring};
use s2cell::CellId;
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Router split the route workload uses (and the ledger reports for every
/// workload's inputs): level 10 spreads a metro area over ~100 prefixes.
pub const SPLIT_LEVEL: u8 = 10;
pub const SHARDS: usize = 4;

/// Repetitions of each per-layer loop; the median is reported.
const REPS: usize = 3;

/// Every 8th traced frame records spans (bounds trace memory).
const SPAN_EVERY: u64 = 8;

/// One recorded span.
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    frame: Option<u64>,
}

/// Spans of one traced run, kept in memory until written out.
pub struct Spans {
    t0: Instant,
    next: u32,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next: 0,
            list: Vec::new(),
        }
    }

    /// A fresh span id (0 means "no parent").
    pub fn id(&mut self) -> u32 {
        self.next += 1;
        self.next
    }

    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        frame: Option<u64>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.list.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            frame,
        });
    }

    /// Runs `f` as a span under `parent`; returns its result and duration.
    pub fn time<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.id();
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(id, parent, name, t, end, None);
        (r, end - t)
    }

    /// One JSON object per span.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.list {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if let Some(f) = s.frame {
                let _ = write!(out, ",\"frame\":{f}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Per span name: count, total and self time (duration minus the part
    /// its children cover), in a fixed-width table.
    pub fn self_time_table(&self) -> String {
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in &self.list {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for s in &self.list {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_us/each"
        );
        for (name, n, total, own) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {n:>9} {:>12.3} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / 1e3 / n as f64
            );
        }
        out
    }
}

/// A workload's traffic as the ledger sees it: the cells in traffic
/// order, the coordinates behind them when frames carry coordinates, and
/// the points the coordinate→cell layer is timed on.
pub struct Traffic {
    pub cells: Vec<CellId>,
    pub coords: Option<Vec<Coord>>,
    pub convert: Vec<Coord>,
    pub frame: usize,
}

impl Traffic {
    pub fn frames(&self) -> Frames {
        match &self.coords {
            Some(c) => Frames::Coords(c.chunks(self.frame).map(<[Coord]>::to_vec).collect()),
            None => Frames::Cells(
                self.cells
                    .chunks(self.frame)
                    .map(<[CellId]>::to_vec)
                    .collect(),
            ),
        }
    }
}

/// A workload's frames in wire form: coordinate or cell frames.
pub enum Frames {
    Coords(Vec<Vec<Coord>>),
    Cells(Vec<Vec<CellId>>),
}

impl Frames {
    pub fn len(&self) -> usize {
        match self {
            Frames::Coords(f) => f.len(),
            Frames::Cells(f) => f.len(),
        }
    }

    pub fn points(&self, k: usize) -> usize {
        match self {
            Frames::Coords(f) => f[k].len(),
            Frames::Cells(f) => f[k].len(),
        }
    }

    pub fn encode(&self, k: usize) -> Vec<u8> {
        match self {
            Frames::Coords(f) => proto::encode_probe_request(&f[k], false),
            Frames::Cells(f) => proto::encode_probe_cells_request(&f[k]),
        }
    }
}

/// Times `body` over `REPS` repetitions as one span per repetition under
/// a layer span and returns the median duration in ns.
fn rep_ns(spans: &mut Spans, name: &'static str, mut body: impl FnMut()) -> f64 {
    let layer = spans.id();
    let t = Instant::now();
    let ns: Vec<f64> = (0..REPS)
        .map(|_| spans.time(layer, name, &mut body).1.as_nanos() as f64)
        .collect();
    spans.record(layer, 0, "ledger", t, Instant::now(), None);
    median(&ns)
}

/// The per-layer timings over the workload's inputs. `build` is an index
/// build of the workload's dataset made in this run: its wall time and
/// its phases.
pub fn layers(
    spans: &mut Spans,
    snap: &MappedSnapshot,
    path: &std::path::Path,
    n_polys: usize,
    traffic: &Traffic,
    build: (f64, &BuildStats),
    out: &mut Metrics,
) -> Result<(), String> {
    let view = snap.view();
    let cells = &traffic.cells;
    let n = cells.len().max(1) as f64;

    let pts = &traffic.convert;
    let ns = rep_ns(spans, "s2cell.coord_to_cell", || {
        for &c in pts {
            black_box(coord_to_cell(black_box(c)));
        }
    });
    out.push((
        "s2cell.coord_to_cell_ns_per_pt",
        ns / pts.len().max(1) as f64,
    ));

    let mut probes = vec![Probe::Miss; cells.len()];
    let ns = rep_ns(spans, "trie.walk_batch", || {
        for (c, o) in cells.chunks(256).zip(probes.chunks_mut(256)) {
            view.probe_batch(c, o);
        }
        black_box(&probes);
    });
    out.push(("trie.walk_batch_ns_per_pt", ns / n));
    let ns = rep_ns(spans, "trie.walk_scalar", || {
        for &c in cells {
            black_box(view.probe_cell(black_box(c)));
        }
    });
    out.push(("trie.walk_scalar_ns_per_pt", ns / n));
    let mut depths = vec![0u8; cells.len()];
    let mut depth_probes = vec![Probe::Miss; cells.len()];
    view.probe_batch_depths(cells, &mut depth_probes, &mut depths);
    let mut d: Vec<f64> = depths.iter().map(|&x| f64::from(x)).collect();
    d.sort_by(f64::total_cmp);
    out.push(("trie.depth_p50", percentile(&d, 0.50)));
    out.push(("trie.depth_p99", percentile(&d, 0.99)));

    let (mut refs, mut trues) = (0u64, 0u64);
    let ns = rep_ns(spans, "lookup.resolve", || {
        (refs, trues) = (0, 0);
        for &p in &probes {
            for (_, hit) in view.resolve_refs(p) {
                refs += 1;
                trues += u64::from(hit);
            }
        }
    });
    out.push(("lookup.resolve_ns_per_pt", ns / n));
    out.push(("lookup.refs_per_pt", refs as f64 / n));
    out.push(("lookup.true_hit_frac", trues as f64 / refs.max(1) as f64));

    // Protocol: the workload's own frames, both directions.
    let frames = traffic.frames();
    let nf = frames.len().max(1) as f64;
    let mut requests: Vec<Vec<u8>> = Vec::new();
    let ns = rep_ns(spans, "protocol.encode_request", || {
        requests = (0..frames.len()).map(|k| frames.encode(k)).collect();
    });
    out.push(("protocol.encode_request_ns_per_frame", ns / nf));
    let ns = rep_ns(spans, "protocol.decode_request", || {
        for r in &requests {
            black_box(proto::decode_request(&r[4..]).expect("own request decodes"));
        }
    });
    out.push(("protocol.decode_request_ns_per_frame", ns / nf));
    let mut responses: Vec<Vec<u8>> = Vec::new();
    let ns = rep_ns(spans, "protocol.encode_response", || {
        responses = probes
            .chunks(traffic.frame)
            .map(|chunk| {
                let mut payload = Vec::with_capacity(chunk.len() * 8);
                for &p in chunk {
                    let at = payload.len();
                    payload.extend_from_slice(&0u32.to_le_bytes());
                    let mut count = 0u32;
                    for (id, hit) in view.resolve_refs(p) {
                        payload.extend_from_slice(&proto::encode_ref(id, hit).to_le_bytes());
                        count += 1;
                    }
                    payload[at..at + 4].copy_from_slice(&count.to_le_bytes());
                }
                proto::encode_response(proto::OP_PROBE, 0, 1, chunk.len() as u32, &payload)
            })
            .collect();
    });
    out.push(("protocol.encode_response_ns_per_frame", ns / nf));
    let ns = rep_ns(spans, "protocol.decode_response", || {
        for r in &responses {
            let (h, payload) = proto::decode_response(&r[4..]).expect("own response decodes");
            black_box(proto::decode_probe_payload(h.n, payload).expect("own payload decodes"));
        }
    });
    out.push(("protocol.decode_response_ns_per_frame", ns / nf));
    let bytes = |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / n;
    out.push(("protocol.request_bytes_per_pt", bytes(&requests)));
    out.push(("protocol.response_bytes_per_pt", bytes(&responses)));

    // Cache: a cold single-shard cache fed the traffic once, read-through.
    let cache = HotCellCache::new(&CacheConfig {
        shards: 1,
        capacity: 65_536,
    });
    let (mut get_ns, mut ins_ns, mut hits, mut inserted) = (0u128, 0u128, 0u64, 0u64);
    let cache_span = spans.id();
    let t_cache = Instant::now();
    for chunk in cells.chunks(256) {
        let (mut arena, mut spans_out) = (Vec::new(), Vec::new());
        let t = Instant::now();
        hits += cache.get_batch(chunk, 1, &mut arena, &mut spans_out);
        get_ns += t.elapsed().as_nanos();
        let miss: Vec<CellId> = chunk
            .iter()
            .zip(&spans_out)
            .filter(|(_, s)| s.1 == 0)
            .map(|(c, _)| *c)
            .collect();
        let mut mp = vec![Probe::Miss; miss.len()];
        let mut md = vec![0u8; miss.len()];
        view.probe_batch_depths(&miss, &mut mp, &mut md);
        for (k, &c) in miss.iter().enumerate() {
            let words: Vec<u32> = view
                .resolve_refs(mp[k])
                .map(|(id, hit)| proto::encode_ref(id, hit))
                .collect();
            let t = Instant::now();
            cache.insert(c, md[k], 1, &words);
            ins_ns += t.elapsed().as_nanos();
            inserted += 1;
        }
    }
    spans.record(
        cache_span,
        0,
        "cache.read_through",
        t_cache,
        Instant::now(),
        None,
    );
    out.push(("cache.get_batch_ns_per_pt", get_ns as f64 / n));
    out.push((
        "cache.insert_ns_per_pt",
        ins_ns as f64 / inserted.max(1) as f64,
    ));
    out.push(("cache.hit_rate", hits as f64 / n));

    // Index and snapshot.
    let (build_s, st) = build;
    out.push(("index.build_s", build_s));
    out.push(("index.build_coverings_s", st.build_coverings_secs));
    out.push(("index.build_supercover_s", st.build_supercover_secs));
    out.push(("index.build_insert_s", st.build_insert_secs));
    let mut open_ms = Vec::new();
    for _ in 0..REPS {
        let (s, d) = spans.time(0, "snapshot.open_validate", || MappedSnapshot::open(path));
        s.map_err(|e| format!("reopen snapshot: {e}"))?;
        open_ms.push(d.as_secs_f64() * 1e3);
    }
    out.push(("snapshot.open_validate_ms", median(&open_ms)));

    // Router: how the traffic's frames would scatter, and the split cost.
    let mut per_shard = [0u64; SHARDS];
    let mut touched = 0usize;
    for chunk in cells.chunks(traffic.frame) {
        let mut hit = [false; SHARDS];
        for &c in chunk {
            let s = shard_of_cell(c, SPLIT_LEVEL, SHARDS);
            per_shard[s] += 1;
            hit[s] = true;
        }
        touched += hit.iter().filter(|&&h| h).count();
    }
    out.push(("router.shards_per_frame", touched as f64 / nf));
    let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    out.push(("router.shard_load_max_over_mean", max / mean.max(1.0)));
    let (mut owned, _) = spans.time(0, "index.to_owned", || view.to_owned_index());
    let (_, d) = spans.time(0, "router.split", || {
        black_box(split_index(&owned, SPLIT_LEVEL, SHARDS))
    });
    out.push(("router.split_s", d.as_secs_f64()));

    // Delta: one fence inserted offline, as the watcher would apply it.
    owned.prime_mutations();
    let at = traffic
        .convert
        .first()
        .copied()
        .unwrap_or(Coord::new(-73.98, 40.75));
    let dir = RunDir::new("ledger")?;
    let dpath = dir.0.join("ledger.snap.d1");
    let link = DeltaLink::for_base(snap.checksum());
    let ops = [DeltaOp::Insert {
        id: n_polys as u32,
        polygon: fence(at),
    }];
    save_delta_file(&ops, link, &dpath).map_err(|e| format!("write ledger delta: {e}"))?;
    let (applied, d) = spans.time(0, "delta.apply", || {
        apply_delta_file(&mut owned, &dpath, link)
    });
    applied.map_err(|e| format!("apply ledger delta: {e}"))?;
    out.push(("delta.apply_ms", d.as_secs_f64() * 1e3));
    Ok(())
}

/// The one-fence geofence the churn workload and the delta ledger insert:
/// a ~900 m square around `c`.
pub fn fence(c: Coord) -> Polygon {
    let (h, w) = (0.004, 0.004 / c.y.to_radians().cos());
    Polygon::new(
        Ring::new(vec![
            Coord::new(c.x - w, c.y - h),
            Coord::new(c.x + w, c.y - h),
            Coord::new(c.x + w, c.y + h),
            Coord::new(c.x - w, c.y + h),
        ]),
        vec![],
    )
}

/// One served target's share of the pass.
#[derive(Default)]
pub struct Served {
    pub window: Window,
    pub encode_ns: f64,
    pub wire_ns: f64,
    pub decode_ns: f64,
}

impl Served {
    fn mean_us(&self, ns: f64) -> f64 {
        ns / self.window.attempted.max(1) as f64 / 1e3
    }

    pub fn split_us(&self) -> (f64, f64, f64) {
        (
            self.mean_us(self.encode_ns),
            self.mean_us(self.wire_ns),
            self.mean_us(self.decode_ns),
        )
    }
}

/// The served pass: closed-loop frames through the protocol calls
/// (encode → write/read → decode), alternating between `targets` in
/// `slice`-long turns for `total`, one connection at a time. Alternating
/// makes a slow machine phase hit every target alike. Frames sent to
/// `targets[traced]` record spans.
pub fn served_pass(
    spans: &mut Spans,
    targets: &[SocketAddr],
    traced: usize,
    frames: &Frames,
    expected: &[u64],
    slice: Duration,
    total: Duration,
) -> Result<Vec<Served>, String> {
    let mut out: Vec<Served> = targets.iter().map(|_| Served::default()).collect();
    let turns = ((total.as_secs_f64() / slice.as_secs_f64()) as usize).max(targets.len());
    let mut next = 0usize;
    let mut frame_id = 0u64;
    for turn in 0..turns {
        let k_target = turn % targets.len();
        let mut stream = raw_stream(targets[k_target])?;
        let mut w = Window::new(slice.as_secs_f64());
        let s = &mut out[k_target];
        let t0 = Instant::now();
        while t0.elapsed() < slice {
            let k = next % frames.len();
            next += 1;
            frame_id += 1;
            let a = Instant::now();
            let req = frames.encode(k);
            let b = Instant::now();
            proto::write_frame(&mut stream, &req).map_err(|e| format!("served write: {e}"))?;
            let body = proto::read_frame(&mut stream, 1 << 26)
                .map_err(|e| format!("served read: {e}"))?
                .ok_or("served: server closed the connection")?;
            let c = Instant::now();
            let decoded = proto::decode_response(&body).and_then(|(h, payload)| {
                (h.status == proto::STATUS_OK && h.n as usize == frames.points(k))
                    .then_some(())
                    .ok_or("not an OK reply")?;
                proto::decode_probe_payload(h.n, payload)
            });
            let d = Instant::now();
            w.attempted += 1;
            s.encode_ns += (b - a).as_nanos() as f64;
            s.wire_ns += (c - b).as_nanos() as f64;
            s.decode_ns += (d - c).as_nanos() as f64;
            match decoded {
                Ok(refs) if reply_hash(&refs) == expected[k] => {
                    w.ok(t0, d, d - a, frames.points(k));
                }
                _ => w.failed += 1,
            }
            if k_target == traced && frame_id.is_multiple_of(SPAN_EVERY) {
                let root = spans.id();
                for (name, s0, e0) in [
                    ("client.encode", a, b),
                    ("client.wire", b, c),
                    ("client.decode", c, d),
                ] {
                    let id = spans.id();
                    spans.record(id, root, name, s0, e0, Some(frame_id));
                }
                spans.record(root, 0, "client.frame", a, d, Some(frame_id));
            }
        }
        let offset = s.window.secs;
        s.window.secs += w.secs;
        s.window.absorb(w, offset);
    }
    Ok(out)
}

/// Server-side stage means and p99s from a flagged STATS reply, in µs,
/// plus the residual the client-observed wire time leaves unexplained.
pub fn stage_metrics(hists: &[proto::StageHistogram], client_wire_us: f64, out: &mut Metrics) {
    let stage = |id: u8| hists.iter().find(|h| h.stage == id && h.hist.count() > 0);
    let mean = |id: u8| stage(id).map_or(0.0, |h| h.hist.mean() / 1e3);
    let p99 = |id: u8| stage(id).map_or(0.0, |h| stage_quantile_ns(h, 0.99) / 1e3);
    for (id, m, p) in [
        (
            proto::STAGE_QUEUE_WAIT,
            "server.queue_wait_mean_us",
            "server.queue_wait_p99_us",
        ),
        (
            proto::STAGE_WALK,
            "server.walk_mean_us",
            "server.walk_p99_us",
        ),
        (
            proto::STAGE_WRITE,
            "server.write_mean_us",
            "server.write_p99_us",
        ),
        (
            proto::STAGE_FRAME_TOTAL,
            "server.frame_total_mean_us",
            "server.frame_total_p99_us",
        ),
    ] {
        out.push((m, mean(id)));
        out.push((p, p99(id)));
    }
    let total = mean(proto::STAGE_FRAME_TOTAL);
    let explained = mean(proto::STAGE_QUEUE_WAIT)
        + mean(proto::STAGE_WALK)
        + mean(proto::STAGE_REFINE)
        + mean(proto::STAGE_WRITE);
    out.push(("server.unexplained_us", total - explained));
    out.push(("server.kernel_loopback_us", client_wire_us - total));
}

/// The `q` quantile of a stage histogram, interpolated linearly inside
/// the log bucket that holds it. The histogram's own `quantile` returns
/// that bucket's lower bound: up to 12.5% low, and so coarse that two
/// runs often read the very same value.
fn stage_quantile_ns(h: &proto::StageHistogram, q: f64) -> f64 {
    // A bucket's lower bound, read through `quantile` itself on a
    // histogram holding one value in that bucket.
    let floor = |i: usize| {
        let mut one = h.hist.clone();
        one.buckets = vec![0; i];
        one.buckets.push(1);
        one.quantile(1.0) as f64
    };
    let rank = (q * h.hist.count() as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &c) in h.hist.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let (lo, hi) = (floor(i), floor(i + 1));
            return lo + (hi - lo) * (rank - seen) / c;
        }
        seen += c;
    }
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let t = s.t0;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = s.id();
        let (a, b) = (s.id(), s.id());
        s.record(a, root, "child", at(10), at(30), Some(1));
        s.record(b, root, "child", at(40), at(50), Some(1));
        s.record(root, 0, "root", at(0), at(100), Some(1));
        let table = s.self_time_table();
        let row = |name: &str| -> Vec<f64> {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .split_whitespace()
                .skip(1)
                .map(|v| v.parse().unwrap())
                .collect()
        };
        assert_eq!(row("root"), vec![1.0, 0.1, 0.07, 70.0]);
        assert_eq!(row("child"), vec![2.0, 0.03, 0.03, 15.0]);
        let jsonl = s.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"name\":\"root\"") && lines[2].contains("\"frame\":1"));
    }

    #[test]
    fn stage_quantiles_interpolate_inside_a_bucket() {
        let mut h = proto::StageHistogram {
            stage: proto::STAGE_WALK,
            hist: Default::default(),
        };
        // 100 values in the bucket spanning [16, 18) ns, 100 in [18, 20).
        h.hist.buckets = vec![0; 16];
        h.hist.buckets.extend([100, 100]);
        assert_eq!(h.hist.quantile(0.25), 16);
        for (q, want) in [(0.25, 17.0), (0.5, 18.0), (0.99, 19.96), (0.0, 16.02)] {
            let got = stage_quantile_ns(&h, q);
            assert!((got - want).abs() < 1e-9, "q {q}: {got}");
        }
    }
}
