//! End-to-end tests for the observability pipeline: per-stage
//! histograms over the wire (STATS), the sampled trace ring and its
//! DUMP op, the `/metrics` exposition endpoint, and the router's
//! gather/merge of per-shard scrapes.
//!
//! The fleet test asserts the merge invariant literally: the router's
//! merged histogram section equals a client-side
//! [`merge_stage_histograms`] over direct per-shard scrapes of the
//! same traffic. The mixed-fleet test covers the shards a scrape must
//! tolerate: one without observability, and one that is dead.

use act_core::{
    coord_to_cell, shard_of_cell, write_shard_files, ActIndex, Refiner, DEFAULT_SPLIT_LEVEL,
};
use act_serve::protocol as proto;
use act_serve::{
    Client, ObsConfig, Router, RouterConfig, ServeConfig, Server, ServerHandle, StatsExReply,
};
use geom::{Coord, Polygon, Ring};
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// A small NYC-ish cluster plus an equator shape so 2 shards both get
/// real traffic at the default split level.
fn polys() -> Vec<Polygon> {
    let mut p: Vec<Polygon> = (0..6)
        .map(|k| square(-74.0 + 0.05 * k as f64, 40.7, 0.02))
        .collect();
    p.push(square(0.3, 0.2, 0.08));
    p
}

fn probe_points() -> Vec<Coord> {
    let mut pts = Vec::new();
    for gx in 0..64 {
        pts.push(Coord::new(-74.1 + 0.006 * gx as f64, 40.7));
    }
    for gx in 0..16 {
        pts.push(Coord::new(0.2 + 0.02 * gx as f64, 0.2));
    }
    pts.push(Coord::new(120.0, -30.0)); // far miss
    pts
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("act-obs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot(dir: &std::path::Path, idx: &ActIndex) -> PathBuf {
    let path = dir.join("obs.snap");
    let mut f = std::fs::File::create(&path).unwrap();
    idx.save_snapshot(&mut f).unwrap();
    path
}

/// Sample-every-1 so every admitted frame is a trace event.
fn traced_obs() -> ObsConfig {
    ObsConfig {
        trace_sample_every: 1,
        ..ObsConfig::default()
    }
}

fn spawn_obs_server(path: &std::path::Path, refiner: Option<Refiner>) -> ServerHandle {
    Server::spawn(
        path,
        ServeConfig {
            refiner,
            watch: None,
            obs: Some(traced_obs()),
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// The write and frame-total spans close *after* the reply bytes hit the
/// socket, so a scrape racing the last reply can be one record short.
/// Polls until the frame-total count reaches `frames` (frame-total is
/// the last record a frame makes, so once it lands, so has everything
/// else for that frame), then returns the settled reply.
fn settled_stats_ex(c: &mut Client, frames: u64) -> StatsExReply {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = c.stats_ex().unwrap();
        let done = reply
            .histograms
            .iter()
            .find(|h| h.stage == proto::STAGE_FRAME_TOTAL)
            .is_some_and(|h| h.hist.count() >= frames);
        if done || Instant::now() >= deadline {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn hist(reply: &StatsExReply, stage: u8) -> &act_obs::HistogramSnapshot {
    &reply
        .histograms
        .iter()
        .find(|h| h.stage == stage)
        .unwrap_or_else(|| panic!("stage {} missing", proto::stage_name(stage)))
        .hist
}

#[test]
fn stage_histograms_trace_dump_and_metrics_end_to_end() {
    let shapes = polys();
    let idx = ActIndex::build(&shapes, 15.0).unwrap();
    let dir = fresh_dir("e2e");
    let path = snapshot(&dir, &idx);
    let server = spawn_obs_server(&path, Some(Refiner::new(&shapes)));
    let pts = probe_points();

    let mut c = Client::connect(server.addr()).unwrap();
    for _ in 0..8 {
        c.probe(&pts, false).unwrap();
    }
    c.probe(&pts, true).unwrap(); // one exact frame → refine stage

    // Every time stage saw the traffic; lane-count stages count probes.
    let frames = 9;
    let reply = settled_stats_ex(&mut c, frames);
    assert_eq!(reply.epoch, 1);
    for stage in [
        proto::STAGE_QUEUE_WAIT,
        proto::STAGE_WRITE,
        proto::STAGE_FRAME_TOTAL,
    ] {
        assert_eq!(
            hist(&reply, stage).count(),
            frames,
            "{} must record once per probe frame",
            proto::stage_name(stage)
        );
    }
    assert!(hist(&reply, proto::STAGE_WALK).count() >= 1, "≥1 batch");
    assert!(
        hist(&reply, proto::STAGE_REFINE).count() >= 1,
        "the exact frame must time refinement"
    );
    assert_eq!(
        hist(&reply, proto::STAGE_PROBE_DEPTH).count(),
        frames * pts.len() as u64,
        "one depth sample per probed lane"
    );
    assert_eq!(
        hist(&reply, proto::STAGE_BATCH_LANES).sum,
        frames * pts.len() as u64,
        "batch-lanes sum ≡ probes served"
    );
    // Stage nesting: walk ≤ frame total, by sums (same traffic).
    assert!(hist(&reply, proto::STAGE_WALK).sum <= hist(&reply, proto::STAGE_FRAME_TOTAL).sum);

    // The sampled trace ring (every=1): one admission event per frame,
    // drained as JSON lines both via the wire op and the handle.
    let dump = c.dump().unwrap();
    assert_eq!(
        dump.lines().filter(|l| l.contains("\"admission\"")).count(),
        frames as usize
    );
    assert!(dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert_eq!(server.trace_json_lines().as_deref(), Some(dump.as_str()));

    // The exposition endpoint: curl-equivalent scrape shows the counter,
    // stage, and trace metric families with real values.
    let metrics = act_obs::MetricsServer::spawn("127.0.0.1:0", server.metrics_fn()).unwrap();
    let text = act_obs::scrape(metrics.addr()).unwrap();
    for family in [
        "# TYPE act_probes_total counter",
        "# TYPE act_stage_seconds histogram",
        "# TYPE act_batch_lanes histogram",
        "# TYPE act_probe_depth histogram",
        "# TYPE act_window_high_water_lanes gauge",
        "# TYPE act_trace_events_total counter",
    ] {
        assert!(text.contains(family), "scrape missing {family:?}");
    }
    assert!(text.contains(&format!("act_probes_total {}", frames * pts.len() as u64)));
    assert!(text.contains("act_stage_seconds_count{stage=\"queue_wait\"}"));
    assert!(text.contains("le=\"+Inf\""));

    // PING answers on the same connection with the same counters.
    let ping = c.ping().unwrap();
    assert_eq!(ping.counters.probes, frames * pts.len() as u64);
}

#[test]
fn obs_off_pays_nothing_on_the_wire() {
    let idx = ActIndex::build(&polys(), 15.0).unwrap();
    let dir = fresh_dir("off");
    let path = snapshot(&dir, &idx);
    let server = Server::spawn(
        &path,
        ServeConfig {
            watch: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut c = Client::connect(server.addr()).unwrap();
    c.probe(&probe_points(), false).unwrap();

    // STATS still answers (counters + empty histogram section).
    let reply = c.stats_ex().unwrap();
    assert!(reply.counters.probes > 0);
    assert!(reply.histograms.is_empty());
    // No trace ring → DUMP is a typed refusal, not a hang or a panic.
    assert!(c.dump().is_err());
    assert!(server.trace_json_lines().is_none());
    // The connection survives the refusal.
    c.probe(&probe_points(), false).unwrap();
}

#[test]
fn window_high_water_resets_per_flagged_read() {
    let idx = ActIndex::build(&polys(), 15.0).unwrap();
    let dir = fresh_dir("window");
    let path = snapshot(&dir, &idx);
    let server = spawn_obs_server(&path, None);
    let pts = probe_points();

    let mut c = Client::connect(server.addr()).unwrap();
    for _ in 0..4 {
        c.probe(&pts, false).unwrap();
    }
    let first = c.stats_ex().unwrap();
    assert!(
        first.counters.window_high_water_lanes > 0,
        "traffic since start must mark the window"
    );
    assert_eq!(
        first.counters.queue_high_water_lanes, first.counters.window_high_water_lanes,
        "with one burst the lifetime and windowed marks agree"
    );

    // Idle window: the windowed mark resets, the lifetime one does not.
    let second = c.stats_ex().unwrap();
    assert_eq!(second.counters.window_high_water_lanes, 0);
    assert_eq!(
        second.counters.queue_high_water_lanes,
        first.counters.queue_high_water_lanes
    );

    // New traffic re-marks the window.
    c.probe(&pts, false).unwrap();
    assert!(c.stats_ex().unwrap().counters.window_high_water_lanes > 0);
}

/// The server's `frame_total` (admission → reply flushed) never
/// overstates what a client saw. A fresh server gets exactly the frames
/// the client times — no warm-up, no exact frame — and each recorded
/// span sits inside the client's timing of that frame:
/// - the frame is admitted only after the client starts sending it;
/// - the span closes after the reply's socket write returns, and a
///   preempted writer can close it after the client has already read
///   the reply. So the client stops its clock at the reply to a PING
///   sent behind the frame: the connection's writer records a frame's
///   span before it writes any later reply.
///
/// Order statistics keep that per-frame bound, and a quantile reports
/// its bucket's lower bound, so each server quantile is at most the
/// client latency at the same rank, `ceil(q · n)`.
#[test]
fn server_frame_quantiles_never_exceed_the_client_round_trip() {
    const FRAMES: usize = 200;
    let idx = ActIndex::build(&polys(), 15.0).unwrap();
    let dir = fresh_dir("p99");
    let path = snapshot(&dir, &idx);
    let server = spawn_obs_server(&path, None);
    let pts = probe_points();

    let mut c = Client::connect(server.addr()).unwrap();
    let mut client_ns: Vec<u64> = (0..FRAMES)
        .map(|_| {
            let t = Instant::now();
            c.probe(&pts, false).unwrap();
            c.ping().unwrap();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    client_ns.sort_unstable();

    // Settle on the timed frames, then read again: the settling STATS
    // frames must not have been recorded either.
    settled_stats_ex(&mut c, FRAMES as u64);
    let reply = c.stats_ex().unwrap();
    let frame_total = hist(&reply, proto::STAGE_FRAME_TOTAL);
    assert_eq!(
        frame_total.count(),
        FRAMES as u64,
        "frame_total records each timed frame once, and nothing else"
    );
    for q in [0.5, 0.99, 1.0] {
        let rank = ((q * FRAMES as f64).ceil() as usize).max(1);
        let (at_server, at_client) = (frame_total.quantile(q), client_ns[rank - 1]);
        assert!(
            at_server <= at_client,
            "server frame_total q{q} ({at_server} ns) exceeds the client's ({at_client} ns)"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fleet invariant: the router's merged STATS reply must equal a
/// client-side merge of direct per-shard scrapes — histogram buckets
/// bucket-for-bucket, traffic counters field-for-field.
#[test]
fn router_merge_equals_client_side_merge_of_shard_scrapes() {
    let shapes = polys();
    let idx = ActIndex::build(&shapes, 15.0).unwrap();
    let dir = fresh_dir("fleet");
    let shard_paths = write_shard_files(&idx, &dir, DEFAULT_SPLIT_LEVEL, 2).unwrap();
    let workers: Vec<ServerHandle> = shard_paths
        .iter()
        .map(|p| {
            Server::spawn(
                p,
                ServeConfig {
                    watch: None,
                    obs: Some(traced_obs()),
                    ..ServeConfig::default()
                },
            )
            .unwrap()
        })
        .collect();
    let router = Router::spawn(
        workers.iter().map(|w| w.addr()).collect(),
        RouterConfig {
            obs: Some(traced_obs()),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let pts = probe_points();
    let mut c = Client::connect(router.addr()).unwrap();
    for _ in 0..6 {
        c.probe(&pts, false).unwrap();
    }

    // Direct per-shard scrapes first (these reset each shard's
    // *windowed* mark; histograms and counters are cumulative). Every
    // frame carries lanes for both shards, so each shard answered one
    // sub-frame per routed frame — settle on that count so the scrape
    // cannot race the last sub-reply's stage records.
    let shard_scrapes: Vec<StatsExReply> = workers
        .iter()
        .map(|w| settled_stats_ex(&mut Client::connect(w.addr()).unwrap(), 6))
        .collect();
    assert!(
        shard_scrapes
            .iter()
            .all(|s| s.counters.probes > 0 && !s.histograms.is_empty()),
        "the split level must give every shard real traffic"
    );

    // Then the router's gathered view of the same (now idle) fleet.
    let merged = c.stats_ex().unwrap();
    assert_eq!(merged.epoch, 1, "min epoch over a fresh fleet");

    let mut want_counters = proto::CounterBlock::default();
    let mut want_hists: Vec<proto::StageHistogram> = Vec::new();
    for s in &shard_scrapes {
        want_counters.merge(&s.counters);
        proto::merge_stage_histograms(&mut want_hists, &s.histograms);
    }
    assert_eq!(
        merged.histograms, want_hists,
        "router-merged histograms must equal the client-side merge"
    );
    assert_eq!(merged.counters.probes, want_counters.probes);
    assert_eq!(
        merged.counters.probes,
        6 * pts.len() as u64,
        "every routed lane answered by exactly one shard"
    );
    assert_eq!(merged.counters.batches, want_counters.batches);
    assert_eq!(merged.counters.shed, want_counters.shed);
    assert_eq!(merged.counters.bad_frames, want_counters.bad_frames);
    // accepted/answered drift by exactly the STATS frames themselves
    // (each scrape is one more accepted+answered frame per shard), so
    // the merge matches modulo one gather round.
    assert_eq!(
        merged.counters.accepted,
        want_counters.accepted + workers.len() as u64
    );

    // The router's own /metrics render: merged families plus per-shard
    // labeled breakdowns and the availability gauge.
    let metrics = act_obs::MetricsServer::spawn("127.0.0.1:0", router.metrics_fn()).unwrap();
    let text = act_obs::scrape(metrics.addr()).unwrap();
    assert!(text.contains("act_probes_total{shard=\"0\"}"));
    assert!(text.contains("act_probes_total{shard=\"1\"}"));
    assert!(text.contains("act_shard_down{shard=\"0\"} 0"));
    assert!(text.contains("act_stage_seconds_bucket"));

    // Routed DUMP: the router's ring (admissions, every=1) plus each
    // shard's ring, all parseable JSON lines.
    let dump = c.dump().unwrap();
    assert!(
        dump.lines().filter(|l| l.contains("\"admission\"")).count() >= 6,
        "router + shard admissions must appear in the routed dump"
    );
    assert!(dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// A fleet of three unlike shards behind one router: shard 0 with
/// observability, shard 1 without it, shard 2 killed before the scrape.
/// The routed DUMP is shard 0's ring alone; shard 1's UNSUPPORTED is not
/// a health event (its breaker stays closed and it keeps answering
/// probes); and `/metrics` renders the merged families of the shards
/// that answered plus the dead shard's open breaker.
#[test]
fn mixed_fleet_dump_and_metrics_skip_the_unobserved_and_the_dead() {
    const SHARDS: usize = 3;
    let idx = ActIndex::build(&polys(), 15.0).unwrap();
    let dir = fresh_dir("mixed");
    let paths = write_shard_files(&idx, &dir, DEFAULT_SPLIT_LEVEL, SHARDS).unwrap();
    let mut workers: Vec<Option<ServerHandle>> = paths
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let config = ServeConfig {
                watch: None,
                obs: (k == 0).then(traced_obs),
                ..ServeConfig::default()
            };
            Some(Server::spawn(p, config).unwrap())
        })
        .collect();
    let addrs = workers.iter().flatten().map(|w| w.addr()).collect();
    let router = Router::spawn(addrs, RouterConfig::default()).unwrap();

    // Points spread over the globe so that every shard owns some.
    let mut pts = probe_points();
    for gx in 0..48 {
        for gy in 0..16 {
            pts.push(Coord::new(
                -179.0 + 7.5 * gx as f64,
                -80.0 + 10.5 * gy as f64,
            ));
        }
    }
    let mut by_shard: Vec<Vec<Coord>> = vec![Vec::new(); SHARDS];
    for &p in &pts {
        by_shard[shard_of_cell(coord_to_cell(p), DEFAULT_SPLIT_LEVEL, SHARDS)].push(p);
    }
    assert!(
        by_shard.iter().all(|v| !v.is_empty()),
        "every shard owns points"
    );

    let mut c = Client::connect(router.addr()).unwrap();
    assert_eq!(c.probe(&pts, false).unwrap().refs.len(), pts.len());
    workers[2].take().unwrap().shutdown();

    // Routed DUMP: the router keeps no ring, shard 1 has none, shard 2
    // is gone — what remains is exactly shard 0's window.
    let dump = c.dump().unwrap();
    let shard0 = Client::connect(workers[0].as_ref().unwrap().addr())
        .unwrap()
        .dump()
        .unwrap();
    assert_eq!(dump, shard0);
    assert_eq!(
        dump.lines().filter(|l| l.contains("\"admission\"")).count(),
        1,
        "shard 0 admitted its one sub-frame"
    );

    let metrics = act_obs::MetricsServer::spawn("127.0.0.1:0", router.metrics_fn()).unwrap();
    let text = act_obs::scrape(metrics.addr()).unwrap();
    let answered = (by_shard[0].len() + by_shard[1].len()) as u64;
    assert!(text.contains(&format!("act_probes_total {answered}\n")));
    for (k, owned) in by_shard.iter().enumerate().take(2) {
        assert!(text.contains(&format!(
            "act_probes_total{{shard=\"{k}\"}} {}\n",
            owned.len()
        )));
    }
    assert!(!text.contains("act_probes_total{shard=\"2\"}"));
    assert!(
        text.contains("act_stage_seconds_bucket"),
        "shard 0's histograms"
    );
    assert!(text.contains("act_shard_down{shard=\"0\"} 0"));
    assert!(text.contains("act_shard_down{shard=\"1\"} 0"));
    assert!(text.contains("act_shard_down{shard=\"2\"} 1"));

    // Shard 1's breaker never opened: a frame it owns alone answers OK.
    let reply = c.probe(&by_shard[1], false).unwrap();
    assert_eq!(reply.refs.len(), by_shard[1].len());

    router.shutdown();
    for w in workers.into_iter().flatten() {
        w.shutdown();
    }
}
