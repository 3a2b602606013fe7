//! End-to-end tests for the sharded serving stack: sharder → worker
//! fleet → scatter-gather router, all over the real TCP protocol.
//!
//! The oracle tests assert the tentpole invariant literally: a routed
//! probe answers **identically** to the unsharded index — per point and
//! in aggregate against `join_approx_coords` / `join_exact` — including
//! points straddling shard seams. The chaos tests exercise the failure
//! surface: rolling per-shard hot-swap (full snapshots and delta files)
//! under continuous load with zero failed requests, and a worker killed
//! mid-fleet surfacing as a typed error or a correct shed — never a
//! hang, never a wrong answer.

use act_core::{
    coord_to_cell, header_checksum, join_approx_coords, join_exact, save_delta_file, shard_of_cell,
    shard_paths, split_index, write_shard_files, ActIndex, DeltaLink, DeltaOp, Refiner,
    DEFAULT_SPLIT_LEVEL,
};
use act_serve::{
    delta_path, Client, ClientError, ResilientClient, RetryPolicy, Router, RouterConfig,
    ServeConfig, Server, ServerHandle,
};
use geom::{Coord, Polygon, Ring};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// Polygons spread across faces (NYC cluster, equator cluster, a
/// near-pole shape) so any shard count produces real seams.
fn fleet_polys() -> Vec<Polygon> {
    let mut polys = Vec::new();
    for k in 0..8 {
        polys.push(square(-74.0 + 0.05 * k as f64, 40.7, 0.02));
    }
    for k in 0..4 {
        polys.push(square(0.4 * k as f64, 0.2, 0.08));
    }
    polys.push(square(10.0, 88.5, 0.5));
    polys
}

/// A probe grid covering the polygon clusters, their boundaries, and
/// plenty of misses.
fn probe_grid() -> Vec<Coord> {
    let mut pts = Vec::new();
    for gx in 0..40 {
        for gy in 0..4 {
            pts.push(Coord::new(
                -74.15 + 0.015 * gx as f64,
                40.63 + 0.045 * gy as f64,
            ));
        }
    }
    for gx in 0..20 {
        pts.push(Coord::new(-0.2 + 0.1 * gx as f64, 0.2));
    }
    pts.push(Coord::new(10.0, 88.5));
    pts.push(Coord::new(179.0, -45.0)); // far miss, another face
    pts
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("act-router-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sharder → workers → router, returning every handle (drop order:
/// router first, then workers).
fn spawn_fleet(
    index: &ActIndex,
    dir: &Path,
    num_shards: usize,
    worker_config: impl Fn() -> ServeConfig,
) -> (Vec<ServerHandle>, act_serve::RouterHandle) {
    let paths = write_shard_files(index, dir, DEFAULT_SPLIT_LEVEL, num_shards).unwrap();
    let workers: Vec<ServerHandle> = paths
        .iter()
        .map(|p| Server::spawn(p, worker_config()).unwrap())
        .collect();
    let addrs = workers.iter().map(|w| w.addr()).collect();
    let router = Router::spawn(addrs, RouterConfig::default()).unwrap();
    (workers, router)
}

fn sorted(mut refs: Vec<(u32, bool)>) -> Vec<(u32, bool)> {
    refs.sort_unstable();
    refs
}

#[test]
fn routed_probes_match_the_unsharded_oracle() {
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let pts = probe_grid();
    for num_shards in [1usize, 3] {
        let dir = fresh_dir(&format!("oracle-{num_shards}"));
        let (workers, router) = spawn_fleet(&idx, &dir, num_shards, || ServeConfig {
            watch: None,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(router.addr()).unwrap();
        let reply = client.probe(&pts, false).unwrap();
        assert_eq!(reply.epoch, 1, "fresh fleet serves epoch 1 everywhere");
        assert_eq!(reply.refs.len(), pts.len());

        // Per point: exactly the unsharded index's answer.
        let mut counts = vec![0u64; polys.len()];
        for (c, got) in pts.iter().zip(&reply.refs) {
            assert_eq!(
                *got,
                sorted(idx.as_view().lookup_refs(*c)),
                "at {c} ({num_shards} shards)"
            );
            for &(id, _) in got {
                counts[id as usize] += 1;
            }
        }
        // In aggregate: exactly the paper's approximate join.
        let mut want = vec![0u64; polys.len()];
        join_approx_coords(&idx, &pts, &mut want);
        assert_eq!(counts, want, "{num_shards} shards");

        router.shutdown();
        for w in workers {
            w.shutdown();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn routed_exact_mode_matches_join_exact_and_unsupported_forwards() {
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let pts = probe_grid();
    let dir = fresh_dir("exact");

    // Refiner-equipped workers: routed exact == join_exact. The refiner
    // is built over the full polygon set — shard refs keep global ids.
    let (workers, router) = spawn_fleet(&idx, &dir, 2, || ServeConfig {
        refiner: Some(Refiner::new(&fleet_polys())),
        watch: None,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(router.addr()).unwrap();
    let reply = client.probe(&pts, true).unwrap();
    let mut counts = vec![0u64; polys.len()];
    for refs in &reply.refs {
        for &(id, hit) in refs {
            assert!(hit, "exact mode reports members only");
            counts[id as usize] += 1;
        }
    }
    let refiner = Refiner::new(&polys);
    let mut want = vec![0u64; polys.len()];
    join_exact(&idx, &refiner, &pts, &mut want);
    assert_eq!(counts, want);
    router.shutdown();
    for w in workers {
        w.shutdown();
    }

    // Refiner-less workers: the fleet-wide capability gap forwards as
    // UNSUPPORTED (not INTERNAL, not a hang).
    let (workers, router) = spawn_fleet(&idx, &dir, 2, || ServeConfig {
        watch: None,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(router.addr()).unwrap();
    match client.probe(&pts, true) {
        Err(ClientError::Server { status, .. }) => {
            assert_eq!(status, act_serve::protocol::STATUS_UNSUPPORTED)
        }
        other => panic!("expected UNSUPPORTED through the router, got {other:?}"),
    }
    // The connection survives and approx mode still answers.
    assert_eq!(client.probe(&pts, false).unwrap().refs.len(), pts.len());
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn router_merges_fleet_counters_and_reports_min_epoch() {
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let pts = probe_grid();
    let dir = fresh_dir("counters");
    let (workers, router) = spawn_fleet(&idx, &dir, 3, || ServeConfig {
        watch: None,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(router.addr()).unwrap();
    client.probe(&pts, false).unwrap();

    // The merged block sums every shard's counters: each probe point
    // was answered by exactly one worker, so fleet probes == points.
    let ping = client.ping().unwrap();
    assert_eq!(ping.epoch, 1, "min epoch across the fleet");
    assert_eq!(ping.counters.probes, pts.len() as u64);
    assert_eq!(
        ping.counters.accepted,
        ping.counters.answered + ping.counters.shed
    );
    let stats = client.stats_ex().unwrap();
    assert_eq!(stats.counters.probes, pts.len() as u64);
    assert_eq!(stats.counters.shed, 0);

    // Worker-side cross-check: the fleet total is the sum of parts.
    let worker_probes: u64 = workers.iter().map(|w| w.stats().probes).sum();
    assert_eq!(worker_probes, pts.len() as u64);

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rolling per-shard hot-swap under continuous load: a full snapshot
/// replacement per shard, then a delta file per shard, with a client
/// hammering the router throughout. Zero failed requests, and every
/// answer matches one of the three index versions exactly.
#[test]
fn rolling_hot_swap_full_and_delta_under_load_drops_nothing() {
    let polys0 = fleet_polys();
    let idx0 = ActIndex::build(&polys0, 15.0).unwrap();

    // Version 1: one more NYC polygon (overlapping the cluster, so the
    // swap is not a pure addition). Version 2: a delta polygon in empty
    // territory, broadcast to every shard.
    let mut polys1 = polys0.clone();
    polys1.push(square(-73.87, 40.72, 0.03));
    let idx1 = ActIndex::build(&polys1, 15.0).unwrap();
    let delta_poly = square(-73.0, 41.5, 0.05);
    let mut polys2 = polys1.clone();
    polys2.push(delta_poly.clone());
    let idx2 = ActIndex::build(&polys2, 15.0).unwrap();

    let mut pts = probe_grid();
    pts.push(Coord::new(-73.87, 40.72)); // inside the swapped-in polygon
    pts.push(Coord::new(-73.0, 41.5)); // inside the delta polygon

    const NUM_SHARDS: usize = 2;
    let dir = fresh_dir("rolling");
    let (workers, router) = spawn_fleet(&idx0, &dir, NUM_SHARDS, || ServeConfig {
        watch: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    });
    let paths = shard_paths(&dir, NUM_SHARDS);

    // Any answer must be exactly one version's answer, per point.
    let allowed: Vec<[Vec<(u32, bool)>; 3]> = pts
        .iter()
        .map(|&c| {
            [
                sorted(idx0.as_view().lookup_refs(c)),
                sorted(idx1.as_view().lookup_refs(c)),
                sorted(idx2.as_view().lookup_refs(c)),
            ]
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        let pts = pts.clone();
        let addr = router.addr();
        std::thread::spawn(move || -> (u64, Vec<String>) {
            let mut client = ResilientClient::new(addr, RetryPolicy::default()).unwrap();
            let mut requests = 0u64;
            let mut wrong = Vec::new();
            while !stop.load(Ordering::Acquire) {
                match client.probe(&pts, false) {
                    Ok(reply) => {
                        requests += 1;
                        for (i, got) in reply.refs.iter().enumerate() {
                            if !(0..3).any(|v| *got == allowed[i][v]) {
                                wrong.push(format!(
                                    "point {:?}: got {got:?}, allowed {:?}",
                                    pts[i], allowed[i]
                                ));
                            }
                        }
                    }
                    Err(e) => wrong.push(format!("request failed: {e}")),
                }
            }
            (requests, wrong)
        })
    };

    let wait_epoch = |k: usize, at_least: u32| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while workers[k].epoch() < at_least {
            assert!(
                Instant::now() < deadline,
                "worker {k} never reached epoch {at_least}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    std::thread::sleep(Duration::from_millis(100)); // load is flowing

    // Phase 1 — rolling full swap, one shard at a time.
    let shards1 = split_index(&idx1, DEFAULT_SPLIT_LEVEL, NUM_SHARDS);
    for (k, path) in paths.iter().enumerate() {
        let mut bytes = Vec::new();
        shards1[k].save_snapshot(&mut bytes).unwrap();
        let tmp = path.with_extension("swap.tmp");
        std::fs::write(&tmp, &bytes).unwrap();
        std::fs::rename(&tmp, path).unwrap();
        wait_epoch(k, 2);
    }

    // Phase 2 — rolling delta apply: the same insert broadcast to every
    // shard (the sharded-deltas recipe — each shard holds the polygon,
    // so whichever shard owns a probing point answers with it).
    for (k, path) in paths.iter().enumerate() {
        let base = header_checksum(&std::fs::read(path).unwrap()).unwrap();
        let ops = [DeltaOp::Insert {
            id: polys1.len() as u32,
            polygon: delta_poly.clone(),
        }];
        save_delta_file(&ops, DeltaLink::for_base(base), &delta_path(path, 1)).unwrap();
        wait_epoch(k, 3);
    }

    std::thread::sleep(Duration::from_millis(100)); // load sees the end state
    stop.store(true, Ordering::Release);
    let (requests, wrong) = load.join().unwrap();
    assert!(requests > 0, "the load thread must actually have run");
    assert!(
        wrong.is_empty(),
        "{} violations, first: {}",
        wrong.len(),
        wrong[0]
    );

    // The fleet's merged counters record the rolling update: every
    // worker published twice (full swap + delta), and the delta path
    // was the one actually taken.
    let mut client = Client::connect(router.addr()).unwrap();
    let stats = client.ping().unwrap();
    assert_eq!(stats.epoch, 3, "both shards reached epoch 3");
    assert_eq!(stats.counters.swaps, 2 * NUM_SHARDS as u64);
    assert_eq!(stats.counters.delta_applies, NUM_SHARDS as u64);
    assert_eq!(stats.counters.quarantines, 0);

    // And the steady end state answers exactly like the full version-2
    // index.
    let reply = client.probe(&pts, false).unwrap();
    for (c, got) in pts.iter().zip(&reply.refs) {
        assert_eq!(
            *got,
            sorted(idx2.as_view().lookup_refs(*c)),
            "end state at {c}"
        );
    }

    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker killed under the router surfaces as a typed INTERNAL error
/// for batches needing its shard, then as an immediate LOADSHED with a
/// retry hint while the shard's cooldown runs — and batches owned
/// entirely by surviving shards keep answering correctly throughout.
#[test]
fn worker_death_yields_typed_errors_and_cooldown_sheds_not_hangs_or_lies() {
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    const NUM_SHARDS: usize = 2;
    let dir = fresh_dir("kill");
    let (workers, router) = spawn_fleet(&idx, &dir, NUM_SHARDS, || ServeConfig {
        watch: None,
        ..ServeConfig::default()
    });

    // Partition the grid by owning shard; both shards must own points
    // (the polygon spread guarantees it).
    let mut by_shard: Vec<Vec<Coord>> = vec![Vec::new(); NUM_SHARDS];
    for c in probe_grid() {
        by_shard[shard_of_cell(coord_to_cell(c), DEFAULT_SPLIT_LEVEL, NUM_SHARDS)].push(c);
    }
    assert!(by_shard.iter().all(|v| !v.is_empty()));
    let mixed: Vec<Coord> = by_shard.iter().flat_map(|v| v.iter().copied()).collect();

    let mut client = Client::connect(router.addr()).unwrap();
    assert_eq!(client.probe(&mixed, false).unwrap().refs.len(), mixed.len());

    // Kill shard 1's worker (graceful drain, then the port goes dead).
    let mut workers: Vec<Option<ServerHandle>> = workers.into_iter().map(Some).collect();
    workers[1].take().unwrap().shutdown();

    // A batch needing the dead shard: a typed error, promptly. The
    // router burns its client's retry budget once, classifies the
    // exhausted IO failure as INTERNAL, and opens the cooldown.
    let t = Instant::now();
    match client.probe(&mixed, false) {
        Err(ClientError::Server { status, .. }) => {
            assert_eq!(status, act_serve::protocol::STATUS_INTERNAL)
        }
        other => panic!("expected INTERNAL for the dead shard, got {other:?}"),
    }
    assert!(
        t.elapsed() < Duration::from_secs(8),
        "the dead-shard error must arrive promptly, not hang"
    );

    // Inside the cooldown window: an immediate shed with a hint — the
    // retry budget is not burned again per request.
    let t = Instant::now();
    match client.probe(&mixed, false) {
        Err(ClientError::Server {
            status,
            retry_after_ms,
        }) => {
            assert_eq!(status, act_serve::protocol::STATUS_LOADSHED);
            let hint = retry_after_ms.expect("a cooldown shed carries the remaining window");
            assert!(hint <= 250, "hint is the remaining cooldown, got {hint}");
        }
        other => panic!("expected LOADSHED during cooldown, got {other:?}"),
    }
    assert!(
        t.elapsed() < Duration::from_millis(500),
        "a cooldown shed must be immediate"
    );

    // Batches owned entirely by the surviving shard: still exact.
    let reply = client.probe(&by_shard[0], false).unwrap();
    for (c, got) in by_shard[0].iter().zip(&reply.refs) {
        assert_eq!(
            *got,
            sorted(idx.as_view().lookup_refs(*c)),
            "surviving shard at {c}"
        );
    }

    router.shutdown();
    for w in workers.into_iter().flatten() {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression for the router's connection-thread panic: an address that
/// cannot resolve must surface as a typed `io::Error` from
/// `ResilientClient::new`, and a pre-resolved address must build a
/// client **infallibly** (`from_resolved`) whose failures against a
/// dead port are typed client errors — never a panic in either place.
#[test]
fn unresolvable_or_dead_addresses_are_typed_errors_not_panics() {
    // Name resolution failure: a typed error from the fallible ctor.
    // (`.invalid` is reserved by RFC 2606 — it can never resolve.)
    let err = ResilientClient::new("act-serve.invalid:1", RetryPolicy::default());
    assert!(err.is_err(), "an unresolvable host must be a typed error");

    // A resolved-but-dead address: the infallible ctor builds fine and
    // every request fails with a typed error, promptly.
    let dead: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
    let mut client = ResilientClient::from_resolved(
        dead,
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        },
    );
    match client.probe(&[Coord::new(-74.0, 40.7)], false) {
        Err(ClientError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected a typed retry-exhausted error, got {other:?}"),
    }
}

/// The tentpole's oracle through the full sharded stack: with the
/// hot-cell cache (and a per-client quota generous enough to never
/// trip) enabled on every worker, routed probes still answer exactly
/// like the unsharded index — on the cold pass that fills the cache and
/// on the warm pass that answers from it. The fleet must actually have
/// cached (hits observed) for the warm assertion to mean anything.
#[test]
fn routed_probes_stay_exact_with_worker_caches_on() {
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let pts = probe_grid();
    let dir = fresh_dir("cache-oracle");
    let (workers, router) = spawn_fleet(&idx, &dir, 3, || ServeConfig {
        watch: None,
        cache: Some(act_serve::CacheConfig::default()),
        client_quota_lanes: Some(1 << 20),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(router.addr()).unwrap();
    for pass in ["cold", "warm", "warm again"] {
        let reply = client.probe(&pts, false).unwrap();
        assert_eq!(reply.refs.len(), pts.len());
        for (c, got) in pts.iter().zip(&reply.refs) {
            assert_eq!(
                *got,
                sorted(idx.as_view().lookup_refs(*c)),
                "{pass} pass at {c}"
            );
        }
    }
    router.shutdown();
    let (mut hits, mut quota_sheds) = (0u64, 0u64);
    for w in workers {
        let s = w.shutdown();
        hits += s.cache_hits;
        quota_sheds += s.quota_sheds;
    }
    assert!(hits > 0, "the warm passes must have answered from cache");
    assert_eq!(quota_sheds, 0, "a generous quota must never shed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Drain with a routed frame in flight: the router has read the frame
/// and waits on a slow worker when shutdown starts. A frame that was
/// read is always answered, so the client still gets its real answer,
/// and then the stream ends.
#[test]
fn router_drain_answers_the_frame_in_flight_then_closes() {
    use act_serve::protocol as proto;
    use std::io::{Read, Write};
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let pts = probe_grid();
    let dir = fresh_dir("drain-in-flight");
    let (workers, router) = spawn_fleet(&idx, &dir, 1, || ServeConfig {
        watch: None,
        batch_delay: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&proto::encode_probe_request(&pts, false))
        .unwrap();
    // Once the worker has accepted the routed frame, its answer is
    // 200 ms away and the router is waiting inside its scatter.
    let deadline = Instant::now() + Duration::from_secs(10);
    while workers[0].stats().accepted == 0 {
        assert!(
            Instant::now() < deadline,
            "the frame never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    router.shutdown();

    let body = proto::read_frame(&mut stream, 1 << 24)
        .unwrap()
        .expect("a frame read before the drain must be answered");
    let (h, payload) = proto::decode_response(&body).unwrap();
    assert_eq!(h.status, proto::STATUS_OK);
    let refs = proto::decode_probe_payload(h.n, payload).unwrap();
    assert_eq!(refs.len(), pts.len());
    for (c, got) in pts.iter().zip(&refs) {
        assert_eq!(*got, sorted(idx.as_view().lookup_refs(*c)), "at {c}");
    }
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "the stream ends after the answer"
    );
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client that pipelines 64 KB probe frames and never reads a reply
/// fills both socket directions, leaving the router blocked in its reply
/// write. Shutdown must still return within the 5 s drain grace (plus
/// 2 s of slack) instead of waiting on that client forever.
#[test]
fn router_shutdown_is_bounded_when_a_client_never_reads() {
    use act_serve::protocol as proto;
    use std::io::Write;
    let polys = fleet_polys();
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let dir = fresh_dir("stalled-client");
    let (workers, router) = spawn_fleet(&idx, &dir, 1, || ServeConfig {
        watch: None,
        ..ServeConfig::default()
    });
    // 4,095 points: a 64 KB frame with its length prefix.
    let pts: Vec<Coord> = probe_grid().into_iter().cycle().take(4095).collect();
    let frame = proto::encode_probe_request(&pts, false);
    let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    // Pipeline until a write stalls: the router has stopped reading
    // because it cannot write its replies.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut sent = 0usize;
    loop {
        match stream.write(&frame[sent % frame.len()..]) {
            Ok(k) => sent += k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
            Err(e) => panic!("pipelining failed before the stall: {e}"),
        }
        assert!(Instant::now() < deadline, "the router never stalled");
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        router.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(7)).is_ok(),
        "a client that never reads held shutdown past the drain grace"
    );
    drop(stream);
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
