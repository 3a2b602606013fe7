//! Chaos soak: concurrent clients hammer probes across repeated
//! snapshot hot-swaps on a deliberately tiny, deliberately slow server
//! (small lane queue + pinned per-batch delay, so shedding really
//! happens) while one client stalls its reader mid-burst. The contract:
//!
//! * every frame sent gets **exactly one** reply;
//! * every non-shed reply matches an offline probe of the snapshot its
//!   echoed epoch names — hot-swapping under overload never corrupts an
//!   answer;
//! * a shed frame is only ever answered `LOADSHED` — never dropped,
//!   never answered with anything else;
//! * the final counters reconcile: `accepted = answered + shed`;
//! * and the graceful drain answers everything accepted before
//!   `shutdown()`, nothing after.
//!
//! Last, the fairness quota: one greedy pipeliner against polite
//! retrying clients on a capacity-pinned worker, where the
//! per-connection lane quota must lift the worst polite client's
//! goodput at least 5×.
//!
//! Time-budgeted: the whole file runs in about 5 s.

use act_core::{header_checksum, save_delta_file, ActIndex, DeltaLink, DeltaOp};
use act_serve::{
    delta_path, protocol as proto, CacheConfig, Client, ClientError, ResilientClient, RetryPolicy,
    ServeConfig, Server,
};
use act_tests::{pipeline_copies, ref_set};
use datagen::PointGen;
use geom::{Coord, Polygon, Ring};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("act-chaos-{}-{name}.snap", std::process::id()));
    p
}

fn save_snapshot_to(path: &std::path::Path, idx: &ActIndex) {
    let mut bytes = Vec::new();
    idx.save_snapshot(&mut bytes).unwrap();
    std::fs::write(path, bytes).unwrap();
}

/// Points spanning both squares and the void between them, so answers
/// differ between the two snapshots at many probes.
fn chaos_points(n: usize, salt: u64) -> Vec<Coord> {
    (0..n)
        .map(|k| {
            let t = ((k as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64 / 1000.0;
            Coord::new(-74.08 + 0.16 * t, 40.70 + 0.01 * (t - 0.5))
        })
        .collect()
}

/// Raises the stop flag when dropped, so background clients stop even
/// when the thread driving them panics and the scope is unwinding.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The index the echoed epoch was served from: the test swaps
/// A → B → A → B, so odd epochs are A, even epochs are B.
fn index_for_epoch<'a>(epoch: u32, a: &'a ActIndex, b: &'a ActIndex) -> &'a ActIndex {
    if epoch % 2 == 1 {
        a
    } else {
        b
    }
}

#[test]
fn hot_swaps_under_shedding_with_a_stalled_reader() {
    let polys_a = vec![square(-74.05, 40.70, 0.02)];
    let polys_b = vec![square(-73.95, 40.70, 0.02)];
    let idx_a = ActIndex::build(&polys_a, 15.0).unwrap();
    let idx_b = ActIndex::build(&polys_b, 15.0).unwrap();
    let path = temp_path("soak");
    save_snapshot_to(&path, &idx_a);
    let sibling_b = temp_path("soak-b");
    let sibling_a = temp_path("soak-a");

    // Tiny and slow on purpose: depth 512 lanes, one worker, 0.5 ms per
    // batch (capacity ≈ 512 k lanes/s) — the stalled client's burst
    // must overflow the queue.
    let server = Server::spawn(
        &path,
        ServeConfig {
            workers: 1,
            batch_lanes: 256,
            queue_depth_lanes: 512,
            max_inflight_frames: 32,
            batch_delay: Some(Duration::from_micros(500)),
            watch: Some(Duration::from_millis(10)),
            // The hot-cell cache rides the whole soak: its epoch keying
            // must keep every verified answer exact through the swaps.
            cache: Some(CacheConfig::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let stop = AtomicBool::new(false);
    let client_frames = AtomicU64::new(0);
    let client_sheds = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(&stop);

        // Three well-behaved clients: continuous verified traffic
        // across every swap. Each frame gets exactly one reply (the
        // blocking client errors loudly on anything else).
        let mut well_behaved = Vec::new();
        for t in 0..3u64 {
            let (stop, frames, sheds) = (&stop, &client_frames, &client_sheds);
            let (idx_a, idx_b) = (&idx_a, &idx_b);
            well_behaved.push(scope.spawn(move || {
                let mut c = Client::connect(addr).expect("chaos client connect");
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut round = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let pts = chaos_points(32, t * 7919 + round);
                    round += 1;
                    frames.fetch_add(1, Ordering::Relaxed);
                    match c.probe(&pts, false) {
                        Ok(reply) => {
                            let idx = index_for_epoch(reply.epoch, idx_a, idx_b);
                            for (pt, got) in pts.iter().zip(&reply.refs) {
                                assert_eq!(
                                    *got,
                                    idx.as_view().lookup_refs(*pt),
                                    "epoch {} answer diverged at {pt}",
                                    reply.epoch
                                );
                            }
                        }
                        // A shed is answered LOADSHED and nothing else;
                        // the connection stays usable.
                        Err(ClientError::Server {
                            status,
                            retry_after_ms,
                        }) => {
                            assert_eq!(
                                status,
                                proto::STATUS_LOADSHED,
                                "only LOADSHED may reject a well-formed probe"
                            );
                            assert!(
                                retry_after_ms.is_some(),
                                "a shed under protocol v2 must hint when to retry"
                            );
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("chaos client failed: {e}"),
                    }
                }
            }));
        }

        // The stalled reader: burst 8 × 128-point frames in one write,
        // then go silent while the swaps churn, then collect. Its
        // replies must be exactly 8, in order, each OK (and correct for
        // its epoch) or LOADSHED.
        let stalled = {
            let (idx_a, idx_b) = (&idx_a, &idx_b);
            scope.spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).expect("stalled connect");
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let frames: Vec<Vec<Coord>> =
                    (0..8).map(|k| chaos_points(128, 40_000 + k)).collect();
                let mut burst = Vec::new();
                for f in &frames {
                    burst.extend_from_slice(&proto::encode_probe_request(f, false));
                }
                s.write_all(&burst).expect("stalled burst write");
                // The deliberate stall: sleep through the hot-swaps
                // with replies backing up.
                std::thread::sleep(Duration::from_millis(600));
                let mut sheds = 0u64;
                for (k, f) in frames.iter().enumerate() {
                    let body = proto::read_frame(&mut s, 1 << 22)
                        .expect("stalled read")
                        .unwrap_or_else(|| panic!("reply {k} missing: frame dropped"));
                    let (h, payload) = proto::decode_response(&body).unwrap();
                    assert_eq!(h.op, proto::OP_PROBE);
                    match h.status {
                        proto::STATUS_OK => {
                            let refs = proto::decode_probe_payload(h.n, payload).unwrap();
                            let idx = index_for_epoch(h.epoch, idx_a, idx_b);
                            for (pt, got) in f.iter().zip(&refs) {
                                assert_eq!(
                                    *got,
                                    idx.as_view().lookup_refs(*pt),
                                    "stalled frame {k} at {pt}"
                                );
                            }
                        }
                        proto::STATUS_LOADSHED => {
                            assert_eq!(h.n, 0, "LOADSHED carries no entries");
                            sheds += 1;
                        }
                        other => panic!(
                            "stalled frame {k} answered {} — only OK or LOADSHED is legal",
                            proto::status_name(other)
                        ),
                    }
                }
                // Exactly 8 replies and not a byte more in flight.
                sheds
            })
        };

        // Drive three hot-swaps while all of the above is in the air.
        let deadline = Instant::now() + Duration::from_secs(4);
        for (target_epoch, idx) in [(2u32, &idx_b), (3, &idx_a), (4, &idx_b)] {
            let sibling = if target_epoch % 2 == 0 {
                &sibling_b
            } else {
                &sibling_a
            };
            save_snapshot_to(sibling, idx);
            std::fs::rename(sibling, &path).unwrap();
            while server.epoch() < target_epoch {
                assert!(
                    Instant::now() < deadline,
                    "watcher did not reach epoch {target_epoch} in time"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(server.epoch(), 4, "three swaps must have landed");

        // Let traffic ride the final epoch briefly, then stop.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Release);
        for h in well_behaved {
            h.join().expect("well-behaved chaos client");
        }
        let stalled_sheds = stalled.join().expect("stalled reader");
        // The burst (1024 lanes) overflows the 512-lane queue no matter
        // how the worker interleaves: some of it must have shed.
        assert!(
            stalled_sheds > 0,
            "the stalled burst must overflow the queue"
        );
        client_sheds.fetch_add(stalled_sheds, Ordering::Relaxed);
    });

    // Every reply is in; the books must balance.
    let stats = server.stats();
    assert_eq!(
        stats.accepted,
        stats.answered + stats.shed,
        "accepted = answered + shed must reconcile after the soak"
    );
    assert_eq!(
        stats.shed,
        client_sheds.load(Ordering::Relaxed),
        "server-side sheds must equal client-observed LOADSHED replies"
    );
    assert!(
        stats.queue_high_water_lanes <= 512,
        "queue high-water {} exceeded the configured depth",
        stats.queue_high_water_lanes
    );
    assert_eq!(stats.bad_frames, 0);
    assert_eq!(stats.swaps + 1, 4, "epoch 4: three publishes landed");
    // The well-behaved clients sent at least a few hundred frames and
    // every single one was answered (counted at the server): frames
    // observed client-side ≤ accepted (the stalled 8 ride on top).
    let sent = client_frames.load(Ordering::Relaxed);
    assert!(sent > 50, "chaos traffic too thin ({sent} frames)");
    assert_eq!(stats.accepted, sent + 8, "exactly one admission per frame");

    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The drain half of the lifecycle, on its own small server: frames
/// accepted before `shutdown()` all get real answers; nothing sent after
/// is ever answered.
#[test]
fn shutdown_drains_accepted_frames_and_nothing_more() {
    let polys = vec![square(-74.0, 40.7, 0.02)];
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let path = temp_path("drain");
    save_snapshot_to(&path, &idx);

    // Slow worker so the queue is demonstrably non-empty at shutdown.
    let server = Server::spawn(
        &path,
        ServeConfig {
            workers: 1,
            batch_lanes: 64,
            batch_delay: Some(Duration::from_millis(2)),
            max_inflight_frames: 16,
            watch: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frames: Vec<Vec<Coord>> = (0..8).map(|k| chaos_points(64, 90_000 + k)).collect();
    let mut burst = Vec::new();
    for f in &frames {
        burst.extend_from_slice(&proto::encode_probe_request(f, false));
    }
    s.write_all(&burst).unwrap();

    // Wait until every frame is *accepted* (admitted, not yet all
    // answered — the slow worker guarantees a backlog), then shut down.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().accepted < frames.len() as u64 {
        assert!(Instant::now() < deadline, "frames were never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    // Everything accepted pre-shutdown is answered, in order, for real.
    for (k, f) in frames.iter().enumerate() {
        let body = proto::read_frame(&mut s, 1 << 22)
            .expect("post-drain read")
            .unwrap_or_else(|| panic!("drain dropped frame {k}"));
        let (h, payload) = proto::decode_response(&body).unwrap();
        assert_eq!(
            (h.op, h.status),
            (proto::OP_PROBE, proto::STATUS_OK),
            "drained frame {k} must get its real answer"
        );
        let refs = proto::decode_probe_payload(h.n, payload).unwrap();
        for (pt, got) in f.iter().zip(&refs) {
            assert_eq!(
                *got,
                idx.as_view().lookup_refs(*pt),
                "drained frame {k} at {pt}"
            );
        }
    }
    // …and nothing more: the stream ends. A frame sent now is never
    // answered (the listener is gone; the write may succeed into a dead
    // socket, but no reply can ever arrive).
    let _ = s.write_all(&proto::encode_probe_request(&frames[0], false));
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "no answers after shutdown"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected post-shutdown error: {e}"
        ),
    }
    std::fs::remove_file(&path).unwrap();
}

/// The cache-invalidation contract, asserted literally: a deliberately
/// **warm** hot-cell cache (the same hot set probed repeatedly) rides a
/// full-snapshot swap and then a broadcast-delta apply, and every OK
/// reply still equals an offline probe of the index its echoed epoch
/// names — with cache hits observed at every epoch, so the exactness is
/// proven *of cached answers*, not of a cache that never engaged. A
/// single stale entry surviving a flip would fail the oracle check on
/// the very next warm pass.
#[test]
fn warm_cache_stays_exact_across_full_and_delta_epoch_flips() {
    // Three versions: base (epoch 1), a full swap adding a second
    // square (epoch 2), a delta insert overlapping the hot set's
    // centerline (epoch 3) — each flip changes many hot answers.
    let polys1 = vec![square(-74.05, 40.70, 0.02)];
    let idx1 = ActIndex::build(&polys1, 15.0).unwrap();
    let mut polys2 = polys1.clone();
    polys2.push(square(-73.95, 40.70, 0.02));
    let idx2 = ActIndex::build(&polys2, 15.0).unwrap();
    let delta_poly = square(-74.00, 40.70, 0.015);
    let mut polys3 = polys2.clone();
    polys3.push(delta_poly.clone());
    let idx3 = ActIndex::build(&polys3, 15.0).unwrap();

    let path = temp_path("warm-cache");
    save_snapshot_to(&path, &idx1);
    let server = Server::spawn(
        &path,
        ServeConfig {
            workers: 1,
            watch: Some(Duration::from_millis(10)),
            cache: Some(CacheConfig::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One fixed hot set for the whole test: pass ≥ 2 within an epoch
    // answers from cache, so each post-flip pass would surface any
    // entry the epoch bump failed to invalidate.
    let pts = chaos_points(64, 99);
    let oracles: [&ActIndex; 3] = [&idx1, &idx2, &idx3];
    let warm_passes = |client: &mut Client, epoch: u32| {
        let before = server.stats().cache_hits;
        for pass in 0..3 {
            let reply = client.probe(&pts, false).unwrap();
            assert_eq!(reply.epoch, epoch, "pass {pass} echoes the live epoch");
            let idx = oracles[(epoch - 1) as usize];
            for (pt, got) in pts.iter().zip(&reply.refs) {
                assert_eq!(
                    *got,
                    idx.as_view().lookup_refs(*pt),
                    "epoch {epoch} pass {pass} diverged from the oracle at {pt}"
                );
            }
        }
        assert!(
            server.stats().cache_hits > before,
            "epoch {epoch}: the warm passes must actually hit the cache"
        );
    };
    let wait_epoch = |at_least: u32| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.epoch() < at_least {
            assert!(
                Instant::now() < deadline,
                "watcher never reached epoch {at_least}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // Epoch 1: fill, then answer warm.
    warm_passes(&mut client, 1);

    // Full-snapshot swap against the warm cache.
    let sibling = temp_path("warm-cache-next");
    save_snapshot_to(&sibling, &idx2);
    std::fs::rename(&sibling, &path).unwrap();
    wait_epoch(2);
    warm_passes(&mut client, 2);

    // Broadcast-delta apply against the (re-)warmed cache.
    let base = header_checksum(&std::fs::read(&path).unwrap()).unwrap();
    let ops = [DeltaOp::Insert {
        id: polys2.len() as u32,
        polygon: delta_poly,
    }];
    save_delta_file(&ops, DeltaLink::for_base(base), &delta_path(&path, 1)).unwrap();
    wait_epoch(3);
    warm_passes(&mut client, 3);

    let stats = server.stats();
    assert_eq!(stats.swaps + 1, 3, "epoch 3: a swap and a delta landed");
    assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(delta_path(&path, 1));
}

/// Fairness shape: one greedy connection pipelines `FAIR_FRAME`-point
/// frames nonstop while polite clients each work through a fixed stripe,
/// against one worker whose per-batch delay pins its capacity to
/// `FAIR_BATCH_LANES / FAIR_BATCH_DELAY` lanes/s, so host speed does not
/// move the result.
///
/// The queue is deep next to the batch on purpose: queue depth is what an
/// unquota'd greedy connection gets to own, and every lane it owns
/// stretches the backlog-proportional retry hint a shed polite client
/// honours before trying again. The quota caps any one connection at one
/// batch's worth, which leaves the same deep queue nearly empty and the
/// polite clients rotating at fair share.
const FAIR_FRAME: usize = 256;
const FAIR_POLITE_FRAME: usize = 256;
const FAIR_POLITE_CLIENTS: usize = 3;
const FAIR_POLITE_FRAMES: usize = 32;
const FAIR_BATCH_LANES: usize = 256;
const FAIR_BATCH_DELAY: Duration = Duration::from_millis(2);
const FAIR_DEPTH_LANES: usize = 8_192;
const FAIR_WINDOW: usize = 32;
const FAIR_QUOTA_LANES: usize = 256;

/// The per-connection lane quota against a greedy pipeliner: the same
/// fight run without and then with `client_quota_lanes`. Every polite
/// answer and every greedy OK answer is checked per point against the
/// offline probe, the books reconcile on both runs, only the quota run
/// sheds for quota, and the quota lifts the worst polite client's
/// goodput ≥ 5×.
#[test]
fn lane_quota_lifts_the_worst_polite_client_past_a_greedy_pipeliner() {
    let ds = datagen::neighborhoods(42);
    let idx = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let path = temp_path("fairness");
    save_snapshot_to(&path, &idx);
    let view = &idx.as_view();
    let need = FAIR_FRAME + FAIR_POLITE_FRAME * FAIR_POLITE_CLIENTS * FAIR_POLITE_FRAMES;
    let points = PointGen::nyc_taxi_like(ds.bbox, 42).take_vec(need);
    // The greedy connection repeats one fixed frame; each polite client
    // owns a distinct stripe.
    let greedy_frame = &points[..FAIR_FRAME];
    let greedy_want: Vec<_> = greedy_frame
        .iter()
        .map(|&p| ref_set(view.lookup_refs(p)))
        .collect();
    let stripes: Vec<&[Coord]> = points[FAIR_FRAME..]
        .chunks(FAIR_POLITE_FRAME * FAIR_POLITE_FRAMES)
        .collect();

    let run = |quota: Option<usize>| {
        let server = Server::spawn(
            &path,
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
        .unwrap();
        let addr = server.addr();
        let stop = AtomicBool::new(false);
        let (worst, greedy) = std::thread::scope(|scope| {
            let stop_guard = StopOnDrop(&stop);
            let greedy = scope.spawn(|| {
                pipeline_copies(addr, greedy_frame, &greedy_want, |_| {
                    !stop.load(Ordering::Acquire)
                })
            });
            // A polite client honours each LOADSHED's retry hint through
            // a ResilientClient — the behaviour the quota protects.
            let polite: Vec<_> = stripes
                .iter()
                .map(|stripe| {
                    scope.spawn(move || {
                        let mut client = ResilientClient::from_resolved(
                            addr,
                            RetryPolicy {
                                max_attempts: 100_000,
                                base_backoff: Duration::from_millis(1),
                                max_backoff: Duration::from_millis(20),
                                read_timeout: Duration::from_secs(30),
                                deadline: Some(Duration::from_secs(120)),
                                ..RetryPolicy::default()
                            },
                        );
                        let t0 = Instant::now();
                        for chunk in stripe.chunks(FAIR_POLITE_FRAME) {
                            let reply = client.probe(chunk, false).expect("polite probe");
                            for (pt, got) in chunk.iter().zip(&reply.refs) {
                                assert_eq!(*got, view.lookup_refs(*pt), "polite answer at {pt}");
                            }
                        }
                        stripe.len() as f64 / t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            let worst = polite
                .into_iter()
                .map(|h| h.join().expect("polite client"))
                .fold(f64::INFINITY, f64::min);
            drop(stop_guard);
            (worst, greedy.join().expect("greedy client"))
        });
        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.accepted, stats.answered + stats.shed);
        (worst, greedy, stats)
    };

    let (worst_off, greedy_off, off) = run(None);
    let (worst_on, greedy_on, on) = run(Some(FAIR_QUOTA_LANES));
    assert_eq!(off.quota_sheds, 0, "no quota, no quota sheds");
    assert!(
        on.quota_sheds > 0,
        "the quota run must actually shed over-quota frames"
    );
    let gain = worst_on / worst_off;
    println!(
        "fairness: worst polite goodput {worst_off:.0} pts/s without quota vs {worst_on:.0} \
         with — {gain:.1}x; greedy {greedy_off:?} without, {greedy_on:?} with"
    );
    assert!(
        gain >= 5.0,
        "quota only improved worst-client goodput {gain:.1}x — below the 5x floor"
    );
    std::fs::remove_file(&path).unwrap();
}
