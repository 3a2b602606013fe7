//! Geofencing: the paper's motivating Uber-style scenario — a stream of
//! ride requests must be mapped to pricing zones in real time.
//!
//! Earlier revisions piped batches from a producer thread through a
//! bounded Mutex+Condvar channel into a worker pool; profiling showed the
//! channel, not the index, was the throughput ceiling (see ROADMAP). This
//! version is **share-nothing**: the request stream is deterministic and
//! randomly addressable (`PointGen::point_at`), so each worker owns a
//! contiguous stripe of request indices outright — no queue, no locks, no
//! shared mutable state. Workers convert each block of requests to leaf
//! cells and probe the ACT with the batched walk
//! (`join_approx_cells_batch`), which overlaps the trie's dependent loads
//! across the block instead of serializing them. Per-zone counters are
//! private per worker and merged once at the end, exactly like the
//! paper's Figure 4 driver.
//!
//! **Warm starts:** a production fleet restarts processes far more often
//! than its zone set changes, so the first run persists the built index
//! as a versioned snapshot (`act_core::snapshot`) and every later run
//! loads it back instead of re-covering the polygons — the same code
//! path a rolling restart or a new shard joining the fleet would take.
//! Point `ACT_SNAPSHOT` at a different path (or delete the default one)
//! to force a cold build.
//!
//! **Online:** the same scenario also runs split across processes, the
//! way the paper's "online join" would actually deploy — one `act-serve`
//! process owning the memory-mapped snapshot, N clients streaming ride
//! requests over TCP:
//!
//! ```text
//! cargo run --release -p act-examples --example geofencing            # offline (in-process)
//! cargo run --release -p act-examples --example geofencing -- --serve [ADDR]
//! cargo run --release -p act-examples --example geofencing -- --client [ADDR]
//! cargo run --release -p act-examples --example geofencing -- --fleet [N [ADDR]]
//! ```
//!
//! The server watches its snapshot file: drop a new one on the path
//! (write a sibling + `mv` over it) and it hot-swaps without dropping a
//! request — watch the epoch in the client's summary move.

use act_core::{coord_to_cell, ActIndex};
use datagen::PointGen;
use s2cell::CellId;
use std::time::Instant;

/// Default address for `--serve` / `--client` when none is given.
const DEFAULT_ADDR: &str = "127.0.0.1:4817";

const REQUESTS: u64 = 2_000_000;
const WORKERS: usize = 4;
const BATCH: usize = 4096;
/// Precision the zones are indexed at; a snapshot built with a different
/// ε is stale and rebuilt.
const PRECISION_M: f64 = 15.0;

/// Seed of the zone dataset (see `main`). Part of the snapshot path, so
/// changing the zone set can never silently serve a stale snapshot.
const ZONE_SEED: u64 = 42;

/// Loads the zone index from `path`, falling back to a cold build (then
/// persisting the result for the next start). Any load failure — missing
/// file, truncation, corruption, a stale precision — downgrades to a
/// rebuild; a warm start is an optimization, never a correctness risk.
/// Staleness guards: the default path fingerprints the zone set (count,
/// seed, ε), and the loaded snapshot's precision is checked before it is
/// served.
fn load_or_build(path: &str, ds: &datagen::Dataset) -> ActIndex {
    if let Ok(mut f) = std::fs::File::open(path) {
        let t = Instant::now();
        match ActIndex::load_snapshot(&mut f) {
            Ok(idx) if idx.stats().precision_m == PRECISION_M => {
                println!(
                    "warm start: loaded index from {path} in {:.3} s",
                    t.elapsed().as_secs_f64()
                );
                return idx;
            }
            Ok(idx) => println!(
                "snapshot {path} was built at ε = {} m, want {PRECISION_M} m; rebuilding",
                idx.stats().precision_m
            ),
            Err(e) => println!("snapshot {path} unusable ({e}); rebuilding"),
        }
    }
    build_and_save(path, ds)
}

/// The cold path shared by the offline and serving modes: build the zone
/// index and persist it at `path` (best-effort — a failed save only
/// costs the next start its warmth).
fn build_and_save(path: &str, ds: &datagen::Dataset) -> ActIndex {
    println!(
        "cold start: building index over {} zones...",
        ds.polygons.len()
    );
    let t = Instant::now();
    let idx = ActIndex::build(&ds.polygons, PRECISION_M).unwrap();
    println!("built in {:.3} s", t.elapsed().as_secs_f64());
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(path).map_err(act_core::SnapshotError::from) {
        Ok(mut f) => match idx.save_snapshot(&mut f) {
            Ok(n) => println!("saved snapshot: {n} bytes to {path} (next start is warm)"),
            Err(e) => println!("could not save snapshot to {path}: {e}"),
        },
        Err(e) => println!("could not save snapshot to {path}: {e}"),
    }
    idx
}

/// `--serve`: own the snapshot, answer probes over TCP, hot-swap on
/// snapshot replacement. Runs until SIGINT (Ctrl-C), then drains
/// gracefully: the self-pipe flag installed below flips, the loop calls
/// `Server::shutdown()` — stop accepting, answer every accepted frame,
/// flush, join — and the final counters are printed.
fn serve_mode(addr: &str, snap_path: &str, ds: &datagen::Dataset) {
    // Ensure a current snapshot exists at the path. A cheap mmap open
    // validates it (and its ε) without the full heap deserialization the
    // offline warm start pays — the server only probes the mapping.
    match act_core::MappedSnapshot::open(snap_path) {
        Ok(snap) if snap.stats().precision_m == PRECISION_M => {}
        Ok(snap) => {
            println!(
                "snapshot {snap_path} was built at ε = {} m, want {PRECISION_M} m; rebuilding",
                snap.stats().precision_m
            );
            drop(snap); // unmap before the file is replaced
            build_and_save(snap_path, ds);
        }
        Err(e) => {
            println!("snapshot {snap_path} unusable ({e}); rebuilding");
            build_and_save(snap_path, ds);
        }
    }
    let server = act_serve::Server::spawn(
        snap_path,
        act_serve::ServeConfig {
            addr: addr.to_string(),
            // Zone geometry ships alongside the server in this example,
            // so exact-mode refinement is on offer.
            refiner: Some(act_core::Refiner::new(&ds.polygons)),
            ..act_serve::ServeConfig::default()
        },
    )
    .expect("spawn act-serve");
    println!(
        "act-serve: {} zones on {}, watching {snap_path} for hot-swaps (Ctrl-C drains + exits)",
        ds.polygons.len(),
        server.addr()
    );
    // SIGINT → graceful drain, via the self-pipe flag: the handler only
    // sets an atomic and writes one pipe byte; this loop does the work.
    let sig = sigflag::SigFlag::install(sigflag::SIGINT).expect("install SIGINT handler");
    let mut last_report = std::time::Instant::now();
    while !sig.is_raised() {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if last_report.elapsed() >= std::time::Duration::from_secs(10) {
            last_report = std::time::Instant::now();
            let s = server.stats();
            println!(
                "epoch {}: {} probes in {} requests ({} micro-batches, {} shed, {} busy)",
                server.epoch(),
                s.probes,
                s.accepted + s.bad_frames,
                s.batches,
                s.shed,
                s.busy
            );
        }
    }
    println!("act-serve: SIGINT — draining (accepted frames get answered, then sockets close)");
    // shutdown() returns the post-drain counters: frames answered
    // *during* the drain are included in the final report.
    let s = server.shutdown();
    println!(
        "act-serve: drained. epoch {}: {} probes in {} requests ({} micro-batches, {} shed, {} bad, {} busy, queue high-water {} lanes)",
        s.swaps + 1,
        s.probes,
        s.accepted + s.bad_frames,
        s.batches,
        s.shed,
        s.bad_frames,
        s.busy,
        s.queue_high_water_lanes
    );
}

/// `--fleet N`: the sharded deployment in one process — split the
/// snapshot into N per-shard files (`act_core::write_shard_files`), one
/// worker per shard, the scatter-gather router in front. Point
/// `--client` at the printed address; it cannot tell the fleet from a
/// single server. Runs until SIGINT, then drains router-first so every
/// accepted frame is answered.
fn fleet_mode(addr: &str, shards: usize, snap_path: &str, ds: &datagen::Dataset) {
    let index = load_or_build(snap_path, ds);
    let shard_dir = format!("{snap_path}.shards");
    let paths = act_core::write_shard_files(
        &index,
        std::path::Path::new(&shard_dir),
        act_core::DEFAULT_SPLIT_LEVEL,
        shards,
    )
    .expect("write shard files");
    drop(index);
    let workers: Vec<_> = paths
        .iter()
        .map(|p| {
            act_serve::Server::spawn(p, act_serve::ServeConfig::default())
                .expect("spawn shard worker")
        })
        .collect();
    let router = act_serve::Router::spawn(
        workers.iter().map(|w| w.addr()).collect(),
        act_serve::RouterConfig {
            addr: addr.to_string(),
            ..act_serve::RouterConfig::default()
        },
    )
    .expect("spawn router");
    println!(
        "act-route: {} zones across {shards} shards on {} (Ctrl-C drains + exits)",
        ds.polygons.len(),
        router.addr()
    );
    let sig = sigflag::SigFlag::install(sigflag::SIGINT).expect("install SIGINT handler");
    while !sig.is_raised() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("act-route: SIGINT — draining router, then the fleet");
    router.shutdown();
    for (k, w) in workers.into_iter().enumerate() {
        let s = w.shutdown();
        println!(
            "shard {k}: {} probes in {} requests ({} shed)",
            s.probes,
            s.accepted + s.bad_frames,
            s.shed
        );
    }
}

/// `--client`: stream the ride-request workload to a server and print
/// the same zone-demand summary the offline mode computes in-process.
///
/// The stream rides [`act_serve::ResilientClient`]: a `BUSY` accept
/// gate, a `LOADSHED`'s retry-after hint, a contained worker panic
/// (`INTERNAL`), or a dropped connection costs a backoff-and-retry, not
/// the run — fleet clients reconnect, they don't crash.
fn client_mode(addr: &str, num_zones: usize, bbox: geom::Rect) {
    const FRAME: usize = 2048;
    println!("streaming {REQUESTS} requests to act-serve at {addr} over {WORKERS} connections...");
    let start = Instant::now();
    let per_worker = REQUESTS.div_ceil(WORKERS as u64);
    let (demand, processed, last_epoch, retries) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = act_serve::ResilientClient::new(
                        addr,
                        act_serve::RetryPolicy {
                            // Streams are long: shed frames should wait
                            // out the hint rather than give up early.
                            max_attempts: 8,
                            jitter_seed: 0x9E0F + w,
                            ..act_serve::RetryPolicy::default()
                        },
                    )
                    .expect("resolve act-serve address");
                    let gen = PointGen::nyc_taxi_like(bbox, 7);
                    let lo = w * per_worker;
                    let hi = ((w + 1) * per_worker).min(REQUESTS);
                    let mut local = vec![0u64; num_zones];
                    let mut coords = Vec::with_capacity(FRAME);
                    let mut epoch = 0u32;
                    let mut i = lo;
                    while i < hi {
                        coords.clear();
                        coords.extend((i..hi.min(i + FRAME as u64)).map(|k| gen.point_at(k)));
                        let reply = client.probe(&coords, false).expect("probe frame");
                        epoch = reply.epoch;
                        for refs in &reply.refs {
                            for &(id, _) in refs {
                                local[id as usize] += 1;
                            }
                        }
                        i += coords.len() as u64;
                    }
                    (local, hi.saturating_sub(lo), epoch, client.retries())
                })
            })
            .collect();
        let mut demand = vec![0u64; num_zones];
        let mut processed = 0u64;
        let mut epoch = 0u32;
        let mut retries = 0u64;
        for h in handles {
            let (local, n, e, r) = h.join().expect("client worker panicked");
            for (g, l) in demand.iter_mut().zip(&local) {
                *g += l;
            }
            processed += n;
            epoch = epoch.max(e);
            retries += r;
        }
        (demand, processed, epoch, retries)
    });
    let secs = start.elapsed().as_secs_f64();
    print_summary(
        &demand,
        processed,
        secs,
        &format!("served (epoch {last_epoch}, {retries} retried frames)"),
    );
}

fn print_summary(demand: &[u64], processed: u64, secs: f64, how: &str) {
    let mut top: Vec<(usize, u64)> = demand.iter().copied().enumerate().collect();
    top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!(
        "\nprocessed {processed} requests in {secs:.2} s  ({:.1} M req/s, {how})",
        processed as f64 / secs / 1e6
    );
    println!("hottest zones (surge candidates):");
    for (zone, count) in top.iter().take(5) {
        println!("  zone {zone:>4}: {count} requests");
    }
    let total: u64 = demand.iter().sum();
    println!("total matches: {total} (≥ requests: boundary points may match 2 zones)");
}

fn main() {
    // Zones: the neighborhood-like dataset (289 polygons).
    let ds = datagen::neighborhoods(ZONE_SEED);
    // The default path fingerprints the zone set: a different zone
    // count, seed, or ε lands on a different file and cold-builds
    // instead of serving a stale index. ACT_SNAPSHOT overrides.
    let snap_path = std::env::var("ACT_SNAPSHOT").unwrap_or_else(|_| {
        format!(
            "target/geofencing-{}zones-seed{ZONE_SEED}-{PRECISION_M}m.snap",
            ds.polygons.len()
        )
    });

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(1).map(String::as_str).unwrap_or(DEFAULT_ADDR);
            serve_mode(addr, &snap_path, &ds);
            return;
        }
        Some("--client") => {
            let addr = args.get(1).map(String::as_str).unwrap_or(DEFAULT_ADDR);
            client_mode(addr, ds.polygons.len(), ds.bbox);
            return;
        }
        Some("--fleet") => {
            let shards = args
                .get(1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(4);
            let addr = args.get(2).map(String::as_str).unwrap_or(DEFAULT_ADDR);
            fleet_mode(addr, shards, &snap_path, &ds);
            return;
        }
        Some(other) => {
            eprintln!(
                "unknown mode {other}; use --serve [ADDR], --client [ADDR], --fleet [N [ADDR]], or no args"
            );
            std::process::exit(2);
        }
        None => {}
    }

    let index = load_or_build(&snap_path, &ds);
    println!(
        "index: {:.1} MB, ε = {} m",
        index.memory_bytes() as f64 / 1e6,
        index.stats().precision_m
    );

    let num_zones = ds.polygons.len();
    let bbox = ds.bbox;
    let start = Instant::now();

    // Share-nothing workers: stripe w owns requests [w*per, (w+1)*per).
    let per_worker = REQUESTS.div_ceil(WORKERS as u64);
    let (demand, processed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|w| {
                let index = &index;
                scope.spawn(move || {
                    let gen = PointGen::nyc_taxi_like(bbox, 7);
                    let lo = w * per_worker;
                    let hi = ((w + 1) * per_worker).min(REQUESTS);
                    let mut local = vec![0u64; num_zones];
                    let mut cells: Vec<CellId> = Vec::with_capacity(BATCH);
                    let mut i = lo;
                    while i < hi {
                        cells.clear();
                        cells.extend(
                            (i..hi.min(i + BATCH as u64)).map(|k| coord_to_cell(gen.point_at(k))),
                        );
                        act_core::join_approx_cells_batch(
                            index,
                            &cells,
                            &mut local,
                            act_core::DEFAULT_PROBE_BATCH,
                        );
                        i += cells.len() as u64;
                    }
                    (local, hi.saturating_sub(lo))
                })
            })
            .collect();
        let mut demand = vec![0u64; num_zones];
        let mut processed = 0u64;
        for h in handles {
            let (local, n) = h.join().expect("geofencing worker panicked");
            for (g, l) in demand.iter_mut().zip(&local) {
                *g += l;
            }
            processed += n;
        }
        (demand, processed)
    });
    let secs = start.elapsed().as_secs_f64();

    print_summary(
        &demand,
        processed,
        secs,
        &format!("{WORKERS} share-nothing in-process workers"),
    );
}
