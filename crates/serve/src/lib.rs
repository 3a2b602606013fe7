//! # act-serve — the ACT as an online geofencing service
//!
//! The paper's pitch is that an Adaptive Cell Trie makes point-in-polygon
//! joins cheap enough to answer **online**. This crate is that last
//! mile: a TCP server (std::net only — no async runtime, no new deps)
//! that answers batched coordinate→polygon-id probes out of a
//! memory-mapped index snapshot, with two production-shaped properties
//! layered on top:
//!
//! * **Adaptive micro-batching** — connection readers enqueue decoded
//!   requests on a shared queue; probe workers drain it until empty (up
//!   to a 256-lane budget) and answer each micro-batch with one
//!   level-synchronous [`lookup_batch`](act_core::Act::lookup_batch)
//!   walk. Light load degenerates to per-request dispatch; heavy load
//!   widens batches automatically.
//! * **Epoch hot-swap** — the serving snapshot lives behind an
//!   epoch-counted [`IndexStore`]; a watcher polls the snapshot path and
//!   swaps validated replacements in. In-flight batches finish on the
//!   old index (their `Arc` pins the old mapping), new batches see the
//!   new one, and responses echo the answering epoch so clients can
//!   observe the cutover. Restarts — and now live reloads — ship
//!   snapshots, not polygon sets. Small edits ship as `ACTDLT01`
//!   **delta files** beside the base snapshot: the watcher validates
//!   each against the lineage cursor, applies it to the live index in
//!   milliseconds (no base remap), and periodically folds the chain
//!   into a fresh base (see [`swap`]).
//! * **Admission control & graceful drain** — the probe queue is
//!   bounded in lanes; overflow is answered immediately with `LOADSHED`
//!   (never dropped, never queued). Per-connection in-flight caps turn a
//!   slow reader's backlog into TCP backpressure on that client alone, a
//!   connection cap answers `BUSY` at the accept gate, and
//!   [`ServerHandle::shutdown`] drains: stop accepting, answer every
//!   accepted frame, flush (for at most a fixed 5 s per connection),
//!   join. Counters for all of it ride the PING reply and the STATS
//!   frame ([`protocol::CounterBlock`]).
//! * **Horizontal scale-out** — [`act_core::write_shard_files`] splits
//!   one snapshot into N per-shard snapshots, N workers each serve one,
//!   and a scatter-gather [`Router`] speaks the same frame protocol in
//!   front of them: probe batches partition by shard, fan out over
//!   pooled [`ResilientClient`]s, and stitch back in request order with
//!   merged counters and drain/fault-aware per-shard circuit breaking
//!   (see [`router`]). The router meets its clients through the
//!   server's own connection front end: the same accept gate, request
//!   reader, malformed-frame close and drain deadline.
//!
//! See [`protocol`] for the frame layout, [`server`] for the threading
//! model and overload semantics, and the repo README's "Serving" section
//! for the operator story (atomic snapshot replacement, exact-mode
//! contract, overload behavior & shutdown).
//!
//! ```no_run
//! use act_serve::{Client, ServeConfig, Server};
//! use geom::Coord;
//!
//! let server = Server::spawn("target/zones.snap", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.probe(&[Coord::new(-73.9855, 40.7580)], false).unwrap();
//! println!("epoch {}: {:?}", reply.epoch, reply.refs[0]);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
mod conn;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod obs;
pub mod protocol;
pub mod router;
pub mod server;
pub mod swap;

pub use cache::{CacheConfig, HotCellCache};
pub use client::{Client, ClientError, ResilientClient, RetryPolicy};
pub use obs::{ObsConfig, PipelineObs};
pub use protocol::{CounterBlock, PingReply, ProbeReply, StatsExReply};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{ServeConfig, ServeError, Server, ServerHandle};
pub use swap::{delta_path, IndexStore, ServeIndex, WatchCounters, FOLD_AFTER_DELTAS};

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Coord, Polygon, Ring};

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

    fn snap_file(name: &str, polys: &[Polygon]) -> (std::path::PathBuf, act_core::ActIndex) {
        let idx = act_core::ActIndex::build(polys, 15.0).unwrap();
        let mut bytes = Vec::new();
        idx.save_snapshot(&mut bytes).unwrap();
        let mut p = std::env::temp_dir();
        p.push(format!("act-serve-test-{}-{name}.snap", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        (p, idx)
    }

    /// Runs `check` against a server, then against a one-shard router in
    /// front of a fresh worker, each endpoint capped at `max_connections`.
    /// `check` gets the server's handle on the first run, `None` on the
    /// router run.
    fn on_both_endpoints(
        name: &str,
        max_connections: usize,
        check: impl Fn(std::net::SocketAddr, Option<&ServerHandle>),
    ) {
        let (path, _idx) = snap_file(name, &[square(-74.0, 40.7, 0.02)]);
        let config = || ServeConfig {
            watch: None,
            ..ServeConfig::default()
        };
        let server = Server::spawn(
            &path,
            ServeConfig {
                max_connections,
                ..config()
            },
        )
        .unwrap();
        check(server.addr(), Some(&server));
        server.shutdown();
        let worker = Server::spawn(&path, config()).unwrap();
        let router = Router::spawn(
            vec![worker.addr()],
            RouterConfig {
                max_connections,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        check(router.addr(), None);
        router.shutdown();
        worker.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn probe_ping_and_shutdown() {
        let polys = vec![square(-74.05, 40.70, 0.02), square(-73.95, 40.70, 0.02)];
        let (path, idx) = snap_file("roundtrip", &polys);
        let server = Server::spawn(
            &path,
            ServeConfig {
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        let mut client = Client::connect(server.addr()).unwrap();
        let coords: Vec<Coord> = (0..500)
            .map(|k| Coord::new(-74.1 + 0.0004 * k as f64, 40.70))
            .collect();
        let reply = client.probe(&coords, false).unwrap();
        assert_eq!(reply.epoch, 1);
        assert_eq!(reply.refs.len(), coords.len());
        for (c, got) in coords.iter().zip(&reply.refs) {
            assert_eq!(*got, idx.as_view().lookup_refs(*c), "at {c}");
        }

        let ping = client.ping().unwrap();
        assert_eq!(ping.epoch, 1);
        // The PING payload carries the full counter block.
        assert_eq!(ping.counters.probes, coords.len() as u64);
        assert_eq!(ping.counters.shed, 0);
        assert_eq!(ping.counters.swaps, 0);
        assert!(ping.counters.queue_high_water_lanes <= coords.len() as u64);

        // STATS carries PING's block (plus the frames exchanged
        // meanwhile) and the histogram section, empty with obs off.
        let stats_reply = client.stats_ex().unwrap();
        assert!(stats_reply.histograms.is_empty());
        assert_eq!(stats_reply.epoch, 1);
        assert_eq!(stats_reply.counters.probes, coords.len() as u64);
        assert_eq!(stats_reply.counters.accepted, 3);

        let stats = server.stats();
        assert_eq!(stats.probes, coords.len() as u64);
        assert_eq!(stats.accepted + stats.bad_frames, 3);
        assert!(stats.batches >= 1);
        assert_eq!(stats.accepted, stats.answered + stats.shed);
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn full_queue_sheds_with_loadshed_and_connection_survives() {
        let (path, _idx) = snap_file("shed", &[square(-74.0, 40.7, 0.02)]);
        // Depth 0: every non-empty probe frame overflows the queue —
        // the degenerate config that makes shedding deterministic.
        let server = Server::spawn(
            &path,
            ServeConfig {
                queue_depth_lanes: 0,
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let pts = [Coord::new(-74.0, 40.7)];
        for _ in 0..3 {
            match client.probe(&pts, false) {
                Err(ClientError::Server {
                    status,
                    retry_after_ms,
                }) => {
                    assert_eq!(status, protocol::STATUS_LOADSHED);
                    // A shed reply tells the client when to come back.
                    let hint = retry_after_ms.expect("LOADSHED must carry a retry hint");
                    assert!(
                        (protocol::RETRY_AFTER_MIN_MS..=protocol::RETRY_AFTER_MAX_MS)
                            .contains(&hint)
                    );
                }
                other => panic!("expected LOADSHED, got {other:?}"),
            }
        }
        // The connection stays open and PING still answers.
        let ping = client.ping().unwrap();
        assert_eq!(ping.counters.shed, 3);
        assert_eq!(
            ping.counters.accepted,
            ping.counters.answered + ping.counters.shed
        );
        let stats = server.stats();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.queue_high_water_lanes, 0);
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn connection_cap_answers_busy_and_frees_on_close() {
        on_both_endpoints("busy", 1, |addr, server| {
            use std::io::Read;
            let mut first = Client::connect(addr).unwrap();
            // Force the first connection through the accept loop before the
            // second one races it for the single slot.
            first.ping().unwrap();

            let mut second = std::net::TcpStream::connect(addr).unwrap();
            second
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let body = protocol::read_frame(&mut second, 1 << 20).unwrap().unwrap();
            let (h, _) = protocol::decode_response(&body).unwrap();
            assert_eq!(h.status, protocol::STATUS_BUSY);
            assert_eq!(h.op, 0, "BUSY has no request to echo");
            // …and the connection is closed right after the BUSY frame.
            let mut rest = Vec::new();
            assert_eq!(second.read_to_end(&mut rest).unwrap(), 0);
            if let Some(server) = server {
                assert!(server.stats().busy >= 1);
            }

            // The typed Client surfaces BUSY as a server status (op 0 must
            // not trip the op-echo check).
            let mut third = Client::connect(addr).unwrap();
            match third.ping() {
                Err(ClientError::Server {
                    status,
                    retry_after_ms,
                }) => {
                    assert_eq!(status, protocol::STATUS_BUSY);
                    assert!(retry_after_ms.is_some(), "BUSY must carry a retry hint");
                }
                other => panic!("expected BUSY through the Client, got {other:?}"),
            }

            // Closing the served connection frees the slot.
            drop(first);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let mut again = loop {
                let mut c = Client::connect(addr).unwrap();
                match c.ping() {
                    Ok(_) => break c,
                    Err(_) => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "slot was never released"
                        );
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
            };
            assert_eq!(
                again
                    .probe(&[Coord::new(-74.0, 40.7)], false)
                    .unwrap()
                    .refs
                    .len(),
                1
            );
        });
    }

    #[test]
    fn exact_mode_refines_and_needs_a_refiner() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        let (path, idx) = snap_file("exact", &polys);
        // Without a refiner: EXACT is a typed server status.
        let server = Server::spawn(
            &path,
            ServeConfig {
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let pts = [Coord::new(-74.0, 40.7)];
        match client.probe(&pts, true) {
            Err(ClientError::Server { status, .. }) => {
                assert_eq!(status, protocol::STATUS_UNSUPPORTED)
            }
            other => panic!("expected UNSUPPORTED, got {other:?}"),
        }
        // The connection stays usable afterwards.
        assert_eq!(client.probe(&pts, false).unwrap().refs.len(), 1);
        server.shutdown();

        // With a refiner: exact answers equal join_exact's memberships.
        let refiner = act_core::Refiner::new(&polys);
        let server = Server::spawn(
            &path,
            ServeConfig {
                refiner: Some(act_core::Refiner::new(&polys)),
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // Points straddling the boundary: some inside, some within ε
        // outside (candidates that exact mode must reject).
        let coords: Vec<Coord> = (0..200)
            .map(|k| Coord::new(-74.02 + 0.0002 * k as f64, 40.7))
            .collect();
        let reply = client.probe(&coords, true).unwrap();
        for (c, got) in coords.iter().zip(&reply.refs) {
            let want: Vec<(u32, bool)> = idx
                .as_view()
                .lookup_refs(*c)
                .into_iter()
                .filter(|&(id, interior)| interior || refiner.contains(id, *c))
                .map(|(id, _)| (id, true))
                .collect();
            assert_eq!(*got, want, "at {c}");
        }
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_frame_gets_bad_request_then_close() {
        use std::io::{Read, Write};
        let max_connections = ServeConfig::default().max_connections;
        on_both_endpoints("badframe", max_connections, |addr, _| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            // A header-only body with an unknown op.
            let mut frame = Vec::new();
            frame.extend_from_slice(&8u32.to_le_bytes());
            frame.extend_from_slice(&[99, 0, 0, 0, 0, 0, 0, 0]);
            stream.write_all(&frame).unwrap();
            let body = protocol::read_frame(&mut stream, 1 << 20).unwrap().unwrap();
            let (h, _) = protocol::decode_response(&body).unwrap();
            assert_eq!(h.status, protocol::STATUS_BAD_REQUEST);
            assert_eq!(h.op, 99, "the reject echoes the request's op");
            // The endpoint closes after a bad frame.
            let mut rest = Vec::new();
            assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        });
    }

    #[test]
    fn concurrent_connections_share_micro_batches() {
        let polys = vec![square(-74.05, 40.70, 0.02), square(-73.95, 40.70, 0.02)];
        let (path, idx) = snap_file("concurrent", &polys);
        let server = Server::spawn(
            &path,
            ServeConfig {
                workers: 2,
                watch: None,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let idx = std::sync::Arc::new(idx);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let idx = std::sync::Arc::clone(&idx);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for round in 0..20 {
                        let coords: Vec<Coord> = (0..37)
                            .map(|k| {
                                Coord::new(-74.1 + 0.0007 * (k + t * 37 + round) as f64, 40.70)
                            })
                            .collect();
                        let reply = client.probe(&coords, false).unwrap();
                        for (c, got) in coords.iter().zip(&reply.refs) {
                            assert_eq!(*got, idx.as_view().lookup_refs(*c), "at {c}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.probes, 4 * 20 * 37);
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }
}
