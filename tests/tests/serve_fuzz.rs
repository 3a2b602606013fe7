//! Deterministic protocol fuzzing against a live act-serve and a live
//! router: a seeded RNG generates ≥500 malformed frames — truncations,
//! oversized length prefixes, garbage opcodes, bad flags/reserved bytes,
//! point-count mismatches, non-finite coordinates, mid-frame
//! disconnects — and fires each at the endpoint on its own connection.
//! Both endpoints face the same corpus. The contract under attack:
//!
//! * the endpoint never panics and never wedges (every read here carries
//!   a deadline, so a wedge fails the test instead of hanging it);
//! * every malformed frame is answered with a **typed** `BAD_REQUEST`
//!   (then close) or met with a clean close — never garbage, never
//!   silence on an intact connection;
//! * a concurrent well-formed connection keeps getting byte-correct
//!   answers the whole time, and the server still serves after the last
//!   attack.

use act_core::{write_shard_files, ActIndex};
use act_serve::{protocol as proto, Client, Router, RouterConfig, ServeConfig, Server};
use geom::Coord;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// splitmix64: tiny, seeded, deterministic — the same generator the
/// vendored proptest uses, reimplemented here so the fuzz corpus is
/// fixed by the seed below and nothing else.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

const FUZZ_CASES: usize = 520;
const SEED: u64 = 0x0AC7_5EED;

fn snap_file(name: &str) -> (std::path::PathBuf, ActIndex) {
    let ds = datagen::blocks_scaled(3, 2, 11);
    let idx = ActIndex::build(&ds.polygons, 60.0).unwrap();
    let mut bytes = Vec::new();
    idx.save_snapshot(&mut bytes).unwrap();
    let mut p = std::env::temp_dir();
    p.push(format!("act-fuzz-{}-{name}.snap", std::process::id()));
    std::fs::write(&p, bytes).unwrap();
    (p, idx)
}

/// A fresh attack connection with a read deadline (a wedged server fails
/// fast instead of hanging the suite).
fn attack_conn(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// True for the error kinds a vanished TCP peer legitimately produces
/// on the next read (used only by `expect_clean_close`, where the client
/// side tears down mid-frame).
fn is_close(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

/// Asserts the server answered exactly one BAD_REQUEST frame and then
/// closed the connection cleanly. The server drains any unread request
/// bytes before closing, so the close is a FIN and the reject frame is
/// always delivered intact — even for frames it rejected without reading
/// fully (e.g. an oversized length prefix). An RST here is a bug.
fn expect_bad_request_then_close(mut s: TcpStream, what: &str) {
    let body = match proto::read_frame(&mut s, 1 << 20) {
        Ok(Some(body)) => body,
        Ok(None) => panic!("{what}: server closed without a typed reject"),
        Err(e) => panic!("{what}: reading the reject failed: {e}"),
    };
    let (h, _) = proto::decode_response(&body).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        h.status,
        proto::STATUS_BAD_REQUEST,
        "{what}: expected BAD_REQUEST, got {}",
        proto::status_name(h.status)
    );
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "{what}: server must close after a bad frame"),
        Err(e) => panic!("{what}: post-reject read failed (RST instead of FIN?): {e}"),
    }
}

/// Asserts the server closed the connection without sending anything
/// (the reaction to a frame that never structurally completed).
fn expect_clean_close(mut s: TcpStream, what: &str) {
    s.shutdown(std::net::Shutdown::Write).ok();
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "{what}: expected a clean close, got {n} bytes"),
        Err(e) if is_close(e.kind()) => {}
        Err(e) => panic!("{what}: close-side read failed: {e}"),
    }
}

/// One well-formed probe on a fresh connection, verified against the
/// offline index — the "is the server still sane" pulse.
fn assert_still_serving(addr: std::net::SocketAddr, idx: &ActIndex, grid: &[Coord]) {
    let mut c = Client::connect(addr).expect("post-attack connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply = c.probe(grid, false).expect("post-attack probe");
    for (pt, got) in grid.iter().zip(&reply.refs) {
        assert_eq!(
            *got,
            idx.as_view().lookup_refs(*pt),
            "post-attack divergence at {pt}"
        );
    }
}

#[test]
fn seeded_malformed_frames_never_panic_never_wedge_never_disturb() {
    let (path, idx) = snap_file("fuzz");
    let server = Server::spawn(
        &path,
        ServeConfig {
            watch: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    fuzz_endpoint(server.addr(), &idx);

    // Counters coherent, nothing shed (the attack never fills the
    // default queue) and plenty rejected.
    let stats = server.stats();
    assert!(
        stats.bad_frames >= (FUZZ_CASES / 3) as u64,
        "most categories must have produced typed rejects (got {})",
        stats.bad_frames
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The same corpus against a router at split level 10 over two shards
/// cut from the same index: routed answers equal the unsharded index,
/// so the sentinel and the post-attack oracle are unchanged.
#[test]
fn seeded_malformed_frames_never_panic_never_wedge_never_disturb_a_router() {
    let (path, idx) = snap_file("fuzz-router");
    let mut dir = std::env::temp_dir();
    dir.push(format!("act-fuzz-{}-router", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let workers: Vec<_> = write_shard_files(&idx, &dir, 10, 2)
        .unwrap()
        .iter()
        .map(|p| {
            let config = ServeConfig {
                watch: None,
                ..ServeConfig::default()
            };
            Server::spawn(p, config).unwrap()
        })
        .collect();
    let router = Router::spawn(
        workers.iter().map(|w| w.addr()).collect(),
        RouterConfig {
            split_level: 10,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    fuzz_endpoint(router.addr(), &idx);

    // The fleet's merged books: nothing shed, every accepted frame
    // answered.
    let mut c = Client::connect(router.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let fleet = c.stats_ex().expect("fleet STATS").counters;
    assert_eq!(fleet.shed, 0);
    assert_eq!(fleet.accepted, fleet.answered + fleet.shed);
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// Fires the seeded corpus at the endpoint at `addr` while a sentinel
/// connection probes continuously, then checks the endpoint still
/// answers like `idx`.
fn fuzz_endpoint(addr: std::net::SocketAddr, idx: &ActIndex) {
    let ds = datagen::blocks_scaled(3, 2, 11);
    let (lo, hi) = (ds.bbox.min, ds.bbox.max);
    let grid: Vec<Coord> = (0..48)
        .map(|k| {
            Coord::new(
                lo.x + (hi.x - lo.x) * (k % 8) as f64 / 7.0,
                lo.y + (hi.y - lo.y) * (k / 8) as f64 / 5.0,
            )
        })
        .collect();

    // The concurrent well-formed connection: probes continuously while
    // the fuzzer attacks, verifying every answer. A panic in here
    // propagates through the join below.
    let stop = AtomicBool::new(false);
    let sentinel_rounds = std::thread::scope(|scope| {
        // Stop the sentinel even if a fuzz-case assertion unwinds:
        // without this, the scope's implicit join waits on a sentinel
        // that never got the stop signal and the panic masquerades as a
        // hang.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _stop_guard = StopOnDrop(&stop);
        let sentinel = {
            let (stop, grid) = (&stop, &grid);
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("sentinel connect");
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let reply = c.probe(grid, false).expect("sentinel probe");
                    for (pt, got) in grid.iter().zip(&reply.refs) {
                        assert_eq!(
                            *got,
                            idx.as_view().lookup_refs(*pt),
                            "sentinel divergence at {pt}"
                        );
                    }
                    rounds += 1;
                    // Throttle: the point is continuous coverage, not
                    // load — an unthrottled spin starves the fuzzer on a
                    // single-core machine and turns a 2 s suite into
                    // minutes.
                    std::thread::sleep(Duration::from_millis(2));
                }
                rounds
            })
        };

        let mut rng = Rng(SEED);
        for case in 0..FUZZ_CASES {
            let what = format!("case {case}");
            match rng.below(9) {
                // Garbage body under a correct length prefix, op forced
                // invalid so the expectation is deterministic.
                0 => {
                    let n = rng.below(64) as usize + 1;
                    let mut body = rng.bytes(n);
                    body[0] = 5 + (rng.next() as u8 % 249); // op ∉ {1,2,3,4}
                    let mut s = attack_conn(addr);
                    let mut f = (body.len() as u32).to_le_bytes().to_vec();
                    f.extend_from_slice(&body);
                    s.write_all(&f).unwrap();
                    if body.len() >= proto::REQ_HEADER_LEN {
                        expect_bad_request_then_close(s, &format!("{what}: garbage op"));
                    } else {
                        // Shorter than a header is also a typed reject.
                        expect_bad_request_then_close(s, &format!("{what}: short body"));
                    }
                }
                // Truncated frame: the length prefix promises more than
                // is ever sent; the connection just ends mid-frame.
                1 => {
                    let promised = rng.below(2048) as usize + 8;
                    let sent = rng.below(promised as u64) as usize;
                    let mut s = attack_conn(addr);
                    let mut f = (promised as u32).to_le_bytes().to_vec();
                    f.extend_from_slice(&rng.bytes(sent));
                    s.write_all(&f).unwrap();
                    expect_clean_close(s, &format!("{what}: truncated frame"));
                }
                // Oversized length prefix: rejected before any
                // allocation, typed, then close.
                2 => {
                    let over = proto::MAX_REQ_BODY as u64
                        + 1
                        + rng.below(u32::MAX as u64 - proto::MAX_REQ_BODY as u64);
                    let mut s = attack_conn(addr);
                    let mut f = (over as u32).to_le_bytes().to_vec();
                    f.extend_from_slice(&rng.bytes(16));
                    s.write_all(&f).unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: oversized length"));
                }
                // Unknown opcode in an otherwise perfect header.
                3 => {
                    let mut f = proto::encode_ping_request();
                    f[4] = 5 + (rng.next() as u8 % 249); // op ∉ {1,2,3,4}
                    let mut s = attack_conn(addr);
                    s.write_all(&f).unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: unknown op"));
                }
                // Point count disagreeing with the body length.
                4 => {
                    let k = rng.below(16) as usize + 1;
                    let coords: Vec<Coord> = (0..k).map(|i| Coord::new(i as f64, 0.0)).collect();
                    let mut f = proto::encode_probe_request(&coords, false);
                    // Lie about n (offset 8..12 in the frame).
                    let lie = (k as u32).wrapping_add(1 + rng.below(100) as u32);
                    f[8..12].copy_from_slice(&lie.to_le_bytes());
                    let mut s = attack_conn(addr);
                    s.write_all(&f).unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: count mismatch"));
                }
                // Non-finite coordinates.
                5 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
                    let mut coords = vec![Coord::new(0.0, 0.0); rng.below(8) as usize + 1];
                    let at = rng.below(coords.len() as u64) as usize;
                    coords[at] = Coord::new(bad, 0.0);
                    let mut s = attack_conn(addr);
                    s.write_all(&proto::encode_probe_request(&coords, false))
                        .unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: non-finite coord"));
                }
                // Reserved bytes / unknown flag bits set.
                6 => {
                    let mut f = proto::encode_probe_request(&[Coord::new(0.0, 0.0)], false);
                    if rng.below(2) == 0 {
                        f[6 + rng.below(2) as usize] = 1 + rng.next() as u8 % 255;
                    } else {
                        f[5] |= 2 << rng.below(7); // any flag beyond EXACT
                    }
                    let mut s = attack_conn(addr);
                    s.write_all(&f).unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: reserved/flags"));
                }
                // Mid-frame disconnect: a valid frame cut anywhere, then
                // the socket is dropped entirely.
                7 => {
                    let coords: Vec<Coord> = (0..rng.below(32) + 1)
                        .map(|i| Coord::new(i as f64 * 0.001, 0.0))
                        .collect();
                    let f = proto::encode_probe_request(&coords, false);
                    let cut = rng.below(f.len() as u64 - 1) as usize + 1;
                    let mut s = attack_conn(addr);
                    s.write_all(&f[..cut]).unwrap();
                    drop(s); // no FIN-then-read: just vanish
                }
                // A valid frame answered correctly, THEN garbage on the
                // same connection: the good answer must arrive first.
                _ => {
                    let mut s = attack_conn(addr);
                    let probe: Vec<Coord> =
                        grid[..rng.below(grid.len() as u64) as usize + 1].to_vec();
                    s.write_all(&proto::encode_probe_request(&probe, false))
                        .unwrap();
                    let body = proto::read_frame(&mut s, 1 << 20)
                        .expect("valid-frame read")
                        .expect("valid frame must be answered");
                    let (h, payload) = proto::decode_response(&body).unwrap();
                    assert_eq!(
                        h.status,
                        proto::STATUS_OK,
                        "{what}: valid frame pre-garbage"
                    );
                    let refs = proto::decode_probe_payload(h.n, payload).unwrap();
                    for (pt, got) in probe.iter().zip(&refs) {
                        assert_eq!(*got, idx.as_view().lookup_refs(*pt), "{what}: at {pt}");
                    }
                    let mut junk = proto::encode_ping_request();
                    junk[4] = 0; // op 0 is invalid
                    s.write_all(&junk).unwrap();
                    expect_bad_request_then_close(s, &format!("{what}: garbage after valid"));
                }
            }
            // A periodic pulse through a fresh, fully well-formed
            // connection (cheap; catches a wedge early with a case id).
            if case % 64 == 0 {
                assert_still_serving(addr, idx, &grid);
            }
        }
        stop.store(true, Ordering::Release);
        sentinel.join().expect("sentinel must never fail")
    });
    assert!(
        sentinel_rounds > 0,
        "the well-formed connection must have made progress during the attack"
    );

    // Post-attack: still serving.
    assert_still_serving(addr, idx, &grid);
}

/// Mid-reply socket resets: clients pipeline several fat probe frames
/// (large replies), let the server start writing, then vanish with
/// reply bytes still undelivered — the close-with-unread-data turns
/// into an RST against the server's writer. The server must shrug off
/// every reset (EPIPE/ECONNRESET on its write path), keep its books
/// (`accepted = answered + shed` — answers to vanished peers still
/// count as answered), and keep serving everyone else.
#[test]
fn mid_reply_resets_never_wedge_and_books_stay_balanced() {
    let (path, idx) = snap_file("resets");
    let server = Server::spawn(
        &path,
        ServeConfig {
            watch: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let ds = datagen::blocks_scaled(3, 2, 11);
    let (lo, hi) = (ds.bbox.min, ds.bbox.max);
    let grid: Vec<Coord> = (0..48)
        .map(|k| {
            Coord::new(
                lo.x + (hi.x - lo.x) * (k % 8) as f64 / 7.0,
                lo.y + (hi.y - lo.y) * (k / 8) as f64 / 5.0,
            )
        })
        .collect();
    // A fat frame: 2000 points → a multi-KB reply the kernel cannot
    // hand over in one piece once the receive window is ignored.
    let fat: Vec<Coord> = (0..2000)
        .map(|k| {
            Coord::new(
                lo.x + (hi.x - lo.x) * (k % 50) as f64 / 49.0,
                lo.y + (hi.y - lo.y) * (k / 50) as f64 / 39.0,
            )
        })
        .collect();
    let fat_frame = proto::encode_probe_request(&fat, false);

    let mut rng = Rng(SEED ^ 0x5E7);
    for round in 0..40 {
        let mut s = attack_conn(addr);
        // Pipeline 1..4 fat frames, never read a byte of the replies.
        for _ in 0..rng.below(4) + 1 {
            s.write_all(&fat_frame).unwrap();
        }
        // Give the server a beat to start (or finish) writing replies
        // into our receive buffer, then vanish: closing with unread
        // data pending makes the OS send RST, not FIN.
        std::thread::sleep(Duration::from_millis(rng.below(3)));
        drop(s);
        if round % 8 == 0 {
            assert_still_serving(addr, &idx, &grid);
        }
    }

    assert_still_serving(addr, &idx, &grid);
    let stats = server.shutdown();
    assert_eq!(
        stats.accepted,
        stats.answered + stats.shed,
        "replies to vanished peers must still be accounted answered"
    );
    assert_eq!(stats.shed, 0);
    std::fs::remove_file(&path).unwrap();
}

/// A non-atomic delta writer caught between polls: the file at the
/// delta path keeps growing while the watcher looks at it. The
/// stability gate (same signature across two consecutive polls) must
/// hold the watcher off the whole time — no premature apply, no
/// quarantine of a file still being written, epoch pinned — and the
/// moment the writer finishes and the file goes quiet, the delta
/// applies. A *stalled* writer (half a file, then silence) is the
/// opposite case: that file IS stable, fails to parse, and must be
/// quarantined so the slot frees up for a good rewrite.
#[test]
fn half_written_delta_between_polls_applies_only_once_complete() {
    use act_core::{header_checksum, save_delta_file, DeltaLink, DeltaOp};
    use act_serve::delta_path;

    let (path, idx) = snap_file("torn");
    let base_sum = header_checksum(&std::fs::read(&path).unwrap()).unwrap();
    let server = Server::spawn(
        &path,
        ServeConfig {
            // Long interval relative to the writer's 3 ms append cadence:
            // two consecutive polls can never see the growing file quiet.
            watch: Some(Duration::from_millis(200)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let ds = datagen::blocks_scaled(3, 2, 11);
    let inside = Coord::new(
        (ds.bbox.min.x + ds.bbox.max.x) / 2.0,
        (ds.bbox.min.y + ds.bbox.max.y) / 2.0,
    );
    let frame = [inside];
    let want = idx.as_view().lookup_refs(inside);

    // The delta: remove every polygon the probe point matches (so the
    // apply is observable), serialized to bytes we can tear at will.
    let mut tmp = std::env::temp_dir();
    tmp.push(format!("act-fuzz-{}-torn-delta.tmp", std::process::id()));
    let ops: Vec<DeltaOp> = want.iter().map(|&(id, _)| DeltaOp::Remove { id }).collect();
    assert!(!ops.is_empty(), "probe point must start inside a polygon");
    save_delta_file(&ops, DeltaLink::for_base(base_sum), &tmp).unwrap();
    let delta_bytes = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    let dpath = delta_path(&path, 1);
    let qpath = {
        let mut name = dpath.file_name().unwrap().to_os_string();
        name.push(".quarantine");
        dpath.with_file_name(name)
    };

    // Slow-writer phase: the file grows a sliver every 20 ms for
    // ~800 ms — spanning four 200 ms polls — straight at the watched
    // path (no write-then-rename; this test IS the misbehaving writer
    // the rename discipline exists to avoid). Growth changes the file
    // length, so no two consecutive polls ever see the same signature.
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&dpath).unwrap();
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let sliver = delta_bytes.len().div_ceil(40).max(1);
        for chunk in delta_bytes.chunks(sliver) {
            f.write_all(chunk).unwrap();
            f.flush().unwrap();
            let reply = client
                .probe(&frame, false)
                .expect("probe during torn write");
            assert_eq!(
                reply.epoch, 1,
                "a growing delta file must never be applied mid-write"
            );
            assert_eq!(reply.refs[0], want, "answers must be pinned mid-write");
            assert!(
                !qpath.exists(),
                "a growing delta file must not be quarantined"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Writer finished; the file goes quiet and the next two polls see
    // it stable → applied.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "completed delta was not applied"
        );
        let reply = client.probe(&frame, false).expect("probe across apply");
        if reply.epoch == 2 {
            assert!(
                reply.refs[0].is_empty(),
                "the delta removed these polygons; epoch 2 must reflect that"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Stalled-writer phase at the next sequence: half a file, then
    // silence. Stable + unparseable → quarantined; serving holds.
    let d2 = delta_path(&path, 2);
    let q2 = {
        let mut name = d2.file_name().unwrap().to_os_string();
        name.push(".quarantine");
        d2.with_file_name(name)
    };
    std::fs::write(&d2, &delta_bytes[..delta_bytes.len() / 2]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !q2.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled half-written delta was not quarantined"
        );
        let reply = client.probe(&frame, false).expect("probe during stall");
        assert_eq!(
            reply.epoch, 2,
            "a stalled torn delta must not move the epoch"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.quarantines, 1,
        "exactly the stalled file is quarantined"
    );
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    std::fs::remove_file(&q2).unwrap();
    std::fs::remove_file(&path).unwrap();
}
