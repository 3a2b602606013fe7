//! The hot-cell cache's throughput floor: Zipf(1.1) traffic over a fixed
//! hot set of 65,536 taxi-like points, against two single-worker servers
//! on the same snapshot, one with the cache off and one with it on. On
//! census at 15 m, cache-on must reach ≥ 1.3× cache-off. The 16-layer
//! surge stack is measured too but not gated: its 16 refs per point make
//! the reply encode dominate both sides, so its margin sits within
//! machine noise.
//!
//! ```text
//! cargo test --release -q -p act-tests --test cache_floor -- --ignored --nocapture
//! ```
//!
//! It is `#[ignore]`d and runs in neither the default suite nor CI,
//! because the floor does not hold on every host. It was calibrated on a
//! 1-thread container, where it held. On a shared 2-vCPU VM it held in 1
//! of 3 unpinned runs (1.42×, 1.25×, 1.28×), and with the process pinned
//! to one CPU (`taskset -c 0`) in 0 of 6 (1.15–1.25×). Pinning does not
//! restore it, and the floor is not lowered.
//!
//! Each side is checked before it is timed:
//!
//! * a verification pass sends the whole workload as coordinate frames
//!   and checks every point against the offline probe of the snapshot;
//!   it also warms the mapped pages and, on the cache side, the cache;
//! * cache-off never consults the cache;
//! * cache-on consults it exactly once per measured probe, and hits
//!   more than 90% of the time.
//!
//! The measured reps send pre-encoded cell frames (`FLAG_CELLS`) with
//! three in flight and check each reply's header. So the timed loop is
//! the server's walk or cache lookup, not the client's coordinate→cell
//! or decode, and the worker never idles on the client's turnaround. The
//! reps alternate between the two servers and the best of seven counts,
//! so a slow stretch of the host hits both sides.

use act_core::{coord_to_cell, ActIndex};
use act_serve::{protocol as proto, CacheConfig, Client, CounterBlock, ServeConfig, Server};
use datagen::{Dataset, PointGen};
use geom::Coord;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PRECISION_M: f64 = 15.0;
const SEED: u64 = 42;
const ZIPF_S: f64 = 1.1;
/// Large enough that the skew's cold tail spills the CPU caches the way
/// production traffic does; a tiny hot set would leave even the
/// cacheless walk L1-resident.
const ZIPF_HOT_SET: usize = 65_536;
/// Large frames, so per-frame protocol cost does not dilute the
/// walk-versus-cache difference.
const ZIPF_FRAME: usize = 4_096;
const ZIPF_POINTS: usize = 2_097_152;
const ZIPF_REPS: usize = 7;
/// Frames in flight during a measured rep: enough to keep the worker
/// busy, few enough that in-flight bytes stay well under the socket
/// buffers (a stalled server write plus a stalled client write would
/// deadlock).
const ZIPF_PIPELINE: usize = 3;
const READ_DEADLINE: Duration = Duration::from_secs(30);

/// A seeded Zipf(s) rank sampler over `0..n`: a precomputed CDF,
/// xorshift64* uniforms and a binary search. Both sides draw the same
/// workload.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += ((k + 1) as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf {
            cdf,
            state: seed | 1,
        }
    }

    fn next_rank(&mut self) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One single-worker server, with or without the cache, and a raw
/// stream for its measured reps. [`ZipfBench::start`] runs the
/// verification pass; [`ZipfBench::rep`] is one measured pass.
struct ZipfBench {
    server: act_serve::ServerHandle,
    stream: TcpStream,
    frames: Vec<Vec<u8>>,
    lens: Vec<usize>,
    warm: CounterBlock,
    best_secs: f64,
}

impl ZipfBench {
    fn start(
        path: &std::path::Path,
        hot: &[Coord],
        hot_want: &[proto::PointRefs],
        ranks: &[usize],
        cache: Option<CacheConfig>,
    ) -> ZipfBench {
        let server = Server::spawn(
            path,
            ServeConfig {
                workers: 1,
                watch: None,
                cache,
                ..ServeConfig::default()
            },
        )
        .expect("spawn act-serve");
        let mut client = Client::connect(server.addr()).expect("connect");
        client.set_read_timeout(Some(READ_DEADLINE)).unwrap();
        for chunk in ranks.chunks(ZIPF_FRAME) {
            let coords: Vec<Coord> = chunk.iter().map(|&r| hot[r]).collect();
            let reply = client.probe(&coords, false).expect("verification probe");
            for (&r, got) in chunk.iter().zip(&reply.refs) {
                assert_eq!(*got, hot_want[r], "answer diverged at {}", hot[r]);
            }
        }
        let warm = server.stats();
        let hot_cells: Vec<_> = hot.iter().map(|&c| coord_to_cell(c)).collect();
        let (frames, lens) = ranks
            .chunks(ZIPF_FRAME)
            .map(|chunk| {
                let cells: Vec<_> = chunk.iter().map(|&r| hot_cells[r]).collect();
                (proto::encode_probe_cells_request(&cells), chunk.len())
            })
            .unzip();
        let stream = TcpStream::connect(server.addr()).expect("connect raw");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(READ_DEADLINE)).unwrap();
        ZipfBench {
            server,
            stream,
            frames,
            lens,
            warm,
            best_secs: f64::INFINITY,
        }
    }

    /// Keeps [`ZIPF_PIPELINE`] frames in flight: read reply i, send frame
    /// i + window. Replies come back in request order.
    fn rep(&mut self) {
        let window = ZIPF_PIPELINE.min(self.frames.len());
        let t0 = Instant::now();
        for bytes in &self.frames[..window] {
            self.stream.write_all(bytes).expect("write");
        }
        for (i, &sent) in self.lens.iter().enumerate() {
            let body = proto::read_frame(&mut self.stream, 1 << 26)
                .expect("read")
                .expect("server closed mid-run");
            let (h, _) = proto::decode_response(&body).expect("reply header");
            assert!(
                h.op == proto::OP_PROBE && h.status == proto::STATUS_OK && h.n as usize == sent,
                "frame {i} answered op {} status {} n {} (sent {sent})",
                h.op,
                proto::status_name(h.status),
                h.n
            );
            if let Some(bytes) = self.frames.get(i + window) {
                self.stream.write_all(bytes).expect("write");
            }
        }
        self.best_secs = self.best_secs.min(t0.elapsed().as_secs_f64());
    }

    /// The best rep's time, and the measured reps' counters alone (the
    /// verification pass's cache traffic subtracted).
    fn finish(self) -> (f64, CounterBlock) {
        let mut stats = self.server.stats();
        stats.cache_hits -= self.warm.cache_hits;
        stats.cache_misses -= self.warm.cache_misses;
        self.server.shutdown();
        (self.best_secs, stats)
    }
}

/// One dataset's cache-off versus cache-on comparison; returns cache-on
/// throughput over cache-off.
fn zipf_speedup(ds: &Dataset) -> f64 {
    let index = ActIndex::build(&ds.polygons, PRECISION_M).expect("build index");
    let path = std::env::temp_dir().join(format!(
        "act-cache-floor-{}-{}.snap",
        std::process::id(),
        ds.name
    ));
    let mut bytes = Vec::new();
    index.save_snapshot(&mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();

    let hot = PointGen::nyc_taxi_like(ds.bbox, SEED).take_vec(ZIPF_HOT_SET);
    let hot_want: Vec<_> = hot
        .iter()
        .map(|&p| index.as_view().lookup_refs(p))
        .collect();
    let mut sampler = Zipf::new(hot.len(), ZIPF_S, SEED ^ 0x51_F0ED);
    let ranks: Vec<usize> = (0..ZIPF_POINTS).map(|_| sampler.next_rank()).collect();
    // One shard at full capacity: one worker has nothing to shard for,
    // and a metro-scale dataset's keys share their top bits (the shard
    // selector), so a sharded cache would cram the hot set into one
    // under-sized shard.
    let cache = CacheConfig {
        shards: 1,
        capacity: CacheConfig::default().capacity,
    };
    let mut off = ZipfBench::start(&path, &hot, &hot_want, &ranks, None);
    let mut on = ZipfBench::start(&path, &hot, &hot_want, &ranks, Some(cache));
    for _ in 0..ZIPF_REPS {
        off.rep();
        on.rep();
    }
    let (off_secs, off_stats) = off.finish();
    let (on_secs, on_stats) = on.finish();
    std::fs::remove_file(&path).ok();

    assert_eq!(off_stats.cache_hits + off_stats.cache_misses, 0);
    let consults = on_stats.cache_hits + on_stats.cache_misses;
    assert_eq!(
        consults / ZIPF_REPS as u64,
        ZIPF_POINTS as u64,
        "one cache consult per probe"
    );
    let hit_rate = on_stats.cache_hits as f64 / consults as f64;
    assert!(hit_rate > 0.9, "hot-set hit rate {hit_rate:.3} too low");
    let speedup = off_secs / on_secs;
    println!(
        "zipf[{}]: cache off {:.2} M probes/s vs cache on {:.2} M probes/s — {speedup:.2}x, \
         hit rate {:.2}%",
        ds.name,
        ZIPF_POINTS as f64 / off_secs / 1e6,
        ZIPF_POINTS as f64 / on_secs / 1e6,
        hit_rate * 100.0
    );
    speedup
}

#[test]
#[ignore = "host-dependent throughput floor; run with --release -- --ignored"]
fn census_cache_on_is_at_least_1_3x_cache_off() {
    let census = zipf_speedup(&datagen::census_blocks(SEED));
    zipf_speedup(&datagen::surge_zones(SEED, 16, 8, 8));
    assert!(
        census >= 1.3,
        "[census] cache-on throughput only {census:.2}x cache-off — below the 1.3x floor"
    );
}
