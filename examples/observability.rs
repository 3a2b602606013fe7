//! Observability: watching the serving pipeline work, stage by stage.
//!
//! Builds a small zone index, serves it with the observability pipeline
//! on (`ServeConfig::obs`), drives a burst of probe traffic, and then
//! reads the system back through all three windows:
//!
//! 1. **Stage histograms over the wire** — a STATS read
//!    (`Client::stats_ex`) returns per-stage latency distributions
//!    (queue wait → walk → refine → write → frame total) plus the
//!    batch-width and probe-depth histograms; the example prints a
//!    p50/p90/p99/p999 table.
//! 2. **Sampled traces** — the DUMP op drains the seeded 1-in-N trace
//!    ring as JSON lines (admissions here; sheds, swaps, delta applies
//!    and quarantines in a live deployment).
//! 3. **`/metrics`** — a Prometheus text scrape from the exposition
//!    listener, the exact bytes a scraper would ingest.
//!
//! ```text
//! cargo run --release -p act-examples --example observability
//! ```
//!
//! Against a real deployment the same windows come from
//! `act-serve --metrics-addr` / `act-route --metrics-addr`, which also
//! drain the trace ring to stdout on SIGINT.

use act_core::{ActIndex, Refiner};
use act_serve::{protocol as proto, Client, ObsConfig, ServeConfig, Server};
use datagen::PointGen;
use geom::{Coord, Polygon, Rect, Ring};

const ZONES_PER_SIDE: usize = 12;
const FRAMES: usize = 400;
const LANES: usize = 64;

/// A 12×12 checkerboard of square pricing zones over an NYC-sized bbox.
fn grid_zones(x0: f64, y0: f64, span: f64, n: usize) -> Vec<Polygon> {
    let step = span / n as f64;
    let half = step * 0.42; // gaps between zones → real misses
    (0..n * n)
        .map(|k| {
            let cx = x0 + step * (0.5 + (k % n) as f64);
            let cy = y0 + step * (0.5 + (k / n) as f64);
            Polygon::new(
                Ring::new(vec![
                    Coord::new(cx - half, cy - half),
                    Coord::new(cx + half, cy - half),
                    Coord::new(cx + half, cy + half),
                    Coord::new(cx - half, cy + half),
                ]),
                vec![],
            )
        })
        .collect()
}

fn main() {
    let zones = grid_zones(-74.05, 40.60, 0.30, ZONES_PER_SIDE);
    let index = ActIndex::build(&zones, 15.0).expect("build index");
    let dir = std::env::temp_dir().join(format!("act-obs-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create dir");
    let path = dir.join("zones.snap");
    index
        .save_snapshot(&mut std::fs::File::create(&path).expect("create snapshot"))
        .expect("save snapshot");

    // Observability on: histograms + a trace ring sampling every 50th
    // admission (seeded — rerunning samples the same frames).
    let server = Server::spawn(
        &path,
        ServeConfig {
            refiner: Some(Refiner::new(&zones)),
            watch: None,
            obs: Some(ObsConfig {
                trace_sample_every: 50,
                ..ObsConfig::default()
            }),
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");

    // A burst of ride-request traffic, every 10th frame in exact mode.
    let bbox = Rect::new(Coord::new(-74.05, 40.60), Coord::new(-73.75, 40.90));
    let gen = PointGen::uniform(bbox, 7);
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut hits = 0u64;
    for f in 0..FRAMES {
        let pts: Vec<Coord> = (0..LANES)
            .map(|k| gen.point_at((f * LANES + k) as u64))
            .collect();
        let reply = client.probe(&pts, f % 10 == 0).expect("probe");
        hits += reply.refs.iter().filter(|r| !r.is_empty()).count() as u64;
    }
    println!(
        "drove {FRAMES} frames x {LANES} lanes ({} probes, {hits} zone hits)\n",
        FRAMES * LANES
    );

    // Window 1: the per-stage latency table, straight off the wire.
    let stats = client.stats_ex().expect("stats_ex");
    println!("server-side pipeline stages (epoch {}):", stats.epoch);
    println!(
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "stage", "count", "p50 us", "p90 us", "p99 us", "p999 us"
    );
    for h in &stats.histograms {
        let name = proto::stage_name(h.stage);
        if h.hist.count() == 0 {
            continue;
        }
        match h.stage {
            proto::STAGE_BATCH_LANES | proto::STAGE_PROBE_DEPTH => println!(
                "  {:<12} {:>9} {:>7}    {:>7}    {:>7}    {:>7}   (unitless)",
                name,
                h.hist.count(),
                h.hist.quantile(0.50),
                h.hist.quantile(0.90),
                h.hist.quantile(0.99),
                h.hist.quantile(0.999),
            ),
            _ => println!(
                "  {:<12} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                name,
                h.hist.count(),
                h.hist.quantile(0.50) as f64 / 1e3,
                h.hist.quantile(0.90) as f64 / 1e3,
                h.hist.quantile(0.99) as f64 / 1e3,
                h.hist.quantile(0.999) as f64 / 1e3,
            ),
        }
    }

    // Window 2: the sampled trace ring, as JSON lines via the DUMP op.
    let dump = client.dump().expect("dump");
    println!(
        "\ntrace ring: {} sampled events (1 in 50); first three:",
        dump.lines().count()
    );
    for line in dump.lines().take(3) {
        println!("  {line}");
    }

    // Window 3: the Prometheus exposition, exactly as a scraper sees it.
    let metrics =
        act_obs::MetricsServer::spawn("127.0.0.1:0", server.metrics_fn()).expect("metrics");
    let text = act_obs::scrape(metrics.addr()).expect("scrape");
    let probes_line = text
        .lines()
        .find(|l| l.starts_with("act_probes_total"))
        .expect("act_probes_total family");
    let stage_lines = text
        .lines()
        .filter(|l| l.starts_with("act_stage_seconds"))
        .count();
    println!(
        "\nGET http://{}/metrics → {} bytes; {probes_line}; {stage_lines} act_stage_seconds series",
        metrics.addr(),
        text.len()
    );

    // Sanity the example relies on: a probed point resolves the same
    // zone offline and through the server.
    let p = gen.point_at(3);
    let served = client.probe(&[p], false).expect("probe").refs[0].len();
    assert_eq!(
        index.as_view().lookup_refs(p).len(),
        served,
        "offline and served answers agree at {p}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
