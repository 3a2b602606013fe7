//! Drives an already-running `act-serve` worker or `act-route` fleet over
//! TCP and checks every answer, point by point, against the snapshot the
//! fleet serves (or was cut from). It is `#[ignore]`d because it needs a
//! started target, named by two deployment settings:
//!
//! * `ACT_FLEET_ADDR` — the worker's or router's `HOST:PORT`;
//! * `ACT_FLEET_SNAPSHOT` — the base snapshot file, mapped locally as the
//!   oracle. A relative path is taken from the workspace root, since
//!   `cargo test` runs this binary from the `tests/` package.
//!
//! ```text
//! ACT_FLEET_ADDR=127.0.0.1:7000 \
//! ACT_FLEET_SNAPSHOT=target/snapshot-bench/neighborhoods-15m.snap \
//!     cargo test --release -q -p act-tests --test fleet_drive -- --ignored
//! ```
//!
//! The traffic is the same for every target, with no switches:
//!
//! * 200 k taxi-like points over the neighborhoods bbox, in 256-point
//!   frames on one connection, each point checked;
//! * the last frame sent once more, so a cache-enabled target hits;
//! * a STATS read, and a DUMP, which may answer UNSUPPORTED;
//! * one pipelined burst of 64 copies of one frame on one connection, so
//!   a quota-enforcing target sheds. Each reply must be OK with every
//!   point checked, or LOADSHED with no entries.

use act_core::MappedSnapshot;
use act_serve::{protocol as proto, Client, ClientError};
use act_tests::{pipeline_copies, ref_set};
use datagen::PointGen;
use std::net::ToSocketAddrs;
use std::path::Path;
use std::time::Duration;

const POINTS: usize = 200_000;
const FRAME: usize = 256;
const BURST_FRAMES: u64 = 64;

fn setting(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| {
        panic!("{name} is unset: fleet_drive needs ACT_FLEET_ADDR and ACT_FLEET_SNAPSHOT")
    })
}

#[test]
#[ignore = "needs a running target: set ACT_FLEET_ADDR and ACT_FLEET_SNAPSHOT"]
fn fleet_answers_every_point_like_its_snapshot() {
    let target = setting("ACT_FLEET_ADDR");
    let addr = target
        .to_socket_addrs()
        .unwrap_or_else(|e| panic!("ACT_FLEET_ADDR {target}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("ACT_FLEET_ADDR {target} resolved to nothing"));
    let snap_path = setting("ACT_FLEET_SNAPSHOT");
    let snap = MappedSnapshot::open(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(&snap_path),
    )
    .unwrap_or_else(|e| panic!("ACT_FLEET_SNAPSHOT {snap_path}: {e}"));
    let view = snap.view();
    let points = PointGen::nyc_taxi_like(datagen::nyc_bbox(), 42).take_vec(POINTS);

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut check = |frame: &[geom::Coord]| {
        let reply = client.probe(frame, false).expect("probe frame");
        for (pt, got) in frame.iter().zip(reply.refs) {
            assert_eq!(
                ref_set(got),
                ref_set(view.lookup_refs(*pt)),
                "answer at {pt} diverged — is the target serving {snap_path}?"
            );
        }
    };
    for frame in points.chunks(FRAME) {
        check(frame);
    }
    let last = points.chunks(FRAME).last().expect("at least one frame");
    check(last);

    let stats = client.stats_ex().expect("STATS");
    match client.dump() {
        Ok(_)
        | Err(ClientError::Server {
            status: proto::STATUS_UNSUPPORTED,
            ..
        }) => {}
        Err(e) => panic!("DUMP: {e}"),
    }

    let burst = &points[..FRAME];
    let want: Vec<_> = burst
        .iter()
        .map(|&p| ref_set(view.lookup_refs(p)))
        .collect();
    let piped = pipeline_copies(addr, burst, &want, |k| k < BURST_FRAMES);
    assert_eq!(piped.ok + piped.shed, BURST_FRAMES, "one reply per frame");
    println!(
        "fleet_drive: {POINTS} points checked at {addr} (epoch {}); burst of {BURST_FRAMES}: \
         {} OK, {} shed",
        stats.epoch, piped.ok, piped.shed
    );
}
