//! Integration-test package: cross-crate tests live in `tests/tests/`.
//!
//! * `pipeline.rs` — datasets → index → join, validated against geometry
//! * `precision.rs` — the ε guarantee end-to-end (incl. adaptive/budgeted)
//! * `cross_index.rs` — ACT / sorted-array / flat-grid / R-tree agreement
//! * `parallel_and_determinism.rs` — parallel ≡ sequential; seeded
//!   determinism; the super-covering sweep ≡ its round-based reference
//! * `smoke.rs` — the documented quickstart, end to end
//! * `snapshot_golden.rs` — the committed format-2 fixture, byte for byte
//! * `serve.rs` — the act-serve TCP round trip per point, and hot-swaps
//! * `serve_fuzz.rs` — seeded malformed frames at a worker and a router
//! * `serve_chaos.rs` — hot-swaps under shedding, the drain, the warm
//!   cache across epoch flips, and the fairness quota's ≥ 5× floor
//! * `serve_faults.rs` — the seeded fault-injection soak (feature
//!   `fault-injection`)
//! * `full_scale.rs` — paper-sized runs (feature `full-scale`)
//! * `cache_floor.rs` — the hot-cell cache's ≥ 1.3× census floor
//!   (`#[ignore]`d; run with `--release -- --ignored`)
//! * `fleet_drive.rs` — drives an already-running worker or router fleet
//!   named by `ACT_FLEET_ADDR` (`#[ignore]`d)
//!
//! The library holds what two suites share: [`pipeline_copies`] and
//! [`ref_set`].

#![forbid(unsafe_code)]

use act_serve::protocol as proto;
use geom::Coord;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// One point's answer as a set: its `(polygon id, hit)` refs sorted. A
/// router stitches each point's refs from the shard that owns it, whose
/// order need not match the unsharded snapshot's, so routed answers are
/// compared as sets.
pub fn ref_set(mut refs: proto::PointRefs) -> proto::PointRefs {
    refs.sort_unstable();
    refs
}

/// How a [`pipeline_copies`] run was answered, in frames.
#[derive(Debug, Clone, Copy)]
pub struct Piped {
    /// Frames answered OK (each checked point by point).
    pub ok: u64,
    /// Frames answered LOADSHED.
    pub shed: u64,
}

/// Pipelines copies of one probe `frame` down one connection while
/// `more(k)` holds for the `k`-th copy, and checks every reply in order.
/// A reply must echo the probe op, then be either OK with one entry per
/// point whose [`ref_set`] equals that point's entry in `want`, or
/// LOADSHED with no entries and a well-formed retry hint. Anything else
/// panics.
///
/// The writer runs on its own thread, so the reader always drains and a
/// server that stops reading at its in-flight cap cannot deadlock the
/// two. If a check fails, the socket is shut down first, so the writer
/// unblocks and the panic surfaces instead of a hang.
pub fn pipeline_copies(
    addr: SocketAddr,
    frame: &[Coord],
    want: &[proto::PointRefs],
    mut more: impl FnMut(u64) -> bool + Send,
) -> Piped {
    struct Hangup(TcpStream);
    impl Drop for Hangup {
        fn drop(&mut self) {
            let _ = self.0.shutdown(Shutdown::Both);
        }
    }
    let stream = TcpStream::connect(addr).expect("pipelined connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let bytes = proto::encode_probe_request(frame, false);
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut k = 0;
            while more(k) && writer.write_all(&bytes).is_ok() && sent_tx.send(()).is_ok() {
                k += 1;
            }
        });
        let mut reader = Hangup(stream);
        let mut piped = Piped { ok: 0, shed: 0 };
        for () in sent_rx {
            let k = piped.ok + piped.shed;
            let body = proto::read_frame(&mut reader.0, 1 << 26)
                .unwrap_or_else(|e| panic!("pipelined reply {k}: {e}"))
                .unwrap_or_else(|| panic!("pipelined reply {k} missing: frame dropped"));
            let (h, payload) = proto::decode_response(&body).expect("well-formed reply");
            assert_eq!(h.op, proto::OP_PROBE, "reply {k} must echo the probe op");
            match h.status {
                proto::STATUS_OK => {
                    assert_eq!(h.n as usize, frame.len(), "reply {k}: one entry per point");
                    let refs = proto::decode_probe_payload(h.n, payload).expect("probe payload");
                    assert!(
                        refs.into_iter().map(ref_set).collect::<Vec<_>>() == want,
                        "reply {k}: OK answer diverged from the oracle"
                    );
                    piped.ok += 1;
                }
                proto::STATUS_LOADSHED => {
                    assert_eq!(h.n, 0, "reply {k}: LOADSHED carries no entries");
                    proto::decode_retry_after(payload).expect("LOADSHED retry hint");
                    piped.shed += 1;
                }
                s => panic!(
                    "pipelined reply {k} answered {} — only OK or LOADSHED is legal",
                    proto::status_name(s)
                ),
            }
        }
        piped
    })
}
