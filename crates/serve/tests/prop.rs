//! Property tests for the wire protocol's admission-control and
//! resilience surfaces: the counter block (round trip, and typed
//! rejection of every other length), response framing across every
//! status (LOADSHED/BUSY included), the retry-after hint those two
//! statuses carry, the header-only request ops (PING, STATS, DUMP),
//! probe request round trips, and the STATS histogram section (round
//! trip plus typed rejection of truncated, oversized, and padded
//! malformations) — alongside the example-based frame tests in
//! `protocol.rs`.

use act_serve::protocol as proto;
use geom::Coord;
use proptest::prelude::*;

fn arb_counters() -> impl Strategy<Value = proto::CounterBlock> {
    proptest::collection::vec(any::<u64>(), 17).prop_map(|w| proto::CounterBlock {
        probes: w[0],
        accepted: w[1],
        answered: w[2],
        shed: w[3],
        bad_frames: w[4],
        busy: w[5],
        batches: w[6],
        swaps: w[7],
        queue_high_water_lanes: w[8],
        delta_applies: w[9],
        watch_errors: w[10],
        quarantines: w[11],
        panics_contained: w[12],
        window_high_water_lanes: w[13],
        cache_hits: w[14],
        cache_misses: w[15],
        quota_sheds: w[16],
    })
}

fn arb_status() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(proto::STATUS_OK),
        Just(proto::STATUS_BAD_REQUEST),
        Just(proto::STATUS_UNSUPPORTED),
        Just(proto::STATUS_INTERNAL),
        Just(proto::STATUS_LOADSHED),
        Just(proto::STATUS_BUSY),
    ]
}

/// A wire histogram: an arbitrary stage id (unknown ids must survive),
/// a sum, and a smallish bucket vector (the format's cap is
/// `act_obs::NUM_BUCKETS`; correctness does not depend on size).
fn arb_hist() -> impl Strategy<Value = proto::StageHistogram> {
    // Counts/sums stay below 2^32 so cross-shard merges (sums of sums)
    // cannot overflow in the arithmetic the assertions do on them.
    (
        0u8..12,
        0u64..(1 << 32),
        proptest::collection::vec(0u64..(1 << 32), 0..48),
    )
        .prop_map(|(stage, sum, buckets)| proto::StageHistogram {
            stage,
            hist: act_obs::HistogramSnapshot { sum, buckets },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The version matrix has one row: the counter block round-trips bit
    /// for bit, and each block an earlier protocol version sent (80, 104
    /// and 112 bytes — prefixes of today's block) is a typed error, not
    /// a read with zeroed fields.
    #[test]
    fn counter_block_version_matrix(c in arb_counters()) {
        let bytes = proto::encode_counters(&c);
        prop_assert_eq!(bytes.len(), proto::COUNTER_BLOCK_LEN);
        prop_assert_eq!(proto::decode_counters(&bytes).unwrap(), c);
        for retired in [80, 104, 112] {
            prop_assert!(proto::decode_counters(&bytes[..retired]).is_err());
        }
    }

    /// Every length other than the block's, up to twice the block —
    /// truncations and trailing garbage alike — is a typed error, never
    /// a garbage decode.
    #[test]
    fn counter_block_rejects_wrong_lengths(
        c in arb_counters(),
        len in 0usize..=2 * proto::COUNTER_BLOCK_LEN,
    ) {
        let bytes = proto::encode_counters(&c);
        let mut other = bytes.repeat(2);
        other.truncate(len);
        if len != proto::COUNTER_BLOCK_LEN {
            prop_assert!(proto::decode_counters(&other).is_err());
        }
    }

    /// Response frames round-trip for every status the server can send —
    /// LOADSHED and BUSY included — with the payload intact.
    #[test]
    fn response_roundtrip_every_status(
        op in 0u8..=4,
        status in arb_status(),
        epoch in any::<u32>(),
        n in 0u32..10_000,
        payload in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let frame = proto::encode_response(op, status, epoch, n, &payload);
        let body = proto::read_frame(&mut frame.as_slice(), usize::MAX).unwrap().unwrap();
        let (h, p) = proto::decode_response(&body).unwrap();
        prop_assert_eq!(h, proto::RespHeader { op, status, epoch, n });
        prop_assert_eq!(p, payload.as_slice());
    }

    /// The retry-after hint round-trips through a full LOADSHED frame
    /// for any millisecond value, and its absence (an empty payload)
    /// decodes as `None`.
    #[test]
    fn retry_hint_roundtrips_and_v1_absence_is_none(
        ms in any::<u32>(),
        status in prop_oneof![Just(proto::STATUS_LOADSHED), Just(proto::STATUS_BUSY)],
        epoch in any::<u32>(),
    ) {
        let frame = proto::encode_response(proto::OP_PROBE, status, epoch, 0, &proto::encode_retry_hint(ms));
        let body = proto::read_frame(&mut frame.as_slice(), usize::MAX).unwrap().unwrap();
        let (h, p) = proto::decode_response(&body).unwrap();
        prop_assert_eq!(h.n, 0, "a reject frame must not claim points");
        prop_assert_eq!(proto::decode_retry_after(p).unwrap(), Some(ms));
        prop_assert_eq!(proto::decode_retry_after(&[]).unwrap(), None);
    }

    /// Any hint payload that is neither empty nor exactly 4 bytes is a
    /// typed error.
    #[test]
    fn retry_hint_rejects_wrong_lengths(len in 1usize..16) {
        prop_assume!(len != proto::RETRY_HINT_LEN);
        prop_assert!(proto::decode_retry_after(&vec![0u8; len]).is_err());
    }

    /// The server-derived hint is always within the protocol's bounds,
    /// whatever the queue depth and drain-rate measurements — zero,
    /// huge, negative, or not yet warmed up (NaN/zero rate).
    #[test]
    fn suggested_retry_after_is_always_in_bounds(
        queued in any::<u64>(),
        rate in prop_oneof![
            Just(0.0f64),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-1.0f64),
            1e-9f64..1e9,
        ],
    ) {
        let ms = proto::suggest_retry_after_ms(queued, rate);
        prop_assert!((proto::RETRY_AFTER_MIN_MS..=proto::RETRY_AFTER_MAX_MS).contains(&ms));
    }

    /// PING and STATS responses carry a decodable counter block (STATS
    /// followed by its histogram section) whatever the counter values
    /// are — every word, the windowed mark and cache counters included.
    #[test]
    fn ping_and_stats_replies_roundtrip(c in arb_counters(), epoch in any::<u32>()) {
        for (op, payload) in [
            (proto::OP_PING, proto::encode_counters(&c).to_vec()),
            (proto::OP_STATS, proto::encode_stats_ex_payload(&c, &[])),
        ] {
            let frame = proto::encode_response(op, proto::STATUS_OK, epoch, 0, &payload);
            let body = proto::read_frame(&mut frame.as_slice(), usize::MAX).unwrap().unwrap();
            let (h, p) = proto::decode_response(&body).unwrap();
            prop_assert_eq!((h.op, h.status, h.epoch, h.n), (op, proto::STATUS_OK, epoch, 0));
            let got = if op == proto::OP_PING {
                proto::decode_counters(p).unwrap()
            } else {
                proto::decode_stats_ex_payload(p).unwrap().0
            };
            prop_assert_eq!(got, c);
        }
    }

    /// Every header-only request frame decodes back to its op, and any
    /// flag bit on one — the retired STATS histogram flag included — is
    /// a typed error.
    #[test]
    fn headless_requests_roundtrip(which in 0usize..3, flag in 1u8..=255) {
        let (frame, want) = match which {
            0 => (proto::encode_ping_request(), proto::Request::Ping),
            1 => (proto::encode_stats_ex_request(), proto::Request::Stats),
            _ => (proto::encode_dump_request(), proto::Request::Dump),
        };
        let body = proto::read_frame(&mut frame.as_slice(), proto::MAX_REQ_BODY).unwrap().unwrap();
        prop_assert_eq!(proto::decode_request(&body).unwrap(), want);
        let mut flagged = body;
        flagged[1] = flag;
        prop_assert!(proto::decode_request(&flagged).is_err());
    }

    /// Probe requests round-trip for any finite coordinate set and flag.
    #[test]
    fn probe_request_roundtrip(
        pts in proptest::collection::vec((-180.0f64..180.0, -90.0f64..90.0), 0..64),
        exact in proptest::bool::ANY,
    ) {
        let coords: Vec<Coord> = pts.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        let frame = proto::encode_probe_request(&coords, exact);
        let body = proto::read_frame(&mut frame.as_slice(), proto::MAX_REQ_BODY).unwrap().unwrap();
        prop_assert_eq!(proto::decode_request(&body).unwrap(), proto::Request::Probe { coords, exact });
    }

    /// The STATS payload (counter block + histogram section)
    /// round-trips for any histogram set that fits the caps.
    #[test]
    fn stats_ex_payload_roundtrip(
        c in arb_counters(),
        hists in proptest::collection::vec(arb_hist(), 0..8),
    ) {
        let payload = proto::encode_stats_ex_payload(&c, &hists);
        let (dc, dh) = proto::decode_stats_ex_payload(&payload).unwrap();
        prop_assert_eq!(dc, c);
        prop_assert_eq!(dh, hists);
    }

    /// EVERY strict prefix of a STATS payload is a typed error —
    /// truncation can never silently drop a histogram or a bucket — and
    /// so is any trailing garbage after the section.
    #[test]
    fn stats_ex_payload_rejects_any_truncation(
        c in arb_counters(),
        hists in proptest::collection::vec(arb_hist(), 0..4),
        frac in 0.0f64..1.0,
    ) {
        let payload = proto::encode_stats_ex_payload(&c, &hists);
        let cut = ((payload.len() as f64) * frac) as usize; // < len
        prop_assert!(proto::decode_stats_ex_payload(&payload[..cut]).is_err());
        let mut long = payload.clone();
        long.push(0);
        prop_assert!(proto::decode_stats_ex_payload(&long).is_err());
    }

    /// Oversized claims are rejected before any allocation is attempted:
    /// a histogram count past the section cap, and a bucket count past
    /// the format's bucket space.
    #[test]
    fn stats_ex_payload_rejects_oversized_claims(
        c in arb_counters(),
        extra in 1u32..1000,
    ) {
        // n_hists over the cap.
        let mut p = proto::encode_stats_ex_payload(&c, &[]);
        let n = proto::MAX_WIRE_HISTS as u32 + extra;
        p[proto::COUNTER_BLOCK_LEN..proto::COUNTER_BLOCK_LEN + 4]
            .copy_from_slice(&n.to_le_bytes());
        prop_assert!(proto::decode_stats_ex_payload(&p).is_err());

        // n_buckets over the format's bucket count.
        let hist = proto::StageHistogram {
            stage: 0,
            hist: act_obs::HistogramSnapshot { sum: 0, buckets: vec![1] },
        };
        let mut p = proto::encode_stats_ex_payload(&c, &[hist]);
        let at = proto::COUNTER_BLOCK_LEN + 4 + 12; // n_buckets field
        let n = act_obs::NUM_BUCKETS as u32 + extra;
        p[at..at + 4].copy_from_slice(&n.to_le_bytes());
        prop_assert!(proto::decode_stats_ex_payload(&p).is_err());
    }

    /// Nonzero pad bytes in a histogram header are a typed error (the
    /// pad is reserved; tolerating garbage there would foreclose ever
    /// using it).
    #[test]
    fn stats_ex_payload_rejects_nonzero_pad(
        c in arb_counters(),
        which in 0usize..3,
        byte in 1u8..=255,
    ) {
        let hist = proto::StageHistogram {
            stage: 1,
            hist: act_obs::HistogramSnapshot { sum: 9, buckets: vec![2, 0, 1] },
        };
        let mut p = proto::encode_stats_ex_payload(&c, &[hist]);
        p[proto::COUNTER_BLOCK_LEN + 4 + 1 + which] = byte;
        prop_assert!(proto::decode_stats_ex_payload(&p).is_err());
    }

    /// Router merge semantics: merging any two shard sections sums
    /// counts bucket-wise per stage, unions the stage sets, and keeps
    /// the result sorted — so the router's merged reply equals the
    /// client-side merge of the per-shard replies.
    #[test]
    fn stage_histogram_merge_is_commutative_union(
        a in proptest::collection::vec(arb_hist(), 0..6),
        b in proptest::collection::vec(arb_hist(), 0..6),
    ) {
        let mut ab: Vec<proto::StageHistogram> = Vec::new();
        proto::merge_stage_histograms(&mut ab, &a);
        proto::merge_stage_histograms(&mut ab, &b);
        let mut ba: Vec<proto::StageHistogram> = Vec::new();
        proto::merge_stage_histograms(&mut ba, &b);
        proto::merge_stage_histograms(&mut ba, &a);

        // Same stages, sorted, and per-stage totals match in both orders.
        prop_assert!(ab.windows(2).all(|w| w[0].stage < w[1].stage));
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert_eq!(x.stage, y.stage);
            prop_assert_eq!(x.hist.count(), y.hist.count());
            prop_assert_eq!(x.hist.sum, y.hist.sum);
        }
        let want: u64 = a.iter().chain(&b).map(|h| h.hist.count()).sum();
        let got: u64 = ab.iter().map(|h| h.hist.count()).sum();
        prop_assert_eq!(got, want, "merge must not lose or invent counts");
    }
}
