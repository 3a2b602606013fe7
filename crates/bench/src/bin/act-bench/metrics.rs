//! Every metric act-bench reports: unit, direction, regression bound and
//! tier. `BENCHMARK.json` lists the end-to-end and per-layer tiers; a unit
//! test keeps the two in step.

use crate::stats::{Better, Bound};

/// Measured values by metric name, in measurement order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// What a user sees; measured with tracing off, on every workload,
    /// and gated by its bound.
    EndToEnd,
    /// One layer's number, or an end-to-end one that does not repeat
    /// within its bound; reported by the traced run on every workload,
    /// with no bound.
    PerLayer,
    /// Reported only where it exists (one workload or one mode) or never
    /// above 0; in the full record and compared by `act-bench compare`,
    /// but not listed in `BENCHMARK.json`, whose metrics every run must
    /// report and none may read 0.
    Extra,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<Bound>,
    pub tier: Tier,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(Bound::Relative(bound)),
        tier: Tier::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        tier: Tier::PerLayer,
    }
}

const fn extra(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<Bound>,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        tier: Tier::Extra,
    }
}

use Better::{Higher, Lower};

pub const DEFS: &[Def] = &[
    // The largest bound: set-up must stay end to end, and within one run
    // its repetitions agree to a few percent, but its median moves with
    // the machine's phases; two interleaved sets of ten runs of one commit
    // differed by up to 10.7% (README.md).
    e2e("setup_s", "s", Lower, 0.25),
    e2e("index_mb", "MB", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    // Demoted from the end-to-end list: on a shared two-vCPU machine they
    // do not repeat within their 10% bound across runs of one commit
    // (README.md records the spreads).
    layer("points_per_s", "pt/s", Higher),
    layer("frame_p50_us", "us", Lower),
    layer("frame_p99_us", "us", Lower),
    layer("frames", "count", Higher),
    // s2cell
    layer("s2cell.coord_to_cell_ns_per_pt", "ns/pt", Lower),
    // trie
    layer("trie.walk_batch_ns_per_pt", "ns/pt", Lower),
    layer("trie.walk_scalar_ns_per_pt", "ns/pt", Lower),
    layer("trie.depth_p50", "count", Lower),
    layer("trie.depth_p99", "count", Lower),
    // lookup
    layer("lookup.resolve_ns_per_pt", "ns/pt", Lower),
    layer("lookup.refs_per_pt", "count", Lower),
    layer("lookup.true_hit_frac", "ratio", Higher),
    // protocol
    layer("protocol.encode_request_ns_per_frame", "ns/frame", Lower),
    layer("protocol.decode_request_ns_per_frame", "ns/frame", Lower),
    layer("protocol.encode_response_ns_per_frame", "ns/frame", Lower),
    layer("protocol.decode_response_ns_per_frame", "ns/frame", Lower),
    layer("protocol.request_bytes_per_pt", "B/pt", Lower),
    layer("protocol.response_bytes_per_pt", "B/pt", Lower),
    // cache
    layer("cache.get_batch_ns_per_pt", "ns/pt", Lower),
    layer("cache.insert_ns_per_pt", "ns/pt", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    // index / snapshot
    layer("index.build_s", "s", Lower),
    layer("index.build_coverings_s", "s", Lower),
    layer("index.build_supercover_s", "s", Lower),
    layer("index.build_insert_s", "s", Lower),
    layer("snapshot.open_validate_ms", "ms", Lower),
    // server (the traced served pass)
    layer("server.batches", "count", Lower),
    layer("server.mean_batch_width", "lanes", Higher),
    layer("server.shed", "count", Lower),
    layer("server.queue_high_water_lanes", "lanes", Lower),
    layer("server.queue_wait_mean_us", "us", Lower),
    layer("server.queue_wait_p99_us", "us", Lower),
    layer("server.walk_mean_us", "us", Lower),
    layer("server.walk_p99_us", "us", Lower),
    layer("server.write_mean_us", "us", Lower),
    layer("server.write_p99_us", "us", Lower),
    layer("server.frame_total_mean_us", "us", Lower),
    layer("server.frame_total_p99_us", "us", Lower),
    layer("server.unexplained_us", "us", Lower),
    layer("server.kernel_loopback_us", "us", Lower),
    // client (the traced served pass, split through the protocol calls)
    layer("client.encode_us", "us", Lower),
    layer("client.wire_us", "us", Lower),
    layer("client.decode_us", "us", Lower),
    // router
    layer("router.shards_per_frame", "count", Lower),
    layer("router.shard_load_max_over_mean", "ratio", Lower),
    layer("router.split_s", "s", Lower),
    // delta
    layer("delta.apply_ms", "ms", Lower),
    // obs
    layer("obs.overhead_pct", "%", Lower),
    // Any failure where the baseline had none is a regression.
    extra("failed_frac", "ratio", Lower, Some(Bound::Absolute(0.0))),
    // Churn only, and demoted like the timings above.
    extra("delta_visible_ms", "ms", Lower, None),
    extra("delta.lineage_open_ms", "ms", Lower, None),
    extra("gen.late_p99_us", "us", Lower, None),
    extra("delta.applies", "count", Higher, None),
    extra("delta.quarantines", "count", Lower, None),
    extra("router.overhead_p50_us", "us", Lower, None),
    extra("cache.server_hit_rate", "ratio", Higher, None),
];

/// The registry entry for `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(DEFS[..i].iter().all(|o| o.name != d.name), "{}", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            // Gated metrics carry a bound; per-layer ones never do.
            match d.tier {
                Tier::EndToEnd => assert!(d.bound.is_some(), "{}", d.name),
                Tier::PerLayer => assert!(d.bound.is_none(), "{}", d.name),
                Tier::Extra => {}
            }
        }
    }
}
