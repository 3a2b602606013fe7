//! Pipeline observability: the per-stage histogram set, the sampled
//! trace ring, and the shared Prometheus rendering used by the server's
//! and the router's `/metrics` pages.
//!
//! Everything here is **pay-only-when-enabled** (the same philosophy as
//! fault injection): [`crate::ServeConfig::obs`] is `None` by default,
//! the server keeps a `None` and takes zero `Instant::now()` calls on
//! the hot path. With observability on, the per-value cost is two
//! relaxed `fetch_add`s per histogram record (see `act_obs::Histogram`)
//! plus one monotonic clock read per stage boundary.

use crate::protocol as proto;
use act_obs::{Histogram, PromText, TraceRing};
use std::sync::Arc;

/// Events the bounded trace ring keeps (older events are evicted).
const TRACE_CAPACITY: usize = 4096;

/// Observability knobs. The trace ring keeps the newest 4096 events;
/// `Default` samples one probe frame in 64.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Sample one probe admission in this many (0 disables admission
    /// sampling entirely, 1 samples every frame). Lifecycle events
    /// (swap, delta apply, quarantine, shed, breaker transitions) are
    /// always recorded — they are rare and individually meaningful.
    pub trace_sample_every: u64,
    /// Seed offsetting which 1-in-N admissions sample (lets a fleet's
    /// workers sample different request phases).
    pub trace_seed: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            trace_sample_every: 64,
            trace_seed: 0,
        }
    }
}

impl ObsConfig {
    /// An empty trace ring sampling as configured.
    pub(crate) fn trace_ring(&self) -> TraceRing {
        TraceRing::new(TRACE_CAPACITY, self.trace_sample_every, self.trace_seed)
    }
}

/// The serving pipeline's stage histograms plus the trace ring. One per
/// server (workers and connections share it through the server state's
/// `Arc`); merged across shards by the router via the wire section.
#[derive(Debug)]
pub struct PipelineObs {
    /// Admission → worker dequeue, nanoseconds per probe frame.
    pub queue_wait: Histogram,
    /// Batched trie walk, nanoseconds per micro-batch.
    pub walk: Histogram,
    /// Exact-mode refinement, nanoseconds per micro-batch that refined.
    pub refine: Histogram,
    /// Socket write (flush) of one probe reply, nanoseconds.
    pub write: Histogram,
    /// Admission → reply flushed, nanoseconds per probe frame.
    pub frame_total: Histogram,
    /// Lanes per executed micro-batch.
    pub batch_lanes: Histogram,
    /// Trie node accesses per probed cell (0–7).
    pub probe_depth: Histogram,
    /// Hot-cell cache hit rate per micro-batch, in whole percent
    /// (0–100). Recorded only on batches that consulted the cache.
    pub cache_hit_pct: Histogram,
    /// Sampled structured trace events (`Arc` so the snapshot watcher
    /// can record swap/delta/quarantine events into the same ring).
    pub trace: Arc<TraceRing>,
}

impl PipelineObs {
    /// An empty pipeline recorder per `config`.
    pub fn new(config: &ObsConfig) -> PipelineObs {
        PipelineObs {
            queue_wait: Histogram::new(),
            walk: Histogram::new(),
            refine: Histogram::new(),
            write: Histogram::new(),
            frame_total: Histogram::new(),
            batch_lanes: Histogram::new(),
            probe_depth: Histogram::new(),
            cache_hit_pct: Histogram::new(),
            trace: Arc::new(config.trace_ring()),
        }
    }

    /// Snapshots every stage in wire order (the STATS histogram section).
    pub fn stage_histograms(&self) -> Vec<proto::StageHistogram> {
        [
            (proto::STAGE_QUEUE_WAIT, &self.queue_wait),
            (proto::STAGE_WALK, &self.walk),
            (proto::STAGE_REFINE, &self.refine),
            (proto::STAGE_WRITE, &self.write),
            (proto::STAGE_FRAME_TOTAL, &self.frame_total),
            (proto::STAGE_BATCH_LANES, &self.batch_lanes),
            (proto::STAGE_PROBE_DEPTH, &self.probe_depth),
            (proto::STAGE_CACHE_HIT_PCT, &self.cache_hit_pct),
        ]
        .into_iter()
        .map(|(stage, h)| proto::StageHistogram {
            stage,
            hist: h.snapshot(),
        })
        .collect()
    }
}

/// Renders one peer's counter block into `page` under `labels` (the
/// router adds `shard` labels; a standalone server passes none).
pub(crate) fn render_counters(
    page: &mut PromText,
    labels: &[(&str, &str)],
    epoch: u32,
    c: &proto::CounterBlock,
) {
    page.gauge(
        "act_epoch",
        "Serving snapshot epoch (1 + successful publishes).",
        labels,
        f64::from(epoch),
    );
    for (name, help, v) in [
        ("act_probes_total", "Probe points answered.", c.probes),
        (
            "act_accepted_total",
            "Well-formed frames taken in.",
            c.accepted,
        ),
        (
            "act_answered_total",
            "Frames answered with a real reply.",
            c.answered,
        ),
        ("act_shed_total", "Probe frames answered LOADSHED.", c.shed),
        (
            "act_bad_frames_total",
            "Malformed frames answered BAD_REQUEST.",
            c.bad_frames,
        ),
        (
            "act_busy_total",
            "Connections refused BUSY at the accept gate.",
            c.busy,
        ),
        (
            "act_batches_total",
            "Probe micro-batches executed.",
            c.batches,
        ),
        ("act_swaps_total", "Successful index publishes.", c.swaps),
        (
            "act_delta_applies_total",
            "Delta files applied onto the live index.",
            c.delta_applies,
        ),
        (
            "act_watch_errors_total",
            "Transient snapshot-watcher IO errors.",
            c.watch_errors,
        ),
        (
            "act_quarantines_total",
            "Delta files quarantined by the watcher.",
            c.quarantines,
        ),
        (
            "act_panics_contained_total",
            "Worker panics contained to one batch.",
            c.panics_contained,
        ),
        (
            "act_cache_hits_total",
            "Probed cells answered from the hot-cell result cache.",
            c.cache_hits,
        ),
        (
            "act_cache_misses_total",
            "Probed cells that missed the hot-cell cache and walked the trie.",
            c.cache_misses,
        ),
        (
            "act_quota_sheds_total",
            "Probe frames shed by the per-client fairness quota.",
            c.quota_sheds,
        ),
    ] {
        page.counter(name, help, labels, v);
    }
    page.gauge(
        "act_queue_high_water_lanes",
        "Highest queue occupancy since start, in lanes.",
        labels,
        c.queue_high_water_lanes as f64,
    );
    page.gauge(
        "act_window_high_water_lanes",
        "Highest queue occupancy since the last STATS read, in lanes.",
        labels,
        c.window_high_water_lanes as f64,
    );
}

/// Renders stage histograms into `page` under `labels`. Time stages
/// (nanosecond recordings) land in one `act_stage_seconds` family keyed
/// by a `stage` label; the two value histograms get their own families
/// in their natural units.
pub(crate) fn render_histograms(
    page: &mut PromText,
    labels: &[(&str, &str)],
    hists: &[proto::StageHistogram],
) {
    for h in hists {
        let stage = proto::stage_name(h.stage);
        match h.stage {
            proto::STAGE_BATCH_LANES => page.histogram(
                "act_batch_lanes",
                "Lanes (points) per executed micro-batch.",
                labels,
                &h.hist,
                1.0,
            ),
            proto::STAGE_PROBE_DEPTH => page.histogram(
                "act_probe_depth",
                "Trie node accesses per probed cell.",
                labels,
                &h.hist,
                1.0,
            ),
            proto::STAGE_CACHE_HIT_PCT => page.histogram(
                "act_cache_hit_pct",
                "Hot-cell cache hit rate per micro-batch, percent.",
                labels,
                &h.hist,
                1.0,
            ),
            _ => {
                let mut with_stage: Vec<(&str, &str)> = labels.to_vec();
                with_stage.push(("stage", stage));
                page.histogram(
                    "act_stage_seconds",
                    "Pipeline stage wall time, seconds.",
                    &with_stage,
                    &h.hist,
                    1e-9,
                );
            }
        }
    }
}

/// Renders trace-ring meta counters (the events themselves are the DUMP
/// op's payload, not scrape material).
pub(crate) fn render_trace_meta(page: &mut PromText, labels: &[(&str, &str)], trace: &TraceRing) {
    page.counter(
        "act_trace_events_total",
        "Trace events recorded (ring may have evicted older ones).",
        labels,
        trace.recorded(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_cover_every_stage_in_order() {
        let obs = PipelineObs::new(&ObsConfig::default());
        obs.walk.record(1_000);
        obs.probe_depth.record(3);
        let hists = obs.stage_histograms();
        let stages: Vec<u8> = hists.iter().map(|h| h.stage).collect();
        assert_eq!(stages, (0..proto::STAGE_COUNT as u8).collect::<Vec<_>>());
        assert_eq!(hists[proto::STAGE_WALK as usize].hist.count(), 1);
        assert_eq!(hists[proto::STAGE_QUEUE_WAIT as usize].hist.count(), 0);
    }

    #[test]
    fn rendering_produces_expected_families() {
        let obs = PipelineObs::new(&ObsConfig::default());
        obs.queue_wait.record(50_000);
        obs.batch_lanes.record(256);
        obs.cache_hit_pct.record(92);
        let c = proto::CounterBlock {
            probes: 9,
            window_high_water_lanes: 7,
            cache_hits: 23,
            cache_misses: 2,
            quota_sheds: 1,
            ..Default::default()
        };
        let mut page = PromText::new();
        render_counters(&mut page, &[], 3, &c);
        render_histograms(&mut page, &[], &obs.stage_histograms());
        render_trace_meta(&mut page, &[], &obs.trace);
        let text = page.finish();
        assert!(text.contains("act_probes_total 9"));
        assert!(text.contains("act_epoch 3"));
        assert!(text.contains("act_window_high_water_lanes 7"));
        assert!(text.contains("act_stage_seconds_bucket{stage=\"queue_wait\""));
        assert!(text.contains("act_batch_lanes_count 1"));
        assert!(text.contains("act_cache_hits_total 23"));
        assert!(text.contains("act_cache_misses_total 2"));
        assert!(text.contains("act_quota_sheds_total 1"));
        assert!(text.contains("act_cache_hit_pct_count 1"));
        assert!(text.contains("act_trace_events_total 0"));
        // One header per family even with seven stages sharing one.
        assert_eq!(
            text.matches("# TYPE act_stage_seconds histogram").count(),
            1
        );
    }
}
