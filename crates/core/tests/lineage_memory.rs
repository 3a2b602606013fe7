//! Census lineage-memory guard, run by hand (ignored by default):
//!
//! ```sh
//! cargo test --release -q -p act-core --test lineage_memory -- --ignored --nocapture
//! ```
//!
//! The server boots by opening [`ActIndex::from_mapped`] over the mapped
//! census snapshot, which borrows the mapping's arena and lookup table:
//! that open may raise the peak RSS by less than 1 MiB (a copy of the
//! 2.6 MB table fails it).
//!
//! A delta lineage over it holds one arena, the mapping. Opening the
//! lineage (a clone of the served index plus
//! [`ActIndex::prime_mutations`]) and then eight apply/clone cycles — an
//! insert or a remove of one fence on the scratch, which is then
//! published and cloned into the next scratch, as the delta watcher does
//! — may raise the peak RSS over the resident mapping by no more than
//! the mutation state priming builds (the per-id bound cells, ~4 MB)
//! plus 16 MB. A second full arena (a deep copy, or a clone that copied
//! the arena) is ~126 MB and fails it, and so would the 88.5 MB of exact
//! per-id cell lists the bound cells replaced. The checks run in their
//! own binary, so the peak is this test's alone; without `/proc` it
//! prints why and passes.

#[allow(dead_code)] // the build guard's own check is unused here
mod build_rss;

use act_core::{ActIndex, MappedSnapshot};
use geom::{Coord, Polygon, Ring};
use std::sync::Arc;

/// Room over the mutation state for the lookup-table copies, the nodes
/// the applies copy out and each apply's transient buffers.
const SLACK_BYTES: u64 = 16 << 20;

/// What opening the served index over the mapping may add to the peak.
const OPEN_BYTES: u64 = 1 << 20;

#[test]
#[ignore = "census build, run with --release -- --ignored"]
fn census_lineage_rss_rise_is_mutation_state_plus_16_mb() {
    let ds = datagen::census_blocks(42);
    let path = std::env::temp_dir().join(format!("act-lineage-memory-{}.snap", std::process::id()));
    {
        let built = ActIndex::build(&ds.polygons, 15.0).expect("build census");
        built.as_view().save_file(&path).expect("save census");
    }
    // Opening validates the checksum over every word, so the mapping is
    // resident before the watermark is reset.
    let snap = Arc::new(MappedSnapshot::open(&path).expect("map census"));
    std::fs::remove_file(&path).expect("remove census snapshot");
    let c = Coord::new(
        (ds.bbox.min.x + ds.bbox.max.x) / 2.0,
        (ds.bbox.min.y + ds.bbox.max.y) / 2.0,
    );
    let h = 0.004;
    let fence = Polygon::new(
        Ring::new(vec![
            Coord::new(c.x - h, c.y - h),
            Coord::new(c.x + h, c.y - h),
            Coord::new(c.x + h, c.y + h),
            Coord::new(c.x - h, c.y + h),
        ]),
        vec![],
    );
    let id = ds.polygons.len() as u32;
    drop(ds);

    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let Some(before) = build_rss::reset_peak() else {
        return;
    };
    let served = ActIndex::from_mapped(Arc::clone(&snap));
    let open = build_rss::peak_rise(before);
    println!(
        "census open: RSS rise {:.3} MiB for an index of {:.1} MiB",
        mib(open),
        mib(served.memory_bytes() as u64)
    );
    assert!(
        open < OPEN_BYTES,
        "opening the served index raised RSS by {open} B: it copied the mapping"
    );

    let Some(before) = build_rss::reset_peak() else {
        return;
    };
    let mut scratch = served.clone();
    scratch.prime_mutations();
    let mut published;
    for cycle in 0..8 {
        if cycle % 2 == 0 {
            scratch.insert_polygon(id, &fence).expect("insert fence");
        } else {
            assert!(scratch.remove_polygon(id), "remove fence");
        }
        published = scratch;
        scratch = published.clone();
        assert!(scratch.act().shares_base_with(published.act()));
    }
    let rise = build_rss::peak_rise(before);
    let state = scratch.mutation_state_bytes() as u64;
    let bound = state + SLACK_BYTES;
    println!(
        "census lineage: RSS rise {:.1} MiB over the {:.1} MiB mapping; mutation state \
         {:.1} MiB, {:.1} MiB of nodes owned beside the base",
        mib(rise),
        mib(snap.bytes().len() as u64),
        mib(state),
        mib(scratch.act().ext_bytes() as u64),
    );
    assert!(
        rise <= bound,
        "the lineage raised RSS by {rise} B, over mutation state + 16 MB = {bound} B"
    );
}
