//! The census build-memory guard, shared by the `build_memory` test
//! binaries, and the peak-RSS helpers `lineage_memory` reuses. Each
//! binary runs one build, so the process's high-water mark is that
//! build's alone: a second build in the same process could reuse heap
//! the allocator kept from the first and read low.
//!
//! A census build at 15 m may raise the process's peak RSS by no more
//! than its trie arena plus 3 bytes per covering cell. The build covers
//! each polygon just in time and frees its covering once the sweep has
//! drained it, so only the coverings open at the sweep's position are
//! alive at once. Holding every covering packed at 8 bytes per cell, the
//! rise was ~8.4 bytes per cell over the arena; as 16-byte
//! `(cell, interior)` pairs with growth slack, ~26.

use act_core::ActIndex;

/// The rise allowed per covering cell over the trie arena, in bytes.
const BYTES_PER_COVERING_CELL: u64 = 3;

/// A `kB` field of `/proc/self/status`, in bytes.
pub fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the process's peak RSS (`VmHWM`) to its current RSS and
/// returns that RSS; where `/proc` cannot, prints why and returns `None`.
pub fn reset_peak() -> Option<u64> {
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        println!("skipped: /proc/self/clear_refs is not writable here");
        return None;
    }
    let before = status_bytes("VmRSS:");
    if before.is_none() {
        println!("skipped: /proc/self/status has no VmRSS");
    }
    before
}

/// The rise of the peak RSS over `before` (see [`reset_peak`]).
pub fn peak_rise(before: u64) -> u64 {
    let peak = status_bytes("VmHWM:").expect("VmHWM beside VmRSS");
    peak.saturating_sub(before)
}

/// Builds census at 15 m on a `threads`-thread pool and checks the rise
/// of the process's peak RSS; without `/proc` it prints why and passes.
#[allow(dead_code)] // the lineage guard shares this module, not this check
pub fn assert_census_build_rss(threads: usize) {
    let ds = datagen::census_blocks(42);
    let pool = jobs::JobPool::new(threads);
    let Some(before) = reset_peak() else {
        return;
    };
    let index = ActIndex::build_parallel(&ds.polygons, 15.0, &pool).expect("build census");
    let rise = peak_rise(before);
    let stats = index.stats();
    let bound = stats.act_bytes as u64 + BYTES_PER_COVERING_CELL * stats.covering_cells;
    let per_cell = rise.saturating_sub(stats.act_bytes as u64) as f64 / stats.covering_cells as f64;
    println!(
        "census @ 15 m, {threads} thread(s): RSS rise {:.1} MiB, arena {:.1} MiB, \
         {} covering cells ({per_cell:.1} B per cell over the arena)",
        rise as f64 / (1 << 20) as f64,
        stats.act_bytes as f64 / (1 << 20) as f64,
        stats.covering_cells,
    );
    assert!(
        rise <= bound,
        "build raised RSS by {rise} B, over arena + {BYTES_PER_COVERING_CELL} B/cell = {bound} B \
         ({per_cell:.1} B per covering cell)"
    );
}
