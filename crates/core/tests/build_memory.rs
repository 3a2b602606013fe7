//! Census build-memory guard, run by hand (ignored by default):
//!
//! ```sh
//! cargo test --release -q -p act-core --test build_memory -- --ignored
//! ```
//!
//! A census build at 15 m may raise the process's peak RSS by no more
//! than its trie arena plus 12 bytes per covering cell. The build holds
//! its coverings packed at 8 bytes per cell, exact-sized; at 16 bytes per
//! `(cell, interior)` pair plus growth slack, the rise was ~26 bytes per
//! cell over the arena. The test has its own binary, so the process's
//! high-water mark is this build's alone.

use act_core::ActIndex;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
#[ignore = "census build, run with --release -- --ignored"]
fn census_build_rss_rise_is_arena_plus_12_bytes_per_covering_cell() {
    let ds = datagen::census_blocks(42);
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        println!("skipped: /proc/self/clear_refs is not writable here");
        return;
    }
    let Some(before) = status_bytes("VmRSS:") else {
        println!("skipped: /proc/self/status has no VmRSS");
        return;
    };
    let index = ActIndex::build(&ds.polygons, 15.0).expect("build census");
    let peak = status_bytes("VmHWM:").expect("VmHWM beside VmRSS");
    let stats = index.stats();
    let rise = peak.saturating_sub(before);
    let bound = stats.act_bytes as u64 + 12 * stats.covering_cells;
    let per_cell = rise.saturating_sub(stats.act_bytes as u64) as f64 / stats.covering_cells as f64;
    println!(
        "census @ 15 m: RSS rise {:.1} MiB, arena {:.1} MiB, {} covering cells \
         ({per_cell:.1} B per cell over the arena)",
        rise as f64 / (1 << 20) as f64,
        stats.act_bytes as f64 / (1 << 20) as f64,
        stats.covering_cells,
    );
    assert!(
        rise <= bound,
        "build raised RSS by {rise} B, over arena + 12 B/cell = {bound} B \
         ({per_cell:.1} B per covering cell)"
    );
}
