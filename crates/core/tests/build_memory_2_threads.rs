//! Census build-memory guard on a 2-thread pool, the width a 2-vCPU host
//! builds with, run by hand (ignored by default):
//!
//! ```sh
//! cargo test --release -q -p act-core --test build_memory_2_threads -- --ignored
//! ```
//!
//! See `build_rss/mod.rs` for the bound. A binary of its own, so the
//! process's high-water mark is this build's alone.

mod build_rss;

#[test]
#[ignore = "census build, run with --release -- --ignored"]
fn census_build_rss_rise_on_2_threads_is_arena_plus_3_bytes_per_covering_cell() {
    build_rss::assert_census_build_rss(2);
}
