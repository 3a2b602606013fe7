//! Census build-memory guard on a 1-thread pool, run by hand (ignored by
//! default):
//!
//! ```sh
//! cargo test --release -q -p act-core --test build_memory -- --ignored
//! ```
//!
//! See `build_rss/mod.rs` for the bound; `build_memory_2_threads` runs
//! the same guard on the 2-thread pool in its own binary.

mod build_rss;

#[test]
#[ignore = "census build, run with --release -- --ignored"]
fn census_build_rss_rise_is_arena_plus_3_bytes_per_covering_cell() {
    build_rss::assert_census_build_rss(1);
}
