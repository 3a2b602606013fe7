//! # act-core — Approximate Geospatial Joins with Precision Guarantees
//!
//! A from-scratch Rust implementation of the **Adaptive Cell Trie (ACT)**
//! from Kipf, Lang, Pandey, Persa, Boncz, Neumann, Kemper:
//! *Approximate Geospatial Joins with Precision Guarantees* (ICDE 2018).
//!
//! ACT answers streaming point-in-polygon joins **without a refinement
//! phase** while guaranteeing a user-defined precision ε: every reported
//! (point, polygon) pair is either exact (a *true hit* from a cell entirely
//! inside the polygon) or the point lies within ε of the polygon (a
//! *candidate hit* from a boundary cell whose diagonal is ≤ ε).
//!
//! ## Pipeline
//!
//! ```text
//! polygons ──►  covering (interior + boundary cells, uv-exact)   [covering]
//!          ──►  super covering (dedup + conflict push-down)      [supercover]
//!          ──►  Adaptive Cell Trie + lookup table                [trie, lookup]
//! points   ──►  leaf cell id ──► trie probe ──► per-polygon counts   [join]
//! ```
//!
//! ## Quick example
//!
//! ```
//! use act_core::ActIndex;
//! use geom::{Coord, Polygon, Ring};
//!
//! // One ~4 km square around Midtown Manhattan.
//! let midtown = Polygon::new(
//!     Ring::new(vec![
//!         Coord::new(-74.00, 40.74),
//!         Coord::new(-73.96, 40.74),
//!         Coord::new(-73.96, 40.78),
//!         Coord::new(-74.00, 40.78),
//!     ]),
//!     vec![],
//! );
//!
//! // Build with a 15 m precision guarantee.
//! let index = ActIndex::build(&[midtown], 15.0).unwrap();
//!
//! // Probe a point: Times Square is a true hit for polygon 0.
//! let refs = index.as_view().lookup_refs(Coord::new(-73.9855, 40.7580));
//! assert_eq!(refs, vec![(0, true)]);
//! ```

// All unsafe in the serving stack lives in `vendor/mmapio` (the mmap
// syscall shim + checked slice casts); this crate is pure safe code.
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod covering;
pub mod delta;
pub mod index;
pub mod join;
pub mod lookup;
pub mod refs;
pub mod shard;
pub mod snapshot;
pub mod sorted_index;
pub mod supercover;
pub mod trie;
pub mod uvpoly;

pub use adaptive::{build_with_budget, AdaptReport, AdaptiveIndex, AdaptiveParams, BudgetedBuild};
pub use covering::{cover_polygon, Covering, CoveringParams};
pub use delta::{apply_delta_file, save_delta, save_delta_file, Delta, DeltaLink, DeltaOp};
pub use index::{coord_to_cell, ActIndex, BuildStats};
pub use join::{
    join_approx_cells, join_approx_cells_batch, join_approx_coords, join_exact,
    join_parallel_cells_batch, JoinStats, Refiner, DEFAULT_PROBE_BATCH,
};
pub use lookup::{LookupTable, LookupTableBuilder};
pub use refs::{PolygonRef, RefSet, MAX_POLYGON_ID};
pub use shard::{
    shard_file_name, shard_of_cell, shard_paths, split_index, write_shard_files,
    DEFAULT_SPLIT_LEVEL,
};
pub use snapshot::{
    header_checksum, write_file_atomic, write_file_atomic_with, ActIndexView, MappedSnapshot,
    SnapshotError,
};
pub use sorted_index::SortedCellIndex;
pub use supercover::{build_super_covering, SuperCovering};
pub use trie::{probe_cell_key, resolve_probe, Act, Probe};
