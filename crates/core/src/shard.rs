//! Horizontal index sharding: split one snapshot into N per-shard
//! snapshots a worker fleet can serve behind a scatter-gather router.
//!
//! ## The cut
//!
//! The shard key of a cell is its **prefix at the split level** `L`:
//! the top `3 + 2·L` bits of the cell id (3 cube-face bits plus two
//! position bits per level) — the same face-major ordering
//! [`crate::supercover::build_super_covering_sharded`] cuts the build
//! along, extended below the face so small deployments still spread
//! load. A cell at level ≥ `L` has exactly one such prefix (its
//! level-`L` ancestor's), so `shard = prefix mod N` assigns it — and
//! every probe leaf that can reach it — to exactly one shard. A cell
//! *coarser* than `L` spans a contiguous prefix range; it is
//! **replicated** into every shard that range touches, so whichever
//! shard a probing leaf routes to holds a copy.
//!
//! That invariant is the whole correctness story: for any probe leaf,
//! the shard chosen by [`shard_of_cell`] contains every indexed cell
//! whose territory includes that leaf. Routed probe answers are
//! therefore identical to single-process answers (the router's oracle
//! tests assert this literally), and the only cross-shard artifact is
//! coarse-cell replication — a few duplicate referencing cells, never a
//! missing one. The router still dedups per-point refs defensively.
//!
//! ## Shard snapshots
//!
//! Each shard is a full, self-validating `ACTSNP01` snapshot built by
//! re-inserting the shard's cell set into a fresh trie — so a worker
//! mmaps and serves it with zero new code paths, per-shard hot-swap and
//! delta lineages included.

use crate::index::ActIndex;
use crate::lookup::LookupTableBuilder;
use crate::snapshot::SnapshotError;
use crate::trie::Act;
use s2cell::CellId;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default split level for the shard cut: prefixes carry the face plus
/// eight position bits (3072 distinct prefixes), fine enough that a
/// modulo assignment spreads real-world face-local datasets across a
/// small fleet, coarse enough that almost no indexed cell is coarser
/// than it (replication stays rare).
pub const DEFAULT_SPLIT_LEVEL: u8 = 4;

/// Number of position bits below the face in a cell id.
const POS_BITS: u32 = 61;

/// The shard-key prefix of `cell` at `split_level`: face bits plus
/// `2·split_level` position bits.
#[inline]
fn prefix_at(cell: CellId, split_level: u8) -> u64 {
    cell.0 >> (POS_BITS - 2 * u32::from(split_level))
}

/// The shard that owns `cell`'s territory, for cells at or below (finer
/// than) the split level — in particular every probe leaf. The sharder
/// and the router must agree on this function; it is the single routing
/// authority.
///
/// # Panics
/// Panics if `num_shards` is zero.
#[inline]
pub fn shard_of_cell(cell: CellId, split_level: u8, num_shards: usize) -> usize {
    assert!(num_shards > 0, "a fleet has at least one shard");
    (prefix_at(cell, split_level) % num_shards as u64) as usize
}

/// Every shard whose prefix range `cell`'s territory overlaps. For a
/// cell at level ≥ `split_level` this is the single owning shard; a
/// coarser cell spans a contiguous prefix range and lands in each shard
/// that range touches (replication). Returned ascending, deduplicated.
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn shards_for_cell(cell: CellId, split_level: u8, num_shards: usize) -> Vec<usize> {
    assert!(num_shards > 0, "a fleet has at least one shard");
    if cell.level() >= split_level {
        return vec![shard_of_cell(cell, split_level, num_shards)];
    }
    let lo = prefix_at(cell.range_min(), split_level);
    let hi = prefix_at(cell.range_max(), split_level);
    if hi - lo + 1 >= num_shards as u64 {
        return (0..num_shards).collect();
    }
    let mut shards: Vec<usize> = (lo..=hi)
        .map(|p| (p % num_shards as u64) as usize)
        .collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

/// Splits `index` into `num_shards` self-contained per-shard indexes
/// along the [`shard_of_cell`] cut. Every live `(cell, refs)` pair goes
/// to its owning shard (or, coarser than the split level, to every
/// overlapped shard), inserted into that shard's fresh trie as the
/// read-only cell walk reaches it, with no copy of the arena and no cell
/// list in between. Each result is a normal [`ActIndex`] with accurate
/// size stats: snapshot-saveable, mutable, serveable. Shards with no
/// cells are valid empty indexes (every probe misses).
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn split_index(index: &ActIndex, split_level: u8, num_shards: usize) -> Vec<ActIndex> {
    assert!(num_shards > 0, "a fleet has at least one shard");
    let start = Instant::now();
    let mut shards: Vec<(Act, LookupTableBuilder)> = (0..num_shards)
        .map(|_| (Act::new(), LookupTableBuilder::new()))
        .collect();
    index
        .act()
        .for_each_cell(index.table().words(), |cell, refs| {
            for s in shards_for_cell(cell, split_level, num_shards) {
                let (act, tb) = &mut shards[s];
                act.insert(cell, &refs, tb);
            }
        });
    let params = crate::covering::CoveringParams::new(index.stats().precision_m);
    shards
        .into_iter()
        .map(|(act, tb)| ActIndex::from_populated(act, tb, params, start))
        .collect()
}

/// The conventional file name of shard `k` of `n`: `shard-<k>-of-<n>.snap`.
/// Workers watch these paths individually, so per-shard hot-swap (full
/// snapshots and `.d<seq>` delta siblings alike) needs no router
/// involvement.
pub fn shard_file_name(k: usize, n: usize) -> String {
    format!("shard-{k}-of-{n}.snap")
}

/// The conventional shard snapshot paths under `dir`.
pub fn shard_paths(dir: &Path, num_shards: usize) -> Vec<PathBuf> {
    (0..num_shards)
        .map(|k| dir.join(shard_file_name(k, num_shards)))
        .collect()
}

/// [`split_index`] + save: writes `shard-<k>-of-<n>.snap` under `dir`
/// (created if missing) via sibling-write + atomic rename, returning
/// the shard paths in shard order.
///
/// # Errors
/// Propagates I/O and serialization errors; a failed shard leaves no
/// partial file at its final path.
pub fn write_shard_files(
    index: &ActIndex,
    dir: &Path,
    split_level: u8,
    num_shards: usize,
) -> Result<Vec<PathBuf>, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let shards = split_index(index, split_level, num_shards);
    let paths = shard_paths(dir, num_shards);
    for (shard, path) in shards.iter().zip(&paths) {
        let mut bytes = Vec::new();
        shard.save_snapshot(&mut bytes)?;
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::coord_to_cell;
    use geom::{Coord, Polygon, Ring};

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy - half),
                Coord::new(cx + half, cy + half),
                Coord::new(cx - half, cy + half),
            ]),
            vec![],
        )
    }

    /// A spread of polygons across two faces plus a pole-area shape, so
    /// splits exercise face boundaries and varied prefixes.
    fn test_polys() -> Vec<Polygon> {
        let mut polys = Vec::new();
        for k in 0..12 {
            polys.push(square(-74.0 + 0.05 * k as f64, 40.7, 0.02));
        }
        for k in 0..6 {
            polys.push(square(0.5 * k as f64, 0.2, 0.1));
        }
        polys.push(square(10.0, 88.5, 0.5)); // near-pole, another face
        polys
    }

    #[test]
    fn leaf_routes_into_owning_cells_shard_set() {
        let polys = test_polys();
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        for (cell, _) in idx.act().extract_all(idx.table().words()) {
            for n in [1usize, 2, 4, 7] {
                let shards = shards_for_cell(cell, DEFAULT_SPLIT_LEVEL, n);
                assert!(!shards.is_empty());
                // Any leaf under the cell must route into the set.
                for leaf in [cell.range_min(), cell.range_max()] {
                    let s = shard_of_cell(leaf, DEFAULT_SPLIT_LEVEL, n);
                    assert!(
                        shards.contains(&s),
                        "leaf of {cell:?} routed to shard {s}, owners {shards:?} (n={n})"
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_cells_replicate_contiguously() {
        let face = CellId::from_face(1);
        // A level-2 cell is coarser than split level 4: 16 prefixes.
        let coarse = face.child(0).child(0);
        let shards = shards_for_cell(coarse, 4, 64);
        assert_eq!(shards.len(), 16);
        // With few shards, the span wraps to all of them.
        assert_eq!(shards_for_cell(coarse, 4, 4), vec![0, 1, 2, 3]);
        // At the split level and below: exactly one shard.
        let at = coarse.child(1).child(2);
        assert_eq!(at.level(), 4);
        assert_eq!(shards_for_cell(at, 4, 64).len(), 1);
    }

    #[test]
    fn split_union_answers_like_the_whole() {
        let polys = test_polys();
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        for n in [1usize, 2, 4] {
            let shards = split_index(&idx, DEFAULT_SPLIT_LEVEL, n);
            assert_eq!(shards.len(), n);
            // Probe a grid around the data: the owning shard must answer
            // exactly like the unsharded index; the probe must never
            // *miss* refs the whole index reports.
            for gx in 0..40 {
                for gy in 0..8 {
                    let c = Coord::new(-74.2 + 0.06 * gx as f64, 40.55 + 0.05 * gy as f64);
                    let want = idx.lookup_refs(c);
                    let s = shard_of_cell(coord_to_cell(c), DEFAULT_SPLIT_LEVEL, n);
                    let got = shards[s].lookup_refs(c);
                    assert_eq!(got, want, "point {c:?} via shard {s} of {n}");
                }
            }
        }
    }

    /// One shard is the whole index re-inserted in range order — exactly
    /// what a compaction writes — so it must match a compacted copy byte
    /// for byte, straight after a build and after live edits left
    /// tombstones and orphaned nodes in the source arena.
    #[test]
    fn single_shard_equals_compacted_index() {
        let mut idx = ActIndex::build(&test_polys(), 15.0).unwrap();
        let same_as_compacted = |idx: &ActIndex| {
            let mut compacted = idx.clone();
            compacted.compact();
            split_index(idx, DEFAULT_SPLIT_LEVEL, 1)[0].identical_to(&compacted)
        };
        assert!(same_as_compacted(&idx));
        assert!(idx.remove_polygon(3));
        idx.insert_polygon(3, &square(-73.86, 40.71, 0.03)).unwrap();
        idx.insert_polygon(40, &square(-73.5, 40.7, 0.02)).unwrap();
        assert!(idx.remove_polygon(14));
        assert!(idx.waste_bytes() > 0, "the edits must leave garbage");
        assert!(same_as_compacted(&idx));
    }

    #[test]
    fn shard_snapshots_round_trip() {
        let polys = test_polys();
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        let dir = std::env::temp_dir().join(format!("act-shard-test-{}", std::process::id()));
        let paths = write_shard_files(&idx, &dir, DEFAULT_SPLIT_LEVEL, 3).unwrap();
        assert_eq!(paths.len(), 3);
        for (k, p) in paths.iter().enumerate() {
            assert_eq!(
                p.file_name().unwrap().to_str().unwrap(),
                shard_file_name(k, 3)
            );
            // Validates magic, checksum, and stats-vs-section lengths.
            let snap = crate::MappedSnapshot::open(p).unwrap();
            let c = Coord::new(-74.0, 40.7);
            let want = idx.lookup_refs(c);
            if shard_of_cell(coord_to_cell(c), DEFAULT_SPLIT_LEVEL, 3) == k {
                assert_eq!(snap.view().lookup_refs(c), want);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
