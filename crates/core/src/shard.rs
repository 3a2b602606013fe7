//! Horizontal index sharding: split one snapshot into N per-shard
//! snapshots a worker fleet can serve behind a scatter-gather router.
//!
//! ## The cut
//!
//! The shard key of a cell is its **prefix at the split level** `L`:
//! the top `3 + 2·L` bits of the cell id (3 cube-face bits plus two
//! position bits per level) — the face-major curve order the
//! [`crate::supercover`] sweep emits cells in, cut below the face so
//! small deployments still spread load. A cell at level ≥ `L` has
//! exactly one such prefix (its level-`L` ancestor's), so
//! `shard = prefix mod N` assigns it — and
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
//! Each shard is a full, self-validating `ACTSNP01` snapshot — so a
//! worker mmaps and serves it with zero new code paths, per-shard
//! hot-swap and delta lineages included. A cell's key bytes are its path
//! through the trie, so every node at or below the split level lies
//! wholly inside one shard: a shard is a copy of whole subtrees, plus
//! the coarse runs above the cut that overlap it. The trie copy walk
//! builds it that way, node by node, into the arena that re-inserting
//! the shard's cells one by one would build.

use crate::index::ActIndex;
use crate::snapshot::SnapshotError;
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

/// True when `cell`'s territory overlaps `shard`'s prefix range. A cell
/// at level ≥ `split_level` lies in its single owning shard; a coarser
/// cell spans a contiguous prefix range and lands in each shard that
/// range touches (replication).
fn in_shard(cell: CellId, split_level: u8, num_shards: usize, shard: usize) -> bool {
    if cell.level() >= split_level {
        return shard_of_cell(cell, split_level, num_shards) == shard;
    }
    let (n, lo) = (num_shards as u64, prefix_at(cell.range_min(), split_level));
    let span = prefix_at(cell.range_max(), split_level) - lo + 1;
    // The span's prefixes are consecutive, so it holds a prefix ≡ shard
    // (mod n) iff the first one is fewer than `span` steps before it.
    (shard as u64 + n - lo % n) % n < span
}

/// Splits `index` into `num_shards` self-contained per-shard indexes
/// along the [`shard_of_cell`] cut. Every live `(cell, refs)` pair goes
/// to its owning shard (or, coarser than the split level, to every
/// overlapped shard). Each shard is one trie copy walk over the source:
/// a subtree at or below the split level is copied whole into its
/// owning shard or skipped, so each shard's arena and lookup table equal
/// what re-inserting its cells one by one in range order would build.
/// Each result is a normal [`ActIndex`] with accurate size stats:
/// snapshot-saveable, mutable, serveable. Shards with no cells are valid
/// empty indexes (every probe misses).
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn split_index(index: &ActIndex, split_level: u8, num_shards: usize) -> Vec<ActIndex> {
    assert!(num_shards > 0, "a fleet has at least one shard");
    (0..num_shards)
        .map(|k| split_shard(index, split_level, num_shards, k))
        .collect()
}

/// Shard `shard` of [`split_index`]'s cut.
fn split_shard(index: &ActIndex, split_level: u8, num_shards: usize, shard: usize) -> ActIndex {
    let start = Instant::now();
    let (act, tb) = index
        .act()
        .copy_cells(index.table().words(), split_level, |cell| {
            in_shard(cell, split_level, num_shards, shard)
        });
    let params = crate::covering::CoveringParams::new(index.stats().precision_m);
    ActIndex::from_populated(act, tb, params, start)
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

/// [`split_index`] + save, one shard at a time: each shard is copied,
/// streamed to `shard-<k>-of-<n>.snap` under `dir` (created if missing)
/// through [`crate::ActIndexView::save_file`] and dropped before the
/// next is copied, so at most one shard trie is in memory and no image
/// of one. Returns the shard paths in shard order.
///
/// # Errors
/// Propagates I/O and serialization errors; a failed shard leaves no
/// partial file at its final path.
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn write_shard_files(
    index: &ActIndex,
    dir: &Path,
    split_level: u8,
    num_shards: usize,
) -> Result<Vec<PathBuf>, SnapshotError> {
    assert!(num_shards > 0, "a fleet has at least one shard");
    std::fs::create_dir_all(dir)?;
    let paths = shard_paths(dir, num_shards);
    for (k, path) in paths.iter().enumerate() {
        let shard = split_shard(index, split_level, num_shards, k);
        shard.as_view().save_file(path)?;
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::coord_to_cell;
    use geom::{Coord, Polygon, Ring};

    /// Every shard whose prefix range `cell`'s territory overlaps,
    /// ascending.
    fn shards_for_cell(cell: CellId, split_level: u8, num_shards: usize) -> Vec<usize> {
        (0..num_shards)
            .filter(|&k| in_shard(cell, split_level, num_shards, k))
            .collect()
    }

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
        idx.act().for_each_cell(idx.table().words(), |cell, _| {
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
        });
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
                    let want = idx.as_view().lookup_refs(c);
                    let s = shard_of_cell(coord_to_cell(c), DEFAULT_SPLIT_LEVEL, n);
                    let got = shards[s].as_view().lookup_refs(c);
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
        // The build streams the sweep into the trie in the same range
        // order, so compacting an unmutated index rewrites the same
        // arena, roots and table words.
        let mut compacted = idx.clone();
        compacted.compact();
        assert_eq!(compacted.act().slots(), idx.act().slots());
        assert_eq!(compacted.act().roots(), idx.act().roots());
        assert_eq!(compacted.table().words(), idx.table().words());
        assert!(idx.remove_polygon(3));
        idx.insert_polygon(3, &square(-73.86, 40.71, 0.03)).unwrap();
        idx.insert_polygon(40, &square(-73.5, 40.7, 0.02)).unwrap();
        assert!(idx.remove_polygon(14));
        assert!(idx.waste_bytes() > 0, "the edits must leave garbage");
        assert!(same_as_compacted(&idx));
    }

    /// The populate the trie copy walk replaced, kept as its oracle:
    /// every live cell re-inserted, in range order, into each shard
    /// [`shards_for_cell`] names, which must be the residues of the
    /// cell's first prefixes.
    fn reinserted(index: &ActIndex, split_level: u8, n: usize) -> Vec<ActIndex> {
        let mut shards: Vec<_> = (0..n)
            .map(|_| (crate::Act::new(), crate::LookupTableBuilder::new()))
            .collect();
        index
            .act()
            .for_each_cell(index.table().words(), |cell, refs| {
                let owners = shards_for_cell(cell, split_level, n);
                let lo = prefix_at(cell.range_min(), split_level);
                let hi = prefix_at(cell.range_max(), split_level);
                let mut want: Vec<usize> =
                    (lo..=hi).take(n).map(|p| (p % n as u64) as usize).collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(owners, want, "owners of {cell:?}");
                for k in owners {
                    let (act, tb) = &mut shards[k];
                    act.insert(cell, &refs, tb);
                }
            });
        let params = crate::covering::CoveringParams::new(index.stats().precision_m);
        shards
            .into_iter()
            .map(|(act, tb)| ActIndex::from_populated(act, tb, params, Instant::now()))
            .collect()
    }

    fn assert_same(got: &ActIndex, want: &ActIndex, what: &str) {
        let counts = |i: &ActIndex| (i.act().inserted_cells(), i.act().denormalized_slots());
        assert_eq!(got.act().roots(), want.act().roots(), "{what}: roots");
        assert!(got.act().slots() == want.act().slots(), "{what}: arena");
        assert_eq!(got.table().words(), want.table().words(), "{what}: table");
        assert_eq!(counts(got), counts(want), "{what}: cell counts");
    }

    /// Compaction and every split of `index` equal re-insertion.
    fn assert_copies_match_reinsertion(index: &ActIndex, what: &str) {
        let mut compacted = index.clone();
        compacted.compact();
        assert_same(
            &compacted,
            &reinserted(index, 0, 1)[0],
            &format!("{what}: compaction"),
        );
        for level in [0u8, 1, 3, 4, 5, 8, 10, 12, 14] {
            for n in [1usize, 2, 3, 4, 7] {
                let got = split_index(index, level, n);
                for (k, want) in reinserted(index, level, n).iter().enumerate() {
                    let at = format!("{what}: shard {k} of {n} at level {level}");
                    assert_same(&got[k], want, &at);
                }
            }
        }
    }

    /// Squares of a seeded spread: overlapping clusters on several cube
    /// faces, each with one large square whose interior holds cells
    /// coarser than most split levels.
    fn seeded_polys(seed: u64) -> Vec<Polygon> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let face = |p: &Polygon| {
            let faces: Vec<u8> = (p.outer().vertices().iter())
                .map(|&c| coord_to_cell(c).face())
                .collect();
            faces.iter().all(|&f| f == faces[0])
        };
        let mut polys = Vec::new();
        while polys.len() < 16 {
            let (cx, cy) = (360.0 * unit() - 180.0, 140.0 * unit() - 70.0);
            let big = square(cx, cy, 0.2 + 0.2 * unit());
            let small = (0..4).map(|_| {
                let (dx, dy) = (0.1 * unit() - 0.05, 0.1 * unit() - 0.05);
                square(cx + dx, cy + dy, 0.01 + 0.03 * unit())
            });
            let cluster: Vec<Polygon> = std::iter::once(big).chain(small).collect();
            if cluster.iter().all(face) {
                polys.extend(cluster);
            }
        }
        polys
    }

    #[test]
    fn copy_walk_matches_reinsertion_on_built_indexes() {
        // Three terminal levels: runs of every width end the cell paths.
        for (seed, precision) in [(1, 400.0), (2, 700.0), (3, 250.0)] {
            let idx = ActIndex::build(&seeded_polys(seed), precision).unwrap();
            assert_copies_match_reinsertion(&idx, &format!("seed {seed}"));
        }
        let idx = ActIndex::build(&test_polys(), 60.0).unwrap();
        assert_copies_match_reinsertion(&idx, "test polygons");
    }

    /// Insert/remove cycles of one fence over two near-equal squares
    /// leave orphaned and cut nodes, and table entries whose sets also
    /// sit at another offset (a removal interns the shrunk set afresh).
    #[test]
    fn copy_walk_matches_reinsertion_after_edits() {
        let (a, b) = (square(-74.0, 40.7, 0.03), square(-74.001, 40.701, 0.03));
        let mut idx = ActIndex::build(&[a, b], 60.0).unwrap();
        let fence = square(-73.97, 40.69, 0.006);
        for round in 0..3 {
            idx.insert_polygon(2, &fence).unwrap();
            assert_copies_match_reinsertion(&idx, &format!("round {round}, fenced"));
            assert!(idx.remove_polygon(2));
            assert_copies_match_reinsertion(&idx, &format!("round {round}, removed"));
        }
        assert!(idx.waste_bytes() > 0, "the edits must leave garbage");
        // Some set is referenced at two offsets.
        let mut offsets: Vec<u32> = (idx.act().slots().iter().copied())
            .filter(|e| e & 3 == 3)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        let words = idx.table().words();
        let mut sets: Vec<_> = (offsets.iter())
            .map(|&e| crate::lookup::decode_at(words, e >> 2))
            .collect();
        sets.sort_unstable();
        sets.dedup();
        assert!(sets.len() < offsets.len(), "no set sits at two offsets");
    }

    /// A mapped base with owned nodes beside it: the walk reads both
    /// segments.
    #[test]
    fn copy_walk_matches_reinsertion_over_a_mapped_base() {
        let polys = seeded_polys(4);
        let mut bytes = Vec::new();
        ActIndex::build(&polys, 60.0)
            .unwrap()
            .save_snapshot(&mut bytes)
            .unwrap();
        let snap = crate::MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        let mut idx = ActIndex::from_mapped(std::sync::Arc::new(snap));
        // A fence over the first square's corner, overlapping it.
        let c = polys[0].outer().vertices()[0];
        idx.insert_polygon(100, &square(c.x, c.y, 0.02)).unwrap();
        assert!(idx.remove_polygon(1));
        assert!(idx.act().ext_bytes() > 0);
        assert_copies_match_reinsertion(&idx, "mapped base + ext");
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
            let want = idx.as_view().lookup_refs(c);
            if shard_of_cell(coord_to_cell(c), DEFAULT_SPLIT_LEVEL, 3) == k {
                assert_eq!(snap.view().lookup_refs(c), want);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
