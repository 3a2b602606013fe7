//! The hot-cell result cache: a sharded, epoch-keyed read-through map
//! from **resolved trie cell** to its resolved polygon-ref set, sitting
//! in front of the worker batch walk (ROADMAP item 4 — production probe
//! traffic is heavily skewed; everyone is downtown).
//!
//! Refs cross this API **packed** as `(id << 1) | hit` — exactly
//! [`crate::protocol::encode_ref`]'s wire form. That is not an
//! implementation detail, it is the point: an approximate-mode hit goes
//! slot → batch arena → reply payload as three straight `u32` copies
//! with no per-ref decode anywhere, which is what lets a hit undercut a
//! walk whose per-ref resolution cost it would otherwise merely match.
//!
//! ## Keying: the resolved trie cell, not the query point
//!
//! Entries are keyed by [`act_core::probe_cell_key`] — the key prefix
//! the trie walk actually consumed plus the depth it terminated at. Two
//! nearby points whose leaf cells share that prefix share one entry, so
//! the cache's working set is "hot *cells*", not "hot points": a block
//! of downtown resolves to a handful of entries no matter how many
//! distinct devices probe from it. Because the walk is deterministic,
//! at most one `(prefix, depth)` pair exists per query; a lookup tries
//! its query's prefixes at each depth `1..=7` and can hit at most one.
//! Depth-0 probes (an empty root face) are never cached — the walk
//! answers those with a single root check, cheaper than any map.
//!
//! ## Invalidation: the epoch, structurally
//!
//! There is no invalidation scan and no TTL. Every entry carries the
//! [`crate::swap::IndexStore`] epoch it was filled under, and a worker
//! consults the cache only with the epoch of the `(snapshot, epoch)`
//! pair it pinned for the batch. A full hot-swap or a delta apply bumps
//! the epoch, so every existing entry silently stops matching — a stale
//! hit is *structurally* impossible, and entries refill lazily under
//! the new epoch, overwriting in place. Old-epoch corpses cost nothing
//! to skip (the epoch check is part of the slot compare) and are
//! reclaimed wholesale the next time their shard clears.
//!
//! ## Layout: a flat open-addressing table, probed like the trie
//!
//! Each shard is a power-of-two slot array probed linearly, not a
//! `HashMap`: the walk this cache fronts already hides DRAM latency by
//! issuing its per-lane loads independently across a 2048-lane batch
//! (memory-level parallelism), so to *beat* the walk a hit must be one
//! predictable load itself. A slot is 32 bytes — key, epoch, ref count,
//! and up to `INLINE_REFS` refs packed `(id << 1) | hit` — so the
//! common hit touches exactly one cache line and the batch loop's loads
//! are independent across lanes, overlappable the same way the walk's
//! are. Longer ref lists spill to a contiguous per-shard arena (an
//! offset, not a pointer — no per-entry allocation, no pointer chase
//! into random heap). Lists longer than 255 refs are not cached.
//!
//! Capacity is enforced by **wholesale clear**: when a shard's live
//! count reaches its cap (or its spill arena its bound), the shard
//! drops everything and refills lazily — the moral equivalent of an
//! epoch bump, which the design already absorbs. No per-insert
//! eviction, no reaping, no free lists.
//!
//! ## Concurrency
//!
//! The table is sharded by the key's top bits. All depth keys of one
//! query share those bits (the face and first consumed byte), so one
//! lookup takes exactly **one** shard read-lock however many depths it
//! tries — and the batch form reacquires only when the shard changes.
//! Hit/miss counters are relaxed atomics, merged into the wire counter
//! block (`cache_hits` / `cache_misses`) — callers tally per
//! micro-batch and publish once via [`HotCellCache::record`], keeping
//! atomic traffic off the per-lane path.
//!
//! ## The depth hint
//!
//! Real indexes resolve the bulk of their traffic at one or two trie
//! depths (the census index at 15 m terminates nearly every probe at
//! depth 5). A naive lookup would still probe depths `1..=7` in order —
//! five table probes before the one that hits. The cache keeps a
//! relaxed `AtomicU8` *hint*: the termination depth of the most recent
//! hit. Lookups try the hinted depth first and fall back to the
//! remaining depths, so the steady-state hit is a single table probe.
//! The hint is advisory only — a wrong hint reorders the scan, never
//! changes its result.

use act_core::probe_cell_key;
use s2cell::CellId;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Hot-cell cache knobs. `Default` is 16 shards and 65 536 entries —
/// a few MB at typical ref-set sizes, far beyond any city's hot set.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Concurrency shards (rounded up to a power of two, minimum 1).
    pub shards: usize,
    /// Total entry capacity across shards. A shard that fills clears
    /// itself wholesale and refills lazily — under skewed traffic the
    /// hot set re-establishes within one batch, and under epoch churn
    /// most residents were dead already.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            shards: 16,
            capacity: 65_536,
        }
    }
}

/// Ref lists at or under this length live inside the slot itself, so a
/// hit is exactly one cache-line fetch; longer lists cost one more read
/// from the shard's contiguous spill arena. Real *partition* indexes
/// resolve nearly every cell to 0–3 candidates; stacked-zone indexes
/// (many overlapping layers) overflow by design and take the spill
/// path.
const INLINE_REFS: usize = 3;

/// Longest cacheable ref list (`len` is a `u8`). Longer resolutions are
/// simply not cached — at that size the copy would rival the walk.
const MAX_CACHED_REFS: usize = u8::MAX as usize;

/// Lanes per speculative-load group in [`HotCellCache::get_batch`]:
/// two slot loads per lane, sized so a group's loads sit within what
/// the core can keep in flight at once.
const MLP_GROUP: usize = 8;

/// One open-addressing slot: 32 bytes, two per cache line. `key == 0`
/// means empty — [`probe_cell_key`] always carries a nonzero depth tag
/// in its low bits, so no live key is ever 0. Refs are packed
/// `(id << 1) | hit`, the wire encoding.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    epoch: u32,
    /// Offset into the shard's spill arena; only read when
    /// `len > INLINE_REFS`.
    spill_at: u32,
    inline: [u32; INLINE_REFS],
    len: u8,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    epoch: 0,
    spill_at: 0,
    inline: [0; INLINE_REFS],
    len: 0,
};

/// One shard: the slot table plus its spill arena. Overwritten spilled
/// entries orphan their arena segment; the arena bound below turns that
/// slow leak into a wholesale clear, the same reclamation the slot cap
/// uses.
struct Table {
    slots: Box<[Slot]>,
    /// `slots.len() - 1` (power of two).
    slot_mask: usize,
    spill: Vec<u32>,
    /// Occupied (live + corpse) slot count.
    used: usize,
}

impl Table {
    fn new(cap: usize) -> Table {
        // ≤ 50% load before the clear triggers: linear probes stay
        // short and always terminate at an empty slot.
        let n = (cap * 2).next_power_of_two();
        Table {
            slots: vec![EMPTY_SLOT; n].into_boxed_slice(),
            slot_mask: n - 1,
            spill: Vec::new(),
            used: 0,
        }
    }

    /// Multiply-shift straight to a slot index: the keys are
    /// high-entropy in their top bits and the table is power-of-two
    /// sized, so one multiplication and a shift beat any general hasher
    /// on the path this cache exists to shorten.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.slot_mask
    }

    /// Linear-probes for `key`: `Ok(i)` at its slot, `Err(i)` at the
    /// first empty slot of its run (the insert position). Terminates
    /// because load never exceeds 50%.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.slot_of(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return Ok(i);
            }
            if k == 0 {
                return Err(i);
            }
            i = (i + 1) & self.slot_mask;
        }
    }

    /// Appends the slot's refs to `out` — a straight copy, because the
    /// stored form *is* the packed wire form.
    #[inline]
    fn read_refs(&self, slot: &Slot, out: &mut Vec<u32>) -> usize {
        let len = slot.len as usize;
        let packed: &[u32] = if len <= INLINE_REFS {
            &slot.inline[..len]
        } else {
            &self.spill[slot.spill_at as usize..slot.spill_at as usize + len]
        };
        out.extend_from_slice(packed);
        len
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.spill.clear();
        self.used = 0;
    }
}

/// The sharded cache itself. One per server, shared by every worker
/// through the server state's `Arc`; see the module docs.
pub struct HotCellCache {
    shards: Box<[RwLock<Table>]>,
    /// `shards.len() - 1` (power of two) — the shard selector mask.
    mask: usize,
    cap_per_shard: usize,
    /// Spill-arena words per shard before a clear (see module docs).
    spill_cap: usize,
    /// Termination depth of the most recent hit (see module docs).
    /// Advisory; relaxed loads/stores only.
    depth_hint: AtomicU8,
    /// The termination depth the hit *before* that used, when it
    /// differed — together with `depth_hint` a two-entry MRU of live
    /// depths. An index resolves nearly all traffic at one or two
    /// adjacent depths, so speculating on both covers the steady state
    /// even when the traffic alternates between them every few probes.
    depth_hint2: AtomicU8,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for HotCellCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotCellCache")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl HotCellCache {
    /// An empty cache per `config`.
    pub fn new(config: &CacheConfig) -> HotCellCache {
        let n = config.shards.clamp(1, 1 << 16).next_power_of_two();
        let cap_per_shard = (config.capacity / n).max(1);
        HotCellCache {
            shards: (0..n)
                .map(|_| RwLock::new(Table::new(cap_per_shard)))
                .collect(),
            mask: n - 1,
            cap_per_shard,
            // Generous: roughly every resident spilling a 16-deep list
            // (a 16-layer zone stack) fits without churn.
            spill_cap: cap_per_shard * 16,
            depth_hint: AtomicU8::new(1),
            depth_hint2: AtomicU8::new(2),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Every depth key of one query shares its top 11 bits (face + the
    /// first consumed byte), so sharding on them pins a whole lookup to
    /// one shard — one lock acquisition per queried cell.
    #[inline]
    fn shard_index(&self, leaf: CellId) -> usize {
        let key1 = probe_cell_key(leaf, 1);
        ((key1 >> 53).wrapping_mul(0x9E37) as usize) & self.mask
    }

    /// One lookup against an already-locked shard; shared by the single
    /// and batch forms. On a hit, packed refs are appended to `out` and
    /// their count returned.
    #[inline]
    fn lookup(&self, table: &Table, leaf: CellId, epoch: u32, out: &mut Vec<u32>) -> Option<usize> {
        let hint = self.depth_hint.load(Ordering::Relaxed).clamp(1, 7);
        // Termination depths cluster (an index resolves most traffic at
        // one or two adjacent depths), so a wrong hint is almost always
        // off by one — scan outward from the hint by distance, not from
        // depth 1 up, and the off-by-one case costs two probes, not
        // five.
        let mut depths = [0u8; 7];
        let mut m = 0;
        depths[m] = hint;
        m += 1;
        for delta in 1..7u8 {
            if hint + delta <= 7 {
                depths[m] = hint + delta;
                m += 1;
            }
            if hint > delta {
                depths[m] = hint - delta;
                m += 1;
            }
        }
        for &depth in &depths[..m] {
            if let Ok(i) = table.probe(probe_cell_key(leaf, depth)) {
                let slot = &table.slots[i];
                // An entry filled under another epoch never matches
                // (that is the whole invalidation story) — and a dead
                // entry at one depth must not shadow a live one
                // elsewhere, so the scan skips corpses.
                if slot.epoch == epoch {
                    if depth != hint {
                        // Move-to-front of the two-depth MRU: the depth
                        // that just hit becomes the primary speculation,
                        // the old primary the secondary.
                        self.depth_hint2.store(hint, Ordering::Relaxed);
                        self.depth_hint.store(depth, Ordering::Relaxed);
                    }
                    return Some(table.read_refs(slot, out));
                }
            }
        }
        None
    }

    /// Looks `leaf` up at `epoch`: tries the resolved-cell key at the
    /// hinted depth, then the rest, until one matches. On a hit the
    /// entry's refs — packed wire words, see the module docs — are
    /// appended to `out` and their count returned; on a miss `out` is
    /// untouched.
    ///
    /// Does **not** touch the hit/miss counters — batch callers tally
    /// locally and publish once via [`HotCellCache::record`].
    pub fn get_into(&self, leaf: CellId, epoch: u32, out: &mut Vec<u32>) -> Option<usize> {
        let table = self.shards[self.shard_index(leaf)]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        self.lookup(&table, leaf, epoch, out)
    }

    /// The batch form of [`HotCellCache::get_into`]: one lookup per
    /// cell of `leaves`, appending each hit's packed refs to `arena`
    /// and its `(start, len + 1)` span to `spans` — misses push
    /// `(0, 0)`.
    /// Returns the hit count (the caller records it with the batch's
    /// miss count once the misses are filled).
    ///
    /// The point of the batch form is what it keeps *off* the per-lane
    /// path — the same memory-level-parallelism discipline as the trie
    /// walk it competes with, which batches its node loads across lanes
    /// so DRAM latency overlaps instead of serializing:
    ///
    /// - the shard lock is reacquired only when the shard changes
    ///   (consecutive cells of real traffic land in the same shard
    ///   nearly always — the selector bits are a geographic prefix);
    /// - lanes are processed in groups of `MLP_GROUP`: each group
    ///   first computes every lane's home slot at the two MRU depths
    ///   (pure arithmetic), then copies all those slots out in one
    ///   dependency-free loop — the table is bigger than L2, so these
    ///   are the DRAM misses, and issuing them back to back lets the
    ///   core keep a group's worth in flight at once;
    /// - only lanes the speculation misses (displaced key, third depth,
    ///   corpse, genuine miss) fall back to the serial
    ///   `HotCellCache::lookup` chain.
    pub fn get_batch(
        &self,
        leaves: &[CellId],
        epoch: u32,
        arena: &mut Vec<u32>,
        spans: &mut Vec<(usize, usize)>,
    ) -> u64 {
        const G: usize = MLP_GROUP;
        let mut hits = 0u64;
        let mut held: Option<(usize, RwLockReadGuard<'_, Table>)> = None;
        let mut i = 0usize;
        while i < leaves.len() {
            let idx = self.shard_index(leaves[i]);
            if !matches!(&held, Some((s, _)) if *s == idx) {
                let guard = self.shards[idx]
                    .read()
                    .unwrap_or_else(PoisonError::into_inner);
                held = Some((idx, guard));
            }
            let mut end = i + 1;
            while end < leaves.len() && self.shard_index(leaves[end]) == idx {
                end += 1;
            }
            let table = &held.as_ref().expect("guard just set").1;
            let h1 = self.depth_hint.load(Ordering::Relaxed).clamp(1, 7);
            let mut h2 = self.depth_hint2.load(Ordering::Relaxed).clamp(1, 7);
            if h2 == h1 {
                h2 = if h1 < 7 { h1 + 1 } else { h1 - 1 };
            }
            for group in leaves[i..end].chunks(G) {
                let mut k1 = [0u64; G];
                let mut k2 = [0u64; G];
                let mut v1 = [EMPTY_SLOT; G];
                let mut v2 = [EMPTY_SLOT; G];
                for (j, &leaf) in group.iter().enumerate() {
                    k1[j] = probe_cell_key(leaf, h1);
                    k2[j] = probe_cell_key(leaf, h2);
                }
                // The speculative loads, kept free of branches on their
                // results so nothing stalls the next lane's issue.
                for j in 0..group.len() {
                    v1[j] = table.slots[table.slot_of(k1[j])];
                    v2[j] = table.slots[table.slot_of(k2[j])];
                }
                for (j, &leaf) in group.iter().enumerate() {
                    let start = arena.len();
                    let got = if v1[j].key == k1[j] && v1[j].epoch == epoch {
                        Some(table.read_refs(&v1[j], arena))
                    } else if v2[j].key == k2[j] && v2[j].epoch == epoch {
                        Some(table.read_refs(&v2[j], arena))
                    } else {
                        self.lookup(table, leaf, epoch, arena)
                    };
                    match got {
                        Some(n) => {
                            spans.push((start, n + 1));
                            hits += 1;
                        }
                        None => spans.push((0, 0)),
                    }
                }
            }
            i = end;
        }
        hits
    }

    /// Publishes a batch's tally to the hit/miss counters.
    pub fn record(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Fills (or refreshes) the resolved cell of `leaf` at the walk's
    /// termination `depth` with the ref set it resolved to under
    /// `epoch` — `refs` already packed as wire words (see the module
    /// docs). Depth-0 probes are not cached (see module docs); neither
    /// are lists longer than `MAX_CACHED_REFS`. No allocation on any
    /// fill — short lists pack into the slot, long ones append to the
    /// shard's spill arena.
    pub fn insert(&self, leaf: CellId, depth: u8, epoch: u32, refs: &[u32]) {
        if depth == 0 || refs.len() > MAX_CACHED_REFS {
            return;
        }
        let key = probe_cell_key(leaf, depth.min(7));
        let mut table = self.shards[self.shard_index(leaf)]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let mut pos = table.probe(key);
        let needs_spill = refs.len() > INLINE_REFS;
        if needs_spill {
            if let Ok(i) = pos {
                // Refreshing a resident spilled entry (an epoch flip
                // refilling the same hot cells, or a redundant re-fill)
                // reuses its segment in place when it fits. Without
                // this, every refresh would append a fresh segment and
                // orphan the old one — steady-state traffic would churn
                // the arena to its bound and clear the shard over and
                // over, wiping the very hot set the cache holds.
                let old = table.slots[i];
                if old.len as usize > INLINE_REFS && old.len as usize >= refs.len() {
                    let at = old.spill_at as usize;
                    table.spill[at..at + refs.len()].copy_from_slice(refs);
                    table.slots[i] = Slot {
                        key,
                        epoch,
                        spill_at: old.spill_at,
                        inline: [0; INLINE_REFS],
                        len: refs.len() as u8,
                    };
                    return;
                }
            }
        }
        if (pos.is_err() && table.used >= self.cap_per_shard)
            || (needs_spill && table.spill.len() + refs.len() > self.spill_cap)
        {
            // Wholesale reclamation — of this entry's own slot budget
            // *and* every orphaned spill segment and old-epoch corpse
            // in the shard. The hot set refills within a batch.
            table.clear();
            pos = table.probe(key);
        }
        let i = match pos {
            Ok(i) => i,
            Err(i) => {
                table.used += 1;
                i
            }
        };
        let mut slot = Slot {
            key,
            epoch,
            spill_at: 0,
            inline: [0; INLINE_REFS],
            len: refs.len() as u8,
        };
        if needs_spill {
            slot.spill_at = table.spill.len() as u32;
            table.spill.extend_from_slice(refs);
        } else {
            slot.inline[..refs.len()].copy_from_slice(refs);
        }
        table.slots[i] = slot;
    }

    /// Hits so far (relaxed).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses so far (relaxed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Occupied slots across shards, live and corpse alike (tests and
    /// debugging; takes every shard's read lock).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).used)
            .sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packed hit refs, as the worker fill path would produce them.
    fn refs(ids: &[u32]) -> Vec<u32> {
        ids.iter()
            .map(|&id| crate::protocol::encode_ref(id, true))
            .collect()
    }

    /// The worker path in miniature: one lookup, tallied immediately.
    fn get(cache: &HotCellCache, leaf: CellId, epoch: u32) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        let hit = cache.get_into(leaf, epoch, &mut out);
        cache.record(hit.is_some() as u64, hit.is_none() as u64);
        hit.map(|_| out)
    }

    #[test]
    fn read_through_hits_only_at_the_filled_epoch() {
        let cache = HotCellCache::new(&CacheConfig::default());
        let leaf = CellId(0x4567_89AB_CDEF_0123);
        assert!(get(&cache, leaf, 1).is_none(), "cold");
        cache.insert(leaf, 5, 1, &refs(&[7, 9]));
        let hit = get(&cache, leaf, 1).expect("warm at epoch 1");
        assert_eq!(hit, refs(&[7, 9]));
        // A swap bumps the epoch: the same entry silently stops
        // matching — no scan ran.
        assert!(get(&cache, leaf, 2).is_none(), "stale epoch never hits");
        cache.insert(leaf, 5, 2, &refs(&[8]));
        assert_eq!(get(&cache, leaf, 2).expect("refilled"), refs(&[8]));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn resolved_cell_is_shared_below_the_termination_depth() {
        let cache = HotCellCache::new(&CacheConfig::default());
        let leaf = CellId(0x4567_89AB_CDEF_0123);
        // Filled at depth 3: only the face + 3 bytes matter.
        cache.insert(leaf, 3, 1, &refs(&[1]));
        let sibling = CellId(leaf.0 ^ 0xFF); // same depth-3 prefix
        assert!(get(&cache, sibling, 1).is_some(), "prefix sibling hits");
        let other = CellId(leaf.0 ^ (0xFFu64 << 40)); // differs inside it
        assert!(get(&cache, other, 1).is_none());
    }

    #[test]
    fn depth_hint_reorders_but_never_changes_the_answer() {
        let cache = HotCellCache::new(&CacheConfig::default());
        // Two leaves resolving at different depths: every lookup of one
        // leaves the hint "wrong" for the other, so each exercises the
        // fallback scan — and still finds its entry.
        let shallow = CellId(0x4567_89AB_CDEF_0123);
        let deep = CellId(0x89AB_CDEF_0123_4567);
        cache.insert(shallow, 2, 1, &refs(&[1]));
        cache.insert(deep, 6, 1, &refs(&[2]));
        for _ in 0..4 {
            assert_eq!(get(&cache, shallow, 1).expect("shallow"), refs(&[1]));
            assert_eq!(get(&cache, deep, 1).expect("deep"), refs(&[2]));
        }
        assert_eq!(cache.hits(), 8);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn depth_zero_probes_are_never_cached() {
        let cache = HotCellCache::new(&CacheConfig::default());
        let leaf = CellId(0x4567_89AB_CDEF_0123);
        cache.insert(leaf, 0, 1, &refs(&[]));
        assert!(cache.is_empty());
    }

    #[test]
    fn long_ref_lists_spill_and_round_trip() {
        let cache = HotCellCache::new(&CacheConfig::default());
        let leaf = CellId(0x4567_89AB_CDEF_0123);
        // One past the inline bound, and a long stacked-zone list.
        let wide: Vec<u32> = (0..INLINE_REFS as u32 + 1)
            .map(|k| crate::protocol::encode_ref(k, k % 2 == 0))
            .collect();
        let deep: Vec<u32> = (0..64u32)
            .map(|k| crate::protocol::encode_ref(1000 + k, true))
            .collect();
        cache.insert(leaf, 5, 1, &wide);
        assert_eq!(get(&cache, leaf, 1).expect("spilled"), wide);
        cache.insert(leaf, 5, 1, &deep);
        assert_eq!(get(&cache, leaf, 1).expect("respilled"), deep);
        // Over the length cap: silently uncacheable, entry unchanged.
        let over = refs(&(0..MAX_CACHED_REFS as u32 + 1).collect::<Vec<_>>());
        cache.insert(CellId(0x1123_4567_89AB_CDEF), 5, 1, &over);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_is_bounded_by_wholesale_clear() {
        let cache = HotCellCache::new(&CacheConfig {
            shards: 1,
            capacity: 8,
        });
        for k in 0..64u64 {
            // Distinct depth-7 prefixes (bits well above the depth tag).
            cache.insert(CellId(k << 8), 7, 1, &refs(&[k as u32]));
        }
        assert!(
            cache.len() <= 8,
            "inserts clear at cap, never grow past it (len {})",
            cache.len()
        );
        assert!(!cache.is_empty(), "the clear refills with the inserted key");
    }
}
