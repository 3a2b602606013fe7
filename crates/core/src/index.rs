//! The end-to-end index: polygons → coverings → super covering → ACT.
//!
//! [`ActIndex::build`] runs the full paper pipeline and records the metrics
//! reported in the paper's Table I (indexed cells, ACT size, lookup-table
//! size, covering build time, super-covering build time).

use crate::covering::{cover_uv_polygon, covering_bound, Covering, CoveringParams, PackedCovering};
use crate::lookup::{LookupTable, LookupTableBuilder};
use crate::refs::{RefSet, MAX_POLYGON_ID};
use crate::snapshot::SnapshotError;
use crate::supercover::{admission_order, first_cell_order, stream_super_covering, SuperCovering};
use crate::trie::Act;

use crate::uvpoly::{MultiFaceError, UvPolygon};
use geom::{Coord, Polygon};
use s2cell::{CellId, LatLng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build-phase metrics (the paper's Table I rows).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Precision bound ε in meters.
    pub precision_m: f64,
    /// Terminal level boundary cells were refined to.
    pub terminal_level: u8,
    /// Number of cells over all per-polygon coverings (pre-merge).
    pub covering_cells: u64,
    /// Cells in the merged super covering ("indexed cells").
    pub indexed_cells: u64,
    /// Slots written after denormalization.
    pub denormalized_slots: u64,
    /// Push-down splits during conflict resolution.
    pub pushdown_splits: u64,
    /// ACT node-arena size in bytes.
    pub act_bytes: usize,
    /// Lookup-table size in bytes.
    pub lookup_table_bytes: usize,
    /// Time spent on per-polygon coverings, seconds, as the building
    /// thread sees it. The coverings overlap the sweep, so this is the
    /// bound pass (every polygon projected and its
    /// [`crate::covering::covering_bound`] found, on the pool) plus the
    /// time the sweep spent covering a polygon itself or waiting for the
    /// pool's covering. Coverings the pool's other threads computed while
    /// the sweep ran are not in it; on a 1-thread build, every covering
    /// is.
    pub build_coverings_secs: f64,
    /// Wall time of the super-covering sweep, seconds, less the covering
    /// time counted in `build_coverings_secs`. A build from polygons
    /// streams the sweep into the trie, so this field carries the fused
    /// sweep + trie populate. With `build_coverings_secs`, it adds up to
    /// the build's wall time before the lookup-table finish.
    pub build_supercover_secs: f64,
    /// Wall time to finish the trie and lookup table, seconds: after a
    /// streamed build only the lookup-table finish; from an already-merged
    /// [`SuperCovering`], the whole populate.
    pub build_insert_secs: f64,
}

/// The query-ready index over a set of polygons.
///
/// Built once via [`ActIndex::build`] and then either served as-is or
/// mutated in place: [`ActIndex::insert_polygon`] and
/// [`ActIndex::remove_polygon`] edit the live trie (inserts append into
/// the node arena, removals tombstone references). A clone shares the
/// trie's base segment, and the edits of either copy only the nodes they
/// write (see [`crate::trie`]); a copied-out node counts as waste. Once
/// the accumulated garbage crosses
/// [`ActIndex::COMPACT_WASTE_THRESHOLD`], the mutation
/// that crossed it runs [`ActIndex::compact`] to completion before it
/// returns: one streamed pass that re-inserts the live cells into a
/// fresh trie, the same populate [`crate::split_index`] runs per shard.
/// Queries take the borrowed view [`ActIndex::as_view`].
#[derive(Debug, Clone)]
pub struct ActIndex {
    act: Act,
    table: LookupTable,
    stats: BuildStats,
    /// Estimated garbage bytes accumulated by mutations since the last
    /// compaction (orphaned arena nodes + stale lookup-table words).
    /// Transient: not persisted in snapshots.
    waste_bytes: u64,
    /// Superset of the polygon ids the trie can reference (stale entries
    /// from tombstoned removals may linger until a compaction — that
    /// only costs a wasted scan, never a wrong answer). `None` until the
    /// first mutation builds it — read off the cell inventory's keys, or
    /// by one flat arena scan when a removal needs it first; maintained
    /// incrementally afterwards so upserts of unseen ids skip the
    /// full-arena remove pass. Transient: not persisted in snapshots.
    live_ids: Option<std::collections::BTreeSet<u32>>,
    /// Per-id cell inventory: id → the cells whose territories may still
    /// reference it, recorded as inserts land. Removal walks exactly
    /// these territories instead of the whole node arena — O(cells
    /// touched), not O(arena). A *superset* per id (cells another insert
    /// later overwrote linger until a compaction rebuilds the inventory
    /// exact) — a stale entry only costs a no-op descent, never a wrong
    /// answer. `None` until the first mutation (or
    /// [`ActIndex::prime_mutations`]) pays two read-only tree walks to
    /// build it. Each id's list is exact-sized and shared with clones of
    /// this index: a mutation replaces only the lists of the ids it
    /// touches (copy-on-write per id), so cloning a primed index copies
    /// the id map, not the cells. Transient: not persisted in snapshots.
    cell_inventory: Option<Inventory>,
}

/// Per-id cell inventory (see `ActIndex::cell_inventory`).
type Inventory = HashMap<u32, Arc<[CellId]>>;

/// Builds an exact inventory from a replayable stream of live
/// `(cell, refs)` pairs: `each` runs the stream through its visitor
/// twice — once to count every id's cells, once to fill lists allocated
/// at exactly that size — so no cell list is ever materialized whole
/// and no per-id list carries growth slack.
fn build_inventory(each: impl Fn(&mut dyn FnMut(CellId, &RefSet))) -> Inventory {
    let mut ids = IdSlots::default();
    let mut counts: Vec<usize> = Vec::new();
    each(&mut |_, refs| {
        for r in refs.iter() {
            let slot = ids.slot(r.id);
            if slot == counts.len() {
                counts.push(0);
            }
            counts[slot] += 1;
        }
    });
    let mut lists: Vec<Vec<CellId>> = counts.into_iter().map(Vec::with_capacity).collect();
    each(&mut |cell, refs| {
        for r in refs.iter() {
            lists[ids.slot(r.id)].push(cell);
        }
    });
    ids.slots
        .into_iter()
        .map(|(id, slot)| (id, Arc::from(std::mem::take(&mut lists[slot]))))
        .collect()
}

/// Dense slots `0, 1, …` for polygon ids in order of first sight, with a
/// two-entry memo in front of the map: a range-order walk meets the same
/// one or two polygons for long stretches, so most lookups skip hashing.
struct IdSlots {
    slots: HashMap<u32, usize>,
    /// The two most recent `(id, slot)` pairs, newest first (`u32::MAX`
    /// is above every polygon id, so it never matches).
    recent: [(u32, usize); 2],
}

impl Default for IdSlots {
    fn default() -> IdSlots {
        IdSlots {
            slots: HashMap::new(),
            recent: [(u32::MAX, 0); 2],
        }
    }
}

impl IdSlots {
    fn slot(&mut self, id: u32) -> usize {
        if self.recent[0].0 == id {
            return self.recent[0].1;
        }
        if self.recent[1].0 != id {
            let next = self.slots.len();
            self.recent[1] = (id, *self.slots.entry(id).or_insert(next));
        }
        self.recent.swap(0, 1);
        self.recent[0].1
    }
}

impl ActIndex {
    /// Builds the index for `polygons` with precision bound `precision_m`
    /// meters. Polygon ids are the slice indices.
    ///
    /// # Errors
    /// Returns an error if any polygon spans multiple cube faces.
    ///
    /// # Panics
    /// Panics if more than 2³⁰ polygons are supplied (payloads hold 30-bit
    /// ids) or if the precision is below the ~6 cm level-28 limit.
    pub fn build(polygons: &[Polygon], precision_m: f64) -> Result<ActIndex, MultiFaceError> {
        Self::build_parallel(polygons, precision_m, &jobs::JobPool::new(1))
    }

    /// [`ActIndex::build`] as a pipeline over `pool`: the per-polygon
    /// coverings (phase 1, embarrassingly parallel) overlap the serial
    /// super-covering sweep and the trie populate it streams into (phases
    /// 2 and 3).
    ///
    /// A parallel pass first projects each polygon and computes its
    /// covering's bound ([`crate::covering::covering_bound`]). The pool
    /// then covers the polygons in order of their bounds, a bounded window
    /// ahead of the sweep, and the sweep admits each covering only when it
    /// reaches that bound and frees it once drained. So the build never
    /// holds every covering at once. While the sweep waits for a covering,
    /// the calling thread computes one itself.
    ///
    /// Output is **deterministic**: the sweep consumes the coverings in one
    /// fixed order and stays serial, so the node arena, lookup table, and
    /// every [`BuildStats`] counter are the same whatever `pool`'s width
    /// (only the wall-time fields differ). [`ActIndex::build`] is this on
    /// a 1-thread pool, which runs everything inline.
    ///
    /// # Errors
    /// Returns an error if any polygon spans multiple cube faces: the
    /// error of the lowest such polygon id, whatever `pool`'s width.
    ///
    /// # Panics
    /// As [`ActIndex::build`].
    pub fn build_parallel(
        polygons: &[Polygon],
        precision_m: f64,
        pool: &jobs::JobPool,
    ) -> Result<ActIndex, MultiFaceError> {
        assert!(
            polygons.len() <= MAX_POLYGON_ID as usize + 1,
            "more than 2^30 polygons"
        );
        let params = CoveringParams::new(precision_m);

        let t0 = Instant::now();
        let bounds = pool
            .map(polygons, |poly| {
                UvPolygon::from_polygon(poly).map(|uv| covering_bound(&uv, &params))
            })
            .into_iter()
            .collect::<Result<Vec<CellId>, MultiFaceError>>()?;
        let order = admission_order(bounds);
        let bound_secs = t0.elapsed().as_secs_f64();

        // Each job re-projects its polygon rather than every projection
        // staying alive, and packs its covering, so a thread holds one
        // unpacked covering at a time.
        let cover = |&(_, id): &(CellId, u32)| {
            let uv = UvPolygon::from_polygon(&polygons[id as usize])
                .expect("the bound pass projected every polygon");
            cover_uv_polygon(&uv, &params).pack()
        };
        Ok(pool.map_stream(&order, cover, |coverings| {
            Self::from_stream(&order, coverings, params, bound_secs)
        }))
    }

    /// Assembles the index from precomputed coverings (`coverings[i]` is
    /// polygon `i`'s, sorted as [`cover_uv_polygon`] emits it): one
    /// super-covering sweep (duplicate removal, conflict resolution)
    /// streamed cell by cell into the trie. Exposed for ablations.
    ///
    /// The same merge as [`ActIndex::build_parallel`]'s, with each
    /// covering's bound set to its first cell. Each covering is packed to
    /// 8 bytes per cell, exact-sized, and freed once merged.
    ///
    /// # Panics
    /// Panics if a covering's cells are not sorted by `range_min`, or if
    /// one holds a leaf (level-30) cell.
    pub fn from_coverings(
        coverings: Vec<Covering>,
        params: CoveringParams,
        covering_secs: f64,
    ) -> ActIndex {
        let order = first_cell_order(&coverings);
        let mut packed: Vec<PackedCovering> = coverings.into_iter().map(|c| c.pack()).collect();
        let mut stream = (order.iter()).map(|&(_, id)| std::mem::take(&mut packed[id as usize]));
        Self::from_stream(&order, &mut stream, params, covering_secs)
    }

    /// The sweep over `coverings`, which arrive in `order` (see
    /// [`crate::supercover::admission_order`]), streamed into a fresh trie.
    /// `covering_secs` is the time spent on coverings before the sweep;
    /// the time the sweep then spends waiting for or computing coverings
    /// counts toward it as well.
    fn from_stream(
        order: &[(CellId, u32)],
        coverings: &mut dyn Iterator<Item = PackedCovering>,
        params: CoveringParams,
        covering_secs: f64,
    ) -> ActIndex {
        let t1 = Instant::now();
        let (mut covering_cells, mut waited) = (0u64, Duration::ZERO);
        let timed = std::iter::from_fn(|| {
            let t = Instant::now();
            let covering = coverings.next();
            waited += t.elapsed();
            covering_cells += covering.as_ref().map_or(0, |c| c.len() as u64);
            covering
        });
        let mut act = Act::new();
        let mut table_builder = LookupTableBuilder::new();
        let pushdown_splits = stream_super_covering(order, timed, |cell, refs| {
            act.insert(cell, refs, &mut table_builder)
        });
        let pipeline = t1.elapsed();

        let mut index = Self::from_populated(act, table_builder, params, Instant::now());
        index.stats.covering_cells = covering_cells;
        index.stats.pushdown_splits = pushdown_splits;
        index.stats.build_coverings_secs = covering_secs + waited.as_secs_f64();
        index.stats.build_supercover_secs = (pipeline - waited).as_secs_f64();
        index
    }

    /// Assembles an index directly from an already-merged super covering.
    /// Used by the adaptive index (which maintains its own cell set) and by
    /// baseline comparisons that share one covering across index types.
    pub fn from_supercover(sc: SuperCovering, params: CoveringParams) -> ActIndex {
        let t = Instant::now();
        let mut act = Act::new();
        let mut table_builder = LookupTableBuilder::new();
        for (cell, refs) in &sc.cells {
            act.insert(*cell, refs, &mut table_builder);
        }
        let mut index = Self::from_populated(act, table_builder, params, t);
        index.stats.pushdown_splits = sc.pushdown_splits;
        index
    }

    /// An index over a trie its caller populated cell by cell (since
    /// `populate_start`), with the size and cell-count stats read off
    /// the trie and table. The shard splitter streams each shard's
    /// cells straight into one of these.
    pub(crate) fn from_populated(
        mut act: Act,
        table_builder: LookupTableBuilder,
        params: CoveringParams,
        populate_start: Instant,
    ) -> ActIndex {
        act.freeze();
        let table = table_builder.build();
        let stats = BuildStats {
            precision_m: params.precision_m,
            terminal_level: params.terminal_level(),
            indexed_cells: act.inserted_cells(),
            denormalized_slots: act.denormalized_slots(),
            act_bytes: act.memory_bytes(),
            lookup_table_bytes: table.memory_bytes(),
            build_insert_secs: populate_start.elapsed().as_secs_f64(),
            ..BuildStats::default()
        };
        Self::from_parts(act, table, stats)
    }

    /// Reassembles an index from already-validated parts (snapshot load
    /// path; see [`crate::snapshot`]).
    pub(crate) fn from_parts(act: Act, table: LookupTable, stats: BuildStats) -> ActIndex {
        ActIndex {
            act,
            table,
            stats,
            waste_bytes: 0,
            live_ids: None,
            cell_inventory: None,
        }
    }

    /// Serializes the built index into the versioned snapshot format
    /// (see [`crate::snapshot`] for the layout), returning the number of
    /// bytes written. Loading the snapshot back — via
    /// [`ActIndex::load_snapshot`] or a zero-copy
    /// [`crate::snapshot::ActIndexView`] — reproduces the node arena,
    /// lookup table, and build stats exactly.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn save_snapshot(&self, w: &mut impl std::io::Write) -> Result<u64, SnapshotError> {
        crate::snapshot::save(self, w)
    }

    /// Reads a snapshot produced by [`ActIndex::save_snapshot`] into an
    /// owned index, validating magic, version, section structure, and the
    /// checksum before any field is used.
    ///
    /// # Errors
    /// Returns a typed [`SnapshotError`] on I/O failure or any form of
    /// corruption; never panics on malformed input.
    pub fn load_snapshot(r: &mut impl std::io::Read) -> Result<ActIndex, SnapshotError> {
        crate::snapshot::load(r)
    }

    /// An owned, mutable index over a mapped snapshot that shares the
    /// mapping as its arena's base: it copies the roots and the lookup
    /// table, not the arena. It answers as the snapshot does, and a
    /// mutation copies only the nodes it writes (see [`crate::trie`]),
    /// so the mapping stays its only full arena. Use
    /// [`crate::MappedSnapshot::to_owned_index`] for a deep copy.
    pub fn from_mapped(snap: Arc<crate::MappedSnapshot>) -> ActIndex {
        snap.shared_index()
    }

    /// True when two indexes are the same query artifact byte for byte:
    /// node arena, roots, lookup-table words, and insertion counters all
    /// equal (build wall-times excluded — they are measurements, not
    /// index content). Used to verify snapshot round trips and parallel
    /// builds before recording benchmark numbers against them.
    pub fn identical_to(&self, other: &ActIndex) -> bool {
        self.act.slots() == other.act.slots()
            && self.act.roots() == other.act.roots()
            && self.act.inserted_cells() == other.act.inserted_cells()
            && self.act.denormalized_slots() == other.act.denormalized_slots()
            && self.table.words() == other.table.words()
    }

    /// Build metrics (Table I).
    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The underlying trie (for structural inspection).
    #[inline]
    pub fn act(&self) -> &Act {
        &self.act
    }

    /// The lookup table.
    #[inline]
    pub fn table(&self) -> &LookupTable {
        &self.table
    }

    /// Total index memory (trie + lookup table) in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.act.memory_bytes() + self.table.memory_bytes()
    }

    /// A borrowed zero-copy view over this index — the same query surface
    /// a mapped snapshot exposes, so serving code can treat owned
    /// (mutated) and mapped indexes uniformly.
    #[inline]
    pub fn as_view(&self) -> crate::snapshot::ActIndexView<'_> {
        crate::snapshot::ActIndexView::from_index(self)
    }

    // ---- live mutation --------------------------------------------------

    /// Waste fraction above which a mutation triggers [`ActIndex::compact`]
    /// automatically.
    pub const COMPACT_WASTE_THRESHOLD: f64 = 0.25;

    /// Inserts (or replaces — upsert semantics) polygon `id` into the live
    /// index, covering it at the index's precision bound. The covering is
    /// appended into the existing node arena; cells of other polygons that
    /// overlap the new covering are extracted, merged with it through the
    /// same conflict-resolution engine the full build uses, and
    /// re-inserted. Probe results afterwards are equivalent to a fresh
    /// rebuild over the updated polygon set (the mutation property tests
    /// assert exactly this against the cross-index oracles).
    ///
    /// # Errors
    /// Returns an error (leaving the index untouched) if the polygon spans
    /// multiple cube faces.
    ///
    /// # Panics
    /// Panics if `id` exceeds [`MAX_POLYGON_ID`].
    pub fn insert_polygon(&mut self, id: u32, polygon: &Polygon) -> Result<(), MultiFaceError> {
        assert!(id <= MAX_POLYGON_ID, "polygon id exceeds 30 bits");
        let params = CoveringParams::new(self.stats.precision_m);
        let uv = UvPolygon::from_polygon(polygon)?; // fail before mutating
        let covering = cover_uv_polygon(&uv, &params);

        // Upsert: any previous shape under this id goes first. The
        // live-id superset lets inserts of unseen ids — the common case
        // for delta streams — skip the removal pass entirely.
        self.ensure_inventory();
        if self.may_contain(id) {
            self.remove_inner(id);
        }

        // Extract + clear everything overlapping the new covering, then
        // let the super-covering engine resolve the combined set. Its
        // outputs are descendants-or-equal of its inputs, i.e. confined
        // to the territory the clearing pass just freed, so re-insertion
        // cannot collide with surviving cells.
        let mut waste = crate::trie::MutationWaste::default();
        let mut affected: Vec<(CellId, RefSet)> = Vec::new();
        for &(cell, _) in &covering.cells {
            self.act
                .clear_overlaps(cell, self.table.words(), &mut affected, &mut waste);
        }
        let mut pairs: Vec<(CellId, crate::refs::PolygonRef)> =
            Vec::with_capacity(covering.cells.len() + affected.len());
        for &(cell, interior) in &covering.cells {
            pairs.push((cell, crate::refs::PolygonRef { id, interior }));
        }
        for (cell, refs) in &affected {
            for r in refs.iter() {
                pairs.push((*cell, r));
            }
        }
        let sc = crate::supercover::build_from_pairs(pairs);
        let mut tb = LookupTableBuilder::from_table(std::mem::take(&mut self.table));
        for (cell, refs) in &sc.cells {
            self.act.insert_with_waste(*cell, refs, &mut tb, &mut waste);
        }
        self.table = tb.build();
        if let Some(ids) = &mut self.live_ids {
            ids.insert(id);
        }
        // Record where every re-inserted reference landed — the merged
        // set covers both the new polygon and its displaced neighbors,
        // so each touched id's inventory stays a territory superset. A
        // touched id gets a new list (old cells + landed ones), so a
        // clone sharing the old list never sees this index's edits.
        if let Some(inv) = &mut self.cell_inventory {
            let mut landed: HashMap<u32, Vec<CellId>> = HashMap::new();
            for (cell, refs) in &sc.cells {
                for r in refs.iter() {
                    landed.entry(r.id).or_default().push(*cell);
                }
            }
            for (id, cells) in landed {
                let old = inv.get(&id).map_or(&[][..], |l| &l[..]);
                let list: Arc<[CellId]> = old.iter().copied().chain(cells).collect();
                inv.insert(id, list);
            }
        }
        self.note_mutation(waste);
        self.maybe_compact();
        Ok(())
    }

    /// Removes polygon `id` from the live index: every reference to it is
    /// tombstoned out of the trie, emptied subtrees are pruned so probes
    /// miss, and the arena/table garbage this leaves behind is reclaimed
    /// by the next (possibly automatic) [`ActIndex::compact`]. Returns
    /// whether the index referenced `id` at all.
    pub fn remove_polygon(&mut self, id: u32) -> bool {
        self.ensure_live_ids();
        if !self.may_contain(id) {
            return false;
        }
        self.ensure_inventory();
        let changed = self.remove_inner(id);
        if changed {
            self.maybe_compact();
        }
        changed
    }

    fn remove_inner(&mut self, id: u32) -> bool {
        let mut waste = crate::trie::MutationWaste::default();
        let mut tb = LookupTableBuilder::from_table(std::mem::take(&mut self.table));
        // The inventory names every cell whose territory may still
        // reference `id`; walk those territories only. No entry means no
        // live reference anywhere (the inventory is a per-id superset of
        // the live trie, maintained by every insert since it was built),
        // so there is nothing to walk at all.
        let cells = self
            .cell_inventory
            .as_mut()
            .expect("inventory is ensured before removal")
            .remove(&id);
        let changed = match cells {
            Some(cells) => {
                let mut cells = cells.to_vec();
                cells.sort_unstable();
                cells.dedup();
                let mut memo = HashMap::new();
                let mut changed = false;
                for cell in cells {
                    self.act.remove_refs_in_cell(
                        cell,
                        id,
                        &mut tb,
                        &mut memo,
                        &mut changed,
                        &mut waste,
                    );
                }
                changed
            }
            None => false,
        };
        self.table = tb.build();
        // The remove pass strips *every* reference to `id`, so the id is
        // definitively gone whether or not anything changed.
        if let Some(ids) = &mut self.live_ids {
            ids.remove(&id);
        }
        if changed {
            self.note_mutation(waste);
        }
        changed
    }

    /// `false` means polygon `id` is definitively absent; `true` means it
    /// may be present (the tracked set is a superset of the live ids).
    fn may_contain(&self, id: u32) -> bool {
        self.live_ids.as_ref().is_none_or(|ids| ids.contains(&id))
    }

    /// Builds the live-id superset if it has not been built yet: one
    /// sequential pass over the node arena (inline single references)
    /// plus one over the lookup-table words. Orphaned nodes and stale
    /// table entries contribute ids too — a superset is all the fast
    /// path needs, and compactions shed the stragglers.
    fn ensure_live_ids(&mut self) {
        if self.live_ids.is_some() {
            return;
        }
        let mut ids = std::collections::BTreeSet::new();
        self.act.collect_inline_ids(&mut ids);
        let words = self.table.words();
        let mut off = 0usize;
        while off < words.len() {
            let n_true = words[off] as usize;
            let n_cand = words[off + 1 + n_true] as usize;
            for &id in &words[off + 1..off + 1 + n_true] {
                ids.insert(id);
            }
            for &id in &words[off + 2 + n_true..off + 2 + n_true + n_cand] {
                ids.insert(id);
            }
            off += 2 + n_true + n_cand;
        }
        self.live_ids = Some(ids);
    }

    /// Builds the per-id cell inventory if it has not been built yet:
    /// the live `(cell, refs)` set streamed through the read-only cell
    /// walk (never materialized) and inverted into id → cells. Exact at
    /// build time; inserts keep it a superset afterwards and compactions
    /// make it exact again.
    ///
    /// The inventory's keys are exactly the ids the trie references, so
    /// an unbuilt live-id set is filled from them for free.
    fn ensure_inventory(&mut self) {
        if self.cell_inventory.is_some() {
            return;
        }
        let (act, words) = (&self.act, self.table.words());
        let inv = build_inventory(|f| act.for_each_cell(words, |cell, refs| f(cell, &refs)));
        if self.live_ids.is_none() {
            self.live_ids = Some(inv.keys().copied().collect());
        }
        self.cell_inventory = Some(inv);
    }

    /// Pays the one-time live-id set and per-id cell inventory build up
    /// front (see [`ActIndex::insert_polygon`]) so the first mutation
    /// after a load is as fast as the steady state. Idempotent; called
    /// automatically by the first mutation otherwise.
    ///
    /// Cost: two read-only walks of the arena, streamed — no copy of the
    /// cell set is ever materialized. Memory: the id set is a few bytes
    /// per polygon; the inventory holds one cell id per `(cell, polygon)`
    /// reference, in exact-sized per-id lists. Clones of a primed index
    /// share those lists, so priming once and cloning costs one
    /// inventory, not one per copy.
    pub fn prime_mutations(&mut self) {
        self.ensure_inventory();
    }

    /// Approximate heap bytes of the mutation state
    /// [`ActIndex::prime_mutations`] builds: the per-id cell lists (8
    /// bytes per listed cell and a 16-byte header each), the id map that
    /// holds them, and the live-id set. 0 before the first mutation.
    pub fn mutation_state_bytes(&self) -> usize {
        let lists = self.cell_inventory.as_ref().map_or(0, |inv| {
            let entry = std::mem::size_of::<(u32, Arc<[CellId]>)>() + 1;
            inv.values().map(|l| 16 + l.len() * 8).sum::<usize>() + inv.capacity() * entry
        });
        // About 8 bytes per id: a B-tree node holds up to 11 four-byte
        // keys beside a few words of links.
        let ids = self.live_ids.as_ref().map_or(0, |ids| ids.len() * 8);
        lists + ids
    }

    /// Rewrites the node arena and lookup table from the live cell set,
    /// dropping orphaned nodes and tombstoned table entries. Mutations
    /// call this automatically once [`ActIndex::waste_ratio`] crosses
    /// [`ActIndex::COMPACT_WASTE_THRESHOLD`]; it is also safe to call at
    /// any time. Probe results are unchanged.
    ///
    /// One streamed pass, run to completion: the read-only cell walk
    /// feeds each live `(cell, refs)` pair straight into a fresh trie
    /// and table — the populate [`crate::split_index`] runs for one
    /// shard, so the result is byte-identical to a one-shard split — and
    /// no cell list is ever built. The fresh arena becomes the trie's
    /// new base as it is, uncopied, so clones share it. The live-id set
    /// and the per-id inventory, if built, are then re-read exact from
    /// the new trie.
    pub fn compact(&mut self) {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        self.act.for_each_cell(self.table.words(), |cell, refs| {
            act.insert(cell, &refs, &mut tb)
        });
        act.freeze();
        self.act = act;
        self.table = tb.build();
        self.waste_bytes = 0;
        // The new trie holds exactly the live set, so this is the one
        // place the id superset and the inventory become exact again.
        let had_ids = self.live_ids.take().is_some();
        if self.cell_inventory.take().is_some() {
            self.ensure_inventory();
        } else if had_ids {
            self.ensure_live_ids();
        }
        self.note_mutation(crate::trie::MutationWaste::default());
    }

    /// Estimated garbage bytes accumulated by mutations since the last
    /// compaction (orphaned arena nodes + superseded lookup-table words).
    #[inline]
    pub fn waste_bytes(&self) -> u64 {
        self.waste_bytes
    }

    /// `waste_bytes / memory_bytes` — the lazy-compaction trigger metric.
    pub fn waste_ratio(&self) -> f64 {
        let total = self.memory_bytes() as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.waste_bytes as f64 / total
        }
    }

    fn maybe_compact(&mut self) {
        if self.waste_ratio() > Self::COMPACT_WASTE_THRESHOLD {
            self.compact();
        }
    }

    /// Folds a mutation's garbage estimate into the waste counters and
    /// refreshes the size/count fields of [`BuildStats`] (the build
    /// wall-time fields keep their original values; cell counts follow
    /// the live trie and are approximate between compactions, exact
    /// right after one).
    fn note_mutation(&mut self, waste: crate::trie::MutationWaste) {
        self.waste_bytes +=
            waste.orphaned_nodes * crate::trie::NODE_BYTES as u64 + waste.stale_table_words * 4;
        self.stats.indexed_cells = self.act.inserted_cells();
        self.stats.denormalized_slots = self.act.denormalized_slots();
        self.stats.act_bytes = self.act.memory_bytes();
        self.stats.lookup_table_bytes = self.table.memory_bytes();
    }
}

/// Converts a degree-space coordinate to the leaf cell id used for probes.
#[inline]
pub fn coord_to_cell(c: Coord) -> CellId {
    CellId::from_latlng(LatLng::from_degrees(c.y, c.x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::Probe;
    use geom::Ring;

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

    #[test]
    fn build_and_probe_two_squares() {
        let polys = vec![square(-74.05, 40.70, 0.02), square(-73.95, 40.70, 0.02)];
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        // Deep inside polygon 0: a true hit for 0, nothing for 1.
        let refs = idx.as_view().lookup_refs(Coord::new(-74.05, 40.70));
        assert_eq!(refs, vec![(0, true)]);
        // Deep inside polygon 1.
        let refs = idx.as_view().lookup_refs(Coord::new(-73.95, 40.70));
        assert_eq!(refs, vec![(1, true)]);
        // Far away: miss.
        assert!(idx
            .as_view()
            .lookup_refs(Coord::new(-74.2, 40.9))
            .is_empty());
        // Stats populated.
        let st = idx.stats();
        assert!(st.indexed_cells > 0);
        assert!(st.act_bytes > 0);
        assert_eq!(st.terminal_level, 20);
    }

    /// A small square inside a large one: every cell of the small one
    /// holds two references, so polygon 1 lives only in the lookup table.
    fn nested_pair() -> ActIndex {
        let polys = vec![square(-74.00, 40.70, 0.03), square(-74.00, 40.70, 0.004)];
        ActIndex::build(&polys, 15.0).unwrap()
    }

    #[test]
    fn removing_one_of_two_polygons_leaves_inline_single_refs() {
        let mut idx = nested_pair();
        let inner = Coord::new(-74.00, 40.70);
        assert!(matches!(idx.as_view().probe_coord(inner), Probe::Table(_)));
        assert_eq!(idx.as_view().lookup_refs(inner), vec![(0, true), (1, true)]);
        assert!(idx.remove_polygon(1));
        assert!(
            idx.waste_ratio() < ActIndex::COMPACT_WASTE_THRESHOLD,
            "no auto-compaction"
        );
        assert_eq!(
            idx.as_view().probe_coord(inner),
            Probe::One(crate::refs::PolygonRef::true_hit(0))
        );
        // Every table entry named polygon 1, so the whole table is now
        // abandoned waste (and nothing else is: no node emptied), and
        // compaction reclaims all of it.
        let words = idx.table().len_words() as u64;
        assert!(words > 0);
        assert_eq!(idx.waste_bytes(), words * 4);
        idx.compact();
        assert_eq!(idx.table().len_words(), 0);
        assert_eq!(
            idx.as_view().probe_coord(inner),
            Probe::One(crate::refs::PolygonRef::true_hit(0))
        );
    }

    #[test]
    fn remove_of_an_absent_id_short_circuits_on_the_id_scan() {
        let idx = nested_pair();
        let mut bytes = Vec::new();
        idx.save_snapshot(&mut bytes).unwrap();
        let mut loaded = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert!(loaded.live_ids.is_none() && loaded.cell_inventory.is_none());
        // An id nobody references: answered from the inline + table id
        // scan alone, without paying for the per-id cell inventory.
        assert!(!loaded.remove_polygon(7));
        assert!(
            loaded.cell_inventory.is_none(),
            "absent id built the inventory"
        );
        assert!(loaded.identical_to(&idx));
        let ids: Vec<u32> = loaded.live_ids.iter().flatten().copied().collect();
        assert_eq!(ids, vec![0, 1], "polygon 1 is found in the table alone");
        // A present id does go through the inventory and the trie.
        assert!(loaded.remove_polygon(1));
        assert!(loaded.cell_inventory.is_some());
    }

    #[test]
    fn boundary_points_are_candidates() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        // A point just outside the edge (within ε) should be a candidate
        // or a miss — never a true hit.
        let just_outside = Coord::new(-74.0 + 0.02 + 0.00002, 40.7); // ~1.7 m out
        for (id, interior) in idx.as_view().lookup_refs(just_outside) {
            assert_eq!(id, 0);
            assert!(!interior, "points outside must not be true hits");
        }
    }

    #[test]
    fn shared_border_probes_both() {
        // Two squares sharing the x = -74.0 border: a point on the border
        // area must reference both polygons (as candidates).
        let polys = vec![
            square(-74.02, 40.70, 0.02), // right edge at -74.0
            square(-73.98, 40.70, 0.02), // left edge at -74.0
        ];
        let idx = ActIndex::build(&polys, 4.0).unwrap();
        let refs = idx.as_view().lookup_refs(Coord::new(-74.0, 40.70));
        let ids: Vec<u32> = refs.iter().map(|(id, _)| *id).collect();
        assert!(
            ids.contains(&0),
            "border point must see polygon 0: {refs:?}"
        );
        assert!(
            ids.contains(&1),
            "border point must see polygon 1: {refs:?}"
        );
    }

    #[test]
    fn memory_grows_with_precision() {
        let polys = vec![square(-74.0, 40.7, 0.03)];
        let coarse = ActIndex::build(&polys, 60.0).unwrap();
        let fine = ActIndex::build(&polys, 4.0).unwrap();
        assert!(fine.stats().indexed_cells > coarse.stats().indexed_cells);
        assert!(fine.memory_bytes() >= coarse.memory_bytes());
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        let polys = vec![
            square(-74.05, 40.70, 0.02),
            square(-73.95, 40.70, 0.02),
            square(-74.00, 40.70, 0.03), // overlaps both
        ];
        let serial = ActIndex::build(&polys, 15.0).unwrap();
        for threads in [1usize, 2, 4] {
            let pool = jobs::JobPool::new(threads);
            let par = ActIndex::build_parallel(&polys, 15.0, &pool).unwrap();
            assert_eq!(par.act().slots(), serial.act().slots(), "{threads} threads");
            assert_eq!(par.act().roots(), serial.act().roots());
            assert_eq!(par.stats().indexed_cells, serial.stats().indexed_cells);
            assert_eq!(par.stats().covering_cells, serial.stats().covering_cells);
            assert_eq!(par.stats().pushdown_splits, serial.stats().pushdown_splits);
            assert_eq!(
                par.stats().lookup_table_bytes,
                serial.stats().lookup_table_bytes
            );
        }
    }

    /// The bound pass projects every polygon before any covering, so it
    /// is where a multi-face polygon fails the build: with two of them,
    /// the lower id's error comes back at every pool width.
    #[test]
    fn build_returns_the_lowest_ids_multi_face_error() {
        let mut polys: Vec<Polygon> = (0..12)
            .map(|k| square(-74.1 + 0.02 * k as f64, 40.7, 0.005))
            .collect();
        // Cube faces meet along the meridians at ±45° near the equator.
        polys[3] = square(-45.0, 0.0, 1.0);
        polys[8] = square(45.0, 0.0, 1.0);
        let (low, high) = (
            MultiFaceError { faces: (4, 0) },
            MultiFaceError { faces: (0, 1) },
        );
        assert_eq!(UvPolygon::from_polygon(&polys[3]).unwrap_err(), low);
        assert_eq!(UvPolygon::from_polygon(&polys[8]).unwrap_err(), high);
        for threads in [1usize, 2, 4] {
            let pool = jobs::JobPool::new(threads);
            let err = ActIndex::build_parallel(&polys, 60.0, &pool).unwrap_err();
            assert_eq!(err, low, "{threads} threads");
        }
    }

    #[test]
    fn probe_batch_agrees_with_probe_cell() {
        let polys = vec![square(-74.05, 40.70, 0.02), square(-73.95, 40.70, 0.02)];
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        let cells: Vec<CellId> = (0..300)
            .map(|k| coord_to_cell(Coord::new(-74.1 + 0.001 * k as f64, 40.70)))
            .collect();
        let mut out = vec![Probe::Miss; cells.len()];
        idx.as_view().probe_batch(&cells, &mut out);
        for (c, p) in cells.iter().zip(&out) {
            assert_eq!(*p, idx.as_view().probe_cell(*c));
        }
    }

    /// The pathological tombstone load: remove most of a dense index so
    /// the removals cross the waste threshold, and prove the mutation
    /// that crosses it compacts to completion, probes stay correct the
    /// whole way, and later mutations and compactions still land.
    #[test]
    fn threshold_compaction_runs_to_completion_and_survives_mutation() {
        let polys: Vec<Polygon> = (0..30)
            .map(|k| square(-74.0 + 0.024 * k as f64, 40.7, 0.01))
            .collect();
        let mut idx = ActIndex::build(&polys, 15.0).unwrap();
        let built_bytes = idx.memory_bytes();
        assert!(idx.remove_polygon(0));
        assert!(idx.waste_bytes() > 0, "a removal must leave garbage behind");
        for id in 1..20u32 {
            assert!(idx.remove_polygon(id));
            assert!(
                idx.waste_ratio() <= ActIndex::COMPACT_WASTE_THRESHOLD,
                "removal {id} left waste above the threshold"
            );
        }
        // Only a compaction shrinks the arena: removals orphan nodes in
        // place.
        assert!(
            idx.memory_bytes() < built_bytes / 2,
            "mass removal never compacted ({built_bytes} -> {} bytes)",
            idx.memory_bytes()
        );
        let probe_at = |idx: &ActIndex, k: usize| {
            idx.as_view()
                .lookup_refs(Coord::new(-74.0 + 0.024 * k as f64, 40.7))
        };
        let check_survivors = |idx: &ActIndex| {
            for k in 0..20 {
                assert!(probe_at(idx, k).is_empty(), "removed polygon {k} answered");
            }
            for k in 20..30 {
                assert_eq!(probe_at(idx, k), vec![(k as u32, true)], "survivor {k}");
            }
        };
        check_survivors(&idx);

        // A mutation after the compaction lands.
        idx.insert_polygon(30, &square(-74.0 + 0.024 * 30.0, 40.7, 0.01))
            .unwrap();
        assert_eq!(probe_at(&idx, 30), vec![(30, true)]);
        check_survivors(&idx);

        // An explicit compaction clears the waste a removal left.
        assert!(idx.remove_polygon(30));
        assert!(idx.waste_bytes() > 0);
        idx.compact();
        assert_eq!(idx.waste_bytes(), 0, "a compaction clears waste");
        assert!(probe_at(&idx, 30).is_empty());
        check_survivors(&idx);
    }

    #[test]
    fn probe_cell_and_coord_agree() {
        let polys = vec![square(-74.0, 40.7, 0.02)];
        let idx = ActIndex::build(&polys, 15.0).unwrap();
        let c = Coord::new(-74.01, 40.705);
        assert_eq!(
            idx.as_view().probe_coord(c),
            idx.as_view().probe_cell(coord_to_cell(c))
        );
    }
}
