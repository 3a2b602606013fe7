//! The end-to-end index: polygons → coverings → super covering → ACT.
//!
//! [`ActIndex::build`] runs the full paper pipeline and records the metrics
//! reported in the paper's Table I (indexed cells, ACT size, lookup-table
//! size, covering build time, super-covering build time).

use crate::covering::{cover_uv_polygon, covering_bound, Covering, CoveringParams, PackedCovering};
use crate::lookup::{LookupTable, LookupTableBuilder};
use crate::refs::{PolygonRef, RefSet, MAX_POLYGON_ID};
use crate::snapshot::SnapshotError;
use crate::supercover::{
    admission_order, build_from_pairs, first_cell_order, stream_super_covering, SuperCovering,
};
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
/// [`ActIndex::remove_polygon`] edit the live trie through one walk of
/// each touched cell's territory: an insert takes the overlapped cells
/// out and re-inserts them merged with its own, a removal strips the id's
/// references and cuts loose the nodes that leaves empty. A clone
/// shares the trie's base segment, and the edits of either copy only the
/// nodes they write (see [`crate::trie`]); a copied-out node counts as
/// waste. Once the accumulated garbage crosses
/// [`ActIndex::COMPACT_WASTE_THRESHOLD`], the mutation that crossed it
/// runs [`ActIndex::compact`] to completion before it returns: one
/// copy of the reachable trie into a fresh arena, the same walk
/// [`crate::split_index`] runs per shard.
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
    /// Per-id bound cells: at most [`BOUND_CELLS`] cells per id whose
    /// union holds every trie run that references the id, so a removal
    /// walks those territories instead of the whole arena. The trie never
    /// coarsens a written cell: an insert's merge only pushes other
    /// polygons' cells down (the super covering's outputs are
    /// descendants-or-equal of its inputs), a compaction or split copies
    /// cells unchanged, and a removal only deletes. So an id's bounds
    /// stay valid from the insert that set them to the removal that drops
    /// them; a stale extent only costs reads of other ids' runs, never a
    /// wrong answer. Its keys are a superset of the ids the trie
    /// references, so a removal (or an upsert's removal pass) of an id it
    /// does not list does nothing at all. `None` until the first mutation
    /// (or [`ActIndex::prime_mutations`]) derives it in one read-only cell
    /// walk. Transient: not persisted in snapshots.
    bounds: Option<Bounds>,
}

/// The most bound cells an id keeps (see `ActIndex::bounds`). On census
/// at 15 m a removal then walks ~2.2× the cells that reference the id.
const BOUND_CELLS: usize = 16;

/// At most [`BOUND_CELLS`] disjoint cells, in range order, whose union
/// holds every cell added so far. A cell finer than the set's level is
/// added as its ancestor there; when one more cell would not fit, the
/// whole set is lifted one level coarser (cells finer than the new level
/// replaced by their ancestors, duplicates dropped) until it does. Cells
/// must arrive in range order and disjoint, so the only set cell that
/// can hold a new one is the last.
#[derive(Default)]
struct Cover {
    /// How many levels the set has been lifted: its level is
    /// `MAX_LEVEL - lifted`.
    lifted: u8,
    cells: Vec<CellId>,
}

impl Cover {
    fn add(&mut self, cell: CellId) {
        loop {
            let level = s2cell::MAX_LEVEL - self.lifted;
            let cell = cell.parent(cell.level().min(level));
            if self.cells.last().is_some_and(|c| c.contains(cell)) {
                return;
            }
            if self.cells.len() < BOUND_CELLS {
                self.cells.push(cell);
                return;
            }
            // Six face cells always fit, so this never lifts past 0.
            self.lifted += 1;
            for c in &mut self.cells {
                *c = c.parent(c.level().min(level - 1));
            }
            self.cells.dedup();
        }
    }
}

/// Every id's bound cells (see `ActIndex::bounds`). The derived ones lie
/// back to back in a read-only `base` that clones share, each id's at
/// its `(start, len)` in `derived`; an insert sets its id's in `set`.
#[derive(Debug, Clone)]
struct Bounds {
    derived: HashMap<u32, (u32, u32)>,
    base: Arc<[CellId]>,
    set: HashMap<u32, Box<[CellId]>>,
}

impl Bounds {
    /// Derives every id's bounds from one streamed read-only walk of the
    /// live `(cell, refs)` set, each id's cells folded into a [`Cover`]
    /// as they arrive (in range order).
    fn derive(act: &Act, words: &[u32]) -> Bounds {
        // Covers by slot, with the two most recent `(id, slot)` pairs
        // memoized, newest first: a range-order walk meets the same one
        // or two polygons for long stretches, so most lookups skip
        // hashing (`u32::MAX` is above every polygon id).
        let (mut slots, mut covers) = (HashMap::new(), Vec::<Cover>::new());
        let mut recent = [(u32::MAX, 0); 2];
        act.for_each_cell(words, |cell, refs| {
            for r in refs.iter() {
                if recent[0].0 != r.id {
                    recent.swap(0, 1);
                    if recent[0].0 != r.id {
                        let next = covers.len();
                        recent[0] = (r.id, *slots.entry(r.id).or_insert(next));
                        if recent[0].1 == next {
                            covers.push(Cover::default());
                        }
                    }
                }
                covers[recent[0].1].add(cell);
            }
        });
        let mut derived = HashMap::with_capacity(slots.len());
        let mut base = Vec::with_capacity(covers.iter().map(|c| c.cells.len()).sum());
        for (id, slot) in slots {
            let cells = std::mem::take(&mut covers[slot].cells);
            let start = u32::try_from(base.len()).expect("under 2^32 bound cells");
            derived.insert(id, (start, cells.len() as u32));
            base.extend_from_slice(&cells);
        }
        Bounds {
            derived,
            base: base.into(),
            set: HashMap::new(),
        }
    }

    /// Sets `id`'s bound cells, replacing any it had.
    fn put(&mut self, id: u32, cells: &[CellId]) {
        self.derived.remove(&id);
        self.set.insert(id, cells.into());
    }

    /// Drops `id`'s bound cells and returns them (`None`: `id` has none).
    fn take(&mut self, id: u32) -> Option<Vec<CellId>> {
        let span = |(start, len): (u32, u32)| self.base[start as usize..][..len as usize].to_vec();
        let set = self.set.remove(&id).map(Vec::from);
        set.or_else(|| self.derived.remove(&id).map(span))
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

    /// An index over a trie its caller populated (since
    /// `populate_start`), with the size and cell-count stats read off
    /// the trie and table. The shard splitter copies each shard's cells
    /// into one of these.
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
            bounds: None,
        }
    }

    /// Serializes the built index into the versioned snapshot format
    /// (see [`crate::snapshot`] for the layout), returning the number of
    /// bytes written. Loading the snapshot back — via
    /// [`ActIndex::load_snapshot`] or a [`crate::MappedSnapshot`]'s
    /// zero-copy view — reproduces the node arena, lookup table, and
    /// build stats exactly.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn save_snapshot(&self, w: &mut impl std::io::Write) -> Result<u64, SnapshotError> {
        crate::snapshot::write_view(&self.as_view(), w).map(|(len, _)| len)
    }

    /// Reads a snapshot produced by [`ActIndex::save_snapshot`] into an
    /// owned index — [`crate::MappedSnapshot::read_from`] then a deep
    /// [`crate::MappedSnapshot::to_owned_index`], so the index mutates in
    /// place. Magic, version, section structure, and the checksum are
    /// validated before any field is used.
    ///
    /// # Errors
    /// Returns a typed [`SnapshotError`] on I/O failure or any form of
    /// corruption; never panics on malformed input.
    pub fn load_snapshot(r: &mut impl std::io::Read) -> Result<ActIndex, SnapshotError> {
        Ok(crate::MappedSnapshot::read_from(r)?.to_owned_index())
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

    /// The header checksum of the snapshot a [`ActIndex::from_mapped`]
    /// index was opened over, while its arena and lookup table are still
    /// that mapping's and it owns no trie node beside it: the identity a
    /// delta lineage over it binds to, read in O(1). `None` for any other
    /// index, and from the first mutation or compaction on (there, the
    /// checksum [`crate::ActIndexView::save_file`] returns names the
    /// file it writes).
    pub fn mapped_checksum(&self) -> Option<u64> {
        match (self.act.mapping(), self.table.mapping()) {
            (Some(arena), Some(table)) if Arc::ptr_eq(arena, table) => Some(arena.checksum()),
            _ => None,
        }
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

        // Upsert: any previous shape under this id goes first. Inserts of
        // ids the bounds do not list — the common case for delta streams —
        // skip the removal pass entirely.
        if let Some(cells) = self.bounds().take(id) {
            self.remove_within(id, &cells);
        }

        // Take out everything overlapping the new covering, then let the
        // super-covering engine resolve the combined set. Its outputs are
        // descendants-or-equal of its inputs, i.e. confined to the
        // territory the walk just freed, so re-insertion cannot collide
        // with surviving cells.
        let mut waste = crate::trie::MutationWaste::default();
        let mut tb = LookupTableBuilder::from_table(std::mem::take(&mut self.table));
        let mut affected: Vec<(CellId, RefSet)> = Vec::new();
        for &(cell, _) in &covering.cells {
            self.act
                .rewrite_territory(cell, false, &mut waste, |cell, e| {
                    affected.push((cell, crate::trie::take_refs(e, &mut tb)));
                    0
                });
        }
        let own = (covering.cells.iter()).map(|&(c, interior)| (c, PolygonRef { id, interior }));
        let displaced = (affected.iter()).flat_map(|(c, refs)| refs.iter().map(move |r| (*c, r)));
        let sc = build_from_pairs(own.chain(displaced).collect());
        for (cell, refs) in &sc.cells {
            self.act.insert_with_waste(*cell, refs, &mut tb, &mut waste);
        }
        self.table = tb.build();
        // The merge's cells for `id` lie inside its covering; every
        // displaced id's lie inside the runs taken out, so its bounds
        // still hold them.
        let mut cover = Cover::default();
        covering.cells.iter().for_each(|&(cell, _)| cover.add(cell));
        self.bounds().put(id, &cover.cells);
        self.note_mutation(waste);
        self.maybe_compact();
        Ok(())
    }

    /// Removes polygon `id` from the live index: every reference to it is
    /// rewritten out of the trie, emptied subtrees are cut loose so probes
    /// miss, and the arena/table garbage this leaves behind is reclaimed
    /// by the next (possibly automatic) [`ActIndex::compact`]. Returns
    /// whether the index referenced `id` at all.
    pub fn remove_polygon(&mut self, id: u32) -> bool {
        let Some(cells) = self.bounds().take(id) else {
            return false;
        };
        let changed = self.remove_within(id, &cells);
        if changed {
            self.maybe_compact();
        }
        changed
    }

    /// Strips every reference to `id` from the territories of `cells`,
    /// its bound cells (already dropped from the bounds: the pass leaves
    /// none behind). Returns whether any run changed.
    fn remove_within(&mut self, id: u32, cells: &[CellId]) -> bool {
        let mut waste = crate::trie::MutationWaste::default();
        let mut tb = LookupTableBuilder::from_table(std::mem::take(&mut self.table));
        // Each entry's rewrite, memoized across the territories.
        let (mut memo, mut stale) = (HashMap::new(), 0);
        for &cell in cells {
            self.act.rewrite_territory(cell, true, &mut waste, |_, e| {
                *memo
                    .entry(e)
                    .or_insert_with(|| crate::trie::rewrite_without(e, id, &mut tb, &mut stale))
            });
        }
        waste.stale_table_words += stale;
        let changed = memo.into_iter().any(|(e, ne)| e != ne);
        self.table = tb.build();
        if changed {
            self.note_mutation(waste);
        }
        changed
    }

    /// The per-id bound cells, derived by one read-only cell walk the
    /// first time they are asked for.
    fn bounds(&mut self) -> &mut Bounds {
        let (act, words) = (&self.act, self.table.words());
        self.bounds
            .get_or_insert_with(|| Bounds::derive(act, words))
    }

    /// Pays the one-time derivation of the per-id bound cells (see
    /// `remove_polygon`) up front, so the first mutation after a load is
    /// as fast as the steady state. Idempotent; called automatically by
    /// the first mutation otherwise.
    ///
    /// Cost: one streamed read-only walk of the arena; no copy of the
    /// cell set is ever materialized. Memory: at most 16 cells per id
    /// (3.0 MB of cells and a 0.8 MB id map for census's 39 k ids).
    /// Clones of a primed index share the derived cells and copy the id
    /// map and the few cells later inserts set.
    pub fn prime_mutations(&mut self) {
        self.bounds();
    }

    /// How many bound cells each id keeps, in no particular order; empty
    /// before the first mutation. For the census removal harness.
    #[doc(hidden)]
    pub fn bound_cell_counts(&self) -> Vec<u32> {
        let mut counts = Vec::new();
        if let Some(b) = &self.bounds {
            counts.extend(b.derived.values().map(|s| s.1));
            counts.extend(b.set.values().map(|c| c.len() as u32));
        }
        counts
    }

    /// Approximate heap bytes of the mutation state
    /// [`ActIndex::prime_mutations`] builds: the bound cells (8 bytes
    /// each; the derived ones shared with clones, the dropped ones among
    /// them included) and the id maps that index them (13 and 25 bytes a
    /// bucket). 0 before the first mutation.
    pub fn mutation_state_bytes(&self) -> usize {
        self.bounds.as_ref().map_or(0, |b| {
            let set = b.set.values().map(|c| 8 * c.len()).sum::<usize>();
            8 * b.base.len() + set + 13 * b.derived.capacity() + 25 * b.set.capacity()
        })
    }

    /// Rewrites the node arena and lookup table from the live cell set,
    /// dropping orphaned nodes and superseded table entries. Mutations
    /// call this automatically once [`ActIndex::waste_ratio`] crosses
    /// [`ActIndex::COMPACT_WASTE_THRESHOLD`]; it is also safe to call at
    /// any time. Probe results are unchanged.
    ///
    /// One pass, run to completion: the trie copy walk copies the
    /// reachable nodes into a fresh arena and re-interns each live table
    /// entry once. The result is byte-identical to re-inserting every
    /// live cell into a fresh trie, and to a one-shard
    /// [`crate::split_index`], which runs the same walk. The fresh arena
    /// becomes the trie's new base as it is, uncopied, so clones share
    /// it. The per-id bound cells, if derived, are kept as they are: the
    /// copy moves no cell.
    pub fn compact(&mut self) {
        let (mut act, tb) = self.act.copy_cells(self.table.words(), 0, |_| true);
        act.freeze();
        self.act = act;
        self.table = tb.build();
        self.waste_bytes = 0;
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
    use std::collections::BTreeMap;

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

    /// The table reopens with an empty dedup map; the insert's walk
    /// registers every set it takes out, so the sets that come back
    /// unchanged (the nested pair's runs pushed down around the new
    /// square) re-intern to their old words. Only sets holding the new
    /// polygon are appended.
    #[test]
    fn an_insert_appends_table_words_only_for_the_sets_it_changes() {
        let mut idx = nested_pair();
        let old = idx.table().len_words();
        idx.insert_polygon(2, &square(-73.996, 40.70, 0.001))
            .unwrap();
        let words = idx.table().words();
        assert!(words.len() > old, "the overlap interns new sets");
        let mut off = old;
        while off < words.len() {
            let (t, c) = crate::lookup::decode_at(words, off as u32);
            assert!(
                t.contains(&2) || c.contains(&2),
                "appended a set without the new polygon: {t:?} {c:?}"
            );
            off += 2 + t.len() + c.len();
        }
        // The words the pushed-down runs re-used still answer.
        let outside = Coord::new(-73.9985, 40.70);
        assert_eq!(
            idx.as_view().lookup_refs(outside),
            vec![(0, true), (1, true)]
        );
    }

    #[test]
    fn remove_of_an_absent_id_short_circuits_on_the_id_scan() {
        let idx = nested_pair();
        let mut bytes = Vec::new();
        idx.save_snapshot(&mut bytes).unwrap();
        let mut loaded = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert!(loaded.bounds.is_none());
        // An id nobody references: absent from the bounds' keys, so
        // nothing is rewritten and the table is not reopened.
        assert!(!loaded.remove_polygon(7));
        assert!(loaded.identical_to(&idx));
        let bounds = loaded.bounds.as_ref().expect("the removal derived them");
        let mut ids: Vec<u32> = bounds
            .derived
            .keys()
            .chain(bounds.set.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1], "polygon 1 is found in the table alone");
        // A present id does go through its bounds and the trie.
        assert!(loaded.remove_polygon(1));
        assert!(loaded.bounds.is_some());
    }

    /// Whether the union of the disjoint `cells` holds `run`: one of them
    /// contains it, or those inside it tile it (leaf ids step by 2).
    fn covered(run: CellId, cells: &[CellId]) -> bool {
        let mut inside: Vec<CellId> = cells.iter().copied().filter(|c| run.contains(*c)).collect();
        inside.sort_unstable();
        let mut next = run.range_min().0;
        for c in inside {
            if c.range_min().0 == next {
                next = c.range_max().0 + 2;
            }
        }
        cells.iter().any(|c| c.contains(run)) || next > run.range_max().0
    }

    /// The bound-cell invariant after one step of `seed`'s script: every
    /// run the trie holds for an id lies inside the union of the id's
    /// bound cells, no id has more than `BOUND_CELLS` of them, and every
    /// live id has bounds.
    fn check_bounds(idx: &ActIndex, live: &BTreeMap<u32, Polygon>, seed: u64, step: usize) {
        let bounds = idx.bounds.as_ref().expect("a mutated index has bounds");
        let cells_of = |id: u32| match bounds.set.get(&id) {
            Some(cells) => Some(&cells[..]),
            None => bounds
                .derived
                .get(&id)
                .map(|&(start, len)| &bounds.base[start as usize..(start + len) as usize]),
        };
        let most = idx.bound_cell_counts().into_iter().max().unwrap_or(0);
        assert!(
            most as usize <= BOUND_CELLS,
            "seed {seed} step {step}: an id has {most} bound cells"
        );
        for &id in live.keys() {
            assert!(
                cells_of(id).is_some(),
                "seed {seed} step {step}: live id {id} has no bounds"
            );
        }
        idx.act.for_each_cell(idx.table.words(), |run, refs| {
            for r in refs.iter() {
                let cells = cells_of(r.id).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} step {step}: id {} is in the trie unbounded",
                        r.id
                    )
                });
                assert!(
                    covered(run, cells),
                    "seed {seed} step {step}: run {run:?} of id {} outside its bounds {cells:?}",
                    r.id
                );
            }
        });
    }

    /// Random insert, upsert, remove and compact scripts over small sets
    /// of overlapping rectangles, on a primed index and on clones of it:
    /// after every step the bound cells still hold every run of their id
    /// (see `check_bounds`), and the edits answer like a rebuild.
    #[test]
    fn bound_cells_hold_every_run_under_seeded_scripts() {
        for seed in 0..48u64 {
            let mut rng = datagen::rng::Rng64::new(seed);
            let rect = |rng: &mut datagen::rng::Rng64| {
                let (cx, cy) = (rng.range(-74.02, -73.98), rng.range(40.68, 40.72));
                let (hx, hy) = (rng.range(0.0005, 0.012), rng.range(0.0005, 0.012));
                Polygon::new(
                    Ring::new(vec![
                        Coord::new(cx - hx, cy - hy),
                        Coord::new(cx + hx, cy - hy),
                        Coord::new(cx + hx, cy + hy),
                        Coord::new(cx - hx, cy + hy),
                    ]),
                    vec![],
                )
            };
            let polys: Vec<Polygon> = (0..1 + rng.below(5)).map(|_| rect(&mut rng)).collect();
            let mut live: BTreeMap<u32, Polygon> = polys
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| (i as u32, p))
                .collect();
            let mut idx = ActIndex::build(&polys, 40.0).unwrap();
            idx.prime_mutations();
            check_bounds(&idx, &live, seed, 0);
            for step in 1..=14 {
                // Half the steps run on a clone, as a lineage re-arms.
                if rng.below(2) == 0 {
                    idx = idx.clone();
                }
                match rng.below(8) {
                    0..=3 => {
                        // A new id, or an upsert of a live one.
                        let id = rng.below(10) as u32;
                        let p = rect(&mut rng);
                        idx.insert_polygon(id, &p).unwrap();
                        live.insert(id, p);
                    }
                    4..=6 => {
                        let id = rng.below(10) as u32;
                        assert_eq!(
                            idx.remove_polygon(id),
                            live.remove(&id).is_some(),
                            "seed {seed} step {step}: remove({id})"
                        );
                    }
                    _ => idx.compact(),
                }
                check_bounds(&idx, &live, seed, step);
            }
            let (ids, polys): (Vec<u32>, Vec<Polygon>) = live.into_iter().unzip();
            let fresh = ActIndex::build(&polys, 40.0).unwrap();
            for k in 0..400 {
                let c = Coord::new(-74.03 + 0.00015 * k as f64, 40.67 + 0.00014 * k as f64);
                let mut got = idx.as_view().lookup_refs(c);
                let mut want: Vec<(u32, bool)> = (fresh.as_view().lookup_refs(c).iter())
                    .map(|&(i, hit)| (ids[i as usize], hit))
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}: answers at {c:?} unlike a rebuild");
            }
        }
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
