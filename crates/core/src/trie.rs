//! The Adaptive Cell Trie (ACT): a radix tree over hierarchical-grid cells.
//!
//! ## Structure (paper §II, Figure 2a)
//!
//! * Fanout **256**: every trie node is a fixed array of 256 tagged 4-byte
//!   slots (1,024 B, sixteen 64-byte cache lines), so each trie level
//!   consumes 8 key bits = **4 quadtree levels** (the *cell level
//!   granularity* `g = 4`).
//! * The key of a cell is its Hilbert **position bit string** (2 bits per
//!   level); the cube face selects one of six root nodes. With cells up to
//!   level 28 the maximum key length is 56 bits → at most **7 node
//!   accesses** per lookup; indexes bounded at level 24 need only 6, as in
//!   the paper.
//! * A slot is a `u32`: a 2-bit tag in the least-significant bits and a
//!   30-bit value above it.
//!
//!   | tag  | meaning                 | 30-bit value                         |
//!   |------|-------------------------|--------------------------------------|
//!   | `00` | child node              | arena node index (0 = *false hit*)   |
//!   | `01` | one candidate reference | polygon id                           |
//!   | `10` | one true-hit reference  | polygon id                           |
//!   | `11` | two or more references  | offset into the shared lookup table  |
//!
//!   Polygon ids and table offsets are therefore bounded by
//!   [`crate::refs::MAX_POLYGON_ID`] = 2³⁰ − 1; the true-hit flag lives in
//!   the tag instead of a payload bit.
//!
//! ## Why two-reference sets live in the lookup table
//!
//! The paper's 8-byte slots inline up to two 31-bit payloads. On the
//! census dataset at 15 m (30.9 M slots, 99.4% occupied) 89.5% of the
//! slots hold one reference, 9.3% two, and 0.2% a table offset — and the
//! two-reference slots carry only 77,962 distinct sets. An 8-byte slot
//! therefore spends half its bytes on nothing for nine cells in ten, while
//! interning every two-reference set costs the lookup table ~1.25 MB
//! (4 words per set). Four-byte slots halve the node arena (247 MB →
//! 124 MB at census scale) and double the nodes per cache line, page and
//! TLB entry; a two-reference probe pays one extra, usually cached, table
//! read on resolve.
//!
//! ## Denormalization
//!
//! Cells whose level is not a multiple of 4 do not align with a single
//! slot. Insertion *denormalizes* them: a level-`l` cell with
//! `r = l mod 4 ≠ 0` spans `4^(4−r)` consecutive slots of one node, and its
//! slot value is **replicated** into that slot range. Replicating values
//! (rather than materializing descendant cells) is why a finer covering
//! does not necessarily grow the trie — the paper's Table I artifact where
//! the 15 m and 4 m indexes have (almost) the same size.
//!
//! ## Safety
//!
//! Nodes live in a flat `u32` arena and child references are node
//! indices. This keeps the implementation 100% safe Rust with the same
//! cache behaviour as raw pointers (one dependent load per level).
//!
//! ## Two segments: a shared base and owned nodes
//!
//! An [`Act`]'s arena is two segments. Nodes `0..B` are the **base**, a
//! read-only segment behind an `Arc`: a finished build's or compaction's
//! heap arena, or the trie section of a mapped snapshot. Nodes `B..` are
//! the **ext**, an owned `Vec<u32>`. A built, compacted or mapped trie
//! has an empty ext; so every probe of one reads one segment, and the
//! walks test for a second segment once per call, not per slot.
//!
//! Clones share the base and copy only the ext, so a live index and the
//! copy its next edit is applied to hold one arena between them. The
//! mutations are path copying (Driscoll, Sarnak, Sleator and Tarjan,
//! "Making Data Structures Persistent", 1989) at node grain: the first
//! write to a base node another trie can see copies it into the ext and
//! repoints its parent slot or face root, and the descent from the root
//! has already made that parent writable. The copied-out base node is an
//! orphan of this trie, counted as waste like any other, so the
//! compaction threshold still bounds it. A heap base this trie alone
//! holds is written in place, so an index nobody shares mutates exactly
//! as one flat arena would.
//!
//! ## Batched probing
//!
//! [`crate::ActIndexView::probe_cell`] issues one *dependent* load per
//! level — the probe's latency is the sum of its cache misses.
//! [`crate::ActIndexView::probe_batch`] walks a
//! block of keys level-synchronously instead, so the misses of different
//! keys overlap in the memory pipeline (memory-level parallelism); on
//! larger-than-cache tries this is worth ~1.3–1.5× single-threaded (see
//! `BENCH_probe.json`).

use crate::lookup::{LookupTable, LookupTableBuilder};
use crate::refs::{PolygonRef, RefSet, MAX_POLYGON_ID};
use crate::snapshot::MappedSnapshot;
use s2cell::CellId;
use std::borrow::Cow;
use std::sync::Arc;

/// Entries per node (fanout).
pub const FANOUT: usize = 256;
/// Bytes per trie node (256 four-byte slots).
pub(crate) const NODE_BYTES: usize = FANOUT * std::mem::size_of::<u32>();
/// Quadtree levels consumed per trie level.
pub const GRANULARITY: u8 = 4;
/// Maximum indexable cell level (7 key bytes × 4 levels/byte).
pub const MAX_INDEX_LEVEL: u8 = 28;
/// Maximum lanes walked together by one
/// [`crate::ActIndexView::probe_batch`] block (the lane state must stay
/// stack- and L1-resident; see the method docs).
pub const MAX_PROBE_BLOCK: usize = 256;

const TAG_MASK: u32 = 3;
const TAG_CHILD: u32 = 0;
const TAG_CANDIDATE: u32 = 1;
const TAG_TRUE_HIT: u32 = 2;
const TAG_OFFSET: u32 = 3;

#[inline]
fn encode_child(index: u32) -> u32 {
    debug_assert!(index <= MAX_POLYGON_ID);
    index << 2
}

#[inline]
fn encode_ref(r: PolygonRef) -> u32 {
    assert!(r.id <= MAX_POLYGON_ID, "polygon id exceeds 30 bits");
    let tag = if r.interior {
        TAG_TRUE_HIT
    } else {
        TAG_CANDIDATE
    };
    (r.id << 2) | tag
}

#[inline]
fn encode_offset(offset: u32) -> u32 {
    debug_assert!(offset <= MAX_POLYGON_ID);
    (offset << 2) | TAG_OFFSET
}

/// The terminal slot of a reference set: a single reference inline, any
/// larger set interned into `table`. Shared with the sorted-array
/// baseline, which stores the same slot values.
#[inline]
pub(crate) fn encode_terminal(refs: &RefSet, table: &mut LookupTableBuilder) -> u32 {
    match refs {
        RefSet::One(r) => encode_ref(*r),
        _ => encode_offset(table.intern(refs)),
    }
}

/// The result of probing the trie with a query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No indexed cell contains the point: guaranteed **not** within ε of
    /// any polygon (a *false hit* in the paper's terms).
    Miss,
    /// The matched cell references one polygon.
    One(PolygonRef),
    /// The matched cell references two or more polygons; resolve via the
    /// [`LookupTable`] at this offset.
    Table(u32),
}

impl Probe {
    /// Decodes a terminal slot (must not be a child reference).
    #[inline]
    pub(crate) fn from_terminal(slot: u32) -> Probe {
        match slot & TAG_MASK {
            TAG_OFFSET => Probe::Table(slot >> 2),
            tag => {
                debug_assert_ne!(tag, TAG_CHILD, "child slots are consumed by the descent");
                Probe::One(PolygonRef {
                    id: slot >> 2,
                    interior: tag == TAG_TRUE_HIT,
                })
            }
        }
    }
}

/// The canonical identity of a probe's **resolved trie cell**: the key
/// prefix the walk actually consumed, plus the depth it terminated at.
///
/// A lookup for `query` reads the 3 face bits and then `depth` bytes of
/// the position bit string (see `RawTrie::lookup`); nothing below that
/// prefix can influence the result. Two queries sharing the top
/// `3 + 8·depth` bits therefore terminate at the same entry with the
/// same answer — and, because the walk is deterministic, at the same
/// depth, so for any query exactly one `(prefix, depth)` pair is ever
/// its key. That makes this value a correct cache key for probe
/// results: the serving layer's hot-cell cache stores resolved ref sets
/// under `probe_cell_key(query, depth)` (depth from
/// [`crate::ActIndexView::probe_batch_depths`]) and looks a query up by
/// trying its prefixes at each depth `1..=7`.
///
/// Layout: the query's top `3 + 8·depth` bits in place, low bits
/// zeroed, with `depth` (≤ 7, so 3 bits) packed into the low bits —
/// depths 1..=7 keep ≤ 59 prefix bits, leaving the bottom 5 free.
#[inline]
#[must_use]
pub fn probe_cell_key(query: CellId, depth: u8) -> u64 {
    let d = u64::from(depth.min(7));
    let mask = !(u64::MAX >> (3 + 8 * d));
    (query.0 & mask) | d
}

/// Per-depth structural statistics (for analysis and the paper's Table I).
#[derive(Debug, Clone, Default)]
pub struct TrieStats {
    /// Nodes at each trie depth (depth 0 = root nodes).
    pub nodes_per_depth: Vec<usize>,
    /// Occupied (non-sentinel) slots at each depth.
    pub occupied_per_depth: Vec<usize>,
    /// Total terminal slots by tag: (one candidate reference, one
    /// true-hit reference, lookup-table offset).
    pub terminals: (usize, usize, usize),
}

/// Where the level-synchronous walk records each lane's termination
/// depth. `()` records nothing — the walk monomorphises to the plain
/// batched probe — and a `[u8]` stores one byte per lane.
trait DepthSink {
    fn record(&mut self, lane: usize, depth: u8);
}

impl DepthSink for () {
    #[inline(always)]
    fn record(&mut self, _: usize, _: u8) {}
}

impl DepthSink for [u8] {
    #[inline(always)]
    fn record(&mut self, lane: usize, depth: u8) {
        self[lane] = depth;
    }
}

/// How a walk reads global slot `i` of an arena: one segment, or a
/// shared base followed by owned nodes (see the module docs). The walks
/// are generic over it, so a one-segment arena walks with no segment
/// test at all.
trait Arena: Copy {
    fn slot(self, i: usize) -> u32;
}

/// A one-segment arena.
#[derive(Clone, Copy)]
struct Flat<'a>(&'a [u32]);

impl Arena for Flat<'_> {
    #[inline(always)]
    fn slot(self, i: usize) -> u32 {
        self.0[i]
    }
}

/// A shared base followed by owned nodes.
#[derive(Clone, Copy)]
struct Split<'a> {
    base: &'a [u32],
    ext: &'a [u32],
}

impl Arena for Split<'_> {
    #[inline(always)]
    fn slot(self, i: usize) -> u32 {
        if i < self.base.len() {
            self.base[i]
        } else {
            self.ext[i - self.base.len()]
        }
    }
}

/// A borrowed `(base, ext, roots)` triple: the probe-side core of the
/// trie, shared by the owned [`Act`] and the zero-copy snapshot views in
/// [`crate::snapshot`]. All lookup walks live here so a memory-mapped
/// arena probes through exactly the code paths the built one does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawTrie<'a> {
    /// Nodes `0..B` (see the module docs).
    pub(crate) base: &'a [u32],
    /// Nodes `B..`; empty for built, compacted and mapped tries.
    pub(crate) ext: &'a [u32],
    pub(crate) roots: &'a [u32; 6],
}

impl<'a> RawTrie<'a> {
    /// The arena as one segment, when it is one.
    #[inline]
    fn flat(self) -> Option<Flat<'a>> {
        if self.ext.is_empty() {
            Some(Flat(self.base))
        } else if self.base.is_empty() {
            Some(Flat(self.ext))
        } else {
            None
        }
    }

    #[inline]
    fn split(self) -> Split<'a> {
        Split {
            base: self.base,
            ext: self.ext,
        }
    }

    /// See [`crate::ActIndexView::probe_cell`].
    #[inline]
    pub(crate) fn lookup(self, query: CellId) -> Probe {
        self.lookup_depth(query).0
    }

    /// The scalar walk plus its termination depth: the number of node
    /// accesses made (0 for an empty root face, 1..=7 otherwise).
    #[inline]
    pub(crate) fn lookup_depth(self, query: CellId) -> (Probe, u8) {
        match self.flat() {
            Some(flat) => walk_depth(flat, self.roots, query),
            None => walk_depth(self.split(), self.roots, query),
        }
    }

    /// See [`crate::ActIndexView::probe_batch`].
    pub(crate) fn lookup_batch(self, queries: &[CellId], out: &mut [Probe]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lookup_batch: queries/out length mismatch"
        );
        for (q, o) in queries
            .chunks(MAX_PROBE_BLOCK)
            .zip(out.chunks_mut(MAX_PROBE_BLOCK))
        {
            self.lookup_block(q, o, &mut ());
        }
    }

    /// See [`crate::ActIndexView::probe_batch_depths`].
    pub(crate) fn lookup_batch_depths(
        self,
        queries: &[CellId],
        out: &mut [Probe],
        depths: &mut [u8],
    ) {
        assert_eq!(
            queries.len(),
            out.len(),
            "lookup_batch_depths: queries/out length mismatch"
        );
        assert_eq!(
            queries.len(),
            depths.len(),
            "lookup_batch_depths: queries/depths length mismatch"
        );
        for ((q, o), d) in queries
            .chunks(MAX_PROBE_BLOCK)
            .zip(out.chunks_mut(MAX_PROBE_BLOCK))
            .zip(depths.chunks_mut(MAX_PROBE_BLOCK))
        {
            self.lookup_block(q, o, d);
        }
    }

    /// One level-synchronous block over whichever arena shape this is.
    #[inline]
    fn lookup_block<D: DepthSink + ?Sized>(
        self,
        queries: &[CellId],
        out: &mut [Probe],
        depths: &mut D,
    ) {
        match self.flat() {
            Some(flat) => walk_block(flat, self.roots, queries, out, depths),
            None => walk_block(self.split(), self.roots, queries, out, depths),
        }
    }

    /// Checks every arena slot for out-of-bounds child pointers and
    /// lookup-table offsets against `table` (the raw word array). The
    /// snapshot loader runs this on a helper thread while it chains the
    /// checksum, so that probing a validated arena can never index out of
    /// bounds, whatever the bytes came from; `Err` is the reason of the
    /// first violating slot in arena order.
    ///
    /// Kept out of line: inlined into the snapshot loader, its loop state
    /// spilled to the stack, and a census open ran ~25% slower.
    #[inline(never)]
    pub(crate) fn validate_entries(self, table: &[u32]) -> Result<(), &'static str> {
        let num_nodes = (self.base.len() + self.ext.len()) / FANOUT;
        // A child slot is out of range iff its word is at least this (a
        // limit past u32 admits every child: node indices have 30 bits).
        let child_limit = u32::try_from(num_nodes << 2).unwrap_or(u32::MAX);
        // Denormalization repeats one value across runs of up to 256
        // slots; an offset that repeats its predecessor was checked
        // already (and 0, the sentinel child, is always valid).
        let mut prev = 0u32;
        // Segment by segment: one chained iterator would test which
        // segment it is in at every slot.
        for segment in [self.base, self.ext] {
            let mut chunks = segment.chunks_exact(16);
            for chunk in &mut chunks {
                // Sixteen slots that all repeat `prev` cost one
                // vectorized compare.
                if chunk.iter().fold(true, |same, &e| same & (e == prev)) {
                    continue;
                }
                // Branch-free masks of the chunk's out-of-range children
                // and of its offsets that start a run: with a branch per
                // slot on the repeat and the tag, the census arena's check
                // took ~30% longer.
                let mut bad_child = 0u32;
                let mut new_offsets = 0u32;
                for (i, &e) in chunk.iter().enumerate() {
                    let before = if i == 0 { prev } else { chunk[i - 1] };
                    bad_child |= u32::from((e & TAG_MASK == TAG_CHILD) & (e >= child_limit)) << i;
                    new_offsets |= u32::from((e & TAG_MASK == TAG_OFFSET) & (e != before)) << i;
                }
                prev = chunk[15];
                if bad_child != 0 {
                    // Slot order decides which violation is reported.
                    for &e in chunk {
                        check_entry(e, num_nodes, table)?;
                    }
                }
                while new_offsets != 0 {
                    let i = new_offsets.trailing_zeros() as usize;
                    check_entry(chunk[i], num_nodes, table)?;
                    new_offsets &= new_offsets - 1;
                }
            }
            // Segments are whole nodes, so this is empty in practice.
            for &e in chunks.remainder() {
                check_entry(e, num_nodes, table)?;
            }
        }
        Ok(())
    }
}

/// One arena slot's check for [`RawTrie::validate_entries`]: a child
/// pointer inside the arena, or a lookup-table entry inside `table`.
fn check_entry(e: u32, num_nodes: usize, table: &[u32]) -> Result<(), &'static str> {
    match e & TAG_MASK {
        TAG_CHILD if (e >> 2) as usize >= num_nodes => Err("trie child pointer out of arena range"),
        TAG_OFFSET => {
            // Entry layout: [n_true, trues…, n_cand, cands…].
            let off = (e >> 2) as usize;
            let n_true = *table.get(off).ok_or("lookup-table offset out of range")?;
            let at = off + 1 + n_true as usize;
            let n_cand = *table
                .get(at)
                .ok_or("lookup-table entry exceeds the table")?;
            if at + 1 + n_cand as usize > table.len() {
                return Err("lookup-table entry exceeds the table");
            }
            Ok(())
        }
        // Inline references decode without indexing anything — any
        // 30-bit id is safe.
        _ => Ok(()),
    }
}

/// The root node of `query`'s cube face, 0 (an empty face) when its
/// face bits are 6 or 7: no valid cell has them, but a cell frame may
/// carry any `u64`.
#[inline]
fn root_of(roots: &[u32; 6], query: CellId) -> u32 {
    roots.get((query.0 >> 61) as usize).copied().unwrap_or(0)
}

/// The scalar walk of [`RawTrie::lookup_depth`] over `arena`.
#[inline]
fn walk_depth(arena: impl Arena, roots: &[u32; 6], query: CellId) -> (Probe, u8) {
    let mut node = root_of(roots, query) as usize;
    if node == 0 {
        return (Probe::Miss, 0);
    }
    // Position bits at the top of the word; consume 8 per level.
    let mut key = query.0 << 3;
    for depth in 1..=7u8 {
        let e = arena.slot(node * FANOUT + (key >> 56) as usize);
        key <<= 8;
        if e & TAG_MASK != TAG_CHILD {
            return (Probe::from_terminal(e), depth);
        }
        if e == 0 {
            return (Probe::Miss, depth);
        }
        node = (e >> 2) as usize;
    }
    (Probe::Miss, 7)
}

/// One level-synchronous block (≤ [`MAX_PROBE_BLOCK`] lanes) over
/// `arena`: lanes advance one level together and resolved lanes are
/// compacted out, so the loads of one level are independent and overlap
/// in the memory pipeline. `depths` gets each lane's node-access count
/// (0 for an empty root face, 1..=7 otherwise) — the serving pipeline's
/// probed-cell-depth hook; with `()` the walk records nothing and costs
/// nothing extra.
fn walk_block<D: DepthSink + ?Sized>(
    arena: impl Arena,
    roots: &[u32; 6],
    queries: &[CellId],
    out: &mut [Probe],
    depths: &mut D,
) {
    debug_assert!(queries.len() <= MAX_PROBE_BLOCK);
    let mut node = [0u32; MAX_PROBE_BLOCK];
    let mut key = [0u64; MAX_PROBE_BLOCK];
    // Active lane ids, compacted as lanes resolve.
    let mut lanes = [0u16; MAX_PROBE_BLOCK];
    let mut live = 0usize;
    for (i, (&q, o)) in queries.iter().zip(out.iter_mut()).enumerate() {
        let root = root_of(roots, q);
        *o = Probe::Miss;
        depths.record(i, 0);
        if root != 0 {
            node[i] = root;
            key[i] = q.0 << 3;
            lanes[live] = i as u16;
            live += 1;
        }
    }
    for depth in 1..=7u8 {
        if live == 0 {
            return;
        }
        let mut kept = 0usize;
        for j in 0..live {
            let i = lanes[j] as usize;
            let b = (key[i] >> 56) as usize;
            key[i] <<= 8;
            let e = arena.slot(node[i] as usize * FANOUT + b);
            // A lane that runs off the key after 7 levels keeps
            // depth 7 (and the Miss written above).
            depths.record(i, depth);
            if e & TAG_MASK != TAG_CHILD {
                out[i] = Probe::from_terminal(e);
            } else if e != 0 {
                node[i] = e >> 2;
                lanes[kept] = i as u16;
                kept += 1;
            }
            // e == 0: the sentinel child, stays the Miss written above.
        }
        live = kept;
    }
}

/// Arena bookkeeping counted by the mutations: how much of the
/// index became garbage (unreachable nodes, superseded lookup-table
/// entries). [`crate::ActIndex`] accumulates these into its waste ratio
/// to decide when a lazy compaction pays for itself.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MutationWaste {
    /// Nodes that became unreachable from the roots (zeroed where this
    /// trie may write them; the arena holds them until a compaction).
    pub(crate) orphaned_nodes: u64,
    /// Lookup-table words left behind by rewritten `Many` entries.
    pub(crate) stale_table_words: u64,
}

/// Decodes a terminal slot into its reference set, consulting the raw
/// lookup-table `words` for `TAG_OFFSET` slots.
fn entry_refset(e: u32, words: &[u32]) -> RefSet {
    match Probe::from_terminal(e) {
        Probe::One(r) => RefSet::One(r),
        Probe::Table(off) => {
            let (t, c) = crate::lookup::decode_at(words, off);
            let mut refs = t
                .iter()
                .map(|&id| PolygonRef::true_hit(id))
                .chain(c.iter().map(|&id| PolygonRef::candidate(id)));
            if t.len() + c.len() == 2 {
                // The common table entry: no allocation.
                let (a, b) = (refs.next().unwrap(), refs.next().unwrap());
                return if a.id < b.id {
                    RefSet::Two(a, b)
                } else {
                    RefSet::Two(b, a)
                };
            }
            let mut v: Vec<PolygonRef> = refs.collect();
            v.sort_unstable_by_key(|r| r.id);
            RefSet::Many(v)
        }
        Probe::Miss => unreachable!("child entries carry no references"),
    }
}

/// The cell of the single slot `s` of the node covering `node_cell`
/// (four quadtree levels down, two key bits per level).
fn slot_cell(node_cell: CellId, s: usize) -> CellId {
    node_cell
        .child(((s >> 6) & 3) as u8)
        .child(((s >> 4) & 3) as u8)
        .child(((s >> 2) & 3) as u8)
        .child((s & 3) as u8)
}

/// The cell of an aligned uniform slot run `[base, base+size)` of the
/// node covering `node_cell` — the inverse of denormalization: runs of
/// 256/64/16/4/1 slots are cells 0/1/2/3/4 levels below the node's.
fn run_cell(node_cell: CellId, base: usize, size: usize) -> CellId {
    let steps = match size {
        256 => 0,
        64 => 1,
        16 => 2,
        4 => 3,
        1 => 4,
        _ => unreachable!("runs are aligned power-of-4 blocks"),
    };
    let mut c = node_cell;
    for k in 0..steps {
        c = c.child(((base >> (6 - 2 * k)) & 3) as u8);
    }
    c
}

/// Where `cell` lives in the trie: the node `d_last` key bytes below its
/// face root, and the aligned slot range `[base, base + count)` of that
/// node it denormalizes to. A face cell is the whole root node.
fn cell_slots(cell: CellId) -> (u32, usize, usize) {
    let level = cell.level();
    assert!(
        level <= MAX_INDEX_LEVEL,
        "cell level {level} exceeds MAX_INDEX_LEVEL"
    );
    if level == 0 {
        return (0, 0, FANOUT);
    }
    let d_last = ((level - 1) / GRANULARITY) as u32;
    // The last node holds 1..=4 of the cell's levels: a run of 64/16/4/1.
    let count = 1usize << (8 - 2 * (level as u32 - GRANULARITY as u32 * d_last));
    (d_last, cell.key_byte(d_last) as usize & !(count - 1), count)
}

/// Read-only `u32` words that clones share: a heap array, or one section
/// of a mapped snapshot. An [`Act`]'s base segment (see the module docs)
/// and a [`LookupTable`] are both held this way, so an index opened over
/// a mapping copies neither its arena nor its table.
#[derive(Debug, Clone)]
pub(crate) enum SharedWords {
    /// A heap array: a finished build's or compaction's, or an owned
    /// snapshot load. Written in place while one holder has it alone.
    Heap(Arc<Vec<u32>>),
    /// The validated section at this `(byte offset, byte length)` of a
    /// mapped snapshot; never written.
    Mapped(Arc<MappedSnapshot>, (usize, usize)),
}

impl Default for SharedWords {
    fn default() -> SharedWords {
        SharedWords::Heap(Arc::default())
    }
}

impl SharedWords {
    #[inline]
    pub(crate) fn words(&self) -> &[u32] {
        match self {
            SharedWords::Heap(words) => words,
            SharedWords::Mapped(snap, section) => snap.section_words(*section),
        }
    }

    /// The heap array, when no other holder has it.
    #[inline]
    fn unique(&mut self) -> Option<&mut Vec<u32>> {
        match self {
            SharedWords::Heap(words) => Arc::get_mut(words),
            SharedWords::Mapped(..) => None,
        }
    }

    /// The words as an owned array: the heap array itself when no other
    /// holder has it, a copy otherwise.
    pub(crate) fn into_vec(self) -> Vec<u32> {
        match self {
            SharedWords::Heap(words) => Arc::try_unwrap(words).unwrap_or_else(|w| w.to_vec()),
            mapped => mapped.words().to_vec(),
        }
    }

    /// The snapshot these words borrow, if they are a mapped section.
    pub(crate) fn mapping(&self) -> Option<&Arc<MappedSnapshot>> {
        match self {
            SharedWords::Mapped(snap, _) => Some(snap),
            SharedWords::Heap(_) => None,
        }
    }

    /// True when both are one heap array, or one section of one mapping.
    fn same(&self, other: &SharedWords) -> bool {
        match (self, other) {
            (SharedWords::Heap(a), SharedWords::Heap(b)) => Arc::ptr_eq(a, b),
            (SharedWords::Mapped(a, x), SharedWords::Mapped(b, y)) => Arc::ptr_eq(a, b) && x == y,
            _ => false,
        }
    }
}

/// A root-to-node descent of a mutation. Its nodes are made
/// writable lazily, from the root down, on the first write at or below
/// them (see [`Act::own_prefix`]), so a descent that ends up writing
/// nothing copies nothing.
pub(crate) struct Descent {
    face: usize,
    /// Node per depth; `nodes[0]` is the face root.
    nodes: [u32; 8],
    /// `bytes[d]` is the slot of `nodes[d]` that holds `nodes[d + 1]`.
    bytes: [u8; 8],
    len: usize,
    /// `nodes[..owned]` are writable.
    owned: usize,
}

impl Descent {
    fn new(face: usize, root: u32) -> Descent {
        let mut nodes = [0; 8];
        nodes[0] = root;
        Descent {
            face,
            nodes,
            bytes: [0; 8],
            len: 1,
            owned: 0,
        }
    }

    fn push(&mut self, byte: usize, child: u32) {
        self.bytes[self.len - 1] = byte as u8;
        self.nodes[self.len] = child;
        self.len += 1;
    }

    fn pop(&mut self) {
        self.len -= 1;
        self.owned = self.owned.min(self.len);
    }

    fn last(&self) -> usize {
        self.nodes[self.len - 1] as usize
    }
}

/// The Adaptive Cell Trie.
///
/// A clone shares the base segment of the node arena and copies only
/// the nodes the original owns outside it (see the module docs).
#[derive(Debug, Clone)]
pub struct Act {
    /// Nodes `0..B`: node `i` occupies `base[i*256 .. (i+1)*256]`. Node 0
    /// is the all-zero sentinel.
    base: SharedWords,
    /// Nodes `B..`: the nodes this trie allocated while its base was
    /// shared or frozen, and the base nodes it copied out to write them.
    ext: Vec<u32>,
    /// Root node index per cube face (0 = no data on that face).
    roots: [u32; 6],
    /// Number of cells inserted (before denormalization) — the paper's
    /// "indexed cells" metric counts denormalized slot ranges; both are
    /// tracked.
    inserted_cells: u64,
    /// Number of slot writes performed by denormalization.
    denormalized_slots: u64,
}

impl Default for Act {
    fn default() -> Self {
        Self::new()
    }
}

impl Act {
    /// Creates an empty trie (just the sentinel node).
    pub fn new() -> Act {
        Act {
            base: SharedWords::default(),
            ext: vec![0u32; FANOUT],
            roots: [0; 6],
            inserted_cells: 0,
            denormalized_slots: 0,
        }
    }

    /// Reassembles a trie over a validated arena (snapshot load path),
    /// shared as the base: a heap copy, or the mapping itself, which
    /// writes then copy out node by node. The caller is responsible for
    /// having validated the arena: slot count a positive multiple of
    /// [`FANOUT`], roots within bounds.
    pub(crate) fn from_raw_parts(
        base: SharedWords,
        roots: [u32; 6],
        inserted_cells: u64,
        denormalized_slots: u64,
    ) -> Act {
        let slots = base.words().len();
        debug_assert!(slots > 0 && slots.is_multiple_of(FANOUT));
        debug_assert!(roots.iter().all(|&r| (r as usize) < slots / FANOUT));
        Act {
            base,
            ext: Vec::new(),
            roots,
            inserted_cells,
            denormalized_slots,
        }
    }

    /// Makes a freshly populated arena the base, without copying it, so
    /// that clones share it. A trie whose base already holds nodes is
    /// left as it is.
    pub(crate) fn freeze(&mut self) {
        if self.base.words().is_empty() {
            self.base = SharedWords::Heap(Arc::new(std::mem::take(&mut self.ext)));
        }
    }

    /// The borrowed probe core (shared with snapshot views).
    #[inline]
    pub(crate) fn raw(&self) -> RawTrie<'_> {
        RawTrie {
            base: self.base.words(),
            ext: &self.ext,
            roots: &self.roots,
        }
    }

    /// The 256 slots of node `n`.
    #[inline]
    fn node(&self, n: usize) -> &[u32] {
        let (base, at) = (self.base.words(), n * FANOUT);
        if at < base.len() {
            &base[at..at + FANOUT]
        } else {
            &self.ext[at - base.len()..at - base.len() + FANOUT]
        }
    }

    /// The 256 slots of node `n`, for writing; `n` must be writable (see
    /// [`Act::own`]).
    #[inline]
    fn node_mut(&mut self, n: usize) -> &mut [u32] {
        let (b, at) = (self.base.words().len(), n * FANOUT);
        if at >= b {
            &mut self.ext[at - b..at - b + FANOUT]
        } else {
            let base =
                (self.base.unique()).expect("a shared base node is written through its copy");
            &mut base[at..at + FANOUT]
        }
    }

    /// True when this trie may write node `n` in place: an ext node, or
    /// a node of a base no other trie holds.
    #[inline]
    fn writable(&mut self, n: usize) -> bool {
        n * FANOUT >= self.base.words().len() || self.base.unique().is_some()
    }

    /// Node `n`, writable: `n` itself when [`Act::writable`], otherwise
    /// a copy of it appended to the ext, whose index the caller stores in
    /// `n`'s parent slot or face root. The shared original becomes an
    /// orphan of this trie, counted in `waste`.
    fn own(&mut self, n: u32, waste: &mut MutationWaste) -> u32 {
        if self.writable(n as usize) {
            return n;
        }
        let copy = self.alloc_node();
        let base = self.base.words();
        let (src, dst) = (n as usize * FANOUT, copy as usize * FANOUT - base.len());
        self.ext[dst..dst + FANOUT].copy_from_slice(&base[src..src + FANOUT]);
        waste.orphaned_nodes += 1;
        copy
    }

    /// Makes `path.nodes[..upto]` writable from the root down, storing
    /// each copy's index in its (already writable) parent or face root;
    /// returns `path.nodes[upto - 1]`. A 0 on the descent (no node yet)
    /// is allocated and linked the same way.
    fn own_prefix(&mut self, path: &mut Descent, upto: usize, waste: &mut MutationWaste) -> usize {
        for d in path.owned..upto {
            let n = match path.nodes[d] {
                0 => self.alloc_node(),
                n => self.own(n, waste),
            };
            if n != path.nodes[d] {
                if d == 0 {
                    self.roots[path.face] = n;
                } else {
                    let b = path.bytes[d - 1] as usize;
                    self.node_mut(path.nodes[d - 1] as usize)[b] = encode_child(n);
                }
                path.nodes[d] = n;
            }
        }
        path.owned = path.owned.max(upto);
        path.nodes[upto - 1] as usize
    }

    /// [`Act::own_prefix`] over the whole descent.
    fn own_path(&mut self, path: &mut Descent, waste: &mut MutationWaste) -> usize {
        self.own_prefix(path, path.len, waste)
    }

    #[inline]
    fn alloc_node(&mut self) -> u32 {
        let idx = (self.base.words().len() + self.ext.len()) / FANOUT;
        assert!(
            idx <= MAX_POLYGON_ID as usize,
            "ACT arena exceeds 2^30 nodes; cannot be addressed by 30-bit child indices"
        );
        match self.base.unique() {
            // With no ext, a base held alone ends where the arena does,
            // so it grows in place.
            Some(base) if self.ext.is_empty() => base.resize(base.len() + FANOUT, 0),
            _ => self.ext.resize(self.ext.len() + FANOUT, 0),
        }
        idx as u32
    }

    /// Inserts a cell with its reference set.
    ///
    /// # Preconditions (enforced by the super covering, asserted here)
    /// * `cell.level() ≤ 28`
    /// * no inserted cell is an ancestor or descendant of another
    /// * no cell is inserted twice
    pub fn insert(&mut self, cell: CellId, refs: &RefSet, table: &mut LookupTableBuilder) {
        self.insert_with_waste(cell, refs, table, &mut MutationWaste::default());
    }

    /// [`Act::insert`], counting the shared base nodes its descent
    /// copies out in `waste`.
    pub(crate) fn insert_with_waste(
        &mut self,
        cell: CellId,
        refs: &RefSet,
        table: &mut LookupTableBuilder,
        waste: &mut MutationWaste,
    ) {
        debug_assert!(cell.is_valid());
        let (d_last, base, count) = cell_slots(cell);
        let entry = encode_terminal(refs, table);

        // Every node on the path is written below (a child pointer or
        // the cell's slots), so the descent owns it as it goes.
        let face = cell.face() as usize;
        let root = match self.roots[face] {
            0 => self.alloc_node(),
            root => self.own(root, waste),
        };
        self.roots[face] = root;
        let mut node = root as usize;
        for d in 0..d_last {
            let b = cell.key_byte(d) as usize;
            let e = self.node(node)[b];
            if e & TAG_MASK != TAG_CHILD {
                panic!(
                    "ACT insert: cell {cell:?} is nested under an already-indexed cell; \
                     the super covering must resolve nesting before insertion"
                );
            }
            let child = match e >> 2 {
                0 => self.alloc_node(),
                idx => self.own(idx, waste),
            };
            if child != e >> 2 {
                self.node_mut(node)[b] = encode_child(child);
            }
            node = child as usize;
        }
        self.fill_range(node, base, count, entry);
        self.inserted_cells += 1;
    }

    /// Writes `entry` over `count` empty slots of the writable `node`.
    fn fill_range(&mut self, node: usize, base: usize, count: usize, entry: u32) {
        for slot in &mut self.node_mut(node)[base..base + count] {
            assert_eq!(
                *slot, 0,
                "ACT insert: slot already occupied; cells must be disjoint and unique"
            );
            *slot = entry;
        }
        self.denormalized_slots += count as u64;
    }

    /// The node arena (node `i` is `slots()[i*256..(i+1)*256]`), exposed
    /// so builds can be compared for byte-identity. Borrowed while the
    /// arena is one segment; a trie that owns nodes beside a shared base
    /// returns the two segments concatenated.
    pub fn slots(&self) -> Cow<'_, [u32]> {
        let raw = self.raw();
        match raw.flat() {
            Some(Flat(slots)) => Cow::Borrowed(slots),
            None => Cow::Owned([raw.base, raw.ext].concat()),
        }
    }

    /// True when this trie and `other` read one shared base segment, as
    /// a clone and its original do.
    pub fn shares_base_with(&self, other: &Act) -> bool {
        self.base.same(&other.base)
    }

    /// The snapshot this trie's arena is, while it owns no node beside
    /// it.
    pub(crate) fn mapping(&self) -> Option<&Arc<MappedSnapshot>> {
        self.base.mapping().filter(|_| self.ext.is_empty())
    }

    /// Bytes of the nodes this trie owns beside its base: what a clone
    /// copies of the arena.
    #[inline]
    pub fn ext_bytes(&self) -> usize {
        self.ext.len() * std::mem::size_of::<u32>()
    }

    /// The per-face root node indices.
    #[inline]
    pub fn roots(&self) -> &[u32; 6] {
        &self.roots
    }

    /// Number of nodes (including the sentinel).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        (self.base.words().len() + self.ext.len()) / FANOUT
    }

    /// Memory consumed by the node arena in bytes (the paper's "ACT \[MB\]"),
    /// both segments counted.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.num_nodes() * NODE_BYTES
    }

    /// Number of `insert` calls (cells before denormalization).
    #[inline]
    pub fn inserted_cells(&self) -> u64 {
        self.inserted_cells
    }

    /// Number of slots written (cells after denormalization) — the
    /// fine-grained "indexed cells" count.
    #[inline]
    pub fn denormalized_slots(&self) -> u64 {
        self.denormalized_slots
    }

    /// Walks the trie and gathers structural statistics.
    pub fn stats(&self) -> TrieStats {
        let mut st = TrieStats::default();
        for f in 0..6 {
            if self.roots[f] != 0 {
                self.stats_rec(self.roots[f] as usize, 0, &mut st);
            }
        }
        st
    }

    fn stats_rec(&self, node: usize, depth: usize, st: &mut TrieStats) {
        if st.nodes_per_depth.len() <= depth {
            st.nodes_per_depth.resize(depth + 1, 0);
            st.occupied_per_depth.resize(depth + 1, 0);
        }
        st.nodes_per_depth[depth] += 1;
        for &e in self.node(node) {
            if e == 0 {
                continue;
            }
            st.occupied_per_depth[depth] += 1;
            match e & TAG_MASK {
                TAG_CHILD => self.stats_rec((e >> 2) as usize, depth + 1, st),
                TAG_CANDIDATE => st.terminals.0 += 1,
                TAG_TRUE_HIT => st.terminals.1 += 1,
                _ => st.terminals.2 += 1,
            }
        }
    }

    // ---- live mutation (incremental inserts / removals) ----------------
    //
    // Both mutations go through one territory walk,
    // [`Act::rewrite_territory`], the write-side complement of the probe
    // walks. It inverts denormalization (maximal aligned uniform slot
    // runs map back to cells) and lets its caller decide each run's new
    // entry: an insert takes every run out (entry 0) and re-inserts the
    // merged set into the freed slots; a removal strips one polygon id.
    // Child nodes a rewrite empties are cut loose and stay in the arena
    // as orphans until [`crate::ActIndex::compact`] rewrites it. Every
    // write goes to a writable node: the walk copies a shared base node
    // out on its first write (see [`Act::own`]), and never copies one it
    // leaves unchanged or empties.

    /// The maximal aligned uniform run containing slot `s` of `node`
    /// (entry `e`, non-child). May merge sibling cells that happen to
    /// carry the same entry — probe-equivalent, since every leaf in the
    /// merged block resolves to the same entry either way.
    fn expand_run(&self, node: usize, s: usize, e: u32) -> (usize, usize) {
        let slots = self.node(node);
        for size in [256usize, 64, 16, 4] {
            let base = s & !(size - 1);
            if slots[base..base + size].iter().all(|&x| x == e) {
                return (base, size);
            }
        }
        (s, 1)
    }

    /// Visits every live `(cell, refs)` pair in range order — read-only,
    /// with nothing materialized beyond the pair handed to `f`. `words`
    /// is the lookup table the trie's `TAG_OFFSET` entries point into.
    pub(crate) fn for_each_cell(&self, words: &[u32], mut f: impl FnMut(CellId, RefSet)) {
        for face in 0..6u8 {
            let root = self.roots[face as usize] as usize;
            if root != 0 {
                self.walk_node(root, CellId::from_face(face), words, &mut f);
            }
        }
    }

    /// [`Act::for_each_cell`] under `node` (which covers `node_cell`).
    fn walk_node<F: FnMut(CellId, RefSet)>(
        &self,
        node: usize,
        node_cell: CellId,
        words: &[u32],
        f: &mut F,
    ) {
        let slots = self.node(node);
        let mut s = 0usize;
        while s < FANOUT {
            let e = slots[s];
            if e == 0 {
                s += 1;
            } else if e & TAG_MASK == TAG_CHILD {
                self.walk_node((e >> 2) as usize, slot_cell(node_cell, s), words, f);
                s += 1;
            } else {
                let size = greedy_run(slots, s);
                f(run_cell(node_cell, s, size), entry_refset(e, words));
                s += size;
            }
        }
    }

    /// A fresh trie and lookup table holding the cells of this one that
    /// `keep` accepts: byte for byte the trie and table that inserting
    /// those cells one by one in range order, as [`Act::for_each_cell`]
    /// reads them, would build. The walk copies nodes instead: a cell's
    /// key bytes are its path, so each run goes to the same slots of the
    /// same node below the same path. Destination nodes are allocated
    /// top-down at the first slot written below them, the order
    /// [`Act::insert`] allocates them in, and a table entry is re-interned
    /// by its content the first time it is met, so two equal entries at
    /// two offsets merge as re-insertion merges them.
    ///
    /// `keep(cell)` says whether `cell`'s territory overlaps the copy.
    /// It is asked of the runs and child nodes of nodes coarser than
    /// `whole_level`; a child node at `whole_level` or finer is kept or
    /// dropped whole, so `keep` must answer for every cell below it as
    /// it does for the node.
    pub(crate) fn copy_cells(
        &self,
        words: &[u32],
        whole_level: u8,
        keep: impl Fn(CellId) -> bool,
    ) -> (Act, LookupTableBuilder) {
        let mut copy = TrieCopy {
            src: self,
            words,
            whole_level,
            keep,
            dst: Act::new(),
            tb: LookupTableBuilder::new(),
            interned: vec![0; words.len()],
            path: Descent::new(0, 0),
        };
        for face in 0..6u8 {
            let (root, cell) = (self.roots[face as usize], CellId::from_face(face));
            if root != 0 && (copy.keep)(cell) {
                copy.path = Descent::new(face as usize, 0);
                copy.copy_node(root as usize, cell, whole_level == 0);
            }
        }
        (copy.dst, copy.tb)
    }

    /// The one territory walk of both mutations. `cell`'s territory is
    /// the run of a coarser denormalized ancestor when one covers `cell`;
    /// otherwise `cell`'s slot range and the subtrees below it (quadtree
    /// cells are laminar, so nothing else overlaps `cell`). Every terminal
    /// run in it goes to `f` as `(run cell, entry)`, and the entry `f`
    /// returns is written back: 0 empties the run. A run that extends
    /// past `cell` is rewritten whole.
    ///
    /// With `prune` (a removal), a node the rewrite leaves empty is cut
    /// from its parent instead of written (see [`Act::prune_path`]).
    /// Without it (insert, which refills the territory next) the cleared
    /// node stays in place.
    pub(crate) fn rewrite_territory(
        &mut self,
        cell: CellId,
        prune: bool,
        waste: &mut MutationWaste,
        mut f: impl FnMut(CellId, u32) -> u32,
    ) {
        debug_assert!(cell.is_valid());
        let (d_last, mut base, mut count) = cell_slots(cell);
        let face = cell.face();
        let root = self.roots[face as usize];
        if root == 0 {
            return;
        }
        let mut path = Descent::new(face as usize, root);
        let mut node_cell = CellId::from_face(face);
        for d in 0..d_last {
            let b = cell.key_byte(d) as usize;
            let e = self.node(path.last())[b];
            if e == 0 {
                return; // nothing indexed under here
            }
            if e & TAG_MASK != TAG_CHILD {
                // An ancestor terminal covers `cell` entirely: its
                // denormalized run is the whole territory.
                (base, count) = self.expand_run(path.last(), b, e);
                break;
            }
            node_cell = slot_cell(node_cell, b);
            path.push(b, e >> 2);
        }
        let range = base..base + count;
        let slots = self.rewrite_slots(path.last(), node_cell, range, &mut f, waste);
        let now = slots.as_ref().map_or(self.node(path.last()), |s| &s[..]);
        if prune && now.iter().all(|&x| x == 0) {
            self.prune_path(&mut path, waste);
        } else if let Some(slots) = slots {
            let node = self.own_path(&mut path, waste);
            self.node_mut(node).copy_from_slice(&slots);
        }
    }

    /// The slots of `node` (which covers `node_cell`) once the runs in
    /// `range` and the subtrees below it are rewritten through `f` (see
    /// [`Act::rewrite_territory`]), or `None` when none changed. Computes
    /// them without writing `node`, so the caller decides whether, and
    /// into which copy, they are written.
    fn rewrite_slots<F: FnMut(CellId, u32) -> u32>(
        &mut self,
        node: usize,
        node_cell: CellId,
        range: std::ops::Range<usize>,
        f: &mut F,
        waste: &mut MutationWaste,
    ) -> Option<[u32; FANOUT]> {
        let mut slots = [0u32; FANOUT];
        slots.copy_from_slice(self.node(node));
        let mut changed = false;
        let mut s = range.start;
        while s < range.end {
            let e = slots[s];
            if e == 0 {
                s += 1;
            } else if e & TAG_MASK == TAG_CHILD {
                let child = self.rewrite_node(e >> 2, slot_cell(node_cell, s), f, waste);
                if child != e >> 2 {
                    slots[s] = encode_child(child);
                    changed = true;
                }
                s += 1;
            } else {
                let (base, size) = self.expand_run(node, s, e);
                let ne = f(run_cell(node_cell, base, size), e);
                if ne != e {
                    slots[base..base + size].fill(ne);
                    changed = true;
                    if ne == 0 {
                        self.denormalized_slots =
                            self.denormalized_slots.saturating_sub(size as u64);
                        self.inserted_cells = self.inserted_cells.saturating_sub(1);
                    }
                }
                s = base + size; // a containing run ends past the range
            }
        }
        changed.then_some(slots)
    }

    /// Rewrites every run under `node` (which covers `node_cell`) and
    /// returns the node's index afterwards: `node` itself when nothing
    /// changed, a copy once a shared node had to be written (see
    /// [`Act::own`]), or 0 when it is left empty. An empty node is cut
    /// loose and counted as an orphan; it is zeroed when this trie may
    /// write it in place and never copied out of a shared base.
    fn rewrite_node<F: FnMut(CellId, u32) -> u32>(
        &mut self,
        node: u32,
        node_cell: CellId,
        f: &mut F,
        waste: &mut MutationWaste,
    ) -> u32 {
        let slots = self.rewrite_slots(node as usize, node_cell, 0..FANOUT, f, waste);
        let now = slots.as_ref().map_or(self.node(node as usize), |s| &s[..]);
        if now.iter().all(|&x| x == 0) {
            waste.orphaned_nodes += 1;
            if self.writable(node as usize) {
                self.node_mut(node as usize).fill(0);
            }
            return 0;
        }
        let Some(slots) = slots else { return node };
        let node = self.own(node, waste);
        self.node_mut(node as usize).copy_from_slice(&slots);
        node
    }

    /// Cuts the descent's last node, which a removal left empty, from
    /// its parent (or its face root), and each ancestor that held only
    /// the cut node the same way, bottom-up; every cut node counts as an
    /// orphan, so probes into the emptied territory short-circuit and the
    /// waste metric sees the garbage. A cut node is zeroed when this trie
    /// may write it in place and never copied out of a shared base: only
    /// the surviving parent that drops the pointer is written.
    fn prune_path(&mut self, path: &mut Descent, waste: &mut MutationWaste) {
        for d in (0..path.len).rev() {
            let node = path.nodes[d] as usize;
            waste.orphaned_nodes += 1;
            if self.writable(node) {
                self.node_mut(node).fill(0);
            }
            if d == 0 {
                self.roots[path.face] = 0;
                return;
            }
            let b = path.bytes[d - 1] as usize;
            let parent = self.node(path.nodes[d - 1] as usize);
            if parent.iter().enumerate().any(|(s, &x)| s != b && x != 0) {
                let parent = self.own_prefix(path, d, waste);
                self.node_mut(parent)[b] = 0;
                return;
            }
        }
    }
}

/// The size of the run at slot `s` of `slots` (a terminal entry) that
/// the cell walks take as one cell. Left-to-right greedy: at an aligned
/// boundary a uniform block this large is maximal (a larger one would
/// have been taken at its own boundary).
fn greedy_run(slots: &[u32], s: usize) -> usize {
    let e = slots[s];
    [256usize, 64, 16, 4]
        .into_iter()
        .find(|&cand| s.is_multiple_of(cand) && slots[s..s + cand].iter().all(|&x| x == e))
        .unwrap_or(1)
}

/// One [`Act::copy_cells`] walk.
struct TrieCopy<'a, K> {
    src: &'a Act,
    words: &'a [u32],
    whole_level: u8,
    keep: K,
    dst: Act,
    tb: LookupTableBuilder,
    /// Source table offset → the terminal its entry re-interned to in
    /// `tb` (0 while not yet met).
    interned: Vec<u32>,
    /// The destination nodes of the source descent being copied: 0 until
    /// the first write below them allocates them.
    path: Descent,
}

impl<K: Fn(CellId) -> bool> TrieCopy<'_, K> {
    /// Copies source `node` (covering `node_cell`, `path.len - 1` levels
    /// below its face root). With `whole`, every cell under it is kept.
    fn copy_node(&mut self, node: usize, node_cell: CellId, whole: bool) {
        let slots = self.src.node(node);
        let mut s = 0usize;
        while s < FANOUT {
            let e = slots[s];
            if e == 0 {
                s += 1;
            } else if e & TAG_MASK == TAG_CHILD {
                let cell = slot_cell(node_cell, s);
                if whole || (self.keep)(cell) {
                    self.path.push(s, 0);
                    let whole = whole || cell.level() >= self.whole_level;
                    self.copy_node((e >> 2) as usize, cell, whole);
                    self.path.pop();
                }
                s += 1;
            } else {
                let size = greedy_run(slots, s);
                if whole || (self.keep)(run_cell(node_cell, s, size)) {
                    self.write_run(s, size, e);
                }
                s += size;
            }
        }
    }

    /// Writes the source run `[s, s + size)` of entry `e`, in the node
    /// being copied, where [`Act::insert`] writes its cell: at the same
    /// slots, except that a whole non-root node is one cell at its
    /// parent's slot.
    fn write_run(&mut self, s: usize, size: usize, e: u32) {
        let depth = self.path.len - 1;
        let (depth, s, size) = if size == FANOUT && depth > 0 {
            (depth - 1, self.path.bytes[depth - 1] as usize, 1)
        } else {
            (depth, s, size)
        };
        let entry = match e & TAG_MASK {
            TAG_OFFSET => {
                let interned = &mut self.interned[(e >> 2) as usize];
                if *interned == 0 {
                    *interned = encode_terminal(&entry_refset(e, self.words), &mut self.tb);
                }
                *interned
            }
            _ => e,
        };
        let dst = &mut self.dst;
        let node = dst.own_prefix(&mut self.path, depth + 1, &mut MutationWaste::default());
        dst.node_mut(node)[s..s + size].fill(entry);
        dst.inserted_cells += 1;
        dst.denormalized_slots += size as u64;
    }
}

/// Insert's side of [`Act::rewrite_territory`]: the reference set of the
/// run entry `e`, with a table entry registered in `tb` (see
/// [`LookupTableBuilder::dedup_entry`]) so that re-inserting the same set
/// reuses its words.
pub(crate) fn take_refs(e: u32, tb: &mut LookupTableBuilder) -> RefSet {
    if let Probe::Table(off) = Probe::from_terminal(e) {
        tb.dedup_entry(off as usize);
    }
    entry_refset(e, tb.words())
}

/// Removal's side of [`Act::rewrite_territory`]: the terminal slot `e`
/// with polygon `id`'s reference dropped. Returns `e` itself when it
/// does not reference `id`, and 0 when `id` was its only reference. A
/// table entry that stays is registered in `tb` (see
/// [`LookupTableBuilder::dedup_entry`]), so an identical set interned
/// later reuses it. A shrunk set re-interns into `tb` — or, down to one
/// reference, becomes an inline slot — and the old entry's words become
/// table garbage, counted in `stale_words`.
pub(crate) fn rewrite_without(
    e: u32,
    id: u32,
    tb: &mut LookupTableBuilder,
    stale_words: &mut u64,
) -> u32 {
    match Probe::from_terminal(e) {
        Probe::One(r) => {
            if r.id == id {
                0
            } else {
                e
            }
        }
        Probe::Table(off) => {
            let (t, c) = crate::lookup::decode_at(tb.words(), off);
            if !t.contains(&id) && !c.contains(&id) {
                tb.dedup_entry(off as usize);
                return e;
            }
            *stale_words += (t.len() + c.len() + 2) as u64;
            let mut v: Vec<PolygonRef> = t
                .iter()
                .filter(|&&x| x != id)
                .map(|&x| PolygonRef::true_hit(x))
                .chain(
                    c.iter()
                        .filter(|&&x| x != id)
                        .map(|&x| PolygonRef::candidate(x)),
                )
                .collect();
            v.sort_unstable_by_key(|r| r.id);
            if v.is_empty() {
                0
            } else {
                encode_terminal(&RefSet::from_sorted(v), tb)
            }
        }
        Probe::Miss => unreachable!("child entries are handled by the walk"),
    }
}

/// Resolves a [`Probe`] into an iterator over `(polygon id, is_true_hit)`
/// pairs, consulting the lookup table when necessary.
#[inline]
pub fn resolve_probe<'a>(
    probe: Probe,
    table: &'a LookupTable,
) -> impl Iterator<Item = (u32, bool)> + 'a {
    resolve_probe_words(probe, table.words())
}

/// [`resolve_probe`] over the raw lookup-table word array — the shared
/// implementation behind the owned table and borrowed snapshot views.
#[inline]
pub(crate) fn resolve_probe_words(
    probe: Probe,
    words: &[u32],
) -> impl Iterator<Item = (u32, bool)> + '_ {
    // A small state machine keeps every case allocation-free.
    let (inline, slices) = match probe {
        Probe::Miss => (None, None),
        Probe::One(a) => (Some(a), None),
        Probe::Table(off) => (None, Some(crate::lookup::decode_at(words, off))),
    };
    let inline_iter = inline.into_iter().map(|r| (r.id, r.interior));
    let table_iter = slices.into_iter().flat_map(|(t, c)| {
        t.iter()
            .map(|&id| (id, true))
            .chain(c.iter().map(|&id| (id, false)))
    });
    inline_iter.chain(table_iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2cell::LatLng;

    fn nyc_leaf(lat: f64, lng: f64) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(lat, lng))
    }

    #[test]
    fn empty_trie_misses() {
        let act = Act::new();
        assert_eq!(act.raw().lookup(nyc_leaf(40.7, -74.0)), Probe::Miss);
        assert_eq!(act.num_nodes(), 1); // sentinel only
    }

    /// Face bits 6 and 7 name no cube face: a cell frame carrying such an
    /// id must miss at depth 0 on every walk, however full the trie.
    #[test]
    fn garbage_face_bits_miss_at_depth_zero() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        for face in 0..6u8 {
            let cell = CellId::from_face(face).child(1).child(2);
            act.insert(cell, &RefSet::single(PolygonRef::true_hit(1)), &mut tb);
        }
        let garbage = [CellId(u64::MAX), CellId(6 << 61), CellId(7 << 61)];
        for &q in &garbage {
            assert_eq!(act.raw().lookup_depth(q), (Probe::Miss, 0), "{q:?}");
        }
        let mut out = vec![Probe::One(PolygonRef::true_hit(9)); garbage.len()];
        act.raw().lookup_batch(&garbage, &mut out);
        assert_eq!(out, vec![Probe::Miss; garbage.len()]);
        let mut depths = vec![9u8; garbage.len()];
        act.raw()
            .lookup_batch_depths(&garbage, &mut out, &mut depths);
        assert_eq!(out, vec![Probe::Miss; garbage.len()]);
        assert_eq!(depths, vec![0; garbage.len()]);
    }

    /// The chunked entry check reports the same first violation as
    /// checking every slot in arena order, over seeded arenas of runs,
    /// inline refs, children and offsets with rare violations of each
    /// kind, split into a base and an ext segment.
    #[test]
    fn validate_entries_reports_the_first_violating_slot() {
        // [n_true, trues…, n_cand, cands…] entries at 0, 3 and 6; words
        // 10–11 start no valid entry (the last overruns the table).
        let table = [1u32, 9, 0, 2, 7, 0, 0, 1, 4, 5, 0, 6];
        let scalar = |base: &[u32], ext: &[u32], num_nodes: usize| {
            base.iter()
                .chain(ext)
                .try_for_each(|&e| check_entry(e, num_nodes, &table))
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let roots = [0u32; 6];
        let (mut errors, mut oks) = (0, 0);
        for _ in 0..400 {
            let num_nodes = 1 + next(4) as usize;
            let mut slots = Vec::with_capacity(num_nodes * FANOUT);
            // Violations dense enough to meet in one 16-slot chunk, or
            // rare enough to pass a whole arena.
            let violation_odds = [6, 30, 300][next(3) as usize];
            let mut e = 0u32;
            while slots.len() < num_nodes * FANOUT {
                let rare = next(violation_odds) == 0;
                e = match next(10) {
                    0..=4 => e,
                    5 => 0,
                    6 => (next(1 << 28) as u32) << 2 | TAG_CANDIDATE,
                    7 => (next(num_nodes as u64 + 2 * u64::from(rare)) as u32) << 2,
                    _ if rare => (10 + next(8) as u32) << 2 | TAG_OFFSET,
                    _ => [0u32, 3, 6][next(3) as usize] << 2 | TAG_OFFSET,
                };
                let longest = [3, 40][next(2) as usize];
                let run = 1 + next(longest) as usize;
                slots.extend(std::iter::repeat_n(e, run));
            }
            slots.truncate(num_nodes * FANOUT);
            let split = next(num_nodes as u64 + 1) as usize * FANOUT;
            let (base, ext) = slots.split_at(split);
            let raw = RawTrie {
                base,
                ext,
                roots: &roots,
            };
            let want = scalar(base, ext, num_nodes);
            assert_eq!(raw.validate_entries(&table), want);
            if want.is_err() {
                errors += 1;
            } else {
                oks += 1;
            }
        }
        assert!(errors > 100 && oks > 100, "{errors} errors, {oks} oks");
    }

    #[test]
    fn single_cell_hit_and_miss() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7580, -73.9855);
        let cell = leaf.parent(16);
        act.insert(cell, &RefSet::single(PolygonRef::true_hit(7)), &mut tb);
        // Any leaf inside the cell hits.
        assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::true_hit(7)));
        assert_eq!(
            act.raw().lookup(cell.child(3).child(0).range_min()),
            Probe::One(PolygonRef::true_hit(7))
        );
        // A leaf outside misses.
        let outside = nyc_leaf(41.5, -74.0);
        assert_eq!(act.raw().lookup(outside), Probe::Miss);
        assert_eq!(act.inserted_cells(), 1);
    }

    #[test]
    fn unaligned_levels_are_denormalized() {
        // Levels 17..20 all live in the depth-5 node; a level-17 cell spans
        // 64 slots, 18 → 16, 19 → 4, 20 → 1.
        for (level, span) in [(17u8, 64u64), (18, 16), (19, 4), (20, 1)] {
            let mut act = Act::new();
            let mut tb = LookupTableBuilder::new();
            let leaf = nyc_leaf(40.7580, -73.9855);
            let cell = leaf.parent(level);
            act.insert(cell, &RefSet::single(PolygonRef::candidate(1)), &mut tb);
            assert_eq!(act.denormalized_slots(), span, "level {level}");
            // Every descendant leaf of the cell must hit...
            assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::candidate(1)));
            assert_eq!(
                act.raw().lookup(cell.range_min()),
                Probe::One(PolygonRef::candidate(1))
            );
            assert_eq!(
                act.raw().lookup(cell.range_max()),
                Probe::One(PolygonRef::candidate(1))
            );
            // ...and the neighbor cell must miss.
            assert_eq!(
                act.raw().lookup(CellId(cell.range_max().0 + 2)),
                Probe::Miss
            );
        }
    }

    #[test]
    fn single_refs_inline_with_the_flag_in_the_tag() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7, -74.0);
        let (a, b) = (leaf.parent(12), nyc_leaf(41.5, -74.0).parent(12));
        act.insert(a, &RefSet::single(PolygonRef::true_hit(3)), &mut tb);
        act.insert(b, &RefSet::single(PolygonRef::candidate(3)), &mut tb);
        assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::true_hit(3)));
        assert_eq!(
            act.raw().lookup(b.range_min()),
            Probe::One(PolygonRef::candidate(3))
        );
        // One slot word each: tag 10 (true hit) and 01 (candidate).
        let slots: Vec<u32> = act
            .slots()
            .iter()
            .copied()
            .filter(|&e| e & 3 != 0)
            .collect();
        assert!(slots.contains(&((3 << 2) | TAG_TRUE_HIT)));
        assert!(slots.contains(&((3 << 2) | TAG_CANDIDATE)));
        // No lookup table entries were created for inline references.
        assert_eq!(tb.build().len_words(), 0);
    }

    #[test]
    fn two_refs_go_to_lookup_table() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let cell = nyc_leaf(40.7, -74.0).parent(12);
        let refs = RefSet::Two(PolygonRef::true_hit(3), PolygonRef::candidate(9));
        act.insert(cell, &refs, &mut tb);
        let table = tb.build();
        match act.raw().lookup(cell.range_min()) {
            Probe::Table(off) => {
                let (t, c) = table.decode(off);
                assert_eq!(t, &[3]);
                assert_eq!(c, &[9]);
            }
            other => panic!("expected Table, got {other:?}"),
        }
        // One interned entry: [n_true=1, 3, n_cand=1, 9].
        assert_eq!(table.len_words(), 4);
    }

    #[test]
    fn max_polygon_id_round_trips_inline_and_in_the_table() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7, -74.0);
        let far = nyc_leaf(41.5, -74.0);
        let other = CellId::from_latlng(LatLng::from_degrees(0.0, 0.0));
        act.insert(
            leaf.parent(12),
            &RefSet::single(PolygonRef::true_hit(MAX_POLYGON_ID)),
            &mut tb,
        );
        act.insert(
            far.parent(12),
            &RefSet::single(PolygonRef::candidate(MAX_POLYGON_ID)),
            &mut tb,
        );
        act.insert(
            other.parent(12),
            &RefSet::Two(
                PolygonRef::candidate(MAX_POLYGON_ID - 1),
                PolygonRef::true_hit(MAX_POLYGON_ID),
            ),
            &mut tb,
        );
        let table = tb.build();
        let refs = |q: CellId| resolve_probe(act.raw().lookup(q), &table).collect::<Vec<_>>();
        assert_eq!(refs(leaf), vec![(MAX_POLYGON_ID, true)]);
        assert_eq!(refs(far), vec![(MAX_POLYGON_ID, false)]);
        assert_eq!(
            refs(other),
            vec![(MAX_POLYGON_ID, true), (MAX_POLYGON_ID - 1, false)]
        );
    }

    #[test]
    fn three_refs_go_to_lookup_table() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let cell = nyc_leaf(40.7, -74.0).parent(8);
        let refs = RefSet::Many(vec![
            PolygonRef::true_hit(1),
            PolygonRef::candidate(2),
            PolygonRef::candidate(3),
        ]);
        act.insert(cell, &refs, &mut tb);
        let table = tb.build();
        match act.raw().lookup(cell.range_min()) {
            Probe::Table(off) => {
                let (t, c) = table.decode(off);
                assert_eq!(t, &[1]);
                assert_eq!(c, &[2, 3]);
            }
            other => panic!("expected Table, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_cells_in_same_node() {
        // A level-18 cell and a sibling level-20 cell share the depth-5
        // node but disjoint slot ranges.
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7580, -73.9855);
        let a = leaf.parent(18);
        // A level-20 cell in the *other half* of the level-16 ancestor.
        let anc = leaf.parent(16);
        let mut other = anc.child(0);
        if a.parent(17) == other {
            other = anc.child(1);
        }
        let b = other.child(2).child(1).child(3).parent(20);
        act.insert(a, &RefSet::single(PolygonRef::true_hit(1)), &mut tb);
        act.insert(b, &RefSet::single(PolygonRef::true_hit(2)), &mut tb);
        assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::true_hit(1)));
        assert_eq!(
            act.raw().lookup(b.range_min()),
            Probe::One(PolygonRef::true_hit(2))
        );
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_insert_panics() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7, -74.0);
        act.insert(
            leaf.parent(8),
            &RefSet::single(PolygonRef::true_hit(1)),
            &mut tb,
        );
        act.insert(
            leaf.parent(16),
            &RefSet::single(PolygonRef::true_hit(2)),
            &mut tb,
        );
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn duplicate_insert_panics() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let cell = nyc_leaf(40.7, -74.0).parent(12);
        act.insert(cell, &RefSet::single(PolygonRef::true_hit(1)), &mut tb);
        act.insert(cell, &RefSet::single(PolygonRef::true_hit(2)), &mut tb);
    }

    #[test]
    fn level_and_face_boundaries() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        // Level 28 (max indexable).
        let leaf = nyc_leaf(40.7, -74.0);
        act.insert(
            leaf.parent(28),
            &RefSet::single(PolygonRef::true_hit(5)),
            &mut tb,
        );
        assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::true_hit(5)));
        // Different faces are independent roots.
        let other_face = CellId::from_latlng(LatLng::from_degrees(0.0, 0.0));
        assert_eq!(act.raw().lookup(other_face), Probe::Miss);
        act.insert(
            other_face.parent(4),
            &RefSet::single(PolygonRef::candidate(6)),
            &mut tb,
        );
        assert_eq!(
            act.raw().lookup(other_face),
            Probe::One(PolygonRef::candidate(6))
        );
        assert_eq!(act.raw().lookup(leaf), Probe::One(PolygonRef::true_hit(5)));
    }

    #[test]
    fn face_cell_insert() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let face_cell = CellId::from_face(2);
        act.insert(face_cell, &RefSet::single(PolygonRef::true_hit(0)), &mut tb);
        let p = CellId::from_latlng(LatLng::from_degrees(89.0, 10.0)); // near north pole, face 2
        assert_eq!(p.face(), 2);
        assert_eq!(act.raw().lookup(p), Probe::One(PolygonRef::true_hit(0)));
    }

    #[test]
    fn max_node_accesses_bounded() {
        // kmax = 56 bits / 8 bits per level = 7 node accesses. The stats
        // walk must never report depth > 6 (0-based).
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7580, -73.9855);
        for level in [4u8, 11, 19, 28] {
            let mut a = Act::new();
            a.insert(
                leaf.parent(level),
                &RefSet::single(PolygonRef::true_hit(1)),
                &mut tb,
            );
            let st = a.stats();
            assert!(st.nodes_per_depth.len() <= 7);
        }
        act.insert(
            leaf.parent(28),
            &RefSet::single(PolygonRef::true_hit(1)),
            &mut tb,
        );
        assert_eq!(act.stats().nodes_per_depth.len(), 7);
    }

    #[test]
    fn lookup_batch_matches_scalar() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7580, -73.9855);
        act.insert(
            leaf.parent(18),
            &RefSet::single(PolygonRef::true_hit(1)),
            &mut tb,
        );
        let anc = leaf.parent(16);
        let mut half = anc.child(0);
        if leaf.parent(17) == half {
            half = anc.child(1);
        }
        act.insert(
            half.child(2).child(1).child(3),
            &RefSet::Two(PolygonRef::true_hit(2), PolygonRef::candidate(3)),
            &mut tb,
        );
        let other_face = CellId::from_latlng(LatLng::from_degrees(0.0, 0.0));
        act.insert(
            other_face.parent(6),
            &RefSet::Many(vec![
                PolygonRef::true_hit(4),
                PolygonRef::candidate(5),
                PolygonRef::candidate(6),
            ]),
            &mut tb,
        );
        // Queries spanning hits on two faces, misses, and an empty face —
        // sized to exercise multiple internal blocks.
        let mut queries = Vec::new();
        for k in 0..600u64 {
            queries.push(CellId(leaf.parent(18).range_min().0 + 2 * k));
            queries.push(CellId(other_face.range_min().0 + 2 * k));
            queries.push(nyc_leaf(41.5, -74.0 + 0.0001 * k as f64));
            queries.push(CellId::from_latlng(LatLng::from_degrees(-41.0, 100.0)));
        }
        queries.push(half.child(2).child(1).child(3).range_min());
        queries.push(half.child(2).child(1).child(3).range_max());
        let mut out = vec![Probe::Miss; queries.len()];
        act.raw().lookup_batch(&queries, &mut out);
        for (q, got) in queries.iter().zip(&out) {
            assert_eq!(*got, act.raw().lookup(*q), "query {q:?}");
        }
        assert!(out.iter().any(|p| matches!(p, Probe::One(_))));
        assert!(out.iter().any(|p| matches!(p, Probe::Miss)));
        // Both table entries are probed: the two-reference cell's (offset
        // 0, interned first) and the three-reference cell's.
        assert!(out.contains(&Probe::Table(0)));
        assert!(out
            .iter()
            .any(|p| matches!(p, Probe::Table(off) if *off != 0)));
    }

    #[test]
    fn lookup_batch_depths_matches_probes_and_slot_levels() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let leaf = nyc_leaf(40.7580, -73.9855);
        act.insert(
            leaf.parent(18),
            &RefSet::single(PolygonRef::true_hit(1)),
            &mut tb,
        );
        let anc = leaf.parent(3);
        let mut shallow = anc.child(0);
        if leaf.parent(4) == shallow {
            shallow = anc.child(1);
        }
        act.insert(
            shallow,
            &RefSet::Two(PolygonRef::true_hit(2), PolygonRef::candidate(3)),
            &mut tb,
        );
        let other_face = CellId::from_latlng(LatLng::from_degrees(0.0, 0.0));
        act.insert(
            other_face.parent(28),
            &RefSet::single(PolygonRef::true_hit(4)),
            &mut tb,
        );
        // Hits at shallow and full depth, misses resolved mid-walk, a
        // run-off miss under the level-28 entry, and an empty face.
        let mut queries = vec![
            leaf,
            leaf.parent(18).range_min(),
            shallow.range_min(),
            other_face.parent(28).range_min(),
            CellId(other_face.parent(28).range_max().0 + 2),
            CellId::from_latlng(LatLng::from_degrees(-41.0, 100.0)),
        ];
        for k in 0..400u64 {
            queries.push(CellId(other_face.range_min().0 + 2 * k));
            queries.push(nyc_leaf(41.5, -74.0 + 0.0001 * k as f64));
        }
        let mut out = vec![Probe::Miss; queries.len()];
        let mut plain = vec![Probe::Miss; queries.len()];
        let mut depths = vec![0xffu8; queries.len()];
        act.raw()
            .lookup_batch_depths(&queries, &mut out, &mut depths);
        act.raw().lookup_batch(&queries, &mut plain);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(out[i], plain[i], "probe mismatch for {q:?}");
            let (probe, depth) = act.raw().lookup_depth(*q);
            let slot_level = depth * GRANULARITY;
            assert_eq!(out[i], probe, "scalar probe mismatch for {q:?}");
            assert_eq!(
                u16::from(depths[i]) * 4,
                u16::from(slot_level),
                "depth {} vs slot level {} for {q:?}",
                depths[i],
                slot_level
            );
        }
        // All the depth classes we constructed must actually appear.
        assert!(depths.contains(&0), "empty-face depth 0");
        assert!(depths.iter().any(|&d| (1..7).contains(&d)), "mid-walk");
        assert!(depths.contains(&7), "full-depth walk");
    }

    #[test]
    fn lookup_batch_empty_and_empty_trie() {
        let act = Act::new();
        act.raw().lookup_batch(&[], &mut []);
        let q = [nyc_leaf(40.7, -74.0)];
        let mut out = [Probe::One(PolygonRef::true_hit(9))];
        act.raw().lookup_batch(&q, &mut out);
        assert_eq!(out[0], Probe::Miss);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn lookup_batch_length_mismatch_panics() {
        let act = Act::new();
        let q = [nyc_leaf(40.7, -74.0)];
        act.raw().lookup_batch(&q, &mut []);
    }

    #[test]
    fn memory_accounting_matches_nodes() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        act.insert(
            nyc_leaf(40.7, -74.0).parent(8),
            &RefSet::single(PolygonRef::true_hit(1)),
            &mut tb,
        );
        assert_eq!(act.memory_bytes(), act.num_nodes() * FANOUT * 4);
        // sentinel + root + depth-1 node = 3 nodes.
        assert_eq!(act.num_nodes(), 3);
    }

    #[test]
    fn probe_cell_key_is_prefix_and_depth_exact() {
        let q = CellId(0xABCD_EF01_2345_6789);
        // Depth 0 keeps only the face bits.
        assert_eq!(probe_cell_key(q, 0), q.0 & !(u64::MAX >> 3));
        // Each extra depth keeps one more consumed byte of the shifted key.
        for d in 1..=7u8 {
            let kept = 3 + 8 * u32::from(d);
            let want = (q.0 & !(u64::MAX >> kept)) | u64::from(d);
            assert_eq!(probe_cell_key(q, d), want, "depth {d}");
            // Same prefix ⇒ same key; a flipped bit below the prefix
            // must not change it.
            let below = q.0 ^ (1u64 << (63 - kept));
            assert_eq!(probe_cell_key(CellId(below), d), probe_cell_key(q, d));
            // A flipped bit inside the prefix must.
            let inside = q.0 ^ (1u64 << (64 - kept));
            assert_ne!(probe_cell_key(CellId(inside), d), probe_cell_key(q, d));
        }
        // Distinct depths of one query never collide.
        let keys: std::collections::HashSet<u64> =
            (0..=7u8).map(|d| probe_cell_key(q, d)).collect();
        assert_eq!(keys.len(), 8);
        // Depths past the walk's 7-level maximum clamp.
        assert_eq!(probe_cell_key(q, 9), probe_cell_key(q, 7));
    }

    /// One removal of `id` from `cell`'s territory, as
    /// `ActIndex::remove_polygon` runs it: the territory walk with
    /// [`rewrite_without`], then the descent pruned. Returns whether a
    /// slot changed.
    fn strip(
        act: &mut Act,
        cell: CellId,
        id: u32,
        tb: &mut LookupTableBuilder,
        waste: &mut MutationWaste,
    ) -> bool {
        let (mut changed, mut stale) = (false, 0);
        act.rewrite_territory(cell, true, waste, |_, e| {
            let ne = rewrite_without(e, id, tb, &mut stale);
            changed |= ne != e;
            ne
        });
        waste.stale_table_words += stale;
        changed
    }

    #[test]
    fn removing_one_of_two_refs_leaves_an_inline_slot_and_counts_table_waste() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let cell = nyc_leaf(40.7, -74.0).parent(13); // denormalized: 64 slots
        let refs = RefSet::Two(PolygonRef::candidate(3), PolygonRef::true_hit(8));
        act.insert(cell, &refs, &mut tb);
        let table_words = tb.words().len();
        assert!(matches!(
            act.raw().lookup(cell.range_min()),
            Probe::Table(_)
        ));

        let mut waste = MutationWaste::default();
        let changed = strip(&mut act, cell, 3, &mut tb, &mut waste);
        assert!(changed);
        let want = Probe::One(PolygonRef::true_hit(8));
        assert_eq!(act.raw().lookup(cell.range_min()), want);
        assert_eq!(act.raw().lookup(cell.range_max()), want);
        // Every slot of the run now holds the inline reference itself.
        let inline = encode_ref(PolygonRef::true_hit(8));
        assert_eq!(act.slots().iter().filter(|&&e| e == inline).count(), 64);
        // The abandoned [1, 8, 1, 3] entry is counted as waste, and the
        // one-reference result interned nothing new.
        assert_eq!(waste.stale_table_words, 4);
        assert_eq!(tb.words().len(), table_words);
        assert_eq!(act.denormalized_slots(), 64);

        // Removing the last reference empties the run (no more waste:
        // the slot was inline).
        strip(&mut act, cell, 8, &mut tb, &mut waste);
        assert_eq!(act.raw().lookup(cell.range_min()), Probe::Miss);
        assert_eq!(waste.stale_table_words, 4);
    }

    /// A removal that empties a subtree of a shared base cuts the
    /// subtree loose where it lies: only the path above it, which the
    /// removal writes, is copied into the ext. Without the sibling the
    /// removal empties the path too, so nothing is written at all: the
    /// face root is cut and no dead copy reaches the ext.
    #[test]
    fn a_removal_over_a_shared_base_copies_the_path_not_the_subtree_it_empties() {
        for with_sibling in [true, false] {
            let mut act = Act::new();
            let mut tb = LookupTableBuilder::new();
            // One slot of a depth-1 node. Below it polygon 1 holds three
            // level-20 cells in three different level-9 quarters: a
            // depth-2 node, three depth-3 and three depth-4 nodes.
            let territory = nyc_leaf(40.7, -74.0).parent(8);
            let mut deep = Vec::new();
            for k in 0..3 {
                let mut c = territory.child(k);
                while c.level() < 20 {
                    c = c.child(0);
                }
                act.insert(c, &RefSet::single(PolygonRef::true_hit(1)), &mut tb);
                deep.push(c);
            }
            // Polygon 2 in a sibling slot keeps the depth-1 node alive.
            let sibling = (0..4)
                .map(|k| territory.parent(7).child(k))
                .find(|&c| c != territory)
                .unwrap();
            if with_sibling {
                act.insert(sibling, &RefSet::single(PolygonRef::true_hit(2)), &mut tb);
            }
            act.freeze();
            let shared = act.clone();
            assert!(act.shares_base_with(&shared));
            assert_eq!(act.ext_bytes(), 0);

            let mut waste = MutationWaste::default();
            assert!(strip(&mut act, territory, 1, &mut tb, &mut waste));
            for &c in &deep {
                assert_eq!(act.raw().lookup(c.range_min()), Probe::Miss);
                assert_eq!(
                    shared.raw().lookup(c.range_min()),
                    Probe::One(PolygonRef::true_hit(1))
                );
            }
            if with_sibling {
                assert_eq!(
                    act.ext_bytes(),
                    2 * NODE_BYTES,
                    "only the root and the depth-1 node are copied"
                );
                // The two copied-out path nodes and the seven cut-loose ones.
                assert_eq!(waste.orphaned_nodes, 2 + 7);
                let hit = Probe::One(PolygonRef::true_hit(2));
                assert_eq!(act.raw().lookup(sibling.range_min()), hit);
            } else {
                assert_eq!(act.ext_bytes(), 0, "no dead copy of an emptied node");
                // The seven cut-loose nodes, the depth-1 node and the root.
                assert_eq!(waste.orphaned_nodes, 7 + 2);
                assert_eq!(act.roots()[territory.face() as usize], 0);
            }
        }
    }

    /// A face cell's territory is its whole face: the walk's level-0 case,
    /// for insert's closure (take every run out) and removal's.
    #[test]
    fn a_face_cell_territory_is_the_whole_face_for_both_closures() {
        let mut act = Act::new();
        let mut tb = LookupTableBuilder::new();
        let face = CellId::from_face(4);
        let down = |mut c: CellId, k: u8, level: u8| {
            while c.level() < level {
                c = c.child(k);
            }
            c
        };
        let cells = [
            (
                down(face.child(0), 1, 10),
                RefSet::Two(PolygonRef::true_hit(1), PolygonRef::candidate(2)),
            ),
            (
                down(face.child(1), 2, 17),
                RefSet::single(PolygonRef::true_hit(2)),
            ),
            (face.child(3), RefSet::single(PolygonRef::candidate(1))),
        ];
        for (c, refs) in &cells {
            act.insert(*c, refs, &mut tb);
        }
        let other = CellId::from_face(5).child(0);
        act.insert(other, &RefSet::single(PolygonRef::true_hit(1)), &mut tb);
        let before = act.clone();
        let probe = |act: &Act, c: CellId| act.raw().lookup(c.range_min());
        let mut waste = MutationWaste::default();

        // Insert's closure: every run on the face comes out, in range
        // order, and the face probes as a miss until it is refilled.
        let mut taken = Vec::new();
        let mut emptied = act.clone();
        emptied.rewrite_territory(face, false, &mut waste, |cell, e| {
            taken.push((cell, take_refs(e, &mut tb)));
            0
        });
        assert_eq!(taken, cells.to_vec());
        for (c, _) in &cells {
            assert_eq!(probe(&emptied, *c), Probe::Miss);
        }
        assert_eq!(probe(&emptied, other), probe(&before, other));
        assert_ne!(
            emptied.roots()[4],
            0,
            "insert refills, so it does not prune"
        );
        assert_eq!(emptied.inserted_cells(), 1);
        let words = tb.words().len();
        for (c, refs) in &taken {
            emptied.insert(*c, refs, &mut tb);
        }
        assert_eq!(tb.words().len(), words, "the taken set is re-interned");
        for (c, _) in &cells {
            assert_eq!(probe(&emptied, *c), probe(&before, *c));
        }

        // Removal's closure: polygon 1 leaves the face, polygon 2 stays;
        // once 2 goes too the face root is pruned.
        assert!(strip(&mut act, face, 1, &mut tb, &mut waste));
        assert_eq!(
            probe(&act, cells[0].0),
            Probe::One(PolygonRef::candidate(2))
        );
        assert_eq!(probe(&act, cells[1].0), probe(&before, cells[1].0));
        assert_eq!(probe(&act, cells[2].0), Probe::Miss);
        assert_eq!(probe(&act, other), probe(&before, other));
        assert!(strip(&mut act, face, 2, &mut tb, &mut waste));
        assert_eq!(act.roots()[4], 0);
        assert_eq!(probe(&act, other), probe(&before, other));
        assert!(!strip(&mut act, face, 2, &mut tb, &mut waste));
    }

    #[test]
    fn resolve_probe_variants() {
        let table = {
            let mut b = LookupTableBuilder::new();
            b.intern(&RefSet::Many(vec![
                PolygonRef::true_hit(1),
                PolygonRef::true_hit(2),
                PolygonRef::candidate(3),
            ]));
            b.build()
        };
        let collect = |p: Probe| resolve_probe(p, &table).collect::<Vec<_>>();
        assert!(collect(Probe::Miss).is_empty());
        assert_eq!(
            collect(Probe::One(PolygonRef::true_hit(9))),
            vec![(9, true)]
        );
        assert_eq!(
            collect(Probe::One(PolygonRef::candidate(4))),
            vec![(4, false)]
        );
        assert_eq!(
            collect(Probe::Table(0)),
            vec![(1, true), (2, true), (3, false)]
        );
    }
}
