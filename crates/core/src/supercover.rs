//! The super covering: merging per-polygon coverings into one global,
//! conflict-free cell set.
//!
//! Paper §II: *"Once the coverings of every polygon have been computed, we
//! merge these individual coverings into a super covering that represents
//! all polygons. This step involves removing duplicate cells and resolving
//! conflicts between overlapping cells. The latter may require additional
//! refinement steps and potentially increases the total number of cells."*
//!
//! Two kinds of conflicts exist (cells from a quadtree are *laminar*: any
//! two are either disjoint or nested):
//!
//! 1. **Duplicates** — the same cell appears in several coverings (e.g. a
//!    boundary cell on a shared border). Resolved by merging reference
//!    sets.
//! 2. **Nesting** — a cell of one polygon strictly contains a cell of
//!    another (possible when polygons overlap). Resolved by *pushing the
//!    ancestor down*: the ancestor is replaced by its four children, each
//!    inheriting its references, repeatedly, until no ancestor remains.
//!    This preserves semantics exactly (a cell's references apply to all
//!    its descendants: an interior cell's descendants are still interior;
//!    a boundary cell's descendants still satisfy the ε bound because they
//!    are smaller) and is the paper's "additional refinement".
//!
//! The result is a set of **disjoint, unique** cells, each with a merged
//! [`RefSet`] — exactly what [`crate::trie::Act::insert`] requires so that
//! a lookup returns at most one entry.
//!
//! ## One sweep
//!
//! Both conflicts are resolved in one pass over the input cells in
//! `(range_min, level)` order, where an ancestor comes right before its
//! first descendant. The sweep keeps a stack of open input cells; each
//! carries its own references merged with those of every enclosing open
//! cell. A duplicate merges into the top cell. A nested cell first fills
//! the gap from the sweep's cursor up to itself with the largest aligned
//! cells inside the top cell, then opens on the stack. A cell outside the
//! top cell closes it: the rest of the closed cell is filled the same way.
//!
//! The output is the **coarsest** conflict-free partition — exactly the
//! cells that repeated one-level push-downs reach — in range order, so it
//! streams straight into the trie and is never materialized on the build
//! path. Each input cell's split count is the number of internal nodes of
//! its push-down tree: `(emitted inside it − 1) / 3`.
//!
//! ## Coverings just in time
//!
//! The merge does not need every covering up front. Each polygon has a
//! *bound*, a cell where none of its covering's cells starts earlier: an
//! index build uses [`crate::covering::covering_bound`], which contains the
//! whole covering. Polygons are admitted in order of their bounds' starts,
//! each just before the merge would yield a cell at or past that start,
//! which is the first moment one of its cells could be next. So an index
//! build covers polygons in that order on its pool while the serial sweep
//! runs, and holds only the coverings open at the sweep's position: on
//! census at 15 m, at most ~385 k of its 10.8 M covering cells (3.6%) at
//! once. Overlapping layers keep more open: 61% on the 16-layer surge
//! stack at 15 m.
//!
//! Cost: a k-way merge of n covering cells from k sorted coverings,
//! O(n log k), plus O(1) per output cell. Memory beyond the open coverings
//! (and the few the pool has computed ahead of the sweep) is a stack as
//! deep as the deepest nesting. The build holds each covering packed at 8
//! bytes per cell and frees it once the merge has drained it.

use crate::covering::{unpack_cell, Covering, PackedCovering};
use crate::refs::{PolygonRef, RefSet};
use s2cell::CellId;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The merged covering of a whole polygon set.
#[derive(Debug, Default)]
pub struct SuperCovering {
    /// Disjoint cells with merged reference sets, sorted by id range.
    pub cells: Vec<(CellId, RefSet)>,
    /// Number of push-down splits performed during conflict resolution.
    pub pushdown_splits: u64,
}

impl SuperCovering {
    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Builds the super covering from per-polygon coverings.
///
/// `coverings[i]` must be the covering of polygon id `i`, with its cells
/// sorted by `range_min` as [`crate::covering::cover_uv_polygon`] emits
/// them.
///
/// # Panics
/// Panics if a covering's cells are out of order.
pub fn build_super_covering(coverings: &[Covering]) -> SuperCovering {
    let order = first_cell_order(coverings);
    let sources = (order.iter()).map(|&(_, id)| coverings[id as usize].cells.iter().copied());
    collect(merge(&order, sources))
}

/// [`build_super_covering`] over packed coverings that arrive one by one,
/// streamed: each output cell goes to `emit` in range order and is never
/// stored. `order` lists each polygon's bound and id as [`admission_order`]
/// sorts them, and `coverings` yields their coverings in that order. The
/// merge pulls a covering only when the sweep reaches its bound and frees
/// it once drained, so the coverings alive at once are those open at the
/// sweep's position, not the whole set. Returns the push-down split
/// count.
///
/// # Panics
/// As [`build_super_covering`], and if a covering starts before its bound
/// or `coverings` ends early.
pub(crate) fn stream_super_covering(
    order: &[(CellId, u32)],
    coverings: impl Iterator<Item = PackedCovering>,
    emit: impl FnMut(CellId, &RefSet),
) -> u64 {
    let sources = coverings.map(|c| Vec::from(c).into_iter().map(unpack_cell));
    sweep(merge(order, sources), emit)
}

/// The order the merge admits polygons in: `bounds[i]` is polygon `i`'s
/// bound, a cell where no cell of its covering starts earlier; the result
/// pairs each bound with its id, sorted by `(bound.range_min, id)`.
pub(crate) fn admission_order(bounds: impl IntoIterator<Item = CellId>) -> Vec<(CellId, u32)> {
    let mut order: Vec<_> = bounds.into_iter().zip(0u32..).collect();
    order.sort_unstable_by_key(|&(bound, id)| (bound.range_min(), id));
    order
}

/// [`admission_order`] for coverings computed up front: each bound is the
/// covering's first cell (face 0 for an empty one, which has no cell to
/// place).
pub(crate) fn first_cell_order<'a>(
    coverings: impl IntoIterator<Item = &'a Covering>,
) -> Vec<(CellId, u32)> {
    admission_order(coverings.into_iter().map(|c| {
        c.cells
            .first()
            .map_or(CellId::from_face(0), |&(cell, _)| cell)
    }))
}

/// Builds from raw `(cell, reference)` pairs in any order — duplicated and
/// nested freely (used by live inserts, the adaptive index and tests).
pub fn build_from_pairs(mut items: Vec<(CellId, PolygonRef)>) -> SuperCovering {
    items.sort_unstable_by_key(|&(c, _)| sweep_key(c));
    collect(items)
}

/// Runs the sweep and keeps what it emits.
fn collect(items: impl IntoIterator<Item = (CellId, PolygonRef)>) -> SuperCovering {
    let mut cells = Vec::new();
    let pushdown_splits = sweep(items, |cell, refs| cells.push((cell, refs.clone())));
    SuperCovering {
        cells,
        pushdown_splits,
    }
}

/// The order the sweep consumes cells in: by range start, ancestors first.
fn sweep_key(cell: CellId) -> (u64, u8) {
    (cell.range_min().0, cell.level())
}

/// An open stream's next cell in [`merge`]: `(sweep key, polygon id,
/// slot, cell, interior)`.
type Head = ((u64, u8), u32, usize, CellId, bool);

/// The k-way merge of per-polygon `(cell, interior)` streams, each sorted
/// by [`sweep_key`], into one `(cell, ref)` stream in that order, ties
/// broken by polygon id.
///
/// `order` is an [`admission_order`] and `sources` yields the polygons'
/// streams in it. Before the merge yields a cell starting at r, it admits
/// every polygon whose bound starts at or before r: it pulls that
/// polygon's stream and pushes its first cell. A polygon not yet admitted
/// cannot hold the next cell, since its cells all start after r. So the
/// output is the same as merging every stream from the start, while a
/// stream is only pulled when needed and dropped once drained.
fn merge<'a, I: Iterator<Item = (CellId, bool)> + 'a>(
    order: &'a [(CellId, u32)],
    mut sources: impl Iterator<Item = I> + 'a,
) -> impl Iterator<Item = (CellId, PolygonRef)> + 'a {
    let mut pending = order.iter().peekable();
    // Admitted streams not yet drained, and the free slots among them.
    let mut open: Vec<Option<I>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Each open stream's next cell, the smallest key on top.
    let mut heads: BinaryHeap<Reverse<Head>> = BinaryHeap::new();
    std::iter::from_fn(move || {
        loop {
            let next_start = heads
                .peek()
                .map_or(u64::MAX, |Reverse(((start, _), ..))| *start);
            let Some(&(bound, id)) =
                pending.next_if(|(bound, _)| bound.range_min().0 <= next_start)
            else {
                break;
            };
            let mut source = sources
                .next()
                .expect("a covering for every polygon in the order");
            let Some((cell, interior)) = source.next() else {
                continue;
            };
            assert!(
                cell.range_min() >= bound.range_min(),
                "covering of polygon {id} starts at {cell:?}, before its bound {bound:?}"
            );
            let slot = free.pop().unwrap_or(open.len());
            if slot == open.len() {
                open.push(None);
            }
            open[slot] = Some(source);
            heads.push(Reverse((sweep_key(cell), id, slot, cell, interior)));
        }
        let mut head = heads.peek_mut()?;
        let Reverse((key, id, slot, cell, interior)) = *head;
        match open[slot].as_mut().and_then(Iterator::next) {
            Some((next, next_interior)) => {
                assert!(
                    sweep_key(next) >= key,
                    "covering of polygon {id} is not sorted by range_min: \
                     {next:?} follows {cell:?}"
                );
                *head = Reverse((sweep_key(next), id, slot, next, next_interior));
            }
            None => {
                PeekMut::pop(head);
                open[slot] = None;
                free.push(slot);
            }
        }
        Some((cell, PolygonRef { id, interior }))
    })
}

/// One open input cell on the sweep's stack.
struct Frame {
    cell: CellId,
    /// The cell's own references merged with every enclosing frame's.
    refs: RefSet,
    /// Input pairs at exactly this cell.
    items: u64,
    /// Output cells emitted inside this cell so far.
    emitted: u64,
}

/// Streams the coarsest conflict-free partition of `items` — pairs sorted
/// by [`sweep_key`] — into `emit` in range order, and returns the number
/// of push-down splits it stands for.
fn sweep(
    items: impl IntoIterator<Item = (CellId, PolygonRef)>,
    mut emit: impl FnMut(CellId, &RefSet),
) -> u64 {
    let mut stack: Vec<Frame> = Vec::new();
    // The first leaf (see `leaf_start`) inside the top frame that no
    // emitted cell covers yet.
    let mut cursor = 0u64;
    let mut splits = 0u64;
    // Emits the largest aligned cells covering leaves `cursor..end` of
    // `top`, each with its references.
    let mut fill = |top: &mut Frame, cursor: &mut u64, end: u64| {
        while *cursor < end {
            // A cell of 4^k leaves starts at a multiple of 4^k.
            let align = cursor.trailing_zeros() / 2;
            let fit = (end - *cursor).ilog2() / 2;
            let leaves = 1u64 << (2 * align.min(fit));
            emit(CellId((*cursor << 1) + leaves), &top.refs);
            top.emitted += 1;
            *cursor += leaves;
        }
    };
    // `None` marks the end of the input, which closes every frame.
    for item in items.into_iter().map(Some).chain([None]) {
        // Close each frame the cell lies outside of: fill its rest, pop it.
        while let Some(top) = stack.last_mut() {
            if item.is_some_and(|(cell, _)| top.cell.contains(cell)) {
                break;
            }
            fill(top, &mut cursor, leaf_start(top.cell.next()));
            let done = stack.pop().expect("the frame just filled");
            debug_assert_eq!((done.emitted - 1) % 3, 0, "a split tree has 3k + 1 leaves");
            splits += done.items * (done.emitted - 1) / 3;
            if let Some(parent) = stack.last_mut() {
                parent.emitted += done.emitted;
            }
        }
        let Some((cell, r)) = item else { break };
        match stack.last_mut() {
            Some(top) if top.cell == cell => {
                top.refs.merge(r);
                top.items += 1;
            }
            top => {
                let mut refs = RefSet::single(r);
                if let Some(top) = top {
                    fill(top, &mut cursor, leaf_start(cell));
                    refs = top.refs.clone();
                    refs.merge(r);
                }
                stack.push(Frame {
                    cell,
                    refs,
                    items: 1,
                    emitted: 0,
                });
                cursor = leaf_start(cell);
            }
        }
    }
    splits
}

/// The index of a cell's first leaf along the curve (leaf ids are odd, so
/// this is `range_min / 2`); a cell of `n` leaves at leaf index `a` has id
/// `2a + n`.
fn leaf_start(cell: CellId) -> u64 {
    cell.range_min().0 >> 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covering::pack_cell;
    use s2cell::LatLng;

    fn leaf() -> CellId {
        CellId::from_latlng(LatLng::from_degrees(40.7580, -73.9855))
    }

    fn th(id: u32) -> PolygonRef {
        PolygonRef::true_hit(id)
    }

    fn ca(id: u32) -> PolygonRef {
        PolygonRef::candidate(id)
    }

    #[test]
    fn disjoint_cells_pass_through() {
        let a = leaf().parent(12);
        let b = CellId(a.range_max().0 + 2); // next sibling at level 12
        let sc = build_from_pairs(vec![(a, th(0)), (b, ca(1))]);
        assert_eq!(sc.len(), 2);
        assert_eq!(sc.pushdown_splits, 0);
    }

    #[test]
    fn duplicates_merge_refs() {
        let a = leaf().parent(14);
        let sc = build_from_pairs(vec![(a, ca(0)), (a, ca(1)), (a, th(2))]);
        assert_eq!(sc.len(), 1);
        let refs = &sc.cells[0].1;
        assert_eq!(refs.len(), 3);
        assert_eq!(refs.true_hits().collect::<Vec<_>>(), vec![2]);
        assert_eq!(refs.candidates().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn nesting_pushes_ancestor_down() {
        let descendant = leaf().parent(14);
        let ancestor = leaf().parent(12);
        let sc = build_from_pairs(vec![(ancestor, th(0)), (descendant, ca(1))]);
        assert!(sc.pushdown_splits > 0);
        // No cell may contain another.
        for i in 0..sc.cells.len() {
            for j in 0..sc.cells.len() {
                if i != j {
                    assert!(
                        !sc.cells[i].0.contains(sc.cells[j].0),
                        "{:?} contains {:?}",
                        sc.cells[i].0,
                        sc.cells[j].0
                    );
                }
            }
        }
        // The descendant cell must now carry both references.
        let d = sc
            .cells
            .iter()
            .find(|(c, _)| *c == descendant)
            .expect("descendant survives");
        assert_eq!(d.1.len(), 2);
        assert_eq!(d.1.true_hits().collect::<Vec<_>>(), vec![0]);
        assert_eq!(d.1.candidates().collect::<Vec<_>>(), vec![1]);
        // Area conservation: the ancestor's range is fully covered.
        let total: u128 = sc
            .cells
            .iter()
            .map(|(c, _)| c.range_max().0 as u128 - c.range_min().0 as u128 + 2)
            .sum();
        let anc_range = ancestor.range_max().0 as u128 - ancestor.range_min().0 as u128 + 2;
        assert_eq!(total, anc_range);
    }

    #[test]
    fn deep_nesting_resolves() {
        let descendant = leaf().parent(16);
        let ancestor = leaf().parent(10); // 6 levels apart
        let sc = build_from_pairs(vec![(ancestor, th(0)), (descendant, ca(1))]);
        // Push-down must recurse along the path: splits at levels 10..15.
        assert!(sc.pushdown_splits >= 6);
        for (cell, _) in &sc.cells {
            assert!(cell.level() >= 11 || !cell.contains(descendant));
        }
        // Every cell still within the ancestor's range carries ref 0.
        for (cell, refs) in &sc.cells {
            if ancestor.contains(*cell) {
                assert!(
                    refs.iter().any(|r| r.id == 0),
                    "cell {cell:?} lost the ancestor reference"
                );
            }
        }
    }

    #[test]
    fn three_way_overlap() {
        let l = leaf();
        let sc = build_from_pairs(vec![
            (l.parent(10), ca(0)),
            (l.parent(12), th(1)),
            (l.parent(14), ca(2)),
        ]);
        // The deepest cell ends up with all three references.
        let d = sc.cells.iter().find(|(c, _)| *c == l.parent(14)).unwrap();
        assert_eq!(d.1.len(), 3);
        // And the result is conflict-free.
        let mut sorted: Vec<CellId> = sc.cells.iter().map(|(c, _)| *c).collect();
        sorted.sort_by_key(|c| c.range_min().0);
        for w in sorted.windows(2) {
            assert!(w[0].range_max().0 < w[1].range_min().0);
        }
    }

    #[test]
    fn empty_input() {
        let sc = build_from_pairs(vec![]);
        assert!(sc.is_empty());
    }

    /// Hand-built coverings spanning three faces, with duplicates and
    /// nesting on each face.
    fn three_face_coverings() -> Vec<Covering> {
        let nyc = leaf(); // face 4
        let equator = CellId::from_latlng(LatLng::from_degrees(0.0, 0.0));
        let pole = CellId::from_latlng(LatLng::from_degrees(89.0, 10.0));
        assert_ne!(nyc.face(), equator.face());
        assert_ne!(equator.face(), pole.face());
        vec![
            Covering {
                cells: vec![
                    (nyc.parent(12), true),
                    (equator.parent(10), false),
                    (pole.parent(8), true),
                ],
            },
            Covering {
                cells: vec![
                    (nyc.parent(14), false),    // nests under poly 0's cell
                    (equator.parent(10), true), // duplicate of poly 0's cell
                    (pole.parent(11), false),   // nests under poly 0's cell
                ],
            },
        ]
    }

    #[test]
    fn merged_coverings_match_pairs_across_faces() {
        let mut coverings = three_face_coverings();
        for cov in &mut coverings {
            cov.cells.sort_by_key(|&(c, _)| c.range_min());
        }
        let mut pairs = Vec::new();
        for (id, cov) in coverings.iter().enumerate() {
            for &(cell, interior) in &cov.cells {
                pairs.push((
                    cell,
                    PolygonRef {
                        id: id as u32,
                        interior,
                    },
                ));
            }
        }
        let merged = build_super_covering(&coverings);
        let from_pairs = build_from_pairs(pairs);
        assert!(merged.pushdown_splits > 0);
        assert_eq!(merged.pushdown_splits, from_pairs.pushdown_splits);
        assert_eq!(merged.cells, from_pairs.cells);
        let mut streamed = Vec::new();
        let order = first_cell_order(&coverings);
        let packed = order.iter().map(|&(_, id)| coverings[id as usize].pack());
        let splits = stream_super_covering(&order, packed, |c, r| streamed.push((c, r.clone())));
        assert_eq!(splits, merged.pushdown_splits);
        assert_eq!(streamed, merged.cells);
    }

    #[test]
    #[should_panic(expected = "covering of polygon 0 is not sorted by range_min")]
    fn unsorted_covering_is_refused() {
        // Polygon 0's hand-built cells run face 4, face 0, face 2.
        build_super_covering(&three_face_coverings());
    }

    #[test]
    #[should_panic(expected = "covering of polygon 1 starts at")]
    fn covering_before_its_bound_is_refused() {
        let l = leaf();
        // Polygon 1 claims to start at the level-12 cell's second child,
        // but its covering starts at the first.
        let [first, second, ..] = l.parent(12).children();
        let order = [(l.parent(10), 0), (second, 1)];
        let coverings = [vec![l.parent(10)], vec![first]]
            .map(|cells| cells.into_iter().map(|c| pack_cell(c, false)).collect());
        stream_super_covering(&order, coverings.into_iter(), |_, _| {});
    }

    #[test]
    fn pushdown_splits_count_every_item_split_tree() {
        let l = leaf();
        // Two items at the level-10 cell, one at level 12 inside it: each
        // level-10 item splits at levels 10 and 11 (2 splits), 3 + 3 + 1
        // = 7 output cells.
        let sc = build_from_pairs(vec![
            (l.parent(10), ca(0)),
            (l.parent(12), th(1)),
            (l.parent(10), th(2)),
        ]);
        assert_eq!(sc.len(), 7);
        assert_eq!(sc.pushdown_splits, 4);
        // Output is the coarsest partition, in range order, covering the
        // level-10 cell exactly.
        for w in sc.cells.windows(2) {
            assert_eq!(w[0].0.range_max().0 + 2, w[1].0.range_min().0);
        }
        assert_eq!(sc.cells[0].0.range_min(), l.parent(10).range_min());
        assert_eq!(sc.cells[6].0.range_max(), l.parent(10).range_max());
        assert_eq!(sc.cells.iter().filter(|(c, _)| c.level() == 11).count(), 3);
        assert_eq!(sc.cells.iter().filter(|(c, _)| c.level() == 12).count(), 4);
    }

    #[test]
    fn true_hit_propagates_through_pushdown() {
        // An interior (true hit) ancestor pushed down onto a boundary cell:
        // the merged cell reports the polygon as a true hit (descendants of
        // interior cells are interior).
        let descendant = leaf().parent(13);
        let ancestor = leaf().parent(12);
        let sc = build_from_pairs(vec![(ancestor, th(7)), (descendant, ca(7))]);
        let d = sc.cells.iter().find(|(c, _)| *c == descendant).unwrap();
        assert_eq!(d.1.len(), 1);
        assert!(d.1.iter().next().unwrap().interior, "true hit must win");
    }
}
