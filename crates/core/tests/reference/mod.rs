//! The round-based push-down the super-covering sweep replaced, kept as
//! an independent oracle for it: the sweep must reproduce these cells,
//! reference sets and split counts exactly.
//!
//! Each round sorts every item by `(range_min, level)`, marks every cell
//! that strictly contains another, and replaces each marked item by its
//! four children — until no nesting is left. Duplicates are merged last.
//! It sorts and copies every item once per push-down level, so it is for
//! tests only.

use act_core::{PolygonRef, RefSet, SuperCovering};
use s2cell::CellId;

/// The super covering of `items` (any order; duplicated and nested
/// freely), by repeated one-level push-down.
pub fn build_from_pairs(mut items: Vec<(CellId, PolygonRef)>) -> SuperCovering {
    let mut pushdown_splits = 0u64;
    loop {
        items.sort_unstable_by_key(|(c, _)| (c.range_min().0, c.level()));
        // After the sort an ancestor immediately precedes its first
        // descendant, so a stack scan finds every nesting in O(n).
        let mut marked = vec![false; items.len()];
        let mut any = false;
        let mut stack: Vec<(usize, u64)> = Vec::new(); // (index, range_max)
        for (idx, (cell, _)) in items.iter().enumerate() {
            let min = cell.range_min().0;
            while stack.last().is_some_and(|&(_, top_max)| top_max < min) {
                stack.pop();
            }
            for &(anc_idx, _) in &stack {
                // Equal cells are duplicates (merged below), not nestings.
                if items[anc_idx].0 != *cell && !marked[anc_idx] {
                    marked[anc_idx] = true;
                    any = true;
                }
            }
            stack.push((idx, cell.range_max().0));
        }
        if !any {
            break;
        }
        let mut next: Vec<(CellId, PolygonRef)> = Vec::with_capacity(items.len() + 3);
        for (idx, &(cell, r)) in items.iter().enumerate() {
            if marked[idx] {
                pushdown_splits += 1;
                next.extend(cell.children().map(|child| (child, r)));
            } else {
                next.push((cell, r));
            }
        }
        items = next;
    }

    // Items are sorted, so equal cells are adjacent.
    let mut cells: Vec<(CellId, RefSet)> = Vec::with_capacity(items.len());
    for (cell, r) in items {
        match cells.last_mut() {
            Some((last, refs)) if *last == cell => refs.merge(r),
            _ => cells.push((cell, RefSet::single(r))),
        }
    }
    SuperCovering {
        cells,
        pushdown_splits,
    }
}
