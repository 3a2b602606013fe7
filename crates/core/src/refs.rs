//! Polygon references: the payloads stored in the Adaptive Cell Trie.
//!
//! A cell of the super covering references one or more polygons. Each
//! reference carries an *interior flag*: `true` means the cell lies entirely
//! inside that polygon (a **true hit** — any point in the cell is guaranteed
//! to be in the polygon), `false` means the cell intersects the polygon's
//! boundary (a **candidate hit** — a point in the cell is within the
//! precision bound ε of the polygon, but possibly outside it).
//!
//! The paper packs a reference into a 31-bit payload whose
//! least-significant bit is the interior flag, leaving 30 bits for the
//! polygon id (up to 2³⁰ ≈ 1.07 B polygons). The trie's 4-byte slots
//! carry the same 30-bit id with the flag moved into the slot tag (see
//! [`crate::trie`]).

/// Maximum representable polygon id (30 bits).
pub const MAX_POLYGON_ID: u32 = (1 << 30) - 1;

/// A reference from a cell to a polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolygonRef {
    /// The polygon id (dataset index), ≤ [`MAX_POLYGON_ID`].
    pub id: u32,
    /// True hit (interior cell) vs candidate hit (boundary cell).
    pub interior: bool,
}

impl PolygonRef {
    /// Creates a true-hit reference.
    #[inline]
    pub fn true_hit(id: u32) -> PolygonRef {
        PolygonRef { id, interior: true }
    }

    /// Creates a candidate-hit reference.
    #[inline]
    pub fn candidate(id: u32) -> PolygonRef {
        PolygonRef {
            id,
            interior: false,
        }
    }
}

/// The set of references attached to one cell of the super covering.
///
/// Most cells reference one or two polygons; the variants mirror that so
/// the common cases stay allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefSet {
    /// One reference — inlined in a trie slot.
    One(PolygonRef),
    /// Two references — stored in the shared lookup table.
    Two(PolygonRef, PolygonRef),
    /// Three or more references — stored in the shared lookup table.
    Many(Vec<PolygonRef>),
}

impl RefSet {
    /// A set with a single reference.
    #[inline]
    pub fn single(r: PolygonRef) -> RefSet {
        RefSet::One(r)
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        match self {
            RefSet::One(_) => 1,
            RefSet::Two(..) => 2,
            RefSet::Many(v) => v.len(),
        }
    }

    /// Ref sets are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the references.
    pub fn iter(&self) -> RefSetIter<'_> {
        match self {
            RefSet::One(a) => RefSetIter::Inline([Some(*a), None], 0),
            RefSet::Two(a, b) => RefSetIter::Inline([Some(*a), Some(*b)], 0),
            RefSet::Many(v) => RefSetIter::Slice(v.iter()),
        }
    }

    /// Merges another reference into this set, keeping references sorted by
    /// id and resolving duplicates: if the same polygon appears as both true
    /// hit and candidate, **true hit wins** (the stronger claim — this
    /// happens when a pushed-down interior ancestor meets a boundary cell;
    /// the descendant is genuinely inside the polygon). Allocates only when
    /// the set grows past two references.
    pub fn merge(&mut self, r: PolygonRef) {
        match self {
            RefSet::One(a) if a.id == r.id => a.interior |= r.interior,
            RefSet::One(a) => *self = RefSet::Two((*a).min(r), (*a).max(r)),
            RefSet::Two(a, _) if a.id == r.id => a.interior |= r.interior,
            RefSet::Two(_, b) if b.id == r.id => b.interior |= r.interior,
            RefSet::Two(a, b) => {
                let mut v = vec![*a, *b, r];
                v.sort_unstable_by_key(|x| x.id);
                *self = RefSet::Many(v);
            }
            RefSet::Many(v) => match v.binary_search_by_key(&r.id, |x| x.id) {
                Ok(i) => v[i].interior |= r.interior,
                Err(i) => v.insert(i, r),
            },
        }
    }

    /// Builds from a sorted, deduplicated, non-empty vec.
    pub(crate) fn from_sorted(v: Vec<PolygonRef>) -> RefSet {
        match v.len() {
            1 => RefSet::One(v[0]),
            2 => RefSet::Two(v[0], v[1]),
            _ => RefSet::Many(v),
        }
    }

    /// The true-hit references.
    pub fn true_hits(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().filter(|r| r.interior).map(|r| r.id)
    }

    /// The candidate references.
    pub fn candidates(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().filter(|r| !r.interior).map(|r| r.id)
    }
}

/// Iterator over a [`RefSet`].
pub enum RefSetIter<'a> {
    /// Inline storage (One / Two variants).
    Inline([Option<PolygonRef>; 2], usize),
    /// Heap storage (Many variant).
    Slice(std::slice::Iter<'a, PolygonRef>),
}

impl Iterator for RefSetIter<'_> {
    type Item = PolygonRef;

    fn next(&mut self) -> Option<PolygonRef> {
        match self {
            RefSetIter::Inline(arr, i) => {
                if *i < 2 {
                    let r = arr[*i];
                    *i += 1;
                    r
                } else {
                    None
                }
            }
            RefSetIter::Slice(it) => it.next().copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_grows_and_sorts() {
        let mut s = RefSet::single(PolygonRef::candidate(5));
        assert_eq!(s.len(), 1);
        s.merge(PolygonRef::true_hit(2));
        assert_eq!(s.len(), 2);
        s.merge(PolygonRef::candidate(9));
        assert_eq!(s.len(), 3);
        let ids: Vec<u32> = s.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert!(matches!(s, RefSet::Many(_)));
    }

    #[test]
    fn merge_duplicate_true_hit_wins() {
        let mut s = RefSet::single(PolygonRef::candidate(7));
        s.merge(PolygonRef::true_hit(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap(), PolygonRef::true_hit(7));
        // And the reverse order: merging a candidate into a true hit is a no-op.
        let mut s = RefSet::single(PolygonRef::true_hit(7));
        s.merge(PolygonRef::candidate(7));
        assert_eq!(s.iter().next().unwrap(), PolygonRef::true_hit(7));
    }

    #[test]
    fn merge_covers_every_variant() {
        let (c, t) = (PolygonRef::candidate, PolygonRef::true_hit);
        let merged = |mut s: RefSet, r: PolygonRef| {
            s.merge(r);
            s
        };
        // One: the same id (true hit wins either way), a smaller id, a
        // larger id.
        assert_eq!(merged(RefSet::One(c(4)), t(4)), RefSet::One(t(4)));
        assert_eq!(merged(RefSet::One(t(4)), c(4)), RefSet::One(t(4)));
        assert_eq!(merged(RefSet::One(c(4)), c(4)), RefSet::One(c(4)));
        assert_eq!(merged(RefSet::One(c(4)), t(2)), RefSet::Two(t(2), c(4)));
        assert_eq!(merged(RefSet::One(c(4)), c(9)), RefSet::Two(c(4), c(9)));
        // Two: either id again (true hit wins), then a new id in each of
        // the three positions.
        let two = RefSet::Two(c(4), c(8));
        assert_eq!(merged(two.clone(), t(4)), RefSet::Two(t(4), c(8)));
        assert_eq!(merged(two.clone(), t(8)), RefSet::Two(c(4), t(8)));
        assert_eq!(
            merged(RefSet::Two(t(4), t(8)), c(8)),
            RefSet::Two(t(4), t(8))
        );
        assert_eq!(
            merged(two.clone(), c(1)),
            RefSet::Many(vec![c(1), c(4), c(8)])
        );
        assert_eq!(
            merged(two.clone(), t(6)),
            RefSet::Many(vec![c(4), t(6), c(8)])
        );
        assert_eq!(merged(two, c(9)), RefSet::Many(vec![c(4), c(8), c(9)]));
        // Many: an id already present (true hit wins, candidate never
        // downgrades), a new one.
        let many = RefSet::Many(vec![c(1), t(4), c(8)]);
        assert_eq!(
            merged(many.clone(), t(8)),
            RefSet::Many(vec![c(1), t(4), t(8)])
        );
        assert_eq!(merged(many.clone(), c(4)), many);
        assert_eq!(
            merged(many, c(5)),
            RefSet::Many(vec![c(1), t(4), c(5), c(8)])
        );
    }

    #[test]
    fn merge_dedups_repeated_refs() {
        // Merging the same reference many times never grows the set, for
        // every storage variant (One, Two, Many).
        let mut s = RefSet::single(PolygonRef::candidate(3));
        for _ in 0..5 {
            s.merge(PolygonRef::candidate(3));
        }
        assert_eq!(s.len(), 1);
        assert!(matches!(s, RefSet::One(_)));

        s.merge(PolygonRef::candidate(8));
        for _ in 0..5 {
            s.merge(PolygonRef::candidate(8));
            s.merge(PolygonRef::candidate(3));
        }
        assert_eq!(s.len(), 2);
        assert!(matches!(s, RefSet::Two(..)));

        s.merge(PolygonRef::true_hit(5));
        for _ in 0..5 {
            s.merge(PolygonRef::candidate(5)); // true hit must survive
            s.merge(PolygonRef::candidate(8));
        }
        assert_eq!(s.len(), 3);
        let v: Vec<PolygonRef> = s.iter().collect();
        assert_eq!(
            v,
            vec![
                PolygonRef::candidate(3),
                PolygonRef::true_hit(5),
                PolygonRef::candidate(8),
            ]
        );
    }

    #[test]
    fn split_accessors() {
        let s = RefSet::Many(vec![
            PolygonRef::true_hit(1),
            PolygonRef::candidate(2),
            PolygonRef::true_hit(3),
        ]);
        assert_eq!(s.true_hits().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.candidates().collect::<Vec<_>>(), vec![2]);
    }
}
