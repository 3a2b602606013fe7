//! The lookup table: deduplicated polygon-reference sets for cells that
//! reference two or more polygons.
//!
//! The paper (§II, "Lookup table"): *"The lookup table is encoded as a
//! single 32 bit unsigned integer array. The offsets stored in the tree are
//! simply offsets into that array. Each encoded entry contains the number of
//! true hits followed by the true hits, the number of candidate hits, and
//! the candidate hits."* Cells often share reference sets, so only unique
//! sets are materialized. (The paper inlines two-reference sets in 8-byte
//! trie slots; this trie's 4-byte slots send them here — see
//! [`crate::trie`].)

use crate::refs::{RefSet, MAX_POLYGON_ID};
use std::collections::HashMap;

/// A deduplicating, flat `u32`-array lookup table.
///
/// Interning is allocation-free apart from the amortized growth of the
/// word array and the dedup map: a set is encoded speculatively at the
/// end of the array and keyed by a 64-bit hash of its words, so a
/// repeated set is recognized by comparing against the words already
/// stored and the speculative copy is truncated away.
#[derive(Debug, Default)]
pub struct LookupTableBuilder {
    data: Vec<u32>,
    /// Entry-word hash → offset of the first entry with that hash.
    dedup: HashMap<u64, u32>,
    /// Entries whose hash collides with a different, earlier entry's —
    /// keeps interning exact even when two sets share a 64-bit hash.
    collisions: HashMap<Vec<u32>, u32>,
}

/// FNV-1a over an entry's words.
fn entry_hash(words: &[u32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The words of the entry at `off` (`[n_true, trues…, n_cand, cands…]`).
fn entry_at(data: &[u32], off: usize) -> &[u32] {
    let n_true = data[off] as usize;
    let n_cand = data[off + 1 + n_true] as usize;
    &data[off..off + 2 + n_true + n_cand]
}

impl LookupTableBuilder {
    /// Creates an empty builder.
    pub fn new() -> LookupTableBuilder {
        LookupTableBuilder::default()
    }

    /// Reopens a built table for appending (the live-mutation path):
    /// existing entries keep their offsets — trie entries pointing at them
    /// stay valid — and the dedup map is rebuilt by walking the encoded
    /// entries so re-interned sets resolve to the words already present.
    pub fn from_table(table: LookupTable) -> LookupTableBuilder {
        let mut b = LookupTableBuilder {
            data: table.data,
            ..LookupTableBuilder::default()
        };
        let mut off = 0usize;
        while off < b.data.len() {
            let len = entry_at(&b.data, off).len();
            b.dedup_entry(off);
            off += len;
        }
        b
    }

    /// The raw word array so far (offsets returned by
    /// [`LookupTableBuilder::intern`] index into it).
    #[inline]
    pub(crate) fn words(&self) -> &[u32] {
        &self.data
    }

    /// Interns a reference set, returning its offset in the array.
    /// Identical sets return identical offsets.
    pub fn intern(&mut self, refs: &RefSet) -> u32 {
        let off = self.data.len();
        assert!(
            off <= MAX_POLYGON_ID as usize,
            "lookup table exceeds 2^30 words; cannot be addressed by 30-bit offsets"
        );
        // `[n_true, true ids ..., n_cand, cand ids ...]`, written in place.
        self.data.push(0);
        self.data.extend(refs.true_hits());
        let n_true = self.data.len() - off - 1;
        self.data[off] = n_true as u32;
        self.data.push(0);
        self.data.extend(refs.candidates());
        self.data[off + 1 + n_true] = (self.data.len() - off - 2 - n_true) as u32;
        let found = self.dedup_entry(off);
        if found != off as u32 {
            self.data.truncate(off);
        }
        found
    }

    /// Registers the entry at `off` with the dedup maps and returns the
    /// offset of the first identical entry (`off` itself when it is new).
    fn dedup_entry(&mut self, off: usize) -> u32 {
        let entry = entry_at(&self.data, off);
        let first = *self.dedup.entry(entry_hash(entry)).or_insert(off as u32);
        if first as usize == off || entry_at(&self.data, first as usize) == entry {
            return first;
        }
        *self.collisions.entry(entry.to_vec()).or_insert(off as u32)
    }

    /// Finalizes into the immutable query-time table.
    pub fn build(self) -> LookupTable {
        LookupTable { data: self.data }
    }
}

/// The immutable query-time lookup table.
#[derive(Debug, Default, Clone)]
pub struct LookupTable {
    data: Vec<u32>,
}

/// Decodes the entry at `offset` of a raw word array into
/// (true hits, candidate hits). Shared by the owned [`LookupTable`] and the
/// borrowed snapshot views in [`crate::snapshot`].
#[inline]
pub(crate) fn decode_at(data: &[u32], offset: u32) -> (&[u32], &[u32]) {
    let off = offset as usize;
    let n_true = data[off] as usize;
    let trues = &data[off + 1..off + 1 + n_true];
    let n_cand = data[off + 1 + n_true] as usize;
    let cands = &data[off + 2 + n_true..off + 2 + n_true + n_cand];
    (trues, cands)
}

impl LookupTable {
    /// Reassembles a table from its raw word array (snapshot load path).
    pub(crate) fn from_words(data: Vec<u32>) -> LookupTable {
        LookupTable { data }
    }

    /// The raw word array (snapshot save path and shared decoding).
    #[inline]
    pub(crate) fn words(&self) -> &[u32] {
        &self.data
    }

    /// Decodes the entry at `offset` into (true hits, candidate hits).
    ///
    /// Returned slices alias the table — zero-copy on the hot path.
    #[inline]
    pub fn decode(&self, offset: u32) -> (&[u32], &[u32]) {
        decode_at(&self.data, offset)
    }

    /// Memory used by the array, in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
    }

    /// Number of `u32` words.
    #[inline]
    pub fn len_words(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::PolygonRef;

    fn set(ids: &[(u32, bool)]) -> RefSet {
        RefSet::Many(
            ids.iter()
                .map(|&(id, interior)| PolygonRef { id, interior })
                .collect(),
        )
    }

    #[test]
    fn encode_layout_matches_paper() {
        let mut b = LookupTableBuilder::new();
        let off = b.intern(&set(&[(5, true), (3, false), (1, false)]));
        let t = b.build();
        // [n_true=1, 5, n_cand=2, 3, 1]
        assert_eq!(off, 0);
        let (trues, cands) = t.decode(off);
        assert_eq!(trues, &[5]);
        assert_eq!(cands, &[3, 1]);
        assert_eq!(t.len_words(), 5);
    }

    #[test]
    fn dedup_identical_sets() {
        let mut b = LookupTableBuilder::new();
        let a = b.intern(&set(&[(1, true), (2, false), (3, false)]));
        let c = b.intern(&set(&[(4, true), (5, true), (6, false)]));
        let d = b.intern(&set(&[(1, true), (2, false), (3, false)]));
        assert_eq!(a, d, "identical sets must share an entry");
        assert_ne!(a, c);
        let t = b.build();
        assert_eq!(t.len_words(), 5 + 5);
    }

    #[test]
    fn empty_candidate_or_true_sections() {
        let mut b = LookupTableBuilder::new();
        let all_true = b.intern(&set(&[(1, true), (2, true), (3, true)]));
        let all_cand = b.intern(&set(&[(7, false), (8, false), (9, false)]));
        let t = b.build();
        let (tr, ca) = t.decode(all_true);
        assert_eq!((tr.len(), ca.len()), (3, 0));
        let (tr, ca) = t.decode(all_cand);
        assert_eq!((tr.len(), ca.len()), (0, 3));
    }

    #[test]
    fn intern_decode_roundtrip() {
        // Every RefSet variant survives intern → decode with its true-hit /
        // candidate partition intact, and offsets stay independently
        // decodable regardless of interleaving.
        let sets = [
            set(&[(0, true)]),
            set(&[(1, false), (2, true)]),
            set(&[(3, true), (4, false), (5, true), (6, false)]),
            set(&[(crate::refs::MAX_POLYGON_ID, true), (7, false), (8, false)]),
        ];
        let mut b = LookupTableBuilder::new();
        let offsets: Vec<u32> = sets.iter().map(|s| b.intern(s)).collect();
        let t = b.build();
        for (s, &off) in sets.iter().zip(&offsets) {
            let (trues, cands) = t.decode(off);
            assert_eq!(trues, s.true_hits().collect::<Vec<_>>().as_slice());
            assert_eq!(cands, s.candidates().collect::<Vec<_>>().as_slice());
        }
    }

    #[test]
    fn same_two_ref_set_interns_to_one_offset() {
        let mut b = LookupTableBuilder::new();
        let pair = |x: bool, y: bool| {
            RefSet::Two(
                PolygonRef { id: 4, interior: x },
                PolygonRef { id: 9, interior: y },
            )
        };
        let first = b.intern(&pair(true, false));
        let words = b.words().len();
        assert_eq!(b.intern(&pair(true, false)), first);
        assert_eq!(b.words().len(), words, "a repeat must not grow the table");
        // Same ids, different flags: a different set, a different entry.
        let flipped = b.intern(&pair(false, true));
        let both = b.intern(&pair(true, true));
        assert_ne!(flipped, first);
        assert_ne!(both, first);
        assert_ne!(both, flipped);
        // And after reopening a built table, the same sets resolve to the
        // offsets already there.
        let mut reopened = LookupTableBuilder::from_table(b.build());
        assert_eq!(reopened.intern(&pair(true, false)), first);
        assert_eq!(reopened.intern(&pair(false, true)), flipped);
        assert_eq!(reopened.words().len(), 3 * 4);
    }

    #[test]
    fn hash_collisions_keep_interning_exact() {
        let mut b = LookupTableBuilder::new();
        let a = set(&[(1, true), (2, false)]);
        let c = set(&[(3, true), (4, false)]);
        let a_off = b.intern(&a);
        // Forge a collision: `c`'s hash already names `a`'s entry.
        b.dedup.insert(entry_hash(&[1, 3, 1, 4]), a_off);
        let c_off = b.intern(&c);
        assert_ne!(c_off, a_off, "a colliding set must get its own entry");
        assert_eq!(b.intern(&c), c_off);
        assert_eq!(b.intern(&a), a_off);
        assert_eq!(b.words().len(), 4 + 4);
        let t = b.build();
        assert_eq!(t.decode(c_off), (&[3][..], &[4][..]));
    }

    #[test]
    fn memory_accounting() {
        let mut b = LookupTableBuilder::new();
        b.intern(&set(&[(1, true), (2, false), (3, false)]));
        let t = b.build();
        assert_eq!(t.memory_bytes(), 5 * 4);
    }
}
