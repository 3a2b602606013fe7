//! Delta snapshots (`ACTDLT01`): a checksummed patch log of polygon
//! insert/remove records against a specific base snapshot.
//!
//! Full `ACTSNP01` snapshots are hundreds of megabytes at census scale;
//! a handful of fence edits should not require shipping one. A delta file
//! carries just the edit script — polygon geometry for inserts, ids for
//! removals — plus enough lineage metadata for a loader to refuse to apply
//! it against the wrong base or out of order:
//!
//! ```text
//! word  contents
//! ────  ────────────────────────────────────────────────────────────
//!  0    magic "ACTDLT01"
//!  1    lo 32: format version (1) · hi 32: flags (must be 0)
//!  2    total file length in bytes
//!  3    FNV-1a-64 over every other word (this word skipped)
//!  4    base_sum   — checksum of the lineage's base snapshot
//!  5    seq        — 1-based position of this delta in the lineage
//!  6    prev_sum   — checksum of delta seq-1, or base_sum when seq == 1
//!  7    op_count
//!  8…   op records, back to back:
//!         op word: lo 32 = opcode (1 insert, 2 remove) · hi 32 = id
//!         insert payload: [num_rings] then per ring [num_points]
//!                         then per point [x.to_bits(), y.to_bits()]
//!         remove payload: none
//! ```
//!
//! Like the base format everything is little-endian 64-bit words, so a
//! loader can stream the file through [`u64::from_le_bytes`] with no
//! alignment tricks. The checksum rule mirrors the base snapshot's: word 3
//! is zeroed during hashing (here: skipped) so the file checksums itself.
//!
//! Lineage is enforced with [`DeltaLink`]: writers thread one through
//! [`save_delta`] calls, readers thread one through [`apply_delta_file`]
//! calls, and each delta's checksum becomes the `prev_sum` the next must
//! name. Applying a delta from a different base, out of order, or twice
//! fails with [`SnapshotError::Inconsistent`] before the index is touched.
//! So does an op id above [`MAX_POLYGON_ID`], which no index can hold:
//! writers refuse one and readers reject a file that carries one.

use crate::index::ActIndex;
use crate::refs::MAX_POLYGON_ID;
use crate::snapshot::{fnv1a_words, SnapshotError, FNV_OFFSET};
use geom::{Coord, Polygon, Ring};
use std::io::Write;
use std::path::Path;

/// Magic bytes identifying a delta file, as a little-endian word.
pub const DELTA_MAGIC: u64 = u64::from_le_bytes(*b"ACTDLT01");
/// The delta format version this build reads and writes.
pub const DELTA_VERSION: u32 = 1;
/// Header length in words (and the offset of the first op record).
const HEADER_WORDS: usize = 8;

const OP_INSERT: u32 = 1;
const OP_REMOVE: u32 = 2;

/// One edit in a delta's patch log.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Insert (or replace) polygon `id` with the given geometry.
    Insert {
        /// Polygon id being inserted or replaced.
        id: u32,
        /// The polygon's geometry.
        polygon: Polygon,
    },
    /// Remove polygon `id`. Removing an absent id is a no-op on apply.
    Remove {
        /// Polygon id being removed.
        id: u32,
    },
}

/// Lineage cursor: which base a delta chain descends from, the next
/// sequence number, and the checksum the next delta must name as its
/// predecessor. Identical on the write and apply sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaLink {
    /// Checksum of the base snapshot this lineage descends from.
    pub base_sum: u64,
    /// Sequence number the next delta in the chain will carry (1-based).
    pub next_seq: u64,
    /// Checksum of the previous delta, or `base_sum` at the chain head.
    pub prev_sum: u64,
}

impl DeltaLink {
    /// Starts a fresh lineage at the given base snapshot checksum.
    pub fn for_base(base_sum: u64) -> DeltaLink {
        DeltaLink {
            base_sum,
            next_seq: 1,
            prev_sum: base_sum,
        }
    }

    /// Advances the cursor past a delta with the given checksum.
    fn advance(self, delta_sum: u64) -> DeltaLink {
        DeltaLink {
            base_sum: self.base_sum,
            next_seq: self.next_seq + 1,
            prev_sum: delta_sum,
        }
    }
}

/// Encodes `ops` as the next delta in `link`'s lineage and writes it to
/// `w`. Returns the advanced link (for chaining further deltas) and the
/// written delta's checksum.
///
/// # Errors
/// [`SnapshotError::Inconsistent`], before anything is written, when an
/// op's id exceeds [`MAX_POLYGON_ID`]; any error `w` returns.
pub fn save_delta<W: Write>(
    ops: &[DeltaOp],
    link: DeltaLink,
    w: &mut W,
) -> Result<(DeltaLink, u64), SnapshotError> {
    let mut words: Vec<u64> = vec![0; HEADER_WORDS];
    for op in ops {
        let (DeltaOp::Insert { id, .. } | DeltaOp::Remove { id }) = op;
        check_id(*id)?;
        match op {
            DeltaOp::Insert { id, polygon } => {
                words.push(u64::from(OP_INSERT) | (u64::from(*id) << 32));
                let rings: Vec<&Ring> = std::iter::once(polygon.outer())
                    .chain(polygon.holes())
                    .collect();
                words.push(rings.len() as u64);
                for ring in rings {
                    let pts = ring.vertices();
                    words.push(pts.len() as u64);
                    for p in pts {
                        words.push(p.x.to_bits());
                        words.push(p.y.to_bits());
                    }
                }
            }
            DeltaOp::Remove { id } => {
                words.push(u64::from(OP_REMOVE) | (u64::from(*id) << 32));
            }
        }
    }
    words[0] = DELTA_MAGIC;
    words[1] = u64::from(DELTA_VERSION);
    words[2] = (words.len() * 8) as u64;
    words[4] = link.base_sum;
    words[5] = link.next_seq;
    words[6] = link.prev_sum;
    words[7] = ops.len() as u64;
    let sum = delta_checksum(&words);
    words[3] = sum;
    for wd in &words {
        w.write_all(&wd.to_le_bytes())?;
    }
    Ok((link.advance(sum), sum))
}

/// Convenience wrapper over [`save_delta`]: installs the file through
/// [`crate::write_file_atomic`], so watchers never see a torn delta.
pub fn save_delta_file(
    ops: &[DeltaOp],
    link: DeltaLink,
    path: &Path,
) -> Result<(DeltaLink, u64), SnapshotError> {
    let mut bytes = Vec::new();
    let out = save_delta(ops, link, &mut bytes)?;
    crate::write_file_atomic(path, &bytes)?;
    Ok(out)
}

/// The checksum rule: FNV-1a over every header and payload word except
/// word 3, which holds the digest itself.
fn delta_checksum(words: &[u64]) -> u64 {
    let h = fnv1a_words(FNV_OFFSET, &words[..3]);
    fnv1a_words(h, &words[4..])
}

/// A fully decoded and validated delta file.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Checksum of the base snapshot this delta's lineage descends from.
    pub base_sum: u64,
    /// This delta's 1-based position in its lineage.
    pub seq: u64,
    /// Checksum of the predecessor (delta `seq-1`, or the base).
    pub prev_sum: u64,
    /// This delta file's own checksum (the next delta's `prev_sum`).
    pub checksum: u64,
    /// The decoded edit script, in application order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Decodes and validates a delta from raw bytes. Every structural
    /// property is checked — magic, version, flags, length, checksum, op
    /// bounds — before any geometry is built.
    pub fn from_bytes(bytes: &[u8]) -> Result<Delta, SnapshotError> {
        if bytes.len() < HEADER_WORDS * 8 || !bytes.len().is_multiple_of(8) {
            return Err(SnapshotError::Truncated { have: bytes.len() });
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        if words[0] != DELTA_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = (words[1] & 0xFFFF_FFFF) as u32;
        if version != DELTA_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        if words[1] >> 32 != 0 {
            return Err(SnapshotError::BadHeader("delta flags must be zero"));
        }
        if words[2] != bytes.len() as u64 {
            return Err(SnapshotError::LengthMismatch {
                expected: words[2],
                actual: bytes.len() as u64,
            });
        }
        let found = delta_checksum(&words);
        if found != words[3] {
            return Err(SnapshotError::ChecksumMismatch {
                expected: words[3],
                found,
            });
        }
        let seq = words[5];
        if seq == 0 {
            return Err(SnapshotError::BadHeader("delta seq must be >= 1"));
        }
        let op_count = words[7];
        let mut ops = Vec::new();
        let mut at = HEADER_WORDS;
        for _ in 0..op_count {
            let op_word = *words
                .get(at)
                .ok_or(SnapshotError::Inconsistent("op record past end of delta"))?;
            at += 1;
            let opcode = (op_word & 0xFFFF_FFFF) as u32;
            let id = check_id((op_word >> 32) as u32)?;
            match opcode {
                OP_REMOVE => ops.push(DeltaOp::Remove { id }),
                OP_INSERT => {
                    let num_rings = read_count(&words, &mut at, "ring count")?;
                    if num_rings == 0 {
                        return Err(SnapshotError::Inconsistent("insert record with zero rings"));
                    }
                    let mut rings = Vec::with_capacity(num_rings);
                    for _ in 0..num_rings {
                        let num_points = read_count(&words, &mut at, "point count")?;
                        if num_points < 3 {
                            return Err(SnapshotError::Inconsistent(
                                "ring with fewer than 3 points",
                            ));
                        }
                        if words.len() - at < num_points * 2 {
                            return Err(SnapshotError::Inconsistent(
                                "ring points past end of delta",
                            ));
                        }
                        let mut pts = Vec::with_capacity(num_points);
                        for _ in 0..num_points {
                            let x = f64::from_bits(words[at]);
                            let y = f64::from_bits(words[at + 1]);
                            at += 2;
                            if !x.is_finite() || !y.is_finite() {
                                return Err(SnapshotError::Inconsistent(
                                    "non-finite coordinate in insert record",
                                ));
                            }
                            pts.push(Coord::new(x, y));
                        }
                        rings.push(Ring::new(pts));
                    }
                    let mut it = rings.into_iter();
                    let outer = it.next().expect("num_rings >= 1");
                    ops.push(DeltaOp::Insert {
                        id,
                        polygon: Polygon::new(outer, it.collect()),
                    });
                }
                _ => return Err(SnapshotError::Inconsistent("unknown delta opcode")),
            }
        }
        if at != words.len() {
            return Err(SnapshotError::Inconsistent(
                "trailing words after last op record",
            ));
        }
        Ok(Delta {
            base_sum: words[4],
            seq,
            prev_sum: words[6],
            checksum: words[3],
            ops,
        })
    }

    /// Reads and decodes a delta file.
    pub fn load(path: &Path) -> Result<Delta, SnapshotError> {
        Delta::from_bytes(&std::fs::read(path)?)
    }

    /// Checks this delta is the one `link` expects next.
    pub fn verify_link(&self, link: &DeltaLink) -> Result<(), SnapshotError> {
        if self.base_sum != link.base_sum {
            return Err(SnapshotError::Inconsistent(
                "delta names a different base snapshot",
            ));
        }
        if self.seq != link.next_seq {
            return Err(SnapshotError::Inconsistent("delta out of sequence"));
        }
        if self.prev_sum != link.prev_sum {
            return Err(SnapshotError::Inconsistent(
                "delta predecessor checksum mismatch",
            ));
        }
        Ok(())
    }

    /// Applies the edit script to `index`, in order. The delta should be
    /// [`Delta::verify_link`]-checked first; geometry errors (multi-face
    /// polygons) surface as [`SnapshotError::Inconsistent`] and may leave
    /// a prefix of the script applied — apply to a scratch clone when that
    /// matters (the serve watcher does).
    pub fn apply(&self, index: &mut ActIndex) -> Result<(), SnapshotError> {
        for op in &self.ops {
            match op {
                DeltaOp::Insert { id, polygon } => {
                    index.insert_polygon(*id, polygon).map_err(|_| {
                        SnapshotError::Inconsistent("insert polygon spans multiple faces")
                    })?;
                }
                DeltaOp::Remove { id } => {
                    index.remove_polygon(*id);
                }
            }
        }
        Ok(())
    }
}

/// Refuses an op id no index can hold (inserting one panics).
fn check_id(id: u32) -> Result<u32, SnapshotError> {
    if id > MAX_POLYGON_ID {
        return Err(SnapshotError::Inconsistent("delta op id exceeds 30 bits"));
    }
    Ok(id)
}

fn read_count(words: &[u64], at: &mut usize, what: &'static str) -> Result<usize, SnapshotError> {
    let w = *words.get(*at).ok_or(SnapshotError::Inconsistent(what))?;
    *at += 1;
    usize::try_from(w)
        .ok()
        .filter(|&n| n <= words.len())
        .ok_or(SnapshotError::Inconsistent(what))
}

/// Loads, link-verifies, and applies one delta file to a live index.
/// Returns the advanced [`DeltaLink`] for the next delta in the chain.
/// The index is only mutated after the file fully validates and decodes.
pub fn apply_delta_file(
    index: &mut ActIndex,
    path: &Path,
    link: DeltaLink,
) -> Result<DeltaLink, SnapshotError> {
    let delta = Delta::load(path)?;
    delta.verify_link(&link)?;
    delta.apply(index)?;
    Ok(link.advance(delta.checksum))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sample_ops() -> Vec<DeltaOp> {
        vec![
            DeltaOp::Insert {
                id: 3,
                polygon: square(-73.98, 40.75, 0.01),
            },
            DeltaOp::Remove { id: 1 },
            DeltaOp::Insert {
                id: 7,
                polygon: Polygon::new(
                    square(-74.0, 40.7, 0.05).outer().clone(),
                    vec![square(-74.0, 40.7, 0.01).outer().clone()],
                ),
            },
        ]
    }

    #[test]
    fn save_load_roundtrip() {
        let link = DeltaLink::for_base(0xDEAD_BEEF);
        let ops = sample_ops();
        let mut buf = Vec::new();
        let (next, sum) = save_delta(&ops, link, &mut buf).unwrap();
        assert_eq!(next.next_seq, 2);
        assert_eq!(next.prev_sum, sum);
        assert_eq!(next.base_sum, link.base_sum);

        let d = Delta::from_bytes(&buf).unwrap();
        assert_eq!(d.base_sum, 0xDEAD_BEEF);
        assert_eq!(d.seq, 1);
        assert_eq!(d.prev_sum, 0xDEAD_BEEF);
        assert_eq!(d.checksum, sum);
        assert_eq!(d.ops.len(), 3);
        d.verify_link(&link).unwrap();
        // Geometry round-trips bit-exactly.
        match (&d.ops[0], &ops[0]) {
            (DeltaOp::Insert { id: a, polygon: pa }, DeltaOp::Insert { id: b, polygon: pb }) => {
                assert_eq!(a, b);
                assert_eq!(pa.outer().vertices(), pb.outer().vertices());
            }
            _ => panic!("op 0 should be an insert"),
        }
        match &d.ops[2] {
            DeltaOp::Insert { polygon, .. } => assert_eq!(polygon.holes().len(), 1),
            _ => panic!("op 2 should be an insert with a hole"),
        }
    }

    #[test]
    fn chained_deltas_verify_in_order_only() {
        let base = DeltaLink::for_base(42);
        let mut b1 = Vec::new();
        let (after1, _) = save_delta(&[DeltaOp::Remove { id: 0 }], base, &mut b1).unwrap();
        let mut b2 = Vec::new();
        let (_, _) = save_delta(&[DeltaOp::Remove { id: 1 }], after1, &mut b2).unwrap();

        let d1 = Delta::from_bytes(&b1).unwrap();
        let d2 = Delta::from_bytes(&b2).unwrap();
        d1.verify_link(&base).unwrap();
        d2.verify_link(&after1).unwrap();
        // Out of order, wrong base, or replayed — all refused.
        assert!(d2.verify_link(&base).is_err());
        assert!(d1.verify_link(&after1).is_err());
        assert!(d1.verify_link(&DeltaLink::for_base(43)).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        save_delta(&sample_ops(), DeltaLink::for_base(1), &mut buf).unwrap();

        // Flip one payload byte.
        let mut bad = buf.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x40;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncate.
        assert!(matches!(
            Delta::from_bytes(&buf[..buf.len() - 8]),
            Err(SnapshotError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Delta::from_bytes(&buf[..12]),
            Err(SnapshotError::Truncated { .. })
        ));

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));
    }

    /// An op id above 30 bits is refused on both sides: the writer
    /// writes nothing, and a checksum-valid file carrying one (as a
    /// foreign writer could produce) fails to decode instead of
    /// panicking the apply.
    #[test]
    fn over_30_bit_ids_are_refused() {
        let huge = MAX_POLYGON_ID + 1;
        for op in [
            DeltaOp::Remove { id: huge },
            DeltaOp::Insert {
                id: u32::MAX,
                polygon: square(-74.0, 40.7, 0.01),
            },
        ] {
            let mut buf = Vec::new();
            assert!(matches!(
                save_delta(&[op], DeltaLink::for_base(5), &mut buf),
                Err(SnapshotError::Inconsistent(_))
            ));
            assert!(buf.is_empty(), "nothing is written");
        }

        // Patch a valid file's op id and re-seal its checksum.
        let mut buf = Vec::new();
        save_delta(&sample_ops(), DeltaLink::for_base(5), &mut buf).unwrap();
        let mut words: Vec<u64> = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        words[HEADER_WORDS] = u64::from(OP_INSERT) | (u64::from(huge) << 32);
        words[3] = delta_checksum(&words);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert!(matches!(
            Delta::from_bytes(&bytes),
            Err(SnapshotError::Inconsistent(_))
        ));
    }

    #[test]
    fn empty_delta_is_valid() {
        let mut buf = Vec::new();
        let (next, _) = save_delta(&[], DeltaLink::for_base(9), &mut buf).unwrap();
        let d = Delta::from_bytes(&buf).unwrap();
        assert!(d.ops.is_empty());
        assert_eq!(next.next_seq, 2);
    }
}
