//! Adversarial snapshot-loader tests: every class of malformed input —
//! truncation, flipped magic, wrong version, corrupted section
//! offsets/lengths, bit-flipped payloads — must come back as a typed
//! [`SnapshotError`], never a panic or out-of-bounds access, through
//! every reader: the owned [`ActIndex::load_snapshot`], the heap
//! [`MappedSnapshot::read_from`] and the mapped [`MappedSnapshot::open`].
//! A seeded mutation fuzz does the same for random mutants of a snapshot
//! and of a delta.

use act_core::snapshot::{rewrite_checksum, SnapshotError};
use act_core::{ActIndex, Delta, DeltaLink, DeltaOp, MappedSnapshot, Probe};
use geom::{Coord, Polygon, Ring};
use s2cell::CellId;

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

/// A valid snapshot image to mutate (four mutually overlapping squares:
/// the trie has several nodes and the triple-overlap region forces a
/// non-empty lookup table).
fn valid_snapshot() -> Vec<u8> {
    let polys = vec![
        square(-74.00, 40.70, 0.03),
        square(-73.99, 40.70, 0.03),
        square(-74.01, 40.70, 0.03),
        square(-74.00, 40.71, 0.03),
    ];
    let idx = ActIndex::build(&polys, 15.0).unwrap();
    let mut bytes = Vec::new();
    idx.save_snapshot(&mut bytes).unwrap();
    bytes
}

/// Reads section `i`'s `(offset, length)` from a snapshot's header table.
fn section(bytes: &[u8], i: usize) -> (usize, usize) {
    let at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
    (at(32 + 16 * i), at(40 + 16 * i))
}

/// Overwrites the first 4-byte trie slot matching `pred` with
/// `evil(section lengths)` and fixes the checksum — forges a structurally
/// plausible, checksum-valid file whose arena would steer probes out of
/// bounds without the loader's entry-level validation. `evil` receives
/// `(nodes in the arena, words in the lookup table)`.
fn forge_trie_slot(b: &mut [u8], pred: fn(u32) -> bool, evil: fn(usize, usize) -> u32) {
    corrupt_trie_slot(b, pred, evil);
    rewrite_checksum(b);
}

/// [`forge_trie_slot`] without the checksum fix-up.
fn corrupt_trie_slot(b: &mut [u8], pred: fn(u32) -> bool, evil: fn(usize, usize) -> u32) {
    let (off, len) = section(b, 0);
    let forged = evil(len / 1024, section(b, 2).1 / 4);
    for i in (off..off + len).step_by(4) {
        let e = u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        if pred(e) {
            b[i..i + 4].copy_from_slice(&forged.to_le_bytes());
            return;
        }
    }
    panic!("no matching trie slot in the fixture");
}

const TAG_CHILD: u32 = 0;
const TAG_OFFSET: u32 = 3;

fn is_child(e: u32) -> bool {
    e & 3 == TAG_CHILD && e >> 2 != 0
}

fn is_offset(e: u32) -> bool {
    e & 3 == TAG_OFFSET
}

struct Case {
    name: &'static str,
    mutate: fn(&mut Vec<u8>),
    check: fn(&SnapshotError) -> bool,
}

const CASES: &[Case] = &[
    Case {
        name: "empty file",
        mutate: |b| b.clear(),
        check: |e| matches!(e, SnapshotError::Truncated { .. }),
    },
    Case {
        name: "truncated inside the header",
        mutate: |b| b.truncate(48),
        check: |e| matches!(e, SnapshotError::Truncated { .. }),
    },
    Case {
        name: "truncated by one word",
        mutate: |b| {
            let n = b.len();
            b.truncate(n - 8);
        },
        check: |e| matches!(e, SnapshotError::LengthMismatch { .. }),
    },
    Case {
        name: "truncated mid-word",
        mutate: |b| {
            let n = b.len();
            b.truncate(n - 3);
        },
        // Far past the header: the message must name the ragged tail.
        check: |e| {
            matches!(e, SnapshotError::Truncated { .. })
                && e.to_string().contains("not a whole number of words")
        },
    },
    Case {
        name: "trailing garbage appended",
        mutate: |b| b.extend_from_slice(&[0u8; 8]),
        check: |e| matches!(e, SnapshotError::LengthMismatch { .. }),
    },
    Case {
        name: "flipped magic byte",
        mutate: |b| b[0] ^= 0x01,
        check: |e| matches!(e, SnapshotError::BadMagic),
    },
    Case {
        name: "wrong format version",
        mutate: |b| b[8] = 0x7F,
        check: |e| matches!(e, SnapshotError::UnsupportedVersion { found: 0x7F }),
    },
    Case {
        name: "nonzero reserved flags",
        mutate: |b| b[12] = 1,
        check: |e| matches!(e, SnapshotError::BadHeader(_)),
    },
    Case {
        name: "trie offset pointing far out of bounds",
        mutate: |b| b[32..40].copy_from_slice(&u64::MAX.to_le_bytes()),
        check: |e| {
            matches!(
                e,
                SnapshotError::BadSection {
                    section: "trie",
                    ..
                }
            )
        },
    },
    Case {
        name: "trie offset unaligned",
        mutate: |b| {
            let (off, _) = section(b, 0);
            b[32..40].copy_from_slice(&(off as u64 + 1).to_le_bytes());
        },
        check: |e| {
            matches!(
                e,
                SnapshotError::BadSection {
                    section: "trie",
                    ..
                }
            )
        },
    },
    Case {
        name: "trie length not a node multiple",
        mutate: |b| {
            let (_, len) = section(b, 0);
            b[40..48].copy_from_slice(&(len as u64 + 8).to_le_bytes());
        },
        check: |e| matches!(e, SnapshotError::BadSection { .. }),
    },
    Case {
        name: "table length inflated past the file",
        mutate: |b| b[72..80].copy_from_slice(&(1u64 << 40).to_le_bytes()),
        check: |e| {
            matches!(
                e,
                SnapshotError::BadSection {
                    section: "table",
                    ..
                }
            )
        },
    },
    Case {
        name: "section offsets swapped",
        mutate: |b| {
            let (trie_off, _) = section(b, 0);
            let (roots_off, _) = section(b, 1);
            b[32..40].copy_from_slice(&(roots_off as u64).to_le_bytes());
            b[48..56].copy_from_slice(&(trie_off as u64).to_le_bytes());
        },
        check: |e| matches!(e, SnapshotError::BadSection { .. }),
    },
    Case {
        name: "bit flip in the trie payload",
        mutate: |b| {
            let (off, len) = section(b, 0);
            b[off + len / 2] ^= 0x10;
        },
        check: |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
    },
    Case {
        name: "bit flip in the roots",
        mutate: |b| {
            let (off, _) = section(b, 1);
            b[off] ^= 0x01;
        },
        check: |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
    },
    Case {
        name: "bit flip in the lookup table",
        mutate: |b| {
            let (off, len) = section(b, 2);
            assert!(len > 0, "fixture index must have a lookup table");
            b[off] ^= 0x80;
        },
        check: |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
    },
    // The cases below recompute the checksum after corrupting, proving
    // the deeper validation layers behind it hold on their own.
    Case {
        name: "root index out of arena range (checksum fixed up)",
        mutate: |b| {
            let (off, _) = section(b, 1);
            b[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            rewrite_checksum(b);
        },
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        name: "meta act_bytes disagrees with trie section (checksum fixed up)",
        mutate: |b| {
            let (off, _) = section(b, 3);
            b[off + 64..off + 72].copy_from_slice(&1u64.to_le_bytes());
            rewrite_checksum(b);
        },
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        name: "nonzero reserved meta words (checksum fixed up)",
        mutate: |b| {
            let (off, _) = section(b, 3);
            b[off + 120] = 1;
            rewrite_checksum(b);
        },
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 00 with the largest 30-bit node index: an unvalidated probe
        // descending through it would index far past the arena.
        name: "trie child pointer out of arena range (checksum fixed up)",
        mutate: |b| forge_trie_slot(b, is_child, |_, _| u32::MAX << 2),
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 00 naming the node just past the arena's end.
        name: "trie child pointer one past the last node (checksum fixed up)",
        mutate: |b| forge_trie_slot(b, is_child, |nodes, _| (nodes as u32) << 2 | TAG_CHILD),
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 11 with an offset past the lookup table: an unvalidated
        // Probe::Table resolution would index past the table.
        name: "lookup-table offset out of range (checksum fixed up)",
        mutate: |b| forge_trie_slot(b, is_offset, |_, _| (0x3FFF_FFF0 << 2) | TAG_OFFSET),
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 11 at the largest 30-bit offset.
        name: "lookup-table offset at the 30-bit maximum (checksum fixed up)",
        mutate: |b| forge_trie_slot(b, is_offset, |_, _| u32::MAX),
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 11 naming the word just past the table's end.
        name: "lookup-table offset one past the table (checksum fixed up)",
        mutate: |b| forge_trie_slot(b, is_offset, |_, words| (words as u32) << 2 | TAG_OFFSET),
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    Case {
        // Tag 11 naming the table's last word: its entry header is in
        // range but the entry would run past the table.
        name: "lookup-table entry overrunning the table (checksum fixed up)",
        mutate: |b| {
            forge_trie_slot(b, is_offset, |_, words| {
                ((words as u32 - 1) << 2) | TAG_OFFSET
            })
        },
        check: |e| matches!(e, SnapshotError::Inconsistent(_)),
    },
    // Two faults at once: the loader runs the checksum and the entry
    // check concurrently but reports in a fixed order (checksum, roots,
    // entries, meta), so the earlier check's error wins.
    Case {
        name: "trie child pointer out of arena range (checksum stale)",
        mutate: |b| corrupt_trie_slot(b, is_child, |_, _| u32::MAX << 2),
        check: |e| matches!(e, SnapshotError::ChecksumMismatch { .. }),
    },
    Case {
        name: "root out of range and a forged child pointer (checksum fixed up)",
        mutate: |b| {
            let (off, _) = section(b, 1);
            b[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            forge_trie_slot(b, is_child, |_, _| u32::MAX << 2);
        },
        check: |e| {
            matches!(
                e,
                SnapshotError::Inconsistent("root node index out of arena range")
            )
        },
    },
    Case {
        name: "forged table offset and a nonzero reserved meta word (checksum fixed up)",
        mutate: |b| {
            let (off, _) = section(b, 3);
            b[off + 120] = 1;
            forge_trie_slot(b, is_offset, |_, _| u32::MAX);
        },
        check: |e| {
            matches!(
                e,
                SnapshotError::Inconsistent("lookup-table offset out of range")
            )
        },
    },
];

/// A temp file holding `bytes`, removed on drop.
struct TempSnap(std::path::PathBuf);

impl TempSnap {
    fn new(name: &str, bytes: &[u8]) -> TempSnap {
        let path = std::env::temp_dir().join(format!(
            "act-adversarial-{}-{name}.snap",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        TempSnap(path)
    }
}

impl Drop for TempSnap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn corrupted_snapshots_yield_typed_errors_never_panics() {
    let pristine = valid_snapshot();
    // Sanity: the pristine image loads through every reader, and the
    // file reader really maps it.
    assert!(ActIndex::load_snapshot(&mut pristine.as_slice()).is_ok());
    assert!(MappedSnapshot::read_from(&mut pristine.as_slice()).is_ok());
    let file = TempSnap::new("pristine", &pristine);
    assert_eq!(MappedSnapshot::open(&file.0).unwrap().is_mmap(), cfg!(unix));

    for (i, case) in CASES.iter().enumerate() {
        let mut bytes = pristine.clone();
        (case.mutate)(&mut bytes);
        let file = TempSnap::new(&format!("case-{i}"), &bytes);
        let readers = [
            (
                "owned load",
                ActIndex::load_snapshot(&mut bytes.as_slice()).err(),
            ),
            (
                "heap read",
                MappedSnapshot::read_from(&mut bytes.as_slice()).err(),
            ),
            ("file open", MappedSnapshot::open(&file.0).err()),
        ];
        for (reader, err) in readers {
            match err {
                None => panic!("case '{}': {reader} accepted corrupt input", case.name),
                Some(e) => assert!(
                    (case.check)(&e),
                    "case '{}': {reader} returned unexpected error {e:?}",
                    case.name
                ),
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    // Deterministic pseudo-random buffers of assorted sizes: the loader
    // must reject them all without panicking.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 7, 8, 95, 96, 104, 4096] {
        let mut bytes = vec![0u8; len];
        for b in bytes.iter_mut() {
            *b = next() as u8;
        }
        assert!(ActIndex::load_snapshot(&mut bytes.as_slice()).is_err());
        assert!(MappedSnapshot::read_from(&mut bytes.as_slice()).is_err());
    }
}

#[test]
fn version_zero_and_future_versions_are_rejected() {
    let pristine = valid_snapshot();
    // 1 is the retired 8-byte-slot layout (see also the v1 golden
    // fixture in `tests/tests/snapshot_golden.rs`).
    for version in [0u32, 1, 3, u32::MAX] {
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match ActIndex::load_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::UnsupportedVersion { found }) => assert_eq!(found, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// SplitMix64: the fuzz's whole randomness, so a seed replays a mutant.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Mutates `bytes` one of four ways — flip bits, overwrite a word,
/// truncate, extend — and, for half the seeds, re-seals the result so it
/// gets past the checksum: the length word (word 2 in both formats) is
/// set to the new length after a truncation or extension, then `seal`
/// rewrites the checksum.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, seal: fn(&mut [u8])) {
    let resized = match rng.below(4) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let bit = rng.below(bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            false
        }
        1 => {
            let at = rng.below(bytes.len() / 8) * 8;
            let word = [0, 1, u64::MAX, rng.next() % 4096, rng.next()][rng.below(5)];
            bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            false
        }
        2 => {
            let keep = rng.below(bytes.len());
            bytes.truncate(if rng.below(2) == 0 { keep & !7 } else { keep });
            true
        }
        _ => {
            for _ in 0..1 + rng.below(64) {
                bytes.push(rng.next() as u8);
            }
            true
        }
    };
    if rng.below(2) == 0 && bytes.len() >= 32 && bytes.len().is_multiple_of(8) {
        if resized {
            let len = bytes.len() as u64;
            bytes[16..24].copy_from_slice(&len.to_le_bytes());
        }
        seal(bytes);
    }
}

/// Seals delta bytes the way the writer does: FNV-1a over every word but
/// the checksum word 3.
fn seal_delta(bytes: &mut [u8]) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, w) in bytes.chunks_exact(8).enumerate() {
        if i != 3 {
            let w = u64::from_le_bytes(w.try_into().unwrap());
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    bytes[24..32].copy_from_slice(&h.to_le_bytes());
}

/// A valid snapshot with what the fuzz needs to aim its probes: the key
/// path to every node of its trie (`paths[n]` is node `n`'s face and the
/// key bytes that lead to it, found breadth-first from the roots), and
/// one cell per distinct lookup-table offset its slots hold.
struct Pristine {
    bytes: Vec<u8>,
    paths: Vec<Option<(u64, Vec<u8>)>>,
    table_cells: Vec<CellId>,
}

impl Pristine {
    fn new(bytes: Vec<u8>) -> Pristine {
        let (trie, len) = section(&bytes, 0);
        let slot = |i: usize| {
            u32::from_le_bytes(bytes[trie + 4 * i..trie + 4 * i + 4].try_into().unwrap())
        };
        let mut paths = vec![None; len / 1024];
        let mut queue = std::collections::VecDeque::new();
        let roots = section(&bytes, 1).0;
        for face in 0..6 {
            let at = roots + 4 * face as usize;
            let root = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if root != 0 {
                paths[root] = Some((face, Vec::new()));
                queue.push_back(root);
            }
        }
        let mut rng = Rng(0);
        let mut offsets = std::collections::BTreeSet::new();
        let mut table_cells = Vec::new();
        while let Some(node) = queue.pop_front() {
            let (face, path) = paths[node].clone().unwrap();
            for s in 0..256 {
                let e = slot(node * 256 + s);
                let child = (e >> 2) as usize;
                if is_child(e) && paths[child].is_none() {
                    let mut next = path.clone();
                    next.push(s as u8);
                    paths[child] = Some((face, next));
                    queue.push_back(child);
                } else if is_offset(e) && offsets.insert(e) {
                    table_cells.push(cell_reaching(face, &path, s as u8, &mut rng));
                }
            }
        }
        Pristine {
            bytes,
            paths,
            table_cells,
        }
    }

    /// Query cells for an accepted mutant: arbitrary `u64` ids, including
    /// the face bits 6 and 7 no cube face has; random ids on every face;
    /// a cell per lookup-table offset; and ids whose walks read each trie
    /// slot the mutant changed.
    fn query_cells(&self, rng: &mut Rng, mutant: &[u8]) -> Vec<CellId> {
        let mut cells: Vec<CellId> = (0..64).map(|_| CellId(rng.next())).collect();
        for face in 0..8u64 {
            for _ in 0..8 {
                cells.push(CellId(face << 61 | rng.next() >> 3));
            }
        }
        cells.extend_from_slice(&self.table_cells);
        let (trie, len) = section(&self.bytes, 0);
        for i in (trie..trie + len).step_by(4) {
            if self.bytes.get(i..i + 4) != mutant.get(i..i + 4) {
                let slot = (i - trie) / 4;
                if let Some((face, path)) = &self.paths[slot / 256] {
                    cells.push(cell_reaching(*face, path, (slot % 256) as u8, rng));
                }
            }
        }
        cells
    }
}

/// A cell id whose walk reads slot `slot` of the node at `(face, path)`,
/// with random bits below the key bytes the walk consumes.
fn cell_reaching(face: u64, path: &[u8], slot: u8, rng: &mut Rng) -> CellId {
    let bytes = path.iter().chain([&slot]);
    let mut id = face << 61;
    for (k, &b) in bytes.enumerate() {
        id |= u64::from(b) << (53 - 8 * k);
    }
    CellId(id | rng.next() >> (3 + 8 * (path.len() + 1)))
}

/// Seals snapshot bytes long enough to hold a header.
fn seal_snapshot(bytes: &mut [u8]) {
    if bytes.len() >= 96 {
        rewrite_checksum(bytes);
    }
}

/// One snapshot mutant: a rejection is a typed error; an acceptance must
/// probe every query cell without panicking. Returns whether it was
/// accepted.
fn snapshot_mutant(seed: u64, pristine: &Pristine) -> bool {
    let mut rng = Rng(seed);
    let mut bytes = pristine.bytes.clone();
    mutate(&mut rng, &mut bytes, seal_snapshot);
    match MappedSnapshot::read_from(&mut bytes.as_slice()) {
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
        Ok(snap) => {
            let view = snap.view();
            let cells = pristine.query_cells(&mut rng, &bytes);
            let mut out = vec![Probe::Miss; cells.len()];
            view.probe_batch(&cells, &mut out);
            for (&cell, &batched) in cells.iter().zip(&out) {
                assert_eq!(view.probe_cell(cell), batched, "cell {cell:?}");
                view.resolve_refs(batched).for_each(drop);
            }
            true
        }
    }
}

/// One delta mutant: a rejection is a typed error; an acceptance must
/// apply to a clone of `base` without panicking. Returns whether it was
/// accepted.
fn delta_mutant(seed: u64, pristine: &[u8], base: &ActIndex) -> bool {
    let mut rng = Rng(seed);
    let mut bytes = pristine.to_vec();
    mutate(&mut rng, &mut bytes, seal_delta);
    match Delta::from_bytes(&bytes) {
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
        Ok(delta) => {
            let _ = delta.apply(&mut base.clone());
            true
        }
    }
}

/// Runs `mutant` over `0..n` seeds, naming the seed of any panic, and
/// returns how many mutants were accepted.
fn fuzz(what: &str, n: u64, mutant: impl Fn(u64) -> bool) -> usize {
    let mut accepted = 0;
    for seed in 0..n {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mutant(seed))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => {
                panic!("{what} mutant seed {seed} panicked (replay: {what}_mutant({seed}, ..))")
            }
        }
    }
    eprintln!("{what}: {accepted} of {n} accepted");
    accepted
}

#[test]
fn seeded_snapshot_and_delta_mutants_are_typed_errors_or_safe() {
    let snapshot = Pristine::new(valid_snapshot());
    assert!(!snapshot.table_cells.is_empty());
    // Some mutants of each kind must get past every check, or the probe
    // and apply halves would test nothing.
    assert!(fuzz("snapshot", 2_000, |seed| snapshot_mutant(seed, &snapshot)) > 0);

    // The delta's base is coarse (1 km) so that an accepted mutant whose
    // coordinates moved across a continent stays cheap to cover.
    let base = ActIndex::build(&[square(-74.00, 40.70, 0.03)], 1000.0).unwrap();
    let base_sum = act_core::header_checksum(&{
        let mut b = Vec::new();
        base.save_snapshot(&mut b).unwrap();
        b
    })
    .unwrap();
    let ops = [
        DeltaOp::Insert {
            id: 1,
            polygon: square(-73.98, 40.71, 0.01),
        },
        DeltaOp::Remove { id: 0 },
    ];
    let mut delta = Vec::new();
    act_core::save_delta(&ops, DeltaLink::for_base(base_sum), &mut delta).unwrap();
    assert!(Delta::from_bytes(&delta)
        .unwrap()
        .apply(&mut base.clone())
        .is_ok());
    assert!(fuzz("delta", 2_000, |seed| delta_mutant(seed, &delta, &base)) > 0);
}
