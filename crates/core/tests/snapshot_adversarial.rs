//! Adversarial snapshot-loader tests: every class of malformed input —
//! truncation, flipped magic, wrong version, corrupted section
//! offsets/lengths, bit-flipped payloads — must come back as a typed
//! [`SnapshotError`], never a panic or out-of-bounds access, through BOTH
//! load paths (owned [`ActIndex::load_snapshot`] and the zero-copy
//! [`ActIndexView`]).

use act_core::snapshot::{rewrite_checksum, ActIndexView, SnapshotBuf, SnapshotError};
use act_core::ActIndex;
use geom::{Coord, Polygon, Ring};

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
    let (off, len) = section(b, 0);
    let forged = evil(len / 1024, section(b, 2).1 / 4);
    for i in (off..off + len).step_by(4) {
        let e = u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        if pred(e) {
            b[i..i + 4].copy_from_slice(&forged.to_le_bytes());
            rewrite_checksum(b);
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
        check: |e| matches!(e, SnapshotError::Truncated { .. }),
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
];

#[test]
fn corrupted_snapshots_yield_typed_errors_never_panics() {
    let pristine = valid_snapshot();
    // Sanity: the pristine image loads through both paths.
    assert!(ActIndex::load_snapshot(&mut pristine.as_slice()).is_ok());
    assert!(SnapshotBuf::from_bytes(&pristine).unwrap().view().is_ok());

    for case in CASES {
        let mut bytes = pristine.clone();
        (case.mutate)(&mut bytes);

        // Owned load path.
        match ActIndex::load_snapshot(&mut bytes.as_slice()) {
            Ok(_) => panic!("case '{}': owned load accepted corrupt input", case.name),
            Err(e) => assert!(
                (case.check)(&e),
                "case '{}': owned load returned unexpected error {e:?}",
                case.name
            ),
        }

        // Zero-copy view path (via the aligned buffer; buffer
        // construction itself may already reject, e.g. mid-word
        // truncation).
        let view_err = match SnapshotBuf::from_bytes(&bytes) {
            Err(e) => e,
            Ok(buf) => match buf.view() {
                Ok(_) => panic!("case '{}': view accepted corrupt input", case.name),
                Err(e) => e,
            },
        };
        assert!(
            (case.check)(&view_err),
            "case '{}': view returned unexpected error {view_err:?}",
            case.name
        );
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
        if let Ok(buf) = SnapshotBuf::from_bytes(&bytes) {
            assert!(buf.view().is_err());
        }
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

#[test]
fn misaligned_view_buffer_is_rejected() {
    let bytes = valid_snapshot();
    let mut padded = vec![0u8; bytes.len() + 16];
    let base = padded.as_ptr() as usize;
    let shift = (8 - base % 8) % 8 + 1; // guaranteed ≡ 1 (mod 8)
    padded[shift..shift + bytes.len()].copy_from_slice(&bytes);
    assert!(matches!(
        ActIndexView::from_bytes(&padded[shift..shift + bytes.len()]),
        Err(SnapshotError::Misaligned)
    ));
}
