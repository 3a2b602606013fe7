//! Versioned, checksummed on-disk snapshots of a built [`ActIndex`].
//!
//! The paper treats the ACT as a main-memory structure rebuilt from the
//! polygon set on every process start. For production serving, restart
//! cost and fleet-wide index distribution matter as much as build speed:
//! the build is byte-deterministic (serial ≡ parallel, see
//! [`ActIndex::build_parallel`]), so the node arena is a stable artifact
//! worth persisting once and loading many times. Loading a snapshot is
//! I/O-bound — the arena and lookup table are stored exactly as probed,
//! so there is nothing to parse, only sections to validate and view.
//!
//! ## Format (version 2)
//!
//! A snapshot is a sequence of little-endian `u64` words. All offsets are
//! in bytes from the start of the file; every section starts 8-byte
//! aligned, immediately after the (zero-padded) previous one.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic            b"ACTSNP01"
//!      8     4  format version   u32 (currently 2)
//!     12     4  flags            u32 (reserved, must be 0)
//!     16     8  total_len        u64, file length in bytes
//!     24     8  checksum         u64, FNV-1a-64 over every word of the
//!                                file except this one
//!     32    64  section table    4 × { offset u64, length u64 }:
//!                                  [0] TRIE  — node arena (u32 tagged
//!                                      slots, see [`crate::trie`];
//!                                      length a multiple of 1024 = one
//!                                      256-slot node)
//!                                  [1] ROOTS — 6 × u32 per-face root
//!                                      node indices (24 bytes)
//!                                  [2] TABLE — lookup-table words
//!                                      (u32s; length a multiple of 4)
//!                                  [3] META  — 16 × u64 build metadata
//!     96     …  the sections, in table order
//! ```
//!
//! META words: `[0]` inserted cells, `[1]` denormalized slots, then the
//! [`BuildStats`] fields in declaration order (`f64`s as IEEE-754 bits:
//! precision, terminal level, covering cells, indexed cells, denormalized
//! slots, push-down splits, ACT bytes, lookup-table bytes, three build
//! wall-times), then three reserved words that must be zero.
//!
//! Version 1 differed only in the TRIE section: 8-byte slots that inlined
//! up to two references (2048-byte nodes). This build rejects version-1
//! files with [`SnapshotError::UnsupportedVersion`]; rebuild the index
//! from its polygons to migrate.
//!
//! ## Validation
//!
//! Loaders validate *structure before use*: magic, version, flags, total
//! length, section-table alignment/contiguity/bounds, per-section shape,
//! the whole-file checksum, root-index bounds, an entry-level pass over
//! the arena (every child pointer within the arena, every lookup-table
//! offset decodable within the table — the checksum alone would not stop
//! a *constructed* file from steering probes out of bounds), and
//! cross-section consistency (`act_bytes`/`lookup_table_bytes` vs actual
//! section sizes). Every failure is a typed [`SnapshotError`]; malformed
//! input never panics or indexes out of bounds, at load or at probe time.
//!
//! The two passes over the whole arena run at once: the loading thread
//! chains the checksum while one scoped helper thread runs the entry
//! check (inline, after the checksum, if no thread can be spawned). Errors
//! are still reported in the order above — checksum, then roots, then
//! entries, then metadata — so a file that is both corrupt and forged
//! fails with [`SnapshotError::ChecksumMismatch`].
//!
//! ## Load modes
//!
//! Every snapshot is read through one type, [`MappedSnapshot`]:
//! [`MappedSnapshot::open`] `mmap`s the file (via the `mmapio` shim) and
//! probes straight off the page cache; [`MappedSnapshot::read_from`]
//! reads any stream into an owned aligned heap copy, which is also
//! `open`'s fallback when a file cannot be mapped. Either way the bytes
//! are validated once, and every [`MappedSnapshot::view`] after that is a
//! zero-copy [`ActIndexView`] that probes through the same
//! [`crate::trie`] walk the owned index uses; only the 24-byte roots
//! array and the fixed-size metadata are copied out. Views require a
//! little-endian target (all tier-1 targets are); big-endian hosts get a
//! typed [`SnapshotError::UnsupportedEndian`].
//!
//! From a [`MappedSnapshot`], an [`ActIndex`] is one of two kinds:
//!
//! * **Deep** — [`MappedSnapshot::to_owned_index`] (and
//!   [`ActIndex::load_snapshot`], which reads a stream into one) copies
//!   the sections into a regular [`ActIndex`].
//! * **Shared** — [`ActIndex::from_mapped`] opens an owned index over an
//!   `Arc` of a [`MappedSnapshot`] whose trie arena and lookup table *are*
//!   the mapping: only the roots are copied. Edits copy the trie nodes
//!   they write (see [`crate::trie`]), and the first one copies the
//!   table.
//!
//! Writers stream: [`ActIndex::save_snapshot`] and
//! [`ActIndexView::save_file`] write an index's TRIE section as its
//! arena's base segment followed by its owned nodes, so a shared index
//! saves the same bytes as its one-segment deep copy, and no image of
//! the file is built in memory.
//!
//! ## Bumping the format version
//!
//! Any change to the layout above — new sections, reordered fields,
//! different meta words — must (1) increment [`FORMAT_VERSION`], (2)
//! teach the loader to either read or reject the old version explicitly,
//! and (3) re-bless the golden fixture
//! (`ACT_BLESS_SNAPSHOT=1 cargo test -p act-tests --test snapshot_golden`)
//! in the same commit, updating this doc. The golden regression test
//! pins today's bytes; a version bump is the only sanctioned way to
//! change them.

use crate::index::{ActIndex, BuildStats};
use crate::lookup::LookupTable;
use crate::trie::{resolve_probe_words, Act, Probe, RawTrie, SharedWords, FANOUT, NODE_BYTES};
use geom::Coord;
use s2cell::CellId;
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"ACTSNP01";
/// The current snapshot format version (see the module docs before
/// changing).
pub const FORMAT_VERSION: u32 = 2;

/// Header: magic + version/flags + total_len + checksum + section table.
const HEADER_LEN: usize = 96;
const HEADER_WORDS: usize = HEADER_LEN / 8;
/// Exact byte length of the ROOTS section (6 × u32).
const ROOTS_LEN: usize = 24;
/// META section: 16 u64 words.
const META_WORDS: usize = 16;
const META_LEN: usize = META_WORDS * 8;

const SECTION_NAMES: [&str; 4] = ["trie", "roots", "table", "meta"];

/// A typed snapshot failure. Loaders return these for every class of
/// malformed input — truncation, bad magic, version/flag mismatches,
/// corrupted section tables, checksum failures, and cross-field
/// inconsistencies — instead of panicking.
#[derive(Debug)]
pub enum SnapshotError {
    /// An I/O error from the underlying reader or writer.
    Io(std::io::Error),
    /// The buffer is shorter than a header or not a whole number of
    /// words.
    Truncated {
        /// Bytes actually available.
        have: usize,
    },
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The header names a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A reserved header field violates the format (the string names it).
    BadHeader(&'static str),
    /// A section-table entry is structurally invalid.
    BadSection {
        /// Which section ("trie", "roots", "table", "meta").
        section: &'static str,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The header's total length disagrees with the bytes provided.
    LengthMismatch {
        /// Length claimed by the header.
        expected: u64,
        /// Length of the buffer.
        actual: u64,
    },
    /// The whole-file checksum does not match (payload corruption).
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum computed over the bytes.
        found: u64,
    },
    /// Sections parsed but their contents disagree (the string says how).
    Inconsistent(&'static str),
    /// Zero-copy views (and the loaders built on them) require a
    /// little-endian target.
    UnsupportedEndian,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated { have } => {
                write!(
                    f,
                    "snapshot truncated: {have} bytes is shorter than a header \
                     or not a whole number of words"
                )
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::BadHeader(what) => write!(f, "bad snapshot header: {what}"),
            SnapshotError::BadSection { section, reason } => {
                write!(f, "bad snapshot section '{section}': {reason}")
            }
            SnapshotError::LengthMismatch { expected, actual } => write!(
                f,
                "snapshot length mismatch: header says {expected} bytes, got {actual}"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header {expected:#018x}, computed {found:#018x}"
            ),
            SnapshotError::Inconsistent(what) => {
                write!(f, "inconsistent snapshot contents: {what}")
            }
            SnapshotError::UnsupportedEndian => {
                write!(f, "snapshot views require a little-endian target")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Checksum + word packing
// ---------------------------------------------------------------------

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded one 64-bit word at a time. A word-granular variant (the
/// format pads everything to whole words) keeps checksum validation far
/// from the critical path of a census-scale load.
pub(crate) fn fnv1a_words(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// [`fnv1a_words`] over the u64 words that a little-endian u32 array
/// occupies on disk (odd tail zero-padded) — hashes the sub-word
/// ROOTS/TABLE sections without materializing a packed copy.
fn fnv1a_u32_words(mut h: u64, values: &[u32]) -> u64 {
    for pair in values.chunks(2) {
        h ^= pair[0] as u64 | ((pair.get(1).copied().unwrap_or(0) as u64) << 32);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streams words to `w` as little-endian bytes through a small stack
/// buffer (portable across endianness; compiles to a copy on LE).
fn write_words(w: &mut impl Write, words: &[u64]) -> std::io::Result<()> {
    const CHUNK: usize = 1024;
    let mut buf = [0u8; CHUNK * 8];
    for chunk in words.chunks(CHUNK) {
        for (i, &x) in chunk.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 8])?;
    }
    Ok(())
}

/// Streams u32 words to `w` as little-endian bytes, zero-padding an odd
/// count to the 8-byte boundary the format requires.
fn write_u32_words(w: &mut impl Write, values: &[u32]) -> std::io::Result<()> {
    const CHUNK: usize = 2048;
    let mut buf = [0u8; CHUNK * 4];
    for chunk in values.chunks(CHUNK) {
        for (i, &x) in chunk.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    if !values.len().is_multiple_of(2) {
        w.write_all(&[0u8; 4])?;
    }
    Ok(())
}

/// Reinterprets an 8-byte aligned byte slice as u64 words.
/// Callers must have checked alignment, length divisibility, and that the
/// target is little-endian (so word values equal the encoded LE values).
/// The `unsafe` lives behind [`mmapio::cast`]'s checked API, keeping this
/// crate `forbid(unsafe_code)`.
fn bytes_as_words(bytes: &[u8]) -> &[u64] {
    mmapio::cast::bytes_as_u64s(bytes)
}

/// Reinterprets a 4-byte aligned byte slice as u32 words (same contract
/// as [`bytes_as_words`]; section offsets are 8-aligned, hence 4-aligned).
fn bytes_as_u32s(bytes: &[u8]) -> &[u32] {
    mmapio::cast::bytes_as_u32s(bytes)
}

/// Views a u64 slice as raw bytes (always valid).
fn words_as_bytes(words: &[u64]) -> &[u8] {
    mmapio::cast::u64s_as_bytes(words)
}

/// Mutable byte view of a u64 buffer — lets [`MappedSnapshot::read_from`]
/// stream file bytes straight into aligned storage.
fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    mmapio::cast::u64s_as_bytes_mut(words)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The header and META words of `view`'s snapshot, the header's checksum
/// word filled in.
fn image_words(view: &ActIndexView<'_>) -> ([u64; HEADER_WORDS], [u64; META_WORDS]) {
    let (base, ext, table, stats) = (view.base, view.ext, view.table, &view.stats);
    let trie_off = HEADER_LEN;
    let trie_len = (base.len() + ext.len()) * 4;
    let roots_off = trie_off + trie_len;
    let table_off = roots_off + align8(ROOTS_LEN);
    let table_len = table.len() * 4;
    let meta_off = table_off + align8(table_len);
    let total_len = meta_off + META_LEN;

    let meta_words: [u64; META_WORDS] = [
        view.inserted_cells,
        view.denormalized_slots,
        stats.precision_m.to_bits(),
        stats.terminal_level as u64,
        stats.covering_cells,
        stats.indexed_cells,
        stats.denormalized_slots,
        stats.pushdown_splits,
        stats.act_bytes as u64,
        stats.lookup_table_bytes as u64,
        stats.build_coverings_secs.to_bits(),
        stats.build_supercover_secs.to_bits(),
        stats.build_insert_secs.to_bits(),
        0,
        0,
        0,
    ];

    let mut header = [0u64; HEADER_WORDS];
    header[0] = u64::from_le_bytes(MAGIC);
    header[1] = FORMAT_VERSION as u64; // flags in the high half stay 0
    header[2] = total_len as u64;
    for (i, (off, len)) in [
        (trie_off, trie_len),
        (roots_off, ROOTS_LEN),
        (table_off, table_len),
        (meta_off, META_LEN),
    ]
    .into_iter()
    .enumerate()
    {
        header[4 + 2 * i] = off as u64;
        header[5 + 2 * i] = len as u64;
    }
    let mut h = fnv1a_words(FNV_OFFSET, &header[0..3]);
    h = fnv1a_words(h, &header[4..HEADER_WORDS]);
    // Each segment is whole nodes, an even number of slots, so hashing
    // them one after the other pairs slots into words as one array would.
    h = fnv1a_u32_words(h, base);
    h = fnv1a_u32_words(h, ext);
    h = fnv1a_u32_words(h, &view.roots);
    h = fnv1a_u32_words(h, table);
    h = fnv1a_words(h, &meta_words);
    header[3] = h;
    (header, meta_words)
}

/// Streams `view`'s version-2 snapshot to `w`: the TRIE section is the
/// base segment, then the ext. Returns the bytes written and the
/// snapshot's whole-file checksum.
pub(crate) fn write_view(
    view: &ActIndexView<'_>,
    w: &mut impl Write,
) -> Result<(u64, u64), SnapshotError> {
    let (header, meta_words) = image_words(view);
    write_words(w, &header)?;
    write_u32_words(w, view.base)?;
    write_u32_words(w, view.ext)?;
    write_u32_words(w, &view.roots)?;
    write_u32_words(w, view.table)?;
    write_words(w, &meta_words)?;
    Ok((header[2], header[3]))
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Validated byte layout: `(offset, exact length)` per section.
#[derive(Debug, Clone, Copy)]
struct Layout {
    trie: (usize, usize),
    roots: (usize, usize),
    table: (usize, usize),
    meta: (usize, usize),
}

/// Structural validation of a word buffer: header fields and the section
/// table. Every offset and length a loader slices by is established
/// here; the contents are checked by [`ActIndexView::parse`].
fn validate(words: &[u64]) -> Result<Layout, SnapshotError> {
    let total = words.len() * 8;
    debug_assert!(total >= HEADER_LEN);
    if words[0] != u64::from_le_bytes(MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let version = words[1] as u32;
    let flags = (words[1] >> 32) as u32;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if flags != 0 {
        return Err(SnapshotError::BadHeader("nonzero reserved flags"));
    }
    if words[2] != total as u64 {
        return Err(SnapshotError::LengthMismatch {
            expected: words[2],
            actual: total as u64,
        });
    }

    // Section table: canonical layout is enforced exactly — 8-aligned,
    // contiguous (modulo word padding), in-bounds, nothing trailing. A
    // corrupted offset or length cannot place a section anywhere the
    // writer would not have.
    let bad = |i: usize, reason: &'static str| SnapshotError::BadSection {
        section: SECTION_NAMES[i],
        reason,
    };
    let mut sec = [(0usize, 0usize); 4];
    let mut cursor = HEADER_LEN;
    for i in 0..4 {
        let off = words[4 + 2 * i];
        let len = words[5 + 2 * i];
        let (off, len) = match (usize::try_from(off), usize::try_from(len)) {
            (Ok(o), Ok(l)) => (o, l),
            _ => return Err(bad(i, "offset or length overflows the address space")),
        };
        if off % 8 != 0 {
            return Err(bad(i, "offset not 8-byte aligned"));
        }
        if off != cursor {
            return Err(bad(i, "offset breaks the canonical contiguous layout"));
        }
        let end = off
            .checked_add(len)
            .ok_or_else(|| bad(i, "offset + length overflows"))?;
        if end > total {
            return Err(bad(i, "section extends past the end of the file"));
        }
        sec[i] = (off, len);
        cursor = align8(end);
    }
    if cursor != total {
        return Err(SnapshotError::BadSection {
            section: "meta",
            reason: "trailing bytes after the final section",
        });
    }
    let [trie, roots, table, meta] = sec;
    if trie.1 == 0 || trie.1 % NODE_BYTES != 0 {
        return Err(bad(0, "length not a positive multiple of the node size"));
    }
    if roots.1 != ROOTS_LEN {
        return Err(bad(1, "length is not exactly 6 u32 roots"));
    }
    if table.1 % 4 != 0 {
        return Err(bad(2, "length not a multiple of 4"));
    }
    if meta.1 != META_LEN {
        return Err(bad(3, "length is not exactly 16 u64 words"));
    }
    Ok(Layout {
        trie,
        roots,
        table,
        meta,
    })
}

/// The whole-file checksum: FNV-1a over every word but the checksum
/// word itself.
fn image_checksum(words: &[u64]) -> u64 {
    fnv1a_words(fnv1a_words(FNV_OFFSET, &words[0..3]), &words[4..])
}

// ---------------------------------------------------------------------
// Zero-copy view
// ---------------------------------------------------------------------

/// A query-ready, zero-copy view of a snapshot ([`MappedSnapshot::view`])
/// or of a live index ([`ActIndex::as_view`]): the node arena and lookup
/// table are borrowed; only the 24-byte roots array and the fixed-size
/// build metadata are copied out. It is the one probe surface of this
/// crate: every probe goes through the same [`crate::trie`] walks.
#[derive(Debug, Clone)]
pub struct ActIndexView<'a> {
    /// The arena's base segment (the whole arena, for a snapshot).
    base: &'a [u32],
    /// The arena's owned nodes past the base (empty for a snapshot).
    ext: &'a [u32],
    roots: [u32; 6],
    table: &'a [u32],
    stats: BuildStats,
    inserted_cells: u64,
    denormalized_slots: u64,
}

impl<'a> ActIndexView<'a> {
    /// Validates a full snapshot held in the 8-byte aligned `bytes`
    /// (structure before any section is sliced, the checksum and the
    /// entry check concurrently after that; see the module docs) and
    /// returns its [`Layout`] with a view over it — the one parse behind
    /// [`MappedSnapshot`], which stores the layout so later views skip
    /// re-validation. Never panics on malformed input.
    fn parse(bytes: &'a [u8]) -> Result<(Layout, ActIndexView<'a>), SnapshotError> {
        if cfg!(target_endian = "big") {
            return Err(SnapshotError::UnsupportedEndian);
        }
        if bytes.len() < HEADER_LEN || !bytes.len().is_multiple_of(8) {
            return Err(SnapshotError::Truncated { have: bytes.len() });
        }
        let words = bytes_as_words(bytes);
        let lay = validate(words)?;

        let slots = bytes_as_u32s(&bytes[lay.trie.0..lay.trie.0 + lay.trie.1]);
        let mut roots = [0u32; 6];
        for (r, c) in roots
            .iter_mut()
            .zip(bytes[lay.roots.0..lay.roots.0 + ROOTS_LEN].chunks_exact(4))
        {
            *r = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
        let table = bytes_as_u32s(&bytes[lay.table.0..lay.table.0 + lay.table.1]);
        let arena = RawTrie {
            base: slots,
            ext: &[],
            roots: &roots,
        };

        // This thread chains the checksum while a helper runs the entry
        // check (see the module docs); the results are reported below in
        // serial order. If no helper can be spawned, the entry check runs
        // inline after the checksum and roots pass.
        let (checksum, entries) = std::thread::scope(|s| {
            let helper = std::thread::Builder::new()
                .name("act-snapshot-check".into())
                .spawn_scoped(s, || arena.validate_entries(table));
            let checksum = image_checksum(words);
            let entries = helper
                .ok()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            (checksum, entries)
        });
        if checksum != words[3] {
            return Err(SnapshotError::ChecksumMismatch {
                expected: words[3],
                found: checksum,
            });
        }
        let num_nodes = lay.trie.1 / NODE_BYTES;
        if roots.iter().any(|&r| r as usize >= num_nodes) {
            return Err(SnapshotError::Inconsistent(
                "root node index out of arena range",
            ));
        }
        // After this, no probe of the arena can index out of bounds,
        // however the bytes were produced.
        entries
            .unwrap_or_else(|| arena.validate_entries(table))
            .map_err(SnapshotError::Inconsistent)?;

        let m = &words[lay.meta.0 / 8..lay.meta.0 / 8 + META_WORDS];
        if m[13] != 0 || m[14] != 0 || m[15] != 0 {
            return Err(SnapshotError::Inconsistent(
                "reserved meta words must be zero",
            ));
        }
        if m[3] > 30 {
            return Err(SnapshotError::Inconsistent("terminal level out of range"));
        }
        if m[8] as usize != lay.trie.1 {
            return Err(SnapshotError::Inconsistent(
                "stats act_bytes disagrees with the trie section",
            ));
        }
        if m[9] as usize != lay.table.1 {
            return Err(SnapshotError::Inconsistent(
                "stats lookup_table_bytes disagrees with the table section",
            ));
        }
        let stats = BuildStats {
            precision_m: f64::from_bits(m[2]),
            terminal_level: m[3] as u8,
            covering_cells: m[4],
            indexed_cells: m[5],
            denormalized_slots: m[6],
            pushdown_splits: m[7],
            act_bytes: m[8] as usize,
            lookup_table_bytes: m[9] as usize,
            build_coverings_secs: f64::from_bits(m[10]),
            build_supercover_secs: f64::from_bits(m[11]),
            build_insert_secs: f64::from_bits(m[12]),
        };
        Ok((
            lay,
            ActIndexView {
                base: slots,
                ext: &[],
                roots,
                table,
                stats,
                inserted_cells: m[0],
                denormalized_slots: m[1],
            },
        ))
    }

    /// A borrowed view over a live [`ActIndex`] (no snapshot bytes
    /// involved): the same query surface as a parsed snapshot view, so
    /// serving code can treat owned (mutated) and mapped indexes
    /// uniformly. No validation — the index is trusted by construction.
    pub(crate) fn from_index(ix: &'a ActIndex) -> ActIndexView<'a> {
        let raw = ix.act().raw();
        ActIndexView {
            base: raw.base,
            ext: raw.ext,
            roots: *ix.act().roots(),
            table: ix.table().words(),
            stats: ix.stats().clone(),
            inserted_cells: ix.act().inserted_cells(),
            denormalized_slots: ix.act().denormalized_slots(),
        }
    }

    /// Resolves a [`Probe`] returned by this view's batch or scalar
    /// probes into `(polygon id, is_true_hit)` pairs, consulting the
    /// borrowed lookup table when necessary — the view-side counterpart
    /// of [`crate::trie::resolve_probe`].
    #[inline]
    pub fn resolve_refs(&self, probe: Probe) -> impl Iterator<Item = (u32, bool)> + '_ {
        resolve_probe_words(probe, self.table)
    }

    #[inline]
    fn raw(&self) -> RawTrie<'_> {
        RawTrie {
            base: self.base,
            ext: self.ext,
            roots: &self.roots,
        }
    }

    /// Probes with a leaf (or any sufficiently deep) cell id — the hot
    /// path.
    ///
    /// The descent is comparison-free in the paper's sense: it extracts
    /// one key byte per level and jumps; the only branches distinguish
    /// entry tags.
    #[inline]
    pub fn probe_cell(&self, leaf: CellId) -> Probe {
        self.raw().lookup(leaf)
    }

    /// Probes a batch of leaf cell ids, writing `out[i]` =
    /// [`ActIndexView::probe_cell`]`(cells[i])` — the batched hot path.
    ///
    /// Rationale: a single probe is a chain of up to 7 *dependent*
    /// cache-missing loads — the memory pipeline stalls on every level.
    /// This walk instead advances a block of up to
    /// [`crate::trie::MAX_PROBE_BLOCK`] keys *level-synchronously*: within
    /// one level the loads of different lanes are independent, so the
    /// core keeps many misses in flight (memory-level parallelism)
    /// instead of serializing them. Lanes that resolve early are
    /// compacted out of the active list.
    ///
    /// # Panics
    /// Panics if `cells.len() != out.len()`.
    #[inline]
    pub fn probe_batch(&self, cells: &[CellId], out: &mut [Probe]) {
        self.raw().lookup_batch(cells, out);
    }

    /// [`ActIndexView::probe_batch`] plus per-cell termination depths:
    /// `depths[i]` is the number of trie node accesses cell `i` made (0
    /// for an empty root face, 1..=7 otherwise), so `depths[i]` ×
    /// [`crate::trie::GRANULARITY`] is the quadtree level of the slot
    /// that ended the walk. Same level-synchronous walk, same
    /// memory-level parallelism; the extra cost is one byte store per
    /// lane per level, so it is cheap enough to run always-on in the
    /// serving pipeline.
    ///
    /// # Panics
    /// Panics if the three slices' lengths disagree.
    #[inline]
    pub fn probe_batch_depths(&self, cells: &[CellId], out: &mut [Probe], depths: &mut [u8]) {
        self.raw().lookup_batch_depths(cells, out, depths);
    }

    /// Probes with a lat/lng coordinate (degree-space `Coord`).
    #[inline]
    pub fn probe_coord(&self, c: Coord) -> Probe {
        self.probe_cell(crate::index::coord_to_cell(c))
    }

    /// The `(polygon id, is_true_hit)` pairs for a query point.
    pub fn lookup_refs(&self, c: Coord) -> Vec<(u32, bool)> {
        resolve_probe_words(self.probe_coord(c), self.table).collect()
    }

    /// Build metrics restored from the snapshot.
    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Nodes in the borrowed arena (including the sentinel).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        (self.base.len() + self.ext.len()) / FANOUT
    }

    /// Bytes of index data the view borrows (trie + lookup table).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.base)
            + std::mem::size_of_val(self.ext)
            + std::mem::size_of_val(self.table)
    }

    /// Writes this view's snapshot to `path` through
    /// [`write_file_atomic_with`], streamed with no image of it in
    /// memory, and returns its whole-file checksum.
    ///
    /// # Errors
    /// Propagates I/O errors; a failed write leaves `path` untouched.
    pub fn save_file(&self, path: &std::path::Path) -> Result<u64, SnapshotError> {
        write_file_atomic_with(path, |w| write_view(self, w).map(|(_, sum)| sum))
    }

    /// Deep-copies the borrowed sections into an owned [`ActIndex`] with
    /// a one-segment arena.
    pub fn to_owned_index(&self) -> ActIndex {
        let heap = |words: Vec<u32>| SharedWords::Heap(Arc::new(words));
        ActIndex::from_parts(
            Act::from_raw_parts(
                heap([self.base, self.ext].concat()),
                self.roots,
                self.inserted_cells,
                self.denormalized_slots,
            ),
            LookupTable::from_words(heap(self.table.to_vec())),
            self.stats.clone(),
        )
    }
}

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

/// What actually holds a [`MappedSnapshot`]'s bytes.
#[derive(Debug)]
enum Backing {
    /// A live read-only file mapping: probes run straight off the page
    /// cache, and a warm load copies nothing but the roots and metadata.
    Mapped(mmapio::Mmap),
    /// The portable path: the whole snapshot read into an owned aligned
    /// buffer ([`MappedSnapshot::read_from`]; also non-unix targets and
    /// unmappable or ragged files).
    Heap(Vec<u64>),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m.as_bytes(),
            Backing::Heap(words) => words_as_bytes(words),
        }
    }
}

/// A self-contained, query-ready snapshot: the bytes (memory-mapped when
/// the platform allows, an owned aligned copy otherwise) together with
/// their validated layout. Constructing one runs the full validation
/// exactly once; every [`MappedSnapshot::view`] after that is a few
/// slice borrows — cheap enough to call per batch, which is what the
/// serving layer does.
///
/// Unlike [`ActIndexView`], this type owns its backing and so has no
/// lifetime parameter: it can be put in an `Arc` and shared across
/// worker threads, which is exactly the multi-worker single-mapping
/// serving story from the paper's online-join motivation.
#[derive(Debug)]
pub struct MappedSnapshot {
    backing: Backing,
    layout: Layout,
    roots: [u32; 6],
    stats: BuildStats,
    inserted_cells: u64,
    denormalized_slots: u64,
}

impl MappedSnapshot {
    /// Opens `path` for probing, preferring a real `mmap`.
    ///
    /// Falls back to reading the file with [`MappedSnapshot::read_from`]
    /// when mapping is not an option — non-unix target, empty file, or a
    /// file whose size is not a whole number of words (a mapping of those
    /// could never pass validation, but the typed error should come from
    /// the canonical reader, not from a misalignment artifact). Validation
    /// failures of well-formed mappings are returned as-is; they would
    /// fail identically from the heap.
    ///
    /// # Errors
    /// Any [`SnapshotError`]; never panics on malformed input.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<MappedSnapshot, SnapshotError> {
        let path = path.as_ref();
        match mmapio::Mmap::map_path(path) {
            Ok(map)
                if (map.as_bytes().as_ptr() as usize).is_multiple_of(8)
                    && map.len() >= HEADER_LEN
                    && map.len().is_multiple_of(8) =>
            {
                Self::from_backing(Backing::Mapped(map))
            }
            // Unsupported target, unmappable file, or a mapping no view
            // could accept (short/ragged): take the heap path, which
            // produces the canonical typed error for bad files.
            _ => Self::read_from(&mut std::fs::File::open(path)?),
        }
    }

    /// Reads a whole snapshot from `r` into an owned aligned buffer and
    /// validates it. The header is read first so the buffer is sized
    /// exactly from its `total_len` — one allocation, no realloc copies
    /// on the census-scale path. Magic and version are checked *before*
    /// `total_len` is trusted (a non-snapshot stream must not dictate an
    /// allocation), and memory is reserved fallibly and touched only as
    /// bytes actually arrive, so even a forged length cannot force a
    /// huge zeroed allocation. The stream must end exactly at
    /// `total_len`.
    ///
    /// # Errors
    /// I/O errors, [`SnapshotError::Truncated`] /
    /// [`SnapshotError::LengthMismatch`] when the stream ends early or
    /// runs past its header's length, [`SnapshotError::BadMagic`] /
    /// [`SnapshotError::UnsupportedVersion`] for non-snapshot input, and
    /// any validation failure; never panics on malformed input.
    pub fn read_from(r: &mut impl Read) -> Result<MappedSnapshot, SnapshotError> {
        /// Reads until `buf` is full or EOF; returns the bytes read.
        fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, SnapshotError> {
            let mut n = 0;
            while n < buf.len() {
                match r.read(&mut buf[n..]) {
                    Ok(0) => break,
                    Ok(k) => n += k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(n)
        }

        let mut words: Vec<u64> = vec![0; HEADER_WORDS];
        let got = fill(r, words_as_bytes_mut(&mut words))?;
        if got < HEADER_LEN {
            return Err(SnapshotError::Truncated { have: got });
        }
        let header = words_as_bytes(&words);
        if header[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let total = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let total = usize::try_from(total)
            .ok()
            .filter(|t| *t >= HEADER_LEN && t.is_multiple_of(8))
            .ok_or(SnapshotError::BadHeader("implausible total length"))?;
        let total_words = total / 8;
        words
            .try_reserve_exact(total_words - HEADER_WORDS)
            .map_err(|_| {
                SnapshotError::Io(std::io::Error::new(
                    std::io::ErrorKind::OutOfMemory,
                    "snapshot header claims more memory than available",
                ))
            })?;
        // Extend in bounded chunks: only bytes that actually arrive get
        // their pages touched, whatever length the header claimed.
        while words.len() < total_words {
            let old = words.len();
            words.resize(old + (total_words - old).min(1 << 16), 0);
            let n = fill(r, &mut words_as_bytes_mut(&mut words)[old * 8..])?;
            if old * 8 + n < words.len() * 8 {
                let have = old * 8 + n;
                return Err(if have.is_multiple_of(8) {
                    SnapshotError::LengthMismatch {
                        expected: total as u64,
                        actual: have as u64,
                    }
                } else {
                    SnapshotError::Truncated { have }
                });
            }
        }
        // The stream must end exactly where the header said it would.
        if fill(r, &mut [0u8; 1])? != 0 {
            return Err(SnapshotError::LengthMismatch {
                expected: total as u64,
                actual: total as u64 + 1,
            });
        }
        Self::from_backing(Backing::Heap(words))
    }

    /// Validates `backing` once and captures the layout + copied-out
    /// header fields that make later [`MappedSnapshot::view`] calls
    /// borrow-only.
    fn from_backing(backing: Backing) -> Result<MappedSnapshot, SnapshotError> {
        let (layout, roots, stats, inserted_cells, denormalized_slots) = {
            let (layout, view) = ActIndexView::parse(backing.bytes())?;
            (
                layout,
                view.roots,
                view.stats,
                view.inserted_cells,
                view.denormalized_slots,
            )
        };
        Ok(MappedSnapshot {
            backing,
            layout,
            roots,
            stats,
            inserted_cells,
            denormalized_slots,
        })
    }

    /// A zero-copy view over the backing bytes. Infallible and cheap:
    /// validation already happened in the constructor, so this is slice
    /// arithmetic plus a small stats copy.
    pub fn view(&self) -> ActIndexView<'_> {
        ActIndexView {
            base: self.section_words(self.layout.trie),
            ext: &[],
            roots: self.roots,
            table: self.section_words(self.layout.table),
            stats: self.stats.clone(),
            inserted_cells: self.inserted_cells,
            denormalized_slots: self.denormalized_slots,
        }
    }

    /// The validated section at `(byte offset, byte length)`, as words.
    #[inline]
    pub(crate) fn section_words(&self, (off, len): (usize, usize)) -> &[u32] {
        bytes_as_u32s(&self.backing.bytes()[off..off + len])
    }

    /// An owned, mutable index whose arena and lookup table are this
    /// snapshot's sections, borrowed; see [`ActIndex::from_mapped`].
    pub(crate) fn shared_index(self: Arc<Self>) -> ActIndex {
        let (trie, table) = (self.layout.trie, self.layout.table);
        let act = Act::from_raw_parts(
            SharedWords::Mapped(Arc::clone(&self), trie),
            self.roots,
            self.inserted_cells,
            self.denormalized_slots,
        );
        let stats = self.stats.clone();
        let table = LookupTable::from_words(SharedWords::Mapped(self, table));
        ActIndex::from_parts(act, table, stats)
    }

    /// True when the backing is a live file mapping (false on the heap
    /// fallback path).
    #[inline]
    pub fn is_mmap(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// The raw snapshot bytes (8-byte aligned in either backing).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.backing.bytes()
    }

    /// Build metrics restored from the snapshot.
    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Deep-copies the snapshot into an owned [`ActIndex`].
    pub fn to_owned_index(&self) -> ActIndex {
        self.view().to_owned_index()
    }

    /// The snapshot's whole-file checksum from the validated header — the
    /// identity a delta lineage binds to (see [`crate::delta`]).
    #[inline]
    pub fn checksum(&self) -> u64 {
        header_checksum(self.bytes()).expect("validated snapshot has a header")
    }
}

/// The whole-file checksum stored in a snapshot header (word 3), or
/// `None` if `bytes` is too short to hold one. Purely a header read — no
/// validation; pair with a full load before trusting the bytes. Useful
/// for binding freshly written snapshot images into a delta lineage
/// without reparsing them (see [`crate::delta`]).
pub fn header_checksum(bytes: &[u8]) -> Option<u64> {
    bytes
        .get(24..32)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte slice")))
}

/// Replaces the file at `path` with `bytes`; see
/// [`write_file_atomic_with`].
///
/// # Errors
/// Propagates I/O errors; a failed write removes the sibling and leaves
/// `path` untouched.
pub fn write_file_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    write_file_atomic_with(path, |w| w.write_all(bytes))
}

/// Replaces the file at `path` with what `write` streams: writes the
/// sibling `<name>.tmp` through a buffer, flushes it to disk with
/// `sync_all`, renames it over `path`, then syncs the directory so the
/// rename itself is durable. Rename is atomic on unix, so readers (and a
/// restart after a crash) find the old file or the new one whole, never a
/// torn mix; a mapping of the old file stays valid, since its inode lives
/// until unmapped. Returns what `write` returned.
///
/// # Errors
/// Propagates `write`'s errors and I/O errors; a failed write removes
/// the sibling and leaves `path` untouched.
pub fn write_file_atomic_with<T, E: From<std::io::Error>>(
    path: &std::path::Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<T, E>,
) -> Result<T, E> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let written = std::fs::File::create(&tmp).map_err(E::from).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        let out = write(&mut w)?;
        let f = w
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(out)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
    }
    written
}

/// Recomputes and patches the header checksum of a snapshot image in
/// place. Test-only hook: lets corruption tests mutate payload fields and
/// still reach the deeper validation layers behind the checksum.
#[doc(hidden)]
pub fn rewrite_checksum(bytes: &mut [u8]) {
    assert!(bytes.len() >= HEADER_LEN && bytes.len().is_multiple_of(8));
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    bytes[24..32].copy_from_slice(&image_checksum(&words).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Polygon, Ring};

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

    fn sample_index() -> ActIndex {
        let polys = vec![
            square(-74.05, 40.70, 0.02),
            square(-73.95, 40.70, 0.02),
            square(-74.00, 40.70, 0.03),
        ];
        ActIndex::build(&polys, 15.0).unwrap()
    }

    fn save_to_vec(idx: &ActIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        let n = idx.save_snapshot(&mut bytes).unwrap();
        assert_eq!(n as usize, bytes.len());
        bytes
    }

    #[test]
    fn roundtrip_owned_is_byte_identical() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let loaded = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.act().slots(), idx.act().slots());
        assert_eq!(loaded.act().roots(), idx.act().roots());
        assert_eq!(loaded.act().inserted_cells(), idx.act().inserted_cells());
        assert_eq!(
            loaded.act().denormalized_slots(),
            idx.act().denormalized_slots()
        );
        assert_eq!(loaded.table().words(), idx.table().words());
        let (a, b) = (loaded.stats(), idx.stats());
        assert_eq!(a.precision_m, b.precision_m);
        assert_eq!(a.terminal_level, b.terminal_level);
        assert_eq!(a.covering_cells, b.covering_cells);
        assert_eq!(a.indexed_cells, b.indexed_cells);
        assert_eq!(a.denormalized_slots, b.denormalized_slots);
        assert_eq!(a.pushdown_splits, b.pushdown_splits);
        assert_eq!(a.act_bytes, b.act_bytes);
        assert_eq!(a.lookup_table_bytes, b.lookup_table_bytes);
        assert_eq!(a.build_coverings_secs, b.build_coverings_secs);
        assert_eq!(a.build_supercover_secs, b.build_supercover_secs);
        assert_eq!(a.build_insert_secs, b.build_insert_secs);
        // And saving the loaded index reproduces the bytes exactly.
        assert_eq!(save_to_vec(&loaded), bytes);
    }

    #[test]
    fn view_probes_match_owned() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let snap = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        let view = snap.view();
        assert_eq!(view.num_nodes(), idx.act().num_nodes());
        assert_eq!(view.memory_bytes(), idx.memory_bytes());
        for k in 0..400 {
            let c = Coord::new(-74.1 + 0.0005 * k as f64, 40.70);
            assert_eq!(view.probe_coord(c), idx.as_view().probe_coord(c), "at {c}");
            assert_eq!(view.lookup_refs(c), idx.as_view().lookup_refs(c), "at {c}");
        }
        let cells: Vec<CellId> = (0..300)
            .map(|k| crate::index::coord_to_cell(Coord::new(-74.1 + 0.001 * k as f64, 40.70)))
            .collect();
        let mut got = vec![Probe::Miss; cells.len()];
        let mut want = vec![Probe::Miss; cells.len()];
        view.probe_batch(&cells, &mut got);
        idx.as_view().probe_batch(&cells, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = ActIndex::build(&[], 15.0).unwrap();
        let bytes = save_to_vec(&idx);
        let loaded = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.act().slots(), idx.act().slots());
        assert_eq!(
            loaded.as_view().probe_coord(Coord::new(-74.0, 40.7)),
            Probe::Miss
        );
        let snap = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(
            snap.view().probe_coord(Coord::new(-74.0, 40.7)),
            Probe::Miss
        );
    }

    fn temp_snap(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("act-snap-test-{}-{name}.snap", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn mapped_snapshot_matches_owned_load() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let path = temp_snap("mapped", &bytes);
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(cfg!(unix), mapped.is_mmap(), "unix targets must map");
        assert_eq!(mapped.bytes(), bytes.as_slice());
        assert_eq!(mapped.stats().act_bytes, idx.stats().act_bytes);
        for k in 0..200 {
            let c = Coord::new(-74.1 + 0.001 * k as f64, 40.70);
            assert_eq!(
                mapped.view().probe_coord(c),
                idx.as_view().probe_coord(c),
                "at {c}"
            );
            assert_eq!(
                mapped.view().lookup_refs(c),
                idx.as_view().lookup_refs(c),
                "at {c}"
            );
        }
        assert!(mapped.to_owned_index().identical_to(&idx));
        // The heap reader answers identically and is not a map.
        let heap = MappedSnapshot::read_from(&mut std::fs::File::open(&path).unwrap()).unwrap();
        assert!(!heap.is_mmap());
        let c = Coord::new(-74.05, 40.70);
        assert_eq!(heap.view().probe_coord(c), mapped.view().probe_coord(c));
        std::fs::remove_file(&path).unwrap();
    }

    /// The served index at boot: `from_mapped` answers every probe as
    /// the snapshot's own view does, reading the mapping's arena and
    /// table in place, and keeps reading them until its first mutation.
    #[test]
    fn from_mapped_borrows_the_mapping_until_the_first_mutation() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let path = temp_snap("from-mapped", &bytes);
        let snap = Arc::new(MappedSnapshot::open(&path).unwrap());
        let view = snap.view();
        let borrows = |ix: &ActIndex| {
            let v = ix.as_view();
            v.ext.is_empty() && std::ptr::eq(v.base, view.base) && std::ptr::eq(v.table, view.table)
        };
        let served = ActIndex::from_mapped(Arc::clone(&snap));
        assert!(borrows(&served), "opening copied the mapping");
        assert_eq!(served.mapped_checksum(), Some(snap.checksum()));
        assert_eq!(snap.checksum(), header_checksum(&bytes).unwrap());
        let cells: Vec<CellId> = (0..2_000)
            .map(|k| {
                let c = Coord::new(-74.1 + 0.0001 * k as f64, 40.66 + 0.00004 * k as f64);
                crate::index::coord_to_cell(c)
            })
            .collect();
        let answers = |v: &ActIndexView<'_>| {
            let (mut probes, mut depths) = (vec![Probe::Miss; cells.len()], vec![0; cells.len()]);
            v.probe_batch_depths(&cells, &mut probes, &mut depths);
            let refs: Vec<Vec<(u32, bool)>> = probes
                .iter()
                .map(|&p| v.resolve_refs(p).collect())
                .collect();
            (probes, depths, refs)
        };
        let want = answers(&view);
        assert_eq!(answers(&served.as_view()), want);
        for (i, &cell) in cells.iter().enumerate() {
            assert_eq!(served.as_view().probe_cell(cell), want.0[i], "cell {i}");
        }

        // A clone shares it too, and removing an id nobody references
        // is no mutation.
        let mut edited = served.clone();
        assert!(!edited.remove_polygon(9));
        assert!(borrows(&edited));
        assert_eq!(edited.mapped_checksum(), Some(snap.checksum()));
        // The first mutation copies the table and the nodes it writes;
        // the served index still reads the mapping.
        edited
            .insert_polygon(9, &square(-74.08, 40.69, 0.004))
            .unwrap();
        assert!(!borrows(&edited));
        assert!(edited.act().ext_bytes() > 0);
        assert_eq!(edited.mapped_checksum(), None);
        assert!(borrows(&served));
        assert_eq!(answers(&served.as_view()), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unaligned_bytes_fall_back_to_heap_copy() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        // Construct a guaranteed-misaligned slice over the same content.
        let mut padded = vec![0u8; bytes.len() + 8];
        let base = padded.as_ptr() as usize;
        let off = if base.is_multiple_of(8) {
            1
        } else {
            8 - base % 8 + 1
        };
        padded[off..off + bytes.len()].copy_from_slice(&bytes);
        let shifted = &padded[off..off + bytes.len()];
        assert!(!(shifted.as_ptr() as usize).is_multiple_of(8));
        // The reader copies into aligned storage instead of erroring.
        let snap = MappedSnapshot::read_from(&mut &shifted[..]).unwrap();
        assert!(!snap.is_mmap());
        for k in 0..200 {
            let c = Coord::new(-74.1 + 0.001 * k as f64, 40.70);
            assert_eq!(
                snap.view().probe_coord(c),
                idx.as_view().probe_coord(c),
                "at {c}"
            );
        }
    }

    #[test]
    fn mapped_snapshot_rejects_corruption_and_ragged_files() {
        let idx = sample_index();
        let mut bytes = save_to_vec(&idx);
        // Flip a payload byte: the checksum must catch it via either path.
        bytes[HEADER_LEN + 3] ^= 0xFF;
        let path = temp_snap("corrupt", &bytes);
        assert!(matches!(
            MappedSnapshot::open(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // A ragged-length file cannot be viewed; the heap fallback
        // produces the canonical typed error rather than a panic.
        let mut ragged = save_to_vec(&idx);
        ragged.push(0);
        let path2 = temp_snap("ragged", &ragged);
        assert!(MappedSnapshot::open(&path2).is_err());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn view_resolve_refs_matches_lookup_refs() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let snap = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        let view = snap.view();
        for k in 0..100 {
            let c = Coord::new(-74.08 + 0.001 * k as f64, 40.70);
            let probe = view.probe_coord(c);
            let via_resolve: Vec<(u32, bool)> = view.resolve_refs(probe).collect();
            assert_eq!(via_resolve, idx.as_view().lookup_refs(c), "at {c}");
        }
    }

    #[test]
    fn max_polygon_id_round_trips_through_every_load_path() {
        use crate::refs::MAX_POLYGON_ID;
        // A large square under the top id, overlapping polygon 0's west
        // half: the top id appears inline as a true hit (deep inside) and
        // a candidate (on its boundary), and in two-reference table sets.
        let mut idx = sample_index();
        idx.insert_polygon(MAX_POLYGON_ID, &square(-74.08, 40.70, 0.02))
            .unwrap();
        let bytes = save_to_vec(&idx);
        let owned = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        let snap = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        let heap = snap.view();
        let path = temp_snap("max-id", &bytes);
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(cfg!(unix), mapped.is_mmap());
        let mmap = mapped.view();

        let (mut inline, mut tabled) = ([false; 2], [false; 2]);
        for k in 0..2_000 {
            let c = Coord::new(-74.11 + 0.00003 * k as f64, 40.70 + 0.000_01 * k as f64);
            let want = idx.as_view().lookup_refs(c);
            assert_eq!(owned.as_view().lookup_refs(c), want, "owned at {c}");
            assert_eq!(heap.lookup_refs(c), want, "heap view at {c}");
            assert_eq!(mmap.lookup_refs(c), want, "mmap view at {c}");
            for &(id, hit) in &want {
                if id == MAX_POLYGON_ID {
                    match idx.as_view().probe_coord(c) {
                        Probe::One(_) => inline[usize::from(hit)] = true,
                        _ => tabled[usize::from(hit)] = true,
                    }
                }
            }
        }
        assert_eq!(inline, [true, true], "inline candidate and true hit");
        assert!(tabled.contains(&true), "top id inside a table set");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn view_to_owned_equals_direct_load() {
        let idx = sample_index();
        let bytes = save_to_vec(&idx);
        let snap = MappedSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        let owned = snap.view().to_owned_index();
        let direct = ActIndex::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(owned.act().slots(), direct.act().slots());
        assert_eq!(owned.table().words(), direct.table().words());
    }

    #[test]
    fn write_file_atomic_replaces_content_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("act-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.snap");
        write_file_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_file_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("base.snap")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
