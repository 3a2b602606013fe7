//! Epoch-counted snapshot hot-swap, now delta-aware.
//!
//! The serving invariant: a probe batch runs start-to-finish against
//! **one** index. [`IndexStore::current`] hands out an
//! `Arc<ServeIndex>` plus the epoch it belongs to; a concurrent swap
//! publishes a new index for *future* batches while in-flight ones
//! finish on the Arc they already hold — the rolling-restart story
//! (ship a snapshot, not a polygon set), in process. The store is a
//! `Mutex<Arc<…>>` held only long enough to clone or replace the Arc —
//! nanoseconds per batch, uncontended in practice — plus a monotonic
//! epoch counter that responses echo so clients can observe a swap.
//!
//! [`ServeIndex`] is the two-sourced serving artifact: `Mapped` is the
//! mmap-backed full snapshot the server boots from; `Owned` is a live
//! [`ActIndex`] produced by applying `ACTDLT01` delta files (see
//! [`act_core::delta`]) to the running index — a few fence edits arrive
//! in milliseconds without remapping the multi-hundred-MB base.
//!
//! [`watch_loop`] is the operator-facing half. Each poll it checks two
//! things:
//!
//! 1. **The base snapshot path.** When its signature changes and holds
//!    still for one interval, the file is opened, validated, and
//!    swapped in (a *full* reload); any delta lineage in progress is
//!    abandoned — a new base supersedes it.
//! 2. **The next delta sibling** `<base>.d<seq>` (seq = 1, 2, … within
//!    the current lineage). A stable new delta is validated against the
//!    lineage cursor ([`act_core::DeltaLink`]: base checksum, sequence,
//!    predecessor checksum), applied in place to the watcher's private
//!    scratch index, and the scratch is published — the store flips one
//!    Arc, the epoch bumps, zero requests drop. After
//!    [`FOLD_AFTER_DELTAS`] applies the watcher *folds*: it writes the
//!    working index as a new base (sibling + rename), deletes the
//!    consumed delta files, and restarts the lineage at seq 1.
//!
//! ## Memory model
//!
//! The first delta opens the lineage: the mapped base is copied into an
//! owned index, primed for mutation (its live-id set and per-id cell
//! inventory, see [`ActIndex::prime_mutations`]), and the delta is
//! applied to that copy directly — no second copy exists before the
//! first publish. Publishing it drops the store's hold on the mapping,
//! so the base's pages leave the process once in-flight batches finish.
//! Only then is the next scratch cloned from the published index. From
//! there on the steady state is two owned arenas (published + scratch)
//! plus one inventory, which the two share: a clone copies the id map,
//! and an apply replaces only the lists of the ids it touches.
//!
//! Compaction runs only once an index's waste ratio crosses
//! [`ActIndex::COMPACT_WASTE_THRESHOLD`], in [`WATCH_COMPACT_BUDGET`]
//! slices: on idle polls, and under the same budget inside an apply, so
//! no apply ever rewrites the whole arena in one go. Out of scope: one
//! arena instead of two needs structural sharing inside the node arena,
//! and compaction's extraction pass (one read of the live cell set) is
//! still not sliced.
//!
//! ## Failure handling
//!
//! Three failure classes get three distinct treatments:
//!
//! * **Corrupt or wrong-chain deltas** (bit flips, truncation, wrong
//!   base, out-of-order sequence) are **quarantined**: the file is
//!   renamed to `<file>.quarantine`, the `quarantines` counter bumps,
//!   the current epoch keeps serving, and the lineage resumes as soon as
//!   a good file appears at the expected sequence. The bad bytes stay on
//!   disk for the operator; the watcher never re-reads them.
//! * **Transient IO errors** (stat/open/read failures that are not
//!   `NotFound`) are surfaced on the `watch_errors` counter and retried
//!   under **capped exponential backoff** (the poll interval doubles per
//!   consecutive error, capped at [`WATCH_BACKOFF_CAP`]); they are *not*
//!   treated as "no change" — the old behavior silently re-baselined
//!   past a flapping disk and could miss a real replacement forever.
//! * **Invalid base snapshots** keep the current index serving and are
//!   retried when the path's signature changes again.
//!
//! Prefer `write to a sibling + rename` over in-place rewrites: rename
//! is atomic on unix, and the old mapping stays valid because the old
//! inode lives until unmapped.

use act_core::{apply_delta_file, ActIndex, DeltaLink, MappedSnapshot, SnapshotError};
use act_obs::TraceRing;
use geom::Coord;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

#[cfg(feature = "fault-injection")]
use crate::faults::{Faults, Site};

/// Deltas applied before the watcher folds them into a new base file.
pub const FOLD_AFTER_DELTAS: u64 = 16;

/// Ceiling on the watcher's exponential error backoff: however long a
/// disk flaps, the watcher re-checks at least this often.
pub const WATCH_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Per-call deadline budget for compaction work on the watcher's scratch
/// index, both on idle polls and inside applies (it is the lineage
/// index's [`ActIndex::set_compact_budget`]): mutation bursts (delta
/// applies with heavy tombstone load) can no longer stall the
/// apply-to-publish path behind a monolithic arena rewrite — compaction
/// proceeds in these slices and resumes across polls.
pub const WATCH_COMPACT_BUDGET: Duration = Duration::from_millis(5);

/// Counters the watcher shares with the serving stack (they ride the
/// PING/STATS counter block).
#[derive(Debug, Default)]
pub struct WatchCounters {
    errors: AtomicU64,
    quarantines: AtomicU64,
}

impl WatchCounters {
    /// Transient IO errors hit while statting/reading watched files.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Corrupt/wrong-chain delta files renamed to `*.quarantine`.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn note_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }
}

/// The index being served: a mapped base snapshot, or an owned live
/// index carrying delta edits on top of one. Both expose the same
/// zero-copy query view, so batch execution never cares which it holds.
// Always held behind one `Arc` per epoch, never moved or stored in
// bulk, so the variant size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServeIndex {
    /// The mmap-backed full snapshot (boot and full-reload path).
    Mapped(MappedSnapshot),
    /// A live index with delta edits applied (delta hot-apply path).
    Owned(ActIndex),
}

impl ServeIndex {
    /// The borrowed query view a probe batch runs against.
    #[inline]
    pub fn view(&self) -> act_core::ActIndexView<'_> {
        match self {
            ServeIndex::Mapped(snap) => snap.view(),
            ServeIndex::Owned(ix) => ix.as_view(),
        }
    }

    /// `(polygon id, is_true_hit)` pairs for one query point.
    pub fn lookup_refs(&self, c: Coord) -> Vec<(u32, bool)> {
        self.view().lookup_refs(c)
    }
}

/// The epoch-counted holder of the serving index.
///
/// The epoch is more than a version number clients echo: it is the
/// **invalidation key** for the hot-cell result cache
/// ([`crate::cache::HotCellCache`]). Every publish — full swap or delta
/// apply — bumps it, and cache entries carry the epoch they were filled
/// under, so after any publish every cached answer silently stops
/// matching without a scan. Anything that changes what a probe may
/// answer MUST go through [`IndexStore::swap`]/[`IndexStore::swap_owned`]
/// for exactly this reason.
#[derive(Debug)]
pub struct IndexStore {
    current: Mutex<Arc<ServeIndex>>,
    epoch: AtomicU64,
    delta_applies: AtomicU64,
}

impl IndexStore {
    /// Starts serving `snap` at epoch 1.
    pub fn new(snap: MappedSnapshot) -> IndexStore {
        IndexStore {
            current: Mutex::new(Arc::new(ServeIndex::Mapped(snap))),
            epoch: AtomicU64::new(1),
            delta_applies: AtomicU64::new(0),
        }
    }

    /// The index to answer the next batch with, and its epoch. The
    /// returned Arc keeps that index (and any file mapping behind it)
    /// alive for as long as the batch needs it, whatever swaps happen
    /// meanwhile.
    pub fn current(&self) -> (Arc<ServeIndex>, u32) {
        // Read the epoch while holding the lock so a concurrent swap
        // can't pair the old Arc with the new epoch. A poisoned lock is
        // recovered, not propagated: the guarded value is a swap-only
        // Arc that is never left half-written, so whatever panicked
        // while holding it (now survivable via the worker catch_unwind)
        // left a fully consistent store behind.
        let guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.load(Ordering::Acquire) as u32;
        (Arc::clone(&guard), epoch)
    }

    /// Publishes a full snapshot for future batches; returns the new
    /// epoch. In-flight batches finish on whatever
    /// [`IndexStore::current`] gave them.
    pub fn swap(&self, snap: MappedSnapshot) -> u32 {
        self.publish(Arc::new(ServeIndex::Mapped(snap)))
    }

    /// Publishes an owned (delta-edited) index for future batches and
    /// counts a delta apply; returns the new epoch.
    pub fn swap_owned(&self, index: ActIndex) -> u32 {
        self.delta_applies.fetch_add(1, Ordering::Relaxed);
        self.publish(Arc::new(ServeIndex::Owned(index)))
    }

    fn publish(&self, next: Arc<ServeIndex>) -> u32 {
        // Poison recovery: see `current` — the Arc swap is atomic from
        // the store's point of view, so the value is always valid.
        let mut guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        *guard = next;
        epoch as u32
    }

    /// The current epoch (1 until the first swap).
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire) as u32
    }

    /// Successful publishes so far (`epoch - 1`): full snapshot swaps +
    /// delta applies.
    pub fn swaps(&self) -> u64 {
        u64::from(self.epoch()).saturating_sub(1)
    }

    /// Delta files applied onto the live index so far (a subset of
    /// [`IndexStore::swaps`]).
    pub fn delta_applies(&self) -> u64 {
        self.delta_applies.load(Ordering::Relaxed)
    }
}

/// A file's change signature: inode + modified time + length + content
/// fingerprint. The inode catches the documented rename-replacement flow
/// on unix: Linux stamps mtimes from the *coarse* clock (jiffy
/// granularity, a few ms), so two same-shaped snapshots written
/// back-to-back can carry identical `(mtime, len)` — but a rename always
/// installs a different inode. The fingerprint — FNV-1a over the first
/// [`FINGERPRINT_BYTES`] bytes (the snapshot header + section table,
/// whose whole-file checksum changes with any content change) — carries
/// that guarantee to platforms with no stable file id, where the old
/// inode-hardcoded-to-0 signature missed same-length rewrites forever.
/// Still cheap: one tiny pread per poll, never a content hash of
/// hundreds of MB.
type Signature = (u64, Option<SystemTime>, u64, u64);

/// How much of the file the fingerprint covers: the `ACTSNP01` 96-byte
/// header (magic, version, checksum, section table) — any valid rewrite
/// changes the embedded checksum, so this span is change-complete.
const FINGERPRINT_BYTES: usize = 96;

#[cfg(unix)]
fn file_id(meta: &std::fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

#[cfg(not(unix))]
fn file_id(_meta: &std::fs::Metadata) -> u64 {
    0 // non-unix: the content fingerprint carries the signature
}

/// FNV-1a over the first [`FINGERPRINT_BYTES`] bytes of `path`; IO
/// errors (other than interruption) surface to the caller so the watcher
/// can count and back off instead of silently degrading.
fn content_fingerprint(path: &Path) -> io::Result<u64> {
    use std::io::Read;
    let mut f = std::fs::File::open(path)?;
    let mut buf = [0u8; FINGERPRINT_BYTES];
    let mut n = 0usize;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &buf[..n] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

/// The change signature of the file at `path` right now, distinguishing
/// the three states a poll can land in: `Ok(Some(_))` — readable,
/// here is its signature; `Ok(None)` — the file does not exist (a real
/// state, not an error: deltas legitimately appear later); `Err` — a
/// transient IO failure that says nothing about whether the file
/// changed, which callers must *not* fold into "no change".
pub fn try_signature(path: &Path) -> io::Result<Option<Signature>> {
    let meta = match std::fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let fp = match content_fingerprint(path) {
        Ok(fp) => fp,
        // Deleted between the stat and the read: genuinely absent.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(Some((file_id(&meta), meta.modified().ok(), meta.len(), fp)))
}

/// The change signature of the snapshot file at `path` right now.
/// Capture it **before** opening the snapshot you are about to serve and
/// hand it to [`watch_loop`]: reading it later races a concurrent
/// replacement (the watcher would baseline on the new file while the
/// store still serves the old one, missing the swap forever). The
/// capture-then-open order makes the race benign — at worst the watcher
/// re-loads the file it is already serving.
///
/// Flattens transient IO errors to `None` — fine at spawn time (the
/// watcher just reloads), but the watcher itself polls through
/// [`try_signature`] so errors feed `watch_errors` and the backoff path.
pub fn snapshot_signature(path: &Path) -> Option<Signature> {
    try_signature(path).ok().flatten()
}

/// The sibling path of delta `seq` for the base snapshot at `base`:
/// `<base>.d<seq>` (e.g. `census.snap.d3`).
pub fn delta_path(base: &Path, seq: u64) -> PathBuf {
    let mut name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(&format!(".d{seq}"));
    base.with_file_name(name)
}

/// The delta lineage the watcher is carrying: where the chain is, the
/// index with every applied delta folded in (shared with the store), a
/// pre-armed mutable copy for the next apply, and how many applies since
/// the last fold.
struct Lineage {
    link: DeltaLink,
    /// The published state (what the store serves once a delta landed);
    /// `None` until this lineage's first apply is published.
    working: Option<Arc<ServeIndex>>,
    /// A private owned index primed for mutation, with the watcher's
    /// compaction budget: the owned copy of the mapped base when the
    /// lineage opens, afterwards a clone of `working`. Deltas apply here
    /// *in place*, so no arena clone is on the apply-to-publish latency
    /// path — the scratch is re-cloned from the published index right
    /// after each swap, while readers are already on the new epoch (and
    /// after the first swap has released the mapped base). `None` only
    /// transiently mid-apply.
    scratch: Option<ActIndex>,
    applied: u64,
}

impl Lineage {
    /// Re-arms the scratch as a copy of the published state; `false`
    /// when nothing has been published yet.
    fn rearm(&mut self) -> bool {
        let Some(ServeIndex::Owned(working)) = self.working.as_deref() else {
            return false;
        };
        self.scratch = Some(working.clone());
        true
    }
}

/// Knobs for [`watch_loop_opts`]. `..WatchOptions::default()` keeps
/// call sites stable as fields grow.
pub struct WatchOptions {
    /// Steady-state poll interval (backoff multiplies it on errors).
    pub interval: Duration,
    /// Deltas applied before the watcher folds them into a new base
    /// (tests fold quickly).
    pub fold_after: u64,
    /// Shared error/quarantine counters (ride the STATS counter block).
    pub counters: Arc<WatchCounters>,
    /// Trace ring shared with the serving pipeline: swap, delta-apply,
    /// and quarantine lifecycle events are recorded unconditionally
    /// (they are rare and individually meaningful). `None` records
    /// nothing — the watcher stays trace-free when observability is off.
    pub trace: Option<Arc<TraceRing>>,
    /// Armed fault plan, when chaos-testing the watcher.
    #[cfg(feature = "fault-injection")]
    pub faults: Option<Arc<Faults>>,
}

impl Default for WatchOptions {
    fn default() -> WatchOptions {
        WatchOptions {
            interval: Duration::from_millis(500),
            fold_after: FOLD_AFTER_DELTAS,
            counters: Arc::new(WatchCounters::default()),
            trace: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// Sleeps `total` in small slices so a graceful drain never waits a
/// whole poll interval for the watcher to join. Returns `false` when
/// shutdown fired mid-sleep.
fn sleep_sliced(total: Duration, shutdown: &AtomicBool) -> bool {
    let wake = std::time::Instant::now() + total;
    loop {
        let left = wake.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
        if shutdown.load(Ordering::Acquire) {
            return false;
        }
    }
}

/// The pause before the next poll after `streak` consecutive transient
/// errors: `interval × 2^(streak-1)`, capped at [`WATCH_BACKOFF_CAP`]
/// but never shorter than the configured interval.
fn backoff(interval: Duration, streak: u32) -> Duration {
    let shift = streak.saturating_sub(1).min(8);
    interval
        .saturating_mul(1u32 << shift)
        .min(WATCH_BACKOFF_CAP)
        .max(interval)
}

/// A signature poll, routed through the fault plan when one is armed.
fn poll_signature(path: &Path, _opts: &WatchOptions) -> io::Result<Option<Signature>> {
    #[cfg(feature = "fault-injection")]
    if let Some(f) = &_opts.faults {
        if f.check(Site::WatchStat).is_some() {
            return Err(f.injected_error(Site::WatchStat));
        }
    }
    try_signature(path)
}

/// A base-snapshot open attempt, routed through the fault plan.
fn open_snapshot(path: &Path, _opts: &WatchOptions) -> Result<MappedSnapshot, SnapshotError> {
    #[cfg(feature = "fault-injection")]
    if let Some(f) = &_opts.faults {
        if f.check(Site::SnapshotOpen).is_some() {
            return Err(SnapshotError::Io(f.injected_error(Site::SnapshotOpen)));
        }
    }
    MappedSnapshot::open(path)
}

/// A delta apply attempt, routed through the fault plan.
fn apply_delta(
    next: &mut ActIndex,
    dpath: &Path,
    link: DeltaLink,
    _opts: &WatchOptions,
) -> Result<DeltaLink, SnapshotError> {
    #[cfg(feature = "fault-injection")]
    if let Some(f) = &_opts.faults {
        if f.check(Site::DeltaOpen).is_some() {
            return Err(SnapshotError::Io(f.injected_error(Site::DeltaOpen)));
        }
    }
    apply_delta_file(next, dpath, link)
}

/// Renames a rejected delta to `<file>.quarantine` so the watcher never
/// re-reads the bad bytes and the operator can inspect them.
fn quarantine_delta(dpath: &Path) -> io::Result<PathBuf> {
    let mut name = dpath
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".quarantine");
    let qpath = dpath.with_file_name(name);
    std::fs::rename(dpath, &qpath)?;
    Ok(qpath)
}

/// Spends the idle-poll compaction budget on the lineage scratch: delta
/// bursts with heavy tombstone load shed their arena waste a slice at a
/// time between polls instead of stalling an apply behind a monolithic
/// rewrite. Below the waste threshold this does nothing
/// ([`ActIndex::compact_deadline`] owns that policy).
fn idle_compact(lineage: &mut Option<Lineage>) {
    if let Some(lin) = lineage {
        if let Some(scratch) = lin.scratch.as_mut() {
            scratch.compact_deadline(std::time::Instant::now() + WATCH_COMPACT_BUDGET);
        }
    }
}

/// Polls `path` every `interval` until `shutdown`, swapping validated
/// new snapshots — and applying validated sibling delta files — into
/// `store`. `initial` is the signature of the file the store is
/// currently serving, captured by the caller **before** it opened that
/// snapshot (see [`snapshot_signature`]). Returns the number of
/// successful publishes (full swaps + delta applies).
///
/// A change is acted on only after its signature holds still for one
/// full interval (an in-place writer mid-copy keeps moving the mtime);
/// a signature whose load failed *validation* is remembered and not
/// retried until it changes again. Transient IO failures are different:
/// they are counted, retried under capped exponential backoff, and never
/// mistaken for "no change" (see the module docs' failure taxonomy).
pub fn watch_loop(
    path: &Path,
    interval: Duration,
    store: &IndexStore,
    shutdown: &AtomicBool,
    initial: Option<Signature>,
) -> u64 {
    watch_loop_opts(
        path,
        store,
        shutdown,
        initial,
        WatchOptions {
            interval,
            ..WatchOptions::default()
        },
    )
}

/// [`watch_loop`] with every knob exposed (see [`WatchOptions`]).
pub fn watch_loop_opts(
    path: &Path,
    store: &IndexStore,
    shutdown: &AtomicBool,
    initial: Option<Signature>,
    opts: WatchOptions,
) -> u64 {
    let interval = opts.interval;
    let fold_after = opts.fold_after;
    let mut loaded_sig = initial;
    let mut failed_sig: Option<Signature> = None;
    let mut prev_poll = loaded_sig;
    let mut lineage: Option<Lineage> = None;
    let mut delta_prev_poll: Option<Signature> = None;
    let mut delta_failed: Option<Signature> = None;
    let mut publishes = 0u64;
    // Consecutive transient-error polls; doubles the pause (capped).
    let mut err_streak = 0u32;
    while !shutdown.load(Ordering::Acquire) {
        let pause = if err_streak == 0 {
            interval
        } else {
            backoff(interval, err_streak)
        };
        if !sleep_sliced(pause, shutdown) {
            return publishes;
        }

        // 1. The base path: a changed, stable, valid snapshot is a full
        //    reload and supersedes any delta lineage in progress.
        let sig = match poll_signature(path, &opts) {
            Ok(s) => s,
            Err(e) => {
                // Says nothing about whether the file changed — count it
                // and retry under backoff rather than re-baselining.
                opts.counters.note_error();
                err_streak = err_streak.saturating_add(1);
                eprintln!("act-serve: watch stat of {path:?} failed ({e}); backing off");
                continue;
            }
        };
        let stable = sig == prev_poll;
        prev_poll = sig;
        if let Some(sig) = sig {
            if Some(sig) != loaded_sig && Some(sig) != failed_sig && stable {
                match open_snapshot(path, &opts) {
                    Ok(snap) => {
                        let epoch = store.swap(snap);
                        publishes += 1;
                        loaded_sig = Some(sig);
                        failed_sig = None;
                        lineage = None;
                        delta_prev_poll = None;
                        delta_failed = None;
                        err_streak = 0;
                        if let Some(t) = &opts.trace {
                            t.always("swap", &[("epoch", u64::from(epoch))]);
                        }
                        eprintln!("act-serve: hot-swapped snapshot {path:?} (epoch {epoch})");
                        continue;
                    }
                    Err(SnapshotError::Io(e)) => {
                        // Short/failed read: the bytes were never
                        // judged, so do NOT remember this signature as
                        // failed — back off and re-attempt the open.
                        opts.counters.note_error();
                        err_streak = err_streak.saturating_add(1);
                        eprintln!("act-serve: snapshot read at {path:?} failed ({e}); backing off");
                        continue;
                    }
                    Err(e) => {
                        // Invalid bytes: keep serving the old snapshot;
                        // retry when the signature changes again.
                        failed_sig = Some(sig);
                        eprintln!(
                            "act-serve: new snapshot at {path:?} rejected ({e}); keeping current"
                        );
                    }
                }
            }
        }
        // Base vanished or unchanged: look for the next delta sibling.

        // 2. The next delta in the lineage (seq 1 when none is open).
        let next_seq = lineage.as_ref().map_or(1, |l| l.link.next_seq);
        let dpath = delta_path(path, next_seq);
        let dsig = match poll_signature(&dpath, &opts) {
            Ok(s) => s,
            Err(e) => {
                opts.counters.note_error();
                err_streak = err_streak.saturating_add(1);
                eprintln!("act-serve: watch stat of {dpath:?} failed ({e}); backing off");
                continue;
            }
        };
        let dstable = dsig == delta_prev_poll;
        delta_prev_poll = dsig;
        let Some(dsig) = dsig else {
            // Fully idle poll: no pending work, clean IO.
            err_streak = 0;
            idle_compact(&mut lineage);
            continue;
        };
        if Some(dsig) == delta_failed || !dstable {
            err_streak = 0;
            continue;
        }

        // Open the lineage on first use: the scratch starts as an owned
        // copy of the mapped base the store is serving, and the first
        // delta applies to it directly (see the module docs' memory
        // model). `cur` is dropped at the end of this block so the
        // watcher holds no reference to the mapping.
        if lineage.is_none() {
            let (cur, _) = store.current();
            let ServeIndex::Mapped(snap) = &*cur else {
                continue; // unreachable: no lineage means mapped base
            };
            let mut owned = snap.to_owned_index();
            owned.set_compact_budget(Some(WATCH_COMPACT_BUDGET));
            // One-time: build the live-id set and inventory now so
            // every apply is as fast as the steady state.
            owned.prime_mutations();
            lineage = Some(Lineage {
                link: DeltaLink::for_base(snap.checksum()),
                working: None,
                scratch: Some(owned),
                applied: 0,
            });
        }
        let lin = lineage.as_mut().expect("opened above");

        // Apply in place on the pre-armed scratch; on success it is
        // published as-is and a fresh scratch is cloned afterwards —
        // keeping the clone off the apply-to-publish latency path.
        let mut next = lin
            .scratch
            .take()
            .expect("scratch is armed between applies");
        match apply_delta(&mut next, &dpath, lin.link, &opts) {
            Ok(new_link) => {
                let epoch = store.swap_owned(next);
                publishes += 1;
                lin.link = new_link;
                // The swap dropped the store's hold on the previous
                // state (the mapped base, on the first apply); replacing
                // `working` drops ours, before the clone below.
                lin.working = Some(store.current().0);
                // Re-arm: readers are already on the new epoch while
                // this clone runs.
                lin.rearm();
                lin.applied += 1;
                delta_prev_poll = None;
                delta_failed = None;
                err_streak = 0;
                if let Some(t) = &opts.trace {
                    t.always(
                        "delta_apply",
                        &[
                            ("epoch", u64::from(epoch)),
                            ("seq", next_seq),
                            ("lineage", lin.applied),
                        ],
                    );
                }
                eprintln!(
                    "act-serve: applied delta {dpath:?} (epoch {epoch}, \
                     {} in lineage)",
                    lin.applied
                );
                if lin.applied >= fold_after {
                    match fold_lineage(path, lin) {
                        Ok(()) => {
                            // The fold rewrote the base file with
                            // identical probe semantics: baseline the
                            // watcher on it without reloading.
                            loaded_sig = snapshot_signature(path);
                            prev_poll = loaded_sig;
                            failed_sig = None;
                            eprintln!("act-serve: folded {fold_after} deltas into {path:?}");
                        }
                        Err(e) => {
                            // Fold is best-effort: the lineage keeps
                            // extending and the next apply retries it.
                            lin.applied = fold_after.saturating_sub(1);
                            eprintln!("act-serve: delta fold failed ({e}); will retry");
                        }
                    }
                }
            }
            Err(e) => {
                // A rejected delta may have left the scratch prefix-
                // applied (per-op failures mutate before erroring), so
                // rebuild it from the published state. `drop(next)`
                // first: holding old + published + new scratch at once
                // would spike memory to three arenas. With nothing
                // published yet there is no state to rebuild from: drop
                // the lineage, and the next good file reopens it from
                // the base the store still serves.
                drop(next);
                if !lin.rearm() {
                    lineage = None;
                }
                if matches!(e, SnapshotError::Io(_)) {
                    // Short/failed read: no verdict on the bytes. Leave
                    // `delta_prev_poll` standing so the very next poll
                    // (after backoff) retries the same stable file.
                    opts.counters.note_error();
                    err_streak = err_streak.saturating_add(1);
                    eprintln!("act-serve: delta read at {dpath:?} failed ({e}); backing off");
                } else {
                    // Corrupt or wrong-chain bytes: quarantine so the
                    // lineage resumes the moment a good file lands at
                    // this sequence, and the bad file is never re-read.
                    match quarantine_delta(&dpath) {
                        Ok(qpath) => {
                            opts.counters.note_quarantine();
                            delta_prev_poll = None;
                            delta_failed = None;
                            err_streak = 0;
                            if let Some(t) = &opts.trace {
                                t.always("quarantine", &[("seq", next_seq)]);
                            }
                            eprintln!(
                                "act-serve: delta at {dpath:?} rejected ({e}); \
                                 quarantined to {qpath:?}"
                            );
                        }
                        Err(re) => {
                            // Can't move it aside: fall back to the old
                            // remember-and-skip behavior.
                            delta_failed = Some(dsig);
                            eprintln!(
                                "act-serve: delta at {dpath:?} rejected ({e}); \
                                 quarantine failed ({re}); ignoring until it changes"
                            );
                        }
                    }
                }
            }
        }
    }
    publishes
}

/// Folds the lineage's working index into a new base snapshot: write to
/// a sibling, fsync, rename over the base path, delete the consumed
/// delta files, and restart the chain from the new base checksum.
fn fold_lineage(base: &Path, lin: &mut Lineage) -> Result<(), act_core::SnapshotError> {
    let Some(ServeIndex::Owned(working)) = lin.working.as_deref() else {
        unreachable!("a fold follows a publish");
    };
    let mut bytes = Vec::new();
    working.save_snapshot(&mut bytes)?;
    let new_sum = act_core::header_checksum(&bytes).expect("save_snapshot wrote a whole header");
    let tmp = base.with_extension("fold-tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, base)?;
    for seq in 1..lin.link.next_seq {
        let _ = std::fs::remove_file(delta_path(base, seq));
    }
    lin.link = DeltaLink::for_base(new_sum);
    lin.applied = 0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_core::{save_delta_file, DeltaOp};
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

    fn snap_file(name: &str, polys: &[Polygon]) -> std::path::PathBuf {
        let idx = act_core::ActIndex::build(polys, 15.0).unwrap();
        let mut bytes = Vec::new();
        idx.save_snapshot(&mut bytes).unwrap();
        let mut p = std::env::temp_dir();
        p.push(format!("act-swap-test-{}-{name}.snap", std::process::id()));
        std::fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn swap_bumps_epoch_and_keeps_old_arcs_alive() {
        let a = snap_file("a", &[square(-74.0, 40.7, 0.02)]);
        let b = snap_file("b", &[square(-73.9, 40.7, 0.02)]);
        let store = IndexStore::new(MappedSnapshot::open(&a).unwrap());
        let (old, e1) = store.current();
        assert_eq!(e1, 1);
        let inside_a = Coord::new(-74.0, 40.7);
        assert!(!old.lookup_refs(inside_a).is_empty());

        let e2 = store.swap(MappedSnapshot::open(&b).unwrap());
        assert_eq!(e2, 2);
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.swaps(), 1);
        assert_eq!(store.delta_applies(), 0);
        let (new, e) = store.current();
        assert_eq!(e, 2);
        // New snapshot answers differently; the old Arc still answers as
        // before (in-flight batches are undisturbed).
        assert!(new.lookup_refs(inside_a).is_empty());
        assert!(!old.lookup_refs(inside_a).is_empty());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    /// The poisoned-lock satellite regression: a panic raised while the
    /// store's mutex is held (survivable since the worker loops run
    /// probes under `catch_unwind`) used to poison the lock and turn
    /// every later `current()`/`swap()` into a second panic — one bad
    /// batch killed the whole serving process. Recovery via
    /// `PoisonError::into_inner` is sound because the guarded `Arc` is
    /// replaced atomically and never left half-written.
    #[test]
    fn store_survives_panic_under_lock() {
        let a = snap_file("poison-a", &[square(-74.0, 40.7, 0.02)]);
        let b = snap_file("poison-b", &[square(-73.9, 40.7, 0.02)]);
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&a).unwrap()));

        // Inject a panic while the lock is held, on another thread so
        // the unwind poisons the mutex.
        let poisoner = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let _guard = store.current.lock().unwrap();
                panic!("injected panic while holding the index store lock");
            })
        };
        assert!(poisoner.join().is_err(), "the injected panic must fire");
        assert!(store.current.is_poisoned(), "the lock must be poisoned");

        // Probing and swapping must both still work.
        let (idx, e1) = store.current();
        assert_eq!(e1, 1);
        assert!(!idx.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());
        let e2 = store.swap(MappedSnapshot::open(&b).unwrap());
        assert_eq!(e2, 2);
        let (idx, e) = store.current();
        assert_eq!(e, 2);
        assert!(!idx.lookup_refs(Coord::new(-73.9, 40.7)).is_empty());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn watcher_swaps_on_change_and_survives_garbage() {
        let path = snap_file("watch", &[square(-74.0, 40.7, 0.02)]);
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            std::thread::spawn(move || {
                watch_loop(&path, Duration::from_millis(10), &store, &shutdown, initial)
            })
        };

        // Garbage dropped on the path must not take the store down.
        // Replace via sibling + rename: truncating the live file in
        // place would invalidate the store's active mapping (SIGBUS on
        // the next probe) — exactly what the module docs forbid.
        let garbage = path.with_extension("garbage");
        std::fs::write(&garbage, b"not a snapshot at all").unwrap();
        std::fs::rename(&garbage, &path).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(store.epoch(), 1, "garbage must not swap");

        // A valid replacement snapshot is picked up.
        let b = snap_file("watch-b", &[square(-73.9, 40.7, 0.02)]);
        std::fs::rename(&b, &path).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(store.epoch(), 2, "watcher must pick up the new snapshot");

        shutdown.store(true, Ordering::Release);
        let swaps = handle.join().unwrap();
        assert_eq!(swaps, 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// The satellite regression: a same-length rewrite whose `(mtime,
    /// len)` may collide must still change the signature, on every
    /// platform, via the content fingerprint (the inode is forced out of
    /// the comparison to model non-unix).
    #[test]
    fn fingerprint_catches_same_length_rewrite() {
        // Two *valid* snapshots of the same polygon set: identical
        // length and shape, different content (the META section persists
        // build wall-times, so the embedded checksum differs) — exactly
        // the same-length rewrite a metadata-only signature misses.
        let polys = [square(-74.0, 40.7, 0.02)];
        let a = snap_file("fp-a", &polys);
        let bytes_b = {
            let idx = act_core::ActIndex::build(&polys, 15.0).unwrap();
            let mut b = Vec::new();
            idx.save_snapshot(&mut b).unwrap();
            b
        };
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a.len(), bytes_b.len(), "same build, same length");
        assert_ne!(bytes_a, bytes_b, "wall-time meta must differ");

        let sig_a = snapshot_signature(&a).unwrap();
        // Rewrite a's *content* in place (same inode, same length) —
        // on a coarse-clock filesystem the mtime can also collide, so
        // only the fingerprint reliably separates the signatures.
        std::fs::write(&a, &bytes_b).unwrap();
        let sig_a2 = snapshot_signature(&a).unwrap();
        assert_eq!(sig_a.0, sig_a2.0, "in-place rewrite keeps the inode");
        assert_eq!(sig_a.2, sig_a2.2, "lengths match by construction");
        assert_ne!(
            sig_a.3, sig_a2.3,
            "content fingerprint must catch a same-length rewrite"
        );
        std::fs::remove_file(&a).unwrap();
    }

    /// Delta files beside the base are validated, applied in lineage
    /// order without remapping the base, and folded into a new base once
    /// the threshold is crossed; garbage deltas are rejected harmlessly.
    // The `..default()` spread is needless only when `fault-injection`
    // is off (it supplies the cfg'd `faults` field when it is on).
    #[allow(clippy::needless_update)]
    #[test]
    fn watcher_applies_deltas_and_folds() {
        let path = snap_file("delta", &[square(-74.0, 40.7, 0.02)]);
        let base_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WatchCounters::default());
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                // fold_after = 2 so this test exercises the fold.
                watch_loop_opts(
                    &path,
                    &store,
                    &shutdown,
                    initial,
                    WatchOptions {
                        interval: Duration::from_millis(10),
                        fold_after: 2,
                        counters,
                        ..WatchOptions::default()
                    },
                )
            })
        };
        let wait_epoch = |want: u32| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while store.epoch() < want && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(store.epoch(), want, "epoch did not reach {want}");
        };

        // Garbage where delta 1 should be: rejected, nothing swaps, the
        // bad bytes are quarantined out of the way.
        std::fs::write(delta_path(&path, 1), b"junk").unwrap();
        let qpath = {
            let d = delta_path(&path, 1);
            let mut name = d.file_name().unwrap().to_string_lossy().into_owned();
            name.push_str(".quarantine");
            d.with_file_name(name)
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counters.quarantines() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.epoch(), 1, "garbage delta must not publish");
        assert_eq!(counters.quarantines(), 1);
        assert!(qpath.exists(), "rejected delta must be renamed aside");
        assert!(
            !delta_path(&path, 1).exists(),
            "quarantine must clear the lineage slot"
        );

        // Delta 1: add a polygon in the slot the quarantine cleared.
        let link = DeltaLink::for_base(base_sum);
        let add = DeltaOp::Insert {
            id: 7,
            polygon: square(-73.9, 40.7, 0.02),
        };
        let (link, _) = save_delta_file(&[add], link, &delta_path(&path, 1)).unwrap();
        wait_epoch(2);
        assert_eq!(store.delta_applies(), 1);
        let (idx, _) = store.current();
        assert!(
            matches!(&*idx, ServeIndex::Owned(_)),
            "delta apply must not remap"
        );
        assert!(!idx.lookup_refs(Coord::new(-73.9, 40.7)).is_empty());
        assert!(!idx.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());

        // Delta 2: remove the original polygon. This crosses
        // fold_after = 2, so the base file is rewritten and deltas are
        // deleted.
        let rm = DeltaOp::Remove { id: 0 };
        save_delta_file(&[rm], link, &delta_path(&path, 2)).unwrap();
        wait_epoch(3);
        assert_eq!(store.delta_applies(), 2);
        let (idx, _) = store.current();
        assert!(idx.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());
        assert!(!idx.lookup_refs(Coord::new(-73.9, 40.7)).is_empty());

        // The fold: consumed delta files disappear, the rewritten base
        // answers like the live index, and the watcher does NOT reload
        // it (epoch stays put).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (delta_path(&path, 1).exists() || delta_path(&path, 2).exists())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            !delta_path(&path, 1).exists(),
            "fold must delete consumed deltas"
        );
        assert!(!delta_path(&path, 2).exists());
        let folded = MappedSnapshot::open(&path).unwrap();
        let view = folded.view();
        assert!(view.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());
        assert!(!view.lookup_refs(Coord::new(-73.9, 40.7)).is_empty());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(store.epoch(), 3, "fold must not trigger a reload");

        // The new lineage restarts at seq 1 against the folded base.
        let folded_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let link = DeltaLink::for_base(folded_sum);
        let add2 = DeltaOp::Insert {
            id: 9,
            polygon: square(-73.8, 40.7, 0.02),
        };
        save_delta_file(&[add2], link, &delta_path(&path, 1)).unwrap();
        wait_epoch(4);
        let (idx, _) = store.current();
        assert!(!idx.lookup_refs(Coord::new(-73.8, 40.7)).is_empty());

        shutdown.store(true, Ordering::Release);
        let publishes = handle.join().unwrap();
        assert_eq!(publishes, 3);
        let _ = std::fs::remove_file(delta_path(&path, 1));
        let _ = std::fs::remove_file(&qpath);
        std::fs::remove_file(&path).unwrap();
    }

    /// Waste below the compaction threshold is left alone: after an
    /// insert delta, a remove delta (which leaves tombstone garbage) and
    /// a run of idle polls, the next apply publishes an index that still
    /// carries that garbage and has no compaction in flight. The idle
    /// slice used to start a whole-arena rebuild on any waste at all.
    #[allow(clippy::needless_update)]
    #[test]
    fn watcher_leaves_waste_below_threshold_uncompacted() {
        let base: Vec<Polygon> = (0..12)
            .map(|k| square(-74.0 + 0.05 * f64::from(k), 40.7, 0.02))
            .collect();
        let path = snap_file("no-misfire", &base);
        let base_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            std::thread::spawn(move || {
                watch_loop_opts(
                    &path,
                    &store,
                    &shutdown,
                    initial,
                    WatchOptions {
                        interval: Duration::from_millis(5),
                        ..WatchOptions::default()
                    },
                )
            })
        };
        let wait_epoch = |want: u32| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while store.epoch() < want && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(store.epoch(), want, "epoch did not reach {want}");
        };
        let published = || {
            let (idx, _) = store.current();
            let ServeIndex::Owned(ix) = &*idx else {
                panic!("a delta apply publishes an owned index");
            };
            (ix.waste_bytes(), ix.waste_ratio(), ix.compact_in_progress())
        };

        let link = DeltaLink::for_base(base_sum);
        let add = DeltaOp::Insert {
            id: 20,
            polygon: square(-73.3, 40.7, 0.01),
        };
        let (link, _) = save_delta_file(&[add], link, &delta_path(&path, 1)).unwrap();
        wait_epoch(2);
        let rm = DeltaOp::Remove { id: 20 };
        let (link, _) = save_delta_file(&[rm], link, &delta_path(&path, 2)).unwrap();
        wait_epoch(3);
        let (waste, ratio, _) = published();
        assert!(waste > 0, "the remove must leave garbage behind");
        assert!(
            ratio < ActIndex::COMPACT_WASTE_THRESHOLD,
            "the garbage must stay below the threshold ({ratio})"
        );

        // Many idle polls at a 5 ms interval.
        std::thread::sleep(Duration::from_millis(150));
        let add = DeltaOp::Insert {
            id: 21,
            polygon: square(-72.9, 40.7, 0.01),
        };
        save_delta_file(&[add], link, &delta_path(&path, 3)).unwrap();
        wait_epoch(4);
        let (waste_after, _, in_progress) = published();
        assert!(
            waste_after >= waste,
            "idle polls compacted below the threshold ({waste} -> {waste_after} bytes)"
        );
        assert!(
            !in_progress,
            "no compaction may be in flight below the threshold"
        );
        let (idx, _) = store.current();
        assert!(!idx.lookup_refs(Coord::new(-72.9, 40.7)).is_empty());
        assert!(idx.lookup_refs(Coord::new(-73.3, 40.7)).is_empty());

        shutdown.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 3);
        for seq in 1..=3 {
            let _ = std::fs::remove_file(delta_path(&path, seq));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A rejected first delta must not leave a half-opened lineage
    /// behind: nothing was published, so the lineage is dropped and the
    /// next good file reopens it from the mapped base.
    #[allow(clippy::needless_update)]
    #[test]
    fn rejected_first_delta_reopens_lineage_on_next_good_file() {
        let path = snap_file("first-reject", &[square(-74.0, 40.7, 0.02)]);
        let base_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WatchCounters::default());
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                watch_loop_opts(
                    &path,
                    &store,
                    &shutdown,
                    initial,
                    WatchOptions {
                        interval: Duration::from_millis(5),
                        counters,
                        ..WatchOptions::default()
                    },
                )
            })
        };
        // A well-formed delta whose second op fails mid-apply (the
        // polygon spans two cube faces): the first op has already
        // mutated the scratch when the apply errors.
        let bad = [
            DeltaOp::Insert {
                id: 5,
                polygon: square(-73.9, 40.7, 0.02),
            },
            DeltaOp::Insert {
                id: 6,
                polygon: square(45.0, 0.0, 2.0),
            },
        ];
        let link = DeltaLink::for_base(base_sum);
        save_delta_file(&bad, link, &delta_path(&path, 1)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while counters.quarantines() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            counters.quarantines(),
            1,
            "the failing delta is quarantined"
        );
        assert_eq!(store.epoch(), 1);

        let good = DeltaOp::Insert {
            id: 7,
            polygon: square(-73.8, 40.7, 0.02),
        };
        save_delta_file(&[good], link, &delta_path(&path, 1)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while store.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(store.epoch(), 2, "the good file opens a fresh lineage");
        let (idx, _) = store.current();
        assert!(!idx.lookup_refs(Coord::new(-73.8, 40.7)).is_empty());
        assert!(
            idx.lookup_refs(Coord::new(-73.9, 40.7)).is_empty(),
            "the rejected delta's first op must not survive"
        );
        assert!(!idx.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());

        shutdown.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 1);
        let _ = std::fs::remove_file(delta_path(&path, 1));
        let mut q = delta_path(&path, 1).into_os_string();
        q.push(".quarantine");
        let _ = std::fs::remove_file(q);
        std::fs::remove_file(&path).unwrap();
    }

    /// A transient stat failure must be counted — not folded into "no
    /// change" — and polling must resume once the fault clears. Uses the
    /// fault plan (a deterministic stand-in for a flapping disk).
    #[cfg(feature = "fault-injection")]
    #[test]
    fn watcher_counts_stat_errors_and_recovers() {
        use crate::faults::{FaultPlan, FaultSpec};
        let path = snap_file("staterr", &[square(-74.0, 40.7, 0.02)]);
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WatchCounters::default());
        // The first three base-path stats fail; everything after is
        // clean, so the replacement written below still swaps in.
        let faults = FaultPlan::new(11)
            .with(FaultSpec {
                site: crate::faults::Site::WatchStat,
                first: 1,
                every: 1,
                count: 3,
            })
            .arm();
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            let (counters, faults) = (Arc::clone(&counters), Arc::clone(&faults));
            std::thread::spawn(move || {
                watch_loop_opts(
                    &path,
                    &store,
                    &shutdown,
                    initial,
                    WatchOptions {
                        interval: Duration::from_millis(5),
                        counters,
                        faults: Some(faults),
                        ..WatchOptions::default()
                    },
                )
            })
        };

        let b = snap_file("staterr-b", &[square(-73.9, 40.7, 0.02)]);
        std::fs::rename(&b, &path).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while store.epoch() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            store.epoch(),
            2,
            "watcher must recover after the fault clears"
        );
        assert_eq!(
            counters.errors(),
            3,
            "each injected stat failure is counted"
        );
        assert_eq!(counters.quarantines(), 0);

        shutdown.store(true, Ordering::Release);
        handle.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
