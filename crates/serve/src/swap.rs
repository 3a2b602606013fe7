//! Epoch-counted snapshot hot-swap, now delta-aware.
//!
//! The serving invariant: a probe batch runs start-to-finish against
//! **one** index. [`IndexStore::current`] hands out an
//! `Arc<ActIndex>` plus the epoch it belongs to; a concurrent swap
//! publishes a new index for *future* batches while in-flight ones
//! finish on the Arc they already hold — the rolling-restart story
//! (ship a snapshot, not a polygon set), in process. The store is a
//! `Mutex<Arc<…>>` held only long enough to clone or replace the Arc —
//! nanoseconds per batch, uncontended in practice — plus a monotonic
//! epoch counter that responses echo so clients can observe a swap.
//!
//! The store serves one type, [`ActIndex`]. At boot and after a reload
//! it is [`ActIndex::from_mapped`] over the validated snapshot, whose
//! trie arena and lookup table *are* the mapping, so opening it copies
//! neither. After a delta it is that index with the `ACTDLT01` delta
//! file's edits applied (see [`act_core::delta`]) — a few fence edits
//! arrive in milliseconds without remapping the multi-hundred-MB base.
//!
//! [`watch_loop_opts`] is the operator-facing half. Each poll it checks
//! two things:
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
//! ## Decisions and IO
//!
//! The watcher is two parts. A pure state machine, `Watcher::step`,
//! makes every decision: it takes one observation (a tick, a file
//! signature, or an outcome kind — ok, IO error, invalid bytes) and
//! answers with the next action (stat, reload, apply, quarantine, fold,
//! or sleep this long). It holds the base and delta debounce (one
//! `Debounce` type for both files), the lineage cursor, which also
//! counts the applies toward the fold, and the error streak; it touches
//! no path, store, clock, fault plan or file. A thin shell carries the
//! actions out — stats, opens, applies, publishes, quarantines, folds —
//! and [`watch_loop_opts`] sleeps between its polls. Because the shell
//! runs one poll at a time, the seeded model property
//! `watcher_matches_a_rebuild_under_seeded_scripts` (this module's
//! tests) drives it over a temp dir with no thread and no sleep, and
//! checks every published index point by point against a rebuild of the
//! base plus its good deltas; a failing script replays from the seed it
//! prints.
//!
//! ## Memory model
//!
//! Churn holds one arena: the mapping. The first delta opens the
//! lineage over the served index: its scratch is a clone, which shares
//! the mapped arena and table, primed for mutation (at most 16 bound
//! cells per id, see [`ActIndex::prime_mutations`]). An apply copies the
//! trie nodes it writes into the index's own small segment and repoints
//! their parents (path copying, see [`act_core::trie`]), and copies the
//! lookup table once, to append to it; the mapping is never written.
//! After each publish the next scratch is a clone of the published
//! index, which shares the mapping, the table and the derived bound
//! cells, and copies the few copied-out nodes and the bound cells' id
//! map (0.8 MB on census). So the published index and the scratch
//! differ only by the nodes the last apply wrote, and the index the
//! store served before (the previous epoch) keeps answering its own
//! state for the batches still on it.
//!
//! Compaction follows the index's own policy: copied-out base nodes
//! count as waste, and the apply whose edits push the scratch's waste
//! ratio past [`ActIndex::COMPACT_WASTE_THRESHOLD`] runs
//! [`ActIndex::compact`] to completion before it publishes: one trie
//! copy walk into a fresh heap arena, which becomes the shared base in
//! the mapping's place. That one apply pays a full copy (about 0.3 s on
//! census; the bound cells carry over unchanged); applies below the
//! threshold and idle polls pay nothing.
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
//! Replace files through [`act_core::write_file_atomic`] (write a
//! sibling, fsync, rename), never in place: rename is atomic on unix,
//! and the old mapping stays valid because the old inode lives until
//! unmapped.

use act_core::{apply_delta_file, ActIndex, DeltaLink, MappedSnapshot, SnapshotError};
use act_obs::TraceRing;
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

/// Counters the watcher shares with the serving stack (they ride the
/// PING/STATS counter block).
#[derive(Debug, Default)]
pub struct WatchCounters {
    errors: AtomicU64,
    quarantines: AtomicU64,
    delta_applies: AtomicU64,
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

    /// Delta files applied onto the live index so far (a subset of
    /// [`IndexStore::swaps`]).
    pub fn delta_applies(&self) -> u64 {
        self.delta_applies.load(Ordering::Relaxed)
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
/// answer MUST go through `IndexStore::publish` for exactly this
/// reason.
#[derive(Debug)]
pub struct IndexStore {
    current: Mutex<Arc<ActIndex>>,
    epoch: AtomicU64,
}

impl IndexStore {
    /// Starts serving `snap` at epoch 1, as [`ActIndex::from_mapped`]
    /// over it: nothing of the snapshot is copied.
    pub fn new(snap: MappedSnapshot) -> IndexStore {
        IndexStore {
            current: Mutex::new(Arc::new(ActIndex::from_mapped(Arc::new(snap)))),
            epoch: AtomicU64::new(1),
        }
    }

    /// The index to answer the next batch with, and its epoch. The
    /// returned Arc keeps that index (and any file mapping behind it)
    /// alive for as long as the batch needs it, whatever swaps happen
    /// meanwhile.
    pub fn current(&self) -> (Arc<ActIndex>, u32) {
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

    /// Publishes `next` for future batches — a reloaded snapshot
    /// ([`ActIndex::from_mapped`]) or a delta-edited index — and returns
    /// the new epoch. In-flight batches finish on whatever
    /// [`IndexStore::current`] gave them. Crate-private: the delta
    /// watcher opens a lineage only over an unedited mapping, which is
    /// what `new` serves and a reload publishes.
    pub(crate) fn publish(&self, next: Arc<ActIndex>) -> u32 {
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
    let mut buf = [0u8; FINGERPRINT_BYTES];
    let mut file = std::fs::File::open(path)?.take(FINGERPRINT_BYTES as u64);
    let n = io::copy(&mut file, &mut &mut buf[..])? as usize;
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
/// hand it to [`watch_loop_opts`]: reading it later races a concurrent
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

/// The delta lineage the shell is carrying: the chain's [`DeltaLink`],
/// the index with every applied delta folded in (shared with the store),
/// and a pre-armed mutable copy for the next apply.
struct Lineage {
    link: DeltaLink,
    /// The state the chain has reached, as the store serves it: the
    /// mapped base until this lineage's first apply is published.
    working: Arc<ActIndex>,
    /// A private index primed for mutation that shares `working`'s arena
    /// (see the module docs' memory model). Deltas apply here *in
    /// place*, so nothing is copied on the apply-to-publish latency path
    /// — the scratch is re-armed from the published index right after
    /// each swap, while readers are already on the new epoch. `None`
    /// only transiently mid-apply.
    scratch: Option<ActIndex>,
}

impl Lineage {
    /// Opens a lineage over the state the store serves. No lineage is
    /// open only at boot and after a reload, and both publish an
    /// unedited mapping, so the base checksum is its header's.
    fn open(working: Arc<ActIndex>) -> Lineage {
        let base = working.mapped_checksum();
        let mut lineage = Lineage {
            link: DeltaLink::for_base(base.expect("a lineage opens over a mapped snapshot")),
            working,
            scratch: None,
        };
        lineage.rearm();
        lineage
    }

    /// Re-arms the scratch as a primed clone of `working`. Priming the
    /// mapped base's clone derives the bound cells once, so every apply
    /// is as fast as the steady state; a clone of a published index
    /// shares them.
    fn rearm(&mut self) {
        let mut scratch = (*self.working).clone();
        scratch.prime_mutations();
        self.scratch = Some(scratch);
    }
}

/// What [`watch_loop_opts`] needs besides the path, the store, the
/// shutdown flag and the initial signature.
pub struct WatchOptions {
    /// Steady-state poll interval (backoff multiplies it on errors).
    pub interval: Duration,
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

/// What the watcher asks the shell to do next. Each action but `Sleep`
/// is answered by one [`Observation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Wait this long, then poll (answered by `Tick`).
    Sleep(Duration),
    /// Stat the base path (answered by `Stat`, or `Io`).
    StatBase,
    /// Open, validate and publish the base; the lineage is dropped.
    Reload,
    /// Stat delta `seq` (answered by `Stat`, or `Io`).
    StatDelta(u64),
    /// Apply delta `seq` to the lineage, opening it over the served index
    /// first, and publish the result.
    Apply(u64),
    /// Rename delta `seq` aside (`Ok`, or `Io` when it stays).
    Quarantine(u64),
    /// Write the lineage as the new base and delete its deltas (answered
    /// by `Stat` of the new base, or `Io`).
    Fold,
}

/// What the shell found carrying out the last [`Action`]: all the
/// watcher ever sees of the world — ticks, signatures and the three
/// kinds of outcome it tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observation {
    /// The pause before a poll has elapsed.
    Tick,
    /// A file's signature, `None` when there is no file.
    Stat(Option<Signature>),
    /// The open, apply, quarantine or fold succeeded.
    Ok,
    /// An IO error: no verdict on the bytes, so retry under backoff.
    Io,
    /// Bytes that are not a valid snapshot, or not the lineage's next
    /// delta.
    Invalid,
}

/// One file's change gate, the same for the base path and the next
/// delta: act on a signature once it holds still for one interval (an
/// in-place writer mid-copy keeps moving it), unless it is the file
/// already loaded or one already judged invalid.
#[derive(Debug, Clone, Copy, Default)]
struct Debounce {
    /// What the previous poll saw.
    last: Option<Signature>,
    loaded: Option<Signature>,
    failed: Option<Signature>,
}

impl Debounce {
    /// Settled on the file `sig` names: it is the one in use.
    fn settled(sig: Option<Signature>) -> Debounce {
        Debounce {
            last: sig,
            loaded: sig,
            failed: None,
        }
    }

    /// Records this poll's signature; true when it names a file to act
    /// on now.
    fn ready(&mut self, sig: Option<Signature>) -> bool {
        let stable = sig == self.last;
        self.last = sig;
        stable && sig.is_some() && sig != self.loaded && sig != self.failed
    }
}

/// The watcher's decisions, as a pure state machine: it sees only
/// signatures, outcome kinds and ticks, and answers each with the next
/// [`Action`]. It holds no path, store, clock, fault plan or file.
#[derive(Debug)]
struct Watcher {
    interval: Duration,
    base: Debounce,
    delta: Debounce,
    /// The lineage cursor: the next delta's sequence number, 1 when no
    /// lineage is open. It counts the deltas applied since the lineage
    /// opened or last folded, so it also decides the fold.
    next_seq: u64,
    /// Consecutive polls ended by an IO error.
    streak: u32,
    /// The action the next observation answers.
    pending: Action,
}

impl Watcher {
    /// A watcher whose store serves the base file `initial` names.
    fn new(initial: Option<Signature>, interval: Duration) -> Watcher {
        Watcher {
            interval,
            base: Debounce::settled(initial),
            delta: Debounce::default(),
            next_seq: 1,
            streak: 0,
            pending: Action::Sleep(interval),
        }
    }

    /// Takes what the last action came to and decides the next one.
    fn step(&mut self, seen: Observation) -> Action {
        use Observation::{Invalid, Io, Ok, Stat, Tick};
        let next = match (self.pending, seen) {
            (Action::Sleep(_), Tick) => Action::StatBase,
            (Action::StatBase, Stat(sig)) if self.base.ready(sig) => Action::Reload,
            (Action::StatBase, Stat(_)) => Action::StatDelta(self.next_seq),
            (Action::Reload, Ok) => {
                // A new base supersedes the lineage in progress.
                self.base = Debounce::settled(self.base.last);
                self.delta = Debounce::default();
                self.next_seq = 1;
                self.idle()
            }
            (Action::Reload, Invalid) => {
                // Keep serving; retry when the signature changes again.
                self.base.failed = self.base.last;
                Action::StatDelta(self.next_seq)
            }
            (Action::StatDelta(seq), Stat(sig)) if self.delta.ready(sig) => Action::Apply(seq),
            (Action::StatDelta(_), Stat(_)) => self.idle(),
            (Action::Apply(seq), Ok) => {
                self.delta = Debounce::default();
                self.next_seq = seq + 1;
                self.streak = 0;
                if seq >= FOLD_AFTER_DELTAS {
                    Action::Fold
                } else {
                    self.pause()
                }
            }
            // Corrupt or wrong-chain bytes: move them aside, so the
            // lineage resumes the moment a good file lands at this seq.
            (Action::Apply(seq), Invalid) => Action::Quarantine(seq),
            (Action::Quarantine(_), Ok) => {
                self.delta = Debounce::default();
                self.idle()
            }
            (Action::Quarantine(_), _) => {
                // It stays in place: ignore it until it changes.
                self.delta.failed = self.delta.last;
                self.pause()
            }
            (Action::Fold, Stat(sig)) => {
                // The fold rewrote the base with the probe semantics
                // already served: settle on it without reloading.
                self.base = Debounce::settled(sig);
                self.next_seq = 1;
                self.pause()
            }
            // A failed fold is best-effort: the next apply retries it.
            (Action::Fold, _) => self.pause(),
            // A failed stat, open or apply says nothing about whether
            // the file changed: back off and re-check it next poll.
            (_, Io) => {
                self.streak = self.streak.saturating_add(1);
                self.pause()
            }
            (pending, seen) => unreachable!("{seen:?} does not answer {pending:?}"),
        };
        self.pending = next;
        next
    }

    /// Sleep after a poll that ended without an IO error.
    fn idle(&mut self) -> Action {
        self.streak = 0;
        self.pause()
    }

    fn pause(&self) -> Action {
        Action::Sleep(backoff(self.interval, self.streak))
    }
}

/// The watcher's IO: carries out each [`Action`] on the files, the
/// store, the counters and the fault plan, and reports what it found.
struct Shell<'a> {
    path: &'a Path,
    store: &'a IndexStore,
    opts: &'a WatchOptions,
    lineage: Option<Lineage>,
    publishes: u64,
}

impl Shell<'_> {
    /// One poll: a tick, then the watcher's actions until it asks to
    /// sleep. Returns the pause it asked for.
    fn poll(&mut self, watcher: &mut Watcher) -> Duration {
        let mut seen = Observation::Tick;
        loop {
            let action = watcher.step(seen);
            #[cfg(feature = "fault-injection")]
            if let Some(f) = &self.opts.faults {
                let site = match action {
                    Action::StatBase | Action::StatDelta(_) => Some(Site::WatchStat),
                    Action::Reload => Some(Site::SnapshotOpen),
                    Action::Apply(_) => Some(Site::DeltaOpen),
                    _ => None,
                };
                if let Some(site) = site.filter(|&site| f.check(site).is_some()) {
                    seen = self.judge("watch", self.path, f.injected_error(site).into());
                    continue;
                }
            }
            seen = match action {
                Action::Sleep(pause) => return pause,
                Action::StatBase => self.stat(self.path),
                Action::StatDelta(seq) => self.stat(&delta_path(self.path, seq)),
                Action::Reload => self.reload(),
                Action::Apply(seq) => self.apply(seq),
                Action::Quarantine(seq) => self.quarantine(seq),
                Action::Fold => self.fold(),
            };
        }
    }

    fn stat(&self, path: &Path) -> Observation {
        match try_signature(path) {
            Ok(sig) => Observation::Stat(sig),
            Err(e) => self.judge("watch stat of", path, e.into()),
        }
    }

    /// A failed stat, open or apply as the watcher sees it: an IO error
    /// is counted and retried; any other error judges the bytes invalid.
    fn judge(&self, what: &str, path: &Path, error: SnapshotError) -> Observation {
        match error {
            SnapshotError::Io(e) => {
                self.opts.counters.errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("act-serve: {what} {path:?} failed ({e}); backing off");
                Observation::Io
            }
            e => {
                eprintln!("act-serve: {what} {path:?} rejected ({e})");
                Observation::Invalid
            }
        }
    }

    fn trace(&self, kind: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(t) = &self.opts.trace {
            t.always(kind, fields);
        }
    }

    /// A full reload: opens, validates and publishes the base snapshot,
    /// superseding any delta lineage in progress.
    fn reload(&mut self) -> Observation {
        let path = self.path;
        let snap = match MappedSnapshot::open(path) {
            Ok(snap) => snap,
            Err(e) => return self.judge("snapshot", path, e),
        };
        let index = ActIndex::from_mapped(Arc::new(snap));
        let epoch = self.store.publish(Arc::new(index));
        self.publishes += 1;
        self.lineage = None;
        self.trace("swap", &[("epoch", u64::from(epoch))]);
        eprintln!("act-serve: hot-swapped snapshot {path:?} (epoch {epoch})");
        Observation::Ok
    }

    /// Applies delta `seq` in place on the lineage's pre-armed scratch
    /// (opening the lineage over the served index first) and publishes
    /// it as-is; the next scratch is cloned afterwards, while readers are
    /// already on the new epoch, keeping the clone off the
    /// apply-to-publish latency path.
    fn apply(&mut self, seq: u64) -> Observation {
        let store = self.store;
        let dpath = delta_path(self.path, seq);
        let lin = self
            .lineage
            .get_or_insert_with(|| Lineage::open(store.current().0));
        let mut next = lin.scratch.take().expect("armed between applies");
        match apply_delta_file(&mut next, &dpath, lin.link) {
            Ok(link) => {
                let next = Arc::new(next);
                let epoch = store.publish(Arc::clone(&next));
                let applies = &self.opts.counters.delta_applies;
                applies.fetch_add(1, Ordering::Relaxed);
                lin.link = link;
                lin.working = next;
                lin.rearm();
                self.publishes += 1;
                self.trace("delta_apply", &[("epoch", u64::from(epoch)), ("seq", seq)]);
                eprintln!("act-serve: applied delta {dpath:?} (epoch {epoch})");
                Observation::Ok
            }
            Err(e) => {
                // A rejected delta may have left the scratch prefix-
                // applied (per-op failures mutate before erroring), so
                // re-arm it from the published state.
                lin.rearm();
                self.judge("delta", &dpath, e)
            }
        }
    }

    /// Renames a rejected delta to `<file>.quarantine`, so the watcher
    /// never re-reads the bad bytes and the operator can inspect them.
    fn quarantine(&self, seq: u64) -> Observation {
        let dpath = delta_path(self.path, seq);
        let mut qpath = dpath.clone().into_os_string();
        qpath.push(".quarantine");
        if let Err(e) = std::fs::rename(&dpath, &qpath) {
            eprintln!("act-serve: quarantine of {dpath:?} failed ({e}); skipping it");
            return Observation::Io;
        }
        self.opts
            .counters
            .quarantines
            .fetch_add(1, Ordering::Relaxed);
        self.trace("quarantine", &[("seq", seq)]);
        eprintln!("act-serve: quarantined {dpath:?} to {qpath:?}");
        Observation::Ok
    }

    /// Folds the lineage's working index into a new base snapshot: stream
    /// it to a sibling, fsync, rename over the base path (all three
    /// through [`act_core::ActIndexView::save_file`]), delete the
    /// consumed delta files, and restart the chain from the checksum the
    /// writer returned. Answers with the new base's signature.
    fn fold(&mut self) -> Observation {
        let (path, lin) = (self.path, self.lineage.as_mut().expect("fold after apply"));
        match lin.working.as_view().save_file(path) {
            Ok(sum) => {
                for seq in 1..lin.link.next_seq {
                    let _ = std::fs::remove_file(delta_path(path, seq));
                }
                lin.link = DeltaLink::for_base(sum);
                eprintln!("act-serve: folded the delta lineage into {path:?}");
                Observation::Stat(snapshot_signature(path))
            }
            Err(e) => {
                eprintln!("act-serve: delta fold failed ({e}); will retry");
                Observation::Io
            }
        }
    }
}

/// Polls `path` every `opts.interval` until `shutdown`, swapping
/// validated new snapshots — and applying validated sibling delta files
/// — into `store`. `initial` is the signature of the file the store is
/// currently serving, captured by the caller **before** it opened that
/// snapshot (see [`snapshot_signature`]). Returns the number of
/// successful publishes (full swaps + delta applies).
///
/// A change is acted on only after its signature holds still for one
/// full interval; a signature whose load failed *validation* is
/// remembered and not retried until it changes again. Transient IO
/// failures are different: they are counted, retried under capped
/// exponential backoff, and never mistaken for "no change" (see the
/// module docs' failure taxonomy).
pub fn watch_loop_opts(
    path: &Path,
    store: &IndexStore,
    shutdown: &AtomicBool,
    initial: Option<Signature>,
    opts: WatchOptions,
) -> u64 {
    let mut watcher = Watcher::new(initial, opts.interval);
    let mut shell = Shell {
        path,
        store,
        opts: &opts,
        lineage: None,
        publishes: 0,
    };
    let mut pause = opts.interval;
    while !shutdown.load(Ordering::Acquire) && sleep_sliced(pause, shutdown) {
        pause = shell.poll(&mut watcher);
    }
    shell.publishes
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_core::{save_delta_file, DeltaOp};
    use geom::{Coord, Polygon, Ring};
    use std::collections::BTreeMap;

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

    /// The snapshot at `path`, as the store serves it after a reload.
    fn mapped(path: &Path) -> Arc<ActIndex> {
        Arc::new(ActIndex::from_mapped(Arc::new(
            MappedSnapshot::open(path).unwrap(),
        )))
    }

    /// Watcher options polling every `ms` milliseconds, with fresh
    /// counters and no trace ring or fault plan.
    fn options(ms: u64) -> WatchOptions {
        WatchOptions {
            interval: Duration::from_millis(ms),
            counters: Arc::default(),
            trace: None,
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    #[test]
    fn swap_bumps_epoch_and_keeps_old_arcs_alive() {
        let a = snap_file("a", &[square(-74.0, 40.7, 0.02)]);
        let b = snap_file("b", &[square(-73.9, 40.7, 0.02)]);
        let store = IndexStore::new(MappedSnapshot::open(&a).unwrap());
        let (old, e1) = store.current();
        assert_eq!(e1, 1);
        let inside_a = Coord::new(-74.0, 40.7);
        assert!(!old.as_view().lookup_refs(inside_a).is_empty());

        let e2 = store.publish(mapped(&b));
        assert_eq!(e2, 2);
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.swaps(), 1);
        let (new, e) = store.current();
        assert_eq!(e, 2);
        // New snapshot answers differently; the old Arc still answers as
        // before (in-flight batches are undisturbed).
        assert!(new.as_view().lookup_refs(inside_a).is_empty());
        assert!(!old.as_view().lookup_refs(inside_a).is_empty());
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
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-74.0, 40.7))
            .is_empty());
        let e2 = store.publish(mapped(&b));
        assert_eq!(e2, 2);
        let (idx, e) = store.current();
        assert_eq!(e, 2);
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-73.9, 40.7))
            .is_empty());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn watcher_swaps_on_change_and_survives_garbage() {
        let path = snap_file("watch", &[square(-74.0, 40.7, 0.02)]);
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(WatchCounters::default());
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                let opts = WatchOptions {
                    counters,
                    ..options(10)
                };
                watch_loop_opts(&path, &store, &shutdown, initial, opts)
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
        assert_eq!(counters.delta_applies(), 0, "a reload is no delta apply");

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
    #[test]
    fn watcher_applies_deltas_and_folds() {
        let path = snap_file("delta", &[square(-74.0, 40.7, 0.02)]);
        let base_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let (boot, _) = store.current();
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
                        counters,
                        ..options(10)
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
        assert_eq!(counters.delta_applies(), 1);
        let (idx, _) = store.current();
        assert!(
            idx.act().shares_base_with(boot.act()),
            "delta apply must not remap"
        );
        drop(boot);
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-73.9, 40.7))
            .is_empty());
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-74.0, 40.7))
            .is_empty());

        // Delta 2: remove the original polygon.
        let rm = DeltaOp::Remove { id: 0 };
        let (mut link, _) = save_delta_file(&[rm], link, &delta_path(&path, 2)).unwrap();
        wait_epoch(3);
        assert_eq!(counters.delta_applies(), 2);
        let (idx, _) = store.current();
        assert!(idx
            .as_view()
            .lookup_refs(Coord::new(-74.0, 40.7))
            .is_empty());
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-73.9, 40.7))
            .is_empty());
        drop(idx);

        // Empty deltas up to FOLD_AFTER_DELTAS: the last one crosses it,
        // so the base file is rewritten and deltas are deleted.
        for seq in 3..=FOLD_AFTER_DELTAS {
            link = save_delta_file(&[], link, &delta_path(&path, seq))
                .unwrap()
                .0;
        }
        let folded_epoch = FOLD_AFTER_DELTAS as u32 + 1;
        wait_epoch(folded_epoch);

        // The fold: consumed delta files disappear, the rewritten base
        // answers like the live index, and the watcher does NOT reload
        // it (epoch stays put).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (1..=FOLD_AFTER_DELTAS).any(|seq| delta_path(&path, seq).exists())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            !delta_path(&path, 1).exists(),
            "fold must delete consumed deltas"
        );
        assert!(!delta_path(&path, 2).exists());
        assert!(!delta_path(&path, FOLD_AFTER_DELTAS).exists());
        // The fold streamed the published index's snapshot, byte for
        // byte.
        let published = store.current().0;
        let mut image = Vec::new();
        published.save_snapshot(&mut image).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image);
        let folded = MappedSnapshot::open(&path).unwrap();
        let view = folded.view();
        assert!(view.lookup_refs(Coord::new(-74.0, 40.7)).is_empty());
        assert!(!view.lookup_refs(Coord::new(-73.9, 40.7)).is_empty());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            store.epoch(),
            folded_epoch,
            "fold must not trigger a reload"
        );

        // The new lineage restarts at seq 1 against the folded base.
        let folded_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let link = DeltaLink::for_base(folded_sum);
        let add2 = DeltaOp::Insert {
            id: 9,
            polygon: square(-73.8, 40.7, 0.02),
        };
        save_delta_file(&[add2], link, &delta_path(&path, 1)).unwrap();
        wait_epoch(folded_epoch + 1);
        let (idx, _) = store.current();
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-73.8, 40.7))
            .is_empty());

        shutdown.store(true, Ordering::Release);
        let publishes = handle.join().unwrap();
        assert_eq!(publishes, FOLD_AFTER_DELTAS + 1);
        let _ = std::fs::remove_file(delta_path(&path, 1));
        let _ = std::fs::remove_file(&qpath);
        std::fs::remove_file(&path).unwrap();
    }

    /// Waste below the compaction threshold is left alone: after an
    /// insert delta, a remove delta (which leaves tombstone garbage) and
    /// a run of idle polls, the next apply publishes an index that still
    /// carries that garbage.
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
                watch_loop_opts(&path, &store, &shutdown, initial, options(5))
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
            let (ix, _) = store.current();
            (ix.waste_bytes(), ix.waste_ratio())
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
        let (waste, ratio) = published();
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
        let (waste_after, _) = published();
        assert!(
            waste_after >= waste,
            "idle polls compacted below the threshold ({waste} -> {waste_after} bytes)"
        );
        let (idx, _) = store.current();
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-72.9, 40.7))
            .is_empty());
        assert!(idx
            .as_view()
            .lookup_refs(Coord::new(-73.3, 40.7))
            .is_empty());

        shutdown.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 3);
        for seq in 1..=3 {
            let _ = std::fs::remove_file(delta_path(&path, seq));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One delta whose removals push the waste past the compaction
    /// threshold: the apply compacts to completion before it publishes,
    /// so the published index is back under the threshold, answers
    /// right, and the next delta applies on top of it.
    #[test]
    fn watcher_compacts_when_one_delta_crosses_the_threshold() {
        let base: Vec<Polygon> = (0..12)
            .map(|k| square(-74.0 + 0.05 * f64::from(k), 40.7, 0.02))
            .collect();
        let path = snap_file("past-threshold", &base);
        let base_sum = act_core::header_checksum(&std::fs::read(&path).unwrap()).unwrap();
        let store = Arc::new(IndexStore::new(MappedSnapshot::open(&path).unwrap()));
        let base_bytes = store.current().0.as_view().memory_bytes();
        let shutdown = Arc::new(AtomicBool::new(false));
        let initial = snapshot_signature(&path);
        let handle = {
            let (store, shutdown, path) = (store.clone(), shutdown.clone(), path.clone());
            std::thread::spawn(move || {
                watch_loop_opts(&path, &store, &shutdown, initial, options(5))
            })
        };
        let wait_epoch = |want: u32| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while store.epoch() < want && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(store.epoch(), want, "epoch did not reach {want}");
        };
        let at = |k: u32| Coord::new(-74.0 + 0.05 * f64::from(k), 40.7);

        // Remove nine of the twelve polygons in one delta.
        let removals: Vec<DeltaOp> = (0..9).map(|id| DeltaOp::Remove { id }).collect();
        let link = DeltaLink::for_base(base_sum);
        let (link, _) = save_delta_file(&removals, link, &delta_path(&path, 1)).unwrap();
        wait_epoch(2);
        let (ix, _) = store.current();
        assert!(
            ix.waste_ratio() < ActIndex::COMPACT_WASTE_THRESHOLD,
            "the crossing apply must compact ({})",
            ix.waste_ratio()
        );
        // Removals orphan nodes in place; only a compaction shrinks the
        // arena below the base's.
        assert!(
            ix.memory_bytes() < base_bytes / 2,
            "no compaction ran ({base_bytes} -> {} bytes)",
            ix.memory_bytes()
        );
        for k in 0..9 {
            assert!(
                ix.as_view().lookup_refs(at(k)).is_empty(),
                "removed polygon {k}"
            );
        }
        for k in 9..12 {
            assert_eq!(
                ix.as_view().lookup_refs(at(k)),
                vec![(k, true)],
                "survivor {k}"
            );
        }
        drop(ix);

        // The next delta lands on the compacted index.
        let add = DeltaOp::Insert {
            id: 20,
            polygon: square(-74.0, 40.7, 0.02),
        };
        save_delta_file(&[add], link, &delta_path(&path, 2)).unwrap();
        wait_epoch(3);
        let (idx, _) = store.current();
        assert_eq!(idx.as_view().lookup_refs(at(0)), vec![(20, true)]);
        assert_eq!(idx.as_view().lookup_refs(at(11)), vec![(11, true)]);
        assert!(idx.as_view().lookup_refs(at(1)).is_empty());
        drop(idx);

        shutdown.store(true, Ordering::Release);
        assert_eq!(handle.join().unwrap(), 2);
        for seq in 1..=2 {
            let _ = std::fs::remove_file(delta_path(&path, seq));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A rejected first delta must not leak into the lineage: its first
    /// op has already mutated the scratch when the apply fails, so the
    /// lineage stays open and re-arms its scratch from the mapped base,
    /// and the next good file applies on that clean copy.
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
                        counters,
                        ..options(5)
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
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-73.8, 40.7))
            .is_empty());
        assert!(
            idx.as_view()
                .lookup_refs(Coord::new(-73.9, 40.7))
                .is_empty(),
            "the rejected delta's first op must not survive"
        );
        assert!(!idx
            .as_view()
            .lookup_refs(Coord::new(-74.0, 40.7))
            .is_empty());

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
                        counters,
                        faults: Some(faults),
                        ..options(5)
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

    // ---------------------------------------------------------------
    // The seeded model: the shell driven one poll at a time over a temp
    // dir (no thread, no sleep) through scripted file events, each
    // published index checked point by point against a rebuild.
    // ---------------------------------------------------------------

    /// splitmix64: a failing script replays from its seed alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const MODEL_PRECISION_M: f64 = 60.0;
    const MODEL_INTERVAL: Duration = Duration::from_millis(10);
    const MODEL_SEEDS: u64 = 6;
    const MODEL_EVENTS: usize = 60;

    /// An index over `live` built from scratch, each polygon under its id.
    fn rebuild(live: &BTreeMap<u32, Polygon>) -> ActIndex {
        let params = act_core::CoveringParams::new(MODEL_PRECISION_M);
        let n = live.keys().next_back().map_or(0, |&id| id + 1);
        let coverings = (0..n)
            .map(|id| match live.get(&id) {
                Some(p) => act_core::cover_polygon(p, &params).unwrap(),
                None => act_core::Covering::default(),
            })
            .collect();
        ActIndex::from_coverings(coverings, params, 0.0)
    }

    /// A small square somewhere along the model's strip; neighbours
    /// overlap, so cells carry several refs.
    fn random_square(rng: &mut Rng) -> Polygon {
        let cx = -74.0 + 0.05 * rng.below(14) as f64 + 0.01 * rng.below(3) as f64;
        let cy = 40.69 + 0.01 * rng.below(3) as f64;
        square(cx, cy, [0.012, 0.02, 0.03][rng.below(3) as usize])
    }

    /// Seals delta words the way the writer does: FNV-1a over every
    /// word but the checksum word 3.
    fn seal(words: &mut [u64]) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, &w) in words.iter().enumerate() {
            if i != 3 {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        words[3] = h;
    }

    /// Removes the script's temp dir however the script ends.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The ways a delta file can be rejected; each must be quarantined.
    const BAD_DELTAS: [&str; 6] = [
        "corrupt",
        "truncated",
        "out-of-order",
        "wrong-chain",
        "over-30-bit-id",
        "fails-mid-apply",
    ];

    /// The shell under test, the watcher it drives, and the model the
    /// published index must match.
    struct Harness<'a> {
        shell: Shell<'a>,
        watcher: Watcher,
        rng: Rng,
        /// The polygon set of the current base plus its good deltas.
        live: BTreeMap<u32, Polygon>,
        /// The writer's cursor: what the next good delta chains onto.
        link: DeltaLink,
        epoch: u32,
        quarantines: u64,
        errors: u64,
        /// Opens and applies attempted so far, by fault site.
        attempts: [u64; 2],
        points: Vec<Coord>,
        seen: &'a mut BTreeMap<&'static str, u32>,
        /// The event under way, for failure messages.
        event: String,
    }

    impl Harness<'_> {
        fn path(&self) -> &Path {
            self.shell.path
        }

        /// One poll, then the books. `streak` is how many polls in a
        /// row, this one included, have ended on an IO error (0 for a
        /// clean poll); it fixes the pause the watcher must ask for.
        fn poll(&mut self, streak: u32) {
            let pause = self.shell.poll(&mut self.watcher);
            let counters = &self.shell.opts.counters;
            let at = &self.event;
            assert_eq!(pause, backoff(MODEL_INTERVAL, streak), "pause, {at}");
            assert_eq!(self.shell.store.epoch(), self.epoch, "epoch, {at}");
            assert_eq!(
                counters.quarantines(),
                self.quarantines,
                "quarantines, {at}"
            );
            assert_eq!(counters.errors(), self.errors, "errors, {at}");
        }

        /// The published index answers like a rebuild of the model.
        fn check(&self) {
            let want = rebuild(&self.live);
            let (got, _) = self.shell.store.current();
            for &c in &self.points {
                let mut a = got.as_view().lookup_refs(c);
                let mut b = want.as_view().lookup_refs(c);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "diverges from a rebuild at {c}, {}", self.event);
            }
        }

        /// Polls until the reload (`site` 0) or apply (1) that the next
        /// poll attempts gets past the fault plan: with
        /// `fault-injection`, the plan fails the 2nd and every 5th
        /// attempt after it at each site with an IO error, which the
        /// watcher must count and retry under backoff, never quarantine.
        fn attempt(&mut self, site: usize) {
            self.attempts[site] += 1;
            while cfg!(feature = "fault-injection") && self.attempts[site] % 5 == 2 {
                self.errors += 1;
                self.poll(1);
                self.attempts[site] += 1;
            }
        }

        fn note(&mut self, what: &'static str) {
            *self.seen.entry(what).or_default() += 1;
        }

        /// Writes `live` as the base snapshot; returns its checksum.
        fn write_base(&self, live: &BTreeMap<u32, Polygon>) -> u64 {
            let mut bytes = Vec::new();
            rebuild(live).save_snapshot(&mut bytes).unwrap();
            act_core::write_file_atomic(self.path(), &bytes).unwrap();
            act_core::header_checksum(&bytes).unwrap()
        }

        fn delta_bytes(&self, ops: &[DeltaOp], link: DeltaLink) -> Vec<u8> {
            let mut bytes = Vec::new();
            act_core::save_delta(ops, link, &mut bytes).unwrap();
            bytes
        }

        fn write_delta(&self, bytes: &[u8]) {
            let dpath = delta_path(self.path(), self.link.next_seq);
            act_core::write_file_atomic(&dpath, bytes).unwrap();
        }

        /// A good delta: seen once, then applied on the next poll; the
        /// apply that reaches `FOLD_AFTER_DELTAS` also folds.
        fn good_delta(&mut self, ops: Vec<DeltaOp>) {
            let before = self.shell.store.current().0;
            let mut bytes = Vec::new();
            let (link, _) = act_core::save_delta(&ops, self.link, &mut bytes).unwrap();
            self.write_delta(&bytes);
            self.poll(0);
            self.attempt(1);
            for op in ops {
                match op {
                    DeltaOp::Insert { id, polygon } => self.live.insert(id, polygon),
                    DeltaOp::Remove { id } => self.live.remove(&id),
                };
            }
            self.epoch += 1;
            self.poll(0);
            self.check();
            let ix = self.shell.store.current().0;
            if !ix.act().shares_base_with(before.act()) {
                self.note("compaction");
            }
            self.link = link;
            if link.next_seq > FOLD_AFTER_DELTAS {
                self.note("fold");
                for seq in 1..link.next_seq {
                    assert!(!delta_path(self.path(), seq).exists(), "fold left d{seq}");
                }
                let mut image = Vec::new();
                ix.save_snapshot(&mut image).unwrap();
                let base = std::fs::read(self.path()).unwrap();
                assert!(base == image, "the fold must write the published index");
                self.link = DeltaLink::for_base(act_core::header_checksum(&base).unwrap());
            }
        }

        /// A rejected delta: seen once, quarantined on the next poll,
        /// the served index unchanged.
        fn bad_delta(&mut self, kind: &'static str) {
            let good = [DeltaOp::Insert {
                id: 3,
                polygon: square(-73.85, 40.7, 0.02),
            }];
            let bytes = match kind {
                "corrupt" => {
                    let mut b = self.delta_bytes(&good, self.link);
                    let at = self.rng.below(b.len() as u64) as usize;
                    b[at] ^= 1 << self.rng.below(8);
                    b
                }
                "truncated" => {
                    let b = self.delta_bytes(&good, self.link);
                    b[..1 + self.rng.below(b.len() as u64 - 1) as usize].to_vec()
                }
                "out-of-order" => self.delta_bytes(
                    &good,
                    DeltaLink {
                        next_seq: self.link.next_seq + 1,
                        ..self.link
                    },
                ),
                "wrong-chain" => self.delta_bytes(
                    &good,
                    DeltaLink {
                        prev_sum: self.link.prev_sum ^ 1,
                        ..self.link
                    },
                ),
                "over-30-bit-id" => {
                    let b = self.delta_bytes(&good, self.link);
                    let mut words: Vec<u64> = b
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    words[8] = 1 | (u64::from(act_core::MAX_POLYGON_ID + 1) << 32);
                    seal(&mut words);
                    words.iter().flat_map(|w| w.to_le_bytes()).collect()
                }
                _ => {
                    // The first op mutates the scratch; the second spans
                    // two cube faces and fails the apply.
                    let spans_faces = DeltaOp::Insert {
                        id: 4,
                        polygon: square(45.0, 0.0, 2.0),
                    };
                    self.delta_bytes(&[good[0].clone(), spans_faces], self.link)
                }
            };
            self.note(kind);
            self.write_delta(&bytes);
            self.poll(0);
            self.attempt(1);
            self.quarantines += 1;
            self.poll(0);
            let dpath = delta_path(self.path(), self.link.next_seq);
            let mut qpath = dpath.clone().into_os_string();
            qpath.push(".quarantine");
            assert!(!dpath.exists(), "{kind} delta left in its slot");
            std::fs::remove_file(qpath).expect("quarantined file");
        }

        /// An operator replaces the base (removing the lineage's files),
        /// sometimes writing the new lineage's first delta with it: the
        /// base reloads on the second poll; the delta, seen first under
        /// the new lineage on the third, applies on the fourth.
        fn replace_base(&mut self) {
            if self.link.next_seq > 1 {
                self.note("base-replaced-mid-lineage");
            }
            for seq in 1..self.link.next_seq {
                std::fs::remove_file(delta_path(self.path(), seq)).unwrap();
            }
            let live: BTreeMap<u32, Polygon> = (0..4 + self.rng.below(9) as u32)
                .map(|id| (id, random_square(&mut self.rng)))
                .collect();
            let link = DeltaLink::for_base(self.write_base(&live));
            let first = (self.rng.below(2) == 0).then(|| {
                let ops = vec![DeltaOp::Insert {
                    id: 20,
                    polygon: random_square(&mut self.rng),
                }];
                let mut bytes = Vec::new();
                let next = act_core::save_delta(&ops, link, &mut bytes).unwrap().0;
                act_core::write_file_atomic(&delta_path(self.path(), 1), &bytes).unwrap();
                (ops, next)
            });
            self.poll(0);
            self.attempt(0);
            self.epoch += 1;
            self.live = live;
            self.link = link;
            self.poll(0);
            self.check();
            if let Some((ops, next)) = first {
                self.poll(0);
                self.attempt(1);
                let DeltaOp::Insert { id, polygon } = ops[0].clone() else {
                    unreachable!()
                };
                self.live.insert(id, polygon);
                self.epoch += 1;
                self.poll(0);
                self.check();
                self.link = next;
            }
        }

        /// Bytes that are no snapshot land on the base path: judged
        /// invalid once stable, the current index keeps serving and the
        /// lineage goes on over it.
        fn invalid_base(&mut self) {
            self.note("invalid-base");
            act_core::write_file_atomic(self.path(), b"not a snapshot").unwrap();
            self.poll(0);
            self.attempt(0);
            self.poll(0);
            self.poll(0);
        }

        /// `polls` stats in a row fail — a directory where the base or
        /// the next delta should be — and the watcher backs off, doubling
        /// its pause; the first clean poll after goes back to the
        /// interval and nothing is published.
        fn stat_flap(&mut self, polls: u32) {
            let base = self.rng.below(2) == 0;
            let (at, aside) = if base {
                self.note("base-stat-flap");
                let aside = self.path().with_extension("aside");
                std::fs::rename(self.path(), &aside).unwrap();
                (self.path().to_path_buf(), Some(aside))
            } else {
                self.note("delta-stat-flap");
                (delta_path(self.path(), self.link.next_seq), None)
            };
            std::fs::create_dir(&at).unwrap();
            for streak in 1..=polls {
                self.errors += 1;
                self.poll(streak);
            }
            std::fs::remove_dir(&at).unwrap();
            if let Some(aside) = aside {
                std::fs::rename(aside, &at).unwrap();
            }
            self.poll(0);
        }

        fn random_ops(&mut self) -> Vec<DeltaOp> {
            (0..self.rng.below(4))
                .map(|_| {
                    let id = self.rng.below(16) as u32;
                    if self.rng.below(3) == 0 {
                        DeltaOp::Remove { id }
                    } else {
                        DeltaOp::Insert {
                            id,
                            polygon: random_square(&mut self.rng),
                        }
                    }
                })
                .collect()
        }
    }

    /// Runs `script` on a harness over a fresh temp dir whose base holds
    /// 12 random squares, then checks every publish was the shell's.
    fn with_harness(
        seed: u64,
        seen: &mut BTreeMap<&'static str, u32>,
        script: impl FnOnce(&mut Harness),
    ) {
        let dir = TempDir(
            std::env::temp_dir().join(format!("act-watch-model-{}-{seed}", std::process::id())),
        );
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("zones.snap");
        let mut rng = Rng(seed);
        let live: BTreeMap<u32, Polygon> = (0..12).map(|k| (k, random_square(&mut rng))).collect();
        let mut bytes = Vec::new();
        rebuild(&live).save_snapshot(&mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let sum = act_core::header_checksum(&bytes).unwrap();
        let initial = snapshot_signature(&path);
        let store = IndexStore::new(MappedSnapshot::open(&path).unwrap());
        #[cfg(feature = "fault-injection")]
        let faults = {
            use crate::faults::{FaultPlan, FaultSpec, Site};
            let spec = |site| FaultSpec {
                site,
                first: 2,
                every: 5,
                count: u64::MAX,
            };
            let plan = FaultPlan::new(seed).with(spec(Site::SnapshotOpen));
            Some(plan.with(spec(Site::DeltaOpen)).arm())
        };
        let opts = WatchOptions {
            #[cfg(feature = "fault-injection")]
            faults,
            ..options(MODEL_INTERVAL.as_millis() as u64)
        };
        let mut h = Harness {
            shell: Shell {
                path: &path,
                store: &store,
                opts: &opts,
                lineage: None,
                publishes: 0,
            },
            watcher: Watcher::new(initial, MODEL_INTERVAL),
            rng,
            live,
            link: DeltaLink::for_base(sum),
            epoch: 1,
            quarantines: 0,
            errors: 0,
            attempts: [0; 2],
            points: (0..96)
                .map(|k| {
                    Coord::new(
                        -74.05 + 0.0075 * f64::from(k),
                        40.66 + 0.007 * f64::from(k % 9),
                    )
                })
                .collect(),
            seen,
            event: String::new(),
        };
        h.check();
        script(&mut h);
        assert_eq!(
            h.shell.publishes,
            u64::from(h.epoch - 1),
            "every publish is the shell's"
        );
    }

    /// One seeded script of `MODEL_EVENTS` file events.
    fn run_script(seed: u64, seen: &mut BTreeMap<&'static str, u32>) {
        with_harness(seed, seen, |h| {
            for event in 0..MODEL_EVENTS {
                let pick = h.rng.below(16);
                h.event = format!("event {event} (kind {pick}, next seq {})", h.link.next_seq);
                match pick {
                    0..=7 => {
                        let ops = h.random_ops();
                        h.good_delta(ops);
                    }
                    8..=10 => {
                        let kind = BAD_DELTAS[h.rng.below(BAD_DELTAS.len() as u64) as usize];
                        h.bad_delta(kind);
                    }
                    11 => {
                        // Remove all but one polygon: past the compaction
                        // threshold in one delta.
                        let ids: Vec<u32> = h.live.keys().skip(1).copied().collect();
                        let ops = ids.into_iter().map(|id| DeltaOp::Remove { id }).collect();
                        h.good_delta(ops);
                    }
                    12 => h.replace_base(),
                    13 => h.invalid_base(),
                    14 => {
                        let polls = 1 + h.rng.below(4) as u32;
                        h.stat_flap(polls);
                    }
                    _ => {
                        h.poll(0);
                        h.check();
                    }
                }
            }
        });
    }

    /// The model property: for seeded scripts of good, corrupt,
    /// truncated, out-of-order, wrong-chain and over-30-bit deltas, base
    /// replacements mid-lineage, invalid bases and flapping stat errors,
    /// the watcher publishes exactly when the debounce allows, backs off
    /// as specified, quarantines exactly the bad files, folds at
    /// `FOLD_AFTER_DELTAS` without reloading, compacts past the
    /// threshold — and every published index answers, point by point,
    /// like a rebuild of the current base plus its good deltas in order.
    #[test]
    fn watcher_matches_a_rebuild_under_seeded_scripts() {
        let mut seen = BTreeMap::new();
        for seed in 1..=MODEL_SEEDS {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_script(seed, &mut seen)
            }));
            if let Err(cause) = run {
                let why = cause
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!(
                    "watcher model failed at seed {seed} (replay: run_script({seed}, ..)): {why}"
                );
            }
        }
        let wanted = [
            "fold",
            "compaction",
            "base-replaced-mid-lineage",
            "invalid-base",
        ];
        let flaps = ["base-stat-flap", "delta-stat-flap"];
        for what in wanted.iter().chain(&flaps).chain(&BAD_DELTAS) {
            assert!(
                seen.contains_key(what),
                "no script covered {what}: {seen:?}"
            );
        }
    }

    /// A checksum-valid delta with an op id above 30 bits (one a foreign
    /// writer could produce) is quarantined like any invalid file, and
    /// the next good delta at that sequence applies.
    #[test]
    fn over_30_bit_delta_id_is_quarantined_then_the_next_delta_applies() {
        with_harness(7, &mut BTreeMap::new(), |h| {
            h.bad_delta("over-30-bit-id");
            h.good_delta(vec![DeltaOp::Insert {
                id: 3,
                polygon: square(-73.85, 40.7, 0.02),
            }]);
        });
    }
}
