//! The connection front end both TCP endpoints share: the accept gate
//! with its `BUSY` refusal, the drain-aware request reader, and one
//! connection loop, a pure state machine behind a reader/writer shell.
//!
//! A worker ([`crate::server`]) and the router ([`crate::router`]) speak
//! one protocol to untrusted clients, so they meet those clients through
//! one piece of code. Each endpoint keeps what it does with a request:
//! the [`Endpoint`] it implements.
//!
//! ## Decisions and IO
//!
//! [`Conn::step`] makes every per-connection decision: the in-order
//! ring of owed replies (at most `max_inflight` sequence-numbered
//! slots), the lane-quota book, admit vs. shed vs. wait for room, the
//! close after `BAD_REQUEST`, and the drain deadline. It takes one
//! [`Event`] and answers with the next [`Action`]; it holds no socket,
//! clock, lock, atomic or channel, so the seeded model property
//! `conn_step_matches_its_model_under_seeded_scripts` (this module's
//! tests) drives it with no thread.
//!
//! The shell gives each connection two threads over the one socket,
//! sharing the `Conn` under a mutex and one condvar:
//! - the **reader** (the connection thread) reads and decodes a
//!   request, steps the `Conn`, and answers it in place, sheds it, or
//!   queues it with the endpoint. At `max_inflight` owed replies it
//!   stops reading until the writer frees a slot, so a client whose
//!   replies back up is slowed by ordinary TCP backpressure;
//! - the **writer** waits for the head slot's reply and writes it, so
//!   replies go out in request order while the reader reads on;
//! - a queued frame carries a [`Slot`]: its connection and sequence
//!   number. The worker that answers it fills the slot.

use crate::protocol as proto;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a draining connection keeps trying to deliver what it owes
/// before giving up, so one stalled client cannot hold shutdown.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Replies one connection may owe before its reader stops reading: the
/// server's default and the router's bound.
pub(crate) const MAX_INFLIGHT_FRAMES: usize = 16;

/// How often a writer with nothing to write re-checks the drain.
const TICK: Duration = Duration::from_millis(25);

/// An endpoint's connection set: the drain flag, the connection cap and
/// the served connections' threads. A connection counts against the cap
/// until its thread finishes, so a panicking handler frees its slot too.
pub(crate) struct Front {
    /// Set once, when the endpoint starts to drain.
    pub(crate) draining: AtomicBool,
    max_connections: usize,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Front {
    pub(crate) fn new(max_connections: usize) -> Front {
        Front {
            draining: AtomicBool::new(false),
            max_connections,
            conns: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flips the drain flag; true only for the call that flipped it.
    pub(crate) fn start_drain(&self) -> bool {
        !self.draining.swap(true, Ordering::AcqRel)
    }

    fn conns(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Joins every served connection. Call after the accept loop has
    /// returned, when the set is final.
    pub(crate) fn join_connections(&self) {
        for c in std::mem::take(&mut *self.conns()) {
            let _ = c.join();
        }
    }
}

/// Accepts until the drain starts. Each socket is set up once, here:
/// blocking, no Nagle, a 25 ms read tick (the drain poll, never request
/// latency) and a 50 ms write tick (the drain-deadline poll). At the cap
/// a connection goes to [`Endpoint::refuse`] before any thread is
/// spawned; otherwise it is served on its own `thread_name` thread, with
/// its writer on a `{thread_name}-writer` thread.
pub(crate) fn accept_loop<E: Endpoint>(listener: TcpListener, ep: Arc<E>, thread_name: &str) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let writer_name = format!("{thread_name}-writer");
    while !ep.front().draining() {
        let Ok((stream, _peer)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        // BSD-derived unixes make accepted sockets inherit the
        // listener's O_NONBLOCK (Linux does not); force blocking so the
        // ticks below block instead of busy-spinning on WouldBlock.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
        let mut conns = ep.front().conns();
        conns.retain(|h| !h.is_finished());
        if conns.len() >= ep.front().max_connections {
            drop(conns);
            ep.refuse(stream);
            continue;
        }
        let (ep, writer_name) = (Arc::clone(&ep), writer_name.clone());
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || serve(&*ep, stream, writer_name))
            .expect("spawn connection thread");
        conns.push(handle);
    }
}

/// Answers a connection refused at the accept gate: one `BUSY` frame
/// (op 0 — there is no request to echo) carrying a retry-after hint,
/// best effort, then close.
pub(crate) fn refuse_busy(mut stream: TcpStream, epoch: u32, hint_ms: u32) {
    let hint = proto::encode_retry_hint(hint_ms);
    let frame = proto::encode_response(0, proto::STATUS_BUSY, epoch, 0, &hint);
    let _ = stream.write_all(&frame);
}

/// Reads and decodes one request. `Ok(None)` means the connection is
/// done: clean EOF, `stop` fired before the frame was fully read (the
/// frame is abandoned, never accepted), or an I/O error. `Err(op)` is a
/// malformed frame, owed a `BAD_REQUEST` reply echoing `op` (0 when the
/// length prefix exceeds the protocol cap and the body is never read);
/// the caller sends it, then [`drain_unread`]s and closes.
fn read_request(r: &mut TcpStream, stop: &impl Fn() -> bool) -> Result<Option<proto::Request>, u8> {
    let mut len = [0u8; 4];
    if !matches!(fill(r, &mut len, stop), Ok(true)) {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes(len) as usize;
    if body_len > proto::MAX_REQ_BODY {
        return Err(0);
    }
    let mut body = vec![0u8; body_len];
    if !matches!(fill(r, &mut body, stop), Ok(true)) {
        return Ok(None);
    }
    match proto::decode_request(&body) {
        Ok(req) => Ok(Some(req)),
        Err(_) => Err(body.first().copied().unwrap_or(0)),
    }
}

/// Fills `buf`, riding out read ticks; each tick polls `stop`, so a
/// drain is seen mid-frame without losing framing. `Ok(false)` when
/// `stop` fired first or the peer closed before the first byte.
fn fill(r: &mut TcpStream, buf: &mut [u8], stop: &impl Fn() -> bool) -> io::Result<bool> {
    let mut at = 0;
    while at < buf.len() {
        if stop() {
            return Ok(false);
        }
        match r.read(&mut buf[at..]) {
            Ok(0) if at == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => at += k,
            Err(e) if is_tick(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A read or write tick ran out (or a signal interrupted the call):
/// nothing failed, poll and retry.
fn is_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// After a typed reject on a malformed frame, consume (and discard) the
/// request bytes the client may still be sending — bounded in bytes and
/// time — so closing the socket performs an orderly FIN instead of an
/// RST. Closing with unread data in the receive buffer makes the kernel
/// reset the connection, and a reset discards the queued reject before
/// the client can read it. Exits as soon as the client pauses (one read
/// tick), goes quiet (EOF), or the bounds trip — a hostile sender cannot
/// hold the thread.
fn drain_unread(r: &mut TcpStream) {
    let deadline = Instant::now() + Duration::from_millis(200);
    let mut sunk = 0usize;
    let mut buf = [0u8; 4096];
    while sunk < 64 * 1024 && Instant::now() < deadline {
        match r.read(&mut buf) {
            Ok(0) => return, // client finished sending
            Ok(k) => sunk += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // WouldBlock/TimedOut: nothing in flight right now — the
            // socket's short read tick already waited long enough.
            Err(_) => return,
        }
    }
}

/// Writes a whole frame, riding out write ticks; each tick polls
/// `expired`, so a stalled client cannot hold shutdown past the drain
/// deadline.
pub(crate) fn write_all_retry(
    w: &mut TcpStream,
    frame: &[u8],
    expired: &dyn Fn() -> bool,
) -> io::Result<()> {
    let mut at = 0;
    while at < frame.len() {
        match w.write(&frame[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => at += k,
            Err(e) if is_tick(&e) => {
                if expired() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The connection state machine
// ---------------------------------------------------------------------

/// The queue's verdict on a probe frame the reader admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Queued: a worker fills its slot.
    Enqueued,
    /// The queue is full: the frame is shed.
    Full,
    /// The endpoint drains: the frame was never accepted and is owed
    /// nothing.
    Draining,
}

/// A reply ready to write, with the admission stamp its write closes
/// the frame-total span from (`Some` only for a queued probe frame with
/// observability on).
#[derive(Debug, PartialEq)]
pub(crate) struct Out {
    pub(crate) frame: Vec<u8>,
    pub(crate) admitted: Option<Instant>,
}

impl From<Vec<u8>> for Out {
    fn from(frame: Vec<u8>) -> Out {
        Out {
            frame,
            admitted: None,
        }
    }
}

/// What happened on a connection: all [`Conn::step`] ever sees.
pub(crate) enum Event {
    /// The reader decoded a request: `Some(lanes)` for a probe frame the
    /// endpoint queues, `None` for one the reader answers itself.
    Frame(Option<usize>),
    /// The reader read a malformed frame: owed `BAD_REQUEST`, then close.
    Malformed,
    /// The queue's verdict on the frame admitted into slot `seq`.
    Queued(u64, Verdict),
    /// Slot `seq`'s reply is ready.
    Reply(u64, Out),
    /// The writer wrote the head slot's reply.
    Written,
    /// The writer could not write it.
    WriteFailed,
    /// The reader stopped reading: EOF, the drain, or an IO error.
    ReadDone,
    /// The writer's poll: `None` while the endpoint serves, the time now
    /// once it drains.
    Tick(Option<Instant>),
}

/// What [`Conn::step`] asks of the thread that stepped it.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Read the next request.
    Read,
    /// Queue the frame; a worker fills slot `seq` (answer with `Queued`).
    Admit(u64),
    /// Answer the frame `LOADSHED` into slot `seq`; `quota` when the
    /// connection's lane quota refused it, not the queue.
    Shed { seq: u64, quota: bool },
    /// Answer the frame on this thread into slot `seq`.
    AnswerNow(u64),
    /// Write this reply (answer with `Written` or `WriteFailed`).
    Write(Out),
    /// Nothing to do until another thread steps the connection.
    Wait,
    /// This side is done: the reader stops reading, the writer closes.
    Close,
}

/// Every per-connection decision, as a pure state machine (see the
/// module docs).
#[derive(Debug, Default)]
pub(crate) struct Conn {
    max_inflight: usize,
    quota: Option<usize>,
    /// Owed replies in read order, `ring[0]` being slot `head`: the lanes
    /// each charged to the quota book, and its reply once ready.
    ring: VecDeque<(usize, Option<Out>)>,
    head: u64,
    /// The quota book: lanes of queued frames whose replies are not
    /// ready yet.
    lanes: usize,
    /// The writer holds the head slot's reply.
    writing: bool,
    /// The reader has stopped: no more slots are reserved.
    read_done: bool,
    /// Set by the first tick that sees the drain.
    deadline: Option<Instant>,
    /// The writer is done: nothing more is read or written.
    closed: bool,
}

impl Conn {
    /// A connection owing at most `max_inflight` (≥ 1) replies, with an
    /// optional in-flight lane quota.
    pub(crate) fn new(max_inflight: usize, quota: Option<usize>) -> Conn {
        Conn {
            max_inflight: max_inflight.max(1),
            quota,
            ..Conn::default()
        }
    }

    /// Takes one event and decides what the thread that fed it does next.
    pub(crate) fn step(&mut self, event: Event) -> Action {
        match event {
            Event::Frame(_) | Event::Malformed if self.closed || self.read_done => Action::Close,
            Event::Frame(_) | Event::Malformed if self.ring.len() >= self.max_inflight => {
                Action::Wait
            }
            Event::Frame(lanes) => {
                let seq = self.reserve();
                match lanes {
                    None => Action::AnswerNow(seq),
                    // Per-client fairness: a frame that would push this
                    // connection past its quota is shed before the shared
                    // queue is consulted, so the greedy pipeliner pays,
                    // not the queue everyone shares.
                    Some(n) if self.quota.is_some_and(|q| self.lanes + n > q) => {
                        Action::Shed { seq, quota: true }
                    }
                    Some(n) => {
                        self.lanes += n;
                        self.slot(seq).0 = n;
                        Action::Admit(seq)
                    }
                }
            }
            // `BAD_REQUEST` is the last slot: the writer closes once it
            // is written.
            Event::Malformed => {
                self.read_done = true;
                Action::AnswerNow(self.reserve())
            }
            Event::Queued(_, Verdict::Enqueued) => self.next_read(),
            Event::Queued(seq, Verdict::Full) => {
                self.release(seq);
                Action::Shed { seq, quota: false }
            }
            Event::Queued(seq, Verdict::Draining) => {
                self.release(seq);
                // The reader reserves one slot at a time, so `seq` is
                // the tail.
                self.ring.pop_back();
                self.read_done = true;
                Action::Close
            }
            Event::Reply(seq, out) => {
                self.release(seq);
                self.slot(seq).1 = Some(out);
                self.next_read()
            }
            Event::Written => {
                self.ring.pop_front();
                self.writing = false;
                self.head += 1;
                self.next_write()
            }
            Event::WriteFailed => {
                self.closed = true;
                Action::Close
            }
            Event::ReadDone => {
                self.read_done = true;
                Action::Close
            }
            Event::Tick(now) => {
                if let Some(now) = now {
                    let deadline = *self.deadline.get_or_insert(now + DRAIN_GRACE);
                    self.closed |= now >= deadline;
                }
                self.next_write()
            }
        }
    }

    /// Appends an owed slot; returns its sequence number.
    fn reserve(&mut self) -> u64 {
        self.ring.push_back((0, None));
        self.head + self.ring.len() as u64 - 1
    }

    fn slot(&mut self, seq: u64) -> &mut (usize, Option<Out>) {
        let at = usize::try_from(seq - self.head).expect("an owed slot");
        &mut self.ring[at]
    }

    /// Returns the lanes slot `seq` charged to the quota book.
    fn release(&mut self, seq: u64) {
        let slot = self.slot(seq);
        let lanes = std::mem::take(&mut slot.0);
        self.lanes -= lanes;
    }

    fn next_read(&self) -> Action {
        if !self.read_done && !self.closed {
            Action::Read
        } else {
            Action::Close
        }
    }

    fn next_write(&mut self) -> Action {
        if self.closed {
            return Action::Close;
        }
        if self.writing {
            return Action::Wait;
        }
        match self.ring.front_mut() {
            Some((_, out @ Some(_))) => {
                self.writing = true;
                Action::Write(out.take().expect("matched a ready reply"))
            }
            Some(_) => Action::Wait,
            None if !self.read_done => Action::Wait,
            None => {
                self.closed = true;
                Action::Close
            }
        }
    }
}

// ---------------------------------------------------------------------
// The shell
// ---------------------------------------------------------------------

/// What an endpoint does with the requests its connections read; the
/// shell carries out everything else.
pub(crate) trait Endpoint: Send + Sync + 'static {
    /// What one connection's reader keeps between requests.
    type Local;

    /// The drain flag, the connection cap and the connection threads.
    fn front(&self) -> &Front;

    /// A new connection's state machine and reader-local state.
    fn open(&self) -> (Conn, Self::Local);

    /// Answers a connection refused at the accept gate.
    fn refuse(&self, stream: TcpStream);

    /// The lanes `req` puts on the endpoint's queue, or `None` when the
    /// reader answers it itself ([`Endpoint::answer`]).
    fn lanes(&self, _req: &proto::Request) -> Option<usize> {
        None
    }

    /// The reply to `req`, computed on the reader thread.
    fn answer(&self, local: &mut Self::Local, req: proto::Request) -> Vec<u8>;

    /// Queues `req`, whose reply fills `slot`; asked only for requests
    /// [`Endpoint::lanes`] measured.
    fn enqueue(&self, _req: proto::Request, _slot: Slot) -> Verdict {
        unreachable!("an endpoint that queues nothing is never asked to")
    }

    /// The `LOADSHED` reply to a probe frame of `lanes` lanes, shed by
    /// the queue or, with `quota`, by the connection's lane quota.
    fn shed(&self, _lanes: usize, _quota: bool) -> Vec<u8> {
        unreachable!("an endpoint that queues nothing sheds nothing")
    }

    /// The `BAD_REQUEST` reply to a malformed frame, echoing `op`.
    fn reject(&self, op: u8) -> Vec<u8>;

    /// Writes one reply; `expired` polls the drain deadline at each
    /// write tick.
    fn write(&self, w: &mut TcpStream, out: Out, expired: &dyn Fn() -> bool) -> io::Result<()> {
        write_all_retry(w, &out.frame, expired)
    }
}

/// A queued frame's claim on its connection: the slot its reply fills.
pub(crate) struct Slot {
    link: Arc<Link>,
    seq: u64,
}

impl Slot {
    /// Fills the slot, which returns the lanes the frame charged to the
    /// quota, and wakes the writer. A connection whose lock a panic
    /// poisoned is owed nothing.
    pub(crate) fn fill(self, out: Out) {
        if let Ok(mut conn) = self.link.conn.lock() {
            self.link
                .step_locked(&mut conn, Event::Reply(self.seq, out));
        }
    }
}

/// One connection's shared half: its [`Conn`], and the condvar its
/// reader and writer wait on.
struct Link {
    conn: Mutex<Conn>,
    wake: Condvar,
    /// Threads blocked on `wake`. Changed and read only under the `conn`
    /// lock, which orders it, so a step sees every waiter and skips the
    /// wake-up when there is none.
    waiters: AtomicUsize,
}

impl Link {
    fn lock(&self) -> MutexGuard<'_, Conn> {
        self.conn.lock().expect("connection state lock")
    }

    fn step(&self, event: Event) -> Action {
        self.step_locked(&mut self.lock(), event)
    }

    /// Steps the held connection, and wakes the blocked threads when the
    /// step can unblock one: a reply (the writer waits for the head
    /// slot's), a write (the reader waits for room), or a side done.
    fn step_locked(&self, conn: &mut Conn, event: Event) -> Action {
        let wakes = matches!(
            event,
            Event::Reply(..)
                | Event::Written
                | Event::WriteFailed
                | Event::ReadDone
                | Event::Queued(_, Verdict::Draining)
        );
        let action = conn.step(event);
        if (wakes || action == Action::Close) && self.waiters.load(Ordering::Relaxed) > 0 {
            self.wake.notify_all();
        }
        action
    }

    /// [`Link::step`], then, while the answer is `Wait`, blocks until
    /// another thread's step wakes it (or a tick passes) and steps
    /// `again()`.
    fn step_until(&self, event: Event, again: impl Fn() -> Event) -> Action {
        let mut conn = self.lock();
        let mut action = self.step_locked(&mut conn, event);
        while action == Action::Wait {
            self.waiters.fetch_add(1, Ordering::Relaxed);
            conn = self
                .wake
                .wait_timeout(conn, TICK)
                .expect("connection state lock")
                .0;
            self.waiters.fetch_sub(1, Ordering::Relaxed);
            action = self.step_locked(&mut conn, again());
        }
        action
    }
}

/// Serves one accepted connection: this thread reads, a scoped thread
/// writes (see the module docs).
fn serve<E: Endpoint>(ep: &E, stream: TcpStream, writer_name: String) {
    let Ok(w) = stream.try_clone() else { return };
    let (conn, local) = ep.open();
    let link = Arc::new(Link {
        conn: Mutex::new(conn),
        wake: Condvar::new(),
        waiters: AtomicUsize::new(0),
    });
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(writer_name)
            .spawn_scoped(scope, || write_loop(ep, w, &link))
            .expect("spawn connection writer");
        read_loop(ep, local, stream, &link);
        // What is owed still flows: the writer closes once it is written.
        link.step(Event::ReadDone);
    });
}

/// The reader: requests in, until clean EOF, the drain, the writer's
/// close, or a malformed frame (answered `BAD_REQUEST`, then the unread
/// bytes are drained so the close is a FIN).
fn read_loop<E: Endpoint>(ep: &E, mut local: E::Local, mut r: TcpStream, link: &Arc<Link>) {
    let stop = || ep.front().draining() || link.lock().closed;
    loop {
        let req = match read_request(&mut r, &stop) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(op) => {
                if let Action::AnswerNow(seq) =
                    link.step_until(Event::Malformed, || Event::Malformed)
                {
                    link.step(Event::Reply(seq, ep.reject(op).into()));
                }
                drain_unread(&mut r);
                return;
            }
        };
        if serve_request(ep, &mut local, link, req) == Action::Close {
            return;
        }
    }
}

/// One decoded request: answered on this thread, queued, or shed, as
/// the connection decides. Returns `Read` or `Close`.
fn serve_request<E: Endpoint>(
    ep: &E,
    local: &mut E::Local,
    link: &Arc<Link>,
    req: proto::Request,
) -> Action {
    let lanes = ep.lanes(&req);
    let (seq, quota) = match link.step_until(Event::Frame(lanes), || Event::Frame(lanes)) {
        Action::AnswerNow(seq) => {
            let frame = ep.answer(local, req);
            return link.step(Event::Reply(seq, frame.into()));
        }
        Action::Admit(seq) => {
            let slot = Slot {
                link: Arc::clone(link),
                seq,
            };
            match link.step(Event::Queued(seq, ep.enqueue(req, slot))) {
                Action::Shed { seq, quota } => (seq, quota),
                action => return action,
            }
        }
        Action::Shed { seq, quota } => (seq, quota),
        action => return action,
    };
    let frame = ep.shed(lanes.unwrap_or_default(), quota);
    link.step(Event::Reply(seq, frame.into()))
}

/// The writer: each owed reply in order, as it becomes ready, until the
/// connection closes.
fn write_loop<E: Endpoint>(ep: &E, mut w: TcpStream, link: &Link) {
    let tick = || Event::Tick(ep.front().draining().then(Instant::now));
    let expired = || link.step(tick()) == Action::Close;
    let mut action = link.step_until(tick(), tick);
    while let Action::Write(out) = action {
        let event = match ep.write(&mut w, out, &expired) {
            Ok(()) => Event::Written,
            Err(_) => Event::WriteFailed,
        };
        action = link.step_until(event, tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

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

        /// True one time in `n`.
        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    const MODEL_SEEDS: u64 = 2_000;
    const MODEL_TURNS: usize = 300;

    /// Reply kinds: the last byte of every model reply frame.
    const OK: u8 = 0;
    const SHED: u8 = 1;
    const HEADLESS: u8 = 2;
    const BAD: u8 = 3;

    /// The reply frame the model delivers into slot `seq`.
    fn reply(seq: u64, kind: u8) -> Vec<u8> {
        let mut frame = seq.to_le_bytes().to_vec();
        frame.push(kind);
        frame
    }

    /// A frame the model reader has read.
    #[derive(Clone, Copy, Debug)]
    enum Incoming {
        Frame(Option<usize>),
        Malformed,
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Writer {
        /// Every write completes at once.
        Fast,
        /// A write completes on one turn in six; the others are ticks.
        Slow,
        /// No write completes while the endpoint drains.
        Stalled,
    }

    /// The connection under test, the threads it serves played one step
    /// at a time, and the books the model keeps beside it.
    struct Model {
        conn: Conn,
        rng: Rng,
        max_inflight: usize,
        quota: Option<usize>,
        writer: Writer,
        /// One frame in this many is malformed (0: none).
        malformed_odds: u64,
        t0: Instant,
        now: Duration,
        draining: bool,
        /// The first writer tick that saw the drain, plus the grace.
        deadline: Option<Duration>,
        reading: bool,
        /// A frame that found no room, re-fed until it does.
        retry: Option<Incoming>,
        next_seq: u64,
        /// The reply delivered into each slot.
        delivered: BTreeMap<u64, Vec<u8>>,
        /// Queued frames at the workers: slot and lanes.
        queued: Vec<(u64, usize)>,
        lanes: usize,
        holding: bool,
        written: Vec<Vec<u8>>,
        closed: bool,
        closed_by_deadline: bool,
        accepted: u64,
        answered: u64,
        shed: u64,
        seen: BTreeSet<&'static str>,
    }

    impl Model {
        fn new(seed: u64) -> Model {
            let mut rng = Rng(seed);
            let max_inflight = 1 + rng.below(8) as usize;
            let quota = (!rng.one_in(3)).then(|| 1 + rng.below(400) as usize);
            let writer = [Writer::Fast, Writer::Slow, Writer::Stalled][rng.below(3) as usize];
            let malformed_odds = [0, 40, 150][rng.below(3) as usize];
            Model {
                conn: Conn::new(max_inflight, quota),
                rng,
                max_inflight,
                quota,
                writer,
                malformed_odds,
                t0: Instant::now(),
                now: Duration::ZERO,
                draining: false,
                deadline: None,
                reading: true,
                retry: None,
                next_seq: 0,
                delivered: BTreeMap::new(),
                queued: Vec::new(),
                lanes: 0,
                holding: false,
                written: Vec::new(),
                closed: false,
                closed_by_deadline: false,
                accepted: 0,
                answered: 0,
                shed: 0,
                seen: BTreeSet::new(),
            }
        }

        fn step(&mut self, event: Event) -> Action {
            let action = self.conn.step(event);
            assert!(
                self.conn.ring.len() <= self.max_inflight,
                "ring past its bound"
            );
            if let Some(q) = self.quota {
                assert!(self.conn.lanes <= q, "in-flight lanes past the quota");
            }
            action
        }

        /// After each whole turn: the connection's quota book is the
        /// model's.
        fn check(&self) {
            assert_eq!(self.conn.lanes, self.lanes, "the quota book drifted");
        }

        /// Slots reserved and not yet written (the one being written
        /// included).
        fn owed(&self) -> u64 {
            self.next_seq - self.written.len() as u64 + u64::from(self.holding)
        }

        fn grant(&mut self, seq: u64) {
            assert_eq!(seq, self.next_seq, "slots are granted in read order");
            self.next_seq += 1;
        }

        /// Delivers slot `seq`'s reply, as a worker or the reader does.
        fn deliver(&mut self, seq: u64, kind: u8) -> Action {
            let frame = reply(seq, kind);
            assert!(
                self.delivered.insert(seq, frame.clone()).is_none(),
                "two replies to {seq}"
            );
            self.step(Event::Reply(seq, frame.into()))
        }

        fn new_frame(&mut self) -> Incoming {
            if self.malformed_odds > 0 && self.rng.one_in(self.malformed_odds) {
                return Incoming::Malformed;
            }
            if self.rng.one_in(5) {
                return Incoming::Frame(None);
            }
            let lanes = match self.quota {
                // A quota-busting frame.
                Some(q) if self.rng.one_in(6) => q + 1 + self.rng.below(64) as usize,
                _ => self.rng.below(130) as usize,
            };
            Incoming::Frame(Some(lanes))
        }

        /// The reader's turn: a burst of frames, each fed until it finds
        /// room or a verdict.
        fn read(&mut self) {
            for _ in 0..1 + self.rng.below(6) {
                if !self.reading {
                    return;
                }
                let incoming = self.retry.take().unwrap_or_else(|| self.new_frame());
                self.feed(incoming);
                if self.retry.is_some() {
                    return;
                }
            }
        }

        fn feed(&mut self, incoming: Incoming) {
            let event = match incoming {
                Incoming::Frame(lanes) => Event::Frame(lanes),
                Incoming::Malformed => Event::Malformed,
            };
            match (self.step(event), incoming) {
                (Action::Wait, _) => {
                    assert_eq!(self.owed(), self.max_inflight as u64, "waited with room");
                    self.seen.insert("ring-full");
                    self.retry = Some(incoming);
                }
                (Action::Close, _) => {
                    assert!(self.closed, "a reading reader is stopped only by the close");
                    self.seen.insert("read-after-close");
                    self.reading = false;
                }
                (Action::AnswerNow(seq), Incoming::Frame(None)) => {
                    self.grant(seq);
                    self.accepted += 1;
                    self.answered += 1;
                    self.seen.insert("headless");
                    let next = self.deliver(seq, HEADLESS);
                    assert_eq!(next == Action::Read, !self.closed);
                }
                (Action::AnswerNow(seq), Incoming::Malformed) => {
                    self.grant(seq);
                    self.seen.insert("bad-request");
                    self.reading = false;
                    assert_eq!(self.deliver(seq, BAD), Action::Close);
                }
                (Action::Shed { seq, quota: true }, Incoming::Frame(Some(lanes))) => {
                    let q = self.quota.expect("a quota shed needs a quota");
                    assert!(self.lanes + lanes > q, "shed within the quota");
                    self.grant(seq);
                    self.accepted += 1;
                    self.shed += 1;
                    self.seen.insert("quota-shed");
                    self.deliver(seq, SHED);
                }
                (Action::Admit(seq), Incoming::Frame(Some(lanes))) => {
                    assert!(self.quota.is_none_or(|q| self.lanes + lanes <= q));
                    self.grant(seq);
                    self.lanes += lanes;
                    self.admit(seq, lanes);
                }
                (action, incoming) => panic!("{action:?} does not answer {incoming:?}"),
            }
        }

        /// The queue's verdict on an admitted frame.
        fn admit(&mut self, seq: u64, lanes: usize) {
            if self.draining {
                self.lanes -= lanes;
                assert_eq!(
                    self.step(Event::Queued(seq, Verdict::Draining)),
                    Action::Close
                );
                self.next_seq -= 1;
                self.reading = false;
                self.seen.insert("draining-verdict");
            } else if self.rng.one_in(6) {
                self.lanes -= lanes;
                let action = self.step(Event::Queued(seq, Verdict::Full));
                assert_eq!(action, Action::Shed { seq, quota: false });
                self.accepted += 1;
                self.shed += 1;
                self.seen.insert("queue-shed");
                self.deliver(seq, SHED);
            } else {
                let next = self.step(Event::Queued(seq, Verdict::Enqueued));
                assert_eq!(next == Action::Read, !self.closed);
                self.accepted += 1;
                self.queued.push((seq, lanes));
            }
        }

        /// A worker's turn: one queued frame answered, in any order.
        fn work(&mut self) {
            if self.queued.is_empty() {
                return;
            }
            let at = self.rng.below(self.queued.len() as u64) as usize;
            if at > 0 {
                self.seen.insert("out-of-order");
            }
            let (seq, lanes) = self.queued.remove(at);
            self.lanes -= lanes;
            self.answered += 1;
            self.deliver(seq, OK);
        }

        /// The drain clock the shell passes with each tick.
        fn tick(&mut self) -> Event {
            if !self.draining {
                return Event::Tick(None);
            }
            let deadline = *self.deadline.get_or_insert(self.now + DRAIN_GRACE);
            if self.now >= deadline {
                self.seen.insert("deadline-tick");
            }
            Event::Tick(Some(self.t0 + self.now))
        }

        fn past_deadline(&self) -> bool {
            self.deadline.is_some_and(|d| self.now >= d)
        }

        /// The writer's turn: a tick, a write tick, or a finished write.
        fn write(&mut self, settling: bool) {
            if self.closed {
                let tick = self.tick();
                assert_eq!(
                    self.step(tick),
                    Action::Close,
                    "a closed writer stays closed"
                );
                return;
            }
            let completes = match self.writer {
                Writer::Fast => true,
                Writer::Slow => settling || self.rng.one_in(6),
                Writer::Stalled => !self.draining,
            };
            if self.holding && !completes {
                // A write tick inside a stalled write.
                self.seen.insert("slow-write");
                let tick = self.tick();
                let expired = self.past_deadline();
                match self.step(tick) {
                    Action::Wait => assert!(!expired, "the deadline passed mid-write"),
                    Action::Close => {
                        assert!(expired, "closed mid-write before the deadline");
                        self.seen.insert("deadline-close");
                        self.closed_by_deadline = true;
                        self.closed = true;
                        assert_eq!(self.step(Event::WriteFailed), Action::Close);
                    }
                    other => panic!("{other:?} answers a write tick"),
                }
                return;
            }
            let (event, expired) = if self.holding {
                self.holding = false;
                (Event::Written, false)
            } else {
                let tick = self.tick();
                (tick, self.past_deadline())
            };
            match self.step(event) {
                Action::Write(out) => {
                    assert!(!expired, "a write at the drain deadline");
                    let at = self.written.len() as u64;
                    assert_eq!(
                        Some(&out.frame),
                        self.delivered.get(&at),
                        "write {at} out of order"
                    );
                    self.written.push(out.frame);
                    self.holding = true;
                }
                Action::Wait => {
                    assert!(!expired, "waited past the drain deadline");
                    let at = self.written.len() as u64;
                    assert!(!self.delivered.contains_key(&at), "waited on a ready reply");
                    assert!(self.owed() > 0 || self.reading, "waited with nothing owed");
                }
                Action::Close => {
                    self.closed = true;
                    let bad = self.written.last().is_some_and(|f| f.last() == Some(&BAD));
                    let flushed = self.owed() == 0 && !self.reading;
                    if expired && !bad && !flushed {
                        self.closed_by_deadline = true;
                        self.seen.insert("deadline-close");
                    }
                    assert!(bad || flushed || expired, "closed with replies owed");
                }
                other => panic!("{other:?} answers the writer"),
            }
        }

        /// The endpoint starts to drain: the reader stops at its next
        /// read, unless a frame it read still waits for room.
        fn drain(&mut self) {
            self.draining = true;
            self.seen.insert("drain");
            self.end_reading();
        }

        fn end_reading(&mut self) {
            if self.reading && self.retry.is_none() {
                assert_eq!(self.step(Event::ReadDone), Action::Close);
                self.reading = false;
            }
        }
    }

    /// One seeded script: `MODEL_TURNS` random turns of the reader,
    /// workers, writer and clock (with a drain in some scripts), then
    /// the client's EOF and a run to the close.
    fn run_script(seed: u64, seen: &mut BTreeSet<&'static str>) {
        let mut m = Model::new(seed);
        let drain_at = (!m.rng.one_in(3)).then(|| m.rng.below(MODEL_TURNS as u64) as usize);
        for turn in 0..MODEL_TURNS {
            if drain_at == Some(turn) {
                m.drain();
            }
            match m.rng.below(10) {
                0..=2 => m.read(),
                3..=5 => m.work(),
                6..=8 => m.write(false),
                _ => m.now += Duration::from_millis(m.rng.below(800)),
            }
            m.check();
        }
        m.end_reading();
        let mut rounds = 0;
        while !(m.closed && m.queued.is_empty() && m.retry.is_none()) {
            rounds += 1;
            assert!(rounds < 100_000, "the connection never closed");
            if let Some(incoming) = m.retry.take() {
                m.feed(incoming);
                m.end_reading();
            }
            m.work();
            m.write(true);
            m.check();
            m.now += Duration::from_millis(10);
        }
        assert_eq!(
            m.accepted,
            m.answered + m.shed,
            "accepted = answered + shed"
        );
        if !m.closed_by_deadline {
            let bad = m.written.last().is_some_and(|f| f.last() == Some(&BAD));
            assert_eq!(m.owed(), 0, "a frame read before the drain went unanswered");
            assert_eq!(m.written.len(), m.delivered.len());
            let bad_read = m.delivered.values().any(|f| f.last() == Some(&BAD));
            assert_eq!(bad, bad_read, "BAD_REQUEST is the last write");
        }
        seen.extend(m.seen);
    }

    /// The model property: under seeded scripts of random frame sizes,
    /// headless frames, out-of-order worker replies, queue refusals,
    /// quota-busting bursts, slow and stalled writers, malformed frames
    /// and drains with ticks past the grace, the connection keeps
    /// `accepted = answered + shed`, answers every frame read before the
    /// drain exactly once and in read order, never holds more lanes than
    /// the quota or more slots than `max_inflight`, writes nothing after
    /// its close (`BAD_REQUEST` last), and closes a drain by its deadline.
    #[test]
    fn conn_step_matches_its_model_under_seeded_scripts() {
        let mut seen = BTreeSet::new();
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
                panic!("conn model failed at seed {seed} (replay: run_script({seed}, ..)): {why}");
            }
        }
        let wanted = [
            "ring-full",
            "headless",
            "bad-request",
            "quota-shed",
            "queue-shed",
            "out-of-order",
            "draining-verdict",
            "drain",
            "slow-write",
            "deadline-tick",
            "deadline-close",
        ];
        for what in wanted {
            assert!(seen.contains(what), "no script covered {what}: {seen:?}");
        }
    }
}
