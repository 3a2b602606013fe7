//! The connection front end both TCP endpoints share: the accept gate
//! with its `BUSY` refusal, the drain-aware request reader, the
//! malformed-frame close, and the drain deadline on reply writes.
//!
//! A worker ([`crate::server`]) and the router ([`crate::router`]) speak
//! one protocol to untrusted clients, so they meet those clients through
//! one piece of code. Each endpoint keeps what it does with a request.

use crate::protocol as proto;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a draining connection keeps trying to deliver what it owes
/// before giving up, so one stalled client cannot hold shutdown.
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(5);

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
/// a connection goes to `refuse` before any thread is spawned; otherwise
/// `serve` runs on its own `thread_name` thread.
pub(crate) fn accept_loop(
    listener: TcpListener,
    front: &Front,
    thread_name: &str,
    refuse: impl Fn(TcpStream),
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let serve = Arc::new(serve);
    while !front.draining() {
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
        let mut conns = front.conns();
        conns.retain(|h| !h.is_finished());
        if conns.len() >= front.max_connections {
            drop(conns);
            refuse(stream);
            continue;
        }
        let serve = Arc::clone(&serve);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || serve(stream))
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
pub(crate) fn read_request(
    r: &mut TcpStream,
    stop: &impl Fn() -> bool,
) -> Result<Option<proto::Request>, u8> {
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
pub(crate) fn drain_unread(r: &mut TcpStream) {
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

/// The drain deadline shared by every blocking wait on one connection:
/// unbounded until the endpoint drains, then [`DRAIN_GRACE`] from the
/// first wait that sees the drain, for everything that remains.
#[derive(Default)]
pub(crate) struct DrainClock(Option<Instant>);

impl DrainClock {
    /// True when blocking work should give up: the endpoint is draining
    /// and the grace has run out.
    pub(crate) fn expired(&mut self, front: &Front) -> bool {
        if self.0.is_none() {
            if !front.draining() {
                return false;
            }
            self.0 = Some(Instant::now() + DRAIN_GRACE);
        }
        self.0.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Writes a whole frame, riding out write ticks, so a stalled client is
/// re-checked against the drain deadline instead of blocking shutdown
/// forever.
pub(crate) fn write_all_retry(
    w: &mut TcpStream,
    frame: &[u8],
    clock: &mut DrainClock,
    front: &Front,
) -> io::Result<()> {
    let mut at = 0;
    while at < frame.len() {
        match w.write(&frame[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => at += k,
            Err(e) if is_tick(&e) => {
                if clock.expired(front) {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
