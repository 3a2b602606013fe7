//! A small blocking client for the act-serve protocol. One TCP
//! connection, one in-flight request at a time (the server answers a
//! connection's frames in order). Spin up several clients on separate
//! connections for parallel load — that is also what lets the server
//! form cross-connection micro-batches.
//!
//! [`Client`] is the bare connection: one attempt, every failure
//! surfaced. [`ResilientClient`] wraps it with a [`RetryPolicy`]: a
//! per-attempt read timeout, reconnection after IO or framing failures,
//! and seeded-jitter exponential backoff on retryable server statuses —
//! honoring the server's `retry_after_ms` hint when a reject carries one
//! — all bounded by a total-attempt cap and an optional per-request
//! deadline.

use crate::protocol as proto;
use geom::Coord;
use s2cell::CellId;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest response body the client will accept (a full probe frame's
/// worth of densely referenced points stays far below this).
const MAX_RESP_BODY: usize = 1 << 26;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The peer violated the protocol (the string names how).
    Protocol(&'static str),
    /// The server answered with a non-OK status code. `retry_after_ms`
    /// is the server's backoff hint when the reject (LOADSHED/BUSY)
    /// carried one.
    Server {
        /// The typed status byte (`STATUS_*`).
        status: u8,
        /// Server-suggested earliest retry, when provided.
        retry_after_ms: Option<u32>,
    },
    /// A [`ResilientClient`] ran out of attempts or deadline; the last
    /// underlying failure is boxed inside.
    Exhausted {
        /// Attempts actually made before giving up.
        attempts: u32,
        /// The failure that ended the last attempt.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Server {
                status,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "server status {status} ({})",
                    proto::status_name(*status)
                )?;
                if let Some(ms) = retry_after_ms {
                    write!(f, ", retry after {ms} ms")?;
                }
                Ok(())
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Exhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking act-serve connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and disables Nagle (frames are latency-sensitive).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bounds every response read: a wedged or drained-away server
    /// surfaces as [`ClientError::Io`] (`WouldBlock`/`TimedOut`) instead
    /// of hanging the caller forever. `None` restores blocking reads.
    ///
    /// After a timeout fires mid-frame the stream may hold a partial
    /// response, so treat the connection as dead and reconnect.
    ///
    /// # Errors
    /// Propagates `setsockopt` failures.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Probes a batch of points (at most [`proto::MAX_POINTS`]).
    /// `exact = false` returns the paper's approximate answer — true
    /// hits flagged, ε-bounded candidates riding along; `exact = true`
    /// asks the server to refine candidates to actual membership
    /// (requires a server-side refiner).
    ///
    /// # Errors
    /// I/O failures, protocol violations, or a non-OK server status
    /// ([`ClientError::Server`]).
    ///
    /// # Panics
    /// Panics if `coords` exceeds [`proto::MAX_POINTS`].
    pub fn probe(
        &mut self,
        coords: &[Coord],
        exact: bool,
    ) -> Result<proto::ProbeReply, ClientError> {
        self.probe_frame(&proto::encode_probe_request(coords, exact), coords.len())
    }

    /// Probes a batch of pre-computed S2 leaf cells ([`proto::FLAG_CELLS`]):
    /// half the payload bytes of the coordinate form, and the server
    /// skips the coordinate→cell conversion. Approximate mode only —
    /// refinement needs coordinates.
    ///
    /// # Errors
    /// As [`Client::probe`].
    ///
    /// # Panics
    /// Panics if `cells` exceeds [`proto::MAX_POINTS`].
    pub fn probe_cells(&mut self, cells: &[CellId]) -> Result<proto::ProbeReply, ClientError> {
        self.probe_frame(&proto::encode_probe_cells_request(cells), cells.len())
    }

    /// Liveness check: returns the serving epoch and the counter block
    /// (total probes served, shed/bad-frame tallies, queue high-water).
    ///
    /// # Errors
    /// As [`Client::probe`].
    pub fn ping(&mut self) -> Result<proto::PingReply, ClientError> {
        let (h, payload) = self.request(&proto::encode_ping_request(), proto::OP_PING)?;
        let counters = proto::decode_counters(&payload).map_err(ClientError::Protocol)?;
        Ok(proto::PingReply {
            epoch: h.epoch,
            counters,
        })
    }

    /// The STATS read: the counter block — including the windowed queue
    /// high-water mark, which this read consumes — plus every stage
    /// histogram the server keeps (empty section when observability is
    /// off).
    ///
    /// # Errors
    /// As [`Client::probe`].
    pub fn stats_ex(&mut self) -> Result<proto::StatsExReply, ClientError> {
        let (h, payload) = self.request(&proto::encode_stats_ex_request(), proto::OP_STATS)?;
        let (counters, histograms) =
            proto::decode_stats_ex_payload(&payload).map_err(ClientError::Protocol)?;
        Ok(proto::StatsExReply {
            epoch: h.epoch,
            counters,
            histograms,
        })
    }

    /// Dumps the server's sampled trace ring as JSON lines (oldest event
    /// first; non-destructive). A server running without observability
    /// answers UNSUPPORTED, surfaced as [`ClientError::Server`].
    ///
    /// # Errors
    /// As [`Client::probe`].
    pub fn dump(&mut self) -> Result<String, ClientError> {
        let (_, payload) = self.request(&proto::encode_dump_request(), proto::OP_DUMP)?;
        String::from_utf8(payload).map_err(|_| ClientError::Protocol("trace dump is not UTF-8"))
    }

    /// The reply check both probe forms share: status, op echo, point
    /// count, then the payload decode.
    fn probe_frame(&mut self, frame: &[u8], n: usize) -> Result<proto::ProbeReply, ClientError> {
        let (h, payload) = self.request(frame, proto::OP_PROBE)?;
        if h.n as usize != n {
            return Err(ClientError::Protocol("response point count mismatch"));
        }
        let refs = proto::decode_probe_payload(h.n, &payload).map_err(ClientError::Protocol)?;
        Ok(proto::ProbeReply {
            epoch: h.epoch,
            refs,
        })
    }

    /// Sends one request frame and reads its reply, checking the status
    /// before the op echo: a BUSY reject arrives with op 0 (it answers
    /// the connection, not any frame) and must surface as the typed
    /// server status, not as a protocol violation.
    fn request(
        &mut self,
        frame: &[u8],
        op: u8,
    ) -> Result<(proto::RespHeader, Vec<u8>), ClientError> {
        self.stream.write_all(frame)?;
        let body = proto::read_frame(&mut self.stream, MAX_RESP_BODY)?
            .ok_or(ClientError::Protocol("connection closed mid-conversation"))?;
        let (h, payload) = proto::decode_response(&body).map_err(ClientError::Protocol)?;
        if h.status != proto::STATUS_OK {
            return Err(server_error(h.status, payload));
        }
        if h.op != op {
            return Err(ClientError::Protocol(
                "response op does not echo the request",
            ));
        }
        Ok((h, payload.to_vec()))
    }
}

/// The typed error for a non-OK response, decoding the optional
/// `retry_after_ms` hint that LOADSHED/BUSY rejects may carry.
fn server_error(status: u8, payload: &[u8]) -> ClientError {
    match status {
        proto::STATUS_LOADSHED | proto::STATUS_BUSY => match proto::decode_retry_after(payload) {
            Ok(hint) => ClientError::Server {
                status,
                retry_after_ms: hint,
            },
            Err(what) => ClientError::Protocol(what),
        },
        _ => ClientError::Server {
            status,
            retry_after_ms: None,
        },
    }
}

/// How a [`ResilientClient`] retries. The defaults suit an interactive
/// caller: a handful of attempts, millisecond-scale backoff that doubles
/// per retry, a read timeout that turns a wedged server into a
/// reconnect, and a per-request deadline that bounds the whole dance.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry when the server sent no hint;
    /// doubles per consecutive retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Per-attempt socket read timeout (a response slower than this
    /// poisons the connection: partial frames may be in flight, so the
    /// client reconnects before retrying).
    pub read_timeout: Duration,
    /// Overall wall-clock budget for one request across every attempt
    /// and backoff sleep; `None` means attempts alone bound the work.
    pub deadline: Option<Duration>,
    /// Seed for the deterministic ±25% backoff jitter (spreads herds of
    /// shed clients without nondeterminism in tests).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            deadline: Some(Duration::from_secs(10)),
            jitter_seed: 0x5EED,
        }
    }
}

/// A [`Client`] that survives a hostile network: it reconnects after IO
/// and framing failures, retries retryable server statuses (LOADSHED,
/// BUSY, INTERNAL) under jittered exponential backoff — sleeping the
/// server's `retry_after_ms` hint instead when the reject carried one —
/// and gives up with [`ClientError::Exhausted`] once the policy's
/// attempt cap or deadline is spent. Non-retryable statuses (BAD_FRAME,
/// UNSUPPORTED) surface immediately: resending a malformed or
/// unsupported request can only fail the same way.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<Client>,
    connects: u64,
    retries: u64,
    backoff_slept: Duration,
}

impl ResilientClient {
    /// Resolves `addr` once and readies the client. No connection is
    /// opened yet — the first request dials (and re-dials on failure).
    ///
    /// # Errors
    /// Address resolution failures.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<ResilientClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        Ok(ResilientClient::from_resolved(addr, policy))
    }

    /// Readies a client over an **already-resolved** address —
    /// infallible, since there is no name resolution left to fail. The
    /// router's per-connection client pools use this: shard addresses
    /// are resolved once at router spawn, so building a pool later must
    /// never be able to panic a connection thread.
    pub fn from_resolved(addr: SocketAddr, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr,
            policy,
            conn: None,
            connects: 0,
            retries: 0,
            backoff_slept: Duration::ZERO,
        }
    }

    /// Connections dialed so far (1 in the happy path; each reconnect
    /// after an IO/framing failure adds one).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Attempts beyond the first, across every request so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total time spent asleep in backoff (chaos tests assert hints are
    /// honored; load generators subtract it from offered-load math).
    pub fn backoff_slept(&self) -> Duration {
        self.backoff_slept
    }

    /// [`Client::probe`] with retries per the policy.
    ///
    /// # Errors
    /// The first non-retryable failure, or [`ClientError::Exhausted`].
    ///
    /// # Panics
    /// Panics if `coords` exceeds [`proto::MAX_POINTS`].
    pub fn probe(
        &mut self,
        coords: &[Coord],
        exact: bool,
    ) -> Result<proto::ProbeReply, ClientError> {
        self.with_retries(|c| c.probe(coords, exact))
    }

    /// [`Client::probe_cells`] with retries per the policy.
    ///
    /// # Errors
    /// As [`ResilientClient::probe`].
    ///
    /// # Panics
    /// Panics if `cells` exceeds [`proto::MAX_POINTS`].
    pub fn probe_cells(&mut self, cells: &[CellId]) -> Result<proto::ProbeReply, ClientError> {
        self.with_retries(|c| c.probe_cells(cells))
    }

    /// [`Client::ping`] with retries per the policy.
    ///
    /// # Errors
    /// As [`ResilientClient::probe`].
    pub fn ping(&mut self) -> Result<proto::PingReply, ClientError> {
        self.with_retries(Client::ping)
    }

    /// [`Client::stats_ex`] with retries per the policy.
    ///
    /// # Errors
    /// As [`ResilientClient::probe`].
    pub fn stats_ex(&mut self) -> Result<proto::StatsExReply, ClientError> {
        self.with_retries(Client::stats_ex)
    }

    /// [`Client::dump`] with retries per the policy.
    ///
    /// # Errors
    /// As [`ResilientClient::probe`].
    pub fn dump(&mut self) -> Result<String, ClientError> {
        self.with_retries(Client::dump)
    }

    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let start = Instant::now();
        let deadline = self.policy.deadline.map(|d| start + d);
        let attempts_cap = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match self.ensure_conn() {
                Ok(conn) => op(conn),
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let (retryable, hint_ms) = match &err {
                // The stream may hold a partial frame (timeout mid-read)
                // or be gone entirely: poison the connection either way.
                ClientError::Io(_) | ClientError::Protocol(_) => {
                    self.conn = None;
                    (true, None)
                }
                ClientError::Server {
                    status,
                    retry_after_ms,
                } => (
                    matches!(
                        *status,
                        proto::STATUS_LOADSHED | proto::STATUS_BUSY | proto::STATUS_INTERNAL
                    ),
                    *retry_after_ms,
                ),
                ClientError::Exhausted { .. } => (false, None),
            };
            if !retryable {
                return Err(err);
            }
            if attempt >= attempts_cap {
                return Err(ClientError::Exhausted {
                    attempts: attempt,
                    last: Box::new(err),
                });
            }
            // The server's hint wins over the local schedule; both get
            // the same deterministic ±25% jitter.
            let base = match hint_ms {
                Some(ms) => Duration::from_millis(u64::from(ms)),
                None => {
                    let shift = (attempt - 1).min(16);
                    self.policy
                        .base_backoff
                        .saturating_mul(1u32 << shift)
                        .min(self.policy.max_backoff)
                }
            };
            let mut sleep = jitter(base, self.policy.jitter_seed, u64::from(attempt));
            if let Some(dl) = deadline {
                let left = dl.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(ClientError::Exhausted {
                        attempts: attempt,
                        last: Box::new(err),
                    });
                }
                sleep = sleep.min(left);
            }
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
                self.backoff_slept += sleep;
            }
            self.retries += 1;
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let mut c = Client::connect(self.addr)?;
            c.set_read_timeout(Some(self.policy.read_timeout))?;
            self.conn = Some(c);
            self.connects += 1;
        }
        Ok(self.conn.as_mut().expect("connection established above"))
    }
}

/// Deterministic ±25% jitter around `base`, keyed by seed and attempt.
fn jitter(base: Duration, seed: u64, attempt: u64) -> Duration {
    let micros = base.as_micros() as u64;
    let quarter = micros / 4;
    if quarter == 0 {
        return base;
    }
    let mut x = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    Duration::from_micros(micros - quarter + x % (2 * quarter + 1))
}
