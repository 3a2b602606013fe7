//! Load generation: the closed, pipelined and open loops that drive a
//! server over one connection, verifying every reply against the
//! precomputed frame hashes as it arrives.

use crate::data::{payload_hash, reply_hash};
use crate::stats::{median, percentile, slice_len, slice_rates, Sample};
use act_serve::{protocol as proto, Client};
use geom::Coord;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Response-read deadline: far above any healthy frame, far below the
/// per-invocation time budget.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Largest reply body the loops accept (a 4096-point frame of 16-ref
/// answers is ~280 kB).
const MAX_REPLY: usize = 1 << 26;

/// What one measured window produced.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Window length in seconds.
    pub secs: f64,
    /// One per verified frame.
    pub samples: Vec<Sample>,
    /// Frames sent.
    pub attempted: u64,
    /// Frames answered with an error, a shed, or a wrong answer.
    pub failed: u64,
}

impl Window {
    pub fn new(secs: f64) -> Window {
        Window {
            secs,
            ..Window::default()
        }
    }

    /// Records a verified frame that completed at `done_at`.
    pub fn ok(&mut self, t0: Instant, done_at: Instant, lat: Duration, points: usize) {
        self.samples.push(Sample {
            t: done_at.duration_since(t0).as_secs_f64(),
            points: points as u32,
            lat_us: lat.as_secs_f64() * 1e6,
        });
    }

    /// Verified points per second: the median of the window's slice
    /// rates, so a stall of a second or two moves it by one slice at most.
    pub fn points_per_s(&self) -> f64 {
        median(&slice_rates(&self.samples, self.secs, slice_len(self.secs)))
    }

    /// (p50, p99) latency in µs over every verified frame of the window.
    pub fn latency(&self) -> (f64, f64) {
        let mut lat: Vec<f64> = self.samples.iter().map(|s| s.lat_us).collect();
        lat.sort_by(f64::total_cmp);
        (percentile(&lat, 0.50), percentile(&lat, 0.99))
    }

    pub fn absorb(&mut self, other: Window, offset: f64) {
        self.samples
            .extend(other.samples.into_iter().map(|s| Sample {
                t: s.t + offset,
                ..s
            }));
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Connects a raw protocol stream with Nagle off and the read deadline.
pub fn raw_stream(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// A typed client with the read deadline set.
pub fn client(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Closed loop: one coordinate frame at a time through [`Client::probe`]
/// (encode, round trip, full decode — what a user of the client sees),
/// cycling through `frames` from `*next` for `dur` on one connection. A
/// transport error ends the window early (the caller fails the run).
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Vec<Coord>],
    expected: &[u64],
    next: &mut usize,
    dur: Duration,
) -> Result<Window, String> {
    let mut c = client(addr)?;
    let mut w = Window::new(dur.as_secs_f64());
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let k = *next % frames.len();
        *next += 1;
        let t = Instant::now();
        w.attempted += 1;
        match c.probe(&frames[k], false) {
            Ok(reply) => {
                let done = Instant::now();
                if reply_hash(&reply.refs) == expected[k] {
                    w.ok(t0, done, done - t, frames[k].len());
                } else {
                    w.failed += 1;
                }
            }
            Err(act_serve::ClientError::Server { .. }) => w.failed += 1,
            Err(e) => {
                w.failed += 1;
                return Err(format!("closed loop: {e}"));
            }
        }
    }
    Ok(w)
}

/// Checks one raw probe reply body against the expected frame hash.
/// Returns the answering epoch, or `None` for an error, shed or wrong
/// answer.
pub fn check_reply(body: &[u8], points: usize, expected: impl Fn(u32) -> u64) -> Option<u32> {
    let (h, payload) = proto::decode_response(body).ok()?;
    (h.op == proto::OP_PROBE
        && h.status == proto::STATUS_OK
        && h.n as usize == points
        && payload_hash(h.n, payload)? == expected(h.epoch))
    .then_some(h.epoch)
}

/// Pipelined loop: pre-encoded frames written `inflight` ahead of the
/// replies on one connection, for `dur`; replies arrive in request order.
pub fn pipelined(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    points: &[usize],
    expected: &[u64],
    inflight: usize,
    next: &mut usize,
    dur: Duration,
) -> Result<Window, String> {
    let mut stream = raw_stream(addr)?;
    let mut w = Window::new(dur.as_secs_f64());
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let t0 = Instant::now();
    loop {
        while pending.len() < inflight && t0.elapsed() < dur {
            let k = *next % frames.len();
            *next += 1;
            pending.push_back((k, Instant::now()));
            stream
                .write_all(&frames[k])
                .map_err(|e| format!("pipelined write: {e}"))?;
            w.attempted += 1;
        }
        let Some((k, sent)) = pending.pop_front() else {
            return Ok(w);
        };
        let body = proto::read_frame(&mut stream, MAX_REPLY)
            .map_err(|e| format!("pipelined read: {e}"))?
            .ok_or("pipelined: server closed the connection")?;
        let done = Instant::now();
        match check_reply(&body, points[k], |_| expected[k]) {
            Some(_) => w.ok(t0, done, done - sent, points[k]),
            None => w.failed += 1,
        }
    }
}

/// Generator lateness bookkeeping for an open loop: how late each frame
/// left relative to its due time.
#[derive(Debug, Default)]
pub struct Lateness {
    pub late_us: Vec<f64>,
}

impl Lateness {
    pub fn record(&mut self, due: Instant, sent: Instant) {
        self.late_us
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
    }

    pub fn p99_us(&self) -> f64 {
        let mut v = self.late_us.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.99)
    }
}

/// The due time of frame `i` in an open loop started at `t0` with one
/// frame every `period`.
pub fn due_at(t0: Instant, period: Duration, i: u64) -> Instant {
    t0 + Duration::from_nanos((period.as_nanos() as u64).saturating_mul(i))
}

/// Waits until `due` without burning a core: sleeps to just short of it
/// (the kernel's sleep overshoot is learned from earlier sleeps), then
/// spins the remainder.
pub struct Pacer {
    overshoot: Duration,
}

impl Pacer {
    pub fn new() -> Pacer {
        Pacer {
            overshoot: Duration::from_micros(60),
        }
    }

    pub fn wait_until(&mut self, due: Instant) {
        let now = Instant::now();
        if due > now + self.overshoot + Duration::from_micros(20) {
            let want = due - now - self.overshoot;
            std::thread::sleep(want);
            let got = now.elapsed();
            // Track the overshoot with a slow-moving maximum-biased mean.
            let over = got.saturating_sub(want);
            self.overshoot = (self.overshoot * 7 + over.max(self.overshoot / 2)) / 8;
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// The outcome of an open-loop window.
pub struct OpenLoop {
    pub window: Window,
    pub lateness: Lateness,
    /// First receive time of each answering epoch seen, ascending.
    pub epoch_first_seen: Vec<(u32, Instant)>,
}

/// Open loop: a writer thread sends `frames` (pre-encoded, cycling) on a
/// fixed schedule of one every `period` for `dur`, calling `between` after
/// each send with the elapsed time (to publish deltas on the same clock),
/// while this thread reads the replies. Latency is timed from each frame's
/// **due** time, so a stall also charges the frames queued behind it.
/// `expected(frame, epoch)` is the answer hash a reply must carry.
pub fn open_loop(
    stream: TcpStream,
    frames: &[Vec<u8>],
    points: &[usize],
    period: Duration,
    dur: Duration,
    mut between: impl FnMut(Duration) + Send,
    expected: impl Fn(usize, u32) -> u64,
) -> Result<OpenLoop, String> {
    use std::net::Shutdown;
    let mut wstream = stream.try_clone().map_err(|e| e.to_string())?;
    // The schedule fixes the frame count (those due inside the window), so
    // the reader blocks on exactly that many replies and never polls.
    let n = dur.as_nanos().div_ceil(period.as_nanos().max(1)) as u64;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Lateness, String> {
            let mut late = Lateness::default();
            let mut pacer = Pacer::new();
            for i in 0..n {
                let due = due_at(t0, period, i);
                pacer.wait_until(due);
                late.record(due, Instant::now());
                let bytes = &frames[i as usize % frames.len()];
                if let Err(e) = proto::write_frame(&mut wstream, bytes) {
                    // Unblock the reader before reporting.
                    let _ = wstream.shutdown(Shutdown::Both);
                    return Err(format!("open loop write: {e}"));
                }
                between(t0.elapsed());
            }
            Ok(late)
        });

        let mut stream = stream;
        let mut w = Window::new(dur.as_secs_f64());
        let mut seen: Vec<(u32, Instant)> = Vec::new();
        let mut read_result = Ok(());
        for i in 0..n {
            let body = match proto::read_frame(&mut stream, MAX_REPLY) {
                Ok(Some(b)) => b,
                other => {
                    read_result = Err(format!("open loop read: {other:?}"));
                    // Unblock the writer too.
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
            };
            let done = Instant::now();
            let k = i as usize % frames.len();
            w.attempted += 1;
            match check_reply(&body, points[k], |epoch| expected(k, epoch)) {
                Some(epoch) => {
                    if seen.last().is_none_or(|&(e, _)| epoch > e) {
                        seen.push((epoch, done));
                    }
                    let due = due_at(t0, period, i);
                    w.ok(t0, done, done.saturating_duration_since(due), points[k]);
                }
                None => w.failed += 1,
            }
        }
        let lateness = writer.join().expect("open-loop writer thread")?;
        read_result?;
        Ok(OpenLoop {
            window: w,
            lateness,
            epoch_first_seen: seen,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let period = Duration::from_micros(128);
        assert_eq!(due_at(t0, period, 0), t0);
        assert_eq!(due_at(t0, period, 10), t0 + Duration::from_micros(1280));
        // A frame sent 300 µs late that took 50 µs on the wire is charged
        // 350 µs; the generator's share shows up as lateness.
        let mut w = Window::new(1.0);
        let mut late = Lateness::default();
        let due = due_at(t0, period, 3);
        let sent = due + Duration::from_micros(300);
        late.record(due, sent);
        let done = sent + Duration::from_micros(50);
        w.ok(t0, done, done.saturating_duration_since(due), 64);
        assert!((w.samples[0].lat_us - 350.0).abs() < 1e-6);
        assert!((late.p99_us() - 300.0).abs() < 1e-6);
        // Sending early (never happens with the pacer) is not negative.
        late.record(due, due - Duration::from_micros(5));
        assert_eq!(late.late_us[1], 0.0);
    }

    #[test]
    fn pacer_never_sends_early() {
        let mut p = Pacer::new();
        let t0 = Instant::now();
        for i in 1..=20u64 {
            let due = due_at(t0, Duration::from_micros(200), i);
            p.wait_until(due);
            assert!(Instant::now() >= due);
        }
    }

    #[test]
    fn windows_merge_with_offsets() {
        let sample = |t, points, lat_us| Sample { t, points, lat_us };
        let mut a = Window::new(1.0);
        a.samples.push(sample(0.5, 10, 1.0));
        a.attempted = 1;
        let mut b = Window::new(1.0);
        b.samples.push(sample(0.5, 20, 3.0));
        b.attempted = 2;
        b.failed = 1;
        a.absorb(b, 1.0);
        a.secs = 2.0;
        assert_eq!(a.samples[1], sample(1.5, 20, 3.0));
        assert_eq!((a.attempted, a.failed), (3, 1));
        // Two 1 s windows cut into two 1 s slices: rates 10 and 20, whose
        // median is 15; latency quantiles span both windows' frames.
        assert_eq!(a.points_per_s(), 15.0);
        assert_eq!(a.latency(), (2.0, 2.98));
    }
}
