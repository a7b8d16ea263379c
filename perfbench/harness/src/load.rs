//! The load side: a `datalog serve` child, deadline-bounded
//! connections, and the closed- and open-loop drivers.
//!
//! Requests go through `tiebreak_server::wire`, the framing the public
//! `Client` is built on. `Client` itself blocks without a time limit,
//! and the benchmark must turn a hung request into a counted failure
//! (drop the connection, open a new one) instead of a stalled run.

use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tiebreak_server::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};

/// A `datalog serve` child process with default flags.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn start(datalog: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(datalog)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", datalog.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("serve did not report its address: {line:?}"))
            }
        }
    }

    /// `VmHWM` (peak resident set) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks the server to shut down, then kills it if it did not answer
    /// or has not exited within a few seconds. Always reaps the child.
    pub fn stop(mut self) {
        let acked = Conn::connect(self.addr, Duration::from_secs(1))
            .ok()
            .and_then(|mut conn| conn.call(b"shutdown", Duration::from_secs(1)).ok())
            .is_some();
        let until = Instant::now() + Duration::from_secs(if acked { 5 } else { 0 });
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Why a call did not produce an `ok` reply.
#[derive(Debug)]
pub enum CallError {
    /// No complete reply within the deadline.
    Deadline,
    /// Transport failure or the server closed the connection.
    Disconnected(String),
    /// The server answered with an in-band `error …` status.
    Server(String),
    /// Open loop: due inside the window but never sent, because every
    /// connection was still busy when the window closed.
    Unsent,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Deadline => f.write_str("missed the deadline"),
            CallError::Disconnected(e) => write!(f, "disconnected: {e}"),
            CallError::Server(e) => write!(f, "error frame: {e}"),
            CallError::Unsent => f.write_str("not sent before the window closed"),
        }
    }
}

/// One protocol connection whose every call is bounded by a deadline.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Connects and opens the session for `program` + `database`.
    pub fn open(
        addr: SocketAddr,
        program: &str,
        database: &str,
        deadline: Duration,
    ) -> Result<Conn, CallError> {
        let mut conn =
            Conn::connect(addr, deadline).map_err(|e| CallError::Disconnected(e.to_string()))?;
        let mut payload = format!("open {}\n", program.len()).into_bytes();
        payload.extend_from_slice(program.as_bytes());
        payload.extend_from_slice(database.as_bytes());
        conn.call(&payload, deadline)?;
        Ok(conn)
    }

    /// Sends one frame and returns the reply body after the `ok` line.
    pub fn call(&mut self, payload: &[u8], deadline: Duration) -> Result<String, CallError> {
        use std::io::Write as _;
        let started = Instant::now();
        let stream = self.reader.get_ref();
        let _ = stream.set_write_timeout(Some(deadline));
        write_frame(&mut self.writer, payload)
            .and_then(|()| self.writer.flush())
            .map_err(|e| timeout_or(e, CallError::Disconnected))?;
        let left = deadline.saturating_sub(started.elapsed());
        if left.is_zero() {
            return Err(CallError::Deadline);
        }
        let _ = self.reader.get_ref().set_read_timeout(Some(left));
        let raw = match read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(raw)) => raw,
            Ok(None) => return Err(CallError::Disconnected("server closed".into())),
            Err(tiebreak_server::WireError::Io(e)) => {
                return Err(timeout_or(e, CallError::Disconnected))
            }
            Err(e) => return Err(CallError::Disconnected(e.to_string())),
        };
        if started.elapsed() > deadline {
            return Err(CallError::Deadline);
        }
        let text = String::from_utf8_lossy(&raw).into_owned();
        let (status, body) = text.split_once('\n').unwrap_or((&text, ""));
        if let Some(msg) = status.strip_prefix("error") {
            return Err(CallError::Server(msg.trim().to_owned()));
        }
        Ok(body.to_owned())
    }
}

fn timeout_or(e: io::Error, other: fn(String) -> CallError) -> CallError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CallError::Deadline,
        _ => other(e.to_string()),
    }
}

/// How requests arrive.
#[derive(Clone, Copy)]
pub enum Arrivals {
    /// Each connection sends its next request when the previous reply
    /// is in.
    Closed,
    /// Request `i` is due at `i / rate` seconds; a free connection sends
    /// it then, and its latency counts from the due time.
    Open { rate: f64 },
}

/// What became of one request.
pub enum Reply {
    Body(String),
    /// A large reply kept as a hash (see [`LoadSpec::keep_whole`]).
    Hash(u64),
    Failed(CallError),
}

pub struct Record {
    pub frame: usize,
    /// From due time (open loop) or send time (closed loop) to reply.
    pub latency_ms: f64,
    /// Send to reply: what the server and transport took.
    pub rtt_ms: f64,
    /// Open loop: send minus due time. Closed loop: send minus the
    /// previous reply on the same connection.
    pub lag_ms: f64,
    /// When the reply (or failure) came, in seconds from the window's
    /// start.
    pub done_s: f64,
    pub reply: Reply,
}

pub struct LoadSpec<'a> {
    pub addr: SocketAddr,
    pub program: &'a str,
    pub database: &'a str,
    pub frames: &'a [String],
    /// Replies to these frames are hashed; the first whole one is kept
    /// in [`LoadResult::samples`] for the answer check.
    pub keep_whole: &'a (dyn Fn(usize) -> bool + Sync),
    pub arrivals: Arrivals,
    pub conns: usize,
    pub seconds: f64,
    pub deadline: Duration,
}

pub struct LoadResult {
    pub records: Vec<Record>,
    pub deadline_misses: usize,
    pub elapsed_s: f64,
    /// `(frame index, whole reply)` for the first hashed reply per frame
    /// text.
    pub samples: Vec<(usize, String)>,
}

/// A cheap 64-bit hash of reply bytes (equality check only).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    h ^ bytes.len() as u64
}

/// Drives `spec.frames` against the server from `spec.conns` threads
/// for `spec.seconds`. The connections are opened one after another
/// before the window starts. A request that misses the deadline counts
/// as a failure; its connection is dropped and a new one opened before
/// the next request, which fails in turn if that open fails.
pub fn run_load(spec: &LoadSpec<'_>) -> LoadResult {
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let opened: Vec<Option<Conn>> = (0..spec.conns)
        .map(|_| Conn::open(spec.addr, spec.program, spec.database, spec.deadline).ok())
        .collect();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(spec.seconds);
    let mut records = Vec::new();
    let mut misses = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .into_iter()
            .map(|conn| scope.spawn(|| drive_connection(spec, conn, &next, &samples, started, end)))
            .collect();
        for h in handles {
            let (recs, m) = h.join().expect("load thread panicked");
            records.extend(recs);
            misses += m;
        }
    });
    records.sort_by_key(|r| r.frame);
    if let Arrivals::Open { rate } = spec.arrivals {
        // Every request due inside the window was attempted: the ones the
        // connections never got to send (a stalled server) fail.
        let due = ((spec.seconds * rate).ceil() as usize).min(spec.frames.len());
        let sent: std::collections::HashSet<usize> = records.iter().map(|r| r.frame).collect();
        for frame in (0..due).filter(|f| !sent.contains(f)) {
            records.push(Record {
                frame,
                latency_ms: 0.0,
                rtt_ms: 0.0,
                lag_ms: 0.0,
                done_s: spec.seconds,
                reply: Reply::Failed(CallError::Unsent),
            });
        }
        records.sort_by_key(|r| r.frame);
    }
    LoadResult {
        records,
        deadline_misses: misses,
        elapsed_s: started.elapsed().as_secs_f64(),
        samples: samples.into_inner().expect("sample lock poisoned"),
    }
}

fn drive_connection(
    spec: &LoadSpec<'_>,
    mut conn: Option<Conn>,
    next: &AtomicUsize,
    samples: &Mutex<Vec<(usize, String)>>,
    started: Instant,
    end: Instant,
) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut misses = 0;
    let mut last_reply = started;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= spec.frames.len() {
            break;
        }
        let due = match spec.arrivals {
            Arrivals::Closed => {
                if Instant::now() >= end {
                    break;
                }
                None
            }
            Arrivals::Open { rate } => {
                let due = started + Duration::from_secs_f64(i as f64 / rate);
                // Requests still unsent when the window closes are
                // counted as failed by `run_load`.
                if due >= end || Instant::now() >= end {
                    break;
                }
                sleep_until(due);
                Some(due)
            }
        };
        let send = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => c.call(
                format!("script\n{}", spec.frames[i]).as_bytes(),
                spec.deadline,
            ),
            None => match Conn::open(spec.addr, spec.program, spec.database, spec.deadline) {
                // The reconnect is part of this request's time.
                Ok(c) => conn.insert(c).call(
                    format!("script\n{}", spec.frames[i]).as_bytes(),
                    spec.deadline,
                ),
                Err(e) => {
                    // Do not spin on a refused connection.
                    std::thread::sleep(Duration::from_millis(10));
                    Err(e)
                }
            },
        };
        let done = Instant::now();
        let reply = match result {
            Ok(body) if (spec.keep_whole)(i) => {
                let h = hash_bytes(body.as_bytes());
                let mut s = samples.lock().expect("sample lock poisoned");
                if !s.iter().any(|(j, _)| spec.frames[*j] == spec.frames[i]) {
                    s.push((i, body));
                }
                Reply::Hash(h)
            }
            Ok(body) => Reply::Body(body),
            Err(e) => {
                if matches!(e, CallError::Deadline) {
                    misses += 1;
                }
                conn = None;
                Reply::Failed(e)
            }
        };
        let from = due.unwrap_or(send);
        records.push(Record {
            frame: i,
            latency_ms: ms(done - from),
            rtt_ms: ms(done - send),
            lag_ms: ms(send - due.unwrap_or(last_reply)),
            done_s: (done - started).as_secs_f64(),
            reply,
        });
        last_reply = done;
    }
    (records, misses)
}

fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Server-side counters read through the `metrics` verb.
#[derive(Clone, Default)]
pub struct ServerMetrics {
    /// `request_latency_us{verb="script"}`: `(upper bound, cumulative)`.
    pub script_buckets: Vec<(f64, u64)>,
    pub script_sum_us: f64,
    pub script_count: u64,
    pub batches: u64,
    pub batch_size_sum: f64,
}

impl ServerMetrics {
    pub fn fetch(addr: SocketAddr, deadline: Duration) -> Option<ServerMetrics> {
        let mut conn = Conn::connect(addr, deadline).ok()?;
        let text = conn.call(b"metrics", deadline).ok()?;
        let mut m = ServerMetrics::default();
        for line in text.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            if let Some(rest) =
                key.strip_prefix("tiebreak_request_latency_us_bucket{verb=\"script\",le=\"")
            {
                let le = rest.trim_end_matches("\"}");
                if let Ok(upper) = le.parse::<f64>() {
                    m.script_buckets.push((upper, v as u64));
                }
            }
            match key {
                "tiebreak_request_latency_us_sum{verb=\"script\"}" => m.script_sum_us = v,
                "tiebreak_request_latency_us_count{verb=\"script\"}" => m.script_count = v as u64,
                "tiebreak_batches_dispatched_total" => m.batches = v as u64,
                "tiebreak_batch_size_sum" => m.batch_size_sum = v,
                _ => {}
            }
        }
        Some(m)
    }

    /// Quantile `q` of script handle time (µs) between two snapshots,
    /// interpolated linearly inside the bucket that holds it (as
    /// Prometheus' `histogram_quantile` does).
    pub fn handle_quantile_us(before: &ServerMetrics, after: &ServerMetrics, q: f64) -> f64 {
        let prior = |le: f64| {
            before
                .script_buckets
                .iter()
                .find(|(u, _)| *u == le)
                .map_or(0, |(_, c)| *c)
        };
        let total = after.script_count.saturating_sub(before.script_count);
        if total == 0 {
            return 0.0;
        }
        let want = q * total as f64;
        let (mut lower, mut below) = (0.0, 0.0);
        for &(upper, cumulative) in &after.script_buckets {
            let count = cumulative.saturating_sub(prior(upper)) as f64;
            if count >= want {
                let share = if count > below {
                    (want - below) / (count - below)
                } else {
                    1.0
                };
                return lower + (upper - lower) * share;
            }
            (lower, below) = (upper, count);
        }
        lower
    }
}
