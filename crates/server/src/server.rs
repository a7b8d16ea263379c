//! The multi-session TCP server.
//!
//! One [`Server`] owns a [`SessionRegistry`] and serves many concurrent
//! connections over a poll-based event loop (the `reactor` module) with
//! a bounded worker pool and cross-connection query batching (the
//! `dispatch` module). Idle connections cost a `pollfd`, not a thread,
//! and are reaped after [`ServerConfig::max_idle_secs`] without frame
//! activity. Every dispatch job runs behind an unwind boundary, so a
//! panic fails only the frames it was serving.
//!
//! Each request is one [wire](crate::wire) frame whose UTF-8 payload
//! starts with a verb line:
//!
//! ```text
//! open <prog_byte_len>\n<program bytes><database bytes>
//! script\n<session-script lines>
//! stats
//! metrics
//! ping
//! bye
//! shutdown
//! ```
//!
//! Every response frame starts with `ok …` or `error …`. A protocol
//! error (unknown verb, bad `open` header, admission denial, malformed
//! script lines) is reported in-band and the connection **keeps
//! serving** — only transport-level failures (truncated or oversized
//! frames, which desynchronize the stream) close it. One misbehaving
//! client never disturbs the others: its session lives in the shared
//! registry, but the script interpreter discards failed batches and the
//! solver rolls back failed applies, so the entry other connections
//! share stays consistent.
//!
//! `script` frames are transactional per frame: the frame's lines run
//! under the session lock and any trailing staged mutations are flushed
//! before the lock is released. Batches therefore cannot span frames —
//! necessary because the session may be shared with other connections,
//! which must never observe (or accidentally commit) another client's
//! half-staged batch.

use std::io::{self, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;

use crate::registry::{RegistryConfig, SessionEntry, SessionRegistry};
use crate::script::LineOutcome;
use crate::wire::OutFrame;

/// Default idle deadline: connections with no frame activity for this
/// many seconds are reaped.
pub const DEFAULT_MAX_IDLE_SECS: u64 = 300;

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Session registry sizing and engine configuration.
    pub registry: RegistryConfig,
    /// Idle deadline in seconds (0 = never reap).
    pub max_idle_secs: u64,
    /// Dispatch worker pool size (0 = auto: the machine's parallelism,
    /// clamped to [2, 8]).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry: RegistryConfig::default(),
            max_idle_secs: DEFAULT_MAX_IDLE_SECS,
            workers: 0,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) max_idle_secs: u64,
    /// Dispatch pool size, resolved (never 0).
    pub(crate) workers: usize,
}

impl Server {
    /// Binds a listener. Use port 0 to let the OS pick (tests).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .clamp(2, 8)
        } else {
            config.workers
        };
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry: Arc::new(SessionRegistry::new(config.registry)),
            max_idle_secs: config.max_idle_secs,
            workers,
        })
    }

    /// The bound address (read the OS-assigned port after `bind(…:0)`).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry backing this server (tests and stats).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Accepts and serves connections until a client sends `shutdown`.
    /// Blocks; run it on a dedicated thread if the caller needs to keep
    /// working. On shutdown every live connection is closed and every
    /// worker thread joined before this returns.
    ///
    /// # Errors
    ///
    /// Fatal event-loop failures (per-connection errors are contained).
    pub fn run(self) -> io::Result<()> {
        crate::reactor::run(self)
    }
}

/// What a request handler wants done with the connection afterwards.
/// The dispatch workers report it back to the event loop through their
/// completion queue.
pub(crate) enum Next {
    Continue,
    CloseConnection,
    ShutdownServer,
}

/// Dispatches one request frame. Writes the response into `response`;
/// infallible from the transport's point of view (in-band errors).
/// Every request is counted, latency-bucketed per verb, and (when
/// tracing is on) wrapped in a `server` span that parents the prepare
/// and evaluation spans the handlers open further down the stack.
/// Every request but the dispatcher's read batches funnels through
/// this function; those share its formatting via the script
/// interpreter.
pub(crate) fn handle_request(
    payload: &[u8],
    registry: &SessionRegistry,
    entry: &mut Option<Arc<SessionEntry>>,
    lineno: &mut usize,
    response: &mut OutFrame,
) -> Next {
    let m = tiebreak_trace::metrics();
    m.requests.inc();
    let started = std::time::Instant::now();
    let Ok(text) = std::str::from_utf8(payload) else {
        let _ = write!(response, "error request frame is not valid UTF-8");
        m.request_errors.inc();
        return Next::Continue;
    };
    let (verb_line, body) = match text.split_once('\n') {
        Some((v, b)) => (v.trim_end_matches('\r'), b),
        None => (text, ""),
    };
    let verb = verb_line.split_whitespace().next().unwrap_or("");
    let vi = tiebreak_trace::metrics::verb_index(verb);
    // Span name is the canonical verb (a static string), so `bye`,
    // `shutdown`, and unknown verbs all show up as `control` requests.
    let span = tiebreak_trace::span("server", tiebreak_trace::metrics::VERBS[vi], &[]);
    let next = match verb {
        "open" => {
            handle_open(verb_line, body, registry, entry, lineno, response);
            Next::Continue
        }
        "script" => {
            handle_script(body, entry.as_deref(), lineno, response);
            Next::Continue
        }
        "stats" => {
            handle_stats(registry, response);
            Next::Continue
        }
        "metrics" => {
            // Gauges are point-in-time: refresh them from the registry
            // right before rendering so the exposition is coherent.
            let s = registry.stats();
            m.sessions_resident.set(s.sessions as u64);
            m.resident_atoms.set(s.resident_atoms);
            let _ = write!(response, "ok\n{}", m.snapshot().render_prometheus());
            Next::Continue
        }
        "ping" => {
            let _ = write!(response, "ok pong");
            Next::Continue
        }
        "bye" => {
            let _ = write!(response, "ok bye");
            Next::CloseConnection
        }
        "shutdown" => {
            let _ = write!(response, "ok shutting down");
            Next::ShutdownServer
        }
        other => {
            let _ = write!(
                response,
                "error unknown verb {other:?} (expected open, script, stats, metrics, ping, bye, \
                 or shutdown)"
            );
            Next::Continue
        }
    };
    drop(span);
    // Dispatch workers are long-lived: flush the thread-local ring at
    // this request boundary so a `--trace-out` drain sees every event.
    tiebreak_trace::flush();
    if response.payload().starts_with(b"error") {
        m.request_errors.inc();
    }
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    m.request_latency_us[vi].record(elapsed_us);
    next
}

/// The `stats` verb: registry-wide counters and the per-session
/// breakdown.
fn handle_stats(registry: &SessionRegistry, response: &mut OutFrame) {
    let s = registry.stats();
    let _ = write!(
        response,
        "ok sessions={} resident_atoms={} hits={} misses={} evictions={} rejected={}",
        s.sessions, s.resident_atoms, s.hits, s.misses, s.evictions, s.rejected
    );
    for per in &s.per_session {
        let _ = write!(
            response,
            "\n% session key={:016x} epoch={} atoms={} last_used={}",
            per.key, per.epoch, per.resident_atoms, per.last_used
        );
    }
}

/// `open <prog_byte_len>\n<program><database>` — the byte length avoids
/// any in-band separator the sources themselves could contain.
fn handle_open(
    verb_line: &str,
    body: &str,
    registry: &SessionRegistry,
    entry: &mut Option<Arc<SessionEntry>>,
    lineno: &mut usize,
    response: &mut OutFrame,
) {
    let mut parts = verb_line.split_whitespace();
    let _verb = parts.next();
    let Some(len) = parts.next().and_then(|s| s.parse::<usize>().ok()) else {
        let _ = write!(
            response,
            "error open needs a program byte length: open <prog_byte_len>\\n<program><database>"
        );
        return;
    };
    let Some(program) = body.get(..len) else {
        let _ = write!(
            response,
            "error program byte length {len} exceeds the {} body bytes (or splits a UTF-8 \
             character)",
            body.len()
        );
        return;
    };
    let database = &body[len..];
    let opened_at = std::time::Instant::now();
    match registry.open(program, database) {
        Ok(outcome) => {
            let prepare_ms = opened_at.elapsed().as_secs_f64() * 1e3;
            let session = outcome.entry.lock();
            let _ = write!(
                response,
                "ok opened key={:016x} reused={} evicted={} atoms={}",
                outcome.entry.key(),
                outcome.reused,
                outcome.evicted,
                session.solver().footprint().atoms,
            );
            if let Some(summary) = outcome.entry.analysis_summary() {
                let _ = write!(response, "\n% analysis: {summary}");
            }
            // Timing annotations ride along only when tracing is on, so
            // the default wire format stays byte-stable.
            if tiebreak_trace::enabled() {
                let _ = write!(response, "\n% timing: prepare={prepare_ms:.3}ms");
            }
            drop(session);
            *entry = Some(outcome.entry);
            *lineno = 0;
        }
        Err(e) => {
            let _ = write!(response, "error {e}");
        }
    }
}

/// `script\n<lines>` — runs the frame's lines under the session lock,
/// flushing trailing staged mutations before releasing it.
fn handle_script(
    body: &str,
    entry: Option<&SessionEntry>,
    lineno: &mut usize,
    response: &mut OutFrame,
) {
    let Some(entry) = entry else {
        let _ = write!(response, "error no session open (send an open frame first)");
        return;
    };
    let mut errors: usize = 0;
    let mut session = entry.lock();
    for line in body.lines() {
        *lineno += 1;
        match session.process_line(*lineno, line, response) {
            Ok(LineOutcome::Ok) => {}
            Ok(LineOutcome::Error) => errors += 1,
            // In-memory writes cannot fail; treat defensively anyway.
            Err(_) => errors += 1,
        }
    }
    if matches!(session.finish(response), Ok(LineOutcome::Error) | Err(_)) {
        errors += 1;
    }
    entry.sync_footprint(&session);
    drop(session);
    response.prepend(format!("ok errors={errors}\n").as_bytes());
}
