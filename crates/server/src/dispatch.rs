//! The bounded worker pool behind the reactor, plus the per-session
//! cross-connection batching queue.
//!
//! Every complete request frame the reactor reads is submitted here.
//! Requests fall into two classes:
//!
//! * **Free** work — `open`, `stats`, `metrics`, `ping`, control verbs,
//!   and `script` frames on connections with no session open. Any
//!   worker runs them via `handle_request`.
//! * **Session** work — `script` frames against an open session. These
//!   enter a FIFO queue keyed by the session entry; at most one worker
//!   drains a given session's queue at a time, which serializes each
//!   session's frames while freeing the pool to serve other sessions
//!   concurrently.
//!
//! The batching rule: when the head of a session queue is a *read-only*
//! frame (every effective line a `?` query — see
//! [`ScriptSession::frame_is_read_only`]), the worker takes the longest
//! prefix of consecutive read-only frames as **one batch** and answers
//! them all from **one** shared evaluation ([`ReadBatch`]): queries
//! that arrived from N connections while an evaluation was in flight
//! coalesce instead of each re-running it. A mutating frame at the head is taken alone — the
//! FIFO order makes it an *epoch barrier*: reads queued before it were
//! batched and answered first, reads queued after it wait for the new
//! epoch. Per-query answers are byte-identical to the sequential path
//! (the sequential path literally runs the batched formatter with a
//! batch of one).
//!
//! Batches are observable: each records the `tiebreak_batch_size`
//! histogram, bumps `tiebreak_batches_dispatched`, and opens a
//! `server/batch` span that parents the per-frame request spans.
//!
//! Every job runs behind an unwind boundary ([`run_guarded`]). A panic
//! fails only the frames of that job that were not answered yet: each
//! of their connections gets an error frame,
//! `tiebreak_worker_panics_total` counts it, and the worker and the
//! session queue carry on.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use tiebreak_runtime::ReadBatch;

use crate::reactor::Notifier;
use crate::registry::{SessionEntry, SessionRegistry};
use crate::script::ScriptSession;
use crate::server::{handle_request, Next};
use crate::wire::OutFrame;

/// Per-connection protocol state, shared between the reactor (which
/// owns the socket) and whichever worker executes the connection's
/// current request. Uncontended in practice: one request per connection
/// is in flight at a time.
#[derive(Default)]
pub(crate) struct ConnState {
    /// The session this connection has open, if any.
    pub entry: Option<Arc<SessionEntry>>,
    /// Running script line number (counts across `script` frames).
    pub lineno: usize,
}

/// A finished request on its way back to the reactor, which takes the
/// response buffer over as is.
pub(crate) struct Completion {
    pub conn: u64,
    pub response: OutFrame,
    pub next: Next,
}

/// One queued `script` frame against an open session.
struct ScriptJob {
    conn: u64,
    session: Arc<Mutex<ConnState>>,
    payload: Vec<u8>,
    read_only: bool,
}

/// FIFO of a session's pending script frames. `running` guarantees a
/// single worker drains it (per-session serialization).
struct SessionQueue {
    entry: Arc<SessionEntry>,
    jobs: VecDeque<ScriptJob>,
    running: bool,
}

enum WorkItem {
    Free {
        conn: u64,
        session: Arc<Mutex<ConnState>>,
        payload: Vec<u8>,
    },
    /// The session queue under this key became runnable.
    Session(usize),
}

struct Shared {
    registry: Arc<SessionRegistry>,
    notifier: Arc<Notifier>,
    work: Mutex<VecDeque<WorkItem>>,
    available: Condvar,
    /// Session queues keyed by entry identity (`Arc` pointer), not
    /// registry key: two entries for the same program+database (one
    /// evicted, one re-prepared) must never share a queue.
    sessions: Mutex<HashMap<usize, SessionQueue>>,
    completions: Mutex<Vec<Completion>>,
    stopping: AtomicBool,
}

impl Shared {
    fn new(registry: Arc<SessionRegistry>, notifier: Arc<Notifier>) -> Arc<Shared> {
        Arc::new(Shared {
            registry,
            notifier,
            work: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            completions: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        })
    }
}

/// The worker pool handle owned by the reactor.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Dispatcher {
    /// Spawns `workers` threads (at least one).
    pub(crate) fn start(
        registry: Arc<SessionRegistry>,
        notifier: Arc<Notifier>,
        workers: usize,
    ) -> Dispatcher {
        let shared = Shared::new(registry, notifier);
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tiebreak-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn dispatch worker")
            })
            .collect();
        Dispatcher { shared, workers }
    }

    /// Routes one request frame (reactor thread).
    pub(crate) fn submit(&self, conn: u64, session: &Arc<Mutex<ConnState>>, payload: Vec<u8>) {
        // A `script` frame on a connection with an open session is
        // session work; everything else (including invalid UTF-8, which
        // `handle_request` reports in-band) is free work.
        let script_target = std::str::from_utf8(&payload).ok().and_then(|text| {
            let (verb_line, body) = text.split_once('\n').unwrap_or((text, ""));
            let verb = verb_line.trim_end_matches('\r').split_whitespace().next();
            if verb != Some("script") {
                return None;
            }
            let state = session.lock().unwrap_or_else(PoisonError::into_inner);
            state
                .entry
                .as_ref()
                .map(|entry| (Arc::clone(entry), ScriptSession::frame_is_read_only(body)))
        });
        match script_target {
            Some((entry, read_only)) => {
                let key = Arc::as_ptr(&entry) as usize;
                let job = ScriptJob {
                    conn,
                    session: Arc::clone(session),
                    payload,
                    read_only,
                };
                let runnable = {
                    let mut sessions = self
                        .shared
                        .sessions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    let q = sessions.entry(key).or_insert_with(|| SessionQueue {
                        entry,
                        jobs: VecDeque::new(),
                        running: false,
                    });
                    q.jobs.push_back(job);
                    if q.running {
                        false
                    } else {
                        q.running = true;
                        true
                    }
                };
                if runnable {
                    self.push_work(WorkItem::Session(key));
                }
            }
            None => self.push_work(WorkItem::Free {
                conn,
                session: Arc::clone(session),
                payload,
            }),
        }
    }

    /// Takes every completion queued since the last drain.
    pub(crate) fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(
            &mut self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Stops the pool: in-flight work finishes, queued work is dropped,
    /// workers join.
    pub(crate) fn shutdown(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    fn push_work(&self, item: WorkItem) {
        self.shared
            .work
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(item);
        self.shared.available.notify_one();
    }
}

fn complete(shared: &Shared, completion: Completion) {
    shared
        .completions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(completion);
    shared.notifier.notify();
}

#[cfg(test)]
thread_local! {
    /// Test-only: the connection whose next frame panics on this thread.
    static PANIC_ON_CONN: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Where a test injects a panic into one frame's handling.
#[cfg(test)]
fn fault_point(conn: u64) {
    if PANIC_ON_CONN.get() == Some(conn) {
        PANIC_ON_CONN.set(None);
        panic!("injected fault on connection {conn}");
    }
}

#[cfg(not(test))]
fn fault_point(_conn: u64) {}

/// Runs one job behind an unwind boundary. `job` answers `conns` in
/// order and counts the answered ones; if it panics, every connection
/// it had not answered yet gets an error frame instead, so no client
/// waits forever and the worker survives.
fn run_guarded(shared: &Shared, conns: &[u64], job: impl FnOnce(&mut usize)) {
    let mut answered = 0;
    if catch_unwind(AssertUnwindSafe(|| job(&mut answered))).is_ok() {
        return;
    }
    let m = tiebreak_trace::metrics();
    m.worker_panics.inc();
    for &conn in &conns[answered..] {
        m.request_errors.inc();
        let mut response = OutFrame::new();
        let _ = response.write_all(b"error internal: the worker panicked on this request");
        complete(
            shared,
            Completion {
                conn,
                response,
                next: Next::Continue,
            },
        );
    }
}

/// Answers one frame through the shared request handler.
fn answer_request(shared: &Shared, conn: u64, session: &Mutex<ConnState>, payload: &[u8]) {
    fault_point(conn);
    let mut response = OutFrame::new();
    let next = {
        let mut state = session.lock().unwrap_or_else(PoisonError::into_inner);
        let ConnState { entry, lineno } = &mut *state;
        handle_request(payload, &shared.registry, entry, lineno, &mut response)
    };
    complete(
        shared,
        Completion {
            conn,
            response,
            next,
        },
    );
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let item = {
            let mut work = shared.work.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(item) = work.pop_front() {
                    break item;
                }
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                work = shared
                    .available
                    .wait(work)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_item(shared, item);
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn run_item(shared: &Arc<Shared>, item: WorkItem) {
    match item {
        WorkItem::Free {
            conn,
            session,
            payload,
        } => run_guarded(shared, &[conn], |answered| {
            answer_request(shared, conn, &session, &payload);
            *answered = 1;
        }),
        WorkItem::Session(key) => drain_session_queue(shared, key),
    }
}

/// Drains one session's queue, batch by batch, until it is empty.
fn drain_session_queue(shared: &Arc<Shared>, key: usize) {
    loop {
        let (entry, batch) = {
            let mut sessions = shared
                .sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let Some(q) = sessions.get_mut(&key) else {
                return;
            };
            if q.jobs.is_empty() || shared.stopping.load(Ordering::SeqCst) {
                // Done (or shutting down, dropping what's queued). The
                // queue object goes away; a later submit re-creates it.
                sessions.remove(&key);
                return;
            }
            let mut batch = Vec::new();
            if q.jobs.front().is_some_and(|j| j.read_only) {
                // The longest prefix of consecutive read-only frames
                // shares one evaluation. A mutating frame behind them
                // stays queued: it is the epoch barrier that the batch
                // drains ahead of.
                while q.jobs.front().is_some_and(|j| j.read_only) {
                    batch.push(q.jobs.pop_front().expect("checked front"));
                }
            } else {
                batch.push(q.jobs.pop_front().expect("checked non-empty"));
            }
            (Arc::clone(&q.entry), batch)
        };
        let conns: Vec<u64> = batch.iter().map(|job| job.conn).collect();
        run_guarded(shared, &conns, |answered| {
            if batch[0].read_only {
                execute_read_batch(shared, &entry, batch, answered);
            } else {
                // The barrier: one mutating frame, executed alone through
                // `handle_request` under the session lock.
                let job = &batch[0];
                answer_request(shared, job.conn, &job.session, &job.payload);
                *answered = 1;
            }
        });
    }
}

/// Answers a batch of read-only frames from one shared evaluation,
/// fanning per-frame responses back to their connections and counting
/// them in `answered`.
fn execute_read_batch(
    shared: &Shared,
    entry: &Arc<SessionEntry>,
    jobs: Vec<ScriptJob>,
    answered: &mut usize,
) {
    let m = tiebreak_trace::metrics();
    m.batches_dispatched.inc();
    m.batch_size.record(jobs.len() as u64);
    let vi = tiebreak_trace::metrics::verb_index("script");
    let batch_span = tiebreak_trace::span("server", "batch", &[("frames", jobs.len() as u64)]);
    let session = entry.lock();
    let mut batch = ReadBatch::new();
    for job in jobs {
        fault_point(job.conn);
        m.requests.inc();
        let started = std::time::Instant::now();
        let span = tiebreak_trace::span("server", tiebreak_trace::metrics::VERBS[vi], &[]);
        let body = std::str::from_utf8(&job.payload)
            .ok()
            .and_then(|text| text.split_once('\n').map(|(_, b)| b))
            .unwrap_or("");
        let mut response = OutFrame::new();
        let errors = {
            let mut state = job.session.lock().unwrap_or_else(PoisonError::into_inner);
            session
                .process_read_frame(&mut state.lineno, body, &mut batch, &mut response)
                // In-memory writes cannot fail; count defensively.
                .unwrap_or(1)
        };
        response.prepend(format!("ok errors={errors}\n").as_bytes());
        drop(span);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        m.request_latency_us[vi].record(elapsed_us);
        complete(
            shared,
            Completion {
                conn: job.conn,
                response,
                next: Next::Continue,
            },
        );
        *answered += 1;
    }
    drop(session);
    drop(batch_span);
    tiebreak_trace::flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    /// A pool with no threads: the test thread runs the queued work, so
    /// the thread-local fault hook reaches it.
    fn inline_dispatcher() -> Dispatcher {
        let (notifier, _waker_rx) = crate::reactor::waker_pair().expect("waker pair");
        let registry = Arc::new(SessionRegistry::new(RegistryConfig::default()));
        Dispatcher {
            shared: Shared::new(registry, Arc::new(notifier)),
            workers: Vec::new(),
        }
    }

    fn run_queued(dispatcher: &Dispatcher) {
        loop {
            let item = dispatcher
                .shared
                .work
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(item) = item else { return };
            run_item(&dispatcher.shared, item);
        }
    }

    fn replies(dispatcher: &Dispatcher) -> Vec<(u64, String)> {
        dispatcher
            .drain_completions()
            .into_iter()
            .map(|c| {
                let text = String::from_utf8_lossy(c.response.payload()).into_owned();
                (c.conn, text)
            })
            .collect()
    }

    /// A panic inside a read batch fails the frames it had not answered
    /// yet with an error frame, and the session keeps serving.
    #[test]
    fn worker_panic_fails_its_frames_and_the_session_keeps_serving() {
        let dispatcher = inline_dispatcher();
        let entry = dispatcher
            .shared
            .registry
            .open("win(X) :- move(X, Y), not win(Y).", "move(a, b).")
            .expect("opens")
            .entry;
        let conn_state = || {
            Arc::new(Mutex::new(ConnState {
                entry: Some(Arc::clone(&entry)),
                lineno: 0,
            }))
        };
        let conns: Vec<_> = (1..=3u64).map(|id| (id, conn_state())).collect();
        let panics_before = tiebreak_trace::metrics().worker_panics.get();

        PANIC_ON_CONN.set(Some(2));
        for (id, state) in &conns {
            dispatcher.submit(*id, state, b"script\n? win(a)\n".to_vec());
        }
        run_queued(&dispatcher);
        let first = replies(&dispatcher);
        assert_eq!(first.len(), 3, "every frame is answered: {first:?}");
        assert_eq!(first[0].0, 1);
        assert!(first[0].1.contains("win(a): true"), "{first:?}");
        for (conn, text) in &first[1..] {
            assert!(text.starts_with("error internal"), "conn {conn}: {text}");
        }
        assert!(tiebreak_trace::metrics().worker_panics.get() > panics_before);

        // The queue was not stranded: a later frame on the same session
        // is dispatched and answered.
        dispatcher.submit(2, &conns[1].1, b"script\n? win(b)\n".to_vec());
        run_queued(&dispatcher);
        let second = replies(&dispatcher);
        assert_eq!(second.len(), 1, "{second:?}");
        assert!(second[0].1.contains("win(b): false"), "{second:?}");
    }
}
