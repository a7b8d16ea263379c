//! The poll-based reactor: one thread multiplexing every connection.
//!
//! A single event loop serves nonblocking sockets, so a connection
//! costs no thread of its own. Each connection is a small state
//! machine
//!
//! ```text
//! reading header → reading payload → dispatched → writing response ⟲
//! ```
//!
//! and an idle connection costs one `pollfd` entry instead of a stack.
//! Frame reassembly is [`FrameDecoder`]'s job (a frame split across TCP
//! segments, or several frames coalesced into one segment, parse
//! identically to the blocking reader). Complete frames are handed to
//! the [`dispatch`](crate::dispatch) worker pool; at most one request
//! per connection is in flight, which both preserves the wire
//! protocol's strict request→response ordering and gives natural
//! backpressure (the reactor stops reading a connection while its
//! request is dispatched, so a flooding client backs up into its own
//! TCP window, not into server memory).
//!
//! Responses come back over a completion queue plus a loopback *waker*
//! connection (a std-only stand-in for `socketpair(2)`): a worker
//! writes one byte to make `poll` return, the reactor drains the
//! completions into per-connection write buffers and flushes them as
//! `POLLOUT` allows.
//!
//! Connections with no frame activity for `max_idle_secs` are reaped
//! (counted by `tiebreak_conns_reaped`); the open-connection count is
//! exported as the `tiebreak_conns_open` gauge.
//!
//! The `poll(2)` call itself goes through a thin syscall shim in
//! [`sys`] — no `libc` crate, consistent with the workspace's
//! no-external-deps rule — with a portable sleep-and-assume-ready
//! fallback for platforms without the shim. That fallback ignores the
//! descriptors, which is why the reactor runs on every platform: only
//! [`poll_fd`] differs between unix and the rest.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::dispatch::{ConnState, Dispatcher};
use crate::server::{Next, Server};
use crate::wire::{FrameDecoder, OutFrame, DEFAULT_MAX_FRAME_BYTES};

/// The descriptor [`sys::poll`] watches for `socket`.
#[cfg(unix)]
fn poll_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

/// Off unix the poll fallback reports every entry ready without
/// reading its descriptor, so any placeholder does.
#[cfg(not(unix))]
fn poll_fd<S>(_socket: &S) -> i32 {
    -1
}

/// The raw `poll(2)` shim.
pub(crate) mod sys {
    use std::io;

    /// `struct pollfd` — layout fixed by the kernel ABI.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// Readiness events that mean "this fd needs attention even though
    /// we may not have asked": errors and hangups are always reported.
    pub const POLLBAD: i16 = POLLERR | POLLHUP | POLLNVAL;

    /// Polls `fds` for readiness. `timeout_ms < 0` blocks indefinitely.
    /// `EINTR` is reported as `Ok(0)` — callers loop anyway.
    ///
    /// # Errors
    ///
    /// The syscall's errno, as an [`io::Error`].
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // x86_64 keeps poll(2); aarch64 only wires up ppoll(2), so use
        // ppoll on both with a null sigmask (identical semantics).
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        let ts = Timespec {
            sec: i64::from(timeout_ms) / 1000,
            nsec: (i64::from(timeout_ms) % 1000) * 1_000_000,
        };
        let ts_ptr: usize = if timeout_ms < 0 {
            0
        } else {
            std::ptr::from_ref(&ts) as usize
        };
        #[cfg(target_arch = "x86_64")]
        const PPOLL: usize = 271;
        #[cfg(target_arch = "aarch64")]
        const PPOLL: usize = 73;
        let ret: isize;
        unsafe {
            #[cfg(target_arch = "x86_64")]
            std::arch::asm!(
                "syscall",
                inlateout("rax") PPOLL as isize => ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") ts_ptr,
                in("r10") 0usize,
                in("r8") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
            #[cfg(target_arch = "aarch64")]
            std::arch::asm!(
                "svc 0",
                inlateout("x0") fds.as_mut_ptr() as isize => ret,
                in("x1") fds.len(),
                in("x2") ts_ptr,
                in("x3") 0usize,
                in("x4") 0usize,
                in("x8") PPOLL,
                options(nostack)
            );
        }
        const EINTR: isize = 4;
        match ret {
            n if n >= 0 => Ok(usize::try_from(n).unwrap_or(0)),
            e if e == -EINTR => Ok(0),
            e => Err(io::Error::from_raw_os_error(
                i32::try_from(-e).unwrap_or(i32::MAX),
            )),
        }
    }

    /// Portable fallback: sleep briefly and report every fd ready for
    /// what it asked. All reactor I/O is nonblocking, so "assume ready
    /// and let `read`/`write` say `WouldBlock`" is correct — it merely
    /// degrades the event loop to ~100 Hz polling on platforms without
    /// the syscall shim.
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let nap = if timeout_ms < 0 {
            10
        } else {
            timeout_ms.min(10)
        };
        if nap > 0 {
            std::thread::sleep(std::time::Duration::from_millis(nap as u64));
        }
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

/// Wakes the reactor's `poll` from worker threads: one byte over a
/// loopback connection pair, deduplicated so a burst of completions
/// costs one write.
pub(crate) struct Notifier {
    tx: Mutex<TcpStream>,
    pending: AtomicBool,
}

impl Notifier {
    pub(crate) fn notify(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let mut tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = tx.write(&[1]);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only: runs inside [`acknowledge_wakeup`] between its two
    /// steps, where a racing `notify` is injected.
    static BETWEEN_DRAIN_AND_CLEAR: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        std::cell::RefCell::new(None);
}

/// Acknowledges a wake-up before the caller drains the completion
/// queue: first drain the waker bytes, then clear `pending`. A `notify`
/// racing this either finds `pending` still set — its completion was
/// queued before the clear, so the caller's drain sees it — or sets it
/// afresh and writes a byte that wakes the next `poll`. Clearing first
/// would let a byte written between the two steps be swallowed while
/// `pending` stayed set, after which no `notify` writes a byte again
/// and `poll` never wakes for a completion.
fn acknowledge_wakeup(notifier: &Notifier, waker_rx: &TcpStream) {
    let mut rx = waker_rx;
    let mut scratch = [0u8; 64];
    while matches!(rx.read(&mut scratch), Ok(n) if n > 0) {}
    #[cfg(test)]
    if let Some(hook) = BETWEEN_DRAIN_AND_CLEAR.with(|h| h.borrow_mut().take()) {
        hook();
    }
    notifier.pending.store(false, Ordering::SeqCst);
}

/// A std-only `socketpair(2)`: bind a throwaway loopback listener,
/// connect to it, accept, and verify the accepted peer is our own
/// connect (so a stranger racing the ephemeral port cannot hijack the
/// waker).
pub(crate) fn waker_pair() -> io::Result<(Notifier, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let ours = tx.local_addr()?;
    for _ in 0..16 {
        let (rx, peer) = listener.accept()?;
        if peer == ours {
            rx.set_nonblocking(true)?;
            tx.set_nodelay(true)?;
            return Ok((
                Notifier {
                    tx: Mutex::new(tx),
                    pending: AtomicBool::new(false),
                },
                rx,
            ));
        }
        // Not our connection: drop it and keep accepting.
    }
    Err(io::Error::other(
        "could not establish the reactor waker pair",
    ))
}

/// One connection's state machine.
struct Conn {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Complete frames not yet dispatched (a pipelining client can
    /// deliver several in one segment; they are served in order, one
    /// in flight at a time).
    pending: VecDeque<Vec<u8>>,
    /// A request is dispatched and its response not yet queued: reading
    /// is paused (backpressure) and the connection must not be reaped.
    inflight: bool,
    /// Response frames not yet accepted by the socket, oldest first, as
    /// `(buffer, offset of the first unwritten byte)`. Each buffer is
    /// the one a worker wrote the reply into; it is freed once written.
    wq: VecDeque<(Vec<u8>, usize)>,
    close_after_write: bool,
    /// Peer closed its sending half; finish writing, then drop.
    read_closed: bool,
    last_activity: Instant,
    /// Protocol state shared with the worker that executes this
    /// connection's requests (session entry + script line number).
    session: Arc<Mutex<ConnState>>,
}

impl Conn {
    fn wants_read(&self) -> bool {
        !self.inflight && !self.read_closed && !self.close_after_write && self.pending.is_empty()
    }

    fn wants_write(&self) -> bool {
        !self.wq.is_empty()
    }

    /// Queues one response frame for writing, taking its buffer over.
    fn queue_response(&mut self, frame: OutFrame) {
        self.wq.push_back(frame.into_wire());
    }

    /// Pushes queued frames into the socket. `false` means the
    /// connection died mid-write.
    fn flush_writes(&mut self) -> bool {
        while let Some((buf, pos)) = self.wq.front_mut() {
            match self.stream.write(&buf[*pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    *pos += n;
                    if *pos == buf.len() {
                        self.wq.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// Runs the reactor until a client sends `shutdown`. Consumes the
/// bound server (listener + registry).
pub(crate) fn run(server: Server) -> io::Result<()> {
    let Server {
        listener,
        registry,
        max_idle_secs,
        workers,
    } = server;
    listener.set_nonblocking(true)?;
    let (notifier, waker_rx) = waker_pair()?;
    let notifier = Arc::new(notifier);
    let dispatcher = Dispatcher::start(Arc::clone(&registry), Arc::clone(&notifier), workers);
    let m = tiebreak_trace::metrics();

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut stopping = false;
    let mut listener = Some(listener);
    // Reused across iterations; rebuilt each time (cheap at our scale,
    // and level-triggered poll needs fresh event masks anyway).
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    // pollfds[i] ↦ connection id, for i ≥ 2.
    let mut slot_ids: Vec<u64> = Vec::new();
    let mut rbuf = [0u8; 16 * 1024];

    loop {
        pollfds.clear();
        slot_ids.clear();
        pollfds.push(sys::PollFd {
            fd: poll_fd(&waker_rx),
            events: sys::POLLIN,
            revents: 0,
        });
        pollfds.push(sys::PollFd {
            fd: listener.as_ref().map_or(-1, poll_fd),
            events: if listener.is_some() && !stopping {
                sys::POLLIN
            } else {
                0
            },
            revents: 0,
        });
        for (id, conn) in &conns {
            let mut events = 0;
            if conn.wants_read() {
                events |= sys::POLLIN;
            }
            if conn.wants_write() {
                events |= sys::POLLOUT;
            }
            pollfds.push(sys::PollFd {
                fd: poll_fd(&conn.stream),
                events,
                revents: 0,
            });
            slot_ids.push(*id);
        }

        let timeout_ms = poll_timeout(stopping, max_idle_secs, &conns);
        sys::poll(&mut pollfds, timeout_ms)?;
        let now = Instant::now();

        // Waker: drain the byte(s), then the completion queue.
        if pollfds[0].revents & (sys::POLLIN | sys::POLLBAD) != 0 {
            acknowledge_wakeup(&notifier, &waker_rx);
        }
        for completion in dispatcher.drain_completions() {
            let Some(conn) = conns.get_mut(&completion.conn) else {
                continue; // Connection died while its request ran.
            };
            conn.inflight = false;
            conn.last_activity = now;
            conn.queue_response(completion.response);
            match completion.next {
                Next::Continue => {}
                Next::CloseConnection => conn.close_after_write = true,
                Next::ShutdownServer => {
                    conn.close_after_write = true;
                    stopping = true;
                    listener = None;
                }
            }
            if !conn.flush_writes() {
                drop_conn(&mut conns, completion.conn);
                continue;
            }
            if !stopping {
                dispatch_next(conns.get_mut(&completion.conn), &dispatcher, now);
            }
            maybe_finish(&mut conns, completion.conn);
        }

        // New connections.
        if pollfds[1].revents & (sys::POLLIN | sys::POLLBAD) != 0 {
            if let Some(l) = listener.as_ref() {
                loop {
                    match l.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let id = next_id;
                            next_id += 1;
                            conns.insert(
                                id,
                                Conn {
                                    id,
                                    stream,
                                    decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES),
                                    pending: VecDeque::new(),
                                    inflight: false,
                                    wq: VecDeque::new(),
                                    close_after_write: false,
                                    read_closed: false,
                                    last_activity: now,
                                    session: Arc::new(Mutex::new(ConnState::default())),
                                },
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                m.conns_open.set(conns.len() as u64);
            }
        }

        // Per-connection readiness.
        for (slot, id) in slot_ids.iter().enumerate() {
            let revents = pollfds[slot + 2].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(id) else {
                continue;
            };
            if revents & sys::POLLNVAL != 0 {
                drop_conn(&mut conns, *id);
                continue;
            }
            if revents & sys::POLLOUT != 0 && !conn.flush_writes() {
                drop_conn(&mut conns, *id);
                continue;
            }
            // POLLERR/POLLHUP fall through to the read path: read()
            // reports the actual condition (EOF or the socket error).
            if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 && conn.wants_read() {
                if !read_ready(conn, &mut rbuf, now) {
                    drop_conn(&mut conns, *id);
                    continue;
                }
                if !stopping {
                    dispatch_next(conns.get_mut(id), &dispatcher, now);
                }
            }
            maybe_finish(&mut conns, *id);
        }
        m.conns_open.set(conns.len() as u64);

        // Idle reaping.
        if max_idle_secs > 0 && !stopping {
            let deadline = Duration::from_secs(max_idle_secs);
            let reap: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| !c.inflight && now.duration_since(c.last_activity) >= deadline)
                .map(|(id, _)| *id)
                .collect();
            for id in reap {
                // Count before closing: a peer that observes the FIN
                // must already see the bumped counter.
                m.conns_reaped.inc();
                drop_conn(&mut conns, id);
            }
            m.conns_open.set(conns.len() as u64);
        }

        if stopping {
            // Grace period: let queued responses (the `ok shutting
            // down` frame above all) reach their sockets, then leave.
            let deadline = Instant::now() + Duration::from_secs(5);
            while conns.values().any(|c| c.inflight || c.wants_write()) {
                if Instant::now() >= deadline {
                    break;
                }
                pollfds.clear();
                pollfds.push(sys::PollFd {
                    fd: poll_fd(&waker_rx),
                    events: sys::POLLIN,
                    revents: 0,
                });
                slot_ids.clear();
                for (id, conn) in &conns {
                    pollfds.push(sys::PollFd {
                        fd: poll_fd(&conn.stream),
                        events: if conn.wants_write() { sys::POLLOUT } else { 0 },
                        revents: 0,
                    });
                    slot_ids.push(*id);
                }
                let _ = sys::poll(&mut pollfds, 50);
                if pollfds[0].revents & (sys::POLLIN | sys::POLLBAD) != 0 {
                    acknowledge_wakeup(&notifier, &waker_rx);
                }
                for completion in dispatcher.drain_completions() {
                    if let Some(conn) = conns.get_mut(&completion.conn) {
                        conn.inflight = false;
                        conn.queue_response(completion.response);
                    }
                }
                let finished: Vec<u64> = conns
                    .iter_mut()
                    .filter_map(|(id, c)| {
                        if !c.flush_writes() || (!c.inflight && !c.wants_write()) {
                            Some(*id)
                        } else {
                            None
                        }
                    })
                    .collect();
                for id in finished {
                    drop_conn(&mut conns, id);
                }
            }
            conns.clear();
            m.conns_open.set(0);
            dispatcher.shutdown();
            return Ok(());
        }
    }
}

/// Reads whatever the socket has, feeding the frame decoder. Returns
/// `false` when the connection should be dropped immediately.
fn read_ready(conn: &mut Conn, rbuf: &mut [u8], now: Instant) -> bool {
    let mut frames = Vec::new();
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = now;
                if let Err(e) = conn.decoder.feed(&rbuf[..n], &mut frames) {
                    // Oversized header: the stream is desynchronized.
                    // Report in-band and close once the error frame
                    // is written.
                    let mut frame = OutFrame::new();
                    let _ = write!(frame, "error {e}");
                    conn.queue_response(frame);
                    conn.close_after_write = true;
                    conn.flush_writes();
                    // Frames decoded before the bad header still count.
                    conn.pending.extend(frames);
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    conn.pending.extend(frames);
    if conn.read_closed && conn.decoder.mid_frame() {
        // Truncated frame: nothing sensible to answer.
        return false;
    }
    true
}

/// Starts the next pending request if the connection is idle.
fn dispatch_next(conn: Option<&mut Conn>, dispatcher: &Dispatcher, now: Instant) {
    let Some(conn) = conn else { return };
    if conn.inflight || conn.close_after_write {
        return;
    }
    if let Some(payload) = conn.pending.pop_front() {
        conn.inflight = true;
        conn.last_activity = now;
        dispatcher.submit(conn.id, &conn.session, payload);
    }
}

/// Drops a finished connection: peer gone and nothing left to write.
fn maybe_finish(conns: &mut HashMap<u64, Conn>, id: u64) {
    let done = conns.get(&id).is_some_and(|c| {
        (c.close_after_write || c.read_closed)
            && !c.inflight
            && !c.wants_write()
            && c.pending.is_empty()
    });
    if done {
        drop_conn(conns, id);
    }
}

fn drop_conn(conns: &mut HashMap<u64, Conn>, id: u64) {
    conns.remove(&id);
}

/// How long `poll` may block: up to the nearest idle deadline (so the
/// reaper runs on time), a short tick while stopping, indefinitely when
/// nothing is scheduled — the waker interrupts any of these.
fn poll_timeout(stopping: bool, max_idle_secs: u64, conns: &HashMap<u64, Conn>) -> i32 {
    if stopping {
        return 50;
    }
    if max_idle_secs == 0 || conns.is_empty() {
        return -1;
    }
    let idle = Duration::from_secs(max_idle_secs);
    let now = Instant::now();
    let nearest = conns
        .values()
        .filter(|c| !c.inflight)
        .map(|c| {
            idle.saturating_sub(now.duration_since(c.last_activity))
                .as_millis()
        })
        .min();
    match nearest {
        // +1 so the deadline has passed when poll returns.
        Some(ms) => i32::try_from(ms.min(60_000)).unwrap_or(60_000) + 1,
        None => -1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn wait_readable(rx: &TcpStream) -> bool {
        let mut fds = [sys::PollFd {
            fd: poll_fd(rx),
            events: sys::POLLIN,
            revents: 0,
        }];
        // A deadline, not a pause: a live waker returns at once.
        sys::poll(&mut fds, 10_000).expect("poll");
        fds[0].revents & sys::POLLIN != 0
    }

    /// A completion posted between draining the waker bytes and clearing
    /// `pending` must neither be lost nor silence later wake-ups.
    #[test]
    fn notify_between_drain_and_clear_still_wakes_the_reactor() {
        let (notifier, rx) = waker_pair().expect("waker pair");
        let notifier = Arc::new(notifier);
        let completions = Arc::new(Mutex::new(Vec::new()));
        // A worker that posts completion `id` when released through
        // `start`, then reports through `done`.
        let start = Arc::new(Barrier::new(2));
        let done = Arc::new(Barrier::new(2));
        let worker = {
            let (notifier, completions) = (Arc::clone(&notifier), Arc::clone(&completions));
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                for id in 1..=3 {
                    start.wait();
                    completions.lock().unwrap().push(id);
                    notifier.notify();
                    done.wait();
                }
            })
        };
        let complete = |start: &Barrier, done: &Barrier| {
            start.wait();
            done.wait();
        };

        complete(&start, &done);
        assert!(wait_readable(&rx), "first completion wakes the reactor");
        {
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            BETWEEN_DRAIN_AND_CLEAR.with(|h| {
                *h.borrow_mut() = Some(Box::new(move || complete(&start, &done)));
            });
        }
        acknowledge_wakeup(&notifier, &rx);
        assert_eq!(std::mem::take(&mut *completions.lock().unwrap()), [1, 2]);

        complete(&start, &done);
        assert!(
            wait_readable(&rx),
            "a completion after the racing notify must wake the reactor"
        );
        acknowledge_wakeup(&notifier, &rx);
        assert_eq!(std::mem::take(&mut *completions.lock().unwrap()), [3]);
        worker.join().unwrap();
    }
}
