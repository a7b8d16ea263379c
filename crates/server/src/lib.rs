//! Serving tier for the tie-breaking Datalog workspace: a multi-session
//! network server over the prepared-session runtime.
//!
//! The PR 4/5 runtime made a session cheap to *keep* (incremental
//! apply, cone re-close) but every CLI invocation still paid the full
//! prepare (ground → close → condense) on startup. This crate amortizes
//! preparation across requests and clients:
//!
//! * [`wire`] — length-prefixed framing (4-byte big-endian length +
//!   UTF-8 payload) with an oversized-frame guard that rejects hostile
//!   lengths before allocating;
//! * [`script`] — the session-script interpreter (`+fact.` / `-fact.` /
//!   `? wf` / `? outcomes N` / `? stats`) shared by the CLI `session`
//!   command and the server, hardened so malformed lines are reported
//!   with their line number and survived;
//! * [`registry`] — an LRU of prepared sessions keyed by program +
//!   database source, with admission control denominated in ground
//!   atoms (the grounder's own budget unit) and eviction as graceful
//!   degradation;
//! * [`server`] / [`client`] — the TCP server and a blocking client.
//!   The server has one transport on every platform: a poll-based
//!   reactor with a bounded worker pool and **cross-connection query
//!   batching**: read-only `script` frames from many clients against
//!   the same session coalesce into one evaluation with byte-identical
//!   per-client answers, and mutating frames act as epoch barriers.
//!   The worker pool is where the server's parallelism lives: each
//!   evaluation runs on the worker that serves it, and different
//!   requests run on different workers.
//!
//! # Example
//!
//! ```no_run
//! use tiebreak_server::{Client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! client.open("win(X) :- move(X, Y), not win(Y).", "move(a, b).")?;
//! let response = client.script("? win(a)\n")?;
//! assert!(response.body.contains("win(a): true"));
//! client.shutdown()?;
//! handle.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
mod dispatch;
mod reactor;
pub mod registry;
pub mod script;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, Response};
pub use registry::{
    OpenError, OpenOutcome, RegistryConfig, RegistryStats, SessionRegistry, SessionStat,
};
pub use script::{LineOutcome, ScriptSession};
pub use server::{Server, ServerConfig, DEFAULT_MAX_IDLE_SECS};
pub use wire::{read_frame, write_frame, FrameDecoder, WireError, DEFAULT_MAX_FRAME_BYTES};
