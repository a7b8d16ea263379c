//! Observability determinism suite: the span recorder must be a pure
//! observer.
//!
//! Three families of checks over the braided single-branch workload and
//! the serving tier:
//!
//! * **well-formedness** — on a cold run, a cache-warm rerun and a fresh
//!   solver every drained trace has unique sequence stamps, every span
//!   closed with a valid (earlier-allocated) parent, an `evaluate` span
//!   that records the braid's one branch with its `branch` span (if it
//!   ran rather than replayed) directly beneath it on the same thread,
//!   no `worker` span, and a chrome://tracing export that round-trips
//!   through the vendored validator;
//! * **bit-identical results** — well-founded models, outcome sets, and
//!   merged [`RunStats`] are `==` with the recorder on and off, cold and
//!   cache-warm;
//! * **server span tree** — one traced `open` + `? query` exchange
//!   yields `server` request spans that parent the registry open and
//!   the evaluation spans recorded further down the stack, and the
//!   `metrics` verb renders parseable Prometheus text.
//!
//! The recorder is process-global, so every test serializes on one
//! mutex and drains the sink before and after itself.

use std::sync::{Mutex, MutexGuard, PoisonError};

use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::prelude::*;
use tie_breaking_datalog::trace::{self, TraceEvent, TraceEventKind};

const CHAINS: usize = 4;
const POCKETS: usize = 2;
const LOOP: usize = 16;

/// Serializes the tests (the recorder and its sink are process-global)
/// and guarantees a clean disabled/empty state on entry and exit.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_enabled(false);
    drop(trace::drain());
    guard
}

fn braided_solver() -> Solver {
    let program = generators::braided_unfounded_chain_program(CHAINS, POCKETS, LOOP);
    Solver::new(program, Database::new()).expect("prepares")
}

/// Runs `f` with the recorder on and returns its result with the trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, trace::Trace) {
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    (out, trace::Trace::from_events(trace::drain()))
}

#[test]
fn traces_are_well_formed_across_thread_counts() {
    let _guard = exclusive();
    let decided = |solver: &Solver| {
        let out = solver.well_founded().expect("runs");
        assert!(out.total, "the braid is decided");
    };
    // Cold and cache-warm on one solver, then a fresh solver. The warm
    // rerun replays the cached branch, so it records no branch span.
    let (solver, cold) = traced(|| {
        let solver = braided_solver();
        decided(&solver);
        solver
    });
    let ((), warm) = traced(|| decided(&solver));
    let ((), fresh) = traced(|| decided(&braided_solver()));
    for (run, built, branch_spans) in [("cold", cold, 1), ("warm", warm, 0), ("fresh", fresh, 1)] {
        assert!(!built.events.is_empty(), "{run} recorded nothing");
        built.well_formed().unwrap_or_else(|e| panic!("{run}: {e}"));
        // The evaluation root records the braid's one branch, and the
        // branch span hangs directly off it: the branch ran on the
        // evaluating thread, with no worker span in between.
        let evaluate = built
            .events
            .iter()
            .find(|e| e.name == "evaluate")
            .unwrap_or_else(|| panic!("{run} has no evaluate span"));
        assert_eq!(evaluate.arg("branches"), Some(1), "{run}");
        assert!(
            built.events.iter().all(|e| e.name != "worker"),
            "{run} recorded a worker span"
        );
        let branches: Vec<&TraceEvent> =
            built.events.iter().filter(|e| e.name == "branch").collect();
        assert_eq!(branches.len(), branch_spans, "{run}");
        for branch in branches {
            assert_eq!(branch.parent, evaluate.id, "{run}");
            assert_eq!(branch.tid, evaluate.tid, "{run}");
        }
        let check = trace::validate_trace_json(&built.to_chrome_json())
            .unwrap_or_else(|e| panic!("{run} export invalid: {e}"));
        assert_eq!(check.events, built.events.len());
    }
}

#[test]
fn tracing_leaves_results_bit_identical() {
    let _guard = exclusive();
    let quiet = braided_solver();
    let (traced, _) = traced(braided_solver);
    // Cold, then cache-warm on the same two solvers.
    for run in ["cold", "warm"] {
        let quiet_wf = quiet.well_founded().expect("runs");
        let quiet_outcomes = quiet.all_outcomes(false, 64).expect("enumerates");

        trace::set_enabled(true);
        let traced_wf = traced.well_founded().expect("runs");
        let traced_outcomes = traced.all_outcomes(false, 64).expect("enumerates");
        trace::set_enabled(false);
        drop(trace::drain());

        assert_eq!(quiet_wf.true_facts, traced_wf.true_facts, "{run}");
        assert_eq!(quiet_wf.undefined, traced_wf.undefined, "{run}");
        assert_eq!(quiet_wf.total, traced_wf.total, "{run}");
        assert_eq!(quiet_wf.stats, traced_wf.stats, "{run}");
        assert_eq!(quiet_outcomes.models, traced_outcomes.models, "{run}");
        assert_eq!(quiet_outcomes.runs, traced_outcomes.runs, "{run}");
    }
}

#[test]
fn server_request_spans_parent_the_pipeline_and_metrics_render() {
    use tiebreak_server::{Client, Server, ServerConfig};

    let _guard = exclusive();
    trace::set_enabled(true);

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connects");
    client
        .open("win(X) :- move(X, Y), not win(Y).", "move(a, b).")
        .expect("opens");
    let reply = client.script("? win(a)\n").expect("scripts");
    assert!(reply.body.contains("win(a): true"), "{}", reply.body);
    // Tracing is on, so the reply carries the timing annotation.
    assert!(reply.body.contains("% timing: prepare="), "{}", reply.body);

    let metrics_reply = client.metrics().expect("metrics verb");
    assert!(
        metrics_reply.body.contains("tiebreak_requests_total"),
        "{}",
        metrics_reply.body
    );
    // Every non-comment line is `name{labels}? value` — the same shape
    // check the Prometheus scraper effectively performs.
    for line in metrics_reply.body.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("space-separated");
        assert!(!name.is_empty(), "{line:?}");
        assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
    }

    client.shutdown().expect("shuts down");
    handle.join().expect("joins").expect("serves");
    trace::set_enabled(false);

    let trace = trace::Trace::from_events(trace::drain());
    trace.well_formed().expect("server trace well-formed");
    let span = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::Span && e.name == name)
            .unwrap_or_else(|| panic!("no {name} span in the server trace"))
    };
    // Walks parent links from `e` and reports whether `ancestor` is on
    // the chain.
    let has_ancestor = |e: &TraceEvent, ancestor: u64| {
        let mut parent = e.parent;
        while parent != 0 {
            if parent == ancestor {
                return true;
            }
            parent = trace
                .events
                .iter()
                .find(|p| p.id == parent)
                .map_or(0, |p| p.parent);
        }
        false
    };
    let open_request = span("open");
    let registry_open = span("registry_open");
    let prepare = span("prepare");
    let script_request = span("script");
    let evaluate = span("evaluate");
    assert_eq!(
        registry_open.parent, open_request.id,
        "registry open is a child of the open request"
    );
    assert!(
        has_ancestor(prepare, registry_open.id),
        "prepare descends from the registry open"
    );
    assert!(
        has_ancestor(evaluate, script_request.id),
        "evaluation descends from the script request"
    );
}
