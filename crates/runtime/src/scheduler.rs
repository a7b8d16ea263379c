//! The parallel branch scheduler.
//!
//! One evaluation = one walk of the residual condensation. The walk
//! splits into *branches* (weakly connected component families,
//! [`UnfoundedEngine::group_count`](datalog_ground::UnfoundedEngine::group_count)):
//! `close` propagation follows graph edges, so no assignment made inside
//! one branch can ever reach another — branches are causally independent
//! and every dependency a component has lies inside its own branch,
//! upstream in the branch's topological component order.
//!
//! Workers pull branch ids from a shared atomic cursor; each worker forks
//! a private copy of the post-close state (model +
//! [`datalog_ground::CloseState`] + condensation scratch) and runs the
//! sequential kernel (`tiebreak_core::semantics::process_components`)
//! over the branch's components in topological order. Finished branches
//! record their atom assignments and a private [`RunStats`] partial. A
//! branch is never split: a session with one branch runs on one worker
//! ([`Solver::effective_threads`]).
//!
//! **Branch cache.** Plain well-founded evaluation is policy-free and
//! deterministic per branch, so the session memoizes each branch's
//! `(assignments, stats)` in [`Solver::wf_cache`]. A cached branch is
//! *replayed* instead of re-evaluated — its stats partial is merged
//! exactly as if it had run, so every aggregate counter is identical;
//! only [`RunStats::branches_reused`] records the serving difference.
//! Mutations invalidate exactly the branches whose component lists the
//! cone patch changed (see [`Solver::apply`]), which is what turns a
//! mutation + re-query cycle into cone-sized work end to end.
//!
//! Determinism: which worker evaluates a branch, and when, affects
//! nothing — results depend only on the shared prepared state plus the
//! branch-keyed policy, and the final join merges in branch-id order.
//! Models, outcome sets, and stats are bit-identical across thread
//! counts and schedules. Workers keep their fork across branches, so
//! memory is O(threads × graph), not O(branches × graph). A worker
//! failure (error or panic) raises a shared flag that stops every
//! worker from claiming further branches; the first failure is returned
//! (or its panic resumed) after the join.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use datalog_ground::{AtomId, Closer, TruthValue};
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{InterpreterRun, RunStats, TiePolicy};

use crate::policy::PolicyFactory;
use crate::session::Solver;

/// A memoized branch result of the plain well-founded evaluation.
#[derive(Clone, Debug)]
pub(crate) struct BranchWf {
    /// Values the branch decided for its own atoms (stuck atoms simply
    /// stay out — the base model is already undefined there).
    pub(crate) assignments: Vec<(AtomId, TruthValue)>,
    pub(crate) stats: RunStats,
}

/// What one branch evaluation produced.
struct BranchOutcome {
    branch: u32,
    assignments: Vec<(AtomId, TruthValue)>,
    stats: RunStats,
}

/// What stopped a worker early.
enum Failure {
    Error(SemanticsError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// The failure channel shared by the workers of one evaluation.
#[derive(Default)]
struct FailureSlot {
    /// First failure wins; the flag stops every worker from claiming
    /// further branches.
    failure: Mutex<Option<Failure>>,
    failed: AtomicBool,
}

impl FailureSlot {
    fn fail(&self, failure: Failure) {
        // A poisoned lock still holds a consistent `Option`: the slot is
        // only ever written whole.
        let mut slot = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(failure);
        }
        self.failed.store(true, Ordering::Release);
    }

    fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn take(self) -> Option<Failure> {
        self.failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs one full evaluation against `solver`'s prepared state.
///
/// `factory: None` runs plain well-founded evaluation (no tie phase);
/// `use_unfounded` keeps the unfounded-set priority of the well-founded
/// flavours, exactly as in the sequential interpreters.
pub(crate) fn run_session<F: PolicyFactory>(
    solver: &Solver,
    factory: Option<&F>,
    use_unfounded: bool,
) -> Result<InterpreterRun, SemanticsError> {
    let branches = solver.engine.group_count();
    let threads = solver.effective_threads();
    let detailed = solver.config.eval.detailed_stats;
    let mut eval_span = tiebreak_trace::span(
        "eval",
        "evaluate",
        &[("branches", branches as u64), ("threads", threads as u64)],
    );
    let eval_id = eval_span.id();
    tiebreak_trace::metrics().evaluations.inc();
    // Only the policy-free well-founded flavour is memoizable: a tie
    // policy makes branch results run-dependent.
    let caching = factory.is_none() && use_unfounded && !detailed;
    let cached: Vec<Option<Arc<BranchWf>>> = if caching {
        solver.wf_cache.lock().expect("wf cache lock").clone()
    } else {
        vec![None; branches]
    };

    // The base close is shared by every evaluation of the session; its
    // one propagation round is part of each run's accounting so session
    // stats remain comparable with the one-shot interpreters.
    let mut stats = RunStats {
        close_rounds: 1,
        ..RunStats::default()
    };
    let mut model = solver.base_model.clone();

    if branches > 0 {
        let branch_cursor = AtomicUsize::new(0);
        let failures = FailureSlot::default();

        let worker = |worker_id: usize| -> Vec<BranchOutcome> {
            // Workers live on scoped threads: parent to the evaluation
            // span by explicit id (the TLS stack is per-thread), and
            // flush at exit so the trace survives the thread.
            let _worker_span = tiebreak_trace::child_span(
                "eval",
                "worker",
                eval_id,
                &[("worker", worker_id as u64)],
            );
            let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
            let mut fork_model = solver.base_model.clone();
            let mut engine = solver.engine.clone();
            let mut done = Vec::new();
            while !failures.has_failed() {
                let b = branch_cursor.fetch_add(1, Ordering::Relaxed);
                if b >= branches {
                    break;
                }
                if cached[b].is_some() {
                    continue;
                }
                let branch = b as u32;
                let _branch_span =
                    tiebreak_trace::span("eval", "branch", &[("branch", u64::from(branch))]);
                let outcome = catch_unwind(AssertUnwindSafe(
                    || -> Result<BranchOutcome, SemanticsError> {
                        let comps = solver.engine.group_components(branch);
                        let mut branch_stats = RunStats::default();
                        let mut policy = factory.map(|f| f.policy_for(branch));
                        let mut pass = ComponentPass {
                            use_unfounded,
                            detailed,
                            policy: policy.as_mut().map(|p| p as &mut dyn TiePolicy),
                        };
                        process_components(
                            &mut closer,
                            &mut fork_model,
                            &mut engine,
                            comps,
                            &mut pass,
                            &mut branch_stats,
                        )?;
                        let mut assignments = Vec::new();
                        for &c in comps {
                            for &a in solver.engine.component_atoms(c) {
                                let v = fork_model.get(a);
                                if v.is_defined() {
                                    assignments.push((a, v));
                                }
                            }
                        }
                        Ok(BranchOutcome {
                            branch,
                            assignments,
                            stats: branch_stats,
                        })
                    },
                ));
                match outcome {
                    Ok(Ok(o)) => done.push(o),
                    Ok(Err(e)) => failures.fail(Failure::Error(e)),
                    Err(p) => failures.fail(Failure::Panic(p)),
                }
            }
            // Scoped workers die right after returning, so push their
            // ring buffers to the sink.
            tiebreak_trace::flush();
            done
        };

        let worker_results: Vec<Vec<BranchOutcome>> = if threads <= 1 {
            vec![worker(0)]
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (0..threads)
                    .map(|i| scope.spawn(move || worker(i)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("runtime worker panicked"))
                    .collect()
            })
        };
        if let Some(failure) = failures.take() {
            match failure {
                Failure::Error(e) => return Err(e),
                Failure::Panic(p) => resume_unwind(p),
            }
        }
        let mut partials: Vec<BranchOutcome> = worker_results.into_iter().flatten().collect();

        if caching {
            let mut guard = solver.wf_cache.lock().expect("wf cache lock");
            for partial in &partials {
                guard[partial.branch as usize] = Some(Arc::new(BranchWf {
                    assignments: partial.assignments.clone(),
                    stats: partial.stats.clone(),
                }));
            }
        }

        // Deterministic join: branch-id order, whatever the schedule
        // was, with cached branches replayed in place.
        partials.sort_by_key(|p| p.branch);
        let mut fresh = partials.iter().peekable();
        for (b, slot) in cached.iter().enumerate() {
            if let Some(hit) = slot {
                for &(atom, value) in &hit.assignments {
                    model.set(atom, value);
                }
                stats.merge(&hit.stats);
                stats.branches_reused += 1;
            } else {
                let partial = fresh.next().expect("every uncached branch ran");
                debug_assert_eq!(partial.branch as usize, b);
                for &(atom, value) in &partial.assignments {
                    model.set(atom, value);
                }
                stats.merge(&partial.stats);
            }
        }
        let m = tiebreak_trace::metrics();
        m.branches_evaluated.add(partials.len() as u64);
        m.branch_cache_hits.add(stats.branches_reused as u64);
        eval_span.arg("branches_reused", stats.branches_reused as u64);
    }

    let total = model.is_total();
    Ok(InterpreterRun {
        model,
        total,
        stats,
    })
}
