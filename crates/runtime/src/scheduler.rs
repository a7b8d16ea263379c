//! The branch scheduler.
//!
//! One evaluation = one walk of the residual condensation. The walk
//! splits into *branches* (weakly connected component families,
//! [`UnfoundedEngine::group_count`](datalog_ground::UnfoundedEngine::group_count)):
//! `close` propagation follows graph edges, so no assignment made inside
//! one branch can ever reach another — branches are causally independent
//! and every dependency a component has lies inside its own branch,
//! upstream in the branch's topological component order.
//!
//! An evaluation runs on the thread that asks for it. It takes one fork
//! of the post-close state (model + [`datalog_ground::CloseState`] +
//! condensation scratch) and walks the branches in id order on it,
//! running the sequential kernel
//! (`tiebreak_core::semantics::process_components`) over each branch's
//! components in topological order. Each branch keeps a private
//! [`RunStats`] partial, merged in branch-id order. Parallelism lives
//! across requests (the server's dispatch pool), never inside one
//! evaluation.
//!
//! **Branch cache.** Plain well-founded evaluation is policy-free and
//! deterministic per branch, so the session memoizes each branch's
//! `(assignments, stats)` in [`Solver::wf_cache`]. A cached branch is
//! *replayed* into the fork's model instead of re-evaluated — its stats
//! partial is merged exactly as if it had run, so every aggregate
//! counter is identical; only [`RunStats::branches_reused`] records the
//! serving difference. Mutations invalidate exactly the branches whose
//! component lists the cone patch changed (see [`Solver::apply`]), which
//! is what turns a mutation + re-query cycle into cone-sized work end to
//! end.

use std::sync::Arc;

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
    let detailed = solver.config.eval.detailed_stats;
    let mut eval_span = tiebreak_trace::span("eval", "evaluate", &[("branches", branches as u64)]);
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
    if branches == 0 {
        return Ok(InterpreterRun {
            total: model.is_total(),
            model,
            stats,
        });
    }

    let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
    let mut engine = solver.engine.clone();
    let mut fresh = Vec::new();
    for (b, slot) in cached.iter().enumerate() {
        if let Some(hit) = slot {
            for &(atom, value) in &hit.assignments {
                model.set(atom, value);
            }
            stats.merge(&hit.stats);
            stats.branches_reused += 1;
            continue;
        }
        let branch = b as u32;
        let _branch_span = tiebreak_trace::span("eval", "branch", &[("branch", u64::from(branch))]);
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
            &mut model,
            &mut engine,
            comps,
            &mut pass,
            &mut branch_stats,
        )?;
        stats.merge(&branch_stats);
        if caching {
            let assignments = comps
                .iter()
                .flat_map(|&c| solver.engine.component_atoms(c))
                .map(|&a| (a, model.get(a)))
                .filter(|(_, v)| v.is_defined())
                .collect();
            fresh.push((
                b,
                Arc::new(BranchWf {
                    assignments,
                    stats: branch_stats,
                }),
            ));
        }
    }
    let evaluated = branches - stats.branches_reused;
    if caching {
        let mut guard = solver.wf_cache.lock().expect("wf cache lock");
        for (b, hit) in fresh {
            guard[b] = Some(hit);
        }
    }
    let m = tiebreak_trace::metrics();
    m.branches_evaluated.add(evaluated as u64);
    m.branch_cache_hits.add(stats.branches_reused as u64);
    eval_span.arg("branches_reused", stats.branches_reused as u64);

    Ok(InterpreterRun {
        total: model.is_total(),
        model,
        stats,
    })
}
