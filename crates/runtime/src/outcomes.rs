//! Copy-on-write outcome enumeration, factorised over branches.
//!
//! The core enumerator (`tiebreak_core::semantics::outcomes`) re-runs a
//! whole interpreter per tie script. A session instead **forks** its
//! post-close snapshot: a private [`Closer`] rehydrated from the shared
//! [`datalog_ground::CloseState`] plus a clone of the base model, after
//! which only the residual condensation is walked.
//!
//! Ties are the only choice points, and branches
//! ([`datalog_ground::UnfoundedEngine::group_components`]) share no edges, so the
//! outcome set is the **product** of per-branch outcome sets. Each
//! branch walks its own choice tree breadth-first with the core
//! enumerator's rule (flip every defaulted `false` answer exactly once)
//! and keeps each script's assignment delta, deduplicated by hash.
//! Round *j* runs the *j*-th pending script of every branch on one
//! shared fork, so the fork count is the largest per-branch script
//! count, not the product.
//!
//! Models come in **product order**: branch 0 is the most significant
//! digit, each branch's distinct deltas in discovery order. `runs` is
//! the product of the per-branch script counts (saturating), which is
//! the core enumerator's run count. When it exceeds `max_runs`, the set
//! is truncated to the first `max_runs` combinations, `runs = max_runs`,
//! and no branch walks more than `max_runs` scripts.
//!
//! The walk is sequential: the script-parallel waves it replaced lost to
//! one thread (52 ms vs 50 ms per ten-pocket enumeration on 2 cores).

use std::collections::HashSet;

use datalog_ground::{AtomId, Closer, PartialModel, TruthValue};
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{RunStats, ScriptedPolicy};

use crate::session::Solver;

/// What one branch script decided: the defined values of the branch's
/// atoms, in component-atom order.
type Delta = Vec<(AtomId, TruthValue)>;

/// One branch's choice-tree walk.
struct BranchWalk {
    /// Every script discovered so far, in breadth-first order; round
    /// *j* evaluates `scripts[j]`.
    scripts: Vec<Vec<bool>>,
    /// Distinct deltas in discovery order, plus their hash index.
    deltas: Vec<Delta>,
    seen: HashSet<Delta>,
}

/// Explores every tie script of one interpreter flavour against the
/// prepared state; see the module docs for the order and budget rules.
pub(crate) fn all_outcomes(
    solver: &Solver,
    pure: bool,
    max_runs: usize,
) -> Result<OutcomeSet, SemanticsError> {
    let mut span = tiebreak_trace::span("eval", "outcomes", &[("max_runs", max_runs as u64)]);
    let branches = solver.engine.group_count() as u32;
    let mut walks: Vec<BranchWalk> = (0..branches)
        .map(|_| BranchWalk {
            scripts: vec![Vec::new()],
            deltas: Vec::new(),
            seen: HashSet::new(),
        })
        .collect();
    let mut engine = solver.engine.clone();
    let mut forks = 0usize;
    for round in 0..max_runs {
        if walks.iter().all(|w| w.scripts.len() <= round) {
            break;
        }
        forks += 1;
        let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
        let mut model = solver.base_model.clone();
        for (branch, walk) in (0..branches).zip(&mut walks) {
            let Some(prefix) = walk.scripts.get(round).cloned() else {
                continue;
            };
            let comps = solver.engine.group_components(branch);
            let mut policy = ScriptedPolicy::new(prefix.clone(), false);
            let mut pass = ComponentPass {
                use_unfounded: !pure,
                detailed: false,
                policy: Some(&mut policy),
            };
            process_components(
                &mut closer,
                &mut model,
                &mut engine,
                comps,
                &mut pass,
                &mut RunStats::default(),
            )?;
            for flip_at in prefix.len()..policy.consumed() {
                let mut next = prefix.clone();
                next.resize(flip_at, false);
                next.push(true);
                walk.scripts.push(next);
            }
            let delta: Delta = comps
                .iter()
                .flat_map(|&c| solver.engine.component_atoms(c))
                .map(|&a| (a, model.get(a)))
                .filter(|(_, v)| v.is_defined())
                .collect();
            if walk.seen.insert(delta.clone()) {
                walk.deltas.push(delta);
            }
        }
    }

    let scripts = walks
        .iter()
        .fold(1usize, |n, w| n.saturating_mul(w.scripts.len()));
    let truncated = scripts > max_runs;
    let runs = scripts.min(max_runs);
    let combinations = walks
        .iter()
        .fold(1usize, |n, w| n.saturating_mul(w.deltas.len()));
    // Mixed-radix decode of combination `i`, the last branch varying
    // fastest. Branches own disjoint atoms, so deltas commute.
    let models: Vec<PartialModel> = (0..combinations.min(runs))
        .map(|mut i| {
            let mut model = solver.base_model.clone();
            for walk in walks.iter().rev() {
                for &(atom, value) in &walk.deltas[i % walk.deltas.len()] {
                    model.set(atom, value);
                }
                i /= walk.deltas.len();
            }
            model
        })
        .collect();

    span.arg("forks", forks as u64);
    span.arg("runs", runs as u64);
    span.arg("models", models.len() as u64);
    tiebreak_trace::metrics().outcome_scripts.add(runs as u64);
    Ok(OutcomeSet {
        models,
        runs,
        truncated,
    })
}
