//! Braided chains: one wide branch served cold, warm and fresh.
//!
//! The braided generators force the whole residual into **one**
//! weakly-connected branch. Every instance is checked on a cold run, on
//! a cache-warm rerun of the same solver, and on a fresh solver, in
//! **both ground modes**:
//!
//! * **identical well-founded models** — also equal to the one-shot
//!   `tiebreak-core` interpreter on an independently grounded graph;
//! * **identical tie-breaking outcome sets** (pure and well-founded
//!   flavours), also equal to the core enumerator's;
//! * **identical merged [`RunStats`]** — the whole struct compares with
//!   `==` once the serving-only `branches_reused` counter is cleared;
//! * all of the above **after every incremental mutation** of a churn
//!   script (`patch_cone` splices split and re-merge the branch), with
//!   the wf model also checked against a from-scratch solver on the
//!   mutated database.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::engine::EvalOutcome;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes_with;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::core::RunStats;
use tie_breaking_datalog::prelude::*;

fn solver_for(program: &Program, db: &Database, mode: GroundMode) -> Solver {
    Solver::with_config(
        program.clone(),
        db.clone(),
        EngineConfig::default().with_ground_mode(mode),
    )
    .expect("session prepares")
}

/// `stats` with the serving-only `branches_reused` counter cleared.
fn without_reuse(stats: &RunStats) -> RunStats {
    RunStats {
        branches_reused: 0,
        ..stats.clone()
    }
}

fn decoded(outcome: &EvalOutcome) -> (Vec<String>, Vec<String>) {
    let mut t: Vec<String> = outcome
        .true_facts
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let mut u: Vec<String> = outcome
        .undefined
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    t.sort();
    u.sort();
    (t, u)
}

/// One decoded outcome: sorted true facts and sorted undefined facts.
type Outcome = (Vec<String>, Vec<String>);

fn outcome_set_of_models(
    models: &[PartialModel],
    atoms: &tie_breaking_datalog::ground::AtomTable,
) -> BTreeSet<Outcome> {
    models
        .iter()
        .map(|m| {
            let mut t: Vec<String> = m
                .true_atoms(atoms)
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            t.sort();
            let mut u: Vec<String> = m
                .undefined_atoms()
                .map(|id| atoms.decode(id).to_string())
                .collect();
            u.sort();
            (t, u)
        })
        .collect()
}

/// The cold/warm/fresh check: wf model (vs the one-shot reference),
/// outcome sets (vs the core enumerator), stats.
fn assert_threads_agree(program: &Program, db: &Database, mode: GroundMode) {
    let ref_graph = ground(program, db, &GroundConfig::default()).expect("reference grounds");
    let reference = well_founded(&ref_graph, program, db).expect("reference runs");
    let mut ref_true: Vec<String> = reference
        .model
        .true_atoms(ref_graph.atoms())
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    ref_true.sort();

    // Cold and cache-warm on one solver, then a fresh solver.
    let warm = solver_for(program, db, mode);
    let fresh = solver_for(program, db, mode);
    let mut runs: Vec<(EvalOutcome, BTreeSet<Outcome>, BTreeSet<Outcome>)> = Vec::new();
    for solver in [&warm, &warm, &fresh] {
        let wf = solver.well_founded().expect("wf runs");
        let sets: Vec<BTreeSet<Outcome>> = [false, true]
            .iter()
            .map(|&pure| {
                let set = solver.all_outcomes(pure, 4096).expect("enumerates");
                assert!(!set.truncated, "braid instances are small");
                outcome_set_of_models(&set.models, solver.graph().atoms())
            })
            .collect();
        runs.push((wf, sets[0].clone(), sets[1].clone()));
    }

    let (first_wf, first_tb, first_pure) = &runs[0];
    let first_decoded = decoded(first_wf);
    assert_eq!(first_decoded.0, ref_true, "session wf ≠ reference wf");
    assert_eq!(
        runs[1].0.stats.branches_reused,
        warm.branch_count(),
        "the warm rerun replays every branch"
    );
    for (wf, tb, pure) in &runs[1..] {
        assert_eq!(decoded(wf), first_decoded, "wf model differs");
        assert_eq!(wf.total, first_wf.total);
        assert_eq!(without_reuse(&wf.stats), first_wf.stats, "wf stats differ");
        assert_eq!(tb, first_tb, "tb outcome set differs");
        assert_eq!(pure, first_pure, "pure outcome set differs");
    }

    let solver = &fresh;
    for (pure, session_set) in [(false, first_tb), (true, first_pure)] {
        let core = all_outcomes_with(
            solver.graph(),
            program,
            db,
            pure,
            4096,
            &EvalOptions::with_mode(EvalMode::Stratified),
        )
        .expect("core enumerates");
        assert!(!core.truncated);
        let core_set = outcome_set_of_models(&core.models, solver.graph().atoms());
        assert_eq!(&core_set, session_set, "session ≠ core outcome set");
    }
}

/// The hub weakly connects every chain into one branch.
#[test]
fn braided_tie_chain_is_one_wide_branch() {
    let program = generators::win_move_program();
    let db = generators::braided_tie_chain_db(4, 3);
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let solver = solver_for(&program, &db, mode);
        assert_eq!(solver.branch_count(), 1, "hub must weakly connect all");
        assert_threads_agree(&program, &db, mode);
    }
}

/// The policy-free hot path over real per-component work: every pocket
/// runs an unfounded cascade, and the wf model is total (all false).
#[test]
fn braided_unfounded_chain_is_schedule_invariant() {
    let program = generators::braided_unfounded_chain_program(3, 2, 4);
    let db = Database::new();
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        // Cold and cache-warm on one solver, then a fresh solver.
        let warm = solver_for(&program, &db, mode);
        let fresh = solver_for(&program, &db, mode);
        let runs: Vec<EvalOutcome> = [&warm, &warm, &fresh]
            .iter()
            .map(|solver| {
                assert_eq!(solver.branch_count(), 1, "hub must weakly connect all");
                solver.well_founded().expect("wf runs")
            })
            .collect();
        for r in &runs {
            assert!(r.total, "braided unfounded chain is decided");
            assert!(r.true_facts.is_empty(), "everything is unfounded");
        }
        assert_eq!(runs[1].stats.branches_reused, 1, "the rerun replays");
        for r in &runs[1..] {
            assert_eq!(decoded(r), decoded(&runs[0]));
            assert_eq!(without_reuse(&r.stats), runs[0].stats, "wf stats differ");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random braid shapes: the full cold/warm/fresh check.
    #[test]
    fn random_braids_agree(chains in 1usize..4, pockets in 1usize..3) {
        let program = generators::win_move_program();
        let db = generators::braided_tie_chain_db(chains, pockets);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }

    /// Incremental churn: flip advance and hub edges of a braid through
    /// `patch_cone` splices (branch splits and re-merges) on two
    /// solvers, one with its branch cache filled before the first
    /// mutation. After every mutation both must agree with each other,
    /// with a cache-warm rerun, and with a from-scratch solver.
    #[test]
    fn churned_braids_agree(
        flips in proptest::collection::vec((0usize..3, 0usize..3, prop::bool::ANY), 1..5),
    ) {
        let program = generators::win_move_program();
        let chains = 3;
        let pockets = 3;
        let db = generators::braided_tie_chain_db(chains, pockets);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            let cold = solver_for(&program, &db, mode);
            let prewarmed = solver_for(&program, &db, mode);
            prewarmed.well_founded().expect("wf runs");
            let mut solvers = [cold, prewarmed];
            let mut current = db.clone();
            for &(c, i, hub_edge) in &flips {
                // Hub edges reconnect whole chains; advance edges split a
                // chain's tail off the branch. Both constants already
                // exist, so the mutation stays on the incremental path.
                let fact = if hub_edge {
                    GroundAtom::from_texts("move", &["h", &format!("t{c}a0")])
                } else {
                    GroundAtom::from_texts("move", &[&format!("t{c}a{i}"), &format!("t{c}a{}", i + 1)])
                };
                let mutation = if current.remove(&fact) {
                    Mutation::Retract(fact)
                } else {
                    current.insert(fact.clone()).expect("binary fact");
                    Mutation::Insert(fact)
                };
                let mut wf_runs: Vec<EvalOutcome> = Vec::new();
                for solver in &mut solvers {
                    solver.apply(vec![mutation.clone()]).expect("mutation applies");
                    wf_runs.push(solver.well_founded().expect("wf runs"));
                }
                wf_runs.push(solvers[0].well_founded().expect("warm wf runs"));
                for wf in &wf_runs[1..] {
                    prop_assert_eq!(decoded(wf), decoded(&wf_runs[0]));
                    prop_assert_eq!(without_reuse(&wf.stats), without_reuse(&wf_runs[0].stats));
                }
                // Outcome sets on both solvers after the splice.
                let sets: Vec<BTreeSet<Outcome>> = solvers
                    .iter()
                    .map(|s| {
                        let set = s.all_outcomes(false, 4096).expect("enumerates");
                        outcome_set_of_models(&set.models, s.graph().atoms())
                    })
                    .collect();
                for set in &sets[1..] {
                    prop_assert_eq!(set, &sets[0]);
                }
                // Ground truth: a from-scratch solver on the mutated db.
                let fresh = solver_for(&program, &current, mode)
                    .well_founded()
                    .expect("fresh wf runs");
                prop_assert_eq!(decoded(&wf_runs[0]), decoded(&fresh));
            }
        }
    }
}
