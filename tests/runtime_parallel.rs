//! Determinism suite: the session runtime across the ways it serves.
//!
//! For every instance of the random program sweep (the same generators
//! as `tests/eval_modes.rs`) and for **both ground modes**, the runtime
//! [`Solver`] must produce the same results on a cold run, on a
//! cache-warm rerun of the same solver (untouched branches replay from
//! the branch cache), and on a fresh solver:
//!
//! * **identical well-founded models** — bit-identical decoded fact
//!   lists, which must also equal the one-shot `tiebreak-core`
//!   interpreter's model on the same ground graph;
//! * **identical tie-breaking outcome *sets*** — the session's
//!   copy-on-write enumeration agrees with the core enumerator, for both
//!   the pure and well-founded flavours;
//! * **identical [`RunStats`] counters** — `components_processed`,
//!   `max_component_rounds`, `ties_broken`, `unfounded_rounds`,
//!   `close_rounds` merge deterministically from per-branch partials in
//!   branch order, so the whole struct is compared with `==` (after
//!   clearing `branches_reused`, the one counter that records a cache
//!   replay).

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::ast::{Atom, Literal, Rule, Sign, Term};
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::engine::EvalOutcome;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes_with;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::core::RunStats;
use tie_breaking_datalog::prelude::*;

/// A random propositional program over `preds` proposition names (the
/// `tests/eval_modes.rs` generator).
fn arb_program(preds: usize, max_rules: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        (
            0..preds,
            proptest::collection::vec((0..preds, prop::bool::ANY), 0..3),
        ),
        1..=max_rules,
    )
    .prop_map(move |rules| {
        let name = |i: usize| format!("p{i}");
        let rules: Vec<Rule> = rules
            .into_iter()
            .map(|(head, body)| {
                Rule::new(
                    Atom::new(name(head).as_str(), std::iter::empty::<Term>()),
                    body.into_iter().map(|(p, neg)| Literal {
                        sign: if neg { Sign::Neg } else { Sign::Pos },
                        atom: Atom::new(name(p).as_str(), std::iter::empty::<Term>()),
                    }),
                )
            })
            .collect();
        Program::new(rules).expect("propositional programs are arity-consistent")
    })
}

fn db_from_mask(program: &Program, mask: u32) -> Database {
    let mut db = Database::new();
    for (i, &pred) in program.predicates().iter().enumerate() {
        if mask & (1 << (i % 32)) != 0 {
            db.insert(GroundAtom::new(pred, std::iter::empty()))
                .expect("facts");
        }
    }
    db
}

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

/// The full cold/warm/fresh check for one instance in one ground mode.
fn assert_threads_agree(program: &Program, db: &Database, mode: GroundMode) {
    // The one-shot reference interpreter on an independently grounded
    // graph (paper-literal Full mode so the reference is mode-agnostic).
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
    let mut wf_runs: Vec<(EvalOutcome, BTreeSet<Outcome>, BTreeSet<Outcome>)> = Vec::new();
    for solver in [&warm, &warm, &fresh] {
        let wf = solver.well_founded().expect("wf runs");
        let sets: Vec<BTreeSet<Outcome>> = [false, true]
            .iter()
            .map(|&pure| {
                let set = solver.all_outcomes(pure, 4096).expect("enumerates");
                assert!(!set.truncated, "sweep instances are small");
                outcome_set_of_models(&set.models, solver.graph().atoms())
            })
            .collect();
        wf_runs.push((wf, sets[0].clone(), sets[1].clone()));
    }

    // Identical wf models cold, warm and fresh, and vs the reference.
    let (first_wf, first_tb_set, first_pure_set) = &wf_runs[0];
    let first_decoded = decoded(first_wf);
    assert_eq!(first_decoded.0, ref_true, "session wf ≠ reference wf");
    assert_eq!(first_wf.total, reference.total);
    assert_eq!(first_wf.stats.branches_reused, 0, "cold cache");
    assert_eq!(
        wf_runs[1].0.stats.branches_reused,
        warm.branch_count(),
        "the warm rerun replays every branch"
    );
    for (wf, tb_set, pure_set) in &wf_runs[1..] {
        assert_eq!(decoded(wf), first_decoded, "wf model differs");
        assert_eq!(wf.total, first_wf.total);
        assert_eq!(without_reuse(&wf.stats), first_wf.stats, "wf stats differ");
        assert_eq!(tb_set, first_tb_set, "tb outcome set differs");
        assert_eq!(pure_set, first_pure_set, "pure outcome set differs");
    }

    // Outcome sets also agree with the core enumerator over the same
    // prepared graph (the solver's own graph, so atom spaces coincide).
    let solver = &fresh;
    for (pure, session_set) in [(false, first_tb_set), (true, first_pure_set)] {
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

    // Tie-breaking single runs: stats identical cold, warm and fresh.
    let tb_runs: Vec<EvalOutcome> = [&warm, &warm, &solver_for(program, db, mode)]
        .iter()
        .map(|solver| {
            solver
                .well_founded_tie_breaking(&uniform(RootTruePolicy))
                .expect("tb runs")
        })
        .collect();
    for tb in &tb_runs[1..] {
        assert_eq!(decoded(tb), decoded(&tb_runs[0]));
        assert_eq!(tb.stats, tb_runs[0].stats, "tb stats differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random propositional programs — arbitrary mixtures of positive
    /// loops, negation cycles, and stuck odd components — over random
    /// fact masks, both ground modes.
    #[test]
    fn propositional_threads_agree(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        let db = db_from_mask(&program, mask);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }

    /// Random first-order call-consistent programs over random databases
    /// (every residual component is a tie: the branch-heavy regime).
    #[test]
    fn first_order_call_consistent_threads_agree(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }
}

/// The deterministic wide-forest instance: many independent branches,
/// evaluated cold, after a well-founded pass filled the branch cache,
/// and on a fresh solver.
#[test]
fn wide_forest_is_schedule_invariant() {
    let program = generators::win_move_program();
    let db = generators::wide_tie_forest_db(12, 4);
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let warm = solver_for(&program, &db, mode);
        let tb = |solver: &Solver| {
            solver
                .well_founded_tie_breaking(&uniform(RootTruePolicy))
                .expect("runs")
        };
        let cold = tb(&warm);
        warm.well_founded().expect("wf runs");
        let runs = [cold, tb(&warm), tb(&solver_for(&program, &db, mode))];
        for r in &runs {
            assert!(r.total);
            // At least the source pocket of every chain needs an actual
            // tie break (downstream pockets may resolve by propagation).
            assert!(r.stats.ties_broken >= 12);
        }
        for r in &runs[1..] {
            assert_eq!(decoded(r), decoded(&runs[0]));
            assert_eq!(r.stats, runs[0].stats);
        }
    }
}

/// Alternation-heavy chains (ties + unfounded rounds) stay exact through
/// the session path in both ground modes.
#[test]
fn chained_instances_agree_with_reference() {
    let tie_chain_db: String = {
        let mut s = String::new();
        for i in 0..10 {
            s.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
        }
        for i in 0..9 {
            s.push_str(&format!("move(a{i}, a{}).\n", i + 1));
        }
        s
    };
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database(&tie_chain_db).unwrap();
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        assert_threads_agree(&program, &db, mode);
    }
}
