//! Differential suite for the factorised outcome enumerator.
//!
//! [`Solver::all_outcomes`] enumerates the outcome set as a product over
//! independent branches; the core per-script enumerator
//! (`tiebreak_core::semantics::outcomes::all_outcomes_with`) stays the
//! oracle. Generated win–move instances mix the branch shapes the
//! product has to get right: independent draw pockets, odd cycles,
//! chains that join several ties into one branch (later ties exist only
//! under some earlier choices), tie-free decided chains, and guarded
//! positive cycles (where pure and well-founded tie-breaking differ).

use std::collections::BTreeSet;

use datalog_ast::{parse_database, parse_program, GroundAtom};
use datalog_ground::{AtomTable, PartialModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tiebreak_core::semantics::outcomes::{all_outcomes_with, OutcomeSet};
use tiebreak_core::{EvalMode, EvalOptions, Mutation};
use tiebreak_runtime::Solver;

const PROGRAM: &str = "win(X) :- move(X, Y), not win(Y).\n\
                       keep(X) :- keep(X), guard(X), not drop(X).\n\
                       drop(X) :- drop(X), guard(X), not keep(X).";

/// One generated database, as source text.
fn instance(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = String::new();
    let mut edge = |x: String, y: String| db.push_str(&format!("move({x}, {y}).\n"));
    for i in 0..rng.gen_range(0..4) {
        edge(format!("p{i}a"), format!("p{i}b"));
        edge(format!("p{i}b"), format!("p{i}a"));
        if rng.gen_bool(0.3) {
            // A decided lead-in hanging off the pocket: same branch.
            edge(format!("l{i}"), format!("p{i}a"));
        }
    }
    for i in 0..rng.gen_range(0..3) {
        for k in 0..3 {
            edge(format!("o{i}n{k}"), format!("o{i}n{}", (k + 1) % 3));
        }
        if rng.gen_bool(0.5) {
            // The odd cycle feeds a pocket of its own: one branch with a
            // stuck residue and a tie.
            edge(format!("o{i}n0"), format!("o{i}t"));
            edge(format!("o{i}t"), format!("o{i}u"));
            edge(format!("o{i}u"), format!("o{i}t"));
        }
    }
    for j in 0..rng.gen_range(0..2) {
        let len = rng.gen_range(2..4);
        for k in 0..len {
            edge(format!("c{j}x{k}"), format!("c{j}y{k}"));
            edge(format!("c{j}y{k}"), format!("c{j}x{k}"));
            if k + 1 < len {
                edge(format!("c{j}x{k}"), format!("c{j}x{}", k + 1));
            }
        }
    }
    for i in 0..rng.gen_range(0..3) {
        for k in 0..rng.gen_range(1..4) {
            edge(format!("d{i}n{k}"), format!("d{i}n{}", k + 1));
        }
    }
    for i in 0..rng.gen_range(0..3) {
        db.push_str(&format!("guard(g{i}).\n"));
    }
    db
}

fn solver(db: &str) -> Solver {
    Solver::new(parse_program(PROGRAM).unwrap(), parse_database(db).unwrap()).unwrap()
}

/// An outcome decoded to text, independent of atom numbering: sorted
/// true facts and sorted undefined facts.
type Decoded = (Vec<String>, Vec<String>);

fn decode(models: &[PartialModel], atoms: &AtomTable) -> BTreeSet<Decoded> {
    let text = |ids: Vec<datalog_ground::AtomId>| {
        let mut v: Vec<String> = ids
            .into_iter()
            .map(|a| atoms.decode(a).to_string())
            .collect();
        v.sort();
        v
    };
    models
        .iter()
        .map(|m| {
            let trues = m
                .defined()
                .filter(|&(_, v)| v == datalog_ground::TruthValue::True)
                .map(|(a, _)| a)
                .collect();
            (text(trues), text(m.undefined_atoms().collect()))
        })
        .collect()
}

fn same_set(a: &OutcomeSet, b: &OutcomeSet) -> bool {
    a.models == b.models && a.runs == b.runs && a.truncated == b.truncated
}

#[test]
fn factorised_enumeration_matches_the_core_enumerator() {
    let mut multi_branch = 0;
    for seed in 0..40 {
        let db = instance(seed);
        let solver = solver(&db);
        multi_branch += usize::from(solver.branch_count() > 1);
        for pure in [false, true] {
            let core = all_outcomes_with(
                solver.graph(),
                solver.program(),
                solver.database(),
                pure,
                100_000,
                &EvalOptions::with_mode(EvalMode::Stratified),
            )
            .unwrap();
            let session = solver.all_outcomes(pure, 100_000).unwrap();
            assert!(!core.truncated && !session.truncated, "seed {seed}");
            assert_eq!(session.runs, core.runs, "seed {seed} pure={pure}\n{db}");
            let atoms = solver.graph().atoms();
            assert_eq!(
                decode(&session.models, atoms),
                decode(&core.models, atoms),
                "seed {seed} pure={pure}\n{db}"
            );
            assert_eq!(
                decode(&session.models, atoms).len(),
                session.models.len(),
                "session models are distinct"
            );
        }
    }
    assert!(multi_branch >= 20, "generator yields multi-branch programs");
}

#[test]
fn outcome_sets_are_identical_across_thread_counts() {
    for seed in 0..20 {
        let db = instance(seed);
        for pure in [false, true] {
            for max_runs in [5, 100_000] {
                // Cold, then cache-warm on the same solver, then a fresh
                // solver.
                let warm = solver(&db);
                let cold = warm.all_outcomes(pure, max_runs).unwrap();
                warm.well_founded().unwrap();
                let sets = [
                    cold,
                    warm.all_outcomes(pure, max_runs).unwrap(),
                    solver(&db).all_outcomes(pure, max_runs).unwrap(),
                ];
                for set in &sets[1..] {
                    assert!(same_set(set, &sets[0]), "seed {seed} pure={pure}");
                }
            }
        }
    }
}

#[test]
fn outcomes_after_mutations_match_a_fresh_solver() {
    for seed in 0..12 {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let mut s = solver(&instance(seed));
        for _ in 0..4 {
            let node = |rng: &mut SmallRng| {
                format!(
                    "p{}{}",
                    rng.gen_range(0..3),
                    ["a", "b"][rng.gen_range(0..2usize)]
                )
            };
            let fact = GroundAtom::from_texts("move", &[&node(&mut rng), &node(&mut rng)]);
            let mutation = if rng.gen_bool(0.5) {
                Mutation::Insert(fact)
            } else {
                Mutation::Retract(fact)
            };
            s.apply(vec![mutation]).unwrap();
            let fresh = Solver::with_config(s.program().clone(), s.database().clone(), *s.config())
                .unwrap();
            for pure in [false, true] {
                let a = s.all_outcomes(pure, 100_000).unwrap();
                let b = fresh.all_outcomes(pure, 100_000).unwrap();
                assert_eq!(a.runs, b.runs, "seed {seed} pure={pure}");
                assert_eq!(
                    decode(&a.models, s.graph().atoms()),
                    decode(&b.models, fresh.graph().atoms()),
                    "seed {seed} pure={pure}"
                );
            }
        }
    }
}

#[test]
fn a_huge_product_truncates_to_the_budget_at_once() {
    // 70 independent pockets: 2^70 scripts, which overflows `usize`.
    let db: String = (0..70)
        .map(|i| format!("move(a{i}, b{i}). move(b{i}, a{i}).\n"))
        .collect();
    let solver = solver(&db);
    assert_eq!(solver.branch_count(), 70);
    let set = solver.all_outcomes(false, 16).unwrap();
    assert!(set.truncated);
    assert_eq!(set.runs, 16);
    assert_eq!(set.models.len(), 16);
    assert_eq!(decode(&set.models, solver.graph().atoms()).len(), 16);
    assert!(set.models.iter().all(PartialModel::is_total));
}

#[test]
fn truncation_lists_the_first_combinations_in_product_order() {
    // Three pockets, budget 3: the last branch varies fastest, so the
    // cut keeps branch 0 and 1 at their first outcome.
    let solver = solver("move(a, b). move(b, a). move(c, d). move(d, c). move(e, f). move(f, e).");
    let full = solver.all_outcomes(false, 100).unwrap();
    assert_eq!(
        (full.runs, full.models.len(), full.truncated),
        (8, 8, false)
    );
    let cut = solver.all_outcomes(false, 3).unwrap();
    assert_eq!((cut.runs, cut.truncated), (3, true));
    assert_eq!(cut.models[..], full.models[..3]);
    let none = solver.all_outcomes(false, 0).unwrap();
    assert_eq!((none.runs, none.models.len(), none.truncated), (0, 0, true));
}
