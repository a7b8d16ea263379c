//! The interpreters and model-theoretic checkers.

pub mod alternating;
pub mod enumerate;
pub mod fixpoint;
pub mod outcomes;
pub mod perfect;
pub mod reduct;
pub mod scc_stratified;
pub mod seminaive;
pub mod stable;
pub mod stratified;
pub mod tie_breaking;
pub mod well_founded;

use std::fmt;

use datalog_ast::{GroundAtom, Symbol};
use datalog_ground::{AtomId, CloseConflict, GroundError, PartialModel};

pub use scc_stratified::{
    process_components, pure_tie_breaking_stratified, well_founded_stratified,
    well_founded_tie_breaking_stratified, ComponentPass,
};
pub use tie_breaking::{
    pure_tie_breaking, pure_tie_breaking_with, well_founded_tie_breaking,
    well_founded_tie_breaking_with, RandomPolicy, RootFalsePolicy, RootTruePolicy, ScriptedPolicy,
    TiePolicy, TieView,
};
pub use well_founded::{well_founded, well_founded_with};

/// Sorts facts by predicate text, then argument text. Symbols compare
/// by interner id, which depends on what the process interned earlier,
/// so every printed fact list sorts through this text order instead.
pub(crate) fn sort_by_text(facts: &mut [GroundAtom]) {
    fn symbols(f: &GroundAtom) -> impl Iterator<Item = Symbol> + '_ {
        std::iter::once(f.pred.symbol()).chain(f.args.iter().map(|c| c.symbol()))
    }
    let slot = |s: Symbol| s.index() as usize;
    // Rank each symbol in use by its text, once; facts then compare as
    // rank sequences. The table is indexed by interner index, so it
    // holds at most one `u32` per interned symbol (0 = not in use).
    let len = facts
        .iter()
        .flat_map(symbols)
        .map(slot)
        .max()
        .map_or(0, |m| m + 1);
    let mut rank = vec![0u32; len];
    let mut by_text: Vec<(&str, usize)> = Vec::new();
    for s in facts.iter().flat_map(symbols) {
        if rank[slot(s)] == 0 {
            rank[slot(s)] = 1;
            by_text.push((s.as_str(), slot(s)));
        }
    }
    by_text.sort_unstable();
    for (r, (_, i)) in (1..).zip(by_text) {
        rank[i] = r;
    }
    facts.sort_unstable_by(|a, b| {
        let ranks = |f| symbols(f).map(|s| rank[slot(s)]);
        ranks(a).cmp(ranks(b))
    });
}

/// How an interpreter traverses the residual graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// The paper-literal loop: every unfounded-set and tie query scans
    /// (and clones) the whole remaining graph.
    #[default]
    Global,
    /// SCC-stratified evaluation: condense the residual graph once and
    /// process components in topological order with component-local
    /// unfounded sets and tie breaks. Same models and outcome sets as
    /// [`EvalMode::Global`] (see the differential suites), but linear
    /// instead of quadratic on alternation-heavy instances.
    Stratified,
}

/// Per-run evaluation knobs shared by the interpreters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Traversal strategy (default [`EvalMode::Global`]).
    pub mode: EvalMode,
    /// Record per-event details in [`RunStats`] (`tie_log`,
    /// `component_rounds`). Off by default: large enumerations would
    /// otherwise grow the logs without bound; the scalar counters
    /// (`ties_broken`, `components_processed`, …) are always kept.
    pub detailed_stats: bool,
    /// The program carries a stratification-grade totality certificate
    /// (see the `datalog-analyze` crate): the well-founded model is total
    /// and unique, so no tie can ever fire. When set, the wf-tb
    /// interpreters skip the tie-policy machinery entirely and run the
    /// plain well-founded path — bit-identical results, none of the
    /// tie-bookkeeping cost. Certificates are the analyzer's to issue;
    /// setting this on an uncertified program degrades wf-tb back to
    /// plain wf (ties would surface as a partial model, not be broken).
    pub certified_total: bool,
}

impl EvalOptions {
    /// Options selecting `mode` with default details.
    pub fn with_mode(mode: EvalMode) -> Self {
        EvalOptions {
            mode,
            ..EvalOptions::default()
        }
    }
}

/// Statistics collected by an interpreter run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of `close` fixpoint rounds (external-assignment batches).
    pub close_rounds: usize,
    /// Number of nonempty unfounded sets falsified.
    pub unfounded_rounds: usize,
    /// Number of ties broken.
    pub ties_broken: usize,
    /// Residual components visited ([`EvalMode::Stratified`] only; 0 for
    /// global runs).
    pub components_processed: usize,
    /// Largest number of unfounded/tie rounds any single component needed
    /// ([`EvalMode::Stratified`] only).
    pub max_component_rounds: usize,
    /// Per-component round counts in processing order. Recorded only when
    /// [`EvalOptions::detailed_stats`] is set.
    pub component_rounds: Vec<usize>,
    /// Per broken tie: `(|K|, |L|, root_side_true)` where K is the side
    /// containing the spanning-tree root. Recorded only when
    /// [`EvalOptions::detailed_stats`] is set; `ties_broken` always
    /// carries the count.
    pub tie_log: Vec<(usize, usize, bool)>,
    /// Branches served from the session solver's per-branch well-founded
    /// cache instead of being re-evaluated (incremental sessions only;
    /// always 0 on the one-shot paths). The cached branches' own
    /// counters are still merged in, so every *other* field is identical
    /// whether a branch was recomputed or replayed — this field is the
    /// one serving-dependent statistic.
    pub branches_reused: usize,
}

impl RunStats {
    /// Records one broken tie (the log entry only when `detailed`).
    pub(crate) fn record_tie(&mut self, k: usize, l: usize, root_true: bool, detailed: bool) {
        if detailed {
            self.tie_log.push((k, l, root_true));
        }
        self.ties_broken += 1;
    }

    /// Records one finished component (the round entry only when
    /// `detailed`).
    pub(crate) fn record_component(&mut self, rounds: usize, detailed: bool) {
        self.components_processed += 1;
        self.max_component_rounds = self.max_component_rounds.max(rounds);
        if detailed {
            self.component_rounds.push(rounds);
        }
    }

    /// Merges the stats of another (partial) run into `self`: counters
    /// add, `max_component_rounds` maxes, detailed logs append.
    ///
    /// This is how the session runtime aggregates per-branch partials:
    /// each branch accumulates into a private `RunStats` (which the
    /// branch cache keeps for replay) and the scheduler merges the
    /// partials **in branch order**, so the aggregate — including the
    /// `tie_log` / `component_rounds` sequences — is the same whether a
    /// branch ran or replayed.
    pub fn merge(&mut self, other: &RunStats) {
        self.close_rounds += other.close_rounds;
        self.unfounded_rounds += other.unfounded_rounds;
        self.ties_broken += other.ties_broken;
        self.components_processed += other.components_processed;
        self.max_component_rounds = self.max_component_rounds.max(other.max_component_rounds);
        self.component_rounds
            .extend_from_slice(&other.component_rounds);
        self.tie_log.extend_from_slice(&other.tie_log);
        self.branches_reused += other.branches_reused;
    }
}

/// The outcome of an interpreter.
#[derive(Clone, Debug)]
pub struct InterpreterRun {
    /// The computed (possibly partial) model.
    pub model: PartialModel,
    /// `true` iff the model is total (every ground atom valued).
    pub total: bool,
    /// Run statistics.
    pub stats: RunStats,
}

impl InterpreterRun {
    /// The atoms left undefined (empty iff total).
    pub fn residue(&self) -> Vec<AtomId> {
        self.model.undefined_atoms().collect()
    }
}

/// Errors from the high-level evaluation paths.
#[derive(Clone, Debug)]
pub enum SemanticsError {
    /// Grounding failed (budget or signature).
    Ground(GroundError),
    /// Propagation derived a contradiction — indicates misuse of the
    /// low-level API (the paper's algorithms never conflict).
    Conflict(CloseConflict),
    /// The requested semantics does not apply to this program (e.g.
    /// stratified evaluation of an unstratifiable program).
    NotApplicable(String),
    /// Static analysis rejected the program before evaluation (error-level
    /// lints under [`crate::engine::EngineConfig`] analysis / server
    /// strict mode). The message lists the offending lints.
    Rejected(String),
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::Ground(e) => e.fmt(f),
            SemanticsError::Conflict(e) => e.fmt(f),
            SemanticsError::NotApplicable(msg) => write!(f, "semantics not applicable: {msg}"),
            SemanticsError::Rejected(msg) => write!(f, "program rejected by analysis: {msg}"),
        }
    }
}

impl std::error::Error for SemanticsError {}

impl From<GroundError> for SemanticsError {
    fn from(e: GroundError) -> Self {
        SemanticsError::Ground(e)
    }
}

impl From<CloseConflict> for SemanticsError {
    fn from(e: CloseConflict) -> Self {
        SemanticsError::Conflict(e)
    }
}
