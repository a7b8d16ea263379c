//! Per-branch tie-policy creation.
//!
//! A session creates one tie policy **per condensation branch** through
//! a [`PolicyFactory`], keyed by the branch id, instead of threading a
//! single `&mut TiePolicy` through the run the way the sequential
//! interpreters do. A branch's tie choices therefore never depend on
//! the branches evaluated before it. Because branch ids and the
//! in-branch tie order are fixed by the prepared state (the kernel
//! walks each branch's components in topological order), any factory
//! whose output depends only on the branch id makes the whole
//! evaluation deterministic.

use tiebreak_core::TiePolicy;

/// Creates the tie policy for each condensation branch.
pub trait PolicyFactory {
    /// The policy type handed to the evaluation kernel.
    type Policy: TiePolicy;

    /// The policy for branch `branch` (ids are dense, `0..branch_count`,
    /// assigned in topological discovery order — stable for a given
    /// prepared state).
    fn policy_for(&self, branch: u32) -> Self::Policy;
}

/// Lifts one cloneable policy to every branch.
///
/// The clone is taken per branch, so stateful policies such as
/// `RandomPolicy` restart identically on every branch — which keeps a
/// branch's result independent of the branches before it.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformPolicy<P>(pub P);

impl<P: TiePolicy + Clone> PolicyFactory for UniformPolicy<P> {
    type Policy = P;

    fn policy_for(&self, _branch: u32) -> P {
        self.0.clone()
    }
}

/// Convenience constructor for [`UniformPolicy`].
pub fn uniform<P: TiePolicy + Clone>(policy: P) -> UniformPolicy<P> {
    UniformPolicy(policy)
}
