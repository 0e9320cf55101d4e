//! Execution-plan vocabulary: [`PlanSpec`].
//!
//! Only the batch runner reads a plan. The wire still accepts the `plan`
//! object v1 requests carry, checks its mode with [`PlanSpec::parse`],
//! and drops it: the daemon queues syntheses in admission order and
//! reads no cost book. This module is pure data: the
//! longest-job-first ordering over the cost book lives in
//! `strsum-corpus::plan`, and the batch runner is its only user.

/// The planning policy of one run: whether dispatch is cost-ordered
/// (longest-job-first from the book) or corpus-ordered. Every synthesis
/// runs the one serial candidate search, so a plan is only a dispatch
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Longest-job-first dispatch from the cost book (the default).
    /// Disable for runs that must not read `results/costs.tsv`.
    pub cost_order: bool,
}

impl Default for PlanSpec {
    /// Cost-ordered — the historical runner default.
    fn default() -> PlanSpec {
        PlanSpec::serial()
    }
}

impl PlanSpec {
    /// Cost-ordered dispatch.
    pub fn serial() -> PlanSpec {
        PlanSpec { cost_order: true }
    }

    /// An alias for [`PlanSpec::serial`], kept only because the
    /// `profile` benchmark calls it.
    pub fn adaptive() -> PlanSpec {
        PlanSpec::serial()
    }

    /// Dispatch in corpus order instead of longest-job-first; the run
    /// neither reads nor needs `results/costs.tsv` for ordering.
    pub fn corpus_order(mut self) -> PlanSpec {
        self.cost_order = false;
        self
    }

    /// Parses a wire `plan.mode`; `None` for an unrecognised mode. The
    /// retired modes `adaptive` (cost-model tiering) and `cubed`
    /// (cube-and-conquer search) parse as serial, so v1 frames that name
    /// them still decode.
    pub fn parse(mode: &str) -> Option<PlanSpec> {
        match mode {
            "serial" | "adaptive" | "cubed" => Some(PlanSpec::serial()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_mode_parses_as_serial() {
        for mode in ["serial", "adaptive", "cubed"] {
            assert_eq!(PlanSpec::parse(mode), Some(PlanSpec::serial()), "{mode}");
        }
        assert_eq!(PlanSpec::parse("paln"), None);
        // Portfolio racing left the vocabulary: it is an unknown mode now.
        assert_eq!(PlanSpec::parse("portfolio"), None);
    }
}
