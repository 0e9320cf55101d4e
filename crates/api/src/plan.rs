//! Execution-plan vocabulary: [`PlanMode`] and [`PlanSpec`].
//!
//! These live in the API crate because a [`crate::SummaryRequest`]
//! carries its plan over the wire and the daemon must speak the same
//! vocabulary as the batch runner. This module is pure data: the
//! longest-job-first ordering over the cost book lives in
//! `strsum-corpus::plan`.

/// Which planning policy a run uses (the `--plan` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Every loop serial — the default.
    Serial,
    /// Every loop cube-and-conquer with a fixed `k`, on explicit request.
    Cubed(usize),
}

impl PlanMode {
    /// Stable label for reports and the `--plan` flag.
    pub fn label(self) -> &'static str {
        match self {
            PlanMode::Serial => "serial",
            PlanMode::Cubed(_) => "cubed",
        }
    }
}

/// The planning policy of one run: a [`PlanMode`] plus whether dispatch
/// is cost-ordered (longest-job-first from the book) or corpus-ordered.
///
/// Replaces the runner's old `intra_loop`/`cost_schedule` knob pair —
/// the four historical combinations all have a spelling here:
///
/// | old                                  | new                                |
/// |--------------------------------------|------------------------------------|
/// | `intra_loop(1).cost_schedule(true)`  | `PlanSpec::serial()` (the default) |
/// | `intra_loop(1).cost_schedule(false)` | `PlanSpec::serial().corpus_order()`|
/// | `intra_loop(k).cost_schedule(true)`  | `PlanSpec::cubed(k)`               |
/// | `intra_loop(k).cost_schedule(false)` | `PlanSpec::cubed(k).corpus_order()`|
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// The planning policy.
    pub mode: PlanMode,
    /// Longest-job-first dispatch from the cost book (the default).
    /// Disable for runs that must not read `results/costs.tsv`.
    pub cost_order: bool,
}

impl Default for PlanSpec {
    /// Serial, cost-ordered — byte-identical to the historical runner
    /// default (`intra_loop` 1, `cost_schedule` on).
    fn default() -> PlanSpec {
        PlanSpec::serial()
    }
}

impl PlanSpec {
    /// Every loop serial, cost-ordered dispatch.
    pub fn serial() -> PlanSpec {
        PlanSpec {
            mode: PlanMode::Serial,
            cost_order: true,
        }
    }

    /// Every loop cubed with `k` cubes (clamped to ≥ 2), cost-ordered.
    pub fn cubed(k: usize) -> PlanSpec {
        PlanSpec {
            mode: PlanMode::Cubed(k.max(2)),
            cost_order: true,
        }
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

    /// Parses a `--plan` value; `None` for an unrecognised mode. `k` is
    /// the cube count `cubed` uses (`--cubes`). `adaptive`, the retired
    /// cost-model mode, parses as serial, so v1 frames that name it
    /// still decode.
    pub fn parse(mode: &str, k: usize) -> Option<PlanSpec> {
        match mode {
            "serial" | "adaptive" => Some(PlanSpec::serial()),
            "cubed" => Some(PlanSpec::cubed(k)),
            _ => None,
        }
    }

    /// The cube count a cubed plan carries (`--cubes` on the wire; 0 for
    /// serial).
    pub fn cubes(self) -> usize {
        match self.mode {
            PlanMode::Cubed(k) => k,
            PlanMode::Serial => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_labels_round_trip() {
        for spec in [PlanSpec::serial(), PlanSpec::cubed(4)] {
            assert_eq!(
                PlanSpec::parse(spec.mode.label(), spec.cubes().max(2)),
                Some(spec)
            );
        }
        assert_eq!(PlanSpec::parse("paln", 4), None);
        // The retired adaptive mode is a spelling of serial.
        assert_eq!(PlanSpec::parse("adaptive", 4), Some(PlanSpec::serial()));
        // Portfolio racing left the vocabulary: it is an unknown mode now.
        assert_eq!(PlanSpec::parse("portfolio", 4), None);
        assert_eq!(PlanSpec::cubed(0), PlanSpec::cubed(2), "k clamps to 2");
    }
}
