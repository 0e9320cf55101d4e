//! The adaptive execution planner: per-loop strategy selection.
//!
//! BENCH_pr4 measured intra-loop cube-and-conquer as a net *slowdown*
//! (0.79× makespan): trivial loops pay the full cube setup for
//! microsecond jobs, while the handful of genuinely expensive loops are
//! exactly where cubes pay off. The fix is to stop choosing one strategy
//! for the whole corpus. [`ExecutionPlanner`] consults the persisted
//! [`CostBook`] — and, for loops with no record, a [`VecGp`] regression
//! over cheap structural features — and assigns each loop one of two
//! strategies:
//!
//! - [`Strategy::Serial`] — cheap (or unknown-cheap) loops skip all cube
//!   setup. On a host with no spare cores this is every loop: cubes can
//!   only steal time from sibling workers there.
//! - [`Strategy::Cubed`] — predicted-expensive loops split each search
//!   query into `k` cubes, with `k` scaled to the predicted cost and
//!   clamped to the spare core budget.
//!
//! The planner only ever changes *wall clock*: every strategy produces
//! byte-identical summaries (cubes by the deterministic-merge theorem in
//! [`strsum_core::cubes`]). Decisions are pure functions of the spec, the
//! book, the feature vectors and the core/thread counts — no randomness,
//! no clock reads — so a plan is reproducible for a given book.
//!
//! This module decides; executors elsewhere act on the decision. It
//! lives in `strsum-corpus` next to the [`CostBook`] it reads so that
//! *both* executors — the batch `CorpusRunner` and the `strsum-server`
//! daemon's cross-request scheduler — share one set of cutoffs, one
//! feature schema, and one fitted-model implementation. A cost the daemon
//! records teaches the batch planner and vice versa, because there is
//! exactly one vocabulary for "predicted expensive".

use crate::costs::{CostBook, RecordedStrategy};
use strsum_gp::{VecGp, VecKernel};
use strsum_obs::{names, ToJson};

/// Number of structural features in a [`LoopFeatures`] vector.
pub const FEATURE_DIM: usize = 4;

/// Cheap structural features of one loop, used by the planner's GP
/// regression to predict solver cost for loops with no [`CostBook`] row.
///
/// Schema (all `ln(1 + x)`-compressed, so the RBF kernel sees decades
/// rather than raw magnitudes):
/// 1. IR instruction count — overall loop size.
/// 2. IR basic-block count — branching structure.
/// 3. Loop alphabet size ([`strsum_core::loop_alphabet`]) — the constants
///    the search must distinguish; beyond-vocabulary loops have big
///    alphabets and burn whole conflict budgets.
/// 4. Source length in bytes — a frontend-independent size proxy.
pub type LoopFeatures = [f64; FEATURE_DIM];

/// Extracts the planner's feature vector from a compiled loop. Pure and
/// solver-free: concrete IR inspection only, so it can run in the same
/// cheap pass that fingerprints the corpus.
pub fn loop_features(func: &strsum_ir::Func, source: &str) -> LoopFeatures {
    let ln1p = |x: usize| (1.0 + x as f64).ln();
    [
        ln1p(func.instrs.len()),
        ln1p(func.blocks.len()),
        ln1p(strsum_core::loop_alphabet(func).len()),
        ln1p(source.len()),
    ]
}

use strsum_api::{PlanMode, PlanSpec};

/// The execution strategy planned for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One incremental session, no cubes.
    Serial,
    /// Cube-and-conquer with this many cubes per search query.
    Cubed(usize),
}

impl Strategy {
    /// The cube count the strategy runs (1 for serial).
    pub fn cube_k(self) -> usize {
        match self {
            Strategy::Serial => 1,
            Strategy::Cubed(k) => k,
        }
    }

    /// The [`CostBook`]'s strategy tag for rows recorded under this
    /// strategy.
    pub fn recorded(self) -> RecordedStrategy {
        match self {
            Strategy::Serial => RecordedStrategy::Serial,
            Strategy::Cubed(_) => RecordedStrategy::Cubed,
        }
    }
}

/// The plan for one loop: its strategy plus where the cost estimate came
/// from (for reports; never consulted during execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopPlan {
    /// How to execute the loop.
    pub strategy: Strategy,
    /// Predicted wall cost in microseconds, when the planner had one
    /// (book row or model prediction). `None` for fixed modes and
    /// cold-start loops.
    pub predicted_micros: Option<u64>,
    /// Whether the prediction came from the GP model rather than a book
    /// row.
    pub modeled: bool,
}

/// Strategy tallies for one plan, reported in the run JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Loops planned serial.
    pub serial: usize,
    /// Loops planned cubed.
    pub cubed: usize,
    /// Always 0: the portfolio tier is gone. Kept, and still reported,
    /// only because the `profile` benchmark reads the field.
    pub portfolio: usize,
    /// Loops whose cost estimate came from the GP model.
    pub modeled: usize,
}

impl ToJson for PlanCounts {
    fn to_json(&self) -> String {
        format!(
            "{{\"serial\":{},\"cubed\":{},\"portfolio\":{},\"modeled\":{}}}",
            self.serial, self.cubed, self.portfolio, self.modeled
        )
    }
}

/// A complete execution plan for one run: the dispatch permutation plus
/// one [`LoopPlan`] per loop (indexed by corpus position, like every
/// other per-loop vector in the runner).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Dispatch permutation for ordered dispatch (identity when the
    /// spec is corpus-ordered).
    pub order: Vec<usize>,
    /// Per-loop strategies, indexed by corpus position.
    pub loops: Vec<LoopPlan>,
}

impl Plan {
    /// Strategy tallies over the whole plan.
    pub fn counts(&self) -> PlanCounts {
        let mut c = PlanCounts::default();
        for lp in &self.loops {
            match lp.strategy {
                Strategy::Serial => c.serial += 1,
                Strategy::Cubed(_) => c.cubed += 1,
            }
            c.modeled += usize::from(lp.modeled);
        }
        c
    }
}

/// Predicted cost below which a loop runs serial: cube setup costs more
/// than it can recover on a sub-quarter-second job (BENCH_pr4's slowdown
/// was exactly this overhead, paid corpus-wide).
pub const SERIAL_CUTOFF_MICROS: u64 = 250_000;
/// Predicted cost above which the cubed tier steps from 2 to 4 cubes.
pub const CUBE4_CUTOFF_MICROS: u64 = 1_000_000;
/// Predicted cost above which the cubed tier steps from 4 to 8 cubes.
pub const CUBE8_CUTOFF_MICROS: u64 = 4_000_000;
/// Minimum trusted observations before the GP model is consulted at all
/// — below this, posterior variance is all prior and predictions would
/// be noise.
pub const MIN_TRAIN: usize = 4;

/// The cubed tier for a predicted cost, clamped to a spare-core budget:
/// serial below [`SERIAL_CUTOFF_MICROS`], then 2/4/8 cubes by the
/// [`CUBE4_CUTOFF_MICROS`]/[`CUBE8_CUTOFF_MICROS`] steps, never more
/// than `spare` (a strategy that out-cubes its core budget would steal
/// time from sibling work — BENCH_pr4's pathology). With `spare < 2`
/// every prediction tiers to serial.
pub fn cube_tier(predicted_micros: u64, spare: usize) -> Strategy {
    if predicted_micros < SERIAL_CUTOFF_MICROS || spare < 2 {
        return Strategy::Serial;
    }
    let k: usize = if predicted_micros < CUBE4_CUTOFF_MICROS {
        2
    } else if predicted_micros < CUBE8_CUTOFF_MICROS {
        4
    } else {
        8
    };
    Strategy::Cubed(k.min(spare).max(2))
}

/// Longest-job-first dispatch permutation for loops identified by their
/// fingerprint-hash `keys` (`None` for loops that could not be
/// fingerprinted, e.g. compile failures).
///
/// Three groups, in dispatch order:
///
/// 1. **Capped** — rows whose recorded outcome is budget exhaustion. The
///    recorded wall time is a lower bound on true cost, so these are the
///    best-known candidates for the tail job. Descending wall time, then
///    descending conflicts, then original index.
/// 2. **Unknown** — loops with no (trusted) book row, in corpus order.
///    A loop with no book row has *unbounded* cost from the scheduler's
///    point of view: it might be a 2ms screen reject or the 10s tail
///    job. Deferring it is the one mistake longest-job-first cannot
///    afford — if the tail job starts on the last free worker, the
///    makespan is `(sum of the rest) / workers + tail`, the exact
///    pathology LJF exists to avoid. Dispatching unknowns first costs
///    nothing when they turn out cheap and saves the whole run when
///    they turn out expensive.
/// 3. **Trusted** — rows from completed attempts, by descending wall
///    time, then descending conflicts (a machine-independent tiebreak
///    when wall clocks collide), then original index.
///
/// Every comparison is on persisted data, so the permutation is
/// deterministic for a given book.
pub fn ljf_order(keys: &[Option<u64>], book: &CostBook) -> Vec<usize> {
    let mut span = strsum_obs::span("sched.ljf", "bench");
    let mut capped: Vec<(usize, crate::CostStat)> = Vec::new();
    let mut unknown: Vec<usize> = Vec::new();
    let mut trusted: Vec<(usize, crate::CostStat)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        match k.and_then(|k| book.get(k)) {
            Some(cost) if cost.capped() => capped.push((i, cost)),
            Some(cost) if cost.trusted() => trusted.push((i, cost)),
            // Unknown-outcome rows (e.g. a crashed worker's stats) carry
            // no credible cost signal; treat them like unrecorded loops.
            Some(_) | None => unknown.push(i),
        }
    }
    let by_cost_desc = |a: &(usize, crate::CostStat), b: &(usize, crate::CostStat)| {
        b.1.wall_micros
            .cmp(&a.1.wall_micros)
            .then(b.1.conflicts.cmp(&a.1.conflicts))
            .then(a.0.cmp(&b.0))
    };
    capped.sort_by(by_cost_desc);
    trusted.sort_by(by_cost_desc);
    span.arg_u64("capped", capped.len() as u64);
    span.arg_u64("known", trusted.len() as u64);
    span.arg_u64("unknown", unknown.len() as u64);
    capped
        .into_iter()
        .map(|(i, _)| i)
        .chain(unknown)
        .chain(trusted.into_iter().map(|(i, _)| i))
        .collect()
}

/// Plans a run: consults the spec, the cost book, the feature vectors
/// and the host's core budget, and produces a [`Plan`].
///
/// Decisions are deterministic for fixed inputs. The core count is read
/// from `std::thread::available_parallelism` by default and overridable
/// for tests ([`ExecutionPlanner::with_cores`]).
#[derive(Debug)]
pub struct ExecutionPlanner<'b> {
    spec: PlanSpec,
    book: &'b CostBook,
    threads: usize,
    cores: usize,
}

impl<'b> ExecutionPlanner<'b> {
    /// A planner for a run on `threads` corpus workers, against the
    /// given cost book.
    pub fn new(spec: PlanSpec, book: &'b CostBook, threads: usize) -> ExecutionPlanner<'b> {
        ExecutionPlanner {
            spec,
            book,
            threads: threads.max(1),
            cores: detected_cores(),
        }
    }

    /// Overrides the detected core count (tests and what-if planning).
    pub fn with_cores(mut self, cores: usize) -> ExecutionPlanner<'b> {
        self.cores = cores.max(1);
        self
    }

    /// Cores per corpus worker beyond the worker itself — the budget
    /// cube workers can draw on without stealing from sibling loops. 1 means "no spare": intra-loop parallelism would
    /// only oversubscribe the host.
    fn spare(&self) -> usize {
        (self.cores / self.threads).max(1)
    }

    /// Builds the plan for loops identified by their fingerprint-hash
    /// `keys` (`None` for loops that could not be fingerprinted) and
    /// described by `features` (`None` for loops that did not compile).
    ///
    /// `keys` and `features` must be corpus-indexed and equal-length;
    /// the returned plan is corpus-indexed too.
    pub fn plan(&self, keys: &[Option<u64>], features: &[Option<LoopFeatures>]) -> Plan {
        assert_eq!(keys.len(), features.len(), "one feature vector per key");
        let mut span = strsum_obs::span("plan.build", "bench");
        let order = if self.spec.cost_order {
            ljf_order(keys, self.book)
        } else {
            (0..keys.len()).collect()
        };
        let loops = match self.spec.mode {
            PlanMode::Serial => vec![
                LoopPlan {
                    strategy: Strategy::Serial,
                    predicted_micros: None,
                    modeled: false,
                };
                keys.len()
            ],
            PlanMode::Cubed(k) => vec![
                LoopPlan {
                    strategy: Strategy::Cubed(k.max(2)),
                    predicted_micros: None,
                    modeled: false,
                };
                keys.len()
            ],
            PlanMode::Adaptive => self.adaptive(keys, features),
        };
        let plan = Plan { order, loops };
        let counts = plan.counts();
        if span.active() {
            span.arg_str("mode", self.spec.mode.label().to_string());
            span.arg_u64("serial", counts.serial as u64);
            span.arg_u64("cubed", counts.cubed as u64);
            span.arg_u64("modeled", counts.modeled as u64);
        }
        for (name, n) in [
            (names::PLAN_SERIAL, counts.serial),
            (names::PLAN_CUBED, counts.cubed),
            (names::PLAN_MODELED, counts.modeled),
        ] {
            if n > 0 {
                strsum_obs::counter(name, "bench", n as u64);
            }
        }
        plan
    }

    /// The cubed tier for a predicted cost, clamped to the spare-core
    /// budget (`spare()` ≥ 2 whenever this matters).
    fn tier(&self, predicted_micros: u64) -> Strategy {
        cube_tier(predicted_micros, self.spare().max(2))
    }

    /// The adaptive policy. Per loop:
    ///
    /// - no spare cores → serial (cubes would steal from siblings; the
    ///   planner degenerates to serial + LJF ordering, which is the
    ///   right call on a saturated host);
    /// - capped book row (`BudgetExhausted`) → the cap is a *lower*
    ///   bound, so the loop is known-expensive: top cube tier for the
    ///   capped wall;
    /// - any other book row → the recorded wall is the estimate;
    /// - no row, fitted model → predict from features and tier the
    ///   prediction;
    /// - no row, no model (cold start) → serial, the no-overhead
    ///   default.
    fn adaptive(&self, keys: &[Option<u64>], features: &[Option<LoopFeatures>]) -> Vec<LoopPlan> {
        let serial = LoopPlan {
            strategy: Strategy::Serial,
            predicted_micros: None,
            modeled: false,
        };
        if self.spare() < 2 {
            return vec![serial; keys.len()];
        }
        let model = self.fit(keys, features);
        keys.iter()
            .zip(features)
            .map(|(&key, feats)| {
                let row = key.and_then(|k| self.book.get(k));
                match row {
                    Some(s) if s.capped() => LoopPlan {
                        // True cost ≥ the cap; commit to the top tier
                        // the cap's magnitude warrants.
                        strategy: self.tier(s.wall_micros.max(SERIAL_CUTOFF_MICROS)),
                        predicted_micros: Some(s.wall_micros),
                        modeled: false,
                    },
                    Some(s) => LoopPlan {
                        strategy: self.tier(s.wall_micros),
                        predicted_micros: Some(s.wall_micros),
                        modeled: false,
                    },
                    None => match (&model, feats) {
                        (Some(m), Some(f)) => {
                            let predicted = m.predict_micros(f);
                            LoopPlan {
                                strategy: self.tier(predicted),
                                predicted_micros: Some(predicted),
                                modeled: true,
                            }
                        }
                        _ => serial,
                    },
                }
            })
            .collect()
    }

    /// Fits the cost model over the feature vectors of this run's loops
    /// that have a *trusted* book row (capped and unknown-provenance
    /// rows are excluded — training on a governor cap teaches the model
    /// the budget, not the loop). Returns `None` below [`MIN_TRAIN`]
    /// observations.
    fn fit(&self, keys: &[Option<u64>], features: &[Option<LoopFeatures>]) -> Option<CostModel> {
        let mut xs: Vec<LoopFeatures> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for (&key, feats) in keys.iter().zip(features) {
            let (Some(k), Some(f)) = (key, feats) else {
                continue;
            };
            if let Some(s) = self.book.get(k) {
                if s.trusted() {
                    xs.push(*f);
                    ys.push((s.wall_micros.max(1) as f64).ln());
                }
            }
        }
        CostModel::fit_points(&xs, &ys)
    }
}

/// The host's detected core count (`available_parallelism`, min 2 on
/// failure — the historical bench default).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// The fitted cost model: a [`VecGp`] over standardised log-cost, plus
/// the de-standardisation constants. Shared between the batch planner
/// (fit once per run over the corpus's booked loops) and the daemon's
/// scheduler (refit incrementally as served requests complete).
#[derive(Debug)]
pub struct CostModel {
    gp: VecGp,
    mean: f64,
    sd: f64,
}

impl CostModel {
    /// Fits the model over observation pairs: feature vectors and
    /// `ln(wall_micros)` targets. Returns `None` below [`MIN_TRAIN`]
    /// observations (posterior would be all prior). Deterministic for
    /// fixed inputs.
    pub fn fit_points(xs: &[LoopFeatures], ys_ln_micros: &[f64]) -> Option<CostModel> {
        assert_eq!(xs.len(), ys_ln_micros.len(), "one target per vector");
        if xs.len() < MIN_TRAIN {
            return None;
        }
        let ys = ys_ln_micros;
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sd = (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64)
            .sqrt()
            .max(1e-9);
        let ys_n: Vec<f64> = ys.iter().map(|y| (y - mean) / sd).collect();
        let xs_v: Vec<Vec<f64>> = xs.iter().map(|f| f.to_vec()).collect();
        let gp = VecGp::fit(
            &xs_v,
            &ys_n,
            VecKernel {
                length_scale: 1.5,
                signal_variance: 1.0,
            },
            1e-4,
        );
        Some(CostModel { gp, mean, sd })
    }

    /// Predicted `(ln wall_micros, posterior sd in ln space)` at `f`.
    pub fn predict(&self, f: &LoopFeatures) -> (f64, f64) {
        let (mu_n, var_n) = self.gp.posterior(f);
        (mu_n * self.sd + self.mean, var_n.max(0.0).sqrt() * self.sd)
    }

    /// Predicted wall microseconds at `f` (the de-logged posterior
    /// mean), saturating at `u64::MAX`.
    pub fn predict_micros(&self, f: &LoopFeatures) -> u64 {
        self.predict(f).0.exp().min(u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostStat, RecordedOutcome};

    fn stat(wall: u64, outcome: RecordedOutcome) -> CostStat {
        CostStat {
            conflicts: wall / 10,
            wall_micros: wall,
            outcome,
            ..CostStat::default()
        }
    }

    fn feats(scale: f64) -> LoopFeatures {
        [scale, scale * 0.5, 3.0, scale * 2.0]
    }

    #[test]
    fn fixed_modes_apply_uniformly() {
        let book = CostBook::new();
        let keys = [Some(1), Some(2), None];
        let features = [Some(feats(1.0)), None, None];
        let serial = ExecutionPlanner::new(PlanSpec::serial(), &book, 2)
            .with_cores(8)
            .plan(&keys, &features);
        assert!(serial.loops.iter().all(|l| l.strategy == Strategy::Serial));
        let cubed = ExecutionPlanner::new(PlanSpec::cubed(4), &book, 2)
            .with_cores(8)
            .plan(&keys, &features);
        assert!(cubed.loops.iter().all(|l| l.strategy == Strategy::Cubed(4)));
        assert_eq!(cubed.counts().cubed, 3);
        assert_eq!(cubed.counts().portfolio, 0);
    }

    #[test]
    fn corpus_order_is_identity_cost_order_consults_book() {
        let mut book = CostBook::new();
        book.record(1, stat(100, RecordedOutcome::Summarized));
        book.record(2, stat(9_000_000, RecordedOutcome::Summarized));
        let keys = [Some(1), Some(2)];
        let features = [None, None];
        let plain = ExecutionPlanner::new(PlanSpec::serial().corpus_order(), &book, 2)
            .plan(&keys, &features);
        assert_eq!(plain.order, vec![0, 1]);
        let ljf = ExecutionPlanner::new(PlanSpec::serial(), &book, 2).plan(&keys, &features);
        assert_eq!(ljf.order, vec![1, 0], "longest job dispatches first");
    }

    #[test]
    fn adaptive_on_saturated_host_is_all_serial() {
        let mut book = CostBook::new();
        book.record(1, stat(9_000_000, RecordedOutcome::Summarized));
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 2).with_cores(2);
        let plan = planner.plan(&[Some(1)], &[Some(feats(1.0))]);
        assert_eq!(
            plan.loops[0].strategy,
            Strategy::Serial,
            "no spare cores ⇒ never cube, whatever the prediction"
        );
    }

    #[test]
    fn adaptive_tiers_by_recorded_cost() {
        let mut book = CostBook::new();
        book.record(1, stat(1_000, RecordedOutcome::Summarized)); // 1ms
        book.record(2, stat(500_000, RecordedOutcome::Summarized)); // 0.5s
        book.record(3, stat(2_000_000, RecordedOutcome::Summarized)); // 2s
        book.record(4, stat(60_000_000, RecordedOutcome::Summarized)); // 60s
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 1).with_cores(16);
        let keys = [Some(1), Some(2), Some(3), Some(4)];
        let plan = planner.plan(&keys, &[None, None, None, None]);
        assert_eq!(plan.loops[0].strategy, Strategy::Serial);
        assert_eq!(plan.loops[1].strategy, Strategy::Cubed(2));
        assert_eq!(plan.loops[2].strategy, Strategy::Cubed(4));
        assert_eq!(plan.loops[3].strategy, Strategy::Cubed(8));
        assert_eq!(plan.loops[3].predicted_micros, Some(60_000_000));
        let counts = plan.counts();
        assert_eq!((counts.serial, counts.cubed, counts.modeled), (1, 3, 0));
    }

    #[test]
    fn cube_tier_is_clamped_to_spare_cores() {
        let mut book = CostBook::new();
        book.record(1, stat(60_000_000, RecordedOutcome::Summarized));
        // 8 cores / 4 workers = 2 spare ⇒ the 8-cube tier clamps to 2.
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 4).with_cores(8);
        let plan = planner.plan(&[Some(1)], &[None]);
        assert_eq!(plan.loops[0].strategy, Strategy::Cubed(2));
    }

    #[test]
    fn cube_tier_function_matches_the_cutoffs() {
        assert_eq!(cube_tier(0, 8), Strategy::Serial);
        assert_eq!(cube_tier(SERIAL_CUTOFF_MICROS, 8), Strategy::Cubed(2));
        assert_eq!(cube_tier(CUBE4_CUTOFF_MICROS, 8), Strategy::Cubed(4));
        assert_eq!(cube_tier(CUBE8_CUTOFF_MICROS, 8), Strategy::Cubed(8));
        assert_eq!(cube_tier(CUBE8_CUTOFF_MICROS, 3), Strategy::Cubed(3));
        assert_eq!(
            cube_tier(CUBE8_CUTOFF_MICROS, 1),
            Strategy::Serial,
            "no spare cores ⇒ serial whatever the prediction"
        );
    }

    #[test]
    fn capped_rows_plan_expensive_not_at_face_value() {
        let mut book = CostBook::new();
        // A 10s budget cap: the true cost is unknown but ≥ 10s.
        book.record(1, stat(10_000_000, RecordedOutcome::BudgetExhausted));
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 1).with_cores(16);
        let plan = planner.plan(&[Some(1)], &[None]);
        assert_eq!(plan.loops[0].strategy, Strategy::Cubed(8));
    }

    #[test]
    fn cold_start_without_model_is_serial() {
        let book = CostBook::new();
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 1).with_cores(16);
        let plan = planner.plan(&[Some(1), None], &[Some(feats(1.0)), None]);
        assert!(plan.loops.iter().all(|l| l.strategy == Strategy::Serial));
        assert_eq!(plan.counts().modeled, 0);
    }

    #[test]
    fn model_predicts_unknown_loops_from_features() {
        // Four trusted cheap rows with small features, four trusted
        // expensive rows with large features; an unknown loop with large
        // features should be predicted expensive (and counted modeled).
        let mut book = CostBook::new();
        let mut keys: Vec<Option<u64>> = Vec::new();
        let mut features: Vec<Option<LoopFeatures>> = Vec::new();
        for i in 0..4u64 {
            book.record(10 + i, stat(2_000 + i, RecordedOutcome::Summarized));
            keys.push(Some(10 + i));
            features.push(Some(feats(1.0 + 0.05 * i as f64)));
            book.record(20 + i, stat(30_000_000 + i, RecordedOutcome::Summarized));
            keys.push(Some(20 + i));
            features.push(Some(feats(5.0 + 0.05 * i as f64)));
        }
        keys.push(Some(999)); // not in the book
        features.push(Some(feats(5.1)));
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 1).with_cores(16);
        let plan = planner.plan(&keys, &features);
        let unknown = plan.loops.last().unwrap();
        assert!(unknown.modeled, "prediction must come from the model");
        assert!(
            unknown.predicted_micros.unwrap() > SERIAL_CUTOFF_MICROS,
            "near-identical features to 30s loops ⇒ expensive"
        );
        assert_ne!(unknown.strategy, Strategy::Serial);
        assert_eq!(plan.counts().modeled, 1);
    }

    #[test]
    fn capped_rows_are_excluded_from_training() {
        // Only capped rows in the book ⇒ no model ⇒ cold-start serial
        // for unknown loops (rather than predictions parroting the cap).
        let mut book = CostBook::new();
        let mut keys: Vec<Option<u64>> = Vec::new();
        let mut features: Vec<Option<LoopFeatures>> = Vec::new();
        for i in 0..6u64 {
            book.record(10 + i, stat(10_000_000, RecordedOutcome::BudgetExhausted));
            keys.push(Some(10 + i));
            features.push(Some(feats(2.0)));
        }
        keys.push(Some(999));
        features.push(Some(feats(2.0)));
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 1).with_cores(16);
        let plan = planner.plan(&keys, &features);
        let unknown = plan.loops.last().unwrap();
        assert!(!unknown.modeled);
        assert_eq!(unknown.strategy, Strategy::Serial);
    }

    #[test]
    fn plans_are_deterministic() {
        let mut book = CostBook::new();
        for i in 0..8u64 {
            book.record(i, stat(i * 700_000, RecordedOutcome::Summarized));
        }
        let keys: Vec<Option<u64>> = (0..8).map(Some).collect();
        let features: Vec<Option<LoopFeatures>> = (0..8).map(|i| Some(feats(i as f64))).collect();
        let planner = ExecutionPlanner::new(PlanSpec::adaptive(), &book, 2).with_cores(8);
        let a = planner.plan(&keys, &features);
        let b = planner.plan(&keys, &features);
        assert_eq!(a.order, b.order);
        assert_eq!(a.loops, b.loops);
    }

    #[test]
    fn cost_model_fit_points_needs_min_train() {
        let xs: Vec<LoopFeatures> = (0..MIN_TRAIN - 1).map(|i| feats(i as f64)).collect();
        let ys: Vec<f64> = (0..MIN_TRAIN - 1).map(|i| i as f64).collect();
        assert!(CostModel::fit_points(&xs, &ys).is_none());
        let xs: Vec<LoopFeatures> = (0..MIN_TRAIN).map(|i| feats(i as f64)).collect();
        let ys: Vec<f64> = (0..MIN_TRAIN).map(|i| 10.0 + i as f64).collect();
        let m = CostModel::fit_points(&xs, &ys).expect("enough observations");
        // Interpolation near a training point recovers its scale.
        let (mu, _) = m.predict(&feats(0.0));
        assert!((mu - 10.0).abs() < 2.0, "mu = {mu}");
    }

    mod ljf {
        use super::*;

        fn cost(conflicts: u64, wall_micros: u64) -> CostStat {
            CostStat {
                conflicts,
                wall_micros,
                outcome: RecordedOutcome::Summarized,
                ..CostStat::default()
            }
        }

        fn capped(conflicts: u64, wall_micros: u64) -> CostStat {
            CostStat {
                conflicts,
                wall_micros,
                outcome: RecordedOutcome::BudgetExhausted,
                ..CostStat::default()
            }
        }

        #[test]
        fn empty_book_preserves_corpus_order() {
            let keys = [Some(10), Some(11), Some(12)];
            assert_eq!(ljf_order(&keys, &CostBook::new()), vec![0, 1, 2]);
        }

        #[test]
        fn longest_recorded_job_goes_first_after_unknowns() {
            let mut book = CostBook::new();
            book.record(10, cost(5, 100));
            book.record(12, cost(9, 9_000));
            book.record(13, cost(2, 100));
            // key 11 is unrecorded and the `None` loop never fingerprinted,
            // so both dispatch first in corpus order; then 12 (longest),
            // then the two 100µs loops: 10 beats 13 on conflicts.
            let keys = [Some(10), Some(11), Some(12), Some(13), None];
            assert_eq!(ljf_order(&keys, &book), vec![1, 4, 2, 0, 3]);
        }

        /// Mixed known/unknown keys with a conflicts tiebreak inside
        /// each group, and capped rows ahead of everything.
        #[test]
        fn mixed_groups_order_capped_then_unknown_then_trusted() {
            let mut book = CostBook::new();
            book.record(30, cost(7, 500)); // trusted, mid
            book.record(31, capped(1, 200)); // capped, cheap-looking lower bound
            book.record(32, capped(9, 200)); // capped, same wall — conflicts break
            book.record(33, cost(2, 500)); // trusted, same wall as 30 — conflicts break
            book.record(34, cost(0, 9_000)); // trusted, longest
            let keys = [
                Some(30),
                Some(31),
                Some(32),
                Some(33),
                Some(34),
                None,
                Some(35),
            ];
            // Capped first (32 beats 31 on conflicts at equal wall), then
            // the unknowns in corpus order (index 5 never fingerprinted,
            // key 35 unrecorded), then trusted by wall desc with 30
            // beating 33 on conflicts.
            assert_eq!(ljf_order(&keys, &book), vec![2, 1, 5, 6, 4, 0, 3]);
        }

        /// A budget-capped row's wall time is a lower bound, so it
        /// outranks a trusted row with a *larger* recorded wall time.
        #[test]
        fn capped_rows_outrank_longer_trusted_rows() {
            let mut book = CostBook::new();
            book.record(40, capped(0, 100));
            book.record(41, cost(0, 50_000));
            assert_eq!(ljf_order(&[Some(40), Some(41)], &book), vec![0, 1]);
        }

        /// Rows recorded with an unknown outcome (v1 books, crashed
        /// workers) carry no credible cost and schedule with the
        /// unknown group.
        #[test]
        fn unknown_outcome_rows_schedule_as_unknown() {
            let mut book = CostBook::new();
            book.record(
                50,
                CostStat {
                    conflicts: 9,
                    wall_micros: 9_000,
                    outcome: RecordedOutcome::Unknown,
                    ..CostStat::default()
                },
            );
            book.record(51, cost(1, 10));
            // 50's 9ms is untrusted: it dispatches in the unknown group
            // (corpus order) rather than claiming the longest-job slot.
            assert_eq!(ljf_order(&[Some(51), Some(50)], &book), vec![1, 0]);
        }

        #[test]
        fn full_tie_falls_back_to_index() {
            let mut book = CostBook::new();
            book.record(20, cost(1, 50));
            book.record(21, cost(1, 50));
            assert_eq!(ljf_order(&[Some(20), Some(21)], &book), vec![0, 1]);
        }

        #[test]
        fn order_is_a_permutation() {
            let mut book = CostBook::new();
            for k in 0..7u64 {
                if k % 2 == 0 {
                    book.record(k, cost(k, 1000 - k));
                }
            }
            let keys: Vec<Option<u64>> = (0..7).map(Some).collect();
            let mut order = ljf_order(&keys, &book);
            order.sort_unstable();
            assert_eq!(order, (0..7).collect::<Vec<usize>>());
        }
    }
}
