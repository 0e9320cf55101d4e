#![warn(missing_docs)]
//! Gaussian-process Bayesian optimisation over gadget vocabularies.
//!
//! §4.2.3 of the paper treats "number of loops synthesised within the
//! budget" as a black-box function `s : {0,1}^13 → ℕ` over vocabulary
//! bit-vectors and optimises it with Gaussian processes and an expected-
//! improvement acquisition function (via GPyOpt). This crate implements
//! the same machinery from scratch: an RBF kernel over bit-vectors
//! (Hamming distance), exact GP regression via Cholesky decomposition, the
//! closed-form EI acquisition, and the optimisation loop.
//!
//! # Example
//!
//! ```
//! use strsum_gp::{BayesOpt, Observation};
//!
//! // Maximise a toy function: number of ones in the bitvector.
//! let mut opt = BayesOpt::new(13, 99);
//! for _ in 0..25 {
//!     let x = opt.suggest();
//!     let y = f64::from(x.count_ones());
//!     opt.observe(Observation { x, y });
//! }
//! let (best_x, best_y) = opt.best().unwrap();
//! assert!(best_y >= 10.0, "found {best_x:#015b} with {best_y}");
//! ```

pub mod ei;
pub mod kernel;
pub mod linalg;
pub mod regress;

pub use ei::expected_improvement;
pub use kernel::RbfKernel;
pub use linalg::Matrix;
pub use regress::Gp;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One evaluated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Bit-vector input (vocabulary).
    pub x: u16,
    /// Objective value (loops synthesised).
    pub y: f64,
}

/// Bayesian optimisation over `{0,1}^bits` with GP + expected improvement.
#[derive(Debug)]
pub struct BayesOpt {
    bits: u32,
    kernel: RbfKernel,
    observations: Vec<Observation>,
    rng: StdRng,
    init_budget: usize,
}

impl BayesOpt {
    /// Creates an optimiser over `bits`-wide vectors (≤ 16).
    pub fn new(bits: u32, seed: u64) -> BayesOpt {
        assert!(bits <= 16);
        BayesOpt {
            bits,
            kernel: RbfKernel {
                length_scale: 1.6,
                signal_variance: 1.0,
            },
            observations: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            init_budget: 5,
        }
    }

    /// All observations so far.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The best observation so far.
    pub fn best(&self) -> Option<(u16, f64)> {
        self.observations
            .iter()
            .max_by(|a, b| a.y.total_cmp(&b.y))
            .map(|o| (o.x, o.y))
    }

    /// Suggests the next point: random during the initial design, then the
    /// EI-maximising point over the whole (tiny) domain.
    pub fn suggest(&mut self) -> u16 {
        let mask = (1u32 << self.bits) - 1;
        if self.observations.len() < self.init_budget {
            loop {
                let x = (self.rng.random::<u32>() & mask) as u16;
                if !self.observations.iter().any(|o| o.x == x) {
                    return x;
                }
            }
        }
        // Normalise observations for GP stability.
        let ys: Vec<f64> = self.observations.iter().map(|o| o.y).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sd = (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64)
            .sqrt()
            .max(1e-9);
        let xs: Vec<u16> = self.observations.iter().map(|o| o.x).collect();
        let ys_n: Vec<f64> = ys.iter().map(|y| (y - mean) / sd).collect();
        let gp = Gp::fit(&xs, &ys_n, self.kernel, 1e-6);
        let best = ys_n.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let mut best_x = 0u16;
        let mut best_ei = f64::NEG_INFINITY;
        for cand in 0..=mask {
            let cand = cand as u16;
            if self.observations.iter().any(|o| o.x == cand) {
                continue;
            }
            let (mu, var) = gp.posterior(cand);
            let ei = expected_improvement(mu, var.max(0.0).sqrt(), best);
            if ei > best_ei {
                best_ei = ei;
                best_x = cand;
            }
        }
        best_x
    }

    /// Records an evaluation.
    pub fn observe(&mut self, obs: Observation) {
        self.observations.push(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_optimum_of_smooth_function() {
        // Objective: negative Hamming distance to a target vector — a
        // GP-friendly landscape with a unique optimum.
        let target: u16 = 0b1011001100101;
        let mut opt = BayesOpt::new(13, 3);
        for _ in 0..40 {
            let x = opt.suggest();
            let y = -f64::from((x ^ target).count_ones());
            opt.observe(Observation { x, y });
        }
        let (bx, by) = opt.best().unwrap();
        // 40 evaluations out of 8192 should get within 2 bits of optimal.
        assert!(by >= -2.0, "best {bx:#015b} scored {by}");
    }

    #[test]
    fn suggestions_are_fresh() {
        let mut opt = BayesOpt::new(4, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..12 {
            let x = opt.suggest();
            assert!(seen.insert(x), "suggested {x} twice");
            opt.observe(Observation {
                x,
                y: f64::from(x % 5),
            });
        }
    }
}
