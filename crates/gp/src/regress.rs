//! Exact Gaussian-process regression over vocabulary bit-vectors (the
//! paper's §4.2.3 use case).

use crate::kernel::RbfKernel;
use crate::linalg::Matrix;

/// A fitted GP: caches the Cholesky factor of the kernel matrix and the
/// weight vector `α = K⁻¹ y`.
#[derive(Debug, Clone)]
pub struct Gp {
    xs: Vec<u16>,
    alpha: Vec<f64>,
    chol: Matrix,
    kernel: RbfKernel,
}

impl Gp {
    /// Fits a zero-mean GP to the observations, with `noise` added to the
    /// diagonal for numerical stability.
    ///
    /// # Panics
    ///
    /// Panics when the kernel matrix is not positive definite even after
    /// jitter (can only happen with duplicate inputs and zero noise).
    pub fn fit(xs: &[u16], ys: &[f64], kernel: RbfKernel, noise: f64) -> Gp {
        let n = xs.len();
        let mut k = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut v = kernel.eval(xs[i], xs[j]);
                if i == j {
                    v += noise;
                }
                k.set(i, j, v);
            }
        }
        let chol = k
            .cholesky()
            .or_else(|| {
                // Retry with a larger jitter.
                let mut k2 = k.clone();
                for i in 0..n {
                    k2.set(i, i, k2.get(i, i) + 1e-4);
                }
                k2.cholesky()
            })
            .expect("kernel matrix must be positive definite");
        let alpha = Matrix::cholesky_solve(&chol, ys);
        Gp {
            xs: xs.to_vec(),
            alpha,
            chol,
            kernel,
        }
    }

    /// Posterior mean and variance at `x`.
    pub fn posterior(&self, x: u16) -> (f64, f64) {
        let kx: Vec<f64> = self.xs.iter().map(|&xi| self.kernel.eval(xi, x)).collect();
        let mean: f64 = kx.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        // var = k(x,x) − kxᵀ K⁻¹ kx, via v = L⁻¹ kx.
        let v = self.chol.forward_solve(&kx);
        let var = self.kernel.eval(x, x) - v.iter().map(|vi| vi * vi).sum::<f64>();
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_observations() {
        let kernel = RbfKernel {
            length_scale: 1.0,
            signal_variance: 1.0,
        };
        let xs = vec![0b000, 0b011, 0b111];
        let ys = vec![1.0, -0.5, 2.0];
        let gp = Gp::fit(&xs, &ys, kernel, 1e-9);
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, var) = gp.posterior(*x);
            assert!((mu - y).abs() < 1e-3, "mean at observed point");
            assert!(var < 1e-3, "variance at observed point");
        }
    }

    #[test]
    fn uncertainty_grows_with_distance() {
        let kernel = RbfKernel {
            length_scale: 1.0,
            signal_variance: 1.0,
        };
        let gp = Gp::fit(&[0b0000], &[1.0], kernel, 1e-9);
        let (_, v_near) = gp.posterior(0b0001);
        let (_, v_far) = gp.posterior(0b1111);
        assert!(v_far > v_near);
    }

    #[test]
    fn variance_shrinks_with_data() {
        // Conditioning on more observations can only reduce posterior
        // variance at any query point (information never hurts).
        let kernel = RbfKernel {
            length_scale: 1.0,
            signal_variance: 1.0,
        };
        let query = 0b0110u16;
        let xs = [0b0000u16, 0b0011, 0b1100, 0b1111];
        let ys = [0.0, 1.0, -1.0, 0.5];
        let mut prev = f64::INFINITY;
        for n in 1..=xs.len() {
            let gp = Gp::fit(&xs[..n], &ys[..n], kernel, 1e-9);
            let (_, var) = gp.posterior(query);
            assert!(
                var < prev + 1e-12,
                "variance rose from {prev} to {var} at n={n}"
            );
            assert!(var >= -1e-9, "variance must stay non-negative");
            prev = var;
        }
        // And strictly: four observations know more than one.
        let (_, v1) = Gp::fit(&xs[..1], &ys[..1], kernel, 1e-9).posterior(query);
        assert!(prev < v1);
    }
}
