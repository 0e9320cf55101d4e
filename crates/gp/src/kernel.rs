//! The RBF kernel over bit-vectors (Hamming distance) for vocabulary
//! optimisation.

/// Squared-exponential kernel `k(x,y) = σ² exp(−d_H(x,y) / (2ℓ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Length scale ℓ.
    pub length_scale: f64,
    /// Signal variance σ².
    pub signal_variance: f64,
}

impl RbfKernel {
    /// Kernel value between two bit-vectors.
    pub fn eval(&self, x: u16, y: u16) -> f64 {
        let d = f64::from((x ^ y).count_ones());
        self.signal_variance * (-d / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_properties() {
        let k = RbfKernel {
            length_scale: 1.0,
            signal_variance: 2.0,
        };
        // Diagonal is the signal variance.
        assert!((k.eval(0b101, 0b101) - 2.0).abs() < 1e-12);
        // Symmetric.
        assert_eq!(k.eval(0b1, 0b111), k.eval(0b111, 0b1));
        // Decreasing in distance.
        assert!(k.eval(0, 0b1) > k.eval(0, 0b11));
        assert!(k.eval(0, 0b11) > k.eval(0, 0b111));
        // Always positive.
        assert!(k.eval(0, u16::MAX) > 0.0);
    }
}
