//! Deterministic direction sampling on the unit sphere.
//!
//! The DoV estimator casts a set of rays per sample viewpoint drawn by
//! [`random_sphere`], seeded per cell and viewpoint
//! (`hdov_visibility::dov::sample_rays`): the same seed gives the same
//! directions, so experiments are reproducible bit-for-bit, while distinct
//! seeds decorrelate the Monte-Carlo error of neighbouring viewpoints.
//! [`fibonacci_sphere`] is a deterministic, near-uniform alternative with
//! no seed.

use crate::Vec3;

/// Returns `n` near-uniformly distributed unit directions (Fibonacci spiral).
///
/// The set is deterministic: calling twice with the same `n` yields the same
/// directions. Each direction carries equal quadrature weight `4π / n`.
pub fn fibonacci_sphere(n: usize) -> Vec<Vec3> {
    assert!(n > 0, "need at least one direction");
    let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    (0..n)
        .map(|i| {
            // z descends uniformly through (-1, 1).
            let z = 1.0 - (2.0 * i as f64 + 1.0) / n as f64;
            let r = (1.0 - z * z).max(0.0).sqrt();
            let theta = golden * i as f64;
            Vec3::new(r * theta.cos(), r * theta.sin(), z)
        })
        .collect()
}

/// A tiny deterministic PRNG (SplitMix64) for jitter, avoiding an external
/// dependency in this leaf crate.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Returns `n` uniformly distributed unit directions with seeded random
/// placement (inverse-CDF sampling of the sphere).
///
/// Unlike [`fibonacci_sphere`], different seeds give different direction
/// sets, which decorrelates Monte-Carlo error across sample viewpoints.
pub fn random_sphere(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let z = 2.0 * rng.next_f64() - 1.0;
            let phi = 2.0 * std::f64::consts::PI * rng.next_f64();
            let r = (1.0 - z * z).max(0.0).sqrt();
            Vec3::new(r * phi.cos(), r * phi.sin(), z)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_directions_are_unit() {
        for d in fibonacci_sphere(257) {
            assert!((d.length() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fibonacci_is_deterministic() {
        assert_eq!(fibonacci_sphere(64), fibonacci_sphere(64));
    }

    #[test]
    fn fibonacci_mean_is_near_zero() {
        let n = 1000;
        let mean = fibonacci_sphere(n)
            .into_iter()
            .fold(Vec3::ZERO, |a, d| a + d)
            / n as f64;
        assert!(mean.length() < 0.01, "mean = {mean}");
    }

    #[test]
    fn fibonacci_hemisphere_balance() {
        // Roughly half the directions in each z hemisphere.
        let n = 999;
        let up = fibonacci_sphere(n).iter().filter(|d| d.z > 0.0).count();
        assert!((up as i64 - (n / 2) as i64).abs() <= 2);
    }

    #[test]
    fn random_sphere_unit_and_seeded() {
        let a = random_sphere(128, 42);
        let b = random_sphere(128, 42);
        let c = random_sphere(128, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for d in a {
            assert!((d.length() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn splitmix_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic]
    fn zero_directions_panics() {
        let _ = fibonacci_sphere(0);
    }
}
