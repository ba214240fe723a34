//! GNSS noise model.
//!
//! Real-time high-rate GNSS positions carry centimetre-level noise with a
//! characteristic coloured spectrum (Melgar et al. 2020): white noise plus
//! a random-walk component and occasional multipath-like low-frequency
//! wander. Waveforms synthesised without noise would make downstream EEW
//! training data unrealistically clean, so the C Phase adds this model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stochastic::standard_normal;

/// Parameters of the GNSS noise generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// White-noise standard deviation per sample, metres. Horizontal
    /// components of real-time GNSS sit near 5–10 mm.
    pub white_sigma_m: f64,
    /// Random-walk increment standard deviation per sample, metres.
    pub walk_sigma_m: f64,
    /// Amplitude of slow sinusoidal multipath wander, metres.
    pub multipath_amp_m: f64,
    /// Period of the multipath wander, seconds.
    pub multipath_period_s: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            white_sigma_m: 0.007,
            walk_sigma_m: 0.0004,
            multipath_amp_m: 0.004,
            multipath_period_s: 300.0,
        }
    }
}

impl NoiseModel {
    /// A noiseless model (useful for tests and clean benchmarks).
    pub fn none() -> Self {
        Self {
            white_sigma_m: 0.0,
            walk_sigma_m: 0.0,
            multipath_amp_m: 0.0,
            multipath_period_s: 300.0,
        }
    }

    /// Vertical components are noisier; scale a horizontal model up by the
    /// canonical ~3x factor.
    pub fn vertical(&self) -> Self {
        Self {
            white_sigma_m: self.white_sigma_m * 3.0,
            walk_sigma_m: self.walk_sigma_m * 3.0,
            multipath_amp_m: self.multipath_amp_m * 2.0,
            multipath_period_s: self.multipath_period_s,
        }
    }

    /// Generate `n` noise samples at `dt_s` spacing, deterministically from
    /// `seed`: [`Self::add_to`] applied to a zero series.
    pub fn generate(&self, n: usize, dt_s: f64, seed: u64) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.add_to(&mut out, dt_s, seed);
        out
    }

    /// Add one noise realisation at `dt_s` spacing to `series` in place,
    /// deterministically from `seed`.
    ///
    /// Each sample draws one Marsaglia-polar normal pair: one value drives
    /// the random-walk increment and the other the white noise, for one
    /// `ln` and one `sqrt` per sample and no trigonometry. The multipath
    /// sinusoid advances by a rotation recurrence from a single `sin_cos`
    /// of its phase step. A silent model returns without drawing, leaving
    /// `series` untouched. [`Self::generate_reference`] is the frozen
    /// per-sample Box–Muller generator this replaced; the two agree in
    /// distribution, not in bytes.
    pub fn add_to(&self, series: &mut [f64], dt_s: f64, seed: u64) {
        if self.white_sigma_m == 0.0 && self.walk_sigma_m == 0.0 && self.multipath_amp_m == 0.0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ NOISE_SALT);
        let (phase, _) = polar_pair(&mut rng);
        let (mut sin, mut cos) = (phase * std::f64::consts::PI).sin_cos();
        let (step_sin, step_cos) =
            (2.0 * std::f64::consts::PI * dt_s / self.multipath_period_s).sin_cos();
        let mut walk = 0.0;
        for s in series.iter_mut() {
            let (a, b) = polar_pair(&mut rng);
            walk += self.walk_sigma_m * a;
            *s += self.white_sigma_m * b + walk + self.multipath_amp_m * sin;
            (sin, cos) = (
                sin * step_cos + cos * step_sin,
                cos * step_cos - sin * step_sin,
            );
        }
    }

    /// The frozen per-sample Box–Muller generator: two uniforms and an
    /// `ln`, `sqrt` and `cos` per normal, two normals per sample, and a
    /// `sin` per sample for multipath. Kept as the statistical oracle that
    /// [`Self::generate`] is tested against.
    pub fn generate_reference(&self, n: usize, dt_s: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ NOISE_SALT);
        let mut out = Vec::with_capacity(n);
        let mut walk = 0.0;
        let phase = standard_normal(&mut rng) * std::f64::consts::PI;
        for i in 0..n {
            let t = i as f64 * dt_s;
            walk += self.walk_sigma_m * standard_normal(&mut rng);
            let white = self.white_sigma_m * standard_normal(&mut rng);
            let mp = self.multipath_amp_m
                * (2.0 * std::f64::consts::PI * t / self.multipath_period_s + phase).sin();
            out.push(white + walk + mp);
        }
        out
    }
}

/// Mixed into every noise seed so noise streams differ from other
/// consumers of the same seed.
const NOISE_SALT: u64 = 0x004e_4f49_5345;

/// Two independent standard normals by Marsaglia's polar method: draw a
/// point uniformly in the unit disc by rejection (about 1.27 tries on
/// average), then scale both coordinates by `sqrt(-2 ln s / s)`.
fn polar_pair(rng: &mut StdRng) -> (f64, f64) {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            return (u * f, v * f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::field_stats;

    #[test]
    fn none_model_is_silent() {
        let noise = NoiseModel::none().generate(100, 1.0, 1);
        assert!(noise.iter().all(|v| *v == 0.0));
        // Not even a signed zero is added: `-0.0 + 0.0` would give `+0.0`.
        let mut series = vec![-0.0, 1.5, -0.0];
        NoiseModel::none().add_to(&mut series, 1.0, 1);
        assert_eq!(
            series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [(-0.0f64).to_bits(), 1.5f64.to_bits(), (-0.0f64).to_bits()]
        );
    }

    #[test]
    fn add_to_adds_generate() {
        let m = NoiseModel::default();
        let base: Vec<f64> = (0..300).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut series = base.clone();
        m.add_to(&mut series, 0.5, 42);
        let noise = m.generate(300, 0.5, 42);
        for ((s, b), nz) in series.iter().zip(&base).zip(&noise) {
            assert_eq!(s.to_bits(), (b + nz).to_bits());
        }
    }

    /// Pooled statistics of `SEEDS` series from one generator.
    struct Pooled {
        /// Std of the samples (zero-mean estimator).
        std: f64,
        /// Std of the first differences (zero-mean estimator).
        diff_std: f64,
        /// Lag-1 autocorrelation of the first differences.
        diff_rho1: f64,
        /// Number of first differences pooled.
        n_diffs: usize,
    }

    fn pooled(gen: impl Fn(u64) -> Vec<f64>) -> Pooled {
        let (mut ss, mut n) = (0.0, 0usize);
        let (mut dd, mut dlag, mut nd, mut nlag) = (0.0, 0.0, 0usize, 0usize);
        for seed in 0..SEEDS {
            let x = gen(seed);
            ss += x.iter().map(|v| v * v).sum::<f64>();
            n += x.len();
            let d: Vec<f64> = x.windows(2).map(|p| p[1] - p[0]).collect();
            dd += d.iter().map(|v| v * v).sum::<f64>();
            nd += d.len();
            dlag += d.windows(2).map(|p| p[0] * p[1]).sum::<f64>();
            nlag += d.len() - 1;
        }
        Pooled {
            std: (ss / n as f64).sqrt(),
            diff_std: (dd / nd as f64).sqrt(),
            diff_rho1: (dlag / nlag as f64) / (dd / nd as f64),
            n_diffs: nd,
        }
    }

    const SEEDS: u64 = 256;
    const N: usize = 512;

    /// `generate` and the frozen Box–Muller `generate_reference` agree in
    /// distribution. Each tolerance is 4 standard errors of the difference
    /// of two independent estimates over `SEEDS × N` samples: a std
    /// estimate from m zero-mean normal samples has standard error
    /// `σ/√(2m)`, and a lag-1 autocorrelation has `√((1-3ρ²+4ρ⁴)/m)`
    /// (Bartlett, for the MA(1) differences of white plus walk noise).
    #[test]
    fn polar_generator_matches_reference_in_distribution() {
        let quiet = NoiseModel {
            white_sigma_m: 0.0,
            walk_sigma_m: 0.0,
            multipath_amp_m: 0.0,
            multipath_period_s: 300.0,
        };
        let cases = |m: NoiseModel| {
            (
                pooled(|s| m.generate(N, 1.0, s)),
                pooled(|s| m.generate_reference(N, 1.0, s)),
            )
        };
        // Two std estimates over m samples each differ with standard
        // error √2·σ/√(2m) = σ/√m.
        let std_tol = |sigma: f64, m: usize| 4.0 * sigma / (m as f64).sqrt();

        // White noise: sample std.
        let white = NoiseModel {
            white_sigma_m: 0.007,
            ..quiet
        };
        let (a, b) = cases(white);
        let tol = std_tol(0.007, SEEDS as usize * N);
        assert!(
            (a.std - b.std).abs() < tol,
            "white std {} vs {}",
            a.std,
            b.std
        );
        assert!((a.std - 0.007).abs() < tol, "white std {}", a.std);

        // Random walk: std of the increments.
        let walk = NoiseModel {
            walk_sigma_m: 0.0004,
            ..quiet
        };
        let (a, b) = cases(walk);
        let tol = std_tol(0.0004, a.n_diffs);
        assert!(
            (a.diff_std - b.diff_std).abs() < tol,
            "walk increment std {} vs {}",
            a.diff_std,
            b.diff_std
        );
        assert!(
            (a.diff_std - 0.0004).abs() < tol,
            "walk increment std {}",
            a.diff_std
        );

        // Default model: lag-1 autocorrelation of the first differences,
        // -σw² / (2σw² + σr²) ≈ -0.498 for white plus walk.
        let (a, b) = cases(NoiseModel::default());
        let rho = b.diff_rho1;
        let tol =
            4.0 * (2.0 * (1.0 - 3.0 * rho * rho + 4.0 * rho.powi(4)) / a.n_diffs as f64).sqrt();
        assert!(
            (a.diff_rho1 - b.diff_rho1).abs() < tol,
            "lag-1 autocorrelation {} vs {}",
            a.diff_rho1,
            b.diff_rho1
        );
        assert!(
            (-0.55..-0.45).contains(&a.diff_rho1),
            "rho1 {}",
            a.diff_rho1
        );

        // Multipath: over a whole number of periods the mean square of a
        // sinusoid is A²/2 whatever its phase, so the amplitude is exact
        // up to rounding, seed by seed.
        let mp = NoiseModel {
            multipath_amp_m: 0.004,
            ..quiet
        };
        for seed in 0..SEEDS {
            for x in [
                mp.generate(600, 1.0, seed),
                mp.generate_reference(600, 1.0, seed),
            ] {
                let amp = (2.0 * x.iter().map(|v| v * v).sum::<f64>() / 600.0).sqrt();
                assert!((amp - 0.004).abs() < 1e-12, "seed {seed}: amplitude {amp}");
                assert!(x.iter().all(|v| v.abs() <= 0.004 + 1e-12));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = NoiseModel::default();
        assert_eq!(m.generate(64, 1.0, 9), m.generate(64, 1.0, 9));
        assert_ne!(m.generate(64, 1.0, 9), m.generate(64, 1.0, 10));
    }

    #[test]
    fn amplitude_near_configured_level() {
        let m = NoiseModel::default();
        let noise = m.generate(4096, 1.0, 3);
        let st = field_stats(&noise);
        // Whole-series std is dominated by white noise plus accumulated
        // walk; must be within an order of magnitude of the white level.
        assert!(st.std > 0.003 && st.std < 0.06, "std {}", st.std);
    }

    #[test]
    fn vertical_noisier_than_horizontal() {
        let h = NoiseModel::default();
        let v = h.vertical();
        assert!(v.white_sigma_m > h.white_sigma_m * 2.5);
        let hs = field_stats(&h.generate(2048, 1.0, 4));
        let vs = field_stats(&v.generate(2048, 1.0, 4));
        assert!(vs.std > hs.std);
    }

    #[test]
    fn random_walk_accumulates() {
        let m = NoiseModel {
            white_sigma_m: 0.0,
            walk_sigma_m: 0.01,
            multipath_amp_m: 0.0,
            multipath_period_s: 300.0,
        };
        let noise = m.generate(10_000, 1.0, 5);
        let early = field_stats(&noise[..100]);
        let late = field_stats(&noise[9000..]);
        // Variance of a random walk grows with time, so the late window
        // wanders farther from zero than the early one.
        assert!(late.mean.abs() + late.std > early.mean.abs() + early.std);
    }

    #[test]
    fn length_matches_request() {
        assert_eq!(NoiseModel::default().generate(0, 1.0, 1).len(), 0);
        assert_eq!(NoiseModel::default().generate(512, 1.0, 1).len(), 512);
    }
}
