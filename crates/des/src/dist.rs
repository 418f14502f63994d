//! Probability distributions for workload synthesis.
//!
//! Implemented here (on top of [`SimRng`]) rather than pulling `rand_distr`,
//! keeping the dependency set minimal and the sampling algorithms auditable.

use crate::rng::SimRng;

/// A sampleable one-dimensional distribution.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut SimRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution; panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "Uniform requires lo <= hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform(self.lo, self.hi)
    }
}

/// Exponential distribution parameterized by its *mean* (`1/λ`).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    /// Mean of the distribution.
    pub mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (> 0).
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "Exponential mean must be positive");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; guard the log away from 0 to stay finite.
        let u = (1.0 - rng.uniform01()).max(f64::MIN_POSITIVE);
        -self.mean * u.ln()
    }
}

/// Normal (Gaussian) distribution.
///
/// Sampling uses the Marsaglia polar method; the spare variate is discarded
/// so sampling is stateless and fork-stable.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (>= 0).
    pub sd: f64,
}

impl Normal {
    /// Creates a normal distribution; panics on negative `sd`.
    pub(crate) fn new(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0, "Normal sd must be non-negative");
        Normal { mean, sd }
    }

    /// Draws a standard normal variate.
    pub(crate) fn standard(rng: &mut SimRng) -> f64 {
        loop {
            let u = rng.uniform(-1.0, 1.0);
            let v = rng.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.sd * Normal::standard(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// `mu`/`sigma` are the parameters of the *underlying* normal. Use
/// [`LogNormal::from_mean_cv`] to construct from a target arithmetic mean and
/// coefficient of variation, which is how the workload model is specified.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal (>= 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates from underlying-normal parameters.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "LogNormal sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal with arithmetic mean `mean` and coefficient of
    /// variation `cv` (= sd/mean of the log-normal itself).
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// Arithmetic mean of the distribution.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }
}

/// Gamma distribution with the given `shape` (k) and `scale` (θ):
/// mean `k·θ`, variance `k·θ²`.
///
/// Sampling uses Marsaglia & Tsang's squeeze method for `shape ≥ 1` and the
/// standard boost `Gamma(k) = Gamma(k+1) · U^(1/k)` for `shape < 1`.
#[derive(Clone, Copy, Debug)]
pub struct Gamma {
    /// Shape parameter k (> 0).
    pub shape: f64,
    /// Scale parameter θ (> 0).
    pub scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution; panics on non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && scale > 0.0,
            "Gamma parameters must be positive"
        );
        Gamma { shape, scale }
    }

    fn sample_standard(shape: f64, rng: &mut SimRng) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
            let u = rng.uniform01().max(f64::MIN_POSITIVE);
            return Self::sample_standard(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.uniform01().max(f64::MIN_POSITIVE);
            // Squeeze then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v3;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        Self::sample_standard(self.shape, rng) * self.scale
    }
}

/// Weibull distribution with the given `shape` (k) and `scale` (λ):
/// mean `λ·Γ(1 + 1/k)`.
///
/// `shape < 1` gives a decreasing hazard rate (infant mortality), `shape
/// == 1` reduces to [`Exponential`] with mean `λ`, and `shape > 1` gives
/// wear-out behaviour — the standard menu for machine failure models.
#[derive(Clone, Copy, Debug)]
pub struct Weibull {
    /// Shape parameter k (> 0).
    pub shape: f64,
    /// Scale parameter λ (> 0).
    pub scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution; panics on non-positive parameters.
    pub(crate) fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && scale > 0.0,
            "Weibull parameters must be positive"
        );
        Weibull { shape, scale }
    }

    /// Mean `λ·Γ(1 + 1/k)`, via the Lanczos approximation of Γ.
    pub(crate) fn mean(&self) -> f64 {
        self.scale * gamma_fn(1.0 + 1.0 / self.shape)
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; guard the log away from 0 to stay finite.
        let u = (1.0 - rng.uniform01()).max(f64::MIN_POSITIVE);
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }
}

/// Gamma function Γ(x) for x > 0 (Lanczos approximation, g = 7, n = 9).
/// Used for the analytic mean of [`Weibull`]; accurate to ~1e-13.
fn gamma_fn(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885,
        -1_259.139_216_722_403,
        771.323_428_777_653,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its sweet spot.
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x));
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
}

/// Two-component mixture: sample from `first` with probability `p`, from
/// `second` otherwise. Lublin & Feitelson's hyper-gamma runtime model is a
/// `Mixture` of two [`Gamma`]s.
#[derive(Clone, Copy, Debug)]
pub struct Mixture<A, B> {
    /// Probability of drawing from the first component.
    pub p: f64,
    /// First component.
    pub first: A,
    /// Second component.
    pub second: B,
}

impl<A: Distribution, B: Distribution> Mixture<A, B> {
    /// Creates a mixture; panics unless `0 ≤ p ≤ 1`.
    pub fn new(p: f64, first: A, second: B) -> Self {
        assert!((0.0..=1.0).contains(&p), "mixture probability out of range");
        Mixture { p, first, second }
    }
}

impl<A: Distribution, B: Distribution> Distribution for Mixture<A, B> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if rng.bernoulli(self.p) {
            self.first.sample(rng)
        } else {
            self.second.sample(rng)
        }
    }
}

/// Normal distribution truncated to `[min, max]` by rejection (with a clamp
/// fallback after 64 rejected draws, so sampling always terminates).
#[derive(Clone, Copy, Debug)]
pub struct TruncatedNormal {
    /// The untruncated normal.
    pub base: Normal,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal; panics if `min > max`.
    pub fn new(mean: f64, sd: f64, min: f64, max: f64) -> Self {
        assert!(min <= max, "TruncatedNormal requires min <= max");
        TruncatedNormal {
            base: Normal::new(mean, sd),
            min,
            max,
        }
    }

    /// Lower-bounded only.
    pub fn at_least(mean: f64, sd: f64, min: f64) -> Self {
        TruncatedNormal::new(mean, sd, min, f64::INFINITY)
    }
}

impl Distribution for TruncatedNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        for _ in 0..64 {
            let x = self.base.sample(rng);
            if x >= self.min && x <= self.max {
                return x;
            }
        }
        self.base.mean.clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_sd(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = SimRng::seed_from(1);
        let d = Uniform::new(2.0, 6.0);
        let xs = d.sample_n(&mut rng, 20_000);
        assert!(xs.iter().all(|&x| (2.0..6.0).contains(&x)));
        let (m, _) = mean_sd(&xs);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seed_from(2);
        let d = Exponential::new(100.0);
        let (m, sd) = mean_sd(&d.sample_n(&mut rng, 50_000));
        assert!((m - 100.0).abs() < 2.0, "mean {m}");
        assert!((sd - 100.0).abs() < 3.0, "sd {sd}"); // exp: sd == mean
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SimRng::seed_from(3);
        let d = Normal::new(10.0, 3.0);
        let (m, sd) = mean_sd(&d.sample_n(&mut rng, 50_000));
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        assert!((sd - 3.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn lognormal_from_mean_cv_hits_target_mean() {
        let mut rng = SimRng::seed_from(4);
        let d = LogNormal::from_mean_cv(8671.0, 1.5);
        assert!((d.mean() - 8671.0).abs() < 1e-6);
        let (m, _) = mean_sd(&d.sample_n(&mut rng, 200_000));
        assert!((m / 8671.0 - 1.0).abs() < 0.05, "empirical mean {m}");
    }

    #[test]
    fn lognormal_strictly_positive() {
        let mut rng = SimRng::seed_from(5);
        let d = LogNormal::from_mean_cv(1.0, 3.0);
        assert!(d.sample_n(&mut rng, 10_000).iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gamma_moments_match() {
        let mut rng = SimRng::seed_from(21);
        for (shape, scale) in [(0.5, 2.0), (1.0, 3.0), (4.2, 0.94), (9.0, 0.5)] {
            let d = Gamma::new(shape, scale);
            let xs = d.sample_n(&mut rng, 60_000);
            let (m, sd) = mean_sd(&xs);
            let expect_m = shape * scale;
            let expect_sd = shape.sqrt() * scale;
            assert!(
                (m / expect_m - 1.0).abs() < 0.05,
                "shape {shape}: mean {m} vs {expect_m}"
            );
            assert!(
                (sd / expect_sd - 1.0).abs() < 0.08,
                "shape {shape}: sd {sd} vs {expect_sd}"
            );
            assert!(xs.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn weibull_moments_match() {
        let mut rng = SimRng::seed_from(23);
        for (shape, scale) in [(0.7, 100.0), (1.0, 50.0), (1.5, 604_800.0)] {
            let d = Weibull::new(shape, scale);
            let xs = d.sample_n(&mut rng, 60_000);
            let (m, _) = mean_sd(&xs);
            assert!(
                (m / d.mean() - 1.0).abs() < 0.05,
                "shape {shape}: mean {m} vs {}",
                d.mean()
            );
            assert!(xs.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // Same inverse-CDF transform, so same mean and matching analytics.
        let d = Weibull::new(1.0, 250.0);
        assert!((d.mean() - 250.0).abs() < 1e-9, "mean {}", d.mean());
    }

    #[test]
    fn mixture_blends_components() {
        let mut rng = SimRng::seed_from(22);
        let d = Mixture::new(0.3, Uniform::new(0.0, 1.0), Uniform::new(10.0, 11.0));
        let xs = d.sample_n(&mut rng, 20_000);
        let low = xs.iter().filter(|&&x| x < 5.0).count() as f64 / xs.len() as f64;
        assert!((low - 0.3).abs() < 0.02, "component weight {low}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = SimRng::seed_from(6);
        let d = TruncatedNormal::new(1.0, 5.0, 0.5, 2.0);
        let xs = d.sample_n(&mut rng, 10_000);
        assert!(xs.iter().all(|&x| (0.5..=2.0).contains(&x)));
    }

    #[test]
    fn truncated_normal_degenerate_falls_back_to_clamp() {
        // Mean far outside a narrow band: rejection will fail, clamp kicks in.
        let mut rng = SimRng::seed_from(7);
        let d = TruncatedNormal::new(100.0, 0.001, 0.0, 1.0);
        let x = d.sample(&mut rng);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn at_least_has_no_upper_bound() {
        let mut rng = SimRng::seed_from(8);
        let d = TruncatedNormal::at_least(4.0, 1.0, 1.0);
        let xs = d.sample_n(&mut rng, 10_000);
        assert!(xs.iter().all(|&x| x >= 1.0));
        let (m, _) = mean_sd(&xs);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
    }
}
