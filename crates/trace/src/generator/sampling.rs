//! Random-variate sampling helpers shared by the trace generators.
//!
//! Only the distributions actually needed are implemented (exponential,
//! log-normal via Box–Muller, Poisson process arrival times and their
//! thinning), keeping the dependency set to the plain `rand` crate.

use rand::Rng;

/// Draws an exponentially distributed variate with the given `rate`
/// (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Draws a standard normal variate using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a log-normal variate parameterised by the *mean* and *coefficient
/// of variation* of the resulting distribution (more convenient for
/// "contacts last about two minutes, give or take" style configuration than
/// the underlying μ/σ).
pub fn lognormal_mean_cv<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    assert!(mean > 0.0 && cv >= 0.0, "lognormal mean must be positive and cv non-negative");
    if cv == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * standard_normal(rng)).exp()
}

/// Replaces the contents of `times` with the arrival times of a
/// homogeneous Poisson process with intensity `rate` over `[0, horizon)`.
/// A non-positive rate gives no arrivals and consumes no draws.
pub fn poisson_process<R: Rng + ?Sized>(
    rng: &mut R,
    rate: f64,
    horizon: f64,
    times: &mut Vec<f64>,
) {
    assert!(horizon >= 0.0, "horizon must be non-negative");
    times.clear();
    if rate <= 0.0 {
        return;
    }
    let mut t = 0.0;
    loop {
        t += exponential(rng, rate);
        if t >= horizon {
            break;
        }
        times.push(t);
    }
}

/// Thins Poisson arrival times drawn at `rate * max_modulation` into an
/// *inhomogeneous* process of intensity `rate * modulation(t)`: keeps each
/// time `t` with probability `modulation(t) / max_modulation`, drawing one
/// uniform per time, in order.
pub fn thin_arrivals<R, F>(rng: &mut R, times: &mut Vec<f64>, max_modulation: f64, modulation: F)
where
    R: Rng + ?Sized,
    F: Fn(f64) -> f64,
{
    assert!(max_modulation > 0.0, "max modulation must be positive");
    times.retain(|&t| {
        let m = modulation(t);
        debug_assert!(m <= max_modulation + 1e-9, "modulation exceeds its declared maximum");
        rng.gen_range(0.0..1.0) < m / max_modulation
    });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng();
        let rate = 0.25;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn lognormal_mean_matches_parameter() {
        let mut r = rng();
        let n = 30_000;
        let mean: f64 =
            (0..n).map(|_| lognormal_mean_cv(&mut r, 120.0, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 120.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut r = rng();
        assert_eq!(lognormal_mean_cv(&mut r, 42.0, 0.0), 42.0);
    }

    #[test]
    fn poisson_process_count_matches_intensity() {
        let mut r = rng();
        let rate = 0.05;
        let horizon = 100_000.0;
        let mut times = Vec::new();
        poisson_process(&mut r, rate, horizon, &mut times);
        let expected = rate * horizon;
        assert!((times.len() as f64 - expected).abs() < 0.1 * expected);
        // Times are sorted and inside the horizon.
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(times.iter().all(|&t| t >= 0.0 && t < horizon));
    }

    #[test]
    fn poisson_process_zero_rate_is_empty() {
        let mut times = vec![1.0];
        let mut r = rng();
        poisson_process(&mut r, 0.0, 100.0, &mut times);
        assert!(times.is_empty());
        assert_eq!(r.gen_range(0.0..1.0), rng().gen_range(0.0..1.0), "no draws consumed");
        poisson_process(&mut rng(), 1.0, 0.0, &mut times);
        assert!(times.is_empty());
    }

    #[test]
    fn thinning_halves_the_count_for_half_modulation() {
        let mut r = rng();
        let rate = 0.1;
        let horizon = 50_000.0;
        let mut times = Vec::new();
        poisson_process(&mut r, rate, horizon, &mut times);
        let full = times.len() as f64;
        thin_arrivals(&mut r, &mut times, 1.0, |_| 0.5);
        let thinned = times.len() as f64;
        assert!((thinned / full - 0.5).abs() < 0.08, "ratio = {}", thinned / full);
    }

    #[test]
    fn thinning_with_unit_modulation_keeps_intensity() {
        let mut r = rng();
        let mut times = Vec::new();
        poisson_process(&mut r, 0.05, 20_000.0, &mut times);
        let drawn = times.clone();
        thin_arrivals(&mut r, &mut times, 1.0, |_| 1.0);
        assert_eq!(times, drawn, "unit modulation keeps every arrival");
        let expected = 0.05 * 20_000.0;
        assert!((times.len() as f64 - expected).abs() < 0.2 * expected);
    }
}
