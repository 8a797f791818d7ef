//! Kurtz-limit convergence check.
//!
//! Proposition 2 of the paper invokes Kurtz's theorem: as the population
//! size N grows, the empirical density of per-node path counts produced by
//! the stochastic jump process converges (uniformly over finite state
//! prefixes and finite time) to the deterministic ODE solution. This module
//! quantifies that statement: [`convergence_error`] runs the jump process
//! for a given N and measures the maximum absolute difference between the
//! empirical density and the truncated ODE density over the first `K`
//! states. The test-suite and the `model` preset (`psn-study run --preset
//! model`) check that the error shrinks as N grows, which is the reproducible, finite-N version of
//! the paper's limit argument.

use crate::homogeneous::HomogeneousModel;
use crate::markov::{JumpProcessConfig, PathCountJumpProcess};

/// Runs the jump process with `nodes` nodes and compares its final-time
/// empirical path-count density with the ODE prediction, returning
/// `max_{0 <= k <= compare_states} |u_k^{empirical} − u_k^{ODE}|`.
///
/// `replications` independent runs are averaged on the stochastic side to
/// reduce noise; the comparison time is `horizon`.
pub fn convergence_error(
    nodes: usize,
    lambda: f64,
    horizon: f64,
    compare_states: usize,
    replications: usize,
    seed: u64,
) -> f64 {
    assert!(compare_states >= 1);

    // Stochastic side.
    let config =
        JumpProcessConfig::with_even_samples(nodes, lambda, horizon, 1, replications, seed);
    let result = PathCountJumpProcess::new(config).run();
    let empirical = &result.final_density;

    // Deterministic side. Truncate well above the comparison range so
    // truncation error does not pollute the comparison.
    let max_state = (compare_states * 4).max(32);
    let model = HomogeneousModel::new(lambda, max_state);
    let solution = model.integrate(nodes, horizon, (horizon / 400.0).max(1e-3));
    let ode_density = model.density_at(&solution, horizon);

    let mut sup: f64 = 0.0;
    for k in 0..=compare_states {
        let emp = empirical.get(k).copied().unwrap_or(0.0);
        let ode = ode_density.density.get(k).copied().unwrap_or(0.0);
        sup = sup.max((emp - ode).abs());
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_bounded_and_small_for_moderate_populations() {
        let err = convergence_error(200, 0.02, 100.0, 8, 20, 7);
        assert!(err < 0.08, "convergence error {err}");
    }

    #[test]
    fn error_shrinks_with_population_size() {
        // Average over a few seeds to keep the comparison stable.
        let mean_err = |n: usize| -> f64 {
            (0..3).map(|s| convergence_error(n, 0.03, 80.0, 6, 10, 100 + s)).sum::<f64>() / 3.0
        };
        let small = mean_err(30);
        let large = mean_err(300);
        assert!(
            large < small + 0.02,
            "expected error to shrink (or stay comparable): small-N {small}, large-N {large}"
        );
    }
}
