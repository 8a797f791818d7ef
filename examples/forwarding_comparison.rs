//! Forwarding-algorithm comparison: reproduce the paper's §6 experiment on
//! one synthetic dataset.
//!
//! Runs all six forwarding algorithms (Epidemic, FRESH, Greedy, Greedy
//! Total, Greedy Online, Dynamic Programming) over the same Poisson message
//! workload and prints the Fig. 9 summary (delay vs success rate), the
//! Fig. 13 pair-type breakdown, and the "similar performance" observation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example forwarding_comparison
//! ```

use psn::experiments::forwarding::run_forwarding_study;
use psn::prelude::*;
use psn::report::TextRenderer;

fn main() {
    let profile = ExperimentProfile::Quick;
    let dataset = DatasetId::Conext06Morning;
    println!("running the forwarding study on {dataset} (quick profile)...\n");

    let study = run_forwarding_study(profile, dataset, 0);

    println!("{} messages per run, {} runs\n", study.messages_per_run, study.runs);
    println!("algorithm              success-rate   avg-delay");
    for (kind, success, delay) in study.delay_vs_success() {
        println!(
            "{:<22} {:>10.2}   {}",
            kind.to_string(),
            success,
            delay.map(|d| format!("{d:>7.0} s")).unwrap_or_else(|| "      -".to_string())
        );
    }
    println!(
        "\nsuccess-rate spread across the five non-epidemic algorithms: {:.3}",
        study.non_epidemic_success_spread()
    );
    println!(
        "(the paper's observation: algorithms with very different strategies perform similarly)"
    );

    println!("\n{}", TextRenderer.render_section(&study.pair_type_section()));
}
