//! Path explosion at a conference: reproduce the paper's §4–§5 story on one
//! synthetic dataset.
//!
//! The example generates a conference trace, runs the path-explosion study
//! (Figs. 4–8 at reduced scale), and prints the key observations: optimal
//! path durations are often long, times to explosion are short, the two are
//! essentially uncorrelated, and the structure is explained by the
//! source/destination contact-rate classes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example conference_path_explosion
//! ```

use psn::experiments::explosion::run_explosion_study;
use psn::prelude::*;
use psn::report::TextRenderer;

fn main() {
    let profile = ExperimentProfile::Quick;
    let dataset = DatasetId::Infocom06Morning;
    println!("running the path-explosion study on {dataset} (quick profile)...\n");

    let study = run_explosion_study(profile, dataset, 4);

    println!(
        "{} messages analysed, {:.0}% delivered, {:.0}% reached the explosion threshold ({} paths)",
        study.summary.len(),
        study.summary.delivery_fraction() * 100.0,
        study.summary.explosion_fraction() * 100.0,
        study.explosion_threshold
    );

    if let Some(cdf) = study.summary.optimal_duration_cdf() {
        println!(
            "optimal path duration: median {:.0} s, 90th percentile {:.0} s",
            cdf.quantile(0.5).unwrap(),
            cdf.quantile(0.9).unwrap()
        );
    }
    if let Some(cdf) = study.summary.time_to_explosion_cdf() {
        println!(
            "time to explosion:     median {:.0} s, 90th percentile {:.0} s",
            cdf.quantile(0.5).unwrap(),
            cdf.quantile(0.9).unwrap()
        );
    }
    if let Some(r) = study.t1_te_correlation {
        println!(
            "Pearson correlation between T1 and TE: {r:.3} (the paper finds no clear relationship)"
        );
    }

    println!("\nper pair type (Fig. 8):");
    for panel in &study.by_pair_type {
        if panel.points.is_empty() {
            println!("  {:<8} no exploded messages", panel.pair_type.to_string());
            continue;
        }
        let mean_t1: f64 =
            panel.points.iter().map(|p| p.0).sum::<f64>() / panel.points.len() as f64;
        let mean_te: f64 =
            panel.points.iter().map(|p| p.1).sum::<f64>() / panel.points.len() as f64;
        println!(
            "  {:<8} {:>3} messages   mean T1 {:>6.0} s   mean TE {:>6.0} s",
            panel.pair_type.to_string(),
            panel.points.len(),
            mean_t1,
            mean_te
        );
    }

    println!("\n{}", TextRenderer.render_section(&study.cdfs_section()));
}
