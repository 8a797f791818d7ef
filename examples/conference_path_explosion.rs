//! Path explosion at a conference: reproduce the paper's §4–§5 story on one
//! synthetic dataset.
//!
//! The example runs the path-explosion study (Figs. 4–8 at reduced scale)
//! over a conference trace through the study pipeline and prints the key
//! observations from the typed report: optimal path durations are often
//! long, times to explosion are short, the two are essentially
//! uncorrelated, and the structure is explained by the source/destination
//! contact-rate classes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example conference_path_explosion
//! ```

use psn::prelude::*;
use psn::report::{Block, Section, TextRenderer};
use psn::study::{run_study, StudyParams, StudyScenario};
use psn::{StudyId, StudySpec, StudyView};

/// The value of the scalar `name` in `section`, when the section has it.
fn scalar(section: &Section, name: &str) -> Option<f64> {
    section.scalars().into_iter().find(|s| s.name == name).map(|s| s.value)
}

fn main() {
    let profile = ExperimentProfile::Quick;
    let dataset = DatasetId::Infocom06Morning;
    println!("running the path-explosion study on {dataset} (quick profile)...\n");

    let params = StudyParams::for_profile(profile).with_threads(4);
    let threshold = params.explosion_threshold;
    let spec =
        StudySpec::new(StudyId::Explosion, vec![StudyScenario::dataset(dataset, profile)], params)
            .with_views(vec![
                StudyView::ExplosionCdfs,
                StudyView::ExplosionScatter,
                StudyView::ExplosionPairTypes,
            ]);
    let report = run_study(&spec.plan().expect("a valid spec"));
    let [cdfs, scatter, pair_types] = report.doc.sections.as_slice() else {
        unreachable!("one section per planned view");
    };

    // Fig. 8 splits the exploded messages' (T1, TE) points by pair type.
    let panels: Vec<_> = pair_types
        .blocks
        .iter()
        .filter_map(|block| match block {
            Block::Series(series) => Some(series),
            _ => None,
        })
        .collect();
    let messages = scalar(cdfs, "messages").expect("Fig. 4 counts its messages");
    let exploded: usize = panels.iter().map(|panel| panel.points.len()).sum();
    println!(
        "{messages} messages analysed, {:.0}% delivered, {:.0}% reached the explosion threshold \
         ({threshold} paths)",
        scalar(cdfs, "delivery_fraction").expect("Fig. 4 carries its delivery fraction") * 100.0,
        exploded as f64 / messages * 100.0,
    );

    if let Some(f) = scalar(cdfs, "fraction with optimal duration > 1000 s") {
        println!("optimal path duration over 1000 s: {:.0}% of delivered messages", f * 100.0);
    }
    if let Some(f) = scalar(cdfs, "fraction with TE <= 150 s") {
        println!("time to explosion within 150 s:   {:.0}% of exploded messages", f * 100.0);
    }
    if let Some(r) = scalar(scatter, "Pearson correlation") {
        println!(
            "Pearson correlation between T1 and TE: {r:.3} (the paper finds no clear relationship)"
        );
    }

    println!("\nper pair type (Fig. 8):");
    for panel in panels {
        if panel.points.is_empty() {
            println!("  {:<8} no exploded messages", panel.name);
            continue;
        }
        let count = panel.points.len() as f64;
        let mean_t1 = panel.points.iter().map(|p| p.0).sum::<f64>() / count;
        let mean_te = panel.points.iter().map(|p| p.1).sum::<f64>() / count;
        println!(
            "  {:<8} {:>3} messages   mean T1 {:>6.0} s   mean TE {:>6.0} s",
            panel.name,
            panel.points.len(),
            mean_t1,
            mean_te
        );
    }

    println!("\n{}", TextRenderer.render_section(cdfs));
}
