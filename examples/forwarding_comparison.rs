//! Forwarding-algorithm comparison: reproduce the paper's §6 experiment on
//! one synthetic dataset.
//!
//! Runs all six forwarding algorithms (Epidemic, FRESH, Greedy, Greedy
//! Total, Greedy Online, Dynamic Programming) over the same Poisson message
//! workload through the study pipeline and prints, from the typed report,
//! the Fig. 9 summary (delay vs success rate), the Fig. 13 pair-type
//! breakdown, and the "similar performance" observation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example forwarding_comparison
//! ```

use psn::prelude::*;
use psn::report::{Block, CellValue, Section, TextRenderer};
use psn::study::{run_study, StudyParams, StudyScenario};
use psn::{StudyId, StudySpec, StudyView};

/// The value of the scalar `name` in `section`, when the section has it.
fn scalar(section: &Section, name: &str) -> Option<f64> {
    section.scalars().into_iter().find(|s| s.name == name).map(|s| s.value)
}

fn main() {
    let profile = ExperimentProfile::Quick;
    let dataset = DatasetId::Conext06Morning;
    println!("running the forwarding study on {dataset} (quick profile)...\n");

    let spec = StudySpec::new(
        StudyId::Forwarding,
        vec![StudyScenario::dataset(dataset, profile)],
        StudyParams::for_profile(profile),
    )
    .with_views(vec![StudyView::DelayVsSuccess, StudyView::PairTypePerformance]);
    let report = run_study(&spec.plan().expect("a valid spec"));
    let [fig9, fig13] = report.doc.sections.as_slice() else {
        unreachable!("one section per planned view");
    };

    if let Some(Block::Title(title)) = fig9.blocks.first() {
        println!("{title}\n");
    }
    println!("algorithm              success-rate   avg-delay");
    let rows = fig9.blocks.iter().find_map(|block| match block {
        Block::Table(table) => Some(&table.rows),
        _ => None,
    });
    for row in rows.expect("Fig. 9 tabulates every algorithm") {
        let [CellValue::Text(algorithm), CellValue::Float(success), delay] = row.as_slice() else {
            unreachable!("Fig. 9 rows are (algorithm, success rate, average delay)");
        };
        let delay = match delay {
            CellValue::Float(d) => format!("{d:>7.0} s"),
            _ => "      -".to_string(),
        };
        println!("{algorithm:<22} {success:>10.2}   {delay}");
    }
    let spread = scalar(fig9, "success-rate spread across non-epidemic algorithms")
        .expect("Fig. 9 carries the success spread");
    println!("\nsuccess-rate spread across the five non-epidemic algorithms: {spread:.3}");
    println!(
        "(the paper's observation: algorithms with very different strategies perform similarly)"
    );

    println!("\n{}", TextRenderer.render_section(fig13));
}
