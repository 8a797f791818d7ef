//! First-class scenario sweeps: grids over scenario parameters.
//!
//! A [`ScenarioSweep`] is a **base** [`ScenarioConfig`] plus a set of
//! [`SweepAxis`]es — named numeric generator fields with the values each
//! should take — optionally crossed with a list of generator seeds.
//! [`ScenarioSweep::expand`] walks the cartesian product and yields one
//! [`SweepCell`] per grid point: a uniquely labelled, fully resolved
//! scenario configuration the study pipeline can run like any other
//! scenario. Field assignment goes through the document model of
//! [`ScenarioConfig::with_field`] and every finished cell is validated, so
//! typos, type mismatches and values the generator cannot run with fail
//! with the same errors a config file would produce.
//!
//! Sweeps are config-file loadable in the same TOML subset / JSON formats
//! as scenarios:
//!
//! ```toml
//! name = "community-grid"
//! study = "forwarding"         # optional hint for the study runner
//! seeds = [1, 2]               # optional; crossed with the grid
//!
//! [base]                       # an ordinary scenario config
//! kind = "community"
//! communities = 3
//! nodes_per_community = 8
//!
//! [axes]                       # field = [values]
//! intra_inter_ratio = [2.0, 8.0]
//! nodes_per_community = [6, 12]
//! params.k = [50, 200]         # a study-parameter axis, applied by the
//!                              # study layer, not the scenario config
//! ```
//!
//! Axes prefixed `params.` vary **study parameters** (`params.k`,
//! `params.messages`, `params.runs`) instead of scenario fields: the
//! scenario config is left untouched, so every cell along such an axis
//! shares one scenario fingerprint and the artifact layer generates the
//! trace (and the structures derived from it) exactly once for the whole
//! axis.
//!
//! # Example
//!
//! ```
//! use psn_trace::sweep::ScenarioSweep;
//!
//! let toml = r#"
//! name = "ratio-sweep"
//! [base]
//! kind = "community"
//! name = "base"
//! [axes]
//! intra_inter_ratio = [2.0, 8.0]
//! "#;
//! let sweep = ScenarioSweep::from_toml_str(toml).unwrap();
//! let cells = sweep.expand().unwrap();
//! assert_eq!(cells.len(), 2);
//! assert_eq!(cells[0].label, "ratio-sweep intra_inter_ratio=2");
//! ```

use crate::scenario::{doc, ScenarioConfig, ScenarioError};

/// One sweep axis: a scenario field name and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The scenario config field to vary (e.g. `intra_inter_ratio`,
    /// `nodes_per_community`, `max_node_rate`), or a study-parameter
    /// axis prefixed with `params.` (e.g. `params.k`,
    /// `params.messages`, `params.runs`). Study-parameter axes are
    /// carried through to the study layer, which validates and applies
    /// them; the scenario config is left untouched, so every cell along
    /// such an axis shares one trace fingerprint — the artifact layer
    /// then generates the trace exactly once for the whole axis.
    pub field: String,
    /// The grid values, in sweep order.
    pub values: Vec<f64>,
}

impl SweepAxis {
    /// True if this axis varies a study parameter (`params.*`) rather
    /// than a scenario config field.
    pub fn is_param_axis(&self) -> bool {
        self.field.starts_with(PARAM_AXIS_PREFIX)
    }
}

/// The field prefix marking a study-parameter axis.
pub const PARAM_AXIS_PREFIX: &str = "params.";

/// A declarative scenario sweep: a base config, the axes to vary, and
/// optional seed replications.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweep {
    /// Sweep name; cell labels are prefixed with it.
    pub name: String,
    /// Optional study hint for the runner (`psn-study sweep` uses it when
    /// `--study` is not given; the trace layer does not interpret it).
    pub study: Option<String>,
    /// The base scenario every cell starts from.
    pub base: ScenarioConfig,
    /// The grid axes, crossed in order (first axis varies slowest).
    pub axes: Vec<SweepAxis>,
    /// Generator seeds crossed with the grid; empty means the base
    /// config's own seed.
    pub seeds: Vec<u64>,
}

/// One resolved grid point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Unique human-readable label
    /// (`<sweep> <field>=<v> … [seed=<s>]`), used as the scenario label in
    /// study reports.
    pub label: String,
    /// The axis assignments of this cell, in axis order.
    pub assignments: Vec<(String, f64)>,
    /// The explicit seed replication, or `None` for the base seed.
    pub seed: Option<u64>,
    /// The fully resolved scenario configuration.
    pub config: ScenarioConfig,
}

/// Formats an axis value for cell labels: integral values drop the
/// decimal point (`ratio=2`, not `ratio=2.0`).
fn axis_value_label(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

impl ScenarioSweep {
    /// Creates a sweep with no axes and no seed replications (a single
    /// cell: the base config).
    pub fn new(name: impl Into<String>, base: ScenarioConfig) -> Self {
        Self { name: name.into(), study: None, base, axes: Vec::new(), seeds: Vec::new() }
    }

    /// Number of grid cells `expand` will produce.
    pub fn cell_count(&self) -> usize {
        let grid: usize = self.axes.iter().map(|a| a.values.len().max(1)).product();
        grid * self.seeds.len().max(1)
    }

    /// Expands the sweep into its grid cells: the cartesian product of the
    /// axes (first axis slowest) crossed with the seeds.
    ///
    /// # Errors
    ///
    /// Rejects duplicate axis fields, empty value lists, values that are
    /// numerically equal or would render identical cell labels (`0.1` vs
    /// `0.10` parse to the same number; the error points this out so the
    /// config spelling is fixable), duplicate seed replications, and any
    /// assignment the scenario schema rejects (unknown field, integer
    /// field given a fractional value, …) or cell the generator cannot
    /// run with (checked once all of the cell's axes are applied).
    pub fn expand(&self) -> Result<Vec<SweepCell>, ScenarioError> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.values.is_empty() {
                return Err(ScenarioError::new(format!(
                    "sweep axis {:?} has no values",
                    axis.field
                )));
            }
            let mut sorted = axis.values.clone();
            sorted.sort_by(f64::total_cmp);
            if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return Err(ScenarioError::new(format!(
                    "sweep axis {:?} lists the value {} twice — two spellings of one number \
                     (e.g. 0.1 and 0.10) would produce ambiguous, identically-labelled cells",
                    axis.field,
                    axis_value_label(w[0]),
                )));
            }
            if self.axes[..i].iter().any(|other| other.field == axis.field) {
                return Err(ScenarioError::new(format!("duplicate sweep axis {:?}", axis.field)));
            }
            if axis.is_param_axis() && axis.field.len() == PARAM_AXIS_PREFIX.len() {
                return Err(ScenarioError::new(
                    "sweep axis \"params.\" names no parameter (expected e.g. params.k)",
                ));
            }
        }
        let mut sorted_seeds = self.seeds.clone();
        sorted_seeds.sort_unstable();
        if let Some(w) = sorted_seeds.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScenarioError::new(format!(
                "seed {} is listed twice — replications would collide in one cell label",
                w[0]
            )));
        }

        let mut cells = Vec::with_capacity(self.cell_count());
        let mut odometer = vec![0usize; self.axes.len()];
        loop {
            // Resolve the current grid point.
            let mut config = self.base.clone();
            let mut assignments = Vec::with_capacity(self.axes.len());
            let mut label = self.name.clone();
            for (axis, &index) in self.axes.iter().zip(&odometer) {
                let value = axis.values[index];
                if !axis.is_param_axis() {
                    // Study-parameter axes leave the scenario untouched;
                    // the study layer applies them, and all cells along
                    // the axis share one scenario fingerprint.
                    config = config.assign_field(&axis.field, value)?;
                }
                assignments.push((axis.field.clone(), value));
                label.push_str(&format!(" {}={}", axis.field, axis_value_label(value)));
            }
            config.validate()?;
            if self.seeds.is_empty() {
                cells.push(SweepCell { label, assignments, seed: None, config });
            } else {
                for &seed in &self.seeds {
                    cells.push(SweepCell {
                        label: format!("{label} seed={seed}"),
                        assignments: assignments.clone(),
                        seed: Some(seed),
                        config: config.with_seed(seed),
                    });
                }
            }

            // Advance the odometer (last axis fastest).
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    // Backstop: whatever the axis/seed validation above
                    // missed, two cells must never render the same label —
                    // summary rows and report sections are keyed by it.
                    let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
                    labels.sort_unstable();
                    if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
                        return Err(ScenarioError::new(format!(
                            "two sweep cells render the identical label {:?} — axis values or \
                             seeds that format identically must be disambiguated",
                            w[0]
                        )));
                    }
                    return Ok(cells);
                }
                pos -= 1;
                odometer[pos] += 1;
                if odometer[pos] < self.axes[pos].values.len() {
                    break;
                }
                odometer[pos] = 0;
            }
        }
    }

    /// Parses a sweep from TOML text.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_toml(text, "sweep")?)
    }

    /// Parses a sweep from a JSON object.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_json(text, "sweep")?)
    }

    /// Parses a sweep from either format, auto-detected like scenario
    /// configs.
    pub fn from_config_str(text: &str) -> Result<Self, ScenarioError> {
        match text.trim_start().starts_with('{') {
            true => Self::from_json_str(text),
            false => Self::from_toml_str(text),
        }
    }

    /// Loads a sweep from a config file, dispatching on the extension and
    /// falling back to content auto-detection.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(format!("reading {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            Some("toml") => Self::from_toml_str(&text),
            _ => Self::from_config_str(&text),
        }
    }

    /// Serialises the sweep to TOML; `from_toml_str` round-trips it.
    pub fn to_toml_string(&self) -> String {
        doc::write_toml(&self.to_doc())
    }

    /// Serialises the sweep to JSON; `from_json_str` round-trips it.
    pub fn to_json_string(&self) -> String {
        doc::write_json(&self.to_doc())
    }

    fn from_doc(mut top: doc::Table) -> Result<Self, ScenarioError> {
        let base = ScenarioConfig::from_doc(top.take_table("base")?)?;
        let name = top.take_string_or("name", format!("{}-sweep", base.name()))?;
        let study = top.take_string_opt("study")?;
        let mut seeds = Vec::new();
        for raw in top.take_f64_array_or("seeds", Vec::new())? {
            if raw.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&raw) {
                return Err(ScenarioError::new(format!(
                    "seeds: {raw} is not a non-negative integer"
                )));
            }
            seeds.push(raw as u64);
        }
        let mut axes = Vec::new();
        if let Some(axes_table) = top.take_table_opt("axes") {
            for (field, value) in axes_table.take_all() {
                match value {
                    doc::Value::Arr(values) => axes.push(SweepAxis { field, values }),
                    other => {
                        return Err(ScenarioError::new(format!(
                            "axes: field {field:?} must be an array of numbers, got {other:?}"
                        )))
                    }
                }
            }
        }
        top.finish()?;
        Ok(Self { name, study, base, axes, seeds })
    }

    fn to_doc(&self) -> doc::Table {
        let mut top = doc::Table::new("sweep");
        top.set_string("name", &self.name);
        if let Some(study) = &self.study {
            top.set_string("study", study);
        }
        if !self.seeds.is_empty() {
            top.set_f64_array("seeds", self.seeds.iter().map(|&s| s as f64).collect());
        }
        top.set_table("base", self.base.to_doc());
        if !self.axes.is_empty() {
            let mut axes = doc::Table::new("axes");
            for axis in &self.axes {
                axes.set_f64_array(&axis.field, axis.values.clone());
            }
            top.set_table("axes", axes);
        }
        top
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::generator::config::{CommunityConfig, ConferenceConfig, ScaledConfig};

    fn base() -> ScenarioConfig {
        ScenarioConfig::Community(CommunityConfig {
            name: "base".into(),
            communities: 3,
            nodes_per_community: 8,
            window_seconds: 1200.0,
            max_node_rate: 0.05,
            intra_inter_ratio: 4.0,
            mean_contact_duration: 60.0,
            contact_duration_cv: 0.5,
            seed: 7,
        })
    }

    fn grid_sweep() -> ScenarioSweep {
        ScenarioSweep {
            name: "community-grid".into(),
            study: Some("activity".into()),
            base: base(),
            axes: vec![
                SweepAxis { field: "intra_inter_ratio".into(), values: vec![2.0, 8.0] },
                SweepAxis { field: "nodes_per_community".into(), values: vec![6.0, 12.0] },
            ],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn expansion_covers_the_cartesian_product_times_seeds() {
        let sweep = grid_sweep();
        assert_eq!(sweep.cell_count(), 8);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 8);

        // First axis slowest, seeds fastest; labels are unique and carry
        // every assignment.
        assert_eq!(
            cells[0].label,
            "community-grid intra_inter_ratio=2 nodes_per_community=6 seed=1"
        );
        assert_eq!(
            cells[1].label,
            "community-grid intra_inter_ratio=2 nodes_per_community=6 seed=2"
        );
        assert_eq!(
            cells[2].label,
            "community-grid intra_inter_ratio=2 nodes_per_community=12 seed=1"
        );
        assert_eq!(
            cells[7].label,
            "community-grid intra_inter_ratio=8 nodes_per_community=12 seed=2"
        );
        let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8, "labels must be unique");

        // Assignments are applied to the configs.
        for cell in &cells {
            let ScenarioConfig::Community(c) = &cell.config else {
                panic!("family preserved");
            };
            assert_eq!(c.intra_inter_ratio, cell.assignments[0].1);
            assert_eq!(c.nodes_per_community as f64, cell.assignments[1].1);
            assert_eq!(Some(c.seed), cell.seed);
        }
    }

    #[test]
    fn no_seeds_means_base_seed_and_no_suffix() {
        let mut sweep = grid_sweep();
        sweep.seeds.clear();
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].label, "community-grid intra_inter_ratio=2 nodes_per_community=6");
        assert_eq!(cells[0].seed, None);
        assert_eq!(cells[0].config.seed(), 7);
    }

    #[test]
    fn no_axes_yields_the_base_cell() {
        let sweep = ScenarioSweep::new("plain", base());
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "plain");
        assert_eq!(cells[0].config, base());
    }

    #[test]
    fn invalid_axes_are_rejected() {
        let mut sweep = grid_sweep();
        sweep.axes[0].field = "no_such_field".into();
        let err = sweep.expand().expect_err("unknown field");
        assert!(err.to_string().contains("no_such_field"), "{err}");

        let mut sweep = grid_sweep();
        sweep.axes[1].values = vec![6.5];
        let err = sweep.expand().expect_err("fractional value for an integer field");
        assert!(err.to_string().contains("integer"), "{err}");

        let mut sweep = grid_sweep();
        sweep.axes[1].field = "intra_inter_ratio".into();
        assert!(sweep.expand().is_err(), "duplicate axis");

        let mut sweep = grid_sweep();
        sweep.axes[0].values.clear();
        assert!(sweep.expand().is_err(), "empty axis");

        let mut sweep = grid_sweep();
        sweep.axes[0].values = vec![2.0, 2.0];
        assert!(sweep.expand().is_err(), "duplicate value");

        // Setting a string field numerically is a type error.
        assert!(base().with_field("kind", 1.0).is_err());
        assert!(base().with_field("name", 1.0).is_err());
    }

    #[test]
    fn sweep_cells_are_validated_once_every_axis_is_applied() {
        let conference = ScenarioConfig::Conference(ConferenceConfig::default());
        let max = ConferenceConfig::default().max_node_rate;
        let axis = |field: &str, values: Vec<f64>| SweepAxis { field: field.into(), values };

        // A cell the generator cannot run with fails expansion, naming the key.
        let mut sweep = ScenarioSweep::new("bad", conference.clone());
        sweep.axes = vec![axis("max_node_rate", vec![max, -1.0])];
        let err = sweep.expand().expect_err("negative max_node_rate");
        assert!(err.to_string().contains("\"max_node_rate\""), "{err}");

        // Raising min_node_rate past the base's max is fine when a later
        // axis raises max_node_rate above it in every cell.
        sweep.axes = vec![
            axis("min_node_rate", vec![2.0 * max]),
            axis("max_node_rate", vec![3.0 * max, 4.0 * max]),
        ];
        assert_eq!(sweep.expand().expect("every finished cell is valid").len(), 2);

        // The scaled family's generator preconditions are checked per cell
        // too.
        let defaults = ScaledConfig::default();
        let scaled = ScenarioConfig::Scaled(defaults.clone());
        for (field, good, bad) in [
            ("nodes", defaults.nodes as f64, 1.0),
            ("max_node_rate", defaults.max_node_rate, -1.0),
            ("window_seconds", defaults.window_seconds, 0.0),
        ] {
            let mut sweep = ScenarioSweep::new("bad-scaled", scaled.clone());
            sweep.axes = vec![axis(field, vec![good, bad])];
            let err = sweep.expand().expect_err(field);
            assert!(err.to_string().contains(&format!("{field:?}")), "{field}: {err}");
        }
    }

    #[test]
    fn deeply_nested_sweep_json_is_an_error_not_a_stack_overflow() {
        let depth = 200_000;
        let deep = format!("{{\"axes\": {}{}}}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        let err = ScenarioSweep::from_json_str(&deep).expect_err("too deep");
        assert!(err.to_string().contains("nesting bound"), "{err}");
    }

    #[test]
    fn repeated_sweep_keys_are_errors() {
        let base = "[base]\nkind = \"homogeneous\"\n";
        for text in [
            format!("name = \"a\"\nname = \"b\"\n{base}"),
            format!("{base}nodes = 20\nnodes = 30\n"),
            format!("{base}[axes]\nnodes = [10]\n[base]\nnodes = 30\n[axes]\nnodes = [20]\n"),
            "{\"base\": {\"kind\": \"homogeneous\", \"seed\": 1, \"seed\": 2}}".to_string(),
        ] {
            let err = ScenarioSweep::from_config_str(&text).expect_err(&text);
            assert!(err.to_string().contains("duplicate key"), "{text}: {err}");
        }
    }

    #[test]
    fn top_level_sweep_errors_name_the_sweep() {
        let base = "[base]\nkind = \"homogeneous\"\n";
        for (text, expected) in [
            (format!("name = \"s\"\nbogus = 1\n{base}"), "sweep: unknown field \"bogus\""),
            (format!("name = \"a\"\nname = \"b\"\n{base}"), "duplicate key \"name\" in sweep"),
            (
                r#"{"name": "s", "bogus": 1, "base": {"kind": "homogeneous"}}"#.to_string(),
                "sweep: unknown field \"bogus\"",
            ),
            (
                r#"{"name": "a", "name": "b", "base": {"kind": "homogeneous"}}"#.to_string(),
                "duplicate key \"name\" in sweep",
            ),
        ] {
            let err = ScenarioSweep::from_config_str(&text).expect_err(&text).to_string();
            assert!(err.contains(expected), "{text}: {err}");
            assert!(!err.contains("scenario:") && !err.contains("in scenario"), "{text}: {err}");
        }
        // The scenario's own errors keep naming the scenario document.
        let err = ScenarioConfig::from_toml_str("kind = \"homogeneous\"\nbogus = 1\n")
            .expect_err("unknown field");
        assert!(err.to_string().contains("scenario: unknown field \"bogus\""), "{err}");
    }

    #[test]
    fn sweeps_round_trip_through_toml_and_json() {
        for sweep in [
            grid_sweep(),
            ScenarioSweep::new("plain", base()),
            ScenarioSweep { seeds: vec![], study: None, ..grid_sweep() },
        ] {
            let toml = sweep.to_toml_string();
            assert_eq!(
                ScenarioSweep::from_toml_str(&toml).expect("written toml reparses"),
                sweep,
                "toml:\n{toml}"
            );
            let json = sweep.to_json_string();
            assert_eq!(
                ScenarioSweep::from_json_str(&json).expect("written json reparses"),
                sweep,
                "json:\n{json}"
            );
        }
    }

    #[test]
    fn a_conference_base_round_trips_json_to_toml_to_parse() {
        let json = r#"{"name": "s", "base": {"kind": "conference", "name": "c"}, "axes": {"seed": [1, 2]}}"#;
        let sweep = ScenarioSweep::from_json_str(json).unwrap();
        let toml = sweep.to_toml_string();
        assert!(toml.contains("\n[base.activity]\n"), "{toml}");
        let reparsed = ScenarioSweep::from_toml_str(&toml).expect("written toml reparses");
        assert_eq!(reparsed, sweep, "toml:\n{toml}");
        assert_eq!(reparsed.base.canonical_identity(), sweep.base.canonical_identity());
    }

    #[test]
    fn parsing_applies_defaults_and_validates() {
        let toml = r#"
[base]
kind = "heterogeneous"
nodes = 20

[axes]
max_node_rate = [0.01, 0.05]
"#;
        let sweep = ScenarioSweep::from_toml_str(toml).unwrap();
        assert_eq!(sweep.name, "heterogeneous-n20-seed1-sweep");
        assert_eq!(sweep.study, None);
        assert!(sweep.seeds.is_empty());
        assert_eq!(sweep.axes.len(), 1);
        assert_eq!(sweep.expand().unwrap().len(), 2);

        let err = ScenarioSweep::from_toml_str("name = \"x\"\n").expect_err("base required");
        assert!(err.to_string().contains("base"), "{err}");

        let err = ScenarioSweep::from_toml_str("seeds = [1.5]\n[base]\nkind = \"homogeneous\"\n")
            .expect_err("fractional seed");
        assert!(err.to_string().contains("integer"), "{err}");

        let err = ScenarioSweep::from_toml_str("typo = 1\n[base]\nkind = \"homogeneous\"\n")
            .expect_err("unknown top-level field");
        assert!(err.to_string().contains("typo"), "{err}");
    }

    #[test]
    fn ambiguous_labels_are_rejected_at_load_time() {
        // Two spellings of one number parse to the same f64 and would
        // render identical cell labels; the sweep must refuse to load.
        let toml = r#"
[base]
kind = "heterogeneous"
nodes = 10
[axes]
max_node_rate = [0.1, 0.10]
"#;
        let err = ScenarioSweep::from_toml_str(toml).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        assert!(err.to_string().contains("0.1"), "{err}");

        // Duplicate seed replications collide in the `seed=` suffix.
        let mut sweep = grid_sweep();
        sweep.seeds = vec![1, 2, 1];
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("seed 1 is listed twice"), "{err}");
    }

    #[test]
    fn param_axes_ride_along_without_touching_the_scenario() {
        let toml = r#"
[base]
kind = "heterogeneous"
nodes = 12
[axes]
max_node_rate = [0.01, 0.05]
params.k = [50, 200]
"#;
        let sweep = ScenarioSweep::from_toml_str(toml).unwrap();
        assert!(sweep.axes[1].is_param_axis());
        assert!(!sweep.axes[0].is_param_axis());
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            // The scenario config carries the scenario axis only; the
            // params axis lives in the assignments and the label.
            assert_eq!(cell.assignments.len(), 2);
            assert_eq!(cell.assignments[1].0, "params.k");
            assert!(cell.label.contains("params.k="), "{}", cell.label);
        }
        // Cells along the params axis share the identical scenario config
        // (and therefore its fingerprint).
        assert_eq!(cells[0].config, cells[1].config);
        assert_eq!(cells[0].config.fingerprint(), cells[1].config.fingerprint());
        assert_ne!(cells[0].config, cells[2].config, "scenario axis still applies");

        let err = ScenarioSweep {
            axes: vec![SweepAxis { field: "params.".into(), values: vec![1.0] }],
            ..grid_sweep()
        }
        .expand()
        .unwrap_err();
        assert!(err.to_string().contains("names no parameter"), "{err}");
    }

    #[test]
    fn generated_cells_produce_distinct_traces_along_rate_axes() {
        let sweep = ScenarioSweep {
            name: "rates".into(),
            study: None,
            base: base(),
            axes: vec![SweepAxis { field: "intra_inter_ratio".into(), values: vec![1.0, 20.0] }],
            seeds: vec![],
        };
        let cells = sweep.expand().unwrap();
        let low = cells[0].config.generate();
        let high = cells[1].config.generate();
        assert_ne!(low.contacts(), high.contacts(), "axis must change the workload");
    }
}
