//! Declarative scenario configurations.
//!
//! A [`ScenarioConfig`] names one synthetic workload family and carries its
//! full generator configuration. It unifies every generator in
//! [`crate::generator`] — the paper's conference stand-ins, the analytic
//! model's homogeneous population, the heterogeneous Fig. 7 population, and
//! the two extension families (community-structured mobility, scaled
//! populations) — behind one enum that the experiment layer (`psn`'s study
//! pipeline and the `psn-study` CLI) consumes without knowing which family
//! it is running.
//!
//! Scenarios are **config-file loadable**. The build environment vendors a
//! marker-only serde stand-in (no registry access), so the text formats are
//! implemented here directly: a TOML subset (flat `key = value` pairs plus
//! `[table]` sections, nested with dotted headers) and the equivalent JSON
//! object, read by the workspace's one JSON reader ([`crate::json`]), whose
//! string escapes the TOML strings share. The same document model backs
//! both, and [`ScenarioConfig::to_toml_string`] /
//! [`ScenarioConfig::to_json_string`] round-trip exactly (property-tested),
//! so configs can be generated, archived and replayed byte-for-byte. When
//! the real serde is swapped in (see ROADMAP), the derive markers on the
//! underlying config structs already advertise the right trait bounds.
//!
//! # Example
//!
//! ```
//! use psn_trace::scenario::ScenarioConfig;
//!
//! let toml = r#"
//! kind = "community"
//! name = "four-communities"
//! communities = 4
//! nodes_per_community = 25
//! window_seconds = 10800.0
//! max_node_rate = 0.045
//! intra_inter_ratio = 8.0
//! mean_contact_duration = 120.0
//! contact_duration_cv = 1.0
//! seed = 7
//! "#;
//! let scenario = ScenarioConfig::from_toml_str(toml).unwrap();
//! assert_eq!(scenario.node_count(), 100);
//! let trace = scenario.generate();
//! assert_eq!(trace.node_count(), 100);
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::generator::config::{
    ActivityProfile, CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig,
    ScaledConfig,
};
use crate::Seconds;

/// Error raised while parsing or validating a scenario config document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    message: String,
}

impl ScenarioError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario config error: {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// One declarative scenario: a workload family plus its generator
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioConfig {
    /// Conference stand-in (mobile + stationary nodes, activity profile,
    /// optional inquiry scan) — the paper's dataset family.
    Conference(ConferenceConfig),
    /// Homogeneous population (every pair at the same rate) — the analytic
    /// model's setting and the "no heterogeneity" ablation.
    Homogeneous(HomogeneousConfig),
    /// Heterogeneous per-node rates, uniform on `(0, max)` (Fig. 7).
    Heterogeneous(HeterogeneousConfig),
    /// Community-structured mobility with an intra/inter contact-rate
    /// ratio.
    Community(CommunityConfig),
    /// Scaled population (500–5000 nodes) with propensity scaling.
    Scaled(ScaledConfig),
}

impl ScenarioConfig {
    /// The machine-readable family tag used in config files.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioConfig::Conference(_) => "conference",
            ScenarioConfig::Homogeneous(_) => "homogeneous",
            ScenarioConfig::Heterogeneous(_) => "heterogeneous",
            ScenarioConfig::Community(_) => "community",
            ScenarioConfig::Scaled(_) => "scaled",
        }
    }

    /// All family tags accepted in config files.
    pub fn kinds() -> [&'static str; 5] {
        ["conference", "homogeneous", "heterogeneous", "community", "scaled"]
    }

    /// Human-readable scenario name. Families without a `name` field derive
    /// the same name their generated trace will carry.
    pub fn name(&self) -> String {
        match self {
            ScenarioConfig::Conference(c) => c.name.clone(),
            ScenarioConfig::Homogeneous(c) => format!("homogeneous-n{}-seed{}", c.nodes, c.seed),
            ScenarioConfig::Heterogeneous(c) => {
                format!("heterogeneous-n{}-seed{}", c.nodes, c.seed)
            }
            ScenarioConfig::Community(c) => c.name.clone(),
            ScenarioConfig::Scaled(c) => c.name.clone(),
        }
    }

    /// Total number of nodes the scenario will generate.
    pub fn node_count(&self) -> usize {
        match self {
            ScenarioConfig::Conference(c) => c.total_nodes(),
            ScenarioConfig::Homogeneous(c) => c.nodes,
            ScenarioConfig::Heterogeneous(c) => c.nodes,
            ScenarioConfig::Community(c) => c.total_nodes(),
            ScenarioConfig::Scaled(c) => c.nodes,
        }
    }

    /// Observation-window length in seconds.
    pub fn window_seconds(&self) -> Seconds {
        match self {
            ScenarioConfig::Conference(c) => c.window_seconds,
            ScenarioConfig::Homogeneous(c) => c.window_seconds,
            ScenarioConfig::Heterogeneous(c) => c.window_seconds,
            ScenarioConfig::Community(c) => c.window_seconds,
            ScenarioConfig::Scaled(c) => c.window_seconds,
        }
    }

    /// The generator RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            ScenarioConfig::Conference(c) => c.seed,
            ScenarioConfig::Homogeneous(c) => c.seed,
            ScenarioConfig::Heterogeneous(c) => c.seed,
            ScenarioConfig::Community(c) => c.seed,
            ScenarioConfig::Scaled(c) => c.seed,
        }
    }

    /// Returns a copy with a different generator seed — the hook the study
    /// pipeline uses to expand one scenario into independent replications.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut out = self.clone();
        match &mut out {
            ScenarioConfig::Conference(c) => c.seed = seed,
            ScenarioConfig::Homogeneous(c) => c.seed = seed,
            ScenarioConfig::Heterogeneous(c) => c.seed = seed,
            ScenarioConfig::Community(c) => c.seed = seed,
            ScenarioConfig::Scaled(c) => c.seed = seed,
        }
        out
    }

    /// Parses a scenario from TOML text (the subset described in the
    /// module docs).
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_toml(text, "scenario")?)
    }

    /// Parses a scenario from a JSON object.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_json(text, "scenario")?)
    }

    /// Parses a scenario from either format, auto-detected: JSON when the
    /// first non-whitespace character is `{`, TOML otherwise.
    pub fn from_config_str(text: &str) -> Result<Self, ScenarioError> {
        match text.trim_start().starts_with('{') {
            true => Self::from_json_str(text),
            false => Self::from_toml_str(text),
        }
    }

    /// Loads a scenario from a config file, dispatching on the `.json`
    /// extension and falling back to content auto-detection.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(format!("reading {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            Some("toml") => Self::from_toml_str(&text),
            _ => Self::from_config_str(&text),
        }
    }

    /// Serialises the scenario to TOML; `from_toml_str` round-trips it
    /// exactly.
    pub fn to_toml_string(&self) -> String {
        doc::write_toml(&self.to_doc())
    }

    /// Serialises the scenario to JSON; `from_json_str` round-trips it
    /// exactly.
    pub fn to_json_string(&self) -> String {
        doc::write_json(&self.to_doc())
    }

    /// The stable structural fingerprint of this scenario — the
    /// content-address under which the artifact layer memoizes the
    /// generated trace and everything derived from it. Hashed over the
    /// config document model, so every TOML/JSON spelling and field
    /// ordering of the same scenario shares the key, and any semantic
    /// difference (seed included) changes it.
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        crate::fingerprint::table_fingerprint("psn-scenario/1", &self.to_doc())
    }

    /// A canonical serialized form of the scenario (its JSON document) —
    /// the identity string artifact stores compare on every fingerprint
    /// hit to rule hash collisions out.
    pub fn canonical_identity(&self) -> String {
        self.to_json_string()
    }

    /// Returns a copy with one named numeric field replaced — the hook
    /// scenario sweeps use to walk a parameter grid. The assignment goes
    /// through the config document model, so unknown fields, non-numeric
    /// fields (`kind`, `name`), fractional values for integer fields and
    /// values the generator cannot run with are all rejected with the same
    /// errors a config file would produce.
    pub fn with_field(&self, field: &str, value: f64) -> Result<Self, ScenarioError> {
        let config = self.assign_field(field, value)?;
        config.validate()?;
        Ok(config)
    }

    /// [`ScenarioConfig::with_field`] without the final
    /// [`ScenarioConfig::validate`], so a sweep can assign several fields
    /// (say `min_node_rate`, then `max_node_rate`) and validate only the
    /// finished cell.
    pub(crate) fn assign_field(&self, field: &str, value: f64) -> Result<Self, ScenarioError> {
        let mut top = self.to_doc();
        if !value.is_finite() {
            return Err(ScenarioError::new(format!("field {field:?}: sweep value must be finite")));
        }
        let int_like = value.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&value);
        let as_int = match top.get(field) {
            Some(doc::Value::Int(_)) => int_like,
            Some(_) => false,
            // Unknown fields error in `from_doc` below either way; prefer
            // the integer encoding so optional integer-valued fields parse.
            None => int_like,
        };
        if as_int {
            top.set_u64(field, value as u64);
        } else {
            top.set_f64(field, value);
        }
        Self::parse_doc(top)
    }

    /// Rejects configurations the generator cannot run with, naming the
    /// offending key. Covers every family's preconditions (the generators
    /// keep them as `assert!`s); NaN fails every rule.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            ScenarioConfig::Conference(c) => validate_conference(c),
            ScenarioConfig::Homogeneous(c) => validate_homogeneous(c),
            ScenarioConfig::Heterogeneous(c) => validate_heterogeneous(c),
            ScenarioConfig::Community(c) => validate_community(c),
            ScenarioConfig::Scaled(c) => validate_scaled(c),
        }
    }

    /// Parses and validates a scenario document.
    pub(crate) fn from_doc(top: doc::Table) -> Result<Self, ScenarioError> {
        let scenario = Self::parse_doc(top)?;
        scenario.validate()?;
        Ok(scenario)
    }

    fn parse_doc(mut top: doc::Table) -> Result<Self, ScenarioError> {
        let kind = top.take_string("kind")?;
        let scenario = match kind.as_str() {
            "conference" => {
                let d = ConferenceConfig::default();
                let activity = match top.take_table_opt("activity") {
                    Some(t) => activity_from_table(t)?,
                    None => d.activity,
                };
                ScenarioConfig::Conference(ConferenceConfig {
                    name: top.take_string_or("name", d.name)?,
                    mobile_nodes: top.take_usize_or("mobile_nodes", d.mobile_nodes)?,
                    stationary_nodes: top.take_usize_or("stationary_nodes", d.stationary_nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    min_node_rate: top.take_f64_or("min_node_rate", d.min_node_rate)?,
                    stationary_rate_factor: top
                        .take_f64_or("stationary_rate_factor", d.stationary_rate_factor)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    contact_duration_cv: top
                        .take_f64_or("contact_duration_cv", d.contact_duration_cv)?,
                    activity,
                    inquiry_scan_period: top.take_f64_opt("inquiry_scan_period")?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "homogeneous" => {
                let d = HomogeneousConfig::default();
                ScenarioConfig::Homogeneous(HomogeneousConfig {
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    node_contact_rate: top.take_f64_or("node_contact_rate", d.node_contact_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "heterogeneous" => {
                let d = HeterogeneousConfig::default();
                ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "community" => {
                let d = CommunityConfig::default();
                ScenarioConfig::Community(CommunityConfig {
                    name: top.take_string_or("name", d.name)?,
                    communities: top.take_usize_or("communities", d.communities)?,
                    nodes_per_community: top
                        .take_usize_or("nodes_per_community", d.nodes_per_community)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    intra_inter_ratio: top.take_f64_or("intra_inter_ratio", d.intra_inter_ratio)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    contact_duration_cv: top
                        .take_f64_or("contact_duration_cv", d.contact_duration_cv)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "scaled" => {
                let d = ScaledConfig::default();
                ScenarioConfig::Scaled(ScaledConfig {
                    name: top.take_string_or("name", d.name)?,
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    min_node_rate: top.take_f64_or("min_node_rate", d.min_node_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            other => {
                return Err(ScenarioError::new(format!(
                    "unknown scenario kind {other:?} (expected one of {:?})",
                    Self::kinds()
                )))
            }
        };
        top.finish()?;
        Ok(scenario)
    }

    pub(crate) fn to_doc(&self) -> doc::Table {
        let mut top = doc::Table::new("scenario");
        top.set_string("kind", self.kind());
        match self {
            ScenarioConfig::Conference(c) => {
                top.set_string("name", &c.name);
                top.set_u64("mobile_nodes", c.mobile_nodes as u64);
                top.set_u64("stationary_nodes", c.stationary_nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("min_node_rate", c.min_node_rate);
                top.set_f64("stationary_rate_factor", c.stationary_rate_factor);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_f64("contact_duration_cv", c.contact_duration_cv);
                if let Some(p) = c.inquiry_scan_period {
                    top.set_f64("inquiry_scan_period", p);
                }
                top.set_u64("seed", c.seed);
                top.set_table("activity", activity_to_table(&c.activity));
            }
            ScenarioConfig::Homogeneous(c) => {
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("node_contact_rate", c.node_contact_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Heterogeneous(c) => {
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Community(c) => {
                top.set_string("name", &c.name);
                top.set_u64("communities", c.communities as u64);
                top.set_u64("nodes_per_community", c.nodes_per_community as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("intra_inter_ratio", c.intra_inter_ratio);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_f64("contact_duration_cv", c.contact_duration_cv);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Scaled(c) => {
                top.set_string("name", &c.name);
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("min_node_rate", c.min_node_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
        }
        top
    }
}

impl From<crate::datasets::SyntheticDataset> for ScenarioConfig {
    fn from(ds: crate::datasets::SyntheticDataset) -> Self {
        ScenarioConfig::Conference(ds.config)
    }
}

fn activity_from_table(mut t: doc::Table) -> Result<ActivityProfile, ScenarioError> {
    let profile = t.take_string("profile")?;
    let activity = match profile.as_str() {
        "constant" => ActivityProfile::Constant,
        "piecewise" => ActivityProfile::Piecewise(t.take_f64_array("factors")?),
        "tail_dropoff" => ActivityProfile::TailDropoff {
            dropoff_seconds: t.take_f64("dropoff_seconds")?,
            final_fraction: t.take_f64("final_fraction")?,
        },
        other => {
            return Err(ScenarioError::new(format!(
                "unknown activity profile {other:?} (expected \"constant\", \"piecewise\" or \"tail_dropoff\")"
            )))
        }
    };
    t.finish()?;
    Ok(activity)
}

fn activity_to_table(activity: &ActivityProfile) -> doc::Table {
    let mut t = doc::Table::new("activity");
    match activity {
        ActivityProfile::Constant => t.set_string("profile", "constant"),
        ActivityProfile::Piecewise(factors) => {
            t.set_string("profile", "piecewise");
            t.set_f64_array("factors", factors.clone());
        }
        ActivityProfile::TailDropoff { dropoff_seconds, final_fraction } => {
            t.set_string("profile", "tail_dropoff");
            t.set_f64("dropoff_seconds", *dropoff_seconds);
            t.set_f64("final_fraction", *final_fraction);
        }
    }
    t
}

/// The shared document model behind the TOML and JSON frontends: ordered
/// key → value maps with nested tables (a scenario's `[activity]`, a
/// sweep's `[base]` and `[base.activity]`). Crate-visible so the sweep-spec
/// parser ([`crate::sweep`]) reuses the same frontends.
pub(crate) mod doc {
    use super::ScenarioError;
    use crate::json::{self, escape, fmt_f64, Json};
    use std::collections::BTreeMap;

    /// A parsed scalar, array or nested table.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Integer literal (no decimal point or exponent).
        Int(u64),
        /// Floating-point literal.
        Num(f64),
        /// Quoted string.
        Str(String),
        /// Array of numbers (used by piecewise activity factors).
        Arr(Vec<f64>),
        /// Nested table (`[section]` in TOML, nested object in JSON).
        Table(Table),
    }

    /// An ordered key → value map plus the insertion order (so writers emit
    /// fields in the order the scenario code set them, not alphabetically).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Table {
        context: String,
        entries: BTreeMap<String, Value>,
        order: Vec<String>,
    }

    impl Table {
        pub fn new(context: &str) -> Self {
            Self { context: context.to_string(), entries: BTreeMap::new(), order: Vec::new() }
        }

        fn insert(&mut self, key: &str, value: Value) {
            if self.entries.insert(key.to_string(), value).is_none() {
                self.order.push(key.to_string());
            }
        }

        /// Adds a key read from a config document at `at`. A key the table
        /// already holds is an error naming it and the table, never a
        /// silent last-value-wins overwrite.
        fn insert_read(&mut self, key: &str, value: Value, at: &str) -> Result<(), ScenarioError> {
            if self.entries.contains_key(key) {
                return Err(ScenarioError::new(format!(
                    "{at}: duplicate key {key:?} in {}",
                    self.context
                )));
            }
            self.insert(key, value);
            Ok(())
        }

        pub fn set_string(&mut self, key: &str, value: &str) {
            self.insert(key, Value::Str(value.to_string()));
        }
        pub fn set_u64(&mut self, key: &str, value: u64) {
            self.insert(key, Value::Int(value));
        }
        pub fn set_f64(&mut self, key: &str, value: f64) {
            self.insert(key, Value::Num(value));
        }
        pub fn set_f64_array(&mut self, key: &str, value: Vec<f64>) {
            self.insert(key, Value::Arr(value));
        }
        pub fn set_table(&mut self, key: &str, value: Table) {
            self.insert(key, Value::Table(value));
        }

        fn take(&mut self, key: &str) -> Option<Value> {
            let v = self.entries.remove(key);
            if v.is_some() {
                self.order.retain(|k| k != key);
            }
            v
        }

        /// Looks a value up without consuming it.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.entries.get(key)
        }

        /// Iterates entries in sorted key order — the canonical traversal
        /// the fingerprint module hashes, independent of insertion or
        /// source order.
        pub fn entries_sorted(&self) -> impl Iterator<Item = (&String, &Value)> {
            self.entries.iter()
        }

        /// Drains every remaining entry in insertion order (used for
        /// open-schema tables like a sweep's `[axes]`).
        pub fn take_all(mut self) -> Vec<(String, Value)> {
            let order = std::mem::take(&mut self.order);
            order
                .into_iter()
                .map(|key| {
                    let value = self
                        .entries
                        .remove(&key)
                        .unwrap_or_else(|| unreachable!("order tracks entries"));
                    (key, value)
                })
                .collect()
        }

        fn missing(&self, key: &str) -> ScenarioError {
            ScenarioError::new(format!("{}: missing required field {key:?}", self.context))
        }

        fn type_error(&self, key: &str, expected: &str, got: &Value) -> ScenarioError {
            ScenarioError::new(format!(
                "{}: field {key:?} must be {expected}, got {got:?}",
                self.context
            ))
        }

        pub fn take_string(&mut self, key: &str) -> Result<String, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(s),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_string_or(
            &mut self,
            key: &str,
            default: String,
        ) -> Result<String, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(s),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Ok(default),
            }
        }

        pub fn take_string_opt(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(Some(s)),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Ok(None),
            }
        }

        pub fn take_f64_array_or(
            &mut self,
            key: &str,
            default: Vec<f64>,
        ) -> Result<Vec<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Arr(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an array of numbers", &v)),
                None => Ok(default),
            }
        }

        pub fn take_table(&mut self, key: &str) -> Result<Table, ScenarioError> {
            match self.take(key) {
                Some(Value::Table(t)) => Ok(t),
                Some(v) => Err(self.type_error(key, "a table", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_u64_or(&mut self, key: &str, default: u64) -> Result<u64, ScenarioError> {
            match self.take(key) {
                Some(Value::Int(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an integer", &v)),
                None => Ok(default),
            }
        }

        pub fn take_usize_or(&mut self, key: &str, default: usize) -> Result<usize, ScenarioError> {
            let v = self.take_u64_or(key, default as u64)?;
            usize::try_from(v).map_err(|_| {
                ScenarioError::new(format!("{}: field {key:?} is too large", self.context))
            })
        }

        pub fn take_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(v),
                Some(Value::Int(v)) => Ok(v as f64),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_f64_or(&mut self, key: &str, default: f64) -> Result<f64, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(v),
                Some(Value::Int(v)) => Ok(v as f64),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Ok(default),
            }
        }

        pub fn take_f64_opt(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(Some(v)),
                Some(Value::Int(v)) => Ok(Some(v as f64)),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Ok(None),
            }
        }

        pub fn take_f64_array(&mut self, key: &str) -> Result<Vec<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Arr(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an array of numbers", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_table_opt(&mut self, key: &str) -> Option<Table> {
            match self.take(key) {
                Some(Value::Table(t)) => Some(t),
                Some(other) => {
                    // Put it back so `finish` reports it as unexpected.
                    self.insert(key, other);
                    None
                }
                None => None,
            }
        }

        /// Errors if any keys were never consumed — the typo guard.
        pub fn finish(self) -> Result<(), ScenarioError> {
            match self.order.first() {
                None => Ok(()),
                Some(first) => {
                    Err(ScenarioError::new(format!("{}: unknown field {first:?}", self.context)))
                }
            }
        }
    }

    /// Reads a TOML number literal with the JSON reader's number rule.
    fn parse_number(text: &str, context: &str) -> Result<Value, ScenarioError> {
        match json::parse_number(text) {
            Some(Json::Int(v)) => Ok(Value::Int(v)),
            Some(Json::Num(v)) => Ok(Value::Num(v)),
            _ => Err(ScenarioError::new(format!("{context}: invalid number {text:?}"))),
        }
    }

    // ----- TOML frontend --------------------------------------------------

    /// Strips a trailing comment, respecting quoted strings (including
    /// escaped quotes inside them).
    fn strip_comment(line: &str) -> &str {
        let mut in_string = false;
        let mut escaped = false;
        for (i, ch) in line.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match ch {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '#' if !in_string => return &line[..i],
                _ => {}
            }
        }
        line
    }

    fn parse_toml_value(text: &str, context: &str) -> Result<Value, ScenarioError> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix('"') {
            // Find the closing quote, honouring backslash escapes.
            let mut escaped = false;
            let mut end = None;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                    continue;
                }
                match c {
                    '\\' => escaped = true,
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let end =
                end.ok_or_else(|| ScenarioError::new(format!("{context}: unterminated string")))?;
            if !rest[end + 1..].trim().is_empty() {
                return Err(ScenarioError::new(format!(
                    "{context}: trailing content after string"
                )));
            }
            return json::decode_string(&rest[..end])
                .map(Value::Str)
                .map_err(|e| ScenarioError::new(format!("{context}: {}", e.message())));
        }
        if let Some(inner) = text.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| ScenarioError::new(format!("{context}: unterminated array")))?
                .trim();
            if inner.is_empty() {
                return Ok(Value::Arr(Vec::new()));
            }
            let items = inner
                .split(',')
                .map(|item| match parse_number(item.trim(), context)? {
                    Value::Int(v) => Ok(v as f64),
                    Value::Num(v) => Ok(v),
                    _ => unreachable!("parse_number returns numbers"),
                })
                .collect::<Result<Vec<f64>, ScenarioError>>()?;
            return Ok(Value::Arr(items));
        }
        parse_number(text, context)
    }

    /// Splits a `[a.b.c]` section header into its bare-key segments:
    /// each non-empty and made of ASCII letters, digits, `_` and `-`, at
    /// most [`json::MAX_DEPTH`] of them (the JSON reader's nesting bound).
    fn parse_header(line: &str, context: &str) -> Result<Vec<String>, ScenarioError> {
        let malformed =
            || ScenarioError::new(format!("{context}: malformed section header {line:?}"));
        let inner =
            line.strip_prefix('[').and_then(|l| l.strip_suffix(']')).ok_or_else(malformed)?;
        let mut path = Vec::new();
        for segment in inner.split('.') {
            let segment = segment.trim();
            let bare = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
            if segment.is_empty() || !segment.chars().all(bare) {
                return Err(malformed());
            }
            if path.len() == json::MAX_DEPTH {
                return Err(ScenarioError::new(format!(
                    "{context}: section header {line:?} exceeds the nesting bound of {} levels",
                    json::MAX_DEPTH
                )));
            }
            path.push(segment.to_string());
        }
        Ok(path)
    }

    /// The table at `path` below `top`, creating missing tables on the way
    /// (a header reopens a table it names again). Each created table's
    /// context is its dotted path.
    fn table_at<'t>(
        top: &'t mut Table,
        path: &[String],
        context: &str,
    ) -> Result<&'t mut Table, ScenarioError> {
        let mut table = top;
        for (depth, key) in path.iter().enumerate() {
            if !table.entries.contains_key(key) {
                table.set_table(key, Table::new(&path[..=depth].join(".")));
            }
            table = match table.entries.get_mut(key) {
                Some(Value::Table(t)) => t,
                _ => {
                    return Err(ScenarioError::new(format!(
                        "{context}: section [{}] names {key:?}, which is not a table",
                        path[..=depth].join(".")
                    )))
                }
            };
        }
        Ok(table)
    }

    /// Parses the TOML subset: `key = value` lines, `# comments`, and
    /// `[table]` sections, nested with dotted headers (`[base.activity]`).
    /// `document` names the top-level table in errors (`"scenario"`,
    /// `"sweep"`).
    pub fn parse_toml(text: &str, document: &str) -> Result<Table, ScenarioError> {
        let mut top = Table::new(document);
        let mut section: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let context = format!("line {}", lineno + 1);
            if line.starts_with('[') {
                section = parse_header(line, &context)?;
                table_at(&mut top, &section, &context)?;
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                ScenarioError::new(format!("{context}: expected `key = value`, got {line:?}"))
            })?;
            let key = key.trim();
            if key.is_empty() {
                return Err(ScenarioError::new(format!("{context}: empty key")));
            }
            let value = parse_toml_value(value, &context)?;
            table_at(&mut top, &section, &context)?.insert_read(key, value, &context)?;
        }
        Ok(top)
    }

    /// Writes a table in the TOML subset: its scalars, then each nested
    /// table as a section under its dotted path.
    fn write_toml_table(table: &Table, path: &str, out: &mut String) {
        let mut sections = Vec::new();
        for key in &table.order {
            match &table.entries[key] {
                Value::Int(v) => out.push_str(&format!("{key} = {v}\n")),
                Value::Num(v) => out.push_str(&format!("{key} = {}\n", fmt_f64(*v))),
                Value::Str(v) => out.push_str(&format!("{key} = \"{}\"\n", escape(v))),
                Value::Arr(v) => {
                    let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
                    out.push_str(&format!("{key} = [{}]\n", items.join(", ")));
                }
                Value::Table(t) => sections.push((key, t)),
            }
        }
        for (key, t) in sections {
            let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
            out.push_str(&format!("\n[{path}]\n"));
            write_toml_table(t, &path, out);
        }
    }

    /// Writes a table in the TOML subset (scalars first, then sections).
    pub fn write_toml(table: &Table) -> String {
        let mut out = String::new();
        write_toml_table(table, "", &mut out);
        out
    }

    // ----- JSON frontend --------------------------------------------------

    /// Parses a JSON object into the shared document model with the
    /// workspace's one JSON reader ([`crate::json`]); `document` names the
    /// top-level table in errors, as in [`parse_toml`].
    pub fn parse_json(text: &str, document: &str) -> Result<Table, ScenarioError> {
        match json::parse(text).map_err(|e| ScenarioError::new(format!("json {e}")))? {
            Json::Obj(fields) => table_from_json(document, fields),
            _ => Err(ScenarioError::new("json: expected an object")),
        }
    }

    /// Converts a JSON object to a [`Table`] in source key order; a nested
    /// object becomes a table whose context is its key.
    fn table_from_json(context: &str, fields: Vec<(String, Json)>) -> Result<Table, ScenarioError> {
        let mut table = Table::new(context);
        for (key, value) in fields {
            let value = match value {
                Json::Int(v) => Value::Int(v),
                Json::Num(v) => Value::Num(v),
                Json::Str(s) => Value::Str(s),
                Json::Obj(inner) => Value::Table(table_from_json(&key, inner)?),
                Json::Arr(items) => Value::Arr(
                    items
                        .into_iter()
                        .map(|item| match item {
                            Json::Int(v) => Ok(v as f64),
                            Json::Num(v) => Ok(v),
                            other => Err(ScenarioError::new(format!(
                                "{context}: field {key:?} must be an array of numbers, got \
                                 {other:?} in it"
                            ))),
                        })
                        .collect::<Result<_, _>>()?,
                ),
                Json::Null => {
                    return Err(ScenarioError::new(format!(
                        "{context}: field {key:?} must be a number, string, array or table, \
                         got null"
                    )))
                }
            };
            table.insert_read(&key, value, "json")?;
        }
        Ok(table)
    }

    fn write_json_table(table: &Table, indent: usize, out: &mut String) {
        out.push_str("{\n");
        let pad = "  ".repeat(indent + 1);
        for (i, key) in table.order.iter().enumerate() {
            out.push_str(&pad);
            out.push_str(&format!("\"{}\": ", escape(key)));
            match &table.entries[key] {
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Num(v) => out.push_str(&fmt_f64(*v)),
                Value::Str(v) => out.push_str(&format!("\"{}\"", escape(v))),
                Value::Arr(v) => {
                    let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
                    out.push_str(&format!("[{}]", items.join(", ")));
                }
                Value::Table(t) => write_json_table(t, indent + 1, out),
            }
            if i + 1 < table.order.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }

    /// Writes a table as pretty-printed JSON.
    pub fn write_json(table: &Table) -> String {
        let mut out = String::new();
        write_json_table(table, 0, &mut out);
        out.push('\n');
        out
    }
}

fn finite_positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// The most nodes a scenario may have. A forwarding run holds two
/// `n × n` tables, the 8-byte pair-count (then delay) matrix and the
/// 4-byte pair index: 12·n² bytes, 3 GiB at this bound. A larger scenario
/// is refused as a config error before anything is allocated.
pub const MAX_NODES: usize = 16_384;

/// True iff a `window_seconds` window has at most
/// [`crate::stream::MAX_SLOTS`] bins in the summary's per-minute series.
fn bins_bounded(window_seconds: Seconds) -> bool {
    crate::stream::slots_within_bound(window_seconds, crate::binning::PAPER_BIN_SECONDS)
}

/// The rule [`bins_bounded`] checks, as the error states it.
const BINS_RULE: &str = "at most 62914560 (2^20 one-minute summary bins)";

fn validate_conference(c: &ConferenceConfig) -> Result<(), ScenarioError> {
    let total = c.mobile_nodes.saturating_add(c.stationary_nodes);
    let scan = c.inquiry_scan_period.unwrap_or(f64::INFINITY);
    let checks: [(bool, &str, &str, &dyn std::fmt::Display); 9] = [
        (total >= 2, "mobile_nodes", "at least 2 in total with \"stationary_nodes\"", &total),
        (
            total <= MAX_NODES,
            "mobile_nodes",
            "at most 16384 in total with \"stationary_nodes\"",
            &total,
        ),
        (finite_positive(c.max_node_rate), "max_node_rate", "finite and > 0", &c.max_node_rate),
        (
            (0.0..c.max_node_rate).contains(&c.min_node_rate),
            "min_node_rate",
            "in [0, max_node_rate)",
            &c.min_node_rate,
        ),
        (c.mean_contact_duration > 0.0, "mean_contact_duration", "> 0", &c.mean_contact_duration),
        (c.contact_duration_cv >= 0.0, "contact_duration_cv", ">= 0", &c.contact_duration_cv),
        (finite_positive(c.window_seconds), "window_seconds", "finite and > 0", &c.window_seconds),
        (bins_bounded(c.window_seconds), "window_seconds", BINS_RULE, &c.window_seconds),
        (scan > 0.0, "inquiry_scan_period", "> 0", &scan),
    ];
    first_violation("conference", &checks)
}

fn validate_scaled(c: &ScaledConfig) -> Result<(), ScenarioError> {
    let checks: [(bool, &str, &str, &dyn std::fmt::Display); 7] = [
        (c.nodes >= 2, "nodes", "at least 2", &c.nodes),
        (c.nodes <= MAX_NODES, "nodes", "at most 16384", &c.nodes),
        (finite_positive(c.max_node_rate), "max_node_rate", "finite and > 0", &c.max_node_rate),
        (
            (0.0..c.max_node_rate).contains(&c.min_node_rate),
            "min_node_rate",
            "in [0, max_node_rate)",
            &c.min_node_rate,
        ),
        (c.mean_contact_duration > 0.0, "mean_contact_duration", "> 0", &c.mean_contact_duration),
        (finite_positive(c.window_seconds), "window_seconds", "finite and > 0", &c.window_seconds),
        (bins_bounded(c.window_seconds), "window_seconds", BINS_RULE, &c.window_seconds),
    ];
    first_violation("scaled", &checks)
}

fn validate_homogeneous(c: &HomogeneousConfig) -> Result<(), ScenarioError> {
    let checks: [(bool, &str, &str, &dyn std::fmt::Display); 6] = [
        (c.nodes >= 2, "nodes", "at least 2", &c.nodes),
        (c.nodes <= MAX_NODES, "nodes", "at most 16384", &c.nodes),
        (
            finite_positive(c.node_contact_rate),
            "node_contact_rate",
            "finite and > 0",
            &c.node_contact_rate,
        ),
        (c.mean_contact_duration > 0.0, "mean_contact_duration", "> 0", &c.mean_contact_duration),
        (finite_positive(c.window_seconds), "window_seconds", "finite and > 0", &c.window_seconds),
        (bins_bounded(c.window_seconds), "window_seconds", BINS_RULE, &c.window_seconds),
    ];
    first_violation("homogeneous", &checks)
}

fn validate_heterogeneous(c: &HeterogeneousConfig) -> Result<(), ScenarioError> {
    let checks: [(bool, &str, &str, &dyn std::fmt::Display); 6] = [
        (c.nodes >= 2, "nodes", "at least 2", &c.nodes),
        (c.nodes <= MAX_NODES, "nodes", "at most 16384", &c.nodes),
        (finite_positive(c.max_node_rate), "max_node_rate", "finite and > 0", &c.max_node_rate),
        (c.mean_contact_duration > 0.0, "mean_contact_duration", "> 0", &c.mean_contact_duration),
        (finite_positive(c.window_seconds), "window_seconds", "finite and > 0", &c.window_seconds),
        (bins_bounded(c.window_seconds), "window_seconds", BINS_RULE, &c.window_seconds),
    ];
    first_violation("heterogeneous", &checks)
}

fn validate_community(c: &CommunityConfig) -> Result<(), ScenarioError> {
    let total = c.communities.saturating_mul(c.nodes_per_community);
    let checks: [(bool, &str, &str, &dyn std::fmt::Display); 10] = [
        (c.communities >= 1, "communities", "at least 1", &c.communities),
        (c.nodes_per_community >= 1, "nodes_per_community", "at least 1", &c.nodes_per_community),
        (total >= 2, "nodes_per_community", "at least 2 in total across \"communities\"", &total),
        (
            total <= MAX_NODES,
            "nodes_per_community",
            "at most 16384 in total across \"communities\"",
            &total,
        ),
        (finite_positive(c.max_node_rate), "max_node_rate", "finite and > 0", &c.max_node_rate),
        (c.intra_inter_ratio >= 1.0, "intra_inter_ratio", ">= 1", &c.intra_inter_ratio),
        (c.mean_contact_duration > 0.0, "mean_contact_duration", "> 0", &c.mean_contact_duration),
        (c.contact_duration_cv >= 0.0, "contact_duration_cv", ">= 0", &c.contact_duration_cv),
        (finite_positive(c.window_seconds), "window_seconds", "finite and > 0", &c.window_seconds),
        (bins_bounded(c.window_seconds), "window_seconds", BINS_RULE, &c.window_seconds),
    ];
    first_violation("community", &checks)
}

/// The first failed `(holds, key, rule, value)` check of a `family`
/// scenario, as an error naming the key.
fn first_violation(
    family: &str,
    checks: &[(bool, &str, &str, &dyn std::fmt::Display)],
) -> Result<(), ScenarioError> {
    match checks.iter().find(|check| !check.0) {
        Some((_, key, rule, got)) => {
            Err(ScenarioError::new(format!("{family} field {key:?} must be {rule} (got {got})")))
        }
        None => Ok(()),
    }
}

/// A validated collection of scenarios with unique names — what the
/// `psn-study` CLI builds from its `--config` files before handing the
/// scenarios to the study pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSet {
    scenarios: Vec<ScenarioConfig>,
}

impl ScenarioSet {
    /// Creates a set from scenarios, rejecting duplicate names (sections in
    /// study reports are keyed by scenario name).
    pub fn new(scenarios: Vec<ScenarioConfig>) -> Result<Self, ScenarioError> {
        let mut seen = BTreeMap::new();
        for s in &scenarios {
            if let Some(prev) = seen.insert(s.name(), s.kind()) {
                return Err(ScenarioError::new(format!(
                    "duplicate scenario name {:?} ({} and {})",
                    s.name(),
                    prev,
                    s.kind()
                )));
            }
        }
        Ok(Self { scenarios })
    }

    /// The scenarios in insertion order.
    pub fn scenarios(&self) -> &[ScenarioConfig] {
        &self.scenarios
    }

    /// Number of scenarios in the set.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::datasets::{DatasetId, SyntheticDataset};
    use proptest::prelude::*;

    fn all_default_scenarios() -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::Conference(ConferenceConfig::default()),
            ScenarioConfig::Homogeneous(HomogeneousConfig::default()),
            ScenarioConfig::Heterogeneous(HeterogeneousConfig::default()),
            ScenarioConfig::Community(CommunityConfig::default()),
            ScenarioConfig::Scaled(ScaledConfig::default()),
        ]
    }

    #[test]
    fn every_family_round_trips_through_toml_and_json() {
        for scenario in all_default_scenarios() {
            let toml = scenario.to_toml_string();
            let from_toml = ScenarioConfig::from_toml_str(&toml).expect("written toml reparses");
            assert_eq!(from_toml, scenario, "toml:\n{toml}");

            let json = scenario.to_json_string();
            let from_json = ScenarioConfig::from_json_str(&json).expect("written json reparses");
            assert_eq!(from_json, scenario, "json:\n{json}");
        }
    }

    /// Asserts that the conference scenario `base` with `key` set to
    /// `value` is rejected from TOML, from JSON and through `with_field`,
    /// each time with an error that names `key`.
    fn assert_conference_rejects_with(base: ConferenceConfig, key: &str, value: f64) {
        assert_rejects(ScenarioConfig::Conference(base), key, value);
    }

    /// [`assert_conference_rejects_with`] for a scenario of any family.
    fn assert_rejects(base: ScenarioConfig, key: &str, value: f64) {
        let bad = base.assign_field(key, value).expect("the schema accepts the value");
        let errors = [
            ScenarioConfig::from_toml_str(&bad.to_toml_string()).expect_err("toml"),
            ScenarioConfig::from_json_str(&bad.to_json_string()).expect_err("json"),
            base.with_field(key, value).expect_err("with_field"),
        ];
        for err in errors {
            assert!(err.to_string().contains(&format!("{key:?}")), "{key} = {value}: {err}");
        }
    }

    fn assert_conference_rejects(key: &str, value: f64) {
        assert_conference_rejects_with(ConferenceConfig::default(), key, value);
    }

    #[test]
    fn conference_with_fewer_than_two_nodes_is_rejected() {
        let no_booths = ConferenceConfig { stationary_nodes: 0, ..Default::default() };
        assert_conference_rejects_with(no_booths.clone(), "mobile_nodes", 1.0);
        assert_conference_rejects_with(no_booths, "mobile_nodes", 0.0);
    }

    #[test]
    fn conference_with_non_positive_max_node_rate_is_rejected() {
        assert_conference_rejects("max_node_rate", -1.0);
        assert_conference_rejects("max_node_rate", 0.0);
    }

    #[test]
    fn conference_with_min_node_rate_outside_zero_to_max_is_rejected() {
        let max = ConferenceConfig::default().max_node_rate;
        assert_conference_rejects("min_node_rate", -0.001);
        assert_conference_rejects("min_node_rate", max);
        assert_conference_rejects("min_node_rate", 2.0 * max);
    }

    #[test]
    fn conference_with_non_positive_contact_duration_is_rejected() {
        assert_conference_rejects("mean_contact_duration", 0.0);
        assert_conference_rejects("mean_contact_duration", -120.0);
    }

    #[test]
    fn conference_with_non_positive_window_is_rejected() {
        assert_conference_rejects("window_seconds", 0.0);
        assert_conference_rejects("window_seconds", -10_800.0);
    }

    /// Values no sweep can assign (`with_field` takes finite values only)
    /// but a config file can spell, and further generator preconditions.
    #[test]
    fn conference_with_nan_infinite_or_negative_values_is_rejected() {
        let toml = ScenarioConfig::Conference(ConferenceConfig::default()).to_toml_string();
        for (key, value) in [
            ("max_node_rate", "nan"),
            ("max_node_rate", "inf"),
            ("window_seconds", "inf"),
            ("mean_contact_duration", "nan"),
            ("contact_duration_cv", "-1.0"),
        ] {
            let prefix = format!("{key} = ");
            let bad: String = toml
                .lines()
                .map(|l| if l.starts_with(&prefix) { format!("{prefix}{value}") } else { l.into() })
                .collect::<Vec<_>>()
                .join("\n");
            assert_ne!(bad, toml, "{key} is in the written config");
            let err = ScenarioConfig::from_toml_str(&bad).expect_err(key);
            assert!(err.to_string().contains(&format!("{key:?}")), "{key} = {value}: {err}");
        }
        assert_conference_rejects("contact_duration_cv", -0.5);
        assert_conference_rejects("inquiry_scan_period", 0.0);
    }

    /// Writes `base` as TOML with `key`'s line set to `value` (spelled as
    /// TOML), asserting the key is in the written config.
    fn toml_with(base: &ScenarioConfig, key: &str, value: &str) -> String {
        let toml = base.to_toml_string();
        let prefix = format!("{key} = ");
        let bad: String = toml
            .lines()
            .map(|l| if l.starts_with(&prefix) { format!("{prefix}{value}") } else { l.into() })
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(bad, toml, "{key} is in the written config");
        bad
    }

    #[test]
    fn scaled_generator_preconditions_are_typed_errors_naming_the_key() {
        let base = ScenarioConfig::Scaled(ScaledConfig::default());
        let max = ScaledConfig::default().max_node_rate;
        for (key, value) in [
            ("nodes", 1.0),
            ("nodes", 0.0),
            ("max_node_rate", -1.0),
            ("max_node_rate", 0.0),
            ("min_node_rate", -0.001),
            ("min_node_rate", max),
            ("mean_contact_duration", 0.0),
            ("mean_contact_duration", -120.0),
            ("window_seconds", 0.0),
            ("window_seconds", -3600.0),
        ] {
            assert_rejects(base.clone(), key, value);
        }
        // Values only a config file can spell: an infinite window used to
        // hang the generator, NaN slipped past its asserts.
        for (key, value) in [
            ("window_seconds", "inf"),
            ("window_seconds", "nan"),
            ("max_node_rate", "inf"),
            ("max_node_rate", "nan"),
            ("min_node_rate", "nan"),
            ("mean_contact_duration", "nan"),
        ] {
            let bad = toml_with(&base, key, value);
            let err = ScenarioConfig::from_toml_str(&bad).expect_err(key);
            assert!(err.to_string().contains(&format!("{key:?}")), "{key} = {value}: {err}");
            assert!(err.to_string().contains("scaled field"), "{err}");
        }
        // The shipped scaled scenarios stay valid.
        for nodes in [2.0, 1000.0] {
            base.with_field("nodes", nodes).expect("a valid scaled scenario");
        }
    }

    /// `key = value` makes a homogeneous scenario fail from TOML, JSON and
    /// `with_field`, and `key = spelled` (a value only a config file can
    /// spell) from TOML, each error naming the family and the key.
    fn assert_homogeneous_rejects(key: &str, values: &[f64], spelled: &[&str]) {
        let base = ScenarioConfig::Homogeneous(HomogeneousConfig::default());
        assert_family_rejects(&base, key, values, spelled);
    }

    /// [`assert_homogeneous_rejects`] for a `base` scenario of any family.
    fn assert_family_rejects(base: &ScenarioConfig, key: &str, values: &[f64], spelled: &[&str]) {
        for &value in values {
            assert_rejects(base.clone(), key, value);
        }
        let family = format!("{} field", base.kind());
        for value in spelled {
            let err = ScenarioConfig::from_toml_str(&toml_with(base, key, value)).expect_err(key);
            assert!(err.to_string().contains(&format!("{key:?}")), "{key} = {value}: {err}");
            assert!(err.to_string().contains(&family), "{err}");
        }
    }

    #[test]
    fn homogeneous_with_fewer_than_two_nodes_is_rejected() {
        assert_homogeneous_rejects("nodes", &[1.0, 0.0], &[]);
        let base = ScenarioConfig::Homogeneous(HomogeneousConfig::default());
        base.with_field("nodes", 2.0).expect("two nodes can meet");
    }

    #[test]
    fn homogeneous_with_a_non_positive_or_non_finite_contact_rate_is_rejected() {
        assert_homogeneous_rejects("node_contact_rate", &[0.0, -0.01], &["inf", "nan"]);
    }

    #[test]
    fn homogeneous_with_a_non_positive_contact_duration_is_rejected() {
        assert_homogeneous_rejects("mean_contact_duration", &[0.0, -120.0], &["nan"]);
    }

    #[test]
    fn homogeneous_with_a_non_positive_or_infinite_window_is_rejected() {
        assert_homogeneous_rejects("window_seconds", &[0.0, -3600.0], &["inf", "nan"]);
    }

    fn heterogeneous() -> ScenarioConfig {
        ScenarioConfig::Heterogeneous(HeterogeneousConfig::default())
    }

    #[test]
    fn heterogeneous_with_fewer_than_two_nodes_is_rejected() {
        assert_family_rejects(&heterogeneous(), "nodes", &[1.0, 0.0], &[]);
        heterogeneous().with_field("nodes", 2.0).expect("two nodes can meet");
    }

    #[test]
    fn heterogeneous_with_a_non_positive_or_non_finite_max_node_rate_is_rejected() {
        assert_family_rejects(&heterogeneous(), "max_node_rate", &[0.0, -0.05], &["inf", "nan"]);
    }

    #[test]
    fn heterogeneous_with_a_non_positive_contact_duration_is_rejected() {
        assert_family_rejects(&heterogeneous(), "mean_contact_duration", &[0.0, -120.0], &["nan"]);
    }

    #[test]
    fn heterogeneous_with_a_non_positive_or_infinite_window_is_rejected() {
        assert_family_rejects(&heterogeneous(), "window_seconds", &[0.0, -3600.0], &["inf", "nan"]);
    }

    fn community() -> ScenarioConfig {
        ScenarioConfig::Community(CommunityConfig::default())
    }

    #[test]
    fn community_without_communities_is_rejected() {
        assert_family_rejects(&community(), "communities", &[0.0], &[]);
    }

    #[test]
    fn community_with_empty_communities_is_rejected() {
        assert_family_rejects(&community(), "nodes_per_community", &[0.0], &[]);
    }

    #[test]
    fn community_with_fewer_than_two_nodes_in_total_is_rejected() {
        let one =
            ScenarioConfig::Community(CommunityConfig { communities: 1, ..Default::default() });
        assert_family_rejects(&one, "nodes_per_community", &[1.0], &[]);
        one.with_field("nodes_per_community", 2.0).expect("two nodes can meet");
    }

    #[test]
    fn every_family_bounds_its_node_count_before_allocating() {
        // The rule texts spell the bound out; keep them in step with it.
        assert_eq!(MAX_NODES, 16_384);
        let max = MAX_NODES as f64;
        let families = [
            (ScenarioConfig::Scaled(ScaledConfig::default()), "nodes"),
            (ScenarioConfig::Homogeneous(HomogeneousConfig::default()), "nodes"),
            (heterogeneous(), "nodes"),
            (ScenarioConfig::Conference(ConferenceConfig::default()), "mobile_nodes"),
        ];
        for (base, key) in families {
            assert_family_rejects(&base, key, &[max + 1.0, 2e9], &["2000000000"]);
        }
        // The conference total counts the booths too.
        let conference = ConferenceConfig { stationary_nodes: 0, ..Default::default() };
        let full = ScenarioConfig::Conference(conference)
            .with_field("mobile_nodes", max)
            .expect("the bound itself is allowed");
        let err = full.with_field("stationary_nodes", 1.0).unwrap_err();
        assert!(err.to_string().contains("\"mobile_nodes\" must be at most 16384"), "{err}");
        let overflow = ConferenceConfig {
            mobile_nodes: usize::MAX,
            stationary_nodes: 1,
            ..Default::default()
        };
        let err = ScenarioConfig::Conference(overflow).validate().unwrap_err();
        assert!(err.to_string().contains("\"mobile_nodes\""), "{err}");
        // The community total is the product of two in-bound fields.
        let one =
            ScenarioConfig::Community(CommunityConfig { communities: 1, ..Default::default() });
        one.with_field("nodes_per_community", max).expect("the bound itself is allowed");
        assert_family_rejects(&one, "nodes_per_community", &[max + 1.0], &[]);
        let wide = one.with_field("nodes_per_community", 128.0).unwrap();
        let err = wide.with_field("communities", 129.0).unwrap_err();
        assert!(err.to_string().contains("\"nodes_per_community\" must be at most 16384"), "{err}");
        let overflow = CommunityConfig {
            communities: usize::MAX,
            nodes_per_community: 2,
            ..Default::default()
        };
        assert!(ScenarioConfig::Community(overflow).validate().is_err());
        for base in [ScenarioConfig::Scaled(ScaledConfig::default()), heterogeneous()] {
            base.with_field("nodes", max).expect("the bound itself is allowed");
        }
    }

    #[test]
    fn every_family_bounds_its_summary_bin_count_before_allocating() {
        // The rule text spells the bound out; keep it in step with it.
        let max = crate::stream::MAX_SLOTS as f64 * crate::binning::PAPER_BIN_SECONDS;
        assert_eq!(max, 62_914_560.0);
        assert!(BINS_RULE.contains("62914560"));
        let families = [
            ScenarioConfig::Scaled(ScaledConfig::default()),
            ScenarioConfig::Homogeneous(HomogeneousConfig::default()),
            heterogeneous(),
            ScenarioConfig::Conference(ConferenceConfig::default()),
            ScenarioConfig::Community(CommunityConfig::default()),
        ];
        for base in families {
            assert_family_rejects(&base, "window_seconds", &[max + 0.5, 1e12], &["1e12"]);
            base.with_field("window_seconds", max).expect("the bound itself is allowed");
        }
    }

    #[test]
    fn community_with_a_non_positive_or_non_finite_max_node_rate_is_rejected() {
        assert_family_rejects(&community(), "max_node_rate", &[0.0, -0.045], &["inf", "nan"]);
    }

    #[test]
    fn community_with_an_intra_inter_ratio_below_one_is_rejected() {
        assert_family_rejects(&community(), "intra_inter_ratio", &[0.5, 0.0, -8.0], &["nan"]);
        community().with_field("intra_inter_ratio", 1.0).expect("uniform mixing");
    }

    #[test]
    fn community_with_a_non_positive_contact_duration_is_rejected() {
        assert_family_rejects(&community(), "mean_contact_duration", &[0.0, -120.0], &["nan"]);
    }

    #[test]
    fn community_with_a_negative_duration_cv_is_rejected() {
        assert_family_rejects(&community(), "contact_duration_cv", &[-0.5], &["nan"]);
        community().with_field("contact_duration_cv", 0.0).expect("fixed durations");
    }

    #[test]
    fn community_with_a_non_positive_or_infinite_window_is_rejected() {
        assert_family_rejects(&community(), "window_seconds", &[0.0, -3600.0], &["inf", "nan"]);
    }

    #[test]
    fn auto_detection_dispatches_on_leading_brace() {
        let scenario = ScenarioConfig::Scaled(ScaledConfig::default());
        assert_eq!(ScenarioConfig::from_config_str(&scenario.to_toml_string()).unwrap(), scenario);
        assert_eq!(ScenarioConfig::from_config_str(&scenario.to_json_string()).unwrap(), scenario);
    }

    #[test]
    fn paper_datasets_convert_to_conference_scenarios() {
        for id in DatasetId::all() {
            let ds = SyntheticDataset::paper_config(id);
            let scenario: ScenarioConfig = ds.clone().into();
            assert_eq!(scenario.kind(), "conference");
            assert_eq!(scenario.name(), ds.config.name);
            assert_eq!(scenario.node_count(), 98);
            // The scenario generates the same trace as the dataset it wraps.
            let via_scenario = ScenarioConfig::from(SyntheticDataset::quick_config(id)).generate();
            let direct = SyntheticDataset::quick_config(id).generate();
            assert_eq!(via_scenario.contacts(), direct.contacts());
        }
    }

    #[test]
    fn missing_fields_fall_back_to_defaults() {
        let scenario = ScenarioConfig::from_toml_str("kind = \"homogeneous\"\nnodes = 17\n")
            .expect("partial config parses");
        match scenario {
            ScenarioConfig::Homogeneous(c) => {
                assert_eq!(c.nodes, 17);
                assert_eq!(c.seed, HomogeneousConfig::default().seed);
            }
            other => panic!("wrong family: {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        let err = ScenarioConfig::from_toml_str("kind = \"homogeneous\"\nnodez = 17\n")
            .expect_err("typo must be rejected");
        assert!(err.to_string().contains("nodez"), "{err}");

        let err = ScenarioConfig::from_toml_str("kind = \"galactic\"\n")
            .expect_err("unknown kind must be rejected");
        assert!(err.to_string().contains("galactic"), "{err}");

        let err =
            ScenarioConfig::from_toml_str("nodes = 5\n").expect_err("kind is always required");
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let toml = r#"
# the workload family
kind = "heterogeneous"   # inline comment
nodes = 98

max_node_rate = 0.05
"#;
        let scenario = ScenarioConfig::from_toml_str(toml).unwrap();
        assert_eq!(scenario.kind(), "heterogeneous");
        assert_eq!(scenario.node_count(), 98);
    }

    #[test]
    fn activity_profiles_round_trip() {
        for activity in [
            ActivityProfile::Constant,
            ActivityProfile::Piecewise(vec![1.0, 1.3, 0.9]),
            ActivityProfile::TailDropoff { dropoff_seconds: 1800.0, final_fraction: 0.35 },
        ] {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                activity: activity.clone(),
                ..ConferenceConfig::default()
            });
            let reparsed = ScenarioConfig::from_toml_str(&scenario.to_toml_string()).unwrap();
            assert_eq!(reparsed, scenario, "activity {activity:?}");
            let reparsed = ScenarioConfig::from_json_str(&scenario.to_json_string()).unwrap();
            assert_eq!(reparsed, scenario, "activity {activity:?} (json)");
        }
    }

    #[test]
    fn names_with_quotes_newlines_and_hashes_round_trip() {
        for name in [
            "say \"hi\"",
            "line\nbreak",
            "tab\there",
            "cr\rhere",
            "back\\slash",
            "trailing # not a comment",
            "control\u{1}char",
        ] {
            let scenario = ScenarioConfig::Scaled(ScaledConfig {
                name: name.to_string(),
                ..ScaledConfig::default()
            });
            let toml = scenario.to_toml_string();
            let json = scenario.to_json_string();
            // Layout newlines aside, every control character is escaped:
            // RFC 8259 forbids them raw inside JSON strings.
            for text in [&toml, &json] {
                assert!(!text.chars().any(|c| c < ' ' && c != '\n'), "{text:?}");
            }
            assert_eq!(
                ScenarioConfig::from_toml_str(&toml).expect("escaped toml reparses"),
                scenario,
                "toml:\n{toml}"
            );
            assert_eq!(
                ScenarioConfig::from_json_str(&json).expect("escaped json reparses"),
                scenario,
                "json:\n{json}"
            );
        }
    }

    fn scaled_json(fields: &str) -> String {
        format!("{{\"kind\": \"scaled\", {fields}}}")
    }

    #[test]
    fn json_names_accept_unicode_and_solidus_escapes() {
        let json = scaled_json(r#""name": "\u0041\/B""#);
        let scenario = ScenarioConfig::from_json_str(&json).expect("escapes parse");
        assert_eq!(scenario.name(), "A/B");
    }

    #[test]
    fn json_null_and_non_numeric_arrays_name_their_key() {
        let null = "must be a number, string, array or table, got null";
        let array = "must be an array of numbers";
        for (fields, want) in [
            (r#""nodes": null"#, format!("scenario: field \"nodes\" {null}")),
            (r#""activity": {"profile": null}"#, format!("activity: field \"profile\" {null}")),
            (r#""window_seconds": ["a"]"#, format!("field \"window_seconds\" {array}")),
            (r#""window_seconds": [[1]]"#, format!("field \"window_seconds\" {array}")),
        ] {
            let err = ScenarioConfig::from_json_str(&scaled_json(fields)).expect_err(fields);
            assert!(err.to_string().contains(&want), "{fields}: {err}");
        }
    }

    #[test]
    fn digits_only_numbers_are_integers_and_signed_ones_are_not() {
        let seeded = |seed: &str| {
            let json = ScenarioConfig::from_json_str(&scaled_json(&format!("\"seed\": {seed}")));
            let toml =
                ScenarioConfig::from_toml_str(&format!("kind = \"scaled\"\nseed = {seed}\n"));
            (json, toml)
        };
        let (json, toml) = seeded("7");
        assert_eq!(json.unwrap().seed(), 7);
        assert_eq!(toml.unwrap().seed(), 7);
        let (json, toml) = seeded("+7");
        for err in [json.unwrap_err(), toml.unwrap_err()] {
            assert!(err.to_string().contains("\"seed\" must be an integer"), "{err}");
        }
        // A signed float still reads as a number.
        let json = scaled_json(r#""window_seconds": +3600"#);
        let scenario = ScenarioConfig::from_json_str(&json).expect("signed float parses");
        assert_eq!(scenario.window_seconds(), 3600.0);
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let depth = 200_000;
        let deep = format!("{}{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        let err = ScenarioConfig::from_json_str(&deep).expect_err("too deep");
        assert!(err.to_string().contains("nesting bound"), "{err}");
        let arrays = scaled_json(&format!("\"nodes\": {}{}", "[".repeat(depth), "]".repeat(depth)));
        assert!(ScenarioConfig::from_json_str(&arrays).is_err());
    }

    #[test]
    fn toml_section_headers_nest_and_fail_typed_when_malformed_or_too_deep() {
        let nested =
            doc::parse_toml("a = 1\n[x]\nb = 2\n[x.y.z]\nc = 3\n[x]\nd = 4\n", "scenario").unwrap();
        let written = doc::write_toml(&nested);
        assert_eq!(written, "a = 1\n\n[x]\nb = 2\nd = 4\n\n[x.y]\n\n[x.y.z]\nc = 3\n");
        assert_eq!(doc::write_toml(&doc::parse_toml(&written, "scenario").unwrap()), written);

        for header in ["[]", "[x..y]", "[.x]", "[x.]", "[x y]", "[x.y", "[\"x\"]"] {
            let err = doc::parse_toml(&format!("{header}\n"), "scenario").expect_err(header);
            assert!(err.to_string().contains("malformed section header"), "{header}: {err}");
        }
        let err = doc::parse_toml("kind = \"conference\"\n[kind.activity]\n", "scenario")
            .expect_err("scalar");
        assert!(err.to_string().contains("not a table"), "{err}");
        let deep = format!("[{}]\n", vec!["t"; crate::json::MAX_DEPTH + 1].join("."));
        let err = doc::parse_toml(&deep, "scenario").expect_err("too deep");
        assert!(err.to_string().contains("nesting bound"), "{err}");
        let bound = format!("[{}]\nx = 1\n", vec!["t"; crate::json::MAX_DEPTH].join("."));
        assert!(doc::parse_toml(&bound, "scenario").is_ok());
    }

    #[test]
    fn repeated_keys_are_errors_naming_the_key_and_table() {
        let cases = [
            ("kind = \"homogeneous\"\nnodes = 20\nnodes = 30\n", "line 3", "\"nodes\" in scenario"),
            (
                "kind = \"conference\"\n[activity]\nprofile = \"constant\"\nprofile = \"constant\"\n",
                "line 4",
                "\"profile\" in activity",
            ),
            // A reopened header keeps the keys it already holds.
            (
                "kind = \"conference\"\n[activity]\nprofile = \"constant\"\n[activity]\nprofile = \"x\"\n",
                "line 5",
                "\"profile\" in activity",
            ),
            ("{\"kind\": \"homogeneous\", \"nodes\": 20, \"nodes\": 30}", "json", "\"nodes\" in scenario"),
            (
                "{\"kind\": \"conference\", \"activity\": {\"profile\": \"constant\", \"profile\": \"constant\"}}",
                "json",
                "\"profile\" in activity",
            ),
        ];
        for (text, at, key) in cases {
            let err = ScenarioConfig::from_config_str(text).expect_err(text);
            let message = err.to_string();
            assert!(message.contains(&format!("{at}: duplicate key {key}")), "{text}: {message}");
        }
        // One of each key still parses, and a header may be reopened for
        // new keys.
        let ok = ScenarioConfig::from_toml_str(
            "kind = \"conference\"\n[activity]\nprofile = \"tail_dropoff\"\n[activity]\n\
             dropoff_seconds = 900.0\nfinal_fraction = 0.5\n",
        )
        .unwrap();
        assert!(matches!(ok, ScenarioConfig::Conference(c) if c.activity
            == ActivityProfile::TailDropoff { dropoff_seconds: 900.0, final_fraction: 0.5 }));
    }

    #[test]
    fn scenario_set_rejects_duplicate_names() {
        let a = ScenarioConfig::Scaled(ScaledConfig::default());
        let b = ScenarioConfig::Scaled(ScaledConfig { seed: 9, ..ScaledConfig::default() });
        let err = ScenarioSet::new(vec![a.clone(), b]).expect_err("same name");
        assert!(err.to_string().contains("duplicate"), "{err}");
        let ok = ScenarioSet::new(vec![a]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        for scenario in all_default_scenarios() {
            let reseeded = scenario.with_seed(0xABCD);
            assert_eq!(reseeded.seed(), 0xABCD);
            assert_eq!(reseeded.kind(), scenario.kind());
            assert_eq!(reseeded.node_count(), scenario.node_count());
        }
    }

    /// Builds an arbitrary scenario from plain sampled numbers — the
    /// vendored proptest has no enum strategies, so variant choice is an
    /// index.
    fn scenario_from_parts(
        variant: usize,
        nodes: usize,
        window: f64,
        rate: f64,
        seed: u64,
        factors: Vec<f64>,
        activity_kind: usize,
    ) -> ScenarioConfig {
        match variant % 5 {
            0 => ScenarioConfig::Conference(ConferenceConfig {
                name: format!("conf-{seed}"),
                mobile_nodes: nodes,
                stationary_nodes: nodes / 3 + 1,
                window_seconds: window,
                max_node_rate: rate,
                min_node_rate: rate / 50.0,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 120.0,
                contact_duration_cv: 1.0,
                activity: match activity_kind % 3 {
                    0 => ActivityProfile::Constant,
                    1 => ActivityProfile::Piecewise(factors),
                    _ => ActivityProfile::TailDropoff {
                        dropoff_seconds: window / 4.0,
                        final_fraction: 0.35,
                    },
                },
                inquiry_scan_period: if seed.is_multiple_of(2) { Some(120.0) } else { None },
                seed,
            }),
            1 => ScenarioConfig::Homogeneous(HomogeneousConfig {
                nodes,
                window_seconds: window,
                node_contact_rate: rate,
                mean_contact_duration: 90.0,
                seed,
            }),
            2 => ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                nodes,
                window_seconds: window,
                max_node_rate: rate,
                mean_contact_duration: 90.0,
                seed,
            }),
            3 => ScenarioConfig::Community(CommunityConfig {
                name: format!("community-{seed}"),
                communities: variant % 7 + 1,
                nodes_per_community: nodes,
                window_seconds: window,
                max_node_rate: rate,
                intra_inter_ratio: 1.0 + (seed % 16) as f64,
                mean_contact_duration: 100.0,
                contact_duration_cv: 0.8,
                seed,
            }),
            _ => ScenarioConfig::Scaled(ScaledConfig {
                name: format!("scaled-{seed}"),
                nodes: nodes * 10,
                window_seconds: window,
                max_node_rate: rate,
                min_node_rate: rate / 60.0,
                mean_contact_duration: 110.0,
                seed,
            }),
        }
    }

    proptest! {
        #[test]
        fn any_scenario_round_trips_through_both_formats(
            variant in 0usize..5,
            nodes in 2usize..200,
            window in 60.0f64..20_000.0,
            rate in 1e-4f64..0.5,
            seed in 0u64..u64::MAX,
            factors in proptest::collection::vec(0.05f64..3.0, 1..6),
            activity_kind in 0usize..3,
        ) {
            let scenario =
                scenario_from_parts(variant, nodes, window, rate, seed, factors, activity_kind);
            let toml = scenario.to_toml_string();
            prop_assert_eq!(
                ScenarioConfig::from_toml_str(&toml).expect("toml reparses"),
                scenario.clone(),
                "toml:\n{}",
                toml
            );
            let json = scenario.to_json_string();
            prop_assert_eq!(
                ScenarioConfig::from_json_str(&json).expect("json reparses"),
                scenario,
                "json:\n{}",
                json
            );
        }

        #[test]
        fn generation_is_deterministic_per_seed_across_families(
            variant in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            // Small populations/windows keep the property cheap while still
            // covering every family.
            let scenario = scenario_from_parts(variant, 6, 400.0, 0.05, seed, vec![1.0], 0);
            let a = scenario.generate();
            let b = scenario.generate();
            prop_assert_eq!(a.contacts(), b.contacts());
            prop_assert_eq!(a.node_count(), b.node_count());

            // A different seed must not reproduce the same contact list
            // (unless both are empty, which the rates above make unlikely —
            // but guard it anyway).
            let other = scenario.with_seed(seed ^ 0x5A5A_5A5A).generate();
            if !a.is_empty() || !other.is_empty() {
                prop_assert!(
                    a.contacts() != other.contacts(),
                    "different seeds must give different traces"
                );
            }
        }
    }
}
