//! The typed report value model.
//!
//! Every study produces a [`ReportDoc`]: an ordered list of [`Section`]s
//! whose contents are *values* — schema'd [`Table`]s, two-column
//! [`Series`], and named [`Scalar`]s, each carrying column names, number
//! formats and optional units — rather than pre-rendered text. Rendering is
//! the job of the pluggable backends in [`crate::report::render`]:
//! `TextRenderer` reproduces the historical plain-text/CSV stream
//! byte-for-byte (pinned by the golden preset tests), `JsonRenderer` emits
//! a parseable schema for downstream tooling, and `CsvRenderer` writes one
//! file per table.
//!
//! Presentation details the legacy text format needs (figure titles with
//! embedded statistics, `##` subsection headings, free-form `#` notes) are
//! modelled as explicit [`Block`]s so the text renderer stays a dumb
//! walker. Statistics that the title string embeds are *also* stored as
//! typed [`Section::stats`] scalars, which sweep summaries and JSON
//! consumers read without re-parsing our own output.

use psn_stats::Ecdf;

/// How a floating-point value is formatted by the text and CSV renderers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberFormat {
    /// Fixed-point with the given number of decimals (`{:.n}`).
    Fixed(usize),
    /// Rust's shortest `Display` form (`{}`) — integers print without a
    /// decimal point.
    Display,
}

impl NumberFormat {
    /// Formats a float according to this format.
    pub fn format(&self, value: f64) -> String {
        match self {
            NumberFormat::Fixed(decimals) => format!("{:.*}", *decimals, value),
            NumberFormat::Display => format!("{value}"),
        }
    }
}

/// One column of a [`Table`] or one axis of a [`Series`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name, emitted in CSV-style header rows.
    pub name: String,
    /// Optional physical unit (e.g. `"s"`), carried for consumers; the
    /// text renderer never prints it (legacy column names embed units).
    pub unit: Option<String>,
    /// Number format applied to [`CellValue::Float`] cells.
    pub format: NumberFormat,
}

impl Column {
    /// A float column with fixed-point formatting.
    pub fn fixed(name: impl Into<String>, decimals: usize) -> Self {
        Self { name: name.into(), unit: None, format: NumberFormat::Fixed(decimals) }
    }

    /// A float column formatted with `{}` (shortest form).
    pub fn display(name: impl Into<String>) -> Self {
        Self { name: name.into(), unit: None, format: NumberFormat::Display }
    }

    /// An integer column.
    pub fn int(name: impl Into<String>) -> Self {
        Self::display(name)
    }

    /// A text column.
    pub fn text(name: impl Into<String>) -> Self {
        Self::display(name)
    }

    /// Attaches a unit to the column.
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = Some(unit.into());
        self
    }
}

/// One typed cell of a table row.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// A float, formatted according to the column's [`NumberFormat`].
    Float(f64),
    /// An integer, always formatted with `{}`.
    Int(u64),
    /// A label.
    Text(String),
    /// A missing value — rendered `-` in text, `null` in JSON, empty in
    /// CSV.
    Missing,
}

impl CellValue {
    /// A float cell that is missing when `value` is `None`.
    pub fn opt_float(value: Option<f64>) -> Self {
        value.map_or(CellValue::Missing, CellValue::Float)
    }

    /// Renders the cell for the text and CSV backends.
    pub fn render(&self, format: NumberFormat) -> String {
        match self {
            CellValue::Float(v) => format.format(*v),
            CellValue::Int(v) => v.to_string(),
            CellValue::Text(t) => t.clone(),
            CellValue::Missing => "-".to_string(),
        }
    }
}

/// How the text renderer lays a table out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableStyle {
    /// CSV-style: a header row of column names, then one comma-joined row
    /// per entry.
    Csv,
    /// The Fig. 15 box-plot line style: no header; each row must follow the
    /// column schema `label, n, min, q1, med, q3, max, whisker_low,
    /// whisker_high, outliers` and renders as
    /// `label: n=… min=… q1=… med=… q3=… max=… whiskers=[…,…] outliers=…`.
    BoxPlotLines,
}

/// A schema'd table: named columns with formats/units plus typed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Machine-readable table name (CSV file naming, JSON); never rendered
    /// in text.
    pub name: String,
    /// Text layout style.
    pub style: TableStyle,
    /// Column schema.
    pub columns: Vec<Column>,
    /// Rows; every row has exactly one cell per column.
    pub rows: Vec<Vec<CellValue>>,
}

impl Table {
    /// Creates an empty CSV-style table.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Self { name: name.into(), style: TableStyle::Csv, columns, rows: Vec::new() }
    }

    /// Switches the table to the box-plot line style.
    pub fn with_style(mut self, style: TableStyle) -> Self {
        self.style = style;
        self
    }

    /// Appends a row; panics if the cell count does not match the schema.
    pub fn push_row(&mut self, row: Vec<CellValue>) {
        assert_eq!(row.len(), self.columns.len(), "table {:?}: row/column mismatch", self.name);
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A two-column series of `(x, y)` float points (CDFs, time series,
/// scatters).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name. The text renderer prints it only in the
    /// `# name: N samples` caption (when [`Series::samples`] is set); CSV
    /// uses it for file naming.
    pub name: String,
    /// Number of underlying samples, when the series is a down-sampled view
    /// of a distribution (ECDFs). `None` for exact series.
    pub samples: Option<usize>,
    /// X-axis column.
    pub x: Column,
    /// Y-axis column.
    pub y: Column,
    /// The points, in presentation order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from explicit points.
    pub fn new(name: impl Into<String>, x: Column, y: Column, points: Vec<(f64, f64)>) -> Self {
        Self { name: name.into(), samples: None, x, y, points }
    }

    /// Builds the step-function series of an ECDF with the legacy
    /// `value,probability` schema, recording the sample count for the
    /// `# name: N samples` caption.
    pub fn from_ecdf(name: impl Into<String>, cdf: &Ecdf) -> Self {
        Self {
            name: name.into(),
            samples: Some(cdf.len()),
            x: Column::fixed("value", 3),
            y: Column::fixed("probability", 4),
            points: cdf.step_points(),
        }
    }

    /// Thins the series to roughly `max_points` points — **the** ECDF
    /// down-sampling rule all renderers share: with
    /// `step = max(len / max(max_points, 1), 1)`, a
    /// point is kept iff its index is a multiple of `step` or it is the
    /// last point. The output can therefore slightly exceed `max_points`,
    /// exactly as the legacy renderer did.
    pub fn downsample(mut self, max_points: usize) -> Self {
        let len = self.points.len();
        let step = (len / max_points.max(1)).max(1);
        self.points = self
            .points
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % step == 0 || i + 1 == len)
            .map(|(_, p)| p)
            .collect();
        self
    }

    /// Number of points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A named scalar statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// Statistic name; the text renderer prints `# name: value`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Optional unit, carried for consumers.
    pub unit: Option<String>,
    /// Number format.
    pub format: NumberFormat,
}

impl Scalar {
    /// A fixed-point scalar.
    pub fn fixed(name: impl Into<String>, value: f64, decimals: usize) -> Self {
        Self { name: name.into(), value, unit: None, format: NumberFormat::Fixed(decimals) }
    }

    /// A `{}`-formatted scalar.
    pub fn display(name: impl Into<String>, value: f64) -> Self {
        Self { name: name.into(), value, unit: None, format: NumberFormat::Display }
    }

    /// Attaches a unit.
    pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
        self.unit = Some(unit.into());
        self
    }

    /// The formatted value.
    pub fn render_value(&self) -> String {
        self.format.format(self.value)
    }
}

/// One content block of a section.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// The section's display title; text renders `# title`.
    Title(String),
    /// A `##` subsection heading.
    Heading(String),
    /// A free-form comment line; text renders `# note`.
    Note(String),
    /// A named scalar; text renders `# name: value`.
    Scalar(Scalar),
    /// A table.
    Table(Table),
    /// A series.
    Series(Series),
}

/// Generator metadata of the run a section belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Scenario family tag (`conference`, `community`, …).
    pub scenario_kind: String,
    /// Generator seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Observation-window length in seconds.
    pub window_seconds: f64,
}

/// One report section — the typed counterpart of what one `(run, view)`
/// pair used to render as text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// Label of the run (scenario) the section describes; empty for
    /// scenario-less studies.
    pub scenario: String,
    /// View slug (`StudyView::name()`), assigned by the study pipeline.
    pub view: String,
    /// Generator metadata of the run, when the section belongs to one.
    pub run: Option<RunMeta>,
    /// Typed statistics that the title string embeds for display. The text
    /// renderer does not print these (the title already shows them); JSON
    /// and sweep summaries consume them directly.
    pub stats: Vec<Scalar>,
    /// The content blocks, in presentation order.
    pub blocks: Vec<Block>,
}

impl Section {
    /// Creates an empty, untagged section (the study pipeline tags it with
    /// scenario, view and run metadata).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a block.
    pub fn block(mut self, block: Block) -> Self {
        self.blocks.push(block);
        self
    }

    /// Appends a typed statistic.
    pub fn stat(mut self, stat: Scalar) -> Self {
        self.stats.push(stat);
        self
    }

    /// All scalar values of the section: the typed stats followed by every
    /// scalar block, in order. Sweep summaries build their per-cell columns
    /// from this.
    pub fn scalars(&self) -> Vec<&Scalar> {
        self.stats
            .iter()
            .chain(self.blocks.iter().filter_map(|b| match b {
                Block::Scalar(s) => Some(s),
                _ => None,
            }))
            .collect()
    }
}

/// A complete typed report: the executed result of a study (or sweep),
/// ready for any renderer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDoc {
    /// Name of the study that produced the report.
    pub study: String,
    /// Sections in presentation order.
    pub sections: Vec<Section>,
}

impl ReportDoc {
    /// Creates an empty report for `study`.
    pub fn new(study: impl Into<String>) -> Self {
        Self { study: study.into(), sections: Vec::new() }
    }

    /// The sections belonging to one scenario label.
    pub fn sections_for(&self, scenario: &str) -> Vec<&Section> {
        self.sections.iter().filter(|s| s.scenario == scenario).collect()
    }
}

/// Lower-cases and hyphenates a label for use in file names (CSV
/// artifacts): alphanumerics pass through, everything else collapses to a
/// single `-`.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_dash && !out.is_empty() {
                out.push('-');
            }
            pending_dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_dash = true;
        }
    }
    if out.is_empty() {
        "x".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn number_formats_match_legacy_format_strings() {
        assert_eq!(NumberFormat::Fixed(3).format(0.125), "0.125");
        assert_eq!(NumberFormat::Fixed(0).format(61.4), "61");
        assert_eq!(NumberFormat::Fixed(1).format(2.0), "2.0");
        // `Display` matches `{}` on f64: integral values drop the point.
        assert_eq!(NumberFormat::Display.format(12.0), "12");
        assert_eq!(NumberFormat::Display.format(0.02), "0.02");
    }

    #[test]
    fn cells_render_like_the_legacy_text() {
        assert_eq!(CellValue::Float(1.25).render(NumberFormat::Fixed(1)), "1.2");
        assert_eq!(CellValue::Int(7).render(NumberFormat::Fixed(5)), "7");
        assert_eq!(CellValue::Text("Epidemic".into()).render(NumberFormat::Display), "Epidemic");
        assert_eq!(CellValue::Missing.render(NumberFormat::Fixed(1)), "-");
        assert_eq!(CellValue::opt_float(None), CellValue::Missing);
        assert_eq!(CellValue::opt_float(Some(2.0)), CellValue::Float(2.0));
    }

    #[test]
    fn downsample_pins_the_legacy_thinning_rule() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 / 10.0)).collect();
        let series = Series::new("s", Column::fixed("x", 3), Column::fixed("y", 4), points);

        // step = max(10 / 4, 1) = 2 → indices 0,2,4,6,8 plus the forced
        // last point 9: six points survive, slightly over max_points — the
        // rule `render_cdf` always used.
        let thinned = series.clone().downsample(4);
        let xs: Vec<f64> = thinned.points.iter().map(|p| p.0).collect();
        assert_eq!(xs, vec![0.0, 2.0, 4.0, 6.0, 8.0, 9.0]);

        // More budget than points: everything survives.
        assert_eq!(series.clone().downsample(100).points.len(), 10);
        // A zero budget behaves like a budget of one (step = len).
        let xs: Vec<f64> = series.downsample(0).points.iter().map(|p| p.0).collect();
        assert_eq!(xs, vec![0.0, 9.0]);
    }

    #[test]
    fn ecdf_series_uses_the_legacy_cdf_schema() {
        let cdf = Ecdf::new(&[1.0, 2.0, 2.0, 5.0]).unwrap();
        let series = Series::from_ecdf("test", &cdf);
        assert_eq!(series.samples, Some(4));
        assert_eq!(series.x.name, "value");
        assert_eq!(series.y.name, "probability");
        assert_eq!(series.points, cdf.step_points());
    }

    #[test]
    fn table_rejects_schema_mismatches() {
        let mut table = Table::new("t", vec![Column::text("a"), Column::fixed("b", 1)]);
        table.push_row(vec![CellValue::Text("x".into()), CellValue::Float(1.0)]);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.push_row(vec![CellValue::Missing]);
        }));
        assert!(result.is_err(), "short row must panic");
    }

    #[test]
    fn section_scalars_concatenate_stats_and_scalar_blocks() {
        let section = Section::new()
            .stat(Scalar::fixed("cv", 0.5, 3))
            .block(Block::Title("t".into()))
            .block(Block::Scalar(Scalar::fixed("spread", 0.1, 3)));
        let names: Vec<&str> = section.scalars().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["cv", "spread"]);
    }

    #[test]
    fn slugs_are_filename_safe() {
        assert_eq!(slug("Infocom06 9-12"), "infocom06-9-12");
        assert_eq!(slug("delay (s)"), "delay-s");
        assert_eq!(slug("  __ "), "x");
        assert_eq!(slug("Greedy Total"), "greedy-total");
    }
}
