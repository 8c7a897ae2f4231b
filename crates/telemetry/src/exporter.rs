//! One schema, two renders: the [`Exporter`] trait.
//!
//! Every number a process exports is one row of a [`FieldDef`] table: its
//! JSON key, its Prometheus family and the family's kind. The struct that
//! owns the number declares the table and a `walk` that feeds any
//! [`Exporter`]; this module ships the Prometheus text renderer
//! ([`PrometheusExporter`], the only code in the workspace that writes
//! exposition lines or escapes a label value) and `neptune-core`
//! implements the JSON one over its own `JsonValue`. An empty string in a
//! row opts the field out of that format, so a one-format-only field is
//! visible as such in its table.
//!
//! A walk is a flat sequence: [`group`](Exporter::group) (or
//! [`item`](Exporter::item) for an element of a repeated section) names
//! where the following fields land in the JSON document and which labels
//! their Prometheus samples carry; then one [`field`](Exporter::field),
//! [`text`](Exporter::text) or [`histogram`](Exporter::histogram) call
//! per row.

use crate::histogram::HistogramSnapshot;
use std::fmt::Write;

/// The Prometheus type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// A histogram exported with server-side quantiles plus `_sum` and
    /// `_count` — what a log-bucketed histogram can answer exactly.
    Summary,
}

impl FieldKind {
    /// The `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            FieldKind::Counter => "counter",
            FieldKind::Gauge => "gauge",
            FieldKind::Summary => "summary",
        }
    }
}

/// One exported field, declared once in its owner's table. An empty
/// string opts the field out of that format.
#[derive(Debug, Clone, Copy)]
pub struct FieldDef {
    /// Key in the JSON export (`""` = omit from JSON).
    pub json_key: &'static str,
    /// Prometheus family name (`""` = omit from Prometheus).
    pub prom_name: &'static str,
    /// Prometheus family type.
    pub prom_kind: FieldKind,
}

/// Table row for a monotonic counter.
pub const fn counter(json_key: &'static str, prom_name: &'static str) -> FieldDef {
    FieldDef { json_key, prom_name, prom_kind: FieldKind::Counter }
}

/// Table row for a gauge.
pub const fn gauge(json_key: &'static str, prom_name: &'static str) -> FieldDef {
    FieldDef { json_key, prom_name, prom_kind: FieldKind::Gauge }
}

/// Table row for a histogram.
pub const fn summary(json_key: &'static str, prom_name: &'static str) -> FieldDef {
    FieldDef { json_key, prom_name, prom_kind: FieldKind::Summary }
}

/// A renderer fed by schema walks.
pub trait Exporter {
    /// The fields that follow land in the JSON object at `path` (groups
    /// naming the same path merge into one object; the empty path is the
    /// document root) and carry `labels` on every Prometheus sample.
    fn group(&mut self, path: &[&str], labels: &[(&str, &str)]);

    /// As [`group`](Self::group), for one element of a repeated section:
    /// the fields land in a new object appended to the JSON array at
    /// `path`. A format without arrays tells elements apart by `labels`
    /// alone, which is the default.
    fn item(&mut self, path: &[&str], labels: &[(&str, &str)]) {
        self.group(path, labels);
    }

    /// One scalar field of the current group.
    fn field(&mut self, def: &FieldDef, value: u64);

    /// One string field of the current group. Strings have no Prometheus
    /// form; one worth selecting on is a label of its group instead.
    fn text(&mut self, def: &FieldDef, value: &str);

    /// One histogram field of the current group.
    fn histogram(&mut self, def: &FieldDef, snap: &HistogramSnapshot);

    /// A table of scalar fields and their values, row by row.
    fn fields(&mut self, defs: &[FieldDef], values: &[u64]) {
        debug_assert_eq!(defs.len(), values.len(), "one value per table row");
        for (def, value) in defs.iter().zip(values) {
            self.field(def, *value);
        }
    }
}

/// Renders Prometheus text exposition. Samples buffer per family (in
/// first-seen order) so each family gets exactly one `# TYPE` header
/// with all its label sets grouped under it, as the format requires.
#[derive(Debug, Default)]
pub struct PrometheusExporter {
    /// `(family, kind, sample lines)` in first-seen order.
    families: Vec<(&'static str, FieldKind, String)>,
    /// `k="v",...` of the current group, values escaped.
    labels: String,
}

impl PrometheusExporter {
    /// Empty renderer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rendered exposition.
    pub fn finish(self) -> String {
        let mut out = String::new();
        for (name, kind, samples) in self.families {
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            out.push_str(&samples);
        }
        out
    }

    /// Append `family+suffix{group labels,extra} value` under `def`'s
    /// family.
    fn sample(&mut self, def: &FieldDef, suffix: &str, extra: &str, value: u64) {
        let at = self.families.iter().position(|(name, ..)| *name == def.prom_name);
        let at = at.unwrap_or_else(|| {
            self.families.push((def.prom_name, def.prom_kind, String::new()));
            self.families.len() - 1
        });
        let out = &mut self.families[at].2;
        let _ = write!(out, "{}{suffix}", def.prom_name);
        if !(self.labels.is_empty() && extra.is_empty()) {
            let sep = if self.labels.is_empty() || extra.is_empty() { "" } else { "," };
            let _ = write!(out, "{{{}{sep}{extra}}}", self.labels);
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Escape a label value per the text format (`\`, `"`, newline).
fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

impl Exporter for PrometheusExporter {
    fn group(&mut self, _path: &[&str], labels: &[(&str, &str)]) {
        self.labels.clear();
        for (i, (key, value)) in labels.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(self.labels, "{sep}{key}=\"");
            escape_label(value, &mut self.labels);
            self.labels.push('"');
        }
    }

    fn field(&mut self, def: &FieldDef, value: u64) {
        if !def.prom_name.is_empty() {
            self.sample(def, "", "", value);
        }
    }

    fn text(&mut self, _def: &FieldDef, _value: &str) {}

    fn histogram(&mut self, def: &FieldDef, snap: &HistogramSnapshot) {
        if def.prom_name.is_empty() {
            return;
        }
        self.sample(def, "", "quantile=\"0.5\"", snap.p50());
        self.sample(def, "", "quantile=\"0.95\"", snap.p95());
        self.sample(def, "", "quantile=\"0.99\"", snap.p99());
        self.sample(def, "_sum", "", snap.sum());
        self.sample(def, "_count", "", snap.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;

    const FIELDS: [FieldDef; 3] = [
        counter("io_parks", "neptune_io_parks_total"),
        counter("io_polls", ""),
        gauge("depth", "neptune_queue_depth"),
    ];

    fn walk(e: &mut dyn Exporter, labels: &[(&str, &str)], values: [u64; 3]) {
        e.item(&["queues"], labels);
        e.fields(&FIELDS, &values);
    }

    #[test]
    fn prometheus_groups_samples_under_one_type_header() {
        let mut e = PrometheusExporter::new();
        walk(&mut e, &[("queue", "0")], [1, 2, 3]);
        walk(&mut e, &[("queue", "1")], [4, 5, 6]);
        let out = e.finish();
        assert_eq!(out.matches("# TYPE neptune_queue_depth gauge").count(), 1);
        assert!(out.contains("neptune_queue_depth{queue=\"0\"} 3\n"));
        assert!(out.contains("neptune_queue_depth{queue=\"1\"} 6\n"));
        assert!(!out.contains("io_polls"), "an empty family name opts out");
        // All samples of a family are contiguous under its header.
        let header = out.find("# TYPE neptune_queue_depth gauge").unwrap();
        let q0 = out.find("neptune_queue_depth{queue=\"0\"}").unwrap();
        let q1 = out.find("neptune_queue_depth{queue=\"1\"}").unwrap();
        assert!(header < q0 && q0 < q1);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut e = PrometheusExporter::new();
        walk(&mut e, &[("op", "a\"b\\c\nd")], [1, 0, 0]);
        assert!(e.finish().contains("neptune_io_parks_total{op=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn summary_has_quantiles_sum_and_count_under_one_header() {
        let h = LatencyHistogram::new();
        for v in [100u64, 200, 5_000, 1_000_000] {
            h.record(v);
        }
        let def = summary("e2e", "neptune_e2e_latency_us");
        let mut e = PrometheusExporter::new();
        e.group(&["operators", "relay"], &[("operator", "relay")]);
        e.histogram(&def, &h.snapshot());
        e.group(&[], &[]);
        e.histogram(&def, &h.snapshot());
        e.text(&gauge("graph", ""), "strings have no exposition");
        let out = e.finish();
        assert_eq!(out.matches("# TYPE").count(), 1);
        assert!(out.starts_with("# TYPE neptune_e2e_latency_us summary\n"));
        assert!(out.contains("neptune_e2e_latency_us{operator=\"relay\",quantile=\"0.5\"}"));
        assert!(out.contains("neptune_e2e_latency_us{operator=\"relay\",quantile=\"0.99\"}"));
        assert!(out.contains("neptune_e2e_latency_us_sum{operator=\"relay\"} 1005300\n"));
        assert!(out.contains("neptune_e2e_latency_us_count{operator=\"relay\"} 4\n"));
        assert!(out.contains("neptune_e2e_latency_us{quantile=\"0.95\"}"));
        assert!(out.contains("neptune_e2e_latency_us_count 4\n"));
        assert!(out.ends_with('\n'));
    }
}
