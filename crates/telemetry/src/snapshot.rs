//! The stable, export-oriented view of a registry: [`MetricsSnapshot`] and
//! its serializations.
//!
//! Two wire formats, both built with in-tree formatting (no dependencies):
//!
//! * **JSON-lines** — one self-describing JSON object per sample, with a
//!   `"type"` discriminator (`counter` / `gauge` / `histogram` / `span`).
//!   All values are integers (nanoseconds, counts), so
//!   [`MetricsSnapshot::from_json_lines`] round-trips exactly.
//! * **Prometheus text format** — `# TYPE` headers, `name{label="v"} value`
//!   series, histograms expanded into cumulative `_bucket{le=...}` series
//!   plus `_sum` / `_count`, and span aggregates flattened into
//!   `span_count` / `span_duration_ns_total` counters and min/max gauges
//!   labelled by span name.

use std::fmt::Write as _;

use crate::json::{parse, Json};

/// One counter series: a monotonically non-decreasing `u64`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name, e.g. `requests_total`.
    pub name: String,
    /// Label key/value pairs, in a fixed order.
    pub labels: Vec<(String, String)>,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge series: a signed point-in-time level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name, e.g. `lineage_cache_entries`.
    pub name: String,
    /// Label key/value pairs, in a fixed order.
    pub labels: Vec<(String, String)>,
    /// Gauge value at snapshot time.
    pub value: i64,
}

/// One fixed-bucket histogram series.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name, e.g. `request_latency_ns`.
    pub name: String,
    /// Label key/value pairs, in a fixed order.
    pub labels: Vec<(String, String)>,
    /// Bucket upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; one slot per bound
    /// plus a final overflow slot, so `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSample {
    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) from the fixed
    /// buckets: the upper bound of the first bucket whose cumulative count
    /// reaches `ceil(q * count)`. Observations in the overflow bucket have
    /// no finite bound, so a quantile landing there reports `u64::MAX`
    /// (rendered as the `+Inf` bucket by the Prometheus exporter).
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket);
            if cumulative >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// Aggregate over all finished spans of one name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Span (stage) name, e.g. `encode`.
    pub name: String,
    /// Number of finished spans.
    pub count: u64,
    /// Total duration across all spans, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds (`u64::MAX` if `count == 0`).
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of every metric series and span aggregate, merged
/// from whatever sources the producer chose (registry, session counters,
/// per-shard `dd` stats, ...). The struct is plain data: stable to compare,
/// cheap to extend, and serializable via [`to_json_lines`] /
/// [`to_prometheus`].
///
/// [`to_json_lines`]: MetricsSnapshot::to_json_lines
/// [`to_prometheus`]: MetricsSnapshot::to_prometheus
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: Vec<CounterSample>,
    /// Gauge series.
    pub gauges: Vec<GaugeSample>,
    /// Histogram series.
    pub histograms: Vec<HistogramSample>,
    /// Per-name span aggregates.
    pub spans: Vec<SpanAggregate>,
}

/// An error from [`MetricsSnapshot::from_json_lines`]: the 1-based line it
/// occurred on and a description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotParseError {}

impl MetricsSnapshot {
    /// Appends a counter sample (convenience for producers merging
    /// non-registry sources into a snapshot).
    pub fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.counters.push(CounterSample {
            name: name.to_string(),
            labels: owned_labels(labels),
            value,
        });
    }

    /// Appends a gauge sample.
    pub fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.gauges.push(GaugeSample {
            name: name.to_string(),
            labels: owned_labels(labels),
            value,
        });
    }

    /// The value of the counter with exactly these labels, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && labels_eq(&c.labels, labels))
            .map(|c| c.value)
    }

    /// The sum of every counter series with this name, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The value of the gauge with exactly these labels, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_eq(&g.labels, labels))
            .map(|g| g.value)
    }

    /// The aggregate for spans named `name`, if any finished.
    pub fn span(&self, name: &str) -> Option<&SpanAggregate> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Serializes the snapshot as JSON-lines: one JSON object per sample,
    /// each with a `"type"` discriminator, in snapshot order. The output
    /// ends with a newline unless the snapshot is empty.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let line = Json::Object(vec![
                ("type".into(), Json::Str("counter".into())),
                ("name".into(), Json::Str(c.name.clone())),
                ("labels".into(), labels_json(&c.labels)),
                ("value".into(), Json::UInt(c.value)),
            ]);
            line.write(&mut out);
            out.push('\n');
        }
        for g in &self.gauges {
            let line = Json::Object(vec![
                ("type".into(), Json::Str("gauge".into())),
                ("name".into(), Json::Str(g.name.clone())),
                ("labels".into(), labels_json(&g.labels)),
                ("value".into(), Json::int(g.value)),
            ]);
            line.write(&mut out);
            out.push('\n');
        }
        for h in &self.histograms {
            let mut fields = vec![
                ("type".into(), Json::Str("histogram".into())),
                ("name".into(), Json::Str(h.name.clone())),
                ("labels".into(), labels_json(&h.labels)),
                (
                    "bounds".into(),
                    Json::Array(h.bounds.iter().map(|&b| Json::UInt(b)).collect()),
                ),
                (
                    "buckets".into(),
                    Json::Array(h.buckets.iter().map(|&b| Json::UInt(b)).collect()),
                ),
                ("count".into(), Json::UInt(h.count)),
                ("sum".into(), Json::UInt(h.sum)),
            ];
            // Derived bucket-estimate quantiles; the parser ignores them
            // (they are reconstructible), so the round trip stays exact.
            for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                if let Some(value) = h.quantile(q) {
                    fields.push((key.into(), Json::UInt(value)));
                }
            }
            let line = Json::Object(fields);
            line.write(&mut out);
            out.push('\n');
        }
        for s in &self.spans {
            let line = Json::Object(vec![
                ("type".into(), Json::Str("span".into())),
                ("name".into(), Json::Str(s.name.clone())),
                ("count".into(), Json::UInt(s.count)),
                ("total_ns".into(), Json::UInt(s.total_ns)),
                ("min_ns".into(), Json::UInt(s.min_ns)),
                ("max_ns".into(), Json::UInt(s.max_ns)),
            ]);
            line.write(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses the JSON-lines format back into a snapshot. Blank lines are
    /// skipped; unknown `"type"` values and malformed lines are errors.
    /// Inverse of [`MetricsSnapshot::to_json_lines`].
    pub fn from_json_lines(input: &str) -> Result<MetricsSnapshot, SnapshotParseError> {
        let mut snap = MetricsSnapshot::default();
        for (idx, line) in input.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let err = |message: String| SnapshotParseError {
                line: line_no,
                message,
            };
            let value = parse(line).map_err(|e| err(e.to_string()))?;
            let kind = value
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| err("missing \"type\" field".into()))?;
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| err("missing \"name\" field".into()))?
                .to_string();
            let u64_field = |key: &str| -> Result<u64, SnapshotParseError> {
                value
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err(format!("missing or non-u64 \"{key}\" field")))
            };
            match kind {
                "counter" => snap.counters.push(CounterSample {
                    name,
                    labels: parse_labels(&value).map_err(&err)?,
                    value: u64_field("value")?,
                }),
                "gauge" => snap.gauges.push(GaugeSample {
                    name,
                    labels: parse_labels(&value).map_err(&err)?,
                    value: value
                        .get("value")
                        .and_then(Json::as_i64)
                        .ok_or_else(|| err("missing or non-i64 \"value\" field".into()))?,
                }),
                "histogram" => {
                    let bounds = parse_u64_array(&value, "bounds").map_err(&err)?;
                    let buckets = parse_u64_array(&value, "buckets").map_err(&err)?;
                    if buckets.len() != bounds.len() + 1 {
                        return Err(err("histogram bucket/bound arity mismatch".into()));
                    }
                    snap.histograms.push(HistogramSample {
                        name,
                        labels: parse_labels(&value).map_err(&err)?,
                        bounds,
                        buckets,
                        count: u64_field("count")?,
                        sum: u64_field("sum")?,
                    });
                }
                "span" => snap.spans.push(SpanAggregate {
                    name,
                    count: u64_field("count")?,
                    total_ns: u64_field("total_ns")?,
                    min_ns: u64_field("min_ns")?,
                    max_ns: u64_field("max_ns")?,
                }),
                other => return Err(err(format!("unknown sample type {other:?}"))),
            }
        }
        Ok(snap)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms become cumulative `_bucket{le="..."}` series (with the
    /// terminal `le="+Inf"`) plus `_sum` and `_count`; span aggregates
    /// become `span_count` / `span_duration_ns_total` counters and
    /// `span_duration_ns_min` / `_max` gauges labelled `{span="name"}`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_header = String::new();
        let mut header = |out: &mut String, name: &str, kind: &str| {
            if last_header != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_header = name.to_string();
            }
        };
        for c in &self.counters {
            header(&mut out, &c.name, "counter");
            write_series(&mut out, &c.name, &c.labels, &[], &c.value.to_string());
        }
        for g in &self.gauges {
            header(&mut out, &g.name, "gauge");
            write_series(&mut out, &g.name, &g.labels, &[], &g.value.to_string());
        }
        for h in &self.histograms {
            header(&mut out, &h.name, "histogram");
            let bucket_name = format!("{}_bucket", h.name);
            let mut cumulative = 0u64;
            for (i, &count) in h.buckets.iter().enumerate() {
                cumulative += count;
                let le = match h.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                write_series(
                    &mut out,
                    &bucket_name,
                    &h.labels,
                    &[("le", &le)],
                    &cumulative.to_string(),
                );
            }
            write_series(
                &mut out,
                &format!("{}_sum", h.name),
                &h.labels,
                &[],
                &h.sum.to_string(),
            );
            write_series(
                &mut out,
                &format!("{}_count", h.name),
                &h.labels,
                &[],
                &h.count.to_string(),
            );
        }
        // Bucket-estimate quantiles as a separate gauge family per
        // histogram name (a Prometheus `histogram` family may only carry
        // _bucket/_sum/_count series, so these get their own suffix); a
        // second pass keeps one TYPE header per family.
        for h in &self.histograms {
            let quantile_name = format!("{}_quantile", h.name);
            for (q_label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                let Some(value) = h.quantile(q) else { continue };
                header(&mut out, &quantile_name, "gauge");
                let rendered = if value == u64::MAX {
                    "+Inf".to_string()
                } else {
                    value.to_string()
                };
                write_series(
                    &mut out,
                    &quantile_name,
                    &h.labels,
                    &[("quantile", q_label)],
                    &rendered,
                );
            }
        }
        for (name, kind, value_of) in [
            ("span_count", "counter", 0usize),
            ("span_duration_ns_total", "counter", 1),
            ("span_duration_ns_min", "gauge", 2),
            ("span_duration_ns_max", "gauge", 3),
        ] {
            if self.spans.is_empty() {
                break;
            }
            header(&mut out, name, kind);
            for s in &self.spans {
                let v = [s.count, s.total_ns, s.min_ns, s.max_ns][value_of];
                write_series(&mut out, name, &[], &[("span", &s.name)], &v.to_string());
            }
        }
        out
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn labels_eq(owned: &[(String, String)], borrowed: &[(&str, &str)]) -> bool {
    owned.len() == borrowed.len()
        && owned
            .iter()
            .zip(borrowed)
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

fn labels_json(labels: &[(String, String)]) -> Json {
    Json::Object(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn parse_labels(value: &Json) -> Result<Vec<(String, String)>, String> {
    match value.get("labels") {
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => Ok((k.clone(), s.clone())),
                _ => Err(format!("label {k:?} has a non-string value")),
            })
            .collect(),
        Some(_) => Err("\"labels\" must be an object".into()),
        None => Err("missing \"labels\" field".into()),
    }
}

fn parse_u64_array(value: &Json, key: &str) -> Result<Vec<u64>, String> {
    match value.get(key) {
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("\"{key}\" holds a non-u64 element"))
            })
            .collect(),
        _ => Err(format!("missing or non-array \"{key}\" field")),
    }
}

/// Writes one Prometheus series line; `extra` labels (e.g. `le`) follow the
/// sample's own labels.
fn write_series(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.push_counter(
            "requests_total",
            &[("kind", "probability"), ("tier", "float")],
            7,
        );
        snap.push_counter(
            "requests_total",
            &[("kind", "probability"), ("tier", "exact")],
            2,
        );
        snap.push_gauge("lineage_cache_entries", &[], 3);
        snap.push_gauge("drift", &[("shard", "1")], -4);
        snap.histograms.push(HistogramSample {
            name: "request_latency_ns".into(),
            labels: vec![("kind".into(), "probability".into())],
            bounds: vec![1_000, 4_000],
            buckets: vec![1, 2, 3],
            count: 6,
            sum: 40_000,
        });
        snap.spans.push(SpanAggregate {
            name: "encode".into(),
            count: 2,
            total_ns: 300,
            min_ns: 100,
            max_ns: 200,
        });
        snap
    }

    #[test]
    fn json_lines_round_trip() {
        let snap = sample_snapshot();
        let encoded = snap.to_json_lines();
        let decoded = MetricsSnapshot::from_json_lines(&encoded).unwrap();
        assert_eq!(decoded, snap);
        // Blank lines are tolerated.
        let spaced = encoded.replace('\n', "\n\n");
        assert_eq!(MetricsSnapshot::from_json_lines(&spaced).unwrap(), snap);
    }

    #[test]
    fn json_lines_rejects_malformed_input() {
        for (input, want_line) in [
            ("{\"type\":\"counter\"}", 1),
            ("{\"type\":\"nope\",\"name\":\"x\"}", 1),
            ("not json", 1),
            (
                "{\"type\":\"span\",\"name\":\"s\",\"count\":1,\"total_ns\":1,\"min_ns\":1,\"max_ns\":1}\n{\"type\":\"gauge\",\"name\":\"g\"}",
                2,
            ),
        ] {
            let e = MetricsSnapshot::from_json_lines(input).unwrap_err();
            assert_eq!(e.line, want_line, "input: {input}");
            assert!(!e.to_string().is_empty());
        }
        // Histogram arity mismatch.
        let bad = "{\"type\":\"histogram\",\"name\":\"h\",\"labels\":{},\"bounds\":[1],\"buckets\":[1],\"count\":1,\"sum\":1}";
        assert!(MetricsSnapshot::from_json_lines(bad).is_err());
    }

    #[test]
    fn accessors_find_series() {
        let snap = sample_snapshot();
        assert_eq!(
            snap.counter(
                "requests_total",
                &[("kind", "probability"), ("tier", "float")]
            ),
            Some(7)
        );
        assert_eq!(snap.counter("requests_total", &[]), None);
        assert_eq!(snap.counter_total("requests_total"), 9);
        assert_eq!(snap.gauge("drift", &[("shard", "1")]), Some(-4));
        assert_eq!(snap.span("encode").unwrap().count, 2);
        assert!(snap.span("decode").is_none());
    }

    #[test]
    fn quantiles_estimate_from_buckets() {
        let h = HistogramSample {
            name: "latency".into(),
            labels: vec![],
            bounds: vec![1_000, 4_000, 16_000],
            // 5 in (0, 1000], 3 in (1000, 4000], 1 in (4000, 16000], 1 overflow.
            buckets: vec![5, 3, 1, 1],
            count: 10,
            sum: 0,
        };
        assert_eq!(h.quantile(0.50), Some(1_000));
        assert_eq!(h.quantile(0.75), Some(4_000));
        assert_eq!(h.quantile(0.90), Some(16_000));
        // The last observation sits in the overflow bucket: no finite bound.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        let empty = HistogramSample {
            buckets: vec![0, 0, 0, 0],
            count: 0,
            ..h.clone()
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantiles_surface_in_both_exporters() {
        let snap = sample_snapshot();
        // sample_snapshot: buckets [1, 2, 3] over bounds [1000, 4000].
        let json = snap.to_json_lines();
        assert!(json.contains("\"p50\":4000"));
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"p99\":"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE request_latency_ns_quantile gauge"));
        assert!(prom
            .contains("request_latency_ns_quantile{kind=\"probability\",quantile=\"0.5\"} 4000"));
        assert!(prom
            .contains("request_latency_ns_quantile{kind=\"probability\",quantile=\"0.95\"} +Inf"));
        // Derived fields do not perturb the exact round trip.
        assert_eq!(MetricsSnapshot::from_json_lines(&json).unwrap(), snap);
    }

    #[test]
    fn prometheus_format_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        // One TYPE header even with two series of the same name.
        assert_eq!(text.matches("# TYPE requests_total counter").count(), 1);
        assert!(text.contains("requests_total{kind=\"probability\",tier=\"float\"} 7"));
        assert!(text.contains("lineage_cache_entries 3"));
        assert!(text.contains("drift{shard=\"1\"} -4"));
        // Cumulative buckets: 1, 3, 6 with the +Inf terminal.
        assert!(text.contains("request_latency_ns_bucket{kind=\"probability\",le=\"1000\"} 1"));
        assert!(text.contains("request_latency_ns_bucket{kind=\"probability\",le=\"4000\"} 3"));
        assert!(text.contains("request_latency_ns_bucket{kind=\"probability\",le=\"+Inf\"} 6"));
        assert!(text.contains("request_latency_ns_sum{kind=\"probability\"} 40000"));
        assert!(text.contains("request_latency_ns_count{kind=\"probability\"} 6"));
        assert!(text.contains("span_count{span=\"encode\"} 2"));
        assert!(text.contains("span_duration_ns_total{span=\"encode\"} 300"));
        assert!(text.contains("span_duration_ns_min{span=\"encode\"} 100"));
        assert!(text.contains("span_duration_ns_max{span=\"encode\"} 200"));
        // Label values with quotes/backslashes are escaped.
        let mut snap = MetricsSnapshot::default();
        snap.push_counter("c", &[("k", "a\"b\\c")], 1);
        assert!(snap.to_prometheus().contains("c{k=\"a\\\"b\\\\c\"} 1"));
    }
}
