//! Prometheus text exposition (format version 0.0.4) for a
//! [`MetricsSnapshot`]. Histograms render cumulative `_bucket{le=...}`
//! series plus `_sum`/`_count`, matching what a scraper expects.

use std::fmt::Write as _;

use crate::metrics::{LabelSet, MetricValue, MetricsSnapshot};

/// Render the snapshot as Prometheus exposition text. Series of one family
/// (same name, different label sets) share a single HELP/TYPE header; each
/// series renders as `name{k="v",...} value` with escaped label values.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for m in &snapshot.metrics {
        let kind = match &m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        // The snapshot is name-sorted, so a family's series are adjacent:
        // emit the header only on the first.
        if last_name != Some(m.name.as_str()) {
            if !m.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
            }
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_name = Some(m.name.as_str());
        }
        let labels = label_block(&m.labels);
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, labels, v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, labels, fmt_f64(*v));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, bound) in h.bounds.iter().enumerate() {
                    cumulative += h.counts[i];
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        bucket_block(&m.labels, &fmt_f64(*bound)),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    m.name,
                    bucket_block(&m.labels, "+Inf"),
                    h.count
                );
                let _ = writeln!(out, "{}_sum{} {}", m.name, labels, fmt_f64(h.sum));
                let _ = writeln!(out, "{}_count{} {}", m.name, labels, h.count);
            }
        }
    }
    out
}

/// `{k1="v1",k2="v2"}` with escaped values; empty string for no labels.
fn label_block(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// The label block for a histogram bucket line: the series labels with the
/// cumulative `le` bound appended last.
fn bucket_block(labels: &LabelSet, le: &str) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    inner.push(format!("le=\"{le}\""));
    format!("{{{}}}", inner.join(","))
}

/// Escape HELP text per the exposition format: backslash and newline only.
/// Backslash must go first or the escaped newline's own backslash would be
/// doubled.
pub fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value per the exposition format: backslash, double quote,
/// and newline. Anything else (including UTF-8) passes through verbatim.
pub fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, Registry};

    #[test]
    fn renders_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("gt_serve_retries_total", "Total retry attempts")
            .add(3);
        reg.gauge("gt_cache_hit_rate", "Feature cache hit rate")
            .set(0.75);
        let h = reg.histogram("gt_batch_e2e_us", "Batch latency", || {
            Histogram::with_bounds(vec![100.0, 1000.0])
        });
        h.observe(50.0);
        h.observe(500.0);
        h.observe(5000.0);

        let text = render(&reg.snapshot());
        assert!(text.contains("# TYPE gt_serve_retries_total counter"));
        assert!(text.contains("gt_serve_retries_total 3"));
        assert!(text.contains("# HELP gt_cache_hit_rate Feature cache hit rate"));
        assert!(text.contains("gt_cache_hit_rate 0.75"));
        // Cumulative buckets: 1 at le=100, 2 at le=1000, 3 at +Inf.
        assert!(text.contains("gt_batch_e2e_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("gt_batch_e2e_us_bucket{le=\"1000\"} 2"));
        assert!(text.contains("gt_batch_e2e_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gt_batch_e2e_us_sum 5550"));
        assert!(text.contains("gt_batch_e2e_us_count 3"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render(&Registry::new().snapshot()), "");
    }

    /// Labeled families: one HELP/TYPE header per name, one series line per
    /// label set, label values escaped.
    #[test]
    fn labeled_series_render_as_one_family() {
        let reg = Registry::new();
        reg.counter_with("gt_req_total", "Requests", &[("tenant", "a")])
            .add(2);
        reg.counter_with("gt_req_total", "Requests", &[("tenant", "b\"x")])
            .add(3);
        reg.gauge_with("gt_link_util", "", &[("link", "w0"), ("dir", "tx")])
            .set(0.5);
        let h = reg.histogram("gt_stage_us", "", || Histogram::with_bounds(vec![100.0]));
        h.observe(50.0);

        let text = render(&reg.snapshot());
        assert_eq!(
            text.matches("# TYPE gt_req_total counter").count(),
            1,
            "one TYPE header per family:\n{text}"
        );
        assert!(text.contains("gt_req_total{tenant=\"a\"} 2"));
        assert!(text.contains("gt_req_total{tenant=\"b\\\"x\"} 3"));
        // Labels render key-sorted regardless of registration order.
        assert!(text.contains("gt_link_util{dir=\"tx\",link=\"w0\"} 0.5"));
        assert!(text.contains("gt_stage_us_bucket{le=\"100\"} 1"));
    }

    /// Exposition-format conformance: HELP escapes `\` and newline; label
    /// values escape `\`, `"`, and newline, in an order that never
    /// double-escapes.
    #[test]
    fn help_and_label_escaping_conform() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("line1\nline2"), "line1\\nline2");
        assert_eq!(escape_help("path C:\\tmp"), "path C:\\\\tmp");
        // A literal backslash-n in the input must stay distinguishable from
        // an escaped newline: `\n` → `\\n`, newline → `\n`.
        assert_eq!(escape_help("\\n\n"), "\\\\n\\n");

        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");

        // End to end: a multi-line HELP with a backslash renders on one
        // line and round-trips the backslash.
        let reg = Registry::new();
        reg.counter("gt_esc_total", "first\nsecond \\ third").inc();
        let text = render(&reg.snapshot());
        assert!(text.contains("# HELP gt_esc_total first\\nsecond \\\\ third"));
        // The HELP record stays a single line.
        let help_line = text
            .lines()
            .find(|l| l.starts_with("# HELP gt_esc_total"))
            .unwrap();
        assert!(!help_line.contains('\n'));
    }
}
