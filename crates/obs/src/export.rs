//! Exporters: Prometheus-style text exposition and a flat-JSON snapshot
//! in the unified bench key scheme.
//!
//! # Key scheme (the one `snake_case` scheme, see DESIGN.md §10)
//!
//! Flat-JSON keys are `snake_case`, built as:
//!
//! * counters/gauges — the metric name verbatim,
//! * histograms — `<name>_{p50,p95,p99,p999,max,mean}_ns` plus
//!   `<name>_count`,
//! * phases — `phase_<name>_ns` and `phase_<name>_count`.
//!
//! Every value is a plain number, so the whole line parses with
//! `tcam_bench::jsonline::parse_flat_object`.

use crate::hist::LatencyHistogram;
use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Renders a snapshot as a single flat JSON object (one line, keys
/// sorted as stored: counters, gauges, histograms, phases).
#[must_use]
pub fn flat_json(snap: &Snapshot) -> String {
    let mut fields: Vec<(String, f64)> = Vec::new();
    for &(name, v) in &snap.counters {
        fields.push((name.to_string(), v as f64));
    }
    for &(name, v) in &snap.gauges {
        fields.push((name.to_string(), v));
    }
    for (name, h) in &snap.hists {
        for (k, v) in hist_fields(h) {
            fields.push((format!("{name}_{k}"), v));
        }
    }
    for &(name, stat) in &snap.phases {
        fields.push((format!("phase_{name}_ns"), stat.ns as f64));
        fields.push((format!("phase_{name}_count"), stat.count as f64));
    }
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {}", fmt_num(*v));
    }
    out.push('}');
    out
}

/// The unified histogram field set: quantile/max/mean in nanoseconds plus
/// the sample count. Shared by the JSON exporter and the bench binaries
/// so every histogram in every JSON line carries the same keys.
#[must_use]
pub fn hist_fields(h: &LatencyHistogram) -> Vec<(&'static str, f64)> {
    vec![
        ("p50_ns", h.quantile(50.0) as f64),
        ("p95_ns", h.quantile(95.0) as f64),
        ("p99_ns", h.quantile(99.0) as f64),
        ("p999_ns", h.quantile(99.9) as f64),
        ("max_ns", h.max() as f64),
        ("mean_ns", h.mean()),
        ("count", h.count() as f64),
    ]
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes `s` for embedding in a JSON string literal — the one escaper
/// every JSON emitter in the workspace uses.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a string for use as a Prometheus label **value**: `\` →
/// `\\`, `"` → `\"`, newline → `\n` (the exposition-format rule). A
/// hostile value can otherwise terminate the label early and inject
/// arbitrary series into the scrape.
#[must_use]
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one series identifier `name{k="v",...}` with every label
/// value escaped via [`escape_label_value`]. No braces when `labels`
/// is empty.
#[must_use]
pub fn prom_series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{name}{{{body}}}")
}

fn family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# HELP`/`# TYPE` pair per metric, histograms as summaries with
/// `quantile` labels plus `_sum`/`_count`/`_max`.
#[must_use]
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for &(name, v) in &snap.counters {
        family_header(&mut out, name, "counter", "tcam-obs counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for &(name, v) in &snap.gauges {
        family_header(&mut out, name, "gauge", "tcam-obs gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &snap.hists {
        family_header(&mut out, name, "summary", "tcam-obs latency summary (ns)");
        for (q, qs) in [
            (50.0, "0.5"),
            (95.0, "0.95"),
            (99.0, "0.99"),
            (99.9, "0.999"),
        ] {
            let _ = writeln!(
                out,
                "{} {}",
                prom_series(name, &[("quantile", qs)]),
                h.quantile(q)
            );
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum());
        let _ = writeln!(out, "{name}_count {}", h.count());
        let _ = writeln!(out, "{name}_max {}", h.max());
    }
    for &(name, stat) in &snap.phases {
        let _ = writeln!(out, "# HELP phase_{name}_ns tcam-obs phase self-time (ns)");
        let _ = writeln!(out, "# TYPE phase_{name}_ns counter");
        let _ = writeln!(out, "phase_{name}_ns {}", stat.ns);
        let _ = writeln!(out, "# HELP phase_{name}_count tcam-obs phase entry count");
        let _ = writeln!(out, "# TYPE phase_{name}_count counter");
        let _ = writeln!(out, "phase_{name}_count {}", stat.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Built by hand rather than through the global registry, so the
    // expected values don't depend on what other tests recorded.
    fn test_snapshot() -> Snapshot {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        Snapshot {
            counters: vec![("test_exp_total", 42)],
            gauges: vec![("test_exp_depth", 3.5)],
            hists: vec![("test_exp_lat", h)],
            phases: vec![("test_exp_phase", crate::PhaseStat { ns: 1500, count: 3 })],
        }
    }

    #[test]
    fn flat_json_is_flat_and_carries_unified_keys() {
        let json = flat_json(&test_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"test_exp_total\": 42"), "{json}");
        assert!(json.contains("\"test_exp_depth\": 3.5"), "{json}");
        assert!(json.contains("\"test_exp_lat_p50_ns\":"), "{json}");
        assert!(json.contains("\"test_exp_lat_count\": 3"), "{json}");
        // Flat: no nested objects or arrays anywhere.
        assert!(!json[1..json.len() - 1].contains(['{', '[']), "{json}");
    }

    #[test]
    fn prometheus_text_renders_types_and_labels() {
        let text = prometheus_text(&test_snapshot());
        assert!(text.contains("# TYPE test_exp_total counter"), "{text}");
        assert!(text.contains("# HELP test_exp_total "), "{text}");
        assert!(text.contains("test_exp_total 42"), "{text}");
        assert!(text.contains("# TYPE test_exp_depth gauge"), "{text}");
        assert!(text.contains("test_exp_depth 3.5"), "{text}");
        assert!(text.contains("# TYPE test_exp_lat summary"), "{text}");
        assert!(text.contains("test_exp_lat{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("test_exp_lat_count 3"), "{text}");
        assert!(text.contains("test_exp_lat_sum 600"), "{text}");
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        // A value that would otherwise close the quote and inject a
        // second series (the classic exposition-format injection).
        let hostile = "a\"} 1\nevil_metric{x=\"\\";
        let series = prom_series("test_esc", &[("user", hostile)]);
        assert_eq!(
            series,
            "test_esc{user=\"a\\\"} 1\\nevil_metric{x=\\\"\\\\\"}"
        );
        assert!(!series.contains('\n'), "raw newline survived escaping");
        assert_eq!(escape_label_value("plain_value"), "plain_value");
        assert_eq!(escape_label_value("q\"q"), "q\\\"q");
        assert_eq!(escape_label_value("b\\b"), "b\\\\b");
        assert_eq!(escape_label_value("n\nn"), "n\\nn");
        // Unlabeled series render bare.
        assert_eq!(prom_series("bare_name", &[]), "bare_name");
    }
}
