//! Shared helpers for the figure-regeneration binaries.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use tcam_core::designs::ArraySpec;

pub mod jsonline;

/// Returns whether the bare flag `--<name>` is present in argv.
#[must_use]
pub fn has_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Parses `--size N` (array is N×N), `--rows N`, `--cols N` from argv;
/// defaults to the paper's 64×64. Unknown arguments are ignored so the
/// binaries stay forgiving.
#[must_use]
pub fn spec_from_args() -> ArraySpec {
    let mut spec = ArraySpec::paper();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let take = |i: usize| -> Option<usize> { args.get(i + 1).and_then(|v| v.parse().ok()) };
        match args[i].as_str() {
            "--size" => {
                if let Some(n) = take(i) {
                    spec.rows = n;
                    spec.cols = n;
                    i += 1;
                }
            }
            "--rows" => {
                if let Some(n) = take(i) {
                    spec.rows = n;
                    i += 1;
                }
            }
            "--cols" => {
                if let Some(n) = take(i) {
                    spec.cols = n;
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    spec
}

/// Prints the standard experiment header.
pub fn banner(title: &str, spec: &ArraySpec) {
    println!("=== {title} ===");
    println!(
        "array: {}x{} ({} b), vdd = {} V",
        spec.rows,
        spec.cols,
        spec.rows * spec.cols,
        spec.vdd
    );
}

/// Formats a measured-vs-paper comparison line.
#[must_use]
pub fn vs_paper(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    use tcam_spice::units::format_si;
    format!(
        "{label:<28} measured {:>12}   paper {:>12}   ({:+.0}%)",
        format_si(measured, unit),
        format_si(paper, unit),
        (measured / paper - 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_paper() {
        let s = ArraySpec::paper();
        assert_eq!((s.rows, s.cols), (64, 64));
    }

    #[test]
    fn vs_paper_formats() {
        let line = vs_paper("write energy", 0.42e-12, 0.35e-12, "J");
        assert!(line.contains("write energy"));
        assert!(line.contains("+20%"));
    }

    #[test]
    fn obs_flat_json_export_parses_with_jsonline() {
        // The contract the exporter promises: its whole line stays inside
        // the flat dialect our own parser accepts.
        let mut h = tcam_obs::LatencyHistogram::new();
        h.record(250);
        let snap = tcam_obs::Snapshot {
            counters: vec![("serve_searches", 9)],
            gauges: vec![("serve_epoch", 4.0)],
            hists: vec![("serve_latency", h)],
            phases: vec![("serve_match", tcam_obs::PhaseStat { ns: 800, count: 2 })],
        };
        let json = tcam_obs::export::flat_json(&snap);
        let obj = jsonline::parse_flat_object(&json).expect("exporter output parses");
        assert_eq!(jsonline::num(&obj, "serve_searches"), Some(9.0));
        assert_eq!(jsonline::num(&obj, "serve_epoch"), Some(4.0));
        assert_eq!(jsonline::num(&obj, "phase_serve_match_ns"), Some(800.0));
        assert_eq!(jsonline::num(&obj, "serve_latency_count"), Some(1.0));
    }
}
