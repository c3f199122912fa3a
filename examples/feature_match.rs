//! ML feature matching on the analog/range CAM: cluster prototypes are
//! stored as per-dimension acceptance intervals, noisy feature vectors
//! are classified by nearest interval distance — monolithically, then
//! through the sharded scatter/min-reduce serving path — and the 6T2M
//! circuit calibration maps matchline discharge back to that distance.
//!
//! ```sh
//! cargo run --release --example feature_match
//! ```

use nem_tcam::arch::acam::AcamMetric;
use nem_tcam::arch::apps::knn::ClusteredWorkload;
use nem_tcam::core::acam::{calibrate_distance, AcamCellDesign, AcamSpec};
use nem_tcam::serve::acam::{AcamQuery, AcamService, AcamShards};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 6 feature clusters in 8 dimensions, 24 noisy queries per class.
    let spec = AcamSpec::reference();
    let workload = ClusteredWorkload::generate(6, spec.cols, 24, 0.05, 42);
    let clf = workload.classifier(spec.levels, 1)?;
    println!(
        "stored {} prototypes ({} dims, {} levels); classifier accuracy {:.1}%",
        clf.len(),
        spec.cols,
        spec.levels,
        workload.accuracy(&clf)? * 100.0
    );

    // The same queries through the sharded service: scatter to every
    // shard, min-reduce (distance, id) — bit-identical to the scan.
    let keys: Vec<Vec<u16>> = workload
        .queries
        .iter()
        .map(|(f, _)| clf.quantize_features(f))
        .collect();
    let service = AcamService::start(AcamShards::build(clf.array(), 3)?, 8)?;
    let served = service.search_blocking(&keys, AcamQuery::Best(AcamMetric::Interval))?;
    let mut agree = 0usize;
    for (key, got) in keys.iter().zip(&served) {
        agree += usize::from(*got == clf.array().best_match(key, AcamMetric::Interval)?);
    }
    let report = service.shutdown();
    println!(
        "sharded serving: {}/{} winners identical to the monolithic scan \
         ({} shard searches over {} shards, p50 {:.1} us submit to result)",
        agree,
        keys.len(),
        report.searches(),
        report.shards.len(),
        report.latency.quantile(50.0) as f64 / 1e3
    );

    // Circuit ground truth: matchline voltage at the sense point vs
    // interval distance, with the behavioral verdict threshold fitted
    // between the d = 0 and d = 1 plateaus.
    let cal = calibrate_distance(&AcamCellDesign::default(), &spec, 4)?;
    println!("matchline discharge vs interval distance (sensed at 0.45 ns):");
    for (d, ml) in cal.ml_at_sense.iter().enumerate() {
        let verdict = if cal.verdict(*ml) { "MATCH" } else { "miss" };
        println!("  d = {d}: ML = {ml:.3} V  -> {verdict}");
    }
    println!(
        "fitted threshold {:.3} V; circuit and behavioral verdicts {}",
        cal.v_threshold,
        if cal.verdicts_agree { "agree" } else { "DIVERGE" }
    );
    Ok(())
}
