//! Regenerates `EXPERIMENTS.md` S1: the analog-CAM accuracy-vs-
//! conductance-noise experiment (Li et al., *Analog content addressable
//! memories with memristors*) on the 6T2M cell.
//!
//! Three tables: the circuit's discharge-vs-distance calibration, the
//! behavioral classification accuracy through the calibrated noise
//! transfer, and the circuit's verdict reliability under the same
//! perturbation. The invariants (monotone, verdicts agree, σ = 0 equals
//! the clean classifier) are `cargo test`s in `tcam-core` and
//! `tcam-arch`; this binary only prints.

use tcam_arch::apps::knn::ClusteredWorkload;
use tcam_core::acam::{
    acam_noise_study, calibrate_distance, AcamCellDesign, AcamNoiseSpec, AcamSpec,
};

fn main() {
    let design = AcamCellDesign::default();
    let spec = AcamSpec::reference();
    println!("=== analog-CAM similarity search: accuracy vs conductance noise ===");

    println!(
        "\ncalibration: {} cells x {} levels, ML at the sense instant vs interval distance",
        spec.cols, spec.levels
    );
    match calibrate_distance(&design, &spec, 4) {
        Ok(cal) => {
            for (d, ml) in cal.ml_at_sense.iter().enumerate() {
                println!("  d = {d}: {ml:.3} V");
            }
            println!(
                "  verdict threshold {:.3} V, monotone: {}, circuit/behavioral verdicts agree: {}",
                cal.v_threshold, cal.monotone, cal.verdicts_agree
            );
        }
        Err(e) => println!("  FAILED: {e}"),
    }

    let workload = ClusteredWorkload::generate(6, spec.cols, 24, 0.05, 41);
    let clf = workload
        .classifier(spec.levels, 1)
        .expect("reference shape is valid");
    let sigmas = [0.0, 0.15, 0.4, 0.9];
    println!(
        "\nclassification: 6 classes x {} dims, {} queries, 8 noise draws per point",
        spec.cols,
        workload.queries.len()
    );
    let curve = workload.accuracy_under_conductance_noise(&clf, &design, &spec, &sigmas, 8, 110);
    for (sigma, accuracy) in sigmas.iter().zip(curve) {
        println!("  sigma = {sigma:<4}: accuracy {accuracy:.3}");
    }

    let small = AcamSpec::small();
    println!(
        "\ncircuit verdict reliability: {}-cell row, 10 trials per point",
        small.cols
    );
    for sigma in [0.05, 0.3, 0.8] {
        let cfg = AcamNoiseSpec {
            sigma,
            trials: 10,
            seed: 10,
            sabotage_every: 0,
        };
        match acam_noise_study(&design, &small, &cfg) {
            Ok(study) => println!(
                "  sigma = {sigma:<4}: {:.2} of verdicts hold (mean margin {:.3} V, worst {:.3} V)",
                1.0 - study.failures as f64 / cfg.trials as f64,
                study.mean,
                study.min
            ),
            Err(e) => println!("  sigma = {sigma:<4}: FAILED: {e}"),
        }
    }
}
