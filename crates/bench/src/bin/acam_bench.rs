//! Benchmarks and gates the analog/range-CAM similarity-search
//! subsystem end to end: batched interval kernel vs scalar oracle,
//! sharded distance serving vs the monolithic scan, the
//! nearest-neighbor classifier on the seeded clustered workload, and
//! the circuit spine — discharge-vs-distance calibration plus the
//! conductance-noise sweep that turns cell-level σ into a
//! classification accuracy curve.
//!
//! Emits one flat JSON record in the `BENCH_*.json` style:
//!
//! ```json
//! {"bench":"acam_bench","rows":1024,"width":16,"levels":4096,
//!  "scalar_mkps":...,"kernel_mkps":...,"kernel_speedup":...,
//!  "clf_accuracy":...,"behav_acc_s0":...,"cal_agree":1,...}
//! ```
//!
//! Flags (all optional):
//!
//! * `--seed N` (default 1) — workload seed
//! * `--rows N` (default 1024) — interval rows in the kernel array
//! * `--keys N` (default 4096) — keys per timed pass
//! * `--reps N` (default 3) — timed A/B/B/A windows (min is kept)
//! * `--record PATH` — append the JSON line to `PATH` (`BENCH_acam.json`)
//! * `--quick` — oracle-agreement subset only: kernel/serve/classifier
//!   parity and the behavioral accuracy curve; skips wall-clock timing
//!   and every circuit transient
//! * `--check` — assert the tier-1 gates and exit nonzero on violation:
//!   batched kernel bit-identical to the scalar oracle and (full mode)
//!   at least as fast; sharded serving bit-identical to the monolithic
//!   scan; classifier accuracy ≥ the seeded floor; behavioral
//!   accuracy-vs-σ non-increasing; and in full mode the circuit
//!   calibration monotone with agreeing verdicts, the circuit noise
//!   sweep's verdict accuracy non-increasing in σ, and forced solver
//!   failures contained per trial with causes retained

use std::time::Instant;

use tcam_arch::acam::kernel::{PackedAcamArray, ACAM_TILE_KEYS};
use tcam_arch::acam::{AcamArray, AcamCell, AcamMetric};
use tcam_arch::apps::knn::ClusteredWorkload;
use tcam_core::acam::{
    acam_noise_study, calibrate_distance, AcamCellDesign, AcamNoiseSpec, AcamSpec,
};
use tcam_numeric::rng::SplitMix64;
use tcam_serve::acam::{AcamQuery, AcamService, AcamShards};

/// Classifier accuracy floor on the seeded clustered workload at the
/// circuit reference quantization (16 levels, ±1 margin).
const CLF_FLOOR: f64 = 0.90;
/// Slack on the behavioral accuracy-vs-σ monotonicity: adjacent grid
/// points may tick up by at most this much (finite-sample noise on a
/// common-random-numbers sweep).
const ACC_SLACK: f64 = 0.02;
/// σ grid of the behavioral accuracy curve.
const BEHAV_SIGMAS: [f64; 4] = [0.0, 0.15, 0.4, 0.9];
/// σ grid of the circuit verdict-reliability sweep (full mode).
const CIRCUIT_SIGMAS: [f64; 3] = [0.05, 0.3, 0.8];
/// Noise trials per behavioral σ point.
const BEHAV_TRIALS: usize = 8;
/// Noise trials per circuit σ point.
const CIRCUIT_TRIALS: usize = 10;

struct Args {
    seed: u64,
    rows: usize,
    keys: usize,
    reps: usize,
    record: Option<String>,
    quick: bool,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        rows: 1024,
        keys: 4096,
        reps: 3,
        record: None,
        quick: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = value("--seed").parse().expect("--seed"),
            "--rows" => args.rows = value("--rows").parse().expect("--rows"),
            "--keys" => args.keys = value("--keys").parse().expect("--keys"),
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--record" => args.record = Some(value("--record")),
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.rows > 0 && args.keys > 0 && args.reps > 0, "degenerate bench");
    args
}

/// Kernel-array shape: 16-dim interval rows over the full u16-range
/// level domain the packed kernel supports.
const WIDTH: usize = 16;
const LEVELS: u16 = 4096;

/// Builds a seeded interval array (churned so storage order ≠ id order
/// and the min-reduce epilogue is exercised) plus a query-key set.
fn build(rows: usize, keys: usize, seed: u64) -> (AcamArray, Vec<Vec<u16>>) {
    let mut rng = SplitMix64::new(seed);
    let mut rule_rng = rng.fork();
    let mut key_rng = rng.fork();
    let mut array = AcamArray::new(WIDTH, LEVELS).expect("valid shape");
    for id in 0..rows {
        let word: Vec<AcamCell> = (0..WIDTH)
            .map(|_| {
                let a = rule_rng.below(u64::from(LEVELS)) as u16;
                let b = rule_rng.below(u64::from(LEVELS)) as u16;
                AcamCell::new(a.min(b), a.max(b)).expect("ordered bounds")
            })
            .collect();
        array
            .push(&word, u32::try_from(id).expect("row count fits") * 3)
            .expect("fresh id");
    }
    for k in 0..rows / 5 {
        let _ = array.remove(u32::try_from(k * 15).expect("fits"));
    }
    let key_set: Vec<Vec<u16>> = (0..keys)
        .map(|_| {
            (0..WIDTH)
                .map(|_| key_rng.below(u64::from(LEVELS)) as u16)
                .collect()
        })
        .collect();
    (array, key_set)
}

/// Classifies every workload query against continuous (noise-shifted)
/// prototype intervals with the interval-distance best-match rule the
/// kernel implements; returns the accuracy.
fn classify_with_bounds(
    workload: &ClusteredWorkload,
    quantize: &dyn Fn(&[f64]) -> Vec<u16>,
    protos: &[(Vec<(f64, f64)>, u32)],
) -> f64 {
    let mut correct = 0usize;
    for (features, truth) in &workload.queries {
        let key = quantize(features);
        let mut best: Option<(f64, usize)> = None;
        for (row, (bounds, _)) in protos.iter().enumerate() {
            let d: f64 = bounds
                .iter()
                .zip(&key)
                .map(|(&(lo, hi), &k)| (lo - f64::from(k)).max(0.0) + (f64::from(k) - hi).max(0.0))
                .sum();
            if best.is_none_or(|(bd, br)| (d, row) < (bd, br)) {
                best = Some((d, row));
            }
        }
        let class = best.map(|(_, row)| protos[row].1);
        if class == Some(*truth) {
            correct += 1;
        }
    }
    correct as f64 / workload.queries.len() as f64
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let bail = |msg: String| -> ! {
        eprintln!("acam_bench --check FAILED: {msg}");
        std::process::exit(1);
    };

    // ---- 1: batched kernel vs scalar oracle (bit-identical, always) ----
    let (array, keys) = build(args.rows, args.keys, args.seed);
    let packed = PackedAcamArray::from_array(&array);
    for metric in [AcamMetric::Hamming, AcamMetric::Interval] {
        let batched = packed.best_match_batch(&keys, metric);
        for (key, got) in keys.iter().zip(&batched) {
            let want = array.best_match(key, metric).expect("valid key");
            assert_eq!(*got, want, "kernel diverges from oracle ({metric:?})");
        }
    }
    let thresh = packed.threshold_match_batch(&keys, 2);
    for (key, got) in keys.iter().zip(&thresh) {
        let want = array.threshold_match(key, 2).expect("valid key");
        assert_eq!(*got, want, "threshold kernel diverges from oracle");
    }

    // ---- 2: throughput, scalar scan vs batched kernel (full mode) ----
    let (mut scalar_wall, mut kernel_wall) = (f64::INFINITY, f64::INFINITY);
    if !args.quick {
        let scalar_pass = || {
            let t = Instant::now();
            let out: Vec<_> = keys
                .iter()
                .map(|k| array.best_match(k, AcamMetric::Interval).expect("valid key"))
                .collect();
            std::hint::black_box(out);
            t.elapsed().as_secs_f64()
        };
        let kernel_pass = || {
            let t = Instant::now();
            let mut out = Vec::new();
            packed.best_match_batch_tiled(&keys, AcamMetric::Interval, ACAM_TILE_KEYS, &mut out);
            std::hint::black_box(out);
            t.elapsed().as_secs_f64()
        };
        // A B B A windows: both sides centered on the same mean instant,
        // min per side rejects background spikes.
        for _ in 0..args.reps {
            scalar_wall = scalar_wall.min(scalar_pass());
            kernel_wall = kernel_wall.min(kernel_pass());
            kernel_wall = kernel_wall.min(kernel_pass());
            scalar_wall = scalar_wall.min(scalar_pass());
        }
    }
    let mkps = |wall: f64| args.keys as f64 / wall / 1e6;
    let speedup = scalar_wall / kernel_wall.max(1e-12);

    // ---- 3: sharded serving vs monolithic (bit-identical, always) ----
    let serve_shards = 4usize;
    let service = AcamService::start(
        AcamShards::build(&array, serve_shards).expect("non-empty array"),
        8,
    )
    .expect("service starts");
    let parity_keys = &keys[..keys.len().min(512)];
    let served = service
        .search_blocking(parity_keys, AcamQuery::Best(AcamMetric::Interval))
        .expect("serve path");
    for (key, got) in parity_keys.iter().zip(&served) {
        let want = array
            .best_match(key, AcamMetric::Interval)
            .expect("valid key");
        assert_eq!(*got, want, "sharded serving diverges from monolithic");
    }
    let served_thresh = service
        .search_blocking(parity_keys, AcamQuery::Threshold(2))
        .expect("serve path");
    for (key, got) in parity_keys.iter().zip(&served_thresh) {
        let want = array.threshold_match(key, 2).expect("valid key");
        assert_eq!(got.map(|m| m.id), want, "sharded threshold diverges");
    }
    let serve_report = service.shutdown();

    // ---- 4: classifier accuracy on the seeded clustered workload ----
    let circuit_spec = AcamSpec::reference();
    let workload = ClusteredWorkload::generate(6, circuit_spec.cols, 24, 0.05, args.seed.wrapping_mul(41));
    let clf = workload
        .classifier(circuit_spec.levels, 1)
        .expect("classifier builds");
    let clf_accuracy = workload.accuracy(&clf).expect("classification runs");

    // ---- 5: behavioral accuracy vs σ through the calibrated noise
    // transfer (common random numbers: one z-draw set, scaled by σ) ----
    let design = AcamCellDesign::default();
    let mut z_rng = SplitMix64::new(args.seed.wrapping_mul(97).wrapping_add(13));
    let z_draws: Vec<Vec<(f64, f64)>> = (0..BEHAV_TRIALS)
        .map(|_| {
            (0..clf.len() * circuit_spec.cols)
                .map(|_| (z_rng.normal(), z_rng.normal()))
                .collect()
        })
        .collect();
    let proto_rows: Vec<(Vec<(u16, u16)>, u32)> = (0..clf.len())
        .map(|i| {
            let (id, cells) = clf.array().row(i).expect("in-range row");
            (
                cells.iter().map(|c| (c.lo(), c.hi())).collect(),
                clf.class_of(id).expect("labeled prototype"),
            )
        })
        .collect();
    let quantize = |f: &[f64]| clf.quantize_features(f);
    let behav_acc: Vec<f64> = BEHAV_SIGMAS
        .iter()
        .map(|&sigma| {
            let mut acc = 0.0;
            for z in &z_draws {
                let shifted: Vec<(Vec<(f64, f64)>, u32)> = proto_rows
                    .iter()
                    .enumerate()
                    .map(|(p, (bounds, class))| {
                        let noisy = bounds
                            .iter()
                            .enumerate()
                            .map(|(c, &(lo, hi))| {
                                let (z_lo, z_hi) = z[p * circuit_spec.cols + c];
                                (
                                    design.perturbed_bound(f64::from(lo), sigma, z_lo, &circuit_spec),
                                    design.perturbed_bound(f64::from(hi), sigma, z_hi, &circuit_spec),
                                )
                            })
                            .collect();
                        (noisy, *class)
                    })
                    .collect();
                acc += classify_with_bounds(&workload, &quantize, &shifted);
            }
            acc / BEHAV_TRIALS as f64
        })
        .collect();

    // ---- 6: circuit spine (full mode): calibration, noise sweep,
    // fault containment ----
    let mut cal = None;
    let mut circuit_acc: Vec<f64> = Vec::new();
    let mut containment = None;
    if !args.quick {
        cal = Some(
            calibrate_distance(&design, &circuit_spec, 4).expect("reference calibration runs"),
        );
        let small = AcamSpec::small();
        for &sigma in &CIRCUIT_SIGMAS {
            let study = acam_noise_study(
                &design,
                &small,
                &AcamNoiseSpec {
                    sigma,
                    trials: CIRCUIT_TRIALS,
                    seed: args.seed.wrapping_mul(7).wrapping_add(3),
                    sabotage_every: 0,
                },
            )
            .expect("noise study survives its own trials");
            circuit_acc.push(1.0 - study.failures as f64 / CIRCUIT_TRIALS as f64);
        }
        containment = Some(
            acam_noise_study(
                &design,
                &small,
                &AcamNoiseSpec {
                    sigma: 0.05,
                    trials: 6,
                    seed: args.seed,
                    sabotage_every: 3,
                },
            )
            .expect("sabotaged study survives"),
        );
    }

    // ---- record ----
    let mut record = format!(
        "{{\"bench\":\"acam_bench\",\"seed\":{},\"rows\":{},\"width\":{WIDTH},\
         \"levels\":{LEVELS},\"keys\":{},\"kernel_tile_keys\":{ACAM_TILE_KEYS},\
         \"serve_shards\":{serve_shards},\"serve_lookups\":{},\
         \"clf_accuracy\":{clf_accuracy:.4}",
        args.seed,
        array.len(),
        args.keys,
        serve_report.searches(),
    );
    for (i, (&s, a)) in BEHAV_SIGMAS.iter().zip(&behav_acc).enumerate() {
        record.push_str(&format!(",\"behav_sigma_s{i}\":{s},\"behav_acc_s{i}\":{a:.4}"));
    }
    if !args.quick {
        record.push_str(&format!(
            ",\"scalar_mkps\":{:.2},\"kernel_mkps\":{:.2},\"kernel_speedup\":{speedup:.2}",
            mkps(scalar_wall),
            mkps(kernel_wall),
        ));
        let c = cal.as_ref().expect("full mode calibrated");
        for (d, ml) in c.ml_at_sense.iter().enumerate() {
            record.push_str(&format!(",\"cal_ml_d{d}\":{ml:.4}"));
        }
        record.push_str(&format!(
            ",\"cal_threshold_v\":{:.4},\"cal_monotone\":{},\"cal_agree\":{}",
            c.v_threshold,
            u8::from(c.monotone),
            u8::from(c.verdicts_agree)
        ));
        for (i, (&s, a)) in CIRCUIT_SIGMAS.iter().zip(&circuit_acc).enumerate() {
            record.push_str(&format!(
                ",\"circuit_sigma_s{i}\":{s},\"circuit_acc_s{i}\":{a:.4}"
            ));
        }
        let sab = containment.as_ref().expect("full mode containment");
        record.push_str(&format!(
            ",\"sabotage_sim_failures\":{},\"sabotage_margins\":{}",
            sab.sim_failures,
            sab.margins.len()
        ));
    }
    record.push('}');
    println!("{record}");
    if let Some(path) = &args.record {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open --record {path}: {e}"));
        writeln!(f, "{record}").expect("write --record line");
    }

    if !args.check {
        return;
    }

    // ---- gates ----
    let obj = match tcam_bench::jsonline::parse_flat_object(&record) {
        Ok(obj) => obj,
        Err(e) => bail(format!("record is not valid flat JSON: {e}")),
    };
    for key in ["clf_accuracy", "behav_acc_s0", "serve_lookups"] {
        if tcam_bench::jsonline::num(&obj, key).is_none() {
            bail(format!("record missing {key:?}"));
        }
    }
    // Gate: classifier accuracy floor (the oracle-agreement assertions in
    // sections 1 and 3 already ran unconditionally above).
    if clf_accuracy < CLF_FLOOR {
        bail(format!("classifier accuracy {clf_accuracy:.4} below floor {CLF_FLOOR}"));
    }
    if (behav_acc[0] - clf_accuracy).abs() > 1e-9 {
        bail(format!(
            "σ = 0 behavioral accuracy {:.4} must equal the clean classifier's {clf_accuracy:.4}",
            behav_acc[0]
        ));
    }
    for w in behav_acc.windows(2) {
        if w[1] > w[0] + ACC_SLACK {
            bail(format!("behavioral accuracy not monotone in σ: {behav_acc:?}"));
        }
    }
    if !args.quick {
        if speedup < 1.0 {
            bail(format!("batched kernel slower than scalar scan: {speedup:.2}x"));
        }
        let c = cal.as_ref().expect("calibrated");
        if !c.monotone {
            bail(format!("discharge curve not monotone in distance: {:?}", c.ml_at_sense));
        }
        if !c.verdicts_agree {
            bail("circuit verdicts diverge from the behavioral distance model".into());
        }
        for w in circuit_acc.windows(2) {
            if w[1] > w[0] {
                bail(format!(
                    "circuit verdict accuracy not monotone in σ: {circuit_acc:?}"
                ));
            }
        }
        let sab = containment.as_ref().expect("containment ran");
        if sab.sim_failures != 2 || sab.margins.len() != 4 {
            bail(format!(
                "fault containment broke: {} sim failures, {} margins (want 2 / 4)",
                sab.sim_failures,
                sab.margins.len()
            ));
        }
        if sab.failure_causes.len() != 2 || sab.failure_causes.iter().any(|(_, c)| c.is_empty()) {
            bail("sabotage causes were not retained".into());
        }
    }
    let mode = if args.quick { "quick" } else { "full" };
    eprintln!(
        "acam_bench --check ({mode}): ok (kernel bit-identical over {} keys x {} rows, \
         serve parity at {serve_shards} shards, classifier {clf_accuracy:.3}, \
         behavioral accuracy {:?})",
        args.keys,
        array.len(),
        behav_acc,
    );
}
