//! Engine performance benches + the integrator/solver ablations from
//! DESIGN.md §4 (BE vs TR, fill on the search arrays, factorize vs
//! refactorize).

use tcam_bench::timing::bench;
use tcam_core::designs::{ArraySpec, Nem3t2n, Sram16t, TcamDesign};
use tcam_core::experiments::{mismatch_key, pattern_word};
use tcam_core::ops::run_search;
use tcam_numeric::sparse::TripletMatrix;
use tcam_numeric::sparse_lu::SparseLu;
use tcam_spice::prelude::*;

/// A ladder RC network with `n` sections — a scalable linear benchmark
/// circuit.
fn rc_ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let gnd = ckt.gnd();
    let input = ckt.node("in");
    ckt.add(VoltageSource::new(
        "vin",
        input,
        gnd,
        Waveshape::step(0.0, 1.0, 0.0, 0.1e-9),
    ))
    .unwrap();
    let mut prev = input;
    for i in 0..n {
        let node = ckt.node(&format!("n{i}"));
        ckt.add(Resistor::new(format!("r{i}"), prev, node, 1e3).unwrap())
            .unwrap();
        ckt.add(Capacitor::new(format!("c{i}"), node, gnd, 1e-15).unwrap())
            .unwrap();
        prev = node;
    }
    ckt
}

fn bench_transient_ladder() {
    for n in [10usize, 50, 200] {
        bench(&format!("transient_rc_ladder/{n}"), 10, || {
            let mut ckt = rc_ladder(n);
            transient(&mut ckt, TransientSpec::to(20e-9), &SimOptions::default())
                .expect("converges")
        });
    }
}

fn bench_integrators() {
    for (name, integ) in [
        ("backward_euler", Integrator::BackwardEuler),
        ("trapezoidal", Integrator::Trapezoidal),
    ] {
        let opts = SimOptions::with_integrator(integ);
        bench(&format!("integrator_ablation/{name}"), 10, || {
            let mut ckt = rc_ladder(50);
            transient(&mut ckt, TransientSpec::to(20e-9), &opts).expect("converges")
        });
    }
}

/// The pattern the fill-reducing column order exists for: the worst-case
/// 64×64 search (ladders hanging off shared search and match lines), with
/// the fill it left printed next to the time — and beside it one `refill`
/// of the same circuit at its operating point, which is every device's
/// `load` once: what a Newton iteration pays before the linear solve.
fn bench_search_transient() {
    let spec = ArraySpec::paper();
    let (stored, key) = (pattern_word(spec.cols), mismatch_key(spec.cols));
    let designs: [(&str, Box<dyn TcamDesign>); 2] = [
        ("3t2n", Box::new(Nem3t2n::default())),
        ("sram", Box::new(Sram16t::default())),
    ];
    for (name, design) in designs {
        let opts = SimOptions::default();
        let mut ckt = design
            .build_search(&spec, &stored, &key)
            .expect("builds")
            .circuit;
        let op = operating_point(&mut ckt, &opts).expect("converges").x;
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Transient, &opts).expect("builds");
        bench(&format!("refill/{name}"), 200, || {
            sys.refill(&ckt, 0.0, 1e-12, opts.integrator, &op, &op, opts.gmin);
            sys.rhs()[0]
        });
        let mut stats = None;
        bench(&format!("search_transient/{name}"), 5, || {
            let exp = design.build_search(&spec, &stored, &key).expect("builds");
            stats = run_search(exp).expect("converges").waveform.stats();
        });
        let s = stats.expect("transient records stats");
        println!(
            "    unknowns {}  matrix_nnz {}  factor_nnz {}",
            s.unknowns, s.matrix_nnz, s.factor_nnz
        );
    }
}

fn bench_sparse_lu() {
    for n in [100usize, 500, 2000] {
        // Tridiagonal-ish circuit matrix.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 4.0);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        let (a, _) = t.to_csc().unwrap();
        let b_vec: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        bench(&format!("sparse_lu/factorize/{n}"), 20, || {
            let lu = SparseLu::factorize(&a).expect("nonsingular");
            lu.solve(&b_vec).expect("solves")
        });
        let mut lu = SparseLu::factorize(&a).expect("nonsingular");
        let mut x = b_vec.clone();
        bench(&format!("sparse_lu/refactorize/{n}"), 20, || {
            lu.refactorize(&a).expect("healthy pivots");
            x.copy_from_slice(&b_vec);
            lu.solve_in_place(&mut x).expect("solves");
            x[0]
        });
    }
}

fn main() {
    bench_transient_ladder();
    bench_integrators();
    bench_search_transient();
    bench_sparse_lu();
}
