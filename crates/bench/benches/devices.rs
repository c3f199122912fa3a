//! Device-model evaluation benches: MOSFET current evaluation, NEM beam
//! integration, calibration cost.

use tcam_bench::timing::bench;
use tcam_devices::mosfet::{channel, MosParams, Mosfet};
use tcam_devices::nem::calibrate;
use tcam_devices::nem::mechanics::{advance, BeamState};
use tcam_devices::params::NemTargets;
use tcam_spice::node::NodeId;

fn bench_mosfet_ids() {
    let m = Mosfet::new(
        "m",
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        NodeId::GROUND,
        MosParams::nmos_45lp(),
    );
    bench("mosfet_ids_eval", 100, || {
        let mut acc = 0.0;
        for i in 0..100 {
            let vg = i as f64 * 0.01;
            acc += m.ids(std::hint::black_box(vg), 0.8, 0.0, 0.0);
        }
        acc
    });
    // What one Newton iteration pays per transistor: the current and its
    // four partials.
    bench("mosfet_channel_eval", 100, || {
        let mut acc = 0.0;
        for i in 0..100 {
            let vg = i as f64 * 0.01;
            let (id, g) = channel(m.params(), std::hint::black_box(vg), 0.8, 0.0, 0.0);
            acc += id + g.iter().sum::<f64>();
        }
        acc
    });
}

fn bench_beam_advance() {
    let beam = calibrate(&NemTargets::paper()).expect("calibrates");
    bench("nem_beam_advance_2ns", 100, || {
        let mut s = BeamState::released();
        advance(&beam, &mut s, 1.0, 1.0, 2e-9, 10e-12);
        s
    });
}

fn bench_calibration() {
    bench("nem_calibrate_table1", 100, || {
        calibrate(&NemTargets::paper()).expect("calibrates")
    });
}

fn main() {
    bench_mosfet_ids();
    bench_beam_advance();
    bench_calibration();
}
