//! Quantifies the paper's §II disturb remark: the 2FeFET design's V_DD/2
//! write scheme half-selects every unselected row on the written columns,
//! eroding stored polarization — while the 3T2N cell's mechanical
//! hysteresis is immune to the same stress.

use tcam_core::designs::{ArraySpec, Fefet2f, Nem3t2n};
use tcam_core::disturb::{fefet_disturb_cycle_sweep, nem_victim_survives_neighbour_writes};

fn main() {
    let spec = ArraySpec {
        rows: 16,
        cols: 4,
        vdd: 1.0,
    };
    println!("=== write-disturb study (paper §II) ===");
    println!("victim row stores all ones; aggressor row rewritten each cycle\n");

    println!("2FeFET victim polarization vs aggressor write cycles:");
    println!(
        "{:<8} {:>10} {:>14} {:>10}",
        "cycles", "p(victim)", "ΔV_T shift", "bit ok"
    );
    let design = Fefet2f::default();
    // All four corner points simulate concurrently on scoped threads.
    for (cycles, outcome) in fefet_disturb_cycle_sweep(&design, &spec, &[1, 2, 5, 10]) {
        match outcome {
            Ok(r) => println!(
                "{cycles:<8} {:>10.3} {:>12.0} mV {:>10}",
                r.victim_p_end,
                r.victim_vth_shift * 1e3,
                if r.victim_bit_ok { "yes" } else { "FLIPPED" }
            ),
            Err(e) => println!("{cycles:<8} failed: {e}"),
        }
    }
    let envelope = ((design.v_write / 2.0 - design.fe.v_coercive) / design.fe.v_sigma).tanh();
    println!(
        "(drift saturates at the half-select envelope |p| = {:.3})",
        envelope.abs()
    );

    println!("\n3T2N victim under the same neighbour-write traffic:");
    let nem = Nem3t2n::default();
    match nem_victim_survives_neighbour_writes(&nem, &spec, 10) {
        Ok(true) => println!("  state intact after 10 cycles — mechanically disturb-free"),
        Ok(false) => println!("  STATE LOST (unexpected)"),
        Err(e) => println!("  failed: {e}"),
    }
}
