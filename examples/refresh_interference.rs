//! The paper's motivating architectural claim, made quantitative:
//! row-by-row refresh of a dynamic TCAM keeps interrupting searches, the
//! 3T2N's one-shot refresh barely does. Most delayed searches wait behind
//! other searches under either policy; the last column counts those that
//! refresh delayed.
//!
//! ```sh
//! cargo run --release --example refresh_interference
//! ```

use nem_tcam::arch::refresh_sched::{simulate, RefreshSimConfig, RefreshSimReport};
use nem_tcam::arch::{BankRefresh, OperationCosts};
use nem_tcam::spice::units::format_si;

fn main() {
    let costs = OperationCosts::paper_3t2n();
    let retention = costs.retention; // paper §IV-B
    println!("refresh interference on a 64-row dynamic TCAM bank");
    println!(
        "retention {} — sweeping search load\n",
        format_si(retention, "s")
    );
    println!(
        "{:<14} {:<12} {:>10} {:>14} {:>14} {:>14} {:>16}",
        "load", "policy", "refreshes", "delayed", "mean wait", "refresh power", "refresh-delayed"
    );

    for rate in [10e6, 50e6, 100e6] {
        let base = RefreshSimConfig {
            rows: 64,
            costs, // OSR 520 fJ (paper §IV-B); a row op reads and writes back
            search_rate: rate,
            search_time: 5e-9,
            duration: 2e-3,
            seed: 2024,
        };
        let rbr = simulate(&base, BankRefresh::RowByRow { op_time: 10e-9 });
        let osr = simulate(&base, BankRefresh::OneShot { op_time: 10e-9 });
        for (name, r) in [("row-by-row", &rbr), ("one-shot", &osr)] {
            print_row(rate, name, r, base.duration);
        }
    }
    println!("\none-shot refresh performs 64x fewer refresh operations per");
    println!("retention interval: refresh delays over 50x fewer searches and");
    println!("its energy falls over 80x — the paper's §III-D argument. Searches");
    println!("delayed behind other searches dominate `delayed` under both.");
}

fn print_row(rate: f64, name: &str, r: &RefreshSimReport, duration: f64) {
    println!(
        "{:<14} {:<12} {:>10} {:>13.2}% {:>14} {:>14} {:>16}",
        format!("{} M/s", rate / 1e6),
        name,
        r.refresh_ops,
        100.0 * r.delayed_searches as f64 / r.searches.max(1) as f64,
        format_si(r.mean_wait, "s"),
        format_si(r.refresh_energy / duration, "W"),
        r.refresh_delayed_searches
    );
}
