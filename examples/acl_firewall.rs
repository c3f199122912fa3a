//! An ACL firewall on a 3T2N TCAM: rules with port ranges are expanded to
//! ternary rows, a packet trace is classified, and a workload meter
//! accounts the search energy beside the one-shot refresh power.
//!
//! ```sh
//! cargo run --release --example acl_firewall
//! ```

use nem_tcam::arch::apps::classifier::{Classifier, Packet, PortRange, Rule};
use nem_tcam::arch::apps::router::Ipv4Prefix;
use nem_tcam::arch::{OperationCosts, WorkloadMeter};
use nem_tcam::spice::units::format_si;
use std::net::Ipv4Addr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let any = Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0);
    let servers = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 2, 0), 24);
    let rules = vec![
        // 1. Block telnet to the server subnet.
        Rule {
            src: any,
            dst: servers,
            proto: Some(6),
            dst_port: PortRange::exactly(23),
            action: 0,
        },
        // 2. Allow web (80–443 — a deliberately nasty range for expansion).
        Rule {
            src: any,
            dst: servers,
            proto: Some(6),
            dst_port: PortRange { lo: 80, hi: 443 },
            action: 1,
        },
        // 3. Allow DNS over UDP anywhere.
        Rule {
            src: any,
            dst: any,
            proto: Some(17),
            dst_port: PortRange::exactly(53),
            action: 1,
        },
        // 4. Default deny.
        Rule {
            src: any,
            dst: any,
            proto: None,
            dst_port: PortRange::any(),
            action: 0,
        },
    ];

    let classifier = Classifier::from_rules(256, &rules)?;
    println!(
        "{} rules expanded into {} TCAM rows (expansion factor {:.2} — the classic range cost)",
        classifier.rules(),
        classifier.rows_used(),
        classifier.expansion_factor()
    );

    // Classify a synthetic packet trace with per-search energy accounting.
    let costs = OperationCosts::paper_3t2n();
    let mut meter = WorkloadMeter::new();
    let trace = [
        (
            "telnet to server",
            Packet {
                src: ip(1, 2, 3, 4),
                dst: ip(10, 0, 2, 7),
                proto: 6,
                dst_port: 23,
            },
        ),
        (
            "https to server",
            Packet {
                src: ip(1, 2, 3, 4),
                dst: ip(10, 0, 2, 7),
                proto: 6,
                dst_port: 443,
            },
        ),
        (
            "http to server",
            Packet {
                src: ip(5, 5, 5, 5),
                dst: ip(10, 0, 2, 9),
                proto: 6,
                dst_port: 80,
            },
        ),
        (
            "dns anywhere",
            Packet {
                src: ip(9, 9, 9, 9),
                dst: ip(8, 8, 8, 8),
                proto: 17,
                dst_port: 53,
            },
        ),
        (
            "random udp",
            Packet {
                src: ip(9, 9, 9, 9),
                dst: ip(8, 8, 8, 8),
                proto: 17,
                dst_port: 4444,
            },
        ),
    ];
    println!("\npacket classification (0 = deny, 1 = permit):");
    for (label, pkt) in &trace {
        let action = classifier.classify(pkt);
        meter.search(&costs);
        println!("  {label:<18} -> {action:?}");
    }
    println!(
        "\n{} searches, {} total, {} per packet at wire speed",
        meter.searches,
        format_si(meter.energy, "J"),
        format_si(costs.search_energy, "J"),
    );
    println!(
        "refresh overhead: {} — invisible next to {} search power at 100 Mpps",
        format_si(costs.refresh_power(), "W"),
        format_si(costs.search_energy * 100e6, "W"),
    );
    Ok(())
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}
