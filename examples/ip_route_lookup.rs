//! IP route lookup on a TCAM: longest-prefix-match forwarding with
//! energy/latency accounting from the paper's measured 3T2N figures.
//!
//! ```sh
//! cargo run --release --example ip_route_lookup
//! ```
//!
//! With `--serve`, the same forwarding table is additionally served
//! through the concurrent `tcam-serve` lookup service, and the two paths
//! are checked against each other:
//!
//! ```sh
//! cargo run --release --example ip_route_lookup -- --serve
//! ```
//!
//! With `--serve --listen [ADDR]`, the table is instead installed into a
//! full `tcam-net` node — WAL-durable rule store, TCP wire protocol,
//! HTTP admin plane — and the same lookups run through a real network
//! client. `ADDR` defaults to `127.0.0.1:0` (an ephemeral port); the
//! demo prints the bound addresses, checks the wire answers against the
//! direct array, and exits. Add `--stay` to keep serving until Ctrl-C:
//!
//! ```sh
//! cargo run --release --example ip_route_lookup -- --serve --listen 127.0.0.1:7700 --stay
//! ```

use nem_tcam::arch::apps::router::{Ipv4Prefix, Route, RouterTable};
use nem_tcam::arch::array::prefix_to_word;
use nem_tcam::arch::{OperationCosts, WorkloadMeter};
use nem_tcam::serve::service::{ServiceConfig, TcamService};
use nem_tcam::serve::ShardedRuleSet;
use nem_tcam::spice::units::format_si;
use std::net::Ipv4Addr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().collect();
    let serve_mode = argv.iter().any(|a| a == "--serve");
    let listen = argv.iter().position(|a| a == "--listen").map(|i| {
        argv.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".into())
    });
    let stay = argv.iter().any(|a| a == "--stay");
    // A small ISP-flavoured forwarding table.
    let routes = vec![
        Route {
            prefix: pfx([0, 0, 0, 0], 0),
            next_hop: 0,
        }, // default
        Route {
            prefix: pfx([10, 0, 0, 0], 8),
            next_hop: 1,
        }, // corp
        Route {
            prefix: pfx([10, 42, 0, 0], 16),
            next_hop: 2,
        }, // site
        Route {
            prefix: pfx([10, 42, 7, 0], 24),
            next_hop: 3,
        }, // rack
        Route {
            prefix: pfx([192, 168, 0, 0], 16),
            next_hop: 4,
        },
        Route {
            prefix: pfx([203, 0, 113, 0], 24),
            next_hop: 5,
        },
    ];
    let table = RouterTable::from_routes(64, routes.clone())?;
    println!("installed {} routes into a 64-entry TCAM", table.len());

    let lookups = [
        Ipv4Addr::new(10, 42, 7, 99),  // deepest prefix
        Ipv4Addr::new(10, 42, 200, 1), // /16
        Ipv4Addr::new(10, 9, 9, 9),    // /8
        Ipv4Addr::new(8, 8, 8, 8),     // default
        Ipv4Addr::new(203, 0, 113, 7), // /24
    ];

    // Energy accounting with the 3T2N figures (one TCAM search per lookup —
    // that is the TCAM's selling point vs O(depth) trie walks).
    let costs = OperationCosts::paper_3t2n();
    let mut meter = WorkloadMeter::new();
    println!("\nlookup results:");
    for ip in lookups {
        let hop = table.lookup(ip);
        meter.search(&costs);
        println!("  {ip:<16} -> next hop {hop:?}");
    }

    // A packet-rate projection.
    let rate = 100e6; // 100 M lookups/s
    println!("\nat {} lookups/s on the 3T2N TCAM:", rate as u64);
    println!(
        "  search power  {}",
        format_si(costs.search_energy * rate, "W")
    );
    println!(
        "  refresh power {} (one-shot refresh, from the paper's §IV-B)",
        format_si(costs.refresh_power(), "W")
    );
    println!(
        "  this run: {} searches, {} total",
        meter.searches,
        format_si(meter.energy, "J")
    );

    if let Some(addr) = listen {
        listen_demo(&table, routes, &lookups, &addr, stay)?;
    } else if serve_mode {
        serve_demo(&table, routes, &lookups)?;
    }
    Ok(())
}

/// Runs the same lookups through the concurrent `tcam-serve`
/// service and checks it agrees with the direct TCAM array path.
fn serve_demo(
    table: &RouterTable,
    mut routes: Vec<Route>,
    lookups: &[Ipv4Addr],
) -> Result<(), Box<dyn std::error::Error>> {
    use nem_tcam::arch::array::value_to_word;

    // Same priority order RouterTable uses (longest prefix first), so the
    // service's global rule ids map back to next hops.
    routes.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
    let words: Vec<_> = routes
        .iter()
        .map(|r| {
            prefix_to_word(
                u64::from(u32::from(r.prefix.network())),
                r.prefix.len() as usize,
                32,
            )
        })
        .collect();
    let rules = ShardedRuleSet::build(&words, 0)?;
    println!(
        "\n--serve: loaded the table's {} rules into one packed table",
        rules.rules()
    );

    let service = TcamService::start(rules, &ServiceConfig::default())?;
    println!("serving the same lookups through the service, matched on this thread:");
    for &ip in lookups {
        let key = value_to_word(u64::from(u32::from(ip)), 32);
        let hop = service
            .search_blocking(&key)?
            .map(|id| routes[id as usize].next_hop);
        assert_eq!(hop, table.lookup(ip), "service disagrees with array");
        println!("  {ip:<16} -> next hop {hop:?}  (service == direct array)");
    }
    let stats = service.shutdown().stats;
    println!(
        "service telemetry: {} lookups, p50 {} ns, p99 {} ns, {} refresh events",
        stats.searches,
        stats.latency.quantile(50.0),
        stats.latency.quantile(99.0),
        stats.refresh_events
    );
    Ok(())
}

/// Runs the table as an actual network service: a `tcam-net` node (WAL
/// under a temp directory, wire plane on `addr`, admin plane on an
/// ephemeral port), with the same lookups driven through `NetClient`
/// and checked against the direct array path.
fn listen_demo(
    table: &RouterTable,
    mut routes: Vec<Route>,
    lookups: &[Ipv4Addr],
    addr: &str,
    stay: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    use nem_tcam::net::client::NetClient;
    use nem_tcam::net::node::{NodeConfig, TcamNode};
    use nem_tcam::net::server::{NetServer, ServerConfig};
    use nem_tcam::net::AdminServer;
    use nem_tcam::update::store::RuleChange;
    use std::sync::Arc;

    routes.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
    let data = std::env::temp_dir().join(format!("ip-route-node-{}", std::process::id()));
    let node = Arc::new(TcamNode::open(&data, NodeConfig::default())?);

    // Install the forwarding table as one durable batch in namespace 0
    // (priority == rule id == index into the sorted route list).
    let batch: Vec<RuleChange> = routes
        .iter()
        .enumerate()
        .map(|(i, r)| RuleChange::Insert {
            priority: i as u32,
            word: prefix_to_word(
                u64::from(u32::from(r.prefix.network())),
                r.prefix.len() as usize,
                32,
            ),
        })
        .collect();
    let version = node.apply(0, 32, &batch)?;

    let server = NetServer::start(Arc::clone(&node), addr, ServerConfig::default())?;
    let admin = AdminServer::start(Arc::clone(&node), "127.0.0.1:0")?;
    println!("\n--listen: wire plane on {}", server.local_addr());
    println!(
        "          admin plane on http://{}/stats",
        admin.local_addr()
    );
    println!("          WAL + snapshots under {}", data.display());
    println!(
        "          {} routes durable at version {version}",
        routes.len()
    );

    // The client side: the same lookups, now over TCP.
    let mut client = NetClient::connect(&server.local_addr().to_string())?;
    let keys: Vec<Vec<nem_tcam::core::bit::TernaryBit>> = lookups
        .iter()
        .map(|&ip| nem_tcam::arch::array::value_to_word(u64::from(u32::from(ip)), 32))
        .collect();
    let (epoch, results) = client.lookup_ternary(0, &keys)?;
    println!("wire lookups (served at epoch {epoch}):");
    for (&ip, hit) in lookups.iter().zip(results) {
        let hop = hit.map(|id| routes[id as usize].next_hop);
        assert_eq!(hop, table.lookup(ip), "wire path disagrees with array");
        println!("  {ip:<16} -> next hop {hop:?}  (wire == direct array)");
    }

    if stay {
        println!("serving until Ctrl-C …");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    server.shutdown();
    admin.shutdown();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    Ok(())
}

fn pfx(a: [u8; 4], len: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(a), len)
}
