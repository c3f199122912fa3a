//! The serving path as the `tcam-obs` registry sees it, in a test binary
//! of its own: the registry is process-global, so only with no other
//! service in the process are its totals exactly this service's.

use std::time::Instant;
use tcam_arch::bank::BankRefresh;
use tcam_arch::packed::PackedWord;
use tcam_serve::service::{SearchBatch, ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::workload::Workload;

#[test]
fn workers_mirror_stats_into_obs_registry() {
    // Long enough, as optimised code too (a batch matches in ~30 us there),
    // that starting and joining the worker thread — inside the wall clock
    // below, outside every span — stays far under the 10 % the cover
    // assertion leaves unattributed.
    const BATCHES: usize = 1024;
    const BATCH_KEYS: usize = 512;
    let w = Workload::router_lpm(512, BATCH_KEYS, 21);
    let keys: Vec<PackedWord> = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
    let rules = ShardedRuleSet::build(&w.words, 0).unwrap();
    // One shard, one worker (the default): its wall clock is the service's.
    let config = ServiceConfig {
        refresh: BankRefresh::None,
        ..ServiceConfig::default()
    };
    let t0 = Instant::now();
    let service = TcamService::start(rules, &config).unwrap();
    for _ in 0..BATCHES {
        let batch = SearchBatch {
            keys: keys.clone(),
            submitted: Instant::now(),
            reply: None,
            trace: None,
        };
        service.submit(0, batch).unwrap();
    }
    let report = service.shutdown();
    let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
    let searches = (BATCHES * BATCH_KEYS) as u64;
    assert_eq!(report.searches(), searches);

    let snap = tcam_obs::snapshot();
    assert_eq!(snap.counter("serve_searches"), searches);
    let lat = snap.hist("serve_latency").expect("merged at worker exit");
    assert_eq!(lat.count(), searches);
    assert!(snap.phase("serve_match").count > 0, "match span recorded");
    assert!(snap.phase("serve_idle").count > 0, "idle span recorded");
    assert!(
        snap.gauges
            .iter()
            .any(|((n, l), _)| *n == "serve_epoch" && l.is_some()),
        "per-shard epoch gauge published"
    );
    // The spans partition the worker's wall clock (match, idle, refresh,
    // swap): a region that lost its span shows up as unattributed time.
    let serve_ns: u64 = snap
        .phases
        .iter()
        .filter(|(name, _)| name.starts_with("serve_"))
        .map(|(_, stat)| stat.ns)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let cover = serve_ns as f64 / wall_ns;
    assert!(
        cover >= 0.90,
        "serve_* phases attribute {serve_ns} of the worker's {wall_ns:.0} ns: {:?}",
        snap.phases
    );
}
