//! The serving path as the `tcam-obs` registry sees it, in a test binary
//! of its own: the registry is process-global, so only with no other
//! service in the process are its totals exactly this service's.

use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::packed::PackedWord;
use tcam_serve::service::{ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::workload::Workload;

#[test]
fn workers_mirror_stats_into_obs_registry() {
    // A time window, not a batch count, so that starting and joining the
    // refresh clock — inside the wall clock below, outside every span,
    // and a few milliseconds at worst on a loaded box — stays far under
    // the 10 % the cover assertion leaves unattributed, in debug and
    // release alike.
    const WINDOW: Duration = Duration::from_millis(200);
    const BATCH_KEYS: usize = 512;
    let w = Workload::router_lpm(512, BATCH_KEYS, 21);
    let keys: Vec<PackedWord> = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
    let rules = ShardedRuleSet::build(&w.words, 0).unwrap();
    // Refresh on, so the clock thread's lifetime is split between its two
    // phases: waiting for the next deadline and running the event.
    let config = ServiceConfig {
        refresh: BankRefresh::OneShot { op_time: 10e-9 },
        refresh_interval: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let t0 = Instant::now();
    let service = TcamService::start(rules, &config).unwrap();
    let mut batches = 0u64;
    while t0.elapsed() < WINDOW {
        service.answer_here(&keys, None);
        batches += 1;
    }
    let report = service.shutdown();
    let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
    let searches = batches * BATCH_KEYS as u64;
    assert_eq!(report.stats.searches, searches);

    let snap = tcam_obs::snapshot();
    assert_eq!(snap.counter("serve_searches"), searches);
    assert_eq!(snap.counter("serve_batches"), batches);
    assert_eq!(
        snap.counter("serve_refresh_events"),
        report.stats.refresh_events
    );
    let lat = snap.hist("serve_latency").expect("merged at shutdown");
    assert_eq!(lat.count(), searches);
    let lateness = snap
        .hist("serve_refresh_lateness")
        .expect("merged at shutdown");
    assert_eq!(lateness.count(), report.stats.refresh_events);
    assert!(
        snap.phase("serve_refresh").count > 0,
        "refresh span recorded"
    );
    assert!(snap.phase("serve_idle").count > 0, "idle span recorded");
    assert_eq!(
        snap.gauge("serve_epoch"),
        Some(report.stats.epoch as f64),
        "epoch gauge published"
    );
    // The spans partition the clock thread's wall clock (idle, refresh):
    // a region that lost its span shows up as unattributed time.
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
        "serve_* phases attribute {serve_ns} of the clock's {wall_ns:.0} ns: {:?}",
        snap.phases
    );
}
