//! Wire-version interop properties for the trace extension: frames with
//! and without the 16-byte trace context must interoperate across wire
//! revisions in both directions.
//!
//! * Old client → new server: untraced frames (byte-identical to the
//!   original v1 encoding) are served with identical results, and the
//!   server collects no trace for them.
//! * New client → old server: a strict pre-extension server answers the
//!   flagged (over-long) frame with `BadRequest`; the client falls back
//!   untraced once, learns `peer_traces = Some(false)`, and never sends
//!   the extension again on that connection — lookups keep working.
//! * Held replies: a burst sent in one write is answered in one write,
//!   yet every sampled request still records its three hops and every
//!   request scores the SLO once, when its reply is written.
//! * Codec property sweep: for random key batches, the traced encoding
//!   is the untraced encoding plus exactly the flag bit and the trailing
//!   16 context bytes, and both decode to the same request modulo
//!   `trace`.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::packed::PackedWord;
use tcam_net::client::NetClient;
use tcam_net::json::Json;
use tcam_net::node::{NodeConfig, TcamNode};
use tcam_net::server::{NetServer, ServerConfig};
use tcam_net::wire::{
    self, Status, MAX_KEYS_PER_REQUEST, OP_LOOKUP, OP_PING, REQ_FLAG_TRACE, RESP_FLAG_TRACED,
    WIRE_VERSION,
};
use tcam_obs::{next_trace_id, trace_lookup, TraceContext, TRACE_CONTEXT_BYTES};
use tcam_serve::service::ServiceConfig;
use tcam_update::store::{prefix_word, RuleChange};

/// Serializes tests that observe the process-global trace store, so the
/// in-process servers of parallel tests can't cross-pollinate counts.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcam-wire-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_node(dir: &Path) -> Arc<TcamNode> {
    let config = NodeConfig {
        service: ServiceConfig {
            refresh: BankRefresh::None,
            ..ServiceConfig::default()
        },
        snapshot_every_batches: 0,
    };
    Arc::new(TcamNode::open(dir, config).unwrap())
}

fn seed_lpm(node: &TcamNode) {
    let batch: Vec<RuleChange> = (0..16u32)
        .map(|i| RuleChange::Insert {
            priority: i,
            word: prefix_word(u64::from(i) * 16, 4, 8),
        })
        .collect();
    node.apply(0, 8, &batch).unwrap();
}

/// Old client → new server: a batch sent without the extension returns
/// the same results as the same batch sent with it, and only the traced
/// frame leaves a record in the server's trace store.
#[test]
fn untraced_frames_serve_identically_and_collect_no_trace() {
    let _g = lock();
    let dir = tmpdir("oldclient");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // The "old" client: a plain connection that never sets tracing, so
    // every frame it emits is byte-identical to the pre-extension v1.
    let mut old = NetClient::connect(&addr).unwrap();
    // The "new" client sends an explicit sampled context per lookup.
    let mut new = NetClient::connect(&addr).unwrap();

    let keys: Vec<PackedWord> = (0..=255u64)
        .map(|v| PackedWord::pack(&prefix_word(v, 8, 8)))
        .collect();
    for chunk in keys.chunks(32) {
        let (old_epoch, old_results) = old.lookup(0, chunk).unwrap();

        let trace_id = next_trace_id();
        let ctx = TraceContext::sampled(trace_id);
        let id = new.send_lookup_traced(0, chunk, Some(&ctx)).unwrap();
        let resp = new.recv_response().unwrap();
        assert_eq!(resp.request_id, id);
        assert_eq!(resp.status, Status::Ok);
        assert_ne!(
            resp.flags & RESP_FLAG_TRACED,
            0,
            "a new server must acknowledge a sampled context"
        );
        assert_eq!(old_epoch, resp.epoch, "both paths see the same epoch");
        assert_eq!(old_results, resp.results, "tracing must not change results");

        // The sampled lookup's record lands in the store (the server
        // finishes the span around the write; poll briefly).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(record) = trace_lookup(trace_id) {
                assert_eq!(record.trace_id, trace_id);
                assert!(record.total_ns > 0);
                break;
            }
            assert!(Instant::now() < deadline, "traced lookup left no record");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // An untraced frame leaves nothing: a lookup with no context cannot
    // mint a record for any id we could have observed, and the response
    // never carries the traced acknowledgement.
    let id = old.send_lookup_traced(0, &keys[..8], None).unwrap();
    let resp = old.recv_response().unwrap();
    assert_eq!(resp.request_id, id);
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(
        resp.flags & RESP_FLAG_TRACED,
        0,
        "untraced frames must not be acknowledged as traced"
    );
    assert_eq!(old.peer_traces(), None, "a silent client learns nothing");

    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `REQUESTS` sampled 64-key lookups against a fresh node and
/// asserts every record's top-level hops read `tiling` and cover ≥ 90 %
/// of the request wall clock (median). Returns the data directory and the
/// node; the node's server is stopped.
fn assert_span_tree(tag: &str, tiling: &[&str]) -> (PathBuf, Arc<TcamNode>) {
    const REQUESTS: usize = 64;
    let dir = tmpdir(tag);
    let node = quiet_node(&dir);
    // 1024 /12 routes; keys past the last route miss. `net_write` spans
    // the reply encode, so the hops tile the request however short the
    // match is.
    let routes: Vec<RuleChange> = (0..1024u32)
        .map(|i| RuleChange::Insert {
            priority: i,
            word: prefix_word(u64::from(i) * 16, 12, 16),
        })
        .collect();
    node.apply(0, 16, &routes).unwrap();
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    client.set_tracing(1);

    tcam_obs::trace_store_reset();
    let keys: Vec<PackedWord> = (0..256u64)
        .map(|v| PackedWord::pack(&prefix_word(v * 251, 16, 16)))
        .collect();
    for i in 0..REQUESTS {
        client.lookup(0, &keys[(i % 4) * 64..][..64]).unwrap();
    }
    // The connection closes a reply's span and scores its SLO *after* the
    // client has it, and replies leave in order: once the pong is back,
    // all of that is done for every lookup.
    client.ping().unwrap();

    let records = tcam_obs::trace_recent(REQUESTS);
    assert_eq!(
        records.len(),
        REQUESTS,
        "every sampled request leaves a record"
    );
    for r in &records {
        let top: Vec<&str> = r.top_level().into_iter().map(|i| r.hops[i].name).collect();
        assert_eq!(
            top,
            tiling,
            "the request timeline lost a stage: {}",
            r.to_json()
        );
    }
    let mut covers: Vec<f64> = records.iter().map(|r| r.cover_pct()).collect();
    covers.sort_by(f64::total_cmp);
    let median = covers[REQUESTS / 2];
    assert!(
        median >= 90.0,
        "span trees attribute only {median:.1}% of request wall; one record: {}",
        records[0].to_json()
    );
    assert!(
        !tcam_obs::trace_exemplars().is_empty(),
        "no latency-bucket exemplar kept"
    );
    let window = tcam_obs::slo_report()
        .into_iter()
        .find(|w| w.secs == 60)
        .expect("the SLO reports a 60 s window");
    assert!(
        window.total >= REQUESTS as u64,
        "SLO window missed traffic: {window:?}"
    );
    server.shutdown();
    (dir, node)
}

/// The tracing contract on the whole wire stack. With every request
/// sampled, the top-level hops tile ≥ 90 % of each request's wall clock
/// (median): the connection thread decodes, matches and writes
/// (`net_decode` → `serve_match` → `net_write`). The exemplar store and
/// the `net_request` SLO saw the traffic, and an injected WAL append
/// fault fails the `apply` and leaves a flight dump that parses and
/// names `wal_rollback`.
#[test]
fn sampled_spans_cover_the_request_and_a_wal_fault_leaves_a_parsable_dump() {
    let _g = lock();
    let (dir, node) = assert_span_tree("cover-inline", &["net_decode", "serve_match", "net_write"]);

    // Post-mortem: the next WAL append writes a torn half-frame and fails.
    let epoch = node.group(0).unwrap().epoch();
    node.chaos_fail_appends(1);
    let poisoned = node.apply(
        0,
        16,
        &[RuleChange::Insert {
            priority: u32::MAX,
            word: prefix_word(0, 0, 16),
        }],
    );
    assert!(poisoned.is_err(), "the injected append fault must surface");
    assert_eq!(
        node.group(0).unwrap().epoch(),
        epoch,
        "a rolled-back batch publishes nothing"
    );
    let (cause, json) = tcam_obs::flight_last_dump().expect("a rollback takes a flight dump");
    assert_eq!(cause, "wal_rollback");
    let dump = Json::parse(&json).expect("the dump is valid nested JSON");
    assert_eq!(
        dump.get("cause").and_then(Json::as_str),
        Some("wal_rollback")
    );
    let events: usize = dump
        .get("threads")
        .and_then(Json::as_array)
        .expect("dump lists thread rings")
        .iter()
        .filter_map(|t| t.get("events").and_then(Json::as_array))
        .map(<[Json]>::len)
        .sum();
    assert!(
        events >= 1,
        "the dump holds the history that led to the rollback"
    );

    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replies to a burst are held and written together, and each is traced
/// and scored at that write: 24 lookups sent in one write (a third
/// sampled, a third with an unsampled context, a third to an unknown
/// namespace) leave one record per sampled request whose hops tile as
/// `net_decode` → `serve_match` → `net_write`, and every answered request
/// scores the `net_request` SLO exactly once.
#[test]
fn held_replies_are_traced_and_scored_once_when_written() {
    const REQUESTS: u32 = 24;
    let _g = lock();
    let dir = tmpdir("held");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    tcam_obs::trace_store_reset();
    tcam_obs::slo_reset();

    let keys: Vec<PackedWord> = (0..64u64)
        .map(|v| PackedWord::pack(&prefix_word(v * 4, 8, 8)))
        .collect();
    let mut burst = Vec::new();
    let mut frame = Vec::new();
    let mut sampled = Vec::new();
    for id in 0..REQUESTS {
        let trace_id = next_trace_id();
        let (namespace, ctx) = match id % 3 {
            0 => {
                sampled.push(trace_id);
                (0, Some(TraceContext::sampled(trace_id)))
            }
            1 => (0, Some(TraceContext::unsampled(trace_id))),
            _ => (42, None),
        };
        wire::encode_lookup_request_traced(&mut frame, namespace, id, &keys, false, ctx.as_ref());
        burst.extend_from_slice(&frame);
    }
    stream.write_all(&burst).unwrap();
    for id in 0..REQUESTS {
        let payload = wire::read_frame(&mut stream).unwrap().expect("a reply");
        let resp = wire::decode_lookup_response(&payload).unwrap();
        assert_eq!(resp.request_id, id, "out of order");
        let status = if id % 3 == 2 {
            Status::UnknownNamespace
        } else {
            Status::Ok
        };
        assert_eq!(resp.status, status);
        assert_eq!(resp.flags & RESP_FLAG_TRACED != 0, id % 3 == 0);
    }
    drop(stream);
    // Joining the connection finishes every record and every score.
    server.shutdown();

    let mut covers = Vec::new();
    for trace_id in &sampled {
        let record = trace_lookup(*trace_id).expect("every sampled request leaves a record");
        let top: Vec<&str> = record
            .top_level()
            .into_iter()
            .map(|i| record.hops[i].name)
            .collect();
        assert_eq!(
            top,
            ["net_decode", "serve_match", "net_write"],
            "a held reply's timeline lost a stage: {}",
            record.to_json()
        );
        covers.push(record.cover_pct());
    }
    assert_eq!(
        tcam_obs::trace_recent(usize::try_from(REQUESTS).unwrap()).len(),
        sampled.len(),
        "only sampled requests leave a record"
    );
    covers.sort_by(f64::total_cmp);
    let median = covers[covers.len() / 2];
    assert!(median >= 90.0, "held replies' hops cover only {median:.1}%");
    let window = tcam_obs::slo_report()
        .into_iter()
        .find(|w| w.secs == 60)
        .expect("the SLO reports a 60 s window");
    assert_eq!(
        (window.total, window.errors),
        (u64::from(REQUESTS), u64::from(REQUESTS / 3)),
        "each answered request scores the SLO once: {window:?}"
    );
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A strict pre-extension v1 server: accepts one connection and answers
/// every lookup whose payload is exactly `12 + count × limbs × 8` bytes
/// with deterministic results, and anything over-long with
/// `BadRequest` — the original codec's exact-length check.
struct StrictV1Server {
    addr: String,
    bad_requests: Arc<AtomicUsize>,
    lookups_served: Arc<AtomicUsize>,
    handle: std::thread::JoinHandle<()>,
}

/// The deterministic result the mock returns for key `i` of a batch.
fn mock_result(i: usize) -> Option<u32> {
    if i % 3 == 2 {
        None
    } else {
        Some(u32::try_from(i).unwrap() * 7 + 1)
    }
}

impl StrictV1Server {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let bad_requests = Arc::new(AtomicUsize::new(0));
        let lookups_served = Arc::new(AtomicUsize::new(0));
        let bad = Arc::clone(&bad_requests);
        let served = Arc::clone(&lookups_served);
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
                // The old decoder's header checks, inlined.
                assert!(payload.len() >= 12, "runt frame");
                assert_eq!(payload[0], WIRE_VERSION);
                let opcode = payload[1];
                let request_id = u32::from_le_bytes(payload[4..8].try_into().unwrap());
                let limbs = usize::from(payload[8]);
                let count = usize::from(u16::from_le_bytes(payload[10..12].try_into().unwrap()));
                if opcode == OP_PING {
                    wire::encode_response(&mut buf, OP_PING, Status::Ok, request_id, 0, &[]);
                    wire::write_frame(&mut stream, &buf).unwrap();
                    continue;
                }
                assert_eq!(opcode, OP_LOOKUP);
                // The pre-extension length law: no flags byte existed, so
                // a trace-extended frame is simply 16 bytes too long.
                if payload.len() != 12 + count * limbs * 8 {
                    bad.fetch_add(1, Ordering::SeqCst);
                    wire::encode_response(
                        &mut buf,
                        OP_LOOKUP,
                        Status::BadRequest,
                        request_id,
                        0,
                        &[],
                    );
                } else {
                    served.fetch_add(1, Ordering::SeqCst);
                    let results: Vec<Option<u32>> = (0..count).map(mock_result).collect();
                    wire::encode_response(&mut buf, OP_LOOKUP, Status::Ok, request_id, 9, &results);
                }
                wire::write_frame(&mut stream, &buf).unwrap();
            }
        });
        Self {
            addr,
            bad_requests,
            lookups_served,
            handle,
        }
    }
}

/// New client → old server: the flagged first frame is rejected with
/// `BadRequest`; `lookup` falls back untraced exactly once, pins
/// `peer_traces` to `Some(false)`, and every later lookup goes out at
/// the exact v1 length.
#[test]
fn new_client_falls_back_untraced_against_a_pre_extension_server() {
    let mock = StrictV1Server::start();
    let mut client = NetClient::connect(&mock.addr).unwrap();
    client.set_tracing(1);
    assert_eq!(client.peer_traces(), None, "nothing learned before traffic");

    let keys: Vec<PackedWord> = (0..5u64)
        .map(|v| PackedWord::pack(&prefix_word(v * 16, 8, 8)))
        .collect();
    let expected: Vec<Option<u32>> = (0..keys.len()).map(mock_result).collect();

    // First lookup: traced attempt → BadRequest → silent untraced retry.
    let (epoch, results) = client.lookup(0, &keys).unwrap();
    assert_eq!(epoch, 9);
    assert_eq!(results, expected);
    assert_eq!(
        client.peer_traces(),
        Some(false),
        "one BadRequest against a fresh connection proves a pre-extension peer"
    );
    assert_eq!(mock.bad_requests.load(Ordering::SeqCst), 1);
    assert_eq!(mock.lookups_served.load(Ordering::SeqCst), 1);

    // Every subsequent lookup stays untraced: no further rejections even
    // though the sampling policy would flag each one.
    for _ in 0..8 {
        let (epoch, results) = client.lookup(0, &keys).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(results, expected);
    }
    assert_eq!(
        mock.bad_requests.load(Ordering::SeqCst),
        1,
        "the fallback must be learned once, not rediscovered per request"
    );
    assert_eq!(mock.lookups_served.load(Ordering::SeqCst), 9);

    drop(client);
    mock.handle.join().unwrap();
}

/// Tiny deterministic xorshift64* for the property sweep (the offline
/// rule: no external RNG crates, no OS entropy).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Codec property sweep: across random batches, (a) the traced frame is
/// the untraced frame plus exactly the flag bit and 16 trailing context
/// bytes, and (b) both decode to the same request modulo `trace`.
#[test]
fn traced_and_untraced_encodings_agree_modulo_the_extension() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for round in 0..256 {
        let count = (rng.next() % 9) as usize; // 0..=8 keys; 0 is legal
        let wide = rng.next() % 2 == 1;
        let keys: Vec<PackedWord> = (0..count)
            .map(|_| {
                let mut key = PackedWord {
                    mask: [rng.next(), 0],
                    value: [rng.next(), 0],
                };
                if wide {
                    key.mask[1] = rng.next();
                    key.value[1] = rng.next();
                }
                key
            })
            .collect();
        assert!(keys.len() <= MAX_KEYS_PER_REQUEST);
        let namespace = (rng.next() % 4) as u16;
        let request_id = rng.next() as u32;
        let ctx = TraceContext {
            trace_id: rng.next(),
            parent_span: rng.next() as u32,
            flags: if rng.next().is_multiple_of(2) {
                TraceContext::FLAG_SAMPLED
            } else {
                0
            },
        };

        wire::encode_lookup_request(&mut untraced, namespace, request_id, &keys, wide);
        wire::encode_lookup_request_traced(
            &mut traced,
            namespace,
            request_id,
            &keys,
            wide,
            Some(&ctx),
        );

        // Byte-level law: strip the extension from the traced frame and
        // you get the untraced frame back exactly.
        assert_eq!(
            traced.len(),
            untraced.len() + TRACE_CONTEXT_BYTES,
            "round {round}: the extension is exactly {TRACE_CONTEXT_BYTES} bytes"
        );
        let mut stripped = traced[..traced.len() - TRACE_CONTEXT_BYTES].to_vec();
        assert_eq!(stripped[4 + 9], REQ_FLAG_TRACE, "flag bit set when traced");
        stripped[4 + 9] = 0;
        let body_len = u32::try_from(untraced.len() - 4).unwrap();
        stripped[0..4].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            stripped, untraced,
            "round {round}: frames differ beyond the extension"
        );

        // Decode-level law: identical requests modulo the trace field.
        let plain = wire::decode_lookup_request(&untraced[4..]).unwrap();
        let with_ctx = wire::decode_lookup_request(&traced[4..]).unwrap();
        assert_eq!(plain.trace, None);
        assert_eq!(
            with_ctx.trace,
            Some(ctx),
            "round {round}: context round-trips"
        );
        assert_eq!(plain.namespace, with_ctx.namespace);
        assert_eq!(plain.request_id, with_ctx.request_id);
        assert_eq!(plain.keys, with_ctx.keys, "round {round}: keys must agree");
        assert_eq!(plain.keys, keys, "round {round}: keys must round-trip");
    }
}
