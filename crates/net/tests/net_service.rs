//! End-to-end tests of the wire front-end: correctness over loopback,
//! epoch tags, width checks, lookups under heavy refresh, recovery over a
//! restart, and the HTTP admin plane.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::energy_model::WorkloadMeter;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::{parse_ternary, TernaryBit};
use tcam_net::client::NetClient;
use tcam_net::node::{NodeConfig, TcamNode};
use tcam_net::server::{NetServer, ServerConfig};
use tcam_net::wire::{self, LookupResponse, Status, MAX_KEYS_PER_REQUEST, READ_BUFFER_BYTES};
use tcam_net::NetError;
use tcam_serve::service::ServiceConfig;
use tcam_serve::shard::ShardedRuleSet;
use tcam_update::store::{prefix_word, RuleChange};

fn w(s: &str) -> Vec<TernaryBit> {
    parse_ternary(s).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcam-net-e2e-{tag}-{}", std::process::id()));
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

/// Seeds namespace 0 with a deterministic 8-bit LPM table and returns
/// the (priority, word) pairs for reference checking.
fn seed_lpm(node: &TcamNode) -> Vec<(u32, Vec<TernaryBit>)> {
    let rules: Vec<(u32, Vec<TernaryBit>)> = (0..16u32)
        .map(|i| (i, prefix_word(u64::from(i) * 16, 4, 8)))
        .collect();
    let batch: Vec<RuleChange> = rules
        .iter()
        .map(|(p, word)| RuleChange::Insert {
            priority: *p,
            word: word.clone(),
        })
        .collect();
    node.apply(0, 8, &batch).unwrap();
    rules
}

/// The monolithic oracle for `rules`.
fn reference_of(rules: &[(u32, Vec<TernaryBit>)]) -> ShardedRuleSet {
    ShardedRuleSet::from_prioritized(rules, 0).unwrap()
}

#[test]
fn lookups_over_loopback_match_the_reference() {
    let dir = tmpdir("correct");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    client.ping().unwrap();

    // Every concrete 8-bit key, in wire batches of 32.
    let keys: Vec<Vec<TernaryBit>> = (0..=255u64).map(|v| prefix_word(v, 8, 8)).collect();
    for chunk in keys.chunks(32) {
        let (epoch, results) = client.lookup_ternary(0, chunk).unwrap();
        assert_eq!(epoch, 1, "the seed batch is version/epoch 1");
        for (key, hit) in chunk.iter().zip(results) {
            assert_eq!(hit, reference.search(key).unwrap(), "key {key:?}");
        }
    }

    // Pipelined: several requests in flight, responses in order.
    let packed: Vec<PackedWord> = keys.iter().take(8).map(|k| PackedWord::pack(k)).collect();
    let ids: Vec<u32> = (0..5)
        .map(|_| client.send_lookup(0, &packed).unwrap())
        .collect();
    for id in ids {
        let resp = client.recv_response().unwrap();
        assert_eq!(resp.request_id, id, "responses must arrive in order");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.results.len(), 8);
    }

    // Unknown namespace: explicit status, connection stays usable.
    let err = client.lookup(42, &packed).unwrap_err();
    assert!(matches!(err, NetError::Status(Status::UnknownNamespace)));
    client.ping().unwrap();

    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn updates_are_visible_with_their_epoch_tag() {
    let dir = tmpdir("epochs");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();

    // A high-priority override for one /8: `apply` returned version 2, so
    // the very next lookup is served at epoch 2 and sees the new rule
    // (read-your-writes, through the wire).
    node.apply(
        0,
        8,
        &[RuleChange::Insert {
            priority: 0xFFFF,
            word: w("00000000"),
        }],
    )
    .unwrap();
    let key = [PackedWord::pack(&w("00000000"))];
    let (epoch, results) = client.lookup(0, &key).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(results, vec![Some(0)], "priority 0 still wins (lower id)");
    // Remove the only rule matching 0x10-prefixed keys: epoch 3 replies,
    // and the miss is real.
    node.apply(0, 8, &[RuleChange::Remove { priority: 1 }])
        .unwrap();
    let key = [PackedWord::pack(&w("00010000"))];
    assert_eq!(client.lookup(0, &key).unwrap(), (3, vec![None]));
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_serves_the_exact_pre_kill_epoch_over_the_wire() {
    let dir = tmpdir("recover");
    {
        let node = quiet_node(&dir);
        seed_lpm(&node);
        node.apply(
            0,
            8,
            &[RuleChange::Insert {
                priority: 100,
                word: w("1111111X"),
            }],
        )
        .unwrap();
        node.apply(0, 8, &[RuleChange::Remove { priority: 15 }])
            .unwrap();
        // Simulated kill: no snapshot, no clean close — the WAL alone
        // must carry all three batches.
        node.shutdown();
    }
    let node = quiet_node(&dir);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let (epoch, results) = client
        .lookup(
            0,
            &[
                PackedWord::pack(&w("11111110")),
                PackedWord::pack(&w("11110000")),
            ],
        )
        .unwrap();
    assert_eq!(epoch, 3, "the very first reply carries the pre-kill epoch");
    assert_eq!(
        results,
        vec![Some(100), None],
        "recovered rules: insert replayed, remove replayed"
    );
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A deliberately chokeable node: a refresh clock that spends almost all
/// its time in (heavy, frequent) refresh events.
fn choked_node(dir: &Path) -> Arc<TcamNode> {
    let config = NodeConfig {
        service: ServiceConfig {
            refresh: BankRefresh::OneShot { op_time: 10e-9 },
            refresh_interval: Duration::from_micros(100),
            refresh_op_work: 2_000_000,
            ..ServiceConfig::default()
        },
        snapshot_every_batches: 0,
    };
    Arc::new(TcamNode::open(dir, config).unwrap())
}

/// 512 concrete 8-bit keys (every value twice), ternary for the oracle.
fn choke_keys() -> Vec<Vec<TernaryBit>> {
    (0..512u64).map(|v| prefix_word(v % 256, 8, 8)).collect()
}

/// Lookups under a choked refresh clock: a lookup is matched on the connection
/// thread, which waits out each refresh event instead of queueing —
/// nothing is shed, every answer is the oracle's, and the report counts
/// every key and the ones refresh held back.
#[test]
fn single_shard_lookups_wait_out_refresh_instead_of_shedding() {
    let dir = tmpdir("choked-inline");
    let node = choked_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let ternary = choke_keys();
    let keys: Vec<PackedWord> = ternary.iter().map(|k| PackedWord::pack(k)).collect();
    let want: Vec<Option<u32>> = ternary
        .iter()
        .map(|k| reference.search(k).unwrap())
        .collect();
    let total = 64u32;
    let mut sent = std::collections::VecDeque::new();
    for i in 0..total {
        sent.push_back(client.send_lookup(0, &keys).unwrap());
        while sent.len() > 8 || (i == total - 1 && !sent.is_empty()) {
            let resp = client.recv_response().unwrap();
            assert_eq!(resp.request_id, sent.pop_front().unwrap());
            assert_eq!(resp.status, Status::Ok, "a single-shard lookup was shed");
            assert_eq!(resp.results, want);
        }
    }
    server.shutdown();
    let reports = node.shutdown();
    let report = reports[0]
        .1
        .as_ref()
        .expect("no connection holds the group");
    assert_eq!(report.stats.searches, u64::from(total) * keys.len() as u64);
    assert!(
        report.stats.stalled_searches > 0,
        "no lookup met a refresh event: {report:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What the table matched on the connection thread reaches the node's
/// report exactly as a meter fed the same frames prices them: one
/// `search_n` per frame, energy equal to the bit.
#[test]
fn lookups_answered_on_the_reader_are_metered_like_worker_batches() {
    let dir = tmpdir("metered");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let keys: Vec<PackedWord> = (0..=255u64)
        .map(|v| PackedWord::pack(&prefix_word(v, 8, 8)))
        .collect();
    let costs = ServiceConfig::default().costs;
    let mut meter = WorkloadMeter::new();
    for chunk in keys.chunks(32) {
        client.lookup(0, chunk).unwrap();
        meter.search_n(&costs, chunk.len() as u64);
    }
    server.shutdown();
    let wire = node
        .shutdown()
        .remove(0)
        .1
        .expect("no connection holds the group")
        .stats;
    assert_eq!((wire.searches, wire.batches), (256, 8));
    assert_eq!(wire.meter.searches, meter.searches);
    assert_eq!(wire.meter.energy.to_bits(), meter.energy.to_bits());
    assert_eq!(wire.latency.count(), 256);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One reply a pipelined request must get.
#[derive(Debug)]
enum Want {
    Lookup(Vec<Option<u32>>),
    Pong,
    Status(Status),
}

/// Replies leave in request order: lookups, pings and unknown-namespace
/// lookups (an immediate status) mixed 12 deep, all answered by the
/// connection's one thread.
#[test]
fn replies_keep_request_order() {
    let dir = tmpdir("order");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let keys: Vec<Vec<TernaryBit>> = (0..=255u64).map(|v| prefix_word(v, 8, 8)).collect();
    for round in 0..4 {
        let mut sent = Vec::new();
        for i in 0..12 {
            let chunk = &keys[(round * 12 + i) * 5 % 224..][..32];
            let packed: Vec<PackedWord> = chunk.iter().map(|k| PackedWord::pack(k)).collect();
            sent.push(match i % 3 {
                0 => (
                    client.send_lookup(0, &packed).unwrap(),
                    Want::Lookup(chunk.iter().map(|k| reference.search(k).unwrap()).collect()),
                ),
                1 => (client.send_ping().unwrap(), Want::Pong),
                _ => (
                    client.send_lookup(42, &packed).unwrap(),
                    Want::Status(Status::UnknownNamespace),
                ),
            });
        }
        for (id, want) in sent {
            let resp = client.recv_response().unwrap();
            assert_eq!(resp.request_id, id, "out of order");
            assert_answers(&resp, want);
        }
    }
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checks one reply against what its request must get.
fn assert_answers(resp: &LookupResponse, want: Want) {
    match want {
        Want::Lookup(results) => {
            assert_eq!((resp.status, resp.epoch), (Status::Ok, 1));
            assert_eq!(resp.results, results);
        }
        Want::Pong => {
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.results.is_empty());
        }
        Want::Status(status) => {
            assert_eq!(resp.status, status);
            assert!(resp.results.is_empty());
        }
    }
}

/// A lookup frame as `NetClient` sends it, untraced.
fn lookup_frame(namespace: u16, request_id: u32, keys: &[PackedWord]) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_lookup_request(&mut frame, namespace, request_id, keys, false);
    frame
}

/// A ping frame as `NetClient` sends it.
fn ping_frame(request_id: u32) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_ping_request(&mut frame, request_id);
    frame
}

/// Reads and decodes the next reply on a raw connection.
fn read_reply(stream: &mut TcpStream) -> LookupResponse {
    let payload = wire::read_frame(stream)
        .unwrap()
        .expect("a reply, not the end of the stream");
    wire::decode_lookup_response(&payload).unwrap()
}

/// The server holds a reply only while the whole next frame is already in
/// its read buffer. With one lookup and part of the next sent in one
/// write, the first reply arrives before the rest is sent, whether the
/// part ends inside the next frame's length prefix or inside its payload.
#[test]
fn a_partial_next_frame_holds_no_reply() {
    let dir = tmpdir("partial");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let ternary: Vec<Vec<TernaryBit>> = (0..8u64).map(|v| prefix_word(v * 32, 8, 8)).collect();
    let keys: Vec<PackedWord> = ternary.iter().map(|k| PackedWord::pack(k)).collect();
    let want: Vec<Option<u32>> = ternary
        .iter()
        .map(|k| reference.search(k).unwrap())
        .collect();
    // 2 bytes: inside the length prefix; 4 + 12 + 64: inside the keys.
    for (round, split) in [2usize, 80].into_iter().enumerate() {
        let id = 2 * u32::try_from(round).unwrap();
        let mut bytes = lookup_frame(0, id, &keys);
        let next = lookup_frame(0, id + 1, &keys);
        bytes.extend_from_slice(&next[..split]);
        stream.write_all(&bytes).unwrap();
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            other => panic!("reply {id} waited behind a partial frame: {other:?}"),
        };
        let first = wire::decode_lookup_response(&payload).unwrap();
        assert_eq!(first.request_id, id);
        assert_answers(&first, Want::Lookup(want.clone()));
        stream.write_all(&next[split..]).unwrap();
        let second = read_reply(&mut stream);
        assert_eq!(second.request_id, id + 1);
        assert_answers(&second, Want::Lookup(want.clone()));
    }
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// 32 frames in one write — lookups, pings and unknown-namespace lookups
/// — reach the server's read buffer together; their replies, held and
/// written together, come back in request order with the oracle's
/// results.
#[test]
fn one_write_of_mixed_frames_gets_every_reply_in_order() {
    let dir = tmpdir("burst");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let keys: Vec<Vec<TernaryBit>> = (0..=255u64).map(|v| prefix_word(v, 8, 8)).collect();
    let mut burst = Vec::new();
    let mut wants = Vec::new();
    for id in 0..32u32 {
        let chunk = &keys[id as usize * 7 % 224..][..32];
        let packed: Vec<PackedWord> = chunk.iter().map(|k| PackedWord::pack(k)).collect();
        let (frame, want) = match id % 3 {
            0 => (
                lookup_frame(0, id, &packed),
                Want::Lookup(chunk.iter().map(|k| reference.search(k).unwrap()).collect()),
            ),
            1 => (ping_frame(id), Want::Pong),
            _ => (
                lookup_frame(42, id, &packed),
                Want::Status(Status::UnknownNamespace),
            ),
        };
        burst.extend_from_slice(&frame);
        wants.push(want);
    }
    stream.write_all(&burst).unwrap();
    for (id, want) in (0u32..).zip(wants) {
        let resp = read_reply(&mut stream);
        assert_eq!(resp.request_id, id, "out of order");
        assert_answers(&resp, want);
    }
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shutdown while replies are held: 8 lookups sent in one write, then
/// `shutdown()`. The replies that arrive are whole and in order, the
/// stream then ends in a clean EOF at a frame boundary — also when the
/// connection saw the flag before it read the burst and so closed with
/// bytes unread — and every lookup the table matched was answered.
#[test]
fn shutdown_writes_held_replies_and_ends_in_a_clean_eof() {
    let dir = tmpdir("drain-held");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A pong first: the connection is being served.
    stream.write_all(&ping_frame(0)).unwrap();
    assert_answers(&read_reply(&mut stream), Want::Pong);
    let ternary: Vec<Vec<TernaryBit>> = (0..16u64).map(|v| prefix_word(v * 16, 8, 8)).collect();
    let keys: Vec<PackedWord> = ternary.iter().map(|k| PackedWord::pack(k)).collect();
    let want: Vec<Option<u32>> = ternary
        .iter()
        .map(|k| reference.search(k).unwrap())
        .collect();
    let burst: Vec<u8> = (1..=8).flat_map(|id| lookup_frame(0, id, &keys)).collect();
    stream.write_all(&burst).unwrap();
    server.shutdown();
    let mut answered = 0u32;
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let resp = wire::decode_lookup_response(&payload).unwrap();
                answered += 1;
                assert_eq!(resp.request_id, answered, "out of order");
                assert_answers(&resp, Want::Lookup(want.clone()));
            }
            Ok(None) => break,
            Err(e) => panic!("the stream broke after {answered} replies: {e}"),
        }
    }
    assert!(answered <= 8);
    let matched = node
        .shutdown()
        .remove(0)
        .1
        .expect("no connection holds the group")
        .stats
        .batches;
    assert_eq!(
        u64::from(answered),
        matched,
        "a lookup the table matched went unanswered"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A key that cares about a column past the namespace's width is refused
/// with `WidthMismatch`, not answered from its leading columns; a key of
/// the namespace's width with don't-cares is still served, and the
/// connection stays usable.
#[test]
fn keys_wider_than_the_namespace_get_width_mismatch() {
    let dir = tmpdir("width");
    let node = quiet_node(&dir);
    node.apply(
        0,
        32,
        &[RuleChange::Insert {
            priority: 1,
            word: prefix_word(0xC0A8_0000, 16, 32),
        }],
    )
    .unwrap();
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let wide = PackedWord::pack(&prefix_word(0xC0A8_0101 << 1, 33, 33));
    assert!(matches!(
        client.lookup(0, &[wide]),
        Err(NetError::Status(Status::WidthMismatch))
    ));
    let mut ternary = prefix_word(0xC0A8_0101, 32, 32);
    ternary[20] = TernaryBit::X;
    ternary[31] = TernaryBit::X;
    assert_eq!(
        client.lookup(0, &[PackedWord::pack(&ternary)]).unwrap(),
        (1, vec![Some(1)])
    );
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A ping with a lookup still uncollected must not take the lookup's
/// reply as its pong (and leave the pong to be read as the lookup's).
#[test]
fn ping_refuses_the_reply_to_an_earlier_request() {
    let dir = tmpdir("ping-id");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let lookup = client
        .send_lookup(0, &[PackedWord::pack(&w("00010000"))])
        .unwrap();
    assert!(
        matches!(client.ping(), Err(NetError::Wire(_))),
        "ping accepted the lookup's reply"
    );
    // The ping's own pong is next in the stream.
    assert_eq!(client.recv_response().unwrap().request_id, lookup + 1);
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client connected to a raw listener, and the listener's end of it.
fn raw_peer() -> (NetClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = NetClient::connect(&listener.local_addr().unwrap().to_string()).unwrap();
    let (peer, _) = listener.accept().unwrap();
    (client, peer)
}

/// Sends queue their frames until the caller waits: 16 `send_lookup`s
/// put no byte on the wire, `flush` writes exactly the 16 frames the
/// encoder produces, in order, and `recv_response` writes what it finds
/// queued before it reads.
#[test]
fn sends_queue_until_flush_or_receive_writes_them() {
    let (mut client, mut peer) = raw_peer();
    let keys: Vec<PackedWord> = (0..8u64)
        .map(|v| PackedWord::pack(&prefix_word(v * 32, 8, 8)))
        .collect();
    let mut want = Vec::new();
    for _ in 0..16 {
        let id = client.send_lookup(0, &keys).unwrap();
        want.extend_from_slice(&lookup_frame(0, id, &keys));
    }
    peer.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut byte = [0u8; 1];
    match peer.read(&mut byte) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("a queued request reached the peer before flush: {other:?}"),
    }
    client.flush().unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut got = vec![0u8; want.len()];
    peer.read_exact(&mut got).unwrap();
    assert_eq!(
        got, want,
        "flush wrote other bytes than the 16 encoded frames"
    );
    peer.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    assert!(
        peer.read(&mut byte).is_err(),
        "flush wrote past the 16 frames"
    );

    // A ping and a lookup, collected with recv_response: the peer answers
    // only once both requests have arrived.
    let ping = client.send_ping().unwrap();
    let lookup = client.send_lookup(0, &keys).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::scope(|s| {
        let peer = &mut peer;
        s.spawn(move || {
            peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut want = ping_frame(ping);
            want.extend_from_slice(&lookup_frame(0, lookup, &keys));
            let mut got = vec![0u8; want.len()];
            peer.read_exact(&mut got).unwrap();
            assert_eq!(got, want);
            let mut replies = Vec::new();
            let mut reply = Vec::new();
            wire::encode_response(&mut reply, wire::OP_PING, Status::Ok, ping, 0, &[]);
            replies.extend_from_slice(&reply);
            wire::encode_lookup_response(&mut reply, Status::Ok, lookup, 1, &[None; 8]);
            replies.extend_from_slice(&reply);
            peer.write_all(&replies).unwrap();
        });
        assert_eq!(client.recv_response().unwrap().request_id, ping);
        assert_eq!(client.recv_response().unwrap().request_id, lookup);
    });
}

/// A send writes the queue first when its frame would take the queue past
/// one server read buffer: the peer gets exactly the frames queued before
/// the last such write, and what a dropped client discards never exceeds
/// the bound.
#[test]
fn the_queue_is_written_before_it_passes_one_read_buffer() {
    let (mut client, mut peer) = raw_peer();
    let reader = std::thread::spawn(move || {
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        got
    });
    let mut frames = Vec::new();
    for i in 0..300u64 {
        let count = usize::try_from(i % 64).unwrap() + 1;
        let keys: Vec<PackedWord> = (0..count as u64)
            .map(|v| PackedWord::pack(&prefix_word(v, 8, 8)))
            .collect();
        let id = client.send_lookup(0, &keys).unwrap();
        frames.push(lookup_frame(0, id, &keys));
    }
    // Dropping the client discards its queue and closes the connection.
    drop(client);
    let got = reader.join().unwrap();

    let (mut written, mut queued) = (0, 0);
    for frame in &frames {
        if queued + frame.len() > READ_BUFFER_BYTES {
            written += queued;
            queued = 0;
        }
        queued += frame.len();
    }
    let all = frames.concat();
    assert!(
        all.len() > 2 * READ_BUFFER_BYTES,
        "the frames must cross the bound twice"
    );
    assert_eq!(
        got.len(),
        written,
        "the peer got other than the bound-triggered writes"
    );
    assert_eq!(
        got,
        all[..written],
        "bound-triggered writes changed the bytes"
    );
    assert!(
        all.len() - got.len() <= READ_BUFFER_BYTES,
        "the queue passed its bound"
    );
}

/// A send to a peer that has closed only queues, so it succeeds; the
/// receive that writes the queue then fails instead of hanging.
#[test]
fn a_send_to_a_closed_peer_fails_at_the_receive() {
    let (mut client, peer) = raw_peer();
    drop(peer);
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = Instant::now();
    client
        .send_lookup(0, &[PackedWord::pack(&w("00010000"))])
        .unwrap();
    client.send_ping().unwrap();
    assert!(client.recv_response().is_err(), "a closed peer answered");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the receive waited out its timeout instead of seeing the close"
    );
}

/// More keys than a request can count is the caller's error, returned
/// before anything is queued: the connection stays in step.
#[test]
fn an_oversized_batch_is_refused_before_anything_is_queued() {
    let dir = tmpdir("oversized");
    let node = quiet_node(&dir);
    let rules = seed_lpm(&node);
    let reference = reference_of(&rules);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let key = w("00010000");
    let oversized = vec![PackedWord::pack(&key); MAX_KEYS_PER_REQUEST + 1];
    assert!(matches!(
        client.send_lookup(0, &oversized),
        Err(NetError::Wire(_))
    ));
    assert!(matches!(
        client.lookup(0, &oversized),
        Err(NetError::Wire(_))
    ));
    assert_eq!(
        client.lookup(0, &[PackedWord::pack(&key)]).unwrap(),
        (1, vec![reference.search(&key).unwrap()])
    );
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_completes_with_a_peer_stalled_mid_frame() {
    let dir = tmpdir("stalled-peer");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    // A short read poll so the mid-frame stall bound (a fixed retry
    // count) trips in ~hundreds of ms instead of the production ~5 s.
    let server = NetServer::start(
        Arc::clone(&node),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // A peer that starts a frame and then stalls forever: two bytes of
    // length prefix, socket held open. Pre-fix, the connection reader
    // retried the mid-frame timeout without bound and shutdown's join
    // hung on it.
    let mut staller = TcpStream::connect(server.local_addr().to_string()).unwrap();
    staller.write_all(&[8, 0]).unwrap();
    // Give the server a moment to accept and enter the mid-frame read.
    std::thread::sleep(Duration::from_millis(50));
    let shutdown = std::thread::spawn(move || server.shutdown());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !shutdown.is_finished() {
        assert!(
            Instant::now() < deadline,
            "shutdown pinned by a peer stalled mid-frame"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.join().unwrap();
    drop(staller);
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With `max_connections: 1` a second client's handshake completes in the
/// kernel but nothing answers it until the first closes; a third, never
/// started, does not hold up shutdown.
#[test]
fn live_connection_cap_holds_further_clients_until_a_slot_frees() {
    let dir = tmpdir("conn-cap");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server = NetServer::start(
        Arc::clone(&node),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut a = NetClient::connect(&addr).unwrap();
    a.ping().unwrap();

    let mut b = NetClient::connect(&addr).unwrap();
    let b_ping = b.send_ping().unwrap();
    b.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    match b.recv_response() {
        Err(NetError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("a client over the cap was answered: {other:?}"),
    }
    assert_eq!(server.live_connections(), 1);

    drop(a);
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let pong = b.recv_response().unwrap();
    assert_eq!(pong.request_id, b_ping);
    assert_eq!(pong.status, Status::Ok);

    let mut c = NetClient::connect(&addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.send_ping().unwrap();
    c.flush().unwrap();
    assert_eq!(server.live_connections(), 1);
    let shutdown = std::thread::spawn(move || server.shutdown());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !shutdown.is_finished() {
        assert!(
            Instant::now() < deadline,
            "shutdown pinned by a client waiting for a slot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.join().unwrap();
    assert!(
        c.recv_response().is_err(),
        "a client never started was answered"
    );
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_violations_get_explicit_statuses() {
    let dir = tmpdir("violations");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // Wrong wire version: answered with UnsupportedVersion, then closed.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut frame = vec![];
        frame.extend_from_slice(&12u32.to_le_bytes());
        frame.extend_from_slice(&[9, 1]); // version 9, OP_LOOKUP
        frame.extend_from_slice(&0u16.to_le_bytes());
        frame.extend_from_slice(&77u32.to_le_bytes());
        frame.extend_from_slice(&[2, 0]);
        frame.extend_from_slice(&0u16.to_le_bytes());
        stream.write_all(&frame).unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap(); // server closes after answering
        assert!(resp.len() >= 22);
        assert_eq!(resp[6], Status::UnsupportedVersion as u8);
        assert_eq!(&resp[8..12], &77u32.to_le_bytes());
    }

    // Unknown opcode: BadRequest, connection survives.
    {
        let mut client = NetClient::connect(&addr).unwrap();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut frame = vec![];
        frame.extend_from_slice(&12u32.to_le_bytes());
        frame.extend_from_slice(&[1, 0x7E]); // good version, bogus opcode
        frame.extend_from_slice(&0u16.to_le_bytes());
        frame.extend_from_slice(&5u32.to_le_bytes());
        frame.extend_from_slice(&[2, 0]);
        frame.extend_from_slice(&0u16.to_le_bytes());
        stream.write_all(&frame).unwrap();
        let mut head = [0u8; 22];
        stream.read_exact(&mut head).unwrap();
        assert_eq!(head[6], Status::BadRequest as u8);
        // The healthy client on the same server is unaffected.
        client.ping().unwrap();
    }
    server.shutdown();
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Minimal HTTP/1.1 round-trip helper for the admin plane.
fn http(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn admin_plane_applies_rules_and_exposes_state() {
    let dir = tmpdir("admin");
    let node = quiet_node(&dir);
    let admin = tcam_net::AdminServer::start(Arc::clone(&node), "127.0.0.1:0").unwrap();
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = admin.local_addr().to_string();

    let (status, body) = http(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Provision namespace 3 through the admin plane.
    let rules_body = r#"{"width": 4, "changes": [
        {"op": "insert", "priority": 1, "word": "10XX"},
        {"op": "insert", "priority": 2, "word": "XXXX"}
    ]}"#;
    let request = format!(
        "POST /rules?ns=3 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{rules_body}",
        rules_body.len()
    );
    let (status, body) = http(&addr, &request);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(body, "{\"version\": 1}");

    // It is immediately servable over the wire plane.
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    assert_eq!(
        client.lookup(3, &[PackedWord::pack(&w("1011"))]).unwrap(),
        (1, vec![Some(1)])
    );

    let (status, body) = http(&addr, "GET /namespaces HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"ns\": 3") && body.contains("\"rules\": 2"),
        "namespaces body: {body}"
    );

    // A bad batch is a 400 with a reason, not a panic or a 200.
    let bad = r#"{"width": 4, "changes": [{"op": "insert", "priority": 1, "word": "10XX"}]}"#;
    let request = format!(
        "POST /rules?ns=3 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    );
    let (status, body) = http(&addr, &request);
    assert_eq!(status, 400);
    assert!(body.contains("already present"), "body: {body}");

    // Snapshot trigger compacts the WAL.
    assert!(node.wal_bytes() > 0);
    let (status, _) = http(
        &addr,
        "POST /snapshot HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(node.wal_bytes(), 0);

    // Metrics and stats exporters answer with real content.
    tcam_obs::set_enabled(true);
    let _ = client.lookup(3, &[PackedWord::pack(&w("0000"))]).unwrap();
    let (status, body) = http(&addr, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        body.starts_with('{') && body.contains("admin_requests"),
        "stats: {body}"
    );
    assert!(
        body.contains("\"slo_net_request_60s_total\":"),
        "stats: {body}"
    );
    let (status, body) = http(&addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE"), "metrics: {body}");
    assert!(
        body.contains("slo_requests_total{slo=\"net_request\",window=\"60s\"} "),
        "metrics: {body}"
    );

    let (status, _) = http(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);

    // A table publishes its epoch gauge when it shuts down, under its
    // bare name.
    server.shutdown();
    assert!(node.shutdown().iter().any(|(_, report)| report.is_some()));
    let (status, body) = http(&addr, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"serve_epoch\": "), "stats: {body}");
    admin.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graceful_shutdown_answers_in_flight_and_terminates() {
    let dir = tmpdir("drain");
    let node = quiet_node(&dir);
    seed_lpm(&node);
    let server =
        NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = NetClient::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One request in flight when shutdown begins.
    let keys: Vec<PackedWord> = (0..64u64)
        .map(|v| PackedWord::pack(&prefix_word(v, 8, 8)))
        .collect();
    let id = client.send_lookup(0, &keys).unwrap();
    client.flush().unwrap();
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown hung on a live connection"
    );
    // The in-flight request was either answered before the reader saw the
    // flag (Ok) or the connection closed cleanly — never a hang or a torn
    // frame.
    match client.recv_response() {
        Ok(resp) => {
            assert_eq!(resp.request_id, id);
            assert!(matches!(resp.status, Status::Ok | Status::ShuttingDown));
        }
        Err(NetError::Wire(_) | NetError::Io(_)) => {} // clean close
        Err(other) => panic!("unexpected: {other}"),
    }
    node.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
