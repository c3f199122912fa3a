//! The serving side: a real node behind a real loopback server, one
//! connection, one shard, one worker — and the loops that drive it.
//!
//! `NetClient` → loopback TCP → `NetServer`/`TcamNode` → `tcam-serve`
//! worker → `tcam-arch` kernel. Every loop here is closed and driven from
//! one generator thread (depth 1, or one deep pipeline): on the 2-core
//! reference box anything that keeps more threads runnable measures the
//! scheduler, not the program.

use crate::measure::{spanned, Quiet};
use crate::report::Record;
use crate::stats::{self, Samples};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcam_arch::packed::{PackedTcamArray, PackedWord};
use tcam_core::bit::TernaryBit;
use tcam_net::client::NetClient;
use tcam_net::node::{NodeConfig, TcamNode};
use tcam_net::server::{NetServer, ServerConfig};
use tcam_net::wire::{self, Status};
use tcam_serve::service::{SearchBatch, ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::workload::Workload;
use tcam_update::store::RuleChange;

/// Windows a saturation phase is cut into (the rate is their upper quartile).
pub const WINDOWS: usize = 10;

/// Cold set-ups per timed run (`setup_s` is their lower quartile).
const SETUP_REPS: usize = 5;

/// Every this-many-th frame of a saturation phase has all its keys checked.
const VERIFY_EVERY: u64 = 16;

/// Deepest pipeline any workload drives; the server's per-connection
/// window is set to match so the client never outruns admission.
const MAX_DEPTH: usize = 16;

/// A directory of this run's own under the executable's directory (inside
/// the checkout the benchmark was built in), removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn fresh(tag: &str) -> Self {
        let exe = std::env::current_exe().expect("own executable path");
        let root = exe.parent().expect("executable has a directory");
        let dir = root
            .join("stack_bench_data")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("data directory is creatable");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Filesystem type of the mount holding the directory (`/proc/mounts`).
    pub fn fs_type(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                self.0
                    .starts_with(mount)
                    .then(|| (mount.len(), fs.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".into(), |(_, fs)| fs)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes with its last child (fails while another remains).
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A rule table with its key pool and the oracle's answer for every key.
pub struct Table {
    pub width: usize,
    pub rules: Vec<(u32, Vec<TernaryBit>)>,
    pub reference: ShardedRuleSet,
    pub keys: Vec<PackedWord>,
    pub expect: Vec<Option<u32>>,
}

impl Table {
    /// Answers from the scalar reference scan — not the batch kernel the
    /// service runs, so the two are checked against each other.
    pub fn new(rules: Vec<(u32, Vec<TernaryBit>)>, keys: Vec<PackedWord>) -> Self {
        let reference = ShardedRuleSet::from_prioritized(&rules, 0).expect("rules build");
        let array = reference.shard(0);
        let expect = keys.iter().map(|k| array.first_match(k)).collect();
        Self {
            width: rules[0].1.len(),
            rules,
            reference,
            keys,
            expect,
        }
    }

    pub fn router_lpm(routes: usize, pool: usize, seed: u64) -> Self {
        let w = Workload::router_lpm(routes, pool, seed);
        let keys = w.keys.iter().map(|k| PackedWord::pack(k)).collect();
        let rules = w
            .words
            .into_iter()
            .enumerate()
            .map(|(i, word)| (i as u32, word))
            .collect();
        Self::new(rules, keys)
    }

    /// The batch that loads the whole table.
    pub fn load_batch(&self) -> Vec<RuleChange> {
        self.rules
            .iter()
            .map(|(priority, word)| RuleChange::Insert {
                priority: *priority,
                word: word.clone(),
            })
            .collect()
    }

    /// Frame `i` of `len` keys, wrapping around the pool.
    pub fn frame(&self, i: usize, len: usize) -> (&[PackedWord], &[Option<u32>]) {
        let at = (i * len) % (self.keys.len() - len + 1);
        (&self.keys[at..at + len], &self.expect[at..at + len])
    }

    /// Rows an early-exit scan visits per key, averaged over the pool.
    pub fn mean_hit_row(&self) -> f64 {
        let array = self.reference.shard(0);
        let rows = array.len();
        let row_of: std::collections::HashMap<u32, usize> = (0..rows)
            .filter_map(|i| array.row(i).map(|(id, _)| (id, i + 1)))
            .collect();
        let visited: usize = self
            .expect
            .iter()
            .map(|e| e.map_or(rows, |id| row_of[&id]))
            .sum();
        visited as f64 / self.expect.len() as f64
    }
}

/// Keys of `got` that differ from the oracle (a torn reply fails whole).
pub fn wrong_keys(got: &[Option<u32>], want: &[Option<u32>]) -> u64 {
    if got.len() != want.len() {
        return want.len() as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// Node + server + one client connection on a fresh data directory.
pub struct Stack {
    pub node: Arc<TcamNode>,
    server: NetServer,
    pub client: NetClient,
    pub dir: DataDir,
    /// Open + table load + server start + connect, milliseconds.
    pub bringup_ms: f64,
}

impl Stack {
    pub fn start(table: &Table, tag: &str) -> Self {
        let dir = DataDir::fresh(tag);
        let t0 = Instant::now();
        let node = Arc::new(TcamNode::open(dir.path(), NodeConfig::default()).expect("node opens"));
        node.apply(0, table.width, &table.load_batch())
            .expect("table loads");
        let config = ServerConfig {
            inflight_per_connection: MAX_DEPTH,
            ..ServerConfig::default()
        };
        let server =
            NetServer::start(Arc::clone(&node), "127.0.0.1:0", config).expect("server starts");
        let client = NetClient::connect(&server.local_addr().to_string()).expect("client connects");
        let bringup_ms = t0.elapsed().as_secs_f64() * 1e3;
        Self {
            node,
            server,
            client,
            dir,
            bringup_ms,
        }
    }

    pub fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.node.shutdown();
    }
}

/// One fully verified depth-1 pass over the whole key pool.
fn warm_up(stack: &mut Stack, table: &Table, frame: usize, rec: &mut Record) {
    for (keys, want) in table.keys.chunks(frame).zip(table.expect.chunks(frame)) {
        let bad = match stack.client.lookup(0, keys) {
            Ok((_, got)) => wrong_keys(&got, want),
            Err(_) => keys.len() as u64,
        };
        rec.count(keys.len() as u64, bad);
    }
}

/// Everything before the first timed window: generate rules and keys,
/// compute the oracle's answers, bring the node up on a fresh directory,
/// load the table, start the server, connect, and warm up.
fn set_up(spec: &LpmSpec, seed: u64, tag: &str, rec: &mut Record) -> (Table, Stack) {
    let table = Table::router_lpm(spec.routes, spec.pool, seed);
    let mut stack = Stack::start(&table, tag);
    warm_up(&mut stack, &table, spec.frame, rec);
    (table, stack)
}

/// Runs `set_up` cold `SETUP_REPS` times and keeps the last stack.
pub fn timed_set_ups<T>(
    rec: &mut Record,
    mut once: impl FnMut(usize, &mut Record) -> (T, Stack),
) -> (T, Stack) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, stack)) = kept.take() {
            Stack::stop(stack);
        }
        let t0 = Instant::now();
        kept = Some(once(rep, rec));
        times.push(t0.elapsed().as_secs_f64());
    }
    rec.set("setup_s", stats::lower_quartile(&times));
    rec.note_windows("setup_s_reps", &times);
    kept.expect("at least one set-up")
}

/// One saturation window: bursts of `depth` frames on the one connection —
/// send them all, take their replies, time the burst — until `window` has
/// passed. Returns verified keys answered per second of the window, and
/// pushes every burst's time onto `bursts`.
///
/// A burst begins and ends with an empty pipeline, so its time is that of
/// exactly its own frames. (Timing stretches of a continuously full
/// pipeline instead read the replies the client found already buffered:
/// stretches of 4–16 frames gave 1.27 M keys/s on a table that scans 0.8 M.)
fn saturate(
    stack: &mut Stack,
    table: &Table,
    spec: &LpmSpec,
    cursor: &mut usize,
    window: Duration,
    rec: &mut Record,
    bursts: &mut Samples,
) -> f64 {
    let mut outstanding: VecDeque<(u32, usize)> = VecDeque::with_capacity(spec.depth);
    let mut answered = 0u64;
    let mut received = 0u64;
    let t0 = Instant::now();
    let deadline = t0 + window;
    while Instant::now() < deadline {
        let began = Instant::now();
        for _ in 0..spec.depth {
            let (keys, _) = table.frame(*cursor, spec.frame);
            let id = stack.client.send_lookup(0, keys).expect("send");
            outstanding.push_back((id, *cursor));
            *cursor += 1;
        }
        while let Some((id, at)) = outstanding.pop_front() {
            let resp = stack.client.recv_response().expect("recv");
            let (_, want) = table.frame(at, spec.frame);
            received += 1;
            let in_order = resp.request_id == id && resp.status == Status::Ok;
            let bad = if !in_order || resp.results.len() != want.len() {
                want.len() as u64
            } else if received.is_multiple_of(VERIFY_EVERY) {
                wrong_keys(&resp.results, want)
            } else {
                0
            };
            rec.count(want.len() as u64, bad);
            answered += want.len() as u64 - bad;
        }
        bursts.push(began.elapsed().as_nanos() as u64);
    }
    answered as f64 / t0.elapsed().as_secs_f64()
}

/// A depth-1 closed loop for `duration`: one request outstanding, each
/// timed from send to decoded reply, every key checked.
pub fn depth_one(
    stack: &mut Stack,
    table: &Table,
    frame: usize,
    cursor: &mut usize,
    duration: Duration,
    rec: &mut Record,
) -> Samples {
    let mut rtt = Samples::default();
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let (keys, want) = table.frame(*cursor, frame);
        *cursor += 1;
        let t0 = Instant::now();
        let reply = stack.client.lookup(0, keys);
        rtt.push(t0.elapsed().as_nanos() as u64);
        let bad = reply.map_or(keys.len() as u64, |(_, got)| wrong_keys(&got, want));
        rec.count(keys.len() as u64, bad);
    }
    rtt
}

/// A longest-prefix-match workload over a static table.
pub struct LpmSpec {
    pub name: &'static str,
    pub routes: usize,
    pub pool: usize,
    pub frame: usize,
    /// Frames in one burst of the saturation phase.
    pub depth: usize,
    /// Share of the measured time the saturation phase takes; the rest is
    /// the depth-1 phase.
    pub saturation_share: f64,
}

/// 512-key frames on 4096 routes: the row scan is most of a request.
pub const LPM_SCAN_4K: LpmSpec = LpmSpec {
    name: "lpm_scan_4k",
    routes: 4096,
    pool: 262_144,
    frame: 512,
    depth: 4,
    saturation_share: 0.7,
};

/// 64-key frames on 64 routes: framing, codec, admission, queue hand-off
/// and thread wake-ups are most of a request.
pub const LPM_FRAMES_64: LpmSpec = LpmSpec {
    name: "lpm_frames_64",
    routes: 64,
    pool: 1_048_576,
    frame: 64,
    depth: 16,
    saturation_share: 0.5,
};

/// The timed run of an LPM workload: phase A drives bursts of `depth`
/// frames down the one connection, phase B runs depth 1. Both gated
/// numbers are undisturbed ones (`Samples::undisturbed_us`):
/// `throughput_per_s` is a burst's keys over the undisturbed time of a
/// burst (some 47 000 bursts of 0.2 ms on `lpm_frames_64`, 4 200 of 2.5 ms
/// on `lpm_scan_4k`), `latency_us` the undisturbed round trip of phase B.
/// The upper quartile of phase A's ten windows, which the first version
/// gated, spread by 4 % over ten runs on a quiet box and by 19–35 % on a
/// busy one, where the bursts spread by 3.5–4.8 %.
pub fn run_timed(spec: &LpmSpec, seed: u64, seconds: f64, rec: &mut Record) {
    let (table, mut stack) = timed_set_ups(rec, |rep, rec| {
        set_up(spec, seed, &format!("setup{rep}"), rec)
    });
    rec.note_str("data_dir_fs", &stack.dir.fs_type());

    let mut quiet = Quiet::new();
    let mut cursor = 0usize;
    let window = Duration::from_secs_f64(seconds * spec.saturation_share / WINDOWS as f64);
    let mut bursts = Samples::default();
    let rates = quiet.windows(WINDOWS, || {
        saturate(
            &mut stack,
            &table,
            spec,
            &mut cursor,
            window,
            rec,
            &mut bursts,
        )
    });
    let burst_keys = (spec.depth * spec.frame) as f64;
    rec.set(
        "throughput_per_s",
        burst_keys / (bursts.undisturbed_us() / 1e6),
    );
    rec.note("throughput_bursts", bursts.count() as f64);
    rec.note("throughput_window_q3_per_s", stats::upper_quartile(&rates));
    rec.note_windows("throughput_windows", &rates);

    let depth1 = Duration::from_secs_f64(seconds * (1.0 - spec.saturation_share));
    let mut rtt = depth_one(&mut stack, &table, spec.frame, &mut cursor, depth1, rec);
    rec.set("latency_us", rtt.undisturbed_us());
    rec.note("latency_p50_us", rtt.quantile_us(0.5));
    rec.note("latency_p99_us", rtt.quantile_us(0.99));
    rec.note("latency_samples", rtt.count() as f64);
    quiet.note(rec);
    stack.stop();
}

/// Frames per ladder rung: 2 000 at the reference run length, fewer on a
/// short smoke run.
pub fn rung_frames(seconds: f64) -> usize {
    ((100.0 * seconds) as usize).clamp(100, 2000)
}

/// One rung of the ladder: `frames` depth-1 calls into one layer's public
/// entry point on the workload's own keys, each inside a harness span and
/// timed; answers are checked outside the timed call.
pub fn rung(
    table: &Table,
    span: &'static str,
    frames: usize,
    frame: usize,
    rec: &mut Record,
    mut call: impl FnMut(&[PackedWord], &[Option<u32>], &mut Vec<Option<u32>>),
) -> Samples {
    let mut samples = Samples::with_capacity(frames);
    let mut out = Vec::with_capacity(frame);
    for i in 0..frames {
        let (keys, want) = table.frame(i, frame);
        let ((), ns) = spanned(span, || call(keys, want, &mut out));
        samples.push(ns);
        rec.count(keys.len() as u64, wrong_keys(&out, want));
    }
    samples
}

/// The kernel → serve → node → codec → wire ladder on `table`, every rung
/// on the same frames. Leaves the node's worker as the only serving thread
/// while the wire rung runs, so the worker's phase split can be read after.
pub fn serving_ladder(
    table: &Table,
    stack: &mut Stack,
    frame: usize,
    frames: usize,
    rec: &mut Record,
) {
    let array: &PackedTcamArray = table.reference.shard(0);
    rec.set("arch_mean_hit_row", table.mean_hit_row());
    rec.set("net_bringup_ms", stack.bringup_ms);

    let scalar = rung(
        table,
        "bench_arch_scalar",
        frames,
        frame,
        rec,
        |keys, _, out| {
            out.clear();
            out.extend(keys.iter().map(|k| array.first_match(k)));
        },
    )
    .lower_quartile_us();
    let kernel = rung(
        table,
        "bench_arch_kernel",
        frames,
        frame,
        rec,
        |keys, _, out| {
            array.first_match_batch_into(keys, out);
        },
    )
    .lower_quartile_us();

    let service = TcamService::start(table.reference.clone(), &ServiceConfig::default())
        .expect("service starts");
    let serve = rung(
        table,
        "bench_serve_submit",
        frames,
        frame,
        rec,
        |keys, _, out| {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let batch = SearchBatch {
                keys: keys.to_vec(),
                submitted: Instant::now(),
                reply: Some(tx),
                trace: None,
            };
            service.submit(0, batch).expect("service is live");
            *out = rx.recv().expect("worker replies").results;
        },
    )
    .lower_quartile_us();
    drop(service);

    let node = Arc::clone(&stack.node);
    let node_lookup = rung(
        table,
        "bench_net_node_lookup",
        frames,
        frame,
        rec,
        |keys, _, out| {
            *out = node.lookup(0, keys).map(|(_, r)| r).unwrap_or_default();
        },
    )
    .lower_quartile_us();

    let (mut request, mut response) = (Vec::new(), Vec::new());
    let codec = rung(
        table,
        "bench_net_codec",
        frames,
        frame,
        rec,
        |keys, want, out| {
            wire::encode_lookup_request(&mut request, 0, 1, keys, wire::needs_wide_limbs(keys));
            let decoded = wire::decode_lookup_request(&request[4..]).expect("request decodes");
            wire::encode_lookup_response(&mut response, Status::Ok, decoded.request_id, 1, want);
            *out = wire::decode_lookup_response(&response[4..])
                .expect("response decodes")
                .results;
        },
    )
    .lower_quartile_us();

    // The wire rung alternates plain and span-wrapped frames, so the
    // harness's own tracing overhead is measured against the same minutes.
    let before = tcam_obs::snapshot();
    let wall = Instant::now();
    let (mut plain, mut traced) = (
        Samples::with_capacity(frames),
        Samples::with_capacity(frames),
    );
    for i in 0..2 * frames {
        let (keys, want) = table.frame(i, frame);
        let (reply, ns) = if i % 2 == 0 {
            let t0 = Instant::now();
            (stack.client.lookup(0, keys), t0.elapsed().as_nanos() as u64)
        } else {
            spanned("bench_net_wire", || stack.client.lookup(0, keys))
        };
        if i % 2 == 0 { &mut plain } else { &mut traced }.push(ns);
        rec.count(
            keys.len() as u64,
            reply.map_or(keys.len() as u64, |(_, got)| wrong_keys(&got, want)),
        );
    }
    let wall_ns = wall.elapsed().as_nanos() as f64;
    // Workers flush their phase totals every 64 batches, so the split is
    // exact to within 64 of the rung's frames.
    let after = tcam_obs::snapshot();
    let phase_pct = |name: &str| {
        100.0 * (after.phase(name).ns.saturating_sub(before.phase(name).ns)) as f64 / wall_ns
    };
    let wire_plain = plain.lower_quartile_us();
    let wire = traced.lower_quartile_us();

    rec.set("arch_scalar_us_per_frame", scalar);
    rec.set("arch_kernel_us_per_frame", kernel);
    rec.set("serve_submit_us_per_frame", serve);
    rec.set("net_node_lookup_us_per_frame", node_lookup);
    rec.set("net_codec_us_per_frame", codec);
    rec.set("net_wire_us_per_frame", wire);
    rec.set("net_wire_p99_us", traced.quantile_us(0.99));
    rec.set("serve_queue_cost_us", serve - kernel);
    rec.set("net_node_cost_us", node_lookup - serve);
    rec.set("net_wire_cost_us", wire - node_lookup);
    rec.set("arch_kernel_share_pct", 100.0 * kernel / wire);
    rec.set("serve_match_busy_pct", phase_pct("serve_match"));
    rec.set("serve_idle_pct", phase_pct("serve_idle"));
    rec.set(
        "net_shed_requests",
        after.counter("net_shed_requests") as f64,
    );
    rec.set(
        "obs_traced_overhead_pct",
        100.0 * (wire - wire_plain) / wire_plain,
    );
    rec.note("ladder_frames", frames as f64);
}

/// What an open-loop pass measured.
pub struct Paced {
    /// Reply time minus the time the request was **due**, so a stall in
    /// the generator or the server lands in the requests it delayed.
    pub latency: Samples,
    /// The latest the generator ever sent a request after it was due.
    pub late_max_ns: u64,
    pub failed_keys: u64,
}

/// Open loop: request `i` is due at `start + i·interval` whether or not
/// earlier ones were answered. The caller's thread spins to the schedule
/// and calls `send(i)`; a second thread calls `recv(i)` (blocking) for the
/// replies in order and returns how many keys of the reply were wrong.
pub fn run_paced(
    requests: usize,
    interval: Duration,
    mut send: impl FnMut(usize),
    mut recv: impl FnMut(usize) -> u64 + Send,
) -> Paced {
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + interval.mul_f64(i as f64);
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut latency = Samples::with_capacity(requests);
            let mut failed = 0u64;
            for i in 0..requests {
                failed += recv(i);
                latency.push(Instant::now().saturating_duration_since(due(i)).as_nanos() as u64);
            }
            (latency, failed)
        });
        let mut late_max_ns = 0u64;
        for i in 0..requests {
            let at = due(i);
            let now = loop {
                let now = Instant::now();
                if now >= at {
                    break now;
                }
                // Polite spin: on the one pinned CPU the server's threads
                // must be able to run while the generator waits.
                std::thread::yield_now();
            };
            late_max_ns = late_max_ns.max((now - at).as_nanos() as u64);
            send(i);
        }
        let (latency, failed_keys) = receiver.join().expect("receiver thread");
        Paced {
            latency,
            late_max_ns,
            failed_keys,
        }
    })
}

/// Seconds each offered rate is held at the reference run length.
const PACED_SECONDS_AT_REFERENCE: f64 = 1.5;

/// Latency against offered load on a second connection: 1, 2, 3 and 4
/// million lookups per second in `frame`-key requests.
pub fn offered_load_curve(
    table: &Table,
    stack: &Stack,
    frame: usize,
    seconds: f64,
    rec: &mut Record,
) {
    const P50: [&str; 4] = [
        "net_paced_p50_us_at_1mlps",
        "net_paced_p50_us_at_2mlps",
        "net_paced_p50_us_at_3mlps",
        "net_paced_p50_us_at_4mlps",
    ];
    const P99: [&str; 4] = [
        "net_paced_p99_us_at_1mlps",
        "net_paced_p99_us_at_2mlps",
        "net_paced_p99_us_at_3mlps",
        "net_paced_p99_us_at_4mlps",
    ];
    let addr = stack.server.local_addr();
    let mut late_max_ns = 0u64;
    for (step, (p50, p99)) in P50.into_iter().zip(P99).enumerate() {
        let frames_per_s = (step + 1) as f64 * 1e6 / frame as f64;
        let hold = PACED_SECONDS_AT_REFERENCE * seconds / crate::REFERENCE_SECONDS;
        let requests = (frames_per_s * hold) as usize;
        let interval = Duration::from_secs_f64(1.0 / frames_per_s);
        let mut tx = std::net::TcpStream::connect(addr).expect("paced connection");
        tx.set_nodelay(true).expect("nodelay");
        let mut rx = tx.try_clone().expect("second handle on the connection");
        let mut buf = Vec::new();
        let mut paced = run_paced(
            requests,
            interval,
            |i| {
                let (keys, _) = table.frame(i, frame);
                wire::encode_lookup_request(&mut buf, 0, i as u32, keys, false);
                wire::write_frame(&mut tx, &buf).expect("paced send");
            },
            |i| {
                let (_, want) = table.frame(i, frame);
                let reply = wire::read_frame(&mut rx)
                    .ok()
                    .flatten()
                    .and_then(|payload| wire::decode_lookup_response(&payload).ok());
                match reply {
                    Some(r) if r.status == Status::Ok && r.request_id == i as u32 => {
                        wrong_keys(&r.results, want)
                    }
                    _ => want.len() as u64,
                }
            },
        );
        rec.count((requests * frame) as u64, paced.failed_keys);
        rec.set(p50, paced.latency.quantile_us(0.5));
        rec.set(p99, paced.latency.quantile_us(0.99));
        late_max_ns = late_max_ns.max(paced.late_max_ns);
    }
    rec.set("net_paced_late_max_us", late_max_ns as f64 / 1e3);
}

/// The traced run of an LPM workload: the serving ladder, and on the
/// framing workload the offered-load curve.
pub fn run_traced(spec: &LpmSpec, seed: u64, seconds: f64, rec: &mut Record) {
    let (table, mut stack) = set_up(spec, seed, "traced", rec);
    rec.note_str("data_dir_fs", &stack.dir.fs_type());
    serving_ladder(&table, &mut stack, spec.frame, rung_frames(seconds), rec);
    if spec.name == LPM_FRAMES_64.name {
        offered_load_curve(&table, &stack, spec.frame, seconds, rec);
    }
    crate::report::note_harness_phases(rec);
    stack.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A 5 ms stall in the generator must show in the latency of the
    /// requests it delayed — they are timed from when they were due — and
    /// in the generator's own lateness.
    #[test]
    fn open_loop_times_from_due_time() {
        let (tx, rx) = mpsc::channel::<usize>();
        let interval = Duration::from_micros(100);
        let mut paced = run_paced(
            200,
            interval,
            |i| {
                if i == 100 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                tx.send(i).expect("receiver lives");
            },
            move |i| u64::from(rx.recv().expect("sender lives") != i),
        );
        assert_eq!(paced.failed_keys, 0);
        assert_eq!(paced.latency.count(), 200);
        assert!(
            paced.late_max_ns >= 4_500_000,
            "late_max {} ns",
            paced.late_max_ns
        );
        // Request 100 itself was sent on time and then stalled 5 ms before
        // reaching the wire; the ~49 requests due during the stall were
        // each late by what remained of it. A closed loop would have
        // reported one slow request; the open loop reports all of them.
        assert!(paced.latency.quantile_us(0.99) > 4000.0);
        assert!(paced.latency.quantile_us(0.85) > 1000.0);
        // …and not all of them: requests due before the stall were on time
        // (the fastest one, so a busy test machine cannot fail this).
        assert!(paced.latency.quantile_us(0.0) < 1000.0);
    }

    #[test]
    fn a_flipped_answer_is_counted() {
        let want = [Some(3), None, Some(7)];
        assert_eq!(wrong_keys(&want, &want), 0);
        assert_eq!(wrong_keys(&[Some(3), Some(1), Some(7)], &want), 1);
        assert_eq!(wrong_keys(&[Some(3)], &want), 3);
    }

    #[test]
    fn frames_wrap_inside_the_pool_and_answers_follow_the_oracle() {
        let table = Table::router_lpm(64, 1000, 9);
        let (keys, want) = table.frame(123_456, 64);
        assert_eq!(keys.len(), 64);
        let array = table.reference.shard(0);
        assert_eq!(array.first_match_batch(keys), want);
        let mean = table.mean_hit_row();
        assert!((1.0..=65.0).contains(&mean), "{mean}");
    }
}
