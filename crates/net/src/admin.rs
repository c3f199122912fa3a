//! The HTTP/1.1 admin plane: rule batches, stats, metrics, snapshots.
//!
//! Deliberately minimal — one request per connection, handled serially
//! on the accept thread (admin traffic is human/control-plane rate; the
//! lookup hot path lives in [`crate::server`] on its own port). Routes:
//!
//! | Method & path        | Body / response                               |
//! |----------------------|-----------------------------------------------|
//! | `GET /healthz`       | `ok`                                          |
//! | `GET /stats`         | flat JSON of the whole metrics registry       |
//! | `GET /metrics`       | Prometheus text exposition                    |
//! | `GET /namespaces`    | `[{ns, width, version, rules}]`               |
//! | `POST /rules?ns=N`   | `{"width": W, "changes": [{"op": "insert"\|"remove"\|"modify", "priority": P, "word": "10XX…"}]}` → `{"version": V}` |
//! | `POST /snapshot`     | forces snapshot + WAL compaction → `{"wal_bytes": 0}` |
//! | `GET /slo`           | `{"slo": […], "exemplars": […]}` — rolling SLO windows + latency-bucket trace exemplars |
//! | `GET /trace`         | recent sampled trace summaries; `?id=<16-hex>` → one full span tree or 404 |
//! | `GET /flightrec`     | last flight-recorder dump (404 before the first) |
//! | `POST /flightrec`    | forces a dump with cause `admin_request` and returns it |
//!
//! `/stats` additionally splices in the SLO engine's flat fields and
//! `/metrics` appends its Prometheus families, so existing scrapers see
//! the new telemetry without a new route.
//!
//! Rule words use the same `0`/`1`/`X` text form as everywhere else in
//! the workspace. Errors come back as `{"error": "…"}` with 400/404/503.

use crate::error::Result;
use crate::json::Json;
use crate::node::TcamNode;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tcam_core::bit::parse_ternary;
use tcam_update::store::RuleChange;

/// Largest accepted request body (a rule batch of ~100k changes).
const MAX_BODY_BYTES: usize = 16 << 20;

/// The running admin listener.
pub struct AdminServer {
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` and starts serving admin requests against `node`.
    ///
    /// # Errors
    ///
    /// Bind/listen I/O errors.
    pub fn start(node: Arc<TcamNode>, addr: &str) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("tcam-net-admin".into())
            .spawn(move || serve_loop(&listener, &node, &flag))
            .expect("spawn admin loop");
        Ok(Self {
            shutdown,
            local_addr,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the listener and joins its thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn serve_loop(listener: &TcpListener, node: &Arc<TcamNode>, shutdown: &AtomicBool) {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                handle_connection(stream, node);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A parsed-enough HTTP request: method, path, query, body.
struct HttpRequest {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 request (headers + Content-Length body).
fn read_request(stream: &mut TcpStream) -> Option<HttpRequest> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 << 10 {
            return None; // header section unreasonably large
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    body.truncate(content_length);
    Some(HttpRequest {
        method,
        path,
        query,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_json(detail: &str) -> String {
    format!("{{\"error\": \"{}\"}}", tcam_obs::json_escape(detail))
}

fn handle_connection(mut stream: TcpStream, node: &Arc<TcamNode>) {
    let Some(req) = read_request(&mut stream) else {
        respond(
            &mut stream,
            400,
            "application/json",
            &error_json("unreadable request"),
        );
        return;
    };
    tcam_obs::counter_add("admin_requests", 1);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(&mut stream, 200, "text/plain", "ok\n"),
        ("GET", "/stats") => {
            let snap = tcam_obs::snapshot();
            let mut body = tcam_obs::export::flat_json(&snap);
            // Splice the SLO fields into the registry's flat object.
            body.pop();
            if body.len() > 1 {
                body.push_str(", ");
            }
            body.push_str(&tcam_obs::slo_flat_fragment());
            body.push('}');
            respond(&mut stream, 200, "application/json", &body);
        }
        ("GET", "/metrics") => {
            let snap = tcam_obs::snapshot();
            let mut body = tcam_obs::export::prometheus_text(&snap);
            tcam_obs::slo_prometheus(&mut body);
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
        }
        ("GET", "/slo") => {
            let body = format!(
                "{{\"slo\": {}, \"exemplars\": {}}}",
                tcam_obs::slo_json_array(),
                tcam_obs::trace_exemplars_json()
            );
            respond(&mut stream, 200, "application/json", &body);
        }
        ("GET", "/trace") => match trace_response(&req) {
            Ok(body) => respond(&mut stream, 200, "application/json", &body),
            Err((status, detail)) => {
                respond(
                    &mut stream,
                    status,
                    "application/json",
                    &error_json(&detail),
                );
            }
        },
        ("GET", "/flightrec") => match tcam_obs::flight_last_dump() {
            Some((_cause, json)) => respond(&mut stream, 200, "application/json", &json),
            None => respond(
                &mut stream,
                404,
                "application/json",
                &error_json("no flight dump taken yet"),
            ),
        },
        ("POST", "/flightrec") => {
            let dump = tcam_obs::flight_dump("admin_request", "dump forced via POST /flightrec");
            respond(&mut stream, 200, "application/json", &dump);
        }
        ("GET", "/namespaces") => {
            let mut body = String::from("[");
            for (i, (ns, width, version, rules)) in node.namespace_summaries().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(
                    body,
                    "{{\"ns\": {ns}, \"width\": {width}, \"version\": {version}, \"rules\": {rules}}}"
                );
            }
            body.push(']');
            respond(&mut stream, 200, "application/json", &body);
        }
        ("POST", "/rules") => match apply_rules(node, &req) {
            Ok(version) => respond(
                &mut stream,
                200,
                "application/json",
                &format!("{{\"version\": {version}}}"),
            ),
            Err((status, detail)) => {
                respond(
                    &mut stream,
                    status,
                    "application/json",
                    &error_json(&detail),
                );
            }
        },
        ("POST", "/snapshot") => match node.snapshot() {
            Ok(()) => respond(&mut stream, 200, "application/json", "{\"wal_bytes\": 0}"),
            Err(e) => respond(
                &mut stream,
                503,
                "application/json",
                &error_json(&e.to_string()),
            ),
        },
        _ => respond(
            &mut stream,
            404,
            "application/json",
            &error_json(&format!("no route {} {}", req.method, req.path)),
        ),
    }
}

/// `GET /trace`: with `?id=<16-hex>` one full span tree (404 when the
/// ring has evicted or never held it), without a query the most recent
/// sampled traces as one-line summaries.
fn trace_response(req: &HttpRequest) -> std::result::Result<String, (u16, String)> {
    if let Some(id) = req.query.split('&').find_map(|kv| kv.strip_prefix("id=")) {
        let id = u64::from_str_radix(id, 16)
            .map_err(|_| (400, "id= must be a hex trace id".to_string()))?;
        return match tcam_obs::trace_lookup(id) {
            Some(record) => Ok(record.to_json()),
            None => Err((404, format!("no recent trace {id:016x}"))),
        };
    }
    let mut body = String::from("[");
    for (i, r) in tcam_obs::trace_recent(32).iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"trace_id\":\"{:016x}\",\"status\":\"{}\",\"total_ns\":{},\"cover_pct\":{:.1}}}",
            r.trace_id,
            r.status,
            r.total_ns,
            r.cover_pct()
        );
    }
    body.push(']');
    Ok(body)
}

/// Parses `?ns=N` + the JSON body into a rule batch and applies it.
fn apply_rules(node: &Arc<TcamNode>, req: &HttpRequest) -> std::result::Result<u64, (u16, String)> {
    let ns = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("ns="))
        .ok_or((400, "missing ns= query parameter".to_string()))?
        .parse::<u16>()
        .map_err(|_| (400, "ns= must be a u16".to_string()))?;
    let body =
        std::str::from_utf8(&req.body).map_err(|_| (400, "body is not utf-8".to_string()))?;
    let doc = Json::parse(body).map_err(|e| (400, format!("bad json: {e}")))?;
    let width = doc
        .get("width")
        .and_then(Json::as_u64)
        .ok_or((400, "missing integer field \"width\"".to_string()))?;
    let width = usize::try_from(width).map_err(|_| (400, "width out of range".to_string()))?;
    let changes = doc
        .get("changes")
        .and_then(Json::as_array)
        .ok_or((400, "missing array field \"changes\"".to_string()))?;
    let mut batch = Vec::with_capacity(changes.len());
    for (i, change) in changes.iter().enumerate() {
        let op = change
            .get("op")
            .and_then(Json::as_str)
            .ok_or((400, format!("change {i}: missing \"op\"")))?;
        let priority = change
            .get("priority")
            .and_then(Json::as_u64)
            .and_then(|p| u32::try_from(p).ok())
            .ok_or((400, format!("change {i}: missing u32 \"priority\"")))?;
        let word = || -> std::result::Result<_, (u16, String)> {
            let text = change
                .get("word")
                .and_then(Json::as_str)
                .ok_or((400, format!("change {i}: missing \"word\"")))?;
            parse_ternary(text).ok_or((400, format!("change {i}: word is not a 0/1/X string")))
        };
        batch.push(match op {
            "insert" => RuleChange::Insert {
                priority,
                word: word()?,
            },
            "remove" => RuleChange::Remove { priority },
            "modify" => RuleChange::Modify {
                priority,
                word: word()?,
            },
            other => return Err((400, format!("change {i}: unknown op {other:?}"))),
        });
    }
    node.apply(ns, width, &batch)
        .map_err(|e| (400, e.to_string()))
}
