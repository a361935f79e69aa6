//! The sweep server: spec in, ordered NDJSON cell stream out.
//!
//! Each connection is one request. A sweep request is canonicalized and
//! hashed ([`SweepSpec::spec_hash`]); the hash keys both the
//! content-addressed cell cache (via the engine) and the in-flight
//! table used for request coalescing — a request identical to one
//! already running attaches to the leader's byte stream instead of
//! spawning a second sweep.
//!
//! The response body is deterministic: cells are emitted in global
//! index order (out-of-order completions buffer until their turn), and
//! no cache/coalescing/timing facts ever appear in the body — repeated
//! identical requests produce byte-identical bodies whether they were
//! computed, coalesced, or served from cache. Evidence of *how* a
//! request was answered lives in the metrics endpoint only.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use oic_engine::{
    run_batch_opts, to_hex, CacheStats, CellCache, CellReport, EngineError, JsonValue,
    SweepOptions, SweepSpec,
};
use oic_obs::Stopwatch;
use oic_scenarios::ScenarioRegistry;

use crate::http::{read_request, write_response, write_response_ext, write_stream_head, Request};

/// Resilience knobs for [`SweepServer`]; [`Default`] matches the CLI
/// defaults (`serve listen`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-connection socket read deadline (`None` disables it). A
    /// client that opens a connection and never finishes its request
    /// gets unstuck here instead of pinning a handler thread forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write deadline (`None` disables it). A
    /// stalled reader cannot wedge a leader: stream writes already
    /// swallow errors (the sweep finishes for the cache and any
    /// coalesced followers), the deadline just bounds each write.
    pub write_timeout: Option<Duration>,
    /// Maximum *distinct* sweeps computing at once. A request that
    /// would become leader number `max_inflight + 1` is refused with
    /// `503` + `Retry-After` instead of piling more work onto the
    /// engine; followers always attach (coalescing adds no load).
    pub max_inflight: usize,
    /// Enables the `POST /v1/shutdown` route / `shutdown` line command
    /// (graceful drain). Off by default: a remote peer must not be able
    /// to stop the service unless the operator opted in.
    pub allow_shutdown: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_inflight: 32,
            allow_shutdown: false,
        }
    }
}

/// One in-flight sweep's shared byte stream: the leader appends, the
/// coalesced followers replay.
struct Inflight {
    state: Mutex<InflightBody>,
    grew: Condvar,
}

struct InflightBody {
    bytes: Vec<u8>,
    done: bool,
}

impl Inflight {
    fn new() -> Self {
        Self {
            state: Mutex::new(InflightBody {
                bytes: Vec::new(),
                done: false,
            }),
            grew: Condvar::new(),
        }
    }

    fn append(&self, chunk: &[u8]) {
        let mut body = self.state.lock().expect("inflight lock");
        body.bytes.extend_from_slice(chunk);
        self.grew.notify_all();
    }

    fn finish(&self) {
        let mut body = self.state.lock().expect("inflight lock");
        body.done = true;
        self.grew.notify_all();
    }

    /// Streams the body to `sink` as it grows; returns once the leader
    /// marked the stream done and every byte was forwarded.
    fn replay(&self, sink: &mut dyn Write) -> std::io::Result<()> {
        let mut sent = 0usize;
        loop {
            let chunk = {
                let mut body = self.state.lock().expect("inflight lock");
                while body.bytes.len() == sent && !body.done {
                    body = self.grew.wait(body).expect("inflight wait");
                }
                if body.bytes.len() == sent && body.done {
                    return sink.flush();
                }
                body.bytes[sent..].to_vec()
            };
            sink.write_all(&chunk)?;
            sent += chunk.len();
        }
    }
}

/// The sweep service: registry + cell cache + coalescing table.
///
/// Construction is cheap and builds nothing. The server's registry
/// builds each scenario the first time a request names it and keeps the
/// instance for the server's lifetime, so warm requests and repeat
/// sweeps build nothing; cell results are amortized by the cache. One
/// server value is shared by every connection thread.
pub struct SweepServer {
    registry: ScenarioRegistry,
    cache: CellCache,
    config: ServeConfig,
    inflight: Mutex<HashMap<[u8; 32], Arc<Inflight>>>,
    requests: AtomicU64,
    coalesced: AtomicU64,
    rejected_busy: AtomicU64,
    shutdown: AtomicBool,
    active: Mutex<usize>,
    idle: Condvar,
}

impl std::fmt::Debug for SweepServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepServer")
            .field("scenarios", &self.registry.len())
            .field("cache", &self.cache)
            .finish()
    }
}

impl SweepServer {
    /// A server over `registry`, answering from (and filling) `cache`,
    /// with default [`ServeConfig`].
    pub fn new(registry: ScenarioRegistry, cache: CellCache) -> Arc<Self> {
        Self::with_config(registry, cache, ServeConfig::default())
    }

    /// A server with explicit resilience knobs.
    pub fn with_config(
        registry: ScenarioRegistry,
        cache: CellCache,
        config: ServeConfig,
    ) -> Arc<Self> {
        Arc::new(Self {
            registry,
            cache,
            config,
            inflight: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
        })
    }

    /// Sweep requests handled so far (leaders and followers).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that attached to an identical in-flight sweep.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Sweep requests refused with 503 because the in-flight table was
    /// full.
    pub fn rejected_busy_count(&self) -> u64 {
        self.rejected_busy.load(Ordering::Relaxed)
    }

    /// True once a graceful drain began: the accept loop is winding
    /// down and no new connections will be handled.
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Starts a graceful drain: [`serve`](Self::serve) stops accepting
    /// at its next wakeup and then waits for in-flight connections.
    /// Callers that hold a live connection should poke the listener
    /// afterwards (see the shutdown route) so `accept` actually wakes.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Traffic counters of the server's cell cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Accepts connections until a graceful drain is requested, one
    /// handler thread per connection; then waits for every in-flight
    /// connection to finish before returning (no request is cut off
    /// mid-stream).
    pub fn serve(self: &Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.is_draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            *self.active.lock().expect("active lock") += 1;
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                server.handle(stream);
                let mut active = server.active.lock().expect("active lock");
                *active -= 1;
                if *active == 0 {
                    server.idle.notify_all();
                }
            });
        }
        let mut active = self.active.lock().expect("active lock");
        while *active > 0 {
            active = self.idle.wait(active).expect("active wait");
        }
    }

    /// Flips the drain flag and pokes the accept loop awake with a
    /// throwaway self-connection (`accept` blocks until *some*
    /// connection arrives; the poke is dropped unhandled).
    fn trigger_shutdown(&self, stream: &TcpStream) {
        self.begin_shutdown();
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Handles one connection (one request, both dialects).
    pub fn handle(self: &Arc<Self>, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(self.config.read_timeout);
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let request = match read_request(&mut stream) {
            Ok((request, _reader)) => request,
            Err(message) => {
                let _ = write_response(
                    &mut stream,
                    400,
                    "Bad Request",
                    "application/json",
                    error_body(&message).as_bytes(),
                );
                return;
            }
        };
        // Request latency runs from here, the request fully read.
        let read = Stopwatch::start();
        match request {
            Request::Http { method, path, body } => match (method.as_str(), path.as_str()) {
                ("GET", "/healthz") => {
                    let _ = write_response(&mut stream, 200, "OK", "text/plain", b"ok\n");
                }
                ("GET", "/v1/metrics") => {
                    let _ = write_response(
                        &mut stream,
                        200,
                        "OK",
                        "application/json",
                        self.metrics_body().as_bytes(),
                    );
                }
                ("POST", "/v1/sweep") => self.sweep(&mut stream, &body, true, read),
                ("POST", "/v1/shutdown") => {
                    if self.config.allow_shutdown {
                        let _ = write_response(&mut stream, 200, "OK", "text/plain", b"draining\n");
                        self.trigger_shutdown(&stream);
                    } else {
                        let _ = write_response(
                            &mut stream,
                            403,
                            "Forbidden",
                            "application/json",
                            error_body("shutdown disabled (start with --allow-shutdown)")
                                .as_bytes(),
                        );
                    }
                }
                _ => {
                    let _ = write_response(
                        &mut stream,
                        404,
                        "Not Found",
                        "application/json",
                        error_body(&format!("no route {method} {path}")).as_bytes(),
                    );
                }
            },
            Request::Line { verb, rest } => match verb.as_str() {
                "health" => {
                    let _ = stream.write_all(b"ok\n");
                }
                "metrics" => {
                    let _ = stream.write_all(self.metrics_body().as_bytes());
                }
                "sweep" => self.sweep(&mut stream, rest.as_bytes(), false, read),
                "shutdown" => {
                    if self.config.allow_shutdown {
                        let _ = stream.write_all(b"draining\n");
                        self.trigger_shutdown(&stream);
                    } else {
                        let _ = stream.write_all(
                            error_body("shutdown disabled (start with --allow-shutdown)")
                                .as_bytes(),
                        );
                    }
                }
                other => {
                    let _ = stream
                        .write_all(error_body(&format!("unknown command {other:?}")).as_bytes());
                }
            },
        }
    }

    /// The metrics document: the global `oic-obs` snapshot plus the
    /// server's own request/coalescing/cache counters (which do not
    /// depend on telemetry being enabled).
    pub fn metrics_body(&self) -> String {
        let cache = self.cache.stats();
        let doc = JsonValue::object()
            .with("kind", "oic-serve-metrics")
            .with("requests", self.request_count() as usize)
            .with("coalesced", self.coalesced_count() as usize)
            .with("rejected_busy", self.rejected_busy_count() as usize)
            .with("draining", self.is_draining())
            .with(
                "cache",
                JsonValue::object()
                    .with("mem_hits", cache.mem_hits as usize)
                    .with("disk_hits", cache.disk_hits as usize)
                    .with("misses", cache.misses as usize)
                    .with("stores", cache.stores as usize)
                    .with("rejected", cache.rejected as usize)
                    .with("corrupt", cache.corrupt as usize)
                    .with("bytes_read", cache.bytes_read as usize)
                    .with("bytes_written", cache.bytes_written as usize),
            )
            .with(
                "obs",
                JsonValue::parse(&oic_obs::metrics_snapshot().to_json())
                    .unwrap_or_else(|_| JsonValue::object()),
            );
        let mut body = doc.to_json_pretty();
        body.push('\n');
        body
    }

    /// Answers one sweep request and records `serve.request_ns`, from
    /// `read` (the request fully read) to its last byte written — for
    /// leaders, followers, cache-answered and rejected requests alike.
    fn sweep(self: &Arc<Self>, stream: &mut TcpStream, body: &[u8], http: bool, read: Stopwatch) {
        match self.sweep_inner(stream, body, http, read) {
            Ok(()) => {}
            Err(Reject::BadRequest(message)) => {
                if http {
                    let _ = write_response(
                        stream,
                        400,
                        "Bad Request",
                        "application/json",
                        error_body(&message).as_bytes(),
                    );
                } else {
                    let _ = stream.write_all(error_body(&message).as_bytes());
                }
            }
            Err(Reject::Overloaded) => {
                let message = error_body("server at max in-flight sweeps, retry later");
                if http {
                    let _ = write_response_ext(
                        stream,
                        503,
                        "Service Unavailable",
                        &[("Retry-After", "1")],
                        "application/json",
                        message.as_bytes(),
                    );
                } else {
                    let _ = stream.write_all(message.as_bytes());
                }
            }
        }
        read.stop_into(oic_obs::histogram!("serve.request_ns", "ns"));
    }

    /// Parses + validates the spec; `Err` means nothing was written yet
    /// and the caller should send the matching rejection (400 or 503).
    fn sweep_inner(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        body: &[u8],
        http: bool,
        read: Stopwatch,
    ) -> Result<(), Reject> {
        let text = std::str::from_utf8(body)
            .map_err(|_| Reject::BadRequest("spec is not UTF-8".to_string()))?;
        let doc = JsonValue::parse(text).map_err(|e| Reject::BadRequest(format!("spec: {e}")))?;
        let mut spec = SweepSpec::from_json(&doc).map_err(Reject::BadRequest)?;
        spec.canonicalize();
        for name in &spec.scenarios {
            if self.registry.get(name).is_none() {
                return Err(Reject::BadRequest(format!("unknown scenario {name:?}")));
            }
        }
        let hash = spec.spec_hash();

        self.requests.fetch_add(1, Ordering::Relaxed);
        oic_obs::counter!("serve.requests", "requests").incr();

        // Coalescing: one leader computes, identical concurrent requests
        // replay its bytes. Followers always attach (they add no engine
        // load); only *new* leaders are bounded by `max_inflight`.
        let (inflight, leader) = {
            let mut table = self.inflight.lock().expect("inflight table");
            match table.get(&hash) {
                Some(existing) => (Arc::clone(existing), false),
                None => {
                    if table.len() >= self.config.max_inflight {
                        drop(table);
                        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        oic_obs::counter!("serve.rejected_busy", "requests").incr();
                        return Err(Reject::Overloaded);
                    }
                    let fresh = Arc::new(Inflight::new());
                    table.insert(hash, Arc::clone(&fresh));
                    (fresh, true)
                }
            }
        };

        if http {
            if let Err(e) = write_stream_head(stream) {
                // The leader slot was already claimed: release it before
                // bailing, or the hash would coalesce forever onto a
                // stream nobody is writing.
                if leader {
                    inflight.finish();
                    self.inflight.lock().expect("inflight table").remove(&hash);
                }
                return Err(Reject::BadRequest(format!("write head: {e}")));
            }
        }
        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            oic_obs::counter!("serve.coalesced", "requests").incr();
            let _ = inflight.replay(stream);
            return Ok(());
        }

        // A panicking leader must still finish the in-flight stream and
        // vacate the table — otherwise every coalesced follower hangs
        // forever and the hash can never be swept again. The panic
        // degrades to an `error` trailer on the wire.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.run_as_leader(&spec, &hash, &inflight, stream, read)
        }));
        if let Err(payload) = &result {
            oic_obs::counter!("serve.sweep_panics", "sweeps").incr();
            let line = error_body(&format!(
                "sweep handler panicked: {}",
                panic_text(payload.as_ref())
            ));
            inflight.append(line.as_bytes());
            let _ = stream.write_all(line.as_bytes());
        }
        inflight.finish();
        self.inflight.lock().expect("inflight table").remove(&hash);
        Ok(())
    }

    /// Runs the sweep, streaming NDJSON lines to both the socket and the
    /// in-flight buffer. From here on errors are emitted *into* the
    /// stream (the 200 head is already out). Records
    /// `serve.first_cell_ns`, from `read` to the first cell line written
    /// (leaders only: a follower replays these bytes).
    fn run_as_leader(
        &self,
        spec: &SweepSpec,
        hash: &[u8; 32],
        inflight: &Inflight,
        stream: &mut TcpStream,
        read: Stopwatch,
    ) {
        // Socket + coalescing buffer behind one lock so worker threads
        // can emit completed cells directly. A dropped leader connection
        // must not kill the sweep — the cells still land in the cache and
        // coalesced followers still need the bytes — so socket errors are
        // swallowed here.
        let sink = Mutex::new(&mut *stream);
        let emit_line = |line: &str| {
            inflight.append(line.as_bytes());
            let mut socket = sink.lock().expect("sink lock");
            let _ = socket.write_all(line.as_bytes());
            let _ = socket.flush();
        };

        emit_line(
            &(JsonValue::object()
                .with("kind", "oic-sweep-response")
                .with("version", 1usize)
                .with("spec_hash", to_hex(hash))
                .with("seed", spec.seed.to_string())
                .to_json()
                + "\n"),
        );

        // Cells stream strictly in global index order: out-of-order
        // completions buffer until their index comes up, so the body
        // never depends on scheduling.
        let order = Mutex::new((0usize, BTreeMap::<usize, String>::new()));
        let on_cell = |g: usize, cell: &CellReport| {
            let line = JsonValue::object()
                .with("cell", g)
                .with("data", cell.to_json(false))
                .to_json()
                + "\n";
            let mut slot = order.lock().expect("order lock");
            let (next, pending) = &mut *slot;
            pending.insert(g, line);
            while let Some(line) = pending.remove(next) {
                emit_line(&line);
                if *next == 0 {
                    read.stop_into(oic_obs::histogram!("serve.first_cell_ns", "ns"));
                }
                oic_obs::counter!("serve.cells_streamed", "cells").incr();
                *next += 1;
            }
        };

        let config = spec.to_config();
        let opts = SweepOptions {
            scenarios: (!spec.scenarios.is_empty()).then_some(spec.scenarios.as_slice()),
            shard: None,
            cache: Some(&self.cache),
            on_cell: Some(&on_cell),
            dropouts: (!spec.dropouts.is_empty()).then_some(spec.dropouts.as_slice()),
            faults: None,
        };
        let outcome = run_batch_opts(&self.registry, &spec.policies, &config, &opts);

        let trailer = match outcome {
            Ok((report, _stats)) => {
                oic_obs::counter!("serve.sweeps", "sweeps").incr();
                let failed = report.cells.iter().filter(|c| c.is_failed()).count();
                let mut done = JsonValue::object()
                    .with("done", true)
                    .with("cells", report.cells.len())
                    .with("total_safety_violations", report.total_safety_violations());
                // Fault-free sweeps keep their exact historical trailer
                // bytes; the tally appears only when something degraded.
                if failed > 0 {
                    done = done.with("failed_cells", failed);
                }
                done.to_json() + "\n"
            }
            Err(error) => {
                oic_obs::counter!("serve.sweep_errors", "sweeps").incr();
                error_body(&engine_error_text(&error))
            }
        };
        emit_line(&trailer);
    }
}

/// Why a sweep request was refused before any stream bytes went out.
enum Reject {
    /// Malformed or unsatisfiable spec → 400.
    BadRequest(String),
    /// In-flight table full → 503 + `Retry-After`.
    Overloaded,
}

fn engine_error_text(error: &EngineError) -> String {
    format!("sweep failed: {error}")
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(text) = payload.downcast_ref::<&str>() {
        text
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text
    } else {
        "opaque panic payload"
    }
}

/// A one-line JSON error document (`{"error": "..."}` + newline).
pub fn error_body(message: &str) -> String {
    JsonValue::object().with("error", message).to_json() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_engine::PolicySpec;
    use std::io::Read;

    fn test_server() -> (Arc<SweepServer>, std::net::SocketAddr) {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(oic_scenarios::DoubleIntegratorScenario));
        let server = SweepServer::new(registry, CellCache::in_memory());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = Arc::clone(&server);
        std::thread::spawn(move || accept.serve(listener));
        (server, addr)
    }

    fn send(addr: std::net::SocketAddr, payload: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn http_body(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap()
    }

    const SPEC: &str =
        r#"{"policies":["bang-bang","periodic-4"],"episodes":3,"steps":15,"seed":7}"#;

    #[test]
    fn health_and_metrics_respond_on_both_dialects() {
        let (_server, addr) = test_server();
        let health = send(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(http_body(&health), "ok\n");
        assert_eq!(send(addr, "health\n"), "ok\n");
        let metrics = send(addr, "GET /v1/metrics HTTP/1.1\r\n\r\n");
        assert!(http_body(&metrics).contains("\"kind\": \"oic-serve-metrics\""));
        assert!(send(addr, "metrics\n").contains("\"coalesced\": 0"));
    }

    #[test]
    fn sweep_round_trips_and_matches_the_engine() {
        let (server, addr) = test_server();
        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let body = http_body(&send(addr, &request)).to_string();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 cells + trailer: {body}");
        let header = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("kind").and_then(JsonValue::as_str),
            Some("oic-sweep-response")
        );
        assert_eq!(header.get("seed").and_then(JsonValue::as_str), Some("7"));
        let trailer = JsonValue::parse(lines[3]).unwrap();
        assert_eq!(trailer.get("cells").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(
            trailer
                .get("total_safety_violations")
                .and_then(JsonValue::as_usize),
            Some(0)
        );
        // Cells arrive in index order and byte-match a direct engine run.
        let spec = SweepSpec::from_json(&JsonValue::parse(SPEC).unwrap()).unwrap();
        let (reference, _) = run_batch_opts(
            &{
                let mut r = ScenarioRegistry::new();
                r.register(Box::new(oic_scenarios::DoubleIntegratorScenario));
                r
            },
            &[PolicySpec::BangBang, PolicySpec::Periodic(4)],
            &spec.to_config(),
            &SweepOptions::default(),
        )
        .unwrap();
        for (g, line) in lines[1..3].iter().enumerate() {
            let row = JsonValue::parse(line).unwrap();
            assert_eq!(row.get("cell").and_then(JsonValue::as_usize), Some(g));
            assert_eq!(
                row.get("data").unwrap().to_json(),
                reference.cells[g].to_json(false).to_json(),
                "cell {g} bytes"
            );
        }
        assert_eq!(server.request_count(), 1);
        assert_eq!(server.cache_stats().hits(), 0, "cold run computes");
    }

    #[test]
    fn identical_requests_hit_the_cache_and_bodies_are_byte_identical() {
        let (server, addr) = test_server();
        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let cold = http_body(&send(addr, &request)).to_string();
        let warm = http_body(&send(addr, &request)).to_string();
        assert_eq!(cold, warm, "cache hits change no bytes");
        let stats = server.cache_stats();
        assert_eq!(stats.stores, 2, "cold run stored both cells");
        assert_eq!(stats.hits(), 2, "warm run answered both cells from cache");
        // The line dialect shares spec hashing with HTTP: same bytes.
        let line = send(addr, &format!("sweep {SPEC}\n"));
        assert_eq!(line, cold);
        assert_eq!(server.cache_stats().hits(), 4);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let (server, addr) = test_server();
        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let request = request.clone();
                std::thread::spawn(move || http_body(&send(addr, &request)).to_string())
            })
            .collect();
        let bodies: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        for body in &bodies[1..] {
            assert_eq!(body, &bodies[0], "all coalesced bodies identical");
        }
        assert_eq!(server.request_count(), 4);
        // At least the requests that arrived while the leader was still
        // sweeping coalesced; racing stragglers may have become leaders
        // of their own (cache-answered) sweeps instead.
        assert!(
            server.coalesced_count() + server.cache_stats().hits() / 2 >= 1,
            "some request avoided recomputation: {:?}",
            server.cache_stats()
        );
    }

    #[test]
    fn sweeps_can_carry_a_dropout_axis() {
        let (_server, addr) = test_server();
        let spec = r#"{"policies":["bang-bang"],"dropout":["none","mk-1-5"],"episodes":3,"steps":15,"seed":7}"#;
        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        );
        let body = http_body(&send(addr, &request)).to_string();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(
            lines.len(),
            4,
            "header + 2 dropout variants + trailer: {body}"
        );
        assert!(
            !lines[1].contains("\"dropout\""),
            "none variant keeps fault-free bytes: {}",
            lines[1]
        );
        assert!(lines[2].contains("mk-1-5"), "{}", lines[2]);
        assert!(lines[2].contains("forced_skips"), "{}", lines[2]);
        let trailer = JsonValue::parse(lines[3]).unwrap();
        assert_eq!(trailer.get("cells").and_then(JsonValue::as_usize), Some(2));
        assert!(
            trailer.get("failed_cells").is_none(),
            "dropout alone fails nothing"
        );
    }

    #[test]
    fn full_inflight_table_rejects_new_leaders_with_503() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(oic_scenarios::DoubleIntegratorScenario));
        let server = SweepServer::with_config(
            registry,
            CellCache::in_memory(),
            ServeConfig {
                max_inflight: 0,
                ..ServeConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = Arc::clone(&server);
        std::thread::spawn(move || accept.serve(listener));

        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let response = send(addr, &request);
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");
        assert!(http_body(&response).contains("\"error\""), "{response}");
        assert_eq!(server.rejected_busy_count(), 1);
        // The line dialect gets the same error document, sans HTTP head.
        let line = send(addr, &format!("sweep {SPEC}\n"));
        assert!(line.contains("max in-flight"), "{line}");
        assert_eq!(server.rejected_busy_count(), 2);
        // Health stays up even when sweeps are refused.
        assert_eq!(send(addr, "health\n"), "ok\n");
    }

    #[test]
    fn shutdown_route_drains_the_accept_loop() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(oic_scenarios::DoubleIntegratorScenario));
        let server = SweepServer::with_config(
            registry,
            CellCache::in_memory(),
            ServeConfig {
                allow_shutdown: true,
                ..ServeConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = Arc::clone(&server);
        let loop_thread = std::thread::spawn(move || accept.serve(listener));

        // A request in flight when the drain starts still completes.
        let request = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let body = http_body(&send(addr, &request)).to_string();
        assert!(body.contains("\"done\""), "{body}");

        let response = send(addr, "POST /v1/shutdown HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(server.is_draining());
        loop_thread.join().expect("serve loop exits after drain");
    }

    #[test]
    fn shutdown_is_forbidden_unless_enabled() {
        let (server, addr) = test_server();
        let response = send(addr, "POST /v1/shutdown HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 403"), "{response}");
        assert!(!server.is_draining());
        let line = send(addr, "shutdown\n");
        assert!(line.contains("--allow-shutdown"), "{line}");
        assert!(!server.is_draining());
    }

    #[test]
    fn bad_specs_are_rejected_without_a_stream() {
        let (_server, addr) = test_server();
        for (bad, needle) in [
            ("{\"policies\":[]}", "\"error\""),
            (
                r#"{"scenarios":["warp-drive"],"policies":["bang-bang"]}"#,
                "warp-drive",
            ),
            // A misspelt key is an error, not a sweep on the defaults.
            (r#"{"policies":["always-run"],"episdes":7}"#, "episdes"),
        ] {
            let request = format!(
                "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{bad}",
                bad.len()
            );
            let response = send(addr, &request);
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
            assert!(http_body(&response).contains(needle), "{response}");
        }
        let missing = send(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }
}
