//! The `serve-mixed` workload: the `serve` binary with an on-disk cell
//! store, driven over HTTP by one closed-loop client (a `serve query`
//! caller waits for its reply before sending the next request). One
//! client keeps the load within the host's two cores: the server runs
//! each sweep on every core, and a second concurrent request would
//! measure the scheduler.
//!
//! Every request is a small seeded sweep: 1–3 scenarios and 1–3
//! analytic policies, always including `always-run` (the baseline of
//! the actuation saving). Three in twenty new requests carry the
//! tube-MPC scenario `acc`, the rest only linear-feedback ones
//! (`lane-keeping` is excluded, see [`crate::sweep::EXCLUDED`]). Half of
//! the requests repeat one of the client's earlier specs; the generator labels each request: the first occurrence of a
//! spec is cold (cache misses, then stores), a repeat is warm (cache
//! hits). Draws come from shuffled decks, so each run has the same mix
//! whatever its seed, and every new spec carries a fresh sweep seed, so
//! no two new specs share a cell.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oic_engine::{run_batch_opts, BatchConfig, CellReport, JsonValue, SweepOptions};
use oic_scenarios::ScenarioRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cells::{CellRow, Quality};
use crate::ledger::{self, BuildProfile, Pass};
use crate::stats::{iq_mean, mean, median, mix, peak_rss_mb, workers, Telemetry};
use crate::sweep::{cache_metrics_from, replay_cells, write_trace, MPC_SCENARIOS, STEPS};
use crate::{Args, Outcome};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 1;
/// Episodes per cell of every request.
const EPISODES: usize = 4;
/// Server starts behind `setup_s`, before and again after the load (the
/// interquartile mean of all is reported; the last one before serves the
/// load).
const SETUP_ROUNDS: usize = 8;
/// The server's in-memory cell tier. Small, so that the server's memory
/// stops growing early in the run and `peak_rss_mb` does not depend on
/// how many requests a run got through; a warm repeat follows its cold
/// request at once, so it still finds every cell in memory.
const MEM_CELLS: &str = "256";
/// Untimed warm-up load before the timed one, in seconds.
const WARMUP_S: f64 = 2.0;
/// Per-request socket deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One slot of a reshuffled-when-empty deck.
struct Deck<T: Clone> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Self { items, next }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

/// The MPC scenario a request carries, if any: 3 `acc` and 17
/// linear-only requests per 20.
fn mpc_deck() -> Deck<Option<&'static str>> {
    let mut items = vec![Some("acc"); 3];
    items.extend([None; 17]);
    Deck::new(items)
}

/// What a request asks for, without its sweep seed.
#[derive(Clone)]
struct Shape {
    scenarios: Vec<String>,
    policies: Vec<&'static str>,
}

/// The request shapes every run cycles through: one per slot of
/// [`mpc_deck`], with 1–3 scenarios and 1–3 policies each, drawn once
/// from a fixed stream. A fixed catalog gives every run the same mix
/// whatever its seed; the seed orders the shapes and seeds the sweeps.
fn catalog(linear: &[&'static str]) -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(0x0123_4567_89AB_CDEF);
    let mut classes = mpc_deck();
    let mut linear = Deck::new(linear.to_vec());
    let mut width = Deck::new(vec![1, 2, 3]);
    let mut extra = Deck::new(vec![0, 1, 2]);
    let mut policies = Deck::new(vec!["bang-bang", "periodic-4", "random-0.25", "max-skip-2"]);
    (0..classes.items.len())
        .map(|_| {
            let class = classes.draw(&mut rng);
            let width = width.draw(&mut rng);
            let mut scenarios: Vec<String> = class.iter().map(|s| s.to_string()).collect();
            while scenarios.len() < width {
                let name = linear.draw(&mut rng).to_string();
                if !scenarios.contains(&name) {
                    scenarios.push(name);
                }
            }
            let mut chosen = vec!["always-run"];
            let extra = extra.draw(&mut rng);
            while chosen.len() < 1 + extra {
                let policy = policies.draw(&mut rng);
                if !chosen.contains(&policy) {
                    chosen.push(policy);
                }
            }
            Shape {
                scenarios,
                policies: chosen,
            }
        })
        .collect()
}

/// One generated request.
#[derive(Clone)]
struct Request {
    spec: Arc<String>,
    cold: bool,
    /// Cells the response must carry.
    cells: usize,
    /// Scenarios it names (each is built once per request by the server).
    scenarios: Vec<String>,
    /// Policies it names (each is prepared once per scenario per request).
    policies: Vec<&'static str>,
    /// The sweep seed of the spec.
    seed: u64,
}

/// A client's deterministic request stream: each new spec is followed
/// by one repeat of it, so warm requests have exactly the cold mix.
struct Generator {
    rng: StdRng,
    shapes: Deck<Shape>,
    issued: Vec<Request>,
    repeat_next: bool,
}

impl Generator {
    fn new(seed: u64, client: usize, catalog: Vec<Shape>) -> Self {
        Self {
            rng: StdRng::seed_from_u64(mix(seed, 1000 + client as u64)),
            shapes: Deck::new(catalog),
            issued: Vec::new(),
            repeat_next: false,
        }
    }

    fn next(&mut self) -> Request {
        let repeat = self.repeat_next;
        self.repeat_next = !repeat;
        if repeat {
            return Request {
                cold: false,
                ..self.issued.last().expect("a new spec came first").clone()
            };
        }
        let shape = self.shapes.draw(&mut self.rng);
        let seed = self.rng.next_u64();
        let list = |items: &[&str]| JsonValue::Array(items.iter().map(|s| (*s).into()).collect());
        let names: Vec<&str> = shape.scenarios.iter().map(String::as_str).collect();
        let spec = JsonValue::object()
            .with("scenarios", list(&names))
            .with("policies", list(&shape.policies))
            .with("episodes", EPISODES)
            .with("steps", STEPS)
            .with("seed", seed.to_string())
            .to_json();
        let request = Request {
            spec: Arc::new(spec),
            cold: true,
            cells: shape.scenarios.len() * shape.policies.len(),
            scenarios: shape.scenarios,
            policies: shape.policies,
            seed,
        };
        self.issued.push(request.clone());
        request
    }
}

/// A running `serve listen` process.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts the server and waits until `/healthz` answers; returns it
    /// with the seconds that took.
    fn start(bin: &Path, cache_dir: &Path) -> Result<(Self, f64), String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "listen",
                "--addr",
                "127.0.0.1:0",
                "--allow-shutdown",
                "--mem-cells",
                MEM_CELLS,
                "--cache-dir",
            ])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".to_string());
            }
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Keep draining stderr so the server never blocks on it.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let server = Self { child, addr };
        loop {
            if let Ok((200, body)) = get(&server.addr, "/healthz") {
                if body == b"ok\n" {
                    break;
                }
            }
            if started.elapsed() > Duration::from_secs(30) {
                server.stop();
                return Err("server never became healthy".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drains the server through its shutdown route and waits for it;
    /// kills it if it has not exited within ten seconds.
    fn stop(mut self) {
        let _ = request(&self.addr, b"POST /v1/shutdown HTTP/1.1\r\n\r\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        eprintln!("perfbench: server did not drain, killing it");
    }
}

impl Drop for Server {
    /// A server still running here (an error path, or a failed drain)
    /// is killed and reaped: the harness leaves no process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends raw request bytes and reads the whole response.
fn request(addr: &str, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
    stream.write_all(bytes).map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}

/// Splits a response into its status code and body.
fn split_response(response: &[u8]) -> Option<(u16, &[u8])> {
    let end = response.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&response[..end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, &response[end + 4..]))
}

fn get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    let response = request(addr, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())?;
    let (status, body) = split_response(&response).ok_or("malformed response")?;
    Ok((status, body.to_vec()))
}

/// One request's reply and client-side timings (seconds since the
/// request started to be sent).
struct Reply {
    status: u16,
    body: Vec<u8>,
    head_s: f64,
    first_cell_s: f64,
    total_s: f64,
}

/// Posts one sweep spec, timing the response head, the first cell line
/// and the last byte.
fn post_sweep(addr: &str, spec: &str) -> Result<Reply, String> {
    let _span = oic_obs::span("bench.request", "bench");
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
    let head = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        spec.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(spec.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut head_s, mut first_cell_s) = (None, None);
    let mut body_start = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            break;
        }
        response.extend_from_slice(&chunk[..n]);
        if body_start.is_none() {
            if let Some(end) = response.windows(4).position(|w| w == b"\r\n\r\n") {
                body_start = Some(end + 4);
                head_s = Some(started.elapsed().as_secs_f64());
            }
        }
        if let (Some(start), None) = (body_start, first_cell_s) {
            // The first cell line is the body's second line.
            if response[start..].iter().filter(|&&b| b == b'\n').count() >= 2 {
                first_cell_s = Some(started.elapsed().as_secs_f64());
            }
        }
    }
    let total_s = started.elapsed().as_secs_f64();
    let (status, body) = split_response(&response).ok_or("malformed response")?;
    Ok(Reply {
        status,
        body: body.to_vec(),
        head_s: head_s.unwrap_or(total_s),
        first_cell_s: first_cell_s.unwrap_or(total_s),
        total_s,
    })
}

/// A sent request and how it went.
struct Sample {
    request: Request,
    reply: Result<Reply, String>,
}

/// Closed-loop load: each client sends its next request when the
/// previous one completed, until `seconds` passed or, when `counts` is
/// given, exactly `counts[client]` requests were sent.
fn load(
    addr: &str,
    seed: u64,
    catalog: &[Shape],
    seconds: f64,
    counts: Option<&[usize]>,
) -> (Vec<Vec<Sample>>, f64) {
    let started = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let catalog = catalog.to_vec();
                scope.spawn(move || {
                    let mut generator = Generator::new(seed, client, catalog);
                    let mut samples = Vec::new();
                    loop {
                        let done = match counts {
                            Some(counts) => samples.len() >= counts[client],
                            None => started.elapsed().as_secs_f64() >= seconds,
                        };
                        if done {
                            break;
                        }
                        let request = generator.next();
                        let reply = post_sweep(addr, &request.spec);
                        samples.push(Sample { request, reply });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (per_client, started.elapsed().as_secs_f64())
}

/// The verdict on one response body.
struct Checked {
    rows: Vec<CellRow>,
    /// Cell `data` objects in wire form, by global index.
    cells: Vec<String>,
    failed_op: bool,
}

/// Checks one response: status 200, a header, the expected cells, and a
/// `done` trailer carrying the expected count. A 503, a stream without
/// a `done` trailer, a failed cell or a safety violation is a failed
/// operation; a `done` trailer with the wrong count is a failed check.
fn check(sample: &Sample, out: &mut Outcome) -> Checked {
    let mut checked = Checked {
        rows: Vec::new(),
        cells: Vec::new(),
        failed_op: true,
    };
    let reply = match &sample.reply {
        Ok(reply) if reply.status == 200 => reply,
        Ok(reply) => {
            eprintln!("perfbench: request answered {}", reply.status);
            return checked;
        }
        Err(e) => {
            eprintln!("perfbench: request failed: {e}");
            return checked;
        }
    };
    let text = String::from_utf8_lossy(&reply.body);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let Some(trailer) = lines.last().and_then(|l| JsonValue::parse(l).ok()) else {
        return checked;
    };
    if trailer.get("done").and_then(JsonValue::as_bool) != Some(true) {
        eprintln!(
            "perfbench: stream ended without a done trailer: {}",
            trailer.to_json()
        );
        return checked;
    }
    for line in &lines[1..lines.len() - 1] {
        let parsed = JsonValue::parse(line).ok();
        match parsed.as_ref().and_then(|l| l.get("data")) {
            Some(data) => match CellRow::from_json(data) {
                Ok(row) => {
                    checked.cells.push(data.to_json());
                    checked.rows.push(row);
                }
                Err(e) => out.problem(e),
            },
            None => out.problem(format!("not a cell line: {line}")),
        }
    }
    let announced = trailer.get("cells").and_then(JsonValue::as_usize);
    if announced != Some(sample.request.cells) || checked.rows.len() != sample.request.cells {
        out.problem(format!(
            "done trailer announces {announced:?} cells, {} streamed, expected {}",
            checked.rows.len(),
            sample.request.cells
        ));
    }
    checked.failed_op = trailer.get("failed_cells").is_some()
        || trailer
            .get("total_safety_violations")
            .and_then(JsonValue::as_usize)
            != Some(0)
        || checked.rows.iter().any(CellRow::is_failed_op);
    checked
}

/// A pass's verdicts and timings.
#[derive(Default)]
struct Tally {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    head_ms: Vec<f64>,
    first_cell_ms: Vec<f64>,
    bytes: usize,
    completed: usize,
    /// Control steps of the cold responses.
    cold_steps: usize,
    quality: Quality,
    /// Cells of cold responses, with the request that produced them.
    cold: Vec<(Request, Checked)>,
    /// Builds the server did, per scenario (one per named scenario per
    /// request), and policy preparations, per `(scenario, policy)`.
    builds: HashMap<String, usize>,
    prepares: HashMap<(String, String), usize>,
    /// Requests sent, completed or not.
    requests: usize,
}

fn tally(per_client: &[Vec<Sample>], out: &mut Outcome) -> Tally {
    let mut t = Tally::default();
    for samples in per_client {
        let mut cold_bodies: HashMap<Arc<String>, &[u8]> = HashMap::new();
        for sample in samples {
            out.attempted += 1;
            t.requests += 1;
            let checked = check(sample, out);
            for scenario in &sample.request.scenarios {
                *t.builds.entry(scenario.clone()).or_default() += 1;
                for policy in &sample.request.policies {
                    *t.prepares
                        .entry((scenario.clone(), policy.to_string()))
                        .or_default() += 1;
                }
            }
            if checked.failed_op {
                out.failed += 1;
                continue;
            }
            let reply = sample.reply.as_ref().expect("checked replies are Ok");
            t.completed += 1;
            t.bytes += reply.body.len();
            t.head_ms.push(reply.head_s * 1e3);
            t.first_cell_ms.push(reply.first_cell_s * 1e3);
            if sample.request.cold {
                t.cold_ms.push(reply.total_s * 1e3);
                t.cold_steps += checked.rows.iter().map(|c| c.steps).sum::<usize>();
                t.quality.add_group(&checked.rows);
                cold_bodies.insert(Arc::clone(&sample.request.spec), &reply.body);
                t.cold.push((sample.request.clone(), checked));
            } else {
                t.warm_ms.push(reply.total_s * 1e3);
                match cold_bodies.get(&sample.request.spec) {
                    Some(cold) if *cold == reply.body.as_slice() => {}
                    Some(_) => out.problem(format!(
                        "warm body differs from the cold body of {}",
                        sample.request.spec
                    )),
                    // Its cold request failed; nothing to compare.
                    None => {}
                }
            }
        }
    }
    t
}

struct Setup {
    server: Server,
    setup_s: Vec<f64>,
}

/// Starts the server `rounds` times (each from an empty cell store) and
/// keeps the last one running.
fn start_servers(bin: &Path, cache_dir: &Path, rounds: usize) -> Result<Setup, String> {
    let mut setup_s = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        if let Some(server) = last.take() {
            Server::stop(server);
        }
        let (server, secs) = Server::start(bin, cache_dir)?;
        setup_s.push(secs);
        last = Some(server);
    }
    Ok(Setup {
        server: last.expect("at least one round"),
        setup_s,
    })
}

fn linear_scenarios() -> Vec<&'static str> {
    ScenarioRegistry::standard()
        .names()
        .into_iter()
        .filter(|n| !MPC_SCENARIOS.contains(n))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .server_bin
        .clone()
        .ok_or("serve-mixed needs --server-bin")?;
    let cache_dir = args.out_dir.join("serve-cells");
    let mut out = Outcome::default();
    out.info("clients", CLIENTS);
    out.info("episodes_per_cell", EPISODES);
    let result = if args.trace {
        traced(args, &bin, &cache_dir, &mut out)
    } else {
        untraced(args, &bin, &cache_dir, &mut out)
    };
    let _ = std::fs::remove_dir_all(&cache_dir);
    result.map(|()| out)
}

fn untraced(args: &Args, bin: &Path, cache_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let setup = start_servers(bin, cache_dir, SETUP_ROUNDS)?;
    let server = setup.server;
    let catalog = catalog(&linear_scenarios());
    // Warm-up, untimed, on a request stream of its own: its specs carry
    // other sweep seeds, so the timed requests find none of its cells.
    load(
        &server.addr,
        mix(args.seed, u64::MAX),
        &catalog,
        WARMUP_S,
        None,
    );
    let (samples, wall_s) = load(&server.addr, args.seed, &catalog, args.seconds, None);
    let rss = peak_rss_mb(&server.pid());
    server.stop();
    let after = start_servers(bin, cache_dir, SETUP_ROUNDS)?;
    after.server.stop();
    let setup_s: Vec<f64> = setup
        .setup_s
        .iter()
        .chain(&after.setup_s)
        .copied()
        .collect();
    let t = tally(&samples, out);
    out.metric("setup_s", iq_mean(&setup_s), "s", setup_s.len());
    let cold_s: f64 = t.cold_ms.iter().sum::<f64>() / 1e3;
    out.metric(
        "steps_per_s",
        t.cold_steps as f64 / cold_s,
        "1/s",
        t.cold_ms.len(),
    );
    out.metric("skip_rate", t.quality.skip_rate(), "ratio", t.cold_ms.len());
    out.metric("peak_rss_mb", rss?, "MiB", 1);
    out.metric("cold_mean_ms", mean(&t.cold_ms), "ms", t.cold_ms.len());
    out.metric("warm_mean_ms", mean(&t.warm_ms), "ms", t.warm_ms.len());
    out.metric(
        "requests_per_s",
        t.completed as f64 / wall_s,
        "1/s",
        t.completed,
    );
    Ok(())
}

fn traced(args: &Args, bin: &Path, cache_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let registry = ScenarioRegistry::standard();
    let policies = oic_bench::experiments::batch::standard_policies();
    let profile = BuildProfile::measure(&registry, &policies, crate::sweep::PROFILE_ROUNDS)?;
    let catalog = catalog(&linear_scenarios());

    // The same request streams untraced, then traced (client spans on,
    // server telemetry read back): bodies must match byte for byte.
    let (server, _) = Server::start(bin, cache_dir)?;
    let (plain, plain_wall) = load(&server.addr, args.seed, &catalog, args.seconds / 2.0, None);
    server.stop();
    let counts: Vec<usize> = plain.iter().map(Vec::len).collect();
    let (server, _) = Server::start(bin, cache_dir)?;
    oic_obs::reset_trace();
    oic_obs::set_trace_enabled(true);
    let (traced, traced_wall) = load(&server.addr, args.seed, &catalog, 0.0, Some(&counts));
    oic_obs::set_trace_enabled(false);
    let metrics = get(&server.addr, "/v1/metrics");
    server.stop();
    let (status, metrics) = metrics?;
    let metrics = std::str::from_utf8(&metrics)
        .ok()
        .filter(|_| status == 200)
        .and_then(|text| JsonValue::parse(text).ok())
        .ok_or("unreadable /v1/metrics")?;
    for (a, b) in plain.iter().flatten().zip(traced.iter().flatten()) {
        let body = |s: &Sample| s.reply.as_ref().ok().map(|r| r.body.clone());
        if body(a) != body(b) {
            out.problem(format!(
                "traced body differs from the untraced one: {}",
                a.request.spec
            ));
        }
    }
    let t = tally(&traced, out);
    out.metric(
        "core.actuation_saving",
        t.quality.actuation_saving(),
        "ratio",
        t.quality.scenarios(),
    );

    // Replay every (scenario, policy) pair the cold requests computed,
    // against a local detail run of the first request that asked for it
    // — whose cell must also match the server's bytes.
    let mut first: BTreeMap<(String, String), (String, u64)> = BTreeMap::new();
    for (request, checked) in &t.cold {
        for (row, data) in checked.rows.iter().zip(&checked.cells) {
            first
                .entry((row.scenario.clone(), row.policy.clone()))
                .or_insert_with(|| (data.clone(), request.seed));
        }
    }
    let mut reference: Vec<(CellReport, BatchConfig)> = Vec::new();
    for ((scenario, policy), (served, seed)) in &first {
        let spec = policies
            .iter()
            .find(|p| &p.label() == policy)
            .ok_or_else(|| format!("unknown policy {policy}"))?;
        let config = BatchConfig {
            episodes: EPISODES,
            steps: STEPS,
            seed: *seed,
            detail: true,
            ..BatchConfig::default()
        };
        let filter = [scenario.clone()];
        let opts = SweepOptions {
            scenarios: Some(&filter),
            ..SweepOptions::default()
        };
        let (report, _) = run_batch_opts(&registry, std::slice::from_ref(spec), &config, &opts)
            .map_err(|e| format!("{scenario}/{policy}: local sweep failed: {e}"))?;
        let cell = report.cells.into_iter().next().ok_or("empty local sweep")?;
        if cell.to_json(false).to_json() != *served {
            out.problem(format!(
                "{scenario}/{policy}: served cell differs from the engine's"
            ));
        }
        reference.push((cell, config));
    }
    let costs = replay_cells(
        &registry,
        &policies,
        reference.iter().map(|(cell, config)| (cell, config)),
        out,
    )?;

    let telemetry = Telemetry::from_json(metrics.get("obs").unwrap_or(&JsonValue::Null));
    let executed: Vec<CellRow> = t.cold.iter().flat_map(|(_, c)| c.rows.clone()).collect();
    let used: Vec<String> = registry
        .names()
        .into_iter()
        .filter(|n| t.builds.contains_key(*n))
        .map(str::to_string)
        .collect();
    profile.report(&used, out);
    ledger::report(
        &Pass {
            telemetry: &telemetry,
            calls: t.requests,
            builds: &t.builds,
            prepares: &t.prepares,
            cells: &executed,
            costs: &costs,
            wall_s: traced_wall,
            workers: workers(),
        },
        &profile,
        out,
    );
    let cache = metrics.get("cache").unwrap_or(&JsonValue::Null);
    let field =
        |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    cache_metrics_from(
        field(cache, "mem_hits"),
        field(cache, "disk_hits"),
        field(cache, "misses"),
        field(cache, "stores"),
        field(cache, "bytes_written"),
        out,
    );
    out.metric("serve.head_ms", median(&t.head_ms), "ms", t.head_ms.len());
    out.metric(
        "serve.first_cell_ms",
        median(&t.first_cell_ms),
        "ms",
        t.first_cell_ms.len(),
    );
    out.metric("serve.coalesced", field(&metrics, "coalesced"), "count", 1);
    out.metric(
        "serve.rejected_busy",
        field(&metrics, "rejected_busy"),
        "count",
        1,
    );
    out.metric(
        "serve.bytes_per_request",
        t.bytes as f64 / t.completed.max(1) as f64,
        "bytes",
        t.completed,
    );
    out.metric(
        "engine.serial_share",
        mean(&t.warm_ms) / mean(&t.cold_ms),
        "ratio",
        t.cold_ms.len(),
    );
    out.metric(
        "obs.overhead_ratio",
        traced_wall / plain_wall - 1.0,
        "ratio",
        t.completed,
    );
    out.metric(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted,
    );
    out.metric(
        "replay.episodes",
        costs.iter().map(|c| c.episodes).sum::<usize>() as f64,
        "count",
        costs.len(),
    );
    out.info("cold_requests", t.cold_ms.len());
    out.info("warm_requests", t.warm_ms.len());
    write_trace(args, out);
    Ok(())
}
