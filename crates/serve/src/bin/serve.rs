//! The sweep service CLI: `serve <subcommand>`.
//!
//! * `serve listen [--addr HOST:PORT] [--cache-dir DIR] [--mem-cells N]
//!   [--read-timeout SECS] [--write-timeout SECS] [--max-inflight N]
//!   [--allow-shutdown]` — run the server over the standard scenario
//!   registry. `--addr` defaults to `127.0.0.1:8787`; `--cache-dir`
//!   persists the cell store across restarts; `--mem-cells` sizes the
//!   in-memory LRU. The resilience knobs map onto
//!   [`oic_serve::ServeConfig`]: socket deadlines (0 disables), the
//!   in-flight leader bound (503 + `Retry-After` beyond it), and the
//!   graceful-drain route.
//! * `serve query [--addr HOST:PORT] [--timeout SECS] [--retries N]
//!   [SPEC.json]` — POST a spec file (or stdin when omitted/`-`) to a
//!   running server and print the NDJSON response body to stdout.
//!   Connect failures, socket errors, 503s, and truncated streams (no
//!   `done`/`error` trailer) are retried up to `--retries` times with
//!   deterministic exponential backoff (100 ms, 200 ms, … capped at
//!   2 s).
//! * `serve merge --out MERGED.json SHARD.json…` — interleave shard
//!   reports (`batch --shard i/n`) into the byte-identical unsharded
//!   report (`--out -` prints to stdout).
//!
//! Flag parsing is strict: an unknown flag, a flag missing its value, a
//! value that does not parse, or a stray positional argument prints the
//! problem and the subcommand's usage to stderr and exits 2; `--help`
//! prints the usage to stdout and exits 0.
//!
//! Protocol, canonicalization, and shard contracts: `docs/PROTOCOL.md`;
//! fault model and degradation matrix: `docs/ROBUSTNESS.md`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use oic_engine::{CellCache, JsonValue};
use oic_scenarios::ScenarioRegistry;
use oic_serve::{merge_reports, ServeConfig, SweepServer};

const DEFAULT_ADDR: &str = "127.0.0.1:8787";

const LISTEN_FLAGS: &str = "[--addr HOST:PORT] [--cache-dir DIR] [--mem-cells N] \
[--read-timeout SECS] [--write-timeout SECS] [--max-inflight N] [--allow-shutdown]";
const QUERY_FLAGS: &str = "[--addr HOST:PORT] [--timeout SECS] [--retries N] [SPEC.json|-]";
const MERGE_FLAGS: &str = "[--out MERGED.json|-] SHARD.json...";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() {
        "listen".to_string()
    } else {
        args.remove(0)
    };
    let code = match command.as_str() {
        "listen" => listen(parsed_or_exit(
            "listen",
            LISTEN_FLAGS,
            ListenArgs::parse(args),
        )),
        "query" => query(parsed_or_exit("query", QUERY_FLAGS, QueryArgs::parse(args))),
        "merge" => merge(parsed_or_exit("merge", MERGE_FLAGS, MergeArgs::parse(args))),
        "--help" | "help" | "-h" => {
            println!("usage: serve listen {LISTEN_FLAGS}");
            println!("       serve query {QUERY_FLAGS}");
            println!("       serve merge {MERGE_FLAGS}");
            println!("(see the crate docs and docs/PROTOCOL.md)");
            0
        }
        other => {
            eprintln!("unknown subcommand {other:?} (expected listen, query, or merge)");
            2
        }
    };
    std::process::exit(code);
}

/// Why a subcommand's parser produced no arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ArgsError {
    /// `--help` was given: print the usage and succeed.
    Help,
    /// An unknown flag, a flag without its value, a value that does not
    /// parse, or a stray positional argument; the message names it.
    Invalid(String),
}

/// The parsed arguments of `serve <command>`, or the usage exit its
/// error calls for: `--help` prints the usage to stdout and exits 0,
/// invalid input prints the problem and the usage to stderr and exits 2.
fn parsed_or_exit<T>(command: &str, flags: &str, parsed: Result<T, ArgsError>) -> T {
    match parsed {
        Ok(args) => args,
        Err(ArgsError::Help) => {
            println!("usage: serve {command} {flags}");
            std::process::exit(0);
        }
        Err(ArgsError::Invalid(problem)) => {
            eprintln!("serve {command}: {problem}\nusage: serve {command} {flags}");
            std::process::exit(2);
        }
    }
}

/// The value following `flag`, or the error naming the missing value.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ArgsError> {
    args.next()
        .ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
}

/// The number following `flag`, or the error naming what did not parse.
fn flag_number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ArgsError> {
    let value = flag_value(args, flag)?;
    value
        .parse()
        .map_err(|_| ArgsError::Invalid(format!("{flag} expects a number, got {value:?}")))
}

/// A socket deadline in whole seconds; `0` disables it.
fn flag_seconds(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Option<Duration>, ArgsError> {
    let secs: u64 = flag_number(args, flag)?;
    Ok((secs > 0).then(|| Duration::from_secs(secs)))
}

fn unknown(arg: &str) -> ArgsError {
    ArgsError::Invalid(format!("unknown argument {arg:?}"))
}

/// `serve listen`'s arguments.
#[derive(Debug)]
struct ListenArgs {
    addr: String,
    cache_dir: Option<PathBuf>,
    mem_cells: usize,
    config: ServeConfig,
}

impl ListenArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut parsed = Self {
            addr: DEFAULT_ADDR.to_string(),
            cache_dir: None,
            mem_cells: 4096,
            config: ServeConfig::default(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let args = &mut args;
            match flag.as_str() {
                "--help" => return Err(ArgsError::Help),
                "--addr" => parsed.addr = flag_value(args, &flag)?,
                "--cache-dir" => parsed.cache_dir = Some(flag_value(args, &flag)?.into()),
                "--mem-cells" => parsed.mem_cells = flag_number(args, &flag)?,
                "--read-timeout" => parsed.config.read_timeout = flag_seconds(args, &flag)?,
                "--write-timeout" => parsed.config.write_timeout = flag_seconds(args, &flag)?,
                "--max-inflight" => parsed.config.max_inflight = flag_number(args, &flag)?,
                "--allow-shutdown" => parsed.config.allow_shutdown = true,
                _ => return Err(unknown(&flag)),
            }
        }
        Ok(parsed)
    }
}

/// `serve query`'s arguments; a spec of `None` or `-` reads stdin.
#[derive(Debug, PartialEq, Eq)]
struct QueryArgs {
    addr: String,
    timeout: Option<Duration>,
    retries: u32,
    spec: Option<String>,
}

impl QueryArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut parsed = Self {
            addr: DEFAULT_ADDR.to_string(),
            timeout: Some(Duration::from_secs(30)),
            retries: 2,
            spec: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let args = &mut args;
            match arg.as_str() {
                "--help" => return Err(ArgsError::Help),
                "--addr" => parsed.addr = flag_value(args, &arg)?,
                "--timeout" => parsed.timeout = flag_seconds(args, &arg)?,
                "--retries" => parsed.retries = flag_number(args, &arg)?,
                _ if arg.starts_with("--") || parsed.spec.is_some() => return Err(unknown(&arg)),
                _ => parsed.spec = Some(arg),
            }
        }
        Ok(parsed)
    }
}

/// `serve merge`'s arguments.
#[derive(Debug, PartialEq, Eq)]
struct MergeArgs {
    out: String,
    inputs: Vec<String>,
}

impl MergeArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgsError> {
        let mut parsed = Self {
            out: "-".to_string(),
            inputs: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let args = &mut args;
            match arg.as_str() {
                "--help" => return Err(ArgsError::Help),
                "--out" => parsed.out = flag_value(args, &arg)?,
                _ if arg.starts_with("--") => return Err(unknown(&arg)),
                _ => parsed.inputs.push(arg),
            }
        }
        Ok(parsed)
    }
}

fn listen(args: ListenArgs) -> i32 {
    let ListenArgs {
        addr,
        cache_dir,
        mem_cells,
        config,
    } = args;
    // Metrics on by default: the /v1/metrics endpoint is the only place
    // cache/coalescing evidence surfaces (never in response bodies), so
    // a server without metrics would be flying blind.
    oic_obs::set_metrics_enabled(true);
    let listener = match TcpListener::bind(&addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return 1;
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    let server = SweepServer::with_config(
        ScenarioRegistry::standard(),
        CellCache::new(mem_cells, cache_dir.clone()),
        config,
    );
    eprintln!(
        "serve: listening on {bound} ({} scenarios, cache: {})",
        ScenarioRegistry::standard().len(),
        cache_dir
            .as_deref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "memory-only".to_string()),
    );
    server.serve(listener);
    eprintln!("serve: drained, exiting");
    0
}

fn query(args: QueryArgs) -> i32 {
    let spec = match args.spec.as_deref() {
        None | Some("-") => {
            let mut text = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                eprintln!("cannot read spec from stdin: {e}");
                return 1;
            }
            text
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read spec {path:?}: {e}");
                return 1;
            }
        },
    };

    let mut attempt = 0u32;
    loop {
        match query_once(&args.addr, &spec, args.timeout) {
            QueryOutcome::Done(code) => return code,
            QueryOutcome::Retryable(reason) => {
                if attempt >= args.retries {
                    eprintln!("{reason} (giving up after {} attempts)", attempt + 1);
                    return 1;
                }
                // Deterministic exponential backoff: 100 ms, 200 ms,
                // 400 ms, … capped at 2 s. No jitter — retry timing is
                // reproducible, and a single client cannot thunder.
                let backoff = (100u64 << attempt.min(16)).min(2000);
                eprintln!("{reason}; retrying in {backoff} ms");
                std::thread::sleep(Duration::from_millis(backoff));
                attempt += 1;
            }
        }
    }
}

/// How one request attempt ended: a final exit code, or a transient
/// failure worth another attempt.
enum QueryOutcome {
    Done(i32),
    Retryable(String),
}

fn query_once(addr: &str, spec: &str, timeout: Option<Duration>) -> QueryOutcome {
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => return QueryOutcome::Retryable(format!("cannot connect to {addr}: {e}")),
    };
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let request = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{spec}",
        spec.len()
    );
    if let Err(e) = stream.write_all(request.as_bytes()) {
        return QueryOutcome::Retryable(format!("cannot send request: {e}"));
    }
    let mut response = Vec::new();
    if let Err(e) = stream.read_to_end(&mut response) {
        return QueryOutcome::Retryable(format!("cannot read response: {e}"));
    }
    let text = String::from_utf8_lossy(&response);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return QueryOutcome::Retryable(
            "malformed response (no header/body separator)".to_string(),
        );
    };
    let status = head.lines().next().unwrap_or("request failed");
    if head.starts_with("HTTP/1.1 503") {
        // Overloaded server: honor the Retry-After semantics by
        // retrying (the backoff already exceeds the advertised 1 s by
        // the later attempts; earlier ones probe cheaply).
        return QueryOutcome::Retryable(format!("server busy ({status})"));
    }
    if !head.starts_with("HTTP/1.1 200") {
        // Any other non-200 is deterministic (bad spec, bad route):
        // retrying would fail identically.
        print!("{body}");
        eprintln!("{status}");
        return QueryOutcome::Done(1);
    }
    // A healthy stream ends with a `done` or `error` trailer; anything
    // else means the server died mid-sweep and a retry can complete
    // from its cache.
    let trailer = body.lines().rev().find(|l| !l.trim().is_empty());
    let trailer = trailer.and_then(|line| JsonValue::parse(line).ok());
    match trailer {
        Some(doc) if doc.get("done").is_some() => {
            print!("{body}");
            QueryOutcome::Done(0)
        }
        Some(doc) if doc.get("error").is_some() => {
            print!("{body}");
            eprintln!(
                "sweep failed: {}",
                doc.get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown error")
            );
            QueryOutcome::Done(1)
        }
        _ => {
            QueryOutcome::Retryable("response stream truncated (no done/error trailer)".to_string())
        }
    }
}

fn merge(args: MergeArgs) -> i32 {
    let MergeArgs { out, inputs } = args;
    let mut texts = Vec::with_capacity(inputs.len());
    for path in &inputs {
        match std::fs::read_to_string(path) {
            Ok(text) => texts.push(text),
            Err(e) => {
                eprintln!("cannot read shard report {path:?}: {e}");
                return 1;
            }
        }
    }
    match merge_reports(&texts) {
        Ok(merged) => {
            if out == "-" {
                print!("{merged}");
            } else if let Err(e) = std::fs::write(&out, &merged) {
                eprintln!("cannot write {out:?}: {e}");
                return 1;
            } else {
                eprintln!("merged {} shards into {out}", texts.len());
            }
            0
        }
        Err(message) => {
            eprintln!("merge failed: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn invalid(message: &str) -> ArgsError {
        ArgsError::Invalid(message.to_string())
    }

    #[test]
    fn listen_flags_are_strict() {
        let parse = |args: &[&str]| ListenArgs::parse(strings(args));
        let args = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--allow-shutdown",
            "--mem-cells",
            "256",
            "--cache-dir",
            "cells",
            "--read-timeout",
            "0",
            "--write-timeout",
            "5",
            "--max-inflight",
            "3",
        ])
        .unwrap();
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.mem_cells, 256);
        assert_eq!(args.cache_dir, Some(PathBuf::from("cells")));
        assert_eq!(args.config.read_timeout, None, "0 disables the deadline");
        assert_eq!(args.config.write_timeout, Some(Duration::from_secs(5)));
        assert_eq!(args.config.max_inflight, 3);
        assert!(args.config.allow_shutdown);

        let defaults = parse(&[]).unwrap();
        let config = ServeConfig::default();
        assert_eq!(defaults.addr, DEFAULT_ADDR);
        assert_eq!(defaults.mem_cells, 4096);
        assert_eq!(defaults.cache_dir, None);
        assert_eq!(defaults.config.read_timeout, config.read_timeout);
        assert_eq!(defaults.config.write_timeout, config.write_timeout);
        assert_eq!(defaults.config.max_inflight, config.max_inflight);
        assert!(!defaults.config.allow_shutdown);

        for (args, problem) in [
            (
                &["--mem-cells", "abc"][..],
                "--mem-cells expects a number, got \"abc\"",
            ),
            (
                &["--max-inflight", "many"],
                "--max-inflight expects a number, got \"many\"",
            ),
            (
                &["--read-timeout", "-1"],
                "--read-timeout expects a number, got \"-1\"",
            ),
            (&["--write-timeout"], "--write-timeout needs a value"),
            (&["--mem-cell", "256"], "unknown argument \"--mem-cell\""),
            (&["stray"], "unknown argument \"stray\""),
        ] {
            assert_eq!(parse(args).unwrap_err(), invalid(problem), "{args:?}");
        }
        assert_eq!(
            parse(&["--mem-cells", "8", "--help"]).unwrap_err(),
            ArgsError::Help
        );
    }

    #[test]
    fn query_flags_are_strict() {
        let parse = |args: &[&str]| QueryArgs::parse(strings(args));
        assert_eq!(
            parse(&["--addr", "127.0.0.1:8791", "--retries", "8", "spec.json"]),
            Ok(QueryArgs {
                addr: "127.0.0.1:8791".to_string(),
                timeout: Some(Duration::from_secs(30)),
                retries: 8,
                spec: Some("spec.json".to_string()),
            })
        );
        let stdin = parse(&["--timeout", "0", "-"]).unwrap();
        assert_eq!(stdin.spec.as_deref(), Some("-"));
        assert_eq!(stdin.timeout, None, "0 disables the deadline");
        assert_eq!(parse(&[]).unwrap().retries, 2);
        for (args, problem) in [
            (
                &["--retries", "x"][..],
                "--retries expects a number, got \"x\"",
            ),
            (
                &["--timeout", "soon"],
                "--timeout expects a number, got \"soon\"",
            ),
            (&["--retry", "3"], "unknown argument \"--retry\""),
            (&["a.json", "b.json"], "unknown argument \"b.json\""),
        ] {
            assert_eq!(parse(args).unwrap_err(), invalid(problem), "{args:?}");
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
    }

    #[test]
    fn merge_flags_are_strict() {
        let parse = |args: &[&str]| MergeArgs::parse(strings(args));
        assert_eq!(
            parse(&["--out", "merged.json", "shard1.json", "shard0.json"]),
            Ok(MergeArgs {
                out: "merged.json".to_string(),
                inputs: strings(&["shard1.json", "shard0.json"]),
            })
        );
        assert_eq!(parse(&["a.json"]).unwrap().out, "-");
        assert_eq!(
            parse(&["--out"]).unwrap_err(),
            invalid("--out needs a value")
        );
        assert_eq!(
            parse(&["--outfile", "x", "a.json"]).unwrap_err(),
            invalid("unknown argument \"--outfile\"")
        );
    }
}
