//! `campaign_worker` — the per-shard worker process of distributed
//! campaign sweeps.
//!
//! Reads a `ba-dist` [`ShardManifest`] (wire format) from stdin or a file,
//! executes the shard on the local thread pool via the `ba_bench::dist`
//! protocol registry ([`run_manifest_streaming`]), and streams the per-point
//! outcomes and the encoded shard report to stdout. The merging coordinator
//! (`ba_dist::Coordinator`) spawns one of these per shard.
//!
//! Usage:
//!
//! ```text
//! campaign_worker [--manifest FILE] [--progress]
//! campaign_worker --serve ADDR [--conns N] [--progress]
//! ```
//!
//! The worker reads the manifest from stdin (the transport
//! `ba_dist::WorkerCommand` uses) or from `--manifest FILE`, and streams to
//! stdout: one checksummed `outcome` wire line per point *as it completes*
//! — the redundancy the coordinator's point-level recovery banks, so a
//! worker that crashes after k points only forfeits the rest — followed by
//! the encoded shard report. For a file run, redirect stdout. With
//! `--progress`, one JSONL [`ProgressEvent`](ba_dist::ProgressEvent) line
//! follows each outcome line — JSONL lines start with `{` and wire records
//! never do, so downstream consumers (the coordinator's streaming
//! transport, `campaign_watch`) split the stream line-by-line. Telemetry is
//! observation-only: the report is byte-identical with `--progress` on or
//! off.
//!
//! With `--serve ADDR` the worker is a TCP shard server instead
//! (`ba_dist::TcpTransport` is the client side): it binds `ADDR`, prints
//! one `listening addr=IP:PORT` line to stdout (so callers can bind port
//! 0), and then serves one manifest per connection, streaming the same
//! lines back, until `--conns N` connections have been handled (forever
//! without it; `--conns 0` serves none and exits).
//!
//! `$CAMPAIGN_WORKER_DELAY_MS`, if set, sleeps that many milliseconds after
//! each completed point, in both modes — a throttle for demos and
//! straggler-detection tests (it slows the shard's wall-clock rate without
//! touching any deterministic output).
//!
//! Exits non-zero with a diagnostic on stderr for undecodable manifests,
//! unknown registry labels, or I/O failures.

use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

use ba_bench::dist::run_manifest_streaming;
use ba_dist::{serve_shards, Decode, ShardManifest};

/// Runs the shard, handing every streamed chunk (complete lines) to
/// `write` and then sleeping `$CAMPAIGN_WORKER_DELAY_MS`, if set.
fn stream(
    manifest: &ShardManifest,
    progress: bool,
    write: &(dyn Fn(&str) + Sync),
) -> Result<(), String> {
    let delay = std::env::var("CAMPAIGN_WORKER_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(Duration::ZERO, Duration::from_millis);
    run_manifest_streaming(manifest, progress, &|chunk: &str| {
        write(chunk);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    })
}

/// Writes one chunk to stdout, flushing so the coordinator sees outcomes
/// live. The per-call lock keeps chunks from concurrent worker threads
/// line-atomic.
fn write_stdout(chunk: &str) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = out.write_all(chunk.as_bytes());
    let _ = out.flush();
}

/// Runs the TCP shard-server mode: bind, announce, serve.
fn serve(addr: &str, conns: Option<usize>, progress: bool) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("listening addr={local}");
    let _ = std::io::stdout().flush();
    serve_shards(listener, conns, |manifest, emit| {
        eprintln!(
            "campaign_worker: serving shard {}/{} ({} points, protocol {}, mode {})",
            manifest.shard,
            manifest.shards,
            manifest.entries.len(),
            manifest.protocol,
            manifest.mode,
        );
        // Bridge the per-connection FnMut sink into the Sync emitter the
        // streaming worker threads share.
        let sink = std::sync::Mutex::new(emit);
        stream(manifest, progress, &|chunk: &str| {
            (sink.lock().unwrap_or_else(|p| p.into_inner()))(chunk)
        })
    })
    .map_err(|e| format!("serving {local}: {e}"))
}

fn run() -> Result<(), String> {
    let mut manifest_path: Option<String> = None;
    let mut progress = false;
    let mut serve_addr: Option<String> = None;
    let mut conns: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--manifest" => {
                manifest_path = Some(args.next().ok_or("--manifest needs a file path")?);
            }
            "--progress" => progress = true,
            "--serve" => serve_addr = Some(args.next().ok_or("--serve needs an address")?),
            "--conns" => {
                let n = args.next().ok_or("--conns needs a count")?;
                conns = Some(n.parse().map_err(|_| format!("bad --conns value {n:?}"))?);
            }
            "--help" | "-h" => {
                println!("usage: campaign_worker [--manifest FILE] [--progress]");
                println!("       campaign_worker --serve ADDR [--conns N] [--progress]");
                println!("reads a shard manifest (stdin by default), runs it on the local");
                println!("thread pool, and streams one checksummed outcome wire line per");
                println!("completed point, then the shard report, to stdout;");
                println!("--progress adds one JSONL progress line after each outcome;");
                println!("--serve turns the worker into a TCP shard server (one manifest");
                println!("per connection, the same stream sent back)");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }

    if let Some(addr) = &serve_addr {
        return serve(addr, conns, progress);
    }

    let input = match &manifest_path {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
    };
    let manifest = ShardManifest::from_wire(&input).map_err(|e| format!("bad manifest: {e}"))?;
    eprintln!(
        "campaign_worker: shard {}/{} ({} points, protocol {}, mode {})",
        manifest.shard,
        manifest.shards,
        manifest.entries.len(),
        manifest.protocol,
        manifest.mode,
    );
    stream(&manifest, progress, &write_stdout)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("campaign_worker: {message}");
            ExitCode::FAILURE
        }
    }
}
