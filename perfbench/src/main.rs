//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare RESULT_A RESULT_B
//! perfbench --worker --stream
//! ```
//!
//! One process runs one workload closed-loop: a single client issues
//! passes back to back for `--seconds` seconds and checks every pass's
//! output. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and prints the
//! per-layer metrics, writing the traced spans to
//! `$CARGO_TARGET_DIR/perfbench/spans-WORKLOAD-seedN.jsonl` (`target/…`
//! when `CARGO_TARGET_DIR` is unset).
//!
//! Standard output ends with two JSON lines: the run's context (workload,
//! seed, pass count, machine fingerprint) and the result
//! `{"correct", "attempted", "failed", "metrics"}`. `compare` reads two
//! saved outputs and refuses to compare runs from different machines.
//!
//! `--worker` is the streaming `campaign_worker` body (a shard manifest on
//! stdin; per-point outcome lines and the shard report on stdout), so the
//! `dist-fabric` workload spawns this same binary as its worker processes.

mod alloc;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ba_dist::{Decode, ShardManifest};

use stats::{beyond, fingerprint, median, metrics_json, nanos, peak_rss_bytes, percentile, Metric};
use trace::Trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--worker") => worker(),
        Some("compare") => compare(&args[1..]),
        _ => parse(&args).and_then(|opts| run(&opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The worker process: one shard manifest in, one outcome line per point
/// and the shard report out, each chunk flushed as it completes.
fn worker() -> Result<(), String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("reading stdin: {e}"))?;
    let manifest = ShardManifest::from_wire(&input).map_err(|e| format!("bad manifest: {e}"))?;
    ba_bench::dist::run_manifest_streaming(&manifest, false, &|chunk: &str| {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = out.write_all(chunk.as_bytes());
        let _ = out.flush();
    })
}

fn run(opts: &Options) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_secs(opts.seconds);
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // Set-up: inputs, reference pass and one checked warm-up pass.
    let mut setup_ns = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so its memory is not counted twice.
        drop(workload.take());
        let start = Instant::now();
        let w = workloads::setup(&opts.workload, opts.seed, threads)?;
        let (_, warm_failed) = w.pass();
        setup_ns.push(nanos(start.elapsed()));
        attempted += w.points();
        failed += warm_failed;
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up ran");
    let points = w.points();

    let mut pass_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut trace = Trace::new();
    let start = Instant::now();
    while start.elapsed() < window {
        let (elapsed, f) = w.pass();
        pass_ns.push(nanos(elapsed));
        attempted += points;
        failed += f;
        if opts.trace {
            let (elapsed, f) = w.traced_pass(&mut trace);
            trace.end_pass(points);
            traced_ns.push(nanos(elapsed));
            attempted += points;
            failed += f;
        }
    }
    let measured = start.elapsed();

    let metrics = if opts.trace {
        let overhead = median(&mut traced_ns.clone()) / median(&mut pass_ns.clone()).max(1.0);
        let metrics = trace.metrics(overhead, alloc::totals());
        write_spans(opts, &trace)?;
        metrics
    } else {
        let timed_points = (pass_ns.len() * points) as f64;
        vec![
            Metric::new("points_per_s", timed_points / measured.as_secs_f64(), "1/s"),
            Metric::new("pass_ms_p50", median(&mut pass_ns) / 1e6, "ms"),
            Metric::new("pass_ms_p90", percentile(&mut pass_ns, 0.9) / 1e6, "ms"),
            Metric::new("setup_s", median(&mut setup_ns) / 1e9, "s"),
            Metric::new(
                "peak_rss_mib",
                peak_rss_bytes() as f64 / (1024.0 * 1024.0),
                "MiB",
            ),
            Metric::new(
                "ok_ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };

    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\"traced_passes\":{},\
         \"passes_beyond_p90\":{},\"points_per_pass\":{points},\"threads\":{threads},\
         \"fingerprint\":{}}}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        pass_ns.len(),
        traced_ns.len(),
        beyond(pass_ns.len(), 0.9),
        fingerprint(),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(&metrics),
    );
    Ok(())
}

fn write_spans(opts: &Options, trace: &Trace) -> Result<(), String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = std::path::Path::new(&target)
        .join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let file =
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    trace
        .write_spans(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Compares two saved outputs metric by metric, refusing when their
/// fingerprints, workloads or trace modes differ.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: perfbench compare RESULT_A RESULT_B".into());
    };
    let (ctx_a, res_a) = read_result(a)?;
    let (ctx_b, res_b) = read_result(b)?;
    for key in ["fingerprint", "workload", "trace"] {
        let (x, y) = (ctx_a.get(key), ctx_b.get(key));
        if x != y {
            return Err(format!(
                "refusing to compare: {key} differs ({x:?} vs {y:?})"
            ));
        }
    }
    let (Some(ba_obs::Json::Obj(ma)), Some(mb)) = (res_a.get("metrics"), res_b.get("metrics"))
    else {
        return Err("result lines carry no metrics".into());
    };
    println!("{:<32} {:>14} {:>14} {:>9}", "metric", "A", "B", "B/A-1");
    for (name, value) in ma {
        let va = value
            .get("value")
            .and_then(ba_obs::Json::as_f64)
            .unwrap_or(0.0);
        let vb = mb
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(ba_obs::Json::as_f64);
        let Some(vb) = vb else {
            println!("{name:<32} {va:>14.4} {:>14} {:>9}", "-", "-");
            continue;
        };
        let change = if va == 0.0 { 0.0 } else { vb / va - 1.0 };
        println!("{name:<32} {va:>14.4} {vb:>14.4} {:>8.1}%", change * 100.0);
    }
    Ok(())
}

/// The context line and the result line of a saved output.
fn read_result(path: &str) -> Result<(ba_obs::Json, ba_obs::Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut lines = text.lines().rev().filter(|l| l.starts_with('{'));
    let result = lines
        .next()
        .and_then(ba_obs::parse_json_line)
        .ok_or(format!("{path}: no result line"))?;
    let context = lines
        .next()
        .and_then(ba_obs::parse_json_line)
        .ok_or(format!("{path}: no context line"))?;
    Ok((context, result))
}
