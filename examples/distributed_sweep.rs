//! Distributed campaign sharding, end to end: plan a mixed-adversary grid,
//! fan it out over `campaign_worker` processes, and verify the merged
//! report is bit-identical to the single-process sweep.
//!
//! ```text
//! cargo build -p ba-bench --bin campaign_worker   # the worker
//! cargo run -p ba-examples --example distributed_sweep [SHARDS] \
//!     [--progress FILE] [--chaos SEED] [--partial FILE]
//! ```
//!
//! The worker binary is located automatically (next to this example's own
//! executable under `target/`), or explicitly via `$CAMPAIGN_WORKER`.
//!
//! With `--progress FILE`, workers run with `--progress` and the
//! coordinator's observer appends every streamed [`ba_dist::CoordEvent`] to
//! FILE as JSONL — the capture `campaign_watch --once` summarizes and CI
//! uploads as an artifact. Telemetry is observation-only: the merged report
//! is bit-identical with or without it.
//!
//! With `--chaos SEED`, the worker transport is wrapped in a deterministic
//! [`ba_dist::ChaosTransport`] injecting seeded crashes, stalls, truncated
//! and corrupted streams, and connection drops — a *recoverable* schedule
//! (faults relent after two attempts per shard). The point-level recovery
//! fabric (streamed outcome harvest, watchdog, work-stealing re-plan) must
//! still reproduce the in-process report bit-for-bit; the example exits
//! non-zero if it does not. This is the CI chaos smoke.
//!
//! With `--partial FILE`, an *unrecoverable* chaos schedule (every attempt
//! faulted) exhausts the retry budget instead, and the typed
//! [`ba_dist::PartialReport`] — merged survivors plus the coverage map of
//! missing points — is written to FILE as JSON.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Duration;

use ba_bench::dist::scenario_campaign_report;
use ba_dist::{
    plan_shards, Backoff, ChaosPlan, ChaosTransport, Coordinator, SweepSpec, WorkerCommand,
};
use ba_examples::banner;
use ba_sim::Campaign;

fn main() {
    let mut shards: usize = 2;
    let mut progress_path: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut partial_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--progress" => {
                progress_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--progress needs a file path");
                    std::process::exit(1);
                }));
            }
            "--chaos" => {
                let seed = args.next().unwrap_or_else(|| {
                    eprintln!("--chaos needs a seed");
                    std::process::exit(1);
                });
                chaos_seed = Some(seed.parse().unwrap_or_else(|_| {
                    eprintln!("bad --chaos seed {seed:?}");
                    std::process::exit(1);
                }));
            }
            "--partial" => {
                partial_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--partial needs a file path");
                    std::process::exit(1);
                }));
            }
            other => match other.parse() {
                Ok(count) => shards = count,
                Err(_) => {
                    eprintln!("unknown argument {other:?}");
                    eprintln!(
                        "usage: distributed_sweep [SHARDS] [--progress FILE] \
                         [--chaos SEED] [--partial FILE]"
                    );
                    std::process::exit(1);
                }
            },
        }
    }

    print!("{}", banner("Distributed campaign sharding"));
    let worker = WorkerCommand::locate_checked().unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("build it first:  cargo build -p ba-bench --bin campaign_worker");
        eprintln!("(or point $CAMPAIGN_WORKER at one)");
        std::process::exit(1);
    });
    println!("worker: {}", worker.program().display());

    // A mixed-adversary grid: four (n, t) sizes × four adversaries × two
    // input profiles, one seeded per point.
    let grid = Campaign::grid(
        [(6, 1), (8, 2), (10, 2), (12, 4)],
        &["none", "isolation", "crash", "random-omission"],
        &["ones", "random"],
    );
    let points = grid.points().to_vec();
    let spec = SweepSpec::scenarios(points.clone(), "dolev-strong").base_seed(0xD15C);

    println!(
        "grid: {} points, split into {} shard(s):",
        points.len(),
        shards
    );
    for manifest in plan_shards(&spec, shards) {
        let first = manifest.entries.first().expect("non-empty shard");
        let last = manifest.entries.last().expect("non-empty shard");
        println!(
            "  shard {}: {} points (grid indices {}..={})",
            manifest.shard,
            manifest.entries.len(),
            first.index,
            last.index
        );
    }

    let reference =
        scenario_campaign_report(&points, "dolev-strong", 0xD15C, 0).expect("in-process sweep");

    // Budget-exhaustion demo: every attempt faulted, so the sweep degrades
    // to a typed PartialReport instead of failing outright.
    if let Some(path) = &partial_path {
        let seed = chaos_seed.unwrap_or(0xBAD);
        println!("\nunrecoverable chaos (seed {seed}): expecting partial coverage");
        let chaos = ChaosTransport::new(
            worker.clone().with_progress(true),
            ChaosPlan::unrecoverable(seed),
        );
        let partial = Coordinator::new(chaos, shards)
            .retries(1)
            .backoff(Backoff::none())
            .watchdog(Duration::from_secs(2))
            .run_campaign_partial(&spec);
        println!("{}", partial.coverage_summary());
        std::fs::write(path, partial.coverage_json()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        println!("partial report JSON written to {path}");
        let (covered, grid_len) = (
            partial.covered.outcomes.len() + partial.missing.len(),
            points.len(),
        );
        assert_eq!(covered, grid_len, "coverage map must partition the grid");
        return;
    }

    // Fan out: one worker process per shard, reports streamed back and
    // merged in grid order. With --progress, per-point telemetry from the
    // workers is captured as JSONL on the side. With --chaos, the transport
    // injects recoverable seeded faults the fabric must absorb.
    let observer = progress_path.as_ref().map(|path| {
        let file = Mutex::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("creating {path}: {e}");
            std::process::exit(1);
        }));
        println!("streaming progress JSONL to {path}");
        move |event: &ba_dist::CoordEvent| {
            let mut file = file.lock().expect("progress file lock");
            let _ = writeln!(file, "{}", event.to_json_line());
        }
    });

    let report = match chaos_seed {
        Some(seed) => {
            println!("\nrecoverable chaos (seed {seed}): fabric must absorb every fault");
            let chaos = ChaosTransport::new(worker.with_progress(true), ChaosPlan::new(seed));
            let mut coordinator = Coordinator::new(chaos, shards)
                .retries(4)
                .backoff(Backoff {
                    base: Duration::from_millis(5),
                    max: Duration::from_millis(50),
                    jitter: 0.5,
                    seed,
                })
                .watchdog(Duration::from_secs(2));
            if let Some(observer) = observer {
                coordinator = coordinator.on_event(observer);
            }
            coordinator.run_campaign(&spec).expect("chaos sweep")
        }
        None => {
            let worker = if progress_path.is_some() {
                worker.with_progress(true)
            } else {
                worker
            };
            let mut coordinator = Coordinator::new(worker, shards);
            if let Some(observer) = observer {
                coordinator = coordinator.on_event(observer);
            }
            coordinator.run_campaign(&spec).expect("distributed sweep")
        }
    };

    print!("{}", banner("Merged report (grid order)"));
    print!("{}", report.summary());

    // The whole point: merge(k shards) == run(1 process), bit for bit —
    // chaos or no chaos.
    assert_eq!(report, reference);
    println!(
        "\n{} worker shard(s) reproduced the in-process sweep exactly: \
         {} points, {} correct-process messages ✓",
        shards,
        report.outcomes.len(),
        report.total_message_complexity()
    );
}
