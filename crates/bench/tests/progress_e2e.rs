//! End-to-end progress pipeline: `campaign_worker --progress` streaming
//! JSONL per-point events, composed through `campaign_watch --once --json`
//! as a filter — the wire report passes through untouched while the
//! telemetry stream is folded into the end-of-run summary, including
//! straggler flagging for a shard throttled by `$CAMPAIGN_WORKER_DELAY_MS`.

use std::io::Write as _;
use std::process::{Command, Stdio};

use ba_dist::{merge_campaign_report, plan_shards, Decode, Encode, ShardReport, SweepSpec};
use ba_sim::{Bit, Campaign, CampaignPoint, ScenarioStats};

fn grid_points() -> Vec<CampaignPoint> {
    Campaign::grid(
        (4..12).map(|n| (n, (n - 1) / 3)),
        &["none", "isolation"],
        &["ones"],
    )
    .points()
    .to_vec()
}

/// Runs one shard's worker binary with `--progress`, optionally throttled,
/// and returns its full stdout (outcome lines and JSONL events interleaved
/// before the wire report).
fn run_worker(manifest_wire: &str, shard: usize, delay_ms: Option<u64>) -> String {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "ba-progress-e2e-{}-shard{shard}.wire",
        std::process::id()
    ));
    std::fs::write(&path, manifest_wire).expect("write manifest");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_worker"));
    cmd.arg("--manifest").arg(&path).arg("--progress");
    match delay_ms {
        Some(ms) => cmd.env("CAMPAIGN_WORKER_DELAY_MS", ms.to_string()),
        None => cmd.env_remove("CAMPAIGN_WORKER_DELAY_MS"),
    };
    let output = cmd.output().expect("spawn campaign_worker");
    let _ = std::fs::remove_file(&path);
    assert!(
        output.status.success(),
        "worker shard {shard} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("worker stdout is UTF-8")
}

/// Pipes a captured progress stream through `campaign_watch --once --json`
/// and returns its stdout: passthrough lines plus one summary JSON line.
fn run_watch(stream: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaign_watch"))
        .arg("--once")
        .arg("--json")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign_watch");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stream.as_bytes())
        .expect("feed campaign_watch");
    let output = child.wait_with_output().expect("campaign_watch exit");
    assert!(
        output.status.success(),
        "campaign_watch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("watch stdout is UTF-8")
}

/// A 2-shard sweep where one worker is wall-clock throttled: the dashboard
/// flags it as the straggler, the sweep completes, and the wire reports —
/// having passed *through* the dashboard filter — still merge to the exact
/// in-process reference.
#[test]
fn throttled_shard_is_flagged_straggler_and_reports_survive_the_filter() {
    let points = grid_points();
    let spec = SweepSpec::scenarios(points.clone(), "dolev-strong")
        .base_seed(0xE2E)
        .worker_threads(1);
    let manifests = plan_shards(&spec, 2);
    assert_eq!(manifests.len(), 2);

    // Shard 0 runs free; shard 1 sleeps 10ms per point, slowing its
    // reported rate by ~3 orders of magnitude without touching any
    // deterministic output.
    let fast = run_worker(&manifests[0].to_wire(), 0, None);
    let slow = run_worker(&manifests[1].to_wire(), 1, Some(10));

    // Each worker emitted one JSONL line per point plus the wire report.
    for (stdout, manifest) in [(&fast, &manifests[0]), (&slow, &manifests[1])] {
        let json_lines = stdout.lines().filter(|l| l.starts_with('{')).count();
        assert_eq!(json_lines, manifest.entries.len());
    }

    let watched = run_watch(&format!("{fast}{slow}"));

    // Non-JSON wire lines passed through untouched. Each worker streamed
    // one `outcome` line per point before its report; skip those. A shard
    // report spans multiple lines (a `shard-report` header then its
    // records), so regroup the remaining lines at each header before
    // decoding.
    let mut chunks: Vec<String> = Vec::new();
    for line in watched
        .lines()
        .filter(|l| !l.starts_with('{') && !l.starts_with("outcome "))
    {
        if line.starts_with("shard-report ") {
            chunks.push(String::new());
        }
        let chunk = chunks.last_mut().expect("records preceded their header");
        chunk.push_str(line);
        chunk.push('\n');
    }
    let reports: Vec<ShardReport<ScenarioStats<Bit>>> = chunks
        .iter()
        .map(|c| ShardReport::from_wire(c).expect("wire chunk survived the filter"))
        .collect();
    assert_eq!(reports.len(), 2, "both shard reports must pass through");
    let merged = merge_campaign_report(&points, reports).expect("merge");
    let reference = ba_bench::dist::scenario_campaign_report(&points, "dolev-strong", 0xE2E, 1)
        .expect("reference sweep");
    assert_eq!(merged, reference, "progress pipeline changed the results");

    // The summary line: sweep complete, shard 1 (and only shard 1) flagged.
    let summary = watched
        .lines()
        .find(|l| l.starts_with("{\"type\":\"summary\""))
        .expect("summary JSON line");
    assert!(summary.contains("\"complete\":true"), "{summary}");
    let shard0 = summary.find("\"shard\":0").expect("shard 0 in summary");
    let shard1 = summary.find("\"shard\":1").expect("shard 1 in summary");
    let shard0_obj = &summary[shard0..shard1];
    let shard1_obj = &summary[shard1..];
    assert!(
        shard0_obj.contains("\"straggler\":false"),
        "shard 0 wrongly flagged: {summary}"
    );
    assert!(
        shard1_obj.contains("\"straggler\":true"),
        "throttled shard 1 not flagged: {summary}"
    );
}
