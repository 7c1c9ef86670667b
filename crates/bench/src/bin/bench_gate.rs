//! `bench_gate` — fails CI when the epoch-loop perf trajectory regresses.
//!
//! ```text
//! bench_gate --baseline BENCH_epoch.committed.json --current BENCH_epoch.json \
//!            [--ratio-tolerance 0.3] [--abs-tolerance 0.6]
//! ```
//!
//! Parses both `BENCH_epoch.json` documents, matches rows **by key** —
//! `(partitions, workload)` — skipping unmatched rows on either side with
//! a warning (so adding or retiring bench rows never fails the gate). Rows
//! of older documents that measured a removed mode (`"threads"` other
//! than 1, or the `"commit": "sequential"` traffic commit) are dropped by
//! the parser and never match. The speculation hit rate of matched rows is
//! **informational**: a collapse warns, never fails. The gate exits
//! non-zero when a matched row fell below either floor:
//!
//! * the **speedup ratio** (indexed over brute-force epochs/sec, both
//!   measured in the same run) — hardware-neutral, so a faster or slower
//!   CI runner than the machine that produced the committed baseline
//!   neither masks a code regression nor fails spuriously; this is the
//!   primary gate;
//! * the **absolute indexed epochs/sec** — a backstop for changes that
//!   slow both pipelines equally; hardware-sensitive, so its default
//!   tolerance is generous.
//!
//! A scaling-slope guard fails when the M = 200 → M = 2000 throughput decay steepens past
//! the ratio tolerance, and the `bytes_per_partition` memory figure is
//! printed informationally.

use std::io::Write as _;
use std::process::ExitCode;

use skute_bench::perf::{
    gate_trajectory, parse_bytes_per_partition, parse_host_cpus, parse_trajectory,
};

struct Args {
    baseline: String,
    current: String,
    ratio_tolerance: f64,
    abs_tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut ratio_tolerance = 0.3f64;
    let mut abs_tolerance = 0.6f64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = Some(value("--current")?),
            "--ratio-tolerance" => {
                ratio_tolerance = value("--ratio-tolerance")?
                    .parse()
                    .map_err(|e| format!("--ratio-tolerance: {e}"))?
            }
            "--abs-tolerance" => {
                abs_tolerance = value("--abs-tolerance")?
                    .parse()
                    .map_err(|e| format!("--abs-tolerance: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "bench_gate: diff BENCH_epoch.json against the committed trajectory\n\n\
                     USAGE: bench_gate --baseline PATH --current PATH\n\
                            [--ratio-tolerance FRAC] [--abs-tolerance FRAC]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if !(0.0..1.0).contains(&ratio_tolerance) || !(0.0..1.0).contains(&abs_tolerance) {
        return Err("tolerances must lie in [0, 1)".into());
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        ratio_tolerance,
        abs_tolerance,
    })
}

/// Emits a GitHub Actions workflow annotation (`::error::` /
/// `::warning::`) when running under Actions; a plain line otherwise.
/// Annotations surface on the PR's checks tab without digging into logs.
fn gh_annotate(level: &str, msg: &str) {
    if std::env::var_os("GITHUB_ACTIONS").is_some() {
        // Annotation payloads are single-line; fold any newlines.
        println!("::{level}::{}", msg.replace('\n', " "));
    } else {
        println!("bench_gate: {level}: {msg}");
    }
}

/// Appends markdown lines to the CI job summary, if one is available.
fn append_step_summary(markdown: &str) {
    let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
        let _ = writeln!(f, "{markdown}");
    }
}

/// Warns — on stdout and, when `$GITHUB_STEP_SUMMARY` is set, as a line
/// in the CI job summary — when the committed baseline was produced on a
/// machine with a different core count than this runner. The ratio floor
/// is hardware-neutral, but the absolute epochs/sec backstop is only
/// comparable on similar hardware.
fn warn_on_host_mismatch(baseline_path: &str, baseline_body: &str) {
    let Some(baseline_cpus) = parse_host_cpus(baseline_body) else {
        return; // Pre-host_cpus document: nothing to compare.
    };
    let runner_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if baseline_cpus == runner_cpus {
        return;
    }
    let msg = format!(
        "committed baseline {baseline_path} was produced on a {baseline_cpus}-cpu host but \
         this runner has {runner_cpus} cpus — the absolute epochs/sec floor is not \
         hardware-comparable; trust the speedup-ratio floor and consider recommitting \
         the baseline from this runner class"
    );
    gh_annotate("warning", &msg);
    append_step_summary(&format!(":warning: **bench_gate**: {msg}"));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(body) => Some(body),
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(&args.baseline), read(&args.current)) else {
        return ExitCode::FAILURE;
    };
    warn_on_host_mismatch(&args.baseline, &baseline);
    // The memory figure is informational: printed, never gated.
    match (
        parse_bytes_per_partition(&baseline),
        parse_bytes_per_partition(&current),
    ) {
        (Some(b), Some(c)) => {
            println!("bench_gate: bytes/partition (RSS at M = 2000): {b} → {c} (informational)");
        }
        (_, Some(c)) => {
            println!("bench_gate: bytes/partition (RSS at M = 2000): {c} (informational)")
        }
        _ => {}
    }
    let baseline = parse_trajectory(&baseline);
    let current = parse_trajectory(&current);
    if baseline.is_empty() {
        eprintln!("error: no result rows in {}", args.baseline);
        return ExitCode::FAILURE;
    }
    if current.is_empty() {
        eprintln!("error: no result rows in {}", args.current);
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: {} baseline rows vs {} fresh rows, ratio tolerance {:.0}%, \
         absolute tolerance {:.0}%",
        baseline.len(),
        current.len(),
        args.ratio_tolerance * 100.0,
        args.abs_tolerance * 100.0
    );
    let ratio = |eps: f64, brute: f64| if brute > 0.0 { eps / brute } else { 0.0 };
    let mut summary_table = String::from(
        "### bench_gate\n\n| row | indexed epochs/sec | Δ | speedup |\n|---|---|---|---|\n",
    );
    for b in &baseline {
        let fresh = current.iter().find(|c| c.key() == b.key());
        match fresh {
            Some(c) => {
                let delta = if b.indexed_eps > 0.0 {
                    format!(
                        "{:+.1}%",
                        100.0 * (c.indexed_eps - b.indexed_eps) / b.indexed_eps
                    )
                } else {
                    "n/a".to_string()
                };
                let hit_rate = match (b.spec_hit_rate, c.spec_hit_rate) {
                    (Some(bh), Some(ch)) => {
                        format!(", spec hit {:.0}% → {:.0}%", bh * 100.0, ch * 100.0)
                    }
                    _ => String::new(),
                };
                println!(
                    "  {}: indexed {:>10.2} → {:>10.2} epochs/sec ({delta}), \
                     speedup {:.2}x → {:.2}x{hit_rate}",
                    b.describe_key(),
                    b.indexed_eps,
                    c.indexed_eps,
                    ratio(b.indexed_eps, b.brute_eps),
                    ratio(c.indexed_eps, c.brute_eps),
                );
                summary_table.push_str(&format!(
                    "| {} | {:.1} → {:.1} | {delta} | {:.2}x → {:.2}x |\n",
                    b.describe_key(),
                    b.indexed_eps,
                    c.indexed_eps,
                    ratio(b.indexed_eps, b.brute_eps),
                    ratio(c.indexed_eps, c.brute_eps),
                ));
            }
            None => {
                println!("  {}: row missing (skipped)", b.describe_key());
                summary_table.push_str(&format!("| {} | _row missing_ | | |\n", b.describe_key()));
            }
        }
    }
    let report = gate_trajectory(
        &baseline,
        &current,
        args.ratio_tolerance,
        args.abs_tolerance,
    );
    for w in &report.warnings {
        gh_annotate("warning", w);
    }
    if report.passed() {
        let verdict = format!(
            "trajectory holds ({} row{} gated)",
            report.matched,
            if report.matched == 1 { "" } else { "s" }
        );
        println!("bench_gate: {verdict}");
        summary_table.push_str(&format!("\n:white_check_mark: {verdict}\n"));
        append_step_summary(&summary_table);
        ExitCode::SUCCESS
    } else {
        if report.matched == 0 {
            gh_annotate(
                "error",
                "bench_gate: no baseline row matched any fresh row — the sweep or the \
                 JSON row format changed out from under the gate",
            );
        }
        for v in &report.violations {
            gh_annotate("error", &format!("bench_gate regression: {v}"));
            eprintln!("bench_gate: REGRESSION: {v}");
        }
        summary_table.push_str(&format!(
            "\n:x: **{} regression{}** — see error annotations\n",
            report.violations.len(),
            if report.violations.len() == 1 {
                ""
            } else {
                "s"
            }
        ));
        append_step_summary(&summary_table);
        ExitCode::FAILURE
    }
}
