//! The epoch-loop performance harness behind `benches/epoch_loop.rs` and
//! `skute-sim --bench-json`: drives identical scaled scenarios through the
//! rent-indexed and brute-force decision pipelines, measures epochs/sec and
//! ns/decision, and serializes the result as `BENCH_epoch.json` so every PR
//! leaves a machine-readable perf trajectory behind.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use skute_sim::{paper, CloudEvent, Schedule, Simulation};

/// Workload shape layered on the cold start: every row replays the scaled
/// paper scenario, optionally with a mid-run stress schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pure cold start: the decision-heavy convergence ramp, then steady
    /// state.
    Steady,
    /// Server churn: a scattered failure burst plus a capacity upgrade
    /// keep many actions executing per epoch — the workload whose commit
    /// pass the read-set speculation turns from re-walks into validations.
    Churn,
    /// Correlated outage: every server of one country fails in the same
    /// epoch, so the availability-repair pass absorbs a concentrated
    /// backlog under its per-epoch cap.
    Outage,
}

impl Workload {
    /// The JSON/table label (`"steady"` / `"churn"` / `"outage"`).
    pub fn label(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Churn => "churn",
            Workload::Outage => "outage",
        }
    }
}

/// Timing of one pipeline over one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineTiming {
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
    /// Epochs per wall-clock second.
    pub epochs_per_sec: f64,
    /// Nanoseconds per virtual-node decision (total wall clock over the
    /// summed per-epoch vnode counts — every vnode decides every epoch).
    pub ns_per_decision: f64,
    /// Total vnode decisions over the run.
    pub decisions: u64,
    /// Speculative eq.-(3) targets honored by the decision commit passes
    /// over the run (identical across pipelines — the trajectory is
    /// deterministic).
    pub spec_hits: u64,
    /// Speculations discarded and re-walked over the run.
    pub spec_misses: u64,
}

/// Head-to-head result for one partition count and one workload shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochLoopResult {
    /// Partitions per application (the paper's M).
    pub partitions: usize,
    /// Epochs driven (from a cold start, so the run covers the
    /// decision-heavy convergence phase, not just the converged steady
    /// state).
    pub epochs: u64,
    /// The workload shape layered on the cold start.
    pub workload: Workload,
    /// The rent-indexed pipeline (the default).
    pub indexed: PipelineTiming,
    /// The brute-force full-scan pipeline (the pre-optimization oracle).
    pub brute_force: PipelineTiming,
}

impl EpochLoopResult {
    /// Indexed-over-brute-force throughput ratio.
    pub fn speedup(&self) -> f64 {
        if self.brute_force.epochs_per_sec <= 0.0 {
            return 0.0;
        }
        self.indexed.epochs_per_sec / self.brute_force.epochs_per_sec
    }

    /// Fraction of speculations honored over the run (from the indexed
    /// pipeline; the brute-force pipeline replays the same trajectory),
    /// or `None` when no speculation was evaluated.
    pub fn spec_hit_rate(&self) -> Option<f64> {
        let total = self.indexed.spec_hits + self.indexed.spec_misses;
        (total > 0).then(|| self.indexed.spec_hits as f64 / total as f64)
    }
}

/// Times one pipeline over the scaled scenario with `partitions` per app.
///
/// Best-of-two: the run is measured twice (identical trajectories — the
/// scenario is seeded) and the faster wall clock kept, so a single
/// scheduler preemption landing inside one millisecond-scale measurement
/// window cannot masquerade as a regression in the gated trajectory.
pub fn time_pipeline(
    partitions: usize,
    epochs: u64,
    brute_force: bool,
    workload: Workload,
) -> PipelineTiming {
    let mut best: Option<PipelineTiming> = None;
    for _ in 0..2 {
        let mut scenario = paper::scaled_scenario(
            &format!("epoch-loop-m{partitions}"),
            partitions,
            3_000,
            epochs,
        );
        scenario.seed = 0xBE_7C;
        scenario.config.brute_force_placement = brute_force;
        match workload {
            Workload::Steady => {}
            Workload::Churn => {
                // Keep the decision phase busy past the cold-start ramp: a
                // failure burst forces repairs/migrations mid-run, then a
                // capacity upgrade re-opens cheap placements.
                scenario.schedule = Schedule::new()
                    .at(epochs / 3 + 1, CloudEvent::RemoveServers { count: 20 })
                    .at(2 * epochs / 3 + 1, CloudEvent::AddServers { count: 20 });
            }
            Workload::Outage => {
                // A whole country fails at once: the repair pass drains
                // the concentrated backlog over the following epochs.
                let (continent, country) = scenario
                    .topology
                    .iter_countries()
                    .next()
                    .expect("the paper topology has countries");
                scenario.schedule = Schedule::new().at(
                    epochs / 3 + 1,
                    CloudEvent::CountryOutage { continent, country },
                );
            }
        }
        let mut sim = Simulation::new(scenario);
        let mut decisions = 0u64;
        let mut spec_hits = 0u64;
        let mut spec_misses = 0u64;
        let start = Instant::now();
        for _ in 0..epochs {
            let obs = sim.step();
            decisions += obs.report.total_vnodes() as u64;
            spec_hits += obs.report.actions.spec_hits;
            spec_misses += obs.report.actions.spec_misses;
        }
        let seconds = start.elapsed().as_secs_f64();
        let timing = PipelineTiming {
            seconds,
            epochs_per_sec: epochs as f64 / seconds.max(1e-12),
            ns_per_decision: seconds * 1e9 / decisions.max(1) as f64,
            decisions,
            spec_hits,
            spec_misses,
        };
        if best.is_none_or(|b| timing.seconds < b.seconds) {
            best = Some(timing);
        }
    }
    best.expect("two passes ran")
}

/// Runs both pipelines at one partition count on the steady cold start.
pub fn run_epoch_loop(partitions: usize, epochs: u64) -> EpochLoopResult {
    run_epoch_loop_mode(partitions, epochs, Workload::Steady)
}

/// Runs both pipelines at one partition count and workload shape.
pub fn run_epoch_loop_mode(partitions: usize, epochs: u64, workload: Workload) -> EpochLoopResult {
    EpochLoopResult {
        partitions,
        epochs,
        workload,
        indexed: time_pipeline(partitions, epochs, false, workload),
        brute_force: time_pipeline(partitions, epochs, true, workload),
    }
}

/// The standard sweep: the paper's M = 200 plus two reduced scales, a
/// **convergence/churn** row (M = 200 with a failure burst and a
/// capacity upgrade) where dozens of actions execute per epoch — the
/// workload whose commit pass the read-set speculation turns from
/// re-walks into validations (its hit rate lands in the JSON) — and an
/// **outage-burst** row (M = 200 with a whole-country failure) where the
/// availability-repair pass drains a concentrated backlog, so the gate
/// guards repair throughput under correlated failures. Two **memory
/// scale** rows push M to 2000 (steady and churn, few epochs — the cold
/// start at that scale is the expensive part) so the gate's scaling-slope
/// guard can compare M = 200 → M = 2000 throughput decay against the
/// baseline, and `BENCH_epoch.json` charts a `bytes_per_partition`
/// figure at the same scale. Epoch counts shrink as M grows so the
/// whole sweep stays a smoke-test-sized run while still covering the
/// decision-heavy convergence phase.
pub fn standard_sweep() -> Vec<EpochLoopResult> {
    use Workload::{Churn, Outage, Steady};
    [
        (16usize, 40u64, Steady),
        (50, 25, Steady),
        (200, 12, Steady),
        // Convergence/churn row: a failure burst and a capacity upgrade
        // keep many actions executing per epoch, charting the
        // speculation hit rate of the decision commit pass.
        (200, 18, Churn),
        // Outage-burst row: repair throughput under a correlated
        // whole-country failure.
        (200, 18, Outage),
        // Memory-scale rows: M = 2000 partitions per app (the server
        // count stays the paper's 200), anchoring the scaling-slope
        // guard and the bytes-per-partition figure.
        (2_000, 4, Steady),
        (2_000, 6, Churn),
    ]
    .into_iter()
    .map(|(m, epochs, w)| run_epoch_loop_mode(m, epochs, w))
    .collect()
}

fn timing_json(t: &PipelineTiming) -> String {
    format!(
        "{{\"seconds\": {:.6}, \"epochs_per_sec\": {:.3}, \"ns_per_decision\": {:.1}, \"decisions\": {}}}",
        t.seconds, t.epochs_per_sec, t.ns_per_decision, t.decisions
    )
}

/// Serializes a sweep as the `BENCH_epoch.json` document. `host_cpus`
/// records the bench machine's available parallelism so absolute rows are
/// read in context.
pub fn to_json(results: &[EpochLoopResult]) -> String {
    to_json_full(results, None)
}

/// [`to_json`] plus the optional top-level `bytes_per_partition` memory
/// figure (see [`measure_bytes_per_partition`]); `None` omits the field.
pub fn to_json_full(results: &[EpochLoopResult], bytes_per_partition: Option<u64>) -> String {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"epoch_loop\",\n");
    out.push_str("  \"scenario\": \"scaled paper workload, cold start, 3000 queries/epoch\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    if let Some(bpp) = bytes_per_partition {
        out.push_str(&format!("  \"bytes_per_partition\": {bpp},\n"));
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        // Rows that evaluated no speculation at all omit the spec fields
        // entirely (the parser maps absence back to `None`), so a future
        // baseline can never mistake "not measured" for a 0% hit rate.
        let spec = match r.spec_hit_rate() {
            Some(hr) => format!(
                "\"spec_hits\": {}, \"spec_misses\": {}, \"spec_hit_rate\": {:.4}, ",
                r.indexed.spec_hits, r.indexed.spec_misses, hr
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"partitions\": {}, \"epochs\": {}, \"workload\": \"{}\", {}\"indexed\": {}, \"brute_force\": {}, \"speedup\": {:.2}}}{}\n",
            r.partitions,
            r.epochs,
            r.workload.label(),
            spec,
            timing_json(&r.indexed),
            timing_json(&r.brute_force),
            r.speedup(),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Resident-set size of this process, from `/proc/self/status` (`None`
/// off Linux).
fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The sweep's memory figure: resident-set growth of building the
/// M = 2000 scaled scenario and running its first epoch (stores, rings
/// and pipeline scratch all populated), divided by the total partition
/// count. Informational — a coarse RSS delta, `None` off Linux — but
/// tracked in `BENCH_epoch.json` so per-partition memory growth is
/// visible across the trajectory just like throughput.
pub fn measure_bytes_per_partition() -> Option<u64> {
    let before = vm_rss_bytes()?;
    let mut scenario = paper::scaled_scenario("mem-figure-m2000", 2_000, 3_000, 2);
    scenario.seed = 0xBE_7C;
    let mut sim = Simulation::new(scenario);
    let obs = sim.step();
    let partitions: usize = obs.report.rings.iter().map(|r| r.partitions).sum();
    let after = vm_rss_bytes()?;
    Some(after.saturating_sub(before) / partitions.max(1) as u64)
}

/// Parses the top-level `bytes_per_partition` field of a
/// `BENCH_epoch.json` document. `None` when the document predates the
/// field (or was produced off Linux).
pub fn parse_bytes_per_partition(json: &str) -> Option<u64> {
    json.lines()
        .find(|l| l.contains("\"bytes_per_partition\""))
        .and_then(|l| num_after(l, "\"bytes_per_partition\""))
        .map(|n| n as u64)
}

/// One row parsed back out of a `BENCH_epoch.json` document: the key
/// `(partitions, workload)` plus both pipelines' epochs/sec and the
/// informational speculation hit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryRow {
    /// Partitions per application.
    pub partitions: usize,
    /// Workload shape ([`Workload::Steady`] when the document predates
    /// the field — older documents only measured the steady cold start).
    pub workload: Workload,
    /// Indexed-pipeline epochs per second.
    pub indexed_eps: f64,
    /// Brute-force-pipeline epochs per second.
    pub brute_eps: f64,
    /// Speculation hit rate of the run, when the document records one.
    /// Informational: the gate warns on a collapse, never fails.
    pub spec_hit_rate: Option<f64>,
}

impl TrajectoryRow {
    /// The row-matching key: rows are compared across documents only when
    /// partitions and workload both agree.
    pub fn key(&self) -> (usize, Workload) {
        (self.partitions, self.workload)
    }

    /// Human-readable rendering of [`TrajectoryRow::key`].
    pub fn describe_key(&self) -> String {
        format!("M = {}, {}", self.partitions, self.workload.label())
    }
}

fn num_after(s: &str, key: &str) -> Option<f64> {
    let at = s.find(key)? + key.len();
    let rest = s[at..].trim_start_matches([' ', ':']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `host_cpus` field of a `BENCH_epoch.json` document: the
/// available parallelism of the machine that produced it. `None` when the
/// document predates the field. The bench gate compares it against the
/// runner's own parallelism and warns loudly on a mismatch — the absolute
/// epochs/sec floor is only meaningful
/// when baseline and fresh run saw comparable hardware.
pub fn parse_host_cpus(json: &str) -> Option<usize> {
    json.lines()
        .find(|l| l.contains("\"host_cpus\""))
        .and_then(|l| num_after(l, "\"host_cpus\""))
        .map(|n| n as usize)
}

/// Parses the result rows of a `BENCH_epoch.json` document (the format
/// [`to_json`] writes: one result object per line). Older documents carry
/// fields for modes that no longer exist; rows measuring a removed mode
/// are dropped, so they never match a fresh row:
///
/// * `"threads"`: rows at `threads = 1` measured the single-threaded
///   engine that remains and parse as usual; rows at any other budget
///   measured the removed worker pool;
/// * `"commit"`: `"parallel"` rows measured the only traffic commit that
///   remains, `"sequential"` rows a removed commit mode.
pub fn parse_trajectory(json: &str) -> Vec<TrajectoryRow> {
    let mut rows = Vec::new();
    for line in json.lines() {
        let Some(partitions) = num_after(line, "\"partitions\"") else {
            continue;
        };
        if line.contains("\"commit\": \"sequential\"")
            || num_after(line, "\"threads\"").is_some_and(|t| t != 1.0)
        {
            continue;
        }
        let workload = match line.find("\"workload\"").map(|i| &line[i..]) {
            Some(rest) if rest.starts_with("\"workload\": \"churn\"") => Workload::Churn,
            Some(rest) if rest.starts_with("\"workload\": \"outage\"") => Workload::Outage,
            _ => Workload::Steady,
        };
        let spec_hit_rate = num_after(line, "\"spec_hit_rate\"");
        let indexed = line.find("\"indexed\"").map(|i| &line[i..]);
        let brute = line.find("\"brute_force\"").map(|i| &line[i..]);
        let (Some(indexed), Some(brute)) = (indexed, brute) else {
            continue;
        };
        let (Some(indexed_eps), Some(brute_eps)) = (
            num_after(indexed, "\"epochs_per_sec\""),
            num_after(brute, "\"epochs_per_sec\""),
        ) else {
            continue;
        };
        rows.push(TrajectoryRow {
            partitions: partitions as usize,
            workload,
            indexed_eps,
            brute_eps,
            spec_hit_rate,
        });
    }
    rows
}

/// Outcome of diffing a fresh trajectory against the committed baseline:
/// hard failures and advisory warnings, kept apart so a changed row *set*
/// (new bench rows, retired rows) never fails the gate while a regressed
/// row always does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Regressions beyond tolerance; non-empty fails the gate.
    pub violations: Vec<String>,
    /// Unmatched rows on either side, skipped rather than gated.
    pub warnings: Vec<String>,
    /// Baseline rows that found a fresh partner and were actually gated.
    /// Callers must treat `0` as a failure in its own right: a sweep or
    /// JSON-format regression that empties the fresh row set would
    /// otherwise downgrade every row to a warning and wave CI through
    /// with the gate checking nothing.
    pub matched: usize,
}

impl GateReport {
    /// True when no violation was recorded **and** at least one row was
    /// actually compared (warnings do not fail; gating nothing does).
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.matched > 0
    }
}

/// Diffs a fresh trajectory against the committed baseline. Rows are
/// matched **by key** — `(partitions, workload)` — and rows
/// without a partner on the other side (a freshly added bench row, or a
/// retired one) are *skipped with a warning* instead of failing the gate,
/// so evolving the sweep's row set never requires lock-step baseline
/// surgery. Every matched row must clear two floors:
///
/// * **speedup ratio** (primary, hardware-neutral): the row's
///   indexed-over-brute-force epochs/sec ratio — both pipelines measured
///   in the same run on the same machine — must not fall more than
///   `ratio_tolerance` below the baseline's ratio. A faster or slower CI
///   runner moves both pipelines together, so this floor tracks the code,
///   not the hardware.
/// * **absolute epochs/sec** (backstop): the indexed throughput must not
///   fall more than `abs_tolerance` below the baseline's. This catches
///   regressions that slow both pipelines equally, at the cost of
///   hardware sensitivity — keep its tolerance generous.
///
/// A **scaling-slope** guard additionally compares the M = 200 →
/// M = 2000 throughput decay (steady workload) across documents:
/// a slope steepening past `ratio_tolerance` fails, catching
/// superlinear per-partition cost creep that per-row floors — each
/// gated against its own baseline row — would wave through.
pub fn gate_trajectory(
    baseline: &[TrajectoryRow],
    current: &[TrajectoryRow],
    ratio_tolerance: f64,
    abs_tolerance: f64,
) -> GateReport {
    let mut report = GateReport::default();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key() == b.key()) else {
            report.warnings.push(format!(
                "baseline row ({}) has no match in the fresh trajectory; skipped",
                b.describe_key()
            ));
            continue;
        };
        report.matched += 1;
        let b_ratio = if b.brute_eps > 0.0 {
            b.indexed_eps / b.brute_eps
        } else {
            0.0
        };
        let c_ratio = if c.brute_eps > 0.0 {
            c.indexed_eps / c.brute_eps
        } else {
            0.0
        };
        let ratio_floor = b_ratio * (1.0 - ratio_tolerance);
        if c_ratio < ratio_floor {
            report.violations.push(format!(
                "{}: speedup {:.2}x fell below {:.2}x \
                 (baseline {:.2}x, tolerance {:.0}%)",
                b.describe_key(),
                c_ratio,
                ratio_floor,
                b_ratio,
                ratio_tolerance * 100.0
            ));
        }
        let abs_floor = b.indexed_eps * (1.0 - abs_tolerance);
        if c.indexed_eps < abs_floor {
            report.violations.push(format!(
                "{}: indexed {:.2} epochs/sec fell below {:.2} \
                 (baseline {:.2}, tolerance {:.0}%)",
                b.describe_key(),
                c.indexed_eps,
                abs_floor,
                b.indexed_eps,
                abs_tolerance * 100.0
            ));
        }
        // The speculation hit rate is **informational**: a collapse
        // (halved, or gone entirely) warns but never fails — wall-clock
        // regressions are what the floors above gate.
        if let (Some(b_hr), Some(c_hr)) = (b.spec_hit_rate, c.spec_hit_rate) {
            if b_hr > 0.0 && c_hr < b_hr * 0.5 {
                report.warnings.push(format!(
                    "{}: speculation hit rate fell {:.0}% → {:.0}% \
                     (informational, not gated)",
                    b.describe_key(),
                    b_hr * 100.0,
                    c_hr * 100.0
                ));
            }
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.key() == c.key()) {
            report.warnings.push(format!(
                "fresh row ({}) is not in the baseline; not gated",
                c.describe_key()
            ));
        }
    }
    // Scaling-slope guard (see the doc comment above).
    let slope = |rows: &[TrajectoryRow]| -> Option<f64> {
        let eps_at = |m: usize| {
            rows.iter()
                .find(|r| r.key() == (m, Workload::Steady))
                .map(|r| r.indexed_eps)
        };
        let (small, large) = (eps_at(200)?, eps_at(2_000)?);
        (large > 0.0).then(|| small / large)
    };
    match (slope(baseline), slope(current)) {
        (Some(b), Some(c)) => {
            let ceiling = b * (1.0 + ratio_tolerance);
            if c > ceiling {
                report.violations.push(format!(
                    "scaling slope: the M 200 → 2000 throughput ratio {c:.2} \
                     exceeded {ceiling:.2} (baseline {b:.2}, tolerance {:.0}%) — \
                     per-partition cost grew superlinearly",
                    ratio_tolerance * 100.0
                ));
            }
        }
        (None, Some(_)) => report.warnings.push(
            "scaling slope: the baseline lacks the M = 2000 steady row, so the \
             slope is not gated (recommit the baseline to arm it)"
                .into(),
        ),
        _ => {}
    }
    report
}

/// Writes the sweep to `path` as JSON.
pub fn write_json(path: &Path, results: &[EpochLoopResult]) -> std::io::Result<()> {
    write_json_full(path, results, None)
}

/// [`write_json`] plus the optional `bytes_per_partition` memory figure.
pub fn write_json_full(
    path: &Path,
    results: &[EpochLoopResult],
    bytes_per_partition: Option<u64>,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json_full(results, bytes_per_partition).as_bytes())
}

/// Prints the human-readable comparison table for a sweep.
pub fn print_table(results: &[EpochLoopResult]) {
    println!(
        "{:>6} {:>7} {:>8} {:>14} {:>14} {:>12} {:>12} {:>8} {:>8}",
        "M",
        "epochs",
        "workload",
        "indexed ep/s",
        "brute ep/s",
        "idx ns/dec",
        "brute ns/dec",
        "speedup",
        "spec hit"
    );
    for r in results {
        println!(
            "{:>6} {:>7} {:>8} {:>14.2} {:>14.2} {:>12.0} {:>12.0} {:>7.2}x {:>8}",
            r.partitions,
            r.epochs,
            r.workload.label(),
            r.indexed.epochs_per_sec,
            r.brute_force.epochs_per_sec,
            r.indexed.ns_per_decision,
            r.brute_force.ns_per_decision,
            r.speedup(),
            match r.spec_hit_rate() {
                Some(hr) => format!("{:.0}%", hr * 100.0),
                None => "n/a".to_string(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_positive_and_json_is_well_formed() {
        let r = run_epoch_loop(4, 3);
        assert!(r.indexed.seconds > 0.0);
        assert!(r.brute_force.seconds > 0.0);
        assert!(r.indexed.decisions > 0);
        assert_eq!(
            r.indexed.decisions, r.brute_force.decisions,
            "same trajectory"
        );
        let json = to_json(&[r]);
        assert!(json.contains("\"bench\": \"epoch_loop\""));
        assert!(json.contains("\"partitions\": 4"));
        assert!(!json.contains("\"threads\""));
        assert!(!json.contains("\"commit\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"speedup\""));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the offline dependency set).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn write_json_roundtrips_to_disk() {
        let path = figures_tmp().join("bench_epoch_test.json");
        let r = run_epoch_loop(4, 2);
        write_json(&path, &[r]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("epoch_loop"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trajectory_roundtrips_through_parser() {
        let rows = [
            EpochLoopResult {
                partitions: 200,
                epochs: 12,
                workload: Workload::Steady,
                indexed: PipelineTiming {
                    seconds: 0.5,
                    epochs_per_sec: 24.0,
                    ns_per_decision: 700.0,
                    decisions: 100,
                    spec_hits: 30,
                    spec_misses: 10,
                },
                brute_force: PipelineTiming {
                    seconds: 1.0,
                    epochs_per_sec: 12.0,
                    ns_per_decision: 5000.0,
                    decisions: 100,
                    spec_hits: 30,
                    spec_misses: 10,
                },
            },
            EpochLoopResult {
                partitions: 200,
                epochs: 12,
                workload: Workload::Outage,
                indexed: PipelineTiming {
                    seconds: 0.25,
                    epochs_per_sec: 48.0,
                    ns_per_decision: 350.0,
                    decisions: 100,
                    spec_hits: 0,
                    spec_misses: 0,
                },
                brute_force: PipelineTiming {
                    seconds: 0.8,
                    epochs_per_sec: 15.0,
                    ns_per_decision: 4000.0,
                    decisions: 100,
                    spec_hits: 0,
                    spec_misses: 0,
                },
            },
        ];
        let parsed = parse_trajectory(&to_json(&rows));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].partitions, 200);
        assert_eq!(parsed[0].indexed_eps, 24.0);
        assert_eq!(parsed[0].workload, Workload::Steady);
        assert_eq!(parsed[0].spec_hit_rate, Some(0.75));
        assert_eq!(parsed[1].workload, Workload::Outage);
        assert_eq!(
            parsed[1].spec_hit_rate, None,
            "a row with no evaluated speculation omits the spec fields"
        );
        assert_eq!(parsed[1].brute_eps, 15.0);
        assert_ne!(parsed[0].key(), parsed[1].key());
    }

    #[test]
    fn host_cpus_roundtrips_and_legacy_documents_yield_none() {
        let r = run_epoch_loop(4, 2);
        let json = to_json(&[r]);
        let own = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(parse_host_cpus(&json), Some(own));
        assert_eq!(parse_host_cpus("{\n  \"results\": []\n}\n"), None);
    }

    #[test]
    fn parser_accepts_legacy_rows_without_mode_fields() {
        let legacy = r#"{
  "results": [
    {"partitions": 16, "epochs": 40, "indexed": {"seconds": 0.003, "epochs_per_sec": 10995.817, "ns_per_decision": 631.6, "decisions": 5760}, "brute_force": {"seconds": 0.026, "epochs_per_sec": 1484.060, "ns_per_decision": 4679.4, "decisions": 5760}, "speedup": 7.41}
  ]
}"#;
        let rows = parse_trajectory(legacy);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].partitions, 16);
        assert_eq!(
            rows[0].workload,
            Workload::Steady,
            "legacy rows measured the steady cold start"
        );
        assert_eq!(rows[0].spec_hit_rate, None);
        assert!((rows[0].indexed_eps - 10995.817).abs() < 1e-9);
    }

    #[test]
    fn parser_accepts_the_commit_field_and_drops_sequential_rows() {
        // Documents written while a second traffic-commit mode existed
        // carry a `"commit"` field. Parallel rows measured the commit that
        // remains; sequential rows measured the removed one and are
        // dropped, so they never match a fresh row.
        let old = r#"{
  "results": [
    {"partitions": 200, "epochs": 12, "threads": 1, "commit": "parallel", "workload": "steady", "indexed": {"seconds": 0.1, "epochs_per_sec": 120.0, "ns_per_decision": 700.0, "decisions": 100}, "brute_force": {"seconds": 0.5, "epochs_per_sec": 24.0, "ns_per_decision": 5000.0, "decisions": 100}, "speedup": 5.00},
    {"partitions": 200, "epochs": 12, "threads": 1, "commit": "sequential", "workload": "steady", "indexed": {"seconds": 0.1, "epochs_per_sec": 110.0, "ns_per_decision": 700.0, "decisions": 100}, "brute_force": {"seconds": 0.5, "epochs_per_sec": 24.0, "ns_per_decision": 5000.0, "decisions": 100}, "speedup": 4.58}
  ]
}"#;
        let rows = parse_trajectory(old);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key(), (200, Workload::Steady));
        assert_eq!(rows[0].indexed_eps, 120.0);
    }

    #[test]
    fn parser_accepts_the_threads_field_and_drops_multithreaded_rows() {
        // Documents written while the epoch engine had a worker pool carry
        // a `"threads"` field. Rows at one thread measured the engine that
        // remains; rows at any other budget measured the removed pool and
        // are dropped, so they never match a fresh row.
        let old = r#"{
  "results": [
    {"partitions": 200, "epochs": 12, "threads": 1, "workload": "steady", "indexed": {"seconds": 0.1, "epochs_per_sec": 120.0, "ns_per_decision": 700.0, "decisions": 100}, "brute_force": {"seconds": 0.5, "epochs_per_sec": 24.0, "ns_per_decision": 5000.0, "decisions": 100}, "speedup": 5.00},
    {"partitions": 200, "epochs": 12, "threads": 2, "workload": "steady", "indexed": {"seconds": 0.2, "epochs_per_sec": 60.0, "ns_per_decision": 1400.0, "decisions": 100}, "brute_force": {"seconds": 0.6, "epochs_per_sec": 20.0, "ns_per_decision": 6000.0, "decisions": 100}, "speedup": 3.00},
    {"partitions": 16, "epochs": 40, "threads": 8, "workload": "steady", "indexed": {"seconds": 0.2, "epochs_per_sec": 60.0, "ns_per_decision": 1400.0, "decisions": 100}, "brute_force": {"seconds": 0.6, "epochs_per_sec": 20.0, "ns_per_decision": 6000.0, "decisions": 100}, "speedup": 3.00}
  ]
}"#;
        let rows = parse_trajectory(old);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key(), (200, Workload::Steady));
        assert_eq!(rows[0].indexed_eps, 120.0);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        // Baseline: 100 eps indexed over 20 eps brute = 5x speedup.
        let base = [TrajectoryRow {
            partitions: 200,
            workload: Workload::Steady,
            indexed_eps: 100.0,
            brute_eps: 20.0,
            spec_hit_rate: None,
        }];
        // A uniformly faster machine (both pipelines 3x): ratio unchanged,
        // absolute improved — passes even with a tight absolute tolerance.
        let fast_host = [TrajectoryRow {
            indexed_eps: 300.0,
            brute_eps: 60.0,
            ..base[0]
        }];
        assert!(gate_trajectory(&base, &fast_host, 0.3, 0.5).passed());
        // A uniformly slower machine (both pipelines halved): ratio holds,
        // the generous absolute backstop still clears.
        let slow_host = [TrajectoryRow {
            indexed_eps: 55.0,
            brute_eps: 11.0,
            ..base[0]
        }];
        assert!(gate_trajectory(&base, &slow_host, 0.3, 0.5).passed());
        // A real code regression on a 2x-faster machine: the index path
        // lost its edge (speedup 5x → 2.5x) while absolute numbers grew.
        // The absolute floor would wave it through; the ratio floor fails.
        let regressed = [TrajectoryRow {
            indexed_eps: 110.0,
            brute_eps: 44.0,
            ..base[0]
        }];
        let report = gate_trajectory(&base, &regressed, 0.3, 0.5);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("speedup"));
        // A same-machine across-the-board slowdown: ratio holds, the
        // absolute backstop fails.
        let uniform_slow = [TrajectoryRow {
            indexed_eps: 40.0,
            brute_eps: 8.0,
            ..base[0]
        }];
        let report = gate_trajectory(&base, &uniform_slow, 0.3, 0.5);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("epochs/sec"));
    }

    #[test]
    fn hit_rate_collapse_warns_but_never_fails() {
        let base = [TrajectoryRow {
            partitions: 200,
            workload: Workload::Churn,
            indexed_eps: 100.0,
            brute_eps: 20.0,
            spec_hit_rate: Some(0.8),
        }];
        // A collapsed hit rate (here: to an eighth) warns, but the gate
        // still passes — the rate is informational.
        let collapsed = [TrajectoryRow {
            spec_hit_rate: Some(0.1),
            ..base[0]
        }];
        let report = gate_trajectory(&base, &collapsed, 0.3, 0.5);
        assert!(report.passed());
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("hit rate"));
        assert!(report.warnings[0].contains("informational"));
        // A healthy rate and a document without one produce no warning.
        let healthy = [TrajectoryRow {
            spec_hit_rate: Some(0.7),
            ..base[0]
        }];
        assert!(gate_trajectory(&base, &healthy, 0.3, 0.5)
            .warnings
            .is_empty());
        let absent = [TrajectoryRow {
            spec_hit_rate: None,
            ..base[0]
        }];
        assert!(gate_trajectory(&base, &absent, 0.3, 0.5)
            .warnings
            .is_empty());
    }

    #[test]
    fn gate_skips_unmatched_rows_with_warnings() {
        let base_row = TrajectoryRow {
            partitions: 200,
            workload: Workload::Steady,
            indexed_eps: 100.0,
            brute_eps: 20.0,
            spec_hit_rate: None,
        };
        // With *every* baseline row unmatched nothing was gated at all:
        // that is a failure in its own right (an emptied or renamed fresh
        // trajectory must not wave CI through), reported alongside the
        // skip warning.
        let report = gate_trajectory(&[base_row], &[], 0.3, 0.5);
        assert!(!report.passed());
        assert_eq!(report.matched, 0);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("skipped"));
        // Rows differing only in partitions or workload do not match:
        // each side's stragglers warn, nothing fails, and the matched row
        // is still gated.
        let fresh = [
            base_row,
            TrajectoryRow {
                partitions: 50,
                ..base_row
            },
            TrajectoryRow {
                workload: Workload::Outage,
                ..base_row
            },
        ];
        let baseline = [
            base_row,
            TrajectoryRow {
                partitions: 400,
                ..base_row
            },
        ];
        let report = gate_trajectory(&baseline, &fresh, 0.3, 0.5);
        assert!(report.passed());
        assert_eq!(report.matched, 1);
        assert_eq!(report.warnings.len(), 3, "{:?}", report.warnings);
        // A matched row that regressed still fails even when unmatched
        // rows are present.
        let regressed = [
            TrajectoryRow {
                indexed_eps: 10.0,
                brute_eps: 10.0,
                ..base_row
            },
            TrajectoryRow {
                partitions: 50,
                ..base_row
            },
        ];
        let report = gate_trajectory(&baseline, &regressed, 0.3, 0.5);
        assert!(!report.passed());
    }

    #[test]
    fn scaling_slope_guard_gates_m2000_decay() {
        let row = |partitions: usize, indexed_eps: f64| TrajectoryRow {
            partitions,
            workload: Workload::Steady,
            indexed_eps,
            brute_eps: indexed_eps / 5.0,
            spec_hit_rate: None,
        };
        // Baseline slope: 100 / 10 = 10x decay from M = 200 to M = 2000.
        let base = [row(200, 100.0), row(2_000, 10.0)];
        // Uniformly slower host: slope unchanged, passes.
        let slower = [row(200, 50.0), row(2_000, 5.0)];
        assert!(gate_trajectory(&base, &slower, 0.3, 0.5).passed());
        // Superlinear creep: M = 2000 fell to a 20x decay — the slope
        // guard fails even though the M = 200 row held and the M = 2000
        // row's own floors (vs its baseline row, tolerance 60%) do not
        // quite trip.
        let creep = [row(200, 100.0), row(2_000, 5.0)];
        let report = gate_trajectory(&base, &creep, 0.3, 0.6);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("scaling slope")));
        // A baseline without the M = 2000 row skips the slope with a
        // warning instead of failing.
        let old_base = [row(200, 100.0)];
        let report = gate_trajectory(&old_base, &creep, 0.3, 0.6);
        assert!(report.passed());
        assert!(report.warnings.iter().any(|w| w.contains("scaling slope")));
    }

    #[test]
    fn memory_figure_lands_in_json() {
        let r = run_epoch_loop(4, 3);
        let json = to_json_full(&[r], Some(123_456));
        assert!(json.contains("\"bytes_per_partition\": 123456"));
        assert_eq!(parse_bytes_per_partition(&json), Some(123_456));
        // Absent figure: field omitted, parser yields None.
        let bare = to_json(&[r]);
        assert!(!bare.contains("bytes_per_partition"));
        assert_eq!(parse_bytes_per_partition(&bare), None);
        // The JSON stays balanced with the new fields.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    fn figures_tmp() -> std::path::PathBuf {
        let d = crate::figures_dir();
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
