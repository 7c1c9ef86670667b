//! Skute benchmark: two engine workloads (the epoch simulator) and two
//! serving workloads (the HTTP key-value store), each printing its
//! end-to-end metrics, or with `--trace 1` its per-layer metrics, and
//! ending standard output with a one-line JSON verdict. See README.md.

mod client;
mod engine;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Report};
use trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a claim on unseen inputs.
pub const HOLDOUT_SEED: u64 = 1001;

/// Set-ups timed per run where a set-up is cheap; `setup_s` is their
/// median.
pub const SETUPS: usize = 9;

/// A workload, by the layer it drives.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Engine(engine::Engine),
    Serve(serve::Serve),
}

const WORKLOADS: [(&str, Workload); 4] = [
    (
        "engine-m2k-churn",
        Workload::Engine(engine::Engine::M2kChurn),
    ),
    (
        "engine-m20k-outage",
        Workload::Engine(engine::Engine::M20kOutage),
    ),
    ("serve-mixed-mem", Workload::Serve(serve::Serve::MixedMem)),
    ("serve-write-lsm", Workload::Serve(serve::Serve::WriteLsm)),
];

/// Every end-to-end metric, in report order, with its unit. Each
/// untraced run reports all of them.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput", "op/s"),
    ("latency_p50_ms", "ms"),
];

/// Every per-layer metric, in report order, with its unit. Each traced
/// run reports all of them; a layer the workload does not exercise
/// reports 0 with 0 samples.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("http.parse_ns", "ns"),
    ("http.write_ns", "ns"),
    ("server.handle_us.get", "us"),
    ("server.handle_us.put", "us"),
    ("server.handle_us.scan", "us"),
    ("server.tick_ms.p50", "ms"),
    ("server.tick_ms.max", "ms"),
    ("cloud.put_us", "us"),
    ("cloud.delete_us", "us"),
    ("cloud.get_one_us", "us"),
    ("cloud.get_quorum_us", "us"),
    ("cloud.scan_us", "us"),
    ("cloud.replicas_mean", "count"),
    ("cloud.scan_examined_per_returned", "ratio"),
    ("epoch.step_ms", "ms"),
    ("epoch.traffic_plan_ms", "ms"),
    ("epoch.traffic_commit_ms", "ms"),
    ("epoch.repair_ms", "ms"),
    ("epoch.decisions_ms", "ms"),
    ("epoch.report_ms", "ms"),
    ("epoch.actions.replicate", "count"),
    ("epoch.actions.migrate", "count"),
    ("epoch.actions.suicide", "count"),
    ("epoch.actions.repair", "count"),
    ("epoch.spec_hit_rate", "fraction"),
    ("epoch.batch_conflicts", "count"),
    ("store.wal_appends_per_put", "ratio"),
    ("store.flushes", "count"),
    ("store.compactions", "count"),
    ("store.space_amp", "ratio"),
    ("store.transfer_bytes", "bytes"),
];

/// Per-layer values a workload measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<String, (f64, usize)>);

impl LayerValues {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name.to_string(), (value, samples));
    }

    /// A measured value (0 when the layer was not measured).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(v, _)| v)
    }

    /// Moves every layer metric into the report in catalogue order.
    fn into_report(self, report: &mut Report) {
        let mut missing = Vec::new();
        for &(name, unit) in LAYER_METRICS {
            let (value, samples) = self.0.get(name).copied().unwrap_or_else(|| {
                missing.push(name);
                (0.0, 0)
            });
            report.gate(Metric::new(name, value, unit, samples));
        }
        if !missing.is_empty() {
            report.note(format!(
                "not exercised by this workload (reported as 0): {}",
                missing.join(", ")
            ));
        }
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// This thread's time on a CPU and time waiting in the run queue, in ns
/// (`/proc/thread-self/schedstat`), when the kernel exposes them.
pub fn thread_sched_ns() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

struct Args {
    workload: String,
    kind: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: skute-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.map(|(name, _)| name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        kind: WORKLOADS[0].1,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.kind = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .ok_or(format!("unknown workload {:?}", args.workload))?
        .1;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(std::env::var("PERFBENCH_OUT").unwrap_or(".perfbench".into()));
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut layers = LayerValues::default();
    let started = Instant::now();
    let outcome = match args.kind {
        Workload::Engine(e) => {
            engine::run(
                e,
                args.seed,
                args.seconds,
                &tracer,
                &mut report,
                &mut layers,
            );
            Ok(())
        }
        Workload::Serve(s) => serve::run(
            s,
            args.seed,
            args.seconds,
            &tracer,
            &mut report,
            &mut layers,
        ),
    };
    if let Err(e) = outcome {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::from(1);
    }
    let wall_s = started.elapsed().as_secs_f64();

    let tag = format!("{}-seed{}", args.workload, args.seed);
    let result_path = |trace: bool| {
        out_dir
            .join("results")
            .join(format!("{tag}-trace{}.json", u8::from(trace)))
    };
    if args.trace {
        // Ungated e2e figures become info lines; the per-layer catalogue
        // takes their place in the verdict.
        let e2e = std::mem::take(&mut report.gated);
        report.info.splice(0..0, e2e);
        layers.into_report(&mut report);
        let traced = report
            .info
            .iter()
            .find(|m| m.name == "work_ns_per_op")
            .map(|m| m.value);
        match (traced, report::read_metric(&result_path(false), "work_ns_per_op")) {
            (Some(t), Some(u)) => report.note(format!(
                "tracing overhead: {t:.1} ns per op traced vs {u:.1} untraced ({:+.1} %, from the last --trace 0 run of this workload and seed)",
                100.0 * (t - u) / u
            )),
            _ => report.note("tracing overhead: no --trace 0 result for this workload and seed yet"),
        }
        let trace_path = out_dir.join("traces").join(format!("{tag}.jsonl"));
        match tracer.write(&trace_path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.len(),
                trace_path.display()
            )),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }

    let catalogue = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    let reported: Vec<(&str, &str)> = report
        .gated
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(reported, catalogue, "a workload left the metric catalogue");

    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let context = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cpus", host_cpus.to_string()),
        ("rustc", rustc.clone()),
        ("commit", commit.clone()),
        ("wall_s", format!("{wall_s:.3}")),
    ];
    let header = format!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={host_cpus} rustc=\"{rustc}\" commit={commit} wall_s={wall_s:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", report.render(&header));
    let path = result_path(args.trace);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, report.result_json(&context)) {
        eprintln!("result file {} not written: {e}", path.display());
    }
    println!("{}", report.verdict_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start
            ..json[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at =
                        entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                    entry[at..].split('"').next().expect("quoted").to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(E2E_METRICS));
        assert_eq!(listed(&json, "per_layer"), own(LAYER_METRICS));
    }
}
