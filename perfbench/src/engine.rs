//! The two engine workloads: `paper::scaled_scenario` driven epoch by
//! epoch through `Simulation::step`, repeated from a fresh build until
//! the run's time is spent.

use std::sync::Arc;
use std::time::Instant;

use skute_core::CloudMetrics;
use skute_obs::Registry;
use skute_sim::{paper, CloudEvent, Observation, Scenario, Schedule, Simulation};

use crate::report::{Metric, Report};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{peak_rss_mb, LayerValues};

/// Which engine scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// M = 2000, cold start into steady state, a 20-server failure burst
    /// at epoch 41 and a 20-server upgrade at epoch 81.
    M2kChurn,
    /// M = 20 000, a whole-country outage at epoch 5 of the cold-start
    /// ramp.
    M20kOutage,
}

impl Engine {
    fn partitions(self) -> usize {
        match self {
            Engine::M2kChurn => 2_000,
            Engine::M20kOutage => 20_000,
        }
    }

    fn epochs(self) -> u64 {
        match self {
            Engine::M2kChurn => 120,
            Engine::M20kOutage => 12,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Engine::M2kChurn => "engine-m2k-churn",
            Engine::M20kOutage => "engine-m20k-outage",
        }
    }

    /// The scenario one repetition runs (default config, threads = 1).
    pub fn scenario(self, seed: u64) -> Scenario {
        let epochs = self.epochs();
        let mut s = paper::scaled_scenario(self.name(), self.partitions(), 3_000, epochs);
        s.seed = seed;
        s.config.threads = 1;
        s.schedule = match self {
            Engine::M2kChurn => Schedule::new()
                .at(epochs / 3 + 1, CloudEvent::RemoveServers { count: 20 })
                .at(2 * epochs / 3 + 1, CloudEvent::AddServers { count: 20 }),
            Engine::M20kOutage => {
                let (continent, country) = s
                    .topology
                    .iter_countries()
                    .next()
                    .expect("the paper topology has countries");
                Schedule::new().at(
                    epochs / 3 + 1,
                    CloudEvent::CountryOutage { continent, country },
                )
            }
        };
        s
    }

    /// Trajectory digests pinned for the documented seeds. A run on one
    /// of these seeds must reproduce its digest exactly; any other seed
    /// is checked for repeatability across the run's repetitions and for
    /// the scenario's invariants.
    fn pinned(self, seed: u64) -> Option<u64> {
        let table: &[(u64, u64)] = match self {
            Engine::M2kChurn => PINNED_M2K,
            Engine::M20kOutage => PINNED_M20K,
        };
        table.iter().find(|(s, _)| *s == seed).map(|&(_, d)| d)
    }
}

/// `(seed, digest)` of engine-m2k-churn: seeds 1-10 and the holdout.
const PINNED_M2K: &[(u64, u64)] = &[
    (1, 0xe4e10d452097fa85),
    (2, 0x719cf4fc82f42899),
    (3, 0x1ce9a2f7d216be69),
    (4, 0x3f4836e02ef5dfc9),
    (5, 0x8ae0aee85950041e),
    (6, 0x61b21fde9b15c051),
    (7, 0x3be296b19fd4a9a0),
    (8, 0x7fa2230824ff412c),
    (9, 0x5ddb6f515cf92b68),
    (10, 0xbab1cf9106980fb0),
    (1001, 0xe97401556612a4d2),
];
/// `(seed, digest)` of engine-m20k-outage: seeds 1-10 and the holdout.
const PINNED_M20K: &[(u64, u64)] = &[
    (1, 0x515c646f9f2cabd8),
    (2, 0xafcbba4ff209936c),
    (3, 0x1d3cfe237023045a),
    (4, 0xb11e1c675b46a5d8),
    (5, 0x180d79ed5cca919b),
    (6, 0xcd9ea4dd4790e161),
    (7, 0x52d21b2c9038c6a4),
    (8, 0x80627cbdde622af6),
    (9, 0xb5bc590cace96d4c),
    (10, 0x08ca06048b94fbc8),
    (1001, 0x4d7a9dfdc35ade01),
];

/// FNV-1a over the trajectory: per epoch, every ring's vnode count, the
/// number of rings meeting their SLA, lost partitions and the action
/// counts.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn epoch(&mut self, obs: &Observation) {
        let r = &obs.report;
        self.word(r.epoch);
        for ring in &r.rings {
            self.word(ring.vnodes as u64);
        }
        self.word(
            r.rings
                .iter()
                .filter(|g| g.sla_satisfied_frac >= 1.0)
                .count() as u64,
        );
        self.word(r.partitions_lost);
        let a = &r.actions;
        for v in [
            a.availability_replications,
            a.profit_replications,
            a.migrations,
            a.suicides,
        ] {
            self.word(v);
        }
    }
}

/// Per-repetition action totals (identical across repetitions).
#[derive(Debug, Default, Clone, Copy)]
struct Actions {
    replicate: u64,
    migrate: u64,
    suicide: u64,
    repair: u64,
    spec_hits: u64,
    spec_misses: u64,
    batch_conflicts: u64,
    transfer_bytes: u64,
}

/// Runs one engine workload for `seconds` of stepping (at least two
/// repetitions, so repeatability is always checked).
pub fn run(
    engine: Engine,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
    layers: &mut LayerValues,
) {
    let scenario = engine.scenario(seed);
    let target_vnodes: usize = scenario
        .apps
        .iter()
        .map(|a| a.replicas * a.partitions)
        .sum();
    let mut final_vnodes = 0usize;
    let registry = Registry::new();
    let metrics = CloudMetrics::register(&registry);

    let mut setup = Samples::new();
    let mut epoch_ms = Samples::new();
    let mut stepping_s = 0.0;
    let mut rep_s = Samples::new();
    let (mut on_cpu_s, mut queued_s) = (0.0, 0.0);
    let mut decisions = 0u64;
    let mut reps = 0u64;
    let mut first: Option<(u64, Actions)> = None;
    let mut span_id = 0u64;
    while reps < 2 || stepping_s < seconds {
        let scenario = scenario.clone();
        let t = Instant::now();
        let mut sim = Simulation::new(scenario);
        setup.push(t.elapsed().as_secs_f64());
        if tracer.enabled() {
            sim.attach_metrics(Arc::clone(&metrics));
        }
        let sched0 = crate::thread_sched_ns();
        let step0 = stepping_s;
        let mut digest = Digest::new();
        let mut actions = Actions::default();
        let mut last_vnodes = 0usize;
        let mut last_sla = true;
        for _ in 0..engine.epochs() {
            let before = tracer.enabled().then(|| phase_sums(&metrics));
            let t = Instant::now();
            let obs = sim.step();
            let end = Instant::now();
            let dt = end.duration_since(t).as_secs_f64();
            stepping_s += dt;
            epoch_ms.push(dt * 1e3);
            if let Some(before) = before {
                span_id += 1;
                tracer.record("epoch", "step", span_id, 0, t, end);
                // Phase durations come from the cloud's own histograms;
                // the spans lay them back to back in pipeline order.
                let mut at = t;
                for (i, (name, after)) in PHASES.iter().zip(phase_sums(&metrics)).enumerate() {
                    let d = std::time::Duration::from_secs_f64((after - before[i]).max(0.0));
                    tracer.record("epoch", name, span_id, span_id, at, at + d);
                    at += d;
                }
            }
            let r = &obs.report;
            decisions += r.total_vnodes() as u64;
            digest.epoch(&obs);
            last_vnodes = r.total_vnodes();
            last_sla = r.rings.iter().all(|g| g.sla_satisfied_frac >= 1.0);
            let a = &r.actions;
            actions.replicate += a.profit_replications;
            actions.repair += a.availability_replications;
            actions.migrate += a.migrations;
            actions.suicide += a.suicides;
            actions.spec_hits += a.spec_hits;
            actions.spec_misses += a.spec_misses;
            actions.batch_conflicts += a.batch_conflicts;
            actions.transfer_bytes += a.replicated_bytes + a.migrated_bytes;
        }
        let sched1 = crate::thread_sched_ns();
        drop(sim);
        reps += 1;
        rep_s.push(stepping_s - step0);
        if let (Some((c0, w0)), Some((c1, w1))) = (sched0, sched1) {
            on_cpu_s += (c1 - c0) as f64 * 1e-9;
            queued_s += (w1 - w0) as f64 * 1e-9;
        }

        let epochs = engine.epochs();
        // A trajectory check covers every epoch of the repetition.
        let mut check = |ok: bool, why: String| {
            report
                .tally
                .count(epochs, if ok { 0 } else { epochs }, || why)
        };
        if engine == Engine::M2kChurn {
            check(
                last_sla,
                format!("rep {reps}: final epoch misses an SLA ({last_vnodes} vnodes)"),
            );
        }
        match first {
            None => {
                if let Some(pinned) = engine.pinned(seed) {
                    check(
                        pinned == digest.0,
                        format!(
                            "trajectory digest {:016x} differs from the pinned {pinned:016x}",
                            digest.0
                        ),
                    );
                } else {
                    report.note(format!(
                        "no digest pinned for seed {seed}; repeatability checked"
                    ));
                }
                first = Some((digest.0, actions));
                final_vnodes = last_vnodes;
            }
            Some((d, _)) => check(
                d == digest.0,
                format!(
                    "rep {reps}: trajectory digest {:016x} differs from rep 1's {d:016x}",
                    digest.0
                ),
            ),
        }
    }
    // Set-up alone, until enough set-ups are timed for a steady median.
    while setup.len() < crate::SETUPS {
        let scenario = scenario.clone();
        let t = Instant::now();
        let sim = Simulation::new(scenario);
        setup.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let (digest, actions) = first.expect("at least one repetition");
    report.note(format!(
        "trajectory digest {digest:016x} over {} epochs x {reps} repetitions; final epoch {final_vnodes} vnodes (sum of n*M = {target_vnodes})",
        engine.epochs()
    ));

    report.note(format!(
        "repetition stepping times (s): {}; on a CPU {:.1} %, waiting for one {:.1} % of stepping",
        rep_s
            .values()
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        100.0 * on_cpu_s / stepping_s,
        100.0 * queued_s / stepping_s
    ));

    // Every repetition does identical work; the median repetition sets
    // the rate, so a neighbour's burst on a shared host moves one sample
    // rather than the result.
    let epochs_run = epoch_ms.len();
    let per_rep = decisions as f64 / reps as f64;
    let rep_median = rep_s.median().unwrap_or(stepping_s);
    let ns_per_decision = rep_median * 1e9 / per_rep;
    report.gate(Metric::new(
        "setup_s",
        setup.median().unwrap_or(0.0),
        "s",
        setup.len(),
    ));
    report.gate(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1));
    report.gate(Metric::new(
        "throughput",
        per_rep / rep_median,
        "op/s",
        decisions as usize,
    ));
    report.gate(Metric::new(
        "latency_p50_ms",
        epoch_ms.median().unwrap_or(0.0),
        "ms",
        epochs_run,
    ));
    report.info(Metric::new(
        "latency_mean_ms",
        epoch_ms.mean().unwrap_or(0.0),
        "ms",
        epochs_run,
    ));
    report.info(Metric::new(
        "ns_per_decision",
        ns_per_decision,
        "ns",
        decisions as usize,
    ));
    report.info(Metric::new(
        "epoch_p50_ms",
        epoch_ms.median().unwrap_or(0.0),
        "ms",
        epochs_run,
    ));
    if let Some(p90) = epoch_ms.quantile(0.9) {
        report.info(Metric::new("epoch_p90_ms", p90, "ms", epochs_run));
    }
    report.info(Metric::new(
        "work_ns_per_op",
        ns_per_decision,
        "ns",
        epochs_run,
    ));

    if tracer.enabled() {
        let epochs = epochs_run as f64;
        let step_mean = epoch_ms.mean().unwrap_or(0.0);
        layers.set("epoch.step_ms", step_mean, epochs_run);
        let mut covered = 0.0;
        for (name, sum) in PHASES.iter().zip(phase_sums(&metrics)) {
            let ms = sum * 1e3 / epochs;
            covered += ms;
            layers.set(&format!("epoch.{name}_ms"), ms, epochs_run);
        }
        report.note(format!(
            "epoch phases cover {covered:.3} of {step_mean:.3} ms per step ({:.1} %); uncovered remainder {:.3} ms",
            100.0 * covered / step_mean.max(1e-12),
            step_mean - covered
        ));
        layers.set("epoch.actions.replicate", actions.replicate as f64, 1);
        layers.set("epoch.actions.migrate", actions.migrate as f64, 1);
        layers.set("epoch.actions.suicide", actions.suicide as f64, 1);
        layers.set("epoch.actions.repair", actions.repair as f64, 1);
        let spec = actions.spec_hits + actions.spec_misses;
        layers.set(
            "epoch.spec_hit_rate",
            actions.spec_hits as f64 / spec.max(1) as f64,
            spec as usize,
        );
        layers.set("epoch.batch_conflicts", actions.batch_conflicts as f64, 1);
        layers.set("store.transfer_bytes", actions.transfer_bytes as f64, 1);
        layers.set("store.wal_appends_per_put", 0.0, 0);
        layers.set("store.flushes", metrics.lsm_flushes.get() as f64, 0);
        layers.set("store.compactions", metrics.lsm_compactions.get() as f64, 0);
        layers.set("store.space_amp", 0.0, 0);
    }
}

/// The epoch phases, in pipeline order, as labelled in
/// `skute_epoch_phase_seconds`.
pub const PHASES: [&str; 5] = [
    "traffic_plan",
    "traffic_commit",
    "repair",
    "decisions",
    "report",
];

fn phase_sums(m: &CloudMetrics) -> [f64; 5] {
    [
        m.phase_traffic_plan.sum(),
        m.phase_traffic_commit.sum(),
        m.phase_repair.sum(),
        m.phase_decisions.sum(),
        m.phase_report.sum(),
    ]
}
