//! Metric handles must survive being hammered from many threads without
//! losing increments — the setting `skute-server`'s connection threads
//! use them in.

use skute_obs::{Histogram, Registry};

/// Threads each test spreads its tasks over.
const THREADS: usize = 8;

/// Runs `task(i)` for every `i < tasks` on [`THREADS`] scoped threads,
/// task `i` on thread `i % THREADS`.
fn run_tasks(tasks: usize, task: impl Fn(usize) + Sync) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let task = &task;
            s.spawn(move || (t..tasks).step_by(THREADS).for_each(task));
        }
    });
}

#[test]
fn counter_loses_no_increments_across_threads() {
    let registry = Registry::new();
    let counter = registry.counter("skute_hammer_total", "Hammered from many threads.");
    const TASKS: usize = 64;
    const PER_TASK: u64 = 10_000;
    run_tasks(TASKS, |_| {
        for _ in 0..PER_TASK {
            counter.inc();
        }
    });
    assert_eq!(counter.get(), TASKS as u64 * PER_TASK);
}

#[test]
fn histogram_loses_no_observations_across_threads() {
    let hist = Histogram::new(&[0.5, 1.5, 2.5, 3.5]);
    const TASKS: usize = 32;
    const PER_TASK: usize = 4_000;
    run_tasks(TASKS, |i| {
        // Each task writes a known mix: observation value cycles 0..4.
        for k in 0..PER_TASK {
            hist.observe(((i + k) % 4) as f64);
        }
    });
    let total = (TASKS * PER_TASK) as u64;
    assert_eq!(hist.count(), total);
    // Every residue class appears equally often, so each of the four
    // buckets holds exactly a quarter of the observations.
    let buckets = hist.cumulative_buckets();
    assert_eq!(buckets[0].1, total / 4); // value 0
    assert_eq!(buckets[1].1, total / 2); // values 0,1
    assert_eq!(buckets[2].1, 3 * total / 4);
    assert_eq!(buckets[3].1, total);
    // Fixed-point sum is exact for integral observations:
    // Σ = total/4 * (0 + 1 + 2 + 3).
    let expected_sum = (total / 4) as f64 * 6.0;
    assert!((hist.sum() - expected_sum).abs() < 1e-6);
}

#[test]
fn concurrent_registration_is_idempotent() {
    let registry = Registry::new();
    run_tasks(16, |_| {
        let c = registry.counter_with(
            "skute_reg_total",
            "Registered from many threads.",
            &[("op", "x")],
        );
        c.inc();
    });
    let c = registry.counter_with(
        "skute_reg_total",
        "Registered from many threads.",
        &[("op", "x")],
    );
    assert_eq!(c.get(), 16);
    // One family, one series in the rendered output.
    let text = registry.render();
    assert_eq!(text.matches("skute_reg_total{").count(), 1);
}
