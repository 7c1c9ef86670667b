//! Gray-failure and quorum-read integration: seeded gray fault plans
//! must change the trajectory (degraded servers are priced into eq. 2)
//! while staying bitwise invariant across storage backends, and a continental partition must never lose an acked write
//! — quorum reads resolve the divergence and read-repair converges it.

use skute::prelude::*;
use skute::sim::paper;

/// Patches the only fields allowed to differ between the mem oracle and
/// the LSM engine: replication/migration byte meters are measured from
/// real stores on LSM and synthetic on mem.
fn normalize_measured(obs: &mut [Observation]) {
    for o in obs {
        o.report.actions.measured_replicated_bytes = 0;
        o.report.actions.measured_migrated_bytes = 0;
    }
}

#[test]
fn gray_trajectories_replay_bitwise_across_backends() {
    // Gray and partition plans feed per-server health samples into the
    // confidence EWMA, so they *do* move the trajectory relative to a
    // clean run — but the gray state is derived sequentially from
    // (plan, epoch) alone, so the faulted trajectory must be bitwise
    // identical across storage backends.
    let run = |kind: Option<FaultPlanKind>, backend: BackendKind| {
        let mut s = paper::scaled_scenario("gray-det", 16, 2_500, 18);
        s.seed = 0x66A7;
        s.config.backend = backend;
        if let Some(kind) = kind {
            s.config.fault_plan = FaultPlan { kind, seed: 0x66A7 };
        }
        Simulation::new(s).run()
    };
    let clean = run(None, BackendKind::Mem);
    for kind in [FaultPlanKind::Gray, FaultPlanKind::Partition] {
        let mut mem = run(Some(kind), BackendKind::Mem);
        assert_ne!(
            mem, clean,
            "{kind:?} prices degraded servers into the economy"
        );
        let mut lsm = run(Some(kind), BackendKind::Lsm);
        normalize_measured(&mut mem);
        normalize_measured(&mut lsm);
        assert_eq!(mem.len(), lsm.len());
        for (epoch, (a, b)) in mem.iter().zip(&lsm).enumerate() {
            assert_eq!(a, b, "{kind:?} diverges across backends at epoch {epoch}");
        }
    }
}

#[test]
fn gray_events_inject_and_heal_partitions_mid_run() {
    // The RNG-free schedule events: a forced continental cut shows up in
    // the cloud's gray state at the next epoch and heals on demand, and
    // the same scheduled events replay bitwise.
    let run = || {
        let mut s = paper::scaled_scenario("gray-events", 12, 2_000, 14);
        s.seed = 0xE7E7;
        s.schedule = Schedule::new()
            .at(4, CloudEvent::ContinentPartition { continent: 1 })
            .at(8, CloudEvent::PartitionHealed)
            .at(10, CloudEvent::GrayFailures { seed: 0xBEEF });
        Simulation::new(s)
    };
    let mut sim = run();
    let mut cut_seen = false;
    for epoch in 1..=14u64 {
        sim.step();
        let cut = sim.cloud().partitioned_continent();
        // Events apply after the epoch's begin, so the epoch-4 cut
        // surfaces at begin_epoch(5) and the epoch-8 heal lands at
        // begin_epoch(9). (Past epoch 10 the gray plan derives its own
        // rotating cut, so nothing is asserted there.)
        if (5..=8).contains(&epoch) {
            assert_eq!(cut, Some(1), "cut active at epoch {epoch}");
            cut_seen = true;
        }
        if epoch <= 4 || (9..=10).contains(&epoch) {
            assert_eq!(cut, None, "no forced cut outside epochs 5..=8");
        }
    }
    assert!(cut_seen);
    // Bitwise replay of the same schedule.
    let a = run().run();
    let b = run().run();
    assert_eq!(a, b);
}

#[test]
fn forced_partition_preserves_acked_writes_and_read_repair_converges() {
    let topology = Topology::paper();
    let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
        location,
        capacities: Capacities::paper(4 << 30, 5_000.0),
        monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
        confidence: 1.0,
    });
    let mut cloud = SkuteCloud::new(SkuteConfig::paper(), topology, cluster);
    let app = cloud
        .create_application(AppSpec::new("kv").level(LevelSpec::new(3, 8)))
        .unwrap();
    for _ in 0..6 {
        cloud.begin_epoch();
        cloud.end_epoch();
    }
    cloud.begin_epoch();
    let keys: Vec<String> = (0..24).map(|i| format!("k-{i}")).collect();
    for k in &keys {
        cloud.put(app, 0, k.as_bytes(), b"v1".to_vec()).unwrap();
    }
    // Sever continent 0 from the next epoch on.
    cloud.force_continent_partition(Some(0));
    cloud.end_epoch();
    cloud.begin_epoch();
    assert_eq!(cloud.partitioned_continent(), Some(0));
    // Overwrite under the cut: replicas behind it miss the write, but
    // every acked put reached a write quorum of healthy replicas.
    let mut acked = Vec::new();
    for k in &keys {
        if cloud.put(app, 0, k.as_bytes(), b"v2".to_vec()).is_ok() {
            acked.push(k.clone());
        }
    }
    assert!(!acked.is_empty(), "a majority-side quorum keeps acking");
    // Heal the cut.
    cloud.force_continent_partition(None);
    cloud.end_epoch();
    cloud.begin_epoch();
    assert_eq!(cloud.partitioned_continent(), None);
    // Read as a client *inside* the formerly cut continent, so eq.-(4)
    // proximity pulls the stale replicas into every quorum read set.
    let client = Some(Location::client_in_country(0, 0));
    let mut total_scheduled = 0usize;
    let mut rounds = 0;
    loop {
        let mut scheduled = 0usize;
        for k in &acked {
            let read = cloud
                .client_get_with(app, 0, k.as_bytes(), client, ReadConsistency::Quorum)
                .unwrap();
            assert_eq!(
                read.value.as_ref().unwrap().as_ref(),
                b"v2",
                "acked write for {k} survived the partition"
            );
            scheduled += read.repairs_scheduled;
        }
        total_scheduled += scheduled;
        cloud.end_epoch();
        cloud.begin_epoch();
        if scheduled == 0 {
            break;
        }
        rounds += 1;
        assert!(rounds < 8, "read-repair failed to converge");
    }
    assert!(
        total_scheduled > 0,
        "the healed quorum reads observed the divergence"
    );
    cloud.end_epoch();
}
