//! Per-layer measurements of the serving workloads' traced run: deltas of
//! the server's `/metrics`, and direct timed calls into the `http` and
//! `cloud` layers' public functions on the workload's own data.

use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use skute_cluster::{Capacities, Cluster, ServerSpec};
use skute_core::{AppSpec, LevelSpec, ReadConsistency, SkuteCloud, SkuteConfig, TrafficBatch};
use skute_geo::{Location, RegionWeight, Topology};
use skute_server::http;
use skute_server::ServerConfig;

use crate::client::sample;
use crate::engine::PHASES;
use crate::report::Report;
use crate::serve::{key_name, request_parts, scan_prefix, value_bytes, Client, Rng, Spec, CLIENTS};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::LayerValues;

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

fn delta(before: &str, after: &str, series: &str) -> f64 {
    sample(after, series) - sample(before, series)
}

/// `server.*` and the serving cloud's `epoch.*` metrics, from the
/// `/metrics` scrapes that bracket the measured phases and from the
/// timed `tick_now` calls made before serving.
pub fn server_layers(
    before: &str,
    after: &str,
    ticks: &mut Samples,
    layers: &mut LayerValues,
    report: &mut Report,
) {
    for op in ["get", "put", "scan"] {
        let sum = delta(
            before,
            after,
            &format!("skute_server_request_seconds_sum{{op=\"{op}\"}}"),
        );
        let n = delta(
            before,
            after,
            &format!("skute_server_request_seconds_count{{op=\"{op}\"}}"),
        );
        let mean_us = if n > 0.0 { sum * 1e6 / n } else { 0.0 };
        layers.set(&format!("server.handle_us.{op}"), mean_us, n as usize);
    }
    layers.set(
        "server.tick_ms.p50",
        ticks.median().unwrap_or(0.0),
        ticks.len(),
    );
    layers.set(
        "server.tick_ms.max",
        ticks.max().unwrap_or(0.0),
        ticks.len(),
    );
    layers.set("epoch.step_ms", ticks.mean().unwrap_or(0.0), ticks.len());

    let epochs = delta(before, after, "skute_epochs_total");
    let mut covered = 0.0;
    for phase in PHASES {
        let s = delta(
            before,
            after,
            &format!("skute_epoch_phase_seconds_sum{{phase=\"{phase}\"}}"),
        );
        let ms = if epochs > 0.0 { s * 1e3 / epochs } else { 0.0 };
        covered += ms;
        layers.set(&format!("epoch.{phase}_ms"), ms, epochs as usize);
    }
    report.note(format!(
        "serving ticks: {epochs} epochs, phases {covered:.3} ms per tick under load; probe tick_now mean {:.3} ms idle (epoch.step_ms)",
        ticks.mean().unwrap_or(0.0)
    ));
    let action = |a: &str| {
        delta(
            before,
            after,
            &format!("skute_actions_total{{action=\"{a}\"}}"),
        )
    };
    layers.set("epoch.actions.replicate", action("profit_replication"), 1);
    layers.set("epoch.actions.migrate", action("migration"), 1);
    layers.set("epoch.actions.suicide", action("suicide"), 1);
    layers.set(
        "epoch.actions.repair",
        action("availability_replication"),
        1,
    );
    let hits = delta(before, after, "skute_speculation_total{result=\"hit\"}");
    let misses = delta(before, after, "skute_speculation_total{result=\"miss\"}");
    layers.set(
        "epoch.spec_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        (hits + misses) as usize,
    );
    layers.set(
        "epoch.batch_conflicts",
        delta(before, after, "skute_decision_batch_conflicts_total"),
        1,
    );
}

/// `store.*` counters from the `/metrics` scrapes (space amplification is
/// measured on disk by the caller).
pub fn store_layers(before: &str, after: &str, layers: &mut LayerValues) {
    let op = |o: &str| {
        delta(
            before,
            after,
            &format!("skute_storage_engine_ops{{op=\"{o}\"}}"),
        )
    };
    let writes = delta(before, after, "skute_server_requests_total{op=\"put\"}")
        + delta(before, after, "skute_server_requests_total{op=\"delete\"}");
    let wal = op("wal_append");
    layers.set(
        "store.wal_appends_per_put",
        if writes > 0.0 { wal / writes } else { 0.0 },
        writes as usize,
    );
    layers.set("store.flushes", op("memtable_flush"), 1);
    layers.set("store.compactions", op("compaction"), 1);
    let moved = delta(
        before,
        after,
        "skute_transfer_bytes_total{kind=\"replication\"}",
    ) + delta(
        before,
        after,
        "skute_transfer_bytes_total{kind=\"migration\"}",
    );
    layers.set("store.transfer_bytes", moved, 1);
}

/// Runs `f` repeatedly for about `budget`; returns the mean ns per call.
fn time_loop(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut n = 0usize;
    while n < 16 || start.elapsed() < budget {
        for _ in 0..64 {
            f();
        }
        n += 64;
    }
    (start.elapsed().as_secs_f64() * 1e9 / n as f64, n)
}

/// `http.parse_ns` / `http.write_ns`: `read_request` and `write_response`
/// timed in memory on the workload's request bytes and on the responses
/// its clients received, weighted by the workload's op mix.
pub fn http_layer(spec: Spec, clients: &[Client], layers: &mut LayerValues) {
    let total_w: f64 = spec.mix.iter().map(|&(_, w)| w as f64).sum();
    let (mut parse, mut write, mut n) = (0.0, 0.0, 0usize);
    for &(op, w) in spec.mix {
        let key = key_name(0, 123);
        let (target, headers, body) = request_parts(&spec, op, 0, &key, "0.0", 7);
        let refs: Vec<(&str, &str)> = headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let mut request = Vec::new();
        http::write_request(&mut request, op.method(), &target, &refs, &body)
            .expect("in-memory write");
        let (ns, calls) = time_loop(Duration::from_millis(100), || {
            let mut reader = BufReader::new(&request[..]);
            black_box(http::read_request(&mut reader).expect("own request parses"));
        });
        parse += ns * w as f64 / total_w;
        n += calls;
        let Some(response) = clients
            .iter()
            .find_map(|c| c.last_response[op as usize].clone())
        else {
            continue;
        };
        let content_type = response
            .header("content-type")
            .unwrap_or("text/plain")
            .to_string();
        let extra: Vec<(&str, &str)> = response
            .headers
            .iter()
            .filter(|(k, _)| {
                !matches!(k.as_str(), "content-type" | "content-length" | "connection")
            })
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut out = Vec::with_capacity(response.body.len() + 256);
        let (ns, _) = time_loop(Duration::from_millis(100), || {
            out.clear();
            http::write_response(
                &mut out,
                response.status,
                &content_type,
                &response.body,
                &extra,
                true,
            )
            .expect("in-memory write");
            black_box(&out);
        });
        write += ns * w as f64 / total_w;
    }
    layers.set("http.parse_ns", parse, n);
    layers.set("http.write_ns", write, n);
}

/// `cloud.*`: direct calls on a cloud built and warmed the way
/// `SkuteServer::bind` builds its own, preloaded with the workload's keys.
pub fn cloud_layer(
    spec: Spec,
    seed: u64,
    tracer: &Tracer,
    layers: &mut LayerValues,
    report: &mut Report,
) {
    let defaults = ServerConfig::default();
    let topology = Topology::paper();
    let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
        location,
        capacities: Capacities::paper(
            defaults.server_storage_bytes,
            defaults.server_query_capacity,
        ),
        monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
        confidence: 1.0,
    });
    let config = SkuteConfig::paper()
        .with_seed(seed)
        .with_threads(1)
        .with_backend(spec.backend);
    let mut cloud = SkuteCloud::new(config, topology.clone(), cluster);
    let app = cloud
        .create_application(AppSpec::new("kv").level(LevelSpec::new(3, 32)))
        .expect("paper cluster seeds the ring");
    let countries: Vec<Location> = topology
        .iter_countries()
        .map(|(ct, co)| Location::client_in_country(ct, co))
        .collect();
    let uniform: Vec<RegionWeight> = countries
        .iter()
        .map(|&location| RegionWeight {
            location,
            weight: 1.0,
        })
        .collect();
    cloud.begin_epoch();
    for _ in 0..defaults.warmup_epochs {
        cloud
            .deliver_queries_multi(vec![TrafficBatch {
                app,
                level: 0,
                queries: 50_000.0,
                regions: uniform.clone(),
            }])
            .expect("registered app");
        cloud.end_epoch();
        cloud.begin_epoch();
    }
    let per_client = spec.keys / CLIENTS;
    let keys: Vec<(usize, String)> = (0..CLIENTS)
        .flat_map(|c| (0..per_client).map(move |i| (c, key_name(c, i))))
        .collect();
    let mut seq = vec![1u64; keys.len()];
    for (c, k) in &keys {
        cloud
            .put(
                app,
                0,
                k.as_bytes(),
                value_bytes(k, *c, 1, spec.value_bytes),
            )
            .expect("preload put");
    }

    let mut rng = Rng::new(seed, 99);
    let budget = Duration::from_millis(300);
    let mut span = 0u64;
    // Each probe times exactly one call into the cloud and returns
    // whether its result was right.
    let mut timed = |name: &'static str,
                     f: &mut dyn FnMut(&mut Rng) -> (bool, Instant, Instant)| {
        let mut s = Samples::new();
        let mut bad = 0u64;
        let start = Instant::now();
        while s.len() < 32 || (start.elapsed() < budget && s.len() < 20_000) {
            let (ok, t, end) = f(&mut rng);
            span += 1;
            tracer.record("cloud", name, span, 0, t, end);
            s.push(end.duration_since(t).as_secs_f64() * 1e6);
            bad += u64::from(!ok);
        }
        (s, bad)
    };
    let mut results: Vec<(&str, Samples, u64)> = Vec::new();
    let (s, bad) = timed("put", &mut |rng| {
        let i = rng.below(keys.len());
        seq[i] += 1;
        let (c, k) = &keys[i];
        let value = value_bytes(k, *c, seq[i], spec.value_bytes);
        let t = Instant::now();
        let ok = cloud.put(app, 0, k.as_bytes(), value).is_ok();
        (ok, t, Instant::now())
    });
    results.push(("cloud.put_us", s, bad));
    let (s, bad) = timed("delete", &mut |rng| {
        let i = rng.below(keys.len());
        let (c, k) = &keys[i];
        let t = Instant::now();
        let ok = cloud.delete(app, 0, k.as_bytes()).is_ok();
        let end = Instant::now();
        // Write the key back (untimed) so reads keep finding it.
        seq[i] += 1;
        let value = value_bytes(k, *c, seq[i], spec.value_bytes);
        let restored = cloud.put(app, 0, k.as_bytes(), value).is_ok();
        (ok && restored, t, end)
    });
    results.push(("cloud.delete_us", s, bad));
    for (metric, name, consistency) in [
        ("cloud.get_one_us", "get_one", ReadConsistency::One),
        ("cloud.get_quorum_us", "get_quorum", ReadConsistency::Quorum),
    ] {
        let (s, bad) = timed(name, &mut |rng| {
            let i = rng.below(keys.len());
            let (c, k) = &keys[i];
            let client = countries[rng.below(countries.len())];
            let want = value_bytes(k, *c, seq[i], spec.value_bytes);
            let t = Instant::now();
            let read = cloud.client_get_with(app, 0, k.as_bytes(), Some(client), consistency);
            let end = Instant::now();
            let ok = read.is_ok_and(|r| r.value.as_deref() == Some(&want[..]));
            (ok, t, end)
        });
        results.push((metric, s, bad));
    }
    let mut returned = Samples::new();
    let (s, bad) = timed("scan", &mut |rng| {
        let (_, k) = &keys[rng.below(keys.len())];
        let prefix = scan_prefix(k);
        let t = Instant::now();
        let scan = cloud.scan(app, 0, prefix.as_bytes(), spec.scan_limit);
        let end = Instant::now();
        let ok = scan.is_ok_and(|pairs| {
            returned.push(pairs.len() as f64);
            pairs.len() == spec.scan_limit
                && pairs
                    .iter()
                    .all(|(pk, _)| pk.starts_with(prefix.as_bytes()))
        });
        (ok, t, end)
    });
    results.push(("cloud.scan_us", s, bad));
    for (metric, s, bad) in results {
        layers.set(metric, s.mean().unwrap_or(0.0), s.len());
        report.tally.count(s.len() as u64, bad, || {
            format!("{metric}: {bad} direct calls returned a wrong result")
        });
    }

    let pids = cloud.partition_ids(app, 0).expect("ring exists");
    let replicas: usize = pids
        .iter()
        .map(|&p| cloud.replica_servers(app, 0, p).map_or(0, |r| r.len()))
        .sum();
    let replicas_mean = replicas as f64 / pids.len().max(1) as f64;
    layers.set("cloud.replicas_mean", replicas_mean, pids.len());
    let per_scan = returned.mean().unwrap_or(0.0);
    layers.set(
        "cloud.scan_examined_per_returned",
        keys.len() as f64 * replicas_mean / per_scan.max(1.0),
        returned.len(),
    );
}
