//! The HTTP front end: a [`SkuteCloud`] behind a thread-per-connection
//! TCP listener, with an epoch tick thread that feeds observed per-country
//! traffic back into the economy and a `/metrics` endpoint exposing the
//! full [`skute_core::CloudMetrics`] catalogue plus server-side request
//! metrics.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use skute_cluster::{Capacities, Cluster, ServerSpec};
use skute_core::{
    AppId, AppSpec, FaultPlan, FaultPlanKind, LevelSpec, ReadConsistency, SkuteCloud, SkuteConfig,
    TrafficBatch,
};
use skute_geo::{Location, RegionWeight, Topology};
use skute_obs::{exponential_buckets, Counter, Gauge, Histogram, Registry};
use skute_store::BackendKind;

use crate::http::{self, Request};

/// Configuration for [`SkuteServer::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Replicas per partition of the served ring (the SLA's `n`).
    pub replicas: usize,
    /// Partitions of the served ring.
    pub partitions: usize,
    /// Seed for the cloud's decision process.
    pub seed: u64,
    /// Compatibility shim with exactly one legal value, `1`: the epoch
    /// engine is single-threaded (see `SkuteConfig::threads`).
    pub threads: usize,
    /// Storage backend for the replicas.
    pub backend: BackendKind,
    /// Wall-clock milliseconds per epoch tick (0 disables the tick
    /// thread; epochs then only advance via [`SkuteServer::tick_now`]).
    pub epoch_ms: u64,
    /// Epochs of uniform warmup traffic driven before serving, so the
    /// rings reach their SLA replica counts.
    pub warmup_epochs: u64,
    /// Per-server storage capacity in bytes.
    pub server_storage_bytes: u64,
    /// Per-server query capacity per epoch.
    pub server_query_capacity: f64,
    /// Query-units each HTTP request contributes to the epoch's offered
    /// load (scales request counts to the economy's units).
    pub queries_per_request: f64,
    /// Per-connection socket read timeout in milliseconds (0 = none).
    /// Bounds how long a stalled client can pin a connection thread.
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout in milliseconds (0 = none).
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            replicas: 3,
            partitions: 32,
            seed: 42,
            threads: 1,
            backend: BackendKind::Mem,
            epoch_ms: 1_000,
            warmup_epochs: 8,
            server_storage_bytes: 4 << 30,
            server_query_capacity: 3_000.0,
            queries_per_request: 1.0,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
        }
    }
}

/// Server-side request metrics, registered alongside the cloud's.
struct ServerMetrics {
    requests: BTreeMap<&'static str, Counter>,
    responses: BTreeMap<&'static str, Counter>,
    latency: BTreeMap<&'static str, Histogram>,
    active_connections: Gauge,
    epoch_pending_queries: Gauge,
    epoch_ticks: Counter,
}

const OPS: &[&str] = &[
    "get", "put", "delete", "scan", "metrics", "health", "fault", "shutdown", "other",
];
const OUTCOMES: &[&str] = &["ok", "not_found", "client_error", "server_error"];

impl ServerMetrics {
    fn register(registry: &Registry) -> Self {
        let mut requests = BTreeMap::new();
        let mut responses = BTreeMap::new();
        let mut latency = BTreeMap::new();
        for &op in OPS {
            requests.insert(
                op,
                registry.counter_with(
                    "skute_server_requests_total",
                    "HTTP requests accepted, by operation.",
                    &[("op", op)],
                ),
            );
            latency.insert(
                op,
                registry.histogram_with(
                    "skute_server_request_seconds",
                    "Request handling latency, by operation.",
                    &[("op", op)],
                    &exponential_buckets(1e-5, 4.0, 10),
                ),
            );
        }
        for &outcome in OUTCOMES {
            responses.insert(
                outcome,
                registry.counter_with(
                    "skute_server_responses_total",
                    "HTTP responses written, by outcome class.",
                    &[("outcome", outcome)],
                ),
            );
        }
        Self {
            requests,
            responses,
            latency,
            active_connections: registry.gauge(
                "skute_server_active_connections",
                "Currently open client connections.",
            ),
            epoch_pending_queries: registry.gauge(
                "skute_server_epoch_pending_queries",
                "Query-units accumulated since the last epoch tick (request queue depth in economy units).",
            ),
            epoch_ticks: registry.counter(
                "skute_server_epoch_ticks_total",
                "Epoch ticks driven by the server.",
            ),
        }
    }

    fn outcome_for(&self, status: u16) -> &Counter {
        let class = match status {
            200..=299 => "ok",
            404 => "not_found",
            400..=499 => "client_error",
            _ => "server_error",
        };
        &self.responses[class]
    }
}

/// The cloud plus the per-epoch traffic tally, guarded by one mutex so
/// client operations and epoch ticks serialize.
struct CloudSlot {
    cloud: SkuteCloud,
    app: AppId,
    /// Query-units observed this epoch, per client country.
    tally: BTreeMap<(u16, u16), f64>,
}

/// Shared state behind the listener.
struct ServerState {
    slot: Mutex<CloudSlot>,
    topology: Topology,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    config: ServerConfig,
    shutdown: AtomicBool,
}

/// A bound, warmed-up Skute HTTP server. See the crate docs for the
/// protocol.
pub struct SkuteServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl SkuteServer {
    /// Builds the cloud (paper topology, 200 servers, 70/30 cost split),
    /// registers one `kv` application, drives `warmup_epochs` of uniform
    /// traffic so the ring reaches its SLA, and binds the listener.
    pub fn bind(config: ServerConfig) -> io::Result<SkuteServer> {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(
                config.server_storage_bytes,
                config.server_query_capacity,
            ),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let cloud_config = SkuteConfig::paper()
            .with_seed(config.seed)
            .with_threads(config.threads)
            .with_backend(config.backend);
        let mut cloud = SkuteCloud::new(cloud_config, topology.clone(), cluster);
        let app = cloud
            .create_application(
                AppSpec::new("kv").level(LevelSpec::new(config.replicas, config.partitions)),
            )
            .map_err(|e| io::Error::other(format!("application setup failed: {e:?}")))?;

        let registry = Arc::new(Registry::new());
        let cloud_metrics = skute_core::CloudMetrics::register(&registry);
        cloud.set_metrics(cloud_metrics);
        let metrics = ServerMetrics::register(&registry);

        // Warmup: uniform traffic across every country at roughly the
        // capacity the generator will offer, so replica counts settle
        // before the first client request arrives.
        let uniform: Vec<RegionWeight> = topology
            .iter_countries()
            .map(|(ct, co)| RegionWeight {
                location: Location::client_in_country(ct, co),
                weight: 1.0,
            })
            .collect();
        cloud.begin_epoch();
        for _ in 0..config.warmup_epochs {
            cloud
                .deliver_queries_multi(vec![TrafficBatch {
                    app,
                    level: 0,
                    queries: 50_000.0,
                    regions: uniform.clone(),
                }])
                .map_err(|e| io::Error::other(format!("warmup traffic failed: {e:?}")))?;
            cloud.end_epoch();
            cloud.begin_epoch();
        }

        let listener = TcpListener::bind(&config.addr as &str)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(SkuteServer {
            listener,
            addr,
            state: Arc::new(ServerState {
                slot: Mutex::new(CloudSlot {
                    cloud,
                    app,
                    tally: BTreeMap::new(),
                }),
                topology,
                registry,
                metrics,
                config,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Advances one epoch immediately (test hook; the tick thread does
    /// the same on its timer).
    pub fn tick_now(&self) {
        tick(&self.state);
    }

    /// Serves until a `POST /shutdown` arrives. Spawns the epoch tick
    /// thread (when `epoch_ms > 0`) and one thread per connection.
    pub fn run(self) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        let ticker = if state.config.epoch_ms > 0 {
            let tick_state = Arc::clone(&state);
            Some(thread::spawn(move || {
                let period = Duration::from_millis(tick_state.config.epoch_ms);
                while !tick_state.shutdown.load(Ordering::SeqCst) {
                    sleep_then_tick(&tick_state, period);
                }
            }))
        } else {
            None
        };
        let mut workers = Vec::new();
        while !state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn_state = Arc::clone(&state);
                    workers.push(thread::spawn(move || handle_connection(conn_state, stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            // Reap finished connection threads so the vec stays bounded.
            workers.retain(|h| !h.is_finished());
        }
        for h in workers {
            let _ = h.join();
        }
        if let Some(t) = ticker {
            let _ = t.join();
        }
        Ok(())
    }
}

/// Tick pacing: sleeps in short slices so shutdown stays responsive,
/// then runs one epoch tick.
fn sleep_then_tick(state: &Arc<ServerState>, period: Duration) {
    let start = Instant::now();
    while start.elapsed() < period {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(Duration::from_millis(
            25.min(period.as_millis() as u64).max(1),
        ));
    }
    tick(state);
}

/// One epoch tick: converts the tally into a [`TrafficBatch`], runs the
/// decision process, opens the next epoch, and clears the tally.
fn tick(state: &Arc<ServerState>) {
    let mut slot = state.slot.lock().expect("cloud lock");
    let total: f64 = slot.tally.values().sum();
    if total > 0.0 {
        let regions: Vec<RegionWeight> = slot
            .tally
            .iter()
            .map(|(&(ct, co), &weight)| RegionWeight {
                location: Location::client_in_country(ct, co),
                weight,
            })
            .collect();
        let app = slot.app;
        slot.cloud
            .deliver_queries_multi(vec![TrafficBatch {
                app,
                level: 0,
                queries: total,
                regions,
            }])
            .expect("registered app");
    }
    slot.cloud.end_epoch();
    slot.cloud.begin_epoch();
    slot.tally.clear();
    state.metrics.epoch_ticks.inc();
    state.metrics.epoch_pending_queries.set(0);
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    state.metrics.active_connections.add(1);
    let _ = stream.set_nodelay(true);
    // Connections came off a nonblocking listener; reads must block.
    let _ = stream.set_nonblocking(false);
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let _ = stream.set_read_timeout(timeout(state.config.read_timeout_ms));
    let _ = stream.set_write_timeout(timeout(state.config.write_timeout_ms));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            state.metrics.active_connections.sub(1);
            return;
        }
    });
    let mut writer = stream;
    loop {
        let request = match http::read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => break,
            Err(_) => {
                let _ = http::write_response(
                    &mut writer,
                    400,
                    "text/plain",
                    b"bad request\n",
                    &[],
                    false,
                );
                state.metrics.responses["client_error"].inc();
                break;
            }
        };
        let keep_alive = !request.wants_close();
        let close_after = handle_request(&state, &request, &mut writer, keep_alive);
        if close_after || !keep_alive || state.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    state.metrics.active_connections.sub(1);
}

/// Routes one request; returns true when the connection must close
/// (shutdown acknowledged).
fn handle_request<W: Write>(
    state: &Arc<ServerState>,
    request: &Request,
    writer: &mut W,
    keep_alive: bool,
) -> bool {
    let started = Instant::now();
    let path = request.path();
    let op = match (request.method.as_str(), path.as_str()) {
        ("GET", "/metrics") => "metrics",
        ("GET", "/healthz") => "health",
        ("POST", "/fault") => "fault",
        ("POST", "/shutdown") => "shutdown",
        ("GET", "/scan") => "scan",
        ("GET", p) if p.starts_with("/kv/") => "get",
        ("PUT", p) if p.starts_with("/kv/") => "put",
        ("DELETE", p) if p.starts_with("/kv/") => "delete",
        _ => "other",
    };
    state.metrics.requests[op].inc();
    let mut shutdown_now = false;
    let (status, content_type, body, extra): (u16, &str, Vec<u8>, Vec<(String, String)>) = match op
    {
        "health" => (200, "text/plain", b"ok\n".to_vec(), vec![]),
        "metrics" => {
            {
                let slot = state.slot.lock().expect("cloud lock");
                slot.cloud.refresh_storage_metrics();
            }
            // Count this response *before* rendering so the scrape's
            // own request/response pair balances in its own output.
            state.metrics.outcome_for(200).inc();
            (
                200,
                "text/plain; version=0.0.4",
                state.registry.render().into_bytes(),
                vec![],
            )
        }
        "shutdown" => {
            shutdown_now = true;
            (200, "text/plain", b"shutting down\n".to_vec(), vec![])
        }
        "get" | "put" | "delete" => handle_kv(state, request, op, &path),
        "scan" => handle_scan(state, request),
        "fault" => handle_fault(state, request),
        _ => (404, "text/plain", b"not found\n".to_vec(), vec![]),
    };
    let extra_refs: Vec<(&str, &str)> = extra
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let _ = http::write_response(
        writer,
        status,
        content_type,
        &body,
        &extra_refs,
        keep_alive && !shutdown_now,
    );
    if op != "metrics" {
        state.metrics.outcome_for(status).inc();
    }
    state.metrics.latency[op].observe_duration(started.elapsed());
    if shutdown_now {
        state.shutdown.store(true, Ordering::SeqCst);
    }
    shutdown_now
}

/// Parses `X-Country: <continent>.<country>` into a client location,
/// validated against the topology. `Ok(None)` means no header.
fn client_location(state: &ServerState, request: &Request) -> Result<Option<Location>, String> {
    let Some(raw) = request.header("x-country") else {
        return Ok(None);
    };
    let parsed = raw.split_once('.').and_then(|(ct, co)| {
        Some((
            ct.trim().parse::<u16>().ok()?,
            co.trim().parse::<u16>().ok()?,
        ))
    });
    let Some((ct, co)) = parsed else {
        return Err(format!("malformed X-Country {raw:?} (want ct.co)"));
    };
    if !state.topology.iter_countries().any(|c| c == (ct, co)) {
        return Err(format!("unknown country {ct}.{co}"));
    }
    Ok(Some(Location::client_in_country(ct, co)))
}

/// Charges one request's query-units to the epoch tally.
fn charge(state: &ServerState, slot: &mut CloudSlot, client: Option<Location>) {
    let key = client
        .map(|l| (l.continent, l.country))
        .unwrap_or((u16::MAX, u16::MAX));
    // Requests with no declared country still count as offered load;
    // bucket them under the first country so weights stay normalizable.
    let key = if key.0 == u16::MAX {
        state.topology.iter_countries().next().unwrap_or((0, 0))
    } else {
        key
    };
    *slot.tally.entry(key).or_insert(0.0) += state.config.queries_per_request;
    state
        .metrics
        .epoch_pending_queries
        .add(state.config.queries_per_request.round() as i64);
}

fn handle_kv(
    state: &Arc<ServerState>,
    request: &Request,
    op: &str,
    path: &str,
) -> (u16, &'static str, Vec<u8>, Vec<(String, String)>) {
    let key = path.as_bytes()["/kv/".len()..].to_vec();
    if key.is_empty() {
        return (400, "text/plain", b"empty key\n".to_vec(), vec![]);
    }
    let client = match client_location(state, request) {
        Ok(c) => c,
        Err(msg) => return (400, "text/plain", format!("{msg}\n").into_bytes(), vec![]),
    };
    let mut slot = state.slot.lock().expect("cloud lock");
    charge(state, &mut slot, client);
    let app = slot.app;
    match op {
        "put" => match slot.cloud.put(app, 0, &key, request.body.clone()) {
            Ok(()) => (204, "text/plain", Vec::new(), vec![]),
            Err(e) => (
                500,
                "text/plain",
                format!("put failed: {e:?}\n").into_bytes(),
                vec![],
            ),
        },
        "delete" => match slot.cloud.delete(app, 0, &key) {
            Ok(()) => (204, "text/plain", Vec::new(), vec![]),
            Err(e) => (
                500,
                "text/plain",
                format!("delete failed: {e:?}\n").into_bytes(),
                vec![],
            ),
        },
        _ => {
            let consistency = match request.header("x-consistency") {
                Some(raw) => match raw.trim().parse::<ReadConsistency>() {
                    Ok(c) => c,
                    Err(msg) => {
                        return (400, "text/plain", format!("{msg}\n").into_bytes(), vec![])
                    }
                },
                None => ReadConsistency::One,
            };
            match slot
                .cloud
                .client_get_with(app, 0, &key, client, consistency)
            {
                Ok(read) => {
                    let mut extra = vec![
                        ("X-Served-By".to_string(), read.served_by.to_string()),
                        ("X-Proximity".to_string(), format!("{:.6}", read.proximity)),
                        ("X-Consistency".to_string(), consistency.to_string()),
                        (
                            "X-Replicas-Read".to_string(),
                            read.replicas_read.to_string(),
                        ),
                    ];
                    // Degraded reads still answer (graceful degradation);
                    // the header lets clients detect the weakened quorum.
                    if read.degraded {
                        extra.push(("X-Degraded".to_string(), "true".to_string()));
                    }
                    match read.value {
                        Some(value) => (200, "application/octet-stream", value.to_vec(), extra),
                        None => (404, "text/plain", b"not found\n".to_vec(), extra),
                    }
                }
                Err(e) => (
                    500,
                    "text/plain",
                    format!("get failed: {e:?}\n").into_bytes(),
                    vec![],
                ),
            }
        }
    }
}

/// `POST /fault`: swaps the live cloud onto a new fault plan without a
/// restart. The body is one line:
///
/// * `<plan> [seed]` — a [`FaultPlanKind`] name (`none`, `gray`,
///   `partition`, `all`, ...); the seed defaults to the server seed.
/// * `cut <continent>` — force a continental partition immediately.
/// * `heal` — heal any continental cut (forced or plan-derived).
///
/// Plan swaps take effect at the next epoch tick (gray state refreshes
/// in `begin_epoch`); `cut`/`heal` also wait for the next tick. CI's
/// server-smoke uses this to inject gray failures mid-run and assert
/// that acked writes survive.
fn handle_fault(
    state: &Arc<ServerState>,
    request: &Request,
) -> (u16, &'static str, Vec<u8>, Vec<(String, String)>) {
    let body = String::from_utf8_lossy(&request.body);
    let mut words = body.split_whitespace();
    let verb = words.next().unwrap_or_default();
    let mut slot = state.slot.lock().expect("cloud lock");
    let reply = match verb {
        "" => {
            return (
                400,
                "text/plain",
                b"empty fault command (want '<plan> [seed]', 'cut <continent>' or 'heal')\n"
                    .to_vec(),
                vec![],
            )
        }
        "heal" => {
            slot.cloud.force_continent_partition(None);
            "fault: partition healed\n".to_string()
        }
        "cut" => {
            let continent = match words.next().map(str::parse::<u16>) {
                Some(Ok(c)) => c,
                _ => {
                    return (
                        400,
                        "text/plain",
                        b"cut wants a continent index\n".to_vec(),
                        vec![],
                    )
                }
            };
            slot.cloud.force_continent_partition(Some(continent));
            format!("fault: continent {continent} cut\n")
        }
        plan => {
            let kind = match plan.parse::<FaultPlanKind>() {
                Ok(k) => k,
                Err(msg) => return (400, "text/plain", format!("{msg}\n").into_bytes(), vec![]),
            };
            let seed = match words.next().map(str::parse::<u64>) {
                Some(Ok(s)) => s,
                Some(Err(e)) => {
                    return (
                        400,
                        "text/plain",
                        format!("bad fault seed: {e}\n").into_bytes(),
                        vec![],
                    )
                }
                None => state.config.seed,
            };
            slot.cloud.set_fault_plan(FaultPlan { kind, seed });
            format!("fault: plan {} seed {seed}\n", kind.as_str())
        }
    };
    (200, "text/plain", reply.into_bytes(), vec![])
}

fn handle_scan(
    state: &Arc<ServerState>,
    request: &Request,
) -> (u16, &'static str, Vec<u8>, Vec<(String, String)>) {
    let prefix = request.query_param("prefix").unwrap_or_default();
    let limit = match request.query_param("limit") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return (400, "text/plain", b"bad limit\n".to_vec(), vec![]);
            }
        },
        None => 100,
    };
    let client = match client_location(state, request) {
        Ok(c) => c,
        Err(msg) => return (400, "text/plain", format!("{msg}\n").into_bytes(), vec![]),
    };
    let mut slot = state.slot.lock().expect("cloud lock");
    charge(state, &mut slot, client);
    let app = slot.app;
    match slot.cloud.scan(app, 0, prefix.as_bytes(), limit) {
        Ok(pairs) => {
            let mut body = Vec::new();
            for (key, value) in &pairs {
                body.extend_from_slice(http::percent_encode(key).as_bytes());
                body.push(b'\t');
                body.extend_from_slice(http::percent_encode(value).as_bytes());
                body.push(b'\n');
            }
            let extra = vec![("X-Scan-Count".to_string(), pairs.len().to_string())];
            (200, "text/plain", body, extra)
        }
        Err(e) => (
            500,
            "text/plain",
            format!("scan failed: {e:?}\n").into_bytes(),
            vec![],
        ),
    }
}
