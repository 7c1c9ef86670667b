//! The two serving workloads: an in-process `SkuteServer` driven over
//! loopback HTTP by two client threads, each on its own keep-alive
//! connection and owning a disjoint slice of the keyspace.
//!
//! A run sets up (bind + warm-up epochs + preload), measures capacity in
//! a closed loop, then latency in an open loop at the workload's fixed
//! offered rate. Every response is checked against the owning client's
//! model of its keys.

use std::io;
use std::thread;
use std::time::{Duration, Instant};

use skute_geo::Topology;
use skute_server::http::{self, Response};
use skute_server::{ServerConfig, SkuteServer};
use skute_store::BackendKind;

use crate::client::Conn;
use crate::layers;
use crate::report::{Metric, Report, Tally};
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::{peak_rss_mb, LayerValues};

/// Which serving workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// mem backend, 2 000 keys of 64 B, get 70 / put 25 / delete 2 /
    /// scan 3 with One reads.
    MixedMem,
    /// lsm backend, 20 000 keys of 1 KiB, put 50 / Quorum get 50.
    WriteLsm,
}

/// One operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Delete,
    Scan,
}

pub const OPS: [Op; 4] = [Op::Get, Op::Put, Op::Delete, Op::Scan];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Delete => "delete",
            Op::Scan => "scan",
        }
    }

    pub fn method(self) -> &'static str {
        match self {
            Op::Get | Op::Scan => "GET",
            Op::Put => "PUT",
            Op::Delete => "DELETE",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Client threads (and connections); one per available core.
pub const CLIENTS: usize = 2;

/// A serving workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub backend: BackendKind,
    /// Keys preloaded (split evenly between the clients).
    pub keys: usize,
    pub value_bytes: usize,
    pub mix: &'static [(Op, u32)],
    /// Reads at Quorum (else One).
    pub quorum: bool,
    pub scan_limit: usize,
    /// Offered rate of the open loop, requests per second over all
    /// clients; about half the closed-loop capacity at the seed commit.
    pub open_rate: f64,
    /// Server epoch tick period.
    pub tick_ms: u64,
    /// Set-ups per run (the last one is measured).
    pub setups: usize,
}

impl Serve {
    pub fn spec(self) -> Spec {
        match self {
            Serve::MixedMem => Spec {
                backend: BackendKind::Mem,
                keys: 2_000,
                value_bytes: 64,
                mix: &[(Op::Get, 70), (Op::Put, 25), (Op::Delete, 2), (Op::Scan, 3)],
                quorum: false,
                scan_limit: 20,
                open_rate: 6_000.0,
                tick_ms: 1_000,
                setups: crate::SETUPS,
            },
            Serve::WriteLsm => Spec {
                backend: BackendKind::Lsm,
                keys: 10_000,
                value_bytes: 1_024,
                mix: &[(Op::Put, 50), (Op::Get, 50)],
                quorum: true,
                scan_limit: 20,
                open_rate: 400.0,
                tick_ms: 1_000,
                setups: 1,
            },
        }
    }
}

/// splitmix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a client knows about one of its keys.
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Sequence number of the last acknowledged write (None = absent).
    acked: Option<u64>,
    /// Highest sequence number ever sent for the key.
    max_seq: u64,
    /// A delete was acknowledged at some point.
    deleted: bool,
    /// A write failed in transit: its outcome is unknown.
    ambiguous: bool,
}

/// The key of client `client`'s `idx`-th key. Zero-padded, so key order
/// is index order.
pub fn key_name(client: usize, idx: usize) -> String {
    format!("c{client}-{idx:06}")
}

/// A self-describing value: `key|client|seq|` padded to `len` bytes.
pub fn value_bytes(key: &str, client: usize, seq: u64, len: usize) -> Vec<u8> {
    let mut v = format!("{key}|{client}|{seq}|").into_bytes();
    if v.len() < len {
        v.resize(len, b'x');
    }
    v
}

/// Parses a value back into `(key, client, seq)`.
fn parse_value(v: &[u8]) -> Option<(&str, usize, u64)> {
    let s = std::str::from_utf8(v).ok()?;
    let mut parts = s.splitn(4, '|');
    let key = parts.next()?;
    let client = parts.next()?.parse().ok()?;
    let seq = parts.next()?.parse().ok()?;
    parts.next()?;
    Some((key, client, seq))
}

/// One client thread's state: its keys, its model of them, and what it
/// measured.
pub struct Client {
    pub id: usize,
    spec: Spec,
    rng: Rng,
    keys: Vec<String>,
    state: Vec<KeyState>,
    seq: u64,
    countries: Vec<String>,
    trace: bool,
    span_id: u64,
    pub tally: Tally,
    pub latency: [Samples; 4],
    pub late: Samples,
    pub spans: Vec<Span>,
    /// The last response seen per op (the http layer probe reuses it).
    pub last_response: [Option<Response>; 4],
}

impl Client {
    fn new(id: usize, spec: Spec, seed: u64, trace: bool) -> Self {
        let per_client = spec.keys / CLIENTS;
        let countries = Topology::paper()
            .iter_countries()
            .map(|(ct, co)| format!("{ct}.{co}"))
            .collect();
        Self {
            id,
            spec,
            rng: Rng::new(seed, 1 + id as u64),
            keys: (0..per_client).map(|i| key_name(id, i)).collect(),
            state: vec![KeyState::default(); per_client],
            seq: 0,
            countries,
            trace,
            span_id: (id as u64) << 40,
            tally: Tally::default(),
            latency: Default::default(),
            late: Samples::new(),
            spans: Vec::new(),
            last_response: Default::default(),
        }
    }

    /// Writes every owned key once.
    fn preload(&mut self, conn: &mut Conn) {
        for idx in 0..self.keys.len() {
            self.put(conn, idx);
        }
    }

    fn pick_op(&mut self) -> Op {
        let total: u32 = self.spec.mix.iter().map(|&(_, w)| w).sum();
        let mut roll = self.rng.below(total as usize) as u32;
        for &(op, w) in self.spec.mix {
            if roll < w {
                return op;
            }
            roll -= w;
        }
        unreachable!("roll < total")
    }

    /// Issues one operation of kind `op` on a random owned key; returns
    /// (send instant, completion instant) when a response arrived.
    pub fn issue(
        &mut self,
        conn: &mut Conn,
        op: Op,
        tracer: &Tracer,
    ) -> Option<(Instant, Instant)> {
        let idx = self.rng.below(self.keys.len());
        let start = Instant::now();
        let ok = match op {
            Op::Get => self.get(conn, idx),
            Op::Put => self.put(conn, idx),
            Op::Delete => self.delete(conn, idx),
            Op::Scan => self.scan(conn, idx),
        };
        let end = Instant::now();
        if self.trace {
            self.span_id += 1;
            self.spans.push(Span {
                layer: "loadgen",
                name: op.name(),
                id: self.span_id,
                parent: 0,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
            });
        }
        ok.then_some((start, end))
    }

    fn country(&mut self) -> String {
        let i = self.rng.below(self.countries.len());
        self.countries[i].clone()
    }

    fn keep(&mut self, op: Op, r: &Response) {
        if self.trace {
            self.last_response[op.index()] = Some(r.clone());
        }
    }

    fn send(&mut self, conn: &mut Conn, op: Op, idx: usize) -> Result<Response, String> {
        let method = op.method();
        let country = self.country();
        let (target, headers, body) =
            request_parts(&self.spec, op, self.id, &self.keys[idx], &country, self.seq);
        let refs: Vec<(&str, &str)> = headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
        conn.call(method, &target, &refs, &body)
            .map_err(|e| format!("{} {target}: transport error {e}", op.name()))
    }

    fn put(&mut self, conn: &mut Conn, idx: usize) -> bool {
        self.seq += 1;
        let seq = self.seq;
        self.state[idx].max_seq = seq;
        match self.send(conn, Op::Put, idx) {
            Ok(r) if r.status == 204 => {
                self.keep(Op::Put, &r);
                self.state[idx].acked = Some(seq);
                self.state[idx].ambiguous = false;
                self.tally.ok();
                true
            }
            other => {
                self.state[idx].ambiguous = true;
                let why = describe(other, "put", &self.keys[idx]);
                self.tally.fail(why);
                false
            }
        }
    }

    fn delete(&mut self, conn: &mut Conn, idx: usize) -> bool {
        match self.send(conn, Op::Delete, idx) {
            Ok(r) if r.status == 204 => {
                self.keep(Op::Delete, &r);
                let s = &mut self.state[idx];
                s.acked = None;
                s.deleted = true;
                s.ambiguous = false;
                self.tally.ok();
                true
            }
            other => {
                self.state[idx].ambiguous = true;
                let why = describe(other, "delete", &self.keys[idx]);
                self.tally.fail(why);
                false
            }
        }
    }

    fn get(&mut self, conn: &mut Conn, idx: usize) -> bool {
        let r = match self.send(conn, Op::Get, idx) {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(e);
                return false;
            }
        };
        self.keep(Op::Get, &r);
        let key = &self.keys[idx];
        let s = self.state[idx];
        let verdict = match r.status {
            200 => match parse_value(&r.body) {
                Some((k, c, seq)) if k == key && c == self.id => {
                    if s.ambiguous || !self.spec.quorum {
                        // One: any value written for the key.
                        (seq <= s.max_seq)
                            .then_some(())
                            .ok_or(format!("get {key}: seq {seq} was never written"))
                    } else {
                        (s.acked == Some(seq)).then_some(()).ok_or(format!(
                            "quorum get {key}: seq {seq}, last acknowledged write {:?}",
                            s.acked
                        ))
                    }
                }
                _ => Err(format!("get {key}: value not written for this key")),
            },
            404 => {
                let allowed = if s.ambiguous || !self.spec.quorum {
                    s.deleted || s.ambiguous
                } else {
                    s.acked.is_none()
                };
                allowed.then_some(()).ok_or(format!(
                    "get {key}: 404 but last acknowledged write {:?}",
                    s.acked
                ))
            }
            status => Err(format!("get {key}: status {status}")),
        };
        self.settle(verdict)
    }

    fn scan(&mut self, conn: &mut Conn, idx: usize) -> bool {
        let r = match self.send(conn, Op::Scan, idx) {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(e);
                return false;
            }
        };
        self.keep(Op::Scan, &r);
        let prefix = scan_prefix(&self.keys[idx]).to_string();
        let verdict = if r.status != 200 {
            Err(format!("scan {prefix}: status {}", r.status))
        } else {
            self.check_scan(&prefix, &r.body)
        };
        self.settle(verdict)
    }

    /// A scan must be sorted, carry the prefix, respect the limit, and —
    /// the prefix selecting only this client's keys — return exactly the
    /// first `limit` live keys with their last acknowledged values.
    fn check_scan(&self, prefix: &str, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| format!("scan {prefix}: non-UTF-8"))?;
        let mut got = Vec::new();
        for line in text.lines() {
            let (k, v) = line
                .split_once('\t')
                .ok_or(format!("scan {prefix}: malformed line"))?;
            got.push((http::percent_decode(k), http::percent_decode(v)));
        }
        if got.len() > self.spec.scan_limit {
            return Err(format!("scan {prefix}: {} pairs over limit", got.len()));
        }
        if got.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(format!("scan {prefix}: keys not strictly ascending"));
        }
        if let Some((k, _)) = got.iter().find(|(k, _)| !k.starts_with(prefix)) {
            return Err(format!("scan {prefix}: key {k} lacks the prefix"));
        }
        let first = self.keys.partition_point(|k| k.as_str() < prefix);
        let mut expected = Vec::new();
        for i in first..self.keys.len() {
            if !self.keys[i].starts_with(prefix) || expected.len() == self.spec.scan_limit {
                break;
            }
            let s = self.state[i];
            if s.ambiguous {
                // Outcome unknown: skip the exact comparison.
                return Ok(());
            }
            if let Some(seq) = s.acked {
                expected.push((i, seq));
            }
        }
        if got.len() != expected.len() {
            return Err(format!(
                "scan {prefix}: {} pairs, model has {}",
                got.len(),
                expected.len()
            ));
        }
        for ((k, v), &(i, seq)) in got.iter().zip(&expected) {
            let parsed = parse_value(v.as_bytes());
            if *k != self.keys[i] || parsed != Some((k.as_str(), self.id, seq)) {
                return Err(format!(
                    "scan {prefix}: {k} is not {} at seq {seq}",
                    self.keys[i]
                ));
            }
        }
        Ok(())
    }

    /// Records a checked response. A response arrived, so the request
    /// counts as completed even when its check failed.
    fn settle(&mut self, verdict: Result<(), String>) -> bool {
        match verdict {
            Ok(()) => self.tally.ok(),
            Err(why) => self.tally.fail(why),
        }
        true
    }

    /// Live user bytes: key + value of every key not known deleted.
    pub fn live_bytes(&self) -> u64 {
        self.keys
            .iter()
            .zip(&self.state)
            .filter(|(_, s)| s.acked.is_some() || s.ambiguous)
            .map(|(k, _)| (k.len() + self.spec.value_bytes) as u64)
            .sum()
    }
}

/// Target, headers and body of one request, exactly as a client sends
/// it (`seq` numbers a put's value).
pub fn request_parts(
    spec: &Spec,
    op: Op,
    client: usize,
    key: &str,
    country: &str,
    seq: u64,
) -> (String, Vec<(&'static str, String)>, Vec<u8>) {
    let mut headers = vec![("X-Country", country.to_string())];
    match op {
        Op::Get => {
            let c = if spec.quorum { "quorum" } else { "one" };
            headers.push(("X-Consistency", c.to_string()));
            (format!("/kv/{key}"), headers, Vec::new())
        }
        Op::Put => (
            format!("/kv/{key}"),
            headers,
            value_bytes(key, client, seq, spec.value_bytes),
        ),
        Op::Delete => (format!("/kv/{key}"), headers, Vec::new()),
        Op::Scan => (
            format!(
                "/scan?prefix={}&limit={}",
                scan_prefix(key),
                spec.scan_limit
            ),
            headers,
            Vec::new(),
        ),
    }
}

/// The scan prefix of a key: its first four index digits, so each
/// prefix selects 100 of the owning client's keys.
pub fn scan_prefix(key: &str) -> &str {
    &key[..key.len() - 2]
}

fn describe(r: Result<Response, String>, op: &str, key: &str) -> String {
    match r {
        Ok(r) => format!("{op} {key}: status {}", r.status),
        Err(e) => e,
    }
}

/// A bound server serving on its own thread, plus its preloaded clients
/// and their connections.
struct Live {
    addr: String,
    server: thread::JoinHandle<io::Result<()>>,
    pairs: Vec<(Client, Conn)>,
    /// Bind (cloud build + warm-up epochs) plus preload, in seconds.
    setup_s: f64,
    /// Timed `tick_now` calls made between bind and serve (traced runs
    /// only; excluded from the set-up time).
    ticks: Samples,
}

impl Live {
    /// Binds, optionally times `tick_probe` epoch ticks, starts serving,
    /// and preloads every key.
    fn start(spec: Spec, seed: u64, trace: bool, tick_probe: usize) -> io::Result<Live> {
        let config = ServerConfig {
            replicas: 3,
            partitions: 32,
            seed,
            threads: 1,
            backend: spec.backend,
            epoch_ms: spec.tick_ms,
            ..ServerConfig::default()
        };
        let t = Instant::now();
        let server = SkuteServer::bind(config)?;
        let mut setup_s = t.elapsed().as_secs_f64();
        let mut ticks = Samples::new();
        for _ in 0..tick_probe {
            let t = Instant::now();
            server.tick_now();
            ticks.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let addr = server.addr().to_string();
        let handle = thread::spawn(move || server.run());
        let loaders: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let addr = addr.clone();
                thread::spawn(move || -> io::Result<(Client, Conn)> {
                    let mut client = Client::new(id, spec, seed, trace);
                    let mut conn = Conn::connect(&addr)?;
                    client.preload(&mut conn);
                    client.spans.clear();
                    Ok((client, conn))
                })
            })
            .collect();
        let mut pairs = Vec::new();
        for l in loaders {
            pairs.push(l.join().expect("preload thread")?);
        }
        setup_s += t.elapsed().as_secs_f64();
        Ok(Live {
            addr,
            server: handle,
            pairs,
            setup_s,
            ticks,
        })
    }

    /// Closes the clients' connections, asks the server to shut down, and
    /// waits for it.
    fn stop(self) -> io::Result<Vec<Client>> {
        let clients = self.pairs.into_iter().map(|(c, _conn)| c).collect();
        skute_server::post(&self.addr, "/shutdown")?;
        self.server.join().expect("server thread")?;
        Ok(clients)
    }
}

/// Each client with its connection.
type Pairs = Vec<(Client, Conn)>;

/// Length of one closed-loop segment.
const SEGMENT_S: f64 = 1.0;

/// Runs the closed loop for `secs` as back-to-back segments of
/// `SEGMENT_S`, each on fresh connections and so on fresh server
/// threads. How the scheduler places client and server threads on the
/// CPUs is decided per segment; a placement that slows every handoff then
/// costs one segment, not the run. Returns the clients, the completed
/// count, and each segment's completion rate.
fn closed_loop(
    mut pairs: Pairs,
    secs: f64,
    addr: &str,
    tracer: &Tracer,
) -> io::Result<(Pairs, u64, Samples)> {
    let segments = ((secs / SEGMENT_S).round() as usize).max(1);
    let mut total = 0;
    let mut rates = Samples::new();
    for _ in 0..segments {
        let fresh = pairs
            .into_iter()
            .map(|(client, old)| {
                drop(old);
                Ok((client, Conn::connect(addr)?))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(SEGMENT_S);
        let (next, done): (Vec<_>, Vec<u64>) = thread::scope(|s| {
            let handles: Vec<_> = fresh
                .into_iter()
                .map(|(mut client, mut conn)| {
                    s.spawn(move || {
                        let mut done = 0u64;
                        while Instant::now() < deadline {
                            let op = client.pick_op();
                            if client.issue(&mut conn, op, tracer).is_some() {
                                done += 1;
                            }
                        }
                        ((client, conn), done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client"))
                .unzip()
        });
        let n: u64 = done.iter().sum();
        rates.push(n as f64 / start.elapsed().as_secs_f64());
        total += n;
        pairs = next;
    }
    Ok((pairs, total, rates))
}

/// Runs the open loop for `secs` at `rate` requests/s over all clients:
/// client `i` sends at `start + (i + k·CLIENTS)/rate`, and each latency
/// is timed from that due instant.
fn open_loop(pairs: Pairs, secs: f64, rate: f64, tracer: &Tracer) -> Pairs {
    let start = Instant::now() + Duration::from_millis(5);
    let interval = CLIENTS as f64 / rate;
    thread::scope(|s| {
        let handles: Vec<_> = pairs
            .into_iter()
            .map(|(mut client, mut conn)| {
                s.spawn(move || {
                    let sends = (secs * rate / CLIENTS as f64) as usize + 1;
                    client.late.reserve(sends);
                    for l in &mut client.latency {
                        l.reserve(sends);
                    }
                    let offset = client.id as f64 / rate;
                    let mut k = 0u64;
                    loop {
                        let at = offset + k as f64 * interval;
                        if at >= secs {
                            break;
                        }
                        k += 1;
                        let due = start + Duration::from_secs_f64(at);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let op = client.pick_op();
                        if let Some((sent, done)) = client.issue(&mut conn, op, tracer) {
                            client
                                .late
                                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                            client.latency[op.index()]
                                .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
                        }
                    }
                    (client, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client"))
            .collect()
    })
}

/// Share of the run spent in the closed loop; the rest is the open loop.
const CLOSED_SHARE: f64 = 0.4;
/// Timed `tick_now` calls in a traced run.
const TICK_PROBE: usize = 30;

pub fn run(
    serve: Serve,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
    layers: &mut LayerValues,
) -> io::Result<()> {
    let spec = serve.spec();
    let mut setup = Samples::new();
    let mut live: Option<Live> = None;
    for i in 0..spec.setups {
        if let Some(l) = live.take() {
            l.stop()?;
        }
        let last = i + 1 == spec.setups;
        let probe = if tracer.enabled() && last {
            TICK_PROBE
        } else {
            0
        };
        let l = Live::start(spec, seed, tracer.enabled(), probe)?;
        setup.push(l.setup_s);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let pairs = std::mem::take(&mut live.pairs);

    let before = skute_server::scrape(&live.addr, "/metrics")?;
    let (pairs, completed, mut segments) =
        closed_loop(pairs, seconds * CLOSED_SHARE, &live.addr, tracer)?;
    let pairs = open_loop(
        pairs,
        seconds * (1.0 - CLOSED_SHARE),
        spec.open_rate,
        tracer,
    );
    let after = skute_server::scrape(&live.addr, "/metrics")?;
    let disk = if tracer.enabled() {
        Some(layers::dir_bytes(&std::env::temp_dir()))
    } else {
        None
    };
    live.pairs = pairs;
    let mut ticks = std::mem::take(&mut live.ticks);
    let clients = live.stop()?;

    report.note(format!(
        "closed-loop segment rates (req/s): {}",
        segments
            .values()
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The median segment sets the rate, so a neighbour's burst on a
    // shared host moves one segment rather than the result.
    let throughput = segments.median().unwrap_or(0.0);
    let sent: usize = clients.iter().map(|c| c.late.len()).sum();
    let mut all = Samples::new();
    all.reserve(sent);
    let mut late = Samples::new();
    late.reserve(sent);
    let mut per_op: [Samples; 4] = Default::default();
    for c in &clients {
        for op in OPS {
            all.extend(&c.latency[op.index()]);
            per_op[op.index()].extend(&c.latency[op.index()]);
        }
        late.extend(&c.late);
        report.tally.absorb(c.tally.clone());
    }

    report.gate(Metric::new(
        "setup_s",
        setup.median().unwrap_or(0.0),
        "s",
        setup.len(),
    ));
    report.gate(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1));
    report.gate(Metric::new(
        "throughput",
        throughput,
        "op/s",
        completed as usize,
    ));
    // Each op kind's median, weighted by its share of requests: the
    // median of all requests would sit in the gap between two op kinds'
    // latencies when their shares are near 50/50, and jump between them.
    let weighted: f64 = per_op
        .iter_mut()
        .map(|s| s.median().map_or(0.0, |m| m * s.len() as f64))
        .sum();
    report.gate(Metric::new(
        "latency_p50_ms",
        weighted / all.len().max(1) as f64,
        "ms",
        all.len(),
    ));
    report.info(Metric::new(
        "latency_mean_ms",
        all.mean().unwrap_or(0.0),
        "ms",
        all.len(),
    ));
    report.info(Metric::new(
        "throughput_rps",
        throughput,
        "req/s",
        completed as usize,
    ));
    report.info(Metric::new(
        "open_rate_rps",
        spec.open_rate,
        "req/s",
        all.len(),
    ));
    for op in OPS {
        let s = &mut per_op[op.index()];
        let n = s.len();
        if n == 0 {
            continue;
        }
        for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
            let v = if q == 0.5 { s.median() } else { s.quantile(q) };
            if let Some(v) = v {
                report.info(Metric::new(format!("{}_{label}_ms", op.name()), v, "ms", n));
            }
        }
    }
    if let Some(p99) = all.quantile(0.99) {
        report.info(Metric::new("latency_p99_ms", p99, "ms", all.len()));
    }
    let late_p99 = late
        .quantile(0.99)
        .unwrap_or_else(|| late.max().unwrap_or(0.0));
    report.info(Metric::new("late_p99_ms", late_p99, "ms", late.len()));
    report.info(Metric::new(
        "work_ns_per_op",
        1e9 / throughput,
        "ns",
        completed as usize,
    ));
    if let Some(grew) = backlog_growth(&clients) {
        report.note(format!(
            "INVALID open loop: sends in the last tenth ran {grew:.2} ms later than in the first"
        ));
    }

    if tracer.enabled() {
        for c in &clients {
            tracer.absorb(c.spans.clone());
        }
        layers.set("loadgen.late_p99_ms", late_p99, late.len());
        layers::server_layers(&before, &after, &mut ticks, layers, report);
        let live_bytes: u64 = clients.iter().map(Client::live_bytes).sum();
        if let Some(disk) = disk {
            layers.set("store.space_amp", disk as f64 / live_bytes.max(1) as f64, 1);
            report.note(format!(
                "store: {disk} bytes on disk under the run's temp dir for {live_bytes} live user bytes"
            ));
        }
        layers::store_layers(&before, &after, layers);
        layers::http_layer(spec, &clients, layers);
        layers::cloud_layer(spec, seed, tracer, layers, report);
        let read = if spec.quorum {
            "cloud.get_quorum_us"
        } else {
            "cloud.get_one_us"
        };
        for (op, cloud) in [
            ("get", read),
            ("put", "cloud.put_us"),
            ("scan", "cloud.scan_us"),
        ] {
            let handle = layers.get(&format!("server.handle_us.{op}"));
            if handle > 0.0 {
                let (direct, write) = (layers.get(cloud), layers.get("http.write_ns") / 1e3);
                report.note(format!(
                    "server.handle_us.{op} {handle:.2} = {cloud} {direct:.2} + http.write {write:.2} + uncovered {:.2} us (cloud-lock wait, routing, response building)",
                    handle - direct - write
                ));
            }
        }
    }
    Ok(())
}

/// How much later (ms) the open loop sent in its last tenth than in its
/// first, when that exceeds one send interval (a growing backlog).
fn backlog_growth(clients: &[Client]) -> Option<f64> {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let grew = clients
        .iter()
        .map(|c| c.late.values())
        .filter(|v| v.len() >= 20)
        .map(|v| mean(&v[v.len() - v.len() / 10..]) - mean(&v[..v.len() / 10]))
        .fold(0.0, f64::max);
    let interval_ms = 1e3 * CLIENTS as f64 / clients.first()?.spec.open_rate;
    (grew > interval_ms.max(1.0)).then_some(grew)
}
