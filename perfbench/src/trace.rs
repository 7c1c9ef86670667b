//! In-memory span recorder for the traced run. Spans are recorded around
//! the benchmark's calls into each layer (the program itself carries no
//! spans) and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Spans of one request or epoch share an id.
    pub id: u64,
    /// The id of the span that caused this one (0 = a root).
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread; a disabled recorder drops everything
/// without taking the lock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from explicit instants.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            layer,
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("tracer lock").push(span);
    }

    /// Records many spans at once (a thread's local buffer).
    pub fn absorb(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.lock().expect("tracer lock").extend(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"layer\": \"{}\", \"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.name, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
