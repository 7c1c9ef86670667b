//! Result assembly: named metrics with units and sample counts, the
//! human-readable report, the per-run result file, and the one-line JSON
//! verdict that ends standard output.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (requests, epochs, repetitions...).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Operations attempted and failed; a failure is a 5xx or unexpected
/// status, a transport error after retries, or a failed output check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Counts `n` operations of which `failed` failed, for the reason
    /// `why` gives.
    pub fn count(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.examples.len() < 8 {
            self.examples.push(why());
        }
    }

    pub fn ok(&mut self) {
        self.count(1, 0, String::new);
    }

    pub fn fail(&mut self, why: String) {
        self.count(1, 1, || why);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.examples.len());
        self.examples.extend(other.examples.into_iter().take(room));
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Gated metrics (`end_to_end` without tracing, `per_layer` with it).
    pub gated: Vec<Metric>,
    /// Informational metrics printed beside the gated ones.
    pub info: Vec<Metric>,
    /// Free-form lines (coverage remainders, checks, overhead).
    pub notes: Vec<String>,
    pub tally: Tally,
}

impl Report {
    pub fn gate(&mut self, m: Metric) {
        self.gated.push(m);
    }

    pub fn info(&mut self, m: Metric) {
        self.info.push(m);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The human-readable report.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let line = |out: &mut String, kind: &str, m: &Metric| {
            let _ = writeln!(
                out,
                "{kind:<6} {:<40} {:>16.6} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            );
        };
        for m in &self.gated {
            line(&mut out, "metric", m);
        }
        for m in &self.info {
            line(&mut out, "info", m);
        }
        let _ = writeln!(
            out,
            "info   {:<40} {:>16.6} {:<9} n={}",
            "error_rate",
            self.error_rate(),
            "fraction",
            self.tally.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "note   {n}");
        }
        for e in &self.tally.examples {
            let _ = writeln!(out, "FAILED {e}");
        }
        out
    }

    /// The verdict line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every gated metric.
    pub fn verdict_json(&self) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The full result document written under the output directory.
    pub fn result_json(&self, context: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in context {
            let _ = write!(out, "\"{k}\": \"{}\", ", escape(v));
        }
        let list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    format!(
                        "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                        m.name,
                        json_number(m.value),
                        m.unit,
                        m.samples
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let _ = write!(
            out,
            "\"attempted\": {}, \"failed\": {}, \"gated\": [{}], \"info\": [{}], \"notes\": [{}]}}",
            self.tally.attempted,
            self.tally.failed,
            list(&self.gated),
            list(&self.info),
            notes.join(", ")
        );
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Reads the value of a metric named `name` from a result
/// file written by an earlier run (used for the tracing overhead).
pub fn read_metric(path: &Path, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let pattern = format!("\"name\": \"{name}\", \"value\": ");
    let at = text.find(&pattern)?;
    let rest = &text[at + pattern.len()..];
    rest.split(',').next()?.trim().parse().ok()
}
