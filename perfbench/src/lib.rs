//! End-to-end benchmark of confidential top-k retrieval (Zerber+R).
//!
//! Three workloads run against the repository's public API:
//!
//! * `topk_interactive` — one client thread in a closed loop issuing
//!   multi-term `Client::query_multi` calls (k = b = 10, doubling) against
//!   the default sharded in-memory engine, with chunks of document inserts
//!   spread over the run;
//! * `batched_rounds` — the initial requests of 64 users' queries, packed
//!   into cross-user rounds of 64 and served by
//!   `IndexServer::handle_query_stream` (no client decryption), with chunks
//!   of inserts spread over the run;
//! * `ingest_mixed` — one client thread running 9 queries per
//!   `Client::insert_document` against a durable spill store whose resident
//!   budget and page cache hold about a quarter of the index.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays a
//! fixed prefix of the same operations twice — once through the real client
//! and once through [`replay::TracedClient`] over a [`trace::TracedStore`] —
//! and reports per-layer metrics.  See `README.md` for every metric.

pub mod check;
pub mod replay;
pub mod setup;
pub mod stats;
pub mod trace;
mod workloads;

pub use workloads::run;

use setup::Size;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TopkInteractive,
    BatchedRounds,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TopkInteractive,
        Workload::BatchedRounds,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkInteractive => "topk_interactive",
            Workload::BatchedRounds => "batched_rounds",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum wall time of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and detail, as `(key, JSON value)` pairs.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line printed before the result.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), v))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // Not representable in JSON; the run is marked failed instead.
        "null".to_string()
    }
}
