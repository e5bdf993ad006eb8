//! Named metrics with units, the per-run report, and the run manifest.

use crate::json::Json;
use crate::stack::Checks;

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric as `BENCHMARK.json` fixes it: the share of
/// the baseline's median by which it may worsen before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them (a
/// test keeps the two in step). Every untraced run of every workload
/// reports all of them.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "1/s", Better::Higher, 0.25),
    e2e("fresh_read_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_s_per_mevent", "s", Better::Lower, 0.25),
];

/// The five workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "replay-balanced",
    "replay-skew",
    "wire-ps-closed",
    "views-mixed-open",
    "cluster-durable-closed",
];

/// An ordered name → (value, unit) map. Setting a name twice keeps the
/// later value, which is how a traced window overrides a ladder rung's
/// reading of the same counter.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
            "metric name {name:?}"
        );
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => (m.1, m.2) = (value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| (n.clone(), Json::obj().with("value", *v).with("unit", *u)))
                .collect(),
        )
    }
}

/// Everything one run of one workload produced.
pub struct RunReport {
    pub workload: &'static str,
    pub traced: bool,
    /// The end-to-end metrics of an untraced run, or the per-layer
    /// metrics of a traced one.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Resolved configuration, window, sample counts and validity
    /// flags of this run.
    pub info: Json,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.checks.all_ok() && self.failed == 0
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json())
            .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json())
            .with("info", self.info.clone())
            .with("checks", self.checks.to_json())
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and on what the numbers were taken: commit (with a dirty
/// flag), core count, compiler, scale and seed. A checkout without git
/// metadata reports `git_rev: null`.
pub fn manifest(scale: &str, seed: u64, seconds: u64) -> Json {
    let git_rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = git_rev
        .as_ref()
        .map(|_| command_line("git", &["status", "--porcelain"]).is_some());
    Json::obj()
        .with("git_rev", git_rev)
        .with("git_dirty", dirty)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("rustc", command_line("rustc", &["-V"]))
        .with("scale", scale)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("batch", crate::inputs::BATCH)
        .with("policy", crate::inputs::POLICY)
}
