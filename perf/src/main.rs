//! `perf` — the layered benchmark every performance claim about this
//! repository is measured with. See `README.md` beside `Cargo.toml`
//! for why each workload exists and what each metric means.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   the BENCHMARK.json contract
//! perf run [--all | <workload>…] [--seed n] [--seconds s] [--repeat n] [--smoke]
//! perf trace <workload> [--seed n] [--seconds s]
//! perf compare A.json B.json
//! perf sweep views-mixed-open [--rates 0.5x,1x,1.5x,2x] [--limit-ms x]
//! ```

mod compare;
mod inputs;
mod json;
mod ladder;
mod open;
mod proc;
mod replay;
mod report;
mod span;
mod stack;
mod stats;
mod wire;
mod workloads;

use inputs::Scale;
use json::Json;
use report::{manifest, RunReport, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunOptions;

/// Seconds a run measures unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 2005;

const USAGE: &str = "usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  perf run [--all | <workload>...] [--seed n] [--seconds s] [--repeat n] [--smoke] [--out-dir d]
  perf trace <workload> [--seed n] [--seconds s] [--smoke] [--out-dir d]
  perf compare A.json B.json
  perf sweep views-mixed-open [--rates 0.5x,1x,1.5x,2x] [--limit-ms x] [--seed n] [--seconds s]
workloads: replay-balanced replay-skew wire-ps-closed views-mixed-open cluster-durable-closed";

/// Flags shared by the subcommands, plus the positional arguments.
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    smoke: bool,
    repeat: usize,
    rates: Vec<f64>,
    limit_ms: f64,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        all: false,
        smoke: false,
        repeat: 1,
        rates: vec![0.5, 1.0, 1.5, 2.0],
        limit_ms: 50.0,
        out_dir: PathBuf::from("perf/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match arg.as_str() {
            "--workload" => a.workload = Some(value(arg)?),
            "--seed" => a.seed = num(arg, value(arg)?)?,
            "--seconds" => a.seconds = num::<u64>(arg, value(arg)?)?.clamp(1, 120),
            "--trace" => a.trace = num::<u8>(arg, value(arg)?)? != 0,
            "--repeat" => a.repeat = num::<usize>(arg, value(arg)?)?.max(1),
            "--limit-ms" => a.limit_ms = num(arg, value(arg)?)?,
            "--out-dir" => a.out_dir = PathBuf::from(value(arg)?),
            "--rates" => {
                a.rates = value(arg)?
                    .split(',')
                    .map(|r| num(arg, r.trim_end_matches('x').to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn workload_named(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn options(a: &Args, trace: bool) -> RunOptions {
    RunOptions {
        seed: a.seed,
        seconds: a.seconds,
        trace,
        scale: if a.smoke { Scale::Small } else { Scale::Medium },
        rate_scale: 1.0,
        setup_reps: if a.smoke { 1 } else { 3 },
        out_dir: a.out_dir.clone(),
    }
}

fn run_one(workload: &'static str, opts: &RunOptions) -> Result<RunReport, String> {
    let report = workloads::run(workload, opts).map_err(|e| format!("{workload}: {e}"))?;
    for c in report.checks.0.iter().filter(|c| !c.ok) {
        eprintln!("{workload}: CHECK FAILED: {}: {}", c.name, c.detail);
    }
    Ok(report)
}

/// min / median / max of every metric over a workload's repeated runs.
fn summarize(reports: &[RunReport]) -> Json {
    let mut out = Json::obj();
    for workload in WORKLOADS {
        let runs: Vec<&RunReport> = reports.iter().filter(|r| r.workload == workload).collect();
        let Some(first) = runs.first() else { continue };
        let mut per = Json::obj().with("runs", runs.len());
        for (name, _, unit) in first.metrics.iter() {
            let mut v: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(name)).collect();
            v.sort_by(f64::total_cmp);
            per.set(
                name,
                Json::obj()
                    .with("min", v[0])
                    .with("median", v[v.len() / 2])
                    .with("max", v[v.len() - 1])
                    .with("spread", compare::spread(&v))
                    .with("unit", unit),
            );
        }
        out.set(workload, per);
    }
    out
}

/// The document `perf run` and `perf trace` print.
fn document(a: &Args, reports: &[RunReport]) -> Json {
    let scale = if a.smoke { Scale::Small } else { Scale::Medium };
    let mut doc = Json::obj()
        .with("benchmark", "aivm-perf")
        .with("manifest", manifest(scale.name(), a.seed, a.seconds))
        .with("correct", reports.iter().all(RunReport::correct));
    if a.repeat > 1 {
        doc.set("summary", summarize(reports));
    }
    doc.with(
        "runs",
        reports.iter().map(RunReport::to_json).collect::<Vec<_>>(),
    )
}

fn cmd_run(a: &Args, trace: bool) -> Result<bool, String> {
    let workloads: Vec<&'static str> = if a.all || a.positional.is_empty() && !trace {
        WORKLOADS.to_vec()
    } else {
        a.positional
            .iter()
            .map(|w| workload_named(w))
            .collect::<Result<_, _>>()?
    };
    if workloads.is_empty() {
        return Err("name a workload".into());
    }
    let opts = options(a, trace);
    let mut reports = Vec::new();
    for rep in 0..a.repeat {
        for &w in &workloads {
            eprintln!("perf: {w} (run {} of {})", rep + 1, a.repeat);
            reports.push(run_one(w, &opts)?);
        }
    }
    print!("{}", document(a, &reports).pretty());
    Ok(reports.iter().all(RunReport::correct))
}

fn cmd_compare(a: &Args) -> Result<bool, String> {
    let [pa, pb] = a.positional.as_slice() else {
        return Err("compare needs two report files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, bad) = compare::compare(&load(pa)?, &load(pb)?);
    print!("{table}");
    println!("{bad} row(s) regressed or unresolved");
    Ok(bad == 0)
}

/// Off-contract: `views-mixed-open` at multiples of its frozen offered
/// rate, to find the highest one that holds without a growing queue
/// and with `fresh_read_p99_ms` under the stated limit.
fn cmd_sweep(a: &Args) -> Result<bool, String> {
    if a.positional != ["views-mixed-open"] {
        return Err("sweep supports views-mixed-open only".into());
    }
    let mut rows = Vec::new();
    let mut sustainable: Option<f64> = None;
    for &scale in &a.rates {
        eprintln!("perf: views-mixed-open at {scale}x");
        let opts = RunOptions {
            rate_scale: scale,
            setup_reps: 1,
            ..options(a, false)
        };
        let r = run_one("views-mixed-open", &opts)?;
        let flag = |k: &str| r.info.get(k) == Some(&Json::Bool(true));
        let p99 = r
            .info
            .get("samples")
            .and_then(|s| s.get("fresh_read"))
            .and_then(|s| s.get("p99_ms"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let holds = r.correct() && flag("kept_up") && !flag("queue_growing") && p99 <= a.limit_ms;
        if holds {
            sustainable = Some(sustainable.map_or(scale, |s: f64| s.max(scale)));
        }
        rows.push(
            Json::obj()
                .with("rate_scale", scale)
                .with(
                    "offered_events_per_s",
                    workloads::OPEN_RATES.submit * scale * inputs::BATCH as f64,
                )
                .with("events_per_s", r.metrics.get("events_per_s"))
                .with("fresh_read_p50_ms", r.metrics.get("fresh_read_p50_ms"))
                .with("fresh_read_p99_ms", p99)
                .with("kept_up", flag("kept_up"))
                .with("queue_growing", flag("queue_growing"))
                .with("holds", holds),
        );
    }
    let doc = Json::obj()
        .with("sweep", "views-mixed-open")
        .with("fresh_read_p99_limit_ms", a.limit_ms)
        .with("highest_sustainable_rate_scale", sustainable)
        .with("rates", rows);
    print!("{}", doc.pretty());
    Ok(true)
}

/// The `BENCHMARK.json` contract: one workload, one run, and as the
/// last line of standard output one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn cmd_contract(a: &Args) -> Result<bool, String> {
    let workload = workload_named(a.workload.as_deref().unwrap_or_default())?;
    let report = run_one(workload, &options(a, a.trace))?;
    println!("{}", report.to_json().render());
    println!("{}", report.contract_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run" | "trace" | "compare" | "sweep") => (argv[0].as_str(), &argv[1..]),
        _ => ("contract", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|a| match command {
        "run" => cmd_run(&a, false),
        "trace" => cmd_run(&a, true),
        "compare" => cmd_compare(&a),
        "sweep" => cmd_sweep(&a),
        _ if a.workload.is_some() => cmd_contract(&a),
        _ => Err("no command".into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: failed: an output check, or a regressed or unresolved row");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::END_TO_END;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// Every workload at 1/20 size, untraced and traced: every workload
    /// and metric `BENCHMARK.json` names appears in the output with a
    /// unit, and nothing else does.
    #[test]
    fn smoke_run_reports_exactly_what_benchmark_json_names() {
        let bench = benchmark_json();
        assert_eq!(names(&bench, "workloads"), WORKLOADS);
        let end_to_end = names(&bench, "end_to_end");
        assert_eq!(
            end_to_end,
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.better == report::Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        let per_layer = names(&bench, "per_layer");
        assert!(end_to_end.iter().chain(&per_layer).all(|n| well_formed(n)));
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );

        let out_dir = std::env::temp_dir().join(format!("aivm-perf-smoke-{}", std::process::id()));
        let args = |trace| RunOptions {
            seed: 7,
            seconds: DEFAULT_SECONDS,
            trace,
            scale: Scale::Small,
            rate_scale: 1.0,
            setup_reps: 1,
            out_dir: out_dir.clone(),
        };
        for workload in WORKLOADS {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let r = workloads::run(workload, &args(trace)).expect(workload);
                let failed: Vec<_> = r.checks.0.iter().filter(|c| !c.ok).collect();
                assert!(failed.is_empty(), "{workload}: {failed:?}");
                assert_eq!(r.failed, 0, "{workload}");
                let got: Vec<String> = r.metrics.iter().map(|(n, _, _)| n.to_string()).collect();
                let mut missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
                let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
                missing.sort();
                assert!(
                    missing.is_empty() && extra.is_empty(),
                    "{workload} trace={trace}: missing {missing:?}, extra {extra:?}"
                );
                assert!(r.metrics.iter().all(|(_, _, unit)| !unit.is_empty()));
                let line = Json::parse(&r.contract_line()).expect("contract line parses");
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
