//! Recording live runs as replayable traces.
//!
//! A [`Trace`] captures everything `aivm-sim` needs to re-execute a live
//! run deterministically: the cost functions, the budget `C`, and one
//! [`TraceStep`] per scheduler step with the arrivals closed into that
//! step, the action taken, and whether the action was *forced* (a fresh
//! read's refresh of its view's sharing group, which bypasses the
//! policy) or decided by the policy. The step record is the solver's, so
//! a trace's steps feed `aivm-sim`'s replay as they are.
//!
//! The serialization is a line-oriented text format (the build
//! environment has no serde); [`Trace::to_text`] / [`Trace::parse`]
//! round-trip exactly, using `{:?}` float formatting which is shortest
//! round-trippable in Rust.

use aivm_core::{CostModel, Counts, TraceStep};

/// A recorded live run.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Per-table cost functions in effect during the run.
    pub costs: Vec<CostModel>,
    /// The response-time budget `C`.
    pub budget: f64,
    /// The recorded steps, in execution order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(costs: Vec<CostModel>, budget: f64) -> Self {
        Trace {
            costs,
            budget,
            steps: Vec::new(),
        }
    }

    /// Number of base tables.
    pub fn n(&self) -> usize {
        self.costs.len()
    }

    pub(crate) fn push(&mut self, arrivals: Counts, action: Counts, forced: bool) {
        self.steps.push(TraceStep {
            arrivals,
            action,
            forced,
        });
    }

    /// The recorded actions, in order.
    pub fn actions(&self) -> Vec<Counts> {
        self.steps.iter().map(|s| s.action.clone()).collect()
    }

    /// Total model cost of the recorded actions.
    pub fn total_cost(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| aivm_core::total_cost(&self.costs, &s.action))
            .sum()
    }

    /// Serializes the trace to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("aivm-serve-trace v1\n");
        out.push_str(&format!("n {}\n", self.n()));
        out.push_str(&format!("budget {:?}\n", self.budget));
        for c in &self.costs {
            out.push_str(&format!("cost {}\n", cost_to_text(c)));
        }
        out.push_str(&format!("steps {}\n", self.steps.len()));
        for s in &self.steps {
            out.push_str(&format!(
                "{} {} | {}\n",
                u8::from(s.forced),
                counts_to_text(&s.arrivals),
                counts_to_text(&s.action)
            ));
        }
        out
    }

    /// Parses a trace from the text format produced by [`Trace::to_text`].
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        if header != "aivm-serve-trace v1" {
            return Err(format!("unknown trace header: {header:?}"));
        }
        let n: usize = field(lines.next(), "n")?
            .parse()
            .map_err(|e| format!("bad n: {e}"))?;
        let budget: f64 = field(lines.next(), "budget")?
            .parse()
            .map_err(|e| format!("bad budget: {e}"))?;
        let mut costs = Vec::with_capacity(n);
        for _ in 0..n {
            costs.push(cost_from_text(field(lines.next(), "cost")?)?);
        }
        let step_count: usize = field(lines.next(), "steps")?
            .parse()
            .map_err(|e| format!("bad step count: {e}"))?;
        let mut steps = Vec::with_capacity(step_count);
        for _ in 0..step_count {
            let line = lines.next().ok_or("truncated trace: missing step")?;
            let (flag, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed step line: {line:?}"))?;
            let forced = match flag {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad forced flag: {other:?}")),
            };
            let (a, q) = rest
                .split_once(" | ")
                .ok_or_else(|| format!("malformed step line: {line:?}"))?;
            steps.push(TraceStep {
                arrivals: counts_from_text(a, n)?,
                action: counts_from_text(q, n)?,
                forced,
            });
        }
        Ok(Trace {
            costs,
            budget,
            steps,
        })
    }
}

fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("truncated trace: missing {key}"))?;
    line.strip_prefix(key)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("expected `{key} …`, got {line:?}"))
}

fn counts_to_text(c: &Counts) -> String {
    (0..c.len())
        .map(|i| c[i].to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn counts_from_text(s: &str, n: usize) -> Result<Counts, String> {
    let vals: Vec<u64> = s
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("bad count {v:?}: {e}")))
        .collect::<Result<_, _>>()?;
    if vals.len() != n {
        return Err(format!("expected {n} counts, got {}", vals.len()));
    }
    Ok(Counts::from_slice(&vals))
}

fn cost_to_text(c: &CostModel) -> String {
    match c {
        CostModel::Linear { a, b } => format!("linear {a:?} {b:?}"),
        CostModel::Step {
            block,
            cost_per_block,
        } => format!("step {block} {cost_per_block:?}"),
        CostModel::Power {
            setup,
            scale,
            exponent,
        } => format!("power {setup:?} {scale:?} {exponent:?}"),
        CostModel::Capped { eps, c } => format!("capped {eps:?} {c:?}"),
        CostModel::Piecewise { points } => {
            let pts = points
                .iter()
                .map(|(k, v)| format!("{k}:{v:?}"))
                .collect::<Vec<_>>()
                .join(" ");
            format!("piecewise {pts}")
        }
    }
}

fn cost_from_text(s: &str) -> Result<CostModel, String> {
    let mut parts = s.split_whitespace();
    let kind = parts.next().ok_or("empty cost spec")?;
    let mut next_f64 = |what: &str| -> Result<f64, String> {
        parts
            .next()
            .ok_or_else(|| format!("cost spec missing {what}"))?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    match kind {
        "linear" => Ok(CostModel::Linear {
            a: next_f64("a")?,
            b: next_f64("b")?,
        }),
        "step" => {
            let block: u64 = parts
                .next()
                .ok_or("cost spec missing block")?
                .parse()
                .map_err(|e| format!("bad block: {e}"))?;
            let cost_per_block: f64 = parts
                .next()
                .ok_or("cost spec missing cost_per_block")?
                .parse()
                .map_err(|e| format!("bad cost_per_block: {e}"))?;
            Ok(CostModel::Step {
                block,
                cost_per_block,
            })
        }
        "power" => Ok(CostModel::Power {
            setup: next_f64("setup")?,
            scale: next_f64("scale")?,
            exponent: next_f64("exponent")?,
        }),
        "capped" => Ok(CostModel::Capped {
            eps: next_f64("eps")?,
            c: next_f64("c")?,
        }),
        "piecewise" => {
            let mut points = Vec::new();
            for p in parts {
                let (k, v) = p
                    .split_once(':')
                    .ok_or_else(|| format!("bad piecewise point {p:?}"))?;
                points.push((
                    k.parse().map_err(|e| format!("bad point k: {e}"))?,
                    v.parse().map_err(|e| format!("bad point cost: {e}"))?,
                ));
            }
            Ok(CostModel::Piecewise { points })
        }
        other => Err(format!("unknown cost kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new(
            vec![
                CostModel::linear(0.5, 1.25),
                CostModel::Power {
                    setup: 2.0,
                    scale: 0.1,
                    exponent: 0.5,
                },
                CostModel::Step {
                    block: 3,
                    cost_per_block: 1.5,
                },
                CostModel::Capped { eps: 0.5, c: 4.0 },
                CostModel::Piecewise {
                    points: vec![(1, 1.0), (10, 4.0)],
                },
            ],
            12.5,
        );
        t.push(Counts::from_slice(&[1, 2, 0, 0, 1]), Counts::zero(5), false);
        t.push(
            Counts::from_slice(&[0, 1, 1, 0, 0]),
            Counts::from_slice(&[1, 3, 1, 0, 1]),
            true,
        );
        t
    }

    #[test]
    fn text_round_trip_is_exact() {
        let t = sample_trace();
        let parsed = Trace::parse(&t.to_text()).expect("parse back");
        assert_eq!(parsed, t);
    }

    #[test]
    fn actions_extraction() {
        let t = sample_trace();
        assert_eq!(t.actions()[0], Counts::zero(5));
        assert!(t.total_cost() > 0.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("aivm-serve-trace v2\n").is_err());
        let mut text = sample_trace().to_text();
        text.push_str("trailing garbage ignored is fine\n");
        // Extra trailing lines are ignored; truncation is not.
        assert!(Trace::parse(&text).is_ok());
        let t = sample_trace();
        let truncated: String = t
            .to_text()
            .lines()
            .take(5)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Trace::parse(&truncated).is_err());
    }
}
