//! Benchmark inputs: the TPC-R database, the paper's view and its cost
//! functions, the budget `C`, and — derived from `--seed` — the
//! per-table update streams, optionally split by primary key into
//! per-client sub-streams of owned, pre-chunked batches.
//!
//! The program under test never sees the seed, only what is built here.

use aivm_core::{CostFn, CostModel};
use aivm_engine::{
    estimate_cost_functions, AggFunc, CostConstants, Database, EngineError, HeavyLightConfig,
    MaterializedView, MinStrategy, Modification, Row, TableId, Value, ViewDef, ViewRegistry,
};
use aivm_serve::{FlushPolicy, MultiConfig, OnlineFlush, ServeConfig, APPLY_SHARE};
use aivm_shard::{partition_database, Partitioner};
use aivm_tpcr::gen::NATIONS;
use aivm_tpcr::{generate, install_paper_view, TpcrConfig, TpcrDatabase, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Modifications per submit batch, and the batch size the budget is
/// derived from. One value everywhere: the paper's batching argument is
/// about this number, so workloads must not differ in it.
pub const BATCH: usize = 64;

/// The flush policy every workload runs.
pub const POLICY: &str = "online";

/// Generator seed of the TPC-R database: the instance every experiment
/// of this repository uses. `--seed` drives the update streams (which
/// keys change, to what), not the database, so that two seeds differ in
/// their traffic and not in how many suppliers happen to sit in the
/// view's region — that alone moved throughput by ±5 % between seeds,
/// twice the run-to-run noise.
pub const DATABASE_SEED: u64 = 2005;

/// Database scale of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `TpcrConfig::medium()`: 80 000 PartSupp / 1 000 Supplier rows.
    /// Every reported number is at this scale.
    Medium,
    /// `TpcrConfig::small()`, for `--smoke` only (checks plumbing, its
    /// numbers mean nothing).
    Small,
}

impl Scale {
    pub fn config(self) -> TpcrConfig {
        match self {
            Scale::Medium => TpcrConfig::medium(),
            Scale::Small => TpcrConfig::small(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Medium => "medium",
            Scale::Small => "small",
        }
    }
}

/// Wall-clock seconds of the three `aivm-tpcr`/engine set-up phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub view_init_s: f64,
    pub streams_s: f64,
}

/// How many updates of each table to pre-generate, and how their keys
/// are chosen.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    pub partsupp: usize,
    pub supplier: usize,
    /// Zipf exponent of the key choice; `None` is the paper's uniform
    /// stream.
    pub skew: Option<f64>,
}

/// Everything a workload needs before it can bring a stack up.
pub struct Inputs {
    pub scale: Scale,
    /// Pristine database with the paper view's join indexes installed.
    pub data: TpcrDatabase,
    pub view_def: ViewDef,
    /// Model cost function per view base table, in view order.
    pub costs: Vec<CostModel>,
    /// The refresh budget `C = 3 · max f_i(BATCH)` over the two updated
    /// tables (the rule `ServeExperiment` uses on the seed).
    pub budget: f64,
    pub ps_pos: usize,
    pub supp_pos: usize,
    /// PartSupp `supplycost` updates, in application order.
    pub ps_stream: Vec<Modification>,
    /// Supplier `nationkey` updates, in application order.
    pub supp_stream: Vec<Modification>,
    pub timings: SetupTimings,
}

impl Inputs {
    /// Generates the database, installs the paper view, estimates the
    /// cost functions and pre-generates both update streams.
    pub fn build(scale: Scale, seed: u64, spec: StreamSpec) -> Result<Inputs, EngineError> {
        let t0 = Instant::now();
        let mut data = generate(&scale.config(), DATABASE_SEED);
        let generate_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let view = install_paper_view(&mut data.db, MinStrategy::Multiset)?;
        let costs = estimate_cost_functions(&data.db, view.def(), &CostConstants::default())?;
        let view_init_s = t0.elapsed().as_secs_f64();
        let ps_pos = view
            .table_position("partsupp")
            .expect("view joins partsupp");
        let supp_pos = view
            .table_position("supplier")
            .expect("view joins supplier");
        let budget = 3.0
            * costs[ps_pos]
                .eval(BATCH as u64)
                .max(costs[supp_pos].eval(BATCH as u64));

        let t0 = Instant::now();
        let (ps_stream, supp_stream) = generate_streams(&data, seed, spec);
        let streams_s = t0.elapsed().as_secs_f64();

        Ok(Inputs {
            scale,
            view_def: view.def().clone(),
            data,
            costs,
            budget,
            ps_pos,
            supp_pos,
            ps_stream,
            supp_stream,
            timings: SetupTimings {
                generate_s,
                view_init_s,
                streams_s,
            },
        })
    }

    pub fn policy(&self) -> Box<dyn FlushPolicy> {
        Box::new(OnlineFlush::new())
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::new(self.costs.clone(), self.budget)
    }

    /// The paper view over `db` (a clone of the pristine database or a
    /// final database: both carry the join indexes already).
    pub fn make_view(
        &self,
        db: &Database,
        heavy_light: bool,
    ) -> Result<MaterializedView, EngineError> {
        let mut view = aivm_tpcr::paper_view(db, MinStrategy::Multiset)?;
        if heavy_light {
            view.set_heavy_light(db, HeavyLightConfig::from_cost_model())?;
        }
        Ok(view)
    }

    /// `views` definitions sharing the paper view's SPJ core: view 0 is
    /// the paper's MIN, the rest cycle through MAX/SUM/AVG/MIN over the
    /// same join, so a `ViewRegistry` puts them all in one sharing
    /// group.
    pub fn variant_view_defs(&self, views: usize) -> Vec<ViewDef> {
        (0..views)
            .map(|i| {
                let mut def = self.view_def.clone();
                def.name = format!("v{i}");
                if i > 0 {
                    let agg = def.aggregate.as_mut().expect("paper view aggregates");
                    for (func, _, out) in &mut agg.aggs {
                        *func = match i % 4 {
                            1 => AggFunc::Max,
                            2 => AggFunc::Sum,
                            3 => AggFunc::Avg,
                            _ => AggFunc::Min,
                        };
                        *out = format!("{}_{i}", func.name());
                    }
                }
                def
            })
            .collect()
    }

    /// A registry of `views` variants over `db`.
    pub fn registry_over(&self, db: Database, views: usize) -> Result<ViewRegistry, EngineError> {
        let mut reg = ViewRegistry::new(db);
        for def in self.variant_view_defs(views) {
            reg.register_view(def, MinStrategy::Multiset)?;
        }
        Ok(reg)
    }

    /// Registry configuration: the per-table costs on the global table
    /// axis and the single-view budget scaled by the fan-out share each
    /// cell flush pays on top of the shared propagation.
    pub fn registry_config(&self, views: usize) -> MultiConfig {
        MultiConfig::new(
            self.costs.clone(),
            self.budget * (1.0 + APPLY_SHARE * (views as f64 - 1.0)),
        )
    }

    /// Hash partitioner on the PartSupp ⋈ Supplier join key
    /// (`partsupp.suppkey` is column 2, `supplier.suppkey` column 0), so
    /// joined rows co-locate; `nation` and `region` are replicated.
    pub fn partitioner(&self, shards: usize) -> Result<Partitioner, EngineError> {
        let mut key_cols = vec![None; self.costs.len()];
        key_cols[self.ps_pos] = Some(2);
        key_cols[self.supp_pos] = Some(0);
        let part = Partitioner::new(shards, key_cols)?;
        part.validate(&self.view_def)?;
        Ok(part)
    }

    /// One genesis database per shard.
    pub fn partition_genesis(&self, part: &Partitioner) -> Result<Vec<Database>, EngineError> {
        let ids: Vec<TableId> = self
            .view_def
            .tables
            .iter()
            .map(|name| self.data.db.table_id(name))
            .collect::<Result<_, _>>()?;
        partition_database(&self.data.db, &ids, part)
    }

    /// Per-shard runtime configuration: the uniform budget share `C/N`.
    pub fn shard_config(&self, shards: usize) -> ServeConfig {
        ServeConfig::new(self.costs.clone(), self.budget / shards as f64)
    }
}

/// Pre-generates the paper's update streams (§5: a PartSupp row's
/// `supplycost`, or a Supplier row's `nationkey`, changes) — the very
/// streams `aivm_tpcr::pregenerate_streams_skewed(data, n, seed, skew)`
/// returns for equal counts, draw for draw (a test pins that), but
/// tracking each row's current contents in a vector instead of applying
/// every update to a scratch database. Several million updates per run
/// make that the difference between a set-up of seconds and of tens of
/// seconds.
fn generate_streams(
    data: &TpcrDatabase,
    seed: u64,
    spec: StreamSpec,
) -> (Vec<Modification>, Vec<Modification>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows_of =
        |t: TableId| -> Vec<Row> { data.db.table(t).iter().map(|(_, r)| r.clone()).collect() };
    let mut one =
        |rows: &mut Vec<Row>, count: usize, col: usize, draw: &dyn Fn(&mut StdRng) -> Value| {
            let zipf = spec.skew.map(|s| ZipfSampler::new(rows.len(), s));
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let idx = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..rows.len()),
                };
                let old = rows[idx].clone();
                let mut vals = old.values().to_vec();
                vals[col] = draw(&mut rng);
                let new = Row::new(vals);
                rows[idx] = new.clone();
                out.push(Modification::Update { old, new });
            }
            out
        };
    let ps = one(&mut rows_of(data.partsupp), spec.partsupp, 4, &|rng| {
        Value::Float(rng.gen_range(1.0..1000.0))
    });
    let supp = one(&mut rows_of(data.supplier), spec.supplier, 2, &|rng| {
        Value::Int(rng.gen_range(0..NATIONS.len() as i64))
    });
    (ps, supp)
}

/// One client's share of both streams: owned batches of [`BATCH`]
/// modifications (the last of a table may be short), in per-key order,
/// stored reversed so `pop` hands the next batch over by value.
#[derive(Default)]
pub struct ClientStreams {
    pub partsupp: Vec<Vec<Modification>>,
    pub supplier: Vec<Vec<Modification>>,
}

#[cfg(test)]
impl ClientStreams {
    pub fn events(&self) -> usize {
        let count = |b: &[Vec<Modification>]| b.iter().map(Vec::len).sum::<usize>();
        count(&self.partsupp) + count(&self.supplier)
    }
}

/// Primary key (column 0) of the row a modification replaces.
fn primary_key(m: &Modification) -> i64 {
    let row = match m {
        Modification::Update { old, .. } | Modification::Delete(old) => old,
        Modification::Insert(new) => new,
    };
    row.get(0).as_int().expect("integer primary key")
}

fn split_one(stream: Vec<Modification>, clients: usize) -> Vec<Vec<Vec<Modification>>> {
    let mut per_client: Vec<Vec<Modification>> = (0..clients)
        .map(|_| Vec::with_capacity(stream.len() / clients + BATCH))
        .collect();
    for m in stream {
        let c = primary_key(&m).rem_euclid(clients as i64) as usize;
        per_client[c].push(m);
    }
    per_client
        .into_iter()
        .map(|mods| {
            let mut batches: Vec<Vec<Modification>> = Vec::with_capacity(mods.len() / BATCH + 1);
            let mut it = mods.into_iter().peekable();
            while it.peek().is_some() {
                batches.push(it.by_ref().take(BATCH).collect());
            }
            batches.reverse();
            batches
        })
        .collect()
}

/// Splits both streams by primary key into `clients` sub-streams. Every
/// key lands in exactly one sub-stream and keeps its order there, and
/// updates of distinct keys commute, so the clients need no shared
/// cursor and no lock across a round trip.
pub fn split_streams(
    ps_stream: Vec<Modification>,
    supp_stream: Vec<Modification>,
    clients: usize,
) -> Vec<ClientStreams> {
    split_one(ps_stream, clients)
        .into_iter()
        .zip(split_one(supp_stream, clients))
        .map(|(partsupp, supplier)| ClientStreams { partsupp, supplier })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_equal_the_tpcr_generator_draw_for_draw() {
        let data = generate(&TpcrConfig::small(), 11);
        for skew in [None, Some(1.2)] {
            let spec = StreamSpec {
                partsupp: 300,
                supplier: 300,
                skew,
            };
            let want = aivm_tpcr::pregenerate_streams_skewed(&data, 300, 5, skew);
            assert_eq!(generate_streams(&data, 5, spec), want);
        }
    }

    #[test]
    fn split_keeps_every_event_and_per_key_order() {
        let spec = StreamSpec {
            partsupp: 500,
            supplier: 300,
            skew: None,
        };
        let inputs = Inputs::build(Scale::Small, 7, spec).expect("build");
        let again = Inputs::build(Scale::Small, 7, spec).expect("build");
        assert_eq!(inputs.ps_stream, again.ps_stream, "seed fixes the inputs");
        let ps = inputs.ps_stream.clone();
        let split = split_streams(inputs.ps_stream, inputs.supp_stream, 2);
        assert_eq!(split.iter().map(ClientStreams::events).sum::<usize>(), 800);
        // Replaying client 1 entirely before client 0 still applies
        // cleanly: keys are disjoint and per-key order is kept.
        let mut db = inputs.data.db.clone();
        for c in split.into_iter().rev() {
            for batch in c.partsupp.into_iter().rev() {
                assert!(batch.len() <= BATCH);
                for m in batch {
                    db.apply(inputs.data.partsupp, &m).expect("applies");
                }
            }
        }
        let mut direct = inputs.data.db.clone();
        for m in &ps {
            direct.apply(inputs.data.partsupp, m).expect("applies");
        }
        assert_eq!(db.content_checksum(), direct.content_checksum());
    }
}
