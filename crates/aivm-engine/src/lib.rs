//! An in-memory relational engine with signed-multiset (Z-set) execution
//! and state-bug-safe incremental view maintenance.
//!
//! This crate is the execution substrate for the AIVM reproduction: it
//! plays the role of the commercial DBMS in the paper's evaluation (§5).
//! See `DESIGN.md` at the repository root for the substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod costmodel;
pub mod db;
pub mod delta;
pub mod dml;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod ivm;
pub mod logical;
pub mod measure;
pub mod registry;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use aivm_core::fxhash;
pub use codec::{restore, snapshot};
pub use costmodel::{
    estimate_cost_functions, explain_propagation, AccessPath, CostConstants, JoinStepExplain,
    PropagationExplain, TableStats,
};
pub use db::{Database, TableId};
pub use delta::{DeltaTable, Modification};
pub use dml::{compile_dml, execute_dml, DmlStatement};
pub use error::EngineError;
pub use exec::{rows_checksum, ExecStats, WRow};
pub use expr::{ArithOp, CmpOp, Expr};
pub use index::{Index, IndexKind, RowId};
pub use ivm::{
    AggSpec, FlushReport, HeavyLightConfig, HeavyLightStats, JoinPred, MaintenanceStats,
    MaterializedView, MinStrategy, ViewDef, ViewLeaf, ViewSnapshot,
};
pub use logical::{AggFunc, LogicalPlan};
pub use measure::{measure_cost_function, CostMeasurement, MeasureConfig};
pub use registry::{Cell, RegistryFlushReport, RegistryStats, ViewId, ViewRegistry};
pub use schema::{Column, Row, Schema};
pub use sql::{parse_query, parse_view};
pub use table::Table;
pub use value::{DataType, Value};
