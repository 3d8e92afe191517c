//! # vqd-features — feature construction and selection
//!
//! The two pre-processing stages of the detection system (Section 3.2
//! of the paper):
//!
//! * [`construct`] — **Feature Construction**: normalise packet/byte
//!   counts by session totals, turn NIC rates into dataset-relative
//!   utilisations, keep only the average RSSI — making the model
//!   agnostic to video type, delivery mechanism and radio technology.
//! * [`select`] — **Feature Selection** with the Fast Correlation-Based
//!   Filter (FCBF), reducing hundreds of raw columns to the ~20 that
//!   carry non-redundant class information (the paper's Table 1).

pub mod construct;
pub mod select;

pub use construct::{ColumnOp, ConstructionPlan, FeatureConstructor, InstancePlan, PlanStep};
pub use select::{fcbf, fcbf_union_streaming, rank_by_su, CandidateTable, Selection};
