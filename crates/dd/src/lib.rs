//! Shared decision-diagram engine for the `treelineage` workspace.
//!
//! The paper's upper bounds (Section 6, Lemma 6.6) compile lineage circuits
//! into OBDDs; `treelineage-circuit`'s [`treelineage_circuit::Obdd`] stays
//! the small, literal-to-the-paper construction (and the differential-testing
//! oracle), while this crate provides the *engine* the rest of the workspace
//! runs on:
//!
//! * [`Manager`] — a shared, hash-consed node store hosting many functions at
//!   once, with **complement edges** ([`NodeId`] carries a negation bit, so
//!   `not` is O(1) and `f`/`¬f` share all nodes), a **persistent
//!   if-then-else cache** that keeps accelerating across calls, generic
//!   n-ary [`Manager::and_all`] / [`Manager::or_all`],
//!   [`Manager::restrict`] / [`Manager::compose`] and existential /
//!   universal quantification, plus memoized [`Manager::count_models`],
//!   [`Manager::wmc`] (weighted model counting with general literal weights)
//!   and [`Manager::probability`] computed directly on the shared nodes with
//!   a single cache per query;
//! * [`order`] — variable orders derived from `treelineage-graph`'s tree /
//!   path decompositions (the \[35\]-style layout behind Theorems 6.5 / 6.7,
//!   nice-decomposition traversal orders, and a min-fill fallback);
//! * [`Stats`] — store / cache statistics for the experiment harness.
//!
//! Width and size of a function ([`Manager::width`], [`Manager::size`])
//! report the measures of the *equivalent plain reduced OBDD* (Definition
//! 6.4 of the paper), so the Section 8 experiments read the same numbers off
//! this engine as off the legacy per-diagram construction, just faster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod node;
pub mod order;
mod stats;

pub use manager::Manager;
pub use node::NodeId;
pub use stats::Stats;
