//! Shared decision-diagram engine for the `treelineage` workspace.
//!
//! The paper's upper bounds (Section 6, Lemma 6.6) compile lineage circuits
//! into OBDDs (Definition 6.4); this crate is the one OBDD implementation
//! the workspace runs on:
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
//! 6.4 of the paper), so complement edges never change the numbers the
//! Section 8 experiments read. `tests/differential.rs` checks them level by
//! level against Lemma 6.6 itself: the number of distinct restrictions
//! `f|x₀…x_{i−1}=a` that depend on `xᵢ`, counted off a truth table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod node;
pub mod order;
mod stats;

pub use manager::Manager;
pub use node::NodeId;
pub use stats::Stats;
