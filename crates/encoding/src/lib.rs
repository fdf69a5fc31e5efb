//! Tree encodings + query→tree-automaton compilation: the paper's Section 6
//! pipeline made end-to-end constructive.
//!
//! The headline upper bounds of the paper (Theorems 6.3 and 6.11) compute
//! lineages in time *linear in the instance*: tree-encode the
//! bounded-treewidth instance, compile the query into a tree automaton over
//! the encoding alphabet, and read the lineage off the automaton's
//! provenance on the uncertain encoding (one Boolean event per fact). This
//! crate provides the two instance-independent ingredients:
//!
//! * [`EncodingAlphabet`] / [`encode`] — the ΣI alphabet for a signature at
//!   a decomposition width, and the tree encoder turning an
//!   [`Instance`](treelineage_instance::Instance) plus a
//!   [`TreeDecomposition`](treelineage_graph::TreeDecomposition) (made nice
//!   via [`treelineage_graph::NiceTreeDecomposition`]) into a binary
//!   [`UncertainTree`](treelineage_automata::UncertainTree), with a decode
//!   direction and round-trip validation;
//! * [`compile_ucq`] / [`compile_mso`] — compilation of UCQ≠ queries (and
//!   the existential-positive fragment of [`MsoFormula`]) into
//!   *deterministic* bottom-up tree automata on that alphabet by a
//!   bottom-up subset construction over partial-match configurations, with
//!   a state budget and typed [`CompileError`]s; [`CompiledQuery::run`]
//!   runs one on a tree encoding and emits the
//!   [`Run`](treelineage_automata::Run) the d-SDNNF builder reads.
//!
//! Downstream, `treelineage_core`'s `LineageBuilder::automaton_lineage` chains
//! these with the d-SDNNF construction
//! ([`treelineage_automata::StructuredBuilder`]) into the
//! full pipeline: probability / model counting / weighted model counting
//! without ever materializing query matches (`treelineage-engine`
//! compiles the same d-SDNNF and evaluates it over disjoint subtrees on
//! worker threads, bit-identically). The whole route, end to end — encode the instance,
//! compile the query, read the lineage off the provenance:
//!
//! ```
//! use treelineage_automata::StructuredBuilder;
//! use treelineage_encoding::{compile_ucq, encode, CompileOptions};
//! use treelineage_graph::treewidth::treewidth_upper_bound;
//! use treelineage_instance::{Instance, Signature};
//! use treelineage_num::Rational;
//! use treelineage_query::parse_query;
//!
//! // The chain instance R(0), S(0, 1), T(1), tree-encoded along a
//! // heuristic decomposition of its Gaifman graph.
//! let sig = Signature::builder()
//!     .relation("R", 1).relation("S", 2).relation("T", 1).build();
//! let mut inst = Instance::new(sig.clone());
//! inst.add_fact_by_name("R", &[0]);
//! inst.add_fact_by_name("S", &[0, 1]);
//! inst.add_fact_by_name("T", &[1]);
//! let (graph, _) = inst.gaifman_graph();
//! let encoding = encode(&inst, &treewidth_upper_bound(&graph).1).unwrap();
//!
//! // Compile the query over the alphabet, run it on this tree, and read
//! // the lineage off the run's provenance d-SDNNF.
//! let query = parse_query(&sig, "R(x), S(x, y), T(y)").unwrap();
//! let mut compiled = compile_ucq(&query, encoding.alphabet(), CompileOptions::default()).unwrap();
//! let run = compiled.run(encoding.tree()).unwrap();
//! let builder = StructuredBuilder::new(&run, encoding.tree()).unwrap();
//! let lineage = builder.compile().unwrap();
//!
//! // All three facts must be present: probability 1/8 under all-1/2.
//! assert_eq!(
//!     lineage.probability(&|_| Rational::one_half()),
//!     Rational::from_ratio_u64(1, 8),
//! );
//! ```
//!
//! [`MsoFormula`]: treelineage_query::MsoFormula

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod compile;
mod encode;

pub use alphabet::{AlphabetError, EncodingAlphabet, LabelKind, MAX_ALPHABET_SIZE};
pub use compile::{
    compile_mso, compile_ucq, mso_to_ucq, CompileError, CompileOptions, CompiledQuery, LiveStates,
    DEFAULT_STATE_BUDGET,
};
pub use encode::{
    encode, encode_traced, encode_trusted, EncodingError, EncodingPlan, TreeEncoding,
};
