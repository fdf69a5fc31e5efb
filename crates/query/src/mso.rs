//! Monadic second-order logic (MSO) over relational instances.
//!
//! The paper's tractability results (Theorems 3.2, 5.2, 5.7, 6.5, 6.11) are
//! stated for MSO, the extension of first-order logic with quantification
//! over *sets* of domain elements. This module provides the MSO abstract
//! syntax and a naive possible-assignments evaluator used as the
//! ground-truth oracle by tests (it enumerates set assignments, so it is
//! exponential and restricted to small instances). The tractable evaluation
//! paths live downstream: `treelineage_encoding::compile_mso` compiles the
//! existential-positive first-order fragment (atoms, ∧, ∨, ∃, equalities
//! and negated equalities) into deterministic tree automata over instance
//! encodings — rejecting the rest with a typed error — and the core crate
//! evaluates all UCQ≠ queries through that pipeline or through dynamic
//! programs over tree decompositions; see DESIGN.md §2.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use treelineage_instance::{Element, Instance, RelationId};

/// A first-order variable of an MSO formula.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FoVar(pub usize);

/// A second-order (set) variable of an MSO formula.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SetVar(pub usize);

/// An MSO formula over a relational signature. First-order sentences are the
/// fragment with no [`MsoFormula::ExistsSet`] / [`MsoFormula::ForallSet`] /
/// [`MsoFormula::Member`] constructs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MsoFormula {
    /// A relational atom `R(x_1, ..., x_k)`.
    Atom {
        /// The atom's relation.
        relation: RelationId,
        /// The atom's first-order arguments.
        arguments: Vec<FoVar>,
    },
    /// Equality of two first-order variables.
    Equal(FoVar, FoVar),
    /// Set membership `x ∈ X`.
    Member(FoVar, SetVar),
    /// Logical negation.
    Not(Box<MsoFormula>),
    /// Conjunction (empty = true).
    And(Vec<MsoFormula>),
    /// Disjunction (empty = false).
    Or(Vec<MsoFormula>),
    /// Implication.
    Implies(Box<MsoFormula>, Box<MsoFormula>),
    /// First-order existential quantification.
    ExistsFo(FoVar, Box<MsoFormula>),
    /// First-order universal quantification.
    ForallFo(FoVar, Box<MsoFormula>),
    /// Second-order (set) existential quantification.
    ExistsSet(SetVar, Box<MsoFormula>),
    /// Second-order (set) universal quantification.
    ForallSet(SetVar, Box<MsoFormula>),
}

impl MsoFormula {
    /// Returns `true` if the formula is first-order (no set quantifiers or
    /// membership atoms).
    fn is_first_order(&self) -> bool {
        match self {
            MsoFormula::Atom { .. } | MsoFormula::Equal(_, _) => true,
            MsoFormula::Member(_, _)
            | MsoFormula::ExistsSet(_, _)
            | MsoFormula::ForallSet(_, _) => false,
            MsoFormula::Not(f) => f.is_first_order(),
            MsoFormula::And(fs) | MsoFormula::Or(fs) => fs.iter().all(|f| f.is_first_order()),
            MsoFormula::Implies(a, b) => a.is_first_order() && b.is_first_order(),
            MsoFormula::ExistsFo(_, f) | MsoFormula::ForallFo(_, f) => f.is_first_order(),
        }
    }

    /// Evaluates the (sentence) formula on an instance by naive enumeration.
    /// First-order quantifiers range over the active domain; set quantifiers
    /// over all subsets of the active domain, so the evaluation is
    /// exponential — an oracle for small instances only (the instance must
    /// have at most 16 domain elements if the formula uses set quantifiers).
    pub fn holds_on(&self, instance: &Instance) -> bool {
        let domain: Vec<Element> = instance.domain().into_iter().collect();
        if !self.is_first_order() {
            assert!(
                domain.len() <= 16,
                "naive MSO evaluation limited to 16 domain elements"
            );
        }
        self.eval(
            instance,
            &domain,
            &mut BTreeMap::new(),
            &mut BTreeMap::new(),
        )
    }

    fn eval(
        &self,
        instance: &Instance,
        domain: &[Element],
        fo: &mut BTreeMap<FoVar, Element>,
        sets: &mut BTreeMap<SetVar, BTreeSet<Element>>,
    ) -> bool {
        match self {
            MsoFormula::Atom {
                relation,
                arguments,
            } => {
                let image: Vec<Element> = arguments
                    .iter()
                    .map(|v| *fo.get(v).expect("unbound first-order variable"))
                    .collect();
                instance.contains(*relation, &image)
            }
            MsoFormula::Equal(x, y) => fo[x] == fo[y],
            MsoFormula::Member(x, set) => sets
                .get(set)
                .expect("unbound set variable")
                .contains(&fo[x]),
            MsoFormula::Not(f) => !f.eval(instance, domain, fo, sets),
            MsoFormula::And(fs) => fs.iter().all(|f| f.eval(instance, domain, fo, sets)),
            MsoFormula::Or(fs) => fs.iter().any(|f| f.eval(instance, domain, fo, sets)),
            MsoFormula::Implies(a, b) => {
                !a.eval(instance, domain, fo, sets) || b.eval(instance, domain, fo, sets)
            }
            MsoFormula::ExistsFo(v, f) => {
                let saved = fo.get(v).copied();
                let result = domain.iter().any(|&e| {
                    fo.insert(*v, e);
                    f.eval(instance, domain, fo, sets)
                });
                restore_fo(fo, *v, saved);
                result
            }
            MsoFormula::ForallFo(v, f) => {
                let saved = fo.get(v).copied();
                let result = domain.iter().all(|&e| {
                    fo.insert(*v, e);
                    f.eval(instance, domain, fo, sets)
                });
                restore_fo(fo, *v, saved);
                result
            }
            MsoFormula::ExistsSet(x, f) => {
                let saved = sets.get(x).cloned();
                let result = subsets_of(domain).any(|s| {
                    sets.insert(*x, s);
                    f.eval(instance, domain, fo, sets)
                });
                restore_set(sets, *x, saved);
                result
            }
            MsoFormula::ForallSet(x, f) => {
                let saved = sets.get(x).cloned();
                let result = subsets_of(domain).all(|s| {
                    sets.insert(*x, s);
                    f.eval(instance, domain, fo, sets)
                });
                restore_set(sets, *x, saved);
                result
            }
        }
    }
}

fn restore_fo(fo: &mut BTreeMap<FoVar, Element>, v: FoVar, saved: Option<Element>) {
    match saved {
        Some(e) => {
            fo.insert(v, e);
        }
        None => {
            fo.remove(&v);
        }
    }
}

fn restore_set(
    sets: &mut BTreeMap<SetVar, BTreeSet<Element>>,
    v: SetVar,
    saved: Option<BTreeSet<Element>>,
) {
    match saved {
        Some(s) => {
            sets.insert(v, s);
        }
        None => {
            sets.remove(&v);
        }
    }
}

fn subsets_of(domain: &[Element]) -> impl Iterator<Item = BTreeSet<Element>> + '_ {
    (0u64..(1u64 << domain.len())).map(move |mask| {
        domain
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect()
    })
}

impl fmt::Display for MsoFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsoFormula::Atom {
                relation,
                arguments,
            } => {
                let args: Vec<String> = arguments.iter().map(|v| format!("x{}", v.0)).collect();
                write!(f, "R{}({})", relation.0, args.join(","))
            }
            MsoFormula::Equal(x, y) => write!(f, "x{} = x{}", x.0, y.0),
            MsoFormula::Member(x, s) => write!(f, "x{} ∈ X{}", x.0, s.0),
            MsoFormula::Not(g) => write!(f, "¬({g})"),
            MsoFormula::And(gs) => {
                let parts: Vec<String> = gs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∧ "))
            }
            MsoFormula::Or(gs) => {
                let parts: Vec<String> = gs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∨ "))
            }
            MsoFormula::Implies(a, b) => write!(f, "({a}) → ({b})"),
            MsoFormula::ExistsFo(v, g) => write!(f, "∃x{} ({g})", v.0),
            MsoFormula::ForallFo(v, g) => write!(f, "∀x{} ({g})", v.0),
            MsoFormula::ExistsSet(v, g) => write!(f, "∃X{} ({g})", v.0),
            MsoFormula::ForallSet(v, g) => write!(f, "∀X{} ({g})", v.0),
        }
    }
}

/// Builds the first-order sentence "there exist two distinct elements with a
/// unary `R` fact" (the CQ≠ of Proposition 7.1 expressed in FO), mainly for
/// cross-checking the MSO evaluator against the CQ≠ machinery.
pub fn two_distinct_unary(relation: RelationId) -> MsoFormula {
    let x = FoVar(0);
    let y = FoVar(1);
    MsoFormula::ExistsFo(
        x,
        Box::new(MsoFormula::ExistsFo(
            y,
            Box::new(MsoFormula::And(vec![
                MsoFormula::Atom {
                    relation,
                    arguments: vec![x],
                },
                MsoFormula::Atom {
                    relation,
                    arguments: vec![y],
                },
                MsoFormula::Not(Box::new(MsoFormula::Equal(x, y))),
            ])),
        )),
    )
}

/// Builds the MSO sentence of Proposition 7.3: using the successor relation
/// `edge`, the number of elements carrying the unary label `label` is odd.
/// The construction mimics a two-state automaton with the partition
/// `(X_0, X_1)` of the domain, exactly as in the paper's appendix proof.
pub fn odd_number_of_labels(label: RelationId, edge: RelationId) -> MsoFormula {
    use MsoFormula as M;
    let x0 = SetVar(0);
    let x1 = SetVar(1);
    let x = FoVar(0);
    let y = FoVar(1);
    let atom = |relation: RelationId, arguments: Vec<FoVar>| M::Atom {
        relation,
        arguments,
    };
    // Part(X0, X1): every element is in exactly one of X0, X1.
    let part = M::ForallFo(
        x,
        Box::new(M::And(vec![
            M::Or(vec![M::Member(x, x0), M::Member(x, x1)]),
            M::Not(Box::new(M::And(vec![M::Member(x, x0), M::Member(x, x1)]))),
        ])),
    );
    // Transitions along edges E(x, y): the state at x is the state at y
    // flipped iff L(x) holds.
    let transition = M::ForallFo(
        x,
        Box::new(M::ForallFo(
            y,
            Box::new(M::Implies(
                Box::new(atom(edge, vec![x, y])),
                Box::new(M::And(vec![
                    // L(x): state changes.
                    M::Implies(
                        Box::new(M::And(vec![atom(label, vec![x]), M::Member(y, x1)])),
                        Box::new(M::Member(x, x0)),
                    ),
                    M::Implies(
                        Box::new(M::And(vec![atom(label, vec![x]), M::Member(y, x0)])),
                        Box::new(M::Member(x, x1)),
                    ),
                    // not L(x): state is copied.
                    M::Implies(
                        Box::new(M::And(vec![
                            M::Not(Box::new(atom(label, vec![x]))),
                            M::Member(y, x1),
                        ])),
                        Box::new(M::Member(x, x1)),
                    ),
                    M::Implies(
                        Box::new(M::And(vec![
                            M::Not(Box::new(atom(label, vec![x]))),
                            M::Member(y, x0),
                        ])),
                        Box::new(M::Member(x, x0)),
                    ),
                ])),
            )),
        )),
    );
    // Initialisation at elements with no outgoing edge.
    let no_successor = |v: FoVar| {
        M::Not(Box::new(M::ExistsFo(
            FoVar(2),
            Box::new(atom(edge, vec![v, FoVar(2)])),
        )))
    };
    let init = M::ForallFo(
        x,
        Box::new(M::And(vec![
            M::Implies(
                Box::new(M::And(vec![
                    no_successor(x),
                    M::Not(Box::new(atom(label, vec![x]))),
                ])),
                Box::new(M::Member(x, x0)),
            ),
            M::Implies(
                Box::new(M::And(vec![no_successor(x), atom(label, vec![x])])),
                Box::new(M::Member(x, x1)),
            ),
        ])),
    );
    // Acceptance: every element with no incoming edge is in X1.
    let no_predecessor = |v: FoVar| {
        M::Not(Box::new(M::ExistsFo(
            FoVar(2),
            Box::new(atom(edge, vec![FoVar(2), v])),
        )))
    };
    let accept = M::ForallFo(
        x,
        Box::new(M::Implies(
            Box::new(no_predecessor(x)),
            Box::new(M::Member(x, x1)),
        )),
    );
    M::ForallSet(
        x0,
        Box::new(M::ForallSet(
            x1,
            Box::new(M::Implies(
                Box::new(M::And(vec![part, transition, init])),
                Box::new(accept),
            )),
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::{encodings, Signature};

    #[test]
    fn first_order_detection() {
        let sig = Signature::builder().relation("R", 1).build();
        let r = sig.relation_by_name("R").unwrap();
        let fo = two_distinct_unary(r);
        assert!(fo.is_first_order());
        let sig2 = Signature::builder()
            .relation("L", 1)
            .relation("E", 2)
            .build();
        let mso = odd_number_of_labels(
            sig2.relation_by_name("L").unwrap(),
            sig2.relation_by_name("E").unwrap(),
        );
        assert!(!mso.is_first_order());
    }

    #[test]
    fn two_distinct_unary_semantics() {
        let sig = Signature::builder().relation("R", 1).build();
        let r = sig.relation_by_name("R").unwrap();
        let formula = two_distinct_unary(r);
        let one = encodings::unary_family_instance(&sig, r, 1);
        let two = encodings::unary_family_instance(&sig, r, 2);
        let five = encodings::unary_family_instance(&sig, r, 5);
        assert!(!formula.holds_on(&one));
        assert!(formula.holds_on(&two));
        assert!(formula.holds_on(&five));
    }

    #[test]
    fn parity_formula_counts_labels_mod_two() {
        let sig = Signature::builder()
            .relation("L", 1)
            .relation("E", 2)
            .build();
        let l = sig.relation_by_name("L").unwrap();
        let e = sig.relation_by_name("E").unwrap();
        let formula = odd_number_of_labels(l, e);
        for n in 1..=5usize {
            let inst = encodings::labelled_path_instance(&sig, l, e, n);
            assert_eq!(formula.holds_on(&inst), n % 2 == 1, "n = {n}");
        }
    }

    #[test]
    fn parity_formula_on_worlds_with_missing_labels() {
        // Remove some L-facts (but keep all E-facts): the formula counts the
        // remaining labels.
        let sig = Signature::builder()
            .relation("L", 1)
            .relation("E", 2)
            .build();
        let l = sig.relation_by_name("L").unwrap();
        let e = sig.relation_by_name("E").unwrap();
        let full = encodings::labelled_path_instance(&sig, l, e, 4);
        let formula = odd_number_of_labels(l, e);
        // Keep only L(0): 1 label -> odd.
        let keep: std::collections::BTreeSet<_> = full
            .facts()
            .filter(|(_, f)| {
                f.relation() == e || f.arguments()[0] == treelineage_instance::Element(0)
            })
            .map(|(id, _)| id)
            .collect();
        let world = full.subinstance(&keep);
        assert!(formula.holds_on(&world));
    }

    #[test]
    fn display_is_reasonable() {
        let sig = Signature::builder().relation("R", 1).build();
        let r = sig.relation_by_name("R").unwrap();
        let shown = two_distinct_unary(r).to_string();
        assert!(shown.contains("∃x0"));
        assert!(shown.contains("¬"));
    }
}
