//! The tree-encoding alphabet ΣI (Section 6 / \[2\]).
//!
//! A treelike instance is encoded as a full binary tree whose node labels are
//! drawn from a finite alphabet that depends only on the *signature* and the
//! decomposition *width* — never on the instance itself. This is the crucial
//! property behind the paper's linear-time upper bounds: the query is
//! compiled into a tree automaton over this fixed alphabet once, and the
//! (arbitrarily large) instance only contributes the tree the automaton runs
//! on.
//!
//! Labels describe bag-local structure through *slots*: a bag of a width-`k`
//! decomposition holds at most `k + 1` elements, and every element occupies
//! one slot in `{0, ..., k}` for the whole connected subtree of bags it
//! appears in. The label kinds are
//!
//! * `Empty` — a leaf (or padding) node carrying no information,
//! * `Introduce(s)` — a fresh element enters the bag at slot `s`,
//! * `Forget(s)` — the element at slot `s` leaves the bag (top-down reading:
//!   the element at slot `s` is *born* below this node),
//! * `Join` — two subtrees over the same bag are merged,
//! * `Fact { relation, slots, present }` — the fact
//!   `relation(slots...)` over the current bag's elements is asserted
//!   (`present = true`) or explicitly absent (`present = false`). The
//!   present/absent pair of labels is what an uncertain tree's Boolean event
//!   switches between — one event per fact occurrence.

use treelineage_automata::Label;
use treelineage_instance::{RelationId, Signature};

/// Hard cap on the number of labels of an [`EncodingAlphabet`]; alphabets
/// larger than this (high arity × high width) are rejected with a typed
/// error instead of exhausting memory during automaton compilation.
pub const MAX_ALPHABET_SIZE: usize = 1 << 20;

/// Errors reported when constructing an [`EncodingAlphabet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlphabetError {
    /// The alphabet would exceed [`MAX_ALPHABET_SIZE`] labels (the per-slot
    /// tuples of some relation are too numerous at this width).
    TooLarge {
        /// The number of labels the alphabet would need.
        required: usize,
    },
}

impl std::fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlphabetError::TooLarge { required } => write!(
                f,
                "encoding alphabet needs {required} labels (limit {MAX_ALPHABET_SIZE})"
            ),
        }
    }
}

impl std::error::Error for AlphabetError {}

/// The decoded meaning of a label (see the module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LabelKind {
    /// Leaf / padding node.
    Empty,
    /// Merge of two subtrees over the same bag.
    Join,
    /// A fresh element enters the bag at the given slot.
    Introduce(usize),
    /// The element at the given slot leaves the bag.
    Forget(usize),
    /// A fact over the current bag, present or absent.
    Fact {
        /// The fact's relation.
        relation: RelationId,
        /// The slot of each argument position (repetitions allowed).
        slots: Vec<usize>,
        /// Whether the fact is asserted present.
        present: bool,
    },
}

/// The tree-encoding alphabet for a signature at a given decomposition
/// width. Determined by `(signature, width)` alone; two alphabets built from
/// equal parameters assign identical label ids.
#[derive(Clone, Debug)]
pub struct EncodingAlphabet {
    signature: Signature,
    width: usize,
    /// First label id of each relation's fact-label block.
    fact_base: Vec<usize>,
    size: usize,
}

impl EncodingAlphabet {
    /// Builds the alphabet for `signature` at decomposition width `width`
    /// (bags hold at most `width + 1` elements).
    pub fn new(signature: &Signature, width: usize) -> Result<Self, AlphabetError> {
        let slots = width + 1;
        // Layout: 0 = Empty, 1 = Join, then introduces, then forgets, then
        // one block of 2 · slots^arity labels per relation.
        let mut next = 2 + 2 * slots;
        let mut fact_base = Vec::with_capacity(signature.relation_count());
        for (id, relation) in signature.relations() {
            debug_assert_eq!(fact_base.len(), id.0);
            fact_base.push(next);
            let tuples = slots
                .checked_pow(relation.arity() as u32)
                .and_then(|t| t.checked_mul(2))
                .filter(|&t| t <= MAX_ALPHABET_SIZE);
            match tuples.and_then(|t| next.checked_add(t).filter(|&n| n <= MAX_ALPHABET_SIZE)) {
                Some(n) => next = n,
                None => {
                    return Err(AlphabetError::TooLarge {
                        required: MAX_ALPHABET_SIZE + 1,
                    })
                }
            }
        }
        Ok(EncodingAlphabet {
            signature: signature.clone(),
            width,
            fact_base,
            size: next,
        })
    }

    /// The signature the alphabet encodes facts of.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The decomposition width the alphabet was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of slots per bag (`width + 1`).
    pub fn slot_count(&self) -> usize {
        self.width + 1
    }

    /// Total number of labels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The `Empty` (leaf / padding) label.
    pub fn empty(&self) -> Label {
        0
    }

    /// The `Join` label.
    pub fn join(&self) -> Label {
        1
    }

    /// The `Introduce(slot)` label.
    pub fn introduce(&self, slot: usize) -> Label {
        assert!(slot <= self.width, "slot {slot} out of range");
        2 + slot
    }

    /// The `Forget(slot)` label.
    pub fn forget(&self, slot: usize) -> Label {
        assert!(slot <= self.width, "slot {slot} out of range");
        2 + self.slot_count() + slot
    }

    /// The label of the fact `relation(slots...)`, present or absent.
    pub fn fact(&self, relation: RelationId, slots: &[usize], present: bool) -> Label {
        assert_eq!(
            slots.len(),
            self.signature.arity(relation),
            "arity mismatch for fact label"
        );
        let base = self.fact_base[relation.0];
        let mut tuple = 0usize;
        for &s in slots {
            assert!(s <= self.width, "slot {s} out of range");
            tuple = tuple * self.slot_count() + s;
        }
        base + 2 * tuple + usize::from(present)
    }

    /// Decodes a label back into its [`LabelKind`]. Panics on labels outside
    /// the alphabet.
    pub fn kind(&self, label: Label) -> LabelKind {
        assert!(label < self.size, "label {label} outside alphabet");
        if label == 0 {
            return LabelKind::Empty;
        }
        if label == 1 {
            return LabelKind::Join;
        }
        let slots = self.slot_count();
        if label < 2 + slots {
            return LabelKind::Introduce(label - 2);
        }
        if label < 2 + 2 * slots {
            return LabelKind::Forget(label - 2 - slots);
        }
        // Find the relation block containing the label.
        let relation = match self.fact_base.binary_search_by(|&b| b.cmp(&label)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let relation = RelationId(relation);
        let offset = label - self.fact_base[relation.0];
        let present = offset % 2 == 1;
        let mut tuple = offset / 2;
        let arity = self.signature.arity(relation);
        let mut slot_vec = vec![0usize; arity];
        for i in (0..arity).rev() {
            slot_vec[i] = tuple % slots;
            tuple /= slots;
        }
        LabelKind::Fact {
            relation,
            slots: slot_vec,
            present,
        }
    }

    /// All `(label, kind)` pairs of the alphabet, in label order. Used by the
    /// automaton compiler to enumerate transitions; the iteration cost is the
    /// alphabet size.
    pub fn labels(&self) -> impl Iterator<Item = (Label, LabelKind)> + '_ {
        (0..self.size).map(|l| (l, self.kind(l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    #[test]
    fn layout_roundtrip() {
        let alphabet = EncodingAlphabet::new(&rst(), 2).unwrap();
        // 2 + 2·3 structural labels, then 2·3 + 2·9 + 2·3 fact labels.
        assert_eq!(alphabet.size(), 8 + 6 + 18 + 6);
        assert_eq!(alphabet.kind(alphabet.empty()), LabelKind::Empty);
        assert_eq!(alphabet.kind(alphabet.join()), LabelKind::Join);
        for s in 0..=2 {
            assert_eq!(
                alphabet.kind(alphabet.introduce(s)),
                LabelKind::Introduce(s)
            );
            assert_eq!(alphabet.kind(alphabet.forget(s)), LabelKind::Forget(s));
        }
        let sig = rst();
        let s_rel = sig.relation_by_name("S").unwrap();
        for (a, b) in [(0usize, 0usize), (0, 2), (2, 1)] {
            for present in [false, true] {
                let label = alphabet.fact(s_rel, &[a, b], present);
                assert_eq!(
                    alphabet.kind(label),
                    LabelKind::Fact {
                        relation: s_rel,
                        slots: vec![a, b],
                        present,
                    }
                );
            }
        }
        // All labels decode without panicking and re-encode to themselves.
        for (label, kind) in alphabet.labels() {
            let reencoded = match &kind {
                LabelKind::Empty => alphabet.empty(),
                LabelKind::Join => alphabet.join(),
                LabelKind::Introduce(s) => alphabet.introduce(*s),
                LabelKind::Forget(s) => alphabet.forget(*s),
                LabelKind::Fact {
                    relation,
                    slots,
                    present,
                } => alphabet.fact(*relation, slots, *present),
            };
            assert_eq!(label, reencoded);
        }
    }

    #[test]
    fn deterministic_across_constructions() {
        let a = EncodingAlphabet::new(&rst(), 1).unwrap();
        let b = EncodingAlphabet::new(&rst(), 1).unwrap();
        assert_eq!(a.size(), b.size());
        let sig = rst();
        let t = sig.relation_by_name("T").unwrap();
        assert_eq!(a.fact(t, &[1], true), b.fact(t, &[1], true));
    }

    #[test]
    fn oversized_alphabet_is_rejected() {
        let sig = Signature::builder().relation("Wide", 8).build();
        // 64^8 tuples at width 63 overflows the cap.
        assert!(matches!(
            EncodingAlphabet::new(&sig, 63),
            Err(AlphabetError::TooLarge { .. })
        ));
    }
}
