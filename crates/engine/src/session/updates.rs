//! Updates to a registered instance: the update types, the validation
//! rules ([`validate_insert`], [`validate_retract`]), the three mutations
//! and structural invalidation.

use super::{EvalSession, InstanceId};
use crate::pool::lock_recovering;
use treelineage_encoding::EncodingPlan;
use treelineage_instance::{Element, Fact, FactId, Instance};
use treelineage_num::Rational;
use treelineage_telemetry::Span;

/// The kind of a mutation applied through [`EvalSession::insert_fact`],
/// [`EvalSession::retract_fact`] or [`EvalSession::set_probability`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// A new fact was inserted (structural).
    Insert,
    /// An existing fact was retracted (structural).
    Retract,
    /// One fact's probability was overridden (weights only).
    SetProbability,
}

impl UpdateKind {
    /// Stable lowercase name of the kind, used as the `kind` label of the
    /// `updates_total` telemetry series.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateKind::Insert => "insert",
            UpdateKind::Retract => "retract",
            UpdateKind::SetProbability => "set_probability",
        }
    }
}

/// Typed rejection of a mutation. Rejected updates leave the session
/// untouched: no cache layer is invalidated, no counter moves, the epoch
/// stays. The domain-pinning variants ([`UpdateError::NewElement`],
/// [`UpdateError::UncoveredFact`], [`UpdateError::OrphanedElement`]) exist
/// because a session instance's tree decomposition — and with it the
/// encoding's event numbering — is pinned to the Gaifman graph of the
/// *registered* active domain: an update that grows or shrinks the domain,
/// or introduces a fact no decomposition bag covers, would shift every
/// vertex index and silently break the update path's byte-identity with a
/// cold compile.
/// Such updates need a re-registration, not an in-place mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The instance handle does not belong to this session.
    UnknownInstance(usize),
    /// The fact id names no fact of the instance (retracting an absent fact
    /// lands here).
    UnknownFact(FactId),
    /// The inserted fact's argument count does not match its relation's
    /// arity in the instance's signature.
    ArityMismatch {
        /// Arity the signature declares for the relation.
        expected: usize,
        /// Arguments the fact carries.
        got: usize,
    },
    /// The inserted fact is already present (at the reported id). Instances
    /// are fact *sets*; inserting a duplicate is a rejected no-op, mirroring
    /// the idempotence of registration-time loading.
    DuplicateFact(FactId),
    /// The inserted fact mentions an element outside the pinned active
    /// domain.
    NewElement(Element),
    /// The inserted fact's elements are all in the domain, but no bag of the
    /// pinned decomposition contains them jointly (the fact has no home in
    /// the tree encoding, and its Gaifman edges may exceed the width).
    UncoveredFact,
    /// Retracting the fact would orphan the reported element (it occurs in
    /// no other fact), shrinking the pinned active domain.
    OrphanedElement(Element),
    /// The probability is outside `[0, 1]`.
    InvalidProbability,
    /// The pinned decomposition could not be turned into an encoding plan
    /// (alphabet limits); the instance cannot accept structural updates.
    Encoding(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownInstance(i) => write!(f, "unknown instance handle {i}"),
            UpdateError::UnknownFact(id) => write!(f, "no fact with id {}", id.0),
            UpdateError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: relation expects {expected}, got {got}")
            }
            UpdateError::DuplicateFact(id) => {
                write!(f, "fact already present with id {}", id.0)
            }
            UpdateError::NewElement(e) => {
                write!(f, "element {} is outside the pinned active domain", e.0)
            }
            UpdateError::UncoveredFact => {
                write!(f, "no decomposition bag covers the fact's elements")
            }
            UpdateError::OrphanedElement(e) => {
                write!(f, "retraction would orphan element {}", e.0)
            }
            UpdateError::InvalidProbability => write!(f, "probability out of [0, 1]"),
            UpdateError::Encoding(e) => write!(f, "encoding plan failed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// What an applied update did, returned by the [`EvalSession`] mutation
/// methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The kind of mutation applied.
    pub kind: UpdateKind,
    /// The fact the update touched: the new fact's id for an insert, the
    /// vacated id for a retract (where the moved fact now lives, if any),
    /// the reweighted fact for a probability override.
    pub fact: FactId,
    /// Retract only: the id the previously-last fact moved *from* (it now
    /// lives at [`UpdateReport::fact`]); `None` when the retracted fact was
    /// itself last, and for the other kinds.
    pub moved: Option<FactId>,
    /// Whether the update changed the fact set (and therefore invalidated
    /// the structural cache layers). Probability overrides are
    /// non-structural: the gate stream is probability-independent, so only
    /// the session's resident valuation changes.
    pub structural: bool,
    /// Whether the update was a zero-dirty fast path (overriding a
    /// probability with its current value): accepted, but nothing changed
    /// and no cache layer was touched.
    pub no_op: bool,
    /// The instance's update epoch after this update (0 at registration,
    /// +1 per applied non-no-op update).
    pub epoch: u64,
    /// How many resident lineage artifacts the update invalidated.
    pub invalidated_lineages: usize,
}

/// Validates a fact insertion against an instance (arity, probability
/// range, duplicates) and against the [`EncodingPlan`] the instance is
/// pinned to (the fact's elements must be in the plan's domain and covered
/// by one of its bags).
pub fn validate_insert(
    instance: &Instance,
    plan: &EncodingPlan,
    fact: &Fact,
    probability: &Rational,
) -> Result<(), UpdateError> {
    let expected = instance.signature().arity(fact.relation());
    if fact.arguments().len() != expected {
        return Err(UpdateError::ArityMismatch {
            expected,
            got: fact.arguments().len(),
        });
    }
    check_probability(probability)?;
    if let Some(id) = instance.fact_id(fact.relation(), fact.arguments()) {
        return Err(UpdateError::DuplicateFact(id));
    }
    let elements = fact.elements();
    if let Some(&e) = elements.iter().find(|&&e| !plan.contains_element(e)) {
        return Err(UpdateError::NewElement(e));
    }
    if !plan.covers(&elements) {
        return Err(UpdateError::UncoveredFact);
    }
    Ok(())
}

/// Validates a fact retraction. `pinned_domain` adds the orphan check (the
/// session's mode: every element of the fact must survive in another fact,
/// or the pinned active domain would shrink); callers re-deriving their
/// decomposition per evaluation may pass `false` and shrink freely.
pub fn validate_retract(
    instance: &Instance,
    fact: FactId,
    pinned_domain: bool,
) -> Result<(), UpdateError> {
    check_fact(instance, fact)?;
    if pinned_domain {
        for e in instance.fact(fact).elements() {
            let survives = instance
                .facts()
                .any(|(id, f)| id != fact && f.elements().contains(&e));
            if !survives {
                return Err(UpdateError::OrphanedElement(e));
            }
        }
    }
    Ok(())
}

/// The fact-range check of a retraction or a probability override.
fn check_fact(instance: &Instance, fact: FactId) -> Result<(), UpdateError> {
    (fact.0 < instance.fact_count())
        .then_some(())
        .ok_or(UpdateError::UnknownFact(fact))
}

/// The probability check of an insertion or a probability override.
fn check_probability(probability: &Rational) -> Result<(), UpdateError> {
    probability
        .is_probability()
        .then_some(())
        .ok_or(UpdateError::InvalidProbability)
}

impl EvalSession {
    /// Inserts a fact with the given probability. Structural: the
    /// instance's tree encoding and resident lineages are invalidated — the
    /// next compile of a pair re-encodes from the instance's cached
    /// encoding plan and recompiles through the cached query machine,
    /// byte-identically to a cold compile (pinned by
    /// `tests/update_differential.rs`).
    ///
    /// The fact must stay inside the pinned active domain and be covered by
    /// a bag of the registered decomposition; see [`UpdateError`] for the
    /// typed rejections. The new fact takes the next dense id (insertion
    /// never renumbers existing facts).
    pub fn insert_fact(
        &mut self,
        instance: InstanceId,
        fact: Fact,
        probability: Rational,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        let plan = self
            .plan(i)
            .map_err(|e| UpdateError::Encoding(e.to_string()))?;
        validate_insert(&self.instances[i].instance, plan, &fact, &probability)?;
        let span = self.update_span(UpdateKind::Insert, i);
        let entry = &mut self.instances[i];
        let id = entry
            .instance
            .add_fact(fact.relation(), fact.arguments().to_vec());
        entry.valuation.push(probability);
        Ok(self.applied(i, UpdateKind::Insert, id, None, span))
    }

    /// Retracts a fact by id, with swap-remove semantics: the last fact
    /// (and only it) moves into the vacated id, reported as
    /// [`UpdateReport::moved`]. Structural — same invalidation as
    /// [`EvalSession::insert_fact`].
    ///
    /// Retracting an absent fact is [`UpdateError::UnknownFact`]; a
    /// retraction that would orphan an element (shrinking the pinned
    /// domain) is [`UpdateError::OrphanedElement`].
    pub fn retract_fact(
        &mut self,
        instance: InstanceId,
        fact: FactId,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        validate_retract(&self.instances[i].instance, fact, true)?;
        let span = self.update_span(UpdateKind::Retract, i);
        let entry = &mut self.instances[i];
        let (_removed, moved) = entry.instance.remove_fact(fact);
        entry.valuation.swap_remove(fact);
        Ok(self.applied(i, UpdateKind::Retract, fact, moved, span))
    }

    /// Overrides one fact's probability in the session's resident
    /// valuation. The cheap tier: the compiled gate stream is
    /// probability-independent, so no encoding, machine or lineage state
    /// is invalidated — later evaluations simply read the new weight.
    /// Overriding with the current value is an accepted zero-dirty no-op
    /// (`no_op: true`, epoch untouched, nothing counted).
    pub fn set_probability(
        &mut self,
        instance: InstanceId,
        fact: FactId,
        probability: Rational,
    ) -> Result<UpdateReport, UpdateError> {
        let i = self.check_instance(instance)?;
        let entry = &self.instances[i];
        check_fact(&entry.instance, fact)?;
        check_probability(&probability)?;
        if *entry.valuation.probability(fact) == probability {
            return Ok(UpdateReport {
                kind: UpdateKind::SetProbability,
                fact,
                moved: None,
                structural: false,
                no_op: true,
                epoch: entry.epoch,
                invalidated_lineages: 0,
            });
        }
        let span = self.update_span(UpdateKind::SetProbability, i);
        self.instances[i]
            .valuation
            .set_probability(fact, probability);
        Ok(self.applied(i, UpdateKind::SetProbability, fact, None, span))
    }

    /// The tail of every applied update: bumps the instance's epoch,
    /// invalidates its structural cache layers (inserts and retractions
    /// only), counts the kind, closes the update's span with its
    /// `invalidated_lineages` label, feeds the `updates_total{kind}`
    /// counter, and reports.
    fn applied(
        &mut self,
        i: usize,
        kind: UpdateKind,
        fact: FactId,
        moved: Option<FactId>,
        mut span: Span,
    ) -> UpdateReport {
        let entry = &mut self.instances[i];
        entry.epoch += 1;
        let epoch = entry.epoch;
        let structural = kind != UpdateKind::SetProbability;
        let invalidated = if structural {
            self.invalidate_structural(i)
        } else {
            0
        };
        self.count(|s| match kind {
            UpdateKind::Insert => s.updates_insert += 1,
            UpdateKind::Retract => s.updates_retract += 1,
            UpdateKind::SetProbability => s.updates_set_probability += 1,
        });
        span.label("invalidated_lineages", invalidated);
        drop(span);
        self.config
            .telemetry
            .counter_add("updates_total", &[("kind", kind.as_str())], 1);
        UpdateReport {
            kind,
            fact,
            moved,
            structural,
            no_op: false,
            epoch,
            invalidated_lineages: invalidated,
        }
    }

    /// Resolves an instance handle to its index, typed-rejecting handles
    /// from another session.
    fn check_instance(&self, id: InstanceId) -> Result<usize, UpdateError> {
        if id.0 < self.instances.len() {
            Ok(id.0)
        } else {
            Err(UpdateError::UnknownInstance(id.0))
        }
    }

    /// Opens the span of one applied update.
    fn update_span(&self, kind: UpdateKind, instance: usize) -> Span {
        let mut span = self.config.telemetry.span("update");
        span.label("kind", kind.as_str());
        span.label("instance", instance);
        span
    }

    /// Invalidates every structural cache layer of one instance: the tree
    /// encoding and the instance's resident lineages are dropped. Returns
    /// how many lineages were evicted.
    fn invalidate_structural(&self, i: usize) -> usize {
        *lock_recovering(&self.instances[i].encoding) = None;
        let count = lock_recovering(&self.lineages).remove_matching(|&(_, inst)| inst == i);
        if count > 0 {
            self.count(|s| s.lineages_invalidated += count);
        }
        count
    }
}
