//! The representative process of a parameterized ring protocol.

use std::collections::BTreeSet;
use std::fmt;

use crate::action::GuardedCommand;
use crate::domain::{Domain, Value};
use crate::error::ProtocolError;
use crate::locality::Locality;
use crate::parser::parse_expr;
use crate::predicate::LocalPredicate;
use crate::space::{LocalStateId, LocalStateSpace};
use crate::transition::LocalTransition;

/// A parameterized ring protocol, given by its representative process `P_r`.
///
/// Holds the finite [`Domain`] of the owned variable, the read [`Locality`],
/// the set `δ_r` of [`LocalTransition`]s, and the local legitimate-state
/// predicate `LC_r` (so that `I(K) = ∧_r LC_r` is locally conjunctive, as
/// the paper assumes throughout).
///
/// `Protocol` values are immutable; use [`Protocol::builder`] to construct
/// one and [`Protocol::with_added_transitions`] /
/// [`Protocol::with_transitions`] to derive revisions (as the synthesis
/// methodology does).
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, Locality, Protocol};
///
/// let p = Protocol::builder("three-coloring", Domain::numeric("c", 3), Locality::unidirectional())
///     .legit("c[r] != c[r-1]")?
///     .build()?;
/// assert_eq!(p.space().len(), 9);
/// assert_eq!(p.legit().len(), 6);
/// assert_eq!(p.local_deadlocks().len(), 9); // empty protocol: all states deadlocked
/// # Ok::<(), selfstab_protocol::ProtocolError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Protocol {
    name: String,
    domain: Domain,
    locality: Locality,
    space: LocalStateSpace,
    transitions: BTreeSet<LocalTransition>,
    by_source: Vec<Vec<Value>>,
    legit: LocalPredicate,
    legit_source: String,
    actions: Vec<GuardedCommand>,
}

impl Protocol {
    /// Starts building a protocol.
    pub fn builder(name: &str, domain: Domain, locality: Locality) -> ProtocolBuilder {
        let space = LocalStateSpace::new(&domain, locality);
        ProtocolBuilder {
            name: name.to_owned(),
            domain,
            locality,
            space,
            transitions: BTreeSet::new(),
            legit: None,
            legit_source: String::new(),
            actions: Vec::new(),
        }
    }

    /// The protocol's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The read locality.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// The local state space codec.
    pub fn space(&self) -> &LocalStateSpace {
        &self.space
    }

    /// The legitimate-state predicate `LC_r`.
    pub fn legit(&self) -> &LocalPredicate {
        &self.legit
    }

    /// The source text of `LC_r`, when it was parsed from the DSL.
    pub fn legit_source(&self) -> &str {
        &self.legit_source
    }

    /// The guarded commands the protocol was built from (for display; may be
    /// empty for programmatically-built or synthesized protocols).
    pub fn actions(&self) -> &[GuardedCommand] {
        &self.actions
    }

    /// Iterates over `δ_r`, the set of local transitions.
    pub fn transitions(&self) -> impl Iterator<Item = LocalTransition> + '_ {
        self.transitions.iter().copied()
    }

    /// Number of local transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The values `x_r` may be set to from local state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transitions_from(&self, id: LocalStateId) -> &[Value] {
        &self.by_source[id.index()]
    }

    /// Returns `true` if the transition is in `δ_r`.
    pub fn has_transition(&self, t: LocalTransition) -> bool {
        self.transitions.contains(&t)
    }

    /// Returns `true` if some action of `P_r` is enabled at `id`.
    pub fn is_enabled(&self, id: LocalStateId) -> bool {
        !self.by_source[id.index()].is_empty()
    }

    /// The set of *enablements* — local states where `P_r` is enabled.
    pub fn enabled_states(&self) -> LocalPredicate {
        LocalPredicate::from_fn(&self.space, |id, _| self.is_enabled(id))
    }

    /// The set `D_L^l` of local deadlocks — local states with no enabled
    /// action.
    pub fn local_deadlocks(&self) -> LocalPredicate {
        LocalPredicate::from_fn(&self.space, |id, _| !self.is_enabled(id))
    }

    /// The illegitimate local deadlocks `¬LC_r ∩ D_L^l`.
    pub fn illegitimate_deadlocks(&self) -> LocalPredicate {
        self.local_deadlocks().and(&self.legit.negated())
    }

    /// Checks that `t` may be a transition of this protocol: its source is
    /// a local state, its target a domain value, and it is not an identity
    /// write. [`Protocol::with_added_transitions`] and
    /// [`Protocol::with_transitions`] reject exactly the transitions this
    /// rejects.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] if the transition is out of range
    /// or is an identity write.
    pub fn validate_transition(&self, t: LocalTransition) -> Result<(), ProtocolError> {
        validate_transition(&self.space, self.locality, t)
    }

    /// Derives a protocol with `extra` transitions added to `δ_r` (the
    /// `p_ss` revisions of the synthesis methodology).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] if a transition is out of range or
    /// is an identity write.
    pub fn with_added_transitions<I>(&self, name: &str, extra: I) -> Result<Protocol, ProtocolError>
    where
        I: IntoIterator<Item = LocalTransition>,
    {
        let mut transitions = self.transitions.clone();
        for t in extra {
            self.validate_transition(t)?;
            transitions.insert(t);
        }
        Ok(Protocol {
            name: name.to_owned(),
            by_source: index_by_source(&self.space, &transitions),
            transitions,
            domain: self.domain.clone(),
            locality: self.locality,
            space: self.space,
            legit: self.legit.clone(),
            legit_source: self.legit_source.clone(),
            actions: self.actions.clone(),
        })
    }

    /// Derives a protocol whose `δ_r` is exactly `transitions`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] if a transition is out of range or
    /// is an identity write.
    pub fn with_transitions<I>(&self, name: &str, transitions: I) -> Result<Protocol, ProtocolError>
    where
        I: IntoIterator<Item = LocalTransition>,
    {
        let mut set = BTreeSet::new();
        for t in transitions {
            self.validate_transition(t)?;
            set.insert(t);
        }
        Ok(Protocol {
            name: name.to_owned(),
            by_source: index_by_source(&self.space, &set),
            transitions: set,
            domain: self.domain.clone(),
            locality: self.locality,
            space: self.space,
            legit: self.legit.clone(),
            legit_source: self.legit_source.clone(),
            actions: Vec::new(),
        })
    }
}

fn validate_transition(
    space: &LocalStateSpace,
    locality: Locality,
    t: LocalTransition,
) -> Result<(), ProtocolError> {
    if t.source.index() >= space.len() {
        return Err(ProtocolError::Invalid {
            message: format!("transition source {} out of range", t.source),
        });
    }
    if t.target as usize >= space.domain_size() {
        return Err(ProtocolError::Invalid {
            message: format!("transition target value {} out of domain", t.target),
        });
    }
    if space.value_at(t.source, locality.center()) == t.target {
        return Err(ProtocolError::Invalid {
            message: format!(
                "identity transition at {} (writes the current value {})",
                t.source, t.target
            ),
        });
    }
    Ok(())
}

fn index_by_source(
    space: &LocalStateSpace,
    transitions: &BTreeSet<LocalTransition>,
) -> Vec<Vec<Value>> {
    let mut by_source = vec![Vec::new(); space.len()];
    for t in transitions {
        by_source[t.source.index()].push(t.target);
    }
    by_source
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "protocol {} over {}[{}] with locality {}",
            self.name,
            self.domain.variable(),
            (0..self.domain.size())
                .map(|v| self.domain.label(v as Value).to_owned())
                .collect::<Vec<_>>()
                .join(","),
            self.locality
        )?;
        if !self.legit_source.is_empty() {
            writeln!(f, "  LC_r: {}", self.legit_source)?;
        } else {
            writeln!(
                f,
                "  LC_r: {} of {} local states",
                self.legit.len(),
                self.space.len()
            )?;
        }
        if !self.actions.is_empty() {
            for a in &self.actions {
                writeln!(f, "  {a}")?;
            }
        } else {
            // Synthesized / programmatic protocols: render merged guards.
            for line in crate::display::summarize_transitions(self) {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Builder for [`Protocol`]; see [`Protocol::builder`].
#[derive(Clone, Debug)]
pub struct ProtocolBuilder {
    name: String,
    domain: Domain,
    locality: Locality,
    space: LocalStateSpace,
    transitions: BTreeSet<LocalTransition>,
    legit: Option<LocalPredicate>,
    legit_source: String,
    actions: Vec<GuardedCommand>,
}

impl ProtocolBuilder {
    /// Adds a guarded-command action parsed from the DSL.
    ///
    /// # Errors
    ///
    /// Propagates parse and expansion errors.
    pub fn action(mut self, source: &str) -> Result<Self, ProtocolError> {
        let gc = GuardedCommand::parse(source, &self.domain, self.locality)?;
        let expansion = gc.expand(&self.space, self.locality, &self.domain)?;
        self.transitions.extend(expansion.transitions);
        self.actions.push(gc);
        Ok(self)
    }

    /// Adds several actions; convenience over repeated [`Self::action`].
    ///
    /// # Errors
    ///
    /// Propagates parse and expansion errors.
    pub fn actions<'a, I: IntoIterator<Item = &'a str>>(
        mut self,
        sources: I,
    ) -> Result<Self, ProtocolError> {
        for s in sources {
            self = self.action(s)?;
        }
        Ok(self)
    }

    /// Adds one explicit local transition; `window` is the source window
    /// valuation and `target` the new value of `x_r`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] for identity or out-of-range
    /// transitions.
    ///
    /// # Panics
    ///
    /// Panics if `window` has the wrong width or out-of-domain values.
    pub fn transition(mut self, window: &[Value], target: Value) -> Result<Self, ProtocolError> {
        let t = LocalTransition::new(self.space.encode(window), target);
        validate_transition(&self.space, self.locality, t)?;
        self.transitions.insert(t);
        Ok(self)
    }

    /// Sets `LC_r` from a DSL boolean expression.
    ///
    /// # Errors
    ///
    /// Propagates parse and evaluation errors.
    pub fn legit(mut self, source: &str) -> Result<Self, ProtocolError> {
        let expr = parse_expr(source, &self.domain, self.locality)?;
        let mut ids = Vec::new();
        for id in self.space.ids() {
            let window = self.space.decode(id);
            if expr.eval_guard(&window, self.locality)? {
                ids.push(id);
            }
        }
        self.legit = Some(LocalPredicate::from_states(&self.space, ids));
        self.legit_source = source.trim().to_owned();
        Ok(self)
    }

    /// Sets `LC_r` from a closure over local states.
    pub fn legit_fn<F>(mut self, f: F) -> Self
    where
        F: FnMut(LocalStateId, &LocalStateSpace) -> bool,
    {
        self.legit = Some(LocalPredicate::from_fn(&self.space, f));
        self
    }

    /// Declares every local state legitimate.
    pub fn legit_all(mut self) -> Self {
        self.legit = Some(LocalPredicate::all(&self.space));
        self
    }

    /// Finalizes the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] if no legitimate-state predicate
    /// was provided or `LC_r` is empty (the paper requires a non-empty
    /// legitimate predicate).
    pub fn build(self) -> Result<Protocol, ProtocolError> {
        let legit = self.legit.ok_or_else(|| ProtocolError::Invalid {
            message: "no legitimate-state predicate (call .legit(...)/.legit_fn(...))".into(),
        })?;
        if legit.is_empty() {
            return Err(ProtocolError::Invalid {
                message: "LC_r is empty: no local state is legitimate".into(),
            });
        }
        Ok(Protocol {
            by_source: index_by_source(&self.space, &self.transitions),
            name: self.name,
            domain: self.domain,
            locality: self.locality,
            space: self.space,
            transitions: self.transitions,
            legit,
            legit_source: self.legit_source,
            actions: self.actions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agreement_both() -> Protocol {
        Protocol::builder(
            "agreement",
            Domain::numeric("x", 2),
            Locality::unidirectional(),
        )
        .action("x[r-1] == 0 && x[r] == 1 -> x[r] := 0")
        .unwrap()
        .action("x[r-1] == 1 && x[r] == 0 -> x[r] := 1")
        .unwrap()
        .legit("x[r] == x[r-1]")
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn agreement_structure() {
        let p = agreement_both();
        assert_eq!(p.transition_count(), 2);
        assert_eq!(p.legit().len(), 2);
        // deadlocks: the two agreeing states
        let dl = p.local_deadlocks();
        assert_eq!(dl.len(), 2);
        assert!(dl.holds(p.space().encode(&[0, 0])));
        assert!(dl.holds(p.space().encode(&[1, 1])));
        assert!(p.illegitimate_deadlocks().is_empty());
    }

    #[test]
    fn transitions_from_index() {
        let p = agreement_both();
        let s10 = p.space().encode(&[1, 0]);
        assert_eq!(p.transitions_from(s10), &[1]);
        assert!(p.is_enabled(s10));
        let s11 = p.space().encode(&[1, 1]);
        assert!(!p.is_enabled(s11));
    }

    #[test]
    fn with_added_transitions_extends() {
        let base = Protocol::builder("empty", Domain::numeric("x", 2), Locality::unidirectional())
            .legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(base.transition_count(), 0);
        let s01 = base.space().encode(&[0, 1]);
        let p = base
            .with_added_transitions("one", [LocalTransition::new(s01, 0)])
            .unwrap();
        assert_eq!(p.transition_count(), 1);
        assert_eq!(base.transition_count(), 0);
        assert!(p.has_transition(LocalTransition::new(s01, 0)));
    }

    #[test]
    fn identity_transition_rejected() {
        let base = Protocol::builder("empty", Domain::numeric("x", 2), Locality::unidirectional())
            .legit_all()
            .build()
            .unwrap();
        let s01 = base.space().encode(&[0, 1]);
        let e = base
            .with_added_transitions("bad", [LocalTransition::new(s01, 1)])
            .unwrap_err();
        assert!(e.to_string().contains("identity"));
    }

    #[test]
    fn build_requires_nonempty_legit() {
        let e = Protocol::builder("x", Domain::numeric("x", 2), Locality::unidirectional())
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("legitimate"));
        let e = Protocol::builder("x", Domain::numeric("x", 2), Locality::unidirectional())
            .legit("x[r] != x[r]")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn display_includes_actions_and_legit() {
        let p = agreement_both();
        let s = p.to_string();
        assert!(s.contains("protocol agreement"));
        assert!(s.contains("LC_r: x[r] == x[r-1]"));
        assert!(s.contains("x[r-1] == 1 && x[r] == 0 -> x[r] := 1"));
    }

    #[test]
    fn display_of_synthesized_protocol_lists_transitions() {
        let base = agreement_both();
        let p = base.with_transitions("synth", base.transitions()).unwrap();
        let s = p.to_string();
        assert!(s.contains("-> x[r] := 1"));
    }

    #[test]
    fn builder_transition_api() {
        let p = Protocol::builder("t", Domain::numeric("x", 3), Locality::unidirectional())
            .transition(&[0, 1], 2)
            .unwrap()
            .legit_all()
            .build()
            .unwrap();
        assert_eq!(p.transition_count(), 1);
        let t = p.transitions().next().unwrap();
        assert_eq!(p.space().decode(t.source), vec![0, 1]);
        assert_eq!(t.target, 2);
    }
}
