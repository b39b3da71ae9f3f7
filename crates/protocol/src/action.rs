//! Guarded-command actions and their expansion into local transitions.

use crate::domain::Domain;
use crate::error::ProtocolError;
use crate::expr::Expr;
use crate::locality::Locality;
use crate::parser::{parse_action, ParsedAction};
use crate::space::LocalStateSpace;
use crate::transition::LocalTransition;

/// A guarded command `grd_r -> x[r] := rhs (| rhs)*` of the representative
/// process, retaining its source text for faithful display.
///
/// # Examples
///
/// ```
/// use selfstab_protocol::{Domain, GuardedCommand, Locality, LocalStateSpace};
///
/// let d = Domain::numeric("x", 2);
/// let loc = Locality::unidirectional();
/// let gc = GuardedCommand::parse("x[r-1] == 1 && x[r] == 0 -> x[r] := 1", &d, loc)?;
/// let sp = LocalStateSpace::new(&d, loc);
/// let out = gc.expand(&sp, loc, &d)?;
/// assert_eq!(out.transitions.len(), 1);
/// # Ok::<(), selfstab_protocol::ProtocolError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardedCommand {
    source: String,
    guard: Expr,
    alternatives: Vec<Expr>,
}

/// The result of expanding a guarded command over the local state space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expansion {
    /// The local transitions denoted by the action.
    pub transitions: Vec<LocalTransition>,
    /// Number of identity writes skipped (`x[r] := v` where `v` already was
    /// the value of `x[r]`): such writes are global self-loops and would make
    /// the action self-enabling, so they are not part of `δ_r`.
    pub identity_skipped: usize,
}

impl GuardedCommand {
    /// Parses an action from its textual form.
    ///
    /// # Errors
    ///
    /// Propagates parser errors; see [`parse_action`].
    pub fn parse(input: &str, domain: &Domain, locality: Locality) -> Result<Self, ProtocolError> {
        let ParsedAction {
            guard,
            alternatives,
        } = parse_action(input, domain, locality)?;
        Ok(GuardedCommand {
            source: input.trim().to_owned(),
            guard,
            alternatives,
        })
    }

    /// The original source text, if the action was parsed.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The guard expression.
    pub fn guard(&self) -> &Expr {
        &self.guard
    }

    /// The right-hand-side alternatives.
    pub fn alternatives(&self) -> &[Expr] {
        &self.alternatives
    }

    /// Expands the action into the set of local transitions it denotes:
    /// one transition per (guard-satisfying local state, alternative) pair
    /// whose written value differs from the current one.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Eval`] if the guard is not boolean, an
    /// alternative is not an integer, or a written value falls outside the
    /// domain.
    pub fn expand(
        &self,
        space: &LocalStateSpace,
        locality: Locality,
        domain: &Domain,
    ) -> Result<Expansion, ProtocolError> {
        let mut out = Expansion::default();
        for id in space.ids() {
            let window = space.decode(id);
            if !self.guard.eval_guard(&window, locality)? {
                continue;
            }
            for alt in &self.alternatives {
                let v = alt.eval_int(&window, locality)?;
                if v < 0 || v as usize >= domain.size() {
                    return Err(ProtocolError::Eval {
                        message: format!(
                            "assignment writes {v}, outside domain `{}` of size {}",
                            domain.variable(),
                            domain.size()
                        ),
                    });
                }
                let v = v as u8;
                if v == window[locality.center()] {
                    out.identity_skipped += 1;
                } else {
                    out.transitions.push(LocalTransition::new(id, v));
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for GuardedCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.source.is_empty() {
            write!(f, "{:?} -> x[r] := {:?}", self.guard, self.alternatives)
        } else {
            f.write_str(&self.source)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_produces_expected_transitions() {
        let d = Domain::named("m", ["left", "right", "self"]);
        let loc = Locality::bidirectional();
        let sp = LocalStateSpace::new(&d, loc);
        let gc = GuardedCommand::parse(
            "m[r-1] == left && m[r] != self && m[r+1] == right -> m[r] := self",
            &d,
            loc,
        )
        .unwrap();
        let out = gc.expand(&sp, loc, &d).unwrap();
        // guard-satisfying states: ⟨left, left, right⟩ and ⟨left, right, right⟩.
        assert_eq!(out.transitions.len(), 2);
        assert_eq!(out.identity_skipped, 0);
        for t in &out.transitions {
            assert_eq!(t.target, 2);
            assert_eq!(sp.value_at(t.source, 0), 0);
            assert_eq!(sp.value_at(t.source, 2), 1);
            assert_ne!(sp.value_at(t.source, 1), 2);
        }
    }

    #[test]
    fn identity_writes_are_skipped_and_counted() {
        let d = Domain::numeric("x", 2);
        let loc = Locality::unidirectional();
        let sp = LocalStateSpace::new(&d, loc);
        // Copies the predecessor unconditionally: identity on agreeing states.
        let gc = GuardedCommand::parse("x[r] >= 0 -> x[r] := x[r-1]", &d, loc).unwrap();
        let out = gc.expand(&sp, loc, &d).unwrap();
        assert_eq!(out.transitions.len(), 2);
        assert_eq!(out.identity_skipped, 2);
    }

    #[test]
    fn out_of_domain_write_is_an_error() {
        let d = Domain::numeric("x", 2);
        let loc = Locality::unidirectional();
        let sp = LocalStateSpace::new(&d, loc);
        let gc = GuardedCommand::parse("x[r] == 0 -> x[r] := x[r] + 2", &d, loc).unwrap();
        let e = gc.expand(&sp, loc, &d).unwrap_err();
        assert!(e.to_string().contains("outside domain"));
    }

    #[test]
    fn nondeterministic_alternatives_expand_to_multiple_transitions() {
        let d = Domain::named("m", ["left", "right", "self"]);
        let loc = Locality::bidirectional();
        let sp = LocalStateSpace::new(&d, loc);
        let gc = GuardedCommand::parse(
            "m[r-1] == self && m[r] == self && m[r+1] == self -> m[r] := right | left",
            &d,
            loc,
        )
        .unwrap();
        let out = gc.expand(&sp, loc, &d).unwrap();
        assert_eq!(out.transitions.len(), 2);
        let targets: Vec<u8> = out.transitions.iter().map(|t| t.target).collect();
        assert!(targets.contains(&0) && targets.contains(&1));
    }

    #[test]
    fn display_roundtrips_source() {
        let d = Domain::numeric("x", 2);
        let loc = Locality::unidirectional();
        let src = "x[r-1] == 1 && x[r] == 0 -> x[r] := 1";
        let gc = GuardedCommand::parse(src, &d, loc).unwrap();
        assert_eq!(gc.to_string(), src);
    }
}
