//! The tree-protocol model: a non-root template over `⟨parent, self⟩`
//! windows plus a root behavior over the root's own value.

use selfstab_protocol::{
    Domain, GuardedCommand, LocalPredicate, LocalStateId, LocalStateSpace, Locality, Protocol,
    ProtocolError, Value,
};

/// A parameterized protocol on oriented rooted trees.
///
/// Non-root processes are instances of a representative process reading
/// `⟨x_parent, x_self⟩` — syntactically the unidirectional-ring window, with
/// `x[r-1]` denoting the parent. The root reads only its own variable; its
/// transitions are value rewrites `v → v'` guarded by `v`.
#[derive(Clone, Debug)]
pub struct TreeProtocol {
    node: Protocol,
    root_targets: Vec<Vec<Value>>,
    root_legit: Vec<bool>,
}

impl TreeProtocol {
    /// Starts building a tree protocol over `domain`.
    pub fn builder(domain: Domain) -> TreeProtocolBuilder {
        TreeProtocolBuilder {
            builder: Some(Protocol::builder(
                "tree-node",
                domain.clone(),
                Locality::unidirectional(),
            )),
            domain,
            root_transitions: Vec::new(),
            root_legit: None,
        }
    }

    /// The variable domain.
    pub fn domain(&self) -> &Domain {
        self.node.domain()
    }

    /// The non-root template, as a unidirectional-window protocol
    /// (`x[r-1]` = parent).
    pub fn node(&self) -> &Protocol {
        &self.node
    }

    /// The window codec of non-root processes.
    pub fn space(&self) -> &LocalStateSpace {
        self.node.space()
    }

    /// The values the root may rewrite `v` to.
    pub fn root_targets(&self, v: Value) -> &[Value] {
        &self.root_targets[v as usize]
    }

    /// Returns `true` if the root is enabled at value `v`.
    pub fn root_enabled(&self, v: Value) -> bool {
        !self.root_targets[v as usize].is_empty()
    }

    /// Returns `true` if root value `v` satisfies `LC_root`.
    pub fn root_legit(&self, v: Value) -> bool {
        self.root_legit[v as usize]
    }

    /// The non-root local predicate `LC` as a predicate over windows.
    pub fn node_legit(&self) -> &LocalPredicate {
        self.node.legit()
    }

    /// The non-root local deadlock windows.
    pub fn node_deadlocks(&self) -> LocalPredicate {
        self.node.local_deadlocks()
    }

    /// The targets of the non-root template at window `w`.
    pub fn node_targets(&self, w: LocalStateId) -> &[Value] {
        self.node.transitions_from(w)
    }
}

/// Builder for [`TreeProtocol`]; see [`TreeProtocol::builder`].
#[derive(Debug)]
pub struct TreeProtocolBuilder {
    builder: Option<selfstab_protocol::ProtocolBuilder>,
    domain: Domain,
    root_transitions: Vec<(Value, Value)>,
    root_legit: Option<Vec<bool>>,
}

impl TreeProtocolBuilder {
    /// Adds a non-root guarded command; `x[r-1]` denotes the parent's
    /// variable and `x[r]` the process's own.
    ///
    /// # Errors
    ///
    /// Propagates DSL errors.
    pub fn node_action(mut self, source: &str) -> Result<Self, ProtocolError> {
        self.builder = Some(
            self.builder
                .take()
                .expect("builder present")
                .action(source)?,
        );
        Ok(self)
    }

    /// Sets the non-root local predicate from a DSL expression over
    /// `x[r-1]` (parent) and `x[r]`.
    ///
    /// # Errors
    ///
    /// Propagates DSL errors.
    pub fn node_legit(mut self, source: &str) -> Result<Self, ProtocolError> {
        self.builder = Some(
            self.builder
                .take()
                .expect("builder present")
                .legit(source)?,
        );
        Ok(self)
    }

    /// Sets the non-root local predicate from a closure over window ids.
    pub fn node_legit_from<F>(mut self, mut f: F) -> Self
    where
        F: FnMut(LocalStateId) -> bool,
    {
        self.builder = Some(
            self.builder
                .take()
                .expect("builder present")
                .legit_fn(|id, _| f(id)),
        );
        self
    }

    /// Adds a root transition `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] for identity or out-of-domain
    /// rewrites.
    pub fn root_transition(mut self, from: Value, to: Value) -> Result<Self, ProtocolError> {
        let d = self.domain.size();
        if from as usize >= d || to as usize >= d {
            return Err(ProtocolError::Invalid {
                message: format!("root transition {from}->{to} outside domain"),
            });
        }
        if from == to {
            return Err(ProtocolError::Invalid {
                message: format!("identity root transition at {from}"),
            });
        }
        self.root_transitions.push((from, to));
        Ok(self)
    }

    /// Declares which root values are legitimate.
    pub fn root_legit_values<I: IntoIterator<Item = Value>>(mut self, values: I) -> Self {
        let mut legit = vec![false; self.domain.size()];
        for v in values {
            legit[v as usize] = true;
        }
        self.root_legit = Some(legit);
        self
    }

    /// Convenience: the root never moves and every root value is
    /// legitimate (the common case where only edges carry constraints).
    pub fn root_silent_and_all_legit(mut self) -> Self {
        self.root_legit = Some(vec![true; self.domain.size()]);
        self
    }

    /// Finalizes the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Invalid`] if the node predicate or root
    /// predicate is missing/empty.
    pub fn build(self) -> Result<TreeProtocol, ProtocolError> {
        let node = self.builder.expect("builder present").build()?;
        let root_legit = self.root_legit.ok_or_else(|| ProtocolError::Invalid {
            message: "no root legitimacy declared (root_legit_values/root_silent_and_all_legit)"
                .into(),
        })?;
        if !root_legit.iter().any(|&b| b) {
            return Err(ProtocolError::Invalid {
                message: "no root value is legitimate".into(),
            });
        }
        let mut root_targets = vec![Vec::new(); node.domain().size()];
        for (from, to) in self.root_transitions {
            if !root_targets[from as usize].contains(&to) {
                root_targets[from as usize].push(to);
            }
        }
        Ok(TreeProtocol {
            node,
            root_targets,
            root_legit,
        })
    }
}

/// Convenience: the window id for `⟨parent, self⟩` values.
pub fn window(space: &LocalStateSpace, parent: Value, own: Value) -> LocalStateId {
    space.encode(&[parent, own])
}

/// Re-exported for building ad-hoc node actions in tests.
pub type NodeAction = GuardedCommand;

#[cfg(test)]
mod tests {
    use super::*;

    fn agreement() -> TreeProtocol {
        TreeProtocol::builder(Domain::numeric("x", 2))
            .node_action("x[r-1] != x[r] -> x[r] := x[r-1]")
            .unwrap()
            .node_legit("x[r] == x[r-1]")
            .unwrap()
            .root_silent_and_all_legit()
            .build()
            .unwrap()
    }

    #[test]
    fn node_template_shape() {
        let p = agreement();
        assert_eq!(p.space().len(), 4);
        assert_eq!(p.node().transition_count(), 2);
        assert!(p.root_legit(0) && p.root_legit(1));
        assert!(!p.root_enabled(0));
    }

    #[test]
    fn root_transitions_validate() {
        let b = TreeProtocol::builder(Domain::numeric("x", 3));
        assert!(b.root_transition(1, 1).is_err());
        let b = TreeProtocol::builder(Domain::numeric("x", 3));
        assert!(b.root_transition(1, 3).is_err());
        let p = TreeProtocol::builder(Domain::numeric("x", 3))
            .root_transition(0, 1)
            .unwrap()
            .node_legit("x[r] == x[r-1]")
            .unwrap()
            .root_legit_values([1, 2])
            .build()
            .unwrap();
        assert!(p.root_enabled(0));
        assert!(!p.root_legit(0));
        assert_eq!(p.root_targets(0), &[1]);
    }

    #[test]
    fn build_requires_root_legit() {
        let e = TreeProtocol::builder(Domain::numeric("x", 2))
            .node_legit("x[r] == x[r-1]")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("root"));
    }
}
