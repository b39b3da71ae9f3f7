//! Global state encoding for rings.

use selfstab_protocol::Value;

use crate::error::GlobalError;

/// Identifier of a global state: a dense mixed-radix index.
///
/// A global state of `p(K)` is a valuation of `⟨x_0, …, x_{K-1}⟩`; with
/// domain size `d` there are `d^K` of them. `x_0` is the most significant
/// digit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalStateId(pub u64);

impl GlobalStateId {
    /// The id as a `usize` index (global spaces are bounded well below
    /// `usize::MAX`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GlobalStateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The largest ring size: a `u64` global state id holds at most 64 digits
/// (`2^64` overflows it). Every ring with `d ≥ 2` beyond it is over any
/// state budget; a ring with `d = 1` is not, so [`GlobalSpace::new`]
/// refuses it by size.
pub const MAX_RING_SIZE: usize = 64;

/// Codec for the global state space of a ring of `K` processes over a
/// domain of size `d`.
///
/// # Examples
///
/// ```
/// use selfstab_global::GlobalSpace;
///
/// let sp = GlobalSpace::new(2, 4, 1 << 20)?;
/// let id = sp.encode(&[1, 0, 0, 1]);
/// assert_eq!(sp.decode(id), vec![1, 0, 0, 1]);
/// assert_eq!(sp.value_at(id, 0), 1);
/// assert_eq!(sp.len(), 16);
/// # Ok::<(), selfstab_global::GlobalError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalSpace {
    domain_size: usize,
    ring_size: usize,
    len: u64,
    /// `weights[i] = d^(K-1-i)`, the significance of position `i` in the
    /// dense id. Precomputed at construction with checked arithmetic so the
    /// per-digit accessors never evaluate `pow` (and never wrap: every
    /// weight divides `len`, which `new` proves fits in `u64`).
    weights: Vec<u64>,
}

impl GlobalSpace {
    /// Creates the codec, refusing spaces larger than `max_states`.
    ///
    /// All positional weights `d^(K-1-i)` are precomputed here under the
    /// same checked arithmetic that bounds `len`, so id packing and
    /// unpacking can never silently wrap no matter how large `d^K` is —
    /// oversized spaces are rejected up front instead.
    ///
    /// # Errors
    ///
    /// [`GlobalError::EmptyRing`] if `ring_size == 0`;
    /// [`GlobalError::RingTooLarge`] if `ring_size > MAX_RING_SIZE`;
    /// [`GlobalError::StateSpaceTooLarge`] if `d^K > max_states` (or `d^K`
    /// does not fit in `u64` at all).
    pub fn new(domain_size: usize, ring_size: usize, max_states: u64) -> Result<Self, GlobalError> {
        if ring_size == 0 {
            return Err(GlobalError::EmptyRing);
        }
        // K comes from requests, so both limits are checked before anything
        // of size K is allocated.
        if ring_size > MAX_RING_SIZE {
            return Err(GlobalError::RingTooLarge { ring_size });
        }
        let too_large = || GlobalError::StateSpaceTooLarge {
            domain_size,
            ring_size,
            limit: max_states,
        };
        let mut len: u64 = 1;
        for _ in 0..ring_size {
            len = len
                .checked_mul(domain_size as u64)
                .filter(|&l| l <= max_states)
                .ok_or_else(too_large)?;
        }
        let mut weights = vec![1u64; ring_size];
        for i in (1..ring_size).rev() {
            weights[i - 1] = weights[i] * domain_size as u64;
        }
        Ok(GlobalSpace {
            domain_size,
            ring_size,
            len,
            weights,
        })
    }

    /// Number of global states (`d^K`).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the space is empty (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring size `K`.
    pub fn ring_size(&self) -> usize {
        self.ring_size
    }

    /// The domain size `d`.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Encodes a configuration `⟨x_0, …, x_{K-1}⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from `K` or a value is out of
    /// domain.
    pub fn encode(&self, values: &[Value]) -> GlobalStateId {
        assert_eq!(values.len(), self.ring_size, "ring size mismatch");
        let mut id: u64 = 0;
        for &v in values {
            assert!((v as usize) < self.domain_size, "value {v} out of domain");
            id = id * self.domain_size as u64 + v as u64;
        }
        GlobalStateId(id)
    }

    /// Decodes a global state into its configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn decode(&self, id: GlobalStateId) -> Vec<Value> {
        assert!(id.0 < self.len, "global state id out of range");
        let mut values = vec![0; self.ring_size];
        let mut rest = id.0;
        for slot in values.iter_mut().rev() {
            *slot = (rest % self.domain_size as u64) as Value;
            rest /= self.domain_size as u64;
        }
        values
    }

    /// The value of `x_i` in `id` (no allocation). The index is taken
    /// modulo `K`, which implements the ring's wrap-around.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value_at(&self, id: GlobalStateId, i: isize) -> Value {
        assert!(id.0 < self.len, "global state id out of range");
        let i = i.rem_euclid(self.ring_size as isize) as usize;
        ((id.0 / self.weights[i]) % self.domain_size as u64) as Value
    }

    /// Returns `id` with `x_i := v` (index modulo `K`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of domain or `id` out of range.
    pub fn with_value(&self, id: GlobalStateId, i: isize, v: Value) -> GlobalStateId {
        assert!((v as usize) < self.domain_size, "value {v} out of domain");
        let i = i.rem_euclid(self.ring_size as isize) as usize;
        let old = self.value_at(id, i as isize);
        let weight = self.weights[i];
        GlobalStateId(id.0 - old as u64 * weight + v as u64 * weight)
    }

    /// The positional weight `d^(K-1-i)` of ring position `i` in the dense
    /// id encoding (precomputed; see [`GlobalSpace::new`]).
    pub(crate) fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Iterates over every global state.
    pub fn ids(&self) -> impl Iterator<Item = GlobalStateId> {
        (0..self.len).map(GlobalStateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let sp = GlobalSpace::new(3, 5, 1 << 20).unwrap();
        for id in sp.ids() {
            assert_eq!(sp.encode(&sp.decode(id)), id);
        }
    }

    #[test]
    fn value_access_and_wraparound() {
        let sp = GlobalSpace::new(2, 4, 1 << 20).unwrap();
        let id = sp.encode(&[1, 0, 0, 1]);
        assert_eq!(sp.value_at(id, 0), 1);
        assert_eq!(sp.value_at(id, 3), 1);
        assert_eq!(sp.value_at(id, -1), 1); // wraps to x_3
        assert_eq!(sp.value_at(id, 4), 1); // wraps to x_0
        assert_eq!(sp.value_at(id, 5), 0);
    }

    #[test]
    fn with_value_point_update() {
        let sp = GlobalSpace::new(3, 3, 1 << 20).unwrap();
        let id = sp.encode(&[2, 1, 0]);
        let id2 = sp.with_value(id, 1, 2);
        assert_eq!(sp.decode(id2), vec![2, 2, 0]);
        let id3 = sp.with_value(id, -1, 1);
        assert_eq!(sp.decode(id3), vec![2, 1, 1]);
    }

    #[test]
    fn limit_enforced() {
        let e = GlobalSpace::new(3, 40, 1 << 26).unwrap_err();
        assert!(matches!(e, GlobalError::StateSpaceTooLarge { .. }));
        assert!(GlobalSpace::new(2, 26, 1 << 26).is_ok());
        assert!(GlobalSpace::new(2, 27, 1 << 26).is_err());
    }

    #[test]
    fn u64_boundary_is_an_error_not_a_wrap() {
        // 2^63 states fit in u64; 2^64 must surface the capacity error
        // instead of wrapping the id arithmetic.
        let sp = GlobalSpace::new(2, 63, u64::MAX).unwrap();
        assert_eq!(sp.len(), 1u64 << 63);
        let e = GlobalSpace::new(2, 64, u64::MAX).unwrap_err();
        assert!(matches!(e, GlobalError::StateSpaceTooLarge { .. }));
        // 3^40 < 2^64 < 3^41.
        assert!(GlobalSpace::new(3, 40, u64::MAX).is_ok());
        assert!(GlobalSpace::new(3, 41, u64::MAX).is_err());

        // Digit accessors stay exact at the top of the id range: the most
        // significant weight is 2^62, which the old `pow`-per-access
        // formulation computed on every call.
        let top = GlobalStateId(sp.len() - 1); // all digits 1
        assert_eq!(sp.value_at(top, 0), 1);
        assert_eq!(sp.value_at(top, 62), 1);
        let cleared = sp.with_value(top, 0, 0);
        assert_eq!(cleared.0, (1u64 << 63) - 1 - (1u64 << 62));
        assert_eq!(sp.value_at(cleared, 0), 0);
        assert_eq!(sp.with_value(cleared, 0, 1), top);
    }

    #[test]
    fn unit_domain_weights_are_degenerate_but_exact() {
        // d=1 gives a single state and all-zero digits at any K.
        let sp = GlobalSpace::new(1, 17, 1 << 20).unwrap();
        assert_eq!(sp.len(), 1);
        let only = GlobalStateId(0);
        for i in 0..17 {
            assert_eq!(sp.value_at(only, i as isize), 0);
        }
        assert_eq!(sp.with_value(only, 5, 0), only);
    }

    /// A d = 1 ring passes every state budget, so its size is refused on
    /// its own, before anything of size K is allocated.
    #[test]
    fn rings_beyond_sixty_four_processes_are_refused() {
        use crate::instance::DEFAULT_MAX_STATES;
        assert_eq!(
            GlobalSpace::new(1, 64, DEFAULT_MAX_STATES).unwrap().len(),
            1
        );
        assert_eq!(
            GlobalSpace::new(1, 65, DEFAULT_MAX_STATES).unwrap_err(),
            GlobalError::RingTooLarge { ring_size: 65 }
        );
    }

    #[test]
    fn zero_ring_rejected() {
        assert_eq!(
            GlobalSpace::new(2, 0, 100).unwrap_err(),
            GlobalError::EmptyRing
        );
    }
}
