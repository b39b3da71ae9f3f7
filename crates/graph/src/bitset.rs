//! A compact fixed-capacity bit set over `usize` indices.
//!
//! Used across the workspace to represent sets of graph vertices and sets of
//! local states. The capacity is fixed at construction; all indices passed to
//! the set must be below the capacity.

/// A fixed-capacity set of small integers backed by 64-bit words.
///
/// # Examples
///
/// ```
/// use selfstab_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set that can hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= capacity`.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = usize>>(
        capacity: usize,
        iter: I,
    ) -> Self {
        let mut s = BitSet::new(capacity);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The fixed capacity (exclusive upper bound on member indices).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index` into the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "BitSet index {index} out of capacity {}",
            self.capacity
        );
        let w = index / 64;
        let b = 1u64 << (index % 64);
        let had = self.words[w] & b != 0;
        self.words[w] |= b;
        !had
    }

    /// Removes `index` from the set. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "BitSet index {index} out of capacity {}",
            self.capacity
        );
        let w = index / 64;
        let b = 1u64 << (index % 64);
        let had = self.words[w] & b != 0;
        self.words[w] &= !b;
        had
    }

    /// Returns `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Complement within `0..capacity`, in place.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`BitSet`], in increasing order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + tz);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_and_complement() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        s.complement();
        assert!(s.is_empty());
        s.complement();
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter_with_capacity(10, [1, 3, 5]);
        let b = BitSet::from_iter_with_capacity(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn iter_empty_and_boundaries() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        let s = BitSet::from_iter_with_capacity(64, [63]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63]);
        let s = BitSet::from_iter_with_capacity(65, [64]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn contains_beyond_capacity_is_false() {
        let s = BitSet::full(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }
}
