//! Allocation-free hot-path containers for the cycle-stepped simulators.
//!
//! The inner loops of [`RingSystem`](crate::RingSystem),
//! [`HierNetSim`](crate::HierNetSim) and the access-network models run
//! every interconnect cycle for tens of millions of cycles per run; the
//! `std` containers they originally used (`VecDeque` per node queue,
//! `HashMap` keyed event bodies) spend that loop hashing and reallocating.
//! This module provides the two drop-in replacements:
//!
//! * [`RingBuf`] — a power-of-two-capacity FIFO with head/length masking.
//!   Same observable semantics as `VecDeque` for the operations the
//!   simulators use (`push_back` / `pop_front` / `push_front` / indexed
//!   `remove` / in-order iteration), but with no reallocation once warm.
//! * [`Slab`] — index-keyed storage with a free list. `insert` hands out a
//!   slot, `remove` recycles it; no hashing, no per-entry allocation.
//!
//! Both are safe code (`forbid(unsafe_code)` crate); the property tests in
//! `tests/collections_prop.rs` drive them against their `std` models under
//! random operation sequences.

/// A FIFO ring buffer with power-of-two capacity and head/len masking.
///
/// Order-preserving drop-in for the `VecDeque` usage in the simulators'
/// per-node queues: elements come out in insertion order, `remove(i)`
/// closes the gap by shifting later elements down (exactly `VecDeque`'s
/// observable behaviour), and iteration runs front to back. Capacity grows
/// by doubling only when full — steady-state traffic never reallocates.
///
/// # Examples
///
/// ```
/// use ringsim_core::RingBuf;
///
/// let mut q: RingBuf<u32> = RingBuf::new();
/// q.push_back(1);
/// q.push_back(2);
/// q.push_front(0);
/// assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
/// assert_eq!(q.remove(1), Some(1));
/// assert_eq!(q.pop_front(), Some(0));
/// assert_eq!(q.pop_front(), Some(2));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RingBuf<T> {
    /// Backing storage; `buf.len()` is always a power of two (or zero
    /// before first use). `None` marks unoccupied physical slots.
    buf: Vec<Option<T>>,
    /// Physical index of the logical front element.
    head: usize,
    /// Number of live elements.
    len: usize,
}

impl<T> Default for RingBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RingBuf<T> {
    /// An empty buffer (no allocation until the first push).
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new(), head: 0, len: 0 }
    }

    /// An empty buffer pre-sized for at least `cap` elements (rounded up
    /// to a power of two), so steady-state use never reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut rb = Self::new();
        if cap > 0 {
            rb.realloc(cap.next_power_of_two());
        }
        rb
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.buf.len().wrapping_sub(1)
    }

    fn physical(&self, logical: usize) -> usize {
        (self.head + logical) & self.mask()
    }

    /// Re-homes the contents into a fresh power-of-two allocation with the
    /// front at physical index 0.
    fn realloc(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap >= self.len);
        let mut next: Vec<Option<T>> = Vec::with_capacity(new_cap);
        for i in 0..self.len {
            let idx = self.physical(i);
            next.push(self.buf[idx].take());
        }
        next.resize_with(new_cap, || None);
        self.buf = next;
        self.head = 0;
    }

    fn grow_if_full(&mut self) {
        if self.len == self.buf.len() {
            self.realloc((self.buf.len() * 2).max(4));
        }
    }

    /// Appends to the back.
    pub fn push_back(&mut self, value: T) {
        self.grow_if_full();
        let idx = self.physical(self.len);
        debug_assert!(self.buf[idx].is_none());
        self.buf[idx] = Some(value);
        self.len += 1;
    }

    /// Prepends to the front (the next `pop_front` returns it).
    pub fn push_front(&mut self, value: T) {
        self.grow_if_full();
        self.head = self.head.wrapping_sub(1) & self.mask();
        debug_assert!(self.buf[self.head].is_none());
        self.buf[self.head] = Some(value);
        self.len += 1;
    }

    /// Removes and returns the front element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.buf[self.head].take();
        debug_assert!(value.is_some());
        self.head = self.physical(1);
        self.len -= 1;
        value
    }

    /// The front element, if any.
    #[must_use]
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.buf[self.head].as_ref()
        }
    }

    /// The element at logical position `i` (0 = front).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else {
            self.buf[self.physical(i)].as_ref()
        }
    }

    /// Removes and returns the element at logical position `i`, shifting
    /// every later element one position toward the front (`VecDeque`
    /// semantics). `None` when out of range.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        if i >= self.len {
            return None;
        }
        let at = self.physical(i);
        let removed = self.buf[at].take();
        for j in i..self.len - 1 {
            let from = self.physical(j + 1);
            let to = self.physical(j);
            self.buf[to] = self.buf[from].take();
        }
        self.len -= 1;
        removed
    }

    /// Drops all elements (capacity is kept).
    pub fn clear(&mut self) {
        for i in 0..self.len {
            let idx = self.physical(i);
            self.buf[idx] = None;
        }
        self.head = 0;
        self.len = 0;
    }

    /// Front-to-back iterator.
    pub fn iter(&self) -> RingBufIter<'_, T> {
        RingBufIter { rb: self, pos: 0 }
    }
}

impl<'a, T> IntoIterator for &'a RingBuf<T> {
    type Item = &'a T;
    type IntoIter = RingBufIter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Front-to-back borrowing iterator over a [`RingBuf`].
#[derive(Debug)]
pub struct RingBufIter<'a, T> {
    rb: &'a RingBuf<T>,
    pos: usize,
}

impl<'a, T> Iterator for RingBufIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let item = self.rb.get(self.pos)?;
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.rb.len() - self.pos.min(self.rb.len());
        (rest, Some(rest))
    }
}

impl<T> FromIterator<T> for RingBuf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut rb = RingBuf::new();
        for v in iter {
            rb.push_back(v);
        }
        rb
    }
}

/// Index-keyed storage with a free list: `insert` returns a stable slot
/// key, `remove` recycles it. The event queue's arena for in-flight event
/// bodies — replaces a `HashMap<u64, E>` whose hashing dominated
/// scheduling cost.
///
/// Slot keys are dense (bounded by the high-water mark of simultaneously
/// live entries), so the backing `Vec` stops growing once the simulation
/// reaches steady state.
///
/// # Examples
///
/// ```
/// use ringsim_core::Slab;
///
/// let mut slab: Slab<&'static str> = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), "alpha");
/// let c = slab.insert("gamma"); // recycles alpha's slot
/// assert_eq!(c, a);
/// assert_eq!(slab.len(), 2);
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<SlabEntry<T>>,
    /// Head of the vacant-slot free list (`usize::MAX` = none).
    free_head: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum SlabEntry<T> {
    Occupied(T),
    /// Vacant slot holding the next free-list index (`usize::MAX` ends
    /// the list).
    Vacant(usize),
}

const FREE_END: usize = usize::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self { entries: Vec::new(), free_head: FREE_END, len: 0 }
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slots are occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its slot key. Recycles the most recently
    /// freed slot when one exists.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if self.free_head == FREE_END {
            self.entries.push(SlabEntry::Occupied(value));
            return self.entries.len() - 1;
        }
        let key = self.free_head;
        match std::mem::replace(&mut self.entries[key], SlabEntry::Occupied(value)) {
            SlabEntry::Vacant(next) => self.free_head = next,
            SlabEntry::Occupied(_) => unreachable!("free list points at an occupied slot"),
        }
        key
    }

    /// Removes and returns the value in `key`'s slot.
    ///
    /// # Panics
    ///
    /// Panics when `key` is not an occupied slot — slab keys are internal
    /// handles, so a dangling one is a caller bug, not recoverable state.
    pub fn remove(&mut self, key: usize) -> T {
        match std::mem::replace(&mut self.entries[key], SlabEntry::Vacant(self.free_head)) {
            SlabEntry::Occupied(value) => {
                self.free_head = key;
                self.len -= 1;
                value
            }
            SlabEntry::Vacant(next) => {
                self.entries[key] = SlabEntry::Vacant(next);
                panic!("slab slot {key} is vacant")
            }
        }
    }

    /// The value in `key`'s slot, if occupied.
    #[must_use]
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.entries.get(key) {
            Some(SlabEntry::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value in `key`'s slot, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.entries.get_mut(key) {
            Some(SlabEntry::Occupied(value)) => Some(value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ringbuf_wraps_and_grows() {
        let mut rb: RingBuf<u32> = RingBuf::with_capacity(2);
        for round in 0..10 {
            rb.push_back(round);
            rb.push_back(round + 100);
            assert_eq!(rb.pop_front(), Some(round));
            assert_eq!(rb.pop_front(), Some(round + 100));
        }
        for i in 0..9 {
            rb.push_back(i);
        }
        assert_eq!(rb.len(), 9);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn ringbuf_push_front_and_remove_match_vecdeque() {
        use std::collections::VecDeque;
        let mut rb: RingBuf<u32> = RingBuf::new();
        let mut vd: VecDeque<u32> = VecDeque::new();
        for i in 0..8 {
            rb.push_back(i);
            vd.push_back(i);
        }
        rb.push_front(99);
        vd.push_front(99);
        assert_eq!(rb.remove(4), vd.remove(4));
        assert_eq!(rb.remove(0), vd.remove(0));
        assert_eq!(rb.remove(100), None);
        assert_eq!(rb.iter().copied().collect::<Vec<_>>(), Vec::from(vd.clone()));
        rb.clear();
        assert!(rb.is_empty() && rb.front().is_none());
    }

    #[test]
    fn slab_recycles_lifo() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        let c = slab.insert(3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.remove(b), 2);
        assert_eq!(slab.remove(a), 1);
        assert_eq!(slab.insert(4), a, "last freed slot is reused first");
        assert_eq!(slab.insert(5), b);
        assert_eq!(slab.insert(6), 3);
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.get(c), Some(&3));
        assert_eq!(slab.get_mut(a).map(|v| std::mem::replace(v, 7)), Some(4));
        assert_eq!(slab.get(a), Some(&7));
        assert_eq!(slab.get(1000), None);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn slab_remove_of_vacant_slot_panics() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.remove(a);
    }
}
