//! A generational slab arena for in-flight simulation state.
//!
//! The cycle-accurate engines used to keep every in-flight transaction in
//! per-component heap queues (`VecDeque<T>` per DMA, per NI, …), so
//! sustained high-injection sweeps churned the allocator on every
//! injection and retirement. [`Slab`] replaces that with one arena per
//! record type: a transaction is **allocated once at injection**, flows
//! through the components as a copyable [`Handle`] (index + generation),
//! and is **freed on retirement** — the backing storage is reused through
//! a free list and never shrinks, so the steady state performs zero heap
//! traffic.
//!
//! Handles are *generational*: every slot carries a generation counter
//! that is bumped when the slot is freed, so a stale handle (kept across
//! its record's retirement) can never silently alias the slot's next
//! tenant — [`Slab::get`] returns `None` and [`Slab::free`] panics.
//!
//! [`HandleQueue`] provides the FIFO ordering the old `VecDeque`s gave,
//! *intrusively*: the `next` links live beside the slab entries, so a
//! queue is just a `(head, tail, len)` triple and push/pop touch only the
//! arena — no per-queue allocations, ever. A record may sit in **at most
//! one** queue at a time (single link per entry), and must not be freed
//! while still linked.
//!
//! # Examples
//!
//! ```
//! use simkit::slab::{HandleQueue, Slab};
//!
//! let mut slab: Slab<&str> = Slab::new();
//! let mut queue: HandleQueue<&str> = HandleQueue::new();
//! let a = slab.alloc("first");
//! let b = slab.alloc("second");
//! queue.push_back(&mut slab, a);
//! queue.push_back(&mut slab, b);
//! let h = queue.pop_front(&mut slab).unwrap();
//! assert_eq!(slab[h], "first");
//! assert_eq!(slab.free(h), "first");
//! assert!(slab.get(h).is_none(), "stale handle rejected");
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Sentinel index for "no entry" in intrusive links and queue ends.
const NIL: u32 = u32::MAX;

/// A typed, copyable reference into a [`Slab`]: slot index plus the
/// generation the slot had when this handle was issued.
///
/// Handles are deliberately not constructible by callers — the only way to
/// obtain one is [`Slab::alloc`], and it stays valid exactly until the
/// matching [`Slab::free`].
pub struct Handle<T> {
    idx: u32,
    generation: u32,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: `T` is only a phantom, so no bounds on it are needed.
impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.generation == other.generation
    }
}
impl<T> Eq for Handle<T> {}
impl<T> Hash for Handle<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
        self.generation.hash(state);
    }
}
impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle({}v{})", self.idx, self.generation)
    }
}

impl<T> Handle<T> {
    /// The slot index this handle points at — read-only, for building
    /// index-keyed side tables (snapshot canonicalization maps handles to
    /// position-independent record numbers through this). It does not
    /// allow forging handles; the only constructor remains
    /// [`Slab::alloc`].
    #[must_use]
    pub fn index(&self) -> usize {
        self.idx as usize
    }
}

/// Allocation telemetry of one [`Slab`] (or, via [`SlabStats::merge`],
/// several): how much in-flight state exists now, the most that ever
/// existed, and how many allocations were served in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Records currently live.
    pub live: u64,
    /// Most records ever live at once (arena footprint high-water mark).
    pub high_water: u64,
    /// Total allocations served since construction.
    pub allocs: u64,
}

impl SlabStats {
    /// Combines the telemetry of several arenas (fields add; the summed
    /// high-water is an upper bound on the true joint peak).
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            live: self.live + other.live,
            high_water: self.high_water + other.high_water,
            allocs: self.allocs + other.allocs,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Bumped on every free; a handle is live iff its generation matches.
    generation: u32,
    /// Intrusive link: next entry in whatever [`HandleQueue`] holds this
    /// record (`NIL` when unlinked or last).
    next: u32,
    /// Whether the record currently sits in a [`HandleQueue`] — backs the
    /// debug assertions on the single-queue / no-free-while-linked
    /// invariants.
    linked: bool,
    /// `Some` while the slot is occupied.
    val: Option<T>,
}

/// A generational slab arena: O(1) alloc/free with index reuse through a
/// free list, stable handles, and allocation telemetry.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Indices of free slots (LIFO: the hottest slot is reused first).
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    allocs: u64,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            allocs: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` records before the
    /// backing vector reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Records currently live.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no record is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Most records ever live at once.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total allocations served since construction.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Current telemetry snapshot.
    #[must_use]
    pub fn stats(&self) -> SlabStats {
        SlabStats {
            live: self.live as u64,
            high_water: self.high_water as u64,
            allocs: self.allocs,
        }
    }

    /// Whether `handle` refers to a live record.
    #[must_use]
    pub fn contains(&self, handle: Handle<T>) -> bool {
        self.entries
            .get(handle.idx as usize)
            .is_some_and(|e| e.generation == handle.generation && e.val.is_some())
    }

    /// Allocates a record, reusing a freed slot when one exists.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` slots (far beyond any
    /// simulated NoC's in-flight state).
    pub fn alloc(&mut self, val: T) -> Handle<T> {
        self.allocs += 1;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                debug_assert!(e.val.is_none(), "free list held a live slot");
                e.next = NIL;
                e.linked = false;
                e.val = Some(val);
                idx
            }
            None => {
                let idx = u32::try_from(self.entries.len()).expect("slab index space");
                assert!(idx < NIL, "slab exhausted its index space");
                self.entries.push(Entry {
                    generation: 0,
                    next: NIL,
                    linked: false,
                    val: Some(val),
                });
                idx
            }
        };
        Handle {
            idx,
            generation: self.entries[idx as usize].generation,
            _marker: PhantomData,
        }
    }

    /// Frees a live record and returns it; its slot becomes reusable and
    /// every outstanding handle to it goes stale.
    ///
    /// The record must not still be linked in a [`HandleQueue`].
    ///
    /// # Panics
    ///
    /// Panics on a stale (already freed or never issued) handle — using
    /// one is always a simulation-logic bug.
    pub fn free(&mut self, handle: Handle<T>) -> T {
        let e = self
            .entries
            .get_mut(handle.idx as usize)
            .filter(|e| e.generation == handle.generation)
            .expect("free of a stale slab handle");
        debug_assert!(!e.linked, "freed a record still linked in a queue");
        let val = e.val.take().expect("free of a stale slab handle");
        e.generation = e.generation.wrapping_add(1);
        e.next = NIL;
        self.free.push(handle.idx);
        self.live -= 1;
        val
    }

    /// Shared access to a live record; `None` for stale handles.
    #[must_use]
    pub fn get(&self, handle: Handle<T>) -> Option<&T> {
        self.entries
            .get(handle.idx as usize)
            .filter(|e| e.generation == handle.generation)
            .and_then(|e| e.val.as_ref())
    }

    /// Mutable access to a live record; `None` for stale handles.
    pub fn get_mut(&mut self, handle: Handle<T>) -> Option<&mut T> {
        self.entries
            .get_mut(handle.idx as usize)
            .filter(|e| e.generation == handle.generation)
            .and_then(|e| e.val.as_mut())
    }

    /// Iterates over the live records in ascending slot order, yielding
    /// each record's handle alongside it. Engines never step state in
    /// slab order (queues and component fields carry the ordering), so
    /// this is a *serialization* aid: snapshot encoders use it to
    /// enumerate in-flight records before canonical re-ordering.
    pub fn iter(&self) -> impl Iterator<Item = (Handle<T>, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.val.as_ref().map(|v| {
                (
                    Handle {
                        idx: i as u32,
                        generation: e.generation,
                        _marker: PhantomData,
                    },
                    v,
                )
            })
        })
    }

    /// Rebuilds a handle for the entry at `idx`, which must be live (queue
    /// internals: links store bare indices; liveness is an invariant of
    /// queue membership).
    fn handle_at(&self, idx: u32) -> Handle<T> {
        debug_assert!(
            self.entries[idx as usize].val.is_some(),
            "queue linked a freed slot"
        );
        Handle {
            idx,
            generation: self.entries[idx as usize].generation,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::ops::Index<Handle<T>> for Slab<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics on a stale handle.
    fn index(&self, handle: Handle<T>) -> &T {
        self.get(handle).expect("indexed with a stale slab handle")
    }
}

impl<T> std::ops::IndexMut<Handle<T>> for Slab<T> {
    fn index_mut(&mut self, handle: Handle<T>) -> &mut T {
        self.get_mut(handle)
            .expect("indexed with a stale slab handle")
    }
}

/// An intrusive FIFO over records of one [`Slab`]: the links live beside
/// the slab entries, so the queue itself is three words and never
/// allocates.
///
/// Invariants (the caller's responsibility, asserted in debug builds):
/// a record is linked into at most one queue at a time, and is not freed
/// while linked.
pub struct HandleQueue<T> {
    head: u32,
    tail: u32,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for HandleQueue<T> {
    fn clone(&self) -> Self {
        Self { ..*self }
    }
}
impl<T> fmt::Debug for HandleQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleQueue")
            .field("len", &self.len)
            .finish()
    }
}

impl<T> HandleQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Queued records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a live record at the tail.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is stale; debug builds also panic when the
    /// record is already linked in a queue (single-link invariant).
    pub fn push_back(&mut self, slab: &mut Slab<T>, handle: Handle<T>) {
        assert!(slab.contains(handle), "queued a stale slab handle");
        let entry = &mut slab.entries[handle.idx as usize];
        debug_assert!(!entry.linked, "record already linked in a queue");
        entry.next = NIL;
        entry.linked = true;
        if self.tail == NIL {
            self.head = handle.idx;
        } else {
            slab.entries[self.tail as usize].next = handle.idx;
        }
        self.tail = handle.idx;
        self.len += 1;
    }

    /// The head record without removing it.
    #[must_use]
    pub fn front(&self, slab: &Slab<T>) -> Option<Handle<T>> {
        if self.head == NIL {
            None
        } else {
            Some(slab.handle_at(self.head))
        }
    }

    /// Walks the queued records head-to-tail without removing them —
    /// the read-only view snapshot encoders serialize queue order from.
    pub fn iter<'a>(&'a self, slab: &'a Slab<T>) -> impl Iterator<Item = Handle<T>> + 'a {
        let mut at = self.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let h = slab.handle_at(at);
            at = slab.entries[at as usize].next;
            Some(h)
        })
    }

    /// Removes and returns the head record (still live in the slab; the
    /// caller frees it when the record actually retires).
    pub fn pop_front(&mut self, slab: &mut Slab<T>) -> Option<Handle<T>> {
        if self.head == NIL {
            return None;
        }
        let handle = slab.handle_at(self.head);
        let entry = &mut slab.entries[self.head as usize];
        entry.linked = false;
        self.head = entry.next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(handle)
    }
}

impl<T> Default for HandleQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse_cycles_slots() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(1);
        let b = s.alloc(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.free(a), 1);
        let c = s.alloc(3);
        // The freed slot is reused, but under a new generation.
        assert_ne!(a, c);
        assert_eq!(s[b], 2);
        assert_eq!(s[c], 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.high_water(), 2);
        assert_eq!(s.allocs(), 3);
    }

    #[test]
    fn stale_handles_are_rejected() {
        let mut s: Slab<&str> = Slab::new();
        let h = s.alloc("x");
        s.free(h);
        assert!(s.get(h).is_none());
        assert!(s.get_mut(h).is_none());
        assert!(!s.contains(h));
        // Even after the slot is reused.
        let _ = s.alloc("y");
        assert!(s.get(h).is_none());
    }

    #[test]
    #[should_panic(expected = "stale slab handle")]
    fn double_free_panics() {
        let mut s: Slab<u8> = Slab::new();
        let h = s.alloc(0);
        s.free(h);
        s.free(h);
    }

    #[test]
    #[should_panic(expected = "stale slab handle")]
    fn index_with_stale_handle_panics() {
        let mut s: Slab<u8> = Slab::new();
        let h = s.alloc(0);
        s.free(h);
        let _ = s[h];
    }

    #[test]
    fn queue_is_fifo_and_intrusive() {
        let mut s: Slab<u32> = Slab::new();
        let mut q: HandleQueue<u32> = HandleQueue::new();
        let hs: Vec<_> = (0..5).map(|i| s.alloc(i)).collect();
        for &h in &hs {
            q.push_back(&mut s, h);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.front(&s), Some(hs[0]));
        for &h in &hs {
            assert_eq!(q.pop_front(&mut s), Some(h));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(&mut s), None);
        // Every record is still live; the queue does not own them.
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn queue_interleaved_push_pop() {
        let mut s: Slab<u32> = Slab::new();
        let mut q: HandleQueue<u32> = HandleQueue::new();
        let a = s.alloc(1);
        let b = s.alloc(2);
        q.push_back(&mut s, a);
        q.push_back(&mut s, b);
        assert_eq!(q.pop_front(&mut s).map(|h| s[h]), Some(1));
        let c = s.alloc(3);
        q.push_back(&mut s, c);
        assert_eq!(q.pop_front(&mut s).map(|h| s[h]), Some(2));
        assert_eq!(q.pop_front(&mut s).map(|h| s[h]), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a: Slab<u8> = Slab::new();
        let mut b: Slab<u8> = Slab::new();
        let h = a.alloc(0);
        a.free(h);
        let _ = a.alloc(1);
        let _ = b.alloc(2);
        let merged = a.stats().merge(b.stats());
        assert_eq!(
            merged,
            SlabStats {
                live: 2,
                high_water: 2,
                allocs: 3
            }
        );
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(10);
        let b = s.alloc(20);
        let c = s.alloc(30);
        s.free(b);
        let seen: Vec<_> = s.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(seen, vec![(a, 10), (c, 30)]);
        // Handles from iter() are usable.
        assert_eq!(s[seen[1].0], 30);
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 2);
    }

    #[test]
    fn queue_iter_walks_head_to_tail_without_removing() {
        let mut s: Slab<u32> = Slab::new();
        let mut q: HandleQueue<u32> = HandleQueue::new();
        let hs: Vec<_> = (0..4).map(|i| s.alloc(i)).collect();
        for &h in &hs {
            q.push_back(&mut s, h);
        }
        assert_eq!(q.iter(&s).collect::<Vec<_>>(), hs);
        assert_eq!(q.len(), 4, "iteration must not drain");
        assert_eq!(q.pop_front(&mut s), Some(hs[0]));
        assert_eq!(q.iter(&s).collect::<Vec<_>>(), hs[1..]);
    }

    #[test]
    fn with_capacity_preallocates() {
        let s: Slab<u64> = Slab::with_capacity(16);
        assert!(s.is_empty());
        assert_eq!(s.high_water(), 0);
    }
}
