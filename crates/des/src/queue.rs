//! Pending-event set: a time-ordered priority queue with stable FIFO
//! tie-breaking and lazy cancellation.
//!
//! Events scheduled for the same instant pop in the order they were pushed,
//! which keeps simulations deterministic regardless of heap internals.
//! Cancellation is O(1): cancelling takes the payload out of the event's
//! slab slot right away, leaving the emptied slot behind as the tombstone.
//! Pop reads that slot anyway to fetch the payload, so tombstone detection
//! costs the live path *nothing* — no hash probe, no side table. When
//! tombstones pile up past ~50% of the live entries the tiers are compacted
//! in one `retain` pass — pop order is unaffected because it is fully
//! determined by the total `(time, seq)` order, not by the tiers' internal
//! arrangement.
//!
//! Liveness bookkeeping exploits the same total order: entries leave the
//! tiers in strictly increasing `(time, seq)` key order, so a *watermark* of
//! the last fired key decides "has this handle's event already fired?"
//! without any per-event set membership, and the slab records each slot's
//! owning seq so a stale handle can never touch another event's payload.
//!
//! # Storage layout: SoA keys + payload slab
//!
//! The ordering structure holds only plain-`Copy` `HeapKey` records — the
//! `(time, seq)` sort key plus a `u32` slot index — in dense arrays
//! (structure-of-arrays relative to the payloads). Event payloads live in a
//! separate slab arena, indexed by that `u32` and recycled through a free
//! list when an event pops (fired *or* tombstoned) or is compacted away.
//! Reordering therefore moves 24-byte keys instead of whole
//! `(key, payload)` entries, payloads are written exactly once on push and
//! read exactly once on pop, and no per-event `Box` exists anywhere. The
//! globally monotone `seq` doubles as the slab's generation tag: every
//! pending key refers to exactly one slab slot, and slots are only recycled
//! after their key has left the pending set, so a stale index can never be
//! observed (debug builds additionally assert each slot's occupancy state).
//!
//! # Ordering structure: a three-tier ladder
//!
//! A single comparison-based heap pays O(log n) cache-missing sifts per
//! event at DES depths (10⁵+ pending). Instead, pending keys live in one
//! of three tiers, in the spirit of the ladder queue (Tang & Goh 2005):
//!
//! * `sorted` — a run sorted *descending* by `(time, seq)`; the global
//!   minimum sits at the back, so the common pop is `Vec::pop` — O(1),
//!   zero sifting.
//! * `young` — a small quaternary min-heap catching pushes that land
//!   *below* the refill boundary (near-future events scheduled while the
//!   current run drains). Usually a handful of entries, cache-resident.
//! * `far` — an unsorted overflow holding everything at or beyond the
//!   boundary. Pushes beyond the boundary — the overwhelmingly common
//!   case — are a bounds-checked append, O(1) with no comparisons.
//!
//! When `sorted` and `young` are both empty, a *refill* moves the ~⅛
//! smallest `far` keys (via `select_nth_unstable`, O(|far|)) into `sorted`
//! (one chunk sort), and the chunk maximum becomes the new boundary. Each
//! surviving `far` key is scanned O(1) times in expectation per refill
//! round, so the amortized per-event cost is O(1) comparisons on
//! sequential memory — versus O(log n) pointer-chasing sifts.
//!
//! Pop order is provably unchanged by all of this: `young` keys are
//! strictly below the boundary, `far` keys at or above it, and each pop
//! takes the minimum of `sorted`/`young` tops — so every pop removes the
//! global `(time, seq)`-minimum, and that total order (not the container
//! shape) is what the determinism contract promises. The property tests
//! below pin the full pop stream against a `BinaryHeap` oracle.

use crate::time::SimTime;

/// Compaction trigger: at least this many tombstones *and* tombstones
/// outnumber half the live entries. The floor keeps tiny queues (where a
/// rebuild would cost more than the sift waste) on the pure-lazy path,
/// and makes the rebuild cost amortized O(1) per cancellation.
const COMPACT_MIN_TOMBSTONES: usize = 64;

/// Smallest refill chunk: below this, selecting a fraction of `far` costs
/// more in fixed overhead (partition set-up, chunk sort dispatch) than it
/// saves, so the refill just takes everything that is left.
const REFILL_MIN_CHUNK: usize = 64;

/// A refill moves `|far| / REFILL_DIVISOR` keys (at least
/// [`REFILL_MIN_CHUNK`]) into the sorted run: each surviving `far` key is
/// rescanned a constant number of times in expectation across a drain, so
/// the amortized select cost per event is O(`REFILL_DIVISOR`) sequential
/// comparisons.
const REFILL_DIVISOR: usize = 4;

/// Per-queue instrumentation counters.
///
/// Plain (non-atomic) integers bumped inline on the hot path and handed
/// out once, when the queue drops: to the global [`ccs_telemetry`]
/// registry if a run switched it on, and as a kernel span to the trace
/// capture window if one is open on this thread. The kernel's inner loop
/// performs no atomic operations either way. Pushes need no counter of
/// their own: every push takes the next `seq`, so `next_seq` is the
/// scheduled count.
#[derive(Default)]
struct QueueStats {
    cancelled: u64,
    popped: u64,
    /// Cancelled entries skipped during `pop`/`peek_time` — a proxy for
    /// wasted heap sift work caused by lazy cancellation.
    tombstone_skips: u64,
    /// Heap compaction passes and the tombstones they reclaimed in bulk
    /// (reclaimed entries never show up in `tombstone_skips` — they were
    /// removed before costing any sift work).
    compactions: u64,
    tombstones_compacted: u64,
    depth_hwm: u64,
}

impl QueueStats {
    fn flush(&self, scheduled: u64) {
        if ccs_telemetry::enabled() {
            let t = ccs_telemetry::global();
            t.counter("des.events.scheduled").add(scheduled);
            t.counter("des.events.cancelled").add(self.cancelled);
            t.counter("des.events.processed").add(self.popped);
            t.counter("des.tombstones.skipped")
                .add(self.tombstone_skips);
            t.counter("des.queue.compactions").add(self.compactions);
            t.counter("des.tombstones.compacted")
                .add(self.tombstones_compacted);
            t.gauge("des.queue.depth_hwm").observe(self.depth_hwm);
        }
        ccs_telemetry::trace::record_kernel_span(ccs_telemetry::trace::KernelSpan {
            scheduled,
            processed: self.popped,
            cancelled: self.cancelled,
            tombstone_skips: self.tombstone_skips,
            depth_hwm: self.depth_hwm,
        });
    }
}

/// Handle to a scheduled event, usable to cancel it later.
///
/// Carries the event's full `(time, seq)` ordering key — so the queue can
/// compare it against the pop watermark — plus its slab slot, so `cancel`
/// reaches the payload directly. Cancelling a handle that already fired,
/// was already cancelled, or belongs to a cleared queue is a no-op
/// returning `false`: the slab records each slot's owning seq, so even a
/// handle whose slot has been recycled to a newer event is rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventHandle {
    time: SimTime,
    seq: u64,
    slot: u32,
}

// Identity is the queue-unique seq; the time field only carries the
// ordering key and adds nothing to it (and `f64` has no `Hash`).
impl std::hash::Hash for EventHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

/// Order-preserving bijection from `f64` (IEEE total order, the order
/// [`SimTime`]'s `Ord` implements via `total_cmp`) to `u64`: flip the sign
/// bit of non-negatives, flip everything of negatives. Comparing the
/// resulting bits as plain integers is *much* cheaper than `total_cmp` in
/// the sort/select hot loops — the compiler emits branchless integer
/// compares instead of float classification.
#[inline]
fn time_order_bits(t: SimTime) -> u64 {
    let b = t.as_secs().to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`time_order_bits`]: exact bit-for-bit roundtrip.
#[inline]
fn time_from_order_bits(m: u64) -> SimTime {
    let b = if m & 0x8000_0000_0000_0000 != 0 {
        m ^ 0x8000_0000_0000_0000
    } else {
        !m
    };
    SimTime::new(f64::from_bits(b))
}

/// The dense tier record: sort key plus slab slot, 24 bytes, `Copy`. The
/// time rides as its order-preserving bit pattern so every comparison —
/// sift, select, sort — is two integer compares.
#[derive(Clone, Copy)]
struct HeapKey {
    tbits: u64,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    #[inline]
    fn time(&self) -> SimTime {
        time_from_order_bits(self.tbits)
    }
}

/// `true` when `a` must pop before `b`: earlier time, then lower seq.
#[inline]
fn earlier(a: &HeapKey, b: &HeapKey) -> bool {
    (a.tbits, a.seq) < (b.tbits, b.seq)
}

/// A future-event list keyed by [`SimTime`].
///
/// ```
/// use ccs_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// let h = q.push(SimTime::new(1.0), "early");
/// q.cancel(h);
/// assert_eq!(q.pop(), Some((SimTime::new(2.0), "late")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    /// The current run, sorted *descending* by `(time, seq)`: the next key
    /// to pop is `sorted.last()`. Payloads are *not* here — only the `u32`
    /// slab index (same for `young` and `far`).
    sorted: Vec<HeapKey>,
    /// Quaternary min-heap of keys pushed *below* the refill boundary
    /// while the current run drains: children of slot `i` live at
    /// `4i + 1 ..= 4i + 4`, the minimum at slot 0. Sifts are hole-based
    /// (the moving key rides in a register, written back once).
    young: Vec<HeapKey>,
    /// Unsorted overflow: every key here is at or beyond `boundary`.
    /// Pushes land here by default — a plain append.
    far: Vec<HeapKey>,
    /// The largest key admitted into `sorted` by the last refill. Pushes
    /// strictly below it go to `young` (they may have to pop before the
    /// current run ends); everything else goes to `far`. `None` until the
    /// first refill (and after [`EventQueue::clear`]), when every push
    /// goes to `far`.
    boundary: Option<HeapKey>,
    /// Payload slab: `slots[key.slot]` holds `(owning seq, payload)` from
    /// push until the key leaves the tiers. A reserved slot with payload
    /// `None` *is* the tombstone of a cancelled event — `cancel` takes the
    /// payload out eagerly, and pop recognises the `None` it finds in the
    /// slot it was about to read anyway. The seq tag rejects stale handles
    /// whose slot has been recycled.
    slots: Vec<(u64, Option<T>)>,
    /// Recycled slab indices, reused LIFO so recently-touched slots (still
    /// cache-warm) are handed out first.
    free: Vec<u32>,
    /// Count of cancelled events whose emptied slots are still referenced
    /// by tier keys — the compaction trigger.
    tombstones: usize,
    /// Number of pending (non-cancelled) events: the tier total minus the
    /// tombstones. Maintained arithmetically so `len` is O(1).
    live: usize,
    /// `(time, seq)` key of the last *live* event popped — the causality
    /// frontier. Entries leave the tiers in strictly increasing key order,
    /// so an entry with `key ≤ watermark` is certainly gone, which is what
    /// lets `cancel` skip per-event bookkeeping; pushes below it are
    /// scheduling into the past and panic. Tombstone skips do not advance
    /// it: a cancelled future event never fires, so it bounds nothing.
    watermark: Option<(SimTime, u64)>,
    next_seq: u64,
    stats: QueueStats,
}

impl<T> Drop for EventQueue<T> {
    fn drop(&mut self) {
        self.stats.flush(self.next_seq);
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            sorted: Vec::new(),
            young: Vec::new(),
            far: Vec::new(),
            boundary: None,
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            live: 0,
            watermark: None,
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// True if the handle's event has already left the heap (fired, or
    /// skipped as a tombstone): its key is at or below the watermark.
    fn left_heap(&self, handle: &EventHandle) -> bool {
        match self.watermark {
            None => false,
            Some((t, s)) => (handle.time, handle.seq) <= (t, s),
        }
    }

    /// Stores a payload (tagged with its owning seq) in the slab, recycling
    /// a freed slot when possible.
    #[inline]
    fn slab_insert(&mut self, seq: u64, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].1.is_none(), "free slot occupied");
                self.slots[slot as usize] = (seq, Some(payload));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
                self.slots.push((seq, Some(payload)));
                slot
            }
        }
    }

    /// Takes whatever a popped key's slab slot holds and recycles the slot:
    /// `Some(payload)` for a live event, `None` for a tombstone (the
    /// payload left at cancel time).
    #[inline]
    fn slab_take(&mut self, key: &HeapKey) -> Option<T> {
        let slot = key.slot as usize;
        debug_assert_eq!(self.slots[slot].0, key.seq, "tier key / slab seq mismatch");
        let payload = self.slots[slot].1.take();
        self.free.push(key.slot);
        payload
    }

    /// Restores the `young` heap invariant upward from slot `i` after a
    /// push. Hole-based: the moving key rides in a register, written once.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.young[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if earlier(&key, &self.young[parent]) {
                self.young[i] = self.young[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.young[i] = key;
    }

    /// Restores the `young` heap invariant downward from slot `i` after a
    /// removal or in-place rebuild. Hole-based like [`EventQueue::sift_up`].
    fn sift_down(&mut self, mut i: usize) {
        let len = self.young.len();
        let key = self.young[i];
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in (first + 1)..(first + 4).min(len) {
                if earlier(&self.young[c], &self.young[best]) {
                    best = c;
                }
            }
            if earlier(&self.young[best], &key) {
                self.young[i] = self.young[best];
                i = best;
            } else {
                break;
            }
        }
        self.young[i] = key;
    }

    /// Removes and returns the minimum of the `young` heap.
    #[inline]
    fn pop_young(&mut self) -> HeapKey {
        let key = self.young.swap_remove(0);
        if !self.young.is_empty() {
            self.sift_down(0);
        }
        key
    }

    /// Moves the ~1/[`REFILL_DIVISOR`] smallest `far` keys into the (empty)
    /// sorted run and advances the boundary to the chunk maximum. Called
    /// only when both `sorted` and `young` are empty, so afterwards the run
    /// holds the next chunk of global minima.
    #[cold]
    fn refill(&mut self) {
        debug_assert!(self.sorted.is_empty() && self.young.is_empty());
        let n = self.far.len();
        let k = (n / REFILL_DIVISOR).max(REFILL_MIN_CHUNK).min(n);
        if k == 0 {
            return;
        }
        if k < n {
            // Partition: far[..k] become the k smallest keys (unordered).
            self.far
                .select_nth_unstable_by_key(k - 1, |e| (e.tbits, e.seq));
        }
        self.sorted.extend_from_slice(&self.far[..k]);
        // `far` is unsorted, so close the gap with one sequential copy.
        self.far.copy_within(k.., 0);
        self.far.truncate(n - k);
        // Descending: the global minimum ends up at the back, where
        // `Vec::pop` removes it for free. Integer keys keep the sort
        // branch-free in the comparison kernel.
        self.sorted
            .sort_unstable_by_key(|e| (std::cmp::Reverse(e.tbits), std::cmp::Reverse(e.seq)));
        self.boundary = Some(self.sorted[0]);
    }

    /// The `(time, seq)`-minimum pending key (tombstone or not) without
    /// removing it, refilling the sorted run first when needed.
    #[inline]
    fn peek_key(&mut self) -> Option<HeapKey> {
        if self.sorted.is_empty() && self.young.is_empty() {
            self.refill();
        }
        match (self.sorted.last(), self.young.first()) {
            (None, None) => None,
            (Some(s), None) => Some(*s),
            (None, Some(y)) => Some(*y),
            (Some(s), Some(y)) => Some(if earlier(s, y) { *s } else { *y }),
        }
    }

    /// Removes and returns the `(time, seq)`-minimum key, tombstone or not.
    /// The payload stays in the slab until the caller takes it.
    #[inline]
    fn pop_key(&mut self) -> Option<HeapKey> {
        if self.sorted.is_empty() && self.young.is_empty() {
            self.refill();
        }
        match (self.sorted.last(), self.young.first()) {
            (None, None) => None,
            (Some(_), None) => self.sorted.pop(),
            (None, Some(_)) => Some(self.pop_young()),
            (Some(s), Some(y)) => {
                if earlier(s, y) {
                    self.sorted.pop()
                } else {
                    Some(self.pop_young())
                }
            }
        }
    }

    /// Schedules `payload` at absolute time `time`. Returns a handle that can
    /// cancel the event as long as it has not yet been popped.
    ///
    /// Panics if `time` is earlier than the last popped event's time: this
    /// is a future-event list, and scheduling into the past would corrupt
    /// causality ([`crate::Simulation`] enforces the same rule against its
    /// clock). The watermark liveness test in `cancel` relies on it.
    pub fn push(&mut self, time: SimTime, payload: T) -> EventHandle {
        if let Some((wt, _)) = self.watermark {
            assert!(
                time >= wt,
                "cannot schedule into the past: last popped t={wt}, requested t={time}"
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slab_insert(seq, payload);
        let key = HeapKey {
            tbits: time_order_bits(time),
            seq,
            slot,
        };
        match &self.boundary {
            // Below the boundary the key may have to pop before the
            // current sorted run ends — park it in the small young heap.
            Some(b) if earlier(&key, b) => {
                self.young.push(key);
                self.sift_up(self.young.len() - 1);
            }
            // At/beyond the boundary (or before any refill): plain append.
            _ => self.far.push(key),
        }
        self.live += 1;
        self.stats.depth_hwm = self.stats.depth_hwm.max(self.live as u64);
        EventHandle { time, seq, slot }
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending (it will never be popped), `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if self.live == 0 || self.left_heap(&handle) {
            return false; // fired, skipped, or the queue was cleared
        }
        // The slab's seq tag is authoritative: a recycled slot (newer
        // owner), an already-emptied slot (second cancel), or an
        // out-of-range slot (cleared queue) all reject the handle.
        match self.slots.get_mut(handle.slot as usize) {
            Some((seq, payload)) if *seq == handle.seq && payload.is_some() => {
                // Drop the payload now; the emptied-but-reserved slot is
                // the tombstone its tier key will find on pop.
                *payload = None;
            }
            _ => return false,
        }
        self.live -= 1;
        self.tombstones += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        true
    }

    /// Drops tombstones from every tier once they exceed ~50% of the live
    /// entries, recycling their payload slots in the same pass. Pop order
    /// is invariant: `retain` preserves the sorted run's order, the young
    /// heap is re-heapified, `far` carries no order, and the boundary
    /// routing invariants only concern which keys are present, not how
    /// many. The `(time, seq)` order is total, so any container holding
    /// the same live set pops the same sequence no matter how it got there.
    fn maybe_compact(&mut self) {
        let tombstones = self.tombstones;
        if tombstones < COMPACT_MIN_TOMBSTONES || tombstones * 2 <= self.live {
            return;
        }
        // Payloads already left at cancel time; a reap just recycles the
        // reserved slot and drops the tier key.
        let slots = &self.slots;
        let free = &mut self.free;
        let mut reap = |k: &HeapKey| {
            if slots[k.slot as usize].1.is_none() {
                free.push(k.slot);
                false
            } else {
                true
            }
        };
        self.sorted.retain(&mut reap);
        self.young.retain(&mut reap);
        self.far.retain(&mut reap);
        self.tombstones = 0;
        // Floyd heapify over the young survivors: sift every internal node
        // down, deepest parents first.
        if self.young.len() > 1 {
            for i in (0..=(self.young.len() - 2) / 4).rev() {
                self.sift_down(i);
            }
        }
        self.stats.compactions += 1;
        self.stats.tombstones_compacted += tombstones as u64;
    }

    /// Number of cancelled entries still occupying tier slots (test hook;
    /// the hot path never needs it).
    #[cfg(test)]
    pub(crate) fn tombstone_count(&self) -> usize {
        debug_assert_eq!(
            self.tombstones,
            self.sorted.len() + self.young.len() + self.far.len() - self.live
        );
        self.tombstones
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(key) = self.pop_key() {
            if let Some(payload) = self.slab_take(&key) {
                let t = key.time();
                self.watermark = Some((t, key.seq));
                self.live -= 1;
                self.stats.popped += 1;
                return Some((t, payload));
            }
            // else: tombstone of a cancelled event — skip it.
            self.tombstones -= 1;
            self.stats.tombstone_skips += 1;
        }
        None
    }

    /// Pops the entire *run* of pending events sharing the earliest pending
    /// timestamp into `buf` (cleared first), in `(time, seq)` order, and
    /// returns that timestamp. Returns `None` — with `buf` empty — when no
    /// event is pending.
    ///
    /// This is the batched-dispatch primitive: one call drains a burst of
    /// simultaneous events in a single pass over the heap top, amortising
    /// the tombstone checks, and lets consumers do per-instant work (a PS
    /// share recompute, a capacity reclamation pass) once per run instead
    /// of once per event. `buf` is caller-pooled so steady-state dispatch
    /// never allocates.
    pub(crate) fn pop_batch(&mut self, buf: &mut Vec<T>) -> Option<SimTime> {
        buf.clear();
        let (t, first) = self.pop()?;
        buf.push(first);
        let tbits = time_order_bits(t);
        // `peek_key` refills the sorted run as needed, so a run of
        // simultaneous events spanning a refill boundary still drains in
        // one call.
        while let Some(top) = self.peek_key() {
            if top.tbits != tbits {
                break;
            }
            let key = self.pop_key().expect("peeked key pops");
            if let Some(payload) = self.slab_take(&key) {
                self.watermark = Some((t, key.seq));
                self.live -= 1;
                self.stats.popped += 1;
                buf.push(payload);
            } else {
                self.tombstones -= 1;
                self.stats.tombstone_skips += 1;
            }
        }
        Some(t)
    }

    /// Like `EventQueue::pop_batch`, but only if the earliest pending
    /// event fires at or before `horizon`; otherwise leaves the queue
    /// untouched (with `buf` cleared) and returns `None`. The run-drain
    /// primitive for `advance_to(t)`-style consumers.
    pub fn pop_batch_until(&mut self, horizon: SimTime, buf: &mut Vec<T>) -> Option<SimTime> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop_batch(buf),
            _ => {
                buf.clear();
                None
            }
        }
    }

    /// Time of the earliest pending (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain tombstones off the top so peek is accurate.
        while let Some(key) = self.peek_key() {
            if self.slots[key.slot as usize].1.is_some() {
                return Some(key.time());
            }
            let key = self.pop_key().expect("peeked entry pops");
            let tomb = self.slab_take(&key);
            debug_assert!(tomb.is_none(), "peeked tombstone grew a payload");
            self.tombstones -= 1;
            self.stats.tombstone_skips += 1;
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes all pending events. Outstanding handles are invalidated and
    /// must not be cancelled afterwards.
    pub fn clear(&mut self) {
        self.sorted.clear();
        self.young.clear();
        self.far.clear();
        self.boundary = None;
        self.slots.clear();
        self.free.clear();
        self.tombstones = 0;
        self.live = 0;
        self.watermark = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), 3);
        q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::new(1.0), ());
        q.pop();
        assert!(!q.cancel(h));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_cancellations() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..10).map(|i| q.push(SimTime::new(i as f64), i)).collect();
        assert_eq!(q.len(), 10);
        for h in handles.iter().take(5) {
            q.cancel(*h);
        }
        assert_eq!(q.len(), 5);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops so slots churn; the slab must never
        // grow beyond the peak number of co-pending events.
        for round in 0..50u32 {
            for i in 0..4 {
                q.push(SimTime::new(f64::from(round)), round * 4 + i);
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(
            q.slots.len() <= 8,
            "slab grew to {} slots for 4 co-pending events",
            q.slots.len()
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_drains_equal_time_runs() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), 10);
        q.push(SimTime::new(1.0), 11);
        q.push(SimTime::new(1.0), 12);
        q.push(SimTime::new(2.0), 20);
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf), Some(SimTime::new(1.0)));
        assert_eq!(buf, vec![10, 11, 12], "FIFO within the run");
        assert_eq!(q.pop_batch(&mut buf), Some(SimTime::new(2.0)));
        assert_eq!(buf, vec![20]);
        assert_eq!(q.pop_batch(&mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_batch_skips_cancelled_members_of_the_run() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::new(5.0), 'a');
        q.push(SimTime::new(5.0), 'b');
        let c = q.push(SimTime::new(5.0), 'c');
        q.push(SimTime::new(5.0), 'd');
        q.cancel(a);
        q.cancel(c);
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf), Some(SimTime::new(5.0)));
        assert_eq!(buf, vec!['b', 'd']);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), 3);
        q.push(SimTime::new(7.0), 7);
        let mut buf = vec![99];
        assert_eq!(q.pop_batch_until(SimTime::new(2.0), &mut buf), None);
        assert!(buf.is_empty(), "miss clears the pooled buffer");
        assert_eq!(q.len(), 2, "queue untouched below the horizon");
        // Inclusive horizon: an event exactly at `t` is part of advance_to(t).
        assert_eq!(
            q.pop_batch_until(SimTime::new(3.0), &mut buf),
            Some(SimTime::new(3.0))
        );
        assert_eq!(buf, vec![3]);
        assert_eq!(q.len(), 1);
    }

    /// Inline-payload max-heap entry for the oracle below (the shape the
    /// production queue used before the SoA/slab split).
    struct Entry<T> {
        time: SimTime,
        seq: u64,
        payload: T,
    }

    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so earliest time (then
            // lowest seq) is popped first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Never-compacting, inline-payload replica of the queue's lazy-
    /// cancellation scheme on a `std::collections::BinaryHeap` — the naive
    /// reference oracle the property tests compare against, so one run
    /// checks that neither compaction, the SoA key/payload split, nor slot
    /// recycling perturbs the `(time, seq, payload)` pop stream.
    struct UncompactedQueue {
        heap: BinaryHeap<Entry<u32>>,
        pending: std::collections::HashSet<u64>,
        next_seq: u64,
    }

    impl UncompactedQueue {
        fn new() -> Self {
            UncompactedQueue {
                heap: BinaryHeap::new(),
                pending: std::collections::HashSet::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, payload });
            self.pending.insert(seq);
            seq
        }
        fn cancel(&mut self, seq: u64) {
            self.pending.remove(&seq);
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            while let Some(e) = self.heap.pop() {
                if self.pending.remove(&e.seq) {
                    return Some((e.time, e.seq, e.payload));
                }
            }
            None
        }
    }

    #[test]
    fn soa_queue_pops_identical_to_reference_oracle_on_random_streams() {
        use crate::rng::SimRng;
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0xC0FFEE ^ seed);
            let mut q = EventQueue::new();
            let mut oracle = UncompactedQueue::new();
            let mut live: Vec<EventHandle> = Vec::new();
            let mut live_oracle: Vec<u64> = Vec::new();
            // Schedule times never regress below the pop frontier — the
            // queue's no-scheduling-into-the-past contract. Coarse time
            // quantisation makes equal-time ties (and thus non-trivial
            // batch runs) common.
            let mut frontier = 0.0;
            let mut max_pushed = 0.0_f64;
            for i in 0..4000u32 {
                let t = SimTime::new(rng.uniform(frontier, frontier + 1e3).floor());
                max_pushed = max_pushed.max(t.as_secs());
                live.push(q.push(t, i));
                live_oracle.push(oracle.push(t, i));
                // Cancel aggressively so the >64-tombstone compaction path
                // actually triggers (asserted below).
                if rng.bernoulli(0.6) && !live.is_empty() {
                    let k = rng.range_usize(0, live.len());
                    q.cancel(live.swap_remove(k));
                    oracle.cancel(live_oracle.swap_remove(k));
                }
                // Interleave pops so compaction interacts with draining.
                if rng.bernoulli(0.2) {
                    let a = q.pop();
                    let b = oracle.pop();
                    // Bit-for-bit (time, payload) agreement; the handle seq
                    // is checked via the oracle's seq on the same stream.
                    assert_eq!(a, b.map(|(t, _, v)| (t, v)));
                    match a {
                        Some((t, _)) => frontier = t.as_secs(),
                        // Queue drained: resume scheduling above everything
                        // that has already fired.
                        None => frontier = max_pushed,
                    }
                }
            }
            loop {
                let a = q.pop();
                let b = oracle.pop();
                assert_eq!(a, b.map(|(t, _, v)| (t, v)));
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// The batch API must yield exactly the sequential pop stream, chunked
    /// at timestamp boundaries — under the same adversarial push/cancel
    /// interleavings (compaction included) as the pop oracle test.
    #[test]
    fn pop_batch_equals_sequential_pops_on_random_streams() {
        use crate::rng::SimRng;
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from(0xBA7C4 ^ seed);
            let mut batched = EventQueue::new();
            let mut sequential = EventQueue::new();
            let mut live: Vec<(EventHandle, EventHandle)> = Vec::new();
            let mut frontier = 0.0;
            let mut max_pushed = 0.0_f64;
            let mut buf = Vec::new();
            for i in 0..3000u32 {
                // Coarse times force multi-event runs.
                let t = SimTime::new(rng.uniform(frontier, frontier + 50.0).floor());
                max_pushed = max_pushed.max(t.as_secs());
                live.push((batched.push(t, i), sequential.push(t, i)));
                if rng.bernoulli(0.5) && !live.is_empty() {
                    let k = rng.range_usize(0, live.len());
                    let (hb, hs) = live.swap_remove(k);
                    assert_eq!(batched.cancel(hb), sequential.cancel(hs));
                }
                if rng.bernoulli(0.15) {
                    match batched.pop_batch(&mut buf) {
                        Some(t) => {
                            frontier = t.as_secs();
                            for v in &buf {
                                assert_eq!(sequential.pop(), Some((t, *v)));
                            }
                            // The run ends exactly where the timestamp changes.
                            assert_ne!(sequential.peek_time(), Some(t));
                        }
                        None => {
                            assert_eq!(sequential.pop(), None);
                            frontier = max_pushed;
                        }
                    }
                }
            }
            while let Some(t) = batched.pop_batch(&mut buf) {
                for v in &buf {
                    assert_eq!(sequential.pop(), Some((t, *v)));
                }
            }
            assert_eq!(sequential.pop(), None);
        }
    }

    /// Wasted sift work must be visible whether a tombstone is drained by
    /// `pop` or by `peek_time` — both paths charge `tombstone_skips`.
    #[test]
    fn tombstone_skips_counted_on_both_pop_and_peek() {
        let mut q = EventQueue::new();
        let h1 = q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(2.0), 2);
        q.cancel(h1);
        assert_eq!(q.stats.tombstone_skips, 0);
        // Peek drains the cancelled head and charges the skip.
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
        assert_eq!(q.stats.tombstone_skips, 1);
        let h3 = q.push(SimTime::new(1.5), 3);
        q.cancel(h3);
        // Pop skips the fresh tombstone on its way to the live event.
        assert_eq!(q.pop(), Some((SimTime::new(2.0), 2)));
        assert_eq!(q.stats.tombstone_skips, 2);
        assert_eq!(q.stats.cancelled, 2);
    }

    #[test]
    fn compaction_bounds_heap_slack() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..10_000)
            .map(|i| q.push(SimTime::new(f64::from(i)), i))
            .collect();
        // Cancel everything but the last 100 events.
        for h in &handles[..9_900] {
            q.cancel(*h);
        }
        assert_eq!(q.len(), 100);
        // Lazy cancellation alone would leave 9 900 tombstones in the
        // heap; compaction must have kept the slack below the trigger.
        assert!(
            q.tombstone_count() <= COMPACT_MIN_TOMBSTONES.max(q.len()),
            "tombstones {} not compacted",
            q.tombstone_count()
        );
        // Compaction recycles the tombstones' payload slots: the free list
        // must cover everything the heap no longer references.
        assert_eq!(
            q.slots.len(),
            q.free.len() + q.sorted.len() + q.young.len() + q.far.len()
        );
        let survivors: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(survivors, (9_900..10_000).collect::<Vec<_>>());
    }
}
