//! Calendar (bucket) queue for compute-completion events.
//!
//! The engine's compute completions are overwhelmingly near-future: a
//! compute chunk spans seconds to minutes, so events cluster just ahead
//! of the clock. A calendar queue exploits that — a ring of fixed-width
//! time buckets holds the near window, pushes and pops touch one bucket,
//! and only events beyond the window fall back to a [`BinaryHeap`]. Pop
//! order is **exactly** the heap's order — ascending `(at, id)` with the
//! `total_cmp` float comparison — so swapping the engine's event queue
//! changes no simulated result (the regression tests below pin this,
//! ties included).
//!
//! Invariants:
//!
//! * every near event sits in bucket `max(floor(at/WIDTH), cur_at_push)`
//!   — past-due events are clamped onto the cursor bucket, which is
//!   scanned first;
//! * the cursor `cur` only moves forward and never skips a non-empty
//!   bucket (except when the whole ring is empty and it jumps to the far
//!   heap's minimum);
//! * far events were beyond the window when pushed and migrate into the
//!   ring at most once, as the advancing cursor pulls the window over
//!   them.
//!
//! Together these give: the first non-empty bucket at/after `cur`
//! contains the global minimum, and the far heap's minimum is only the
//! global minimum when the ring is empty.

use iosched_model::{AppId, Time};
use std::collections::BinaryHeap;

/// Ring size; with [`WIDTH`] this spans a 16 384 s near window.
const BUCKETS: usize = 256;
/// Bucket width in seconds, sized for compute chunks of seconds–minutes.
const WIDTH: f64 = 64.0;

/// Compute-completion entry, ordered so `BinaryHeap::peek` yields the
/// *earliest* completion (ties broken by `AppId`, which is stable under
/// roster permutation and slot reuse — the slot index `idx` is only the
/// access path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComputeEvent {
    pub(crate) at: Time,
    pub(crate) id: AppId,
    pub(crate) idx: usize,
}

impl PartialEq for ComputeEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ComputeEvent {}

impl PartialOrd for ComputeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ComputeEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap surfaces the minimum time.
        other
            .at
            .get()
            .total_cmp(&self.at.get())
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Earliest-first key, written once so the in-bucket scan and the tests
/// agree with the reversed heap `Ord` above.
fn earlier(a: &ComputeEvent, b: &ComputeEvent) -> bool {
    a.at.get()
        .total_cmp(&b.at.get())
        .then_with(|| a.id.cmp(&b.id))
        .is_lt()
}

/// Bucket-queue of [`ComputeEvent`]s; see the module docs for the
/// invariants that make its pop order identical to a binary heap's.
pub(crate) struct CalendarQueue {
    /// The near window: `BUCKETS` unordered buckets addressed by
    /// `absolute_bucket % BUCKETS`.
    near: Vec<Vec<ComputeEvent>>,
    /// Events past the window at push time.
    far: BinaryHeap<ComputeEvent>,
    /// Absolute index of the window's first bucket.
    cur: u64,
    len: usize,
    /// Memoized [`CalendarQueue::peek_min_at`] answer, dropped by any
    /// mutation. The engine peeks every event but pushes/pops only on
    /// phase transitions, so most peeks re-read an unchanged minimum —
    /// the memo skips the cursor settle and in-bucket scan for those.
    cached_min: Option<Option<Time>>,
}

fn bucket_of(at: Time) -> u64 {
    // Event times are finite and non-negative (`now + work`); the `as`
    // cast saturates rather than wrapping if that ever changes. Every
    // event at or past `WIDTH · 2^64` s (≈1.18e21 s) saturates into the
    // last bucket, `u64::MAX`.
    (at.as_secs() / WIDTH) as u64
}

/// Whether absolute bucket `b ≥ cur` lies inside the ring window that
/// starts at `cur`. Written as a difference: `cur + BUCKETS` wraps once
/// the cursor reaches the saturated buckets near `u64::MAX`, which would
/// strand far events outside the ring and spin `settle` forever.
fn in_window(b: u64, cur: u64) -> bool {
    b - cur < BUCKETS as u64
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        Self {
            near: (0..BUCKETS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            cur: 0,
            len: 0,
            cached_min: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, ev: ComputeEvent) {
        self.cached_min = None;
        let b = bucket_of(ev.at).max(self.cur);
        if in_window(b, self.cur) {
            self.near[(b % BUCKETS as u64) as usize].push(ev);
        } else {
            self.far.push(ev);
        }
        self.len += 1;
    }

    /// Move the cursor to the bucket holding the minimum. Returns `false`
    /// iff the queue is empty.
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            // Pull far events the window now covers into the ring.
            while let Some(f) = self.far.peek() {
                let b = bucket_of(f.at).max(self.cur);
                if in_window(b, self.cur) {
                    let ev = self.far.pop().expect("peeked");
                    self.near[(b % BUCKETS as u64) as usize].push(ev);
                } else {
                    break;
                }
            }
            // Advance past empty buckets (at most one full revolution).
            let mut stepped = 0;
            while stepped < BUCKETS && self.near[(self.cur % BUCKETS as u64) as usize].is_empty() {
                self.cur += 1;
                stepped += 1;
            }
            if !self.near[(self.cur % BUCKETS as u64) as usize].is_empty() {
                return true;
            }
            // Ring drained: jump to the far heap's minimum and migrate.
            let f = self.far.peek().expect("len > 0 with an empty ring");
            self.cur = bucket_of(f.at);
        }
    }

    /// Earliest event time without removing it. Takes `&mut self`: the
    /// cursor may advance (a pure index move — no event is touched).
    pub(crate) fn peek_min_at(&mut self) -> Option<Time> {
        if let Some(memo) = self.cached_min {
            return memo;
        }
        let answer = if self.settle() {
            let bucket = &self.near[(self.cur % BUCKETS as u64) as usize];
            let mut best = &bucket[0];
            for ev in &bucket[1..] {
                if earlier(ev, best) {
                    best = ev;
                }
            }
            Some(best.at)
        } else {
            None
        };
        self.cached_min = Some(answer);
        answer
    }

    /// Remove and return the earliest event (ties by `AppId`).
    pub(crate) fn pop_min(&mut self) -> Option<ComputeEvent> {
        self.cached_min = None;
        if !self.settle() {
            return None;
        }
        let bucket = &mut self.near[(self.cur % BUCKETS as u64) as usize];
        let mut best = 0;
        for k in 1..bucket.len() {
            if earlier(&bucket[k], &bucket[best]) {
                best = k;
            }
        }
        let ev = bucket.swap_remove(best);
        self.len -= 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, id: usize) -> ComputeEvent {
        ComputeEvent {
            at: Time::secs(at),
            id: AppId(id),
            idx: id,
        }
    }

    fn drain(q: &mut CalendarQueue) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_min() {
            out.push((e.at.as_secs(), e.id.0));
        }
        out
    }

    /// The load-bearing pin: pop order must equal the binary heap's,
    /// including `at` ties (broken by ascending `AppId`) — the engine's
    /// simulated results are bit-identical only because of this.
    #[test]
    fn pop_order_matches_binary_heap_with_ties() {
        let events = [
            ev(10.0, 3),
            ev(10.0, 1),
            ev(10.0, 2),
            ev(5.0, 7),
            ev(70.0, 0),
            ev(70.0, 9),
            ev(5.0, 4),
            ev(20_000.0, 5), // beyond the near window
            ev(20_000.0, 6), // far tie
            // Past `WIDTH · 2^64` s: these saturate into the last bucket.
            ev(2e21, 10),
            ev(f64::MAX, 11),
            ev(1e300, 12),
            ev(2e21, 8), // saturated tie
            ev(f64::MAX, 13),
        ];
        let mut heap = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        for e in events {
            heap.push(e);
            cal.push(e);
        }
        let mut want = Vec::new();
        while let Some(e) = heap.pop() {
            want.push((e.at.as_secs(), e.id.0));
        }
        assert_eq!(drain(&mut cal), want);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Deterministic LCG so the test needs no RNG dependency.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut heap = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        let mut popped_heap = Vec::new();
        let mut popped_cal = Vec::new();
        for round in 0..2_000usize {
            let r = next();
            // Bias toward pushes so the queue grows, with occasional
            // bursts of pops; times span several windows and collide
            // often (quantized to 0.5 s).
            if r % 3 != 0 || heap.is_empty() {
                // One push in 64 lands past `WIDTH · 2^64` s, in the
                // saturated last bucket; the final drain walks the
                // cursor onto it.
                let at = match next() % 64 {
                    0 => [2e21, 1e300, f64::MAX][round % 3],
                    _ => (next() % 80_000) as f64 / 2.0,
                };
                let e = ev(at, round);
                heap.push(e);
                cal.push(e);
            } else {
                let h = heap.pop().expect("nonempty");
                let c = cal.pop_min().expect("same length");
                popped_heap.push((h.at.as_secs(), h.id.0));
                popped_cal.push((c.at.as_secs(), c.id.0));
            }
        }
        while let Some(h) = heap.pop() {
            let c = cal.pop_min().expect("same length");
            popped_heap.push((h.at.as_secs(), h.id.0));
            popped_cal.push((c.at.as_secs(), c.id.0));
        }
        assert!(cal.is_empty());
        assert_eq!(popped_cal, popped_heap);
    }

    #[test]
    fn past_due_events_clamp_onto_the_cursor() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(10_000.0, 0));
        assert_eq!(cal.pop_min().unwrap().id, AppId(0)); // cursor jumps ahead
        cal.push(ev(1.0, 1)); // in the past relative to the cursor
        cal.push(ev(10_500.0, 2));
        assert_eq!(
            drain(&mut cal),
            vec![(1.0, 1), (10_500.0, 2)],
            "clamped event must still pop first"
        );
        // The same at the saturated last bucket: the cursor jumps onto
        // `u64::MAX`, and later pushes clamp onto it.
        cal.push(ev(f64::MAX, 3));
        assert_eq!(cal.pop_min().unwrap().id, AppId(3));
        cal.push(ev(2e21, 4));
        cal.push(ev(5.0, 5));
        assert_eq!(drain(&mut cal), vec![(5.0, 5), (2e21, 4)]);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut cal = CalendarQueue::new();
        for e in [ev(3.0, 2), ev(3.0, 0), ev(90_000.0, 1)] {
            cal.push(e);
        }
        while let Some(at) = cal.peek_min_at() {
            let e = cal.pop_min().unwrap();
            assert_eq!(e.at, at);
        }
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut cal = CalendarQueue::new();
        assert!(cal.is_empty());
        assert!(cal.peek_min_at().is_none());
        assert!(cal.pop_min().is_none());
    }
}
