//! Fixed-capacity event ring buffers (flight recorders).
//!
//! A [`TraceRing`] allocates its whole buffer at construction and then
//! never touches the heap again: recording into a non-full ring is a
//! `Vec::push` within reserved capacity, and a full ring overwrites its
//! oldest slot. The steady-state control loop therefore records events
//! with **zero allocations**, and a long run degrades gracefully into a
//! "last N events" flight recorder instead of growing without bound
//! (dropped-event count is kept so consumers can tell).

use crate::event::{Event, EventRecord};

/// A fixed-capacity ring of [`EventRecord`]s, oldest-overwriting.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<EventRecord>,
    cap: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Next per-ring sequence number.
    seq: u32,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (min 1),
    /// allocating the full buffer up front.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            seq: 0,
            dropped: 0,
        }
    }

    /// Records one event. Allocation-free: the slot was reserved at
    /// construction, and a full ring overwrites its oldest record.
    #[inline]
    pub fn record(&mut self, epoch: u64, core: u32, event: Event) {
        let rec = EventRecord {
            epoch,
            core,
            seq: self.seq,
            event,
        };
        self.seq = self.seq.wrapping_add(1);
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records lost to overwriting (0 while the ring has never wrapped —
    /// the regime in which merged traces are comparable across shard
    /// counts).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The first epoch from which the ring still holds every record it
    /// was given: 0 while it has never wrapped, otherwise the epoch after
    /// its oldest held record (whose own epoch may have lost records).
    /// Assumes records arrive in non-decreasing epoch order, as every
    /// recording site produces them.
    pub fn complete_from(&self) -> u64 {
        match self.iter().next() {
            Some(oldest) if self.dropped > 0 => oldest.epoch + 1,
            _ => 0,
        }
    }

    /// Appends the held records, oldest → newest, onto `out`.
    pub fn extend_into(&self, out: &mut Vec<EventRecord>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }

    /// Iterates the held records, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Forgets all records (capacity and allocation are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: f64) -> Event {
        Event::Epoch { power_w: p }
    }

    #[test]
    fn records_in_order_until_full() {
        let mut r = TraceRing::with_capacity(4);
        for i in 0..3 {
            r.record(i, 0, ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let epochs: Vec<u64> = r.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        let seqs: Vec<u32> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn wraps_overwriting_oldest() {
        let mut r = TraceRing::with_capacity(3);
        for i in 0..5 {
            r.record(i, 0, ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let epochs: Vec<u64> = r.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4]);
        let mut out = Vec::new();
        r.extend_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].epoch, 2);
        assert_eq!(out[2].epoch, 4);
    }

    #[test]
    fn complete_from_follows_the_oldest_held_epoch() {
        let mut r = TraceRing::with_capacity(4);
        for epoch in 0..2 {
            r.record(epoch, 0, ev(0.0));
            r.record(epoch, 1, ev(0.0));
        }
        assert_eq!(
            r.complete_from(),
            0,
            "a full ring that never wrapped is complete"
        );
        // Epoch 2's first record evicts one of epoch 0's: epoch 0 is now
        // partial, epochs 1.. are whole.
        r.record(2, 0, ev(0.0));
        assert_eq!(r.complete_from(), 1);
        // Conservative: the ring cannot tell that epoch 1 is still whole.
        r.record(2, 1, ev(0.0));
        assert_eq!(r.complete_from(), 2);
    }

    #[test]
    fn recording_never_allocates_past_construction() {
        let mut r = TraceRing::with_capacity(8);
        let cap_before = r.buf.capacity();
        for i in 0..100 {
            r.record(i, 1, ev(0.0));
        }
        assert_eq!(r.buf.capacity(), cap_before);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut r = TraceRing::with_capacity(2);
        r.record(0, 0, ev(0.0));
        r.record(1, 0, ev(0.0));
        r.record(2, 0, ev(0.0));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), 2);
        r.record(9, 0, ev(1.0));
        assert_eq!(r.iter().next().unwrap().seq, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRing::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.record(0, 0, ev(0.0));
        r.record(1, 0, ev(0.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().epoch, 1);
    }
}
