//! The bounded intake ring between the datagram source and the collector.
//!
//! A real collector sits behind a finite socket buffer: when ingest falls
//! behind the arrival rate, datagrams are dropped by the kernel — silently.
//! The supervised pipeline models that buffer explicitly as a
//! fixed-capacity FIFO with a **shed-newest** policy: an arrival that finds
//! the ring full is counted and discarded, so overload degrades the
//! accounting visibly (the shed count feeds `IngestHealth`) instead of
//! silently.
//!
//! Shed-newest (tail drop) rather than shed-oldest: the queued datagrams
//! are older and the collector's sequence accounting handles the resulting
//! gap at the *head* of the stream exactly like network loss, which is the
//! failure mode the loss-compensation machinery is calibrated for.

use std::collections::VecDeque;

use ixp_sflow::checkpoint::{self, Cur, StateError};

/// A fixed-capacity FIFO of encoded datagrams with an explicit shed count.
#[derive(Debug)]
pub struct IntakeRing {
    buf: VecDeque<Vec<u8>>,
    capacity: usize,
    shed: u64,
    high_water: usize,
}

impl IntakeRing {
    /// A ring holding at most `capacity` datagrams (at least 1).
    pub fn new(capacity: usize) -> IntakeRing {
        IntakeRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            shed: 0,
            high_water: 0,
        }
    }

    /// Offer one datagram. Returns `true` if queued; `false` if the ring
    /// was full and the datagram was shed (and counted).
    pub fn offer(&mut self, datagram: Vec<u8>) -> bool {
        let queued = self.buf.len() < self.capacity;
        if queued {
            self.buf.push_back(datagram);
            self.high_water = self.high_water.max(self.buf.len());
        } else {
            self.shed += 1;
        }
        queued
    }

    /// Dequeue the oldest datagram.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        self.buf.pop_front()
    }

    /// Datagrams currently queued.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Datagrams shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The deepest the ring has ever been.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Exact number of bytes [`IntakeRing::save`] appends.
    pub(crate) fn saved_len(&self) -> usize {
        24 + self.buf.iter().map(|dg| 8 + dg.len()).sum::<usize>()
    }

    /// Serialize the ring contents and counters (capacity is configuration,
    /// not state — the restoring side supplies it).
    pub fn save(&self, out: &mut Vec<u8>) {
        checkpoint::put_u64(out, self.shed);
        checkpoint::put_u64(out, self.high_water as u64);
        checkpoint::put_u64(out, self.buf.len() as u64);
        for dg in &self.buf {
            checkpoint::put_bytes(out, dg);
        }
    }

    /// Restore a ring saved by [`IntakeRing::save`] into a ring of
    /// `capacity`. Rejects blobs whose queue depth exceeds the capacity —
    /// that state could never have been produced under this configuration.
    pub fn restore(cur: &mut Cur<'_>, capacity: usize) -> Result<IntakeRing, StateError> {
        let mut ring = IntakeRing::new(capacity);
        ring.shed = cur.u64()?;
        let high_water = cur.u64()?;
        ring.high_water =
            usize::try_from(high_water).map_err(|_| StateError::Invalid("high water overflow"))?;
        // Each queued datagram costs at least its u64 length prefix.
        let n = cur.count(8)?;
        if n > ring.capacity {
            return Err(StateError::Invalid("queued depth exceeds ring capacity"));
        }
        if ring.high_water > ring.capacity || ring.high_water < n {
            return Err(StateError::Invalid("high water inconsistent with queue"));
        }
        for _ in 0..n {
            ring.buf.push_back(cur.bytes()?.to_vec());
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_newest_when_full_and_counts_every_shed() {
        let mut ring = IntakeRing::new(2);
        assert!(ring.offer(vec![1]));
        assert!(ring.offer(vec![2]));
        assert!(!ring.offer(vec![3]));
        assert_eq!((ring.shed(), ring.len()), (1, 2), "one offer at capacity sheds once");
        assert!(!ring.offer(vec![4]));
        assert_eq!(ring.shed(), 2);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.high_water(), 2);
        // FIFO order: the oldest survives, the newest was shed.
        assert_eq!(ring.pop(), Some(vec![1]));
        assert_eq!(ring.pop(), Some(vec![2]));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = IntakeRing::new(0);
        assert_eq!(ring.capacity(), 1);
        assert!(ring.offer(vec![1]));
        assert!(!ring.offer(vec![2]));
    }

    #[test]
    fn save_restore_round_trips() {
        let mut ring = IntakeRing::new(4);
        ring.offer(vec![9, 9]);
        ring.offer(vec![8]);
        for _ in 0..5 {
            ring.offer(vec![0; 10]);
        }
        let mut out = Vec::new();
        ring.save(&mut out);
        let mut cur = Cur::new(&out);
        let restored = IntakeRing::restore(&mut cur, 4).expect("restore");
        assert!(cur.finish().is_ok());
        assert_eq!(restored.shed(), ring.shed());
        assert_eq!(restored.len(), ring.len());
        assert_eq!(restored.high_water(), ring.high_water());
        let mut out2 = Vec::new();
        restored.save(&mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn restore_rejects_depth_beyond_capacity() {
        let mut ring = IntakeRing::new(8);
        for i in 0..6u8 {
            ring.offer(vec![i]);
        }
        let mut out = Vec::new();
        ring.save(&mut out);
        let mut cur = Cur::new(&out);
        assert!(IntakeRing::restore(&mut cur, 2).is_err());
    }

    #[test]
    fn restore_rejects_truncation_typed() {
        let mut ring = IntakeRing::new(4);
        ring.offer(vec![1, 2, 3]);
        let mut out = Vec::new();
        ring.save(&mut out);
        for cut in 0..out.len() {
            let prefix: Vec<u8> = out.iter().copied().take(cut).collect();
            let mut cur = Cur::new(&prefix);
            let r = IntakeRing::restore(&mut cur, 4).and_then(|_| cur.finish());
            assert!(r.is_err(), "cut {cut} restored");
        }
    }
}
