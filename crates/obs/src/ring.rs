//! The one bounded log: a ring that keeps the newest `cap` entries.
//!
//! The request log's completed requests, the transaction log, every
//! registry's flight-recorder events and the trace store's completed traces
//! are all this ring. It has no lock of its own — each owner keeps the
//! ranked lock it already had — and it allocates only as entries arrive, so
//! the many registries that never record an event hold no buffer.

use std::collections::VecDeque;

/// A bounded FIFO of at most `cap` entries, oldest first.
#[derive(Debug)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` entries; allocates nothing.
    pub fn new(cap: usize) -> Ring<T> {
        Ring { buf: VecDeque::new(), cap }
    }

    /// Append `item`; when the ring is full, evict the oldest entry and
    /// return it.
    pub fn push(&mut self, item: T) -> Option<T> {
        self.push_evicting(item, |_| true)
    }

    /// Append `item`; when the ring is full, evict and return the oldest
    /// retained entry `victim` picks. If it picks none of them, `item`
    /// itself is returned when `victim` picks it (the ring is unchanged),
    /// and the oldest entry is evicted when it does not.
    pub(crate) fn push_evicting(&mut self, item: T, victim: impl Fn(&T) -> bool) -> Option<T> {
        let evicted = if self.buf.len() < self.cap {
            None
        } else if let Some(i) = self.buf.iter().position(&victim) {
            self.buf.remove(i)
        } else if victim(&item) {
            return Some(item);
        } else {
            self.buf.pop_front()
        };
        self.buf.push_back(item);
        evicted
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_at_most_its_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..10 {
            ring.push(i);
            assert!(ring.iter().len() <= 3);
        }
        assert_eq!(ring.iter().len(), 3);
    }

    #[test]
    fn iterates_oldest_first() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(ring.iter().next_back(), Some(&4));
    }

    #[test]
    fn push_returns_the_evicted_entry() {
        let mut ring = Ring::new(2);
        assert_eq!(ring.push(1), None);
        assert_eq!(ring.push(2), None);
        assert_eq!(ring.push(3), Some(1));
        // The victim rule picks the oldest matching entry first...
        ring.push(4);
        assert_eq!(ring.push_evicting(5, |&x| x == 4), Some(4));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [3, 5]);
        // ...then the new entry itself, and only then the oldest.
        assert_eq!(ring.push_evicting(6, |&x| x == 6), Some(6));
        assert_eq!(ring.push_evicting(7, |_| false), Some(3));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [5, 7]);
    }

    #[test]
    fn an_empty_ring_holds_no_buffer() {
        let ring: Ring<[u8; 64]> = Ring::new(4_096);
        assert_eq!(ring.iter().len(), 0);
        assert_eq!(ring.buf.capacity(), 0);
    }
}
