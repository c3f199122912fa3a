//! A bounded multi-producer queue with non-blocking admission.
//!
//! Producers offer items with [`BoundedQueue::try_push`], which refuses
//! instead of waiting when the queue is full, so the caller sheds the
//! work; a consumer drains items in batches with a timeout. The network
//! front-end's accept queue is one: the accept loop offers sockets and
//! drops them when the queue is full, and the dispatch loop pops them.
//!
//! Built on `Mutex` + `Condvar` only, so the queue can report its depth
//! (a telemetry gauge) and pop in batches — two things
//! `std::sync::mpsc::sync_channel` cannot do.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a [`BoundedQueue::try_push`] was refused, carrying the item back.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity right now — the caller should shed the
    /// work (admission control) rather than wait.
    Full(T),
    /// The queue has been closed (shutdown).
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue (see module docs).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` only if a slot is free **right now**. A full queue
    /// returns [`TryPushError::Full`] immediately instead of blocking, so a
    /// front-end can shed load with an explicit error while the queue
    /// keeps its bound.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] when at capacity, [`TryPushError::Closed`]
    /// after [`Self::close`]; both return the item.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned (a consumer panicked).
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues up to `max` items, waiting up to `timeout` for the first
    /// one. Returns the items (possibly empty on timeout) and whether the
    /// queue is closed *and* fully drained.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned.
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> (Vec<T>, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max.max(1));
                return (state.items.drain(..take).collect(), false);
            }
            if state.closed {
                return (Vec::new(), true);
            }
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), false);
            }
            let (next, timed_out) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue lock");
            state = next;
            if timed_out.timed_out() && state.items.is_empty() {
                return (Vec::new(), state.closed);
            }
        }
    }

    /// Current queue depth (items waiting).
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// `true` when no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending items remain poppable, further pushes
    /// fail, and a waiting consumer wakes.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex was poisoned.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_batch_pop() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        let (batch, closed) = q.pop_batch(3, Duration::from_millis(1));
        assert_eq!(batch, vec![0, 1, 2]);
        assert!(!closed);
        let (rest, _) = q.pop_batch(10, Duration::from_millis(1));
        assert_eq!(rest, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        let (batch, closed) = q.pop_batch(4, Duration::from_millis(5));
        assert!(batch.is_empty());
        assert!(!closed);
    }

    #[test]
    fn close_rejects_push_and_drains() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(TryPushError::Closed(2)));
        let (batch, closed) = q.pop_batch(4, Duration::from_millis(1));
        assert_eq!(batch, vec![1]);
        assert!(!closed); // items were returned; closed reported once empty
        let (empty, closed) = q.pop_batch(4, Duration::from_millis(1));
        assert!(empty.is_empty());
        assert!(closed);
    }

    #[test]
    fn try_push_sheds_on_full_and_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        let (batch, _) = q.pop_batch(1, Duration::from_millis(1));
        assert_eq!(batch, vec![1]);
        assert_eq!(q.try_push(4), Ok(()), "freed slot admits again");
        q.close();
        assert_eq!(q.try_push(5), Err(TryPushError::Closed(5)));
    }
}
