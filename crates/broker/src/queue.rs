//! The daemon's job queue: FIFO per client, round-robin across clients.
//!
//! One client flooding the daemon with submissions cannot starve
//! another — the next entry is taken from each client's queue in turn.
//! The daemon queues its connections' turns for an execution slot here
//! and grants them with [`JobQueue::try_pop`]; [`JobQueue::pop`] blocks
//! until an entry arrives or the queue is closed. Closing stops
//! admissions but lets what was already queued drain, which is what a
//! graceful shutdown wants.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    /// Per-client FIFO queues, in first-seen order. Entries persist for
    /// the daemon's lifetime (clients are few and named).
    clients: Vec<(String, VecDeque<T>)>,
    /// Round-robin cursor into `clients`.
    cursor: usize,
    /// Jobs queued across all clients.
    queued: usize,
    /// False once closed: no further admissions.
    open: bool,
}

impl<T> Inner<T> {
    /// The next job round-robin across clients, FIFO within one.
    fn take(&mut self) -> Option<T> {
        if self.queued == 0 {
            return None;
        }
        let n = self.clients.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if let Some(job) = self.clients[i].1.pop_front() {
                self.cursor = (i + 1) % n;
                self.queued -= 1;
                return Some(job);
            }
        }
        unreachable!("queued count out of sync with client queues");
    }
}

/// A multi-client fair job queue.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> Default for JobQueue<T> {
    fn default() -> JobQueue<T> {
        JobQueue::new()
    }
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(Inner {
                clients: Vec::new(),
                cursor: 0,
                queued: 0,
                open: true,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a job for `client`. Returns false (dropping the job) if
    /// the queue is closed.
    pub fn push(&self, client: &str, job: T) -> bool {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if !inner.open {
            return false;
        }
        match inner.clients.iter_mut().find(|(c, _)| c == client) {
            Some((_, q)) => q.push_back(job),
            None => {
                let mut q = VecDeque::new();
                q.push_back(job);
                inner.clients.push((client.to_string(), q));
            }
        }
        inner.queued += 1;
        self.ready.notify_one();
        true
    }

    /// Dequeue the next job, blocking while the queue is empty and open.
    /// Clients are served round-robin; within a client, FIFO. Returns
    /// `None` only when the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(job) = inner.take() {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Dequeue the next job in [`JobQueue::pop`]'s order, or `None` at
    /// once if nothing is queued.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().expect("queue poisoned").take()
    }

    /// False once [`JobQueue::close`] has been called.
    pub fn is_open(&self) -> bool {
        self.inner.lock().expect("queue poisoned").open
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop admissions and wake every blocked [`JobQueue::pop`]. Queued
    /// jobs still drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").open = false;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_a_client() {
        let q = JobQueue::new();
        q.push("a", 1);
        q.push("a", 2);
        q.push("a", 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn round_robin_across_clients() {
        let q = JobQueue::new();
        q.push("a", 10);
        q.push("a", 11);
        q.push("a", 12);
        q.push("b", 20);
        q.push("c", 30);
        // A flood from "a" does not starve "b" and "c".
        let order: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![10, 20, 30, 11, 12]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new();
        q.push("a", 1);
        q.close();
        assert!(!q.push("a", 2), "closed queue must refuse jobs");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Arc::new(JobQueue::<i32>::new());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.push("a", 7);
        q.close();
        let mut got: Vec<Option<i32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }
}
