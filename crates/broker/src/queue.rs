//! The daemon's job queue: FIFO per client, round-robin across clients.
//!
//! One client flooding the daemon with submissions cannot starve
//! another — the next entry is taken from each client's queue in turn.
//! The daemon queues its connections' turns for an execution slot here
//! and grants them with [`JobQueue::pop`], which never blocks. Closing
//! stops admissions but lets what was already queued drain, which is
//! what a graceful shutdown wants.

use std::collections::VecDeque;
use std::sync::Mutex;

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
        true
    }

    /// Dequeue the next job, or `None` at once if nothing is queued.
    /// Clients are served round-robin; within a client, FIFO.
    pub fn pop(&self) -> Option<T> {
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

    /// Stop admissions. Queued jobs still drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").open = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
