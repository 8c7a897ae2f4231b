//! Offline stand-in for `crossbeam` (see `perfbench/stubs/bytes` for why
//! these crates exist): a multi-producer multi-consumer channel and a
//! bounded `ArrayQueue`, both a `Mutex<VecDeque>` with condition
//! variables. Same blocking and disconnect behaviour as the real crate;
//! not lock-free.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (each message goes to one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }

    /// A channel that never blocks senders.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// A channel holding at most `capacity` messages; senders block when
    /// it is full. (The real crate's zero-capacity rendezvous channel is
    /// not provided: capacity 0 is treated as 1.)
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(capacity.max(1)))
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.shared.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.shared.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    _ => break,
                }
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive, blocking until a message arrives or every sender is
        /// gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.shared.not_full.notify_all();
            }
        }
    }
}

pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Bounded multi-producer multi-consumer queue.
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        items: Mutex<VecDeque<T>>,
        capacity: usize,
    }

    impl<T> ArrayQueue<T> {
        /// A queue holding at most `capacity` items. Panics on zero.
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "capacity must be non-zero");
            ArrayQueue { items: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
        }

        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.items.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Append, or hand the item back when full.
        pub fn push(&self, item: T) -> Result<(), T> {
            let mut items = self.lock();
            if items.len() >= self.capacity {
                return Err(item);
            }
            items.push_back(item);
            Ok(())
        }

        /// Remove the oldest item.
        pub fn pop(&self) -> Option<T> {
            self.lock().pop_front()
        }

        /// Most items the queue holds.
        pub fn capacity(&self) -> usize {
            self.capacity
        }

        /// Items queued right now.
        pub fn len(&self) -> usize {
            self.lock().len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.lock().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use super::queue::ArrayQueue;

    #[test]
    fn channel_delivers_each_message_once_across_receivers() {
        let (tx, rx) = unbounded::<u32>();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += u64::from(v);
                    }
                    sum
                })
            })
            .collect();
        drop(rx);
        for i in 0..1000 {
            tx.send(i).expect("receivers alive");
        }
        drop(tx);
        let total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn a_full_bounded_channel_blocks_and_disconnects_are_reported() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(1).expect("room");
        let sender = std::thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        sender.join().expect("sender thread").expect("second send went through");
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn array_queue_is_bounded_fifo() {
        let q = ArrayQueue::new(2);
        assert!(q.push(1).is_ok() && q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), None));
    }
}
