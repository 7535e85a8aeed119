//! Offline stand-in for the `crossbeam` crate: the `channel` module
//! surface this workspace uses (`unbounded`, cloneable `Sender` /
//! `Receiver`), implemented over `std::sync::mpsc`.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// The sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing only if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// The receiving half of an unbounded channel. Cloneable: clones share
    /// the underlying queue (each message is received by exactly one
    /// receiver).
    pub struct Receiver<T>(Arc<Mutex<mpsc::Receiver<T>>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Receiver<T> {
        fn inner(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
        }

        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv()
        }

        /// Receives a message if one is ready.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner().try_recv()
        }

        /// Blocks until a message arrives, the timeout fires, or all
        /// senders are gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner().recv_timeout(timeout)
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Arc::new(Mutex::new(rx))))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_roundtrip_channel() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            assert_eq!(rx.recv().unwrap(), 7);
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            tx.send(1u32).unwrap();
            tx.send(2u32).unwrap();
            let a = rx.recv().unwrap();
            let b = rx2.recv().unwrap();
            assert_eq!(a + b, 3);
        }

        #[test]
        fn disconnect_is_reported() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
        }
    }
}
