//! Offline stand-in for `parking_lot` (see `perfbench/stubs/bytes` for why
//! these crates exist): `Mutex`, `RwLock` and `Condvar` with
//! `parking_lot`'s signatures — no poisoning, guards passed to `Condvar`
//! by `&mut` — implemented over `std::sync`.
//!
//! A panic while a lock is held does not poison it here either: the engine
//! is written against `parking_lot` semantics, where the next locker just
//! proceeds.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// Mutual exclusion without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `None` only while a `Condvar` wait has the std guard.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consume the mutex and return the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside a condvar wait")
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the time ran out.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking the guard by `&mut`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Release the lock, wait for a notification, take the lock again.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present");
        guard.guard = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// As [`wait`](Self::wait), giving up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.guard.take().expect("guard present");
        let (g, res) = self.inner.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }
}

/// Reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared guard of an [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive guard of an [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Consume the lock and return the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Access through exclusive ownership; no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            pair.1.wait(&mut g);
        }
        drop(g);
        t.join().expect("notifier thread");
        let mut g = pair.0.lock();
        assert!(pair.1.wait_for(&mut g, Duration::from_millis(1)).timed_out());
        assert!(*g);
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
