//! A minimal, offline stand-in for `parking_lot`, layered over `std::sync`.
//!
//! Mirrors the parking_lot API shape the workspace relies on: `lock()`
//! returns a guard directly (poisoning is swallowed — a panicking rank
//! must not poison unrelated ranks' mailboxes), and `Condvar::wait` takes
//! `&mut MutexGuard`. `Condvar::wait_for` and `Condvar::wait_until` are
//! included because the transport's timeout paths and the stream drain
//! need bounded waits.

// These crates mirror upstream APIs verbatim, so API-shape lints
// (method names, arg conventions) do not apply to them.
#![allow(clippy::all)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Mutual exclusion lock; `lock()` never returns a poisoned error.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]. The inner `Option` lets [`Condvar::wait`]
/// temporarily take ownership of the std guard.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: Some(p.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// Result of a bounded [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable matching the parking_lot calling convention.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present before wait");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
    }

    /// Wait with a timeout; returns whether the wait timed out (spurious
    /// wakeups are possible either way, exactly as in parking_lot).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present before wait");
        let (g, res) = self.inner.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
        WaitTimeoutResult { timed_out: res.timed_out() }
    }

    /// Wait until `deadline`; returns whether the wait timed out.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn wait_until_times_out_at_the_deadline() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_millis(5);
        while !cv.wait_until(&mut g, deadline).timed_out() {}
        assert!(Instant::now() >= deadline);
        // A deadline already past returns at once.
        assert!(cv.wait_until(&mut g, deadline).timed_out());
    }
}
