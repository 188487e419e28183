//! Async synchronization: a counting semaphore.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Error acquiring from a closed semaphore (the shim never closes).
#[derive(Debug)]
pub struct AcquireError(());

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("semaphore closed")
    }
}

impl std::error::Error for AcquireError {}

struct SemState {
    permits: usize,
    waiters: VecDeque<Waker>,
}

/// Counting semaphore with async acquisition.
pub struct Semaphore {
    state: Mutex<SemState>,
}

impl Semaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Currently available permits.
    pub fn available_permits(&self) -> usize {
        self.state.lock().unwrap().permits
    }

    /// Returns `n` permits.
    pub fn add_permits(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        state.permits += n;
        let wakers: Vec<Waker> = state.waiters.drain(..).collect();
        drop(state);
        for waker in wakers {
            waker.wake();
        }
    }

    fn try_take(&self, cx: &mut Context<'_>) -> bool {
        let mut state = self.state.lock().unwrap();
        if state.permits > 0 {
            state.permits -= 1;
            true
        } else {
            state.waiters.push_back(cx.waker().clone());
            false
        }
    }

    fn release_one(&self) {
        let mut state = self.state.lock().unwrap();
        state.permits += 1;
        let waker = state.waiters.pop_front();
        drop(state);
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Acquires one permit, waiting until one is available.
    pub fn acquire(&self) -> Acquire<'_> {
        Acquire { semaphore: self }
    }

    /// Acquires one permit on an `Arc`'d semaphore, returning an owned
    /// permit that can move across tasks.
    pub fn acquire_owned(self: Arc<Self>) -> AcquireOwned {
        AcquireOwned {
            semaphore: Some(self),
        }
    }
}

/// Borrowed permit; returns its permit on drop.
pub struct SemaphorePermit<'a> {
    semaphore: &'a Semaphore,
}

impl Drop for SemaphorePermit<'_> {
    fn drop(&mut self) {
        self.semaphore.release_one();
    }
}

/// Future for [`Semaphore::acquire`].
pub struct Acquire<'a> {
    semaphore: &'a Semaphore,
}

impl<'a> Future for Acquire<'a> {
    type Output = Result<SemaphorePermit<'a>, AcquireError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.semaphore.try_take(cx) {
            Poll::Ready(Ok(SemaphorePermit {
                semaphore: self.semaphore,
            }))
        } else {
            Poll::Pending
        }
    }
}

/// Owned permit; returns its permit on drop.
pub struct OwnedSemaphorePermit {
    semaphore: Arc<Semaphore>,
}

impl Drop for OwnedSemaphorePermit {
    fn drop(&mut self) {
        self.semaphore.release_one();
    }
}

/// Future for [`Semaphore::acquire_owned`].
pub struct AcquireOwned {
    semaphore: Option<Arc<Semaphore>>,
}

impl Future for AcquireOwned {
    type Output = Result<OwnedSemaphorePermit, AcquireError>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let semaphore = self
            .semaphore
            .take()
            .expect("AcquireOwned polled after completion");
        if semaphore.try_take(cx) {
            Poll::Ready(Ok(OwnedSemaphorePermit { semaphore }))
        } else {
            self.semaphore = Some(semaphore);
            Poll::Pending
        }
    }
}
