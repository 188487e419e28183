//! Task spawning, join handles, and `JoinSet`.

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Failure to join a task (the task panicked).
#[derive(Debug)]
pub struct JoinError {
    message: String,
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task failed: {}", self.message)
    }
}

impl std::error::Error for JoinError {}

struct JoinState<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Owned permission to await a spawned task's output.
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has finished.
    pub fn is_finished(&self) -> bool {
        self.state.lock().unwrap().result.is_some()
    }

    /// Aborting is a no-op in the shim (tasks are short-lived or exit
    /// when their channels close).
    pub fn abort(&self) {}
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.state.lock().unwrap();
        match state.result.take() {
            Some(result) => Poll::Ready(result),
            None => {
                state.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Sets the join result when the task's future is dropped — whether it
/// ran to completion (result already stored) or unwound in a panic.
struct CompletionGuard<T> {
    state: Arc<Mutex<JoinState<T>>>,
    completed: bool,
}

impl<T> Drop for CompletionGuard<T> {
    fn drop(&mut self) {
        if !self.completed {
            let mut state = self.state.lock().unwrap();
            if state.result.is_none() {
                state.result = Some(Err(JoinError {
                    message: "task panicked or was dropped".into(),
                }));
                if let Some(waker) = state.waker.take() {
                    waker.wake();
                }
            }
        }
    }
}

/// Spawns a future onto the global pool.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    let state = Arc::new(Mutex::new(JoinState {
        result: None,
        waker: None,
    }));
    let task_state = Arc::clone(&state);
    crate::executor::spawn_unit(async move {
        let mut guard = CompletionGuard {
            state: task_state,
            completed: false,
        };
        let output = future.await;
        let mut state = guard.state.lock().unwrap();
        state.result = Some(Ok(output));
        if let Some(waker) = state.waker.take() {
            waker.wake();
        }
        drop(state);
        guard.completed = true;
    });
    JoinHandle { state }
}

/// Outputs of a [`JoinSet`]'s finished tasks, in completion order, and
/// the waker of the `join_next` call waiting for the next one.
struct Finished<T> {
    results: VecDeque<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Hands a set task's result to its [`JoinSet`] when the task's future is
/// dropped — with its output when it ran to completion, as a
/// [`JoinError`] when it unwound in a panic.
struct SetGuard<T> {
    finished: Arc<Mutex<Finished<T>>>,
    output: Option<T>,
}

impl<T> Drop for SetGuard<T> {
    fn drop(&mut self) {
        let result = self.output.take().ok_or_else(|| JoinError {
            message: "task panicked or was dropped".into(),
        });
        let mut finished = self.finished.lock().unwrap();
        finished.results.push_back(result);
        if let Some(waker) = finished.waker.take() {
            waker.wake();
        }
    }
}

/// A dynamic collection of spawned tasks joined in completion order.
///
/// Each task pushes its result onto the set's one completion queue as it
/// finishes, so `join_next` pops the next result instead of polling
/// every outstanding task.
pub struct JoinSet<T> {
    finished: Arc<Mutex<Finished<T>>>,
    /// Tasks spawned and not yet returned by `join_next`.
    len: usize,
}

impl<T> Default for JoinSet<T> {
    fn default() -> Self {
        JoinSet::new()
    }
}

impl<T> JoinSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        JoinSet {
            finished: Arc::new(Mutex::new(Finished {
                results: VecDeque::new(),
                waker: None,
            })),
            len: 0,
        }
    }

    /// Number of tasks still tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Spawns a task into the set.
    pub fn spawn<F>(&mut self, future: F)
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        let finished = Arc::clone(&self.finished);
        self.len += 1;
        crate::executor::spawn_unit(async move {
            let mut guard = SetGuard {
                finished,
                output: None,
            };
            guard.output = Some(future.await);
        });
    }

    /// Waits for the next task to finish. `None` when the set is empty.
    pub async fn join_next(&mut self) -> Option<Result<T, JoinError>> {
        if self.len == 0 {
            return None;
        }
        let result = JoinNext { set: self }.await;
        self.len -= 1;
        Some(result)
    }
}

struct JoinNext<'a, T> {
    set: &'a JoinSet<T>,
}

impl<'a, T> Future for JoinNext<'a, T> {
    type Output = Result<T, JoinError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut finished = self.set.finished.lock().unwrap();
        match finished.results.pop_front() {
            Some(result) => Poll::Ready(result),
            None => {
                finished.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::sync::oneshot;

    #[test]
    fn join_set_returns_every_result_once_then_none() {
        Runtime::new().unwrap().block_on(async {
            let mut set = JoinSet::new();
            for i in 0..200u32 {
                set.spawn(async move { i });
            }
            assert_eq!(set.len(), 200);
            let mut seen = Vec::new();
            while let Some(result) = set.join_next().await {
                seen.push(result.unwrap());
                assert_eq!(set.len(), 200 - seen.len());
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..200).collect::<Vec<_>>());
            assert!(set.is_empty());
            assert!(set.join_next().await.is_none());
        });
    }

    #[test]
    fn join_set_yields_in_completion_order() {
        Runtime::new().unwrap().block_on(async {
            let (tx, rx) = oneshot::channel::<()>();
            let mut set = JoinSet::new();
            set.spawn(async move {
                rx.await.unwrap();
                "waited"
            });
            set.spawn(async { "ready" });
            assert_eq!(set.join_next().await.unwrap().unwrap(), "ready");
            tx.send(()).unwrap();
            assert_eq!(set.join_next().await.unwrap().unwrap(), "waited");
            assert!(set.join_next().await.is_none());
        });
    }

    #[test]
    fn join_set_reports_a_panicked_task_as_an_error() {
        Runtime::new().unwrap().block_on(async {
            let mut set = JoinSet::new();
            set.spawn(async { panic!("task failure under test") });
            set.spawn(async { 7 });
            let mut results: Vec<_> = Vec::new();
            while let Some(result) = set.join_next().await {
                results.push(result.ok());
            }
            results.sort_unstable();
            assert_eq!(results, vec![None, Some(7)]);
        });
    }
}
