//! Offline shim for the `tokio` surface this workspace uses.
//!
//! A global fixed-size worker pool drives spawned tasks; wakers re-queue
//! tasks, so pending tasks cost nothing while parked (serving tasks in
//! the simulated network block on their channels exactly as under real
//! tokio). `block_on` drives the root future on the calling thread with
//! park/unpark. There is no I/O reactor or timer wheel — the workspace's
//! futures only ever await channels, semaphores and join handles.

pub mod runtime;
pub mod sync;
pub mod task;

pub use task::spawn;
pub use tokio_macros::{main, test};

pub(crate) mod executor {
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};
    use std::task::{Context, Poll, Wake, Waker};

    type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

    const IDLE: u8 = 0;
    const QUEUED: u8 = 1;
    const RUNNING: u8 = 2;
    const RUNNING_WOKEN: u8 = 3;
    const DONE: u8 = 4;

    pub(crate) struct Task {
        future: Mutex<Option<BoxFuture>>,
        state: AtomicU8,
    }

    impl Wake for Task {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            loop {
                let state = self.state.load(Ordering::Acquire);
                match state {
                    IDLE => {
                        if self
                            .state
                            .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            pool().enqueue(Arc::clone(self));
                            return;
                        }
                    }
                    RUNNING => {
                        if self
                            .state
                            .compare_exchange(
                                RUNNING,
                                RUNNING_WOKEN,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            return;
                        }
                    }
                    // Already queued, already flagged for re-poll, or done.
                    _ => return,
                }
            }
        }
    }

    pub(crate) struct Pool {
        queue: Mutex<Queue>,
        available: Condvar,
    }

    /// Runnable tasks, and how many workers wait for one. Enqueueing
    /// signals the condvar only when a worker waits: a worker that is
    /// running tasks takes the new one from the queue on its own.
    struct Queue {
        tasks: VecDeque<Arc<Task>>,
        idle: usize,
    }

    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

    pub(crate) fn pool() -> &'static Arc<Pool> {
        POOL.get_or_init(|| {
            let pool = Arc::new(Pool {
                queue: Mutex::new(Queue {
                    tasks: VecDeque::new(),
                    idle: 0,
                }),
                available: Condvar::new(),
            });
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16);
            for i in 0..workers {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("tokio-shim-worker-{i}"))
                    .spawn(move || pool.run_worker())
                    .expect("spawn tokio shim worker");
            }
            pool
        })
    }

    impl Pool {
        pub(crate) fn enqueue(&self, task: Arc<Task>) {
            let mut queue = self.queue.lock().unwrap();
            queue.tasks.push_back(task);
            let wake = queue.idle > 0;
            drop(queue);
            if wake {
                self.available.notify_one();
            }
        }

        fn run_worker(&self) {
            loop {
                let task = {
                    let mut queue = self.queue.lock().unwrap();
                    loop {
                        if let Some(task) = queue.tasks.pop_front() {
                            break task;
                        }
                        // Counted under the lock `wait` releases, so an
                        // enqueue either sees this worker idle or lands
                        // before it looks at the queue again.
                        queue.idle += 1;
                        queue = self.available.wait(queue).unwrap();
                        queue.idle -= 1;
                    }
                };
                self.poll_task(task);
            }
        }

        fn poll_task(&self, task: Arc<Task>) {
            task.state.store(RUNNING, Ordering::Release);
            let waker = Waker::from(Arc::clone(&task));
            let mut cx = Context::from_waker(&waker);
            let mut guard = task.future.lock().unwrap();
            let Some(future) = guard.as_mut() else {
                task.state.store(DONE, Ordering::Release);
                return;
            };
            // Panics in a task abort that task only; the JoinHandle
            // completion lives in a drop guard inside the future itself.
            let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                future.as_mut().poll(&mut cx)
            }));
            match poll {
                Ok(Poll::Ready(())) | Err(_) => {
                    *guard = None;
                    task.state.store(DONE, Ordering::Release);
                }
                Ok(Poll::Pending) => {
                    drop(guard);
                    match task.state.compare_exchange(
                        RUNNING,
                        IDLE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {}
                        // Woken while running: run again.
                        Err(_) => {
                            task.state.store(QUEUED, Ordering::Release);
                            self.enqueue(task);
                        }
                    }
                }
            }
        }
    }

    /// Spawns a unit future onto the global pool.
    pub(crate) fn spawn_unit(future: impl Future<Output = ()> + Send + 'static) {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            state: AtomicU8::new(QUEUED),
        });
        pool().enqueue(task);
    }

    /// Drives a future to completion on the calling thread.
    pub(crate) fn block_on<F: Future>(mut future: F) -> F::Output {
        struct ThreadWaker {
            thread: std::thread::Thread,
        }
        impl Wake for ThreadWaker {
            fn wake(self: Arc<Self>) {
                self.thread.unpark();
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.thread.unpark();
            }
        }
        // Safety-free pinning: the future lives on this stack frame and
        // is never moved after the first poll.
        let mut future = unsafe { Pin::new_unchecked(&mut future) };
        let waker = Waker::from(Arc::new(ThreadWaker {
            thread: std::thread::current(),
        }));
        let mut cx = Context::from_waker(&waker);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => std::thread::park(),
            }
        }
    }
}
