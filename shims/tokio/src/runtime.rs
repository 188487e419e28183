//! Runtime construction, mirroring `tokio::runtime`.

use std::future::Future;
use std::io;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Builder mirroring `tokio::runtime::Builder`.
#[derive(Debug, Default)]
pub struct Builder {
    _private: (),
}

impl Builder {
    /// Multi-thread flavor, the only one: every runtime polls on the
    /// thread that calls [`Runtime::block_on`].
    pub fn new_multi_thread() -> Builder {
        Builder::default()
    }

    /// Accepted for compatibility; the shim has no I/O or time drivers.
    pub fn enable_all(&mut self) -> &mut Self {
        self
    }

    /// Builds the runtime.
    pub fn build(&mut self) -> io::Result<Runtime> {
        Ok(Runtime { _private: () })
    }
}

/// A runtime that drives one future at a time on the calling thread.
#[derive(Debug)]
pub struct Runtime {
    _private: (),
}

/// Wakes the thread blocked in [`Runtime::block_on`].
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

impl Runtime {
    /// Drives `future` to completion on the calling thread, parking it
    /// whenever the future is pending.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut future = std::pin::pin!(future);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => std::thread::park(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_repolls_a_woken_future() {
        let mut polls = 0;
        let future = std::future::poll_fn(|cx| {
            polls += 1;
            if polls < 3 {
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(polls)
            }
        });
        let rt = Builder::new_multi_thread().enable_all().build().unwrap();
        assert_eq!(rt.block_on(future), 3);
    }
}
