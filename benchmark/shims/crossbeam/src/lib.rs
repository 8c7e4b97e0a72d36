//! `crossbeam::scope` over `std::thread::scope`: same call shape (spawned
//! closures take the scope), same outcome (`Err` when a worker panicked).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Handle through which scoped threads are spawned.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread; it is joined before [`scope`] returns.
    pub fn spawn<F, T>(&self, f: F) -> thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }))
    }
}

/// Run `f` with a scope; every thread it spawns is joined on return.
pub fn scope<'env, F, R>(f: F) -> thread::Result<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    // std's scope re-raises a worker's panic after joining; crossbeam
    // reports it as Err, which is what callers `.expect()` on.
    catch_unwind(AssertUnwindSafe(|| thread::scope(|s| f(&Scope { inner: s }))))
}
