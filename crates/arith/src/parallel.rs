//! A no-op left for the `e2e` harness's two calls; ROADMAP re-pin item (g)
//! deletes those calls and this module together.

/// Runs `f` on the calling thread: every multiexp is sequential.
#[doc(hidden)]
pub fn sequential<T>(f: impl FnOnce() -> T) -> T {
    f()
}
