//! A counting `#[global_allocator]`: heap allocations made by the client
//! thread and by the whole process while counting is switched on. Off (one
//! relaxed load per call) except inside the traced run's counted pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

/// Number of `counted` sections in progress (tests run them in parallel).
static ENABLED: AtomicUsize = AtomicUsize::new(0);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the one thread whose own allocations are wanted.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    static CLIENT_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static CLIENT_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = IS_CLIENT.try_with(|c| {
        if c.get() {
            let _ = CLIENT_ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = CLIENT_BYTES.try_with(|n| n.set(n.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// const-initialised thread locals without destructors, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counts of one counted section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub client_allocs: u64,
    pub client_bytes: u64,
    pub process_allocs: u64,
}

/// Run `f` on the calling thread with counting on, and return what it and
/// the rest of the process allocated meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = snapshot();
    IS_CLIENT.with(|c| c.set(true));
    ENABLED.fetch_add(1, Ordering::SeqCst);
    let out = f();
    ENABLED.fetch_sub(1, Ordering::SeqCst);
    IS_CLIENT.with(|c| c.set(false));
    let after = snapshot();
    (
        out,
        Counts {
            client_allocs: after.client_allocs - before.client_allocs,
            client_bytes: after.client_bytes - before.client_bytes,
            process_allocs: after.process_allocs - before.process_allocs,
        },
    )
}

/// (allocations, bytes) the calling thread has been counted for so far.
pub fn client_so_far() -> (u64, u64) {
    (CLIENT_ALLOCS.with(Cell::get), CLIENT_BYTES.with(Cell::get))
}

fn snapshot() -> Counts {
    let (client_allocs, client_bytes) = client_so_far();
    Counts { client_allocs, client_bytes, process_allocs: PROCESS_ALLOCS.load(Ordering::SeqCst) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_calling_thread_exactly() {
        let work = || {
            let v: Vec<Box<u64>> = (0..100).map(Box::new).collect();
            std::hint::black_box(v.len())
        };
        let (_, a) = counted(work);
        let (_, b) = counted(work);
        // 100 boxes + the vector; other test threads may add to the process
        // count but never to this thread's.
        assert_eq!(a.client_allocs, 101);
        assert_eq!(a.client_bytes, 100 * 8 + 100 * 8);
        assert_eq!((a.client_allocs, a.client_bytes), (b.client_allocs, b.client_bytes));
        assert!(a.process_allocs >= a.client_allocs);
    }
}
