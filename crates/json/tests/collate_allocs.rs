//! What a collation comparison costs the allocator: nothing. An index
//! compares keys on every insert and every scan bound, and a GROUP BY or an
//! ORDER BY on every row, so comparing two objects must not allocate.
//!
//! Runs under a counting global allocator that counts the calling thread's
//! allocations only.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;

use cbs_json::{cmp_values, Value};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Ten fields, named in an order of their own, the last one's value `last`.
fn object(order: &[usize], last: i64) -> Value {
    let names = ["k", "b", "j", "a", "i", "c", "h", "d", "g", "e"];
    Value::object(order.iter().map(|&i| (names[i], Value::int(if i == 9 { last } else { 1 }))))
}

#[test]
fn comparing_two_ten_field_objects_makes_no_allocation() {
    let x = object(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 1);
    let y = object(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0], 2);
    let z = object(&[4, 2, 0, 8, 6, 9, 7, 5, 3, 1], 1);
    let before = allocs();
    let orders = [cmp_values(&x, &y), cmp_values(&y, &x), cmp_values(&x, &z)];
    assert_eq!(allocs() - before, 0);
    assert_eq!(orders, [Ordering::Less, Ordering::Greater, Ordering::Equal]);
}
