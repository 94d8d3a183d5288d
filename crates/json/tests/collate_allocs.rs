//! What a collation comparison costs the allocator: nothing. An index
//! compares keys on every insert and every scan bound, and a GROUP BY or an
//! ORDER BY on every row, so comparing two objects must not allocate; a
//! hashed GROUP BY or DISTINCT hashes every row's key, so neither must
//! hashing one.
//!
//! Runs under a counting global allocator that counts the calling thread's
//! allocations only.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hasher};

use cbs_json::{cmp_values, hash_missing, Value};

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

fn hash(v: &Value) -> u64 {
    let mut state = DefaultHasher::new();
    hash_missing(Some(v), &mut state);
    state.finish()
}

#[test]
fn hashing_a_ten_field_object_makes_no_allocation() {
    let x = object(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 1);
    let z = object(&[4, 2, 0, 8, 6, 9, 7, 5, 3, 1], 1);
    let before = allocs();
    let (hx, hz) = (hash(&x), hash(&z));
    assert_eq!(allocs() - before, 0);
    assert_eq!(hx, hz, "objects equal under collation hash alike");
}

/// A repeated name: collation pairs its values in field order, and so does
/// the hash — equal objects hash alike whatever their other fields' order.
#[test]
fn a_repeated_field_name_hashes_as_collation_compares_it() {
    let obj =
        |fields: &[(&str, i64)]| Value::object(fields.iter().map(|&(k, v)| (k, Value::int(v))));
    let a = obj(&[("a", 1), ("b", 2), ("a", 3)]);
    let b = obj(&[("b", 2), ("a", 1), ("a", 3)]);
    assert_eq!(cmp_values(&a, &b), Ordering::Equal);
    assert_eq!(hash(&a), hash(&b));
    let c = obj(&[("a", 3), ("b", 2), ("a", 1)]);
    assert_ne!(cmp_values(&a, &c), Ordering::Equal);
    assert_ne!(hash(&a), hash(&c), "the second `a` is hashed by its own value");
}
