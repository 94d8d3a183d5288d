//! No statement can overrun a thread's stack. The parser counts nesting on
//! every recursive production and refuses a statement that nests deeper
//! than `cbs_json::MAX_DEPTH` levels with a parse error; up to that depth,
//! statements plan and run. The tests run in debug and in release (frames
//! differ between the two), on the default test thread and on a thread
//! with a smaller stack, at fixed depths and at seeded random ones.

// Tests unwrap freely; the crate's unwrap_used deny targets lib code (the
// allow-unwrap-in-tests config covers #[test] fns but not file helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cbs_common::Error;
use cbs_index::IndexDef;
use cbs_json::{Value, MAX_DEPTH};
use cbs_n1ql::{query, Datastore, MemoryDatastore, QueryOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// Each recursive production, nested `n` levels deep, as a statement.
fn nested_statements(n: usize) -> Vec<(&'static str, String)> {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("SELECT {}{inner}{} AS x FROM p", open.repeat(n), close.repeat(n))
    };
    vec![
        ("parentheses", wrap("(", "1", ")")),
        ("NOT", wrap("NOT ", "true", "")),
        ("unary minus", wrap("- ", "1", "")),
        ("array literal", wrap("[", "1", "]")),
        ("object literal", wrap("{\"a\":", "1", "}")),
        ("subscripts", wrap("", "v", "[0]")),
        ("CASE", wrap("CASE WHEN true THEN ", "1", " END")),
        ("ANY … SATISFIES", wrap("ANY v IN a SATISFIES ", "true", " END")),
        ("EVERY … SATISFIES", wrap("EVERY v IN a SATISFIES ", "true", " END")),
        ("ARRAY … FOR", wrap("ARRAY ", "1", " FOR v IN a END")),
        ("function arguments", wrap("ABS(", "1", ")")),
        ("binary operators", wrap("", "1", " + 1")),
        ("EXPLAIN", format!("{}SELECT 1 AS x FROM p", "EXPLAIN ".repeat(n))),
    ]
}

fn datastore() -> MemoryDatastore {
    let ds = MemoryDatastore::new();
    ds.create_keyspace("p");
    let doc = Value::object([("v", Value::int(1)), ("a", Value::Array(vec![Value::int(1)]))]);
    ds.load("p", [("k1".to_string(), doc)]);
    ds.create_index(IndexDef::primary("#primary", "p")).unwrap();
    ds
}

#[test]
fn statements_up_to_the_budget_run() {
    let ds = datastore();
    for (production, statement) in nested_statements(MAX_DEPTH) {
        let result = query(&ds, &statement, &QueryOptions::default());
        assert!(result.is_ok(), "{production}, {MAX_DEPTH} levels: {:?}", result.err());
    }
}

/// A stack well below the default test thread's 2 MiB that every
/// production at the budget fits with more than 2× to spare in a debug
/// build: the deepest, ARRAY … FOR, needs ~575 KiB.
const SMALL_STACK: usize = 1280 * 1024;

#[test]
fn statements_up_to_the_budget_run_on_a_small_stack() {
    let ds = datastore();
    std::thread::scope(|s| {
        let run = || {
            for (production, statement) in nested_statements(MAX_DEPTH) {
                let result = query(&ds, &statement, &QueryOptions::default());
                assert!(result.is_ok(), "{production}, {MAX_DEPTH} levels: {:?}", result.err());
            }
        };
        std::thread::Builder::new().stack_size(SMALL_STACK).spawn_scoped(s, run).unwrap();
    });
}

#[test]
fn deeper_statements_are_refused_and_the_process_lives() {
    let ds = datastore();
    for n in [MAX_DEPTH + 1, 1_000, 100_000] {
        for (production, statement) in nested_statements(n) {
            match query(&ds, &statement, &QueryOptions::default()) {
                Err(Error::Parse(msg)) => assert!(msg.contains("nests deeper"), "{msg}"),
                other => panic!("{production}, {n} levels: {other:?}"),
            }
        }
    }
    // The datastore still answers.
    let rows = query(&ds, "SELECT v FROM p", &QueryOptions::default()).unwrap().rows;
    assert_eq!(rows, [Value::object([("v", Value::int(1))])]);
}

/// Any production at any depth up to 50 000: it runs up to `MAX_DEPTH`
/// levels and is a parse error above, on the small stack. Half the cases
/// draw a depth within the budget and half one past it; the run is seeded
/// (`PROPTEST_SEED` replays one case).
#[test]
fn any_depth_runs_or_is_refused_on_a_small_stack() {
    let ds = datastore();
    let productions = nested_statements(0).len();
    let property = |(production, depth): (usize, usize)| {
        let (name, statement) = nested_statements(depth).swap_remove(production);
        match query(&ds, &statement, &QueryOptions::default()) {
            Ok(_) => prop_assert!(depth <= MAX_DEPTH, "{name}, {depth} levels ran"),
            Err(Error::Parse(msg)) if msg.contains("nests deeper") => {
                prop_assert!(depth > MAX_DEPTH, "{name}, {depth} levels: {msg}")
            }
            Err(e) => prop_assert!(false, "{name}, {depth} levels: {e}"),
        }
        Ok(())
    };
    let run = || {
        let config = ProptestConfig { cases: 32, ..ProptestConfig::default() };
        let depths = prop_oneof![0..MAX_DEPTH + 1, MAX_DEPTH + 1..50_001];
        TestRunner::new_named(config, "any_depth_runs_or_is_refused_on_a_small_stack")
            .run(&(0..productions, depths), property)
    };
    let outcome = std::thread::scope(|s| {
        std::thread::Builder::new().stack_size(SMALL_STACK).spawn_scoped(s, run).unwrap().join()
    });
    if let Err(e) = outcome.unwrap() {
        panic!("{e}");
    }
}
