//! Exhaustive interleaving model of two writers on one Standard GSI
//! partition (DESIGN.md decision 9, "the filter").
//!
//! An index build's backfill op d@5 and a live op d@9 for the same document
//! race on one partition. Each writer filters its op against the tree (an
//! op no newer than the version the tree holds is not logged), commits what
//! is left to the log, and applies the op to the tree, which keeps the
//! highest seqno whatever the order. A reopen reads the *last* record the
//! log holds for d.
//!
//! Two variants:
//!
//! - **filter under the writer lock** (shipped): filter, commit and apply
//!   happen under the partition's writer lock — verifies clean: a reopen
//!   never reads a version older than one a scan has seen, and once both
//!   writers are done it reads exactly the tree's.
//! - **filter before the writer lock**: both writers can pass the filter
//!   before either applies, so the backfill's d@5 is logged after the live
//!   d@9 and a reopen would bring d@5 back.

use cbs_common::model::{Explorer, Step};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    FilterUnderLock,
    FilterBeforeLock,
}

/// The two writers' versions of d: the build's backfill, the live feed.
const SEQNOS: [u8; 2] = [5, 9];

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// The writer holding the partition's writer lock.
    writer: Option<usize>,
    /// The version of d the tree holds (0 = none).
    tree: u8,
    /// The last record the log holds for d (0 = none): what a reopen reads.
    logged: u8,
    /// Per writer: program counter, and whether its op passed the filter.
    pc: [u8; 2],
    passed: [bool; 2],
}

const FILTER: u8 = 0;
const LOCK: u8 = 1;
const COMMIT: u8 = 2;
const APPLY: u8 = 3;
const DONE: u8 = 4;

fn next_pc(pc: u8, variant: Variant) -> u8 {
    match (pc, variant) {
        (LOCK, Variant::FilterUnderLock) => FILTER,
        (FILTER, Variant::FilterUnderLock) | (LOCK, Variant::FilterBeforeLock) => COMMIT,
        (FILTER, Variant::FilterBeforeLock) => LOCK,
        _ => APPLY,
    }
}

fn writer_step(s: &mut State, me: usize, variant: Variant) -> Step {
    let seqno = SEQNOS[me];
    match s.pc[me] {
        LOCK if s.writer.is_some() => return Step::Blocked,
        LOCK => s.writer = Some(me),
        // One tree-lock acquisition: the version the back index holds.
        FILTER => s.passed[me] = seqno > s.tree,
        // One cycle, one fsync: the op is logged if it passed.
        COMMIT if s.passed[me] => s.logged = seqno,
        COMMIT => {}
        // Apply is order-tolerant: the tree keeps the highest seqno. Then
        // the writer lock is released.
        _ => {
            s.tree = s.tree.max(seqno);
            s.writer = None;
            s.pc[me] = DONE;
            return Step::Finished;
        }
    }
    s.pc[me] = next_pc(s.pc[me], variant);
    Step::Progressed
}

fn two_writers(variant: Variant) -> Result<cbs_common::model::Stats, String> {
    let start = match variant {
        Variant::FilterUnderLock => LOCK,
        Variant::FilterBeforeLock => FILTER,
    };
    let init = State { writer: None, tree: 0, logged: 0, pc: [start; 2], passed: [false; 2] };
    Explorer::new(init)
        .thread(move |s: &mut State| writer_step(s, 0, variant))
        .thread(move |s: &mut State| writer_step(s, 1, variant))
        .invariant(|s| {
            if s.tree > s.logged {
                return Err(format!(
                    "a reopen would read d@{} after scans have seen d@{}",
                    s.logged, s.tree
                ));
            }
            if s.pc == [DONE; 2] && s.logged != s.tree {
                return Err(format!("log ends at d@{}, tree at d@{}", s.logged, s.tree));
            }
            Ok(())
        })
        .run()
        .map_err(|cex| cex.to_string())
}

#[test]
fn filtering_under_the_writer_lock_logs_the_trees_version() {
    let stats =
        two_writers(Variant::FilterUnderLock).expect("the shipped protocol must verify clean");
    assert!(stats.complete_executions >= 2, "both orders of the two writers run");
}

#[test]
fn filtering_before_the_writer_lock_brings_a_stale_version_back() {
    let err = two_writers(Variant::FilterBeforeLock)
        .expect_err("explorer must find both writers passing the filter");
    assert!(err.contains("a reopen would read d@5"), "unexpected violation: {err}");
}
