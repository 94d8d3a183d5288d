//! Exhaustive interleaving model of two writers on one Standard GSI
//! partition (DESIGN.md decision 9, "the rewrite").
//!
//! An index build's backfill op d@5 and a live op d@9 for the same document
//! race on one partition. Each writer filters its op against the tree (an
//! op no newer than the version the tree holds is not logged), commits what
//! is left to the log, applies the op to the tree, which keeps the highest
//! seqno whatever the order, and then rewrites the log from the tree, as a
//! fragmented log is rewritten. A reopen replays every record the log holds
//! and keeps the highest seqno for d.
//!
//! Two variants:
//!
//! - **snapshot after apply** (shipped): the rewrite reads the tree after
//!   the batch it follows is applied, all under the partition's writer lock
//!   — verifies clean: a reopen never reads a version older than one a scan
//!   has seen, and once both writers are done it reads exactly the tree's.
//! - **snapshot before apply**: the rewrite's snapshot of the tree is taken
//!   before its own batch is applied, so the new file lacks the op that was
//!   just committed, and a reopen loses an acknowledged version.

use cbs_common::model::{Explorer, Step};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    SnapshotAfterApply,
    SnapshotBeforeApply,
}

/// The two writers' versions of d: the build's backfill, the live feed.
const SEQNOS: [u8; 2] = [5, 9];

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// The writer holding the partition's writer lock.
    writer: Option<usize>,
    /// The version of d the tree holds (0 = none).
    tree: u8,
    /// The highest version of d the log holds (0 = none): what a reopen
    /// replays to.
    logged: u8,
    /// Per writer: program counter, whether its op passed the filter, and
    /// the tree version its rewrite will write.
    pc: [u8; 2],
    passed: [bool; 2],
    snapshot: [u8; 2],
}

const LOCK: u8 = 0;
const FILTER: u8 = 1;
const COMMIT: u8 = 2;
const APPLY: u8 = 3;
const SNAPSHOT: u8 = 4;
const REWRITE: u8 = 5;
const DONE: u8 = 6;

/// The step after `pc`; the variants differ only in where the rewrite's
/// snapshot sits.
fn next_pc(pc: u8, variant: Variant) -> u8 {
    match (pc, variant) {
        (LOCK, _) => FILTER,
        (FILTER, _) => COMMIT,
        (COMMIT, Variant::SnapshotAfterApply) => APPLY,
        (APPLY, Variant::SnapshotAfterApply) => SNAPSHOT,
        (COMMIT, Variant::SnapshotBeforeApply) => SNAPSHOT,
        (SNAPSHOT, Variant::SnapshotBeforeApply) => APPLY,
        _ => REWRITE,
    }
}

fn writer_step(s: &mut State, me: usize, variant: Variant) -> Step {
    let seqno = SEQNOS[me];
    match s.pc[me] {
        LOCK if s.writer.is_some() => return Step::Blocked,
        LOCK => s.writer = Some(me),
        // One tree-lock acquisition: the version the back index holds.
        FILTER => s.passed[me] = seqno > s.tree,
        // One cycle, one fsync: the op is logged if it passed, and a
        // replay keeps the highest version it reads.
        COMMIT if s.passed[me] => s.logged = s.logged.max(seqno),
        COMMIT => {}
        // Apply is order-tolerant: the tree keeps the highest seqno.
        APPLY => s.tree = s.tree.max(seqno),
        // The rewrite reads the tree a slice at a time; one document is
        // one slice.
        SNAPSHOT => s.snapshot[me] = s.tree,
        // The new file, holding the snapshot, is renamed over the log.
        // Then the writer lock is released.
        _ => {
            s.logged = s.snapshot[me];
            s.writer = None;
            s.pc[me] = DONE;
            return Step::Finished;
        }
    }
    s.pc[me] = next_pc(s.pc[me], variant);
    Step::Progressed
}

fn two_writers(variant: Variant) -> Result<cbs_common::model::Stats, String> {
    let init = State {
        writer: None,
        tree: 0,
        logged: 0,
        pc: [LOCK; 2],
        passed: [false; 2],
        snapshot: [0; 2],
    };
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
fn a_rewrite_of_the_tree_after_apply_keeps_every_acknowledged_version() {
    let stats =
        two_writers(Variant::SnapshotAfterApply).expect("the shipped protocol must verify clean");
    assert!(stats.complete_executions >= 2, "both orders of the two writers run");
}

#[test]
fn a_rewrite_of_the_tree_before_apply_loses_an_acknowledged_version() {
    let err = two_writers(Variant::SnapshotBeforeApply)
        .expect_err("explorer must find the rewrite dropping the batch it follows");
    assert!(err.contains("a reopen would read d@"), "unexpected violation: {err}");
}
