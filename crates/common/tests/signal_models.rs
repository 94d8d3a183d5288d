//! Exhaustive interleaving model of the `cbs_common::sync::Signal` protocol
//! — the one place in the workspace where a thread parks until a seqno has
//! been reached (DESIGN.md "one seqno watermark").
//!
//! One advancer publishes progress and notifies; two waiters wait for it,
//! the second with a deadline that a timer thread may fire at any moment.
//! Every atomic access is a step of its own (the progress word is written
//! *outside* the signal lock, so lock regions are not atomic with respect to
//! it); the condvar is modelled honestly as lossy — a broadcast wakes only
//! threads already parked — and parking releases the lock in the same step,
//! as a condvar does.
//!
//! Three variants:
//!
//! - **shipped** — waiter: register, lock, test, park; notifier: publish,
//!   load the waiter count, and only if non-zero lock + broadcast. Verifies
//!   clean: nobody is ever parked un-notified once the advancer is done, the
//!   waiter without a deadline always returns, and the count and the lock
//!   end up free.
//! - **broadcast without the lock** — the broadcast can land between a
//!   waiter's test and its park.
//! - **test before registering** — the advancer can publish and find no
//!   waiter between a waiter's test and its registration.
//!
//! The explorer must find a missed wake-up in both buggy variants: reverting
//! either half of the protocol turns a green test red.

use cbs_common::model::{Explorer, Step, Violation};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    Shipped,
    BroadcastWithoutLock,
    TestBeforeRegistering,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Outcome {
    Reached,
    TimedOut,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct Waiter {
    pc: u8,
    parked: bool,
    /// A broadcast landed while parked.
    woken: bool,
    outcome: Option<Outcome>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SignalState {
    /// The progress word: has the awaited seqno been reached?
    reached: bool,
    /// `Signal::waiters`.
    count: u8,
    /// Who holds the signal lock (0 = advancer, 1 and 2 = the waiters).
    lock: Option<u8>,
    /// The second waiter's deadline has passed.
    expired: bool,
    a_pc: u8,
    advancer_done: bool,
    waiters: [Waiter; 2],
}

/// `Waiter::pc` once `wait_until` has returned.
const RETURNED: u8 = 10;

/// One step of waiter `i` (thread id `i + 1`); only waiter 1 has a deadline.
fn waiter_step(s: &mut SignalState, i: usize, variant: Variant) -> Step {
    let me = i as u8 + 1;
    let has_deadline = i == 1;
    let w = s.waiters[i].clone();
    match w.pc {
        // Fast path: test without registering. In the shipped protocol this
        // is an optimisation (the test is repeated under the lock); in the
        // buggy variant it is the *only* test before the first park.
        0 => {
            if s.reached {
                s.waiters[i].outcome = Some(Outcome::Reached);
                s.waiters[i].pc = RETURNED;
                return Step::Finished;
            }
            s.waiters[i].pc = 1;
            Step::Progressed
        }
        // Register.
        1 => {
            s.count += 1;
            s.waiters[i].pc = 2;
            Step::Progressed
        }
        // Take the signal lock.
        2 => {
            if s.lock.is_some() {
                return Step::Blocked;
            }
            s.lock = Some(me);
            s.waiters[i].pc = if variant == Variant::TestBeforeRegistering { 4 } else { 3 };
            Step::Progressed
        }
        // Test under the lock.
        3 => {
            s.waiters[i].pc = if s.reached { 6 } else { 4 };
            Step::Progressed
        }
        // Park: releases the lock in the same step.
        4 => {
            s.lock = None;
            s.waiters[i].parked = true;
            s.waiters[i].woken = false;
            s.waiters[i].pc = 5;
            Step::Progressed
        }
        // Parked: wake on a broadcast, or on the deadline; re-take the lock.
        5 => {
            let timed_out = has_deadline && s.expired && !w.woken;
            if !(w.woken || timed_out) || s.lock.is_some() {
                return Step::Blocked;
            }
            s.lock = Some(me);
            s.waiters[i].parked = false;
            // After a timeout one last test decides the outcome (pc 7);
            // after a broadcast the loop re-tests and may park again.
            s.waiters[i].pc = if timed_out { 7 } else { 3 };
            Step::Progressed
        }
        // Reached: unlock, then deregister.
        6 | 8 => {
            if w.pc == 6 {
                s.waiters[i].outcome = Some(Outcome::Reached);
            }
            s.lock = None;
            s.waiters[i].pc = 9;
            Step::Progressed
        }
        // Final test after the deadline.
        7 => {
            s.waiters[i].outcome =
                Some(if s.reached { Outcome::Reached } else { Outcome::TimedOut });
            s.waiters[i].pc = 8;
            Step::Progressed
        }
        _ => {
            s.count -= 1;
            s.waiters[i].pc = RETURNED;
            Step::Finished
        }
    }
}

fn advancer_step(s: &mut SignalState, variant: Variant) -> Step {
    match s.a_pc {
        // Publish the progress (`fetch_max`, outside any lock).
        0 => {
            s.reached = true;
            s.a_pc = 1;
            Step::Progressed
        }
        // `notify`: load the waiter count.
        1 => {
            if s.count == 0 {
                s.advancer_done = true;
                return Step::Finished;
            }
            s.a_pc = if variant == Variant::BroadcastWithoutLock { 3 } else { 2 };
            Step::Progressed
        }
        // Take the signal lock.
        2 => {
            if s.lock.is_some() {
                return Step::Blocked;
            }
            s.lock = Some(0);
            s.a_pc = 3;
            Step::Progressed
        }
        // Broadcast (wakes only the parked) and unlock.
        _ => {
            for w in s.waiters.iter_mut().filter(|w| w.parked) {
                w.woken = true;
            }
            if s.lock == Some(0) {
                s.lock = None;
            }
            s.advancer_done = true;
            Step::Finished
        }
    }
}

fn signal_protocol(variant: Variant) -> Result<cbs_common::model::Stats, String> {
    let init = SignalState {
        reached: false,
        count: 0,
        lock: None,
        expired: false,
        a_pc: 0,
        advancer_done: false,
        waiters: [Waiter::default(), Waiter::default()],
    };
    let result = Explorer::new(init)
        .thread(move |s: &mut SignalState| advancer_step(s, variant))
        .thread(move |s: &mut SignalState| waiter_step(s, 0, variant))
        .thread(move |s: &mut SignalState| waiter_step(s, 1, variant))
        // The timer: the second waiter's deadline passes at some point.
        .thread(|s: &mut SignalState| {
            s.expired = true;
            Step::Finished
        })
        .invariant(|s| {
            for (i, w) in s.waiters.iter().enumerate() {
                if s.advancer_done && w.parked && !w.woken {
                    return Err(format!("missed wake-up: waiter {i} parked after the last notify"));
                }
                if w.outcome == Some(Outcome::TimedOut) && i == 0 {
                    return Err("the waiter without a deadline timed out".to_string());
                }
            }
            let all_returned = s.advancer_done && s.waiters.iter().all(|w| w.pc == RETURNED);
            if all_returned && (s.lock.is_some() || s.count != 0) {
                return Err(format!("left behind: lock {:?}, waiter count {}", s.lock, s.count));
            }
            Ok(())
        })
        .run();
    match result {
        Ok(stats) => Ok(stats),
        Err(cex) => match cex.violation {
            Violation::Deadlock => Err(format!("missed wake-up (parked forever): {cex}")),
            _ => Err(cex.to_string()),
        },
    }
}

#[test]
fn shipped_protocol_never_misses_a_wake_up() {
    let stats = signal_protocol(Variant::Shipped).expect("shipped protocol must verify clean");
    // Not a trivial pass: the waiters really do park and time out in there.
    assert!(stats.states > 100, "only {} states explored", stats.states);
    assert!(stats.complete_executions >= 1);
}

#[test]
fn broadcast_without_the_lock_misses_a_wake_up() {
    let err = signal_protocol(Variant::BroadcastWithoutLock)
        .expect_err("explorer must find the broadcast that lands between test and park");
    assert!(err.contains("missed wake-up"), "unexpected violation: {err}");
}

#[test]
fn testing_before_registering_misses_a_wake_up() {
    let err = signal_protocol(Variant::TestBeforeRegistering)
        .expect_err("explorer must find the publish that sees no waiter");
    assert!(err.contains("missed wake-up"), "unexpected violation: {err}");
}
