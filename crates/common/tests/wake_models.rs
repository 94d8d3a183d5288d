//! Exhaustive interleaving model of a topology-following DCP consumer — a
//! bucket's pump, an XDCR link — against the map installs that wake it
//! (DESIGN.md decision 10, "Map installs wake the feed").
//!
//! One installer makes two installs, each a step that bumps the map epoch
//! (under the maps guard) and then a step that wakes the consumer's feed: a
//! `Wake` queued on whichever queue the feed's wakers point at. One consumer
//! rebuilds — resets its feed (a fresh queue; what the old one held is
//! dropped; the wakers re-pointed) and reads the epoch its topology is built
//! from — then parks; a wake makes it compare the epoch and rebuild if the
//! map moved.
//!
//! Two variants:
//!
//! - **reset, then read** (shipped): verifies clean — once the installer is
//!   done, the consumer never stays parked on a topology older than the map.
//! - **read, then reset**: an install that lands between the read and the
//!   reset wakes the old queue, which the reset drops; the consumer parks on
//!   a stale topology with nothing queued to wake it.

use cbs_common::model::{Explorer, Step};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    ResetThenRead,
    ReadThenReset,
}

/// Queues a feed can go through: the first one and one per rebuild (two
/// installs, so at most three rebuilds).
const QUEUES: usize = 4;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// The installed map's epoch.
    epoch: u8,
    /// Installer program counter: even = bump next, odd = wake next.
    i_pc: u8,
    /// The queue the feed's wakers send to.
    wakers_to: usize,
    /// A wake is queued on queue `n`.
    queued: [bool; QUEUES],
    /// The queue the consumer parks on.
    queue: usize,
    /// The epoch the consumer's topology was built from.
    built: Option<u8>,
    /// Consumer program counter.
    c_pc: u8,
}

const INSTALLS: u8 = 2;

fn installer_done(s: &State) -> bool {
    s.i_pc == 2 * INSTALLS
}

fn installer_step(s: &mut State) -> Step {
    if s.i_pc.is_multiple_of(2) {
        s.epoch += 1;
    } else {
        s.queued[s.wakers_to] = true;
    }
    s.i_pc += 1;
    if installer_done(s) {
        Step::Finished
    } else {
        Step::Progressed
    }
}

/// Consumer pcs.
const RESET: u8 = 0;
const READ: u8 = 1;
const PARKED: u8 = 2;
const COMPARE: u8 = 3;

/// `DcpFeed::reset`: a fresh queue, the wakers re-pointed at it (a rebuild
/// with no install to rebuild for would overrun `QUEUES`).
fn reset(s: &mut State) {
    s.queue += 1;
    s.wakers_to = s.queue;
}

fn consumer_step(s: &mut State, variant: Variant) -> Step {
    match (s.c_pc, variant) {
        (RESET, Variant::ResetThenRead) | (READ, Variant::ReadThenReset) => {
            reset(s);
            s.c_pc = if variant == Variant::ResetThenRead { READ } else { PARKED };
            Step::Progressed
        }
        (READ, Variant::ResetThenRead) | (RESET, Variant::ReadThenReset) => {
            s.built = Some(s.epoch);
            s.c_pc = if variant == Variant::ResetThenRead { PARKED } else { READ };
            Step::Progressed
        }
        (PARKED, _) if s.queued[s.queue] => {
            s.queued[s.queue] = false;
            s.c_pc = COMPARE;
            Step::Progressed
        }
        // Nothing queued and nothing left to queue: parked for good (the
        // invariant has checked on what).
        (PARKED, _) if installer_done(s) => Step::Finished,
        (PARKED, _) => Step::Blocked,
        // Woken: rebuild only if the map moved past the topology.
        _ => {
            s.c_pc = if s.built == Some(s.epoch) { PARKED } else { RESET };
            Step::Progressed
        }
    }
}

fn wake_protocol(variant: Variant) -> Result<cbs_common::model::Stats, String> {
    let init = State {
        epoch: 0,
        i_pc: 0,
        wakers_to: 0,
        queued: [false; QUEUES],
        queue: 0,
        built: None,
        c_pc: RESET,
    };
    Explorer::new(init)
        .thread(installer_step)
        .thread(move |s: &mut State| consumer_step(s, variant))
        .invariant(|s| {
            let parked_for_good = s.c_pc == PARKED && !s.queued[s.queue] && installer_done(s);
            if parked_for_good && s.built != Some(s.epoch) {
                return Err(format!(
                    "parked on a stale topology: built from epoch {:?}, map at {}",
                    s.built, s.epoch
                ));
            }
            Ok(())
        })
        .run()
        .map_err(|cex| cex.to_string())
}

#[test]
fn reset_then_read_never_parks_on_a_stale_topology() {
    let stats = wake_protocol(Variant::ResetThenRead).expect("shipped order must verify clean");
    // Not a trivial pass: the consumer really is woken and rebuilds.
    assert!(stats.states > 50, "only {} states explored", stats.states);
    assert!(stats.complete_executions >= 1);
}

#[test]
fn read_then_reset_parks_on_a_stale_topology() {
    let err = wake_protocol(Variant::ReadThenReset)
        .expect_err("explorer must find the install whose wake the reset drops");
    assert!(err.contains("stale topology"), "unexpected violation: {err}");
}
