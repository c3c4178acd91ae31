//! Composition of die and channel occupancy into end-to-end operation
//! latencies.
//!
//! The scheduler implements the resource model used by the device:
//!
//! * **Read**: the die performs an array read (tR), then the channel
//!   transfers the page to the controller.  The die is released after the
//!   array read; the channel is busy only during the transfer.
//! * **Program**: the channel first transfers the page to the die's page
//!   register, then the die programs the array (tPROG).  The channel is
//!   released after the transfer.
//! * **Erase**: die-only.
//! * **Copyback**: die-only (internal read + program, no channel traffic) —
//!   this is exactly why GC under NoFTL prefers copybacks.
//! * **Metadata read**: array read + a tiny OOB transfer.

use crate::arbiter::ServiceClass;
use crate::die::{Channel, Die};
use crate::time::{Duration, SimTime};
use crate::timing::TimingModel;

/// Outcome of scheduling one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scheduled {
    /// When the operation actually started on the die.
    pub start: SimTime,
    /// When the result is available to the host (end-to-end completion).
    pub complete: SimTime,
    /// Die queue depth at issue time (1 = the die was idle).
    pub depth: u32,
    /// Whether the channel transfer landed in a recorded idle gap (only
    /// [`ServiceClass::Latency`] transfers backfill).
    pub backfilled: bool,
}

impl Scheduled {
    /// End-to-end latency relative to the issue time.
    pub fn latency(&self, issued_at: SimTime) -> Duration {
        self.complete - issued_at
    }
}

/// Schedule a page read: array read on the die, then transfer on the channel.
pub(crate) fn schedule_read(
    die: &mut Die,
    channel: &mut Channel,
    timing: &TimingModel,
    at: SimTime,
    bytes: u32,
    class: ServiceClass,
) -> Scheduled {
    let (start, array_done, depth) = die.reserve(at, timing.read_array_time());
    let xfer = timing.transfer_time(bytes);
    let (_, complete, backfilled) = channel.reserve(array_done, xfer, bytes as u64, class);
    Scheduled { start, complete, depth, backfilled }
}

/// Schedule a page program: transfer on the channel, then array program on
/// the die.
pub(crate) fn schedule_program(
    die: &mut Die,
    channel: &mut Channel,
    timing: &TimingModel,
    at: SimTime,
    bytes: u32,
    class: ServiceClass,
) -> Scheduled {
    let xfer = timing.transfer_time(bytes);
    let (start, xfer_done, backfilled) = channel.reserve(at, xfer, bytes as u64, class);
    let (_, complete, depth) = die.reserve(xfer_done, timing.program_array_time());
    Scheduled { start, complete, depth, backfilled }
}

/// Schedule a block erase (die-only).
pub(crate) fn schedule_erase(die: &mut Die, timing: &TimingModel, at: SimTime) -> Scheduled {
    let (start, complete, depth) = die.reserve(at, timing.erase_time());
    Scheduled { start, complete, depth, backfilled: false }
}

/// Schedule a copyback (die-only internal move).
pub(crate) fn schedule_copyback(die: &mut Die, timing: &TimingModel, at: SimTime) -> Scheduled {
    let (start, complete, depth) = die.reserve(at, timing.copyback_time());
    Scheduled { start, complete, depth, backfilled: false }
}

/// Schedule an OOB metadata read: array read plus a small transfer.
pub(crate) fn schedule_metadata_read(
    die: &mut Die,
    channel: &mut Channel,
    timing: &TimingModel,
    at: SimTime,
    oob_bytes: u32,
    class: ServiceClass,
) -> Scheduled {
    let (start, array_done, depth) = die.reserve(at, timing.read_array_time());
    let (_, complete, backfilled) =
        channel.reserve(array_done, timing.oob_transfer_time(), oob_bytes as u64, class);
    Scheduled { start, complete, depth, backfilled }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TP: ServiceClass = ServiceClass::Throughput;

    fn die() -> Die {
        Die::new(1, 4, 8)
    }

    #[test]
    fn read_latency_is_array_plus_transfer() {
        let mut d = die();
        let mut ch = Channel::default();
        let t = TimingModel::mlc_2015();
        let s = schedule_read(&mut d, &mut ch, &t, SimTime::ZERO, 4096, TP);
        let expected = t.read_array_time().as_us_f64() + t.transfer_time(4096).as_us_f64();
        assert!((s.latency(SimTime::ZERO).as_us_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn program_latency_is_transfer_plus_array() {
        let mut d = die();
        let mut ch = Channel::default();
        let t = TimingModel::mlc_2015();
        let s = schedule_program(&mut d, &mut ch, &t, SimTime::ZERO, 4096, TP);
        let expected = t.program_array_time().as_us_f64() + t.transfer_time(4096).as_us_f64();
        assert!((s.latency(SimTime::ZERO).as_us_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn copyback_avoids_the_channel() {
        let mut d = die();
        let ch = Channel::default();
        let t = TimingModel::mlc_2015();
        let s = schedule_copyback(&mut d, &t, SimTime::ZERO);
        assert_eq!(ch.bytes_transferred, 0);
        assert!(
            s.latency(SimTime::ZERO) < {
                // read + transfer out + transfer in + program (external move)
                t.read_array_time()
                    + t.transfer_time(4096)
                    + t.transfer_time(4096)
                    + t.program_array_time()
            }
        );
    }

    #[test]
    fn reads_to_different_dies_overlap() {
        let mut d1 = die();
        let mut d2 = die();
        let mut ch1 = Channel::default();
        let mut ch2 = Channel::default();
        let t = TimingModel::mlc_2015();
        let a = schedule_read(&mut d1, &mut ch1, &t, SimTime::ZERO, 4096, TP);
        let b = schedule_read(&mut d2, &mut ch2, &t, SimTime::ZERO, 4096, TP);
        // Same completion time: full parallelism across dies and channels.
        assert_eq!(a.complete, b.complete);
    }

    #[test]
    fn reads_to_same_die_serialize() {
        let mut d = die();
        let mut ch = Channel::default();
        let t = TimingModel::mlc_2015();
        let a = schedule_read(&mut d, &mut ch, &t, SimTime::ZERO, 4096, TP);
        let b = schedule_read(&mut d, &mut ch, &t, SimTime::ZERO, 4096, TP);
        assert!(b.complete > a.complete);
        // The array phases serialize, transfers pipeline after them.
        assert!(b.start >= a.start + t.read_array_time());
    }

    #[test]
    fn dies_sharing_a_channel_contend_on_transfers() {
        let mut d1 = die();
        let mut d2 = die();
        let mut shared = Channel::default();
        let t = TimingModel::mlc_2015();
        let a = schedule_read(&mut d1, &mut shared, &t, SimTime::ZERO, 4096, TP);
        let b = schedule_read(&mut d2, &mut shared, &t, SimTime::ZERO, 4096, TP);
        // Array reads overlap (different dies) but the second transfer must
        // queue behind the first on the shared channel.
        assert_eq!(b.complete, a.complete + t.transfer_time(4096));
    }

    #[test]
    fn erase_is_die_only() {
        let mut d = die();
        let t = TimingModel::mlc_2015();
        let s = schedule_erase(&mut d, &t, SimTime::from_us(7));
        assert_eq!(s.start, SimTime::from_us(7));
        assert_eq!(s.complete, SimTime::from_us(7) + t.erase_time());
    }

    #[test]
    fn metadata_read_is_cheaper_than_full_read() {
        let mut d1 = die();
        let mut d2 = die();
        let mut ch1 = Channel::default();
        let mut ch2 = Channel::default();
        let t = TimingModel::mlc_2015();
        let full = schedule_read(&mut d1, &mut ch1, &t, SimTime::ZERO, 4096, TP);
        let meta = schedule_metadata_read(&mut d2, &mut ch2, &t, SimTime::ZERO, 64, TP);
        assert!(meta.complete < full.complete);
    }
}
