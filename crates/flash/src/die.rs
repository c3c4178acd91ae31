//! Die and plane state.
//!
//! A die is the unit of command parallelism: it executes one array
//! operation (read, program, erase, copyback) at a time, tracked by a
//! `busy_until` timestamp.  Planes within a die share this command logic
//! but hold independent block arrays.

use std::collections::VecDeque;

use crate::arbiter::ServiceClass;
use crate::block::Block;
use crate::time::{Duration, SimTime};

/// One plane: an independent array of erase blocks.
#[derive(Debug)]
pub(crate) struct Plane {
    pub blocks: Vec<Block>,
}

impl Plane {
    pub(crate) fn new(blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Plane { blocks: (0..blocks_per_plane).map(|_| Block::new(pages_per_block)).collect() }
    }
}

/// One die: a set of planes plus the timing/occupancy state used by the
/// scheduler.
#[derive(Debug)]
pub(crate) struct Die {
    pub planes: Vec<Plane>,
    /// The die is executing an array operation until this instant.
    pub busy_until: SimTime,
    /// Total time the die has spent executing array operations.
    pub busy_time: Duration,
    /// Total array operations executed (reads + programs + erases + copybacks).
    pub ops: u64,
    /// Completion times of operations still in flight (in simulated time)
    /// relative to the most recent issue; completion times are monotone
    /// because a die executes one array operation at a time.
    pub inflight: VecDeque<SimTime>,
    /// Deepest the die's command queue has ever been (including the
    /// operation being issued).
    pub queue_depth_hwm: u32,
}

impl Die {
    pub(crate) fn new(planes_per_die: u32, blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Die {
            planes: (0..planes_per_die)
                .map(|_| Plane::new(blocks_per_plane, pages_per_block))
                .collect(),
            busy_until: SimTime::ZERO,
            busy_time: Duration::ZERO,
            ops: 0,
            inflight: VecDeque::new(),
            queue_depth_hwm: 0,
        }
    }

    /// Number of operations still executing (or queued) on this die as of
    /// `at`: the in-flight completion times later than `at`.  A pure
    /// observation — nothing is pruned, so load snapshots never perturb
    /// the timing state.
    pub(crate) fn pending_at(&self, at: SimTime) -> u32 {
        self.inflight.iter().filter(|done| **done > at).count() as u32
    }

    /// Reserve the die for an array operation of length `dur` starting no
    /// earlier than `at`.  Returns `(start, end, depth)` of the operation,
    /// where `depth` is the die's queue depth at issue time (1 = the die
    /// was idle, N = this operation queued behind N-1 others).
    pub(crate) fn reserve(&mut self, at: SimTime, dur: Duration) -> (SimTime, SimTime, u32) {
        let start = at.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        self.ops += 1;
        while self.inflight.front().is_some_and(|done| *done <= at) {
            self.inflight.pop_front();
        }
        self.inflight.push_back(end);
        let depth = self.inflight.len() as u32;
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth);
        (start, end, depth)
    }
}

/// Upper bound on remembered idle gaps per channel (oldest evicted first).
const MAX_GAPS: usize = 32;

/// Channel occupancy state: the bus shared by all dies of a channel for
/// data transfers between controller and page registers.
///
/// Transfers append at `busy_until`; one that starts past it leaves the
/// channel idle in between, and that idle window is recorded.  Only a
/// [`ServiceClass::Latency`] transfer reuses recorded windows: it takes
/// the first one it fits in.  Every other class appends, so a sequence
/// without `Latency` traffic is scheduled exactly like a plain FIFO bus.
#[derive(Debug, Default)]
pub(crate) struct Channel {
    pub busy_until: SimTime,
    pub busy_time: Duration,
    pub bytes_transferred: u64,
    /// Idle windows `(start, end)` left behind by transfers that started
    /// past `busy_until`, in recording order, at most [`MAX_GAPS`].
    gaps: Vec<(SimTime, SimTime)>,
}

impl Channel {
    /// Reserve the channel for a transfer of length `dur` starting no
    /// earlier than `at`.  Returns `(start, end, backfilled)`;
    /// `backfilled` is true when a `Latency` transfer landed inside a
    /// recorded gap instead of extending `busy_until`.
    pub(crate) fn reserve(
        &mut self,
        at: SimTime,
        dur: Duration,
        bytes: u64,
        class: ServiceClass,
    ) -> (SimTime, SimTime, bool) {
        self.busy_time += dur;
        self.bytes_transferred += bytes;
        // Gaps ending by `at` simply never match first-fit.  They are not
        // pruned by `at`: with eager execution a tenant running far ahead
        // in simulated time issues its transfers before (in call order) a
        // neighbor's sim-earlier ones, and pruning by this op's `at` would
        // destroy exactly the gaps the neighbor's traffic needs.
        let fit = match class {
            ServiceClass::Latency => {
                self.gaps.iter().position(|(gs, ge)| (*gs).max(at) + dur <= *ge)
            }
            ServiceClass::Throughput | ServiceClass::Background => None,
        };
        if let Some(i) = fit {
            let (gs, ge) = self.gaps.remove(i);
            let start = gs.max(at);
            let end = start + dur;
            // Keep the unused halves of the gap available.
            if end < ge {
                self.gaps.insert(i, (end, ge));
            }
            if start > gs {
                self.gaps.insert(i, (gs, start));
            }
            self.evict_oldest_gaps();
            return (start, end, true);
        }
        if at > self.busy_until {
            self.gaps.push((self.busy_until, at));
            self.evict_oldest_gaps();
        }
        let start = at.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        (start, end, false)
    }

    /// Enforce [`MAX_GAPS`] after an insert, dropping the oldest gaps.
    fn evict_oldest_gaps(&mut self) {
        let excess = self.gaps.len().saturating_sub(MAX_GAPS);
        self.gaps.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn die_reserve_serializes_operations() {
        let mut die = Die::new(1, 4, 8);
        let (s1, e1, d1) = die.reserve(SimTime::from_us(0), Duration::from_us(100));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_us(100));
        assert_eq!(d1, 1, "idle die: depth 1");
        // A second op issued at t=10 must wait until the first finishes.
        let (s2, e2, d2) = die.reserve(SimTime::from_us(10), Duration::from_us(50));
        assert_eq!(s2, SimTime::from_us(100));
        assert_eq!(e2, SimTime::from_us(150));
        assert_eq!(d2, 2, "second op queues behind the first");
        assert_eq!(die.ops, 2);
        assert_eq!(die.busy_time.as_us_f64(), 150.0);
        assert_eq!(die.queue_depth_hwm, 2);
    }

    #[test]
    fn die_idle_gap_is_not_counted_busy() {
        let mut die = Die::new(1, 4, 8);
        die.reserve(SimTime::from_us(0), Duration::from_us(10));
        // Issued long after the die went idle.
        let (s, _, depth) = die.reserve(SimTime::from_us(500), Duration::from_us(10));
        assert_eq!(s, SimTime::from_us(500));
        assert_eq!(depth, 1, "completed ops have left the queue");
        assert_eq!(die.busy_time.as_us_f64(), 20.0);
        assert_eq!(die.queue_depth_hwm, 1);
    }

    const TP: ServiceClass = ServiceClass::Throughput;
    const LAT: ServiceClass = ServiceClass::Latency;

    #[test]
    fn channel_reserve_tracks_bytes() {
        let mut ch = Channel::default();
        ch.reserve(SimTime::ZERO, Duration::from_us(10), 4096, TP);
        ch.reserve(SimTime::ZERO, Duration::from_us(10), 4096, TP);
        assert_eq!(ch.bytes_transferred, 8192);
        assert_eq!(ch.busy_until, SimTime::from_us(20));
    }

    #[test]
    fn appends_record_gaps_and_latency_transfers_backfill_them() {
        let mut ch = Channel::default();
        // A transfer issued at t=100 on an idle channel opens the gap
        // [0, 100).
        let (s, e, bf) = ch.reserve(SimTime(100), Duration(50), 4096, ServiceClass::Background);
        assert_eq!((s, e, bf), (SimTime(100), SimTime(150), false));
        // A throughput transfer never backfills, even where it would fit.
        let (s, _, bf) = ch.reserve(SimTime(10), Duration(5), 4096, TP);
        assert_eq!((s, bf), (SimTime(150), false));
        // A latency transfer that fits the gap lands inside it without
        // touching busy_until.
        let (s, e, bf) = ch.reserve(SimTime(10), Duration(40), 4096, LAT);
        assert_eq!((s, e, bf), (SimTime(10), SimTime(50), true));
        assert_eq!(ch.busy_until, SimTime(155));
        // The gap's unused halves remain: [0,10) and [50,100).
        let (s, _, bf) = ch.reserve(SimTime(0), Duration(45), 64, LAT);
        assert_eq!((s, bf), (SimTime(50), true));
        // Nothing left that fits 60 ns — falls through to an append.
        let (s, _, bf) = ch.reserve(SimTime(0), Duration(60), 64, LAT);
        assert_eq!((s, bf), (SimTime(155), false));
    }

    #[test]
    fn gap_list_is_bounded() {
        let mut ch = Channel::default();
        // Open exactly MAX_GAPS gaps of 900 ns each.
        for i in 0..MAX_GAPS as u64 {
            ch.reserve(SimTime(i * 1_000 + 900), Duration(100), 64, TP);
        }
        assert_eq!(ch.gaps.len(), MAX_GAPS);
        // A latency transfer in the middle of the first gap splits it in
        // two, one more entry than before the insert.
        let (_, _, bf) = ch.reserve(SimTime(100), Duration(10), 64, LAT);
        assert!(bf);
        // Every later gap-opening append must keep the bound.
        let base = MAX_GAPS as u64 * 1_000;
        for i in 0..100u64 {
            ch.reserve(SimTime(base + i * 1_000 + 900), Duration(100), 64, TP);
            assert!(ch.gaps.len() <= MAX_GAPS, "gap list grew to {}", ch.gaps.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Calendar invariants of the one reservation path over random
        /// `(at, dur, class)` sequences: (a) no two reserved intervals
        /// overlap, (b) no transfer starts before it was issued, and (c)
        /// without `Latency` transfers every start and end is exactly a
        /// plain FIFO append's.
        #[test]
        fn channel_calendar_invariants(
            ops in prop::collection::vec((0u64..20_000, 1u64..2_000, 0u8..3), 1..120),
        ) {
            let mut ch = Channel::default();
            let mut fifo_busy = SimTime::ZERO;
            let any_latency = ops.iter().any(|op| op.2 == 0);
            let mut reserved: Vec<(SimTime, SimTime)> = Vec::new();
            for (i, &(at, dur, class)) in ops.iter().enumerate() {
                let class = ServiceClass::from_code(class).unwrap();
                let (at, dur) = (SimTime(at), Duration(dur));
                let (start, end, _) = ch.reserve(at, dur, 64, class);
                prop_assert!(start >= at, "op {} started at {:?} before issue {:?}", i, start, at);
                prop_assert_eq!(end, start + dur);
                for (s, e) in &reserved {
                    prop_assert!(
                        end <= *s || start >= *e,
                        "op {} [{:?},{:?}) overlaps [{:?},{:?})",
                        i, start, end, s, e
                    );
                }
                reserved.push((start, end));
                let fifo_start = at.max(fifo_busy);
                fifo_busy = fifo_start + dur;
                if !any_latency {
                    prop_assert_eq!((start, end), (fifo_start, fifo_busy));
                }
            }
        }
    }

    #[test]
    fn plane_holds_blocks() {
        let p = Plane::new(16, 8);
        assert_eq!(p.blocks.len(), 16);
        assert_eq!(p.blocks[0].pages.len(), 8);
    }
}
