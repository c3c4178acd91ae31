//! Command-queue submission API: explicit submit/poll/wait completion
//! handling over the native flash command set.
//!
//! The blocking methods on [`NandDevice`](crate::NandDevice) couple
//! issuing a command with consuming its result.  This module separates the
//! two, NVMe-style: a [`CommandQueue`] accepts [`FlashCommand`]s via
//! [`CommandQueue::submit`], which returns a [`CmdHandle`] immediately;
//! the outcome is retrieved later with [`CommandQueue::poll`],
//! [`CommandQueue::wait`] or [`CommandQueue::drain`].  Because the device
//! is sharded per die (see the device module docs), submissions that
//! target different dies execute without contending on any common lock —
//! a batch fanned over N dies really does proceed N-wide, in wall-clock
//! time as well as in the simulated timing model.
//!
//! The simulator is discrete-time: a command's array/channel occupancy is
//! computed eagerly at submission, so `submit` is where the per-die queue
//! of the timing model grows (visible as the queue-depth fields in
//! [`DeviceStats`](crate::DeviceStats) and the metrics).  Completion
//! retrieval never blocks; `wait` is named for its role in the protocol,
//! not for thread parking.
//!
//! ```
//! use flash_sim::queue::{CommandQueue, FlashCommand};
//! use flash_sim::{DeviceBuilder, FlashGeometry, PageMetadata, SimTime};
//! use std::sync::Arc;
//!
//! let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
//! let queue = CommandQueue::new(device.clone());
//! let data = vec![0xA5; device.geometry().page_size as usize];
//! let addr = flash_sim::PageAddr::new(flash_sim::DieId(0), 0, 0, 0);
//! let h = queue.submit(
//!     FlashCommand::Program { addr, data, meta: PageMetadata::new(1, 0) },
//!     SimTime::ZERO,
//! );
//! let completion = queue.wait(h).unwrap();
//! assert!(completion.result.is_ok());
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::addr::{BlockAddr, PageAddr};
use crate::arbiter::IoTag;
use crate::backend::FlashBackend;
use crate::device::OpOutcome;
use crate::error::FlashError;
use crate::lockorder::{self, LockClass, TrackedGuard};
use crate::metadata::PageMetadata;
use crate::obs::QueueObs;
use crate::time::SimTime;
use crate::Result;

/// Kind of a flash command, as counted per die and per class by the
/// device's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Page read (array read + channel transfer out).
    Read,
    /// Page program (channel transfer in + array program).
    Program,
    /// Block erase.
    Erase,
    /// Die-internal copyback.
    Copyback,
    /// OOB metadata read.
    MetadataRead,
}

/// One command of the device's native interface, in submission form.
#[derive(Debug, Clone)]
pub enum FlashCommand {
    /// `READ PAGE`: payload + OOB metadata.
    Read {
        /// Page to read.
        addr: PageAddr,
    },
    /// OOB-only metadata read (cheaper than a full page read).
    MetadataRead {
        /// Page whose OOB area to read.
        addr: PageAddr,
    },
    /// `PROGRAM PAGE` with payload and OOB metadata.
    Program {
        /// Target page (must be erased and sequential within its block).
        addr: PageAddr,
        /// Page payload (may be empty when the device stores no data).
        data: Vec<u8>,
        /// OOB metadata; a zero epoch is stamped by the device.
        meta: PageMetadata,
    },
    /// `ERASE BLOCK`.
    Erase {
        /// Block to erase.
        block: BlockAddr,
    },
    /// `COPYBACK` (die-internal page move).
    Copyback {
        /// Source page.
        src: PageAddr,
        /// Destination page (same die, erased, sequential).
        dst: PageAddr,
    },
}

impl FlashCommand {
    /// The die the command executes on (copybacks are same-die by rule;
    /// for a cross-die copyback this reports the source die and the
    /// device rejects the command at execution).
    pub fn die(&self) -> crate::addr::DieId {
        match self {
            FlashCommand::Read { addr }
            | FlashCommand::MetadataRead { addr }
            | FlashCommand::Program { addr, .. } => addr.die,
            FlashCommand::Erase { block } => block.die,
            FlashCommand::Copyback { src, .. } => src.die,
        }
    }

    /// The kind this command maps to.
    pub fn kind(&self) -> OpKind {
        match self {
            FlashCommand::Read { .. } => OpKind::Read,
            FlashCommand::MetadataRead { .. } => OpKind::MetadataRead,
            FlashCommand::Program { .. } => OpKind::Program,
            FlashCommand::Erase { .. } => OpKind::Erase,
            FlashCommand::Copyback { .. } => OpKind::Copyback,
        }
    }
}

/// Opaque ticket identifying a submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdHandle(u64);

impl CmdHandle {
    /// The raw submission sequence number (monotonic per queue).
    pub fn seq(&self) -> u64 {
        self.0
    }
}

/// Successful payload of a completed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Page payload (reads only; empty otherwise).
    pub data: Vec<u8>,
    /// OOB metadata (reads and metadata reads; `None` otherwise or when
    /// the page's OOB area was lost to a torn operation).
    pub meta: Option<PageMetadata>,
    /// Start/completion times of the operation.
    pub outcome: OpOutcome,
}

/// The completion record of one submitted command.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The handle returned at submission.
    pub handle: CmdHandle,
    /// What kind of command this was.
    pub kind: OpKind,
    /// When the command was submitted.
    pub issued_at: SimTime,
    /// The device's verdict: output on success, the flash error otherwise
    /// (power loss, bad block, NAND-rule violation, ...).
    pub result: Result<CmdOutput>,
}

impl Completion {
    /// When the command completed: the operation's completion time, or the
    /// issue time for commands that failed before occupying the die.
    pub fn completed_at(&self) -> SimTime {
        match &self.result {
            Ok(out) => out.outcome.completed_at,
            Err(_) => self.issued_at,
        }
    }
}

/// Per-die submission counters of a [`CommandQueue`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Commands submitted through this queue.
    pub submitted: u64,
    /// Completions already claimed via `poll`/`wait`/`drain`.
    pub claimed: u64,
    /// Submissions per die (indexed by die id).
    pub per_die_submitted: Vec<u64>,
}

struct QueueInner {
    next: u64,
    /// Commands whose `submit` has allocated a handle but not yet posted
    /// the completion (the device is executing between the two lock
    /// sections of `submit`).
    in_flight: u64,
    /// Completions not yet claimed by `poll`/`wait`/`drain`.
    completions: HashMap<u64, Completion>,
    stats: QueueStats,
}

/// A submission queue over a [`FlashBackend`] (a single
/// [`crate::NandDevice`] or a replicated mirror of them).
///
/// The queue is cheap: it owns no threads and copies no payloads beyond
/// what the command itself carries.  Several queues may share one device;
/// each keeps its own handle space and completion set, so independent
/// clients (e.g. one per region) never synchronise on a queue lock either.
/// Commands submitted by one thread to the same die execute in submission
/// order; commands to different dies are independent.  Concurrent
/// submitters racing for the *same* die are ordered by die-lock
/// acquisition, not by handle number — as with any multi-producer
/// hardware queue, callers that need a cross-thread order on one die must
/// provide it themselves.
pub struct CommandQueue {
    device: Arc<dyn FlashBackend>,
    inner: Mutex<QueueInner>,
    /// Pre-registered metric handles (atomics-only; see `crate::obs`).
    obs: QueueObs,
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.queue_shard();
        f.debug_struct("CommandQueue")
            .field("submitted", &inner.stats.submitted)
            .field("outstanding", &(inner.completions.len() + inner.in_flight as usize))
            .finish_non_exhaustive()
    }
}

impl CommandQueue {
    /// Create a queue over `device`.
    pub fn new(device: Arc<dyn FlashBackend>) -> Self {
        let dies = device.geometry().total_dies() as usize;
        let obs = QueueObs::new(Arc::clone(device.metrics()));
        CommandQueue {
            device,
            inner: Mutex::new(QueueInner {
                next: 0,
                in_flight: 0,
                completions: HashMap::new(),
                stats: QueueStats { submitted: 0, claimed: 0, per_die_submitted: vec![0; dies] },
            }),
            obs,
        }
    }

    /// The backend underneath the queue.
    pub fn device(&self) -> &Arc<dyn FlashBackend> {
        &self.device
    }

    /// Lock the queue's submission state.  This is the sole acquisition
    /// site of the queue lock; it is never held across device execution.
    fn queue_shard(&self) -> TrackedGuard<'_, QueueInner> {
        lockorder::lock_tracked(LockClass::Queue, &self.inner)
    }

    /// Submit one command issued at `at` and return its handle.
    ///
    /// Errors (including power loss tearing an in-flight command) are not
    /// reported here — they surface in the command's [`Completion`], like
    /// a real completion-queue entry's status field.  The queue lock is
    /// *not* held while the device executes, so concurrent submitters to
    /// different dies proceed in parallel.
    pub fn submit(&self, command: FlashCommand, at: SimTime) -> CmdHandle {
        self.submit_tagged(command, at, IoTag::default())
    }

    /// [`CommandQueue::submit`] carrying an arbiter [`IoTag`]: the tag's
    /// service class feeds the per-class queue-wait histograms and, on an
    /// arbiter-enabled device, drives admission (budget deferral for
    /// `Background`, gap backfill for foreground, exemption for
    /// durability traffic).
    pub fn submit_tagged(&self, command: FlashCommand, at: SimTime, tag: IoTag) -> CmdHandle {
        let die = command.die().0 as usize;
        let kind = command.kind();
        let handle = {
            let mut inner = self.queue_shard();
            let h = CmdHandle(inner.next);
            inner.next += 1;
            inner.in_flight += 1;
            inner.stats.submitted += 1;
            if let Some(slot) = inner.stats.per_die_submitted.get_mut(die) {
                *slot += 1;
            }
            h
        };
        let result = self.execute(&command, at, tag);
        let completion = Completion { handle, kind, issued_at: at, result };
        self.obs.note_completion(
            kind,
            tag.class,
            command.die(),
            at,
            completion.result.as_ref().ok().map(|out| out.outcome.completed_at),
        );
        // analyzer:allow(lock_order) two disjoint lock sections: the handle-allocation guard above is dropped before the device executes, then the completion is posted
        let mut inner = self.queue_shard();
        inner.in_flight -= 1;
        inner.completions.insert(handle.0, completion);
        handle
    }

    /// Submit a batch of commands, all issued at `at`.  Handles come back
    /// in submission order.
    pub fn submit_batch(
        &self,
        commands: impl IntoIterator<Item = FlashCommand>,
        at: SimTime,
    ) -> Vec<CmdHandle> {
        commands.into_iter().map(|c| self.submit(c, at)).collect()
    }

    fn execute(&self, command: &FlashCommand, at: SimTime, tag: IoTag) -> Result<CmdOutput> {
        match command {
            FlashCommand::Read { addr } => {
                let (data, meta, outcome) = self.device.read_page_tagged(*addr, at, tag)?;
                Ok(CmdOutput { data, meta, outcome })
            }
            FlashCommand::MetadataRead { addr } => {
                let (meta, outcome) = self.device.read_metadata_tagged(*addr, at, tag)?;
                Ok(CmdOutput { data: Vec::new(), meta, outcome })
            }
            FlashCommand::Program { addr, data, meta } => {
                let outcome = self.device.program_page_tagged(*addr, data, *meta, at, tag)?;
                Ok(CmdOutput { data: Vec::new(), meta: None, outcome })
            }
            FlashCommand::Erase { block } => {
                let outcome = self.device.erase_block(*block, at)?;
                Ok(CmdOutput { data: Vec::new(), meta: None, outcome })
            }
            FlashCommand::Copyback { src, dst } => {
                let outcome = self.device.copyback(*src, *dst, at)?;
                Ok(CmdOutput { data: Vec::new(), meta: None, outcome })
            }
        }
    }

    /// Claim the completion of `handle` if it is ready, removing it from
    /// the queue.  Returns `None` for a handle that is unknown, already
    /// claimed, or still outstanding.
    pub fn poll(&self, handle: CmdHandle) -> Option<Completion> {
        let mut inner = self.queue_shard();
        let c = inner.completions.remove(&handle.0);
        if c.is_some() {
            inner.stats.claimed += 1;
        }
        c
    }

    /// Claim the completion of `handle`, failing on a handle that was
    /// never issued by this queue or was already claimed.
    pub fn wait(&self, handle: CmdHandle) -> Result<Completion> {
        self.poll(handle).ok_or(FlashError::UnknownHandle { handle: handle.0 })
    }

    /// Claim every posted completion, ordered by completion time (ties
    /// broken by submission order) — the natural order to fold a fan-out
    /// batch back into a single "batch done" time.
    ///
    /// A command whose `submit` call is still executing on another thread
    /// is not included (its completion is posted when that `submit`
    /// returns); check [`CommandQueue::outstanding`], which counts such
    /// in-flight commands, before treating a drain as complete.
    pub fn drain(&self) -> Vec<Completion> {
        let mut inner = self.queue_shard();
        let mut all: Vec<Completion> = inner.completions.drain().map(|(_, c)| c).collect();
        inner.stats.claimed += all.len() as u64;
        all.sort_by_key(|c| (c.completed_at(), c.handle));
        all
    }

    /// Number of commands submitted but not yet claimed: posted
    /// completions plus commands whose `submit` is still executing on
    /// another thread.
    pub fn outstanding(&self) -> usize {
        let inner = self.queue_shard();
        inner.completions.len() + inner.in_flight as usize
    }

    /// Submission counters.
    pub fn stats(&self) -> QueueStats {
        self.queue_shard().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DieId;
    use crate::geometry::FlashGeometry;
    use crate::timing::TimingModel;
    use crate::DeviceBuilder;

    fn queue() -> CommandQueue {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        CommandQueue::new(device)
    }

    fn paddr(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr::new(DieId(die), 0, block, page)
    }

    fn payload(q: &CommandQueue, b: u8) -> Vec<u8> {
        vec![b; q.device().geometry().page_size as usize]
    }

    #[test]
    fn submit_wait_roundtrip() {
        let q = queue();
        let data = payload(&q, 0x42);
        let h = q.submit(
            FlashCommand::Program {
                addr: paddr(0, 0, 0),
                data: data.clone(),
                meta: PageMetadata::new(1, 7),
            },
            SimTime::ZERO,
        );
        let c = q.wait(h).unwrap();
        assert_eq!(c.kind, OpKind::Program);
        let done = c.result.unwrap().outcome.completed_at;
        assert!(done > SimTime::ZERO);
        let h2 = q.submit(FlashCommand::Read { addr: paddr(0, 0, 0) }, done);
        let c2 = q.wait(h2).unwrap();
        let out = c2.result.unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.meta.unwrap().logical_page, 7);
        // Claiming twice fails.
        assert!(matches!(q.wait(h2), Err(FlashError::UnknownHandle { .. })));
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn errors_surface_in_the_completion_not_the_submit() {
        let q = queue();
        let h = q.submit(FlashCommand::Read { addr: paddr(0, 0, 0) }, SimTime::ZERO);
        let c = q.wait(h).unwrap();
        assert!(matches!(c.result, Err(FlashError::UnwrittenPage { .. })));
        assert_eq!(c.completed_at(), SimTime::ZERO, "failed op charges no time");
    }

    #[test]
    fn fanout_over_dies_completes_in_parallel() {
        let q = queue();
        // One program per die, all submitted at t=0.
        let handles = q.submit_batch(
            (0..4).map(|die| FlashCommand::Program {
                addr: paddr(die, 0, 0),
                data: vec![die as u8; 4096],
                meta: PageMetadata::new(1, die as u64),
            }),
            SimTime::ZERO,
        );
        assert_eq!(q.outstanding(), 4);
        let completions: Vec<Completion> = q.drain();
        assert_eq!(completions.len(), 4);
        // small_test has 2 dies per channel: within a channel the transfers
        // serialize, across channels everything overlaps.  The batch must
        // finish well before 4 serial programs would.
        let t = q.device().timing();
        let serial = SimTime::ZERO
            + t.transfer_time(4096)
            + t.program_array_time()
            + t.transfer_time(4096)
            + t.program_array_time();
        let batch_done = completions.last().unwrap().completed_at();
        assert!(
            batch_done < serial,
            "4-die fan-out ({batch_done}) must beat 2 serial programs ({serial})"
        );
        for c in &completions {
            assert!(c.result.is_ok());
        }
        let _ = handles;
        let s = q.stats();
        assert_eq!(s.submitted, 4);
        assert_eq!(s.claimed, 4);
        assert_eq!(s.per_die_submitted, vec![1, 1, 1, 1]);
    }

    #[test]
    fn same_die_commands_execute_in_submission_order() {
        let q = queue();
        let hs = q.submit_batch(
            (0..4).map(|p| FlashCommand::Program {
                addr: paddr(0, 0, p),
                data: vec![p as u8; 4096],
                meta: PageMetadata::new(1, p as u64),
            }),
            SimTime::ZERO,
        );
        let mut last = SimTime::ZERO;
        for h in hs {
            let done = q.wait(h).unwrap().result.unwrap().outcome.completed_at;
            assert!(done > last, "per-die FIFO order");
            last = done;
        }
        // The device saw the queue build up.
        assert_eq!(q.device().stats().queue_depth_hwm, 4);
    }

    #[test]
    fn drain_orders_by_completion_time() {
        let q = queue();
        // Erase (slow) on die 0, program (fast) on die 1, read error on die 2.
        let h_erase =
            q.submit(FlashCommand::Erase { block: BlockAddr::new(DieId(0), 0, 0) }, SimTime::ZERO);
        let h_prog = q.submit(
            FlashCommand::Program {
                addr: paddr(1, 0, 0),
                data: vec![1; 4096],
                meta: PageMetadata::new(1, 0),
            },
            SimTime::ZERO,
        );
        let h_err = q.submit(FlashCommand::MetadataRead { addr: paddr(2, 99, 0) }, SimTime::ZERO);
        let drained = q.drain();
        let order: Vec<CmdHandle> = drained.iter().map(|c| c.handle).collect();
        // The failed command "completes" at its issue time (t=0), the
        // program before the erase.
        assert_eq!(order, vec![h_err, h_prog, h_erase]);
        assert!(drained[0].result.is_err());
    }

    #[test]
    fn copyback_and_metadata_read_submit_through_the_queue() {
        let q = queue();
        let h = q.submit(
            FlashCommand::Program {
                addr: paddr(1, 0, 0),
                data: payload(&q, 9),
                meta: PageMetadata::new(3, 5),
            },
            SimTime::ZERO,
        );
        let done = q.wait(h).unwrap().result.unwrap().outcome.completed_at;
        let h = q.submit(FlashCommand::Copyback { src: paddr(1, 0, 0), dst: paddr(1, 1, 0) }, done);
        let done = q.wait(h).unwrap().result.unwrap().outcome.completed_at;
        let h = q.submit(FlashCommand::MetadataRead { addr: paddr(1, 1, 0) }, done);
        let c = q.wait(h).unwrap();
        assert_eq!(c.result.unwrap().meta.unwrap().logical_page, 5);
    }
}
