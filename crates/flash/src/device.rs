//! The simulated NAND device and its native command interface.
//!
//! [`NandDevice`] is the single entry point used by both flash management
//! layers in this repository: the traditional FTL (`ftl-sim`) and the
//! NoFTL storage manager (`noftl-core`).  It enforces NAND programming
//! rules, models per-die/per-channel timing, tracks wear and maintains
//! the statistics needed to reproduce the paper's evaluation.
//!
//! ## Concurrency model
//!
//! Device state is sharded by die: every die (planes, blocks, busy clock)
//! lives behind its own mutex, every channel behind its own, and only a
//! thin shared section (aggregate statistics) is device-global.
//! Concurrent clients operating on different dies
//! therefore never contend on a common lock — the host-side analogue of
//! the die-level parallelism the timing model already exposes.  The lock
//! hierarchy is fixed (die → channel → shared) so operations that touch a
//! die and its channel cannot deadlock.  Every acquisition goes through
//! one choke point per class (`die_shard`, `channel_shard`,
//! `shared_shard`, `lock_all_dies`), which the [`crate::lockorder`]
//! sanitizer checks against the documented order in debug builds and the
//! `noftl-analyzer` lock-order rule checks statically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use noftl_obs::MetricsRegistry;
use parking_lot::Mutex;

use crate::addr::{BlockAddr, DieId, PageAddr};
use crate::arbiter::{ArbiterConfig, IoTag, ServiceClass, TokenBucket};
use crate::badblock::BadBlockPolicy;
use crate::block::{Block, BlockInfo, BlockSnapshot, BlockState, PageState};
use crate::die::{Channel, ChannelPolicy, Die};
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::lockorder::{self, LockClass, TrackedGuard};
use crate::metadata::PageMetadata;
use crate::obs::{ArbiterObs, DeviceObs};
use crate::queue::OpKind;
use crate::sched;
use crate::stats::{DeviceStats, DieStats, UtilizationSummary, WearSummary};
use crate::time::{Duration, SimTime};
use crate::timing::TimingModel;
use crate::Result;

/// Sentinel for "no power cut armed" in the atomic cut register.
const POWER_CUT_NONE: u64 = u64::MAX;

/// Result of a successfully scheduled flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// When the operation started executing on the die.
    pub started_at: SimTime,
    /// When the operation completed (result available to the host).
    pub completed_at: SimTime,
}

/// Instantaneous load of one die, as reported by [`NandDevice::die_load`]
/// and [`NandDevice::die_loads`]: the input of queue-aware write
/// placement.  `busy_until` is the instant the die's accepted work drains;
/// `queue_depth` counts the commands still in flight at the observation
/// time (0 = idle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DieLoad {
    /// The die is executing accepted operations until this instant.
    pub busy_until: SimTime,
    /// Commands in flight (executing or queued) at the observation time.
    pub queue_depth: u32,
}

impl DieLoad {
    /// Earliest instant an operation issued at `at` could start on this
    /// die — the sort key queue-aware placement orders dies by.
    pub fn earliest_start(&self, at: SimTime) -> SimTime {
        self.busy_until.max(at)
    }
}

/// Builder for [`NandDevice`].
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    geometry: FlashGeometry,
    timing: TimingModel,
    bad_blocks: BadBlockPolicy,
    store_data: bool,
    strict_copyback_plane: bool,
    metrics: Option<Arc<MetricsRegistry>>,
    arbiter: Option<ArbiterConfig>,
}

impl DeviceBuilder {
    /// Start building a device with the given geometry and default timing.
    pub fn new(geometry: FlashGeometry) -> Self {
        DeviceBuilder {
            geometry,
            timing: TimingModel::default(),
            bad_blocks: BadBlockPolicy::none(),
            store_data: true,
            strict_copyback_plane: false,
            metrics: None,
            arbiter: None,
        }
    }

    /// Use a specific timing model.
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Use a specific bad-block / endurance policy.
    pub fn bad_blocks(mut self, policy: BadBlockPolicy) -> Self {
        self.bad_blocks = policy;
        self
    }

    /// Whether the device stores page payloads (true by default).  Disable
    /// for pure performance experiments that never read data back.
    pub fn store_data(mut self, store: bool) -> Self {
        self.store_data = store;
        self
    }

    /// Require copyback source and destination to share a plane (real
    /// devices often do); off by default.
    pub fn strict_copyback_plane(mut self, strict: bool) -> Self {
        self.strict_copyback_plane = strict;
        self
    }

    /// Enable the cross-region I/O arbiter with the given tuning: per-
    /// region channel-bandwidth budgets for `Background`-class transfers
    /// plus gap backfilling for foreground traffic.  Off by default —
    /// without it, tagged submissions schedule byte-identically to
    /// untagged ones.
    pub fn arbiter(mut self, config: ArbiterConfig) -> Self {
        self.arbiter = Some(config);
        self
    }

    /// Record metrics into an existing registry (e.g.
    /// [`noftl_obs::global()`], or one shared across devices).  By
    /// default each device gets its own enabled registry, so tests and
    /// benches observe only their own stack.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Build the device.
    ///
    /// # Panics
    /// Panics if the geometry fails validation; geometry errors are
    /// programming errors, not runtime conditions.
    pub fn build(self) -> NandDevice {
        // analyzer:allow(panic_freedom) geometry failures are programming errors, documented under `# Panics`
        self.geometry.validate().unwrap_or_else(|e| panic!("invalid flash geometry: {e}"));
        let g = self.geometry;
        let mut dies: Vec<Die> = (0..g.total_dies())
            .map(|_| Die::new(g.planes_per_die, g.blocks_per_plane, g.pages_per_block))
            .collect();
        // Mark factory-bad blocks.
        let total_blocks = g.total_blocks();
        for idx in self.bad_blocks.factory_bad_blocks(total_blocks) {
            let blocks_per_die = g.blocks_per_die() as u64;
            let die = (idx / blocks_per_die) as u32;
            let within = idx % blocks_per_die;
            let plane = (within / g.blocks_per_plane as u64) as u32;
            let block = (within % g.blocks_per_plane as u64) as u32;
            dies[die as usize].planes[plane as usize].blocks[block as usize].state =
                BlockState::Bad;
        }
        let registry = self.metrics.unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let arbiter = self.arbiter.map(|config| ArbiterSlot {
            config,
            obs: ArbiterObs::new(&registry),
            state: Mutex::new(ArbiterState { buckets: std::collections::HashMap::new() }),
        });
        NandDevice {
            geometry: g,
            timing: self.timing,
            endurance: self.bad_blocks.endurance_cycles,
            store_data: self.store_data,
            strict_copyback_plane: self.strict_copyback_plane,
            dies: dies.into_iter().map(Mutex::new).collect(),
            channels: (0..g.channels).map(|_| Mutex::new(Channel::default())).collect(),
            epoch: AtomicU64::new(0),
            power_cut: AtomicU64::new(POWER_CUT_NONE),
            shared: Mutex::new(DeviceStats::default()),
            touched: (0..g.total_dies()).map(|_| AtomicBool::new(false)).collect(),
            obs: DeviceObs::new(registry, g.total_dies()),
            arbiter,
        }
    }
}

/// Admission state of an arbiter-enabled device: one token bucket per
/// `(region, channel)` pair, created on first use.
struct ArbiterState {
    buckets: std::collections::HashMap<(u32, u32), TokenBucket>,
}

/// The arbiter of an enabled device: tuning, admission state behind its
/// own lock class, and pre-bound decision counters.
struct ArbiterSlot {
    config: ArbiterConfig,
    state: Mutex<ArbiterState>,
    obs: ArbiterObs,
}

/// A complete image of the device state, used both as a read-only summary
/// (tests, examples and report generators read `stats`/`die_stats`/`wear`)
/// and as the persistence unit of the crash-consistency subsystem: the
/// snapshot captures every block's pages, OOB metadata and wear, can be
/// saved to / loaded from a file-backed image (see [`DeviceSnapshot::save`])
/// and turned back into a live device with [`NandDevice::from_snapshot`] —
/// the simulator's equivalent of power-cycling the board.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// Aggregate operation statistics.
    pub stats: DeviceStats,
    /// Per-die utilisation.
    pub die_stats: Vec<DieStats>,
    /// Wear distribution summary.
    pub wear: WearSummary,
    /// The device geometry (needed to rebuild the device).
    pub geometry: FlashGeometry,
    /// Device-wide write epoch counter at capture time.
    pub epoch: u64,
    /// Whether the device stores page payloads.
    pub store_data: bool,
    /// Per-block endurance budget.
    pub endurance: u64,
    /// Every block of the device in `(die, plane, block)` row-major order.
    pub blocks: Vec<BlockSnapshot>,
}

/// The simulated native NAND flash device.
///
/// All methods take the host's issue time and return an [`OpOutcome`]
/// carrying the completion time; the device never blocks real threads.
/// The device is `Send + Sync` with per-die lock shards: concurrent
/// clients whose operations target different dies proceed without
/// contending on any common lock (see the module docs), which is what the
/// submission-queue API in [`crate::queue`] builds on.
pub struct NandDevice {
    geometry: FlashGeometry,
    timing: TimingModel,
    endurance: u64,
    store_data: bool,
    strict_copyback_plane: bool,
    /// Per-die shards: planes, blocks and the die's busy clock.
    dies: Vec<Mutex<Die>>,
    /// Per-channel transfer-bus occupancy.
    channels: Vec<Mutex<Channel>>,
    /// Device-wide write sequence number, stamped into page metadata when
    /// the caller does not supply an epoch.
    epoch: AtomicU64,
    /// When armed, the simulated instant at which the device loses power
    /// (nanoseconds; `POWER_CUT_NONE` when disarmed): operations issued at
    /// or after it fail with `FlashError::PowerLoss`, and an operation
    /// still in flight at that instant is torn.
    power_cut: AtomicU64,
    /// Aggregate statistics: the device-global shared section, kept to a
    /// few counter bumps per operation.
    shared: Mutex<DeviceStats>,
    /// Per-die "ever programmed/erased" flags (lock-free), kept so
    /// `NoFtl::mount` can skip the OOB scan of dies that never held data.
    touched: Vec<AtomicBool>,
    /// Pre-registered metric handles (atomics-only; see `crate::obs`).
    obs: DeviceObs,
    /// Cross-region I/O arbiter (None = disabled, the pre-arbiter path).
    arbiter: Option<ArbiterSlot>,
}

impl std::fmt::Debug for NandDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NandDevice")
            .field("geometry", &self.geometry)
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl NandDevice {
    /// Device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The device's metrics registry (shared by the whole stack above:
    /// the command queue, `NoFtl` and the storage engine all record
    /// here).  Snapshot it, export it, or flip its tracer on.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.obs.registry()
    }

    /// The armed power-cut instant, if any (atomic read).
    fn cut_instant(&self) -> Option<SimTime> {
        let v = self.power_cut.load(Ordering::Acquire);
        (v != POWER_CUT_NONE).then_some(SimTime(v))
    }

    /// Record a failed operation in the aggregate statistics.
    fn note_error(&self) {
        self.shared_shard().errors += 1;
    }

    /// Fail if the device has already lost power at `at`.
    fn check_powered(&self, at: SimTime) -> Result<()> {
        match self.cut_instant() {
            Some(cut) if at >= cut => {
                self.note_error();
                Err(FlashError::PowerLoss { at: cut })
            }
            _ => Ok(()),
        }
    }

    fn check_page(&self, addr: PageAddr) -> Result<()> {
        if self.geometry.contains_page(addr) {
            Ok(())
        } else {
            Err(FlashError::oob(addr))
        }
    }

    fn check_block(&self, addr: BlockAddr) -> Result<()> {
        if self.geometry.contains_block(addr) {
            Ok(())
        } else {
            Err(FlashError::oob(addr))
        }
    }

    /// Lock the shard owning `die`.  Addresses are bounds-checked before
    /// this is called.  This is the sole acquisition site of die shards.
    fn die_shard(&self, die: DieId) -> TrackedGuard<'_, Die> {
        lockorder::lock_tracked(LockClass::Die(die.0), &self.dies[die.0 as usize])
    }

    /// Lock channel `ch`'s transfer-bus shard.  This is the sole
    /// acquisition site of channel shards; it must only be reached while
    /// no later-ordered lock is held.
    fn channel_shard(&self, ch: u32) -> TrackedGuard<'_, Channel> {
        lockorder::lock_tracked(LockClass::Channel(ch), &self.channels[ch as usize])
    }

    /// Lock the device-global shared section (aggregate stats).  This is
    /// the sole acquisition site of the shared shard and the last lock in
    /// the documented order.
    fn shared_shard(&self) -> TrackedGuard<'_, DeviceStats> {
        lockorder::lock_tracked(LockClass::Shared, &self.shared)
    }

    /// Lock the arbiter's admission state.  This is the sole acquisition
    /// site of the arbiter lock; it sits between the queue and the die
    /// shards in the documented order and is always released before any
    /// die or channel lock is taken.
    fn arbiter_shard<'a>(&self, slot: &'a ArbiterSlot) -> TrackedGuard<'a, ArbiterState> {
        let _ = self;
        lockorder::lock_tracked(LockClass::Arbiter, &slot.state)
    }

    /// Whether the cross-region arbiter is enabled on this device.
    pub fn arbiter_enabled(&self) -> bool {
        self.arbiter.is_some()
    }

    /// Decide the issue time and channel policy of a tagged transfer op
    /// whose channel occupancy is `xfer`.  With the arbiter disabled this
    /// is the identity: issue at `at`, schedule exactly as before.
    fn admit(
        &self,
        tag: IoTag,
        region_channel: u32,
        xfer: Duration,
        at: SimTime,
    ) -> (SimTime, ChannelPolicy) {
        let Some(slot) = &self.arbiter else {
            return (at, ChannelPolicy::Direct);
        };
        slot.obs.note_class(tag.class);
        if tag.exempt {
            slot.obs.exempt.inc();
            return (at, ChannelPolicy::Backfill);
        }
        match tag.class {
            ServiceClass::Latency | ServiceClass::Throughput => (at, ChannelPolicy::Backfill),
            ServiceClass::Background => {
                let key = (tag.region.unwrap_or(u32::MAX), region_channel);
                let admission = {
                    let mut state = self.arbiter_shard(slot);
                    let bucket =
                        state.buckets.entry(key).or_insert_with(|| TokenBucket::new(&slot.config));
                    bucket.admit(&slot.config, at, xfer.as_nanos())
                };
                if admission.deferred {
                    slot.obs.deferred.inc();
                    slot.obs.deferral_ns.add(admission.issue.as_nanos() - at.as_nanos());
                    if admission.aged {
                        slot.obs.aging_capped.inc();
                    }
                }
                (admission.issue, ChannelPolicy::Append)
            }
        }
    }

    /// Record a backfilled transfer (arbiter-enabled devices only).
    fn note_backfill(&self, backfilled: bool) {
        if backfilled {
            if let Some(slot) = &self.arbiter {
                slot.obs.backfills.inc();
            }
        }
    }

    /// Read a page: returns the payload (empty if the device does not store
    /// data), its OOB metadata, and the operation outcome.
    pub fn read_page(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.read_page_tagged(addr, at, IoTag::default())
    }

    /// [`NandDevice::read_page`] carrying an arbiter [`IoTag`].  On an
    /// arbiter-enabled device a `Background` tag runs the channel
    /// transfer through its region's bandwidth budget (possibly deferring
    /// the operation) while foreground tags may backfill idle gaps; with
    /// the arbiter disabled the tag is ignored.
    pub fn read_page_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.check_page(addr)?;
        self.check_powered(at)?;
        let ch = self.geometry.channel_of_die(addr.die);
        let (issue, policy) =
            self.admit(tag, ch, self.timing.transfer_time(self.geometry.page_size), at);
        let mut die = self.die_shard(addr.die);
        {
            let block = &die.planes[addr.plane as usize].blocks[addr.block as usize];
            if block.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr: addr.block() });
            }
            if block.pages[addr.page as usize] == PageState::Free {
                self.note_error();
                return Err(FlashError::UnwrittenPage { addr });
            }
        }
        let sched = {
            let mut chan = self.channel_shard(ch);
            sched::schedule_read(
                &mut die,
                &mut chan,
                &self.timing,
                issue,
                self.geometry.page_size,
                policy,
            )
        };
        self.note_backfill(sched.backfilled);
        // A read whose result would only arrive after the power cut never
        // reaches the host.
        if let Some(cut) = self.cut_instant() {
            if sched.complete > cut {
                self.note_error();
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        let block = &die.planes[addr.plane as usize].blocks[addr.block as usize];
        let data = if self.store_data {
            let psz = self.geometry.page_size as usize;
            block
                .data
                .as_ref()
                .map(|d| d[addr.page as usize * psz..(addr.page as usize + 1) * psz].to_vec())
                .unwrap_or_else(|| vec![0u8; psz])
        } else {
            Vec::new()
        };
        let meta = block.meta[addr.page as usize];
        self.obs.note_op(OpKind::Read, addr.die, &sched, at, die.busy_time.as_nanos());
        let mut shared = self.shared_shard();
        shared.page_reads += 1;
        shared.bytes_transferred += self.geometry.page_size as u64;
        shared.read_latency_sum += sched.complete - at;
        shared.queue_depth_hwm = shared.queue_depth_hwm.max(sched.depth as u64);
        Ok((data, meta, OpOutcome { started_at: sched.start, completed_at: sched.complete }))
    }

    /// Read only the OOB metadata of a page (cheaper than a full read);
    /// used by GC and recovery to discover which logical page a physical
    /// page holds.
    pub fn read_metadata(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Option<PageMetadata>, OpOutcome)> {
        self.read_metadata_tagged(addr, at, IoTag::default())
    }

    /// [`NandDevice::read_metadata`] carrying an arbiter [`IoTag`] (see
    /// [`NandDevice::read_page_tagged`]).
    pub fn read_metadata_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(Option<PageMetadata>, OpOutcome)> {
        self.check_page(addr)?;
        self.check_powered(at)?;
        let ch = self.geometry.channel_of_die(addr.die);
        let (issue, policy) = self.admit(tag, ch, self.timing.oob_transfer_time(), at);
        let mut die = self.die_shard(addr.die);
        {
            let block = &die.planes[addr.plane as usize].blocks[addr.block as usize];
            if block.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr: addr.block() });
            }
        }
        let sched = {
            let mut chan = self.channel_shard(ch);
            sched::schedule_metadata_read(
                &mut die,
                &mut chan,
                &self.timing,
                issue,
                self.geometry.oob_size,
                policy,
            )
        };
        self.note_backfill(sched.backfilled);
        if let Some(cut) = self.cut_instant() {
            if sched.complete > cut {
                self.note_error();
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        let meta =
            die.planes[addr.plane as usize].blocks[addr.block as usize].meta[addr.page as usize];
        self.obs.note_op(OpKind::MetadataRead, addr.die, &sched, at, die.busy_time.as_nanos());
        let mut shared = self.shared_shard();
        shared.metadata_reads += 1;
        shared.bytes_transferred += self.geometry.oob_size as u64;
        shared.queue_depth_hwm = shared.queue_depth_hwm.max(sched.depth as u64);
        Ok((meta, OpOutcome { started_at: sched.start, completed_at: sched.complete }))
    }

    /// Program a page with payload `data` and OOB metadata `meta`.
    ///
    /// Enforces NAND rules: the target page must be erased and must be the
    /// next sequential page of its block.  If `meta.epoch` is zero the
    /// device stamps the next device-wide epoch.
    pub fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome> {
        self.program_page_inner(addr, data, meta, at, true, IoTag::default())
    }

    /// [`NandDevice::program_page`] carrying an arbiter [`IoTag`] (see
    /// [`NandDevice::read_page_tagged`]).
    pub fn program_page_tagged(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> Result<OpOutcome> {
        self.program_page_inner(addr, data, meta, at, true, tag)
    }

    /// Program a page as part of a replication rebuild: identical to
    /// [`NandDevice::program_page`] except that a caller-assigned epoch
    /// does **not** ratchet the device-wide epoch counter.
    ///
    /// The counter is the high-water mark of the *consistent* history
    /// this device holds.  A rebuild replays source pages (with their
    /// original epochs) onto a stale device; until the rebuild commits,
    /// those pages are not part of a consistent history, and advancing
    /// the counter early would let a crash mid-rebuild leave a
    /// half-copied device that claims — by epoch — to be as current as
    /// its source.  The mirror calls [`NandDevice::ratchet_epoch`] once
    /// the rebuild completes.
    pub fn program_replica(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome> {
        // Rebuild copies are maintenance traffic: tagged `Background` so
        // an arbiter-enabled device budgets them like GC and compaction.
        self.program_page_inner(addr, data, meta, at, false, IoTag::background(None))
    }

    /// Commit a rebuilt history: advance the epoch counter to `to` (never
    /// backwards).  See [`NandDevice::program_replica`].
    pub fn ratchet_epoch(&self, to: u64) {
        self.epoch.fetch_max(to, Ordering::AcqRel);
    }

    fn program_page_inner(
        &self,
        addr: PageAddr,
        data: &[u8],
        mut meta: PageMetadata,
        at: SimTime,
        ratchet: bool,
        tag: IoTag,
    ) -> Result<OpOutcome> {
        self.check_page(addr)?;
        self.note_touched(addr.die);
        if self.store_data && !data.is_empty() && data.len() != self.geometry.page_size as usize {
            return Err(FlashError::BadPageSize {
                expected: self.geometry.page_size,
                got: data.len(),
            });
        }
        self.check_powered(at)?;
        let ch = self.geometry.channel_of_die(addr.die);
        let (issue, policy) =
            self.admit(tag, ch, self.timing.transfer_time(self.geometry.page_size), at);
        let mut die = self.die_shard(addr.die);
        {
            let block = &die.planes[addr.plane as usize].blocks[addr.block as usize];
            if block.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr: addr.block() });
            }
            if block.pages[addr.page as usize] != PageState::Free {
                self.note_error();
                return Err(FlashError::PageNotErased { addr });
            }
            if addr.page != block.write_ptr {
                self.note_error();
                return Err(FlashError::NonSequentialProgram {
                    addr,
                    expected_next: block.write_ptr,
                });
            }
        }
        if meta.epoch == 0 {
            meta.epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        } else if ratchet {
            // Caller-assigned epoch (a mirror stamping a shared sequence):
            // ratchet the counter so `current_epoch` — and the snapshot
            // that persists it — reports the newest epoch this device has
            // stored as part of its consistent history.  Rebuild replays
            // (`program_replica`) deliberately skip this.
            self.epoch.fetch_max(meta.epoch, Ordering::AcqRel);
        }
        let sched = {
            let mut chan = self.channel_shard(ch);
            sched::schedule_program(
                &mut die,
                &mut chan,
                &self.timing,
                issue,
                self.geometry.page_size,
                policy,
            )
        };
        self.note_backfill(sched.backfilled);
        let pages_per_block = self.geometry.pages_per_block;
        let psz = self.geometry.page_size as usize;
        let store = self.store_data;
        if let Some(cut) = self.cut_instant() {
            if sched.complete > cut {
                // Torn program: power failed while the cells were being
                // written.  The page looks programmed (it consumes its slot
                // in the block's sequential order) but holds only a prefix
                // of the payload; the OOB area is written in the second
                // half of the operation, so an early tear loses the
                // metadata entirely.  Recovery detects the former through
                // the payload checksum and the latter through the missing
                // metadata.
                if sched.start < cut {
                    let dur = (sched.complete - sched.start).0.max(1);
                    let elapsed = (cut - sched.start).0;
                    let done = ((psz as u128 * elapsed as u128) / dur as u128) as usize;
                    let block = &mut die.planes[addr.plane as usize].blocks[addr.block as usize];
                    if store {
                        let buf = block
                            .data
                            .get_or_insert_with(|| vec![0u8; pages_per_block as usize * psz]);
                        let off = addr.page as usize * psz;
                        buf[off..off + psz].fill(0);
                        if !data.is_empty() {
                            let done = done.min(psz).min(data.len());
                            buf[off..off + done].copy_from_slice(&data[..done]);
                        }
                    }
                    block.meta[addr.page as usize] =
                        if elapsed * 2 >= dur { Some(meta) } else { None };
                    block.pages[addr.page as usize] = PageState::Valid;
                    block.valid_pages += 1;
                    block.write_ptr = addr.page + 1;
                    block.state = if block.write_ptr == pages_per_block {
                        BlockState::Full
                    } else {
                        BlockState::Open
                    };
                }
                self.note_error();
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        let block = &mut die.planes[addr.plane as usize].blocks[addr.block as usize];
        if store {
            let buf = block.data.get_or_insert_with(|| vec![0u8; pages_per_block as usize * psz]);
            let off = addr.page as usize * psz;
            if data.is_empty() {
                buf[off..off + psz].fill(0);
            } else {
                buf[off..off + psz].copy_from_slice(data);
            }
        }
        block.pages[addr.page as usize] = PageState::Valid;
        block.meta[addr.page as usize] = Some(meta);
        block.valid_pages += 1;
        block.write_ptr = addr.page + 1;
        block.state =
            if block.write_ptr == pages_per_block { BlockState::Full } else { BlockState::Open };
        self.obs.note_op(OpKind::Program, addr.die, &sched, at, die.busy_time.as_nanos());
        let mut shared = self.shared_shard();
        shared.page_programs += 1;
        shared.bytes_transferred += self.geometry.page_size as u64;
        shared.program_latency_sum += sched.complete - at;
        shared.queue_depth_hwm = shared.queue_depth_hwm.max(sched.depth as u64);
        Ok(OpOutcome { started_at: sched.start, completed_at: sched.complete })
    }

    /// Erase a block, returning it to the free state.  Fails permanently if
    /// the block exceeds its endurance budget (the block is then retired).
    pub fn erase_block(&self, addr: BlockAddr, at: SimTime) -> Result<OpOutcome> {
        self.check_block(addr)?;
        self.note_touched(addr.die);
        self.check_powered(at)?;
        let mut die = self.die_shard(addr.die);
        {
            let block = &die.planes[addr.plane as usize].blocks[addr.block as usize];
            if block.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr });
            }
            if block.erase_count >= self.endurance {
                let count = block.erase_count;
                die.planes[addr.plane as usize].blocks[addr.block as usize].state = BlockState::Bad;
                self.note_error();
                return Err(FlashError::WornOut { addr, erase_count: count });
            }
        }
        let sched = sched::schedule_erase(&mut die, &self.timing, at);
        if let Some(cut) = self.cut_instant() {
            if sched.complete > cut {
                // Interrupted erase: the cells are left in an indeterminate
                // state — payloads and OOB metadata are destroyed, but the
                // block is *not* erased (its write pointer and page states
                // are unchanged, so it must be erased again after reboot
                // before it can be programmed).  The wear counter is not
                // charged for the incomplete cycle.
                if sched.start < cut {
                    let block = &mut die.planes[addr.plane as usize].blocks[addr.block as usize];
                    if let Some(buf) = block.data.as_mut() {
                        buf.fill(0xFF);
                    }
                    for m in &mut block.meta {
                        *m = None;
                    }
                }
                self.note_error();
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        let block = &mut die.planes[addr.plane as usize].blocks[addr.block as usize];
        block.reset_erased();
        block.erase_count += 1;
        self.obs.note_op(OpKind::Erase, addr.die, &sched, at, die.busy_time.as_nanos());
        let mut shared = self.shared_shard();
        shared.block_erases += 1;
        shared.erase_latency_sum += sched.complete - at;
        shared.queue_depth_hwm = shared.queue_depth_hwm.max(sched.depth as u64);
        Ok(OpOutcome { started_at: sched.start, completed_at: sched.complete })
    }

    /// Copy a valid page to a free page **on the same die** without moving
    /// the data over the channel.  This is the operation GC uses to
    /// relocate still-valid pages out of a victim block.
    pub fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> Result<OpOutcome> {
        self.check_page(src)?;
        self.check_page(dst)?;
        self.note_touched(dst.die);
        if src.die != dst.die || (self.strict_copyback_plane && src.plane != dst.plane) {
            return Err(FlashError::CopybackCrossDie { src, dst });
        }
        self.check_powered(at)?;
        let mut die = self.die_shard(src.die);
        // Validate source.
        let (src_meta, src_data) = {
            let sblock = &die.planes[src.plane as usize].blocks[src.block as usize];
            if sblock.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr: src.block() });
            }
            if sblock.pages[src.page as usize] == PageState::Free {
                self.note_error();
                return Err(FlashError::UnwrittenPage { addr: src });
            }
            let psz = self.geometry.page_size as usize;
            let data = if self.store_data {
                sblock
                    .data
                    .as_ref()
                    .map(|d| d[src.page as usize * psz..(src.page as usize + 1) * psz].to_vec())
            } else {
                None
            };
            (sblock.meta[src.page as usize], data)
        };
        // Validate destination.
        {
            let dblock = &die.planes[dst.plane as usize].blocks[dst.block as usize];
            if dblock.state == BlockState::Bad {
                self.note_error();
                return Err(FlashError::BadBlock { addr: dst.block() });
            }
            if dblock.pages[dst.page as usize] != PageState::Free {
                self.note_error();
                return Err(FlashError::PageNotErased { addr: dst });
            }
            if dst.page != dblock.write_ptr {
                self.note_error();
                return Err(FlashError::NonSequentialProgram {
                    addr: dst,
                    expected_next: dblock.write_ptr,
                });
            }
        }
        let sched = sched::schedule_copyback(&mut die, &self.timing, at);
        let pages_per_block = self.geometry.pages_per_block;
        let psz = self.geometry.page_size as usize;
        let store = self.store_data;
        if let Some(cut) = self.cut_instant() {
            if sched.complete > cut {
                // Torn copyback: the destination page may be partially
                // written (same model as a torn program) and the source is
                // left untouched — the host died before it could mark the
                // source invalid, so recovery may find both copies and must
                // break the epoch tie.
                if sched.start < cut {
                    let dur = (sched.complete - sched.start).0.max(1);
                    let elapsed = (cut - sched.start).0;
                    let done = ((psz as u128 * elapsed as u128) / dur as u128) as usize;
                    let dblock = &mut die.planes[dst.plane as usize].blocks[dst.block as usize];
                    if store {
                        let buf = dblock
                            .data
                            .get_or_insert_with(|| vec![0u8; pages_per_block as usize * psz]);
                        let off = dst.page as usize * psz;
                        buf[off..off + psz].fill(0);
                        if let Some(d) = &src_data {
                            let done = done.min(psz).min(d.len());
                            buf[off..off + done].copy_from_slice(&d[..done]);
                        }
                    }
                    dblock.meta[dst.page as usize] =
                        if elapsed * 2 >= dur { src_meta } else { None };
                    dblock.pages[dst.page as usize] = PageState::Valid;
                    dblock.valid_pages += 1;
                    dblock.write_ptr = dst.page + 1;
                    dblock.state = if dblock.write_ptr == pages_per_block {
                        BlockState::Full
                    } else {
                        BlockState::Open
                    };
                }
                self.note_error();
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        let dblock = &mut die.planes[dst.plane as usize].blocks[dst.block as usize];
        if store {
            let buf = dblock.data.get_or_insert_with(|| vec![0u8; pages_per_block as usize * psz]);
            let off = dst.page as usize * psz;
            match &src_data {
                Some(d) => buf[off..off + psz].copy_from_slice(d),
                None => buf[off..off + psz].fill(0),
            }
        }
        dblock.pages[dst.page as usize] = PageState::Valid;
        dblock.meta[dst.page as usize] = src_meta;
        dblock.valid_pages += 1;
        dblock.write_ptr = dst.page + 1;
        dblock.state =
            if dblock.write_ptr == pages_per_block { BlockState::Full } else { BlockState::Open };
        // Source page becomes invalid.
        let sblock = &mut die.planes[src.plane as usize].blocks[src.block as usize];
        if sblock.pages[src.page as usize] == PageState::Valid {
            sblock.pages[src.page as usize] = PageState::Invalid;
            sblock.valid_pages = sblock.valid_pages.saturating_sub(1);
        }
        self.obs.note_op(OpKind::Copyback, src.die, &sched, at, die.busy_time.as_nanos());
        let mut shared = self.shared_shard();
        shared.copybacks += 1;
        shared.copyback_latency_sum += sched.complete - at;
        shared.queue_depth_hwm = shared.queue_depth_hwm.max(sched.depth as u64);
        Ok(OpOutcome { started_at: sched.start, completed_at: sched.complete })
    }

    /// Mark a page as invalid (superseded by an out-of-place update).
    ///
    /// This is host-maintained bookkeeping (no flash command is issued and
    /// no time passes); the simulator keeps it next to the physical page so
    /// that block-level valid-page counts used by GC victim selection stay
    /// consistent.
    pub fn mark_invalid(&self, addr: PageAddr) -> Result<()> {
        self.check_page(addr)?;
        let mut die = self.die_shard(addr.die);
        let block = &mut die.planes[addr.plane as usize].blocks[addr.block as usize];
        match block.pages[addr.page as usize] {
            PageState::Valid => {
                block.pages[addr.page as usize] = PageState::Invalid;
                block.valid_pages = block.valid_pages.saturating_sub(1);
                Ok(())
            }
            PageState::Invalid => Ok(()),
            PageState::Free => Err(FlashError::UnwrittenPage { addr }),
        }
    }

    /// Mark a whole block bad (e.g. after a program failure).
    pub fn retire_block(&self, addr: BlockAddr) -> Result<()> {
        self.check_block(addr)?;
        self.note_touched(addr.die);
        let mut die = self.die_shard(addr.die);
        die.planes[addr.plane as usize].blocks[addr.block as usize].state = BlockState::Bad;
        Ok(())
    }

    /// Snapshot of one block's state.
    pub fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo> {
        self.check_block(addr)?;
        let die = self.die_shard(addr.die);
        Ok(BlockInfo::from_block(&die.planes[addr.plane as usize].blocks[addr.block as usize]))
    }

    /// State of a single page.
    pub fn page_state(&self, addr: PageAddr) -> Result<PageState> {
        self.check_page(addr)?;
        let die = self.die_shard(addr.die);
        Ok(die.planes[addr.plane as usize].blocks[addr.block as usize].pages[addr.page as usize])
    }

    /// Aggregate device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.shared_shard().clone()
    }

    /// Latest completion time over all dies and channels — i.e. when the
    /// device becomes fully idle given the operations issued so far.
    pub fn quiesce_time(&self) -> SimTime {
        let die_max = (0..self.dies.len())
            .map(|i| self.die_shard(DieId(i as u32)).busy_until)
            .max()
            .unwrap_or(SimTime::ZERO);
        let ch_max = (0..self.channels.len())
            .map(|i| self.channel_shard(i as u32).busy_until)
            .max()
            .unwrap_or(SimTime::ZERO);
        die_max.max(ch_max)
    }

    /// Busy-until time of a single die (used by allocation policies that
    /// prefer idle dies).  An out-of-range die reports as idle.
    pub fn die_busy_until(&self, die: DieId) -> SimTime {
        if (die.0 as usize) < self.dies.len() {
            self.die_shard(die).busy_until
        } else {
            SimTime::ZERO
        }
    }

    /// Record that a die's contents may have changed (lock-free flag).
    fn note_touched(&self, die: DieId) {
        if let Some(flag) = self.touched.get(die.0 as usize) {
            flag.store(true, Ordering::Release);
        }
    }

    /// Has this die ever been programmed, erased or retired?  A `false`
    /// answer is a guarantee: every block of the die is still in its
    /// factory state, so a mount scan of it cannot find anything.
    pub fn die_touched(&self, die: DieId) -> bool {
        self.touched.get(die.0 as usize).is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Instantaneous load snapshot of one die as of `at`: when its current
    /// work drains and how many commands are still in flight.  This is the
    /// cheap per-die view queue-aware placement policies steer by — one
    /// shard lock, no allocation, and purely observational (the timing
    /// state is not perturbed).  An out-of-range die reports as idle.
    pub fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        if (die.0 as usize) >= self.dies.len() {
            return DieLoad::default();
        }
        let d = self.die_shard(die);
        DieLoad { busy_until: d.busy_until, queue_depth: d.pending_at(at) }
    }

    /// Load snapshots of every die as of `at`, indexed by die id.  Shards
    /// are locked one at a time (not all at once), so concurrent I/O on
    /// other dies is never stalled by a load scan.
    pub fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        (0..self.dies.len())
            .map(|i| {
                let d = self.die_shard(DieId(i as u32));
                DieLoad { busy_until: d.busy_until, queue_depth: d.pending_at(at) }
            })
            .collect()
    }

    fn die_stats_from(die: &Die) -> DieStats {
        let total_erases: u64 =
            die.planes.iter().flat_map(|p| p.blocks.iter()).map(|b| b.erase_count).sum();
        let max_erase_count = die
            .planes
            .iter()
            .flat_map(|p| p.blocks.iter())
            .map(|b| b.erase_count)
            .max()
            .unwrap_or(0);
        DieStats {
            ops: die.ops,
            busy_time: die.busy_time,
            total_erases,
            max_erase_count,
            queue_depth_hwm: die.queue_depth_hwm,
        }
    }

    /// Per-die statistics.
    pub fn die_stats(&self) -> Vec<DieStats> {
        (0..self.dies.len())
            .map(|i| Self::die_stats_from(&self.die_shard(DieId(i as u32))))
            .collect()
    }

    /// Utilisation summary over the whole device: per-die busy fraction of
    /// the window from time zero to the current quiesce time, plus the
    /// deepest per-die queue observed.  This is the headline figure of the
    /// queue-depth bench: with parallel submission the mean approaches the
    /// per-die maximum; with serial submission it collapses to `1/dies`.
    pub fn utilization(&self) -> UtilizationSummary {
        let elapsed = self.quiesce_time().since(SimTime::ZERO);
        UtilizationSummary::from_die_stats(&self.die_stats(), elapsed)
    }

    fn wear_summary_from(dies: &[TrackedGuard<'_, Die>]) -> WearSummary {
        let mut bad = 0u64;
        let counts: Vec<u64> = dies
            .iter()
            .flat_map(|d| d.planes.iter())
            .flat_map(|p| p.blocks.iter())
            .map(|b| {
                if b.state == BlockState::Bad {
                    bad += 1;
                }
                b.erase_count
            })
            .collect();
        WearSummary::from_counts(counts.into_iter(), bad)
    }

    /// Lock every die shard in ascending index order (the only sanctioned
    /// way to observe a consistent multi-die image).
    fn lock_all_dies(&self) -> Vec<TrackedGuard<'_, Die>> {
        (0..self.dies.len()).map(|i| self.die_shard(DieId(i as u32))).collect()
    }

    /// Wear distribution over the whole device.
    pub fn wear_summary(&self) -> WearSummary {
        let dies = self.lock_all_dies();
        Self::wear_summary_from(&dies)
    }

    /// Arm a simulated power cut at instant `at`.  Operations issued at or
    /// after `at` fail with [`FlashError::PowerLoss`]; an operation that is
    /// *in flight* at `at` (issued before, completing after) is torn:
    ///
    /// * a torn **program** leaves the page looking programmed but holding
    ///   only a prefix of the payload (detected via the OOB checksum), with
    ///   the OOB metadata itself lost if less than half the operation ran;
    /// * a torn **erase** destroys payloads and metadata without resetting
    ///   the block, so it must be re-erased before reuse;
    /// * a torn **copyback** behaves like a torn program of the destination
    ///   and leaves the source untouched.
    ///
    /// After the cut, capture the device with [`NandDevice::snapshot`] and
    /// "reboot" it with [`NandDevice::from_snapshot`].
    pub fn arm_power_cut(&self, at: SimTime) {
        self.power_cut.store(at.0, Ordering::Release);
    }

    /// The armed power-cut instant, if any.
    pub fn power_cut_at(&self) -> Option<SimTime> {
        self.cut_instant()
    }

    /// Disarm a previously armed power cut.
    pub fn clear_power_cut(&self) {
        self.power_cut.store(POWER_CUT_NONE, Ordering::Release);
    }

    /// Current device-wide write epoch (the stamp given to the most recent
    /// program that did not supply its own).  Recovery uses this as the
    /// checkpoint watermark: pages with a larger epoch were written after
    /// the checkpoint was taken.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the device stores page payloads.
    pub fn stores_data(&self) -> bool {
        self.store_data
    }

    /// Full snapshot: summary statistics plus the complete per-block state
    /// (page payloads, OOB metadata, wear, bad blocks), captured with every
    /// die shard locked so it is a consistent point-in-time image.
    /// The snapshot can be persisted with [`DeviceSnapshot::save`] and
    /// rebuilt into a live device with [`NandDevice::from_snapshot`].
    pub fn snapshot(&self) -> DeviceSnapshot {
        let dies = self.lock_all_dies();
        let shared = self.shared_shard();
        DeviceSnapshot {
            stats: shared.clone(),
            die_stats: dies.iter().map(|d| Self::die_stats_from(d)).collect(),
            wear: Self::wear_summary_from(&dies),
            geometry: self.geometry,
            epoch: self.epoch.load(Ordering::Acquire),
            store_data: self.store_data,
            endurance: self.endurance,
            blocks: dies
                .iter()
                .flat_map(|d| d.planes.iter())
                .flat_map(|p| p.blocks.iter())
                .map(|b| b.to_snapshot())
                .collect(),
        }
    }

    /// Rebuild a device from a snapshot — the simulator's power cycle.
    ///
    /// Block contents, wear, bad-block marks and the write-epoch counter
    /// are restored exactly; the die/channel busy clocks start idle (a
    /// rebooted device has no operations in flight) and any armed power
    /// cut is cleared.  The caller supplies the timing model, which is a
    /// property of the simulation rather than of the persisted state.
    pub fn from_snapshot(snap: &DeviceSnapshot, timing: TimingModel) -> Result<NandDevice> {
        let g = snap.geometry;
        g.validate().map_err(|e| FlashError::Image { message: format!("bad geometry: {e}") })?;
        if snap.blocks.len() as u64 != g.total_blocks() {
            return Err(FlashError::Image {
                message: format!(
                    "snapshot holds {} blocks, geometry needs {}",
                    snap.blocks.len(),
                    g.total_blocks()
                ),
            });
        }
        let psz = g.page_size as usize;
        let ppb = g.pages_per_block as usize;
        for (i, b) in snap.blocks.iter().enumerate() {
            if b.pages.len() != ppb || b.meta.len() != ppb {
                return Err(FlashError::Image {
                    message: format!("block {i} has wrong page count"),
                });
            }
            if let Some(data) = &b.data {
                if data.len() != ppb * psz {
                    return Err(FlashError::Image {
                        message: format!("block {i} has wrong data length"),
                    });
                }
            }
        }
        // A die counts as touched if any of its blocks ever left the
        // pristine state — the same condition under which the mount scan
        // could find anything.
        let touched: Vec<AtomicBool> =
            snap.blocks
                .chunks(g.blocks_per_die() as usize)
                .map(|chunk| {
                    AtomicBool::new(chunk.iter().any(|b| {
                        b.write_ptr > 0 || b.erase_count > 0 || b.state != BlockState::Free
                    }))
                })
                .collect();
        // `total_blocks == total_dies * blocks_per_die` was validated
        // above, so chunking yields exactly one full chunk per die.
        let dies: Vec<Die> = snap
            .blocks
            .chunks(g.blocks_per_die() as usize)
            .map(|chunk| {
                let mut die = Die::new(g.planes_per_die, g.blocks_per_plane, g.pages_per_block);
                for (slot, snapshot) in
                    die.planes.iter_mut().flat_map(|p| p.blocks.iter_mut()).zip(chunk)
                {
                    *slot = Block::from_snapshot(snapshot);
                }
                die
            })
            .collect();
        Ok(NandDevice {
            geometry: g,
            timing,
            endurance: snap.endurance,
            store_data: snap.store_data,
            strict_copyback_plane: false,
            dies: dies.into_iter().map(Mutex::new).collect(),
            channels: (0..g.channels).map(|_| Mutex::new(Channel::default())).collect(),
            epoch: AtomicU64::new(snap.epoch),
            power_cut: AtomicU64::new(POWER_CUT_NONE),
            shared: Mutex::new(snap.stats.clone()),
            touched,
            obs: DeviceObs::new(Arc::new(MetricsRegistry::new()), g.total_dies()),
            arbiter: None,
        })
    }

    /// Power-cycle the device: capture its (possibly torn) state and boot
    /// a fresh device from it with the same timing model.  With `image`,
    /// the snapshot round-trips through that file-backed image first (the
    /// "pull the SSD, image it, boot the image" path); the file is removed
    /// afterwards.
    pub fn power_cycle(&self, image: Option<&std::path::Path>) -> Result<NandDevice> {
        let mut snap = self.snapshot();
        if let Some(path) = image {
            snap.save(path)?;
            let loaded = DeviceSnapshot::load(path);
            std::fs::remove_file(path).ok();
            snap = loaded?;
        }
        NandDevice::from_snapshot(&snap, self.timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NandDevice {
        DeviceBuilder::new(FlashGeometry::small_test()).build()
    }

    fn page(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr::new(DieId(die), 0, block, page)
    }

    fn payload(byte: u8, dev: &NandDevice) -> Vec<u8> {
        vec![byte; dev.geometry().page_size as usize]
    }

    #[test]
    fn program_then_read_roundtrips_data_and_metadata() {
        let d = dev();
        let p = page(0, 0, 0);
        let data = payload(0xAB, &d);
        let meta = PageMetadata::new(7, 42);
        let out = d.program_page(p, &data, meta, SimTime::ZERO).unwrap();
        assert!(out.completed_at > SimTime::ZERO);
        let (read, rmeta, _) = d.read_page(p, out.completed_at).unwrap();
        assert_eq!(read, data);
        let rmeta = rmeta.unwrap();
        assert_eq!(rmeta.object_id, 7);
        assert_eq!(rmeta.logical_page, 42);
        assert!(rmeta.epoch > 0, "device stamps an epoch");
    }

    #[test]
    fn reading_unwritten_page_fails() {
        let d = dev();
        let err = d.read_page(page(0, 0, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::UnwrittenPage { .. }));
    }

    #[test]
    fn in_place_update_is_rejected() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let err =
            d.program_page(p, &payload(2, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::PageNotErased { .. }));
    }

    #[test]
    fn non_sequential_program_is_rejected() {
        let d = dev();
        let err = d
            .program_page(page(0, 0, 3), &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::NonSequentialProgram { expected_next: 0, .. }));
    }

    #[test]
    fn erase_resets_block_and_counts_wear() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        for i in 0..d.geometry().pages_per_block {
            d.program_page(
                b.page(i),
                &payload(i as u8, &d),
                PageMetadata::new(1, i as u64),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Full);
        d.erase_block(b, SimTime::ZERO).unwrap();
        let info = d.block_info(b).unwrap();
        assert_eq!(info.state, BlockState::Free);
        assert_eq!(info.erase_count, 1);
        assert_eq!(info.valid_pages, 0);
        // Programmable again from page 0.
        d.program_page(b.page(0), &payload(9, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
    }

    #[test]
    fn copyback_moves_data_within_a_die() {
        let d = dev();
        let src = page(1, 0, 0);
        let dst = page(1, 1, 0);
        let data = payload(0x5A, &d);
        d.program_page(src, &data, PageMetadata::new(3, 10), SimTime::ZERO).unwrap();
        let stats_before = d.stats();
        d.copyback(src, dst, SimTime::ZERO).unwrap();
        let stats_after = d.stats();
        // No channel traffic for the copyback itself.
        assert_eq!(stats_after.bytes_transferred, stats_before.bytes_transferred);
        assert_eq!(stats_after.copybacks, 1);
        // Source invalidated, destination valid with the same metadata.
        assert_eq!(d.page_state(src).unwrap(), PageState::Invalid);
        let (read, meta, _) = d.read_page(dst, SimTime::ZERO).unwrap();
        assert_eq!(read, data);
        assert_eq!(meta.unwrap().logical_page, 10);
    }

    #[test]
    fn copyback_across_dies_is_rejected() {
        let d = dev();
        let src = page(0, 0, 0);
        d.program_page(src, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let err = d.copyback(src, page(1, 0, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::CopybackCrossDie { .. }));
    }

    #[test]
    fn mark_invalid_updates_block_counts() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        assert_eq!(d.block_info(p.block()).unwrap().valid_pages, 1);
        d.mark_invalid(p).unwrap();
        assert_eq!(d.block_info(p.block()).unwrap().valid_pages, 0);
        assert_eq!(d.page_state(p).unwrap(), PageState::Invalid);
        // Idempotent.
        d.mark_invalid(p).unwrap();
        // Marking a free page invalid is an error.
        assert!(d.mark_invalid(page(0, 0, 5)).is_err());
    }

    #[test]
    fn endurance_limit_retires_blocks() {
        let g = FlashGeometry::small_test();
        let d = DeviceBuilder::new(g)
            .bad_blocks(BadBlockPolicy { factory_bad_fraction: 0.0, endurance_cycles: 2, seed: 0 })
            .build();
        let b = BlockAddr::new(DieId(0), 0, 0);
        d.erase_block(b, SimTime::ZERO).unwrap();
        d.erase_block(b, SimTime::ZERO).unwrap();
        let err = d.erase_block(b, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::WornOut { .. }));
        // Block is now bad: programs fail too.
        let err =
            d.program_page(b.page(0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::BadBlock { .. }));
    }

    #[test]
    fn operations_on_different_dies_overlap_in_time() {
        let d = dev();
        let t0 = SimTime::ZERO;
        let a =
            d.program_page(page(0, 0, 0), &payload(1, &d), PageMetadata::new(1, 0), t0).unwrap();
        let b =
            d.program_page(page(2, 0, 0), &payload(2, &d), PageMetadata::new(1, 1), t0).unwrap();
        // Dies 0 and 2 are on different channels in the small_test geometry,
        // so the operations complete at the same simulated time.
        assert_eq!(a.completed_at, b.completed_at);
        // Same die: the second operation queues.
        let c =
            d.program_page(page(0, 0, 1), &payload(3, &d), PageMetadata::new(1, 2), t0).unwrap();
        assert!(c.completed_at > a.completed_at);
    }

    #[test]
    fn stats_track_operations_and_latency() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Issue the reads once the device is idle so no queueing delay is
        // included in their latencies.
        let idle = d.quiesce_time();
        d.read_page(p, idle).unwrap();
        d.read_metadata(p, d.quiesce_time()).unwrap();
        let s = d.stats();
        assert_eq!(s.page_programs, 1);
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.metadata_reads, 1);
        assert!(s.avg_read_latency_us() > 0.0);
        assert!(s.avg_program_latency_us() > s.avg_read_latency_us());
        assert!(s.total_ops() >= 3);
        // Every op found its die idle: the high-water mark stays at 1.
        assert_eq!(s.queue_depth_hwm, 1);
    }

    #[test]
    fn queue_depth_high_water_mark_tracks_bursts() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        // Four programs to one die, all issued at t=0: depths 1..4.
        for i in 0..4 {
            d.program_page(
                b.page(i),
                &payload(i as u8, &d),
                PageMetadata::new(1, i as u64),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(d.stats().queue_depth_hwm, 4);
        let ds = d.die_stats();
        assert_eq!(ds[0].queue_depth_hwm, 4);
        assert_eq!(ds[1].queue_depth_hwm, 0, "untouched die never queued");
        let util = d.utilization();
        assert_eq!(util.queue_depth_hwm, 4);
        assert!(util.per_die[0] > 0.9, "die 0 was busy almost the whole window");
        assert_eq!(util.per_die[1], 0.0);
        assert!(util.max >= util.mean && util.mean >= util.min);
    }

    #[test]
    fn die_loads_report_busy_until_and_in_flight_depth() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        // Three programs queued on die 0 at t=0; die 1 untouched.
        let mut last = SimTime::ZERO;
        for i in 0..3 {
            last = d
                .program_page(
                    b.page(i),
                    &payload(i as u8, &d),
                    PageMetadata::new(1, i as u64),
                    SimTime::ZERO,
                )
                .unwrap()
                .completed_at;
        }
        let loads = d.die_loads(SimTime::ZERO);
        assert_eq!(loads.len(), 4);
        assert_eq!(loads[0].busy_until, last);
        assert_eq!(loads[0].queue_depth, 3, "all three programs still in flight at t=0");
        assert_eq!(loads[1], DieLoad::default(), "untouched die is idle");
        assert_eq!(loads[0].earliest_start(SimTime::ZERO), last);
        assert_eq!(loads[1].earliest_start(SimTime::from_us(7)), SimTime::from_us(7));
        // Observed after everything drained: depth 0, busy_until unchanged.
        let after = d.die_load(DieId(0), last);
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.busy_until, last);
        // Observation is non-destructive: the timing state is unchanged.
        assert_eq!(d.die_load(DieId(0), SimTime::ZERO).queue_depth, 3);
        // Out-of-range dies report as idle.
        assert_eq!(d.die_load(DieId(99), SimTime::ZERO), DieLoad::default());
    }

    #[test]
    fn snapshot_and_wear_summary() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        d.erase_block(b, SimTime::ZERO).unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.stats.block_erases, 1);
        assert_eq!(snap.wear.total_erases, 1);
        assert_eq!(snap.die_stats.len(), 4);
        assert_eq!(snap.die_stats[0].total_erases, 1);
        assert_eq!(snap.die_stats[1].total_erases, 0);
    }

    #[test]
    fn quiesce_time_tracks_latest_completion() {
        let d = dev();
        assert_eq!(d.quiesce_time(), SimTime::ZERO);
        let out = d
            .program_page(
                page(0, 0, 0),
                &payload(1, &d),
                PageMetadata::new(1, 0),
                SimTime::from_us(50),
            )
            .unwrap();
        assert_eq!(d.quiesce_time(), out.completed_at);
    }

    #[test]
    fn out_of_bounds_addresses_are_rejected() {
        let d = dev();
        assert!(d.read_page(page(99, 0, 0), SimTime::ZERO).is_err());
        assert!(d.erase_block(BlockAddr::new(DieId(0), 0, 999), SimTime::ZERO).is_err());
        assert!(d.block_info(BlockAddr::new(DieId(9), 0, 0)).is_err());
    }

    #[test]
    fn bad_page_size_is_rejected() {
        let d = dev();
        let err = d
            .program_page(page(0, 0, 0), &[1, 2, 3], PageMetadata::new(1, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::BadPageSize { .. }));
    }

    #[test]
    fn factory_bad_blocks_reject_operations() {
        let g = FlashGeometry::small_test();
        let d = DeviceBuilder::new(g)
            .bad_blocks(BadBlockPolicy {
                factory_bad_fraction: 1.0,
                endurance_cycles: u64::MAX,
                seed: 1,
            })
            .build();
        // Every block is bad with fraction 1.0.
        let err =
            d.program_page(page(0, 0, 0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::BadBlock { .. }));
        assert!(d.wear_summary().bad_blocks > 0);
    }

    #[test]
    fn retire_block_marks_bad() {
        let d = dev();
        let b = BlockAddr::new(DieId(1), 0, 3);
        d.retire_block(b).unwrap();
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Bad);
    }

    #[test]
    fn snapshot_roundtrip_restores_byte_identical_reads() {
        // Satellite requirement: snapshot → restore → byte-identical reads,
        // including bad-block and wear state.
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let mut written = Vec::new();
        for p in 0..6u32 {
            let addr = page(0, 1, p);
            let data: Vec<u8> =
                (0..d.geometry().page_size).map(|i| (i as u8) ^ (p as u8)).collect();
            let meta = PageMetadata::new(2, p as u64).with_payload_checksum(&data);
            d.program_page(addr, &data, meta, SimTime::ZERO).unwrap();
            written.push((addr, data));
        }
        // Wear + bad-block state.
        let worn = BlockAddr::new(DieId(1), 0, 5);
        d.erase_block(worn, SimTime::ZERO).unwrap();
        d.erase_block(worn, SimTime::ZERO).unwrap();
        d.retire_block(BlockAddr::new(DieId(3), 0, 2)).unwrap();
        d.mark_invalid(written[0].0).unwrap();

        let snap = d.snapshot();
        let restored = NandDevice::from_snapshot(&snap, TimingModel::mlc_2015()).unwrap();
        for (addr, data) in &written[1..] {
            let (read, meta, _) = restored.read_page(*addr, SimTime::ZERO).unwrap();
            assert_eq!(&read, data);
            assert!(meta.unwrap().payload_matches(&read));
        }
        assert_eq!(restored.page_state(written[0].0).unwrap(), PageState::Invalid);
        assert_eq!(restored.block_info(worn).unwrap().erase_count, 2);
        assert_eq!(
            restored.block_info(BlockAddr::new(DieId(3), 0, 2)).unwrap().state,
            BlockState::Bad
        );
        assert_eq!(restored.current_epoch(), d.current_epoch());
        assert_eq!(restored.wear_summary(), d.wear_summary());
        // Sequential-programming state survives: the next program of block
        // (0,1) must continue at page 6.
        let next = page(0, 1, 6);
        restored.program_page(next, &[], PageMetadata::new(2, 6), SimTime::ZERO).unwrap();
    }

    #[test]
    fn operations_after_power_cut_fail() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let cut = d.quiesce_time();
        d.arm_power_cut(cut);
        assert_eq!(d.power_cut_at(), Some(cut));
        let err = d.read_page(p, cut).unwrap_err();
        assert!(err.is_power_loss());
        assert!(d
            .program_page(page(0, 0, 1), &payload(2, &d), PageMetadata::new(1, 1), cut)
            .is_err());
        assert!(d.erase_block(p.block(), cut).is_err());
        // Reads that complete strictly before the cut still succeed.
        d.clear_power_cut();
        d.read_page(p, cut).unwrap();
    }

    #[test]
    fn torn_program_leaves_partial_payload() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let p = page(0, 0, 0);
        let data = payload(0xAB, &d);
        let meta = PageMetadata::new(1, 0).with_payload_checksum(&data);
        // Find when an unimpeded program would complete, then cut in the
        // second half of the operation (metadata survives, payload torn).
        let probe =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let out = probe.program_page(p, &data, meta, SimTime::ZERO).unwrap();
        let span = out.completed_at.as_nanos() - out.started_at.as_nanos();
        let cut = SimTime(out.started_at.as_nanos() + span * 3 / 4);
        d.arm_power_cut(cut);
        let err = d.program_page(p, &data, meta, SimTime::ZERO).unwrap_err();
        assert!(err.is_power_loss());
        // The page is consumed (sequential rule) but torn.
        assert_eq!(d.page_state(p).unwrap(), PageState::Valid);
        d.clear_power_cut();
        let (read, rmeta, _) = d.read_page(p, d.quiesce_time()).unwrap();
        let rmeta = rmeta.expect("late tear keeps metadata");
        assert_ne!(read, data, "payload must be partial");
        assert!(!rmeta.payload_matches(&read), "checksum must expose the torn page");
        // An early tear (first half) loses the metadata entirely.
        let d2 =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let cut_early = SimTime(out.started_at.as_nanos() + span / 4);
        d2.arm_power_cut(cut_early);
        assert!(d2.program_page(p, &data, meta, SimTime::ZERO).is_err());
        d2.clear_power_cut();
        let (_, rmeta, _) = d2.read_page(p, d2.quiesce_time()).unwrap();
        assert!(rmeta.is_none(), "early tear loses the OOB metadata");
    }

    #[test]
    fn interrupted_erase_destroys_metadata_without_resetting_block() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let b = BlockAddr::new(DieId(0), 0, 0);
        for i in 0..d.geometry().pages_per_block {
            d.program_page(
                b.page(i),
                &payload(i as u8, &d),
                PageMetadata::new(1, i as u64),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let idle = d.quiesce_time();
        // Cut shortly after the erase starts.
        d.arm_power_cut(idle + crate::time::Duration::from_us(1));
        assert!(d.erase_block(b, idle).unwrap_err().is_power_loss());
        d.clear_power_cut();
        let info = d.block_info(b).unwrap();
        assert_eq!(info.state, BlockState::Full, "interrupted erase does not free the block");
        assert_eq!(info.erase_count, 0, "incomplete erase is not charged to wear");
        let (_, meta, _) = d.read_page(b.page(0), d.quiesce_time()).unwrap();
        assert!(meta.is_none(), "metadata is destroyed");
        // A full erase after "reboot" makes the block usable again.
        d.erase_block(b, d.quiesce_time()).unwrap();
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Free);
    }

    #[test]
    fn store_data_false_returns_empty_payload() {
        let d = DeviceBuilder::new(FlashGeometry::small_test()).store_data(false).build();
        let p = page(0, 0, 0);
        d.program_page(p, &[], PageMetadata::new(1, 5), SimTime::ZERO).unwrap();
        let (data, meta, _) = d.read_page(p, SimTime::ZERO).unwrap();
        assert!(data.is_empty());
        assert_eq!(meta.unwrap().logical_page, 5);
    }

    /// Satellite requirement of the lock-order sanitizer: taking a channel
    /// shard before its die shard is a lock-order violation and must panic
    /// in debug builds before the thread can block on the mutex.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn channel_shard_before_die_shard_panics_in_debug() {
        let d = dev();
        let _chan = d.channel_shard(0);
        let _die = d.die_shard(DieId(0));
    }

    #[test]
    fn threads_on_disjoint_dies_do_not_interfere() {
        // Two threads hammering disjoint dies (on disjoint channels in the
        // small_test geometry) must produce exactly the same per-die timing
        // and state as a single-threaded run: with the global device mutex
        // replaced by per-die shards, there is no common lock whose
        // acquisition order could matter.
        use std::sync::Arc;

        fn run_die(d: &NandDevice, die: u32, rounds: u32) -> SimTime {
            let mut last = SimTime::ZERO;
            for b in 0..rounds {
                for p in 0..d.geometry().pages_per_block {
                    let addr = PageAddr::new(DieId(die), 0, b, p);
                    let data = vec![(b ^ p) as u8; d.geometry().page_size as usize];
                    let out = d
                        .program_page(addr, &data, PageMetadata::new(1, p as u64), SimTime::ZERO)
                        .unwrap();
                    last = last.max(out.completed_at);
                }
            }
            last
        }

        let reference =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let ref0 = run_die(&reference, 0, 4);
        let ref2 = run_die(&reference, 2, 4);

        let shared = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let d0 = Arc::clone(&shared);
        let t0 = std::thread::spawn(move || run_die(&d0, 0, 4));
        let d2 = Arc::clone(&shared);
        let t2 = std::thread::spawn(move || run_die(&d2, 2, 4));
        assert_eq!(t0.join().unwrap(), ref0);
        assert_eq!(t2.join().unwrap(), ref2);
        // Same per-die busy time and op counts as the single-threaded run.
        let a = reference.die_stats();
        let b = shared.die_stats();
        assert_eq!(a[0].ops, b[0].ops);
        assert_eq!(a[0].busy_time, b[0].busy_time);
        assert_eq!(a[2].ops, b[2].ops);
        assert_eq!(a[2].busy_time, b[2].busy_time);
        // And the data is intact on both dies.
        for die in [0u32, 2] {
            let (read, _, _) = shared.read_page(page(die, 1, 3), shared.quiesce_time()).unwrap();
            assert_eq!(read, vec![1u8 ^ 3; shared.geometry().page_size as usize]);
        }
    }

    mod arbiter {
        use proptest::prelude::*;

        use super::*;

        fn builder() -> DeviceBuilder {
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015())
        }

        fn counter(d: &NandDevice, name: &str) -> u64 {
            d.metrics().counter(name).get()
        }

        /// Program one page per die at t=0 so reads have something to hit.
        fn seed_pages(d: &NandDevice) -> SimTime {
            let mut done = SimTime::ZERO;
            for die in 0..d.geometry().total_dies() {
                let data = vec![die as u8; d.geometry().page_size as usize];
                let out = d
                    .program_page(page(die, 0, 0), &data, PageMetadata::new(1, 0), SimTime::ZERO)
                    .unwrap();
                done = done.max(out.completed_at);
            }
            done
        }

        #[test]
        fn arbiter_off_tagged_path_is_byte_identical_to_untagged() {
            // The PR 9 equivalence guarantee: with no arbiter configured,
            // every tag (any class, exempt or not) schedules exactly like
            // the untagged API.
            let tagged = builder().build();
            let plain = builder().build();
            let t0 = seed_pages(&tagged);
            assert_eq!(t0, seed_pages(&plain));
            let tags = [
                IoTag::new(ServiceClass::Latency, Some(1)),
                IoTag::default(),
                IoTag::background(Some(2)),
                IoTag::durability(ServiceClass::Throughput, None),
            ];
            let mut at = t0;
            for (i, tag) in tags.iter().cycle().take(24).enumerate() {
                let die = (i as u32) % tagged.geometry().total_dies();
                let (da, ma, oa) = tagged.read_page_tagged(page(die, 0, 0), at, *tag).unwrap();
                let (db, mb, ob) = plain.read_page(page(die, 0, 0), at).unwrap();
                assert_eq!((da, ma, oa), (db, mb, ob), "op {i} diverged");
                at += Duration(1_000);
            }
            let a = tagged.stats();
            let b = plain.stats();
            assert_eq!(a.page_reads, b.page_reads);
            assert_eq!(a.read_latency_sum, b.read_latency_sum);
            assert_eq!(a.bytes_transferred, b.bytes_transferred);
            assert_eq!(tagged.quiesce_time(), plain.quiesce_time());
            assert_eq!(counter(&tagged, "flash.arbiter.deferred"), 0);
        }

        #[test]
        fn background_burst_defers_and_foreground_backfills_the_gaps() {
            let d = builder().arbiter(ArbiterConfig::default()).build();
            let t0 = seed_pages(&d);
            // A saturating same-instant background burst on die 0's channel
            // overdraws the region budget: later reads are deferred, and
            // each deferral opens an idle gap on the channel.
            let bg = IoTag::background(Some(7));
            for _ in 0..120 {
                d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
            }
            assert!(counter(&d, "flash.arbiter.deferred") > 0, "budget must defer the burst");
            assert!(counter(&d, "flash.arbiter.deferral_ns") > 0);
            assert_eq!(
                counter(&d, "flash.arbiter.class.background.ops"),
                120,
                "every burst read admitted as background"
            );
            // A latency read from the die sharing the channel lands in one
            // of the opened gaps instead of queueing behind the burst.
            let before = d.quiesce_time();
            // Die 1 shares channel 0 with the bursting die 0.
            let lat = IoTag::new(ServiceClass::Latency, Some(1));
            let (_, _, out) = d.read_page_tagged(page(1, 0, 0), t0, lat).unwrap();
            assert_eq!(counter(&d, "flash.arbiter.backfills"), 1);
            assert!(
                out.completed_at < before,
                "backfilled read finishes inside the burst window, not after it"
            );
        }

        #[test]
        fn exempt_durability_traffic_is_never_deferred() {
            let d = builder().arbiter(ArbiterConfig::default()).build();
            let t0 = seed_pages(&d);
            // Drain the budget with a background burst first.
            let bg = IoTag::background(Some(3));
            for _ in 0..120 {
                d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
            }
            let deferred = counter(&d, "flash.arbiter.deferred");
            assert!(deferred > 0);
            // Durability traffic from the *same* region sails past the
            // drained bucket (no new deferrals), counted as exempt.
            let meta = IoTag::durability(ServiceClass::Throughput, Some(3));
            for _ in 0..8 {
                d.read_page_tagged(page(0, 0, 0), t0, meta).unwrap();
            }
            assert_eq!(counter(&d, "flash.arbiter.exempt"), 8);
            assert_eq!(counter(&d, "flash.arbiter.deferred"), deferred, "exempt ops never metered");
        }

        #[test]
        fn saturating_pressure_trips_the_aging_clip_but_completes_everything() {
            // A tiny budget with a tight aging bound: deferral requests far
            // exceed max_defer_ns, so the clip must engage, and every op
            // still completes within the bound of its issue + backlog.
            let cfg = ArbiterConfig {
                background_fraction: 0.05,
                window_ns: 100_000,
                max_defer_ns: 500_000,
            };
            let d = builder().arbiter(cfg).build();
            let t0 = seed_pages(&d);
            let bg = IoTag::background(Some(1));
            let mut max_start_delay = Duration::ZERO;
            for _ in 0..64 {
                let (_, _, out) = d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
                max_start_delay = max_start_delay.max(out.started_at.since(t0));
            }
            assert!(counter(&d, "flash.arbiter.aging_capped") > 0, "clip must engage");
            // Start delay is bounded by admission aging plus the channel
            // backlog the ops themselves create — far below the unclipped
            // deferral the drained bucket would have demanded.
            let per_op =
                d.timing().read_array_time() + d.timing().transfer_time(d.geometry().page_size);
            let backlog = Duration(per_op.as_nanos() * 64);
            assert!(
                max_start_delay.as_nanos() <= cfg.max_defer_ns + backlog.as_nanos(),
                "start delay {max_start_delay:?} exceeds aging bound + backlog"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Fairness: on any mixed-class read sequence, the arbiter
            /// delays no op's start by more than `max_defer_ns` beyond
            /// where the arbiter-off device would have started it — the
            /// anti-starvation aging window is a hard bound, and exempt
            /// (`__noftl_meta`-style) traffic is never inverted behind
            /// the background budget.
            #[test]
            fn no_op_starts_more_than_the_aging_window_late(
                classes in prop::collection::vec(0u8..4, 1..48),
                gaps in prop::collection::vec(0u64..40_000, 1..48),
            ) {
                let cfg = ArbiterConfig::default();
                let arb = builder().arbiter(cfg).build();
                let off = builder().build();
                let t0 = seed_pages(&arb);
                seed_pages(&off);
                let mut at = t0;
                for (i, class) in classes.iter().enumerate() {
                    let tag = match class {
                        0 => IoTag::new(ServiceClass::Latency, Some(1)),
                        1 => IoTag::default(),
                        2 => IoTag::background(Some(2)),
                        _ => IoTag::durability(ServiceClass::Throughput, Some(1)),
                    };
                    let die = (i as u32) % arb.geometry().total_dies();
                    let (_, _, a) = arb.read_page_tagged(page(die, 0, 0), at, tag).unwrap();
                    let (_, _, b) = off.read_page_tagged(page(die, 0, 0), at, tag).unwrap();
                    prop_assert!(
                        a.started_at.as_nanos() <= b.started_at.as_nanos() + cfg.max_defer_ns,
                        "op {} (class {}) started at {:?}, off-device {:?}: past the aging window",
                        i, class, a.started_at, b.started_at
                    );
                    at += Duration(gaps[i % gaps.len()]);
                }
            }
        }
    }
}
