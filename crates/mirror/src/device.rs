//! The mirrored backend: N simulated NAND devices behind one
//! [`FlashBackend`].
//!
//! Writes fan out to every child that is in sync for the targeted
//! segment, all queued at the caller's submit time so the children stay
//! page-for-page identical.  Reads are served by any in-sync child,
//! chosen queue-aware (earliest start on the target die) with a
//! round-robin tie-break.  Device loss is injected through the shared
//! [`DeviceLossInjector`]: the mirror consults it at submit time, drives
//! the lost child's health machine to [`ChildHealth::Faulted`] and keeps
//! serving from the survivors while the child's [`SegmentMap`] records
//! every write it misses.
//!
//! # Locking
//!
//! Two mirror-level locks slot into the workspace's total order
//! `manager < pending-io < mirror < mirror-range < queue < die <
//! channel < shared`:
//!
//! * [`LockClass::Mirror`] guards health states and dirty maps and is
//!   deliberately held across child-queue submission — planning a
//!   fan-out and executing it are atomic with respect to rebuild
//!   progress, so a segment can never be locked for copy between the
//!   plan and the submit.
//! * [`LockClass::MirrorRange`] guards the write-vs-rebuild range locks:
//!   the set of segments whose copy is in flight and the set redirtied
//!   by foreground writes racing those copies.
//!
//! # Epochs
//!
//! The mirror owns the write-epoch sequence: a program arriving with
//! `epoch == 0` is stamped from the mirror's counter before fan-out, so
//! every child stores the *same* epoch for the same logical write and
//! each child's own counter ratchets to the maximum it has stored
//! (persisted via device snapshots).  After a reboot the child with the
//! highest epoch is therefore guaranteed to hold every acknowledged
//! write, which is how [`MirrorDevice::restore_replication`] picks its
//! rebuild source.

use std::any::Any;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::queue::{CommandQueue, FlashCommand};
use flash_sim::{
    BlockAddr, BlockInfo, DeviceLossInjector, DeviceStats, DieId, DieLoad, DieStats, FlashBackend,
    FlashError, FlashGeometry, NandDevice, OpOutcome, PageAddr, PageMetadata, PageState, Result,
    SimTime, TimingModel, WearSummary,
};
use noftl_obs::MetricsRegistry;

use crate::health::ChildHealth;
use crate::obs::MirrorObs;
use crate::segmap::{ChildBlob, MirrorBlob, SegmentMap};

/// Replication state of one child.
#[derive(Debug)]
pub(crate) struct ChildState {
    pub(crate) health: ChildHealth,
    /// Segments this child is known to be stale for.
    pub(crate) dirty: SegmentMap,
    /// Fail-safe flag: treat *every* segment as dirty regardless of the
    /// map (set when no trustworthy staleness information exists — torn
    /// blob, child attached with unknown history).  Cleared when a
    /// rebuild materialises the map or a restore verifies the child.
    pub(crate) assume_all_dirty: bool,
    /// When the child left `Online`, for the degraded-mode trace span.
    pub(crate) faulted_at: Option<SimTime>,
}

impl ChildState {
    pub(crate) fn is_dirty(&self, seg: u64) -> bool {
        self.assume_all_dirty || self.dirty.is_dirty(seg)
    }

    fn mark_dirty(&mut self, seg: u64) {
        self.dirty.mark(seg);
    }
}

#[derive(Debug)]
pub(crate) struct MirrorState {
    pub(crate) children: Vec<ChildState>,
}

/// Write-vs-rebuild range locks.
#[derive(Debug, Default)]
pub(crate) struct RangeLocks {
    /// Segments whose rebuild copy is in flight right now.
    pub(crate) locked: HashSet<u64>,
    /// Locked segments a foreground write raced; the rebuild must not
    /// clear their dirty bit when the copy lands.
    pub(crate) redirtied: HashSet<u64>,
}

/// A nexus-style replicated flash backend over 2+ [`NandDevice`]s.
pub struct MirrorDevice {
    geometry: FlashGeometry,
    children: Vec<Arc<NandDevice>>,
    queues: Vec<CommandQueue>,
    injector: Arc<DeviceLossInjector>,
    /// Mirror-owned write-epoch sequence (see module docs).
    epoch: AtomicU64,
    /// Round-robin cursor for read tie-breaking.
    rr: AtomicUsize,
    state: Mutex<MirrorState>,
    ranges: Mutex<RangeLocks>,
    pub(crate) obs: MirrorObs,
}

impl std::fmt::Debug for MirrorDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.mirror_shard();
        let healths: Vec<ChildHealth> = state.children.iter().map(|c| c.health).collect();
        f.debug_struct("MirrorDevice")
            .field("children", &self.children.len())
            .field("healths", &healths)
            .field("epoch", &self.epoch.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl MirrorDevice {
    /// Assemble a mirror over `children`, which must be at least two
    /// devices of identical geometry that store page payloads, with a
    /// loss injector sized to match.
    ///
    /// Pristine children all start `Online`.  If any child already holds
    /// data, the child with the highest stored write epoch becomes the
    /// only `Online` member and every other child starts `Faulted` with
    /// the fail-safe "assume everything stale" map until
    /// [`MirrorDevice::restore_replication`] (or a full rebuild)
    /// establishes what they actually hold.
    pub fn new(
        children: Vec<Arc<NandDevice>>,
        injector: Arc<DeviceLossInjector>,
    ) -> Result<MirrorDevice> {
        if children.len() < 2 {
            return Err(FlashError::MirrorConfig {
                message: format!("a mirror needs at least 2 children, got {}", children.len()),
            });
        }
        if injector.children() != children.len() {
            return Err(FlashError::MirrorConfig {
                message: format!(
                    "loss injector covers {} children, mirror has {}",
                    injector.children(),
                    children.len()
                ),
            });
        }
        let geometry = *children[0].geometry();
        for (i, child) in children.iter().enumerate() {
            if *child.geometry() != geometry {
                return Err(FlashError::MirrorConfig {
                    message: format!("child {i} geometry differs from child 0"),
                });
            }
            if !child.stores_data() {
                return Err(FlashError::MirrorConfig {
                    message: format!("child {i} stores no page payloads; mirroring needs them"),
                });
            }
        }
        let epoch = children.iter().map(|c| c.current_epoch()).max().unwrap_or(0);
        let segments = geometry.total_blocks();
        let pristine: Vec<bool> =
            children.iter().map(|c| geometry.dies().all(|d| !c.die_touched(d))).collect();
        let all_pristine = pristine.iter().all(|&p| p);
        let source = Self::pick_source(&children);
        let states = (0..children.len())
            .map(|i| {
                if all_pristine || i == source {
                    ChildState {
                        health: ChildHealth::Online,
                        dirty: SegmentMap::all_clean(segments),
                        assume_all_dirty: false,
                        faulted_at: None,
                    }
                } else {
                    ChildState {
                        health: ChildHealth::Faulted,
                        dirty: SegmentMap::all_clean(segments),
                        assume_all_dirty: true,
                        faulted_at: None,
                    }
                }
            })
            .collect();
        let queues = children.iter().map(|c| CommandQueue::new(c.clone())).collect();
        let obs = MirrorObs::new(Arc::clone(children[0].metrics()), children.len());
        Ok(MirrorDevice {
            geometry,
            queues,
            injector,
            epoch: AtomicU64::new(epoch),
            rr: AtomicUsize::new(0),
            state: Mutex::new(MirrorState { children: states }),
            ranges: Mutex::new(RangeLocks::default()),
            obs,
            children,
        })
    }

    /// Build a mirror of `replicas` fresh devices sharing one metrics
    /// registry (the convenient path for tests and benches).
    pub fn new_fresh(
        replicas: usize,
        geometry: FlashGeometry,
        timing: TimingModel,
    ) -> Result<MirrorDevice> {
        let registry = Arc::new(MetricsRegistry::new());
        let children: Vec<Arc<NandDevice>> = (0..replicas)
            .map(|_| {
                Arc::new(
                    flash_sim::DeviceBuilder::new(geometry)
                        .timing(timing)
                        .metrics(Arc::clone(&registry))
                        .build(),
                )
            })
            .collect();
        let injector = Arc::new(DeviceLossInjector::new(replicas));
        MirrorDevice::new(children, injector)
    }

    /// Power-cycle the box: reboot every child ([`NandDevice::power_cycle`],
    /// child `i` through the image `image.i`) behind a fresh loss injector
    /// that keeps `absent` lost.
    pub fn power_cycle(&self, image: Option<&Path>, absent: Option<usize>) -> Result<MirrorDevice> {
        let mut children = Vec::with_capacity(self.children.len());
        for (i, child) in self.children.iter().enumerate() {
            let path = image.map(|p| p.with_extension(i.to_string()));
            children.push(Arc::new(child.power_cycle(path.as_deref())?));
        }
        let injector = Arc::new(DeviceLossInjector::new(children.len()));
        if let Some(child) = absent {
            injector.arm(child, SimTime::ZERO);
        }
        MirrorDevice::new(children, injector)
    }

    /// The child holding the highest stored write epoch — the only
    /// device guaranteed to hold every acknowledged write (ties prefer
    /// the lowest index).
    fn pick_source(children: &[Arc<NandDevice>]) -> usize {
        let mut best = 0;
        for (i, c) in children.iter().enumerate().skip(1) {
            if c.current_epoch() > children[best].current_epoch() {
                best = i;
            }
        }
        best
    }

    /// The mirror's children (test harnesses snapshot them and arm their
    /// power-cut injectors through this).
    pub fn children(&self) -> &[Arc<NandDevice>] {
        &self.children
    }

    /// The shared device-loss injector.
    pub fn injector(&self) -> &Arc<DeviceLossInjector> {
        &self.injector
    }

    /// Number of rebuild segments (one per erase block).
    pub fn segment_count(&self) -> u64 {
        self.geometry.total_blocks()
    }

    /// Linear segment index of a block.
    pub fn segment_of(&self, block: BlockAddr) -> u64 {
        (block.die.0 as u64 * self.geometry.planes_per_die as u64 + block.plane as u64)
            * self.geometry.blocks_per_plane as u64
            + block.block as u64
    }

    /// The block a segment index denotes (inverse of
    /// [`MirrorDevice::segment_of`]).
    pub fn block_of(&self, seg: u64) -> BlockAddr {
        let bpp = self.geometry.blocks_per_plane as u64;
        let ppd = self.geometry.planes_per_die as u64;
        BlockAddr::new(
            DieId((seg / (bpp * ppd)) as u32),
            ((seg / bpp) % ppd) as u32,
            (seg % bpp) as u32,
        )
    }

    /// Current health of `child`.
    pub fn health(&self, child: usize) -> ChildHealth {
        self.mirror_shard().children[child].health
    }

    /// Number of segments `child` is stale for (the full segment count
    /// while the fail-safe "assume everything dirty" flag is set).
    pub fn dirty_segments(&self, child: usize) -> u64 {
        let state = self.mirror_shard();
        let c = &state.children[child];
        if c.assume_all_dirty {
            self.segment_count()
        } else {
            c.dirty.dirty_count()
        }
    }

    /// True when every child is `Online`.
    pub fn fully_online(&self) -> bool {
        self.mirror_shard().children.iter().all(|c| c.health == ChildHealth::Online)
    }

    pub(crate) fn mirror_shard(&self) -> TrackedGuard<'_, MirrorState> {
        lockorder::lock_tracked(LockClass::Mirror, &self.state)
    }

    pub(crate) fn range_shard(&self) -> TrackedGuard<'_, RangeLocks> {
        lockorder::lock_tracked(LockClass::MirrorRange, &self.ranges)
    }

    pub(crate) fn queue(&self, child: usize) -> &CommandQueue {
        &self.queues[child]
    }

    /// Fault every child whose scheduled loss instant has been reached
    /// by `at`.  Called at the top of every timed operation.
    pub(crate) fn sweep_losses(&self, state: &mut MirrorState, at: SimTime) {
        for (i, child) in state.children.iter_mut().enumerate() {
            if child.health != ChildHealth::Faulted && self.injector.is_lost(i, at) {
                // Online -> Faulted and Rebuilding -> Faulted are both
                // legal, so the transition cannot fail here; if the
                // machine ever changed, keeping the old health is safer
                // than panicking mid-I/O.
                if let Ok(next) = child.health.check_transition(ChildHealth::Faulted) {
                    child.health = next;
                }
                child.faulted_at = Some(self.injector.loss_at(i).unwrap_or(at));
                self.obs.note_fault(i, at);
            }
        }
    }

    fn submit_and_wait(&self, child: usize, cmd: FlashCommand, at: SimTime) -> Result<OpOutcome> {
        let h = self.queues[child].submit(cmd, at);
        self.queues[child].wait(h)?.result.map(|out| out.outcome)
    }

    /// Plan and execute a fan-out mutation of `seg`: submit to in-sync
    /// children, record a dirty segment for everyone else, honouring the
    /// rebuild range locks.  `make_cmd` builds the per-child command.
    fn fan_out(
        &self,
        seg: u64,
        dirty_only_seg: Option<u64>,
        at: SimTime,
        make_cmd: impl Fn() -> FlashCommand,
    ) -> Result<OpOutcome> {
        let mut state = self.mirror_shard();
        self.sweep_losses(&mut state, at);
        // (child index, replica?): programs to a `Rebuilding` child use
        // the replica path so its epoch counter — the marker of its
        // consistent history — stays put until the rebuild commits.
        let mut targets: Vec<(usize, bool)> = Vec::new();
        {
            let mut ranges = self.range_shard();
            for (i, child) in state.children.iter_mut().enumerate() {
                match child.health {
                    ChildHealth::Online => targets.push((i, false)),
                    ChildHealth::Faulted => {
                        child.mark_dirty(dirty_only_seg.unwrap_or(seg));
                        self.obs.note_write_skip(i);
                    }
                    ChildHealth::Rebuilding => {
                        if ranges.locked.contains(&seg) {
                            ranges.redirtied.insert(seg);
                            self.obs.note_write_skip(i);
                        } else if child.is_dirty(seg)
                            || dirty_only_seg.is_some_and(|d| child.is_dirty(d))
                        {
                            // The stale copy will be overwritten by the
                            // rebuild; applying now would diverge from
                            // the source's block layout.
                            child.mark_dirty(dirty_only_seg.unwrap_or(seg));
                            self.obs.note_write_skip(i);
                        } else {
                            targets.push((i, true));
                        }
                    }
                }
            }
        }
        if targets.is_empty() {
            return Err(FlashError::NoHealthyChild { at });
        }
        // Submit while still holding the mirror lock (Mirror < Queue):
        // no rebuild can range-lock `seg` between plan and execution.
        let mut merged: Option<OpOutcome> = None;
        let mut first_err: Option<FlashError> = None;
        for &(i, replica) in &targets {
            let result = match make_cmd() {
                FlashCommand::Program { addr, data, meta } if replica => {
                    self.children[i].program_replica(addr, &data, meta, at)
                }
                cmd => self.submit_and_wait(i, cmd, at),
            };
            match result {
                Ok(out) => {
                    self.obs.note_program(i);
                    merged = Some(match merged {
                        None => out,
                        Some(m) => OpOutcome {
                            started_at: m.started_at.min(out.started_at),
                            completed_at: m.completed_at.max(out.completed_at),
                        },
                    });
                }
                Err(e) => first_err = Some(first_err.unwrap_or(e)),
            }
        }
        match (first_err, merged) {
            (Some(e), _) => Err(e),
            (None, Some(out)) => Ok(out),
            // Unreachable (targets is non-empty and nothing failed), but
            // degrade to the no-target error rather than panicking.
            (None, None) => Err(FlashError::NoHealthyChild { at }),
        }
    }

    /// Serve a read command from the best in-sync child.
    fn read_from_best(
        &self,
        addr: PageAddr,
        at: SimTime,
        metadata_only: bool,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        let seg = self.segment_of(addr.block());
        let mut state = self.mirror_shard();
        self.sweep_losses(&mut state, at);
        let candidates: Vec<usize> = {
            let ranges = self.range_shard();
            state
                .children
                .iter()
                .enumerate()
                .filter(|(_, c)| match c.health {
                    ChildHealth::Online => true,
                    ChildHealth::Rebuilding => !c.is_dirty(seg) && !ranges.locked.contains(&seg),
                    ChildHealth::Faulted => false,
                })
                .map(|(i, _)| i)
                .collect()
        };
        if candidates.is_empty() {
            return Err(FlashError::NoHealthyChild { at });
        }
        let degraded = candidates.len() < self.children.len();
        // Queue-aware selection: earliest start on the target die wins;
        // the round-robin cursor rotates the scan order so ties spread
        // over the replica set.
        let rr = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut best = candidates[rr % candidates.len()];
        let mut best_start = self.children[best].die_load(addr.die, at).earliest_start(at);
        for off in 1..candidates.len() {
            let i = candidates[(rr + off) % candidates.len()];
            let start = self.children[i].die_load(addr.die, at).earliest_start(at);
            if start < best_start {
                best = i;
                best_start = start;
            }
        }
        let cmd = if metadata_only {
            FlashCommand::MetadataRead { addr }
        } else {
            FlashCommand::Read { addr }
        };
        let h = self.queues[best].submit(cmd, at);
        let out = self.queues[best].wait(h)?.result?;
        self.obs.note_read(best, degraded, at, out.outcome.completed_at);
        Ok((out.data, out.meta, out.outcome))
    }

    /// The child untimed state probes are served from: the first
    /// `Online` child (there is always at least one in any usable
    /// mirror; falls back to child 0 for a fully-faulted mirror so the
    /// probe itself cannot fail).
    fn canonical_child(&self) -> usize {
        let state = self.mirror_shard();
        state
            .children
            .iter()
            .position(|c| c.health == ChildHealth::Online)
            .or_else(|| state.children.iter().position(|c| c.health == ChildHealth::Rebuilding))
            .unwrap_or(0)
    }

    /// Children whose load should gate queue-aware placement: everything
    /// that currently receives writes.
    fn load_children(&self) -> Vec<usize> {
        let state = self.mirror_shard();
        let active: Vec<usize> = state
            .children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.health != ChildHealth::Faulted)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            vec![0]
        } else {
            active
        }
    }

    /// Compare `child` against `source` and return the exact set of
    /// segments where they differ: block shape (state, write pointer,
    /// valid/invalid counts) first, then per-page OOB metadata for
    /// blocks whose shape matches.  Erase counts are deliberately
    /// ignored — a rebuilt block has extra erases but identical content.
    ///
    /// Timed metadata reads advance `*now`; both devices are probed at
    /// the same instants so the scans overlap like the hardware would.
    fn verify_dirty(&self, source: usize, child: usize, now: &mut SimTime) -> Result<SegmentMap> {
        let src = self.children[source].as_ref();
        let tgt = self.children[child].as_ref();
        let mut map = SegmentMap::all_clean(self.segment_count());
        for die in self.geometry.dies() {
            if !src.die_touched(die) && !tgt.die_touched(die) {
                continue;
            }
            for plane in 0..self.geometry.planes_per_die {
                for block in 0..self.geometry.blocks_per_plane {
                    let addr = BlockAddr::new(die, plane, block);
                    let sb = src.block_info(addr)?;
                    let tb = tgt.block_info(addr)?;
                    let shape =
                        |b: &BlockInfo| (b.state, b.write_ptr, b.valid_pages, b.invalid_pages);
                    if shape(&sb) != shape(&tb) {
                        map.mark(self.segment_of(addr));
                        continue;
                    }
                    if sb.write_ptr == 0 || sb.state == flash_sim::BlockState::Bad {
                        continue;
                    }
                    for page in 0..sb.write_ptr {
                        let p = addr.page(page);
                        let (sm, so) = src.read_metadata(p, *now)?;
                        let (tm, to) = tgt.read_metadata(p, *now)?;
                        *now = (*now).max(so.completed_at).max(to.completed_at);
                        // Identical OOB (object, page, epoch, checksum)
                        // implies identical payload; anything else —
                        // including both sides torn — is stale.
                        if sm.is_none() || sm != tm {
                            map.mark(self.segment_of(addr));
                            break;
                        }
                    }
                }
            }
        }
        Ok(map)
    }

    #[cfg(test)]
    pub(crate) fn test_lock_segment(&self, seg: u64) {
        self.range_shard().locked.insert(seg);
    }

    #[cfg(test)]
    pub(crate) fn test_unlock_segment(&self, seg: u64) -> bool {
        let mut ranges = self.range_shard();
        ranges.locked.remove(&seg);
        ranges.redirtied.remove(&seg)
    }
}

impl FlashBackend for MirrorDevice {
    fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    fn timing(&self) -> &TimingModel {
        self.children[0].timing()
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.children[0].metrics()
    }

    fn read_page(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.read_from_best(addr, at, false)
    }

    fn read_metadata(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Option<PageMetadata>, OpOutcome)> {
        self.read_from_best(addr, at, true).map(|(_, meta, out)| (meta, out))
    }

    fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome> {
        let mut meta = meta;
        if meta.epoch == 0 {
            meta.epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        } else {
            self.epoch.fetch_max(meta.epoch, Ordering::AcqRel);
        }
        let seg = self.segment_of(addr.block());
        let data = data.to_vec();
        self.fan_out(seg, None, at, || FlashCommand::Program { addr, data: data.clone(), meta })
    }

    fn erase_block(&self, addr: BlockAddr, at: SimTime) -> Result<OpOutcome> {
        let seg = self.segment_of(addr);
        self.fan_out(seg, None, at, || FlashCommand::Erase { block: addr })
    }

    fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> Result<OpOutcome> {
        // A child can only copy back from its own array if its copy of
        // the *source* segment is in sync; otherwise the destination
        // segment goes dirty and the rebuild recreates it later.
        let src_seg = self.segment_of(src.block());
        let dst_seg = self.segment_of(dst.block());
        self.fan_out(src_seg, Some(dst_seg), at, || FlashCommand::Copyback { src, dst })
    }

    fn mark_invalid(&self, addr: PageAddr) -> Result<()> {
        let seg = self.segment_of(addr.block());
        let mut state = self.mirror_shard();
        let mut ranges = self.range_shard();
        for (i, child) in state.children.iter_mut().enumerate() {
            match child.health {
                ChildHealth::Online => self.children[i].mark_invalid(addr)?,
                ChildHealth::Faulted => child.mark_dirty(seg),
                ChildHealth::Rebuilding => {
                    if ranges.locked.contains(&seg) {
                        ranges.redirtied.insert(seg);
                    } else if child.is_dirty(seg) {
                        child.mark_dirty(seg);
                    } else {
                        self.children[i].mark_invalid(addr)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn retire_block(&self, addr: BlockAddr) -> Result<()> {
        let seg = self.segment_of(addr);
        let mut state = self.mirror_shard();
        let mut ranges = self.range_shard();
        for (i, child) in state.children.iter_mut().enumerate() {
            match child.health {
                ChildHealth::Online => self.children[i].retire_block(addr)?,
                ChildHealth::Faulted => child.mark_dirty(seg),
                ChildHealth::Rebuilding => {
                    if ranges.locked.contains(&seg) {
                        ranges.redirtied.insert(seg);
                    } else if child.is_dirty(seg) {
                        child.mark_dirty(seg);
                    } else {
                        self.children[i].retire_block(addr)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo> {
        self.children[self.canonical_child()].block_info(addr)
    }

    fn page_state(&self, addr: PageAddr) -> Result<PageState> {
        self.children[self.canonical_child()].page_state(addr)
    }

    fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for child in &self.children {
            let s = child.stats();
            total.page_reads += s.page_reads;
            total.page_programs += s.page_programs;
            total.block_erases += s.block_erases;
            total.copybacks += s.copybacks;
            total.metadata_reads += s.metadata_reads;
            total.bytes_transferred += s.bytes_transferred;
            total.read_latency_sum += s.read_latency_sum;
            total.program_latency_sum += s.program_latency_sum;
            total.erase_latency_sum += s.erase_latency_sum;
            total.copyback_latency_sum += s.copyback_latency_sum;
            total.errors += s.errors;
            total.queue_depth_hwm = total.queue_depth_hwm.max(s.queue_depth_hwm);
        }
        total
    }

    fn die_stats(&self) -> Vec<DieStats> {
        let mut merged = vec![DieStats::default(); self.geometry.total_dies() as usize];
        for child in &self.children {
            for (slot, d) in merged.iter_mut().zip(child.die_stats()) {
                slot.ops += d.ops;
                slot.busy_time += d.busy_time;
                slot.total_erases += d.total_erases;
                slot.max_erase_count = slot.max_erase_count.max(d.max_erase_count);
                slot.queue_depth_hwm = slot.queue_depth_hwm.max(d.queue_depth_hwm);
            }
        }
        merged
    }

    fn wear_summary(&self) -> WearSummary {
        // Merge the per-child summaries: totals add, extremes combine,
        // the mean averages (children have identical block counts) and
        // the spread conservatively reports the widest child.
        let summaries: Vec<WearSummary> = self.children.iter().map(|c| c.wear_summary()).collect();
        let n = summaries.len() as f64;
        WearSummary {
            total_erases: summaries.iter().map(|s| s.total_erases).sum(),
            min_erase_count: summaries.iter().map(|s| s.min_erase_count).min().unwrap_or(0),
            max_erase_count: summaries.iter().map(|s| s.max_erase_count).max().unwrap_or(0),
            mean_erase_count: summaries.iter().map(|s| s.mean_erase_count).sum::<f64>() / n,
            stddev_erase_count: summaries.iter().map(|s| s.stddev_erase_count).fold(0.0, f64::max),
            bad_blocks: summaries.iter().map(|s| s.bad_blocks).sum(),
        }
    }

    fn quiesce_time(&self) -> SimTime {
        self.children.iter().map(|c| c.quiesce_time()).max().unwrap_or(SimTime::ZERO)
    }

    fn die_busy_until(&self, die: DieId) -> SimTime {
        self.load_children()
            .into_iter()
            .map(|i| self.children[i].die_busy_until(die))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        // Writes fan out to every non-faulted child, so the effective
        // load of a die is the worst over the active replica set.
        let mut load = DieLoad::default();
        for i in self.load_children() {
            let l = self.children[i].die_load(die, at);
            load.busy_until = load.busy_until.max(l.busy_until);
            load.queue_depth = load.queue_depth.max(l.queue_depth);
        }
        load
    }

    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        let mut merged = vec![DieLoad::default(); self.geometry.total_dies() as usize];
        for i in self.load_children() {
            for (slot, l) in merged.iter_mut().zip(self.children[i].die_loads(at)) {
                slot.busy_until = slot.busy_until.max(l.busy_until);
                slot.queue_depth = slot.queue_depth.max(l.queue_depth);
            }
        }
        merged
    }

    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn stores_data(&self) -> bool {
        true
    }

    fn die_touched(&self, die: DieId) -> bool {
        self.children.iter().any(|c| c.die_touched(die))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn replication_blob(&self) -> Option<Vec<u8>> {
        let state = self.mirror_shard();
        let ranges = self.range_shard();
        let children = state
            .children
            .iter()
            .map(|c| {
                let mut dirty = if c.assume_all_dirty {
                    SegmentMap::all_dirty(self.segment_count())
                } else {
                    c.dirty.clone()
                };
                if c.health == ChildHealth::Rebuilding {
                    // Copies still in flight (and anything they raced)
                    // must not be trusted across a crash.
                    for &s in ranges.locked.iter().chain(ranges.redirtied.iter()) {
                        dirty.mark(s);
                    }
                }
                ChildBlob { health: c.health, dirty }
            })
            .collect();
        let blob = MirrorBlob { watermark: self.epoch.load(Ordering::Acquire), children };
        Some(blob.encode())
    }

    fn restore_replication(&self, blob: Option<&[u8]>, at: SimTime) -> Result<SimTime> {
        let mut now = at;
        // Nothing written anywhere: a fresh mirror stays fully online.
        if self.geometry.dies().all(|d| !self.die_touched(d)) {
            let mut state = self.mirror_shard();
            for c in state.children.iter_mut() {
                c.health = ChildHealth::Online;
                c.dirty = SegmentMap::all_clean(self.segment_count());
                c.assume_all_dirty = false;
            }
            return Ok(now);
        }
        let source = Self::pick_source(&self.children);
        let decoded = blob
            .and_then(MirrorBlob::decode)
            .filter(|b| b.children.len() == self.children.len())
            .filter(|b| b.children.iter().all(|c| c.dirty.segments() == self.segment_count()));
        // Compute every child's staleness before mutating any state.
        let mut plans: Vec<(ChildHealth, SegmentMap, bool)> =
            Vec::with_capacity(self.children.len());
        for i in 0..self.children.len() {
            if i == source {
                plans.push((
                    ChildHealth::Online,
                    SegmentMap::all_clean(self.segment_count()),
                    false,
                ));
                continue;
            }
            if self.injector.is_lost(i, at) {
                // The child is not reachable, so nothing can be
                // verified about it: fail safe until it reattaches.
                plans.push((
                    ChildHealth::Faulted,
                    SegmentMap::all_clean(self.segment_count()),
                    true,
                ));
                continue;
            }
            let Some(ref blob) = decoded else {
                // Missing or torn blob: rebuild everything, never risk
                // silent staleness.
                plans.push((
                    ChildHealth::Faulted,
                    SegmentMap::all_clean(self.segment_count()),
                    true,
                ));
                continue;
            };
            // Persisted map ∪ anything accrued since construction ∪ the
            // scan's ground truth (covers writes after the checkpoint
            // that persisted the blob).
            let mut dirty = blob.children[i].dirty.clone();
            {
                let state = self.mirror_shard();
                if state.children[i].assume_all_dirty {
                    // Construction had no information; the blob and the
                    // scan below supersede the fail-safe flag.
                } else {
                    dirty.union(&state.children[i].dirty);
                }
            }
            dirty.union(&self.verify_dirty(source, i, &mut now)?);
            let health =
                if dirty.is_all_clean() { ChildHealth::Online } else { ChildHealth::Faulted };
            plans.push((health, dirty, false));
        }
        let mut state = self.mirror_shard();
        for (child, (health, dirty, assume)) in state.children.iter_mut().zip(plans) {
            child.health = health;
            child.dirty = dirty;
            child.assume_all_dirty = assume;
            if health == ChildHealth::Online {
                child.faulted_at = None;
            }
        }
        Ok(now)
    }
}
