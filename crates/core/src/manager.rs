//! The NoFTL storage manager.
//!
//! [`NoFtl`] is the component labelled "Storage Manager" in the paper's
//! Figure 1: it owns the physical flash address space, performs address
//! translation and out-of-place updates, runs garbage collection and wear
//! leveling — all *per region*, using DBMS-level knowledge (which object a
//! page belongs to) that a conventional FTL does not have.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::queue::{CmdHandle, CmdOutput, CommandQueue, FlashCommand};
use flash_sim::{
    BlockAddr, DieId, FlashBackend, IoTag, PageAddr, PageMetadata, PageState, ServiceClass, SimTime,
};

use noftl_obs::{MetricsRegistry, MetricsSnapshot};

use crate::config::NoFtlConfig;
use crate::error::NoFtlError;
use crate::gc::{select_victim, GcCandidate};
use crate::object::{ObjectId, ObjectState};
use crate::obs::{CoreObs, Window};
use crate::recovery::{
    self, CheckpointImage, MountReport, ObjectImage, RegionImage, META_OBJECT_ID, META_REGION_NAME,
};
use crate::region::{RegionDie, RegionId, RegionRuntime, RegionSpec};
use crate::stats::{NoFtlStats, ObjectStats, RegionStats};
use crate::wear::needs_static_wl;
use crate::Result;

/// In-memory directory of the flash pages no object translation maps:
/// where checkpoint chunk pages currently live, plus the staged pages of
/// an in-progress atomic write.  The chunks themselves carry all recovery
/// information in their page payloads and OOB records; this directory only
/// lets the *running* manager invalidate superseded chunks and lets GC
/// keep every location here current when it relocates a page.
#[derive(Debug, Default)]
struct MetaDirectory {
    /// Region hosting the checkpoint chunks (created lazily).
    region: Option<RegionId>,
    /// Chunk index → physical page of the newest *completed* checkpoint.
    map: Vec<Option<PageAddr>>,
    /// Chunk pages of a checkpoint currently being written.  The previous
    /// checkpoint's pages stay valid (and in `map`) until every new chunk
    /// is durable, so a crash mid-checkpoint always leaves one complete
    /// checkpoint on flash.
    staging: Vec<Option<PageAddr>>,
    /// Sequence number of the newest completed checkpoint.
    seq: u64,
    /// Pages of the atomic write in progress: programmed, not yet mapped.
    atomic: Vec<ProgrammedPage>,
}

/// A programmed page awaiting its translation commit.
#[derive(Debug, Clone, Copy)]
struct ProgrammedPage {
    obj: ObjectId,
    page: u64,
    ppa: PageAddr,
    issued: SimTime,
    completed: SimTime,
}

/// How one call drives the page pipeline ([`NoFtl::read_pages`] and
/// [`NoFtl::write_pages`]); every public data-path entry point is one
/// choice of these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pipeline {
    /// Pages in flight at once: page `i` issues no earlier than the
    /// completion of page `i - window`.
    pub(crate) window: usize,
    /// Service class forced onto every command instead of the region's
    /// own (maintenance traffic runs `Background` this way).
    pub(crate) class: Option<ServiceClass>,
    /// Stage every translation until all programs succeed.
    pub(crate) atomic: bool,
    /// Record the `core.{flush,read}.window_*` histograms.  Only the
    /// windowed entry points do, so other traffic never skews them.
    pub(crate) observed: bool,
}

impl Pipeline {
    /// A plain pipeline of `window` pages in flight.
    pub(crate) fn window(window: usize) -> Self {
        Pipeline { window, class: None, atomic: false, observed: false }
    }
}

struct Inner {
    regions: Vec<Option<RegionRuntime>>,
    region_by_name: HashMap<String, RegionId>,
    free_dies: Vec<DieId>,
    /// Indexed by `ObjectId`; slot 0 is unused so object ids can be stored
    /// directly in flash page metadata (where 0 means "no object").
    objects: Vec<Option<ObjectState>>,
    object_by_name: HashMap<String, ObjectId>,
    /// Region-metadata journal state.
    meta: MetaDirectory,
}

/// A claimed-but-not-yet-collected asynchronous I/O: the payload (reads
/// only) and the completion time, parked until [`NoFtl::wait_io`].
#[derive(Debug)]
struct PendingIo {
    data: Vec<u8>,
    completed_at: SimTime,
}

/// The NoFTL storage manager: regions, objects, address translation,
/// out-of-place updates, GC, wear leveling.
pub struct NoFtl {
    device: Arc<dyn FlashBackend>,
    config: NoFtlConfig,
    /// Submission queue feeding the device: every logical page read and
    /// program of the page pipeline goes through it.
    queue: CommandQueue,
    /// Completions of `submit_read`/`submit_write` awaiting `wait_io`.
    pending_io: Mutex<HashMap<u64, PendingIo>>,
    inner: Mutex<Inner>,
    /// Pre-bound metric handles (placement, GC, flush windows) on the
    /// device's registry.  Atomics-only: safe under any tracked lock.
    obs: CoreObs,
}

impl std::fmt::Debug for NoFtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock_inner();
        f.debug_struct("NoFtl")
            .field("regions", &inner.region_by_name.len())
            .field("objects", &inner.object_by_name.len())
            .field("free_dies", &inner.free_dies.len())
            .finish_non_exhaustive()
    }
}

impl NoFtl {
    /// Create a storage manager over `device`.  All dies start in the free
    /// pool; create regions to make them usable.
    ///
    /// # Panics
    /// Panics if the configuration fails validation (a programming error).
    pub fn new(device: Arc<dyn FlashBackend>, config: NoFtlConfig) -> Self {
        // analyzer:allow(panic_freedom) configuration failures are programming errors, documented under `# Panics`
        config.validate().unwrap_or_else(|e| panic!("invalid NoFTL configuration: {e}"));
        let free_dies: Vec<DieId> = device.geometry().dies().collect();
        NoFtl {
            queue: CommandQueue::new(device.clone()),
            pending_io: Mutex::new(HashMap::new()),
            obs: CoreObs::new(Arc::clone(device.metrics())),
            device,
            config,
            inner: Mutex::new(Inner {
                regions: Vec::new(),
                region_by_name: HashMap::new(),
                free_dies,
                objects: vec![None],
                object_by_name: HashMap::new(),
                meta: MetaDirectory::default(),
            }),
        }
    }

    /// Convenience constructor for the "traditional data placement"
    /// baseline: one region named `rgAll` spanning every die of the device.
    pub fn with_single_region(
        device: Arc<dyn FlashBackend>,
        config: NoFtlConfig,
    ) -> (Self, RegionId) {
        let total = device.geometry().total_dies();
        let noftl = Self::new(device, config);
        let rid = noftl
            .create_region(RegionSpec::named("rgAll").with_die_count(total))
            // analyzer:allow(panic_freedom) a fresh manager has every die free, so one region spanning them all always fits
            .expect("single region over all dies always fits");
        (noftl, rid)
    }

    /// The underlying native flash device.
    pub fn device(&self) -> &Arc<dyn FlashBackend> {
        &self.device
    }

    /// The configuration in use.
    pub fn config(&self) -> &NoFtlConfig {
        &self.config
    }

    /// The metrics registry shared with the underlying device: every
    /// layer of the stack (device, queue, manager, KV) records into it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.obs.registry()
    }

    /// Snapshot every counter, gauge and histogram of the shared
    /// registry at this instant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.registry().snapshot()
    }

    /// Lock the manager state.  This is the sole acquisition site of the
    /// manager lock, the first class in the documented lock order: it may
    /// be held across queue and device calls (allocation and translation
    /// commit must be atomic with respect to GC) but never acquired while
    /// any later-ordered lock is held.
    fn lock_inner(&self) -> TrackedGuard<'_, Inner> {
        lockorder::lock_tracked(LockClass::Manager, &self.inner)
    }

    /// Lock the pending-I/O completion map.  Sole acquisition site of the
    /// pending-io lock; held only for a map insert/remove, never across
    /// device execution.
    fn lock_pending_io(&self) -> TrackedGuard<'_, HashMap<u64, PendingIo>> {
        lockorder::lock_tracked(LockClass::PendingIo, &self.pending_io)
    }

    // ------------------------------------------------------------------
    // Region management
    // ------------------------------------------------------------------

    /// Create a region from a spec (`CREATE REGION`).  Dies are taken from
    /// the free pool, spread over as many channels as possible (or at most
    /// `max_channels` if the spec limits them).
    pub fn create_region(&self, spec: RegionSpec) -> Result<RegionId> {
        let mut inner = self.lock_inner();
        if inner.region_by_name.contains_key(&spec.name) {
            return Err(NoFtlError::RegionExists { name: spec.name });
        }
        let geo = self.device.geometry();
        let want = spec.resolve_die_count(geo);
        // Group the free dies by channel so we can stripe across channels.
        let mut by_channel: Vec<Vec<DieId>> = vec![Vec::new(); geo.channels as usize];
        for die in &inner.free_dies {
            by_channel[geo.channel_of_die(*die) as usize].push(*die);
        }
        let channel_limit = spec.max_channels.unwrap_or(geo.channels).max(1) as usize;
        let usable: Vec<&mut Vec<DieId>> =
            by_channel.iter_mut().filter(|v| !v.is_empty()).take(channel_limit).collect();
        let available: u32 = usable.iter().map(|v| v.len() as u32).sum();
        if available < want {
            return Err(NoFtlError::NotEnoughDies { requested: want, available });
        }
        // Round-robin over the usable channels.
        let mut chosen: Vec<DieId> = Vec::with_capacity(want as usize);
        let mut lanes: Vec<Vec<DieId>> = usable.into_iter().map(std::mem::take).collect();
        let lane_count = lanes.len();
        let mut lane = 0usize;
        while (chosen.len() as u32) < want {
            if let Some(d) = lanes[lane % lane_count].pop() {
                chosen.push(d);
            }
            lane += 1;
            // Guard against all lanes being empty (cannot happen given the
            // availability check above, but keeps the loop obviously finite).
            if lane > (want as usize + 1) * lane_count {
                break;
            }
        }
        // Return unchosen dies to the pool.
        let mut remaining: Vec<DieId> = lanes.into_iter().flatten().collect();
        // Dies on channels beyond the channel limit stayed in `by_channel`
        // only if they were never moved into `lanes`; rebuild the pool from
        // what's left plus the untouched channels.
        for v in by_channel {
            remaining.extend(v);
        }
        inner.free_dies = remaining;
        let rid = RegionId(inner.regions.len() as u32);
        let runtime = RegionRuntime::new(rid, spec.clone(), self.device.as_ref(), chosen);
        inner.region_by_name.insert(spec.name, rid);
        inner.regions.push(Some(runtime));
        Ok(rid)
    }

    /// Drop an empty region, erasing any blocks it dirtied and returning
    /// its dies to the free pool.  Returns the time at which the erases
    /// complete.
    pub fn drop_region(&self, rid: RegionId, at: SimTime) -> Result<SimTime> {
        let mut inner = self.lock_inner();
        if inner.meta.region == Some(rid) {
            return Err(NoFtlError::Recovery {
                message: format!(
                    "region {rid:?} hosts the region-metadata journal and cannot be dropped"
                ),
            });
        }
        let region = Self::region_mut(&mut inner.regions, rid)?;
        if !region.objects.is_empty() {
            return Err(NoFtlError::RegionNotEmpty { region: rid, objects: region.objects.len() });
        }
        let mut done = at;
        let mut dies = Vec::new();
        for die in &mut region.dies {
            // Erase everything that is not already erased so the die goes
            // back to the pool clean.
            let mut to_erase: Vec<flash_sim::BlockAddr> = die.used_blocks.drain(..).collect();
            if let Some((b, _)) = die.active.take() {
                to_erase.push(b);
            }
            if let Some((b, _)) = die.gc_active.take() {
                to_erase.push(b);
            }
            for b in to_erase {
                match self.device.erase_block(b, at) {
                    Ok(out) => {
                        done = done.max(out.completed_at);
                        die.free_blocks.push(b);
                    }
                    Err(e) if e.is_permanent() => {}
                    Err(e) => return Err(e.into()),
                }
            }
            dies.push(die.die);
        }
        let name = region.name.clone();
        inner.region_by_name.remove(&name);
        inner.regions[rid.0 as usize] = None;
        inner.free_dies.extend(dies);
        Ok(done)
    }

    /// Look up a region id by name.
    pub fn region_id(&self, name: &str) -> Option<RegionId> {
        self.lock_inner().region_by_name.get(name).copied()
    }

    /// Ids of all live regions.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.lock_inner().regions.iter().filter_map(|r| r.as_ref().map(|r| r.id)).collect()
    }

    /// Name of a region.
    pub fn region_name(&self, rid: RegionId) -> Result<String> {
        let inner = self.lock_inner();
        Ok(Self::region_ref(&inner.regions, rid)?.name.clone())
    }

    /// Dies currently owned by a region.
    pub fn region_dies(&self, rid: RegionId) -> Result<Vec<DieId>> {
        let inner = self.lock_inner();
        Ok(Self::region_ref(&inner.regions, rid)?.die_ids())
    }

    /// Statistics of a region.
    pub fn region_stats(&self, rid: RegionId) -> Result<RegionStats> {
        let inner = self.lock_inner();
        Ok(Self::region_ref(&inner.regions, rid)?.stats.clone())
    }

    /// Configuration/occupancy snapshot of a region.
    pub fn region_info(&self, rid: RegionId) -> Result<crate::region::RegionInfo> {
        let inner = self.lock_inner();
        Ok(Self::region_ref(&inner.regions, rid)?.info(self.device.geometry(), &self.config))
    }

    /// Number of dies still unassigned.
    pub fn free_die_count(&self) -> u32 {
        self.lock_inner().free_dies.len() as u32
    }

    /// Add `additional_dies` dies from the free pool to a region.
    pub fn grow_region(&self, rid: RegionId, additional_dies: u32) -> Result<()> {
        let mut inner = self.lock_inner();
        if (inner.free_dies.len() as u32) < additional_dies {
            return Err(NoFtlError::NotEnoughDies {
                requested: additional_dies,
                available: inner.free_dies.len() as u32,
            });
        }
        // Take from the tail in the same order repeated `pop()`s would.
        let keep = inner.free_dies.len() - additional_dies as usize;
        let mut taken = inner.free_dies.split_off(keep);
        taken.reverse();
        let device = Arc::clone(&self.device);
        let region = Self::region_mut(&mut inner.regions, rid)?;
        for die in taken {
            region.dies.push(crate::region::RegionDie::new(device.as_ref(), die));
        }
        Ok(())
    }

    /// Remove `remove_dies` dies from a region, migrating their live data
    /// to the remaining dies (used for global wear leveling / rebalancing,
    /// which the paper lists as a reason for dynamic region membership).
    /// Returns the completion time of the migration.
    pub fn shrink_region(&self, rid: RegionId, remove_dies: u32, at: SimTime) -> Result<SimTime> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let geo = *self.device.geometry();
        let region = Self::region_mut(&mut inner.regions, rid)?;
        if region.dies.len() as u32 <= remove_dies {
            return Err(NoFtlError::Ddl {
                message: format!(
                    "cannot remove {remove_dies} die(s) from region '{}' with only {} die(s)",
                    region.name,
                    region.dies.len()
                ),
            });
        }
        let mut done = at;
        let mut freed = Vec::new();
        for _ in 0..remove_dies {
            let Some(mut die) = region.dies.pop() else { break };
            region.next_die = 0;
            // Collect every block that may hold valid pages.
            let mut blocks: Vec<flash_sim::BlockAddr> = die.used_blocks.drain(..).collect();
            if let Some((b, _)) = die.active.take() {
                blocks.push(b);
            }
            if let Some((b, _)) = die.gc_active.take() {
                blocks.push(b);
            }
            for block in &blocks {
                for page in 0..geo.pages_per_block {
                    let src = block.page(page);
                    if self.device.page_state(src).map(|s| s == PageState::Valid).unwrap_or(false) {
                        // Rebalance copies are maintenance traffic.
                        let tag = IoTag::background(Some(rid.0));
                        let (data, meta, read_out) = self.device.read_page_tagged(src, at, tag)?;
                        let Some(meta) = meta else { continue };
                        // Re-write the page on one of the remaining dies.
                        let ppa = Self::allocate_in_region(
                            &self.obs,
                            self.device.as_ref(),
                            &self.config,
                            region,
                            &mut inner.objects,
                            &mut inner.meta,
                            at,
                        )
                        .ok_or(NoFtlError::RegionFull { region: rid })?;
                        let out = self.device.program_page_tagged(
                            ppa,
                            &data,
                            meta,
                            read_out.completed_at,
                            IoTag::background(Some(rid.0)),
                        )?;
                        done = done.max(out.completed_at);
                        self.device.mark_invalid(src)?;
                        region.stats.rebalance_moves += 1;
                        Self::retranslate(&mut inner.objects, &mut inner.meta, &meta, src, ppa);
                    }
                }
            }
            // Erase everything on the die before returning it to the pool.
            for block in blocks {
                match self.device.erase_block(block, done) {
                    Ok(out) => {
                        done = done.max(out.completed_at);
                        die.free_blocks.push(block);
                    }
                    Err(e) if e.is_permanent() => {}
                    Err(e) => return Err(e.into()),
                }
            }
            freed.push(die.die);
        }
        inner.free_dies.extend(freed);
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Object management
    // ------------------------------------------------------------------

    /// Register a new database object in a region.
    pub fn create_object(&self, name: &str, region: RegionId) -> Result<ObjectId> {
        let mut inner = self.lock_inner();
        if inner.object_by_name.contains_key(name) {
            return Err(NoFtlError::ObjectExists { name: name.to_string() });
        }
        Self::region_ref(&inner.regions, region)?;
        let id = inner.objects.len() as ObjectId;
        inner.objects.push(Some(ObjectState::new(name, region)));
        inner.object_by_name.insert(name.to_string(), id);
        Self::region_mut(&mut inner.regions, region)?.objects.push(id);
        Ok(id)
    }

    /// Register a new object in a region identified by name.
    pub fn create_object_in(&self, name: &str, region_name: &str) -> Result<ObjectId> {
        let rid = self
            .region_id(region_name)
            .ok_or_else(|| NoFtlError::UnknownRegion { region: region_name.to_string() })?;
        self.create_object(name, rid)
    }

    /// Look up an object id by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.lock_inner().object_by_name.get(name).copied()
    }

    /// Drop an object: all of its pages become invalid (reclaimable by GC).
    pub fn drop_object(&self, obj: ObjectId) -> Result<()> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let state = inner
            .objects
            .get_mut(obj as usize)
            .and_then(|o| o.take())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })?;
        inner.object_by_name.remove(&state.name);
        if let Ok(region) = Self::region_mut(&mut inner.regions, state.region) {
            region.objects.retain(|o| *o != obj);
            for ppa in state.map.iter().flatten() {
                let _ = self.device.mark_invalid(*ppa);
                region.record_invalidation(*ppa);
            }
        }
        Ok(())
    }

    /// Statistics snapshot of one object.
    pub fn object_stats(&self, obj: ObjectId) -> Result<ObjectStats> {
        let inner = self.lock_inner();
        let state = Self::object_ref(&inner.objects, obj)?;
        Ok(ObjectStats {
            object_id: obj,
            name: state.name.clone(),
            region: state.region,
            pages: state.mapped_pages(),
            reads: state.counters.reads,
            writes: state.counters.writes,
        })
    }

    /// Statistics snapshots of all live objects.
    pub fn all_object_stats(&self) -> Vec<ObjectStats> {
        let inner = self.lock_inner();
        inner
            .objects
            .iter()
            .enumerate()
            .filter_map(|(id, o)| {
                o.as_ref().map(|state| ObjectStats {
                    object_id: id as ObjectId,
                    name: state.name.clone(),
                    region: state.region,
                    pages: state.mapped_pages(),
                    reads: state.counters.reads,
                    writes: state.counters.writes,
                })
            })
            .collect()
    }

    /// Ids and names of all live objects whose name starts with `prefix`.
    /// Layers that manage families of objects (e.g. the NoFTL-KV run
    /// directory) use this to rediscover their members after a mount.
    pub fn objects_with_prefix(&self, prefix: &str) -> Vec<(ObjectId, String)> {
        let inner = self.lock_inner();
        inner
            .objects
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.as_ref().map(|state| (id as ObjectId, state.name.clone())))
            .filter(|(_, name)| name.starts_with(prefix))
            .collect()
    }

    /// Number of live (mapped) pages of an object.
    pub fn object_pages(&self, obj: ObjectId) -> Result<u64> {
        let inner = self.lock_inner();
        Ok(Self::object_ref(&inner.objects, obj)?.mapped_pages())
    }

    /// Logical extent of an object: the highest written logical page number
    /// plus one (0 for an empty object).  The DBMS layer uses this to size
    /// its extent allocation.
    pub fn object_extent(&self, obj: ObjectId) -> Result<u64> {
        let inner = self.lock_inner();
        Ok(Self::object_ref(&inner.objects, obj)?.logical_extent())
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// Read a logical page of an object.  Returns the payload and the
    /// completion time.
    pub fn read(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)> {
        let (mut payloads, done) = self.read_pages(&[(obj, page)], at, Pipeline::window(1))?;
        Ok((payloads.pop().unwrap_or_default(), done))
    }

    /// Write (out-of-place) a logical page of an object.  Returns the
    /// completion time.
    pub fn write(&self, obj: ObjectId, page: u64, data: &[u8], at: SimTime) -> Result<SimTime> {
        self.write_pages(&[(obj, page, data)], at, Pipeline::window(1))
    }

    /// Write a batch of pages, all issued at `at`, fanned out through the
    /// device's command queue.
    ///
    /// Every page is allocated striped round-robin over its region's dies
    /// (running GC where a die's free pool is low) and its program is
    /// submitted to the [`CommandQueue`] carrying the same issue time, so
    /// the batch executes with full die-level parallelism in the timing
    /// model; the returned time is the completion of the slowest page.
    /// This is the path used by the WAL group-commit force and the KV
    /// store's run writes.
    ///
    /// Each page's translation is committed before the next page is
    /// allocated — a GC pass triggered by a later allocation therefore
    /// always sees current mappings and may safely relocate any page of
    /// the batch it has already committed.
    ///
    /// On failure (e.g. a power cut tearing part of the batch) the
    /// translations of every *successful* program are still committed,
    /// torn pages stay unmapped for recovery to discard, and the first
    /// failure in submission order is returned.
    pub fn write_batch(&self, writes: &[(ObjectId, u64, Vec<u8>)], at: SimTime) -> Result<SimTime> {
        self.write_pages(writes, at, Pipeline::window(writes.len()))
    }

    /// Write a batch of pages through a bounded completion-driven
    /// pipeline: up to `window` pages are kept in flight, and each
    /// further page is issued at the completion instant of the oldest
    /// outstanding one — the behaviour of a depth-limited host driver.
    /// With `window >= writes.len()` this is exactly
    /// [`NoFtl::write_batch`]; with `window == 1` it is a chain of
    /// [`NoFtl::write`] calls, each issued at the previous completion.
    ///
    /// The returned time is the **maximum completion across the whole
    /// window**, not the last page's: under queue-aware placement a later
    /// page steered to an idle die can complete before an earlier page
    /// queued behind a busy one.
    ///
    /// Failures follow `write_batch`'s torn-tail contract for every
    /// window: each page whose program succeeded is committed, torn pages
    /// stay unmapped, and the first failure in submission order is
    /// returned.
    pub fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> Result<SimTime> {
        self.write_pages(writes, at, Pipeline { observed: true, ..Pipeline::window(window) })
    }

    /// Read a batch of pages through the same bounded completion-driven
    /// pipeline as [`NoFtl::write_windowed`]: up to `window` reads are
    /// kept in flight, and each further read is issued at the completion
    /// instant of the oldest outstanding one.  This is the path KV
    /// compaction run-merges, B⁺-tree range scans and heap scans use to
    /// overlap their page fetches across dies instead of reading one page
    /// at a time.
    ///
    /// Returns the payloads **in request order** and the maximum
    /// completion across the whole window, or the first failure in
    /// submission order; no page behind a failure is read.
    pub fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> Result<(Vec<Vec<u8>>, SimTime)> {
        self.read_pages(reads, at, Pipeline { observed: true, ..Pipeline::window(window) })
    }

    /// Submit an asynchronous read of a logical page, issued at `at`.
    ///
    /// The returned handle is claimed with [`NoFtl::wait_io`], which
    /// yields the payload and the completion time.  The manager lock is
    /// held across translation *and* the device read — the same atomicity
    /// the blocking [`NoFtl::read`] provides — so a concurrent writer's
    /// GC can never erase the translated page out from under the read.
    /// Concurrent NoFtl clients therefore serialize on the manager while
    /// reads issued at the same `at` on different dies still overlap in
    /// simulated time; clients that want lock-free die parallelism drive
    /// a [`CommandQueue`] over the device directly.
    pub fn submit_read(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<CmdHandle> {
        let mut inner = self.lock_inner();
        let (handle, data, completed_at) = self.read_step(&mut inner, obj, page, at, None)?;
        self.lock_pending_io().insert(handle.seq(), PendingIo { data, completed_at });
        Ok(handle)
    }

    /// Submit an asynchronous (out-of-place) write of a logical page,
    /// issued at `at`.  The translation switches at submission — a
    /// subsequent read observes the new version — and [`NoFtl::wait_io`]
    /// yields the completion time the caller must charge.
    ///
    /// Unlike `submit_read`, the manager lock is held across the program:
    /// allocation and translation commit must be atomic with respect to
    /// GC (a relocated-then-erased target would otherwise be committed).
    /// Concurrent writers therefore serialize on the manager while their
    /// programs still overlap in *simulated* time via the shared issue
    /// time; use [`NoFtl::write_batch`] to fan many pages out at once.
    pub fn submit_write(
        &self,
        obj: ObjectId,
        page: u64,
        data: &[u8],
        at: SimTime,
    ) -> Result<CmdHandle> {
        self.check_page_size(data)?;
        let mut inner = self.lock_inner();
        let (handle, completed_at) =
            self.program_step(&mut inner, (obj, page, data), at, Pipeline::window(1))?;
        self.lock_pending_io().insert(handle.seq(), PendingIo { data: Vec::new(), completed_at });
        Ok(handle)
    }

    /// Claim a completed asynchronous I/O: the payload (empty for writes)
    /// and the completion time.  Fails for a handle that was never
    /// returned by `submit_read`/`submit_write` or was already claimed.
    pub fn wait_io(&self, handle: CmdHandle) -> Result<(Vec<u8>, SimTime)> {
        match self.lock_pending_io().remove(&handle.seq()) {
            Some(io) => Ok((io.data, io.completed_at)),
            None => Err(flash_sim::FlashError::UnknownHandle { handle: handle.seq() }.into()),
        }
    }

    /// Submission counters of the device-level queue backing this
    /// manager.  The queue itself is private: an external `poll`/`drain`
    /// could steal completions the manager's own submit paths are about
    /// to claim.  Clients wanting a raw queue create their own
    /// [`CommandQueue`] over [`NoFtl::device`] — queues are independent.
    pub fn io_queue_stats(&self) -> flash_sim::QueueStats {
        self.queue.stats()
    }

    /// Atomically write a batch of pages: either all of them become
    /// visible or none does.
    ///
    /// This exploits NoFTL's direct control over out-of-place updates
    /// (advantage (iv) in the paper): the new versions are programmed to
    /// freshly allocated pages first, and only if *all* programs succeed
    /// are the address translations switched and the old versions
    /// invalidated.  GC triggered by a later allocation of the batch
    /// keeps the staged pages' locations current.  On any failure the
    /// freshly written pages are marked invalid and the previous versions
    /// remain visible.
    pub fn write_atomic(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
    ) -> Result<SimTime> {
        self.write_pages(writes, at, Pipeline { atomic: true, ..Pipeline::window(writes.len()) })
    }

    /// The read pipeline: [`NoFtl::read_step`] for every page at its
    /// window-gated issue time.  Returns the payloads in request order.
    pub(crate) fn read_pages(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        io: Pipeline,
    ) -> Result<(Vec<Vec<u8>>, SimTime)> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let mut payloads = Vec::with_capacity(reads.len());
        let done = self.run_window(Window::Read, reads.len(), at, io, |i, issue| {
            let (obj, page) = reads[i];
            let (_, data, completed) = self.read_step(inner, obj, page, issue, io.class)?;
            payloads.push(data);
            Ok(completed)
        })?;
        Ok((payloads, done))
    }

    /// The write pipeline: [`NoFtl::program_step`] for every page at its
    /// window-gated issue time.  A non-atomic pipeline commits each page
    /// as it completes and carries on past failures (see
    /// [`NoFtl::write_batch`]).  An atomic one stops at its first failure
    /// and invalidates what it staged, or commits every staged page once
    /// all programs succeeded.
    pub(crate) fn write_pages<D: AsRef<[u8]>>(
        &self,
        writes: &[(ObjectId, u64, D)],
        at: SimTime,
        io: Pipeline,
    ) -> Result<SimTime> {
        for (_, _, data) in writes {
            self.check_page_size(data.as_ref())?;
        }
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        // Regions that already reported RegionFull during this call:
        // retrying them would re-run the GC victim scan per page for
        // nothing (only invalidations could free space, and those were
        // already applied when the region filled up).
        let mut full_regions: Vec<RegionId> = Vec::new();
        let result = self.run_window(Window::Write, writes.len(), at, io, |i, issue| {
            let (obj, page, data) = &writes[i];
            let rid = Self::object_ref(&inner.objects, *obj)?.region;
            if full_regions.contains(&rid) {
                return Err(NoFtlError::RegionFull { region: rid });
            }
            let step = self.program_step(inner, (*obj, *page, data.as_ref()), issue, io);
            if let Err(NoFtlError::RegionFull { region }) = &step {
                full_regions.push(*region);
            }
            step.map(|(_, completed)| completed)
        });
        if io.atomic {
            let staged = std::mem::take(&mut inner.meta.atomic);
            if result.is_ok() {
                for programmed in staged {
                    Self::commit_program(self.device.as_ref(), inner, programmed)?;
                }
            } else {
                // Abort: the staged versions never become visible.
                for s in staged {
                    let _ = self.device.mark_invalid(s.ppa);
                }
            }
        }
        result
    }

    /// The windowed loop both directions share.  Page `i` issues at the
    /// latest completion among the pages that have left the window
    /// before it (never before `at`), so at most `window` pages are in
    /// flight; a failed page leaves the window at its issue time.
    /// Execution is eager, so the window is just those completion times.
    ///
    /// Returns the maximum completion over all pages, or the first
    /// failure in submission order.  Reads and atomic writes stop at
    /// their first failure (there is nothing left to commit); a
    /// non-atomic write carries on past it so every page whose program
    /// succeeds is committed.
    fn run_window(
        &self,
        dir: Window,
        pages: usize,
        at: SimTime,
        io: Pipeline,
        mut step: impl FnMut(usize, SimTime) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let window = io.window.max(1);
        let stop_at_failure = io.atomic || matches!(dir, Window::Read);
        let mut inflight: VecDeque<SimTime> = VecDeque::with_capacity(window.min(pages));
        let (mut clock, mut done) = (at, at);
        let mut first_err: Option<NoFtlError> = None;
        for i in 0..pages {
            if inflight.len() == window {
                if let Some(oldest) = inflight.pop_front() {
                    clock = clock.max(oldest);
                }
            }
            let completed = match step(i, clock) {
                Ok(completed) => completed,
                Err(e) => {
                    first_err.get_or_insert(e);
                    if stop_at_failure {
                        break;
                    }
                    clock
                }
            };
            done = done.max(completed);
            inflight.push_back(completed);
            if io.observed {
                self.obs.note_window_occupancy(dir, inflight.len() as u64);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => {
                if io.observed && pages > 0 {
                    self.obs.note_window_done(dir, pages as u64, at, done);
                }
                Ok(done)
            }
        }
    }

    /// The read step: translate one logical page, read it through the
    /// command queue under the region's tag (or the pipeline's class)
    /// and account the read.
    fn read_step(
        &self,
        inner: &mut Inner,
        obj: ObjectId,
        page: u64,
        at: SimTime,
        class: Option<ServiceClass>,
    ) -> Result<(CmdHandle, Vec<u8>, SimTime)> {
        let (ppa, rid) = {
            let state = Self::object_mut(&mut inner.objects, obj)?;
            let ppa =
                state.translate(page).ok_or(NoFtlError::PageNotWritten { object: obj, page })?;
            state.counters.reads += 1;
            (ppa, state.region)
        };
        let tag = Self::region_tag(&inner.regions, &self.config, rid, class);
        let (handle, out) = self.issue(FlashCommand::Read { addr: ppa }, at, tag)?;
        let completed = out.outcome.completed_at;
        let region = Self::region_mut(&mut inner.regions, rid)?;
        region.stats.host_reads += 1;
        region.stats.read_latency_sum += completed - at;
        Ok((handle, out.data, completed))
    }

    /// The program step: allocate a page in the object's region (running
    /// GC where a die runs low), program it through the command queue
    /// and commit the translation — or, in an atomic pipeline, stage the
    /// page where GC keeps its location current until the batch commits.
    fn program_step(
        &self,
        inner: &mut Inner,
        (obj, page, data): (ObjectId, u64, &[u8]),
        at: SimTime,
        io: Pipeline,
    ) -> Result<(CmdHandle, SimTime)> {
        let rid = Self::object_ref(&inner.objects, obj)?.region;
        let ppa = {
            let region = Self::region_mut(&mut inner.regions, rid)?;
            Self::allocate_in_region(
                &self.obs,
                self.device.as_ref(),
                &self.config,
                region,
                &mut inner.objects,
                &mut inner.meta,
                at,
            )
            .ok_or(NoFtlError::RegionFull { region: rid })?
        };
        let meta = PageMetadata::new(obj, page).with_payload_checksum(data);
        let tag = Self::region_tag(&inner.regions, &self.config, rid, io.class);
        let command = FlashCommand::Program { addr: ppa, data: data.to_vec(), meta };
        // A failed program leaves the page unmapped: GC or mount-time
        // recovery reclaims it.
        let (handle, out) = self.issue(command, at, tag)?;
        let programmed =
            ProgrammedPage { obj, page, ppa, issued: at, completed: out.outcome.completed_at };
        if io.atomic {
            inner.meta.atomic.push(programmed);
        } else {
            Self::commit_program(self.device.as_ref(), inner, programmed)?;
        }
        Ok((handle, programmed.completed))
    }

    /// Execute one command through the manager's queue.
    fn issue(
        &self,
        command: FlashCommand,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(CmdHandle, CmdOutput)> {
        let handle = self.queue.submit_tagged(command, at, tag);
        Ok((handle, self.queue.wait(handle)?.result?))
    }

    /// Commit a successfully programmed page: switch the object's
    /// translation to its new location, invalidate the superseded version
    /// and account the write in the owning region's statistics.  The
    /// program step calls it per page, an atomic write once per staged
    /// page after every program succeeded.
    fn commit_program(
        device: &dyn FlashBackend,
        inner: &mut Inner,
        ProgrammedPage { obj, page, ppa, issued, completed }: ProgrammedPage,
    ) -> Result<()> {
        let rid = Self::object_ref(&inner.objects, obj)?.region;
        let old = {
            let state = Self::object_mut(&mut inner.objects, obj)?;
            state.counters.writes += 1;
            state.set_translation(page, ppa)
        };
        let region = Self::region_mut(&mut inner.regions, rid)?;
        if let Some(old) = old {
            let _ = device.mark_invalid(old);
            region.record_invalidation(old);
        }
        region.stats.host_writes += 1;
        region.stats.write_latency_sum += completed - issued;
        Ok(())
    }

    /// Release a logical page: its flash page becomes invalid and the
    /// translation is removed.
    pub fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let (old, rid) = {
            let state = Self::object_mut(&mut inner.objects, obj)?;
            (state.clear_translation(page), state.region)
        };
        if let Some(old) = old {
            let _ = self.device.mark_invalid(old);
            Self::region_mut(&mut inner.regions, rid)?.record_invalidation(old);
        }
        Ok(())
    }

    /// Aggregate statistics over all regions.
    pub fn stats(&self) -> NoFtlStats {
        let inner = self.lock_inner();
        let mut agg = NoFtlStats::default();
        for region in inner.regions.iter().flatten() {
            agg.accumulate(&region.stats);
        }
        agg
    }

    // ------------------------------------------------------------------
    // Crash consistency: checkpoint & mount
    // ------------------------------------------------------------------

    /// Sequence number of the newest completed region-metadata checkpoint
    /// (0 if none has been taken yet).
    pub fn checkpoint_seq(&self) -> u64 {
        self.lock_inner().meta.seq
    }

    /// The region hosting the region-metadata journal, if a checkpoint has
    /// been taken.
    pub fn meta_region(&self) -> Option<RegionId> {
        self.lock_inner().meta.region
    }

    /// Pick (and if necessary create) the region hosting checkpoint
    /// chunks: a dedicated one-die region when unassigned dies exist,
    /// otherwise the first live region.
    fn ensure_meta_region(&self) -> Result<RegionId> {
        {
            let mut inner = self.lock_inner();
            if let Some(rid) = inner.meta.region {
                return Ok(rid);
            }
            if inner.free_dies.is_empty() {
                // Journal and checkpoint programs are die-time injected
                // into whichever region hosts them, so prefer the least
                // latency-sensitive one.  Ties keep declaration order,
                // which on a device without service classes reduces to
                // "the first live region".
                let rank = |class: ServiceClass| match class {
                    ServiceClass::Background => 0u8,
                    ServiceClass::Throughput => 1,
                    ServiceClass::Latency => 2,
                };
                let picked = inner
                    .regions
                    .iter()
                    .flatten()
                    .min_by_key(|r| rank(r.service_class(&self.config)))
                    .map(|r| r.id)
                    .ok_or_else(|| NoFtlError::Recovery {
                        message: "no free die and no region available for the metadata journal"
                            .to_string(),
                    })?;
                inner.meta.region = Some(picked);
                return Ok(picked);
            }
        }
        let rid = match self.create_region(RegionSpec::named(META_REGION_NAME).with_die_count(1)) {
            Ok(rid) => rid,
            // Present from a previous incarnation (e.g. after a remount).
            Err(NoFtlError::RegionExists { .. }) => {
                self.region_id(META_REGION_NAME).ok_or_else(|| NoFtlError::Recovery {
                    message: format!("region '{META_REGION_NAME}' exists but has no id entry"),
                })?
            }
            Err(e) => return Err(e),
        };
        // analyzer:allow(lock_order) two disjoint lock sections: the probe guard above is scoped out before create_region runs, then the choice is recorded
        self.lock_inner().meta.region = Some(rid);
        Ok(rid)
    }

    /// Checkpoint the region metadata: region specs and die assignment,
    /// the free-die pool, and the full object directory (names, regions,
    /// access counters and logical-to-physical page maps) are serialised
    /// and programmed into the metadata region as self-describing chunk
    /// pages under the reserved [`META_OBJECT_ID`].
    ///
    /// [`NoFtl::mount`] replays the newest complete checkpoint and then
    /// rebuilds everything written after it from out-of-band page
    /// metadata (mount always performs a full OOB scan; the checkpoint's
    /// job is the *directory* — region and object identity — which the
    /// OOB records alone cannot provide).  A checkpoint is never required
    /// for data durability — only DDL (regions/objects created after the
    /// last checkpoint) needs a new checkpoint to survive a crash with
    /// its name and placement intact.
    ///
    /// The previous checkpoint's chunk pages are invalidated only after
    /// every chunk of the new one is durable, so a crash at any instant
    /// leaves at least one complete checkpoint on flash.
    ///
    /// Returns the completion time of the slowest chunk program.
    pub fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
        let rid = self.ensure_meta_region()?;
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let seq = inner.meta.seq + 1;
        let image = CheckpointImage {
            seq,
            epoch_watermark: self.device.current_epoch(),
            meta_region: Some(rid),
            free_dies: inner.free_dies.clone(),
            dirty_dies: self
                .device
                .geometry()
                .dies()
                .filter(|d| self.device.die_touched(*d))
                .collect(),
            replication: self.device.replication_blob(),
            regions: inner
                .regions
                .iter()
                .flatten()
                .map(|r| RegionImage {
                    id: r.id,
                    spec: r.spec.clone(),
                    dies: r.die_ids(),
                    objects: r.objects.clone(),
                })
                .collect(),
            objects: inner
                .objects
                .iter()
                .enumerate()
                .filter_map(|(id, o)| {
                    o.as_ref().map(|state| ObjectImage {
                        id: id as ObjectId,
                        name: state.name.clone(),
                        region: state.region,
                        counters: state.counters,
                        map: state
                            .map
                            .iter()
                            .enumerate()
                            .filter_map(|(lp, ppa)| ppa.map(|p| (lp as u64, p)))
                            .collect(),
                    })
                })
                .collect(),
        };
        let blob = image.encode();
        let page_size = self.device.geometry().page_size as usize;
        let cap = page_size - recovery::CHUNK_HEADER;
        let chunk_count = blob.len().div_ceil(cap).max(1) as u32;
        let mut done = at;
        // Phase 1: program every new chunk into staging.  `meta.map` (the
        // previous checkpoint) is left untouched so its pages stay valid —
        // a crash anywhere in this loop loses only the half-written new
        // checkpoint, never the old one.  GC may relocate either
        // generation concurrently; `retranslate` tracks both.
        inner.meta.staging = vec![None; chunk_count as usize];
        for index in 0..chunk_count {
            let lo = index as usize * cap;
            let hi = (lo + cap).min(blob.len());
            let page = recovery::encode_chunk(seq, index, chunk_count, &blob[lo..hi], page_size);
            let ppa = {
                let region = Self::region_mut(&mut inner.regions, rid)?;
                Self::allocate_in_region(
                    &self.obs,
                    self.device.as_ref(),
                    &self.config,
                    region,
                    &mut inner.objects,
                    &mut inner.meta,
                    at,
                )
                .ok_or(NoFtlError::RegionFull { region: rid })?
            };
            let meta = PageMetadata::new(META_OBJECT_ID, index as u64).with_payload_checksum(&page);
            // Checkpoint chunks are durability traffic even when the
            // journal falls back to a regular region.
            let tag = {
                let mut t = Self::region_tag(&inner.regions, &self.config, rid, None);
                t.exempt = true;
                t
            };
            let out = self.device.program_page_tagged(ppa, &page, meta, at, tag)?;
            done = done.max(out.completed_at);
            inner.meta.staging[index as usize] = Some(ppa);
        }
        // Phase 2: the new checkpoint is fully durable — retire the old
        // chunk pages and promote the staged ones.
        let old = std::mem::replace(&mut inner.meta.map, std::mem::take(&mut inner.meta.staging));
        for page in old.into_iter().flatten() {
            let _ = self.device.mark_invalid(page);
            Self::region_mut(&mut inner.regions, rid)?.record_invalidation(page);
        }
        inner.meta.seq = seq;
        Ok(done)
    }

    /// Mount a device: rebuild the full storage-manager state from the
    /// newest complete checkpoint plus the out-of-band page metadata of
    /// everything written after it.
    ///
    /// The mount performs a full OOB scan (reading page payloads where a
    /// checksum must be verified), discards torn pages, breaks duplicate
    /// mappings by write epoch and reconstructs per-die allocation state
    /// from the physical block states.  Objects created after the last
    /// checkpoint have no directory entry; their pages are preserved under
    /// a synthesised `__orphan_<id>` name and reported in the
    /// [`MountReport`].
    ///
    /// An empty device mounts as a fresh manager; a device that holds data
    /// but no complete checkpoint fails with [`NoFtlError::NoCheckpoint`].
    pub fn mount(
        device: Arc<dyn FlashBackend>,
        config: NoFtlConfig,
        at: SimTime,
    ) -> Result<(NoFtl, MountReport)> {
        config
            .validate()
            .map_err(|e| NoFtlError::Recovery { message: format!("invalid config: {e}") })?;
        let geo = *device.geometry();
        let verify_payloads = device.stores_data();
        let mut report = MountReport::default();
        let mut now = at;

        // ---- Phase 1: full OOB scan ---------------------------------
        // (object, logical page) → (epoch, ppa) winners, losers to
        // invalidate, and checkpoint chunks grouped by sequence number.
        let mut winners: HashMap<(ObjectId, u64), (u64, PageAddr)> = HashMap::new();
        let mut losers: Vec<PageAddr> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut chunks: HashMap<u64, HashMap<u32, (u32, u64, PageAddr, Vec<u8>)>> = HashMap::new();
        for die in geo.dies() {
            // Partial-device mount: a die that was never programmed or
            // erased (per the device's touched flags, which survive
            // snapshot/restore, and the checkpoint's dirty-die directory)
            // holds no pages, no chunks and no allocation state worth
            // scanning — `RegionDie::rebuild` below reconstructs it from
            // block states without OOB reads.
            if !device.die_touched(die) {
                report.dies_skipped += 1;
                continue;
            }
            for plane in 0..geo.planes_per_die {
                for block in 0..geo.blocks_per_plane {
                    let baddr = BlockAddr::new(die, plane, block);
                    let info = device.block_info(baddr)?;
                    if info.state == flash_sim::BlockState::Bad {
                        continue;
                    }
                    for page in 0..info.write_ptr {
                        let addr = baddr.page(page);
                        if device.page_state(addr)? != PageState::Valid {
                            continue;
                        }
                        report.pages_scanned += 1;
                        let (meta, out) = device.read_metadata(addr, at)?;
                        now = now.max(out.completed_at);
                        let Some(meta) = meta else {
                            // OOB destroyed (early tear / interrupted
                            // erase): nothing recoverable here.
                            report.unreadable_metadata_pages += 1;
                            continue;
                        };
                        if meta.object_id == META_OBJECT_ID {
                            let (payload, _, out) = device.read_page(addr, at)?;
                            now = now.max(out.completed_at);
                            if !meta.payload_matches(&payload) {
                                report.torn_pages_discarded += 1;
                                let _ = device.mark_invalid(addr);
                                continue;
                            }
                            let Some((seq, index, count, _)) = recovery::decode_chunk(&payload)
                            else {
                                report.torn_pages_discarded += 1;
                                let _ = device.mark_invalid(addr);
                                continue;
                            };
                            let by_idx = chunks.entry(seq).or_default();
                            match by_idx.get(&index) {
                                Some((_, epoch, _, _)) if *epoch >= meta.epoch => {
                                    losers.push(addr);
                                }
                                _ => {
                                    if let Some((_, _, old, _)) =
                                        by_idx.insert(index, (count, meta.epoch, addr, payload))
                                    {
                                        losers.push(old);
                                    }
                                }
                            }
                            continue;
                        }
                        if verify_payloads && meta.checksum != 0 {
                            let (payload, _, out) = device.read_page(addr, at)?;
                            now = now.max(out.completed_at);
                            if !meta.payload_matches(&payload) {
                                report.torn_pages_discarded += 1;
                                let _ = device.mark_invalid(addr);
                                continue;
                            }
                        }
                        match winners.entry((meta.object_id, meta.logical_page)) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert((meta.epoch, addr));
                            }
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                if meta.epoch > e.get().0 {
                                    losers.push(e.get().1);
                                    e.insert((meta.epoch, addr));
                                } else {
                                    // Older version — or an epoch tie from a
                                    // torn copyback, where both copies are
                                    // identical and either may win.
                                    losers.push(addr);
                                }
                            }
                        }
                    }
                }
            }
        }

        // ---- Phase 2: pick the newest complete checkpoint -----------
        let mut best: Option<CheckpointImage> = None;
        let mut best_chunks: Vec<Option<PageAddr>> = Vec::new();
        let mut seqs: Vec<u64> = chunks.keys().copied().collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        for seq in seqs {
            let by_idx = &chunks[&seq];
            let Some(count) = by_idx.values().map(|(count, _, _, _)| *count).next() else {
                continue;
            };
            if count == 0 || by_idx.len() != count as usize {
                continue;
            }
            let mut blob = Vec::new();
            let mut addrs = Vec::with_capacity(count as usize);
            let mut complete = true;
            for index in 0..count {
                match by_idx.get(&index).and_then(|(_, _, addr, payload)| {
                    recovery::decode_chunk(payload).map(|(_, _, _, body)| (*addr, body.to_vec()))
                }) {
                    Some((addr, body)) => {
                        blob.extend_from_slice(&body);
                        addrs.push(Some(addr));
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            if let Some(image) = CheckpointImage::decode(&blob) {
                best = Some(image);
                best_chunks = addrs;
                break;
            }
        }
        // Chunk pages not part of the chosen checkpoint are stale.
        let chosen: std::collections::HashSet<PageAddr> =
            best_chunks.iter().flatten().copied().collect();
        for by_idx in chunks.values() {
            for (_, _, addr, _) in by_idx.values() {
                if !chosen.contains(addr) {
                    losers.push(*addr);
                }
            }
        }

        let Some(image) = best else {
            if winners.is_empty() {
                // Pristine device: a fresh manager.
                let noftl = NoFtl::new(device, config);
                report.completed_at = now;
                return Ok((noftl, report));
            }
            return Err(NoFtlError::NoCheckpoint);
        };
        report.checkpoint_seq = image.seq;

        // Hand the persisted replication state (mirror health + dirty
        // segment maps) back to the backend.  A checkpoint written before
        // replication existed carries no blob; the backend then treats
        // every non-source child as stale ("rebuild everything") rather
        // than trusting it silently.
        now = now.max(device.restore_replication(image.replication.as_deref(), now)?);

        // ---- Phase 3: rebuild regions, objects and the free pool ----
        let max_region = image.regions.iter().map(|r| r.id.0).max().unwrap_or(0) as usize;
        let mut regions: Vec<Option<RegionRuntime>> = (0..=max_region).map(|_| None).collect();
        let mut region_by_name = HashMap::new();
        let mut die_owner: HashMap<DieId, RegionId> = HashMap::new();
        for rimg in &image.regions {
            let mut rt =
                RegionRuntime::new(rimg.id, rimg.spec.clone(), device.as_ref(), Vec::new());
            for die in &rimg.dies {
                die_owner.insert(*die, rimg.id);
                rt.dies.push(RegionDie::rebuild(device.as_ref(), *die));
            }
            rt.objects = rimg.objects.clone();
            region_by_name.insert(rt.name.clone(), rimg.id);
            regions[rimg.id.0 as usize] = Some(rt);
        }
        let free_dies: Vec<DieId> = geo.dies().filter(|d| !die_owner.contains_key(d)).collect();

        let checkpoint_map: HashMap<(ObjectId, u64), PageAddr> = image
            .objects
            .iter()
            .flat_map(|o| o.map.iter().map(move |(lp, ppa)| ((o.id, *lp), *ppa)))
            .collect();
        let max_obj = image
            .objects
            .iter()
            .map(|o| o.id)
            .chain(winners.keys().map(|(obj, _)| *obj))
            .max()
            .unwrap_or(0) as usize;
        let mut objects: Vec<Option<ObjectState>> = (0..=max_obj).map(|_| None).collect();
        let mut object_by_name = HashMap::new();
        for oimg in &image.objects {
            let mut state = ObjectState::new(oimg.name.clone(), oimg.region);
            state.counters = oimg.counters;
            object_by_name.insert(oimg.name.clone(), oimg.id);
            objects[oimg.id as usize] = Some(state);
        }

        // Install the winning mappings; synthesise directory entries for
        // objects created after the checkpoint.
        let mut winner_list: Vec<((ObjectId, u64), (u64, PageAddr))> =
            winners.into_iter().collect();
        winner_list.sort_unstable_by_key(|((obj, lp), _)| (*obj, *lp));
        for ((obj, lp), (epoch, ppa)) in winner_list {
            if objects.get(obj as usize).map(|o| o.is_none()).unwrap_or(true) {
                let Some(rid) = die_owner.get(&ppa.die).copied() else {
                    // Page on a die no region owns (e.g. its region was
                    // dropped right before the crash): unreachable data.
                    losers.push(ppa);
                    continue;
                };
                let name = format!("__orphan_{obj}");
                objects[obj as usize] = Some(ObjectState::new(name.clone(), rid));
                object_by_name.insert(name, obj);
                if let Some(region) = regions[rid.0 as usize].as_mut() {
                    region.objects.push(obj);
                }
                report.orphaned_objects.push(obj);
            }
            // The entry was installed just above when missing; a `None`
            // here would mean the page's die has no owning region, and
            // that case already `continue`d.
            let Some(state) = objects[obj as usize].as_mut() else { continue };
            state.set_translation(lp, ppa);
            report.mapped_pages += 1;
            if epoch > image.epoch_watermark {
                report.pages_after_checkpoint += 1;
            } else if checkpoint_map.get(&(obj, lp)) != Some(&ppa) {
                // Same-epoch page at a new address: relocated by GC after
                // the checkpoint was taken.
                report.pages_after_checkpoint += 1;
            }
        }

        // ---- Phase 4: invalidate superseded physical pages ----------
        for addr in losers {
            let _ = device.mark_invalid(addr);
            if let Some(rid) = die_owner.get(&addr.die) {
                if let Some(region) = regions[rid.0 as usize].as_mut() {
                    region.record_invalidation(addr);
                }
            }
            report.stale_pages_invalidated += 1;
        }

        let meta = MetaDirectory {
            region: image.meta_region,
            map: best_chunks,
            seq: image.seq,
            ..MetaDirectory::default()
        };
        report.regions = image.regions.len();
        report.objects = image.objects.len();
        report.completed_at = now;
        let noftl = NoFtl {
            queue: CommandQueue::new(device.clone()),
            pending_io: Mutex::new(HashMap::new()),
            obs: CoreObs::new(Arc::clone(device.metrics())),
            device,
            config,
            inner: Mutex::new(Inner {
                regions,
                region_by_name,
                free_dies,
                objects,
                object_by_name,
                meta,
            }),
        };
        Ok((noftl, report))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_page_size(&self, data: &[u8]) -> Result<()> {
        let expected = self.device.geometry().page_size;
        if !data.is_empty() && data.len() != expected as usize {
            return Err(NoFtlError::BadPageSize { expected, got: data.len() });
        }
        Ok(())
    }

    /// The device tag for host traffic of region `rid`: `class` if the
    /// caller forces one, else the region's resolved service class (spec
    /// override or config default), with the region id.  Traffic of the
    /// metadata-journal region is tagged as durability traffic.
    fn region_tag(
        regions: &[Option<RegionRuntime>],
        config: &NoFtlConfig,
        rid: RegionId,
        class: Option<ServiceClass>,
    ) -> IoTag {
        let Ok(region) = Self::region_ref(regions, rid) else {
            return IoTag::default();
        };
        let class = class.unwrap_or_else(|| region.service_class(config));
        if region.name == META_REGION_NAME {
            IoTag::durability(class, Some(rid.0))
        } else {
            IoTag::new(class, Some(rid.0))
        }
    }

    fn region_ref(regions: &[Option<RegionRuntime>], rid: RegionId) -> Result<&RegionRuntime> {
        regions
            .get(rid.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or_else(|| NoFtlError::UnknownRegion { region: format!("{rid:?}") })
    }

    fn region_mut(
        regions: &mut [Option<RegionRuntime>],
        rid: RegionId,
    ) -> Result<&mut RegionRuntime> {
        regions
            .get_mut(rid.0 as usize)
            .and_then(|r| r.as_mut())
            .ok_or_else(|| NoFtlError::UnknownRegion { region: format!("{rid:?}") })
    }

    fn object_ref(objects: &[Option<ObjectState>], obj: ObjectId) -> Result<&ObjectState> {
        objects
            .get(obj as usize)
            .and_then(|o| o.as_ref())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })
    }

    fn object_mut(objects: &mut [Option<ObjectState>], obj: ObjectId) -> Result<&mut ObjectState> {
        objects
            .get_mut(obj as usize)
            .and_then(|o| o.as_mut())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })
    }

    /// Allocate the next physical page for a host write in `region`,
    /// running GC when a die's free-block pool runs low.  Returns `None`
    /// when the region is completely full.
    ///
    /// The die is chosen by the region's
    /// [`PlacementPolicy`](crate::placement::PlacementPolicy): the policy
    /// produces a probe order over the region's dies (for the default
    /// [`RoundRobin`](crate::placement::RoundRobin) exactly the seed
    /// allocator's `next_die` stripe; for
    /// [`QueueAware`](crate::placement::QueueAware) sorted by the device's
    /// per-die load snapshots), and the allocator takes the first die in
    /// that order able to yield a page.  Every write — the program step
    /// of the page pipeline, rebalancing and the metadata journal —
    /// funnels through here, so a policy governs the complete write path
    /// of its region.
    fn allocate_in_region(
        obs: &CoreObs,
        device: &dyn FlashBackend,
        config: &NoFtlConfig,
        region: &mut RegionRuntime,
        objects: &mut [Option<ObjectState>],
        meta_dir: &mut MetaDirectory,
        at: SimTime,
    ) -> Option<PageAddr> {
        let pages_per_block = device.geometry().pages_per_block;
        let die_count = region.dies.len();
        if die_count == 0 {
            return None;
        }
        let kind = region.placement_kind(config);
        let policy = kind.policy();
        let stripe_die = region.next_die;
        // Probe order and load snapshots fill region-owned scratch
        // buffers (taken out for the borrow, put back below), so the
        // per-write path allocates nothing — as cheap as the seed
        // allocator's modular loop.
        let mut loads = std::mem::take(&mut region.load_scratch);
        loads.clear();
        if policy.needs_loads() {
            loads.extend(region.dies.iter().map(|d| device.die_load(d.die, at)));
        }
        let mut order = std::mem::take(&mut region.probe_scratch);
        policy.probe_order_into(die_count, region.next_die, at, &loads, &mut order);
        let mut picked = None;
        for (probe, &idx) in order.iter().enumerate() {
            if (region.dies[idx].free_blocks.len() as u32) <= config.gc_low_watermark {
                Self::gc_die(obs, device, config, region, objects, meta_dir, idx, at);
            }
            if let Some(ppa) =
                region.dies[idx].next_host_page(device, config.wear_leveling, pages_per_block)
            {
                region.next_die = (idx + 1) % die_count;
                obs.note_allocation(kind, probe as u64 + 1, idx, stripe_die, die_count);
                picked = Some(ppa);
                break;
            }
        }
        region.probe_scratch = order;
        region.load_scratch = loads;
        picked
    }

    /// Update the owner's translation after a page move (GC copyback or
    /// rebalance): regular objects through the directory (and the staged
    /// pages of an atomic write), checkpoint chunks through the metadata
    /// journal map.
    fn retranslate(
        objects: &mut [Option<ObjectState>],
        meta_dir: &mut MetaDirectory,
        meta: &PageMetadata,
        src: PageAddr,
        dst: PageAddr,
    ) {
        if meta.object_id == META_OBJECT_ID {
            let idx = meta.logical_page as usize;
            if meta_dir.map.get(idx).copied().flatten() == Some(src) {
                meta_dir.map[idx] = Some(dst);
            }
            if meta_dir.staging.get(idx).copied().flatten() == Some(src) {
                meta_dir.staging[idx] = Some(dst);
            }
        } else {
            if let Some(Some(obj)) = objects.get_mut(meta.object_id as usize) {
                if obj.translate(meta.logical_page) == Some(src) {
                    obj.set_translation(meta.logical_page, dst);
                }
            }
            for staged in meta_dir.atomic.iter_mut().filter(|s| s.ppa == src) {
                staged.ppa = dst;
            }
        }
    }

    /// Run garbage collection on one die of a region until its free-block
    /// pool reaches the high watermark or no more victims exist.
    #[allow(clippy::too_many_arguments)]
    fn gc_die(
        obs: &CoreObs,
        device: &dyn FlashBackend,
        config: &NoFtlConfig,
        region: &mut RegionRuntime,
        objects: &mut [Option<ObjectState>],
        meta_dir: &mut MetaDirectory,
        die_idx: usize,
        at: SimTime,
    ) {
        region.stats.gc_runs += 1;
        let (cb_before, er_before) = (region.stats.gc_copybacks, region.stats.gc_erases);
        let high = config.gc_high_watermark as usize;
        let mut guard = 0u32;
        while region.dies[die_idx].free_blocks.len() < high {
            guard += 1;
            if guard > device.geometry().blocks_per_die() * 2 {
                break;
            }
            let now_seq = region.invalidate_seq;
            let candidates: Vec<GcCandidate> = {
                let die = &region.dies[die_idx];
                die.used_blocks
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, b)| {
                        let info = device.block_info(*b).ok()?;
                        let seq = region
                            .block_invalidate_seq
                            .get(&(b.die.0, b.plane, b.block))
                            .copied()
                            .unwrap_or(0);
                        GcCandidate::from_info(slot, &info, seq)
                    })
                    .collect()
            };
            let Some(slot) = select_victim(config.gc_policy, &candidates, now_seq) else {
                break;
            };
            let victim = region.dies[die_idx].used_blocks[slot];
            if !Self::collect_block(device, config, region, objects, meta_dir, die_idx, victim, at)
            {
                break;
            }
        }
        obs.note_gc(
            u64::from(region.dies[die_idx].die.0),
            region.stats.gc_copybacks - cb_before,
            region.stats.gc_erases - er_before,
            at,
        );
        Self::maybe_static_wl(device, config, region, objects, meta_dir, die_idx, at);
    }

    /// Relocate all valid pages of `victim` via copyback (updating the
    /// owning objects' translations) and erase it.  Returns `false` if the
    /// block could not be fully collected.
    #[allow(clippy::too_many_arguments)]
    fn collect_block(
        device: &dyn FlashBackend,
        config: &NoFtlConfig,
        region: &mut RegionRuntime,
        objects: &mut [Option<ObjectState>],
        meta_dir: &mut MetaDirectory,
        die_idx: usize,
        victim: flash_sim::BlockAddr,
        at: SimTime,
    ) -> bool {
        let pages_per_block = device.geometry().pages_per_block;
        for page in 0..pages_per_block {
            let src = victim.page(page);
            match device.page_state(src) {
                Ok(PageState::Valid) => {}
                Ok(_) => continue,
                Err(_) => return false,
            }
            // GC relocation is maintenance traffic: tagged `Background`
            // (the copyback itself is die-internal and takes no channel).
            let gc_tag = IoTag::background(Some(region.id.0));
            let Ok((meta, _)) = device.read_metadata_tagged(src, at, gc_tag) else {
                return false;
            };
            let Some(meta) = meta else { continue };
            let Some(dst) =
                region.dies[die_idx].next_gc_page(device, config.wear_leveling, pages_per_block)
            else {
                return false;
            };
            if device.copyback(src, dst, at).is_err() {
                return false;
            }
            region.stats.gc_copybacks += 1;
            Self::retranslate(objects, meta_dir, &meta, src, dst);
        }
        match device.erase_block(victim, at) {
            Ok(_) => {
                region.stats.gc_erases += 1;
                let die = &mut region.dies[die_idx];
                die.used_blocks.retain(|b| *b != victim);
                die.free_blocks.push(victim);
                true
            }
            Err(e) if e.is_permanent() => {
                region.dies[die_idx].used_blocks.retain(|b| *b != victim);
                false
            }
            Err(_) => false,
        }
    }

    /// Threshold-based static wear leveling within one die of a region.
    fn maybe_static_wl(
        device: &dyn FlashBackend,
        config: &NoFtlConfig,
        region: &mut RegionRuntime,
        objects: &mut [Option<ObjectState>],
        meta_dir: &mut MetaDirectory,
        die_idx: usize,
        at: SimTime,
    ) {
        if !matches!(config.wear_leveling, crate::config::WearLevelingPolicy::Static { .. }) {
            return;
        }
        let counts: Vec<(flash_sim::BlockAddr, u64, flash_sim::BlockState)> = {
            let die = &region.dies[die_idx];
            die.used_blocks
                .iter()
                .chain(die.free_blocks.iter())
                .filter_map(|b| device.block_info(*b).ok().map(|i| (*b, i.erase_count, i.state)))
                .collect()
        };
        let Some(max) = counts.iter().map(|(_, c, _)| *c).max() else { return };
        let Some(min) = counts.iter().map(|(_, c, _)| *c).min() else { return };
        if !needs_static_wl(config.wear_leveling, min, max) {
            return;
        }
        let victim = counts
            .iter()
            .filter(|(b, _, s)| {
                *s == flash_sim::BlockState::Full && region.dies[die_idx].used_blocks.contains(b)
            })
            .min_by_key(|(_, c, _)| *c)
            .map(|(b, _, _)| *b);
        if let Some(victim) = victim {
            if Self::collect_block(device, config, region, objects, meta_dir, die_idx, victim, at) {
                region.stats.wl_migrations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GcPolicy, WearLevelingPolicy};
    use flash_sim::{DeviceBuilder, FlashGeometry, NandDevice, TimingModel};

    fn make_noftl() -> NoFtl {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        NoFtl::new(device, NoFtlConfig::default())
    }

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; 4096]
    }

    #[test]
    fn create_region_takes_dies_from_pool() {
        let noftl = make_noftl();
        assert_eq!(noftl.free_die_count(), 4);
        let r = noftl.create_region(RegionSpec::named("rgA").with_die_count(3)).unwrap();
        assert_eq!(noftl.free_die_count(), 1);
        assert_eq!(noftl.region_dies(r).unwrap().len(), 3);
        assert_eq!(noftl.region_name(r).unwrap(), "rgA");
        assert_eq!(noftl.region_ids(), vec![r]);
    }

    #[test]
    fn duplicate_region_name_is_rejected() {
        let noftl = make_noftl();
        noftl.create_region(RegionSpec::named("rgA").with_die_count(1)).unwrap();
        let err = noftl.create_region(RegionSpec::named("rgA").with_die_count(1)).unwrap_err();
        assert!(matches!(err, NoFtlError::RegionExists { .. }));
    }

    #[test]
    fn region_creation_fails_without_enough_dies() {
        let noftl = make_noftl();
        let err = noftl.create_region(RegionSpec::named("rgBig").with_die_count(5)).unwrap_err();
        assert!(matches!(err, NoFtlError::NotEnoughDies { requested: 5, available: 4 }));
    }

    #[test]
    fn regions_spread_across_channels() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let dies = noftl.region_dies(r).unwrap();
        let channels: std::collections::HashSet<u32> =
            dies.iter().map(|d| geo.channel_of_die(*d)).collect();
        assert_eq!(channels.len(), 2, "two dies should land on two channels");
    }

    #[test]
    fn max_channels_limits_channel_spread() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl
            .create_region(RegionSpec::named("rg").with_die_count(2).with_max_channels(1))
            .unwrap();
        let dies = noftl.region_dies(r).unwrap();
        let channels: std::collections::HashSet<u32> =
            dies.iter().map(|d| geo.channel_of_die(*d)).collect();
        assert_eq!(channels.len(), 1);
    }

    #[test]
    fn write_read_roundtrip_and_stats() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let done = noftl.write(obj, 7, &page(0xAA), SimTime::ZERO).unwrap();
        let (data, done2) = noftl.read(obj, 7, done).unwrap();
        assert_eq!(data, page(0xAA));
        assert!(done2 > done);
        let os = noftl.object_stats(obj).unwrap();
        assert_eq!(os.reads, 1);
        assert_eq!(os.writes, 1);
        assert_eq!(os.pages, 1);
        let rs = noftl.region_stats(r).unwrap();
        assert_eq!(rs.host_reads, 1);
        assert_eq!(rs.host_writes, 1);
        assert!(rs.avg_write_latency_us() > 0.0);
        let agg = noftl.stats();
        assert_eq!(agg.host_writes, 1);
    }

    #[test]
    fn overwrites_invalidate_previous_versions() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..5u8 {
            t = noftl.write(obj, 0, &page(i), t).unwrap();
        }
        let (data, _) = noftl.read(obj, 0, t).unwrap();
        assert_eq!(data, page(4));
        assert_eq!(noftl.object_pages(obj).unwrap(), 1, "only one live page");
    }

    #[test]
    fn unwritten_page_read_fails() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            noftl.read(obj, 3, SimTime::ZERO),
            Err(NoFtlError::PageNotWritten { page: 3, .. })
        ));
    }

    #[test]
    fn unknown_object_and_region_errors() {
        let noftl = make_noftl();
        assert!(matches!(noftl.read(42, 0, SimTime::ZERO), Err(NoFtlError::UnknownObject { .. })));
        assert!(noftl.region_stats(RegionId(9)).is_err());
        assert!(noftl.create_object("x", RegionId(9)).is_err());
        assert!(noftl.create_object_in("x", "nope").is_err());
        assert!(noftl.object_id("nope").is_none());
    }

    #[test]
    fn duplicate_object_name_rejected() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        noftl.create_object("t", r).unwrap();
        assert!(matches!(noftl.create_object("t", r), Err(NoFtlError::ObjectExists { .. })));
    }

    #[test]
    fn bad_page_size_rejected() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            noftl.write(obj, 0, &[1, 2, 3], SimTime::ZERO),
            Err(NoFtlError::BadPageSize { .. })
        ));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let geo = *noftl.device().geometry();
        // Working set = 60 % of the region's raw capacity.
        let working_set = 2 * geo.pages_per_die() * 6 / 10;
        let mut t = SimTime::ZERO;
        let mut latest = vec![0u8; working_set as usize];
        for round in 0..5u8 {
            for p in 0..working_set {
                let v = round.wrapping_mul(37).wrapping_add(p as u8);
                t = noftl.write(obj, p, &page(v), t).unwrap();
                latest[p as usize] = v;
            }
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.gc_runs > 0);
        assert!(rs.gc_erases > 0);
        assert!(noftl.device().stats().block_erases > 0);
        for p in 0..working_set {
            let (data, _) = noftl.read(obj, p, t).unwrap();
            assert_eq!(data, page(latest[p as usize]), "page {p}");
        }
    }

    #[test]
    fn hot_cold_separation_reduces_copybacks() {
        // Two objects: one hot (overwritten constantly) and one cold
        // (written once).  Placing them in separate regions (the paper's
        // proposal) must produce fewer GC copybacks than mixing them in a
        // single region (traditional placement), because in the mixed case
        // victim blocks contain valid cold pages that have to be relocated.
        fn run(separate: bool) -> u64 {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::instant())
                    .build(),
            );
            let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
            let (hot_region, cold_region) = if separate {
                let h = noftl.create_region(RegionSpec::named("rgHot").with_die_count(2)).unwrap();
                let c = noftl.create_region(RegionSpec::named("rgCold").with_die_count(2)).unwrap();
                (h, c)
            } else {
                let all =
                    noftl.create_region(RegionSpec::named("rgAll").with_die_count(4)).unwrap();
                (all, all)
            };
            let hot = noftl.create_object("hot", hot_region).unwrap();
            let cold = noftl.create_object("cold", cold_region).unwrap();
            let geo = *device.geometry();
            let pages_per_die = geo.pages_per_die();
            let cold_pages = pages_per_die; // fills a good part of its share
            let hot_pages = pages_per_die / 4;
            let t = SimTime::ZERO;
            // Interleave cold fill with hot updates so blocks mix in the
            // shared-region case.
            let mut cold_written = 0u64;
            for round in 0..40u64 {
                for p in 0..hot_pages {
                    noftl.write(hot, p, &page((round % 251) as u8), t).unwrap();
                }
                while cold_written < cold_pages
                    && cold_written < (round + 1) * (cold_pages / 40 + 1)
                {
                    noftl.write(cold, cold_written, &page(0xCC), t).unwrap();
                    cold_written += 1;
                }
            }
            device.stats().copybacks
        }
        let mixed = run(false);
        let separated = run(true);
        assert!(
            separated < mixed,
            "region separation should reduce copybacks (separated={separated}, mixed={mixed})"
        );
    }

    #[test]
    fn write_batch_returns_latest_completion() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..4).map(|i| (obj, i as u64, page(i as u8))).collect();
        let single = noftl.write(obj, 99, &page(9), SimTime::ZERO).unwrap();
        let batch_done = noftl.write_batch(&writes, SimTime::ZERO).unwrap();
        // The batch of four pages over two dies takes about two program
        // times, i.e. it must finish later than a single write but much
        // earlier than four serialized writes would.
        assert!(batch_done > single);
        for i in 0..4u64 {
            let (data, _) = noftl.read(obj, i, batch_done).unwrap();
            assert_eq!(data, page(i as u8));
        }
    }

    #[test]
    fn write_batch_survives_mid_batch_gc() {
        // Regression: a GC pass triggered by a later allocation of the
        // same batch must never erase an earlier page of the batch.  With
        // translations committed per page (not deferred to a second
        // phase), GC relocates committed pages through `retranslate` and
        // every batch page stays readable.
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let geo = *device.geometry();
        // Working set = 60 % of the single die, overwritten in batches so
        // GC must fire repeatedly while batches are in flight.
        let working_set = geo.pages_per_die() * 6 / 10;
        let mut latest = vec![0u8; working_set as usize];
        let mut t = SimTime::ZERO;
        for round in 0..6u8 {
            let batch: Vec<(ObjectId, u64, Vec<u8>)> = (0..working_set)
                .map(|p| {
                    let v = round.wrapping_mul(41).wrapping_add(p as u8);
                    latest[p as usize] = v;
                    (obj, p, page(v))
                })
                .collect();
            t = noftl.write_batch(&batch, t).unwrap();
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.gc_runs > 0, "the workload must actually trigger GC");
        assert!(rs.gc_erases > 0);
        for p in 0..working_set {
            let (data, _) = noftl.read(obj, p, t).unwrap();
            assert_eq!(data, page(latest[p as usize]), "page {p}");
        }
    }

    #[test]
    fn submit_and_wait_io_roundtrip() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        // Two async writes issued at t=0 land on different dies and
        // complete at the same simulated time.
        let w0 = noftl.submit_write(obj, 0, &page(0xA0), SimTime::ZERO).unwrap();
        let w1 = noftl.submit_write(obj, 1, &page(0xA1), SimTime::ZERO).unwrap();
        let (_, t0) = noftl.wait_io(w0).unwrap();
        let (_, t1) = noftl.wait_io(w1).unwrap();
        assert!(t0 > SimTime::ZERO);
        assert_eq!(t0, t1, "striped writes overlap in simulated time");
        // Async reads return the payloads.
        let r0 = noftl.submit_read(obj, 0, t0).unwrap();
        let r1 = noftl.submit_read(obj, 1, t0).unwrap();
        let (d0, rt0) = noftl.wait_io(r0).unwrap();
        let (d1, rt1) = noftl.wait_io(r1).unwrap();
        assert_eq!(d0, page(0xA0));
        assert_eq!(d1, page(0xA1));
        assert_eq!(rt0, rt1, "reads on disjoint dies overlap too");
        // A handle cannot be claimed twice.
        assert!(noftl.wait_io(r0).is_err());
        // Stats flowed through the same counters as the blocking API.
        let rs = noftl.region_stats(r).unwrap();
        assert_eq!(rs.host_writes, 2);
        assert_eq!(rs.host_reads, 2);
        assert_eq!(noftl.io_queue_stats().submitted, 4);
    }

    #[test]
    fn submit_read_of_unwritten_page_fails_at_submission() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            noftl.submit_read(obj, 5, SimTime::ZERO),
            Err(NoFtlError::PageNotWritten { page: 5, .. })
        ));
    }

    #[test]
    fn queued_batch_beats_sequential_submission() {
        // The acceptance check of the command-queue redesign at the
        // storage-manager level: a batch fanned over a 4-die region must
        // finish in less simulated time than the same writes submitted
        // sequentially (each issued only after the previous completed).
        let make = || {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            let noftl = NoFtl::new(device, NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            (noftl, obj)
        };
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..8u64).map(|i| (0, i, page(i as u8))).collect();

        let (queued, obj) = make();
        let batch: Vec<_> = writes.iter().map(|(_, p, d)| (obj, *p, d.clone())).collect();
        let queued_done = queued.write_batch(&batch, SimTime::ZERO).unwrap();

        let (serial, obj) = make();
        let mut serial_done = SimTime::ZERO;
        for (_, p, d) in &writes {
            serial_done = serial.write(obj, *p, d, serial_done).unwrap();
        }
        assert!(
            queued_done < serial_done,
            "8 queued writes over 4 dies ({queued_done}) must beat sequential ({serial_done})"
        );
        // All four dies took part.
        let ds = queued.device().die_stats();
        assert_eq!(ds.iter().filter(|d| d.ops > 0).count(), 4);
        // Data identical either way.
        for (_, p, d) in &writes {
            assert_eq!(&queued.read(obj, *p, queued_done).unwrap().0, d);
            assert_eq!(&serial.read(obj, *p, serial_done).unwrap().0, d);
        }
    }

    #[test]
    fn queue_aware_placement_steers_around_a_busy_die() {
        use crate::placement::PlacementPolicyKind;
        // Two fresh managers over identical devices; dies 0 and 1 form the
        // region, and die 0 (the round-robin cursor's first choice) is
        // made busy with a burst of background erases before a write
        // lands.  RoundRobin ignores the load and queues behind the
        // erases; QueueAware starts on the idle die immediately.
        let run = |placement: PlacementPolicyKind| {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            let config = NoFtlConfig { placement, ..NoFtlConfig::default() };
            let noftl = NoFtl::new(device.clone(), config);
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let dies = noftl.region_dies(r).unwrap();
            // Background erase storm on the first region die (a stand-in
            // for GC/wear-leveling traffic).
            let blocks = device.geometry().blocks_per_die();
            for b in 0..4u32 {
                device
                    .erase_block(flash_sim::BlockAddr::new(dies[0], 0, b % blocks), SimTime::ZERO)
                    .unwrap();
            }
            noftl.write(obj, 0, &page(0x5E), SimTime::ZERO).unwrap()
        };
        let rr_done = run(PlacementPolicyKind::RoundRobin);
        let qa_done = run(PlacementPolicyKind::QueueAware);
        assert!(
            qa_done < rr_done,
            "queue-aware write ({qa_done}) must dodge the busy die ({rr_done})"
        );
    }

    #[test]
    fn region_spec_placement_overrides_the_config_default() {
        use crate::placement::PlacementPolicyKind;
        // Config default RoundRobin, but the region opts into QueueAware:
        // the write behaves queue-aware (starts on the idle die).
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
        let r = noftl
            .create_region(
                RegionSpec::named("rg")
                    .with_die_count(2)
                    .with_placement(PlacementPolicyKind::QueueAware),
            )
            .unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let dies = noftl.region_dies(r).unwrap();
        for b in 0..4u32 {
            device.erase_block(flash_sim::BlockAddr::new(dies[0], 0, b), SimTime::ZERO).unwrap();
        }
        let busy_until = device.die_busy_until(dies[0]);
        let done = noftl.write(obj, 0, &page(0x7A), SimTime::ZERO).unwrap();
        assert!(
            done < busy_until,
            "override must steer the write to the idle die (done {done}, busy {busy_until})"
        );
        // The mapping still round-trips.
        assert_eq!(noftl.read(obj, 0, done).unwrap().0, page(0x7A));
    }

    #[test]
    fn queue_aware_batch_balances_skewed_die_load() {
        use crate::placement::PlacementPolicyKind;
        // A 4-die region with erase storms on half the dies, then a
        // 32-page batch: QueueAware must finish the batch earlier than
        // RoundRobin because it feeds the idle dies first.
        let run = |placement: PlacementPolicyKind| {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            let config = NoFtlConfig { placement, ..NoFtlConfig::default() };
            let noftl = NoFtl::new(device.clone(), config);
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let dies = noftl.region_dies(r).unwrap();
            for die in &dies[..2] {
                for b in 0..3u32 {
                    device
                        .erase_block(flash_sim::BlockAddr::new(*die, 0, b), SimTime::ZERO)
                        .unwrap();
                }
            }
            let batch: Vec<(ObjectId, u64, Vec<u8>)> =
                (0..32u64).map(|p| (obj, p, page(p as u8))).collect();
            let done = noftl.write_batch(&batch, SimTime::ZERO).unwrap();
            for p in 0..32u64 {
                assert_eq!(noftl.read(obj, p, done).unwrap().0, page(p as u8), "page {p}");
            }
            done
        };
        let rr = run(PlacementPolicyKind::RoundRobin);
        let qa = run(PlacementPolicyKind::QueueAware);
        assert!(qa < rr, "queue-aware batch ({qa}) must beat round-robin ({rr}) under skew");
    }

    #[test]
    fn atomic_write_commits_all_or_nothing() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let t0 = SimTime::ZERO;
        noftl.write(obj, 0, &page(1), t0).unwrap();
        noftl.write(obj, 1, &page(1), t0).unwrap();
        // Successful atomic batch.
        let batch = vec![(obj, 0u64, page(2)), (obj, 1u64, page(2))];
        let done = noftl.write_atomic(&batch, t0).unwrap();
        assert_eq!(noftl.read(obj, 0, done).unwrap().0, page(2));
        assert_eq!(noftl.read(obj, 1, done).unwrap().0, page(2));
        // Failing atomic batch (unknown object in the middle): nothing changes.
        let bad = vec![(obj, 0u64, page(3)), (999u32, 0u64, page(3))];
        assert!(noftl.write_atomic(&bad, done).is_err());
        assert_eq!(noftl.read(obj, 0, done).unwrap().0, page(2));
    }

    #[test]
    fn free_page_and_drop_object_invalidate_pages() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        noftl.write(obj, 1, &page(1), SimTime::ZERO).unwrap();
        noftl.free_page(obj, 0).unwrap();
        assert!(noftl.read(obj, 0, SimTime::ZERO).is_err());
        assert_eq!(noftl.object_pages(obj).unwrap(), 1);
        noftl.drop_object(obj).unwrap();
        assert!(noftl.object_stats(obj).is_err());
        assert!(noftl.object_id("t").is_none());
        // Freeing a never-written page is a no-op.
        let obj2 = noftl.create_object("t2", r).unwrap();
        noftl.free_page(obj2, 5).unwrap();
    }

    #[test]
    fn drop_region_requires_empty_and_returns_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        assert!(matches!(
            noftl.drop_region(r, SimTime::ZERO),
            Err(NoFtlError::RegionNotEmpty { .. })
        ));
        noftl.drop_object(obj).unwrap();
        noftl.drop_region(r, SimTime::ZERO).unwrap();
        assert_eq!(noftl.free_die_count(), 4);
        assert!(noftl.region_id("rg").is_none());
        // The returned dies can immediately back a new region.
        let r2 = noftl.create_region(RegionSpec::named("rg2").with_die_count(4)).unwrap();
        let obj2 = noftl.create_object("t2", r2).unwrap();
        noftl.write(obj2, 0, &page(7), SimTime::ZERO).unwrap();
        assert_eq!(noftl.read(obj2, 0, SimTime::ZERO).unwrap().0, page(7));
    }

    #[test]
    fn grow_and_shrink_region_preserve_data() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..20u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        noftl.grow_region(r, 2).unwrap();
        assert_eq!(noftl.region_dies(r).unwrap().len(), 3);
        assert_eq!(noftl.free_die_count(), 1);
        for p in 20..40u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        // Shrink back down to one die; the data written on the removed dies
        // must be migrated and stay readable.
        let done = noftl.shrink_region(r, 2, t).unwrap();
        assert_eq!(noftl.region_dies(r).unwrap().len(), 1);
        assert_eq!(noftl.free_die_count(), 3);
        for p in 0..40u64 {
            let (data, _) = noftl.read(obj, p, done).unwrap();
            assert_eq!(data, page(p as u8), "page {p}");
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.rebalance_moves > 0);
        // Shrinking to zero dies is rejected.
        assert!(noftl.shrink_region(r, 1, done).is_err());
        // Growing beyond the pool is rejected.
        assert!(noftl.grow_region(r, 10).is_err());
    }

    #[test]
    fn static_wl_policy_is_exercised() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let config = NoFtlConfig {
            wear_leveling: WearLevelingPolicy::Static { threshold: 2 },
            gc_policy: GcPolicy::CostBenefit,
            ..NoFtlConfig::default()
        };
        let noftl = NoFtl::new(device.clone(), config);
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let cold = noftl.create_object("cold", r).unwrap();
        let hot = noftl.create_object("hot", r).unwrap();
        let geo = *device.geometry();
        let t = SimTime::ZERO;
        // A block's worth of cold data that never changes...
        for p in 0..geo.pages_per_block as u64 {
            noftl.write(cold, p, &page(0xCC), t).unwrap();
        }
        // ...and a hot page hammered long enough to wear out the rest.
        for i in 0..(geo.pages_per_die() * 6) {
            noftl.write(hot, 0, &page((i % 255) as u8), t).unwrap();
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.wl_migrations > 0, "static WL should have migrated the cold block");
        // Cold data is still correct after migration.
        assert_eq!(noftl.read(cold, 0, t).unwrap().0, page(0xCC));
    }

    #[test]
    fn with_single_region_spans_all_dies() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device, NoFtlConfig::default());
        assert_eq!(noftl.region_dies(rid).unwrap().len(), 4);
        assert_eq!(noftl.free_die_count(), 0);
        assert_eq!(noftl.region_name(rid).unwrap(), "rgAll");
    }

    #[test]
    fn region_info_and_object_extent() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 10, &page(1), SimTime::ZERO).unwrap();
        let info = noftl.region_info(r).unwrap();
        assert_eq!(info.name, "rg");
        assert_eq!(info.dies.len(), 2);
        assert_eq!(info.objects, vec![obj]);
        assert_eq!(info.capacity_pages, 2 * geo.pages_per_die());
        assert!(info.effective_capacity_pages <= info.capacity_pages);
        assert_eq!(info.tracked_blocks, 2 * geo.blocks_per_die() as u64);
        assert!(info.free_blocks < info.tracked_blocks, "one block is now open");
        assert_eq!(noftl.object_extent(obj).unwrap(), 11);
        assert_eq!(noftl.object_pages(obj).unwrap(), 1);
        assert!(noftl.region_info(RegionId(7)).is_err());
    }

    fn raw_device(noftl: &NoFtl) -> &NandDevice {
        noftl.device().as_any().downcast_ref::<NandDevice>().unwrap()
    }

    fn reboot(noftl: &NoFtl) -> Arc<dyn FlashBackend> {
        Arc::new(raw_device(noftl).power_cycle(None).unwrap())
    }

    #[test]
    fn checkpoint_and_mount_rebuild_state() {
        let noftl = make_noftl();
        let rg_hot = noftl.create_region(RegionSpec::named("rgHot").with_die_count(2)).unwrap();
        let rg_cold = noftl.create_region(RegionSpec::named("rgCold").with_die_count(1)).unwrap();
        let orders = noftl.create_object("orders", rg_hot).unwrap();
        let history = noftl.create_object("history", rg_cold).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..10u64 {
            t = noftl.write(orders, p, &page(p as u8), t).unwrap();
        }
        t = noftl.write(history, 0, &page(0xCC), t).unwrap();
        t = noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.checkpoint_seq(), 1);
        // Post-checkpoint writes are recovered from OOB metadata alone.
        for p in 5..15u64 {
            t = noftl.write(orders, p, &page(0x40 + p as u8), t).unwrap();
        }
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(report.regions, 3, "rgHot, rgCold and the meta region");
        assert_eq!(report.objects, 2);
        assert!(report.pages_after_checkpoint >= 10);
        assert!(report.orphaned_objects.is_empty());
        assert_eq!(noftl2.region_id("rgHot"), Some(rg_hot));
        assert_eq!(noftl2.region_id("rgCold"), Some(rg_cold));
        assert_eq!(noftl2.object_id("orders"), Some(orders));
        assert_eq!(noftl2.object_id("history"), Some(history));
        assert_eq!(noftl2.region_dies(rg_hot).unwrap().len(), 2);
        let done = report.completed_at;
        for p in 0..5u64 {
            assert_eq!(noftl2.read(orders, p, done).unwrap().0, page(p as u8), "page {p}");
        }
        for p in 5..15u64 {
            assert_eq!(noftl2.read(orders, p, done).unwrap().0, page(0x40 + p as u8), "page {p}");
        }
        assert_eq!(noftl2.read(history, 0, done).unwrap().0, page(0xCC));
        // The remounted manager keeps working: writes and re-checkpoints.
        let t2 = noftl2.write(orders, 99, &page(0x77), done).unwrap();
        assert_eq!(noftl2.read(orders, 99, t2).unwrap().0, page(0x77));
        noftl2.checkpoint(t2).unwrap();
        assert_eq!(noftl2.checkpoint_seq(), 2);
    }

    #[test]
    fn mount_of_pristine_device_is_fresh() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, report) = NoFtl::mount(device, NoFtlConfig::default(), SimTime::ZERO).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.pages_scanned, 0);
        assert_eq!(noftl.free_die_count(), 4);
        noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
    }

    #[test]
    fn mount_without_checkpoint_fails_when_data_exists() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        let device2 = reboot(&noftl);
        assert!(matches!(
            NoFtl::mount(device2, NoFtlConfig::default(), SimTime::ZERO),
            Err(NoFtlError::NoCheckpoint)
        ));
    }

    #[test]
    fn mount_preserves_orphan_objects_created_after_checkpoint() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let a = noftl.create_object("a", r).unwrap();
        let mut t = noftl.write(a, 0, &page(1), SimTime::ZERO).unwrap();
        t = noftl.checkpoint(t).unwrap();
        // Object created after the checkpoint: its directory entry is lost
        // but its data must survive under a synthesised name.
        let b = noftl.create_object("b", r).unwrap();
        t = noftl.write(b, 3, &page(9), t).unwrap();
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        assert_eq!(report.orphaned_objects, vec![b]);
        assert_eq!(noftl2.object_id(&format!("__orphan_{b}")), Some(b));
        assert_eq!(noftl2.read(b, 3, report.completed_at).unwrap().0, page(9));
        assert_eq!(noftl2.read(a, 0, report.completed_at).unwrap().0, page(1));
    }

    #[test]
    fn read_windowed_matches_blocking_reads_and_overlaps_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..16u64).map(|p| (obj, p, page(p as u8))).collect();
        let t = noftl.write_batch(&writes, SimTime::ZERO).unwrap();

        let reads: Vec<(ObjectId, u64)> = (0..16u64).map(|p| (obj, p)).collect();
        let (payloads, done) = noftl.read_windowed(&reads, t, 8).unwrap();
        let windowed_span = done - t;

        // Sequential baseline on the now-idle device: each read issued at
        // the previous completion, so nothing overlaps.
        let mut seq_clock = done;
        let mut blocking = Vec::new();
        for p in 0..16u64 {
            let (data, fin) = noftl.read(obj, p, seq_clock).unwrap();
            blocking.push(data);
            seq_clock = fin;
        }
        let sequential_span = seq_clock - done;

        assert_eq!(payloads.len(), 16);
        for (p, data) in payloads.iter().enumerate() {
            assert_eq!(data, &blocking[p], "payload order must match request order");
        }
        // With 4 dies and window 8 the fetches overlap: strictly faster
        // than the chained sequential baseline.
        assert!(
            windowed_span < sequential_span,
            "windowed {windowed_span:?} vs sequential {sequential_span:?}"
        );

        // An unwritten page fails the whole batch and leaks no pending IO.
        let err = noftl.read_windowed(&[(obj, 99)], t, 4).unwrap_err();
        assert!(matches!(err, NoFtlError::PageNotWritten { .. }));
    }

    #[test]
    fn mount_skips_untouched_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..6u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        t = noftl.checkpoint(t).unwrap();
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        // One die holds the region, one the metadata journal; the other
        // two of small_test's four dies were never written and their OOB
        // scan is skipped entirely.
        assert_eq!(report.dies_skipped, 2);
        assert!(report.pages_scanned > 0);
        for p in 0..6u64 {
            assert_eq!(noftl2.read(obj, p, report.completed_at).unwrap().0, page(p as u8));
        }
        // The skipped dies are still usable: they returned to the free
        // pool and can host a new region.
        assert_eq!(noftl2.free_die_count(), 2);
        noftl2.create_region(RegionSpec::named("rg2").with_die_count(2)).unwrap();
    }

    #[test]
    fn torn_write_is_discarded_on_mount_and_old_version_survives() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = noftl.write(obj, 0, &page(0x11), SimTime::ZERO).unwrap();
        t = noftl.checkpoint(t).unwrap();
        // Cut power in the middle of the overwrite of logical page 0.
        let device = raw_device(&noftl);
        let quiesce = device.quiesce_time();
        let probe_span = {
            // A program on this device takes a fixed time under mlc_2015.
            let probe = DeviceBuilder::new(FlashGeometry::small_test())
                .timing(TimingModel::mlc_2015())
                .build();
            let out = probe
                .program_page(
                    flash_sim::PageAddr::new(DieId(0), 0, 0, 0),
                    &page(0),
                    PageMetadata::new(1, 0),
                    SimTime::ZERO,
                )
                .unwrap();
            out.completed_at.as_nanos() - out.started_at.as_nanos()
        };
        device.arm_power_cut(quiesce + flash_sim::Duration(probe_span * 9 / 10));
        let err = noftl.write(obj, 0, &page(0x22), quiesce).unwrap_err();
        assert!(matches!(err, NoFtlError::Flash(e) if e.is_power_loss()));
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        assert_eq!(report.torn_pages_discarded, 1);
        // The pre-crash committed version is still readable.
        assert_eq!(noftl2.read(obj, 0, report.completed_at).unwrap().0, page(0x11));
    }

    #[test]
    fn torn_multichunk_checkpoint_falls_back_to_previous() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        // Enough mapped pages that the checkpoint blob spans several chunks.
        for p in 0..200u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        t = noftl.checkpoint(t).unwrap();
        assert!(
            noftl.checkpoint_seq() == 1 && noftl.meta_region().is_some(),
            "first checkpoint completed"
        );
        // Post-checkpoint overwrites, then a power cut that tears the
        // *second* checkpoint in the middle of its first chunk program
        // (chunk 0 is dense with real payload, so the tear is guaranteed
        // to corrupt it — a tear in a later chunk's zero padding would
        // harmlessly reproduce the complete page).
        for p in 0..5u64 {
            t = noftl.write(obj, p, &page(0xE0 + p as u8), t).unwrap();
        }
        let probe =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let out = probe
            .program_page(
                flash_sim::PageAddr::new(DieId(0), 0, 0, 0),
                &page(0),
                PageMetadata::new(1, 0),
                SimTime::ZERO,
            )
            .unwrap();
        let span = out.completed_at.as_nanos() - out.started_at.as_nanos();
        let q = noftl.device().quiesce_time();
        raw_device(&noftl).arm_power_cut(q + flash_sim::Duration(span * 9 / 10));
        let err = noftl.checkpoint(q).unwrap_err();
        assert!(matches!(err, NoFtlError::Flash(e) if e.is_power_loss()));
        // Mount must fall back to the complete checkpoint #1 and still
        // recover every page (including the post-checkpoint overwrites,
        // which come from the OOB scan).
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        assert_eq!(report.checkpoint_seq, 1, "torn checkpoint #2 is ignored");
        let done = report.completed_at;
        for p in 0..5u64 {
            assert_eq!(noftl2.read(obj, p, done).unwrap().0, page(0xE0 + p as u8), "page {p}");
        }
        for p in 5..200u64 {
            assert_eq!(noftl2.read(obj, p, done).unwrap().0, page(p as u8), "page {p}");
        }
    }

    #[test]
    fn meta_region_cannot_be_dropped() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        noftl.checkpoint(SimTime::ZERO).unwrap();
        let meta = noftl.meta_region().unwrap();
        assert!(matches!(noftl.drop_region(meta, SimTime::ZERO), Err(NoFtlError::Recovery { .. })));
    }

    #[test]
    fn checkpoint_without_free_dies_uses_first_region() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device, NoFtlConfig::default());
        let obj = noftl.create_object("t", rid).unwrap();
        let t = noftl.write(obj, 0, &page(5), SimTime::ZERO).unwrap();
        noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.meta_region(), Some(rid));
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(noftl2.read(obj, 0, report.completed_at).unwrap().0, page(5));
    }

    #[test]
    fn all_object_stats_lists_every_object() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let a = noftl.create_object("a", r).unwrap();
        let _b = noftl.create_object("b", r).unwrap();
        noftl.write(a, 0, &page(1), SimTime::ZERO).unwrap();
        let stats = noftl.all_object_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().find(|s| s.name == "a").unwrap().writes, 1);
        assert_eq!(stats.iter().find(|s| s.name == "b").unwrap().writes, 0);
    }

    mod service_class_audit {
        use super::*;

        fn make_classed_noftl(config: NoFtlConfig) -> NoFtl {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            NoFtl::new(device, config)
        }

        fn counter(noftl: &NoFtl, name: &str) -> u64 {
            noftl.device().metrics().counter(name).get()
        }

        #[test]
        fn host_io_carries_the_region_class() {
            let noftl = make_classed_noftl(NoFtlConfig::default());
            let r = noftl
                .create_region(
                    RegionSpec::named("rgOltp")
                        .with_die_count(1)
                        .with_service_class(ServiceClass::Latency),
                )
                .unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            noftl.read(obj, 0, t).unwrap();
            assert_eq!(counter(&noftl, "flash.arbiter.class.latency.ops"), 2);
            assert_eq!(counter(&noftl, "flash.arbiter.class.background.ops"), 0);
        }

        #[test]
        fn unclassed_regions_fall_back_to_the_manager_default() {
            let config =
                NoFtlConfig { service_class: ServiceClass::Latency, ..NoFtlConfig::default() };
            let noftl = make_classed_noftl(config);
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            assert_eq!(counter(&noftl, "flash.arbiter.class.latency.ops"), 1);
            assert_eq!(counter(&noftl, "flash.arbiter.class.throughput.ops"), 0);
        }

        #[test]
        fn gc_relocations_are_tagged_background_regardless_of_region_class() {
            let noftl = make_classed_noftl(NoFtlConfig::default());
            let r = noftl
                .create_region(
                    RegionSpec::named("rg")
                        .with_die_count(2)
                        .with_service_class(ServiceClass::Latency),
                )
                .unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let geo = *noftl.device().geometry();
            let working_set = 2 * geo.pages_per_die() * 6 / 10;
            let mut t = SimTime::ZERO;
            for p in 0..working_set {
                t = noftl.write(obj, p, &page(p as u8), t).unwrap();
            }
            // Overwrite only the even pages so every victim block keeps
            // valid odd pages that GC must relocate (not just erase).
            for round in 0..8u8 {
                for p in (0..working_set).step_by(2) {
                    t = noftl.write(obj, p, &page(round.wrapping_add(p as u8)), t).unwrap();
                }
            }
            let rs = noftl.region_stats(r).unwrap();
            assert!(rs.gc_runs > 0, "workload must trigger GC");
            assert!(rs.gc_copybacks > 0, "GC must relocate live pages");
            // GC victim scans are metadata reads tagged Background even
            // though the region itself is Latency class.
            assert!(counter(&noftl, "flash.arbiter.class.background.ops") > 0);
            assert!(counter(&noftl, "flash.arbiter.class.latency.ops") > 0);
        }

        #[test]
        fn checkpoint_and_meta_journal_writes_are_exempt() {
            let noftl = make_classed_noftl(NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            let before = counter(&noftl, "flash.arbiter.exempt");
            let t = noftl.checkpoint(t).unwrap();
            let after_ckpt = counter(&noftl, "flash.arbiter.exempt");
            assert!(after_ckpt > before, "checkpoint chunk programs must be exempt");
            // Further checkpoints keep riding the __noftl_meta region
            // exempt.
            let t = noftl.write(obj, 1, &page(2), t).unwrap();
            noftl.checkpoint(t).unwrap();
            assert!(counter(&noftl, "flash.arbiter.exempt") > after_ckpt);
        }
    }
}
