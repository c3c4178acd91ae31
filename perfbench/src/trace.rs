//! In-memory span recorder and the two pass-through layer decorators.
//!
//! The stack under test is single-threaded, so the recorder is a
//! thread-local: every decorator call opens a span whose parent is the
//! innermost span still open, closes it when the wrapped call returns and
//! keeps it in memory until the run ends.  Recording is off unless
//! [`start`] armed it, so the decorators cost one thread-local check while
//! the database is being loaded.
//!
//! * [`TracedStorage`] wraps a [`StorageBackend`] — the dbms → core seam.
//! * [`TracedFlash`] wraps a [`FlashBackend`] — the core → flash seam, and
//!   records each command's simulated issue, start and completion from its
//!   [`OpOutcome`].
//!
//! Both forward every trait method, defaulted ones included, to the
//! wrapped value, so arbiter tags and windowed pipelines reach it
//! unchanged.  Accessors that return a reference (`geometry`, `timing`,
//! `metrics`, `as_any`) are forwarded untimed.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use dbms_engine::{ObjectId, StorageBackend};
use flash_sim::{
    BlockAddr, BlockInfo, DeviceStats, DieId, DieLoad, DieStats, FlashBackend, FlashGeometry,
    IoTag, OpOutcome, PageAddr, PageMetadata, PageState, SimTime, TimingModel, WearSummary,
};
use noftl_obs::MetricsRegistry;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One benchmark operation (TPC-C txn or YCSB op): its self time is
    /// the workload and dbms code above the storage seam.
    Op,
    /// A `KvStore` call (NoFTL-KV plus the storage manager beneath it).
    Kv,
    /// A `StorageBackend` call (the NoFTL storage manager).
    Core,
    /// A `FlashBackend` call (the flash simulator).
    Flash,
}

/// Sentinel parent of a span opened with no span open.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  Host times are nanoseconds since [`start`];
/// simulated times are nanoseconds of device time (0 where the call has
/// none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Index of the operation (root span) the span belongs to.
    pub op: u32,
    /// Layer of the call.
    pub layer: Layer,
    /// Call name within the layer (`"read"`, `"program"`, `"new_order"`...).
    pub kind: &'static str,
    /// Host clock at entry.
    pub host_start: u64,
    /// Host clock at exit.
    pub host_end: u64,
    /// Simulated issue time handed to the call.
    pub sim_issue: u64,
    /// Simulated start on the die (flash commands only).
    pub sim_start: u64,
    /// Simulated completion returned by the call.
    pub sim_end: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.host_end.saturating_sub(self.host_start)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ops: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm the recorder on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() =
            Some(Recorder { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), ops: 0 });
    });
}

/// Disarm the recorder and hand back every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Open a span; returns its index, or `None` when recording is off.
pub fn enter(layer: Layer, kind: &'static str, sim_issue: SimTime) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let parent = rec.stack.last().copied().unwrap_or(NO_PARENT);
        let op = if layer == Layer::Op {
            rec.ops += 1;
            rec.ops - 1
        } else if parent == NO_PARENT {
            // A call outside any operation: kept, and reported as an orphan.
            u32::MAX
        } else {
            rec.spans[parent as usize].op
        };
        let idx = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans per run");
        let host_start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            parent,
            op,
            layer,
            kind,
            host_start,
            host_end: host_start,
            sim_issue: sim_issue.as_nanos(),
            sim_start: 0,
            sim_end: 0,
        });
        rec.stack.push(idx);
        Some(idx)
    })
}

/// Close the span `idx` opened by [`enter`], recording its simulated
/// start and completion.
pub fn exit(idx: Option<u32>, sim_start: SimTime, sim_end: SimTime) {
    let Some(idx) = idx else { return };
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let span = &mut rec.spans[idx as usize];
        span.host_end = now;
        span.sim_start = sim_start.as_nanos();
        span.sim_end = sim_end.as_nanos();
        rec.stack.pop();
    });
}

/// Run `f` inside a span without simulated times.
fn untimed<T>(layer: Layer, kind: &'static str, f: impl FnOnce() -> T) -> T {
    let span = enter(layer, kind, SimTime::ZERO);
    let out = f();
    exit(span, SimTime::ZERO, SimTime::ZERO);
    out
}

/// Run a call that returns its simulated completion inside a span.
fn completes<T, E>(
    layer: Layer,
    kind: &'static str,
    at: SimTime,
    f: impl FnOnce() -> Result<T, E>,
    done: impl Fn(&T) -> SimTime,
) -> Result<T, E> {
    let span = enter(layer, kind, at);
    let out = f();
    let end = out.as_ref().map(&done).unwrap_or(at);
    exit(span, at, end);
    out
}

/// Run a flash command inside a span, recording its [`OpOutcome`].
fn command<T>(
    kind: &'static str,
    at: SimTime,
    f: impl FnOnce() -> flash_sim::Result<T>,
    outcome: impl Fn(&T) -> OpOutcome,
) -> flash_sim::Result<T> {
    let span = enter(Layer::Flash, kind, at);
    let out = f();
    match &out {
        Ok(v) => {
            let o = outcome(v);
            exit(span, o.started_at, o.completed_at);
        }
        Err(_) => exit(span, at, at),
    }
    out
}

// ---------------------------------------------------------------------
// dbms → core seam
// ---------------------------------------------------------------------

/// Pass-through [`StorageBackend`] that records a [`Layer::Core`] span
/// around every call.
pub struct TracedStorage {
    inner: Arc<dyn StorageBackend>,
}

impl TracedStorage {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        TracedStorage { inner }
    }
}

impl StorageBackend for TracedStorage {
    fn page_size(&self) -> u32 {
        self.inner.page_size()
    }

    fn create_object(&self, name: &str) -> dbms_engine::Result<ObjectId> {
        untimed(Layer::Core, "create_object", || self.inner.create_object(name))
    }

    fn lookup_object(&self, name: &str) -> Option<ObjectId> {
        untimed(Layer::Core, "lookup_object", || self.inner.lookup_object(name))
    }

    fn object_extent(&self, obj: ObjectId) -> dbms_engine::Result<u64> {
        untimed(Layer::Core, "object_extent", || self.inner.object_extent(obj))
    }

    fn checkpoint(&self, at: SimTime) -> dbms_engine::Result<SimTime> {
        completes(Layer::Core, "checkpoint", at, || self.inner.checkpoint(at), |t| *t)
    }

    fn read_page(
        &self,
        obj: ObjectId,
        page: u64,
        at: SimTime,
    ) -> dbms_engine::Result<(Vec<u8>, SimTime)> {
        completes(Layer::Core, "read", at, || self.inner.read_page(obj, page, at), |r| r.1)
    }

    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<(Vec<Vec<u8>>, SimTime)> {
        completes(
            Layer::Core,
            "read_windowed",
            at,
            || self.inner.read_windowed(reads, at, window),
            |r| r.1,
        )
    }

    fn write_page(
        &self,
        obj: ObjectId,
        page: u64,
        data: &[u8],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        completes(Layer::Core, "write", at, || self.inner.write_page(obj, page, data, at), |t| *t)
    }

    fn write_batch(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        completes(Layer::Core, "write_batch", at, || self.inner.write_batch(writes, at), |t| *t)
    }

    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<SimTime> {
        completes(
            Layer::Core,
            "write_windowed",
            at,
            || self.inner.write_windowed(writes, at, window),
            |t| *t,
        )
    }

    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.metrics()
    }

    fn free_page(&self, obj: ObjectId, page: u64) -> dbms_engine::Result<()> {
        untimed(Layer::Core, "free_page", || self.inner.free_page(obj, page))
    }

    fn io_counts(&self) -> (u64, u64) {
        untimed(Layer::Core, "io_counts", || self.inner.io_counts())
    }
}

// ---------------------------------------------------------------------
// core → flash seam
// ---------------------------------------------------------------------

/// Pass-through [`FlashBackend`] that records a [`Layer::Flash`] span
/// around every call.
pub struct TracedFlash {
    inner: Arc<dyn FlashBackend>,
}

impl TracedFlash {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn FlashBackend>) -> Self {
        TracedFlash { inner }
    }
}

type ReadResult = flash_sim::Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)>;
type MetaResult = flash_sim::Result<(Option<PageMetadata>, OpOutcome)>;

impl FlashBackend for TracedFlash {
    fn geometry(&self) -> &FlashGeometry {
        self.inner.geometry()
    }

    fn timing(&self) -> &TimingModel {
        self.inner.timing()
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    fn read_page(&self, addr: PageAddr, at: SimTime) -> ReadResult {
        command("read", at, || self.inner.read_page(addr, at), |r| r.2)
    }

    fn read_page_tagged(&self, addr: PageAddr, at: SimTime, tag: IoTag) -> ReadResult {
        command("read", at, || self.inner.read_page_tagged(addr, at, tag), |r| r.2)
    }

    fn read_metadata(&self, addr: PageAddr, at: SimTime) -> MetaResult {
        command("read_metadata", at, || self.inner.read_metadata(addr, at), |r| r.1)
    }

    fn read_metadata_tagged(&self, addr: PageAddr, at: SimTime, tag: IoTag) -> MetaResult {
        command("read_metadata", at, || self.inner.read_metadata_tagged(addr, at, tag), |r| r.1)
    }

    fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> flash_sim::Result<OpOutcome> {
        command("program", at, || self.inner.program_page(addr, data, meta, at), |o| *o)
    }

    fn program_page_tagged(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<OpOutcome> {
        command("program", at, || self.inner.program_page_tagged(addr, data, meta, at, tag), |o| *o)
    }

    fn erase_block(&self, addr: BlockAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        command("erase", at, || self.inner.erase_block(addr, at), |o| *o)
    }

    fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        command("copyback", at, || self.inner.copyback(src, dst, at), |o| *o)
    }

    fn mark_invalid(&self, addr: PageAddr) -> flash_sim::Result<()> {
        untimed(Layer::Flash, "mark_invalid", || self.inner.mark_invalid(addr))
    }

    fn retire_block(&self, addr: BlockAddr) -> flash_sim::Result<()> {
        untimed(Layer::Flash, "retire_block", || self.inner.retire_block(addr))
    }

    fn block_info(&self, addr: BlockAddr) -> flash_sim::Result<BlockInfo> {
        untimed(Layer::Flash, "block_info", || self.inner.block_info(addr))
    }

    fn page_state(&self, addr: PageAddr) -> flash_sim::Result<PageState> {
        untimed(Layer::Flash, "page_state", || self.inner.page_state(addr))
    }

    fn stats(&self) -> DeviceStats {
        untimed(Layer::Flash, "stats", || self.inner.stats())
    }

    fn die_stats(&self) -> Vec<DieStats> {
        untimed(Layer::Flash, "die_stats", || self.inner.die_stats())
    }

    fn wear_summary(&self) -> WearSummary {
        untimed(Layer::Flash, "wear_summary", || self.inner.wear_summary())
    }

    fn quiesce_time(&self) -> SimTime {
        untimed(Layer::Flash, "quiesce_time", || self.inner.quiesce_time())
    }

    fn die_busy_until(&self, die: DieId) -> SimTime {
        untimed(Layer::Flash, "die_busy_until", || self.inner.die_busy_until(die))
    }

    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        untimed(Layer::Flash, "die_load", || self.inner.die_load(die, at))
    }

    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        untimed(Layer::Flash, "die_loads", || self.inner.die_loads(at))
    }

    fn current_epoch(&self) -> u64 {
        untimed(Layer::Flash, "current_epoch", || self.inner.current_epoch())
    }

    fn stores_data(&self) -> bool {
        untimed(Layer::Flash, "stores_data", || self.inner.stores_data())
    }

    fn die_touched(&self, die: DieId) -> bool {
        untimed(Layer::Flash, "die_touched", || self.inner.die_touched(die))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn replication_blob(&self) -> Option<Vec<u8>> {
        untimed(Layer::Flash, "replication_blob", || self.inner.replication_blob())
    }

    fn restore_replication(&self, blob: Option<&[u8]>, at: SimTime) -> flash_sim::Result<SimTime> {
        completes(
            Layer::Flash,
            "restore_replication",
            at,
            || self.inner.restore_replication(blob, at),
            |t| *t,
        )
    }
}
