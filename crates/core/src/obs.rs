//! Registry handles pre-bound by the storage manager and the KV store.
//!
//! All handles are registered once at construction (the cold path) so
//! per-operation recording is pure relaxed atomics; a disabled registry
//! reduces every call below to one relaxed load.  `noftl-obs` never
//! touches the tracked lock order, so every recording site here is safe
//! under any combination of manager/die/shared locks.
//!
//! Metric names (see the README's Observability section):
//!
//! * `core.placement.decisions.{round_robin,queue_aware}` — allocations
//!   resolved by each policy;
//! * `core.placement.probes_total` — dies probed before one yielded a
//!   page (1 per allocation when the first choice works);
//! * `core.placement.steered` / `core.placement.steer_delta_total` —
//!   allocations that landed off the round-robin stripe position, and
//!   the summed ring distance of those deflections;
//! * `core.flush.window_occupancy` — in-flight depth of the page
//!   pipeline under `NoFtl::write_windowed`, sampled at every submission
//!   (its max is the measured window high-water mark);
//! * `core.flush.window_ns` — issue→drain latency of whole windows;
//! * `core.read.window_occupancy` / `core.read.window_ns` — the same two
//!   views of `NoFtl::read_windowed` (scans, compaction merges).  Blocking
//!   calls, batches and atomic writes run the same pipeline but record
//!   into neither;
//! * `core.gc.{runs,pages_moved,blocks_erased}` — GC activity;
//! * `kv.put.latency_ns`, `kv.flush.latency_ns`, `kv.compact.latency_ns`
//!   and `kv.{flushes,compactions}` — LSM store activity.
//!
//! Tracer track IDs: flash dies use their die index (see
//! `flash-sim`); host-side spans use fixed tracks `100` (KV),
//! `103` (flush windows) so they render as separate rows in the Chrome
//! trace viewer.

use std::sync::Arc;

use noftl_obs::{Counter, Histogram, MetricsRegistry, Unit};

use flash_sim::SimTime;

use crate::placement::PlacementPolicyKind;

/// Tracer track for KV store spans.
pub(crate) const TRACK_KV: u64 = 100;
/// Tracer track for windowed-flush spans.
pub(crate) const TRACK_FLUSH: u64 = 103;

/// Direction of a windowed page pipeline.  Each direction records into
/// its own histograms, so scan and merge read windows never skew the
/// write-flush latency distribution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window {
    /// `core.flush.window_*`.
    Write,
    /// `core.read.window_*`.
    Read,
}

/// Handles the storage manager records into on allocation, GC and
/// windowed reads and writes.
#[derive(Debug)]
pub(crate) struct CoreObs {
    registry: Arc<MetricsRegistry>,
    decisions_rr: Counter,
    decisions_qa: Counter,
    probes_total: Counter,
    steered: Counter,
    steer_delta_total: Counter,
    flush_window_occupancy: Histogram,
    flush_window_ns: Histogram,
    read_window_occupancy: Histogram,
    read_window_ns: Histogram,
    gc_runs: Counter,
    gc_pages_moved: Counter,
    gc_blocks_erased: Counter,
}

impl CoreObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        CoreObs {
            decisions_rr: registry.counter("core.placement.decisions.round_robin"),
            decisions_qa: registry.counter("core.placement.decisions.queue_aware"),
            probes_total: registry.counter("core.placement.probes_total"),
            steered: registry.counter("core.placement.steered"),
            steer_delta_total: registry.counter("core.placement.steer_delta_total"),
            flush_window_occupancy: registry.histogram("core.flush.window_occupancy", Unit::Count),
            flush_window_ns: registry.histogram("core.flush.window_ns", Unit::SimNanos),
            read_window_occupancy: registry.histogram("core.read.window_occupancy", Unit::Count),
            read_window_ns: registry.histogram("core.read.window_ns", Unit::SimNanos),
            gc_runs: registry.counter("core.gc.runs"),
            gc_pages_moved: registry.counter("core.gc.pages_moved"),
            gc_blocks_erased: registry.counter("core.gc.blocks_erased"),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one successful page allocation: which policy decided, how
    /// many dies were probed, and how far off the round-robin stripe
    /// position (`expected`) the chosen die landed.
    pub(crate) fn note_allocation(
        &self,
        kind: PlacementPolicyKind,
        probes: u64,
        chosen: usize,
        expected: usize,
        die_count: usize,
    ) {
        match kind {
            PlacementPolicyKind::RoundRobin => self.decisions_rr.inc(),
            PlacementPolicyKind::QueueAware => self.decisions_qa.inc(),
        }
        self.probes_total.add(probes);
        if chosen != expected && die_count > 0 {
            self.steered.inc();
            let delta = (chosen + die_count - expected) % die_count;
            self.steer_delta_total.add(delta as u64);
        }
    }

    /// Record one GC invocation on a die: pages relocated via copyback
    /// and blocks reclaimed, plus a tracer instant on the die's track.
    pub(crate) fn note_gc(
        &self,
        die_track: u64,
        pages_moved: u64,
        blocks_erased: u64,
        at: SimTime,
    ) {
        self.gc_runs.inc();
        self.gc_pages_moved.add(pages_moved);
        self.gc_blocks_erased.add(blocks_erased);
        self.registry.tracer().instant(
            "core.gc",
            "gc",
            die_track,
            at.as_nanos(),
            &[("pages_moved", pages_moved), ("blocks_erased", blocks_erased)],
        );
    }

    /// Sample a windowed pipeline's in-flight depth at one submission
    /// instant.
    pub(crate) fn note_window_occupancy(&self, dir: Window, inflight: u64) {
        match dir {
            Window::Write => self.flush_window_occupancy.record(inflight),
            Window::Read => self.read_window_occupancy.record(inflight),
        }
    }

    /// Record a completed window: issue→drain latency plus a tracer span
    /// on the flush track.
    pub(crate) fn note_window_done(&self, dir: Window, pages: u64, issued: SimTime, done: SimTime) {
        let (hist, category, name) = match dir {
            Window::Write => (&self.flush_window_ns, "core.flush", "write_window"),
            Window::Read => (&self.read_window_ns, "core.read", "read_window"),
        };
        hist.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            category,
            name,
            TRACK_FLUSH,
            issued.as_nanos(),
            done.as_nanos(),
            &[("pages", pages)],
        );
    }
}

/// Handles the KV store records into on puts, memtable flushes and
/// compactions.
#[derive(Debug)]
pub(crate) struct KvObs {
    registry: Arc<MetricsRegistry>,
    put_latency: Histogram,
    flush_latency: Histogram,
    compact_latency: Histogram,
    flushes: Counter,
    compactions: Counter,
}

impl KvObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        KvObs {
            put_latency: registry.histogram("kv.put.latency_ns", Unit::SimNanos),
            flush_latency: registry.histogram("kv.flush.latency_ns", Unit::SimNanos),
            compact_latency: registry.histogram("kv.compact.latency_ns", Unit::SimNanos),
            flushes: registry.counter("kv.flushes"),
            compactions: registry.counter("kv.compactions"),
            registry,
        }
    }

    /// Record one `put` end to end (`at` if it stayed in the memtable).
    pub(crate) fn note_put(&self, issued: SimTime, done: SimTime) {
        self.put_latency.record(done.since(issued).as_nanos());
    }

    /// Record one memtable flush as a histogram sample and tracer span.
    pub(crate) fn note_flush(&self, entries: u64, issued: SimTime, done: SimTime) {
        self.flushes.inc();
        self.flush_latency.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            "kv",
            "memtable_flush",
            TRACK_KV,
            issued.as_nanos(),
            done.as_nanos(),
            &[("entries", entries)],
        );
    }

    /// Record one level compaction as a histogram sample and tracer span.
    pub(crate) fn note_compact(&self, level: u64, issued: SimTime, done: SimTime) {
        self.compactions.inc();
        self.compact_latency.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            "kv",
            "compaction",
            TRACK_KV,
            issued.as_nanos(),
            done.as_nanos(),
            &[("level", level)],
        );
    }
}
