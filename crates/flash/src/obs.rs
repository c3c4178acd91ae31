//! Registry handles pre-bound by the device and command queue.
//!
//! All handles are registered once at construction (the cold path) so
//! the per-operation cost is pure atomics — `noftl-obs` never touches
//! the tracked lock order, and a disabled registry reduces every call
//! below to one relaxed load.
//!
//! Metric names (see the README's Observability section):
//!
//! * `flash.op.<kind>.latency_ns` — issue→complete latency per native
//!   command, the revived `Scheduled::latency`;
//! * `flash.die<i>.{reads,programs,erases,copybacks}` — per-die op
//!   counters; `flash.die<i>.busy_ns` — the die's cumulative busy time;
//! * `flash.device.quiesce_ns` — latest completion seen so far;
//! * `flash.queue.depth_hwm` — deepest any die queue has been;
//! * `flash.queue.<kind>.wait_ns` — submit→complete through the
//!   command queue, per kind; `flash.queue.{submitted,failed}`;
//! * `flash.queue.class.<class>.wait_ns` — the same waits split by
//!   [`ServiceClass`] (`latency`/`throughput`/`background`);
//! * `flash.arbiter.*` — arbiter decisions on arbiter-enabled devices:
//!   `class.<class>.ops` admissions per class, `deferred`/`deferral_ns`
//!   budget deferrals, `aging_capped` deferrals clipped by the
//!   anti-starvation bound, `backfills` foreground transfers landed in
//!   background-opened gaps, `exempt` durability ops waved through.

use std::sync::Arc;

use noftl_obs::{Counter, Gauge, Histogram, MetricsRegistry, Unit};

use crate::addr::DieId;
use crate::arbiter::ServiceClass;
use crate::queue::OpKind;
use crate::sched::Scheduled;
use crate::time::SimTime;

/// Every op kind, in slot order.
const OPS: [OpKind; 5] =
    [OpKind::Read, OpKind::Program, OpKind::Erase, OpKind::Copyback, OpKind::MetadataRead];

/// Stable metric-name fragment per op kind.
pub(crate) fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Program => "program",
        OpKind::Erase => "erase",
        OpKind::Copyback => "copyback",
        OpKind::MetadataRead => "metadata_read",
    }
}

fn op_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Read => 0,
        OpKind::Program => 1,
        OpKind::Erase => 2,
        OpKind::Copyback => 3,
        OpKind::MetadataRead => 4,
    }
}

#[derive(Debug)]
struct DieObs {
    reads: Counter,
    programs: Counter,
    erases: Counter,
    copybacks: Counter,
    busy_ns: Gauge,
}

/// Handles the device records into on every native command.
#[derive(Debug)]
pub(crate) struct DeviceObs {
    registry: Arc<MetricsRegistry>,
    latency: Vec<Histogram>,
    dies: Vec<DieObs>,
    depth_hwm: Gauge,
    quiesce_ns: Gauge,
}

impl DeviceObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, die_count: u32) -> Self {
        let latency = OPS
            .iter()
            .map(|k| {
                registry.histogram(&format!("flash.op.{}.latency_ns", op_name(*k)), Unit::SimNanos)
            })
            .collect();
        let dies = (0..die_count)
            .map(|i| DieObs {
                reads: registry.counter(&format!("flash.die{i}.reads")),
                programs: registry.counter(&format!("flash.die{i}.programs")),
                erases: registry.counter(&format!("flash.die{i}.erases")),
                copybacks: registry.counter(&format!("flash.die{i}.copybacks")),
                busy_ns: registry.gauge(&format!("flash.die{i}.busy_ns")),
            })
            .collect();
        let depth_hwm = registry.gauge("flash.queue.depth_hwm");
        let quiesce_ns = registry.gauge("flash.device.quiesce_ns");
        DeviceObs { registry, latency, dies, depth_hwm, quiesce_ns }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one completed native command.  `busy_ns` is the executing
    /// die's cumulative busy time, read under the die shard the caller
    /// already holds.
    pub(crate) fn note_op(
        &self,
        kind: OpKind,
        die: DieId,
        sched: &Scheduled,
        at: SimTime,
        busy_ns: u64,
    ) {
        if let Some(h) = self.latency.get(op_slot(kind)) {
            h.record(sched.latency(at).as_nanos());
        }
        if let Some(d) = self.dies.get(die.0 as usize) {
            match kind {
                OpKind::Read | OpKind::MetadataRead => d.reads.inc(),
                OpKind::Program => d.programs.inc(),
                OpKind::Erase => d.erases.inc(),
                OpKind::Copyback => d.copybacks.inc(),
            }
            // Busy time is monotone, so max == last-writer without racing.
            d.busy_ns.set_max(busy_ns);
        }
        self.depth_hwm.set_max(u64::from(sched.depth));
        self.quiesce_ns.set_max(sched.complete.as_nanos());
    }
}

/// Handles the command queue records into at submit→complete.
#[derive(Debug)]
pub(crate) struct QueueObs {
    registry: Arc<MetricsRegistry>,
    waits: Vec<Histogram>,
    class_waits: Vec<Histogram>,
    submitted: Counter,
    failed: Counter,
}

impl QueueObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        let waits = OPS
            .iter()
            .map(|k| {
                registry.histogram(&format!("flash.queue.{}.wait_ns", op_name(*k)), Unit::SimNanos)
            })
            .collect();
        let class_waits = ServiceClass::ALL
            .iter()
            .map(|c| {
                registry
                    .histogram(&format!("flash.queue.class.{}.wait_ns", c.name()), Unit::SimNanos)
            })
            .collect();
        let submitted = registry.counter("flash.queue.submitted");
        let failed = registry.counter("flash.queue.failed");
        QueueObs { registry, waits, class_waits, submitted, failed }
    }

    /// Record one completion: the submit→complete wait histogram for the
    /// kind and the service class, plus a tracer span on the die's track
    /// (instant on failure).
    pub(crate) fn note_completion(
        &self,
        kind: OpKind,
        class: ServiceClass,
        die: DieId,
        issued_at: SimTime,
        completed_at: Option<SimTime>,
    ) {
        self.submitted.inc();
        let track = u64::from(die.0);
        match completed_at {
            Some(done) => {
                if let Some(h) = self.waits.get(op_slot(kind)) {
                    h.record(done.since(issued_at).as_nanos());
                }
                if let Some(h) = self.class_waits.get(class.slot()) {
                    h.record(done.since(issued_at).as_nanos());
                }
                self.registry.tracer().span(
                    "flash.queue",
                    op_name(kind),
                    track,
                    issued_at.as_nanos(),
                    done.as_nanos(),
                    &[],
                );
            }
            None => {
                self.failed.inc();
                self.registry.tracer().instant(
                    "flash.queue",
                    "error",
                    track,
                    issued_at.as_nanos(),
                    &[],
                );
            }
        }
    }
}

/// Handles an arbiter-enabled device records admission decisions into.
#[derive(Debug)]
pub(crate) struct ArbiterObs {
    /// Admissions per service class (slot order).
    pub class_ops: Vec<Counter>,
    /// Transfers deferred by a channel-bandwidth budget.
    pub deferred: Counter,
    /// Total simulated ns of budget deferral.
    pub deferral_ns: Counter,
    /// Deferrals clipped by the anti-starvation aging bound.
    pub aging_capped: Counter,
    /// Foreground transfers that landed in a background-opened gap.
    pub backfills: Counter,
    /// Exempt (durability) ops waved past the budget.
    pub exempt: Counter,
}

impl ArbiterObs {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        ArbiterObs {
            class_ops: ServiceClass::ALL
                .iter()
                .map(|c| registry.counter(&format!("flash.arbiter.class.{}.ops", c.name())))
                .collect(),
            deferred: registry.counter("flash.arbiter.deferred"),
            deferral_ns: registry.counter("flash.arbiter.deferral_ns"),
            aging_capped: registry.counter("flash.arbiter.aging_capped"),
            backfills: registry.counter("flash.arbiter.backfills"),
            exempt: registry.counter("flash.arbiter.exempt"),
        }
    }

    /// Record one admission of `class`.
    pub(crate) fn note_class(&self, class: ServiceClass) {
        if let Some(c) = self.class_ops.get(class.slot()) {
            c.inc();
        }
    }
}
