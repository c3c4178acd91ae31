//! The repository's benchmark: four closed-loop workloads over the full
//! NoFTL stack, measured on both clocks.
//!
//! *Simulated* device time is deterministic and is the paper's metric;
//! *host* time is what the engine plus the simulator cost on this CPU.
//! One iteration of a workload builds a fresh device, loads it (timed as
//! set-up), runs a fixed number of operations on one thread, reads every
//! metric from the stack's public statistics and then checks the data it
//! wrote.  The same seed gives the same inputs, so every simulated metric
//! repeats bit for bit; the binary repeats iterations to fill its time
//! budget and reports host-time medians.
//!
//! A traced iteration wraps the two public layer seams in the
//! pass-through decorators of [`trace`] and derives the per-layer
//! breakdown from the spans they record ([`layers`]).

#![warn(missing_docs)]

pub mod layers;
pub mod tpcc;
pub mod trace;
pub mod ycsb;

use std::collections::BTreeMap;
use std::sync::Arc;

use dbms_engine::{BufferStats, Database, DatabaseConfig, NoFtlBackend, StorageBackend, WalStats};
use flash_sim::{
    BlockAddr, DeviceBuilder, DeviceStats, Duration, FlashBackend, FlashGeometry, NandDevice,
    TimingModel,
};
use noftl_core::{NoFtl, NoFtlConfig, NoFtlStats, PlacementConfig, RegionStats};

use crate::trace::{TracedFlash, TracedStorage};

/// Regions whose WA and copybacks are reported (`core.<region>.*`): the
/// traditional region, the six Figure-2 regions and the KV region.  A
/// region a workload does not create reports 0.
pub const REGIONS: [&str; 8] =
    ["rgAll", "rgMeta", "rgOrderStream", "rgCustomer", "rgStock", "rgWhDist", "rgOrderIdx", "rgKv"];

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as printed.
    pub unit: &'static str,
}

/// Ordered collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Whether both sets hold the same names, units and bit-identical values.
    pub fn bit_identical(&self, other: &Metrics) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| {
                a.name == b.name && a.unit == b.unit && a.value.to_bits() == b.value.to_bits()
            })
    }
}

/// Everything one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds to build the device and load the data.
    pub setup_s: f64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that returned `Err` (the open txn was rolled back).
    pub failed: u64,
    /// Text of the first error.
    pub first_error: Option<String>,
    /// Operations counted in per-op metrics (committed TPC-C txns, YCSB
    /// ops that succeeded).
    pub ops: u64,
    /// Host seconds of the measured operation loop.
    pub host_s: f64,
    /// Host nanoseconds of each counted operation.
    pub host_lat_ns: Vec<u64>,
    /// Simulated end-to-end metrics (deterministic for a seed).
    pub sim: Metrics,
    /// Per-layer metrics read from the stack's public statistics
    /// (deterministic for a seed).
    pub layer_stats: Metrics,
    /// Simulated values printed as text only: percentiles and per-type
    /// means that repeat across seeds or do not apply to every workload.
    pub info: Metrics,
    /// Spans of a traced iteration.
    pub spans: Option<Vec<trace::Span>>,
    /// Failed correctness checks (empty when the data checked out).
    pub check_failures: Vec<String>,
}

impl Iteration {
    /// Record a failed operation.
    pub fn fail(&mut self, err: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(err.to_string());
        }
    }

    /// Host operations per second of the measured loop.
    pub fn host_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.host_s.max(f64::MIN_POSITIVE)
    }
}

/// A flash device and the storage manager on it.
pub struct Stack {
    /// The simulated device (statistics are read here, bypassing any
    /// tracing decorator).
    pub device: Arc<NandDevice>,
    /// The storage manager, running on the device or on its decorator.
    pub noftl: Arc<NoFtl>,
    /// Whether both layer seams are wrapped in tracing decorators.
    pub traced: bool,
}

impl Stack {
    /// Build a fresh device with the MLC timing model and a storage
    /// manager on it; `traced` puts a [`TracedFlash`] in between.
    pub fn new(geometry: FlashGeometry, config: NoFtlConfig, traced: bool) -> Self {
        let device = Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
        let backend: Arc<dyn FlashBackend> =
            if traced { Arc::new(TracedFlash::new(device.clone())) } else { device.clone() };
        Stack { device, noftl: Arc::new(NoFtl::new(backend, config)), traced }
    }

    /// Open a database placing its objects by `placement`, through a
    /// [`TracedStorage`] when the stack is traced.
    pub fn database(
        &self,
        placement: &PlacementConfig,
        buffer_pages: usize,
    ) -> dbms_engine::Result<Database> {
        let mut backend: Arc<dyn StorageBackend> =
            Arc::new(NoFtlBackend::new(Arc::clone(&self.noftl), placement)?);
        if self.traced {
            backend = Arc::new(TracedStorage::new(backend));
        }
        Database::open(backend, DatabaseConfig { buffer_pages, ..Default::default() })
    }

    /// Counter snapshot taken at the start and end of the measured phase.
    pub fn snapshot(&self) -> Snapshot {
        let regions = REGIONS
            .iter()
            .map(|name| {
                let stats = self
                    .noftl
                    .region_id(name)
                    .and_then(|rid| self.noftl.region_stats(rid).ok())
                    .unwrap_or_default();
                (*name, stats)
            })
            .collect();
        Snapshot {
            device: self.device.stats(),
            manager: self.noftl.stats(),
            die_busy_ns: self.device.die_stats().iter().map(|d| d.busy_time.0).collect(),
            regions,
        }
    }

    /// Pages holding live data on the whole device.
    pub fn valid_pages(&self) -> u64 {
        let g = *self.device.geometry();
        let mut valid = 0u64;
        for die in 0..g.total_dies() {
            for plane in 0..g.planes_per_die {
                for block in 0..g.blocks_per_plane {
                    let addr = BlockAddr::new(flash_sim::DieId(die), plane, block);
                    if let Ok(info) = self.device.block_info(addr) {
                        valid += u64::from(info.valid_pages);
                    }
                }
            }
        }
        valid
    }
}

/// Counters of the stack at one instant.
pub struct Snapshot {
    device: DeviceStats,
    manager: NoFtlStats,
    die_busy_ns: Vec<u64>,
    regions: BTreeMap<&'static str, RegionStats>,
}

/// Buffer-pool and WAL counters of a database at one instant.
pub struct DbCounters {
    buffer: BufferStats,
    wal: WalStats,
}

impl DbCounters {
    /// Snapshot `db`'s counters.
    pub fn of(db: &Database) -> Self {
        DbCounters { buffer: db.buffer_stats(), wal: db.wal_stats() }
    }

    /// Push the per-op dbms metrics accumulated between `self` and `after`.
    pub fn push_deltas(&self, after: &DbCounters, ops: u64, m: &mut Metrics) {
        let (b, a) = (&self.buffer, &after.buffer);
        let hits = (a.hits - b.hits) as f64;
        let misses = (a.misses - b.misses) as f64;
        let ops = ops as f64;
        m.push("dbms.buffer_hit_ratio", ratio(hits, hits + misses), "ratio");
        m.push("dbms.buffer_misses_per_op", ratio(misses, ops), "count");
        let forces = (after.wal.forces - self.wal.forces) as f64;
        m.push("dbms.wal_forces_per_op", ratio(forces, ops), "count");
        m.push(
            "dbms.wal_pages_per_op",
            ratio((after.wal.pages - self.wal.pages) as f64, ops),
            "pages",
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Value at quantile `q` of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What the measured phase of a workload did, in simulated terms.
pub struct Measured<'a> {
    /// The stack it ran on.
    pub stack: &'a Stack,
    /// Counters before the measured phase.
    pub before: &'a Snapshot,
    /// Counters after it.
    pub after: &'a Snapshot,
    /// Operations counted.
    pub ops: u64,
    /// Simulated makespan of the measured phase.
    pub makespan: Duration,
    /// Simulated latency of every counted operation, nanoseconds.
    pub sim_lat_ns: Vec<u64>,
    /// Live user bytes at the end (rows × row width, or keys × entry size).
    pub live_user_bytes: u64,
}

impl Measured<'_> {
    /// The simulated end-to-end metrics, the per-layer metrics read from
    /// the storage manager's and device's statistics, and informational
    /// values that are printed but not part of the result line.
    pub fn metrics(mut self) -> (Metrics, Metrics, Metrics) {
        let (b, a) = (self.before, self.after);
        let ops = self.ops as f64;
        let programs = (a.device.page_programs - b.device.page_programs) as f64;
        let copybacks = (a.device.copybacks - b.device.copybacks) as f64;
        let erases = (a.device.block_erases - b.device.block_erases) as f64;
        let reads = (a.device.page_reads - b.device.page_reads) as f64;
        let host_writes = (a.manager.host_writes - b.manager.host_writes) as f64;
        let page_size = f64::from(self.stack.device.geometry().page_size);
        self.sim_lat_ns.sort_unstable();
        let lat = |q| quantile(&self.sim_lat_ns, q) as f64 / 1e3;
        let mean_us = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64 / 1e3, v.len() as f64);
        let tail = &self.sim_lat_ns[self.sim_lat_ns.len() - self.sim_lat_ns.len() / 10..];

        let mut info = Metrics::default();
        info.push("lat_p50_sim_us", lat(0.5), "us");
        info.push("lat_p999_sim_us", lat(0.999), "us");
        info.push("lat_samples", self.sim_lat_ns.len() as f64, "count");

        // Simulated latencies take few distinct values (a WAL force is one
        // page program), so their percentiles repeat across seeds; the mean
        // and the mean of the slowest 10 % move with every op.
        let mut e2e = Metrics::default();
        e2e.push("throughput_sim", ratio(ops, self.makespan.as_secs_f64()), "1/s");
        e2e.push("lat_mean_sim_us", mean_us(&self.sim_lat_ns), "us");
        e2e.push("lat_tail_mean_sim_us", mean_us(tail), "us");
        e2e.push("write_amp", ratio(programs + copybacks, host_writes), "ratio");
        e2e.push("flash_writes_per_op", ratio(programs + copybacks, ops), "pages");
        e2e.push("erases_per_kop", ratio(erases * 1e3, ops), "count");
        e2e.push(
            "space_amp",
            ratio(self.stack.valid_pages() as f64, self.live_user_bytes as f64 / page_size),
            "ratio",
        );

        let mut layer = Metrics::default();
        layer.push("flash.reads_per_op", ratio(reads, ops), "pages");
        let gc = |f: fn(&NoFtlStats) -> u64| (f(&a.manager) - f(&b.manager)) as f64;
        layer.push("core.gc_copybacks", gc(|s| s.gc_copybacks), "count");
        layer.push("core.gc_erases", gc(|s| s.gc_erases), "count");
        layer.push("core.gc_runs", gc(|s| s.gc_runs), "count");
        for name in REGIONS {
            let (rb, ra) = (&b.regions[name], &a.regions[name]);
            let writes = (ra.host_writes - rb.host_writes) as f64;
            let moved = (ra.gc_copybacks - rb.gc_copybacks) as f64;
            layer.push(format!("core.{name}.wa"), ratio(writes + moved, writes), "ratio");
            layer.push(format!("core.{name}.copybacks"), moved, "count");
        }
        let read_sum = (a.device.read_latency_sum.0 - b.device.read_latency_sum.0) as f64 / 1e3;
        let write_sum =
            (a.device.program_latency_sum.0 - b.device.program_latency_sum.0) as f64 / 1e3;
        info.push("core.read_4k_sim_us_mean", ratio(read_sum, reads), "us");
        layer.push("core.write_4k_sim_us_mean", ratio(write_sum, programs), "us");
        layer.push(
            "core.max_erase_count",
            self.stack.device.wear_summary().max_erase_count as f64,
            "count",
        );
        let span_ns = self.makespan.0 as f64;
        let utils: Vec<f64> = a
            .die_busy_ns
            .iter()
            .zip(&b.die_busy_ns)
            .map(|(after, before)| ratio((after - before) as f64, span_ns).min(1.0))
            .collect();
        let mean_util = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        layer.push("flash.die_util_mean", mean_util, "ratio");
        layer.push("flash.die_util_min", utils.iter().copied().fold(1.0, f64::min), "ratio");
        (e2e, layer, info)
    }
}
