//! The benchmark measures the program it claims to: its TPC-C loop is
//! `tpcc_workload::Driver`'s, its YCSB ops are the workload lab's, and the
//! tracing decorators change nothing the stack computes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the Figure-3 test runs the full 12,000-transaction configuration).

use std::sync::{Arc, Mutex};

use dbms_engine::{Database, DatabaseConfig, NoFtlBackend, ObjectId, StorageBackend, Value};
use flash_sim::{
    BlockAddr, BlockInfo, DeviceBuilder, DeviceStats, DieId, DieLoad, DieStats, FlashBackend,
    FlashGeometry, IoTag, NandDevice, OpOutcome, PageAddr, PageMetadata, PageState, ServiceClass,
    SimTime, TimingModel, WearSummary,
};
use noftl_core::{KvConfig, NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_obs::MetricsRegistry;
use noftl_perfbench::layers::Breakdown;
use noftl_perfbench::tpcc::{self, TpccConfig};
use noftl_perfbench::trace::{TracedFlash, TracedStorage};
use noftl_perfbench::ycsb::{self, YcsbConfig};
use noftl_perfbench::Iteration;
use noftl_workload::{load_phase, run_ycsb, BtreeBackend, KvBackend, WorkloadBackend};
use tpcc_workload::{placement, Driver, DriverConfig, Loader, ScaleConfig};

fn small_geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        chips_per_channel: 2,
        dies_per_chip: 2,
        planes_per_die: 1,
        blocks_per_plane: 24,
        pages_per_block: 16,
        page_size: 4096,
        oob_size: 64,
    }
}

fn small_tpcc(placement: PlacementConfig, seed: u64) -> TpccConfig {
    TpccConfig {
        placement,
        geometry: small_geometry(),
        // The spec's 10 districts per warehouse: the loader's W_YTD assumes them.
        scale: ScaleConfig { districts_per_warehouse: 10, ..ScaleConfig::tiny() },
        buffer_pages: 64,
        clients: 4,
        transactions: 400,
        seed,
    }
}

fn small_kv(seed: u64) -> YcsbConfig {
    let mut config = YcsbConfig::a_kv(seed);
    config.spec.record_count = 3_000;
    config.spec.op_count = 6_000;
    config
}

fn small_btree(seed: u64) -> YcsbConfig {
    let mut config = YcsbConfig::b_btree(seed);
    config.spec.record_count = 1_000;
    config.spec.op_count = 3_000;
    config
}

/// `tpcc_workload::Driver` on the same stack the benchmark builds.
fn driver_outcome(config: &TpccConfig) -> (u64, u64, flash_sim::Duration) {
    let device =
        Arc::new(DeviceBuilder::new(config.geometry).timing(TimingModel::mlc_2015()).build());
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::paper_defaults()));
    let backend = Arc::new(NoFtlBackend::new(noftl, &config.placement).unwrap());
    let db = Database::open(
        backend,
        DatabaseConfig { buffer_pages: config.buffer_pages, ..Default::default() },
    )
    .unwrap();
    let (_, loaded) =
        Loader::new(config.scale, config.seed ^ 0xC0FFEE).load(&db, SimTime::ZERO).unwrap();
    let report = Driver::new(DriverConfig {
        clients: config.clients,
        total_transactions: config.transactions,
        seed: config.seed,
        ..DriverConfig::default()
    })
    .run(&db, &config.scale, loaded)
    .unwrap();
    (report.committed, report.rolled_back, report.makespan)
}

#[test]
fn tpcc_loop_matches_tpcc_workload_driver() {
    for seed in [7, 8] {
        for placement in [placement::traditional(8), placement::figure2(8)] {
            let config = small_tpcc(placement, seed);
            let (it, ours) = tpcc::iterate(&config, false);
            assert_eq!(it.failed, 0, "{:?}", it.first_error);
            assert!(it.check_failures.is_empty(), "{:?}", it.check_failures);
            let (committed, rolled_back, makespan) = driver_outcome(&config);
            assert_eq!(
                (ours.committed, ours.rolled_back, ours.makespan),
                (committed, rolled_back, makespan)
            );
        }
    }
}

#[test]
fn default_seed_reproduces_figure3_tps() {
    for (config, tps) in
        [(TpccConfig::regions(0), "439.15"), (TpccConfig::traditional(0), "513.91")]
    {
        let (it, _) = tpcc::iterate(&config, false);
        assert_eq!(it.failed, 0, "{:?}", it.first_error);
        assert!(it.check_failures.is_empty(), "{:?}", it.check_failures);
        assert_eq!(format!("{:.2}", it.sim.get("throughput_sim").unwrap()), tps);
    }
}

fn assert_transparent(plain: &Iteration, traced: &Iteration) {
    assert!(plain.sim.bit_identical(&traced.sim), "{:?}\n{:?}", plain.sim, traced.sim);
    assert!(plain.layer_stats.bit_identical(&traced.layer_stats));
    assert!(plain.info.bit_identical(&traced.info));
    assert!(traced.check_failures.is_empty(), "{:?}", traced.check_failures);
    let spans = traced.spans.as_deref().expect("traced iteration keeps its spans");
    let b = Breakdown::from_spans(spans);
    assert_eq!(b.ops, traced.attempted);
    assert_eq!((b.max_residual_ns, b.nesting_violations, b.orphans), (0, 0, 0));
    assert!(b.flash_calls() > 0);
}

#[test]
fn traced_runs_reproduce_every_simulated_metric() {
    let config = small_tpcc(placement::figure2(8), 9);
    assert_transparent(&tpcc::iterate(&config, false).0, &tpcc::iterate(&config, true).0);
    for config in [small_kv(3), small_btree(3)] {
        assert_transparent(&ycsb::iterate(&config, false), &ycsb::iterate(&config, true));
    }
}

#[test]
fn ycsb_ops_match_the_workload_lab() {
    // The lab writes different value bytes of the same length; simulated
    // time depends only on lengths, so the makespans must agree.
    for config in [small_kv(5), small_btree(5)] {
        let it = ycsb::iterate(&config, false);
        assert_eq!(it.failed, 0, "{:?}", it.first_error);
        assert!(it.check_failures.is_empty(), "{:?}", it.check_failures);
        let device =
            Arc::new(DeviceBuilder::new(config.geometry).timing(TimingModel::mlc_2015()).build());
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let backend: Box<dyn WorkloadBackend> = match config.engine {
            ycsb::Engine::Kv => {
                let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(4)).unwrap();
                Box::new(
                    KvBackend::create(noftl, rid, "ycsb", KvConfig::default(), SimTime::ZERO)
                        .unwrap()
                        .0,
                )
            }
            ycsb::Engine::Btree { buffer_pages } => Box::new(
                BtreeBackend::create(
                    noftl,
                    &PlacementConfig::traditional(4, [ycsb::TABLE.to_string()]),
                    DatabaseConfig { buffer_pages, ..Default::default() },
                    config.spec.value_len,
                    SimTime::ZERO,
                )
                .unwrap()
                .0,
            ),
        };
        let loaded = load_phase(&config.spec, backend.as_ref(), SimTime::ZERO).unwrap();
        let lab =
            run_ycsb(&config.spec, backend.as_ref(), &MetricsRegistry::new(), loaded).unwrap();
        let ours = it.sim.get("throughput_sim").unwrap();
        assert_eq!(ours, lab.ops as f64 / lab.elapsed.as_secs_f64());
    }
}

#[test]
fn consistency_check_catches_a_lost_payment() {
    let config = small_tpcc(placement::traditional(8), 11);
    let device = Arc::new(DeviceBuilder::new(config.geometry).build());
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::paper_defaults()));
    let db = Database::open(
        Arc::new(NoFtlBackend::new(noftl, &config.placement).unwrap()),
        DatabaseConfig { buffer_pages: 64, ..Default::default() },
    )
    .unwrap();
    let (_, t) = Loader::new(config.scale, 1).load(&db, SimTime::ZERO).unwrap();
    assert!(tpcc::check_consistency(&db, &config.scale, t).is_empty());
    let mut txn = db.begin(t);
    let key = tpcc_workload::schema::warehouse_key(1);
    let (rid, mut wh) = db.index_get(&mut txn, "WAREHOUSE", "W_IDX", &key).unwrap().unwrap();
    wh[8] = Value::Float(wh[8].as_float().unwrap() + 1.0);
    db.update(&mut txn, "WAREHOUSE", rid, &wh).unwrap();
    db.commit(&mut txn).unwrap();
    let failures = tpcc::check_consistency(&db, &config.scale, txn.now);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].starts_with("condition 1"));
}

// ---------------------------------------------------------------------
// The decorators forward every method, with its own arguments.
// ---------------------------------------------------------------------

type Log = Arc<Mutex<Vec<String>>>;

/// A flash backend that logs which trait method reached it.
struct LoggingFlash {
    inner: Arc<NandDevice>,
    log: Log,
}

impl LoggingFlash {
    fn note(&self, call: impl Into<String>) {
        self.log.lock().unwrap().push(call.into());
    }
}

impl FlashBackend for LoggingFlash {
    fn geometry(&self) -> &FlashGeometry {
        self.note("geometry");
        self.inner.geometry()
    }
    fn timing(&self) -> &TimingModel {
        self.note("timing");
        self.inner.timing()
    }
    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.note("metrics");
        self.inner.metrics()
    }
    fn read_page(
        &self,
        a: PageAddr,
        at: SimTime,
    ) -> flash_sim::Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.note("read_page");
        self.inner.read_page(a, at)
    }
    fn read_page_tagged(
        &self,
        a: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.note(format!("read_page_tagged {tag:?}"));
        self.inner.read_page_tagged(a, at, tag)
    }
    fn read_metadata(
        &self,
        a: PageAddr,
        at: SimTime,
    ) -> flash_sim::Result<(Option<PageMetadata>, OpOutcome)> {
        self.note("read_metadata");
        self.inner.read_metadata(a, at)
    }
    fn read_metadata_tagged(
        &self,
        a: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<(Option<PageMetadata>, OpOutcome)> {
        self.note(format!("read_metadata_tagged {tag:?}"));
        self.inner.read_metadata_tagged(a, at, tag)
    }
    fn program_page(
        &self,
        a: PageAddr,
        d: &[u8],
        m: PageMetadata,
        at: SimTime,
    ) -> flash_sim::Result<OpOutcome> {
        self.note("program_page");
        self.inner.program_page(a, d, m, at)
    }
    fn program_page_tagged(
        &self,
        a: PageAddr,
        d: &[u8],
        m: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<OpOutcome> {
        self.note(format!("program_page_tagged {tag:?}"));
        self.inner.program_page_tagged(a, d, m, at, tag)
    }
    fn erase_block(&self, a: BlockAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        self.note("erase_block");
        self.inner.erase_block(a, at)
    }
    fn copyback(&self, s: PageAddr, d: PageAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        self.note("copyback");
        self.inner.copyback(s, d, at)
    }
    fn mark_invalid(&self, a: PageAddr) -> flash_sim::Result<()> {
        self.note("mark_invalid");
        self.inner.mark_invalid(a)
    }
    fn retire_block(&self, a: BlockAddr) -> flash_sim::Result<()> {
        self.note("retire_block");
        self.inner.retire_block(a)
    }
    fn block_info(&self, a: BlockAddr) -> flash_sim::Result<BlockInfo> {
        self.note("block_info");
        self.inner.block_info(a)
    }
    fn page_state(&self, a: PageAddr) -> flash_sim::Result<PageState> {
        self.note("page_state");
        self.inner.page_state(a)
    }
    fn stats(&self) -> DeviceStats {
        self.note("stats");
        self.inner.stats()
    }
    fn die_stats(&self) -> Vec<DieStats> {
        self.note("die_stats");
        self.inner.die_stats()
    }
    fn wear_summary(&self) -> WearSummary {
        self.note("wear_summary");
        self.inner.wear_summary()
    }
    fn quiesce_time(&self) -> SimTime {
        self.note("quiesce_time");
        self.inner.quiesce_time()
    }
    fn die_busy_until(&self, d: DieId) -> SimTime {
        self.note("die_busy_until");
        self.inner.die_busy_until(d)
    }
    fn die_load(&self, d: DieId, at: SimTime) -> DieLoad {
        self.note("die_load");
        self.inner.die_load(d, at)
    }
    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        self.note("die_loads");
        self.inner.die_loads(at)
    }
    fn current_epoch(&self) -> u64 {
        self.note("current_epoch");
        self.inner.current_epoch()
    }
    fn stores_data(&self) -> bool {
        self.note("stores_data");
        self.inner.stores_data()
    }
    fn die_touched(&self, d: DieId) -> bool {
        self.note("die_touched");
        self.inner.die_touched(d)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.note("as_any");
        self
    }
    fn replication_blob(&self) -> Option<Vec<u8>> {
        self.note("replication_blob");
        Some(vec![1, 2, 3])
    }
    fn restore_replication(&self, blob: Option<&[u8]>, at: SimTime) -> flash_sim::Result<SimTime> {
        self.note(format!("restore_replication {blob:?}"));
        Ok(at)
    }
}

#[test]
fn flash_decorator_forwards_every_method() {
    let log: Log = Arc::default();
    let inner = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
    let logging: Arc<dyn FlashBackend> = Arc::new(LoggingFlash { inner, log: Arc::clone(&log) });
    let traced = TracedFlash::new(logging);
    let tag = IoTag { class: ServiceClass::Latency, region: Some(3), exempt: true };
    let (die, t) = (DieId(0), SimTime::ZERO);
    let block = BlockAddr::new(die, 0, 0);
    let (p0, p1, p2) = (block.page(0), block.page(1), block.page(2));
    let data = vec![5u8; 4096];
    traced.geometry();
    traced.timing();
    traced.metrics();
    traced.program_page(p0, &data, PageMetadata::new(1, 0), t).unwrap();
    traced.program_page_tagged(p1, &data, PageMetadata::new(1, 1), t, tag).unwrap();
    traced.read_page(p0, t).unwrap();
    traced.read_page_tagged(p0, t, tag).unwrap();
    traced.read_metadata(p0, t).unwrap();
    traced.read_metadata_tagged(p0, t, tag).unwrap();
    traced.copyback(p1, BlockAddr::new(die, 0, 1).page(0), t).unwrap();
    traced.mark_invalid(p0).unwrap();
    traced.block_info(block).unwrap();
    traced.page_state(p2).unwrap();
    traced.stats();
    traced.die_stats();
    traced.wear_summary();
    traced.quiesce_time();
    traced.die_busy_until(die);
    traced.die_load(die, t);
    traced.die_loads(t);
    traced.current_epoch();
    traced.stores_data();
    traced.die_touched(die);
    traced.erase_block(block, t).unwrap();
    traced.retire_block(BlockAddr::new(die, 0, 5)).unwrap();
    assert!(
        traced.as_any().downcast_ref::<LoggingFlash>().is_some(),
        "as_any exposes the wrapped backend"
    );
    assert_eq!(traced.replication_blob(), Some(vec![1, 2, 3]));
    traced.restore_replication(Some(&[9]), t).unwrap();
    let expected = [
        "geometry".to_string(),
        "timing".into(),
        "metrics".into(),
        "program_page".into(),
        format!("program_page_tagged {tag:?}"),
        "read_page".into(),
        format!("read_page_tagged {tag:?}"),
        "read_metadata".into(),
        format!("read_metadata_tagged {tag:?}"),
        "copyback".into(),
        "mark_invalid".into(),
        "block_info".into(),
        "page_state".into(),
        "stats".into(),
        "die_stats".into(),
        "wear_summary".into(),
        "quiesce_time".into(),
        "die_busy_until".into(),
        "die_load".into(),
        "die_loads".into(),
        "current_epoch".into(),
        "stores_data".into(),
        "die_touched".into(),
        "erase_block".into(),
        "retire_block".into(),
        "as_any".into(),
        "replication_blob".into(),
        "restore_replication Some([9])".into(),
    ];
    assert_eq!(*log.lock().unwrap(), expected);
}

/// A storage backend that logs which trait method reached it.
struct LoggingStorage {
    inner: Arc<dyn StorageBackend>,
    log: Log,
}

impl LoggingStorage {
    fn note(&self, call: impl Into<String>) {
        self.log.lock().unwrap().push(call.into());
    }
}

impl StorageBackend for LoggingStorage {
    fn page_size(&self) -> u32 {
        self.note("page_size");
        self.inner.page_size()
    }
    fn create_object(&self, name: &str) -> dbms_engine::Result<ObjectId> {
        self.note("create_object");
        self.inner.create_object(name)
    }
    fn lookup_object(&self, name: &str) -> Option<ObjectId> {
        self.note("lookup_object");
        self.inner.lookup_object(name)
    }
    fn object_extent(&self, obj: ObjectId) -> dbms_engine::Result<u64> {
        self.note("object_extent");
        self.inner.object_extent(obj)
    }
    fn checkpoint(&self, at: SimTime) -> dbms_engine::Result<SimTime> {
        self.note("checkpoint");
        self.inner.checkpoint(at)
    }
    fn read_page(
        &self,
        obj: ObjectId,
        page: u64,
        at: SimTime,
    ) -> dbms_engine::Result<(Vec<u8>, SimTime)> {
        self.note("read_page");
        self.inner.read_page(obj, page, at)
    }
    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<(Vec<Vec<u8>>, SimTime)> {
        self.note(format!("read_windowed {} {window}", reads.len()));
        self.inner.read_windowed(reads, at, window)
    }
    fn write_page(
        &self,
        obj: ObjectId,
        page: u64,
        data: &[u8],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        self.note("write_page");
        self.inner.write_page(obj, page, data, at)
    }
    fn write_batch(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        self.note(format!("write_batch {}", writes.len()));
        self.inner.write_batch(writes, at)
    }
    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<SimTime> {
        self.note(format!("write_windowed {} {window}", writes.len()));
        self.inner.write_windowed(writes, at, window)
    }
    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.note("metrics");
        self.inner.metrics()
    }
    fn free_page(&self, obj: ObjectId, page: u64) -> dbms_engine::Result<()> {
        self.note("free_page");
        self.inner.free_page(obj, page)
    }
    fn io_counts(&self) -> (u64, u64) {
        self.note("io_counts");
        self.inner.io_counts()
    }
}

#[test]
fn storage_decorator_forwards_every_method() {
    let log: Log = Arc::default();
    let device = Arc::new(DeviceBuilder::new(small_geometry()).build());
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    let inner: Arc<dyn StorageBackend> = Arc::new(
        NoFtlBackend::new(noftl, &PlacementConfig::traditional(8, ["T".to_string()])).unwrap(),
    );
    let logging: Arc<dyn StorageBackend> =
        Arc::new(LoggingStorage { inner, log: Arc::clone(&log) });
    let traced = TracedStorage::new(logging);
    let t = SimTime::ZERO;
    let page = vec![3u8; 4096];
    traced.page_size();
    let obj = traced.create_object("T").unwrap();
    traced.lookup_object("T");
    traced.write_page(obj, 0, &page, t).unwrap();
    traced.write_batch(&[(obj, 1, page.clone()), (obj, 2, page.clone())], t).unwrap();
    traced.write_windowed(&[(obj, 3, page.clone())], t, 7).unwrap();
    traced.read_page(obj, 0, t).unwrap();
    let (pages, _) = traced.read_windowed(&[(obj, 1), (obj, 3)], t, 5).unwrap();
    assert_eq!(pages, vec![page.clone(), page.clone()]);
    traced.object_extent(obj).unwrap();
    traced.checkpoint(t).unwrap();
    assert!(traced.metrics().is_some());
    traced.free_page(obj, 2).unwrap();
    assert_eq!(traced.io_counts(), (3, 4));
    let expected = [
        "page_size",
        "create_object",
        "lookup_object",
        "write_page",
        "write_batch 2",
        "write_windowed 1 7",
        "read_page",
        "read_windowed 2 5",
        "object_extent",
        "checkpoint",
        "metrics",
        "free_page",
        "io_counts",
    ];
    assert_eq!(*log.lock().unwrap(), expected);
}
