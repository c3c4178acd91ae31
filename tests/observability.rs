//! Acceptance tests for the cross-layer observability layer.
//!
//! * The Chrome trace emitted after a mixed workload must be valid
//!   `trace_event` JSON (the `observe` example's output is loadable).
//! * Tracing must be a pure observer: a crash-harness cycle run with the
//!   tracer on reports byte-identical recovery to the same cycle with it
//!   off.
//! * `Database::metrics_snapshot` exposes one registry spanning every
//!   layer of the stack.

use std::sync::Arc;

use noftl_regions::dbms::{
    ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema, TableWorkload, Value,
};
use noftl_regions::flash::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::fault::{nand, run_cycle, Cut, FaultConfig};
use noftl_regions::noftl::kv::{KvConfig, KvStore};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_regions::obs::validate_chrome_trace;
use noftl_regions::{dump, obs};

fn stack() -> (Arc<NoFtl>, u32) {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    device.metrics().tracer().set_enabled(true);
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    // `small_test` has 4 dies; take 2 so the KV test can claim the rest.
    let rid = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    (noftl, obj)
}

#[test]
fn chrome_trace_from_a_mixed_workload_is_valid() {
    let (noftl, obj) = stack();
    let batch: Vec<(u32, u64, Vec<u8>)> =
        (0..32u64).map(|p| (obj, p, vec![p as u8; 4096])).collect();
    let mut now = noftl.write_windowed(&batch, SimTime::ZERO, 8).unwrap();
    for p in 0..32u64 {
        let handle = noftl.submit_read(obj, p, now).unwrap();
        let (_, done) = noftl.wait_io(handle).unwrap();
        now = now.max(done);
    }
    let trace = dump::chrome_trace(noftl.metrics());
    let events = validate_chrome_trace(&trace).expect("trace parses as trace_event JSON");
    assert!(events > 0, "the workload must have produced spans");
    // Queue spans and flush-window spans both appear.
    assert!(trace.contains("\"cat\": \"flash.queue\""));
    assert!(trace.contains("\"name\": \"write_window\""));
}

#[test]
fn kv_spans_and_histograms_reach_the_registry() {
    let (noftl, _obj) = stack();
    let kv_rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(2)).unwrap();
    let config = KvConfig { memtable_bytes: 8 * 1024, ..KvConfig::default() };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), kv_rid, "obs", config, SimTime::ZERO).unwrap();
    for i in 0..200u64 {
        let key = format!("k{i:05}").into_bytes();
        t = store.put(&key, &[b'v'; 64], t).unwrap();
    }
    let _ = store.flush(t).unwrap();
    let snap = noftl.metrics_snapshot();
    let puts = snap.histogram("kv.put.latency_ns").expect("put histogram registered");
    assert_eq!(puts.count, 200);
    assert!(snap.counter("kv.flushes").unwrap_or(0) >= 1);
    let flush = snap.histogram("kv.flush.latency_ns").unwrap();
    assert!(flush.count >= 1 && flush.percentile(0.5) > 0);
    let trace = dump::chrome_trace(noftl.metrics());
    assert!(trace.contains("memtable_flush"));
}

#[test]
fn tracing_never_perturbs_crash_recovery() {
    let workload = TableWorkload { txns: 60, ..TableWorkload::default() };
    let cycle = |trace| {
        let cfg = FaultConfig { trace, ..FaultConfig::default() };
        run_cycle(&workload, &cfg, Cut::Fraction(0.5), nand)
    };
    let quiet = cycle(false).expect("untraced cycle recovers");
    let traced = cycle(true).expect("traced cycle recovers");
    assert_eq!(quiet.mount, traced.mount, "mount reports must be identical tracer on/off");
    assert_eq!(quiet.cut_at, traced.cut_at);
    assert_eq!(quiet.run.committed_txns, traced.run.committed_txns);
    assert_eq!(quiet.verified_keys, traced.verified_keys);
    assert_eq!(quiet.in_flight_survived, traced.in_flight_survived);
}

#[test]
fn database_metrics_snapshot_spans_every_layer() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(4, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let db = Database::open(backend, DatabaseConfig::default()).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
        SimTime::ZERO,
    )
    .unwrap();
    let mut now = db.checkpoint(SimTime::ZERO).unwrap();
    for i in 0..20i64 {
        let mut txn = db.begin(now);
        db.insert(&mut txn, "t", &vec![Value::Int(i), Value::Int(i * 3)], &[]).unwrap();
        db.commit(&mut txn).unwrap();
        now = txn.now;
    }
    db.flush_all(now).unwrap();

    let snap = db.metrics_snapshot().expect("the NoFTL backend exposes a registry");
    // Flash layer: programs happened on some die.
    assert!(snap.counters.iter().any(|(name, v)| name.contains("programs") && *v > 0));
    // Queue layer: submissions flowed through.
    assert!(snap.counter("flash.queue.submitted").unwrap_or(0) > 0);
    // WAL layer: every commit forced the log.
    let forces = snap.histogram("dbms.wal.force_ns").expect("wal histogram");
    assert!(forces.count >= 20, "one force per commit, got {}", forces.count);
    // Buffer pool: the explicit flush recorded.
    assert!(snap.histogram("dbms.buffer.flush_ns").map_or(0, |h| h.count) >= 1);
    // The Prometheus rendering covers the same registry.
    let prom = snap.to_prometheus();
    assert!(prom.contains("dbms_wal_force_ns_count"));

    // A disabled registry stops recording but keeps handles valid.
    let registry: &Arc<obs::MetricsRegistry> = noftl.metrics();
    registry.set_enabled(false);
    let before = registry.snapshot().counter("flash.queue.submitted").unwrap_or(0);
    let mut txn = db.begin(now);
    db.insert(&mut txn, "t", &vec![Value::Int(999), Value::Int(0)], &[]).unwrap();
    db.commit(&mut txn).unwrap();
    let after = registry.snapshot().counter("flash.queue.submitted").unwrap_or(0);
    assert_eq!(before, after, "a disabled registry must not record");
}
