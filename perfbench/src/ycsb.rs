//! The two YCSB workloads: YCSB-A on NoFTL-KV and YCSB-B on the dbms
//! B+-tree, each driven by one closed-loop client (every op issues at the
//! previous op's completion).
//!
//! The op stream (kinds and keys) is `noftl_workload::YcsbSpec`'s.  The
//! values differ from the workload lab's in content but not in length:
//! each write stores the key id and a fresh version number, so a shadow
//! map of the last version written per key can check every read and a
//! final full scan.  The B+-tree ops are `BtreeBackend`'s (one
//! auto-commit transaction per op on `usertable(k, v)` with index `k`),
//! written out here so the storage seam can be wrapped for tracing.

use std::sync::Arc;
use std::time::Instant;

use dbms_engine::{ColumnType, Database, Schema, Value};
use flash_sim::{FlashGeometry, SimTime};
use noftl_core::{KvConfig, KvStats, KvStore, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_workload::{OpKind, YcsbSpec};

use crate::trace::{self, Layer};
use crate::{DbCounters, Iteration, Measured, Stack};

/// Table and index names of the B+-tree workload (as `BtreeBackend`).
pub const TABLE: &str = "usertable";
/// Key index of [`TABLE`].
pub const INDEX: &str = "k";

/// Which engine a YCSB workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// NoFTL-KV in a 4-die region (`rgKv`).
    Kv,
    /// dbms heap + B+-tree in one 4-die region, auto-commit per op.
    Btree {
        /// Buffer pool pages.
        buffer_pages: usize,
    },
}

/// Shape of one YCSB workload.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Op mix, key distribution, sizes and seed.
    pub spec: YcsbSpec,
    /// Engine under test.
    pub engine: Engine,
    /// Flash geometry.
    pub geometry: FlashGeometry,
}

/// `FlashGeometry::example()` (8 dies, 2 planes) with `blocks` blocks per plane.
fn geometry(blocks_per_plane: u32) -> FlashGeometry {
    FlashGeometry { blocks_per_plane, ..FlashGeometry::example() }
}

impl YcsbConfig {
    /// `ycsb_a_kv`: 100k records × 100 B (≈12 MB, far above the 64 KiB
    /// memtable) in a 4-die region of a 32-blocks-per-plane device,
    /// 100k ops of YCSB-A (short enough that a run repeats each op about
    /// eight times, which the per-op host minimum needs).
    pub fn a_kv(seed: u64) -> Self {
        YcsbConfig {
            spec: YcsbSpec::core('A', 100_000, 100_000, seed).expect("A is a core workload"),
            engine: Engine::Kv,
            geometry: geometry(32),
        }
    }

    /// `ycsb_b_btree`: 20k records in a 4,096-page buffer pool (the data
    /// fits), 200k auto-commit ops of YCSB-B.
    pub fn b_btree(seed: u64) -> Self {
        YcsbConfig {
            spec: YcsbSpec::core('B', 20_000, 200_000, seed).expect("B is a core workload"),
            engine: Engine::Btree { buffer_pages: 4_096 },
            geometry: geometry(128),
        }
    }
}

/// Value of `key` at `version`: the key id and version in hex, repeated
/// to `len` bytes (printable, so it fits the B+-tree's string column).
pub fn value(key: u64, version: u64, len: usize) -> Vec<u8> {
    let tag = format!("{key:016x}{version:016x}");
    tag.bytes().cycle().take(len).collect()
}

/// Live `(key, value)` pairs in key order.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// The engine-specific half of a workload.
// One value per iteration: its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Store {
    Kv(KvStore),
    Btree { db: Database, value_len: usize },
}

impl Store {
    fn open(config: &YcsbConfig, stack: &Stack) -> Result<Self, String> {
        match config.engine {
            Engine::Kv => {
                let rid = stack
                    .noftl
                    .create_region(RegionSpec::named("rgKv").with_die_count(4))
                    .map_err(|e| e.to_string())?;
                let (store, _) = KvStore::create(
                    Arc::clone(&stack.noftl),
                    rid,
                    "ycsb",
                    KvConfig::default(),
                    SimTime::ZERO,
                )
                .map_err(|e| e.to_string())?;
                Ok(Store::Kv(store))
            }
            Engine::Btree { buffer_pages } => {
                let placement = PlacementConfig::traditional(4, [TABLE.to_string()]);
                let db = stack.database(&placement, buffer_pages).map_err(|e| e.to_string())?;
                let value_len = config.spec.value_len;
                let width = u16::try_from(value_len).map_err(|e| e.to_string())?;
                db.create_table(
                    TABLE,
                    Schema::new(vec![("k", ColumnType::Str(24)), ("v", ColumnType::Str(width))]),
                    SimTime::ZERO,
                )
                .map_err(|e| e.to_string())?;
                db.create_index(TABLE, INDEX, SimTime::ZERO).map_err(|e| e.to_string())?;
                Ok(Store::Btree { db, value_len })
            }
        }
    }

    /// Insert or overwrite `key`; returns the completion.
    fn write(
        &self,
        key: &[u8],
        value: &[u8],
        insert: bool,
        at: SimTime,
    ) -> Result<SimTime, String> {
        match self {
            Store::Kv(kv) => {
                let span = trace::enter(Layer::Kv, "put", at);
                let out = kv.put(key, value, at);
                trace::exit(span, at, *out.as_ref().unwrap_or(&at));
                out.map_err(|e| e.to_string())
            }
            Store::Btree { db, value_len } => {
                let mut txn = db.begin(at);
                let result = btree_write(db, &mut txn, key, value, *value_len, insert);
                match result {
                    Ok(()) => Ok(txn.now),
                    Err(e) => {
                        db.rollback(&mut txn);
                        Err(e.to_string())
                    }
                }
            }
        }
    }

    /// Point read; returns the value found and the completion.
    fn read(&self, key: &[u8], at: SimTime) -> Result<(Option<Vec<u8>>, SimTime), String> {
        match self {
            Store::Kv(kv) => {
                let span = trace::enter(Layer::Kv, "get", at);
                let out = kv.get(key, at);
                trace::exit(span, at, out.as_ref().map(|r| r.1).unwrap_or(at));
                out.map_err(|e| e.to_string())
            }
            Store::Btree { db, .. } => {
                let mut txn = db.begin(at);
                let result = (|| {
                    let found = db.index_get(&mut txn, TABLE, INDEX, key)?;
                    db.commit(&mut txn)?;
                    Ok::<_, dbms_engine::DbError>(found.map(|(_, rec)| value_bytes(&rec)))
                })();
                match result {
                    Ok(v) => Ok((v, txn.now)),
                    Err(e) => {
                        db.rollback(&mut txn);
                        Err(e.to_string())
                    }
                }
            }
        }
    }

    fn counters(&self) -> Counters {
        match self {
            Store::Kv(kv) => Counters::Kv(kv.stats()),
            Store::Btree { db, .. } => Counters::Db(DbCounters::of(db)),
        }
    }

    /// Make everything written so far durable.
    fn flush(&self, at: SimTime) -> Result<SimTime, String> {
        match self {
            Store::Kv(kv) => kv.flush(at).map_err(|e| e.to_string()),
            Store::Btree { db, .. } => db.flush_all(at).map_err(|e| e.to_string()),
        }
    }

    /// Every live `(key, value)` pair in key order.
    fn scan_all(&self, at: SimTime) -> Result<Rows, String> {
        match self {
            Store::Kv(kv) => {
                kv.scan(None, None, at).map(|(rows, _)| rows).map_err(|e| e.to_string())
            }
            Store::Btree { db, .. } => {
                let mut txn = db.begin(at);
                let result = (|| {
                    let pairs = db.index_scan_from(&mut txn, TABLE, INDEX, b"", usize::MAX)?;
                    let mut rows = Vec::with_capacity(pairs.len());
                    for (key, rid) in pairs {
                        rows.push((key, value_bytes(&db.get(&mut txn, TABLE, rid)?)));
                    }
                    Ok::<_, dbms_engine::DbError>(rows)
                })();
                db.rollback(&mut txn);
                result.map_err(|e| e.to_string())
            }
        }
    }
}

fn btree_write(
    db: &Database,
    txn: &mut dbms_engine::Txn,
    key: &[u8],
    value: &[u8],
    value_len: usize,
    insert: bool,
) -> dbms_engine::Result<()> {
    let k = String::from_utf8_lossy(key).into_owned();
    let mut v = String::from_utf8_lossy(value).into_owned();
    v.truncate(value_len);
    let record = vec![Value::Str(k), Value::Str(v)];
    let existing = if insert { None } else { db.index_lookup(txn, TABLE, INDEX, key)? };
    match existing {
        Some(rid) => db.update(txn, TABLE, rid, &record)?,
        None => {
            db.insert(txn, TABLE, &record, &[(INDEX, key.to_vec())])?;
        }
    }
    db.commit(txn)?;
    Ok(())
}

fn value_bytes(record: &dbms_engine::Record) -> Vec<u8> {
    record.get(1).and_then(Value::as_str).unwrap_or_default().as_bytes().to_vec()
}

/// Build the store and load `spec.record_count` records at version 0;
/// returns the store and the simulated instant the load became durable.
fn load(config: &YcsbConfig, stack: &Stack) -> Result<(Store, SimTime), String> {
    let spec = &config.spec;
    let store = Store::open(config, stack)?;
    let mut t = SimTime::ZERO;
    for id in 0..spec.record_count {
        t = store.write(&spec.key(id), &value(id, 0, spec.value_len), true, t)?;
    }
    let start = store.flush(t)?;
    Ok((store, start))
}

/// Engine counters read before and after the measured phase.
enum Counters {
    Db(DbCounters),
    Kv(KvStats),
}

/// One iteration: build, load, run the op stream, collect metrics, check
/// every read and a final full scan against the shadow map.
pub fn iterate(config: &YcsbConfig, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let spec = &config.spec;
    let t0 = Instant::now();
    let stack = Stack::new(config.geometry, NoFtlConfig::default(), traced);
    let (store, start) = match load(config, &stack) {
        Ok(loaded) => loaded,
        Err(e) => {
            it.attempted = 1;
            it.fail(format!("set-up: {e}"));
            return it;
        }
    };
    it.setup_s = t0.elapsed().as_secs_f64();
    let mut versions = vec![0u64; spec.record_count as usize];

    let counters_before = store.counters();
    let before = stack.snapshot();
    let ops: Vec<_> = spec.stream().collect();
    let mut sim_lat_ns = Vec::with_capacity(ops.len());
    it.host_lat_ns.reserve(ops.len());
    let mut stale_reads = 0u64;
    let mut first_stale = None;
    let mut now = start;
    if traced {
        trace::start();
    }
    let loop_start = Instant::now();
    for (n, op) in ops.iter().enumerate() {
        let key = spec.key(op.key);
        let h0 = Instant::now();
        let span = trace::enter(Layer::Op, op_name(op.kind), now);
        let result = match op.kind {
            OpKind::Read => store.read(&key, now).map(|(found, done)| {
                let expected = value(op.key, versions[op.key as usize], spec.value_len);
                if found.as_deref() != Some(expected.as_slice()) {
                    stale_reads += 1;
                    first_stale.get_or_insert(op.key);
                }
                done
            }),
            OpKind::Update => {
                let version = n as u64 + 1;
                let done = store.write(&key, &value(op.key, version, spec.value_len), false, now);
                if done.is_ok() {
                    versions[op.key as usize] = version;
                }
                done
            }
            other => Err(format!("op kind {other:?} is not part of YCSB-A/B")),
        };
        trace::exit(span, now, *result.as_ref().unwrap_or(&now));
        let host_ns = h0.elapsed().as_nanos() as u64;
        it.attempted += 1;
        match result {
            Ok(done) => {
                it.ops += 1;
                sim_lat_ns.push(done.as_nanos() - now.as_nanos());
                it.host_lat_ns.push(host_ns);
                now = now.max(done);
            }
            Err(e) => it.fail(e),
        }
    }
    it.host_s = loop_start.elapsed().as_secs_f64();
    if traced {
        it.spans = Some(trace::finish());
    }
    let after = stack.snapshot();
    let live = versions.len() as u64 * (spec.key(0).len() + spec.value_len) as u64;
    let (sim, mut layer, info) = Measured {
        stack: &stack,
        before: &before,
        after: &after,
        ops: it.ops,
        makespan: now.since(start),
        sim_lat_ns,
        live_user_bytes: live,
    }
    .metrics();
    it.sim = sim;
    match (counters_before, store.counters()) {
        (Counters::Db(b), Counters::Db(a)) => b.push_deltas(&a, it.ops, &mut layer),
        (Counters::Kv(b), Counters::Kv(a)) => {
            let delta = |f: fn(&KvStats) -> u64| (f(&a) - f(&b)) as f64;
            let gets = delta(|s| s.gets);
            let flushed = delta(|s| s.flushed_pages);
            layer.push(
                "kv.memtable_hit_ratio",
                delta(|s| s.memtable_hits) / gets.max(1.0),
                "ratio",
            );
            layer.push("kv.flushes", delta(|s| s.flushes), "count");
            layer.push("kv.compactions", delta(|s| s.compactions), "count");
            layer.push(
                "kv.compacted_pages_per_flushed_page",
                delta(|s| s.compacted_pages) / flushed.max(1.0),
                "ratio",
            );
        }
        _ => unreachable!("a store keeps its engine"),
    }
    it.layer_stats = layer;
    it.info = info;

    if stale_reads > 0 {
        it.check_failures.push(format!(
            "{stale_reads} reads returned a value other than the last one written (first: key {})",
            first_stale.unwrap_or_default()
        ));
    }
    match store.scan_all(now) {
        Ok(rows) => {
            let expected: Rows = versions
                .iter()
                .enumerate()
                .map(|(id, v)| (spec.key(id as u64), value(id as u64, *v, spec.value_len)))
                .collect();
            if rows != expected {
                let mismatches = rows.iter().zip(&expected).filter(|(a, b)| a != b).count();
                it.check_failures.push(format!(
                    "final scan: {} rows vs {} expected, {mismatches} differing",
                    rows.len(),
                    expected.len()
                ));
            }
        }
        Err(e) => it.check_failures.push(format!("final scan failed: {e}")),
    }
    it
}

fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Update => "update",
        OpKind::Insert => "insert",
        OpKind::Scan => "scan",
        OpKind::ReadModifyWrite => "rmw",
        OpKind::Delete => "delete",
    }
}
