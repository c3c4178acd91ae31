//! The dbms indexed-table workload of the fault harness
//! (`noftl_core::fault`): inserts, updates, deletes and occasional
//! rollbacks over an indexed table, with checkpoints and WAL truncations
//! firing mid-run.  A transaction is acknowledged once its commit returns;
//! the commit the cut interrupts may survive in full.  Recovery reopens
//! the stack with [`Database::recover`] and also checks that the remounted
//! manager has the pre-crash regions and objects, that every indexed
//! record decodes to its own key, and that the heap count equals the
//! index view.

use std::collections::btree_map::Entry;
use std::sync::Arc;

use flash_sim::SimTime;
use noftl_core::fault::{Run, SplitMix64, Workload, World};
use noftl_core::{NoFtl, PlacementConfig, RegionAssignment};

use crate::db::{
    Database, DatabaseConfig, RecoveryReport, CATALOG_OBJECT, LOG_OBJECT, METADATA_OBJECT,
};
use crate::error::DbError;
use crate::schema::{ColumnType, Schema};
use crate::storage::NoFtlBackend;
use crate::value::Value;
use crate::Result;

/// Table driven by the workload.
const TABLE: &str = "acct";
/// Index on the table's key column.
const INDEX: &str = "acct_idx";

/// The indexed-table workload.
#[derive(Debug, Clone)]
pub struct TableWorkload {
    /// Buffer-pool pages.
    pub buffer_pages: usize,
    /// WAL segment budget in pages (small by default so checkpoints and
    /// truncations happen mid-workload).
    pub wal_segment_pages: u64,
    /// Transactions to attempt.
    pub txns: u64,
    /// Distinct keys in the working set.
    pub keys: u64,
}

impl Default for TableWorkload {
    fn default() -> Self {
        TableWorkload { buffer_pages: 64, wal_segment_pages: 8, txns: 120, keys: 32 }
    }
}

/// Counters of one table run.
#[derive(Debug, Clone)]
pub struct TableRunReport {
    /// Transactions whose commit was acknowledged.
    pub committed_txns: u64,
    /// WAL pages when the run stopped (the log the redo pass considers).
    pub wal_pages_at_crash: u64,
}

fn key_bytes(key: u64) -> Vec<u8> {
    (key as i64).to_be_bytes().to_vec()
}

fn row(key: u64, val: i64) -> Vec<Value> {
    vec![Value::Int(key as i64), Value::Int(val), Value::Str(format!("pad-{val:016x}"))]
}

fn placement() -> PlacementConfig {
    PlacementConfig {
        regions: vec![
            RegionAssignment {
                region_name: "rgData".into(),
                objects: vec![TABLE.into(), INDEX.into()],
                dies: 2,
                service_class: None,
            },
            RegionAssignment {
                region_name: "rgLog".into(),
                objects: vec![
                    LOG_OBJECT.to_string(),
                    METADATA_OBJECT.to_string(),
                    CATALOG_OBJECT.to_string(),
                ],
                dies: 1,
                service_class: None,
            },
        ],
    }
}

/// Sorted region and object names.
fn names(noftl: &NoFtl) -> [Vec<String>; 2] {
    let regions = noftl.region_ids().into_iter().filter_map(|rid| noftl.region_name(rid).ok());
    let objects = noftl.all_object_stats().into_iter().map(|s| s.name);
    [regions.collect(), objects.collect()].map(|mut v: Vec<String>| {
        v.sort();
        v
    })
}

impl TableWorkload {
    fn db_config(&self) -> DatabaseConfig {
        DatabaseConfig {
            buffer_pages: self.buffer_pages,
            wal_enabled: true,
            redo_logging: true,
            wal_segment_pages: self.wal_segment_pages,
            ..DatabaseConfig::default()
        }
    }

    /// One read-write operation on `key` inside `txn`, applied to
    /// `pending` once the engine accepts it.
    fn apply(
        &self,
        db: &Database,
        txn: &mut crate::Txn,
        rng: &mut SplitMix64,
        pending: &mut World<i64>,
    ) -> Result<()> {
        let key = rng.below(self.keys);
        let val = rng.next_u64() as i64;
        match pending.entry(key) {
            Entry::Vacant(slot) => {
                db.insert(txn, TABLE, &row(key, val), &[(INDEX, key_bytes(key))])?;
                slot.insert(val);
            }
            Entry::Occupied(mut slot) => {
                let update = rng.below(10) < 7;
                let rid =
                    db.index_lookup(txn, TABLE, INDEX, &key_bytes(key))?.ok_or_else(|| {
                        DbError::Corrupted {
                            message: format!("key {key} committed but missing from index"),
                        }
                    })?;
                if update {
                    db.update(txn, TABLE, rid, &row(key, val))?;
                    slot.insert(val);
                } else {
                    db.delete(txn, TABLE, rid, &[(INDEX, key_bytes(key))])?;
                    slot.remove();
                }
            }
        }
        Ok(())
    }
}

impl Workload for TableWorkload {
    type Stack = (Arc<NoFtl>, Database);
    type Value = i64;
    type RunReport = TableRunReport;
    type ReopenReport = RecoveryReport;
    type Error = DbError;

    fn setup(&self, noftl: Arc<NoFtl>) -> Result<((Arc<NoFtl>, Database), SimTime)> {
        let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement())?);
        let db = Database::open(backend, self.db_config())?;
        let t0 = SimTime::ZERO;
        db.create_table(
            TABLE,
            Schema::new(vec![
                ("k", ColumnType::Int),
                ("v", ColumnType::Int),
                ("pad", ColumnType::Str(32)),
            ]),
            t0,
        )?;
        db.create_index(TABLE, INDEX, t0)?;
        let setup_end = db.checkpoint(t0)?;
        Ok(((noftl, db), setup_end))
    }

    fn run(
        &self,
        (_, db): &(Arc<NoFtl>, Database),
        rng: &mut SplitMix64,
        start: SimTime,
    ) -> Run<Self> {
        let mut acked = World::new();
        let mut in_flight = None;
        let mut stopped = None;
        let mut committed_txns = 0u64;
        let mut now = start;
        for _ in 0..self.txns {
            let mut txn = db.begin(now);
            let ops = 1 + rng.below(3);
            // ~5 % of transactions abort.  Like TPC-C's NewOrder "unused
            // item" case the decision pre-validates: an aborting
            // transaction only reads (the engine's rollback contract — no
            // undo pass).
            let result = if rng.below(100) < 5 {
                (0..ops)
                    .try_for_each(|_| {
                        let key = rng.below(self.keys);
                        let _ = rng.next_u64();
                        db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)).map(drop)
                    })
                    .map(|()| {
                        db.rollback(&mut txn);
                    })
            } else {
                let mut pending = acked.clone();
                (0..ops).try_for_each(|_| self.apply(db, &mut txn, rng, &mut pending)).and_then(
                    |()| match db.commit(&mut txn) {
                        Ok(_) => {
                            acked = pending;
                            committed_txns += 1;
                            Ok(())
                        }
                        Err(e) => {
                            // The commit may have become durable.
                            in_flight = Some(pending);
                            Err(e)
                        }
                    },
                )
            };
            if let Err(e) = result {
                stopped = Some(e);
                break;
            }
            now = txn.now;
        }
        Run {
            acked,
            in_flight,
            stopped,
            end: now,
            windows: Vec::new(),
            report: TableRunReport { committed_txns, wal_pages_at_crash: db.wal_stats().pages },
        }
    }

    fn recover(
        &self,
        (crashed, _): &(Arc<NoFtl>, Database),
        noftl: Arc<NoFtl>,
        at: SimTime,
    ) -> Result<(World<i64>, RecoveryReport)> {
        let backend = Arc::new(NoFtlBackend::attach(Arc::clone(&noftl), &placement())?);
        let (db, recovery) = Database::recover(backend, self.db_config(), at)?;
        let (before, after) = (names(crashed), names(&noftl));
        if before != after {
            return Err(DbError::Corrupted {
                message: format!("regions/objects diverged after mount: {after:?} != {before:?}"),
            });
        }
        // Read back every key in the universe through the index.
        let mut txn = db.begin(at);
        let mut actual = World::new();
        for key in 0..self.keys {
            if let Some((_, record)) = db.index_get(&mut txn, TABLE, INDEX, &key_bytes(key))? {
                match (&record[0], &record[1]) {
                    (Value::Int(k), Value::Int(v)) if *k == key as i64 => {
                        actual.insert(key, *v);
                    }
                    _ => {
                        return Err(DbError::Corrupted {
                            message: format!("key {key} decoded to wrong record {record:?}"),
                        })
                    }
                }
            }
        }
        // The heap's live-record count must agree with the index view.
        let heap_records = db.table(TABLE)?.heap.record_count();
        if heap_records != actual.len() as u64 {
            return Err(DbError::Corrupted {
                message: format!(
                    "heap holds {heap_records} records but the index sees {}",
                    actual.len()
                ),
            });
        }
        Ok((actual, recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noftl_core::fault::{nand, run_cycle, Cut, FaultConfig};

    #[test]
    fn dry_run_without_cut_is_clean() {
        let w = TableWorkload { txns: 30, ..TableWorkload::default() };
        let cfg = FaultConfig::default();
        let noftl = Arc::new(NoFtl::new(nand(&cfg), Default::default()));
        let (stack, setup_end) = w.setup(noftl).unwrap();
        let run = w.run(&stack, &mut SplitMix64(cfg.seed), setup_end);
        assert!(run.stopped.is_none());
        assert!(run.report.committed_txns > 20, "committed {}", run.report.committed_txns);
        assert!(!run.acked.is_empty());
        assert!(stack.1.wal_stats().truncations > 0, "segment guard must fire");
    }

    #[test]
    fn cut_during_recovery_mount_retries_and_recovers() {
        let w = TableWorkload { txns: 50, ..TableWorkload::default() };
        let cfg = FaultConfig { mount_cuts: 2, ..FaultConfig::default() };
        let outcome = run_cycle(&w, &cfg, Cut::Fraction(0.6), nand).unwrap();
        // At least one of the two armed cuts must actually have landed
        // inside the mount scan; recovery after the retries still passes
        // every check (run_cycle errors otherwise).
        assert!(outcome.interrupted_mounts > 0, "no mount was interrupted");
        assert!(outcome.run.committed_txns > 0);
    }
}
