//! The KV put/delete workload of the fault harness ([`crate::fault`]): a
//! deterministic mix whose auto flushes cascade into compactions.  An
//! operation is acknowledged once a flush covering it returns; the one the
//! cut interrupts may survive in full.  Compaction merges are recorded as
//! windows a [`crate::fault::Cut::InWindow`] can aim at, and the reopened
//! store's full scan must equal its point lookups.

use std::sync::Arc;

use flash_sim::SimTime;

use crate::error::NoFtlError;
use crate::fault::{Run, SplitMix64, Workload, World};
use crate::manager::NoFtl;
use crate::region::RegionSpec;
use crate::Result;

use super::store::{KvConfig, KvOpenReport, KvStore};

/// The put/delete workload over one store.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    /// Store configuration.  The default shrinks the memtable threshold
    /// so flushes and compactions fire every few dozen operations.
    pub kv: KvConfig,
    /// Dies of the store's region.
    pub region_dies: u32,
    /// Operations to attempt (~80 % puts, ~20 % deletes).
    pub ops: u64,
    /// Distinct keys in the working set.
    pub keys: u64,
}

impl Default for KvWorkload {
    fn default() -> Self {
        KvWorkload {
            kv: KvConfig { memtable_bytes: 2048, compaction_threshold: 3, ..KvConfig::default() },
            region_dies: 2,
            ops: 400,
            keys: 48,
        }
    }
}

/// Counters of one KV run.
#[derive(Debug, Clone)]
pub struct KvRunReport {
    /// Flushes acknowledged before the run stopped.
    pub flushes_acknowledged: u64,
    /// Whether the run stopped inside a compaction merge.
    pub cut_during_compaction: bool,
}

fn key_bytes(key: u64) -> Vec<u8> {
    format!("user{key:06}").into_bytes()
}

fn value_bytes(key: u64, op: u64) -> Vec<u8> {
    format!("v-{key:06}-{op:08}-pad-pad-pad").into_bytes()
}

const STORE: &str = "kvcrash";

impl Workload for KvWorkload {
    type Stack = KvStore;
    type Value = Vec<u8>;
    type RunReport = KvRunReport;
    type ReopenReport = KvOpenReport;
    type Error = NoFtlError;

    fn setup(&self, noftl: Arc<NoFtl>) -> Result<(KvStore, SimTime)> {
        let rid =
            noftl.create_region(RegionSpec::named("rgKv").with_die_count(self.region_dies))?;
        KvStore::create(noftl, rid, STORE, self.kv, SimTime::ZERO)
    }

    fn run(&self, store: &KvStore, rng: &mut SplitMix64, start: SimTime) -> Run<Self> {
        let mut pending: World<Vec<u8>> = World::new();
        let mut acked = World::new();
        let mut in_flight = None;
        let mut stopped = None;
        let mut flushes_seen = 0u64;
        let mut now = start;
        for op in 0..self.ops {
            let k = rng.below(self.keys);
            let result = if rng.below(10) < 2 {
                pending.remove(&k);
                store.delete(&key_bytes(k), now)
            } else {
                let v = value_bytes(k, op);
                pending.insert(k, v.clone());
                store.put(&key_bytes(k), &v, now)
            };
            match result {
                Ok(t) => {
                    now = t;
                    let flushes = store.stats().flushes;
                    if flushes > flushes_seen {
                        // The operation triggered a flush and it was
                        // acknowledged: everything so far is durable.
                        flushes_seen = flushes;
                        acked = pending.clone();
                    }
                }
                Err(e) => {
                    // The operation entered the memtable before its flush
                    // attempt, so if that flush's checkpoint landed the
                    // recovered world includes it too.
                    in_flight = Some(pending);
                    stopped = Some(e);
                    break;
                }
            }
        }
        let stats = store.stats();
        Run {
            acked,
            in_flight,
            stopped,
            end: now,
            windows: stats.compaction_windows,
            report: KvRunReport {
                flushes_acknowledged: flushes_seen,
                cut_during_compaction: stats.compactions_started > stats.compactions,
            },
        }
    }

    fn recover(
        &self,
        _crashed: &KvStore,
        noftl: Arc<NoFtl>,
        at: SimTime,
    ) -> Result<(World<Vec<u8>>, KvOpenReport)> {
        let (store, open) = KvStore::open(noftl, STORE, self.kv, at)?;
        let mut now = open.completed_at;
        let mut actual = World::new();
        for k in 0..self.keys {
            let (got, t) = store.get(&key_bytes(k), now)?;
            now = t;
            if let Some(v) = got {
                actual.insert(k, v);
            }
        }
        // A full scan must agree with the point-lookup view exactly.
        let (scanned, _) = store.scan(None, None, now)?;
        let looked_up: Vec<_> = actual.iter().map(|(&k, v)| (key_bytes(k), v.clone())).collect();
        if scanned != looked_up {
            return Err(NoFtlError::Kv {
                message: format!(
                    "scan sees {} keys but point lookups see {}",
                    scanned.len(),
                    looked_up.len()
                ),
            });
        }
        Ok((actual, open))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{nand, run_cycle, Cut, FaultConfig};

    #[test]
    fn a_cut_aimed_into_a_window_needs_one() {
        // Too few operations to fill the memtable: nothing ever compacts.
        let w = KvWorkload { ops: 3, ..KvWorkload::default() };
        let err = run_cycle(&w, &FaultConfig::default(), Cut::InWindow(0.5), nand).unwrap_err();
        assert!(err.to_string().contains("no window"), "{err}");
    }
}
