//! NoFTL-KV acceptance tests: queued multi-die batches and crash
//! consistency.
//!
//! The property test sweeps ≥ 25 random power-cut instants (every fifth
//! cut aimed *inside a compaction merge*) across a put/delete workload
//! whose memtable flushes and size-tiered compactions fire continuously.
//! After every cut the device is rebooted from its snapshot, the storage
//! manager remounted (`NoFtl::mount`) and the store reopened
//! (`KvStore::open`); the harness then verifies that
//!
//! * every key covered by an acknowledged flush is present with its
//!   exact value (no lost committed keys);
//! * torn tail runs and merge results whose directory checkpoint never
//!   landed are discarded — never half-adopted;
//! * a cut inside a compaction merge loses nothing: the source runs
//!   survive until the merged run is durable *and* checkpointed;
//! * a full scan of the reopened store agrees with the point-lookup
//!   view.

mod common;

use std::sync::Arc;

use common::property_rounds;
use noftl_regions::flash::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::fault::{nand, run_cycle, Cut, FaultConfig, SplitMix64};
use noftl_regions::noftl::kv::{KvConfig, KvStore, KvWorkload};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementPolicyKind, RegionSpec};

/// The KV sweeps' default workload seed.
const SEED: u64 = 0x5EED_4B56;

fn faults() -> FaultConfig {
    FaultConfig { seed: SEED, ..FaultConfig::default() }
}

#[test]
fn random_power_cuts_recover_every_committed_key() {
    let rounds = property_rounds(30).max(25); // the acceptance floor
    let workload = KvWorkload::default();
    let mut rng = SplitMix64(0x4B56_C0DE);
    let mut flushes_total = 0u64;
    let mut committed_total = 0u64;
    let mut torn_total = 0u64;
    let mut compaction_cuts = 0u64;
    let mut in_flight_survivals = 0u64;
    for round in 0..rounds {
        let cfg = FaultConfig {
            // Vary the workload itself every few rounds so the cuts do
            // not all land in identical histories.
            seed: SEED ^ (round / 5),
            // Alternate the placement policy so both RoundRobin and
            // QueueAware are covered by the tier-1 sweep (odd rounds force
            // QueueAware; even rounds keep the default, which honours the
            // NOFTL_PLACEMENT env toggle).
            placement: if round % 2 == 1 {
                PlacementPolicyKind::QueueAware
            } else {
                FaultConfig::default().placement
            },
            ..faults()
        };
        let fraction = rng.fraction();
        // Every fifth round aims the cut inside a compaction merge so
        // the crash-during-compaction path is guaranteed coverage.
        let cut = if round % 5 == 4 { Cut::InWindow(fraction) } else { Cut::Fraction(fraction) };
        let outcome = run_cycle(&workload, &cfg, cut, nand)
            .unwrap_or_else(|e| panic!("round {round} ({cut:?}) failed: {e}"));
        flushes_total += outcome.run.flushes_acknowledged;
        committed_total += outcome.acked_keys;
        torn_total += outcome.reopen.torn_runs_discarded as u64;
        compaction_cuts += u64::from(outcome.run.cut_during_compaction);
        in_flight_survivals += u64::from(outcome.in_flight_survived);
        assert!(outcome.mount.checkpoint_seq > 0, "round {round}: setup checkpoint must exist");
        assert!(outcome.verified_keys <= workload.keys, "round {round}");
    }
    assert!(
        flushes_total > rounds,
        "cuts landed too early: only {flushes_total} flushes over {rounds} rounds"
    );
    assert!(committed_total > 0);
    assert!(
        compaction_cuts > 0,
        "no cut ever landed inside a compaction — the aimed rounds missed"
    );
    println!(
        "{rounds} cuts: {flushes_total} flushes acknowledged, {committed_total} committed keys \
         verified, {torn_total} torn runs discarded, {compaction_cuts} cuts during compaction, \
         {in_flight_survivals} in-flight flushes survived"
    );
}

#[test]
fn cut_during_compaction_merge_loses_nothing() {
    // Deterministic: aim straight into the first compaction window of
    // the default workload.  The harness fails the test internally if
    // any committed key is lost or a torn run half-survives.
    let outcome =
        run_cycle(&KvWorkload::default(), &faults(), Cut::InWindow(0.0), nand).expect("cycle runs");
    assert!(outcome.run.cut_during_compaction, "the cut must land inside the merge");
    assert!(outcome.run.flushes_acknowledged > 0);
    assert!(outcome.acked_keys > 0);
}

#[test]
fn cuts_during_the_recovery_mount_are_retried() {
    // Two more power cuts land while the mount scans the device; each
    // interrupted boot is power-cycled and retried, and the final mount
    // still recovers every acknowledged key.
    let cfg = FaultConfig { mount_cuts: 2, ..faults() };
    let mut interrupted = 0;
    for fraction in [0.2, 0.5, 0.8] {
        let outcome = run_cycle(&KvWorkload::default(), &cfg, Cut::Fraction(fraction), nand)
            .unwrap_or_else(|e| panic!("fraction {fraction}: {e}"));
        interrupted += outcome.interrupted_mounts;
    }
    assert!(interrupted > 0, "no mount was interrupted");
}

#[test]
fn image_file_reboots_recover_every_committed_key() {
    let cfg = FaultConfig { image_file: true, ..faults() };
    for cut in [Cut::Fraction(0.3), Cut::Fraction(0.7), Cut::InWindow(0.5)] {
        let outcome = run_cycle(&KvWorkload::default(), &cfg, cut, nand)
            .unwrap_or_else(|e| panic!("{cut:?}: {e}"));
        assert!(outcome.run.flushes_acknowledged > 0, "{cut:?}");
    }
}

#[test]
fn a_workload_that_runs_out_of_space_fails_the_cycle() {
    // One die cannot hold this working set: the dry run stops with the
    // region out of space long before its last operation.  That is a
    // truncated workload, not a cut, so every cycle must fail with it.
    let workload =
        KvWorkload { keys: 20_000, ops: 30_000, region_dies: 1, ..KvWorkload::default() };
    for fraction in [0.1, 0.5, 0.9] {
        match run_cycle(&workload, &faults(), Cut::Fraction(fraction), nand) {
            Ok(_) => panic!("fraction {fraction}: a truncated workload passed"),
            Err(e) => assert!(e.to_string().contains("out of space"), "fraction {fraction}: {e}"),
        }
    }
}

#[test]
fn flush_and_compaction_issue_queued_multi_die_batches() {
    // The acceptance assertion at the facade level: a memtable flush and
    // a compaction merge both go through the command-queue submission
    // API, fanning their pages over the region's dies.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
    let config = KvConfig { compaction_threshold: 2, ..KvConfig::default() };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), rid, "queued", config, SimTime::ZERO).unwrap();

    let fill = |store: &KvStore, mut t: SimTime, round: u64| {
        for i in 0..300u64 {
            let key = format!("user{i:06}").into_bytes();
            let val = format!("value-{i:06}-r{round}-padpadpadpad").into_bytes();
            t = store.put(&key, &val, t).unwrap();
        }
        t
    };

    t = fill(&store, t, 1);
    let before = noftl.io_queue_stats();
    t = store.flush(t).unwrap();
    let after_flush = noftl.io_queue_stats();
    let flushed = store.stats().flushed_pages;
    assert!(flushed >= 4, "300 entries must span several pages");
    assert_eq!(
        after_flush.submitted - before.submitted,
        flushed,
        "every flush page must go through the submission queue"
    );
    let dies_hit = after_flush
        .per_die_submitted
        .iter()
        .zip(before.per_die_submitted.iter())
        .filter(|(a, b)| *a > *b)
        .count();
    assert!(dies_hit >= 2, "flush must fan across dies (hit {dies_hit})");

    // A second flush triggers the threshold-2 compaction; its merged run
    // is also written as a queued batch.
    t = fill(&store, t, 2);
    t = store.flush(t).unwrap();
    let after_compaction = noftl.io_queue_stats();
    let stats = store.stats();
    assert!(stats.compactions > 0, "threshold 2 must compact on the second flush");
    assert!(stats.compacted_pages >= 4);
    assert!(
        after_compaction.submitted - after_flush.submitted
            >= stats.flushed_pages - flushed + stats.compacted_pages,
        "the merge pages must also be queued submissions"
    );

    // Round 2 values win after the merge.
    let (got, _) = store.get(b"user000123", t).unwrap();
    assert_eq!(got.as_deref(), Some(b"value-000123-r2-padpadpadpad".as_slice()));
}
