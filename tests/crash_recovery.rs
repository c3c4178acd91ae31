//! Crash-consistency acceptance tests.
//!
//! The property test sweeps 50 random power-cut instants across a mixed
//! TPC-C-ish workload (inserts, updates, deletes, rollbacks over an
//! indexed table with checkpoints and WAL truncations firing mid-run).
//! After every cut the device is rebooted from its snapshot, the storage
//! manager remounted (`NoFtl::mount`) and the database recovered
//! (`Database::recover`); the harness then verifies that
//!
//! * reads return only fully-committed data — no torn pages, no half
//!   transactions — with the single in-flight commit allowed to be either
//!   fully present or fully absent;
//! * no committed write is lost;
//! * the remounted manager exposes region/object state identical to the
//!   pre-crash instance (checkpoint + WAL tail).

mod common;

use common::property_rounds;
use noftl_regions::dbms::TableWorkload;
use noftl_regions::flash::{
    DeviceBuilder, DeviceSnapshot, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_regions::noftl::fault::{nand, run_cycle, Cut, FaultConfig, SplitMix64};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementPolicyKind};
use std::sync::Arc;

#[test]
fn fifty_random_power_cuts_recover_committed_data_only() {
    let rounds = property_rounds(50);
    let workload = TableWorkload { txns: 80, ..TableWorkload::default() };
    let mut rng = SplitMix64(0xDEAD_BEEF);
    let mut committed_total = 0u64;
    let mut in_flight_survivals = 0u64;
    let mut torn_discards = 0u64;
    for round in 0..rounds {
        let cfg = FaultConfig {
            // Vary the workload itself every few rounds so the cuts do not
            // all land in identical histories.
            seed: 0xC0FFEE ^ (round / 5),
            // Alternate the placement policy so both RoundRobin and
            // QueueAware are covered by the tier-1 sweep (odd rounds force
            // QueueAware; even rounds keep the default, which honours the
            // NOFTL_PLACEMENT env toggle).
            placement: if round % 2 == 1 {
                PlacementPolicyKind::QueueAware
            } else {
                FaultConfig::default().placement
            },
            ..FaultConfig::default()
        };
        let fraction = rng.fraction();
        let outcome = run_cycle(&workload, &cfg, Cut::Fraction(fraction), nand)
            .unwrap_or_else(|e| panic!("round {round} (fraction {fraction:.3}) failed: {e}"));
        committed_total += outcome.run.committed_txns;
        in_flight_survivals += u64::from(outcome.in_flight_survived);
        torn_discards += outcome.mount.torn_pages_discarded;
        // The mount always replays a checkpoint (setup takes one) and the
        // recovered table view is bounded by the key universe.
        assert!(outcome.mount.checkpoint_seq > 0, "round {round}");
        assert!(outcome.verified_keys <= 32, "round {round}");
    }
    // Across the cuts the workload must have made real progress…
    assert!(
        committed_total > rounds * 10,
        "committed only {committed_total} txns over {rounds} rounds"
    );
    // …and at least some cuts should land mid-operation, producing torn
    // pages that recovery had to discard.
    assert!(torn_discards > 0, "no cut ever tore a page — cuts are not exercising the device");
    println!(
        "{rounds} cuts: {committed_total} committed txns, {torn_discards} torn pages discarded, \
         {in_flight_survivals} in-flight commits survived"
    );
}

#[test]
fn device_image_file_roundtrip_reboots_the_full_stack() {
    // One cycle with the snapshot persisted to a file-backed image (the
    // "pull the SSD, image it, boot the image" path).
    let workload = TableWorkload { txns: 60, ..TableWorkload::default() };
    let cfg = FaultConfig { image_file: true, ..FaultConfig::default() };
    let outcome =
        run_cycle(&workload, &cfg, Cut::Fraction(0.42), nand).expect("file-backed reboot cycle");
    assert!(outcome.run.committed_txns > 0);
    assert_eq!(outcome.reopen.tables_recovered, 1);
    assert_eq!(outcome.reopen.indexes_recovered, 1);
}

#[test]
fn snapshot_restore_preserves_wear_and_bad_blocks() {
    // DeviceSnapshot round-trip through encode/decode at the facade level.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
    let rid = noftl
        .create_region(noftl_regions::noftl::RegionSpec::named("rg").with_die_count(2))
        .unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..32u64 {
        t = noftl.write(obj, p % 8, &vec![p as u8; 4096], t).unwrap();
    }
    noftl.checkpoint(t).unwrap();
    let snap = device.snapshot();
    let decoded = DeviceSnapshot::decode(&snap.encode()).unwrap();
    assert_eq!(decoded.blocks, snap.blocks);
    assert_eq!(decoded.wear.total_erases, snap.wear.total_erases);
    let device2 = Arc::new(NandDevice::from_snapshot(&decoded, TimingModel::mlc_2015()).unwrap());
    let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
    assert_eq!(report.checkpoint_seq, 1);
    for p in 0..8u64 {
        let expected = 24 + p; // last round of writes wins
        assert_eq!(noftl2.read(obj, p, report.completed_at).unwrap().0, vec![expected as u8; 4096]);
    }
}

#[test]
fn recovery_reports_scale_with_wal_length() {
    // Longer WAL tails require more redo work — the relationship the
    // criterion bench (`benches/recovery.rs`) measures.  A segment budget
    // the run never reaches means no truncation: the tail only grows.
    let redo_applied: Vec<u64> = [20, 40, 60]
        .into_iter()
        .map(|txns| {
            let workload = TableWorkload { txns, wal_segment_pages: 100_000, ..Default::default() };
            let outcome = run_cycle(&workload, &FaultConfig::default(), Cut::Fraction(0.99), nand)
                .expect("cycle recovers");
            outcome.reopen.redo_pages_applied
        })
        .collect();
    assert!(
        redo_applied[0] < redo_applied[1] && redo_applied[1] < redo_applied[2],
        "redo work must grow with WAL length: {redo_applied:?}"
    );
}
