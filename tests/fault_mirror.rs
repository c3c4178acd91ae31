//! The fault harness over a degraded 2-way mirror: both workloads run on
//! a `MirrorDevice` that loses one child at a seeded instant before the
//! power cut.  The reboot brings the lost child back stale, so every
//! cycle mounts a degraded mirror whose replication state the checkpoint
//! blob and the verify scan must restore.  The recovered world still has
//! to equal the acknowledged world (or that plus the in-flight op).

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use noftl_mirror::MirrorDevice;
use noftl_regions::dbms::TableWorkload;
use noftl_regions::flash::{FlashBackend, SimTime};
use noftl_regions::noftl::fault::{run_cycle, Cut, FaultConfig, FaultDevice, SplitMix64, Workload};
use noftl_regions::noftl::kv::KvWorkload;

const CYCLES: u64 = 12;

/// A 2-way mirror that loses child `loss.0` at `loss.1` of the way to
/// the power cut.  `degraded_boots` counts crashed runs whose reboot found
/// that child faulted.
struct DegradedMirror {
    mirror: Arc<MirrorDevice>,
    loss: Option<(usize, f64)>,
    degraded_boots: Rc<Cell<u64>>,
}

impl FaultDevice for DegradedMirror {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.mirror.clone()
    }

    fn arm_power_cut(&self, at: SimTime) {
        if let Some((child, fraction)) = self.loss {
            self.mirror.injector().arm(child, SimTime((at.as_nanos() as f64 * fraction) as u64));
        }
        for child in self.mirror.children() {
            child.arm_power_cut(at);
        }
    }

    fn power_cycle(&self, image: Option<&Path>) -> noftl_regions::flash::Result<Self> {
        if self.loss.is_some() && !self.mirror.fully_online() {
            self.degraded_boots.set(self.degraded_boots.get() + 1);
        }
        Ok(DegradedMirror {
            mirror: Arc::new(self.mirror.power_cycle(image, None)?),
            loss: None,
            degraded_boots: Rc::clone(&self.degraded_boots),
        })
    }
}

/// Run `CYCLES` seeded cycles of `workload` over degraded mirrors, with
/// the image-file reboot on odd cycles and a mount cut on every third;
/// asserts both kinds of fault landed and prints a summary.
fn sweep<W: Workload>(name: &str, workload: &W, seed: u64) {
    let mut rng = SplitMix64(seed);
    let degraded_boots = Rc::new(Cell::new(0));
    let mut interrupted_mounts = 0;
    let mut in_flight_survivals = 0;
    for cycle in 0..CYCLES {
        let cfg = FaultConfig {
            seed: seed ^ cycle,
            image_file: cycle % 2 == 1,
            mount_cuts: u64::from(cycle % 3 == 2),
            ..FaultConfig::default()
        };
        let cut = Cut::Fraction(rng.fraction());
        let loss = (rng.below(2) as usize, rng.fraction());
        let device = |cfg: &FaultConfig| DegradedMirror {
            mirror: Arc::new(MirrorDevice::new_fresh(2, cfg.geometry, cfg.timing).unwrap()),
            loss: Some(loss),
            degraded_boots: Rc::clone(&degraded_boots),
        };
        let outcome = run_cycle(workload, &cfg, cut, device)
            .unwrap_or_else(|e| panic!("cycle {cycle} ({cut:?}, loss {loss:?}) failed: {e}"));
        assert!(outcome.mount.checkpoint_seq > 0, "cycle {cycle}");
        interrupted_mounts += outcome.interrupted_mounts;
        in_flight_survivals += u64::from(outcome.in_flight_survived);
    }
    let degraded = degraded_boots.get();
    assert!(degraded >= CYCLES / 2, "only {degraded} of {CYCLES} reboots found a child faulted");
    assert!(interrupted_mounts > 0, "no mount was interrupted");
    println!(
        "{name}: {CYCLES} cycles: {degraded} degraded boots, {interrupted_mounts} mounts \
         interrupted, {in_flight_survivals} in-flight ops survived"
    );
}

#[test]
fn kv_cycles_over_a_degraded_mirror_lose_no_acknowledged_key() {
    sweep("kv", &KvWorkload::default(), 0x4D49_5252);
}

#[test]
fn table_cycles_over_a_degraded_mirror_lose_no_committed_txn() {
    sweep("table", &TableWorkload { txns: 60, ..TableWorkload::default() }, 0xC0FF_EE00);
}

/// A mirror whose children all drop out at the "cut" instead of losing
/// power.
struct LosesEveryChild(Arc<MirrorDevice>);

impl FaultDevice for LosesEveryChild {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.0.clone()
    }

    fn arm_power_cut(&self, at: SimTime) {
        for child in 0..self.0.children().len() {
            self.0.injector().arm(child, at);
        }
    }

    fn power_cycle(&self, image: Option<&Path>) -> noftl_regions::flash::Result<Self> {
        Ok(LosesEveryChild(Arc::new(self.0.power_cycle(image, None)?)))
    }
}

/// The error a cycle of `workload` on a [`LosesEveryChild`] mirror fails with.
fn armed_run_error<W: Workload>(workload: &W) -> String {
    let device = |cfg: &FaultConfig| {
        LosesEveryChild(Arc::new(MirrorDevice::new_fresh(2, cfg.geometry, cfg.timing).unwrap()))
    };
    match run_cycle(workload, &FaultConfig::default(), Cut::Fraction(0.5), device) {
        Ok(_) => panic!("a cycle whose armed run lost every replica passed"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn an_armed_run_that_fails_without_a_power_loss_fails_the_cycle() {
    // The armed run dies of a device error, not of the injected power
    // loss: the driver must report it rather than verify it as a crash.
    for err in [armed_run_error(&KvWorkload::default()), armed_run_error(&TableWorkload::default())]
    {
        assert!(err.contains("no healthy mirror child"), "{err}");
    }
}
