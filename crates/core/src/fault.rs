//! The fault harness: one cut → reboot → mount → reopen → verify driver.
//!
//! Under NoFTL the DBMS, not an FTL, rebuilds the page map after a power
//! loss ([`NoFtl::mount`]).  [`run_cycle`] proves it: a dry run learns the
//! seeded workload's span; an identical armed run loses power at the
//! [`Cut`]; the device is power-cycled and mounted, the stack reopened,
//! and the recovered world must equal the acknowledged world, or that plus
//! the one operation in flight at the cut.  The seams are a [`Workload`]
//! ([`crate::kv::KvWorkload`], `dbms_engine::TableWorkload`) and a
//! [`FaultDevice`] (a [`NandDevice`]; a degraded mirror in the root tests).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flash_sim::{
    DeviceBuilder, FlashBackend, FlashError, FlashGeometry, NandDevice, SimTime, TimingModel,
};

use crate::error::NoFtlError;
use crate::manager::NoFtl;
use crate::placement::PlacementPolicyKind;
use crate::recovery::MountReport;
use crate::NoFtlConfig;

/// Deterministic SplitMix64 over its seed/state, the harness's one RNG
/// (workload operations, cut fractions, seeded fault instants).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`0` when `bound` is zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// A fraction in `[0, 1)` in steps of 0.001.
    pub fn fraction(&mut self) -> f64 {
        self.below(1_000) as f64 / 1_000.0
    }
}

/// A workload's data: key → value.
pub type World<V> = BTreeMap<u64, V>;

/// The world read back after a crash, with what reopening reported.
pub type Recovered<W> = (World<<W as Workload>::Value>, <W as Workload>::ReopenReport);

/// Where the armed run loses power; fractions are clamped to `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// At `setup_end + fraction · span` of the dry run.
    Fraction(f64),
    /// Inside the `fraction`-th window the dry run recorded (at `0.2 + 0.6
    /// · fraction` of its length); fails the cycle if there is none.
    InWindow(f64),
}

/// Fault options of one cycle; each applies to every workload and device.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Device geometry (default: the tiny unit-test geometry).
    pub geometry: FlashGeometry,
    /// Device timing model.
    pub timing: TimingModel,
    /// Workload RNG seed.
    pub seed: u64,
    /// Die-level write placement under test (default: the
    /// [`crate::PLACEMENT_ENV`] variable, else round-robin).
    pub placement: PlacementPolicyKind,
    /// Reboot through a file-backed image (the persistence path; slower).
    pub image_file: bool,
    /// Power cuts to land while the recovery mount scans the device; each
    /// interrupted boot is power-cycled and the mount retried.
    pub mount_cuts: u64,
    /// Enable the cross-layer event tracer for the dry and armed runs
    /// (tracing must never perturb recovery).
    pub trace: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            geometry: FlashGeometry::small_test(),
            timing: TimingModel::mlc_2015(),
            seed: 0xC0FFEE,
            placement: PlacementPolicyKind::from_env(PlacementPolicyKind::RoundRobin),
            image_file: false,
            mount_cuts: 0,
            trace: false,
        }
    }
}

/// A workload error that tells the injected power loss from the rest.
pub trait FaultError: From<NoFtlError> + From<FlashError> + fmt::Display + fmt::Debug {
    /// Whether the error reports the simulated power loss.
    fn is_power_loss(&self) -> bool;
}

impl FaultError for NoFtlError {
    fn is_power_loss(&self) -> bool {
        matches!(self, NoFtlError::Flash(e) if e.is_power_loss())
    }
}

/// What one run of a workload left behind.
#[derive(Debug)]
pub struct Run<W: Workload + ?Sized> {
    /// The world as of the last acknowledged operation.
    pub acked: World<W::Value>,
    /// That plus the operation the run stopped in, if it may be durable.
    pub in_flight: Option<World<W::Value>>,
    /// The error the run stopped on, if it did not finish.
    pub stopped: Option<W::Error>,
    /// The workload's clock when it stopped.
    pub end: SimTime,
    /// `(start, end)` windows in ns a [`Cut::InWindow`] can aim at.
    pub windows: Vec<(u64, u64)>,
    /// The workload's own counters.
    pub report: W::RunReport,
}

/// A workload the harness can crash.
pub trait Workload {
    /// The live stack (a database, a KV store).
    type Stack;
    /// Values of the workload's world.
    type Value: PartialEq + fmt::Debug;
    /// Counters a run reports.
    type RunReport: fmt::Debug;
    /// What reopening the stack reports.
    type ReopenReport: fmt::Debug;
    /// The workload's error type.
    type Error: FaultError;

    /// Build the stack on a fresh manager; returns it with its setup end.
    fn setup(&self, noftl: Arc<NoFtl>) -> Result<(Self::Stack, SimTime), Self::Error>;

    /// Drive the workload from `start`, stopping at the first error.
    fn run(&self, stack: &Self::Stack, rng: &mut SplitMix64, start: SimTime) -> Run<Self>;

    /// Reopen the stack on the remounted manager and read its whole world
    /// back, checking the workload's own invariants against `crashed`.
    fn recover(
        &self,
        crashed: &Self::Stack,
        noftl: Arc<NoFtl>,
        at: SimTime,
    ) -> Result<Recovered<Self>, Self::Error>;
}

/// A device the harness can cut and power-cycle.
pub trait FaultDevice: Sized {
    /// The backend the storage manager runs on.
    fn backend(&self) -> Arc<dyn FlashBackend>;

    /// Arm a power cut at `at`.
    fn arm_power_cut(&self, at: SimTime);

    /// Boot a fresh device from the (possibly torn) state, optionally
    /// through the file-backed image at `image`.
    fn power_cycle(&self, image: Option<&Path>) -> flash_sim::Result<Self>;
}

impl FaultDevice for Arc<NandDevice> {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.clone()
    }

    fn arm_power_cut(&self, at: SimTime) {
        NandDevice::arm_power_cut(self, at);
    }

    fn power_cycle(&self, image: Option<&Path>) -> flash_sim::Result<Self> {
        NandDevice::power_cycle(self, image).map(Arc::new)
    }
}

/// The single-device factory for [`run_cycle`].
pub fn nand(cfg: &FaultConfig) -> Arc<NandDevice> {
    Arc::new(DeviceBuilder::new(cfg.geometry).timing(cfg.timing).build())
}

/// Outcome of one verified cycle.
#[derive(Debug)]
pub struct Outcome<W: Workload> {
    /// The armed power-cut instant.
    pub cut_at: SimTime,
    /// Keys in the acknowledged world.
    pub acked_keys: u64,
    /// Whether the run stopped inside an operation that may be durable.
    pub in_flight: bool,
    /// Whether that operation survived recovery in full.
    pub in_flight_survived: bool,
    /// Keys verified after recovery.
    pub verified_keys: u64,
    /// The storage-manager mount summary.
    pub mount: MountReport,
    /// Recovery mounts a power cut interrupted.
    pub interrupted_mounts: u64,
    /// The armed run's counters.
    pub run: W::RunReport,
    /// What reopening the stack reported.
    pub reopen: W::ReopenReport,
}

/// Run one cycle of `workload` on devices built by `device`.  Fails if a
/// run stops on anything but the injected power loss, or if recovery
/// breaks a guarantee.
pub fn run_cycle<W: Workload, D: FaultDevice>(
    workload: &W,
    cfg: &FaultConfig,
    cut: Cut,
    device: impl Fn(&FaultConfig) -> D,
) -> Result<Outcome<W>, W::Error> {
    // The infallible `Default` can only log a malformed placement
    // override; here it is returned as a configuration error.
    PlacementPolicyKind::try_from_env(cfg.placement)?;
    let noftl_config = NoFtlConfig { placement: cfg.placement, ..NoFtlConfig::default() };
    let build = || -> Result<(D, W::Stack, SimTime), W::Error> {
        let device = device(cfg);
        let backend = device.backend();
        backend.metrics().tracer().set_enabled(cfg.trace);
        let (stack, setup_end) =
            workload.setup(Arc::new(NoFtl::new(backend.clone(), noftl_config)))?;
        Ok((device, stack, setup_end.max(backend.quiesce_time())))
    };

    let (dry, dry_stack, setup_end) = build()?;
    let dry_run = workload.run(&dry_stack, &mut SplitMix64(cfg.seed), setup_end);
    if let Some(e) = dry_run.stopped {
        return Err(e);
    }
    let cut_at = match cut {
        Cut::Fraction(f) => {
            let end = dry_run.end.max(dry.backend().quiesce_time()).as_nanos();
            let span = end.saturating_sub(setup_end.as_nanos()).max(1);
            SimTime(setup_end.as_nanos() + (span as f64 * f.clamp(0.0, 0.999_999)) as u64)
        }
        Cut::InWindow(f) => {
            let f = f.clamp(0.0, 0.999_999);
            let windows = &dry_run.windows;
            let pick = ((windows.len() as f64 * f) as usize).min(windows.len().saturating_sub(1));
            let &(start, end) = windows.get(pick).ok_or_else(|| NoFtlError::Config {
                message: "the dry run recorded no window to cut into".into(),
            })?;
            let inside = start + (end.saturating_sub(start) as f64 * (0.2 + 0.6 * f)) as u64;
            SimTime(inside.max(start + 1))
        }
    };

    let (armed, stack, _) = build()?;
    armed.arm_power_cut(cut_at);
    let run = workload.run(&stack, &mut SplitMix64(cfg.seed), setup_end);
    // A power loss is never reported before the device reaches the cut,
    // so this also rejects any failure ahead of it.
    if let Some(e) = run.stopped.filter(|e| !e.is_power_loss()) {
        return Err(e);
    }

    static IMAGES: AtomicU64 = AtomicU64::new(0);
    let image = cfg.image_file.then(|| {
        let n = IMAGES.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("noftl-fault-{}-{n}.img", std::process::id()))
    });
    let mut device = armed.power_cycle(image.as_deref())?;
    let mut mount_at = cut_at;
    let mut interrupted_mounts = 0u64;
    for attempt in 0..cfg.mount_cuts {
        // Land the cut a little into the mount's device scan.
        device.arm_power_cut(SimTime(mount_at.as_nanos() + 40_000 + attempt * 25_000));
        match NoFtl::mount(device.backend(), noftl_config, mount_at) {
            Err(e) if e.is_power_loss() => interrupted_mounts += 1,
            Err(e) => return Err(e.into()),
            // The cut landed after the scan finished — legal; the power
            // cycle below discards this instance anyway.
            Ok(_) => {}
        }
        device = device.power_cycle(None)?;
        mount_at = SimTime(mount_at.as_nanos() + 100_000);
    }
    let (noftl, mount) = NoFtl::mount(device.backend(), noftl_config, mount_at)?;
    let (actual, reopen) = workload.recover(&stack, Arc::new(noftl), mount.completed_at)?;

    let matches_acked = actual == run.acked;
    let matches_in_flight = run.in_flight.as_ref() == Some(&actual);
    if !matches_acked && !matches_in_flight {
        return Err(NoFtlError::Recovery {
            message: format!(
                "recovered world ({} keys) matches neither the acknowledged world ({} keys) \
                 nor the in-flight world ({:?} keys); cut at {} ns",
                actual.len(),
                run.acked.len(),
                run.in_flight.as_ref().map(BTreeMap::len),
                cut_at.as_nanos()
            ),
        }
        .into());
    }
    Ok(Outcome {
        cut_at,
        acked_keys: run.acked.len() as u64,
        in_flight: run.in_flight.is_some(),
        in_flight_survived: matches_in_flight && !matches_acked,
        verified_keys: actual.len() as u64,
        mount,
        interrupted_mounts,
        run: run.report,
        reopen,
    })
}
