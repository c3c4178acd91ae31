//! Placement: which region an object lives in, and which die inside the
//! region takes the next write.
//!
//! Two layers of policy live here:
//!
//! * **Region-level** — the paper's Figure 2 shows a hand-tuned assignment
//!   of the TPC-C objects to 6 regions and of the 64 flash dies to those
//!   regions "based on sizes of objects and their I/O rate (required level
//!   of I/O parallelism)".  [`PlacementAdvisor::assign_dies`] automates
//!   exactly that computation: given groups of objects and their measured
//!   profiles, it apportions the available dies proportionally to a
//!   weighted combination of I/O rate and size (largest-remainder method,
//!   at least one die per region).
//! * **Die-level** — inside a region every host write must pick a die.
//!   [`PlacementPolicy`] abstracts that choice: [`RoundRobin`] reproduces
//!   the seed allocator's striping byte-for-byte (proven by the
//!   `placement_equivalence` golden harness), while [`QueueAware`] reads
//!   the device's per-die load snapshots ([`flash_sim::DieLoad`]) and
//!   steers single-page writes and `write_batch` fan-out toward idle dies,
//!   so skewed background load (GC storms, a busy co-resident object) no
//!   longer gates the whole batch.  Policies are selected per region via
//!   [`crate::NoFtlConfig::placement`] and the per-region override
//!   [`crate::RegionSpec::with_placement`], and tie into the [`hotcold`]
//!   classifier through [`PlacementPolicyKind::for_temperature`].
//!
//! [`hotcold`]: crate::hotcold

use serde::{Deserialize, Serialize};

use flash_sim::{DieLoad, ServiceClass, SimTime};

use crate::error::NoFtlError;
use crate::hotcold::{classify, ObjectProfile, Temperature};

/// Environment variable overriding the default die-level placement policy
/// (`round_robin` or `queue_aware`).  Read by
/// [`PlacementPolicyKind::from_env`]; the fault harness uses it so the
/// tier-1 crash sweeps can be pointed at either policy without a rebuild.
pub const PLACEMENT_ENV: &str = "NOFTL_PLACEMENT";

/// How a region picks the die of the next host-write allocation.
///
/// The storage manager asks the policy for a *probe order* over the
/// region's dies; it then walks that order, running GC on a die whose
/// free-block pool is low and taking the first die that yields a page.
/// The policy therefore only expresses *preference* — a full or failing
/// die never blocks allocation as long as any die in the region has
/// space, under every policy.
pub trait PlacementPolicy: Send + Sync + std::fmt::Debug {
    /// Stable display name (bench labels, reports).
    fn name(&self) -> &'static str;

    /// Whether [`PlacementPolicy::probe_order`] wants per-die load
    /// snapshots.  Policies that return `false` (the default) skip the
    /// per-die lock acquisitions entirely, keeping the hot allocation
    /// path as cheap as the seed allocator.
    fn needs_loads(&self) -> bool {
        false
    }

    /// Fill `order` with the sequence in which the region's dies are
    /// probed for the next allocation (cleared first; afterwards a
    /// permutation of `0..die_count`).  `cursor` is the region's
    /// round-robin pointer (the die after the previous allocation's),
    /// `at` is the issue time of the write, and `loads[i]` is the load
    /// snapshot of the region's `i`-th die — empty unless
    /// [`PlacementPolicy::needs_loads`] returns true.
    ///
    /// The buffer-filling shape lets the storage manager reuse one
    /// scratch vector per region, so the per-write allocation path stays
    /// heap-allocation-free like the seed allocator's modular loop.
    fn probe_order_into(
        &self,
        die_count: usize,
        cursor: usize,
        at: SimTime,
        loads: &[DieLoad],
        order: &mut Vec<usize>,
    );

    /// Convenience wrapper over [`PlacementPolicy::probe_order_into`]
    /// returning a fresh vector.
    fn probe_order(
        &self,
        die_count: usize,
        cursor: usize,
        at: SimTime,
        loads: &[DieLoad],
    ) -> Vec<usize> {
        let mut order = Vec::with_capacity(die_count);
        self.probe_order_into(die_count, cursor, at, loads, &mut order);
        order
    }
}

/// The seed allocator: stripe writes round-robin over the region's dies.
/// Byte-identical to the pre-policy write path (golden-tested), and the
/// default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn probe_order_into(
        &self,
        die_count: usize,
        cursor: usize,
        _at: SimTime,
        _loads: &[DieLoad],
        order: &mut Vec<usize>,
    ) {
        order.clear();
        order.extend((0..die_count).map(|attempt| (cursor + attempt) % die_count));
    }
}

/// Queue-aware placement: prefer the die that could start the program
/// soonest ([`DieLoad::earliest_start`]), breaking ties by in-flight
/// queue depth and then by round-robin distance from the cursor.
///
/// On an idle region every die ties and the round-robin distance decides,
/// so `QueueAware` degrades to exactly [`RoundRobin`]'s striping; under
/// skew (a die busy with GC erases, a deep queue from an earlier batch)
/// writes flow to the idle dies until the load evens out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueAware;

impl PlacementPolicy for QueueAware {
    fn name(&self) -> &'static str {
        "queue_aware"
    }

    fn needs_loads(&self) -> bool {
        true
    }

    fn probe_order_into(
        &self,
        die_count: usize,
        cursor: usize,
        at: SimTime,
        loads: &[DieLoad],
        order: &mut Vec<usize>,
    ) {
        order.clear();
        order.extend(0..die_count);
        order.sort_by_key(|&i| {
            let load = loads.get(i).copied().unwrap_or_default();
            let rr_distance = (i + die_count - cursor % die_count) % die_count;
            (load.earliest_start(at), load.queue_depth, rr_distance)
        });
    }
}

/// Serialisable selector for a [`PlacementPolicy`] implementation — the
/// form policies take in [`crate::NoFtlConfig`] and
/// [`crate::RegionSpec`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicyKind {
    /// [`RoundRobin`] striping (the default; seed-equivalent).
    #[default]
    RoundRobin,
    /// [`QueueAware`] steering toward idle dies.
    QueueAware,
}

impl PlacementPolicyKind {
    /// The policy implementation this kind selects.
    pub fn policy(self) -> &'static dyn PlacementPolicy {
        match self {
            PlacementPolicyKind::RoundRobin => &RoundRobin,
            PlacementPolicyKind::QueueAware => &QueueAware,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        self.policy().name()
    }

    /// Parse a policy name (`round_robin`/`rr`, `queue_aware`/`qa`;
    /// dashes and case are ignored).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().replace('-', "_").as_str() {
            "round_robin" | "roundrobin" | "rr" => Some(PlacementPolicyKind::RoundRobin),
            "queue_aware" | "queueaware" | "qa" => Some(PlacementPolicyKind::QueueAware),
            _ => None,
        }
    }

    /// Resolve an optional [`PLACEMENT_ENV`] value: an unset variable
    /// selects `default`; a set value must name a policy or the malformed
    /// input is surfaced as a [`NoFtlError::Config`].  Pure so it can be
    /// unit-tested without mutating the process environment.
    pub fn parse_env_value(value: Option<&str>, default: Self) -> crate::Result<Self> {
        match value {
            None => Ok(default),
            Some(v) => Self::parse(v).ok_or_else(|| NoFtlError::Config {
                message: format!(
                    "malformed {PLACEMENT_ENV} value '{v}': \
                     expected round_robin/rr or queue_aware/qa"
                ),
            }),
        }
    }

    /// The kind selected by the [`PLACEMENT_ENV`] environment variable:
    /// `default` when unset, an error when set to an unparseable value.
    /// Config-load paths that can return an error (the fault harness)
    /// call this instead of [`PlacementPolicyKind::from_env`].
    pub fn try_from_env(default: Self) -> crate::Result<Self> {
        let value = std::env::var(PLACEMENT_ENV).ok();
        Self::parse_env_value(value.as_deref(), default)
    }

    /// The kind selected by the [`PLACEMENT_ENV`] environment variable,
    /// or `default` when the variable is unset.  A malformed value is
    /// *logged* and falls back to `default` — infallible contexts
    /// (`Default` impls) cannot return the parse error, but they no
    /// longer swallow it silently.
    pub fn from_env(default: Self) -> Self {
        Self::try_from_env(default).unwrap_or_else(|e| {
            eprintln!("noftl: {e}; falling back to {}", default.name());
            default
        })
    }

    /// The policy suggested for an object temperature: hot objects write
    /// (and therefore GC) constantly, so their regions benefit from
    /// queue-aware steering; warm and cold regions keep the predictable
    /// round-robin stripe.
    pub fn for_temperature(temperature: Temperature) -> Self {
        match temperature {
            Temperature::Hot => PlacementPolicyKind::QueueAware,
            Temperature::Warm | Temperature::Cold => PlacementPolicyKind::RoundRobin,
        }
    }
}

/// Suggest a die-level policy per object from measured profiles: the
/// [`classify`] verdict mapped through
/// [`PlacementPolicyKind::for_temperature`].  Callers building a
/// [`PlacementConfig`] apply the hottest member's suggestion to each
/// region's [`crate::RegionSpec`].
pub fn suggest_policies(
    profiles: &[ObjectProfile],
    hot_fraction: f64,
) -> Vec<(String, PlacementPolicyKind)> {
    classify(profiles, hot_fraction)
        .into_iter()
        .map(|(name, temp)| (name, PlacementPolicyKind::for_temperature(temp)))
        .collect()
}

/// One region of a placement configuration: its name, the objects placed
/// in it, and the number of dies assigned to it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionAssignment {
    /// Region name.
    pub region_name: String,
    /// Names of the objects placed in this region.
    pub objects: Vec<String>,
    /// Number of dies assigned to the region.
    pub dies: u32,
    /// I/O service class for the region (`None` = manager default).
    /// Becomes [`crate::RegionSpec::with_service_class`] when the DBMS
    /// backend creates the region.
    pub service_class: Option<ServiceClass>,
}

impl RegionAssignment {
    /// Set the region's I/O service class.
    pub fn with_service_class(mut self, class: ServiceClass) -> Self {
        self.service_class = Some(class);
        self
    }
}

/// A complete data-placement configuration (the shape of the paper's
/// Figure 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// The regions, in declaration order.
    pub regions: Vec<RegionAssignment>,
}

impl PlacementConfig {
    /// The "traditional data placement" baseline: a single region spanning
    /// all dies, holding every object.
    pub fn traditional(total_dies: u32, objects: impl IntoIterator<Item = String>) -> Self {
        PlacementConfig {
            regions: vec![RegionAssignment {
                region_name: "rgAll".to_string(),
                objects: objects.into_iter().collect(),
                dies: total_dies,
                service_class: None,
            }],
        }
    }

    /// Total number of dies used by the configuration.
    pub fn total_dies(&self) -> u32 {
        self.regions.iter().map(|r| r.dies).sum()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Find the region an object is assigned to.
    pub fn region_of(&self, object: &str) -> Option<&RegionAssignment> {
        self.regions.iter().find(|r| r.objects.iter().any(|o| o == object))
    }

    /// Render the configuration as an ASCII table (mirrors Figure 2).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12} {:>9}   {}\n", "Region", "Dies", "DB-Objects"));
        for r in &self.regions {
            out.push_str(&format!(
                "{:<12} {:>9}   {}\n",
                r.region_name,
                r.dies,
                r.objects.join("; ")
            ));
        }
        out.push_str(&format!("{:<12} {:>9}\n", "TOTAL", self.total_dies()));
        out
    }
}

/// Computes die apportionments from object profiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementAdvisor {
    /// Relative weight of a group's I/O rate in the die share.
    pub io_weight: f64,
    /// Relative weight of a group's size (pages) in the die share.
    pub size_weight: f64,
    /// Minimum number of dies any region receives.
    pub min_dies_per_region: u32,
}

impl Default for PlacementAdvisor {
    fn default() -> Self {
        PlacementAdvisor { io_weight: 0.6, size_weight: 0.4, min_dies_per_region: 1 }
    }
}

impl PlacementAdvisor {
    /// Apportion `total_dies` dies over the given object groups.
    ///
    /// Each group becomes one region named after the group.  The die share
    /// of a group is proportional to
    /// `io_weight * (group I/O / total I/O) + size_weight * (group pages / total pages)`,
    /// subject to the minimum per region, rounded with the largest-remainder
    /// method so the shares always sum to `total_dies`.
    ///
    /// # Panics
    /// Panics if `total_dies` cannot satisfy the per-region minimum — that
    /// is a configuration error in the calling experiment.
    pub fn assign_dies(
        &self,
        groups: &[(String, Vec<ObjectProfile>)],
        total_dies: u32,
    ) -> PlacementConfig {
        assert!(!groups.is_empty(), "placement advisor needs at least one object group");
        let min_total = self.min_dies_per_region * groups.len() as u32;
        assert!(
            total_dies >= min_total,
            "cannot assign {total_dies} dies to {} regions with a minimum of {} each",
            groups.len(),
            self.min_dies_per_region
        );
        let total_io: u64 = groups.iter().flat_map(|(_, ps)| ps.iter()).map(|p| p.io_rate()).sum();
        let total_pages: u64 = groups.iter().flat_map(|(_, ps)| ps.iter()).map(|p| p.pages).sum();
        let weights: Vec<f64> = groups
            .iter()
            .map(|(_, ps)| {
                let io: u64 = ps.iter().map(|p| p.io_rate()).sum();
                let pages: u64 = ps.iter().map(|p| p.pages).sum();
                let io_share = if total_io == 0 { 0.0 } else { io as f64 / total_io as f64 };
                let size_share =
                    if total_pages == 0 { 0.0 } else { pages as f64 / total_pages as f64 };
                self.io_weight * io_share + self.size_weight * size_share
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        // Distribute the dies above the per-region minimum proportionally.
        let distributable = total_dies - min_total;
        let mut dies: Vec<u32> = vec![self.min_dies_per_region; groups.len()];
        if distributable > 0 {
            let shares: Vec<f64> = weights
                .iter()
                .map(|w| {
                    if weight_sum <= f64::EPSILON {
                        distributable as f64 / groups.len() as f64
                    } else {
                        w / weight_sum * distributable as f64
                    }
                })
                .collect();
            let floors: Vec<u32> = shares.iter().map(|s| s.floor() as u32).collect();
            let mut assigned: u32 = floors.iter().sum();
            for (d, f) in dies.iter_mut().zip(floors.iter()) {
                *d += *f;
            }
            // Largest remainder: hand out the leftover dies to the groups
            // with the largest fractional parts.
            let mut remainders: Vec<(usize, f64)> =
                shares.iter().enumerate().map(|(i, s)| (i, s - s.floor())).collect();
            remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let mut i = 0;
            while assigned < distributable {
                dies[remainders[i % remainders.len()].0] += 1;
                assigned += 1;
                i += 1;
            }
        }
        PlacementConfig {
            regions: groups
                .iter()
                .zip(dies)
                .map(|((name, ps), d)| RegionAssignment {
                    region_name: name.clone(),
                    objects: ps.iter().map(|p| p.name.clone()).collect(),
                    dies: d,
                    service_class: None,
                })
                .collect(),
        }
    }

    /// Group objects automatically into `num_groups` buckets of similar
    /// update intensity (hottest group first).  This is the fully automatic
    /// variant of the manual grouping in the paper's Figure 2.
    pub fn auto_group(
        &self,
        profiles: &[ObjectProfile],
        num_groups: usize,
    ) -> Vec<(String, Vec<ObjectProfile>)> {
        if profiles.is_empty() || num_groups == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<ObjectProfile> = profiles.to_vec();
        sorted.sort_by(|a, b| {
            b.update_intensity()
                .partial_cmp(&a.update_intensity())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let num_groups = num_groups.min(sorted.len());
        let per_group = sorted.len().div_ceil(num_groups);
        sorted
            .chunks(per_group)
            .enumerate()
            .map(|(i, chunk)| (format!("rgAuto{i}"), chunk.to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile(name: &str, pages: u64, reads: u64, writes: u64) -> ObjectProfile {
        ObjectProfile { name: name.into(), pages, reads, writes }
    }

    fn groups() -> Vec<(String, Vec<ObjectProfile>)> {
        vec![
            (
                "rgMeta".into(),
                vec![profile("metadata", 10, 100, 10), profile("history", 200, 0, 300)],
            ),
            ("rgOrderline".into(), vec![profile("orderline", 3_000, 4_000, 9_000)]),
            ("rgCustomer".into(), vec![profile("customer", 2_500, 6_000, 3_000)]),
            (
                "rgStock".into(),
                vec![
                    profile("stock", 8_000, 12_000, 10_000),
                    profile("ol_idx", 1_500, 3_000, 2_000),
                ],
            ),
            (
                "rgSmallHot".into(),
                vec![profile("warehouse", 5, 2_000, 1_500), profile("district", 10, 2_500, 2_000)],
            ),
            (
                "rgOrderIdx".into(),
                vec![profile("no_idx", 300, 1_000, 1_200), profile("o_idx", 400, 900, 800)],
            ),
        ]
    }

    #[test]
    fn parse_env_value_accepts_all_spellings() {
        for (input, want) in [
            ("round_robin", PlacementPolicyKind::RoundRobin),
            ("rr", PlacementPolicyKind::RoundRobin),
            ("Round-Robin", PlacementPolicyKind::RoundRobin),
            ("queue_aware", PlacementPolicyKind::QueueAware),
            ("QA", PlacementPolicyKind::QueueAware),
            (" queueaware ", PlacementPolicyKind::QueueAware),
        ] {
            let got =
                PlacementPolicyKind::parse_env_value(Some(input), PlacementPolicyKind::RoundRobin)
                    .unwrap();
            assert_eq!(got, want, "input {input:?}");
        }
    }

    #[test]
    fn parse_env_value_unset_selects_the_default() {
        for default in [PlacementPolicyKind::RoundRobin, PlacementPolicyKind::QueueAware] {
            assert_eq!(PlacementPolicyKind::parse_env_value(None, default).unwrap(), default);
        }
    }

    #[test]
    fn parse_env_value_rejects_malformed_input_instead_of_falling_back() {
        let err = PlacementPolicyKind::parse_env_value(
            Some("queue_awrae"),
            PlacementPolicyKind::RoundRobin,
        )
        .unwrap_err();
        match err {
            NoFtlError::Config { message } => {
                assert!(message.contains("queue_awrae"), "names the bad input: {message}");
                assert!(message.contains(PLACEMENT_ENV), "names the variable: {message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn traditional_config_uses_one_region() {
        let cfg = PlacementConfig::traditional(64, ["a".to_string(), "b".to_string()]);
        assert_eq!(cfg.region_count(), 1);
        assert_eq!(cfg.total_dies(), 64);
        assert_eq!(cfg.region_of("a").unwrap().region_name, "rgAll");
        assert!(cfg.region_of("zzz").is_none());
    }

    #[test]
    fn die_shares_sum_to_total_and_respect_minimum() {
        let advisor = PlacementAdvisor::default();
        let cfg = advisor.assign_dies(&groups(), 64);
        assert_eq!(cfg.total_dies(), 64);
        assert_eq!(cfg.region_count(), 6);
        assert!(cfg.regions.iter().all(|r| r.dies >= 1));
        // The biggest, most I/O-intensive group (stock) gets the most dies.
        let stock = cfg.regions.iter().find(|r| r.region_name == "rgStock").unwrap();
        assert!(cfg.regions.iter().all(|r| r.dies <= stock.dies));
        // The metadata group gets the fewest.
        let meta = cfg.regions.iter().find(|r| r.region_name == "rgMeta").unwrap();
        assert!(cfg.regions.iter().all(|r| r.dies >= meta.dies));
    }

    #[test]
    fn table_rendering_contains_all_regions() {
        let advisor = PlacementAdvisor::default();
        let cfg = advisor.assign_dies(&groups(), 64);
        let table = cfg.to_table();
        for r in &cfg.regions {
            assert!(table.contains(&r.region_name));
        }
        assert!(table.contains("TOTAL"));
        assert!(table.contains("64"));
    }

    #[test]
    #[should_panic(expected = "cannot assign")]
    fn too_few_dies_panics() {
        PlacementAdvisor::default().assign_dies(&groups(), 3);
    }

    #[test]
    fn zero_io_groups_still_get_their_minimum() {
        let advisor = PlacementAdvisor::default();
        let gs = vec![
            ("rgA".into(), vec![profile("a", 0, 0, 0)]),
            ("rgB".into(), vec![profile("b", 0, 0, 0)]),
        ];
        let cfg = advisor.assign_dies(&gs, 8);
        assert_eq!(cfg.total_dies(), 8);
        assert!(cfg.regions.iter().all(|r| r.dies >= 1));
    }

    #[test]
    fn auto_group_orders_hot_first() {
        let advisor = PlacementAdvisor::default();
        let profiles = vec![
            profile("cold", 1000, 100, 0),
            profile("hot", 100, 100, 10_000),
            profile("warm", 500, 100, 500),
        ];
        let gs = advisor.auto_group(&profiles, 3);
        assert_eq!(gs.len(), 3);
        assert_eq!(gs[0].1[0].name, "hot");
        assert_eq!(gs[2].1[0].name, "cold");
        assert!(advisor.auto_group(&[], 3).is_empty());
        assert!(advisor.auto_group(&profiles, 0).is_empty());
        // More groups than objects collapses to one object per group.
        assert_eq!(advisor.auto_group(&profiles, 10).len(), 3);
    }

    fn load(busy_us: u64, depth: u32) -> DieLoad {
        DieLoad { busy_until: SimTime::from_us(busy_us), queue_depth: depth }
    }

    #[test]
    fn round_robin_probe_order_starts_at_cursor() {
        assert_eq!(RoundRobin.probe_order(4, 2, SimTime::ZERO, &[]), vec![2, 3, 0, 1]);
        assert_eq!(RoundRobin.probe_order(1, 0, SimTime::ZERO, &[]), vec![0]);
        assert!(!RoundRobin.needs_loads());
    }

    #[test]
    fn queue_aware_prefers_the_earliest_start() {
        // Die 1 drains first, then die 2; die 0 is busiest.
        let loads = [load(300, 3), load(10, 1), load(20, 1)];
        assert_eq!(QueueAware.probe_order(3, 0, SimTime::ZERO, &loads), vec![1, 2, 0]);
        assert!(QueueAware.needs_loads());
    }

    #[test]
    fn queue_aware_breaks_start_ties_by_depth_then_cursor_distance() {
        // All three dies already idle at the issue time: earliest start
        // ties at `at`, depth ties at 0 → round-robin distance decides,
        // so an idle region stripes exactly like RoundRobin.
        let idle = [load(0, 0), load(0, 0), load(0, 0)];
        let at = SimTime::from_us(500);
        assert_eq!(QueueAware.probe_order(3, 2, at, &idle), vec![2, 0, 1]);
        // Equal drain instants, different in-flight depth: shallower wins.
        let loads = [load(700, 2), load(700, 1), load(700, 3)];
        assert_eq!(QueueAware.probe_order(3, 0, SimTime::ZERO, &loads), vec![1, 0, 2]);
    }

    #[test]
    fn policy_kind_parse_env_and_names() {
        assert_eq!(
            PlacementPolicyKind::parse("queue-aware"),
            Some(PlacementPolicyKind::QueueAware)
        );
        assert_eq!(PlacementPolicyKind::parse("QA"), Some(PlacementPolicyKind::QueueAware));
        assert_eq!(PlacementPolicyKind::parse("rr"), Some(PlacementPolicyKind::RoundRobin));
        assert_eq!(
            PlacementPolicyKind::parse("Round_Robin"),
            Some(PlacementPolicyKind::RoundRobin)
        );
        assert_eq!(PlacementPolicyKind::parse("nonsense"), None);
        assert_eq!(PlacementPolicyKind::default(), PlacementPolicyKind::RoundRobin);
        assert_eq!(PlacementPolicyKind::QueueAware.name(), "queue_aware");
        assert_eq!(PlacementPolicyKind::RoundRobin.name(), "round_robin");
    }

    #[test]
    fn hot_objects_are_suggested_queue_aware() {
        let profiles = vec![
            profile("stock", 100, 100, 10_000),
            profile("item", 200, 5_000, 0), // read-only → cold
        ];
        let suggestions = suggest_policies(&profiles, 0.8);
        let get = |n: &str| suggestions.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(get("stock"), PlacementPolicyKind::QueueAware);
        assert_eq!(get("item"), PlacementPolicyKind::RoundRobin);
        assert_eq!(
            PlacementPolicyKind::for_temperature(Temperature::Warm),
            PlacementPolicyKind::RoundRobin
        );
    }

    proptest! {
        #[test]
        fn queue_aware_probe_order_is_a_permutation(
            cursor in 0usize..8,
            loads in prop::collection::vec((0u64..1_000, 0u32..4), 1..8),
        ) {
            let die_loads: Vec<DieLoad> =
                loads.iter().map(|(busy, depth)| load(*busy, *depth)).collect();
            let n = die_loads.len();
            let order = QueueAware.probe_order(n, cursor, SimTime::from_us(50), &die_loads);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            // The head of the order is a die with the minimal start time.
            let min_start = die_loads
                .iter()
                .map(|l| l.earliest_start(SimTime::from_us(50)))
                .min()
                .unwrap();
            prop_assert_eq!(die_loads[order[0]].earliest_start(SimTime::from_us(50)), min_start);
        }
    }

    proptest! {
        #[test]
        fn apportionment_always_sums_to_total(
            dies in 6u32..128,
            weights in prop::collection::vec((1u64..10_000, 1u64..10_000, 1u64..10_000), 2..6),
        ) {
            let gs: Vec<(String, Vec<ObjectProfile>)> = weights
                .iter()
                .enumerate()
                .map(|(i, (pages, reads, writes))| {
                    (format!("g{i}"), vec![profile(&format!("o{i}"), *pages, *reads, *writes)])
                })
                .collect();
            let cfg = PlacementAdvisor::default().assign_dies(&gs, dies);
            prop_assert_eq!(cfg.total_dies(), dies);
            prop_assert!(cfg.regions.iter().all(|r| r.dies >= 1));
        }
    }
}
