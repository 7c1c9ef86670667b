//! Cloud-wide configuration.

use skute_economy::EconomyConfig;
use skute_store::{BackendKind, FaultPlan};

/// Number of bytes in a mebibyte.
const MIB: u64 = 1024 * 1024;

/// Default RNG seed of the paper configuration.
pub const DEFAULT_SEED: u64 = 0x5C07E;

/// Configuration of a [`crate::SkuteCloud`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkuteConfig {
    /// Virtual-economy parameters (eq. 1, 3, 4, 5 and the decision window).
    pub economy: EconomyConfig,
    /// Partition capacity: "a maximum partition capacity of 256 MB after
    /// which the data of the partition is split into two new ones" (§III-A).
    pub split_threshold_bytes: u64,
    /// Calibration fraction of
    /// [`crate::availability::threshold_for_replicas`].
    pub availability_frac: f64,
    /// Seed of the cloud's deterministic RNG (initial placement and agent
    /// iteration order).
    pub seed: u64,
    /// Upper bound on availability-restoring replications per partition per
    /// epoch (bandwidth budgets also gate transfers).
    pub max_repairs_per_partition_per_epoch: usize,
    /// Forces every eq.-(3) target selection through the brute-force
    /// full-cluster scan instead of the rent-sorted
    /// [`crate::placement::PlacementIndex`]. The two are bit-for-bit
    /// equivalent; this switch exists as the equivalence oracle for tests
    /// and as the "before" side of the `epoch_loop` benchmark.
    pub brute_force_placement: bool,
    /// Disables speculative eq.-(3) targets entirely: the decision plan
    /// pass computes none, so the commit pass re-walks every acting vnode
    /// against the live state — the pre-speculation sequential oracle.
    /// The default pipeline instead validates each speculation's read set
    /// against the servers mutated by the preceding committed actions and
    /// honors it whenever the touches provably cannot have changed the
    /// answer (see `crate::placement::validate_speculation`), so the two
    /// modes are **bit-for-bit identical** up to the speculation hit/miss
    /// counters. This switch exists as the equivalence oracle for tests
    /// and CI's determinism matrix (`skute-sim --no-speculation`).
    pub no_speculation: bool,
    /// Storage engine replica stores run on. [`BackendKind::Mem`] is the
    /// fast in-memory default and bit-exact oracle; [`BackendKind::Lsm`]
    /// gives every replica a durable WAL + SSTable store. Same-seed
    /// trajectories are **bitwise identical across backends** — decisions
    /// and the CSV consume only logical byte accounting, which the engines
    /// share; only durability and the measured transfer counters differ
    /// (CI's determinism matrix compares the two).
    pub backend: BackendKind,
    /// Seeded storage-fault plan replica stores run under (LSM only; the
    /// mem oracle has no IO path to fault). Injected faults are transient
    /// by construction and repaired inside the store's IO path, so
    /// same-seed same-plan trajectories stay **bitwise identical** —
    /// degradation surfaces only in fault statistics and measured
    /// transfer bytes (`skute-sim --fault-plan` / `--fault-seed`).
    pub fault_plan: FaultPlan,
    /// Scheduled scrub cadence: every `scrub_every` epochs, `end_epoch`
    /// runs [`crate::SkuteCloud::scrub_quarantined`] over every ring and
    /// drains the read-repair queue quorum reads populated, so divergence
    /// and quarantines are amortized away without operator action. `0`
    /// (the default) disables the schedule — existing trajectories are
    /// untouched. Scrub rebuilds are observability-only, so enabling the
    /// cadence cannot perturb the decision trajectory.
    pub scrub_every: u64,
    /// Compatibility shim with exactly one legal value, `1`: the epoch
    /// engine is single-threaded. The field survives only so existing
    /// callers that pin `threads = 1` keep compiling;
    /// [`SkuteConfig::validate`] panics on any other value.
    pub threads: usize,
}

impl SkuteConfig {
    /// The calibration used in the paper-reproduction experiments.
    pub fn paper() -> Self {
        Self {
            economy: EconomyConfig::paper(),
            split_threshold_bytes: 256 * MIB,
            availability_frac: 0.2,
            seed: DEFAULT_SEED,
            max_repairs_per_partition_per_epoch: 4,
            brute_force_placement: false,
            no_speculation: false,
            backend: BackendKind::Mem,
            fault_plan: FaultPlan::none(),
            scrub_every: 0,
            threads: 1,
        }
    }

    /// Returns a copy with replica stores on the given storage backend.
    /// The trajectory stays bitwise identical; only durability and the
    /// measured transfer counters change.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with speculative eq.-(3) targets disabled (the
    /// re-walk-everything oracle; see the field docs). Trajectories stay
    /// bitwise identical up to the speculation hit/miss counters.
    #[must_use]
    pub fn with_no_speculation(mut self) -> Self {
        self.no_speculation = true;
        self
    }

    /// Returns a copy with `threads` set (compatibility shim: `1` is the
    /// only value [`SkuteConfig::validate`] accepts; see the field docs).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy routed through the brute-force placement scan (the
    /// equivalence oracle; see the field docs).
    #[must_use]
    pub fn with_brute_force_placement(mut self) -> Self {
        self.brute_force_placement = true;
        self
    }

    /// Returns a copy with a different RNG seed (deterministic replay with
    /// a new sample path).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with replica stores running under the given
    /// storage-fault plan (see the field docs). The trajectory stays
    /// bitwise identical; only fault statistics and measured transfer
    /// bytes change.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns a copy injecting **every** fault family, seeded with
    /// `seed` (`skute-sim --fault-seed`).
    #[must_use]
    pub fn with_fault_seed(self, seed: u64) -> Self {
        self.with_fault_plan(FaultPlan::all(seed))
    }

    /// Returns a copy scrubbing every `epochs` epochs inside `end_epoch`
    /// (`0` disables the schedule; see the field docs).
    #[must_use]
    pub fn with_scrub_every(mut self, epochs: u64) -> Self {
        self.scrub_every = epochs;
        self
    }

    /// Validates all parameters.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        self.economy.validate();
        assert!(
            self.split_threshold_bytes > 0,
            "split threshold must be positive"
        );
        assert!(
            self.availability_frac > 0.0 && self.availability_frac <= 1.0,
            "availability_frac must be in (0, 1]"
        );
        assert!(
            self.max_repairs_per_partition_per_epoch >= 1,
            "at least one repair per epoch must be allowed"
        );
        assert!(
            self.threads == 1,
            "threads must be 1: the epoch engine is single-threaded"
        );
    }
}

impl Default for SkuteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SkuteConfig::paper().validate();
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = SkuteConfig::paper();
        let b = a.with_seed(42);
        assert_eq!(b.seed, 42);
        assert_eq!(a.split_threshold_bytes, b.split_threshold_bytes);
    }

    #[test]
    #[should_panic(expected = "threads must be 1")]
    fn two_threads_rejected() {
        SkuteConfig::paper().with_threads(2).validate();
    }

    #[test]
    #[should_panic(expected = "threads must be 1")]
    fn zero_threads_rejected() {
        SkuteConfig::paper().with_threads(0).validate();
    }

    #[test]
    fn with_no_speculation_flips_only_the_oracle_flag() {
        let a = SkuteConfig::paper();
        let b = a.with_no_speculation();
        assert!(!a.no_speculation);
        assert!(b.no_speculation);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.threads, b.threads);
        b.validate();
    }

    #[test]
    fn with_backend_flips_only_the_engine() {
        let a = SkuteConfig::paper();
        let b = a.with_backend(BackendKind::Lsm);
        assert_eq!(a.backend, BackendKind::Mem);
        assert_eq!(b.backend, BackendKind::Lsm);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.threads, b.threads);
        b.validate();
    }

    #[test]
    fn with_fault_plan_flips_only_the_plan() {
        let a = SkuteConfig::paper();
        let b = a.with_fault_seed(7);
        assert!(!a.fault_plan.is_active());
        assert!(b.fault_plan.is_active());
        assert_eq!(b.fault_plan.seed, 7);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.backend, b.backend);
        b.validate();
    }

    #[test]
    fn with_scrub_every_flips_only_the_cadence() {
        let a = SkuteConfig::paper();
        let b = a.with_scrub_every(16);
        assert_eq!(a.scrub_every, 0, "disabled by default");
        assert_eq!(b.scrub_every, 16);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.threads, b.threads);
        b.validate();
    }

    #[test]
    #[should_panic(expected = "split threshold")]
    fn zero_split_threshold_rejected() {
        let mut c = SkuteConfig::paper();
        c.split_threshold_bytes = 0;
        c.validate();
    }
}
