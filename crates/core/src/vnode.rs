//! Virtual nodes and per-partition runtime state.

use std::fmt;

use skute_cluster::ServerId;
use skute_economy::{BalanceHistory, ProximityCache, RegionQueries};
use skute_ring::PartitionId;
use skute_store::ReplicaStore;

/// Identifier of a virtual node (one replica of one partition), unique for
/// the lifetime of a cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnodeId(pub u64);

impl fmt::Display for VnodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One replica of a partition: the virtual node agent of §II.
///
/// A replica lives on exactly one server, carries its own copy of the
/// partition's data, earns utility from the queries it answers and pays the
/// virtual rent of its server every epoch. Its [`BalanceHistory`] drives the
/// replicate/migrate/suicide decisions.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Virtual node identifier.
    pub id: VnodeId,
    /// Hosting server.
    pub server: ServerId,
    /// Per-epoch balance history (window f).
    pub balance: BalanceHistory,
    /// This replica's copy of the partition's explicitly stored records,
    /// on the cloud's configured storage backend. The in-memory variant is
    /// copy-on-write: replicas synchronized by anti-entropy or replication
    /// share one allocation until one of them diverges. The LSM variant
    /// owns a durable store; independent copies go through
    /// [`ReplicaStore::fork`], which reports the bytes physically moved.
    pub store: ReplicaStore,
    /// Utility accrued in the current epoch (reset by `begin_epoch`).
    pub utility_epoch: f64,
    /// Queries served by this replica in the current epoch.
    pub queries_epoch: f64,
    /// Epoch at which the replica was created.
    pub created_epoch: u64,
}

impl Replica {
    /// A fresh replica on `server` with an empty store.
    pub fn new(id: VnodeId, server: ServerId, window: usize, epoch: u64) -> Self {
        Self {
            id,
            server,
            balance: BalanceHistory::new(window),
            store: ReplicaStore::default(),
            utility_epoch: 0.0,
            queries_epoch: 0.0,
            created_epoch: epoch,
        }
    }

    /// Resets the per-epoch accumulators.
    pub fn begin_epoch(&mut self) {
        self.utility_epoch = 0.0;
        self.queries_epoch = 0.0;
    }
}

/// Per-partition scratch of the traffic-delivery phase: the plan
/// pass fills it (proximity weights, client distances, serving order),
/// and the commit pass consumes it against the live capacity
/// meters. Reused across epochs; meaningless unless
/// [`DeliveryPlan::ready`].
#[derive(Debug, Clone, Default)]
pub struct DeliveryPlan {
    /// Queries addressed to the partition by the planned delivery.
    pub q: f64,
    /// Σ of the per-replica proximity weights below.
    pub sum_g: f64,
    /// Per-replica eq.-(4) proximity weights, in replica order.
    pub gs: Vec<f64>,
    /// Per-replica region-weighted client distances, in replica order.
    pub dists: Vec<f64>,
    /// Replica indices sorted by descending proximity (serving order).
    pub order: Vec<usize>,
    /// True between a plan pass and its commit pass.
    pub ready: bool,
}

/// Runtime state of one partition of one virtual ring.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// Ring-local partition identifier.
    pub id: PartitionId,
    /// Replicas (virtual nodes), one per hosting server; never empty for a
    /// live partition.
    pub replicas: Vec<Replica>,
    /// Popularity weight of the partition (the paper draws these from
    /// Pareto(1, 50)); splits halve it between the children.
    pub popularity: f64,
    /// Logical bytes ingested without materialized records (synthetic
    /// workload accounting); every replica's server is charged this amount.
    pub synthetic_bytes: u64,
    /// Query volume per client region observed this epoch (the `q_l` of
    /// eq. 4).
    pub region_queries: Vec<RegionQueries>,
    /// Total queries addressed to the partition this epoch (before drops).
    pub queries_epoch: f64,
    /// Bytes written to the partition this epoch (consistency-cost input).
    pub write_bytes_epoch: u64,
    /// Per-country proximity weights memoized against the current
    /// `region_queries`; cleared whenever they change (epoch start, query
    /// delivery) and shared by every placement decision of the partition
    /// within an epoch.
    pub prox_cache: ProximityCache,
    /// Bumped on every replica-membership change (add, remove, or host
    /// change). The epoch pipeline's plan passes snapshot it to
    /// detect, at commit time, whether their per-vnode precomputation is
    /// still exact or must be redone against the mutated partition.
    pub membership_version: u64,
    /// Memoized eq.-(2) availability of the current replica set.
    /// Invalidated (with the version bump) by
    /// [`PartitionState::note_membership_changed`]; server locations are
    /// immutable and confidences only move when the cloud observes health
    /// samples (gray fault plans), in which case `begin_epoch` clears the
    /// cache fleet-wide via
    /// [`PartitionState::note_confidence_changed`] without touching the
    /// membership version. Survives across epochs otherwise: a converged
    /// partition never re-evaluates eq. (2) in `repair_availability` or
    /// the epoch report.
    pub cached_availability: Option<f64>,
    /// Traffic-delivery scratch (see [`DeliveryPlan`]).
    pub delivery: DeliveryPlan,
}

impl PartitionState {
    /// A new partition with no replicas yet.
    pub fn new(id: PartitionId, popularity: f64) -> Self {
        Self {
            id,
            replicas: Vec::new(),
            popularity,
            synthetic_bytes: 0,
            region_queries: Vec::new(),
            queries_epoch: 0.0,
            write_bytes_epoch: 0,
            prox_cache: ProximityCache::new(),
            membership_version: 0,
            cached_availability: None,
            delivery: DeliveryPlan::default(),
        }
    }

    /// Records that the replica set changed (replica added, removed, or
    /// moved to another server): bumps the membership version and drops the
    /// memoized availability. Every mutation of `replicas` must call this.
    pub fn note_membership_changed(&mut self) {
        self.membership_version += 1;
        self.cached_availability = None;
    }

    /// Records that server confidences changed under the replica set
    /// (health-EWMA updates at epoch start): drops the memoized
    /// availability so eq. (2) re-evaluates, **without** bumping the
    /// membership version — the replica set itself is intact, so
    /// speculative per-vnode precomputations remain valid.
    pub fn note_confidence_changed(&mut self) {
        self.cached_availability = None;
    }

    /// The logical size of one replica of this partition: synthetic bytes
    /// plus the largest materialized store among replicas (replicas converge
    /// to identical contents; the max is the safe transfer size).
    pub fn size_bytes(&self) -> u64 {
        let stored = self
            .replicas
            .iter()
            .map(|r| r.store.logical_bytes())
            .max()
            .unwrap_or(0);
        self.synthetic_bytes + stored
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The servers currently hosting a replica, in replica order.
    pub fn replica_servers(&self) -> Vec<ServerId> {
        self.replicas.iter().map(|r| r.server).collect()
    }

    /// True when some replica lives on `server`.
    pub fn has_replica_on(&self, server: ServerId) -> bool {
        self.replicas.iter().any(|r| r.server == server)
    }

    /// Resets the per-epoch accumulators of the partition and its replicas.
    /// The availability cache is *not* reset: it depends only on replica
    /// membership, not on epoch-scoped meters.
    pub fn begin_epoch(&mut self) {
        self.region_queries.clear();
        self.prox_cache.clear();
        self.queries_epoch = 0.0;
        self.write_bytes_epoch = 0;
        self.delivery.ready = false;
        for r in &mut self.replicas {
            r.begin_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skute_store::{Record, Version};

    #[test]
    fn replica_epoch_reset() {
        let mut r = Replica::new(VnodeId(1), ServerId(0), 3, 0);
        r.utility_epoch = 5.0;
        r.queries_epoch = 10.0;
        r.begin_epoch();
        assert_eq!(r.utility_epoch, 0.0);
        assert_eq!(r.queries_epoch, 0.0);
    }

    #[test]
    fn partition_size_combines_synthetic_and_store() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.synthetic_bytes = 1000;
        assert_eq!(p.size_bytes(), 1000);
        let mut r = Replica::new(VnodeId(1), ServerId(0), 3, 0);
        assert!(r.store.apply(
            &b"key"[..],
            Record::put(&b"0123456789"[..], Version::new(1, 0, 0))
        ));
        p.replicas.push(r);
        assert_eq!(p.size_bytes(), 1000 + 3 + 10);
    }

    #[test]
    fn replica_servers_and_membership() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.replicas.push(Replica::new(VnodeId(1), ServerId(4), 3, 0));
        p.replicas.push(Replica::new(VnodeId(2), ServerId(9), 3, 0));
        assert_eq!(p.replica_servers(), vec![ServerId(4), ServerId(9)]);
        assert!(p.has_replica_on(ServerId(9)));
        assert!(!p.has_replica_on(ServerId(5)));
        assert_eq!(p.replica_count(), 2);
    }

    #[test]
    fn partition_epoch_reset_clears_accumulators() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.queries_epoch = 12.0;
        p.write_bytes_epoch = 77;
        p.region_queries.push(RegionQueries {
            location: skute_geo::Location::client_in_country(0, 0),
            queries: 12.0,
        });
        let topo = skute_geo::Topology::paper();
        let _ = p.prox_cache.g(
            &p.region_queries.clone(),
            &skute_geo::Location::new(0, 0, 0, 0, 0, 0),
            &topo,
        );
        assert!(!p.prox_cache.is_empty());
        p.begin_epoch();
        assert_eq!(p.queries_epoch, 0.0);
        assert_eq!(p.write_bytes_epoch, 0);
        assert!(p.region_queries.is_empty());
        assert!(p.prox_cache.is_empty(), "stale proximity must not survive");
    }

    #[test]
    fn display_vnode_id() {
        assert_eq!(VnodeId(8).to_string(), "v8");
    }

    #[test]
    fn membership_note_bumps_version_and_drops_availability() {
        let mut p = PartitionState::new(PartitionId(0), 1.0);
        p.cached_availability = Some(63.0);
        let v0 = p.membership_version;
        p.note_membership_changed();
        assert_eq!(p.membership_version, v0 + 1);
        assert_eq!(p.cached_availability, None);
        // Epoch reset keeps the cache (membership did not change) but
        // invalidates any stale delivery plan.
        p.cached_availability = Some(63.0);
        p.delivery.ready = true;
        p.begin_epoch();
        assert_eq!(p.cached_availability, Some(63.0));
        assert!(!p.delivery.ready);
    }
}
