//! The epoch pipeline's plan and report passes.
//!
//! [`crate::SkuteCloud`] runs every epoch through three phases — **traffic
//! delivery**, **availability repair**, **economic decisions** — each
//! structured as
//!
//! 1. a **plan pass**: pure per-partition computation against state that
//!    is immutable for the duration of the phase (server locations,
//!    confidences, posted rents, the refreshed [`PlacementIndex`]
//!    snapshot), writing only partition-local state and the pipeline's
//!    reusable scratch;
//! 2. a **commit pass** that applies every effect on shared state —
//!    capacity meters, rent-board-indexed structures, executed actions —
//!    in a fixed order (ring/partition order for traffic, the seeded
//!    shuffle order for decisions).
//!
//! The engine is single-threaded: every pass runs in place over the
//! rings' partition maps. The only randomness in the epoch loop (the
//! repair and decision shuffles, server seeding) is the cloud's seeded
//! RNG stream, so same-seed trajectories are bitwise identical.
//!
//! Speculative placement targets computed by the decision plan pass carry
//! their walk's **read set** ([`WalkScratch`] records every candidate
//! entry a query examined); the commit pass tracks the servers each
//! committed action touches and honors a later speculation only when
//! `crate::placement::validate_speculation` proves those touches cannot
//! have changed its answer — otherwise it re-runs on the live state
//! exactly as a fresh walk would. Honored or re-walked, the executed
//! action is bit-identical to a fresh walk (property-tested, and asserted
//! end-to-end against the `SkuteConfig::no_speculation` oracle that
//! re-walks everything).

use std::collections::BTreeMap;

use skute_cluster::{Board, Cluster, ServerId};
use skute_economy::{floored_utility, EconomyConfig, ProximityCache, RegionQueries};
use skute_geo::{Location, RegionWeight, Topology};

use crate::availability::availability_of;
use crate::decision::{classify, Intent, VnodeSituation};
use crate::metrics::mean_cv;
use crate::placement::{economic_target, PlacementContext, PlacementIndex, WalkScratch};
use crate::vnode::PartitionState;

/// Everything one virtual node's economic decision needs that is fixed for
/// the duration of the decision phase, precomputed by the plan
/// pass and consumed by the sequential commit pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PreDecision {
    /// The vnode's server had no posted rent: the commit pass skips the
    /// item entirely (matching the sequential loop's `continue`).
    pub skip: bool,
    /// Posted rent of the hosting server this epoch.
    pub rent: f64,
    /// Floored eq.-(5) utility earned this epoch.
    pub u_eff: f64,
    /// Consistency network cost of one extra replica.
    pub consistency_cost: f64,
    /// Partition membership version the situation below was computed at;
    /// a mismatch at commit time means an earlier committed action changed
    /// the partition and the situation must be recomputed live.
    pub membership_version: u64,
    /// Replica count at plan time.
    pub replica_count: usize,
    /// Eq.-(2) availability of the partition without this replica.
    pub availability_without_self: f64,
    /// Balance-window streaks and mean, read *after* recording this
    /// epoch's balance (the plan pass owns the recording).
    pub negative_streak: bool,
    /// See `negative_streak`.
    pub positive_streak: bool,
    /// Mean balance over the window, if any history exists.
    pub window_mean: Option<f64>,
    /// True when the plan pass ran a speculative eq.-(3) target query for
    /// this vnode (its planned intent needed one).
    pub spec_computed: bool,
    /// The speculative target (`None` = no feasible candidate), honored
    /// at commit time while its read set is untouched by the preceding
    /// committed actions (see `crate::placement::validate_speculation`).
    pub spec: Option<(ServerId, f64)>,
    /// Start of this speculation's read set in the pipeline's flat arena
    /// ([`EpochPipeline::spec_reads`]; empty in release builds, where
    /// validation rests on the dominance theorem instead of per-server
    /// read lookups).
    pub spec_reads_start: u32,
    /// Length of the read-set slice.
    pub spec_reads_len: u32,
    /// The speculative query read every candidate (oracle-scan paths:
    /// brute-force routing, client-zone region mixes), so the debug
    /// cross-check re-scores every weakened touched server.
    pub spec_reads_all: bool,
}

/// Scratch of the decision plan pass, reused across epochs.
#[derive(Debug, Clone, Default)]
struct DecisionScratch {
    walk: WalkScratch,
    servers: Vec<ServerId>,
    placed: Vec<(Location, f64)>,
}

/// Per-ring aggregates of the epoch report, folded in partition order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingPhaseStats {
    pub vnodes: usize,
    pub mean_availability: f64,
    pub min_availability: f64,
    pub sla_satisfied_frac: f64,
    pub load_cv: f64,
}

/// Borrowed view of the decision plan pass's shared inputs (the cloud's
/// fields).
pub(crate) struct DecisionInputs<'a> {
    pub cluster: &'a Cluster,
    pub board: &'a Board,
    pub topology: &'a Topology,
    pub economy: &'a EconomyConfig,
    pub index: &'a PlacementIndex,
    pub brute_force: bool,
    /// False routes the `SkuteConfig::no_speculation` oracle: the plan
    /// pass computes no speculative targets, so the commit pass re-walks
    /// every acting vnode on the live state. Bitwise-identical
    /// trajectories either way.
    pub speculation: bool,
    pub min_rent: Option<f64>,
}

/// Reusable scratch of the epoch loop: per-vnode decision slots, the
/// speculation read-set arena and the report accumulators. Owned by
/// [`crate::SkuteCloud`].
#[derive(Debug, Default)]
pub(crate) struct EpochPipeline {
    /// Per-vnode decision precomputation (indexed by work-list slot).
    pub(crate) pre: Vec<PreDecision>,
    /// Scratch of the decision plan pass.
    scratch: DecisionScratch,
    /// Flat arena of every speculative walk's sorted read set, indexed by
    /// the `spec_reads_start`/`spec_reads_len` of each [`PreDecision`]
    /// slot. Rebuilt by every decision plan pass.
    pub(crate) spec_reads: Vec<ServerId>,
    /// Per-server served-query loads of the current ring, in server-id
    /// order.
    loads: Vec<(ServerId, f64)>,
    loads_flat: Vec<f64>,
    /// Cross-ring per-server vnode counts of the current report, in
    /// server-id order.
    vnodes_global: Vec<(ServerId, usize)>,
}

impl EpochPipeline {
    /// Precomputes every vnode's decision inputs — balance recording,
    /// streaks, availability-without-self, and (for vnodes whose planned
    /// intent needs one) a speculative eq.-(3) target against the frozen
    /// index snapshot — filling [`EpochPipeline::pre`] in flat
    /// (ring, partition, replica) enumeration order. The commit pass
    /// consumes the slots in the seeded shuffle order. `items` must yield
    /// `(threshold, partition)` in flat (ring, partition) order.
    pub(crate) fn decisions_prepass<'a>(
        &mut self,
        items: impl Iterator<Item = (f64, &'a mut PartitionState)>,
        inputs: &DecisionInputs<'_>,
    ) {
        let Self {
            pre,
            scratch,
            spec_reads,
            ..
        } = self;
        pre.clear();
        spec_reads.clear();
        for (threshold, part) in items {
            plan_one_decision(threshold, part, inputs, pre, scratch, spec_reads);
        }
    }

    /// Starts a new epoch report (clears the cross-ring accumulators).
    pub(crate) fn begin_report(&mut self) {
        self.vnodes_global.clear();
    }

    /// Computes one ring's report aggregates in partition order:
    /// availabilities (via the memoized cache) fold into their sum, min
    /// and SLA count; per-server served-query loads and vnode counts
    /// accumulate in server-id order.
    pub(crate) fn ring_stats<'a>(
        &mut self,
        cluster: &Cluster,
        parts: impl Iterator<Item = &'a mut PartitionState>,
        threshold: f64,
    ) -> RingPhaseStats {
        self.loads.clear();
        let mut n = 0usize;
        let mut vnodes = 0usize;
        let mut availability_sum = 0.0f64;
        let mut min_availability = f64::INFINITY;
        let mut sla_ok = 0usize;
        for part in parts {
            n += 1;
            let a = cached_availability(cluster, part);
            availability_sum += a;
            min_availability = min_availability.min(a);
            if a >= threshold {
                sla_ok += 1;
            }
            for r in &part.replicas {
                vnodes += 1;
                *sorted_slot(&mut self.vnodes_global, r.server) += 1;
                *sorted_slot(&mut self.loads, r.server) += r.queries_epoch;
            }
        }
        self.loads_flat.clear();
        self.loads_flat.extend(self.loads.iter().map(|&(_, l)| l));
        let (_, load_cv) = mean_cv(&self.loads_flat);
        if n == 0 {
            return RingPhaseStats {
                vnodes,
                mean_availability: 0.0,
                min_availability: 0.0,
                sla_satisfied_frac: 1.0,
                load_cv,
            };
        }
        RingPhaseStats {
            vnodes,
            mean_availability: availability_sum / n as f64,
            min_availability,
            sla_satisfied_frac: sla_ok as f64 / n as f64,
            load_cv,
        }
    }

    /// The epoch's per-server vnode distribution: every alive server
    /// (zero-seeded) plus the counts accumulated by
    /// [`EpochPipeline::ring_stats`] since [`EpochPipeline::begin_report`].
    pub(crate) fn vnodes_map(&self, cluster: &Cluster) -> BTreeMap<ServerId, usize> {
        let mut map: BTreeMap<ServerId, usize> = cluster.alive().map(|s| (s.id, 0usize)).collect();
        for &(id, count) in &self.vnodes_global {
            *map.entry(id).or_insert(0) += count;
        }
        map
    }
}

/// The slot of `key` in a server-id-sorted accumulator, inserted
/// zero-valued on first sight.
fn sorted_slot<V: Default>(acc: &mut Vec<(ServerId, V)>, key: ServerId) -> &mut V {
    let pos = match acc.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(pos) => pos,
        Err(pos) => {
            acc.insert(pos, (key, V::default()));
            pos
        }
    };
    &mut acc[pos].1
}

/// One partition's delivery plan: region-mix fold, proximity refresh, and
/// per-replica weights/distances/serving order. Pure per-partition work
/// against immutable cluster state.
pub(crate) fn plan_one_delivery(
    part: &mut PartitionState,
    cluster: &Cluster,
    topology: &Topology,
    regions: &[RegionWeight],
    total_queries: f64,
    total_pop: f64,
) {
    part.delivery.ready = false;
    let q = total_queries * part.popularity / total_pop;
    if q <= 0.0 {
        return;
    }
    part.queries_epoch += q;
    for region in regions {
        let add = q * region.weight;
        if add <= 0.0 {
            continue;
        }
        match part
            .region_queries
            .iter_mut()
            .find(|r| r.location == region.location)
        {
            Some(r) => r.queries += add,
            None => part.region_queries.push(RegionQueries {
                location: region.location,
                queries: add,
            }),
        }
    }
    // The region mix just changed: drop stale memoized proximity, then
    // refill it while computing the per-replica weights. Placement
    // decisions later in the epoch reuse the refilled cache.
    part.prox_cache.clear();
    let PartitionState {
        region_queries,
        prox_cache,
        replicas,
        delivery,
        ..
    } = &mut *part;
    delivery.gs.clear();
    delivery.dists.clear();
    for r in replicas.iter() {
        match cluster.get(r.server) {
            Some(s) => {
                // Per-replica proximity, memoized per country.
                delivery
                    .gs
                    .push(prox_cache.g(region_queries, &s.location, topology));
                // Region-weighted client distance of the replica (latency
                // proxy, diversity units).
                delivery.dists.push(
                    regions
                        .iter()
                        .map(|reg| {
                            reg.weight * f64::from(skute_geo::diversity(&reg.location, &s.location))
                        })
                        .sum(),
                );
            }
            None => {
                delivery.gs.push(1.0);
                delivery.dists.push(0.0);
            }
        }
    }
    delivery.order.clear();
    delivery.order.extend(0..replicas.len());
    let gs = &delivery.gs;
    delivery.order.sort_by(|&a, &b| gs[b].total_cmp(&gs[a]));
    delivery.q = q;
    delivery.sum_g = delivery.gs.iter().sum();
    delivery.ready = true;
}

/// One partition's slice of the decision plan pass: records balances,
/// evaluates each vnode's situation against the phase-start membership,
/// runs speculative target queries, and pushes one [`PreDecision`] per
/// replica in replica order.
fn plan_one_decision(
    threshold: f64,
    part: &mut PartitionState,
    ctx: &DecisionInputs<'_>,
    slots: &mut Vec<PreDecision>,
    scratch: &mut DecisionScratch,
    reads: &mut Vec<ServerId>,
) {
    let pctx = PlacementContext {
        cluster: ctx.cluster,
        board: ctx.board,
        topology: ctx.topology,
        economy: ctx.economy,
    };
    let mib = 1024.0 * 1024.0;
    let consistency_cost =
        ctx.economy.consistency_cost_per_mib * (part.write_bytes_epoch as f64 / mib);
    let n = part.replicas.len();
    for idx in 0..n {
        let mut pre = PreDecision::default();
        let server = part.replicas[idx].server;
        let Some(rent) = ctx.board.price_of(server) else {
            // Server vanished mid-epoch; the replica was removed and the
            // commit pass skips the item.
            pre.skip = true;
            slots.push(pre);
            continue;
        };
        let u_eff = floored_utility(part.replicas[idx].utility_epoch, ctx.min_rent);
        let balance = u_eff - rent;
        scratch.placed.clear();
        for (i, r) in part.replicas.iter().enumerate() {
            if i == idx {
                continue;
            }
            if let Some(s) = ctx.cluster.get(r.server) {
                scratch.placed.push((s.location, s.confidence));
            }
        }
        part.replicas[idx].balance.record(balance);
        pre.rent = rent;
        pre.u_eff = u_eff;
        pre.consistency_cost = consistency_cost;
        pre.membership_version = part.membership_version;
        pre.replica_count = n;
        pre.availability_without_self = availability_of(&scratch.placed);
        pre.negative_streak = part.replicas[idx].balance.negative_streak();
        pre.positive_streak = part.replicas[idx].balance.positive_streak();
        pre.window_mean = part.replicas[idx].balance.window_mean();
        let situation = VnodeSituation {
            negative_streak: pre.negative_streak,
            positive_streak: pre.positive_streak,
            window_mean: pre.window_mean,
            availability_without_self: pre.availability_without_self,
            threshold,
            replica_count: n,
            max_replicas: ctx.economy.max_replicas,
            current_rent: rent,
            projected_replica_cost: ctx.min_rent.unwrap_or(0.0) + consistency_cost,
            hurdle: ctx.economy.replication_hurdle,
        };
        match classify(&situation) {
            Intent::Stay | Intent::Suicide => {}
            Intent::Migrate if ctx.speculation => {
                scratch.servers.clear();
                for (i, r) in part.replicas.iter().enumerate() {
                    if i != idx {
                        scratch.servers.push(r.server);
                    }
                }
                let size = part.synthetic_bytes + part.replicas[idx].store.logical_bytes();
                let rent_cap = rent * (1.0 - ctx.economy.migration_margin);
                let PartitionState {
                    region_queries,
                    prox_cache,
                    ..
                } = &mut *part;
                pre.spec = speculate(
                    ctx.index,
                    ctx.brute_force,
                    &pctx,
                    &scratch.servers,
                    size,
                    region_queries,
                    prox_cache,
                    Some(rent_cap),
                    &mut scratch.walk,
                );
                pre.spec_computed = true;
                record_spec_reads(&mut pre, &scratch.walk, reads);
            }
            Intent::ReplicateForProfit if ctx.speculation => {
                scratch.servers.clear();
                scratch
                    .servers
                    .extend(part.replicas.iter().map(|r| r.server));
                let size = part.size_bytes();
                let PartitionState {
                    region_queries,
                    prox_cache,
                    ..
                } = &mut *part;
                pre.spec = speculate(
                    ctx.index,
                    ctx.brute_force,
                    &pctx,
                    &scratch.servers,
                    size,
                    region_queries,
                    prox_cache,
                    None,
                    &mut scratch.walk,
                );
                pre.spec_computed = true;
                record_spec_reads(&mut pre, &scratch.walk, reads);
            }
            // The `no_speculation` oracle: leave `spec_computed` unset so
            // the commit pass re-walks on the live state.
            Intent::Migrate | Intent::ReplicateForProfit => {}
        }
        slots.push(pre);
    }
}

/// Memoized eq.-(2) availability of a partition's current replica set,
/// computing and caching on miss. Bit-identical to the direct evaluation:
/// the placed list is built in replica order, exactly as the sequential
/// loops always did, and locations/confidences are immutable.
pub(crate) fn cached_availability(cluster: &Cluster, part: &mut PartitionState) -> f64 {
    if let Some(a) = part.cached_availability {
        return a;
    }
    let mut placed: Vec<(Location, f64)> = Vec::with_capacity(part.replicas.len());
    for r in &part.replicas {
        if let Some(s) = cluster.get(r.server) {
            placed.push((s.location, s.confidence));
        }
    }
    let a = availability_of(&placed);
    part.cached_availability = Some(a);
    a
}

/// One speculative eq.-(3) target query of the decision plan pass: the
/// read-only index walk (or the pure oracle scan when the cloud is routed
/// brute-force), bit-identical to the owned-access query the commit pass
/// would run against the same snapshot. The walk scratch records the
/// query's read set (the oracle scan reads everything).
#[allow(clippy::too_many_arguments)]
fn speculate(
    index: &PlacementIndex,
    brute_force: bool,
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    prox: &mut ProximityCache,
    rent_below: Option<f64>,
    walk: &mut WalkScratch,
) -> Option<(ServerId, f64)> {
    if brute_force {
        walk.mark_reads_all();
        economic_target(ctx, existing, partition_size, region_queries, rent_below)
    } else {
        index.economic_target_in(
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
            walk,
        )
    }
}

/// Copies the last speculative walk's read set into the arena and stamps
/// the slot's offsets, or marks the slot full-scan when the query
/// read every candidate. Debug-build machinery like the recording itself:
/// release validation never consults the per-server reads (see
/// `crate::placement::validate_speculation`), so release arenas stay
/// empty.
fn record_spec_reads(pre: &mut PreDecision, walk: &WalkScratch, reads: &mut Vec<ServerId>) {
    if walk.reads_all() {
        pre.spec_reads_all = true;
        return;
    }
    if !cfg!(debug_assertions) {
        return;
    }
    let start = reads.len();
    reads.extend_from_slice(walk.reads());
    pre.spec_reads_start = start as u32;
    pre.spec_reads_len = (reads.len() - start) as u32;
}
