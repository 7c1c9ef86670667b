//! Replica target selection: eq. (3), an incrementally maintained
//! rent-sorted candidate index, and the pluggable strategy interface.

use skute_cluster::{Board, Cluster, ServerId};
use skute_economy::{candidate_score, proximity, EconomyConfig, ProximityCache, RegionQueries};
use skute_geo::{Location, Topology};

/// Read-only view of the cloud a placement strategy may consult.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// The physical servers.
    pub cluster: &'a Cluster,
    /// Posted virtual rents of the current epoch.
    pub board: &'a Board,
    /// The geographic layout.
    pub topology: &'a Topology,
    /// Economy tunables (diversity unit value, etc.).
    pub economy: &'a EconomyConfig,
}

/// A replica placement policy.
///
/// Skute's economic policy is [`EconomicPlacement`]; `skute-baseline`
/// provides random, successor-list, cheapest-first and max-spread
/// alternatives behind this same interface so the comparison benches can
/// swap policies without touching the harness.
pub trait PlacementStrategy {
    /// Human-readable policy name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Chooses a server to host a new replica of a partition whose replicas
    /// currently live on `existing`, or `None` if no feasible server exists.
    ///
    /// `partition_size` is the bytes the new replica will occupy;
    /// `region_queries` is the partition's observed per-region query volume
    /// (used by proximity-aware policies).
    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
    ) -> Option<ServerId>;
}

/// Eq. (1) evaluated on a server's live meters (which include storage
/// reserved by placements earlier in the same decision phase) plus
/// `partition_size` bytes being placed. **The one copy** of the projected
/// rent arithmetic: the oracle scan, the speculative-walk validation and
/// the write-set rent cache all call it, so their floats cannot drift.
/// `partition_size = 0` yields the base rent that lower-bounds any
/// placement's projected rent (bit-monotone in the added bytes).
fn projected_rent(
    server: &skute_cluster::Server,
    partition_size: u64,
    economy: &EconomyConfig,
) -> f64 {
    let up = server.marginal_price.price(server.monthly_cost);
    let added_frac = if server.capacities.storage_bytes == 0 {
        1.0
    } else {
        partition_size as f64 / server.capacities.storage_bytes as f64
    };
    let projected_storage = (server.storage_frac() + added_frac).min(1.0);
    up * (1.0 + economy.alpha * projected_storage + economy.beta * server.query_load_frac())
}

/// Enumerates feasible candidates: alive, not already hosting the
/// partition, enough free storage, and (optionally) cheaper than
/// `rent_below`.
///
/// The rent returned per candidate is **projected**: the posted board price
/// plus the eq.-(1) storage term the new replica itself would add
/// (`up · α · size/capacity`). §II-C requires accounting for "the
/// potentially increased virtual rent of the candidate server … after
/// replication"; because storage reservations land immediately while board
/// prices only refresh at epoch boundaries, the projection also gives
/// within-epoch feedback that stops every concurrently repairing partition
/// from herding onto the one currently-cheapest server.
pub fn feasible_candidates<'a>(
    ctx: &'a PlacementContext<'a>,
    existing: &'a [ServerId],
    partition_size: u64,
    rent_below: Option<f64>,
) -> impl Iterator<Item = (ServerId, Location, f64, f64)> + 'a {
    ctx.cluster.alive().filter_map(move |server| {
        if existing.contains(&server.id) {
            return None;
        }
        if server.storage_free() < partition_size {
            return None;
        }
        // A server must be posted on the board to be rentable at all.
        ctx.board.price_of(server.id)?;
        let rent = projected_rent(server, partition_size, ctx.economy);
        if let Some(cap) = rent_below {
            if rent >= cap {
                return None;
            }
        }
        Some((server.id, server.location, server.confidence, rent))
    })
}

/// Eq. (3): picks the feasible candidate maximizing
/// `g_j · conf_j · Σ_k diversity(s_k, s_j) · v − c_j`.
///
/// `rent_below` restricts the search to servers cheaper than the given rent
/// (the migration case: "find a less expensive server that is closer to the
/// client locations"). Returns the winner and its score.
pub fn economic_target(
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    rent_below: Option<f64>,
) -> Option<(ServerId, f64)> {
    let existing_locations: Vec<Location> = existing
        .iter()
        .filter_map(|id| ctx.cluster.get(*id).map(|s| s.location))
        .collect();
    feasible_candidates(ctx, existing, partition_size, rent_below)
        .map(|(id, location, confidence, rent)| {
            let g = proximity(region_queries, &location, ctx.topology);
            let score = candidate_score(
                &existing_locations,
                &location,
                confidence,
                rent,
                g,
                ctx.economy.diversity_unit_value,
            );
            (id, score)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
}

/// One feasibility-relevant snapshot of a candidate server, cached by
/// [`PlacementIndex`].
#[derive(Debug, Clone, Copy)]
struct CandidateEntry {
    id: ServerId,
    location: Location,
    confidence: f64,
    /// Marginal usage price `up` of eq. (1).
    up: f64,
    /// Live storage fraction at index-build time.
    storage_frac: f64,
    /// Live query-load fraction at index-build time.
    query_frac: f64,
    storage_capacity: u64,
    storage_free: u64,
    /// Eq.-(1) rent with no replica added (`size = 0`): a lower bound on
    /// the projected rent of any placement, and the sort key of the walk.
    base_rent: f64,
    /// The rent posted on the board (what rent-greedy baselines compare).
    posted: f64,
}

/// All snapshotted candidates of one continent, rent-sorted.
#[derive(Debug, Clone, Default)]
struct ContinentBucket {
    continent: u16,
    /// Sorted by `(base_rent, id)` ascending.
    entries: Vec<CandidateEntry>,
    /// One representative location per distinct country in the bucket
    /// (proximity is constant within a country; see [`ProximityCache`]).
    reps: Vec<Location>,
    conf_max: f64,
    /// Identifies this bucket's `reps` set to proximity caches across
    /// queries (unique per index instance, reassigned on rebuild).
    token: u64,
}

/// An incrementally maintained, rent-sorted view of the feasible candidate
/// set that answers eq.-(3) target queries without scanning every alive
/// server.
///
/// The index snapshots every board-posted alive server (location,
/// confidence, usage fractions, marginal price), grouped by continent and
/// sorted within each group by **base rent** — the projected eq.-(1) rent
/// of a zero-byte placement, which lower-bounds the projected rent of any
/// real placement. A query runs a best-first merge over the group heads:
/// each continent's next-cheapest candidate is bounded by
///
/// `g_max(continent) · conf_max(continent) · div_ub(continent) · v − base_rent`
///
/// where `div_ub` counts 63 per existing replica on another continent and
/// 31 per replica on the same one — the diversity sum any candidate of the
/// continent can at most reach — and the walk stops as soon as every
/// remaining head's bound falls below the best score found. Every factor
/// upper-bounds the corresponding factor of the eq.-(3) score and
/// floating-point rounding is monotone for these non-negative products, so
/// the cutoff is sound bit-for-bit: the walk returns **exactly** the
/// winner (and tie-break) of the brute-force [`economic_target`] scan,
/// which stays available as the equivalence oracle for tests and
/// baselines.
///
/// Staleness is detected via [`Cluster::version`] and [`Board::version`]:
/// the snapshot is rebuilt only when prices or usage meters actually
/// changed, and the cloud reports executed actions through
/// [`PlacementIndex::note_servers_changed`] so one placement repositions
/// two entries instead of forcing a rebuild.
#[derive(Debug, Clone, Default)]
pub struct PlacementIndex {
    /// Buckets sorted by continent index.
    buckets: Vec<ContinentBucket>,
    /// Candidates inside a synthetic client zone defeat the country-level
    /// proximity bound; fall back to the brute-force oracle when present.
    has_client_zone: bool,
    stamp: Option<(u64, u64)>,
    /// Source of bucket tokens; never reused within one index.
    next_token: u64,
    /// Walk scratch of the owned-access query path; read-only snapshot
    /// queries ([`PlacementIndex::economic_target_in`]) bring their own.
    walk: WalkScratch,
    /// Servers whose executed actions invalidated their entries, queued by
    /// [`PlacementIndex::queue_servers_changed`] during a commit pass and
    /// applied at the next read (phase barrier or query).
    queued: Vec<ServerId>,
}

/// Reusable scratch buffers of one best-first index walk. The read-only
/// snapshot path takes them from the caller, so the decision plan pass
/// can walk a shared index while holding its own scratch.
///
/// Besides the walk buffers, the scratch records the walk's **read set**:
/// the ids of every candidate entry whose snapshot fields the last query
/// actually examined (popped heads, including entries rejected for
/// storage, rent cap or membership — their fields steered the walk). A
/// query that routes through the full-cluster oracle scan instead marks
/// [`WalkScratch::reads_all`]. Speculative queries keep the read set so a
/// later commit can decide whether a mutation to some server could have
/// changed the answer (see [`validate_speculation`]).
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    existing_locs: Vec<Location>,
    /// Per-bucket head cursor and gain bound.
    heads: Vec<usize>,
    gains: Vec<f64>,
    /// Entry ids examined by the last query (unordered).
    reads: Vec<ServerId>,
    /// The last query fell back to a full scan: every candidate was read.
    reads_all: bool,
}

impl WalkScratch {
    /// Server entries the last query examined. Meaningless when
    /// [`WalkScratch::reads_all`] is set.
    pub fn reads(&self) -> &[ServerId] {
        &self.reads
    }

    /// True when the last query read every candidate (oracle scan paths:
    /// brute-force routing, client-zone region mixes, stale snapshots).
    pub fn reads_all(&self) -> bool {
        self.reads_all
    }

    /// Marks the last query as a full scan (callers that answer through
    /// the brute-force oracle without running the walk).
    pub fn mark_reads_all(&mut self) {
        self.reads.clear();
        self.reads_all = true;
    }
}

impl PlacementIndex {
    /// An empty index; the first query builds it.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry_fields(
        server: &skute_cluster::Server,
        economy: &EconomyConfig,
        posted: f64,
    ) -> CandidateEntry {
        let up = server.marginal_price.price(server.monthly_cost);
        let storage_frac = server.storage_frac();
        let query_frac = server.query_load_frac();
        let base_rent = up * (1.0 + economy.alpha * storage_frac + economy.beta * query_frac);
        CandidateEntry {
            id: server.id,
            location: server.location,
            confidence: server.confidence,
            up,
            storage_frac,
            query_frac,
            storage_capacity: server.capacities.storage_bytes,
            storage_free: server.storage_free(),
            base_rent,
            posted,
        }
    }

    /// Queues servers whose entries went stale (an action just executed on
    /// them). Applied lazily by the next read — the next query of a commit
    /// pass, or the refresh at the next phase barrier — so commit loops
    /// never pay for repositions nothing will read.
    pub fn queue_servers_changed(&mut self, ids: &[ServerId]) {
        self.queued.extend_from_slice(ids);
    }

    fn flush_queued(&mut self, ctx: &PlacementContext<'_>) {
        if self.queued.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.queued);
        self.note_servers_changed(ctx, &ids);
        self.queued = ids;
        self.queued.clear();
    }

    /// Rebuilds the snapshot iff the cluster or board changed since the
    /// last build (queued invalidations are applied first, which usually
    /// re-synchronizes the stamp without a rebuild). Returns `true` when a
    /// rebuild happened (test hook).
    pub fn refresh(&mut self, ctx: &PlacementContext<'_>) -> bool {
        self.flush_queued(ctx);
        let stamp = (ctx.cluster.version(), ctx.board.version());
        if self.stamp == Some(stamp) {
            return false;
        }
        self.buckets.clear();
        self.has_client_zone = false;
        for server in ctx.cluster.alive() {
            let Some(posted) = ctx.board.price_of(server.id) else {
                continue;
            };
            let entry = Self::entry_fields(server, ctx.economy, posted);
            let continent = server.location.continent;
            let bi = match self
                .buckets
                .binary_search_by_key(&continent, |b| b.continent)
            {
                Ok(bi) => bi,
                Err(bi) => {
                    self.buckets.insert(
                        bi,
                        ContinentBucket {
                            continent,
                            ..ContinentBucket::default()
                        },
                    );
                    bi
                }
            };
            let bucket = &mut self.buckets[bi];
            bucket.entries.push(entry);
            if server.confidence > bucket.conf_max {
                bucket.conf_max = server.confidence;
            }
            if server.location.is_client_zone() {
                self.has_client_zone = true;
            } else if !bucket
                .reps
                .iter()
                .any(|l| l.country_key() == server.location.country_key())
            {
                bucket.reps.push(server.location);
            }
        }
        for bucket in &mut self.buckets {
            bucket.entries.sort_unstable_by(|a, b| {
                a.base_rent
                    .total_cmp(&b.base_rent)
                    .then_with(|| a.id.cmp(&b.id))
            });
            bucket.token = self.next_token;
            self.next_token += 1;
        }
        self.stamp = Some(stamp);
        true
    }

    /// Surgically refreshes the entries of `ids` after the caller mutated
    /// **only those servers** since the snapshot was last in sync, then
    /// re-stamps the snapshot as current — so executing a placement action
    /// costs two entry repositions instead of a full rebuild before the
    /// next decision.
    ///
    /// Contract: between the last [`PlacementIndex::refresh`] (or previous
    /// note) and this call, no server outside `ids` may have changed in
    /// any way that affects rent, storage or liveness. `SkuteCloud`
    /// upholds this by noting the touched servers immediately after every
    /// executed replication/migration/suicide. Board changes void the
    /// contract and drop the snapshot so the next query rebuilds.
    pub fn note_servers_changed(&mut self, ctx: &PlacementContext<'_>, ids: &[ServerId]) {
        let Some((_, board_version)) = self.stamp else {
            return; // never built; the next query will build it
        };
        if ctx.board.version() != board_version {
            self.stamp = None;
            return;
        }
        for &id in ids {
            let pos =
                self.buckets.iter().enumerate().find_map(|(bi, b)| {
                    b.entries.iter().position(|e| e.id == id).map(|ei| (bi, ei))
                });
            let server = ctx
                .cluster
                .get_alive(id)
                .and_then(|s| ctx.board.price_of(s.id).map(|p| (s, p)));
            match (pos, server) {
                (Some((bi, ei)), Some((server, posted))) => {
                    // Locations never change, so the entry stays in its
                    // bucket; only its rent fields (and thus position) move.
                    let entry = Self::entry_fields(server, ctx.economy, posted);
                    let bucket = &mut self.buckets[bi];
                    bucket.entries.remove(ei);
                    let at = bucket.entries.partition_point(|e| {
                        matches!(
                            e.base_rent
                                .total_cmp(&entry.base_rent)
                                .then_with(|| e.id.cmp(&entry.id)),
                            std::cmp::Ordering::Less
                        )
                    });
                    bucket.entries.insert(at, entry);
                }
                (Some((bi, ei)), None) => {
                    // Retired or withdrawn mid-phase; conf_max and the
                    // country representatives stay as (sound) over-bounds.
                    self.buckets[bi].entries.remove(ei);
                }
                (None, Some(_)) => {
                    // A server this snapshot never saw (e.g. commissioned
                    // mid-phase): the surgical contract cannot cover its
                    // country/confidence bounds — rebuild instead.
                    self.stamp = None;
                    return;
                }
                (None, None) => {}
            }
        }
        self.stamp = Some((ctx.cluster.version(), board_version));
    }

    /// Number of candidates currently snapshotted (test hook).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }

    /// True when no candidate is snapshotted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eq. (3) over the index: same contract — and bit-identical result —
    /// as the brute-force [`economic_target`], but running a bounded
    /// best-first walk over the per-continent rent-sorted buckets, and
    /// reading per-country proximity through `prox` instead of recomputing
    /// it per candidate.
    ///
    /// `prox` must have been filled (or cleared) against the same
    /// `region_queries` it is handed here.
    pub fn economic_target(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
        rent_below: Option<f64>,
        prox: &mut ProximityCache,
    ) -> Option<(ServerId, f64)> {
        self.refresh(ctx);
        let Self {
            buckets,
            has_client_zone,
            walk,
            ..
        } = self;
        walk_economic_target(
            buckets,
            *has_client_zone,
            walk,
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
        )
    }

    /// The read-only variant of [`PlacementIndex::economic_target`] for
    /// snapshot queries: the caller owns the walk scratch, the index is
    /// only read, and the snapshot must already
    /// be current — [`PlacementIndex::refresh`] at the phase barrier, no
    /// cluster/board mutation since. Bit-identical to the owned path.
    ///
    /// A stale snapshot is a caller bug (asserted in debug builds), but
    /// release builds stay correct rather than silently wrong: the query
    /// detects the version mismatch and answers through the brute-force
    /// oracle scan of the live state.
    #[allow(clippy::too_many_arguments)]
    pub fn economic_target_in(
        &self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
        rent_below: Option<f64>,
        prox: &mut ProximityCache,
        walk: &mut WalkScratch,
    ) -> Option<(ServerId, f64)> {
        let current = Some((ctx.cluster.version(), ctx.board.version()));
        debug_assert_eq!(
            self.stamp, current,
            "snapshot queries need a refresh at the phase barrier"
        );
        if self.stamp != current {
            walk.mark_reads_all();
            return economic_target(ctx, existing, partition_size, region_queries, rent_below);
        }
        walk_economic_target(
            &self.buckets,
            self.has_client_zone,
            walk,
            ctx,
            existing,
            partition_size,
            region_queries,
            rent_below,
            prox,
        )
    }

    /// The cheapest-first baseline over the index: the feasible candidate
    /// with the lowest **posted** rent (ties to the lower id) — the same
    /// winner as a full `cluster.alive()` scan against the board, read off
    /// the compact snapshot entries instead.
    pub fn cheapest_posted(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
    ) -> Option<ServerId> {
        self.refresh(ctx);
        let mut best: Option<(f64, ServerId)> = None;
        for bucket in &self.buckets {
            for e in &bucket.entries {
                if e.storage_free < partition_size || existing.contains(&e.id) {
                    continue;
                }
                let candidate = (e.posted, e.id);
                let better = match &best {
                    None => true,
                    Some((bp, bid)) => matches!(
                        e.posted.total_cmp(bp).then_with(|| e.id.cmp(bid)),
                        std::cmp::Ordering::Less
                    ),
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// The max-spread baseline over the index: the feasible candidate
    /// maximizing the summed diversity to `existing` (ties to the lower
    /// id), pruning whole continent buckets whose diversity upper bound
    /// cannot beat the best gain found. Integer arithmetic throughout, so
    /// the bucket walk returns exactly the full-scan winner; note the
    /// candidate set is the index's (board-posted servers).
    pub fn max_spread(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
    ) -> Option<ServerId> {
        self.refresh(ctx);
        let Self { buckets, walk, .. } = self;
        walk.existing_locs.clear();
        for id in existing {
            if let Some(s) = ctx.cluster.get(*id) {
                walk.existing_locs.push(s.location);
            }
        }
        let mut best: Option<(u32, ServerId)> = None;
        for bucket in buckets.iter() {
            // A candidate pairs at most 63 with a replica on another
            // continent and at most 31 with one on its own.
            let ub: u32 = walk
                .existing_locs
                .iter()
                .map(|l| {
                    if l.continent == bucket.continent {
                        31
                    } else {
                        63
                    }
                })
                .sum();
            if let Some((best_gain, _)) = best {
                // Strictly below: an equal bound can still tie and win on id.
                if ub < best_gain {
                    continue;
                }
            }
            for e in &bucket.entries {
                if e.storage_free < partition_size || existing.contains(&e.id) {
                    continue;
                }
                let gain: u32 = walk
                    .existing_locs
                    .iter()
                    .map(|l| u32::from(skute_geo::diversity(l, &e.location)))
                    .sum();
                let better = match &best {
                    None => true,
                    Some((bg, bid)) => gain > *bg || (gain == *bg && e.id < *bid),
                };
                if better {
                    best = Some((gain, e.id));
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

/// The bounded best-first eq.-(3) walk shared by the owned and read-only
/// query paths (see [`PlacementIndex::economic_target`] for the contract).
#[allow(clippy::too_many_arguments)]
fn walk_economic_target(
    buckets: &[ContinentBucket],
    has_client_zone: bool,
    walk: &mut WalkScratch,
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    rent_below: Option<f64>,
    prox: &mut ProximityCache,
) -> Option<(ServerId, f64)> {
    // The read set is verification machinery: release validation rests
    // on the argmax-dominance theorem and the improved-server re-scores
    // (see `validate_speculation`), so only debug builds — every test
    // run — pay for recording and cross-checking the walk's reads.
    let record_reads = cfg!(debug_assertions);
    walk.reads.clear();
    walk.reads_all = false;
    // The per-continent g_max bound relies on proximity being constant
    // within a server country, which holds only when every client sits
    // in a country zone and no candidate does. Anything else takes the
    // oracle scan so the equivalence contract holds unconditionally.
    if has_client_zone || !region_queries.iter().all(|r| r.location.is_client_zone()) {
        walk.reads_all = true;
        return economic_target(ctx, existing, partition_size, region_queries, rent_below);
    }
    // Migration queries usually find nothing under their rent cap:
    // when even the cheapest base rent is at or past the cap, no
    // candidate is feasible — answer without computing any bound. Only
    // the bucket heads were read, and all were at or past the cap.
    if let Some(cap) = rent_below {
        if !buckets
            .iter()
            .any(|b| b.entries.first().is_some_and(|e| e.base_rent < cap))
        {
            if record_reads {
                for b in buckets {
                    if let Some(e) = b.entries.first() {
                        walk.reads.push(e.id);
                    }
                }
            }
            return None;
        }
    }
    walk.existing_locs.clear();
    for id in existing {
        if let Some(s) = ctx.cluster.get(*id) {
            walk.existing_locs.push(s.location);
        }
    }
    let v = ctx.economy.diversity_unit_value;
    let alpha = ctx.economy.alpha;
    let beta = ctx.economy.beta;
    // Per-bucket upper bound of the score's positive part: proximity,
    // confidence and diversity-sum factors replaced by the bucket's
    // maxima, multiplied in the same association order as
    // `candidate_score` so monotone rounding keeps the bound sound.
    // The diversity of a candidate pairs at most 63 with an existing
    // replica on another continent and at most 31 with one on its own.
    walk.heads.clear();
    walk.gains.clear();
    for b in buckets {
        let mut div_ub = 0u32;
        for l in &walk.existing_locs {
            div_ub += if l.continent == b.continent { 31 } else { 63 };
        }
        let g_max = prox.g_max(b.token, &b.reps, region_queries, ctx.topology);
        walk.gains.push(g_max * b.conf_max * f64::from(div_ub) * v);
        walk.heads.push(0);
    }
    let mut best: Option<(ServerId, f64)> = None;
    loop {
        // Best-first: the head with the greatest score bound.
        let mut pick: Option<(usize, f64)> = None;
        for (bi, bucket) in buckets.iter().enumerate() {
            let Some(e) = bucket.entries.get(walk.heads[bi]) else {
                continue;
            };
            if let Some(cap) = rent_below {
                if e.base_rent >= cap {
                    // Rent-sorted: the whole rest of this bucket is
                    // past the cap too. Only the head was read; the
                    // entries behind it are provably cap-infeasible at
                    // any higher rent, so they stay out of the read set.
                    if record_reads {
                        walk.reads.push(e.id);
                    }
                    walk.heads[bi] = usize::MAX;
                    continue;
                }
            }
            let ub = walk.gains[bi] - e.base_rent;
            if pick.is_none_or(|(_, best_ub)| ub > best_ub) {
                pick = Some((bi, ub));
            }
        }
        let Some((bi, ub)) = pick else { break };
        // Branch-and-bound cutoff: no remaining candidate can beat
        // (or, because its rent is strictly costlier at equal gain,
        // even tie) the best score found so far.
        if let Some((_, best_score)) = best {
            if ub < best_score {
                break;
            }
        }
        let e = buckets[bi].entries[walk.heads[bi]];
        walk.heads[bi] += 1;
        // Popped: the entry's fields steered the walk (even when the
        // candidate is then rejected), so it joins the read set. Entries
        // never popped were pruned by a bound strictly below the winner's
        // score and stay out — a mutation can only matter there if it
        // *improves* the candidate, which validation re-scores anyway.
        if record_reads {
            walk.reads.push(e.id);
        }
        if existing.contains(&e.id) {
            continue;
        }
        if e.storage_free < partition_size {
            continue;
        }
        let added_frac = if e.storage_capacity == 0 {
            1.0
        } else {
            partition_size as f64 / e.storage_capacity as f64
        };
        let projected_storage = (e.storage_frac + added_frac).min(1.0);
        let rent = e.up * (1.0 + alpha * projected_storage + beta * e.query_frac);
        if let Some(cap) = rent_below {
            if rent >= cap {
                continue;
            }
        }
        // Cheap per-candidate cut with the exact projected rent: the
        // real score can only be lower than the bucket gain bound
        // minus it.
        if let Some((_, best_score)) = best {
            if walk.gains[bi] - rent < best_score {
                continue;
            }
        }
        let g = prox.g(region_queries, &e.location, ctx.topology);
        let score = candidate_score(
            &walk.existing_locs,
            &e.location,
            e.confidence,
            rent,
            g,
            ctx.economy.diversity_unit_value,
        );
        best = match best {
            None => Some((e.id, score)),
            Some((best_id, best_score)) => match score.total_cmp(&best_score) {
                std::cmp::Ordering::Greater => Some((e.id, score)),
                std::cmp::Ordering::Equal if e.id < best_id => Some((e.id, score)),
                _ => best,
            },
        };
    }
    best
}

/// The write set of one decision commit pass: every server the committed
/// actions have mutated so far, split by mutation direction (the split is
/// what lets [`validate_speculation`] stay O(1)-ish per speculation).
#[derive(Debug, Clone, Default)]
pub struct SpecWriteSet {
    /// Sorted ids whose every touch so far only *reserved* storage
    /// (replication/migration targets): their eq.-(1) rent can only have
    /// risen and their free storage only shrunk, so as eq.-(3) candidates
    /// they strictly weakened.
    worse: Vec<ServerId>,
    /// Sorted ids with at least one storage *release* (migration sources,
    /// suicides): possibly stronger candidates now — validation re-scores
    /// them exactly.
    mixed: Vec<ServerId>,
    /// Servers touched since the rent cache was last refreshed — the only
    /// entries whose live rent can have moved (nothing else mutates
    /// between commit-pass actions), so the refresh is incremental.
    dirty: Vec<ServerId>,
    /// The mixed servers with their **live base rent** (eq. (1) at zero
    /// added bytes — a bit-monotone lower bound on any placement's
    /// projected rent), sorted ascending. Rent-capped validations scan
    /// only the prefix whose base rent clears the cap: the common
    /// convergence-epoch validation (a `None` migration speculation
    /// against dozens of freed sources) touches one float instead of
    /// running a feasibility check per mixed server.
    mixed_rents: Vec<(f64, ServerId)>,
}

impl SpecWriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every touch (a new commit pass begins).
    pub fn clear(&mut self) {
        self.worse.clear();
        self.mixed.clear();
        self.mixed_rents.clear();
        self.dirty.clear();
    }

    /// True when no committed action has touched any server yet — every
    /// speculation is trivially valid.
    pub fn is_empty(&self) -> bool {
        self.worse.is_empty() && self.mixed.is_empty()
    }

    /// Records one committed action's touch on `id`. `worse` means the
    /// action only *reserved* storage there; a release demotes the server
    /// to the mixed set for the rest of the pass.
    pub fn record(&mut self, id: ServerId, worse: bool) {
        if !self.dirty.contains(&id) {
            self.dirty.push(id);
        }
        if worse {
            if self.mixed.binary_search(&id).is_ok() {
                return;
            }
            if let Err(at) = self.worse.binary_search(&id) {
                self.worse.insert(at, id);
            }
        } else {
            if let Ok(at) = self.worse.binary_search(&id) {
                self.worse.remove(at);
            }
            if let Err(at) = self.mixed.binary_search(&id) {
                self.mixed.insert(at, id);
            }
        }
    }

    /// Brings the live base-rent cache of the mixed set up to date.
    /// Incremental: between committed actions only the touched servers'
    /// meters move, so exactly the dirty ids get their entries recomputed
    /// (removed, and reinserted in rent order while they stay mixed).
    fn refresh_mixed_rents(&mut self, ctx: &PlacementContext<'_>) {
        while let Some(id) = self.dirty.pop() {
            if let Some(pos) = self.mixed_rents.iter().position(|&(_, i)| i == id) {
                self.mixed_rents.remove(pos);
            }
            if self.mixed.binary_search(&id).is_err() {
                continue;
            }
            let rent = match ctx.cluster.get_alive(id) {
                Some(s) if ctx.board.price_of(id).is_some() => projected_rent(s, 0, ctx.economy),
                // Dead or unposted: never feasible; park it past any cap.
                _ => f64::INFINITY,
            };
            let at = self.mixed_rents.partition_point(|&(r, i)| {
                matches!(
                    r.total_cmp(&rent).then_with(|| i.cmp(&id)),
                    std::cmp::Ordering::Less
                )
            });
            self.mixed_rents.insert(at, (rent, id));
        }
    }

    /// True when any committed action touched `id`.
    pub fn contains(&self, id: ServerId) -> bool {
        self.worse.binary_search(&id).is_ok() || self.mixed.binary_search(&id).is_ok()
    }

    /// Servers that only got weaker as candidates.
    pub fn worse(&self) -> &[ServerId] {
        &self.worse
    }

    /// Servers that may have gotten stronger as candidates.
    pub fn mixed(&self) -> &[ServerId] {
        &self.mixed
    }
}

/// Exactly the feasibility filter and projected-rent arithmetic of
/// [`feasible_candidates`], evaluated for one server against the live
/// cluster/board. Returns `(location, confidence, rent)` when the server
/// is a feasible candidate, `None` otherwise. The caller excludes
/// `existing` membership itself.
fn live_candidate(
    ctx: &PlacementContext<'_>,
    id: ServerId,
    partition_size: u64,
    rent_below: Option<f64>,
) -> Option<(Location, f64, f64)> {
    let server = ctx.cluster.get_alive(id)?;
    if server.storage_free() < partition_size {
        return None;
    }
    ctx.board.price_of(server.id)?;
    let rent = projected_rent(server, partition_size, ctx.economy);
    if let Some(cap) = rent_below {
        if rent >= cap {
            return None;
        }
    }
    Some((server.location, server.confidence, rent))
}

/// Re-scores one touched server against a speculation's recorded answer:
/// `true` when the server's live state genuinely conflicts — it would
/// change what a fresh walk returns. Exact per-candidate arithmetic of
/// [`feasible_candidates`]; ties break to the lower id, matching the
/// walk. `existing_locs` fills lazily across calls via `locs_filled`.
#[allow(clippy::too_many_arguments)]
fn recheck_conflicts(
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    rent_below: Option<f64>,
    prox: &mut ProximityCache,
    spec: Option<(ServerId, f64)>,
    id: ServerId,
    existing_locs: &mut Vec<Location>,
    locs_filled: &mut bool,
) -> bool {
    if existing.contains(&id) {
        // Never a candidate; its meters enter no candidate's score.
        return false;
    }
    let Some((winner, winner_score)) = spec else {
        // `None` flips to `Some` iff the server became feasible.
        return live_candidate(ctx, id, partition_size, rent_below).is_some();
    };
    if id == winner {
        return true;
    }
    let Some((location, confidence, rent)) = live_candidate(ctx, id, partition_size, rent_below)
    else {
        return false;
    };
    if !*locs_filled {
        existing_locs.clear();
        for e in existing {
            if let Some(s) = ctx.cluster.get(*e) {
                existing_locs.push(s.location);
            }
        }
        *locs_filled = true;
    }
    let g = prox.g(region_queries, &location, ctx.topology);
    let score = candidate_score(
        existing_locs,
        &location,
        confidence,
        rent,
        g,
        ctx.economy.diversity_unit_value,
    );
    match score.total_cmp(&winner_score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Equal => id < winner,
        std::cmp::Ordering::Less => false,
    }
}

/// Decides whether a speculative eq.-(3) answer computed against a frozen
/// snapshot is still **exactly** what a fresh walk over the live state
/// would return, given the write set of the committed actions since the
/// freeze. `true` means provably bit-identical; `false` means re-walk.
///
/// The argument is the argmax decomposition: the fresh walk returns the
/// brute-force argmax over the live candidate set (the index/oracle
/// equivalence contract), and only the write set's servers differ from
/// the frozen state — every other candidate scores the same bits it did
/// at plan time. The speculation therefore survives iff
///
/// * the frozen winner itself is untouched (its recorded score is still
///   its live score), and
/// * no touched candidate now beats it. Candidates that only *weakened*
///   ([`SpecWriteSet::worse`]: storage reserved, never released) need no
///   arithmetic at all — **argmax dominance**: every candidate's frozen
///   score already lost to the winner (or tied and lost the id break),
///   eq.-(1) rent is bit-monotone in the storage fraction (α/β are
///   validated non-negative and the marginal price `up` is a share of
///   the non-negative real cost), and feasibility only shrinks, so a
///   weakened candidate's live score still loses, read or pruned. Candidates that may have *improved*
///   ([`SpecWriteSet::mixed`]: some storage released) are re-scored
///   exactly ([`recheck_conflicts`]) — an unread pruned server can newly
///   win, so the read set cannot shortcut this direction.
///
/// A `None` speculation (no feasible candidate existed) stays `None` iff
/// no improved server became feasible; weakening cannot create
/// feasibility.
///
/// The read set the speculative walk recorded ([`WalkScratch::reads`],
/// plus `reads_all` for oracle-scan fallbacks) is the speculation's exact
/// dependency footprint: board price cells collapse to the frozen board
/// version the caller gates on (the commit pass never writes the board),
/// and the per-server dependencies are cross-checked here in debug builds
/// — every weakened server the walk actually read is re-scored and
/// asserted to still lose, verifying the dominance theorem on every real
/// trajectory the tests drive. `prox` must be the cache filled against
/// the same `region_queries`; `existing_locs` is caller scratch.
#[allow(clippy::too_many_arguments)]
pub fn validate_speculation(
    ctx: &PlacementContext<'_>,
    existing: &[ServerId],
    partition_size: u64,
    region_queries: &[RegionQueries],
    rent_below: Option<f64>,
    prox: &mut ProximityCache,
    spec: Option<(ServerId, f64)>,
    writes: &mut SpecWriteSet,
    reads: &[ServerId],
    reads_all: bool,
    existing_locs: &mut Vec<Location>,
) -> bool {
    let mut locs_filled = false;
    // Any touch to the winner voids its recorded score.
    if let Some((winner, _)) = spec {
        if writes.contains(winner) {
            return false;
        }
    }
    // Possibly improved candidates: exact re-score, reads cannot help. A
    // rent-capped query only re-scores the mixed servers whose live base
    // rent clears the cap (sorted ascending; the projected rent of any
    // placement is bounded below by the base rent, bit-monotonically), so
    // the common convergence validation — a capped `None` migration
    // speculation against dozens of freed sources — reads one float.
    if let Some(cap) = rent_below {
        writes.refresh_mixed_rents(ctx);
        for i in 0..writes.mixed_rents.len() {
            let (base, id) = writes.mixed_rents[i];
            if base >= cap {
                break;
            }
            if recheck_conflicts(
                ctx,
                existing,
                partition_size,
                region_queries,
                rent_below,
                prox,
                spec,
                id,
                existing_locs,
                &mut locs_filled,
            ) {
                return false;
            }
        }
    } else {
        for i in 0..writes.mixed.len() {
            let id = writes.mixed[i];
            if recheck_conflicts(
                ctx,
                existing,
                partition_size,
                region_queries,
                rent_below,
                prox,
                spec,
                id,
                existing_locs,
                &mut locs_filled,
            ) {
                return false;
            }
        }
    }
    // Strictly weakened candidates: argmax dominance, no arithmetic. The
    // debug cross-check re-scores the ones the walk actually read and
    // asserts the theorem held.
    if cfg!(debug_assertions) {
        for &id in writes.worse() {
            if reads_all || reads.contains(&id) {
                debug_assert!(
                    !recheck_conflicts(
                        ctx,
                        existing,
                        partition_size,
                        region_queries,
                        rent_below,
                        prox,
                        spec,
                        id,
                        existing_locs,
                        &mut locs_filled,
                    ),
                    "a strictly weakened candidate overtook the speculated winner"
                );
            }
        }
    }
    true
}

/// The paper's placement policy (eq. 3) behind the strategy interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct EconomicPlacement;

impl PlacementStrategy for EconomicPlacement {
    fn name(&self) -> &'static str {
        "skute-economic"
    }

    fn place_replica(
        &mut self,
        ctx: &PlacementContext<'_>,
        existing: &[ServerId],
        partition_size: u64,
        region_queries: &[RegionQueries],
    ) -> Option<ServerId> {
        economic_target(ctx, existing, partition_size, region_queries, None).map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skute_cluster::{Capacities, ServerSpec};
    use skute_geo::Topology;

    fn setup() -> (Topology, Cluster, Board) {
        let topology = Topology::paper();
        let cluster = Cluster::from_topology(&topology, |i, location| ServerSpec {
            location,
            capacities: Capacities::paper(1 << 30, 1000.0),
            monthly_cost: if i % 10 < 7 { 100.0 } else { 125.0 },
            confidence: 1.0,
        });
        let mut board = Board::new();
        board.begin_epoch(1);
        for s in cluster.alive() {
            // Price proportional to monthly cost so rents differentiate.
            board.post(s.id, s.monthly_cost / 720.0);
        }
        (topology, cluster, board)
    }

    #[test]
    fn economic_target_prefers_remote_cheap_servers() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        // One replica on server 0 (continent 0).
        let existing = vec![ServerId(0)];
        let (winner, _) = economic_target(&ctx, &existing, 0, &[], None).unwrap();
        let winner_loc = cluster.get(winner).unwrap().location;
        let origin = cluster.get(ServerId(0)).unwrap().location;
        assert_ne!(
            winner_loc.continent, origin.continent,
            "max diversity first"
        );
        // Among the cross-continent candidates, a cheap one must win.
        assert_eq!(cluster.get(winner).unwrap().monthly_cost, 100.0);
    }

    #[test]
    fn existing_servers_are_excluded() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let existing: Vec<ServerId> = cluster.alive_ids();
        assert!(economic_target(&ctx, &existing, 0, &[], None).is_none());
    }

    #[test]
    fn storage_filter_applies() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        // Nothing can host 2 GiB on 1 GiB servers.
        assert!(economic_target(&ctx, &[], 2 << 30, &[], None).is_none());
        assert!(economic_target(&ctx, &[], 1 << 20, &[], None).is_some());
    }

    #[test]
    fn rent_cap_restricts_to_cheaper_servers() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let cheap_rent = 100.0 / 720.0;
        // Cap below the cheap price: no candidate at all.
        assert!(economic_target(&ctx, &[], 0, &[], Some(cheap_rent)).is_none());
        // Cap between cheap and expensive: only cheap servers eligible.
        let (winner, _) = economic_target(&ctx, &[], 0, &[], Some(cheap_rent + 1e-6)).unwrap();
        assert_eq!(cluster.get(winner).unwrap().monthly_cost, 100.0);
    }

    #[test]
    fn strategy_interface_returns_same_winner() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let existing = vec![ServerId(0)];
        let direct = economic_target(&ctx, &existing, 0, &[], None).map(|(id, _)| id);
        let mut strategy = EconomicPlacement;
        assert_eq!(strategy.place_replica(&ctx, &existing, 0, &[]), direct);
        assert_eq!(strategy.name(), "skute-economic");
    }

    #[test]
    fn index_matches_brute_force_on_the_paper_fixture() {
        let (topology, mut cluster, board) = setup();
        let economy = EconomyConfig::paper();
        // Skew some usage meters so rents differentiate beyond cost tiers.
        for i in [3u32, 57, 123, 199] {
            let s = cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, (u64::from(i) % 7 + 1) << 26));
            s.usage.serve_queries(&caps, f64::from(i % 11) * 40.0);
        }
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let mut index = PlacementIndex::new();
        let regions = [RegionQueries {
            location: Location::client_in_country(1, 0),
            queries: 700.0,
        }];
        let cheap_rent = 100.0 / 720.0;
        for existing in [
            vec![],
            vec![ServerId(0)],
            vec![ServerId(0), ServerId(57), ServerId(123)],
        ] {
            for size in [0u64, 1 << 20, 1 << 29] {
                for cap in [None, Some(cheap_rent * 1.5), Some(cheap_rent / 2.0)] {
                    for rq in [&[][..], &regions[..]] {
                        let brute = economic_target(&ctx, &existing, size, rq, cap);
                        let mut prox = skute_economy::ProximityCache::new();
                        let indexed =
                            index.economic_target(&ctx, &existing, size, rq, cap, &mut prox);
                        assert_eq!(
                            indexed, brute,
                            "existing {existing:?} size {size} cap {cap:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_matches_brute_force_for_non_zone_clients() {
        // Regression: a client at a *real server location* (reachable via
        // `ClientGeo::Weighted`) makes proximity vary within a country, so
        // the per-continent g_max bound is unsound — the index must detect
        // the mix and take the oracle path instead of pruning the true
        // winner (an exact-location match with a huge proximity weight).
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let regions = [RegionQueries {
            location: topology.server_at(150),
            queries: 5_000.0,
        }];
        let existing = vec![ServerId(0)];
        let brute = economic_target(&ctx, &existing, 0, &regions, None);
        let mut index = PlacementIndex::new();
        let mut prox = skute_economy::ProximityCache::new();
        let indexed = index.economic_target(&ctx, &existing, 0, &regions, None, &mut prox);
        assert_eq!(indexed, brute);
        assert_eq!(brute.unwrap().0, ServerId(150), "exact match dominates");
    }

    #[test]
    fn index_invalidates_on_usage_and_price_changes() {
        let (topology, mut cluster, mut board) = setup();
        let economy = EconomyConfig::paper();
        let mut index = PlacementIndex::new();
        let mut prox = skute_economy::ProximityCache::new();
        let winner = |index: &mut PlacementIndex,
                      prox: &mut skute_economy::ProximityCache,
                      cluster: &Cluster,
                      board: &Board| {
            let ctx = PlacementContext {
                cluster,
                board,
                topology: &topology,
                economy: &economy,
            };
            let rebuilt = index.refresh(&ctx);
            let got = index.economic_target(&ctx, &[ServerId(0)], 1 << 20, &[], None, prox);
            let want = economic_target(&ctx, &[ServerId(0)], 1 << 20, &[], None);
            assert_eq!(got, want);
            (rebuilt, got)
        };
        let (rebuilt, first) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(rebuilt, "first query builds the index");
        let (rebuilt, again) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(!rebuilt, "unchanged cluster and board reuse the snapshot");
        assert_eq!(again, first);
        // Fill the current winner's storage: the usage-meter mutation must
        // invalidate the snapshot and steer the choice elsewhere.
        let (prev, _) = first.unwrap();
        {
            let s = cluster.get_mut(prev).unwrap();
            let caps = s.capacities;
            let free = s.storage_free();
            assert!(s.usage.reserve_storage(&caps, free));
        }
        let (rebuilt, after_fill) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(rebuilt, "get_mut invalidates the snapshot");
        assert_ne!(after_fill.unwrap().0, prev, "full server cannot win");
        // Withdrawing a posting invalidates through the board version.
        let (next, _) = after_fill.unwrap();
        board.withdraw(next);
        let (rebuilt, after_withdraw) = winner(&mut index, &mut prox, &cluster, &board);
        assert!(rebuilt, "board changes invalidate the snapshot");
        assert_ne!(after_withdraw.unwrap().0, next);
    }

    proptest::proptest! {
        /// The rent-sorted walk must return the *same winner and tie-break*
        /// as the brute-force scan on arbitrary clusters, prices, usage
        /// meters, region mixes and rent caps.
        #[test]
        fn prop_index_equals_brute_force(
            server_picks in proptest::collection::vec((0u64..200, 50.0f64..200.0, 0.2f64..1.0), 2..24),
            usage in proptest::collection::vec((any::<u64>(), 0.0f64..900.0), 0..12),
            unposted in proptest::collection::vec(0usize..24, 0..4),
            existing_picks in proptest::collection::vec(0usize..24, 0..4),
            region_picks in proptest::collection::vec(
                (0u64..200, 0.0f64..1e4, any::<bool>()),
                0..5,
            ),
            size_exp in 0u32..31,
            cap_frac in proptest::option::of(0.1f64..3.0),
        ) {
            use proptest::prelude::*;
            let topology = Topology::paper();
            let mut cluster = Cluster::new();
            for &(loc_idx, cost, conf) in &server_picks {
                cluster.commission(
                    ServerSpec {
                        location: topology.server_at(loc_idx),
                        capacities: Capacities::paper(1 << 30, 1000.0),
                        monthly_cost: cost,
                        confidence: conf,
                    },
                    0,
                );
            }
            let n = cluster.len();
            // Random usage meters, through get_mut like the real epoch loop.
            for &(bytes, queries) in &usage {
                let id = ServerId((bytes % n as u64) as u32);
                let s = cluster.get_mut(id).unwrap();
                let caps = s.capacities;
                let _ = s.usage.reserve_storage(&caps, bytes % (1 << 30));
                s.usage.serve_queries(&caps, queries);
            }
            let mut board = Board::new();
            board.begin_epoch(1);
            for s in cluster.alive() {
                board.post(s.id, s.monthly_cost / 720.0);
            }
            for &u in &unposted {
                board.withdraw(ServerId((u % n) as u32));
            }
            let existing: Vec<ServerId> =
                existing_picks.iter().map(|&i| ServerId((i % n) as u32)).collect();
            let regions: Vec<RegionQueries> = region_picks
                .iter()
                .map(|&(loc_idx, queries, in_zone)| RegionQueries {
                    location: {
                        let l = topology.server_at(loc_idx);
                        if in_zone {
                            Location::client_in_country(l.continent, l.country)
                        } else {
                            // A client at a real server location: proximity
                            // is no longer country-constant, so the index
                            // must detect it and take the oracle path.
                            l
                        }
                    },
                    queries,
                })
                .collect();
            let partition_size = 1u64 << size_exp;
            let rent_below = cap_frac.map(|f| f * 100.0 / 720.0);
            let economy = EconomyConfig::paper();
            let ctx = PlacementContext {
                cluster: &cluster,
                board: &board,
                topology: &topology,
                economy: &economy,
            };
            let brute = economic_target(&ctx, &existing, partition_size, &regions, rent_below);
            let mut index = PlacementIndex::new();
            let mut prox = skute_economy::ProximityCache::new();
            let indexed =
                index.economic_target(&ctx, &existing, partition_size, &regions, rent_below, &mut prox);
            prop_assert_eq!(indexed, brute);
            // Re-query through the warm snapshot and cache: still identical.
            let indexed_warm =
                index.economic_target(&ctx, &existing, partition_size, &regions, rent_below, &mut prox);
            prop_assert_eq!(indexed_warm, brute);
        }
    }

    #[test]
    fn read_only_walk_matches_owned_walk() {
        let (topology, mut cluster, board) = setup();
        let economy = EconomyConfig::paper();
        // Skew meters so projected rents differentiate.
        for i in [5u32, 77, 140] {
            let s = cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, (u64::from(i % 7) + 1) << 24));
        }
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let mut index = PlacementIndex::new();
        index.refresh(&ctx);
        let regions = [RegionQueries {
            location: Location::client_in_country(2, 0),
            queries: 400.0,
        }];
        for existing in [vec![], vec![ServerId(0), ServerId(123)]] {
            for cap in [None, Some(0.2)] {
                let mut prox_a = skute_economy::ProximityCache::new();
                let mut prox_b = skute_economy::ProximityCache::new();
                let mut walk = WalkScratch::default();
                let ro = index.economic_target_in(
                    &ctx,
                    &existing,
                    1 << 20,
                    &regions,
                    cap,
                    &mut prox_a,
                    &mut walk,
                );
                let owned =
                    index.economic_target(&ctx, &existing, 1 << 20, &regions, cap, &mut prox_b);
                assert_eq!(ro, owned, "existing {existing:?} cap {cap:?}");
            }
        }
    }

    #[test]
    fn queued_invalidation_applies_at_next_read() {
        let (topology, mut cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let mut index = PlacementIndex::new();
        let mut prox = skute_economy::ProximityCache::new();
        let first = {
            let ctx = PlacementContext {
                cluster: &cluster,
                board: &board,
                topology: &topology,
                economy: &economy,
            };
            index.economic_target(&ctx, &[], 1 << 20, &[], None, &mut prox)
        };
        let (winner, _) = first.unwrap();
        // Mutate exactly the winner (as an executed placement would) and
        // queue the invalidation instead of applying it immediately.
        {
            let s = cluster.get_mut(winner).unwrap();
            let caps = s.capacities;
            let free = s.storage_free();
            assert!(s.usage.reserve_storage(&caps, free));
        }
        index.queue_servers_changed(&[winner]);
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        // The queued note re-synchronizes the stamp: no rebuild, and the
        // answer matches the brute-force scan of the live state.
        let rebuilt = index.refresh(&ctx);
        assert!(!rebuilt, "queued repositioning avoids the rebuild");
        let indexed = index.economic_target(&ctx, &[], 1 << 20, &[], None, &mut prox);
        let brute = economic_target(&ctx, &[], 1 << 20, &[], None);
        assert_eq!(indexed, brute);
        assert_ne!(indexed.unwrap().0, winner, "full server cannot win");
    }

    #[test]
    fn index_baselines_match_full_scans() {
        let (topology, mut cluster, mut board) = setup();
        let economy = EconomyConfig::paper();
        for i in [9u32, 60, 150] {
            let s = cluster.get_mut(ServerId(i)).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, 1 << 29));
        }
        board.withdraw(ServerId(17));
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let mut index = PlacementIndex::new();
        for existing in [vec![], vec![ServerId(0)], vec![ServerId(0), ServerId(199)]] {
            for size in [0u64, 1 << 29, 1 << 31] {
                // Cheapest-first: minimum posted rent, ties to lower id.
                let scan_cheapest = cluster
                    .alive()
                    .filter(|s| !existing.contains(&s.id) && s.storage_free() >= size)
                    .filter_map(|s| board.price_of(s.id).map(|p| (s.id, p)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
                    .map(|(id, _)| id);
                assert_eq!(
                    index.cheapest_posted(&ctx, &existing, size),
                    scan_cheapest,
                    "cheapest: existing {existing:?} size {size}"
                );
                // Max-spread: maximum summed diversity, ties to lower id
                // (over the board-posted candidate set).
                let scan_spread = cluster
                    .alive()
                    .filter(|s| {
                        !existing.contains(&s.id)
                            && s.storage_free() >= size
                            && board.price_of(s.id).is_some()
                    })
                    .map(|s| {
                        let gain: u32 = existing
                            .iter()
                            .filter_map(|id| cluster.get(*id))
                            .map(|e| u32::from(skute_geo::diversity(&e.location, &s.location)))
                            .sum();
                        (s.id, gain)
                    })
                    .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                    .map(|(id, _)| id);
                assert_eq!(
                    index.max_spread(&ctx, &existing, size),
                    scan_spread,
                    "spread: existing {existing:?} size {size}"
                );
            }
        }
    }

    #[test]
    fn non_conflicting_commit_keeps_speculation_alive() {
        let (topology, mut cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let existing = vec![ServerId(0)];
        let mut index = PlacementIndex::new();
        let mut walk = WalkScratch::default();
        let mut prox = skute_economy::ProximityCache::new();
        let spec = {
            let ctx = PlacementContext {
                cluster: &cluster,
                board: &board,
                topology: &topology,
                economy: &economy,
            };
            index.refresh(&ctx);
            index.economic_target_in(&ctx, &existing, 1 << 20, &[], None, &mut prox, &mut walk)
        };
        let (winner, _) = spec.unwrap();
        assert!(!walk.reads_all());
        let mut reads: Vec<ServerId> = walk.reads().to_vec();
        reads.sort_unstable();
        // A commit lands on a server the walk never read, only reserving
        // storage there (a replication target): the speculation survives
        // validation and still equals a fresh walk, bit for bit.
        let bystander = cluster
            .alive_ids()
            .into_iter()
            .find(|id| reads.binary_search(id).is_err() && *id != winner && !existing.contains(id))
            .expect("the bounded walk leaves most of 200 servers unread");
        {
            let s = cluster.get_mut(bystander).unwrap();
            let caps = s.capacities;
            assert!(s.usage.reserve_storage(&caps, 1 << 28));
        }
        let mut writes = SpecWriteSet::new();
        writes.record(bystander, true);
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let mut locs = Vec::new();
        assert!(validate_speculation(
            &ctx,
            &existing,
            1 << 20,
            &[],
            None,
            &mut prox,
            spec,
            &mut writes,
            &reads,
            false,
            &mut locs,
        ));
        assert_eq!(spec, economic_target(&ctx, &existing, 1 << 20, &[], None));
        // A commit on the frozen winner itself always conflicts.
        let mut writes = SpecWriteSet::new();
        writes.record(winner, true);
        assert!(!validate_speculation(
            &ctx,
            &existing,
            1 << 20,
            &[],
            None,
            &mut prox,
            spec,
            &mut writes,
            &reads,
            false,
            &mut locs,
        ));
        // A released-storage touch on an unread server forces the exact
        // re-score; the speculation is honored only when the re-score
        // proves the bystander still loses.
        let mut writes = SpecWriteSet::new();
        writes.record(bystander, false);
        let valid = validate_speculation(
            &ctx,
            &existing,
            1 << 20,
            &[],
            None,
            &mut prox,
            spec,
            &mut writes,
            &reads,
            false,
            &mut locs,
        );
        if valid {
            assert_eq!(spec, economic_target(&ctx, &existing, 1 << 20, &[], None));
        }
    }

    proptest::proptest! {
        /// The tentpole contract: under random commit interleavings, a
        /// speculation that passes read-set validation is **bitwise
        /// equal** to an immediate re-walk — no stale target can ever be
        /// honored. Mutations mirror what executed actions do to servers
        /// (storage reserved on targets, released on sources/suicides).
        #[test]
        fn prop_validated_speculation_equals_fresh_walk(
            server_picks in proptest::collection::vec((0u64..200, 50.0f64..200.0, 0.2f64..1.0), 4..24),
            existing_picks in proptest::collection::vec(0usize..24, 0..4),
            region_picks in proptest::collection::vec((0u64..200, 0.0f64..1e4), 0..4),
            size_exp in 0u32..31,
            cap_frac in proptest::option::of(0.1f64..3.0),
            mutations in proptest::collection::vec(
                (0usize..24, any::<bool>(), 0u64..(1u64 << 29)),
                0..10,
            ),
        ) {
            use proptest::prelude::*;
            let topology = Topology::paper();
            let mut cluster = Cluster::new();
            for &(loc_idx, cost, conf) in &server_picks {
                cluster.commission(
                    ServerSpec {
                        location: topology.server_at(loc_idx),
                        capacities: Capacities::paper(1 << 30, 1000.0),
                        monthly_cost: cost,
                        confidence: conf,
                    },
                    0,
                );
            }
            let n = cluster.len();
            let mut board = Board::new();
            board.begin_epoch(1);
            for s in cluster.alive() {
                board.post(s.id, s.monthly_cost / 720.0);
            }
            let existing: Vec<ServerId> =
                existing_picks.iter().map(|&i| ServerId((i % n) as u32)).collect();
            let regions: Vec<RegionQueries> = region_picks
                .iter()
                .map(|&(loc_idx, queries)| RegionQueries {
                    location: {
                        let l = topology.server_at(loc_idx);
                        Location::client_in_country(l.continent, l.country)
                    },
                    queries,
                })
                .collect();
            let partition_size = 1u64 << size_exp;
            let rent_below = cap_frac.map(|f| f * 100.0 / 720.0);
            let economy = EconomyConfig::paper();
            // The speculative walk against the frozen state, read set kept.
            let mut index = PlacementIndex::new();
            let mut walk = WalkScratch::default();
            let mut prox = skute_economy::ProximityCache::new();
            let spec = {
                let ctx = PlacementContext {
                    cluster: &cluster,
                    board: &board,
                    topology: &topology,
                    economy: &economy,
                };
                index.refresh(&ctx);
                index.economic_target_in(
                    &ctx, &existing, partition_size, &regions, rent_below, &mut prox, &mut walk,
                )
            };
            let mut reads: Vec<ServerId> = walk.reads().to_vec();
            reads.sort_unstable();
            // Random commit interleaving.
            let mut writes = SpecWriteSet::new();
            for &(pick, release, bytes) in &mutations {
                let id = ServerId((pick % n) as u32);
                let s = cluster.get_mut(id).unwrap();
                let caps = s.capacities;
                if release {
                    s.usage.release_storage(bytes);
                } else {
                    let _ = s.usage.reserve_storage(&caps, bytes);
                }
                writes.record(id, !release);
            }
            let ctx = PlacementContext {
                cluster: &cluster,
                board: &board,
                topology: &topology,
                economy: &economy,
            };
            let mut locs = Vec::new();
            let valid = validate_speculation(
                &ctx,
                &existing,
                partition_size,
                &regions,
                rent_below,
                &mut prox,
                spec,
                &mut writes,
                &reads,
                walk.reads_all(),
                &mut locs,
            );
            let fresh = economic_target(&ctx, &existing, partition_size, &regions, rent_below);
            if valid {
                prop_assert_eq!(spec, fresh, "validated speculation must equal a fresh walk");
            }
            if writes.is_empty() {
                prop_assert!(valid, "an empty write set conflicts with nothing");
            }
        }
    }

    #[test]
    fn determinism_under_ties() {
        let (topology, cluster, board) = setup();
        let economy = EconomyConfig::paper();
        let ctx = PlacementContext {
            cluster: &cluster,
            board: &board,
            topology: &topology,
            economy: &economy,
        };
        let a = economic_target(&ctx, &[ServerId(0)], 0, &[], None);
        let b = economic_target(&ctx, &[ServerId(0)], 0, &[], None);
        assert_eq!(a, b);
    }
}
