//! The service's sharded client store: raw-weighted profiles under churn,
//! with per-shard dirty tracking and a route-block id directory.
//!
//! Ids are issued in sequence and never reused, so insertion order is
//! ascending id order. Clients are routed to a fixed set of shards by id
//! block (`shard = (id / 32) % shards`, so one registration batch lands in
//! few shards); each 32-id route block `b` therefore sits, in id order,
//! inside shard `b % shards`. The store keeps one directory entry per
//! route block: a 32-bit live mask plus the global position of the
//! block's first live id. An id's position in the **global client order**
//! — the order every solve, snapshot, and from-scratch verifier uses — is
//! that start plus a popcount, and the global-order passes walk the blocks
//! in order with one cursor per shard, copying each block's run as a
//! slice.
//!
//! The same directory is the fast path's segment map: index segment `k`
//! holds the blocks `b` with `b % INDEX_SEGMENTS = k`. For a fast-path
//! service the assembly pass records each segment's rows as one range per
//! block (the exact path skips them), and every mutation stamps the
//! segments of the blocks it touches, so the dirty index segments are
//! exact for any shard count.
//!
//! Each shard caches the per-client solver inputs that are expensive to
//! recompute under churn (inclusion masks, the effective-cost transform
//! `c/rate²` and cap `q_max·rate`); a delta dirties only the shards it
//! touches, and [`ShardedClientStore::ensure_caches`] rebuilds only those.
//! A removal clears directory bits, compacts only the touched shards plus
//! the global id list, and recomputes block starts from the first touched
//! block: `O(batch + touched shards + N/32)`. The per-solve
//! [`ShardedClientStore::assemble`] pass then gathers the cached columns in
//! global order and normalises raw weights with the same left-fold
//! `Population::from_raw` performs. The solver takes the gathered columns
//! as they are, one set for the whole population, so the service's prices
//! are bit-identical to a from-scratch solve over the same clients for any
//! store shard count.
//!
//! The store keeps *raw* data weights (`d_n`, not the normalised `a_n`):
//! normalisation depends on who else is currently registered, so it is
//! re-derived at solve time in the assembly pass.

use crate::error::ServiceError;
use crate::{ClientId, ClientParams};
use fedfl_core::active_set::IndexColumns;
use fedfl_core::population::PopulationColumns;
use fedfl_core::GameError;
use fedfl_sim::availability::AvailabilityModel;
use std::ops::Range;

/// Consecutive ids routed to the same shard, and the width of one
/// directory entry's live mask. A churn batch of up to this many
/// registrations dirties at most two shards; removals dirty the shards of
/// the departing ids.
const ROUTE_BLOCK: u64 = 32;

/// Segment count of the service's threshold index: route block `b`'s
/// clients sit in segment `b % INDEX_SEGMENTS`. 256 keeps segments
/// fine-grained (a churn batch confined to one block re-sorts 1/256th of
/// the population) without bloating the segment directory walk.
pub(crate) const INDEX_SEGMENTS: usize = 256;

/// The index segment of the route block `id` belongs to.
fn segment_of(id: ClientId) -> usize {
    (id.0 / ROUTE_BLOCK) as usize % INDEX_SEGMENTS
}

/// One registered client.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClientRecord {
    /// The id handed out at registration.
    pub id: ClientId,
    /// The client's submitted parameters.
    pub params: ClientParams,
}

/// Cached per-client solver inputs of one shard, aligned with its records.
///
/// Everything here is a pure per-client function of the record and the
/// service's fixed `(availability_aware, q_min)` knobs — never of the rest
/// of the population — which is what makes the cache shard-local. The
/// weight-normalisation (and the `a²G²` column that depends on it) is
/// global and recomputed in the assembly pass.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    included: Vec<bool>,
    w_raw: Vec<f64>,
    g2: Vec<f64>,
    cost_eff: Vec<f64>,
    value: Vec<f64>,
    q_max_eff: Vec<f64>,
}

/// One store shard: its records in id order plus the lazily rebuilt cache
/// (`None` = dirty).
#[derive(Debug, Clone, Default)]
struct StoreShard {
    records: Vec<ClientRecord>,
    cache: Option<ShardCache>,
}

/// The directory entry of one route block `b` (ids `32b .. 32b + 32`).
#[derive(Debug, Clone, Copy)]
struct RouteBlock {
    /// Bit `k` is set while id `32b + k` is registered.
    live: u32,
    /// Global position of the block's first live id: the number of live
    /// ids in all earlier blocks.
    start: usize,
}

impl RouteBlock {
    /// Live ids in the block.
    fn len(self) -> usize {
        self.live.count_ones() as usize
    }
}

/// One route block's live run: its clients are
/// `shards[shard].records[local]`, at global positions from `global` on.
struct BlockRun {
    block: usize,
    shard: usize,
    local: Range<usize>,
    global: usize,
}

/// The non-empty route blocks' runs in global order, found with one
/// cursor per shard (a shard's records hold its blocks' runs back to back,
/// in block order).
fn block_runs(blocks: &[RouteBlock], shard_count: usize) -> impl Iterator<Item = BlockRun> + '_ {
    let mut cursors = vec![0usize; shard_count];
    blocks
        .iter()
        .enumerate()
        .filter(|(_, block)| block.live != 0)
        .map(move |(b, block)| {
            let shard = b % shard_count;
            let from = cursors[shard];
            cursors[shard] += block.len();
            BlockRun {
                block: b,
                shard,
                local: from..cursors[shard],
                global: block.start,
            }
        })
}

/// Append the included entries of `column` (all of it when
/// `all_included`, as one slice copy).
fn extend_included(out: &mut Vec<f64>, column: &[f64], included: &[bool], all_included: bool) {
    if all_included {
        out.extend_from_slice(column);
    } else {
        out.extend(
            column
                .iter()
                .zip(included)
                .filter(|(_, &inc)| inc)
                .map(|(&v, _)| v),
        );
    }
}

/// Rebuild statistics of one [`ShardedClientStore::ensure_caches`] call —
/// the observable half of the dirty-shard contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardStats {
    /// Shards whose caches were rebuilt.
    pub dirty_shards: usize,
    /// Clients whose cached columns were recomputed (the sum of the dirty
    /// shards' sizes).
    pub rebuilt_columns: usize,
}

/// Scale-free threshold-index inputs of the included clients, in
/// insertion order — the raw-weight twin of the normalised `a²G²` column
/// — plus the index's segment map.
///
/// The normalised `a²G² = (w/W)²G²` column moves with every change of the
/// raw-weight total `W`, so an index over it could never reuse segments
/// across churn. This carries `w²G²` from *raw* weights instead and the
/// squared total as [`IndexInputs::scale`]; the index evaluates
/// thresholds at that scale on the fly, keeping its stored segments
/// `W`-independent (see `fedfl_core::active_set`). The cost, value and cap
/// columns are the solver's own ([`AssembledView::index_columns`]).
#[derive(Debug)]
pub(crate) struct IndexInputs {
    /// `w_raw²·G²` per included client.
    pub w2g2: Vec<f64>,
    /// The rows of each of the [`INDEX_SEGMENTS`] index segments: one
    /// range of included rows per route block `b` with
    /// `b % INDEX_SEGMENTS = k`, in global order. A pure function of the
    /// live ids, so the partition never depends on shard or thread counts.
    pub segments: Vec<Vec<Range<usize>>>,
    /// The probe scale `σ = W²` (squared raw-weight total).
    pub scale: f64,
}

/// The assembled solver view of the current population.
#[derive(Debug)]
pub(crate) struct AssembledView {
    /// Effective solver columns of the included clients, in insertion
    /// order.
    pub population: PopulationColumns,
    /// Global inclusion mask, aligned with [`ShardedClientStore::ids`].
    pub included: Vec<bool>,
    /// Number of included clients.
    pub included_count: usize,
    /// Total raw weight of the included clients (the warm-start rescale
    /// reference).
    pub total_raw_weight: f64,
    /// Scale-free inputs for the fast path's keyed threshold index
    /// (`None` unless [`ShardedClientStore::assemble`] was asked for them).
    pub index: Option<IndexInputs>,
}

impl AssembledView {
    /// The index builder's column view: the raw-weight `w²G²` column of
    /// `inputs` beside the solver's cost, value and cap columns.
    pub fn index_columns<'a>(&'a self, inputs: &'a IndexInputs) -> IndexColumns<'a> {
        IndexColumns {
            w2g2: &inputs.w2g2,
            cost: &self.population.cost,
            value: &self.population.value,
            q_max: &self.population.q_max,
        }
    }
}

/// Sharded client store with a route-block id directory, per-shard dirty
/// tracking, and batched delta apply.
#[derive(Debug, Clone)]
pub(crate) struct ShardedClientStore {
    shards: Vec<StoreShard>,
    /// Client ids in global order (strictly ascending; see [`Self::ids`]).
    order: Vec<ClientId>,
    /// One entry per issued route block, indexed by `id / ROUTE_BLOCK`.
    blocks: Vec<RouteBlock>,
    next_id: u64,
    /// Monotonically increasing mutation stamp: bumped by every delta that
    /// can change the assembled solver view (adds, removes, effective
    /// availability changes). Caches derived from an assembled view — the
    /// fast path's threshold index — key on this stamp to detect reuse.
    version: u64,
    /// Per-segment mutation stamps: `segment_versions[k]` is the global
    /// [`Self::version`] of the last delta that touched a route block of
    /// index segment `k` (0 = never touched). An index built at global
    /// version `v` can tell exactly which segments changed since:
    /// `{k | segment_versions[k] > v}` — the dirty set its patch rebuilds.
    segment_versions: Vec<u64>,
}

impl ShardedClientStore {
    /// Create an empty store with `shard_count >= 1` shards.
    pub fn new(shard_count: usize) -> Self {
        Self {
            shards: vec![StoreShard::default(); shard_count.max(1)],
            order: Vec::new(),
            blocks: Vec::new(),
            next_id: 0,
            version: 0,
            segment_versions: vec![0; INDEX_SEGMENTS],
        }
    }

    /// The current mutation stamp (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-segment mutation stamps (see the `segment_versions` field):
    /// the global version of the last delta that touched each index
    /// segment.
    pub fn segment_versions(&self) -> &[u64] {
        &self.segment_versions
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of store shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Client ids in global order, which is strictly ascending: insertion
    /// order is id order; ids are never reused. The directory and the wire
    /// server's binary-searched read view both rely on this.
    pub fn ids(&self) -> &[ClientId] {
        &self.order
    }

    /// The directory entry index and mask bit of `id`, if its route block
    /// was ever issued. Never allocates, whatever the id.
    fn locate(&self, id: ClientId) -> Option<(usize, u32)> {
        let block = usize::try_from(id.0 / ROUTE_BLOCK).ok()?;
        (block < self.blocks.len()).then(|| (block, 1u32 << (id.0 % ROUTE_BLOCK)))
    }

    /// Position of `id` in the global order, if registered: its block's
    /// start plus the live ids below it in the block.
    pub fn position(&self, id: ClientId) -> Option<usize> {
        let (b, bit) = self.locate(id)?;
        let block = self.blocks[b];
        (block.live & bit != 0)
            .then(|| block.start + (block.live & (bit - 1)).count_ones() as usize)
    }

    /// The shard an id is (or would be) routed to.
    fn route(&self, id: u64) -> usize {
        ((id / ROUTE_BLOCK) % self.shards.len() as u64) as usize
    }

    /// Append validated clients, assigning fresh ids and dirtying only the
    /// shards the new ids route to.
    pub fn add(&mut self, batch: Vec<ClientParams>) -> Result<Vec<ClientId>, ServiceError> {
        for (index, params) in batch.iter().enumerate() {
            params
                .validate()
                .map_err(|reason| ServiceError::InvalidClient { index, reason })?;
        }
        if !batch.is_empty() {
            self.version += 1;
        }
        let mut ids = Vec::with_capacity(batch.len());
        for params in batch {
            let id = ClientId(self.next_id);
            self.next_id += 1;
            // Ids are consecutive: an id opens a new block at a block
            // boundary (after every live id so far) and otherwise joins
            // the last one.
            if id.0.is_multiple_of(ROUTE_BLOCK) {
                self.blocks.push(RouteBlock {
                    live: 0,
                    start: self.order.len(),
                });
            }
            let block = self.blocks.last_mut().expect("opened at its first id");
            block.live |= 1 << (id.0 % ROUTE_BLOCK);
            let shard = self.route(id.0);
            self.shards[shard].cache = None;
            self.shards[shard].records.push(ClientRecord { id, params });
            self.segment_versions[segment_of(id)] = self.version;
            self.order.push(id);
            ids.push(id);
        }
        Ok(ids)
    }

    /// Remove a batch of ids (order-preserving compaction of the touched
    /// shards and the global order), dirtying only the touched shards.
    ///
    /// Rejects the whole batch — mutating nothing — if any id is unknown
    /// or duplicated within the batch.
    pub fn remove(&mut self, ids: &[ClientId]) -> Result<usize, ServiceError> {
        // Clear the ids' live bits in request order; the first unknown or
        // repeated id restores the bits cleared so far.
        for (i, &id) in ids.iter().enumerate() {
            match self.locate(id) {
                Some((b, bit)) if self.blocks[b].live & bit != 0 => self.blocks[b].live &= !bit,
                _ => {
                    for &done in &ids[..i] {
                        let (b, bit) = self.locate(done).expect("cleared above");
                        self.blocks[b].live |= bit;
                    }
                    return Err(if ids[..i].contains(&id) {
                        ServiceError::DuplicateRemoval(id)
                    } else {
                        ServiceError::UnknownClient(id)
                    });
                }
            }
        }
        if ids.is_empty() {
            return Ok(0);
        }
        self.version += 1;
        // Compact each touched shard, preserving its id order.
        let mut touched: Vec<usize> = ids.iter().map(|id| self.route(id.0)).collect();
        touched.sort_unstable();
        touched.dedup();
        let blocks = &self.blocks;
        let is_live = |id: ClientId| {
            blocks[(id.0 / ROUTE_BLOCK) as usize].live & (1 << (id.0 % ROUTE_BLOCK)) != 0
        };
        for s in touched {
            let shard = &mut self.shards[s];
            shard.cache = None;
            shard.records.retain(|r| is_live(r.id));
        }
        for &id in ids {
            self.segment_versions[segment_of(id)] = self.version;
        }
        // Compact the global order: the removed ids' positions, ascending,
        // split it into surviving runs that each move once.
        let mut doomed: Vec<usize> = ids
            .iter()
            .map(|id| self.order.binary_search(id).expect("removed id was live"))
            .collect();
        doomed.sort_unstable();
        let first_block = (self.order[doomed[0]].0 / ROUTE_BLOCK) as usize;
        let mut write = doomed[0];
        for (k, &pos) in doomed.iter().enumerate() {
            let end = doomed.get(k + 1).copied().unwrap_or(self.order.len());
            self.order.copy_within(pos + 1..end, write);
            write += end - pos - 1;
        }
        self.order.truncate(write);
        // Blocks after the first touched one shift down by the ids
        // removed before them.
        for b in first_block + 1..self.blocks.len() {
            self.blocks[b].start = self.blocks[b - 1].start + self.blocks[b - 1].len();
        }
        Ok(ids.len())
    }

    /// Replace every client's availability pattern from a model aligned to
    /// the global order, dirtying only shards whose patterns actually
    /// changed (and only when `track_dirty` is set — an availability-blind
    /// service's caches never read the patterns).
    ///
    /// Returns whether any pattern changed.
    pub fn set_availability(
        &mut self,
        model: &AvailabilityModel,
        track_dirty: bool,
    ) -> Result<bool, ServiceError> {
        if model.len() != self.order.len() {
            return Err(ServiceError::AvailabilityMismatch {
                clients: self.order.len(),
                patterns: model.len(),
            });
        }
        let mut touched = Vec::new();
        for run in block_runs(&self.blocks, self.shards.len()) {
            let records = &mut self.shards[run.shard].records[run.local.clone()];
            let patterns = &model.patterns()[run.global..run.global + records.len()];
            let mut hit = false;
            for (record, &pattern) in records.iter_mut().zip(patterns) {
                hit |= record.params.availability != pattern;
                record.params.availability = pattern;
            }
            if hit {
                touched.push(run);
            }
        }
        // An availability-blind service's assembled view never reads the
        // patterns, so only tracked changes dirty caches and advance the
        // stamps.
        if !touched.is_empty() && track_dirty {
            self.version += 1;
            for run in &touched {
                self.shards[run.shard].cache = None;
                self.segment_versions[run.block % INDEX_SEGMENTS] = self.version;
            }
        }
        Ok(!touched.is_empty())
    }

    /// Rebuild the caches of dirty shards only, returning how much work
    /// that took. `O(N/S · dirty)` — the tentpole of the sharded store.
    pub fn ensure_caches(&mut self, availability_aware: bool, q_min: f64) -> ShardStats {
        let mut stats = ShardStats::default();
        for shard in &mut self.shards {
            if shard.cache.is_some() {
                continue;
            }
            stats.dirty_shards += 1;
            stats.rebuilt_columns += shard.records.len();
            let m = shard.records.len();
            let mut cache = ShardCache {
                included: Vec::with_capacity(m),
                w_raw: Vec::with_capacity(m),
                g2: Vec::with_capacity(m),
                cost_eff: Vec::with_capacity(m),
                value: Vec::with_capacity(m),
                q_max_eff: Vec::with_capacity(m),
            };
            for record in &shard.records {
                let p = &record.params;
                let rate = if availability_aware {
                    p.availability.availability_rate()
                } else {
                    1.0
                };
                // A rate of exactly 1.0 makes both transforms bit-exact
                // identities, so the always-on path matches the paper's
                // pricing bit for bit.
                let included = rate > 0.0 && p.q_max * rate > q_min;
                cache.included.push(included);
                cache.w_raw.push(p.data_size);
                cache.g2.push(p.g_squared);
                cache.cost_eff.push(if included {
                    p.cost / (rate * rate)
                } else {
                    0.0
                });
                cache.value.push(p.value);
                cache.q_max_eff.push(p.q_max * rate);
            }
            shard.cache = Some(cache);
        }
        stats
    }

    /// Gather the cached columns in global order and normalise the raw
    /// weights (the exact left-fold `Population::from_raw` performs over
    /// the included clients).
    ///
    /// The gather walks the route blocks in order and copies each block's
    /// run out of its shard's cache as slices. With `index_inputs` (a
    /// fast-path service) it also assembles the threshold index's
    /// [`IndexInputs`]: block `b`'s included rows join index segment
    /// `b % INDEX_SEGMENTS` as one range. The exact path reads none of
    /// them, so it pays neither the `w²G²` pass nor the range lists.
    ///
    /// Must run after [`ShardedClientStore::ensure_caches`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NoPriceableClients`] when every client is
    /// excluded, and [`ServiceError::Game`] for degenerate raw weights —
    /// the same conditions the from-scratch `Population::from_raw` path
    /// rejects.
    pub fn assemble(&self, index_inputs: bool) -> Result<AssembledView, ServiceError> {
        let n = self.order.len();
        let mut included = Vec::with_capacity(n);
        let mut w_raw = Vec::with_capacity(n);
        let mut g2 = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        let mut value = Vec::with_capacity(n);
        let mut q_max = Vec::with_capacity(n);
        let mut segments = index_inputs.then(|| vec![Vec::new(); INDEX_SEGMENTS]);
        for run in block_runs(&self.blocks, self.shards.len()) {
            let cache = self.shards[run.shard]
                .cache
                .as_ref()
                .expect("ensure_caches runs before assemble");
            let inc = &cache.included[run.local.clone()];
            let all = inc.iter().all(|&i| i);
            let from = w_raw.len();
            included.extend_from_slice(inc);
            extend_included(&mut w_raw, &cache.w_raw[run.local.clone()], inc, all);
            extend_included(&mut g2, &cache.g2[run.local.clone()], inc, all);
            extend_included(&mut cost, &cache.cost_eff[run.local.clone()], inc, all);
            extend_included(&mut value, &cache.value[run.local.clone()], inc, all);
            extend_included(&mut q_max, &cache.q_max_eff[run.local], inc, all);
            if let Some(segments) = segments.as_mut().filter(|_| w_raw.len() > from) {
                segments[run.block % INDEX_SEGMENTS].push(from..w_raw.len());
            }
        }
        let included_count = w_raw.len();
        if included_count == 0 {
            return Err(ServiceError::NoPriceableClients { registered: n });
        }
        // The same sequential left-fold `Population::from_raw` uses, so
        // the normalised weights — and everything derived from them — are
        // bit-identical to the from-scratch path.
        let total_raw_weight: f64 = w_raw.iter().sum();
        if !(total_raw_weight.is_finite() && total_raw_weight > 0.0) {
            return Err(ServiceError::Game(GameError::InvalidParameter {
                name: "weights",
                reason: format!(
                    "raw weights must sum to a positive finite total, got {total_raw_weight}"
                ),
            }));
        }
        let mut a2g2 = Vec::with_capacity(included_count);
        for (&w, &g) in w_raw.iter().zip(&g2) {
            let nw = w / total_raw_weight;
            if !(nw.is_finite() && nw > 0.0) {
                return Err(ServiceError::Game(GameError::InvalidParameter {
                    name: "weight",
                    reason: format!("normalised weight must be finite and positive, got {nw}"),
                }));
            }
            a2g2.push(nw * nw * g);
        }
        let index = segments.map(|segments| IndexInputs {
            w2g2: w_raw.iter().zip(&g2).map(|(&w, &g)| w * w * g).collect(),
            segments,
            scale: total_raw_weight * total_raw_weight,
        });
        Ok(AssembledView {
            population: PopulationColumns {
                a2g2,
                cost,
                value,
                q_max,
            },
            included,
            included_count,
            total_raw_weight,
            index,
        })
    }

    /// The record of `id`, if registered (its shard's records are in id
    /// order).
    #[cfg(test)]
    fn record(&self, id: ClientId) -> Option<&ClientRecord> {
        self.position(id)?;
        let records = &self.shards[self.route(id.0)].records;
        let local = records.binary_search_by_key(&id, |r| r.id).ok()?;
        Some(&records[local])
    }

    /// Shards whose caches the next [`Self::ensure_caches`] rebuilds.
    #[cfg(test)]
    fn dirty_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| self.shards[s].cache.is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedfl_core::population::{Population, Q_MIN};
    use fedfl_sim::availability::AvailabilityPattern;
    use proptest::prelude::*;

    fn params(weight: f64) -> ClientParams {
        ClientParams {
            data_size: weight,
            g_squared: 4.0,
            cost: 10.0,
            value: 1.0,
            q_max: 1.0,
            availability: AvailabilityPattern::AlwaysOn,
        }
    }

    #[test]
    fn add_assigns_sequential_ids_and_indexes() {
        let mut store = ShardedClientStore::new(4);
        let ids = store.add(vec![params(1.0), params(2.0)]).unwrap();
        assert_eq!(ids, vec![ClientId(0), ClientId(1)]);
        assert_eq!(store.position(ClientId(1)), Some(1));
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.ids(), &[ClientId(0), ClientId(1)]);
    }

    #[test]
    fn add_rejects_invalid_without_mutation() {
        let mut store = ShardedClientStore::new(2);
        let mut bad = params(1.0);
        bad.cost = -1.0;
        assert!(matches!(
            store.add(vec![params(1.0), bad]),
            Err(ServiceError::InvalidClient { index: 1, .. })
        ));
        assert!(store.is_empty());
    }

    #[test]
    fn remove_preserves_order_and_reindexes() {
        let mut store = ShardedClientStore::new(3);
        let ids = store
            .add(vec![params(1.0), params(2.0), params(3.0), params(4.0)])
            .unwrap();
        assert_eq!(store.remove(&[ids[1], ids[3]]).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids(), &[ids[0], ids[2]]);
        assert_eq!(store.position(ids[2]), Some(1));
        assert_eq!(store.position(ids[1]), None);
        // Unknown and duplicate ids reject the whole batch atomically.
        assert!(store.remove(&[ids[1]]).is_err());
        assert!(store.remove(&[ids[0], ids[0]]).is_err());
        assert_eq!(store.len(), 2);
        assert_eq!(store.remove(&[]).unwrap(), 0);
        // Records survive compaction intact.
        assert_eq!(store.record(ids[2]).unwrap().params.data_size, 3.0);
    }

    #[test]
    fn ids_are_never_reused_after_removal() {
        let mut store = ShardedClientStore::new(2);
        let ids = store.add(vec![params(1.0)]).unwrap();
        store.remove(&[ids[0]]).unwrap();
        let fresh = store.add(vec![params(1.0)]).unwrap();
        assert_ne!(fresh[0], ids[0]);
    }

    #[test]
    fn dirty_tracking_rebuilds_only_touched_shards() {
        // 8 shards, enough clients that several route blocks are live.
        let mut store = ShardedClientStore::new(8);
        let n = ROUTE_BLOCK as usize * 8 + 7;
        let ids = store
            .add((0..n).map(|k| params(1.0 + k as f64)).collect())
            .unwrap();
        let cold = store.ensure_caches(false, Q_MIN);
        assert_eq!(cold.dirty_shards, 8);
        assert_eq!(cold.rebuilt_columns, n);
        // Nothing dirty: nothing rebuilt.
        assert_eq!(store.ensure_caches(false, Q_MIN), ShardStats::default());
        // Removing one client dirties exactly its shard.
        store.remove(&[ids[0]]).unwrap();
        let after_remove = store.ensure_caches(false, Q_MIN);
        assert_eq!(after_remove.dirty_shards, 1);
        assert!(after_remove.rebuilt_columns < n / 2);
        // A small add batch lands in at most two shards.
        store.add(vec![params(5.0), params(6.0)]).unwrap();
        let after_add = store.ensure_caches(false, Q_MIN);
        assert!(after_add.dirty_shards <= 2);
    }

    #[test]
    fn segment_versions_stamp_only_touched_segments() {
        // 3 shards do not divide the 256 segments: blocks 0 and 3 share
        // shard 0 but not a segment, and the stamps stay per segment.
        let mut store = ShardedClientStore::new(3);
        let stamps = |store: &ShardedClientStore| {
            let versions = store.segment_versions();
            assert_eq!(versions.len(), INDEX_SEGMENTS);
            assert!(versions[4..].iter().all(|&v| v == 0));
            versions[..4].to_vec()
        };
        assert_eq!(stamps(&store), [0, 0, 0, 0]);
        // One route block of adds stamps exactly segment 0 at the new
        // global version.
        let ids = store
            .add((0..ROUTE_BLOCK).map(|_| params(1.0)).collect())
            .unwrap();
        assert_eq!(store.version(), 1);
        assert_eq!(stamps(&store), [1, 0, 0, 0]);
        // The next block is segment 1; segment 0's stamp is left alone,
        // so an index stamped at version 1 sees exactly segment 1 as
        // newer.
        store
            .add((0..ROUTE_BLOCK).map(|_| params(2.0)).collect())
            .unwrap();
        assert_eq!(store.version(), 2);
        assert_eq!(stamps(&store), [1, 2, 0, 0]);
        let stamped = 1u64;
        let dirty: Vec<usize> = store
            .segment_versions()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > stamped)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(dirty, vec![1]);
        // Removing from block 0 stamps segment 0 only.
        store.remove(&[ids[0]]).unwrap();
        assert_eq!(store.version(), 3);
        assert_eq!(stamps(&store), [3, 2, 0, 0]);
        // An availability change to one client stamps its segment only —
        // and only when the service tracks availability.
        let n = store.len();
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[n - 1] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model, false).unwrap());
        assert_eq!(stamps(&store), [3, 2, 0, 0], "untracked change");
        let model = AvailabilityModel::always_on(n);
        assert!(store.set_availability(&model, true).unwrap());
        assert_eq!(store.version(), 4);
        assert_eq!(stamps(&store), [3, 4, 0, 0]);
        // Blocks 2 and 3, then a removal from block 3: shard 0 churns
        // again, segment 0 does not.
        store
            .add((0..2 * ROUTE_BLOCK).map(|_| params(3.0)).collect())
            .unwrap();
        assert_eq!(stamps(&store), [3, 4, 5, 5]);
        store.ensure_caches(false, Q_MIN);
        store.remove(&[ClientId(3 * ROUTE_BLOCK + 7)]).unwrap();
        assert_eq!(store.dirty_shards(), vec![0]);
        assert_eq!(stamps(&store), [3, 4, 5, 6]);
    }

    #[test]
    fn assembled_index_inputs_align_with_included_clients() {
        let mut store = ShardedClientStore::new(2);
        let mut dead = params(2.0);
        dead.availability = AvailabilityPattern::Random { probability: 1e-12 };
        store
            .add(vec![params(1.5), dead, params(3.0), params(4.0)])
            .unwrap();
        store.ensure_caches(true, Q_MIN);
        assert!(
            store.assemble(false).unwrap().index.is_none(),
            "the exact path assembles no index inputs"
        );
        let assembled = store.assemble(true).unwrap();
        let inputs = assembled.index.as_ref().unwrap();
        assert_eq!(inputs.w2g2.len(), assembled.included_count);
        assert_eq!(inputs.segments.len(), INDEX_SEGMENTS);
        // w²G² is raw-weight squared times G², in insertion order over
        // the included clients; the scale is the squared raw total.
        let expected: Vec<f64> = [1.5f64, 3.0, 4.0].iter().map(|w| w * w * 4.0).collect();
        assert_eq!(inputs.w2g2, expected);
        let total: f64 = 1.5 + 3.0 + 4.0;
        assert_eq!(inputs.scale.to_bits(), (total * total).to_bits());
        // All four ids share route block 0, so segment 0 holds the three
        // included rows as one range and every other segment is empty.
        assert_eq!(inputs.segments[0], vec![0..3]);
        assert!(inputs.segments[1..].iter().all(Vec::is_empty));
        // The scaled index columns describe the same clients the solver
        // columns do: (w/W)²G² == w²G² / scale up to one rounding.
        for (i, &a2g2) in assembled.population.a2g2.iter().enumerate() {
            let rescaled = inputs.w2g2[i] / inputs.scale;
            assert!((rescaled - a2g2).abs() <= 1e-12 * a2g2.abs());
        }
    }

    #[test]
    fn availability_updates_dirty_only_changed_shards() {
        let mut store = ShardedClientStore::new(4);
        let n = ROUTE_BLOCK as usize * 4;
        store.add((0..n).map(|_| params(1.0)).collect()).unwrap();
        store.ensure_caches(true, Q_MIN);
        // An identical model changes nothing and dirties nothing.
        let same = AvailabilityModel::always_on(n);
        assert!(!store.set_availability(&same, true).unwrap());
        assert_eq!(store.ensure_caches(true, Q_MIN), ShardStats::default());
        // Changing one client's pattern dirties exactly its shard.
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[3] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model, true).unwrap());
        let stats = store.ensure_caches(true, Q_MIN);
        assert_eq!(stats.dirty_shards, 1);
        assert_eq!(stats.rebuilt_columns, ROUTE_BLOCK as usize);
        // Mismatched model length is rejected.
        assert!(store
            .set_availability(&AvailabilityModel::always_on(n - 1), true)
            .is_err());
    }

    #[test]
    fn assemble_matches_from_raw_normalisation() {
        let mut store = ShardedClientStore::new(3);
        let clients: Vec<ClientParams> = (0..10).map(|k| params(1.0 + k as f64)).collect();
        store.add(clients.clone()).unwrap();
        store.ensure_caches(false, Q_MIN);
        let assembled = store.assemble(false).unwrap();
        assert_eq!(assembled.included_count, 10);
        assert!(assembled.included.iter().all(|&inc| inc));
        let reference =
            Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect())
                .unwrap()
                .columns();
        assert_eq!(assembled.population, reference);
        let expected_total: f64 = clients.iter().map(|c| c.data_size).sum();
        assert_eq!(
            assembled.total_raw_weight.to_bits(),
            expected_total.to_bits()
        );
    }

    #[test]
    fn assemble_excludes_unreachable_clients() {
        let mut store = ShardedClientStore::new(2);
        let mut dead = params(2.0);
        dead.availability = AvailabilityPattern::Random { probability: 1e-12 };
        store.add(vec![params(1.0), dead, params(3.0)]).unwrap();
        store.ensure_caches(true, Q_MIN);
        let assembled = store.assemble(false).unwrap();
        assert_eq!(assembled.included, vec![true, false, true]);
        assert_eq!(assembled.included_count, 2);
        assert_eq!(assembled.population.len(), 2);
        // All excluded -> NoPriceableClients.
        let mut empty = ShardedClientStore::new(2);
        let mut gone = params(1.0);
        gone.availability = AvailabilityPattern::Random { probability: 1e-12 };
        empty.add(vec![gone]).unwrap();
        empty.ensure_caches(true, Q_MIN);
        assert!(matches!(
            empty.assemble(false),
            Err(ServiceError::NoPriceableClients { registered: 1 })
        ));
    }

    /// SplitMix64: a deterministic stream of test parameters.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[lo, hi)` keyed by `(seed, k)`.
    fn unit(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((mix(seed ^ mix(k)) >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// An availability pattern keyed by `seed`; one in five is effectively
    /// unreachable, so availability-aware stores exclude it.
    fn pattern(seed: u64) -> AvailabilityPattern {
        match mix(seed) % 5 {
            0 => AvailabilityPattern::Random { probability: 1e-12 },
            1 => AvailabilityPattern::Random {
                probability: unit(seed, 9, 0.2, 1.0),
            },
            2 => AvailabilityPattern::DutyCycle {
                period: 4,
                on_rounds: 1,
                offset: 0,
            },
            _ => AvailabilityPattern::AlwaysOn,
        }
    }

    /// A valid client keyed by `seed`.
    fn drawn(seed: u64) -> ClientParams {
        ClientParams {
            data_size: unit(seed, 1, 0.1, 10.0),
            g_squared: unit(seed, 2, 1.0, 40.0),
            cost: unit(seed, 3, 5.0, 100.0),
            value: unit(seed, 4, 0.0, 20.0),
            q_max: unit(seed, 5, 0.3, 1.0),
            availability: pattern(seed),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A store driven in lockstep with a naive reference — the live
    /// clients as a `Vec` in id order, plus the stamps and dirty shards
    /// the store must report — checked after every command.
    struct Checked {
        store: ShardedClientStore,
        aware: bool,
        clients: Vec<(ClientId, ClientParams)>,
        removed: Vec<ClientId>,
        next_id: u64,
        version: u64,
        segment_versions: Vec<u64>,
        dirty: Vec<bool>,
    }

    impl Checked {
        fn new(shards: usize, aware: bool) -> Self {
            Self {
                store: ShardedClientStore::new(shards),
                aware,
                clients: Vec::new(),
                removed: Vec::new(),
                next_id: 0,
                version: 0,
                segment_versions: vec![0; INDEX_SEGMENTS],
                dirty: vec![true; shards],
            }
        }

        fn route(&self, id: ClientId) -> usize {
            ((id.0 / ROUTE_BLOCK) % self.dirty.len() as u64) as usize
        }

        /// Stamp `id`'s segment and dirty its shard.
        fn touch(&mut self, id: ClientId) {
            self.segment_versions[segment_of(id)] = self.version;
            let shard = self.route(id);
            self.dirty[shard] = true;
        }

        fn add(&mut self, batch: Vec<ClientParams>) {
            let ids = self.store.add(batch.clone()).unwrap();
            let expected: Vec<ClientId> = (self.next_id..self.next_id + batch.len() as u64)
                .map(ClientId)
                .collect();
            assert_eq!(ids, expected);
            self.next_id += batch.len() as u64;
            if !batch.is_empty() {
                self.version += 1;
            }
            for (id, params) in ids.into_iter().zip(batch) {
                self.touch(id);
                self.clients.push((id, params));
            }
            self.check();
        }

        fn remove(&mut self, ids: &[ClientId]) {
            let result = self.store.remove(ids);
            // The first unknown or repeated id, in request order, rejects
            // the batch.
            let mut seen = Vec::new();
            let verdict = ids.iter().try_for_each(|&id| {
                if seen.contains(&id) {
                    return Err(ServiceError::DuplicateRemoval(id));
                }
                if !self.clients.iter().any(|(live, _)| *live == id) {
                    return Err(ServiceError::UnknownClient(id));
                }
                seen.push(id);
                Ok(())
            });
            match verdict {
                Err(err) => assert_eq!(result, Err(err)),
                Ok(()) => {
                    assert_eq!(result, Ok(ids.len()));
                    if !ids.is_empty() {
                        self.version += 1;
                    }
                    for &id in ids {
                        self.touch(id);
                    }
                    self.clients.retain(|(live, _)| !ids.contains(live));
                    self.removed.extend_from_slice(ids);
                }
            }
            self.check();
        }

        fn set_availability(&mut self, patterns: Vec<AvailabilityPattern>) {
            let model = AvailabilityModel::new(patterns.clone()).unwrap();
            let changed = self.store.set_availability(&model, self.aware).unwrap();
            let hits: Vec<ClientId> = self
                .clients
                .iter()
                .zip(&patterns)
                .filter(|((_, params), &p)| params.availability != p)
                .map(|((id, _), _)| *id)
                .collect();
            assert_eq!(changed, !hits.is_empty());
            if self.aware && changed {
                self.version += 1;
                for id in hits {
                    self.touch(id);
                }
            }
            for ((_, params), p) in self.clients.iter_mut().zip(patterns) {
                params.availability = p;
            }
            self.check();
        }

        /// Ids, positions, stamps and the dirty set against the reference.
        fn check(&self) {
            let ids: Vec<ClientId> = self.clients.iter().map(|(id, _)| *id).collect();
            assert_eq!(self.store.ids(), ids.as_slice());
            assert_eq!(self.store.len(), ids.len());
            for (pos, (id, params)) in self.clients.iter().enumerate() {
                assert_eq!(self.store.position(*id), Some(pos), "position of {id}");
                assert_eq!(self.store.record(*id).map(|r| &r.params), Some(params));
            }
            let unissued = [
                ClientId(self.next_id),
                ClientId(self.next_id + 1000 * ROUTE_BLOCK),
                ClientId(u64::MAX),
            ];
            for &id in self.removed.iter().chain(&unissued) {
                assert_eq!(self.store.position(id), None, "position of dead {id}");
            }
            assert_eq!(self.store.version(), self.version);
            assert_eq!(
                self.store.segment_versions(),
                self.segment_versions.as_slice()
            );
            let dirty: Vec<usize> = (0..self.dirty.len()).filter(|&s| self.dirty[s]).collect();
            assert_eq!(self.store.dirty_shards(), dirty);
        }

        /// Rebuild the dirty caches and compare the assembled view, bit for
        /// bit, with `Population::from_raw` over the included survivors.
        fn assemble(&mut self) {
            let stats = self.store.ensure_caches(self.aware, Q_MIN);
            let rebuilt = self
                .clients
                .iter()
                .filter(|(id, _)| self.dirty[self.route(*id)])
                .count();
            assert_eq!(
                stats,
                ShardStats {
                    dirty_shards: self.dirty.iter().filter(|&&d| d).count(),
                    rebuilt_columns: rebuilt,
                }
            );
            self.dirty.fill(false);
            self.check();

            let rates: Vec<f64> = self
                .clients
                .iter()
                .map(|(_, p)| {
                    if self.aware {
                        p.availability.availability_rate()
                    } else {
                        1.0
                    }
                })
                .collect();
            let included: Vec<bool> = self
                .clients
                .iter()
                .zip(&rates)
                .map(|((_, p), &r)| r > 0.0 && p.q_max * r > Q_MIN)
                .collect();
            let survivors: Vec<usize> = (0..included.len()).filter(|&i| included[i]).collect();
            let result = self.store.assemble(true);
            if survivors.is_empty() {
                let registered = self.clients.len();
                assert!(matches!(
                    result,
                    Err(ServiceError::NoPriceableClients { registered: r }) if r == registered
                ));
                return;
            }
            let view = result.unwrap();
            assert_eq!(view.included, included);
            assert_eq!(view.included_count, survivors.len());
            let survivor_rates: Vec<f64> = survivors.iter().map(|&i| rates[i]).collect();
            let expected = Population::from_raw(
                survivors
                    .iter()
                    .map(|&i| self.clients[i].1.raw_profile())
                    .collect(),
            )
            .unwrap()
            .columns()
            .effective(&survivor_rates)
            .unwrap();
            let got = &view.population;
            assert_eq!(bits(&got.a2g2), bits(&expected.a2g2));
            assert_eq!(bits(&got.cost), bits(&expected.cost));
            assert_eq!(bits(&got.value), bits(&expected.value));
            assert_eq!(bits(&got.q_max), bits(&expected.q_max));
            let weights: Vec<f64> = survivors
                .iter()
                .map(|&i| self.clients[i].1.data_size)
                .collect();
            let total: f64 = weights.iter().sum();
            assert_eq!(view.total_raw_weight.to_bits(), total.to_bits());
            // The exact path's view is the same solver columns with no
            // index inputs.
            let exact_view = self.store.assemble(false).unwrap();
            assert_eq!(exact_view.population, view.population);
            assert!(exact_view.index.is_none());
            let index = view.index.as_ref().unwrap();
            let w2g2: Vec<f64> = survivors
                .iter()
                .map(|&i| {
                    let p = &self.clients[i].1;
                    p.data_size * p.data_size * p.g_squared
                })
                .collect();
            assert_eq!(bits(&index.w2g2), bits(&w2g2));
            let index_cols = view.index_columns(index);
            assert_eq!(bits(index_cols.w2g2), bits(&w2g2));
            assert_eq!(bits(index_cols.cost), bits(&expected.cost));
            assert_eq!(bits(index_cols.value), bits(&expected.value));
            assert_eq!(bits(index_cols.q_max), bits(&expected.q_max));
            // Each segment holds its blocks' included rows in global
            // order, as non-empty ranges.
            let mut rows = vec![Vec::new(); INDEX_SEGMENTS];
            for (row, &i) in survivors.iter().enumerate() {
                rows[segment_of(self.clients[i].0)].push(row);
            }
            let got: Vec<Vec<usize>> = index
                .segments
                .iter()
                .map(|ranges| ranges.iter().cloned().flatten().collect())
                .collect();
            assert_eq!(got, rows);
            assert!(index.segments.iter().flatten().all(|r| !r.is_empty()));
            assert_eq!(index.scale.to_bits(), (total * total).to_bits());
        }

        /// One random command keyed by `(kind, arg)`.
        fn apply(&mut self, kind: u8, arg: u64) {
            let live: Vec<ClientId> = self.store.ids().to_vec();
            let pick = |k: u64| live[(mix(arg ^ k) % live.len() as u64) as usize];
            match kind {
                0 | 1 => {
                    let n = arg % 70;
                    self.add((0..n).map(|k| drawn(arg ^ mix(k))).collect());
                }
                2 if live.is_empty() => self.remove(&[ClientId(self.next_id)]),
                2 => match arg % 5 {
                    // A few distinct clients anywhere.
                    0 => {
                        let mut doomed: Vec<ClientId> = (0..1 + arg % 4).map(pick).collect();
                        doomed.sort_unstable();
                        doomed.dedup();
                        self.remove(&doomed);
                    }
                    // Every live client of one route block, in reverse.
                    1 => {
                        let block = pick(0).0 / ROUTE_BLOCK;
                        let doomed: Vec<ClientId> = live
                            .iter()
                            .rev()
                            .filter(|id| id.0 / ROUTE_BLOCK == block)
                            .copied()
                            .collect();
                        self.remove(&doomed);
                    }
                    // Everyone.
                    2 => self.remove(&live),
                    // The newest clients, partly emptying the last block.
                    3 => self.remove(&live[live.len().saturating_sub(1 + arg as usize % 5)..]),
                    // A rejected batch: a repeat, a removed or an unissued id.
                    _ => {
                        let bad = match arg % 3 {
                            0 => pick(1),
                            1 => self.removed.last().copied().unwrap_or(ClientId(u64::MAX)),
                            _ => ClientId(u64::MAX),
                        };
                        self.remove(&[pick(1), bad]);
                    }
                },
                3 if live.is_empty() => {}
                3 => {
                    let patterns = self
                        .clients
                        .iter()
                        .enumerate()
                        .map(|(i, (_, p))| {
                            if mix(arg ^ i as u64).is_multiple_of(4) {
                                pattern(arg ^ mix(i as u64))
                            } else {
                                p.availability
                            }
                        })
                        .collect();
                    self.set_availability(patterns);
                }
                _ => self.assemble(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn directory_store_matches_a_naive_model(
            shard_pick in 0usize..4,
            aware in any::<bool>(),
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..40),
        ) {
            let mut checked = Checked::new([1, 3, 8, 256][shard_pick], aware);
            for (kind, arg) in ops {
                checked.apply(kind, arg);
            }
            checked.assemble();
        }
    }

    #[test]
    fn directory_edge_cases_match_a_naive_model() {
        for shards in [1, 3, 8, 256] {
            for aware in [false, true] {
                let mut checked = Checked::new(shards, aware);
                // Blocks 0 and 1 full, block 2 holding ids 64..80.
                checked.add((0..80).map(drawn).collect());
                checked.assemble();
                // Empty a whole route block, in reverse id order.
                checked.remove(&(32..64).rev().map(ClientId).collect::<Vec<_>>());
                checked.assemble();
                // Partly empty the last block, then re-add into it.
                checked.remove(&[ClientId(79), ClientId(70), ClientId(64)]);
                checked.add((80..90).map(drawn).collect());
                checked.assemble();
                // Availability updates after removals.
                let patterns = checked
                    .clients
                    .iter()
                    .enumerate()
                    .map(|(i, (_, p))| {
                        if i % 3 == 0 {
                            pattern(1000 + i as u64)
                        } else {
                            p.availability
                        }
                    })
                    .collect();
                checked.set_availability(patterns);
                checked.assemble();
                // Rejected batches change nothing.
                checked.remove(&[ClientId(0), ClientId(40)]);
                checked.remove(&[ClientId(1), ClientId(2), ClientId(1)]);
                checked.remove(&[ClientId(3), ClientId(u64::MAX)]);
                checked.remove(&[ClientId(10_000)]);
                // Remove everything, then add.
                let everyone = checked.store.ids().to_vec();
                checked.remove(&everyone);
                assert!(checked.store.is_empty());
                checked.assemble();
                checked.add((90..100).map(drawn).collect());
                checked.assemble();
            }
        }
    }
}
