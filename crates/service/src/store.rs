//! The service's client store: raw-weighted profiles in 32-id route
//! blocks, and the solver's columns of the included clients.
//!
//! Ids are issued in sequence and never reused, so insertion order is id
//! order. One directory entry per route block — a live mask plus the global
//! position of its first live id — locates an id with a popcount. In a
//! parallel vector each block owns its clients' records and its row
//! bookkeeping, so reads touch only the 16-byte directory entries.
//!
//! The store keeps one persistent column set for the included clients, in
//! id order: the solver's [`PopulationColumns`], the raw weights `w` and
//! `G²`, and for a fast-path store the index's `w²G²`. Mutations edit the
//! directory and the block's records and *stamp* the block. A
//! [`ClientStore::refresh`] then, from the first stamped block on:
//!
//! 1. computes each block's new first row;
//! 2. moves the clean blocks whose rows go down, in ascending block order;
//! 3. moves the clean blocks whose rows go up (only a re-included client
//!    pushes rows up), in descending order, so no move overwrites a row
//!    that has yet to move;
//! 4. re-derives the stamped blocks' rows from their records;
//! 5. recomputes the raw-weight total `W` with the left fold
//!    `Population::from_raw` performs, and `a²G² = (w/W)²·G²`.
//!
//! A refresh with no stamped block touches no column. The columns equal
//! `Population::from_raw` over the included clients, with the transform of
//! [`PopulationColumns::effective`], bit for bit, and so do the prices.
//!
//! The directory is also the fast path's segment map: index segment `k`
//! holds the blocks `b` with `b % INDEX_SEGMENTS = k`, and every mutation
//! stamps the segments of the blocks it touches.

use crate::error::ServiceError;
use crate::{ClientId, ClientParams};
use fedfl_core::active_set::IndexColumns;
use fedfl_core::population::PopulationColumns;
use fedfl_core::GameError;
use fedfl_sim::availability::AvailabilityModel;
use std::ops::Range;

/// Consecutive ids that share one directory entry, one record vector and
/// one index-segment slot: the width of a live mask. A registration batch
/// of up to this many ids stamps at most two blocks.
const ROUTE_BLOCK: u64 = 32;

/// Segment count of the service's threshold index: route block `b`'s
/// clients sit in segment `b % INDEX_SEGMENTS`. 256 keeps segments
/// fine-grained (a churn batch confined to one block re-sorts 1/256th of
/// the population) without bloating the segment directory walk.
pub(crate) const INDEX_SEGMENTS: usize = 256;

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

/// The set bits of `mask` as single-bit masks, lowest first: the ids of a
/// block in order, aligned with its records when `mask` is its live mask.
fn set_bits(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let bit = mask & mask.wrapping_neg();
        mask ^= bit;
        (bit != 0).then_some(bit)
    })
}

/// One route block's records and the bookkeeping of its column rows.
#[derive(Debug, Clone, Default)]
struct BlockRecords {
    /// The live clients' parameters in id order, one per set `live` bit.
    /// Reserved at [`ROUTE_BLOCK`] capacity, freed when the block empties.
    clients: Vec<ClientParams>,
    /// Bit `k` is set while id `32b + k` has a column row, as of the last
    /// refresh.
    included: u32,
    /// Column row of the block's first included client, as of the last
    /// refresh.
    row: usize,
    /// Whether a mutation touched the block since the last refresh.
    stamped: bool,
}

impl BlockRecords {
    /// Column rows of the block, as of the last refresh.
    fn rows(&self) -> usize {
        self.included.count_ones() as usize
    }
}

/// How a record becomes a column row: the service's fixed
/// `(availability_aware, q_min)` knobs.
#[derive(Debug, Clone, Copy)]
struct RowRule {
    availability_aware: bool,
    q_min: f64,
}

impl RowRule {
    /// The rate `client` is priced at, if it gets a row: the rate must be
    /// positive and the effective cap `q_max·rate` must clear the solver
    /// floor. A rate of exactly 1.0 makes the effective transforms bit-exact
    /// identities, so the always-on path matches the paper's pricing bit for
    /// bit.
    fn rate(self, client: &ClientParams) -> Option<f64> {
        let rate = if self.availability_aware {
            client.availability.availability_rate()
        } else {
            1.0
        };
        (rate > 0.0 && client.q_max * rate > self.q_min).then_some(rate)
    }

    /// The ids of a block (mask `live`, records `clients`) that get a row.
    fn included(self, live: u32, clients: &[ClientParams]) -> u32 {
        set_bits(live)
            .zip(clients)
            .filter(|(_, client)| self.rate(client).is_some())
            .fold(0, |included, (bit, _)| included | bit)
    }
}

/// The solver's columns of the included clients, in id order.
#[derive(Debug, Clone, Default)]
struct Columns {
    /// The solver's columns. `a2g2` is current only while the store's
    /// `total_raw_weight` is.
    population: PopulationColumns,
    /// Raw data weights `w`.
    w_raw: Vec<f64>,
    /// `G²` per client.
    g2: Vec<f64>,
    /// `w²G²` per client, the threshold index's scale-free column
    /// (fast-path stores only).
    w2g2: Option<Vec<f64>>,
}

impl Columns {
    /// The per-row columns a refresh moves and re-derives (`a²G²` is
    /// recomputed whole instead).
    fn row_columns(&mut self) -> impl Iterator<Item = &mut Vec<f64>> {
        [
            &mut self.w_raw,
            &mut self.g2,
            &mut self.population.cost,
            &mut self.population.value,
            &mut self.population.q_max,
        ]
        .into_iter()
        .chain(self.w2g2.as_mut())
    }

    /// Write `client`'s row, priced at `rate`: the transforms of
    /// [`PopulationColumns::effective`].
    fn write(&mut self, row: usize, client: &ClientParams, rate: f64) {
        self.w_raw[row] = client.data_size;
        self.g2[row] = client.g_squared;
        self.population.cost[row] = client.cost / (rate * rate);
        self.population.value[row] = client.value;
        self.population.q_max[row] = client.q_max * rate;
        if let Some(w2g2) = &mut self.w2g2 {
            w2g2[row] = client.data_size * client.data_size * client.g_squared;
        }
    }
}

/// What one [`ClientStore::refresh`] did.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Refresh {
    /// The stamped route blocks whose rows were re-derived, ascending.
    pub stamped: Vec<usize>,
    /// Registered clients in those blocks.
    pub rederived: usize,
    /// Total raw weight of the included clients: the `W` that normalises
    /// `a²G²` (and the warm-start rescale reference).
    pub total_raw_weight: f64,
}

/// The client store: a route-block id directory, the blocks' records, and
/// the solver's columns of the included clients.
#[derive(Debug, Clone)]
pub(crate) struct ClientStore {
    /// Client ids in global order (strictly ascending; see [`Self::ids`]).
    order: Vec<ClientId>,
    /// One entry per issued route block, indexed by `id / ROUTE_BLOCK`.
    blocks: Vec<RouteBlock>,
    /// The blocks' records and row bookkeeping, parallel to `blocks`.
    records: Vec<BlockRecords>,
    next_id: u64,
    /// Monotonically increasing mutation stamp: bumped by every delta that
    /// can change the columns (adds, removes, effective availability
    /// changes). Caches derived from the columns — the fast path's
    /// threshold index — key on this stamp to detect reuse.
    version: u64,
    /// Per-segment mutation stamps: `segment_versions[k]` is the global
    /// [`Self::version`] of the last delta that touched a route block of
    /// index segment `k` (0 = never touched). An index built at global
    /// version `v` can tell exactly which segments changed since:
    /// `{k | segment_versions[k] > v}` — the dirty set its patch rebuilds.
    segment_versions: Vec<u64>,
    /// The lowest stamped block, where the next refresh starts.
    first_stamped: Option<usize>,
    rule: RowRule,
    columns: Columns,
    /// The raw-weight total `a²G²` is normalised by; `None` until a refresh
    /// succeeds after the last change, so a failed one fails again on retry.
    total_raw_weight: Option<f64>,
}

impl ClientStore {
    /// Create an empty store. `availability_aware` and `q_min` decide which
    /// clients get a row and their effective columns; `index_inputs` keeps
    /// the threshold index's `w²G²` column too (a fast-path service).
    pub fn new(availability_aware: bool, q_min: f64, index_inputs: bool) -> Self {
        Self {
            order: Vec::new(),
            blocks: Vec::new(),
            records: Vec::new(),
            next_id: 0,
            version: 0,
            segment_versions: vec![0; INDEX_SEGMENTS],
            first_stamped: None,
            rule: RowRule {
                availability_aware,
                q_min,
            },
            columns: Columns {
                w2g2: index_inputs.then(Vec::new),
                ..Columns::default()
            },
            total_raw_weight: None,
        }
    }

    /// The current mutation stamp (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-segment mutation stamps (see the `segment_versions` field).
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

    /// Mark block `b` for the next refresh and stamp its index segment at
    /// the current version.
    fn stamp(&mut self, b: usize) {
        self.records[b].stamped = true;
        self.first_stamped = Some(self.first_stamped.map_or(b, |first| first.min(b)));
        self.segment_versions[b % INDEX_SEGMENTS] = self.version;
    }

    /// Append validated clients, assigning fresh ids and stamping the
    /// blocks they join.
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
            // the last one, which may have emptied and freed its records.
            if id.0.is_multiple_of(ROUTE_BLOCK) {
                self.blocks.push(RouteBlock {
                    live: 0,
                    start: self.order.len(),
                });
                self.records.push(BlockRecords::default());
            }
            let b = self.blocks.len() - 1;
            self.blocks[b].live |= 1 << (id.0 % ROUTE_BLOCK);
            let clients = &mut self.records[b].clients;
            if clients.capacity() == 0 {
                clients.reserve_exact(ROUTE_BLOCK as usize);
            }
            clients.push(params);
            self.stamp(b);
            self.order.push(id);
            ids.push(id);
        }
        Ok(ids)
    }

    /// Remove a batch of ids (order-preserving compaction of the touched
    /// blocks' records and the global order), stamping the touched blocks.
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
        // Drop the removed records block by block: a block's records
        // follow the set bits of its mask from before the removal.
        let mut touched: Vec<(usize, u32)> = ids
            .iter()
            .map(|&id| self.locate(id).expect("cleared above"))
            .collect();
        touched.sort_unstable();
        for run in touched.chunk_by(|x, y| x.0 == y.0) {
            let b = run[0].0;
            let live = self.blocks[b].live;
            let clients = &mut self.records[b].clients;
            if live == 0 {
                *clients = Vec::new();
            } else {
                let before = run.iter().fold(live, |mask, &(_, bit)| mask | bit);
                let mut kept = set_bits(before).map(|bit| live & bit != 0);
                clients.retain(|_| kept.next() == Some(true));
            }
            self.stamp(b);
        }
        // Compact the global order: the removed ids' positions, ascending,
        // split it into surviving runs that each move once.
        let mut doomed: Vec<usize> = ids
            .iter()
            .map(|id| self.order.binary_search(id).expect("removed id was live"))
            .collect();
        doomed.sort_unstable();
        let mut write = doomed[0];
        for (k, &pos) in doomed.iter().enumerate() {
            let end = doomed.get(k + 1).copied().unwrap_or(self.order.len());
            self.order.copy_within(pos + 1..end, write);
            write += end - pos - 1;
        }
        self.order.truncate(write);
        // Blocks after the first touched one shift down by the ids
        // removed before them.
        for b in touched[0].0 + 1..self.blocks.len() {
            self.blocks[b].start = self.blocks[b - 1].start + self.blocks[b - 1].len();
        }
        Ok(ids.len())
    }

    /// Replace every client's availability pattern from a model aligned to
    /// the global order. An availability-aware store stamps the blocks
    /// whose patterns changed; an availability-blind one prices every
    /// client at rate 1, so its rows never read the patterns.
    ///
    /// Returns whether any block was stamped.
    pub fn set_availability(&mut self, model: &AvailabilityModel) -> Result<bool, ServiceError> {
        if model.len() != self.order.len() {
            return Err(ServiceError::AvailabilityMismatch {
                clients: self.order.len(),
                patterns: model.len(),
            });
        }
        let mut stamped = false;
        for b in 0..self.blocks.len() {
            let start = self.blocks[b].start;
            let clients = &mut self.records[b].clients;
            let patterns = &model.patterns()[start..start + clients.len()];
            let mut hit = false;
            for (client, &pattern) in clients.iter_mut().zip(patterns) {
                hit |= client.availability != pattern;
                client.availability = pattern;
            }
            if hit && self.rule.availability_aware {
                if !stamped {
                    self.version += 1;
                    stamped = true;
                }
                self.stamp(b);
            }
        }
        Ok(stamped)
    }

    /// Bring the columns up to date with the records (see the module docs)
    /// and normalise the raw weights with the left fold
    /// `Population::from_raw` performs over the included clients.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NoPriceableClients`] when every client is
    /// excluded, and [`ServiceError::Game`] for degenerate raw weights —
    /// the same conditions the from-scratch `Population::from_raw` path
    /// rejects. The rows stay current, but the normalisation does not, so
    /// a retry fails the same way until a mutation mends it.
    pub fn refresh(&mut self) -> Result<Refresh, ServiceError> {
        let (stamped, rederived) = self.rederive();
        let total_raw_weight = self.normalise()?;
        Ok(Refresh {
            stamped,
            rederived,
            total_raw_weight,
        })
    }

    /// Steps 1–4 of the module docs: move the clean blocks' rows and
    /// re-derive the stamped blocks' rows. Returns the stamped blocks and
    /// their client count.
    fn rederive(&mut self) -> (Vec<usize>, usize) {
        let Some(first) = self.first_stamped.take() else {
            return (Vec::new(), 0);
        };
        self.total_raw_weight = None;
        let rule = self.rule;
        let old_len = self.columns.w_raw.len();
        // 1. Each block's new first row. Stamped blocks recount their rows
        //    from their records; clean ones keep theirs and note a move.
        let mut row = first
            .checked_sub(1)
            .map_or(0, |b| self.records[b].row + self.records[b].rows());
        let mut stamped = Vec::new();
        let mut rederived = 0;
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        for (b, (block, records)) in self
            .blocks
            .iter()
            .zip(&mut self.records)
            .enumerate()
            .skip(first)
        {
            if records.stamped {
                records.stamped = false;
                records.included = rule.included(block.live, &records.clients);
                stamped.push(b);
                rederived += records.clients.len();
            } else if records.row != row && records.included != 0 {
                moves.push((records.row, row, records.rows()));
            }
            records.row = row;
            row += records.rows();
        }
        let len = row;
        // 2–3. Downward moves in ascending order, then upward moves in
        //      descending order: each destination lies clear of every row
        //      that has yet to move.
        for column in self.columns.row_columns() {
            column.resize(len.max(old_len), 0.0);
            for &(from, to, rows) in moves.iter().filter(|(from, to, _)| to < from) {
                column.copy_within(from..from + rows, to);
            }
            for &(from, to, rows) in moves.iter().rev().filter(|(from, to, _)| to > from) {
                column.copy_within(from..from + rows, to);
            }
            column.truncate(len);
        }
        // 4. The stamped blocks' rows, from their records.
        for &b in &stamped {
            let records = &self.records[b];
            let mut row = records.row;
            for client in &records.clients {
                if let Some(rate) = rule.rate(client) {
                    self.columns.write(row, client, rate);
                    row += 1;
                }
            }
        }
        (stamped, rederived)
    }

    /// Step 5 of the module docs: the raw-weight total and `a²G²`, unless
    /// they are current.
    fn normalise(&mut self) -> Result<f64, ServiceError> {
        if let Some(total) = self.total_raw_weight {
            return Ok(total);
        }
        let Columns {
            population,
            w_raw,
            g2,
            ..
        } = &mut self.columns;
        if w_raw.is_empty() {
            return Err(ServiceError::NoPriceableClients {
                registered: self.order.len(),
            });
        }
        // The same sequential left-fold `Population::from_raw` uses, so
        // the normalised weights — and everything derived from them — are
        // bit-identical to the from-scratch path.
        let total: f64 = w_raw.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(ServiceError::Game(GameError::InvalidParameter {
                name: "weights",
                reason: format!("raw weights must sum to a positive finite total, got {total}"),
            }));
        }
        population.a2g2.clear();
        for (&w, &g) in w_raw.iter().zip(g2.iter()) {
            let nw = w / total;
            if !(nw.is_finite() && nw > 0.0) {
                return Err(ServiceError::Game(GameError::InvalidParameter {
                    name: "weight",
                    reason: format!("normalised weight must be finite and positive, got {nw}"),
                }));
            }
            population.a2g2.push(nw * nw * g);
        }
        self.total_raw_weight = Some(total);
        Ok(total)
    }

    /// The solver's columns of the included clients, in id order (current
    /// after a successful [`Self::refresh`]).
    pub fn population(&self) -> &PopulationColumns {
        &self.columns.population
    }

    /// The threshold index's column view — the raw-weight `w²G²` column
    /// beside the solver's cost, value and cap columns — for a store kept
    /// with index inputs. The index probes it at the scale `W²`, so its
    /// stored segments stay `W`-independent (see `fedfl_core::active_set`).
    pub fn index_columns(&self) -> Option<IndexColumns<'_>> {
        let population = &self.columns.population;
        Some(IndexColumns {
            w2g2: self.columns.w2g2.as_deref()?,
            cost: &population.cost,
            value: &population.value,
            q_max: &population.q_max,
        })
    }

    /// The rows of each of the [`INDEX_SEGMENTS`] index segments: one
    /// range per route block `b` with rows, in segment
    /// `b % INDEX_SEGMENTS`, in global order. A pure function of the
    /// included ids, so the partition never depends on thread counts.
    pub fn index_segments(&self) -> Vec<Vec<Range<usize>>> {
        let mut segments = vec![Vec::new(); INDEX_SEGMENTS];
        for (b, records) in self.records.iter().enumerate() {
            if records.included != 0 {
                segments[b % INDEX_SEGMENTS].push(records.row..records.row + records.rows());
            }
        }
        segments
    }

    /// Spread one value per column row over the registered clients, in
    /// global order; excluded clients get `0.0`. Reads the row bookkeeping
    /// of the last refresh.
    pub fn scatter(&self, rows: &[f64]) -> Vec<f64> {
        debug_assert!(self.first_stamped.is_none(), "scatter after a refresh");
        let mut out = vec![0.0f64; self.order.len()];
        for (block, records) in self.blocks.iter().zip(&self.records) {
            let positions = block.start..block.start + block.len();
            if records.included == block.live {
                out[positions].copy_from_slice(&rows[records.row..records.row + block.len()]);
            } else if records.included != 0 {
                let mut row = records.row;
                for (position, bit) in positions.zip(set_bits(block.live)) {
                    if records.included & bit != 0 {
                        out[position] = rows[row];
                        row += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedfl_core::population::{Population, Q_MIN};
    use fedfl_sim::availability::AvailabilityPattern;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl ClientStore {
        /// The record of `id`, if registered: its block's records follow
        /// the set bits of the live mask.
        fn record(&self, id: ClientId) -> Option<&ClientParams> {
            let (b, bit) = self.locate(id)?;
            let live = self.blocks[b].live;
            (live & bit != 0)
                .then(|| &self.records[b].clients[(live & (bit - 1)).count_ones() as usize])
        }
    }

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

    /// A store at the default floor that keeps the index inputs too.
    fn store(availability_aware: bool) -> ClientStore {
        ClientStore::new(availability_aware, Q_MIN, true)
    }

    const UNREACHABLE: AvailabilityPattern = AvailabilityPattern::Random { probability: 1e-12 };

    #[test]
    fn add_assigns_sequential_ids_and_indexes() {
        let mut store = store(false);
        let ids = store.add(vec![params(1.0), params(2.0)]).unwrap();
        assert_eq!(ids, vec![ClientId(0), ClientId(1)]);
        assert_eq!(store.position(ClientId(1)), Some(1));
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.ids(), &[ClientId(0), ClientId(1)]);
    }

    #[test]
    fn add_rejects_invalid_without_mutation() {
        let mut store = store(false);
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
        let mut store = store(false);
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
        assert_eq!(store.record(ids[2]).unwrap().data_size, 3.0);
    }

    #[test]
    fn ids_are_never_reused_after_removal() {
        let mut store = store(false);
        let ids = store.add(vec![params(1.0)]).unwrap();
        store.remove(&[ids[0]]).unwrap();
        let fresh = store.add(vec![params(1.0)]).unwrap();
        assert_ne!(fresh[0], ids[0]);
    }

    #[test]
    fn refresh_rederives_only_stamped_blocks() {
        // Eight full route blocks and seven ids of a ninth.
        let mut store = store(false);
        let n = ROUTE_BLOCK as usize * 8 + 7;
        let ids = store
            .add((0..n).map(|k| params(1.0 + k as f64)).collect())
            .unwrap();
        let cold = store.refresh().unwrap();
        assert_eq!(cold.stamped, (0..9).collect::<Vec<_>>());
        assert_eq!(cold.rederived, n);
        // Nothing stamped: nothing re-derived.
        let clean = store.refresh().unwrap();
        assert!(clean.stamped.is_empty());
        assert_eq!(clean.rederived, 0);
        // Removing one client stamps exactly its block.
        store.remove(&[ids[0]]).unwrap();
        let after_remove = store.refresh().unwrap();
        assert_eq!(after_remove.stamped, vec![0]);
        assert_eq!(after_remove.rederived, ROUTE_BLOCK as usize - 1);
        // A small add batch lands in the last block.
        store.add(vec![params(5.0), params(6.0)]).unwrap();
        let after_add = store.refresh().unwrap();
        assert_eq!(after_add.stamped, vec![8]);
        assert_eq!(after_add.rederived, 9);
    }

    #[test]
    fn refresh_without_stamps_touches_no_column() {
        let mut store = store(true);
        let mut clients: Vec<ClientParams> = (0..100).map(|k| params(1.0 + k as f64)).collect();
        clients[40].availability = UNREACHABLE;
        store.add(clients).unwrap();
        let first = store.refresh().unwrap();
        // Poison every column: a refresh that rewrote or moved any row
        // would overwrite the poison.
        let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        store.columns.population.a2g2.fill(poison);
        for column in store.columns.row_columns() {
            column.fill(poison);
        }
        let again = store.refresh().unwrap();
        assert!(again.stamped.is_empty());
        assert_eq!(again.rederived, 0);
        assert_eq!(
            again.total_raw_weight.to_bits(),
            first.total_raw_weight.to_bits()
        );
        let population = &store.columns.population;
        assert_eq!(population.len(), 99);
        for column in [&population.a2g2, &population.cost, &population.value]
            .into_iter()
            .chain([&population.q_max, &store.columns.w_raw, &store.columns.g2])
            .chain(store.columns.w2g2.as_ref())
        {
            assert!(column.iter().all(|x| x.to_bits() == poison.to_bits()));
        }
    }

    #[test]
    fn segment_versions_stamp_only_touched_segments() {
        let mut store = store(true);
        let stamps = |store: &ClientStore| {
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
        // An availability change to one client stamps its segment only.
        let n = store.len();
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[n - 1] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model).unwrap());
        assert_eq!(store.version(), 4);
        assert_eq!(stamps(&store), [3, 4, 0, 0]);
        // An availability-blind store writes the patterns but stamps
        // nothing: its rows never read them.
        let mut blind = ClientStore::new(false, Q_MIN, true);
        blind.add(vec![params(1.0)]).unwrap();
        let model = AvailabilityModel::new(vec![UNREACHABLE]).unwrap();
        assert!(!blind.set_availability(&model).unwrap());
        assert_eq!(blind.version(), 1);
        assert_eq!(blind.record(ClientId(0)).unwrap().availability, UNREACHABLE);
        // Blocks 2 and 3, then a removal from block 3: segment 3 only.
        store
            .add((0..2 * ROUTE_BLOCK).map(|_| params(3.0)).collect())
            .unwrap();
        assert_eq!(stamps(&store), [3, 4, 5, 5]);
        store.remove(&[ClientId(3 * ROUTE_BLOCK + 7)]).unwrap();
        assert_eq!(stamps(&store), [3, 4, 5, 6]);
    }

    #[test]
    fn assembled_index_inputs_align_with_included_clients() {
        let mut exact = ClientStore::new(true, Q_MIN, false);
        let mut fast = store(true);
        let mut dead = params(2.0);
        dead.availability = UNREACHABLE;
        let clients = vec![params(1.5), dead, params(3.0), params(4.0)];
        exact.add(clients.clone()).unwrap();
        fast.add(clients).unwrap();
        let exact_total = exact.refresh().unwrap().total_raw_weight;
        assert!(
            exact.index_columns().is_none(),
            "the exact path keeps no index inputs"
        );
        let total = fast.refresh().unwrap().total_raw_weight;
        assert_eq!(total.to_bits(), exact_total.to_bits());
        assert_eq!(fast.population(), exact.population());
        let inputs = fast.index_columns().unwrap();
        // w²G² is raw-weight squared times G², in insertion order over
        // the included clients; the probe scale is the squared raw total.
        let expected: Vec<f64> = [1.5f64, 3.0, 4.0].iter().map(|w| w * w * 4.0).collect();
        assert_eq!(inputs.w2g2, expected.as_slice());
        assert_eq!(total.to_bits(), (1.5f64 + 3.0 + 4.0).to_bits());
        // All four ids share route block 0, so segment 0 holds the three
        // included rows as one range and every other segment is empty.
        let segments = fast.index_segments();
        assert_eq!(segments.len(), INDEX_SEGMENTS);
        assert_eq!(segments[0], vec![0..3]);
        assert!(segments[1..].iter().all(Vec::is_empty));
        // The scaled index columns describe the same clients the solver
        // columns do: (w/W)²G² == w²G² / W² up to one rounding.
        for (i, &a2g2) in fast.population().a2g2.iter().enumerate() {
            let rescaled = inputs.w2g2[i] / (total * total);
            assert!((rescaled - a2g2).abs() <= 1e-12 * a2g2.abs());
        }
    }

    #[test]
    fn availability_updates_stamp_only_changed_blocks() {
        let mut store = store(true);
        let n = ROUTE_BLOCK as usize * 4;
        store.add((0..n).map(|_| params(1.0)).collect()).unwrap();
        store.refresh().unwrap();
        // An identical model changes nothing and stamps nothing.
        let same = AvailabilityModel::always_on(n);
        assert!(!store.set_availability(&same).unwrap());
        assert!(store.refresh().unwrap().stamped.is_empty());
        // Changing one client's pattern stamps exactly its block.
        let mut patterns = vec![AvailabilityPattern::AlwaysOn; n];
        patterns[3] = AvailabilityPattern::Random { probability: 0.5 };
        let model = AvailabilityModel::new(patterns).unwrap();
        assert!(store.set_availability(&model).unwrap());
        let refresh = store.refresh().unwrap();
        assert_eq!(refresh.stamped, vec![0]);
        assert_eq!(refresh.rederived, ROUTE_BLOCK as usize);
        // Mismatched model length is rejected.
        assert!(store
            .set_availability(&AvailabilityModel::always_on(n - 1))
            .is_err());
    }

    #[test]
    fn assemble_matches_from_raw_normalisation() {
        let mut store = store(false);
        let clients: Vec<ClientParams> = (0..10).map(|k| params(1.0 + k as f64)).collect();
        store.add(clients.clone()).unwrap();
        let total = store.refresh().unwrap().total_raw_weight;
        let reference =
            Population::from_raw(clients.iter().map(ClientParams::raw_profile).collect())
                .unwrap()
                .columns();
        assert_eq!(*store.population(), reference);
        let expected_total: f64 = clients.iter().map(|c| c.data_size).sum();
        assert_eq!(total.to_bits(), expected_total.to_bits());
    }

    #[test]
    fn assemble_excludes_unreachable_clients() {
        let mut store = store(true);
        let mut dead = params(2.0);
        dead.availability = UNREACHABLE;
        store.add(vec![params(1.0), dead, params(3.0)]).unwrap();
        store.refresh().unwrap();
        assert_eq!(store.population().len(), 2);
        assert_eq!(store.scatter(&[7.0, 9.0]), vec![7.0, 0.0, 9.0]);
        // All excluded -> NoPriceableClients, and a retry fails the same
        // way.
        let mut empty = ClientStore::new(true, Q_MIN, false);
        let mut gone = params(1.0);
        gone.availability = UNREACHABLE;
        empty.add(vec![gone]).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                empty.refresh(),
                Err(ServiceError::NoPriceableClients { registered: 1 })
            ));
        }
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
            0 => UNREACHABLE,
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
    /// clients as a `Vec` in id order, plus the stamps the store must
    /// report — checked after every command.
    struct Checked {
        store: ClientStore,
        aware: bool,
        clients: Vec<(ClientId, ClientParams)>,
        removed: Vec<ClientId>,
        next_id: u64,
        version: u64,
        segment_versions: Vec<u64>,
        /// Route blocks a mutation touched since the last refresh.
        stamped: BTreeSet<usize>,
    }

    impl Checked {
        fn new(aware: bool, index_inputs: bool) -> Self {
            Self {
                store: ClientStore::new(aware, Q_MIN, index_inputs),
                aware,
                clients: Vec::new(),
                removed: Vec::new(),
                next_id: 0,
                version: 0,
                segment_versions: vec![0; INDEX_SEGMENTS],
                stamped: BTreeSet::new(),
            }
        }

        fn block_of(id: ClientId) -> usize {
            (id.0 / ROUTE_BLOCK) as usize
        }

        /// Stamp `id`'s block and its segment.
        fn touch(&mut self, id: ClientId) {
            self.segment_versions[Self::block_of(id) % INDEX_SEGMENTS] = self.version;
            self.stamped.insert(Self::block_of(id));
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
            let stamped = self.store.set_availability(&model).unwrap();
            let hits: Vec<ClientId> = self
                .clients
                .iter()
                .zip(&patterns)
                .filter(|((_, params), &p)| params.availability != p)
                .map(|((id, _), _)| *id)
                .collect();
            assert_eq!(stamped, self.aware && !hits.is_empty());
            if stamped {
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

        /// Ids, positions, records and stamps against the reference, then
        /// the columns a refresh of a copy of the store would serve — so
        /// the stamps of several commands still pile up for the next
        /// [`Self::refresh`].
        fn check(&self) {
            let ids: Vec<ClientId> = self.clients.iter().map(|(id, _)| *id).collect();
            assert_eq!(self.store.ids(), ids.as_slice());
            assert_eq!(self.store.len(), ids.len());
            for (pos, (id, params)) in self.clients.iter().enumerate() {
                assert_eq!(self.store.position(*id), Some(pos), "position of {id}");
                assert_eq!(self.store.record(*id), Some(params));
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
            self.verify_refresh(&mut self.store.clone());
        }

        /// Refresh the store itself, so later commands stamp afresh.
        fn refresh(&mut self) {
            let mut store = self.store.clone();
            self.verify_refresh(&mut store);
            self.store = store;
            self.stamped.clear();
        }

        /// Refresh `store` and compare its columns, bit for bit, with
        /// `Population::from_raw` over the included survivors, and the
        /// re-derived rows with the clients of the stamped blocks.
        fn verify_refresh(&self, store: &mut ClientStore) {
            let result = store.refresh();
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
            if survivors.is_empty() {
                let registered = self.clients.len();
                for result in [result, store.refresh()] {
                    assert!(matches!(
                        result,
                        Err(ServiceError::NoPriceableClients { registered: r }) if r == registered
                    ));
                }
                return;
            }
            let refresh = result.unwrap();
            let stamped: Vec<usize> = self.stamped.iter().copied().collect();
            assert_eq!(refresh.stamped, stamped);
            let rederived = self
                .clients
                .iter()
                .filter(|(id, _)| self.stamped.contains(&Self::block_of(*id)))
                .count();
            assert_eq!(refresh.rederived, rederived);

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
            let got = store.population();
            assert_eq!(bits(&got.a2g2), bits(&expected.a2g2));
            assert_eq!(bits(&got.cost), bits(&expected.cost));
            assert_eq!(bits(&got.value), bits(&expected.value));
            assert_eq!(bits(&got.q_max), bits(&expected.q_max));
            let raw = |f: fn(&ClientParams) -> f64| -> Vec<u64> {
                survivors
                    .iter()
                    .map(|&i| f(&self.clients[i].1).to_bits())
                    .collect()
            };
            assert_eq!(bits(&store.columns.w_raw), raw(|p| p.data_size));
            assert_eq!(bits(&store.columns.g2), raw(|p| p.g_squared));
            let total: f64 = survivors.iter().map(|&i| self.clients[i].1.data_size).sum();
            assert_eq!(refresh.total_raw_weight.to_bits(), total.to_bits());
            if let Some(index) = store.index_columns() {
                assert_eq!(
                    bits(index.w2g2),
                    raw(|p| p.data_size * p.data_size * p.g_squared)
                );
                assert_eq!(bits(index.cost), bits(&expected.cost));
                assert_eq!(bits(index.value), bits(&expected.value));
                assert_eq!(bits(index.q_max), bits(&expected.q_max));
            }
            // Each segment holds its blocks' included rows in global
            // order, as non-empty ranges.
            let mut rows = vec![Vec::new(); INDEX_SEGMENTS];
            for (row, &i) in survivors.iter().enumerate() {
                rows[Self::block_of(self.clients[i].0) % INDEX_SEGMENTS].push(row);
            }
            let segments = store.index_segments();
            let got: Vec<Vec<usize>> = segments
                .iter()
                .map(|ranges| ranges.iter().cloned().flatten().collect())
                .collect();
            assert_eq!(got, rows);
            assert!(segments.iter().flatten().all(|r| !r.is_empty()));
            // Row `r` scatters to its client's position; excluded clients
            // read 0.
            let tags: Vec<f64> = (1..=survivors.len()).map(|r| r as f64).collect();
            let mut scattered = vec![0.0; self.clients.len()];
            for (row, &i) in survivors.iter().enumerate() {
                scattered[i] = tags[row];
            }
            assert_eq!(store.scatter(&tags), scattered);
            // A second refresh has nothing to do.
            let again = store.refresh().unwrap();
            assert!(again.stamped.is_empty());
            assert_eq!(again.rederived, 0);
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
                // Re-draw a quarter of the patterns, or make one block's
                // clients reachable: clients are excluded and re-included,
                // and a re-inclusion moves the later clean blocks' rows up.
                3 => {
                    let block = pick(2).0 / ROUTE_BLOCK;
                    let patterns = self
                        .clients
                        .iter()
                        .enumerate()
                        .map(|(i, (id, p))| {
                            if arg.is_multiple_of(3) {
                                if id.0 / ROUTE_BLOCK == block {
                                    AvailabilityPattern::AlwaysOn
                                } else {
                                    p.availability
                                }
                            } else if mix(arg ^ i as u64).is_multiple_of(4) {
                                pattern(arg ^ mix(i as u64))
                            } else {
                                p.availability
                            }
                        })
                        .collect();
                    self.set_availability(patterns);
                }
                _ => self.refresh(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn directory_store_matches_a_naive_model(
            aware in any::<bool>(),
            index_inputs in any::<bool>(),
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..40),
        ) {
            let mut checked = Checked::new(aware, index_inputs);
            for (kind, arg) in ops {
                checked.apply(kind, arg);
            }
            checked.refresh();
        }
    }

    #[test]
    fn directory_edge_cases_match_a_naive_model() {
        for aware in [false, true] {
            for index_inputs in [false, true] {
                let mut checked = Checked::new(aware, index_inputs);
                // Blocks 0 and 1 full, block 2 holding ids 64..80.
                checked.add((0..80).map(drawn).collect());
                checked.refresh();
                // Empty a whole route block, in reverse id order.
                checked.remove(&(32..64).rev().map(ClientId).collect::<Vec<_>>());
                checked.refresh();
                // Partly empty the last block, then re-add into it.
                checked.remove(&[ClientId(79), ClientId(70), ClientId(64)]);
                checked.add((80..90).map(drawn).collect());
                checked.refresh();
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
                checked.refresh();
                // Rejected batches change nothing.
                checked.remove(&[ClientId(0), ClientId(40)]);
                checked.remove(&[ClientId(1), ClientId(2), ClientId(1)]);
                checked.remove(&[ClientId(3), ClientId(u64::MAX)]);
                checked.remove(&[ClientId(10_000)]);
                // Remove everything, then add.
                let everyone = checked.store.ids().to_vec();
                checked.remove(&everyone);
                assert!(checked.store.is_empty());
                checked.refresh();
                checked.add((90..100).map(drawn).collect());
                checked.refresh();
                // Five more blocks of reachable clients, then rows that
                // move both ways in one refresh: the third of them loses
                // two rows; then the first loses one while the third
                // regains its two, so the second moves down and every
                // block after the third moves up.
                let always_on = |checked: &mut Checked, from: u64, to: u64| {
                    let clients = (from..to)
                        .map(|k| ClientParams {
                            availability: AvailabilityPattern::AlwaysOn,
                            ..drawn(k)
                        })
                        .collect();
                    checked.add(clients);
                };
                always_on(&mut checked, 100, 260);
                checked.refresh();
                let flip = |checked: &mut Checked, off: &[u64]| {
                    let patterns = checked
                        .clients
                        .iter()
                        .map(|(id, _)| {
                            if off.contains(&id.0) {
                                UNREACHABLE
                            } else {
                                AvailabilityPattern::AlwaysOn
                            }
                        })
                        .collect();
                    checked.set_availability(patterns);
                };
                let base = checked.store.ids()[0].0 / ROUTE_BLOCK * ROUTE_BLOCK + ROUTE_BLOCK;
                flip(
                    &mut checked,
                    &[base + 2 * ROUTE_BLOCK + 3, base + 2 * ROUTE_BLOCK + 9],
                );
                checked.refresh();
                flip(&mut checked, &[base + 5]);
                checked.refresh();
                // Re-include everyone, so every later row moves up.
                flip(&mut checked, &[]);
                checked.refresh();
            }
        }
    }
}
