//! Shard-partitioned populations: the distribution unit of the Stage-I
//! solve.
//!
//! A [`ShardedPopulation`] is a population's solver columns split into
//! contiguous shards whose boundaries lie on the fixed chunk grid of
//! [`fedfl_num::parallel`] ([`ShardPlan`]). That alignment is what makes
//! the sharded solve *exact*: each shard's partial spend is a vector of
//! per-chunk partial sums, and merging all shards' partials **in shard
//! order** reproduces the flat reduction's summation tree bit for bit
//! ([`fedfl_num::parallel::merge_shard_partials`]). A
//! [`crate::server::solve_kkt_shards`] solve is therefore bit-identical to
//! the solve of the concatenated columns as one shard, for any shard
//! count and any thread count.
//!
//! Shards are also the unit of independent *materialisation*:
//! [`ShardedPopulation::synthesize`] draws each shard from
//! [`crate::population::PopulationSpec::draw_client`] substreams that
//! depend only on `(seed, client index)`, so any shard can be generated by
//! a different worker crew — or, in a future deployment, a different
//! process — and only the cheap weight-normalisation pass is global.

use crate::error::GameError;
use crate::population::{ClientProfile, Population, PopulationColumns, PopulationSpec};
use fedfl_num::parallel::{ShardPlan, DEFAULT_CHUNK};
use serde::{Deserialize, Serialize};

/// A population's solver columns, split into chunk-aligned contiguous
/// shards.
///
/// The global client order is the concatenation of the shards in shard
/// order; every per-client array a solver produces (participation levels,
/// prices) is indexed by that order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedPopulation {
    shards: Vec<PopulationColumns>,
    /// Prefix offsets of each shard in the global order, plus the total
    /// length (`offsets.len() == shards.len() + 1`).
    offsets: Vec<usize>,
}

impl ShardedPopulation {
    /// Split flat columns into `shard_count` chunk-aligned shards.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for `shard_count == 0` and
    /// [`GameError::LengthMismatch`] for internally inconsistent columns.
    pub fn from_columns(cols: &PopulationColumns, shard_count: usize) -> Result<Self, GameError> {
        for (len, _name) in [
            (cols.cost.len(), "cost"),
            (cols.value.len(), "value"),
            (cols.q_max.len(), "q_max"),
        ] {
            if len != cols.a2g2.len() {
                return Err(GameError::LengthMismatch {
                    expected: cols.a2g2.len(),
                    found: len,
                });
            }
        }
        let plan =
            ShardPlan::new(cols.len(), shard_count).map_err(|e| GameError::InvalidParameter {
                name: "shard_count",
                reason: e.to_string(),
            })?;
        let shards = plan
            .ranges()
            .map(|r| PopulationColumns {
                a2g2: cols.a2g2[r.clone()].to_vec(),
                cost: cols.cost[r.clone()].to_vec(),
                value: cols.value[r.clone()].to_vec(),
                q_max: cols.q_max[r].to_vec(),
            })
            .collect();
        Ok(Self::from_parts(shards))
    }

    /// Assemble from pre-built shard column-sets (e.g. shards filled by
    /// independent workers).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::LengthMismatch`] if any shard's columns
    /// disagree in length, and [`GameError::InvalidParameter`] if the
    /// shard lengths are not chunk-aligned — every shard that precedes a
    /// non-empty shard must hold a whole number of
    /// [`DEFAULT_CHUNK`]-sized chunks, otherwise the two-level merge would
    /// change the summation tree and break the bit-identity contract.
    pub fn from_shards(shards: Vec<PopulationColumns>) -> Result<Self, GameError> {
        if shards.is_empty() {
            return Err(GameError::InvalidParameter {
                name: "shards",
                reason: "need at least one shard".into(),
            });
        }
        for (s, shard) in shards.iter().enumerate() {
            for (len, _name) in [
                (shard.cost.len(), "cost"),
                (shard.value.len(), "value"),
                (shard.q_max.len(), "q_max"),
            ] {
                if len != shard.a2g2.len() {
                    return Err(GameError::LengthMismatch {
                        expected: shard.a2g2.len(),
                        found: len,
                    });
                }
            }
            let followed_by_nonempty = shards[s + 1..].iter().any(|t| !t.is_empty());
            if followed_by_nonempty && shard.len() % DEFAULT_CHUNK != 0 {
                return Err(GameError::InvalidParameter {
                    name: "shards",
                    reason: format!(
                        "shard {s} holds {} clients, not a multiple of the {DEFAULT_CHUNK}-wide \
                         chunk grid; only the last non-empty shard may end off-grid",
                        shard.len()
                    ),
                });
            }
        }
        Ok(Self::from_parts(shards))
    }

    fn from_parts(shards: Vec<PopulationColumns>) -> Self {
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for shard in &shards {
            total += shard.len();
            offsets.push(total);
        }
        Self { shards, offsets }
    }

    /// Synthesize a sharded population: each shard's clients are drawn
    /// independently from their `(seed, index)` substreams (the shard is
    /// the unit a distributed deployment would hand to a worker), then a
    /// single global pass normalises the raw data weights — exactly the
    /// normalisation [`Population::synthesize`] performs, so
    /// [`ShardedPopulation::concat`] is bit-identical to
    /// `Population::synthesize(n, spec, seed)?.columns()` for any shard
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] for `n == 0`, `shard_count == 0`, or an
    /// invalid specification.
    pub fn synthesize(
        n: usize,
        spec: &PopulationSpec,
        seed: u64,
        shard_count: usize,
    ) -> Result<Self, GameError> {
        if n == 0 {
            return Err(GameError::InvalidParameter {
                name: "n",
                reason: "need at least one client".into(),
            });
        }
        spec.validate()?;
        let plan = ShardPlan::new(n, shard_count).map_err(|e| GameError::InvalidParameter {
            name: "shard_count",
            reason: e.to_string(),
        })?;
        // Independent per-shard materialisation: nothing below touches
        // state outside the shard's own index range.
        let raw: Vec<Vec<ClientProfile>> = plan
            .ranges()
            .map(|range| range.map(|i| spec.draw_client_unchecked(seed, i)).collect())
            .collect();
        // Global normalisation, replicating `Population::from_raw` over
        // the concatenation: the same left-fold total, the same per-client
        // division, the same validation.
        let total: f64 = raw.iter().flatten().map(|c| c.weight).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "weights",
                reason: format!("raw weights must sum to a positive finite total, got {total}"),
            });
        }
        let mut shards = Vec::with_capacity(plan.shard_count());
        let mut norm_total = 0.0f64;
        for shard_raw in raw {
            let m = shard_raw.len();
            let mut cols = PopulationColumns {
                a2g2: Vec::with_capacity(m),
                cost: Vec::with_capacity(m),
                value: Vec::with_capacity(m),
                q_max: Vec::with_capacity(m),
            };
            for mut profile in shard_raw {
                profile.weight /= total;
                profile.validate()?;
                norm_total += profile.weight;
                cols.a2g2.push(profile.a2g2());
                cols.cost.push(profile.cost);
                cols.value.push(profile.value);
                cols.q_max.push(profile.q_max);
            }
            shards.push(cols);
        }
        if (norm_total - 1.0).abs() > 1e-6 {
            return Err(GameError::InvalidParameter {
                name: "weights",
                reason: format!("must sum to 1, got {norm_total}"),
            });
        }
        Ok(Self::from_parts(shards))
    }

    /// Total number of clients across all shards.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Whether the population holds no clients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (empty shards included).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow the shard column-sets, in shard order.
    pub fn shards(&self) -> &[PopulationColumns] {
        &self.shards
    }

    /// The global offset of shard `s` (clients in shards `0..s`).
    ///
    /// # Panics
    ///
    /// Panics if `s > shard_count()`.
    pub fn offset(&self, s: usize) -> usize {
        self.offsets[s]
    }

    /// Concatenate the shards into flat columns (the global order).
    pub fn concat(&self) -> PopulationColumns {
        let n = self.len();
        let mut cols = PopulationColumns {
            a2g2: Vec::with_capacity(n),
            cost: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            q_max: Vec::with_capacity(n),
        };
        for shard in &self.shards {
            cols.a2g2.extend_from_slice(&shard.a2g2);
            cols.cost.extend_from_slice(&shard.cost);
            cols.value.extend_from_slice(&shard.value);
            cols.q_max.extend_from_slice(&shard.q_max);
        }
        cols
    }

    /// The availability-effective view, shard by shard: `rates` is aligned
    /// to the global order and each shard applies
    /// [`PopulationColumns::effective`] to its slice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PopulationColumns::effective`].
    pub fn effective(&self, rates: &[f64]) -> Result<Self, GameError> {
        if rates.len() != self.len() {
            return Err(GameError::LengthMismatch {
                expected: self.len(),
                found: rates.len(),
            });
        }
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| shard.effective(&rates[self.offsets[s]..self.offsets[s + 1]]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_parts(shards))
    }
}

impl From<&Population> for ShardedPopulation {
    /// A single-shard view of a population's columns.
    fn from(population: &Population) -> Self {
        Self::from_parts(vec![population.columns()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(n: usize) -> PopulationColumns {
        PopulationColumns {
            a2g2: (0..n).map(|i| 1.0 + i as f64).collect(),
            cost: (0..n).map(|i| 10.0 + i as f64).collect(),
            value: (0..n).map(|i| i as f64 * 0.5).collect(),
            q_max: vec![1.0; n],
        }
    }

    #[test]
    fn from_columns_round_trips_through_concat() {
        let cols = columns(DEFAULT_CHUNK * 2 + 100);
        for shard_count in [1, 2, 7, 32] {
            let sharded = ShardedPopulation::from_columns(&cols, shard_count).unwrap();
            assert_eq!(sharded.shard_count(), shard_count);
            assert_eq!(sharded.len(), cols.len());
            assert!(!sharded.is_empty());
            assert_eq!(sharded.concat(), cols);
            assert_eq!(sharded.offset(0), 0);
            assert_eq!(sharded.offset(shard_count), cols.len());
        }
        assert!(ShardedPopulation::from_columns(&cols, 0).is_err());
        let mut bad = columns(8);
        bad.cost.pop();
        assert!(ShardedPopulation::from_columns(&bad, 2).is_err());
    }

    #[test]
    fn from_shards_validates_alignment() {
        let cols = columns(DEFAULT_CHUNK + 10);
        let good = ShardedPopulation::from_columns(&cols, 2).unwrap();
        let rebuilt = ShardedPopulation::from_shards(good.shards().to_vec()).unwrap();
        assert_eq!(rebuilt, good);
        // A mid-grid boundary before a non-empty shard is rejected.
        let misaligned = vec![columns(100), columns(50)];
        assert!(ShardedPopulation::from_shards(misaligned).is_err());
        // ... but a short final shard (or trailing empty shards) is fine.
        let tail_ok = vec![columns(DEFAULT_CHUNK), columns(50), columns(0)];
        assert!(ShardedPopulation::from_shards(tail_ok).is_ok());
        assert!(ShardedPopulation::from_shards(vec![]).is_err());
        let mut bad = columns(8);
        bad.q_max.pop();
        assert!(ShardedPopulation::from_shards(vec![bad]).is_err());
    }

    #[test]
    fn synthesize_matches_flat_synthesize_bitwise() {
        let spec = PopulationSpec::table1_like();
        let n = DEFAULT_CHUNK + 523;
        let flat = Population::synthesize(n, &spec, 17).unwrap().columns();
        for shard_count in [1, 2, 7, 32] {
            let sharded = ShardedPopulation::synthesize(n, &spec, 17, shard_count).unwrap();
            let concat = sharded.concat();
            assert_eq!(concat.len(), n);
            for i in 0..n {
                assert_eq!(
                    concat.a2g2[i].to_bits(),
                    flat.a2g2[i].to_bits(),
                    "a2g2[{i}] diverged at shard_count {shard_count}"
                );
            }
            assert_eq!(concat, flat, "shard_count {shard_count}");
        }
        assert!(ShardedPopulation::synthesize(0, &spec, 1, 4).is_err());
        assert!(ShardedPopulation::synthesize(10, &spec, 1, 0).is_err());
        let mut bad = spec;
        bad.q_max = 0.0;
        assert!(ShardedPopulation::synthesize(10, &bad, 1, 4).is_err());
    }

    #[test]
    fn effective_matches_flat_effective() {
        let cols = columns(DEFAULT_CHUNK + 77);
        let rates: Vec<f64> = (0..cols.len())
            .map(|i| 0.25 + 0.75 * ((i % 7) as f64 / 7.0))
            .collect();
        let flat_eff = cols.effective(&rates).unwrap();
        let sharded = ShardedPopulation::from_columns(&cols, 3).unwrap();
        let eff = sharded.effective(&rates).unwrap();
        assert_eq!(eff.concat(), flat_eff);
        assert!(sharded.effective(&rates[1..]).is_err());
        let mut bad = rates;
        bad[5] = 0.0;
        assert!(sharded.effective(&bad).is_err());
    }

    #[test]
    fn population_conversion_is_single_shard() {
        let p = Population::synthesize(50, &PopulationSpec::table1_like(), 3).unwrap();
        let sharded = ShardedPopulation::from(&p);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.concat(), p.columns());
    }
}
