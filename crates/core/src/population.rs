//! Client populations: the per-client parameters of the CPL game.
//!
//! Every client `n` enters the game with four parameters (Section III of
//! the paper):
//!
//! * `a_n` — data weight `d_n / Σ d_m` (unbalanced data);
//! * `G_n²` — squared gradient-norm bound (Assumption 3), the statistical
//!   heterogeneity term the bound prices;
//! * `c_n`  — local cost parameter of `C_n = c_n q_n²` (equation (6));
//! * `v_n`  — intrinsic-value preference (equation (7)).
//!
//! The paper's experiments draw `c_n` and `v_n` from Exponential
//! distributions with the means of Table I; [`Population::sample`]
//! reproduces that.

use crate::error::GameError;
use fedfl_num::dist::{BoundedPareto, Exponential, LogNormal};
use fedfl_num::rng::{substream, uniform01};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Default minimum participation level enforced by the solvers.
///
/// Theorem 1 requires `q_n > 0` for every client (otherwise the bound — and
/// the number of rounds to converge — blows up), so the equilibrium solvers
/// work on `[Q_MIN, q_max]`.
pub const Q_MIN: f64 = 1e-4;

/// Parameters of one client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientProfile {
    /// Data weight `a_n` (the `a_n` sum to 1 across the population).
    pub weight: f64,
    /// Squared gradient-norm bound `G_n²`.
    pub g_squared: f64,
    /// Local cost parameter `c_n > 0`.
    pub cost: f64,
    /// Intrinsic-value preference `v_n ≥ 0`.
    pub value: f64,
    /// Maximum feasible participation level `q_{n,max} ∈ (0, 1]`.
    pub q_max: f64,
}

impl ClientProfile {
    /// The product `a_n² G_n²` that appears throughout the bound and the
    /// equilibrium formulas.
    pub fn a2g2(&self) -> f64 {
        self.weight * self.weight * self.g_squared
    }

    /// Validate one profile.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), GameError> {
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "weight",
                reason: format!("must be finite and positive, got {}", self.weight),
            });
        }
        if !(self.g_squared.is_finite() && self.g_squared > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "g_squared",
                reason: format!("must be finite and positive, got {}", self.g_squared),
            });
        }
        if !(self.cost.is_finite() && self.cost > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "cost",
                reason: format!("must be finite and positive, got {}", self.cost),
            });
        }
        if !(self.value.is_finite() && self.value >= 0.0) {
            return Err(GameError::InvalidParameter {
                name: "value",
                reason: format!("must be finite and non-negative, got {}", self.value),
            });
        }
        if !(self.q_max.is_finite() && self.q_max > Q_MIN && self.q_max <= 1.0) {
            return Err(GameError::InvalidParameter {
                name: "q_max",
                reason: format!("must lie in ({Q_MIN}, 1], got {}", self.q_max),
            });
        }
        Ok(())
    }
}

/// A validated population of clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    clients: Vec<ClientProfile>,
}

impl Population {
    /// Start building a population from parallel parameter vectors.
    pub fn builder() -> PopulationBuilder {
        PopulationBuilder::default()
    }

    /// Wrap pre-built profiles.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the population is empty, any profile is
    /// invalid, or the weights do not sum to 1 (tolerance 1e-6).
    pub fn new(clients: Vec<ClientProfile>) -> Result<Self, GameError> {
        if clients.is_empty() {
            return Err(GameError::InvalidParameter {
                name: "clients",
                reason: "need at least one client".into(),
            });
        }
        for c in &clients {
            c.validate()?;
        }
        let total: f64 = clients.iter().map(|c| c.weight).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(GameError::InvalidParameter {
                name: "weights",
                reason: format!("must sum to 1, got {total}"),
            });
        }
        Ok(Self { clients })
    }

    /// Draw a population in the style of the paper's Table I: weights and
    /// `G_n²` given (typically from the dataset and a warm-up run), `c_n`
    /// and `v_n` exponentially distributed with means `mean_cost` and
    /// `mean_value`.
    ///
    /// A `mean_value` of exactly 0 gives every client `v_n = 0` (the paper's
    /// `v = 0` column of Table V).
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] on invalid inputs.
    pub fn sample(
        seed: u64,
        weights: &[f64],
        g_squared: &[f64],
        mean_cost: f64,
        mean_value: f64,
        q_max: f64,
    ) -> Result<Self, GameError> {
        if weights.len() != g_squared.len() {
            return Err(GameError::LengthMismatch {
                expected: weights.len(),
                found: g_squared.len(),
            });
        }
        if !(mean_cost.is_finite() && mean_cost > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "mean_cost",
                reason: format!("must be finite and positive, got {mean_cost}"),
            });
        }
        if !(mean_value.is_finite() && mean_value >= 0.0) {
            return Err(GameError::InvalidParameter {
                name: "mean_value",
                reason: format!("must be finite and non-negative, got {mean_value}"),
            });
        }
        let mut rng = substream(seed, 0xC0_57);
        let cost_dist = Exponential::with_mean(mean_cost)?;
        let costs: Vec<f64> = (0..weights.len())
            .map(|_| cost_dist.sample(&mut rng).max(1e-6 * mean_cost))
            .collect();
        let values: Vec<f64> = if mean_value == 0.0 {
            vec![0.0; weights.len()]
        } else {
            let value_dist = Exponential::with_mean(mean_value)?;
            (0..weights.len())
                .map(|_| value_dist.sample(&mut rng))
                .collect()
        };
        Self::builder()
            .weights(weights.to_vec())
            .g_squared(g_squared.to_vec())
            .costs(costs)
            .values(values)
            .q_max_all(q_max)
            .build()
    }

    /// Wrap profiles whose weights are *raw* (unnormalised) data sizes,
    /// dividing each by their sequential sum so the weights sum to 1.
    ///
    /// This is the canonical normalisation step shared by
    /// [`Population::synthesize`] and the incremental pricing service: a
    /// delta-applied client store rebuilt through this constructor is
    /// bit-identical to a from-scratch build over the same profiles in the
    /// same order.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the profiles are empty or any normalised
    /// profile is invalid.
    pub fn from_raw(mut clients: Vec<ClientProfile>) -> Result<Self, GameError> {
        let total: f64 = clients.iter().map(|c| c.weight).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(GameError::InvalidParameter {
                name: "weights",
                reason: format!("raw weights must sum to a positive finite total, got {total}"),
            });
        }
        for c in &mut clients {
            c.weight /= total;
        }
        Population::new(clients)
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the population is empty (never true after validation).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Borrow all profiles.
    pub fn clients(&self) -> &[ClientProfile] {
        &self.clients
    }

    /// Borrow client `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn client(&self, n: usize) -> &ClientProfile {
        &self.clients[n]
    }

    /// Iterate over the profiles.
    pub fn iter(&self) -> std::slice::Iter<'_, ClientProfile> {
        self.clients.iter()
    }

    /// Data weights `a_n` in client order.
    pub fn weights(&self) -> Vec<f64> {
        self.clients.iter().map(|c| c.weight).collect()
    }

    /// The per-client `a_n² G_n²` products.
    pub fn a2g2(&self) -> Vec<f64> {
        self.clients.iter().map(ClientProfile::a2g2).collect()
    }

    /// Extract the struct-of-arrays columns the Stage-I solvers iterate
    /// over. One pass, one allocation per column; see
    /// [`PopulationColumns`].
    pub fn columns(&self) -> PopulationColumns {
        let n = self.clients.len();
        let mut cols = PopulationColumns {
            a2g2: Vec::with_capacity(n),
            cost: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            q_max: Vec::with_capacity(n),
        };
        for c in &self.clients {
            cols.a2g2.push(c.a2g2());
            cols.cost.push(c.cost);
            cols.value.push(c.value);
            cols.q_max.push(c.q_max);
        }
        cols
    }

    /// Synthesize a heterogeneous population of `n` clients from
    /// distributional specifications — the scaling counterpart of
    /// [`Population::sample`].
    ///
    /// Client `i`'s raw parameters are drawn from its own RNG substream
    /// derived from `(seed, i)` alone, so generation is a single O(n)
    /// streaming pass: any contiguous shard of clients can be produced
    /// independently (and in any order) and the result is identical.
    /// Raw data weights are normalised to sum to 1 in one extra pass.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] for `n = 0` or an invalid specification.
    pub fn synthesize(n: usize, spec: &PopulationSpec, seed: u64) -> Result<Self, GameError> {
        if n == 0 {
            return Err(GameError::InvalidParameter {
                name: "n",
                reason: "need at least one client".into(),
            });
        }
        spec.validate()?;
        let mut clients = Vec::with_capacity(n);
        for i in 0..n {
            clients.push(spec.draw_client_unchecked(seed, i));
        }
        Population::from_raw(clients)
    }
}

/// Cache-friendly struct-of-arrays columns of a population.
///
/// The Stage-I solvers evaluate the same four per-client scalars —
/// `a_n² G_n²`, `c_n`, `v_n`, `q_{n,max}` — millions of times inside a
/// bisection loop. Iterating a `Vec<ClientProfile>` strides over the unused
/// `weight`/`g_squared` fields and recomputes `a²G²` per visit; these
/// parallel columns keep each pass sequential in memory and the product
/// precomputed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PopulationColumns {
    /// Precomputed `a_n² G_n²` per client.
    pub a2g2: Vec<f64>,
    /// Local cost parameters `c_n`.
    pub cost: Vec<f64>,
    /// Intrinsic-value preferences `v_n`.
    pub value: Vec<f64>,
    /// Participation caps `q_{n,max}`.
    pub q_max: Vec<f64>,
}

impl PopulationColumns {
    /// Number of clients.
    pub fn len(&self) -> usize {
        self.a2g2.len()
    }

    /// Whether the columns are empty.
    pub fn is_empty(&self) -> bool {
        self.a2g2.is_empty()
    }

    /// The availability-effective view of these columns.
    ///
    /// When client `n` is only reachable a fraction `rate_n` of rounds, its
    /// *effective* per-round participation is `x = q · rate` (Lemma 1 holds
    /// with the effective levels). Rewriting the Stage-I problem in `x`
    /// transforms each client's parameters as
    ///
    /// * `cost → cost / rate²` — reaching effective level `x` requires
    ///   conditional participation `x / rate`, so the cost curve steepens
    ///   for intermittently-available clients (they are compensated more
    ///   per unit of effective participation);
    /// * `q_max → q_max · rate` — the cap on effective participation;
    /// * `a2g2`, `value` — unchanged (both act on the bound through `x`).
    ///
    /// A rate of exactly `1.0` reproduces the input columns bit-for-bit,
    /// so an all-always-on model prices identically to the paper's
    /// baseline.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if `rates` has the wrong length or any rate
    /// falls outside `(0, 1]` — never-available clients must be excluded
    /// *before* building the solver view (see the pricing service).
    pub fn effective(&self, rates: &[f64]) -> Result<PopulationColumns, GameError> {
        if rates.len() != self.len() {
            return Err(GameError::LengthMismatch {
                expected: self.len(),
                found: rates.len(),
            });
        }
        if let Some(bad) = rates
            .iter()
            .position(|r| !(r.is_finite() && *r > 0.0 && *r <= 1.0))
        {
            return Err(GameError::InvalidParameter {
                name: "rates",
                reason: format!("rate {} for client {bad} outside (0, 1]", rates[bad]),
            });
        }
        Ok(PopulationColumns {
            a2g2: self.a2g2.clone(),
            cost: self
                .cost
                .iter()
                .zip(rates)
                .map(|(&c, &r)| c / (r * r))
                .collect(),
            value: self.value.clone(),
            q_max: self.q_max.iter().zip(rates).map(|(&q, &r)| q * r).collect(),
        })
    }
}

/// Distribution of one synthesized per-client parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ParamDist {
    /// Every client gets the same value.
    Constant(f64),
    /// Exponential with the given mean — the paper's Table I choice for
    /// costs and values.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Log-normal around a median — mild, always-positive heterogeneity.
    LogNormal {
        /// Median of the distribution.
        median: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// Bounded Pareto (power law) on `[lo, hi]` — heavy-tailed data-shard
    /// sizes.
    BoundedPareto {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
        /// Tail exponent.
        alpha: f64,
    },
}

impl ParamDist {
    /// Validate the distribution for a parameter whose draws must stay
    /// non-negative — or strictly positive when `strictly_positive` is
    /// set (costs, weights, `G²`). Draws of *exactly* 0 from a continuous
    /// distribution are measure-zero and floored by the generator, but a
    /// specification placing real mass below the requirement is an error,
    /// not bad luck.
    fn validate(&self, name: &'static str, strictly_positive: bool) -> Result<(), GameError> {
        let invalid = |reason: String| GameError::InvalidParameter { name, reason };
        match *self {
            ParamDist::Constant(v) => {
                let ok = v.is_finite() && if strictly_positive { v > 0.0 } else { v >= 0.0 };
                if !ok {
                    let need = if strictly_positive { "> 0" } else { ">= 0" };
                    return Err(invalid(format!(
                        "constant must be finite and {need}, got {v}"
                    )));
                }
            }
            ParamDist::Exponential { mean } => {
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(invalid(format!("mean must be positive, got {mean}")));
                }
            }
            ParamDist::LogNormal { median, sigma } => {
                if !(median.is_finite() && median > 0.0 && sigma.is_finite() && sigma >= 0.0) {
                    return Err(invalid(format!(
                        "need median > 0 and sigma >= 0, got ({median}, {sigma})"
                    )));
                }
            }
            ParamDist::Uniform { lo, hi } => {
                let ok = lo.is_finite()
                    && hi.is_finite()
                    && 0.0 <= lo
                    && lo <= hi
                    && (!strictly_positive || hi > 0.0);
                if !ok {
                    return Err(invalid(format!("need 0 <= lo <= hi, got [{lo}, {hi}]")));
                }
            }
            ParamDist::BoundedPareto { lo, hi, alpha } => {
                if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi && alpha > 0.0) {
                    return Err(invalid(format!(
                        "need 0 < lo < hi and alpha > 0, got ([{lo}, {hi}], {alpha})"
                    )));
                }
            }
        }
        Ok(())
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ParamDist::Constant(v) => v,
            ParamDist::Exponential { mean } => {
                Exponential::with_mean(mean).expect("validated").sample(rng)
            }
            ParamDist::LogNormal { median, sigma } => LogNormal::with_median(median, sigma)
                .expect("validated")
                .sample(rng),
            ParamDist::Uniform { lo, hi } => lo + (hi - lo) * uniform01(rng),
            ParamDist::BoundedPareto { lo, hi, alpha } => BoundedPareto::new(lo, hi, alpha)
                .expect("validated")
                .sample(rng),
        }
    }
}

/// Distributional description of a synthesized population — what
/// [`Population::synthesize`] draws each client from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Raw (unnormalised) data-shard sizes; normalised into the weights
    /// `a_n`.
    pub weight: ParamDist,
    /// Squared gradient-norm bounds `G_n²`.
    pub g_squared: ParamDist,
    /// Local cost parameters `c_n`.
    pub cost: ParamDist,
    /// Intrinsic-value preferences `v_n`.
    pub value: ParamDist,
    /// Participation cap applied to every client.
    pub q_max: f64,
}

impl PopulationSpec {
    /// A heterogeneous default in the spirit of the paper's Table I:
    /// power-law data shards, uniform gradient heterogeneity, exponential
    /// costs and values.
    pub fn table1_like() -> Self {
        Self {
            weight: ParamDist::BoundedPareto {
                lo: 1.0,
                hi: 1_000.0,
                alpha: 1.2,
            },
            g_squared: ParamDist::Uniform { lo: 4.0, hi: 36.0 },
            cost: ParamDist::Exponential { mean: 50.0 },
            value: ParamDist::Exponential { mean: 4_000.0 },
            q_max: 1.0,
        }
    }

    /// Validate the specification.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), GameError> {
        self.weight.validate("weight", true)?;
        self.g_squared.validate("g_squared", true)?;
        self.cost.validate("cost", true)?;
        self.value.validate("value", false)?;
        if !(self.q_max.is_finite() && self.q_max > Q_MIN && self.q_max <= 1.0) {
            return Err(GameError::InvalidParameter {
                name: "q_max",
                reason: format!("must lie in ({Q_MIN}, 1], got {}", self.q_max),
            });
        }
        Ok(())
    }

    /// Draw client `index`'s profile (with its *raw*, unnormalised weight)
    /// from the substream derived from `(seed, index)`.
    ///
    /// This is the sharding primitive behind [`Population::synthesize`]:
    /// the draw touches no state outside the client's own substream.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for an invalid
    /// specification.
    pub fn draw_client(&self, seed: u64, index: usize) -> Result<ClientProfile, GameError> {
        self.validate()?;
        Ok(self.draw_client_unchecked(seed, index))
    }

    pub(crate) fn draw_client_unchecked(&self, seed: u64, index: usize) -> ClientProfile {
        let mut rng = substream(seed, index as u64);
        // Positive-required parameters are floored away from 0 so that an
        // unlucky draw (e.g. an Exponential hitting exactly 0) cannot
        // produce an invalid client.
        let weight = self.weight.sample(&mut rng).max(1e-12);
        let g_squared = self.g_squared.sample(&mut rng).max(1e-12);
        let cost = self.cost.sample(&mut rng).max(1e-12);
        let value = self.value.sample(&mut rng).max(0.0);
        ClientProfile {
            weight,
            g_squared,
            cost,
            value,
            q_max: self.q_max,
        }
    }
}

impl<'a> IntoIterator for &'a Population {
    type Item = &'a ClientProfile;
    type IntoIter = std::slice::Iter<'a, ClientProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.clients.iter()
    }
}

/// Builder assembling a [`Population`] from parallel vectors.
#[derive(Debug, Clone, Default)]
pub struct PopulationBuilder {
    weights: Vec<f64>,
    g_squared: Vec<f64>,
    costs: Vec<f64>,
    values: Vec<f64>,
    q_max: Option<Vec<f64>>,
}

impl PopulationBuilder {
    /// Set the data weights `a_n` (must sum to 1).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = weights;
        self
    }

    /// Set the squared gradient bounds `G_n²`.
    pub fn g_squared(mut self, g_squared: Vec<f64>) -> Self {
        self.g_squared = g_squared;
        self
    }

    /// Set the cost parameters `c_n`.
    pub fn costs(mut self, costs: Vec<f64>) -> Self {
        self.costs = costs;
        self
    }

    /// Set the intrinsic values `v_n`.
    pub fn values(mut self, values: Vec<f64>) -> Self {
        self.values = values;
        self
    }

    /// Set per-client participation caps.
    pub fn q_max(mut self, q_max: Vec<f64>) -> Self {
        self.q_max = Some(q_max);
        self
    }

    /// Set a single participation cap for everyone (the paper uses
    /// `q_{n,max} = 1`).
    pub fn q_max_all(mut self, q_max: f64) -> Self {
        self.q_max = Some(vec![q_max; self.weights.len().max(1)]);
        self
    }

    /// Assemble and validate the population.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::LengthMismatch`] if the vectors disagree in
    /// length and [`GameError::InvalidParameter`] for invalid entries.
    pub fn build(self) -> Result<Population, GameError> {
        let n = self.weights.len();
        for (len, _name) in [
            (self.g_squared.len(), "g_squared"),
            (self.costs.len(), "costs"),
            (self.values.len(), "values"),
        ] {
            if len != n {
                return Err(GameError::LengthMismatch {
                    expected: n,
                    found: len,
                });
            }
        }
        let q_max = self.q_max.unwrap_or_else(|| vec![1.0; n]);
        if q_max.len() != n {
            return Err(GameError::LengthMismatch {
                expected: n,
                found: q_max.len(),
            });
        }
        let clients = (0..n)
            .map(|i| ClientProfile {
                weight: self.weights[i],
                g_squared: self.g_squared[i],
                cost: self.costs[i],
                value: self.values[i],
                q_max: q_max[i],
            })
            .collect();
        Population::new(clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_builder() -> PopulationBuilder {
        Population::builder()
            .weights(vec![0.5, 0.3, 0.2])
            .g_squared(vec![1.0, 2.0, 3.0])
            .costs(vec![10.0, 20.0, 30.0])
            .values(vec![0.0, 5.0, 10.0])
    }

    #[test]
    fn builder_happy_path() {
        let p = valid_builder().build().unwrap();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.client(1).cost, 20.0);
        assert_eq!(p.weights(), vec![0.5, 0.3, 0.2]);
        assert!((p.a2g2()[0] - 0.25).abs() < 1e-12);
        assert_eq!(p.iter().count(), 3);
        assert_eq!((&p).into_iter().count(), 3);
    }

    #[test]
    fn builder_rejects_mismatched_lengths() {
        assert!(matches!(
            valid_builder().g_squared(vec![1.0]).build(),
            Err(GameError::LengthMismatch { .. })
        ));
        assert!(matches!(
            valid_builder().q_max(vec![1.0]).build(),
            Err(GameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(valid_builder()
            .weights(vec![0.5, 0.3, 0.3])
            .build()
            .is_err());
        assert!(valid_builder().costs(vec![0.0, 1.0, 1.0]).build().is_err());
        assert!(valid_builder()
            .values(vec![-1.0, 0.0, 0.0])
            .build()
            .is_err());
        assert!(valid_builder()
            .g_squared(vec![0.0, 1.0, 1.0])
            .build()
            .is_err());
        assert!(valid_builder().q_max_all(1.5).build().is_err());
        assert!(valid_builder().q_max_all(0.0).build().is_err());
        assert!(Population::new(vec![]).is_err());
    }

    #[test]
    fn default_q_max_is_one() {
        let p = valid_builder().build().unwrap();
        assert!(p.iter().all(|c| c.q_max == 1.0));
    }

    #[test]
    fn sampling_matches_table1_statistics() {
        let weights = vec![0.025; 40];
        let g2 = vec![4.0; 40];
        let p = Population::sample(3, &weights, &g2, 50.0, 4000.0, 1.0).unwrap();
        assert_eq!(p.len(), 40);
        let mean_c: f64 = p.iter().map(|c| c.cost).sum::<f64>() / 40.0;
        let mean_v: f64 = p.iter().map(|c| c.value).sum::<f64>() / 40.0;
        // Exponential with 40 draws: loose sanity interval.
        assert!(mean_c > 20.0 && mean_c < 110.0, "mean_c {mean_c}");
        assert!(mean_v > 1500.0 && mean_v < 9000.0, "mean_v {mean_v}");
    }

    #[test]
    fn sampling_zero_mean_value_gives_zero_values() {
        let p = Population::sample(1, &[0.5, 0.5], &[1.0, 1.0], 10.0, 0.0, 1.0).unwrap();
        assert!(p.iter().all(|c| c.value == 0.0));
    }

    #[test]
    fn sampling_is_deterministic() {
        let w = vec![0.5, 0.5];
        let g = vec![1.0, 1.0];
        let a = Population::sample(9, &w, &g, 10.0, 100.0, 1.0).unwrap();
        let b = Population::sample(9, &w, &g, 10.0, 100.0, 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_rejects_bad_params() {
        let w = vec![0.5, 0.5];
        let g = vec![1.0, 1.0];
        assert!(Population::sample(1, &w, &[1.0], 10.0, 1.0, 1.0).is_err());
        assert!(Population::sample(1, &w, &g, 0.0, 1.0, 1.0).is_err());
        assert!(Population::sample(1, &w, &g, 10.0, -1.0, 1.0).is_err());
    }

    #[test]
    fn columns_mirror_the_profiles() {
        let p = valid_builder().build().unwrap();
        let cols = p.columns();
        assert_eq!(cols.len(), p.len());
        assert!(!cols.is_empty());
        for (i, c) in p.iter().enumerate() {
            assert_eq!(cols.a2g2[i], c.a2g2());
            assert_eq!(cols.cost[i], c.cost);
            assert_eq!(cols.value[i], c.value);
            assert_eq!(cols.q_max[i], c.q_max);
        }
    }

    #[test]
    fn from_raw_normalises_like_synthesize() {
        let raw = |w: f64| ClientProfile {
            weight: w,
            g_squared: 4.0,
            cost: 10.0,
            value: 1.0,
            q_max: 1.0,
        };
        let p = Population::from_raw(vec![raw(3.0), raw(1.0)]).unwrap();
        assert_eq!(p.client(0).weight, 0.75);
        assert_eq!(p.client(1).weight, 0.25);
        // Degenerate raw weights are rejected.
        assert!(Population::from_raw(vec![]).is_err());
        assert!(Population::from_raw(vec![raw(f64::INFINITY)]).is_err());
        assert!(Population::from_raw(vec![raw(-1.0), raw(0.5)]).is_err());
    }

    #[test]
    fn effective_columns_transform_cost_and_cap() {
        let cols = valid_builder().build().unwrap().columns();
        let rates = [1.0, 0.5, 0.25];
        let eff = cols.effective(&rates).unwrap();
        // Rate 1 is bit-exact identity.
        assert_eq!(eff.cost[0].to_bits(), cols.cost[0].to_bits());
        assert_eq!(eff.q_max[0].to_bits(), cols.q_max[0].to_bits());
        // cost / rate², q_max · rate; a2g2 and value untouched.
        assert_eq!(eff.cost[1], cols.cost[1] / 0.25);
        assert_eq!(eff.q_max[1], cols.q_max[1] * 0.5);
        assert_eq!(eff.cost[2], cols.cost[2] / 0.0625);
        assert_eq!(eff.a2g2, cols.a2g2);
        assert_eq!(eff.value, cols.value);
    }

    #[test]
    fn effective_columns_reject_bad_rates() {
        let cols = valid_builder().build().unwrap().columns();
        assert!(cols.effective(&[1.0, 1.0]).is_err());
        assert!(cols.effective(&[1.0, 0.0, 1.0]).is_err());
        assert!(cols.effective(&[1.0, -0.5, 1.0]).is_err());
        assert!(cols.effective(&[1.0, 1.5, 1.0]).is_err());
        assert!(cols.effective(&[1.0, f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn synthesize_is_deterministic_and_valid() {
        let spec = PopulationSpec::table1_like();
        let a = Population::synthesize(1_000, &spec, 7).unwrap();
        let b = Population::synthesize(1_000, &spec, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_000);
        let total: f64 = a.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        assert_ne!(a, Population::synthesize(1_000, &spec, 8).unwrap());
    }

    #[test]
    fn synthesize_draws_are_per_client_streams() {
        // Client i's raw draw depends only on (seed, i): a prefix of a
        // larger population matches the smaller one up to renormalisation.
        let spec = PopulationSpec::table1_like();
        let small = Population::synthesize(10, &spec, 3).unwrap();
        let large = Population::synthesize(100, &spec, 3).unwrap();
        for i in 0..10 {
            let (s, l) = (small.client(i), large.client(i));
            assert_eq!(s.cost, l.cost);
            assert_eq!(s.value, l.value);
            assert_eq!(s.g_squared, l.g_squared);
            // Raw weights are equal; normalisation constants differ.
            let ratio = s.weight / l.weight;
            let ratio0 = small.client(0).weight / large.client(0).weight;
            assert!((ratio - ratio0).abs() < 1e-9 * ratio0);
        }
        // And draw_client reproduces the raw (pre-normalisation) draw.
        let direct = spec.draw_client(3, 4).unwrap();
        assert_eq!(direct.cost, small.client(4).cost);
    }

    #[test]
    fn synthesize_supports_every_distribution() {
        let spec = PopulationSpec {
            weight: ParamDist::Constant(2.0),
            g_squared: ParamDist::LogNormal {
                median: 9.0,
                sigma: 0.5,
            },
            cost: ParamDist::Uniform {
                lo: 10.0,
                hi: 100.0,
            },
            value: ParamDist::BoundedPareto {
                lo: 1.0,
                hi: 1_000.0,
                alpha: 1.5,
            },
            q_max: 0.9,
        };
        let p = Population::synthesize(200, &spec, 11).unwrap();
        assert!(p.iter().all(|c| (c.weight - 0.005).abs() < 1e-12));
        assert!(p.iter().all(|c| (10.0..=100.0).contains(&c.cost)));
        assert!(p.iter().all(|c| (1.0..=1_000.0).contains(&c.value)));
        assert!(p.iter().all(|c| c.q_max == 0.9));
    }

    #[test]
    fn synthesize_rejects_bad_specs() {
        let spec = PopulationSpec::table1_like();
        assert!(Population::synthesize(0, &spec, 1).is_err());
        let mut bad = spec;
        bad.q_max = 0.0;
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.cost = ParamDist::Exponential { mean: -1.0 };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.weight = ParamDist::BoundedPareto {
            lo: 5.0,
            hi: 1.0,
            alpha: 1.0,
        };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.g_squared = ParamDist::Uniform { lo: 2.0, hi: 1.0 };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.value = ParamDist::LogNormal {
            median: -1.0,
            sigma: 1.0,
        };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.value = ParamDist::Constant(f64::NAN);
        assert!(Population::synthesize(10, &bad, 1).is_err());
        // Positive-required parameters reject non-positive support outright
        // instead of silently clamping every draw to the floor.
        let mut bad = spec;
        bad.cost = ParamDist::Constant(-10.0);
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.cost = ParamDist::Constant(0.0);
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.weight = ParamDist::Uniform { lo: -5.0, hi: -1.0 };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.g_squared = ParamDist::Uniform { lo: 0.0, hi: 0.0 };
        assert!(Population::synthesize(10, &bad, 1).is_err());
        let mut bad = spec;
        bad.value = ParamDist::Constant(-5.0);
        assert!(Population::synthesize(10, &bad, 1).is_err());
        // value = 0 stays legal (the paper's v = 0 column).
        let mut ok = spec;
        ok.value = ParamDist::Constant(0.0);
        assert!(Population::synthesize(10, &ok, 1).is_ok());
    }
}
