//! Threshold-indexed active sets: sub-linear λ-probes for the Stage-I
//! solver, with incremental segment rebuilds under churn.
//!
//! Every probe of the budget bisection in [`crate::server`] evaluates the
//! path spend `Σ_n P(q_n(t))·q_n(t)` — an O(N) sweep. But the KKT path is
//! piecewise in `t = 1/λ`: client `n` sits at the floor `q_min` until the
//! closed-form **entry threshold**
//!
//! ```text
//! t_entry,n = v_n + c_n·q_min³ / ((α/4R)·a_n²G_n²)
//! ```
//!
//! and at its cap `q_max,n` from the **saturation threshold**
//!
//! ```text
//! t_sat,n = v_n + c_n·q_max,n³ / ((α/4R)·a_n²G_n²)
//! ```
//!
//! (the same expression [`crate::server`]'s `saturation_t` maximises).
//! Sorting clients by each threshold — O(N log N) per cold build — and
//! holding prefix sums of the per-client spend constants and interior
//! moments in threshold order turns each probe into binary searches plus
//! an O(1) closed-form evaluation:
//!
//! * floored clients (`t <= t_entry`) contribute the constant
//!   `2c·q_min² − v·(α/R)·a²G²/q_min` — a suffix sum in entry order;
//! * saturated clients (`t_sat < t`) contribute the constant
//!   `2c·q_max² − v·(α/R)·a²G²/q_max` — a prefix sum in saturation order;
//! * interior clients contribute `A_n(t−v_n)^{2/3} − D_n(t−v_n)^{−1/3}`
//!   with `A_n = 2c_n^{1/3}((α/4R)a_n²G_n²)^{2/3}` and
//!   `D_n = v_n(α/R)a_n²G_n²·(c_n/((α/4R)a_n²G_n²))^{1/3}`. That term is
//!   not separable in `(n, t)` for heterogeneous values, so the index
//!   evaluates a third-order binomial expansion in `v_n/t` — **exact**
//!   for zero-value clients and relatively off by `O((v/t)⁴)` otherwise —
//!   from eight moment prefix sums (`A`, `Av`, `Av²`, `Av³`, `D`, `Dv`,
//!   `Dv²`, `Dv³`) held in *both* threshold orders.
//!
//! The same walk yields the model's slope in `t`
//! ([`ActiveSetIndex::spend_and_slope`]): floored and saturated clients
//! are flat, and the interior series differentiates term by term over the
//! same eight moments. A warm model bisection takes Newton steps with it,
//! as the exact solver does with its exact slope, at no extra walk.
//!
//! # Two-level segmented layout
//!
//! The index is a list of [`IndexSegment`]s — each one sorted threshold
//! run (entry and saturation order) with its own prefix-summed spend
//! constants and interior moments — walked in a fixed segment order by
//! every probe: per segment a boundary check (the "directory scan":
//! first/last threshold short-circuit all-floored / all-saturated
//! segments), an in-segment binary search otherwise, and one closed-form
//! interior evaluation over the accumulated moments at the end.
//!
//! [`ActiveSetIndex::build`] takes each segment's rows as ascending row
//! ranges of the caller's columns, keeping them in that order, so the
//! segment list depends only on the row partition — never on how the
//! caller shards or threads. The pricing service passes its store's
//! route-block directory (segment `k` holds the live rows of every 32-id
//! block `b` with `b mod 256 = k`, one range per block); a standalone
//! solve passes one range per [`GRID_SEGMENT`] chunk ([`grid_segments`]).
//! Handed the previous index and a dirty flag per segment, the same
//! constructor re-sorts **only the dirty segments**, in
//! O(dirty·(N/S)·log(N/S)) sort work, and revalidates clean ones in
//! O(N/S) each, producing an index **bit-identical** to a cold build over
//! the same rows.
//!
//! # Memory layout
//!
//! A probe reads little per segment, so each sorted view stores exactly
//! that, contiguously, in sorted-slot order:
//!
//! * the key inputs `(v, e, f)` of each slot — the binary search reads
//!   nothing else, so its last steps share cache lines;
//! * one exclusive prefix record per slot boundary,
//!   `[c0, c1, A, Av, Av², Av³, D, Dv, Dv², Dv³]` — the closed form reads
//!   two records per segment;
//! * the slot → row permutation, which only the order-validation scan
//!   reads (it breaks key ties).
//!
//! Segments keep no per-row unit columns: rows are derived from the
//! caller's columns during a (re)build and dropped once both views are
//! sorted.
//!
//! # Scale factorisation (why patching survives weight renormalisation)
//!
//! The normalised `a²G² = (w/W)²·G²` column depends on the global raw
//! weight total `W`, so *any* churn moves *every* threshold — fatal for
//! segment reuse if thresholds were stored. Segments therefore store
//! only **scale-free unit values** derived from the caller's `w²G²`
//! column (raw `w_raw²·G²` in the service, the normalised column with
//! `scale = 1` standalone), and the index evaluates thresholds on the
//! fly at its current `scale = σ` (the service passes `σ = W²`):
//!
//! ```text
//! t_entry = v + σ·e      e = c·q_min³/((α/4R)·w²G²)
//! t_sat   = max(v + σ·f, t_entry)
//! floor   = F0 − F1/σ    F0 = 2c·q_min²,  F1 = v·(α/R)·w²G²/q_min
//! sat     = S0 − S1/σ    (q_max analogues)
//! A, D    = A0·σ^{−2/3}, D0·σ^{−2/3}
//! ```
//!
//! so every prefix array is σ-independent and the σ corrections apply
//! once per probe. A weight drift can still *reorder* thresholds inside
//! a clean segment (keys are `v + σ·e`, and lines cross); the patch
//! validates each clean segment's stored permutation is still *the*
//! stable argsort at the new σ (an O(len) adjacent scan — sorted keys
//! with ties in ascending insertion order characterise the stable
//! argsort uniquely) and rebuilds the rare violators ("repaired"), so
//! reuse never costs bit-identity. A repair re-derives the segment's
//! rows from the columns the constructor receives; the patch contract
//! guarantees a clean segment's rows are the ones it was built from.
//!
//! The evaluation is a **model**, not the exact chunked reduction: its
//! summation order differs from the flat solver's fixed chunk tree and
//! its interior term truncates the value series, so it can never be
//! bit-pinned to the goldens. [`crate::server::solve_kkt_columns`]
//! therefore treats the index as a probe accelerator only: the root it
//! finds is certified against *exact* spends (the materialised profile's
//! and one exact probe per band) and the Theorem-2 residual, and
//! violations fall back to the exact solver.

use crate::population::PopulationColumns;
use fedfl_num::parallel::{resolve_threads, DEFAULT_CHUNK};
use fedfl_num::prefix::sort_permutation;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Interior moment columns: `A`, `Av`, `Av²`, `Av³`, `D`, `Dv`, `Dv²`,
/// `Dv³`.
const MOMENTS: usize = 8;

/// Segment length of the positional layout standalone solves build
/// ([`grid_segments`]). Equal to the chunked reductions'
/// [`DEFAULT_CHUNK`], so each segment covers one chunk of the solver's
/// summation grid.
pub const GRID_SEGMENT: usize = DEFAULT_CHUNK;

/// The positional layout over `len` rows: segment `k` is the one range
/// `k·GRID_SEGMENT .. (k + 1)·GRID_SEGMENT` (clipped to `len`), and no
/// rows still make one empty segment.
pub fn grid_segments(len: usize) -> Vec<Vec<Range<usize>>> {
    (0..len.div_ceil(GRID_SEGMENT).max(1))
        .map(|k| std::iter::once(k * GRID_SEGMENT..len.min((k + 1) * GRID_SEGMENT)).collect())
        .collect()
}

/// Borrowed scale-free index inputs: the `w²G²` column (raw
/// `w_raw²·G²` when probing at `scale = W²`, the normalised `a²G²`
/// column at `scale = 1`), effective costs, values, and caps.
#[derive(Debug, Clone, Copy)]
pub struct IndexColumns<'a> {
    /// Squared-weight gradient column (see above for the scale contract).
    pub w2g2: &'a [f64],
    /// Effective per-client costs.
    pub cost: &'a [f64],
    /// Per-client values.
    pub value: &'a [f64],
    /// Effective participation caps.
    pub q_max: &'a [f64],
}

impl<'a> IndexColumns<'a> {
    /// View normalised population columns as unit inputs (`scale = 1`).
    pub fn from_population(cols: &'a PopulationColumns) -> Self {
        IndexColumns {
            w2g2: &cols.a2g2,
            cost: &cols.cost,
            value: &cols.value,
            q_max: &cols.q_max,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.w2g2.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.w2g2.is_empty()
    }
}

/// Accounting of one [`ActiveSetIndex::build`]: how each segment was
/// produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Segments sorted from their rows: every segment of a cold build,
    /// the dirty ones of a patch.
    pub rebuilt: usize,
    /// Clean segments rebuilt from the caller's columns because the
    /// scale drift reordered their thresholds (the order-validation scan
    /// failed).
    pub repaired: usize,
    /// Clean segments reused verbatim (validation passed — zero sort
    /// work).
    pub reused: usize,
}

/// One row's threshold key inputs `(v, e, f)`: the entry key is
/// `v + σ·e`, the saturation key `max(v + σ·f, v + σ·e)`.
type KeyInputs = [f64; 3];

/// One exclusive prefix record: the σ-free spend constant (`F0` / `S0`),
/// the `/σ` spend constant (`F1` / `S1`), then the eight unit interior
/// moments.
type PrefixRecord = [f64; PREFIX];

/// Fields of a [`PrefixRecord`].
const PREFIX: usize = 2 + MOMENTS;

/// One row's scale-free unit values, derived from the caller's columns.
/// Rows live only while a segment is (re)built; the segment keeps just
/// its two sorted views.
struct UnitRow {
    key: KeyInputs,
    /// Floor spend constants `[F0, F1]`.
    floor: [f64; 2],
    /// Saturation spend constants `[S0, S1]`.
    sat: [f64; 2],
    moments: [f64; MOMENTS],
}

impl UnitRow {
    /// Derive row `i`'s unit values. Columns are assumed already
    /// validated by the solver entry points (positive `w²G²`/`cost`,
    /// `q_max > q_min`); degenerate floating values don't panic — they
    /// fail [`Self::is_finite`], which marks the segment non-finite and
    /// makes the fast solver fall back to the exact path.
    fn derive(cols: &IndexColumns<'_>, i: usize, aor: f64, q_min: f64) -> Self {
        let w2g2 = cols.w2g2[i];
        let cost = cols.cost[i];
        let value = cols.value[i];
        let q_max = cols.q_max[i];
        let ka = (aor / 4.0) * w2g2;
        let a0 = 2.0 * cost.cbrt() * (ka * ka).cbrt();
        let d0 = value * aor * w2g2 * (cost / ka).cbrt();
        UnitRow {
            key: [value, cost * q_min.powi(3) / ka, cost * q_max.powi(3) / ka],
            floor: [2.0 * cost * q_min * q_min, value * aor * w2g2 / q_min],
            sat: [2.0 * cost * q_max * q_max, value * aor * w2g2 / q_max],
            moments: [
                a0,
                a0 * value,
                a0 * value * value,
                a0 * value * value * value,
                d0,
                d0 * value,
                d0 * value * value,
                d0 * value * value * value,
            ],
        }
    }

    /// Whether every derived unit value (the value itself excepted —
    /// the solver validates it) is finite.
    fn is_finite(&self) -> bool {
        self.key[1..]
            .iter()
            .chain(&self.floor)
            .chain(&self.sat)
            .chain(&self.moments)
            .all(|x| x.is_finite())
    }
}

/// The entry threshold `v + σ·e`, evaluated on the fly so stored segment
/// data stays σ-free. `σ = 1` makes the multiply bit-neutral.
#[inline]
fn entry_key(k: &KeyInputs, scale: f64) -> f64 {
    k[0] + scale * k[1]
}

/// The saturation threshold `max(v + σ·f, t_entry)`. `q_max > q_min`
/// makes it exceed the entry threshold analytically, but a
/// value-dominated sum can round them equal; the max keeps the invariant
/// `t_entry <= t_sat` the lookup relies on.
#[inline]
fn sat_key(k: &KeyInputs, scale: f64) -> f64 {
    (k[0] + scale * k[2]).max(entry_key(k, scale))
}

/// One sorted view of a segment, laid out for the probe: per sorted slot
/// the key inputs sit contiguously (the binary search reads nothing
/// else), and one exclusive prefix record per slot boundary holds every
/// running sum the closed form needs.
#[derive(Debug, Clone, PartialEq)]
struct SortedView {
    /// Sorted slot → row index within the segment (insertion order);
    /// breaks key ties in the order-validation scan.
    perm: Vec<u32>,
    /// Key inputs in sorted order.
    keys: Vec<KeyInputs>,
    /// `prefix[j]` sums the records of sorted slots `0..j` (length
    /// `len + 1`).
    prefix: Vec<PrefixRecord>,
}

impl SortedView {
    /// Stable-argsort `rows` by their evaluated `sort_keys` and
    /// accumulate the prefix records in that order (an exclusive left
    /// fold per field), taking the spend constants from `consts`.
    fn build(rows: &[UnitRow], sort_keys: &[f64], consts: impl Fn(&UnitRow) -> [f64; 2]) -> Self {
        let perm = sort_permutation(sort_keys);
        let mut keys = Vec::with_capacity(perm.len());
        let mut prefix = Vec::with_capacity(perm.len() + 1);
        let mut acc: PrefixRecord = [0.0; PREFIX];
        prefix.push(acc);
        for &row in &perm {
            let row = &rows[row as usize];
            keys.push(row.key);
            let [c0, c1] = consts(row);
            acc[0] += c0;
            acc[1] += c1;
            for (slot, m) in acc[2..].iter_mut().zip(&row.moments) {
                *slot += m;
            }
            prefix.push(acc);
        }
        SortedView { perm, keys, prefix }
    }

    /// Whether `perm` is still *the* stable argsort of `key` at `scale`
    /// (non-decreasing under `total_cmp`, ties in ascending row order,
    /// every key finite). Passing proves a cold rebuild at the current
    /// scale would reproduce this view bit for bit.
    fn is_stable_sorted(&self, scale: f64, key: fn(&KeyInputs, f64) -> f64) -> bool {
        let mut prev: Option<(f64, u32)> = None;
        for (inputs, &row) in self.keys.iter().zip(&self.perm) {
            let key = key(inputs, scale);
            if !key.is_finite() {
                return false;
            }
            if let Some((prev_key, prev_row)) = prev {
                match prev_key.total_cmp(&key) {
                    Ordering::Less => {}
                    Ordering::Equal if prev_row < row => {}
                    _ => return false,
                }
            }
            prev = Some((key, row));
        }
        true
    }

    /// Count of slots whose `key` at `scale` is strictly below `t`
    /// (`total_cmp` semantics, the order [`sort_permutation`] sorts in).
    /// First/last boundary checks short-circuit all-below and none-below
    /// segments — the directory half of a probe.
    fn count_below(&self, t: f64, scale: f64, key: fn(&KeyInputs, f64) -> f64) -> usize {
        let below = |inputs: &KeyInputs| key(inputs, scale).total_cmp(&t) == Ordering::Less;
        match (self.keys.first(), self.keys.last()) {
            (Some(first), Some(last)) if below(first) => {
                if below(last) {
                    self.keys.len()
                } else {
                    self.keys.partition_point(below)
                }
            }
            _ => 0,
        }
    }
}

/// One segment of the two-level index: both threshold-sorted views of
/// its rows. Shared by `Arc` so a patch reuses clean segments without
/// copying.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSegment {
    entry: SortedView,
    sat: SortedView,
    /// Unit values *and* the evaluated keys at the build scale are
    /// finite. Clean-segment reuse re-proves key finiteness at the new
    /// scale through the validation scan.
    finite: bool,
}

impl IndexSegment {
    /// Derive the rows of `ranges` (ascending positions in `cols` — a
    /// stable subsequence of the global client order) and sort both views
    /// at `scale`.
    fn build(
        cols: &IndexColumns<'_>,
        ranges: &[Range<usize>],
        aor: f64,
        q_min: f64,
        scale: f64,
    ) -> Self {
        let len = ranges.iter().map(ExactSizeIterator::len).sum();
        let mut units = Vec::with_capacity(len);
        let mut entry_keys = Vec::with_capacity(len);
        let mut sat_keys = Vec::with_capacity(len);
        let mut finite = true;
        for i in ranges.iter().cloned().flatten() {
            let unit = UnitRow::derive(cols, i, aor, q_min);
            let ek = entry_key(&unit.key, scale);
            let sk = sat_key(&unit.key, scale);
            finite = finite && unit.is_finite() && ek.is_finite() && sk.is_finite();
            entry_keys.push(ek);
            sat_keys.push(sk);
            units.push(unit);
        }
        IndexSegment {
            entry: SortedView::build(&units, &entry_keys, |u| u.floor),
            sat: SortedView::build(&units, &sat_keys, |u| u.sat),
            finite,
        }
    }

    /// Whether both stored sort orders are still the stable argsorts of
    /// the on-the-fly keys at `scale` — the clean-segment reuse proof.
    fn is_sorted_at(&self, scale: f64) -> bool {
        self.entry.is_stable_sorted(scale, entry_key) && self.sat.is_stable_sorted(scale, sat_key)
    }

    /// Number of clients in the segment.
    pub fn len(&self) -> usize {
        self.entry.keys.len()
    }

    /// Whether the segment holds no clients.
    pub fn is_empty(&self) -> bool {
        self.entry.keys.is_empty()
    }

    /// Largest evaluated saturation threshold (`None` when empty).
    fn top_sat_key(&self, scale: f64) -> Option<f64> {
        self.sat.keys.last().map(|k| sat_key(k, scale))
    }
}

/// The segmented, prefix-summed threshold index over a whole population
/// — the structure every fast λ-probe walks.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSetIndex {
    len: usize,
    aor: f64,
    q_min: f64,
    /// The scale σ thresholds are evaluated at (`W²` in the service,
    /// `1` standalone).
    scale: f64,
    inv_scale: f64,
    inv_scale23: f64,
    segments: Vec<Arc<IndexSegment>>,
    finite: bool,
}

impl ActiveSetIndex {
    fn assemble(segments: Vec<Arc<IndexSegment>>, aor: f64, q_min: f64, scale: f64) -> Self {
        let len = segments.iter().map(|s| s.len()).sum();
        let scale_ok = scale.is_finite() && scale > 0.0;
        let finite = scale_ok && segments.iter().all(|s| s.finite);
        let cbrt = scale.cbrt();
        ActiveSetIndex {
            len,
            aor,
            q_min,
            scale,
            inv_scale: 1.0 / scale,
            inv_scale23: 1.0 / (cbrt * cbrt),
            segments,
            finite,
        }
    }

    /// Build the index whose segment `k` holds the rows of
    /// `segments[k]`'s ranges, in order. The ranges must be ascending and
    /// disjoint and cover every row of `cols` once; the index then
    /// depends only on that partition. Segment builds run on `n_threads`
    /// workers (`0` = one per core) in a fixed segment order, so the
    /// result is thread-count independent.
    ///
    /// `scale` is the σ thresholds are evaluated at (pass the squared
    /// raw-weight total with a raw `w²G²` column, or `1.0` with
    /// normalised columns and [`grid_segments`]).
    ///
    /// `previous = None` sorts every segment cold. `Some((index, dirty))`
    /// patches `index` after churn: segments flagged in `dirty` are
    /// re-sorted from the current rows; clean segments are revalidated at
    /// the new `scale` and reused (or rebuilt from `cols` when scale drift
    /// reordered their thresholds). Either way the result is
    /// **bit-identical** to a cold build over the same inputs.
    ///
    /// Patch contract (the caller's dirty tracking must guarantee it): a
    /// clean segment's member rows — values, order, and membership — are
    /// unchanged since `index` was built. The service derives this from
    /// its per-segment store stamps; flagging a segment dirty is always
    /// safe, missing one is not. A patch's sort work is
    /// O(Σ_dirty len·log len) instead of the cold build's O(N log N);
    /// clean segments cost one O(len) validation scan each.
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not add up to the column length, or if the
    /// previous index has another segment count or solver knobs, or
    /// `dirty` another length.
    pub fn build(
        cols: &IndexColumns<'_>,
        segments: &[Vec<Range<usize>>],
        previous: Option<(&ActiveSetIndex, &[bool])>,
        aor: f64,
        q_min: f64,
        scale: f64,
        n_threads: usize,
    ) -> (Self, PatchStats) {
        let rows: usize = segments.iter().flatten().map(ExactSizeIterator::len).sum();
        assert_eq!(rows, cols.len(), "segments cover every row once");
        if let Some((index, dirty)) = previous {
            assert_eq!(index.segments.len(), segments.len(), "same segment count");
            assert_eq!(dirty.len(), segments.len(), "one dirty flag per segment");
            assert!(
                index.aor.to_bits() == aor.to_bits() && index.q_min.to_bits() == q_min.to_bits(),
                "a patch keeps the solver knobs"
            );
        }
        // 0 = reused, 1 = repaired, 2 = rebuilt — per-segment outcome.
        // A repair re-derives the clean segment's rows from `cols`: the
        // contract guarantees they are the rows it was built from, so
        // the result is the cold build at the new scale.
        let outcomes: Vec<(Arc<IndexSegment>, u8)> = run_tasks(segments.len(), n_threads, |k| {
            let clean = previous
                .filter(|(_, dirty)| !dirty[k])
                .map(|(index, _)| &index.segments[k]);
            if let Some(segment) = clean.filter(|segment| segment.is_sorted_at(scale)) {
                return (Arc::clone(segment), 0);
            }
            let segment = IndexSegment::build(cols, &segments[k], aor, q_min, scale);
            (Arc::new(segment), if clean.is_some() { 1 } else { 2 })
        });
        let mut stats = PatchStats::default();
        let mut built = Vec::with_capacity(segments.len());
        for (segment, outcome) in outcomes {
            match outcome {
                0 => stats.reused += 1,
                1 => stats.repaired += 1,
                _ => stats.rebuilt += 1,
            }
            built.push(segment);
        }
        (Self::assemble(built, aor, q_min, scale), stats)
    }

    /// Number of indexed clients.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index covers no clients.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (empty ones included).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The `α/R` the index was built at (fast solves must match it).
    pub fn aor(&self) -> f64 {
        self.aor
    }

    /// The participation floor the index was built at.
    pub fn q_min(&self) -> f64 {
        self.q_min
    }

    /// The scale σ probes currently evaluate thresholds at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Whether some unit value or evaluated threshold overflowed f64. A
    /// degenerate index cannot model spends; the fast solver falls back
    /// to the exact path immediately.
    pub fn is_degenerate(&self) -> bool {
        !self.finite
    }

    /// A path parameter strictly above every saturation threshold — the
    /// upper bisection bracket, mirroring the exact solver's
    /// `saturation_t` epsilon inflation.
    pub fn bracket_hi(&self) -> f64 {
        let top = self
            .segments
            .iter()
            .filter_map(|s| s.top_sat_key(self.scale))
            .fold(f64::NEG_INFINITY, f64::max);
        let top = if top.is_finite() { top } else { 0.0 };
        top.max(0.0) * (1.0 + 1e-12) + 1e-12
    }

    /// Total spend with every client at its cap — exact up to the split
    /// `S0 − S1/σ` summation (one prefix-sum read per segment), used for
    /// the O(1) saturation check.
    pub fn saturated_spend(&self) -> f64 {
        let mut s0 = 0.0f64;
        let mut s1 = 0.0f64;
        for seg in &self.segments {
            let total = &seg.sat.prefix[seg.len()];
            s0 += total[0];
            s1 += total[1];
        }
        s0 - s1 * self.inv_scale
    }

    /// Total spend with every client at the floor (the `t <= 0` limit).
    pub fn floor_spend(&self) -> f64 {
        let mut f0 = 0.0f64;
        let mut f1 = 0.0f64;
        for seg in &self.segments {
            let total = &seg.entry.prefix[seg.len()];
            f0 += total[0];
            f1 += total[1];
        }
        f0 - f1 * self.inv_scale
    }

    /// The modelled path spend at `t` — the sub-linear λ-probe: the first
    /// half of [`ActiveSetIndex::spend_and_slope`].
    pub fn spend(&self, t: f64) -> f64 {
        self.spend_and_slope(t).0
    }

    /// The modelled path spend at `t` and its slope in `t`, from one
    /// directory walk.
    ///
    /// Walks the segment directory in fixed order; per segment the
    /// boundary checks classify all-floored/all-saturated segments with
    /// two key evaluations, otherwise binary searches split the segment
    /// into floored / interior / saturated ranges. Spend constants and
    /// interior moments accumulate across segments in directory order
    /// (deterministic — the segment partition never depends on shard or
    /// thread counts), and the closed-form interior series plus the σ
    /// corrections apply once at the end.
    ///
    /// The slope is the term-by-term derivative of that interior series
    /// over the same moments; floored and saturated clients are flat. It
    /// lets a warm model bisection take Newton steps, and computing it
    /// leaves the spend's bits untouched.
    pub fn spend_and_slope(&self, t: f64) -> (f64, f64) {
        let scale = self.scale;
        let mut floored0 = 0.0f64;
        let mut floored1 = 0.0f64;
        let mut sat0 = 0.0f64;
        let mut sat1 = 0.0f64;
        let mut m = [0.0f64; MOMENTS];
        let mut any_interior = false;
        for seg in &self.segments {
            if seg.is_empty() {
                continue;
            }
            let past_entry = seg.entry.count_below(t, scale, entry_key);
            let saturated = seg.sat.count_below(t, scale, sat_key);
            let entry_total = &seg.entry.prefix[seg.len()];
            let entry_at = &seg.entry.prefix[past_entry];
            let sat_at = &seg.sat.prefix[saturated];
            floored0 += entry_total[0] - entry_at[0];
            floored1 += entry_total[1] - entry_at[1];
            sat0 += sat_at[0];
            sat1 += sat_at[1];
            if past_entry > saturated {
                any_interior = true;
                for (slot, (e, s)) in m.iter_mut().zip(entry_at[2..].iter().zip(&sat_at[2..])) {
                    *slot += e - s;
                }
            }
        }
        let floored = floored0 - floored1 * self.inv_scale;
        let saturated_spend = sat0 - sat1 * self.inv_scale;
        let (interior, slope) = if any_interior {
            // Interior clients exist only for t above some positive
            // entry threshold, so t > 0 and the series in v/t is sound.
            let u = t.cbrt();
            let inv = 1.0 / t;
            // (1 − v/t)^{2/3}  ≈ 1 − (2/3)x − (1/9)x² − (4/81)x³
            // (1 − v/t)^{−1/3} ≈ 1 + (1/3)x + (2/9)x² + (14/81)x³
            let a_series = m[0]
                - inv
                    * (m[1] * (2.0 / 3.0) + inv * (m[2] * (1.0 / 9.0) + inv * m[3] * (4.0 / 81.0)));
            let d_series = m[4]
                + inv
                    * (m[5] * (1.0 / 3.0)
                        + inv * (m[6] * (2.0 / 9.0) + inv * m[7] * (14.0 / 81.0)));
            // d/dt of t^{2/3}·a_series − t^{−1/3}·d_series, term by term:
            // t^{−1/3} times a series in 1/t with positive coefficients.
            let slope_series = m[0] * (2.0 / 3.0)
                + inv
                    * (m[1] * (2.0 / 9.0)
                        + m[4] * (1.0 / 3.0)
                        + inv
                            * (m[2] * (4.0 / 27.0)
                                + m[5] * (4.0 / 9.0)
                                + inv
                                    * (m[3] * (28.0 / 243.0)
                                        + m[6] * (14.0 / 27.0)
                                        + inv * m[7] * (140.0 / 243.0))));
            (
                ((u * u) * a_series - d_series / u) * self.inv_scale23,
                slope_series / u * self.inv_scale23,
            )
        } else {
            (0.0, 0.0)
        };
        (floored + saturated_spend + interior, slope)
    }

    /// Cost of one modelled probe in per-client spend-evaluation units:
    /// two binary searches per non-empty segment
    /// (`2·⌈log₂(len+1)⌉` each) plus the O(1) closed form. The
    /// `probe_evaluations` diagnostics count fast probes at this cost,
    /// making them directly comparable with the exact solver's
    /// N-per-probe sweeps.
    pub fn probe_cost(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| 2 * u64::from(u64::BITS - (s.len() as u64).leading_zeros()))
            .sum::<u64>()
            + 1
    }
}

/// Deterministic parallel task fill: `build(i)` for `i in 0..count`,
/// results in task order, workers pulling from an atomic counter (the
/// same crew pattern as `fedfl_num::parallel`, the caller one of the
/// workers — output is independent of the worker count).
fn run_tasks<T: Send>(count: usize, n_threads: usize, build: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = resolve_threads(n_threads).min(count).max(1);
    if workers <= 1 {
        return (0..count).map(build).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
            if i >= count {
                break;
            }
            local.push((i, build(i)));
        }
        local
    };
    let built: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut built = vec![drain()];
        built.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("index task panicked")),
        );
        built
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in built.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundParams;
    use crate::population::{ParamDist, Population, PopulationSpec, Q_MIN};

    fn aor() -> f64 {
        BoundParams::new(4_000.0, 100.0, 1_000)
            .unwrap()
            .alpha_over_r()
    }

    /// The positional layout over normalised columns.
    fn positional(cols: &PopulationColumns) -> ActiveSetIndex {
        let unit = IndexColumns::from_population(cols);
        let segments = grid_segments(cols.len());
        ActiveSetIndex::build(&unit, &segments, None, aor(), Q_MIN, 1.0, 1).0
    }

    /// Segment `k` holds the rows whose key is `k`, one range per row, in
    /// row order.
    fn keyed(keys: impl Iterator<Item = usize>, count: usize) -> Vec<Vec<Range<usize>>> {
        let mut segments = vec![Vec::new(); count];
        for (i, key) in keys.enumerate() {
            segments[key].push(i..i + 1);
        }
        segments
    }

    /// The exact per-client path spend the index models.
    fn naive_spend(cols: &PopulationColumns, aor: f64, q_min: f64, t: f64) -> f64 {
        let coef = aor / 4.0;
        (0..cols.len())
            .map(|i| {
                let slack = (t - cols.value[i]).max(0.0);
                let q = (coef * cols.a2g2[i] * slack / cols.cost[i])
                    .cbrt()
                    .clamp(q_min, cols.q_max[i]);
                2.0 * cols.cost[i] * q * q - cols.value[i] * aor * cols.a2g2[i] / q
            })
            .sum()
    }

    #[test]
    fn model_is_near_exact_for_zero_value_populations() {
        // With v = 0 the interior series truncates nothing: the model
        // differs from the exact sweep only by summation order.
        let spec = PopulationSpec {
            value: ParamDist::Constant(0.0),
            ..PopulationSpec::table1_like()
        };
        let p = Population::synthesize(700, &spec, 3).unwrap();
        let cols = p.columns();
        let index = positional(&cols);
        assert!(!index.is_degenerate());
        let hi = index.bracket_hi();
        for frac in [0.0, 1e-6, 0.01, 0.3, 0.7, 0.999, 1.0, 1.5] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            let scale = exact.abs().max(1.0);
            assert!(
                (model - exact).abs() <= 1e-9 * scale,
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
        assert!(
            (index.floor_spend() - naive_spend(&cols, aor(), Q_MIN, 0.0)).abs()
                <= 1e-9 * index.floor_spend().abs().max(1.0)
        );
        assert!(
            (index.saturated_spend() - naive_spend(&cols, aor(), Q_MIN, hi)).abs()
                <= 1e-9 * index.saturated_spend().abs().max(1.0)
        );
    }

    #[test]
    fn model_tracks_exact_spend_for_valued_populations() {
        // Heterogeneous values exercise the truncated series; at the
        // equilibrium scales of table1-like populations (t far above v)
        // the relative error is far below the certification band.
        let p = Population::synthesize(500, &PopulationSpec::table1_like(), 11).unwrap();
        let cols = p.columns();
        let index = positional(&cols);
        let hi = index.bracket_hi();
        for frac in [0.05, 0.2, 0.5, 0.9] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            assert!(
                (model - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
    }

    #[test]
    fn spend_is_monotone_on_a_probe_grid() {
        let p = Population::synthesize(300, &PopulationSpec::table1_like(), 5).unwrap();
        let index = positional(&p.columns());
        let hi = index.bracket_hi();
        let mut last = f64::NEG_INFINITY;
        for k in 0..=200 {
            let s = index.spend(hi * k as f64 / 200.0);
            assert!(
                s >= last - 1e-9 * s.abs().max(1.0),
                "model spend decreased at grid point {k}"
            );
            last = s;
        }
    }

    #[test]
    fn spend_and_slope_keeps_the_spend_bits_and_differentiates_it() {
        for (n, seed) in [(2_000, 29), (5_000, 3)] {
            let p = Population::synthesize(n, &PopulationSpec::table1_like(), seed).unwrap();
            let index = positional(&p.columns());
            let hi = index.bracket_hi();
            let mut interior_checks = 0;
            for k in 0..=400 {
                let t = hi * f64::from(k) / 400.0;
                let (spend, slope) = index.spend_and_slope(t);
                assert_eq!(spend.to_bits(), index.spend(t).to_bits(), "t {t}");
                assert!(slope >= 0.0, "t {t}: slope {slope}");
                // On the interior stretch of the path (clients moving, the
                // ends' rounding noise left out) the slope is the central
                // difference of the spend.
                if (0.01..0.99).contains(&(t / hi)) && slope > 0.0 {
                    let h = 1e-6 * t;
                    let secant = (index.spend(t + h) - index.spend(t - h)) / (2.0 * h);
                    assert!(
                        (slope - secant).abs() <= 1e-3 * secant.abs(),
                        "t {t}: slope {slope} vs secant {secant}"
                    );
                    interior_checks += 1;
                }
            }
            assert!(interior_checks > 100, "{interior_checks} interior checks");
            // Past every saturation threshold the model is flat.
            assert_eq!(index.spend_and_slope(hi * 1.5).1, 0.0);
        }
    }

    #[test]
    fn degenerate_columns_are_flagged_not_modelled() {
        // A denormal a2g2 against a huge cost overflows the threshold.
        let cols = PopulationColumns {
            a2g2: vec![1e-300, 1.0],
            cost: vec![1e300, 30.0],
            value: vec![0.0, 2.0],
            q_max: vec![1.0, 1.0],
        };
        let index = positional(&cols);
        assert!(index.is_degenerate());
    }

    #[test]
    fn probe_cost_is_logarithmic() {
        let cols = PopulationColumns {
            a2g2: vec![1.0; 1024],
            cost: vec![30.0; 1024],
            value: vec![0.0; 1024],
            q_max: vec![1.0; 1024],
        };
        let index = positional(&cols);
        assert_eq!(index.len(), 1024);
        assert!(index.probe_cost() <= 2 * 11 + 1);
        assert!(index.probe_cost() >= 2 * 10);
    }

    #[test]
    fn scaled_keyed_index_models_the_normalised_population() {
        // Raw w²G² columns probed at σ = W² track the exact spend of
        // the W-normalised population — the factorisation the service's
        // incremental patching rests on.
        let p = Population::synthesize(400, &PopulationSpec::table1_like(), 17).unwrap();
        let cols = p.columns();
        // Fabricate raw weights: w_raw = a·W for an arbitrary W.
        let total_w = 137.5f64;
        let scale = total_w * total_w;
        let w2g2: Vec<f64> = cols.a2g2.iter().map(|&a2g2| a2g2 * scale).collect();
        let segments = keyed((0..cols.len()).map(|i| (i / 32) % 7), 7);
        let (index, _) = ActiveSetIndex::build(
            &IndexColumns {
                w2g2: &w2g2,
                cost: &cols.cost,
                value: &cols.value,
                q_max: &cols.q_max,
            },
            &segments,
            None,
            aor(),
            Q_MIN,
            scale,
            1,
        );
        assert!(!index.is_degenerate());
        let hi = index.bracket_hi();
        for frac in [0.05, 0.3, 0.7, 0.95] {
            let t = frac * hi;
            let exact = naive_spend(&cols, aor(), Q_MIN, t);
            let model = index.spend(t);
            assert!(
                (model - exact).abs() <= 1e-6 * exact.abs().max(1.0),
                "frac {frac}: model {model} vs exact {exact}"
            );
        }
    }

    #[test]
    fn patch_rebuilds_dirty_segments_and_reuses_clean_ones() {
        let p = Population::synthesize(600, &PopulationSpec::table1_like(), 23).unwrap();
        let cols = p.columns();
        let segments = keyed((0..cols.len()).map(|i| i % 8), 8);
        let unit = IndexColumns::from_population(&cols);
        let cold_at =
            |scale| ActiveSetIndex::build(&unit, &segments, None, aor(), Q_MIN, scale, 1).0;
        let index = cold_at(1.0);

        // Same rows, same scale, two dirty segments: those rebuild, the
        // other six reuse, and the result matches a cold build exactly.
        let mut dirty = vec![false; 8];
        dirty[1] = true;
        dirty[5] = true;
        let (patched, stats) = ActiveSetIndex::build(
            &unit,
            &segments,
            Some((&index, &dirty)),
            aor(),
            Q_MIN,
            1.0,
            1,
        );
        assert_eq!(
            stats,
            PatchStats {
                rebuilt: 2,
                repaired: 0,
                reused: 6
            }
        );
        let cold = cold_at(1.0);
        assert_eq!(patched, cold, "patched index diverged from cold build");

        // A scale change alone (no dirty rows) revalidates every
        // segment; the patched index must equal a cold build at the new
        // scale whether segments were reused or repaired — and σ×4
        // reorders some, so the re-derive-from-columns repair runs.
        let (rescaled, restats) = ActiveSetIndex::build(
            &unit,
            &segments,
            Some((&index, &[false; 8])),
            aor(),
            Q_MIN,
            4.0,
            1,
        );
        assert_eq!(restats.rebuilt, 0);
        assert!(restats.repaired > 0, "σ×4 repaired nothing: {restats:?}");
        assert_eq!(restats.reused + restats.repaired, 8);
        let cold_rescaled = cold_at(4.0);
        assert_eq!(rescaled, cold_rescaled);
    }
}
