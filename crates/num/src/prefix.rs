//! Threshold-order primitives for the active-set fast path.
//!
//! The sub-linear λ-probe index sorts clients by their closed-form
//! entry/saturation thresholds once per (segment) rebuild and then answers
//! every probe with a binary search over prefix sums taken in that order.
//! The order must be one well-defined function of the keys, so it uses
//! [`f64::total_cmp`]: ties (including `-0.0` vs `0.0` and NaN payloads)
//! have one resolution everywhere, and equal keys keep their input order.

/// Stable argsort of `keys` under [`f64::total_cmp`].
///
/// Returns the permutation `perm` such that `keys[perm[0]] <=
/// keys[perm[1]] <= ...`, with ties resolved by original position
/// (stability). Indices are `u32` — the index layer caps populations at
/// `u32::MAX` clients, far above the workloads the repo targets.
///
/// # Panics
///
/// Panics if `keys.len()` exceeds `u32::MAX`.
pub fn sort_permutation(keys: &[f64]) -> Vec<u32> {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "sort_permutation supports at most u32::MAX keys"
    );
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    // `sort_by` is stable, so equal keys keep their original order.
    perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_permutation_is_stable_on_ties() {
        let keys = [2.0, 1.0, 2.0, -0.0, 0.0, 1.0];
        let perm = sort_permutation(&keys);
        // total_cmp orders -0.0 before 0.0; equal keys keep input order.
        assert_eq!(perm, vec![3, 4, 1, 5, 0, 2]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(sort_permutation(&[]).is_empty());
    }
}
