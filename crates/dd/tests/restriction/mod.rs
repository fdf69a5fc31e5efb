//! Lemma 6.6 as a test oracle for OBDD level sizes, independent of every
//! OBDD builder: it reads one truth table and nothing else.
//!
//! In the reduced OBDD of `f` under the order `x₀ … x_{k−1}`, the nodes at
//! level `i` are exactly the distinct restrictions `f|x₀…x_{i−1}=a` that
//! depend on `xᵢ`. Indexing the truth table with `x₀` as the most
//! significant bit makes each restriction one contiguous block of
//! `2^{k−i}` entries, whose halves are its `xᵢ = 0` and `xᵢ = 1` cofactors.

use std::collections::{BTreeSet, HashSet};

/// The per-level node counts of the reduced OBDD of `f` under `order`
/// (at most 20 variables: the truth table has `2^k` entries).
pub fn restriction_level_sizes(
    f: impl Fn(&BTreeSet<usize>) -> bool,
    order: &[usize],
) -> Vec<usize> {
    let k = order.len();
    assert!(k <= 20, "restriction oracle limited to 20 variables");
    let table: Vec<bool> = (0u64..1 << k)
        .map(|m| {
            let world = (0..k).filter(|j| m >> (k - 1 - j) & 1 == 1);
            f(&world.map(|j| order[j]).collect())
        })
        .collect();
    (0..k)
        .map(|i| {
            let half = 1usize << (k - 1 - i);
            table
                .chunks(2 * half)
                .filter(|block| block[..half] != block[half..])
                .collect::<HashSet<_>>()
                .len()
        })
        .collect()
}
