//! Shared instance builders for the Criterion benches (`mod common`) and
//! the `tables` binary (`#[path]`).
#![allow(dead_code)]

use std::collections::BTreeSet;
use treelineage::prelude::*;

/// The chain instance R(i), S(i, i+1), T(i+1) for i < n (pathwidth 1).
pub fn chain_instance(n: usize) -> (Signature, Instance) {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let mut inst = Instance::new(sig.clone());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    (sig, inst)
}

/// The chain's known width-1 path decomposition: bags `{i, i+1}`.
pub fn chain_decomposition(n: usize) -> TreeDecomposition {
    let bags: Vec<BTreeSet<usize>> = (0..n).map(|i| [i, i + 1].into_iter().collect()).collect();
    TreeDecomposition::path_from_bags(bags)
}

/// A star join of treewidth 1 over relation `S` of `sig`: `n/2` edges into
/// the center and `n/2` out of it, so `S(x, y), S(y, z), x != z` has
/// ~`n²/4` matches through the center.
pub fn star_instance(sig: &Signature, n: usize) -> Instance {
    let mut inst = Instance::new(sig.clone());
    for leaf in 1..=n as u64 {
        if leaf % 2 == 0 {
            inst.add_fact_by_name("S", &[0, leaf]);
        } else {
            inst.add_fact_by_name("S", &[leaf, 0]);
        }
    }
    inst
}

/// The star's known width-1 path decomposition: one `{center, leaf}` bag
/// per leaf. (Vertex ids equal element values: the domain is `0..=n`.)
pub fn star_decomposition(n: usize) -> TreeDecomposition {
    let bags: Vec<BTreeSet<usize>> = (1..=n)
        .map(|leaf| [0usize, leaf].into_iter().collect())
        .collect();
    TreeDecomposition::path_from_bags(bags)
}
