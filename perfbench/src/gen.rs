//! Seeded input generation: the benchmark's only source of instances,
//! queries, valuations, weights and thresholds. Every generator draws from
//! one [`Rng`] stream, so a seed fixes every input byte for byte.

use treelineage::prelude::*;

/// SplitMix64: tiny, fast, and fully specified, so inputs never depend on
/// a library's RNG algorithm.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_7AEE_11AE)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// stream never shifts another's inputs.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for j in (1..items.len()).rev() {
            items.swap(j, self.below(j + 1));
        }
    }
}

/// Denominators of generated probabilities: dyadic ones mixed with small
/// non-dyadic ones, so exact answers grow realistic (non-power-of-two)
/// bignum denominators.
const DENOMINATORS: [u64; 8] = [2, 4, 8, 16, 3, 5, 10, 12];

/// A probability `k/d` strictly inside `(0, 1)` with a seeded `k` and the
/// given denominator.
fn probability_over(d: u64, rng: &mut Rng) -> Rational {
    Rational::from_ratio_u64(1 + rng.below(d as usize - 1) as u64, d)
}

/// A probability with a seeded denominator from [`DENOMINATORS`].
pub fn probability(rng: &mut Rng) -> Rational {
    probability_over(DENOMINATORS[rng.below(DENOMINATORS.len())], rng)
}

/// A valuation whose every block of eight consecutive facts uses each of
/// [`DENOMINATORS`] once, in a seeded order, with seeded numerators. Every
/// valuation of an instance thus has the same mix of denominators, so the
/// cost of an exact answer varies little from seed to seed while the
/// answers themselves differ.
pub fn valuation(instance: &Instance, rng: &mut Rng) -> ProbabilityValuation {
    let mut order = DENOMINATORS;
    let ps = (0..instance.fact_count())
        .map(|i| {
            let slot = i % order.len();
            if slot == 0 {
                rng.shuffle(&mut order);
            }
            probability_over(order[slot], rng)
        })
        .collect();
    ProbabilityValuation::from_probabilities(instance, ps)
}

/// General literal weights for WMC: independent `pos`/`neg` weights in
/// `(0, 2)` that do not sum to one.
pub fn weights(instance: &Instance, rng: &mut Rng) -> (Vec<Rational>, Vec<Rational>) {
    let weight = |rng: &mut Rng| {
        let d = DENOMINATORS[rng.below(DENOMINATORS.len())];
        Rational::from_ratio_u64(1 + rng.below(2 * d as usize - 1) as u64, d)
    };
    let n = instance.fact_count();
    let pos = (0..n).map(|_| weight(rng)).collect();
    let neg = (0..n).map(|_| weight(rng)).collect();
    (pos, neg)
}

/// A threshold uniform on a 2^-20 grid of `[0, 1]`.
pub fn threshold(rng: &mut Rng) -> Rational {
    Rational::from_ratio_u64(rng.next_u64() % ((1 << 20) + 1), 1 << 20)
}

/// The instance families the workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `R(i), S(i, i+1), T(i+1)` along a path; query `R(x), S(x, y), T(y)`.
    Chain,
    /// A hub with `n` spokes `S(0, i), L(i)`; query `S(x, y), L(y)`.
    Star,
    /// A `rows × cols` grid of `S` edges with a seeded half of its elements
    /// labelled `L`; query `S(x, y), L(y)`.
    Grid,
    /// A random tree of `S` edges (random direction) with seeded `R`/`T`
    /// labels; query `R(x), S(x, y), T(y)`.
    Tree,
    /// The unlabelled `n × n` grid of `S` edges; query `S(x, y)`.
    PlainGrid,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Chain => "chain",
            Family::Star => "star",
            Family::Grid => "grid",
            Family::Tree => "tree",
            Family::PlainGrid => "grid",
        }
    }

    fn signature(self) -> Signature {
        match self {
            Family::Chain | Family::Tree => Signature::builder()
                .relation("R", 1)
                .relation("S", 2)
                .relation("T", 1)
                .build(),
            Family::Star | Family::Grid => Signature::builder()
                .relation("S", 2)
                .relation("L", 1)
                .build(),
            Family::PlainGrid => Signature::builder().relation("S", 2).build(),
        }
    }

    fn query_text(self) -> &'static str {
        match self {
            Family::Chain | Family::Tree => "R(x), S(x, y), T(y)",
            Family::Star | Family::Grid => "S(x, y), L(y)",
            Family::PlainGrid => "S(x, y)",
        }
    }

    pub fn query(self) -> UnionOfConjunctiveQueries {
        parse_query(&self.signature(), self.query_text()).expect("built-in query parses")
    }
}

/// One generated (query, instance) input.
#[derive(Clone, Debug)]
pub struct Shape {
    pub family: Family,
    /// Path length, spoke count, tree size, or grid columns.
    pub size: usize,
    pub instance: Instance,
    pub query: UnionOfConjunctiveQueries,
}

impl Shape {
    pub fn label(&self) -> String {
        match self.family {
            Family::Grid => format!("grid3x{}", self.size),
            Family::PlainGrid => format!("grid{0}x{0}", self.size),
            f => format!("{}{}", f.name(), self.size),
        }
    }
}

/// Builds a shape of the given family and size. Chains, stars and plain
/// grids are fixed by their size; labelled grids and trees draw their
/// labels (and the tree its edges) from `rng`.
pub fn shape(family: Family, size: usize, rng: &mut Rng) -> Shape {
    let sig = family.signature();
    let mut inst = Instance::new(sig.clone());
    let n = size as u64;
    match family {
        Family::Chain => {
            for i in 0..n {
                inst.add_fact_by_name("R", &[i]);
                inst.add_fact_by_name("S", &[i, i + 1]);
                inst.add_fact_by_name("T", &[i + 1]);
            }
        }
        Family::Star => {
            for i in 1..=n {
                inst.add_fact_by_name("S", &[0, i]);
                inst.add_fact_by_name("L", &[i]);
            }
        }
        Family::Grid => {
            let (rows, cols) = (3u64, n);
            let id = |r: u64, c: u64| r * cols + c;
            for r in 0..rows {
                for c in 0..cols {
                    if c + 1 < cols {
                        inst.add_fact_by_name("S", &[id(r, c), id(r, c + 1)]);
                    }
                    if r + 1 < rows {
                        inst.add_fact_by_name("S", &[id(r, c), id(r + 1, c)]);
                    }
                    if rng.coin() {
                        inst.add_fact_by_name("L", &[id(r, c)]);
                    }
                }
            }
        }
        Family::Tree => {
            for child in 1..n {
                let parent = rng.below(child as usize) as u64;
                if rng.coin() {
                    inst.add_fact_by_name("S", &[parent, child]);
                } else {
                    inst.add_fact_by_name("S", &[child, parent]);
                }
            }
            for v in 0..n {
                // At least one label per element keeps every element's
                // R/T facts retractable without orphaning it.
                match rng.below(3) {
                    0 => inst.add_fact_by_name("R", &[v]),
                    1 => inst.add_fact_by_name("T", &[v]),
                    _ => {
                        inst.add_fact_by_name("R", &[v]);
                        inst.add_fact_by_name("T", &[v])
                    }
                };
            }
        }
        Family::PlainGrid => {
            let s = sig.relation_by_name("S").expect("S is in the signature");
            inst = treelineage_instance::encodings::grid_instance(&sig, s, size, size);
        }
    }
    Shape {
        family,
        size,
        instance: inst,
        query: family.query(),
    }
}

/// A byte-exact rendering of a generated shape, for the determinism test.
#[cfg(test)]
fn render_shape(shape: &Shape) -> String {
    let facts: Vec<String> = shape
        .instance
        .facts()
        .map(|(_, f)| {
            let args: Vec<String> = f.arguments().iter().map(|e| e.0.to_string()).collect();
            format!("{}({})", f.relation().0, args.join(","))
        })
        .collect();
    format!("{} {}", shape.label(), facts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> String {
        let rng = Rng::new(seed);
        let mut out = String::new();
        for (stream, family, size) in [
            (1, Family::Grid, 4),
            (2, Family::Tree, 12),
            (3, Family::Chain, 5),
        ] {
            let mut r = rng.fork(stream);
            let shape = shape(family, size, &mut r);
            out += &render_shape(&shape);
            let v = valuation(&shape.instance, &mut r);
            for f in shape.instance.fact_ids() {
                out += &format!(" {}", v.probability(f));
            }
            let (pos, neg) = weights(&shape.instance, &mut r);
            for w in pos.iter().chain(&neg) {
                out += &format!(" {}", w);
            }
            out += &format!(" t={}\n", threshold(&mut r));
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(sample(7).into_bytes(), sample(7).into_bytes());
        assert_eq!(sample(0).into_bytes(), sample(0).into_bytes());
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(sample(7), sample(8));
        assert_ne!(sample(1), sample(2));
    }

    #[test]
    fn probabilities_are_strictly_inside_the_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let p = probability(&mut rng);
            assert!(p.is_probability() && !p.is_zero() && !p.is_one());
        }
    }
}
