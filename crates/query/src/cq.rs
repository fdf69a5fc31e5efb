//! Conjunctive queries with disequalities and their unions
//! (the languages CQ, CQ≠, UCQ, UCQ≠ of Section 2).
//!
//! All queries are Boolean and constant-free, as in the paper. A CQ≠ is an
//! existentially quantified conjunction of relational atoms plus disequality
//! atoms `x ≠ y` between variables that occur in regular atoms; a UCQ≠ is a
//! disjunction of CQ≠s. The size `|q|` of a query is its total number of
//! atoms (disequalities are not counted in `|q|`, matching the paper's use of
//! `|q|` to calibrate line-instance lengths).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use treelineage_instance::{RelationId, Signature};

/// A query variable (an index local to the query, with a display name kept in
/// the query).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Variable(pub usize);

/// A relational atom `R(x_1, ..., x_k)` over query variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The atom's relation.
    pub relation: RelationId,
    /// The atom's argument variables.
    pub arguments: Vec<Variable>,
}

impl Atom {
    /// The set of distinct variables of the atom.
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.arguments.iter().copied().collect()
    }
}

/// A conjunctive query with disequalities (CQ≠). A plain CQ is a CQ≠ with no
/// disequality atoms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    signature: Signature,
    atoms: Vec<Atom>,
    disequalities: Vec<(Variable, Variable)>,
    variable_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Starts building a CQ≠ over a signature.
    pub fn builder(signature: &Signature) -> CqBuilder {
        CqBuilder {
            signature: signature.clone(),
            atoms: Vec::new(),
            disequalities: Vec::new(),
            variable_names: Vec::new(),
            variable_index: BTreeMap::new(),
        }
    }

    /// The query's signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The relational atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The disequality atoms.
    pub fn disequalities(&self) -> &[(Variable, Variable)] {
        &self.disequalities
    }

    /// Number of relational atoms (the paper's `|q|` for a single CQ≠).
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.variable_names.len()
    }

    /// All variables of the query.
    pub fn variables(&self) -> Vec<Variable> {
        (0..self.variable_names.len()).map(Variable).collect()
    }

    /// The display name of a variable.
    fn variable_name(&self, v: Variable) -> &str {
        &self.variable_names[v.0]
    }

    /// Returns `true` if no relation symbol occurs in two different atoms
    /// (a *self-join-free* / non-repeating query, as in \[23\]).
    pub fn is_self_join_free(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.atoms.iter().all(|a| seen.insert(a.relation))
    }

    /// Returns `true` if the query is connected in the sense of
    /// Definition 8.3: the graph on its atoms connecting atoms that share a
    /// variable (ignoring disequalities) is connected.
    pub fn is_connected(&self) -> bool {
        if self.atoms.len() <= 1 {
            return true;
        }
        let n = self.atoms.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                if !self.atoms[i]
                    .variables()
                    .is_disjoint(&self.atoms[j].variables())
                {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for &j in &adjacency[i] {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == n
    }

    /// Returns `true` if the query is *hierarchical*: for every two variables
    /// `x`, `y`, the sets of atoms containing them are either disjoint or one
    /// contains the other. Hierarchical self-join-free CQs are exactly the
    /// safe ones in the dichotomy of \[19\], and hierarchical structure
    /// underlies the inversion-free expressions of Section 9.
    pub fn is_hierarchical(&self) -> bool {
        let occurrences: Vec<BTreeSet<usize>> = self
            .variables()
            .into_iter()
            .map(|v| {
                self.atoms
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.variables().contains(&v))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        for a in &occurrences {
            for b in &occurrences {
                if a.is_disjoint(b) || a.is_subset(b) || b.is_subset(a) {
                    continue;
                }
                return false;
            }
        }
        true
    }

    /// Returns `true` if the query is *ranked*: the relation `x < y` whenever
    /// `x` occurs before `y` in some atom is acyclic (Section 9). In
    /// particular no variable occurs twice in one atom.
    pub fn is_ranked(&self) -> bool {
        let n = self.variable_count();
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for atom in &self.atoms {
            for i in 0..atom.arguments.len() {
                for j in i + 1..atom.arguments.len() {
                    let x = atom.arguments[i].0;
                    let y = atom.arguments[j].0;
                    if x == y {
                        return false;
                    }
                    edges.insert((x, y));
                }
            }
        }
        // Cycle detection on the precedence digraph.
        let mut adjacency = vec![Vec::new(); n];
        for &(x, y) in &edges {
            adjacency[x].push(y);
        }
        let mut state = vec![0u8; n]; // 0 unseen, 1 in progress, 2 done
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            // Iterative DFS with explicit stack of (node, next child index).
            let mut stack = vec![(start, 0usize)];
            state[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < adjacency[node].len() {
                    let child = adjacency[node][*next];
                    *next += 1;
                    match state[child] {
                        0 => {
                            state[child] = 1;
                            stack.push((child, 0));
                        }
                        1 => return false,
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    stack.pop();
                }
            }
        }
        true
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for atom in &self.atoms {
            let args: Vec<&str> = atom
                .arguments
                .iter()
                .map(|&v| self.variable_name(v))
                .collect();
            parts.push(format!(
                "{}({})",
                self.signature.relation(atom.relation).name(),
                args.join(", ")
            ));
        }
        for &(x, y) in &self.disequalities {
            parts.push(format!(
                "{} != {}",
                self.variable_name(x),
                self.variable_name(y)
            ));
        }
        write!(f, "{}", parts.join(", "))
    }
}

/// Builder for [`ConjunctiveQuery`].
pub struct CqBuilder {
    signature: Signature,
    atoms: Vec<Atom>,
    disequalities: Vec<(Variable, Variable)>,
    variable_names: Vec<String>,
    variable_index: BTreeMap<String, Variable>,
}

impl CqBuilder {
    /// Returns (creating if needed) the variable with the given name.
    pub fn variable(&mut self, name: &str) -> Variable {
        if let Some(&v) = self.variable_index.get(name) {
            return v;
        }
        let v = Variable(self.variable_names.len());
        self.variable_names.push(name.to_string());
        self.variable_index.insert(name.to_string(), v);
        v
    }

    /// Adds an atom by relation name and variable names.
    pub fn atom(mut self, relation: &str, variables: &[&str]) -> Self {
        let rel = self
            .signature
            .relation_by_name(relation)
            .unwrap_or_else(|| panic!("unknown relation {relation:?}"));
        assert_eq!(
            self.signature.arity(rel),
            variables.len(),
            "arity mismatch for {relation}"
        );
        let arguments: Vec<Variable> = variables.iter().map(|n| self.variable(n)).collect();
        self.atoms.push(Atom {
            relation: rel,
            arguments,
        });
        self
    }

    /// Adds a disequality atom between two variable names. Both variables
    /// must (eventually) occur in regular atoms; this is checked at build
    /// time.
    pub fn disequality(mut self, x: &str, y: &str) -> Self {
        let vx = self.variable(x);
        let vy = self.variable(y);
        self.disequalities.push((vx, vy));
        self
    }

    /// Finishes the query. Panics if a disequality mentions a variable that
    /// occurs in no regular atom (disallowed by the paper's definition of
    /// CQ≠).
    pub fn build(self) -> ConjunctiveQuery {
        let used: BTreeSet<Variable> = self
            .atoms
            .iter()
            .flat_map(|a| a.variables().into_iter())
            .collect();
        for &(x, y) in &self.disequalities {
            assert!(
                used.contains(&x) && used.contains(&y),
                "disequality variables must occur in regular atoms"
            );
        }
        ConjunctiveQuery {
            signature: self.signature,
            atoms: self.atoms,
            disequalities: self.disequalities,
            variable_names: self.variable_names,
        }
    }
}

/// A union of conjunctive queries with disequalities (UCQ≠). A UCQ is a UCQ≠
/// whose disjuncts are plain CQs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionOfConjunctiveQueries {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionOfConjunctiveQueries {
    /// Builds a UCQ≠ from its disjuncts (at least one).
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Self {
        assert!(!disjuncts.is_empty(), "a UCQ needs at least one disjunct");
        let sig = disjuncts[0].signature().clone();
        assert!(
            disjuncts.iter().all(|d| *d.signature() == sig),
            "all disjuncts must share the signature"
        );
        UnionOfConjunctiveQueries { disjuncts }
    }

    /// Wraps a single CQ≠ as a UCQ≠.
    pub fn single(cq: ConjunctiveQuery) -> Self {
        UnionOfConjunctiveQueries::new(vec![cq])
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// The common signature.
    pub fn signature(&self) -> &Signature {
        self.disjuncts[0].signature()
    }

    /// The size `|q|`: total number of relational atoms over all disjuncts.
    pub fn size(&self) -> usize {
        self.disjuncts.iter().map(|d| d.atom_count()).sum()
    }

    /// Returns `true` if every disjunct is connected (Definition 8.3).
    pub fn is_connected(&self) -> bool {
        self.disjuncts.iter().all(|d| d.is_connected())
    }
}

impl fmt::Display for UnionOfConjunctiveQueries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.disjuncts.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join(" | "))
    }
}

/// Parses a UCQ≠ from a compact textual syntax: disjuncts separated by `|`,
/// atoms separated by `,`, disequalities written `x != y`.
///
/// ```text
/// R(x), S(x, y), T(y) | S(x, y), S(y, z), x != z
/// ```
pub fn parse_query(signature: &Signature, text: &str) -> Result<UnionOfConjunctiveQueries, String> {
    let mut disjuncts = Vec::new();
    for part in text.split('|') {
        let part = part.trim();
        if part.is_empty() {
            return Err("empty disjunct".to_string());
        }
        let mut builder = ConjunctiveQuery::builder(signature);
        for piece in split_top_level(part) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            if let Some((lhs, rhs)) = piece.split_once("!=") {
                let (x, y) = (lhs.trim(), rhs.trim());
                if x.is_empty() || y.is_empty() {
                    return Err(format!("malformed disequality {piece:?}"));
                }
                builder = builder.disequality(x, y);
            } else {
                let open = piece
                    .find('(')
                    .ok_or_else(|| format!("malformed atom {piece:?}"))?;
                if !piece.ends_with(')') {
                    return Err(format!("malformed atom {piece:?}"));
                }
                let relation = piece[..open].trim();
                let args: Vec<&str> = piece[open + 1..piece.len() - 1]
                    .split(',')
                    .map(|a| a.trim())
                    .collect();
                if args.iter().any(|a| a.is_empty()) {
                    return Err(format!("malformed atom {piece:?}"));
                }
                let rel = signature
                    .relation_by_name(relation)
                    .ok_or_else(|| format!("unknown relation {relation:?}"))?;
                if signature.arity(rel) != args.len() {
                    return Err(format!(
                        "arity mismatch for {relation}: expected {}, got {}",
                        signature.arity(rel),
                        args.len()
                    ));
                }
                builder = builder.atom(relation, &args);
            }
        }
        disjuncts.push(builder.build());
    }
    if disjuncts.is_empty() {
        return Err("empty query".to_string());
    }
    Ok(UnionOfConjunctiveQueries::new(disjuncts))
}

/// Splits on commas that are not inside parentheses.
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rst() -> Signature {
        Signature::builder()
            .relation("R", 1)
            .relation("S", 2)
            .relation("T", 1)
            .build()
    }

    #[test]
    fn builder_and_display() {
        let q = ConjunctiveQuery::builder(&rst())
            .atom("R", &["x"])
            .atom("S", &["x", "y"])
            .atom("T", &["y"])
            .build();
        assert_eq!(q.atom_count(), 3);
        assert_eq!(q.variable_count(), 2);
        assert_eq!(q.to_string(), "R(x), S(x, y), T(y)");
        assert!(q.is_self_join_free());
        assert!(q.is_connected());
    }

    #[test]
    fn parser_roundtrip() {
        let q = parse_query(&rst(), "R(x), S(x, y), T(y) | S(x, y), S(y, z), x != z").unwrap();
        assert_eq!(q.disjuncts().len(), 2);
        assert_eq!(q.size(), 5);
        assert!(q.is_connected());
        assert_eq!(q.disjuncts()[1].disequalities().len(), 1);
    }

    #[test]
    fn parser_errors() {
        assert!(parse_query(&rst(), "U(x)").is_err());
        assert!(parse_query(&rst(), "R(x, y)").is_err());
        assert!(parse_query(&rst(), "R(x), ").is_ok()); // trailing comma tolerated
        assert!(parse_query(&rst(), "").is_err());
        assert!(parse_query(&rst(), "R x").is_err());
    }

    #[test]
    fn connectivity() {
        // Disconnected: R(x), T(y) share no variable.
        let q = parse_query(&rst(), "R(x), T(y)").unwrap();
        assert!(!q.is_connected());
        let q2 = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        assert!(q2.is_connected());
        // A single atom is connected.
        let q3 = parse_query(&rst(), "R(x)").unwrap();
        assert!(q3.is_connected());
    }

    #[test]
    fn hierarchical_queries() {
        // The classic unsafe query R(x), S(x,y), T(y) is NOT hierarchical:
        // atoms(x) = {R, S}, atoms(y) = {S, T} overlap without containment.
        let q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
        assert!(!q.disjuncts()[0].is_hierarchical());
        // R(x), S(x, y) is hierarchical.
        let q2 = parse_query(&rst(), "R(x), S(x, y)").unwrap();
        assert!(q2.disjuncts()[0].is_hierarchical());
    }

    #[test]
    fn self_join_detection() {
        let q = parse_query(&rst(), "S(x, y), S(y, z)").unwrap();
        assert!(!q.disjuncts()[0].is_self_join_free());
        let q2 = parse_query(&rst(), "R(x), S(x, y)").unwrap();
        assert!(q2.disjuncts()[0].is_self_join_free());
    }

    #[test]
    fn ranked_queries() {
        // S(x, y), S(y, z): precedence x < y < z is acyclic -> ranked.
        let q = parse_query(&rst(), "S(x, y), S(y, z)").unwrap();
        assert!(q.disjuncts()[0].is_ranked());
        // S(x, y), S(y, x): cycle x < y < x -> not ranked.
        let q2 = parse_query(&rst(), "S(x, y), S(y, x)").unwrap();
        assert!(!q2.disjuncts()[0].is_ranked());
        // S(x, x): variable repeated in an atom -> not ranked.
        let q3 = parse_query(&rst(), "S(x, x)").unwrap();
        assert!(!q3.disjuncts()[0].is_ranked());
    }

    #[test]
    fn disequality_must_use_query_variables() {
        let result = std::panic::catch_unwind(|| {
            ConjunctiveQuery::builder(&rst())
                .atom("R", &["x"])
                .disequality("x", "z")
                .build()
        });
        assert!(result.is_err());
    }
}
