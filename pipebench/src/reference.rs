//! The benchmark's own output checks, written without `lma-mst` so that a
//! fault in the program's MST code cannot also hide in its checker.

use lma_advice::{Advice, AdvisingScheme};
use lma_graph::WeightedGraph;
use lma_mst::RootedTree;

/// Disjoint sets with path halving and union by size.
struct Sets {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Sets {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Joins the sets of `a` and `b`; false when they were already one.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        if self.size[a] < self.size[b] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b] = a;
        self.size[a] += self.size[b];
        true
    }
}

/// The MST of `g` as ascending edge ids, by Kruskal over the raw edge list.
///
/// Fails when two edges share a weight: the MST is then not unique and a
/// correct tree could differ from this one.
pub fn reference_mst(g: &WeightedGraph) -> Result<Vec<usize>, String> {
    let edges = g.edges();
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&e| edges[e].weight);
    if let Some(pair) = order
        .windows(2)
        .find(|w| edges[w[0]].weight == edges[w[1]].weight)
    {
        return Err(format!(
            "edges {} and {} share weight {}; the MST is not unique",
            pair[0], pair[1], edges[pair[0]].weight
        ));
    }
    let n = g.node_count();
    let mut sets = Sets::new(n);
    let mut tree: Vec<usize> = order
        .into_iter()
        .filter(|&e| sets.union(edges[e].u, edges[e].v))
        .collect();
    if tree.len() + 1 != n {
        return Err(format!(
            "graph is disconnected: {} tree edges for {n} nodes",
            tree.len()
        ));
    }
    tree.sort_unstable();
    Ok(tree)
}

/// Checks that `tree` is exactly the reference MST.
pub fn check_tree(tree: &RootedTree, reference: &[usize]) -> Result<(), String> {
    let mut edges = tree.edges.clone();
    edges.sort_unstable();
    if edges != reference {
        let missing = reference
            .iter()
            .filter(|e| edges.binary_search(e).is_err())
            .count();
        return Err(format!(
            "tree misses {missing} of the {} reference MST edges",
            reference.len()
        ));
    }
    Ok(())
}

/// Checks an advice assignment against the scheme's claimed maximum size.
pub fn check_advice(scheme: &dyn AdvisingScheme, n: usize, advice: &Advice) -> Result<(), String> {
    if advice.per_node.len() != n {
        return Err(format!("advice for {} of {n} nodes", advice.per_node.len()));
    }
    let max_bits = advice.per_node.iter().map(|a| a.len()).max().unwrap_or(0);
    match scheme.claimed_max_bits(n) {
        Some(claim) if max_bits > claim => Err(format!(
            "{max_bits} advice bits exceed the claimed {claim} at n = {n}"
        )),
        _ => Ok(()),
    }
}

/// Checks a decode's round count against the scheme's claimed bound.
pub fn check_rounds(scheme: &dyn AdvisingScheme, n: usize, rounds: usize) -> Result<(), String> {
    match scheme.claimed_rounds(n) {
        Some(claim) if rounds > claim => Err(format!(
            "{rounds} rounds exceed the claimed {claim} at n = {n}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lma_graph::generators::Family;
    use lma_graph::weights::WeightStrategy;
    use lma_graph::GraphBuilder;

    #[test]
    fn reference_matches_a_hand_computed_mst() {
        // A 4-cycle plus a chord: the heaviest cycle edges drop out.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 5);
        b.add_edge(2, 3, 2);
        b.add_edge(3, 0, 4);
        b.add_edge(0, 2, 3);
        let g = b.build().expect("valid graph");
        assert_eq!(reference_mst(&g), Ok(vec![0, 2, 4]));
    }

    #[test]
    fn reference_refuses_tied_weights() {
        let g = Family::Ring.instantiate(6, WeightStrategy::Unit, 1);
        assert!(reference_mst(&g).is_err());
    }

    #[test]
    fn reference_is_a_spanning_tree_of_a_generated_graph() {
        let g =
            Family::SparseRandom.instantiate(300, WeightStrategy::DistinctRandom { seed: 3 }, 3);
        let tree = reference_mst(&g).expect("distinct weights");
        assert_eq!(tree.len(), 299);
    }
}
