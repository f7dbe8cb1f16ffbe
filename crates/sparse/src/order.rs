//! Fill-reducing orderings for symmetric sparse factorization.
//!
//! The paper's compiler permutes the KKT matrix with AMD [2] before
//! factorization. We implement exact minimum degree on the explicit
//! elimination graph ([`Ordering::MinDegree`]: the rule AMD approximates,
//! with a `(degree, index)` tie-break — see DESIGN.md §1 for why this
//! substitution preserves behaviour), plus reverse Cuthill–McKee
//! ([`Ordering::Rcm`]) and the identity ordering ([`Ordering::Natural`]) as
//! baselines for the ordering ablation bench.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::{CscMatrix, Permutation, Result, SparseError};

/// Selects the fill-reducing ordering applied before LDLᵀ factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// No permutation (identity).
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing BFS ordering.
    Rcm,
    /// Exact minimum degree, ties broken by the lower index.
    #[default]
    MinDegree,
}

/// Computes the selected ordering for a symmetric matrix given by its upper
/// triangle. Returns a [`Permutation`] with `perm[new] = old`.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular input.
pub fn compute(a: &CscMatrix, method: Ordering) -> Result<Permutation> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    match method {
        Ordering::Natural => Ok(Permutation::identity(a.ncols())),
        Ordering::Rcm => Ok(rcm(a)),
        Ordering::MinDegree => Ok(min_degree(a)),
    }
}

/// Builds the undirected adjacency structure (no diagonal, both directions)
/// from the upper-triangle pattern.
fn adjacency(a: &CscMatrix) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let mut adj = vec![Vec::new(); n];
    for (i, j, _) in a.iter() {
        if i != j {
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Reverse Cuthill–McKee ordering.
fn rcm(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let adj = adjacency(a);
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Start each component's BFS from a minimum-degree vertex (a cheap
    // stand-in for a pseudo-peripheral vertex).
    let mut starts: Vec<usize> = (0..n).collect();
    starts.sort_unstable_by_key(|&v| degree[v]);
    let mut queue = VecDeque::with_capacity(n);
    let mut nbrs = Vec::new();
    for &start in &starts {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(adj[v].iter().copied().filter(|&u| !visited[u]));
            nbrs.sort_unstable_by_key(|&u| degree[u]);
            for &u in &nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("bfs visits every vertex exactly once")
}

/// Exact minimum-degree ordering on the explicit elimination graph.
///
/// Each live vertex keeps its adjacency list in the current elimination
/// graph, so its degree is the list length. The live vertex with the
/// smallest `(degree, index)` is eliminated next (stale heap entries are
/// skipped lazily); its neighbourhood `Lv` then becomes a clique: every
/// `u ∈ Lv` drops `v` and gains the members of `Lv` it lacks. The graph
/// is always a subgraph of the filled graph, so the lists together never
/// hold more than twice the below-diagonal nonzeros of `L`.
fn min_degree(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let mut adj = adjacency(a);
    let mut eliminated = vec![false; n];
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = adj
        .iter()
        .enumerate()
        .map(|(v, list)| Reverse((list.len(), v)))
        .collect();
    let mut order = Vec::with_capacity(n);

    while let Some(Reverse((d, v))) = heap.pop() {
        if eliminated[v] || d != adj[v].len() {
            continue; // stale heap entry
        }
        eliminated[v] = true;
        order.push(v);
        let lv = std::mem::take(&mut adj[v]);
        for &u in &lv {
            // Mark u's neighbours, dropping v in the same pass.
            stamp += 1;
            mark[u] = stamp;
            let list = &mut adj[u];
            let mut k = 0;
            while k < list.len() {
                if list[k] == v {
                    list.swap_remove(k);
                } else {
                    mark[list[k]] = stamp;
                    k += 1;
                }
            }
            list.extend(lv.iter().filter(|&&w| mark[w] != stamp));
            heap.push(Reverse((list.len(), u)));
        }
    }
    Permutation::from_vec(order).expect("every vertex eliminated exactly once")
}

/// Counts the below-diagonal fill of the LDLᵀ factor of `PAPᵀ` for a given
/// ordering — the metric the ordering ablation bench reports.
///
/// # Errors
///
/// Propagates structural errors from permutation and elimination-tree
/// construction.
pub fn fill_in(a: &CscMatrix, method: Ordering) -> Result<usize> {
    let p = compute(a, method)?;
    let permuted = p.sym_perm_upper(a)?;
    let tree = crate::etree::EliminationTree::from_upper(&permuted)?;
    Ok(tree.l_nnz())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: vertex 0 connected to all others. Natural order is the
    /// worst case (eliminating the hub first gives a dense factor); any
    /// minimum-degree order eliminates leaves first giving zero fill beyond
    /// the original edges.
    fn star(n: usize) -> CscMatrix {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            d[i * n + i] = 4.0;
            if i > 0 {
                d[i] = 1.0; // (0, i) upper entry
            }
        }
        CscMatrix::from_dense(n, n, &d).upper_triangle().unwrap()
    }

    #[test]
    fn min_degree_avoids_star_fill() {
        let a = star(12);
        let natural_hub_first = {
            // Force the hub to be eliminated first by reversing: natural
            // order already eliminates the hub (vertex 0) first.
            fill_in(&a, Ordering::Natural).unwrap()
        };
        let md = fill_in(&a, Ordering::MinDegree).unwrap();
        assert_eq!(md, 11, "min degree keeps the star's original 11 edges only");
        assert!(natural_hub_first > md, "hub-first must create fill");
    }

    #[test]
    fn orderings_are_valid_permutations() {
        let a = star(7);
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            let p = compute(&a, method).unwrap();
            assert_eq!(p.len(), 7);
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = star(5);
        let p = compute(&a, Ordering::Natural).unwrap();
        assert_eq!(p.perm(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_chain() {
        // A chain 0-5-1-4-2-3 (a path with scrambled labels) has large
        // natural bandwidth; RCM recovers a banded order.
        let edges = [(0usize, 5usize), (5, 1), (1, 4), (4, 2), (2, 3)];
        let n = 6;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(4.0);
        }
        for &(i, j) in &edges {
            let (a, b) = (i.min(j), i.max(j));
            rows.push(a);
            cols.push(b);
            vals.push(1.0);
        }
        let a = CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap();
        let bandwidth = |p: &Permutation| -> usize {
            edges
                .iter()
                .map(|&(i, j)| p.inv()[i].abs_diff(p.inv()[j]))
                .max()
                .unwrap()
        };
        let natural = bandwidth(&Permutation::identity(n));
        let rcm_bw = bandwidth(&compute(&a, Ordering::Rcm).unwrap());
        assert_eq!(rcm_bw, 1, "a path graph reorders to bandwidth 1");
        assert!(natural > rcm_bw);
    }

    #[test]
    fn min_degree_on_grid_beats_natural() {
        // 2D 6x6 grid Laplacian pattern.
        let k = 6;
        let n = k * k;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            vals.push(4.0);
        }
        for r in 0..k {
            for c in 0..k {
                let v = r * k + c;
                if c + 1 < k {
                    rows.push(v);
                    cols.push(v + 1);
                    vals.push(-1.0);
                }
                if r + 1 < k {
                    rows.push(v);
                    cols.push(v + k);
                    vals.push(-1.0);
                }
            }
        }
        let a = CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap();
        let nat = fill_in(&a, Ordering::Natural).unwrap();
        let md = fill_in(&a, Ordering::MinDegree).unwrap();
        assert!(
            md < nat,
            "min degree ({md}) should beat natural ({nat}) on a grid"
        );
    }

    #[test]
    fn rectangular_input_rejected() {
        let a = CscMatrix::zeros(2, 3);
        assert!(compute(&a, Ordering::MinDegree).is_err());
    }

    #[test]
    fn diagonal_matrix_any_order_zero_fill() {
        let a = CscMatrix::identity(8);
        for method in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            assert_eq!(fill_in(&a, method).unwrap(), 0);
        }
    }
}
