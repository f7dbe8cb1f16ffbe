//! Property-based tests on the core data structures and the
//! compiler/machine contract.

use mib::compiler::elementwise::load_vec;
use mib::compiler::permute::permute;
use mib::compiler::spmv::{mac_spmv, SpmvOptions};
use mib::compiler::{schedule, Allocator, KernelBuilder, ScheduleOptions};
use mib::core::hbm::HbmStream;
use mib::core::machine::{HazardPolicy, Machine};
use mib::core::MibConfig;
use mib::sparse::ldl::LdlSymbolic;
use mib::sparse::order::Ordering;
use mib::sparse::{CscMatrix, Permutation};
use proptest::prelude::*;

/// Strategy: a random sparse matrix as triplets.
fn sparse_matrix(max_dim: usize) -> impl Strategy<Value = CscMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -10.0f64..10.0), 0..(2 * nr * nc).min(64))
            .prop_map(move |trips| {
                let rows: Vec<usize> = trips.iter().map(|t| t.0).collect();
                let cols: Vec<usize> = trips.iter().map(|t| t.1).collect();
                let vals: Vec<f64> = trips.iter().map(|t| t.2).collect();
                CscMatrix::from_triplet_parts(nr, nc, &rows, &cols, &vals).unwrap()
            })
    })
}

/// Strategy: a random SPD matrix (diagonally dominant), upper triangle.
fn spd_upper(max_n: usize) -> impl Strategy<Value = CscMatrix> {
    (2..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..3 * n).prop_map(move |edges| {
            let mut rows = Vec::new();
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for i in 0..n {
                rows.push(i);
                cols.push(i);
                vals.push(n as f64 + 4.0);
            }
            for (a, b, v) in edges {
                if a != b {
                    rows.push(a.min(b));
                    cols.push(a.max(b));
                    vals.push(v / 2.0); // duplicates sum; stay dominant
                }
            }
            CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap()
        })
    })
}

/// Strategy: a random symmetric pattern (upper triangle, unit values) on
/// at most `max_n` vertices, mixing the shapes that stress an ordering:
/// dense rows, missing diagonal entries, up to three disconnected
/// components and, one case in eight, the diagonal-only matrix.
fn symmetric_pattern(max_n: usize) -> impl Strategy<Value = CscMatrix> {
    (1..max_n + 1, 1usize..4, 0usize..8).prop_flat_map(|(n, parts, mode)| {
        (
            proptest::collection::vec((0..n, 0..n), 0..3 * n),
            proptest::collection::vec(0..n, 0..3),
            proptest::collection::vec(0u8..4, n..n + 1),
        )
            .prop_map(move |(edges, dense_rows, diag)| {
                let diagonal_only = mode == 0;
                let component = |v: usize| v * parts / n;
                let mut rows = Vec::new();
                let mut cols = Vec::new();
                for (v, &d) in diag.iter().enumerate() {
                    if d != 0 || diagonal_only {
                        rows.push(v);
                        cols.push(v);
                    }
                }
                let dense = dense_rows.iter().flat_map(|&h| (0..n).map(move |w| (h, w)));
                for (a, b) in edges.into_iter().chain(dense) {
                    if !diagonal_only && a != b && component(a) == component(b) {
                        rows.push(a.min(b));
                        cols.push(a.max(b));
                    }
                }
                let vals = vec![1.0; rows.len()];
                CscMatrix::from_triplet_parts(n, n, &rows, &cols, &vals).unwrap()
            })
    })
}

/// Reference minimum-degree ordering on a dense elimination graph: repeatedly
/// eliminate the live vertex with the smallest `(degree, index)` and turn its
/// live neighbourhood into a clique.
fn dense_min_degree(a: &CscMatrix) -> Vec<usize> {
    let n = a.ncols();
    let mut g = vec![vec![false; n]; n];
    for (i, j, _) in a.iter() {
        if i != j {
            g[i][j] = true;
            g[j][i] = true;
        }
    }
    let mut live = vec![true; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let degree = |u: usize| (0..n).filter(|&w| live[w] && g[u][w]).count();
        let v = (0..n)
            .filter(|&u| live[u])
            .min_by_key(|&u| (degree(u), u))
            .unwrap();
        live[v] = false;
        order.push(v);
        let nbrs: Vec<usize> = (0..n).filter(|&u| live[u] && g[v][u]).collect();
        for &x in &nbrs {
            for &y in &nbrs {
                g[x][y] = x != y;
            }
        }
    }
    order
}

fn dense_mul(m: &CscMatrix, x: &[f64]) -> Vec<f64> {
    let d = m.to_dense();
    (0..m.nrows())
        .map(|i| (0..m.ncols()).map(|j| d[i * m.ncols() + j] * x[j]).sum())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSC ↔ dense and CSC ↔ CSR round trips preserve the matrix.
    #[test]
    fn csc_round_trips(m in sparse_matrix(12)) {
        let pruned = m.prune();
        let dense = CscMatrix::from_dense(m.nrows(), m.ncols(), &m.to_dense());
        prop_assert_eq!(&dense, &pruned);
        prop_assert_eq!(&m.to_csr().to_csc(), &m);
        prop_assert_eq!(&m.transpose().transpose(), &m);
    }

    /// SpMV agrees with the dense computation, and `Aᵀ` duality holds.
    #[test]
    fn spmv_matches_dense(m in sparse_matrix(12), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..m.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = m.mul_vec(&x);
        let want = dense_mul(&m, &x);
        for (a, b) in y.iter().zip(&want) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // <Ax, w> == <x, Aᵀw>
        let w: Vec<f64> = (0..m.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lhs = mib::sparse::vector::dot(&y, &w);
        let rhs = mib::sparse::vector::dot(&x, &m.tr_mul_vec(&w));
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
    }

    /// LDLᵀ factorization solves `Ax = b` for any SPD matrix under any
    /// ordering.
    #[test]
    fn ldl_solves_spd(a in spd_upper(14), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for ord in [Ordering::Natural, Ordering::MinDegree, Ordering::Rcm] {
            let solver = mib::sparse::ldl::LdlSolver::new(&a, ord).unwrap();
            let x = solver.solve(&b);
            let ax = a.sym_upper_mul_vec(&x);
            for (u, v) in ax.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-7, "ordering {:?}", ord);
            }
        }
    }

    /// The elimination tree's column counts equal the true factor fill.
    #[test]
    fn etree_counts_match_numeric_fill(a in spd_upper(14)) {
        let sym = LdlSymbolic::new(&a).unwrap();
        let f = sym.factor(&a).unwrap();
        prop_assert_eq!(sym.l_nnz(), f.l_nnz());
    }

    /// Permutations round-trip through apply/apply_inv.
    #[test]
    fn permutation_round_trip(perm in proptest::collection::vec(0usize..32, 1..32)) {
        let n = perm.len();
        let mut sorted: Vec<usize> = (0..n).collect();
        // Build a valid permutation from the random ranks.
        sorted.sort_by_key(|&i| (perm[i], i));
        let p = Permutation::from_vec(sorted).unwrap();
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(p.apply_inv(&p.apply(&x)), x.clone());
        let double_inverse = p.inverse().inverse();
        prop_assert_eq!(double_inverse.perm(), p.perm());
    }

    /// Compiled permutation programs executed on the machine realize the
    /// permutation exactly, hazard-free.
    #[test]
    fn machine_permutation_is_exact(ranks in proptest::collection::vec(0u32..1000, 2..40)) {
        let n = ranks.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (ranks[i], i));
        let p = Permutation::from_vec(order).unwrap();
        let config = MibConfig { width: 8, bank_depth: 512, clock_hz: 1e6 };
        let data: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
        let mut alloc = Allocator::new(config.width);
        let src = alloc.alloc(n);
        let dst = alloc.alloc(n);
        let mut b = KernelBuilder::new("perm", config.width, config.latency());
        load_vec(&mut b, src, &data);
        permute(&mut b, src, dst, &p);
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let mut m = Machine::new(config);
        m.run(&s.program, &mut HbmStream::new(s.hbm.clone()), HazardPolicy::Strict).unwrap();
        let got: Vec<f64> = (0..n).map(|k| m.regs().read(dst.bank(k), dst.addr(k)).unwrap()).collect();
        prop_assert_eq!(got, p.apply(&data));
    }

    /// Compiled SpMV programs executed on the machine match the reference
    /// product bit-for-bit under strict hazard checking, regardless of the
    /// sparsity pattern.
    #[test]
    fn machine_spmv_is_exact(a in sparse_matrix(10), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let config = MibConfig { width: 8, bank_depth: 2048, clock_hz: 1e6 };
        let mut alloc = Allocator::new(config.width);
        let xl = alloc.alloc(a.ncols());
        let yl = alloc.alloc(a.nrows());
        let mut b = KernelBuilder::new("spmv", config.width, config.latency());
        load_vec(&mut b, xl, &x);
        mac_spmv(&mut b, &mut alloc, &a.to_csr(), xl, yl, false, SpmvOptions::default());
        let s = schedule(&b.finish(), ScheduleOptions::default());
        let mut m = Machine::new(config);
        m.run(&s.program, &mut HbmStream::new(s.hbm.clone()), HazardPolicy::Strict).unwrap();
        let want = a.mul_vec(&x);
        for (e, w) in want.iter().enumerate() {
            let g = m.regs().read(yl.bank(e), yl.addr(e)).unwrap();
            prop_assert!((g - w).abs() < 1e-10, "row {}: {} vs {}", e, g, w);
        }
    }

    /// Box projection is idempotent and bounded.
    #[test]
    fn projection_properties(
        x in proptest::collection::vec(-100.0f64..100.0, 1..40),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bounds: Vec<(f64, f64)> = (0..x.len())
            .map(|_| {
                let a: f64 = rng.gen_range(-50.0..50.0);
                let b: f64 = rng.gen_range(-50.0..50.0);
                (a.min(b), a.max(b))
            })
            .collect();
        let l: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let u: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        let p = mib::sparse::vector::project_box(&x, &l, &u);
        let pp = mib::sparse::vector::project_box(&p, &l, &u);
        prop_assert_eq!(&p, &pp);
        for ((v, &lo), &hi) in p.iter().zip(&l).zip(&u) {
            prop_assert!(*v >= lo && *v <= hi);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The minimum-degree ordering equals the dense elimination-graph
    /// reference exactly, ties included.
    #[test]
    fn min_degree_matches_dense_elimination_graph(a in symmetric_pattern(60)) {
        let p = mib::sparse::order::compute(&a, Ordering::MinDegree).unwrap();
        let want = dense_min_degree(&a);
        prop_assert_eq!(p.perm(), want.as_slice());
    }
}
