//! Pins the minimum-degree permutation of every suite KKT matrix.
//!
//! Each of the 100 `full_suite()` KKT matrices is assembled with the
//! evaluation settings' per-row ρ (as the benchmark's sparse replay
//! does) and ordered with [`Ordering::MinDegree`]. The FNV-1a hash of all
//! permutations must equal [`SUITE_MIN_DEGREE_FNV`], so any change to the
//! ordering — and with it the fill, the factor, the iterates and the MIB
//! schedules downstream — is an explicit edit of this constant.

use mib_bench::eval_settings;
use mib_problems::full_suite;
use mib_qp::kkt::KktMatrix;
use mib_qp::{KktBackend, INFTY};
use mib_sparse::order::{self, Ordering};

/// FNV-1a over `(n, perm[0], .., perm[n-1])` of every suite KKT, in
/// suite order, each value as a little-endian `u64`.
const SUITE_MIN_DEGREE_FNV: u64 = 0xf54a_9764_2833_3cbe;

fn fnv1a(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn suite_min_degree_permutations_are_pinned() {
    let s = eval_settings(KktBackend::Direct);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for inst in full_suite() {
        let p = &inst.problem;
        let rho: Vec<f64> = p
            .l()
            .iter()
            .zip(p.u())
            .map(|(&lo, &hi)| {
                if lo <= -INFTY && hi >= INFTY {
                    s.rho_min
                } else if lo == hi {
                    s.rho * s.rho_eq_scale
                } else {
                    s.rho
                }
            })
            .collect();
        let kkt = KktMatrix::assemble(p.p(), p.a(), s.sigma, &rho).unwrap();
        let perm = order::compute(kkt.matrix(), Ordering::MinDegree).unwrap();
        h = fnv1a(h, perm.len() as u64);
        for &k in perm.perm() {
            h = fnv1a(h, k as u64);
        }
    }
    assert_eq!(h, SUITE_MIN_DEGREE_FNV, "got {h:#018x}");
}
