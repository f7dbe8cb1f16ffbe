//! Seeded inputs: every value a workload feeds the stack derives from
//! `--seed` and a stream index, so the same seed gives the same inputs.

use mib_qp::{Problem, INFTY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for stream `stream` of seed `seed`. Distinct streams of
/// one seed are independent.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ 0x5eed,
    )
}

/// New values `(q, l, u)` for `problem` that keep its structure and
/// every constraint's class:
///
/// * each `q_i` is scaled by a factor in `[0.95, 1.05)`, so signs and
///   zeros survive and a bounded problem stays bounded;
/// * each finite inequality bound moves outwards by up to 5 % of
///   `max(1, |bound|)`, so a feasible problem stays feasible;
/// * equalities and infinite bounds are kept as they are.
pub fn revalue(problem: &Problem, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let q = problem
        .q()
        .iter()
        .map(|&qi| qi * (1.0 + 0.1 * (rng.gen::<f64>() - 0.5)))
        .collect();
    let mut l = problem.l().to_vec();
    let mut u = problem.u().to_vec();
    for (li, ui) in l.iter_mut().zip(u.iter_mut()) {
        if li == ui {
            continue;
        }
        if *li > -INFTY {
            *li -= 0.05 * rng.gen::<f64>() * li.abs().max(1.0);
        }
        if *ui < INFTY {
            *ui += 0.05 * rng.gen::<f64>() * ui.abs().max(1.0);
        }
    }
    (q, l, u)
}

/// `problem` with its vectors replaced.
pub fn with_values(problem: &Problem, q: Vec<f64>, l: Vec<f64>, u: Vec<f64>) -> Problem {
    Problem::new(problem.p().clone(), q, problem.a().clone(), l, u)
        .expect("revalued problem keeps the template's dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revalue_is_seeded_and_keeps_constraint_classes() {
        let problem = mib_problems::instance(mib_problems::Domain::Portfolio, 0).problem;
        let a = revalue(&problem, &mut rng(3, 1));
        let b = revalue(&problem, &mut rng(3, 1));
        let c = revalue(&problem, &mut rng(4, 1));
        assert_eq!(a, b, "same seed, same values");
        assert_ne!(a, c, "another seed, other values");
        let (q, l, u) = a;
        for (i, (&lo, &hi)) in problem.l().iter().zip(problem.u()).enumerate() {
            assert_eq!(lo == hi, l[i] == u[i], "row {i} changed class");
            assert!(l[i] <= lo && u[i] >= hi, "row {i} was not widened");
        }
        for (&q0, &q1) in problem.q().iter().zip(&q) {
            assert_eq!(q0 == 0.0, q1 == 0.0);
            assert!(q0 * q1 >= 0.0);
        }
        let p = with_values(&problem, q, l, u);
        assert_eq!(p.num_vars(), problem.num_vars());
    }
}
