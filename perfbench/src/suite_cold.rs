//! `suite-cold`: every instance of the 100-problem suite, under
//! ADMM-direct, ADMM-indirect and PDQP, set up and solved once from
//! cold on one thread.
//!
//! A pass runs all 300 (instance, variant) pairs in a seeded order on
//! seeded values of `q`, `l` and `u` (see [`crate::inputs::revalue`]).
//! Passes repeat until the time budget is spent and at least
//! [`MIN_SOLVES`] solves were timed. `setup_s` is the median over passes
//! of the summed `Solver::new` time; `op_*` are per cold `solve`.
//!
//! Correctness: every solve must report `Solved`, its residuals
//! recomputed from the problem data must be within tolerance, and a
//! sample of solvers re-solves after serving other values (pooled) and
//! must reproduce the fresh answer bitwise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mib_bench::eval_settings;
use mib_problems::{full_suite, BenchmarkInstance};
use mib_qp::kkt::KktMatrix;
use mib_qp::{Algorithm, KktBackend, Problem, Settings, SolveResult, Solver, Status, INFTY};
use mib_sparse::ldl::LdlSymbolic;
use mib_sparse::order::{self, Ordering};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::inputs::{revalue, rng, with_values};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// The three solver variants.
const VARIANTS: [(&str, Algorithm, KktBackend); 3] = [
    ("admm_direct", Algorithm::Admm, KktBackend::Direct),
    ("admm_indirect", Algorithm::Admm, KktBackend::Indirect),
    ("pdqp", Algorithm::Pdqp, KktBackend::Direct),
];

/// Fewest timed solves in a run, so that p99 has ten samples beyond it.
const MIN_SOLVES: usize = 1_000;

/// One op in this many re-solves through a pooled solver.
const POOLED_EVERY: u64 = 25;

/// Slack on the recomputed residual tolerance (the solver's own check
/// runs on its internal vectors; this one recomputes them from the
/// problem data).
const RESIDUAL_SLACK: f64 = 2.0;

fn settings(algorithm: Algorithm, backend: KktBackend) -> Settings {
    Settings {
        algorithm,
        ..eval_settings(backend)
    }
}

/// Per-variant totals of one measurement window.
#[derive(Debug, Default, Clone, Copy)]
struct VariantTotals {
    ops: usize,
    setup_s: f64,
    solve_s: f64,
    iterations: usize,
    pcg_iters: usize,
    factor_count: usize,
    flops: f64,
}

/// What one measurement window produced.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    passes: usize,
    setup_per_pass_s: Vec<f64>,
    pass_total_s: Vec<f64>,
    solve_us: Vec<f64>,
    variants: BTreeMap<&'static str, VariantTotals>,
}

/// Recomputes the residuals of `r` from the problem data and checks them
/// against the solver's tolerance.
fn check_residuals(problem: &Problem, s: &Settings, r: &SolveResult) -> Result<(), String> {
    let ax = problem.a().mul_vec(&r.x);
    let px = problem.p().sym_upper_mul_vec(&r.x);
    let aty = problem.a().tr_mul_vec(&r.y);
    let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let prim = ax
        .iter()
        .zip(&r.z)
        .fold(0.0f64, |m, (a, z)| m.max((a - z).abs()));
    let dual = px
        .iter()
        .zip(problem.q())
        .zip(&aty)
        .fold(0.0f64, |m, ((p, q), a)| m.max((p + q + a).abs()));
    let eps_prim = s.eps_abs + s.eps_rel * inf(&ax).max(inf(&r.z));
    let eps_dual = s.eps_abs + s.eps_rel * inf(&px).max(inf(&aty)).max(inf(problem.q()));
    let in_bounds =
        r.z.iter()
            .zip(problem.l().iter().zip(problem.u()))
            .all(|(&z, (&l, &u))| {
                (l <= -INFTY || z >= l - eps_prim) && (u >= INFTY || z <= u + eps_prim)
            });
    if !(prim <= RESIDUAL_SLACK * eps_prim && dual <= RESIDUAL_SLACK * eps_dual && in_bounds) {
        return Err(format!(
            "residuals over tolerance: prim {prim:e} (eps {eps_prim:e}), dual {dual:e} (eps {eps_dual:e}), z in bounds: {in_bounds}"
        ));
    }
    Ok(())
}

fn bitwise_equal(a: &SolveResult, b: &SolveResult) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.status == b.status
        && a.iterations == b.iterations
        && a.obj_val.to_bits() == b.obj_val.to_bits()
        && same(&a.x, &b.x)
        && same(&a.y, &b.y)
}

/// Pooled ≡ fresh: `template` (a clone of the solver taken right after
/// setup) given the op's values through the parametric update path is
/// the fresh answer; `solver`, after serving other values first, must
/// reproduce it bitwise once it is given the op's values and `reset`.
fn pooled_matches_fresh(
    solver: &mut Solver,
    mut template: Solver,
    (q, l, u): (&[f64], &[f64], &[f64]),
    alt_rng: &mut StdRng,
) -> Result<(), String> {
    let upd = |s: &mut Solver, q: &[f64], l: &[f64], u: &[f64]| {
        s.update_q(q)
            .and_then(|()| s.update_bounds(l, u))
            .map_err(|e| format!("parametric update rejected: {e}"))
    };
    upd(&mut template, q, l, u)?;
    template.reset();
    let fresh = template.solve();
    let (q_alt, l_alt, u_alt) = revalue(solver.problem(), alt_rng);
    upd(solver, &q_alt, &l_alt, &u_alt)?;
    solver.solve();
    upd(solver, q, l, u)?;
    solver.reset();
    let pooled = solver.solve();
    if bitwise_equal(&pooled, &fresh) {
        Ok(())
    } else {
        Err(format!(
            "pooled re-solve differs from the fresh one (iters {} vs {}, obj {:e} vs {:e})",
            pooled.iterations, fresh.iterations, pooled.obj_val, fresh.obj_val
        ))
    }
}

/// Runs passes until `budget` is spent and [`MIN_SOLVES`] solves were
/// timed. Pass `p` always gets the same inputs for one seed.
fn measure(
    suite: &[BenchmarkInstance],
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Window {
    let mut w = Window::default();
    let started = Instant::now();
    let mut pass = 0u64;
    while started.elapsed() < budget || w.solve_us.len() < MIN_SOLVES {
        let pass_span = tracer.begin("bench.pass", pass);
        let mut order_rng = rng(seed, pass);
        let mut ops: Vec<(usize, usize)> = (0..suite.len())
            .flat_map(|i| (0..VARIANTS.len()).map(move |v| (i, v)))
            .collect();
        ops.shuffle(&mut order_rng);
        let (mut pass_setup, mut pass_total) = (0.0, 0.0);
        for (k, &(i, v)) in ops.iter().enumerate() {
            let op = pass * ops.len() as u64 + k as u64;
            let (name, algorithm, backend) = VARIANTS[v];
            let base = &suite[i].problem;
            let (q, l, u) = revalue(base, &mut rng(seed, 1 << 32 | (pass << 16) | i as u64));
            let problem = with_values(base, q.clone(), l.clone(), u.clone());
            let s = settings(algorithm, backend);

            let t0 = Instant::now();
            let solver = tracer.span("qp.setup", op, |_| Solver::new(problem, s.clone()));
            let t1 = Instant::now();
            let mut solver = match solver {
                Ok(solver) => solver,
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!(
                        "{}[{}] {name}: setup failed: {e}",
                        suite[i].domain, suite[i].index
                    ));
                    continue;
                }
            };
            let template = op.is_multiple_of(POOLED_EVERY).then(|| solver.clone());
            let t_solve = Instant::now();
            let result = tracer.span("qp.solve", op, |_| solver.solve());
            let t2 = Instant::now();

            out.attempted += 1;
            let checked = tracer.span("bench.check", op, |_| {
                if result.status != Status::Solved {
                    return Err(format!("status {}", result.status));
                }
                check_residuals(solver.problem(), &s, &result)?;
                if let Some(template) = template {
                    let values = (&q[..], &l[..], &u[..]);
                    pooled_matches_fresh(
                        &mut solver,
                        template,
                        values,
                        &mut rng(seed, 1 << 40 | op),
                    )?;
                }
                Ok(())
            });
            if let Err(e) = checked {
                out.fail(format!(
                    "{}[{}] {name} (pass {pass}): {e}",
                    suite[i].domain, suite[i].index
                ));
            }

            let (setup_s, solve_s) = ((t1 - t0).as_secs_f64(), (t2 - t_solve).as_secs_f64());
            pass_setup += setup_s;
            pass_total += setup_s + solve_s;
            w.solve_us.push(solve_s * 1e6);
            let t = w.variants.entry(name).or_default();
            t.ops += 1;
            t.setup_s += setup_s;
            t.solve_s += solve_s;
            t.iterations += result.iterations;
            t.pcg_iters += result.profile.pcg_iters;
            t.factor_count += result.profile.factor_count;
            t.flops += result.profile.ops.total();
        }
        tracer.end(pass_span);
        w.setup_per_pass_s.push(pass_setup);
        w.pass_total_s.push(pass_total);
        pass += 1;
    }
    w.passes = pass as usize;
    w.wall_s = started.elapsed().as_secs_f64();
    w
}

/// Times the sparse kernels the direct variant's setup and iterations
/// call, on each instance's KKT matrix, through `mib_sparse`'s public
/// functions.
fn sparse_replay(suite: &[BenchmarkInstance], tracer: &mut Tracer, out: &mut Outcome) {
    let s = eval_settings(KktBackend::Direct);
    let (mut kkt_nnz, mut l_nnz, mut flops) = (0usize, 0usize, 0u64);
    let (mut spmv_bytes, mut spmv_runs) = (0.0f64, 0usize);
    for (i, inst) in suite.iter().enumerate() {
        let req = i as u64;
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
        let kkt = KktMatrix::assemble(p.p(), p.a(), s.sigma, &rho).expect("KKT assembles");
        let m = kkt.matrix();
        let perm = tracer.span("sparse.order", req, |_| {
            order::compute(m, Ordering::MinDegree)
        });
        let perm = perm.expect("ordering succeeds");
        let (permuted, symbolic) = tracer.span("sparse.symbolic", req, |_| {
            let permuted = perm.sym_perm_upper(m).expect("permutation applies");
            let symbolic = LdlSymbolic::new(&permuted).expect("symbolic analysis succeeds");
            (permuted, symbolic)
        });
        let mut factor = tracer
            .span("sparse.factor", req, |_| symbolic.factor(&permuted))
            .expect("KKT factors");
        tracer
            .span("sparse.refactor", req, |_| {
                symbolic.refactor(&permuted, &mut factor)
            })
            .expect("KKT refactors");
        kkt_nnz += m.nnz();
        l_nnz += symbolic.l_nnz();
        flops += factor.flops();
        let mut rhs: Vec<f64> = (0..m.ncols()).map(|k| 1.0 + (k % 7) as f64).collect();
        for _ in 0..8 {
            tracer.span("sparse.ldl_solve", req, |_| factor.solve_in_place(&mut rhs));
        }
        let a = p.a();
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        const SPMV_REPS: usize = 32;
        tracer.span("sparse.spmv", req, |_| {
            for _ in 0..SPMV_REPS {
                a.spmv_into(std::hint::black_box(&x), &mut y);
            }
        });
        std::hint::black_box(&y);
        // Computed bytes: values and row indices once per nonzero, the
        // column pointers, one read of x and one write of y.
        spmv_bytes += (SPMV_REPS
            * (a.nnz() * 16 + (a.ncols() + 1) * 8 + a.ncols() * 8 + a.nrows() * 8))
            as f64;
        spmv_runs += 1;
    }
    let mean_us = |name: &str| {
        let d = tracer.durations(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64 * 1e6
    };
    let total_s = |name: &str| tracer.durations(name).iter().sum::<f64>();
    out.set("sparse.order_us", mean_us("sparse.order"));
    out.set("sparse.symbolic_us", mean_us("sparse.symbolic"));
    out.set("sparse.factor_us", mean_us("sparse.factor"));
    out.set("sparse.refactor_us", mean_us("sparse.refactor"));
    out.set("sparse.ldl_solve_us", mean_us("sparse.ldl_solve"));
    out.set(
        "sparse.factor_mflops",
        flops as f64 / total_s("sparse.factor").max(1e-12) / 1e6,
    );
    out.set("sparse.fill_ratio", l_nnz as f64 / kkt_nnz.max(1) as f64);
    out.set(
        "sparse.spmv_gbps",
        spmv_bytes / total_s("sparse.spmv").max(1e-12) / 1e9,
    );
    out.note(
        "sparse.replay",
        format!("{spmv_runs} KKT matrices, MinDegree ordering"),
    );
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let suite = full_suite();
    let budget = cfg.budget();
    let plain_budget = if cfg.trace { budget / 2 } else { budget };
    let plain = measure(
        &suite,
        cfg.seed,
        plain_budget,
        &mut Tracer::new(false),
        &mut out,
    );

    out.set("setup_s", median(&plain.setup_per_pass_s));
    let solves = Summary::of(&plain.solve_us).expect("at least one solve");
    out.set("op_p50_us", solves.p50);
    out.set("op_p99_us", solves.tail);
    out.note_summary("solve_us", &solves);
    out.note(
        "reps",
        format!("{} passes of 300 cold solves", plain.passes),
    );
    out.note("setup_s.per_pass", format!("{:?}", plain.setup_per_pass_s));
    for (name, t) in &plain.variants {
        out.note(
            &format!("variant.{name}"),
            format!(
                "ops={} setup_s={:.4} solve_s={:.4} iterations={}",
                t.ops, t.setup_s, t.solve_s, t.iterations
            ),
        );
    }

    if cfg.trace {
        let mut tracer = Tracer::new(true);
        let traced = measure(
            &suite,
            cfg.seed,
            budget - plain_budget,
            &mut tracer,
            &mut out,
        );
        let passes = plain.passes.min(traced.passes);
        let per_pass = |w: &Window| w.pass_total_s[..passes].iter().sum::<f64>();
        out.set(
            "trace.overhead_pct",
            100.0 * (per_pass(&traced) / per_pass(&plain).max(1e-12) - 1.0),
        );
        out.set_trace_shares(&tracer, traced.wall_s);
        for (name, t) in &traced.variants {
            let ops = t.ops.max(1) as f64;
            out.set(&format!("qp.setup_us.{name}"), t.setup_s / ops * 1e6);
            out.set(&format!("qp.iterations.{name}"), t.iterations as f64 / ops);
            out.set(
                &format!("qp.iter_us.{name}"),
                t.solve_s / t.iterations.max(1) as f64 * 1e6,
            );
        }
        let all = traced
            .variants
            .values()
            .fold(VariantTotals::default(), |a, t| VariantTotals {
                ops: a.ops + t.ops,
                solve_s: a.solve_s + t.solve_s,
                pcg_iters: a.pcg_iters + t.pcg_iters,
                factor_count: a.factor_count + t.factor_count,
                flops: a.flops + t.flops,
                ..a
            });
        let indirect = traced
            .variants
            .get("admm_indirect")
            .copied()
            .unwrap_or_default();
        let direct = traced
            .variants
            .get("admm_direct")
            .copied()
            .unwrap_or_default();
        out.set(
            "qp.pcg_iters",
            indirect.pcg_iters as f64 / indirect.ops.max(1) as f64,
        );
        out.set(
            "qp.factor_count",
            direct.factor_count as f64 / direct.ops.max(1) as f64,
        );
        out.set("qp.gflops", all.flops / all.solve_s.max(1e-12) / 1e9);
        sparse_replay(&suite, &mut tracer, &mut out);
        out.spans = Some(tracer.to_json_lines());
    }
    out
}
