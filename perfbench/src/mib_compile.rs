//! `mib-compile`: the paper's own path, compile once and re-solve many
//! times on the MIB machine at C=32.
//!
//! A rep builds a fresh [`ProgramCache`] and sets up every pattern of a
//! fixed slice of the suite ([`SLICE`] × both KKT variants): reference
//! solves of the pattern's seeded re-valued instances, a cold lowering
//! (a cache miss) and `certify_lowered`. That set-up is `setup_s`. Then
//! the re-valued instances stream round-robin through
//! `ProgramCache::lower_cached` hits (`op_*`: the host cost of each
//! parametric MIB solve) and a strict `Machine::run` of every program.
//!
//! Correctness: every program must be certified, every cache access
//! after the first per pattern must hit, and every simulated run must
//! have zero stalls and exactly the statically predicted cycles (the
//! certificate's for the cached programs, `mib_verify::timing::predict`
//! for the rebuilt load program).

use std::time::{Duration, Instant};

use mib_bench::{eval_settings, mib_solve_seconds};
use mib_compiler::lower::LoweredQp;
use mib_compiler::{certify_lowered, ProgramCache};
use mib_core::hbm::HbmStream;
use mib_core::machine::{HazardPolicy, Machine};
use mib_core::stats::ExecStats;
use mib_core::MibConfig;
use mib_problems::{instance, Domain};
use mib_qp::{KktBackend, Problem, Settings, Solver, Status};
use mib_verify::timing;

use crate::inputs::{revalue, rng, with_values};
use crate::stats::{geomean, median, Summary};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Suite indices compiled in every domain.
const SLICE: [usize; 3] = [0, 2, 4];

/// Re-valued instances per pattern.
const ITEMS_PER_PATTERN: usize = 4;

/// Set-ups per run (`setup_s` is their median).
const REPS: u32 = 3;

/// Fewest timed re-lowerings in a run, so that p99 has ten samples
/// beyond it.
const MIN_ITEMS: usize = 1_000;

const PROGRAMS: [&str; 5] = ["load", "setup", "iteration", "pcg", "check"];

fn programs(l: &LoweredQp) -> [&mib_compiler::Schedule; 5] {
    [&l.load, &l.setup, &l.iteration, &l.pcg_iteration, &l.check]
}

/// One compiled pattern and its stream of re-valued instances.
struct Pattern {
    name: String,
    settings: Settings,
    items: Vec<Problem>,
    /// Certified predicted cycles per program (`None` for empty ones).
    certified: [Option<u64>; 5],
}

/// Totals of one measurement window.
#[derive(Debug, Default)]
struct Window {
    setup_s: Vec<f64>,
    lower_ms: Vec<f64>,
    certify_ms: Vec<f64>,
    relower_us: Vec<f64>,
    item_s: Vec<f64>,
    run_s: f64,
    sim: ExecStats,
    agree: usize,
    compared: usize,
    mib_solve_us: Vec<f64>,
    logical: usize,
    slots: usize,
    forced_appends: usize,
    cycles: [u64; 5],
    patterns: usize,
    hits: u64,
    misses: u64,
    resident_bytes: usize,
    stream_wall_s: f64,
}

/// Seeded re-valued instances of the slice, in pattern order.
fn slice(seed: u64) -> Vec<(String, Settings, Vec<Problem>)> {
    let mut out = Vec::new();
    for domain in Domain::all() {
        for index in SLICE {
            let base = instance(domain, index).problem;
            for backend in [KktBackend::Direct, KktBackend::Indirect] {
                let stream = (domain as u64) << 20 | (index as u64) << 8 | backend as u64;
                let mut r = rng(seed, stream);
                let items = (0..ITEMS_PER_PATTERN)
                    .map(|_| {
                        let (q, l, u) = revalue(&base, &mut r);
                        with_values(&base, q, l, u)
                    })
                    .collect();
                out.push((
                    format!("{domain}[{index}] {}", backend.name()),
                    eval_settings(backend),
                    items,
                ));
            }
        }
    }
    out
}

/// Sets up every pattern: reference solves, cold lowering, certification.
fn set_up(
    inputs: &[(String, Settings, Vec<Problem>)],
    cache: &mut ProgramCache,
    config: MibConfig,
    tracer: &mut Tracer,
    w: &mut Window,
    out: &mut Outcome,
) -> Vec<Pattern> {
    let mut patterns = Vec::new();
    for (p, (name, settings, items)) in inputs.iter().enumerate() {
        let req = p as u64;
        let mut references = Vec::new();
        for item in items {
            let result = tracer.span("qp.reference", req, |_| {
                Solver::new(item.clone(), settings.clone()).map(|mut s| s.solve())
            });
            match result {
                Ok(r) if r.status == Status::Solved => references.push(r),
                Ok(r) => out.fail(format!("{name}: reference solve ended {}", r.status)),
                Err(e) => out.fail(format!("{name}: reference setup failed: {e}")),
            }
        }
        let t0 = Instant::now();
        let lowered = tracer.span("compiler.lower", req, |_| {
            cache.lower_cached(&items[0], settings, config)
        });
        let t1 = Instant::now();
        let lowered = match lowered {
            Ok(l) => l,
            Err(e) => {
                out.fail(format!("{name}: lowering failed: {e}"));
                continue;
            }
        };
        let cert = tracer.span("verify.certify", req, |_| certify_lowered(&lowered));
        let t2 = Instant::now();
        w.lower_ms.push((t1 - t0).as_secs_f64() * 1e3);
        w.certify_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if !cert.is_certified() {
            out.fail(format!("{name}: certification failed:\n{cert}"));
        }
        let mut certified = [None; 5];
        let mut certs = cert.certificates.iter();
        for (k, s) in programs(&lowered).into_iter().enumerate() {
            w.cycles[k] += match k {
                0 => lowered.load_cycles(),
                1 => lowered.setup_cycles(),
                2 => lowered.iteration_cycles(),
                3 => lowered.pcg_cycles(),
                _ => lowered.check_cycles(),
            };
            if !s.program.is_empty() {
                w.logical += s.logical_count;
                w.slots += s.slots();
                w.forced_appends += s.forced_appends;
                certified[k] = certs.next().and_then(|c| c.predicted_cycles);
            }
        }
        for r in &references {
            w.mib_solve_us
                .push(mib_solve_seconds(&lowered, settings, r) * 1e6);
        }
        w.patterns += 1;
        patterns.push(Pattern {
            name: name.clone(),
            settings: settings.clone(),
            items: items.clone(),
            certified,
        });
    }
    patterns
}

/// Re-lowers one item (a cache hit) and runs its programs on the machine.
fn stream_item(
    pattern: &Pattern,
    item: &Problem,
    req: u64,
    cache: &mut ProgramCache,
    machine: &mut Machine,
    tracer: &mut Tracer,
    w: &mut Window,
) -> Result<(), String> {
    let config = *machine.config();
    let hits_before = cache.hits();
    let t0 = Instant::now();
    let lowered = tracer.span("compiler.relower", req, |_| {
        cache.lower_cached(item, &pattern.settings, config)
    });
    w.relower_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let lowered = lowered.map_err(|e| format!("re-lowering failed: {e}"))?;
    if cache.hits() != hits_before + 1 {
        return Err("re-lowering missed the program cache".into());
    }
    let load_predicted = tracer.span("verify.predict", req, |_| {
        timing::predict(
            &lowered.load.program,
            lowered.load.hbm.len(),
            &config,
            HazardPolicy::Strict,
        )
    });
    let mut predicted = pattern.certified;
    predicted[0] = Some(
        load_predicted
            .map_err(|e| format!("load prediction failed: {e}"))?
            .cycles(),
    );
    let streams: Vec<HbmStream> = programs(&lowered)
        .iter()
        .map(|s| HbmStream::new(s.hbm.clone()))
        .collect();
    machine.reset();
    let t1 = Instant::now();
    let runs = tracer.span("core.run", req, |_| {
        programs(&lowered)
            .into_iter()
            .zip(streams)
            .filter(|(s, _)| !s.program.is_empty())
            .map(|(s, mut hbm)| machine.run(&s.program, &mut hbm, HazardPolicy::Strict))
            .collect::<Vec<_>>()
    });
    w.run_s += t1.elapsed().as_secs_f64();
    let kinds = programs(&lowered)
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.program.is_empty())
        .map(|(k, _)| k);
    let mut problems = Vec::new();
    for (k, run) in kinds.zip(runs) {
        let stats =
            run.map_err(|e| format!("{} program rejected by the machine: {e}", PROGRAMS[k]))?;
        w.sim.merge(&stats);
        w.compared += 1;
        if predicted[k] == Some(stats.cycles) {
            w.agree += 1;
        } else {
            problems.push(format!(
                "{}: simulated {} cycles, predicted {:?}",
                PROGRAMS[k], stats.cycles, predicted[k]
            ));
        }
        if stats.stall_cycles != 0 {
            problems.push(format!(
                "{}: {} stall cycles",
                PROGRAMS[k], stats.stall_cycles
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Runs `reps` set-up + stream reps within `budget`.
fn measure(
    inputs: &[(String, Settings, Vec<Problem>)],
    seed: u64,
    budget: Duration,
    reps: u32,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Window {
    let config = MibConfig::c32();
    let mut w = Window::default();
    let mut machine = Machine::new(config);
    let started = Instant::now();
    let mut item_no = 0u64;
    for rep in 0..reps {
        let rep_span = tracer.begin("bench.rep", u64::from(rep));
        let mut cache = ProgramCache::new();
        let t0 = Instant::now();
        let patterns = tracer.span("bench.setup", u64::from(rep), |t| {
            set_up(inputs, &mut cache, config, t, &mut w, out)
        });
        w.setup_s.push(t0.elapsed().as_secs_f64());
        // The stream of this rep: seeded round-robin over patterns and
        // their items, until the rep's share of the budget is spent.
        let rep_end = budget.mul_f64(f64::from(rep + 1) / f64::from(reps));
        let min_items = MIN_ITEMS * (rep as usize + 1) / reps as usize;
        let stream_start = Instant::now();
        let mut order = rng(seed, 1 << 48 | u64::from(rep));
        while started.elapsed() < rep_end || w.relower_us.len() < min_items {
            let p = &patterns[rand::Rng::gen_range(&mut order, 0..patterns.len())];
            let item = &p.items[rand::Rng::gen_range(&mut order, 0..p.items.len())];
            let t = Instant::now();
            out.attempted += 1;
            let result = tracer.span("bench.item", item_no, |t| {
                stream_item(p, item, item_no, &mut cache, &mut machine, t, &mut w)
            });
            if let Err(e) = result {
                out.fail(format!("{} (item {item_no}): {e}", p.name));
            }
            w.item_s.push(t.elapsed().as_secs_f64());
            item_no += 1;
        }
        w.stream_wall_s += stream_start.elapsed().as_secs_f64();
        let stats = cache.stats();
        w.hits += stats.hits;
        w.misses += stats.misses;
        w.resident_bytes = w.resident_bytes.max(stats.resident_bytes);
        tracer.end(rep_span);
    }
    w
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let inputs = slice(cfg.seed);
    let budget = cfg.budget();
    let (plain_budget, plain_reps) = if cfg.trace {
        (budget / 2, 1)
    } else {
        (budget, REPS)
    };
    let plain = measure(
        &inputs,
        cfg.seed,
        plain_budget,
        plain_reps,
        &mut Tracer::new(false),
        &mut out,
    );

    out.set("setup_s", median(&plain.setup_s));
    let item_us: Vec<f64> = plain.item_s.iter().map(|s| s * 1e6).collect();
    let items = Summary::of(&item_us).expect("at least one item");
    out.set("op_p50_us", items.p50);
    out.set("op_p99_us", items.tail);
    out.note_summary("item_us", &items);
    out.note_summary(
        "relower_us",
        &Summary::of(&plain.relower_us).expect("at least one item"),
    );
    out.note(
        "items_per_s",
        plain.item_s.len() as f64 / plain.stream_wall_s.max(1e-12),
    );
    out.note(
        "reps",
        format!(
            "{} set-ups of {} patterns, {} stream items",
            plain.setup_s.len(),
            inputs.len(),
            plain.item_s.len()
        ),
    );
    out.note("setup_s.per_rep", format!("{:?}", plain.setup_s));
    out.note(
        "sim_mcycles_per_s",
        plain.sim.cycles as f64 / plain.run_s.max(1e-12) / 1e6,
    );
    out.note("mib_solve_us.geomean", geomean(&plain.mib_solve_us));

    if cfg.trace {
        let mut tracer = Tracer::new(true);
        let start = Instant::now();
        let traced = measure(
            &inputs,
            cfg.seed,
            budget - plain_budget,
            REPS - 1,
            &mut tracer,
            &mut out,
        );
        let wall = start.elapsed().as_secs_f64();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.set(
            "trace.overhead_pct",
            100.0 * (mean(&traced.item_s) / mean(&plain.item_s).max(1e-12) - 1.0),
        );
        out.set_trace_shares(&tracer, wall);
        out.set("compiler.relower_us.p50", median(&traced.relower_us));
        let lower = Summary::of(&traced.lower_ms).expect("at least one pattern");
        out.set("compiler.lower_ms.p50", lower.p50);
        out.set(
            "compiler.lower_ms.max",
            traced.lower_ms.iter().copied().fold(0.0, f64::max),
        );
        out.set(
            "compiler.cache_hit_ratio",
            traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
        );
        out.set(
            "compiler.cache_resident_mb",
            traced.resident_bytes as f64 / 1048576.0,
        );
        out.set(
            "compiler.pack_ratio",
            traced.logical as f64 / traced.slots.max(1) as f64,
        );
        out.set("compiler.forced_appends", traced.forced_appends as f64);
        for (k, name) in PROGRAMS.iter().enumerate() {
            out.set(
                &format!("compiler.cycles.{name}"),
                traced.cycles[k] as f64 / traced.patterns.max(1) as f64,
            );
        }
        out.set("compiler.mib_solve_us", geomean(&traced.mib_solve_us));
        out.set("verify.certify_ms", mean(&traced.certify_ms));
        out.set(
            "verify.agree",
            traced.agree as f64 / traced.compared.max(1) as f64,
        );
        out.set(
            "core.run_us",
            traced.run_s / traced.item_s.len().max(1) as f64 * 1e6,
        );
        out.set(
            "core.ns_per_cycle",
            traced.run_s / traced.sim.cycles.max(1) as f64 * 1e9,
        );
        out.set(
            "core.sim_mcycles_per_s",
            traced.sim.cycles as f64 / traced.run_s.max(1e-12) / 1e6,
        );
        out.set(
            "core.utilization",
            traced.sim.utilization(MibConfig::c32().total_nodes()),
        );
        out.set("core.stall_cycles", traced.sim.stall_cycles as f64);
        out.spans = Some(tracer.to_json_lines());
    }
    out
}
