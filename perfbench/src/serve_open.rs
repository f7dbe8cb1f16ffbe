//! `serve-open`: an open loop over real TCP against the deployed serving
//! stack (`QpServer` behind `NetServer`, observability plane and admin
//! listener on).
//!
//! One generator thread drives one `NetClient` connection on a fixed
//! schedule: request `k` of a step at rate `r` is due `k / r` seconds
//! after the step starts, whether or not earlier requests were
//! answered. Latency runs from a request's due time to its decoded
//! reply, so a stall also delays every request queued behind it. The
//! request mix is the load generator's: 10 direct tenants on instances
//! 0–1 of each domain and 5 routed ADMM/PDQP portfolio endpoints on
//! instance 2, every request a seeded `q`/bounds perturbation, some warm
//! started. There are no deadlines and no cancels, so anything but a
//! `Solved` reply is a failure, and a shed is a failure too: it is not
//! retried.
//!
//! Steps: the untraced run offers [`HEAVY_RPS`] for the whole budget
//! and reports its latency as `op_*`. The traced run offers
//! [`LIGHT_RPS`], then [`HEAVY_RPS`], then the [`LADDER_RPS`] rates until
//! one is invalid or over the latency objective, for `max_rate_rps`. A
//! step is valid when the generator kept to its schedule (lag p99 within
//! [`MAX_GEN_LAG_US`]) and the requests in flight when the last one was
//! sent do not exceed what [`SLO_US`] of arrivals would leave. An invalid
//! step is reported as such, never as a rate that was met.
//!
//! On a shared virtual machine the hypervisor can take the CPUs away
//! for milliseconds at a time (steal time), which moves open-loop
//! latency far more than a change to the stack does. Latency is therefore
//! summarised per two-second window ([`WINDOW_S`]), each window tagged
//! with the host's steal during it: `op_p50_us` is the median of the
//! window p50s over the windows with at most [`MAX_WINDOW_STEAL_PCT`]
//! steal, and `op_p99_us` is the lower quartile of the window p99s (the
//! p99 that a quarter of the windows meet): a window's p99 is set by the
//! few host stalls that fall in it, and the lower quartile moves less
//! between runs than the single best window. The whole step's p50, p99
//! and p99.9, the clean windows' median p99 and the step's steal are in
//! the report.
//!
//! Server series are per step: the `QpServer::metrics()` counters and
//! histogram sums are snapshotted before and after each step and
//! subtracted ([`ServerSnapshot`]).
//!
//! Correctness: a deterministic sample of `Solved` replies is re-solved
//! directly and must match bitwise (a routed reply may match either
//! backend).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mib_net::frame::{self, Frame, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use mib_net::{
    ClientEvent, EndpointSpec, EndpointTarget, NetClient, NetConfig, NetServer, ReplyCode,
    ShedReason, TenantAuth, WireReply,
};
use mib_problems::{instance, Domain};
use mib_qp::{Algorithm, Problem, Settings, SolveResult, Solver, Status};
use mib_serve::{
    Metrics, ObsConfig, PortfolioId, QpServer, Request, ServeConfig, TenantId, TenantPolicy,
};
use rand::Rng;

use crate::inputs::rng;
use crate::stats::{median, percentile, Summary};
use crate::trace::{Tracer, NONE};
use crate::{Outcome, RunConfig};

const DOMAINS: [Domain; 5] = [
    Domain::Portfolio,
    Domain::Lasso,
    Domain::Huber,
    Domain::Mpc,
    Domain::Svm,
];
const TENANTS_PER_DOMAIN: usize = 2;
/// Direct endpoints `0..10`, routed endpoints `10..15`.
const DIRECT_ENDPOINTS: usize = DOMAINS.len() * TENANTS_PER_DOMAIN;
const ROUTED_ENDPOINTS: usize = DOMAINS.len();
/// Every `ROUTED_EVERY`-th request goes to a routed portfolio endpoint.
const ROUTED_EVERY: u64 = 8;
const TOKEN: &[u8] = b"perfbench-open-loop";

/// The light step's offered rate, requests per second.
pub const LIGHT_RPS: f64 = 400.0;
/// The heavy step's offered rate, requests per second: enough load that
/// micro-batching and queue wait show, low enough that the tail follows
/// the stack rather than amplifying every slowdown of a shared host.
pub const HEAVY_RPS: f64 = 1_000.0;
/// Rates tried for `max_rate_rps`, lowest first.
pub const LADDER_RPS: [f64; 4] = [2_000.0, 2_800.0, 3_600.0, 4_400.0];
/// Latency percentiles are taken per window of this many seconds of
/// due times (at least [`WINDOW_MIN`] requests), so one scheduling
/// hiccup of the host moves one window, not the step. Two seconds at the
/// heavy rate leave 20 samples beyond each window's p99.
const WINDOW_S: f64 = 2.0;
/// Fewest requests in a latency window: p99 needs ten beyond it.
const WINDOW_MIN: usize = 1_000;
/// A window in which the hypervisor stole more than this share of the
/// machine's CPU time measured the host, not the stack, and is left out
/// of the reported latency.
const MAX_WINDOW_STEAL_PCT: f64 = 1.0;
/// Fewest windows a latency figure is taken over (the least-stolen ones
/// when fewer are clean).
const MIN_CLEAN_WINDOWS: usize = 3;
/// The latency objective: `ObsConfig::slo_latency_us`'s default.
pub const SLO_US: f64 = 10_000.0;
/// Largest generator lag p99 of a valid step: half the objective. A
/// timer that wakes a few milliseconds late now and then is charged to
/// latency (it runs from the due time) but does not make the step
/// invalid; a generator that keeps falling behind does.
pub const MAX_GEN_LAG_US: f64 = SLO_US / 2.0;
/// Largest failed fraction of a step that can set `max_rate_rps`.
const MAX_FAILED_FRAC: f64 = 0.001;
/// How long a step waits for its last replies.
const DRAIN: Duration = Duration::from_secs(5);
/// One request in this many has its `Solved` reply verified bitwise.
const SAMPLE_EVERY: u64 = 50;
/// Server boots per run (`setup_s` is their median).
const BOOTS: usize = 15;

/// One generated request.
struct GenRequest {
    endpoint: u32,
    q: Option<Vec<f64>>,
    bounds: Option<(Vec<f64>, Vec<f64>)>,
    warm_start: Option<(Vec<f64>, Vec<f64>)>,
}

/// The client-side problems and reference solvers.
struct Mix {
    problems: Vec<Problem>,
    templates: Vec<Solver>,
    warm_points: Vec<(Vec<f64>, Vec<f64>)>,
    routed_problems: Vec<Problem>,
    /// Indexed `[portfolio][Algorithm::index()]`.
    routed_templates: Vec<[Solver; 2]>,
}

fn portfolio_settings(algorithm: Algorithm) -> Settings {
    let mut s = Settings::with_algorithm(algorithm);
    s.eps_abs = 1e-5;
    s.eps_rel = 1e-5;
    s.max_iter = match algorithm {
        Algorithm::Admm => 50_000,
        Algorithm::Pdqp => 2_000_000,
    };
    s
}

fn perturbed(problem: &Problem, rng: &mut impl Rng) -> Vec<f64> {
    problem
        .q()
        .iter()
        .map(|&qi| qi + 0.05 * (rng.gen::<f64>() - 0.5))
        .collect()
}

fn raised_bounds(problem: &Problem, rng: &mut impl Rng) -> (Vec<f64>, Vec<f64>) {
    let mut u = problem.u().to_vec();
    for ui in &mut u {
        if ui.is_finite() {
            *ui += 0.1 * rng.gen::<f64>();
        }
    }
    (problem.l().to_vec(), u)
}

/// Request `i` of seed `seed`: the same on every call, so a sampled
/// reply can be re-derived and verified after the run.
fn generate(seed: u64, i: u64, mix: &Mix) -> GenRequest {
    let mut r = rng(seed, i);
    if i % ROUTED_EVERY == ROUTED_EVERY - 1 {
        let p = r.gen_range(0..ROUTED_ENDPOINTS);
        let problem = &mix.routed_problems[p];
        let q = perturbed(problem, &mut r);
        let bounds = (r.gen::<f64>() < 0.3).then(|| raised_bounds(problem, &mut r));
        return GenRequest {
            endpoint: (DIRECT_ENDPOINTS + p) as u32,
            q: Some(q),
            bounds,
            warm_start: None,
        };
    }
    let t = r.gen_range(0..DIRECT_ENDPOINTS);
    let problem = &mix.problems[t];
    let q = (r.gen::<f64>() < 0.8).then(|| perturbed(problem, &mut r));
    let bounds = (r.gen::<f64>() < 0.3).then(|| raised_bounds(problem, &mut r));
    let warm_start = (r.gen::<f64>() < 0.1).then(|| mix.warm_points[t].clone());
    GenRequest {
        endpoint: t as u32,
        q,
        bounds,
        warm_start,
    }
}

fn build_mix() -> Mix {
    let mut problems = Vec::new();
    let mut templates = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let problem = instance(domain, index).problem;
            templates
                .push(Solver::new(problem.clone(), Settings::default()).expect("tenant template"));
            problems.push(problem);
        }
    }
    let mut routed_problems = Vec::new();
    let mut routed_templates = Vec::new();
    for domain in DOMAINS {
        let problem = instance(domain, TENANTS_PER_DOMAIN).problem;
        routed_templates.push([
            Solver::new(problem.clone(), portfolio_settings(Algorithm::Admm))
                .expect("admm template"),
            Solver::new(problem.clone(), portfolio_settings(Algorithm::Pdqp))
                .expect("pdqp template"),
        ]);
        routed_problems.push(problem);
    }
    let warm_points = templates
        .iter()
        .map(|t| {
            let r = t.clone().solve();
            (r.x, r.y)
        })
        .collect();
    Mix {
        problems,
        templates,
        warm_points,
        routed_problems,
        routed_templates,
    }
}

/// Applies a request to a warm solver and solves it.
fn solve_direct(solver: &mut Solver, problem: &Problem, g: &GenRequest) -> SolveResult {
    let q = g.q.clone().unwrap_or_else(|| problem.q().to_vec());
    let (l, u) = g
        .bounds
        .clone()
        .unwrap_or_else(|| (problem.l().to_vec(), problem.u().to_vec()));
    solver.update_q(&q).expect("generated q is valid");
    solver
        .update_bounds(&l, &u)
        .expect("generated bounds are valid");
    solver.reset();
    if let Some((x, y)) = &g.warm_start {
        solver.warm_start(x, y);
    }
    solver.solve()
}

/// Bitwise check of one sampled `Solved` reply against direct solves.
fn verify_sample(seed: u64, i: u64, reply: &WireReply, mix: &Mix) -> Result<(), String> {
    let g = generate(seed, i, mix);
    let endpoint = g.endpoint as usize;
    let matches = |r: &SolveResult| {
        r.status == Status::Solved
            && r.iterations == reply.iterations as usize
            && r.obj_val.to_bits() == reply.obj_val.to_bits()
            && r.x.len() == reply.x.len()
            && r.x
                .iter()
                .zip(&reply.x)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && r.y.len() == reply.y.len()
            && r.y
                .iter()
                .zip(&reply.y)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let ok = if endpoint < DIRECT_ENDPOINTS {
        matches(&solve_direct(
            &mut mix.templates[endpoint].clone(),
            &mix.problems[endpoint],
            &g,
        ))
    } else {
        let p = endpoint - DIRECT_ENDPOINTS;
        mix.routed_templates[p]
            .iter()
            .any(|t| matches(&solve_direct(&mut t.clone(), &mix.routed_problems[p], &g)))
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "request {i} (endpoint {endpoint}): wire answer differs from the direct solve"
        ))
    }
}

/// The serving stack of one boot.
struct Stack {
    net: NetServer,
    qp: Arc<QpServer>,
    tenants: Vec<TenantId>,
    portfolios: Vec<PortfolioId>,
}

/// Boots the server, registers every endpoint and binds the listeners.
fn boot() -> Stack {
    let config = ServeConfig {
        queue_capacity: 32,
        max_shards: 24,
        obs: ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        },
        ..ServeConfig::default()
    };
    let qp = Arc::new(QpServer::new(config));
    // An obs-enabled server opts the process into per-iteration kernel
    // spans; they inflate small solves 1.5-1.8x, so they stay off.
    mib_trace::disable_kernel_spans();
    let mut endpoints = Vec::new();
    let mut tenants = Vec::new();
    for domain in DOMAINS {
        for index in 0..TENANTS_PER_DOMAIN {
            let problem = instance(domain, index).problem;
            let (n, m) = (problem.num_vars(), problem.num_constraints());
            let id = qp
                .register(problem, Settings::default())
                .expect("tenant registration");
            tenants.push(id);
            endpoints.push(EndpointSpec {
                target: EndpointTarget::Tenant(id),
                name: format!("{domain:?}[{index}]"),
                num_vars: n,
                num_constraints: m,
            });
        }
    }
    let mut portfolios = Vec::new();
    for domain in DOMAINS {
        let problem = instance(domain, TENANTS_PER_DOMAIN).problem;
        let id = qp
            .register_portfolio(
                &problem,
                vec![
                    portfolio_settings(Algorithm::Admm),
                    portfolio_settings(Algorithm::Pdqp),
                ],
            )
            .expect("portfolio registration");
        portfolios.push(id);
        endpoints.push(EndpointSpec {
            target: EndpointTarget::Portfolio(id),
            name: format!("{domain:?}[{TENANTS_PER_DOMAIN}:routed]"),
            num_vars: problem.num_vars(),
            num_constraints: problem.num_constraints(),
        });
    }
    let auth = vec![TenantAuth {
        token: TOKEN.to_vec(),
        label: "perfbench".into(),
        policy: TenantPolicy::default(),
    }];
    let cfg = NetConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&qp), endpoints, auth, cfg)
        .expect("bind the serving front-end");
    Stack {
        net,
        qp,
        tenants,
        portfolios,
    }
}

impl Stack {
    fn shutdown(mut self) {
        self.net.shutdown();
        self.qp.shutdown();
    }
}

/// Names of the server series a step snapshots, in [`ServerSnapshot`]
/// order.
pub const SERIES: [&str; 29] = [
    "submitted",
    "completed",
    "solved",
    "expired",
    "failed",
    "admitted",
    "shed_rate_limited",
    "shed_over_share",
    "shed_queue_full",
    "warm_hits",
    "warm_builds",
    "shard_hits",
    "shard_misses",
    "batches",
    "batched_requests",
    "routed_portfolio",
    "net_frames_received",
    "net_frames_sent",
    "queue_wait_sum",
    "queue_wait_count",
    "service_sum",
    "service_count",
    "e2e_sum",
    "e2e_count",
    "batch_size_sum",
    "batch_size_count",
    "frame_bytes_sum",
    "solves_admm",
    "solves_pdqp",
];

/// Point-in-time values of the server series; subtract two snapshots
/// to get one step's own series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSnapshot(pub [u64; SERIES.len()]);

impl ServerSnapshot {
    /// Reads every series.
    pub fn take(m: &Metrics) -> Self {
        let c = &m.counters;
        let l = |a: &AtomicU64| a.load(Ordering::SeqCst);
        ServerSnapshot([
            l(&c.submitted),
            l(&c.completed),
            l(&c.solved),
            l(&c.expired),
            l(&c.failed),
            l(&c.admitted),
            l(&c.shed_rate_limited),
            l(&c.shed_over_share),
            l(&c.shed_queue_full),
            l(&c.warm_hits),
            l(&c.warm_builds),
            l(&c.shard_hits),
            l(&c.shard_misses),
            l(&c.batches),
            l(&c.batched_requests),
            l(&c.routed_portfolio),
            l(&c.net_frames_received),
            l(&c.net_frames_sent),
            m.queue_wait.sum(),
            m.queue_wait.count(),
            m.service.sum(),
            m.service.count(),
            m.e2e.sum(),
            m.e2e.count(),
            m.batch_size.sum(),
            m.batch_size.count(),
            m.net_frame_bytes.sum(),
            m.backend.solves(Algorithm::Admm),
            m.backend.solves(Algorithm::Pdqp),
        ])
    }

    /// `self - earlier`, series by series.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut d = [0; SERIES.len()];
        for (k, v) in d.iter_mut().enumerate() {
            *v = self.0[k].wrapping_sub(earlier.0[k]);
        }
        ServerSnapshot(d)
    }

    /// `self + other`, series by series.
    #[cfg(test)]
    pub fn plus(&self, other: &Self) -> Self {
        let mut d = [0; SERIES.len()];
        for (k, v) in d.iter_mut().enumerate() {
            *v = self.0[k].wrapping_add(other.0[k]);
        }
        ServerSnapshot(d)
    }

    /// One series by name.
    pub fn get(&self, name: &str) -> u64 {
        let k = SERIES
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("unknown server series {name}"));
        self.0[k]
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        self.get(num) as f64 / self.get(den).max(1) as f64
    }
}

/// A step's latency over its clean windows (see [`Step::windowed`]).
#[derive(Debug, Clone, Copy)]
struct Windowed {
    /// Median of the clean windows' p50s.
    p50: f64,
    /// Median of the clean windows' tails.
    tail: f64,
    /// Lower quartile (nearest rank) of the tails of all windows.
    low_tail: f64,
    /// Tail level (p99 for windows of at least [`WINDOW_MIN`] requests).
    tail_q: f64,
    /// Clean windows used.
    used: usize,
    /// All windows.
    windows: usize,
}

/// What one rate step measured.
#[derive(Debug)]
struct Step {
    name: String,
    rate: f64,
    attempted: u64,
    failed: u64,
    /// Latency of request `k` of the step (due order); NaN if it got no
    /// reply.
    latency_us: Vec<f64>,
    gen_lag_us: Vec<f64>,
    backlog: usize,
    server: ServerSnapshot,
    scrape_us: f64,
    sampled: Vec<(u64, WireReply)>,
    /// Host steal ticks at the start of each latency window.
    steal_marks: Vec<(u64, u64)>,
    /// Sum of client latencies, seconds (the step's traced e2e).
    latency_sum_s: f64,
}

impl Step {
    /// The whole step's latency.
    fn latency(&self) -> Summary {
        let answered: Vec<f64> = self
            .latency_us
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        Summary::of(&answered).unwrap_or(Summary {
            n: 0,
            p50: f64::MAX,
            tail_q: 0.0,
            tail: f64::MAX,
            mean: f64::MAX,
        })
    }

    /// Requests per latency window.
    fn window(&self) -> usize {
        ((self.rate * WINDOW_S) as usize).max(WINDOW_MIN)
    }

    /// Latency summaries of the step's windows, each with the share of
    /// CPU time the hypervisor stole from the benchmark's virtual machine
    /// during it, in percent.
    fn windows(&self) -> Vec<(f64, Summary)> {
        let marks = &self.steal_marks;
        self.latency_us
            .chunks_exact(self.window())
            .enumerate()
            .filter_map(|(k, w)| {
                let answered: Vec<f64> = w.iter().copied().filter(|v| v.is_finite()).collect();
                let steal = match (marks.get(k), marks.get(k + 1)) {
                    (Some(a), Some(b)) => {
                        100.0 * b.0.saturating_sub(a.0) as f64
                            / b.1.saturating_sub(a.1).max(1) as f64
                    }
                    _ => 0.0,
                };
                Summary::of(&answered).map(|s| (steal, s))
            })
            .collect()
    }

    /// Medians of the window p50s and tails over the windows the host
    /// left alone (steal at most [`MAX_WINDOW_STEAL_PCT`]; the
    /// [`MIN_CLEAN_WINDOWS`] least-stolen ones if fewer qualify), and the
    /// lower quartile of all window tails.
    fn windowed(&self) -> Windowed {
        let mut all = self.windows();
        if all.is_empty() {
            all.push((0.0, self.latency()));
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let clean = all
            .iter()
            .filter(|(steal, _)| *steal <= MAX_WINDOW_STEAL_PCT)
            .count()
            .max(MIN_CLEAN_WINDOWS)
            .min(all.len());
        let used = &all[..clean];
        let p50: Vec<f64> = used.iter().map(|(_, s)| s.p50).collect();
        let tail: Vec<f64> = used.iter().map(|(_, s)| s.tail).collect();
        Windowed {
            p50: median(&p50),
            tail: median(&tail),
            low_tail: {
                let mut tails: Vec<f64> = all.iter().map(|(_, s)| s.tail).collect();
                tails.sort_by(f64::total_cmp);
                percentile(&tails, 0.25)
            },
            tail_q: used.iter().map(|(_, s)| s.tail_q).fold(1.0, f64::min),
            used: clean,
            windows: all.len(),
        }
    }

    fn gen_lag_p99(&self) -> f64 {
        let mut v = self.gen_lag_us.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 0.99)
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Kept to the schedule and ended without a growing backlog.
    fn valid(&self) -> bool {
        self.gen_lag_p99() <= MAX_GEN_LAG_US
            && (self.backlog as f64) <= self.rate * SLO_US * 1e-6 + 16.0
    }

    /// The whole step's p99, when it has ten samples beyond it.
    fn p99(&self) -> Option<f64> {
        let mut answered: Vec<f64> = self
            .latency_us
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        answered.sort_by(f64::total_cmp);
        (crate::stats::tail_level(answered.len())? >= 0.99).then(|| percentile(&answered, 0.99))
    }

    /// Counts toward `max_rate_rps`: valid, at most [`MAX_FAILED_FRAC`]
    /// failed and p99 within [`SLO_US`].
    fn meets_objective(&self) -> bool {
        self.valid()
            && self.failed_frac() <= MAX_FAILED_FRAC
            && self.p99().is_some_and(|p| p <= SLO_US)
    }

    fn describe(&self) -> String {
        let s = self.latency();
        let w = self.windowed();
        format!(
            "rate={} attempted={} failed={} all: n={} p50={:.1} p{}={:.1}; {} of {} windows (steal <= {MAX_WINDOW_STEAL_PCT}%): median p50={:.1} median p{}={:.1}; lower-quartile window p{}={:.1}; gen_lag_p99={:.1} backlog={} valid={} meets_objective={}",
            self.rate,
            self.attempted,
            self.failed,
            s.n,
            s.p50,
            s.tail_q * 100.0,
            s.tail,
            w.used,
            w.windows,
            w.p50,
            w.tail_q * 100.0,
            w.tail,
            w.tail_q * 100.0,
            w.low_tail,
            self.gen_lag_p99(),
            self.backlog,
            self.valid(),
            self.meets_objective()
        )
    }
}

/// In-flight bookkeeping of one request.
struct InFlight {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// Runs one open-loop step of `duration` at `rate` over `client`.
#[allow(clippy::too_many_arguments)]
fn run_step(
    name: &str,
    client: &mut NetClient,
    stack: &Stack,
    mix: &Mix,
    seed: u64,
    first_id: u64,
    rate: f64,
    duration: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Step {
    let metrics = stack.qp.metrics();
    let before = ServerSnapshot::take(&metrics);
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut step = Step {
        name: name.to_string(),
        rate,
        attempted: 0,
        failed: 0,
        latency_us: vec![f64::NAN; total as usize],
        gen_lag_us: Vec::with_capacity(total as usize),
        backlog: 0,
        server: before,
        scrape_us: 0.0,
        sampled: Vec::new(),
        steal_marks: Vec::new(),
        latency_sum_s: 0.0,
    };
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    // Requests are generated ahead of their due time, so generation
    // never delays a send.
    let mut next = 0u64;
    let mut ready: Option<(u64, GenRequest)> = None;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |k: u64| start + period.mul_f64(k as f64);
    let mut drain_deadline = None;
    loop {
        if next < total && ready.is_none() {
            let id = first_id + next;
            ready = Some((id, generate(seed, id, mix)));
        }
        let now = Instant::now();
        if let Some((id, _)) = &ready {
            let id = *id;
            let d = due(next);
            if now >= d {
                let (_, g) = ready.take().expect("ready request");
                let submit_start = Instant::now();
                let sent = client.submit(id, g.endpoint, None, g.q, g.bounds, g.warm_start);
                let submit_end = Instant::now();
                if (next as usize).is_multiple_of(step.window()) {
                    step.steal_marks.push(crate::cpu_steal_ticks());
                }
                step.attempted += 1;
                step.gen_lag_us
                    .push(submit_start.saturating_duration_since(d).as_secs_f64() * 1e6);
                if let Err(e) = sent {
                    out.fail(format!("[{name}] submit {id} failed: {e}"));
                    step.failed += 1;
                    break;
                }
                inflight.insert(
                    id,
                    InFlight {
                        due: d,
                        submit_start,
                        submit_end,
                    },
                );
                next += 1;
                if next == total {
                    step.steal_marks.push(crate::cpu_steal_ticks());
                    step.backlog = inflight.len();
                    drain_deadline = Some(Instant::now() + DRAIN);
                }
                continue;
            }
        }
        if next == total && inflight.is_empty() {
            break;
        }
        if drain_deadline.is_some_and(|d| now >= d) {
            break;
        }
        let wait = if next < total {
            due(next).saturating_duration_since(now)
        } else {
            Duration::from_millis(5)
        };
        let event = if wait.is_zero() {
            client.events().try_recv().ok()
        } else {
            client.recv_timeout(wait)
        };
        let Some(event) = event else { continue };
        let received = Instant::now();
        match event {
            ClientEvent::Reply { request_id, reply } => {
                let Some(f) = inflight.remove(&request_id) else {
                    out.fail(format!("[{name}] reply for unknown request {request_id}"));
                    continue;
                };
                let lat = received.saturating_duration_since(f.due);
                step.latency_us[(request_id - first_id) as usize] = lat.as_secs_f64() * 1e6;
                step.latency_sum_s += lat.as_secs_f64();
                trace_request(tracer, request_id, &f, received, &reply);
                if reply.code == ReplyCode::Solved {
                    if request_id % SAMPLE_EVERY == 0 {
                        step.sampled.push((request_id, reply));
                    }
                } else {
                    step.failed += 1;
                    out.fail(format!(
                        "[{name}] request {request_id} answered {:?}: {}",
                        reply.code, reply.message
                    ));
                }
            }
            ClientEvent::Shed {
                request_id, reason, ..
            } => {
                inflight.remove(&request_id);
                step.failed += 1;
                let why = match reason {
                    ShedReason::RateLimited => "rate_limited",
                    ShedReason::OverShare => "over_share",
                    ShedReason::QueueFull => "queue_full",
                };
                out.fail(format!("[{name}] request {request_id} shed ({why})"));
            }
            ClientEvent::Error { code, message } => {
                out.fail(format!("[{name}] server error {code}: {message}"));
                break;
            }
            ClientEvent::Goodbye | ClientEvent::Disconnected => {
                out.fail(format!("[{name}] connection ended mid-step"));
                break;
            }
        }
    }
    if !inflight.is_empty() {
        let n = inflight.len() as u64;
        out.fail_many(n, format!("[{name}] {n} requests unanswered"));
        step.failed += n;
    }
    // Every reply was read, so the server's counters for this step are
    // final once its writer has flushed; scrape, then snapshot.
    let admin = stack.net.admin_addr().expect("admin listener is on");
    let t = Instant::now();
    let scrape_id = tracer.begin("obs.scrape", first_id);
    match mib_obs::http_get(admin, "/metrics") {
        Ok((200, _)) => {}
        Ok((status, _)) => out.fail(format!("[{name}] admin /metrics answered {status}")),
        Err(e) => out.fail(format!("[{name}] admin /metrics failed: {e}")),
    }
    tracer.end(scrape_id);
    step.scrape_us = t.elapsed().as_secs_f64() * 1e6;
    step.server = ServerSnapshot::take(&metrics).since(&before);
    step
}

/// Records one answered request's spans: the request (due → reply),
/// the generator's lag, the submit call, and the server's queue wait
/// and service as the reply reports them (placed after the submit
/// returned; the client cannot see where they fall exactly).
fn trace_request(tracer: &mut Tracer, id: u64, f: &InFlight, received: Instant, r: &WireReply) {
    let root = tracer.record("net.request", id, NONE, f.due, received);
    tracer.record("bench.gen_lag", id, root, f.due, f.submit_start);
    tracer.record("net.submit", id, root, f.submit_start, f.submit_end);
    let q_end = f.submit_end + Duration::from_micros(r.queue_wait_us);
    tracer.record("serve.queue_wait", id, root, f.submit_end, q_end);
    let s_end = q_end + Duration::from_micros(r.service_us);
    tracer.record("serve.service", id, root, q_end, s_end);
}

/// Runs `plan`'s fixed-rate steps (name, rate, share of `budget`) over
/// one connection, then, with `ladder`, the [`LADDER_RPS`] rates until
/// one misses the objective.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    stack: &Stack,
    mix: &Mix,
    seed: u64,
    budget: Duration,
    plan: &[(&str, f64, f64)],
    ladder: Option<f64>,
    first_id: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Step> {
    let addr = stack.net.local_addr();
    let mut client = NetClient::connect(addr, TOKEN).expect("connect the load client");
    let mut steps = Vec::new();
    let mut id = first_id;
    for &(name, rate, share) in plan {
        let len = budget.mul_f64(share);
        let s = run_step(
            name,
            &mut client,
            stack,
            mix,
            seed,
            id,
            rate,
            len,
            tracer,
            out,
        );
        id += s.attempted;
        steps.push(s);
    }
    if let Some(share) = ladder {
        let rung_len = budget.mul_f64(share / LADDER_RPS.len() as f64);
        for rate in LADDER_RPS {
            let s = run_step(
                &format!("ladder@{rate}"),
                &mut client,
                stack,
                mix,
                seed,
                id,
                rate,
                rung_len,
                tracer,
                out,
            );
            id += s.attempted;
            let stop = !s.meets_objective();
            steps.push(s);
            if stop {
                break;
            }
        }
    }
    if client.goodbye().is_ok() {
        loop {
            match client.recv_timeout(Duration::from_secs(10)) {
                Some(ClientEvent::Goodbye) => break,
                Some(ClientEvent::Disconnected) | None => {
                    out.fail("no Goodbye confirmation from the server".into());
                    break;
                }
                Some(_) => {}
            }
        }
    }
    steps
}

fn max_rate(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.name.starts_with("ladder") && s.meets_objective())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

/// Verifies the sampled replies of every step bitwise.
fn verify(steps: &[Step], seed: u64, mix: &Mix, out: &mut Outcome) -> usize {
    let mut verified = 0;
    for step in steps {
        for (i, reply) in &step.sampled {
            if let Err(e) = verify_sample(seed, *i, reply, mix) {
                out.fail(format!("[{}] {e}", step.name));
            }
            verified += 1;
        }
    }
    verified
}

/// Per-layer replays outside the wire steps: the warm re-solve alone
/// (`qp.resolve_us`), the in-process submit path (`serve.submit_us`)
/// and the frame codec (`net.*_ns`). Returns the in-process requests
/// attempted.
fn replays(
    stack: &Stack,
    mix: &Mix,
    seed: u64,
    light_ids: std::ops::Range<u64>,
    out: &mut Outcome,
) -> u64 {
    let ids: Vec<u64> = light_ids.take(400).collect();
    // Warm re-solves on clones of the reference templates.
    let mut direct: Vec<Solver> = mix.templates.clone();
    let mut routed: Vec<Solver> = mix.routed_templates.iter().map(|t| t[0].clone()).collect();
    let mut resolve_us = Vec::new();
    for &i in &ids {
        let g = generate(seed, i, mix);
        let e = g.endpoint as usize;
        let t = Instant::now();
        let r = if e < DIRECT_ENDPOINTS {
            solve_direct(&mut direct[e], &mix.problems[e], &g)
        } else {
            let p = e - DIRECT_ENDPOINTS;
            solve_direct(&mut routed[p], &mix.routed_problems[p], &g)
        };
        resolve_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(r);
    }
    out.set("qp.resolve_us", median(&resolve_us));

    // The same schedule in-process: submit at the light rate and wait.
    let period = Duration::from_secs_f64(1.0 / LIGHT_RPS);
    let start = Instant::now();
    let mut submit_us = Vec::new();
    let in_process = &ids[..ids.len().min(200)];
    for (k, &i) in in_process.iter().enumerate() {
        let g = generate(seed, i, mix);
        let due = start + period.mul_f64(k as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut request = Request {
            q: g.q,
            bounds: g.bounds,
            ..Request::default()
        };
        request.warm_start = g.warm_start;
        let e = g.endpoint as usize;
        let ticket = if e < DIRECT_ENDPOINTS {
            stack.qp.submit(stack.tenants[e], request)
        } else {
            stack
                .qp
                .submit_routed(stack.portfolios[e - DIRECT_ENDPOINTS], request)
        };
        match ticket {
            Ok(ticket) => {
                let response = ticket.wait();
                submit_us.push(due.elapsed().as_secs_f64() * 1e6);
                if !response.outcome.is_solved() {
                    out.fail(format!("in-process request {i} was not solved"));
                }
            }
            Err(e) => out.fail(format!("in-process request {i} rejected: {e}")),
        }
    }
    out.set("serve.submit_us", median(&submit_us));

    // The codec on this workload's frames.
    let frames: Vec<Frame> = ids
        .iter()
        .take(200)
        .map(|&i| {
            let g = generate(seed, i, mix);
            Frame::Submit {
                request_id: i,
                endpoint: g.endpoint,
                deadline_us: 0,
                q: g.q,
                bounds: g.bounds,
                warm_start: g.warm_start,
                trace_id: 0,
            }
        })
        .collect();
    const REPS: usize = 20;
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..REPS {
        for f in &frames {
            buf.clear();
            frame::encode(f, &mut buf);
            std::hint::black_box(&buf);
        }
    }
    let encode_ns = t.elapsed().as_secs_f64() * 1e9 / (REPS * frames.len()).max(1) as f64;
    out.set("net.encode_ns.submit", encode_ns);

    let responses: Vec<Vec<u8>> = ids
        .iter()
        .take(200)
        .map(|&i| {
            let g = generate(seed, i, mix);
            let e = g.endpoint as usize;
            let r = if e < DIRECT_ENDPOINTS {
                solve_direct(&mut direct[e], &mix.problems[e], &g)
            } else {
                let p = e - DIRECT_ENDPOINTS;
                solve_direct(&mut routed[p], &mix.routed_problems[p], &g)
            };
            frame::encode_to_vec(&Frame::Response {
                request_id: i,
                reply: WireReply {
                    code: ReplyCode::Solved,
                    iterations: r.iterations as u32,
                    obj_val: r.obj_val,
                    queue_wait_us: 10,
                    service_us: 100,
                    batch_size: 1,
                    x: r.x,
                    y: r.y,
                    message: String::new(),
                },
            })
        })
        .collect();
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let mut decode_s = 0.0;
    let mut decoded = 0usize;
    for _ in 0..REPS {
        for bytes in &responses {
            reader.extend(bytes);
            let t = Instant::now();
            let f = reader.next_frame();
            decode_s += t.elapsed().as_secs_f64();
            match f {
                Ok(Some(f)) => {
                    std::hint::black_box(f);
                    decoded += 1;
                }
                other => out.fail(format!("response frame did not decode: {other:?}")),
            }
        }
    }
    out.set(
        "net.decode_ns.response",
        decode_s * 1e9 / decoded.max(1) as f64,
    );
    in_process.len() as u64
}

/// Per-layer metrics of the traced steps: light, heavy, then the ladder.
fn set_step_metrics(steps: &[Step], out: &mut Outcome) {
    let light = &steps[0];
    let heavy = &steps[1];
    let l = &light.server;
    let h = &heavy.server;
    let attempted = |s: &Step| s.attempted.max(1) as f64;
    out.set(
        "serve.queue_wait_us.mean",
        h.ratio("queue_wait_sum", "queue_wait_count"),
    );
    out.set(
        "serve.batch_size.mean",
        h.ratio("batch_size_sum", "batch_size_count"),
    );
    out.set(
        "serve.service_us.mean",
        l.ratio("service_sum", "service_count"),
    );
    let server_e2e = l.ratio("e2e_sum", "e2e_count");
    out.set("serve.server_e2e_us.mean", server_e2e);
    out.set(
        "serve.warm_hit_ratio",
        l.get("warm_hits") as f64 / (l.get("warm_hits") + l.get("warm_builds")).max(1) as f64,
    );
    out.set(
        "serve.shard_hit_ratio",
        l.get("shard_hits") as f64 / (l.get("shard_hits") + l.get("shard_misses")).max(1) as f64,
    );
    for reason in ["rate_limited", "over_share", "queue_full"] {
        out.set(
            &format!("serve.shed_frac.{reason}"),
            h.get(&format!("shed_{reason}")) as f64 / attempted(heavy),
        );
    }
    out.set(
        "serve.expired_frac",
        h.get("expired") as f64 / attempted(heavy),
    );
    out.set(
        "serve.routed_pdqp_share",
        h.ratio("solves_pdqp", "routed_portfolio"),
    );
    let w = light.windowed();
    out.set("serve.lat_p50_us.light", w.p50);
    out.set("serve.lat_p99_us.light", w.tail);
    out.set("serve.max_rate_rps", max_rate(steps));
    let client_mean = light.latency().mean;
    out.set("net.wire_residual_us.mean", client_mean - server_e2e);
    out.set(
        "net.bytes_per_request",
        l.get("frame_bytes_sum") as f64 / attempted(light),
    );
    out.set(
        "net.frames_per_request",
        (l.get("net_frames_received") + l.get("net_frames_sent")) as f64 / attempted(light),
    );
    out.set(
        "net.gen_lag_us.p99",
        steps.iter().map(Step::gen_lag_p99).fold(0.0, f64::max),
    );
    out.set(
        "obs.scrape_us",
        steps.iter().map(|s| s.scrape_us).sum::<f64>() / steps.len() as f64,
    );
}

fn note_steps(steps: &[Step], prefix: &str, out: &mut Outcome) {
    for s in steps {
        out.note(&format!("{prefix}step.{}", s.name), s.describe());
        out.note_summary(&format!("{prefix}lat_us.{}", s.name), &s.latency());
    }
    out.note(&format!("{prefix}max_rate_rps"), max_rate(steps));
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mix = build_mix();

    let mut boot_s = Vec::new();
    let mut stack = None;
    for _ in 0..BOOTS {
        let t = Instant::now();
        let s = boot();
        boot_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = stack.replace(s) {
            Stack::shutdown(old);
        }
    }
    let stack = stack.expect("at least one boot");
    out.set("setup_s", median(&boot_s));
    out.note("setup_s.per_boot", format!("{boot_s:?}"));
    out.note("reps", format!("{BOOTS} boots"));

    let budget = cfg.budget();
    let plain_plan: &[(&str, f64, f64)] = if cfg.trace {
        &[("heavy", HEAVY_RPS, 0.2)]
    } else {
        &[("heavy", HEAVY_RPS, 1.0)]
    };
    let mut no_trace = Tracer::new(false);
    let plain = run_steps(
        &stack,
        &mix,
        cfg.seed,
        budget,
        plain_plan,
        None,
        0,
        &mut no_trace,
        &mut out,
    );
    let heavy = plain
        .iter()
        .find(|s| s.name == "heavy")
        .expect("a heavy step");
    let w = heavy.windowed();
    let heavy_p50 = w.p50;
    out.set("op_p50_us", w.p50);
    out.set("op_p99_us", w.low_tail);
    out.note(
        "op_windows",
        format!(
            "{} of {} windows, tail level p{}",
            w.used,
            w.windows,
            w.tail_q * 100.0
        ),
    );
    note_steps(&plain, "", &mut out);
    let mut verified = verify(&plain, cfg.seed, &mix, &mut out);
    let mut attempted: u64 = plain.iter().map(|s| s.attempted).sum();

    if cfg.trace {
        let mut tracer = Tracer::new(true);
        let first_id = attempted;
        let plan = [("light", LIGHT_RPS, 0.15), ("heavy", HEAVY_RPS, 0.25)];
        let traced = run_steps(
            &stack,
            &mix,
            cfg.seed,
            budget,
            &plan,
            Some(0.4),
            first_id,
            &mut tracer,
            &mut out,
        );
        out.set(
            "trace.overhead_pct",
            100.0 * (traced[1].windowed().p50 / heavy_p50.max(1e-12) - 1.0),
        );
        let e2e: f64 = traced
            .iter()
            .map(|s| s.latency_sum_s + s.scrape_us * 1e-6)
            .sum();
        out.set_trace_shares(&tracer, e2e);
        set_step_metrics(&traced, &mut out);
        note_steps(&traced, "traced.", &mut out);
        verified += verify(&traced, cfg.seed, &mix, &mut out);
        attempted += traced.iter().map(|s| s.attempted).sum::<u64>();
        let light_ids = first_id..first_id + traced[0].attempted;
        attempted += replays(&stack, &mix, cfg.seed, light_ids, &mut out);
        out.spans = Some(tracer.to_json_lines());
    }
    out.attempted = attempted;
    out.note("verified_bitwise", verified);
    out.note("sample_every", SAMPLE_EVERY);
    stack.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two back-to-back steps' deltas add up to the delta over both.
    #[test]
    fn step_deltas_sum_to_the_whole() {
        let qp = QpServer::new(ServeConfig::default());
        let problem = instance(Domain::Portfolio, 0).problem;
        let tenant = qp
            .register(problem.clone(), Settings::default())
            .expect("register");
        let burst = |k: usize| {
            for j in 0..k {
                let mut q = problem.q().to_vec();
                q[0] += 0.01 * j as f64;
                let response = qp
                    .submit(tenant, Request::with_q(q))
                    .expect("admitted")
                    .wait();
                assert!(response.outcome.is_solved());
            }
        };
        let metrics = qp.metrics();
        let s0 = ServerSnapshot::take(&metrics);
        burst(3);
        let s1 = ServerSnapshot::take(&metrics);
        burst(5);
        let s2 = ServerSnapshot::take(&metrics);
        let (first, second, whole) = (s1.since(&s0), s2.since(&s1), s2.since(&s0));
        assert_eq!(first.plus(&second), whole);
        assert_eq!(first.get("completed"), 3);
        assert_eq!(second.get("completed"), 5);
        assert_eq!(first.get("service_count"), 3);
        assert_eq!(whole.get("solved"), 8);
        assert!(second.get("service_sum") > 0);
        qp.shutdown();
    }

    #[test]
    fn generated_requests_repeat_per_seed() {
        let mix = build_mix();
        for i in [0, 7, 15, 123] {
            let (a, b) = (generate(9, i, &mix), generate(9, i, &mix));
            assert_eq!(a.endpoint, b.endpoint);
            assert_eq!(a.q, b.q);
            assert_eq!(a.bounds, b.bounds);
            assert_eq!(a.warm_start.is_some(), b.warm_start.is_some());
        }
        // Request 7 of every 8 is routed.
        assert!(generate(9, 7, &mix).endpoint as usize >= DIRECT_ENDPOINTS);
        assert!((generate(9, 6, &mix).endpoint as usize) < DIRECT_ENDPOINTS);
    }

    #[test]
    fn a_step_over_its_backlog_or_lag_bound_is_invalid() {
        let step = |backlog: usize, lag_us: f64| Step {
            name: "ladder@1000".into(),
            rate: 1_000.0,
            attempted: 2_000,
            failed: 0,
            latency_us: vec![100.0; 2_000],
            gen_lag_us: vec![lag_us; 2_000],
            backlog,
            server: ServerSnapshot([0; SERIES.len()]),
            scrape_us: 0.0,
            sampled: Vec::new(),
            steal_marks: Vec::new(),
            latency_sum_s: 0.2,
        };
        assert!(step(5, 10.0).meets_objective());
        // 1000 req/s × 10 ms + 16 = 26 requests may be in flight.
        assert!(!step(27, 10.0).valid());
        assert!(!step(5, 6_000.0).valid());
        let mut failing = step(5, 10.0);
        failing.failed = 3;
        assert!(failing.valid() && !failing.meets_objective());
        assert_eq!(max_rate(&[step(5, 10.0), step(30, 10.0)]), 1_000.0);
    }
}
