//! perfbench: one benchmark for the solver stack, the serving path and
//! the MIB compiler and simulator.
//!
//! ```sh
//! perfbench --workload suite-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs in its own process. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics, taken from the benchmark's own spans around each
//! call into a layer. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is a JSON report with the host fingerprint, the sample
//! counts behind every percentile and any failures.

mod inputs;
mod mib_compile;
mod serve_open;
mod stats;
mod suite_cold;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics of the traced run. A layer that does no work in a
/// workload reports 0.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("sparse.order_us", "us"),
    ("sparse.symbolic_us", "us"),
    ("sparse.factor_us", "us"),
    ("sparse.factor_mflops", "Mflop/s"),
    ("sparse.fill_ratio", "ratio"),
    ("sparse.refactor_us", "us"),
    ("sparse.ldl_solve_us", "us"),
    ("sparse.spmv_gbps", "GB/s-computed"),
    ("qp.setup_us.admm_direct", "us"),
    ("qp.setup_us.admm_indirect", "us"),
    ("qp.setup_us.pdqp", "us"),
    ("qp.iterations.admm_direct", "count"),
    ("qp.iterations.admm_indirect", "count"),
    ("qp.iterations.pdqp", "count"),
    ("qp.iter_us.admm_direct", "us"),
    ("qp.iter_us.admm_indirect", "us"),
    ("qp.iter_us.pdqp", "us"),
    ("qp.pcg_iters", "count"),
    ("qp.factor_count", "count"),
    ("qp.gflops", "Gflop/s"),
    ("qp.resolve_us", "us"),
    ("serve.queue_wait_us.mean", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.service_us.mean", "us"),
    ("serve.server_e2e_us.mean", "us"),
    ("serve.submit_us", "us"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.shard_hit_ratio", "ratio"),
    ("serve.shed_frac.rate_limited", "ratio"),
    ("serve.shed_frac.over_share", "ratio"),
    ("serve.shed_frac.queue_full", "ratio"),
    ("serve.expired_frac", "ratio"),
    ("serve.routed_pdqp_share", "ratio"),
    ("serve.lat_p50_us.light", "us"),
    ("serve.lat_p99_us.light", "us"),
    ("serve.max_rate_rps", "1/s"),
    ("net.wire_residual_us.mean", "us"),
    ("net.encode_ns.submit", "ns"),
    ("net.decode_ns.response", "ns"),
    ("net.bytes_per_request", "B"),
    ("net.frames_per_request", "count"),
    ("net.gen_lag_us.p99", "us"),
    ("obs.scrape_us", "us"),
    ("compiler.relower_us.p50", "us"),
    ("compiler.lower_ms.p50", "ms"),
    ("compiler.lower_ms.max", "ms"),
    ("compiler.cache_hit_ratio", "ratio"),
    ("compiler.cache_resident_mb", "MB"),
    ("compiler.pack_ratio", "ratio"),
    ("compiler.forced_appends", "count"),
    ("compiler.cycles.load", "cycles"),
    ("compiler.cycles.setup", "cycles"),
    ("compiler.cycles.iteration", "cycles"),
    ("compiler.cycles.pcg", "cycles"),
    ("compiler.cycles.check", "cycles"),
    ("compiler.mib_solve_us", "us-model"),
    ("verify.certify_ms", "ms"),
    ("verify.agree", "ratio"),
    ("core.run_us", "us"),
    ("core.ns_per_cycle", "ns"),
    ("core.sim_mcycles_per_s", "Mcycle/s"),
    ("core.utilization", "ratio"),
    ("core.stall_cycles", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.spans", "count"),
    ("self_share.bench", "ratio"),
    ("self_share.qp", "ratio"),
    ("self_share.sparse", "ratio"),
    ("self_share.serve", "ratio"),
    ("self_share.net", "ratio"),
    ("self_share.obs", "ratio"),
    ("self_share.compiler", "ratio"),
    ("self_share.verify", "ratio"),
    ("self_share.core", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// How far the layer self times of a traced run may sum from the traced
/// end-to-end time: the gaps between root spans (loop bookkeeping) are
/// the only time no span covers.
pub const SELF_SUM_TOLERANCE: f64 = 0.02;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["suite-cold", "serve-open", "mib-compile"];

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl RunConfig {
    /// The measured budget as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Operations that failed (any non-solved result, residual over
    /// tolerance, shed, expiry, unanswered request, bitwise mismatch,
    /// stall, or predicted ≠ simulated cycles).
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<String, f64>,
    /// Free-form report fields (sample counts, levels, step details).
    pub report: BTreeMap<String, String>,
    /// Spans of the traced run, as JSON lines.
    pub spans: Option<String>,
}

impl Outcome {
    /// Records a failure with its description (the first 20 are kept).
    pub fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    /// Records `n` failures under one description.
    pub fn fail_many(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a report field.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.report.insert(key.to_string(), value.to_string());
    }

    /// Records a latency series' median, tail and sample count in the
    /// report under `key`.
    pub fn note_summary(&mut self, key: &str, s: &stats::Summary) {
        self.note(
            key,
            format!(
                "n={} p50={:.3} p{}={:.3} mean={:.3}",
                s.n,
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                s.mean
            ),
        );
    }

    /// Fills the per-layer `self_share.*` and `trace.*` metrics from a
    /// tracer whose spans cover `traced_e2e_s` seconds of measured work.
    pub fn set_trace_shares(&mut self, tracer: &trace::Tracer, traced_e2e_s: f64) {
        let by_layer = tracer.self_seconds_by_layer();
        let total: f64 = by_layer.values().sum();
        for (layer, s) in &by_layer {
            self.set(&format!("self_share.{layer}"), s / traced_e2e_s.max(1e-12));
            self.note(&format!("self_s.{layer}"), format!("{s:.6}"));
        }
        let ratio = total / traced_e2e_s.max(1e-12);
        self.set("trace.self_sum_ratio", ratio);
        self.note(
            "trace.self_sum_within_tolerance",
            format!(
                "{} (|ratio - 1| <= {SELF_SUM_TOLERANCE})",
                (ratio - 1.0).abs() <= SELF_SUM_TOLERANCE
            ),
        );
        self.set(
            "trace.unattributed_share",
            tracer.root_self_seconds() / traced_e2e_s.max(1e-12),
        );
        self.set("trace.spans", tracer.spans().len() as f64);
    }
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// time a virtual machine's CPUs were runnable but not running.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Process high-water resident set size, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    run: RunConfig,
    spans_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(p) => args
                .get(p + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value")),
        }
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        run: RunConfig {
            seed,
            seconds,
            trace,
        },
        spans_out: value("--spans-out")?.map(str::to_string),
    })
}

/// Formats a metric value as a finite JSON number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the result line: exactly the metrics of `table`.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match outcome.metrics.get(*name) {
            Some(v) => *v,
            None if table.len() == PER_LAYER.len() => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn report_line(workload: &str, run: &RunConfig, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut fields = vec![
        format!("\"workload\": {}", json_string(workload)),
        format!("\"seed\": {}", run.seed),
        format!("\"seconds\": {}", json_number(run.seconds)),
        format!("\"trace\": {}", run.trace),
        format!("\"nproc\": {nproc}"),
        format!(
            "\"simd\": {}",
            json_string(mib_sparse::simd::dispatch_path().as_str())
        ),
        format!(
            "\"failed_frac\": {}",
            json_number(outcome.failed as f64 / outcome.attempted.max(1) as f64)
        ),
        format!(
            "\"errors\": [{}]",
            outcome
                .errors
                .iter()
                .map(|e| json_string(e))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    for (k, v) in &outcome.report {
        fields.push(format!("{}: {}", json_string(k), json_string(v)));
    }
    let extra: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(k, _)| {
            !END_TO_END.iter().any(|(n, _)| n == k) && !PER_LAYER.iter().any(|(n, _)| n == k)
        })
        .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
        .collect();
    fields.push(format!("\"extra_metrics\": {{{}}}", extra.join(", ")));
    format!("{{\"report\": {{{}}}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let run = args.run;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, run.seed, run.seconds, run.trace
    );
    let steal_before = cpu_steal_ticks();
    let mut outcome = match args.workload.as_str() {
        "suite-cold" => suite_cold::run(&run),
        "serve-open" => serve_open::run(&run),
        "mib-compile" => mib_compile::run(&run),
        _ => unreachable!("workload validated by parse_args"),
    };
    outcome.set("peak_rss_mb", peak_rss_mb());
    let steal_after = cpu_steal_ticks();
    outcome.note(
        "cpu_steal_pct",
        format!(
            "{:.2}",
            100.0 * steal_after.0.saturating_sub(steal_before.0) as f64
                / steal_after.1.saturating_sub(steal_before.1).max(1) as f64
        ),
    );
    for e in &outcome.errors {
        eprintln!("perfbench: failure: {e}");
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let line = match result_line(&outcome, table) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    if let (Some(path), Some(spans)) = (&args.spans_out, &outcome.spans) {
        if let Err(e) = std::fs::write(path, spans) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(4);
        }
        eprintln!("perfbench: spans written to {path}");
    }
    println!("{}", report_line(&args.workload, &run, &outcome));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let names_units = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let k = obj.find(&format!("\"{key}\"")).expect("key");
                        let rest = &obj[k + key.len() + 2..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = rest[open..].find('"').expect("value end") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), table(&END_TO_END));
        assert_eq!(names_units("per_layer"), table(&PER_LAYER));
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn result_line_has_exactly_the_table_metrics() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("not_in_table", 9.0);
        let line = result_line(&o, &END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        assert!(!line.contains("not_in_table"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        o.metrics.remove("setup_s");
        assert!(result_line(&o, &END_TO_END).is_err());
        o.fail("x".into());
        assert!(result_line(&o, &PER_LAYER)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload suite-cold --seed 7 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.run.seed, 7);
        assert!(a.run.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload suite-cold --trace 2")).is_err());
        assert!(parse_args(&argv("--workload suite-cold --seconds")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
