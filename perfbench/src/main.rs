//! The Lynceus benchmark: end-to-end metrics (decision latency, session
//! latency and throughput, tuning quality, set-up time, memory) measured
//! from outside the program over four workloads, plus a traced run that
//! breaks the same work down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scout-cherrypick|http-recurring|durable-storm|tensorflow|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when an
//! output check fails. `perfbench/README.md` lists the workloads and which
//! end-to-end metric each per-layer metric should move.

mod client;
mod http;
mod oracle;
mod panics;
mod quality;
mod replay;
mod session;
mod solo;
mod stats;
mod stores;
mod storm;
mod trace;

use lynceus_core::OptimizerSettings;
use lynceus_datasets::LookupDataset;
use session::Pass;
use stats::{fraction, Sample};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workloads `BENCHMARK.json` lists. `tensorflow` runs on request only:
/// its sessions last seconds each, so a run of the benchmark's length
/// cannot hold enough of them for seed-to-seed steady figures.
const KEPT: [&str; 3] = ["scout-cherrypick", "http-recurring", "durable-storm"];
const EXTRA: [&str; 1] = ["tensorflow"];
/// Set-ups per untraced run: at least `SETUP_REPS`, and more until they
/// have taken `SETUP_SECONDS`, so that a set-up of a few milliseconds, whose
/// single timings scatter by ±20 %, is timed often enough for a steady
/// median. `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_SECONDS: f64 = 1.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const END_TO_END: &[Metric] = &[
    m("decision_ms.p50", "ms"),
    m("session_ms.p50", "ms"),
    m("session_ms.p90", "ms"),
    m("sessions_per_s", "1/s"),
    m("cno.p50", "ratio"),
    m("cno.p90", "ratio"),
    m("profiling_cost.mean", "x_optimum"),
    m("feasible_frac", "fraction"),
    m("setup_s", "s"),
];

pub const PER_LAYER: &[Metric] = &[
    m("decision_ms.p90", "ms"),
    m("engine.decisions", "count"),
    m("engine.candidates", "count"),
    m("engine.pruned_frac", "fraction"),
    m("engine.deep_cut_frac", "fraction"),
    m("engine.gamma.mean", "count"),
    m("engine.bootstrap_ms.p50", "ms"),
    m("engine.overdraw_frac", "fraction"),
    m("learners.fit_us.p50", "us"),
    m("learners.refit_us.p50", "us"),
    m("learners.predict_ns_per_row.p50", "ns"),
    m("learners.train_rows.mean", "count"),
    m("pool.cpu_util", "fraction"),
    m("service.queue_ms.p50", "ms"),
    m("service.compute_ms.p50", "ms"),
    m("service.tail_ms.p50", "ms"),
    m("service.dispatches", "count"),
    m("checkpoint.saves", "count"),
    m("checkpoint.bytes.mean", "bytes"),
    m("checkpoint.restores", "count"),
    m("checkpoint.encode_us.p50", "us"),
    m("checkpoint.decode_us.p50", "us"),
    m("faults.injected", "count"),
    m("faults.retries", "count"),
    m("faults.panics_contained", "count"),
    m("faults.recovered_frac", "fraction"),
    m("transfer.loads", "count"),
    m("transfer.hits", "count"),
    m("transfer.saves", "count"),
    m("transfer.bytes.mean", "bytes"),
    m("transfer.replayed_obs.mean", "count"),
    m("transfer.encode_us.p50", "us"),
    m("serve.submit_ms.p50", "ms"),
    m("serve.wait_ms.p50", "ms"),
    m("serve.report_ms.p50", "ms"),
    m("serve.receipts_ms.p50", "ms"),
    m("serve.head_to_body_ms.p50", "ms"),
    m("serve.response_bytes.mean", "bytes"),
    m("wire.encode_report_us.p50", "us"),
    m("wire.decode_report_us.p50", "us"),
    m("json.parse_ns_per_byte", "ns/byte"),
    m("self_ms.client", "ms"),
    m("self_ms.engine", "ms"),
    m("self_ms.service", "ms"),
    m("self_ms.http", "ms"),
    m("self_ms.wire", "ms"),
    m("self_ms.oracle", "ms"),
    m("self_ms.checkpoint_store", "ms"),
    m("self_ms.knowledge_store", "ms"),
    m("process.peak_rss_mb", "MB"),
    m("trace.sessions", "count"),
    m("trace.spans", "count"),
    m("trace.overhead.decision_ms.p50", "ratio"),
    m("trace.overhead.session_ms.p50", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(workload == "all"
        || KEPT.contains(&workload.as_str())
        || EXTRA.contains(&workload.as_str()))
    {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

enum Bench {
    Solo(solo::Solo),
    Http(http::Http),
    Storm(storm::Storm),
}

impl Bench {
    fn setup(args: &Args) -> Result<Bench, String> {
        Ok(match args.workload.as_str() {
            "scout-cherrypick" => Bench::Solo(solo::setup(false)),
            "tensorflow" => Bench::Solo(solo::setup(true)),
            "http-recurring" => Bench::Http(http::setup()?),
            "durable-storm" => Bench::Storm(storm::setup()),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn pass(&self, args: &Args, traced: bool) -> Pass {
        match self {
            Bench::Solo(b) => b.pass(args, traced),
            Bench::Http(b) => b.pass(args, traced),
            Bench::Storm(b) => b.pass(args, traced),
        }
    }

    fn datasets(&self) -> &[LookupDataset] {
        match self {
            Bench::Solo(b) => b.datasets(),
            Bench::Http(b) => b.datasets(),
            Bench::Storm(b) => b.datasets(),
        }
    }

    fn settings(&self) -> &[OptimizerSettings] {
        match self {
            Bench::Solo(b) => b.settings(),
            Bench::Http(b) => b.settings(),
            Bench::Storm(b) => b.settings(),
        }
    }
}

/// One workload's result: named figures plus what the checks found.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
}

/// Live decision and session latencies of the sessions a pass keeps in full.
fn kept_samples(pass: &Pass) -> (Sample, Sample) {
    let kept = pass.sessions.iter().filter(|s| s.error.is_none());
    (
        Sample::new(
            kept.clone()
                .flat_map(session::SessionRecord::decision_ms)
                .collect(),
        ),
        Sample::new(kept.map(session::SessionRecord::session_ms).collect()),
    )
}

fn end_to_end(
    pass: &Pass,
    setup_s: &Sample,
) -> (BTreeMap<&'static str, f64>, Vec<String>, Vec<String>) {
    let t = &pass.timing;
    let (decisions, sessions) = (t.decision_ms.sample(), t.session_ms.sample());
    let q = &pass.quality;
    let cnos = Sample::new(q.cnos.clone());
    let pct = |s: &Sample, p: f64| s.percentile(p).unwrap_or(f64::NAN);
    let values = BTreeMap::from([
        ("decision_ms.p50", pct(&decisions, 0.5)),
        ("session_ms.p50", pct(&sessions, 0.5)),
        ("session_ms.p90", pct(&sessions, 0.9)),
        (
            "sessions_per_s",
            t.completed as f64 / (pass.wall_ns as f64 / 1e9),
        ),
        ("cno.p50", pct(&cnos, 0.5)),
        ("cno.p90", pct(&cnos, 0.9)),
        ("profiling_cost.mean", replay::mean(&q.profiling)),
        ("feasible_frac", 1.0 - q.failed_frac()),
        ("setup_s", setup_s.median().unwrap_or(f64::NAN)),
    ]);
    let mut notes = vec![
        format!(
            "samples: {} decisions ({} kept), {} sessions ({} kept, {} in the quality prefix), {} set-ups",
            t.decision_ms.seen(),
            decisions.len(),
            t.session_ms.seen(),
            sessions.len(),
            q.sessions,
            setup_s.len()
        ),
        format!(
            "failed_frac = {:.6} ({} infeasible by dataset, {} nothing found, {} errors of {} prefix sessions); overdrew the budget: {} sessions on their final run, {} in their bootstrap",
            q.failed_frac(),
            q.infeasible,
            q.nothing_found,
            q.errors,
            q.sessions,
            pass.overdrawn,
            pass.overdrawn_in_bootstrap
        ),
    ];
    let mut problems = Vec::new();
    let invalid = t.invalid();
    if invalid > 0 || !setup_s.all_finite_non_negative() {
        problems.push(format!("{invalid} negative or non-finite timings"));
    }
    for (name, sample) in [("decision_ms", &decisions), ("session_ms", &sessions)] {
        if !sample.tail_is_sampled(0.9) {
            notes.push(format!(
                "{name}.p90 has {} samples beyond it (fewer than {}); the highest supported percentile is {:?}",
                sample.beyond(0.9),
                stats::MIN_BEYOND,
                stats::highest_supported_percentile(sample.len())
            ));
        }
    }
    for (name, value) in &values {
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    (values, notes, problems)
}

/// Figures every workload yields the same way: the surrogate replay, the
/// service split, bootstrap time, receipts-based engine counters.
fn common_layers(bench: &Bench, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let p50 = |v: Vec<f64>| replay::p50(&v);
    let t = &pass.timing;
    let median = |r: &stats::Reservoir| r.sample().median().unwrap_or(0.0);
    let learners = replay::learners(bench.datasets(), bench.settings(), &pass.sessions);
    let receipts: Vec<&lynceus_core::DecisionReceipt> = pass
        .sessions
        .iter()
        .flat_map(|s| s.receipts.iter())
        .filter(|r| !r.bootstrap)
        .collect();
    let candidates: u64 = receipts.iter().map(|r| r.candidates).sum();
    let mut layers = BTreeMap::from([
        ("engine.bootstrap_ms.p50", median(&t.bootstrap_ms)),
        (
            "engine.overdraw_frac",
            fraction(
                (pass.overdrawn + pass.overdrawn_in_bootstrap) as u64,
                t.completed as u64,
            ),
        ),
        ("learners.fit_us.p50", p50(learners.fit_us)),
        ("learners.refit_us.p50", p50(learners.refit_us)),
        (
            "learners.predict_ns_per_row.p50",
            p50(learners.predict_ns_per_row),
        ),
        (
            "learners.train_rows.mean",
            replay::mean(&learners.train_rows),
        ),
        ("service.queue_ms.p50", median(&t.queue_ms)),
        ("service.compute_ms.p50", median(&t.compute_ms)),
        ("service.tail_ms.p50", median(&t.tail_ms)),
    ]);
    if !receipts.is_empty() {
        layers.extend([
            ("engine.decisions", receipts.len() as f64),
            ("engine.candidates", candidates as f64),
            (
                "engine.pruned_frac",
                fraction(receipts.iter().map(|r| r.pruned).sum(), candidates),
            ),
            (
                "engine.deep_cut_frac",
                fraction(receipts.iter().map(|r| r.deep_pruned).sum(), candidates),
            ),
            (
                "engine.gamma.mean",
                replay::mean(
                    &receipts
                        .iter()
                        .map(|r| r.gamma_size as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
    }
    layers
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let unplanned_before = panics::unplanned();
    let outcome = if args.trace {
        // Untraced pass, then a traced pass on a fresh set-up: per-layer
        // figures come from the traced pass, its cost from the difference.
        let bench = Bench::setup(args)?;
        let plain = bench.pass(args, false);
        let cpu_util = plain.cpu_ns as f64 / (plain.wall_ns as f64 * session::nproc() as f64);
        drop(bench);
        let bench = Bench::setup(args)?;
        trace::trace_sessions(session::traced_sessions(bench.datasets().len()));
        let traced = bench.pass(args, true);
        trace::trace_sessions(0);
        let spans = trace::take();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        trace::write(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));

        let mut layers = common_layers(&bench, &traced);
        layers.extend(traced.layer.iter().copied());
        let sessions = trace::sessions(&spans).max(1) as f64;
        for (layer, ns) in trace::self_time_by_layer(&spans) {
            let name = format!("self_ms.{}", layer.name());
            if let Some(metric) = PER_LAYER.iter().find(|m| m.name == name) {
                layers.insert(metric.name, ns as f64 / 1e6 / sessions);
            }
        }
        // Overhead over the sessions both passes keep in full, all traced.
        let (plain_dec, plain_ses) = kept_samples(&plain);
        let (traced_dec, traced_ses) = kept_samples(&traced);
        let ratio = |a: &Sample, b: &Sample| match (a.median(), b.median()) {
            (Some(a), Some(b)) if b > 0.0 => a / b,
            _ => 0.0,
        };
        layers.extend([
            (
                "decision_ms.p90",
                plain
                    .timing
                    .decision_ms
                    .sample()
                    .percentile(0.9)
                    .unwrap_or(0.0),
            ),
            ("pool.cpu_util", cpu_util),
            ("process.peak_rss_mb", session::peak_rss_mb()),
            ("trace.sessions", trace::sessions(&spans) as f64),
            ("trace.spans", spans.len() as f64),
            (
                "trace.overhead.decision_ms.p50",
                ratio(&traced_dec, &plain_dec),
            ),
            (
                "trace.overhead.session_ms.p50",
                ratio(&traced_ses, &plain_ses),
            ),
        ]);
        notes.push(format!(
            "untraced pass: decision_ms.p50 {:?}, session_ms.p50 {:?}; traced pass: {:?}, {:?}",
            plain_dec.median(),
            plain_ses.median(),
            traced_dec.median(),
            traced_ses.median()
        ));
        problems.extend(plain.problems.iter().cloned());
        problems.extend(traced.problems.iter().cloned());
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        Outcome {
            metrics,
            notes,
            problems,
            attempted: traced.timing.completed + traced.errors,
            failed: traced.errors,
        }
    } else {
        let mut setups = Vec::new();
        let mut bench = None;
        while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_SECONDS {
            drop(bench.take());
            let start = trace::now_ns();
            bench = Some(Bench::setup(args)?);
            setups.push(session::ms(start, trace::now_ns()) / 1e3);
        }
        let bench = bench.expect("at least one set-up ran");
        let pass = bench.pass(args, false);
        let (values, mut e2e_notes, e2e_problems) = end_to_end(&pass, &Sample::new(setups));
        notes.append(&mut e2e_notes);
        problems.extend(e2e_problems);
        problems.extend(pass.problems.iter().cloned());
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, values[m.name]))
            .collect();
        Outcome {
            metrics,
            notes,
            problems,
            attempted: pass.timing.completed + pass.errors,
            failed: pass.errors,
        }
    };
    let unplanned = panics::unplanned() - unplanned_before;
    let mut outcome = outcome;
    if unplanned > 0 {
        outcome
            .problems
            .push(format!("{unplanned} unplanned panics"));
    }
    Ok(outcome)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|{}|all> --seed <n> --seconds <s> --trace <0|1>",
                KEPT.join("|"),
                EXTRA.join("|")
            );
            std::process::exit(2);
        }
    };
    panics::install();
    let workloads: Vec<&str> = if args.workload == "all" {
        KEPT.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let single = workloads.len() == 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut json_metrics = String::new();
    for workload in workloads {
        let args = Args {
            workload: workload.to_owned(),
            ..args.clone()
        };
        let outcome = match run_workload(&args) {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("perfbench: {workload}: {message}");
                std::process::exit(1);
            }
        };
        for (name, unit, value) in &outcome.metrics {
            println!("{workload:<18} {name:<34} {value:>16.6} {unit}");
            let key = if single {
                (*name).to_owned()
            } else {
                format!("{workload}/{name}")
            };
            if !json_metrics.is_empty() {
                json_metrics.push_str(", ");
            }
            let _ = write!(
                json_metrics,
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        for note in &outcome.notes {
            println!("{workload:<18} note: {note}");
        }
        for problem in outcome.problems.iter().take(20) {
            eprintln!("perfbench: {workload}: check failed: {problem}");
        }
        if outcome.problems.len() > 20 {
            eprintln!(
                "perfbench: {workload}: … {} more failed checks",
                outcome.problems.len() - 20
            );
        }
        correct &= outcome.problems.is_empty();
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json_metrics}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the root `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = lynceus_serve::json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, KEPT);
    }

    #[test]
    fn arguments_parse_and_reject_mistakes() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let args = parse("--workload durable-storm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload all --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload all --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload all --seed 1 --seconds").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
    }
}
