//! CI gate over the benchmark artifacts. Every `BENCH_*.json` a bench
//! writes self-asserts its invariants (pruned ≡ exhaustive decisions, flat
//! ≡ pointer traversal, warm ≡ exhaustive chains) as boolean flags whose
//! key contains `identical`. This binary parses each file with
//! `lynceus_serve::json` and fails, with a per-file report, when:
//!
//! * the file is not valid JSON;
//! * an `identical` flag is `false` or not a boolean, or no flag is `true`
//!   (a bench that stopped asserting would otherwise pass vacuously). A
//!   `null` flag means the comparison was not run and asserts nothing;
//! * a number is negative, or a value is one of the strings `"NaN"`,
//!   `"Infinity"` and `"-Infinity"` that `Value::from_f64` writes for a
//!   non-finite float. No artifact has a legitimately negative value;
//! * a pruning cell, the flat-traversal cell or the recurring-job cells
//!   are incoherent (see the rules below);
//! * a lookahead-sweep `speedup` is published without its sample interval,
//!   or with an interval wider than its effect.
//!
//! Usage: `cargo run -p lynceus-bench --bin bench_check [files…]`. The
//! default is every `BENCH_*.json` in the artifact directory: the
//! workspace root, or `LYNCEUS_BENCH_OUT`.

use lynceus_serve::json::{self, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every value in `doc` with its path (`$.cells[2].pruned`), parents
/// before children.
fn nodes(doc: &Value) -> Vec<(String, &Value)> {
    fn visit<'a>(path: String, value: &'a Value, out: &mut Vec<(String, &'a Value)>) {
        out.push((path.clone(), value));
        match value {
            Value::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    visit(format!("{path}[{i}]"), item, out);
                }
            }
            Value::Obj(fields) => {
                for (key, item) in fields {
                    visit(format!("{path}.{key}"), item, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    visit("$".to_owned(), doc, &mut out);
    out
}

/// The number under `key`, if `value` is an object that has one.
fn num(value: &Value, key: &str) -> Option<f64> {
    value.get(key)?.as_f64()
}

/// Every `identical` flag must be `true` or `null`, and at least one must
/// be `true`.
fn flag_violations(doc: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let mut asserted = 0usize;
    for (path, value) in nodes(doc) {
        let fields = value.as_obj().unwrap_or_default();
        for (key, flag) in fields.iter().filter(|(key, _)| key.contains("identical")) {
            match flag {
                Value::Bool(true) => asserted += 1,
                Value::Null => {}
                Value::Bool(false) => violations.push(format!("{path}.{key} is false")),
                other => violations.push(format!(
                    "{path}.{key} is {}, not a boolean",
                    other.to_json()
                )),
            }
        }
    }
    if asserted == 0 {
        violations.push("no `identical` flag is true: the bench asserts nothing".to_owned());
    }
    violations
}

/// No number may be negative, and no value may be a non-finite float.
fn number_violations(doc: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    for (path, value) in nodes(doc) {
        match value {
            Value::Num(raw) if value.as_f64().is_some_and(|v| v < 0.0) => {
                violations.push(format!("{path} is negative ({raw})"));
            }
            Value::Str(s) if matches!(s.as_str(), "NaN" | "Infinity" | "-Infinity") => {
                violations.push(format!("{path} is not a finite number ({s})"));
            }
            _ => {}
        }
    }
    violations
}

/// Every object carrying `candidates` and `pruned` is a pruning cell. Its
/// counters must stay coherent: no cell may claim more pruned candidates
/// than it had, its pruned fraction must lie in [0, 1], and candidates
/// need decisions. A bench bug (or a hand-edited artifact) that inflated
/// the pruning story would otherwise sail through CI as a good-looking
/// number.
fn pruning_violations(doc: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    for (cell, value) in nodes(doc) {
        let (Some(candidates), Some(pruned)) = (num(value, "candidates"), num(value, "pruned"))
        else {
            continue;
        };
        if pruned > candidates {
            violations.push(format!("{cell}: pruned {pruned} > candidates {candidates}"));
        }
        if let Some(fraction) = num(value, "pruned_fraction").filter(|f| !(0.0..=1.0).contains(f)) {
            violations.push(format!("{cell}: pruned_fraction {fraction} outside [0, 1]"));
        }
        if candidates > 0.0 && num(value, "decisions").is_some_and(|d| d < 1.0) {
            violations.push(format!("{cell}: {candidates} candidates but no decisions"));
        }
    }
    violations
}

/// Every object carrying `flat_ns` is a flat-traversal cell. It must carry
/// the pointer-walk baseline it was compared against, a `speedup` of at
/// least 1.0 (the struct-of-arrays layout regressing below the pointer
/// walk is exactly the regression this gate exists to catch), and a true
/// `identical` flag (the bench bit-compares the two traversals before
/// writing the cell). The `micro_components` artifact must contain such a
/// cell at all, or a refactor that dropped the comparison would pass
/// vacuously.
fn flat_violations(doc: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let mut cells = 0usize;
    for (cell, value) in nodes(doc) {
        let Some(flat_ns) = num(value, "flat_ns") else {
            continue;
        };
        cells += 1;
        if num(value, "pointer_ns").is_none() {
            violations.push(format!(
                "{cell}: flat_ns {flat_ns} without a pointer_ns baseline"
            ));
        }
        match num(value, "speedup") {
            Some(speedup) if speedup >= 1.0 => {}
            Some(speedup) => violations.push(format!(
                "{cell}: flat traversal slower than the pointer walk (speedup {speedup} < 1.0)"
            )),
            None => violations.push(format!("{cell}: no speedup recorded")),
        }
        if value.get("identical").and_then(Value::as_bool) != Some(true) {
            violations.push(format!(
                "{cell}: flat/pointer bit-identity not asserted true"
            ));
        }
    }
    if cells == 0 && benchmark(doc) == Some("micro_components") {
        violations.push("micro_components artifact carries no flat-traversal cell".to_owned());
    }
    violations
}

/// Every non-null `speedup` of the lookahead sweep is the median of
/// interleaved exhaustive/pruned sample ratios. It must come with the
/// samples' `speedup_min`/`speedup_max` interval, lie inside it, and the
/// interval must be no wider than the ratio's distance from 1: a ratio
/// whose spread exceeds its effect could say pruning wins or loses
/// depending on the run, and the bench publishes `null` for it instead.
fn speedup_violations(doc: &Value) -> Vec<String> {
    if benchmark(doc) != Some("fig6_lookahead") {
        return Vec::new();
    }
    let mut violations = Vec::new();
    for (cell, value) in nodes(doc) {
        let Some(speedup) = num(value, "speedup") else {
            continue;
        };
        let (Some(low), Some(high)) = (num(value, "speedup_min"), num(value, "speedup_max")) else {
            violations.push(format!(
                "{cell}: speedup {speedup} without a speedup_min/speedup_max interval"
            ));
            continue;
        };
        if !(low <= speedup && speedup <= high) {
            violations.push(format!(
                "{cell}: speedup {speedup} outside its interval [{low}, {high}]"
            ));
        }
        let effect = (speedup - 1.0).abs();
        if high - low > effect {
            violations.push(format!(
                "{cell}: speedup {speedup} has a spread [{low}, {high}] wider than its effect \
                 {effect}; publish null"
            ));
        }
    }
    violations
}

/// The recurring-job artifact: the chain must actually recur (≥ 2 runs),
/// the cost-to-target trajectory must be coherent and must improve from
/// the cold run to the final one (the whole point of the knowledge layer),
/// warm first-decision pruning must beat the cold run's disarmed guard,
/// and the cross-engine bit-identity flag must be present. A chain that
/// stopped transferring knowledge would otherwise publish a flat
/// trajectory and pass vacuously.
fn recurring_violations(doc: &Value) -> Vec<String> {
    if benchmark(doc) != Some("recurring") {
        return Vec::new();
    }
    let mut violations = Vec::new();
    match num(doc, "runs_chained") {
        Some(runs) if runs >= 2.0 => {}
        Some(runs) => violations.push(format!(
            "runs_chained {runs}: a single run never exercises transfer"
        )),
        None => violations.push("no runs_chained recorded".to_owned()),
    }
    for (cell, value) in nodes(doc) {
        if value.get("cost_to_target").is_none() {
            continue;
        }
        if num(value, "cost_to_target").is_none() {
            violations.push(format!("{cell}: cost_to_target is not a number"));
        }
        if let (Some(candidates), Some(cut)) = (
            num(value, "first_decision_candidates"),
            num(value, "first_decision_cut"),
        ) {
            if cut > candidates {
                violations.push(format!(
                    "{cell}: first-decision cut {cut} > candidates {candidates}"
                ));
            }
        }
        if let Some(fraction) =
            num(value, "first_decision_prune_fraction").filter(|f| !(0.0..=1.0).contains(f))
        {
            violations.push(format!(
                "{cell}: first_decision_prune_fraction {fraction} outside [0, 1]"
            ));
        }
    }
    match (
        num(doc, "cold_cost_to_target"),
        num(doc, "final_cost_to_target"),
    ) {
        (Some(cold), Some(last)) if last >= cold => violations.push(format!(
            "cost-to-target never improved: final {last} >= cold {cold}"
        )),
        (Some(_), Some(_)) => {}
        _ => violations.push("cost-to-target endpoints not both recorded".to_owned()),
    }
    match (
        num(doc, "cold_first_decision_prune_fraction"),
        num(doc, "warm_first_decision_prune_fraction"),
    ) {
        (Some(cold), Some(warm)) => {
            if !((0.0..=1.0).contains(&cold) && (0.0..=1.0).contains(&warm)) {
                violations.push(format!(
                    "first-decision prune fractions cold {cold} / warm {warm} outside [0, 1]"
                ));
            } else if warm <= cold {
                violations.push(format!(
                    "the warm prior never armed pruning: warm first-decision pruning {warm} \
                     <= cold {cold}"
                ));
            }
        }
        _ => violations.push("first-decision prune fractions not both recorded".to_owned()),
    }
    if doc
        .get("chain_reports_identical")
        .and_then(Value::as_bool)
        .is_none()
    {
        violations
            .push("chain_reports_identical flag missing: the bench stopped asserting".to_owned());
    }
    violations
}

/// The artifact's `benchmark` name.
fn benchmark(doc: &Value) -> Option<&str> {
    doc.get("benchmark")?.as_str()
}

/// Every rule's violations for one artifact's text.
fn check(text: &str) -> Vec<String> {
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let rules: [fn(&Value) -> Vec<String>; 6] = [
        flag_violations,
        number_violations,
        pruning_violations,
        flat_violations,
        speedup_violations,
        recurring_violations,
    ];
    rules.iter().flat_map(|rule| rule(&doc)).collect()
}

fn artifact_files() -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(lynceus_bench::artifact_dir()) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() {
        artifact_files()
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("bench_check: no BENCH_*.json files found");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for file in &files {
        let violations = match std::fs::read_to_string(file) {
            Ok(text) => check(&text),
            Err(e) => vec![format!("cannot read: {e}")],
        };
        if violations.is_empty() {
            println!("bench_check: {} ok", file.display());
        }
        for violation in &violations {
            eprintln!("bench_check: {} FAILED: {violation}", file.display());
        }
        failed |= !violations.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("test input is valid JSON")
    }

    fn mentions(violations: &[String], needle: &str) -> bool {
        violations.iter().any(|v| v.contains(needle))
    }

    #[test]
    fn unparseable_files_fail() {
        assert!(mentions(
            &check(r#"{ "identical": true "#),
            "not valid JSON"
        ));
        assert!(mentions(
            &check(r#"{ "identical": true, "identical": true }"#),
            "not valid JSON"
        ));
    }

    #[test]
    fn false_absent_or_non_boolean_flags_fail() {
        let nested = doc(r#"{ "cells": [ { "identical": false }, { "identical": true } ] }"#);
        assert_eq!(flag_violations(&nested), ["$.cells[0].identical is false"]);
        let absent = doc(r#"{ "benchmark": "x", "speedup": 2.0 }"#);
        assert!(mentions(&flag_violations(&absent), "asserts nothing"));
        let only_null = doc(r#"{ "cells": [ { "identical": null } ] }"#);
        assert!(mentions(&flag_violations(&only_null), "asserts nothing"));
        let counted = doc(r#"{ "identical_count": 3, "identical": true }"#);
        assert!(mentions(&flag_violations(&counted), "not a boolean"));
    }

    #[test]
    fn null_flags_assert_nothing_beside_a_true_one() {
        let skipped = doc(r#"{ "cells": [ { "identical": null }, { "bit_identical": true } ] }"#);
        assert!(flag_violations(&skipped).is_empty());
    }

    /// The faults artifact the retired recovery bench published: the
    /// difference of two noisy timings recorded a negative per-step cost.
    const NEGATIVE_COST: &str = r#"{
  "benchmark": "faults_recovery",
  "sessions": 4,
  "cpus": 1,
  "lanes": 4,
  "baseline_seconds_per_pass": 0.0595,
  "durable_seconds_per_pass": 0.0587,
  "checkpoint_overhead_vs_baseline": 0.986,
  "checkpointed_steps_per_pass": 37,
  "checkpoint_seconds_per_step": -0.000021814,
  "storm_seconds_per_pass": 0.0719,
  "recovery_overhead_vs_durable": 1.226,
  "faults_recovered_per_pass": 4,
  "baseline_identical_reports": true,
  "durable_identical_reports": true,
  "storm_identical_reports": true
}
"#;

    #[test]
    fn negative_and_non_finite_numbers_fail() {
        assert_eq!(
            check(NEGATIVE_COST),
            ["$.checkpoint_seconds_per_step is negative (-0.000021814)"]
        );
        let nan = doc(r#"{ "flat_traversal": { "speedup": "NaN" } }"#);
        assert_eq!(
            number_violations(&nan),
            ["$.flat_traversal.speedup is not a finite number (NaN)"]
        );
        let infinities = doc(r#"{ "a": ["Infinity", "-Infinity", "finite", 0, -0, 1e3] }"#);
        assert_eq!(number_violations(&infinities).len(), 2);
    }

    #[test]
    fn whitespace_free_artifacts_are_checked() {
        let compact = NEGATIVE_COST
            .replace(['\n', ' '], "")
            .replace("reports\":true}", "reports\":false}");
        let violations = check(&compact);
        assert!(mentions(&violations, "negative (-0.000021814)"));
        assert!(mentions(&violations, "storm_identical_reports is false"));
    }

    #[test]
    fn coherent_pruning_cells_pass() {
        let cells = doc(r#"{ "cells": [
              { "decisions": 10, "candidates": 100, "pruned": 60, "pruned_fraction": 0.6, "identical": true },
              { "decisions": 4, "candidates": 40, "pruned": 0, "pruned_fraction": 0, "identical": null },
              { "decisions": 1, "candidates": 7, "pruned": 7, "pruned_fraction": 1 }
            ] }"#);
        assert!(pruning_violations(&cells).is_empty());
    }

    #[test]
    fn incoherent_pruning_cells_fail() {
        let overflow =
            doc(r#"{ "decisions": 2, "candidates": 10, "pruned": 11, "pruned_fraction": 1.1 }"#);
        let violations = pruning_violations(&overflow);
        assert!(mentions(&violations, "pruned 11 > candidates 10"));
        assert!(mentions(&violations, "pruned_fraction 1.1 outside [0, 1]"));
        let negative =
            doc(r#"{ "decisions": 2, "candidates": 10, "pruned": 1, "pruned_fraction": -0.1 }"#);
        assert!(mentions(
            &pruning_violations(&negative),
            "pruned_fraction -0.1 outside [0, 1]"
        ));
        let no_decisions = doc(r#"{ "decisions": 0, "candidates": 10, "pruned": 1 }"#);
        assert!(mentions(&pruning_violations(&no_decisions), "no decisions"));
        let legacy =
            doc(r#"{ "cells": [ { "candidates": 20, "pruned": 25, "pruned_fraction": 1.25 } ] }"#);
        let violations = pruning_violations(&legacy);
        assert!(mentions(
            &violations,
            "$.cells[0]: pruned 25 > candidates 20"
        ));
        assert!(mentions(&violations, "pruned_fraction 1.25 outside [0, 1]"));
    }

    #[test]
    fn flat_cells_need_a_baseline_a_speedup_and_a_true_flag() {
        let good = doc(
            r#"{ "benchmark": "micro_components", "flat_traversal": { "pointer_ns": 2e4, "flat_ns": 1e4, "speedup": 2.0, "identical": true } }"#,
        );
        assert!(flat_violations(&good).is_empty());
        let slow =
            doc(r#"{ "pointer_ns": 100, "flat_ns": 150, "speedup": 0.67, "identical": true }"#);
        assert!(mentions(&flat_violations(&slow), "< 1.0"));
        let orphan = doc(r#"{ "flat_ns": 150, "speedup": 1.5, "identical": true }"#);
        assert!(mentions(
            &flat_violations(&orphan),
            "without a pointer_ns baseline"
        ));
        let unasserted =
            doc(r#"{ "pointer_ns": 100, "flat_ns": 50, "speedup": 2.0, "identical": null }"#);
        assert!(mentions(&flat_violations(&unasserted), "bit-identity"));
        let vacuous = doc(r#"{ "benchmark": "micro_components", "components": {} }"#);
        assert!(mentions(
            &flat_violations(&vacuous),
            "no flat-traversal cell"
        ));
        assert!(flat_violations(&doc(r#"{ "benchmark": "recurring" }"#)).is_empty());
    }

    /// A lookahead-sweep artifact with one cell's `speedup` fields.
    fn sweep(speedup: &str) -> String {
        format!(
            r#"{{ "benchmark": "fig6_lookahead", "cells": [ {{ "decisions": 11, "candidates": 612,
                 "pruned": 135, "pruned_fraction": 0.22, {speedup}, "identical": true }} ] }}"#
        )
    }

    #[test]
    fn resolved_and_null_speedups_pass() {
        let resolved = sweep(r#""speedup": 1.2, "speedup_min": 1.15, "speedup_max": 1.3"#);
        assert!(check(&resolved).is_empty(), "{:?}", check(&resolved));
        let within_noise = sweep(r#""speedup": null, "speedup_min": 0.84, "speedup_max": 1.04"#);
        assert!(check(&within_noise).is_empty());
        let not_run = sweep(r#""speedup": null, "speedup_min": null, "speedup_max": null"#);
        assert!(check(&not_run).is_empty());
    }

    #[test]
    fn a_speedup_without_its_interval_fails() {
        // The best-of-2 ratios the sweep used to publish, with no spread.
        let bare = sweep(r#""speedup": 0.94"#);
        assert!(mentions(
            &check(&bare),
            "without a speedup_min/speedup_max interval"
        ));
        let half = sweep(r#""speedup": 1.5, "speedup_min": 1.4"#);
        assert!(mentions(
            &check(&half),
            "without a speedup_min/speedup_max interval"
        ));
    }

    #[test]
    fn a_speedup_whose_spread_exceeds_its_effect_fails() {
        // Two runs of the same code recorded 0.94 then 1.04: a spread of
        // 0.10 around an effect of 0.03.
        let noisy = sweep(r#""speedup": 1.03, "speedup_min": 0.94, "speedup_max": 1.04"#);
        assert!(mentions(&check(&noisy), "wider than its effect"));
        let outside = sweep(r#""speedup": 2.0, "speedup_min": 1.2, "speedup_max": 1.4"#);
        assert!(mentions(&check(&outside), "outside its interval"));
        // Other benchmarks' ratios are not sample medians.
        let flat = r#"{ "benchmark": "micro_components", "flat_traversal":
            { "pointer_ns": 2e4, "flat_ns": 1e4, "speedup": 2.0, "identical": true } }"#;
        assert!(check(flat).is_empty());
    }

    fn recurring(cold_cost: f64, final_cost: f64, cold_frac: f64, warm_frac: f64) -> Value {
        let num = Value::from_f64;
        lynceus_bench::object([
            ("benchmark", Value::Str("recurring".to_owned())),
            ("runs_chained", Value::from_u64(3)),
            (
                "cells",
                Value::Arr(vec![
                    lynceus_bench::object([
                        ("cost_to_target", num(cold_cost)),
                        ("first_decision_candidates", Value::from_u64(67)),
                        ("first_decision_cut", Value::from_u64(0)),
                        ("first_decision_prune_fraction", num(cold_frac)),
                    ]),
                    lynceus_bench::object([
                        ("cost_to_target", num(final_cost)),
                        ("first_decision_candidates", Value::from_u64(64)),
                        ("first_decision_cut", Value::from_u64(9)),
                        ("first_decision_prune_fraction", num(warm_frac)),
                    ]),
                ]),
            ),
            ("cold_cost_to_target", num(cold_cost)),
            ("final_cost_to_target", num(final_cost)),
            ("cold_first_decision_prune_fraction", num(cold_frac)),
            ("warm_first_decision_prune_fraction", num(warm_frac)),
            ("chain_reports_identical", Value::Bool(true)),
        ])
    }

    /// Re-parses `artifact` after replacing `from` with `to` in its text.
    fn edited(artifact: &Value, from: &str, to: &str) -> Value {
        doc(&artifact.to_json().replace(from, to))
    }

    #[test]
    fn coherent_recurring_chains_pass() {
        let chain = recurring(3.36, 0.0, 0.0, 0.140625);
        assert!(check(&chain.to_json()).is_empty());
    }

    #[test]
    fn flat_or_incoherent_recurring_chains_fail() {
        let never_improved = recurring(3.36, 3.36, 0.0, 0.14);
        assert!(mentions(
            &recurring_violations(&never_improved),
            "never improved"
        ));
        let never_armed = recurring(3.36, 0.0, 0.2, 0.2);
        assert!(mentions(&recurring_violations(&never_armed), "never armed"));
        let out_of_range = recurring(3.36, 0.0, 0.0, 1.5);
        assert!(mentions(
            &recurring_violations(&out_of_range),
            "outside [0, 1]"
        ));
        let good = recurring(3.36, 0.0, 0.0, 0.14);
        let single = edited(&good, "\"runs_chained\":3", "\"runs_chained\":1");
        assert!(mentions(
            &recurring_violations(&single),
            "never exercises transfer"
        ));
        let overcut = edited(
            &good,
            "\"first_decision_cut\":9",
            "\"first_decision_cut\":99",
        );
        assert!(mentions(
            &recurring_violations(&overcut),
            "cut 99 > candidates 64"
        ));
        let unasserted = edited(&good, "chain_reports_identical", "gone");
        assert!(mentions(
            &recurring_violations(&unasserted),
            "stopped asserting"
        ));
        let unusable = edited(&good, "\"cost_to_target\":0", "\"cost_to_target\":\"NaN\"");
        assert!(mentions(&recurring_violations(&unusable), "not a number"));
        let bare = doc(r#"{ "benchmark": "recurring" }"#);
        let violations = recurring_violations(&bare);
        assert!(mentions(&violations, "no runs_chained"));
        assert!(mentions(&violations, "endpoints not both recorded"));
        assert!(recurring_violations(&doc(r#"{ "benchmark": "fig6_lookahead" }"#)).is_empty());
    }
}
