//! Replays that time one layer on the data a measured pass produced: the
//! surrogate on each decision's real training set, the codecs on the blobs
//! the stores saw, and the JSON/wire decoders on the bodies the client
//! fetched. They run after the pass, in the traced run only.

use crate::session::SessionRecord;
use crate::stats::Sample;
use crate::trace::now_ns;
use lynceus_core::transfer::JobKnowledge;
use lynceus_core::{CostOracle, OptimizationReport, OptimizerSettings, SessionCheckpoint};
use lynceus_datasets::LookupDataset;
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Surrogate, TrainingSet};
use std::hint::black_box;

/// Most decision points replayed through the surrogate per run.
const MAX_DECISION_POINTS: usize = 400;

fn us(from: u64) -> f64 {
    (now_ns() - from) as f64 / 1e3
}

#[derive(Debug, Default)]
pub struct Learners {
    pub fit_us: Vec<f64>,
    pub refit_us: Vec<f64>,
    pub predict_ns_per_row: Vec<f64>,
    pub train_rows: Vec<f64>,
}

/// Replays each sampled decision of the sessions through
/// `BaggingEnsemble::{fit, refit_with, predict_rows}`: fit on the runs
/// profiled before the decision, refit with the run it chose, predict the
/// configurations still untested. The ensemble has as many trees as the
/// job's settings give the optimizer.
pub fn learners(
    datasets: &[LookupDataset],
    settings: &[OptimizerSettings],
    sessions: &[SessionRecord],
) -> Learners {
    let points: usize = sessions
        .iter()
        .filter_map(|s| {
            s.report
                .as_ref()
                .map(|r| r.explorations.len() - s.bootstrap_runs())
        })
        .sum();
    let stride = points.div_ceil(MAX_DECISION_POINTS).max(1);
    let mut out = Learners::default();
    let mut point = 0usize;
    for session in sessions {
        let Some(report) = &session.report else {
            continue;
        };
        let dataset = &datasets[session.job];
        let space = dataset.space();
        let candidates = dataset.candidates();
        let rows = FeatureMatrix::from_rows(
            space.dims(),
            candidates.iter().map(|&id| space.features_of(id)),
        );
        let row_of = |id| candidates.iter().position(|&c| c == id);
        for d in session.bootstrap_runs()..report.explorations.len() {
            point += 1;
            if !point.is_multiple_of(stride) || d == 0 {
                continue;
            }
            let mut training = TrainingSet::new(space.dims());
            for e in &report.explorations[..d] {
                training.push(space.features_of(e.id), e.observation.cost);
            }
            let explored: Vec<usize> = report.explorations[..d]
                .iter()
                .filter_map(|e| row_of(e.id))
                .collect();
            let untested: Vec<usize> = (0..candidates.len())
                .filter(|r| !explored.contains(r))
                .collect();
            let mut ensemble = BaggingEnsemble::with_seed(
                settings[session.job].ensemble_size,
                session.index as u64,
            );
            let t = now_ns();
            ensemble.fit(&training);
            out.fit_us.push(us(t));
            let next = &report.explorations[d];
            let features = space.features_of(next.id);
            let t = now_ns();
            black_box(ensemble.refit_with(&[(&features, next.observation.cost)]));
            out.refit_us.push(us(t));
            let mut predictions = Vec::new();
            let t = now_ns();
            ensemble.predict_rows(&rows, &untested, &mut predictions);
            let elapsed = (now_ns() - t) as f64;
            black_box(&predictions);
            if !untested.is_empty() {
                out.predict_ns_per_row.push(elapsed / untested.len() as f64);
            }
            out.train_rows.push(d as f64);
        }
    }
    out
}

#[derive(Debug, Default)]
pub struct Codec {
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    /// Blobs that did not re-encode to the same bytes.
    pub mismatches: usize,
}

/// Decodes and re-encodes each saved checkpoint.
pub fn checkpoints(blobs: &[Vec<u8>]) -> Codec {
    let mut out = Codec::default();
    for blob in blobs {
        let t = now_ns();
        let decoded = SessionCheckpoint::decode(blob);
        out.decode_us.push(us(t));
        match decoded {
            Ok(checkpoint) => {
                let t = now_ns();
                let bytes = checkpoint.encode();
                out.encode_us.push(us(t));
                out.mismatches += usize::from(bytes != *blob);
            }
            Err(_) => out.mismatches += 1,
        }
    }
    out
}

#[derive(Debug, Default)]
pub struct Knowledge {
    pub codec: Codec,
    pub replayed_obs: Vec<f64>,
}

/// Decodes each loaded knowledge record (the observations a warm start
/// replays) and re-encodes each saved one.
pub fn knowledge(loaded: &[Vec<u8>], saved: &[Vec<u8>]) -> Knowledge {
    let mut out = Knowledge::default();
    for blob in loaded {
        match JobKnowledge::decode(blob) {
            Ok(k) => out.replayed_obs.push(k.observations.len() as f64),
            Err(_) => out.codec.mismatches += 1,
        }
    }
    for blob in saved {
        let t = now_ns();
        let decoded = JobKnowledge::decode(blob);
        out.codec.decode_us.push(us(t));
        match decoded {
            Ok(k) => {
                let t = now_ns();
                let bytes = k.encode();
                out.codec.encode_us.push(us(t));
                out.codec.mismatches += usize::from(bytes != *blob);
            }
            Err(_) => out.codec.mismatches += 1,
        }
    }
    out
}

#[derive(Debug, Default)]
pub struct Wire {
    pub encode_report_us: Vec<f64>,
    pub decode_report_us: Vec<f64>,
    pub parse_ns_per_byte: Vec<f64>,
    pub mismatches: usize,
}

/// Parses each fetched `/report` body, decodes the report and encodes it
/// back; the decoded report must equal the one the client used.
pub fn wire(bodies: &[(Vec<u8>, OptimizationReport)]) -> Wire {
    let mut out = Wire::default();
    for (body, expected) in bodies {
        let Ok(text) = std::str::from_utf8(body) else {
            out.mismatches += 1;
            continue;
        };
        let t = now_ns();
        let parsed = lynceus_serve::json::parse(text);
        let elapsed = (now_ns() - t) as f64;
        out.parse_ns_per_byte
            .push(elapsed / body.len().max(1) as f64);
        let Some(value) = parsed.ok().and_then(|v| v.get("report").cloned()) else {
            out.mismatches += 1;
            continue;
        };
        let t = now_ns();
        let decoded = lynceus_serve::wire::decode_report(&value);
        out.decode_report_us.push(us(t));
        match decoded {
            Ok(report) => {
                let t = now_ns();
                black_box(lynceus_serve::wire::encode_report(&report));
                out.encode_report_us.push(us(t));
                out.mismatches += usize::from(report != *expected);
            }
            Err(_) => out.mismatches += 1,
        }
    }
    out
}

/// Median of a replay sample, 0 when the workload produced none.
pub fn p50(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median().unwrap_or(0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).mean().unwrap_or(0.0)
}
