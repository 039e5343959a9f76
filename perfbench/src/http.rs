//! The http-recurring workload: an in-process `serve::server::Server` with
//! a knowledge store, driven by a closed loop of client connections. Each
//! client submits the next spec, long-polls it, fetches its report and
//! receipts, and submits again. Specs are lookahead-0 Scout/CherryPick
//! sessions carrying a job key, so HTTP, wire/JSON, scheduling and the
//! knowledge store carry the session rather than the engine.

use crate::client::{Connection, Response};
use crate::oracle::{CallLog, StampingOracle};
use crate::quality::Quality;
use crate::replay;
use crate::session::{self, identical, ms, Pass, SessionRecord};
use crate::stats::Reservoir;
use crate::stores::{Counters, CountingKnowledge};
use crate::trace::{self, Layer};
use crate::Args;
use lynceus_core::transfer::{self, KnowledgeStore};
use lynceus_core::{
    CostOracle, DecisionReceipt, OptimizationReport, OptimizerSettings, SessionOutcome,
    SessionSpec, TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use lynceus_serve::server::{OracleFactory, Server, ServerConfig};
use lynceus_serve::wire::{self, SpecRequest};
use lynceus_serve::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Runs of one job key before the key is retired: one cold start and two
/// warm ones, whatever the server's speed.
const ROUNDS_PER_CYCLE: usize = 3;
/// Rounds of the job list every pass serves over HTTP and checks against
/// the in-process run.
const CHECK_ROUNDS: usize = 5;
/// Fetched report bodies kept for the wire/JSON replay.
const BODY_SAMPLE: usize = 256;

type Logs = Arc<Mutex<BTreeMap<u64, Arc<CallLog>>>>;

pub struct Http {
    datasets: Arc<Vec<LookupDataset>>,
    settings: Vec<OptimizerSettings>,
    clients: usize,
    server: Server,
    knowledge: Arc<CountingKnowledge>,
    logs: Logs,
}

/// One client-side round trip.
#[derive(Debug, Clone, Copy)]
struct Trip {
    sent: u64,
    head_at: u64,
    body_at: u64,
    bytes: usize,
}

impl From<&Response> for Trip {
    fn from(r: &Response) -> Self {
        Self {
            sent: r.sent,
            head_at: r.head_at,
            body_at: r.body_at,
            bytes: r.bytes,
        }
    }
}

/// Submit, wait, report and receipts round trips of one session.
struct Exchange {
    record: SessionRecord,
    trips: Vec<Trip>,
    report_body: Vec<u8>,
}

/// What the clients hand in as their sessions finish.
#[derive(Default)]
struct Collector {
    pass: Pass,
    /// Submit, wait, report and receipts round trips.
    trips: [Reservoir; 4],
    head_to_body: Reservoir,
    response_bytes: usize,
    responses: usize,
    bodies: Vec<(Vec<u8>, OptimizationReport)>,
    first_start: u64,
    last_end: u64,
}

impl Collector {
    fn add(
        &mut self,
        http: &Http,
        spec: &session::Spec,
        result: Result<Exchange, String>,
        keep: bool,
    ) {
        let dataset = &http.datasets[spec.job];
        let mut record = match result {
            Ok(exchange) => {
                for (k, trip) in exchange.trips.iter().enumerate() {
                    self.trips[k].push(ms(trip.sent, trip.body_at));
                    self.head_to_body.push(ms(trip.head_at, trip.body_at));
                    self.response_bytes += trip.bytes;
                    self.responses += 1;
                }
                if let (true, Some(report)) =
                    (self.bodies.len() < BODY_SAMPLE, &exchange.record.report)
                {
                    self.bodies.push((exchange.report_body, report.clone()));
                }
                exchange.record
            }
            Err(error) => SessionRecord {
                error: Some(error),
                ..SessionRecord::default()
            },
        };
        record.index = spec.index;
        record.job = spec.job;
        record.seed = spec.seed;
        let pass = &mut self.pass;
        if let Some(error) = &record.error {
            pass.errors += 1;
            pass.problems
                .push(format!("session {}: {error}", spec.index));
        } else {
            if self.first_start == 0 || record.start < self.first_start {
                self.first_start = record.start;
            }
            self.last_end = self.last_end.max(record.end);
        }
        if let Some(report) = &record.report {
            pass.audit(dataset, spec.index, report);
        }
        pass.timing.add(&record);
        if keep {
            pass.sessions.push(record);
        }
    }
}

fn oracle_name(job: usize, session: u64) -> String {
    format!("j{job}.s{session}")
}

fn parse_oracle_name(name: &str) -> Option<(usize, u64)> {
    let (job, session) = name.strip_prefix('j')?.split_once(".s")?;
    Some((job.parse().ok()?, session.parse().ok()?))
}

pub fn setup() -> Result<Http, String> {
    let mut datasets = catalog::scout_datasets();
    datasets.extend(catalog::cherrypick_datasets());
    let datasets = Arc::new(datasets);
    let settings = datasets.iter().map(|d| session::settings(d, 0)).collect();
    let logs: Logs = Arc::default();
    let factory: OracleFactory = {
        let datasets = Arc::clone(&datasets);
        let logs = Arc::clone(&logs);
        Arc::new(move |name: &str| {
            let (job, session) = parse_oracle_name(name)?;
            let dataset = datasets.get(job)?.clone();
            let log = Arc::clone(
                logs.lock()
                    .expect("oracle logs poisoned")
                    .entry(session)
                    .or_default(),
            );
            Some(Box::new(StampingOracle::new(dataset, log, session)) as Box<dyn CostOracle>)
        })
    };
    let clients = session::workers();
    let knowledge = Arc::new(CountingKnowledge::default());
    let config = ServerConfig {
        service_threads: clients,
        handler_threads: clients,
        knowledge: Some(Arc::clone(&knowledge) as Arc<dyn KnowledgeStore>),
        ..ServerConfig::default()
    };
    let server = Server::start(config, factory).map_err(|e| format!("server start: {e}"))?;
    let http = Http {
        datasets,
        settings,
        clients,
        server,
        knowledge,
        logs,
    };
    // Warm-up: one keyless session over a fresh connection.
    let spec = session::spec(session::WARMUP_SEED, http.datasets.len(), 0);
    let request = SpecRequest::new(
        "warmup",
        oracle_name(spec.job, trace::UNTRACED),
        http.settings[spec.job].clone(),
        spec.seed,
    );
    let mut conn = Connection::connect(http.server.addr()).map_err(|e| format!("connect: {e}"))?;
    http.exchange(&mut conn, &request, trace::UNTRACED)?;
    Ok(http)
}

fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response body is not UTF-8".to_owned())?;
    json::parse(text).map_err(|e| format!("response body is not JSON: {e}"))
}

fn expect_ok(response: &Response, want: u16, what: &str) -> Result<(), String> {
    if response.status == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: HTTP {} {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ))
    }
}

impl Http {
    /// Runs one session over the connection: from the POST being sent until
    /// its receipts are decoded.
    fn exchange(
        &self,
        conn: &mut Connection,
        request: &SpecRequest,
        session: u64,
    ) -> Result<Exchange, String> {
        let body = wire::encode_spec(request).to_json();
        let root = trace::scope(Layer::Client, "session", session);
        let io = |e: std::io::Error| format!("transport: {e}");
        let submitted = {
            let _span = trace::scope(Layer::Http, "submit", session);
            conn.request("POST", "/v1/sessions", body.as_bytes())
                .map_err(io)?
        };
        expect_ok(&submitted, 202, "submit")?;
        let id = {
            let _span = trace::scope(Layer::Wire, "parse_ack", session);
            parse(&submitted.body)?
                .get("id")
                .and_then(Value::as_usize)
                .ok_or("submit: no session id")?
        };
        let waited = {
            let _span = trace::scope(Layer::Http, "wait", session);
            conn.request("GET", &format!("/v1/sessions/{id}?wait=1"), b"")
                .map_err(io)?
        };
        expect_ok(&waited, 200, "wait")?;
        let finished = {
            let _span = trace::scope(Layer::Wire, "parse_status", session);
            let status = parse(&waited.body)?;
            if status.get("state").and_then(Value::as_str) != Some("terminal") {
                return Err("wait returned before the session ended".to_owned());
            }
            status
                .get("status")
                .and_then(|s| s.get("kind"))
                .and_then(Value::as_str)
                == Some("finished")
        };
        let reported = {
            let _span = trace::scope(Layer::Http, "report", session);
            conn.request("GET", &format!("/v1/sessions/{id}/report"), b"")
                .map_err(io)?
        };
        let report = if reported.status == 200 {
            let _span = trace::scope(Layer::Wire, "decode_report", session);
            let value = parse(&reported.body)?;
            let report = value.get("report").ok_or("report: no report field")?;
            Some(wire::decode_report(report).map_err(|e| format!("report: {}", e.0))?)
        } else {
            None
        };
        let receipted = {
            let _span = trace::scope(Layer::Http, "receipts", session);
            conn.request("GET", &format!("/v1/sessions/{id}/receipts"), b"")
                .map_err(io)?
        };
        expect_ok(&receipted, 200, "receipts")?;
        let receipts = {
            let _span = trace::scope(Layer::Wire, "decode_receipts", session);
            parse(&receipted.body)?
                .get("receipts")
                .and_then(Value::as_arr)
                .ok_or("receipts: no receipts array")?
                .iter()
                .map(|r| wire::decode_receipt(r).map_err(|e| format!("receipt: {}", e.0)))
                .collect::<Result<Vec<DecisionReceipt>, String>>()?
        };
        let end = trace::now_ns();
        drop(root);
        let calls = self
            .logs
            .lock()
            .expect("oracle logs poisoned")
            .remove(&session)
            .map(|log| log.snapshot())
            .unwrap_or_default();
        let error = (!finished).then(|| "the session failed server-side".to_owned());
        Ok(Exchange {
            record: SessionRecord {
                start: submitted.sent,
                end,
                calls,
                report: if finished { report } else { None },
                receipts,
                error,
                ..SessionRecord::default()
            },
            trips: vec![
                Trip::from(&submitted),
                Trip::from(&waited),
                Trip::from(&reported),
                Trip::from(&receipted),
            ],
            report_body: reported.body,
        })
    }

    /// The job key of a spec: the job, scoped to its cycle of rounds.
    fn key(&self, job: usize, index: usize) -> String {
        let round = index / self.datasets.len();
        format!("{}#{}", self.datasets[job].name(), round / ROUNDS_PER_CYCLE)
    }

    /// The spec of the same job in the previous round of its cycle, which
    /// must finish before this one is submitted so that every run of a key
    /// warm-starts from the same history.
    fn predecessor(&self, seed: u64, spec: &session::Spec) -> Option<usize> {
        if spec.round.is_multiple_of(ROUNDS_PER_CYCLE) {
            return None;
        }
        let jobs = self.datasets.len();
        ((spec.round - 1) * jobs..spec.round * jobs)
            .find(|&i| session::spec(seed, jobs, i).job == spec.job)
    }

    fn request_for(&self, spec: &session::Spec) -> SpecRequest {
        let mut request = SpecRequest::new(
            format!("h-{}", spec.index),
            oracle_name(spec.job, spec.index as u64),
            self.settings[spec.job].clone(),
            spec.seed,
        );
        request.job_key = Some(self.key(spec.job, spec.index));
        request
    }

    pub fn pass(&self, args: &Args, traced: bool) -> Pass {
        let jobs = self.datasets.len();
        let prefix = jobs * CHECK_ROUNDS;
        let next = AtomicUsize::new(0);
        let done = (Mutex::new(BTreeSet::new()), Condvar::new());
        let collector = Mutex::new(Collector::default());
        let dispatches = self.server.service().load().dispatches;
        let cpu = session::process_cpu_ns();
        let start = trace::now_ns();
        let deadline = start + args.seconds * 1_000_000_000;
        std::thread::scope(|scope| {
            for _ in 0..self.clients {
                scope.spawn(|| {
                    let mut conn = Connection::connect(self.server.addr());
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= prefix && trace::now_ns() >= deadline {
                            break;
                        }
                        let spec = session::spec(args.seed, jobs, index);
                        if let Some(before) = self.predecessor(args.seed, &spec) {
                            let mut finished = done.0.lock().expect("done set poisoned");
                            while !finished.contains(&before) {
                                finished = done.1.wait(finished).expect("done set poisoned");
                            }
                        }
                        let request = self.request_for(&spec);
                        self.knowledge
                            .bind(request.job_key.as_deref().unwrap_or(""), index as u64);
                        let result = match &mut conn {
                            Ok(c) => self.exchange(c, &request, index as u64),
                            Err(e) => Err(format!("connect: {e}")),
                        };
                        let reconnect = result.is_err();
                        collector.lock().expect("collector poisoned").add(
                            self,
                            &spec,
                            result,
                            index < prefix,
                        );
                        done.0.lock().expect("done set poisoned").insert(index);
                        done.1.notify_all();
                        if reconnect {
                            conn = Connection::connect(self.server.addr());
                        }
                    }
                });
            }
        });
        let cpu_ns = session::process_cpu_ns() - cpu;
        let collector = collector.into_inner().expect("collector poisoned");
        let mut pass = collector.pass;
        pass.cpu_ns = cpu_ns;
        pass.wall_ns = collector.last_end.saturating_sub(collector.first_start);
        pass.sessions.sort_by_key(|s| s.index);
        self.check(args.seed, &mut pass);
        let completed = pass.timing.completed.max(1) as f64;
        let counters = &self.knowledge.counters;
        let saves = Counters::get(&counters.saves);
        let t = &collector.trips;
        let p50 = |r: &Reservoir| r.sample().median().unwrap_or(0.0);
        pass.layer.extend([
            ("serve.submit_ms.p50", p50(&t[0])),
            ("serve.wait_ms.p50", p50(&t[1])),
            ("serve.report_ms.p50", p50(&t[2])),
            ("serve.receipts_ms.p50", p50(&t[3])),
            ("serve.head_to_body_ms.p50", p50(&collector.head_to_body)),
            (
                "serve.response_bytes.mean",
                collector.response_bytes as f64 / collector.responses.max(1) as f64,
            ),
            ("transfer.loads", Counters::get(&counters.loads) as f64),
            ("transfer.hits", Counters::get(&counters.hits) as f64),
            ("transfer.saves", saves as f64),
            (
                "transfer.bytes.mean",
                Counters::get(&counters.saved_bytes) as f64 / saves.max(1) as f64,
            ),
            (
                "service.dispatches",
                (self.server.service().load().dispatches - dispatches) as f64 / completed,
            ),
        ]);
        if traced {
            let knowledge = replay::knowledge(
                &self
                    .knowledge
                    .loaded_sample
                    .lock()
                    .expect("sample poisoned"),
                &self.knowledge.saved_sample.lock().expect("sample poisoned"),
            );
            let wire = replay::wire(&collector.bodies);
            if knowledge.codec.mismatches + wire.mismatches > 0 {
                pass.problems.push(format!(
                    "replay: {} knowledge and {} wire round trips changed the data",
                    knowledge.codec.mismatches, wire.mismatches
                ));
            }
            pass.layer.extend([
                (
                    "transfer.replayed_obs.mean",
                    replay::mean(&knowledge.replayed_obs),
                ),
                (
                    "transfer.encode_us.p50",
                    replay::p50(&knowledge.codec.encode_us),
                ),
                (
                    "wire.encode_report_us.p50",
                    replay::p50(&wire.encode_report_us),
                ),
                (
                    "wire.decode_report_us.p50",
                    replay::p50(&wire.decode_report_us),
                ),
                (
                    "json.parse_ns_per_byte",
                    replay::p50(&wire.parse_ns_per_byte),
                ),
            ]);
        }
        pass
    }

    /// Runs the quality prefix of the spec sequence in process, one session
    /// at a time through a 1-lane `TuningService` with its own knowledge
    /// store.
    fn replay(&self, seed: u64) -> Vec<SessionOutcome> {
        let jobs = self.datasets.len();
        let service = TuningService::with_threads(1)
            .with_knowledge_store(Arc::new(transfer::MemoryStore::new()));
        (0..jobs * session::QUALITY_ROUNDS)
            .map(|index| {
                let spec = session::spec(seed, jobs, index);
                service.submit(
                    SessionSpec::new(
                        format!("h-{index}"),
                        self.settings[spec.job].clone(),
                        Box::new(self.datasets[spec.job].clone()),
                        spec.seed,
                    )
                    .with_job_key(self.key(spec.job, index)),
                );
                service
                    .run_until_idle()
                    .pop()
                    .expect("every replayed session delivers an outcome")
            })
            .collect()
    }

    /// The sessions served over HTTP must report and receipt exactly as
    /// their in-process runs. Quality covers the whole prefix, served or
    /// not, since it does not depend on the transport.
    fn check(&self, seed: u64, pass: &mut Pass) {
        let replayed = self.replay(seed);
        let jobs = self.datasets.len();
        let mut quality = Quality::default();
        for (index, outcome) in replayed.iter().enumerate() {
            let dataset = &self.datasets[session::spec(seed, jobs, index).job];
            let local = outcome.report();
            match pass.sessions.get(index).filter(|r| r.index == index) {
                Some(served) => {
                    quality.add(dataset, served.report.as_ref());
                    let same = served.error.is_none()
                        && identical(&local, &served.report.as_ref())
                        && identical(&outcome.receipts, &served.receipts);
                    if !same {
                        pass.problems.push(format!(
                            "session {index}: HTTP report or receipts differ from the in-process run"
                        ));
                    }
                }
                None => quality.add(dataset, local),
            }
        }
        pass.quality = quality;
    }

    pub fn datasets(&self) -> &[LookupDataset] {
        &self.datasets
    }

    pub fn settings(&self) -> &[OptimizerSettings] {
        &self.settings
    }
}
