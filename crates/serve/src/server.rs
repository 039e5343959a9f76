//! The HTTP server: a listener, a small pool of handler threads, a session
//! registry mapping wire ids to core sessions, and one drain thread
//! streaming terminal outcomes out of the [`TuningService`].
//!
//! # Endpoints (wire v1)
//!
//! | Method & path                  | Purpose                                        |
//! |--------------------------------|------------------------------------------------|
//! | `POST /v1/sessions`            | Submit a session spec → `202` with the id, or `503` + `Retry-After` when admission sheds |
//! | `GET /v1/sessions/{id}`        | Status snapshot; `?wait=1` long-polls until terminal |
//! | `GET /v1/sessions/{id}/report` | The optimization report (`409` while live)     |
//! | `GET /v1/sessions/{id}/receipts` | The decision-receipt trail (`409` while live) |
//! | `GET /v1/sessions/{id}/outcome`  | The full versioned outcome (`409` while live) |
//! | `DELETE /v1/sessions/{id}`     | Cancel                                         |
//! | `GET /v1/stats`                | Admission + scheduler load counters            |
//! | `POST /v1/flush`               | Forward held sessions (hold mode) to the service |
//!
//! # Determinism contract
//!
//! The wire changes *where* a spec is submitted from, never what it
//! computes: a session submitted over HTTP produces the bit-identical
//! report and receipt trail of the same spec run solo in-process
//! (`tests/http_conformance.rs` enforces this across thread counts).
//! Oracles never cross the wire — a spec names an oracle in the server's
//! [`OracleFactory`] registry, so the byte stream carries only plain data
//! and a malformed peer can be rejected before anything is built.

use crate::admission::{Admission, AdmissionPolicy};
use crate::http::{read_request, HttpError, HttpLimits, Request, Response};
use crate::json::Value;
use crate::wire;
use lynceus_core::{
    CostOracle, DecisionReceipt, KnowledgeStore, SessionError, SessionId, SessionOutcome,
    SessionSpec, SessionStatus, TuningService,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Resolves the oracle named in a wire spec. Returning `None` rejects the
/// submission with a 400 before admission is consulted.
pub type OracleFactory = Arc<dyn Fn(&str) -> Option<Box<dyn CostOracle>> + Send + Sync>;

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker-thread budget of the underlying [`TuningService`].
    pub service_threads: usize,
    /// HTTP handler threads (each serves one connection at a time).
    pub handler_threads: usize,
    /// Admission policy (bounded live-session queue).
    pub admission: AdmissionPolicy,
    /// Request parsing limits.
    pub limits: HttpLimits,
    /// Read timeout per request, the half-open-connection guard: a peer
    /// that stops mid-request is answered with 408 and dropped.
    pub read_timeout_ms: u64,
    /// Accept-and-hold mode: admitted sessions are registered but not
    /// forwarded to the service until `POST /v1/flush`. This makes
    /// admission decisions exactly reproducible (no completions race the
    /// burst) — used by the conformance suite and the load bench.
    pub hold_sessions: bool,
    /// Cross-run knowledge store, attached to the underlying service so
    /// specs carrying a `job_key` warm-start from (and harvest back into)
    /// it. `None` disables the recurring-job layer entirely.
    pub knowledge: Option<Arc<dyn KnowledgeStore>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("service_threads", &self.service_threads)
            .field("handler_threads", &self.handler_threads)
            .field("admission", &self.admission)
            .field("limits", &self.limits)
            .field("read_timeout_ms", &self.read_timeout_ms)
            .field("hold_sessions", &self.hold_sessions)
            .field("knowledge", &self.knowledge.as_ref().map(|_| "<store>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            service_threads: 2,
            handler_threads: 4,
            admission: AdmissionPolicy::default(),
            limits: HttpLimits::default(),
            read_timeout_ms: 2_000,
            hold_sessions: false,
            knowledge: None,
        }
    }
}

/// One registry entry, keyed by wire session id (assignment order).
enum SessionState {
    /// Admitted in hold mode; not yet forwarded to the service.
    Held(Box<SessionSpec>),
    /// Forwarded; the core session is live under this id.
    Live(SessionId),
    /// Terminal; the outcome is served from here forever.
    Terminal {
        status: SessionStatus,
        receipts: Vec<DecisionReceipt>,
    },
}

struct SessionRecord {
    name: String,
    state: SessionState,
}

struct RegistryInner {
    records: Vec<SessionRecord>,
    /// Core [`SessionId`] index → wire id. Core ids are handed out in
    /// submission order and every submission happens under the registry
    /// lock, so this stays aligned by construction.
    core_map: Vec<usize>,
    /// Set by the drain thread once the service halts; long-pollers
    /// observe it instead of waiting forever.
    shutdown: bool,
}

struct Registry {
    inner: Mutex<RegistryInner>,
    /// Long-polls (`?wait=1`) park here; the drain thread notifies on
    /// every completion.
    done: Condvar,
}

struct ServerShared {
    service: Arc<TuningService>,
    registry: Registry,
    admission: Admission,
    factory: OracleFactory,
    limits: HttpLimits,
    read_timeout_ms: u64,
    hold_sessions: bool,
    stop: Mutex<bool>,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the listener, the handler threads and the underlying service.
pub struct Server {
    addr: SocketAddr,
    handler_threads: usize,
    shared: Arc<ServerShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds `127.0.0.1:<ephemeral>` and starts serving.
    pub fn start(config: ServerConfig, factory: OracleFactory) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut service = TuningService::with_threads(config.service_threads);
        if let Some(store) = config.knowledge {
            service = service.with_knowledge_store(store);
        }
        let service = Arc::new(service);
        let shared = Arc::new(ServerShared {
            service,
            registry: Registry {
                inner: Mutex::new(RegistryInner {
                    records: Vec::new(),
                    core_map: Vec::new(),
                    shutdown: false,
                }),
                done: Condvar::new(),
            },
            admission: Admission::new(config.admission),
            factory,
            limits: config.limits,
            read_timeout_ms: config.read_timeout_ms,
            hold_sessions: config.hold_sessions,
            stop: Mutex::new(false),
        });
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("lynceus-serve-drain".to_owned())
                    .spawn(move || run_drain(&shared))
                    // lint: allow(no-panic) -- OS thread exhaustion at server startup is unrecoverable; no connection is open yet
                    .expect("failed to spawn the outcome drain thread"),
            );
        }
        let listener = Arc::new(listener);
        for handler in 0..config.handler_threads.max(1) {
            let listener = Arc::clone(&listener);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("lynceus-serve-handler-{handler}"))
                    .spawn(move || run_handler(&listener, &shared))
                    // lint: allow(no-panic) -- OS thread exhaustion at server startup is unrecoverable; no connection is open yet
                    .expect("failed to spawn an HTTP handler thread"),
            );
        }
        Ok(Server {
            addr,
            handler_threads: config.handler_threads.max(1),
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (loopback, ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (e.g. to inspect [`TuningService::load`]).
    #[must_use]
    pub fn service(&self) -> &Arc<TuningService> {
        &self.shared.service
    }

    /// The admission gate's counters.
    #[must_use]
    pub fn admission_stats(&self) -> crate::admission::AdmissionStats {
        self.shared.admission.stats()
    }

    /// Stops accepting, joins every thread and halts the service.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        *crate::poison::lock(&self.shared.stop) = true;
        // Unblock every handler parked in accept(): each wake-up connection
        // is accepted, recognized as a shutdown signal and dropped.
        for _ in 0..self.handler_threads {
            let _ = TcpStream::connect(self.addr);
        }
        // Halting the service ends the drain thread, which flags the
        // registry as shut down and wakes any long-pollers.
        self.shared.service.halt();
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *crate::poison::lock(&self.threads));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The outcome drain: streams terminal outcomes from the service into the
/// registry until the service halts.
fn run_drain(shared: &ServerShared) {
    while let Some(outcome) = shared.service.take_next_outcome() {
        let SessionOutcome {
            id,
            status,
            receipts,
            ..
        } = outcome;
        let mut inner = crate::poison::lock(&shared.registry.inner);
        if let Some(&serve_id) = inner.core_map.get(id.0) {
            if let Some(record) = inner.records.get_mut(serve_id) {
                record.state = SessionState::Terminal { status, receipts };
            }
        }
        drop(inner);
        shared.admission.finish();
        shared.registry.done.notify_all();
    }
    let mut inner = crate::poison::lock(&shared.registry.inner);
    inner.shutdown = true;
    drop(inner);
    shared.registry.done.notify_all();
}

/// One handler thread: accept, serve the connection to completion, repeat.
fn run_handler(listener: &TcpListener, shared: &ServerShared) {
    loop {
        if *crate::poison::lock(&shared.stop) {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if *crate::poison::lock(&shared.stop) {
            return; // the stream was a shutdown wake-up; drop it
        }
        // Contain a panicking handler to its connection, exactly like the
        // service contains a panicking oracle to its session.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(stream, shared)
        }));
        drop(result);
    }
}

fn serve_connection(stream: TcpStream, shared: &ServerShared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(shared.read_timeout_ms.max(1))))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, &shared.limits) {
            Ok(request) => {
                let mut response = handle(shared, &request);
                if !request.keep_alive || *crate::poison::lock(&shared.stop) {
                    response.close = true;
                }
                response.write_to(&mut writer)?;
                if response.close {
                    return Ok(());
                }
            }
            Err(error) => {
                if let Some(response) = error_response(&error) {
                    let _ = response.write_to(&mut writer);
                }
                return Ok(());
            }
        }
    }
}

/// Maps a parse failure to its wire behavior. `None` closes silently (the
/// peer is gone or never spoke).
fn error_response(error: &HttpError) -> Option<Response> {
    match error {
        HttpError::ConnectionClosed | HttpError::Io(_) => None,
        HttpError::Timeout => Some(Response::error(408, "request timed out").closing()),
        HttpError::HeadTooLarge => Some(Response::error(431, "request head too large").closing()),
        HttpError::BodyTooLarge => Some(Response::error(413, "request body too large").closing()),
        HttpError::LengthRequired => {
            Some(Response::error(411, "content-length required").closing())
        }
        HttpError::UnsupportedVersion => Some(Response::error(505, "use HTTP/1.1").closing()),
        HttpError::BadRequest(message) => Some(Response::error(400, message).closing()),
    }
}

/// Routes one request.
fn handle(shared: &ServerShared, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "sessions"]) => submit(shared, request),
        ("GET", ["v1", "sessions", id]) => session_status(shared, id, request),
        ("DELETE", ["v1", "sessions", id]) => cancel(shared, id),
        ("GET", ["v1", "sessions", id, "report"]) => session_report(shared, id),
        ("GET", ["v1", "sessions", id, "receipts"]) => session_receipts(shared, id),
        ("GET", ["v1", "sessions", id, "outcome"]) => session_outcome(shared, id),
        ("GET", ["v1", "jobs", key]) => job_stats(shared, key),
        ("GET", ["v1", "stats"]) => stats(shared),
        ("POST", ["v1", "flush"]) => flush(shared),
        (
            _,
            ["v1", "sessions"]
            | ["v1", "sessions", _]
            | ["v1", "sessions", _, "report" | "receipts" | "outcome"]
            | ["v1", "jobs", _]
            | ["v1", "stats"]
            | ["v1", "flush"],
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such resource"),
    }
}

fn versioned(mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("v".to_owned(), Value::from_u64(wire::WIRE_VERSION))];
    all.append(&mut fields);
    Value::Obj(all)
}

fn submit(shared: &ServerShared, request: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    let value = match crate::json::parse(body) {
        Ok(value) => value,
        Err(error) => return Response::error(400, &format!("invalid JSON: {error}")),
    };
    let spec = match wire::decode_spec(&value) {
        Ok(spec) => spec,
        Err(error) => return Response::error(400, &error.0),
    };
    let Some(oracle) = (shared.factory)(&spec.oracle) else {
        return Response::error(400, &format!("unknown oracle {:?}", spec.oracle));
    };
    if let Err(retry_after) = shared.admission.try_admit() {
        return Response::error(503, "session shed: service at capacity")
            .with_header("Retry-After", retry_after.to_string());
    }
    let mut core_spec = SessionSpec::new(spec.name.clone(), spec.settings, oracle, spec.seed)
        .with_engine(spec.engine)
        .with_priority(spec.priority)
        .with_deadline(spec.deadline)
        .with_retry_policy(spec.retry);
    if let Some(limit) = spec.step_limit {
        core_spec = core_spec.with_step_limit(limit);
    }
    if let Some(key) = &spec.job_key {
        core_spec = core_spec.with_job_key(key.clone());
    }
    let mut inner = crate::poison::lock(&shared.registry.inner);
    let serve_id = inner.records.len();
    let state = if shared.hold_sessions {
        SessionState::Held(Box::new(core_spec))
    } else {
        let core_id = shared.service.submit(core_spec);
        inner.core_map.push(serve_id);
        SessionState::Live(core_id)
    };
    let held = matches!(state, SessionState::Held(_));
    inner.records.push(SessionRecord {
        name: spec.name.clone(),
        state,
    });
    drop(inner);
    Response::json(
        202,
        &versioned(vec![
            ("id".to_owned(), Value::from_usize(serve_id)),
            ("name".to_owned(), Value::Str(spec.name)),
            (
                "state".to_owned(),
                Value::Str(if held { "held" } else { "live" }.to_owned()),
            ),
        ]),
    )
}

fn parse_wire_id(raw: &str) -> Option<usize> {
    // Strict digits-only, so "1x" or "+1" is a 404 rather than a session.
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    raw.parse().ok()
}

fn state_name(state: &SessionState) -> &'static str {
    match state {
        SessionState::Held(_) => "held",
        SessionState::Live(_) => "live",
        SessionState::Terminal { .. } => "terminal",
    }
}

fn session_status(shared: &ServerShared, raw_id: &str, request: &Request) -> Response {
    let Some(id) = parse_wire_id(raw_id) else {
        return Response::error(404, "no such session");
    };
    let mut inner = crate::poison::lock(&shared.registry.inner);
    if inner.records.get(id).is_none() {
        return Response::error(404, "no such session");
    }
    if request.query_flag("wait") {
        loop {
            let terminal = matches!(
                inner.records.get(id).map(|r| &r.state),
                Some(SessionState::Terminal { .. })
            );
            if terminal || inner.shutdown {
                break;
            }
            inner = crate::poison::wait(&shared.registry.done, inner);
        }
    }
    let Some(record) = inner.records.get(id) else {
        return Response::error(404, "no such session");
    };
    let mut fields = vec![
        ("id".to_owned(), Value::from_usize(id)),
        ("name".to_owned(), Value::Str(record.name.clone())),
        (
            "state".to_owned(),
            Value::Str(state_name(&record.state).to_owned()),
        ),
    ];
    if let SessionState::Terminal { status, .. } = &record.state {
        fields.push(("status".to_owned(), wire::encode_status(status)));
    }
    Response::json(200, &versioned(fields))
}

fn with_terminal(
    shared: &ServerShared,
    raw_id: &str,
    reply: impl FnOnce(&SessionRecord, &SessionStatus, &[DecisionReceipt]) -> Response,
) -> Response {
    let Some(id) = parse_wire_id(raw_id) else {
        return Response::error(404, "no such session");
    };
    let inner = crate::poison::lock(&shared.registry.inner);
    match inner.records.get(id) {
        None => Response::error(404, "no such session"),
        Some(record) => match &record.state {
            SessionState::Terminal { status, receipts } => reply(record, status, receipts),
            SessionState::Held(_) | SessionState::Live(_) => {
                Response::error(409, "session is not terminal yet")
            }
        },
    }
}

fn session_report(shared: &ServerShared, raw_id: &str) -> Response {
    with_terminal(shared, raw_id, |_, status, _| match status {
        SessionStatus::Finished(report) => Response::json(
            200,
            &versioned(vec![
                ("partial".to_owned(), Value::Bool(false)),
                ("report".to_owned(), wire::encode_report(report)),
            ]),
        ),
        SessionStatus::Failed {
            partial: Some(report),
            ..
        } => Response::json(
            200,
            &versioned(vec![
                ("partial".to_owned(), Value::Bool(true)),
                ("report".to_owned(), wire::encode_report(report)),
            ]),
        ),
        SessionStatus::Failed { partial: None, .. } | SessionStatus::Suspended { .. } => {
            Response::error(404, "the session produced no report")
        }
    })
}

fn session_receipts(shared: &ServerShared, raw_id: &str) -> Response {
    with_terminal(shared, raw_id, |_, _, receipts| {
        Response::json(
            200,
            &versioned(vec![(
                "receipts".to_owned(),
                Value::Arr(receipts.iter().map(wire::encode_receipt).collect()),
            )]),
        )
    })
}

fn session_outcome(shared: &ServerShared, raw_id: &str) -> Response {
    let Some(id) = parse_wire_id(raw_id) else {
        return Response::error(404, "no such session");
    };
    with_terminal(shared, raw_id, |record, status, receipts| {
        let outcome = SessionOutcome {
            id: SessionId(id),
            name: record.name.clone(),
            status: status.clone(),
            receipts: receipts.to_vec(),
        };
        Response::json(200, &wire::encode_outcome(&outcome))
    })
}

fn cancel(shared: &ServerShared, raw_id: &str) -> Response {
    let Some(id) = parse_wire_id(raw_id) else {
        return Response::error(404, "no such session");
    };
    let mut inner = crate::poison::lock(&shared.registry.inner);
    let Some(record) = inner.records.get_mut(id) else {
        return Response::error(404, "no such session");
    };
    match &record.state {
        SessionState::Held(_) => {
            record.state = SessionState::Terminal {
                status: SessionStatus::Failed {
                    error: SessionError::Cancelled,
                    partial: None,
                },
                receipts: Vec::new(),
            };
            drop(inner);
            shared.admission.finish();
            shared.registry.done.notify_all();
            Response::json(
                200,
                &versioned(vec![("cancelled".to_owned(), Value::Bool(true))]),
            )
        }
        SessionState::Live(core_id) => {
            let core_id = *core_id;
            // Lock order is registry → core everywhere, so calling into the
            // service while holding the registry lock cannot deadlock.
            if shared.service.cancel(core_id) {
                Response::json(
                    202,
                    &versioned(vec![("cancelled".to_owned(), Value::Bool(true))]),
                )
            } else {
                Response::error(
                    409,
                    "cancellation is already pending or the session just finished",
                )
            }
        }
        SessionState::Terminal { .. } => Response::error(409, "session is already terminal"),
    }
}

/// `GET /v1/jobs/{key}` — the knowledge-stats snapshot for a recurring
/// job: how many runs have harvested into the store, the job's ensemble
/// seed, and how much prior evidence the next run will replay. `404`
/// when the key has never harvested (or no store is attached), so a
/// client can distinguish "cold next run" without decoding anything.
fn job_stats(shared: &ServerShared, key: &str) -> Response {
    let Some(knowledge) = shared.service.job_knowledge(key) else {
        return Response::error(404, "no knowledge for that job key");
    };
    Response::json(
        200,
        &versioned(vec![
            ("job_key".to_owned(), Value::Str(knowledge.job_key.clone())),
            ("runs".to_owned(), Value::from_u64(knowledge.runs)),
            (
                "ensemble_seed".to_owned(),
                Value::from_u64(knowledge.ensemble_seed),
            ),
            (
                "observations".to_owned(),
                Value::from_usize(knowledge.observations.len()),
            ),
        ]),
    )
}

fn stats(shared: &ServerShared) -> Response {
    let admission = shared.admission.stats();
    let load = shared.service.load();
    let held = {
        let inner = crate::poison::lock(&shared.registry.inner);
        inner
            .records
            .iter()
            .filter(|record| matches!(record.state, SessionState::Held(_)))
            .count()
    };
    Response::json(
        200,
        &versioned(vec![
            (
                "admission".to_owned(),
                Value::Obj(vec![
                    ("submitted".to_owned(), Value::from_u64(admission.submitted)),
                    ("admitted".to_owned(), Value::from_u64(admission.admitted)),
                    ("shed".to_owned(), Value::from_u64(admission.shed)),
                    ("live".to_owned(), Value::from_usize(admission.live)),
                    ("held".to_owned(), Value::from_usize(held)),
                ]),
            ),
            (
                "service".to_owned(),
                Value::Obj(vec![
                    ("submitted".to_owned(), Value::from_usize(load.submitted)),
                    ("ready".to_owned(), Value::from_usize(load.ready)),
                    ("running".to_owned(), Value::from_usize(load.running)),
                    ("live".to_owned(), Value::from_usize(load.live)),
                    (
                        "undelivered".to_owned(),
                        Value::from_usize(load.undelivered),
                    ),
                    ("dispatches".to_owned(), Value::from_u64(load.dispatches)),
                ]),
            ),
        ]),
    )
}

fn flush(shared: &ServerShared) -> Response {
    let mut inner = crate::poison::lock(&shared.registry.inner);
    let mut flushed = 0usize;
    for serve_id in 0..inner.records.len() {
        let is_held = matches!(
            inner.records.get(serve_id).map(|r| &r.state),
            Some(SessionState::Held(_))
        );
        if !is_held {
            continue;
        }
        // Swap the spec out, forward it, and record the live id. The
        // placeholder is unobservable: the registry lock is held throughout.
        let placeholder = SessionState::Live(SessionId(usize::MAX));
        if let Some(record) = inner.records.get_mut(serve_id) {
            if let SessionState::Held(spec) = std::mem::replace(&mut record.state, placeholder) {
                let core_id = shared.service.submit(*spec);
                inner.core_map.push(serve_id);
                if let Some(record) = inner.records.get_mut(serve_id) {
                    record.state = SessionState::Live(core_id);
                }
                flushed += 1;
            }
        }
    }
    drop(inner);
    Response::json(
        200,
        &versioned(vec![("flushed".to_owned(), Value::from_usize(flushed))]),
    )
}
