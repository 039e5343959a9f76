//! HTTP wire conformance: the serving layer must not cost a single bit.
//!
//! 1. **Wire-vs-solo bit-identity** — a session submitted over HTTP
//!    produces exactly the status, report and decision-receipt trail of
//!    the same spec run through a solo 1-thread [`TuningService`], across
//!    worker-thread counts `{1, 2, 8}` plus `LYNCEUS_TEST_THREADS` from
//!    the CI matrix.
//! 2. **Golden transcripts** — the wire format itself is pinned: literal
//!    request bytes in, literal status lines / headers / JSON bodies out.
//!    A formatting change that would silently break deployed clients
//!    fails here first.
//! 3. **Malformed input** — truncated bodies, invalid JSON, unknown
//!    fields, oversized payloads, half-open connections and a seeded
//!    garbage corpus all map to clean 4xx responses (or a silent close for
//!    peers that never spoke) with no panic and no effect on live
//!    sessions.
//! 4. **Deterministic admission** — a 2000-session burst against a held
//!    service admits exactly `max_live` sessions and sheds the rest with
//!    `503` + `Retry-After`, with coherent `admitted + shed == submitted`
//!    accounting.
//! 5. **Cancellation** — held, live, terminal and unknown sessions all
//!    answer `DELETE` with the documented status codes.

use lynceus::core::{
    CostOracle, OptimizerSettings, PathEngine, SessionSpec, SessionStatus, TableOracle,
    TuningService,
};
use lynceus::serve::client::Client;
use lynceus::serve::server::{OracleFactory, Server, ServerConfig};
use lynceus::serve::wire::{self, SpecRequest};
use lynceus::serve::{AdmissionPolicy, HttpLimits};
use lynceus::space::SpaceBuilder;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn valley_oracle(shift: f64) -> TableOracle {
    let space = SpaceBuilder::new()
        .numeric("x", (0..10).map(f64::from))
        .numeric("y", (0..4).map(f64::from))
        .build();
    TableOracle::from_fn(space, 1.0, move |f| {
        20.0 + (f[0] - shift).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
    })
}

fn settings(budget: f64, lookahead: usize) -> OptimizerSettings {
    OptimizerSettings {
        budget,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(3),
        lookahead,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    }
}

/// Oracle registry: `valley-<shift>` resolves server-side; nothing else
/// does. The wire never carries an oracle.
fn factory() -> OracleFactory {
    Arc::new(|name: &str| -> Option<Box<dyn CostOracle>> {
        let shift: f64 = name.strip_prefix("valley-")?.parse().ok()?;
        Some(Box::new(valley_oracle(shift)))
    })
}

/// The thread counts under test: the fixed matrix plus `LYNCEUS_TEST_THREADS`.
fn thread_matrix() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(extra) = std::env::var("LYNCEUS_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&extra) && extra > 0 {
            counts.push(extra);
        }
    }
    counts
}

/// The heterogeneous session mix submitted over the wire: shifts, seeds,
/// lookaheads and engines all vary.
fn spec_mix() -> Vec<SpecRequest> {
    (0..4u64)
        .map(|i| {
            let shift = 1.0 + (i % 5) as f64;
            let engine = match i % 3 {
                0 => PathEngine::BoundAndPrune,
                1 => PathEngine::Batched,
                _ => PathEngine::NaiveReference,
            };
            let mut spec = SpecRequest::new(
                format!("mix-{i}"),
                format!("valley-{shift}"),
                settings(350.0 + 40.0 * i as f64, (i % 2) as usize),
                i,
            );
            spec.engine = engine;
            spec.priority = (i as i64 * 5) % 7 - 3;
            spec.deadline = ((i * 13) % 6) as f64;
            spec
        })
        .collect()
}

/// Runs one wire spec through a solo 1-thread service — the bit-identity
/// reference.
fn solo_outcome(spec: &SpecRequest) -> (SessionStatus, Vec<lynceus::core::DecisionReceipt>) {
    let shift: f64 = spec
        .oracle
        .strip_prefix("valley-")
        .and_then(|s| s.parse().ok())
        .expect("mix oracles are valley oracles");
    let service = TuningService::with_threads(1);
    let core_spec = SessionSpec::new(
        spec.name.clone(),
        spec.settings.clone(),
        Box::new(valley_oracle(shift)),
        spec.seed,
    )
    .with_engine(spec.engine)
    .with_priority(spec.priority)
    .with_deadline(spec.deadline);
    service.submit(core_spec);
    let mut outcomes = service.run_until_idle();
    assert_eq!(outcomes.len(), 1);
    let outcome = outcomes.remove(0);
    (outcome.status, outcome.receipts)
}

#[test]
fn wire_sessions_match_solo_runs_bit_identically() {
    let specs = spec_mix();
    let references: Vec<_> = specs.iter().map(solo_outcome).collect();
    for threads in thread_matrix() {
        let server = Server::start(
            ServerConfig {
                service_threads: threads,
                handler_threads: 2,
                read_timeout_ms: 30_000,
                ..ServerConfig::default()
            },
            factory(),
        )
        .expect("server starts");
        let mut client = Client::connect(server.addr()).expect("client connects");
        let mut ids = Vec::new();
        for spec in &specs {
            let accepted = client
                .post("/v1/sessions", &wire::encode_spec(spec).to_json())
                .expect("submit succeeds");
            assert_eq!(accepted.status, 202, "{}", accepted.body);
            let body = accepted.json().expect("valid JSON");
            ids.push(body.get("id").and_then(|v| v.as_usize()).expect("an id"));
        }
        for (spec, (id, reference)) in specs.iter().zip(ids.iter().zip(&references)) {
            // Long-poll until terminal, then fetch every artifact.
            let status = client
                .get(&format!("/v1/sessions/{id}?wait=1"))
                .expect("status poll succeeds");
            assert_eq!(status.status, 200);
            let snapshot = status.json().expect("valid JSON");
            assert_eq!(
                snapshot.get("state").and_then(|v| v.as_str()),
                Some("terminal")
            );
            let wire_status = wire::decode_status(snapshot.get("status").expect("a status"))
                .expect("status decodes");
            assert_eq!(
                wire_status, reference.0,
                "wire status diverged from solo for {} at {threads} threads",
                spec.name
            );

            let outcome = client
                .get(&format!("/v1/sessions/{id}/outcome"))
                .expect("outcome fetch succeeds");
            assert_eq!(outcome.status, 200);
            let outcome = wire::decode_outcome(&outcome.json().expect("valid JSON"))
                .expect("outcome decodes");
            assert_eq!(outcome.name, spec.name);
            assert_eq!(
                outcome.status, reference.0,
                "wire outcome status diverged for {} at {threads} threads",
                spec.name
            );
            assert_eq!(
                outcome.receipts, reference.1,
                "wire receipt trail diverged for {} at {threads} threads",
                spec.name
            );

            let receipts = client
                .get(&format!("/v1/sessions/{id}/receipts"))
                .expect("receipts fetch succeeds");
            assert_eq!(receipts.status, 200);
            let receipts: Vec<_> = receipts
                .json()
                .expect("valid JSON")
                .get("receipts")
                .and_then(|v| v.as_arr().map(|a| a.to_vec()))
                .expect("a receipts array")
                .iter()
                .map(|r| wire::decode_receipt(r).expect("receipt decodes"))
                .collect();
            assert_eq!(receipts, reference.1);

            let report = client
                .get(&format!("/v1/sessions/{id}/report"))
                .expect("report fetch succeeds");
            match &reference.0 {
                SessionStatus::Finished(solo_report) => {
                    assert_eq!(report.status, 200);
                    let body = report.json().expect("valid JSON");
                    assert_eq!(body.get("partial").and_then(|v| v.as_bool()), Some(false));
                    let wire_report = wire::decode_report(body.get("report").expect("a report"))
                        .expect("report decodes");
                    assert_eq!(
                        &wire_report, solo_report,
                        "wire report diverged from solo for {} at {threads} threads",
                        spec.name
                    );
                }
                other => panic!("mix session {} did not finish: {other:?}", spec.name),
            }
        }
        server.shutdown();
    }
}

/// Writes literal request bytes and returns the raw response bytes (up to
/// EOF or until the peer would block past its own close).
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    // Half-close our sending side so the server's EOF terminates the read.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write half");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

#[test]
fn golden_transcripts_pin_the_wire_format() {
    let server = Server::start(
        ServerConfig {
            hold_sessions: true,
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");

    // The raw exchanges request "Connection: close" so the whole response,
    // connection framing included, is one literal transcript; keep-alive
    // responses are pinned separately below through the client.
    let not_found = raw_exchange(
        server.addr(),
        b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    let body = r#"{"v":1,"error":"no such resource"}"#;
    let expected = format!(
        "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    assert_eq!(String::from_utf8_lossy(&not_found), expected);

    // Submission transcript: literal spec JSON in, literal accept out. The
    // settings carry the two required constraints (budget, tmax) and inherit
    // the rest of the defaults.
    let spec = r#"{"v":1,"name":"gold","oracle":"valley-2","seed":7,"settings":{"budget":300,"tmax_seconds":1000000}}"#;
    let request = format!(
        "POST /v1/sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        spec.len(),
        spec
    );
    let accepted = raw_exchange(server.addr(), request.as_bytes());
    let body = r#"{"v":1,"id":0,"name":"gold","state":"held"}"#;
    let expected = format!(
        "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    assert_eq!(String::from_utf8_lossy(&accepted), expected);

    // Status snapshot of the held session, via the keep-alive client.
    let mut client = Client::connect(server.addr()).expect("client connects");
    let status = client.get("/v1/sessions/0").expect("status fetch");
    assert_eq!(status.status, 200);
    assert_eq!(status.header("connection"), Some("keep-alive"));
    assert_eq!(
        status.body,
        r#"{"v":1,"id":0,"name":"gold","state":"held"}"#
    );
    // Artifacts of a non-terminal session conflict.
    let report = client.get("/v1/sessions/0/report").expect("report fetch");
    assert_eq!(report.status, 409);
    assert_eq!(
        report.body,
        r#"{"v":1,"error":"session is not terminal yet"}"#
    );
    // Wrong method on a known path.
    let put = client
        .request("PUT", "/v1/sessions", Some("{}"))
        .expect("put");
    assert_eq!(put.status, 405);
    assert_eq!(put.body, r#"{"v":1,"error":"method not allowed"}"#);
    server.shutdown();
}

/// A deterministic xorshift64* byte stream for the garbage corpus.
struct GarbageRng(u64);

impl GarbageRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn malformed_input_fails_clean_and_spares_live_sessions() {
    let server = Server::start(
        ServerConfig {
            service_threads: 2,
            handler_threads: 4,
            limits: HttpLimits {
                max_head_bytes: 2048,
                max_body_bytes: 1024,
            },
            read_timeout_ms: 300,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");

    // A real session first — the storm below must not touch it.
    let live_spec = &spec_mix()[0];
    let reference = solo_outcome(live_spec);
    {
        let mut client = Client::connect(server.addr()).expect("client connects");
        let accepted = client
            .post("/v1/sessions", &wire::encode_spec(live_spec).to_json())
            .expect("submit succeeds");
        assert_eq!(accepted.status, 202);
    }

    let status_of = |raw: &[u8]| -> Option<u16> {
        let text = String::from_utf8_lossy(raw).into_owned();
        let code = text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()?;
        Some(code)
    };

    // Invalid JSON body.
    let bad_json = raw_exchange(
        server.addr(),
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
    );
    assert_eq!(status_of(&bad_json), Some(400));
    // Unknown field in an otherwise valid spec.
    let unknown = r#"{"v":1,"name":"u","oracle":"valley-2","seed":1,"settings":{},"zzz":1}"#;
    let request = format!(
        "POST /v1/sessions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        unknown.len(),
        unknown
    );
    let unknown = raw_exchange(server.addr(), request.as_bytes());
    assert_eq!(status_of(&unknown), Some(400));
    // Unknown oracle name.
    let alien = r#"{"v":1,"name":"u","oracle":"alien","seed":1,"settings":{}}"#;
    let request = format!(
        "POST /v1/sessions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        alien.len(),
        alien
    );
    let alien = raw_exchange(server.addr(), request.as_bytes());
    assert_eq!(status_of(&alien), Some(400));
    // Oversized payload: rejected from the declared length, body unread.
    let oversized = raw_exchange(
        server.addr(),
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 10000\r\n\r\n",
    );
    assert_eq!(status_of(&oversized), Some(413));
    // Oversized request head.
    let mut huge_head = b"GET /v1/stats HTTP/1.1\r\nX-Pad: ".to_vec();
    huge_head.extend(std::iter::repeat_n(b'a', 4096));
    huge_head.extend(b"\r\n\r\n");
    let huge = raw_exchange(server.addr(), &huge_head);
    assert_eq!(status_of(&huge), Some(431));
    // POST without a Content-Length.
    let lengthless = raw_exchange(server.addr(), b"POST /v1/sessions HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&lengthless), Some(411));
    // Wrong protocol version.
    let old = raw_exchange(server.addr(), b"GET /v1/stats HTTP/0.9\r\n\r\n");
    assert_eq!(status_of(&old), Some(505));

    // Truncated body: 40 bytes promised, 10 delivered, then the peer hangs.
    // The read timeout answers 408.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"v\":1,\"na")
        .expect("write truncated request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    assert_eq!(status_of(&response), Some(408));

    // Half-open mid-request-line.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"GET /v1/st").expect("write partial line");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    assert_eq!(status_of(&response), Some(408));

    // A peer that connects and never speaks is closed silently.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read EOF");
    assert!(response.is_empty());

    // Seeded garbage corpus: every blob gets a 4xx/5xx or a silent close,
    // never a hang past the timeout and never a panic.
    let mut rng = GarbageRng(0x1CDC_5000_CA51 ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..16 {
        let len = (rng.next() % 160 + 1) as usize;
        let blob: Vec<u8> = (0..len).map(|_| (rng.next() >> 32) as u8).collect();
        let response = raw_exchange(server.addr(), &blob);
        if let Some(code) = status_of(&response) {
            assert!((400..=599).contains(&code), "garbage got {code}");
        } else {
            assert!(response.is_empty(), "non-HTTP bytes in reply: {response:?}");
        }
    }

    // The server still serves, and the live session never noticed.
    let mut client = Client::connect(server.addr()).expect("client reconnects");
    let status = client
        .get("/v1/sessions/0?wait=1")
        .expect("status poll succeeds");
    assert_eq!(status.status, 200);
    let outcome = client
        .get("/v1/sessions/0/outcome")
        .expect("outcome fetch succeeds");
    let outcome =
        wire::decode_outcome(&outcome.json().expect("valid JSON")).expect("outcome decodes");
    assert_eq!(outcome.status, reference.0);
    assert_eq!(outcome.receipts, reference.1);
    let stats = client.get("/v1/stats").expect("stats fetch");
    let stats = stats.json().expect("valid JSON");
    let admission = stats.get("admission").expect("admission block");
    assert_eq!(admission.get("admitted").and_then(|v| v.as_u64()), Some(1));
    server.shutdown();
}

#[test]
fn a_2000_session_burst_sheds_deterministically() {
    let server = Server::start(
        ServerConfig {
            hold_sessions: true,
            admission: AdmissionPolicy {
                max_live: 64,
                retry_after_seconds: 7,
            },
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let spec = SpecRequest::new("burst", "valley-2", settings(300.0, 0), 11);
    let body = wire::encode_spec(&spec).to_json();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for _ in 0..2000 {
        let response = client.post("/v1/sessions", &body).expect("post succeeds");
        match response.status {
            202 => admitted += 1,
            503 => {
                assert_eq!(response.header("retry-after"), Some("7"));
                shed += 1;
            }
            other => panic!("burst submission answered {other}"),
        }
    }
    // Nothing can finish while held, so the outcome is exact, every run.
    assert_eq!(admitted, 64);
    assert_eq!(shed, 2000 - 64);
    let stats = client.get("/v1/stats").expect("stats fetch");
    let stats = stats.json().expect("valid JSON");
    let gate = stats.get("admission").expect("admission block");
    assert_eq!(gate.get("submitted").and_then(|v| v.as_u64()), Some(2000));
    assert_eq!(gate.get("admitted").and_then(|v| v.as_u64()), Some(64));
    assert_eq!(gate.get("shed").and_then(|v| v.as_u64()), Some(1936));
    assert_eq!(gate.get("live").and_then(|v| v.as_u64()), Some(64));
    assert_eq!(gate.get("held").and_then(|v| v.as_u64()), Some(64));
    server.shutdown();
}

#[test]
fn flush_forwards_held_sessions_bit_identically() {
    let specs = &spec_mix()[..2];
    let references: Vec<_> = specs.iter().map(solo_outcome).collect();
    let server = Server::start(
        ServerConfig {
            hold_sessions: true,
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for spec in specs {
        let accepted = client
            .post("/v1/sessions", &wire::encode_spec(spec).to_json())
            .expect("submit succeeds");
        assert_eq!(accepted.status, 202);
        let body = accepted.json().expect("valid JSON");
        assert_eq!(body.get("state").and_then(|v| v.as_str()), Some("held"));
    }
    let flushed = client.post("/v1/flush", "").expect("flush succeeds");
    assert_eq!(flushed.status, 200);
    assert_eq!(
        flushed
            .json()
            .expect("valid JSON")
            .get("flushed")
            .and_then(|v| v.as_u64()),
        Some(2)
    );
    for (id, reference) in references.iter().enumerate() {
        let status = client
            .get(&format!("/v1/sessions/{id}?wait=1"))
            .expect("status poll succeeds");
        assert_eq!(status.status, 200);
        let outcome = client
            .get(&format!("/v1/sessions/{id}/outcome"))
            .expect("outcome fetch succeeds");
        let outcome =
            wire::decode_outcome(&outcome.json().expect("valid JSON")).expect("outcome decodes");
        assert_eq!(outcome.status, reference.0);
        assert_eq!(outcome.receipts, reference.1);
    }
    server.shutdown();
}

#[test]
fn job_key_sessions_transfer_knowledge_identically_over_the_wire() {
    use lynceus::core::transfer::MemoryStore;
    use lynceus::core::KnowledgeStore;

    // Embedded reference: a 2-run recurring chain through an in-process
    // service with its own knowledge store.
    let spec_for = |run: u64| {
        SessionSpec::new(
            format!("wire-recurring-{run}"),
            settings(500.0, 1),
            Box::new(valley_oracle(4.0)),
            900 + run,
        )
        .with_job_key("nightly")
    };
    let store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let mut embedded = Vec::new();
    for run in 0..2u64 {
        let service = TuningService::with_threads(1).with_knowledge_store(Arc::clone(&store));
        service.submit(spec_for(run));
        let mut outcomes = service.run_until_idle();
        let outcome = outcomes.remove(0);
        embedded.push((outcome.status, outcome.receipts));
    }

    // The same chain over HTTP, against a server-owned store: run 2 must
    // warm-start from run 1's harvest exactly like the embedded path.
    let server = Server::start(
        ServerConfig {
            knowledge: Some(Arc::new(MemoryStore::new())),
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for run in 0..2u64 {
        let mut spec = SpecRequest::new(
            format!("wire-recurring-{run}"),
            "valley-4",
            settings(500.0, 1),
            900 + run,
        );
        spec.job_key = Some("nightly".to_owned());
        let accepted = client
            .post("/v1/sessions", &wire::encode_spec(&spec).to_json())
            .expect("submit succeeds");
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        // Run 2 may only be submitted after run 1 harvested, so wait for
        // the terminal state before moving on.
        let outcome = client
            .get(&format!("/v1/sessions/{run}?wait=1"))
            .and_then(|_| client.get(&format!("/v1/sessions/{run}/outcome")))
            .expect("outcome fetch succeeds");
        let outcome =
            wire::decode_outcome(&outcome.json().expect("valid JSON")).expect("outcome decodes");
        let reference = &embedded[run as usize];
        assert_eq!(
            outcome.status, reference.0,
            "wire run {run} status diverged from the embedded chain"
        );
        assert_eq!(
            outcome.receipts, reference.1,
            "wire run {run} receipt trail diverged from the embedded chain"
        );
    }

    // The knowledge-stats endpoint reflects the harvested record…
    let stats = client.get("/v1/jobs/nightly").expect("job stats fetch");
    assert_eq!(stats.status, 200);
    let stats = stats.json().expect("valid JSON");
    assert_eq!(stats.get("runs").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        stats.get("ensemble_seed").and_then(|v| v.as_u64()),
        Some(900)
    );
    assert!(stats.get("observations").and_then(|v| v.as_u64()) > Some(0));
    let fields: Vec<&str> = stats
        .as_obj()
        .expect("a JSON object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        fields,
        ["v", "job_key", "runs", "ensemble_seed", "observations"]
    );
    // …an unharvested key is a 404, and wrong methods are 405.
    assert_eq!(client.get("/v1/jobs/stranger").expect("fetch").status, 404);
    assert_eq!(
        client.delete("/v1/jobs/nightly").expect("delete").status,
        405
    );

    // Strictness is preserved around the new field: unknown fields still
    // reject, and a mistyped job_key rejects.
    for body in [
        r#"{"v":1,"name":"x","oracle":"valley-4","seed":1,"settings":{},"job_key":"k","zzz":1}"#,
        r#"{"v":1,"name":"x","oracle":"valley-4","seed":1,"settings":{},"job_key":7}"#,
    ] {
        let response = client.post("/v1/sessions", body).expect("post succeeds");
        assert_eq!(response.status, 400, "{body} must be rejected");
    }
    server.shutdown();
}

#[test]
fn cancellation_covers_every_session_state() {
    let server = Server::start(
        ServerConfig {
            hold_sessions: true,
            read_timeout_ms: 30_000,
            ..ServerConfig::default()
        },
        factory(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let spec = SpecRequest::new("doomed", "valley-2", settings(300.0, 0), 3);
    let accepted = client
        .post("/v1/sessions", &wire::encode_spec(&spec).to_json())
        .expect("submit succeeds");
    assert_eq!(accepted.status, 202);

    // Unknown ids (including non-numeric ones) are 404.
    assert_eq!(
        client.delete("/v1/sessions/99").expect("delete").status,
        404
    );
    assert_eq!(
        client.delete("/v1/sessions/0x").expect("delete").status,
        404
    );

    // A held session cancels immediately and terminally.
    let cancelled = client.delete("/v1/sessions/0").expect("delete succeeds");
    assert_eq!(cancelled.status, 200);
    let status = client.get("/v1/sessions/0").expect("status fetch");
    let snapshot = status.json().expect("valid JSON");
    assert_eq!(
        snapshot.get("state").and_then(|v| v.as_str()),
        Some("terminal")
    );
    let wire_status =
        wire::decode_status(snapshot.get("status").expect("a status")).expect("status decodes");
    assert!(
        matches!(
            wire_status,
            SessionStatus::Failed {
                error: lynceus::core::SessionError::Cancelled,
                partial: None,
            }
        ),
        "held cancel produced {wire_status:?}"
    );
    // It never ran, so it has no report and an empty receipt trail.
    assert_eq!(
        client.get("/v1/sessions/0/report").expect("report").status,
        404
    );
    // A second cancel conflicts.
    assert_eq!(client.delete("/v1/sessions/0").expect("delete").status, 409);

    // A live session accepts the cancellation request (or reports the race
    // against its own completion as a conflict), and lands terminal either
    // way with coherent admission accounting.
    let live = SpecRequest::new("running", "valley-3", settings(400.0, 1), 5);
    let accepted = client
        .post("/v1/sessions", &wire::encode_spec(&live).to_json())
        .expect("submit succeeds");
    assert_eq!(accepted.status, 202);
    let flushed = client.post("/v1/flush", "").expect("flush succeeds");
    assert_eq!(flushed.status, 200);
    let response = client.delete("/v1/sessions/1").expect("delete succeeds");
    assert!(
        matches!(response.status, 202 | 409),
        "live cancel answered {}",
        response.status
    );
    let status = client
        .get("/v1/sessions/1?wait=1")
        .expect("status poll succeeds");
    let snapshot = status.json().expect("valid JSON");
    assert_eq!(
        snapshot.get("state").and_then(|v| v.as_str()),
        Some("terminal")
    );
    let wire_status =
        wire::decode_status(snapshot.get("status").expect("a status")).expect("status decodes");
    match wire_status {
        SessionStatus::Failed {
            error: lynceus::core::SessionError::Cancelled,
            partial,
        } => assert!(partial.is_some(), "a started session keeps its partial"),
        SessionStatus::Finished(_) => {} // it beat the cancellation — fine
        other => panic!("live cancel produced {other:?}"),
    }
    // Both sessions released their admission slots.
    let stats = client.get("/v1/stats").expect("stats fetch");
    let gate = stats.json().expect("valid JSON");
    let gate = gate.get("admission").expect("admission block");
    assert_eq!(gate.get("live").and_then(|v| v.as_u64()), Some(0));
    server.shutdown();
}
