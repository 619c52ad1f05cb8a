//! End-to-end tests: a real `Server` on a loopback ephemeral port, real
//! TCP clients, covering the issue's acceptance criteria: correct
//! results (byte-identical to a local engine run), prepared-statement
//! flow, load shedding (429/503), body cap (413), budget trips (422),
//! client-disconnect cancellation (499 path), metrics reconciliation and
//! graceful drain.

use gsql_serve::client::Client;
use gsql_serve::json::{write_json, Json};
use gsql_serve::{handlers, Server, ServerConfig};
use gsql_core::stdlib;
use gsql_core::Engine;
use pgraph::generators::diamond_chain;
use pgraph::value::Value;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A query whose runtime scales with `n` (one governed WHILE iteration
/// per count), used to hold the concurrency gate open and to exercise
/// deadlines and cancellation.
const SPIN: &str = "CREATE QUERY Spin (int n) {
  SumAccum<int> @@s;
  WHILE @@s < n LIMIT 1000000000 DO @@s += 1; END;
  PRINT @@s;
}";

fn start(tweak: impl FnOnce(&mut ServerConfig)) -> (Server, std::net::SocketAddr) {
    let mut cfg = ServerConfig::default();
    tweak(&mut cfg);
    let server =
        Server::start(cfg, pgraph::wal::LiveGraph::in_memory(diamond_chain(12).0)).expect("server starts");
    let addr = server.local_addr();
    (server, addr)
}

fn qn_body(tgt: &str) -> String {
    let mut q = String::new();
    write_json(&mut q, &Json::Str(stdlib::qn("V", "E")));
    format!(r#"{{"query":{q},"args":{{"srcName":"v0","tgtName":"{tgt}"}}}}"#)
}

/// Serializes the deterministic result of a local engine run through the
/// same writer the server uses, for byte-identical comparison.
fn local_result(src: &str, args: &[(&str, Value)]) -> String {
    let graph = diamond_chain(12).0;
    let out = Engine::new(&graph).run_text(src, args).expect("local run");
    let mut s = String::new();
    write_json(&mut s, &handlers::result_json(&out));
    s
}

fn result_bytes(resp: &gsql_serve::client::ClientResponse) -> String {
    let j = resp.json().expect("response is JSON");
    assert_eq!(j.get("ok"), Some(&Json::Bool(true)), "body: {j}");
    let mut s = String::new();
    write_json(&mut s, j.get("result").expect("has result"));
    s
}

#[test]
fn query_round_trip_is_byte_identical_to_local_engine() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);

    for tgt in ["v4", "v7", "v4"] {
        let resp = c.post_json("/query", &[], &qn_body(tgt)).unwrap();
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        let expected = local_result(
            &stdlib::qn("V", "E"),
            &[("srcName", Value::Str("v0".into())), ("tgtName", Value::Str(tgt.into()))],
        );
        assert_eq!(result_bytes(&resp), expected, "server and local results must match");
    }

    // Same text three times: first parse is a miss, the rest are hits.
    let m = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(m.get("plan_cache_misses").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("plan_cache_hits").and_then(Json::as_i64), Some(2));
    server.shutdown();
}

#[test]
fn prepared_statement_flow_reexecutes_with_fresh_args() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    let mut q = String::new();
    write_json(&mut q, &Json::Str(stdlib::qn("V", "E")));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    let j = resp.json().unwrap();
    let id = j.get("id").and_then(Json::as_str).expect("prepare returns id").to_string();
    assert_eq!(j.get("query").and_then(Json::as_str), Some("Qn"));

    for tgt in ["v2", "v5", "v9", "v2"] {
        let body = format!(r#"{{"args":{{"srcName":"v0","tgtName":"{tgt}"}}}}"#);
        let resp = c.post_json(&format!("/execute/{id}"), &[], &body).unwrap();
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        let expected = local_result(
            &stdlib::qn("V", "E"),
            &[("srcName", Value::Str("v0".into())), ("tgtName", Value::Str(tgt.into()))],
        );
        assert_eq!(result_bytes(&resp), expected);
    }

    let resp = c.post_json("/execute/00000000deadbeef", &[], "{}").unwrap();
    assert_eq!(resp.status, 404);
    server.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_without_reading() {
    let (server, addr) = start(|cfg| cfg.max_body_bytes = 1024);
    let mut c = Client::connect(addr).unwrap();
    let huge = format!(r#"{{"query":"{}"}}"#, "x".repeat(4096));
    let resp = c.post_json("/query", &[], &huge).unwrap();
    assert_eq!(resp.status, 413);
    assert_eq!(
        server.shared().metrics.rejected_body.load(Ordering::Relaxed),
        1,
        "413 must be counted"
    );
    server.shutdown();
}

#[test]
fn saturated_gate_sheds_429_while_metrics_stay_responsive() {
    let (server, addr) = start(|cfg| {
        cfg.max_concurrent_queries = 1;
        cfg.default_budget.max_while_iters = None;
    });
    let shared = server.shared().clone();

    // Hold the single execution slot with a long-running query, fired
    // on a raw socket we can abandon later (the watchdog then cancels
    // it, so this test does not wait out a two-billion-iteration loop).
    let body = r#"{"query":"CREATE QUERY Spin (int n) {\n  SumAccum<int> @@s;\n  WHILE @@s < n LIMIT 1000000000 DO @@s += 1; END;\n  PRINT @@s;\n}","args":{"n":2000000000}}"#;
    use std::io::Write as _;
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    slow.write_all(
        format!("POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len())
            .as_bytes(),
    )
    .unwrap();
    slow.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.gate.inflight() == 0 {
        assert!(Instant::now() < deadline, "slow query never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The gate is full: a second query sheds with 429...
    let mut c = Client::connect(addr).unwrap();
    let resp = c.post_json("/query", &[], &qn_body("v3")).unwrap();
    assert_eq!(resp.status, 429, "body: {}", String::from_utf8_lossy(&resp.body));
    assert!(resp.header("retry-after").is_some());
    // ...but /metrics and /healthz bypass the gate and stay live.
    let m = c.get("/metrics").unwrap();
    assert_eq!(m.status, 200);
    assert_eq!(m.json().unwrap().get("rejected_busy").and_then(Json::as_i64), Some(1));
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    // Abandon the slow query; the watchdog cancels it and frees the
    // slot, after which the same query text is admitted again.
    drop(slow);
    let deadline = Instant::now() + Duration::from_secs(10);
    let admitted = loop {
        let resp = c.post_json("/query", &[], &qn_body("v3")).unwrap();
        match resp.status {
            200 => break true,
            429 if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => break false,
        }
    };
    assert!(admitted, "slot must free after the holder is cancelled");
    server.shutdown();
}

#[test]
fn tiny_deadline_trips_422_with_a_report() {
    let (server, addr) = start(|cfg| cfg.default_budget.max_while_iters = None);
    let mut c = Client::connect(addr).unwrap();
    let body = r#"{"query":"CREATE QUERY Spin (int n) {\n  SumAccum<int> @@s;\n  WHILE @@s < n LIMIT 1000000000 DO @@s += 1; END;\n  PRINT @@s;\n}","args":{"n":30000000}}"#;
    let resp = c.post_json("/query", &[("x-gsql-deadline-ms", "5")], body).unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    let err = j.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline-exceeded"));
    assert!(err.get("report").is_some(), "budget trips carry a resource report");
    server.shutdown();
}

#[test]
fn header_budgets_cannot_exceed_server_ceilings() {
    let (server, addr) = start(|cfg| {
        cfg.default_budget.max_while_iters = Some(1000);
    });
    let mut c = Client::connect(addr).unwrap();
    // The client asks for a *larger* iteration budget than the server
    // default; the clamp keeps the server's tighter ceiling.
    let mut q = String::new();
    write_json(&mut q, &Json::Str(SPIN.to_string()));
    let body = format!(r#"{{"query":{q},"args":{{"n":1000000}}}}"#);
    let resp = c
        .post_json("/query", &[("x-gsql-max-while-iters", "999999999")], &body)
        .unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    assert_eq!(
        j.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("iteration-limit")
    );
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_the_running_query() {
    let (server, addr) = start(|cfg| {
        cfg.default_budget.max_while_iters = None;
        // If cancellation were broken, the deadline backstop keeps this
        // test fast — and turns it into a counter mismatch below.
        cfg.default_budget.deadline = Some(Duration::from_secs(20));
    });
    let shared = server.shared().clone();

    // Fire the request on a raw socket without waiting for the
    // response, then vanish mid-execution.
    let body = r#"{"query":"CREATE QUERY Spin (int n) {\n  SumAccum<int> @@s;\n  WHILE @@s < n LIMIT 1000000000 DO @@s += 1; END;\n  PRINT @@s;\n}","args":{"n":2000000000}}"#;
    use std::io::Write as _;
    let head = format!(
        "POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(head.as_bytes()).unwrap();
    raw.flush().unwrap();
    let started = Instant::now();
    while shared.gate.inflight() == 0 {
        assert!(started.elapsed() < Duration::from_secs(10), "query never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(raw); // disconnect mid-execution

    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.metrics.cancelled.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never cancelled the abandoned query (failed={}, completed={})",
            shared.metrics.failed.load(Ordering::Relaxed),
            shared.metrics.completed.load(Ordering::Relaxed),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "cancellation must beat the 20s deadline backstop"
    );

    // Other clients are unaffected.
    let mut c = Client::connect(addr).unwrap();
    let resp = c.post_json("/query", &[], &qn_body("v5")).unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

/// Writes one `POST /query` on a raw socket.
fn post_raw(w: &mut std::net::TcpStream, body: &str) {
    use std::io::Write as _;
    let msg = format!(
        "POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    w.write_all(msg.as_bytes()).unwrap();
}

/// Reads one response from a raw socket; returns its status.
fn read_raw_status(r: &mut impl std::io::BufRead) -> u16 {
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let mut len = 0usize;
    loop {
        line.clear();
        r.read_line(&mut line).unwrap();
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("content-length: ") {
            len = v.parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).unwrap();
    status
}

#[test]
fn keep_alive_connection_rearms_for_each_query() {
    let (server, addr) = start(|cfg| {
        cfg.default_budget.max_while_iters = None;
        cfg.default_budget.deadline = Some(Duration::from_secs(20));
    });
    let shared = server.shared().clone();

    // Two ordinary round trips on one keep-alive connection: each run
    // arms the connection and disarms it before its response.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    for tgt in ["v3", "v5"] {
        post_raw(&mut raw, &qn_body(tgt));
        assert_eq!(read_raw_status(&mut reader), 200);
    }

    // The third request on the same connection runs long; vanishing
    // mid-run must cancel it, so the connection's entry armed again.
    let spin = r#"{"query":"CREATE QUERY Spin (int n) {\n  SumAccum<int> @@s;\n  WHILE @@s < n LIMIT 1000000000 DO @@s += 1; END;\n  PRINT @@s;\n}","args":{"n":2000000000}}"#;
    post_raw(&mut raw, spin);
    let started = Instant::now();
    while shared.gate.inflight() == 0 {
        assert!(started.elapsed() < Duration::from_secs(10), "query never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(reader);
    drop(raw);

    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.metrics.cancelled.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "watchdog never cancelled the abandoned query");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shared.metrics.cancelled.load(Ordering::Relaxed), 1);
    assert_eq!(shared.metrics.completed.load(Ordering::Relaxed), 2);
    assert_eq!(shared.metrics.failed.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn metrics_reconcile_and_drain_is_graceful() {
    let (server, addr) = start(|_| {});
    let shared = server.shared().clone();
    let mut ok = 0u64;
    let mut bad = 0u64;

    let mut c = Client::connect(addr).unwrap();
    for i in 0..10 {
        let resp = if i % 3 == 2 {
            // A parse error: admitted never, failed never (rejected at
            // the plan cache before execution).
            c.post_json("/query", &[], r#"{"query":"CREATE QUERY broken ("}"#).unwrap()
        } else {
            c.post_json("/query", &[], &qn_body("v6")).unwrap()
        };
        if resp.status == 200 {
            ok += 1;
        } else {
            bad += 1;
        }
    }
    assert_eq!(ok, 7);
    assert_eq!(bad, 3);

    let m = c.get("/metrics").unwrap().json().unwrap();
    let get = |k: &str| m.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!(
        get("admitted"),
        get("completed") + get("failed") + get("cancelled"),
        "admission invariant: {m}"
    );
    assert_eq!(get("completed"), ok as i64, "completed == client-observed 200s");
    let latency_count = m.get("latency").and_then(|l| l.get("count")).and_then(Json::as_i64);
    assert_eq!(latency_count, Some(7));

    server.shutdown();
    // After drain every counter is settled; re-check the invariant on
    // the shared struct directly (the listener is gone).
    let admitted = shared.metrics.admitted.load(Ordering::Relaxed);
    let done = shared.metrics.completed.load(Ordering::Relaxed)
        + shared.metrics.failed.load(Ordering::Relaxed)
        + shared.metrics.cancelled.load(Ordering::Relaxed);
    assert_eq!(admitted, done);
    assert!(Client::connect(addr).is_err() || {
        // Some platforms accept briefly; any request must then fail.
        let mut c = Client::connect(addr).unwrap();
        c.get("/healthz").is_err()
    });
}

#[test]
fn explain_endpoint_matches_core_plan_and_shares_the_cache() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // The cost-annotated plan the core crate computes locally for the
    // same text against the same seed graph — Engine::explain is the
    // lowering execution itself uses.
    let src = stdlib::qn("V", "E");
    let q = gsql_core::parse_query(&src).unwrap();
    let graph = diamond_chain(12).0;
    let plan = Engine::new(&graph)
        .with_semantics(gsql_core::PathSemantics::AllShortestPaths)
        .explain(&q)
        .unwrap();

    let resp = c.post_json("/explain", &[], &qn_body("v4")).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(j.get("query").and_then(Json::as_str), Some("Qn"));
    // Byte-identical to `gsql_shell --explain` / Engine::explain, and
    // cost-annotated from the live snapshot's statistics.
    assert_eq!(j.get("text").and_then(Json::as_str), Some(plan.render().as_str()));
    assert!(
        j.get("text").and_then(Json::as_str).unwrap().contains("est_rows="),
        "server plans carry cost estimates: {j}"
    );
    // The embedded plan JSON round-trips through the server's parser and
    // carries one op object per rendered line.
    let plan_j = j.get("plan").expect("has plan");
    let ops = {
        fn count_ops(j: &Json) -> usize {
            match j {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| usize::from(k == "op") + count_ops(v))
                    .sum(),
                Json::Arr(items) => items.iter().map(count_ops).sum(),
                _ => 0,
            }
        }
        count_ops(plan_j)
    };
    assert_eq!(ops, plan.render().lines().count());

    // An EXPLAIN-prefixed /query returns the same plan text, and the
    // stripped text shares the /explain cache entry (hit, not miss).
    let mut body = String::new();
    write_json(&mut body, &Json::Str(format!("EXPLAIN {src}")));
    let resp2 = c.post_json("/query", &[], &format!(r#"{{"query":{body}}}"#)).unwrap();
    assert_eq!(resp2.status, 200);
    let j2 = resp2.json().unwrap();
    assert_eq!(j2.get("text"), j.get("text"));
    let m = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(m.get("plan_cache_misses").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("plan_cache_hits").and_then(Json::as_i64), Some(1));
    server.shutdown();
}

#[test]
fn cross_mode_cache_entries_are_not_executable_by_id() {
    // Mode-prefix normalization makes `EXPLAIN <q>`, `CHECK <q>` and
    // `<q>` share one fingerprint. None of those ad-hoc paths pin the
    // entry, so leaking the fingerprint as an /execute id must 404 —
    // otherwise an explain-only or lint-rejected text becomes executable
    // without ever passing the lint-on-prepare gate.
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // Seed the cache through EXPLAIN-prefixed /query (never executed).
    let src = stdlib::qn("V", "E");
    let mut body = String::new();
    write_json(&mut body, &Json::Str(format!("EXPLAIN {src}")));
    let resp = c.post_json("/query", &[], &format!(r#"{{"query":{body}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    // The id /prepare would have returned for the stripped text.
    let leaked = format!("{:016x}", gsql_core::prepared::fingerprint(&src));
    let resp = c.post_json(&format!("/execute/{leaked}"), &[], "{}").unwrap();
    assert_eq!(resp.status, 404, "unprepared cache entry served: {}", String::from_utf8_lossy(&resp.body));

    // A lint-rejected /prepare parses (and caches) the text but must not
    // make it executable either.
    let bad = "CREATE QUERY q () {
  SumAccum<int> @cnt;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM t.@cnt = s.rank;
  PRINT S[S.@cnt];
}";
    let mut q = String::new();
    write_json(&mut q, &Json::Str(bad.to_string()));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 422, "lint gate refuses the prepare");
    let rejected = format!("{:016x}", gsql_core::prepared::fingerprint(bad));
    let resp = c.post_json(&format!("/execute/{rejected}"), &[], "{}").unwrap();
    assert_eq!(resp.status, 404, "lint-rejected text served: {}", String::from_utf8_lossy(&resp.body));

    // An actually-prepared statement still resolves.
    let mut qs = String::new();
    write_json(&mut qs, &Json::Str(src.clone()));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{qs}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(id, leaked, "prepare pins the same fingerprint id");
    let body = r#"{"params":{"srcName":"v0","tgtName":"v4"}}"#;
    let resp = c.post_json(&format!("/execute/{id}"), &[], body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    server.shutdown();
}

/// 100 distinct parameter bindings for Qn on diamond_chain(12): every
/// real vertex name plus synthetic misses (empty results are results
/// too — the bytes must still match).
fn hundred_targets() -> Vec<String> {
    let mut targets: Vec<String> = (0..=12).map(|i| format!("v{i}")).collect();
    for i in 0..12 {
        targets.push(format!("d{i}a"));
        targets.push(format!("d{i}b"));
    }
    let mut i = 0;
    while targets.len() < 100 {
        targets.push(format!("none{i}"));
        i += 1;
    }
    targets
}

fn parameterized_reuse_roundtrip(parallelism: usize) {
    let (server, addr) = start(|cfg| cfg.parallelism = parallelism);
    let mut c = Client::connect(addr).unwrap();

    let mut q = String::new();
    write_json(&mut q, &Json::Str(stdlib::qn("V", "E")));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();

    for tgt in hundred_targets() {
        let body = format!(r#"{{"params":{{"srcName":"v0","tgtName":"{tgt}"}}}}"#);
        let resp = c.post_json(&format!("/execute/{id}"), &[], &body).unwrap();
        assert_eq!(resp.status, 200, "tgt {tgt}: {}", String::from_utf8_lossy(&resp.body));
        let via_prepared = result_bytes(&resp);
        // A fresh unprepared /query with the same binding must be
        // byte-identical.
        let resp = c.post_json("/query", &[], &qn_body(&tgt)).unwrap();
        assert_eq!(resp.status, 200, "tgt {tgt}");
        assert_eq!(via_prepared, result_bytes(&resp), "tgt {tgt}");
        // ...and so must a local engine run.
        let expected = local_result(
            &stdlib::qn("V", "E"),
            &[("srcName", Value::Str("v0".into())), ("tgtName", Value::from(tgt.as_str()))],
        );
        assert_eq!(via_prepared, expected, "tgt {tgt}");
    }
    server.shutdown();
}

#[test]
fn prepared_reuse_100_bindings_byte_identical_parallelism_1() {
    parameterized_reuse_roundtrip(1);
}

#[test]
fn prepared_reuse_100_bindings_byte_identical_parallelism_4() {
    parameterized_reuse_roundtrip(4);
}

#[test]
fn bad_param_bindings_are_refused_422_with_the_param_name() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    let mut q = String::new();
    write_json(&mut q, &Json::Str(stdlib::qn("V", "E")));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();

    // Missing param: tgtName unbound.
    let resp = c
        .post_json(&format!("/execute/{id}"), &[], r#"{"params":{"srcName":"v0"}}"#)
        .unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let err = resp.json().unwrap();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-param"));
    assert_eq!(err.get("param").and_then(Json::as_str), Some("tgtName"));
    assert_eq!(err.get("got").and_then(Json::as_str), Some("(missing)"));

    // Type mismatch: srcName is STRING, Int supplied.
    let resp = c
        .post_json(
            &format!("/execute/{id}"),
            &[],
            r#"{"params":{"srcName":7,"tgtName":"v4"}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let err = resp.json().unwrap();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad-param"));
    assert_eq!(err.get("param").and_then(Json::as_str), Some("srcName"));
    assert_eq!(err.get("expected").and_then(Json::as_str), Some("STRING"));
    assert_eq!(err.get("got").and_then(Json::as_str), Some("INT"));

    // Unknown extra binding.
    let resp = c
        .post_json(
            &format!("/execute/{id}"),
            &[],
            r#"{"params":{"srcName":"v0","tgtName":"v4","bogus":1}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 422);
    let err = resp.json().unwrap();
    assert_eq!(
        err.get("error").and_then(|e| e.get("param")).and_then(Json::as_str),
        Some("bogus")
    );

    // Bad-param refusals happen before admission: nothing was admitted
    // beyond the prepare-time lint run, and a correct binding still runs.
    let resp = c
        .post_json(
            &format!("/execute/{id}"),
            &[],
            r#"{"params":{"srcName":"v0","tgtName":"v4"}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn vertex_argument_outside_the_graph_is_a_400_naming_the_param() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();
    let mut q = String::new();
    write_json(
        &mut q,
        &Json::Str(
            "CREATE QUERY Q (vertex src) { S = {src}; R = SELECT t FROM S:s -(E>*)- V:t; PRINT R.size(); }"
                .into(),
        ),
    );
    for (src, status) in [(1_000_000, 400), (0, 200)] {
        let body = format!(r#"{{"query":{q},"args":{{"src":{{"vertex":{src}}}}}}}"#);
        let resp = c.post_json("/query", &[], &body).unwrap();
        assert_eq!(resp.status, status, "body: {}", String::from_utf8_lossy(&resp.body));
        if status == 400 {
            let err = resp.json().unwrap();
            let msg = err.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
            assert!(msg.is_some_and(|m| m.contains("parameter `src`")), "body: {err}");
        }
    }
    server.shutdown();
}

#[test]
fn lint_endpoint_and_prepare_gate() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // A clean query lints clean via POST /lint and shares the plan cache.
    let resp = c.post_json("/lint", &[], &qn_body("v4")).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    assert_eq!(j.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(j.get("query").and_then(Json::as_str), Some("Qn"));
    let lint = j.get("lint").expect("has lint section");
    assert_eq!(lint.get("errors").and_then(Json::as_i64), Some(0));
    assert_eq!(lint.get("warnings").and_then(Json::as_i64), Some(0));

    // The same text via /query is a cache hit: /lint parsed it already.
    let resp = c.post_json("/query", &[], &qn_body("v4")).unwrap();
    assert_eq!(resp.status, 200);
    let m = c.get("/metrics").unwrap().json().unwrap();
    assert_eq!(m.get("plan_cache_misses").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("plan_cache_hits").and_then(Json::as_i64), Some(1));

    // A multi-binding `=` write in ACCUM: A003 (Error) via /lint...
    let bad = "CREATE QUERY q () {
  SumAccum<int> @cnt;
  S = SELECT t FROM V:s -(E>)- V:t ACCUM t.@cnt = s.rank;
  PRINT S[S.@cnt];
}";
    let mut q = String::new();
    write_json(&mut q, &Json::Str(bad.to_string()));
    let resp = c.post_json("/lint", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 200);
    let j = resp.json().unwrap();
    let lint = j.get("lint").expect("has lint section");
    assert_eq!(lint.get("errors").and_then(Json::as_i64), Some(1));
    let code = lint
        .get("diagnostics")
        .and_then(|d| match d {
            Json::Arr(items) => items.first(),
            _ => None,
        })
        .and_then(|d| d.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("A003"));

    // ...the same via a CHECK-prefixed /query text...
    let mut qc = String::new();
    write_json(&mut qc, &Json::Str(format!("CHECK {bad}")));
    let resp = c.post_json("/query", &[], &format!(r#"{{"query":{qc}}}"#)).unwrap();
    assert_eq!(resp.status, 200, "CHECK reports, it does not fail the request");
    let j = resp.json().unwrap();
    assert_eq!(
        j.get("lint").and_then(|l| l.get("errors")).and_then(Json::as_i64),
        Some(1)
    );

    // ...and /prepare refuses it with 422 so the broken statement is
    // never pinned for /execute.
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    assert_eq!(
        j.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("lint")
    );
    assert!(j.get("lint").is_some(), "422 carries the diagnostics");

    // `x-gsql-lint: off` bypasses the gate (power users own the risk).
    let resp =
        c.post_json("/prepare", &[("x-gsql-lint", "off")], &format!(r#"{{"query":{q}}}"#)).unwrap();
    assert_eq!(resp.status, 200);

    // A warning-only query prepares by default but is refused under
    // `x-gsql-lint: strict` (A001: result discarded).
    let warn_q = "CREATE QUERY q2 () {
  SumAccum<int> @@n;
  S = SELECT v FROM V:v ACCUM @@n += 1;
}";
    let mut qw = String::new();
    write_json(&mut qw, &Json::Str(warn_q.to_string()));
    let resp = c.post_json("/prepare", &[], &format!(r#"{{"query":{qw}}}"#)).unwrap();
    assert_eq!(resp.status, 200, "warnings alone do not refuse a prepare");
    let resp = c
        .post_json("/prepare", &[("x-gsql-lint", "strict")], &format!(r#"{{"query":{qw}}}"#))
        .unwrap();
    assert_eq!(resp.status, 422, "strict mode refuses warnings");

    let m = c.get("/metrics").unwrap().json().unwrap();
    let lint_m = m.get("lint").expect("metrics has lint section");
    assert_eq!(lint_m.get("rejected").and_then(Json::as_i64), Some(2));
    assert!(lint_m.get("checks").and_then(Json::as_i64).unwrap() >= 4);
    server.shutdown();
}

#[test]
fn provably_over_budget_query_is_refused_pre_admission() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // The abstract interpreter proves this loop runs exactly 100
    // iterations (`WHILE true LIMIT 100`); under a request budget of 10
    // the governor trip is guaranteed, so the request is refused with
    // 422 *before* admission — it never occupies an execution slot.
    let spin = "CREATE QUERY Hot () {
  SumAccum<int> @@n;
  WHILE true LIMIT 100 DO @@n += 1; END;
  PRINT @@n;
}";
    let mut q = String::new();
    write_json(&mut q, &Json::Str(spin.to_string()));
    let body = format!(r#"{{"query":{q}}}"#);

    let resp = c.post_json("/query", &[("x-gsql-max-while-iters", "10")], &body).unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    let err = j.get("error").expect("has error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("provably-over-budget"));
    let msg = err.get("message").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains("100") && msg.contains("max_while_iters = 10"),
        "message names the proven bound and the budget: {msg}"
    );

    // The same text under a sufficient budget is admitted and runs.
    let resp = c.post_json("/query", &[], &body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));

    // /lint exposes the facts the gate consulted, schema-stable.
    let resp = c.post_json("/lint", &[], &body).unwrap();
    assert_eq!(resp.status, 200);
    let j = resp.json().unwrap();
    let facts = j.get("facts").expect("lint response has facts");
    assert_eq!(facts.get("min_while_iters").and_then(Json::as_i64), Some(100));

    // The rejection is counted separately from lint-gate refusals.
    let m = c.get("/metrics").unwrap().json().unwrap();
    let lint_m = m.get("lint").expect("metrics has lint section");
    assert_eq!(lint_m.get("proven_rejections").and_then(Json::as_i64), Some(1));
    assert_eq!(lint_m.get("rejected").and_then(Json::as_i64), Some(0));
    server.shutdown();
}

#[test]
fn profile_header_adds_a_reconciling_profile_section() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // Unprofiled and profiled runs of the same query: identical results.
    let plain = c.post_json("/query", &[], &qn_body("v6")).unwrap();
    assert_eq!(plain.status, 200);
    let profiled =
        c.post_json("/query", &[("x-gsql-profile", "1")], &qn_body("v6")).unwrap();
    assert_eq!(profiled.status, 200);
    assert_eq!(
        result_bytes(&plain),
        result_bytes(&profiled),
        "profiling must not change results"
    );
    let pj = profiled.json().unwrap();
    let profile = pj.get("profile").expect("profiled response has a profile section");
    let report = pj.get("report").expect("has report");

    // The profile root's counters reconcile with the ResourceReport.
    let root = profile.get("root").expect("profile has root");
    for key in ["vertices_touched", "edges_scanned"] {
        assert_eq!(
            root.get(key).and_then(Json::as_i64),
            report.get(key).and_then(Json::as_i64),
            "{key} must reconcile between profile root and report"
        );
    }
    assert!(root.get("vertices_touched").and_then(Json::as_i64).unwrap() > 0);

    // The plain response carries no profile section.
    assert!(plain.json().unwrap().get("profile").is_none());

    // A PROFILE-prefixed query text behaves like the header.
    let src = stdlib::qn("V", "E");
    let mut body = String::new();
    write_json(&mut body, &Json::Str(format!("PROFILE {src}")));
    let resp = c
        .post_json(
            "/query",
            &[],
            &format!(r#"{{"query":{body},"args":{{"srcName":"v0","tgtName":"v6"}}}}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.json().unwrap().get("profile").is_some());

    // /metrics folds per-operator totals from the profiled runs.
    let m = c.get("/metrics").unwrap().json().unwrap();
    let operators = m.get("operators").expect("metrics has operators");
    let query_calls = operators
        .get("query")
        .and_then(|o| o.get("calls"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert_eq!(query_calls, 2, "two profiled runs fold into operator totals");
    let resources = m.get("resources").expect("metrics has resources");
    assert!(resources.get("vertices_touched").and_then(Json::as_i64).unwrap() > 0);
    assert!(resources.get("edges_scanned").and_then(Json::as_i64).unwrap() > 0);
    server.shutdown();
}

/// A mutation statement batch: one vertex, one edge hanging it off v0.
/// diamond_chain(12) has 37 vertices (ids 0..=36), so the provisional id
/// of the inserted vertex is 37.
const MUTATE_SRC: &str = "CREATE QUERY AddW () {
  INSERT VERTEX V (name) VALUES (\"w0\");
  INSERT EDGE E FROM 0 TO 37;
}";

fn mutate_body() -> String {
    let mut q = String::new();
    write_json(&mut q, &Json::Str(MUTATE_SRC.to_string()));
    format!(r#"{{"query":{q}}}"#)
}

#[test]
fn mutate_commits_while_query_rejects_mutating_statements() {
    let (server, addr) = start(|_| {});
    let mut c = Client::connect(addr).unwrap();

    // A mutating query through the read path is refused before commit...
    let resp = c.post_json("/query", &[], &mutate_body()).unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    assert_eq!(
        j.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("mutating-query")
    );
    // ...and nothing changed.
    let before = server.shared().live.snapshot();
    assert_eq!(before.vertex_count(), diamond_chain(12).0.vertex_count());

    // The same text through /mutate commits and reports the batch.
    let resp = c.post_json("/mutate", &[], &mutate_body()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    let j = resp.json().unwrap();
    let m = j.get("mutation").expect("mutate response carries a mutation section");
    assert_eq!(m.get("ops").and_then(Json::as_i64), Some(2));
    assert_eq!(m.get("inserted_vertices").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("inserted_edges").and_then(Json::as_i64), Some(1));
    assert_eq!(m.get("durable"), Some(&Json::Bool(false)), "in-memory server");

    // Readers now see the new snapshot: Qn finds a path v0 -> w0, and
    // the result is byte-identical to a local engine run on a locally
    // mutated copy of the same seed graph.
    let resp = c.post_json("/query", &[], &qn_body("w0")).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    let expected = {
        let mut graph = diamond_chain(12).0;
        let out = Engine::new(&graph).run_text(MUTATE_SRC, &[]).unwrap();
        pgraph::mutate::apply_batch(&mut graph, &out.mutations).unwrap();
        let out = Engine::new(&graph)
            .run_text(
                &stdlib::qn("V", "E"),
                &[("srcName", Value::Str("v0".into())), ("tgtName", Value::Str("w0".into()))],
            )
            .unwrap();
        let mut s = String::new();
        write_json(&mut s, &handlers::result_json(&out));
        s
    };
    assert_eq!(result_bytes(&resp), expected);

    // Metrics: the mutate section counts the batch, the wal section
    // reports the non-durable backend, and the admission invariant
    // still reconciles (the 422 counted as failed).
    let m = c.get("/metrics").unwrap().json().unwrap();
    let mutate = m.get("mutate").expect("metrics has mutate section");
    assert_eq!(mutate.get("batches").and_then(Json::as_i64), Some(1));
    assert_eq!(mutate.get("ops").and_then(Json::as_i64), Some(2));
    assert_eq!(mutate.get("wal_errors").and_then(Json::as_i64), Some(0));
    let wal = m.get("wal").expect("metrics has wal section");
    assert_eq!(wal.get("durable"), Some(&Json::Bool(false)));
    assert_eq!(wal.get("read_only"), Some(&Json::Bool(false)));
    // Where the commit's time went: it was applied in memory, and an
    // in-memory server neither fsyncs nor checkpoints.
    let wal_count = |k: &str| wal.get(k).and_then(Json::as_i64).unwrap();
    assert!(wal_count("apply_ns") > 0, "{m}");
    assert_eq!(
        (wal_count("fsync_ns"), wal_count("checkpoints"), wal_count("checkpoint_ns")),
        (0, 0, 0)
    );
    let get = |k: &str| m.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!(get("admitted"), get("completed") + get("failed") + get("cancelled"));
    server.shutdown();
}

/// The real `gsql-serve` process. Dropping it kills the process, so a
/// failed assertion leaves no server running.
#[cfg(unix)]
struct Serve(std::process::Child);

#[cfg(unix)]
impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the real `gsql-serve` binary on an ephemeral port with `args`.
/// The child's stdin is kept open (closing it triggers a graceful drain).
#[cfg(unix)]
fn spawn_serve(args: &[&str]) -> (Serve, std::net::SocketAddr) {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gsql-serve"))
        .args(["--port", "0"])
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn gsql-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let serve = Serve(child);
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its port")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("gsql-serve listening on http://") {
            break rest.trim().parse().expect("addr parses");
        }
    };
    (serve, addr)
}

#[test]
#[cfg(unix)]
fn kill_nine_then_restart_recovers_byte_identical_results() {
    let dir = std::env::temp_dir().join(format!("gsql-e2e-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let durable =
        ["--graph", ":diamond12", "--data-dir", dir.to_str().unwrap(), "--wal-fsync", "always"];
    // Generation 1: seed, mutate durably, record query bytes, kill -9.
    let (serve, addr) = spawn_serve(&durable);
    let before_crash = {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.post_json("/mutate", &[], &mutate_body()).unwrap();
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        let j = resp.json().unwrap();
        let m = j.get("mutation").expect("mutation section");
        assert_eq!(m.get("durable"), Some(&Json::Bool(true)), "--data-dir commits are durable");
        let resp = c.post_json("/query", &[], &qn_body("w0")).unwrap();
        assert_eq!(resp.status, 200);
        result_bytes(&resp)
    };
    drop(serve); // SIGKILL: no drain, no final checkpoint

    // Generation 2: recovery replays the WAL suffix; the same query is
    // byte-identical to the pre-crash answer.
    let (serve, addr) = spawn_serve(&durable);
    {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.post_json("/query", &[], &qn_body("w0")).unwrap();
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        assert_eq!(result_bytes(&resp), before_crash, "recovery must be byte-identical");
        // The replay is visible in the wal metrics.
        let m = c.get("/metrics").unwrap().json().unwrap();
        let wal = m.get("wal").expect("wal section");
        assert_eq!(wal.get("durable"), Some(&Json::Bool(true)));
        assert!(
            wal.get("replayed").and_then(Json::as_i64).unwrap() >= 1,
            "the crash left a WAL suffix to replay: {m}"
        );
    }
    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shipped binary end to end, byte-identical results and reconciled
/// metrics through to a SIGTERM drain that exits 0.
#[test]
#[cfg(unix)]
fn the_binary_serves_and_drains_on_sigterm() {
    let (mut serve, addr) = spawn_serve(&["--graph", ":diamond30"]);
    let graph = diamond_chain(30).0;
    let engine = Engine::new(&graph);
    let local = |src: &str, args: &[(&str, Value)]| {
        handlers::result_json(&engine.run_text(src, args).unwrap()).to_string()
    };
    let query = |src: &str| format!(r#"{{"query":{}}}"#, Json::Str(src.to_string()));
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    // Qn prepared once, executed over several targets.
    let qn = stdlib::qn("V", "E");
    let resp = c.post_json("/prepare", &[], &query(&qn)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    let id = resp.json().unwrap().get("id").and_then(Json::as_str).unwrap().to_string();
    let mut ok = 0;
    for i in (2..=30).step_by(4) {
        let tgt = format!("v{i}");
        let body = format!(r#"{{"params":{{"srcName":"v0","tgtName":"{tgt}"}}}}"#);
        let resp = c.post_json(&format!("/execute/{id}"), &[], &body).unwrap();
        assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
        let args = [("srcName", Value::from("v0")), ("tgtName", Value::from(tgt))];
        assert_eq!(result_bytes(&resp), local(&qn, &args));
        ok += 1;
    }

    // A mistyped binding is refused with a 422 naming the parameter.
    let resp = c
        .post_json(&format!("/execute/{id}"), &[], r#"{"params":{"srcName":7,"tgtName":"v2"}}"#)
        .unwrap();
    assert_eq!(resp.status, 422, "body: {}", String::from_utf8_lossy(&resp.body));
    let err = resp.json().unwrap();
    let field = |k: &str| err.get("error").and_then(|e| e.get(k)).and_then(Json::as_str);
    assert_eq!((field("kind"), field("param")), (Some("bad-param"), Some("srcName")));

    // An ad-hoc query under a per-request deadline header.
    let triangles = stdlib::triangle_count("V", "E");
    let resp = c.post_json("/query", &[("x-gsql-deadline-ms", "30000")], &query(&triangles)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", String::from_utf8_lossy(&resp.body));
    assert_eq!(result_bytes(&resp), local(&triangles, &[]));
    ok += 1;

    // A body over the default 1 MiB cap is refused and closes the
    // connection; the metrics come over a fresh one.
    let huge = format!(r#"{{"query":"{}"}}"#, "x".repeat(2 << 20));
    assert_eq!(c.post_json("/query", &[], &huge).unwrap().status, 413);
    let m = Client::connect(addr).unwrap().get("/metrics").unwrap().json().unwrap();
    let get = |k: &str| m.get(k).and_then(Json::as_i64).unwrap();
    assert_eq!(get("admitted"), get("completed") + get("failed") + get("cancelled"), "{m}");
    // `completed` is the 200s the client saw; the 413 was counted.
    let counts = ["completed", "rejected_body", "failed"].map(get);
    assert_eq!(counts, [ok, 1, 0], "{m}");

    // SIGTERM drains the server, which then exits 0.
    let mut kill = std::process::Command::new("kill");
    assert!(kill.arg("-TERM").arg(serve.0.id().to_string()).status().unwrap().success());
    let status = (0..1500)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            serve.0.try_wait().unwrap()
        })
        .expect("gsql-serve exits within 30 s of SIGTERM");
    assert!(status.success(), "gsql-serve exited with {status} after SIGTERM");
}
