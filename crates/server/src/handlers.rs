//! Request routing and the query-execution path.
//!
//! Response envelope (all endpoints):
//! * success — `{"ok":true, ...}`; query endpoints put the
//!   deterministic payload under `"result"` (prints/tables/returned)
//!   and the run-dependent accounting under `"report"`/`"elapsed_us"`,
//!   so clients can compare `result` byte-for-byte across runs.
//! * failure — `{"ok":false,"error":{"kind","message"[,"report"]}}`.
//!
//! Status mapping: 200 success; 400 parse/compile/runtime (the query is
//! wrong); 422 resource-budget trips (the query was too expensive —
//! retry with a bigger envelope); 429 concurrency gate; 499 client
//! disconnected mid-run; 500 contained worker panic; 503 accept-queue
//! shed; 404/405/413 the usual HTTP meanings.

use crate::admission::request_budget;
use crate::http::{Request, Response};
use crate::json::{self, write_json, Json};
use crate::server::Shared;
use gsql_core::exec::{QueryOutput, ReturnValue};
use gsql_core::{Engine, ErrorKind, PreparedQuery, ResourceReport};
use pgraph::mutate::BatchSummary;
use pgraph::value::Value;
use pgraph::wal::CommitError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Routes one parsed request. `stream` is the client socket, borrowed so
/// long-running executions can register with the disconnect watchdog.
pub fn handle(shared: &Shared, req: &Request, stream: &std::net::TcpStream) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(shared),
        ("POST", "/query") => query(shared, req, stream),
        ("POST", "/mutate") => mutate(shared, req, stream),
        ("POST", "/explain") => explain(shared, req),
        ("POST", "/lint") => lint(shared, req),
        ("POST", "/prepare") => prepare(shared, req),
        ("POST", p) if p.starts_with("/execute/") => {
            execute(shared, req, stream, &p["/execute/".len()..])
        }
        (_, "/query" | "/mutate" | "/explain" | "/lint" | "/prepare") => {
            error_response(405, "method-not-allowed", "use POST", None)
        }
        (_, "/healthz" | "/metrics") => error_response(405, "method-not-allowed", "use GET", None),
        (_, p) if p.starts_with("/execute/") => {
            error_response(405, "method-not-allowed", "use POST", None)
        }
        _ => error_response(404, "not-found", "no such endpoint", None),
    }
}

fn healthz(shared: &Shared) -> Response {
    let status = if shared.shutting_down() {
        "draining"
    } else if shared.read_only() {
        "read-only"
    } else {
        "ok"
    };
    Response::json(200, format!(r#"{{"status":"{status}"}}"#))
}

fn metrics(shared: &Shared) -> Response {
    let mut snapshot = shared.metrics.to_json();
    if let Json::Obj(fields) = &mut snapshot {
        let (total, pinned) = shared.plans.sizes();
        fields.push((
            "plan_cache".into(),
            Json::Obj(vec![
                ("entries".into(), Json::Int(total as i64)),
                ("pinned".into(), Json::Int(pinned as i64)),
            ]),
        ));
        fields.push(("queue_depth".into(), Json::Int(shared.queue.depth() as i64)));
        fields.push(("inflight".into(), Json::Int(shared.gate.inflight() as i64)));
        let wal = shared.live.stats();
        let load = |c: &std::sync::atomic::AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        fields.push((
            "wal".into(),
            Json::Obj(vec![
                ("appends".into(), load(&wal.appends)),
                ("fsyncs".into(), load(&wal.fsyncs)),
                ("replayed".into(), load(&wal.replayed)),
                ("bytes".into(), load(&wal.bytes)),
                // Where a slow `/mutate` went: producing the snapshot in
                // memory, the fsyncs, or a checkpoint it set off.
                ("apply_ns".into(), load(&wal.apply_ns)),
                ("fsync_ns".into(), load(&wal.fsync_ns)),
                ("checkpoints".into(), load(&wal.checkpoints)),
                ("checkpoint_ns".into(), load(&wal.checkpoint_ns)),
                ("durable".into(), Json::Bool(shared.live.is_durable())),
                ("read_only".into(), Json::Bool(shared.read_only())),
            ]),
        ));
    }
    let mut body = String::new();
    write_json(&mut body, &snapshot);
    Response::json(200, body)
}

/// The execution-mode prefix a query text may carry, mirroring the
/// `EXPLAIN`/`PROFILE` keywords the shell accepts.
#[derive(PartialEq, Clone, Copy)]
enum TextMode {
    Run,
    Explain,
    Profile,
    Check,
}

/// Splits an optional leading `EXPLAIN`/`PROFILE` word off the query
/// text. Purely textual so the remaining source — the part whose plan is
/// reusable across modes — is what the plan cache fingerprints. The
/// remainder is left-trimmed in every case so `EXPLAIN <q>`, `PROFILE
/// <q>` and `<q>` all share one cache entry.
fn strip_mode_prefix(src: &str) -> (TextMode, &str) {
    let trimmed = src.trim_start();
    let word_len = trimmed
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(trimmed.len());
    let word = &trimmed[..word_len];
    if word.eq_ignore_ascii_case("explain") {
        (TextMode::Explain, trimmed[word_len..].trim_start())
    } else if word.eq_ignore_ascii_case("profile") {
        (TextMode::Profile, trimmed[word_len..].trim_start())
    } else if word.eq_ignore_ascii_case("check") {
        (TextMode::Check, trimmed[word_len..].trim_start())
    } else {
        (TextMode::Run, trimmed)
    }
}

/// Whether the request asked for per-operator profiling via the
/// `x-gsql-profile` header (`1`/`true`/`on`).
fn profile_requested(req: &Request) -> bool {
    matches!(
        req.header("x-gsql-profile").map(str::trim),
        Some("1") | Some("true") | Some("on")
    )
}

/// `POST /query` — ad-hoc text; parse-once via the plan cache. The text
/// may start with `EXPLAIN` (returns the plan without executing) or
/// `PROFILE` (executes with per-operator profiling, like the
/// `x-gsql-profile: 1` header).
fn query(shared: &Shared, req: &Request, stream: &std::net::TcpStream) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let Some(src) = body.get("query").and_then(Json::as_str) else {
        return error_response(400, "bad-request", "body must contain a string `query` field", None);
    };
    let (mode, src) = strip_mode_prefix(src);
    let args = match parse_call_args(&body) {
        Ok(a) => a,
        Err(resp) => return *resp,
    };
    let cached = match shared.plans.get_or_parse(src) {
        Ok(c) => c,
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            return query_error(shared, &e, false);
        }
    };
    count_cache(shared, cached.hit);
    if mode == TextMode::Explain {
        return explain_response(shared, &cached.prepared, cached.hit);
    }
    if mode == TextMode::Check {
        return lint_response(shared, &cached.prepared, cached.hit);
    }
    let profiled = mode == TextMode::Profile || profile_requested(req);
    run_query(shared, req, stream, &cached.prepared, &args, cached.hit, profiled, false)
}

/// `POST /mutate` — like `/query`, but the batch of mutation ops the
/// query produced (INSERT/UPDATE/DELETE statements) is committed through
/// the WAL after a successful run. The query executes against a pinned
/// pre-write snapshot; its batch becomes visible atomically on commit.
/// Refused with 503 while the server is degraded read-only.
fn mutate(shared: &Shared, req: &Request, stream: &std::net::TcpStream) -> Response {
    if shared.read_only() {
        return error_response(
            503,
            "read-only",
            "a WAL write failed earlier; the server is serving reads only (restart to recover)",
            None,
        )
        .with_header("retry-after", "5");
    }
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let Some(src) = body.get("query").and_then(Json::as_str) else {
        return error_response(400, "bad-request", "body must contain a string `query` field", None);
    };
    let (_, src) = strip_mode_prefix(src);
    let args = match parse_call_args(&body) {
        Ok(a) => a,
        Err(resp) => return *resp,
    };
    let cached = match shared.plans.get_or_parse(src) {
        Ok(c) => c,
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            return query_error(shared, &e, false);
        }
    };
    count_cache(shared, cached.hit);
    run_query(shared, req, stream, &cached.prepared, &args, cached.hit, false, true)
}

/// `POST /explain` — return the logical plan without executing. Accepts
/// the same body as `/query` (an optional leading `EXPLAIN`/`PROFILE`
/// word in the text is ignored) and shares its plan cache.
fn explain(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let Some(src) = body.get("query").and_then(Json::as_str) else {
        return error_response(400, "bad-request", "body must contain a string `query` field", None);
    };
    let (_, src) = strip_mode_prefix(src);
    let cached = match shared.plans.get_or_parse(src) {
        Ok(c) => c,
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            return query_error(shared, &e, false);
        }
    };
    count_cache(shared, cached.hit);
    explain_response(shared, &cached.prepared, cached.hit)
}

/// Renders the plan envelope shared by `/explain` and `EXPLAIN`-prefixed
/// `/query` texts: the core crate's plan JSON embedded verbatim under
/// `"plan"`, plus the indented text rendering under `"text"` (identical
/// bytes to `gsql_shell --explain` against the same graph). The plan is
/// lowered through [`Engine::explain`] against the current live
/// snapshot, so it is the cost-annotated (`est_rows`/`est_cost`) plan
/// execution would actually use.
fn explain_response(shared: &Shared, prepared: &Arc<PreparedQuery>, cache_hit: bool) -> Response {
    let snapshot = shared.live.snapshot();
    let engine = Engine::new(&snapshot).with_semantics(shared.cfg.semantics);
    let plan = match engine.explain(prepared.query()) {
        Ok(p) => p,
        Err(e) => return query_error(shared, &e, false),
    };
    let payload = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("query".into(), Json::Str(prepared.name().to_string())),
        ("plan_cache".into(), Json::Str(cache_tag(cache_hit).into())),
        ("plan".into(), Json::Raw(plan.to_json())),
        ("text".into(), Json::Str(plan.render())),
    ]);
    let mut body = String::new();
    write_json(&mut body, &payload);
    Response::json(200, body)
}

/// `POST /lint` — run the static analyzer without executing. Accepts the
/// same body as `/query` (a leading `EXPLAIN`/`PROFILE`/`CHECK` word in
/// the text is ignored) and shares its plan cache, so a query linted
/// here and then run via `/query` parses exactly once.
fn lint(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let Some(src) = body.get("query").and_then(Json::as_str) else {
        return error_response(400, "bad-request", "body must contain a string `query` field", None);
    };
    let (_, src) = strip_mode_prefix(src);
    let cached = match shared.plans.get_or_parse(src) {
        Ok(c) => c,
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            return query_error(shared, &e, false);
        }
    };
    count_cache(shared, cached.hit);
    lint_response(shared, &cached.prepared, cached.hit)
}

/// Renders the diagnostics envelope shared by `/lint` and
/// `CHECK`-prefixed `/query` texts: the core crate's diagnostic JSON
/// embedded verbatim under `"lint"` (the same object
/// `gsql_shell --check --json` prints), plus the text rendering.
fn lint_response(shared: &Shared, prepared: &Arc<PreparedQuery>, cache_hit: bool) -> Response {
    shared.metrics.lint_checks.fetch_add(1, Ordering::Relaxed);
    let (diags, facts) = prepared.diagnostics_and_facts(shared.cfg.semantics);
    let payload = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("query".into(), Json::Str(prepared.name().to_string())),
        ("plan_cache".into(), Json::Str(cache_tag(cache_hit).into())),
        ("lint".into(), Json::Raw(gsql_core::lint::render_json(&diags))),
        ("text".into(), Json::Str(gsql_core::lint::render_text(&diags, Some(prepared.source())))),
        // The pass-6 abstract-interpretation facts, schema-stable — the
        // same object `gsql_shell` CHECK emits under `facts`.
        ("facts".into(), Json::Raw(facts.render_json())),
    ]);
    let mut body = String::new();
    write_json(&mut body, &payload);
    Response::json(200, body)
}

/// The lint-on-prepare gate: a statement with `Error`-severity
/// diagnostics is refused with 422 before it can be pinned — a client
/// that prepares once and executes thousands of times should hear about
/// an order-dependent accumulator or an exponential pattern at prepare
/// time, not per request. `x-gsql-lint: strict` also refuses warnings;
/// `x-gsql-lint: off` skips the gate entirely.
fn lint_gate(shared: &Shared, req: &Request, prepared: &Arc<PreparedQuery>) -> Option<Response> {
    let lint_header = req.header("x-gsql-lint").map(str::trim).unwrap_or("on");
    if lint_header.eq_ignore_ascii_case("off") {
        return None;
    }
    shared.metrics.lint_checks.fetch_add(1, Ordering::Relaxed);
    let diags = prepared.diagnostics(shared.cfg.semantics);
    let strict = lint_header.eq_ignore_ascii_case("strict");
    let refuse = gsql_core::lint::has_errors(&diags)
        || (strict && diags.iter().any(|d| d.severity >= gsql_core::Severity::Warn));
    if !refuse {
        return None;
    }
    shared.metrics.lint_rejected.fetch_add(1, Ordering::Relaxed);
    let errors = diags.iter().filter(|d| d.severity == gsql_core::Severity::Error).count();
    let payload = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str("lint".into())),
                (
                    "message".into(),
                    Json::Str(format!(
                        "query refused by static analysis ({errors} error(s){}); see \
                         `lint.diagnostics`, or re-send with `x-gsql-lint: off` to bypass",
                        if strict { ", strict mode" } else { "" }
                    )),
                ),
            ]),
        ),
        ("lint".into(), Json::Raw(gsql_core::lint::render_json(&diags))),
    ]);
    let mut body = String::new();
    write_json(&mut body, &payload);
    Some(Response::json(422, body))
}

/// `POST /prepare` — parse, pin, hand back a statement id.
fn prepare(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let Some(src) = body.get("query").and_then(Json::as_str) else {
        return error_response(400, "bad-request", "body must contain a string `query` field", None);
    };
    // Parse without pinning first so a lint-refused statement never
    // becomes executable via `/execute/{id}`.
    match shared.plans.get_or_parse(src) {
        Ok(parsed) => {
            count_cache(shared, parsed.hit);
            if let Some(resp) = lint_gate(shared, req, &parsed.prepared) {
                return resp;
            }
        }
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            return query_error(shared, &e, false);
        }
    }
    match shared.plans.prepare(src) {
        Ok((id, cached)) => {
            let out = Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("id".into(), Json::Str(id)),
                ("query".into(), Json::Str(cached.prepared.name().to_string())),
                ("signature".into(), Json::Str(cached.prepared.signature())),
                ("plan_cache".into(), Json::Str(cache_tag(cached.hit).into())),
            ]);
            let mut body = String::new();
            write_json(&mut body, &out);
            Response::json(200, body)
        }
        Err(e) => {
            shared.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            query_error(shared, &e, false)
        }
    }
}

/// `POST /execute/{id}` — run a pinned prepared statement with a params
/// body (`{"params": {name: value, ...}}`; `"args"` is accepted as an
/// alias). Bindings are type-checked against the statement's declared
/// parameters *before* admission: a missing parameter, a type mismatch,
/// or an undeclared name is refused with 422 and a structured
/// `bad-param` error naming the parameter at fault.
fn execute(shared: &Shared, req: &Request, stream: &std::net::TcpStream, id: &str) -> Response {
    let Some(prepared) = shared.plans.get_by_id(id) else {
        return error_response(
            404,
            "unknown-statement",
            &format!("no prepared statement `{id}` (expired or never prepared?)"),
            None,
        );
    };
    let args = if req.body.is_empty() {
        Vec::new()
    } else {
        let body = match parse_body(req) {
            Ok(b) => b,
            Err(resp) => return *resp,
        };
        match parse_call_args(&body) {
            Ok(a) => a,
            Err(resp) => return *resp,
        }
    };
    let arg_refs: Vec<(&str, Value)> = args.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    if let Err(e) = prepared.check_args(&arg_refs) {
        return bind_error_response(&e);
    }
    // Executing a resident plan is by definition a cache hit.
    count_cache(shared, true);
    run_query(shared, req, stream, &prepared, &args, true, profile_requested(req), false)
}

/// Maps a [`gsql_core::BindError`] to the 422 `bad-param` envelope:
/// `{"ok":false,"error":{"kind":"bad-param","param","expected","got","message"}}`.
fn bind_error_response(e: &gsql_core::BindError) -> Response {
    let payload = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str("bad-param".into())),
                ("param".into(), Json::Str(e.param.clone())),
                ("expected".into(), Json::Str(e.expected.clone())),
                ("got".into(), Json::Str(e.got.clone())),
                ("message".into(), Json::Str(e.to_string())),
            ]),
        ),
    ]);
    let mut body = String::new();
    write_json(&mut body, &payload);
    Response::json(422, body)
}

/// The shared execution path: admission gate → budget → engine run →
/// (optional WAL commit) → metrics → response. `commit_mutations` is
/// true only for `POST /mutate`; read endpoints refuse mutating queries
/// with 422 instead.
#[allow(clippy::too_many_arguments)]
fn run_query(
    shared: &Shared,
    req: &Request,
    stream: &std::net::TcpStream,
    prepared: &Arc<PreparedQuery>,
    args: &[(String, Value)],
    cache_hit: bool,
    profiled: bool,
    commit_mutations: bool,
) -> Response {
    let Some(_permit) = shared.gate.try_acquire() else {
        shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
        return error_response(
            429,
            "too-many-queries",
            "concurrent query limit reached; retry shortly",
            None,
        )
        .with_header("retry-after", "1");
    };
    let budget = match request_budget(&shared.cfg, req) {
        Ok(b) => b,
        Err(msg) => return error_response(400, "bad-request", &msg, None),
    };
    // Pre-admission abstract-interpretation gate: when the analyzer
    // proves the query's WHILE loops must exceed this request's
    // iteration budget (`D003`), the run is *guaranteed* to trip the
    // governor — refuse it with the proven bound before it is admitted
    // or occupies an execution slot. The facts are cached on the
    // prepared statement: the analyzer runs once per statement, not once
    // per request.
    let facts = prepared.facts();
    if let Some(d) = gsql_core::lint::budget_findings(facts, &budget).into_iter().next() {
        shared.metrics.proven_rejections.fetch_add(1, Ordering::Relaxed);
        return error_response(422, "provably-over-budget", &d.message, None);
    }

    shared.metrics.admitted.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    // Pin this request's snapshot: concurrent commits publish new
    // Arcs without disturbing it, so the whole run sees one consistent
    // pre-write view of the graph. The seq pinned alongside it guards
    // the commit below: a batch's vertex/edge ids are only meaningful
    // against this exact snapshot.
    let (snapshot, pinned_seq) = shared.live.snapshot_pinned();
    let engine = Engine::new(&snapshot)
        .with_semantics(shared.cfg.semantics)
        .with_parallelism(shared.cfg.parallelism)
        .with_budget(budget);
    let outcome = {
        // Register with the watchdog only for the duration of the run:
        // the token must drop before we touch the socket to respond.
        let _watch = shared.watchdog.watch(stream, engine.cancel_handle());
        let arg_refs: Vec<(&str, Value)> =
            args.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        // Lowered-plan execution: the prepared handle's plan slot caches
        // one optimized plan per (snapshot epoch, semantics), so every
        // binding of this statement against this snapshot reuses it.
        engine.run_prepared_with(prepared, &arg_refs, profiled)
    };
    let elapsed = started.elapsed();
    shared.metrics.latency.record(elapsed);

    match outcome {
        Ok((out, profile)) => {
            shared.metrics.absorb_report(&out.report);
            if !out.mutations.is_empty() && !commit_mutations {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                return error_response(
                    422,
                    "mutating-query",
                    &format!(
                        "query produces {} mutation op(s); this endpoint is read-only — \
                         POST it to /mutate",
                        out.mutations.len()
                    ),
                    None,
                );
            }
            let mutation = if commit_mutations {
                match commit_batch(shared, &out, pinned_seq) {
                    Ok(j) => Some(j),
                    Err(resp) => return *resp,
                }
            } else {
                None
            };
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
            let mut fields = vec![
                ("ok".into(), Json::Bool(true)),
                ("query".into(), Json::Str(prepared.name().to_string())),
                ("plan_cache".into(), Json::Str(cache_tag(cache_hit).into())),
                ("result".into(), result_json(&out)),
                ("report".into(), report_json(&out.report)),
                ("elapsed_us".into(), Json::Int(elapsed.as_micros().min(i64::MAX as u128) as i64)),
            ];
            if let Some(profile) = profile {
                shared.metrics.absorb_profile(&profile);
                // The core crate's profile JSON verbatim — the same tree
                // gsql_shell --profile --json prints.
                fields.push(("profile".into(), Json::Raw(profile.to_json())));
            }
            if let Some(m) = mutation {
                fields.push(("mutation".into(), m));
            }
            let payload = Json::Obj(fields);
            let mut body = String::new();
            write_json(&mut body, &payload);
            Response::json(200, body)
        }
        Err(e) => query_error(shared, &e, true),
    }
}

/// Commits a successful `/mutate` run's batch through the WAL. Returns
/// the `"mutation"` response field, or the error response: 409 when
/// another writer published a commit after this query pinned its
/// snapshot (the batch's ids were resolved against the pinned view, so
/// they may silently name different entities in the newer graph —
/// optimistic concurrency rejects the whole batch) or when the graph
/// itself rejects the batch, 503 + read-only degradation when the WAL
/// device failed.
fn commit_batch(
    shared: &Shared,
    out: &QueryOutput,
    pinned_seq: u64,
) -> Result<Json, Box<Response>> {
    match shared.live.commit_checked(&out.mutations, Some(pinned_seq)) {
        Ok((summary, seq)) => {
            if !out.mutations.is_empty() {
                shared.metrics.mutation_batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .mutation_ops
                    .fetch_add(out.mutations.len() as u64, Ordering::Relaxed);
            }
            Ok(mutation_json(&summary, out.mutations.len(), seq, shared.live.is_durable()))
        }
        Err(CommitError::Conflict { pinned, committed }) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            Err(Box::new(
                error_response(
                    409,
                    "mutation-conflict",
                    &format!(
                        "a concurrent writer committed seq {committed} after this query \
                         pinned seq {pinned}; retry the mutation against the new state"
                    ),
                    None,
                )
                .with_header("retry-after", "0"),
            ))
        }
        Err(CommitError::Graph(msg)) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            Err(Box::new(error_response(
                409,
                "mutation-conflict",
                &format!("batch rejected at commit: {msg}"),
                None,
            )))
        }
        Err(CommitError::Wal(msg)) => {
            // Write-ahead failed, so nothing was published: readers
            // still see the last durable state. Degrade to read-only
            // rather than risk diverging memory from the log.
            shared.read_only.store(true, Ordering::Relaxed);
            shared.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            Err(Box::new(
                error_response(
                    503,
                    "wal-error",
                    &format!("WAL append failed ({msg}); server degraded to read-only"),
                    None,
                )
                .with_header("retry-after", "5"),
            ))
        }
    }
}

fn mutation_json(s: &BatchSummary, ops: usize, seq: u64, durable: bool) -> Json {
    Json::Obj(vec![
        ("ops".into(), Json::Int(ops as i64)),
        ("seq".into(), Json::Int(seq as i64)),
        ("durable".into(), Json::Bool(durable)),
        ("inserted_vertices".into(), Json::Int(s.inserted_vertices as i64)),
        ("inserted_edges".into(), Json::Int(s.inserted_edges as i64)),
        ("updated_attrs".into(), Json::Int(s.updated_attrs as i64)),
        ("deleted_vertices".into(), Json::Int(s.deleted_vertices as i64)),
        ("deleted_edges".into(), Json::Int(s.deleted_edges as i64)),
    ])
}

/// Maps an engine error to a response and bumps the outcome counters.
/// `admitted` distinguishes execution failures (counted) from
/// parse-at-the-door failures (never admitted, nothing to count).
fn query_error(shared: &Shared, e: &gsql_core::Error, admitted: bool) -> Response {
    let kind = e.kind();
    if admitted {
        if kind == ErrorKind::Cancelled {
            shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(r) = e.resource_report() {
            shared.metrics.absorb_report(r);
        }
    }
    let status = match kind {
        ErrorKind::Parse | ErrorKind::Compile | ErrorKind::Runtime => 400,
        ErrorKind::Cancelled => 499,
        ErrorKind::WorkerPanic => 500,
        // Deadline/row/path/memory/iteration trips: the request was
        // well-formed but exceeded its envelope.
        _ => 422,
    };
    error_response(status, kind.as_str(), &e.to_string(), e.resource_report())
}

fn error_response(
    status: u16,
    kind: &str,
    message: &str,
    report: Option<&ResourceReport>,
) -> Response {
    let mut fields = vec![
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
    ];
    if let Some(r) = report {
        fields.push(("report".into(), report_json(r)));
    }
    let payload = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Obj(fields)),
    ]);
    let mut body = String::new();
    write_json(&mut body, &payload);
    Response::json(status, body)
}

fn count_cache(shared: &Shared, hit: bool) {
    let counter = if hit { &shared.metrics.plan_hits } else { &shared.metrics.plan_misses };
    counter.fetch_add(1, Ordering::Relaxed);
}

fn cache_tag(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

// ---- body / argument parsing --------------------------------------------

fn parse_body(req: &Request) -> Result<Json, Box<Response>> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Box::new(error_response(400, "bad-request", "body is not UTF-8", None)))?;
    let text = if text.trim().is_empty() { "{}" } else { text };
    json::parse(text)
        .map_err(|e| Box::new(error_response(400, "bad-request", &format!("invalid JSON body: {e}"), None)))
}

/// Extracts the `"params"` (or legacy `"args"`) object into named
/// engine arguments. `"params"` wins when both are present.
fn parse_call_args(body: &Json) -> Result<Vec<(String, Value)>, Box<Response>> {
    let Some(args) = body.get("params").or_else(|| body.get("args")) else {
        return Ok(Vec::new());
    };
    let Some(pairs) = args.as_obj() else {
        return Err(Box::new(error_response(
            400,
            "bad-request",
            "`params` must be an object of name -> value",
            None,
        )));
    };
    pairs
        .iter()
        .map(|(name, j)| {
            json::json_to_arg(j).map(|v| (name.clone(), v)).map_err(|e| {
                Box::new(error_response(
                    400,
                    "bad-request",
                    &format!("argument `{name}`: {e}"),
                    None,
                ))
            })
        })
        .collect()
}

// ---- deterministic result serialization ----------------------------------

/// The deterministic portion of a [`QueryOutput`]: prints, tables and the
/// returned value — everything except timing. `bench_server` serializes
/// the output of a local [`Engine::run_text`] through this same function
/// and compares bytes against the server response.
pub fn result_json(out: &QueryOutput) -> Json {
    let tables = out
        .tables
        .iter()
        .map(|(name, t)| (name.clone(), table_json(t)))
        .collect();
    let mut fields = vec![
        ("prints".to_string(), Json::Arr(out.prints.iter().map(|p| Json::Str(p.clone())).collect())),
        ("tables".to_string(), Json::Obj(tables)),
    ];
    let returned = match &out.returned {
        None => Json::Null,
        Some(ReturnValue::Value(v)) => json::value_to_json(v),
        Some(ReturnValue::Table(t)) => Json::Obj(vec![("table".into(), table_json(t))]),
        Some(ReturnValue::VSet(ids)) => Json::Obj(vec![(
            "vset".into(),
            Json::Arr(ids.iter().map(|id| Json::Int(id.0 as i64)).collect()),
        )]),
    };
    fields.push(("returned".to_string(), returned));
    Json::Obj(fields)
}

fn table_json(t: &gsql_core::Table) -> Json {
    Json::Obj(vec![
        ("columns".into(), Json::Arr(t.columns.iter().map(|c| Json::Str(c.clone())).collect())),
        (
            "rows".into(),
            Json::Arr(
                t.rows
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(json::value_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Resource accounting (run-dependent: includes elapsed time).
pub fn report_json(r: &ResourceReport) -> Json {
    Json::Obj(vec![
        ("rows_materialized".into(), Json::Int(r.rows_materialized as i64)),
        ("paths_enumerated".into(), Json::Int(r.paths_enumerated as i64)),
        ("vertices_touched".into(), Json::Int(r.vertices_touched as i64)),
        ("edges_scanned".into(), Json::Int(r.edges_scanned as i64)),
        ("peak_accum_bytes".into(), Json::Int(r.peak_accum_bytes as i64)),
        ("while_iterations".into(), Json::Int(r.while_iterations as i64)),
        ("elapsed_us".into(), Json::Int(r.elapsed.as_micros().min(i64::MAX as u128) as i64)),
    ])
}
