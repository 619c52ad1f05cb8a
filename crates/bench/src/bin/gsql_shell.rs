//! `gsql_shell` — a small command-line front end for the engine.
//!
//! ```text
//! gsql_shell <graph.pg> [--semantics <flavor>] [--explain] [--profile] \
//!            [--json] [--arg name=value ...] (<query.gsql> | -)
//! ```
//!
//! * `<graph.pg>` — a graph in the `pgraph::loader` text format, or one
//!   of the built-in fixtures `:sales`, `:linkedin`, `:diamond30`,
//!   `:snb[=<sf>]`.
//! * `--semantics` — all_shortest_paths (default), non_repeated_edge,
//!   non_repeated_vertex, all_shortest_paths_enumerate, shortest_one.
//! * `--explain` — print the static plan instead of executing.
//! * `--profile` — run with per-operator profiling; the profile prints
//!   to stderr after the results (same tree the server returns).
//! * `--json` — render the EXPLAIN plan / PROFILE tree as JSON instead
//!   of indented text (format documented in `docs/PLAN_FORMAT.md`).
//! * `--arg k=v` — query arguments (int / float / true|false / string;
//!   `vertex:<id>` for vertex arguments).
//! * query file or `-` to read GSQL from stdin.
//!
//! The query text itself may also start with the keyword `EXPLAIN`,
//! `PROFILE` or `CHECK` (before `CREATE QUERY`), which behaves exactly
//! like the corresponding flag — the same prefixes the HTTP server
//! accepts. `CHECK` runs the static analyzer (`gsql_core::lint`, rule
//! catalog in `docs/LINTS.md`) and prints the diagnostics instead of
//! executing; the exit code is nonzero iff any diagnostic is
//! `Error`-severity. `SET lint = on|strict` lints before every plain
//! run instead, refusing to execute on errors (strict: also warnings).
//!
//! Resource limits: the query source may start with `SET` directives
//! (before `CREATE QUERY`), which configure the engine's resource
//! governor and execution mode — run `gsql_shell --help` for the full
//! directive list:
//!
//! ```text
//! SET timeout = 5s
//! SET deadline_ms = 250
//! SET row_limit = 1000000
//! SET path_budget = 10000000
//! SET memory_limit = 256MB
//! SET iteration_limit = 10000
//! SET parallelism = 4
//! SET report = on
//! SET profile = on
//! ```
//!
//! `SET deadline_ms` is the millisecond twin of `SET timeout` (it maps
//! to the same per-request deadline the server reads from the
//! `x-gsql-deadline-ms` header). `SET report = on` prints the engine's
//! [`ResourceReport`](gsql_core::ResourceReport) after each successful
//! query — the same per-request accounting `gsql-serve` returns in its
//! response `report` object. `SET profile = on` is the directive twin of
//! `--profile` (and of the server's `x-gsql-profile: 1` header).
//!
//! A query that trips a limit aborts with a structured report, e.g.
//! `query aborted [deadline-exceeded]: deadline exceeded after 5.0s;
//! 1.2M paths enumerated, ...`.

use bench::harness::parse_duration;
use gsql_core::lint::{
    budget_findings, has_errors, lint_query_and_facts, render_error_snippet, render_json,
    render_text, QueryFacts,
};
use gsql_core::{
    parse_query_with_mode, parser::parse_semantics, Budget, Engine, QueryMode,
    ReturnValue, Severity,
};
use pgraph::graph::{Graph, VertexId};
use pgraph::value::Value;
use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gsql_shell <graph.pg|:sales|:linkedin|:diamond30|:snb[=sf]> \
         [--semantics <flavor>] [--explain] [--profile] [--check] [--json] \
         [--arg k=v ...] (<query.gsql> | -)\n\
         run `gsql_shell --help` for the full option and SET-directive reference"
    );
    ExitCode::from(2)
}

fn help() -> ExitCode {
    println!(
        "gsql_shell — run, EXPLAIN or PROFILE a GSQL query against a graph\n\
         \n\
         usage: gsql_shell <graph> [options] (<query.gsql> | -)\n\
         \n\
         <graph>                a pgraph text file, or a built-in fixture:\n\
         \x20 :sales | :linkedin | :diamond30 | :snb[=<scale-factor>]\n\
         \n\
         options:\n\
         \x20 --semantics <s>      all_shortest_paths (default) | shortest_one |\n\
         \x20                      non_repeated_edge | non_repeated_vertex |\n\
         \x20                      all_shortest_paths_enumerate\n\
         \x20 --explain            print the optimized plan instead of executing;\n\
         \x20                      operators carry `est_rows`/`est_cost` from the\n\
         \x20                      loaded graph's statistics\n\
         \x20 --profile            execute with per-operator profiling; the profile\n\
         \x20                      tree prints to stderr after the results\n\
         \x20 --check              run the static analyzer instead of executing;\n\
         \x20                      diagnostics print to stdout, exit 1 on errors\n\
         \x20                      (rule catalog in docs/LINTS.md)\n\
         \x20 --json               render the plan/profile/diagnostics as JSON (see\n\
         \x20                      docs/PLAN_FORMAT.md for the schema)\n\
         \x20 --arg k=v            bind a query parameter (repeatable);\n\
         \x20                      int / float / true|false / string / vertex:<id>\n\
         \x20 -h, --help           this help\n\
         \n\
         The query text may start with `EXPLAIN`, `PROFILE` or `CHECK` (same\n\
         effect as the flags), and/or with `SET` directives, one per line,\n\
         before the CREATE QUERY:\n\
         \n\
         \x20 SET timeout = <dur>        wall-clock budget (e.g. 5s, 250ms)\n\
         \x20 SET deadline_ms = <n>      same budget, in milliseconds\n\
         \x20 SET row_limit = <n>        max binding rows materialized\n\
         \x20 SET path_budget = <n>      max paths enumerated (enumerative kernels)\n\
         \x20 SET memory_limit = <sz>    max accumulator bytes (e.g. 256MB, 1GB)\n\
         \x20 SET iteration_limit = <n>  max WHILE iterations\n\
         \x20 SET parallelism = <n>      Map-phase worker threads (>= 1)\n\
         \x20 SET report = on|off        print the ResourceReport to stderr\n\
         \x20 SET profile = on|off       per-operator profiling (same as --profile)\n\
         \x20 SET lint = on|strict|off   lint before running: `on` prints findings\n\
         \x20                            to stderr and refuses to run on errors;\n\
         \x20                            `strict` also refuses on warnings\n\
         \x20 SET autosave = <path>|off  after a mutating query (INSERT/UPDATE/\n\
         \x20                            DELETE), apply the batch and atomically\n\
         \x20                            save the graph to <path> (loader format)\n\
         \n\
         Results print to stdout; the report and profile print to stderr so\n\
         result output stays clean for pipelines."
    );
    ExitCode::SUCCESS
}

fn parse_arg_value(raw: &str) -> Value {
    if let Some(id) = raw.strip_prefix("vertex:") {
        if let Ok(v) = id.parse::<u32>() {
            return Value::Vertex(VertexId(v));
        }
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Value::Double(f);
    }
    match raw {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        other => Value::from(other),
    }
}

/// Parses a byte-size spec: plain bytes, or `KB`/`MB`/`GB` suffixes
/// (binary multiples).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("GB") {
        (n, 1u64 << 30)
    } else if let Some(n) = s.strip_suffix("MB") {
        (n, 1u64 << 20)
    } else if let Some(n) = s.strip_suffix("KB") {
        (n, 1u64 << 10)
    } else {
        (s, 1)
    };
    num.trim()
        .parse::<u64>()
        .map(|v| v * scale)
        .map_err(|_| format!("invalid byte size `{s}` (try 1048576 or 256MB)"))
}

/// Everything the `SET` header configures: the resource [`Budget`], an
/// execution thread count (`SET parallelism = N`; when absent the engine
/// default applies, including a `GSQL_PARALLELISM` environment
/// override), and whether to print the per-query `ResourceReport`.
struct ShellSettings {
    budget: Budget,
    parallelism: Option<usize>,
    report: bool,
    profile: bool,
    lint: LintMode,
    /// `SET autosave = <path>`: after a query that mutates the graph
    /// (INSERT/UPDATE/DELETE), apply the batch and atomically save the
    /// resulting graph to `<path>` in the loader text format.
    autosave: Option<String>,
}

/// `SET lint = on|strict|off` — whether to run the static analyzer
/// before executing, and how severe a finding must be to refuse the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LintMode {
    Off,
    /// Print findings to stderr; refuse to run on `Error` diagnostics.
    On,
    /// Like `On`, but warnings refuse the run too.
    Strict,
}

/// Strips leading `SET <key> = <value>` directives from the query source
/// and folds them into [`ShellSettings`]. `SET <key> <value>` (no `=`)
/// is accepted too, matching the interactive habit of `SET report on`.
fn extract_set_directives(source: &str) -> Result<(ShellSettings, String), String> {
    let mut budget = Budget::default();
    let mut parallelism = None;
    let mut report = false;
    let mut profile = false;
    let mut lint = LintMode::Off;
    let mut autosave = None;
    let mut rest = Vec::new();
    let mut in_header = true;
    for line in source.lines() {
        let trimmed = line.trim();
        let lower = trimmed.to_ascii_lowercase();
        if in_header && (trimmed.is_empty() || lower.starts_with("//") || lower.starts_with('#')) {
            rest.push(line);
            continue;
        }
        if in_header && lower.starts_with("set ") {
            let body = trimmed[4..].trim().trim_end_matches(';');
            let (key, value) = body
                .split_once('=')
                .or_else(|| body.split_once(char::is_whitespace))
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("SET expects `SET <key> = <value>`, got `{trimmed}`"))?;
            let int = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("SET {key} expects a non-negative integer, got `{v}`"))
            };
            let switch = |v: &str| match v.to_ascii_lowercase().as_str() {
                "on" | "true" | "1" => Ok(true),
                "off" | "false" | "0" => Ok(false),
                other => Err(format!("SET {key} expects on|off, got `{other}`")),
            };
            match key.to_ascii_lowercase().as_str() {
                "timeout" => budget.deadline = Some(parse_duration(value)?),
                "deadline_ms" => {
                    budget = budget.with_deadline(std::time::Duration::from_millis(int(value)?))
                }
                "report" => report = switch(value)?,
                "profile" => profile = switch(value)?,
                "lint" => {
                    lint = match value.to_ascii_lowercase().as_str() {
                        "on" | "true" | "1" => LintMode::On,
                        "strict" => LintMode::Strict,
                        "off" | "false" | "0" => LintMode::Off,
                        other => {
                            return Err(format!(
                                "SET lint expects on|strict|off, got `{other}`"
                            ))
                        }
                    }
                }
                "autosave" => {
                    autosave = match value.to_ascii_lowercase().as_str() {
                        "off" | "false" | "0" => None,
                        _ => Some(value.to_string()),
                    }
                }
                "row_limit" => budget.max_binding_rows = Some(int(value)?),
                "path_budget" => budget.max_paths = Some(int(value)?),
                "memory_limit" => budget.max_accum_bytes = Some(parse_bytes(value)?),
                "iteration_limit" => budget.max_while_iters = Some(int(value)?),
                "parallelism" => {
                    parallelism =
                        Some(value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                            || format!("SET parallelism expects a positive integer, got `{value}`"),
                        )?)
                }
                other => {
                    return Err(format!(
                        "unknown SET key `{other}` (expected timeout, deadline_ms, \
                         row_limit, path_budget, memory_limit, iteration_limit, \
                         parallelism, report, profile, lint, autosave)"
                    ))
                }
            }
            continue;
        }
        in_header = false;
        rest.push(line);
    }
    Ok((
        ShellSettings { budget, parallelism, report, profile, lint, autosave },
        rest.join("\n"),
    ))
}

fn load_graph(spec: &str) -> Result<Graph, String> {
    match spec {
        ":sales" => Ok(pgraph::generators::sales_graph()),
        ":linkedin" => Ok(pgraph::generators::linkedin_graph()),
        ":diamond30" => Ok(pgraph::generators::diamond_chain(30).0),
        s if s.starts_with(":snb") => {
            let sf = s
                .strip_prefix(":snb")
                .and_then(|r| r.strip_prefix('='))
                .map(|v| v.parse::<f64>().map_err(|e| e.to_string()))
                .transpose()?
                .unwrap_or(0.05);
            Ok(ldbc_snb::generate(ldbc_snb::SnbParams::new(sf, 2024)))
        }
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read graph `{path}`: {e}"))?;
            pgraph::loader::load_from_string(&text).map_err(|e| e.to_string())
        }
    }
}

/// One-line human summary of the pass-6 abstract-interpretation facts,
/// printed by `CHECK` in text mode (the `--json` form embeds the full
/// schema-stable object under `facts`).
fn facts_summary(facts: &QueryFacts) -> String {
    let blocks = facts.blocks.len();
    let accum = facts.blocks.iter().filter(|b| b.accum_parallel).count();
    let post = facts.blocks.iter().filter(|b| b.post_accum_parallel).count();
    let iters = if facts.min_while_iters == u64::MAX {
        "unbounded".to_string()
    } else {
        facts.min_while_iters.to_string()
    };
    format!(
        "facts: {blocks} block(s); proven parallel ACCUM {accum}/{blocks}, \
         POST_ACCUM {post}/{blocks}; min WHILE iterations {iters}"
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut graph_spec: Option<String> = None;
    let mut query_spec: Option<String> = None;
    let mut semantics = gsql_core::PathSemantics::AllShortestPaths;
    let mut do_explain = false;
    let mut do_profile = false;
    let mut do_check = false;
    let mut json = false;
    let mut args: Vec<(String, Value)> = Vec::new();

    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--semantics" => {
                let Some(name) = it.next() else { return usage() };
                let Some(s) = parse_semantics(&name) else {
                    eprintln!("unknown semantics `{name}`");
                    return ExitCode::from(2);
                };
                semantics = s;
            }
            "--explain" => do_explain = true,
            "--profile" => do_profile = true,
            "--check" => do_check = true,
            "--json" => json = true,
            "--arg" => {
                let Some(kv) = it.next() else { return usage() };
                let Some((k, v)) = kv.split_once('=') else {
                    eprintln!("--arg expects k=v, got `{kv}`");
                    return ExitCode::from(2);
                };
                args.push((k.to_string(), parse_arg_value(v)));
            }
            "--help" | "-h" => return help(),
            _ if graph_spec.is_none() => graph_spec = Some(a),
            _ if query_spec.is_none() => query_spec = Some(a),
            other => {
                eprintln!("unexpected argument `{other}`");
                return usage();
            }
        }
    }
    let (Some(graph_spec), Some(query_spec)) = (graph_spec, query_spec) else {
        return usage();
    };

    let graph = match load_graph(&graph_spec) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let source = if query_spec == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("cannot read query from stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(&query_spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read query `{query_spec}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let (settings, source) = match extract_set_directives(&source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // An `EXPLAIN`/`PROFILE`/`CHECK` keyword in the query text behaves
    // exactly like the corresponding command-line flag.
    let (mode, query) = match parse_query_with_mode(&source) {
        Ok(r) => r,
        Err(e) => {
            // Positioned errors get the same caret snippet as lint
            // diagnostics; position-less errors print as-is.
            eprintln!("{}", render_error_snippet(&source, &e));
            return ExitCode::FAILURE;
        }
    };
    let do_check = do_check || mode == QueryMode::Check;
    if do_check {
        let (mut diags, facts) =
            lint_query_and_facts(&query, semantics, &accum::UserAccumRegistry::new());
        // A concrete `SET iteration_limit` makes D003 decidable: a query
        // whose proven minimum WHILE iterations exceed it is guaranteed
        // to trip the governor, so CHECK reports it without executing.
        diags.extend(budget_findings(&facts, &settings.budget));
        if json {
            println!("{{\"lint\":{},\"facts\":{}}}", render_json(&diags), facts.render_json());
        } else {
            if diags.is_empty() {
                println!("check: clean (0 diagnostics)");
            } else {
                println!("{}", render_text(&diags, Some(&source)));
            }
            println!("{}", facts_summary(&facts));
        }
        return if has_errors(&diags) { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    if settings.lint != LintMode::Off {
        let (mut diags, facts) =
            lint_query_and_facts(&query, semantics, &accum::UserAccumRegistry::new());
        diags.extend(budget_findings(&facts, &settings.budget));
        if !diags.is_empty() {
            // Findings go to stderr so result output stays pipeline-clean.
            eprintln!("{}", render_text(&diags, Some(&source)));
        }
        let refuse = has_errors(&diags)
            || (settings.lint == LintMode::Strict
                && diags.iter().any(|d| d.severity >= Severity::Warn));
        if refuse {
            eprintln!(
                "query refused by `SET lint = {}` (fix the findings above, or run \
                 with CHECK to inspect without executing)",
                if settings.lint == LintMode::Strict { "strict" } else { "on" }
            );
            return ExitCode::FAILURE;
        }
    }
    let do_explain = do_explain || mode == QueryMode::Explain;
    let do_profile =
        (do_profile || settings.profile || mode == QueryMode::Profile) && !do_explain;
    if do_explain {
        // Explaining through the engine (not the graph-less
        // `explain_plan`) annotates each operator with `est_rows` /
        // `est_cost` from the loaded graph's statistics — the same plan
        // the executor would run.
        let engine = Engine::new(&graph).with_semantics(semantics);
        match engine.explain(&query) {
            Ok(plan) => {
                if json {
                    println!("{}", plan.to_json());
                } else {
                    print!("{}", plan.render());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut engine =
        Engine::new(&graph).with_semantics(semantics).with_budget(settings.budget);
    if let Some(n) = settings.parallelism {
        engine = engine.with_parallelism(n);
    }
    let arg_refs: Vec<(&str, Value)> =
        args.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    match engine.run_with(&query, &arg_refs, do_profile) {
        Ok((out, profile)) => {
            for line in &out.prints {
                println!("{line}");
            }
            for table in out.tables.values() {
                print!("{table}");
            }
            match out.returned {
                Some(ReturnValue::Value(v)) => println!("-> {v}"),
                Some(ReturnValue::Table(t)) => print!("-> {t}"),
                Some(ReturnValue::VSet(vs)) => println!("-> vertex set of {}", vs.len()),
                None => {}
            }
            if !out.mutations.is_empty() {
                match &settings.autosave {
                    Some(path) => {
                        // The engine ran against a snapshot; apply its
                        // batch now and persist atomically
                        // (write-to-temp + fsync + rename).
                        let mut mutated = graph.clone();
                        if let Err(e) = pgraph::mutate::apply_batch(&mut mutated, &out.mutations)
                        {
                            eprintln!("cannot apply mutation batch: {e}");
                            return ExitCode::FAILURE;
                        }
                        let path = std::path::Path::new(path);
                        if let Err(e) = pgraph::loader::save_to_file(&mutated, path) {
                            eprintln!("cannot save graph to `{}`: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "applied {} mutation op(s); saved {} vertices / {} edges to `{}`",
                            out.mutations.len(),
                            mutated.vertex_count(),
                            mutated.edge_count(),
                            path.display()
                        );
                    }
                    None => eprintln!(
                        "note: query produced {} mutation op(s), discarded (shell graphs \
                         are in-memory; add `SET autosave = <path>` to persist)",
                        out.mutations.len()
                    ),
                }
            }
            if settings.report {
                // On stderr so result output stays clean for pipelines;
                // same accounting the server returns per request.
                eprintln!("report: {}", out.report);
            }
            if let Some(profile) = profile {
                // Same channel as the report, same tree as the server's
                // `profile` response section.
                if json {
                    eprintln!("{}", profile.to_json());
                } else {
                    eprint!("{}", profile.render());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Structured reporting: resource errors carry a machine-
            // readable kind and a work report; other errors print as-is.
            match e.resource_report() {
                Some(report) => {
                    eprintln!("query aborted [{}]: {e}; {report}", e.kind())
                }
                None => eprintln!("{e}"),
            }
            ExitCode::FAILURE
        }
    }
}
