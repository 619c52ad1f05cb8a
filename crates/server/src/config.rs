//! Server configuration: defaults, CLI parsing, and graph-spec loading.

use gsql_core::{Budget, PathSemantics};
use pgraph::graph::Graph;
use pgraph::wal::FlushPolicy;
use std::path::PathBuf;
use std::time::Duration;

/// All tunables of one `gsql-serve` instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded accept queue; beyond it connections are shed with 503.
    pub queue_depth: usize,
    /// Queries executing concurrently; beyond it requests shed with 429.
    pub max_concurrent_queries: usize,
    /// Ad-hoc plan-cache entries (parse-once for `POST /query`).
    pub plan_cache_capacity: usize,
    /// Pinned prepared statements (`POST /prepare`).
    pub max_prepared: usize,
    /// Request bodies above this are rejected with 413.
    pub max_body_bytes: u64,
    /// Intra-query Map/kernel threads per request
    /// (`Engine::with_parallelism`).
    pub parallelism: usize,
    /// Path-legality semantics for every query.
    pub semantics: PathSemantics,
    /// Default per-request resource envelope (see `--default-*` flags);
    /// request headers may tighten it, never exceed it.
    pub default_budget: Budget,
    /// Hard ceiling for header-supplied deadlines.
    pub max_deadline: Option<Duration>,
    /// Idle keep-alive read timeout before a worker drops a connection.
    pub idle_timeout: Duration,
    /// Durability directory (WAL + checkpoints). `None` = in-memory
    /// only: mutations work but nothing survives a restart.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy for committed mutation batches.
    pub wal_fsync: FlushPolicy,
    /// Mutation batches between automatic checkpoints (0 = checkpoint
    /// only at clean shutdown).
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            queue_depth: 64,
            max_concurrent_queries: 4,
            plan_cache_capacity: 256,
            max_prepared: 1024,
            max_body_bytes: 1 << 20,
            parallelism: 1,
            semantics: PathSemantics::AllShortestPaths,
            // Serving defaults are bounded on purpose: an unbounded
            // query on a shared service is an outage, not a feature.
            default_budget: Budget::default()
                .with_deadline(Duration::from_secs(30))
                .with_max_binding_rows(10_000_000)
                .with_max_paths(10_000_000)
                .with_max_accum_bytes(1 << 30)
                .with_max_while_iters(1_000_000),
            max_deadline: Some(Duration::from_secs(120)),
            idle_timeout: Duration::from_secs(30),
            data_dir: None,
            wal_fsync: FlushPolicy::Always,
            checkpoint_every: 256,
        }
    }
}

/// Parses `500ms` / `2s` / `1.5s` / `10m` / bare seconds.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration `{s}` (try 500ms, 2s, 10m)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("invalid duration `{s}`: must be non-negative"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parses plain bytes or `KB`/`MB`/`GB` (binary multiples).
pub fn parse_bytes(s: &str) -> Result<u64, String> {
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

/// Loads a graph spec: a `pgraph::loader` file path or one of the
/// built-in fixtures `:sales`, `:linkedin`, `:diamond30` (more generally
/// `:diamond<n>`), `:snb[=<sf>]` — the same specs `gsql_shell` accepts.
pub fn load_graph(spec: &str) -> Result<Graph, String> {
    match spec {
        ":sales" => Ok(pgraph::generators::sales_graph()),
        ":linkedin" => Ok(pgraph::generators::linkedin_graph()),
        s if s.starts_with(":diamond") => {
            let n = s
                .strip_prefix(":diamond")
                .unwrap_or("")
                .parse::<usize>()
                .map_err(|_| format!("bad diamond spec `{s}` (try :diamond30)"))?;
            Ok(pgraph::generators::diamond_chain(n).0)
        }
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

/// Parses CLI arguments into a config plus the graph spec. Returns
/// `Err(usage)` for `--help` or any malformed flag.
pub fn parse_args(argv: &[String]) -> Result<(ServerConfig, String), String> {
    let mut cfg = ServerConfig::default();
    let mut graph_spec: Option<String> = None;
    let mut port: Option<u16> = None;

    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match a.as_str() {
            "--graph" => graph_spec = Some(value("--graph")?),
            "--addr" => cfg.addr = value("--addr")?,
            "--port" => {
                port = Some(
                    value("--port")?
                        .parse()
                        .map_err(|_| "--port expects a port number".to_string())?,
                )
            }
            "--workers" => cfg.workers = parse_pos(&value("--workers")?, "--workers")?,
            "--queue-depth" => {
                cfg.queue_depth = parse_pos(&value("--queue-depth")?, "--queue-depth")?
            }
            "--max-concurrent" => {
                cfg.max_concurrent_queries =
                    parse_pos(&value("--max-concurrent")?, "--max-concurrent")?
            }
            "--plan-cache" => {
                cfg.plan_cache_capacity = parse_pos(&value("--plan-cache")?, "--plan-cache")?
            }
            "--max-prepared" => {
                cfg.max_prepared = parse_pos(&value("--max-prepared")?, "--max-prepared")?
            }
            "--max-body-bytes" => cfg.max_body_bytes = parse_bytes(&value("--max-body-bytes")?)?,
            "--parallelism" => {
                cfg.parallelism = parse_pos(&value("--parallelism")?, "--parallelism")?
            }
            "--semantics" => {
                let name = value("--semantics")?;
                cfg.semantics = gsql_core::parser::parse_semantics(&name)
                    .ok_or_else(|| format!("unknown semantics `{name}`"))?;
            }
            "--default-deadline" => {
                cfg.default_budget.deadline = Some(parse_duration(&value("--default-deadline")?)?)
            }
            "--max-deadline" => {
                cfg.max_deadline = Some(parse_duration(&value("--max-deadline")?)?)
            }
            "--default-max-rows" => {
                cfg.default_budget.max_binding_rows =
                    Some(parse_u64(&value("--default-max-rows")?, "--default-max-rows")?)
            }
            "--default-max-paths" => {
                cfg.default_budget.max_paths =
                    Some(parse_u64(&value("--default-max-paths")?, "--default-max-paths")?)
            }
            "--default-max-accum-bytes" => {
                cfg.default_budget.max_accum_bytes =
                    Some(parse_bytes(&value("--default-max-accum-bytes")?)?)
            }
            "--idle-timeout" => cfg.idle_timeout = parse_duration(&value("--idle-timeout")?)?,
            "--data-dir" => cfg.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--wal-fsync" => {
                let v = value("--wal-fsync")?;
                cfg.wal_fsync = FlushPolicy::parse(&v)
                    .ok_or_else(|| format!("--wal-fsync expects always|never|every=N, got `{v}`"))?;
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every =
                    parse_u64(&value("--checkpoint-every")?, "--checkpoint-every")?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if let Some(p) = port {
        cfg.addr = format!("127.0.0.1:{p}");
    }
    let graph_spec = graph_spec.ok_or_else(|| format!("--graph is required\n{USAGE}"))?;
    Ok((cfg, graph_spec))
}

fn parse_pos(v: &str, flag: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} expects a positive integer, got `{v}`"))
}

fn parse_u64(v: &str, flag: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{v}`"))
}

pub const USAGE: &str = "\
usage: gsql-serve --graph <graph.pg|:sales|:linkedin|:diamond<n>|:snb[=sf]>
                  [--addr HOST:PORT | --port N]      (default 127.0.0.1:0)
                  [--workers N]                      worker threads (8)
                  [--queue-depth N]                  accept backlog before 503 (64)
                  [--max-concurrent N]               executing queries before 429 (4)
                  [--plan-cache N]                   ad-hoc plan cache entries (256)
                  [--max-prepared N]                 pinned prepared statements (1024)
                  [--max-body-bytes N|KB|MB]         request body cap before 413 (1MB)
                  [--parallelism N]                  intra-query threads (1)
                  [--semantics <flavor>]             path-legality semantics
                  [--default-deadline D]             per-query deadline (30s)
                  [--max-deadline D]                 ceiling for header deadlines (120s)
                  [--default-max-rows N] [--default-max-paths N]
                  [--default-max-accum-bytes N|MB]   governor defaults
                  [--idle-timeout D]                 keep-alive idle cutoff (30s)
                  [--data-dir PATH]                  durability dir: WAL + checkpoints
                  [--wal-fsync always|never|every=N] fsync cadence for commits (always)
                  [--checkpoint-every N]             batches between checkpoints (256)

With --data-dir the graph is durable: every POST /mutate batch is
WAL-logged before it is visible, checkpoints compact the log, and a
restart recovers checkpoint + WAL suffix (the --graph spec only seeds
an empty directory). A WAL write error flips the server read-only
(mutations 503) while queries keep serving; see docs/DURABILITY.md.

The server drains and exits 0 on SIGTERM or stdin EOF.
Per-request budget headers: x-gsql-deadline-ms, x-gsql-max-rows,
x-gsql-max-paths, x-gsql-max-accum-bytes, x-gsql-max-while-iters.
Introspection: POST /explain returns the logical plan without executing;
`x-gsql-profile: 1` on /query or /execute (or a PROFILE-prefixed query
text) adds a per-operator `profile` section to the response, and
aggregated per-operator totals appear under `operators` in /metrics.
The plan/profile formats are documented in docs/PLAN_FORMAT.md.";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let (cfg, spec) = parse_args(&args(&[
            "--graph", ":diamond30", "--port", "7431", "--workers", "3", "--queue-depth", "9",
            "--max-concurrent", "2", "--plan-cache", "16", "--max-body-bytes", "64KB",
            "--parallelism", "4", "--default-deadline", "5s", "--max-deadline", "10s",
        ]))
        .unwrap();
        assert_eq!(spec, ":diamond30");
        assert_eq!(cfg.addr, "127.0.0.1:7431");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 9);
        assert_eq!(cfg.max_concurrent_queries, 2);
        assert_eq!(cfg.plan_cache_capacity, 16);
        assert_eq!(cfg.max_body_bytes, 64 << 10);
        assert_eq!(cfg.parallelism, 4);
        assert_eq!(cfg.default_budget.deadline, Some(Duration::from_secs(5)));
        assert_eq!(cfg.max_deadline, Some(Duration::from_secs(10)));
    }

    #[test]
    fn parses_durability_flags() {
        let (cfg, _) = parse_args(&args(&[
            "--graph", ":sales", "--data-dir", "/tmp/gsql-data", "--wal-fsync", "every=8",
            "--checkpoint-every", "32",
        ]))
        .unwrap();
        assert_eq!(cfg.data_dir.as_deref(), Some(std::path::Path::new("/tmp/gsql-data")));
        assert_eq!(cfg.wal_fsync, FlushPolicy::EveryN(8));
        assert_eq!(cfg.checkpoint_every, 32);
        assert!(parse_args(&args(&["--graph", ":sales", "--wal-fsync", "sometimes"])).is_err());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&args(&["--graph"])).is_err());
        assert!(parse_args(&args(&["--nope"])).is_err());
        assert!(parse_args(&args(&[])).is_err(), "--graph is required");
        assert!(parse_args(&args(&["--graph", ":sales", "--workers", "0"])).is_err());
    }

    #[test]
    fn fixture_specs_load() {
        assert!(load_graph(":sales").is_ok());
        assert_eq!(load_graph(":diamond3").unwrap().vertex_count(), 10);
        assert!(load_graph(":nope").is_err());
        assert!(load_graph("/no/such/file.pg").is_err());
    }
}
