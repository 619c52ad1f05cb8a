//! Where the benchmark runs: the host stamp written into every results
//! file, process memory counters, and the benchmark's own directory.

use gsql_serve::json::Json;
use std::path::PathBuf;

/// The benchmark's directory (`benchmark/` of the checkout it was built
/// in). Everything the benchmark writes goes below it.
pub fn bench_dir() -> PathBuf {
    let cwd = std::env::current_dir()
        .unwrap_or_default()
        .join("benchmark");
    if cwd.join("Cargo.toml").is_file() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// `benchmark/results/`, created on demand.
pub fn results_dir() -> PathBuf {
    let dir = bench_dir().join("results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A fresh scratch directory under `benchmark/tmp/` for this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = bench_dir()
        .join("tmp")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/tmp");
    dir
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, or `unknown` outside a git repository.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// The `[profile.release]` table of `manifest`, one `key = value` per
/// entry, in file order.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

/// `nproc`, CPU model, `rustc -V`, commit, release-profile settings and
/// the seed: enough to tell whether two results files are comparable.
pub fn stamp(seed: u64) -> Json {
    let manifest = std::fs::read_to_string(bench_dir().join("Cargo.toml")).unwrap_or_default();
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc() as i64)),
        ("cpu".into(), Json::Str(cpu_model())),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        ("commit".into(), Json::Str(git_commit())),
        (
            "profile_release".into(),
            Json::Arr(
                release_profile(&manifest)
                    .into_iter()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("seed".into(), Json::Int(seed as i64)),
    ])
}
