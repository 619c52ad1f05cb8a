//! `gsqlbench` — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! gsqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! gsqlbench run --seed <n> [--seconds <s>] [--smoke]
//! gsqlbench compare <a.json> <b.json>
//! ```

use gsqlbench::{e2e, host, layers, report, workload};
use std::time::Instant;

const USAGE: &str = "usage:
  gsqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  gsqlbench run --seed <n> [--seconds <s>] [--smoke]
  gsqlbench compare <a.json> <b.json>
workloads: ic_khop fold_seq par_dispatch point_serve mutate_beside_reads";

fn die(msg: &str) -> ! {
    eprintln!("gsqlbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: u8,
    smoke: bool,
    setup_only: bool,
}

fn parse_flags(args: &[String]) -> Options {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: 0,
        smoke: false,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value().clone()),
            "--seed" => {
                o.seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed expects a whole number"))
            }
            "--seconds" => {
                o.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--seconds expects a positive number"))
            }
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => 0,
                    "1" => 1,
                    _ => die("--trace expects 0 or 1"),
                }
            }
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    // A smoke run measures for a fraction of a second and probes with a
    // sixteenth of the frozen counts: it checks that everything runs and
    // every metric is emitted, not what the numbers are.
    if o.smoke {
        o.seconds = o.seconds.min(0.3);
    }
    o
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("{USAGE}");
        }
        Some("run") => {
            let o = parse_flags(&args[1..]);
            if !report::run_all(o.seed, o.seconds, o.smoke) {
                std::process::exit(1);
            }
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => match report::compare(a, b) {
                Ok(true) => {}
                Ok(false) => std::process::exit(1),
                Err(e) => die(&e),
            },
            _ => die("compare takes two results files"),
        },
        Some(_) => {
            let o = parse_flags(&args);
            let name = o
                .workload
                .as_deref()
                .unwrap_or_else(|| die("--workload is required"));
            let def =
                workload::def(name).unwrap_or_else(|| die(&format!("unknown workload `{name}`")));
            if host::nproc() < def.parallelism {
                eprintln!(
                    "gsqlbench: {} runs at parallelism {} on {} core(s): its numbers say nothing about parallel speed",
                    def.name,
                    def.parallelism,
                    host::nproc()
                );
            }
            let load = e2e::Load {
                seed: o.seed,
                seconds: o.seconds,
                smoke: o.smoke,
                setup_only: o.setup_only,
                started,
            };
            if o.setup_only {
                println!("{}", e2e::run(def, load).setup_s);
            } else if o.trace == 0 {
                report::end_to_end(def, load, e2e::run(def, load));
            } else {
                report::per_layer(def, o.seed, layers::run(def, o.seed, o.smoke));
            }
        }
    }
}
