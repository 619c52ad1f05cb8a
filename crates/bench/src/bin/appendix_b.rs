//! Regenerates the **Appendix B table**: multi-grouping-set aggregation
//! in GROUPING-SETS style (`Q_gs`: all eight aggregates computed for
//! every grouping set) vs dedicated-accumulator style (`Q_acc`: each
//! grouping set computes only the aggregates it needs).
//!
//! The paper reports medians of 5 runs and speedups of 2.48–3.05× on
//! graphs from 1 GB to 1 TB. Scale factors here default to
//! `0.05,0.1,0.2,0.4` (override with `APPENDIX_B_SFS`). After each scale
//! factor the process's peak resident set so far (`VmHWM`) is printed,
//! so one run with ascending scale factors gives the memory axis too.

use bench::harness::timed;
use gsql_core::Engine;
use ldbc_snb::{generate, queries, SnbParams};
use std::time::Duration;

/// This process's peak resident set so far, in MB (`VmHWM` in
/// `/proc/self/status`; `None` where that file does not exist).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn median_of(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn main() {
    let sfs: Vec<f64> = std::env::var("APPENDIX_B_SFS")
        .unwrap_or_else(|_| "0.05,0.1,0.2,0.4".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("bad APPENDIX_B_SFS"))
        .collect();
    let runs: usize = std::env::var("APPENDIX_B_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let q_gs = queries::q_gs();
    let q_acc = queries::q_acc();
    println!(
        "{:>8} | {:>14} | {:>14} | {:>8}",
        "sf", "Q_gs median", "Q_acc median", "speedup"
    );
    println!("{}", "-".repeat(55));
    for &sf in &sfs {
        let g = generate(SnbParams::new(sf, 2024));
        let eng = Engine::new(&g);
        let mut t_gs = Vec::with_capacity(runs);
        let mut t_acc = Vec::with_capacity(runs);
        for _ in 0..runs {
            let (r, t) = timed(|| eng.run_text(&q_gs, &[]).unwrap());
            drop(r);
            t_gs.push(t);
            let (r, t) = timed(|| eng.run_text(&q_acc, &[]).unwrap());
            drop(r);
            t_acc.push(t);
        }
        let (m_gs, m_acc) = (median_of(t_gs), median_of(t_acc));
        println!(
            "{sf:>8} | {:>13.3}s | {:>13.3}s | {:>7.3}x",
            m_gs.as_secs_f64(),
            m_acc.as_secs_f64(),
            m_gs.as_secs_f64() / m_acc.as_secs_f64()
        );
        if let Some(mb) = peak_rss_mb() {
            println!("{:>8}   peak resident set (VmHWM) so far: {mb:.1} MB", "");
        }
    }
    println!(
        "\nShape check vs paper: Q_acc beats Q_gs by a stable constant factor\n\
         across scale (paper: 2.48x at SF-1 rising to 3.05x at SF-1000)."
    );
}
