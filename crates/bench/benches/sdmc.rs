//! Ablation bench E6 (Theorem 6.1): the SDMC counting kernel scales
//! polynomially in graph size even as path counts grow as `2^n` —
//! diamond chains of 32..256 diamonds and Erdős–Rényi digraphs. The
//! first two groups build a fresh kernel context per call (`reach`); the
//! last reuses one context across calls, as a Kleene hop does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darpe::CompiledDarpe;
use gsql_core::governor::QueryGuard;
use gsql_core::semantics::{reach, Kernel, MatchStats, PathSemantics};
use pgraph::generators::{diamond_chain, erdos_renyi};
use std::hint::black_box;

fn bench_diamond_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdmc_diamond_scaling");
    for n in [32usize, 64, 128, 256] {
        let (g, spine) = diamond_chain(n);
        let nfa = CompiledDarpe::compile(&darpe::parse("E>*").unwrap(), g.schema()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut stats = MatchStats::default();
                let guard = QueryGuard::unlimited();
                let m = reach(
                    &g,
                    spine[0],
                    &nfa,
                    PathSemantics::AllShortestPaths,
                    &guard,
                    &mut stats,
                )
                .unwrap();
                black_box(m.len())
            });
        });
    }
    group.finish();
}

fn bench_er_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdmc_erdos_renyi");
    group.sample_size(20);
    for n in [200usize, 400, 800] {
        let g = erdos_renyi(n, 4.0 / n as f64, 3);
        let nfa = CompiledDarpe::compile(&darpe::parse("E>*").unwrap(), g.schema()).unwrap();
        let src = pgraph::graph::VertexId(0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut stats = MatchStats::default();
                let guard = QueryGuard::unlimited();
                let m =
                    reach(&g, src, &nfa, PathSemantics::AllShortestPaths, &guard, &mut stats)
                        .unwrap();
                black_box(m.len())
            });
        });
    }
    group.finish();
}

fn bench_er_kernel_reused(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdmc_erdos_renyi_reused");
    group.sample_size(20);
    for n in [200usize, 400, 800] {
        let g = erdos_renyi(n, 4.0 / n as f64, 3);
        let nfa = CompiledDarpe::compile(&darpe::parse("E>*").unwrap(), g.schema()).unwrap();
        let mut kernel = Kernel::new(&nfa, &g);
        let src = pgraph::graph::VertexId(0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut stats = MatchStats::default();
                let guard = QueryGuard::unlimited();
                let m = kernel
                    .reach(&g, src, PathSemantics::AllShortestPaths, &guard, &mut stats)
                    .unwrap();
                black_box(m.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_diamond_scaling, bench_er_kernel, bench_er_kernel_reused);
criterion_main!(benches);
