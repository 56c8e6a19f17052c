//! E6 — graph substrate: Tarjan SCC and source-component throughput on
//! stage-one graphs, and the Lemma 6/7 checkers as verification cost.
//!
//! A `Digraph` keeps its source components once a query has found them, so
//! every source-component iteration below queries a fresh clone of a graph
//! that is never queried itself. `e6_graph_clone` times that clone alone:
//! subtract it to get the analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use kset_graph::{check_lemma6, check_lemma7, source_components, stage_one_graph, tarjan_scc};

fn bench_scc(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_tarjan_scc");
    for n in [32usize, 128, 512, 2048] {
        let g = stage_one_graph(n, 3, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let scc = tarjan_scc(g);
                assert!(scc.count() >= 1);
            });
        });
    }
    group.finish();
}

fn bench_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_graph_clone");
    for n in [32usize, 128, 512, 2048] {
        let g = stage_one_graph(n, 3, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| g.clone());
        });
    }
    group.finish();
}

fn bench_source_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_source_components");
    for n in [32usize, 128, 512, 2048] {
        let g = stage_one_graph(n, 3, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let s = source_components(&g.clone());
                assert!(!s.is_empty());
            });
        });
    }
    group.finish();
}

fn bench_lemma_checkers(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_lemma_checkers");
    for n in [32usize, 128, 512] {
        let g = stage_one_graph(n, 3, 7);
        group.bench_with_input(BenchmarkId::new("lemma6", n), &g, |b, g| {
            b.iter(|| check_lemma6(&g.clone(), 3).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("lemma7", n), &g, |b, g| {
            b.iter(|| check_lemma7(&g.clone(), 3).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scc,
    bench_clone,
    bench_source_components,
    bench_lemma_checkers
);
criterion_main!(benches);
