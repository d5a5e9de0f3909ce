//! Criterion micro-benchmarks for the core building blocks of the flow:
//! shape-curve composition, sequential-graph construction, one level of
//! layout generation, the full flow on small presets, and the evaluation
//! pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geometry::{CutDirection, PolishExpression, Rect, ShapeCurve, SlicingMemo};
use graphs::seqgraph::SeqGraphConfig;
use graphs::SeqGraph;
use hidap::layout::{generate_layout, LayoutBlock, LayoutProblem};
use hidap::shape_curves::MacroPacking;
use hidap::{HidapConfig, HidapFlow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::presets::{fig1_design, generate_circuit};

fn bench_shape_curves(c: &mut Criterion) {
    let mut group = c.benchmark_group("shape_curve_composition");
    for &n in &[8usize, 32, 64] {
        let leaves: Vec<ShapeCurve> = (0..n)
            .map(|i| {
                ShapeCurve::from_macro(40 + (i as i64 % 7) * 10, 30 + (i as i64 % 5) * 10, true)
            })
            .collect();
        let expr = PolishExpression::chain(n, CutDirection::Vertical);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| SlicingMemo::new(expr.clone(), MacroPacking::new(&leaves, 24)).root().clone())
        });
    }
    group.finish();
}

fn bench_seq_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("gseq_construction");
    group.sample_size(20);
    for name in ["c1", "c5"] {
        let generated = generate_circuit(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &generated, |b, g| {
            b.iter(|| SeqGraph::from_design(&g.design, &SeqGraphConfig { min_register_bits: 4 }))
        });
    }
    group.finish();
}

fn bench_layout_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_generation");
    group.sample_size(10);
    for &n in &[4usize, 12] {
        let blocks: Vec<LayoutBlock> = (0..n)
            .map(|i| LayoutBlock {
                shape: ShapeCurve::from_macro(100 + 10 * i as i64, 80, true),
                min_area: 20_000,
                target_area: 30_000,
            })
            .collect();
        let mut affinity = graphs::AffinityMatrix::zeros(n);
        for i in 0..n {
            affinity.set(i, (i + 1) % n, 10.0);
            affinity.set((i + 1) % n, i, 10.0);
        }
        let problem = LayoutProblem {
            region: Rect::new(0, 0, 1200, 900),
            blocks,
            affinity,
            fixed_positions: vec![None; n],
        };
        let config = HidapConfig::fast();
        group.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                generate_layout(p, &config, &mut rng)
            })
        });
    }
    group.finish();
}

fn bench_full_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flow");
    group.sample_size(10);
    let fig1 = fig1_design();
    group.bench_function("fig1_16_macros", |b| {
        b.iter(|| HidapFlow::new(HidapConfig::fast()).run(&fig1.design).expect("flow"))
    });
    let c1 = generate_circuit("c1");
    group.bench_function("c1_32_macros", |b| {
        b.iter(|| HidapFlow::new(HidapConfig::fast()).run(&c1.design).expect("flow"))
    });
    group.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluation_pipeline");
    group.sample_size(10);
    let c1 = generate_circuit("c1");
    let placement = HidapFlow::new(HidapConfig::fast()).run(&c1.design).expect("flow");
    // one-shot: a fresh Evaluator per candidate rebuilds Gseq every time
    // (the shape of the deleted pre-session `evaluate_placement` path)
    group.bench_function("evaluate_c1_oneshot", |b| {
        b.iter(|| {
            eval::Evaluator::new(eval::EvalConfig::standard()).evaluate(&c1.design, &placement)
        })
    });
    // session: the sweep shape — one Evaluator, Gseq cached across calls
    let mut session = eval::Evaluator::new(eval::EvalConfig::standard());
    group.bench_function("evaluate_c1_session", |b| {
        b.iter(|| session.evaluate(&c1.design, &placement))
    });
    group.finish();
}

/// Hashmap-vs-dense comparison of the two hot paths the data-plane refactor
/// targets: the Gauss–Seidel placer sweep and HPWL (see `bench_placer` for
/// the large_soc-scale run that emits `BENCH_placer.json`).
fn bench_hashmap_vs_dense(c: &mut Criterion) {
    use bench::reference::{place_standard_cells_hashmap, total_hpwl_hashmap};

    let mut group = c.benchmark_group("hashmap_vs_dense");
    group.sample_size(10);
    let c1 = generate_circuit("c1");
    let placement = HidapFlow::new(HidapConfig::fast()).run(&c1.design).expect("flow");
    let map = placement.to_map();
    let cfg = eval::PlacerConfig::default();
    group.bench_function("placer_c1_hashmap", |b| {
        b.iter(|| place_standard_cells_hashmap(&c1.design, &map, &cfg))
    });
    group.bench_function("placer_c1_dense", |b| {
        b.iter(|| eval::place_standard_cells(&c1.design, &map, &cfg))
    });
    let reference = place_standard_cells_hashmap(&c1.design, &map, &cfg);
    let dense = eval::place_standard_cells(&c1.design, &map, &cfg);
    group.bench_function("hpwl_c1_hashmap", |b| {
        b.iter(|| total_hpwl_hashmap(&c1.design, &reference))
    });
    group.bench_function("hpwl_c1_dense", |b| b.iter(|| eval::total_hpwl(&c1.design, &dense)));
    group.finish();
}

criterion_group!(
    benches,
    bench_shape_curves,
    bench_seq_graph,
    bench_layout_generation,
    bench_full_flow,
    bench_evaluation,
    bench_hashmap_vs_dense
);
criterion_main!(benches);
