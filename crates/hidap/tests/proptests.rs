//! Property-based tests of the placer's internal invariants.

use geometry::{
    CutDirection, Point, PolishExpression, Rect, ShapeCurve, SlicingFold, SlicingMemo, SlicingNode,
    SlicingTree,
};
use hidap::layout::{budget_areas, AreaBudget, LayoutBlock, LayoutProblem};
use hidap::legalize::{legalize_macros, MacroFootprint, MacroFootprints};
use hidap::shape_curves::{macro_packing_curve, MacroPacking};
use hidap::HidapConfig;
use netlist::design::DesignBuilder;
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Oracle: every subtree's value composed recursively from scratch over the
/// explicit slicing tree, indexed like the tree's nodes (by postfix
/// position).
fn fresh_values<F: SlicingFold>(fold: &F, tree: &SlicingTree) -> Vec<Option<F::Value>> {
    fn visit<F: SlicingFold>(
        fold: &F,
        tree: &SlicingTree,
        idx: usize,
        out: &mut Vec<Option<F::Value>>,
    ) -> F::Value {
        let value = match *tree.node(idx) {
            SlicingNode::Leaf { block } => fold.leaf(block),
            SlicingNode::Internal { cut, left, right } => {
                let l = visit(fold, tree, left, out);
                let r = visit(fold, tree, right, out);
                fold.cut(cut, &l, &r)
            }
        };
        out[idx] = Some(value.clone());
        value
    }
    let mut out = vec![None; tree.nodes().len()];
    visit(fold, tree, tree.root(), &mut out);
    out
}

/// Drives `memo` through `steps` random propose/accept/reject rounds and
/// checks every memoized subtree against the from-scratch oracle, both
/// while a move is pending and after it is settled.
fn check_memo_against_oracle<F>(memo: &mut SlicingMemo<F>, seed: u64, steps: usize)
where
    F: SlicingFold + Clone,
    F::Value: PartialEq + std::fmt::Debug,
{
    let check = |memo: &SlicingMemo<F>| {
        let tree = memo.expression().to_tree();
        let fresh = fresh_values(memo.fold(), &tree);
        for (pos, value) in fresh.iter().enumerate() {
            assert_eq!(&memo.node(pos), tree.node(pos), "structure at position {pos}");
            assert_eq!(Some(memo.value(pos)), value.as_ref(), "value at position {pos}");
        }
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    check(memo);
    for _ in 0..steps {
        memo.propose(&mut rng);
        check(memo);
        if rand::Rng::gen::<bool>(&mut rng) {
            memo.accept();
        } else {
            memo.reject();
        }
        check(memo);
    }
}

fn soft_blocks(areas: &[i128]) -> Vec<LayoutBlock> {
    areas
        .iter()
        .map(|&a| LayoutBlock { shape: ShapeCurve::unconstrained(), min_area: a, target_area: a })
        .collect()
}

proptest! {
    #[test]
    fn area_budgeting_partitions_the_region_exactly(
        areas in prop::collection::vec(100i128..50_000, 2..10),
        region_w in 100i64..2000,
        region_h in 100i64..2000,
        seed in 0u64..100,
    ) {
        let n = areas.len();
        let problem = LayoutProblem {
            region: Rect::new(0, 0, region_w, region_h),
            blocks: soft_blocks(&areas),
            affinity: graphs::AffinityMatrix::zeros(n),
            fixed_positions: vec![None; n],
        };
        // random but valid slicing expression
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        for _ in 0..20 {
            expr.random_move(&mut rng);
        }
        let rects = budget_areas(&SlicingMemo::new(expr, AreaBudget::new(&problem, &HidapConfig::fast())));
        prop_assert_eq!(rects.len(), n);
        // the region is exactly partitioned: total area matches and no overlaps
        let total: i128 = rects.iter().map(Rect::area).sum();
        prop_assert_eq!(total, problem.region.area());
        for i in 0..n {
            prop_assert!(problem.region.contains_rect(&rects[i]));
            for j in (i + 1)..n {
                prop_assert!(!rects[i].overlaps(&rects[j]), "blocks {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn packing_curve_never_beats_total_area_and_always_fits_some_box(
        sizes in prop::collection::vec((5i64..60, 5i64..60), 1..6),
        seed in 0u64..50,
    ) {
        let leaves: Vec<ShapeCurve> = sizes.iter().map(|&(w, h)| ShapeCurve::from_macro(w, h, true)).collect();
        let total: i128 = sizes.iter().map(|&(w, h)| w as i128 * h as i128).sum();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let curve = macro_packing_curve(&leaves, &HidapConfig::fast(), &mut rng);
        prop_assert!(curve.min_area() >= total);
        // the sum of all widths times the max height is always feasible (a row)
        let row_w: i64 = sizes.iter().map(|&(w, h)| w.max(h)).sum();
        let row_h: i64 = sizes.iter().map(|&(w, h)| w.max(h)).max().unwrap();
        prop_assert!(curve.fits(row_w, row_h) || curve.min_area() <= (row_w as i128 * row_h as i128));
    }

    #[test]
    fn memoized_packing_curves_equal_fresh_composition(
        sizes in prop::collection::vec((5i64..60, 5i64..60), 2..14),
        limit in 2usize..8,
        seed in 0u64..1000,
    ) {
        let leaves: Vec<ShapeCurve> =
            sizes.iter().map(|&(w, h)| ShapeCurve::from_macro(w, h, w % 3 != 0)).collect();
        let expr = PolishExpression::chain(leaves.len(), CutDirection::Horizontal);
        let mut memo = SlicingMemo::new(expr, MacroPacking::new(&leaves, limit));
        check_memo_against_oracle(&mut memo, seed, 40);
    }

    #[test]
    fn memoized_area_budgets_equal_fresh_composition(
        blocks in prop::collection::vec((5i64..60, 5i64..60, 1i128..5_000, any::<bool>()), 2..14),
        seed in 0u64..1000,
    ) {
        let n = blocks.len();
        let problem = LayoutProblem {
            region: Rect::new(0, 0, 1000, 800),
            blocks: blocks
                .iter()
                .map(|&(w, h, extra, hard)| LayoutBlock {
                    shape: if hard { ShapeCurve::from_macro(w, h, true) } else { ShapeCurve::unconstrained() },
                    min_area: (w * h) as i128,
                    target_area: (w * h) as i128 + extra,
                })
                .collect(),
            affinity: graphs::AffinityMatrix::zeros(n),
            fixed_positions: vec![None; n],
        };
        let config = HidapConfig { shape_curve_limit: 4, ..HidapConfig::fast() };
        let expr = PolishExpression::chain(n, CutDirection::Vertical);
        let mut memo = SlicingMemo::new(expr, AreaBudget::new(&problem, &config));
        check_memo_against_oracle(&mut memo, seed, 40);
    }

    #[test]
    fn legalization_always_produces_overlap_free_layouts(
        macros in prop::collection::vec((10i64..150, 10i64..150, 0i64..800, 0i64..800), 1..12),
    ) {
        let mut b = DesignBuilder::new("prop");
        let mut footprints = MacroFootprints::default();
        for (i, &(w, h, x, y)) in macros.iter().enumerate() {
            let id = b.add_macro(format!("m{i}"), "RAM", w, h, "");
            footprints.insert(id, MacroFootprint { location: Point::new(x, y), rotated: false });
        }
        b.set_die(Rect::new(0, 0, 1000, 1000));
        let design = b.build();
        legalize_macros(&design, design.die(), &mut footprints);
        let rects: Vec<Rect> = footprints.iter().map(|(c, fp)| fp.rect(&design, c)).collect();
        for (i, r) in rects.iter().enumerate() {
            prop_assert!(design.die().contains_rect(r), "macro {i} outside die: {r}");
            for (j, other) in rects.iter().enumerate().skip(i + 1) {
                prop_assert!(!r.overlaps(other), "macros {i} and {j} overlap");
            }
        }
    }
}
