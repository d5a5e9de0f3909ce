//! Layout generation (Sect. IV-E): slicing-tree simulated annealing with
//! top-down area budgeting.
//!
//! The layout of one floorplanning level is represented by a normalized
//! Polish expression over the level's blocks.  Because block shapes are not
//! fixed a priori, the assigned region is treated as a *budget*: every cut
//! splits its rectangle proportionally to the target areas of the two
//! subtrees, so the layout always uses exactly the area it was given.  When a
//! subtree's macros do not fit in their allotted rectangle, area is moved
//! from the sibling and a penalty is charged depending on the severity of the
//! violation (target area < minimum area < macro area).
//!
//! The annealer minimizes `penalty · Σ affinity(i,j) · distance(i,j)` where
//! distance is measured between block centers (and to the fixed positions of
//! ports and already-placed context blocks).
//!
//! The bottom-up half of the budgeting (every subtree's summed target area
//! and composed shape curve, [`AreaBudget`]) lives in a [`SlicingMemo`]
//! keyed by the postfix position of each subtree's root token. A cached
//! entry stays valid while no token in its range `start..=root` changes, so
//! a move recomputes only the subtrees whose range holds a rewritten token,
//! and a rejected move is undone in place. Each recomputed node adds the
//! same two target areas and composes the same two curves as a
//! from-scratch pass, so costs and rectangles are bit-identical to it. The
//! top-down split ([`budget_areas`]) walks the memo and reads those values.

use crate::config::HidapConfig;
use geometry::{
    CutDirection, Point, PolishExpression, Rect, ShapeCurve, SlicingFold, SlicingMemo, SlicingNode,
};
use graphs::AffinityMatrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A block as seen by layout generation: the ⟨Γ, am, at⟩ triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutBlock {
    /// Shape curve of the block's macros.
    pub shape: ShapeCurve,
    /// Minimum area `am` in DBU².
    pub min_area: i128,
    /// Target area `at` in DBU².
    pub target_area: i128,
}

/// The input of layout generation for one level.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutProblem {
    /// The rectangle the blocks must fill.
    pub region: Rect,
    /// The movable blocks. Their indices are dataflow nodes `0..blocks.len()`.
    pub blocks: Vec<LayoutBlock>,
    /// Symmetric affinity matrix over movable blocks followed by fixed nodes
    /// (flat row-major storage).
    pub affinity: AffinityMatrix,
    /// Position of each fixed node (entries `blocks.len()..affinity.len()`);
    /// entries for movable blocks are ignored.
    pub fixed_positions: Vec<Option<Point>>,
}

/// The result of layout generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutResult {
    /// One rectangle per movable block, filling the region exactly.
    pub rects: Vec<Rect>,
    /// Final value of the (penalized) cost function.
    pub cost: f64,
    /// Final penalty multiplier (1.0 for a fully legal layout).
    pub penalty: f64,
    /// The wirelength proxy Σ affinity · distance without the penalty.
    pub wirelength: f64,
}

/// Violation totals collected while budgeting areas top-down.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Violations {
    /// Area by which blocks fell short of their target area.
    target_area: f64,
    /// Area by which blocks fell short of their minimum area.
    min_area: f64,
    /// Area by which macro shape curves do not fit their rectangles.
    macro_area: f64,
}

/// Generates the layout of a set of blocks by simulated annealing.
///
/// For zero blocks the result is empty; for a single block the region is
/// assigned to it directly.
pub fn generate_layout<R: Rng + ?Sized>(
    problem: &LayoutProblem,
    config: &HidapConfig,
    rng: &mut R,
) -> LayoutResult {
    let n = problem.blocks.len();
    if n == 0 {
        return LayoutResult { rects: Vec::new(), cost: 0.0, penalty: 1.0, wirelength: 0.0 };
    }
    if n == 1 {
        let rects = vec![problem.region];
        let (cost, penalty, wl) = evaluate_rects(problem, &rects, config);
        return LayoutResult { rects, cost, penalty, wirelength: wl };
    }

    let mut memo = SlicingMemo::new(
        PolishExpression::chain(n, CutDirection::Vertical),
        AreaBudget::new(problem, config),
    );
    let mut best_rects = budget_areas(&memo);
    let mut current_cost = evaluate_rects(problem, &best_rects, config).0;
    let mut best_cost = current_cost;

    // Calibrate the initial temperature from the magnitude of random move
    // deltas along a random walk away from the starting expression.
    let mut deltas = Vec::new();
    let mut probe = memo.clone();
    for _ in 0..(4 * n).max(16) {
        probe.propose(rng);
        probe.accept();
        let c = evaluate_rects(problem, &budget_areas(&probe), config).0;
        deltas.push((c - current_cost).abs());
    }
    let avg_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let mut temperature =
        if avg_delta > 0.0 { -avg_delta / config.sa_initial_acceptance.ln() } else { 1.0 };

    let moves_per_step = config.sa_moves_per_block * n;
    for _ in 0..config.sa_temperature_steps {
        for _ in 0..moves_per_step {
            memo.propose(rng);
            let rects = budget_areas(&memo);
            let cost = evaluate_rects(problem, &rects, config).0;
            let delta = cost - current_cost;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp() {
                memo.accept();
                current_cost = cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best_rects = rects;
                }
            } else {
                memo.reject();
            }
        }
        temperature *= config.sa_cooling;
    }

    let (cost, penalty, wl) = evaluate_rects(problem, &best_rects, config);
    debug_assert!((cost - best_cost).abs() < 1e-6 || best_cost <= cost);
    LayoutResult { rects: best_rects, cost, penalty, wirelength: wl }
}

/// The slicing fold of layout generation: a subtree's value is its summed
/// target area and the composed shape curve of its blocks, pruned to the
/// configured limit.
#[derive(Debug, Clone, Copy)]
pub struct AreaBudget<'a> {
    problem: &'a LayoutProblem,
    limit: usize,
}

impl<'a> AreaBudget<'a> {
    /// The fold over the blocks of `problem`.
    pub fn new(problem: &'a LayoutProblem, config: &HidapConfig) -> Self {
        Self { problem, limit: config.shape_curve_limit }
    }
}

impl SlicingFold for AreaBudget<'_> {
    type Value = (f64, ShapeCurve);

    fn leaf(&self, block: usize) -> (f64, ShapeCurve) {
        let block = &self.problem.blocks[block];
        (block.target_area.max(1) as f64, block.shape.clone())
    }

    fn cut(
        &self,
        cut: CutDirection,
        (left_target, left): &(f64, ShapeCurve),
        (right_target, right): &(f64, ShapeCurve),
    ) -> (f64, ShapeCurve) {
        (left_target + right_target, left.compose_cut(right, cut).pruned(self.limit))
    }
}

/// Computes the block rectangles implied by a memoized Polish expression
/// via top-down area budgeting.
pub fn budget_areas(memo: &SlicingMemo<AreaBudget<'_>>) -> Vec<Rect> {
    let problem = memo.fold().problem;
    // The region is a budget: scale target areas so they fill it exactly.
    let region_area = problem.region.area() as f64;
    let total_target: f64 = memo.root().0.max(1.0);
    let scale = region_area / total_target;

    let mut rects = vec![problem.region; problem.blocks.len()];
    assign(memo, memo.root_position(), problem.region, scale, &mut rects);
    rects
}

fn assign(
    memo: &SlicingMemo<AreaBudget<'_>>,
    idx: usize,
    rect: Rect,
    scale: f64,
    rects: &mut [Rect],
) {
    match memo.node(idx) {
        SlicingNode::Leaf { block } => {
            rects[block] = rect;
        }
        SlicingNode::Internal { cut, left, right } => {
            let (target_left, shape_left) = memo.value(left);
            let (target_right, shape_right) = memo.value(right);
            let t_left = target_left * scale;
            let t_right = target_right * scale;
            let total = (t_left + t_right).max(1.0);
            match cut {
                CutDirection::Vertical => {
                    let width = rect.width();
                    let mut w_left = ((width as f64) * t_left / total).round() as i64;
                    // Shape-curve driven adjustment: move area between the two
                    // children if a child's macros cannot fit in its share.
                    let h = rect.height();
                    let need_left = shape_left.min_width_for_height(h).unwrap_or(width);
                    let need_right = shape_right.min_width_for_height(h).unwrap_or(width);
                    if w_left < need_left {
                        w_left = need_left.min(width - need_right).max(w_left);
                    }
                    if width - w_left < need_right {
                        let w_right = need_right.min(width - need_left).max(width - w_left);
                        w_left = width - w_right;
                    }
                    let w_left = w_left.clamp(0, width);
                    let x = rect.llx + w_left;
                    let (l, r) = rect.split_vertical(x);
                    assign(memo, left, l, scale, rects);
                    assign(memo, right, r, scale, rects);
                }
                CutDirection::Horizontal => {
                    let height = rect.height();
                    let mut h_bottom = ((height as f64) * t_left / total).round() as i64;
                    let w = rect.width();
                    let need_bottom = shape_left.min_height_for_width(w).unwrap_or(height);
                    let need_top = shape_right.min_height_for_width(w).unwrap_or(height);
                    if h_bottom < need_bottom {
                        h_bottom = need_bottom.min(height - need_top).max(h_bottom);
                    }
                    if height - h_bottom < need_top {
                        let h_top = need_top.min(height - need_bottom).max(height - h_bottom);
                        h_bottom = height - h_top;
                    }
                    let h_bottom = h_bottom.clamp(0, height);
                    let y = rect.lly + h_bottom;
                    let (b, t) = rect.split_horizontal(y);
                    assign(memo, left, b, scale, rects);
                    assign(memo, right, t, scale, rects);
                }
            }
        }
    }
}

/// Evaluates a set of block rectangles: returns `(cost, penalty, wirelength)`.
pub fn evaluate_rects(
    problem: &LayoutProblem,
    rects: &[Rect],
    config: &HidapConfig,
) -> (f64, f64, f64) {
    let violations = collect_violations(problem, rects);
    let region_area = (problem.region.area() as f64).max(1.0);
    let penalty = 1.0
        + config.penalty_target_area * violations.target_area / region_area
        + config.penalty_min_area * violations.min_area / region_area
        + config.penalty_macro * violations.macro_area / region_area;
    let wirelength = wirelength_proxy(problem, rects);
    (wirelength * penalty, penalty, wirelength)
}

fn collect_violations(problem: &LayoutProblem, rects: &[Rect]) -> Violations {
    let mut v = Violations::default();
    for (block, rect) in problem.blocks.iter().zip(rects) {
        let area = rect.area() as f64;
        let target = block.target_area as f64;
        let min = block.min_area as f64;
        if area < target {
            v.target_area += target - area;
        }
        if area < min {
            v.min_area += min - area;
        }
        if !block.shape.fits(rect.width(), rect.height()) {
            // severity: how much macro area does not fit
            let macro_area = block.shape.min_area() as f64;
            let deficit = (macro_area - area).max(macro_area * 0.25);
            v.macro_area += deficit;
        }
    }
    v
}

/// The Σ affinity · distance objective over block centers and fixed nodes.
pub fn wirelength_proxy(problem: &LayoutProblem, rects: &[Rect]) -> f64 {
    let n = problem.blocks.len();
    let total_nodes = problem.affinity.len();
    let mut centers: Vec<Point> = rects.iter().map(Rect::center).collect();
    for idx in n..total_nodes {
        centers.push(
            problem
                .fixed_positions
                .get(idx)
                .copied()
                .flatten()
                .unwrap_or_else(|| problem.region.center()),
        );
    }
    let mut wl = 0.0;
    for i in 0..n {
        let row = problem.affinity.row(i);
        for j in (i + 1)..total_nodes {
            let a = row[j];
            if a > 0.0 {
                wl += a * centers[i].manhattan_distance(centers[j]) as f64;
            }
        }
    }
    wl
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn soft_block(target: i128) -> LayoutBlock {
        LayoutBlock { shape: ShapeCurve::unconstrained(), min_area: target, target_area: target }
    }

    fn hard_block(w: i64, h: i64) -> LayoutBlock {
        LayoutBlock {
            shape: ShapeCurve::from_macro(w, h, true),
            min_area: (w * h) as i128,
            target_area: (w * h) as i128,
        }
    }

    fn no_affinity(n: usize) -> (AffinityMatrix, Vec<Option<Point>>) {
        (AffinityMatrix::zeros(n), vec![None; n])
    }

    #[test]
    fn empty_and_single_block() {
        let (aff, fixed) = no_affinity(0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(generate_layout(&p, &HidapConfig::fast(), &mut rng).rects.is_empty());

        let (aff, fixed) = no_affinity(1);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(5000)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert_eq!(r.rects, vec![Rect::new(0, 0, 100, 100)]);
    }

    #[test]
    fn rects_partition_the_region() {
        let (aff, fixed) = no_affinity(4);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 120, 90),
            blocks: vec![soft_block(2700), soft_block(2700), soft_block(2700), soft_block(2700)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        let total: i128 = r.rects.iter().map(Rect::area).sum();
        assert_eq!(total, 120 * 90, "area budget fully used");
        // no two rects overlap
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!r.rects[i].overlaps(&r.rects[j]));
            }
        }
        // rects stay inside the region
        for rect in &r.rects {
            assert!(p.region.contains_rect(rect));
        }
    }

    #[test]
    fn proportional_budgeting_without_macros() {
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(7500), soft_block(2500)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let expr = PolishExpression::chain(2, CutDirection::Vertical);
        let rects =
            budget_areas(&SlicingMemo::new(expr, AreaBudget::new(&p, &HidapConfig::fast())));
        assert_eq!(rects[0].area(), 7500);
        assert_eq!(rects[1].area(), 2500);
    }

    #[test]
    fn macro_block_gets_enough_space() {
        // one block holds an 80x30 macro, the other is soft; naive
        // proportional split of a 100x50 region would give the macro block
        // only half the width, the shape-curve adjustment must widen it.
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 50),
            blocks: vec![hard_block(80, 30), soft_block(2400)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let expr = PolishExpression::chain(2, CutDirection::Vertical);
        let rects =
            budget_areas(&SlicingMemo::new(expr, AreaBudget::new(&p, &HidapConfig::fast())));
        assert!(
            p.blocks[0].shape.fits(rects[0].width(), rects[0].height()),
            "macro must fit its rect {:?}",
            rects[0]
        );
    }

    #[test]
    fn affinity_pulls_connected_blocks_together() {
        // 4 equal blocks; blocks 0 and 3 are strongly connected, the rest not.
        let n = 4;
        let mut aff = AffinityMatrix::zeros(n);
        aff.set(0, 3, 100.0);
        aff.set(3, 0, 100.0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 200, 200),
            blocks: (0..n).map(|_| soft_block(10_000)).collect(),
            affinity: aff,
            fixed_positions: vec![None; n],
        };
        let mut rng = StdRng::seed_from_u64(3);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        let d03 = r.rects[0].center_distance(&r.rects[3]);
        let d01 = r.rects[0].center_distance(&r.rects[1]);
        let d02 = r.rects[0].center_distance(&r.rects[2]);
        assert!(
            d03 <= d01.max(d02),
            "connected blocks should end up adjacent: d03={d03} d01={d01} d02={d02}"
        );
    }

    #[test]
    fn fixed_node_attracts_block() {
        // two blocks, block 0 strongly tied to a fixed node at the left edge
        let total = 3;
        let mut aff = AffinityMatrix::zeros(total);
        aff.set(0, 2, 50.0);
        aff.set(2, 0, 50.0);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 300, 100),
            blocks: vec![soft_block(15_000), soft_block(15_000)],
            affinity: aff,
            fixed_positions: vec![None, None, Some(Point::new(0, 50))],
        };
        let mut rng = StdRng::seed_from_u64(4);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert!(
            r.rects[0].center().x <= r.rects[1].center().x,
            "block 0 should sit on the side of its fixed attractor"
        );
    }

    #[test]
    fn penalty_reported_for_infeasible_macros() {
        // a macro that simply cannot fit the region at all
        let (aff, fixed) = no_affinity(2);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 40),
            blocks: vec![hard_block(90, 39), hard_block(90, 39)],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert!(r.penalty > 1.0, "impossible layouts must carry a penalty");
    }

    #[test]
    fn wirelength_zero_without_affinity() {
        let (aff, fixed) = no_affinity(3);
        let p = LayoutProblem {
            region: Rect::new(0, 0, 100, 100),
            blocks: vec![soft_block(3000); 3],
            affinity: aff,
            fixed_positions: fixed,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let r = generate_layout(&p, &HidapConfig::fast(), &mut rng);
        assert_eq!(r.wirelength, 0.0);
        assert_eq!(r.cost, 0.0);
    }
}
