//! Property-based tests of the geometric primitives.

use geometry::{CutDirection, Orientation, Point, PolishExpression, Rect, ShapeCurve};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0i64..1000, 0i64..1000, 1i64..500, 1i64..500)
        .prop_map(|(x, y, w, h)| Rect::from_size(x, y, w, h))
}

/// Oracle: composition by all `|a|·|b|` pairs, then the Pareto filter.
/// An empty curve is unconstrained and composes as the identity.
fn all_pairs_compose(a: &ShapeCurve, b: &ShapeCurve, horizontal: bool) -> ShapeCurve {
    if a.is_unconstrained() {
        return b.clone();
    }
    if b.is_unconstrained() {
        return a.clone();
    }
    let mut pairs = Vec::new();
    for &(w1, h1) in a.points() {
        for &(w2, h2) in b.points() {
            pairs.push(if horizontal { (w1 + w2, h1.max(h2)) } else { (w1.max(w2), h1 + h2) });
        }
    }
    ShapeCurve::from_points(pairs)
}

/// Curves from a small coordinate range, so equal widths, equal heights and
/// duplicate points are common; an empty point list is the unconstrained
/// curve.
fn arb_curve() -> impl Strategy<Value = ShapeCurve> {
    prop::collection::vec((0i64..12, 0i64..12), 0..9).prop_map(ShapeCurve::from_points)
}

proptest! {
    #[test]
    fn merge_compose_equals_all_pairs(a in arb_curve(), b in arb_curve()) {
        prop_assert_eq!(a.compose_horizontal(&b), all_pairs_compose(&a, &b, true));
        prop_assert_eq!(a.compose_vertical(&b), all_pairs_compose(&a, &b, false));
        prop_assert_eq!(a.compose_cut(&b, CutDirection::Vertical), all_pairs_compose(&a, &b, true));
        prop_assert_eq!(a.compose_cut(&b, CutDirection::Horizontal), all_pairs_compose(&a, &b, false));
    }

    #[test]
    fn undone_moves_restore_the_expression(n in 2usize..12, seed in 0u64..500, moves in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        for _ in 0..moves {
            let before = expr.clone();
            let m = expr.random_move(&mut rng);
            // positions outside the touched ranges are untouched
            let touched = m.touched();
            for (p, (a, b)) in before.tokens().iter().zip(expr.tokens()).enumerate() {
                if !touched.iter().any(|r| r.contains(&p)) {
                    prop_assert_eq!(a, b);
                }
            }
            let after = expr.clone();
            expr.undo(m);
            prop_assert_eq!(&expr, &before);
            expr = after;
        }
    }

    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert_eq!(i.area(), a.overlap_area(&b));
        } else {
            prop_assert_eq!(a.overlap_area(&b), 0);
        }
    }

    #[test]
    fn rect_union_contains_both_and_is_minimal_in_area(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() >= a.area().max(b.area()));
    }

    #[test]
    fn overlap_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
    }

    #[test]
    fn splits_partition_area(r in arb_rect(), frac in 0.0f64..1.0) {
        let x = r.llx + ((r.width() as f64) * frac) as i64;
        let (l, rr) = r.split_vertical(x);
        prop_assert_eq!(l.area() + rr.area(), r.area());
        let y = r.lly + ((r.height() as f64) * frac) as i64;
        let (b, t) = r.split_horizontal(y);
        prop_assert_eq!(b.area() + t.area(), r.area());
    }

    #[test]
    fn manhattan_distance_satisfies_triangle_inequality(
        ax in -1000i64..1000, ay in -1000i64..1000,
        bx in -1000i64..1000, by in -1000i64..1000,
        cx in -1000i64..1000, cy in -1000i64..1000,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
    }

    #[test]
    fn orientation_transform_preserves_footprint_membership(
        w in 1i64..200, h in 1i64..200, px in 0i64..200, py in 0i64..200,
    ) {
        let pin = Point::new(px.min(w), py.min(h));
        for o in Orientation::ALL {
            let (tw, th) = o.transformed_size(w, h);
            let p = o.transform_pin(pin, w, h);
            prop_assert!(p.x >= 0 && p.x <= tw);
            prop_assert!(p.y >= 0 && p.y <= th);
            // transformed footprint preserves area
            prop_assert_eq!(tw * th, w * h);
        }
    }

    #[test]
    fn shape_curve_points_are_pareto_minimal(
        points in prop::collection::vec((1i64..500, 1i64..500), 1..20)
    ) {
        let curve = ShapeCurve::from_points(points.clone());
        let pts = curve.points();
        // strictly increasing width, strictly decreasing height
        for pair in pts.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0);
            prop_assert!(pair[0].1 > pair[1].1);
        }
        // every original point is dominated by (or equal to) some curve point
        for (w, h) in points {
            prop_assert!(curve.fits(w, h));
        }
    }

    #[test]
    fn shape_curve_composition_min_area_at_least_sum(
        a_pts in prop::collection::vec((1i64..100, 1i64..100), 1..6),
        b_pts in prop::collection::vec((1i64..100, 1i64..100), 1..6),
    ) {
        let a = ShapeCurve::from_points(a_pts);
        let b = ShapeCurve::from_points(b_pts);
        let h = a.compose_horizontal(&b);
        let v = a.compose_vertical(&b);
        // a packing of both can never use less area than the two smallest members
        prop_assert!(h.min_area() >= a.min_area() + b.min_area());
        prop_assert!(v.min_area() >= a.min_area() + b.min_area());
    }

    #[test]
    fn shape_curve_fits_is_monotone(
        pts in prop::collection::vec((1i64..300, 1i64..300), 1..10),
        w in 1i64..400, h in 1i64..400,
    ) {
        let curve = ShapeCurve::from_points(pts);
        if curve.fits(w, h) {
            prop_assert!(curve.fits(w + 10, h));
            prop_assert!(curve.fits(w, h + 10));
        }
    }

    #[test]
    fn polish_moves_preserve_validity_and_leaf_set(n in 2usize..12, seed in 0u64..500, moves in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut expr = PolishExpression::chain(n, CutDirection::Vertical);
        for _ in 0..moves {
            expr.random_move(&mut rng);
            prop_assert!(expr.is_valid());
        }
        let mut leaves = expr.to_tree().leaf_order();
        leaves.sort_unstable();
        prop_assert_eq!(leaves, (0..n).collect::<Vec<_>>());
    }
}
