//! Shape curves: Pareto sets of feasible bounding boxes.
//!
//! A shape curve Γ (paper Sect. II-D) describes, for a block containing hard
//! macros, the set of minimal bounding boxes `(width, height)` such that a
//! legal (non-overlapping) placement of the macros exists inside the box.
//! Only the Pareto-minimal points are stored: a box `(w, h)` is feasible iff
//! there is a curve point `(w', h')` with `w' <= w` and `h' <= h`.
//!
//! Composing two curves under a slicing cut is Stockmeyer's linear merge
//! (Inf. & Control 1983): because both point lists are sorted with widths
//! rising and heights falling, one pass over the two lists in step finds
//! every Pareto point of the composition in `O(|a| + |b|)`, instead of
//! forming all `|a|·|b|` pairs. The Pareto-minimal set of a point set is
//! unique, so the merge returns exactly the all-pairs result.

use crate::{CutDirection, Dbu};
use serde::{Deserialize, Serialize};

/// A Pareto-minimal set of feasible `(width, height)` bounding boxes.
///
/// Points are kept sorted by increasing width (and therefore strictly
/// decreasing height). The empty curve means "no constraint": every box,
/// including a degenerate one, is feasible — this is the curve of a block
/// with no macros (soft block).
///
/// # Example
///
/// ```
/// use geometry::ShapeCurve;
///
/// let a = ShapeCurve::from_macro(4, 2, true); // rotatable 4x2 macro
/// let b = ShapeCurve::from_macro(2, 2, false);
/// let stacked = a.compose_vertical(&b);
/// assert!(stacked.fits(4, 4));   // 4x2 under 2x2
/// assert!(stacked.fits(2, 6));   // rotated 2x4 under 2x2
/// assert!(!stacked.fits(3, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShapeCurve {
    points: Vec<(Dbu, Dbu)>,
}

impl ShapeCurve {
    /// The unconstrained curve (a block with no macros): every box is feasible.
    pub fn unconstrained() -> Self {
        Self { points: Vec::new() }
    }

    /// Builds a curve from an arbitrary set of feasible boxes, keeping only
    /// the Pareto-minimal ones.
    pub fn from_points<I: IntoIterator<Item = (Dbu, Dbu)>>(points: I) -> Self {
        let mut pts: Vec<(Dbu, Dbu)> =
            points.into_iter().filter(|&(w, h)| w >= 0 && h >= 0).collect();
        pts.sort_unstable();
        let mut pareto: Vec<(Dbu, Dbu)> = Vec::with_capacity(pts.len());
        for (w, h) in pts {
            // Points are visited by increasing width; keep one only if it has
            // strictly smaller height than everything kept so far.
            match pareto.last() {
                Some(&(lw, lh)) => {
                    if lw == w {
                        // same width, previous (smaller or equal height) dominates
                        debug_assert!(lh <= h);
                    } else if h < lh {
                        pareto.push((w, h));
                    }
                }
                None => pareto.push((w, h)),
            }
        }
        Self { points: pareto }
    }

    /// Curve for a single hard macro of size `width x height`.
    ///
    /// When `rotatable` is true the 90°-rotated footprint is also feasible.
    pub fn from_macro(width: Dbu, height: Dbu, rotatable: bool) -> Self {
        if rotatable && width != height {
            Self::from_points([(width, height), (height, width)])
        } else {
            Self::from_points([(width, height)])
        }
    }

    /// The Pareto points of the curve, sorted by increasing width.
    pub fn points(&self) -> &[(Dbu, Dbu)] {
        &self.points
    }

    /// Returns `true` when the curve imposes no constraint.
    pub fn is_unconstrained(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns `true` if a `width x height` box can hold the block's macros.
    pub fn fits(&self, width: Dbu, height: Dbu) -> bool {
        if self.points.is_empty() {
            return true;
        }
        // Find the widest curve point not exceeding `width`; heights are
        // decreasing in width so that point has the smallest feasible height.
        let idx = self.points.partition_point(|&(w, _)| w <= width);
        if idx == 0 {
            return false;
        }
        self.points[..idx].iter().any(|&(_, h)| h <= height)
    }

    /// The minimum area over all Pareto points (0 for an unconstrained curve).
    pub fn min_area(&self) -> i128 {
        self.points.iter().map(|&(w, h)| w as i128 * h as i128).min().unwrap_or(0)
    }

    /// The smallest feasible width (0 for an unconstrained curve).
    pub fn min_width(&self) -> Dbu {
        self.points.first().map(|&(w, _)| w).unwrap_or(0)
    }

    /// The smallest feasible height (0 for an unconstrained curve).
    pub fn min_height(&self) -> Dbu {
        self.points.last().map(|&(_, h)| h).unwrap_or(0)
    }

    /// For a given width budget, the minimum height needed (``None`` if no
    /// feasible point has width ≤ `width`; `Some(0)` for unconstrained curves).
    pub fn min_height_for_width(&self, width: Dbu) -> Option<Dbu> {
        if self.points.is_empty() {
            return Some(0);
        }
        let idx = self.points.partition_point(|&(w, _)| w <= width);
        self.points[..idx].iter().map(|&(_, h)| h).min()
    }

    /// For a given height budget, the minimum width needed (``None`` if no
    /// feasible point has height ≤ `height`; `Some(0)` for unconstrained curves).
    pub fn min_width_for_height(&self, height: Dbu) -> Option<Dbu> {
        if self.points.is_empty() {
            return Some(0);
        }
        self.points.iter().filter(|&&(_, h)| h <= height).map(|&(w, _)| w).min()
    }

    /// Composes two curves side by side (widths add, heights max).
    pub fn compose_horizontal(&self, other: &ShapeCurve) -> ShapeCurve {
        self.compose(other, true)
    }

    /// Composes two curves stacked vertically (heights add, widths max).
    pub fn compose_vertical(&self, other: &ShapeCurve) -> ShapeCurve {
        self.compose(other, false)
    }

    /// Composes the curves of the two children of a slicing cut: a vertical
    /// cut places them side by side, a horizontal cut stacks them.
    pub fn compose_cut(&self, other: &ShapeCurve, cut: CutDirection) -> ShapeCurve {
        self.compose(other, cut == CutDirection::Vertical)
    }

    /// Stockmeyer's linear merge. For a side-by-side composition the taller
    /// operand sets the height of a pair, so walking both curves from their
    /// narrowest point and advancing whichever is taller (both on a tie)
    /// visits, for every reachable height, the narrowest pair achieving it;
    /// every other pair is dominated by one the walk emits. A stacked
    /// composition is the mirror walk from the widest points. The walk emits
    /// at most `|a| + |b| - 1` feasible pairs that include the whole Pareto
    /// set of all `|a|·|b|` pairs, and the Pareto set is unique, so the same
    /// filter yields exactly the all-pairs result.
    fn compose(&self, other: &ShapeCurve, horizontal: bool) -> ShapeCurve {
        if self.points.is_empty() {
            return other.clone();
        }
        if other.points.is_empty() {
            return self.clone();
        }
        let (a, b) = (&self.points, &other.points);
        let mut combos = Vec::with_capacity(a.len() + b.len());
        if horizontal {
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let ((w1, h1), (w2, h2)) = (a[i], b[j]);
                combos.push((w1 + w2, h1.max(h2)));
                i += usize::from(h1 >= h2);
                j += usize::from(h2 >= h1);
            }
        } else {
            let (mut i, mut j) = (a.len(), b.len());
            while i > 0 && j > 0 {
                let ((w1, h1), (w2, h2)) = (a[i - 1], b[j - 1]);
                combos.push((w1.max(w2), h1 + h2));
                i -= usize::from(w1 >= w2);
                j -= usize::from(w2 >= w1);
            }
        }
        ShapeCurve::from_points(combos)
    }

    /// Keeps at most `limit` points, preserving the extremes and an evenly
    /// spread selection in between. Used to bound curve growth during
    /// bottom-up composition.
    pub fn pruned(self, limit: usize) -> ShapeCurve {
        if self.points.len() <= limit || limit == 0 {
            return self;
        }
        let n = self.points.len();
        let mut kept = Vec::with_capacity(limit);
        for i in 0..limit {
            let idx = i * (n - 1) / (limit - 1).max(1);
            kept.push(self.points[idx]);
        }
        kept.dedup();
        ShapeCurve { points: kept }
    }

    /// Number of Pareto points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the curve has no explicit points (unconstrained).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl FromIterator<(Dbu, Dbu)> for ShapeCurve {
    fn from_iter<I: IntoIterator<Item = (Dbu, Dbu)>>(iter: I) -> Self {
        ShapeCurve::from_points(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_filtering_removes_dominated_points() {
        let c = ShapeCurve::from_points([(4, 2), (2, 4), (4, 4), (3, 3), (5, 1)]);
        // (4,4) dominated by (4,2)/(3,3); others are pareto.
        assert_eq!(c.points(), &[(2, 4), (3, 3), (4, 2), (5, 1)]);
    }

    #[test]
    fn fits_uses_dominance() {
        let c = ShapeCurve::from_macro(4, 2, true);
        assert!(c.fits(4, 2));
        assert!(c.fits(10, 2));
        assert!(c.fits(2, 4));
        assert!(c.fits(4, 4));
        assert!(!c.fits(3, 3));
        assert!(!c.fits(1, 100));
    }

    #[test]
    fn unconstrained_accepts_everything() {
        let c = ShapeCurve::unconstrained();
        assert!(c.fits(0, 0));
        assert!(c.fits(1000, 1));
        assert_eq!(c.min_area(), 0);
        assert_eq!(c.min_height_for_width(5), Some(0));
    }

    #[test]
    fn horizontal_composition_adds_width() {
        let a = ShapeCurve::from_macro(4, 2, false);
        let b = ShapeCurve::from_macro(3, 5, false);
        let c = a.compose_horizontal(&b);
        assert_eq!(c.points(), &[(7, 5)]);
    }

    #[test]
    fn vertical_composition_adds_height() {
        let a = ShapeCurve::from_macro(4, 2, false);
        let b = ShapeCurve::from_macro(3, 5, false);
        let c = a.compose_vertical(&b);
        assert_eq!(c.points(), &[(4, 7)]);
    }

    #[test]
    fn composition_with_unconstrained_is_identity() {
        let a = ShapeCurve::from_macro(4, 2, true);
        let u = ShapeCurve::unconstrained();
        assert_eq!(a.compose_horizontal(&u), a);
        assert_eq!(u.compose_vertical(&a), a);
    }

    #[test]
    fn min_height_for_width_respects_budget() {
        let c = ShapeCurve::from_points([(2, 6), (4, 3), (8, 1)]);
        assert_eq!(c.min_height_for_width(1), None);
        assert_eq!(c.min_height_for_width(2), Some(6));
        assert_eq!(c.min_height_for_width(5), Some(3));
        assert_eq!(c.min_height_for_width(100), Some(1));
        assert_eq!(c.min_width_for_height(2), Some(8));
        assert_eq!(c.min_width_for_height(0), None);
    }

    #[test]
    fn pruning_keeps_extremes() {
        let c = ShapeCurve::from_points((1..=20).map(|i| (i, 21 - i)));
        let p = c.clone().pruned(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.points().first(), c.points().first());
        assert_eq!(p.points().last(), c.points().last());
    }

    #[test]
    fn square_macro_not_duplicated_when_rotatable() {
        let c = ShapeCurve::from_macro(3, 3, true);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn min_area_of_composition_at_least_sum_of_macro_areas() {
        let a = ShapeCurve::from_macro(4, 2, true);
        let b = ShapeCurve::from_macro(3, 5, true);
        let c = a.compose_horizontal(&b);
        assert!(c.min_area() >= 8 + 15);
    }
}
