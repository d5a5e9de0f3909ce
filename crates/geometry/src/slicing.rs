//! Slicing structures: normalized Polish expressions and slicing trees.
//!
//! The layout of a set of blocks is represented by a *slicing tree*: every
//! internal node cuts its rectangle either vertically or horizontally and the
//! leaves are blocks.  Following Wong & Liu (DAC'86), the tree is stored as a
//! normalized Polish expression, and the simulated-annealing search of the
//! paper (Sect. IV-E) perturbs that expression with three moves:
//!
//! * **M1** — swap two adjacent operands,
//! * **M2** — complement a chain of operators (`H` ↔ `V`),
//! * **M3** — swap an adjacent operand/operator pair (only when the result is
//!   still a normalized, balloting-valid expression).
//!
//! Each move rewrites O(1) positions of the expression (a chain inversion
//! rewrites one operator run) and is its own inverse, so the annealers apply
//! moves in place and undo rejected ones. [`SlicingMemo`] keeps every
//! subtree's value by postfix position and recomputes only the subtrees
//! whose token range contains a rewritten position.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Direction of the cut performed by an internal slicing-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CutDirection {
    /// Vertical cut: the children are placed side by side (left, right).
    Vertical,
    /// Horizontal cut: the children are stacked (bottom, top).
    Horizontal,
}

impl CutDirection {
    /// The opposite cut direction.
    pub fn flipped(self) -> CutDirection {
        match self {
            CutDirection::Vertical => CutDirection::Horizontal,
            CutDirection::Horizontal => CutDirection::Vertical,
        }
    }
}

/// One token of a Polish expression: either a block index or a cut operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolishToken {
    /// A leaf block, identified by its index.
    Operand(usize),
    /// An internal node cutting in the given direction.
    Operator(CutDirection),
}

impl PolishToken {
    /// Returns `true` for operand tokens.
    pub fn is_operand(&self) -> bool {
        matches!(self, PolishToken::Operand(_))
    }
}

/// A (postfix) Polish expression describing a slicing floorplan of `n` blocks.
///
/// Invariants maintained by every constructor and move:
///
/// * exactly `n` operands, each block index appearing exactly once,
/// * exactly `n - 1` operators,
/// * the *balloting property*: in every prefix, #operands > #operators,
/// * *normalized*: no two consecutive identical operators (avoids redundant
///   representations of the same floorplan).
///
/// # Example
///
/// ```
/// use geometry::{PolishExpression, CutDirection};
///
/// let e = PolishExpression::chain(3, CutDirection::Vertical);
/// assert_eq!(e.num_blocks(), 3);
/// assert!(e.is_valid());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolishExpression {
    tokens: Vec<PolishToken>,
    num_blocks: usize,
}

impl PolishExpression {
    /// Builds the expression `0 1 op 2 op 3 op ...`, i.e. a "staircase" of
    /// alternating cuts starting from `first_cut`. For a single block the
    /// expression is just that operand.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0`.
    pub fn chain(num_blocks: usize, first_cut: CutDirection) -> Self {
        assert!(num_blocks > 0, "a slicing floorplan needs at least one block");
        let mut tokens = Vec::with_capacity(2 * num_blocks - 1);
        tokens.push(PolishToken::Operand(0));
        let mut cut = first_cut;
        for i in 1..num_blocks {
            tokens.push(PolishToken::Operand(i));
            tokens.push(PolishToken::Operator(cut));
            cut = cut.flipped();
        }
        Self { tokens, num_blocks }
    }

    /// Builds an expression from raw tokens.
    ///
    /// Returns `None` if the token sequence is not a valid normalized Polish
    /// expression over blocks `0..n`.
    pub fn from_tokens(tokens: Vec<PolishToken>) -> Option<Self> {
        let num_blocks = tokens.iter().filter(|t| t.is_operand()).count();
        let e = Self { tokens, num_blocks };
        if e.is_valid() {
            Some(e)
        } else {
            None
        }
    }

    /// The tokens of the expression in postfix order.
    pub fn tokens(&self) -> &[PolishToken] {
        &self.tokens
    }

    /// Number of leaf blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Checks every structural invariant (see the type-level docs).
    pub fn is_valid(&self) -> bool {
        if self.num_blocks == 0 || self.tokens.len() != 2 * self.num_blocks - 1 {
            return false;
        }
        let mut seen = vec![false; self.num_blocks];
        let mut operands = 0usize;
        let mut operators = 0usize;
        let mut prev_op: Option<CutDirection> = None;
        for t in &self.tokens {
            match *t {
                PolishToken::Operand(i) => {
                    if i >= self.num_blocks || seen[i] {
                        return false;
                    }
                    seen[i] = true;
                    operands += 1;
                    prev_op = None;
                }
                PolishToken::Operator(dir) => {
                    operators += 1;
                    // balloting property: strictly more operands than operators
                    if operators >= operands {
                        return false;
                    }
                    // normalization: no two consecutive identical operators
                    if prev_op == Some(dir) {
                        return false;
                    }
                    prev_op = Some(dir);
                }
            }
        }
        operands == self.num_blocks && operators + 1 == operands
    }

    /// Applies one random Wong–Liu move in place and returns it; applying
    /// the returned move again ([`PolishExpression::undo`]) restores the
    /// expression. The move kinds are chosen with equal probability as in
    /// the paper.
    pub fn random_move<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Move {
        // Retry until a move succeeds; M3 can fail on particular positions.
        loop {
            let applied = match rng.gen_range(0..3) {
                0 => self.move_swap_operands(rng),
                1 => self.move_invert_chain(rng),
                _ => self.move_swap_operand_operator(rng),
            };
            if let Some(m) = applied {
                return m;
            }
        }
    }

    /// Reverts a move returned by one of the move methods. Every move is its
    /// own inverse, so this applies it a second time.
    pub fn undo(&mut self, m: Move) {
        self.apply(m);
    }

    fn apply(&mut self, m: Move) {
        match m {
            Move::OperandSwap(a, b) => self.tokens.swap(a, b),
            Move::ChainInvert { start, len } => {
                for t in &mut self.tokens[start..start + len] {
                    if let PolishToken::Operator(dir) = t {
                        *dir = dir.flipped();
                    }
                }
            }
            Move::OperandOperatorSwap(i) => self.tokens.swap(i, i + 1),
        }
    }

    /// M1: swaps two adjacent operands (adjacent in operand order, ignoring
    /// the operators between them). Always succeeds for ≥ 2 blocks.
    pub fn move_swap_operands<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        if self.num_blocks < 2 {
            return None;
        }
        let k = rng.gen_range(0..self.num_blocks - 1);
        let mut operands =
            self.tokens.iter().enumerate().filter(|(_, t)| t.is_operand()).map(|(i, _)| i);
        let a = operands.nth(k)?;
        let m = Move::OperandSwap(a, operands.next()?);
        self.apply(m);
        Some(m)
    }

    /// M2: complements every operator in a randomly chosen maximal operator
    /// chain (`H` ↔ `V`). Always succeeds when at least one operator exists.
    pub fn move_invert_chain<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        let chain_starts = || {
            (0..self.tokens.len()).filter(|&i| {
                !self.tokens[i].is_operand() && (i == 0 || self.tokens[i - 1].is_operand())
            })
        };
        let chains = chain_starts().count();
        if chains == 0 {
            return None;
        }
        let start = chain_starts().nth(rng.gen_range(0..chains))?;
        let len = self.tokens[start..].iter().take_while(|t| !t.is_operand()).count();
        let m = Move::ChainInvert { start, len };
        self.apply(m);
        Some(m)
    }

    /// M3: swaps a randomly chosen adjacent operand/operator pair, provided
    /// the result still satisfies balloting and normalization. Returns `None`
    /// (leaving the expression unchanged) if the chosen position is
    /// infeasible.
    pub fn move_swap_operand_operator<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        if self.tokens.len() < 3 {
            return None;
        }
        let mixed = |i: &usize| self.tokens[*i].is_operand() != self.tokens[*i + 1].is_operand();
        let candidates = (0..self.tokens.len() - 1).filter(mixed).count();
        if candidates == 0 {
            return None;
        }
        let i = (0..self.tokens.len() - 1).filter(mixed).nth(rng.gen_range(0..candidates))?;
        let valid = self.swap_keeps_valid(i);
        debug_assert_eq!(valid, {
            let mut swapped = self.clone();
            swapped.tokens.swap(i, i + 1);
            swapped.is_valid()
        });
        if !valid {
            return None;
        }
        let m = Move::OperandOperatorSwap(i);
        self.apply(m);
        Some(m)
    }

    /// Whether swapping the operand/operator pair at `i`, `i + 1` of this
    /// valid expression leaves it valid. Only the moved operator can break
    /// validity: moving left, it can violate balloting at `i` or repeat the
    /// operator before it; moving right, it can repeat the operator after it.
    fn swap_keeps_valid(&self, i: usize) -> bool {
        match (self.tokens[i], self.tokens[i + 1]) {
            (PolishToken::Operand(_), op @ PolishToken::Operator(_)) => {
                let operators = self.tokens[..i].iter().filter(|t| !t.is_operand()).count();
                operators + 1 < i - operators && (i == 0 || self.tokens[i - 1] != op)
            }
            (op, _) => self.tokens.get(i + 2) != Some(&op),
        }
    }

    /// Builds the slicing tree corresponding to this expression.
    ///
    /// # Panics
    ///
    /// Panics if the expression is invalid (cannot happen for expressions
    /// produced through the public API).
    pub fn to_tree(&self) -> SlicingTree {
        let mut stack: Vec<usize> = Vec::new();
        let mut nodes: Vec<SlicingNode> = Vec::new();
        for t in &self.tokens {
            match *t {
                PolishToken::Operand(block) => {
                    nodes.push(SlicingNode::Leaf { block });
                    stack.push(nodes.len() - 1);
                }
                PolishToken::Operator(cut) => {
                    let right = stack.pop().expect("valid polish expression");
                    let left = stack.pop().expect("valid polish expression");
                    nodes.push(SlicingNode::Internal { cut, left, right });
                    stack.push(nodes.len() - 1);
                }
            }
        }
        let root = stack.pop().expect("valid polish expression");
        assert!(stack.is_empty(), "valid polish expression leaves one root");
        SlicingTree { nodes, root }
    }
}

/// One applied Wong–Liu move and the token positions it rewrote. Every
/// move is its own inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// M1: the operands at the two positions were exchanged.
    OperandSwap(usize, usize),
    /// M2: the operator chain at `start..start + len` was complemented.
    ChainInvert {
        /// Position of the chain's first operator.
        start: usize,
        /// Number of operators in the chain.
        len: usize,
    },
    /// M3: the operand/operator pair at `i` and `i + 1` was exchanged.
    OperandOperatorSwap(usize),
}

impl Move {
    /// The token positions the move rewrote, as two (possibly empty) ranges.
    pub fn touched(&self) -> [Range<usize>; 2] {
        match *self {
            Move::OperandSwap(a, b) => [a..a + 1, b..b + 1],
            Move::ChainInvert { start, len } => [start..start + len, 0..0],
            Move::OperandOperatorSwap(i) => [i..i + 2, 0..0],
        }
    }
}

/// A node of a [`SlicingTree`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlicingNode {
    /// A leaf holding a block index.
    Leaf {
        /// Index of the block this leaf represents.
        block: usize,
    },
    /// An internal node cutting its rectangle into two children.
    Internal {
        /// Cut direction applied at this node.
        cut: CutDirection,
        /// Index of the left / bottom child in [`SlicingTree::nodes`].
        left: usize,
        /// Index of the right / top child in [`SlicingTree::nodes`].
        right: usize,
    },
}

/// An explicit slicing tree produced from a [`PolishExpression`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlicingTree {
    nodes: Vec<SlicingNode>,
    root: usize,
}

impl SlicingTree {
    /// All nodes of the tree; children indices refer into this slice.
    pub fn nodes(&self) -> &[SlicingNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &SlicingNode {
        &self.nodes[idx]
    }

    /// Number of leaf blocks in the tree.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, SlicingNode::Leaf { .. })).count()
    }

    /// Visits leaves in left-to-right order, yielding block indices.
    pub fn leaf_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_leaves());
        self.collect_leaves(self.root, &mut out);
        out
    }

    fn collect_leaves(&self, idx: usize, out: &mut Vec<usize>) {
        match &self.nodes[idx] {
            SlicingNode::Leaf { block } => out.push(*block),
            SlicingNode::Internal { left, right, .. } => {
                self.collect_leaves(*left, out);
                self.collect_leaves(*right, out);
            }
        }
    }
}

/// A bottom-up value of a slicing tree: one value per leaf block, and one
/// per internal node built from its two children and its cut.
pub trait SlicingFold {
    /// The value memoized for every subtree.
    type Value: Clone;

    /// The value of the leaf holding `block`.
    fn leaf(&self, block: usize) -> Self::Value;

    /// The value of an internal node cutting in direction `cut`.
    fn cut(&self, cut: CutDirection, left: &Self::Value, right: &Self::Value) -> Self::Value;
}

/// The memoized value of the subtree rooted at one postfix position.
#[derive(Debug, Clone)]
struct Memo<V> {
    /// First token position of the subtree: it spans `start..=root`.
    start: usize,
    value: V,
}

/// A Polish expression annealed in place, with every subtree's
/// [`SlicingFold`] value memoized by postfix position.
///
/// [`PolishExpression::to_tree`] numbers the node of each token by the
/// token's position, and the subtree rooted at position `p` is the token
/// range `start(p)..=p`. That range is found by scanning back from `p`
/// until it holds one more operand than operators, so it depends on its own
/// tokens only. A move that rewrites a set of positions therefore leaves
/// every subtree whose range avoids them exactly as it was, value included.
///
/// [`SlicingMemo::propose`] applies one random move and finds the nodes
/// whose range contains a rewritten token with one forward stack scan. It
/// recomputes just those nodes, bottom-up, into an overlay over the
/// committed values. [`SlicingMemo::accept`] commits the overlay;
/// [`SlicingMemo::reject`] undoes the move and drops the overlay.
/// [`SlicingMemo::new`] runs the same scan with every position rewritten, so
/// there is one evaluation path, and an incremental value is bit-identical
/// to a from-scratch one: each recomputed node folds the same children in
/// the same order.
///
/// # Example
///
/// ```
/// use geometry::{CutDirection, PolishExpression, SlicingFold, SlicingMemo};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// /// The number of leaves under each node.
/// struct Count;
/// impl SlicingFold for Count {
///     type Value = usize;
///     fn leaf(&self, _: usize) -> usize { 1 }
///     fn cut(&self, _: CutDirection, l: &usize, r: &usize) -> usize { l + r }
/// }
///
/// let mut memo = SlicingMemo::new(PolishExpression::chain(5, CutDirection::Vertical), Count);
/// let mut rng = StdRng::seed_from_u64(1);
/// assert_eq!(*memo.propose(&mut rng), 5);
/// memo.reject();
/// assert_eq!(memo.expression(), &PolishExpression::chain(5, CutDirection::Vertical));
/// ```
#[derive(Clone)]
pub struct SlicingMemo<F: SlicingFold> {
    expr: PolishExpression,
    fold: F,
    /// Per postfix position: the value of the accepted expression's subtree.
    committed: Vec<Memo<F::Value>>,
    /// Per postfix position: the recomputed value under the pending move.
    overlay: Vec<Option<Memo<F::Value>>>,
    /// Positions holding an overlay entry.
    staged: Vec<usize>,
    /// Scan scratch: `(start, recomputed)` of each open subtree.
    stack: Vec<(usize, bool)>,
    pending: Option<Move>,
}

impl<F: SlicingFold> SlicingMemo<F> {
    /// Memoizes every subtree of `expr`.
    pub fn new(expr: PolishExpression, fold: F) -> Self {
        let n = expr.tokens.len();
        let mut memo = Self {
            expr,
            fold,
            committed: Vec::with_capacity(n),
            overlay: vec![None; n],
            staged: Vec::with_capacity(n),
            stack: Vec::new(),
            pending: None,
        };
        memo.refresh([0..n, 0..0]);
        memo.committed =
            memo.overlay.iter_mut().map(|m| m.take().expect("all recomputed")).collect();
        memo.staged.clear();
        memo
    }

    /// The expression, with the pending move applied if there is one.
    pub fn expression(&self) -> &PolishExpression {
        &self.expr
    }

    /// The fold the values are built with.
    pub fn fold(&self) -> &F {
        &self.fold
    }

    /// Postfix position of the root.
    pub fn root_position(&self) -> usize {
        self.expr.tokens.len() - 1
    }

    /// The value of the whole tree.
    pub fn root(&self) -> &F::Value {
        self.value(self.root_position())
    }

    /// The value of the subtree rooted at postfix position `pos`.
    pub fn value(&self, pos: usize) -> &F::Value {
        &self.memo(pos).value
    }

    /// The node at postfix position `pos`; children are postfix positions.
    pub fn node(&self, pos: usize) -> SlicingNode {
        match self.expr.tokens[pos] {
            PolishToken::Operand(block) => SlicingNode::Leaf { block },
            PolishToken::Operator(cut) => {
                // the right subtree ends just before its parent, the left
                // one just before the right one starts
                let right = pos - 1;
                SlicingNode::Internal { cut, left: self.memo(right).start - 1, right }
            }
        }
    }

    /// Applies one random Wong–Liu move in place, recomputes the subtrees it
    /// touched into the overlay and returns the new root value. The move is
    /// pending until [`SlicingMemo::accept`] or [`SlicingMemo::reject`].
    ///
    /// # Panics
    ///
    /// Panics if a move is already pending, or if the expression has a
    /// single block (no move exists).
    pub fn propose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &F::Value {
        assert!(self.pending.is_none(), "accept or reject the pending move first");
        assert!(self.expr.num_blocks > 1, "a single block has no moves");
        let m = self.expr.random_move(rng);
        self.pending = Some(m);
        self.refresh(m.touched());
        self.root()
    }

    /// Keeps the pending move: the overlay becomes the committed state.
    pub fn accept(&mut self) {
        self.pending = None;
        for &p in &self.staged {
            self.committed[p] = self.overlay[p].take().expect("staged positions hold a value");
        }
        self.staged.clear();
    }

    /// Drops the pending move: the expression and every value revert.
    pub fn reject(&mut self) {
        if let Some(m) = self.pending.take() {
            self.expr.undo(m);
        }
        for &p in &self.staged {
            self.overlay[p] = None;
        }
        self.staged.clear();
    }

    fn memo(&self, pos: usize) -> &Memo<F::Value> {
        self.overlay[pos].as_ref().unwrap_or_else(|| &self.committed[pos])
    }

    /// The one evaluation path: recomputes, bottom-up, every node whose
    /// token range meets `touched`, into the overlay.
    fn refresh(&mut self, touched: [Range<usize>; 2]) {
        let hit = |p: usize| touched.iter().any(|r| r.contains(&p));
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        for p in 0..self.expr.tokens.len() {
            let (start, dirty) = match self.expr.tokens[p] {
                PolishToken::Operand(block) => {
                    let dirty = hit(p);
                    if dirty {
                        self.stage(p, Memo { start: p, value: self.fold.leaf(block) });
                    }
                    (p, dirty)
                }
                PolishToken::Operator(cut) => {
                    let (right_start, right_dirty) = stack.pop().expect("valid polish expression");
                    let (start, left_dirty) = stack.pop().expect("valid polish expression");
                    let dirty = left_dirty || right_dirty || hit(p);
                    if dirty {
                        let (left, right) = (self.value(right_start - 1), self.value(p - 1));
                        let value = self.fold.cut(cut, left, right);
                        self.stage(p, Memo { start, value });
                    }
                    (start, dirty)
                }
            };
            stack.push((start, dirty));
        }
        debug_assert_eq!(stack.len(), 1, "valid polish expression leaves one root");
        self.stack = stack;
    }

    fn stage(&mut self, pos: usize, memo: Memo<F::Value>) {
        self.overlay[pos] = Some(memo);
        self.staged.push(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_expression_is_valid() {
        for n in 1..10 {
            let e = PolishExpression::chain(n, CutDirection::Vertical);
            assert!(e.is_valid(), "chain of {n} blocks should be valid");
            assert_eq!(e.num_blocks(), n);
        }
    }

    #[test]
    fn invalid_expressions_rejected() {
        use CutDirection::*;
        use PolishToken::*;
        // operator before enough operands
        assert!(PolishExpression::from_tokens(vec![Operand(0), Operator(Vertical), Operand(1)])
            .is_none());
        // duplicate operand
        assert!(PolishExpression::from_tokens(vec![Operand(0), Operand(0), Operator(Vertical)])
            .is_none());
        // consecutive identical operators (not normalized)
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operand(2),
            Operator(Vertical),
            Operator(Vertical),
        ])
        .is_none());
        // valid alternatives
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operand(2),
            Operator(Vertical),
            Operator(Horizontal),
        ])
        .is_some());
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operator(Vertical),
            Operand(2),
            Operator(Horizontal),
        ])
        .is_some());
    }

    #[test]
    fn moves_preserve_validity() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut e = PolishExpression::chain(8, CutDirection::Horizontal);
        for _ in 0..500 {
            e.random_move(&mut rng);
            assert!(e.is_valid());
        }
    }

    #[test]
    fn single_block_tree() {
        let e = PolishExpression::chain(1, CutDirection::Vertical);
        let t = e.to_tree();
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.leaf_order(), vec![0]);
    }

    #[test]
    fn tree_has_all_leaves_once() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut e = PolishExpression::chain(6, CutDirection::Vertical);
        for _ in 0..100 {
            e.random_move(&mut rng);
        }
        let t = e.to_tree();
        let mut leaves = t.leaf_order();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.nodes().len(), 2 * 6 - 1);
    }

    #[test]
    fn operand_swap_changes_leaf_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = PolishExpression::chain(4, CutDirection::Vertical);
        let before = e.to_tree().leaf_order();
        assert!(e.move_swap_operands(&mut rng).is_some());
        let after = e.to_tree().leaf_order();
        assert_ne!(before, after);
    }

    #[test]
    fn chain_invert_flips_cuts() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = PolishExpression::chain(2, CutDirection::Vertical);
        assert!(e.move_invert_chain(&mut rng).is_some());
        match e.tokens()[2] {
            PolishToken::Operator(dir) => assert_eq!(dir, CutDirection::Horizontal),
            _ => panic!("expected operator"),
        }
    }
}
