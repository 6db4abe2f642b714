//! Algorithm 1: the spatiotemporal aggregation dynamic program (§III.E).
//!
//! For each node of the hierarchy (children before parents) and each
//! interval `[i, j]` (outer loop `i` descending, inner loop `j` ascending),
//! the algorithm compares:
//!
//! 1. **no cut** — the pIC of keeping `(S_k, T_(i,j))` as one aggregate;
//! 2. **spatial cut** — the sum of the children's optimal pICs on `[i, j]`;
//! 3. **temporal cuts** — for every `k ∈ [i, j)`, the sum of the node's own
//!    optimal pICs on `[i, k]` and `[k+1, j]`.
//!
//! The best choice is recorded as a *cut value* (`j` = no cut, `−1` =
//! spatial, `k` = temporal after slice `k`); the sequence of cuts uniquely
//! determines a hierarchy-and-order-consistent partition maximizing the
//! criterion. Time `O(|S||T|³)`, space `O(|S||T|²)`.
//!
//! **Schedule.** A node depends only on its children, so [`aggregate`]
//! solves the hierarchy one *height* at a time (leaves at height 0): every
//! node of one height is independent of the others, and all of them cost
//! the same `O(|T|³)`. With [`DpConfig::parallel`] each height is one
//! order-preserving parallel map, whose contiguous slabs are then balanced
//! whatever the shape of the tree; without it the same loop runs
//! sequentially. The schedule never changes a result bit: each node's
//! matrices are computed by the same code from the same inputs.
//!
//! **Kernel.** The temporal-cut scan of cell `[i, j]` pairs `pIC[i, k]`
//! (row `i`, row-major [`TriMatrix`]) with `pIC[k+1, j]` (column `j`, a
//! column-major mirror), so both operands are contiguous
//! slices. Candidates are summed in chunks of eight; a chunk is scanned with
//! the scalar rule only if one of its sums (equivalently, its NaN-ignoring
//! maximum) passes the adoption test against the running best. The running
//! best never decreases within a cell, so a chunk none of whose sums passes
//! holds no candidate the scalar scan would adopt: the pruned scan picks
//! exactly the cut, pIC and count the full scan picks, for both tie modes.
//!
//! Deviations from the paper's pseudocode, both documented in DESIGN.md:
//! the pseudocode's inner comparison uses a strict `>`, which is kept, but a
//! small tolerance `epsilon` biases ties toward the coarser representation
//! under floating-point noise; and the pseudocode's `pIC[i, cut]` is read as
//! `pIC[i, cutt]` (obvious typo fix).

use crate::cube::QualityCube;
use crate::partition::{Area, Partition};
use crate::tri::{TriColumns, TriMatrix};
use ocelotl_trace::{Hierarchy, NodeId};
use rayon::prelude::*;

/// Decoded cut decision for one spatiotemporal area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// `(S_k, T_(i,j))` is an aggregate of the partition.
    Keep,
    /// Partitioned into the children of `S_k` over the same interval.
    Spatial,
    /// Partitioned into `T_(i,k)` and `T_(k+1,j)` on the same node.
    Temporal(usize),
}

/// Raw cut encoding, exactly as in the paper.
#[inline]
fn decode(cut: i32, j: usize) -> Cut {
    if cut == -1 {
        Cut::Spatial
    } else if cut as usize == j {
        Cut::Keep
    } else {
        Cut::Temporal(cut as usize)
    }
}

/// Tunable knobs of the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Tie tolerance: a cut is adopted only if it improves the pIC by more
    /// than this amount (biases ties toward coarser aggregates).
    pub epsilon: f64,
    /// Solve the nodes of each hierarchy height in parallel with rayon.
    pub parallel: bool,
    /// Among pIC-equal choices (within `epsilon`), prefer the cut whose
    /// optimal subpartition uses *fewer aggregates*.
    ///
    /// The paper's pseudocode adopts the first strictly-better cut, which on
    /// degenerate data (all `ρ_x ∈ {0, 1}`, hence zero gain everywhere)
    /// returns the *finest* zero-loss partition. Enabling this picks the
    /// coarsest optimum instead — the partition a human expects and the one
    /// that honors the entity-budget criterion G1. Off by default to stay
    /// faithful to Algorithm 1.
    pub prefer_coarse_ties: bool,
}

impl Default for DpConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-9,
            parallel: true,
            prefer_coarse_ties: false,
        }
    }
}

impl DpConfig {
    /// Default configuration with [`DpConfig::prefer_coarse_ties`] enabled.
    pub fn coarse_ties() -> Self {
        Self {
            prefer_coarse_ties: true,
            ..Self::default()
        }
    }
}

/// Result of Algorithm 1 for one trade-off value `p`: per-node cut and pIC
/// matrices, from which optimal partitions of any area can be recovered.
#[derive(Debug, Clone)]
pub struct CutTree {
    p: f64,
    /// Per node (arena order): cut values.
    cuts: Vec<TriMatrix<i32>>,
    /// Per node: optimal-partition pIC values.
    pic: Vec<TriMatrix<f64>>,
    /// Per node: aggregate count of the optimal subpartition.
    counts: Vec<TriMatrix<u32>>,
    n_slices: usize,
}

impl CutTree {
    /// The trade-off parameter this tree was computed for.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Optimal pIC over the whole trace (root node, full interval).
    pub fn optimal_pic<C: QualityCube>(&self, input: &C) -> f64 {
        self.pic[input.hierarchy().root().index()].get(0, self.n_slices - 1)
    }

    /// Cut decision for an area.
    pub fn cut(&self, node: NodeId, i: usize, j: usize) -> Cut {
        decode(self.cuts[node.index()].get(i, j), j)
    }

    /// pIC of the optimal partition of an area.
    pub fn pic(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.pic[node.index()].get(i, j)
    }

    /// Number of aggregates in the optimal subpartition of an area (without
    /// extracting it).
    pub fn n_areas(&self, node: NodeId, i: usize, j: usize) -> usize {
        self.counts[node.index()].get(i, j) as usize
    }

    /// Number of aggregates in the optimal partition of the whole trace.
    pub fn optimal_n_areas<C: QualityCube>(&self, input: &C) -> usize {
        self.n_areas(input.hierarchy().root(), 0, self.n_slices - 1)
    }

    /// Recover the optimal partition of the whole trace by following the
    /// sequence of cuts from `(S_root, T_(0,|T|−1))`.
    pub fn partition<C: QualityCube>(&self, input: &C) -> Partition {
        let mut areas = Vec::new();
        let mut stack = vec![Area::new(input.hierarchy().root(), 0, self.n_slices - 1)];
        while let Some(area) = stack.pop() {
            let (i, j) = (area.first_slice, area.last_slice);
            match self.cut(area.node, i, j) {
                Cut::Keep => areas.push(area),
                Cut::Spatial => {
                    for &c in input.hierarchy().children(area.node) {
                        stack.push(Area::new(c, i, j));
                    }
                }
                Cut::Temporal(k) => {
                    stack.push(Area::new(area.node, i, k));
                    stack.push(Area::new(area.node, k + 1, j));
                }
            }
        }
        Partition::new(areas)
    }
}

/// One solved node: cut values, optimal pICs and aggregate counts.
type NodeResult = (TriMatrix<i32>, TriMatrix<f64>, TriMatrix<u32>);

/// Run Algorithm 1 on any quality cube for trade-off `p`.
pub fn aggregate<C: QualityCube>(input: &C, p: f64, config: &DpConfig) -> CutTree {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
    let h = input.hierarchy();
    let n_slices = input.n_slices();

    let mut solved: Vec<Option<NodeResult>> = (0..h.len()).map(|_| None).collect();
    for level in height_levels(h) {
        let done = &solved;
        let solve = |node: NodeId| {
            let children: Vec<&NodeResult> = h
                .children(node)
                .iter()
                .map(|c| {
                    done[c.index()]
                        .as_ref()
                        .expect("a child sits at a lower height")
                })
                .collect();
            let child_pics: Vec<&TriMatrix<f64>> = children.iter().map(|r| &r.1).collect();
            let child_counts: Vec<&TriMatrix<u32>> = children.iter().map(|r| &r.2).collect();
            (
                node,
                solve_node(input, node, p, config, &child_pics, &child_counts),
            )
        };
        let results: Vec<(NodeId, NodeResult)> = if config.parallel {
            level.into_par_iter().map(solve).collect()
        } else {
            level.into_iter().map(solve).collect()
        };
        for (node, result) in results {
            solved[node.index()] = Some(result);
        }
    }

    let mut cuts = Vec::with_capacity(solved.len());
    let mut pic = Vec::with_capacity(solved.len());
    let mut counts = Vec::with_capacity(solved.len());
    for cell in solved {
        let (c, q, n) = cell.expect("every node has a height");
        cuts.push(c);
        pic.push(q);
        counts.push(n);
    }
    CutTree {
        p,
        cuts,
        pic,
        counts,
        n_slices,
    }
}

/// The nodes grouped by height (leaves at 0, a parent one above its
/// tallest child), each group in post-order.
fn height_levels(h: &Hierarchy) -> Vec<Vec<NodeId>> {
    let mut height = vec![0usize; h.len()];
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    for &node in h.post_order() {
        let level = h
            .children(node)
            .iter()
            .map(|c| height[c.index()] + 1)
            .max()
            .unwrap_or(0);
        height[node.index()] = level;
        if levels.len() <= level {
            levels.resize_with(level + 1, Vec::new);
        }
        levels[level].push(node);
    }
    levels
}

/// Convenience wrapper with default configuration.
pub fn aggregate_default<C: QualityCube>(input: &C, p: f64) -> CutTree {
    aggregate(input, p, &DpConfig::default())
}

/// Temporal-cut candidates summed per pruning chunk of the kernel.
const CHUNK: usize = 8;

/// The choice a cell has adopted so far.
struct Best {
    cut: i32,
    pic: f64,
    count: u32,
}

/// The per-node DP (cell iteration of Algorithm 1).
///
/// Also tracks, per cell, the aggregate count of the chosen subpartition;
/// when [`DpConfig::prefer_coarse_ties`] is set, pIC-equal cuts (within
/// `epsilon`) with a lower count displace the current choice.
fn solve_node<C: QualityCube>(
    input: &C,
    node: NodeId,
    p: f64,
    config: &DpConfig,
    child_pics: &[&TriMatrix<f64>],
    child_counts: &[&TriMatrix<u32>],
) -> NodeResult {
    let n = input.n_slices();
    let eps = config.epsilon;
    let coarse = config.prefer_coarse_ties;
    let mut cut = TriMatrix::<i32>::new(n);
    let mut pic_m = TriMatrix::<f64>::new(n);
    let mut cnt_m = TriMatrix::<u32>::new(n);
    // Column-major mirrors: the right operands `[k+1, j]` of a temporal
    // cut run down column `j`.
    let mut pic_c = TriColumns::<f64>::new(n);
    let mut cnt_c = TriColumns::<u32>::new(n);

    for i in (0..n).rev() {
        let (cut_row, pic_row, cnt_row) = (cut.row_mut(i), pic_m.row_mut(i), cnt_m.row_mut(i));
        for (width, j) in (i..n).enumerate() {
            // No cut: the area itself as one aggregate. `gain_loss` lets a
            // lazy cube evaluate the cell in a single pass over the states.
            let (g, l) = input.gain_loss(node, i, j);
            let mut best = Best {
                cut: j as i32,
                pic: p * g - (1.0 - p) * l,
                count: 1,
            };

            // Spatial cut?
            if !child_pics.is_empty() {
                let pic_s: f64 = child_pics.iter().map(|m| m.get(i, j)).sum();
                let cnt_s: u32 = child_counts.iter().map(|m| m.get(i, j)).sum();
                let better = pic_s > best.pic + eps;
                let coarser_tie = coarse && cnt_s < best.count && (pic_s - best.pic).abs() <= eps;
                if better || coarser_tie {
                    best.cut = -1;
                    best.pic = best.pic.max(pic_s);
                    best.count = cnt_s;
                }
            }

            // Temporal cuts: candidate `k = i + t` pairs entry `t` of the
            // row slice `[i, i..j)` with entry `t` of the column slice
            // `[i+1..=j, j]`.
            temporal_cuts(
                &mut best,
                i,
                &Operands {
                    left: &pic_row[..width],
                    right: &pic_c.column(j)[i + 1..],
                    left_cnt: &cnt_row[..width],
                    right_cnt: &cnt_c.column(j)[i + 1..],
                },
                eps,
                coarse,
            );

            cut_row[width] = best.cut;
            pic_row[width] = best.pic;
            cnt_row[width] = best.count;
            pic_c.set(i, j, best.pic);
            cnt_c.set(i, j, best.count);
        }
    }
    (cut, pic_m, cnt_m)
}

/// The temporal-cut operands of one cell, all of the same length.
struct Operands<'a> {
    left: &'a [f64],
    right: &'a [f64],
    left_cnt: &'a [u32],
    right_cnt: &'a [u32],
}

/// Fold the temporal cuts of a cell whose row starts at slice `i` into
/// `best`, in ascending `k`, adopting a candidate exactly when the scalar
/// rule of Algorithm 1 would.
#[inline]
fn temporal_cuts(best: &mut Best, i: usize, ops: &Operands<'_>, eps: f64, coarse: bool) {
    let mut left = ops.left.chunks_exact(CHUNK);
    let mut right = ops.right.chunks_exact(CHUNK);
    let mut offset = 0;
    for (a, b) in (&mut left).zip(&mut right) {
        let mut sums = [0.0; CHUNK];
        for ((s, x), y) in sums.iter_mut().zip(a).zip(b) {
            *s = x + y;
        }
        chunk_cuts(best, i, offset, &sums, ops, eps, coarse);
        offset += CHUNK;
    }
    let (a, b) = (left.remainder(), right.remainder());
    if !a.is_empty() {
        // NaN padding: a NaN sum is never adopted.
        let mut sums = [f64::NAN; CHUNK];
        for ((s, x), y) in sums.iter_mut().zip(a).zip(b) {
            *s = x + y;
        }
        chunk_cuts(best, i, offset, &sums, ops, eps, coarse);
    }
}

/// One chunk of candidates `k = i + offset + t`: skipped whole unless one
/// of its sums passes the adoption test against the running best (which
/// is what its NaN-ignoring `f64::max` would show), else scanned in `k`
/// order with the scalar rule.
#[inline(always)]
fn chunk_cuts(
    best: &mut Best,
    i: usize,
    offset: usize,
    sums: &[f64; CHUNK],
    ops: &Operands<'_>,
    eps: f64,
    coarse: bool,
) {
    // A candidate is adopted only if its sum exceeds `best + eps`, or
    // (coarse ties) `best − eps`: `threshold` is the lower of the two.
    let above = best.pic + eps;
    let threshold = if coarse {
        above.min(best.pic - eps)
    } else {
        above
    };
    // A fold, not `any`: without the early exit the test vectorizes.
    if !sums.iter().fold(false, |hit, &s| hit | (s > threshold)) {
        return;
    }
    for (t, &pic_t) in sums.iter().enumerate() {
        let k = offset + t;
        let cnt_t = || ops.left_cnt[k] + ops.right_cnt[k];
        let better = pic_t > best.pic + eps;
        let coarser_tie = coarse && pic_t > best.pic - eps && cnt_t() < best.count;
        if better || coarser_tie {
            best.cut = (i + k) as i32;
            best.pic = best.pic.max(pic_t);
            best.count = cnt_t();
        }
    }
}

/// The scalar per-node DP the kernel replaced, kept as the oracle the
/// kernel is tested against.
#[cfg(test)]
fn solve_node_scalar<C: QualityCube>(
    input: &C,
    node: NodeId,
    p: f64,
    config: &DpConfig,
    child_pics: &[&TriMatrix<f64>],
    child_counts: &[&TriMatrix<u32>],
) -> NodeResult {
    let n = input.n_slices();
    let eps = config.epsilon;
    let coarse = config.prefer_coarse_ties;
    let mut cut = TriMatrix::<i32>::new(n);
    let mut pic_m = TriMatrix::<f64>::new(n);
    let mut cnt_m = TriMatrix::<u32>::new(n);

    for i in (0..n).rev() {
        for j in i..n {
            let (g, l) = input.gain_loss(node, i, j);
            let mut best_cut = j as i32;
            let mut best = p * g - (1.0 - p) * l;
            let mut best_cnt = 1u32;

            if !child_pics.is_empty() {
                let pic_s: f64 = child_pics.iter().map(|m| m.get(i, j)).sum();
                let cnt_s: u32 = child_counts.iter().map(|m| m.get(i, j)).sum();
                let better = pic_s > best + eps;
                let coarser_tie = coarse && cnt_s < best_cnt && (pic_s - best).abs() <= eps;
                if better || coarser_tie {
                    best_cut = -1;
                    best = best.max(pic_s);
                    best_cnt = cnt_s;
                }
            }

            for k in i..j {
                let pic_t = pic_m.get(i, k) + pic_m.get(k + 1, j);
                let better = pic_t > best + eps;
                let coarser_tie = coarse
                    && pic_t > best - eps
                    && cnt_m.get(i, k) + cnt_m.get(k + 1, j) < best_cnt;
                if better || coarser_tie {
                    best_cut = k as i32;
                    best = best.max(pic_t);
                    best_cnt = cnt_m.get(i, k) + cnt_m.get(k + 1, j);
                }
            }

            cut.set(i, j, best_cut);
            pic_m.set(i, j, best);
            cnt_m.set(i, j, best_cnt);
        }
    }
    (cut, pic_m, cnt_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::AggregationInput;
    use ocelotl_trace::synthetic::{block_model, fig3_model, random_model, Block};
    use ocelotl_trace::{Hierarchy, StateRegistry};

    fn seq_and_par(input: &AggregationInput, p: f64) -> (CutTree, CutTree) {
        let seq = aggregate(
            input,
            p,
            &DpConfig {
                parallel: false,
                ..DpConfig::default()
            },
        );
        let par = aggregate(
            input,
            p,
            &DpConfig {
                parallel: true,
                ..DpConfig::default()
            },
        );
        (seq, par)
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = random_model(&[3, 4], 11, 3, 2024);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.2, 0.5, 0.8, 1.0] {
            let (seq, par) = seq_and_par(&input, p);
            assert_eq!(seq.partition(&input), par.partition(&input), "p = {p}");
            assert!((seq.optimal_pic(&input) - par.optimal_pic(&input)).abs() < 1e-12);
        }
    }

    #[test]
    fn partition_is_always_valid() {
        let m = random_model(&[2, 3, 2], 9, 2, 7);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let tree = aggregate_default(&input, p);
            let part = tree.partition(&input);
            part.validate(m.hierarchy(), 9)
                .unwrap_or_else(|e| panic!("invalid partition at p={p}: {e}"));
        }
    }

    #[test]
    fn dp_pic_matches_extracted_partition_pic() {
        let m = random_model(&[4, 2], 8, 3, 55);
        let input = AggregationInput::build(&m);
        for &p in &[0.0, 0.3, 0.6, 1.0] {
            let tree = aggregate_default(&input, p);
            let part = tree.partition(&input);
            let expected = tree.optimal_pic(&input);
            let actual = part.pic(&input, p);
            assert!(
                (expected - actual).abs() < 1e-9,
                "p={p}: DP pIC {expected} vs partition pIC {actual}"
            );
        }
    }

    #[test]
    fn dp_beats_reference_partitions() {
        let m = random_model(&[3, 3], 10, 2, 31);
        let input = AggregationInput::build(&m);
        let h = m.hierarchy();
        for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let tree = aggregate_default(&input, p);
            let best = tree.optimal_pic(&input);
            for reference in [
                Partition::microscopic(h, 10),
                Partition::full(h, 10),
                Partition::product(h.top_level(), &[(0, 4), (5, 9)]),
            ] {
                let q = reference.pic(&input, p);
                assert!(
                    best >= q - 1e-9,
                    "p={p}: DP {best} worse than reference {q}"
                );
            }
        }
    }

    #[test]
    fn p_zero_yields_zero_loss_partition() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.0);
        let part = tree.partition(&input);
        assert!(part.loss(&input) < 1e-9, "p=0 partition must lose nothing");
        // And it should still aggregate the homogeneous cells (slice 7 is
        // globally homogeneous, so the partition is far from microscopic).
        assert!(part.len() < 12 * 20);
    }

    #[test]
    fn p_one_yields_full_aggregation_on_uniform_model() {
        // On a uniform model every partition has loss 0; at p=1 the DP must
        // find the gain-maximal partition, which for uniform data is the
        // full aggregation.
        let h = Hierarchy::balanced(&[2, 2]);
        let states = StateRegistry::from_names(["a", "b"]);
        let m = block_model(
            h,
            states,
            6,
            &[Block {
                leaves: 0..4,
                slices: 0..6,
                rho: vec![0.4, 0.6],
            }],
        );
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 1.0);
        let part = tree.partition(&input);
        assert_eq!(part.len(), 1, "uniform data fully aggregates at p=1");
    }

    #[test]
    fn block_structure_recovered_at_intermediate_p() {
        // Two clusters with different behavior, switching at slice 5:
        // the optimal partition at moderate p should cut exactly there.
        let h = Hierarchy::balanced(&[2, 4]);
        let states = StateRegistry::from_names(["a", "b"]);
        let m = block_model(
            h,
            states,
            10,
            &[
                Block {
                    leaves: 0..4,
                    slices: 0..10,
                    rho: vec![0.9, 0.1],
                },
                Block {
                    leaves: 4..8,
                    slices: 0..5,
                    rho: vec![0.1, 0.9],
                },
                Block {
                    leaves: 4..8,
                    slices: 5..10,
                    rho: vec![0.8, 0.2],
                },
            ],
        );
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.5);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 10).unwrap();
        // Zero loss is achievable with 3 aggregates; the optimum cannot lose
        // information nor use more areas than the blocks require.
        assert!(part.loss(&input) < 1e-9);
        assert!(
            part.len() <= 4,
            "expected ≤4 aggregates, got {}",
            part.len()
        );
        // The second cluster must have a temporal cut at slice 4/5 boundary.
        let c2 = m.hierarchy().top_level()[1];
        let has_cut = part
            .areas()
            .iter()
            .any(|a| a.node == c2 && a.last_slice == 4);
        assert!(
            has_cut,
            "missing temporal cut at the block boundary: {part:?}"
        );
    }

    #[test]
    fn monotone_area_count_in_p_on_fig3() {
        let m = fig3_model();
        let input = AggregationInput::build(&m);
        let mut prev = usize::MAX;
        for &p in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let n = aggregate_default(&input, p).partition(&input).len();
            assert!(
                n <= prev,
                "area count should not increase with p (p={p}: {n} > {prev})"
            );
            prev = n;
        }
    }

    #[test]
    fn single_slice_trace_only_spatial_cuts() {
        let m = random_model(&[3, 2], 1, 2, 11);
        let input = AggregationInput::build(&m);
        let tree = aggregate_default(&input, 0.0);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 1).unwrap();
        for a in part.areas() {
            assert_eq!(a.first_slice, 0);
            assert_eq!(a.last_slice, 0);
        }
    }

    #[test]
    fn single_child_chain_nodes_do_not_change_the_optimum() {
        // Inserting a chain of single-child intermediate nodes leaves the
        // achievable pIC unchanged: a chain node's aggregate carries exactly
        // its only child's data, so keep-vs-spatial-cut through it is a tie
        // and the optimum value is preserved.
        use ocelotl_trace::{HierarchyBuilder, MicroModel, StateRegistry, TimeGrid};
        let slices = 6;
        let states = StateRegistry::from_names(["a", "b"]);
        let grid = TimeGrid::new(0.0, slices as f64, slices);

        // Flat: root → 4 leaves.
        let flat = ocelotl_trace::Hierarchy::flat(4, "p");
        // Chained: root → chain → chain → {4 leaves}.
        let mut b = HierarchyBuilder::new("root", "root");
        let c1 = b.add_child(b.root(), "chain1", "x");
        let c2 = b.add_child(c1, "chain2", "x");
        for i in 0..4 {
            b.add_child(c2, &format!("p{i}"), "leaf");
        }
        let chained = b.build().unwrap();

        let mut rng = ocelotl_trace::synthetic::SplitMix64(77);
        let mut rho = vec![0.0f64; 4 * 2 * slices];
        for v in rho.iter_mut() {
            *v = 0.5 * rng.next_f64();
        }
        let m_flat = MicroModel::from_proportions(flat, states.clone(), grid, rho.clone());
        let m_chain = MicroModel::from_proportions(chained, states, grid, rho);
        let in_flat = AggregationInput::build(&m_flat);
        let in_chain = AggregationInput::build(&m_chain);
        for p in [0.0, 0.3, 0.7, 1.0] {
            let a = aggregate_default(&in_flat, p).optimal_pic(&in_flat);
            let b = aggregate_default(&in_chain, p).optimal_pic(&in_chain);
            assert!((a - b).abs() < 1e-9, "p={p}: flat {a} vs chained {b}");
        }
    }

    #[test]
    fn cut_decoding() {
        assert_eq!(decode(-1, 5), Cut::Spatial);
        assert_eq!(decode(5, 5), Cut::Keep);
        assert_eq!(decode(3, 5), Cut::Temporal(3));
    }

    /// A degenerate model where all proportions are exactly 0 or 1: every
    /// zero-loss partition has pIC = 0 (gain vanishes on pure cells), so
    /// everything ties and tie-breaking decides the output's shape.
    fn pure_block_model() -> ocelotl_trace::MicroModel {
        let h = Hierarchy::balanced(&[2, 4]);
        let states = StateRegistry::from_names(["a", "b"]);
        block_model(
            h,
            states,
            10,
            &[
                // Cluster 0: state a throughout.
                Block {
                    leaves: 0..4,
                    slices: 0..10,
                    rho: vec![1.0, 0.0],
                },
                // Cluster 1: state a, except leaves 4..6 flip to b in [4, 7).
                Block {
                    leaves: 4..8,
                    slices: 0..4,
                    rho: vec![1.0, 0.0],
                },
                Block {
                    leaves: 4..6,
                    slices: 4..7,
                    rho: vec![0.0, 1.0],
                },
                Block {
                    leaves: 6..8,
                    slices: 4..7,
                    rho: vec![1.0, 0.0],
                },
                Block {
                    leaves: 4..8,
                    slices: 7..10,
                    rho: vec![1.0, 0.0],
                },
            ],
        )
    }

    #[test]
    fn coarse_ties_find_minimal_zero_loss_partition() {
        let m = pure_block_model();
        let input = AggregationInput::build(&m);
        let cfg = DpConfig::coarse_ties();
        let tree = aggregate(&input, 0.35, &cfg);
        let part = tree.partition(&input);
        part.validate(m.hierarchy(), 10).unwrap();
        assert!(part.loss(&input) < 1e-9);
        // Minimal zero-loss partition: cluster0 whole-range; cluster1 splits
        // at slices 4 and 7, and within [4,7) splits into two 2-leaf halves
        // (machines are leaves here, so per-leaf areas): the best achievable
        // is well below the paper-faithful first-cut chain.
        let faithful = aggregate_default(&input, 0.35).partition(&input);
        assert!(
            part.len() < faithful.len(),
            "coarse ties ({}) must beat first-cut ties ({})",
            part.len(),
            faithful.len()
        );
        assert!(
            part.len() <= 8,
            "expected a handful of areas, got {}",
            part.len()
        );
        // Identical optimality.
        assert!(
            (tree.optimal_pic(&input) - aggregate_default(&input, 0.35).optimal_pic(&input)).abs()
                < 1e-9
        );
    }

    #[test]
    fn area_counts_match_extracted_partition() {
        for seed in [3u64, 17, 99] {
            let m = random_model(&[3, 3], 8, 2, seed);
            let input = AggregationInput::build(&m);
            for &p in &[0.0, 0.4, 0.8, 1.0] {
                for cfg in [DpConfig::default(), DpConfig::coarse_ties()] {
                    let tree = aggregate(&input, p, &cfg);
                    let part = tree.partition(&input);
                    assert_eq!(
                        tree.optimal_n_areas(&input),
                        part.len(),
                        "seed={seed} p={p} coarse={}",
                        cfg.prefer_coarse_ties
                    );
                }
            }
        }
    }

    #[test]
    fn coarse_ties_never_lose_pic() {
        for seed in [5u64, 6, 7] {
            let m = random_model(&[2, 2, 2], 7, 3, seed);
            let input = AggregationInput::build(&m);
            for &p in &[0.0, 0.3, 0.7, 1.0] {
                let plain = aggregate_default(&input, p).optimal_pic(&input);
                let coarse = aggregate(&input, p, &DpConfig::coarse_ties());
                assert!(
                    coarse.optimal_pic(&input) >= plain - 1e-6,
                    "seed={seed} p={p}"
                );
                assert!(
                    coarse.optimal_n_areas(&input)
                        <= aggregate_default(&input, p).optimal_n_areas(&input),
                    "coarse ties must not increase the area count (seed={seed} p={p})"
                );
            }
        }
    }

    // --- The kernel and the schedule against the scalar oracle ----------

    use crate::cube::{DenseCube, LazyCube};
    use ocelotl_trace::synthetic::SplitMix64;
    use ocelotl_trace::{HierarchyBuilder, MicroModel, TimeGrid};

    fn pick(rng: &mut SplitMix64, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// An unbalanced hierarchy: every node hangs under a random earlier
    /// internal node, so depths and fan-outs vary.
    fn random_hierarchy(rng: &mut SplitMix64, internal: usize, leaves: usize) -> Hierarchy {
        let mut b = HierarchyBuilder::new("root", "root");
        let mut parents = vec![b.root()];
        for i in 0..internal {
            let parent = parents[pick(rng, parents.len())];
            parents.push(b.add_child(parent, &format!("n{i}"), "node"));
        }
        for i in 0..leaves {
            let parent = parents[pick(rng, parents.len())];
            b.add_child(parent, &format!("l{i}"), "leaf");
        }
        b.build().unwrap()
    }

    /// Random proportions on `h`. `pure` cells hold one state at 1.0, in
    /// runs shared by groups of leaves, so nearly every choice ties;
    /// otherwise proportions are quarter steps, so exact ties stay common.
    fn random_model_on(
        rng: &mut SplitMix64,
        h: Hierarchy,
        slices: usize,
        pure: bool,
    ) -> MicroModel {
        let states = StateRegistry::from_names(["a", "b", "c"]);
        let n = h.n_leaves();
        let mut rho = vec![0.0f64; n * 3 * slices];
        let runs: Vec<usize> = (0..slices).map(|_| pick(rng, 3)).collect();
        for s in 0..n {
            let flip = pick(rng, 3);
            for (t, &run) in runs.iter().enumerate() {
                if pure {
                    let x = if s % 4 == 0 { (run + flip) % 3 } else { run };
                    rho[(s * 3 + x) * slices + t] = 1.0;
                } else {
                    let mut left = 4;
                    for x in 0..3 {
                        let q = pick(rng, left + 1);
                        left -= q;
                        rho[(s * 3 + x) * slices + t] = q as f64 / 4.0;
                    }
                }
            }
        }
        let grid = TimeGrid::new(0.0, slices as f64, slices);
        MicroModel::from_proportions(h, states, grid, rho)
    }

    fn bits(m: &TriMatrix<f64>) -> Vec<u64> {
        m.iter().map(|(_, _, v)| v.to_bits()).collect()
    }

    /// Solve every node with both kernels, children first, from the same
    /// child results, and demand identical matrices node by node.
    fn assert_kernel_matches_oracle<C: QualityCube>(
        input: &C,
        p: f64,
        config: &DpConfig,
        what: &str,
    ) {
        let h = input.hierarchy();
        let mut solved: Vec<Option<NodeResult>> = vec![None; h.len()];
        for &node in h.post_order() {
            let children: Vec<&NodeResult> = h
                .children(node)
                .iter()
                .map(|c| solved[c.index()].as_ref().unwrap())
                .collect();
            let pics: Vec<&TriMatrix<f64>> = children.iter().map(|r| &r.1).collect();
            let counts: Vec<&TriMatrix<u32>> = children.iter().map(|r| &r.2).collect();
            let fast = solve_node(input, node, p, config, &pics, &counts);
            let oracle = solve_node_scalar(input, node, p, config, &pics, &counts);
            assert_eq!(fast.0, oracle.0, "{what}: cuts of {node:?}");
            assert_eq!(
                bits(&fast.1),
                bits(&oracle.1),
                "{what}: pIC bits of {node:?}"
            );
            assert_eq!(fast.2, oracle.2, "{what}: counts of {node:?}");
            solved[node.index()] = Some(fast);
        }
    }

    #[test]
    fn kernel_matches_the_scalar_oracle_bit_for_bit() {
        let mut rng = SplitMix64(0x0C31_07F1);
        for model in 0..40 {
            let pure = model % 4 == 3;
            // 1..=26 slices: single cells, partial chunks, several chunks.
            let slices = 1 + pick(&mut rng, 26);
            let internal = pick(&mut rng, 6);
            let leaves = 1 + pick(&mut rng, 9);
            let h = random_hierarchy(&mut rng, internal, leaves);
            let m = random_model_on(&mut rng, h, slices, pure);
            let dense = DenseCube::build(&m);
            let lazy = LazyCube::build(&m);
            for p in [0.0, 0.1, 0.35, 0.5, 0.65, 0.9, 1.0] {
                for config in [DpConfig::default(), DpConfig::coarse_ties()] {
                    let what = format!(
                        "model {model} (pure {pure}, |T| {slices}) p {p} coarse {}",
                        config.prefer_coarse_ties
                    );
                    assert_kernel_matches_oracle(&dense, p, &config, &format!("dense {what}"));
                    assert_kernel_matches_oracle(&lazy, p, &config, &format!("lazy {what}"));
                }
            }
        }
        // The hand-built all-tie model too.
        let input = AggregationInput::build(&pure_block_model());
        for config in [DpConfig::default(), DpConfig::coarse_ties()] {
            assert_kernel_matches_oracle(&input, 0.35, &config, "pure block model");
        }
    }

    /// A tree's cuts, pIC bit patterns and counts, node by node.
    type TreeBits = (Vec<TriMatrix<i32>>, Vec<Vec<u64>>, Vec<TriMatrix<u32>>);

    fn tree_bits(t: &CutTree) -> TreeBits {
        (
            t.cuts.clone(),
            t.pic.iter().map(bits).collect(),
            t.counts.clone(),
        )
    }

    #[test]
    fn cut_tree_is_identical_for_every_schedule_and_thread_budget() {
        let before = rayon::max_threads();
        let mut rng = SplitMix64(0x5EED);
        // Case-C-like: unequal subtrees under the root.
        let mut b = HierarchyBuilder::new("root", "root");
        for (c, leaves) in [10, 6, 40].into_iter().enumerate() {
            let cluster = b.add_child(b.root(), &format!("c{c}"), "cluster");
            for l in 0..leaves {
                b.add_child(cluster, &format!("c{c}l{l}"), "leaf");
            }
        }
        let unequal = b.build().unwrap();
        let shapes = [
            (unequal, 14, false),
            (random_hierarchy(&mut rng, 8, 30), 12, false),
            (random_hierarchy(&mut rng, 5, 20), 10, true),
        ];
        for (h, slices, pure) in shapes {
            let m = random_model_on(&mut rng, h, slices, pure);
            let dense = DenseCube::build(&m);
            let lazy = LazyCube::build(&m);
            for config in [DpConfig::default(), DpConfig::coarse_ties()] {
                let seq = DpConfig {
                    parallel: false,
                    ..config
                };
                for p in [0.0, 0.4, 1.0] {
                    let expected = tree_bits(&aggregate(&dense, p, &seq));
                    assert_eq!(tree_bits(&aggregate(&lazy, p, &seq)), expected);
                    for threads in [1, 2, 4] {
                        rayon::set_max_threads(threads);
                        let what = format!(
                            "p {p} threads {threads} coarse {}",
                            config.prefer_coarse_ties
                        );
                        assert_eq!(
                            tree_bits(&aggregate(&dense, p, &config)),
                            expected,
                            "dense {what}"
                        );
                        assert_eq!(
                            tree_bits(&aggregate(&lazy, p, &config)),
                            expected,
                            "lazy {what}"
                        );
                    }
                }
            }
        }
        rayon::set_max_threads(before);
    }

    #[test]
    fn heights_group_children_before_parents() {
        let h = random_hierarchy(&mut SplitMix64(9), 7, 12);
        let levels = height_levels(&h);
        let mut level_of = vec![usize::MAX; h.len()];
        for (height, nodes) in levels.iter().enumerate() {
            for &n in nodes {
                level_of[n.index()] = height;
            }
        }
        assert_eq!(levels.iter().map(Vec::len).sum::<usize>(), h.len());
        for n in h.node_ids() {
            let below = h.children(n).iter().map(|c| level_of[c.index()] + 1).max();
            assert_eq!(level_of[n.index()], below.unwrap_or(0), "{n:?}");
        }
    }
}
