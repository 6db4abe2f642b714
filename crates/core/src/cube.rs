//! Quality cubes: pluggable, memory-bounded access to `gain`/`loss` for
//! every `(node, interval)` pair.
//!
//! Algorithm 1 and every downstream consumer (the 1-D baselines, quality
//! reporting, p-value enumeration, the renderers) only ever ask one
//! question of the input stage: *what are `gain(S_k, T_(i,j))` and
//! `loss(S_k, T_(i,j))`?* The [`QualityCube`] trait is that question as an
//! abstraction boundary, with two backends that answer it from the same
//! per-node prefix sums but with opposite space/time trade-offs:
//!
//! - [`DenseCube`] precomputes one upper-triangular matrix per hierarchy
//!   node per measure — `O(|S|·|T|²)` floats resident, `O(1)` per query.
//!   This is the paper's §III.E data structure and what makes re-running
//!   the optimizer at a new trade-off `p` "instantaneous" (§V.B).
//! - [`LazyCube`] keeps only the `O(|S|·|T|·|X|)` prefix sums and
//!   evaluates each cell on demand in `O(|X|)`. Memory becomes *linear*
//!   in `|T|`, which is what lets an aggregation run at `|T| = 2048+` on
//!   hierarchies where the dense cube would need hundreds of gigabytes.
//!
//! Both backends are built from the same [`CubeCore`] and evaluate cells
//! with the same arithmetic in the same order, so their answers are
//! **bit-identical** — a property the equivalence test-suite pins down.
//! Pick at runtime with [`CubeBackend`] / [`MemoryMode`].

use crate::measures::{xlog2x, AreaSums};
use crate::tri::TriMatrix;
use ocelotl_trace::{Hierarchy, LeafId, MicroModel, NodeId, StateId, StateRegistry, TimeGrid};
use rayon::prelude::*;

/// Uniform query interface over the aggregation inputs.
///
/// `Sync` is a supertrait because the optimizer solves the nodes of one
/// hierarchy height in parallel and shares the cube across worker threads.
pub trait QualityCube: Sync {
    /// The spatial hierarchy.
    fn hierarchy(&self) -> &Hierarchy;

    /// The state registry.
    fn states(&self) -> &StateRegistry;

    /// `|T|`: number of time slices.
    fn n_slices(&self) -> usize;

    /// `d(t)`: duration of one slice.
    fn slice_duration(&self) -> f64;

    /// `gain(S_k, T_(i,j))` summed over states (Eq. 3).
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64;

    /// `loss(S_k, T_(i,j))` summed over states (Eq. 2).
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64;

    /// Both measures of one cell. Backends that evaluate on demand answer
    /// this in a single pass over the states; prefer it in inner loops.
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        (self.gain(node, i, j), self.loss(node, i, j))
    }

    /// `|X|`: number of states.
    fn n_states(&self) -> usize {
        self.states().len()
    }

    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1.
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64;

    /// All aggregated proportions of an area, indexed by state.
    fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (0..self.n_states())
            .map(|x| self.rho_aggregate(node, StateId(x as u16), i, j))
            .collect()
    }

    /// Estimated resident size of the cube in bytes (diagnostic).
    fn memory_bytes(&self) -> usize;
}

/// Blanket impl so generic consumers accept `&DenseCube`, `&dyn
/// QualityCube`, boxed cubes, etc. without extra plumbing.
impl<C: QualityCube + ?Sized> QualityCube for &C {
    fn hierarchy(&self) -> &Hierarchy {
        (**self).hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        (**self).states()
    }
    fn n_slices(&self) -> usize {
        (**self).n_slices()
    }
    fn slice_duration(&self) -> f64 {
        (**self).slice_duration()
    }
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        (**self).gain(node, i, j)
    }
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        (**self).loss(node, i, j)
    }
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        (**self).gain_loss(node, i, j)
    }
    fn n_states(&self) -> usize {
        (**self).n_states()
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        (**self).rho_aggregate(node, x, i, j)
    }
    fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (**self).rho_aggregate_all(node, i, j)
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
}

// ---------------------------------------------------------------------------
// Shared substrate
// ---------------------------------------------------------------------------

/// The per-node prefix sums both backends are built from: for every
/// hierarchy node and state, running sums over time of `Σ_s d_x(s,t)` and
/// `Σ_s ρ_x·log₂ρ_x` (leaves read the microscopic model, internal nodes
/// sum their children). Any cell `(node, [i, j])` evaluates from these in
/// `O(|X|)` — see [`CubeCore::eval_cell`].
#[derive(Debug, Clone)]
pub struct CubeCore {
    hierarchy: Hierarchy,
    states: StateRegistry,
    /// The time grid of the microscopic model the core was built from.
    /// Carrying the full grid (not just the slice duration) lets a core
    /// deserialized from an `.ocube` artifact serve every time-axis query
    /// (slice bounds, trace extent) without reloading the trace.
    grid: TimeGrid,
    /// Per node: prefix sums of `Σ_s d_x(s,t)`, laid out `[state × (|T|+1)]`.
    prefix_duration: Vec<Vec<f64>>,
    /// Per node: prefix sums of `Σ_s ρ_x·log₂ρ_x`, same layout.
    prefix_info: Vec<Vec<f64>>,
}

impl CubeCore {
    /// Build the prefix sums from a microscopic model (leaves in
    /// parallel, internal nodes summed in post-order).
    pub fn build(model: &MicroModel) -> Self {
        let hierarchy = model.hierarchy().clone();
        let states = model.states().clone();
        let grid = *model.grid();
        let n_slices = model.n_slices();
        let n_states = model.n_states();
        let n_nodes = hierarchy.len();
        let slice_duration = grid.slice_duration();
        assert!(n_states >= 1, "need at least one state");

        let stride = n_slices + 1;

        let mut prefix_duration: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];
        let mut prefix_info: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];

        // Leaves in parallel.
        let leaf_prefixes: Vec<(usize, Vec<f64>, Vec<f64>)> = (0..hierarchy.n_leaves())
            .into_par_iter()
            .map(|leaf| {
                let node = hierarchy.leaf_node(LeafId(leaf as u32));
                let mut pd = vec![0.0; n_states * stride];
                let mut pi = vec![0.0; n_states * stride];
                for x in 0..n_states {
                    let series = model.series(LeafId(leaf as u32), StateId(x as u16));
                    let (pd_row, pi_row) = (x * stride, x * stride);
                    let mut acc_d = 0.0;
                    let mut acc_i = 0.0;
                    for (t, &d) in series.iter().enumerate() {
                        acc_d += d;
                        acc_i += xlog2x(d / slice_duration);
                        pd[pd_row + t + 1] = acc_d;
                        pi[pi_row + t + 1] = acc_i;
                    }
                }
                (node.index(), pd, pi)
            })
            .collect();
        for (idx, pd, pi) in leaf_prefixes {
            prefix_duration[idx] = pd;
            prefix_info[idx] = pi;
        }

        // Internal nodes: sum of children, in post-order (children first).
        for &node in hierarchy.post_order() {
            if hierarchy.is_leaf(node) {
                continue;
            }
            let mut pd = vec![0.0; n_states * stride];
            let mut pi = vec![0.0; n_states * stride];
            for &c in hierarchy.children(node) {
                let (cpd, cpi) = (&prefix_duration[c.index()], &prefix_info[c.index()]);
                for (a, &b) in pd.iter_mut().zip(cpd) {
                    *a += b;
                }
                for (a, &b) in pi.iter_mut().zip(cpi) {
                    *a += b;
                }
            }
            prefix_duration[node.index()] = pd;
            prefix_info[node.index()] = pi;
        }

        Self {
            hierarchy,
            states,
            grid,
            prefix_duration,
            prefix_info,
        }
    }

    /// Reassemble a core from its serialized parts (the `.ocube` reader's
    /// entry point). Validates the shape invariants the builder guarantees:
    /// one row pair per hierarchy node, each `|X| × (|T|+1)` long.
    pub fn from_raw(
        hierarchy: Hierarchy,
        states: StateRegistry,
        grid: TimeGrid,
        prefix_duration: Vec<Vec<f64>>,
        prefix_info: Vec<Vec<f64>>,
    ) -> Result<Self, String> {
        if states.is_empty() {
            return Err("need at least one state".into());
        }
        let n_nodes = hierarchy.len();
        if prefix_duration.len() != n_nodes || prefix_info.len() != n_nodes {
            return Err(format!(
                "prefix rows ({} duration, {} info) do not match {n_nodes} nodes",
                prefix_duration.len(),
                prefix_info.len()
            ));
        }
        let row_len = states.len() * (grid.n_slices() + 1);
        for (idx, (pd, pi)) in prefix_duration.iter().zip(&prefix_info).enumerate() {
            if pd.len() != row_len || pi.len() != row_len {
                return Err(format!(
                    "node {idx}: row lengths ({}, {}) != |X|·(|T|+1) = {row_len}",
                    pd.len(),
                    pi.len()
                ));
            }
        }
        Ok(Self {
            hierarchy,
            states,
            grid,
            prefix_duration,
            prefix_info,
        })
    }

    /// The spatial hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The state registry.
    #[inline]
    pub fn states(&self) -> &StateRegistry {
        &self.states
    }

    /// The time grid of the underlying microscopic model.
    #[inline]
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// `|T|`.
    #[inline]
    pub fn n_slices(&self) -> usize {
        self.grid.n_slices()
    }

    /// `|X|`.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// `d(t)`.
    #[inline]
    pub fn slice_duration(&self) -> f64 {
        self.grid.slice_duration()
    }

    /// True while the Shannon-information prefix sums are still resident
    /// (serialization requires them; the dense backend drops them).
    #[inline]
    pub fn has_info_sums(&self) -> bool {
        !self.prefix_info.is_empty()
    }

    /// Raw duration prefix sums of one node, laid out `[state × (|T|+1)]`
    /// (serialization hook for the `.ocube` writer).
    #[inline]
    pub fn prefix_duration_row(&self, node: NodeId) -> &[f64] {
        &self.prefix_duration[node.index()]
    }

    /// Raw information prefix sums of one node, same layout. Empty once
    /// [`CubeCore::has_info_sums`] is false.
    #[inline]
    pub fn prefix_info_row(&self, node: NodeId) -> &[f64] {
        if self.prefix_info.is_empty() {
            &[]
        } else {
            &self.prefix_info[node.index()]
        }
    }

    /// Evaluate `(gain, loss)` of one cell in `O(|X|)` from the prefix
    /// sums. Every cell any backend ever serves goes through this one
    /// function, which is what makes dense and lazy answers bit-identical
    /// (same operations in the same order).
    #[inline]
    pub fn eval_cell(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        assert!(
            !self.prefix_info.is_empty(),
            "info prefix sums were discarded (this core already fed a dense cube)"
        );
        let idx = node.index();
        let n_res = self.hierarchy.n_leaves_under(node);
        let stride = self.n_slices() + 1;
        let slice_duration = self.slice_duration();
        let pd = &self.prefix_duration[idx];
        let pi = &self.prefix_info[idx];
        let period = (j - i + 1) as f64 * slice_duration;
        let mut g = 0.0;
        let mut l = 0.0;
        for x in 0..self.n_states() {
            let row = x * stride;
            let sums = AreaSums {
                sum_duration: pd[row + j + 1] - pd[row + i],
                sum_rho: (pd[row + j + 1] - pd[row + i]) / slice_duration,
                sum_rho_log_rho: pi[row + j + 1] - pi[row + i],
            };
            g += sums.gain(n_res, period);
            l += sums.loss(n_res, period);
        }
        (g, l)
    }

    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1.
    pub fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        let stride = self.n_slices() + 1;
        let pd = &self.prefix_duration[node.index()];
        let row = x.index() * stride;
        let sum_d = pd[row + j + 1] - pd[row + i];
        let n_res = self.hierarchy.n_leaves_under(node) as f64;
        let period = (j - i + 1) as f64 * self.slice_duration();
        sum_d / (n_res * period)
    }

    /// Drop the Shannon-information prefix sums. The dense backend calls
    /// this once its triangular matrices are materialized: after that it
    /// answers `gain`/`loss` from the matrices and `rho_aggregate` from
    /// the duration sums alone, so keeping the info sums resident would
    /// waste an entire lazy cube's worth of memory. [`CubeCore::eval_cell`]
    /// panics after this.
    fn discard_info_sums(&mut self) {
        self.prefix_info = Vec::new();
    }

    /// Resident bytes of the prefix sums.
    pub fn memory_bytes(&self) -> usize {
        let cells = self.prefix_duration.iter().map(Vec::len).sum::<usize>()
            + self.prefix_info.iter().map(Vec::len).sum::<usize>();
        cells * std::mem::size_of::<f64>()
    }
}

/// Bytes the dense backend would allocate for its triangular matrices on
/// a `|S|`-node, `|T|`-slice problem (two `f64` per interval per node).
pub fn dense_matrix_bytes(n_nodes: usize, n_slices: usize) -> usize {
    n_nodes * (n_slices * (n_slices + 1) / 2) * 2 * std::mem::size_of::<f64>()
}

// ---------------------------------------------------------------------------
// Dense backend
// ---------------------------------------------------------------------------

/// Precomputed backend: the paper's per-node triangular `gain`/`loss`
/// matrices (§III.E). `O(|S|·|T|²)` resident floats, `O(1)` per query —
/// the right choice whenever the matrices fit in memory, and the one that
/// preserves §V.B "instantaneous interaction" exactly.
#[derive(Debug, Clone)]
pub struct DenseCube {
    core: CubeCore,
    /// Per node: `gain(S_k, T_(i,j))` summed over states.
    gain: Vec<TriMatrix<f64>>,
    /// Per node: `loss(S_k, T_(i,j))` summed over states.
    loss: Vec<TriMatrix<f64>>,
}

impl DenseCube {
    /// Build prefix sums, then materialize all triangular matrices
    /// (parallel over nodes).
    pub fn build(model: &MicroModel) -> Self {
        Self::from_core(CubeCore::build(model))
    }

    /// Materialize the matrices over an existing core.
    pub fn from_core(core: CubeCore) -> Self {
        let n_nodes = core.hierarchy().len();
        let n_slices = core.n_slices();
        let matrices: Vec<(TriMatrix<f64>, TriMatrix<f64>)> = (0..n_nodes)
            .into_par_iter()
            .map(|idx| {
                let node = NodeId(idx as u32);
                let mut gain = TriMatrix::<f64>::new(n_slices);
                let mut loss = TriMatrix::<f64>::new(n_slices);
                for i in 0..n_slices {
                    for j in i..n_slices {
                        let (g, l) = core.eval_cell(node, i, j);
                        gain.set(i, j, g);
                        loss.set(i, j, l);
                    }
                }
                (gain, loss)
            })
            .collect();

        let mut gain = Vec::with_capacity(n_nodes);
        let mut loss = Vec::with_capacity(n_nodes);
        for (g, l) in matrices {
            gain.push(g);
            loss.push(l);
        }
        let mut core = core;
        core.discard_info_sums();
        Self { core, gain, loss }
    }

    /// The shared prefix-sum substrate (info sums discarded; see
    /// [`CubeCore::has_info_sums`]).
    #[inline]
    pub fn core(&self) -> &CubeCore {
        &self.core
    }

    /// The spatial hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        self.core.hierarchy()
    }

    /// The state registry.
    #[inline]
    pub fn states(&self) -> &StateRegistry {
        self.core.states()
    }

    /// `|T|`: number of time slices.
    #[inline]
    pub fn n_slices(&self) -> usize {
        self.core.n_slices()
    }

    /// `|X|`: number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.core.n_states()
    }

    /// `d(t)`: duration of one slice.
    #[inline]
    pub fn slice_duration(&self) -> f64 {
        self.core.slice_duration()
    }

    /// `gain(S_k, T_(i,j))` — one matrix read.
    #[inline]
    pub fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.gain[node.index()].get(i, j)
    }

    /// `loss(S_k, T_(i,j))` — one matrix read.
    #[inline]
    pub fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.loss[node.index()].get(i, j)
    }

    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1.
    #[inline]
    pub fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.core.rho_aggregate(node, x, i, j)
    }

    /// All aggregated proportions of an area, indexed by state.
    pub fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (0..self.n_states())
            .map(|x| self.rho_aggregate(node, StateId(x as u16), i, j))
            .collect()
    }

    /// Resident bytes: matrices plus prefix sums.
    pub fn memory_bytes(&self) -> usize {
        let tri = self.gain.iter().map(TriMatrix::len).sum::<usize>()
            + self.loss.iter().map(TriMatrix::len).sum::<usize>();
        tri * std::mem::size_of::<f64>() + self.core.memory_bytes()
    }
}

impl QualityCube for DenseCube {
    fn hierarchy(&self) -> &Hierarchy {
        self.core.hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        self.core.states()
    }
    fn n_slices(&self) -> usize {
        self.core.n_slices()
    }
    fn slice_duration(&self) -> f64 {
        self.core.slice_duration()
    }
    #[inline]
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        DenseCube::gain(self, node, i, j)
    }
    #[inline]
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        DenseCube::loss(self, node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.core.rho_aggregate(node, x, i, j)
    }
    fn memory_bytes(&self) -> usize {
        DenseCube::memory_bytes(self)
    }
}

// ---------------------------------------------------------------------------
// Lazy backend
// ---------------------------------------------------------------------------

/// On-demand backend: keeps only the `O(|S|·|T|·|X|)` prefix sums and
/// evaluates every queried cell in `O(|X|)`. Memory is linear in `|T|`,
/// so Table II-scale scenarios can run at `|T| = 2048` and beyond where
/// the dense matrices would be hundreds of gigabytes. Queries cost an
/// `O(|X|)` loop instead of a load, so interaction (re-running the DP at
/// a new `p`) is slower than dense by that factor — see the
/// `memory_backends` bench for the measured trade-off.
#[derive(Debug, Clone)]
pub struct LazyCube {
    core: CubeCore,
}

impl LazyCube {
    /// Build the prefix sums only — no triangular matrices.
    pub fn build(model: &MicroModel) -> Self {
        Self::from_core(CubeCore::build(model))
    }

    /// Wrap an existing core.
    pub fn from_core(core: CubeCore) -> Self {
        Self { core }
    }

    /// The shared prefix-sum substrate.
    #[inline]
    pub fn core(&self) -> &CubeCore {
        &self.core
    }

    /// The spatial hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        self.core.hierarchy()
    }

    /// The state registry.
    #[inline]
    pub fn states(&self) -> &StateRegistry {
        self.core.states()
    }

    /// `|T|`: number of time slices.
    #[inline]
    pub fn n_slices(&self) -> usize {
        self.core.n_slices()
    }

    /// `|X|`: number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.core.n_states()
    }

    /// `d(t)`: duration of one slice.
    #[inline]
    pub fn slice_duration(&self) -> f64 {
        self.core.slice_duration()
    }

    /// `gain(S_k, T_(i,j))` — evaluated on demand.
    #[inline]
    pub fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.core.eval_cell(node, i, j).0
    }

    /// `loss(S_k, T_(i,j))` — evaluated on demand.
    #[inline]
    pub fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        self.core.eval_cell(node, i, j).1
    }

    /// Both measures in one `O(|X|)` pass.
    #[inline]
    pub fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        self.core.eval_cell(node, i, j)
    }

    /// Aggregated proportion `ρ_x(S_k, T_(i,j))` per Eq. 1.
    #[inline]
    pub fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.core.rho_aggregate(node, x, i, j)
    }

    /// All aggregated proportions of an area, indexed by state.
    pub fn rho_aggregate_all(&self, node: NodeId, i: usize, j: usize) -> Vec<f64> {
        (0..self.n_states())
            .map(|x| self.rho_aggregate(node, StateId(x as u16), i, j))
            .collect()
    }

    /// Resident bytes: the prefix sums only.
    pub fn memory_bytes(&self) -> usize {
        self.core.memory_bytes()
    }
}

impl QualityCube for LazyCube {
    fn hierarchy(&self) -> &Hierarchy {
        self.core.hierarchy()
    }
    fn states(&self) -> &StateRegistry {
        self.core.states()
    }
    fn n_slices(&self) -> usize {
        self.core.n_slices()
    }
    fn slice_duration(&self) -> f64 {
        self.core.slice_duration()
    }
    #[inline]
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        LazyCube::gain(self, node, i, j)
    }
    #[inline]
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        LazyCube::loss(self, node, i, j)
    }
    #[inline]
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        self.core.eval_cell(node, i, j)
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        self.core.rho_aggregate(node, x, i, j)
    }
    fn memory_bytes(&self) -> usize {
        LazyCube::memory_bytes(self)
    }
}

// ---------------------------------------------------------------------------
// Runtime backend selection
// ---------------------------------------------------------------------------

/// Default ceiling for the auto heuristic: if the dense matrices would
/// exceed this many bytes, [`MemoryMode::Auto`] picks the lazy backend.
pub const AUTO_DENSE_LIMIT_BYTES: usize = 1 << 30; // 1 GiB

/// The `auto` sizing heuristic, as the single shared function: dense while
/// the `O(|S|·|T|²)` triangular matrices fit under
/// [`AUTO_DENSE_LIMIT_BYTES`], lazy beyond. Everything that needs the
/// decision — [`MemoryMode::resolve`], [`CubeBackend::build`], the
/// [`crate::session::AnalysisSession`] — routes through here, so the 1 GiB
/// policy lives in exactly one place.
pub fn choose_auto_backend(n_nodes: usize, n_slices: usize) -> MemoryMode {
    if dense_matrix_bytes(n_nodes, n_slices) > AUTO_DENSE_LIMIT_BYTES {
        MemoryMode::Lazy
    } else {
        MemoryMode::Dense
    }
}

/// How to choose the cube backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Decide from the problem size: dense while the matrices fit under
    /// [`AUTO_DENSE_LIMIT_BYTES`], lazy beyond.
    #[default]
    Auto,
    /// Always precompute the triangular matrices.
    Dense,
    /// Never materialize matrices; evaluate cells on demand.
    Lazy,
}

impl MemoryMode {
    /// Resolve the mode for a concrete problem size (delegates to
    /// [`choose_auto_backend`]).
    pub fn resolve(self, n_nodes: usize, n_slices: usize) -> MemoryMode {
        match self {
            MemoryMode::Auto => choose_auto_backend(n_nodes, n_slices),
            fixed => fixed,
        }
    }

    /// Stable tag used in artifact keys and CLI output.
    pub fn tag(self) -> &'static str {
        match self {
            MemoryMode::Auto => "auto",
            MemoryMode::Dense => "dense",
            MemoryMode::Lazy => "lazy",
        }
    }
}

impl std::str::FromStr for MemoryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(MemoryMode::Auto),
            "dense" => Ok(MemoryMode::Dense),
            "lazy" => Ok(MemoryMode::Lazy),
            other => Err(format!("unknown memory mode {other:?} (auto|dense|lazy)")),
        }
    }
}

/// Runtime-chosen backend (what the CLI's `--memory` flag constructs).
#[derive(Debug, Clone)]
pub enum CubeBackend {
    /// Precomputed triangular matrices.
    Dense(DenseCube),
    /// On-demand evaluation from prefix sums.
    Lazy(LazyCube),
}

impl CubeBackend {
    /// Build from a model under the given mode ([`MemoryMode::Auto`]
    /// sizes the dense matrices first and falls back to lazy above
    /// [`AUTO_DENSE_LIMIT_BYTES`]).
    pub fn build(model: &MicroModel, mode: MemoryMode) -> Self {
        Self::from_core(CubeCore::build(model), mode)
    }

    /// Build from an existing core (the warm path: a core deserialized
    /// from an `.ocube` artifact skips the model entirely). The same
    /// [`choose_auto_backend`] heuristic applies for [`MemoryMode::Auto`].
    pub fn from_core(core: CubeCore, mode: MemoryMode) -> Self {
        let resolved = mode.resolve(core.hierarchy().len(), core.n_slices());
        match resolved {
            MemoryMode::Dense => CubeBackend::Dense(DenseCube::from_core(core)),
            MemoryMode::Lazy => CubeBackend::Lazy(LazyCube::from_core(core)),
            MemoryMode::Auto => unreachable!("resolve() returns a fixed mode"),
        }
    }

    /// Which backend was chosen.
    pub fn mode(&self) -> MemoryMode {
        match self {
            CubeBackend::Dense(_) => MemoryMode::Dense,
            CubeBackend::Lazy(_) => MemoryMode::Lazy,
        }
    }

    /// The shared prefix-sum substrate (the dense backend's core has its
    /// info sums discarded; see [`CubeCore::has_info_sums`]).
    pub fn core(&self) -> &CubeCore {
        match self {
            CubeBackend::Dense(c) => c.core(),
            CubeBackend::Lazy(c) => c.core(),
        }
    }
}

impl QualityCube for CubeBackend {
    fn hierarchy(&self) -> &Hierarchy {
        match self {
            CubeBackend::Dense(c) => c.hierarchy(),
            CubeBackend::Lazy(c) => c.hierarchy(),
        }
    }
    fn states(&self) -> &StateRegistry {
        match self {
            CubeBackend::Dense(c) => c.states(),
            CubeBackend::Lazy(c) => c.states(),
        }
    }
    fn n_slices(&self) -> usize {
        match self {
            CubeBackend::Dense(c) => c.n_slices(),
            CubeBackend::Lazy(c) => c.n_slices(),
        }
    }
    fn slice_duration(&self) -> f64 {
        match self {
            CubeBackend::Dense(c) => c.slice_duration(),
            CubeBackend::Lazy(c) => c.slice_duration(),
        }
    }
    #[inline]
    fn gain(&self, node: NodeId, i: usize, j: usize) -> f64 {
        match self {
            CubeBackend::Dense(c) => c.gain(node, i, j),
            CubeBackend::Lazy(c) => c.gain(node, i, j),
        }
    }
    #[inline]
    fn loss(&self, node: NodeId, i: usize, j: usize) -> f64 {
        match self {
            CubeBackend::Dense(c) => c.loss(node, i, j),
            CubeBackend::Lazy(c) => c.loss(node, i, j),
        }
    }
    #[inline]
    fn gain_loss(&self, node: NodeId, i: usize, j: usize) -> (f64, f64) {
        match self {
            CubeBackend::Dense(c) => (c.gain(node, i, j), c.loss(node, i, j)),
            CubeBackend::Lazy(c) => c.gain_loss(node, i, j),
        }
    }
    fn rho_aggregate(&self, node: NodeId, x: StateId, i: usize, j: usize) -> f64 {
        match self {
            CubeBackend::Dense(c) => c.rho_aggregate(node, x, i, j),
            CubeBackend::Lazy(c) => c.rho_aggregate(node, x, i, j),
        }
    }
    fn memory_bytes(&self) -> usize {
        match self {
            CubeBackend::Dense(c) => c.memory_bytes(),
            CubeBackend::Lazy(c) => c.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelotl_trace::synthetic::{fig3_model, random_model};

    #[test]
    fn dense_and_lazy_are_bit_identical_on_fig3() {
        let m = fig3_model();
        let dense = DenseCube::build(&m);
        let lazy = LazyCube::build(&m);
        for node in m.hierarchy().node_ids() {
            for i in 0..m.n_slices() {
                for j in i..m.n_slices() {
                    // Exact equality on purpose: both backends must run the
                    // same arithmetic in the same order.
                    assert_eq!(dense.gain(node, i, j), lazy.gain(node, i, j));
                    assert_eq!(dense.loss(node, i, j), lazy.loss(node, i, j));
                    assert_eq!(
                        lazy.gain_loss(node, i, j),
                        (lazy.gain(node, i, j), lazy.loss(node, i, j))
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_memory_is_linear_in_slices() {
        let m64 = random_model(&[4, 4], 64, 3, 7);
        let m128 = random_model(&[4, 4], 128, 3, 7);
        let l64 = LazyCube::build(&m64).memory_bytes();
        let l128 = LazyCube::build(&m128).memory_bytes();
        // Doubling |T| roughly doubles lazy memory…
        assert!(l128 < l64 * 3, "lazy grew superlinearly: {l64} -> {l128}");
        // …while the dense matrices grow ~4×.
        let d64 = DenseCube::build(&m64).memory_bytes();
        let d128 = DenseCube::build(&m128).memory_bytes();
        assert!(
            d128 > d64 * 3,
            "dense should grow quadratically: {d64} -> {d128}"
        );
        assert!(l128 < d128, "lazy must be smaller than dense");
    }

    #[test]
    fn auto_mode_picks_by_size() {
        // 21 nodes × 20 slices is tiny → dense.
        let small = fig3_model();
        assert_eq!(
            CubeBackend::build(&small, MemoryMode::Auto).mode(),
            MemoryMode::Dense
        );
        // Estimate for a big problem crosses the limit → lazy.
        let big_nodes = 2000;
        let big_slices = 4096;
        assert!(dense_matrix_bytes(big_nodes, big_slices) > AUTO_DENSE_LIMIT_BYTES);
        assert_eq!(
            MemoryMode::Auto.resolve(big_nodes, big_slices),
            MemoryMode::Lazy
        );
        assert_eq!(
            MemoryMode::Dense.resolve(big_nodes, big_slices),
            MemoryMode::Dense
        );
    }

    #[test]
    fn memory_mode_parses() {
        assert_eq!("auto".parse::<MemoryMode>().unwrap(), MemoryMode::Auto);
        assert_eq!("dense".parse::<MemoryMode>().unwrap(), MemoryMode::Dense);
        assert_eq!("lazy".parse::<MemoryMode>().unwrap(), MemoryMode::Lazy);
        assert!("x".parse::<MemoryMode>().is_err());
    }

    #[test]
    fn backend_enum_dispatches() {
        let m = fig3_model();
        let dense = CubeBackend::build(&m, MemoryMode::Dense);
        let lazy = CubeBackend::build(&m, MemoryMode::Lazy);
        let root = m.hierarchy().root();
        assert_eq!(dense.gain(root, 0, 19), lazy.gain(root, 0, 19));
        assert_eq!(dense.loss(root, 3, 11), lazy.loss(root, 3, 11));
        assert!(matches!(dense, CubeBackend::Dense(_)));
        assert!(matches!(lazy, CubeBackend::Lazy(_)));
        assert!(lazy.memory_bytes() < dense.memory_bytes());
    }
}
