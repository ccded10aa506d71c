//! CART decision trees (classification and regression).
//!
//! One implementation serves three consumers: the standalone
//! [`DecisionTree`] classifier, the bagged trees inside
//! [`crate::RandomForest`] and the regression trees inside
//! [`crate::GradientBoosting`]. Each consumer picks a
//! [`SplitStrategy`]: the exact sorted scan (the reference oracle) or
//! LightGBM-style histogram split finding over a shared
//! [`BinnedDataset`].

use aqua_artifact::{ArtifactError, Codec, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binned::BinnedDataset;
use crate::classifier::util::{balanced_indices, check_fit, check_predict, check_width};
use crate::classifier::Classifier;
use crate::error::MlError;
use crate::matrix::Matrix;

/// How candidate split thresholds are enumerated during tree growth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact sorted scan: every boundary between distinct feature values is
    /// a candidate (`O(n log n)` per feature per node). The reference
    /// oracle the histogram path is property-tested against.
    #[default]
    Exact,
    /// Histogram split finding over quantized u8 codes: accumulate target
    /// statistics per bin, scan bin boundaries (`O(n + B)` per feature per
    /// node). Bin edges come from a [`BinnedDataset`] built once per
    /// corpus and shared across trees and outputs.
    Histogram {
        /// Per-feature bin budget, clamped to `2..=256`.
        max_bins: u16,
    },
}

impl SplitStrategy {
    /// The default histogram strategy (256 bins — the u8 ceiling).
    pub fn histogram() -> Self {
        SplitStrategy::Histogram { max_bins: 256 }
    }

    /// The bin budget, when this is a histogram strategy.
    pub fn bins(&self) -> Option<u16> {
        match self {
            SplitStrategy::Exact => None,
            SplitStrategy::Histogram { max_bins } => Some(*max_bins),
        }
    }
}

impl Codec for SplitStrategy {
    fn encode(&self, w: &mut Writer) {
        match self {
            SplitStrategy::Exact => w.u8(0),
            SplitStrategy::Histogram { max_bins } => {
                w.u8(1);
                w.u32(*max_bins as u32);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(match r.u8()? {
            0 => SplitStrategy::Exact,
            1 => {
                let bins = r.u32()?;
                if !(2..=256).contains(&bins) {
                    return Err(ArtifactError::Malformed {
                        reason: format!("histogram bin budget {bins} outside 2..=256"),
                    });
                }
                SplitStrategy::Histogram {
                    max_bins: bins as u16,
                }
            }
            tag => {
                return Err(ArtifactError::Malformed {
                    reason: format!("unknown split-strategy tag {tag}"),
                })
            }
        })
    }
}

/// Hyperparameters for tree growth.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node further.
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` = all features
    /// (random forests pass `Some(√d)`).
    pub max_features: Option<usize>,
    /// Oversample the minority class before growing (classification only).
    pub balance_classes: bool,
    /// Split-threshold enumeration: exact scan (default, the oracle) or
    /// histogram bins.
    pub split: SplitStrategy,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            max_features: None,
            balance_classes: true,
            split: SplitStrategy::Exact,
        }
    }
}

/// The split criterion / leaf statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Criterion {
    /// Gini impurity; leaves store the positive-class fraction.
    Gini,
    /// Variance reduction; leaves store the target mean.
    Mse,
}

/// Trees walked side by side in one lockstep pass of
/// [`TreeArena::leaf_values`]; larger ensembles walk in chunks.
const LOCKSTEP: usize = 32;

/// The one tree layout shared by all tree consumers — a forest's bagged
/// trees, a boosted model's stages, a standalone CART tree: every tree of
/// the ensemble in one flat structure-of-arrays node arena.
///
/// The node arrays are split by type: the `f64` thresholds in one, the
/// `u32` split feature and child ids in the other. A node costs 20 bytes
/// with no padding, and a step reads one entry of each.
///
/// Each tree's nodes are contiguous and in preorder (every child comes
/// after its parent, the root first). A leaf's children are the leaf
/// itself, so a walk that reaches a leaf stays there; its value lives in
/// the `threshold` slot and its feature is 0. That lets a walk take a
/// fixed number of branchless steps (the tree's depth) instead of testing
/// for a leaf at every node. Node ids are arena-global in memory and
/// tree-local on the wire.
#[derive(Debug, Clone)]
pub(crate) struct TreeArena {
    /// Split threshold per node; the leaf value for leaves.
    threshold: Vec<f64>,
    /// `[feature, left, right]` per node; `[0, self, self]` for leaves.
    links: Vec<[u32; 3]>,
    /// Root node of each tree; tree `t` owns the nodes from `roots[t]` up
    /// to the next tree's root.
    roots: Vec<u32>,
    /// Longest root-to-leaf path of each tree, in edges.
    depths: Vec<u32>,
    /// Row width every tree was grown on.
    n_features: usize,
}

/// Shared scratch for one tree's histogram growth: per-bin target
/// statistics, reused across nodes and features to avoid per-node
/// allocation.
struct HistScratch {
    /// Per bin: (count, sum, sum of squares).
    bins: Vec<(u32, f64, f64)>,
}

/// Samples `k` distinct features via partial Fisher–Yates; both split
/// strategies share this so they consume the RNG identically and examine
/// features in the same order.
fn sample_features(d: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut features: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.random_range(i..d);
        features.swap(i, j);
    }
    features.truncate(k);
    features
}

/// Weighted child impurity for a left/right candidate, from prefix sums.
/// Shared by the exact boundary sweep and the histogram bin scan so both
/// strategies score identical partitions identically.
#[allow(clippy::too_many_arguments)]
#[inline]
fn child_score(
    criterion: Criterion,
    n: f64,
    nl: f64,
    sum_left: f64,
    sumsq_left: f64,
    total_sum: f64,
    total_sumsq: f64,
) -> f64 {
    let nr = n - nl;
    match criterion {
        Criterion::Gini => {
            let pl = sum_left / nl;
            let pr = (total_sum - sum_left) / nr;
            (nl / n) * 2.0 * pl * (1.0 - pl) + (nr / n) * 2.0 * pr * (1.0 - pr)
        }
        Criterion::Mse => {
            let ml = sum_left / nl;
            let vl = (sumsq_left / nl - ml * ml).max(0.0);
            let sr = total_sum - sum_left;
            let mr = sr / nr;
            let vr = ((total_sumsq - sumsq_left) / nr - mr * mr).max(0.0);
            (nl / n) * vl + (nr / n) * vr
        }
    }
}

impl TreeArena {
    /// An arena with no trees, for rows of `n_features` features.
    pub(crate) fn new(n_features: usize) -> TreeArena {
        TreeArena {
            threshold: Vec::new(),
            links: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            n_features,
        }
    }

    /// Number of trees.
    pub(crate) fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the arena holds no tree.
    pub(crate) fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The row width the trees were grown on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Grows a tree on `(x[indices], targets[indices])` with the exact
    /// sorted-scan split finder and appends it.
    pub(crate) fn grow(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) {
        let root = self.threshold.len();
        self.grow_node(x, targets, indices.to_vec(), criterion, config, rng, 0);
        self.seal_tree(root);
    }

    /// Grows a tree on `(binned[indices], targets[indices])` with histogram
    /// split finding and appends it. The tree stores real `f64`
    /// thresholds, so prediction runs on raw feature rows — binning is a
    /// training-time concern only.
    pub(crate) fn grow_binned(
        &mut self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) {
        let mut scratch = HistScratch {
            bins: vec![(0, 0.0, 0.0); binned.widest()],
        };
        let root = self.threshold.len();
        self.grow_node_binned(
            binned,
            targets,
            indices.to_vec(),
            criterion,
            config,
            rng,
            0,
            &mut scratch,
        );
        self.seal_tree(root);
    }

    /// Drops every tree after the first `trees`.
    pub(crate) fn truncate(&mut self, trees: usize) {
        if let Some(&end) = self.roots.get(trees) {
            let end = end as usize;
            self.threshold.truncate(end);
            self.links.truncate(end);
            self.roots.truncate(trees);
            self.depths.truncate(trees);
        }
    }

    /// Releases growth slack once the ensemble is complete.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.threshold.shrink_to_fit();
        self.links.shrink_to_fit();
        self.roots.shrink_to_fit();
        self.depths.shrink_to_fit();
    }

    /// Appends a leaf holding `value` and returns its id.
    fn push_leaf(&mut self, value: f64) -> usize {
        let id = self.threshold.len();
        self.threshold.push(value);
        self.links.push([0, id as u32, id as u32]);
        id
    }

    /// Turns node `id` into a split; both children must come after `id`.
    fn set_split(&mut self, id: usize, feature: usize, threshold: f64, left: usize, right: usize) {
        self.threshold[id] = threshold;
        self.links[id] = [feature as u32, left as u32, right as u32];
    }

    /// Whether node `id` is a leaf (its children loop back to it).
    fn is_leaf(&self, id: usize) -> bool {
        self.links[id][1] as usize == id
    }

    /// The node ids of tree `t`.
    fn nodes(&self, t: usize) -> std::ops::Range<usize> {
        let end = self
            .roots
            .get(t + 1)
            .map_or(self.threshold.len(), |&r| r as usize);
        self.roots[t] as usize..end
    }

    /// Registers the nodes from `root` to the end of the arena as one
    /// tree and records its depth, in one forward pass that sees every
    /// parent before its children because the tree is in preorder.
    fn seal_tree(&mut self, root: usize) {
        let end = self.threshold.len();
        let mut depth = vec![0u32; end - root];
        for id in root..end {
            if !self.is_leaf(id) {
                for child in [self.links[id][1], self.links[id][2]] {
                    let child = child as usize - root;
                    depth[child] = depth[child].max(depth[id - root] + 1);
                }
            }
        }
        self.roots.push(root as u32);
        self.depths.push(depth.into_iter().max().unwrap_or(0));
    }

    /// Leaf/recursion bookkeeping shared by both growth paths. Returns
    /// `Err(node_id)` when the node terminates as a leaf, `Ok(mean)` when a
    /// split should be attempted.
    fn stop_or_mean(
        &mut self,
        targets: &[f64],
        indices: &[usize],
        config: &DecisionTreeConfig,
        depth: usize,
    ) -> Result<f64, usize> {
        if indices.is_empty() {
            // Degenerate call (empty training selection): an explicit
            // 0-valued leaf beats a NaN mean or an index panic.
            return Err(self.push_leaf(0.0));
        }
        let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64;
        let pure = indices
            .iter()
            .all(|&i| (targets[i] - targets[indices[0]]).abs() < 1e-12);
        if depth >= config.max_depth || indices.len() < config.min_samples_split || pure {
            return Err(self.push_leaf(mean));
        }
        Ok(mean)
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        &mut self,
        x: &Matrix,
        targets: &[f64],
        indices: Vec<usize>,
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
    ) -> usize {
        let mean = match self.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };

        let best = self.best_split(x, targets, &indices, criterion, config, rng);
        let Some((feature, threshold)) = best else {
            return self.push_leaf(mean);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.push_leaf(mean);
        }

        // Reserve the split slot, then grow children.
        let id = self.push_leaf(mean); // placeholder
        let left = self.grow_node(x, targets, left_idx, criterion, config, rng, depth + 1);
        let right = self.grow_node(x, targets, right_idx, criterion, config, rng, depth + 1);
        self.set_split(id, feature, threshold, left, right);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node_binned(
        &mut self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: Vec<usize>,
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        depth: usize,
        scratch: &mut HistScratch,
    ) -> usize {
        let mean = match self.stop_or_mean(targets, &indices, config, depth) {
            Ok(mean) => mean,
            Err(id) => return id,
        };

        let best =
            self.best_split_binned(binned, targets, &indices, criterion, config, rng, scratch);
        let Some((feature, bin)) = best else {
            return self.push_leaf(mean);
        };

        let codes = binned.feature_codes(feature);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| codes[i] as usize <= bin);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.push_leaf(mean);
        }

        let threshold = binned.threshold(feature, bin);
        let id = self.push_leaf(mean); // placeholder
        let left = self.grow_node_binned(
            binned,
            targets,
            left_idx,
            criterion,
            config,
            rng,
            depth + 1,
            scratch,
        );
        let right = self.grow_node_binned(
            binned,
            targets,
            right_idx,
            criterion,
            config,
            rng,
            depth + 1,
            scratch,
        );
        self.set_split(id, feature, threshold, left, right);
        id
    }

    fn best_split(
        &self,
        x: &Matrix,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let d = x.cols();
        if d == 0 {
            return None; // a featureless matrix has nothing to split on
        }
        let k = config.max_features.unwrap_or(d).clamp(1, d);
        let features = sample_features(d, k, rng);

        let parent_score = impurity(targets, indices, criterion);
        let n = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
        for &f in &features {
            // Exact split search: sort once, sweep every boundary between
            // distinct values with prefix sums — O(n log n) per feature.
            let mut order: Vec<(f64, f64)> =
                indices.iter().map(|&i| (x.get(i, f), targets[i])).collect();
            // total_cmp: identical ordering on finite data, no panic on NaN
            // (NaN sorts last and never forms a usable boundary).
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let total_sum: f64 = order.iter().map(|(_, t)| t).sum();
            let total_sumsq: f64 = order.iter().map(|(_, t)| t * t).sum();
            let mut sum_left = 0.0f64;
            let mut sumsq_left = 0.0f64;
            for i in 0..order.len() - 1 {
                sum_left += order[i].1;
                sumsq_left += order[i].1 * order[i].1;
                if order[i].0 == order[i + 1].0 {
                    continue;
                }
                let nl = (i + 1) as f64;
                let child = child_score(
                    criterion,
                    n,
                    nl,
                    sum_left,
                    sumsq_left,
                    total_sum,
                    total_sumsq,
                );
                // Zero-gain splits are allowed (as in sklearn): on targets
                // like XOR the informative split has zero immediate gain
                // and only pays off one level deeper. Recursion still
                // terminates because both children are strictly smaller.
                let gain = (parent_score - child).max(0.0);
                if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((f, (order[i].0 + order[i + 1].0) / 2.0, gain));
                }
            }
        }
        best.map(|(f, th, _)| (f, th))
    }

    /// Histogram analogue of [`best_split`](Self::best_split): accumulate
    /// per-bin statistics in one pass over the node's samples, then scan
    /// bin boundaries. Returns the winning `(feature, bin)`; the split
    /// threshold is `binned.threshold(feature, bin)`.
    #[allow(clippy::too_many_arguments)]
    fn best_split_binned(
        &self,
        binned: &BinnedDataset,
        targets: &[f64],
        indices: &[usize],
        criterion: Criterion,
        config: &DecisionTreeConfig,
        rng: &mut StdRng,
        scratch: &mut HistScratch,
    ) -> Option<(usize, usize)> {
        let d = binned.features();
        if d == 0 {
            return None;
        }
        let k = config.max_features.unwrap_or(d).clamp(1, d);
        let features = sample_features(d, k, rng);

        let parent_score = impurity(targets, indices, criterion);
        let n = indices.len() as f64;
        let mut best: Option<(usize, usize, f64)> = None; // feature, bin, gain
        for &f in &features {
            let nbins = binned.bins(f);
            if nbins < 2 {
                continue; // constant feature: no boundary to place
            }
            let hist = &mut scratch.bins[..nbins];
            hist.fill((0, 0.0, 0.0));
            let codes = binned.feature_codes(f);
            let mut total_sum = 0.0f64;
            let mut total_sumsq = 0.0f64;
            for &i in indices {
                let t = targets[i];
                let cell = &mut hist[codes[i] as usize];
                cell.0 += 1;
                cell.1 += t;
                cell.2 += t * t;
                total_sum += t;
                total_sumsq += t * t;
            }
            let mut cnt_left = 0u32;
            let mut sum_left = 0.0f64;
            let mut sumsq_left = 0.0f64;
            for (b, &(c, s, ss)) in hist[..nbins - 1].iter().enumerate() {
                cnt_left += c;
                sum_left += s;
                sumsq_left += ss;
                // A boundary is a candidate only directly after a bin this
                // node actually populates — the histogram counterpart of
                // the exact scan's "between distinct present values" rule,
                // so equal partitions earn equal gains on both paths.
                if c == 0 || cnt_left as f64 >= n {
                    continue;
                }
                let child = child_score(
                    criterion,
                    n,
                    cnt_left as f64,
                    sum_left,
                    sumsq_left,
                    total_sum,
                    total_sumsq,
                );
                let gain = (parent_score - child).max(0.0);
                if best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((f, b, gain));
                }
            }
        }
        best.map(|(f, b, _)| (f, b))
    }

    /// Tree `t`'s leaf value for one sample: the scalar single-tree walk,
    /// and the oracle [`leaf_values`](Self::leaf_values) is tested
    /// against. A NaN feature compares false and goes right.
    pub(crate) fn predict_one(&self, t: usize, row: &[f64]) -> f64 {
        let mut node = self.roots[t] as usize;
        while !self.is_leaf(node) {
            let [feature, left, right] = self.links[node];
            node = if row[feature as usize] <= self.threshold[node] {
                left as usize
            } else {
                right as usize
            };
        }
        self.threshold[node]
    }

    /// The leaf value every tree reaches for `row`, in tree order.
    ///
    /// Each chunk of [`LOCKSTEP`] trees is walked side by side for as many
    /// branchless steps as its deepest tree needs, so the trees' node
    /// loads overlap instead of queueing behind one another; shallower
    /// trees sit on their leaf for the remaining steps. Every step is the
    /// comparison [`predict_one`](Self::predict_one) makes, so summing the
    /// values in the order yielded reproduces a tree-by-tree sum bit for
    /// bit. `row` must be [`n_features`](Self::n_features) wide.
    pub(crate) fn leaf_values<'a>(&'a self, row: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        // Equal-length views: one bounds check per step covers both.
        let n = self.threshold.len();
        let (threshold, links) = (&self.threshold[..n], &self.links[..n]);
        let chunks = self
            .roots
            .chunks(LOCKSTEP)
            .zip(self.depths.chunks(LOCKSTEP));
        chunks.flat_map(move |(roots, depths)| {
            let mut cursor = [0u32; LOCKSTEP];
            cursor[..roots.len()].copy_from_slice(roots);
            for _ in 0..depths.iter().copied().max().unwrap_or(0) {
                for node in &mut cursor[..roots.len()] {
                    let id = *node as usize;
                    let [feature, left, right] = links[id];
                    *node = if row[feature as usize] <= threshold[id] {
                        left
                    } else {
                        right
                    };
                }
            }
            let leaves = cursor.into_iter().take(roots.len());
            leaves.map(move |node| threshold[node as usize])
        })
    }

    /// Total node count (for tests).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.threshold.len()
    }

    /// Rejects a decoded ensemble whose width disagrees with its owner's:
    /// a walk indexes the row with every split feature.
    pub(crate) fn check_width(&self, n_features: Option<usize>) -> Result<(), ArtifactError> {
        if self.is_empty() || Some(self.n_features) == n_features {
            return Ok(());
        }
        Err(malformed_tree(format!(
            "tree width {} disagrees with the ensemble width {n_features:?}",
            self.n_features
        )))
    }

    /// Writes tree `t`: its preorder node list (tag 0: leaf value; tag 1:
    /// feature, threshold, left, right, with tree-local ids) followed by
    /// the feature count.
    fn encode_tree(&self, t: usize, w: &mut Writer) {
        let nodes = self.nodes(t);
        let root = nodes.start;
        w.len_prefix(nodes.len());
        for id in nodes {
            if self.is_leaf(id) {
                w.u8(0);
                w.f64(self.threshold[id]);
            } else {
                let [feature, left, right] = self.links[id];
                w.u8(1);
                w.len_prefix(feature as usize);
                w.f64(self.threshold[id]);
                w.len_prefix(left as usize - root);
                w.len_prefix(right as usize - root);
            }
        }
        w.len_prefix(self.n_features);
    }

    /// Reads one tree in [`encode_tree`](Self::encode_tree)'s layout and
    /// appends it.
    ///
    /// Children must come strictly after their parent (preorder) and
    /// inside the tree, split features inside the row, and the tree as
    /// wide as the ones before it: every walk then reaches a leaf in
    /// fewer steps than the tree has nodes, never indexes past the row,
    /// and the depth is well defined. Anything else is
    /// [`ArtifactError::Malformed`].
    fn decode_tree(&mut self, r: &mut Reader<'_>) -> Result<(), ArtifactError> {
        // A leaf takes 9 bytes, the smallest node encoding.
        let n = r.len_prefix(9)?;
        let root = self.threshold.len();
        if n == 0 || root + n > u32::MAX as usize {
            return Err(malformed_tree(format!("tree with {n} nodes")));
        }
        let mut widest: Option<usize> = None;
        for local in 0..n {
            match r.u8()? {
                0 => {
                    self.push_leaf(r.f64()?);
                }
                1 => {
                    let feature = usize::decode(r)?;
                    let threshold = r.f64()?;
                    let left = usize::decode(r)?;
                    let right = usize::decode(r)?;
                    if !(local < left && left < n && local < right && right < n) {
                        return Err(malformed_tree(format!(
                            "tree node {local} has children {left}, {right} outside ({local}, {n})"
                        )));
                    }
                    if feature > u32::MAX as usize {
                        return Err(malformed_tree(format!("tree split feature {feature}")));
                    }
                    let id = self.push_leaf(0.0);
                    self.set_split(id, feature, threshold, root + left, root + right);
                    widest = widest.max(Some(feature));
                }
                tag => return Err(malformed_tree(format!("unknown tree-node tag {tag}"))),
            }
        }
        let n_features = usize::decode(r)?;
        if let Some(feature) = widest.filter(|&f| f >= n_features) {
            return Err(malformed_tree(format!(
                "tree split feature {feature} outside {n_features} features"
            )));
        }
        if !self.is_empty() && n_features != self.n_features {
            return Err(malformed_tree(format!(
                "tree width {n_features} differs from the ensemble's {}",
                self.n_features
            )));
        }
        self.n_features = n_features;
        self.seal_tree(root);
        Ok(())
    }
}

fn malformed_tree(reason: String) -> ArtifactError {
    ArtifactError::Malformed { reason }
}

/// The same bytes as a `Vec` of single-tree encodings: the tree count,
/// then each tree.
impl Codec for TreeArena {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.len());
        for t in 0..self.len() {
            self.encode_tree(t, w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let trees = r.len_prefix(1)?;
        let mut arena = TreeArena::new(0);
        for _ in 0..trees {
            arena.decode_tree(r)?;
        }
        arena.shrink_to_fit();
        Ok(arena)
    }
}

impl Codec for DecisionTreeConfig {
    fn encode(&self, w: &mut Writer) {
        w.len_prefix(self.max_depth);
        w.len_prefix(self.min_samples_split);
        self.max_features.encode(w);
        w.bool(self.balance_classes);
        self.split.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        Ok(DecisionTreeConfig {
            max_depth: usize::decode(r)?,
            min_samples_split: usize::decode(r)?,
            max_features: Codec::decode(r)?,
            balance_classes: r.bool()?,
            split: Codec::decode(r)?,
        })
    }
}

impl Codec for DecisionTree {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.u64(self.seed);
        // On the wire the tree is optional: absent (0) or one tree (1).
        if self.tree.is_empty() {
            w.u8(0);
        } else {
            w.u8(1);
            self.tree.encode_tree(0, w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let config = Codec::decode(r)?;
        let seed = r.u64()?;
        let mut tree = TreeArena::new(0);
        match r.u8()? {
            0 => {}
            1 => tree.decode_tree(r)?,
            tag => return Err(malformed_tree(format!("invalid option tag {tag}"))),
        }
        Ok(DecisionTree { config, seed, tree })
    }
}

fn impurity(targets: &[f64], indices: &[usize], criterion: Criterion) -> f64 {
    let n = indices.len() as f64;
    match criterion {
        Criterion::Gini => {
            let p = indices.iter().map(|&i| targets[i]).sum::<f64>() / n;
            2.0 * p * (1.0 - p)
        }
        Criterion::Mse => {
            let mean = indices.iter().map(|&i| targets[i]).sum::<f64>() / n;
            indices
                .iter()
                .map(|&i| (targets[i] - mean) * (targets[i] - mean))
                .sum::<f64>()
                / n
        }
    }
}

/// A single CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    seed: u64,
    /// One tree once fitted, empty before.
    tree: TreeArena,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn with_config(config: DecisionTreeConfig, seed: u64) -> Self {
        DecisionTree {
            config,
            seed,
            tree: TreeArena::new(0),
        }
    }

    /// Shared fit body: grows on the exact path, or on the histogram path
    /// when a pre-built [`BinnedDataset`] is supplied.
    fn fit_with_bins(
        &mut self,
        x: &Matrix,
        y: &[u8],
        binned: Option<&BinnedDataset>,
    ) -> Result<(), MlError> {
        check_fit(x, y)?;
        let targets: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let indices = if self.config.balance_classes {
            balanced_indices(y, &mut rng)
        } else {
            (0..y.len()).collect()
        };
        let mut tree = TreeArena::new(x.cols());
        match binned {
            Some(b) => tree.grow_binned(
                b,
                &targets,
                &indices,
                Criterion::Gini,
                &self.config,
                &mut rng,
            ),
            None => tree.grow(
                x,
                &targets,
                &indices,
                Criterion::Gini,
                &self.config,
                &mut rng,
            ),
        }
        tree.shrink_to_fit();
        self.tree = tree;
        Ok(())
    }
}

impl DecisionTree {
    /// The training width once fitted.
    fn fitted_width(&self) -> Option<usize> {
        (!self.tree.is_empty()).then(|| self.tree.n_features())
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree::with_config(DecisionTreeConfig::default(), 0)
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), MlError> {
        match self.config.split.bins() {
            None => self.fit_with_bins(x, y, None),
            Some(bins) => {
                let binned = BinnedDataset::build(x, bins);
                self.fit_with_bins(x, y, Some(&binned))
            }
        }
    }

    fn fit_binned(&mut self, x: &Matrix, y: &[u8], binned: &BinnedDataset) -> Result<(), MlError> {
        match self.config.split {
            SplitStrategy::Exact => self.fit_with_bins(x, y, None),
            SplitStrategy::Histogram { .. } => self.fit_with_bins(x, y, Some(binned)),
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        check_predict(x, self.fitted_width())?;
        Ok(x.iter_rows()
            .map(|row| self.tree.predict_one(0, row))
            .collect())
    }

    fn predict_proba_row(&self, row: &[f64], _margin: Option<f64>) -> Result<f64, MlError> {
        check_width(row.len(), self.fitted_width())?;
        Ok(self.tree.predict_one(0, row))
    }

    fn encode_state(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR pattern: not linearly separable, solvable by a depth-2 tree
        // only when zero-gain splits are allowed (the first split has no
        // immediate impurity gain).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            rows.push(vec![a, b]);
            labels.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_vec_rows(rows), labels)
    }

    #[test]
    fn tree_learns_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert_eq!(correct, y.len(), "depth-2 tree solves XOR exactly");
    }

    #[test]
    fn depth_one_tree_cannot_learn_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                max_depth: 1,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct < y.len(), "a stump must fail on XOR");
    }

    #[test]
    fn pure_leaf_stops_growth() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0, 0, 0, 0];
        let mut clf = DecisionTree::default();
        clf.fit(&x, &y).unwrap();
        assert_eq!(clf.tree.node_count(), 1);
        assert!(clf.predict_proba(&x).unwrap().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn probabilities_reflect_leaf_composition() {
        // Depth-1 stump on alternating labels: best split isolates the
        // first sample; the right leaf stays mixed at 2/3 positive.
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0, 1, 0, 1];
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                max_depth: 1,
                min_samples_split: 2,
                balance_classes: false,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let p = clf
            .predict_proba(&Matrix::from_rows(&[&[-1.0], &[2.9]]))
            .unwrap();
        assert!((p[0] - 0.0).abs() < 1e-9, "pure left leaf: {}", p[0]);
        assert!(
            (p[1] - 2.0 / 3.0).abs() < 1e-9,
            "mixed right leaf: {}",
            p[1]
        );
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let targets = [1.0, 1.2, 0.8, 5.0, 5.2, 4.8];
        let mut rng = StdRng::seed_from_u64(0);
        let idx: Vec<usize> = (0..6).collect();
        let mut tree = TreeArena::new(1);
        tree.grow(
            &x,
            &targets,
            &idx,
            Criterion::Mse,
            &DecisionTreeConfig {
                max_depth: 1,
                min_samples_split: 2,
                ..Default::default()
            },
            &mut rng,
        );
        assert!((tree.predict_one(0, &[1.0]) - 1.0).abs() < 0.2);
        assert!((tree.predict_one(0, &[11.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let mut a = DecisionTree::with_config(DecisionTreeConfig::default(), 9);
        let mut b = DecisionTree::with_config(DecisionTreeConfig::default(), 9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn unfitted_errors() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(
            DecisionTree::default().predict_proba(&x),
            Err(MlError::NotFitted)
        );
    }

    #[test]
    fn histogram_tree_learns_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                split: SplitStrategy::histogram(),
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert_eq!(correct, y.len(), "binned depth-2 tree solves XOR exactly");
    }

    #[test]
    fn histogram_matches_exact_on_separable_data() {
        // Distinct values ≤ bin budget: candidate thresholds are the same
        // midpoints, so both strategies grow identical predictors.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i % 10) as f64;
            let b = ((i * 7) % 13) as f64;
            rows.push(vec![a, b]);
            labels.push(u8::from(a + 0.5 * b > 6.0));
        }
        let x = Matrix::from_vec_rows(rows);
        let mut exact = DecisionTree::with_config(DecisionTreeConfig::default(), 5);
        let mut binned = DecisionTree::with_config(
            DecisionTreeConfig {
                split: SplitStrategy::histogram(),
                ..Default::default()
            },
            5,
        );
        exact.fit(&x, &labels).unwrap();
        binned.fit(&x, &labels).unwrap();
        assert_eq!(
            exact.predict_proba(&x).unwrap(),
            binned.predict_proba(&x).unwrap()
        );
    }

    // --- degenerate-input regressions -----------------------------------

    #[test]
    fn constant_features_yield_single_leaf() {
        // Every feature constant: no split exists on either path.
        let row: &[f64] = &[2.0, 7.0];
        let x = Matrix::from_rows(&[row; 8]);
        let y = [0, 1, 0, 1, 0, 1, 0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    split,
                    balance_classes: false,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.node_count(), 1);
            let p = clf.predict_proba(&x).unwrap();
            assert!(p.iter().all(|&v| (v - 0.5).abs() < 1e-12));
        }
    }

    #[test]
    fn single_class_input_is_a_pure_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &[1, 1, 1]).unwrap();
            assert_eq!(clf.tree.node_count(), 1);
            assert!(clf.predict_proba(&x).unwrap().iter().all(|&p| p == 1.0));
        }
    }

    #[test]
    fn fewer_samples_than_min_split_is_a_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = [0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    min_samples_split: 10,
                    balance_classes: false,
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.node_count(), 1);
        }
    }

    #[test]
    fn zero_feature_matrix_grows_leaf_without_panicking() {
        // d == 0 used to panic in best_split via clamp(1, 0).
        let mut x = Matrix::with_cols(0);
        for _ in 0..6 {
            x.push_row(&[]);
        }
        let y = [0, 1, 0, 1, 0, 1];
        for split in [SplitStrategy::Exact, SplitStrategy::histogram()] {
            let mut clf = DecisionTree::with_config(
                DecisionTreeConfig {
                    min_samples_split: 2,
                    balance_classes: false,
                    split,
                    ..Default::default()
                },
                0,
            );
            clf.fit(&x, &y).unwrap();
            assert_eq!(clf.tree.node_count(), 1);
        }
    }

    #[test]
    fn empty_indices_grow_a_zero_leaf() {
        // Direct regression for the empty-selection panic in grow_node.
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let targets = [0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut tree = TreeArena::new(1);
        tree.grow(
            &x,
            &targets,
            &[],
            Criterion::Mse,
            &DecisionTreeConfig::default(),
            &mut rng,
        );
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_one(0, &[0.5]), 0.0);
    }

    #[test]
    fn nan_feature_values_do_not_panic() {
        // total_cmp sorts NaN last instead of panicking mid-sort.
        let x = Matrix::from_rows(&[&[0.0], &[f64::NAN], &[2.0], &[3.0]]);
        let y = [0, 0, 1, 1];
        let mut clf = DecisionTree::with_config(
            DecisionTreeConfig {
                min_samples_split: 2,
                balance_classes: false,
                ..Default::default()
            },
            0,
        );
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict(&x).is_ok());
    }

    #[test]
    fn split_strategy_codec_roundtrip() {
        for s in [
            SplitStrategy::Exact,
            SplitStrategy::histogram(),
            SplitStrategy::Histogram { max_bins: 64 },
        ] {
            let mut w = Writer::new();
            s.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(SplitStrategy::decode(&mut r).unwrap(), s);
        }
        // Out-of-range budget rejected.
        let mut w = Writer::new();
        w.u8(1);
        w.u32(1);
        let bytes = w.into_bytes();
        assert!(SplitStrategy::decode(&mut Reader::new(&bytes)).is_err());
    }

    // --- the lockstep walk against the scalar oracle ---------------------

    /// Appends a random tree: every node splits with probability
    /// `split_p` until `max_depth`. Thresholds and row values share one
    /// small grid, so rows often land exactly on a threshold.
    fn push_random_tree(arena: &mut TreeArena, rng: &mut StdRng, max_depth: usize, split_p: f64) {
        fn node(arena: &mut TreeArena, rng: &mut StdRng, depth_left: usize, split_p: f64) -> usize {
            if depth_left == 0 || rng.random_range(0.0..1.0) >= split_p {
                return arena.push_leaf(rng.random_range(-1.0..1.0));
            }
            let id = arena.push_leaf(0.0);
            let left = node(arena, rng, depth_left - 1, split_p);
            let right = node(arena, rng, depth_left - 1, split_p);
            let feature = rng.random_range(0..arena.n_features);
            arena.set_split(id, feature, grid_value(rng), left, right);
            id
        }
        let root = arena.threshold.len();
        node(arena, rng, max_depth, split_p);
        arena.seal_tree(root);
    }

    fn grid_value(rng: &mut StdRng) -> f64 {
        (rng.random_range(0u32..=8) as f64 - 4.0) * 0.25
    }

    /// A row over the grid, with NaN and ±∞ mixed in.
    fn random_row(rng: &mut StdRng, d: usize) -> Vec<f64> {
        (0..d)
            .map(|_| match rng.random_range(0u32..12) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => grid_value(rng),
            })
            .collect()
    }

    fn assert_lockstep_matches_scalar(arena: &TreeArena, row: &[f64]) {
        let lockstep: Vec<u64> = arena.leaf_values(row).map(f64::to_bits).collect();
        let scalar: Vec<u64> = (0..arena.len())
            .map(|t| arena.predict_one(t, row).to_bits())
            .collect();
        assert_eq!(lockstep, scalar, "row {row:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random trees, from single leaves (`split_p` near 0) to full
        /// `max_depth` trees (near 1), in ensembles that span several
        /// lockstep chunks.
        #[test]
        fn lockstep_walk_matches_the_scalar_walk(
            seed in 0u64..u64::MAX,
            trees in 1usize..3 * LOCKSTEP,
            d in 1usize..6,
            max_depth in 0usize..12,
            split_p in 0.0f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = TreeArena::new(d);
            for _ in 0..trees {
                push_random_tree(&mut arena, &mut rng, max_depth, split_p);
            }
            for _ in 0..8 {
                assert_lockstep_matches_scalar(&arena, &random_row(&mut rng, d));
            }
        }
    }

    #[test]
    fn single_leaf_and_max_depth_trees_walk_alike() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut arena = TreeArena::new(3);
        for t in 0..40 {
            // Alternate single leaves and full depth-11 trees.
            let (depth, split_p) = if t % 2 == 0 { (0, 0.0) } else { (11, 1.0) };
            push_random_tree(&mut arena, &mut rng, depth, split_p);
        }
        assert_eq!(arena.depths.iter().max(), Some(&11));
        assert_eq!(arena.depths.iter().min(), Some(&0));
        for _ in 0..64 {
            assert_lockstep_matches_scalar(&arena, &random_row(&mut rng, 3));
        }
    }

    #[test]
    fn nan_goes_right_and_infinities_go_their_way() {
        let mut arena = TreeArena::new(1);
        let root = arena.push_leaf(0.0);
        let left = arena.push_leaf(1.0);
        let right = arena.push_leaf(2.0);
        arena.set_split(root, 0, 0.5, left, right);
        arena.seal_tree(root);
        for (x, leaf) in [
            (f64::NAN, 2.0),
            (f64::INFINITY, 2.0),
            (f64::NEG_INFINITY, 1.0),
            (0.5, 1.0),
        ] {
            assert_eq!(arena.predict_one(0, &[x]), leaf, "x = {x}");
            assert_eq!(arena.leaf_values(&[x]).collect::<Vec<_>>(), [leaf]);
        }
    }

    // --- decode invariants --------------------------------------------------

    /// One tree on the wire; `None` is a leaf, `Some((feature, left,
    /// right))` a split.
    fn tree_bytes(nodes: &[Option<(usize, usize, usize)>], n_features: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.len_prefix(nodes.len());
        for node in nodes {
            match *node {
                None => {
                    w.u8(0);
                    w.f64(0.5);
                }
                Some((feature, left, right)) => {
                    w.u8(1);
                    w.len_prefix(feature);
                    w.f64(0.0);
                    w.len_prefix(left);
                    w.len_prefix(right);
                }
            }
        }
        w.len_prefix(n_features);
        w.into_bytes()
    }

    fn decode_trees(bytes: &[u8]) -> Result<TreeArena, ArtifactError> {
        let mut arena = TreeArena::new(0);
        let mut r = Reader::new(bytes);
        while r.remaining() > 0 {
            arena.decode_tree(&mut r)?;
        }
        Ok(arena)
    }

    fn assert_malformed(bytes: &[u8]) {
        assert!(
            matches!(decode_trees(bytes), Err(ArtifactError::Malformed { .. })),
            "{:?}",
            decode_trees(bytes)
        );
    }

    #[test]
    fn decode_accepts_a_preorder_tree() {
        let arena = decode_trees(&tree_bytes(&[Some((1, 1, 2)), None, None], 2)).unwrap();
        assert_eq!((arena.len(), arena.depths[0]), (1, 1));
    }

    #[test]
    fn decode_rejects_a_self_loop() {
        // Used to make every walk spin forever on node 0.
        assert_malformed(&tree_bytes(&[Some((0, 0, 0))], 1));
    }

    #[test]
    fn decode_rejects_a_child_before_its_parent() {
        // 0 → 1 → 0: a cycle through a back edge.
        assert_malformed(&tree_bytes(&[Some((0, 1, 2)), Some((0, 0, 2)), None], 1));
    }

    #[test]
    fn decode_rejects_a_child_outside_the_tree() {
        assert_malformed(&tree_bytes(&[Some((0, 1, 3)), None, None], 1));
    }

    #[test]
    fn decode_rejects_a_split_feature_outside_the_row() {
        // Used to panic on `row[feature]` at predict time.
        assert_malformed(&tree_bytes(&[Some((2, 1, 2)), None, None], 2));
    }

    #[test]
    fn decode_rejects_an_empty_tree() {
        assert_malformed(&tree_bytes(&[], 1));
    }

    #[test]
    fn decode_rejects_trees_of_different_widths() {
        let mut bytes = tree_bytes(&[None], 2);
        bytes.extend(tree_bytes(&[None], 3));
        assert_malformed(&bytes);
    }

    #[test]
    fn ensemble_width_must_match_its_owner() {
        let arena = decode_trees(&tree_bytes(&[None], 2)).unwrap();
        assert!(arena.check_width(Some(2)).is_ok());
        assert!(arena.check_width(Some(3)).is_err());
        assert!(arena.check_width(None).is_err());
        assert!(TreeArena::new(0).check_width(None).is_ok());
    }
}
