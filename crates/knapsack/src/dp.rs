//! Dynamic-programming knapsack solvers.
//!
//! Two entry families share one DP core each:
//!
//! * [`solve_2d`] / [`solve_1d_filtered`] — take raw [`PackItem`]s, filter
//!   and evaluate them inline (the seed's solvers, retained as differential
//!   oracles for the planning fast path);
//! * [`solve_prepped_2d_with`] / [`solve_prepped_1d_with`] — take a
//!   [`Prepped`] instance produced by
//!   [`prep_2d`](crate::prep::prep_2d) / [`prep_1d`](crate::prep::prep_1d)
//!   (fit-filtered, multiplicity-truncated) and return selected *positions*
//!   into it. Because both families funnel through the same cores, a prepped
//!   solve is bit-identical to the raw solve on the same instance.

use crate::item::{Capacity, PackItem, Packing};
use crate::prep::Prepped;
use crate::value::ValueFunction;

/// Hardware threads per memory-free "thread unit". Threads are discretized
/// by core (4 hardware threads) exactly as memory is discretized by
/// granularity; workloads request threads in multiples of 4, so this is
/// lossless for them and conservative otherwise.
pub const THREADS_PER_UNIT: u32 = 4;

/// Reusable buffers for the DP solvers. A scheduler calls the knapsack once
/// per device per planning round; holding one `DpScratch` across calls
/// turns the two dominant allocations (the value table and the backtracking
/// bit grid) into buffer reuses.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    /// DP value table, `(w_max+1) × (t_max+1)` cells (or `w_max+1` for the
    /// 1-D variant).
    dp: Vec<f64>,
    /// Backing words of the backtracking [`BitGrid`].
    words: Vec<u64>,
    /// High-water mark: how many leading words of `words` the previous
    /// solve may have dirtied. Everything past it is known-zero, so a reset
    /// only has to re-zero this prefix instead of the whole buffer.
    words_hot: usize,
}

/// A dense bit grid recording, per item layer, which DP cells were improved
/// by taking the item — the backtracking information for reconstruction.
/// Borrows its storage from a [`DpScratch`].
struct BitGrid<'a> {
    words: &'a mut Vec<u64>,
    cells_per_item: usize,
}

impl<'a> BitGrid<'a> {
    /// Prepare a zeroed grid of `items × cells_per_item` bits on top of the
    /// scratch words, retaining capacity across solves. Invariant: words at
    /// and beyond `*hot` are zero, so only the previously dirtied prefix
    /// needs re-zeroing — repeated solves of any size never re-zero the full
    /// backing buffer, and shrinking instances never pay for the largest
    /// instance seen.
    fn reset(
        words: &'a mut Vec<u64>,
        hot: &'a mut usize,
        items: usize,
        cells_per_item: usize,
    ) -> Self {
        let total_words = (items * cells_per_item).div_ceil(64);
        let dirty = (*hot).min(words.len());
        words[..dirty].fill(0);
        if words.len() < total_words {
            words.resize(total_words, 0u64);
        }
        *hot = total_words;
        BitGrid {
            words,
            cells_per_item,
        }
    }

    #[inline]
    fn set(&mut self, item: usize, cell: usize) {
        let bit = item * self.cells_per_item + cell;
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// OR a chunk of up to 64 bits into `item`'s layer, bit `j` of `mask`
    /// landing on cell `cell + j`. The chunk may straddle a word boundary.
    #[inline]
    fn or_mask(&mut self, item: usize, cell: usize, mask: u64) {
        if mask == 0 {
            return;
        }
        let bit = item * self.cells_per_item + cell;
        let (word, shift) = (bit / 64, bit % 64);
        self.words[word] |= mask << shift;
        if shift != 0 {
            // Non-zero only when some set bit crosses into the next word,
            // which then holds a real cell and so exists.
            let spill = mask >> (64 - shift);
            if spill != 0 {
                self.words[word + 1] |= spill;
            }
        }
    }

    #[inline]
    fn get(&self, item: usize, cell: usize) -> bool {
        let bit = item * self.cells_per_item + cell;
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }
}

/// One effective item layer for the 2-D core: weight/thread units plus its
/// already-evaluated value.
struct Layer2 {
    w: usize,
    t: usize,
    v: f64,
}

/// Shared 2-D DP core. Returns the selected layer positions in
/// reconstruction order (descending) and the optimum at the full-capacity
/// cell. Both the raw and the prepped entry points call this, which is what
/// makes them bit-identical on equal effective instances.
fn dp_core_2d(
    layers: &[Layer2],
    w_max: usize,
    t_max: usize,
    scratch: &mut DpScratch,
) -> (Vec<usize>, f64) {
    dp_core_2d_by(layers, w_max, t_max, scratch, relax_layer_2d)
}

/// Signature of one layer's in-place 0-1 update over the `dp` table:
/// `(dp, taken, k, layer, w_max, stride)`.
type Relax2 = fn(&mut [f64], &mut BitGrid<'_>, usize, &Layer2, usize, usize);

/// [`dp_core_2d`] with the per-layer update passed in, so tests can run the
/// same fill and reconstruction over the scalar oracle.
fn dp_core_2d_by(
    layers: &[Layer2],
    w_max: usize,
    t_max: usize,
    scratch: &mut DpScratch,
    relax: Relax2,
) -> (Vec<usize>, f64) {
    let stride = t_max + 1;
    let cells = (w_max + 1) * stride;
    let DpScratch {
        dp,
        words,
        words_hot,
    } = scratch;
    dp.clear();
    dp.resize(cells, 0.0);
    let mut taken = BitGrid::reset(words, words_hot, layers.len(), cells);

    for (k, it) in layers.iter().enumerate() {
        relax(dp, &mut taken, k, it, w_max, stride);
    }

    // Reconstruct from the full-capacity cell.
    let mut w = w_max;
    let mut t = t_max;
    let mut selected = Vec::new();
    for (k, it) in layers.iter().enumerate().rev() {
        if taken.get(k, w * stride + t) {
            selected.push(k);
            w -= it.w;
            t -= it.t;
        }
    }
    (selected, dp[cells - 1])
}

/// One layer of the 2-D DP, row by row. For an item with memory weight
/// `w ≥ 1` the source row `w − it.w` lies below the destination row, and
/// rows are visited in descending order, so the source still holds the
/// previous layer's values: each row update is an elementwise
/// `dst[i] = max(dst[i], src[i] + v)` over two disjoint contiguous slices,
/// which [`relax_row`] runs branch-free. A memory-free item (`w = 0`)
/// reads its own row and keeps the scalar loop.
fn relax_layer_2d(
    dp: &mut [f64],
    taken: &mut BitGrid<'_>,
    k: usize,
    it: &Layer2,
    w_max: usize,
    stride: usize,
) {
    if it.w == 0 {
        relax_layer_scalar(dp, taken, k, it, w_max, stride);
        return;
    }
    let len = stride - it.t;
    for w in (it.w..=w_max).rev() {
        let (below, row) = dp.split_at_mut(w * stride);
        let src = &below[(w - it.w) * stride..][..len];
        let dst = &mut row[it.t..stride];
        relax_row(dst, src, it.v, taken, k, w * stride + it.t);
    }
}

/// `dst[i] = src[i] + v` wherever that is strictly larger, recording each
/// improved cell's backtracking bit; `dst[0]` is cell `cell` of layer `k`.
/// The comparisons of each 64-cell chunk are stored as 0/1 bytes and packed
/// into one `u64` mask, so the inner loop is a select with no data-dependent
/// branch.
#[inline]
fn relax_row(dst: &mut [f64], src: &[f64], v: f64, taken: &mut BitGrid<'_>, k: usize, cell: usize) {
    for (c, (dst, src)) in dst.chunks_mut(64).zip(src.chunks(64)).enumerate() {
        let mut flags = [0u8; 64];
        for ((d, &s), f) in dst.iter_mut().zip(src).zip(flags.iter_mut()) {
            let candidate = s + v;
            let better = candidate > *d;
            *d = if better { candidate } else { *d };
            *f = u8::from(better);
        }
        let mut mask = 0u64;
        // Byte j of `x` (0 or 1) times 2^(56 − 7j) lands on bit 56 + j;
        // no two partial products share a bit, so nothing carries.
        for (i, bytes) in flags.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            mask |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
        }
        taken.or_mask(k, cell + c * 64, mask);
    }
}

/// The cell-by-cell 0-1 update: capacities descend in both dimensions so
/// each item is used at most once. Production runs it only for memory-free
/// items; tests run it for every layer as the row kernel's oracle.
fn relax_layer_scalar(
    dp: &mut [f64],
    taken: &mut BitGrid<'_>,
    k: usize,
    it: &Layer2,
    w_max: usize,
    stride: usize,
) {
    let t_max = stride - 1;
    for w in (it.w..=w_max).rev() {
        for t in (it.t..=t_max).rev() {
            let from = (w - it.w) * stride + (t - it.t);
            let here = w * stride + t;
            let candidate = dp[from] + it.v;
            if candidate > dp[here] {
                dp[here] = candidate;
                taken.set(k, here);
            }
        }
    }
}

/// One effective item layer for the 1-D core.
struct Layer1 {
    w: usize,
    v: f64,
}

/// Shared 1-D DP core; returns selected layer positions in reconstruction
/// order (descending).
fn dp_core_1d(layers: &[Layer1], w_max: usize, scratch: &mut DpScratch) -> Vec<usize> {
    let DpScratch {
        dp,
        words,
        words_hot,
    } = scratch;
    dp.clear();
    dp.resize(w_max + 1, 0.0);
    let mut taken = BitGrid::reset(words, words_hot, layers.len(), w_max + 1);
    for (k, it) in layers.iter().enumerate() {
        for w in (it.w..=w_max).rev() {
            let candidate = dp[w - it.w] + it.v;
            if candidate > dp[w] {
                dp[w] = candidate;
                taken.set(k, w);
            }
        }
    }

    let mut w = w_max;
    let mut chosen = Vec::new();
    for (k, it) in layers.iter().enumerate().rev() {
        if taken.get(k, w) {
            chosen.push(k);
            w -= it.w;
        }
    }
    chosen
}

/// Shared repair pass for the 1-D variant: enforce the value-zero rule by
/// shedding thread hogs until the chosen set's thread sum fits. `chosen`
/// must be in DP reconstruction order (descending position) — the
/// `max_by_key` tie-break (last maximal element in iteration order) and the
/// `swap_remove` shuffle are order-sensitive, so both solver families feed
/// this the same order to stay bit-identical.
fn repair_threads(chosen: &mut Vec<usize>, threads_of: impl Fn(usize) -> u32, limit: u32) {
    let mut total_threads: u32 = chosen.iter().map(|&p| threads_of(p)).sum();
    while total_threads > limit {
        let (drop_at, _) = chosen
            .iter()
            .enumerate()
            .max_by_key(|(_, &p)| threads_of(p))
            .expect("non-empty while oversubscribed");
        total_threads -= threads_of(chosen[drop_at]);
        chosen.swap_remove(drop_at);
    }
}

/// Exact 0-1 knapsack over **two** resource dimensions: memory units and
/// thread units. The thread-sum constraint (the paper's value-zero rule) is
/// enforced *inside* the DP, so the returned packing is always feasible and
/// value-optimal under the discretization.
///
/// Complexity `O(n · W · T)` with `W = capacity/granularity` memory units
/// (153 for a 7.5 GB-usable card at 50 MB) and `T = thread_limit/4` thread
/// units (60 on the Phi) — the 2-D analogue of the paper's `O(n·w)` claim.
///
/// ```
/// use phishare_knapsack::{solve_2d, Capacity, PackItem, ValueFunction};
///
/// let items = vec![
///     PackItem { index: 0, mem_mb: 4000, threads: 240 },
///     PackItem { index: 1, mem_mb: 2000, threads: 80 },
///     PackItem { index: 2, mem_mb: 2000, threads: 80 },
///     PackItem { index: 3, mem_mb: 3000, threads: 80 },
/// ];
/// let p = solve_2d(&items, &Capacity::phi(7680), ValueFunction::PaperQuadratic);
/// // The quadratic value packs the three small-thread jobs, not the hog.
/// assert_eq!(p.selected, vec![1, 2, 3]);
/// assert!(p.total_threads <= 240);
/// ```
pub fn solve_2d(items: &[PackItem], cap: &Capacity, value_fn: ValueFunction) -> Packing {
    solve_2d_with(items, cap, value_fn, &mut DpScratch::default())
}

/// [`solve_2d`] with caller-provided scratch buffers (allocation-free once
/// the buffers have grown to the instance size).
pub fn solve_2d_with(
    items: &[PackItem],
    cap: &Capacity,
    value_fn: ValueFunction,
    scratch: &mut DpScratch,
) -> Packing {
    let w_max = cap.units();
    let t_max = (cap.thread_limit / THREADS_PER_UNIT) as usize;
    if w_max == 0 || t_max == 0 || items.is_empty() {
        return Packing::default();
    }
    let (pos_of, layers) = raw_layers_2d(items, cap, value_fn);
    if layers.is_empty() {
        return Packing::default();
    }

    let (chosen, total) = dp_core_2d(&layers, w_max, t_max, scratch);
    let selected = chosen.into_iter().map(|k| items[pos_of[k]].index).collect();
    Packing::from_selection(items, selected, total)
}

/// Evaluate raw items into 2-D layers, dropping those that cannot fit
/// alone; also returns each layer's position in `items`.
fn raw_layers_2d(
    items: &[PackItem],
    cap: &Capacity,
    value_fn: ValueFunction,
) -> (Vec<usize>, Vec<Layer2>) {
    let w_max = cap.units();
    let t_max = (cap.thread_limit / THREADS_PER_UNIT) as usize;
    let mut pos_of = Vec::new();
    let layers = items
        .iter()
        .enumerate()
        .filter_map(|(pos, it)| {
            let w = cap.item_units(it.mem_mb);
            let t = it.threads.div_ceil(THREADS_PER_UNIT) as usize;
            (w <= w_max && t <= t_max && it.threads <= cap.thread_limit).then(|| {
                pos_of.push(pos);
                Layer2 {
                    w,
                    t,
                    v: value_fn.value(it.threads, cap.value_threads()),
                }
            })
        })
        .collect();
    (pos_of, layers)
}

/// The paper-literal variant: a 1-D DP over memory only, followed by a
/// repair pass implementing the value-zero rule — if the chosen set's thread
/// sum exceeds the limit, highest-thread items are dropped until it fits.
///
/// Kept for the ablation bench (`abl_knapsack_variants`); [`solve_2d`]
/// dominates it whenever threads are the binding constraint.
pub fn solve_1d_filtered(items: &[PackItem], cap: &Capacity, value_fn: ValueFunction) -> Packing {
    solve_1d_filtered_with(items, cap, value_fn, &mut DpScratch::default())
}

/// [`solve_1d_filtered`] with caller-provided scratch buffers.
pub fn solve_1d_filtered_with(
    items: &[PackItem],
    cap: &Capacity,
    value_fn: ValueFunction,
    scratch: &mut DpScratch,
) -> Packing {
    let w_max = cap.units();
    if w_max == 0 || items.is_empty() {
        return Packing::default();
    }

    let mut pos_of = Vec::new();
    let layers: Vec<Layer1> = items
        .iter()
        .enumerate()
        .filter_map(|(pos, it)| {
            let w = cap.item_units(it.mem_mb);
            (w <= w_max && it.threads <= cap.thread_limit).then(|| {
                pos_of.push(pos);
                Layer1 {
                    w,
                    v: value_fn.value(it.threads, cap.value_threads()),
                }
            })
        })
        .collect();
    if layers.is_empty() {
        return Packing::default();
    }

    let mut chosen = dp_core_1d(&layers, w_max, scratch);
    repair_threads(&mut chosen, |k| items[pos_of[k]].threads, cap.thread_limit);

    let total_value = chosen
        .iter()
        .map(|&k| value_fn.value(items[pos_of[k]].threads, cap.value_threads()))
        .sum();
    let selected = chosen.into_iter().map(|k| items[pos_of[k]].index).collect();
    Packing::from_selection(items, selected, total_value)
}

/// Solve a [`Prepped`] 2-D instance. Returns `(positions, total_value)`
/// where positions index into `pre.items` in ascending order. Bit-identical
/// to [`solve_2d_with`] on the raw instance the prep came from (the
/// truncated copies provably never enter any optimum — see
/// [`crate::prep`]).
pub fn solve_prepped_2d_with(
    pre: &Prepped,
    value_fn: ValueFunction,
    scratch: &mut DpScratch,
) -> (Vec<usize>, f64) {
    if pre.items.is_empty() || pre.w_max == 0 || pre.t_max == 0 {
        return (Vec::new(), 0.0);
    }
    let layers: Vec<Layer2> = pre
        .items
        .iter()
        .map(|it| Layer2 {
            w: it.w,
            t: it.t,
            v: value_fn.value(it.threads, pre.value_ref),
        })
        .collect();
    let (mut chosen, total) = dp_core_2d(&layers, pre.w_max, pre.t_max, scratch);
    chosen.sort_unstable();
    (chosen, total)
}

/// Solve a [`Prepped`] 1-D instance (memory DP + thread repair). Returns
/// `(positions, total_value)` with positions into `pre.items`, ascending.
/// Bit-identical to [`solve_1d_filtered_with`] on the raw instance.
pub fn solve_prepped_1d_with(
    pre: &Prepped,
    value_fn: ValueFunction,
    scratch: &mut DpScratch,
) -> (Vec<usize>, f64) {
    if pre.items.is_empty() || pre.w_max == 0 {
        return (Vec::new(), 0.0);
    }
    let layers: Vec<Layer1> = pre
        .items
        .iter()
        .map(|it| Layer1 {
            w: it.w,
            v: value_fn.value(it.threads, pre.value_ref),
        })
        .collect();
    let mut chosen = dp_core_1d(&layers, pre.w_max, scratch);
    repair_threads(&mut chosen, |k| pre.items[k].threads, pre.thread_limit);
    let total_value = chosen
        .iter()
        .map(|&k| value_fn.value(pre.items[k].threads, pre.value_ref))
        .sum();
    chosen.sort_unstable();
    (chosen, total_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(index: usize, mem_mb: u64, threads: u32) -> PackItem {
        PackItem {
            index,
            mem_mb,
            threads,
        }
    }

    #[test]
    fn empty_inputs_yield_empty_packing() {
        let cap = Capacity::phi(7680);
        assert!(solve_2d(&[], &cap, ValueFunction::default()).is_empty());
        assert!(solve_2d(
            &[it(0, 100, 60)],
            &Capacity::phi(0),
            ValueFunction::default()
        )
        .is_empty());
        assert!(solve_1d_filtered(&[], &cap, ValueFunction::default()).is_empty());
    }

    #[test]
    fn oversized_items_are_excluded() {
        let cap = Capacity::phi(1000);
        let p = solve_2d(
            &[it(0, 2000, 60), it(1, 500, 300), it(2, 500, 60)],
            &cap,
            ValueFunction::default(),
        );
        assert_eq!(p.selected, vec![2]);
    }

    #[test]
    fn memory_constraint_is_respected() {
        let cap = Capacity::phi(1000);
        let items = [it(0, 600, 20), it(1, 600, 20), it(2, 300, 20)];
        let p = solve_2d(&items, &cap, ValueFunction::default());
        assert!(p.total_mem_mb <= 1000);
        assert_eq!(p.concurrency(), 2); // one 600 + the 300
    }

    #[test]
    fn thread_constraint_is_respected_by_2d() {
        let cap = Capacity::phi(7680);
        // Memory-plentiful, thread-starved: only two 120-thread jobs fit.
        let items = [
            it(0, 100, 120),
            it(1, 100, 120),
            it(2, 100, 120),
            it(3, 100, 120),
        ];
        let p = solve_2d(&items, &cap, ValueFunction::default());
        assert_eq!(p.concurrency(), 2);
        assert!(p.total_threads <= 240);
    }

    #[test]
    fn quadratic_value_prefers_many_small_jobs() {
        let cap = Capacity::phi(7680);
        let items = [
            it(0, 4000, 240), // hog
            it(1, 2000, 80),
            it(2, 2000, 80),
            it(3, 3000, 80),
        ];
        let p = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(p.selected, vec![1, 2, 3]);
        assert_eq!(p.total_threads, 240);
    }

    #[test]
    fn thread_bound_tie_breaks_to_best_value() {
        let cap = Capacity::phi(7680);
        // {1,2,3} is thread-infeasible (300 > 240); the best feasible set
        // pairs the 60-thread job with one 120-thread job.
        let items = [
            it(0, 4000, 240),
            it(1, 2000, 120),
            it(2, 2000, 120),
            it(3, 3000, 60),
        ];
        let p = solve_2d(&items, &cap, ValueFunction::PaperQuadratic);
        assert_eq!(p.concurrency(), 2);
        assert!(p.selected.contains(&3));
        assert!(!p.selected.contains(&0));
        assert!((p.total_value - (0.75 + 0.9375)).abs() < 1e-9);
        assert!(p.total_threads <= 240);
    }

    #[test]
    fn discretization_never_overpacks_memory() {
        // Items of 51 MB cost 2 units (100 MB) each; capacity 153 MB = 3
        // units, so only ⌊3/2⌋ = 1 item packs even though 3×51 = 153 ≤ 153.
        // Conservative, never unsafe.
        let cap = Capacity {
            mem_mb: 153,
            granularity_mb: 50,
            thread_limit: 240,
            value_ref_threads: 0,
        };
        let items = [it(0, 51, 4), it(1, 51, 4), it(2, 51, 4)];
        let p = solve_2d(&items, &cap, ValueFunction::default());
        assert_eq!(p.concurrency(), 1);
        assert!(p.total_mem_mb <= 153);
    }

    #[test]
    fn one_d_filtered_repairs_thread_overruns() {
        let cap = Capacity::phi(7680);
        let items = [
            it(0, 100, 240),
            it(1, 100, 120),
            it(2, 100, 120),
            it(3, 100, 4),
        ];
        let p = solve_1d_filtered(&items, &cap, ValueFunction::default());
        assert!(p.total_threads <= 240, "repair failed: {}", p.total_threads);
        assert!(p.is_feasible(&cap));
        // The 240-thread hog has the least value; repair drops it first.
        assert!(!p.selected.contains(&0));
    }

    #[test]
    fn two_d_dominates_1d_on_thread_bound_instances() {
        let cap = Capacity::phi(7680);
        let items: Vec<PackItem> = (0..10).map(|i| it(i, 200, 120)).collect();
        let p2 = solve_2d(&items, &cap, ValueFunction::default());
        let p1 = solve_1d_filtered(&items, &cap, ValueFunction::default());
        assert!(p2.total_value >= p1.total_value - 1e-12);
        assert_eq!(p2.concurrency(), 2);
    }

    #[test]
    fn exact_fit_is_found() {
        let cap = Capacity {
            mem_mb: 300,
            granularity_mb: 50,
            thread_limit: 240,
            value_ref_threads: 0,
        };
        let items = [it(0, 100, 60), it(1, 100, 60), it(2, 100, 60)];
        let p = solve_2d(&items, &cap, ValueFunction::default());
        assert_eq!(p.concurrency(), 3);
        assert_eq!(p.total_mem_mb, 300);
        assert_eq!(p.total_threads, 180);
    }

    #[test]
    fn indices_are_reported_not_positions() {
        let cap = Capacity::phi(7680);
        let items = [it(42, 100, 60), it(7, 100, 60)];
        let p = solve_2d(&items, &cap, ValueFunction::default());
        assert_eq!(p.selected, vec![7, 42]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_solves() {
        // One scratch across instances of different shapes: stale contents
        // from a bigger instance must not leak into a smaller one.
        let mut scratch = DpScratch::default();
        let caps = [
            Capacity::phi(7680),
            Capacity::phi(1000),
            Capacity::phi(3000),
        ];
        let instances: Vec<Vec<PackItem>> = vec![
            (0..12).map(|i| it(i, 400 + 100 * i as u64, 60)).collect(),
            vec![it(0, 600, 20), it(1, 600, 20), it(2, 300, 20)],
            (0..6).map(|i| it(i, 200, 120)).collect(),
        ];
        for cap in &caps {
            for items in &instances {
                let fresh2 = solve_2d(items, cap, ValueFunction::PaperQuadratic);
                let reused2 =
                    solve_2d_with(items, cap, ValueFunction::PaperQuadratic, &mut scratch);
                assert_eq!(fresh2.selected, reused2.selected);
                assert_eq!(fresh2.total_value, reused2.total_value);
                let fresh1 = solve_1d_filtered(items, cap, ValueFunction::PaperQuadratic);
                let reused1 =
                    solve_1d_filtered_with(items, cap, ValueFunction::PaperQuadratic, &mut scratch);
                assert_eq!(fresh1.selected, reused1.selected);
            }
        }
    }

    #[test]
    fn bitgrid_high_water_mark_shrinks_and_grows() {
        // Grow, shrink, regrow: the high-water reset must leave every
        // freshly mapped grid fully zeroed (a leaked stale bit would
        // corrupt reconstruction, which `scratch_reuse_matches_fresh_solves`
        // checks end-to-end; this checks the mechanism directly).
        let mut words = Vec::new();
        let mut hot = 0usize;
        {
            let mut g = BitGrid::reset(&mut words, &mut hot, 4, 100);
            g.set(3, 99);
            assert!(g.get(3, 99));
        }
        assert_eq!(hot, (4 * 100usize).div_ceil(64));
        {
            // Smaller grid: the dirtied prefix is re-zeroed.
            let g = BitGrid::reset(&mut words, &mut hot, 1, 64);
            assert!(!g.get(0, 35)); // bit 35 aliased old bit (3, 99)? regardless: zero
            for cell in 0..64 {
                assert!(!g.get(0, cell));
            }
        }
        assert_eq!(hot, 1);
        // Capacity was retained from the large grid.
        assert!(words.capacity() >= (4 * 100usize).div_ceil(64));
        {
            // Regrow: words past the old high-water must still read zero.
            let g = BitGrid::reset(&mut words, &mut hot, 4, 100);
            for item in 0..4 {
                for cell in 0..100 {
                    assert!(!g.get(item, cell), "stale bit at ({item}, {cell})");
                }
            }
        }
    }

    /// Run one instance through the row kernel and through the scalar
    /// oracle, each on fresh scratch: the DP tables, the backtracking bits
    /// and the selections must all be identical.
    fn kernel_matches_oracle(items: &[PackItem], cap: &Capacity, vf: ValueFunction) {
        let w_max = cap.units();
        let t_max = (cap.thread_limit / THREADS_PER_UNIT) as usize;
        let (_, layers) = raw_layers_2d(items, cap, vf);
        let mut kernel = DpScratch::default();
        let mut oracle = DpScratch::default();
        let got = dp_core_2d(&layers, w_max, t_max, &mut kernel);
        let want = dp_core_2d_by(&layers, w_max, t_max, &mut oracle, relax_layer_scalar);
        assert_eq!(got.0, want.0, "selections differ");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "optima differ");
        let bits = |s: &DpScratch| s.dp.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&kernel), bits(&oracle), "dp tables differ");
        assert_eq!(kernel.words_hot, oracle.words_hot);
        assert_eq!(
            kernel.words[..kernel.words_hot],
            oracle.words[..oracle.words_hot],
            "taken bits differ"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The row kernel against the scalar oracle over memory-free items,
        /// thread-free items, thread counts off the 4-thread unit, rows of
        /// 2–91 cells (one or two mask chunks) and layer/row offsets that
        /// put masks across word boundaries.
        #[test]
        fn row_kernel_matches_scalar_oracle(
            raw in proptest::collection::vec(
                (0u64..4000, 0u32..=360, 0u8..8),
                1..40,
            ),
            mem_mb in 0u64..8000,
            granularity_mb in proptest::sample::select(vec![25u64, 50, 100, 200]),
            thread_limit in proptest::sample::select(vec![4u32, 18, 240, 250, 360]),
        ) {
            let items: Vec<PackItem> = raw
                .iter()
                .enumerate()
                .map(|(index, &(mem, threads, shape))| PackItem {
                    index,
                    // Shape 0 is memory-free, shape 1 thread-free.
                    mem_mb: if shape == 0 { 0 } else { mem },
                    threads: if shape == 1 { 0 } else { threads },
                })
                .collect();
            let cap = Capacity {
                mem_mb,
                granularity_mb,
                thread_limit,
                value_ref_threads: 240,
            };
            for vf in [ValueFunction::PaperQuadratic, ValueFunction::Unit] {
                kernel_matches_oracle(&items, &cap, vf);
            }
        }
    }

    #[test]
    fn row_kernel_matches_oracle_on_wide_rows() {
        // Overcommit budget 360 → 91 cells per row: every row update runs
        // a full 64-cell chunk plus a 27-cell tail, and with 154 rows the
        // chunks start at every residue mod 64.
        let cap = Capacity {
            mem_mb: 7680,
            granularity_mb: 50,
            thread_limit: 360,
            value_ref_threads: 240,
        };
        let items: Vec<PackItem> = (0..63)
            .map(|i| it(i, 100 + 97 * i as u64 % 3300, 1 + (i as u32 * 37) % 240))
            .collect();
        kernel_matches_oracle(&items, &cap, ValueFunction::PaperQuadratic);
    }

    #[test]
    fn or_mask_straddles_word_boundaries() {
        let mut words = Vec::new();
        let mut hot = 0usize;
        let mut g = BitGrid::reset(&mut words, &mut hot, 2, 100);
        // Item 1 starts at bit 100; cell 20 is bit 120, so a full mask
        // covers bits 120..184 across words 1 and 2.
        g.or_mask(1, 20, u64::MAX);
        g.or_mask(0, 90, 0b101);
        for item in 0..2 {
            for cell in 0..100 {
                let want = match item {
                    0 => cell == 90 || cell == 92,
                    _ => (20..84).contains(&cell),
                };
                assert_eq!(g.get(item, cell), want, "({item}, {cell})");
            }
        }
    }

    #[test]
    fn zero_thread_limit_packs_nothing() {
        let cap = Capacity {
            mem_mb: 1000,
            granularity_mb: 50,
            thread_limit: 0,
            value_ref_threads: 0,
        };
        assert!(solve_2d(&[it(0, 100, 4)], &cap, ValueFunction::default()).is_empty());
    }
}
