//! Scan with a delayed third phase (Figure 10, lines 33-40).
//!
//! The classic three-phase block scan (Figure 2) is: (1) sum each block;
//! (2) scan the block sums; (3) rescan each block seeded by its offset.
//! The key move of the paper is that phase 3 *need not run now*: its
//! inner loops are sequential per block, so the output can be a BID whose
//! block streams perform the phase-3 work lazily, fusing with whatever
//! consumes the scan. Only phases 1-2 run eagerly, allocating O(b).

use std::ops::ControlFlow;

use crate::stream::BlockStream;
use crate::traits::Seq;

/// The delayed result of an exclusive [`Seq::scan`]: element `i` is the
/// fold of elements `0..i` (so element 0 is `zero`).
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Scanned<S: Seq, F>
where
    S::Item: Clone,
{
    input: S,
    /// Exclusive prefix of block sums: the starting accumulator of each
    /// block (phase 2's output).
    seeds: Vec<S::Item>,
    f: F,
}

/// The delayed result of an inclusive [`Seq::scan_incl`]: element `i` is
/// the fold of elements `0..=i`.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct ScannedIncl<S: Seq, F>
where
    S::Item: Clone,
{
    input: S,
    seeds: Vec<S::Item>,
    f: F,
}

/// Run phases 1-2, shared by both scan flavors: one instantiation of
/// the indexed-stream core's [`crate::stream::scan_seeds`] drive loop
/// (per-block sums fused with the input's delayed work, then a
/// sequential scan of the sums).
fn block_seeds<S, F>(input: &S, zero: S::Item, f: &F) -> (Vec<S::Item>, S::Item)
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    crate::stream::scan_seeds(input, zero, f)
}

/// Exclusive scan; see [`Seq::scan`].
pub(crate) fn scan<S, F>(input: S, zero: S::Item, f: F) -> (Scanned<S, F>, S::Item)
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    let (seeds, total) = block_seeds(&input, zero, &f);
    (Scanned { input, seeds, f }, total)
}

/// Inclusive scan; see [`Seq::scan_incl`].
pub(crate) fn scan_incl<S, F>(input: S, zero: S::Item, f: F) -> ScannedIncl<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    let (seeds, _total) = block_seeds(&input, zero, &f);
    ScannedIncl { input, seeds, f }
}

/// Block stream of [`Scanned`]: phase 3, exclusive flavor.
pub struct ScanBlock<'s, I, T, F> {
    inner: I,
    acc: T,
    f: &'s F,
}

impl<'s, I, T, F> Iterator for ScanBlock<'s, I, T, F>
where
    I: Iterator<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.inner.next()?;
        let next_acc = (self.f)(self.acc.clone(), x);
        Some(std::mem::replace(&mut self.acc, next_acc))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

// SAFETY: forwards to the input's `fold_upto` with the same `n`.
unsafe impl<'s, I, T, F> BlockStream for ScanBlock<'s, I, T, F>
where
    I: BlockStream<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, mut g: G) -> (B, usize)
    where
        G: FnMut(B, T) -> ControlFlow<B, B>,
    {
        // The running value lives in a local for the call, not behind
        // `&mut self`, which keeps it in a register when this block is
        // one side of a zip.
        let f = self.f;
        let mut acc = self.acc.clone();
        let folded = self.inner.fold_upto(n, init, |b, x| {
            let next_acc = f(acc.clone(), x);
            g(b, std::mem::replace(&mut acc, next_acc))
        });
        self.acc = acc;
        folded
    }
}

/// Block stream of [`ScannedIncl`]: phase 3, inclusive flavor.
pub struct ScanInclBlock<'s, I, T, F> {
    inner: I,
    acc: T,
    f: &'s F,
}

impl<'s, I, T, F> Iterator for ScanInclBlock<'s, I, T, F>
where
    I: Iterator<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.inner.next()?;
        self.acc = (self.f)(self.acc.clone(), x);
        Some(self.acc.clone())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

// SAFETY: forwards to the input's `fold_upto` with the same `n`.
unsafe impl<'s, I, T, F> BlockStream for ScanInclBlock<'s, I, T, F>
where
    I: BlockStream<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, mut g: G) -> (B, usize)
    where
        G: FnMut(B, T) -> ControlFlow<B, B>,
    {
        // See `ScanBlock::fold_upto`.
        let f = self.f;
        let mut acc = self.acc.clone();
        let folded = self.inner.fold_upto(n, init, |b, x| {
            acc = f(acc.clone(), x);
            g(b, acc.clone())
        });
        self.acc = acc;
        folded
    }
}

impl<S, F> Seq for Scanned<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    type Item = S::Item;
    type Block<'s>
        = ScanBlock<'s, S::Block<'s>, S::Item, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        self.input.elem_cost() + bds_cost::SIMPLE
    }

    fn block_size_costed(&self, _downstream: bds_cost::ElemCost) -> usize {
        // Geometry was pinned by the eager phases 1-2 (block_seeds) and
        // must be replayed identically in phase 3, whatever the
        // downstream cost; see `LazyBlockSize`.
        self.input.block_size()
    }

    fn pinned_block_size(&self) -> Option<usize> {
        // Always pinned (by block_seeds): zipping a scan with a fresh
        // sequence aligns the fresh side to the scan's geometry.
        Some(self.input.block_size())
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        ScanBlock {
            inner: self.input.block(j),
            acc: self.seeds[j].clone(),
            f: &self.f,
        }
    }
}

impl<S, F> Seq for ScannedIncl<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    type Item = S::Item;
    type Block<'s>
        = ScanInclBlock<'s, S::Block<'s>, S::Item, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        self.input.elem_cost() + bds_cost::SIMPLE
    }

    fn block_size_costed(&self, _downstream: bds_cost::ElemCost) -> usize {
        // Pinned by the eager phases; see Scanned::block_size_costed.
        self.input.block_size()
    }

    fn pinned_block_size(&self) -> Option<usize> {
        Some(self.input.block_size())
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        ScanInclBlock {
            inner: self.input.block(j),
            acc: self.seeds[j].clone(),
            f: &self.f,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn scan_blocks_are_independently_replayable() {
        // A BID block stream must be reconstructible: calling block(j)
        // twice yields the same elements (delayed = pure).
        let _g = crate::policy::test_sync::test_force(32);
        let (s, _) = tabulate(200, |i| i as u64).scan(0, |a, b| a + b);
        for j in 0..s.num_blocks() {
            let once: Vec<u64> = s.block(j).collect();
            let twice: Vec<u64> = s.block(j).collect();
            assert_eq!(once, twice, "block {j}");
        }
    }

    #[test]
    fn scan_seed_of_each_block_is_prefix_of_prior_blocks() {
        let _g = crate::policy::test_sync::test_force(16);
        let xs: Vec<u64> = (0..100).map(|i| i % 5).collect();
        let (s, _) = from_slice(&xs).scan(0, |a, b| a + b);
        for j in 0..s.num_blocks() {
            let first = s.block(j).next().unwrap();
            let want: u64 = xs[..j * 16].iter().sum();
            assert_eq!(first, want, "block {j}");
        }
    }

    #[test]
    fn scan_with_max_operator() {
        // Non-plus monoid: running maximum.
        let xs: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let got = from_slice(&xs).scan_incl(0, u64::max).to_vec();
        assert_eq!(got, vec![3, 3, 4, 4, 5, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn scan_total_equals_reduce() {
        let xs: Vec<u64> = (0..5000).map(|i| i * 3 % 101).collect();
        let (_, total) = from_slice(&xs).scan(0, |a, b| a + b);
        let sum = from_slice(&xs).reduce(0, |a, b| a + b);
        assert_eq!(total, sum);
    }

    #[test]
    fn scan_size_hints() {
        let _g = crate::policy::test_sync::test_force(8);
        let (s, _) = tabulate(20, |i| i as u64).scan(0, |a, b| a + b);
        assert_eq!(s.block(0).size_hint(), (8, Some(8)));
        assert_eq!(s.block(2).size_hint(), (4, Some(4)));
    }
}
