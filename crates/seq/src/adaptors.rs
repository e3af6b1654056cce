//! Delayed adaptors: map, zip, zip-with, enumerate, take, skip, reverse.
//!
//! All of these cost O(1) eagerly — they only compose functions or
//! re-index — and preserve random access whenever their inputs have it
//! (Figure 10, lines 20-27).
//!
//! Each adaptor also participates in the cost-model plumbing (see
//! [`Seq::elem_cost`] / [`Seq::block_size_costed`]): it reports its own
//! per-element cost as one [`SIMPLE`] application on top of its input's,
//! and forwards geometry resolution inward with that cost added, so the
//! source's [`LazyBlockSize`] resolves against the *total* pipeline cost.

use std::mem;
use std::ops::ControlFlow;

use bds_cost::{ElemCost, SIMPLE};

use crate::policy::LazyBlockSize;
use crate::simd::CHUNK;
use crate::stream::{fold_by_next, BlockStream, ChunkBuffer, LOCKSTEP_MAX_ITEM};
use crate::traits::{RadBlock, RadSeq, Seq};

// ---------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------

/// Delayed elementwise map (Figure 10 lines 20-21): RAD input composes
/// the index function, BID input composes a stream-map onto each block.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Map<S, F> {
    input: S,
    f: F,
}

impl<S, F> Map<S, F> {
    pub(crate) fn new(input: S, f: F) -> Self {
        Map { input, f }
    }
}

/// Block stream of [`Map`]: the paper's `s.map g ∘ b`.
pub struct MapBlock<'s, I, F> {
    inner: I,
    f: &'s F,
}

impl<'s, I, F, U> Iterator for MapBlock<'s, I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> U,
{
    type Item = U;

    #[inline]
    fn next(&mut self) -> Option<U> {
        self.inner.next().map(self.f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

// SAFETY: forwards to the input's `fold_upto` with the same `n`.
unsafe impl<'s, I, F, U> BlockStream for MapBlock<'s, I, F>
where
    I: BlockStream,
    F: Fn(I::Item) -> U,
{
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, mut g: G) -> (B, usize)
    where
        G: FnMut(B, U) -> ControlFlow<B, B>,
    {
        let f = self.f;
        self.inner.fold_upto(n, init, |acc, x| g(acc, f(x)))
    }
}

impl<S, F, U> Seq for Map<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(S::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = MapBlock<'s, S::Block<'s>, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        self.input.block_size_costed(downstream + SIMPLE)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.input.pinned_block_size()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.input.block_size_hinted(hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        MapBlock {
            inner: self.input.block(j),
            f: &self.f,
        }
    }
}

impl<S, F, U> RadSeq for Map<S, F>
where
    S: RadSeq,
    U: Send,
    F: Fn(S::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(self.input.get(i))
    }
}

// ---------------------------------------------------------------------
// Zip / ZipWith
// ---------------------------------------------------------------------

fn check_zip_lengths(a_len: usize, b_len: usize) {
    assert_eq!(a_len, b_len, "zip requires equal lengths");
}

/// Alignment is checked at *consumption* time (when geometry resolves;
/// see [`LazyBlockSize`]), not at construction. It can only fail when
/// *both* sides were already pinned — by earlier consumptions under
/// different pools or [`crate::policy::force_block_size`] overrides —
/// because [`zip_block_size`] aligns any still-free side to the pinned
/// one.
#[inline]
fn check_zip_aligned(a_bs: usize, b_bs: usize) -> usize {
    assert_eq!(
        a_bs, b_bs,
        "zip requires aligned blocks; sequences whose geometry was pinned \
         under different block-size policies cannot be zipped (force one \
         side first)"
    );
    a_bs
}

/// Geometry resolution shared by [`Zip`] and [`ZipWith`]: the pinned
/// side wins.
///
/// A side that already resolved its geometry (an eager scan/filter
/// phase, or an earlier consumption) dictates the block size and the
/// free side adopts it via [`Seq::block_size_hinted`]. Only when both
/// sides are free does the policy get consulted — once, on side `a`,
/// priced with the *total* pipeline cost — and `b` then adopts `a`'s
/// answer. Resolving the two sides independently would be wrong under
/// [`crate::Policy::Adaptive`]: its inputs (live worker count,
/// EWMA-refined block overhead) vary over time, so two solves of the
/// same `(n, cost)` at different instants may legitimately disagree.
fn zip_block_size<A: Seq, B: Seq>(a: &A, b: &B, downstream: ElemCost) -> usize {
    match (a.pinned_block_size(), b.pinned_block_size()) {
        (Some(x), Some(y)) => check_zip_aligned(x, y),
        (Some(x), None) => check_zip_aligned(x, b.block_size_hinted(x)),
        (None, Some(y)) => check_zip_aligned(a.block_size_hinted(y), y),
        (None, None) => {
            let x = a.block_size_costed(downstream + SIMPLE + b.elem_cost());
            check_zip_aligned(x, b.block_size_hinted(x))
        }
    }
}

/// Delayed zip (Figure 10 lines 22-27). Both sides must have the same
/// length; the aligned block structure this implies (under a single
/// policy) lets the block streams fuse pairwise.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Seq, B: Seq> Zip<A, B> {
    pub(crate) fn new(a: A, b: B) -> Self {
        check_zip_lengths(a.len(), b.len());
        Zip { a, b }
    }
}

impl<A, B> Seq for Zip<A, B>
where
    A: Seq,
    B: Seq,
{
    type Item = (A::Item, B::Item);
    type Block<'s>
        = ZipWithBlock<A::Block<'s>, B::Block<'s>, Pair>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len()
    }

    fn block_size(&self) -> usize {
        self.block_size_costed(ElemCost::ZERO)
    }

    fn elem_cost(&self) -> ElemCost {
        self.a.elem_cost() + self.b.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        zip_block_size(&self.a, &self.b, downstream)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.a
            .pinned_block_size()
            .or_else(|| self.b.pinned_block_size())
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        check_zip_aligned(
            self.a.block_size_hinted(hint),
            self.b.block_size_hinted(hint),
        )
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        ZipWithBlock {
            a: self.a.block(j),
            b: self.b.block(j),
            f: Pair,
        }
    }
}

impl<A, B> RadSeq for Zip<A, B>
where
    A: RadSeq,
    B: RadSeq,
{
    #[inline]
    fn get(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.get(i), self.b.get(i))
    }
}

/// Delayed zip-with: like [`Zip`] but combines the pair through `f`
/// immediately, avoiding tuple construction in fused loops.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct ZipWith<A, B, F> {
    a: A,
    b: B,
    f: F,
}

impl<A: Seq, B: Seq, F> ZipWith<A, B, F> {
    pub(crate) fn new(a: A, b: B, f: F) -> Self {
        check_zip_lengths(a.len(), b.len());
        ZipWith { a, b, f }
    }
}

/// How a zip block combines one element of each side: a [`ZipWith`]
/// closure, or [`Zip`]'s tupling ([`Pair`]).
pub trait ZipFn<A, B> {
    /// The combined element.
    type Output;
    /// Combine `a` and `b`.
    fn call(&self, a: A, b: B) -> Self::Output;
}

impl<A, B, U, F: Fn(A, B) -> U> ZipFn<A, B> for &F {
    type Output = U;

    #[inline]
    fn call(&self, a: A, b: B) -> U {
        (**self)(a, b)
    }
}

/// [`Zip`]'s combiner: the pair itself.
#[derive(Debug, Clone, Copy)]
pub struct Pair;

impl<A, B> ZipFn<A, B> for Pair {
    type Output = (A, B);

    #[inline]
    fn call(&self, a: A, b: B) -> (A, B) {
        (a, b)
    }
}

/// Block stream of [`ZipWith`] and [`Zip`].
pub struct ZipWithBlock<IA, IB, F> {
    a: IA,
    b: IB,
    f: F,
}

impl<IA, IB, F> Iterator for ZipWithBlock<IA, IB, F>
where
    IA: Iterator,
    IB: Iterator,
    F: ZipFn<IA::Item, IB::Item>,
{
    type Item = F::Output;

    #[inline]
    fn next(&mut self) -> Option<F::Output> {
        let x = self.a.next()?;
        let y = self.b.next()?;
        Some(self.f.call(x, y))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.a.size_hint()
    }
}

/// Lockstep zip: fold side `a` for up to one chunk into a stack buffer,
/// then fold side `b` over the same count, combining each `b` element
/// with its buffered partner. Both sides keep their own chunked loops,
/// so a zip whose side is a scan, a map or another zip stays fused.
#[inline]
fn lockstep<IA, IB, F, B, G>(z: &mut ZipWithBlock<IA, IB, F>, n: usize, init: B, mut g: G) -> (B, usize)
where
    IA: BlockStream,
    IB: BlockStream,
    F: ZipFn<IA::Item, IB::Item>,
    G: FnMut(B, F::Output) -> ControlFlow<B, B>,
{
    let needs_drop = mem::needs_drop::<IA::Item>();
    let f = &z.f;
    let mut acc = init;
    let mut done = 0;
    while done < n {
        let want = (n - done).min(CHUNK);
        let mut buf = ChunkBuffer::<IA::Item>::new();
        let slots = buf.slots.as_mut_ptr().cast::<IA::Item>();
        let filled = &mut buf.filled;
        let (ka, _) = z.a.fold_upto(want, 0, |i, x| {
            // SAFETY: `a` folds at most `want <= CHUNK` elements (the
            // `BlockStream` contract), so slot `i` is in bounds.
            unsafe { slots.add(i).write(x) };
            if needs_drop {
                *filled = i + 1;
            }
            ControlFlow::Continue(i + 1)
        });
        buf.filled = ka;
        let taken = &mut buf.taken;
        let mut i = 0;
        let (b, kb) = z.b.fold_upto(ka, acc, |acc, y| {
            // SAFETY: `b` folds at most `ka` elements, so slot `i` is
            // below `filled` and was not taken yet.
            let x = unsafe { slots.add(i).read() };
            i += 1;
            if needs_drop {
                *taken = i;
            }
            g(acc, f.call(x, y))
        });
        buf.taken = kb;
        acc = b;
        done += kb;
        if kb < want {
            break; // a side ran out, or `g` broke
        }
    }
    (acc, done)
}

// SAFETY: `lockstep` returns the `b`-side counts, each at most its
// step's `want`, which sum to at most `n`; `fold_by_next` folds at most
// `n`.
unsafe impl<IA, IB, F> BlockStream for ZipWithBlock<IA, IB, F>
where
    IA: BlockStream,
    IB: BlockStream,
    F: ZipFn<IA::Item, IB::Item>,
{
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, g: G) -> (B, usize)
    where
        G: FnMut(B, F::Output) -> ControlFlow<B, B>,
    {
        if mem::size_of::<IA::Item>() <= LOCKSTEP_MAX_ITEM {
            lockstep(self, n, init, g)
        } else {
            fold_by_next(self, n, init, g)
        }
    }
}

impl<A, B, F, U> Seq for ZipWith<A, B, F>
where
    A: Seq,
    B: Seq,
    U: Send,
    F: Fn(A::Item, B::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = ZipWithBlock<A::Block<'s>, B::Block<'s>, &'s F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len()
    }

    fn block_size(&self) -> usize {
        self.block_size_costed(ElemCost::ZERO)
    }

    fn elem_cost(&self) -> ElemCost {
        self.a.elem_cost() + self.b.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        zip_block_size(&self.a, &self.b, downstream)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.a
            .pinned_block_size()
            .or_else(|| self.b.pinned_block_size())
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        check_zip_aligned(
            self.a.block_size_hinted(hint),
            self.b.block_size_hinted(hint),
        )
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        ZipWithBlock {
            a: self.a.block(j),
            b: self.b.block(j),
            f: &self.f,
        }
    }
}

impl<A, B, F, U> RadSeq for ZipWith<A, B, F>
where
    A: RadSeq,
    B: RadSeq,
    U: Send,
    F: Fn(A::Item, B::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(self.a.get(i), self.b.get(i))
    }
}

// ---------------------------------------------------------------------
// Enumerate
// ---------------------------------------------------------------------

/// Delayed index pairing: element `i` becomes `(i, x_i)`.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Enumerate<S> {
    input: S,
}

impl<S: Seq> Enumerate<S> {
    pub(crate) fn new(input: S) -> Self {
        Enumerate { input }
    }
}

/// Block stream of [`Enumerate`].
pub struct EnumerateBlock<I> {
    inner: I,
    next_index: usize,
}

impl<I: Iterator> Iterator for EnumerateBlock<I> {
    type Item = (usize, I::Item);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.inner.next()?;
        let i = self.next_index;
        self.next_index += 1;
        Some((i, x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

// SAFETY: forwards to the input's `fold_upto` with the same `n`.
unsafe impl<I: BlockStream> BlockStream for EnumerateBlock<I> {
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, mut g: G) -> (B, usize)
    where
        G: FnMut(B, Self::Item) -> ControlFlow<B, B>,
    {
        let mut i = self.next_index;
        let (acc, k) = self.inner.fold_upto(n, init, |acc, x| {
            i += 1;
            g(acc, (i - 1, x))
        });
        self.next_index += k;
        (acc, k)
    }
}

impl<S: Seq> Seq for Enumerate<S> {
    type Item = (usize, S::Item);
    type Block<'s>
        = EnumerateBlock<S::Block<'s>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        self.input.block_size_costed(downstream + SIMPLE)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.input.pinned_block_size()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.input.block_size_hinted(hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        let (lo, _) = self.input.block_bounds(j);
        EnumerateBlock {
            inner: self.input.block(j),
            next_index: lo,
        }
    }
}

impl<S: RadSeq> RadSeq for Enumerate<S> {
    #[inline]
    fn get(&self, i: usize) -> (usize, S::Item) {
        (i, self.input.get(i))
    }
}

// ---------------------------------------------------------------------
// Take / Skip / Rev (RAD-only re-indexings)
// ---------------------------------------------------------------------

/// Delayed prefix of a RAD.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct TakeSeq<S> {
    input: S,
    len: usize,
    bs: LazyBlockSize,
}

impl<S: RadSeq> TakeSeq<S> {
    pub(crate) fn new(input: S, k: usize) -> Self {
        let len = k.min(input.len());
        TakeSeq {
            input,
            len,
            bs: LazyBlockSize::new(),
        }
    }
}

impl<S: RadSeq> Seq for TakeSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn block_size(&self) -> usize {
        self.bs.get(self.len)
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        // Take re-indexes, so it owns its geometry (its length differs
        // from the input's) but still prices the input's element cost.
        self.bs
            .get_costed(self.len, downstream + SIMPLE + self.input.elem_cost())
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.bs.peek()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.bs.get_hinted(self.len, hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        let (lo, hi) = self.block_bounds(j);
        RadBlock::new(self, lo, hi)
    }
}

impl<S: RadSeq> RadSeq for TakeSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        debug_assert!(i < self.len);
        self.input.get(i)
    }
}

/// Delayed suffix of a RAD (drop the first `k`). This is the paper's RAD
/// offset field `(i, n, f)` made explicit.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct SkipSeq<S> {
    input: S,
    offset: usize,
    len: usize,
    bs: LazyBlockSize,
}

impl<S: RadSeq> SkipSeq<S> {
    pub(crate) fn new(input: S, k: usize) -> Self {
        let offset = k.min(input.len());
        let len = input.len() - offset;
        SkipSeq {
            input,
            offset,
            len,
            bs: LazyBlockSize::new(),
        }
    }
}

impl<S: RadSeq> Seq for SkipSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn block_size(&self) -> usize {
        self.bs.get(self.len)
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        self.bs
            .get_costed(self.len, downstream + SIMPLE + self.input.elem_cost())
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.bs.peek()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.bs.get_hinted(self.len, hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        let (lo, hi) = self.block_bounds(j);
        RadBlock::new(self, lo, hi)
    }
}

impl<S: RadSeq> RadSeq for SkipSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        self.input.get(self.offset + i)
    }
}

/// Delayed reversal of a RAD.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct RevSeq<S> {
    input: S,
}

impl<S: RadSeq> RevSeq<S> {
    pub(crate) fn new(input: S) -> Self {
        RevSeq { input }
    }
}

impl<S: RadSeq> Seq for RevSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        self.input.block_size_costed(downstream + SIMPLE)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.input.pinned_block_size()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.input.block_size_hinted(hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        let (lo, hi) = self.block_bounds(j);
        RadBlock::new(self, lo, hi)
    }
}

impl<S: RadSeq> RadSeq for RevSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        self.input.get(self.input.len() - 1 - i)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_block_streams_match_to_vec() {
        let s = tabulate(5000, |i| i as u64).map(|x| x * 2);
        let mut collected = Vec::new();
        for j in 0..s.num_blocks() {
            collected.extend(s.block(j));
        }
        assert_eq!(collected, s.to_vec());
    }

    #[test]
    fn map_block_size_hint_is_exact() {
        let _g = crate::policy::test_sync::test_force(64);
        let s = tabulate(200, |i| i).map(|x| x);
        let b = s.block(0);
        assert_eq!(b.size_hint(), (64, Some(64)));
        let last = s.block(s.num_blocks() - 1);
        assert_eq!(last.size_hint().0, 200 % 64);
    }

    #[test]
    fn zip_block_bounds_align() {
        let _g = crate::policy::test_sync::test_force(32);
        let a = tabulate(100, |i| i);
        let b = tabulate(100, |i| 100 - i);
        let z = a.zip(b);
        assert_eq!(z.num_blocks(), 4);
        let total: usize = (0..4).map(|j| z.block(j).count()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn zip_with_rad_access() {
        let a = tabulate(10, |i| i as i64);
        let b = tabulate(10, |i| 2 * i as i64);
        let z = a.zip_with(b, |x, y| y - x);
        assert_eq!(z.get(7), 7);
    }

    #[test]
    #[should_panic(expected = "aligned blocks")]
    fn zip_misaligned_blocks_panics() {
        // Geometry resolves at consumption, so pin each side under a
        // different forced policy by touching `block_size()` while the
        // override is in effect. The mismatch is then caught when the
        // zip is consumed, not when it is built.
        let a = {
            let _g = crate::policy::test_sync::test_force(16);
            let s = tabulate(100, |i| i);
            let _ = s.block_size();
            s
        };
        let b = {
            let _g = crate::policy::test_sync::test_force(32);
            let s = tabulate(100, |i| i);
            let _ = s.block_size();
            s
        };
        let z = a.zip(b);
        let _ = z.to_vec();
    }

    #[test]
    fn zip_misaligned_construction_is_allowed() {
        // Building the zip never resolves geometry: both sides stay
        // unpinned and agree once the consumer picks a policy.
        let _l = crate::policy::test_sync::test_lock();
        let a = tabulate(100, |i| i);
        let b = tabulate(100, |i| 99 - i);
        let z = a.zip(b);
        let v = z.map(|(x, y)| x + y).to_vec();
        assert!(v.into_iter().all(|s| s == 99));
    }

    #[test]
    fn enumerate_block_indices_are_global() {
        let _g = crate::policy::test_sync::test_force(8);
        let s = tabulate(20, |i| i * 10).enumerate();
        let second_block: Vec<(usize, usize)> = s.block(1).collect();
        assert_eq!(second_block[0], (8, 80));
    }

    #[test]
    fn take_of_bid_unsupported_but_rad_path_works() {
        // take/skip/rev are RAD-only re-indexings; chained they stay RAD.
        let s = tabulate(100, |i| i).skip(10).take(5).rev();
        assert_eq!(s.to_vec(), vec![14, 13, 12, 11, 10]);
        assert_eq!(s.get(0), 14);
    }

    #[test]
    fn take_beyond_len_clamps() {
        let s = tabulate(5, |i| i).take(100);
        assert_eq!(s.len(), 5);
        let s = tabulate(5, |i| i).skip(100);
        assert_eq!(s.len(), 0);
        assert!(s.to_vec().is_empty());
    }

    #[test]
    fn map_over_scanned_bid_keeps_block_structure() {
        let _g = crate::policy::test_sync::test_force(16);
        let (scanned, _) = tabulate(100, |_| 1u64).scan(0, |a, b| a + b);
        let mapped = scanned.map(|x| x * 10);
        assert_eq!(mapped.block_size(), 16);
        assert_eq!(mapped.num_blocks(), 7);
        let v = mapped.to_vec();
        assert_eq!(v[17], 170);
    }
}

// ---------------------------------------------------------------------
// MapWithIndex
// ---------------------------------------------------------------------

/// Delayed map receiving the element's global index: `y_i = f(i, x_i)`.
/// O(1) eager; preserves random access.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct MapWithIndex<S, F> {
    input: S,
    f: F,
}

impl<S, F> MapWithIndex<S, F> {
    pub(crate) fn new(input: S, f: F) -> Self {
        MapWithIndex { input, f }
    }
}

/// Construct a [`MapWithIndex`] over any sequence.
pub fn map_with_index<S, U, F>(input: S, f: F) -> MapWithIndex<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    MapWithIndex::new(input, f)
}

/// Block stream of [`MapWithIndex`].
pub struct MapWithIndexBlock<'s, I, F> {
    inner: I,
    f: &'s F,
    next_index: usize,
}

impl<'s, I, F, U> Iterator for MapWithIndexBlock<'s, I, F>
where
    I: Iterator,
    F: Fn(usize, I::Item) -> U,
{
    type Item = U;

    #[inline]
    fn next(&mut self) -> Option<U> {
        let x = self.inner.next()?;
        let i = self.next_index;
        self.next_index += 1;
        Some((self.f)(i, x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

// SAFETY: forwards to the input's `fold_upto` with the same `n`.
unsafe impl<'s, I, F, U> BlockStream for MapWithIndexBlock<'s, I, F>
where
    I: BlockStream,
    F: Fn(usize, I::Item) -> U,
{
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, mut g: G) -> (B, usize)
    where
        G: FnMut(B, U) -> ControlFlow<B, B>,
    {
        let (f, mut i) = (self.f, self.next_index);
        let (acc, k) = self.inner.fold_upto(n, init, |acc, x| {
            i += 1;
            g(acc, f(i - 1, x))
        });
        self.next_index += k;
        (acc, k)
    }
}

impl<S, F, U> Seq for MapWithIndex<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = MapWithIndexBlock<'s, S::Block<'s>, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn block_size(&self) -> usize {
        self.input.block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block_size_costed(&self, downstream: ElemCost) -> usize {
        self.input.block_size_costed(downstream + SIMPLE)
    }

    fn pinned_block_size(&self) -> Option<usize> {
        self.input.pinned_block_size()
    }

    fn block_size_hinted(&self, hint: usize) -> usize {
        self.input.block_size_hinted(hint)
    }

    fn block(&self, j: usize) -> Self::Block<'_> {
        let (lo, _) = self.input.block_bounds(j);
        MapWithIndexBlock {
            inner: self.input.block(j),
            f: &self.f,
            next_index: lo,
        }
    }
}

impl<S, F, U> RadSeq for MapWithIndex<S, F>
where
    S: RadSeq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(i, self.input.get(i))
    }
}

#[cfg(test)]
mod map_with_index_tests {
    use super::map_with_index;
    use crate::prelude::*;

    #[test]
    fn indices_are_global_and_values_pass_through() {
        let s = map_with_index(tabulate(5000, |i| i * 10), |i, x| x - 9 * i);
        let v = s.to_vec();
        assert!(v.iter().enumerate().all(|(i, &y)| y == i));
        assert_eq!(s.get(17), 17);
    }

    #[test]
    fn works_on_bid_input() {
        let _g = crate::policy::test_sync::test_force(16);
        let (scanned, _) = tabulate(100, |_| 1u64).scan(0, |a, b| a + b);
        let s = map_with_index(scanned, |i, prefix| prefix == i as u64);
        assert!(s.to_vec().into_iter().all(|ok| ok));
    }
}
