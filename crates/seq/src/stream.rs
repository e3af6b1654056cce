//! The indexed-stream core: one block-granular drive loop for every
//! lowering.
//!
//! The drive loops ([`reduce`], [`to_vec`], [`count`], [`for_each`],
//! [`filter_parts`], [`scan_seeds`], the `try_*` variants, …) own the
//! canonical consumption protocol, so every cross-cutting concern
//! (cancellation poll ticks, cost-model geometry pinning, memory
//! charging, profiling spans, SIMD chunk dispatch) lives in one place,
//! in the spirit of indexed stream fusion. They take any [`Seq`] — its
//! length, cost-aware geometry ([`Seq::block_size_costed`]) and
//! per-block streams ([`Seq::block`]) are the whole contract — so the
//! monomorphized pipelines and the erased
//! [`BoxSeq`](crate::erased::BoxSeq)/[`BoxRad`](crate::erased::BoxRad)
//! are thin instantiations of the same engine.
//!
//! # The canonical per-block protocol
//!
//! Each drive loop performs, in order:
//!
//! 1. **Profile span** — opens the stage's [`mod@crate::profile`] span.
//! 2. **Cost-pinned geometry** — calls
//!    [`Seq::block_size_costed`] with the consumer's
//!    [`ElemCost`] *before* deriving the block count. Resolving and
//!    pinning in one step is load-bearing: under `Policy::Adaptive` two
//!    separate resolutions of the same `(n, cost)` may disagree (live
//!    worker count and overhead estimates move), so the block count
//!    must be derived from the pinned answer.
//! 3. **Geometry record** — reports `(stage, len, bs, nb)` to the
//!    profiler.
//! 4. **Memory charging** — output buffers go through
//!    `PartialVec::new`/`build_vec` (`crate::util`), the single choke
//!    point that charges any ambient memory budget before allocating;
//!    survivor packing additionally charges per block via
//!    `crate::util::charge_elems`.
//! 5. **The block loop** — [`bds_pool::apply`] (or
//!    [`bds_pool::apply_cancellable`] for the fallible drivers) streams
//!    each block exactly once into its output slot, with the overflow/
//!    underflow asserts that make the disjoint parallel writes safe.
//!    A block is consumed by *chunked internal iteration*: one
//!    [`BlockStream::fold_upto`] call per [`simd::CHUNK`]-aligned chunk
//!    (`fold_chunks`), in which the stream runs the whole chunk as a
//!    counted loop — leaves over their index range, adaptors by
//!    composing their step into the fold, zips in lockstep through a
//!    stack buffer — instead of one nested `next()` call per element.
//!    Materialization writes the chunk into its region through a local
//!    index. Survivor packing ([`filter_parts`]) writes every `keep`
//!    result of the chunk, `Some` or `None`, into a stack slot at a
//!    cursor that advances by `is_some()`, then moves the chunk's
//!    survivors into the block's `Vec` at once — no data-dependent
//!    `push` per survivor. Streams without a chunked loop (the erased
//!    lowering's boxed iterators) fall back to `next()`.
//!    Every block body runs under [`bds_pool::recover_block`]
//!    ([`bds_pool::recover_effect_block`] for the side-effecting
//!    `for_each` loops): when an enclosing
//!    [`bds_pool::run_recovered`] supplies a
//!    [`bds_pool::RetryPolicy`], a panicking block is classified and
//!    transient faults re-execute *only that block* into its
//!    already-reserved region — geometry is pinned once, before the
//!    loop, so a retried run is bit-identical to an unfaulted one.
//!
//! Cancellation polling is *not* repeated here: the leaf element
//! iterators of every instantiation embed a
//! [`bds_pool::PollTicker`], and every leaf ticks once per element it
//! produces — so a zip, with a leaf on each side, ticks two tickers per
//! element. A chunked leaf moves its ticker once per `fold_upto` call
//! by the same count, polling as often as per-element ticks would. The
//! drive loop never ticks itself, so poll counts are a pure function of
//! the pipeline and the block lengths, which `tests/stream_parity.rs`
//! pins down by comparing [`bds_pool::ticker_polls`] counts across
//! instantiations.
//!
//! SIMD chunk dispatch lives in the chunked drivers ([`try_sum_chunked`]):
//! they regroup block streams into [`crate::simd::CHUNK`]-element
//! chunks, poll the fault injector once per chunk, and hand each chunk
//! to the active [`crate::simd`] kernel — so the fault ordinal and the
//! chunk seams are a pure function of the element stream, identical in
//! every instantiation and identical to the slice kernels in
//! [`crate::simd`].

use std::mem::{self, MaybeUninit};
use std::ops::ControlFlow;
use std::ptr;

use bds_cost::{ElemCost, SIMPLE};

use crate::counters;
use crate::policy;
use crate::profile::{self, Stage};
use crate::simd::{self, Interrupted, SimdElem, CHUNK};
use crate::sources::Forced;
use crate::traits::Seq;
use crate::util::{build_vec, charge_elems, scan_sequential, PartialVec};

// ---------------------------------------------------------------------
// Chunked internal iteration
// ---------------------------------------------------------------------

/// A block's element stream with chunked *internal* iteration: the
/// consumer hands a whole chunk's worth of work to the stream, and the
/// stream runs it as one counted loop instead of answering one
/// `next()` call per element.
///
/// Leaves ([`crate::sources::SliceBlock`],
/// [`crate::sources::TabulateBlock`], [`crate::traits::RadBlock`],
/// [`crate::flatten::RegionIter`]) fold an index range directly and
/// move their [`bds_pool::PollTicker`] once per call;
/// adaptors compose their per-element step into `g` and forward to
/// their input; [`crate::adaptors::ZipWithBlock`] runs its two sides in
/// lockstep through a stack buffer. Any other iterator gets the
/// default, which calls `next()`: the erased `Box<dyn Iterator>` blocks
/// of [`crate::BoxSeq`] and [`crate::BoxRad`], and the `Range`/`Take`
/// blocks external [`Seq`] implementations may use.
///
/// # Safety
///
/// The drive loops write `fold_upto`'s elements into uninitialized
/// buffers sized by `n`, so an implementation must fold **at most `n`**
/// elements per call and return exactly how many it folded.
pub unsafe trait BlockStream: Iterator {
    /// Fold up to `n` more elements through `g`, starting from `init`.
    /// Returns the accumulator and the number of elements folded, which
    /// is less than `n` only when the stream ran out or `g` returned
    /// [`ControlFlow::Break`] (the breaking element counts as folded,
    /// and its accumulator is returned). Elements arrive in stream
    /// order, and a stream driven by `fold_upto` polls its tickers as
    /// often as one driven by `next()`.
    #[inline]
    fn fold_upto<B, G>(&mut self, n: usize, init: B, g: G) -> (B, usize)
    where
        G: FnMut(B, Self::Item) -> ControlFlow<B, B>,
    {
        fold_by_next(self, n, init, g)
    }
}

/// The per-element fallback of [`BlockStream::fold_upto`].
#[inline]
pub(crate) fn fold_by_next<I, B, G>(it: &mut I, n: usize, init: B, mut g: G) -> (B, usize)
where
    I: Iterator + ?Sized,
    G: FnMut(B, I::Item) -> ControlFlow<B, B>,
{
    let mut acc = init;
    for k in 0..n {
        let Some(x) = it.next() else {
            return (acc, k);
        };
        match g(acc, x) {
            ControlFlow::Continue(b) => acc = b,
            ControlFlow::Break(b) => return (b, k + 1),
        }
    }
    (acc, n)
}

/// The counted loop of the index-walking leaves: fold the elements
/// `items(range)` produces for the next block positions `*next..` (at
/// most `n` of them, never past `end`) and advance `*next` past the
/// ones folded. `items` must yield one element per position of its
/// range; leaves hand out a slice iterator or a mapped index range, so
/// the loop carries no per-element bounds check.
///
/// The ticker moves before the loop, in steps of at most one poll
/// interval: a step crosses at most one poll boundary and polls once if
/// it does, so the ticker polls exactly as often as per-element ticks
/// would, just up to one step earlier. Keeping the poll — a call — out
/// of the element loop lets the loop vectorize.
#[inline]
pub(crate) fn fold_positions<I, B, G>(
    ticker: &mut bds_pool::PollTicker,
    next: &mut usize,
    end: usize,
    n: usize,
    init: B,
    items: impl FnOnce(std::ops::Range<usize>) -> I,
    mut g: G,
) -> (B, usize)
where
    I: Iterator,
    G: FnMut(B, I::Item) -> ControlFlow<B, B>,
{
    let start = *next;
    let stop = start + n.min(end.saturating_sub(start));
    let mut ticks = stop - start;
    while ticks > 0 {
        let step = ticks.min(CHUNK);
        ticker.tick_n(step);
        ticks -= step;
    }
    let mut acc = init;
    let mut folded = 0;
    for x in items(start..stop) {
        folded += 1;
        match g(acc, x) {
            ControlFlow::Continue(b) => acc = b,
            ControlFlow::Break(b) => {
                acc = b;
                break;
            }
        }
    }
    *next = start + folded;
    (acc, folded)
}

/// The one chunk loop every drive loop consumes blocks through: fold
/// the stream's elements from block position `from` (the caller has
/// already taken `from` elements) up to position `to`, one
/// [`BlockStream::fold_upto`] call per [`simd::CHUNK`]-aligned chunk (one
/// poll interval). Returns
/// the accumulator and the position reached, which is below `to` only
/// when the stream ran out or `g` broke.
#[inline]
pub(crate) fn fold_chunks<I, B, G>(stream: &mut I, from: usize, to: usize, init: B, mut g: G) -> (B, usize)
where
    I: BlockStream + ?Sized,
    G: FnMut(B, I::Item) -> ControlFlow<B, B>,
{
    let mut acc = init;
    let mut pos = from;
    while pos < to {
        let want = (CHUNK - pos % CHUNK).min(to - pos);
        let (b, k) = stream.fold_upto(want, acc, &mut g);
        acc = b;
        pos += k;
        if k < want {
            break;
        }
    }
    (acc, pos)
}

/// [`fold_chunks`] over the rest of an infallible stream.
#[inline]
fn fold_rest<I, B>(stream: &mut I, from: usize, init: B, mut g: impl FnMut(B, I::Item) -> B) -> B
where
    I: BlockStream + ?Sized,
{
    fold_chunks(stream, from, usize::MAX, init, |b, x| ControlFlow::Continue(g(b, x))).0
}

/// [`fold_chunks`] over the rest of a stream through a fallible step:
/// stops at the first `Err`, producing no element after it (a later
/// element could panic, or fire an injected fault, and change which
/// failure the consumer reports).
#[inline]
fn try_fold_rest<I, B, E>(
    stream: &mut I,
    from: usize,
    init: B,
    mut f: impl FnMut(B, I::Item) -> Result<B, E>,
) -> Result<B, E>
where
    I: BlockStream + ?Sized,
{
    fold_chunks(stream, from, usize::MAX, Ok(init), |acc: Result<B, E>, x| {
        match acc.and_then(|b| f(b, x)) {
            Ok(b) => ControlFlow::Continue(Ok(b)),
            err => ControlFlow::Break(err),
        }
    })
    .0
}

/// Largest item, in bytes, that a chunk loop stages in a
/// [`ChunkBuffer`] — a zip's left side
/// ([`crate::adaptors::ZipWithBlock`]) and a filter's `Option` survivor
/// slots ([`filter_parts`]); larger items go one element at a time.
/// Keeps each buffer at most `CHUNK * 32` bytes (32 KiB).
pub(crate) const LOCKSTEP_MAX_ITEM: usize = 32;

/// The stack buffer of one chunk step: slots `taken..filled` hold items
/// not yet moved out. Dropping it drops exactly those, so a panic
/// mid-chunk (in production, in a closure, or in the consumer) leaks
/// nothing and drops nothing twice. Users keep both counts current per
/// element for types that need dropping.
pub(crate) struct ChunkBuffer<T> {
    pub(crate) slots: [MaybeUninit<T>; CHUNK],
    pub(crate) filled: usize,
    pub(crate) taken: usize,
}

impl<T> ChunkBuffer<T> {
    /// An empty buffer.
    #[inline]
    pub(crate) fn new() -> Self {
        ChunkBuffer {
            slots: [const { MaybeUninit::uninit() }; CHUNK],
            filled: 0,
            taken: 0,
        }
    }
}

impl<T> Drop for ChunkBuffer<T> {
    fn drop(&mut self) {
        if mem::needs_drop::<T>() {
            // SAFETY: slots `taken..filled` are initialized and were
            // not moved out (both counts are kept current per element
            // for types that need dropping).
            unsafe {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
                    self.slots.as_mut_ptr().add(self.taken).cast::<T>(),
                    self.filled - self.taken,
                ));
            }
        }
    }
}

// SAFETY (all three): the default `fold_upto` folds at most `n`
// elements and counts them exactly.
unsafe impl<I: Iterator + ?Sized> BlockStream for Box<I> {}
unsafe impl<A> BlockStream for std::ops::Range<A> where std::ops::Range<A>: Iterator {}
unsafe impl<I: Iterator> BlockStream for std::iter::Take<I> {}

// ---------------------------------------------------------------------
// Geometry resolution
// ---------------------------------------------------------------------

/// The resolved block geometry of one consumption: element count, block
/// size, block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total elements.
    pub len: usize,
    /// Pinned block size.
    pub bs: usize,
    /// Block count, `ceil(len / bs)`.
    pub nb: usize,
}

impl Geometry {
    /// Bounds `(lo, hi)` of block `j` in the element index space.
    #[inline]
    pub fn block_bounds(&self, j: usize) -> (usize, usize) {
        let lo = j * self.bs;
        (lo, (lo + self.bs).min(self.len))
    }
}

/// Step 2 of the protocol: resolve and pin geometry with the consumer's
/// per-element cost, then derive the block count from the pinned
/// answer.
pub fn pin_geometry<S: Seq + ?Sized>(s: &S, downstream: ElemCost) -> Geometry {
    let len = s.len();
    let bs = s.block_size_costed(downstream);
    Geometry {
        len,
        bs,
        nb: policy::ceil_div(len, bs),
    }
}

#[inline]
fn record(stage: Stage, g: Geometry) {
    profile::record_geometry(stage, g.len, g.bs, g.nb);
}

// ---------------------------------------------------------------------
// The shared block loops (step 5)
// ---------------------------------------------------------------------

/// Stream every block through `f`, in parallel, producing no output.
///
/// Side-effecting blocks re-run user effects on retry, so this loop
/// goes through [`bds_pool::recover_effect_block`]: blocks are *not*
/// retried unless the ambient [`bds_pool::RetryPolicy`] explicitly
/// opted in via `retry_side_effects` (see the legality table in
/// DESIGN.md).
fn visit_blocks<S, F>(s: &S, g: Geometry, f: F)
where
    S: Seq + ?Sized,
    F: Fn(usize, S::Block<'_>) + Send + Sync,
{
    bds_pool::apply(g.nb, |j| {
        bds_pool::recover_effect_block(j, || f(j, s.block(j)))
    });
}

/// One output per block: stream block `j` through `f` and collect the
/// `nb` results positionally (the shape of reduce phase 1, count, scan
/// seeds, and filter packing).
fn per_block<S, T, F>(s: &S, g: Geometry, f: F) -> Vec<T>
where
    S: Seq + ?Sized,
    T: Send,
    F: Fn(usize, S::Block<'_>) -> T + Send + Sync,
{
    build_vec(g.nb, |pv| {
        bds_pool::apply(g.nb, |j| {
            // Pure block write: the push happens only after `f`
            // succeeds, so a retried attempt (transient fault mid-`f`)
            // re-streams the block into the still-empty slot.
            bds_pool::recover_block(j, || {
                pv.writer(j).push(f(j, s.block(j)));
            });
        });
    })
}

/// Fallible [`per_block`]: the first failing block cancels the region
/// (sibling blocks stop at their next boundary) and the lowest failing
/// block index's error is reported.
fn try_per_block<S, T, E, F>(s: &S, g: Geometry, f: F) -> Result<Vec<T>, E>
where
    S: Seq + ?Sized,
    T: Send,
    E: Send,
    F: Fn(usize, S::Block<'_>) -> Result<T, E> + Send + Sync,
{
    let pv = PartialVec::new(g.nb);
    bds_pool::apply_cancellable(g.nb, |j| {
        // Retry wraps only panic faults; an `Err` return is a result,
        // not a fault, and short-circuits the region unretried.
        bds_pool::recover_block(j, || {
            pv.writer(j).push(f(j, s.block(j))?);
            Ok(())
        })
    })?;
    Ok(pv.finish())
}

/// Stream block `j` into its region of `pv` through `f`, checking the
/// block-length invariant: the chunk loop stops at the region's end, an
/// early end is an underflow, and an element beyond it an overflow —
/// a panic instead of an unsound write.
fn fill_block<S, T, E>(
    s: &S,
    g: Geometry,
    j: usize,
    pv: &PartialVec<T>,
    f: impl FnMut(S::Item) -> Result<T, E>,
) -> Result<(), E>
where
    S: Seq + ?Sized,
    T: Send,
{
    let (lo, hi) = g.block_bounds(j);
    let mut w = pv.writer(lo);
    let mut stream = s.block(j);
    w.extend_with(&mut stream, hi - lo, f)?;
    assert_eq!(lo + w.count(), hi, "Seq invariant violated: block underflow");
    assert!(stream.next().is_none(), "Seq invariant violated: block overflow");
    Ok(())
}

/// Materialize: every block streams its elements straight into its slot
/// of one fresh (budget-charged) buffer.
fn materialize<S>(s: &S, g: Geometry) -> Vec<S::Item>
where
    S: Seq + ?Sized,
{
    build_vec(g.len, |pv| {
        bds_pool::apply(g.nb, |j| {
            // Idempotent by construction: the writer guard discards
            // its partial prefix on unwind, so a retried attempt
            // re-streams the whole block into its untouched region.
            bds_pool::recover_block(j, || {
                let Ok(()) = fill_block(s, g, j, pv, Ok::<_, std::convert::Infallible>);
            });
        });
    })
}

/// Fallible materialization through a per-element map: the shape of
/// `try_to_vec` (where `f` unwraps `Result` elements).
fn try_materialize_with<S, T, E, F>(s: &S, g: Geometry, f: F) -> Result<Vec<T>, E>
where
    S: Seq + ?Sized,
    T: Send,
    E: Send,
    F: Fn(S::Item) -> Result<T, E> + Send + Sync,
{
    let pv = PartialVec::new(g.len);
    bds_pool::apply_cancellable(g.nb, |j| {
        bds_pool::recover_block(j, || fill_block(s, g, j, &pv, &f))
    })?;
    Ok(pv.finish())
}

// ---------------------------------------------------------------------
// Infallible drive loops
// ---------------------------------------------------------------------

/// Two-phase block reduce (Figure 10 lines 28-32): per-block
/// stream-folds seeded by each block's first element, then a sequential
/// fold of the `nb` block sums with `zero` folded in once. `combine`
/// must be associative.
pub fn reduce<S, F>(s: &S, zero: S::Item, combine: &F) -> S::Item
where
    S: Seq + ?Sized,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    if s.is_empty() {
        return zero;
    }
    let _span = profile::span(Stage::Reduce);
    // One combine per element downstream of the delayed work.
    let g = pin_geometry(s, SIMPLE);
    record(Stage::Reduce, g);
    let sums = per_block(s, g, |_, mut stream| {
        let first = stream.next().expect("Seq invariant violated: empty block");
        fold_rest(&mut stream, 1, first, combine)
    });
    counters::count_reads(sums.len());
    sums.into_iter().fold(zero, combine)
}

/// Apply `f` to every element, in parallel across blocks (`applySeq`,
/// Figure 9 lines 5-8).
pub fn for_each<S, F>(s: &S, f: &F)
where
    S: Seq + ?Sized,
    F: Fn(S::Item) + Send + Sync,
{
    let _span = profile::span(Stage::ForEach);
    let g = pin_geometry(s, SIMPLE);
    record(Stage::ForEach, g);
    visit_blocks(s, g, |_, mut stream| fold_rest(&mut stream, 0, (), |(), x| f(x)));
}

/// Apply `f(i, x)` to every element with its global index.
pub fn for_each_indexed<S, F>(s: &S, f: &F)
where
    S: Seq + ?Sized,
    F: Fn(usize, S::Item) + Send + Sync,
{
    let _span = profile::span(Stage::ForEach);
    let g = pin_geometry(s, SIMPLE);
    record(Stage::ForEach, g);
    visit_blocks(s, g, |j, mut stream| {
        let (lo, _) = g.block_bounds(j);
        fold_rest(&mut stream, 0, lo, |i, x| {
            f(i, x);
            i + 1
        });
    });
}

/// Materialize into a `Vec` (`toArray`, Figure 9 lines 9-14).
pub fn to_vec<S>(s: &S) -> Vec<S::Item>
where
    S: Seq + ?Sized,
{
    let _span = profile::span(Stage::Force);
    // One write + one slot of fresh allocation per element.
    let g = pin_geometry(s, ElemCost { w: 1, s: 1, a: 1 });
    if g.len > 0 {
        record(Stage::Force, g);
    }
    materialize(s, g)
}

/// Count the elements satisfying `pred`, two-phase like [`reduce`].
pub fn count<S, P>(s: &S, pred: &P) -> usize
where
    S: Seq + ?Sized,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    if s.is_empty() {
        return 0;
    }
    let _span = profile::span(Stage::Count);
    let g = pin_geometry(s, SIMPLE);
    record(Stage::Count, g);
    let sums = per_block(s, g, |_, mut stream| {
        fold_rest(&mut stream, 0, 0, |c, x| c + usize::from(pred(&x)))
    });
    sums.into_iter().sum()
}

/// Blockwise survivor packing, the eager phase of `filter`/`filter_op`
/// (Figure 10, lines 48-53): stream each block through `keep` (`Some`
/// keeps an element, `None` drops it) into a small dense array,
/// charging each block's survivors against the ambient memory budget.
/// The caller flattens the parts, wrapping each in a [`Forced`].
pub fn filter_parts<S, U, K>(s: &S, keep: &K) -> Vec<Vec<U>>
where
    S: Seq + ?Sized,
    U: Send,
    K: Fn(S::Item) -> Option<U> + Sync,
{
    // Packing streams every element once through the predicate and may
    // allocate a survivor.
    let g = pin_geometry(s, ElemCost { w: 1, s: 1, a: 1 });
    let _span = profile::span(Stage::FilterEager);
    if g.nb > 0 {
        record(Stage::FilterEager, g);
    }
    per_block(s, g, |_, mut stream| {
        let kept = pack_block(&mut stream, keep);
        // Survivors are the filter's real allocation; charge them
        // against the ambient memory budget (abandons the region on
        // exhaustion — the survivor vec is dropped normally).
        charge_elems::<U>(kept.len());
        counters::count_writes(kept.len());
        counters::count_allocs(kept.len());
        kept
    })
}

/// Pack one block's survivors without a data-dependent branch: per
/// [`CHUNK`]-element `fold_upto` call, every `keep` result is written
/// to the stack slot at cursor `k`, and `k` advances by `is_some()` — a
/// `None` is simply overwritten by the next element. After the chunk
/// the `k` survivors move into the block's `Vec` with one `reserve` and
/// one `extend`. The buffer's slots `0..filled` are the survivors, so
/// a panic mid-chunk drops exactly those. Items whose `Option` exceeds
/// [`LOCKSTEP_MAX_ITEM`] are pushed one at a time.
pub(crate) fn pack_block<I, U, K>(stream: &mut I, keep: &K) -> Vec<U>
where
    I: BlockStream + ?Sized,
    K: Fn(I::Item) -> Option<U>,
{
    let mut kept = Vec::new();
    if mem::size_of::<Option<U>>() > LOCKSTEP_MAX_ITEM {
        fold_rest(stream, 0, (), |(), x| {
            if let Some(y) = keep(x) {
                kept.push(y);
            }
        });
        return kept;
    }
    let needs_drop = mem::needs_drop::<U>();
    let mut buf = ChunkBuffer::<Option<U>>::new();
    loop {
        let slots = buf.slots.as_mut_ptr().cast::<Option<U>>();
        let filled = &mut buf.filled;
        let (k, folded) = stream.fold_upto(CHUNK, 0, |k, x| {
            let y = keep(x);
            let next = k + usize::from(y.is_some());
            // SAFETY: the stream folds at most `CHUNK` elements per call
            // (the `BlockStream` contract) and `k` counts survivors among
            // the ones before this element, so `k < CHUNK`. Slot `k`
            // holds no live survivor (those are `0..k`), so overwriting
            // it leaks nothing.
            unsafe { slots.add(k).write(y) };
            if needs_drop {
                *filled = next;
            }
            ControlFlow::Continue(next)
        });
        buf.filled = k;
        // The buffer still owns the survivors if this allocation panics.
        kept.reserve(k);
        buf.filled = 0;
        // SAFETY: the cursor only ever moved past a `Some`, and later
        // writes land at or beyond it, so slots `0..k` hold survivors;
        // each is read exactly once, and the buffer no longer owns them.
        kept.extend((0..k).map(|i| unsafe { slots.add(i).read().unwrap_unchecked() }));
        if folded < CHUNK {
            return kept;
        }
    }
}

/// Scan phases 1-2, shared by both scan flavors: per-block sums (fused
/// with the input's delayed work), then a sequential scan of the `nb`
/// sums. Returns the exclusive per-block seeds and the grand total.
pub fn scan_seeds<S, F>(s: &S, zero: S::Item, f: &F) -> (Vec<S::Item>, S::Item)
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    // Phase 1 streams the input once and pays one combine per element.
    let g = pin_geometry(s, SIMPLE);
    if g.nb == 0 {
        return (Vec::new(), zero);
    }
    let _span = profile::span(Stage::ScanEager);
    record(Stage::ScanEager, g);
    let sums = per_block(s, g, |_, mut stream| {
        let first = stream.next().expect("Seq invariant violated: empty block");
        fold_rest(&mut stream, 1, first, f)
    });
    counters::count_reads(g.nb);
    scan_sequential(&sums, zero, &|a, b| f(a.clone(), b.clone()))
}

// ---------------------------------------------------------------------
// Fallible drive loops
// ---------------------------------------------------------------------

/// Fallible two-phase block reduce: phase 1 short-circuits through
/// [`bds_pool::apply_cancellable`] (lowest failing block index wins, a
/// real panic beats an `Err`), phase 2 is a sequential fallible fold.
pub fn try_reduce<S, E, F>(s: &S, zero: S::Item, f: &F) -> Result<S::Item, E>
where
    S: Seq + ?Sized,
    E: Send,
    F: Fn(S::Item, S::Item) -> Result<S::Item, E> + Send + Sync,
{
    if s.is_empty() {
        return Ok(zero);
    }
    let g = pin_geometry(s, SIMPLE);
    let sums = try_per_block(s, g, |_, mut stream| {
        let first = stream.next().expect("Seq invariant violated: empty block");
        try_fold_rest(&mut stream, 1, first, f)
    })?;
    counters::count_reads(sums.len());
    let mut acc = zero;
    for s in sums {
        acc = f(acc, s)?;
    }
    Ok(acc)
}

/// Fallible eager exclusive scan: phases 1 and 3 run cancellably in
/// parallel, phase 2 sequentially. Eager (unlike the infallible scan,
/// which delays phase 3): a delayed fallible phase 3 would surface
/// errors at an arbitrary later consumer.
pub fn try_scan<S, E, F>(s: &S, zero: S::Item, f: &F) -> Result<(Forced<S::Item>, S::Item), E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    E: Send,
    F: Fn(S::Item, S::Item) -> Result<S::Item, E> + Send + Sync,
{
    if s.is_empty() {
        return Ok((Forced::from_vec(Vec::new()), zero));
    }
    // Combine in phase 1 plus a clone + write in phase 3, per element.
    let g = pin_geometry(s, ElemCost { w: 2, s: 2, a: 1 });
    // Phase 1: per-block sums (fused with the input's delayed work).
    let sums = try_per_block(s, g, |_, mut stream| {
        let first = stream.next().expect("Seq invariant violated: empty block");
        try_fold_rest(&mut stream, 1, first, f)
    })?;
    // Phase 2: sequential fallible scan of the block sums.
    counters::count_reads(g.nb);
    let mut seeds = Vec::with_capacity(g.nb);
    let mut acc = zero;
    for x in sums {
        seeds.push(acc.clone());
        acc = f(acc, x)?;
    }
    let total = acc;
    // Phase 3: per-block exclusive rescans seeded by the offsets.
    let out_pv = PartialVec::new(g.len);
    bds_pool::apply_cancellable(g.nb, |j| {
        // Retry-safe: the seed is re-read and the region re-written
        // from scratch, so a retried rescan is bit-identical.
        bds_pool::recover_block(j, || {
            let mut acc = seeds[j].clone();
            fill_block(s, g, j, &out_pv, |x| {
                let next = f(acc.clone(), x)?;
                Ok(std::mem::replace(&mut acc, next))
            })
        })
    })?;
    Ok((Forced::from_vec(out_pv.finish()), total))
}

/// Fallible blockwise survivor packing: the eager phase of
/// `try_filter_collect`, short-circuiting on the first predicate
/// failure. Returns the raw per-block survivor vectors; the caller
/// concatenates them.
pub fn try_filter_parts<S, E, P>(s: &S, pred: &P) -> Result<Vec<Vec<S::Item>>, E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    E: Send,
    P: Fn(&S::Item) -> Result<bool, E> + Send + Sync,
{
    // One predicate call and a possible survivor copy per element.
    let g = pin_geometry(s, ElemCost { w: 1, s: 1, a: 1 });
    try_per_block(s, g, |_, mut stream| {
        let mut kept: Vec<S::Item> = Vec::new();
        try_fold_rest(&mut stream, 0, (), |(), x| {
            if pred(&x)? {
                kept.push(x);
            }
            Ok(())
        })?;
        counters::count_writes(kept.len());
        counters::count_allocs(kept.len());
        Ok(kept)
    })
}

/// Fallible materialization for streams of `Result`s: unwrap every
/// element into one fresh buffer, short-circuiting on the first `Err`
/// in block order.
pub fn try_to_vec<S, T, E>(s: &S) -> Result<Vec<T>, E>
where
    S: Seq<Item = Result<T, E>> + ?Sized,
    T: Send,
    E: Send,
{
    // One unwrap + write into the fresh buffer per element.
    let g = pin_geometry(s, ElemCost { w: 1, s: 1, a: 1 });
    try_materialize_with(s, g, |x| x)
}

// ---------------------------------------------------------------------
// Chunked SIMD drive loop
// ---------------------------------------------------------------------

/// Chunked fallible sum: the unified counterpart of
/// [`simd::try_sum`], driving any [`Seq`] through the SIMD
/// dispatch ladder one [`simd::CHUNK`] at a time.
///
/// Blocks are streamed **sequentially in block order** and regrouped
/// into `CHUNK`-element chunks that ignore block seams, so the chunk
/// structure — and therefore the ordinal at which an armed
/// [`crate::faults`] countdown fires, and the `at` offset it reports —
/// is a pure function of the element stream: identical for every
/// instantiation of the core and identical to [`simd::try_sum`] on the
/// materialized elements. bds-check asserts exactly this
/// (`fault_legs` in `check/src/simd.rs`).
pub fn try_sum_chunked<S, T>(s: &S) -> Result<T, Interrupted>
where
    S: Seq<Item = T> + ?Sized,
    T: SimdElem,
{
    let level = simd::active_level();
    let g = pin_geometry(s, SIMPLE);
    let mut acc = T::ZERO;
    let mut buf: Vec<T> = Vec::with_capacity(simd::CHUNK.min(g.len));
    let mut at = 0;
    let mut flush = |buf: &mut Vec<T>| {
        if crate::faults::poll() {
            return Err(Interrupted { at });
        }
        acc = acc.add(T::sum_chunk(level, buf));
        at += buf.len();
        buf.clear();
        Ok(())
    };
    for j in 0..g.nb {
        try_fold_rest(&mut s.block(j), 0, (), |(), x| {
            buf.push(x);
            if buf.len() == simd::CHUNK {
                flush(&mut buf)?;
            }
            Ok(())
        })?;
    }
    if !buf.is_empty() {
        flush(&mut buf)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn drive_loops_consume_any_seq() {
        let _g = crate::policy::test_sync::test_force(16);
        let s = tabulate(100, |i| i as u64);
        let v = to_vec(&s);
        assert_eq!(v, (0..100).collect::<Vec<u64>>());
        assert_eq!(reduce(&s, 0, &|a, b| a + b), 4950);
        assert_eq!(count(&s, &|&x| x % 2 == 0), 50);
        let parts = filter_parts(&s, &|x| (x < 10).then_some(x));
        let survivors: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(survivors, 10);
    }

    #[test]
    fn empty_streams_take_the_trivial_paths() {
        let _l = crate::policy::test_sync::test_lock();
        let s = tabulate(0, |i| i as u64);
        assert_eq!(reduce(&s, 7, &|a, b| a + b), 7);
        assert_eq!(count(&s, &|_| true), 0);
        assert!(to_vec(&s).is_empty());
        let (seeds, total) = scan_seeds(&s, 3, &|a, b| a + b);
        assert!(seeds.is_empty());
        assert_eq!(total, 3);
        assert_eq!(try_sum_chunked(&s), Ok(0u64));
    }

    #[test]
    fn for_each_indexed_sees_global_indices() {
        let _g = crate::policy::test_sync::test_force(8);
        let s = tabulate(40, |i| i as u64 * 3);
        let hits = std::sync::atomic::AtomicU64::new(0);
        for_each_indexed(&s, &|i, x| {
            assert_eq!(x, i as u64 * 3);
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 40);
    }

    #[test]
    fn scan_seeds_match_sequential_prefix_sums() {
        let _g = crate::policy::test_sync::test_force(16);
        let s = tabulate(100, |_| 1u64);
        let (seeds, total) = scan_seeds(&s, 0, &|a, b| a + b);
        assert_eq!(total, 100);
        assert_eq!(seeds, (0..7).map(|j| j * 16).collect::<Vec<u64>>());
    }

    #[test]
    fn try_loops_short_circuit_and_agree_with_infallible() {
        let _g = crate::policy::test_sync::test_force(32);
        let s = tabulate(1000, |i| i as u64);
        let ok: Result<u64, ()> = try_reduce(&s, 0, &|a, b| Ok(a + b));
        assert_eq!(ok, Ok(499_500));
        let err = try_reduce(&s, 0, &|a, b| {
            if b == 777 {
                Err("hit")
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(err, Err("hit"));
        let parts = try_filter_parts(&s, &|&x| Ok::<bool, ()>(x < 5)).unwrap();
        assert_eq!(parts.concat(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chunked_sum_matches_simd_kernel_and_chunk_ordinals() {
        let _l = crate::policy::test_sync::test_lock();
        let xs: Vec<u64> = (0..simd::CHUNK as u64 * 3 + 17).map(|i| i * i).collect();
        let s = from_slice(&xs);
        assert_eq!(try_sum_chunked(&s), simd::try_sum(&xs));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn chunked_sum_faults_at_identical_ordinals() {
        let _l = crate::policy::test_sync::test_lock();
        let xs: Vec<u64> = (0..simd::CHUNK as u64 * 2 + 100).collect();
        let s = from_slice(&xs);
        for nth in 1..=3u64 {
            let want = {
                let _armed = crate::faults::arm(nth);
                simd::try_sum(&xs)
            };
            let got = {
                let _armed = crate::faults::arm(nth);
                try_sum_chunked(&s)
            };
            assert_eq!(got, want, "fault ordinal {nth}");
            assert_eq!(
                got,
                Err(Interrupted {
                    at: (nth as usize - 1) * simd::CHUNK
                })
            );
        }
    }
}
