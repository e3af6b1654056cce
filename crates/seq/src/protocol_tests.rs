//! The chunked block-stream protocol against per-element iteration.
//!
//! For every block type, consuming a block through
//! [`BlockStream::fold_upto`] must yield the same elements, in the same
//! order, with the same number of ticker polls as consuming it through
//! `next()`; cancellation must still be observed within one poll
//! interval; and a panic in the middle of a chunk — in a zip's lockstep
//! buffer or in a materializing write — must neither leak nor drop an
//! element twice. The same holds for the filter's branch-free survivor
//! packing ([`crate::stream::filter_parts`]) in every lowering. These
//! are lib tests so the Miri job covers the `unsafe` the protocol
//! relies on.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use bds_pool::{thread_ticker_polls, PollTicker};

use crate::prelude::*;
use crate::simd::CHUNK;
use crate::stream::{fold_chunks, pack_block, BlockStream, LOCKSTEP_MAX_ITEM};
use crate::{append, map_with_index, BoxSeq, Flattened, Forced};

const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17];

/// Forced block sizes: many tiny blocks, one poll interval, and blocks
/// longer than every length above (a single block).
const BLOCK_SIZES: [usize; 3] = [7, CHUNK, 4 * CHUNK];

/// Block `j`'s elements and the ticker polls they cost, by `next()`.
fn by_next<S: Seq>(s: &S, j: usize) -> (Vec<S::Item>, u64) {
    let before = thread_ticker_polls();
    let mut out = Vec::new();
    for x in s.block(j) {
        out.push(x);
    }
    (out, thread_ticker_polls() - before)
}

/// The same through the drive loops' chunk loop, after taking `first`
/// elements with `next()` (the seeded-fold shape of reduce and scan).
fn by_chunks<S: Seq>(s: &S, j: usize, first: usize) -> (Vec<S::Item>, u64) {
    let before = thread_ticker_polls();
    let mut it = s.block(j);
    let mut out: Vec<S::Item> = it.by_ref().take(first).collect();
    let from = out.len();
    (out, _) = fold_chunks(&mut it, from, usize::MAX, out, |mut v, x| {
        v.push(x);
        ControlFlow::Continue(v)
    });
    (out, thread_ticker_polls() - before)
}

/// The same through raw `fold_upto(odd)` calls, whose seams never line
/// up with a poll interval; an `odd` above the interval crosses several
/// poll boundaries per call.
fn by_odd_calls<S: Seq>(s: &S, j: usize, odd: usize) -> (Vec<S::Item>, u64) {
    let before = thread_ticker_polls();
    let mut it = s.block(j);
    let mut out = Vec::new();
    loop {
        let (v, k) = it.fold_upto(odd, out, |mut v, x| {
            v.push(x);
            ControlFlow::Continue(v)
        });
        out = v;
        if k < odd {
            break;
        }
    }
    (out, thread_ticker_polls() - before)
}

fn check<S>(what: &str, s: &S)
where
    S: Seq,
    S::Item: PartialEq + std::fmt::Debug,
{
    for j in 0..s.num_blocks() {
        let want = by_next(s, j);
        assert_eq!(by_chunks(s, j, 0), want, "{what}, block {j}");
        assert_eq!(by_chunks(s, j, 1), want, "{what}, block {j}, one next() first");
        for odd in [100, 2 * CHUNK + 100] {
            assert_eq!(by_odd_calls(s, j, odd), want, "{what}, block {j}, fold_upto({odd}) calls");
        }
    }
}

#[test]
fn fold_upto_matches_next_for_every_block_type() {
    for bs in BLOCK_SIZES {
        let _g = crate::policy::test_sync::test_force(bs);
        for n in LENGTHS {
            let data: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let idx = move |i: usize| i as u64 * 3;
            check("slice", &from_slice(&data));
            check("forced", &Forced::from_vec(data.clone()));
            check("tabulate", &tabulate(n, idx));
            check("rad block (rev)", &tabulate(n, idx).rev());
            check("append", &append(tabulate(n / 2, idx), tabulate(n - n / 2, idx)));
            check("map", &from_slice(&data).map(|x| x ^ 5));
            check("zip_with", &from_slice(&data).zip_with(tabulate(n, idx), |a, b| a * b));
            check("zip", &from_slice(&data).zip(tabulate(n, idx)));
            check("enumerate", &from_slice(&data).enumerate());
            check("map_with_index", &map_with_index(tabulate(n, idx), |i, x| x + i as u64));
            let (scanned, _) = from_slice(&data).scan(0, |a, b| a + b);
            check("scan", &scanned);
            check("scan_incl", &tabulate(n, idx).scan_incl(0, |a, b| a ^ b));
            check("zip of a scan", &scanned.zip_with(from_slice(&data), u64::wrapping_sub));
            check("filter (region walk)", &from_slice(&data).filter(|x| x % 3 != 0));
            let inners = [5, 0, CHUNK, 0, 0, 3, 2 * CHUNK + 1];
            let flat = Flattened::from_inners(
                inners
                    .iter()
                    .map(|&k| Forced::from_vec((0..k as u64).collect()))
                    .collect(),
            );
            check("flatten with empty inners", &flat);
            check("boxed", &BoxSeq::new(Forced::from_vec(data.clone()).map(|x| x + 1)));
            // Left-side items too large for the lockstep buffer zip one
            // element at a time.
            check("zip of large items", &tabulate(n, |i| [i as u64; 8]).zip(from_slice(&data)));
        }
    }
}

/// A `Seq` of `n` elements whose index function cancels `token` when
/// the `k`-th element is produced and counts every element produced.
fn cancel_at<'a>(
    n: usize,
    k: usize,
    token: &'a bds_pool::CancelToken,
    produced: &'a AtomicUsize,
) -> impl RadSeq<Item = u64> + 'a {
    tabulate(n, move |i| {
        if produced.fetch_add(1, Ordering::Relaxed) + 1 == k {
            token.cancel();
        }
        i as u64
    })
}

#[test]
fn cancellation_mid_block_is_observed_within_one_interval() {
    const N: usize = 100_000;
    const K: usize = 10_000;
    let _g = crate::policy::test_sync::test_force(N);
    let bound = K + PollTicker::INTERVAL as usize;
    let cases: [(&str, usize); 3] = [("materialize", 0), ("zip, left side", 1), ("zip, right side", 2)];
    for (what, case) in cases {
        let token = bds_pool::CancelToken::new();
        let produced = AtomicUsize::new(0);
        let counted = cancel_at(N, K, &token, &produced);
        let plain = tabulate(N, |i| i as u64);
        let outcome = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                bds_pool::with_token(&token, || match case {
                    0 => counted.to_vec().len(),
                    1 => counted.zip_with(plain, |a, b| a + b).to_vec().len(),
                    _ => plain.zip_with(counted, |a, b| a + b).to_vec().len(),
                })
            }))
        });
        assert!(outcome.is_err(), "{what}: a cancelled block must be abandoned");
        let seen = produced.load(Ordering::Relaxed);
        assert!(seen <= bound, "{what}: {seen} elements produced, bound {bound}");
    }
}

/// Run `f` with panic messages silenced.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

/// A heap-backed element that counts itself: a leak leaves `live`
/// positive, a double drop drives it negative (and frees a box twice).
struct Tracked<'a> {
    v: Box<u64>,
    live: &'a AtomicIsize,
}

impl<'a> Tracked<'a> {
    fn new(v: u64, live: &'a AtomicIsize) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Tracked { v: Box::new(v), live }
    }
}

impl Clone for Tracked<'_> {
    fn clone(&self) -> Self {
        Tracked::new(*self.v, self.live)
    }
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Mid-chunk position of the second chunk, where every panic fires.
const AT: usize = CHUNK + CHUNK / 2 + 3;
const N: usize = 3 * CHUNK + 17;

#[test]
fn panic_inside_the_zip_buffer_neither_leaks_nor_double_drops() {
    let _g = crate::policy::test_sync::test_force(2 * CHUNK);
    let live = AtomicIsize::new(0);
    let tracked = |i: usize| Tracked::new(i as u64, &live);
    let boom = |i: usize| {
        if i == AT {
            panic!("mid-chunk fault");
        }
        i as u64
    };
    // Right side panics while buffered left items wait to be taken.
    let r = quietly(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tabulate(N, tracked).zip_with(tabulate(N, boom), |t, k| *t.v + k).reduce(0, |a, b| a + b)
        }))
    });
    assert!(r.is_err());
    assert_eq!(live.load(Ordering::Relaxed), 0, "right-side panic");
    // Left side panics while the buffer is half filled.
    let r = quietly(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let left = tabulate(N, |i| Tracked::new(boom(i), &live));
            left.zip_with(tabulate(N, tracked), |a, b| *a.v + *b.v).to_vec()
        }))
    });
    assert!(r.is_err());
    assert_eq!(live.load(Ordering::Relaxed), 0, "left-side panic");
    // The combining closure panics holding its left item; the output
    // elements already materialized are dropped too.
    let r = quietly(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tabulate(N, tracked)
                .zip(tabulate(N, |i| i))
                .map(|(t, i)| {
                    boom(i);
                    t
                })
                .to_vec()
        }))
    });
    assert!(r.is_err());
    assert_eq!(live.load(Ordering::Relaxed), 0, "consumer panic");
}

#[test]
fn panic_inside_materialize_neither_leaks_nor_double_drops() {
    let _g = crate::policy::test_sync::test_force(2 * CHUNK);
    let live = AtomicIsize::new(0);
    let r = quietly(|| {
        catch_unwind(AssertUnwindSafe(|| {
            tabulate(N, |i| {
                if i == AT {
                    panic!("mid-chunk fault");
                }
                Tracked::new(i as u64, &live)
            })
            .to_vec()
        }))
    });
    assert!(r.is_err());
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

#[test]
fn retried_mid_chunk_fault_is_bit_identical() {
    let _g = crate::policy::test_sync::test_force(2 * CHUNK);
    let live = AtomicIsize::new(0);
    let fired = AtomicBool::new(false);
    let pipeline = || {
        let (scanned, _) = tabulate(N, |i| i as u64).scan(0, |a, b| a + b);
        scanned
            .zip_with(tabulate(N, |i| i), |s, i| {
                if i == AT && !fired.swap(true, Ordering::Relaxed) {
                    panic!("transient mid-chunk fault");
                }
                Tracked::new(s ^ i as u64, &live)
            })
            .to_vec()
    };
    fired.store(true, Ordering::Relaxed);
    let clean: Vec<u64> = pipeline().iter().map(|t| *t.v).collect();
    fired.store(false, Ordering::Relaxed);
    let retried = quietly(|| bds_pool::run_recovered(bds_pool::RetryPolicy::default(), pipeline))
        .expect("a transient fault is retried");
    assert!(fired.load(Ordering::Relaxed), "the fault fired");
    assert_eq!(retried.iter().map(|t| *t.v).collect::<Vec<_>>(), clean);
    assert_eq!(live.load(Ordering::Relaxed), N as isize);
    drop(retried);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

// ---------------------------------------------------------------------
// Survivor packing
// ---------------------------------------------------------------------

/// Selectivities: none, every element, alternating, pseudo-random.
const SELECTIVITIES: [&str; 4] = ["0%", "100%", "alternating", "random"];

/// Whether `x` survives under selectivity `sel` (an index into
/// [`SELECTIVITIES`]). The test data `7i + 1` alternates in parity.
fn keeps(sel: usize, x: u64) -> bool {
    match sel {
        0 => false,
        1 => true,
        2 => x.is_multiple_of(2),
        _ => x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1,
    }
}

#[test]
fn filter_lowerings_match_the_sequential_oracle() {
    for bs in [7, CHUNK] {
        let _g = crate::policy::test_sync::test_force(bs);
        for n in LENGTHS {
            let data: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            for (sel, name) in SELECTIVITIES.iter().enumerate() {
                let what = format!("n = {n}, block size {bs}, selectivity {name}");
                let pred = move |x: &u64| keeps(sel, *x);
                let f = move |x: u64| keeps(sel, x).then_some(x * 3);
                let want: Vec<u64> = data.iter().copied().filter(pred).collect();
                let want_op: Vec<u64> = data.iter().copied().filter_map(f).collect();
                let forced = || Forced::from_vec(data.clone());
                assert_eq!(
                    from_slice(&data).filter(pred).to_vec(),
                    want,
                    "static filter, {what}"
                );
                assert_eq!(
                    from_slice(&data).filter_op(f).to_vec(),
                    want_op,
                    "static filter_op, {what}"
                );
                assert_eq!(
                    BoxSeq::new(forced()).filter(pred).to_vec(),
                    want,
                    "BoxSeq filter, {what}"
                );
                assert_eq!(
                    BoxSeq::new(forced()).filter_op(f).to_vec(),
                    want_op,
                    "BoxSeq filter_op, {what}"
                );
            }
        }
    }
}

/// Pack every block of `s` through `keep` with the chunked pack loop
/// and with per-element `next()`, and compare survivors and the ticker
/// polls each cost.
fn check_pack<S, U>(what: &str, s: &S, keep: impl Fn(S::Item) -> Option<U>)
where
    S: Seq,
    U: PartialEq + std::fmt::Debug,
{
    for j in 0..s.num_blocks() {
        let before = thread_ticker_polls();
        let mut want = Vec::new();
        for x in s.block(j) {
            if let Some(y) = keep(x) {
                want.push(y);
            }
        }
        let want = (want, thread_ticker_polls() - before);
        let before = thread_ticker_polls();
        let got = pack_block(&mut s.block(j), &keep);
        assert_eq!(
            (got, thread_ticker_polls() - before),
            want,
            "{what}, block {j}"
        );
    }
}

#[test]
fn pack_loop_matches_per_element_packing_and_polls() {
    // Items whose `Option` exceeds the stack buffer's bound take the
    // per-element fallback; 16-byte points stay buffered.
    assert!(std::mem::size_of::<Option<[u64; 4]>>() > LOCKSTEP_MAX_ITEM);
    assert!(std::mem::size_of::<Option<(f64, f64)>>() <= LOCKSTEP_MAX_ITEM);
    for bs in [7, CHUNK, 4 * CHUNK] {
        let _g = crate::policy::test_sync::test_force(bs);
        for n in LENGTHS {
            let data: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            for (sel, name) in SELECTIVITIES.iter().enumerate() {
                let what =
                    |block: &str| format!("{block}, n = {n}, block size {bs}, selectivity {name}");
                let keep = move |x: u64| keeps(sel, x).then_some(x);
                check_pack(&what("slice"), &from_slice(&data), keep);
                check_pack(&what("tabulate"), &tabulate(n, |i| i as u64 * 7 + 1), keep);
                check_pack(&what("map"), &from_slice(&data).map(|x| x ^ 4), keep);
                let (scanned, _) = from_slice(&data).scan(0, |a, b| a + b);
                check_pack(&what("scan"), &scanned, keep);
                check_pack(
                    &what("zip"),
                    &from_slice(&data).zip(tabulate(n, |i| i)),
                    |(x, i)| keeps(sel, x).then_some((x, i)),
                );
                check_pack(
                    &what("boxed"),
                    &BoxSeq::new(Forced::from_vec(data.clone())),
                    keep,
                );
                check_pack(&what("points"), &from_slice(&data), |x| {
                    keeps(sel, x).then_some((x as f64, -(x as f64)))
                });
                check_pack(&what("large items (fallback)"), &from_slice(&data), |x| {
                    keeps(sel, x).then_some([x; 4])
                });
            }
        }
    }
}

static PRED_LIVE: AtomicIsize = AtomicIsize::new(0);
static MAP_LIVE: AtomicIsize = AtomicIsize::new(0);

/// The panic-site probe of the pack-loop tests: panics on element `AT`.
fn boom_at(v: u64) {
    if v == AT as u64 {
        panic!("mid-chunk fault");
    }
}

/// Run `f`, expecting it to panic, and check that `live` is back at 0.
fn panics_cleanly<R>(what: &str, live: &AtomicIsize, f: impl FnOnce() -> R) {
    let r = quietly(|| catch_unwind(AssertUnwindSafe(f)));
    assert!(r.is_err(), "{what}: the fault must surface");
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "{what}: leak or double drop"
    );
}

#[test]
fn panic_inside_the_pack_loop_neither_leaks_nor_double_drops() {
    // One block holds the first two chunks, so the panic at `AT` fires
    // with one chunk of survivors already packed and half a chunk
    // buffered.
    let _g = crate::policy::test_sync::test_force(2 * CHUNK);
    let live = &PRED_LIVE;
    let tracked = |i: usize| Tracked::new(i as u64, &PRED_LIVE);
    let pred = |t: &Tracked<'static>| {
        boom_at(*t.v);
        !t.v.is_multiple_of(3)
    };
    panics_cleanly("static filter", live, || {
        tabulate(N, tracked).filter(pred).to_vec()
    });
    panics_cleanly("BoxSeq filter", live, || {
        BoxSeq::new(tabulate(N, tracked)).filter(pred).to_vec()
    });

    // `f` panics while both its input and earlier outputs are live.
    let live = &MAP_LIVE;
    let tracked = |i: usize| Tracked::new(i as u64, &MAP_LIVE);
    let f = |t: Tracked<'static>| {
        boom_at(*t.v);
        (!t.v.is_multiple_of(3)).then(|| Tracked::new(*t.v * 2, t.live))
    };
    panics_cleanly("static filter_op", live, || {
        tabulate(N, tracked).filter_op(f).to_vec()
    });
    panics_cleanly("BoxSeq filter_op", live, || {
        BoxSeq::new(tabulate(N, tracked)).filter_op(f).to_vec()
    });
}

static RETRY_LIVE: AtomicIsize = AtomicIsize::new(0);
static RETRY_FIRED: AtomicBool = AtomicBool::new(false);

#[test]
fn retried_fault_in_the_pack_loop_is_bit_identical() {
    let _g = crate::policy::test_sync::test_force(2 * CHUNK);
    let tracked = |i: usize| Tracked::new(i as u64, &RETRY_LIVE);
    let f = |t: Tracked<'static>| {
        if *t.v == AT as u64 && !RETRY_FIRED.swap(true, Ordering::Relaxed) {
            panic!("transient mid-chunk fault");
        }
        keeps(3, *t.v).then_some(t)
    };
    let values = |v: Vec<Tracked<'static>>| v.iter().map(|t| *t.v).collect::<Vec<u64>>();
    let lowerings: [(&str, &dyn Fn() -> Vec<Tracked<'static>>); 2] = [
        ("static", &|| tabulate(N, tracked).filter_op(f).to_vec()),
        ("BoxSeq", &|| {
            BoxSeq::new(tabulate(N, tracked)).filter_op(f).to_vec()
        }),
    ];
    for (what, pipeline) in lowerings {
        RETRY_FIRED.store(true, Ordering::Relaxed);
        let clean = values(pipeline());
        RETRY_FIRED.store(false, Ordering::Relaxed);
        let retried =
            quietly(|| bds_pool::run_recovered(bds_pool::RetryPolicy::default(), pipeline))
                .expect("a transient fault is retried");
        assert!(
            RETRY_FIRED.load(Ordering::Relaxed),
            "{what}: the fault fired"
        );
        assert_eq!(
            RETRY_LIVE.load(Ordering::Relaxed),
            retried.len() as isize,
            "{what}: live survivors"
        );
        assert_eq!(values(retried), clean, "{what}");
        assert_eq!(
            RETRY_LIVE.load(Ordering::Relaxed),
            0,
            "{what}: leak after drop"
        );
    }
}

#[test]
fn cancellation_inside_the_pack_loop_is_observed_within_one_interval() {
    const N: usize = 100_000;
    const K: usize = 10_000;
    let _g = crate::policy::test_sync::test_force(N);
    let bound = K + PollTicker::INTERVAL as usize;
    for what in ["static", "BoxSeq"] {
        let token = bds_pool::CancelToken::new();
        let produced = std::sync::Arc::new(AtomicUsize::new(0));
        // Owned handles, so the erased lowering gets a `'static` source.
        let (t, p) = (token.clone(), std::sync::Arc::clone(&produced));
        let index = move |i: usize| {
            if p.fetch_add(1, Ordering::Relaxed) + 1 == K {
                t.cancel();
            }
            i as u64
        };
        let even = |x: &u64| x.is_multiple_of(2);
        let outcome = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                bds_pool::with_token(&token, || match what {
                    "static" => tabulate(N, index).filter(even).len(),
                    _ => BoxSeq::new(tabulate(N, index)).filter(even).len(),
                })
            }))
        });
        assert!(
            outcome.is_err(),
            "{what}: a cancelled block must be abandoned"
        );
        let seen = produced.load(Ordering::Relaxed);
        assert!(
            seen <= bound,
            "{what}: {seen} elements produced, bound {bound}"
        );
    }
}
