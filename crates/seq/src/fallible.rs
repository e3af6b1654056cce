//! Fallible eager consumers: short-circuiting variants of `reduce`,
//! `scan`, `filter`, and `force` for pipelines whose closures can fail.
//!
//! All of these run their parallel phases through
//! [`bds_pool::apply_cancellable`], so the first block that returns
//! `Err` (or panics) cancels the region: sibling blocks stop at their
//! next block boundary instead of running to completion, and partial
//! output buffers drop their initialized elements exactly once (the
//! `PartialVec` protocol). The reported error is
//! deterministic — the one from the lowest failing block index — even
//! when several blocks fail concurrently; a real panic always wins over
//! an `Err` and is resumed at the join point.
//!
//! # Error counts under parallel evaluation
//!
//! Like their infallible counterparts, these operations may invoke the
//! fallible closure on *more* argument pairs than a sequential run
//! would (e.g. `try_scan`'s parallel combine tree evaluates per-block
//! partial sums). A failure anywhere in that tree yields `Err`, so an
//! operator that fails on some input may surface an error that a purely
//! sequential evaluation would not encounter. Operators should be
//! associative where they succeed, and fail consistently.

use crate::sources::Forced;
use crate::stream;
use crate::traits::Seq;
use crate::flatten::Flattened;

/// Fallible two-phase block reduce; see [`Seq::try_reduce`]. One
/// instantiation of the indexed-stream core's [`stream::try_reduce`].
pub(crate) fn try_reduce<S, E, F>(seq: &S, zero: S::Item, f: &F) -> Result<S::Item, E>
where
    S: Seq + ?Sized,
    F: Fn(S::Item, S::Item) -> Result<S::Item, E> + Send + Sync,
    E: Send,
{
    stream::try_reduce(seq, zero, f)
}

/// Fallible eager exclusive scan; see [`Seq::try_scan`]. One
/// instantiation of the indexed-stream core's [`stream::try_scan`].
pub(crate) fn try_scan<S, E, F>(
    seq: &S,
    zero: S::Item,
    f: &F,
) -> Result<(Forced<S::Item>, S::Item), E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> Result<S::Item, E> + Send + Sync,
    E: Send,
{
    stream::try_scan(seq, zero, f)
}

/// Fallible filter, materialized; see [`Seq::try_filter_collect`].
/// Phase 1 is the core's [`stream::try_filter_parts`] packing loop;
/// phase 2 concatenates in parallel by reusing the flatten machinery
/// (its `to_vec` streams each output block out of the packed parts).
pub(crate) fn try_filter_collect<S, E, P>(seq: &S, pred: &P) -> Result<Vec<S::Item>, E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    P: Fn(&S::Item) -> Result<bool, E> + Send + Sync,
    E: Send,
{
    let parts = stream::try_filter_parts(seq, pred)?;
    let flat = Flattened::from_inners(parts.into_iter().map(Forced::from_vec).collect());
    Ok(flat.to_vec())
}

/// Fallible materialization for sequences of `Result`s; see
/// [`TrySeqExt::try_to_vec`]. One instantiation of the core's
/// [`stream::try_to_vec`].
pub(crate) fn try_to_vec<S, T, E>(seq: &S) -> Result<Vec<T>, E>
where
    S: Seq<Item = Result<T, E>> + ?Sized,
    T: Send,
    E: Send,
{
    stream::try_to_vec(seq)
}

/// Extra consumers for sequences whose *elements* are `Result`s —
/// typically the output of a `map` with a fallible closure:
///
/// ```
/// use bds_seq::prelude::*;
/// use bds_seq::TrySeqExt;
///
/// let parsed = from_slice(&["4", "8", "15"])
///     .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
///     .try_to_vec();
/// assert_eq!(parsed, Ok(vec![4, 8, 15]));
///
/// let bad = from_slice(&["4", "x", "15"])
///     .map(|s| s.parse::<u64>().map_err(|_| format!("bad: {s}")))
///     .try_to_vec();
/// assert_eq!(bad, Err("bad: x".to_string()));
/// ```
pub trait TrySeqExt<T, E>: Seq<Item = Result<T, E>>
where
    T: Send,
    E: Send,
{
    /// Materialize into a `Vec`, short-circuiting on the first `Err` (in
    /// block order): sibling blocks stop at their next block boundary
    /// and already-produced elements are dropped.
    fn try_to_vec(&self) -> Result<Vec<T>, E> {
        try_to_vec(self)
    }

    /// Force into a materialized random-access sequence, short-
    /// circuiting like [`TrySeqExt::try_to_vec`].
    fn try_force(&self) -> Result<Forced<T>, E>
    where
        T: Clone + Sync,
    {
        self.try_to_vec().map(Forced::from_vec)
    }
}

impl<S, T, E> TrySeqExt<T, E> for S
where
    S: Seq<Item = Result<T, E>> + ?Sized,
    T: Send,
    E: Send,
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn try_reduce_ok_matches_reduce() {
        let got: Result<u64, ()> =
            tabulate(50_000, |i| i as u64).try_reduce(0, |a, b| Ok(a + b));
        assert_eq!(got, Ok(49_999u64 * 50_000 / 2));
    }

    #[test]
    fn try_reduce_short_circuits() {
        let _g = crate::policy::test_sync::test_force(64);
        let calls = AtomicUsize::new(0);
        // 641 is *inside* block 10 (not its first element, which would
        // seed the fold and never reach `combine` as an argument).
        let got = tabulate(100_000, |i| i as u64).try_reduce(0, |a, b| {
            calls.fetch_add(1, Ordering::Relaxed);
            if b == 641 {
                Err("hit 641")
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(got, Err("hit 641"));
        assert!(
            calls.load(Ordering::Relaxed) < 100_000,
            "siblings must be skipped, saw {} combines",
            calls.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn try_reduce_reported_error_is_a_real_failure() {
        // Many blocks fail concurrently. Which failing block is lowest
        // among those *observed* varies with scheduling (skipped blocks
        // never report — the barrier-based pool test pins down the
        // lowest-observed-wins rule), but the reported error must always
        // be a genuinely failing value.
        let _g = crate::policy::test_sync::test_force(16);
        for _ in 0..10 {
            let got = tabulate(10_000, |i| i).try_reduce(0, |a, b| {
                if b % 100 == 0 && b > 0 {
                    Err(b)
                } else {
                    Ok(a + b)
                }
            });
            let e = got.expect_err("some block must fail");
            assert!(e % 100 == 0 && e > 0, "reported {e}");
        }
    }

    #[test]
    fn try_reduce_empty_is_zero() {
        let got: Result<u64, &str> = tabulate(0, |_| 0u64).try_reduce(7, |_, _| Err("no"));
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn try_scan_ok_matches_scan() {
        let xs: Vec<u64> = (0..20_000).map(|i| (i * 31 + 7) % 997).collect();
        let (got, total) = from_slice(&xs)
            .try_scan(0, |a, b| Ok::<u64, ()>(a + b))
            .unwrap();
        let (want, want_total) = from_slice(&xs).scan(0, |a, b| a + b);
        assert_eq!(got.to_vec(), want.to_vec());
        assert_eq!(total, want_total);
    }

    #[test]
    fn try_scan_propagates_error() {
        let got = tabulate(10_000, |i| i as u64).try_scan(0, |a, b| {
            if a > 1000 {
                Err("overflowed 1000")
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(got.err(), Some("overflowed 1000"));
    }

    #[test]
    fn try_filter_collect_ok_matches_filter() {
        let xs: Vec<u64> = (0..30_000).map(|i| (i * 17) % 1000).collect();
        let got = from_slice(&xs)
            .try_filter_collect(|&x| Ok::<bool, ()>(x < 250))
            .unwrap();
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x < 250).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn try_filter_collect_propagates_error() {
        let got = tabulate(10_000, |i| i).try_filter_collect(|&x| {
            if x == 5_000 {
                Err("bad element")
            } else {
                Ok(x % 2 == 0)
            }
        });
        assert_eq!(got, Err("bad element"));
    }

    #[test]
    fn try_to_vec_and_try_force() {
        use crate::TrySeqExt;
        let ok = tabulate(5_000, Ok::<usize, String>).try_to_vec();
        assert_eq!(ok.as_deref(), Ok(&(0..5_000).collect::<Vec<_>>()[..]));

        let forced = tabulate(100, |i| Ok::<usize, String>(i * 2))
            .try_force()
            .unwrap();
        assert_eq!(forced.get(30), 60);

        let bad = tabulate(5_000, |i| {
            if i == 77 {
                Err(format!("element {i}"))
            } else {
                Ok(i)
            }
        })
        .try_to_vec();
        assert_eq!(bad, Err("element 77".to_string()));
    }

    #[test]
    fn try_to_vec_reported_error_is_a_real_failure() {
        let _g = crate::policy::test_sync::test_force(32);
        for _ in 0..10 {
            let bad = tabulate(10_000, |i| {
                if i % 1000 == 999 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .try_to_vec();
            let e = bad.expect_err("some block must fail");
            assert_eq!(e % 1000, 999, "reported {e}");
        }
    }

    #[test]
    fn fallible_consumers_fuse_with_delayed_pipelines() {
        // try_reduce over map∘scan: errors surface through the fused
        // delayed phase-3 streams.
        let (prefix, _) = tabulate(5_000, |_| 1u64).scan(0, |a, b| a + b);
        let got = prefix
            .map(|p| p * 2)
            .try_reduce(0, |a, b| a.checked_add(b).ok_or("overflow"));
        let want: u64 = (0..5_000u64).map(|p| p * 2).sum();
        assert_eq!(got, Ok(want));
    }
}
