//! Plan execution: lowering a [`Plan`]'s steps onto the static library.
//!
//! The executor mirrors how the static combinators lower a pipeline —
//! random-access delayed (RAD) while the stream supports O(1) indexing,
//! block-iterable delayed (BID) after a collapse point, a force at the
//! first cut on a BID stream — so an optimized plan and the stage-by-
//! stage lowering apply *the same element operations in the same order*.
//! That equivalence is what `bds-check` verifies differentially, faults
//! included.
//!
//! Closure hygiene: every `execute` call builds fresh fused closures
//! from the pipe's own stage list. The [`Plan`] contributes only stage
//! indices and the mode, so a plan shared across pipelines (or tenants)
//! can never leak one caller's captures into another's run.

use bds_seq::{tabulate, BoxRad, BoxSeq, Forced, RadSeq, Seq};

use crate::optimize::{ExecMode, Plan, PlanStep};
use crate::pipe::{Consumed, ConsumerOp, FilterMapFn, Pipe, SourceOp, StageOp};

/// The executor's stream state: RAD while random access survives, BID
/// after a collapse point.
enum St<T: Send + Sync + Clone + 'static> {
    Rad(BoxRad<T>),
    Bid(BoxSeq<T>),
}

impl<T: Send + Sync + Clone + 'static> St<T> {
    fn len(&self) -> usize {
        match self {
            St::Rad(r) => r.len(),
            St::Bid(b) => b.len(),
        }
    }

    /// Force to a materialised random-access vector — the price a BID
    /// stream pays at its first index-space stage.
    fn into_forced(self) -> Forced<T> {
        match self {
            St::Rad(r) => r.force(),
            St::Bid(b) => b.force(),
        }
    }
}

impl<T: Send + Sync + Clone + 'static> Pipe<T> {
    /// Run this pipeline under `plan`, feeding the final stream to
    /// `consumer`.
    ///
    /// The plan must have been produced for this pipe's
    /// [`shape`](Pipe::shape) (any pipe of equal shape works — that is
    /// the plan cache's whole point).
    ///
    /// # Panics
    ///
    /// If `plan.shape` disagrees with this pipe's stage list — a plan
    /// from a different shape would index the wrong stages.
    pub fn execute(&self, plan: &Plan, consumer: &ConsumerOp<T>) -> Consumed<T> {
        let shape = self.shape(consumer.kind());
        assert_eq!(
            plan.shape, shape,
            "plan was built for a different pipeline shape"
        );
        match plan.mode {
            ExecMode::Parallel => self.execute_parallel(plan, consumer),
            ExecMode::Sequential => self.execute_sequential(plan, consumer),
        }
    }

    /// Plan-and-run convenience: fetch (or optimize) this pipe's plan
    /// from `cache` for a pool of `workers`, then collect.
    pub fn collect_with(&self, cache: &crate::PlanCache, workers: usize) -> Vec<T> {
        let (plan, _) = cache.plan(self.shape(crate::ConsumerKind::Collect), workers);
        match self.execute(&plan, &ConsumerOp::Collect) {
            Consumed::Vec(v) => v,
            _ => unreachable!("collect plan produced a non-vec"),
        }
    }

    /// Plan-and-run convenience for an order-preserving reduce.
    pub fn reduce_with(
        &self,
        cache: &crate::PlanCache,
        workers: usize,
        zero: T,
        combine: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> T {
        let (plan, _) = cache.plan(self.shape(crate::ConsumerKind::Reduce), workers);
        let consumer = ConsumerOp::Reduce(zero, std::sync::Arc::new(combine), bds_cost::SIMPLE);
        match self.execute(&plan, &consumer) {
            Consumed::Scalar(x) => x,
            _ => unreachable!("reduce plan produced a non-scalar"),
        }
    }

    /// Plan-and-run convenience for a predicate count.
    pub fn count_with(
        &self,
        cache: &crate::PlanCache,
        workers: usize,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
    ) -> usize {
        let (plan, _) = cache.plan(self.shape(crate::ConsumerKind::Count), workers);
        let consumer = ConsumerOp::Count(std::sync::Arc::new(pred), bds_cost::SIMPLE);
        match self.execute(&plan, &consumer) {
            Consumed::Num(n) => n,
            _ => unreachable!("count plan produced a non-count"),
        }
    }

    fn execute_parallel(&self, plan: &Plan, consumer: &ConsumerOp<T>) -> Consumed<T> {
        let mut st = match &self.source {
            SourceOp::Tabulate(n, f, _) => {
                let f = f.clone();
                St::Rad(BoxRad::new(tabulate(*n, move |i| f(i))))
            }
            SourceOp::FromVec(data) => St::Rad(BoxRad::new(Forced::from_vec(data.as_ref().clone()))),
        };
        for step in &plan.steps {
            st = match step {
                PlanStep::Stage(i) => self.apply_stage(st, *i),
                PlanStep::FusedFilterMap(idxs) => {
                    let g = self.fuse_run(idxs);
                    St::Bid(BoxSeq::new(match st {
                        St::Rad(r) => r.filter_op(move |x| g(x)),
                        St::Bid(b) => b.filter_op(move |x| g(x)),
                    }))
                }
                PlanStep::Gather(idxs) => {
                    let (offset, len, reversed) = self.gather_params(idxs, st.len());
                    let r = match st {
                        St::Rad(r) => r,
                        bid => BoxRad::new(bid.into_forced()),
                    };
                    let r = BoxRad::new(r.skip(offset));
                    let r = BoxRad::new(r.take(len));
                    St::Rad(if reversed { BoxRad::new(r.rev()) } else { r })
                }
            };
        }
        match st {
            St::Rad(r) => consume(&r, consumer),
            St::Bid(b) => consume(&b, consumer),
        }
    }

    fn apply_stage(&self, st: St<T>, i: usize) -> St<T> {
        match &self.stages[i] {
            StageOp::Map(f, _) => {
                let f = f.clone();
                match st {
                    St::Rad(r) => St::Rad(BoxRad::new(r.map(move |x| f(x)))),
                    St::Bid(b) => St::Bid(BoxSeq::new(b.map(move |x| f(x)))),
                }
            }
            StageOp::MapIdx(f, _) => {
                // Lowered as a zip with an index partner, exactly like
                // the static library's index-aware zips: stays lazy and
                // representation-preserving.
                let f = f.clone();
                let partner = tabulate(st.len(), |i| i);
                match st {
                    St::Rad(r) => St::Rad(BoxRad::new(r.zip_with(partner, move |x, i| f(i, x)))),
                    St::Bid(b) => St::Bid(BoxSeq::new(b.zip_with(partner, move |x, i| f(i, x)))),
                }
            }
            StageOp::Filter(p, _) => {
                let p = p.clone();
                St::Bid(BoxSeq::new(match st {
                    St::Rad(r) => r.filter(move |x: &T| p(x)),
                    St::Bid(b) => b.filter(move |x: &T| p(x)),
                }))
            }
            StageOp::FilterMap(f, _) => {
                let f = f.clone();
                St::Bid(BoxSeq::new(match st {
                    St::Rad(r) => r.filter_op(move |x| f(x)),
                    St::Bid(b) => b.filter_op(move |x| f(x)),
                }))
            }
            StageOp::Scan(zero, f, _) => {
                let f = f.clone();
                St::Bid(match st {
                    St::Rad(r) => BoxSeq::new(r.scan(zero.clone(), move |a, b| f(a, b)).0),
                    St::Bid(b) => BoxSeq::new(b.scan(zero.clone(), move |a, b| f(a, b)).0),
                })
            }
            StageOp::ScanIncl(zero, f, _) => {
                let f = f.clone();
                St::Bid(match st {
                    St::Rad(r) => BoxSeq::new(r.scan_incl(zero.clone(), move |a, b| f(a, b))),
                    St::Bid(b) => BoxSeq::new(b.scan_incl(zero.clone(), move |a, b| f(a, b))),
                })
            }
            StageOp::Take(k) => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.take(*k))),
                bid => St::Rad(BoxRad::new(bid.into_forced().take(*k))),
            },
            StageOp::Skip(k) => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.skip(*k))),
                bid => St::Rad(BoxRad::new(bid.into_forced().skip(*k))),
            },
            StageOp::Rev => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.rev())),
                bid => St::Rad(BoxRad::new(bid.into_forced().rev())),
            },
        }
    }

    /// Compose a fused run's stages into one `filter_op` closure. Built
    /// fresh per execution; applies the run's closures to each element
    /// in stage order, short-circuiting on the first rejection — the
    /// same applications, in the same order, as the unfused stages.
    fn fuse_run(&self, idxs: &[usize]) -> FilterMapFn<T> {
        let mut fused: FilterMapFn<T> = std::sync::Arc::new(Some);
        for &i in idxs {
            let prev = fused;
            fused = match &self.stages[i] {
                StageOp::Map(f, _) => {
                    let f = f.clone();
                    std::sync::Arc::new(move |x| prev(x).map(|y| f(y)))
                }
                StageOp::Filter(p, _) => {
                    let p = p.clone();
                    std::sync::Arc::new(move |x| prev(x).filter(|y| p(y)))
                }
                StageOp::FilterMap(f, _) => {
                    let f = f.clone();
                    std::sync::Arc::new(move |x| prev(x).and_then(|y| f(y)))
                }
                _ => unreachable!("optimizer fused a non-fusable stage"),
            };
        }
        fused
    }

    /// Compose a gather run's cuts into `(offset, len, reversed)` over
    /// an input of length `in_len`. Walking the cuts in order while
    /// tracking orientation reproduces exactly the window the
    /// stage-by-stage cuts would select.
    fn gather_params(&self, idxs: &[usize], in_len: usize) -> (usize, usize, bool) {
        let (mut offset, mut len, mut reversed) = (0usize, in_len, false);
        for &i in idxs {
            match &self.stages[i] {
                StageOp::Take(k) => {
                    let k = (*k).min(len);
                    if reversed {
                        // Keeping the first k of a reversed view keeps
                        // the *last* k of the underlying window.
                        offset += len - k;
                    }
                    len = k;
                }
                StageOp::Skip(k) => {
                    let k = (*k).min(len);
                    if !reversed {
                        offset += k;
                    }
                    len -= k;
                }
                StageOp::Rev => reversed = !reversed,
                _ => unreachable!("optimizer gathered a non-cut stage"),
            }
        }
        (offset, len, reversed)
    }

    fn execute_sequential(&self, plan: &Plan, consumer: &ConsumerOp<T>) -> Consumed<T> {
        // The sequential lowering is one block as far as recovery is
        // concerned: it never reserves disjoint output regions, so under
        // an ambient `RetryPolicy` a transient fault retries the whole
        // (by-design-cheap) run — the same contract a one-block parallel
        // geometry has. Without a policy this is a plain pass-through.
        bds_pool::recover_block(0, || {
            let mut v: Vec<T> = match &self.source {
                SourceOp::Tabulate(n, f, _) => (0..*n).map(|i| f(i)).collect(),
                SourceOp::FromVec(data) => data.as_ref().clone(),
            };
            for step in &plan.steps {
                v = match step {
                    PlanStep::Stage(i) => self.apply_stage_vec(v, *i),
                    PlanStep::FusedFilterMap(idxs) => {
                        let g = self.fuse_run(idxs);
                        v.into_iter().filter_map(|x| g(x)).collect()
                    }
                    PlanStep::Gather(idxs) => {
                        let (offset, len, reversed) = self.gather_params(idxs, v.len());
                        let mut out: Vec<T> = v.into_iter().skip(offset).take(len).collect();
                        if reversed {
                            out.reverse();
                        }
                        out
                    }
                };
            }
            match consumer {
                ConsumerOp::Collect => Consumed::Vec(v),
                // Left fold: the same order-preserving combine the parallel
                // reduce computes for an associative combiner.
                ConsumerOp::Reduce(zero, f, _) => {
                    Consumed::Scalar(v.into_iter().fold(zero.clone(), |a, b| f(a, b)))
                }
                ConsumerOp::Count(p, _) => Consumed::Num(v.iter().filter(|x| p(x)).count()),
            }
        })
    }

    fn apply_stage_vec(&self, v: Vec<T>, i: usize) -> Vec<T> {
        match &self.stages[i] {
            StageOp::Map(f, _) => v.into_iter().map(|x| f(x)).collect(),
            StageOp::MapIdx(f, _) => v.into_iter().enumerate().map(|(i, x)| f(i, x)).collect(),
            StageOp::Filter(p, _) => v.into_iter().filter(|x| p(x)).collect(),
            StageOp::FilterMap(f, _) => v.into_iter().filter_map(|x| f(x)).collect(),
            StageOp::Scan(zero, f, _) => {
                let mut acc = zero.clone();
                v.into_iter()
                    .map(|x| {
                        let out = acc.clone();
                        acc = f(acc.clone(), x);
                        out
                    })
                    .collect()
            }
            StageOp::ScanIncl(zero, f, _) => {
                let mut acc = zero.clone();
                v.into_iter()
                    .map(|x| {
                        acc = f(acc.clone(), x);
                        acc.clone()
                    })
                    .collect()
            }
            StageOp::Take(k) => {
                let mut v = v;
                v.truncate(*k);
                v
            }
            StageOp::Skip(k) => {
                let k = (*k).min(v.len());
                let mut v = v;
                v.drain(..k);
                v
            }
            StageOp::Rev => {
                let mut v = v;
                v.reverse();
                v
            }
        }
    }
}

fn consume<T, S>(s: &S, consumer: &ConsumerOp<T>) -> Consumed<T>
where
    T: Send + Sync + Clone + 'static,
    S: Seq<Item = T>,
{
    // Every arm is a direct call into the unified indexed-stream drive
    // loops: the plan legs consume through exactly the engine the
    // static and erased legs use.
    use bds_seq::stream;
    match consumer {
        ConsumerOp::Collect => Consumed::Vec(stream::to_vec(s)),
        ConsumerOp::Reduce(zero, f, _) => {
            let f = f.clone();
            Consumed::Scalar(stream::reduce(s, zero.clone(), &move |a, b| f(a, b)))
        }
        ConsumerOp::Count(p, _) => {
            let p = p.clone();
            Consumed::Num(stream::count(s, &move |x| p(x)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{identity_plan, optimize};
    use crate::shape::ConsumerKind;

    /// Reference evaluation by plain iterators.
    fn reference(pipe: &Pipe<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = match &pipe.source {
            SourceOp::Tabulate(n, f, _) => (0..*n).map(|i| f(i)).collect(),
            SourceOp::FromVec(data) => data.as_ref().clone(),
        };
        for i in 0..pipe.stages.len() {
            v = pipe.apply_stage_vec(v, i);
        }
        v
    }

    fn check_all_lowerings(pipe: Pipe<u64>) {
        let expect = reference(&pipe);
        let shape = pipe.shape(ConsumerKind::Collect);
        for plan in [
            optimize(shape.clone(), 4),
            identity_plan(shape.clone(), ExecMode::Parallel),
            identity_plan(shape, ExecMode::Sequential),
        ] {
            match pipe.execute(&plan, &ConsumerOp::Collect) {
                Consumed::Vec(v) => assert_eq!(v, expect, "plan {plan:?} diverged"),
                other => panic!("expected vec, got {other:?}"),
            }
        }
    }

    #[test]
    fn gather_composition_matches_stage_by_stage_cuts() {
        let n = 100;
        let cut_chains: Vec<Vec<StageOp<u64>>> = vec![
            vec![StageOp::Rev, StageOp::Take(3)],
            vec![StageOp::Skip(2), StageOp::Rev],
            vec![StageOp::Take(50), StageOp::Skip(20), StageOp::Rev],
            vec![StageOp::Rev, StageOp::Rev],
            vec![StageOp::Skip(30), StageOp::Take(40), StageOp::Rev, StageOp::Skip(5)],
            vec![StageOp::Take(0), StageOp::Rev],
            vec![StageOp::Take(200), StageOp::Skip(200)],
            vec![StageOp::Rev, StageOp::Skip(97), StageOp::Take(99)],
        ];
        for chain in cut_chains {
            let mut pipe = Pipe::tabulate(n, |i| i as u64).map(|x| x * 7);
            pipe.stages.extend(chain);
            check_all_lowerings(pipe);
        }
    }

    #[test]
    fn fused_runs_match_stage_by_stage_lowering() {
        let pipe = Pipe::tabulate(1000, |i| i as u64)
            .map(|x| x * 3)
            .filter(|&x| x % 2 == 0)
            .filter_map(|x| (x % 5 != 0).then_some(x + 1))
            .map(|x| x / 2);
        let shape = pipe.shape(ConsumerKind::Collect);
        let plan = optimize(shape, 4);
        assert!(
            plan.steps
                .iter()
                .any(|s| matches!(s, PlanStep::FusedFilterMap(_))),
            "expected a fused run in {:?}",
            plan.steps
        );
        check_all_lowerings(pipe);
    }

    #[test]
    fn mixed_pipelines_agree_across_all_plans() {
        let pipe = Pipe::from_vec((0..512u64).map(|x| x * x % 97).collect())
            .map_idx(|i, x| x + i as u64)
            .scan(0, |a, b| a + b)
            .take(300)
            .rev()
            .skip(10)
            .filter(|&x| x % 2 == 0)
            .map(|x| x + 1)
            .scan_incl(0, |a, b| a.wrapping_add(b));
        check_all_lowerings(pipe);
    }

    #[test]
    fn consumers_agree_across_modes() {
        let pipe = Pipe::tabulate(2048, |i| i as u64).map(|x| x % 13);
        let expect = reference(&pipe);
        let reduce = ConsumerOp::Reduce(0, std::sync::Arc::new(|a: u64, b: u64| a + b), bds_cost::SIMPLE);
        let count = ConsumerOp::Count(std::sync::Arc::new(|x: &u64| *x > 6), bds_cost::SIMPLE);
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            let plan = identity_plan(pipe.shape(ConsumerKind::Reduce), mode);
            assert_eq!(
                pipe.execute(&plan, &reduce),
                Consumed::Scalar(expect.iter().sum::<u64>())
            );
            let plan = identity_plan(pipe.shape(ConsumerKind::Count), mode);
            assert_eq!(
                pipe.execute(&plan, &count),
                Consumed::Num(expect.iter().filter(|&&x| x > 6).count())
            );
        }
    }

    #[test]
    #[should_panic(expected = "different pipeline shape")]
    fn executing_a_foreign_plan_is_refused() {
        let a = Pipe::tabulate(100, |i| i as u64).map(|x| x);
        let b = Pipe::tabulate(100, |i| i as u64).take(5);
        let plan = optimize(b.shape(ConsumerKind::Collect), 4);
        let _ = a.execute(&plan, &ConsumerOp::Collect);
    }
}
