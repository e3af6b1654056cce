//! Governed differential checks: every lowering under a resource
//! [`Budget`] must refuse the budget the same way.
//!
//! For a (fault-free) pipeline and each governed lowering (`delay`,
//! the one that runs on `bds-pool` and therefore observes budgets),
//! three governed evaluations run:
//!
//! 1. **Expired deadline** — the deadline is already in the past at
//!    entry, so the run is refused deterministically before any block
//!    executes.
//! 2. **Random short deadline** — drawn from the subseed; may or may
//!    not trip depending on timing, which is exactly the point: either
//!    answer must be *coherent* (see below).
//! 3. **Random tiny memory budget** — drawn from the subseed, far
//!    below the pipeline's materialization needs for all but the
//!    smallest pipelines.
//!
//! The invariant checked for each: the governed result is either
//! `Err` of the **matching** [`Exceeded`] variant (`Deadline` for 1-2,
//! `Memory` for 3), or `Ok` of a value **identical** to the ungoverned
//! run's — never a partial result, never the wrong variant, never a
//! panic escaping [`bds_pool::run_governed`]. Whether a tiny budget
//! trips depends on where the lowering materializes; what may never
//! differ is the value on `Ok`.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bds_pool::{run_governed, Budget, Exceeded};

use crate::ast::{Outcome, Pipeline};
use crate::eval;
use crate::runner::{run_catching, Pools};

/// The governed lowerings: only evaluators that execute on `bds-pool`
/// observe budgets (the `array`/`rad` baselines have no cancellation
/// machinery, so governing them would only measure the wrapper).
#[allow(clippy::type_complexity)]
const GOVERNED_EVALS: [(&str, fn(&Pipeline) -> Outcome); 1] = [("delay", eval::eval_delay)];

/// One violated governance invariant.
#[derive(Debug, Clone)]
pub struct GovernViolation {
    /// Which lowering misbehaved.
    pub eval: &'static str,
    /// Which budget leg it was under.
    pub leg: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl GovernViolation {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!("{} under {}: {}", self.eval, self.leg, self.detail)
    }
}

/// Check the governance invariants for `p` (with any injected fault
/// stripped — mixing injected panics with budget trips would make the
/// expected classification ambiguous). Returns every violation found.
pub fn check_governed(p: &Pipeline, pools: &mut Pools, subseed: u64) -> Vec<GovernViolation> {
    let p = p.without_fault();
    let mut rng = SmallRng::seed_from_u64(subseed ^ 0x676f_7665_726e_6564); // "governed"
    let short_deadline = Duration::from_micros(rng.gen_range(50..2_000));
    let mem_budget = rng.gen_range(1..=4096usize);

    let mut violations = Vec::new();
    let pool = pools.get(2);
    for (name, f) in GOVERNED_EVALS {
        let ungoverned = run_catching(|| pool.install(|| f(&p)));
        if matches!(ungoverned, Outcome::Panicked { .. }) {
            violations.push(GovernViolation {
                eval: name,
                leg: "ungoverned",
                detail: "fault-free pipeline panicked".into(),
            });
            continue;
        }
        let legs: [(&'static str, Budget, Exceeded); 3] = [
            (
                "expired-deadline",
                Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1)),
                Exceeded::Deadline,
            ),
            (
                "short-deadline",
                Budget::unlimited().with_deadline(short_deadline),
                Exceeded::Deadline,
            ),
            (
                "tiny-memory",
                Budget::unlimited().with_mem_bytes(mem_budget),
                Exceeded::Memory,
            ),
        ];
        for (leg, budget, want_variant) in legs {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| run_governed(budget, || f(&p)))
            }));
            match got {
                Err(_) => violations.push(GovernViolation {
                    eval: name,
                    leg,
                    detail: "panic escaped run_governed".into(),
                }),
                Ok(Err(variant)) if variant != want_variant => {
                    violations.push(GovernViolation {
                        eval: name,
                        leg,
                        detail: format!("tripped as {variant}, expected {want_variant}"),
                    });
                }
                Ok(Err(_)) => {} // refused with the matching variant
                Ok(Ok(value)) if value != ungoverned => violations.push(GovernViolation {
                    eval: name,
                    leg,
                    detail: format!(
                        "completed with a partial result: got {}, want {}",
                        value.brief(),
                        ungoverned.brief(),
                    ),
                }),
                Ok(Ok(_)) => {} // completed with the full value
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governed_invariants_hold_over_a_seed_sweep() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let _quiet = crate::runner::QuietPanics::install();
        let mut pools = Pools::new(7);
        for k in 0..24u64 {
            let subseed = bds_bench::seed::subseed(7, k);
            let p = crate::gen::gen_pipeline(subseed);
            let violations = check_governed(&p, &mut pools, subseed);
            assert!(
                violations.is_empty(),
                "seed {subseed}: {:?}",
                violations
                    .iter()
                    .map(GovernViolation::describe)
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn expired_deadline_refuses_a_nonempty_materialization() {
        // Sanity-pin the semantics the sweep relies on: a pipeline that
        // must materialize refuses an expired deadline outright.
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let _quiet = crate::runner::QuietPanics::install();
        let p = Pipeline {
            source: crate::ast::Source::Iota(1000),
            stages: vec![],
            consumer: crate::ast::Consumer::ToVec,
            fault: None,
        };
        let mut pools = Pools::new(11);
        let pool = pools.get(2);
        let r = pool.install(|| {
            run_governed(
                Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1)),
                || eval::eval_delay(&p),
            )
        });
        assert_eq!(r, Err(Exceeded::Deadline));
    }
}
