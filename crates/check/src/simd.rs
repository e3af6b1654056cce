//! Differential legs for the `bds_seq::simd` dispatch ladder.
//!
//! Every leg runs the *same* seeded input through the same driver at
//! [`SimdLevel::Scalar`] (the oracle leg) and at every other level the
//! CPU supports, via [`bds_seq::force_level`]. Integer and byte kernels
//! must agree **bit-for-bit** (wrapping adds and min/max are fully
//! associative); float sums are reassociated by design, so those legs
//! assert a relative-error (ULP-scale) bound instead. Lengths are drawn
//! to straddle lane and chunk boundaries — off-by-one at a seam is
//! exactly the bug class this sweep exists to catch.
//!
//! With the `fault-inject` feature, the sweep also arms the fault
//! injector at every chunk ordinal of a `try_` driver and asserts the
//! fault lands identically at every level: the scalar and SIMD paths
//! share one chunk structure, so outcomes must match exactly.

use bds_bench::seed::splitmix64;
use bds_seq::simd::{self, SimdLevel};

/// Lengths that exercise the interesting seams for a given lane count:
/// empty, single, one each side of a lane, one each side of the poll
/// chunk, and a couple of seeded "random" sizes.
fn lengths(seed: u64) -> Vec<usize> {
    let lane = bds_cost::lane_count::<u64>();
    let mut v = vec![
        0,
        1,
        lane - 1,
        lane,
        lane + 1,
        simd::CHUNK - 1,
        simd::CHUNK,
        simd::CHUNK + 1,
    ];
    v.push(1 + (splitmix64(seed) % 50_000) as usize);
    v.push(1 + (splitmix64(seed ^ 1) % 200_000) as usize);
    v
}

fn gen_u64(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| splitmix64(seed ^ i)).collect()
}

fn gen_f64(seed: u64, n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let bits = splitmix64(seed ^ i);
            // Uniform in [-1, 1): sign-balanced, no overflow drama.
            (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

fn gen_bytes(seed: u64, n: usize) -> Vec<u8> {
    (0..n as u64)
        .map(|i| {
            let b = splitmix64(seed ^ i) as u8;
            // Bias in plenty of newlines/spaces so wc/grep legs count
            // something.
            match b % 11 {
                0 => b'\n',
                1 | 2 => b' ',
                3 => b'\t',
                _ => b'a' + b % 26,
            }
        })
        .collect()
}

fn rel_close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Float tolerance: generous ULP-scale slack for reassociated sums over
/// a few hundred thousand `[-1, 1)` terms.
const FLOAT_REL: f64 = 1e-11;

/// Run every differential leg for one subseed on the installed pool.
/// Returns human-readable violations (empty = clean). Forces dispatch
/// levels process-wide, so callers must not run this concurrently with
/// other SIMD work.
pub fn check_simd(subseed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    let levels = simd::supported_levels();
    for (li, &n) in lengths(subseed).iter().enumerate() {
        let seed = splitmix64(subseed ^ (li as u64) << 32);
        let ints = gen_u64(seed, n);
        let floats = gen_f64(seed, n);
        let bytes = gen_bytes(seed, n);

        // Oracle leg: everything at forced scalar.
        let (o_sum, o_psum, o_min, o_max, o_scan) = {
            let _g = simd::force_level(SimdLevel::Scalar);
            (
                simd::sum(&ints),
                simd::par_sum(&ints),
                simd::min(&ints),
                simd::max(&ints),
                simd::par_scan_add(&ints),
            )
        };
        let o_fsum = {
            let _g = simd::force_level(SimdLevel::Scalar);
            simd::sum(&floats)
        };
        let (o_nl, o_wc, o_pos, o_pwc, o_ppos) = {
            let _g = simd::force_level(SimdLevel::Scalar);
            (
                simd::count_eq(&bytes, b'\n'),
                simd::wc_count(&bytes),
                simd::positions_eq(&bytes, b'\n'),
                simd::par_wc_count(&bytes),
                simd::par_positions_eq(&bytes, b'\n'),
            )
        };
        if o_psum != o_sum {
            violations.push(format!("n={n}: scalar par_sum {o_psum} != sum {o_sum}"));
        }
        if o_pwc != o_wc || o_ppos != o_pos {
            violations.push(format!("n={n}: scalar par wc/positions disagree with sequential"));
        }

        for &level in &levels {
            let _g = simd::force_level(level);
            let mut bad = |what: &str| {
                violations.push(format!("n={n} level={}: {what} diverged from scalar", level.name()));
            };
            if simd::sum(&ints) != o_sum || simd::par_sum(&ints) != o_sum {
                bad("u64 sum");
            }
            if simd::min(&ints) != o_min || simd::max(&ints) != o_max {
                bad("u64 min/max");
            }
            if simd::par_scan_add(&ints) != o_scan {
                bad("u64 par_scan_add");
            }
            if !rel_close(simd::sum(&floats), o_fsum, FLOAT_REL) {
                bad("f64 sum (beyond ULP bound)");
            }
            if !rel_close(simd::par_sum(&floats), o_fsum, FLOAT_REL) {
                bad("f64 par_sum (beyond ULP bound)");
            }
            if simd::count_eq(&bytes, b'\n') != o_nl {
                bad("count_eq");
            }
            if simd::wc_count(&bytes) != o_wc || simd::par_wc_count(&bytes) != o_wc {
                bad("wc_count");
            }
            if simd::positions_eq(&bytes, b'\n') != o_pos
                || simd::par_positions_eq(&bytes, b'\n') != o_pos
            {
                bad("positions_eq");
            }
        }

        #[cfg(feature = "fault-inject")]
        fault_legs(&ints, &mut violations);
    }
    violations
}

/// Arm the injector at every chunk ordinal of `try_sum` and assert the
/// outcome — including the faulting chunk's element offset — is
/// identical at every level **and** in every unified indexed-stream
/// instantiation: the chunked drive loop
/// (`bds_seq::stream::try_sum_chunked`) regroups block streams into
/// the same `CHUNK` seams regardless of representation, so the
/// monomorphized and erased legs must land the fault at the same chunk
/// ordinal with the same reported offset as the slice kernels.
#[cfg(feature = "fault-inject")]
fn fault_legs(ints: &[u64], violations: &mut Vec<String>) {
    use bds_seq::erased::BoxSeq;
    use bds_seq::faults;
    use bds_seq::sources::{from_slice, Forced};
    use bds_seq::stream;
    let n = ints.len();
    if n == 0 {
        return;
    }
    let polls = n.div_ceil(simd::CHUNK) as u64;
    for nth in 1..=polls {
        let oracle = {
            let _g = simd::force_level(SimdLevel::Scalar);
            let _armed = faults::arm(nth);
            simd::try_sum(ints)
        };
        if oracle != Err(simd::Interrupted { at: (nth as usize - 1) * simd::CHUNK }) {
            violations.push(format!("n={n} fault@{nth}: scalar leg missed the injected fault"));
        }
        for level in simd::supported_levels() {
            let _g = simd::force_level(level);
            let _armed = faults::arm(nth);
            if simd::try_sum(ints) != oracle {
                violations.push(format!(
                    "n={n} fault@{nth} level={}: fault outcome diverged from scalar",
                    level.name()
                ));
            }
        }
        type StreamLeg<'a> = (&'a str, Box<dyn Fn() -> Result<u64, simd::Interrupted> + 'a>);
        let stream_legs: [StreamLeg; 2] = [
            ("stream-mono", Box::new(|| stream::try_sum_chunked(&from_slice(ints)))),
            (
                "stream-erased",
                Box::new(|| stream::try_sum_chunked(&BoxSeq::new(Forced::from_vec(ints.to_vec())))),
            ),
        ];
        for (leg, run) in stream_legs {
            let _armed = faults::arm(nth);
            if run() != oracle {
                violations.push(format!(
                    "n={n} fault@{nth} leg={leg}: fault ordinal diverged from the slice kernel"
                ));
            }
        }
    }
}

/// The dedicated `--simd` sweep: `rounds` seeded [`check_simd`] passes
/// on a fresh pool, reporting violations as they appear. Returns every
/// `(subseed, violation)` pair.
pub fn run_simd_sweep(master: u64, rounds: usize, verbose: bool) -> Vec<(u64, String)> {
    let _cal = crate::calibration_pin();
    let pool = bds_pool::Pool::new_seeded(3, master);
    let mut all = Vec::new();
    pool.install(|| {
        for k in 0..rounds {
            let subseed = bds_bench::seed::subseed(master, k as u64);
            for v in check_simd(subseed) {
                eprintln!("bds-check: SIMD FAILURE  BDS_CHECK_SEED={subseed}  {v}");
                all.push((subseed, v));
            }
            if verbose && (k + 1) % 10 == 0 {
                eprintln!("bds-check: {}/{rounds} SIMD rounds, {} violation(s)", k + 1, all.len());
            }
        }
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn seeded_rounds_are_clean() {
        let _l = crate::test_sync::lock();
        let pool = bds_pool::Pool::new(2);
        pool.install(|| {
            for k in 0..2 {
                let subseed = bds_bench::seed::subseed(0x51AD, k);
                assert_eq!(check_simd(subseed), Vec::<String>::new());
            }
        });
    }

    #[test]
    fn lengths_cover_the_seams() {
        let ls = lengths(7);
        assert!(ls.contains(&0));
        assert!(ls.contains(&(simd::CHUNK - 1)));
        assert!(ls.contains(&(simd::CHUNK + 1)));
        let lane = bds_cost::lane_count::<u64>();
        assert!(ls.contains(&(lane - 1)) && ls.contains(&(lane + 1)));
    }
}
