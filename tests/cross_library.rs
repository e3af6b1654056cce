//! Differential tests: the three libraries (array / rad / delay), and
//! delay's type-erased lowering, must compute identical results on
//! shared pipelines — this is the property that makes the benchmark
//! comparisons meaningful.

use block_delayed_sequences::baseline::{array, rad};
use block_delayed_sequences::prelude::*;
use block_delayed_sequences::seq::{BoxSeq, Forced};

/// Serializes the tests that are sensitive to the process-global block
/// size (either because they set it, or because they build zip operands
/// in separate statements).
static BLOCK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn input(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
}

#[test]
fn map_reduce_identical_across_libraries() {
    let xs = input(50_000);
    let delay = from_slice(&xs).map(|x| x * 3 + 1).reduce(0, |a, b| a + b);
    let radv = rad::from_slice(&xs).map(|x| x * 3 + 1).reduce(0, |a, b| a + b);
    let arr = {
        let ys = array::map(&xs, |&x| x * 3 + 1);
        array::reduce(&ys, 0, |a, b| a + b)
    };
    let erased = BoxSeq::new(BoxSeq::new(Forced::from_vec(xs.clone())).map(|x| x * 3 + 1))
        .reduce(0, |a, b| a + b);
    assert_eq!(delay, radv);
    assert_eq!(delay, arr);
    assert_eq!(delay, erased);
}

#[test]
fn scan_identical_across_libraries() {
    let xs = input(30_000);
    let (d, dt) = from_slice(&xs).scan(0, |a, b| a + b);
    let delay = d.to_vec();
    let (radv, rt) = rad::from_slice(&xs).scan(0, |a, b| a + b);
    let (arr, at) = array::scan(&xs, 0, |a, b| a + b);
    let (erased_s, et) = BoxSeq::new(Forced::from_vec(xs.clone())).scan(0, |a, b| a + b);
    let erased = BoxSeq::new(erased_s).to_vec();
    assert_eq!(delay, radv);
    assert_eq!(delay, arr);
    assert_eq!(delay, erased);
    assert_eq!(dt, rt);
    assert_eq!(dt, at);
    assert_eq!(dt, et);
}

#[test]
fn filter_identical_across_libraries() {
    let xs = input(40_000);
    let delay = from_slice(&xs).filter(|&x| x % 7 < 3).to_vec();
    let radv = rad::from_slice(&xs).filter(|&x| x % 7 < 3);
    let arr = array::filter(&xs, |&x| x % 7 < 3);
    let erased = BoxSeq::new(BoxSeq::new(Forced::from_vec(xs.clone())).filter(|&x| x % 7 < 3))
        .to_vec();
    assert_eq!(delay, radv);
    assert_eq!(delay, arr);
    assert_eq!(delay, erased);
}

#[test]
fn composite_pipeline_identical() {
    let _lock = BLOCK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // map → scan → zip-with-input → filter → reduce (every fusion form
    // at once).
    let xs = input(25_000);
    let delay = {
        let (s, _) = from_slice(&xs).map(|x| x % 5).scan(0, |a, b| a + b);
        s.zip_with(from_slice(&xs), |p, x| p + x)
            .filter(|&v| v % 2 == 0)
            .reduce(0, |a, b| a + b)
    };
    let arr = {
        let m = array::map(&xs, |&x| x % 5);
        let (s, _) = array::scan(&m, 0, |a, b| a + b);
        let z = array::zip_with(&s, &xs, |&p, &x| p + x);
        let f = array::filter(&z, |&v| v % 2 == 0);
        array::reduce(&f, 0, |a, b| a + b)
    };
    assert_eq!(delay, arr);
}

#[test]
fn pipelines_agree_under_any_block_size() {
    let xs = input(10_000);
    let expected = {
        let m = array::map(&xs, |&x| x + 1);
        let (s, _) = array::scan(&m, 0, |a, b| a + b);
        array::reduce(&s, 0, u64::max)
    };
    let _lock = BLOCK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for bs in [1usize, 3, 64, 1000, 10_000, 100_000] {
        let _guard = block_delayed_sequences::seq::force_block_size(bs);
        let (s, _) = from_slice(&xs).map(|x| x + 1).scan(0, |a, b| a + b);
        let got = s.reduce(0, u64::max);
        assert_eq!(got, expected, "block size {bs}");
    }
}

#[test]
fn results_identical_across_pool_sizes() {
    let xs = input(60_000);
    let _lock = BLOCK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut answers = Vec::new();
    for p in [1usize, 2, 3, 4] {
        let pool = Pool::new(p);
        let got = pool.install(|| {
            let (s, _) = from_slice(&xs).map(|x| x ^ 0xFF).scan(0, |a, b| a + b);
            s.filter(|&v| v % 3 == 0).reduce(0, |a, b| a + b)
        });
        answers.push(got);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
}
