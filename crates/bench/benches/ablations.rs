//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! 1. **dispatch** — static trait dispatch (our default, like the
//!    paper's C++ templates) vs every stage erased behind
//!    `bds_seq::BoxSeq`, so each element pays one indirect `next()` per
//!    stage. Both run the same drive loops; the delta is pure
//!    indirect-call overhead.
//! 2. **blocksize** — the delay bestcut across forced block sizes,
//!    probing the granularity trade-off of the block policy.
//! 3. **force-vs-refuse** — recompute a shared delayed map twice vs
//!    force it once (the Section 3 trade-off, complementing fig05).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bds_seq::prelude::*;
use bds_seq::{BoxSeq, Forced};
use bds_workloads::bestcut;

const N: usize = 400_000;

fn bench_dispatch(c: &mut Criterion) {
    let xs: Vec<u64> = (0..N as u64).map(|x| x % 13).collect();
    let mut g = c.benchmark_group("ablation/dispatch");
    g.bench_function(BenchmarkId::from_parameter("static"), |b| {
        b.iter(|| {
            let (s, _) = from_slice(&xs).map(|x| x * 2 + 1).scan(0, |a, b| a + b);
            s.map(|x| x ^ 0x55).reduce(0, u64::max)
        })
    });
    g.bench_function(BenchmarkId::from_parameter("dynamic"), |b| {
        let data = xs.clone();
        b.iter(|| {
            let src = BoxSeq::new(Forced::from_vec(data.clone()));
            let (s, _) = BoxSeq::new(src.map(|x| x * 2 + 1)).scan(0, |a, b| a + b);
            BoxSeq::new(BoxSeq::new(s).map(|x| x ^ 0x55)).reduce(0, u64::max)
        })
    });
    g.finish();
}

fn bench_blocksize(c: &mut Criterion) {
    let ev = bestcut::generate(bestcut::Params { n: N, seed: 1 });
    let mut g = c.benchmark_group("ablation/blocksize");
    for bs in [256usize, 1024, 4096, 16_384, 65_536] {
        g.bench_function(BenchmarkId::from_parameter(format!("B{bs}")), |b| {
            let _guard = bds_seq::force_block_size(bs);
            b.iter(|| bestcut::run_delay(&ev))
        });
    }
    g.finish();
}

fn bench_force_vs_recompute(c: &mut Criterion) {
    // A deliberately expensive element function consumed by two reduces.
    let xs: Vec<f64> = (0..N).map(|i| 1.0 + i as f64).collect();
    #[inline]
    fn expensive(x: f64) -> f64 {
        x.sqrt().ln() + x.cbrt()
    }
    let mut g = c.benchmark_group("ablation/force-vs-recompute");
    g.bench_function(BenchmarkId::from_parameter("recompute-twice"), |b| {
        b.iter(|| {
            let s1 = from_slice(&xs).map(expensive).reduce(0.0, |a, b| a + b);
            let s2 = from_slice(&xs).map(expensive).reduce(f64::MIN, f64::max);
            (s1, s2)
        })
    });
    g.bench_function(BenchmarkId::from_parameter("force-once"), |b| {
        b.iter(|| {
            let forced = from_slice(&xs).map(expensive).force();
            let s1 = forced.reduce(0.0, |a, b| a + b);
            let s2 = forced.reduce(f64::MIN, f64::max);
            (s1, s2)
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dispatch, bench_blocksize, bench_force_vs_recompute
}
criterion_main!(benches);
