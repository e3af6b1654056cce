//! The paper's apps (Fig. 13 BID set, Fig. 14 RAD set) as benchmark
//! entries: a seeded input, the `array` library's result as the oracle,
//! and the `delay` library's run that is timed and checked against it.

use std::time::Instant;

use bds_graph::{CsrGraph, Vertex, NO_PARENT};
use bds_pool::Pool;
use bds_workloads::{
    bestcut, bfs, bignum, grep, integrate, linearrec, linefit, mcss, primes, quickhull, spmv,
    tokens, wc,
};

use crate::check::{close, close_slices, Checksum};
use crate::rng::{splitmix64, subseed};

/// Relative tolerance for float results. The `delay` and `array`
/// versions combine partial sums in different orders, so results agree
/// to rounding, not bit for bit.
pub const REL_TOL: f64 = 1e-9;

/// The five Fig. 13 apps (BID improvement).
pub const BID_APPS: [&str; 5] = ["bestcut", "bfs", "bignum-add", "primes", "tokens"];
/// The eight Fig. 14 apps (RAD-only improvement).
pub const RAD_APPS: [&str; 8] = [
    "grep",
    "integrate",
    "linearrec",
    "linefit",
    "mcss",
    "quickhull",
    "sparse-mxv",
    "wc",
];

/// Timestamps of one `Pool::install` call, taken outside the pool
/// (`call`, `ret`) and as the closure's first and last act (`start`,
/// `end`), plus the extra heap the call peaked at and the pool's
/// scheduler counters over the call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Before `Pool::install`.
    pub call: Instant,
    /// First instruction of the installed closure.
    pub start: Instant,
    /// Last instruction of the installed closure.
    pub end: Instant,
    /// After `Pool::install` returned.
    pub ret: Instant,
    /// Peak extra heap during the call, in bytes (0 unless the binary
    /// installs `bds_metrics::CountingAlloc`).
    pub peak_bytes: usize,
    /// `Pool::stats` delta over the call, summed over workers.
    pub sched: bds_pool::WorkerStats,
}

impl Call {
    /// Caller-visible wall time of the call, in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.ret - self.call).as_secs_f64()
    }
}

/// Run `f` inside `pool`, timing the call from outside and inside.
pub fn timed_install<R: Send>(pool: &Pool, f: impl FnOnce() -> R + Send) -> (R, Call) {
    let before = pool.stats();
    bds_metrics::reset_peak();
    let call = Instant::now();
    let (out, start, end) = pool.install(|| {
        let start = Instant::now();
        let out = f();
        (out, start, Instant::now())
    });
    let ret = Instant::now();
    let peak_bytes = bds_metrics::heap_stats().peak_since_reset;
    let sched = pool.stats().since(&before).total();
    (
        out,
        Call {
            call,
            start,
            end,
            ret,
            peak_bytes,
            sched,
        },
    )
}

/// One app, ready to run: its input, the oracle, and the checked run.
pub trait App: Send + Sync {
    /// The app's name as the paper's figures give it.
    fn name(&self) -> &'static str;
    /// Checksum of the generated input.
    fn input_checksum(&self) -> u64;
    /// Run the `delay` version once inside `pool`; check the output
    /// (outside the timed region) against the oracle.
    fn run(&self, pool: &Pool) -> (Call, Result<(), String>);
}

struct Bench<I, O, K> {
    name: &'static str,
    input: I,
    oracle: K,
    checksum: u64,
    delay: fn(&I) -> O,
    check: fn(&I, &K, &O) -> Result<(), String>,
}

impl<I: Send + Sync, O: Send, K: Send + Sync> App for Bench<I, O, K> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_checksum(&self) -> u64 {
        self.checksum
    }

    fn run(&self, pool: &Pool) -> (Call, Result<(), String>) {
        let (out, call) = timed_install(pool, || (self.delay)(&self.input));
        let verdict = (self.check)(&self.input, &self.oracle, &out);
        (call, verdict)
    }
}

fn exact<T: PartialEq + std::fmt::Debug>(want: &T, got: &T) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?}"))
    }
}

/// Build an app entry. `oracle` runs the `array` library (on `pool`) and
/// returns what `check` compares the `delay` output against.
fn bench<I, O, K>(
    pool: &Pool,
    name: &'static str,
    input: I,
    checksum: u64,
    oracle: fn(&I) -> K,
    delay: fn(&I) -> O,
    check: fn(&I, &K, &O) -> Result<(), String>,
) -> Box<dyn App>
where
    I: Sync + Send + 'static,
    O: Send + 'static,
    K: Sync + Send + 'static,
{
    let oracle = pool.install(|| oracle(&input));
    Box::new(Bench {
        name,
        input,
        oracle,
        checksum,
        delay,
        check,
    })
}

/// Sizes: the `--full` scale of the figure binaries.
const BESTCUT_N: usize = 2_000_000;
const BFS_SCALE: u32 = 18;
const BIGNUM_N: usize = 8_000_000;
const PRIMES_N: usize = 2_000_000;
const TOKENS_N: usize = 8_000_000;
const GREP_N: usize = 8_000_000;
const INTEGRATE_N: usize = 4_000_000;
const LINEAR_N: usize = 4_000_000;
const QUICKHULL_N: usize = 500_000;
const SPMV_N: usize = 20_000;
const WC_N: usize = 8_000_000;

/// Generate app `name`'s input from `seed`, compute its oracle on
/// `pool`, and return the entry.
///
/// # Panics
/// On an unknown app name (the names come from [`BID_APPS`] and
/// [`RAD_APPS`]).
pub fn build(name: &str, seed: u64, pool: &Pool) -> Box<dyn App> {
    // Each app draws its input from its own stream of the run's seed.
    let s = subseed(seed, name.bytes().fold(0, |h, b| h * 31 + u64::from(b)));
    match name {
        "bestcut" => {
            let ev = bestcut::generate(bestcut::Params {
                n: BESTCUT_N,
                seed: s,
            });
            let sum = Checksum::of_u64s(&ev);
            bench(
                pool,
                "bestcut",
                ev,
                sum,
                |e| bestcut::run_array(e),
                |e| bestcut::run_delay(e),
                |_, want, got| close(*want, *got, REL_TOL),
            )
        }
        "bfs" => {
            let g = bfs::generate(bfs::Params {
                scale: BFS_SCALE,
                seed: s,
                ..Default::default()
            });
            let sum = graph_checksum(&g);
            bench(
                pool,
                "bfs",
                g,
                sum,
                |g| BfsOracle::new(g, bfs::run_array(g, 0)),
                |g| bfs::run_delay(g, 0),
                |_, oracle, parent| oracle.check(parent),
            )
        }
        "bignum-add" => {
            let (a, b) = bignum::generate(bignum::Params {
                n: BIGNUM_N,
                seed: s,
            });
            let sum = Checksum::new().bytes(&a).bytes(&b).get();
            bench(
                pool,
                "bignum-add",
                (a, b),
                sum,
                |(a, b)| bignum::run_array(a, b),
                |(a, b)| bignum::run_delay(a, b),
                |_, want, got| exact(want, got),
            )
        }
        "primes" => {
            // The only input is the bound; the seed moves it slightly so
            // that different seeds are different inputs.
            let n = PRIMES_N + (s % 1000) as usize;
            bench(
                pool,
                "primes",
                n,
                n as u64,
                |&n| primes::run_array(n),
                |&n| primes::run_delay(n),
                |_, want, got| exact(want, got),
            )
        }
        "tokens" => {
            let text = tokens::generate(tokens::Params {
                n: TOKENS_N,
                seed: s,
            });
            let sum = Checksum::new().bytes(&text).get();
            bench(
                pool,
                "tokens",
                text,
                sum,
                |t| tokens::run_array(t),
                |t| tokens::run_delay(t),
                |_, want, got| {
                    if want == got {
                        Ok(())
                    } else {
                        Err(format!("{} tokens, want {}", got.len(), want.len()))
                    }
                },
            )
        }
        "grep" => {
            let p = grep::Params {
                n: GREP_N,
                seed: s,
                ..Default::default()
            };
            let text = grep::generate(&p);
            let sum = Checksum::new().bytes(&text).bytes(&p.pattern).get();
            bench(
                pool,
                "grep",
                (text, p.pattern),
                sum,
                |(t, pat)| grep::run_array(t, pat),
                |(t, pat)| grep::run_delay(t, pat),
                |_, want, got| exact(want, got),
            )
        }
        "integrate" => {
            // Like primes: the seed shifts the interval, not the cost.
            let p = integrate::Params {
                n: INTEGRATE_N,
                lo: 1.0 + (s % 1000) as f64 / 1000.0,
                ..Default::default()
            };
            let sum = Checksum::new().u64(p.n as u64).f64(p.lo).f64(p.hi).get();
            bench(
                pool,
                "integrate",
                p,
                sum,
                |&p| integrate::run_array(p),
                |&p| integrate::run_delay(p),
                |_, want, got| close(*want, *got, REL_TOL),
            )
        }
        "linearrec" => {
            let pairs = linearrec::generate(linearrec::Params {
                n: LINEAR_N,
                seed: s,
                ..Default::default()
            });
            let sum = Checksum::of_pairs(&pairs);
            bench(
                pool,
                "linearrec",
                pairs,
                sum,
                |p| linearrec::run_array(p, 1.0),
                |p| linearrec::run_delay(p, 1.0),
                |_, want, got| close_slices(want, got, REL_TOL),
            )
        }
        "linefit" => {
            let pts = linefit::generate(linefit::Params {
                n: LINEAR_N,
                seed: s,
            });
            let sum = Checksum::of_pairs(&pts);
            bench(
                pool,
                "linefit",
                pts,
                sum,
                |p| linefit::run_array(p),
                |p| linefit::run_delay(p),
                |_, want, got| {
                    close(want.slope, got.slope, REL_TOL)?;
                    close(want.intercept, got.intercept, REL_TOL)
                },
            )
        }
        "mcss" => {
            let xs = mcss::generate(mcss::Params {
                n: LINEAR_N,
                seed: s,
                ..Default::default()
            });
            let sum = Checksum::of_u64s(&xs.iter().map(|&x| x as u64).collect::<Vec<_>>());
            bench(
                pool,
                "mcss",
                xs,
                sum,
                |x| mcss::run_array(x),
                |x| mcss::run_delay(x),
                |_, want, got| exact(want, got),
            )
        }
        "quickhull" => {
            let pts = quickhull::generate(quickhull::Params {
                n: QUICKHULL_N,
                seed: s,
            });
            let sum = Checksum::of_pairs(&pts);
            bench(
                pool,
                "quickhull",
                pts,
                sum,
                |p| sorted_points(quickhull::run_array(p)),
                |p| quickhull::run_delay(p),
                |_, want, got| {
                    // Hull membership is the result; traversal order is not.
                    let got = sorted_points(got.clone());
                    if *want == got {
                        Ok(())
                    } else {
                        Err(format!("hull of {} points, want {}", got.len(), want.len()))
                    }
                },
            )
        }
        "sparse-mxv" => {
            let m = spmv::generate(spmv::Params {
                rows: SPMV_N,
                cols: SPMV_N,
                seed: s,
                ..Default::default()
            });
            let sum = Checksum::of_u64s(&m.offsets.iter().map(|&o| o as u64).collect::<Vec<_>>())
                .wrapping_add(Checksum::new().u32s(&m.cols).f64s(&m.vals).f64s(&m.x).get());
            bench(
                pool,
                "sparse-mxv",
                m,
                sum,
                spmv::run_array,
                spmv::run_delay,
                |_, want, got| close_slices(want, got, REL_TOL),
            )
        }
        "wc" => {
            let text = wc::generate(wc::Params { n: WC_N, seed: s });
            let sum = Checksum::new().bytes(&text).get();
            bench(
                pool,
                "wc",
                text,
                sum,
                |t| wc::run_array(t),
                |t| wc::run_delay(t),
                |_, want, got| exact(want, got),
            )
        }
        other => panic!("unknown app {other}"),
    }
}

fn sorted_points(mut pts: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    pts.sort_by(|a, b| a.partial_cmp(b).expect("generated points are finite"));
    pts
}

/// Order-independent checksum of a graph: adjacency order within a
/// vertex depends on the parallel build, so neighbors are summed.
fn graph_checksum(g: &CsrGraph) -> u64 {
    let mut c = Checksum::new().u64(g.num_vertices() as u64);
    for v in 0..g.num_vertices() as Vertex {
        let adj = g
            .out_neighbors(v)
            .iter()
            .fold(0u64, |h, &w| h.wrapping_add(splitmix64(u64::from(w))));
        c = c.u64(adj);
    }
    c.get()
}

/// BFS parent arrays are not unique, so the oracle is the BFS level of
/// every vertex in the `array` result's tree plus a sorted adjacency for
/// edge lookups: a `delay` tree is correct when it reaches the same
/// vertices and every parent is a real in-neighbor one level up.
struct BfsOracle {
    level: Vec<u32>,
    offsets: Vec<usize>,
    sorted_targets: Vec<Vertex>,
}

impl BfsOracle {
    fn new(g: &CsrGraph, parent: Vec<Vertex>) -> BfsOracle {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sorted_targets = Vec::with_capacity(g.num_edges());
        offsets.push(0);
        for v in 0..n as Vertex {
            let start = sorted_targets.len();
            sorted_targets.extend_from_slice(g.out_neighbors(v));
            sorted_targets[start..].sort_unstable();
            offsets.push(sorted_targets.len());
        }
        let mut level = vec![u32::MAX; n];
        level[0] = 0;
        let mut chain = Vec::new();
        for v in 0..n {
            if parent[v] == NO_PARENT {
                continue;
            }
            let mut u = v;
            while level[u] == u32::MAX {
                assert!(chain.len() <= n, "array BFS parents contain a cycle");
                chain.push(u);
                u = parent[u] as usize;
            }
            let mut d = level[u];
            while let Some(w) = chain.pop() {
                d += 1;
                level[w] = d;
            }
        }
        let oracle = BfsOracle {
            level,
            offsets,
            sorted_targets,
        };
        // The oracle itself must be a BFS tree: levels are distances.
        let (_, dist) = bds_graph::bfs_sequential(g, 0);
        assert_eq!(oracle.level, dist, "array BFS tree is not a BFS tree");
        oracle
    }

    fn check(&self, parent: &[Vertex]) -> Result<(), String> {
        if parent.len() != self.level.len() {
            return Err(format!(
                "{} parents for {} vertices",
                parent.len(),
                self.level.len()
            ));
        }
        for (v, &p) in parent.iter().enumerate() {
            let want = self.level[v];
            if (p == NO_PARENT) != (want == u32::MAX) {
                return Err(format!("vertex {v}: reached set differs"));
            }
            if p == NO_PARENT || v == 0 {
                continue;
            }
            let adj = &self.sorted_targets[self.offsets[p as usize]..self.offsets[p as usize + 1]];
            if self.level[p as usize].checked_add(1) != Some(want)
                || adj.binary_search(&(v as Vertex)).is_err()
            {
                return Err(format!(
                    "vertex {v}: parent {p} is not an in-neighbor one level up"
                ));
            }
        }
        Ok(())
    }
}
