//! The benchmark's own checks: inputs are a function of the seed, every
//! emitted metric is declared and legally named, and the spans of a
//! traced request account for its whole latency.

use std::collections::HashMap;

use bds_perfbench::paper;
use bds_perfbench::report::{per_layer, valid_name, END_TO_END};
use bds_perfbench::rng::Rng;
use bds_perfbench::run::{bisect, run, serve_checksum, Opts, Workload};
use bds_perfbench::serve::{self, Server};
use bds_pool::Pool;

fn app_checksums(seed: u64, pool: &Pool) -> Vec<u64> {
    pool.install(|| {
        paper::BID_APPS
            .iter()
            .chain(&paper::RAD_APPS)
            .map(|name| paper::build(name, seed, pool).input_checksum())
            .collect()
    })
}

#[test]
fn same_seed_gives_same_input_checksums() {
    let pool = Pool::new(2);
    let a = app_checksums(7, &pool);
    assert_eq!(a, app_checksums(7, &pool));
    let b = app_checksums(8, &pool);
    assert_eq!(a.len(), b.len());
    assert!(
        a.iter().zip(&b).all(|(x, y)| x != y),
        "every app's input depends on the seed"
    );
    assert_eq!(serve_checksum(7), serve_checksum(7));
    assert_ne!(serve_checksum(7), serve_checksum(8));
}

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

#[test]
fn emitted_metrics_are_declared_and_legally_named() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    for (trace, want) in [(false, &e2e), (true, &layers)] {
        let rep = run(
            Opts {
                workload: Workload::ServeOpen,
                seed: 3,
                seconds: 1.0,
                trace,
            },
            None,
        );
        let mut names = rep.names();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        names.sort();
        let mut want = want.clone();
        want.sort();
        assert_eq!(names, want);
        assert!(rep.correct() && rep.failed() == 0, "{}", rep.detail_line());
    }
}

#[test]
fn traced_request_self_times_sum_to_its_latency() {
    let (server, warm) = Server::setup(5);
    assert_eq!(warm.failed(), 0);
    let sched = serve::schedule(&mut Rng::new(5), 2_000.0, 0.25);
    let out = server.step(&sched, true);
    assert_eq!(out.failed(), 0);
    let trace = out.trace.as_ref().expect("traced step");
    let self_ns = trace.self_times();
    let mut roots: HashMap<u64, u64> = HashMap::new();
    let mut sums: HashMap<u64, u64> = HashMap::new();
    for (span, &own) in trace.spans().iter().zip(&self_ns) {
        *sums.entry(span.id).or_default() += own;
        if span.parent.is_none() {
            assert_eq!(span.name, "request");
            roots.insert(span.id, span.dur_ns());
        }
    }
    assert_eq!(roots.len(), sched.len());
    for (id, root) in &roots {
        assert_eq!(sums[id], *root, "request {id}");
    }
    let mut root_ns: Vec<u64> = roots.values().copied().collect();
    let mut lat_ns: Vec<u64> = out
        .latency_s()
        .iter()
        .map(|s| (s * 1e9).round() as u64)
        .collect();
    root_ns.sort_unstable();
    lat_ns.sort_unstable();
    for (r, l) in root_ns.iter().zip(&lat_ns) {
        assert!(r.abs_diff(*l) <= 1, "span {r} ns vs latency {l} ns");
    }
}

#[test]
fn ladder_bisection_resolves_two_percent() {
    for capacity in [14_500.0, 17_321.0, 21_000.0, 27_900.0] {
        let mut tried = 0;
        let got = bisect(14_000.0, 28_000.0, serve::REFINE_STEPS, |rate| {
            tried += 1;
            rate <= capacity
        });
        assert_eq!(tried, serve::REFINE_STEPS);
        assert!(got <= capacity, "{got} above {capacity}");
        assert!(
            got * 1.025 >= capacity,
            "{got} more than 2.5% under {capacity}"
        );
    }
}
