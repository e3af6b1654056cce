//! The workload runners: set up, measure for the run's seconds, check
//! every output, and fill the report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bds_pool::Pool;

use crate::paper::{self, App, Call};
use crate::report::{json_num, json_str, per_layer, Report, END_TO_END, SEQ_STAGES};
use crate::rng::Rng;
use crate::serve::{self, Server, StepOut};
use crate::stats::{median, quantile, sorted, tail};
use crate::trace::Trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 13 apps.
    PaperBid,
    /// The Fig. 14 apps.
    PaperRad,
    /// The open-loop service.
    ServeOpen,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-bid" => Some(Workload::PaperBid),
            "paper-rad" => Some(Workload::PaperRad),
            "serve-open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }
}

/// A run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Set-ups per paper run; `setup_s` is their median.
pub const PAPER_SETUP_REPS: usize = 3;
/// Set-ups per service run: a few tens of milliseconds each, so more of
/// them keep one host stall from moving the median.
pub const SERVE_SETUP_REPS: usize = 15;
/// Pool width of the parallel leg.
pub const P: usize = 2;
/// P = 2 passes (each followed by a P = 1 pass) of a paper run. The
/// count is fixed, not set by `--seconds` or by how fast the passes
/// are, so `pass_tail_s` is always the same percentile: with ten
/// samples beyond it, p83.3.
pub const PAPER_PASSES: usize = 60;
/// Burst passes of a service run, fixed for the same reason: p91.7.
pub const SERVE_PASSES: usize = 120;

/// Run one workload and return its report. `trace_dir` receives the
/// span file of a traced run.
pub fn run(opts: Opts, trace_dir: Option<PathBuf>) -> Report {
    let mut rep = Report::default();
    let trace = match opts.workload {
        Workload::PaperBid => run_paper(&paper::BID_APPS, opts, &mut rep),
        Workload::PaperRad => run_paper(&paper::RAD_APPS, opts, &mut rep),
        Workload::ServeOpen => run_serve(opts, &mut rep),
    };
    if opts.trace {
        // Layers this workload does not exercise read 0.
        let layers = per_layer();
        for (name, unit) in &layers {
            if rep.get(name).is_none() {
                rep.set(name, 0.0, unit);
            }
        }
        rep.retain(&layers.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
        if let (Some(trace), Some(dir)) = (trace, trace_dir) {
            let name = format!("{}-seed{}.json", workload_name(opts.workload), opts.seed);
            let path = dir.join(name);
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json()));
            match written {
                Ok(()) => rep.detail("trace_file", json_str(&path.display().to_string())),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        }
    } else {
        for (name, _) in END_TO_END {
            assert!(
                rep.get(name).is_some(),
                "end-to-end metric {name} not measured"
            );
        }
    }
    rep
}

/// The workload's command-line name.
pub fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::PaperBid => "paper-bid",
        Workload::PaperRad => "paper-rad",
        Workload::ServeOpen => "serve-open",
    }
}

/// Time `reps` set-ups and keep the last; the median is `setup_s`.
fn repeated_setup<S>(rep: &mut Report, reps: usize, mut setup: impl FnMut() -> S) -> S {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let next = setup();
        times.push(t0.elapsed().as_secs_f64());
        // A service dropped just after its last ticket resolved can lose
        // the race with the worker still releasing it: that worker then
        // tears the pool down and joins itself, which panics. So a set-up
        // is dropped only after the next one is built, long idle by then.
        drop(kept.replace(next));
    }
    rep.set("setup_s", median(&times), "s");
    rep.detail("setup_reps_s", json_list(&times));
    kept.expect("at least one set-up")
}

fn json_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(",")
    )
}

struct PaperSetup {
    pool2: Pool,
    pool1: Pool,
    apps: Vec<Box<dyn App>>,
}

/// One app call's outcome at P = 2 or 1.
fn run_app(app: &dyn App, pool: &Pool, rep: &mut Report) -> Call {
    let (call, verdict) = app.run(pool);
    rep.attempted += 1;
    if let Err(e) = verdict {
        eprintln!("perfbench: {} wrong: {e}", app.name());
        rep.fail(&format!("wrong_output.{}", app.name()), 1);
    }
    call
}

fn run_paper(names: &[&str], opts: Opts, rep: &mut Report) -> Option<Trace> {
    let mut setup_sums: Vec<Vec<u64>> = Vec::new();
    let mut warm_failures = Vec::new();
    let s = repeated_setup(rep, PAPER_SETUP_REPS, || {
        let pool2 = Pool::new(P);
        let pool1 = Pool::new(1);
        std::hint::black_box(bds_cost::calibration());
        // Generators and oracles run inside the pool, so nothing spawns
        // the process-global pool.
        let apps: Vec<Box<dyn App>> = pool2.install(|| {
            names
                .iter()
                .map(|n| paper::build(n, opts.seed, &pool2))
                .collect()
        });
        setup_sums.push(apps.iter().map(|a| a.input_checksum()).collect());
        // Warm-up: one checked run of each app.
        for app in &apps {
            if let (_, Err(e)) = app.run(&pool2) {
                warm_failures.push(format!("{}: {e}", app.name()));
            }
        }
        PaperSetup { pool2, pool1, apps }
    });
    rep.attempted += (PAPER_SETUP_REPS * s.apps.len()) as u64;
    for f in &warm_failures {
        eprintln!("perfbench: wrong in warm-up: {f}");
        rep.fail("wrong_output.warm_up", 1);
    }
    // The same seed must give the same inputs in every set-up.
    let last = setup_sums.last().expect("at least one set-up");
    for (i, app) in s.apps.iter().enumerate() {
        if setup_sums.iter().any(|sums| sums[i] != last[i]) {
            rep.fail(&format!("nondeterministic_input.{}", app.name()), 1);
        }
        rep.detail(
            &format!("input_checksum.{}", app.name()),
            json_str(&format!("{:016x}", last[i])),
        );
    }
    if opts.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        return Some(trace_paper(&s, deadline, rep));
    }
    let n_apps = s.apps.len();
    let mut pass2 = Vec::new();
    let mut pass1 = Vec::new();
    let mut calls2 = Vec::new();
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); n_apps];
    for _ in 0..PAPER_PASSES {
        let mut t2 = 0.0;
        for (i, app) in s.apps.iter().enumerate() {
            let call = run_app(app.as_ref(), &s.pool2, rep);
            t2 += call.wall_s();
            calls2.push(call.wall_s());
            peaks[i].push(call.peak_bytes as f64);
        }
        pass2.push(t2);
        let t1: f64 = s
            .apps
            .iter()
            .map(|app| run_app(app.as_ref(), &s.pool1, rep).wall_s())
            .sum();
        pass1.push(t1);
    }
    let (tail_s, tail_pct) = tail(&pass2).expect("PAPER_PASSES > 10");
    rep.set("pass_s", median(&pass2), "s");
    rep.set("pass_tail_s", tail_s, "s");
    rep.set("pass_p1_s", median(&pass1), "s");
    rep.set(
        "peak_heap_bytes",
        peaks.iter().map(|p| median(p)).sum(),
        "bytes",
    );
    // Every workload reports every end-to-end metric; here the rate is
    // app calls per second at the median pass, so it moves with `pass_s`.
    rep.set("qps_max", n_apps as f64 / median(&pass2), "1/s");
    rep.set("latency_p50_s", median(&calls2), "s");
    rep.detail("latency_p90_s", json_num(quantile(&sorted(&calls2), 0.9)));
    rep.detail("passes", pass2.len().to_string());
    rep.detail("pass_tail_percentile", json_num(tail_pct));
    let per_app: Vec<String> = s
        .apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let times: Vec<f64> = calls2.iter().skip(i).step_by(n_apps).copied().collect();
            format!(
                "{}:{{\"s\":{},\"peak_bytes\":{}}}",
                json_str(app.name()),
                json_num(median(&times)),
                json_num(median(&peaks[i]))
            )
        })
        .collect();
    rep.detail("apps_p2", format!("{{{}}}", per_app.join(",")));
    None
}

/// Traced paper run: untraced and traced P = 2 passes alternate, so
/// their ratio is the tracing overhead.
fn trace_paper(s: &PaperSetup, deadline: Instant, rep: &mut Report) -> Trace {
    let mut trace = Trace::new(Instant::now());
    let n_apps = s.apps.len();
    let (mut plain_pass, mut traced_pass) = (Vec::new(), Vec::new());
    let (mut plain_calls, mut traced_calls) = (Vec::new(), Vec::new());
    let (mut entry, mut exit) = (Vec::new(), Vec::new());
    let mut app_s: Vec<Vec<f64>> = vec![Vec::new(); n_apps];
    let mut app_peak: Vec<Vec<f64>> = vec![Vec::new(); n_apps];
    let mut stage_ns = [0u64; SEQ_STAGES.len()];
    let mut stage_blocks = [0u64; SEQ_STAGES.len()];
    let mut sched = bds_pool::WorkerStats::default();
    let mut decisions = 0usize;
    let mut decision_blocks = 0usize;
    let mut traced_wall = 0.0;
    let mut pass_id = 0u64;
    while Instant::now() < deadline || traced_pass.len() < 3 {
        let mut t = 0.0;
        for app in &s.apps {
            let call = run_app(app.as_ref(), &s.pool2, rep);
            t += call.wall_s();
            plain_calls.push(call.wall_s());
        }
        plain_pass.push(t);

        let recording = bds_cost::record_geometry();
        let mut calls = Vec::with_capacity(n_apps);
        for (i, app) in s.apps.iter().enumerate() {
            let (call, profile) =
                bds_seq::profile_on(&s.pool2, || run_app(app.as_ref(), &s.pool2, rep));
            for (k, (_, stage)) in SEQ_STAGES.iter().enumerate() {
                if let Some(st) = profile.stage(*stage) {
                    stage_ns[k] += st.total_ns;
                    stage_blocks[k] += st.blocks;
                }
            }
            app_s[i].push((call.end - call.start).as_secs_f64());
            app_peak[i].push(call.peak_bytes as f64);
            entry.push((call.start - call.call).as_secs_f64());
            exit.push(call.ret.saturating_duration_since(call.end).as_secs_f64());
            traced_calls.push(call.wall_s());
            sched = add_stats(sched, call.sched);
            calls.push(call);
        }
        drop(recording);
        let log = bds_cost::recorded_geometry();
        decisions += log.len();
        decision_blocks += log.iter().map(|d| d.num_blocks).sum::<usize>();
        let t: f64 = calls.iter().map(Call::wall_s).sum();
        traced_pass.push(t);
        traced_wall += t;
        let first = calls.first().expect("apps").call;
        let last = calls.last().expect("apps").ret;
        let root = trace.push("pass", first, last, None, pass_id);
        for (app, c) in s.apps.iter().zip(&calls) {
            let span = trace.push(
                &format!("app.{}", app.name()),
                c.call,
                c.ret,
                Some(root),
                pass_id,
            );
            trace.push("pool.entry", c.call, c.start, Some(span), pass_id);
            trace.push(
                &format!("workloads.{}", app.name()),
                c.start,
                c.end,
                Some(span),
                pass_id,
            );
            trace.push("pool.exit", c.end, c.ret, Some(span), pass_id);
        }
        pass_id += 1;
    }
    let passes = traced_pass.len() as f64;
    rep.set("pool.entry_s", median(&entry), "s");
    rep.set("pool.exit_s", median(&exit), "s");
    set_sched(rep, sched, passes, traced_wall);
    for (k, (name, _)) in SEQ_STAGES.iter().enumerate() {
        rep.set(
            &format!("seq.{name}.s"),
            stage_ns[k] as f64 / 1e9 / passes,
            "s",
        );
        rep.set(
            &format!("seq.{name}.blocks"),
            stage_blocks[k] as f64 / passes,
            "count",
        );
    }
    rep.set("cost.decisions", decisions as f64 / passes, "count");
    rep.set(
        "cost.blocks_per_decision",
        decision_blocks as f64 / decisions.max(1) as f64,
        "count",
    );
    for (i, app) in s.apps.iter().enumerate() {
        rep.set(
            &format!("workloads.{}.s", app.name()),
            median(&app_s[i]),
            "s",
        );
        rep.set(
            &format!("workloads.{}.peak_bytes", app.name()),
            median(&app_peak[i]),
            "bytes",
        );
    }
    rep.set(
        "trace_overhead.pass_s",
        median(&traced_pass) / median(&plain_pass),
        "ratio",
    );
    rep.set(
        "trace_overhead.latency_p50_s",
        median(&traced_calls) / median(&plain_calls),
        "ratio",
    );
    rep.detail("traced_passes", traced_pass.len().to_string());
    trace
}

fn add_stats(a: bds_pool::WorkerStats, b: bds_pool::WorkerStats) -> bds_pool::WorkerStats {
    bds_pool::WorkerStats {
        jobs_executed: a.jobs_executed + b.jobs_executed,
        local_pops: a.local_pops + b.local_pops,
        injector_pops: a.injector_pops + b.injector_pops,
        steals: a.steals + b.steals,
        cross_steals: a.cross_steals + b.cross_steals,
        failed_steals: a.failed_steals + b.failed_steals,
        parks: a.parks + b.parks,
        unparks: a.unparks + b.unparks,
        idle_ns: a.idle_ns + b.idle_ns,
        heartbeats: a.heartbeats + b.heartbeats,
    }
}

/// Scheduler counters per unit of work (`per` passes or requests) over
/// `wall_s` seconds of a `P`-worker pool.
fn set_sched(rep: &mut Report, s: bds_pool::WorkerStats, per: f64, wall_s: f64) {
    let per = per.max(1.0);
    rep.set("pool.jobs", s.jobs_executed as f64 / per, "count");
    rep.set("pool.steals", s.steals as f64 / per, "count");
    let attempts = (s.steals + s.failed_steals).max(1);
    rep.set(
        "pool.steal_success",
        s.steals as f64 / attempts as f64,
        "ratio",
    );
    rep.set("pool.parks", s.parks as f64 / per, "count");
    rep.set(
        "pool.idle_share",
        s.idle_ns as f64 / 1e9 / (P as f64 * wall_s.max(1e-9)),
        "ratio",
    );
}

/// Does an open-loop step meet the limit: p99 within the limit, the
/// backlog not growing, the generator on time, and nothing failed?
fn step_verdict(rate: f64, out: &StepOut) -> (f64, f64, bool) {
    let p99 = out.windowed_latency(0.99);
    let late_p99 = out.windowed_lateness(0.99);
    let slack = (serve::BACKLOG_SLACK_S * rate).max(64.0);
    let grew = out.gen.backlog_end as f64 > out.gen.backlog_start as f64 + slack;
    let meets = p99 <= serve::P99_LIMIT_S
        && !grew
        && late_p99 <= serve::LATE_P99_BOUND_S
        && out.failed() == 0;
    (p99, late_p99, meets)
}

fn step_json(rate: f64, out: &StepOut) -> String {
    let (p99, late_p99, meets) = step_verdict(rate, out);
    format!(
        "{{\"rate\":{},\"requests\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{},\"late_p99_s\":{},\"backlog_start\":{},\"backlog_end\":{},\"failed\":{},\"meets_limit\":{}}}",
        json_num(rate),
        out.attempted,
        json_num(out.windowed_latency(0.5)),
        json_num(out.windowed_latency(0.9)),
        json_num(p99),
        json_num(late_p99),
        out.gen.backlog_start,
        out.gen.backlog_end,
        out.failed(),
        meets
    )
}

fn record_step(rep: &mut Report, out: &StepOut) {
    rep.attempted += out.attempted;
    rep.fail_all(&out.failures);
}

fn run_serve(opts: Opts, rep: &mut Report) -> Option<Trace> {
    let mut warm = Vec::new();
    let server = repeated_setup(rep, SERVE_SETUP_REPS, || {
        std::hint::black_box(bds_cost::calibration());
        let (server, out) = Server::setup(opts.seed);
        warm.push(out);
        server
    });
    for out in &warm {
        record_step(rep, out);
    }
    rep.detail(
        "input_checksum.serve-open",
        json_str(&format!("{:016x}", serve_checksum(opts.seed))),
    );
    let mut rng = Rng::new(opts.seed);
    let trace = if opts.trace {
        Some(trace_serve(&server, &mut rng, opts.seconds, rep))
    } else {
        measure_serve(&server, &mut rng, opts.seconds, rep);
        None
    };
    // Let the workers release the service after the last request before
    // it is dropped (see `repeated_setup`).
    std::thread::sleep(Duration::from_millis(20));
    drop(server);
    trace
}

fn measure_serve(server: &Server, rng: &mut Rng, secs: f64, rep: &mut Report) {
    // Burst passes: the service at P = 2 against the same requests run
    // directly on one worker.
    let (mut pass2, mut pass1, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SERVE_PASSES {
        let specs = serve::specs(rng, serve::BURST);
        bds_metrics::reset_peak();
        let out = server.burst(&specs, false);
        peaks.push(bds_metrics::heap_stats().peak_since_reset as f64);
        record_step(rep, &out);
        pass2.push(out.wall_s());
        let (wall, wrong) = server.direct(&specs);
        rep.attempted += specs.len() as u64;
        rep.fail("wrong_output.direct", wrong);
        pass1.push(wall);
    }
    rep.set("pass_s", median(&pass2), "s");
    let (tail_s, tail_pct) = tail(&pass2).expect("SERVE_PASSES > 10");
    rep.set("pass_tail_s", tail_s, "s");
    rep.set("pass_p1_s", median(&pass1), "s");
    rep.set("peak_heap_bytes", median(&peaks), "bytes");
    rep.detail("passes", pass2.len().to_string());
    rep.detail("pass_tail_percentile", json_num(tail_pct));

    // The coarse ladder, ascending. Rungs up to the reference rate always
    // run; above it the ladder stops at the first rung that misses the
    // limit. The step at the reference rate runs longest and gives the
    // latency metrics. Every step's failures count, whatever its rate.
    let mut steps = Vec::new();
    let mut step = |rate: f64, share: f64, rep: &mut Report| {
        let out = server.step(&serve::schedule(rng, rate, share * secs), false);
        let (_, _, meets) = step_verdict(rate, &out);
        record_step(rep, &out);
        steps.push(step_json(rate, &out));
        (out, meets)
    };
    let (mut met, mut missed) = (None, None);
    for rate in serve::LADDER {
        if missed.is_some() && rate > serve::REFERENCE_RATE {
            break;
        }
        let share = if rate == serve::REFERENCE_RATE {
            serve::REFERENCE_SHARE
        } else {
            serve::STEP_SHARE
        };
        let (out, meets) = step(rate, share, rep);
        if rate == serve::REFERENCE_RATE {
            rep.set("latency_p50_s", out.windowed_latency(0.5), "s");
        }
        match (meets, missed) {
            (true, None) => met = Some(rate),
            (false, None) => missed = Some(rate),
            _ => {}
        }
    }
    // Then bisect, on a log scale, between the highest rung met and the
    // first one missed, so `qps_max` resolves changes far smaller than
    // the factor of two between rungs.
    if let (Some(lo), Some(hi)) = (met, missed) {
        met = Some(bisect(lo, hi, serve::REFINE_STEPS, |rate| {
            step(rate, serve::REFINE_SHARE, rep).1
        }));
    }
    rep.set("qps_max", met.unwrap_or(0.0), "1/s");
    rep.detail("ladder", format!("[{}]", steps.join(",")));
}

/// Bisect `steps` times on a log scale between a rate `lo` that `meets`
/// the limit and a rate `hi` that does not, trying whole rates; returns
/// the highest rate met.
pub fn bisect(mut lo: f64, mut hi: f64, steps: usize, mut meets: impl FnMut(f64) -> bool) -> f64 {
    for _ in 0..steps {
        let rate = (lo * hi).sqrt().round();
        if meets(rate) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

/// Checksum of the run's generated request stream and constants.
pub fn serve_checksum(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let mut c = crate::check::Checksum::new();
    for v in serve::oracle_vecs(serve::Consts::new(seed)) {
        c = c.u64(crate::check::Checksum::of_u64s(&v));
    }
    for spec in serve::specs(&mut rng, 1024) {
        c = c.u64(
            u64::from(spec.shape) << 16 | u64::from(spec.collect) << 8 | u64::from(spec.tenant),
        );
    }
    for (t, _) in serve::schedule(&mut rng, serve::REFERENCE_RATE, 0.25) {
        c = c.f64(t);
    }
    c.get()
}

fn trace_serve(server: &Server, rng: &mut Rng, secs: f64, rep: &mut Report) -> Trace {
    // Pool hand-off, probed on an idle 2-worker pool: the service's own
    // pool is private, and an install pays the same inject and wake-up.
    let probe = Pool::new(P);
    let (mut entry, mut exit) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let ((), call) = paper::timed_install(&probe, || ());
        entry.push((call.start - call.call).as_secs_f64());
        exit.push(call.ret.saturating_duration_since(call.end).as_secs_f64());
    }
    drop(probe);
    rep.set("pool.entry_s", median(&entry), "s");
    rep.set("pool.exit_s", median(&exit), "s");

    let dur = 0.25 * secs;
    let plain = server.step(&serve::schedule(rng, serve::REFERENCE_RATE, dur), false);
    record_step(rep, &plain);

    let sched = serve::schedule(rng, serve::REFERENCE_RATE, dur);
    let hits_before: (u64, u64) = plan_counts(server);
    let stats_before = server.svc.stats();
    let recording = bds_cost::record_geometry();
    let t0 = Instant::now();
    let (out, profile) = bds_seq::profile_on(&server.pool1, || server.step(&sched, true));
    let wall = t0.elapsed().as_secs_f64();
    drop(recording);
    let log = bds_cost::recorded_geometry();
    let sched_delta = server.svc.stats().since(&stats_before).total();
    let hits_after = plan_counts(server);
    record_step(rep, &out);
    let n = out.attempted as f64;

    set_sched(rep, sched_delta, n, wall);
    for (name, stage) in SEQ_STAGES {
        let st = profile.stage(stage);
        rep.set(
            &format!("seq.{name}.s"),
            st.map_or(0, |s| s.total_ns) as f64 / 1e9 / n,
            "s",
        );
        rep.set(
            &format!("seq.{name}.blocks"),
            st.map_or(0, |s| s.blocks) as f64 / n,
            "count",
        );
    }
    rep.set("cost.decisions", log.len() as f64 / n, "count");
    rep.set(
        "cost.blocks_per_decision",
        log.iter().map(|d| d.num_blocks).sum::<usize>() as f64 / log.len().max(1) as f64,
        "count",
    );
    let l = &out.layers;
    rep.set("plan.lookup_s", median(&l.lookup), "s");
    let (hits, misses) = (hits_after.0 - hits_before.0, hits_after.1 - hits_before.1);
    rep.set(
        "plan.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    rep.set("plan.exec_s", median(&l.exec), "s");
    rep.set("plan.exec_p99_s", quantile(&sorted(&l.exec), 0.99), "s");
    rep.set("service.submit_s", median(&l.submit), "s");
    rep.set("service.wait_s", median(&l.wait), "s");
    rep.set("service.wait_p99_s", quantile(&sorted(&l.wait), 0.99), "s");
    rep.set("service.complete_s", median(&l.complete), "s");
    rep.set("service.backlog", out.gen.backlog_end as f64, "count");
    let p50 = out.windowed_latency(0.5);
    rep.detail("accounting", accounting(l));
    rep.detail(
        "reference_untraced",
        step_json(serve::REFERENCE_RATE, &plain),
    );
    rep.detail("reference_traced", step_json(serve::REFERENCE_RATE, &out));
    rep.set(
        "trace_overhead.latency_p50_s",
        p50 / plain.windowed_latency(0.5),
        "ratio",
    );

    // Burst passes, untraced and traced alternating.
    let until = Instant::now() + Duration::from_secs_f64(0.3 * secs);
    let (mut plain_pass, mut traced_pass) = (Vec::new(), Vec::new());
    while Instant::now() < until || traced_pass.len() < 3 {
        for (traced, passes) in [(false, &mut plain_pass), (true, &mut traced_pass)] {
            let b = server.burst(&serve::specs(rng, serve::BURST), traced);
            record_step(rep, &b);
            passes.push(b.wall_s());
        }
    }
    rep.set(
        "trace_overhead.pass_s",
        median(&traced_pass) / median(&plain_pass),
        "ratio",
    );

    let svc_stats = server.svc.stats();
    for (metric, pick) in [
        ("service.rejected.queue_full", 0),
        ("service.rejected.deadline", 1),
        ("service.rejected.circuit_open", 2),
        ("service.rejected.shutdown", 3),
    ] {
        let total: u64 = svc_stats
            .tenants
            .iter()
            .map(|t| {
                [
                    t.rejected_queue_full,
                    t.rejected_deadline,
                    t.rejected_breaker,
                    t.rejected_shutdown,
                ][pick]
            })
            .sum();
        rep.set(metric, total as f64, "count");
    }
    out.trace.expect("traced step records spans")
}

/// How the layers add up to a typical request: over the requests whose
/// latency lies between its 45th and 55th percentiles, the mean of each
/// layer's time. Each request's layers tile its latency, so the means
/// sum to the band's mean latency, which is close to the p50.
fn accounting(l: &serve::Layers) -> String {
    let n = l.exec.len();
    let total = |i: usize| l.gen[i] + l.submit[i] + l.wait[i] + l.exec[i] + l.complete[i];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| total(a).total_cmp(&total(b)));
    let band = &order[n * 45 / 100..(n * 55 / 100).max(n * 45 / 100 + 1).min(n)];
    let mean = |xs: &[f64]| band.iter().map(|&i| xs[i]).sum::<f64>() / band.len().max(1) as f64;
    let lat: Vec<f64> = (0..n).map(total).collect();
    format!(
        "{{\"band\":\"p45-p55\",\"requests\":{},\"latency_s\":{},\"generator_s\":{},\"plan_lookup_s\":{},\"submit_s\":{},\"wait_s\":{},\"exec_s\":{},\"complete_s\":{}}}",
        band.len(),
        json_num(mean(&lat)),
        json_num(mean(&l.gen)),
        json_num(mean(&l.lookup)),
        json_num(mean(&l.submit)),
        json_num(mean(&l.wait)),
        json_num(mean(&l.exec)),
        json_num(mean(&l.complete)),
    )
}

fn plan_counts(server: &Server) -> (u64, u64) {
    server.planners.iter().fold((0, 0), |(h, m), p| {
        (h + p.cache().hits(), m + p.cache().misses())
    })
}
