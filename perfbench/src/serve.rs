//! The `serve-open` workload: independent users sending small pipeline
//! requests to a `bds_service::Service` on an open-loop schedule.
//!
//! Two equal-weight tenants each plan through a warm
//! `bds_plan::TenantPlanner`. A request is one of four pipeline shapes
//! at n = 4096 (those of the repository's service soak), consumed by a
//! reduce or, one time in eight, by a collect that allocates the result.
//!
//! One generator thread submits each request at its due time, and one
//! collector thread observes completions through the tickets' wakers, so
//! a slow request never delays the observation of a later one.

use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use bds_plan::{Consumed, ConsumerOp, Pipe, TenantPlanner};
use bds_pool::Pool;
use bds_service::{
    BreakerConfig, Budget, Rejected, Service, ServiceConfig, ServiceError, Tenant, Ticket,
    DEFAULT_COLD_START_WORK,
};

use crate::rng::{splitmix64, Rng};
use crate::stats::windowed_quantile;
use crate::trace::Trace;

/// Elements per request pipeline.
pub const N: usize = 4096;
/// Distinct pipeline shapes.
pub const SHAPES: usize = 4;
/// One request in this many uses the collect consumer.
pub const COLLECT_EVERY: u64 = 8;
/// The tenants, equal weight.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Service pool workers.
pub const WORKERS: usize = 2;
/// Plans each tenant's cache holds: every shape × consumer fits.
pub const PLAN_CAPACITY: usize = 16;
/// Plans a warm tenant cache holds: four shapes, two consumers.
pub const WARM_PLANS: usize = 2 * SHAPES;
/// Per-tenant queue bound, far above any backlog a ladder step that
/// meets the latency limit builds, so no request is refused.
pub const QUEUE_CAPACITY: usize = 1 << 16;

/// Offered rates (requests per second) of the coarse load ladder,
/// ascending, a factor of two apart. On the 2-CPU host the benchmark was
/// built on, the service saturates between 15k and 24k requests per
/// second depending on what else the machine runs, so the 14k rung is
/// met and the 28k rung is not; the top rung leaves room for a service
/// twice as fast.
pub const LADDER: [f64; 5] = [3_500.0, 7_000.0, 14_000.0, 28_000.0, 56_000.0];
/// Bisection steps between the highest rung met and the first missed:
/// `qps_max` then resolves a factor of `2^(1/32)`, about 2%.
pub const REFINE_STEPS: usize = 5;
/// The ladder rate at which `latency_p50_s` is read, and the longest
/// step: about a third of saturation.
pub const REFERENCE_RATE: f64 = 7_000.0;
/// Share of the run's seconds the reference step lasts.
pub const REFERENCE_SHARE: f64 = 0.3;
/// Share of the run's seconds every other rung of the coarse ladder
/// lasts.
pub const STEP_SHARE: f64 = 0.05;
/// Share of the run's seconds each bisection step lasts: longer than a
/// coarse rung, since near saturation the backlog slack is a smaller
/// share of a longer step's load and a host stall of a shorter share of
/// its time.
pub const REFINE_SHARE: f64 = 0.1;
/// The p99 latency limit a ladder step must meet. Host stalls of the
/// 2-CPU virtual machine alone put p99 near 10 ms at light load.
pub const P99_LIMIT_S: f64 = 0.025;
/// A step whose generator ran later than this at p99 is invalid.
pub const LATE_P99_BOUND_S: f64 = 0.010;
/// A step did not keep up when its service backlog (queued + in
/// flight) grew by more than this many seconds of offered load, or 64
/// requests, whichever is more.
pub const BACKLOG_SLACK_S: f64 = 0.050;
/// Requests in one burst pass.
pub const BURST: usize = 512;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Pipeline shape, `0..SHAPES`.
    pub shape: u8,
    /// Collect (true) or reduce (false).
    pub collect: bool,
    /// Tenant index.
    pub tenant: u8,
}

/// Draw `count` request specs from `rng`.
pub fn specs(rng: &mut Rng, count: usize) -> Vec<Spec> {
    (0..count)
        .map(|_| {
            let r = rng.next_u64();
            Spec {
                shape: (r % SHAPES as u64) as u8,
                collect: (r >> 8).is_multiple_of(COLLECT_EVERY),
                tenant: ((r >> 16) % TENANTS.len() as u64) as u8,
            }
        })
        .collect()
}

/// Poisson arrival offsets (seconds from the step start) at `rate` over
/// `dur_s`, with a spec for each.
pub fn schedule(rng: &mut Rng, rate: f64, dur_s: f64) -> Vec<(f64, Spec)> {
    let mut out = Vec::with_capacity((rate * dur_s * 1.2) as usize + 16);
    let mut t = rng.exp(1.0 / rate);
    while t < dur_s {
        let spec = specs(rng, 1)[0];
        out.push((t, spec));
        t += rng.exp(1.0 / rate);
    }
    out
}

/// The run's pipeline constants, drawn from the seed: requests of one
/// shape differ between seeds but not within a run, so a few oracle
/// values check every response.
#[derive(Debug, Clone, Copy)]
pub struct Consts([u64; 5]);

impl Consts {
    /// Constants for `seed`.
    pub fn new(seed: u64) -> Consts {
        let mut rng = Rng::new(splitmix64(seed ^ 0x5e7e));
        Consts(std::array::from_fn(|_| rng.next_u64() | 1))
    }
}

/// Build shape `shape`'s pipeline with fresh closures.
pub fn build_pipe(shape: u8, k: Consts) -> Pipe<u64> {
    let [c0, c1, c2, c3, c4] = k.0;
    match shape {
        0 => Pipe::tabulate(N, move |i| (i as u64).wrapping_mul(c0).wrapping_add(c1)),
        1 => Pipe::tabulate(N, |i| i as u64)
            .map(move |x| x.wrapping_mul(c2))
            .filter(|&x| x % 3 != 0),
        2 => Pipe::tabulate(N, move |i| i as u64 ^ c3)
            .rev()
            .skip(7)
            .take(N / 2),
        _ => Pipe::tabulate(N, |i| i as u64)
            .map(move |x| x ^ c4)
            .scan(0, |a, b| a.wrapping_add(b)),
    }
}

/// Each shape's output, computed with plain iterators.
pub fn oracle_vecs(k: Consts) -> [Vec<u64>; SHAPES] {
    let [c0, c1, c2, c3, c4] = k.0;
    let n = N as u64;
    let v0 = (0..n)
        .map(|i| i.wrapping_mul(c0).wrapping_add(c1))
        .collect();
    let v1 = (0..n)
        .map(|x| x.wrapping_mul(c2))
        .filter(|&x| x % 3 != 0)
        .collect();
    let v2 = (0..n).map(|i| i ^ c3).rev().skip(7).take(N / 2).collect();
    // Exclusive prefix sums of the mapped input.
    let v3 = (0..n)
        .map(|x| x ^ c4)
        .scan(0u64, |acc, x| {
            let before = *acc;
            *acc = acc.wrapping_add(x);
            Some(before)
        })
        .collect();
    [v0, v1, v2, v3]
}

/// Expected responses per shape.
pub struct Oracle {
    sums: [u64; SHAPES],
    vecs: [Vec<u64>; SHAPES],
}

impl Oracle {
    /// The oracle for constants `k`.
    pub fn new(k: Consts) -> Oracle {
        let vecs = oracle_vecs(k);
        let sums = std::array::from_fn(|s| vecs[s].iter().fold(0u64, |a, &b| a.wrapping_add(b)));
        Oracle { sums, vecs }
    }

    fn check(&self, spec: Spec, out: &Out) -> bool {
        let s = spec.shape as usize;
        match out {
            Out::Sum(v) => !spec.collect && *v == self.sums[s],
            Out::Vec(v) => spec.collect && *v == self.vecs[s],
        }
    }
}

/// A request's result.
pub enum Out {
    /// Reduce consumer.
    Sum(u64),
    /// Collect consumer.
    Vec(Vec<u64>),
}

impl From<Consumed<u64>> for Out {
    fn from(c: Consumed<u64>) -> Out {
        match c {
            Consumed::Scalar(x) => Out::Sum(x),
            Consumed::Vec(v) => Out::Vec(v),
            Consumed::Num(n) => Out::Sum(n as u64),
        }
    }
}

/// The consumer `spec` asks for: collect, or a wrapping-sum reduce.
fn consumer(spec: Spec) -> ConsumerOp<u64> {
    if spec.collect {
        ConsumerOp::Collect
    } else {
        ConsumerOp::Reduce(0, Arc::new(u64::wrapping_add), bds_cost::SIMPLE)
    }
}

/// What the submitted closure returns: the result, and when traced, the
/// closure's start and end.
pub struct Done {
    out: Out,
    ran: Option<(Instant, Instant)>,
}

/// The service, its tenants and planners, and the 1-worker pool that
/// runs the same requests without the service.
pub struct Server {
    /// The service under test.
    pub svc: Service,
    tenants: Vec<Tenant>,
    /// Per-tenant planners.
    pub planners: Vec<TenantPlanner>,
    consts: Consts,
    oracle: Oracle,
    /// One worker, for the scheduler-free pass.
    pub pool1: Pool,
}

impl Server {
    /// Start the service and warm it: every plan shape once, so both plan
    /// caches are full, then one burst. The warm-up requests' outcome is
    /// returned with it.
    pub fn setup(seed: u64) -> (Server, StepOut) {
        let svc = Service::new(ServiceConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            max_concurrent: 2 * WORKERS,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: DEFAULT_COLD_START_WORK,
        });
        let tenants = TENANTS.iter().map(|&t| svc.tenant(t)).collect();
        let planners = TENANTS
            .iter()
            .map(|&t| TenantPlanner::new(&svc, t, PLAN_CAPACITY))
            .collect();
        let consts = Consts::new(seed);
        let server = Server {
            svc,
            tenants,
            planners,
            consts,
            oracle: Oracle::new(consts),
            pool1: Pool::new(1),
        };
        let warm: Vec<Spec> = (0..TENANTS.len() as u8)
            .flat_map(|tenant| {
                (0..SHAPES as u8).flat_map(move |shape| {
                    [false, true].map(|collect| Spec {
                        shape,
                        collect,
                        tenant,
                    })
                })
            })
            .collect();
        let mut out = server.burst(&warm, false);
        if server
            .planners
            .iter()
            .any(|p| p.cache().len() != WARM_PLANS)
        {
            *out.failures
                .entry("warm_up.plan_cache_not_full".to_string())
                .or_default() += 1;
        }
        // Then one burst of the run's mix, so workers, allocator and the
        // service-time estimate are warm before anything is timed.
        let burst = server.burst(&specs(&mut Rng::new(seed ^ 0x3a3a), BURST), false);
        out.attempted += burst.attempted;
        for (name, n) in burst.failures {
            *out.failures.entry(name).or_default() += n;
        }
        (server, out)
    }

    fn send(&self, id: u64, spec: Spec, due: Instant, traced: bool) -> Result<Sent, Rejected> {
        let pipe = build_pipe(spec.shape, self.consts);
        let consumer = consumer(spec);
        let plan_start = Instant::now();
        let plan = self.planners[spec.tenant as usize].plan(pipe.shape(consumer.kind()));
        let submit_start = Instant::now();
        let ticket = self.svc.submit(
            self.tenants[spec.tenant as usize],
            Budget::unlimited(),
            move || {
                let start = traced.then(Instant::now);
                let out = Out::from(pipe.execute(&plan, &consumer));
                Done {
                    out,
                    ran: start.map(|s| (s, Instant::now())),
                }
            },
        );
        let submit_ret = Instant::now();
        ticket.map(|ticket| Sent {
            id,
            spec,
            due,
            plan_start,
            submit_start,
            submit_ret,
            ticket,
        })
    }

    /// Submit `specs` at their due times (`start` + offset), observing
    /// completions on a collector thread. With `offsets` absent every
    /// request is due at once: a burst.
    fn drive(&self, specs: &[Spec], offsets: Option<&[f64]>, traced: bool) -> StepOut {
        let (tx, rx) = channel();
        let lead = Duration::from_micros(500);
        let start = Instant::now()
            + if offsets.is_some() {
                lead
            } else {
                Duration::ZERO
            };
        let mut refused = Vec::new();
        let mut gen = GenStats {
            late_s: Vec::with_capacity(specs.len()),
            rejected: BTreeMap::new(),
            backlog_start: self.svc.queued() + self.svc.inflight(),
            backlog_end: 0,
        };
        let collected = std::thread::scope(|scope| {
            let wake_tx = tx.clone();
            let collector =
                scope.spawn(move || collect(rx, wake_tx, &self.oracle, traced, start, specs.len()));
            for (i, &spec) in specs.iter().enumerate() {
                let due = match offsets {
                    Some(off) => {
                        let due = start + Duration::from_secs_f64(off[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        gen.late_s.push((off[i], late.as_secs_f64()));
                        due
                    }
                    None => start,
                };
                match self.send(i as u64, spec, due, traced) {
                    Ok(sent) => tx
                        .send(Msg::New(Box::new(sent)))
                        .expect("collector outlives the generator"),
                    Err(r) => {
                        *gen.rejected.entry(rejected_name(r)).or_default() += 1;
                        refused.push(((due - start).as_secs_f64(), f64::INFINITY));
                    }
                }
            }
            gen.backlog_end = self.svc.queued() + self.svc.inflight();
            tx.send(Msg::Close)
                .expect("collector outlives the generator");
            collector.join().expect("collector thread panicked")
        });
        let mut failures = collected.failures;
        for (name, n) in &gen.rejected {
            *failures.entry(name.clone()).or_default() += n;
        }
        let mut latencies = collected.latencies;
        latencies.extend(refused);
        StepOut {
            attempted: specs.len() as u64,
            latencies,
            failures,
            gen,
            first_due: start,
            last_observed: collected.last_observed,
            layers: collected.layers,
            trace: collected.trace,
        }
    }

    /// An open-loop step: `sched` from [`schedule`].
    pub fn step(&self, sched: &[(f64, Spec)], traced: bool) -> StepOut {
        let offsets: Vec<f64> = sched.iter().map(|&(t, _)| t).collect();
        let specs: Vec<Spec> = sched.iter().map(|&(_, s)| s).collect();
        self.drive(&specs, Some(&offsets), traced)
    }

    /// A burst: every request due at once; the pass time is first due
    /// to last observed completion.
    pub fn burst(&self, specs: &[Spec], traced: bool) -> StepOut {
        self.drive(specs, None, traced)
    }

    /// The same requests planned and executed one after another on the
    /// calling side of a 1-worker pool, with no service in between.
    /// Returns the wall time and the number of wrong outputs.
    pub fn direct(&self, specs: &[Spec]) -> (f64, u64) {
        let t0 = Instant::now();
        let outs: Vec<Out> = self.pool1.install(|| {
            specs
                .iter()
                .map(|&spec| {
                    let pipe = build_pipe(spec.shape, self.consts);
                    let consumer = consumer(spec);
                    let plan =
                        self.planners[spec.tenant as usize].plan(pipe.shape(consumer.kind()));
                    Out::from(pipe.execute(&plan, &consumer))
                })
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let wrong = specs
            .iter()
            .zip(&outs)
            .filter(|(&s, o)| !self.oracle.check(s, o))
            .count() as u64;
        (wall, wrong)
    }
}

fn rejected_name(r: Rejected) -> String {
    match r {
        Rejected::QueueFull => "rejected.queue_full",
        Rejected::Deadline => "rejected.deadline",
        Rejected::CircuitOpen { .. } => "rejected.circuit_open",
        Rejected::Shutdown => "rejected.shutdown",
    }
    .to_string()
}

fn error_name(e: &ServiceError) -> String {
    match e {
        ServiceError::Exceeded(x) => format!("error.exceeded.{x:?}").to_lowercase(),
        ServiceError::Panicked(msg) => format!("error.panicked: {msg}"),
        ServiceError::BlockFailed(_) => "error.block_failed".to_string(),
    }
}

/// One submitted request, as the generator hands it to the collector.
struct Sent {
    id: u64,
    spec: Spec,
    due: Instant,
    plan_start: Instant,
    submit_start: Instant,
    submit_ret: Instant,
    ticket: Ticket<Done>,
}

enum Msg {
    New(Box<Sent>),
    Ready(u64),
    Close,
}

/// Wakes the collector with the id of the request whose ticket is ready.
struct Notify {
    id: u64,
    tx: Sender<Msg>,
}

impl Wake for Notify {
    fn wake(self: Arc<Self>) {
        // The collector only stops once every ticket resolved, so the
        // receiver is alive whenever a wake can still arrive.
        let _ = self.tx.send(Msg::Ready(self.id));
    }
}

/// Generator-side observations of one step.
#[derive(Debug, Default)]
pub struct GenStats {
    /// How late each request was submitted, in seconds, with its due
    /// time (seconds from the step start).
    pub late_s: Vec<(f64, f64)>,
    /// Refusals by [`Rejected`] variant.
    pub rejected: BTreeMap<String, u64>,
    /// Service backlog (queued + in flight) when the step began.
    pub backlog_start: usize,
    /// Service backlog when the last request had been submitted.
    pub backlog_end: usize,
}

/// Per-request layer times of a traced step, in seconds. For request
/// `i`, `gen + submit + wait + exec + complete` is its latency.
#[derive(Debug, Default)]
pub struct Layers {
    /// Due time → `Service::submit` call (lateness, pipe build, plan).
    pub gen: Vec<f64>,
    /// `TenantPlanner::plan`.
    pub lookup: Vec<f64>,
    /// The `Service::submit` call.
    pub submit: Vec<f64>,
    /// Submit return → closure start.
    pub wait: Vec<f64>,
    /// `Pipe::execute` inside the closure.
    pub exec: Vec<f64>,
    /// Closure end → ticket observed ready.
    pub complete: Vec<f64>,
}

/// Everything one step or burst measured.
pub struct StepOut {
    /// Requests offered.
    pub attempted: u64,
    /// `(due, latency)` of each request in seconds, the due time from
    /// the step start and the latency from the due time; refused and
    /// failed requests count as infinitely late.
    pub latencies: Vec<(f64, f64)>,
    /// Failed operations by name.
    pub failures: BTreeMap<String, u64>,
    /// Generator observations.
    pub gen: GenStats,
    /// Due time of the first request.
    pub first_due: Instant,
    /// When the last completion was observed.
    pub last_observed: Instant,
    /// Layer times (traced steps only).
    pub layers: Layers,
    /// Spans (traced steps only).
    pub trace: Option<Trace>,
}

impl StepOut {
    /// Latencies alone, seconds.
    pub fn latency_s(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, l)| l).collect()
    }

    /// The median, over the step's windows, of each window's `q`
    /// quantile of latency: a host stall moves the windows it hits, not
    /// the step.
    pub fn windowed_latency(&self, q: f64) -> f64 {
        windowed_quantile(&self.latencies, q)
    }

    /// [`StepOut::windowed_latency`] for generator lateness.
    pub fn windowed_lateness(&self, q: f64) -> f64 {
        windowed_quantile(&self.gen.late_s, q)
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// First due to last observed, seconds.
    pub fn wall_s(&self) -> f64 {
        self.last_observed
            .saturating_duration_since(self.first_due)
            .as_secs_f64()
    }
}

struct Collected {
    latencies: Vec<(f64, f64)>,
    failures: BTreeMap<String, u64>,
    last_observed: Instant,
    layers: Layers,
    trace: Option<Trace>,
}

fn collect(
    rx: Receiver<Msg>,
    wake_tx: Sender<Msg>,
    oracle: &Oracle,
    traced: bool,
    epoch: Instant,
    expect: usize,
) -> Collected {
    let mut pending: HashMap<u64, Box<Sent>> = HashMap::with_capacity(expect.min(1 << 16));
    let mut out = Collected {
        latencies: Vec::with_capacity(expect),
        failures: BTreeMap::new(),
        last_observed: epoch,
        layers: Layers::default(),
        trace: traced.then(|| Trace::new(epoch)),
    };
    let mut closed = false;
    while !(closed && pending.is_empty()) {
        let id = match rx.recv().expect("the generator holds a sender") {
            Msg::New(sent) => {
                let id = sent.id;
                pending.insert(id, sent);
                id
            }
            Msg::Ready(id) => id,
            Msg::Close => {
                closed = true;
                continue;
            }
        };
        let Some(req) = pending.get_mut(&id) else {
            continue; // a wake for a request already observed
        };
        let waker = Waker::from(Arc::new(Notify {
            id,
            tx: wake_tx.clone(),
        }));
        let poll = Pin::new(&mut req.ticket).poll(&mut Context::from_waker(&waker));
        let Poll::Ready(response) = poll else {
            continue;
        };
        let seen = Instant::now();
        let req = pending.remove(&id).expect("present above");
        out.last_observed = out.last_observed.max(seen);
        let due = (req.due - epoch).as_secs_f64();
        let ran = match response {
            Ok(done) => {
                if !oracle.check(req.spec, &done.out) {
                    *out.failures
                        .entry(format!("wrong_output.shape{}", req.spec.shape))
                        .or_default() += 1;
                    out.latencies.push((due, f64::INFINITY));
                } else {
                    out.latencies.push((due, (seen - req.due).as_secs_f64()));
                }
                done.ran
            }
            Err(e) => {
                *out.failures.entry(error_name(&e)).or_default() += 1;
                out.latencies.push((due, f64::INFINITY));
                None
            }
        };
        if let (Some(trace), Some((run_start, run_end))) = (out.trace.as_mut(), ran) {
            record_request(trace, &mut out.layers, &req, run_start, run_end, seen);
        }
    }
    out
}

/// Record one request's spans, tiling due → observed so that the
/// children's self times sum to the root's duration. Boundaries are
/// clamped to be monotone (a closure can start before `submit`
/// returns to its caller).
fn record_request(
    trace: &mut Trace,
    layers: &mut Layers,
    req: &Sent,
    run_start: Instant,
    run_end: Instant,
    seen: Instant,
) {
    let b0 = req.due;
    let b1 = b0.max(req.submit_start);
    let b2 = b1.max(req.submit_ret);
    let b3 = b2.max(run_start);
    let b4 = b3.max(run_end);
    let b5 = b4.max(seen);
    let id = req.id;
    let root = trace.push("request", b0, b5, None, id);
    let gen = trace.push("generator", b0, b1, Some(root), id);
    let lookup_start = req.plan_start.clamp(b0, b1);
    trace.push("plan.lookup", lookup_start, b1, Some(gen), id);
    trace.push("service.submit", b1, b2, Some(root), id);
    trace.push("service.wait", b2, b3, Some(root), id);
    trace.push("plan.exec", b3, b4, Some(root), id);
    trace.push("service.complete", b4, b5, Some(root), id);
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    layers.gen.push(s(b0, b1));
    layers.lookup.push(s(lookup_start, b1));
    layers.submit.push(s(b1, b2));
    layers.wait.push(s(b2, b3));
    layers.exec.push(s(b3, b4));
    layers.complete.push(s(b4, b5));
}
