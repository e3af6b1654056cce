//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line, a detail line, and as its last line the result
//! JSON: `correct`, `attempted`, `failed`, `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use bds_perfbench::report::{json_num, json_str};
use bds_perfbench::run::{run, workload_name, Opts, Workload};

#[global_allocator]
static ALLOC: bds_metrics::CountingAlloc = bds_metrics::CountingAlloc;

/// Settings that change what the library does; numbers taken under
/// different values must never be compared, so the benchmark refuses
/// to run with any `BDS_*` variable set.
fn overrides() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BDS_"))
        .collect()
}

/// `(steal, total)` CPU ticks from `/proc/stat`, where it exists.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload paper-bid|paper-rad|serve-open is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = overrides();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with library overrides set: {}",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    // Spans go next to the build output, inside the checkout.
    let trace_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-trace");
    let steal_before = host_steal();
    let mut report = run(opts, Some(trace_dir));
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host_steal()) {
        // Share of CPU time the hypervisor gave to other guests during the
        // run: the first thing to look at when a run reads slow.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.detail("host_steal_share", json_num(share));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cal = bds_cost::calibration();
    println!(
        "{{\"context\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"simd_level\":{},\"calibration\":{{\"ns_per_work\":{},\"block_overhead_ns\":{}}}}}}}",
        json_str(workload_name(opts.workload)),
        opts.seed,
        opts.seconds,
        opts.trace,
        json_str(bds_seq::simd::active_level().name()),
        cal.ns_per_work,
        cal.block_overhead_ns,
    );
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
