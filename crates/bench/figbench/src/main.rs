//! `figbench` — the repository's benchmark: the paper's figure
//! simulations timed end to end, plus a traced run that splits the time
//! into a per-layer cost ledger.
//!
//! ```text
//! figbench --workload <fig6-star|fabric-32q|incast-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones; README.md
//! lists them all. A run whose outputs fail a check, or whose output
//! digest changes between repeated runs of one seed, exits 1 without a
//! result.

#![forbid(unsafe_code)]

mod ledger;
mod replay;
mod trace;
mod workload;

use std::hint::black_box;
use std::time::Instant;

use tcn_core::FlowId;
use tcn_net::{FlowSpec, NetworkSim};
use tcn_stats::FctBreakdown;
use tcn_telemetry::Telemetry;

use workload::{is_host_nic, Cell, Sim, Workload, DEADLINE, NAMES};

/// Set-up samples taken after each measured repetition, so that set-up
/// is sampled across the whole run like the repetitions are; `setup_s`
/// is their median.
const SETUP_PER_REP: usize = 5;
/// Fewest measured repetitions per run, even past `--seconds`.
const MIN_REPS: usize = 3;
/// Environment knobs other programs of the repository read to change
/// dispatch, the fluid path or thread count. The benchmark pins all
/// three, so it reports a set knob and otherwise ignores it.
const PINNED_ENV: [&str; 3] = ["TCN_DISPATCH", "TCN_HYBRID", "TCN_THREADS"];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {})", NAMES.join(", ")))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a run must reproduce exactly: completion times, drops, marks
/// and events of every simulation, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest {
    fct_ps_sum: u64,
    fct_hash: u64,
    drops: u64,
    marks: u64,
    events: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            fct_ps_sum: 0,
            // FNV-1a offset basis; `add` folds in (flow id, fct) of every
            // completed flow.
            fct_hash: 0xcbf2_9ce4_8422_2325,
            drops: 0,
            marks: 0,
            events: 0,
        }
    }

    fn add(&mut self, sim: &NetworkSim) {
        for r in sim.fct_records() {
            self.fct_ps_sum = self.fct_ps_sum.wrapping_add(r.fct.as_ps());
            for word in [r.flow.0, r.fct.as_ps()] {
                for byte in word.to_le_bytes() {
                    self.fct_hash =
                        (self.fct_hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        self.drops += sim.total_drops();
        self.marks += (0..sim.num_links())
            .map(|l| sim.port(l).stats().total_marks())
            .sum::<u64>();
        self.events += sim.events_processed();
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fct_sum_ps={} fct_hash={:016x} drops={} marks={} events={}",
            self.fct_ps_sum, self.fct_hash, self.drops, self.marks, self.events
        )
    }
}

/// One simulation, built, run and summarised, with its host times.
struct CellRun {
    sim: NetworkSim,
    run_s: f64,
    summary_s: f64,
    /// Flows not completed by the deadline or delivered short.
    failed: u64,
}

/// Build `cell`, register `flows`, run to completion and compute the
/// FCT report, timing each step. A simulation error counts every flow
/// as failed.
fn simulate(cell: &Cell, flows: &[FlowSpec], bus: Option<&Telemetry>) -> Result<CellRun, String> {
    let mut builder = cell.builder();
    if let Some(bus) = bus {
        builder = builder.telemetry(bus);
    }
    let mut sim = builder.build().map_err(|e| format!("build: {e}"))?;
    for f in flows {
        sim.add_flow(*f);
    }
    let t1 = Instant::now();
    let outcome = sim.run_to_completion(DEADLINE);
    let t2 = Instant::now();
    black_box(FctBreakdown::from_records(&sim.fct_records()));
    let t3 = Instant::now();
    let failed = match outcome {
        Ok(_) => {
            let short = (0..flows.len())
                .filter(|&i| sim.delivered_bytes(FlowId(i as u64)) != flows[i].size)
                .count();
            (flows.len() - sim.completed_flows()).max(short) as u64
        }
        Err(e) => {
            eprintln!("figbench: {} cell failed: {e}", cell.scheme.name());
            flows.len() as u64
        }
    };
    Ok(CellRun {
        sim,
        run_s: (t2 - t1).as_secs_f64(),
        summary_s: (t3 - t2).as_secs_f64(),
        failed,
    })
}

/// Host-side totals of one repetition of a workload: every cell, one
/// after another, each simulation dropped before the next is built.
struct Rep {
    /// Build + run + FCT report of every cell: what a user waits for.
    result_s: f64,
    run_s: f64,
    summary_s: f64,
    /// Packet transmissions over every port of every cell.
    tx_packets: u64,
    attempted: u64,
    failed: u64,
    digest: Digest,
    /// Per cell: the busiest switch port and the busiest host NIC.
    hot: Vec<(usize, usize)>,
}

fn run_rep(sims: &[Sim]) -> Result<Rep, String> {
    let mut rep = Rep {
        result_s: 0.0,
        run_s: 0.0,
        summary_s: 0.0,
        tx_packets: 0,
        attempted: sims.iter().map(|s| s.flows.len() as u64).sum(),
        failed: 0,
        digest: Digest::new(),
        hot: Vec::with_capacity(sims.len()),
    };
    let t0 = Instant::now();
    let mut host_s = 0.0;
    for Sim { cell, flows } in sims {
        let run = simulate(cell, flows, None)?;
        let t = Instant::now();
        rep.run_s += run.run_s;
        rep.summary_s += run.summary_s;
        rep.tx_packets += tx_packets(&run.sim);
        rep.failed += run.failed;
        rep.digest.add(&run.sim);
        rep.hot.push(hot_ports(&run.sim, cell.hosts())?);
        drop(run);
        host_s += t.elapsed().as_secs_f64();
    }
    // Book-keeping between cells is the benchmark's, not the user's.
    rep.result_s = t0.elapsed().as_secs_f64() - host_s;
    Ok(rep)
}

fn tx_packets(sim: &NetworkSim) -> u64 {
    (0..sim.num_links())
        .map(|l| sim.port(l).stats().tx_packets)
        .sum()
}

/// Samples of the two set-up steps: flow generation and network build.
#[derive(Default)]
struct Setup {
    gen: Vec<f64>,
    build: Vec<f64>,
}

impl Setup {
    /// `gen + build` per sample.
    fn total(&self) -> Vec<f64> {
        self.gen
            .iter()
            .zip(&self.build)
            .map(|(g, b)| g + b)
            .collect()
    }
}

/// Repeat the workload after `first` until `seconds` have passed, and
/// at least [`MIN_REPS`] times in all, taking [`SETUP_PER_REP`] set-up
/// samples after each repetition. Every repetition must reproduce the
/// first one's digest.
fn measure(
    wl: &Workload,
    seed: u64,
    sims: &[Sim],
    first: Rep,
    seconds: f64,
) -> Result<(Vec<Rep>, Setup), String> {
    let start = Instant::now();
    let mut reps = vec![first];
    let mut setup = Setup::default();
    loop {
        sample_setup(wl, seed, &mut setup)?;
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds {
            return Ok((reps, setup));
        }
        let rep = run_rep(sims)?;
        if rep.digest != reps[0].digest {
            return Err(format!(
                "output digest changed between repetitions of one seed\n  first: {}\n  later: {}",
                reps[0].digest, rep.digest
            ));
        }
        reps.push(rep);
    }
}

/// Time the set-up steps [`SETUP_PER_REP`] times: generating the
/// flows, and building every simulation's network with its flows
/// registered.
fn sample_setup(wl: &Workload, seed: u64, setup: &mut Setup) -> Result<(), String> {
    for _ in 0..SETUP_PER_REP {
        let t0 = Instant::now();
        let plan = black_box(wl.plan(seed));
        let t1 = Instant::now();
        let mut built = Vec::with_capacity(plan.len());
        for Sim { cell, flows } in &plan {
            let mut sim = cell.builder().build().map_err(|e| format!("build: {e}"))?;
            for f in flows {
                sim.add_flow(*f);
            }
            built.push(sim);
        }
        let t2 = Instant::now();
        black_box(&built);
        setup.gen.push((t1 - t0).as_secs_f64());
        setup.build.push((t2 - t1).as_secs_f64());
    }
    Ok(())
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What a run prints: its result line and the human-readable lines
/// before it.
struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Measured repetitions behind the run-phase medians.
    reps: usize,
    /// Set-up samples behind the set-up medians.
    setup_samples: usize,
    metrics: Vec<Metric>,
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let sims = args.workload.plan(args.seed);
    // Memory high-water of one repetition, read before set-up samples
    // and later repetitions add allocator history of their own.
    let first = run_rep(&sims)?;
    let peak_rss = peak_rss_mb()?;
    let (reps, setup) = measure(&args.workload, args.seed, &sims, first, args.seconds as f64)?;
    let setup = setup.total();
    let setup_samples = setup.len();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let lines = vec![
        format!("digest: {}", reps[0].digest),
        format!(
            "samples: setup_s {} set-ups, result_s and pkts_per_s {} repetitions of {} simulation(s), {} flows",
            setup.len(),
            reps.len(),
            sims.len(),
            reps[0].attempted
        ),
        format!("flows_incomplete: {failed} of {attempted} flows"),
    ];
    let metrics = vec![
        m("setup_s", median(setup), "s"),
        m(
            "result_s",
            median(reps.iter().map(|r| r.result_s).collect()),
            "s",
        ),
        m(
            "pkts_per_s",
            median(reps.iter().map(|r| r.tx_packets as f64 / r.run_s).collect()),
            "1/s",
        ),
        m("peak_rss_mb", peak_rss, "MB"),
        m(
            "flows_completed_frac",
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ];
    Ok(Report {
        lines,
        attempted,
        failed,
        reps: reps.len(),
        setup_samples,
        metrics,
    })
}

/// The busiest switch port and the busiest host NIC of `sim` (most
/// enqueue attempts; the lowest link index among equals).
fn hot_ports(sim: &NetworkSim, hosts: usize) -> Result<(usize, usize), String> {
    let busiest = |nic: bool| {
        (0..sim.num_links())
            .filter(|&l| is_host_nic(l, hosts) == nic)
            .max_by_key(|&l| {
                let s = sim.port(l).stats();
                (s.tx_packets + s.total_drops(), std::cmp::Reverse(l))
            })
            .ok_or_else(|| "topology lacks a switch port or a host NIC".to_string())
    };
    Ok((busiest(false)?, busiest(true)?))
}

/// Refuse a build that is not the measured configuration, and report
/// environment knobs the benchmark overrides.
fn pinned_config() -> Result<Vec<String>, String> {
    if cfg!(debug_assertions) {
        return Err("build with --release: debug builds are not the measured program".into());
    }
    if tcn_audit::active() {
        return Err("the audit feature is on: the measured program runs without it".into());
    }
    let set: Vec<String> = PINNED_ENV
        .iter()
        .filter(|k| std::env::var_os(k).is_some())
        .map(|k| k.to_string())
        .collect();
    for k in &set {
        eprintln!(
            "figbench: ignoring {k}: the benchmark pins batched dispatch, hybrid off, one thread"
        );
    }
    Ok(set)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn manifest(args: &Args, report: &Report, ignored_env: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ignored: Vec<String> = ignored_env.iter().map(|k| json_str(k)).collect();
    format!(
        "{{\"workload\":{},\"why\":{},\"params\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"profile\":\"release (opt-level 3, lto thin, debug info)\",\"features\":[],\"audit\":false,\
         \"dispatch\":\"batched\",\"hybrid\":false,\"sim_threads\":1,\"nproc\":{nproc},\
         \"setup_samples\":{},\"run_samples\":{},\"ignored_env\":[{}]}}",
        json_str(&args.name),
        json_str(args.workload.why()),
        args.workload.manifest(),
        args.seed,
        args.seconds,
        args.trace,
        report.setup_samples,
        report.reps,
        ignored.join(",")
    )
}

fn result_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for x in &report.metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(x.name),
            x.value,
            json_str(x.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "figbench: {e}\nusage: figbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = pinned_config().and_then(|ignored| {
        let report = if args.trace {
            ledger::per_layer(&args)
        } else {
            end_to_end(&args)
        }?;
        let last = result_line(&report)?;
        Ok((manifest(&args, &report, &ignored), report.lines, last))
    });
    match outcome {
        Ok((manifest, lines, last)) => {
            println!("manifest: {manifest}");
            for l in lines {
                println!("{l}");
            }
            println!("{last}");
        }
        Err(e) => {
            eprintln!("figbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
