//! `perfbench` — the repo's performance baseline harness.
//!
//! Produces the two checked-in baseline files at the repo root:
//!
//! * `BENCH_engine.json` — event-queue hold-model throughput (calendar
//!   `EventQueue` vs the `HeapEventQueue` binary-heap oracle, pops/sec)
//!   and the in-flight packet arena's per-packet allocator round-trips
//!   measured on a real testbed-star simulation;
//! * `BENCH_sweep.json` — wall clock for a fig5 + fig10 experiment
//!   slice, serial vs parallel sweep runner, with the host parallelism
//!   recorded so the speedup number can be judged honestly.
//!
//! Modes:
//!
//! * default — full measurement, **writes** both files;
//! * `--smoke` — reduced iteration counts, **no writes**: re-measures
//!   the calendar-vs-binheap throughput ratio and the two
//!   batched-vs-per-event dispatch ratios (wall speedup and work per
//!   pop) and fails (exit 1) if any regressed more than 25 % against
//!   the checked-in `BENCH_engine.json`. `cargo xtask ci` runs this
//!   stage.
//!
//! Wall-clock timing is deliberately confined to `crates/bench` (and
//! `xtask`): the `no-wallclock` lint rule keeps `Instant`/`SystemTime`
//! out of the simulation crates, where all time is virtual.

use std::time::Instant;

use tcn_experiments::common::{params, switch_port, Scale, SchedKind};
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::json::{Json, ToJson};
use tcn_experiments::{fig5, Scheme};
use tcn_net::{
    single_switch, DispatchMode, LeafSpineConfig, NetworkSim, TaggingPolicy, TransportChoice,
};
use tcn_sim::{EventQueue, HeapEventQueue, Rate, Rng, Time};
use tcn_workloads::{gen_incast, gen_many_to_one, Workload};

/// Repo root, derived from this crate's manifest dir (crates/bench).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has two ancestors")
        .to_path_buf()
}

/// Shaped hold-model delta: mostly near-horizon (sub-day to a few
/// calendar days), some same-instant ties, a mid tail spanning many
/// days, and a rare far tail that lands in the overflow tier — the same
/// mix the differential test uses, approximating a DES's event horizon.
fn shaped_delta(rng: &mut Rng) -> Time {
    let shape = rng.gen_range(100);
    if shape < 60 {
        Time::from_ps(rng.gen_range(1 << 22)) // ≤ ~4 µs (≈ 4 days)
    } else if shape < 80 {
        Time::ZERO
    } else if shape < 95 {
        Time::from_ps(rng.gen_range(1 << 29)) // ≤ ~0.5 ms
    } else {
        Time::from_ps(rng.gen_range(1 << 36)) // ≤ ~70 ms (overflow tier)
    }
}

/// Classic hold model: keep `resident` events queued; each step pops
/// the earliest and schedules a replacement at `now + delta`. Returns
/// pops per second of wall time.
macro_rules! hold_model {
    ($name:ident, $queue:ty) => {
        fn $name(resident: usize, pops: u64, seed: u64) -> f64 {
            let mut q: $queue = <$queue>::new();
            let mut rng = Rng::new(seed);
            for i in 0..resident as u64 {
                let d = shaped_delta(&mut rng);
                q.schedule_at(Time::ZERO.saturating_add(d), i);
            }
            let t0 = Instant::now();
            for i in 0..pops {
                let e = q.pop().expect("hold model never drains");
                std::hint::black_box(e.event);
                let d = shaped_delta(&mut rng);
                q.schedule_at(e.at.saturating_add(d), i);
            }
            let secs = t0.elapsed().as_secs_f64();
            pops as f64 / secs
        }
    };
}

hold_model!(hold_calendar, EventQueue<u64>);
hold_model!(hold_binheap, HeapEventQueue<u64>);

/// Run a testbed-star cell (fig6 shape) and report the arena's
/// allocator counters: the "zero allocator round-trips in steady
/// state" claim, measured.
fn arena_measurement(flows: usize) -> Json {
    let cfg = SweepConfig::fig6();
    let rate = cfg.rate;
    let scheme = Scheme::Tcn {
        threshold: params::testbed::TCN_T,
    };
    let mk = || {
        switch_port(
            cfg.nqueues,
            Some(cfg.buffer),
            None,
            cfg.sched,
            scheme,
            rate,
            1500,
            1,
        )
    };
    let mut sim = single_switch(
        9,
        rate,
        params::testbed::LINK_DELAY,
        TransportChoice::TestbedDctcp.config(),
        TaggingPolicy::Fixed,
        mk,
    ).expect("topology is well-formed");
    let mut rng = Rng::new(42);
    let senders: Vec<u32> = (0..8).collect();
    let specs = gen_many_to_one(
        &mut rng,
        flows,
        &senders,
        8,
        &Workload::WebSearch.cdf(),
        0.7,
        rate,
        &(0..4).collect::<Vec<u8>>(),
        Time::ZERO,
    );
    for f in &specs {
        sim.add_flow(*f);
    }
    assert!(sim.run_to_completion(Time::from_secs(10_000)).expect("run"));
    let s = sim.arena_stats();
    Json::obj(vec![
        ("flows", (flows as u64).to_json()),
        ("inserted", s.inserted.to_json()),
        ("slot_allocs", s.slot_allocs.to_json()),
        ("recycled", s.recycled.to_json()),
        ("high_water", s.high_water.to_json()),
        ("allocs_per_packet", s.allocs_per_packet().to_json()),
    ])
}

/// The incast macro-benchmark sim: `fanout` senders fire synchronized
/// `flow_bytes` waves at one receiver through a single FIFO+TCN switch
/// (drop-tail single-queue ports with sojourn-threshold marking — the
/// classic DCTCP incast setting, marked by TCN) on 10 Gbps links.
/// Same-instant wave starts make dense same-timestamp batches; FIFO's
/// idle select is pure, so every port in the topology is
/// coalescing-eligible (the sender NICs between ACK-clocked bursts,
/// the receiver NIC and the switch ACK-return ports elide almost all
/// their wakes).
fn incast_sim(fanout: usize, waves: usize, flow_bytes: u64) -> NetworkSim {
    let rate = Rate::from_gbps(10);
    let scheme = Scheme::Tcn {
        threshold: params::sim::TCN_T_DCTCP,
    };
    let mut sim = single_switch(
        fanout + 1,
        rate,
        Time::from_us(20),
        TransportChoice::SimDctcp.config(),
        TaggingPolicy::Fixed,
        || {
            switch_port(
                1,
                Some(params::sim::BUFFER),
                None,
                SchedKind::Fifo,
                scheme,
                rate,
                1500,
                5,
            )
        },
    )
    .expect("topology is well-formed");
    let receiver = fanout as u32;
    let senders: Vec<u32> = (0..fanout as u32).collect();
    let mut rng = Rng::new(77);
    for w in 0..waves {
        // Zero jitter: every sender in a wave fires at the same
        // instant — the canonical incast shape, and the dense
        // same-timestamp epochs the batched drain exists for.
        let at = Time::from_ms(2 * w as u64 + 1);
        for spec in gen_incast(&mut rng, &senders, receiver, flow_bytes, at, Time::ZERO, 0) {
            sim.add_flow(spec);
        }
    }
    sim
}

/// Run the incast macro-benchmark once under the given dispatch
/// mode: `(wall ms, events processed, fct checksum, drops)`.
fn incast_run(
    fanout: usize,
    waves: usize,
    flow_bytes: u64,
    mode: DispatchMode,
) -> (f64, u64, u64, u64) {
    let mut sim = incast_sim(fanout, waves, flow_bytes);
    sim.set_dispatch_mode(mode);
    let t0 = Instant::now();
    assert!(sim.run_to_completion(Time::from_secs(60)).expect("run"));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fct_sum: u64 = sim.fct_records().iter().map(|r| r.fct.as_ps()).sum();
    (wall_ms, sim.events_processed(), fct_sum, sim.total_drops())
}

/// The dispatch-path comparison (DESIGN §7.5–7.6): per-event vs batched
/// on the incast macro-benchmark. Events/sec uses a *common* work unit
/// — the per-event mode's event count — because coalescing legitimately
/// processes fewer events for the same simulated work. Asserts batched output byte-identity along
/// the way.
fn dispatch_measurement(smoke: bool) -> Json {
    let (fanout, waves, bytes) = if smoke {
        (16usize, 3usize, 64_000u64)
    } else {
        (32, 5, 64_000)
    };
    // Best-of-3 walls per mode, interleaved, so a scheduler hiccup does
    // not skew a ratio; outputs are asserted invariant across rounds.
    let mut pe = (f64::INFINITY, 0u64, 0u64, 0u64);
    let mut ba = (f64::INFINITY, 0u64, 0u64, 0u64);
    for _ in 0..3 {
        let r = incast_run(fanout, waves, bytes, DispatchMode::PerEvent);
        if r.0 < pe.0 {
            pe = r;
        }
        let r = incast_run(fanout, waves, bytes, DispatchMode::Batched);
        if r.0 < ba.0 {
            ba = r;
        }
    }
    assert_eq!(
        (pe.2, pe.3),
        (ba.2, ba.3),
        "batched dispatch diverged from per-event on the macro-benchmark"
    );
    let common_events = pe.1;
    Json::obj(vec![
        ("fanout", (fanout as u64).to_json()),
        ("waves", (waves as u64).to_json()),
        ("flow_bytes", bytes.to_json()),
        ("per_event_wall_ms", pe.0.to_json()),
        ("batched_wall_ms", ba.0.to_json()),
        ("per_event_events", common_events.to_json()),
        ("batched_events", ba.1.to_json()),
        (
            "per_event_events_per_sec",
            (common_events as f64 / (pe.0 / 1e3)).round().to_json(),
        ),
        (
            "batched_events_per_sec",
            (common_events as f64 / (ba.0 / 1e3)).round().to_json(),
        ),
        ("batched_vs_per_event", (pe.0 / ba.0).to_json()),
        // Deterministic, machine-independent: how many event-queue
        // round-trips per-event dispatch performs for each one the
        // batched drain (with per-port coalescing) performs on the
        // same simulated work — the drain-layer events/s advantage at
        // equal per-pop cost. Byte-identity (asserted above) makes the
        // two runs the *same* simulation, so this is exact.
        (
            "batched_work_per_pop_vs_per_event",
            (common_events as f64 / ba.1 as f64).to_json(),
        ),
        (
            "note",
            "events/sec is per-event mode's event count over each mode's wall time \
             (a common work unit; batched pops fewer events for the same work); \
             *_work_per_pop_vs_per_event is the deterministic version of the same \
             comparison at the queue layer: simulated events of work advanced per \
             event-queue pop, relative to per-event dispatch"
                .to_json(),
        ),
    ])
}

fn engine_baseline(smoke: bool) -> Json {
    let resident = 1 << 16;
    let pops: u64 = if smoke { 400_000 } else { 4_000_000 };
    // Interleave A/B/A/B and keep the better of two rounds each, so a
    // one-off scheduler hiccup doesn't skew the ratio.
    let mut cal: f64 = 0.0;
    let mut bin: f64 = 0.0;
    for round in 0..2u64 {
        cal = cal.max(hold_calendar(resident, pops, 11 + round));
        bin = bin.max(hold_binheap(resident, pops, 11 + round));
    }
    let arena = arena_measurement(if smoke { 150 } else { 600 });
    let dispatch = dispatch_measurement(smoke);
    Json::obj(vec![
        ("resident_events", (resident as u64).to_json()),
        ("pops", pops.to_json()),
        ("calendar_pops_per_sec", cal.round().to_json()),
        ("binheap_pops_per_sec", bin.round().to_json()),
        ("calendar_vs_binheap", (cal / bin).to_json()),
        ("arena", arena),
        ("dispatch", dispatch),
    ])
}

fn sweep_baseline() -> Json {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = host.max(1);

    let t0 = Instant::now();
    let f5 = fig5::run(Time::from_ms(150));
    std::hint::black_box(&f5);
    let fig5_ms = t0.elapsed().as_secs_f64() * 1e3;

    let scale = Scale {
        flows: 250,
        loads: &[0.5, 0.7],
        seed: 1,
    };
    let cfg = SweepConfig::fig10(LeafSpineConfig::small());
    let schemes = cfg.schemes();
    let t1 = Instant::now();
    let serial = fct_sweep::run_schemes_with_threads(&cfg, &scale, &schemes, 1);
    let serial_ms = t1.elapsed().as_secs_f64() * 1e3;

    // On a single-core host a "parallel" run measures pool overhead,
    // not a speedup, and 0.93x reads like a regression — skip the
    // comparison outright and record why.
    let (par_ms, speedup, note) = if host == 1 {
        (
            Json::Null,
            Json::Null,
            "single-core host: serial-vs-parallel comparison skipped (a 1-thread pool \
             can only measure overhead, never a speedup)",
        )
    } else {
        let t2 = Instant::now();
        let par = fct_sweep::run_schemes_with_threads(&cfg, &scale, &schemes, threads);
        let par_ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            serial.to_json().pretty(),
            par.to_json().pretty(),
            "parallel sweep output diverged from serial"
        );
        (
            par_ms.round().to_json(),
            (serial_ms / par_ms).to_json(),
            "speedup is bounded by host_parallelism",
        )
    };

    Json::obj(vec![
        ("host_parallelism", (host as u64).to_json()),
        ("threads", (threads as u64).to_json()),
        ("fig5_slice_wall_ms", fig5_ms.round().to_json()),
        ("fig10_slice_cells", (serial.cells.len() as u64).to_json()),
        ("fig10_slice_serial_wall_ms", serial_ms.round().to_json()),
        ("fig10_slice_parallel_wall_ms", par_ms),
        ("speedup", speedup),
        ("note", note.to_json()),
    ])
}

/// Check one machine-independent ratio against its checked-in baseline
/// at the shared >25 % regression threshold.
fn gate_ratio(name: &str, current: f64, base: f64) -> Result<(), String> {
    let floor = base * 0.75;
    println!("smoke: {name} {current:.3} (baseline {base:.3}, floor {floor:.3})");
    if current < floor {
        return Err(format!("{name} regressed >25%: {current:.3} < {floor:.3}"));
    }
    Ok(())
}

/// Smoke gates: the calendar-vs-binheap pop throughput ratio, plus the
/// dispatch-path ratios (batched wall speedup and work per pop over
/// per-event) — all ratios of two measurements on the same host, so
/// they transfer across machines the way raw events/sec never could.
fn smoke_gate(engine: &Json) -> Result<(), String> {
    let path = repo_root().join("BENCH_engine.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("missing baseline {}: {e} (run `cargo xtask bench` first)", path.display()))?;
    let json = Json::parse(&baseline).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let current = engine
        .f64_field("calendar_vs_binheap")
        .expect("engine object just built");
    let base = json
        .f64_field("calendar_vs_binheap")
        .map_err(|e| format!("baseline lacks calendar_vs_binheap: {e}"))?;
    gate_ratio("calendar/binheap throughput ratio", current, base)?;

    // A baseline written before the dispatch section existed gates only
    // the queue ratio; `cargo xtask bench` refreshes it.
    let Some(base_dispatch) = json.get("dispatch") else {
        println!("smoke: baseline has no dispatch section yet — skipping dispatch gates");
        return Ok(());
    };
    let dispatch = engine.get("dispatch").expect("engine object just built");
    // Wall ratios are machine- and load-sensitive; the work-per-pop
    // ratios are deterministic for a given benchmark config, so a drop
    // there means the coalescing machinery actually elides less.
    for metric in ["batched_vs_per_event", "batched_work_per_pop_vs_per_event"] {
        let current = dispatch.f64_field(metric).expect("dispatch object just built");
        let base = base_dispatch
            .f64_field(metric)
            .map_err(|e| format!("baseline dispatch lacks {metric}: {e}"))?;
        gate_ratio(metric, current, base)?;
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let engine = engine_baseline(smoke);
    println!("engine: {}", engine.pretty());

    if smoke {
        if let Err(e) = smoke_gate(&engine) {
            eprintln!("perfbench smoke FAILED: {e}");
            std::process::exit(1);
        }
        println!("perfbench smoke OK");
        return;
    }

    let sweep = sweep_baseline();
    println!("sweep: {}", sweep.pretty());
    let root = repo_root();
    std::fs::write(root.join("BENCH_engine.json"), engine.pretty() + "\n")
        .expect("write BENCH_engine.json");
    std::fs::write(root.join("BENCH_sweep.json"), sweep.pretty() + "\n")
        .expect("write BENCH_sweep.json");
    println!("wrote {}", root.join("BENCH_engine.json").display());
    println!("wrote {}", root.join("BENCH_sweep.json").display());
}
