//! The traced run (`--trace 1`): per-layer counts from a bench-owned
//! telemetry sink, per-layer costs from replays, and the ledger that
//! sets their sum against the untraced run time.

use std::cell::RefCell;
use std::rc::Rc;

use tcn_net::{NetworkSim, PortSetup};
use tcn_telemetry::Telemetry;

use crate::trace::{CountingSink, Counts};
use crate::workload::{is_host_nic, Cell, Sim};
use crate::{
    m, measure, median, ratio, replay, run_rep, simulate, tx_packets, Args, Digest, Report,
};

/// Port-path calls of one simulation, from its own `PortStats`: every
/// admitted packet leaves by `Port::dequeue` (transmitted, or dropped
/// by a dequeue-side AQM), so enqueue calls are transmissions plus
/// drops, and dequeue calls that return a packet are transmissions.
#[derive(Default)]
struct PortCalls {
    switch_enq: u64,
    switch_deq: u64,
    nic_enq: u64,
    nic_deq: u64,
}

impl PortCalls {
    fn of(sim: &NetworkSim, hosts: usize) -> Self {
        let mut calls = PortCalls::default();
        for l in 0..sim.num_links() {
            let s = sim.port(l).stats();
            let (enq, deq) = (s.tx_packets + s.total_drops(), s.tx_packets);
            if is_host_nic(l, hosts) {
                calls.nic_enq += enq;
                calls.nic_deq += deq;
            } else {
                calls.switch_enq += enq;
                calls.switch_deq += deq;
            }
        }
        calls
    }
}

/// Replay-weighted port-path sums over the traced simulations: host ns
/// per kind of call times the calls of that kind.
#[derive(Default)]
struct PortLedger {
    calls: PortCalls,
    switch_enq_ns: f64,
    switch_deq_ns: f64,
    nic_enq_ns: f64,
    nic_deq_ns: f64,
}

impl PortLedger {
    /// Replay one simulation's hot-port streams and weight their per-call
    /// costs by the simulation's calls.
    fn add(&mut self, cell: &Cell, calls: PortCalls, counts: &mut Counts) -> Result<(), String> {
        let switch = std::mem::take(&mut counts.switch_stream);
        let nic = std::mem::take(&mut counts.nic_stream);
        let (se, sd) = replay::port_ns(&cell.port_setup(), cell.rate(), &switch)?;
        let (ne, nd) = replay::port_ns(&PortSetup::host_nic(), cell.rate(), &nic)?;
        self.switch_enq_ns += se * calls.switch_enq as f64;
        self.switch_deq_ns += sd * calls.switch_deq as f64;
        self.nic_enq_ns += ne * calls.nic_enq as f64;
        self.nic_deq_ns += nd * calls.nic_deq as f64;
        self.calls.switch_enq += calls.switch_enq;
        self.calls.switch_deq += calls.switch_deq;
        self.calls.nic_enq += calls.nic_enq;
        self.calls.nic_deq += calls.nic_deq;
        Ok(())
    }

    fn cost_s(&self) -> f64 {
        (self.switch_enq_ns + self.switch_deq_ns + self.nic_enq_ns + self.nic_deq_ns) * 1e-9
    }
}

/// Simulator counters summed over the traced simulations.
#[derive(Default)]
struct SimTotals {
    events: u64,
    ports: u64,
    tx_packets: u64,
    timeouts: u64,
    fast_rtx: u64,
    retx_pkts: u64,
    arena_inserted: u64,
    arena_slot_allocs: u64,
    arena_high_water: u64,
}

impl SimTotals {
    fn add(&mut self, sim: &NetworkSim) {
        let arena = sim.arena_stats();
        self.events += sim.events_processed();
        self.ports += sim.num_links() as u64;
        self.tx_packets += tx_packets(sim);
        self.timeouts += sim.total_timeouts();
        self.fast_rtx += sim.total_fast_retransmits();
        self.retx_pkts += sim.total_retransmitted_packets();
        self.arena_inserted += arena.inserted;
        self.arena_slot_allocs += arena.slot_allocs;
        self.arena_high_water = self.arena_high_water.max(arena.high_water);
    }
}

/// Telemetry must see exactly what the simulations counted.
fn check_counts(c: &Counts, t: &SimTotals) -> Result<(), String> {
    let checks = [
        (
            "dequeue events vs port tx_packets",
            c.dequeues,
            t.tx_packets,
        ),
        ("rto events vs sender timeouts", c.rtos, t.timeouts),
        (
            "fast_rtx events vs sender fast retransmits",
            c.fast_rtx,
            t.fast_rtx,
        ),
    ];
    for (what, seen, want) in checks {
        if seen != want {
            return Err(format!("trace check failed: {what}: {seen} != {want}"));
        }
    }
    Ok(())
}

/// `--trace 1`: the per-layer metrics. Untraced repetitions give the
/// layer times the ledger splits; one traced run of every simulation
/// gives the counts and the call streams the replays time.
pub(crate) fn per_layer(args: &Args) -> Result<Report, String> {
    let wl = &args.workload;
    let sims = wl.plan(args.seed);
    let first = run_rep(&sims)?;
    let (reps, setup) = measure(wl, args.seed, &sims, first, args.seconds as f64 / 2.0)?;
    let run_s = median(reps.iter().map(|r| r.run_s).collect());

    let counts = Rc::new(RefCell::new(Counts::default()));
    let mut totals = SimTotals::default();
    let mut port = PortLedger::default();
    let mut traced = Digest::new();
    let (mut traced_run_s, mut tele_events, mut failed) = (0.0, 0u64, 0u64);
    for (Sim { cell, flows }, &(switch, nic)) in sims.iter().zip(&reps[0].hot) {
        let bus = Telemetry::new();
        bus.add_sink(Box::new(CountingSink::new(
            &counts,
            cell.hosts(),
            switch,
            nic,
        )));
        let run = simulate(cell, flows, Some(&bus))?;
        traced_run_s += run.run_s;
        tele_events += bus.recorded();
        failed += run.failed;
        traced.add(&run.sim);
        totals.add(&run.sim);
        port.add(
            cell,
            PortCalls::of(&run.sim, cell.hosts()),
            &mut counts.borrow_mut(),
        )?;
    }
    if traced != reps[0].digest {
        return Err(format!(
            "telemetry changed the simulated output\n  untraced: {}\n  traced:   {}",
            reps[0].digest, traced
        ));
    }
    let mut c = counts.take();
    check_counts(&c, &totals)?;

    c.pending.sort_unstable();
    let pending_p50 = c.pending.get(c.pending.len() / 2).copied().unwrap_or(0);
    let pending_max = c.pending.last().copied().unwrap_or(0);
    let pop_ns = replay::queue_pop_ns(pending_p50);
    let sim_cost_s = pop_ns * totals.events as f64 * 1e-9;
    // Every simulation of a workload runs one transport configuration.
    let ce_frac = ratio(c.marks as f64, c.data_tx as f64).min(1.0);
    let on_ack_ns = replay::on_ack_ns(sims[0].cell.tcp(), ce_frac)?;
    let transport_cost_s = on_ack_ns * c.acks as f64 * 1e-9;
    let arena_op_ns = replay::arena_op_ns(totals.arena_high_water);
    let arena_cost_s = arena_op_ns * totals.arena_inserted as f64 * 1e-9;
    let attributed = sim_cost_s + port.cost_s() + transport_cost_s + arena_cost_s;

    let pc = &port.calls;
    let attempts = pc.switch_enq + pc.nic_enq;
    let drops = c.buffer_drops + c.aqm_drops;
    let f = |x: u64| x as f64;
    let metrics = vec![
        m("workloads.gen_s", median(setup.gen.clone()), "s"),
        m("workloads.flows", f(reps[0].attempted), "count"),
        m("net.build_s", median(setup.build.clone()), "s"),
        m("net.ports", f(totals.ports), "count"),
        m("net.run_s", run_s, "s"),
        m("sim.events", f(totals.events), "count"),
        m("sim.pending_p50", f(pending_p50), "count"),
        m("sim.pending_max", f(pending_max), "count"),
        m("sim.pop_ns", pop_ns, "ns"),
        m("sim.cost_s", sim_cost_s, "s"),
        m("port.enqueues", f(c.enqueues), "count"),
        m("port.dequeues", f(c.dequeues), "count"),
        m("port.buffer_drops", f(c.buffer_drops), "count"),
        m("port.aqm_drops", f(c.aqm_drops), "count"),
        m("port.marks", f(c.marks), "count"),
        m("sched.services", f(c.sched_services), "count"),
        m("aqm.decisions", f(c.decisions), "count"),
        m(
            "aqm.mark_ratio",
            ratio(f(c.decided_marks), f(c.decisions)),
            "ratio",
        ),
        m("port.drop_ratio", ratio(f(drops), f(attempts)), "ratio"),
        m(
            "port.enqueue_ns",
            ratio(port.switch_enq_ns, f(pc.switch_enq)),
            "ns",
        ),
        m(
            "port.dequeue_ns",
            ratio(port.switch_deq_ns, f(pc.switch_deq)),
            "ns",
        ),
        m(
            "port.nic_enqueue_ns",
            ratio(port.nic_enq_ns, f(pc.nic_enq)),
            "ns",
        ),
        m(
            "port.nic_dequeue_ns",
            ratio(port.nic_deq_ns, f(pc.nic_deq)),
            "ns",
        ),
        m("port.cost_s", port.cost_s(), "s"),
        m("transport.acks", f(c.acks), "count"),
        m("transport.ecn_reductions", f(c.ecn_reductions), "count"),
        m("transport.rtos", f(c.rtos), "count"),
        m("transport.fast_rtx", f(c.fast_rtx), "count"),
        m("transport.retx_pkts", f(totals.retx_pkts), "count"),
        m(
            "transport.retx_ratio",
            ratio(f(totals.retx_pkts), f(c.data_tx)),
            "ratio",
        ),
        m("transport.on_ack_ns", on_ack_ns, "ns"),
        m("transport.cost_s", transport_cost_s, "s"),
        m("arena.inserted", f(totals.arena_inserted), "count"),
        m("arena.slot_allocs", f(totals.arena_slot_allocs), "count"),
        m("arena.high_water", f(totals.arena_high_water), "count"),
        m(
            "arena.allocs_per_pkt",
            ratio(f(totals.arena_slot_allocs), f(totals.arena_inserted)),
            "ratio",
        ),
        m("arena.op_ns", arena_op_ns, "ns"),
        m("arena.cost_s", arena_cost_s, "s"),
        m(
            "stats.summary_s",
            median(reps.iter().map(|r| r.summary_s).collect()),
            "s",
        ),
        m("telemetry.events", f(tele_events), "count"),
        m("telemetry.traced_run_s", traced_run_s, "s"),
        m("telemetry.overhead", traced_run_s / run_s, "ratio"),
        m("ledger.unattributed_s", run_s - attributed, "s"),
        m("ledger.attributed_frac", attributed / run_s, "ratio"),
    ];
    let attempted = reps.iter().map(|r| r.attempted).sum::<u64>() + reps[0].attempted;
    let failed = failed + reps.iter().map(|r| r.failed).sum::<u64>();
    let lines = vec![
        format!("digest: {traced} (untraced and traced agree)"),
        format!(
            "samples: gen/build {} set-ups, net.run_s {} untraced repetitions, 1 traced run of {} simulation(s), {} flows",
            setup.gen.len(),
            reps.len(),
            sims.len(),
            reps[0].attempted
        ),
        format!("flows_incomplete: {failed} of {attempted} flows"),
    ];
    Ok(Report {
        lines,
        attempted,
        failed,
        reps: reps.len(),
        setup_samples: setup.gen.len(),
        metrics,
    })
}
