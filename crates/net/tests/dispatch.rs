//! Integration tests for the dispatch hot path: the batched
//! same-timestamp drain plus per-port TxDone coalescing must be
//! byte-identical to the legacy per-event loop. All runs execute under
//! the `NetAudit` conservation checker in debug builds.

use tcn_core::Tcn;
use tcn_net::{
    single_switch, DispatchMode, FlowSpec, NetworkSim, PortSetup, TaggingPolicy,
};
use tcn_sched::{Dwrr, Wfq};
use tcn_sim::{Rate, Time};
use tcn_transport::{Cc, TcpConfig};

/// 4 hosts around one switch, 8 staggered flows converging on hosts
/// 0 and 1 — enough congestion for queueing, marking, and drops.
fn star_sim(wfq: bool) -> NetworkSim {
    let mut sim = single_switch(
        4,
        Rate::from_gbps(1),
        Time::from_us(25),
        TcpConfig::preset(Cc::Dctcp).sim(),
        TaggingPolicy::Fixed,
        || PortSetup {
            nqueues: 2,
            buffer: Some(120_000),
            tx_rate: None,
            make_sched: if wfq {
                Box::new(|| Box::new(Wfq::equal(2)))
            } else {
                Box::new(|| Box::new(Dwrr::equal(2, 1500)))
            },
            make_aqm: Box::new(|| Box::new(Tcn::new(Time::from_us(100)))),
        },
    )
    .unwrap();
    for i in 0..8u32 {
        sim.add_flow(FlowSpec {
            src: 2 + ((i / 2) % 2),
            dst: i % 2,
            size: 200_000 + u64::from(i) * 10_000,
            start: Time::from_us(u64::from(i) * 50),
            service: 0,
        });
    }
    sim
}

/// Everything a figure could read from a finished run, rendered
/// comparable: per-flow FCTs, timeouts, and per-port tx/mark/drop
/// counters. Deliberately excludes `events_processed` — coalescing
/// legitimately elides trailing TxDone events.
fn fingerprint(sim: &NetworkSim) -> (Vec<(u64, u64, u64)>, Vec<(u64, u64, u64)>) {
    let fcts = sim
        .fct_records()
        .iter()
        .map(|r| (r.flow.0, r.fct.as_ps(), r.timeouts))
        .collect();
    let ports = (0..sim.num_links())
        .map(|l| {
            let s = sim.port(l).stats();
            (s.tx_packets, s.total_marks(), s.total_drops())
        })
        .collect();
    (fcts, ports)
}

#[test]
fn batched_dispatch_is_byte_identical_to_per_event() {
    // DWRR switch ports: coalescing-ineligible, exercising the plain
    // batched drain. WFQ switch ports: pure idle-select, so batched
    // mode elides trailing TxDone wakes — output must not move.
    for wfq in [false, true] {
        let run = |mode: DispatchMode| {
            let mut sim = star_sim(wfq);
            sim.set_dispatch_mode(mode);
            assert!(sim.run_to_completion(Time::from_secs(10)).unwrap());
            fingerprint(&sim)
        };
        assert_eq!(
            run(DispatchMode::Batched),
            run(DispatchMode::PerEvent),
            "dispatch modes diverged (wfq = {wfq})"
        );
    }
}
