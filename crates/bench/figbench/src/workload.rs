//! The three benchmark workloads: what each simulates and how its
//! inputs are generated from the seed.
//!
//! Every workload is a fixed amount of simulated work. Flow arrivals are
//! open-loop Poisson in simulated time; the web-search and leaf-spine
//! workloads draw flows until a fixed budget of bytes times path links
//! is reached, so a seed changes which flows run but not how much
//! forwarding the run does.

use tcn_experiments::common::{params, switch_port, SchedKind, Scheme};
use tcn_experiments::fct_sweep::{SweepConfig, DEFAULT_STALL_BUDGET};
use tcn_net::{
    DispatchMode, FlowSpec, LeafSpineConfig, NetworkBuilder, PortSetup, TaggingPolicy, Watchdog,
};
use tcn_sim::{Rate, Rng, Time};
use tcn_transport::{Cc, TcpConfig};
use tcn_workloads::{gen_all_to_all, gen_incast, gen_many_to_one, Workload as SizeDist};

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 3] = ["fig6-star", "fabric-32q", "incast-burst"];

/// Bytes of web-search flows per fig6-star flow set.
const FIG6_BYTES: u64 = 90_000_000;
/// Independent web-search flow sets per fig6-star run, each run under
/// every scheme. How much work and memory one set takes depends on its
/// few largest flows; four sets average that out across seeds.
const FIG6_FLOW_SETS: u64 = 4;
/// Offered load of the fig6-star flows at the receiver's link.
const FIG6_LOAD: f64 = 0.9;
/// Byte-links (bytes times path links) of mixed-workload flows per
/// fabric-32q run.
const FABRIC_BYTE_LINKS: u64 = 3_000_000_000;
/// Largest fabric-32q flow. The uncapped data-mining tail puts single
/// flows of hundreds of MB into a run; host NICs have unbounded queues,
/// so one such flow's slow start parks tens of thousands of packets in
/// its NIC and sets the run's memory and event count by itself.
const FABRIC_MAX_FLOW: u64 = 10_000_000;
/// Offered load per host link of the fabric-32q flows.
const FABRIC_LOAD: f64 = 0.8;
/// Incast senders per wave.
const INCAST_FANOUT: u32 = 32;
/// Bytes each incast sender sends per wave.
const INCAST_FLOW_BYTES: u64 = 64_000;
/// Incast waves per run.
const INCAST_WAVES: u64 = 600;
/// Shortest gap between incast wave starts; the exponential part of the
/// gap is drawn from the seed.
const INCAST_GAP_FLOOR: Time = Time::from_ms(2);
/// Mean of the exponential part of the incast wave gap.
const INCAST_GAP_MEAN: Time = Time::from_ms(1);
/// Simulated-time deadline of every run; a flow unfinished by then
/// counts as incomplete.
pub const DEADLINE: Time = Time::from_secs(10_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fig6Star,
    Fabric32q,
    IncastBurst,
}

#[derive(Debug, Clone, Copy)]
enum Topology {
    Star { hosts: usize, delay: Time },
    LeafSpine(LeafSpineConfig),
}

/// One simulation of a workload: a topology and port policy under one
/// marking scheme. fig6-star has four, one per scheme of the figure.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    topo: Topology,
    sched: SchedKind,
    nqueues: usize,
    buffer: u64,
    rate: Rate,
    tcp: TcpConfig,
    tagging: TaggingPolicy,
    /// The marking scheme at every switch port.
    pub scheme: Scheme,
}

impl Cell {
    fn from_sweep(cfg: &SweepConfig, topo: Topology, scheme: Scheme) -> Self {
        Cell {
            topo,
            sched: cfg.sched,
            nqueues: cfg.nqueues,
            buffer: cfg.buffer,
            rate: cfg.rate,
            tcp: cfg.transport.config(),
            tagging: cfg.tagging,
            scheme,
        }
    }

    /// The switch-port configuration of this cell.
    pub fn port_setup(&self) -> PortSetup {
        switch_port(
            self.nqueues,
            Some(self.buffer),
            None,
            self.sched,
            self.scheme,
            self.rate,
            1_500,
            1,
        )
    }

    /// Line rate of every link.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Transport configuration of every flow.
    pub fn tcp(&self) -> TcpConfig {
        self.tcp
    }

    /// Hosts in the topology.
    pub fn hosts(&self) -> usize {
        match self.topo {
            Topology::Star { hosts, .. } => hosts,
            Topology::LeafSpine(cfg) => cfg.num_hosts(),
        }
    }

    /// The builder for this cell, with the measured configuration
    /// pinned: batched dispatch, hybrid fluid path off, and the sweeps'
    /// stall watchdog.
    pub fn builder(&self) -> NetworkBuilder {
        let cell = *self;
        match self.topo {
            Topology::Star { hosts, delay } => {
                NetworkBuilder::single_switch(hosts, self.rate, delay)
            }
            Topology::LeafSpine(cfg) => NetworkBuilder::leaf_spine(cfg),
        }
        .transport(self.tcp)
        .tagging(self.tagging)
        .port_factory(move || cell.port_setup())
        .dispatch(DispatchMode::Batched)
        .hybrid(false)
        .watchdog(Watchdog::new(DEFAULT_STALL_BUDGET))
    }
}

/// One simulation of a run: a cell and the flows registered on it.
pub struct Sim {
    pub cell: Cell,
    pub flows: Vec<FlowSpec>,
}

/// Whether `link` is a host NIC in a topology of `hosts` hosts. Both
/// topologies the workloads use number links alike: link `2h` is host
/// `h`'s NIC and link `2h + 1` the switch port toward it (see
/// `tcn_net::topology::single_switch_downlink`); fabric links follow.
pub fn is_host_nic(link: usize, hosts: usize) -> bool {
    link < 2 * hosts && link.is_multiple_of(2)
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    kind: Kind,
}

impl Workload {
    /// Look a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Self> {
        let kind = match name {
            "fig6-star" => Kind::Fig6Star,
            "fabric-32q" => Kind::Fabric32q,
            "incast-burst" => Kind::IncastBurst,
            _ => return None,
        };
        Some(Workload { kind })
    }

    /// The simulations one run of this workload performs, in order,
    /// with their flows generated from `seed` alone. fig6-star runs each
    /// of [`FIG6_FLOW_SETS`] flow sets under every scheme.
    pub fn plan(&self, seed: u64) -> Vec<Sim> {
        let sets = match self.kind {
            Kind::Fig6Star => FIG6_FLOW_SETS,
            Kind::Fabric32q | Kind::IncastBurst => 1,
        };
        let mut sims = Vec::new();
        for set in 0..sets {
            let flows = self.gen_flows(Rng::stream(seed, set).next_u64());
            for cell in self.cells() {
                sims.push(Sim {
                    cell,
                    flows: flows.clone(),
                });
            }
        }
        sims
    }

    fn cells(&self) -> Vec<Cell> {
        match self.kind {
            Kind::Fig6Star => {
                let cfg = SweepConfig::fig6();
                let topo = Topology::Star {
                    hosts: 9,
                    delay: params::testbed::LINK_DELAY,
                };
                cfg.schemes()
                    .into_iter()
                    .map(|s| Cell::from_sweep(&cfg, topo, s))
                    .collect()
            }
            Kind::Fabric32q => {
                let ls = LeafSpineConfig::small();
                let cfg = SweepConfig::fig13(ls);
                let tcn = cfg.schemes()[0];
                vec![Cell::from_sweep(&cfg, Topology::LeafSpine(ls), tcn)]
            }
            Kind::IncastBurst => vec![Cell {
                topo: Topology::Star {
                    hosts: INCAST_FANOUT as usize + 1,
                    delay: Time::from_us(20),
                },
                sched: SchedKind::Fifo,
                nqueues: 1,
                buffer: params::sim::BUFFER,
                rate: params::sim::RATE,
                tcp: TcpConfig::preset(Cc::Dctcp).sim(),
                tagging: TaggingPolicy::Fixed,
                scheme: Scheme::Tcn {
                    threshold: params::sim::TCN_T_DCTCP,
                },
            }],
        }
    }

    /// One flow set, generated from `seed` alone.
    fn gen_flows(&self, seed: u64) -> Vec<FlowSpec> {
        let mut rng = Rng::new(seed);
        match self.kind {
            Kind::Fig6Star => {
                let cdf = SizeDist::WebSearch.cdf();
                let senders: Vec<u32> = (0..8).collect();
                let services: Vec<u8> = (0..4).collect();
                // Every star path is host NIC + switch port.
                by_budget(
                    2 * FIG6_BYTES,
                    cdf.mean(),
                    |_| 2,
                    |n| {
                        gen_many_to_one(
                            &mut rng.clone(),
                            n,
                            &senders,
                            8,
                            &cdf,
                            FIG6_LOAD,
                            params::testbed::RATE,
                            &services,
                            Time::ZERO,
                        )
                    },
                )
            }
            Kind::Fabric32q => {
                let ls = LeafSpineConfig::small();
                let cdfs: Vec<_> = SizeDist::ALL.iter().map(|w| w.cdf()).collect();
                let mean = cdfs.iter().map(|c| c.mean()).sum::<f64>() / cdfs.len() as f64;
                // Host NIC + leaf port within a leaf; two fabric hops more
                // across the spine.
                let leaf = |h: u32| h as usize / ls.hosts_per_leaf;
                let links = |f: &FlowSpec| if leaf(f.src) == leaf(f.dst) { 2 } else { 4 };
                by_budget(FABRIC_BYTE_LINKS, mean, links, |n| {
                    let mut flows = gen_all_to_all(
                        &mut rng.clone(),
                        n,
                        ls.num_hosts() as u32,
                        &cdfs,
                        FABRIC_LOAD,
                        params::sim::RATE,
                        31,
                        Time::ZERO,
                    );
                    for f in &mut flows {
                        f.size = f.size.min(FABRIC_MAX_FLOW);
                    }
                    flows
                })
            }
            Kind::IncastBurst => {
                let senders: Vec<u32> = (0..INCAST_FANOUT).collect();
                let mut at = Time::ZERO;
                let mut flows = Vec::new();
                for _ in 0..INCAST_WAVES {
                    at = at
                        .saturating_add(INCAST_GAP_FLOOR)
                        .saturating_add(rng.exp_time(INCAST_GAP_MEAN));
                    // Zero jitter: every sender of a wave starts at the
                    // same instant.
                    flows.extend(gen_incast(
                        &mut rng,
                        &senders,
                        INCAST_FANOUT,
                        INCAST_FLOW_BYTES,
                        at,
                        Time::ZERO,
                        0,
                    ));
                }
                flows
            }
        }
    }

    /// Why the benchmark runs this workload: the layers it loads.
    pub fn why(&self) -> &'static str {
        match self.kind {
            Kind::Fig6Star => {
                "Fig. 6 testbed star under TCN, CoDel, RED-queue and MQ-ECN: every packet crosses one \
                 bottleneck's 4-queue DWRR and AQM and long ACK-clocked flows load the ACK path; the \
                 event set is shallow and the topology tiny"
            }
            Kind::Fabric32q => {
                "Fig. 13 on the small leaf-spine: multi-hop ECMP paths give the deepest event set, the \
                 most packets in flight and the largest set-up, with the scheduler at 32 queues"
            }
            Kind::IncastBurst => {
                "synchronized incast waves into one FIFO port: same-instant starts load batched dispatch \
                 and wake coalescing, and buffer overflow makes drops, RTOs and retransmissions the \
                 transport work"
            }
        }
    }

    /// The workload's parameters as a JSON object, for the run manifest.
    pub fn manifest(&self) -> String {
        match self.kind {
            Kind::Fig6Star => format!(
                "{{\"topology\":\"star 9 hosts\",\"rate_gbps\":1,\"buffer_bytes\":{},\"queues\":4,\
                 \"sched\":\"DWRR\",\"schemes\":[\"TCN\",\"CoDel\",\"RED-queue\",\"MQ-ECN\"],\
                 \"transport\":\"DCTCP testbed\",\"traffic\":\"web-search many-to-one\",\
                 \"load\":{FIG6_LOAD},\"flow_sets\":{FIG6_FLOW_SETS},\"bytes_per_set\":{FIG6_BYTES}}}",
                params::testbed::BUFFER
            ),
            Kind::Fabric32q => format!(
                "{{\"topology\":\"leaf-spine 4x4x4\",\"rate_gbps\":10,\"buffer_bytes\":{},\
                 \"queues\":32,\"sched\":\"SP/DWRR\",\"schemes\":[\"TCN\"],\"tagging\":\"PIAS\",\
                 \"transport\":\"ECN* sim\",\"traffic\":\"all-to-all, 31 services, 4 size mixes\",\
                 \"load\":{FABRIC_LOAD},\"byte_links\":{FABRIC_BYTE_LINKS},\
                 \"max_flow_bytes\":{FABRIC_MAX_FLOW}}}",
                params::sim::BUFFER
            ),
            Kind::IncastBurst => format!(
                "{{\"topology\":\"star {} hosts\",\"rate_gbps\":10,\"buffer_bytes\":{},\"queues\":1,\
                 \"sched\":\"FIFO\",\"schemes\":[\"TCN\"],\"transport\":\"DCTCP sim\",\
                 \"traffic\":\"incast\",\"fanout\":{INCAST_FANOUT},\"flow_bytes\":{INCAST_FLOW_BYTES},\
                 \"waves\":{INCAST_WAVES},\"gap\":\"{} ms + exp(mean {} ms)\"}}",
                INCAST_FANOUT + 1,
                params::sim::BUFFER,
                INCAST_GAP_FLOOR.as_ms(),
                INCAST_GAP_MEAN.as_ms()
            ),
        }
    }
}

/// The shortest prefix of a generated Poisson flow stream that moves at
/// least `budget` byte-links (each flow's bytes times the links of its
/// path, which is what the event count follows), its last flow clipped
/// to land on the budget. `gen(n)` must return the same first flows for
/// every `n`; the pool doubles until it holds the budget.
fn by_budget(
    budget: u64,
    mean: f64,
    links: impl Fn(&FlowSpec) -> u64,
    mut gen: impl FnMut(usize) -> Vec<FlowSpec>,
) -> Vec<FlowSpec> {
    let mut n = (budget as f64 / mean).ceil() as usize + 16;
    loop {
        let mut flows = gen(n);
        let mut moved = 0u64;
        for i in 0..flows.len() {
            let l = links(&flows[i]);
            let work = flows[i].size * l;
            if moved + work >= budget {
                flows[i].size = (budget - moved).div_ceil(l).max(1);
                flows.truncate(i + 1);
                return flows;
            }
            moved += work;
        }
        n *= 2;
    }
}
