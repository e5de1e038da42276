//! The benchmark's telemetry sink: counts events per kind and records
//! what the per-layer replays need, from outside the simulator crates.

use std::cell::RefCell;
use std::rc::Rc;

use tcn_sim::Time;
use tcn_telemetry::{Event, Sink};

use crate::workload::is_host_nic;

/// Wire size of a pure ACK (`TcpReceiver`'s default); data packets
/// always carry payload, so they are larger.
const ACK_BYTES: u32 = 40;

/// Calls recorded per hot port and simulation; a longer stream is
/// replayed as its prefix.
const STREAM_CAP: usize = 300_000;

/// One call into `Port`, as the hot port saw it.
#[derive(Debug, Clone, Copy)]
pub struct PortOp {
    /// Simulated time of the call.
    pub at: Time,
    /// Wire bytes of the offered packet (`0` for a dequeue).
    pub bytes: u32,
    /// DSCP of the offered packet (the queue it was classified into).
    pub dscp: u8,
    /// `true` for `Port::enqueue`, `false` for `Port::dequeue`.
    pub enqueue: bool,
}

/// What the traced simulations reported, summed over them; the call
/// streams belong to the simulation that ran last.
#[derive(Debug, Default)]
pub struct Counts {
    pub enqueues: u64,
    pub dequeues: u64,
    pub buffer_drops: u64,
    pub aqm_drops: u64,
    pub marks: u64,
    pub decisions: u64,
    pub decided_marks: u64,
    pub sched_services: u64,
    pub ecn_reductions: u64,
    pub rtos: u64,
    pub fast_rtx: u64,
    /// ACKs leaving a host NIC: one per ACK sent.
    pub acks: u64,
    /// Data packets leaving a host NIC: one per data transmission.
    pub data_tx: u64,
    /// Event-queue depth at each sampled tick.
    pub pending: Vec<u64>,
    /// Call stream of the hot switch port.
    pub switch_stream: Vec<PortOp>,
    /// Call stream of the hot host NIC.
    pub nic_stream: Vec<PortOp>,
}

/// A sink adding one simulation's events to a shared [`Counts`].
pub struct CountingSink {
    counts: Rc<RefCell<Counts>>,
    hosts: usize,
    hot_switch: u32,
    hot_nic: u32,
}

impl CountingSink {
    /// A sink for a topology of `hosts` hosts that records the call
    /// streams of links `hot_switch` and `hot_nic`.
    pub fn new(
        counts: &Rc<RefCell<Counts>>,
        hosts: usize,
        hot_switch: usize,
        hot_nic: usize,
    ) -> Self {
        CountingSink {
            counts: Rc::clone(counts),
            hosts,
            hot_switch: hot_switch as u32,
            hot_nic: hot_nic as u32,
        }
    }

    fn stream(&self, c: &mut Counts, port: u32, op: PortOp) {
        let s = if port == self.hot_switch {
            &mut c.switch_stream
        } else if port == self.hot_nic {
            &mut c.nic_stream
        } else {
            return;
        };
        if s.len() < STREAM_CAP {
            s.push(op);
        }
    }

    fn offered(&self, c: &mut Counts, at_ps: u64, port: u32, bytes: u32, dscp: u8) {
        let op = PortOp {
            at: Time::from_ps(at_ps),
            bytes,
            dscp,
            enqueue: true,
        };
        self.stream(c, port, op);
    }
}

impl Sink for CountingSink {
    fn record(&mut self, ev: &Event) {
        let mut c = self.counts.borrow_mut();
        match *ev {
            Event::Tick { pending, .. } => c.pending.push(pending),
            Event::Enqueue {
                at_ps,
                port,
                bytes,
                dscp,
                ..
            } => {
                c.enqueues += 1;
                self.offered(&mut c, at_ps, port, bytes, dscp);
            }
            Event::BufferDrop {
                at_ps,
                port,
                queue,
                bytes,
            } => {
                c.buffer_drops += 1;
                self.offered(&mut c, at_ps, port, bytes, queue as u8);
            }
            Event::AqmDrop {
                at_ps,
                port,
                queue,
                bytes,
                dequeue,
            } => {
                c.aqm_drops += 1;
                if !dequeue {
                    self.offered(&mut c, at_ps, port, bytes, queue as u8);
                }
            }
            Event::Dequeue {
                at_ps, port, bytes, ..
            } => {
                c.dequeues += 1;
                if is_host_nic(port as usize, self.hosts) {
                    if bytes == ACK_BYTES {
                        c.acks += 1;
                    } else {
                        c.data_tx += 1;
                    }
                }
                let op = PortOp {
                    at: Time::from_ps(at_ps),
                    bytes: 0,
                    dscp: 0,
                    enqueue: false,
                };
                self.stream(&mut c, port, op);
            }
            Event::Mark { .. } => c.marks += 1,
            Event::MarkDecision { marked, .. } => {
                c.decisions += 1;
                c.decided_marks += u64::from(marked);
            }
            Event::SchedService { .. } => c.sched_services += 1,
            Event::EcnReduce { .. } => c.ecn_reductions += 1,
            Event::RtoFired { .. } => c.rtos += 1,
            Event::FastRtx { .. } => c.fast_rtx += 1,
            Event::CcState { .. } => {}
        }
    }
}
