//! The AQM plug-in interface.
//!
//! Every marking scheme in the paper — TCN, CoDel, MQ-ECN, per-queue /
//! per-port / dequeue ECN/RED and the Algorithm-1 "ideal" scheme — fits
//! one trait with two hooks:
//!
//! * [`Aqm::on_enqueue`] fires when the port has *admitted* a packet to a
//!   queue (after shared-buffer admission control). Enqueue-marking
//!   schemes (RED, MQ-ECN) act here; sojourn-based schemes just rely on
//!   the port having stamped [`Packet::enq_ts`].
//! * [`Aqm::on_dequeue`] fires when the scheduler has *removed* a packet
//!   from a queue, immediately before transmission. Dequeue-marking
//!   schemes (TCN, CoDel, dequeue-RED) act here; a scheme may also ask the
//!   port to drop the packet ([`DequeueVerdict::Drop`], CoDel's classic
//!   mode), in which case the port accounts the drop and asks the
//!   scheduler for the next packet.
//!
//! The state an AQM may observe is deliberately restricted to
//! [`PortView`]: exactly what a switching chip exposes to its egress
//! pipeline — per-queue and per-port occupancy, the line rate, and (for
//! MQ-ECN) the round-robin state the scheduler is willing to reveal.

use tcn_sim::{Rate, Time};

use crate::error::TcnError;
use crate::packet::Packet;

/// What an AQM is allowed to observe about its port.
pub trait PortView {
    /// Number of queues on this port.
    fn num_queues(&self) -> usize;
    /// Bytes currently queued in queue `q` (excluding any packet already
    /// handed to the AQM hook).
    fn queue_bytes(&self, q: usize) -> u64;
    /// Packets currently queued in queue `q`.
    fn queue_pkts(&self, q: usize) -> usize;
    /// Bytes queued across all queues of this port (the per-port RED
    /// signal, and the basis of service-pool variants).
    fn port_bytes(&self) -> u64;
    /// The port's line rate `C`.
    fn link_rate(&self) -> Rate;
    /// The most recent complete round-robin round time `T_round`, if the
    /// underlying scheduler has the concept of a round (DWRR/WRR).
    /// `None` for schedulers without rounds (WFQ, SP, PIFO) — which is
    /// precisely why MQ-ECN cannot run on them (paper §3.3).
    fn round_time(&self) -> Option<Time>;
    /// The quantum of queue `q` under a round-robin scheduler, in bytes.
    fn quantum(&self, q: usize) -> Option<u64>;
    /// Monotone counter of completed round-time measurements, so
    /// consumers can tell a *fresh* `round_time` sample from a repeat of
    /// the previous one (in steady state DWRR rounds are bit-identical).
    /// 0 for round-less schedulers.
    fn round_seq(&self) -> u64 {
        0
    }
}

/// A runtime-reconfigurable parameter set, applied to a live AQM through
/// [`Aqm::reconfigure`]. Each variant targets one scheme family; handing
/// a scheme the wrong variant (or any variant, for schemes without
/// tunable state) is a [`TcnError::Config`], never a silent no-op —
/// scenario steps that misname their target must fail loudly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AqmParams {
    /// TCN's single sojourn-time threshold (paper §4.1).
    Tcn {
        /// New instantaneous-sojourn marking threshold.
        threshold: Time,
    },
    /// RED's occupancy thresholds in bytes. The simplified single-K
    /// schemes (per-queue / per-port / dequeue ECN, §2.2) take `max` as
    /// their threshold; `ClassicRED` uses the full `[min, max]` band.
    Red {
        /// Low byte threshold (`min_th`). Must be `<= max`.
        min: u64,
        /// High byte threshold (`max_th`, the single K of the
        /// simplified schemes).
        max: u64,
    },
    /// CoDel's target sojourn time (§2.2); the interval is a property of
    /// the deployment's RTT scale and stays fixed across reconfiguration.
    CoDel {
        /// New target sojourn time.
        target: Time,
    },
}

/// Decision returned from [`Aqm::on_enqueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueVerdict {
    /// Keep the packet (it may have been CE-marked in place).
    Admit,
    /// Drop the packet (e.g. RED beyond threshold on a non-ECT packet).
    Drop,
}

/// Decision returned from [`Aqm::on_dequeue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DequeueVerdict {
    /// Transmit the packet (it may have been CE-marked in place).
    Forward,
    /// Drop the packet instead of transmitting (CoDel drop mode). The
    /// paper's §4.2 explains why real silicon hates this: it bubbles the
    /// output link unless extra prefetch logic hides it. Our simulated
    /// port reproduces the bubble-free behaviour by immediately pulling
    /// the next packet.
    Drop,
}

/// An active queue management scheme attached to one port.
///
/// Implementations hold per-port (and, where needed, per-queue) state;
/// the port guarantees `q < view.num_queues()` on every call and that
/// `now` never decreases.
pub trait Aqm {
    /// Hook fired after packet admission to queue `q`. The packet has
    /// already been stamped with `enq_ts = now` and is counted in
    /// `view.queue_bytes(q)`.
    fn on_enqueue(
        &mut self,
        view: &dyn PortView,
        q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> EnqueueVerdict;

    /// Hook fired after the scheduler removed `pkt` from queue `q`,
    /// immediately before transmission. `view` occupancies no longer
    /// include `pkt`.
    fn on_dequeue(
        &mut self,
        view: &dyn PortView,
        q: usize,
        pkt: &mut Packet,
        now: Time,
    ) -> DequeueVerdict;

    /// Short scheme name for experiment tables (e.g. `"TCN"`).
    fn name(&self) -> &'static str;

    /// Install a telemetry probe, scoped by the port to the link it
    /// serves (`probe.ctx()` is the port index). Schemes that emit
    /// `MarkDecision` events (TCN, CoDel, RED) store it; the default is
    /// a no-op so schemes without instrumentation need no code.
    fn set_probe(&mut self, _probe: tcn_telemetry::Probe) {}

    /// Apply a runtime parameter change (a scenario step flipping the
    /// TCN threshold, RED band, or CoDel target mid-run). Schemes keep
    /// all other state — EWMA averages, drop counts, CoDel first-above
    /// tracking — across the change, exactly like rewriting a register
    /// on a live switch. The default rejects every request with
    /// [`TcnError::Config`], so schemes without tunable state (DropTail,
    /// the oracle schemes) need no code and cannot silently swallow a
    /// scenario step.
    ///
    /// # Errors
    /// [`TcnError::Config`] when `params` does not match the scheme's
    /// family or carries out-of-range values (e.g. RED `min > max`).
    fn reconfigure(&mut self, params: &AqmParams) -> Result<(), TcnError> {
        Err(TcnError::config(format!(
            "AQM `{}` does not accept runtime parameters {params:?}",
            self.name()
        )))
    }

    /// True if this scheme is contractually mark-only: it may CE-mark
    /// packets but must never return [`DequeueVerdict::Drop`]. TCN is
    /// the paper's flagship example (§4.2 — dequeue drops bubble the
    /// output link on real silicon), and `tcn_audit::AqmContractAudit`
    /// enforces the claim at runtime. Defaults to `false` (no claim).
    fn marks_only(&self) -> bool {
        false
    }
}

/// A no-op AQM: never marks, never drops. Useful as a control and for
/// pure-scheduling tests — the "no ECN" end of the paper's §2.1
/// motivation, against which every marking scheme is compared.
#[derive(Debug, Default, Clone)]
pub struct NoAqm;

impl Aqm for NoAqm {
    fn on_enqueue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        _pkt: &mut Packet,
        _now: Time,
    ) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(
        &mut self,
        _view: &dyn PortView,
        _q: usize,
        _pkt: &mut Packet,
        _now: Time,
    ) -> DequeueVerdict {
        DequeueVerdict::Forward
    }

    fn name(&self) -> &'static str {
        "DropTail"
    }

    /// Trivially mark-only: never touches the dequeue verdict at all.
    fn marks_only(&self) -> bool {
        true
    }
}

/// A fixed, inspectable [`PortView`] for unit-testing AQMs in isolation.
/// Every field is public so a test can stage any port condition.
#[derive(Debug, Clone)]
pub struct StaticPortView {
    /// Per-queue byte occupancies.
    pub queue_bytes: Vec<u64>,
    /// Per-queue packet occupancies.
    pub queue_pkts: Vec<usize>,
    /// Line rate.
    pub link_rate: Rate,
    /// Scheduler round time, if any.
    pub round_time: Option<Time>,
    /// Per-queue quanta, if round-robin.
    pub quanta: Option<Vec<u64>>,
    /// Round sample counter.
    pub round_seq: u64,
}

impl StaticPortView {
    /// A view with `n` empty queues at `rate`.
    pub fn new(n: usize, rate: Rate) -> Self {
        StaticPortView {
            queue_bytes: vec![0; n],
            queue_pkts: vec![0; n],
            link_rate: rate,
            round_time: None,
            quanta: None,
            round_seq: 0,
        }
    }
}

impl PortView for StaticPortView {
    fn num_queues(&self) -> usize {
        self.queue_bytes.len()
    }
    fn queue_bytes(&self, q: usize) -> u64 {
        self.queue_bytes[q]
    }
    fn queue_pkts(&self, q: usize) -> usize {
        self.queue_pkts[q]
    }
    fn port_bytes(&self) -> u64 {
        self.queue_bytes.iter().sum()
    }
    fn link_rate(&self) -> Rate {
        self.link_rate
    }
    fn round_time(&self) -> Option<Time> {
        self.round_time
    }
    fn quantum(&self, q: usize) -> Option<u64> {
        self.quanta.as_ref().map(|qs| qs[q])
    }
    fn round_seq(&self) -> u64 {
        self.round_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    #[test]
    fn no_aqm_never_marks_or_drops() {
        let view = StaticPortView::new(2, Rate::from_gbps(10));
        let mut aqm = NoAqm;
        let mut pkt = Packet::data(FlowId(1), 0, 1, 0, 1460, 40);
        assert_eq!(
            aqm.on_enqueue(&view, 0, &mut pkt, Time::from_us(1)),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            aqm.on_dequeue(&view, 0, &mut pkt, Time::from_ms(10)),
            DequeueVerdict::Forward
        );
        assert!(!pkt.ecn.is_ce());
        assert_eq!(aqm.name(), "DropTail");
    }

    #[test]
    fn static_view_port_bytes_sums_queues() {
        let mut view = StaticPortView::new(3, Rate::from_gbps(1));
        view.queue_bytes = vec![100, 200, 300];
        assert_eq!(view.port_bytes(), 600);
        assert_eq!(view.queue_bytes(1), 200);
        assert_eq!(view.num_queues(), 3);
    }

    #[test]
    fn static_view_round_state() {
        let mut view = StaticPortView::new(2, Rate::from_gbps(1));
        assert_eq!(view.round_time(), None);
        assert_eq!(view.quantum(0), None);
        view.round_time = Some(Time::from_us(12));
        view.quanta = Some(vec![18_000, 18_000]);
        assert_eq!(view.round_time(), Some(Time::from_us(12)));
        assert_eq!(view.quantum(1), Some(18_000));
    }
}
