//! The TCP sender: reliability machinery (sequence tracking, fast
//! retransmit, RTO, go-back-N) around a pluggable
//! [`CongestionControl`] policy, with ECN path validation
//! ([`EcnValidator`]) gating mark usage.
//!
//! The sender owns *what* is outstanding and *when* to retransmit; the
//! configured controller (DCTCP, ECN\*, CUBIC, BBR — see
//! [`crate::cc`]) owns *how much* may be in flight. All entry points
//! keep the zero-alloc `*_into` discipline: the host passes reusable
//! [`SenderOutput`] scratch and no per-event allocation happens on the
//! steady-state path.

use tcn_core::{EcnCodepoint, FlowId, Packet};
use tcn_sim::Time;

use crate::cc::{Cc, CcAlgo, CcCtx, CongestionControl};
use crate::ecn::{EcnPathState, EcnValidator};
use crate::rtt::RttEstimator;

/// Transport configuration shared by a fleet of flows.
///
/// Build one with the fluent preset builder —
/// `TcpConfig::preset(Cc::Dctcp).sim()` /
/// `TcpConfig::preset(Cc::Cubic).testbed()` — then toggle knobs with
/// the `with_*` methods.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Congestion-control algorithm.
    pub cc: Cc,
    /// DCTCP α estimation gain (ignored by other controllers; the
    /// paper and the DCTCP paper use 1/16).
    pub dctcp_g: f64,
    /// Run RFC 9000 §13.4.2-style ECN path validation: probe the path
    /// during the first window and fall back to loss-based control if
    /// marks are mangled. Off by default (the paper's paths are clean).
    pub ecn_validation: bool,
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Wire header overhead per packet (TCP/IP + Ethernet framing).
    pub header: u32,
    /// Initial congestion window in segments (paper: 10 on the testbed
    /// kernels, 16 in simulations).
    pub init_cwnd: u32,
    /// Minimum RTO (paper: 10 ms testbed, 5 ms simulation).
    pub rto_min: Time,
    /// RTO before the first RTT sample (paper simulation: 5 ms).
    pub rto_init: Time,
    /// Cap on the exponentially backed-off RTO, so repeated losses on a
    /// dead path escalate to bounded probes instead of doubling without
    /// limit (and a recovered path is re-probed promptly).
    pub rto_max: Time,
    /// Number of duplicate ACKs that trigger fast retransmit.
    pub dupack_thresh: u32,
}

/// Intermediate of the fluent [`TcpConfig::preset`] builder: pick the
/// algorithm, then finish with the environment —
/// [`sim`](TcpPreset::sim) or [`testbed`](TcpPreset::testbed).
#[derive(Debug, Clone, Copy)]
pub struct TcpPreset {
    cc: Cc,
}

impl TcpPreset {
    /// The paper's simulation environment: MSS 1460 B + 40 B headers,
    /// initial window 16, RTO_min = RTO_init = 5 ms.
    pub fn sim(self) -> TcpConfig {
        TcpConfig {
            cc: self.cc,
            dctcp_g: 1.0 / 16.0,
            ecn_validation: false,
            mss: 1460,
            header: 40,
            init_cwnd: 16,
            rto_min: Time::from_ms(5),
            rto_init: Time::from_ms(5),
            rto_max: Time::from_ms(320),
            dupack_thresh: 3,
        }
    }

    /// The paper's testbed environment: initial window 10,
    /// RTO_min 10 ms.
    pub fn testbed(self) -> TcpConfig {
        TcpConfig {
            init_cwnd: 10,
            rto_min: Time::from_ms(10),
            rto_init: Time::from_ms(10),
            rto_max: Time::from_ms(640),
            ..self.sim()
        }
    }
}

impl TcpConfig {
    /// Start the fluent builder: pick the congestion controller, then
    /// the environment preset (`.sim()` / `.testbed()`).
    pub fn preset(cc: Cc) -> TcpPreset {
        TcpPreset { cc }
    }

    /// Toggle ECN path validation (see [`EcnValidator`]).
    pub fn with_ecn_validation(mut self, on: bool) -> Self {
        self.ecn_validation = on;
        self
    }

    /// Override the DCTCP α gain.
    pub fn with_dctcp_gain(mut self, g: f64) -> Self {
        self.dctcp_g = g;
        self
    }

    /// λ for the standard threshold formulas: 1 for ECN\*; for DCTCP the
    /// paper configures thresholds empirically (we expose 1.0 as well —
    /// experiments pass their own λ).
    pub fn lambda(&self) -> f64 {
        1.0
    }

    /// Full wire size of a segment carrying `payload` bytes.
    pub fn wire_size(&self, payload: u32) -> u32 {
        payload + self.header
    }
}

/// What a sender wants done after an input: packets on the wire and the
/// retransmission deadline to arm (absolute; `None` when idle/done).
///
/// The host loop is expected to keep **one** `SenderOutput` as reusable
/// scratch, [`clear`](SenderOutput::clear) it, and pass it to the
/// `*_into` sender entry points: the packet `Vec` then retains its
/// capacity across events, so steady-state emission performs no
/// allocator round-trips.
#[derive(Debug, Default)]
pub struct SenderOutput {
    /// Packets to transmit, in order.
    pub packets: Vec<Packet>,
    /// Absolute RTO deadline currently armed.
    pub timer: Option<Time>,
}

impl SenderOutput {
    /// Empty the output for reuse, keeping the packet buffer's capacity.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.timer = None;
    }
}

/// A TCP sender for one flow of `size` bytes.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    flow: FlowId,
    src: u32,
    dst: u32,
    size: u64,

    /// First unacknowledged byte.
    snd_una: u64,
    /// Next new byte to send.
    snd_nxt: u64,
    /// The window/rate policy.
    cc: CcAlgo,
    /// ECN path validation (inert unless `cfg.ecn_validation`).
    validator: EcnValidator,

    dupacks: u32,
    /// Sequence of the segment used for RTT sampling and its send time
    /// (Karn: invalidated on retransmission).
    timed_seg: Option<(u64, Time)>,
    rtt: RttEstimator,
    /// Absolute RTO deadline (None when no data in flight).
    rto_deadline: Option<Time>,

    /// Diagnostics.
    timeouts: u64,
    fast_retransmits: u64,
    ecn_reductions: u64,
    /// High-water mark of bytes handed to the wire; segments emitted
    /// below it are retransmissions.
    max_seq_sent: u64,
    rtx_packets: u64,
    rtx_bytes: u64,
    started: bool,
    probe: tcn_telemetry::Probe,
}

impl TcpSender {
    /// A sender for `size` bytes from `src` to `dst`.
    ///
    /// # Panics
    /// Panics on a zero-size flow or zero MSS.
    pub fn new(cfg: TcpConfig, flow: FlowId, src: u32, dst: u32, size: u64) -> Self {
        assert!(size > 0, "zero-size flow");
        assert!(cfg.mss > 0, "zero MSS");
        TcpSender {
            cfg,
            flow,
            src,
            dst,
            size,
            snd_una: 0,
            snd_nxt: 0,
            cc: CcAlgo::from_config(&cfg),
            validator: EcnValidator::new(cfg.ecn_validation, cfg.mss),
            dupacks: 0,
            timed_seg: None,
            rtt: RttEstimator::new(cfg.rto_min, cfg.rto_init, cfg.rto_max),
            rto_deadline: None,
            timeouts: 0,
            fast_retransmits: 0,
            ecn_reductions: 0,
            max_seq_sent: 0,
            rtx_packets: 0,
            rtx_bytes: 0,
            started: false,
            probe: tcn_telemetry::Probe::off(),
        }
    }

    /// Install a telemetry probe: the sender reports ECN window
    /// reductions, RTO expiries, fast-retransmit entries and
    /// congestion-control state transitions as congestion-episode
    /// events.
    pub fn set_probe(&mut self, probe: tcn_telemetry::Probe) {
        self.probe = probe;
    }

    /// Begin transmitting (emits the initial window).
    pub fn start(&mut self, now: Time) -> SenderOutput {
        let mut out = SenderOutput::default();
        self.start_into(now, &mut out);
        out
    }

    /// [`start`](Self::start), appending into caller-owned scratch
    /// (the zero-allocation entry point; see [`SenderOutput::clear`]).
    pub fn start_into(&mut self, now: Time, out: &mut SenderOutput) {
        assert!(!self.started, "start called twice");
        self.started = true;
        self.pump_into(now, out);
    }

    /// Handle a cumulative ACK (`cum_ack` = next byte the receiver
    /// expects) with its ECN echo flag.
    pub fn on_ack(&mut self, cum_ack: u64, ece: bool, now: Time) -> SenderOutput {
        let mut out = SenderOutput::default();
        self.on_ack_into(cum_ack, ece, now, &mut out);
        out
    }

    /// [`on_ack`](Self::on_ack), appending into caller-owned scratch.
    pub fn on_ack_into(&mut self, cum_ack: u64, ece: bool, now: Time, out: &mut SenderOutput) {
        if !self.started || self.is_done() {
            self.output_nothing_into(out);
            return;
        }
        let newly_acked = cum_ack.saturating_sub(self.snd_una);

        // Path validation observes the raw echo; a failed path then
        // filters it out of everything below.
        if let Some((from, to)) = self.validator.on_ack(cum_ack.max(self.snd_una), ece) {
            self.emit_validator_transition(from, to, now);
        }
        let ece = ece && self.validator.ecn_usable();

        let prev_state = self.cc.state();

        // Per-ACK policy bookkeeping counts every ACK, marked or not
        // (DCTCP's byte accounting, BBR's delivery samples).
        let ctx = self.ctx(now, None);
        self.cc.on_ack(newly_acked, ece, &ctx);

        if newly_acked == 0 {
            // Duplicate ACK.
            if cum_ack == self.snd_una && self.snd_nxt > self.snd_una {
                self.dupacks += 1;
                if self.cc.in_recovery() {
                    // Window inflation keeps the pipe full.
                    let ctx = self.ctx(now, None);
                    self.cc.on_dup_inflate(&ctx);
                } else if self.dupacks == self.cfg.dupack_thresh {
                    self.enter_fast_retransmit_into(now, out);
                    self.note_cc_state(prev_state, now);
                    return;
                }
            }
            // ECN echo on a dup ACK still counts for the reduction.
            if ece {
                self.ecn_echo(now);
            }
            self.note_cc_state(prev_state, now);
            self.pump_into(now, out);
            return;
        }

        // Fresh ACK.
        self.snd_una = cum_ack;
        // Defensive: an ACK beyond snd_nxt (impossible from our receiver,
        // but cheap to be robust against) acknowledges everything sent.
        if self.snd_nxt < self.snd_una {
            self.snd_nxt = self.snd_una;
        }
        self.dupacks = 0;

        // RTT sample (Karn-safe: timed segment invalidated on rtx).
        let mut latest_rtt = None;
        if let Some((seq, sent)) = self.timed_seg {
            if cum_ack > seq {
                let sample = now.saturating_sub(sent);
                self.rtt.sample(sample);
                latest_rtt = Some(sample);
                self.timed_seg = None;
            }
        }

        // Recovery exit or window growth, plus per-window rollovers.
        let ctx = self.ctx(now, latest_rtt);
        self.cc.on_fresh_ack(newly_acked, &ctx);

        if ece {
            self.ecn_echo(now);
        }

        // Re-arm or clear the RTO.
        if self.snd_una >= self.snd_nxt {
            self.rto_deadline = None;
        } else {
            self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
        }

        self.note_cc_state(prev_state, now);
        self.pump_into(now, out);
    }

    /// Handle an armed timer firing at `now`. Stale timers (deadline
    /// moved or cleared) are ignored; the host may therefore arm a timer
    /// event for every `SenderOutput::timer` it sees without cancelling
    /// old ones.
    pub fn on_timer(&mut self, now: Time) -> SenderOutput {
        let mut out = SenderOutput::default();
        self.on_timer_into(now, &mut out);
        out
    }

    /// [`on_timer`](Self::on_timer), appending into caller-owned scratch.
    pub fn on_timer_into(&mut self, now: Time, out: &mut SenderOutput) {
        match self.rto_deadline {
            Some(deadline) if now >= deadline && !self.is_done() => {}
            _ => {
                self.output_nothing_into(out);
                return;
            }
        }
        // RTO: the policy collapses; we back off and go-back-N.
        self.timeouts += 1;
        let prev_state = self.cc.state();
        // ctx.snd_nxt is still the pre-rewind high-water mark — the
        // policy's reduction gate must cover everything sent so far.
        let ctx = self.ctx(now, None);
        self.cc.on_rto(&ctx);
        self.probe.emit(|| tcn_telemetry::Event::RtoFired {
            at_ps: now.as_ps(),
            flow: self.flow.0,
            cwnd_bytes: self.cc.cwnd() as u64,
            timeouts: self.timeouts,
        });
        if let Some((from, to)) = self.validator.on_rto(self.snd_una) {
            self.emit_validator_transition(from, to, now);
        }
        self.dupacks = 0;
        self.rtt.back_off();
        self.timed_seg = None; // Karn

        // Go-back-N: resend from snd_una.
        self.snd_nxt = self.snd_una;
        self.rto_deadline = None; // pump re-arms with the backed-off RTO
        self.note_cc_state(prev_state, now);
        self.pump_into(now, out);
        // pump always arms from now + rto (already backed off).
        out.timer = self.rto_deadline;
    }

    /// Switch this flow's congestion controller mid-run (the scenario
    /// DSL's `cc-switch` mutation). The current window carries over so
    /// the flow keeps its sending rate; the new algorithm's state
    /// starts clean (in congestion avoidance for the window-based
    /// controllers — a mid-flow switch must not slow-start-blast).
    /// No-op if the flow already runs `cc`.
    pub fn switch_cc(&mut self, cc: Cc, now: Time) {
        if cc == self.cc.kind() {
            return;
        }
        let from = self.cc.name();
        let cwnd = self.cc.cwnd();
        self.cc = CcAlgo::carried(cc, &self.cfg, cwnd);
        let to = self.cc.name();
        self.probe.emit(|| tcn_telemetry::Event::CcState {
            at_ps: now.as_ps(),
            flow: self.flow.0,
            cc: "switch",
            from,
            to,
        });
    }

    /// True once every byte has been cumulatively acknowledged.
    pub fn is_done(&self) -> bool {
        self.snd_una >= self.size
    }

    /// Current congestion window in bytes (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// DCTCP α estimate (0 for other controllers).
    pub fn alpha(&self) -> f64 {
        self.cc.alpha()
    }

    /// The running congestion-control algorithm.
    pub fn cc_kind(&self) -> Cc {
        self.cc.kind()
    }

    /// The controller's current state-machine phase ("slow-start",
    /// "probe-bw", …) for diagnostics.
    pub fn cc_state(&self) -> &'static str {
        self.cc.state()
    }

    /// The ECN path-validation verdict for this flow.
    pub fn ecn_path_state(&self) -> EcnPathState {
        self.validator.state()
    }

    /// Number of RTO expiries so far (the paper counts these to explain
    /// tail FCTs, §6.2.1).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Number of fast retransmits so far.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Number of ECN-induced window reductions.
    pub fn ecn_reductions(&self) -> u64 {
        self.ecn_reductions
    }

    /// Data segments retransmitted so far (go-back-N resends and fast
    /// retransmits alike).
    pub fn rtx_packets(&self) -> u64 {
        self.rtx_packets
    }

    /// Payload bytes retransmitted so far.
    pub fn rtx_bytes(&self) -> u64 {
        self.rtx_bytes
    }

    /// Flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Total flow size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Snapshot for the controller hooks.
    fn ctx(&self, now: Time, latest_rtt: Option<Time>) -> CcCtx {
        CcCtx {
            now,
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            mss: self.cfg.mss,
            dupack_thresh: self.cfg.dupack_thresh,
            srtt: self.rtt.srtt(),
            latest_rtt,
        }
    }

    fn output_nothing_into(&self, out: &mut SenderOutput) {
        out.timer = self.rto_deadline;
    }

    /// Hand an ECN echo to the policy; on an applied reduction, count
    /// and report it.
    fn ecn_echo(&mut self, now: Time) {
        let ctx = self.ctx(now, None);
        if self.cc.on_ecn_echo(&ctx) {
            self.ecn_reductions += 1;
            self.probe.emit(|| tcn_telemetry::Event::EcnReduce {
                at_ps: now.as_ps(),
                flow: self.flow.0,
                cwnd_bytes: self.cc.cwnd() as u64,
                alpha_ppm: (self.cc.alpha() * 1e6) as u32,
            });
        }
    }

    /// Report a controller phase transition observed across a hook.
    fn note_cc_state(&mut self, prev: &'static str, now: Time) {
        let cur = self.cc.state();
        if prev != cur {
            self.probe.emit(|| tcn_telemetry::Event::CcState {
                at_ps: now.as_ps(),
                flow: self.flow.0,
                cc: self.cc.name(),
                from: prev,
                to: cur,
            });
        }
    }

    /// Report an ECN path-validation transition.
    fn emit_validator_transition(&mut self, from: &'static str, to: &'static str, now: Time) {
        self.probe.emit(|| tcn_telemetry::Event::CcState {
            at_ps: now.as_ps(),
            flow: self.flow.0,
            cc: "ecn-validation",
            from,
            to,
        });
    }

    fn enter_fast_retransmit_into(&mut self, now: Time, out: &mut SenderOutput) {
        self.fast_retransmits += 1;
        let ctx = self.ctx(now, None);
        self.cc.on_loss(&ctx);
        self.probe.emit(|| tcn_telemetry::Event::FastRtx {
            at_ps: now.as_ps(),
            flow: self.flow.0,
            cwnd_bytes: self.cc.cwnd() as u64,
        });
        self.timed_seg = None; // Karn

        let seg = self.make_segment(self.snd_una, now);
        let ctx = self.ctx(now, None);
        self.cc.on_sent(self.snd_una, seg.payload_len(), true, &ctx);
        out.packets.push(seg);
        self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
        // Recovery may also allow new data.
        self.pump_into(now, out);
        out.timer = self.rto_deadline;
    }

    /// Emit as much new data as the window allows, appending to `out`.
    fn pump_into(&mut self, now: Time, out: &mut SenderOutput) {
        let before = out.packets.len();
        let mss = u64::from(self.cfg.mss);
        loop {
            if self.snd_nxt >= self.size {
                break;
            }
            let inflight = self.snd_nxt - self.snd_una;
            // Always allow one segment when nothing is in flight so a
            // collapsed window cannot deadlock.
            let budget = self.cc.cwnd().max(f64::from(self.cfg.mss)) as u64;
            if inflight >= budget {
                break;
            }
            let payload = mss.min(self.size - self.snd_nxt) as u32;
            let seq = self.snd_nxt;
            let is_rtx = seq < self.max_seq_sent;
            let seg = self.make_segment(seq, now);
            let ctx = self.ctx(now, None);
            self.cc.on_sent(seq, payload, is_rtx, &ctx);
            out.packets.push(seg);
            self.snd_nxt += u64::from(payload);
            if self.timed_seg.is_none() {
                self.timed_seg = Some((seq, now));
            }
        }
        if out.packets.len() > before && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now.saturating_add(self.rtt.rto()));
        }
        out.timer = self.rto_deadline;
    }

    fn make_segment(&mut self, seq: u64, now: Time) -> Packet {
        let payload = u64::from(self.cfg.mss).min(self.size - seq) as u32;
        if seq < self.max_seq_sent {
            self.rtx_packets += 1;
            self.rtx_bytes += u64::from(payload);
        }
        self.max_seq_sent = self.max_seq_sent.max(seq + u64::from(payload));
        let mut p = Packet::data(self.flow, self.src, self.dst, seq, payload, self.cfg.header);
        p.birth_ts = now;
        // Loss-based tenants and failed-validation paths send Not-ECT:
        // sojourn markers cannot mark them and RED-family AQMs drop
        // instead (the coexistence the mixed-tenant figures study).
        if !(self.cc.ecn_capable() && self.validator.ecn_usable()) {
            p.ecn = EcnCodepoint::NotEct;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcn_core::PacketKind;

    fn seqs(out: &SenderOutput) -> Vec<u64> {
        out.packets
            .iter()
            .map(|p| match p.kind {
                PacketKind::Data { seq, .. } => seq,
                _ => panic!("sender emitted non-data"),
            })
            .collect()
    }

    fn sender(size: u64) -> TcpSender {
        TcpSender::new(TcpConfig::preset(Cc::Dctcp).sim(), FlowId(1), 0, 1, size)
    }

    #[test]
    fn start_emits_initial_window() {
        let mut s = sender(1_000_000);
        let out = s.start(Time::ZERO);
        // 16 segments of 1460 B.
        assert_eq!(out.packets.len(), 16);
        assert_eq!(seqs(&out)[0], 0);
        assert_eq!(seqs(&out)[15], 15 * 1460);
        assert!(out.timer.is_some(), "RTO armed with data in flight");
    }

    #[test]
    fn small_flow_sends_exact_bytes() {
        let mut s = sender(3000);
        let out = s.start(Time::ZERO);
        assert_eq!(out.packets.len(), 3);
        let total: u32 = out.packets.iter().map(|p| p.payload_len()).sum();
        assert_eq!(u64::from(total), 3000);
        assert_eq!(out.packets[2].payload_len(), 80); // 3000 - 2*1460
    }

    #[test]
    fn fluent_preset_matches_paper_setups() {
        let sim = TcpConfig::preset(Cc::EcnStar).sim();
        assert_eq!(sim.cc, Cc::EcnStar);
        assert_eq!((sim.mss, sim.header, sim.init_cwnd), (1460, 40, 16));
        assert_eq!(sim.rto_min, Time::from_ms(5));
        let tb = TcpConfig::preset(Cc::Cubic).testbed();
        assert_eq!(tb.cc, Cc::Cubic);
        assert_eq!(tb.init_cwnd, 10);
        assert!(!tb.ecn_validation);
        assert!(tb.with_ecn_validation(true).ecn_validation);
        let dctcp = TcpConfig::preset(Cc::Dctcp).sim();
        assert_eq!(dctcp.cc, Cc::Dctcp);
        assert_eq!(dctcp.init_cwnd, 16);
        let dctcp_tb = TcpConfig::preset(Cc::Dctcp).testbed();
        assert_eq!(dctcp_tb.init_cwnd, 10);
        assert_eq!(dctcp_tb.rto_min, Time::from_ms(10));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender(100_000_000);
        let t0 = Time::ZERO;
        s.start(t0);
        let cwnd0 = s.cwnd();
        // ACK the whole initial window.
        let t1 = Time::from_us(100);
        let out = s.on_ack(16 * 1460, false, t1);
        assert!((s.cwnd() - cwnd0 * 2.0).abs() < 1.0, "cwnd {}", s.cwnd());
        // And the freed window emits ~2× the packets.
        assert!(out.packets.len() >= 30, "sent {}", out.packets.len());
    }

    #[test]
    fn congestion_avoidance_linear_growth() {
        let mut s = sender(100_000_000);
        s.start(Time::ZERO);
        // Force CA with a mark.
        s.on_ack(1460, true, Time::from_us(100));
        let cwnd = s.cwnd();
        // One full window of ACKs grows ≈ 1 MSS.
        let mut acked = 1460;
        let per_ack = 1460u64;
        let win_packets = (cwnd / 1460.0).ceil() as u64;
        for _ in 0..win_packets {
            acked += per_ack;
            s.on_ack(acked, false, Time::from_us(200));
        }
        let growth = s.cwnd() - cwnd;
        assert!(
            (growth - 1460.0).abs() < 150.0,
            "CA growth per RTT should be ~1 MSS, got {growth}"
        );
    }

    #[test]
    fn ecn_star_halves_once_per_window() {
        let mut s = TcpSender::new(
            TcpConfig::preset(Cc::EcnStar).sim(),
            FlowId(1),
            0,
            1,
            10_000_000,
        );
        s.start(Time::ZERO);
        let cwnd0 = s.cwnd();
        s.on_ack(1460, true, Time::from_us(100));
        // Slow-start growth for the acked MSS applies before the halving,
        // so the result is (cwnd0 + mss) / 2.
        assert!((s.cwnd() - (cwnd0 + 1460.0) / 2.0).abs() < 1.0);
        // Second ECE in the same window: no further cut.
        let c = s.cwnd();
        s.on_ack(2920, true, Time::from_us(110));
        assert!((s.cwnd() - c).abs() < f64::from(1460) + 1.0, "only growth allowed");
        assert_eq!(s.ecn_reductions(), 1);
    }

    #[test]
    fn dctcp_cut_proportional_to_alpha() {
        let g = 1.0 / 16.0;
        let mut s = TcpSender::new(
            TcpConfig::preset(Cc::Dctcp).sim().with_dctcp_gain(g),
            FlowId(1),
            0,
            1,
            100_000_000,
        );
        s.start(Time::ZERO);
        // First window fully marked: F = 1 → α = g after rollover.
        let w = 16 * 1460;
        s.on_ack(w, true, Time::from_us(100));
        assert!((s.alpha() - g).abs() < 1e-9, "alpha {}", s.alpha());
        // The cut used α at echo time.
        // With small α the cut is gentle — this is DCTCP's whole point.
        let cwnd_after = s.cwnd();
        assert!(cwnd_after > 0.9 * (w as f64), "gentle cut, got {cwnd_after}");
    }

    #[test]
    fn dctcp_alpha_converges_under_persistent_marking() {
        let mut s = sender(1_000_000_000);
        s.start(Time::ZERO);
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        for _ in 0..200 {
            now += Time::from_us(100);
            acked += 14_600;
            s.on_ack(acked, true, now);
        }
        assert!(s.alpha() > 0.9, "alpha should approach 1, got {}", s.alpha());
    }

    #[test]
    fn dctcp_alpha_decays_without_marks() {
        let mut s = sender(1_000_000_000);
        s.start(Time::ZERO);
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += Time::from_us(100);
            acked += 14_600;
            s.on_ack(acked, true, now);
        }
        let high = s.alpha();
        for _ in 0..200 {
            now += Time::from_us(100);
            acked += 14_600;
            s.on_ack(acked, false, now);
        }
        assert!(s.alpha() < high / 10.0, "alpha must decay, got {}", s.alpha());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender(1_000_000);
        s.start(Time::ZERO);
        // Segment 0 lost: ACKs for later segments repeat cum_ack = 0…
        // (receiver acks next_expected=0 on every OOO arrival… our
        // receiver acks 0; model dup acks directly here).
        let mut out = SenderOutput::default();
        for _ in 0..3 {
            out = s.on_ack(0, false, Time::from_us(50));
        }
        assert_eq!(s.fast_retransmits(), 1);
        assert_eq!(seqs(&out)[0], 0, "must retransmit the hole");
    }

    #[test]
    fn recovery_exits_on_new_ack() {
        let mut s = sender(1_000_000);
        s.start(Time::ZERO);
        let cwnd0 = s.cwnd();
        for _ in 0..3 {
            s.on_ack(0, false, Time::from_us(50));
        }
        assert_eq!(s.cc_state(), "recovery");
        s.on_ack(16 * 1460, false, Time::from_us(100));
        // Deflated to ssthresh = cwnd0/2.
        assert!((s.cwnd() - cwnd0 / 2.0).abs() < 1.0, "cwnd {}", s.cwnd());
        assert_eq!(s.timeouts(), 0);
        assert_eq!(s.cc_state(), "congestion-avoidance");
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut s = sender(1_000_000);
        let out = s.start(Time::ZERO);
        let deadline = out.timer.unwrap();
        // 5 ms RTO_min in sim config.
        assert_eq!(deadline, Time::from_ms(5));
        let out = s.on_timer(deadline);
        assert_eq!(s.timeouts(), 1);
        assert_eq!(seqs(&out)[0], 0, "go-back-N from snd_una");
        assert!((s.cwnd() - 1460.0).abs() < 1.0);
        // Backed-off deadline re-armed.
        assert!(out.timer.unwrap() > deadline);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut s = sender(1_000_000);
        let out = s.start(Time::ZERO);
        let d0 = out.timer.unwrap();
        // ACK everything before the timer fires.
        let n = (1_000_000u64).div_ceil(1460);
        let mut acked = 0;
        let mut now = Time::from_us(100);
        while !s.is_done() {
            acked = (acked + 16 * 1460).min(1_000_000);
            s.on_ack(acked, false, now);
            now += Time::from_us(100);
        }
        let _ = n;
        let out = s.on_timer(d0);
        assert!(out.packets.is_empty(), "done flow must ignore timers");
        assert_eq!(s.timeouts(), 0);
    }

    #[test]
    fn completion() {
        let mut s = sender(5000);
        s.start(Time::ZERO);
        assert!(!s.is_done());
        s.on_ack(5000, false, Time::from_us(100));
        assert!(s.is_done());
    }

    #[test]
    fn no_send_beyond_flow_size() {
        let mut s = sender(2920);
        let out = s.start(Time::ZERO);
        assert_eq!(out.packets.len(), 2);
        // Fresh ACK with a huge window: still nothing more to send.
        let out = s.on_ack(1460, false, Time::from_us(100));
        assert!(out.packets.is_empty());
    }

    #[test]
    fn zero_inflight_can_always_send() {
        // Even if cwnd collapses below MSS, one segment may fly.
        let mut s = sender(1_000_000);
        s.start(Time::ZERO);
        let d = s.rto_deadline.unwrap();
        let out = s.on_timer(d);
        assert!(!out.packets.is_empty());
    }

    #[test]
    fn rtt_sampling_feeds_rto() {
        let mut s = sender(10_000_000);
        s.start(Time::ZERO);
        s.on_ack(1460, false, Time::from_us(300));
        assert_eq!(s.rtt.srtt(), Some(Time::from_us(300)));
    }

    #[test]
    fn ecn_capable_transports_send_ect() {
        let mut s = sender(10_000);
        let out = s.start(Time::ZERO);
        assert!(out.packets.iter().all(|p| p.ecn == EcnCodepoint::Ect0));
    }

    #[test]
    fn loss_based_transports_send_not_ect() {
        for cc in [Cc::Cubic, Cc::Bbr] {
            let mut s =
                TcpSender::new(TcpConfig::preset(cc).sim(), FlowId(1), 0, 1, 10_000);
            let out = s.start(Time::ZERO);
            assert!(
                out.packets.iter().all(|p| p.ecn == EcnCodepoint::NotEct),
                "{} must be Not-ECT",
                cc.name()
            );
        }
    }

    #[test]
    fn failed_validation_falls_back_to_not_ect() {
        let cfg = TcpConfig::preset(Cc::Dctcp).sim().with_ecn_validation(true);
        let mut s = TcpSender::new(cfg, FlowId(1), 0, 1, 10_000_000);
        s.start(Time::ZERO);
        assert_eq!(s.ecn_path_state(), EcnPathState::Testing);
        // Every ACK of the testing window carries CE: mangled path.
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        while s.ecn_path_state() == EcnPathState::Testing {
            now += Time::from_us(100);
            acked += 1460;
            s.on_ack(acked, true, now);
        }
        assert_eq!(s.ecn_path_state(), EcnPathState::Failed);
        // Subsequent segments are Not-ECT and echoes are ignored.
        let reductions = s.ecn_reductions();
        now += Time::from_us(100);
        acked += 1460;
        let out = s.on_ack(acked, true, now);
        assert!(out.packets.iter().all(|p| p.ecn == EcnCodepoint::NotEct));
        assert_eq!(s.ecn_reductions(), reductions, "echo ignored after failure");
    }

    #[test]
    fn clean_path_validates_and_keeps_ecn() {
        let cfg = TcpConfig::preset(Cc::Dctcp).sim().with_ecn_validation(true);
        let mut s = TcpSender::new(cfg, FlowId(1), 0, 1, 10_000_000);
        s.start(Time::ZERO);
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        while s.ecn_path_state() == EcnPathState::Testing {
            now += Time::from_us(100);
            acked += 1460;
            s.on_ack(acked, false, now);
        }
        assert_eq!(s.ecn_path_state(), EcnPathState::Capable);
        let out = s.on_ack(acked + 1460, false, now + Time::from_us(100));
        assert!(out.packets.iter().all(|p| p.ecn == EcnCodepoint::Ect0));
    }

    #[test]
    fn cubic_sender_completes_flow() {
        let mut s = TcpSender::new(TcpConfig::preset(Cc::Cubic).sim(), FlowId(1), 0, 1, 100_000);
        s.start(Time::ZERO);
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        while !s.is_done() {
            now += Time::from_us(100);
            acked = (acked + 16 * 1460).min(100_000);
            s.on_ack(acked, false, now);
        }
        assert!(s.is_done());
    }

    #[test]
    fn bbr_sender_completes_flow() {
        let mut s = TcpSender::new(TcpConfig::preset(Cc::Bbr).sim(), FlowId(1), 0, 1, 100_000);
        s.start(Time::ZERO);
        assert_eq!(s.cc_state(), "startup");
        let mut acked = 0u64;
        let mut now = Time::ZERO;
        while !s.is_done() {
            now += Time::from_us(100);
            acked = (acked + 16 * 1460).min(100_000);
            s.on_ack(acked, false, now);
        }
        assert!(s.is_done());
    }

    #[test]
    fn switch_cc_carries_window() {
        let mut s = sender(100_000_000);
        s.start(Time::ZERO);
        s.on_ack(16 * 1460, false, Time::from_us(100));
        let w = s.cwnd();
        s.switch_cc(Cc::Cubic, Time::from_us(200));
        assert_eq!(s.cc_kind(), Cc::Cubic);
        assert!((s.cwnd() - w).abs() < 1e-9, "window carries over");
        assert_eq!(s.cc_state(), "congestion-avoidance");
        // Switching to the same algorithm is a no-op.
        s.switch_cc(Cc::Cubic, Time::from_us(300));
        assert_eq!(s.cc_kind(), Cc::Cubic);
    }

    #[test]
    #[should_panic(expected = "zero-size flow")]
    fn zero_size_rejected() {
        sender(0);
    }
}
