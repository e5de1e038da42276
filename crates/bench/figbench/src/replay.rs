//! Per-layer replays: each layer's recorded work pushed through the
//! layer's public functions in isolation and timed per operation.
//!
//! A replay runs with warm caches and no other layer between its calls,
//! so it omits the cross-layer cache effects of the real run; the ledger
//! prints what the replays leave unexplained.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tcn_core::{FlowId, Packet, PacketArena, PacketKind};
use tcn_net::{Port, PortSetup};
use tcn_sim::{Rate, Rng, Time};
use tcn_transport::{SenderOutput, TcpConfig, TcpReceiver, TcpSender};

use crate::median;
use crate::trace::PortOp;

/// perfbench's source (see `build.rs`), compiled as a module so the
/// event-queue replay runs its hold model rather than a copy of it.
#[allow(dead_code, unused_imports, deprecated, clippy::all)]
mod perfbench {
    include!(concat!(env!("OUT_DIR"), "/perfbench.rs"));

    /// Pops per second of perfbench's calendar-queue hold model with
    /// `resident` events pending.
    pub fn calendar_pops_per_sec(resident: usize, pops: u64, seed: u64) -> f64 {
        hold_calendar(resident, pops, seed)
    }
}

/// Times each replay is repeated; the median is reported.
const REPEATS: usize = 5;

/// Host nanoseconds one `Instant::now` + `elapsed` pair costs, so
/// segment timings can have it subtracted.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 100_000;
    let t0 = Instant::now();
    let mut sink = Duration::ZERO;
    for _ in 0..N {
        sink += black_box(Instant::now()).elapsed();
    }
    black_box(sink);
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Event queue: nanoseconds per pop-and-reschedule of perfbench's hold
/// model at `resident` pending events.
pub fn queue_pop_ns(resident: u64) -> f64 {
    let resident = resident.max(1) as usize;
    let samples = (0..REPEATS as u64)
        .map(|i| 1e9 / perfbench::calendar_pops_per_sec(resident, 1_000_000, 11 + i))
        .collect();
    median(samples)
}

/// Port path: `(enqueue ns, dequeue ns)` per call, replaying `ops` into
/// a fresh `Port::new(setup, rate)`. An untimed-inside pass gives the
/// stream's total; a second pass times runs of consecutive same-kind
/// calls (less the timer's own cost) to split that total between
/// enqueue and dequeue.
///
/// # Errors
/// A description when the replay does not reproduce the recorded
/// stream (a dequeue that finds nothing, or a scheduler error).
pub fn port_ns(setup: &PortSetup, rate: Rate, ops: &[PortOp]) -> Result<(f64, f64), String> {
    let n_enq = ops.iter().filter(|o| o.enqueue).count();
    let n_deq = ops.len() - n_enq;
    if n_enq == 0 || n_deq == 0 {
        return Ok((0.0, 0.0));
    }
    let overhead = timer_overhead_ns();
    let mut enq = Vec::with_capacity(REPEATS);
    let mut deq = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let mut port = Port::new(setup, rate);
        let t0 = Instant::now();
        for op in ops {
            port_call(&mut port, op)?;
        }
        let total_ns = t0.elapsed().as_nanos() as f64;

        let mut port = Port::new(setup, rate);
        let (mut enq_ns, mut deq_ns) = (0.0, 0.0);
        for seg in ops.chunk_by(|a, b| a.enqueue == b.enqueue) {
            let t0 = Instant::now();
            for op in seg {
                port_call(&mut port, op)?;
            }
            let ns = (t0.elapsed().as_nanos() as f64 - overhead).max(0.0);
            if seg[0].enqueue {
                enq_ns += ns;
            } else {
                deq_ns += ns;
            }
        }
        let enq_share = if enq_ns + deq_ns > 0.0 {
            enq_ns / (enq_ns + deq_ns)
        } else {
            0.5
        };
        enq.push(total_ns * enq_share / n_enq as f64);
        deq.push(total_ns * (1.0 - enq_share) / n_deq as f64);
    }
    Ok((median(enq), median(deq)))
}

/// Replay one recorded call on `port`.
fn port_call(port: &mut Port, op: &PortOp) -> Result<(), String> {
    if op.enqueue {
        let mut pkt = Packet::data(FlowId(0), 0, 1, 0, 1, 0);
        pkt.size = op.bytes;
        pkt.dscp = op.dscp;
        black_box(port.enqueue(pkt, op.at));
        return Ok(());
    }
    match port.dequeue(op.at) {
        Ok(Some(pkt)) => {
            black_box(pkt);
            Ok(())
        }
        Ok(None) => Err("port replay: a recorded dequeue found the port empty".into()),
        Err(e) => Err(format!("port replay: {e}")),
    }
}

/// Transport ACK path: nanoseconds per ACK through a `TcpSender` ↔
/// `TcpReceiver` loopback, where each data segment arrives CE-marked
/// with probability `ce_frac`. One ACK costs a `TcpReceiver::on_data`
/// and a `TcpSender::on_ack_into`.
///
/// # Errors
/// A description when the loopback stalls or the receiver rejects a
/// segment.
pub fn on_ack_ns(tcp: TcpConfig, ce_frac: f64) -> Result<f64, String> {
    const FLOW_BYTES: u64 = 20_000_000;
    let mut samples = Vec::with_capacity(REPEATS);
    for rep in 0..REPEATS as u64 {
        let mut rng = Rng::new(rep);
        let mut sender = TcpSender::new(tcp, FlowId(0), 0, 1, FLOW_BYTES);
        let mut receiver = TcpReceiver::new(FlowId(0), 1, 0, FLOW_BYTES);
        let mut out = SenderOutput::default();
        let mut wire: VecDeque<Packet> = VecDeque::new();
        let mut now = Time::ZERO;
        let step = Time::from_ns(1_200);
        sender.start_into(now, &mut out);
        wire.extend(out.packets.drain(..));
        let mut acks = 0u64;
        let t0 = Instant::now();
        while !sender.is_done() {
            let Some(mut pkt) = wire.pop_front() else {
                return Err("transport replay: loopback stalled with data outstanding".into());
            };
            if rng.chance(ce_frac) {
                pkt.try_mark_ce();
            }
            now = now.saturating_add(step);
            let ack = receiver
                .on_data(&pkt, now)
                .map_err(|e| format!("transport replay: {e}"))?;
            let PacketKind::Ack { cum_ack, ece } = ack.kind else {
                return Err("transport replay: receiver answered with a non-ACK".into());
            };
            out.clear();
            sender.on_ack_into(cum_ack, ece, now, &mut out);
            wire.extend(out.packets.drain(..));
            acks += 1;
        }
        samples.push(t0.elapsed().as_nanos() as f64 / acks as f64);
    }
    Ok(median(samples))
}

/// Packet arena: nanoseconds per insert + remove pair, cycling packets
/// through a FIFO of `high_water` live handles.
pub fn arena_op_ns(high_water: u64) -> f64 {
    const OPS: u64 = 1_000_000;
    let depth = high_water.max(1);
    let pkt = Packet::data(FlowId(0), 0, 1, 0, 1_460, 40);
    let samples = (0..REPEATS)
        .map(|_| {
            let mut arena = PacketArena::new();
            let mut live: VecDeque<_> = (0..depth).map(|_| arena.insert(pkt.clone())).collect();
            let t0 = Instant::now();
            for _ in 0..OPS {
                live.push_back(arena.insert(pkt.clone()));
                let h = live.pop_front().expect("depth is at least one");
                black_box(arena.remove(h));
            }
            t0.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(samples)
}
