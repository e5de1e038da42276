//! Dispatch-mode byte-identity: the batched same-timestamp drain (with
//! its per-port TxDone coalescing) must be *indistinguishable* from the
//! legacy per-event loop in every figure-facing number — same FCTs,
//! same drops, same timeouts — across figure slices, fuzz seeds, and
//! thread counts.
//!
//! The dispatch mode is a process-wide default (a `tcn_net` atomic),
//! so every test here serializes on one lock and restores the default
//! before returning.

use std::sync::Mutex;

use tcn_experiments::common::Scale;
use tcn_experiments::fct_sweep::{self, SweepConfig};
use tcn_experiments::json::ToJson;
use tcn_experiments::scenario::{run_fuzz, FuzzOpts};
use tcn_net::{set_default_dispatch_mode, DispatchMode};

/// Serializes tests that flip the process-wide dispatch defaults.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// A one-load slice of a figure sweep — enough flows for queues to
/// build and drop, small enough to run four configurations per test.
fn slice_scale() -> Scale {
    Scale {
        flows: 300,
        loads: &[0.8],
        seed: 11,
    }
}

/// Run `cfg` under the given dispatch configuration and render the
/// whole `SweepResult` (every cell, every quarantine) to JSON text —
/// the byte-identity unit of comparison.
fn sweep_bytes(cfg: &SweepConfig, threads: usize, mode: DispatchMode) -> String {
    set_default_dispatch_mode(mode);
    let res = fct_sweep::run_schemes_with_threads(
        cfg,
        &slice_scale(),
        &cfg.schemes(),
        threads,
    );
    set_default_dispatch_mode(DispatchMode::Batched);
    res.to_json().pretty()
}

fn assert_slice_mode_invariant(cfg: &SweepConfig, tag: &str) {
    let reference = sweep_bytes(cfg, 1, DispatchMode::Batched);
    assert!(
        !reference.is_empty() && reference.contains("cells"),
        "{tag}: reference run produced no output"
    );
    for threads in [1usize, 4] {
        for mode in [DispatchMode::Batched, DispatchMode::PerEvent] {
            let got = sweep_bytes(cfg, threads, mode);
            assert_eq!(
                got, reference,
                "{tag}: {mode:?} dispatch at {threads} thread(s) diverged from \
                 batched/1-thread reference"
            );
        }
    }
}

/// Fig. 6 slice (DWRR switch ports — coalescing-ineligible scheduler,
/// so this exercises the plain batched drain): byte-identical output
/// across both dispatch modes and TCN_THREADS ∈ {1, 4}.
#[test]
fn fig6_slice_is_dispatch_mode_invariant() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_slice_mode_invariant(&SweepConfig::fig6(), "fig6");
}

/// Fig. 7 slice (WFQ switch ports — a pure-idle-select scheduler, so
/// batched mode actually coalesces trailing TxDone wakes here): still
/// byte-identical across modes and thread counts.
#[test]
fn fig7_slice_is_dispatch_mode_invariant() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_slice_mode_invariant(&SweepConfig::fig7(), "fig7");
}

/// The seeded scenario fuzzer — flows under link flaps, loss, jitter
/// and live reconfiguration — reports byte-identical per-seed lines
/// under both dispatch modes at 1 and 4 worker threads.
#[test]
fn fuzz_seeds_are_dispatch_mode_invariant() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let opts = |threads: usize| FuzzOpts {
        seeds: 8,
        master_seed: 0xC4A0_5EED,
        step_budget: 6,
        threads,
        quarantine_dir: None,
    };
    set_default_dispatch_mode(DispatchMode::Batched);
    let reference = run_fuzz(&opts(1));
    assert_eq!(reference.seeds, 8);
    assert_eq!(reference.lines.len(), 8);
    for threads in [1usize, 4] {
        for mode in [DispatchMode::Batched, DispatchMode::PerEvent] {
            set_default_dispatch_mode(mode);
            let got = run_fuzz(&opts(threads));
            set_default_dispatch_mode(DispatchMode::Batched);
            assert_eq!(
                got.lines, reference.lines,
                "fuzz lines diverged under {mode:?} dispatch at {threads} thread(s)"
            );
            assert_eq!(
                got.failures.len(),
                reference.failures.len(),
                "fuzz failure count diverged under {mode:?} at {threads} thread(s)"
            );
        }
    }
}
