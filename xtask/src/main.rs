//! `cargo xtask` — the repo's dependency-free automation entry point.
//!
//! Subcommands:
//!
//! * `lint`  — run the token-level static analyzer (see
//!   [`xtask::lint`]) over the repository. Prints
//!   `file:line:col: [rule] message` diagnostics and exits nonzero if
//!   any deny-severity finding fires. Flags:
//!   * `--list` — print the generated rule table (id, severity, scope,
//!     summary) and exit;
//!   * `--rule <id>` (repeatable) — narrow *output* to the named rules
//!     (every rule still executes, so `unused-allow` stays accurate);
//!   * `--format json` — emit the versioned JSON document on stdout
//!     (human diagnostics go to stderr), schema-checked before
//!     printing.
//! * `build` — `cargo build --release --workspace`.
//! * `test`  — `cargo test -q` (the tier-1 test set, from ROADMAP.md).
//! * `test-all` — `cargo test -q --workspace` (every crate's suites;
//!   much slower — the experiments crate simulates full FCT sweeps in
//!   debug mode with the audit hooks live).
//! * `bench` — build and run the `perfbench` baseline harness in
//!   release mode, rewriting the checked-in `BENCH_engine.json` and
//!   `BENCH_sweep.json` at the repo root. With `--smoke`, runs the
//!   reduced measurement and only *compares* three ratios against the
//!   checked-in baseline — calendar-vs-binheap pop throughput, and
//!   batched-vs-per-event dispatch wall speedup and work per pop —
//!   failing on a >25 % regression of any (no files are written).
//! * `ci`    — build, then test, then tier-1 again in release with
//!   `--features audit` (every runtime invariant checker live), then
//!   `lint-selftest` (the xtask test suite: lexer units, rule
//!   fixtures, and the old-vs-new engine differential), then lint in
//!   `--format json` mode (the document is schema-checked), then a
//!   telemetry smoke stage (`figs trace` one figure with a JSONL sink
//!   and `figs check-trace` the result against the schema), then a
//!   resume smoke stage (kill a checkpointed sweep mid-grid, resume
//!   it, byte-compare against an uninterrupted control run), then a
//!   scenario smoke stage (two named chaos scenarios at `--quick` with
//!   JSONL traces validated against the schema), then a fuzz smoke
//!   stage (eight fixed scenario-fuzzer seeds, zero violations
//!   expected), then a cc smoke stage (the mixed-tenant
//!   DCTCP/CUBIC/BBR figure at `--quick` with its JSONL trace
//!   schema-validated), then `bench --smoke`: the tier-1 gate in one
//!   command, eleven stages. Stops at the first failing stage.
//!
//! Everything here is pure std: the harness must work in an offline
//! container with nothing but the Rust toolchain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::engine::{filter_rules, Severity};
use xtask::{jsonck, lint, rules};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let repo = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint_cli(&repo, &args[1..]),
        Some("build") => run_cargo(&repo, &["build", "--release", "--workspace"]),
        Some("test") => run_cargo(&repo, &["test", "-q"]),
        Some("test-all") => run_cargo(&repo, &["test", "-q", "--workspace"]),
        Some("bench") => {
            if args.iter().any(|a| a == "--smoke") {
                run_bench_smoke(&repo)
            } else {
                run_cargo(&repo, &["run", "--release", "-p", "tcn-bench", "--bin", "perfbench"])
            }
        }
        Some("ci") => {
            let stages: [(&str, fn(&Path) -> ExitCode); 11] = [
                ("build", |r| run_cargo(r, &["build", "--release", "--workspace"])),
                ("test", |r| run_cargo(r, &["test", "-q"])),
                // Tier-1 again in release with every runtime invariant
                // checker live — debug runs audit via debug_assertions,
                // so this is the only stage covering the feature path.
                ("test (audit)", |r| {
                    run_cargo(r, &["test", "-q", "--release", "--features", "audit"])
                }),
                // The lint engine's own suite: lexer units, per-rule
                // fixture corpus, and the substring-vs-token engine
                // differential. Runs before `lint` so a broken analyzer
                // can't greenlight the repo.
                ("lint-selftest", |r| run_cargo(r, &["test", "-q", "-p", "xtask"])),
                ("lint", run_lint_json_stage),
                // Trace one figure cell through the telemetry bus and
                // validate the JSONL against the schema: proves the
                // probes, sinks and trace writer agree end to end.
                ("telemetry (smoke)", run_telemetry_smoke),
                // Kill a checkpointed sweep mid-grid, resume it, and
                // byte-compare against an uninterrupted control run:
                // proves checkpoint/resume reproduces exact output.
                ("resume (smoke)", run_resume_smoke),
                // Two named chaos scenarios at `--quick` with JSONL
                // traces attached, each validated against the schema:
                // proves the scenario engine, the runtime
                // reconfiguration surface, and the telemetry bus agree.
                ("scenario (smoke)", run_scenario_smoke),
                // Eight fixed fuzzer seeds through the scenario fuzzer,
                // expecting zero violations: the generator only emits
                // survivable chaos, so any failure is a system bug.
                ("fuzz (smoke)", run_fuzz_smoke),
                // The mixed-tenant congestion-control figure at
                // `--quick` with a JSONL trace validated against the
                // schema: proves the pluggable-CC surface (DCTCP,
                // CUBIC and BBR sharing one port), the ECN-capability
                // split, and the CC telemetry events agree end to end.
                ("cc (smoke)", run_cc_smoke),
                // Guard the hot-path baselines: a >25% drop in the
                // calendar-vs-binheap ratio or either batched-vs-per-event
                // dispatch ratio (wall speedup, work per pop) fails the
                // gate.
                ("bench (smoke)", run_bench_smoke),
            ];
            for (name, stage) in stages {
                eprintln!("xtask ci: {name}");
                let code = stage(&repo);
                if code != ExitCode::SUCCESS {
                    eprintln!("xtask ci: {name} FAILED");
                    return code;
                }
            }
            eprintln!("xtask ci: all stages passed");
            ExitCode::SUCCESS
        }
        Some("help") | None => {
            eprintln!(
                "usage: cargo xtask <lint|build|test|test-all|bench|ci>\n\
                 \n\
                 lint      token-level static analysis (17 rules: panic/print\n\
                 \x20         discipline, unsafe bans, doc provenance, and the\n\
                 \x20         determinism family — no-hash-iter,\n\
                 \x20         no-thread-outside-runner, no-ambient-entropy,\n\
                 \x20         no-raw-tick-arith, exhaustive-kind-tags,\n\
                 \x20         scenario-step-doc, …)\n\
                 \x20         [--list | --rule <id>]... [--format json]\n\
                 build     cargo build --release --workspace\n\
                 test      cargo test -q (tier-1 test set)\n\
                 test-all  cargo test -q --workspace (slow, every crate)\n\
                 bench     run perfbench, rewrite BENCH_*.json baselines\n\
                 \x20         (--smoke: compare-only regression gate)\n\
                 ci        build + test + test(audit) + lint-selftest +\n\
                 \x20         lint(json) + telemetry(smoke) + resume(smoke) +\n\
                 \x20         scenario(smoke) + fuzz(smoke) + cc(smoke) +\n\
                 \x20         bench(smoke) (the tier-1 gate, 11 stages)"
            );
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}` (try `cargo xtask help`)");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: parent of the `xtask/` directory this binary was
/// built from, falling back to the current directory (the `cargo xtask`
/// alias always runs at the root).
fn repo_root() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The `lint` subcommand: parse `--list` / `--rule <id>` /
/// `--format json`, run the registry, print, gate on deny findings.
fn run_lint_cli(repo: &Path, flags: &[String]) -> ExitCode {
    let mut only: Vec<String> = Vec::new();
    let mut json = false;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--list" => {
                print!("{}", lint::rule_table());
                return ExitCode::SUCCESS;
            }
            "--rule" => {
                let Some(id) = flags.get(i + 1) else {
                    eprintln!("xtask lint: --rule needs a rule id (see --list)");
                    return ExitCode::from(2);
                };
                if !rules::registry().iter().any(|r| r.id() == id) {
                    // Same convention as `figs scenario <id>`: exit 2
                    // with a nearest-match suggestion when one is close.
                    match rules::nearest_rule(id) {
                        Some(close) => eprintln!(
                            "xtask lint: unknown rule `{id}` — did you mean `{close}`? \
                             (see `cargo xtask lint --list`)"
                        ),
                        None => eprintln!(
                            "xtask lint: unknown rule `{id}` (see `cargo xtask lint --list`)"
                        ),
                    }
                    return ExitCode::from(2);
                }
                only.push(id.clone());
                i += 2;
            }
            "--format" => {
                match flags.get(i + 1).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    other => {
                        eprintln!("xtask lint: --format takes `json` or `text`, got {other:?}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let diags = filter_rules(lint::lint_repo(repo), &only);
    if json {
        let doc = xtask::engine::to_json(&diags);
        if let Err(e) = jsonck::validate_lint_json(&doc) {
            eprintln!("xtask lint: internal error — emitted JSON failed its own schema: {e}");
            return ExitCode::FAILURE;
        }
        println!("{doc}");
        for d in &diags {
            eprintln!("{d}");
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    let denies = diags.iter().filter(|d| d.severity == Severity::Deny).count();
    if denies == 0 {
        eprintln!("xtask lint: clean ({} finding(s))", diags.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {denies} violation(s)");
        ExitCode::FAILURE
    }
}

/// The `ci` lint stage: full registry in JSON mode (exercises the same
/// serialization + schema check downstream consumers rely on).
fn run_lint_json_stage(repo: &Path) -> ExitCode {
    run_lint_cli(repo, &["--format".to_string(), "json".to_string()])
}

/// Trace one sweep cell of fig. 6 at `--quick` scale with the JSONL
/// sink attached, then validate the trace file against the schema.
/// Exercises the full telemetry path: probes → bus → sinks → trace →
/// validator.
fn run_telemetry_smoke(repo: &Path) -> ExitCode {
    let out = repo.join("target").join("telemetry-smoke.jsonl");
    let out = out.to_string_lossy().into_owned();
    let trace = run_cargo(
        repo,
        &[
            "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "trace", "fig6",
            "--quick", "--out", &out,
        ],
    );
    if trace != ExitCode::SUCCESS {
        return trace;
    }
    run_cargo(
        repo,
        &[
            "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "check-trace",
            &out,
        ],
    )
}

/// Kill-and-resume byte-identity gate. Runs a checkpointed `figs fig6
/// --quick --json` three ways in `target/resume-smoke/`:
///
/// 1. with `TCN_ABORT_AFTER_CELLS=2` — the harness must die with exit
///    code 3 after recording two cells (the simulated kill);
/// 2. with only `TCN_CHECKPOINT` — resumes from the two recorded cells
///    and completes, writing `results/fig6.json`;
/// 3. with neither — the uninterrupted control run.
///
/// The resumed and control JSON files must be byte-identical.
fn run_resume_smoke(repo: &Path) -> ExitCode {
    let dir = repo.join("target").join("resume-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let ck = dir.join("fig6.ck.jsonl").to_string_lossy().into_owned();
    let figs = |envs: &[(&str, &str)], expect: i32| -> bool {
        let mut cmd = Command::new("cargo");
        cmd.args([
            "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "fig6",
            "--quick", "--json",
        ])
        .current_dir(&dir)
        .env_remove("TCN_CHECKPOINT")
        .env_remove("TCN_ABORT_AFTER_CELLS");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        match cmd.status() {
            Ok(s) if s.code() == Some(expect) => true,
            Ok(s) => {
                eprintln!("xtask: figs fig6 exited {s}, expected code {expect}");
                false
            }
            Err(e) => {
                eprintln!("xtask: failed to spawn cargo: {e}");
                false
            }
        }
    };
    // 1. Simulated kill after two newly-completed cells.
    if !figs(&[("TCN_CHECKPOINT", &ck), ("TCN_ABORT_AFTER_CELLS", "2")], 3) {
        return ExitCode::FAILURE;
    }
    // 2. Resume from the checkpoint to completion.
    if !figs(&[("TCN_CHECKPOINT", &ck)], 0) {
        return ExitCode::FAILURE;
    }
    let json = dir.join("results").join("fig6.json");
    let resumed = match std::fs::read(&json) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask: read {}: {e}", json.display());
            return ExitCode::FAILURE;
        }
    };
    // 3. Uninterrupted control run.
    if !figs(&[], 0) {
        return ExitCode::FAILURE;
    }
    let control = match std::fs::read(&json) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask: read {}: {e}", json.display());
            return ExitCode::FAILURE;
        }
    };
    if resumed == control {
        eprintln!("xtask: resumed sweep is byte-identical to the control run");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask: resumed sweep differs from the uninterrupted control \
             ({} vs {} bytes) — checkpoint/resume broke byte-identity",
            resumed.len(),
            control.len()
        );
        ExitCode::FAILURE
    }
}

/// Run two named chaos scenarios at `--quick` scale with the JSONL
/// telemetry sink attached, validating each trace against the schema.
/// Exercises the scenario parser, the engine's timed `NetMutation`
/// scheduling, and the telemetry path end to end.
fn run_scenario_smoke(repo: &Path) -> ExitCode {
    for id in ["quiet-baseline", "incast-storm"] {
        let out = repo.join("target").join(format!("scenario-smoke-{id}.jsonl"));
        let out = out.to_string_lossy().into_owned();
        let run = run_cargo(
            repo,
            &[
                "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "scenario",
                id, "--quick", "--trace-out", &out,
            ],
        );
        if run != ExitCode::SUCCESS {
            return run;
        }
        let check = run_cargo(
            repo,
            &[
                "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "check-trace",
                &out,
            ],
        );
        if check != ExitCode::SUCCESS {
            return check;
        }
    }
    ExitCode::SUCCESS
}

/// Run the mixed-tenant congestion-control figure (`figs mixed`) at
/// `--quick` scale with the JSONL telemetry sink attached, then
/// validate the trace against the schema. One WFQ port shared by
/// DCTCP, CUBIC and BBR tenants exercises the whole pluggable-CC
/// surface: per-flow controller selection, the ECN-capable/Not-ECT
/// split at the switch, and the CC-state telemetry events.
fn run_cc_smoke(repo: &Path) -> ExitCode {
    let out = repo.join("target").join("cc-smoke.jsonl");
    let out = out.to_string_lossy().into_owned();
    let run = run_cargo(
        repo,
        &[
            "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "mixed",
            "--quick", "--trace-out", &out,
        ],
    );
    if run != ExitCode::SUCCESS {
        return run;
    }
    run_cargo(
        repo,
        &[
            "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "check-trace",
            &out,
        ],
    )
}

/// Run the scenario fuzzer over eight fixed seeds expecting a clean
/// exit: the generator only emits survivable chaos, so a failing seed
/// means a system bug (the fuzzer will have left a shrunk repro in
/// `results/quarantine/`). The env knobs are cleared so an operator's
/// `TCN_FUZZ_*` settings cannot widen or narrow the gate.
fn run_fuzz_smoke(repo: &Path) -> ExitCode {
    let mut cmd = Command::new("cargo");
    cmd.args([
        "run", "--release", "-p", "tcn-experiments", "--bin", "figs", "--", "fuzz", "--seeds",
        "8",
    ])
    .current_dir(repo)
    .env_remove("TCN_FUZZ_SEEDS")
    .env_remove("TCN_FUZZ_STEP_BUDGET");
    match cmd.status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask: `figs fuzz --seeds 8` exited with {status}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_bench_smoke(repo: &Path) -> ExitCode {
    run_cargo(
        repo,
        &[
            "run", "--release", "-p", "tcn-bench", "--bin", "perfbench", "--", "--smoke",
        ],
    )
}

fn run_cargo(repo: &Path, args: &[&str]) -> ExitCode {
    match Command::new("cargo").args(args).current_dir(repo).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask: `cargo {}` exited with {status}", args.join(" "));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
