//! helmsim's benchmark: one workload per process, release builds only.
//!
//! `perfbench --phase timed` builds the workload's servers, then runs
//! measured passes over the same generated inputs for a fixed time and
//! reports set-up time, pass time, peak memory and the paper fidelity
//! metrics. Host times are the process's CPU time (all threads), which
//! leaves out what the hypervisor steals, reported as the upper decile
//! over repetitions (see `stats::upper_decile`); wall-clock figures
//! are printed beside them. With `--trace 1` every other pass wraps its
//! layer calls in benchmark-side spans, which give each layer's self
//! time. `perfbench --phase aside` runs the passes kept apart from the
//! measured ones: the program-traced pass, then (auditing stays on for
//! the rest of the process) the audited pass. Each phase prints one JSON
//! line; `perfbench/run.py` builds this binary, runs the phases and
//! prints the combined result.

mod digest;
mod fidelity;
mod spans;
mod stats;
mod workloads;

use stats::Clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, PassOut, Scale, State, Tally, Workload};

/// Every metric the benchmark reports: name, unit, and whether it is
/// end to end (`true`) or per layer. `BENCHMARK.json` lists the same.
const METRICS: &[(&str, &str, bool)] = &[
    ("setup_s", "s", true),
    ("cpu_s", "s", true),
    ("peak_rss_mb", "MiB", true),
    ("table4_dev_pct", "%", true),
    ("headline_dev_pct", "%", true),
    ("server.builds", "count", false),
    ("server.new_s", "s", false),
    ("calib.runs", "count", false),
    ("calib.s", "s", false),
    ("calib.share", "ratio", false),
    ("traffic.draw_s", "s", false),
    ("online.engine_s", "s", false),
    ("simcore.events", "count", false),
    ("simcore.ns_per_event", "ns", false),
    ("online.events_per_request", "ratio", false),
    ("online.served", "count", false),
    ("online.rejected", "count", false),
    ("online.expired", "count", false),
    ("planner.candidates", "count", false),
    ("planner.probes", "count", false),
    ("planner.pruned", "count", false),
    ("planner.prune_ratio", "ratio", false),
    ("planner.confirmations", "count", false),
    ("planner.confirm_s", "s", false),
    ("planner.probe_s", "s", false),
    ("exec.runs", "count", false),
    ("exec.steps", "count", false),
    ("exec.steps_per_s", "1/s", false),
    ("exec.run_s", "s", false),
    ("autoplace.evaluated", "count", false),
    ("autoplace.pruned", "count", false),
    ("autoplace.prune_ratio", "ratio", false),
    ("autoplace.s", "s", false),
    ("projection.table_iv_s", "s", false),
    ("simaudit.overhead_x", "x", false),
    ("trace.overhead_x", "x", false),
    ("trace.spans", "count", false),
    ("trace.export_s", "s", false),
    ("trace.validate_s", "s", false),
    ("bench.trace_overhead_x", "x", false),
    ("bench.self_share", "ratio", false),
];

/// Self times by span name, plus the pass's tally, of one set-up or pass.
type SelfTimes = BTreeMap<&'static str, f64>;

/// Key of the summed self times of every layer span in a traced pass.
const LAYERS_KEY: &str = "layers";

/// The aside phase's audited pass time, from which `run.py` derives
/// `simaudit.overhead_x`.
const AUDITED_CPU_KEY: &str = "audited_cpu_s";

/// Set-ups per process: at least `SETUPS`, and more until
/// `SETUP_BUDGET_S` has passed, so millisecond set-ups get a steady
/// statistic; `setup_s` is their upper decile.
const SETUPS: usize = 11;
const SETUP_BUDGET_S: f64 = 0.5;
/// Passes run whatever the time budget.
const MIN_PASSES: usize = 5;
/// Audited passes in the aside phase.
const AUDIT_PASSES: usize = 3;
/// Untraced/traced rounds of the program-traced pass.
const TRACE_ROUNDS: usize = 3;
/// Cold calibrations timed for `plan_lattice`'s `calib.s`.
const CALIB_PROBES: usize = 5;

#[derive(PartialEq)]
enum Phase {
    Timed,
    Aside,
}

struct Args {
    phase: Phase,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let phase = match get("phase")?.as_str() {
        "timed" => Phase::Timed,
        "aside" => Phase::Aside,
        other => return Err(format!("unknown phase {other}")),
    };
    let workload = Workload::parse(get("workload")?).ok_or("unknown workload")?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        phase,
        workload,
        seed,
        seconds,
        trace,
        spans_out: flags.get("spans-out").cloned(),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The phase's result line.
fn result_line(
    args: &Args,
    ctx: &Ctx,
    metrics: &BTreeMap<&str, f64>,
    info: &BTreeMap<&str, String>,
) -> String {
    let mut out = format!(
        "{{\"phase\":{},\"workload\":{},\"seed\":{},\"profile\":\"release\",\"attempted\":{},\"failed\":{}",
        json_str(if args.phase == Phase::Timed { "timed" } else { "aside" }),
        json_str(args.workload.name()),
        args.seed,
        ctx.ops(),
        ctx.failed()
    );
    out.push_str(",\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        assert!(
            METRICS.iter().any(|m| m.0 == *k) || *k == AUDITED_CPU_KEY,
            "metric {k} is not listed in METRICS"
        );
        let _ = write!(
            out,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_num(*v)
        );
    }
    out.push_str("},\"info\":{");
    for (i, (k, v)) in info.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    out.push_str("},\"failures\":[");
    for (i, f) in ctx.failures().iter().enumerate() {
        let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, json_str(f));
    }
    out.push_str("]}");
    out
}

/// Builds the workload's state repeatedly (see `SETUPS`); returns the
/// CPU time of each set-up, the per-set-up self times by span name
/// (when recording), the set-up tally and the last state.
fn setups(
    w: Workload,
    ctx: &mut Ctx,
    record: bool,
) -> Result<(Vec<f64>, Vec<SelfTimes>, Tally, State), String> {
    ctx.spans.set_recording(record);
    let mut cpus = Vec::new();
    let mut selfs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while cpus.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let mut tally = Tally::new();
        let clock = Clock::start();
        let root = ctx.spans.begin("setup");
        let state = workloads::setup(w, ctx, &mut tally);
        ctx.spans.end(root);
        cpus.push(clock.cpu_s());
        if let Some(idx) = ctx.spans.last_root("setup").filter(|_| record) {
            selfs.push(ctx.spans.self_times(idx));
        }
        let state = state.ok_or_else(|| format!("set-up failed: {:?}", ctx.failures()))?;
        last = Some((tally, state));
    }
    ctx.spans.set_recording(false);
    let (tally, state) = last.ok_or("no set-up ran")?;
    Ok((cpus, selfs, tally, state))
}

/// Wall-clock and CPU times of a kind of pass.
#[derive(Default)]
struct Times {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// One warm-up pass, then passes over the same inputs until `--seconds`
/// have passed (at least `MIN_PASSES` of each kind). With `trace`, every
/// other pass records spans, so traced and untraced passes see the same
/// drift. Returns the untraced and traced passes' times, the traced
/// passes' self times and tallies, merged, and the last pass's output.
fn passes(
    state: &mut State,
    args: &Args,
    fingerprint: &mut Option<u64>,
    ctx: &mut Ctx,
) -> (Times, Times, Vec<SelfTimes>, PassOut) {
    let mut run = |ctx: &mut Ctx, record: bool| {
        ctx.spans.set_recording(record);
        let clock = Clock::start();
        let root = ctx.spans.begin("pass");
        let out = workloads::pass(state, args.seed, Scale::FULL, ctx);
        ctx.spans.end(root);
        let (wall, cpu) = (clock.wall_s(), clock.cpu_s());
        ctx.spans.set_recording(false);
        match *fingerprint {
            None => *fingerprint = Some(out.fingerprint),
            Some(fp) => ctx.check(fp == out.fingerprint, || {
                format!(
                    "fingerprint changed between passes: {fp:016x} then {:016x}",
                    out.fingerprint
                )
            }),
        }
        (wall, cpu, out)
    };
    let (_, _, mut last) = run(ctx, false);
    let (mut untraced, mut traced, mut per_pass) = (Times::default(), Times::default(), Vec::new());
    let start = Instant::now();
    while untraced.cpu.len() < MIN_PASSES
        || (args.trace && traced.cpu.len() < MIN_PASSES)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let record = args.trace && traced.cpu.len() < untraced.cpu.len();
        let (wall, cpu, out) = run(ctx, record);
        let times = if record {
            let idx = ctx
                .spans
                .last_root("pass")
                .expect("a recorded pass has a root span");
            let mut merged = ctx.spans.self_times(idx);
            let layers: f64 = merged
                .iter()
                .filter(|(k, _)| **k != "pass")
                .map(|(_, v)| v)
                .sum();
            merged.insert(LAYERS_KEY, layers);
            merged.extend(out.tally.iter().map(|(k, v)| (*k, *v)));
            per_pass.push(merged);
            &mut traced
        } else {
            &mut untraced
        };
        times.wall.push(wall);
        times.cpu.push(cpu);
        last = out;
    }
    (untraced, traced, per_pass, last)
}

/// Upper decile, median and the highest percentile that has ten
/// samples beyond it.
fn describe(xs: &[f64]) -> String {
    let tail = match stats::tail(xs) {
        Some((p, v)) => format!("p{p} {v:.6} s"),
        None => "no percentile has 10 samples beyond it".to_owned(),
    };
    format!(
        "p90 {:.6} s, median {:.6} s, {tail}, over {} passes",
        stats::upper_decile(xs),
        stats::median(xs),
        xs.len()
    )
}

fn median_of(maps: &[SelfTimes], key: &str) -> f64 {
    let xs: Vec<f64> = maps
        .iter()
        .map(|m| m.get(key).copied().unwrap_or(0.0))
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        stats::median(&xs)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced set-ups and passes.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: Workload,
    setup_tally: &Tally,
    setup_selfs: &[SelfTimes],
    traced: &[SelfTimes],
    untraced_times: &Times,
    traced_times: &Times,
    plan_calib_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let pass = |key: &str| median_of(traced, key);
    // Shares divide medians by the median traced pass.
    let traced_cpu = stats::median(&traced_times.cpu);
    m.insert(
        "server.builds",
        setup_tally.get("server.builds").copied().unwrap_or(0.0),
    );
    m.insert("server.new_s", median_of(setup_selfs, "server.new"));
    let (calib_runs, calib_s) = match w {
        Workload::ServeCont => (
            setup_tally.get("calib.runs").copied().unwrap_or(0.0),
            median_of(setup_selfs, "calib.get_or_calibrate"),
        ),
        Workload::PlanLattice => (pass("calib.runs"), plan_calib_s),
        Workload::OfflineGrid => (0.0, 0.0),
    };
    m.insert("calib.runs", calib_runs);
    m.insert("calib.s", calib_s);
    m.insert("calib.share", ratio(calib_s, traced_cpu));
    m.insert("traffic.draw_s", pass("traffic.take"));
    let engine_s = match w {
        Workload::PlanLattice => pass("planner.confirm_s"),
        _ => pass("online.run_cluster_mix_cached"),
    };
    let events = pass("simcore.events");
    m.insert("online.engine_s", engine_s);
    m.insert("simcore.events", events);
    m.insert("simcore.ns_per_event", ratio(engine_s * 1e9, events));
    m.insert(
        "online.events_per_request",
        ratio(events, pass("online.offered")),
    );
    for key in ["online.served", "online.rejected", "online.expired"] {
        m.insert(key, pass(key));
    }
    for key in [
        "planner.candidates",
        "planner.probes",
        "planner.pruned",
        "planner.confirmations",
        "planner.confirm_s",
    ] {
        m.insert(key, pass(key));
    }
    m.insert(
        "planner.prune_ratio",
        ratio(
            pass("planner.pruned"),
            pass("planner.probes") + pass("planner.pruned"),
        ),
    );
    let plan_s = pass("planner.plan");
    m.insert(
        "planner.probe_s",
        if plan_s > 0.0 {
            plan_s - pass("planner.confirm_s") - plan_calib_s
        } else {
            0.0
        },
    );
    let run_s = pass("exec.server_run");
    m.insert("exec.runs", pass("exec.runs"));
    m.insert("exec.steps", pass("exec.steps"));
    m.insert("exec.run_s", run_s);
    m.insert("exec.steps_per_s", ratio(pass("exec.steps"), run_s));
    m.insert("autoplace.evaluated", pass("autoplace.evaluated"));
    m.insert("autoplace.pruned", pass("autoplace.pruned"));
    m.insert(
        "autoplace.prune_ratio",
        ratio(
            pass("autoplace.pruned"),
            pass("autoplace.evaluated") + pass("autoplace.pruned"),
        ),
    );
    m.insert("autoplace.s", pass("autoplace.search"));
    m.insert("projection.table_iv_s", pass("projection.table_iv"));
    m.insert(
        "bench.trace_overhead_x",
        ratio(
            stats::upper_decile(&traced_times.cpu),
            stats::upper_decile(&untraced_times.cpu),
        ),
    );
    m.insert("bench.self_share", ratio(pass("pass"), traced_cpu));
}

fn timed(args: &Args) -> Result<String, String> {
    if simaudit::enabled() {
        return Err("auditing is on; measured passes must run unaudited".to_owned());
    }
    let w = args.workload;
    let mut ctx = Ctx::new();
    let mut metrics = BTreeMap::new();
    let mut info = BTreeMap::new();
    let (setup_cpus, _, setup_tally, mut state) = setups(w, &mut ctx, false)?;
    metrics.insert("setup_s", stats::upper_decile(&setup_cpus));

    let mut fingerprint = None;
    let (untraced, traced_times, traced, last) =
        passes(&mut state, args, &mut fingerprint, &mut ctx);
    let cpu_s = stats::upper_decile(&untraced.cpu);
    metrics.insert("cpu_s", cpu_s);
    metrics.insert(
        "peak_rss_mb",
        stats::peak_rss_mib().ok_or("cannot read VmHWM")?,
    );
    info.insert("cpu_s", describe(&untraced.cpu));
    info.insert("wall_s", describe(&untraced.wall));
    info.insert(
        "pass_cpu_s",
        untraced
            .cpu
            .iter()
            .map(|c| format!("{c:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    if let Some(fp) = fingerprint {
        info.insert("fingerprint", format!("{fp:016x}"));
    }
    if let Some(n) = setup_tally.get("grid.configs") {
        info.insert("grid_configs", n.to_string());
    }

    if args.trace {
        let (_, setup_selfs, _, _) = setups(w, &mut ctx, true)?;
        let plan_calib_s = if w == Workload::PlanLattice {
            workloads::plan_calibration_probe(&state, CALIB_PROBES, &mut ctx)
                * Scale::FULL.plans_per_pass as f64
        } else {
            0.0
        };
        per_layer(
            w,
            &setup_tally,
            &setup_selfs,
            &traced,
            &untraced,
            &traced_times,
            plan_calib_s,
            &mut metrics,
        );
        info.insert(
            "traced_pass_cpu_s",
            format!(
                "layer self times {:.6} s + benchmark glue {:.6} s; traced pass {:.6} s, \
                 untraced pass {:.6} s (medians)",
                median_of(&traced, LAYERS_KEY),
                median_of(&traced, "pass"),
                stats::median(&traced_times.cpu),
                stats::median(&untraced.cpu),
            ),
        );
        if let Some(path) = &args.spans_out {
            std::fs::write(path, ctx.spans.to_json_lines())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    let fidelity = match last.fidelity {
        Some(f) => Some(f),
        None => workloads::fidelity_off_the_clock(&mut ctx),
    };
    let (t4, headline) = fidelity.ok_or("fidelity metrics could not be computed")?;
    metrics.insert("table4_dev_pct", t4);
    metrics.insert("headline_dev_pct", headline);
    Ok(result_line(args, &ctx, &metrics, &info))
}

fn aside(args: &Args) -> Result<String, String> {
    let mut ctx = Ctx::new();
    let mut tally = Tally::new();
    let mut state = workloads::setup(args.workload, &mut ctx, &mut tally)
        .ok_or_else(|| format!("set-up failed: {:?}", ctx.failures()))?;
    let mut metrics = BTreeMap::new();
    let traced =
        workloads::program_traced(&mut state, args.seed, Scale::FULL, TRACE_ROUNDS, &mut ctx);
    metrics.insert("trace.overhead_x", traced.overhead_x);
    metrics.insert("trace.spans", traced.spans);
    metrics.insert("trace.export_s", traced.export_s);
    metrics.insert("trace.validate_s", traced.validate_s);

    // Auditing cannot be switched off again, so it comes last.
    simaudit::force_enable();
    ctx.audited = true;
    let mut cpus = Vec::with_capacity(AUDIT_PASSES);
    let mut fingerprint = None;
    for _ in 0..AUDIT_PASSES {
        let clock = Clock::start();
        let out = workloads::pass(&mut state, args.seed, Scale::FULL, &mut ctx);
        cpus.push(clock.cpu_s());
        match fingerprint {
            None => fingerprint = Some(out.fingerprint),
            Some(fp) => ctx.check(fp == out.fingerprint, || {
                "audited fingerprint changed between passes".to_owned()
            }),
        }
    }
    metrics.insert(AUDITED_CPU_KEY, stats::upper_decile(&cpus));
    Ok(result_line(args, &ctx, &metrics, &BTreeMap::new()))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: debug builds always audit; build with --release");
        return ExitCode::FAILURE;
    }
    let result = parse_args().and_then(|args| match args.phase {
        Phase::Timed => timed(&args),
        Phase::Aside => aside(&args),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
