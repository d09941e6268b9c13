//! The repo benchmark: four workloads, each run in a child process of its
//! own, measured end to end (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fanin_open --seed 7 --seconds 20 --trace 0
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and which layer
//! should move which number; `BENCHMARK.json` at the repo root is the
//! driver's copy of the same tables.

#![deny(unsafe_code)]

mod alloc;
mod edge;
mod fanin;
mod fixtures;
mod json;
mod layers;
mod procfs;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod sys;
mod train;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::Rows;
use run::{timed_section, Workload};
use spans::Tracer;
use spec::{Driver, Load, Workload as Spec};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator::new();

/// Share of a traced run's `--seconds` spent on the untraced reference
/// section, the traced section and the layer probes.
const TRACED_REFERENCE_SHARE: f64 = 0.2;
const TRACED_SECTION_SHARE: f64 = 0.5;
const TRACED_PROBE_SHARE: f64 = 0.3;
/// Share of the probe time spent on the depth-1 serving probe.
const SERVING_PROBE_SHARE: f64 = 0.15;
/// Where traced runs leave their Chrome traces.
const TRACE_DIR: &str = "benchmark/out";
/// Rates of `--sweep`, as shares of `fanin_open`'s frozen rate: up to it,
/// then past the server's capacity, so the curve shows its knee.
const SWEEP_SHARES: [f64; 8] = [0.25, 0.50, 0.75, 1.00, 1.50, 2.00, 2.50, 3.00];
/// `--sweep` calls a rate held when at least this share of the requests
/// offered met the latency limit and no backlog was left.
const SWEEP_HOLDS_SHARE: f64 = 0.95;

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
    sweep: bool,
    /// Internal: this process runs one workload itself.
    child: bool,
    /// Internal (`--sweep`): open-loop rate instead of the frozen one.
    rps: Option<f64>,
}

const USAGE: &str = "usage: mtlsplit-benchmark (--workload <name> | --all | --sweep) \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <n>] [--quick]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        quick: false,
        sweep: false,
        child: false,
        rps: None,
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = spec::workload(name).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; the workloads are {names:?}")
                })?;
                args.workloads.push(known);
            }
            "--all" => args.workloads = spec::WORKLOADS.iter().collect(),
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = Some(number(value()?)? != 0.0),
            "--repeat" => args.repeat = (number(value()?)? as usize).max(1),
            "--quick" => args.quick = true,
            "--sweep" => args.sweep = true,
            "--child" => args.child = true,
            "--rps" => args.rps = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.sweep {
        args.workloads = vec![spec::workload("fanin_open").expect("fanin_open exists")];
    }
    if args.workloads.is_empty() {
        return Err(format!("name a workload\n{USAGE}"));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if args.child {
            run_child(&args)
        } else {
            run_parent(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("error: {problem}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- parent

fn command_output(program: &str, arguments: &[&str]) -> Option<String> {
    let output = Command::new(program).args(arguments).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
}

/// One line that says where and how the numbers below it were taken.
fn host_header(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let git = command_output("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "none".to_string());
    format!(
        "# host: cores={cores} isa={} rustc=\"{rustc}\" git={git} seed={} seconds={}{}",
        mtlsplit_tensor::Isa::detect_best().name(),
        args.seed,
        effective_seconds(args),
        if args.quick {
            " QUICK (smoke test: never quote these numbers)"
        } else {
            ""
        }
    )
}

/// `--quick` divides every timed part by ten.
fn quick_scale(args: &Args) -> f64 {
    if args.quick {
        0.1
    } else {
        1.0
    }
}

fn effective_seconds(args: &Args) -> f64 {
    args.seconds * quick_scale(args)
}

fn warmup_seconds(args: &Args) -> f64 {
    spec::WARMUP_SECONDS * quick_scale(args)
}

/// What a child printed: its parsed result line.
struct ChildResult {
    /// The child exited with code 0.
    clean_exit: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value = json::parse(line)?;
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| format!("no {key:?} in the result"))
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, metric)| {
            metric
                .get("value")
                .and_then(json::Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        clean_exit: false,
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

/// Runs one workload in a child process of its own, relays its output and
/// returns its result. The child is killed if it overruns its deadline.
fn run_workload(
    args: &Args,
    workload: &Spec,
    seed: u64,
    trace: bool,
    rps: Option<f64>,
) -> Result<ChildResult, String> {
    let result = run_workload_unchecked(args, workload, seed, trace, rps)?;
    if !result.clean_exit || !result.correct || result.failed > 0 {
        return Err(format!(
            "{}: correct={} failed={} of {} attempted",
            workload.name, result.correct, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// [`run_workload`] for `--sweep`, whose rates past the server's capacity
/// are meant to be shed: failed ops come back in the result, not as an error.
fn run_workload_unchecked(
    args: &Args,
    workload: &Spec,
    seed: u64,
    trace: bool,
    rps: Option<f64>,
) -> Result<ChildResult, String> {
    let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(program);
    command
        .args(["--child", "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    if let Some(rps) = rps {
        command.args(["--rps", &rps.to_string()]);
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: cannot start the child: {e}", workload.name))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let relay = std::thread::spawn(move || {
        let mut last = None;
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
            last = Some(line);
        }
        last
    });

    let allowed = Duration::from_secs_f64(
        effective_seconds(args) + warmup_seconds(args) + spec::CHILD_GRACE_SECONDS,
    );
    let started = Instant::now();
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("{}: wait: {e}", workload.name))?
        {
            Some(status) => break status,
            None if started.elapsed() > allowed => {
                // Killing closes the pipe, which ends the relay thread.
                let _ = child.kill();
                let _ = child.wait();
                let _ = relay.join();
                return Err(format!(
                    "{} hung: no result within {:.0} s; the child was killed",
                    workload.name,
                    allowed.as_secs_f64()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let last = relay
        .join()
        .map_err(|_| "the relay thread panicked".to_string())?;
    let line = last.ok_or_else(|| format!("{} printed no result ({status})", workload.name))?;
    let mut result = parse_result_line(&line)
        .map_err(|e| format!("{} failed ({status}): no result line: {e}", workload.name))?;
    result.clean_exit = status.success();
    Ok(result)
}

fn run_parent(args: &Args) -> Result<(), String> {
    println!("{}", host_header(args));
    if args.sweep {
        return run_sweep(args);
    }
    if args.repeat > 1 {
        return run_repeat(args);
    }
    let single = args.workloads.len() == 1 && args.trace.is_some();
    let mut summary = Vec::new();
    for workload in &args.workloads {
        for trace in [false, true] {
            if args.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let result = run_workload(args, workload, args.seed, trace, None)?;
            summary.push(format!(
                "{{\"workload\":\"{}\",\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{}}}",
                workload.name,
                u8::from(trace),
                result.correct,
                result.attempted,
                result.failed
            ));
        }
    }
    if !single {
        // With one workload and one mode the child's result line stays the
        // last line, as the driver expects; otherwise close with a summary.
        println!("{{\"runs\":[{}],\"claim\":null}}", summary.join(","));
    }
    Ok(())
}

/// `--repeat N`: the same workload on seeds `seed..seed+N`, then the median,
/// the quartiles and the spread of every end-to-end metric against its bound.
fn run_repeat(args: &Args) -> Result<(), String> {
    let trace = args.trace.unwrap_or(false);
    for workload in &args.workloads {
        let mut runs = Vec::new();
        for offset in 0..args.repeat as u64 {
            runs.push(run_workload(
                args,
                workload,
                args.seed + offset,
                trace,
                None,
            )?);
        }
        println!(
            "# {}: {} runs, seeds {}..{}",
            workload.name,
            runs.len(),
            args.seed,
            args.seed + args.repeat as u64
        );
        println!("  metric                 median           q1           q3   spread    bound");
        for metric in spec::END_TO_END.iter().filter(|_| !trace) {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(metric.name)).collect();
            let (q1, q3) = stats::quartiles(&values);
            let median = stats::median(&values);
            let spread = (q3 - q1) / median;
            // `setup_s` is held to the bound on its median only.
            let verdict = if metric.name == "setup_s" {
                ""
            } else if spread <= metric.bound / 3.0 {
                "steady"
            } else if spread <= metric.bound {
                "inside the bound, above a third of it"
            } else {
                "WIDER THAN THE BOUND"
            };
            println!(
                "  {:<16} {median:>12.5} {q1:>12.5} {q3:>12.5} {:>7.2}% {:>7.0}%  {verdict}",
                metric.name,
                spread * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok(())
}

/// `--sweep`: `fanin_open` replayed at shares of its frozen rate — the
/// throughput-versus-latency curve. Informational; not part of `--all`.
fn run_sweep(args: &Args) -> Result<(), String> {
    let workload = args.workloads[0];
    let mut table = Vec::new();
    for share in SWEEP_SHARES {
        let rps = spec::FANIN_OPEN_RPS * share;
        let result = run_workload_unchecked(args, workload, args.seed, false, Some(rps))?;
        if !result.correct {
            return Err(format!(
                "{} at {rps} req/s: a served output was wrong",
                workload.name
            ));
        }
        let metric = |name: &str| result.metric(name).unwrap_or(f64::NAN);
        table.push((
            rps,
            metric("ops_per_s"),
            metric("op_p50_ms"),
            metric("op_p90_ms"),
            metric("in_limit_share"),
            metric("loadgen.backlog_end"),
            result.failed,
        ));
    }
    println!(
        "# sweep of {} (limit {} ms)",
        workload.name, workload.limit_ms
    );
    println!(
        "      rps  ops_per_s    op_p50_ms    op_p90_ms  in_limit_share  backlog_end   failed"
    );
    for (rps, served, p50, p90, share, backlog, failed) in &table {
        println!(
            "  {rps:>7.0} {served:>10.0} {p50:>12.4} {p90:>12.4} {share:>15.4} {backlog:>12.0} {failed:>8}"
        );
    }
    let held = table
        .iter()
        .filter(|(_, _, _, _, share, backlog, _)| *share >= SWEEP_HOLDS_SHARE && *backlog == 0.0)
        .map(|(rps, ..)| *rps)
        .fold(None, |best: Option<f64>, rps| {
            Some(best.map_or(rps, |b| b.max(rps)))
        });
    match held {
        Some(rps) => println!(
            "# highest rate that held in_limit_share >= {SWEEP_HOLDS_SHARE} with no backlog: {rps:.0} req/s"
        ),
        None => println!("# no swept rate held in_limit_share >= {SWEEP_HOLDS_SHARE} with no backlog"),
    }
    Ok(())
}

// ----------------------------------------------------------------- child

fn set_up(
    workload: &Spec,
    seed: u64,
    rps: Option<f64>,
    traced: bool,
) -> Result<Box<dyn Workload>, String> {
    Ok(match (workload.driver, rps) {
        (Driver::Edge, _) => Box::new(edge::EdgeDeep::setup(seed, traced)?),
        (Driver::Fanin(Load::Open { .. }), Some(rps)) => {
            Box::new(fanin::FaninLoad::setup(seed, Load::Open { rps })?)
        }
        (Driver::Fanin(load), _) => Box::new(fanin::FaninLoad::setup(seed, load)?),
        (Driver::Train, _) => Box::new(train::TrainStep::setup(seed)?),
    })
}

/// Runs the warm-up, which must already be clean.
fn warm_up(workload: &mut dyn Workload, spec: &Spec, seconds: f64) -> Result<(), String> {
    let section = timed_section(
        workload,
        Duration::from_secs_f64(seconds),
        spec.limit_ms,
        &mut Tracer::new(false),
    )?;
    match section.problem() {
        Some(problem) => Err(format!("during warm-up: {problem}")),
        None => Ok(()),
    }
}

fn run_child(args: &Args) -> Result<(), String> {
    let workload = args.workloads[0];
    fixtures::pin_this_thread();
    let outcome = if args.trace.unwrap_or(false) {
        traced_run(args, workload)
    } else {
        untraced_run(args, workload)
    };
    outcome.map_err(|problem| format!("{}: {problem}", workload.name))
}

/// `--trace 0`: set-up (several times, for `setup_s`), warm-up, one timed
/// section with no tracing, the end-to-end metrics.
fn untraced_run(args: &Args, spec: &Spec) -> Result<(), String> {
    let repeats = if args.quick { 1 } else { spec::SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..repeats {
        if let Some(previous) = workload.take() {
            previous.stop();
        }
        let start = Instant::now();
        workload = Some(set_up(spec, args.seed, args.rps, false)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    warm_up(workload.as_mut(), spec, warmup_seconds(args))?;
    let section = timed_section(
        workload.as_mut(),
        Duration::from_secs_f64(effective_seconds(args)),
        spec.limit_ms,
        &mut Tracer::new(false),
    )?;
    let verdict = workload.verdict();
    workload.stop();
    let mut rows = Rows::default();
    rows.extend(section.end_to_end()?);
    rows.set("setup_s", stats::median(&setups));
    rows.set("peak_rss_mb", procfs::peak_rss_mb()?);
    let mut names = report::end_to_end_names();
    if args.rps.is_some() {
        let recorder = &section.recorder;
        let offered = recorder.attempted + recorder.backlog_end;
        rows.set("loadgen.offered_rps", offered as f64 / section.elapsed_s);
        rows.set("loadgen.backlog_end", recorder.backlog_end as f64);
        names.extend([
            ("loadgen.offered_rps", "1/s"),
            ("loadgen.backlog_end", "count"),
        ]);
    }

    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# {} seed={} untraced: {} ops in {:.2} s, limit {} ms",
        spec.name, args.seed, section.recorder.completed, section.elapsed_s, spec.limit_ms
    );
    report::print_table(&names, &rows);
    finish(spec, &section, verdict, &names, &rows)
}

/// `--trace 1`: an untraced reference section, the traced section, then the
/// layer probes; the per-layer metrics.
fn traced_run(args: &Args, spec: &Spec) -> Result<(), String> {
    let seconds = effective_seconds(args);
    let part = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut workload = set_up(spec, args.seed, args.rps, true)?;
    warm_up(workload.as_mut(), spec, warmup_seconds(args))?;
    let reference = timed_section(
        workload.as_mut(),
        part(TRACED_REFERENCE_SHARE),
        spec.limit_ms,
        &mut Tracer::new(false),
    )?;
    if let Some(problem) = reference.problem() {
        return Err(format!("untraced reference section: {problem}"));
    }
    let mut tracer = Tracer::new(true);
    let section = timed_section(
        workload.as_mut(),
        part(TRACED_SECTION_SHARE),
        spec.limit_ms,
        &mut tracer,
    )?;
    let verdict = workload.verdict();
    let final_loss = workload.final_loss();
    workload.stop();

    // Relative to the working directory, which is the repo root for every
    // documented command: the run writes nowhere outside its checkout.
    let trace_path = format!("{TRACE_DIR}/{}.trace.json", spec.name);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&trace_path, tracer.chrome_trace_json()))
        .map_err(|e| format!("{trace_path}: {e}"))?;

    // Every traced run probes every layer on the same fixtures, and makes
    // one depth-1 pass over the fan-in deployment: the rows a workload
    // cannot produce itself (a server's phases on a workload with no
    // server) are that unloaded baseline, so every row is measured in
    // every run.
    let probe_time = part(TRACED_PROBE_SHARE);
    let mut probe_load = fanin::FaninLoad::setup(args.seed, Load::ClosedWindow { in_flight: 1 })?;
    let mut probe_tracer = Tracer::new(true);
    let serving = timed_section(
        &mut probe_load,
        probe_time.mul_f64(SERVING_PROBE_SHARE),
        spec.limit_ms,
        &mut probe_tracer,
    )?;
    if let Some(problem) = serving.problem() {
        return Err(format!("serving probe: {problem}"));
    }
    let layer_rows = layers::probe(
        args.seed,
        probe_time.mul_f64(1.0 - SERVING_PROBE_SHARE),
        &probe_load,
    )?;
    Box::new(probe_load).stop();

    let mut rows = report::workload_rows(&serving, &probe_tracer, None);
    rows.extend(layer_rows);
    let reference_p50 = reference.across_windows(spec::Better::Lower, |w| w.p50_ms);
    rows.extend(report::workload_rows(&section, &tracer, reference_p50));
    if let Some(loss) = final_loss {
        rows.set("core.final_loss", loss);
    }

    let names = report::per_layer_names();
    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# {} seed={} traced: {} ops in {:.2} s ({} spans, trace in {trace_path})",
        spec.name,
        args.seed,
        section.recorder.completed,
        section.elapsed_s,
        tracer.closed_total()
    );
    report::print_self_times(&tracer);
    report::print_table(&names, &rows);
    finish(spec, &section, verdict, &names, &rows)
}

/// Prints the result line, then turns any correctness problem into the
/// process's failure.
fn finish(
    spec: &Spec,
    section: &run::Section,
    verdict: Result<(), String>,
    names: &[(&'static str, &'static str)],
    rows: &Rows,
) -> Result<(), String> {
    let recorder = &section.recorder;
    let correct = recorder.incorrect == 0 && verdict.is_ok();
    println!(
        "# {}: attempted {}, completed {}, failed {}, wrong {}",
        spec.name, recorder.attempted, recorder.completed, recorder.failed, recorder.incorrect
    );
    println!(
        "{}",
        report::result_line(correct, recorder.attempted, recorder.failed, names, rows)?
    );
    verdict?;
    match section.problem() {
        Some(problem) => Err(problem),
        None => Ok(()),
    }
}
