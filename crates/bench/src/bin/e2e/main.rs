//! `e2e` — the repository's end-to-end + per-layer benchmark: a DKG in both
//! commitment modes, share renewal, threshold signing (single requests and
//! bursts), crash recovery, and a DKG over loopback UDP. `README.md` beside
//! this file has the workload and metric tables and how to read the output.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one run of one workload in this process; the last line of the
//!         output is the result as one JSON object (BENCHMARK.json's contract)
//! e2e run [--seed <n>] [--runs <k>] [--seconds <s>] [--trace]
//!         every workload, each run in a fresh child process; run i uses
//!         seed n + i; writes target/e2e/results-seed<n>.json
//! e2e list [--json]       every workload and metric (--json: BENCHMARK.json)
//! e2e check               asserts the counters pinned at --seed 7
//! e2e compare <a> <b>     two results files, row by row against the bounds
//! ```
//!
//! Everything is driven from one thread and configured by arguments only.

#![forbid(unsafe_code)]

mod checks;
mod compare;
mod json;
mod prices;
mod spec;
mod stats;
mod trace;
mod tracenet;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use spec::{END_TO_END, PER_LAYER, PINNED_SEED, RUN_SECONDS, WORKLOADS};
use workloads::Scale;

/// A run keeps going until it has at least this many operations, however
/// long one takes: each step of the longest operation (a 4 s full-mode DKG)
/// gets that many chances at a moment the host left alone.
const MIN_OPS: usize = 4;
/// Set-up is repeated until it has run `SETUP_REPEATS` times or used up
/// `SETUP_BUDGET`, whichever comes first, but `MIN_SETUPS` times at least:
/// half before the operations and half after them.
const SETUP_REPEATS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MIN_SETUPS: usize = 2;

fn main() -> ExitCode {
    // Large multi-exponentiations would otherwise fan out over every core;
    // the benchmark measures one thread.
    dkg_arith::parallel::sequential(|| {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match run_command(&args) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("e2e: {message}");
                ExitCode::from(2)
            }
        }
    })
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args);
    match flags.command.as_deref() {
        None => {
            let name = flags.value("workload")?.ok_or("missing --workload")?;
            let seed = flags.number("seed")?.unwrap_or(PINNED_SEED);
            let seconds = flags.number("seconds")?.unwrap_or(RUN_SECONDS);
            let outcome = match flags.value("trace")? {
                None | Some("0") => timed_run(name, seed, seconds, Scale::FULL)?,
                Some("1") => trace_run(name, seed, Scale::FULL, true)?.0,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            outcome.print();
            Ok(outcome.exit_code())
        }
        Some("list") => {
            if flags.switch("json") {
                print!("{}", spec::benchmark_json());
            } else {
                print!("{}", spec::list());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_all(&flags),
        Some("check") => check(),
        Some("compare") => {
            let [a, b] = flags.positional.as_slice() else {
                return Err("compare takes two results files".to_string());
            };
            let read = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (table, ok) = compare::compare(&read(a)?, &read(b)?);
            print!("{table}");
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(other) => Err(format!("unknown command {other}; see the top of main.rs")),
    }
}

/// `[command] [--key value | --switch]... [positional]...`
struct Flags {
    command: Option<String>,
    named: BTreeMap<String, Option<String>>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            command: None,
            named: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut rest = args.iter().peekable();
        if let Some(first) = rest.peek().filter(|a| !a.starts_with("--")) {
            flags.command = Some((*first).clone());
            rest.next();
        }
        while let Some(arg) = rest.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = rest.next_if(|next| !next.starts_with("--")).cloned();
                    flags.named.insert(key.to_string(), value);
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        flags
    }

    fn switch(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }

    fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.named.get(key) {
            None => Ok(None),
            Some(Some(value)) => Ok(Some(value)),
            Some(None) => Err(format!("--{key} needs a value")),
        }
    }

    fn number(&self, key: &str) -> Result<Option<u64>, String> {
        self.value(key)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} takes a whole number"))
            })
            .transpose()
    }
}

/// The result of one run of one workload.
struct Outcome {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, note)` in table order.
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's result object.
    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit, _)| {
                    let fields = [
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ];
                    (*name, Json::obj(fields))
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, then the result line.
    fn print(&self) {
        println!("workload {}", self.workload);
        for (name, value, unit, note) in &self.metrics {
            println!("  {name} = {value} {unit}{note}");
        }
        println!(
            "  operations: {} attempted, {} failed (fail ratio {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{}", self.json().encode());
    }

    fn exit_code(&self) -> ExitCode {
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn workload_spec(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// Where results and trace files go, relative to the working directory.
const OUTPUT_DIR: &str = "target/e2e";

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The set-ups of one run: each one's wall time in seconds, and their steps
/// folded.
#[derive(Default)]
struct Setups {
    walls: Vec<f64>,
    floor: stats::Floor,
}

impl Setups {
    fn one_more(
        &mut self,
        name: &str,
        seed: u64,
        scale: Scale,
    ) -> Result<Box<dyn workloads::Workload>, String> {
        let (workload, steps) = workloads::setup(name, seed, scale).ok_or("unknown workload")?;
        let steps: Vec<f64> = steps.iter().map(Duration::as_secs_f64).collect();
        if !self.floor.fold(&steps) {
            return Err(format!("{name}: two set-ups from seed {seed} differ"));
        }
        self.walls.push(steps.iter().sum());
        Ok(workload)
    }
}

/// `--trace 0`: sets the workload up, runs operations for `seconds`, and
/// reports every end-to-end metric. Tracing is nowhere in this path.
fn timed_run(name: &str, seed: u64, seconds: u64, scale: Scale) -> Result<Outcome, String> {
    let spec = workload_spec(name)?;
    let mut setups = Setups::default();
    let setting_up = Instant::now();
    let mut workload = setups.one_more(name, seed, scale)?;
    while setups.walls.len() < MIN_SETUPS
        || (setups.walls.len() < SETUP_REPEATS / 2 && setting_up.elapsed() < SETUP_BUDGET / 2)
    {
        drop(workload); // before the next is built: `peak_rss_mb` is one workload's
        workload = setups.one_more(name, seed, scale)?;
    }

    let (mut op_ms, mut bytes) = (Vec::new(), Vec::new());
    let mut floor = stats::Floor::default();
    let mut attempted = 0u64;
    let measuring = Instant::now();
    while measuring.elapsed() < Duration::from_secs(seconds) || op_ms.len() < MIN_OPS {
        if attempted >= 2 * MIN_OPS as u64 && op_ms.is_empty() {
            break; // nothing succeeds: stop rather than spin
        }
        match workload.op(attempted) {
            Ok(sample) => {
                let wall_ms = sample.wall.as_secs_f64() * 1e3;
                let mut steps: Vec<f64> = workload
                    .steps()
                    .iter()
                    .map(|step| step.as_secs_f64() * 1e3)
                    .collect();
                if steps.is_empty() {
                    steps.push(wall_ms);
                }
                if floor.fold(&steps) {
                    op_ms.push(wall_ms);
                    bytes.push(sample.bytes as f64);
                } else {
                    eprintln!(
                        "e2e: {name}: operation {attempted} took {} steps, the ones before {}",
                        steps.len(),
                        floor.steps()
                    );
                }
            }
            Err(message) => eprintln!("e2e: {name}: operation {attempted} failed: {message}"),
        }
        attempted += 1;
    }
    let mut failed = attempted - op_ms.len() as u64;
    if let Err(message) = workload.finish() {
        eprintln!("e2e: {name}: {message}");
        failed = failed.max(1);
    }
    if op_ms.is_empty() {
        return Ok(Outcome {
            workload: spec.name,
            attempted,
            failed,
            metrics: Vec::new(),
        });
    }

    // A set-up cheap enough to have run half its repetitions before the
    // operations runs the other half after them, a run's length later, so
    // that one slow spell of the host does not cover them all.
    let setting_up = Instant::now();
    while (SETUP_REPEATS / 2..SETUP_REPEATS).contains(&setups.walls.len())
        && setting_up.elapsed() < SETUP_BUDGET / 2
    {
        setups.one_more(name, seed, scale)?;
    }

    let fastest = op_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mut spread = format!(
        " (each of {} steps at its fastest over {} operations; whole operations: fastest {fastest}, median {}",
        floor.steps(),
        op_ms.len(),
        stats::median(&op_ms)
    );
    if let Some((percentile, value)) = stats::tail(&op_ms) {
        spread += &format!(", p{percentile:.1} {value}");
    }
    spread.push(')');
    let peak_rss = peak_rss_mb()?;
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, note) = match m.name {
                "op_ms" => (floor.total(), spread.clone()),
                "bytes_per_op" => (
                    stats::median(&bytes),
                    format!(" (median of {} operations)", bytes.len()),
                ),
                "peak_rss_mb" => (peak_rss, String::new()),
                "setup_s" => (
                    setups.floor.total(),
                    format!(
                        " (each of {} steps at its fastest over {} set-ups; whole set-ups: median {})",
                        setups.floor.steps(),
                        setups.walls.len(),
                        stats::median(&setups.walls)
                    ),
                ),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            (m.name, value, m.unit, note)
        })
        .collect();
    Ok(Outcome {
        workload: spec.name,
        attempted,
        failed,
        metrics,
    })
}

/// `--trace 1`: the workload's trace pass plus the price list; reports every
/// per-layer metric (0 where one does not apply) and, with `write`, leaves
/// the spans in `target/e2e/trace-<workload>.jsonl`.
fn trace_run(
    name: &str,
    seed: u64,
    scale: Scale,
    write: bool,
) -> Result<(Outcome, workloads::OpSample), String> {
    let spec = workload_spec(name)?;
    let dir = PathBuf::from(OUTPUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut workload, _) = workloads::setup(name, seed, scale).ok_or("unknown workload")?;
    let report = match workload.trace(spec.trace_ops, &dir) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("e2e: {name}: trace pass failed: {message}");
            let failed = Outcome {
                workload: spec.name,
                attempted: spec.trace_ops,
                failed: spec.trace_ops,
                metrics: Vec::new(),
            };
            return Ok((failed, workloads::OpSample::default()));
        }
    };
    let mut values = report.metrics;
    prices::measure(seed, &mut values);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    values.set("host.cores", cores as f64);
    if write {
        let path = dir.join(format!("trace-{name}.jsonl"));
        report
            .recorder
            .write_jsonl(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.0.remove(m.name).unwrap_or(0.0);
            (m.name, value, m.unit, String::new())
        })
        .collect();
    assert!(values.0.is_empty(), "not in spec.rs: {values:?}");
    let outcome = Outcome {
        workload: spec.name,
        attempted: spec.trace_ops,
        failed: 0,
        metrics,
    };
    Ok((outcome, report.totals))
}

/// One run of one workload in a child process: its result object, if it
/// exited with success and printed a correct one.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Option<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(&exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    Ok(result.filter(|r| output.status.success() && r.get("correct") == Some(&Json::Bool(true))))
}

/// The values of one metric table over the runs of one workload.
#[derive(Default)]
struct Series(BTreeMap<String, Vec<Json>>);

impl Series {
    fn record(&mut self, result: &Json) {
        let metrics = result.get("metrics").and_then(Json::as_object);
        for (name, metric) in metrics.unwrap_or(&[]) {
            let value = metric.get("value").cloned().unwrap_or(Json::Null);
            self.0.entry(name.clone()).or_default().push(value);
        }
    }

    /// Prints each metric's median over the runs, in table order.
    fn print<'a>(&self, table: impl Iterator<Item = (&'a str, &'a str)>) {
        for (name, unit) in table {
            let numbers: Vec<f64> = self.0.get(name).map_or(Vec::new(), |list| {
                list.iter().filter_map(Json::as_f64).collect()
            });
            if !numbers.is_empty() {
                println!(
                    "  {name} = {} {unit} (median of {} runs, spread {:.4})",
                    stats::median(&numbers),
                    numbers.len(),
                    stats::spread(&numbers)
                );
            }
        }
    }

    fn json(self) -> Json {
        Json::obj(self.0.into_iter().map(|(k, v)| (k, Json::Arr(v))))
    }
}

/// `e2e run`: every workload `--runs` times, each run in a fresh child
/// process (so `peak_rss_mb` is the workload's own), one trace pass per
/// workload with `--trace`, and one results file.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.number("seed")?.unwrap_or(PINNED_SEED);
    let runs = flags.number("runs")?.unwrap_or(1).max(1);
    let seconds = flags.number("seconds")?.unwrap_or(RUN_SECONDS);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut all_correct = true;
    let mut workloads_out = Vec::new();
    for workload in WORKLOADS {
        let (mut end_to_end, mut per_layer) = (Series::default(), Series::default());
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for run in 0..runs {
            match child_run(workload.name, seed + run, seconds, false)? {
                Some(result) => {
                    attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
                    failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
                    end_to_end.record(&result);
                }
                None => all_correct = false,
            }
        }
        if flags.switch("trace") {
            match child_run(workload.name, seed, seconds, true)? {
                Some(result) => per_layer.record(&result),
                None => all_correct = false,
            }
        }
        println!("{}", workload.name);
        end_to_end.print(END_TO_END.iter().map(|m| (m.name, m.unit)));
        per_layer.print(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        workloads_out.push((
            workload.name,
            Json::obj([
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                ("end_to_end", end_to_end.json()),
                ("per_layer", per_layer.json()),
            ]),
        ));
    }

    let file = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("cores", Json::Num(cores as f64)),
        ("workloads", Json::obj(workloads_out)),
    ]);
    let dir = PathBuf::from(OUTPUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("results-seed{seed}.json"));
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {} ({cores} cores)", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `e2e check`: the trace pass of every pinned workload at the pinned seed
/// must reproduce its datagram, byte and group-operation counts exactly.
fn check() -> Result<ExitCode, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        let Some(pinned) = workload.pinned else {
            continue;
        };
        let (outcome, totals) = trace_run(workload.name, PINNED_SEED, Scale::FULL, false)?;
        let measured = spec::Pinned {
            datagrams: totals.datagrams,
            bytes: totals.bytes,
            group_ops: totals.group_ops,
        };
        let matches = outcome.correct() && measured == pinned;
        ok &= matches;
        println!(
            "{}: {} ({} operations: {measured:?})",
            workload.name,
            if matches { "ok" } else { "MISMATCH" },
            workload.trace_ops
        );
        if !matches {
            println!("  pinned: {pinned:?}");
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_commands_values_and_switches() {
        let flags = Flags::parse(&args(&["run", "--seed", "9", "--trace", "--runs", "3"]));
        assert_eq!(flags.command.as_deref(), Some("run"));
        assert_eq!(flags.number("seed"), Ok(Some(9)));
        assert_eq!(flags.number("runs"), Ok(Some(3)));
        assert!(flags.switch("trace") && !flags.switch("json"));
        assert!(flags.value("trace").is_err());

        let flags = Flags::parse(&args(&[
            "--workload",
            "udp-dkg-n7",
            "--trace",
            "1",
            "--seed",
            "x",
        ]));
        assert_eq!(flags.command, None);
        assert_eq!(flags.value("workload"), Ok(Some("udp-dkg-n7")));
        assert_eq!(flags.value("trace"), Ok(Some("1")));
        assert!(flags.number("seed").is_err());

        let flags = Flags::parse(&args(&["compare", "a.json", "b.json"]));
        assert_eq!(flags.positional, ["a.json", "b.json"]);
    }

    /// Every workload at n = 4: a timed run of a few operations with its
    /// correctness gate, and a trace pass that must reproduce its traffic.
    #[test]
    fn every_workload_runs_and_traces_at_n4() {
        let scale = Scale { n: 4, udp_n: 4 };
        dkg_arith::parallel::sequential(|| {
            for workload in WORKLOADS {
                let timed = timed_run(workload.name, 11, 0, scale).unwrap();
                assert!(timed.correct(), "{}", workload.name);
                assert_eq!(timed.attempted, MIN_OPS as u64, "{}", workload.name);
                let names: Vec<&str> = timed.metrics.iter().map(|m| m.0).collect();
                let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
                assert_eq!(names, expected);
                for (name, value, ..) in &timed.metrics {
                    assert!(*value > 0.0, "{} {name} = {value}", workload.name);
                }
                let line = timed.json().encode();
                let parsed = Json::parse(&line).unwrap();
                let keys: Vec<&str> = parsed
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

                let (traced, totals) = trace_run(workload.name, 11, scale, false).unwrap();
                assert!(traced.correct(), "{}", workload.name);
                assert_eq!(traced.metrics.len(), PER_LAYER.len());
                assert!(
                    totals.datagrams > 0 && totals.bytes > 0,
                    "{}",
                    workload.name
                );
                let value = |name: &str| {
                    traced
                        .metrics
                        .iter()
                        .find(|m| m.0 == name)
                        .map(|m| m.1)
                        .unwrap()
                };
                assert!(value("trace.spans") > 0.0, "{}", workload.name);
                assert_eq!(value("core.leader_changes"), 0.0, "{}", workload.name);
                assert_eq!(value("engine.rejected"), 0.0, "{}", workload.name);
                assert_eq!(value("net.abandoned"), 0.0, "{}", workload.name);
            }
        });
    }
}
