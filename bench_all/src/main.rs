//! `bench_all`: the repository's one benchmark.
//!
//! Four fixed-seed TPC-C workloads; per workload an end-to-end run
//! (`--trace 0`) and a traced run (`--trace 1`) that charges the timed
//! section to layers. See `README.md` beside this package for every
//! name, and `BENCHMARK.json` at the repository root for the contract
//! the driver holds later changes to.
//!
//! ```text
//! bench_all [--workload <name>|all] [--seed N[,N…]] [--seconds S] [--trace [0|1]]
//!           [--aa N] [--quick] [--out F] [--compare F]
//! ```
//!
//! One run (`--workload <name> --trace 0|1`) happens in this process and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! Anything that needs several runs starts one child process per run,
//! so every run has its own address space and its own peak RSS.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bench_all::json::{self, Value};
use bench_all::metrics::{self, Metric};
use bench_all::spec::{self, Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use bench_all::workload::{self, Options};
use bench_all::{probes, stats};

const DEFAULT_SEED: u64 = 0xB7B1;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;
const DEFAULT_AA_RUNS: usize = 5;

struct Cli {
    /// `None` is every workload.
    workload: Option<&'static Workload>,
    /// One or more; A/A takes exactly one.
    seeds: Vec<u64>,
    seconds: f64,
    /// `None` is both runs.
    trace: Option<bool>,
    aa: Option<usize>,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seeds: vec![DEFAULT_SEED],
        seconds: DEFAULT_SECONDS,
        trace: None,
        aa: None,
        quick: false,
        out: None,
        compare: None,
    };
    let mut i = 0;
    // The value after a flag, if the next argument is not a flag.
    let value = |i: &mut usize| -> Option<&str> {
        let next = args.get(*i + 1).filter(|a| !a.starts_with("--"))?;
        *i += 1;
        Some(next.as_str())
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i).ok_or("--workload needs a name")?;
                cli.workload = match name {
                    "all" => None,
                    name => Some(
                        spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => {
                cli.seeds = value(&mut i)
                    .and_then(|list| list.split(',').map(parse_u64).collect())
                    .ok_or("--seed needs a whole number, or several with commas between")?;
            }
            "--seconds" => {
                cli.seconds = value(&mut i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                cli.trace = Some(match value(&mut i) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--aa" => {
                cli.aa = Some(match value(&mut i) {
                    None => DEFAULT_AA_RUNS,
                    Some(n) => n
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (2..=100).contains(n))
                        .ok_or("--aa takes a run count from 2 to 100")?,
                });
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i).ok_or("--out needs a path")?)),
            "--compare" => {
                cli.compare = Some(PathBuf::from(
                    value(&mut i).ok_or("--compare needs a path")?,
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// What one run reports.
#[derive(Clone, Debug)]
struct RunResult {
    workload: &'static str,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, samples)`.
    metrics: Vec<(String, f64, String, u64)>,
}

fn metrics_json(metrics: &[(String, f64, String, u64)], with_samples: bool) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, n)| {
            let samples = if with_samples {
                format!(", \"n\": {n}")
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json::string(name),
                json::num(*value),
                json::string(unit),
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

impl RunResult {
    /// The contract's result line: exactly these four keys.
    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics, false)
        )
    }

    fn from_result_line(
        workload: &'static str,
        seed: u64,
        trace: bool,
        line: &str,
    ) -> Result<RunResult, String> {
        let v = json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k}"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string(), 0)),
                    _ => Err(format!("metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload,
            seed,
            trace,
            correct: field("correct")? == &Value::Bool(true),
            attempted: field("attempted")?
                .as_f64()
                .ok_or("attempted is not a number")? as u64,
            failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Do one run in this process and print its human-readable lines.
fn run_here(w: &'static Workload, opts: &Options) -> Result<RunResult, String> {
    let data = workload::run(w, opts)?;
    let computed: Vec<Metric> = if opts.trace {
        let cfg = workload::engine_config(w);
        let probes = probes::run(&probes::ProbeEnv {
            cfg: &cfg,
            cache_share: (w.buffer_frames as f64 / data.loaded_pages.max(1) as f64).min(1.0),
            shapes: &data.shapes,
            slice: Duration::from_millis(if opts.quick { 2 } else { 60 }),
        });
        metrics::per_layer(&data, &probes?)?
    } else {
        metrics::end_to_end(&data)?
    };
    for line in &data.failures.0 {
        eprintln!("FAILED {}: {line}", w.name);
    }
    let failed = data.engine_aborts + data.failures.count();
    println!(
        "# {} seed={} trace={} txns={} committed={} user_rollbacks={} verified={} flush_policy={}",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        data.attempted,
        data.committed,
        data.user_aborts,
        data.verified,
        if w.durable_commits {
            "both-logs-at-every-commit"
        } else {
            "at-pack-and-before-crash"
        },
    );
    for m in &computed {
        println!(
            "{} {} {} {} n={}",
            w.name,
            m.name,
            json::num(m.value),
            m.unit,
            m.samples
        );
    }
    Ok(RunResult {
        workload: w.name,
        seed: opts.seed,
        trace: opts.trace,
        correct: failed == 0,
        attempted: data.attempted + data.verified,
        failed,
        metrics: computed
            .into_iter()
            .map(|m| (m.name.to_string(), m.value, m.unit.to_string(), m.samples))
            .collect(),
    })
}

/// Do one run in a child process: same binary, the contract's
/// arguments. The child's lines are relayed; its last line is parsed.
fn run_child(w: &'static Workload, cli: &Cli, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    let mut result = RunResult::from_result_line(w.name, seed, trace, last)
        .map_err(|e| format!("{} (child exit {})", e, out.status))?;
    for l in lines {
        println!("{l}");
        // `workload metric value unit n=<samples>`: the result line
        // carries no sample counts, these lines do.
        let fields: Vec<&str> = l.split(' ').collect();
        if let [_, name, _, _, n] = fields[..] {
            let samples = n.strip_prefix("n=").and_then(|n| n.parse().ok());
            if let (Some(m), Some(samples)) =
                (result.metrics.iter_mut().find(|m| m.0 == name), samples)
            {
                m.3 = samples;
            }
        }
    }
    if !out.status.success() && result.correct {
        return Err(format!("child exit {} with a correct result", out.status));
    }
    Ok(result)
}

fn bound_of(name: &str) -> Option<(f64, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.bound, m.better))
}

/// Per-layer metrics whose only source is an exact counter: they must
/// repeat bit for bit between runs of one seed. The phase times of a
/// `RecoveryReport` come from the same source and are times all the same.
fn is_exact_count(name: &str) -> bool {
    PER_LAYER.iter().any(|m| {
        m.name == name && m.src == [spec::Source::C] && !matches!(m.unit, "s" | "ms" | "us" | "ns")
    })
}

/// A/A: several runs of the same build; report each metric's spread
/// beside its bound. Returns whether every gate held.
fn aa(
    w: &'static Workload,
    cli: &Cli,
    runs: usize,
    all: &mut Vec<RunResult>,
) -> Result<bool, String> {
    let mut ok = true;
    for trace in [false, true] {
        if cli.trace.is_some_and(|t| t != trace) {
            continue;
        }
        let results = (0..runs)
            .map(|_| run_child(w, cli, cli.seeds[0], trace))
            .collect::<Result<Vec<_>, String>>()?;
        ok &= results.iter().all(|r| r.correct);
        println!(
            "# A/A {} trace={} runs={runs} seed={}",
            w.name,
            u8::from(trace),
            cli.seeds[0]
        );
        println!("# workload metric median q1 q3 spread bound verdict");
        for (name, ..) in &results[0].metrics {
            let values: Vec<f64> = results.iter().filter_map(|r| r.value(name)).collect();
            let [q1, q2, q3] = stats::quartiles(&values).ok_or("A/A needs two runs")?;
            let spread = stats::spread(&values);
            let verdict = match (bound_of(name), spread) {
                // setup_s is held to its median, not its spread.
                (Some(_), _) if name == "setup_s" => "reported",
                (Some((bound, _)), Some(s)) if s > bound => {
                    ok = false;
                    "SPREAD-OVER-BOUND"
                }
                (Some((bound, _)), Some(s)) if s > bound / 3.0 => "over-a-third",
                (Some(_), _) => "ok",
                (None, _) if is_exact_count(name) => {
                    if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
                        "exact"
                    } else {
                        ok = false;
                        "COUNT-DIFFERS"
                    }
                }
                (None, _) => "-",
            };
            println!(
                "{} {name} {} {} {} {} {} {verdict}",
                w.name,
                json::num(q2),
                json::num(q1),
                json::num(q3),
                spread.map_or("-".to_string(), |s| format!("{s:.4}")),
                bound_of(name).map_or("-".to_string(), |(b, _)| format!("{b}")),
            );
        }
        all.extend(results);
    }
    Ok(ok)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workload's configuration, so a ledger entry says
/// which knobs it was measured with.
fn config_digest(w: &Workload, opts: &Options) -> String {
    let text = format!(
        "{:?}|{:?}|{}|{w:?}",
        workload::engine_config(w),
        workload::load_spec(opts),
        workload::timed_groups(w, opts),
    );
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn ledger_json(cli: &Cli, runs: &[RunResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let opts = options(cli, r.seed, r.trace);
            let digest =
                spec::workload(r.workload).map_or(String::new(), |w| config_digest(w, &opts));
            format!(
                "    {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"config_digest\": {}, \
                 \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                json::string(r.workload),
                r.seed,
                u8::from(r.trace),
                json::string(&digest),
                r.correct,
                r.attempted,
                r.failed,
                metrics_json(&r.metrics, true),
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {{\"nproc\": {nproc}, \"profile\": {}, \"commit\": {}, \"seconds\": {}, \"quick\": {}}},\n  \"runs\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        json::string(profile),
        json::string(&git_commit()),
        json::num(cli.seconds),
        cli.quick,
        entries.join(",\n"),
    )
}

/// Print each metric's ratio to a ledger file, with its base, and flag
/// end-to-end moves beyond their bound. Returns whether none was
/// flagged.
fn compare(path: &PathBuf, runs: &[RunResult]) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let ledger = json::parse(&text)?;
    let base_runs = ledger
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("ledger has no runs")?;
    let mut ok = true;
    println!("# compare with {}", path.display());
    println!("# workload metric value base ratio bound verdict");
    for r in runs {
        let matches = |b: &&Value, with_seed: bool| {
            b.get("workload").and_then(Value::as_str) == Some(r.workload)
                && b.get("trace").and_then(Value::as_f64) == Some(f64::from(u8::from(r.trace)))
                && (!with_seed || b.get("seed").and_then(Value::as_f64) == Some(r.seed as f64))
        };
        let Some(base) = base_runs
            .iter()
            .find(|b| matches(b, true))
            .or_else(|| base_runs.iter().find(|b| matches(b, false)))
        else {
            println!("{} - - - - - no-baseline", r.workload);
            continue;
        };
        for (name, value, ..) in &r.metrics {
            let Some(b) = base
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
            else {
                println!(
                    "{} {name} {} - - - new-metric",
                    r.workload,
                    json::num(*value)
                );
                continue;
            };
            let ratio = if b == 0.0 { f64::NAN } else { value / b };
            let verdict = match bound_of(name) {
                Some((bound, better)) if ratio.is_finite() => {
                    let worse = match better {
                        Better::Lower => ratio - 1.0,
                        Better::Higher => 1.0 - ratio,
                    };
                    if worse > bound {
                        ok = false;
                        "WORSE-BEYOND-BOUND"
                    } else if worse < -bound {
                        "better-beyond-bound"
                    } else {
                        "within-bound"
                    }
                }
                _ => "-",
            };
            println!(
                "{} {name} {} {} {} {} {verdict}",
                r.workload,
                json::num(*value),
                json::num(b),
                if ratio.is_finite() {
                    format!("{ratio:.4}")
                } else {
                    "-".to_string()
                },
                bound_of(name).map_or("-".to_string(), |(b, _)| format!("{b}")),
            );
        }
    }
    Ok(ok)
}

fn options(cli: &Cli, seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: cli.seconds,
        trace,
        quick: cli.quick,
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let workloads: Vec<&'static Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if cli.aa.is_some() && cli.seeds.len() > 1 {
        return Err("--aa takes one seed".into());
    }
    // The contract's invocation: one workload, one run, here.
    if let (Some(w), Some(trace), None, &[seed]) = (cli.workload, cli.trace, cli.aa, &cli.seeds[..])
    {
        let result = run_here(w, &options(&cli, seed, trace))?;
        let mut ok = result.correct;
        if let Some(path) = &cli.out {
            std::fs::write(path, ledger_json(&cli, std::slice::from_ref(&result)))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        if let Some(path) = &cli.compare {
            ok &= compare(path, std::slice::from_ref(&result))?;
        }
        println!("{}", result.result_line());
        return Ok(ok);
    }
    let mut ok = true;
    let mut results = Vec::new();
    for w in workloads {
        match cli.aa {
            Some(runs) => ok &= aa(w, &cli, runs, &mut results)?,
            None => {
                for &seed in &cli.seeds {
                    for trace in [false, true] {
                        if cli.trace.is_none_or(|t| t == trace) {
                            let r = run_child(w, &cli, seed, trace)?;
                            ok &= r.correct;
                            results.push(r);
                        }
                    }
                }
            }
        }
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, ledger_json(&cli, &results))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &cli.compare {
        ok &= compare(path, &results)?;
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"runs\": {}, \"claim\": null}}",
        results.len()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_all: {e}");
            ExitCode::from(2)
        }
    }
}
