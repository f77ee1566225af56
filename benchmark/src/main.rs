//! The repository's benchmark: three workloads, each in its own process.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload farm|streams|serve --seed N --seconds S --trace 0|1
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --session F1a|F1b|F2a|F2b
//! ```
//!
//! A run sets its workload up [`SETUPS`] times (reporting the median as
//! `setup_s`), measures for `--seconds`, checks every output against a
//! computation made apart from the program, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and the metrics. With
//! `--trace 0` those are the end-to-end metrics of the workload. With
//! `--trace 1` they are the per-layer metrics of every layer: each layer is
//! reached by one workload only, so a traced run runs all three workloads,
//! a third of `--seconds` each, and writes the spans to
//! `.bench_spans/<workload>-<seed>.jsonl`. `--session` replays one
//! known-fault farm session alone and prints its log. See README.md.

mod farm;
mod report;
mod serve;
mod streams;
mod trace;

use report::{median, RunResult};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; the median is reported, since one set-up per
/// run spreads too widely to hold a bound.
pub const SETUPS: usize = 3;

/// The workloads, in the order a traced run runs them.
const WORKLOADS: [&str; 3] = ["farm", "streams", "serve"];

/// One run's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Command {
    Run(RunConfig),
    Session(String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut session = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--session" => session = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = session {
        return Ok(Command::Session(name));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: farm, streams or serve"
        ));
    }
    Ok(Command::Run(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

/// Runs `setup` [`SETUPS`] times (once when traced, which reports no
/// set-up time) and keeps the last result; returns it with the median
/// set-up time. The first set-up is timed from `start`, the process's own
/// start, so it also covers everything before it.
pub fn timed_setup<T>(start: Instant, traced: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let setups = if traced { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for i in 0..setups {
        drop(kept.take());
        let t0 = if i == 0 { start } else { Instant::now() };
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), median(&times))
}

fn run_workload(
    workload: &str,
    cfg: &RunConfig,
    start: Instant,
    tracer: Option<&mut Tracer>,
) -> RunResult {
    match workload {
        "farm" => farm::run(cfg, start, tracer),
        "streams" => streams::run(cfg, start, tracer),
        _ => serve::run(cfg, start, tracer),
    }
}

/// The traced run: every workload for a third of `--seconds`, so that every
/// layer's metrics are measured whichever workload is named. `attempted`
/// and `failed` are the named workload's; a wrong output in any of the
/// three makes the run incorrect.
fn run_traced(cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let part = RunConfig {
        seconds: cfg.seconds / WORKLOADS.len() as f64,
        ..cfg.clone()
    };
    let mut merged = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for workload in WORKLOADS {
        let r = run_workload(workload, &part, Instant::now(), Some(&mut *tracer));
        merged.correct &= r.correct;
        if workload == cfg.workload {
            merged.attempted = r.attempted;
            merged.failed = r.failed;
        }
        merged.metrics.extend(r.metrics);
    }
    merged
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(Command::Run(cfg)) => cfg,
        Ok(Command::Session(name)) => {
            if let Err(e) = farm::replay_case(&name) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = if cfg.trace {
        let mut tracer = Tracer::new();
        let result = run_traced(&cfg, &mut tracer);
        let path = format!(".bench_spans/{}-{}.jsonl", cfg.workload, cfg.seed);
        if let Err(e) = tracer.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("warning: could not write {path}: {e}");
        }
        result
    } else {
        run_workload(&cfg.workload, &cfg, start, None)
    };
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let Ok(Command::Run(cfg)) = parse(&args("--workload farm --seed 3 --seconds 10 --trace 1"))
        else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            cfg,
            RunConfig {
                workload: "farm".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&args("--workload nope --seed 3 --seconds 1")).is_err());
        assert!(parse(&args("--workload farm --seed 3 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload farm --seconds 1")).is_err());
    }

    /// The metric names of one section of `BENCHMARK.json`, in order.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let body = &text[text
            .find(&format!("\"{section}\""))
            .expect("section exists")..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed name")].to_owned())
            .collect()
    }

    fn printed_names(r: &RunResult) -> Vec<String> {
        let mut names: Vec<String> = r.metrics.iter().map(|m| m.name.to_owned()).collect();
        names.sort();
        names
    }

    #[test]
    fn every_run_prints_every_manifest_metric() {
        let mut end_to_end = manifest_names("end_to_end");
        let mut per_layer = manifest_names("per_layer");
        end_to_end.sort();
        per_layer.sort();
        for workload in WORKLOADS {
            let cfg = RunConfig {
                workload: workload.into(),
                seed: 5,
                seconds: 0.05,
                trace: false,
            };
            let plain = run_workload(workload, &cfg, Instant::now(), None);
            assert!(plain.correct, "{workload}");
            assert_eq!(printed_names(&plain), end_to_end, "{workload}");
            assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{workload}");
            let traced = run_traced(
                &RunConfig {
                    trace: true,
                    ..cfg.clone()
                },
                &mut Tracer::new(),
            );
            assert!(traced.correct, "{workload}");
            assert_eq!(printed_names(&traced), per_layer, "{workload}");
            assert_eq!(
                (traced.attempted > 0, traced.failed * 9 == traced.attempted),
                (true, workload == "farm"),
                "{workload}: only the farm keeps failing sessions, one in nine"
            );
        }
    }
}
