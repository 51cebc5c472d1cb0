//! `spectre-benchmark`: the one instrument performance claims are made
//! with. See `benchmark/README.md` for what it measures and why.
//!
//! ```text
//! spectre-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of stdout is the result object with the
//!     end-to-end (--trace 0) or per-layer (--trace 1) metrics
//! spectre-benchmark --seed <n> [--runs <k>] [--workload <name>] [--seconds <s>]
//!                   [--out <file>] [--smoke]
//!     the suite: every workload (or one) on seeds n .. n+k-1, one line per
//!     metric, per-seed samples written to <file>
//! spectre-benchmark compare <a.json> <b.json>
//! spectre-benchmark manifest
//! ```

mod compare;
mod fixture;
mod json;
mod layers;
mod run;
mod span;
mod spec;
mod stats;
mod suite;

use std::process::ExitCode;

use spec::{Workload, END_TO_END, INSTANCES, PER_LAYER, RUN_SECONDS, WORKLOADS};
use suite::{Measured, Plan};

/// Stream length of every run of a `--smoke` suite.
const SMOKE_EVENTS: usize = 50_000;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    runs: u64,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        runs: 1,
        out: None,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(spec::workload(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--runs" => parsed.runs = number()?.max(1),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The child side of `suite::run_child`.
fn one_run(args: &[String]) -> Result<(), String> {
    let [workload, kind, seed, events] = args else {
        return Err("usage: --one-run <workload> <kind> <seed> <events>".into());
    };
    let w = spec::workload(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let kind = run::Kind::parse(kind).ok_or(format!("unknown run kind {kind:?}"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let events = events
        .parse()
        .map_err(|_| format!("bad event count {events:?}"))?;
    let report = run::execute(w, kind, seed, events)?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    report.write(&mut out).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| e.to_string())
}

/// One workload for the acceptance driver.
fn driver(w: &'static Workload, args: &Args, per_layer: bool) -> ExitCode {
    let plan = if per_layer {
        Plan::LAYERS
    } else {
        Plan::END_TO_END
    };
    let measured = suite::measure(w, args.seed, suite::scaled_events(w, args.seconds), plan);
    suite::print_lines(&measured);
    println!("{}", suite::result_line(&measured, per_layer));
    ExitCode::SUCCESS
}

/// Per-seed samples of every metric, as `compare` reads them.
fn result_file(args: &Args, rows: &[(&'static Workload, Vec<Measured>)]) -> String {
    let samples = |values: Vec<f64>| -> String {
        let items: Vec<String> = values.into_iter().map(json::num).collect();
        format!("[{}]", items.join(", "))
    };
    let mut workloads = Vec::new();
    for (w, measured) in rows {
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "      {}: {{\"unit\": {}, \"bound\": {}, \"samples\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    m.bound,
                    samples(measured.iter().map(|r| r.end_to_end[i].1).collect())
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "      {}: {{\"unit\": {}, \"samples\": {}}}",
                    json::quote(m.0),
                    json::quote(m.1),
                    samples(measured.iter().map(|r| r.per_layer[i].1).collect())
                )
            })
            .collect();
        let notes: Vec<String> = measured
            .iter()
            .flat_map(|r| r.notes.iter().chain(&r.remarks).map(|n| json::quote(n)))
            .collect();
        workloads.push(format!(
            "    {}: {{\n      \"attempted\": {}, \"failed\": {}, \"correct\": {},\n      \"notes\": [{}],\n      \"end_to_end\": {{\n  {}\n      }},\n      \"per_layer\": {{\n  {}\n      }}\n    }}",
            json::quote(w.name),
            measured.iter().map(|r| r.attempted).sum::<u64>(),
            measured.iter().map(|r| r.failed).sum::<u64>(),
            measured.iter().all(|r| r.correct),
            notes.join(", "),
            end_to_end.join(",\n  "),
            per_layer.join(",\n  "),
        ));
    }
    let seeds: Vec<String> = (args.seed..args.seed + args.runs)
        .map(|s| s.to_string())
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\n  \"schema\": 1,\n  \"seeds\": [{}],\n  \"seconds\": {},\n  \"smoke\": {},\n  \"nproc\": {nproc},\n  \"instances\": {INSTANCES},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        seeds.join(", "),
        args.seconds,
        args.smoke,
        workloads.join(",\n")
    )
}

fn suite(args: &Args) -> ExitCode {
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut rows = Vec::new();
    let mut clean = true;
    for w in selected {
        let mut measured = Vec::new();
        for seed in args.seed..args.seed + args.runs {
            let (events, plan) = if args.smoke {
                (SMOKE_EVENTS, Plan::SMOKE)
            } else {
                (suite::scaled_events(w, args.seconds), Plan::FULL)
            };
            let m = suite::measure(w, seed, events, plan);
            println!("# {} seed {seed}", w.name);
            suite::print_lines(&m);
            clean &= m.correct && m.failed == 0;
            measured.push(m);
        }
        rows.push((w, measured));
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, result_file(args, &rows)) {
            eprintln!("write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--one-run") => one_run(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        _ => parse_args(&args).and_then(|parsed| match (parsed.trace, parsed.workload) {
            (Some(per_layer), Some(w)) => Ok(driver(w, &parsed, per_layer)),
            (Some(_), None) => Err("--trace needs --workload".into()),
            (None, _) => Ok(suite(&parsed)),
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("spectre-benchmark: {message}");
        ExitCode::from(2)
    })
}
