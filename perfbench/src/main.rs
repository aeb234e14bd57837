//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `# key: value` header, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A failed
//! correctness check prints the reason on stderr and exits with 1,
//! without a result.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zendoo_perfbench::durable::child_cold_start;
use zendoo_perfbench::{host_cores, json_line, run, Budget, Options, Scale, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // A cold start in a process of its own (see `durable`).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = raw.as_slice() {
        if flag == "--cold-start" {
            return match child_cold_start(Path::new(dir)) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench --cold-start: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = host_cores();
    let options = Options {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        lanes: cores,
        scale: Scale::full(),
        data_dir: PathBuf::from(".bench_build")
            .join(format!("perfbench-data-{}", std::process::id())),
        exe,
    };
    println!("# workload: {}", args.workload);
    println!("# seed: {}", args.seed);
    println!("# seconds: {}", args.seconds);
    println!("# trace: {}", u8::from(args.trace));
    println!("# host_cores: {cores}");
    println!("# lanes: {}", options.lanes);
    println!(
        "# build_profile: {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let outcome = match run(&args.workload, &options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let listed: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    if names != listed || outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: {} emitted an incomplete metric set: {names:?}",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    if !args.trace && outcome.metrics.iter().any(|m| m.value <= 0.0) {
        eprintln!(
            "perfbench: {} measured a zero end-to-end metric",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    for (key, value) in &outcome.notes {
        println!("# {key}: {value}");
    }
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}
