//! The repository's benchmark: generates a workload from a seed, drives it
//! through the engine's public entry points, checks every answer, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a traced run (`--trace 1`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-online --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --print-spec
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod affinity;
mod drive;
mod layers;
mod replay;
mod run;
mod spec;
mod stats;
mod workload;

use std::process::ExitCode;
use workload::WorkloadId;

const USAGE: &str =
    "usage: perfbench --workload <table2-online|grid100-batch|stream-churn-online> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --print-spec";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    PrintSpec,
    Run {
        workload: WorkloadId,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--print-spec" {
            return Ok(Command::PrintSpec);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace,
    })
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Command::PrintSpec) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => {
            let result = run::run(workload, seed, seconds, trace);
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            parse(args(
                "--workload grid100-batch --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Command::Run {
                workload: WorkloadId::Grid100Batch,
                seed: 3,
                seconds: 10.0,
                trace: true,
            })
        );
        assert_eq!(parse(args("--print-spec")), Ok(Command::PrintSpec));
        for bad in [
            "--workload nope --seed 1",
            "--workload table2-online",
            "--workload table2-online --seed x",
            "--workload table2-online --seed 1 --trace 2",
            "--workload table2-online --seed 1 --seconds 0",
            "--seed",
        ] {
            assert!(parse(args(bad)).is_err(), "{bad}");
        }
    }
}
