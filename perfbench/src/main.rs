//! The tgm end-to-end benchmark.
//!
//! ```text
//! tgm-perfbench <workload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process. It generates the workload's inputs
//! from the seed, times the program's set-up, drives a closed loop for
//! `--seconds`, and checks every output against an oracle computed
//! outside the timed window. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` splits the time between an untraced and a traced window
//! and reports per-layer metrics with an attribution table. Layers are
//! timed from outside, around calls into their public functions, plus
//! the spans and counters the program already emits into an `ObsScope`.
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.

mod check_structures;
mod inputs;
mod measure;
mod mine_planted;
mod serve_match;
mod stream_replay;

use std::time::Duration;

use measure::Outcome;

/// Parsed command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The whole measuring time.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A share of the measuring time, for traced runs that split it.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

const USAGE: &str =
    "usage: tgm-perfbench <serve_match|stream_replay|mine_planted|check_structures> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let workload = argv.first().ok_or("missing workload")?.clone();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
    };
    Ok((
        workload,
        Args {
            seed,
            seconds,
            trace,
        },
    ))
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(
                m.value.is_finite(),
                "metric {} is not finite: {}",
                m.name,
                m.value
            );
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    );
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "serve_match" => serve_match::run(&args),
        "stream_replay" => stream_replay::run(&args),
        "mine_planted" => mine_planted::run(&args),
        "check_structures" => check_structures::run(&args),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    print_result(&outcome);
    if !outcome.correct {
        std::process::exit(1);
    }
}
