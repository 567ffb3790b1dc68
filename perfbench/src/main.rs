//! `perfbench` — the end-to-end and per-layer benchmark of the AdaptDB
//! reproduction.
//!
//! ```text
//! perfbench --workload <tpch_shift|point_lookup|ingest_skew> --seed <u64>
//!           --seconds <1..=600> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! The seed makes every input (rows, appends, queries); the engine only
//! ever sees those generated inputs. `--trace 0` measures the workload
//! untraced and prints its end-to-end metrics; `--trace 1` runs it once
//! untraced (the overhead baseline) and once with wall-clock spans
//! around each layer's public calls, and prints the per-layer metrics.
//! Informational `key: value` lines come first; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A broken self-check
//! (answers vs the reference, determinism) exits with status 1; a
//! malformed command line exits with status 2 and a usage message.

mod alloc;
mod common;
mod ingest_skew;
mod layers;
mod oracle;
mod point_lookup;
mod probe;
mod spans;
mod tpch_shift;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Outcome;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <tpch_shift|point_lookup|ingest_skew> \
--seed <u64> --seconds <1..=600> --trace <0|1> [--spans-out <path>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchShift,
    PointLookup,
    IngestSkew,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "tpch_shift" => Some(Workload::TpchShift),
            "point_lookup" => Some(Workload::PointLookup),
            "ingest_skew" => Some(Workload::IngestSkew),
            _ => None,
        }
    }
}

/// A checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed {v:?} is not a u64"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<u32>().ok().filter(|s| (1..=600).contains(s));
                seconds = Some(s.ok_or_else(|| format!("--seconds {v:?} is not in 1..=600"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                });
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn print_outcome(out: &Outcome) {
    for (k, v) in &out.details {
        println!("{k}: {v}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// A finite JSON number (JSON has no infinities or NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", common::FAILED_MS)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::TpchShift => tpch_shift::run(&args),
        Workload::PointLookup => point_lookup::run(&args),
        Workload::IngestSkew => ingest_skew::run(&args),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: workload failed: {e}");
            return ExitCode::from(1);
        }
    };
    if !out.broken.is_empty() {
        for b in &out.broken {
            eprintln!("perfbench: self-check failed: {b}");
        }
        return ExitCode::from(1);
    }
    print_outcome(&out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a =
            parse_args(&argv("--workload ingest_skew --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::IngestSkew);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_malformed_values_without_panicking() {
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload tpch_shift --seed -1 --seconds 10 --trace 0",
            "--workload tpch_shift --seed 1 --seconds 0 --trace 0",
            "--workload tpch_shift --seed 1 --seconds 10 --trace 2",
            "--workload tpch_shift --seed 1 --seconds 10",
            "--workload tpch_shift --seed 1 --seconds 10 --trace 0 --extra",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
