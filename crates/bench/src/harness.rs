//! Shared harness utilities: option parsing, table printing, timing.

use std::time::Instant;

/// Options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Micro scale factor for generated data.
    pub scale: f64,
    /// Quick mode: smaller sweeps for smoke runs (`--quick`).
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Where to write a Chrome trace-event JSON of the run's span
    /// trees (`--trace-out PATH`). Implies tracing on in binaries that
    /// support it; `ADAPTDB_TRACE=1` also enables tracing, printed to
    /// a default path next to the figure's JSON.
    pub trace_out: Option<String>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts { scale: 0.2, quick: false, seed: 42, trace_out: None }
    }
}

const USAGE: &str = "[--scale X] [--seed N] [--quick] [--trace-out PATH]";

/// Parse `--scale X`, `--seed N`, `--quick`, `--trace-out PATH` from
/// argv; unknown flags are returned for figure-specific handling. A
/// malformed value prints a usage error and exits with status 2.
pub fn parse_args() -> (BenchOpts, Vec<String>) {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_else(|| "figure".to_string());
    parse_args_from(argv).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: {program} {USAGE}");
        std::process::exit(2);
    })
}

/// [`parse_args`] over an explicit argument list (program name
/// excluded), returning the usage error instead of exiting.
fn parse_args_from(
    args: impl IntoIterator<Item = String>,
) -> Result<(BenchOpts, Vec<String>), String> {
    let mut opts = BenchOpts::default();
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = flag_value(&mut args, "--scale")?;
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    return Err(format!("--scale needs a positive number, got {}", opts.scale));
                }
            }
            "--seed" => opts.seed = flag_value(&mut args, "--seed")?,
            "--quick" => opts.quick = true,
            "--trace-out" => {
                opts.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok((opts, rest))
}

/// The next argument, parsed as the number `flag` takes.
fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a number"))?;
    v.parse().map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> =
        headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", line.join("  "));
    }
}

/// Format seconds with 1 decimal.
pub fn secs(x: f64) -> String {
    format!("{x:.1}")
}

/// Wall-clock stopwatch for optimizer-runtime measurements (Fig. 17b).
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed milliseconds.
    pub fn ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = BenchOpts::default();
        assert!(o.scale > 0.0);
        assert!(!o.quick);
    }

    fn parse(args: &[&str]) -> Result<(BenchOpts, Vec<String>), String> {
        parse_args_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_flags_and_passes_unknown_ones_through() {
        let (o, rest) =
            parse(&["--scale", "0.5", "--seed", "7", "--quick", "--trace-out", "t.json", "--x"])
                .unwrap();
        assert_eq!((o.scale, o.seed, o.quick), (0.5, 7, true));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(rest, vec!["--x".to_string()]);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        for args in [
            &["--scale"][..],
            &["--scale", "abc"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "NaN"],
            &["--seed"],
            &["--seed", "-3"],
            &["--seed", "1.5"],
            &["--trace-out"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn secs_formats_one_decimal() {
        assert_eq!(secs(1.25), "1.2");
        assert_eq!(secs(10.0), "10.0");
    }

    #[test]
    fn stopwatch_measures_nonnegative() {
        let s = Stopwatch::start();
        assert!(s.ms() >= 0.0);
    }
}
