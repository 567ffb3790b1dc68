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
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts { scale: 0.2, quick: false, seed: 42 }
    }
}

/// Parse `--scale X`, `--seed N` and `--quick` from argv, plus the
/// binary's own flags: `own` spells each as it appears in the usage
/// text, a flag that takes a value with its placeholder after a space
/// (`"--trace-out PATH"`). Returns the own flags seen, each followed by
/// its value if it takes one, in argv order. Any other argument, or a
/// malformed value, prints the usage text and exits with status 2.
pub fn parse_args(own: &[&str]) -> (BenchOpts, Vec<String>) {
    let mut argv = std::env::args();
    let program = argv.next().unwrap_or_else(|| "figure".to_string());
    parse_args_from(argv, own).unwrap_or_else(|msg| {
        let own: String = own.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("error: {msg}\nusage: {program} [--scale X] [--seed N] [--quick]{own}");
        std::process::exit(2);
    })
}

/// [`parse_args`] over an explicit argument list (program name
/// excluded), returning the usage error instead of exiting.
fn parse_args_from(
    args: impl IntoIterator<Item = String>,
    own: &[&str],
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
            _ => {
                let spec = own
                    .iter()
                    .find(|f| f.split(' ').next() == Some(a.as_str()))
                    .ok_or_else(|| format!("unknown argument {a:?}"))?;
                if let Some((_, what)) = spec.split_once(' ') {
                    let v = args.next().ok_or_else(|| format!("{a} needs a {what}"))?;
                    rest.extend([a, v]);
                } else {
                    rest.push(a);
                }
            }
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

    fn parse(args: &[&str], own: &[&str]) -> Result<(BenchOpts, Vec<String>), String> {
        parse_args_from(args.iter().map(|a| a.to_string()), own)
    }

    #[test]
    fn parses_shared_and_own_flags() {
        let own = ["--switching", "--trace-out PATH"];
        let (o, rest) = parse(
            &["--scale", "0.5", "--trace-out", "t.json", "--seed", "7", "--quick", "--switching"],
            &own,
        )
        .unwrap();
        assert_eq!((o.scale, o.seed, o.quick), (0.5, 7, true));
        assert_eq!(rest, ["--trace-out", "t.json", "--switching"]);
        assert_eq!(parse(&[], &own).unwrap().1, Vec::<String>::new());
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for (args, own) in [
            (&["--quik"][..], &[][..]),
            (&["--trace-out", "t.json"], &[]),
            (&["--quick", "--shifting"], &["--switching"]),
            (&["positional"], &["--switching"]),
            (&["--switching", "x"], &["--switching"]),
        ] {
            let err = parse(args, own).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.starts_with("unknown argument"), "{err}");
        }
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
            assert!(parse(args, &["--trace-out PATH"]).is_err(), "{args:?} must be rejected");
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
