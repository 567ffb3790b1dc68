//! Offline shim of the `criterion` surface this workspace uses.
//!
//! A real (if minimal) wall-clock micro-benchmark harness: each
//! `bench_function` target is warmed up briefly, then timed over
//! batches until a time budget is spent, and the per-iteration mean and
//! min are printed. No statistics beyond that — the workspace's bench
//! targets compile and run offline, producing comparable numbers
//! run-to-run on the same machine.
//!
//! Set `ADAPTDB_BENCH_QUICK=1` to shrink the budgets (used by CI to
//! smoke-run bench binaries without waiting on measurements).

use std::time::{Duration, Instant};

/// Top-level harness handle (mirrors `criterion::Criterion`).
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::var_os("ADAPTDB_BENCH_QUICK").is_some();
        Criterion {
            warmup: if quick { Duration::from_millis(5) } else { Duration::from_millis(150) },
            measure: if quick { Duration::from_millis(20) } else { Duration::from_millis(600) },
        }
    }
}

impl Criterion {
    /// Accept CLI args for compatibility (filters are not implemented).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Benchmark a single closure under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_target(id, self.warmup, self.measure, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup { criterion: self, name: name.to_string() }
    }
}

/// A named benchmark group (mirrors `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.label);
        run_target(&full, self.criterion.warmup, self.criterion.measure, &mut |b| f(b, input));
        self
    }

    /// Benchmark a closure with no input.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_target(&full, self.criterion.warmup, self.criterion.measure, &mut f);
        self
    }

    /// Close the group (printing nothing extra; for API compatibility).
    pub fn finish(&mut self) {}
}

/// A benchmark identifier: function name plus parameter.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Identifier `{name}/{parameter}`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: format!("{name}/{parameter}") }
    }
}

/// Passed to bench closures; `iter` does the timing.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    /// (total_duration, iterations) per measured batch.
    batches: Vec<(Duration, u64)>,
}

impl Bencher {
    /// Time `f` repeatedly, recording per-batch wall-clock durations.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start
            .elapsed()
            .checked_div(warm_iters.max(1) as u32)
            .unwrap_or(Duration::from_nanos(1));
        // Batch size targeting ~1ms per batch so Instant overhead vanishes.
        let batch: u64 = (Duration::from_millis(1).as_nanos() / per_iter.as_nanos().max(1))
            .clamp(1, 1_000_000) as u64;

        let budget_start = Instant::now();
        while budget_start.elapsed() < self.measure {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            self.batches.push((t.elapsed(), batch));
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] prepares at a time
/// (criterion's variant the workspace uses; the shim prepares one per
/// iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs too large to hold many of.
    LargeInput,
}

impl Bencher {
    /// Time `routine` on a fresh input from `setup` per iteration —
    /// for routines that consume or mutate their input. Neither
    /// `setup` nor dropping the routine's output is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Each phase runs until `budget` of wall time, set-up included,
        // has passed; the measured one keeps every routine's time.
        let mut run = |budget: Duration, mut batches: Option<&mut Vec<(Duration, u64)>>| {
            let start = Instant::now();
            while start.elapsed() < budget {
                let input = setup();
                let t = Instant::now();
                let out = std::hint::black_box(routine(input));
                let took = t.elapsed();
                drop(out);
                if let Some(b) = batches.as_deref_mut() {
                    b.push((took, 1));
                }
            }
        };
        run(self.warmup, None);
        run(self.measure, Some(&mut self.batches));
    }
}

fn run_target<F>(id: &str, warmup: Duration, measure: Duration, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher { warmup, measure, batches: Vec::new() };
    f(&mut b);
    if b.batches.is_empty() {
        println!("  {id:<40} (no measurements)");
        return;
    }
    let total: Duration = b.batches.iter().map(|(d, _)| *d).sum();
    let iters: u64 = b.batches.iter().map(|(_, n)| *n).sum();
    let mean_ns = total.as_nanos() as f64 / iters as f64;
    let min_ns = b
        .batches
        .iter()
        .map(|(d, n)| d.as_nanos() as f64 / *n as f64)
        .fold(f64::INFINITY, f64::min);
    println!("  {id:<40} mean {} min {} ({iters} iters)", fmt_ns(mean_ns), fmt_ns(min_ns));
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Opaque value barrier (re-export of the std hint).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declare a group function running each target (mirrors criterion's).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` running the given groups (mirrors criterion's).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_reports() {
        std::env::set_var("ADAPTDB_BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("noop", |b| b.iter(|| ran += 1));
        assert!(ran > 0, "closure must actually run");
    }

    #[test]
    fn groups_and_ids_compose() {
        std::env::set_var("ADAPTDB_BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| {
            b.iter(|| n * n);
        });
        g.finish();
    }
}
