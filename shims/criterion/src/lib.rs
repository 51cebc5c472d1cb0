//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of the criterion API the SPECTRE benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — as a plain wall-clock harness: each
//! routine is warmed up once and then timed for `sample_size` samples, and
//! min/mean/median/max per iteration are printed. No statistics engine
//! beyond that, no HTML reports; enough to keep the bench targets
//! compiling, runnable and honest until the real crate can be pulled from
//! the registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLE_SIZE: usize = 100;

/// Entry point of a benchmark target, analogous to `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Times `routine` under `id` and prints a summary line.
    pub fn bench_function<F>(&mut self, id: &str, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(id, self.sample_size, routine);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
        }
    }
}

/// A named group of benchmarks sharing a sample-size override.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Times `routine` under `group/id` and prints a summary line.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&format!("{}/{}", self.name, id), self.sample_size, routine);
        self
    }

    /// Closes the group (no-op in the shim; kept for API parity).
    pub fn finish(self) {}
}

/// Timing handle passed to bench routines.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `sample_size` executions of `routine` (after one warm-up call).
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        black_box(routine());
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_bench<F>(id: &str, sample_size: usize, mut routine: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    routine(&mut bencher);
    let mut samples = bencher.samples;
    if samples.is_empty() {
        println!("{id:<40} (no samples)");
        return;
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    println!(
        "{id:<40} min {:>12?}  mean {:>12?}  median {:>12?}  max {:>12?}  ({} samples)",
        samples[0],
        mean,
        median,
        samples[samples.len() - 1],
        samples.len()
    );
}

/// Declares a function running the given bench targets, analogous to
/// `criterion::criterion_group!`. Supports both the positional form and the
/// `name = …; config = …; targets = …` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the `main` function of a benchmark target, analogous to
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
