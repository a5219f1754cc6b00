//! Offline micro-benchmark harness with a `criterion`-compatible surface.
//!
//! Implements the subset of criterion's API the workspace benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! `sample_size` / `bench_function` / `bench_with_input` / `finish`,
//! [`BenchmarkId`], [`Bencher::iter`], and the `criterion_group!` /
//! `criterion_main!` macros. Each benchmark is warmed up briefly, then
//! timed over enough iterations to fill a small measurement window;
//! mean and best iteration times are printed to stdout.
//!
//! Set `CRITERION_QUICK=1` to shrink the measurement window (useful in
//! CI where only "does it run" matters). Set `CRITERION_JSON=path` to
//! additionally write a machine-readable report (bench name → median /
//! best / mean ns) when the harness finishes — the input of the CI
//! perf-regression gate (`fis-bench`'s `perf_gate` binary).
//!
//! The first command-line argument that does not start with `-` is a
//! benchmark-name filter: only benchmarks whose full name (`group/name`)
//! contains it run, so `cargo bench -p fis-bench --bench stages --
//! model/load` times only the `model/load*` stages. Setup code outside
//! the timed closures still runs. A filtered `CRITERION_JSON` report
//! holds only the benchmarks that ran, so it is not a `perf_gate` input:
//! the gate fails any baselined stage missing from its report.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timer handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`, preventing the result from being
    /// optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn measurement_window() -> Duration {
    if std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1") {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(400)
    }
}

fn run_bench(name: &str, mut f: impl FnMut(&mut Bencher)) {
    // Calibration: grow the iteration count until one batch takes a
    // measurable slice of the window.
    let window = measurement_window();
    let mut iters = 1u64;
    let mut batch;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        batch = b.elapsed;
        if batch >= window / 20 || iters >= 1 << 24 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    // Measurement: repeat batches until the window is filled.
    let mut samples = vec![batch.as_secs_f64() / iters as f64];
    let started = Instant::now();
    while started.elapsed() < window && samples.len() < 50 {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let median = {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        sorted[sorted.len() / 2]
    };
    println!(
        "bench {name:<44} median {:>12}  best {:>12}  ({} samples x {iters} iters)",
        format_time(median),
        format_time(best),
        samples.len()
    );
    record_result(BenchResult {
        name: name.to_owned(),
        median_ns: median * 1e9,
        best_ns: best * 1e9,
        mean_ns: mean * 1e9,
        samples: samples.len(),
        iters,
    });
}

/// One finished benchmark, in nanoseconds per iteration.
struct BenchResult {
    name: String,
    median_ns: f64,
    best_ns: f64,
    mean_ns: f64,
    samples: usize,
    iters: u64,
}

fn results() -> &'static Mutex<Vec<BenchResult>> {
    static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());
    &RESULTS
}

fn record_result(result: BenchResult) {
    results()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(result);
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes the machine-readable report to the path in `CRITERION_JSON`,
/// if set. Called by [`criterion_main!`] after every group has run; a
/// no-op otherwise. Benches run in registration order, so the report is
/// deterministic up to the timings themselves.
pub fn write_json_report() {
    let Some(path) = std::env::var_os("CRITERION_JSON") else {
        return;
    };
    let results = results().lock().unwrap_or_else(|p| p.into_inner());
    let mode = if std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1") {
        "quick"
    } else {
        "full"
    };
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"schema\":\"fis-one/bench-report\",\"version\":1,\"mode\":\"{mode}\",\"stages\":{{"
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"median_ns\":{:.1},\"best_ns\":{:.1},\"mean_ns\":{:.1},\
             \"samples\":{},\"iters\":{}}}",
            json_escape(&r.name),
            r.median_ns,
            r.best_ns,
            r.mean_ns,
            r.samples,
            r.iters
        );
    }
    body.push_str("}}\n");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!(
            "criterion shim: could not write {}: {e}",
            std::path::Path::new(&path).display()
        );
    } else {
        println!(
            "criterion shim: wrote report to {}",
            std::path::Path::new(&path).display()
        );
    }
}

fn format_time(secs: f64) -> String {
    let mut s = String::new();
    if secs >= 1.0 {
        let _ = write!(s, "{secs:.3} s");
    } else if secs >= 1e-3 {
        let _ = write!(s, "{:.3} ms", secs * 1e3);
    } else if secs >= 1e-6 {
        let _ = write!(s, "{:.3} us", secs * 1e6);
    } else {
        let _ = write!(s, "{:.1} ns", secs * 1e9);
    }
    s
}

/// Identifier for parameterized benchmarks.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `function_name/parameter` display form.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            full: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Benchmark registry and runner.
#[derive(Default)]
pub struct Criterion {
    /// Only benchmarks whose full name contains this run (`None` = all).
    filter: Option<String>,
}

impl Criterion {
    /// Runs only the benchmarks whose full name contains `filter`.
    fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Takes the filter from the command line: the first argument after
    /// the program name that does not start with `-`, if any.
    pub fn configure_from_args(self) -> Self {
        match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Runs one named benchmark immediately, unless the filter skips it.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run(name, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }

    /// Runs `f` as benchmark `name` if the filter selects it.
    fn run(&self, name: &str, f: impl FnMut(&mut Bencher)) {
        if self
            .filter
            .as_deref()
            .is_none_or(|filter| name.contains(filter))
        {
            run_bench(name, f);
        }
    }
}

/// Group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark under this group's prefix.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.parent.run(&format!("{}/{}", self.name, name), f);
        self
    }

    /// Runs one parameterized benchmark with a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.parent
            .run(&format!("{}/{}", self.name, id.full), |b| f(b, input));
        self
    }

    /// Ends the group (no-op in the shim).
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a single runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given benchmark groups, each filtered by
/// the command line's benchmark-name filter (see the crate docs), then
/// flushing the optional `CRITERION_JSON` machine-readable report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_prints() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        c.bench_function("shim/self_test", |b| b.iter(|| (0..100u64).sum::<u64>()));
    }

    #[test]
    fn groups_and_ids_compose() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("grp");
        g.sample_size(10);
        let input = vec![1u64, 2, 3];
        g.bench_with_input(BenchmarkId::new("sum", input.len()), &input, |b, v| {
            b.iter(|| v.iter().sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn json_report_is_parseable_shape() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        c.bench_function("shim/json_probe", |b| {
            b.iter(|| (0..10u64).product::<u64>())
        });
        let path = std::env::temp_dir().join("criterion_shim_report_test.json");
        std::env::set_var("CRITERION_JSON", &path);
        write_json_report();
        std::env::remove_var("CRITERION_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\"schema\":\"fis-one/bench-report\""));
        assert!(text.contains("\"shim/json_probe\""));
        assert!(text.contains("\"median_ns\""));
    }

    #[test]
    fn filter_skips_benchmarks_whose_full_name_lacks_it() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default().with_filter("keep");
        let (mut kept, mut skipped) = (0u32, 0u32);
        c.bench_function("shim/keep_top", |b| {
            kept += 1;
            b.iter(|| 1u64)
        });
        c.bench_function("shim/drop_top", |_| skipped += 1);
        let mut g = c.benchmark_group("keep");
        // Matched through the group prefix alone.
        g.bench_function("any", |b| {
            kept += 1;
            b.iter(|| 2u64)
        });
        g.finish();
        let mut g = c.benchmark_group("grp");
        g.bench_with_input(BenchmarkId::new("keep", 3), &3u64, |b, n| {
            kept += 1;
            b.iter(|| *n)
        });
        g.bench_with_input(BenchmarkId::new("other", 3), &3u64, |_, _| skipped += 1);
        g.bench_function("other", |_| skipped += 1);
        g.finish();
        assert_eq!(skipped, 0, "a filtered-out closure ran");
        assert!(kept >= 3, "each selected benchmark runs at least once");
    }

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn format_time_units() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with("ms"));
        assert!(format_time(2e-6).ends_with("us"));
        assert!(format_time(2e-9).ends_with("ns"));
    }
}
