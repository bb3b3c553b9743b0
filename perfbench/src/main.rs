//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_inproc|served_paced|routed_closed|admin_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's engine from generated inputs, measures it
//! for `--seconds`, checks the answers, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that reports per-layer
//! numbers, the client-time decomposition and the tracing overhead, and
//! writes its spans under `perfbench/out/`.

mod admin;
mod fixture;
mod gen;
mod inproc;
mod json;
mod layers;
mod load;
mod paced;
mod routed;
mod span;
mod stats;
mod wire;

use json::J;
use span::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::Ledger;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchInproc,
    ServedPaced,
    RoutedClosed,
    AdminMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "search_inproc" => Some(Workload::SearchInproc),
            "served_paced" => Some(Workload::ServedPaced),
            "routed_closed" => Some(Workload::RoutedClosed),
            "admin_mix" => Some(Workload::AdminMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SearchInproc => "search_inproc",
            Workload::ServedPaced => "served_paced",
            Workload::RoutedClosed => "routed_closed",
            Workload::AdminMix => "admin_mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            window: Duration::from_secs_f64(seconds.unwrap_or(15.0)),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Everything one run shares: its arguments, span store, and directories.
pub struct Ctx {
    pub args: Args,
    pub spans: Spans,
    /// Where the run writes its results and spans.
    pub out_dir: PathBuf,
    /// Scratch for snapshots; removed when the run ends.
    pub work_dir: PathBuf,
}

/// A percentile estimator over a latency sample set.
type Percentile = fn(&stats::Latencies, f64) -> Option<u64>;

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Measured and printed, but not end-to-end metrics of the benchmark:
    /// tails that the event loop's polling quantizes (see `query_latency`).
    ungated: Vec<(&'static str, f64, &'static str)>,
    pub ledger: Ledger,
    checks: Vec<(String, bool, String)>,
    notes: Vec<(String, J)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn note(&mut self, name: impl Into<String>, value: J) {
        self.notes.push((name.into(), value));
    }

    /// A percentile of `lat` in `unit_ns` units (see
    /// [`stats::Latencies::sliced_percentile_ns`]), or an error naming the
    /// metric when the run gathered too few samples to report it.
    pub fn percentile(
        &mut self,
        name: &'static str,
        lat: &stats::Latencies,
        p: f64,
        unit_ns: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        self.percentile_by(
            name,
            lat,
            p,
            unit_ns,
            unit,
            stats::Latencies::sliced_percentile_ns,
        )
    }

    fn percentile_by(
        &mut self,
        name: &'static str,
        lat: &stats::Latencies,
        p: f64,
        unit_ns: f64,
        unit: &'static str,
        pick: Percentile,
    ) -> Result<(), String> {
        let v = pick(lat, p).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than {} beyond p{p}",
                lat.len(),
                stats::MIN_BEYOND
            )
        })?;
        let value = if v == stats::Latencies::FAILED {
            f64::MAX
        } else {
            v as f64 / unit_ns
        };
        self.metric(name, value, unit);
        Ok(())
    }

    /// A percentile printed beside the metrics but not one of them, when
    /// the run has the samples for it.
    pub fn ungated_percentile(
        &mut self,
        name: &'static str,
        lat: &stats::Latencies,
        p: f64,
        unit_ns: f64,
        unit: &'static str,
    ) {
        self.ungated_by(
            name,
            lat,
            p,
            unit_ns,
            unit,
            stats::Latencies::sliced_percentile_ns,
        );
    }

    fn ungated_by(
        &mut self,
        name: &'static str,
        lat: &stats::Latencies,
        p: f64,
        unit_ns: f64,
        unit: &'static str,
        pick: Percentile,
    ) {
        if let Some(v) = pick(lat, p) {
            let value = if v == stats::Latencies::FAILED {
                f64::MAX
            } else {
                v as f64 / unit_ns
            };
            self.ungated.push((name, value, unit));
        }
    }

    /// The query latency of a workload: the median is an end-to-end
    /// metric; p90 and p99 are printed but not gated. Served replies are
    /// noticed by an event loop that sleeps 0.2, 0.4, 0.8 … 10 ms between
    /// idle sweeps, so served latencies cluster at the sweep instants and
    /// a tail percentile jumps between clusters as host load shifts a few
    /// percent of requests across a boundary.
    pub fn query_latency(&mut self, lat: &stats::Latencies) -> Result<(), String> {
        self.query_latency_by(lat, stats::Latencies::sliced_percentile_ns)
    }

    /// [`Outcome::query_latency`] over samples pooled from several
    /// processes, taken as one population rather than in time slices.
    pub fn query_latency_pooled(&mut self, lat: &stats::Latencies) -> Result<(), String> {
        self.query_latency_by(lat, stats::Latencies::percentile_ns)
    }

    fn query_latency_by(&mut self, lat: &stats::Latencies, pick: Percentile) -> Result<(), String> {
        self.percentile_by("query_p50_us", lat, 50.0, 1e3, "us", pick)?;
        self.ungated_by("query_p90_us", lat, 90.0, 1e3, "us", pick);
        self.ungated_by("query_p99_us", lat, 99.0, 1e3, "us", pick);
        Ok(())
    }
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_ascii_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a tool's output, or "unknown". Git is kept from looking
/// above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a result was measured in.
fn environment() -> J {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next().map(str::to_string))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(-1.0);
    J::obj([
        ("nproc", J::Int(fixture::nproc() as u64)),
        ("rustc", J::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            J::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            J::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("loadavg_1m", J::Num(load)),
    ])
}

fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match ctx.args.workload {
        Workload::SearchInproc => inproc::run(ctx, &mut out)?,
        Workload::ServedPaced => paced::run(ctx, &mut out)?,
        Workload::RoutedClosed => routed::run(ctx, &mut out)?,
        Workload::AdminMix => admin::run(ctx, &mut out)?,
    }
    if !ctx.args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(inproc::CHILD_VERB) {
        return match inproc::child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", inproc::CHILD_VERB);
                ExitCode::from(1)
            }
        };
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = environment();
    let run_name = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    // `cargo run` names the package directory; run directly, the binary
    // writes beside the checkout's `perfbench/` directory.
    let root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
        .join("out");
    let mut ctx = Ctx {
        out_dir: root.join(&run_name),
        work_dir: root.join(format!("{run_name}.work")),
        args,
        spans: Spans::new(),
    };
    for dir in [&ctx.out_dir, &ctx.work_dir] {
        let _ = std::fs::remove_dir_all(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    let result = run(&mut ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.args.workload.name());
            return ExitCode::from(1);
        }
    };

    let correct = out.checks.iter().all(|c| c.1) && !out.checks.is_empty();
    let as_json = |list: &[(&'static str, f64, &'static str)]| {
        J::obj(list.iter().map(|&(name, value, unit)| {
            (
                name,
                J::obj([("value", J::Num(value)), ("unit", J::str(unit))]),
            )
        }))
    };
    let metrics = as_json(&out.metrics);
    let checks = J::Arr(
        out.checks
            .iter()
            .map(|(name, passed, detail)| {
                J::obj([
                    ("check", J::str(name.as_str())),
                    ("passed", J::Bool(*passed)),
                    ("detail", J::str(detail.as_str())),
                ])
            })
            .collect(),
    );
    let details = J::Obj(
        [
            ("workload", J::str(ctx.args.workload.name())),
            ("seed", J::Int(ctx.args.seed)),
            ("seconds", J::Num(ctx.args.window.as_secs_f64())),
            ("trace", J::Bool(ctx.args.trace)),
            ("environment", env),
            ("ops", out.ledger.to_json()),
            ("checks", checks),
            ("metrics", metrics.clone()),
            ("ungated", as_json(&out.ungated)),
            ("wall_s", J::Num(started.elapsed().as_secs_f64())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(out.notes)
        .collect::<Vec<(String, J)>>(),
    );
    let _ = std::fs::write(ctx.out_dir.join("result.json"), format!("{details}\n"));
    if ctx.args.trace {
        let _ = ctx.spans.write(&ctx.out_dir.join("spans.tsv"));
    }
    for (name, passed, detail) in &out.checks {
        let verdict = if *passed { "ok" } else { "FAILED" };
        eprintln!("check {name}: {verdict} ({detail})");
    }
    println!("{details}");
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(out.ledger.attempted().max(1))),
            ("failed", J::Int(out.ledger.failed())),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
