//! End-to-end benchmark of the paper's §6 scenarios, with a traced
//! per-layer split.
//!
//!     cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!         --workload client_read --seed 1 --seconds 20 --trace 0
//!
//! Every run does a fixed, seeded amount of work (`--seconds` windows of a
//! fixed number of sessions each) in one process on one thread; nothing
//! loops until a wall-clock deadline. Passes of a std-only reference
//! kernel are interleaved with the work to measure machine speed, and
//! every timing is reported at nominal machine speed (raw × nominal kernel
//! time ÷ the kernel time measured around the same stretch of work). The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `e2ebench/README.md` for the workload design.

mod reference;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Workload, WorkloadKind};

/// Back-to-back set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Reference-kernel passes per [`Recorder::reference`] call.
const REFERENCE_PASSES: usize = 2;

/// Fixed, exact counters of one run (all deterministic per seed).
pub type Counters = BTreeMap<&'static str, u64>;

/// A timed sample: raw nanoseconds and the segment it was taken in.
#[derive(Clone, Copy)]
pub struct Sample {
    pub ns: u64,
    pub seg: u32,
}

/// The stretch of work between two reference-kernel calls: one session,
/// or one batch of navigations. Its timings are scaled by the kernel
/// passes at its two ends, so a change of machine speed between segments
/// is tracked closely.
#[derive(Clone, Copy, Default)]
pub struct Segment {
    pub window: u32,
    /// Timed (busy) nanoseconds; output checks run outside them.
    pub busy_ns: u64,
    /// Interactions completed.
    pub ops: u64,
}

/// Everything one run records.
#[derive(Default)]
pub struct Recorder {
    pub window: u32,
    pub segments: Vec<Segment>,
    /// Mean reference-kernel time at each segment boundary, ns: segment
    /// `k` lies between boundaries `k` and `k + 1`.
    pub boundaries: Vec<f64>,
    /// Interaction latency, click to settled DOM.
    pub latency: Vec<Sample>,
    /// `Plugin::load_page`, once per session or navigation.
    pub page_load: Vec<Sample>,
    pub counters: Counters,
    /// Cluster ticks each pending write waited for its ack.
    pub ack_wait_ticks: Vec<u64>,
    /// First few failed checks, for the report.
    pub failures: Vec<String>,
    pub failed: u64,
    /// Session-end state sizes (bounded-state check).
    pub max_plugin_docs: u64,
    /// Governor-modelled service time of the traced requests, virtual ms.
    pub model_ms_traced: u64,
}

impl Recorder {
    /// Starts window `w`. The segment open at this point was opened by the
    /// previous window's last reference call and holds no work yet.
    pub fn start_window(&mut self, w: u32) {
        self.window = w;
        self.current().window = w;
    }

    /// The current segment's index.
    pub fn seg(&self) -> u32 {
        self.segments.len().saturating_sub(1) as u32
    }

    fn current(&mut self) -> &mut Segment {
        let window = self.window;
        if self.segments.is_empty() {
            self.segments.push(Segment {
                window,
                ..Segment::default()
            });
        }
        self.segments.last_mut().expect("a segment is open")
    }

    /// Runs `f`, charging its wall time to the current segment.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.current().busy_ns += ns;
        (r, ns)
    }

    pub fn latency(&mut self, ns: u64) {
        self.current().ops += 1;
        let seg = self.seg();
        self.latency.push(Sample { ns, seg });
    }

    /// Runs the reference kernel (untimed) and opens a new segment.
    /// Workloads call this after every session or batch of navigations.
    pub fn reference(&mut self) {
        let ns: u64 = (0..REFERENCE_PASSES).map(|_| reference::sample()).sum();
        self.boundaries.push(ns as f64 / REFERENCE_PASSES as f64);
        let window = self.window;
        self.segments.push(Segment {
            window,
            ..Segment::default()
        });
    }

    pub fn page_load(&mut self, ns: u64) {
        self.current();
        let seg = self.seg();
        self.page_load.push(Sample { ns, seg });
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    pub fn set(&mut self, name: &'static str, n: u64) {
        self.counters.insert(name, n);
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a failed output check (the interaction counts as failed).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Per-segment factors converting raw time into nominal time.
    fn segment_factors(&self) -> Vec<f64> {
        (0..self.segments.len())
            .map(|k| {
                let ends = [k, (k + 1).min(self.boundaries.len().saturating_sub(1))];
                let ns = ends.iter().filter_map(|&i| self.boundaries.get(i).copied());
                reference::factor(ns)
            })
            .collect()
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * pct / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// VmHWM of this process, MiB.
fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timings over the windows selected by `in_set`. `factor` maps a
/// segment to its raw → nominal factor (all 1.0 for raw timings).
struct Timings {
    throughput: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    page_load_p50_us: f64,
    samples: usize,
    page_loads: usize,
}

fn timings(rec: &Recorder, in_set: &dyn Fn(u32) -> bool, factor: &[f64]) -> Timings {
    let keep = |s: &&Sample| in_set(rec.segments[s.seg as usize].window);
    let us = |s: &Sample| s.ns as f64 * factor[s.seg as usize] / 1e3;
    let lat = sorted(rec.latency.iter().filter(keep).map(us).collect());
    let loads = sorted(rec.page_load.iter().filter(keep).map(us).collect());
    // p99 is the median over windows of each window's p99 (every window
    // has over 1,000 interactions): a burst of machine noise inside one
    // window moves the result by one rank at most
    let mut by_window: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for s in rec.latency.iter().filter(keep) {
        let w = rec.segments[s.seg as usize].window;
        by_window.entry(w).or_default().push(us(s));
    }
    let window_p99 = sorted(
        by_window
            .into_values()
            .map(|v| percentile(&sorted(v), 99.0))
            .collect(),
    );
    let (mut ops, mut busy_s) = (0u64, 0f64);
    for (seg, f) in rec.segments.iter().zip(factor) {
        if in_set(seg.window) {
            ops += seg.ops;
            busy_s += seg.busy_ns as f64 * f / 1e9;
        }
    }
    Timings {
        throughput: if busy_s > 0.0 {
            ops as f64 / busy_s
        } else {
            0.0
        },
        latency_p50_us: percentile(&lat, 50.0),
        latency_p99_us: percentile(&window_p99, 50.0),
        page_load_p50_us: percentile(&loads, 50.0),
        samples: lat.len(),
        page_loads: loads.len(),
    }
}

/// One metric line of the report: name, value, unit, sample count.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

pub fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload client_read|server_render|cart_write \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs window 0 of a fresh set-up and returns its exact counters.
fn replay_first_window(args: &Args) -> Result<Counters, String> {
    let mut wl = Workload::setup(args.workload, args.seed)?;
    let mut rec = Recorder::default();
    wl.baseline()?;
    wl.run_window(&mut rec)?;
    wl.snapshot_counters(&mut rec)?;
    Ok(rec.counters)
}

fn run(args: &Args) -> Result<bool, String> {
    let windows = args.seconds;
    reference::sample(); // warm-up

    // --- set-up: several back-to-back constructions, the last one kept
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut setup_ref = Vec::new();
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        drop(wl.take());
        let t = Instant::now();
        let built = Workload::setup(args.workload, args.seed)?;
        setup_ns.push(t.elapsed().as_nanos() as f64);
        wl = Some(built);
        setup_ref.extend((0..REFERENCE_PASSES).map(|_| reference::sample() as f64));
    }
    let mut wl = wl.ok_or("no set-up ran")?;
    let setup_s = sorted(setup_ns)[SETUP_REPS / 2] / 1e9;
    let setup_factor = reference::factor(setup_ref.into_iter());

    // --- the measured windows
    let mut rec = Recorder::default();
    wl.baseline()?;
    rec.reference();
    let mut after_first = Counters::new();
    for w in 0..windows {
        rec.start_window(w);
        // in a traced run, odd windows are traced and even ones are not:
        // the same drift hits both halves, so their ratio is the overhead
        trace::set_enabled(args.trace && w % 2 == 1);
        wl.run_window(&mut rec)?;
        trace::set_enabled(false);
        wl.snapshot_counters(&mut rec)?;
        if w == 0 {
            after_first = rec.counters.clone();
        }
    }
    wl.finish(&mut rec);
    drop(wl);

    // --- determinism self-check: a fresh set-up replaying window 0 must
    // reproduce every exact counter bit for bit
    let replayed = replay_first_window(args)?;
    let deterministic = replayed == after_first;
    if !deterministic {
        let diff: Vec<String> = after_first
            .iter()
            .filter(|(k, v)| replayed.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: {v} vs {:?}", replayed.get(*k)))
            .collect();
        rec.fail(format!(
            "exact counters differ on replay: {}",
            diff.join(", ")
        ));
    }

    let factors = rec.segment_factors();
    let ones = vec![1.0; factors.len()];
    let speed_factor = reference::factor(rec.boundaries.iter().copied());
    let interactions = rec.latency.len() as u64;
    let attempted = interactions.max(1);
    let correct = rec.failed == 0 && deterministic;

    println!(
        "workload {} seed {} windows {} trace {}",
        args.workload.name(),
        args.seed,
        windows,
        u8::from(args.trace)
    );
    let fingerprint: Vec<String> = rec
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("exact counters: {}", fingerprint.join(" "));
    println!(
        "determinism self-check (window 0 replayed): {}",
        if deterministic { "ok" } else { "MISMATCH" }
    );
    for f in &rec.failures {
        println!("FAILED CHECK: {f}");
    }

    let metrics: Vec<Metric> = if !args.trace {
        let all = timings(&rec, &|_| true, &factors);
        let raw = timings(&rec, &|_| true, &ones);
        println!(
            "raw (unscaled): throughput {:.3}/s p50 {:.3}us p99 {:.3}us page_load {:.3}us \
             setup {:.6}s; machine speed factor {:.4}",
            raw.throughput,
            raw.latency_p50_us,
            raw.latency_p99_us,
            raw.page_load_p50_us,
            setup_s,
            speed_factor
        );
        vec![
            m("throughput_ops_s", all.throughput, "1/s", all.samples),
            m("latency_p50_us", all.latency_p50_us, "us", all.samples),
            m("latency_p99_us", all.latency_p99_us, "us", all.samples),
            m(
                "page_load_p50_us",
                all.page_load_p50_us,
                "us",
                all.page_loads,
            ),
            m("setup_s", setup_s * setup_factor, "s", SETUP_REPS),
            m("rss_peak_mib", rss_peak_mib(), "MiB", 1),
            m(
                "origin_requests_per_op",
                ratio(rec.count("origin_requests"), interactions),
                "ratio",
                interactions as usize,
            ),
        ]
    } else {
        let untraced = |w: u32| w.is_multiple_of(2);
        let traced = |w: u32| w % 2 == 1;
        let scaled = timings(&rec, &untraced, &factors);
        let raw = timings(&rec, &untraced, &ones);
        let traced_t = timings(&rec, &traced, &factors);
        let spans = trace::take();
        let layers = trace::layer_times(&spans, &|seg| factors[seg as usize]);
        let path =
            std::path::PathBuf::from(format!("e2ebench/out/trace-{}.tsv", args.workload.name()));
        match trace::write_tsv(&path, &spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        let mut out = workloads::per_layer(&rec, &layers, spans.len());
        out.extend([
            m(
                "bench.machine.speed_factor",
                speed_factor,
                "ratio",
                rec.boundaries.len(),
            ),
            m(
                "bench.raw.throughput_ops_s",
                raw.throughput,
                "1/s",
                raw.samples,
            ),
            m(
                "bench.raw.latency_p50_us",
                raw.latency_p50_us,
                "us",
                raw.samples,
            ),
            m(
                "bench.raw.latency_p99_us",
                raw.latency_p99_us,
                "us",
                raw.samples,
            ),
            m(
                "bench.raw.page_load_p50_us",
                raw.page_load_p50_us,
                "us",
                raw.page_loads,
            ),
            m("bench.raw.setup_s", setup_s, "s", SETUP_REPS),
            m(
                "bench.trace.overhead_ratio",
                if scaled.throughput > 0.0 {
                    traced_t.throughput / scaled.throughput
                } else {
                    0.0
                },
                "ratio",
                traced_t.samples,
            ),
            m(
                "bench.error_rate",
                ratio(rec.failed, attempted),
                "ratio",
                attempted as usize,
            ),
            m("bench.latency_samples", scaled.samples as f64, "count", 1),
        ]);
        out
    };

    println!("{:<44} {:>16} {:<6} samples", "metric", "value", "unit");
    for x in &metrics {
        println!(
            "{:<44} {:>16.6} {:<6} {}",
            x.name, x.value, x.unit, x.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.failed,
        body.join(", ")
    );
    Ok(correct)
}
