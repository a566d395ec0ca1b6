//! Timing, resource and reporting helpers shared by every workload.

use std::time::{Duration, Instant};

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds, from `/proc/self/stat`. Linux reports it in USER_HZ ticks,
/// which its `/proc` ABI fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds at nanosecond resolution, for timing
/// single ops (`cpu_seconds` counts 10 ms ticks).
pub fn cpu_seconds_precise() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kb / 1024.0
}

/// Nearest-rank percentile of an ascending slice, `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Runs `setup` `reps` times, adds each wall time in seconds to `times`,
/// and returns the last set-up's product (earlier ones are dropped).
///
/// Workloads time some set-ups before the timed window and some after
/// it, so that `setup_s` samples the host at two moments half a minute
/// apart rather than during one spell of a fast or slow host.
pub fn time_setups<T>(reps: usize, times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous product before timing the next set-up, so
        // each one starts from the same state.
        drop(last.take());
        let t0 = Instant::now();
        let made = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    last.expect("at least one set-up")
}

/// `setup_s`: the median of a run's set-up times.
pub fn setup_metric(times: &[f64]) -> Metric {
    metric("setup_s", median(times), "s")
}

/// A timed window: wall clock and process CPU from its start.
pub struct Window {
    start: Instant,
    cpu0: f64,
    deadline: Instant,
}

impl Window {
    /// Opens a window that ends `length` from now.
    pub fn open(length: Duration) -> Self {
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        Window {
            start,
            cpu0,
            deadline: start + length,
        }
    }

    /// Whether the window's time is up.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The instant the window ends.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Closes the window: (wall seconds, process CPU seconds).
    pub fn close(self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu0)
    }
}

/// One successful op of a timed window.
#[derive(Clone, Copy)]
pub struct Op {
    pub latency_ms: f64,
    /// Units of work behind `throughput_per_s`: 1, or the events of a
    /// stream chunk.
    pub units: u64,
    /// When the op ended.
    pub end: Instant,
}

impl Op {
    /// An op of `units` that started at `t0` and ends now.
    pub fn ended(t0: Instant, units: u64) -> Op {
        let end = Instant::now();
        Op {
            latency_ms: (end - t0).as_secs_f64() * 1e3,
            units,
            end,
        }
    }
}

/// Length of the slices `sliced_percentile` splits a window into.
const SLICE: Duration = Duration::from_secs(1);

/// The nearest-rank `q` percentile of the latencies of the ops that ended
/// in each one-second slice of the window, averaged over the slices with
/// each weighted by its ops.
///
/// The host's speed switches between states that last from a fraction of
/// a second to minutes, and per-op latency has one peak per state. A
/// percentile of all ops jumps from one peak to the other when the share
/// of ops from the slow state crosses `1 - q`; averaging per-slice
/// percentiles moves in proportion to that share instead, as throughput
/// does.
pub fn sliced_percentile(ops: &[Op], q: f64) -> f64 {
    let Some(start) = ops.iter().map(|o| o.end).min() else {
        panic!("percentile of no samples");
    };
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for o in ops {
        let i = ((o.end - start).as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if slices.len() <= i {
            slices.resize_with(i + 1, Vec::new);
        }
        slices[i].push(o.latency_ms);
    }
    let weighted: f64 = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_by(f64::total_cmp);
            percentile(s, q) * s.len() as f64
        })
        .sum();
    weighted / ops.len() as f64
}

/// The fastest wall and CPU time seen for each input of a fixed set that a
/// loop runs over and over, one op at a time, in identical passes.
///
/// The host slows ops down in spells and never speeds one up, so the
/// fastest of an input's repeats is its cost with the least interference
/// from the host; taken per input over a few dozen repeats it is far
/// steadier between runs than any statistic of the whole window. It
/// leaves out a cost that an input pays on only some of its repeats, so
/// it suits loops whose passes repeat the same work.
pub struct Best {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    units: Vec<u64>,
    repeats: Vec<u32>,
}

/// Wall and process CPU clocks at the start of an op.
#[derive(Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        let cpu_s = cpu_seconds_precise();
        Stamp {
            wall: Instant::now(),
            cpu_s,
        }
    }
}

impl Best {
    /// Tracks `inputs` inputs, numbered from 0.
    pub fn new(inputs: usize) -> Self {
        Best {
            wall_ms: vec![f64::INFINITY; inputs],
            cpu_ms: vec![f64::INFINITY; inputs],
            units: vec![0; inputs],
            repeats: vec![0; inputs],
        }
    }

    /// Records one op on `input` of `units` that started at `since` and
    /// ends now.
    pub fn record(&mut self, input: usize, since: Stamp, units: u64) {
        let wall_ms = since.wall.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (cpu_seconds_precise() - since.cpu_s) * 1e3;
        self.wall_ms[input] = self.wall_ms[input].min(wall_ms);
        self.cpu_ms[input] = self.cpu_ms[input].min(cpu_ms);
        self.units[input] = units;
        self.repeats[input] += 1;
    }

    /// Inputs run at least once.
    fn seen(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.repeats.len()).filter(|&i| self.repeats[i] > 0)
    }

    /// The end-to-end metrics, all but `setup_s`, of one pass over the
    /// inputs with each at its fastest: throughput is the pass's units
    /// over the sum of the inputs' fastest wall times, the latency
    /// percentiles are taken over the inputs' fastest wall times, and
    /// CPU per op is the mean of the inputs' smallest CPU times.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let seen: Vec<usize> = self.seen().collect();
        assert!(!seen.is_empty(), "no op completed");
        let fewest = seen.iter().map(|&i| self.repeats[i]).min().unwrap_or(0);
        println!(
            "best of repeats: {} of {} inputs run, each {}+ times",
            seen.len(),
            self.repeats.len(),
            fewest
        );
        if fewest < 10 {
            println!("warning: an input ran fewer than ten times; its fastest time is loose");
        }
        let mut wall: Vec<f64> = seen.iter().map(|&i| self.wall_ms[i]).collect();
        let units: u64 = seen.iter().map(|&i| self.units[i]).sum();
        let cpu: f64 = seen.iter().map(|&i| self.cpu_ms[i]).sum();
        let pass_s = wall.iter().sum::<f64>() / 1e3;
        wall.sort_by(f64::total_cmp);
        vec![
            metric("throughput_per_s", units as f64 / pass_s, "1/s"),
            metric("latency_p50_ms", percentile(&wall, 0.50), "ms"),
            metric("latency_p90_ms", percentile(&wall, 0.90), "ms"),
            metric("cpu_ms_per_op", cpu / seen.len() as f64, "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }
}

/// What one timed window produced.
pub struct Timed {
    /// Wall seconds of the window.
    pub wall_s: f64,
    /// Process CPU seconds spent in the window.
    pub cpu_s: f64,
    /// Every op that completed successfully.
    pub ops: Vec<Op>,
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops that failed (non-ok response, interrupt, refused connection).
    pub failed: u64,
}

impl Timed {
    /// Completed units.
    pub fn units(&self) -> u64 {
        self.ops.iter().map(|o| o.units).sum()
    }

    /// Completed units per second.
    pub fn throughput(&self) -> f64 {
        self.units() as f64 / self.wall_s
    }

    /// Summed latency of the successful ops.
    pub fn busy_ms(&self) -> f64 {
        self.ops.iter().map(|o| o.latency_ms).sum()
    }
}

/// Compares each op's output with the first op's, keeping only that
/// first one, so memory does not grow with the length of the run. The
/// oracle then checks the kept output.
pub struct SameOutput<T> {
    first: Option<T>,
    /// Outputs that differed from the first.
    pub differing: u64,
}

impl<T: PartialEq> SameOutput<T> {
    pub fn new() -> Self {
        SameOutput {
            first: None,
            differing: 0,
        }
    }

    pub fn record(&mut self, output: T) {
        match &self.first {
            None => self.first = Some(output),
            Some(first) => self.differing += u64::from(*first != output),
        }
    }

    /// The first output, if any op completed.
    pub fn first(&self) -> Option<&T> {
        self.first.as_ref()
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of one untraced window, all but `setup_s`.
pub fn end_to_end(t: &Timed) -> Vec<Metric> {
    if t.ops.len() < 100 {
        println!(
            "warning: {} latency samples; p90 has fewer than ten samples beyond it",
            t.ops.len()
        );
    }
    vec![
        metric("throughput_per_s", t.throughput(), "1/s"),
        metric("latency_p50_ms", sliced_percentile(&t.ops, 0.50), "ms"),
        metric("latency_p90_ms", sliced_percentile(&t.ops, 0.90), "ms"),
        metric(
            "cpu_ms_per_op",
            1e3 * t.cpu_s / t.attempted.max(1) as f64,
            "ms",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Prints an attribution table: each layer's share of the covered wall
/// time, then the unattributed rest.
pub fn print_table(workload: &str, op: &str, ops: u64, wall_ms: f64, layers: &[(&str, f64)]) {
    println!("attribution: {workload} ({ops} {op}s, {wall_ms:.1} ms wall)");
    println!(
        "  {:<28} {:>12} {:>12} {:>8}",
        "layer", "total ms", "ms/op", "share"
    );
    let mut covered = 0.0;
    for &(name, ms) in layers {
        covered += ms;
        println!(
            "  {:<28} {:>12.3} {:>12.6} {:>7.2}%",
            name,
            ms,
            ms / ops.max(1) as f64,
            100.0 * ms / wall_ms
        );
    }
    let rest = wall_ms - covered;
    println!(
        "  {:<28} {:>12.3} {:>12.6} {:>7.2}%",
        "(unattributed)",
        rest,
        rest / ops.max(1) as f64,
        100.0 * rest / wall_ms
    );
    println!(
        "  named layers cover {:.2}% of wall time",
        100.0 * covered / wall_ms
    );
}

/// Share by which the traced window's throughput fell short of the
/// untraced one's, in percent.
pub fn overhead_pct(untraced: &Timed, traced: &Timed) -> f64 {
    100.0 * (untraced.throughput() - traced.throughput()) / untraced.throughput()
}
