//! `mine_planted`: one op is one full `pipeline::mine_with` run with the
//! default options (two step-5 workers) on a year of daily ticks of five
//! symbols with Example-1 occurrences planted after most IBM rises. The
//! problem is the paper's Example 2: the root is IBM-rise, X3 is pinned
//! to IBM-fall, X1 and X2 range over every type in the stream. The window
//! cycles through 10 such workloads, each generated from its own seed,
//! and the end-to-end metrics come from each workload's fastest repeat
//! (`measure::Best`).

use std::hint::black_box;
use std::time::Duration;

use tgm_bench::workloads::{daily_stock_workload, PlantedWorkload};
use tgm_core::examples::figure_1a;
use tgm_granularity::Calendar;
use tgm_mining::pipeline::{mine_with, PipelineOptions, PipelineStats};
use tgm_mining::{naive, DiscoveryProblem, Solution};
use tgm_obs::ObsScope;

use crate::measure::{
    metric, overhead_pct, print_table, setup_metric, time_setups, Best, Op, Outcome, SameOutput,
    Stamp, Timed, Window,
};
use crate::Args;

/// Workloads the window cycles through.
const INPUTS: usize = 10;
/// Set-ups timed before the window, and again after it.
const SETUPS: usize = 4;

pub fn run(args: &Args) -> Outcome {
    let workloads: Vec<PlantedWorkload> = (0..INPUTS as u64)
        .map(|k| {
            let seed = args.seed.wrapping_mul(INPUTS as u64).wrapping_add(k);
            daily_stock_workload(365, &["SUN", "DEC", "AAPL"], 0.85, seed)
        })
        .collect();
    let opts = PipelineOptions::default();
    // Set-up builds each workload's structure over one fresh calendar, so
    // it pays for granularity compilation and cold caches, then mines each
    // workload once to warm up.
    let mut setup = || {
        let cal = Calendar::standard();
        let problems: Vec<DiscoveryProblem> = workloads
            .iter()
            .map(|w| {
                let (structure, vars) = figure_1a(&cal);
                DiscoveryProblem::new(structure, 0.6, w.types.ibm_rise)
                    .with_candidates(vars.x3, [w.types.ibm_fall])
            })
            .collect();
        for (problem, w) in problems.iter().zip(&workloads) {
            black_box(mine_with(problem, &w.sequence, &opts));
        }
        problems
    };
    let mut setup_times = Vec::new();
    let problems = time_setups(SETUPS, &mut setup_times, &mut setup);

    let mut outputs: Vec<SameOutput<Vec<Solution>>> =
        (0..INPUTS).map(|_| SameOutput::new()).collect();
    let mut best = Best::new(INPUTS);
    let mut next = 0usize;
    let mut window =
        |len: Duration, outputs: &mut [SameOutput<Vec<Solution>>]| -> (Timed, Vec<PipelineStats>) {
            let mut ops = Vec::new();
            let mut stats = Vec::new();
            let win = Window::open(len);
            while !win.expired() {
                let k = next % INPUTS;
                next += 1;
                let stamp = Stamp::now();
                let (mut solutions, s) = mine_with(&problems[k], &workloads[k].sequence, &opts);
                ops.push(Op::ended(stamp.wall, 1));
                best.record(k, stamp, 1);
                sort(&mut solutions);
                outputs[k].record(solutions);
                stats.push(s);
            }
            let (wall_s, cpu_s) = win.close();
            let timed = Timed {
                wall_s,
                cpu_s,
                attempted: ops.len() as u64,
                failed: 0,
                ops,
            };
            (timed, stats)
        };

    let mut metrics;
    let (attempted, failed);
    if args.trace {
        let (untraced, _) = window(args.share(0.5), &mut outputs);
        tgm_obs::set_enabled(true);
        let scope = ObsScope::new();
        let (traced, stats) = {
            let _g = scope.enter();
            window(args.share(0.5), &mut outputs)
        };
        tgm_obs::set_enabled(false);
        metrics = layers(&scope, &traced, &stats, overhead_pct(&untraced, &traced));
        attempted = untraced.attempted + traced.attempted;
        failed = 0;
    } else {
        let (timed, _) = window(args.window(), &mut outputs);
        println!("window: {:.4} runs/s", timed.throughput());
        metrics = best.end_to_end();
        attempted = timed.attempted;
        failed = timed.failed;
        time_setups(SETUPS, &mut setup_times, &mut setup);
        metrics.push(setup_metric(&setup_times));
    }

    // Oracle: the §5 naive miner, which scans every candidate assignment
    // with no screening, must find exactly the same solutions on every
    // workload. Its sweep is split over worker threads to save time.
    let naive_opts = naive::NaiveOptions {
        parallel_sweep: true,
        ..Default::default()
    };
    let mut correct = true;
    for ((problem, w), out) in problems.iter().zip(&workloads).zip(&outputs) {
        let (mut expected, _) = naive::mine_with(problem, &w.sequence, &naive_opts);
        sort(&mut expected);
        correct &= out.differing == 0 && out.first() == Some(&expected);
    }
    if !correct {
        println!("mine_planted: pipeline solutions differ from naive::mine");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn sort(solutions: &mut [Solution]) {
    solutions.sort_by(|a, b| a.assignment.cmp(&b.assignment));
}

fn layers(
    scope: &ObsScope,
    traced: &Timed,
    stats: &[PipelineStats],
    overhead: f64,
) -> Vec<crate::measure::Metric> {
    let snap = scope.snapshot();
    let span_ms = |name: &str| snap.spans.get(name).map_or(0.0, |s| s.total_ms());
    let runs = traced.attempted.max(1) as f64;
    let wall_ms = traced.wall_s * 1e3;
    let step1 = span_ms("pipeline.step1.consistency");
    let columns = span_ms("events.tick_columns.build");
    let step2 = span_ms("pipeline.step2.sequence_reduction");
    let step5 = span_ms("pipeline.step5.scan");
    // Step 4's optional pair and chain screens run after the step 3-4
    // span closes, under spans of their own.
    let step3_4 = span_ms("pipeline.step3_4.screening")
        + span_ms("pipeline.step4.pair_screening")
        + span_ms("pipeline.step4.chain_screening");
    let busy = span_ms("tag.multi.run");
    let workers = stats
        .iter()
        .map(|s| s.step5_workers)
        .max()
        .unwrap_or(1)
        .max(1);
    let named = [
        ("mining.step1", step1),
        ("events.columns.build", columns),
        ("mining.step2", step2),
        ("mining.step3_4", step3_4),
        ("mining.step5", step5),
    ];
    print_table("mine_planted", "run", traced.attempted, wall_ms, &named);
    println!(
        "  inside step 5: tag.multi.run busy {:.3} ms across {} workers",
        busy, workers
    );
    let covered: f64 = named.iter().map(|(_, ms)| ms).sum();
    let sum = |f: fn(&PipelineStats) -> f64| stats.iter().map(f).sum::<f64>();
    let candidates = sum(|s| s.candidates_scanned as f64);
    vec![
        metric("mining.step1_ms", step1 / runs, "ms"),
        metric("mining.step2_ms", step2 / runs, "ms"),
        metric("mining.step3_4_ms", step3_4 / runs, "ms"),
        metric("mining.step5_ms", step5 / runs, "ms"),
        metric("events.columns.build_ms", columns / runs, "ms"),
        metric("tag.multi.busy_ms", busy / runs, "ms"),
        metric(
            "mining.step5_efficiency",
            busy / (step5 * workers as f64),
            "ratio",
        ),
        metric("mining.candidates_scanned", candidates / runs, "count"),
        metric(
            "mining.tag_runs",
            sum(|s| s.tag_runs as f64) / runs,
            "count",
        ),
        metric(
            "mining.solutions_per_candidate",
            sum(|s| s.solutions as f64) / candidates,
            "ratio",
        ),
        metric(
            "mining.refs_kept_ratio",
            sum(|s| s.refs_kept as f64) / sum(|s| s.refs_total as f64),
            "ratio",
        ),
        metric(
            "mine_planted.unattributed_ms",
            (wall_ms - covered) / runs,
            "ms",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ]
}
