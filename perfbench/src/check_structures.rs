//! `check_structures`: one op is one `core::propagate::propagate` call on
//! a fixed corpus of 16–32-variable structures whose TCGs mix hour, day,
//! business-day, week and month. Every TCG is derived from a random
//! witness assignment (all times on business days in business hours, so
//! every granularity covers them), so every structure is consistent and
//! each call runs to its fixpoint. The window cycles through the corpus
//! in a fixed order, and the end-to-end metrics come from each
//! structure's fastest repeat (`measure::Best`).

use std::hint::black_box;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::propagate::propagate;
use tgm_core::{EventStructure, StructureBuilder, Tcg};
use tgm_granularity::{cache, periodic, weekday_from_days, Calendar, Granularity, Second, Weekday};

use crate::measure::{
    metric, overhead_pct, print_table, setup_metric, time_setups, Best, Metric, Op, Outcome, Stamp,
    Timed, Window,
};
use crate::Args;

/// Structures in the corpus: three of each size from 16 to 32 variables,
/// so every seed's corpus has the same size mix. One pass over the corpus
/// looks up about three quarters as many distinct conversions as the
/// 62.6k–67.9k that four of each size need, within the process-wide
/// conversion memo in `core::propagate` (65 536 entries, cleared all at
/// once when full). After the window's first pass every conversion is a
/// hit, so every later pass does the same work, whatever the seed or the
/// number of set-ups; set-up, over a fresh calendar, pays for the
/// conversions. With four of each size the memo held the corpus for some
/// seeds and not others (throughputs 1.8x apart); with eight it cleared
/// about twice per pass, and the window's speed swung with the host's far
/// more than that of a memo-resident corpus; with two, the median
/// structure differed enough between seeds to spread `latency_p50_ms` by
/// up to 0.21.
const CORPUS: usize = 51;
const GRANS: [&str; 5] = ["hour", "day", "business-day", "week", "month"];
const HOUR: i64 = 3_600;
const DAY: i64 = 86_400;

/// One generated structure: TCGs as `(from, to, granularity, lo, hi)`
/// plus the witness times they were derived from.
struct Spec {
    n: usize,
    tcgs: Vec<(usize, usize, &'static str, u64, u64)>,
    witness: Vec<Second>,
}

fn in_business_hours(t: Second) -> bool {
    let day = t.div_euclid(DAY);
    let hour = t.rem_euclid(DAY) / HOUR;
    !matches!(weekday_from_days(day), Weekday::Sat | Weekday::Sun) && (9..17).contains(&hour)
}

fn generate(seed: u64) -> Vec<Spec> {
    let cal = Calendar::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CORPUS)
        .map(|k| {
            let n = 16 + k % 17;
            let mut witness: Vec<Second> = Vec::with_capacity(n);
            let mut t0 = rng.gen_range(0..2 * 365i64) * DAY + 9 * HOUR + rng.gen_range(0..8 * HOUR);
            while !in_business_hours(t0) {
                t0 += HOUR;
            }
            witness.push(t0);
            // A spanning tree rooted at variable 0, each child later than
            // its parent by up to two weeks.
            let mut arcs: Vec<(usize, usize)> = Vec::new();
            for v in 1..n {
                let p = rng.gen_range(0..v);
                let mut t = witness[p] + rng.gen_range(0..14 * DAY);
                while !in_business_hours(t) {
                    t += HOUR;
                }
                witness.push(t);
                arcs.push((p, v));
            }
            // Extra arcs between ordered pairs make the network cyclic in
            // the undirected sense, so propagation has paths to tighten.
            let tree_arcs = arcs.len();
            while arcs.len() < tree_arcs + n / 2 {
                let u = rng.gen_range(0..n - 1);
                let v = rng.gen_range(u + 1..n);
                if witness[u] <= witness[v] && !arcs.contains(&(u, v)) {
                    arcs.push((u, v));
                }
            }
            let mut tcgs = Vec::new();
            for &(u, v) in &arcs {
                let first = rng.gen_range(0..GRANS.len());
                let mut grans = vec![first];
                if rng.gen_bool(0.3) {
                    grans.push((first + rng.gen_range(1..GRANS.len())) % GRANS.len());
                }
                for g in grans {
                    let gran = cal.get(GRANS[g]).expect("standard granularity");
                    let tick = |t| gran.covering_tick(t).expect("business hours are covered");
                    let d = (tick(witness[v]) - tick(witness[u])) as u64;
                    let lo = d - rng.gen_range(0..=d.min(2));
                    let hi = d + rng.gen_range(0..=3u64);
                    tcgs.push((u, v, GRANS[g], lo, hi));
                }
            }
            Spec { n, tcgs, witness }
        })
        .collect()
}

fn build(spec: &Spec, cal: &Calendar) -> EventStructure {
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..spec.n).map(|i| b.var(format!("X{i}"))).collect();
    for &(u, v, g, lo, hi) in &spec.tcgs {
        b.constrain(
            vars[u],
            vars[v],
            Tcg::new(lo, hi, cal.get(g).expect("standard granularity")),
        );
    }
    b.build().expect("generated structures are rooted DAGs")
}

pub fn run(args: &Args) -> Outcome {
    let specs = generate(args.seed);
    // Set-up: a fresh calendar, the structures over it, and one warm-up
    // propagation of each.
    let mut setup = || {
        let cal = Calendar::standard();
        let corpus: Vec<EventStructure> = specs.iter().map(|s| build(s, &cal)).collect();
        for s in &corpus {
            black_box(propagate(s));
        }
        corpus
    };
    // Set-ups timed before the window, and again after it.
    const SETUPS: usize = 4;
    let mut setup_times = Vec::new();
    let corpus = time_setups(SETUPS, &mut setup_times, &mut setup);

    // Per op: (structure index, consistent, fixpoint iterations).
    let mut outputs: Vec<(usize, bool, usize)> = Vec::new();
    let mut next = 0usize;
    let mut best = Best::new(corpus.len());
    let mut window = |len: Duration, outputs: &mut Vec<(usize, bool, usize)>| -> Timed {
        let mut ops = Vec::new();
        let win = Window::open(len);
        while !win.expired() {
            let i = next % corpus.len();
            next += 1;
            let stamp = Stamp::now();
            let p = propagate(&corpus[i]);
            ops.push(Op::ended(stamp.wall, 1));
            best.record(i, stamp, 1);
            outputs.push((i, p.is_consistent(), p.iterations()));
        }
        let (wall_s, cpu_s) = win.close();
        Timed {
            wall_s,
            cpu_s,
            attempted: ops.len() as u64,
            failed: 0,
            ops,
        }
    };

    let (mut metrics, attempted);
    if args.trace {
        let untraced = window(args.share(0.5), &mut outputs);
        let first = outputs.len();
        let cache0 = cache::global_stats();
        let traced = window(args.share(0.5), &mut outputs);
        let c = cache::global_stats();
        let cache = (c.hits - cache0.hits, c.misses - cache0.misses);
        metrics = layers(
            &traced,
            &outputs[first..],
            cache,
            overhead_pct(&untraced, &traced),
        );
        attempted = untraced.attempted + traced.attempted;
    } else {
        let timed = window(args.window(), &mut outputs);
        println!("window: {:.1} propagations/s", timed.throughput());
        metrics = best.end_to_end();
        attempted = timed.attempted;
        time_setups(SETUPS, &mut setup_times, &mut setup);
        metrics.push(setup_metric(&setup_times));
    }

    // Oracles: Theorem 2 soundness (propagation never refutes a structure
    // that has a witness) and each witness satisfying its structure.
    let refuted = outputs.iter().filter(|o| !o.1).count();
    let bad_witness = specs
        .iter()
        .zip(&corpus)
        .filter(|(spec, s)| !s.satisfied_by(&spec.witness))
        .count();
    let correct = refuted == 0 && bad_witness == 0;
    if !correct {
        println!("check_structures: {refuted} refuted ops, {bad_witness} witnesses rejected");
    }
    Outcome {
        correct,
        attempted,
        failed: 0,
        metrics,
    }
}

fn layers(
    traced: &Timed,
    outputs: &[(usize, bool, usize)],
    (hits, misses): (u64, u64),
    overhead: f64,
) -> Vec<Metric> {
    let ops = traced.attempted.max(1) as f64;
    let call_ms = traced.busy_ms();
    let wall_ms = traced.wall_s * 1e3;
    print_table(
        "check_structures",
        "propagation",
        traced.attempted,
        wall_ms,
        &[("core.propagate", call_ms)],
    );
    println!("  granularity cache lookups: {hits} hits, {misses} misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let iterations: usize = outputs.iter().map(|o| o.2).sum();
    vec![
        metric("core.propagate.call_us", 1e3 * call_ms / ops, "us"),
        metric(
            "core.propagate.iterations",
            iterations as f64 / ops,
            "count",
        ),
        metric(
            "core.propagate.refuted",
            outputs.iter().filter(|o| !o.1).count() as f64,
            "count",
        ),
        metric("granularity.cache.hit_rate", hit_rate, "ratio"),
        metric(
            "granularity.compile.fallback",
            periodic::stats().fallback as f64,
            "count",
        ),
        metric(
            "check_structures.unattributed_ms",
            (wall_ms - call_ms) / ops,
            "ms",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ]
}
