//! E3 — Theorem 2: the approximate propagation is polynomial and sound.
//! Measures wall time against the number of variables `n`, the number of
//! granularities `|M|` and the maximal range `w`, and quantifies the
//! completeness gap (refutations it finds vs the exact checker) on random
//! small structures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::exact::{check_with, ExactOptions, ExactOutcome};
use tgm_core::propagate::{propagate, Propagated};
use tgm_core::{EventStructure, StructureBuilder, Tcg};
use tgm_granularity::{Calendar, Gran};

use crate::{print_table, timed};

const DAY: i64 = 86_400;

fn chain(n: usize, grans: &[Gran], w: u64, rng: &mut StdRng) -> EventStructure {
    // One forward TCG per arc over gap-free granularities: such chains are
    // always satisfiable, so any refutation would be a soundness bug —
    // cross-granularity conversion is still exercised because neighbouring
    // arcs use different granularities.
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..n).map(|i| b.var(format!("X{i}"))).collect();
    for i in 1..n {
        let g = grans[rng.gen_range(0..grans.len())].clone();
        let lo = rng.gen_range(0..=w / 2);
        b.constrain(vars[i - 1], vars[i], Tcg::new(lo, lo + rng.gen_range(0..=w), g));
    }
    b.build().expect("chains are valid")
}

/// Propagates `s` once untimed, so first-use conversion and size-table
/// work stays out of the figure, then returns the best of five timed calls
/// in ms.
fn warm_best_of_5(s: &EventStructure) -> (Propagated, f64) {
    let p = propagate(s);
    let ms = (0..5)
        .map(|_| timed(|| propagate(s)).1)
        .fold(f64::INFINITY, f64::min);
    (p, ms)
}

/// Runs E3 and prints its tables.
pub fn run() {
    println!("\n## E3 — Theorem 2: polynomial, sound propagation");
    let cal = Calendar::standard();
    let all: Vec<Gran> = ["hour", "day", "week", "month"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(7);

    // Scaling in n.
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32, 64] {
        let s = chain(n, &all, 6, &mut rng);
        let (p, ms) = warm_best_of_5(&s);
        rows.push(vec![
            n.to_string(),
            s.constraint_count().to_string(),
            format!("{ms:.3}"),
            p.iterations().to_string(),
            p.is_consistent().to_string(),
        ]);
    }
    print_table(
        "Propagation time vs number of variables (|M| = 4, w = 6)",
        &["n", "TCGs", "ms", "iterations", "not refuted"],
        &rows,
    );

    // Scaling in |M|.
    let mut rows = Vec::new();
    for m in 1..=4usize {
        let s = chain(16, &all[..m], 6, &mut rng);
        let (p, ms) = warm_best_of_5(&s);
        rows.push(vec![
            m.to_string(),
            format!("{ms:.3}"),
            p.iterations().to_string(),
        ]);
    }
    print_table(
        "Propagation time vs number of granularities (n = 16, w = 6)",
        &["|M|", "ms", "iterations"],
        &rows,
    );

    // Scaling in w.
    let mut rows = Vec::new();
    for w in [2u64, 8, 32, 128, 512] {
        let s = chain(16, &all, w, &mut rng);
        let (p, ms) = warm_best_of_5(&s);
        rows.push(vec![
            w.to_string(),
            format!("{ms:.3}"),
            p.iterations().to_string(),
        ]);
    }
    print_table(
        "Propagation time vs maximal range w (n = 16, |M| = 4)",
        &["w", "ms", "iterations"],
        &rows,
    );

    // Completeness gap vs exact on random 3-variable structures.
    let mut n_structures = 0usize;
    let mut exact_inconsistent = 0usize;
    let mut prop_refuted = 0usize;
    let mut unsound = 0usize;
    let opts = ExactOptions {
        horizon_start: 0,
        horizon_end: 60 * DAY,
        ..ExactOptions::default()
    };
    for _ in 0..60 {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        let tcg = |rng: &mut StdRng| {
            let g = all[rng.gen_range(0..all.len())].clone();
            let lo = rng.gen_range(0u64..6);
            Tcg::new(lo, lo + rng.gen_range(0u64..4), g)
        };
        b.constrain(x0, x1, tcg(&mut rng));
        b.constrain(x1, x2, tcg(&mut rng));
        b.constrain(x0, x2, tcg(&mut rng));
        let s = b.build().unwrap();
        let Ok(outcome) = check_with(&s, &opts) else { continue };
        n_structures += 1;
        let exact_ok = matches!(outcome, ExactOutcome::Consistent(_));
        let p = propagate(&s);
        if !exact_ok {
            exact_inconsistent += 1;
            if !p.is_consistent() {
                prop_refuted += 1;
            }
        } else if !p.is_consistent() {
            unsound += 1;
        }
    }
    print_table(
        "Completeness gap on random 3-variable structures (60-day horizon)",
        &["structures", "exactly inconsistent", "refuted by propagation", "unsound refutations (must be 0)"],
        &[vec![
            n_structures.to_string(),
            exact_inconsistent.to_string(),
            prop_refuted.to_string(),
            unsound.to_string(),
        ]],
    );
}
