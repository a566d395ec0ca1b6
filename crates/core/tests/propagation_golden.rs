//! Golden pin of the propagation fixpoint (paper §3.2, Theorem 2).
//!
//! `fixtures/propagation_golden.txt` was recorded from the original
//! full-recomputation fixpoint (every pass re-converted every derived
//! range, and `MinimalNetwork::tighten` updated the matrix in place). For
//! every structure of a fixed corpus it stores `iterations()`,
//! `refuted_in()` and a digest of each granularity group's minimal
//! network; any change to the fixpoint's work schedule must reproduce it
//! bit for bit. The corpus:
//!
//! * 120 seeded witness-derived structures, 8–32 variables, TCGs in hour,
//!   day, business-day, week and month (always consistent);
//! * 24 of those with one TCG moved off its witness value, so refutations
//!   (and where they surface) are pinned too;
//! * Figure 1(a), and the chains of experiment E3 (same generator and
//!   seed as `crates/bench/src/e03_propagation.rs`).
//!
//! The same corpus checks propagation tightness: no derived range is wider
//! than an explicit TCG on that arc in that granularity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::examples::figure_1a;
use tgm_core::propagate::{propagate, Propagated};
use tgm_core::{EventStructure, StructureBuilder, Tcg};
use tgm_granularity::{weekday_from_days, Calendar, Gran, Granularity, Second, Weekday};

const FIXTURE: &str = include_str!("fixtures/propagation_golden.txt");
const GRANS: [&str; 5] = ["hour", "day", "business-day", "week", "month"];
const HOUR: i64 = 3_600;
const DAY: i64 = 86_400;

fn in_business_hours(t: Second) -> bool {
    let day = t.div_euclid(DAY);
    let hour = t.rem_euclid(DAY) / HOUR;
    !matches!(weekday_from_days(day), Weekday::Sat | Weekday::Sun) && (9..17).contains(&hour)
}

/// TCGs `(from, to, granularity, lo, hi)` derived from a random witness
/// whose times all fall in business hours, so every granularity covers
/// them: a spanning tree from variable 0 plus `n / 2` extra ordered arcs.
fn witness_tcgs(
    n: usize,
    rng: &mut StdRng,
    cal: &Calendar,
) -> Vec<(usize, usize, usize, u64, u64)> {
    let mut witness: Vec<Second> = Vec::with_capacity(n);
    let mut t0 = rng.gen_range(0..2 * 365i64) * DAY + 9 * HOUR + rng.gen_range(0..8 * HOUR);
    while !in_business_hours(t0) {
        t0 += HOUR;
    }
    witness.push(t0);
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
            let gran = cal.get(GRANS[g]).unwrap();
            let tick = |t| gran.covering_tick(t).unwrap();
            let d = (tick(witness[v]) - tick(witness[u])) as u64;
            let lo = d - rng.gen_range(0..=d.min(2));
            let hi = d + rng.gen_range(0..=3u64);
            tcgs.push((u, v, g, lo, hi));
        }
    }
    tcgs
}

fn build(n: usize, tcgs: &[(usize, usize, usize, u64, u64)], cal: &Calendar) -> EventStructure {
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..n).map(|i| b.var(format!("X{i}"))).collect();
    for &(u, v, g, lo, hi) in tcgs {
        b.constrain(
            vars[u],
            vars[v],
            Tcg::new(lo, hi, cal.get(GRANS[g]).unwrap()),
        );
    }
    b.build().unwrap()
}

/// Experiment E3's chain generator: one forward TCG per arc.
fn e3_chain(n: usize, grans: &[Gran], w: u64, rng: &mut StdRng) -> EventStructure {
    let mut b = StructureBuilder::new();
    let vars: Vec<_> = (0..n).map(|i| b.var(format!("X{i}"))).collect();
    for i in 1..n {
        let g = grans[rng.gen_range(0..grans.len())].clone();
        let lo = rng.gen_range(0..=w / 2);
        b.constrain(
            vars[i - 1],
            vars[i],
            Tcg::new(lo, lo + rng.gen_range(0..=w), g),
        );
    }
    b.build().unwrap()
}

/// The labelled corpus, in fixture order.
fn corpus(cal: &Calendar) -> Vec<(String, EventStructure)> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x0060_1DE4);
    for k in 0..120 {
        let n = 8 + k % 25;
        let mut tcgs = witness_tcgs(n, &mut rng, cal);
        out.push((format!("witness-{k:03}"), build(n, &tcgs, cal)));
        if k % 5 == 0 {
            // Push one TCG past its witness distance.
            let pick = rng.gen_range(0..tcgs.len());
            let (_, _, _, lo, hi) = &mut tcgs[pick];
            let shift = *hi - *lo + rng.gen_range(1..=3u64);
            *lo += shift;
            *hi += shift;
            out.push((format!("shifted-{k:03}"), build(n, &tcgs, cal)));
        }
    }
    out.push(("figure-1a".to_owned(), figure_1a(cal).0));
    let all: Vec<Gran> = ["hour", "day", "week", "month"]
        .iter()
        .map(|n| cal.get(n).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    for n in [4usize, 8, 16, 32, 64] {
        out.push((format!("e3-n{n}"), e3_chain(n, &all, 6, &mut rng)));
    }
    for m in 1..=4usize {
        out.push((format!("e3-m{m}"), e3_chain(16, &all[..m], 6, &mut rng)));
    }
    for w in [2u64, 8, 32, 128, 512] {
        out.push((format!("e3-w{w}"), e3_chain(16, &all, w, &mut rng)));
    }
    out
}

/// FNV-1a over the group's every `(lo, hi)` pair, row-major.
fn digest(p: &Propagated, g: &Gran) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..p.len() {
        for j in 0..p.len() {
            let r = p.range(g, tgm_core::VarId(i), tgm_core::VarId(j)).unwrap();
            for b in r.lo.to_le_bytes().into_iter().chain(r.hi.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// One fixture line: label, iterations, refutation group, and one
/// `granularity:digest` per group (none when refuted).
fn fixture_line(label: &str, p: &Propagated) -> String {
    let refuted = p.refuted_in().map_or("-", |g| g.name());
    let mut line = format!("{label} iterations={} refuted={refuted}", p.iterations());
    if p.is_consistent() {
        for g in p.granularities() {
            line.push_str(&format!(" {}:{:016x}", g.name(), digest(p, g)));
        }
    }
    line
}

#[test]
fn propagation_reproduces_the_golden_fixture() {
    let cal = Calendar::standard();
    let actual: Vec<String> = corpus(&cal)
        .iter()
        .map(|(label, s)| fixture_line(label, &propagate(s)))
        .collect();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(actual.len(), expected.len(), "corpus size changed");
    let diffs: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a.as_str() != **e)
        .map(|(a, e)| format!("expected {e}\n     got {a}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} differ:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n")
    );
}

/// Propagation tightness: every derived range lies within each explicit
/// TCG on that arc in that granularity.
#[test]
fn derived_ranges_never_widen_explicit_tcgs() {
    let cal = Calendar::standard();
    for (label, s) in corpus(&cal) {
        let p = propagate(&s);
        // Only the shifted structures can lack a witness.
        if !label.starts_with("shifted") {
            assert!(p.is_consistent(), "{label}: satisfiable structure refuted");
        }
        if !p.is_consistent() {
            continue;
        }
        for (a, b, cs) in s.arcs() {
            for c in cs {
                let r = p.range(c.gran(), a, b).unwrap();
                assert!(
                    r.lo >= c.lo() as i64 && r.hi <= c.hi() as i64,
                    "{label}: {a:?}->{b:?} derived {r:?} wider than {c}"
                );
            }
        }
    }
}
