//! Property tests for the STP substrate: minimality, decomposability,
//! soundness against random witnesses.

use proptest::prelude::*;
use tgm_stp::{Range, Stp};

/// A random constraint set generated FROM a witness assignment, so the STP
/// is consistent by construction.
fn consistent_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(usize, usize, Range)>)> {
    (2usize..8)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(-1000i64..1000, n),
                proptest::collection::vec((0..n, 0..n, 0i64..50, 0i64..50), 1..20),
            )
        })
        .prop_map(|(xs, raw)| {
            let cons = raw
                .into_iter()
                .filter(|(i, j, _, _)| i != j)
                .map(|(i, j, slack_lo, slack_hi)| {
                    let diff = xs[j] - xs[i];
                    (i, j, Range::new(diff - slack_lo, diff + slack_hi))
                })
                .collect();
            (xs, cons)
        })
}

proptest! {
    /// An STP built around a witness is consistent, and the witness lies in
    /// every minimal range.
    #[test]
    fn witness_in_minimal_ranges((xs, cons) in consistent_instance()) {
        let mut stp = Stp::new(xs.len());
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let m = stp.minimize().expect("witness-built STP must be consistent");
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                prop_assert!(m.range(i, j).contains(xs[j] - xs[i]),
                    "witness diff x{j}-x{i}={} outside minimal {:?}",
                    xs[j] - xs[i], m.range(i, j));
            }
        }
    }

    /// The extracted solution satisfies every original constraint.
    #[test]
    fn extracted_solution_valid((xs, cons) in consistent_instance()) {
        let mut stp = Stp::new(xs.len());
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let sol = stp.minimize().unwrap().solution();
        for &(i, j, r) in &cons {
            prop_assert!(r.contains(sol[j] - sol[i]));
        }
    }

    /// Minimal ranges are at least as tight as the posted ones and
    /// minimization is idempotent.
    #[test]
    fn minimality_and_idempotence((xs, cons) in consistent_instance()) {
        let n = xs.len();
        let mut stp = Stp::new(n);
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let m = stp.minimize().unwrap();
        for &(i, j, r) in &cons {
            let t = m.range(i, j);
            prop_assert!(t.lo >= r.lo && t.hi <= r.hi, "range not tightened");
        }
        let m2 = m.as_stp().minimize().unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(m.range(i, j), m2.range(i, j));
            }
        }
    }

    /// Bellman-Ford from each source agrees with the Floyd-Warshall row.
    #[test]
    fn sssp_matches_apsp((xs, cons) in consistent_instance()) {
        let n = xs.len();
        let mut stp = Stp::new(n);
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let m = stp.minimize().unwrap();
        for src in 0..n {
            let d = stp.distances_from(src).unwrap();
            for (j, &dj) in d.iter().enumerate() {
                prop_assert_eq!(dj, m.range(src, j).hi.min(tgm_stp::INF));
            }
        }
    }

    /// Tightening a minimal network to each minimal range keeps it
    /// consistent; tightening below the minimal lower bound fails.
    #[test]
    fn tighten_consistency((xs, cons) in consistent_instance(), pick in any::<prop::sample::Index>()) {
        let n = xs.len();
        let mut stp = Stp::new(n);
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let m = stp.minimize().unwrap();
        let (i, j) = (pick.index(n), (pick.index(n) + 1) % n);
        if i == j { return Ok(()); }
        let r = m.range(i, j);
        if r.is_finite() {
            // Pin to the minimal lower endpoint: always satisfiable.
            let mut m2 = m.clone();
            m2.tighten(i, j, Range::exactly(r.lo)).expect("endpoint must stay feasible");
            // Pinning outside the minimal range must fail.
            let mut m3 = m.clone();
            prop_assert!(m3.tighten(i, j, Range::exactly(r.hi + 1)).is_err());
        }
    }
}

/// A witness-built instance over up to 40 variables (some constraints
/// half-bounded) plus a sequence of tightenings `(i, j, kind, offset,
/// width)`; see [`tightening_range`].
#[allow(clippy::type_complexity)]
fn tightening_instance() -> impl Strategy<
    Value = (
        Vec<i64>,
        Vec<(usize, usize, Range)>,
        Vec<(usize, usize, u8, i64, i64)>,
    ),
> {
    (2usize..=40)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(-1000i64..1000, n),
                proptest::collection::vec((0..n, 0..n, 0i64..50, 0i64..50, 0u8..8), 1..3 * n),
                proptest::collection::vec((0..n, 0..n, 0u8..4, -80i64..80, 0i64..40), 1..8),
            )
        })
        .prop_map(|(xs, raw, tightenings)| {
            let cons = raw
                .into_iter()
                .filter(|(i, j, ..)| i != j)
                .map(|(i, j, slack_lo, slack_hi, shape)| {
                    let diff = xs[j] - xs[i];
                    let r = match shape {
                        0 => Range::at_least(diff - slack_lo),
                        1 => Range::at_most(diff + slack_hi),
                        _ => Range::new(diff - slack_lo, diff + slack_hi),
                    };
                    (i, j, r)
                })
                .collect();
            (xs, cons, tightenings)
        })
}

/// The range of one tightening, placed around the witness difference `d`:
/// bounded ranges that may keep the witness, cut it off, or miss the
/// current range entirely, and half-bounded ones.
fn tightening_range(d: i64, kind: u8, offset: i64, width: i64) -> Range {
    match kind {
        0 => Range::new(d + offset.min(0) / 4, d + width),
        1 => Range::new(d + offset, d + offset + width),
        2 => Range::at_least(d + offset),
        _ => Range::at_most(d + offset),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental `tighten` equals batch minimization of the same
    /// constraints plus the new range, entry for entry, and errs exactly
    /// when the range misses the current minimal range (which leaves the
    /// network untouched).
    #[test]
    fn tighten_equals_batch_minimize((xs, cons, tightenings) in tightening_instance()) {
        let n = xs.len();
        let mut stp = Stp::new(n);
        for &(i, j, r) in &cons {
            stp.constrain(i, j, r);
        }
        let mut m = stp.minimize().expect("witness-built STP must be consistent");
        for (i, j, kind, offset, width) in tightenings {
            if i == j {
                continue;
            }
            let r = tightening_range(xs[j] - xs[i], kind, offset, width);
            let current = m.range(i, j);
            let misses = current.intersect(&r).is_none();
            let before = m.clone();
            let result = m.tighten(i, j, r);
            prop_assert_eq!(result.is_err(), misses,
                "tighten x{}-x{} {:?} against {:?}", j, i, r, current);
            if misses {
                for a in 0..n {
                    for b in 0..n {
                        prop_assert_eq!(m.range(a, b), before.range(a, b));
                    }
                }
                continue;
            }
            stp.constrain(i, j, r);
            let batch = stp.minimize().expect("a range meeting the minimal one stays consistent");
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(m.range(a, b), batch.range(a, b),
                        "x{}-x{} after tightening x{}-x{} to {:?}", b, a, j, i, r);
                }
            }
        }
    }
}
