//! The optimized discovery pipeline (paper §5, steps 1–5).
//!
//! 1. **Consistency screening** — run the sound propagation of §3.2;
//!    an inconsistent structure has no solutions at all.
//! 2. **Sequence reduction** — drop events that cannot bind to any
//!    variable: wrong type for every candidate set, or not covered by a
//!    gapped granularity that explicitly constrains every variable they
//!    could bind to (the paper's business-day example).
//! 3. **Reference pruning** — a reference occurrence can only root a match
//!    if every variable's derived window (from propagation, in seconds)
//!    contains at least one eligible event; otherwise no automaton is
//!    started for it.
//! 4. **Candidate reduction** — the induced discovery problems of §5.1:
//!    for each variable, a type survives only if it appears, often enough
//!    (w.r.t. *all* reference occurrences), inside the variable's window
//!    satisfying all derived root-to-variable TCGs; optionally extended to
//!    variable *pairs* along chains (`k = 2`).
//! 5. **Final scan** — enumerate the surviving assignments and run their
//!    anchored TAGs together from every kept reference occurrence (one
//!    shared multi-TAG pass each), with the scan bounded by the derived
//!    windows and split across workers by candidates or by references.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use tgm_core::propagate::{propagate, propagate_bounded, PropagateOptions};
use tgm_core::{Tcg, VarId};
use tgm_events::{Event, EventSequence, EventType, TickColumns};
use tgm_granularity::{Gran, Granularity as _};
use tgm_limits::{Interrupt, Limits, Verdict, WorkerPanic};
use tgm_obs::span::span_if;
use tgm_obs::{metrics, FunnelStage, Observable, ObsOptions, ObsValue};
use tgm_stp::INF;
use tgm_tag::{count_interrupt, MatcherScratch, MultiScratch, Tag};

use crate::bounded::{fan_out, BoundedMining};
use crate::multi_scan::{anchored_multi, multi_count_support, TemplateCache};
use crate::naive::count_support;
use crate::problem::{DiscoveryProblem, Solution};

/// The most variables a discovery structure may have: the pipeline keeps
/// per-event variable sets as `u64` bitmasks.
pub const MAX_VARIABLES: usize = 64;

/// Ablation switches for the pipeline; all enabled by default (`k = 2`
/// pair screening is opt-in, as the paper presents it as an extension).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`PipelineOptions::default`] or via [`PipelineOptions::builder`], which
/// keeps call sites source-compatible as knobs are added.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// Step 1: consistency screening by propagation.
    pub consistency_screen: bool,
    /// Step 2: sequence reduction.
    pub sequence_reduction: bool,
    /// Step 3: reference-occurrence pruning.
    pub reference_pruning: bool,
    /// Step 4: per-variable candidate screening (`k = 1`).
    pub candidate_screening: bool,
    /// Step 4 extension: pair screening along chains (`k = 2`), using the
    /// derived windows (cheap, no automata).
    pub pair_screening: bool,
    /// Step 4 extension, the paper's full form: solve *induced discovery
    /// problems* on root-anchored sub-chains of up to this many non-root
    /// variables with anchored TAGs, banning infrequent tuples
    /// ("for each integer k = 2, 3, …" in §5.1). `0` disables; screened-out
    /// tuples from smaller `k` are never reconsidered at larger `k`.
    pub chain_screening_k: usize,
    /// Step 5: bound each anchored scan by the derived window.
    pub window_limit: bool,
    /// Step 5: split the shared scan across crossbeam workers. With fewer
    /// surviving candidates than workers the kept reference occurrences
    /// are split, otherwise the candidates are; a candidate's support is a
    /// sum over independent anchored runs, so results are identical in any
    /// chunking. Off = one chunk on the caller's thread.
    pub parallel: bool,
    /// Resolve every event's tick per structure granularity once up front
    /// ([`TickColumns`]) and share the columns across steps 2–5 and every
    /// anchored TAG run. Off = resolve per use (the shared-resolution-layer
    /// ablation baseline); results are identical either way.
    pub use_tick_columns: bool,
    /// Observability knobs for this pipeline run (per-step spans and
    /// funnel counters). Nothing is emitted unless the process-wide
    /// [`tgm_obs::set_enabled`] toggle is also on; instrumentation never
    /// changes results (differentially tested).
    pub obs: ObsOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            consistency_screen: true,
            sequence_reduction: true,
            reference_pruning: true,
            candidate_screening: true,
            pair_screening: false,
            chain_screening_k: 0,
            window_limit: true,
            parallel: true,
            use_tick_columns: true,
            obs: ObsOptions::default(),
        }
    }
}

impl PipelineOptions {
    /// A builder starting from the defaults (everything on, `k = 2`
    /// extensions off).
    ///
    /// ```
    /// use tgm_mining::pipeline::PipelineOptions;
    /// let o = PipelineOptions::builder().pair_screening(true).parallel(false).build();
    /// assert!(o.pair_screening && !o.parallel && o.window_limit);
    /// ```
    pub fn builder() -> PipelineOptionsBuilder {
        PipelineOptionsBuilder::default()
    }

    /// A builder seeded from this value, for tweaking individual knobs.
    pub fn to_builder(self) -> PipelineOptionsBuilder {
        PipelineOptionsBuilder(self)
    }
}

/// Builder for [`PipelineOptions`]; see [`PipelineOptions::builder`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptionsBuilder(PipelineOptions);

impl PipelineOptionsBuilder {
    /// Sets step 1 consistency screening.
    pub fn consistency_screen(mut self, on: bool) -> Self {
        self.0.consistency_screen = on;
        self
    }

    /// Sets step 2 sequence reduction.
    pub fn sequence_reduction(mut self, on: bool) -> Self {
        self.0.sequence_reduction = on;
        self
    }

    /// Sets step 3 reference-occurrence pruning.
    pub fn reference_pruning(mut self, on: bool) -> Self {
        self.0.reference_pruning = on;
        self
    }

    /// Sets step 4 per-variable candidate screening.
    pub fn candidate_screening(mut self, on: bool) -> Self {
        self.0.candidate_screening = on;
        self
    }

    /// Sets the `k = 2` pair-screening extension.
    pub fn pair_screening(mut self, on: bool) -> Self {
        self.0.pair_screening = on;
        self
    }

    /// Sets the induced-subproblem chain-screening depth (`0` disables).
    pub fn chain_screening_k(mut self, k: usize) -> Self {
        self.0.chain_screening_k = k;
        self
    }

    /// Sets the step 5 window limit.
    pub fn window_limit(mut self, on: bool) -> Self {
        self.0.window_limit = on;
        self
    }

    /// Sets step 5 parallelism.
    pub fn parallel(mut self, on: bool) -> Self {
        self.0.parallel = on;
        self
    }

    /// Sets shared tick-column resolution.
    pub fn use_tick_columns(mut self, on: bool) -> Self {
        self.0.use_tick_columns = on;
        self
    }

    /// Sets the observability knobs.
    pub fn obs(mut self, obs: ObsOptions) -> Self {
        self.0.obs = obs;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PipelineOptions {
        self.0
    }
}

/// Per-step instrumentation. Every field is populated whatever the step-5
/// chunk shape — inline, candidate chunks and reference chunks report
/// identically shaped stats (asserted by the obs differential tests), and
/// [`funnel`](Self::funnel) renders the §5 pruning funnel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Whether step 1 refuted the structure outright.
    pub refuted: bool,
    /// Events in the input / after step 2.
    pub events_total: usize,
    /// Events surviving sequence reduction.
    pub events_kept: usize,
    /// Reference occurrences in the input (frequency denominator).
    pub refs_total: usize,
    /// Reference occurrences surviving step 3.
    pub refs_kept: usize,
    /// Candidate assignments before any screening (`∏ |δ(X)|`).
    pub candidates_initial: u64,
    /// Candidate assignments after per-variable screening.
    pub candidates_after_var_screen: u64,
    /// Candidate assignments actually scanned in step 5 (after pair
    /// screening).
    pub candidates_scanned: u64,
    /// Anchored TAG runs in step 5.
    pub tag_runs: usize,
    /// Anchored TAG runs spent on induced chain screening (step 4, k >= 2).
    pub screening_tag_runs: usize,
    /// Candidate tuples banned by induced chain screening.
    pub banned_tuples: usize,
    /// Type pairs banned by pair screening (step 4, k = 2 cheap form).
    pub banned_pairs: usize,
    /// Step-5 chunks actually dispatched: one worker thread per chunk when
    /// parallel, or the one chunk run inline on the caller's thread.
    pub step5_workers: usize,
    /// Step-5 chunks that split the kept reference occurrences (0 when
    /// the candidates were split or the scan ran inline).
    pub sweep_chunks: usize,
    /// Solutions found.
    pub solutions: usize,
}

impl PipelineStats {
    /// The §5 pruning funnel, one stage per pipeline step: how many
    /// items entered each step and how many survived it.
    pub fn funnel(&self) -> Vec<FunnelStage> {
        vec![
            FunnelStage {
                step: "step1.consistency".into(),
                input: 1,
                output: u64::from(!self.refuted),
                detail: "structures (refuted by propagation = 0 survivors)".into(),
            },
            FunnelStage {
                step: "step2.sequence_reduction".into(),
                input: self.events_total as u64,
                output: self.events_kept as u64,
                detail: "events".into(),
            },
            FunnelStage {
                step: "step3.reference_pruning".into(),
                input: self.refs_total as u64,
                output: self.refs_kept as u64,
                detail: "reference occurrences".into(),
            },
            FunnelStage {
                step: "step4.candidate_reduction".into(),
                input: self.candidates_initial,
                output: self.candidates_scanned,
                detail: format!(
                    "assignments ({} after k=1 screen; {} pairs, {} tuples banned)",
                    self.candidates_after_var_screen, self.banned_pairs, self.banned_tuples
                ),
            },
            FunnelStage {
                step: "step5.final_scan".into(),
                input: self.candidates_scanned,
                output: self.solutions as u64,
                detail: format!(
                    "assignments -> solutions ({} anchored runs, {} worker{})",
                    self.tag_runs,
                    self.step5_workers,
                    if self.step5_workers == 1 { "" } else { "s" }
                ),
            },
        ]
    }
}

impl Observable for PipelineStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("refuted", self.refuted.into()));
        out.push(("events_total", self.events_total.into()));
        out.push(("events_kept", self.events_kept.into()));
        out.push(("refs_total", self.refs_total.into()));
        out.push(("refs_kept", self.refs_kept.into()));
        out.push(("candidates_initial", self.candidates_initial.into()));
        out.push((
            "candidates_after_var_screen",
            self.candidates_after_var_screen.into(),
        ));
        out.push(("candidates_scanned", self.candidates_scanned.into()));
        out.push(("tag_runs", self.tag_runs.into()));
        out.push(("screening_tag_runs", self.screening_tag_runs.into()));
        out.push(("banned_tuples", self.banned_tuples.into()));
        out.push(("banned_pairs", self.banned_pairs.into()));
        out.push(("step5_workers", self.step5_workers.into()));
        out.push(("sweep_chunks", self.sweep_chunks.into()));
        out.push(("solutions", self.solutions.into()));
    }
}

/// Runs the optimized pipeline with default options.
///
/// ```
/// use tgm_core::{StructureBuilder, Tcg};
/// use tgm_events::{Event, EventSequence, TypeRegistry};
/// use tgm_granularity::Calendar;
/// use tgm_mining::{pipeline, DiscoveryProblem};
///
/// let cal = Calendar::standard();
/// let mut reg = TypeRegistry::new();
/// let (a, b) = (reg.intern("A"), reg.intern("B"));
/// let mut sb = StructureBuilder::new();
/// let x0 = sb.var("X0");
/// let x1 = sb.var("X1");
/// sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
/// let s = sb.build().unwrap();
///
/// const DAY: i64 = 86_400;
/// let seq = EventSequence::from_events(vec![
///     Event::new(a, 2 * DAY), Event::new(b, 3 * DAY),
///     Event::new(a, 9 * DAY), Event::new(b, 10 * DAY),
/// ]);
/// let (solutions, _) = pipeline::mine(&DiscoveryProblem::new(s, 0.9, a), &seq);
/// assert_eq!(solutions.len(), 1);
/// assert_eq!(solutions[0].assignment, vec![a, b]);
/// ```
pub fn mine(problem: &DiscoveryProblem, seq: &EventSequence) -> (Vec<Solution>, PipelineStats) {
    mine_with(problem, seq, &PipelineOptions::default())
}

/// Runs the optimized pipeline.
pub fn mine_with(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
) -> (Vec<Solution>, PipelineStats) {
    match mine_core(problem, seq, opts, None) {
        Ok(run) => (run.solutions, run.stats),
        // Without limits there is no cooperative recovery path: re-raise
        // the contained worker panic as our own.
        Err(wp) => panic!("{wp}"),
    }
}

/// Runs the optimized pipeline under execution [`Limits`].
///
/// The budget counts *step-5 candidate assignments scanned* and is
/// deterministic: with budget `B`, exactly the first `B` surviving
/// assignments (in enumeration order) are scanned on every execution
/// path, serial or parallel. The deadline and cancel token are polled at
/// every step boundary, between reference occurrences inside the
/// screening loops, and inside every anchored TAG run. Solutions counted
/// before an interrupt are returned with [`Verdict::Interrupted`]. A
/// panic in a step-5 or sweep worker cancels its siblings via the shared
/// token and surfaces as [`WorkerPanic`].
pub fn mine_bounded(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: &Limits,
) -> Result<BoundedMining<PipelineStats>, WorkerPanic> {
    mine_core(problem, seq, opts, Some(limits))
}

fn mine_core(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: Option<&Limits>,
) -> Result<BoundedMining<PipelineStats>, WorkerPanic> {
    let _span = span_if(opts.obs.spans, "pipeline");
    let result = mine_inner(problem, seq, opts, limits);
    if opts.obs.metrics_on() {
        match &result {
            Ok(run) => {
                let stats = &run.stats;
                metrics::counter_add("mining.pipeline.runs", 1);
                metrics::counter_add("mining.pipeline.tag_runs", stats.tag_runs as u64);
                metrics::counter_add(
                    "mining.pipeline.screening_tag_runs",
                    stats.screening_tag_runs as u64,
                );
                metrics::counter_add("mining.pipeline.solutions", stats.solutions as u64);
                metrics::counter_add("mining.pipeline.sweep_chunks", stats.sweep_chunks as u64);
                if let Some(i) = run.verdict.interrupt() {
                    count_interrupt(i);
                }
            }
            Err(_) => metrics::counter_add("limits.worker_panics", 1),
        }
    }
    result
}

/// The uninstrumented pipeline behind [`mine_with`] / [`mine_bounded`]
/// (spans around each step still fire from inside, but run-level counters
/// are emitted by the wrapper so early returns are covered too).
fn mine_inner(
    problem: &DiscoveryProblem,
    seq: &EventSequence,
    opts: &PipelineOptions,
    limits: Option<&Limits>,
) -> Result<BoundedMining<PipelineStats>, WorkerPanic> {
    let mut stats = PipelineStats {
        events_total: seq.len(),
        ..PipelineStats::default()
    };
    let done = |solutions, stats, verdict| {
        Ok(BoundedMining {
            solutions,
            stats,
            verdict,
        })
    };
    let s = &problem.structure;
    let n = s.len();
    // Variable sets are `u64` bitmasks; callers taking outside input
    // refuse larger structures first.
    assert!(
        n <= MAX_VARIABLES,
        "pipeline supports at most {MAX_VARIABLES} variables"
    );
    // A worker panic must be able to cancel its siblings even when the
    // caller supplied no token, so attach one up front; inner engines get
    // the budget stripped (the budget unit here is step-5 candidates, not
    // frontier rows or propagation passes).
    let mut eff = limits.cloned();
    let token = eff.as_mut().map(Limits::cancel_token);
    let run_limits = eff.as_ref().map(|l| l.clone().without_budget());
    let limits = eff.as_ref();
    let denominator = problem.reference_count(seq);
    stats.refs_total = denominator;
    if denominator == 0 {
        return done(Vec::new(), stats, Verdict::Completed);
    }

    // Step 1: consistency screening.
    let p = {
        let _s = span_if(opts.obs.spans, "pipeline.step1.consistency");
        match run_limits.as_ref() {
            Some(l) => match propagate_bounded(s, &PropagateOptions::default(), l) {
                Ok(p) => p,
                Err(i) => return done(Vec::new(), stats, i.into()),
            },
            None => propagate(s),
        }
    };
    if opts.consistency_screen && !p.is_consistent() {
        stats.refuted = true;
        return done(Vec::new(), stats, Verdict::Completed);
    }

    let occurring = seq.types_present();
    let mut candidates: Vec<Vec<EventType>> = s
        .vars()
        .map(|v| {
            if v == s.root() {
                vec![problem.reference_type]
            } else {
                problem.candidates.resolve(v, &occurring)
            }
        })
        .collect();
    stats.candidates_initial = candidates.iter().map(|c| c.len() as u64).product();

    // Resolve every event's tick in every structure granularity once, in
    // parallel; steps 2-5 and the final anchored scans read these columns
    // instead of repeating calendar arithmetic per event per run. `None`
    // when ablating the shared resolution layer: every consumer falls back
    // to direct per-use resolution with identical results.
    let full_cols = opts
        .use_tick_columns
        .then(|| TickColumns::build(seq.events(), &s.granularities()));

    // Per-variable gapped granularities that must cover a bound event.
    let var_gapped: Vec<Vec<Gran>> = s
        .vars()
        .map(|v| {
            let mut gs: Vec<Gran> = Vec::new();
            for (a, b, cs) in s.arcs() {
                if a != v && b != v {
                    continue;
                }
                for c in cs {
                    if c.gran().has_gaps() && !gs.contains(c.gran()) {
                        gs.push(c.gran().clone());
                    }
                }
            }
            gs
        })
        .collect();
    // The same granularities as column indices when columns are in use.
    // Invariant: the columns were built over exactly `s.granularities()`.
    #[allow(clippy::expect_used)]
    let var_gapped_cols: Option<Vec<Vec<usize>>> = full_cols.as_ref().map(|cols| {
        var_gapped
            .iter()
            .map(|gs| {
                gs.iter()
                    .map(|g| cols.index_of(g).expect("structure gran has a column"))
                    .collect()
            })
            .collect()
    });

    // Eligibility bitmask per event: which variables it could bind.
    let eligible = |row: usize, e: &Event| -> u64 {
        let mut mask = 0u64;
        for v in s.vars() {
            let type_ok = if v == s.root() {
                e.ty == problem.reference_type
            } else {
                candidates[v.index()].contains(&e.ty)
            };
            if !type_ok {
                continue;
            }
            let covered = match (&full_cols, &var_gapped_cols) {
                (Some(cols), Some(vcols)) => vcols[v.index()]
                    .iter()
                    .all(|&c| cols.tick(c, row).is_some()),
                _ => var_gapped[v.index()]
                    .iter()
                    .all(|g| g.covering_tick(e.time).is_some()),
            };
            if covered {
                mask |= 1 << v.index();
            }
        }
        mask
    };

    // Step 2: sequence reduction.
    let (events, masks, kept_rows): (Vec<Event>, Vec<u64>, Vec<usize>) = {
        let _s = span_if(opts.obs.spans, "pipeline.step2.sequence_reduction");
        let mut evs = Vec::new();
        let mut ms = Vec::new();
        let mut rows = Vec::new();
        for (row, e) in seq.events().iter().enumerate() {
            if row & 1023 == 0 {
                if let Some(l) = limits {
                    if let Err(i) = l.check() {
                        return done(Vec::new(), stats, i.into());
                    }
                }
            }
            let m = eligible(row, e);
            if !opts.sequence_reduction || m != 0 {
                evs.push(*e);
                ms.push(m);
                rows.push(row);
            }
        }
        (evs, ms, rows)
    };
    stats.events_kept = events.len();
    // Columns re-indexed to the reduced event list (no re-resolution).
    let cols = full_cols.as_ref().map(|fc| fc.select(&kept_rows));

    // Reference occurrences within the (possibly reduced) event list. A
    // reference event whose own mask lacks the root bit can never match;
    // it stays in the denominator but is not scanned.
    let root_bit = 1u64 << s.root().index();
    let refs: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(i, e)| e.ty == problem.reference_type && masks[*i] & root_bit != 0)
        .map(|(i, _)| i)
        .collect();

    // Derived windows (seconds) from the root to each variable.
    let windows: Vec<(i64, i64)> = s
        .vars()
        .map(|v| {
            if v == s.root() {
                return (0, 0);
            }
            match p.seconds_window(s.root(), v) {
                Some(r) => (r.lo.max(0), if r.hi >= INF { i64::MAX / 2 } else { r.hi }),
                None => (0, i64::MAX / 2),
            }
        })
        .collect();
    let max_window = windows.iter().map(|&(_, hi)| hi).max().unwrap_or(0);

    // Derived TCGs from the root to each variable (for step 4 screening).
    let root_tcgs: Vec<Vec<Tcg>> = s
        .vars()
        .map(|v| {
            if v == s.root() {
                Vec::new()
            } else {
                p.derived_tcgs(s.root(), v)
            }
        })
        .collect();

    // Step 3 + 4 bookkeeping in one pass over references.
    let _s34 = span_if(opts.obs.spans, "pipeline.step3_4.screening");
    let mut kept_refs: Vec<usize> = Vec::new();
    let mut var_type_support: BTreeMap<(VarId, EventType), usize> = BTreeMap::new();
    for &ridx in &refs {
        if let Some(l) = limits {
            if let Err(i) = l.check() {
                return done(Vec::new(), stats, i.into());
            }
        }
        let t0 = events[ridx].time;
        let mut ok = true;
        let mut seen_types: BTreeSet<(VarId, EventType)> = BTreeSet::new();
        for v in s.vars() {
            if v == s.root() {
                continue;
            }
            let (lo, hi) = windows[v.index()];
            let (wlo, whi) = (t0.saturating_add(lo), t0.saturating_add(hi));
            let start = events.partition_point(|e| e.time < wlo);
            let bit = 1u64 << v.index();
            let mut any = false;
            for (e, &m) in events[start..].iter().zip(&masks[start..]) {
                if e.time > whi {
                    break;
                }
                if m & bit == 0 {
                    continue;
                }
                // Step 4 screening requires the pair to satisfy every
                // derived root->v TCG.
                if root_tcgs[v.index()].iter().all(|c| c.satisfied(t0, e.time)) {
                    any = true;
                    seen_types.insert((v, e.ty));
                }
            }
            if !any {
                ok = false;
                if opts.reference_pruning && !opts.candidate_screening {
                    break;
                }
            }
        }
        if ok || !opts.reference_pruning {
            kept_refs.push(ridx);
        }
        if opts.candidate_screening {
            for key in seen_types {
                *var_type_support.entry(key).or_insert(0) += 1;
            }
        }
    }
    stats.refs_kept = kept_refs.len();

    // Step 4 (k = 1): prune candidate types below the confidence threshold.
    if opts.candidate_screening {
        for v in s.vars() {
            if v == s.root() {
                continue;
            }
            candidates[v.index()].retain(|&ty| {
                let support = var_type_support.get(&(v, ty)).copied().unwrap_or(0);
                support as f64 / denominator as f64 > problem.min_confidence
            });
        }
    }
    stats.candidates_after_var_screen =
        candidates.iter().map(|c| c.len() as u64).product();
    drop(_s34);

    if candidates.iter().any(Vec::is_empty) || kept_refs.is_empty() {
        return done(Vec::new(), stats, Verdict::Completed);
    }

    // Step 4 (k = 2): screen type pairs along root-to-leaf chains.
    let mut banned_pairs: BTreeSet<(VarId, EventType, VarId, EventType)> = BTreeSet::new();
    if opts.pair_screening {
        let _s = span_if(opts.obs.spans, "pipeline.step4.pair_screening");
        let chain_pairs: Vec<(VarId, VarId)> = s
            .vars()
            .flat_map(|x| {
                s.vars()
                    .filter(move |&y| {
                        x != y && x != s.root() && y != s.root() && x < y
                    })
                    .map(move |y| (x, y))
            })
            .filter(|&(x, y)| s.has_path(x, y) || s.has_path(y, x))
            .map(|(x, y)| if s.has_path(x, y) { (x, y) } else { (y, x) })
            .collect();
        for (x, y) in chain_pairs {
            let xy_tcgs = p.derived_tcgs(x, y);
            let mut pair_support: BTreeMap<(EventType, EventType), usize> = BTreeMap::new();
            for &ridx in &kept_refs {
                if let Some(l) = limits {
                    if let Err(i) = l.check() {
                        return done(Vec::new(), stats, i.into());
                    }
                }
                let t0 = events[ridx].time;
                let mut seen: BTreeSet<(EventType, EventType)> = BTreeSet::new();
                let (xlo, xhi) = windows[x.index()];
                let xstart = events.partition_point(|e| e.time < t0.saturating_add(xlo));
                let xbit = 1u64 << x.index();
                let ybit = 1u64 << y.index();
                for (ex, &mx) in events[xstart..].iter().zip(&masks[xstart..]) {
                    if ex.time > t0.saturating_add(xhi) {
                        break;
                    }
                    if mx & xbit == 0
                        || !root_tcgs[x.index()].iter().all(|c| c.satisfied(t0, ex.time))
                    {
                        continue;
                    }
                    let (ylo, yhi) = windows[y.index()];
                    let ystart =
                        events.partition_point(|e| e.time < t0.saturating_add(ylo));
                    for (ey, &my) in events[ystart..].iter().zip(&masks[ystart..]) {
                        if ey.time > t0.saturating_add(yhi) {
                            break;
                        }
                        if my & ybit == 0
                            || !root_tcgs[y.index()]
                                .iter()
                                .all(|c| c.satisfied(t0, ey.time))
                            || !xy_tcgs.iter().all(|c| c.satisfied(ex.time, ey.time))
                        {
                            continue;
                        }
                        seen.insert((ex.ty, ey.ty));
                    }
                }
                for k in seen {
                    *pair_support.entry(k).or_insert(0) += 1;
                }
            }
            for &ex_ty in &candidates[x.index()] {
                for &ey_ty in &candidates[y.index()] {
                    let sup = pair_support.get(&(ex_ty, ey_ty)).copied().unwrap_or(0);
                    if sup as f64 / denominator as f64 <= problem.min_confidence {
                        banned_pairs.insert((x, ex_ty, y, ey_ty));
                    }
                }
            }
        }
    }

    // Step 4 (k >= 2, the paper's full form): induced discovery problems on
    // root-anchored sub-chains, solved with anchored TAGs over the induced
    // approximated sub-structure. A tuple whose frequency cannot exceed the
    // threshold bans every candidate complex type containing it.
    stats.banned_pairs = banned_pairs.len();

    // Automaton shapes are memoized per structure: the screening loop
    // below builds each induced substructure's automaton once (per-tuple
    // candidates are symbol relabellings) and step 5 builds the main
    // structure's once for all surviving assignments.
    let mut templates = TemplateCache::new();
    let mut banned_tuples: Vec<(Vec<VarId>, BTreeSet<Vec<EventType>>)> = Vec::new();
    if opts.chain_screening_k >= 2 && !kept_refs.is_empty() {
        let _s = span_if(opts.obs.spans, "pipeline.step4.chain_screening");
        // One scratch reused across every screening tuple's sweep.
        let mut screen_scratch = MatcherScratch::new();
        // Enumerate root-to-sink paths, then in-order sub-sequences of
        // non-root variables of each length k.
        let paths = root_paths(s);
        let mut done_chains: BTreeSet<Vec<VarId>> = BTreeSet::new();
        for k in 2..=opts.chain_screening_k.min(n.saturating_sub(1)) {
            for path in &paths {
                let tail: Vec<VarId> =
                    path.iter().copied().filter(|&v| v != s.root()).collect();
                for combo in in_order_subsets(&tail, k) {
                    if !done_chains.insert(combo.clone()) {
                        continue;
                    }
                    let (sub, kept_vars) =
                        tgm_core::substructure::induced_substructure(s, &p, &combo);
                    // One automaton shape per substructure; each tuple is
                    // an `Exact`-symbol relabelling of it.
                    let sub_template = templates.get(&sub);
                    // Candidate tuples = product of surviving per-variable
                    // candidates, minus tuples containing a banned
                    // sub-tuple from an earlier round.
                    let mut local_banned: BTreeSet<Vec<EventType>> = BTreeSet::new();
                    let mut tuple = vec![problem.reference_type; combo.len()];
                    let mut interrupted: Option<Interrupt> = None;
                    enumerate_tuples(&candidates, &combo, 0, &mut tuple, &mut |tpl| {
                        if tuple_contains_banned(&combo, tpl, &banned_tuples) {
                            return true;
                        }
                        // φ for the sub-structure, in kept_vars order.
                        // Invariant: every non-root kept var came from
                        // `combo`.
                        #[allow(clippy::expect_used)]
                        let phi: Vec<EventType> = kept_vars
                            .iter()
                            .map(|v| {
                                if *v == s.root() {
                                    problem.reference_type
                                } else {
                                    let idx = combo.iter().position(|c| c == v).expect("kept");
                                    tpl[idx]
                                }
                            })
                            .collect();
                        let tag = sub_template.instantiate(&phi);
                        let support = match count_support(
                            &tag,
                            &events,
                            &kept_refs,
                            opts.window_limit.then_some(max_window),
                            cols.as_ref(),
                            &mut screen_scratch,
                            &mut stats.screening_tag_runs,
                            opts.obs,
                            run_limits.as_ref(),
                        ) {
                            Ok(support) => support,
                            Err(i) => {
                                interrupted = Some(i);
                                return false;
                            }
                        };
                        if (support as f64 / denominator as f64) <= problem.min_confidence {
                            local_banned.insert(tpl.to_vec());
                        }
                        true
                    });
                    stats.banned_tuples += local_banned.len();
                    if let Some(i) = interrupted {
                        return done(Vec::new(), stats, i.into());
                    }
                    if !local_banned.is_empty() {
                        banned_tuples.push((combo, local_banned));
                    }
                }
            }
        }
    }

    // Step 5: final anchored TAG scan over surviving assignments.
    let _s5 = span_if(opts.obs.spans, "pipeline.step5.scan");
    let mut assignments: Vec<Vec<EventType>> = Vec::new();
    let mut cur = vec![problem.reference_type; n];
    collect_assignments(&candidates, s.root(), 0, &mut cur, &banned_pairs, &mut assignments);
    assignments.retain(|phi| {
        problem.assignment_admissible(phi)
            && banned_tuples.iter().all(|(vars, banned)| {
                let tpl: Vec<EventType> = vars.iter().map(|v| phi[v.index()]).collect();
                !banned.contains(&tpl)
            })
    });
    stats.candidates_scanned = assignments.len() as u64;

    // Step 5 is one shared-scan scheduler: the structure's automaton shape
    // is built once and instantiated per assignment, and each chunk — a
    // (candidate range, reference range) pair — advances its candidates
    // together in one multi pass per reference occurrence. The budget
    // unit is candidates scanned, a deterministic enumeration-order
    // prefix, so it is cut before dispatch.
    let template = templates.get(s);
    let tags: Vec<Tag> = assignments
        .iter()
        .map(|phi| template.instantiate(phi))
        .collect();
    let mut verdict = Verdict::Completed;
    let mut allowed = assignments.len();
    if let Some(l) = limits {
        for idx in 0..assignments.len() {
            if let Err(i) = l.check_with_used(idx as u64 + 1) {
                verdict = i.into();
                allowed = idx;
                break;
            }
        }
    }
    // The chunk shape follows from what the run can see. With fewer
    // candidates than workers, candidate chunks would leave workers idle,
    // so the kept references are split instead and every chunk scans all
    // allowed candidates; otherwise contiguous candidate ranges are split.
    // At least two workers when parallelism was requested: the option must
    // exercise the parallel path (and its panic containment) even on
    // single-core hosts, where `available_parallelism` is 1.
    let w = if opts.parallel {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .max(2)
    } else {
        1
    };
    let ref_chunks = w > 1 && assignments.len() < w && kept_refs.len() > 1;
    let candidate_chunks = !ref_chunks && w > 1 && assignments.len() > 1;
    let chunks: Vec<(Range<usize>, &[usize])> = if ref_chunks {
        kept_refs
            .chunks(kept_refs.len().div_ceil(w))
            .map(|r| (0..allowed, r))
            .collect()
    } else if candidate_chunks {
        let len = assignments.len().div_ceil(w);
        (0..allowed)
            .step_by(len)
            .map(|lo| (lo..allowed.min(lo + len), &kept_refs[..]))
            .collect()
    } else {
        vec![(0..allowed, &kept_refs[..])]
    };
    stats.step5_workers = chunks.len();
    if ref_chunks {
        stats.sweep_chunks = chunks.len();
    }
    let window = opts.window_limit.then_some(max_window);
    let run_chunk = |(cands, refs): (Range<usize>, &[usize])| -> Result<_, Interrupt> {
        let mm = anchored_multi(&tags[cands.clone()], opts.obs);
        let mut supports = vec![0usize; cands.len()];
        let mut runs = 0usize;
        multi_count_support(
            &mm,
            &events,
            refs,
            window,
            cols.as_ref(),
            &mut MultiScratch::new(),
            &mut runs,
            run_limits.as_ref(),
            &mut supports,
        )?;
        Ok((supports, runs))
    };
    let results = if ref_chunks || candidate_chunks {
        const SITE: &str = "pipeline.step5.worker";
        fan_out(
            SITE,
            SITE,
            opts.obs,
            run_limits.as_ref(),
            token.as_ref(),
            chunks.clone(),
            run_chunk,
        )?
    } else {
        chunks.iter().cloned().map(run_chunk).collect()
    };
    let mut supports = vec![0usize; allowed];
    // Whether each candidate's count completed: an interrupt abandons the
    // (ref-major) pass that was counting it, so its partial sum must not
    // produce a solution.
    let mut counted = vec![true; allowed];
    let mut tag_runs = 0usize;
    let mut first_interrupt: Option<Interrupt> = None;
    for ((cands, _), r) in chunks.into_iter().zip(results) {
        match r {
            Ok((local, runs)) => {
                for (acc, s) in supports[cands].iter_mut().zip(local) {
                    *acc += s;
                }
                tag_runs += runs;
            }
            Err(i) => {
                counted[cands].fill(false);
                first_interrupt.get_or_insert(i);
            }
        }
    }
    if let Some(i) = first_interrupt {
        verdict = i.into();
    }
    let mut solutions: Vec<Solution> = assignments[..allowed]
        .iter()
        .zip(&supports)
        .zip(&counted)
        .filter(|&(_, &ok)| ok)
        .filter_map(|((phi, &support), _)| {
            let frequency = support as f64 / denominator as f64;
            (frequency > problem.min_confidence).then(|| Solution {
                assignment: phi.to_vec(),
                frequency,
                support,
            })
        })
        .collect();
    stats.tag_runs = tag_runs;
    solutions.sort_by(|a, b| a.assignment.cmp(&b.assignment));
    stats.solutions = solutions.len();
    done(solutions, stats, verdict)
}

/// All root-to-sink variable paths of the structure.
fn root_paths(s: &tgm_core::EventStructure) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut stack = vec![s.root()];
    fn dfs(
        s: &tgm_core::EventStructure,
        stack: &mut Vec<VarId>,
        out: &mut Vec<Vec<VarId>>,
    ) {
        // Invariant: the stack always holds at least the root.
        #[allow(clippy::expect_used)]
        let v = *stack.last().expect("non-empty");
        let children = s.children(v);
        if children.is_empty() {
            out.push(stack.clone());
            return;
        }
        for c in children {
            stack.push(c);
            dfs(s, stack, out);
            stack.pop();
        }
    }
    dfs(s, &mut stack, &mut out);
    out
}

/// In-order subsets of `items` of exactly `k` elements.
fn in_order_subsets(items: &[VarId], k: usize) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(items: &[VarId], k: usize, start: usize, cur: &mut Vec<VarId>, out: &mut Vec<Vec<VarId>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, k, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(items, k, 0, &mut cur, &mut out);
    out
}

/// Enumerates candidate type tuples for the given variables; `f` returns
/// `false` to stop the enumeration early.
fn enumerate_tuples(
    candidates: &[Vec<EventType>],
    vars: &[VarId],
    depth: usize,
    tuple: &mut Vec<EventType>,
    f: &mut impl FnMut(&[EventType]) -> bool,
) -> bool {
    if depth == vars.len() {
        return f(tuple);
    }
    for &ty in &candidates[vars[depth].index()] {
        tuple[depth] = ty;
        if !enumerate_tuples(candidates, vars, depth + 1, tuple, f) {
            return false;
        }
    }
    true
}

/// Whether the tuple (over `vars`) contains a previously banned sub-tuple.
fn tuple_contains_banned(
    vars: &[VarId],
    tuple: &[EventType],
    banned: &[(Vec<VarId>, BTreeSet<Vec<EventType>>)],
) -> bool {
    for (bvars, set) in banned {
        // The banned chain must be a subset of `vars` (in-order).
        let mut projected = Vec::with_capacity(bvars.len());
        let mut ok = true;
        for bv in bvars {
            match vars.iter().position(|v| v == bv) {
                Some(i) => projected.push(tuple[i]),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && set.contains(&projected) {
            return true;
        }
    }
    false
}

fn collect_assignments(
    candidates: &[Vec<EventType>],
    root: VarId,
    var: usize,
    cur: &mut Vec<EventType>,
    banned: &BTreeSet<(VarId, EventType, VarId, EventType)>,
    out: &mut Vec<Vec<EventType>>,
) {
    if var == candidates.len() {
        out.push(cur.clone());
        return;
    }
    if VarId(var) == root {
        collect_assignments(candidates, root, var + 1, cur, banned, out);
        return;
    }
    'next: for &ty in &candidates[var] {
        // Pair-screening check against earlier variables.
        for (earlier, &assigned) in cur.iter().enumerate().take(var) {
            if VarId(earlier) == root {
                continue;
            }
            let (a, b) = (VarId(earlier), VarId(var));
            if banned.contains(&(a, assigned, b, ty)) || banned.contains(&(b, ty, a, assigned)) {
                continue 'next;
            }
        }
        cur[var] = ty;
        collect_assignments(candidates, root, var + 1, cur, banned, out);
    }
}

#[cfg(test)]
mod tests {
    use tgm_core::{StructureBuilder, Tcg};
    use tgm_events::{Event, TypeRegistry};
    use tgm_granularity::Calendar;

    use super::*;
    use crate::naive;

    const DAY: i64 = 86_400;

    fn no_opt() -> PipelineOptions {
        PipelineOptions {
            consistency_screen: false,
            sequence_reduction: false,
            reference_pruning: false,
            candidate_screening: false,
            pair_screening: false,
            chain_screening_k: 0,
            window_limit: false,
            parallel: false,
            use_tick_columns: false,
            obs: ObsOptions::default(),
        }
    }

    /// Builds a workload where A is the reference and B follows the next
    /// day with frequency 3/4; C is noise.
    fn world() -> (TypeRegistry, EventSequence, DiscoveryProblem) {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b = reg.intern("B");
        let c = reg.intern("C");
        let mut events = Vec::new();
        // Mondays of 4 consecutive weeks (days 2, 9, 16, 23).
        for (i, d) in [2i64, 9, 16, 23].iter().enumerate() {
            events.push(Event::new(a, d * DAY + 10_000));
            if i != 3 {
                events.push(Event::new(b, (d + 1) * DAY + 5_000));
            }
            events.push(Event::new(c, d * DAY + 20_000));
        }
        let seq = EventSequence::from_events(events);
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.5, a);
        (reg, seq, p)
    }

    #[test]
    fn pipeline_matches_naive() {
        let (_reg, seq, p) = world();
        let (naive_sols, _) = naive::mine(&p, &seq);
        let (pipe_sols, stats) = mine(&p, &seq);
        assert_eq!(naive_sols, pipe_sols);
        assert_eq!(stats.solutions, 1);
        assert!(stats.candidates_after_var_screen <= stats.candidates_initial);
    }

    #[test]
    fn all_ablations_agree() {
        let (_reg, seq, p) = world();
        let (reference, _) = mine_with(&p, &seq, &no_opt());
        for bits in 0..256u32 {
            let opts = PipelineOptions {
                consistency_screen: bits & 1 != 0,
                sequence_reduction: bits & 2 != 0,
                reference_pruning: bits & 4 != 0,
                candidate_screening: bits & 8 != 0,
                pair_screening: bits & 16 != 0,
                chain_screening_k: if bits & 64 != 0 { 2 } else { 0 },
                window_limit: bits & 32 != 0,
                parallel: false,
                use_tick_columns: bits & 128 != 0,
                obs: ObsOptions::default(),
            };
            let (sols, _) = mine_with(&p, &seq, &opts);
            assert_eq!(sols, reference, "ablation {bits:08b} changed results");
        }
    }

    #[test]
    fn candidate_screening_prunes_noise_type() {
        let (_reg, seq, p) = world();
        let (_, stats) = mine(&p, &seq);
        // 3 occurring types initially; B survives screening, C and A are
        // pruned for X1 (they never appear exactly one day after A...
        // A does not, C appears same-day only).
        assert_eq!(stats.candidates_initial, 3);
        assert_eq!(stats.candidates_after_var_screen, 1);
    }

    #[test]
    fn inconsistent_structure_short_circuits() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(0, 0, cal.get("day").unwrap()));
        sb.constrain(x0, x1, Tcg::new(26, 30, cal.get("hour").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.1, a);
        let seq = EventSequence::from_events(vec![Event::new(a, 0)]);
        let (sols, stats) = mine(&p, &seq);
        assert!(sols.is_empty());
        assert!(stats.refuted);
        assert_eq!(stats.tag_runs, 0);
    }

    #[test]
    fn business_day_structure_drops_weekend_events() {
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b = reg.intern("B");
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("business-day").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.4, a);
        // A on Friday day 6 & Saturday day 7 (weekend ref can never match),
        // B on Monday day 9.
        let seq = EventSequence::from_events(vec![
            Event::new(a, 6 * DAY + 100),
            Event::new(a, 7 * DAY + 100),
            Event::new(b, 9 * DAY + 100),
        ]);
        let (sols, stats) = mine(&p, &seq);
        // Denominator 2 (both A's), support 1 (Friday ref) => 0.5 > 0.4.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].support, 1);
        assert!((sols[0].frequency - 0.5).abs() < 1e-9);
        // The Saturday A was dropped from scanning but kept in denominator.
        assert_eq!(stats.refs_total, 2);
        assert!(stats.events_kept < stats.events_total || stats.refs_kept == 1);
    }

    #[test]
    fn pair_screening_consistent_with_reference() {
        // Chain A -> B -> C where only specific pairs co-occur.
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let b1 = reg.intern("B1");
        let c1 = reg.intern("C1");
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        let x2 = sb.var("X2");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
        sb.constrain(x1, x2, Tcg::new(1, 1, cal.get("day").unwrap()));
        let s = sb.build().unwrap();
        let p = DiscoveryProblem::new(s, 0.5, a);
        let seq = EventSequence::from_events(vec![
            Event::new(a, 2 * DAY),
            Event::new(b1, 3 * DAY),
            Event::new(c1, 4 * DAY),
            Event::new(a, 9 * DAY),
            Event::new(b1, 10 * DAY),
            Event::new(c1, 11 * DAY),
        ]);
        let with_pairs = PipelineOptions {
            pair_screening: true,
            parallel: false,
            ..PipelineOptions::default()
        };
        let (sols_pairs, _) = mine_with(&p, &seq, &with_pairs);
        let (sols_plain, _) = mine(&p, &seq);
        assert_eq!(sols_pairs, sols_plain);
        assert_eq!(sols_pairs.len(), 1);
        assert_eq!(sols_pairs[0].assignment, vec![a, b1, c1]);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (_reg, seq, p) = world();
        let serial = PipelineOptions {
            parallel: false,
            ..PipelineOptions::default()
        };
        let (s1, _) = mine_with(&p, &seq, &serial);
        let (s2, _) = mine(&p, &seq);
        assert_eq!(s1, s2);
    }

    /// `k` candidate types for X1, each following the reference A one
    /// day later after two of every three references, so every candidate
    /// survives screening and is a solution (frequency 2/3 > 0.5).
    fn fan_world(k: u32, refs: i64) -> (EventSequence, DiscoveryProblem) {
        let a = EventType(0);
        let mut events = Vec::new();
        for r in 0..refs {
            let d = 2 + 7 * r;
            events.push(Event::new(a, d * DAY + 10_000));
            for t in 1..=k {
                if (r + i64::from(t)) % 3 != 0 {
                    events.push(Event::new(EventType(t), (d + 1) * DAY + i64::from(t)));
                }
            }
        }
        let cal = Calendar::standard();
        let mut sb = StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
        let s = sb.build().unwrap();
        (EventSequence::from_events(events), DiscoveryProblem::new(s, 0.5, a))
    }

    /// Each step-5 chunk shape, chosen by its input alone, agrees with the
    /// naive miner, performs one anchored run per (candidate, kept
    /// reference) pair, reports the chunks it dispatched, and under a
    /// budget `B` scans exactly the first `B` candidates.
    #[test]
    fn every_step5_shape_agrees_with_naive() {
        let w = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .max(2);
        let inline = PipelineOptions::builder().parallel(false).build();
        let parallel = PipelineOptions::default();
        // (shape, input, options, chunks dispatched for `allowed` candidates)
        type Chunks = fn(usize, usize, usize, usize) -> usize;
        let shapes: [(&str, (EventSequence, DiscoveryProblem), PipelineOptions, Chunks); 3] = [
            ("inline", fan_world(5, 6), inline, |_, _, _, _| 1),
            ("reference chunks", fan_world(1, 9), parallel, |w, _, refs, _| {
                refs.div_ceil(refs.div_ceil(w))
            }),
            ("candidate chunks", fan_world(2 * w as u32 + 1, 6), parallel, |w, len, _, allowed| {
                allowed.div_ceil(len.div_ceil(w))
            }),
        ];
        for (shape, (seq, p), opts, chunks) in shapes {
            let (expected, _) = naive::mine(&p, &seq);
            let (sols, st) = mine_with(&p, &seq, &opts);
            assert_eq!(sols, expected, "{shape}");
            let len = st.candidates_scanned as usize;
            assert_eq!(expected.len(), len, "{shape}: every candidate is a solution");
            assert_eq!(st.tag_runs, len * st.refs_kept, "{shape}");
            assert_eq!(st.step5_workers, chunks(w, len, st.refs_kept, len), "{shape}");
            match shape {
                "inline" => assert_eq!((st.step5_workers, st.sweep_chunks), (1, 0)),
                "reference chunks" => {
                    assert_eq!(len, 1);
                    assert_eq!(st.sweep_chunks, st.step5_workers);
                    assert!(st.step5_workers > 1);
                }
                _ => {
                    assert!(len > w);
                    assert_eq!(st.sweep_chunks, 0);
                    assert!(st.step5_workers > 1);
                }
            }
            for budget in 1..=len {
                let limits = Limits::none().with_budget(budget as u64);
                let run = mine_bounded(&p, &seq, &opts, &limits).unwrap();
                let verdict = if budget < len {
                    Verdict::Interrupted(Interrupt::BudgetExhausted)
                } else {
                    Verdict::Completed
                };
                assert_eq!(run.verdict, verdict, "{shape} budget {budget}");
                // Candidates enumerate in type order and all are solutions,
                // so the first B candidates are the first B solutions.
                assert_eq!(run.solutions, expected[..budget], "{shape} budget {budget}");
                assert_eq!(run.stats.tag_runs, budget * st.refs_kept, "{shape} budget {budget}");
                assert_eq!(
                    run.stats.step5_workers,
                    chunks(w, len, st.refs_kept, budget),
                    "{shape} budget {budget}"
                );
            }
        }
    }
}
