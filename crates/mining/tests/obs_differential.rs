//! Differential tests for mining observability: enabling the process-wide
//! obs toggle (or flipping the per-run `ObsOptions` knobs) must not change
//! solutions or stats, for the naive miner and for every step-5 chunk
//! shape of the pipeline (inline, reference chunks, candidate chunks) —
//! and each shape must populate identically shaped `PipelineStats`.

use parking_lot::Mutex;
use tgm_core::{StructureBuilder, Tcg, VarId};
use tgm_events::{Event, EventSequence, EventType, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_mining::naive::{self, NaiveOptions};
use tgm_mining::pipeline::{self, PipelineOptions, PipelineStats};
use tgm_mining::{DiscoveryProblem, Solution};
use tgm_obs::ObsOptions;

/// Serializes tests that toggle the process-wide obs flag.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const DAY: i64 = 86_400;

/// A 3-variable chain workload: A on Mondays, B next day (3 of 4 weeks),
/// C two days after A (2 of 4 weeks), plus same-day noise.
fn world() -> (EventSequence, DiscoveryProblem) {
    let mut reg = TypeRegistry::new();
    let a = reg.intern("A");
    let b = reg.intern("B");
    let c = reg.intern("C");
    let mut events = Vec::new();
    for (i, d) in [2i64, 9, 16, 23].iter().enumerate() {
        events.push(Event::new(a, d * DAY + 10_000));
        if i != 3 {
            events.push(Event::new(b, (d + 1) * DAY + 5_000));
        }
        if i < 2 {
            events.push(Event::new(c, (d + 2) * DAY + 7_000));
        }
        events.push(Event::new(c, d * DAY + 20_000));
    }
    let seq = EventSequence::from_events(events);
    let cal = Calendar::standard();
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    let x2 = sb.var("X2");
    sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
    sb.constrain(x1, x2, Tcg::new(0, 1, cal.get("day").unwrap()));
    let s = sb.build().unwrap();
    (seq, DiscoveryProblem::new(s, 0.4, a))
}

/// The worker count step 5 splits its scan across when parallel.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .max(2)
}

/// More X1 candidate types than workers, each following A the next day
/// after every reference, so step 5 splits the candidates.
fn wide_world() -> (EventSequence, DiscoveryProblem) {
    let k = 2 * workers() as u32 + 1;
    let a = EventType(0);
    let mut events = Vec::new();
    for d in [2i64, 9, 16, 23] {
        events.push(Event::new(a, d * DAY + 10_000));
        for t in 1..=k {
            events.push(Event::new(EventType(t), (d + 1) * DAY + i64::from(t)));
        }
    }
    let cal = Calendar::standard();
    let mut sb = StructureBuilder::new();
    let x0 = sb.var("X0");
    let x1 = sb.var("X1");
    sb.constrain(x0, x1, Tcg::new(1, 1, cal.get("day").unwrap()));
    let s = sb.build().unwrap();
    (EventSequence::from_events(events), DiscoveryProblem::new(s, 0.4, a))
}

/// The three step-5 chunk shapes, each chosen by its input: `parallel`
/// off runs one chunk inline; one candidate over several references
/// splits the references; more candidates than workers split the
/// candidates. Everything else at defaults.
fn step5_shapes(
    obs: ObsOptions,
) -> Vec<(&'static str, EventSequence, DiscoveryProblem, PipelineOptions)> {
    let parallel = PipelineOptions::builder().obs(obs).build();
    let inline = parallel.to_builder().parallel(false).build();
    let (seq, p) = world();
    // X1 = B, X2 = C: the one candidate occurs after two references.
    let one = p
        .clone()
        .with_candidates(VarId(1), [EventType(1)])
        .with_candidates(VarId(2), [EventType(2)]);
    let (wide_seq, wide) = wide_world();
    vec![
        ("inline", seq.clone(), p, inline),
        ("reference-chunks", seq, one, parallel),
        ("candidate-chunks", wide_seq, wide, parallel),
    ]
}

fn run_all(obs: ObsOptions) -> Vec<(&'static str, Vec<Solution>, PipelineStats)> {
    step5_shapes(obs)
        .into_iter()
        .map(|(name, seq, p, opts)| {
            let (sols, stats) = pipeline::mine_with(&p, &seq, &opts);
            (name, sols, stats)
        })
        .collect()
}

#[test]
fn pipeline_results_identical_with_obs_on_and_off() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    let baseline = run_all(ObsOptions::default());

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let observed = run_all(ObsOptions::default());
    let metrics = tgm_obs::metrics::snapshot();
    let spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "observability changed a mining result");
    // Instrumentation really fired: run counters, the §5 per-step spans,
    // and the shared-scan counters flowing up from the anchored passes.
    assert_eq!(metrics.counter("mining.pipeline.runs"), 3);
    assert!(metrics.counter("mining.pipeline.tag_runs") > 0);
    assert!(metrics.counter("tag.multi.runs") > 0);
    assert!(metrics.counter("tag.multi.candidates") > 0);
    for name in [
        "pipeline",
        "pipeline.step1.consistency",
        "pipeline.step2.sequence_reduction",
        "pipeline.step3_4.screening",
        "pipeline.step5.scan",
    ] {
        assert!(spans.get(name).is_some(), "missing span {name}");
    }
    tgm_obs::reset();
}

/// Every step-5 chunk shape reports the same stats as one inline chunk
/// over the same input, except the two fields that describe the shape
/// itself; those name the shape that ran.
#[test]
fn step5_shapes_populate_stats_identically() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    for (name, seq, p, opts) in step5_shapes(ObsOptions::default()) {
        let (sols, stats) = pipeline::mine_with(&p, &seq, &opts);
        let inline = opts.to_builder().parallel(false).build();
        let (base_sols, base) = pipeline::mine_with(&p, &seq, &inline);
        assert_eq!((base.step5_workers, base.sweep_chunks), (1, 0));
        assert_eq!(sols, base_sols, "{name} changed solutions");
        let shape = (stats.step5_workers, stats.sweep_chunks);
        match name {
            "inline" => assert_eq!(shape, (1, 0)),
            "reference-chunks" => assert!(shape.0 > 1 && shape.1 == shape.0, "{shape:?}"),
            _ => assert!(shape.0 > 1 && shape.1 == 0, "{shape:?}"),
        }
        let normalized = PipelineStats {
            step5_workers: 1,
            sweep_chunks: 0,
            ..stats
        };
        assert_eq!(normalized, base, "{name} stats diverged");
    }
}

/// Every step-5 shape run inside a recorder-equipped scoped metric domain
/// (with an exporter pulling frames between shapes) produces bit-identical
/// solutions and stats; worker threads inherit the scope, so nothing
/// leaks into the default registry.
#[test]
fn scoped_pipeline_results_identical_and_contained() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    let baseline = run_all(ObsOptions::default());

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let scope = tgm_obs::ObsScope::with_recorder(128);
    let mut exporter = tgm_obs::Exporter::new(scope.clone());
    let (observed, frame) = {
        let _in = scope.enter();
        let out = run_all(ObsOptions::default());
        (out, exporter.frame())
    };
    let default_metrics = tgm_obs::metrics::snapshot();
    let default_spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed, "scoped observability changed a result");
    // The scope saw the whole funnel — including counters emitted from
    // crossbeam workers, which enter the caller's scope at spawn.
    assert_eq!(frame.delta.metrics.counter("mining.pipeline.runs"), 3);
    assert!(frame.delta.metrics.counter("mining.pipeline.tag_runs") > 0);
    assert!(frame.delta.metrics.counter("tag.multi.runs") > 0);
    assert!(frame.delta.spans.get("pipeline").is_some());
    assert!(
        frame.delta.spans.get("pipeline.step5.worker").is_some(),
        "worker spans did not land in the scope"
    );
    // …and none of it escaped to the default registry.
    assert_eq!(default_metrics.counter("mining.pipeline.runs"), 0);
    assert_eq!(default_metrics.counter("tag.multi.runs"), 0);
    assert!(default_spans.get("pipeline").is_none());
    tgm_obs::reset();
}

#[test]
fn naive_results_identical_with_obs_on_and_off() {
    let _guard = TEST_LOCK.lock();
    let (seq, p) = world();
    let modes = [
        NaiveOptions::default(),
        NaiveOptions {
            parallel_sweep: true,
            ..Default::default()
        },
    ];

    tgm_obs::set_enabled(false);
    let baseline: Vec<_> = modes.iter().map(|o| naive::mine_with(&p, &seq, o)).collect();

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let observed: Vec<_> = modes.iter().map(|o| naive::mine_with(&p, &seq, o)).collect();
    let metrics = tgm_obs::metrics::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, observed);
    assert_eq!(metrics.counter("mining.naive.runs"), 2);
    assert!(metrics.counter("mining.naive.tag_runs") > 0);
    // The naive miner runs one packed matcher per anchored run.
    assert!(metrics.counter("tag.matcher.runs") > 0);
    tgm_obs::reset();
}

/// The per-run `silent()` knob suppresses emission even with the global
/// toggle on, without changing results.
#[test]
fn silent_knob_suppresses_pipeline_emission() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    let baseline = run_all(ObsOptions::default());

    tgm_obs::set_enabled(true);
    tgm_obs::reset();
    let quiet = run_all(ObsOptions::silent());
    let metrics = tgm_obs::metrics::snapshot();
    let spans = tgm_obs::span::snapshot();
    tgm_obs::set_enabled(false);

    assert_eq!(baseline, quiet);
    assert_eq!(metrics.counter("mining.pipeline.runs"), 0);
    assert_eq!(metrics.counter("tag.matcher.runs"), 0);
    assert_eq!(metrics.counter("tag.multi.runs"), 0);
    assert!(spans.get("pipeline").is_none());
    tgm_obs::reset();
}

/// Step-5 oracle: on every chunk shape the pipeline finds exactly the
/// naive miner's solutions, with one anchored run per (candidate, kept
/// reference) pair. The shared-scan engine itself is held to the
/// per-candidate matcher by the tag crate's multi-TAG differential tests.
#[test]
fn every_step5_shape_matches_naive() {
    let _guard = TEST_LOCK.lock();
    tgm_obs::set_enabled(false);
    for (name, seq, p, opts) in step5_shapes(ObsOptions::default()) {
        let (expected, _) = naive::mine(&p, &seq);
        let (sols, stats) = pipeline::mine_with(&p, &seq, &opts);
        assert!(!expected.is_empty(), "{name}: the fixture must have solutions");
        assert_eq!(sols, expected, "{name}: pipeline disagrees with naive");
        assert_eq!(
            stats.tag_runs as u64,
            stats.candidates_scanned * stats.refs_kept as u64,
            "{name}"
        );
    }
}
