//! `stream_replay`: one long-lived evicting `MatchSession` for Example 1
//! fed a multi-year ticker the way `tgm stream --stats-every` feeds it:
//! each pre-rendered NDJSON chunk of 256 events is decoded with
//! `events::io::from_ndjson_into`, appended to the tick columns, pushed
//! row by row, and its completions drained, with an exporter frame
//! whenever the session says one is due. One op is one chunk; throughput
//! counts events. Each pass over the stream re-arms the session with
//! `reset`, so passes repeat identical work, and the end-to-end metrics
//! come from each chunk's fastest repeat (`measure::Best`).

use std::time::{Duration, Instant};

use tgm_core::examples::example_1;
use tgm_events::io::{from_ndjson_into, to_ndjson};
use tgm_events::{EventSequence, TickColumns, TypeRegistry};
use tgm_granularity::{Calendar, Gran};
use tgm_obs::{Exporter, ObsScope};
use tgm_tag::{build_tag, Completion, MatchSession, Push, Tag};

use crate::inputs::planted_stock_stream;
use crate::measure::{
    metric, overhead_pct, print_table, setup_metric, time_setups, Best, Metric, Op, Outcome,
    SameOutput, Stamp, Timed, Window,
};
use crate::Args;

/// Calendar days of ticker data: about 150k events.
const DAYS: i64 = 3_900;
/// Events per NDJSON chunk, as `tgm stream` reads them.
const CHUNK: usize = 256;
/// Events between exporter frames (`--stats-every`).
const STATS_EVERY: u64 = 4_096;
/// Set-ups timed before the window, and again after it.
const SETUPS: usize = 3;
/// Chunks of a set-up's warm-up pass: enough for one exporter frame. A
/// whole pass (about 600 chunks) made `setup_s` a second reading of the
/// window's own work, and one that swung with the host's speed 3x as
/// much as `throughput_per_s` does.
const WARMUP_CHUNKS: usize = 16;

/// Per-layer time accumulated by a traced pass, in nanoseconds.
#[derive(Default)]
struct LayerNs {
    decode: u64,
    append: u64,
    push: u64,
    drain: u64,
    frame: u64,
}

/// The program's streaming state, as `tgm stream` holds it: one session
/// and one exporter that live across passes.
struct Pipeline {
    registry: TypeRegistry,
    grans: Vec<Gran>,
    scope: ObsScope,
    exporter: Exporter,
    session: MatchSession<'static>,
}

struct PassResult {
    completions: Vec<Completion>,
    ops: Vec<Op>,
    events: u64,
    chunks: u64,
    failed: u64,
    frames: u64,
    peak_frontier: usize,
    evicted_rows: u64,
    evictions: u64,
    completed_at: u64,
}

impl Pipeline {
    fn new() -> Self {
        let mut registry = TypeRegistry::new();
        let (cet, _) = example_1(&Calendar::standard(), &mut registry);
        // The session borrows its TAG for the life of the process; a set-up
        // leaks one small automaton.
        let tag: &'static Tag = Box::leak(Box::new(build_tag(&cet)));
        let grans = tag.clocks().iter().map(|(_, g)| g.clone()).collect();
        let scope = ObsScope::with_recorder(256);
        Pipeline {
            registry,
            grans,
            exporter: Exporter::new(scope.clone()),
            session: MatchSession::new(tag)
                .with_eviction()
                .with_scope(scope.clone())
                .with_stats_every(STATS_EVERY),
            scope,
        }
    }

    /// One pass over every chunk. With `layers`, each layer's calls are
    /// timed separately; without, only whole chunks are. With `best`,
    /// each chunk's time is recorded under its position in the stream.
    /// The pass stops early at `deadline`.
    fn pass(
        &mut self,
        chunks: &[String],
        deadline: Option<Instant>,
        mut layers: Option<&mut LayerNs>,
        mut best: Option<&mut Best>,
    ) -> PassResult {
        let _g = self.scope.enter();
        let session = &mut self.session;
        session.reset();
        let mut cols = TickColumns::with_granularities(&self.grans);
        let mut out = PassResult {
            completions: Vec::new(),
            ops: Vec::with_capacity(chunks.len()),
            events: 0,
            chunks: 0,
            failed: 0,
            frames: 0,
            peak_frontier: 0,
            evicted_rows: 0,
            evictions: 0,
            completed_at: 0,
        };
        for (idx, text) in chunks.iter().enumerate() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let stamp = Stamp::now();
            let t0 = stamp.wall;
            let seq = match from_ndjson_into(text, &mut self.registry) {
                Ok(seq) => seq,
                Err(e) => {
                    println!("stream_replay: chunk rejected: {e}");
                    out.chunks += 1;
                    out.failed += 1;
                    continue;
                }
            };
            let t1 = Instant::now();
            let base = cols.len();
            cols.append(seq.events());
            let t2 = Instant::now();
            let mut frame_ns = 0;
            let mut ok = true;
            for (i, &e) in seq.events().iter().enumerate() {
                if !matches!(session.push_row(e, &cols, base + i), Push::Advanced { .. }) {
                    ok = false;
                    break;
                }
                if session.stats_due() {
                    let f0 = Instant::now();
                    let mut frame = self.exporter.frame();
                    let s = session.stats();
                    frame.set_gauge("frontier", s.frontier as f64);
                    frame.set_gauge("events_total", s.events as f64);
                    frame.set_gauge("evicted_rows_total", s.evicted_rows as f64);
                    frame.set_gauge(
                        "watermark_lag",
                        session.watermark_lag().map_or(-1.0, |v| v as f64),
                    );
                    std::hint::black_box(frame.to_ndjson());
                    out.frames += 1;
                    frame_ns += f0.elapsed().as_nanos() as u64;
                }
            }
            let t3 = Instant::now();
            out.completions.extend(session.completed());
            let t4 = Instant::now();
            out.chunks += 1;
            if !ok {
                println!("stream_replay: session stopped consuming events");
                out.failed += 1;
                break;
            }
            out.events += seq.len() as u64;
            out.ops.push(Op::ended(t0, seq.len() as u64));
            if let Some(b) = best.as_deref_mut() {
                b.record(idx, stamp, seq.len() as u64);
            }
            if let Some(l) = layers.as_deref_mut() {
                l.decode += (t1 - t0).as_nanos() as u64;
                l.append += (t2 - t1).as_nanos() as u64;
                l.push += (t3 - t2).as_nanos() as u64 - frame_ns;
                l.frame += frame_ns;
                l.drain += (t4 - t3).as_nanos() as u64;
            }
        }
        let s = session.stats();
        out.peak_frontier = s.peak_frontier;
        out.evicted_rows = s.evicted_rows;
        out.evictions = s.evictions;
        out.completed_at = s.completions;
        out
    }
}

pub fn run(args: &Args) -> Outcome {
    let (gen_registry, stream) = planted_stock_stream(DAYS, args.seed);
    let chunks: Vec<String> = stream
        .events()
        .chunks(CHUNK)
        .map(|c| to_ndjson(&EventSequence::from_events(c.to_vec()), &gen_registry))
        .collect();
    // Live telemetry is on, as under `tgm stream --stats-every`.
    tgm_obs::set_enabled(true);
    // Set-up: calendar, Example-1 TAG, and a warm-up pass over the first
    // chunks.
    let mut setup = || {
        let mut p = Pipeline::new();
        p.pass(&chunks[..WARMUP_CHUNKS.min(chunks.len())], None, None, None);
        p
    };
    let mut setup_times = Vec::new();
    let mut pipeline = time_setups(SETUPS, &mut setup_times, &mut setup);

    let scope = pipeline.scope.clone();
    let mut passes = SameOutput::new();
    let mut best = Best::new(chunks.len());
    let mut window =
        |len: Duration, mut layers: Option<&mut LayerNs>| -> (Timed, Vec<PassResult>) {
            let win = Window::open(len);
            let mut results = Vec::new();
            while !win.expired() {
                let mut r = pipeline.pass(
                    &chunks,
                    Some(win.deadline()),
                    layers.as_deref_mut(),
                    Some(&mut best),
                );
                // Only passes that ran to the end of the stream are checked.
                let completions = std::mem::take(&mut r.completions);
                if r.chunks == chunks.len() as u64 {
                    passes.record(completions);
                }
                results.push(r);
            }
            let (wall_s, cpu_s) = win.close();
            let timed = Timed {
                wall_s,
                cpu_s,
                ops: results
                    .iter_mut()
                    .flat_map(|r| std::mem::take(&mut r.ops))
                    .collect(),
                attempted: results.iter().map(|r| r.chunks).sum(),
                failed: results.iter().map(|r| r.failed).sum(),
            };
            (timed, results)
        };

    let (mut metrics, attempted, failed);
    if args.trace {
        let (untraced, _) = window(args.share(0.5), None);
        let mut ns = LayerNs::default();
        let before = scope.snapshot();
        let (traced, results) = window(args.share(0.5), Some(&mut ns));
        let delta = scope.snapshot().delta(&before);
        metrics = layers(
            &ns,
            &traced,
            &results,
            &delta,
            overhead_pct(&untraced, &traced),
        );
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;
    } else {
        let (timed, _) = window(args.window(), None);
        println!("window: {:.0} events/s", timed.throughput());
        metrics = best.end_to_end();
        attempted = timed.attempted;
        failed = timed.failed;
        time_setups(SETUPS, &mut setup_times, &mut setup);
        metrics.push(setup_metric(&setup_times));
    }

    // Oracle: stream ≡ batch. One unchunked `push_batch` over the whole
    // sequence must complete at exactly the same events.
    let mut registry = TypeRegistry::new();
    let (cet, _) = example_1(&Calendar::standard(), &mut registry);
    let batch_events = remap(&stream, &gen_registry, &mut registry);
    let tag = build_tag(&cet);
    let mut batch = MatchSession::new(&tag);
    batch.push_batch(&batch_events);
    let expected: Vec<Completion> = batch.completed().collect();
    let correct = passes.differing == 0 && passes.first() == Some(&expected);
    if !correct {
        println!("stream_replay: chunked completions differ from the batch run");
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// The generated events re-interned into `reg` by type name.
fn remap(
    seq: &EventSequence,
    from: &TypeRegistry,
    reg: &mut TypeRegistry,
) -> Vec<tgm_events::Event> {
    seq.events()
        .iter()
        .map(|e| tgm_events::Event::new(reg.intern(from.name(e.ty)), e.time))
        .collect()
}

fn layers(
    ns: &LayerNs,
    traced: &Timed,
    results: &[PassResult],
    delta: &tgm_obs::Snapshot,
    overhead: f64,
) -> Vec<Metric> {
    let events = traced.units().max(1) as f64;
    let frames: u64 = results.iter().map(|r| r.frames).sum();
    let ms = |v: u64| v as f64 / 1e6;
    let named = [
        ("events.io.decode", ms(ns.decode)),
        ("events.columns.append", ms(ns.append)),
        ("tag.session.push", ms(ns.push)),
        ("tag.session.drain", ms(ns.drain)),
        ("obs.export.frame", ms(ns.frame)),
    ];
    let wall_ms = traced.wall_s * 1e3;
    print_table("stream_replay", "chunk", traced.attempted, wall_ms, &named);
    let evict_ms = delta
        .spans
        .get("session.evict")
        .map_or(0.0, |s| s.total_ms());
    println!("  inside tag.session.push: session.evict spans {evict_ms:.3} ms");
    let covered: f64 = named.iter().map(|(_, v)| v).sum();
    let passes = results.len().max(1) as f64;
    let mean = |f: fn(&PassResult) -> f64| results.iter().map(f).sum::<f64>() / passes;
    vec![
        metric("events.io.decode_ns", ns.decode as f64 / events, "ns"),
        metric("events.columns.append_ns", ns.append as f64 / events, "ns"),
        metric("tag.session.push_ns", ns.push as f64 / events, "ns"),
        metric("tag.session.drain_ns", ns.drain as f64 / events, "ns"),
        metric(
            "obs.export.frame_us",
            ns.frame as f64 / 1e3 / frames.max(1) as f64,
            "us",
        ),
        metric(
            "tag.session.peak_frontier",
            mean(|r| r.peak_frontier as f64),
            "count",
        ),
        metric(
            "tag.session.evicted_rows",
            mean(|r| r.evicted_rows as f64),
            "count",
        ),
        metric(
            "tag.session.evictions",
            delta.metrics.counter("tag.session.evictions") as f64 / passes,
            "count",
        ),
        metric(
            "tag.session.completions",
            mean(|r| r.completed_at as f64),
            "count",
        ),
        metric("obs.export.frames", frames as f64 / passes, "count"),
        metric(
            "stream_replay.unattributed_ms",
            (wall_ms - covered) / traced.attempted.max(1) as f64,
            "ms",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ]
}
