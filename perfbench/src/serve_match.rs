//! `serve_match`: `match` requests over TCP loopback to an in-process
//! `tgm_serve` server (two workers), from two connections of one tenant
//! each. The loop is closed: each connection sends its next request only
//! after the reply to the previous one. Each request carries one of eight
//! Example-1-family structures and a 256-event window of a planted ticker
//! (about 9 KB). Admission cannot shed at this load: each tenant has at
//! most one request in flight against an inflight cap of two, and the
//! queue holds four. No deadline or budget is set.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::{ComplexEventType, EventStructure, StructureBuilder, Tcg};
use tgm_events::minijson::{self, Value};
use tgm_events::{Event, EventType, TypeRegistry};
use tgm_granularity::Calendar;
use tgm_limits::Quotas;
use tgm_obs::ObsScope;
use tgm_serve::proto::{parse_request, Request, Response};
use tgm_serve::{read_frame, write_frame, Server, ServerConfig};
use tgm_tag::{build_tag, MatchSession};

use crate::inputs::planted_stock_stream;
use crate::measure::{
    end_to_end, metric, overhead_pct, print_table, setup_metric, time_setups, Metric, Op, Outcome,
    SameOutput, Timed, Window,
};
use crate::Args;

const CONNECTIONS: usize = 2;
/// Events per request.
const WINDOW: usize = 256;
/// Distinct payloads per connection; requests cycle through them.
const POOL: usize = 64;
/// Requests each connection sends during a set-up's warm-up.
const WARMUP: usize = 8;
/// Set-ups timed before the window, and again after it.
const SETUPS: usize = 2;
const TYPES: [&str; 4] = ["IBM-rise", "IBM-earnings-report", "HP-rise", "IBM-fall"];

/// Figure 1(a) with three of its four constraints varied: bit 0 widens
/// X0→X1, bit 1 swaps X0→X2 to days, bit 2 swaps X2→X3 to one day.
fn constraints(variant: usize) -> [(usize, usize, u64, u64, &'static str); 4] {
    let bit = |b: usize| variant >> b & 1 == 1;
    [
        if bit(0) {
            (0, 1, 0, 2, "business-day")
        } else {
            (0, 1, 1, 1, "business-day")
        },
        (1, 3, 0, 1, "week"),
        if bit(1) {
            (0, 2, 0, 3, "day")
        } else {
            (0, 2, 0, 5, "business-day")
        },
        if bit(2) {
            (2, 3, 0, 1, "day")
        } else {
            (2, 3, 0, 8, "hour")
        },
    ]
}

fn structure(variant: usize, cal: &Calendar) -> EventStructure {
    let mut b = StructureBuilder::new();
    let x: Vec<_> = (0..4).map(|i| b.var(format!("X{i}"))).collect();
    for (from, to, lo, hi, g) in constraints(variant) {
        b.constrain(
            x[from],
            x[to],
            Tcg::new(lo, hi, cal.get(g).expect("standard granularity")),
        );
    }
    b.build().expect("Figure 1(a) variants are valid")
}

/// One request of the pool: its structure variant and events, and the
/// payload each connection sends for it.
struct Payload {
    variant: usize,
    events: Vec<(String, i64)>,
    payloads: Vec<String>,
    frames: Vec<Vec<u8>>,
}

fn render(tenant: &str, variant: usize, events: &[(String, i64)]) -> String {
    let mut out = format!("{{\"op\":\"match\",\"tenant\":\"{tenant}\",\"structure\":{{\"variables\":[\"X0\",\"X1\",\"X2\",\"X3\"],\"constraints\":[");
    for (i, (from, to, lo, hi, g)) in constraints(variant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"from\":{from},\"to\":{to},\"lo\":{lo},\"hi\":{hi},\"granularity\":\"{g}\"}}"
        ));
    }
    out.push_str("]},\"types\":[");
    out.push_str(&TYPES.map(|t| format!("\"{t}\"")).join(","));
    out.push_str("],\"events\":[");
    for (i, (ty, time)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"ty\":\"{ty}\",\"time\":{time}}}"));
    }
    out.push_str("]}");
    out
}

fn generate(seed: u64) -> Vec<Payload> {
    let (reg, stream) = planted_stock_stream(400, seed);
    let events = stream.events();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    (0..POOL)
        .map(|k| {
            let start = rng.gen_range(0..events.len() - WINDOW);
            let window: Vec<(String, i64)> = events[start..start + WINDOW]
                .iter()
                .map(|e| (reg.name(e.ty).to_string(), e.time))
                .collect();
            let variant = k % 8;
            let payloads: Vec<String> = (0..CONNECTIONS)
                .map(|c| render(&format!("conn-{c}"), variant, &window))
                .collect();
            let frames = payloads
                .iter()
                .map(|p| {
                    let mut f = Vec::new();
                    write_frame(&mut f, p.as_bytes()).expect("writing to a Vec cannot fail");
                    f
                })
                .collect();
            Payload {
                variant,
                events: window,
                payloads,
                frames,
            }
        })
        .collect()
}

/// A running server with its client connections. Dropping it closes the
/// connections and drains the server, joining its acceptor and workers.
struct Live {
    server: Option<Server>,
    conns: Vec<TcpStream>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.drain();
        }
    }
}

/// What one connection saw in a window.
struct ConnLog {
    ops: Vec<Op>,
    /// Ok responses per pool index: the first one is kept for the oracle
    /// and later ones are compared with it, so memory does not grow with
    /// the number of requests.
    responses: Vec<SameOutput<String>>,
    /// Ok responses per pool index.
    oks: Vec<u64>,
    attempted: u64,
    failed: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl ConnLog {
    fn new() -> Self {
        ConnLog {
            ops: Vec::new(),
            responses: (0..POOL).map(|_| SameOutput::new()).collect(),
            oks: vec![0; POOL],
            attempted: 0,
            failed: 0,
            request_bytes: 0,
            response_bytes: 0,
        }
    }
}

/// Closed loop on one connection until `deadline` (or `limit` requests).
fn drive(
    conn: usize,
    stream: &TcpStream,
    pool: &[Payload],
    deadline: Instant,
    limit: usize,
) -> ConnLog {
    let mut log = ConnLog::new();
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    // Connections start at different points of the pool.
    let mut k = conn * POOL / CONNECTIONS;
    while Instant::now() < deadline && (log.attempted as usize) < limit {
        let idx = k % POOL;
        k += 1;
        let frame = &pool[idx].frames[conn];
        log.attempted += 1;
        let t0 = Instant::now();
        let reply = writer
            .write_all(frame)
            .map_err(|e| e.to_string())
            .and_then(|()| read_frame(&mut reader).map_err(|e| e.to_string()));
        let op = Op::ended(t0, 1);
        let payload = match reply {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => {
                // A broken connection fails this request and ends the loop;
                // nothing is retried.
                log.failed += 1;
                break;
            }
        };
        let text = String::from_utf8_lossy(&payload).into_owned();
        match Response::parse(&text) {
            Ok(Response::Ok(_)) => {
                log.ops.push(op);
                log.request_bytes += frame.len() as u64;
                log.response_bytes += payload.len() as u64;
                log.responses[idx].record(text);
                log.oks[idx] += 1;
            }
            Ok(Response::Err { kind, message, .. }) => {
                println!("serve_match: request failed: {kind:?}: {message}");
                log.failed += 1;
            }
            Err(e) => {
                println!("serve_match: malformed response: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

/// Runs every connection's loop in parallel and merges their logs.
fn drive_all(live: &Live, pool: &[Payload], deadline: Instant, limit: usize) -> Vec<ConnLog> {
    thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter()
            .enumerate()
            .map(|(c, stream)| s.spawn(move || drive(c, stream, pool, deadline, limit)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn start(pool: &[Payload]) -> Live {
    let config = ServerConfig {
        workers: 2,
        queue_depth: 4,
        default_quotas: Quotas::unlimited().with_max_inflight(2),
        tenant_quotas: Vec::new(),
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
    let addr = server.local_addr();
    let conns = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect to the server"))
        .collect();
    let live = Live {
        server: Some(server),
        conns,
    };
    let far = Instant::now() + Duration::from_secs(60);
    let warm = drive_all(&live, pool, far, WARMUP);
    assert!(
        warm.iter().all(|l| l.failed == 0),
        "warm-up requests failed"
    );
    live
}

fn window(live: &Live, pool: &[Payload], len: Duration, logs: &mut Vec<ConnLog>) -> Timed {
    let win = Window::open(len);
    let new = drive_all(live, pool, win.deadline(), usize::MAX);
    let (wall_s, cpu_s) = win.close();
    let timed = Timed {
        wall_s,
        cpu_s,
        ops: new.iter().flat_map(|l| l.ops.iter().copied()).collect(),
        attempted: new.iter().map(|l| l.attempted).sum(),
        failed: new.iter().map(|l| l.failed).sum(),
    };
    logs.extend(new);
    timed
}

pub fn run(args: &Args) -> Outcome {
    let pool = generate(args.seed);
    // Set-up: server start, connections, and a warm-up of eight requests
    // per connection.
    let mut setup_times = Vec::new();
    let live = time_setups(SETUPS, &mut setup_times, || start(&pool));

    let mut logs = Vec::new();
    let (mut metrics, attempted, failed);
    if args.trace {
        let untraced = window(&live, &pool, args.share(0.4), &mut logs);
        let first = logs.len();
        let traced = window(&live, &pool, args.share(0.4), &mut logs);
        let deadline = Instant::now() + args.share(0.2);
        metrics = layers(
            &live,
            &pool,
            &traced,
            &logs[first..],
            deadline,
            overhead_pct(&untraced, &traced),
        );
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;
    } else {
        let timed = window(&live, &pool, args.window(), &mut logs);
        metrics = end_to_end(&timed);
        attempted = timed.attempted;
        failed = timed.failed;
    }
    drop(live);
    if !args.trace {
        drop(time_setups(SETUPS, &mut setup_times, || start(&pool)));
        metrics.push(setup_metric(&setup_times));
    }

    // Oracle: each ok response's completions equal a library session's on
    // the same structure and events. Every response to a payload equals
    // the first one kept for it, which is checked against the library.
    let cal = Calendar::standard();
    let expected: Vec<Vec<(u64, i64)>> =
        pool.iter().map(|p| library_completions(p, &cal)).collect();
    let mismatched: u64 = logs
        .iter()
        .flat_map(|l| l.responses.iter().zip(&l.oks).zip(&expected))
        .map(|((kept, &oks), want)| {
            let first_wrong = kept
                .first()
                .is_some_and(|text| response_completions(text).as_ref() != Some(want));
            if first_wrong {
                oks - kept.differing
            } else {
                kept.differing
            }
        })
        .sum();
    if mismatched > 0 {
        println!(
            "serve_match: {mismatched} responses differ from the library session \
             or from other responses to the same payload"
        );
    }
    Outcome {
        correct: mismatched == 0,
        attempted,
        failed,
        metrics,
    }
}

fn library_completions(p: &Payload, cal: &Calendar) -> Vec<(u64, i64)> {
    let mut reg = TypeRegistry::new();
    let phi: Vec<EventType> = TYPES.iter().map(|t| reg.intern(t)).collect();
    let events: Vec<Event> = p
        .events
        .iter()
        .map(|(ty, t)| Event::new(reg.intern(ty), *t))
        .collect();
    let tag = build_tag(&ComplexEventType::new(structure(p.variant, cal), phi));
    let mut session = MatchSession::new(&tag);
    session.push_batch(&events);
    session.completed().map(|c| (c.index, c.at)).collect()
}

fn response_completions(text: &str) -> Option<Vec<(u64, i64)>> {
    let doc = minijson::parse(text).ok()?;
    doc.get("result")?
        .get("completions")?
        .as_array()?
        .iter()
        .map(|c| Some((c.get("index")?.as_u64()?, c.get("at")?.as_i64()?)))
        .collect()
}

fn field_u64(text: &str, name: &str) -> u64 {
    minijson::parse(text)
        .ok()
        .and_then(|d| {
            d.get("result")
                .and_then(|r| r.get(name))
                .and_then(Value::as_u64)
        })
        .unwrap_or(0)
}

/// In-process time per layer, summed over a replay.
#[derive(Default)]
struct Replay {
    requests: usize,
    request: f64,
    parse: f64,
    build: f64,
    scan: f64,
}

/// Replays one connection's payloads in-process until `deadline` (and at
/// least once through its share of the pool), timing `Client::request`
/// and, separately, the three calls a worker makes for a match request.
fn replay(
    conn: usize,
    server: &Server,
    pool: &[Payload],
    scope: &ObsScope,
    deadline: Instant,
) -> Replay {
    let client = server.core().client();
    let mut r = Replay::default();
    let mut k = conn * POOL / CONNECTIONS;
    while r.requests < POOL / CONNECTIONS || Instant::now() < deadline {
        let payload = &pool[k % POOL].payloads[conn];
        k += 1;
        r.requests += 1;
        let t0 = Instant::now();
        std::hint::black_box(client.request(payload));
        let t1 = Instant::now();
        let Ok(Request::Match {
            structure,
            types,
            events,
            mut registry,
            ..
        }) = parse_request(payload)
        else {
            panic!("pool payloads are match requests");
        };
        let t2 = Instant::now();
        let phi: Vec<EventType> = types.iter().map(|t| registry.intern(t)).collect();
        let tag = build_tag(&ComplexEventType::new(structure, phi));
        let t3 = Instant::now();
        {
            let _g = scope.enter();
            let mut session = MatchSession::new(&tag);
            session.push_batch(&events);
            std::hint::black_box(session.completed().count());
            std::hint::black_box(session.finish());
        }
        let t4 = Instant::now();
        r.request += (t1 - t0).as_secs_f64() * 1e3;
        r.parse += (t2 - t1).as_secs_f64() * 1e3;
        r.build += (t3 - t2).as_secs_f64() * 1e3;
        r.scan += (t4 - t3).as_secs_f64() * 1e3;
    }
    r
}

/// Per-layer split of the traced TCP window. The same payload mix is
/// replayed in-process from as many threads at once as the TCP window had
/// connections, so queue wait and CPU contention between concurrent
/// requests land in `serve.core`, as they did over TCP, not in transport.
/// Transport and core are remainders, so the named layers add up to the
/// round trip by construction; the remainder of the wall time is only the
/// clients' time between requests.
fn layers(
    live: &Live,
    pool: &[Payload],
    traced: &Timed,
    logs: &[ConnLog],
    deadline: Instant,
    overhead: f64,
) -> Vec<Metric> {
    let server = live.server.as_ref().expect("server is live");
    let scope = ObsScope::new();
    let replays: Vec<Replay> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let scope = &scope;
                s.spawn(move || replay(c, server, pool, scope, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let total = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let (request, parse, build, scan) = (
        total(|r| r.request),
        total(|r| r.parse),
        total(|r| r.build),
        total(|r| r.scan),
    );
    let n: usize = replays.iter().map(|r| r.requests).sum();
    let per = |v: f64| v / n as f64;
    let round_trips = traced.ops.len().max(1) as f64;
    let round_trip = traced.busy_ms() / round_trips;
    let transport = round_trip - per(request);
    let core = per(request) - per(parse) - per(build) - per(scan);
    let wall_ms = traced.wall_s * 1e3 * CONNECTIONS as f64;
    let named = [
        ("serve.transport", transport * round_trips),
        ("serve.core", core * round_trips),
        ("serve.proto.parse", per(parse) * round_trips),
        ("tag.build", per(build) * round_trips),
        ("tag.session.scan", per(scan) * round_trips),
    ];
    print_table("serve_match", "request", traced.units(), wall_ms, &named);
    let push_ms = scope
        .snapshot()
        .spans
        .get("session.push")
        .map_or(0.0, |s| s.total_ms());
    println!(
        "  in-process replay of {n} requests: Client::request {:.3} ms/request; session.push spans {:.3} ms/request",
        per(request),
        push_ms / n as f64
    );
    let covered: f64 = named.iter().map(|(_, v)| v).sum();
    // Responses to one payload are identical (the oracle checks this), so
    // each kept response stands for every ok response to its payload.
    let expansions: u64 = logs
        .iter()
        .flat_map(|l| l.responses.iter().zip(&l.oks))
        .filter_map(|(kept, oks)| kept.first().map(|t| oks * field_u64(t, "expansions")))
        .sum();
    let sum = |f: fn(&ConnLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
    vec![
        metric("serve.transport_ms", transport, "ms"),
        metric("serve.core_ms", core, "ms"),
        metric("serve.proto.parse_ms", per(parse), "ms"),
        metric("tag.build_ms", per(build), "ms"),
        metric("tag.session.scan_ms", per(scan), "ms"),
        metric(
            "serve.request_bytes",
            sum(|l| l.request_bytes) / round_trips,
            "bytes",
        ),
        metric(
            "serve.response_bytes",
            sum(|l| l.response_bytes) / round_trips,
            "bytes",
        ),
        metric("serve.sheds", server.core().sheds() as f64, "count"),
        metric(
            "tag.session.expansions",
            expansions as f64 / round_trips,
            "count",
        ),
        metric(
            "serve_match.unattributed_ms",
            (wall_ms - covered) / round_trips,
            "ms",
        ),
        metric("trace.overhead_pct", overhead, "%"),
    ]
}
