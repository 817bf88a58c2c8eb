//! `serve-warm`: the daemon in-process (`server::spawn`) on loopback under
//! fast-fidelity requests whose circuits are all cached.
//!
//! The request deck (32 requests) holds every shipped scenario four times —
//! three by name, one inline — plus four `bare-die-forced-air` requests
//! pinned to the spectral solver. Every request carries a seeded
//! `power_scale`, so coalesce keys are distinct while circuits are shared;
//! a warm-up pass over every request class makes every timed request a
//! circuit-cache hit. The seed changes the order and the scales only.
//!
//! Two phases, each on one connection per core: an open loop at
//! [`OFFERED_RPS`] for `--seconds`, each request timed from the instant it
//! was due (so a stall is charged to every request it delays), then a
//! closed loop for `capacity_rps`. The latency pair is a median over
//! consecutive ~1000-request segments of the open loop, so one host stall
//! moves one segment rather than the result.

use crate::measure::{self, median, secs, Latency, Outcome, Rng};
use crate::replay;
use crate::trace::Tracer;
use hotiron_bench::scenario::{self, SolverSpec, SHIPPED};
use hotiron_serve::engine::solution_response;
use hotiron_serve::json::Json;
use hotiron_serve::protocol::{
    read_frame, write_frame, FidelityTier, Request, ScenarioSource, SolveRequest, MAX_FRAME_BYTES,
};
use hotiron_serve::{spawn, Engine, ServerConfig, ServerHandle};
use hotiron_verify::tol;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, requests/s: about a fifth of the
/// ~4–5k rps closed-loop capacity this mix reaches on a 2-core x86-64 box.
pub const OFFERED_RPS: f64 = 900.0;
/// Closed-loop requests per second of `--seconds` (12000 requests at 15 s,
/// about 2.7 s at ~4.5k rps).
const CAPACITY_REQUESTS_PER_SECOND: f64 = 800.0;
/// Decks per open-loop segment: 992 requests, so each segment's tail is
/// its p98, and a segment spans ~1.1 s.
const SEGMENT_DECKS: usize = 31;
/// Requests per deck.
const DECK: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The request deck: scenario name, inline or named, spectral-pinned.
fn deck() -> Vec<(&'static str, bool, bool)> {
    let mut out = Vec::with_capacity(DECK);
    for (name, _) in SHIPPED {
        out.extend([(*name, false, false), (*name, false, false), (*name, false, false)]);
        out.push((*name, true, false));
    }
    out.extend([("bare-die-forced-air", false, true); 4]);
    assert_eq!(out.len(), DECK);
    out
}

fn request(name: &str, inline: bool, spectral: bool, power_scale: Option<f64>) -> SolveRequest {
    let text = SHIPPED.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).expect("shipped");
    SolveRequest {
        scenario: if inline {
            ScenarioSource::Inline(text.to_owned())
        } else {
            ScenarioSource::Named(name.to_owned())
        },
        fidelity: FidelityTier::Fast,
        power_scale,
        power_w: None,
        deadline_ms: None,
        blocks: true,
        solver: spectral.then_some(SolverSpec::Spectral),
    }
}

/// `count` requests: whole decks, each shuffled, with seeded power scales.
fn requests(rng: &mut Rng, count: usize) -> Vec<SolveRequest> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut d = deck();
        rng.shuffle(&mut d);
        for (name, inline, spectral) in d {
            out.push(request(name, inline, spectral, Some(rng.uniform(0.5, 1.5))));
        }
    }
    out.truncate(count);
    out
}

/// One timed exchange: instants relative to the phase start (ns) and the
/// response fields the correctness check reads.
#[derive(Debug, Clone, Default)]
struct Exchange {
    due: u64,
    sent: u64,
    received: u64,
    code: Option<u64>,
    silicon_max_c: f64,
    coalesced: bool,
}

/// Sends `payloads` over `lanes` connections. `rate = Some(r)`: open loop,
/// request `i` due at `i / r`; `None`: closed loop, back to back.
fn drive(addr: &str, payloads: &[Vec<u8>], lanes: usize, rate: Option<f64>) -> Vec<Exchange> {
    let start = Instant::now();
    let mut out = vec![Exchange::default(); payloads.len()];
    thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    let mut mine = Vec::new();
                    for i in (lane..payloads.len()).step_by(lanes) {
                        let due = rate.map(|r| Duration::from_secs_f64(i as f64 / r));
                        if let Some(wait) = due.and_then(|d| d.checked_sub(start.elapsed())) {
                            thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        write_frame(&mut stream, &payloads[i]).expect("send request");
                        let frame = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap_or_default();
                        let received = start.elapsed();
                        let reply =
                            std::str::from_utf8(&frame).ok().and_then(|t| Json::parse(t).ok());
                        let field = |k: &str| reply.as_ref().and_then(|j| j.get(k));
                        let ns = |d: Duration| d.as_nanos() as u64;
                        mine.push((
                            i,
                            Exchange {
                                due: ns(due.unwrap_or(sent)),
                                sent: ns(sent),
                                received: ns(received),
                                code: field("code").and_then(Json::as_u64),
                                silicon_max_c: field("silicon_max_c")
                                    .and_then(Json::as_f64)
                                    .unwrap_or(f64::NAN),
                                coalesced: field("cache").and_then(Json::as_str)
                                    == Some("coalesced"),
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, ex) in h.join().expect("client thread") {
                out[i] = ex;
            }
        }
    });
    out
}

fn render(req: &SolveRequest) -> Vec<u8> {
    Request::Solve(req.clone()).to_json().render().into_bytes()
}

/// Daemon spawn plus one warm-up request per class (every scenario named
/// and inline, and the spectral pin).
fn start_daemon(lanes: usize) -> ServerHandle {
    let handle = spawn(ServerConfig { workers: lanes, ..ServerConfig::default() })
        .expect("bind the daemon on loopback");
    let mut warm: Vec<Vec<u8>> = SHIPPED
        .iter()
        .flat_map(|(n, _)| {
            [render(&request(n, false, false, None)), render(&request(n, true, false, None))]
        })
        .collect();
    warm.push(render(&request("bare-die-forced-air", false, true, None)));
    for ex in drive(&handle.addr().to_string(), &warm, 1, None) {
        assert_eq!(ex.code, Some(200), "warm-up request failed");
    }
    handle
}

/// `name`, `name+inline` or `name+spectral`.
fn class_label(req: &SolveRequest) -> String {
    match (&req.scenario, req.solver) {
        (ScenarioSource::Named(n), Some(_)) => format!("{n}+spectral"),
        (ScenarioSource::Named(n), None) => n.clone(),
        (ScenarioSource::Inline(t), _) => {
            let name = SHIPPED.iter().find(|(_, text)| text == t).map_or("?", |(n, _)| *n);
            format!("{name}+inline")
        }
    }
}

/// Checks one exchange; `Some(reason)` when it failed.
fn check(engine: &Engine, req: &SolveRequest, ex: &Exchange) -> Option<String> {
    if ex.code != Some(200) {
        return Some(format!("response code {:?}", ex.code));
    }
    let (sc, fidelity) = engine.resolve(req).expect("served requests resolve");
    let want = scenario::run(&sc, fidelity).expect("served scenarios run").silicon_max_c;
    let got = ex.silicon_max_c;
    ((got - want).abs() > tol::FUZZ_STEADY_AGREEMENT_K || got.is_nan())
        .then(|| format!("silicon_max_c {got} vs in-process {want}"))
}

/// Replays one request's layer calls in-process, attached to the span of
/// its client exchange.
fn trace_request(
    tracer: &mut Tracer,
    handle: &ServerHandle,
    i: u32,
    req: &SolveRequest,
    ex: &Exchange,
    t0: u64,
) {
    let engine = handle.engine();
    let root = tracer.record(0, i, "server.request", t0 + ex.sent, t0 + ex.received, false);
    let payload = render(req);
    let (_, decode) = tracer.replay(root, i, "protocol.decode", || {
        let text = std::str::from_utf8(&payload).expect("utf-8 request");
        Request::from_json(&Json::parse(text).expect("request JSON")).expect("valid request")
    });
    tracer.sample("protocol.decode_us", tracer.ms(decode) * 1e3);
    let (solved, solve) = tracer.replay(root, i, "engine.solve", || engine.solve(req));
    let (solution, disposition) = solved.expect("replayed request solves");
    let (resolved, resolve) = tracer.replay(solve, i, "engine.resolve", || engine.resolve(req));
    let (sc, _) = resolved.expect("replayed request resolves");
    let (name, text) = match &req.scenario {
        ScenarioSource::Named(n) => {
            (n.as_str(), SHIPPED.iter().find(|(s, _)| s == n).map_or("", |(_, t)| *t))
        }
        ScenarioSource::Inline(t) => ("inline", t.as_str()),
    };
    let (_, parse) = tracer.replay(resolve, i, "scenario.parse", || scenario::parse(text));
    tracer.sample("scenario.parse_us", tracer.ms(parse) * 1e3);
    if sc.board.is_none() {
        let (_, lower) = tracer.replay(solve, i, "scenario.lower", || sc.stack());
        tracer.sample("scenario.lower_us", tracer.ms(lower) * 1e3);
    }
    let lowered = replay::lower(&sc, sc.rows.min(16), sc.cols.min(16), engine.cache());
    let (_, steady) = tracer.replay(solve, i, "solve.steady", || lowered.solve());
    tracer.sample("solve.steady_ms", tracer.ms(steady));
    replay::record_solve_counts(tracer, &solution.solve_stats);
    let (_, encode) = tracer.replay(root, i, "protocol.encode", || {
        let body =
            solution_response(name, req.fidelity, &solution, disposition, req.blocks).render();
        let mut frame = Vec::with_capacity(body.len() + 4);
        write_frame(&mut frame, body.as_bytes()).expect("write to a Vec");
        frame
    });
    tracer.sample("protocol.encode_us", tracer.ms(encode) * 1e3);
}

/// Runs the workload. `tail_limit_ms` bounds the capacity phase's tail.
pub fn run(seed: u64, seconds: f64, tail_limit_ms: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let lanes = measure::nproc().min(2);
    out.notes.push(format!("daemon workers = {lanes}, generator connections = {lanes}"));

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS - 1 {
        let t = Instant::now();
        let handle = start_daemon(lanes);
        setup.push(secs(t));
        handle.shutdown_and_join();
    }
    let t = Instant::now();
    let handle = start_daemon(lanes);
    setup.push(secs(t));
    out.metric("setup_s", "s", median(&setup));
    let addr = handle.addr().to_string();

    let mut rng = Rng::new(seed, 1);
    let round = |n: f64| ((n / DECK as f64).round() as usize).max(1) * DECK;
    let segment = SEGMENT_DECKS * DECK;
    let segments = ((seconds * OFFERED_RPS / segment as f64).round() as usize).max(1);
    let open = requests(&mut rng, segments * segment);
    let closed = requests(&mut rng, round(seconds * CAPACITY_REQUESTS_PER_SECOND));
    let open_payloads: Vec<Vec<u8>> = open.iter().map(render).collect();
    let closed_payloads: Vec<Vec<u8>> = closed.iter().map(render).collect();

    let circuit0 = handle.engine().cache().counters();
    let t0 = tracer.now();
    let open_ex = drive(&addr, &open_payloads, lanes, Some(OFFERED_RPS));
    let cpu0 = measure::process_cpu_ns();
    let cap_start = Instant::now();
    let closed_ex = drive(&addr, &closed_payloads, lanes, None);
    let capacity = closed.len() as f64 / secs(cap_start);
    let cpu_ms = (measure::process_cpu_ns() - cpu0) as f64 * 1e-6;
    let peak_rss = measure::peak_rss_mib();
    let circuit1 = handle.engine().cache().counters();

    // Correctness: every response a 200 whose silicon_max_c matches an
    // in-process scenario::run of the same effective scenario (checked on
    // one thread per core).
    let exchanges: Vec<(&SolveRequest, &Exchange)> =
        open.iter().zip(&open_ex).chain(closed.iter().zip(&closed_ex)).collect();
    let engine = handle.engine();
    let mismatches: Vec<String> = thread::scope(|s| {
        let checks: Vec<_> = exchanges
            .chunks(exchanges.len().div_ceil(lanes))
            .map(|chunk| {
                s.spawn(move || {
                    chunk.iter().filter_map(|(req, ex)| check(engine, req, ex)).collect::<Vec<_>>()
                })
            })
            .collect();
        checks.into_iter().flat_map(|h| h.join().expect("check thread")).collect()
    });
    out.attempted += exchanges.len() as u64;
    for m in mismatches {
        out.fail(m);
    }
    let coalesced = exchanges.iter().filter(|(_, ex)| ex.coalesced).count();

    let ms = |ns: u64| ns as f64 * 1e-6;
    let latency: Vec<f64> = open_ex.iter().map(|e| ms(e.received - e.due)).collect();
    let lateness: Vec<f64> = open_ex.iter().map(|e| ms(e.sent - e.due)).collect();
    let closed_latency =
        Latency::of(&closed_ex.iter().map(|e| ms(e.received - e.sent)).collect::<Vec<_>>());
    out.latency(&latency, segment);
    out.metric("capacity_rps", "1/s", capacity);
    let open_end = open_ex.iter().map(|e| e.received).max().unwrap_or(1);
    out.metric("throughput_per_s", "1/s", open.len() as f64 / (open_end as f64 * 1e-9));
    out.metric("cpu_ms_per_op", "ms", cpu_ms / closed.len() as f64);
    out.metric("peak_rss_mb", "MiB", peak_rss);
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (req, ms) in open.iter().zip(&latency) {
        by_class.entry(class_label(req)).or_default().push(*ms);
    }
    for (label, v) in &by_class {
        out.notes.push(format!("  {label:<28} median {:.3} ms (n={})", median(v), v.len()));
    }
    let late = Latency::of(&lateness);
    out.notes.push(format!(
        "open loop: {} requests at {OFFERED_RPS} req/s; generator lateness p50 {:.3} ms, {} {:.3} ms",
        open.len(),
        late.p50,
        late.tail_label(),
        late.tail
    ));
    out.notes.push(format!(
        "closed loop: {} requests, {} {:.3} ms (limit {tail_limit_ms} ms)",
        closed.len(),
        closed_latency.tail_label(),
        closed_latency.tail
    ));
    if closed_latency.tail > tail_limit_ms {
        out.fail(format!(
            "capacity phase tail {:.3} ms exceeds the {tail_limit_ms} ms limit",
            closed_latency.tail
        ));
    }

    if tracer.enabled() {
        for v in &lateness {
            tracer.sample("generator.lateness_ms", *v);
        }
        let (hits, misses) = (circuit1.hits - circuit0.hits, circuit1.misses - circuit0.misses);
        tracer.sample("circuit.cache_hit_share", hits as f64 / (hits + misses) as f64);
        tracer.sample(
            "engine.coalesced_share",
            coalesced as f64 / (open.len() + closed.len()) as f64,
        );
        for (i, (req, ex)) in open.iter().zip(&open_ex).enumerate() {
            trace_request(tracer, &handle, i as u32 + 1, req, ex, t0);
        }
        for (name, metric, scale) in [
            ("engine.resolve", "engine.resolve_us", 1e-3),
            ("engine.solve", "engine.solve_us", 1e-3),
        ] {
            for v in tracer.durations(name) {
                tracer.sample(metric, v * scale);
            }
        }
        for v in tracer.self_times("server.request") {
            tracer.sample("server.wait_us", v * 1e-3);
        }
        for v in tracer.self_times("engine.solve") {
            tracer.sample("scenario.oracles_report_ms", v * 1e-6);
        }
    }
    handle.shutdown_and_join();
    out
}
