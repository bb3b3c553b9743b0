//! `served_paced`: the 10k-node engine behind `pit_server::serve` with the
//! cache off, fed Poisson arrivals well under capacity on one connection.
//! The gaps between requests are where the event loop's idle backoff
//! costs; latency is timed from each request's scheduled send instant.

use crate::fixture::{self, Served, MAIN_NODES};
use crate::gen::{self, Query};
use crate::json::J;
use crate::layers;
use crate::load::{self, ClientLog};
use crate::stats::{Latencies, MIN_BEYOND};
use crate::wire::{Client, Scrape};
use crate::{admin, Ctx, Outcome};
use pit::PitEngine;
use pit_server::ServerState;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered arrivals per second: well under what one connection carries,
/// so a request rarely waits behind the one before it.
const RATE: f64 = 100.0;
/// Distinct queries in the stream.
const STREAM: usize = 1 << 14;
/// Back-to-back queries before the window.
const WARMUP: usize = 200;

/// Send `stream[i]` at `epoch + schedule[i]`, sleeping until each is due
/// and sending late rather than skipping when behind. Returns the log and
/// how late each send went out, in nanoseconds.
fn paced_loop(
    addr: SocketAddr,
    stream: &[Query],
    schedule: &[Duration],
    traced: bool,
) -> Result<(ClientLog, Latencies), String> {
    let frames: Vec<String> = stream.iter().map(Query::frame).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ClientLog::new(traced);
    let mut lateness = Latencies::default();
    let epoch = Instant::now() + Duration::from_millis(20);
    for (i, &offset) in schedule.iter().enumerate() {
        let due = epoch + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lateness.push_ns((sent - due).as_nanos() as u64);
        let idx = i % frames.len();
        let reply = client.call(&frames[idx]);
        log.query(0, idx, due, sent, reply);
    }
    Ok((log, lateness))
}

fn lateness_note(out: &mut Outcome, lateness: &Latencies) {
    let pct = |p: f64| {
        lateness
            .percentile_ns(p)
            .map_or(J::Str("n/a".into()), |ns| J::Num(ns as f64 / 1e3))
    };
    out.note(
        "generator_lateness_us",
        J::obj([
            ("p50", pct(50.0)),
            ("p90", pct(90.0)),
            ("p99", pct(99.0)),
            ("mean", J::Num(lateness.mean_ok_ns() / 1e3)),
            ("sends", J::Int(lateness.len() as u64)),
            ("min_beyond", J::Int(MIN_BEYOND as u64)),
        ]),
    );
}

fn check(out: &mut Outcome, engine: &PitEngine, stream: &[Query], log: &ClientLog) {
    let (checked, bad) =
        load::check_samples(&log.samples, |_, i| fixture::ranking(engine, &stream[i]));
    out.check(
        "served_matches_in_process",
        checked > 0 && bad == 0,
        format!("{bad} of {checked} sampled replies differ"),
    );
}

fn warm(addr: SocketAddr, stream: &[Query]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for q in &stream[stream.len() - WARMUP..] {
        client
            .call(&q.frame())
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.args.seed;
    let stream = gen::uniform_queries(
        seed,
        "queries",
        MAIN_NODES,
        gen::hub_terms(MAIN_NODES),
        STREAM,
    );
    if ctx.args.trace {
        return traced(ctx, out, &stream);
    }
    let ((engine, served), setup_s) = fixture::repeated(
        |_| {
            let engine = Arc::new(fixture::build(MAIN_NODES));
            let served = Served::start(ServerState::new(
                Arc::clone(&engine),
                fixture::server_config(0),
            ))?;
            load::first_reply(served.addr, &stream[0])?;
            Ok((engine, served))
        },
        |(_, served)| served.stop(),
    )?;
    out.metric("setup_s", setup_s, "s");
    let schedule = gen::poisson_schedule(seed, "arrivals", RATE, ctx.args.window);
    let result = warm(served.addr, &stream)
        .and_then(|()| paced_loop(served.addr, &stream, &schedule, false));
    served.stop();
    let (log, lateness) = result?;
    out.query_latency(&log.lat)?;
    out.metric("query_qps", log.qps(), "1/s");
    out.ledger.merge(&log.ledger);
    lateness_note(out, &lateness);
    check(out, &engine, &stream, &log);
    drop(engine);
    admin::control(ctx, out)
}

fn traced(ctx: &mut Ctx, out: &mut Outcome, stream: &[Query]) -> Result<(), String> {
    let (engine, stages) = fixture::build_staged(MAIN_NODES, &mut ctx.spans);
    layers::offline(out, &stages);
    let engine = Arc::new(engine);
    let snapshot = layers::store(ctx, out, &engine)?;
    let plain = Served::start(ServerState::new(
        Arc::clone(&engine),
        fixture::server_config(0),
    ))?;
    let traced = Served::start(ServerState::new(
        Arc::clone(&engine),
        fixture::traced_server_config(0),
    ))?;
    let half = ctx.args.window / 2;
    let result = (|| {
        warm(plain.addr, stream)?;
        warm(traced.addr, stream)?;
        let schedule = gen::poisson_schedule(ctx.args.seed, "arrivals", RATE, half);
        let (untraced_log, _) = paced_loop(plain.addr, stream, &schedule, false)?;
        let mut scraper = Client::connect(traced.addr).map_err(|e| format!("connect: {e}"))?;
        let before = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        let (mut log, lateness) = paced_loop(traced.addr, stream, &schedule, true)?;
        let after = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        layers::served(out, &before, &after, log.rtt_mean_us());
        lateness_note(out, &lateness);
        layers::overhead(out, &untraced_log.lat, &log.lat);
        layers::reloads(out, &mut scraper, &snapshot)?;
        check(out, &engine, stream, &untraced_log);
        out.ledger.merge(&untraced_log.ledger);
        out.ledger.merge(&log.ledger);
        if let Some(spans) = log.spans.take() {
            ctx.spans.absorb(spans);
        }
        Ok::<(), String>(())
    })();
    plain.stop();
    traced.stop();
    result?;
    layers::search(ctx, out, &engine, stream);
    layers::router(out, &engine, None, stream)?;
    layers::protocol(out, &engine, stream);
    layers::update(
        ctx,
        out,
        &engine,
        &admin::deltas(ctx.args.seed, &engine)[..1],
    )
}
