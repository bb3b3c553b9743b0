//! `admin_mix`: writes beside reads. A 1.5k-node engine, snapshotted during
//! set-up, serves connection A's closed loop over a hot key set that fits
//! in the cache while connection B loops over admin ops: RELOADs of the
//! base snapshot and seeded UPDATE deltas, at a fixed ratio.
//!
//! The same admin loop, run with no concurrent reads, also gives every
//! other workload its update and reload figures (`control`), so the
//! admin_mix numbers can be read against an uncontended baseline.

use crate::fixture::{self, Served, ADMIN_NODES};
use crate::gen::{self, Query};
use crate::layers;
use crate::load::{self, ClientLog, Sample};
use crate::span::{Spans, ROOT};
use crate::stats::Latencies;
use crate::wire::{classify, Client, Ledger, Reply, Scrape};
use crate::{Ctx, Outcome};
use pit::{Delta, PitEngine};
use pit_server::{Request, ServerConfig, ServerState};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// New edges per UPDATE delta.
const DELTA_EDGES: usize = 4;
/// New topic memberships per UPDATE delta.
const DELTA_ASSIGNMENTS: usize = 4;
/// RELOADs connection B sends before each UPDATE. Every UPDATE therefore
/// follows a RELOAD of the base snapshot and applies to the base engine.
const RELOADS_PER_UPDATE: usize = 5;
/// Distinct seeded deltas; B cycles through them.
const DELTAS: usize = 64;
/// Distinct keys in connection A's hot set (well under the cache size).
const HOT_KEYS: usize = 128;
/// Length of connection A's query stream over the hot set.
const STREAM: usize = 1 << 14;
/// Queries A sends before the window.
const WARMUP: usize = 1_000;
/// Admin cycles of the uncontended control loop: enough UPDATEs for a
/// median with ten samples beyond it.
const CONTROL_CYCLES: usize = 21;
/// UPDATE generations whose successor engine is rebuilt in-process to
/// check the replies they served.
const CHECKED_DELTAS: usize = 3;

struct Fixture {
    engine: Arc<PitEngine>,
    snapshot: PathBuf,
    served: Served,
}

fn setup(work: &Path, first: &Query) -> Result<Fixture, String> {
    let engine = Arc::new(fixture::build(ADMIN_NODES));
    let snapshot = work.join("admin-engine");
    pit::store::save_engine(&snapshot, &engine).map_err(|e| format!("save snapshot: {e}"))?;
    let served = Served::start(ServerState::new(
        Arc::clone(&engine),
        fixture::server_config(ServerConfig::default().cache_capacity),
    ))?;
    load::first_reply(served.addr, first)?;
    Ok(Fixture {
        engine,
        snapshot,
        served,
    })
}

/// The seeded UPDATE deltas, all against the base engine's graph.
pub fn deltas(seed: u64, engine: &PitEngine) -> Vec<Delta> {
    (0..DELTAS)
        .map(|i| {
            gen::delta(
                seed,
                &format!("delta-{i}"),
                engine.graph(),
                engine.space(),
                DELTA_EDGES,
                DELTA_ASSIGNMENTS,
            )
        })
        .collect()
}

/// One generation swap as connection B saw it.
pub struct GenEvent {
    pub gen: u64,
    pub sent: Instant,
    pub recv: Instant,
    /// The delta an UPDATE applied; `None` for a RELOAD.
    pub delta: Option<usize>,
}

#[derive(Default)]
pub struct AdminLog {
    pub reload: Latencies,
    pub update: Latencies,
    pub events: Vec<GenEvent>,
    pub ledger: Ledger,
    /// Replies whose generation did not exceed the one before.
    pub regressions: usize,
    pub spans: Option<Spans>,
}

/// Connection B: `RELOADS_PER_UPDATE` RELOADs of `snapshot`, then one
/// UPDATE, repeated until `deadline` or for `cycles` cycles.
fn admin_loop(
    addr: SocketAddr,
    snapshot: &Path,
    deltas: &[Delta],
    deadline: Option<Instant>,
    cycles: usize,
    traced: bool,
) -> Result<AdminLog, String> {
    let reload = Request::Reload {
        dir: snapshot.display().to_string(),
    }
    .render();
    let updates: Vec<String> = deltas.iter().map(gen::update_frame).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = AdminLog {
        spans: traced.then(Spans::new),
        ..AdminLog::default()
    };
    let mut last_gen = 0u64;
    'cycles: for c in 0..cycles {
        for step in 0..=RELOADS_PER_UPDATE {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break 'cycles;
            }
            let (op, frame, delta) = if step < RELOADS_PER_UPDATE {
                ("reload", &reload, None)
            } else {
                let i = c % updates.len();
                ("update", &updates[i], Some(i))
            };
            let sent = Instant::now();
            let reply = classify(client.call(frame));
            let recv = Instant::now();
            if let Some(spans) = &mut log.spans {
                let name = if delta.is_some() {
                    "client.update"
                } else {
                    "client.reload"
                };
                spans.record(name, ROOT, c as u64, sent, recv);
            }
            let lat = if delta.is_some() {
                &mut log.update
            } else {
                &mut log.reload
            };
            match reply {
                Reply::Generation(gen) => {
                    lat.push_ns((recv - sent).as_nanos() as u64);
                    log.ledger.ok(op);
                    if gen <= last_gen {
                        log.regressions += 1;
                    }
                    last_gen = gen;
                    log.events.push(GenEvent {
                        gen,
                        sent,
                        recv,
                        delta,
                    });
                }
                Reply::Failed(why) => {
                    lat.push_failed();
                    log.ledger.fail(op, why);
                }
                Reply::Topics(_) => {
                    lat.push_failed();
                    log.ledger.fail(op, "unexpected");
                }
            }
        }
    }
    Ok(log)
}

fn report(out: &mut Outcome, log: &AdminLog) -> Result<(), String> {
    out.percentile("update_p50_ms", &log.update, 50.0, 1e6, "ms")?;
    out.percentile("reload_p50_ms", &log.reload, 50.0, 1e6, "ms")?;
    // Printed but not gated: RELOAD replies are noticed on the event
    // loop's sweeps 3.0 ms or 6.2 ms after the request was read, and the
    // share crossing the first one moves with host load, so p90 flips
    // between the two from run to run.
    out.ungated_percentile("reload_p90_ms", &log.reload, 90.0, 1e6, "ms");
    out.ledger.merge(&log.ledger);
    check_generations(out, log);
    Ok(())
}

fn check_generations(out: &mut Outcome, log: &AdminLog) {
    out.check(
        "generations_strictly_increase",
        log.regressions == 0 && !log.events.is_empty(),
        format!(
            "{} swaps, {} out of order",
            log.events.len(),
            log.regressions
        ),
    );
}

/// The uncontended admin loop on its own `admin_mix`-sized server, for workloads
/// whose traffic has no writes. Its set-up is not part of `setup_s`.
pub fn control(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.args.seed;
    let first = gen::uniform_queries(seed, "control", ADMIN_NODES, gen::hub_terms(ADMIN_NODES), 1);
    let fx = setup(&ctx.work_dir, &first[0])?;
    let deltas = deltas(seed, &fx.engine);
    let log = admin_loop(
        fx.served.addr,
        &fx.snapshot,
        &deltas,
        None,
        CONTROL_CYCLES,
        false,
    );
    fx.served.stop();
    report(out, &log?)
}

fn warm(addr: SocketAddr, hot: &[Query]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for q in &hot[..WARMUP] {
        client
            .call(&q.frame())
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// A and B side by side until `deadline`.
fn mixed(
    addr: SocketAddr,
    hot: &[Query],
    snapshot: &Path,
    deltas: &[Delta],
    deadline: Instant,
    traced: bool,
) -> Result<(ClientLog, AdminLog), String> {
    std::thread::scope(|scope| {
        let b =
            scope.spawn(|| admin_loop(addr, snapshot, deltas, Some(deadline), usize::MAX, traced));
        let a = load::closed_loop(addr, 0, hot, WARMUP, deadline, traced)
            .map_err(|e| format!("client: {e}"));
        let b = b.join().expect("admin client panicked");
        Ok((a?, b?))
    })
}

/// Which engine served a generation: the base engine, or the base engine
/// plus one delta.
fn generation_engine(events: &[GenEvent], gen: u64) -> Option<usize> {
    events.iter().find(|e| e.gen == gen).and_then(|e| e.delta)
}

/// Check sampled replies against the generation that served them. A reply
/// sent after swap `g` was acknowledged and received before swap `g + 1`
/// could land was served by `g`; one that overlaps later swaps may have
/// been served by any of them and must equal at least one. UPDATE
/// generations are checked for the first [`CHECKED_DELTAS`] deltas seen.
fn check_samples(
    out: &mut Outcome,
    base: &PitEngine,
    hot: &[Query],
    samples: &[Sample],
    events: &[GenEvent],
    deltas: &[Delta],
) -> Result<(), String> {
    let mut successors: BTreeMap<usize, PitEngine> = BTreeMap::new();
    let (mut checked, mut bad, mut skipped, mut on_updates) = (0usize, 0usize, 0usize, 0usize);
    'samples: for s in samples {
        let first = events
            .iter()
            .filter(|e| e.recv <= s.sent)
            .map(|e| e.gen)
            .max()
            .unwrap_or(1);
        let mut candidates = vec![first];
        candidates.extend(
            events
                .iter()
                .filter(|e| e.gen > first && e.sent < s.recv)
                .map(|e| e.gen),
        );
        let mut kinds = Vec::with_capacity(candidates.len());
        for &g in &candidates {
            let kind = generation_engine(events, g);
            if let Some(i) = kind {
                if !successors.contains_key(&i) {
                    if successors.len() == CHECKED_DELTAS {
                        skipped += 1;
                        continue 'samples;
                    }
                    let (next, _) = base
                        .with_delta(&deltas[i])
                        .map_err(|e| format!("in-process delta {i}: {e}"))?;
                    successors.insert(i, next);
                }
            }
            kinds.push(kind);
        }
        let q = &hot[s.query];
        let matched = kinds.iter().any(|kind| {
            let engine = kind.map_or(base, |i| &successors[&i]);
            layers::same_ranking(&s.ranked, &fixture::ranking(engine, q))
        });
        checked += 1;
        if kinds.iter().any(Option::is_some) {
            on_updates += 1;
        }
        if !matched {
            bad += 1;
        }
    }
    out.check(
        "served_matches_serving_generation",
        checked > 0 && bad == 0,
        format!(
            "{bad} of {checked} sampled replies match no candidate generation \
             ({on_updates} checked against UPDATE generations, {skipped} not checked)"
        ),
    );
    Ok(())
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.args.seed;
    let hot = gen::hot_queries(
        seed,
        "hot",
        ADMIN_NODES,
        gen::hub_terms(ADMIN_NODES),
        HOT_KEYS,
        STREAM,
    );
    if ctx.args.trace {
        return traced(ctx, out, &hot);
    }
    let work = ctx.work_dir.clone();
    let (fx, setup_s) = fixture::repeated(|_| setup(&work, &hot[0]), |fx| fx.served.stop())?;
    out.metric("setup_s", setup_s, "s");
    let deltas = deltas(seed, &fx.engine);
    let result = warm(fx.served.addr, &hot).and_then(|()| {
        mixed(
            fx.served.addr,
            &hot,
            &fx.snapshot,
            &deltas,
            Instant::now() + ctx.args.window,
            false,
        )
    });
    fx.served.stop();
    let (a, b) = result?;
    out.query_latency(&a.lat)?;
    out.metric("query_qps", a.sliced_qps(), "1/s");
    out.ledger.merge(&a.ledger);
    report(out, &b)?;
    check_samples(out, &fx.engine, &hot, &a.samples, &b.events, &deltas)
}

fn traced(ctx: &mut Ctx, out: &mut Outcome, hot: &[Query]) -> Result<(), String> {
    let (engine, stages) = fixture::build_staged(ADMIN_NODES, &mut ctx.spans);
    layers::offline(out, &stages);
    let engine = Arc::new(engine);
    let snapshot = layers::store(ctx, out, &engine)?;
    let deltas = deltas(ctx.args.seed, &engine);
    let cache = ServerConfig::default().cache_capacity;
    let plain = Served::start(ServerState::new(
        Arc::clone(&engine),
        fixture::server_config(cache),
    ))?;
    let traced = Served::start(ServerState::new(
        Arc::clone(&engine),
        fixture::traced_server_config(cache),
    ))?;
    let half = ctx.args.window / 2;
    let result = (|| {
        warm(plain.addr, hot)?;
        warm(traced.addr, hot)?;
        let (a0, b0) = mixed(
            plain.addr,
            hot,
            &snapshot,
            &deltas,
            Instant::now() + half,
            false,
        )?;
        let mut scraper = Client::connect(traced.addr).map_err(|e| format!("connect: {e}"))?;
        let before = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        let (mut a1, mut b1) = mixed(
            traced.addr,
            hot,
            &snapshot,
            &deltas,
            Instant::now() + half,
            true,
        )?;
        let after = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        layers::served(out, &before, &after, a1.rtt_mean_us());
        out.metric(
            "server.reload_us",
            after.mean_since(&before, "pit_reload_us"),
            "us",
        );
        layers::overhead(out, &a0.lat, &a1.lat);
        check_generations(out, &b0);
        check_samples(out, &engine, hot, &a0.samples, &b0.events, &deltas)?;
        for ledger in [&a0.ledger, &b0.ledger, &a1.ledger, &b1.ledger] {
            out.ledger.merge(ledger);
        }
        for spans in [a1.spans.take(), b1.spans.take()].into_iter().flatten() {
            ctx.spans.absorb(spans);
        }
        Ok::<(), String>(())
    })();
    plain.stop();
    traced.stop();
    result?;
    layers::search(ctx, out, &engine, hot);
    layers::router(out, &engine, None, hot)?;
    layers::protocol(out, &engine, hot);
    // The same deltas connection B sent.
    layers::update(ctx, out, &engine, &deltas[..3])
}
