//! The traced run's per-layer measurements. Each one times calls into a
//! layer's public functions on the workload's own engine and inputs, or
//! reads the server's `METRICS` around the workload's own traffic.

use crate::fixture::{self, StageTimes};
use crate::gen::Query;
use crate::json::J;
use crate::span::{PhaseSpans, Spans, ROOT};
use crate::stats::{median, ratio, Latencies};
use crate::wire::{Client, Scrape};
use crate::{Ctx, Outcome};
use pit::{Delta, PitEngine};
use pit_router::ShardedEngine;
use pit_search_core::{CancelToken, NoTracer, SearchScratch};
use pit_server::{LocalServeEngine, Request, Response, ServeEngine};
use pit_topics::KeywordQuery;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries each in-process layer pass replays from the workload's stream.
const LAYER_QUERIES: usize = 2_000;
/// Timed repetitions of each store and protocol measurement; the median
/// is reported.
const REPS: usize = 5;
/// RELOADs timed after the window of a workload that issues none itself.
const TRACE_RELOADS: usize = 8;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn offline(out: &mut Outcome, t: &StageTimes) {
    out.metric("datasets.generate_s", t.generate_s, "s");
    out.metric("walk.build_s", t.walk_s, "s");
    out.metric("summarize.build_s", t.summarize_s, "s");
    out.metric("index.build_s", t.index_s, "s");
}

pub fn resolve(engine: &PitEngine, queries: &[Query]) -> Vec<(KeywordQuery, usize)> {
    queries
        .iter()
        .map(|q| (fixture::keyword_query(engine, q), q.k))
        .collect()
}

/// Sums over a run of in-process searches.
#[derive(Default)]
pub struct SearchPass {
    pub lat: Latencies,
    pub queries: u64,
    pub expand_rounds: u64,
    pub probed_tables: u64,
    pub loaded_reps: u64,
    pub pruned: u64,
    pub candidates: u64,
}

/// Run `queries` in-process through one reused scratch until `deadline`
/// (cycling) or, with no deadline, once each. With `spans`, every query
/// gets a span and the searcher's phases become its children.
pub fn search_pass(
    engine: &PitEngine,
    queries: &[(KeywordQuery, usize)],
    deadline: Option<Instant>,
    mut spans: Option<&mut Spans>,
) -> SearchPass {
    let cancel = CancelToken::none();
    let mut scratch = SearchScratch::new();
    let mut pass = SearchPass::default();
    let mut i = 0usize;
    loop {
        if deadline.is_none() && i == queries.len() {
            break;
        }
        let (kq, k) = &queries[i % queries.len()];
        let start = Instant::now();
        if deadline.is_some_and(|d| start >= d) {
            break;
        }
        let result = match spans.as_deref_mut() {
            Some(spans) => {
                let id = spans.open("search.query", ROOT, i as u64);
                let mut tracer = PhaseSpans::new(spans, id, i as u64);
                let r = engine.try_search_traced_with(kq, *k, &cancel, &mut tracer, &mut scratch);
                spans.close(id);
                r
            }
            None => engine.try_search_traced_with(kq, *k, &cancel, &mut NoTracer, &mut scratch),
        };
        let ns = start.elapsed().as_nanos() as u64;
        match result {
            Ok(o) => {
                pass.lat.push_ns(ns);
                pass.expand_rounds += o.expand_rounds as u64;
                pass.probed_tables += o.probed_tables as u64;
                pass.loaded_reps += o.loaded_reps as u64;
                pass.pruned += o.pruned_topics as u64;
                pass.candidates += o.candidate_topics as u64;
                black_box(&o.top_k);
            }
            Err(_) => pass.lat.push_failed(),
        }
        pass.queries += 1;
        i += 1;
    }
    pass
}

/// Per-query self times of the search phases from the spans of a traced
/// pass, plus the searcher's exact work counters.
pub fn report_search(out: &mut Outcome, spans: &Spans, pass: &SearchPass) {
    // Phase spans exist only for the queries whose span was kept.
    let n = spans.count("search.query").max(1) as f64;
    out.metric(
        "search.gather_us",
        spans.self_ns("search.gather") as f64 / n / 1e3,
        "us",
    );
    out.metric(
        "search.expand_us",
        spans.self_ns("search.expand") as f64 / n / 1e3,
        "us",
    );
    out.metric(
        "search.rank_us",
        spans.self_ns("search.rank") as f64 / n / 1e3,
        "us",
    );
    let q = pass.queries.max(1) as f64;
    out.metric(
        "search.expand_rounds",
        pass.expand_rounds as f64 / q,
        "count",
    );
    out.metric(
        "search.probed_tables",
        pass.probed_tables as f64 / q,
        "count",
    );
    out.metric("search.loaded_reps", pass.loaded_reps as f64 / q, "count");
    out.metric(
        "search.prune_ratio",
        ratio(pass.pruned as f64, pass.candidates as f64),
        "ratio",
    );
}

/// The search layer of a workload whose window does not run in-process:
/// one traced pass over the first [`LAYER_QUERIES`] of its stream.
pub fn search(ctx: &mut Ctx, out: &mut Outcome, engine: &PitEngine, queries: &[Query]) {
    let resolved = resolve(engine, &queries[..LAYER_QUERIES.min(queries.len())]);
    search_pass(engine, &resolved, None, None);
    let pass = search_pass(engine, &resolved, None, Some(&mut ctx.spans));
    report_search(out, &ctx.spans, &pass);
}

/// Save the engine (timed), then time the three load tiers on the
/// snapshot. Returns the snapshot directory.
pub fn store(ctx: &mut Ctx, out: &mut Outcome, engine: &PitEngine) -> Result<PathBuf, String> {
    let dir = ctx.work_dir.join("engine");
    let mut save = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        pit::store::save_engine(&dir, engine).map_err(|e| format!("save snapshot: {e}"))?;
        let end = Instant::now();
        ctx.spans.record("store.save", ROOT, 0, start, end);
        save.push(ms(end - start));
    }
    out.metric("store.save_ms", median(&save), "ms");
    type Loader = fn(&Path) -> Result<PitEngine, pit::store::StoreError>;
    let tiers: [(&'static str, Loader); 3] = [
        ("store.load_fast_ms", pit::store::load_engine_fast),
        ("store.load_verified_ms", pit::store::load_engine),
        ("store.load_owned_ms", pit::store::load_engine_owned),
    ];
    for (name, load) in tiers {
        let mut times = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            let engine = load(&dir).map_err(|e| format!("{name}: {e}"))?;
            let end = Instant::now();
            ctx.spans.record(name, ROOT, 0, start, end);
            drop(engine);
            times.push(ms(end - start));
        }
        out.metric(name, median(&times), "ms");
    }
    Ok(dir)
}

/// Time `ServeEngine::try_search` on a two-shard split against the
/// single-node `LocalServeEngine` for the same queries, and check that the
/// two rankings agree.
pub fn router(
    out: &mut Outcome,
    engine: &Arc<PitEngine>,
    split: Option<&ShardedEngine>,
    queries: &[Query],
) -> Result<(), String> {
    let owned;
    let sharded = match split {
        Some(s) => s,
        None => {
            owned = ShardedEngine::split(engine, 2);
            &owned
        }
    };
    let local = LocalServeEngine::full(Arc::clone(engine));
    let resolved = resolve(engine, &queries[..LAYER_QUERIES.min(queries.len())]);
    let cancel = CancelToken::none();
    let mut scratch = SearchScratch::new();
    let (mut routed_ns, mut local_ns, mut fanout_us, mut pruned) = (0u128, 0u128, 0u64, 0u64);
    let mut mismatches = 0usize;
    for (kq, k) in &resolved {
        let t = Instant::now();
        let r = sharded
            .try_search(kq, *k, &cancel, &mut NoTracer, &mut scratch)
            .map_err(|e| format!("routed search: {e:?}"))?;
        routed_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let l = local
            .try_search(kq, *k, &cancel, &mut NoTracer, &mut scratch)
            .map_err(|e| format!("local search: {e:?}"))?;
        local_ns += t.elapsed().as_nanos();
        fanout_us += r.fanout_micros.iter().map(|&(_, us)| us).sum::<u64>();
        pruned += u64::from(r.shards_pruned);
        if !same_ranking(&r.ranked, &l.ranked) {
            mismatches += 1;
        }
    }
    let n = resolved.len().max(1) as f64;
    out.metric("router.try_search_us", routed_ns as f64 / n / 1e3, "us");
    out.metric(
        "router.local_try_search_us",
        local_ns as f64 / n / 1e3,
        "us",
    );
    out.metric("router.fanout_us", fanout_us as f64 / n, "us");
    out.metric("router.shards_pruned", pruned as f64 / n, "count");
    out.check(
        "router_matches_single_node_in_process",
        mismatches == 0,
        format!("{mismatches} of {} rankings differ", resolved.len()),
    );
    Ok(())
}

/// Bitwise equality of two rankings (topic ids and score bits).
pub fn same_ranking(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Time `Request::parse` on the workload's own query frames and
/// `Response::render` on the replies those queries produce.
pub fn protocol(out: &mut Outcome, engine: &PitEngine, queries: &[Query]) {
    let sample = &queries[..LAYER_QUERIES.min(queries.len())];
    let frames: Vec<String> = sample.iter().map(Query::frame).collect();
    let replies: Vec<Response> = sample
        .iter()
        .map(|q| Response::Topics {
            ranked: fixture::ranking(engine, q),
            cached: false,
            micros: 100,
            partial: Vec::new(),
        })
        .collect();
    let mut parse = Vec::new();
    let mut render = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for f in &frames {
            black_box(Request::parse(black_box(f)).is_ok());
        }
        parse.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        let t = Instant::now();
        for r in &replies {
            black_box(black_box(r).render().len());
        }
        render.push(t.elapsed().as_nanos() as f64 / replies.len() as f64);
    }
    out.metric("protocol.parse_ns", median(&parse), "ns");
    out.metric("protocol.render_ns", median(&render), "ns");
}

/// Time `PitEngine::with_delta_scoped` on `deltas`, reporting the median
/// time and the first delta's work.
pub fn update(
    ctx: &mut Ctx,
    out: &mut Outcome,
    engine: &PitEngine,
    deltas: &[Delta],
) -> Result<(), String> {
    let mut times = Vec::new();
    let mut first = None;
    for (i, d) in deltas.iter().enumerate() {
        let start = Instant::now();
        let (next, report) = engine
            .with_delta_scoped(d, None)
            .map_err(|e| format!("with_delta_scoped: {e}"))?;
        let end = Instant::now();
        ctx.spans
            .record("update.with_delta", ROOT, i as u64, start, end);
        drop(next);
        times.push(ms(end - start));
        first.get_or_insert(report);
    }
    let report = first.ok_or("no delta to time")?;
    out.metric("update.with_delta_ms", median(&times), "ms");
    out.metric(
        "update.refreshed_gamma_tables",
        report.refreshed_gamma_tables as f64,
        "count",
    );
    out.metric(
        "update.resummarized_topics",
        report.resummarized_topics as f64,
        "count",
    );
    Ok(())
}

/// Split client time over a traced interval into the server's layers and
/// an unexplained residual, from `METRICS` scraped before and after it.
pub fn served(out: &mut Outcome, before: &Scrape, after: &Scrape, client_rtt_us: f64) {
    let hits = after.delta(before, "pit_cache_hits_total");
    let misses = after.delta(before, "pit_cache_misses_total");
    let latency = after.mean_since(before, "pit_latency_us");
    let queue = after.mean_since(before, "pit_queue_wait_us");
    let exec = after.mean_since(before, "pit_execution_us");
    let probe = after.mean_since(before, "pit_cache_probe_us");
    out.metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.metric(
        "cache.evictions",
        after.delta(before, "pit_cache_evictions_total"),
        "count",
    );
    out.metric(
        "cache.survivors",
        after.delta(before, "pit_cache_survivors_total"),
        "count",
    );
    out.metric(
        "cache.stale",
        after.delta(before, "pit_cache_stale_evictions_total"),
        "count",
    );
    out.metric("cache.probe_us", probe, "us");
    out.metric("pool.queue_wait_us", queue, "us");
    out.metric("pool.exec_us", exec, "us");
    out.metric("pool.shed", after.delta(before, "pit_shed_total"), "count");
    out.metric("server.latency_us", latency, "us");
    out.metric("frontend.residual_us", client_rtt_us - latency, "us");
    out.note(
        "decomposition",
        J::obj([
            ("client_rtt_mean_us", J::Num(client_rtt_us)),
            ("server_latency_mean_us", J::Num(latency)),
            ("queue_wait_mean_us", J::Num(queue)),
            ("execution_mean_us", J::Num(exec)),
            ("cache_probe_mean_us", J::Num(probe)),
            (
                "gather_mean_us",
                J::Num(after.mean_since(before, "pit_gather_us")),
            ),
            (
                "rank_mean_us",
                J::Num(after.mean_since(before, "pit_rank_us")),
            ),
            ("frontend_residual_us", J::Num(client_rtt_us - latency)),
            (
                "residual_share",
                J::Num(ratio(client_rtt_us - latency, client_rtt_us)),
            ),
            ("queries", J::Num(after.delta(before, "pit_queries_total"))),
        ]),
    );
}

/// Issue [`TRACE_RELOADS`] RELOADs of `dir` and report the server's mean
/// `pit_reload_us` over them.
pub fn reloads(out: &mut Outcome, client: &mut Client, dir: &Path) -> Result<(), String> {
    let frame = Request::Reload {
        dir: dir.display().to_string(),
    }
    .render();
    let before = Scrape::take(client).map_err(|e| format!("METRICS: {e}"))?;
    for _ in 0..TRACE_RELOADS {
        match crate::wire::classify(client.call(&frame)) {
            crate::wire::Reply::Generation(_) => out.ledger.ok("reload"),
            crate::wire::Reply::Failed(why) => out.ledger.fail("reload", why),
            crate::wire::Reply::Topics(_) => out.ledger.fail("reload", "unexpected"),
        }
    }
    let after = Scrape::take(client).map_err(|e| format!("METRICS: {e}"))?;
    out.metric(
        "server.reload_us",
        after.mean_since(&before, "pit_reload_us"),
        "us",
    );
    Ok(())
}

/// The tracing overhead: traced minus untraced median latency, as a
/// percentage of the untraced one.
pub fn overhead(out: &mut Outcome, untraced: &Latencies, traced: &Latencies) {
    let u = untraced.percentile_ns(50.0).unwrap_or(0) as f64;
    let t = traced.percentile_ns(50.0).unwrap_or(0) as f64;
    out.metric("obs.trace_overhead_pct", ratio(t - u, u) * 100.0, "%");
    out.note(
        "trace_overhead",
        J::obj([
            ("untraced_p50_us", J::Num(u / 1e3)),
            ("traced_p50_us", J::Num(t / 1e3)),
            ("untraced_samples", J::Int(untraced.len() as u64)),
            ("traced_samples", J::Int(traced.len() as u64)),
        ]),
    );
}

/// Queries the served replay of an in-process workload sends.
const REPLAY_QUERIES: usize = 4_000;

/// The serving layers of a workload that has no server of its own: replay
/// its queries over one connection to a traced server on the same engine,
/// then RELOAD the engine's snapshot.
pub fn served_replay(
    ctx: &mut Ctx,
    out: &mut Outcome,
    engine: &Arc<PitEngine>,
    queries: &[Query],
    snapshot: &Path,
) -> Result<(), String> {
    let server = fixture::Served::start(pit_server::ServerState::new(
        Arc::clone(engine),
        fixture::traced_server_config(pit_server::ServerConfig::default().cache_capacity),
    ))?;
    let replay = &queries[..REPLAY_QUERIES.min(queries.len())];
    let result = (|| {
        let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let before = Scrape::take(&mut client).map_err(|e| format!("METRICS: {e}"))?;
        let mut log = crate::load::ClientLog::new(true);
        for (i, q) in replay.iter().enumerate() {
            let sent = Instant::now();
            let reply = client.call(&q.frame());
            log.query(0, i, sent, sent, reply);
        }
        let after = Scrape::take(&mut client).map_err(|e| format!("METRICS: {e}"))?;
        served(out, &before, &after, log.rtt_mean_us());
        let (checked, bad) =
            crate::load::check_samples(&log.samples, |_, i| fixture::ranking(engine, &replay[i]));
        out.check(
            "served_replay_matches_in_process",
            checked > 0 && bad == 0,
            format!("{bad} of {checked} sampled replies differ"),
        );
        out.ledger.merge(&log.ledger);
        if let Some(spans) = log.spans.take() {
            ctx.spans.absorb(spans);
        }
        reloads(out, &mut client, snapshot)
    })();
    server.stop();
    result
}
