//! `routed_closed`: the 10k-node engine split into two in-process shards
//! (`ShardedEngine::split`) behind `ServerState::with_engine`, driven by
//! two back-to-back connections over Zipf-skewed keys whose working set
//! exceeds the default-size result cache. Both connections share one I/O
//! thread.

use crate::fixture::{self, Served, MAIN_NODES};
use crate::gen::{self, Query};
use crate::layers;
use crate::load::{self, ClientLog};
use crate::wire::{Client, Scrape};
use crate::{admin, Ctx, Outcome};
use pit::PitEngine;
use pit_router::ShardedEngine;
use pit_server::{ServeEngine, ServerConfig, ServerState};
use std::sync::Arc;
use std::time::Instant;

/// Client connections, one thread each.
const CONNECTIONS: usize = 2;
/// Server I/O threads. With one, either connection's traffic resets the
/// event loop's idle backoff for both, so a reply is noticed about when
/// its search ends instead of at the next step of one connection's sleep
/// ladder (0.2, 0.6, 1.4, 3.0 ms ...). With a thread per connection, host
/// load that slows searches pushes replies across those steps: in eight
/// paired runs on a 2-vCPU host with a real-time hog taking 30% of each
/// vCPU, the `query_qps` spread was 0.087 against 0.036 with one thread
/// (`query_p50_us` 0.099 against 0.066).
const IO_THREADS: usize = 1;
/// Shards the engine is split into.
const SHARDS: u32 = 2;
/// Keys per connection stream; the window cycles through them.
const STREAM: usize = 1 << 16;
/// Zipf exponent over the `user × keyword` key space.
const SKEW: f64 = 0.9;
/// Queries per connection before the window (they also warm the cache).
const WARMUP: usize = 1_000;

fn streams(seed: u64) -> Vec<Vec<Query>> {
    (0..CONNECTIONS)
        .map(|c| {
            gen::zipf_queries(
                seed,
                &format!("keys-{c}"),
                MAIN_NODES,
                gen::hub_terms(MAIN_NODES),
                SKEW,
                STREAM,
            )
        })
        .collect()
}

fn start(sharded: &Arc<ShardedEngine>, config: ServerConfig) -> Result<Served, String> {
    Served::start(ServerState::with_engine(
        Arc::clone(sharded) as Arc<dyn ServeEngine>,
        ServerConfig {
            io_threads: IO_THREADS,
            ..config
        },
    ))
}

fn warm(served: &Served, streams: &[Vec<Query>]) -> Result<(), String> {
    let mut client = Client::connect(served.addr).map_err(|e| format!("connect: {e}"))?;
    for s in streams {
        for q in &s[..WARMUP] {
            client
                .call(&q.frame())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(())
}

/// Routed replies must equal the single-node in-process ranking.
fn check(out: &mut Outcome, engine: &PitEngine, streams: &[Vec<Query>], log: &ClientLog) {
    let (checked, bad) = load::check_samples(&log.samples, |c, i| {
        fixture::ranking(engine, &streams[c as usize][i])
    });
    out.check(
        "routed_matches_single_node",
        checked > 0 && bad == 0,
        format!("{bad} of {checked} sampled routed replies differ"),
    );
}

fn window(
    served: &Served,
    streams: &[Vec<Query>],
    secs: std::time::Duration,
    traced: bool,
) -> Result<ClientLog, String> {
    let log = load::closed_loops(served.addr, streams, WARMUP, Instant::now() + secs, traced)?;
    Ok(log)
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.args.seed;
    let streams = streams(seed);
    if ctx.args.trace {
        return traced(ctx, out, &streams);
    }
    let default_cache = ServerConfig::default().cache_capacity;
    let ((engine, served), setup_s) = fixture::repeated(
        |_| {
            let engine = Arc::new(fixture::build(MAIN_NODES));
            let sharded = Arc::new(ShardedEngine::split(&engine, SHARDS));
            let served = start(&sharded, fixture::server_config(default_cache))?;
            load::first_reply(served.addr, &streams[0][0])?;
            Ok((engine, served))
        },
        |(_, served)| served.stop(),
    )?;
    out.metric("setup_s", setup_s, "s");
    let result =
        warm(&served, &streams).and_then(|()| window(&served, &streams, ctx.args.window, false));
    served.stop();
    let log = result?;
    out.query_latency(&log.lat)?;
    out.metric("query_qps", log.sliced_qps(), "1/s");
    out.ledger.merge(&log.ledger);
    check(out, &engine, &streams, &log);
    drop(engine);
    admin::control(ctx, out)
}

fn traced(ctx: &mut Ctx, out: &mut Outcome, streams: &[Vec<Query>]) -> Result<(), String> {
    let (engine, stages) = fixture::build_staged(MAIN_NODES, &mut ctx.spans);
    layers::offline(out, &stages);
    let engine = Arc::new(engine);
    let snapshot = layers::store(ctx, out, &engine)?;
    let split_root = ctx.work_dir.join("split");
    pit::shard::split_snapshot(&snapshot, &split_root, SHARDS)
        .map_err(|e| format!("split snapshot: {e}"))?;
    let sharded = Arc::new(ShardedEngine::split(&engine, SHARDS));
    let cache = ServerConfig::default().cache_capacity;
    let plain = start(&sharded, fixture::server_config(cache))?;
    let traced = start(&sharded, fixture::traced_server_config(cache))?;
    let half = ctx.args.window / 2;
    let result = (|| {
        warm(&plain, streams)?;
        warm(&traced, streams)?;
        let untraced_log = window(&plain, streams, half, false)?;
        let mut scraper = Client::connect(traced.addr).map_err(|e| format!("connect: {e}"))?;
        let before = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        let mut log = window(&traced, streams, half, true)?;
        let after = Scrape::take(&mut scraper).map_err(|e| format!("METRICS: {e}"))?;
        layers::served(out, &before, &after, log.rtt_mean_us());
        layers::overhead(out, &untraced_log.lat, &log.lat);
        layers::reloads(out, &mut scraper, &split_root)?;
        check(out, &engine, streams, &untraced_log);
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
    // The RELOADs moved the shards to a new generation, so the router
    // layer is timed on a fresh split.
    drop(sharded);
    layers::search(ctx, out, &engine, &streams[0]);
    layers::router(out, &engine, None, &streams[0])?;
    layers::protocol(out, &engine, &streams[0]);
    layers::update(
        ctx,
        out,
        &engine,
        &admin::deltas(ctx.args.seed, &engine)[..1],
    )
}
