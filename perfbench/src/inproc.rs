//! `search_inproc`: one thread calls `PitEngine::try_search_traced_with`
//! with one reused `SearchScratch` — Algorithms 10–11 with no serving
//! stack around them. The window runs in [`PROCESSES`] consecutive
//! processes, each loading the set-up's snapshot into owned memory.

use crate::fixture::{self, MAIN_NODES};
use crate::gen;
use crate::json::J;
use crate::layers::{self, search_pass};
use crate::stats::{Digest, Latencies};
use crate::{admin, Ctx, Outcome};
use pit::PitEngine;
use pit_search_core::{CancelToken, NoTracer, SearchScratch};
use pit_topics::KeywordQuery;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct queries in the stream; the window cycles through them.
const STREAM: usize = 1 << 15;
/// Leading queries whose answers form the run's digest.
const DIGEST_QUERIES: usize = 500;
/// Processes the window is spread over. On a shared host the speed of
/// this memory-bound loop differs from process to process by up to a
/// third (same engine, same queries, pinned or not) while staying steady
/// within one, so the window pools the samples of several short-lived
/// processes rather than trusting one.
const PROCESSES: usize = 5;
/// First argument that makes this binary a window process.
pub const CHILD_VERB: &str = "search-window";
/// Queries run before the window, so lazy set-up is not timed.
const WARMUP: usize = 2_000;

fn digest(engine: &PitEngine, queries: &[(KeywordQuery, usize)]) -> u64 {
    let cancel = CancelToken::none();
    let mut scratch = SearchScratch::new();
    let mut d = Digest::default();
    for (kq, k) in &queries[..DIGEST_QUERIES] {
        let o = engine
            .try_search_traced_with(kq, *k, &cancel, &mut NoTracer, &mut scratch)
            .expect("generated queries are in range");
        let ranked: Vec<(u32, f64)> = o.top_k.iter().map(|s| (s.topic.0, s.score)).collect();
        d.ranking(&ranked);
    }
    d.value()
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

    let mut first_digest = 0;
    let (engine, setup_s) = fixture::repeated(
        |rep| {
            let engine = fixture::build(MAIN_NODES);
            if rep == 0 {
                first_digest = digest(&engine, &layers::resolve(&engine, &stream));
            }
            Ok(engine)
        },
        drop,
    )?;
    out.metric("setup_s", setup_s, "s");
    let last_digest = digest(&engine, &layers::resolve(&engine, &stream));
    let snapshot = ctx.work_dir.join("engine");
    pit::store::save_engine(&snapshot, &engine).map_err(|e| format!("save snapshot: {e}"))?;
    drop(engine);

    let slice = ctx.args.window / PROCESSES as u32;
    let mut lat = Latencies::default();
    let mut busy_s = 0.0;
    let mut digests = Vec::with_capacity(PROCESSES);
    for i in 0..PROCESSES {
        let child = run_child(&snapshot, seed, slice, i * STREAM / PROCESSES)?;
        digests.push(child.digest);
        busy_s += child.window_s;
        for &ns in &child.lat {
            if ns == Latencies::FAILED {
                lat.push_failed();
                out.ledger.fail("search", "search-error");
            } else {
                lat.push_ns(ns);
                out.ledger.ok("search");
            }
        }
    }
    out.query_latency_pooled(&lat)?;
    out.metric("query_qps", lat.len() as f64 / busy_s, "1/s");
    out.check(
        "search_digest_constant",
        first_digest == last_digest && digests.iter().all(|&d| d == last_digest),
        format!(
            "first build {first_digest:016x}, last build {last_digest:016x}, \
             snapshot-loaded processes {digests:016x?} over {DIGEST_QUERIES} queries"
        ),
    );
    out.note("search_digest", J::str(format!("{last_digest:016x}")));
    admin::control(ctx, out)
}

/// What one window process measured.
struct ChildWindow {
    digest: u64,
    window_s: f64,
    lat: Vec<u64>,
}

/// Run one slice of the window in a fresh process of this binary (see
/// [`child`]) and read back its samples.
fn run_child(
    snapshot: &Path,
    seed: u64,
    window: Duration,
    offset: usize,
) -> Result<ChildWindow, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg(CHILD_VERB)
        .arg(snapshot)
        .arg(seed.to_string())
        .arg(window.as_secs_f64().to_string())
        .arg(offset.to_string())
        .output()
        .map_err(|e| format!("spawn window process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "window process failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .ok_or_else(|| format!("window process printed no {key:?}"))
    };
    let digest = u64::from_str_radix(field("digest ")?, 16).map_err(|e| format!("digest: {e}"))?;
    let window_s = field("window_s ")?
        .parse::<f64>()
        .map_err(|e| format!("window_s: {e}"))?;
    let lat = field("lat ")?
        .split_ascii_whitespace()
        .map(|w| w.parse::<u64>().map_err(|e| format!("lat: {e}")))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(ChildWindow {
        digest,
        window_s,
        lat,
    })
}

/// The window process: load the snapshot into owned memory, replay the
/// digest queries (which also warms up), then run the stream from
/// `offset` until the slice ends. Arguments: snapshot dir, seed, seconds,
/// stream offset.
pub fn child(args: &[String]) -> Result<(), String> {
    let [dir, seed, seconds, offset] = args else {
        return Err(format!(
            "{CHILD_VERB} takes <snapshot> <seed> <seconds> <offset>"
        ));
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    let offset: usize = offset.parse().map_err(|e| format!("offset: {e}"))?;
    let engine =
        pit::store::load_engine_owned(Path::new(dir)).map_err(|e| format!("load {dir}: {e}"))?;
    let stream = gen::uniform_queries(
        seed,
        "queries",
        MAIN_NODES,
        gen::hub_terms(MAIN_NODES),
        STREAM,
    );
    let resolved = layers::resolve(&engine, &stream);
    let digest = digest(&engine, &resolved);
    let cancel = CancelToken::none();
    let mut scratch = SearchScratch::new();
    let mut lat: Vec<u64> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut end = start;
    let mut i = offset;
    while end < deadline {
        let (kq, k) = &resolved[i % STREAM];
        let t = Instant::now();
        let r = engine.try_search_traced_with(kq, *k, &cancel, &mut NoTracer, &mut scratch);
        end = Instant::now();
        lat.push(match r {
            Ok(o) => {
                std::hint::black_box(&o.top_k);
                (end - t).as_nanos() as u64
            }
            Err(_) => Latencies::FAILED,
        });
        i += 1;
    }
    let words: Vec<String> = lat.iter().map(u64::to_string).collect();
    println!("digest {digest:016x}");
    println!("window_s {}", (end - start).as_secs_f64());
    println!("lat {}", words.join(" "));
    Ok(())
}

/// The traced run: a stage-by-stage build, the window split into an
/// untraced and a traced half, then the layers this workload does not
/// exercise itself, on its own engine and queries.
fn traced(ctx: &mut Ctx, out: &mut Outcome, stream: &[gen::Query]) -> Result<(), String> {
    let (engine, stages) = fixture::build_staged(MAIN_NODES, &mut ctx.spans);
    layers::offline(out, &stages);
    let engine = Arc::new(engine);
    let resolved = layers::resolve(&engine, stream);
    search_pass(&engine, &resolved[..WARMUP], None, None);
    let half = ctx.args.window / 2;
    let untraced = search_pass(&engine, &resolved, Some(Instant::now() + half), None);
    let traced = search_pass(
        &engine,
        &resolved,
        Some(Instant::now() + half),
        Some(&mut ctx.spans),
    );
    out.ledger.ok_n("search", untraced.queries + traced.queries);
    layers::report_search(out, &ctx.spans, &traced);
    layers::overhead(out, &untraced.lat, &traced.lat);

    let snapshot = layers::store(ctx, out, &engine)?;
    layers::router(out, &engine, None, stream)?;
    layers::protocol(out, &engine, stream);
    layers::update(
        ctx,
        out,
        &engine,
        &admin::deltas(ctx.args.seed, &engine)[..1],
    )?;
    layers::served_replay(ctx, out, &engine, stream, &snapshot)
}
