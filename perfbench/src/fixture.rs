//! Building what a workload runs against: the paper-shaped engine (in one
//! call, or stage by stage for the traced run), the in-process server, and
//! the repeated set-up whose median is `setup_s`.

use crate::gen::{self, Query};
use crate::span::{Spans, ROOT};
use pit::{PitEngine, SummarizerKind};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_search_core::{CancelToken, TopicRepIndex};
use pit_server::{ServerConfig, ServerHandle, ServerState};
use pit_summarize::{LrwConfig, LrwSummarizer, SummarizeContext};
use pit_topics::KeywordQuery;
use pit_walk::{WalkConfig, WalkIndex, WalkIndexParts};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Users in the engine every workload but `admin_mix` serves.
pub const MAIN_NODES: usize = 10_000;
/// Users in the `admin_mix` engine. Every UPDATE re-summarizes all of its
/// topics, so this sets the UPDATE cost (~0.23 s on a 2-core host); it is
/// small enough that one run window holds the 20 UPDATEs a median and the
/// 100 RELOADs a p90 need.
pub const ADMIN_NODES: usize = 1_500;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// EXPAND-round cap of `PitEngineBuilder`'s default, repeated for the
/// stage-by-stage build.
const MAX_EXPAND_ROUNDS: usize = 4;

fn walk_config() -> WalkConfig {
    WalkConfig::new(5, 32).with_seed(gen::stream_seed(gen::DATASET_SEED, "walks"))
}

fn prop_config() -> PropIndexConfig {
    PropIndexConfig::with_theta(0.01)
}

/// Generate the dataset and run the whole offline stage in one call.
pub fn build(nodes: usize) -> PitEngine {
    let ds = pit_datasets::generate(&gen::dataset_spec(nodes, gen::DATASET_SEED));
    PitEngine::builder()
        .walk(walk_config())
        .propagation(prop_config())
        .summarizer(SummarizerKind::Lrw(LrwConfig::default()))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab))
}

/// Seconds spent in each offline stage of [`build_staged`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub generate_s: f64,
    pub walk_s: f64,
    pub summarize_s: f64,
    pub index_s: f64,
}

/// [`build`], one layer call at a time, each under its own span.
pub fn build_staged(nodes: usize, spans: &mut Spans) -> (PitEngine, StageTimes) {
    let root = spans.open("setup.build", ROOT, 0);
    let mut times = StageTimes::default();
    let stage = |spans: &mut Spans, name: &'static str, start: Instant| -> f64 {
        let end = Instant::now();
        spans.record(name, root, 0, start, end);
        (end - start).as_secs_f64()
    };

    let t = Instant::now();
    let ds = pit_datasets::generate(&gen::dataset_spec(nodes, gen::DATASET_SEED));
    times.generate_s = stage(spans, "datasets.generate", t);

    let t = Instant::now();
    let walks = WalkIndex::build_parts(&ds.graph, walk_config(), WalkIndexParts::FOR_LRW);
    times.walk_s = stage(spans, "walk.build", t);

    let t = Instant::now();
    let cfg = LrwConfig::default();
    let reps = TopicRepIndex::build(
        &SummarizeContext {
            graph: &ds.graph,
            space: &ds.space,
            walks: &walks,
        },
        &LrwSummarizer::new(cfg),
    );
    times.summarize_s = stage(spans, "summarize.build", t);

    let t = Instant::now();
    let prop = PropagationIndex::build(&ds.graph, prop_config());
    times.index_s = stage(spans, "index.build", t);
    spans.close(root);

    let engine = PitEngine::from_parts(
        ds.graph,
        ds.space,
        Some(ds.vocab),
        walks,
        prop,
        reps,
        SummarizerKind::Lrw(cfg),
        MAX_EXPAND_ROUNDS,
    );
    (engine, times)
}

/// Resolve a generated query against the engine's vocabulary.
pub fn keyword_query(engine: &PitEngine, q: &Query) -> KeywordQuery {
    let vocab = engine
        .vocab()
        .expect("generated engines keep their vocabulary");
    let terms = q
        .keywords()
        .iter()
        .map(|kw| vocab.get(kw).expect("hub keywords are in the vocabulary"))
        .collect();
    KeywordQuery::new(pit_graph::NodeId(q.user), terms)
}

/// The single-node in-process ranking: the oracle served replies must
/// equal bit for bit.
pub fn ranking(engine: &PitEngine, q: &Query) -> Vec<(u32, f64)> {
    engine
        .try_search(&keyword_query(engine, q), q.k, &CancelToken::none())
        .expect("generated queries are in range")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serving knobs shared by every served workload: one worker per core and
/// a budget long enough that no query times out.
pub fn server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        cache_capacity,
        query_budget: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

/// [`server_config`] for the traced run: the server also samples every
/// query into its own per-stage histograms.
pub fn traced_server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        trace_sample: 1,
        ..server_config(cache_capacity)
    }
}

/// A running in-process server.
pub struct Served {
    pub handle: ServerHandle,
    pub addr: SocketAddr,
}

impl Served {
    pub fn start(state: ServerState) -> Result<Served, String> {
        let handle =
            pit_server::serve(Arc::new(state), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let addr = handle.addr();
        Ok(Served { handle, addr })
    }

    /// Stop accepting, drain, and wait for every server thread. Clients
    /// must have closed their connections first.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Run `setup` [`SETUP_REPS`] times, tearing each result down before the
/// next, and return the last result with the median wall time in seconds.
pub fn repeated<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.expect("at least one set-up ran");
    Ok((last, crate::stats::median(&times)))
}
