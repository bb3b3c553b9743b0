//! Allocation-freedom regression for the query hot path.
//!
//! This binary installs [`pit_eval::alloc::CountingAllocator`] as its global
//! allocator and counts the test thread's own *allocation calls* (not
//! bytes, and never another thread's) across the search driver's round
//! loop. After a warm-up query has sized the per-worker
//! [`SearchScratch`] buffers, re-running the same query's probe/feed loop
//! against a flat-mapped engine must perform **zero** heap allocations —
//! this is the contract that lets a serving worker answer steady-state
//! queries without touching the allocator. A full search is allowed a
//! small constant number of allocations (the `related_topics` gather in
//! `begin` and the `top_k` vector in `finish`), and that constant is
//! pinned here so a regression shows up as a number, not a hunch.

use pit::engine::PitEngine;
use pit::store;
use pit_eval::alloc::{alloc_calls, CountingAllocator};
use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
use pit_search_core::{CancelToken, NoTracer, SearchConfig, SearchDriver, SearchScratch};
use pit_topics::{KeywordQuery, TopicSpaceBuilder};
use pit_walk::WalkConfig;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Build the figure-1 engine, round-trip it through a flat snapshot in a
/// scratch directory of the calling test's own, and return the mapped load
/// — the hot path under test is the one production workers run: query
/// execution over arrays borrowed from the file mapping.
fn mapped_engine(test: &str) -> PitEngine {
    let graph = figure1_graph();
    let mut vocab = pit_topics::Vocabulary::new();
    let phone = vocab.intern("phone");
    let mut b = TopicSpaceBuilder::new(graph.node_count(), 1);
    for members in &figure1_topics() {
        let t = b.add_topic(vec![phone]);
        for &m in members {
            b.assign(m, t);
        }
    }
    let built = PitEngine::builder()
        .walk(WalkConfig::new(4, 16).with_seed(7))
        .build_with_vocab(graph, b.build(), Some(vocab));
    let dir = std::env::temp_dir().join(format!("pit-alloc-reg-{test}-{}", std::process::id()));
    store::save_engine(&dir, &built).unwrap();
    let engine = store::load_engine(&dir).unwrap();
    // A mapped engine keeps serving from the unlinked inode.
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(engine.snapshot_format(), "flat-mapped");
    engine
}

/// Drive one query through the round loop by hand, so the measurement
/// bracket can exclude `begin` (which gathers the query's topic list) and
/// `finish` (which allocates the returned `top_k`). Returns the number of
/// allocation calls observed strictly inside the probe/feed loop.
fn loop_alloc_calls(
    engine: &PitEngine,
    query: &KeywordQuery,
    scratch: &mut SearchScratch,
) -> usize {
    let cancel = CancelToken::none();
    let mut tracer = NoTracer;
    let prop = engine.propagation();
    let mut driver = SearchDriver::begin(
        engine.space(),
        engine.reps(),
        SearchConfig::top(3),
        query,
        prop.len(),
        prop.config().theta,
        &cancel,
        &mut tracer,
        scratch,
    )
    .unwrap();
    let before = alloc_calls();
    while driver.round_begin(&cancel, &mut tracer).unwrap() {
        let mut i = 0;
        while let Some((u, ep_u)) = driver.round_probe(i) {
            driver
                .feed_gamma(&cancel, &mut tracer, prop.gamma(u), ep_u)
                .unwrap();
            i += 1;
        }
    }
    let after = alloc_calls();
    let outcome = driver.finish(&mut tracer);
    assert!(!outcome.top_k.is_empty(), "query must do real work");
    after - before
}

#[test]
fn warm_round_loop_is_allocation_free() {
    let engine = mapped_engine("round-loop");
    let query = KeywordQuery::new(user(3), vec![pit_graph::TermId(0)]);
    let mut scratch = SearchScratch::new();

    // Warm-up: two passes size every scratch buffer (rep map, rings, probe
    // buffer, visited set) for this query shape — hash-map growth amortizes
    // over the first two runs before the capacities converge.
    let cold = loop_alloc_calls(&engine, &query, &mut scratch);
    let settle = loop_alloc_calls(&engine, &query, &mut scratch);
    assert!(cold >= settle, "warm-up must monotonically settle");

    let warm1 = loop_alloc_calls(&engine, &query, &mut scratch);
    let warm2 = loop_alloc_calls(&engine, &query, &mut scratch);

    assert_eq!(
        warm1, 0,
        "warm probe/feed loop allocated (cold run had {cold} calls)"
    );
    assert_eq!(warm2, 0, "second warm loop allocated");
}

#[test]
fn warm_full_search_allocates_only_the_result() {
    let engine = mapped_engine("full-search");
    let query = KeywordQuery::new(user(3), vec![pit_graph::TermId(0)]);
    let cancel = CancelToken::none();
    let mut tracer = NoTracer;
    let mut scratch = SearchScratch::new();

    // Two warm-up passes through the public entry point.
    for _ in 0..2 {
        engine
            .try_search_traced_with(&query, 3, &cancel, &mut tracer, &mut scratch)
            .unwrap();
    }

    let before = alloc_calls();
    let out = engine
        .try_search_traced_with(&query, 3, &cancel, &mut tracer, &mut scratch)
        .unwrap();
    let delta = alloc_calls() - before;
    assert!(!out.top_k.is_empty());

    // `begin` gathers the related-topic list, `finish` allocates the
    // returned top_k vector; everything in between must come from scratch.
    // The exact constant is pinned loosely (<= 8) so incidental churn in
    // those two bookends doesn't flake the test, while a hot-path
    // regression (per-probe or per-round allocation) blows well past it.
    assert!(
        delta <= 8,
        "warm full search made {delta} allocation calls (expected <= 8)"
    );
}
