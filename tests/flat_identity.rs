//! Bit-identity of the zero-copy loaders: for arbitrary generated graphs
//! and topic assignments, summarized by either summarizer and queried by
//! keyword through the stored vocabulary, the engine served from a mapped
//! flat snapshot must answer every query exactly like the engine it was
//! saved from and like the deep-copying owned loader — same topics, same
//! order, same score *bits*, same work counters. This is the proof that
//! borrowing every array straight out of the file mapping changes nothing
//! about query semantics, only about load cost.

use pit::engine::{PitEngine, SummarizerKind};
use pit::store;
use pit_graph::{GraphBuilder, NodeId};
use pit_summarize::{LrwConfig, RclConfig};
use pit_topics::{TopicSpaceBuilder, Vocabulary};
use pit_walk::WalkConfig;
use proptest::prelude::*;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random small directed graph plus a random topic assignment.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    /// topic -> member node ids.
    topics: Vec<Vec<u32>>,
    seed: u64,
    /// RCL-A instead of LRW-A.
    rcl: bool,
}

fn instance() -> impl Strategy<Value = Instance> {
    (4usize..=12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..0.9f64)
            .prop_filter("no self-loops", |(a, b, _)| a != b);
        let edges = proptest::collection::vec(edge, n..3 * n).prop_map(move |mut es| {
            let mut seen = FxHashSet::default();
            es.retain(|&(a, b, _)| seen.insert((a, b)));
            es
        });
        let topic = proptest::collection::vec(0..n as u32, 1..=4).prop_map(|mut t| {
            t.sort_unstable();
            t.dedup();
            t
        });
        let topics = proptest::collection::vec(topic, 2..=4);
        (edges, topics, 0u64..1024, any::<bool>()).prop_map(move |(edges, topics, seed, rcl)| {
            Instance {
                n,
                edges,
                topics,
                seed,
                rcl,
            }
        })
    })
}

fn build_engine(inst: &Instance) -> PitEngine {
    let mut b = GraphBuilder::new(inst.n);
    for &(u, v, p) in &inst.edges {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    let graph = b.build().unwrap();
    let mut vocab = Vocabulary::new();
    let (common, rare) = (vocab.intern("common"), vocab.intern("rare"));
    let mut tb = TopicSpaceBuilder::new(inst.n, vocab.len());
    for (i, members) in inst.topics.iter().enumerate() {
        let terms = if i % 2 == 0 {
            vec![common]
        } else {
            vec![common, rare]
        };
        let t = tb.add_topic(terms);
        for &m in members {
            tb.assign(NodeId(m), t);
        }
    }
    let summarizer = if inst.rcl {
        SummarizerKind::Rcl(RclConfig {
            c_size: 2,
            ..RclConfig::default()
        })
    } else {
        SummarizerKind::Lrw(LrwConfig {
            rep_count: Some(2),
            ..LrwConfig::default()
        })
    };
    PitEngine::builder()
        .walk(WalkConfig::new(3, 8).with_seed(inst.seed))
        .summarizer(summarizer)
        .build_with_vocab(graph, tb.build(), Some(vocab))
}

/// Everything a query answer consists of, exact to the bit: ranked topic
/// ids, score bit patterns, and the work counters the paper reports.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    ranked: Vec<(u32, u64)>,
    candidate_topics: usize,
    pruned_topics: usize,
    expand_rounds: usize,
    probed_tables: usize,
    loaded_reps: usize,
}

/// The answer to `user`'s query for `keyword`, resolved through the
/// engine's own vocabulary.
fn answer(engine: &PitEngine, u: u32, keyword: &str, k: usize) -> Answer {
    let out = engine.search_keywords(NodeId(u), &[keyword], k).unwrap();
    Answer {
        ranked: out
            .top_k
            .iter()
            .map(|s| (s.topic.0, s.score.to_bits()))
            .collect(),
        candidate_topics: out.candidate_topics,
        pruned_topics: out.pruned_topics,
        expand_rounds: out.expand_rounds,
        probed_tables: out.probed_tables,
        loaded_reps: out.loaded_reps,
    }
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pit-flat-identity-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mapped, fast-mapped, and owned loads of the same snapshot answer
    /// every (user, k) bit-identically to the engine that was saved.
    #[test]
    fn flat_loaders_are_bit_identical(inst in instance(), k in 1usize..=5) {
        let built = build_engine(&inst);
        let dir = scratch_dir();
        store::save_engine(&dir, &built).unwrap();
        let mapped = store::load_engine(&dir).unwrap();
        let fast = store::load_engine_fast(&dir).unwrap();
        let owned = store::load_engine_owned(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(mapped.snapshot_format(), "flat-mapped");
        prop_assert_eq!(owned.snapshot_format(), "owned");
        prop_assert!(mapped.mapped_bytes() > 0, "no arrays were mapped");

        for engine in [&mapped, &fast, &owned] {
            prop_assert_eq!(
                format!("{:?}", engine.summarizer()),
                format!("{:?}", built.summarizer())
            );
        }
        for keyword in ["common", "rare"] {
            for u in 0..inst.n as u32 {
                let want = answer(&built, u, keyword, k);
                prop_assert_eq!(
                    answer(&mapped, u, keyword, k), want.clone(),
                    "mapped load diverged at user {} ({}, k={})", u, keyword, k
                );
                prop_assert_eq!(
                    answer(&fast, u, keyword, k), want.clone(),
                    "fast load diverged at user {} ({}, k={})", u, keyword, k
                );
                prop_assert_eq!(
                    answer(&owned, u, keyword, k), want,
                    "owned load diverged at user {} ({}, k={})", u, keyword, k
                );
            }
        }
    }
}
