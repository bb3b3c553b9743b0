//! Cold-start benchmarks: how fast a serving process goes from "snapshot on
//! disk" to "first query answered". This is the number the flat snapshot
//! format exists to improve — the owned loader deep-copies and re-validates
//! every index array, while the flat loaders map `engine.pitf` read-only and
//! borrow the arrays in place, so array load cost is O(sections), not
//! O(bytes).
//!
//! Two snapshot shapes are measured. Every array, topic space and
//! representative index included, is viewed in place; the flat loaders
//! still validate the topic and representative lists in one linear pass:
//! * `paper` — `scaled_topic_config` (64 topics/node): that validation
//!   pass over 640 k topic assignments is most of the flat load;
//! * `arrays` — topic-light, θ = 0.01 (large Γ): the snapshot is almost
//!   entirely arrays, the shape a production reload is dominated by.
//!
//! Three load tiers are measured, matching the production call sites:
//! * `load_owned` — deep copy + deep validation (the conservative path);
//! * `load_flat_verified` — mapped, full checksum pass (initial start);
//! * `load_flat_fast` — mapped, no checksum pass (RELOAD from the
//!   server's own staged save, where checksums were verified at write time).
//!
//! `first_query_*` adds one uncached query on top of the load, i.e. the
//! end-to-end cold-start latency a RELOAD imposes on the next caller.
//!
//! Results are recorded in `crates/bench/BENCH.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pit::{store, PitEngine};
use pit_graph::{NodeId, TermId};
use pit_topics::SyntheticTopicConfig;
use std::path::PathBuf;

/// Build an engine snapshot on disk and return its directory and file size.
fn snapshot_dir(tag: &str, topics: SyntheticTopicConfig) -> (PathBuf, usize) {
    let spec = pit_datasets::DatasetSpec {
        name: format!("coldstart-{tag}"),
        nodes: 10_000,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics,
        seed: 0xC01D,
    };
    let ds = pit_datasets::generate(&spec);
    // Serving-shaped index parameters (the EXPERIMENTS environment): L = 5,
    // R = 32, θ = 0.01. Low θ makes the Γ tables — the arrays the flat
    // format maps instead of copying — the dominant snapshot payload, as
    // they are at production scale.
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(5, 32).with_seed(1))
        .propagation(pit_index::PropIndexConfig::with_theta(0.01))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    let dir =
        std::env::temp_dir().join(format!("pit-coldstart-bench-{tag}-{}", std::process::id()));
    store::save_engine(&dir, &engine).expect("save snapshot");
    let bytes = std::fs::metadata(dir.join(store::FLAT_FILE))
        .expect("snapshot written")
        .len() as usize;
    (dir, bytes)
}

fn first_query(engine: &PitEngine) {
    let out = engine.search_user_term(NodeId(1), TermId(0), 10);
    black_box(out.top_k.len());
}

fn bench_shape(c: &mut Criterion, tag: &str, topics: SyntheticTopicConfig) {
    let (dir, bytes) = snapshot_dir(tag, topics);
    let mut group = c.benchmark_group(format!("coldstart_{tag}"));
    group.sample_size(20);
    println!("{tag}: snapshot {bytes} bytes (engine.pitf)");

    group.bench_function("load_owned", |b| {
        b.iter(|| store::load_engine_owned(&dir).expect("owned load"));
    });
    group.bench_function("load_flat_verified", |b| {
        b.iter(|| store::load_engine(&dir).expect("verified load"));
    });
    group.bench_function("load_flat_fast", |b| {
        b.iter(|| store::load_engine_fast(&dir).expect("fast load"));
    });

    group.bench_function("first_query_owned", |b| {
        b.iter(|| {
            let engine = store::load_engine_owned(&dir).expect("owned load");
            first_query(&engine);
        });
    });
    group.bench_function("first_query_flat_fast", |b| {
        b.iter(|| {
            let engine = store::load_engine_fast(&dir).expect("fast load");
            first_query(&engine);
        });
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn coldstart(c: &mut Criterion) {
    // Paper-shaped topic density: topic validation dominates the flat load.
    bench_shape(
        c,
        "paper",
        pit_datasets::spec::scaled_topic_config(10_000, 0xC01D),
    );
    // Array-dominated: few small topics, so the snapshot is CSR/walk/Γ and
    // the flat mapping's O(sections) load shows its full margin.
    bench_shape(
        c,
        "arrays",
        SyntheticTopicConfig {
            topic_count: 200,
            query_term_count: 8,
            tail_term_count: 200,
            terms_per_topic: 4,
            topics_per_node_mean: 2.0,
            zipf_exponent: 0.9,
            seed: 0xC01D,
        },
    );
}

criterion_group!(benches, coldstart);
criterion_main!(benches);
