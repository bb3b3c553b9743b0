//! Generation determinism: the same spec must yield byte-identical corpora
//! on every run — the guarantee that lets snapshots, benchmarks, and the
//! serving layer all agree on what "dataset X, seed S" means.

use pit_datasets::{generate, DatasetKind, DatasetSpec};

fn spec(nodes: usize, seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: format!("det-{seed}"),
        nodes,
        kind: DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(nodes, seed),
        seed,
    }
}

/// The `dataset.pitf` bytes `pit generate` would write, so the comparison
/// is bit-level, not structural.
fn fingerprint(spec: &DatasetSpec) -> Vec<u8> {
    let ds = generate(spec);
    pit::store::encode_dataset(&ds.graph, &ds.space, Some(&ds.vocab)).expect("encode dataset")
}

#[test]
fn same_spec_is_byte_identical() {
    let s = spec(800, 42);
    assert!(
        fingerprint(&s) == fingerprint(&s),
        "dataset bytes diverged across runs"
    );
}

#[test]
fn different_seeds_actually_differ() {
    assert!(
        fingerprint(&spec(800, 1)) != fingerprint(&spec(800, 2)),
        "seeds 1 and 2 produced identical corpora — generator ignores the seed"
    );
}

#[test]
fn paper_specs_are_deterministic() {
    // The scaled-down paper spec used across tests and benches must also be
    // stable run to run.
    let mut specs = pit_datasets::paper_specs(200);
    let s = specs.remove(0);
    assert!(fingerprint(&s) == fingerprint(&s));
}
