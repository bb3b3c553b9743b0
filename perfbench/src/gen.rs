//! Seeded input generators. The traffic a run sends — query streams,
//! arrival schedules, and update deltas — is a pure function of its
//! `--seed`; the social graph and topic space are a fixed fixture
//! ([`DATASET_SEED`]).

use pit::Delta;
use pit_datasets::{DatasetKind, DatasetSpec};
use pit_graph::{CsrGraph, NodeId, TopicId};
use pit_server::Request;
use pit_topics::TopicSpace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Independent sub-seed for one named input stream of a run.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer over the combination.
    let mut z = seed ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: &str) -> SmallRng {
    SmallRng::seed_from_u64(stream_seed(seed, stream))
}

/// Seed of the social graph and topic space every run serves. The graph is
/// a fixed fixture so that runs with different `--seed`s differ only in
/// their traffic, not in the engine it hits.
pub const DATASET_SEED: u64 = 0x0051_7E5E;

/// The paper-shaped dataset: a preferential-attachment power-law graph
/// with the scaled topic density of 64 topics per user.
pub fn dataset_spec(nodes: usize, seed: u64) -> DatasetSpec {
    let s = stream_seed(seed, "dataset");
    DatasetSpec {
        name: format!("perfbench-{nodes}"),
        nodes,
        kind: DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(nodes, s),
        seed: s,
    }
}

/// Hub query keywords (`query-0` …) the dataset of `nodes` users has.
pub fn hub_terms(nodes: usize) -> u32 {
    pit_datasets::spec::scaled_topic_config(nodes, 0).query_term_count as u32
}

/// One query as a client issues it: a user, hub keyword indices, and `k`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    pub user: u32,
    pub hubs: Vec<u32>,
    pub k: usize,
}

impl Query {
    pub fn keywords(&self) -> Vec<String> {
        self.hubs.iter().map(|h| format!("query-{h}")).collect()
    }

    /// The `QUERY` frame carrying this query.
    pub fn frame(&self) -> String {
        Request::Query {
            user: self.user,
            k: self.k,
            keywords: self.keywords(),
        }
        .render()
    }
}

/// Uniform users, 1–3 distinct hub keywords, `k` ∈ {10, 50}.
pub fn uniform_queries(seed: u64, stream: &str, nodes: usize, hubs: u32, n: usize) -> Vec<Query> {
    let mut r = rng(seed, stream);
    (0..n)
        .map(|_| {
            let user = r.gen_range(0..nodes as u32);
            let want = r.gen_range(1..=3usize).min(hubs as usize);
            let mut picked: Vec<u32> = Vec::with_capacity(want);
            while picked.len() < want {
                let h = r.gen_range(0..hubs);
                if !picked.contains(&h) {
                    picked.push(h);
                }
            }
            let k = if r.gen_bool(0.5) { 10 } else { 50 };
            Query {
                user,
                hubs: picked,
                k,
            }
        })
        .collect()
}

/// Inverse-CDF sampler of ranks `0..n` with `P(rank) ∝ 1 / (rank + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, r: &mut impl Rng) -> usize {
        let u: f64 = r.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Zipf-skewed single-keyword queries (`k` = 10) over the whole
/// `user × hub keyword` key space. Popularity ranks are scattered over the
/// key space by a seeded affine bijection, so the hot keys are arbitrary
/// users rather than the graph's low-id hubs.
pub fn zipf_queries(
    seed: u64,
    stream: &str,
    nodes: usize,
    hubs: u32,
    exponent: f64,
    n: usize,
) -> Vec<Query> {
    let space = nodes as u64 * u64::from(hubs);
    let mut r = rng(seed, stream);
    let mut a = r.gen_range(1..space) | 1;
    while gcd(a, space) != 1 {
        a += 2;
    }
    let b = r.gen_range(0..space);
    let zipf = Zipf::new(space as usize, exponent);
    (0..n)
        .map(|_| {
            let rank = zipf.sample(&mut r) as u64;
            let key = (a.wrapping_mul(rank) % space + b) % space;
            Query {
                user: (key / u64::from(hubs)) as u32,
                hubs: vec![(key % u64::from(hubs)) as u32],
                k: 10,
            }
        })
        .collect()
}

/// A stream drawn uniformly from `keys` distinct seeded queries: a hot set
/// small enough to live in the result cache.
pub fn hot_queries(
    seed: u64,
    stream: &str,
    nodes: usize,
    hubs: u32,
    keys: usize,
    n: usize,
) -> Vec<Query> {
    let mut set: Vec<Query> = Vec::with_capacity(keys);
    let mut r = rng(seed, stream);
    while set.len() < keys {
        let q = Query {
            user: r.gen_range(0..nodes as u32),
            hubs: vec![r.gen_range(0..hubs)],
            k: 10,
        };
        if !set.contains(&q) {
            set.push(q);
        }
    }
    (0..n).map(|_| set[r.gen_range(0..keys)].clone()).collect()
}

/// Poisson arrivals at `rate` per second over `window`, as offsets from
/// the start, ascending. The count is fixed at `rate · window` (a Poisson
/// process conditioned on its count is that many uniform points), so every
/// seed offers exactly the same load.
pub fn poisson_schedule(seed: u64, stream: &str, rate: f64, window: Duration) -> Vec<Duration> {
    let mut r = rng(seed, stream);
    let n = (rate * window.as_secs_f64()).round() as usize;
    let mut at: Vec<f64> = (0..n)
        .map(|_| r.gen::<f64>() * window.as_secs_f64())
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// An update delta against `graph`/`space`: `edges` new influence edges
/// absent from the graph (and from each other), half of them aimed at the
/// low-id hubs preferential attachment concentrates edges on, plus
/// `assignments` new memberships of existing topics.
pub fn delta(
    seed: u64,
    stream: &str,
    graph: &CsrGraph,
    space: &TopicSpace,
    edges: usize,
    assignments: usize,
) -> Delta {
    let mut r = rng(seed, stream);
    let n = graph.node_count() as u32;
    let hubs = n.min(16);
    let mut d = Delta::default();
    while d.new_edges.len() < edges {
        let u = NodeId(r.gen_range(0..n));
        let v = NodeId(if r.gen_bool(0.5) {
            r.gen_range(0..hubs)
        } else {
            r.gen_range(0..n)
        });
        if u == v || graph.has_edge(u, v) || d.new_edges.iter().any(|&(a, b, _)| (a, b) == (u, v)) {
            continue;
        }
        // Multiples of 1/64 print exactly, so the wire carries the same
        // probability the in-process check applies.
        let p = f64::from(r.gen_range(4..=32u32)) / 64.0;
        d.new_edges.push((u, v, p));
    }
    let topics = space.topic_count() as u32;
    while d.new_assignments.len() < assignments {
        let v = NodeId(r.gen_range(0..n));
        let t = TopicId(r.gen_range(0..topics));
        if space.node_has_topic(v, t) || d.new_assignments.contains(&(v, t)) {
            continue;
        }
        d.new_assignments.push((v, t));
    }
    d
}

/// The `UPDATE` frame carrying `delta`.
pub fn update_frame(delta: &Delta) -> String {
    Request::Update {
        edges: delta
            .new_edges
            .iter()
            .map(|&(u, v, p)| (u.0, v.0, p))
            .collect(),
        assignments: delta
            .new_assignments
            .iter()
            .map(|&(v, t)| (v.0, t.0))
            .collect(),
    }
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(qs: &[Query]) -> Vec<u8> {
        qs.iter().flat_map(|q| q.frame().into_bytes()).collect()
    }

    fn small_dataset(seed: u64) -> pit_datasets::Dataset {
        pit_datasets::generate(&dataset_spec(600, seed))
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = frames(&uniform_queries(7, "q", 3_000, 8, 500));
        let b = frames(&uniform_queries(7, "q", 3_000, 8, 500));
        let c = frames(&uniform_queries(8, "q", 3_000, 8, 500));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let z1 = frames(&zipf_queries(7, "z", 3_000, 8, 0.9, 500));
        let z2 = frames(&zipf_queries(7, "z", 3_000, 8, 0.9, 500));
        assert_eq!(z1, z2);
        let h1 = frames(&hot_queries(7, "h", 3_000, 8, 64, 500));
        let h2 = frames(&hot_queries(7, "h", 3_000, 8, 64, 500));
        assert_eq!(h1, h2);
        let s1 = poisson_schedule(7, "p", 200.0, Duration::from_secs(5));
        let s2 = poisson_schedule(7, "p", 200.0, Duration::from_secs(5));
        assert_eq!(s1, s2);
        let d1 = small_dataset(7);
        let d2 = small_dataset(7);
        assert_eq!(
            d1.graph.edges().collect::<Vec<_>>(),
            d2.graph.edges().collect::<Vec<_>>()
        );
        let u1 = update_frame(&delta(7, "d", &d1.graph, &d1.space, 8, 8));
        let u2 = update_frame(&delta(7, "d", &d2.graph, &d2.space, 8, 8));
        assert_eq!(u1.as_bytes(), u2.as_bytes());
    }

    #[test]
    fn delta_never_emits_an_existing_edge() {
        let ds = small_dataset(3);
        // Many deltas, half of their heads on the hubs where a repeat is
        // most likely: every one must apply without a duplicate-edge error.
        for i in 0..200 {
            let d = delta(i, "d", &ds.graph, &ds.space, 12, 4);
            let mut b = ds.graph.to_builder();
            for &(u, v, p) in &d.new_edges {
                assert!(!ds.graph.has_edge(u, v), "delta {i} repeats edge {u}->{v}");
                b.add_edge(u, v, p).expect("valid edge");
            }
            b.build().expect("no duplicate edge");
            for &(v, t) in &d.new_assignments {
                assert!(!ds.space.node_has_topic(v, t));
            }
        }
    }

    #[test]
    fn delta_probabilities_survive_the_wire() {
        let ds = small_dataset(5);
        let d = delta(5, "d", &ds.graph, &ds.space, 16, 2);
        match Request::parse(&update_frame(&d)).expect("parses") {
            Request::Update { edges, .. } => {
                for (&(u, v, p), &(wu, wv, wp)) in d.new_edges.iter().zip(&edges) {
                    assert_eq!((u.0, v.0, p.to_bits()), (wu, wv, wp.to_bits()));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn poisson_schedule_hits_its_mean_rate() {
        for seed in 0..5 {
            let s = poisson_schedule(seed, "p", 200.0, Duration::from_secs(60));
            assert_eq!(s.len(), 12_000, "seed {seed}");
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            assert!(s.last().is_some_and(|&t| t < Duration::from_secs(60)));
            // Exponential gaps: mean 1/rate, standard deviation equal to it.
            let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let sd =
                (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
            assert!(
                (mean * 200.0 - 1.0).abs() < 0.01,
                "seed {seed}: mean gap {mean}"
            );
            assert!(
                (sd / mean - 1.0).abs() < 0.05,
                "seed {seed}: cv {}",
                sd / mean
            );
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_space() {
        let z = Zipf::new(1_000, 1.0);
        let mut r = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert!(counts.iter().filter(|&&c| c > 0).count() > 900);
        let qs = zipf_queries(1, "z", 500, 8, 0.9, 2_000);
        assert!(qs.iter().all(|q| q.user < 500 && q.hubs[0] < 8));
    }
}
