//! On-disk persistence of a fully built engine — the flat snapshot.
//!
//! The paper's offline stage (walk sampling, per-topic summarization,
//! propagation-index materialization) is re-run only "after a period of time
//! when the social network and topics have changed" (Section 4.4); between
//! refreshes, a deployment serves queries from the materialized artifacts.
//!
//! This module is the one place that knows the on-disk layout. Every
//! artifact is a set of typed array sections of a `pit-store` flat
//! container (32-byte header, section table, 16-byte-aligned little-endian
//! payloads); variable-length lists are [`Csr`] offset/data pairs.
//!
//! [`save_engine`] writes `engine.pitf`, staging the directory, fsyncing
//! it and `rename`-ing it into place so a crash mid-save can never leave a
//! torn, half-written engine where a live `RELOAD` (or later
//! [`load_engine`]) would find it:
//!
//! ```text
//! <dir>/engine.pitf     flat snapshot: META, the six CSR-graph arrays,
//!                       the five walk-index and five propagation-index
//!                       arrays, the topic space (four CSR maps), the
//!                       vocabulary (offsets + UTF-8 bytes) and the
//!                       representative index (offsets, nodes, weights)
//! <dir>/shard.pits      shard manifest (sharded saves only)
//! ```
//!
//! [`save_dataset`] writes a generated corpus as `dataset.pitf` with the
//! same graph, topic and vocabulary sections, and [`load_dataset`] reads it
//! back for the offline build.
//!
//! Three loaders trade validation depth for speed. All of them parse META
//! through the bounds-checked [`pit_store::ByteReader`], validate the topic
//! space, vocabulary and representative index in one linear pass, and run
//! the same cross-artifact consistency checks:
//!
//! - [`load_engine`] — maps the file read-only, validates the section
//!   geometry in O(sections), verifies every payload checksum in one
//!   streaming pass, and *borrows* every array straight from the mapping
//!   (no per-element copies). The default for serving.
//! - [`load_engine_fast`] — like [`load_engine`] but skips the payload
//!   checksum pass, for `RELOAD` of snapshots this process (or its deploy
//!   pipeline) just wrote and checksummed.
//! - [`load_engine_owned`] — deep-copies every array into owned memory and
//!   also runs the per-element `validate_deep` invariants of the graph,
//!   walk and propagation arrays. The paranoid path for artifacts of
//!   unknown provenance, and the baseline the zero-copy loaders are proven
//!   bit-identical against.
//!
//! A directory holding the pre-flat per-artifact layout (`graph.pitg` et
//! al.) or an older flat container version is reported as
//! [`StoreError::UnsupportedVersion`], not garbage: re-run the offline
//! stage to produce a current snapshot.

use crate::engine::{PitEngine, SummarizerKind};
use pit_graph::{CsrGraph, NodeId, TermId, TopicId};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_search_core::TopicRepIndex;
use pit_store::{ByteReader, Csr, FlatError, FlatFile, FlatWriter, Pod, Sect};
use pit_summarize::{LrwConfig, PageRankInit, RclConfig};
use pit_topics::{TopicSpace, Vocabulary};
use pit_walk::{WalkConfig, WalkIndex, WalkIndexParts, WalkPolicy};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the flat snapshot inside an engine directory.
pub const FLAT_FILE: &str = "engine.pitf";

/// File name of a generated corpus inside a dataset directory.
pub const DATASET_FILE: &str = "dataset.pitf";

/// Marker artifact of the legacy (pre-flat) per-file layout, used only to
/// tell "old snapshot" apart from "no snapshot" in error reporting.
const LEGACY_GRAPH_FILE: &str = "graph.pitg";

// Section kinds. Kind 0 is reserved by the format for the header/table
// region; every section but META is a raw little-endian element run.
/// Engine settings blob (byte layout documented on `encode_meta`).
pub const SEC_META: u16 = 1;
/// Graph out-CSR offsets (`u32`, `node_count + 1`).
pub const SEC_GRAPH_OUT_OFFSETS: u16 = 2;
/// Graph out-CSR edge targets (`NodeId`).
pub const SEC_GRAPH_OUT_TARGETS: u16 = 3;
/// Graph out-CSR edge probabilities (`f64`).
pub const SEC_GRAPH_OUT_PROBS: u16 = 4;
/// Graph in-CSR offsets (`u32`, `node_count + 1`).
pub const SEC_GRAPH_IN_OFFSETS: u16 = 5;
/// Graph in-CSR edge sources (`NodeId`).
pub const SEC_GRAPH_IN_SOURCES: u16 = 6;
/// Graph in-CSR edge probabilities (`f64`).
pub const SEC_GRAPH_IN_PROBS: u16 = 7;
/// Walk-index per-walk offsets (`u32`).
pub const SEC_WALK_OFFSETS: u16 = 8;
/// Walk-index concatenated walk nodes (`NodeId`).
pub const SEC_WALK_DATA: u16 = 9;
/// Walk-index first-visit frequency table (`f32`).
pub const SEC_WALK_FREQ: u16 = 10;
/// Walk-index reachability offsets (`u64`).
pub const SEC_WALK_REACH_OFFSETS: u16 = 11;
/// Walk-index reachability node lists (`NodeId`).
pub const SEC_WALK_REACH_DATA: u16 = 12;
/// Propagation-index (Γ) per-node offsets (`u64`).
pub const SEC_PROP_OFFSETS: u16 = 13;
/// Propagation-index entry nodes (`NodeId`).
pub const SEC_PROP_NODES: u16 = 14;
/// Propagation-index entry probabilities (`f64`).
pub const SEC_PROP_PROBS: u16 = 15;
/// Propagation-index marked offsets (`u64`).
pub const SEC_PROP_MARKED_OFFSETS: u16 = 16;
/// Propagation-index marked node lists (`NodeId`).
pub const SEC_PROP_MARKED: u16 = 17;
/// Topic → member offsets (`u64`, `topic_count + 1`).
pub const SEC_TOPIC_NODE_OFFSETS: u16 = 18;
/// Topic → member node ids (`NodeId`), each row ascending.
pub const SEC_TOPIC_NODES: u16 = 19;
/// Node → topic offsets (`u64`, `node_count + 1`).
pub const SEC_NODE_TOPIC_OFFSETS: u16 = 20;
/// Node → topic ids (`TopicId`), the transpose of the member lists.
pub const SEC_NODE_TOPICS: u16 = 21;
/// Topic → term offsets (`u64`, `topic_count + 1`).
pub const SEC_TOPIC_TERM_OFFSETS: u16 = 22;
/// Topic → term ids (`TermId`), each row ascending.
pub const SEC_TOPIC_TERMS: u16 = 23;
/// Term → topic offsets (`u64`, `term_count + 1`).
pub const SEC_TERM_TOPIC_OFFSETS: u16 = 24;
/// Term → topic ids (`TopicId`), the transpose of the term bags.
pub const SEC_TERM_TOPICS: u16 = 25;
/// Vocabulary term offsets (`u64`, `term_count + 1`); present only when
/// the engine retains a vocabulary.
pub const SEC_VOCAB_OFFSETS: u16 = 26;
/// Vocabulary term text (`u8`, UTF-8).
pub const SEC_VOCAB_BYTES: u16 = 27;
/// Representative-index offsets (`u64`, `topic_count + 1`).
pub const SEC_REP_OFFSETS: u16 = 28;
/// Representative node ids (`NodeId`), each row ascending.
pub const SEC_REP_NODES: u16 = 29;
/// Representative weights (`f64`), parallel to the node ids.
pub const SEC_REP_WEIGHTS: u16 = 30;

/// Errors from saving or loading an engine directory.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A snapshot failed validation; the string names the artifact.
    Corrupt(String),
    /// The directory holds a snapshot format this build does not read
    /// (legacy per-artifact layout, or another flat container version).
    /// Re-running the offline stage produces a loadable snapshot.
    UnsupportedVersion(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::UnsupportedVersion(what) => write!(f, "unsupported-version: {what}"),
        }
    }
}
impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FlatError> for StoreError {
    fn from(e: FlatError) -> Self {
        match e {
            FlatError::UnsupportedVersion { found, supported } => StoreError::UnsupportedVersion(
                format!("flat container v{found}, this build reads v{supported}"),
            ),
            FlatError::Io(msg) => StoreError::Io(io::Error::other(msg)),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// Persist every artifact of `engine` under `dir` (created if absent),
/// crash-atomically and durably: the flat snapshot is written and fsynced
/// into a hidden sibling directory, which is fsynced and `rename`d into
/// place only once complete, so a crash mid-save leaves either the
/// previous engine or the new one — never a torn snapshot that a
/// concurrent or later [`load_engine`] could read. Concurrent saves of one
/// target each stage under their own name; each either commits a complete
/// engine or returns an error.
pub fn save_engine(dir: &Path, engine: &PitEngine) -> Result<(), StoreError> {
    save_engine_inner(dir, engine, None)
}

/// Persist a shard slice of an engine: identical to [`save_engine`] plus a
/// `shard.pits` manifest recording the slice's `(index, count)`, written
/// inside the same staged commit so the manifest can never be torn from its
/// artifacts. The directory stays loadable by plain [`load_engine`];
/// [`load_shard_spec`] recovers the manifest.
pub fn save_shard(
    dir: &Path,
    engine: &PitEngine,
    spec: crate::shard::ShardSpec,
) -> Result<(), StoreError> {
    save_engine_inner(dir, engine, Some(spec))
}

fn save_engine_inner(
    dir: &Path,
    engine: &PitEngine,
    shard: Option<crate::shard::ShardSpec>,
) -> Result<(), StoreError> {
    let (parent, name) = split_target(dir)?;
    fs::create_dir_all(&parent)?;
    let staging = reserve_sibling(&parent, &name, "staging")?;
    let staged = write_synced(&staging.join(FLAT_FILE), &encode_flat(engine).to_bytes()?)
        .and_then(|()| match shard {
            Some(spec) => write_synced(&staging.join(crate::shard::MANIFEST_FILE), &spec.encode()),
            None => Ok(()),
        })
        .and_then(|()| sync_dir(&staging))
        .and_then(|()| commit(&staging, dir, &parent, &name));
    if staged.is_err() {
        let _ = fs::remove_dir_all(&staging);
    }
    staged
}

/// Read the shard manifest of an engine directory, if it has one. A plain
/// (unsharded) snapshot yields `Ok(None)`.
///
/// # Errors
/// I/O failures other than the manifest being absent, or a
/// [`StoreError::Corrupt`] for a malformed manifest.
pub fn load_shard_spec(dir: &Path) -> Result<Option<crate::shard::ShardSpec>, StoreError> {
    match fs::read(dir.join(crate::shard::MANIFEST_FILE)) {
        Ok(bytes) => Ok(Some(crate::shard::ShardSpec::decode(&bytes)?)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Split `dir` into its parent directory and file name, defaulting the
/// parent to `.` for bare relative names.
fn split_target(dir: &Path) -> Result<(PathBuf, String), StoreError> {
    let name = dir
        .file_name()
        .ok_or_else(|| {
            StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("engine path {} has no file name", dir.display()),
            ))
        })?
        .to_string_lossy()
        .into_owned();
    let parent = match dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    Ok((parent, name))
}

/// Create a fresh hidden directory `.{name}.{tag}.{pid}.{n}` next to the
/// target. `n` comes from a process-wide counter and the directory is
/// created with create-new semantics, so no two saves — in this process or
/// another — ever share one.
fn reserve_sibling(parent: &Path, name: &str, tag: &str) -> Result<PathBuf, StoreError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!(".{name}.{tag}.{}.{n}", std::process::id()));
        match fs::create_dir(&path) {
            Ok(()) => return Ok(path),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Write `bytes` to a new file at `path` and fsync it.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(())
}

/// Fsync a directory so renames and creations inside it are durable.
/// Directories cannot be opened for syncing on every platform; elsewhere
/// this is a no-op.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    if cfg!(unix) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Move a fully staged engine directory into place, replacing any previous
/// engine at `dir`. The previous engine is parked inside a fresh hidden
/// sibling first so a rename failure can roll it back; the parent
/// directory is fsynced once the new engine is in place.
fn commit(staging: &Path, dir: &Path, parent: &Path, name: &str) -> Result<(), StoreError> {
    if dir.exists() {
        let park = reserve_sibling(parent, name, "old")?;
        let parked = park.join(name);
        if let Err(e) = fs::rename(dir, &parked) {
            let _ = fs::remove_dir(&park);
            return Err(e.into());
        }
        if let Err(e) = fs::rename(staging, dir) {
            // Roll the old engine back. If that fails because a concurrent
            // save committed in between, the parked copy is obsolete;
            // otherwise keep it rather than lose the only engine.
            if fs::rename(&parked, dir).is_ok() || dir.exists() {
                let _ = fs::remove_dir_all(&park);
            }
            return Err(e.into());
        }
        let _ = fs::remove_dir_all(&park);
    } else {
        fs::rename(staging, dir)?;
    }
    sync_dir(parent)
}

/// Lay the engine out as a flat container. Array sections are pushed from
/// the artifacts' `raw_parts` views, so this is one sequential encode pass
/// with no intermediate per-artifact buffers.
fn encode_flat(engine: &PitEngine) -> FlatWriter {
    let mut w = FlatWriter::new();
    w.push_blob(SEC_META, &encode_meta(engine));
    push_graph(&mut w, engine.graph());

    let (wo, wd, wf, ro, rd) = engine.walks().raw_parts();
    w.push_array(SEC_WALK_OFFSETS, wo);
    w.push_array(SEC_WALK_DATA, wd);
    w.push_array(SEC_WALK_FREQ, wf);
    w.push_array(SEC_WALK_REACH_OFFSETS, ro);
    w.push_array(SEC_WALK_REACH_DATA, rd);

    let (po, pn, pp, mo, mk) = engine.propagation().raw_parts();
    w.push_array(SEC_PROP_OFFSETS, po);
    w.push_array(SEC_PROP_NODES, pn);
    w.push_array(SEC_PROP_PROBS, pp);
    w.push_array(SEC_PROP_MARKED_OFFSETS, mo);
    w.push_array(SEC_PROP_MARKED, mk);

    push_topics(&mut w, engine.space(), engine.vocab());
    let (nodes, weights) = engine.reps().raw_parts();
    push_csr(&mut w, SEC_REP_OFFSETS, SEC_REP_NODES, nodes);
    w.push_array(SEC_REP_WEIGHTS, weights);
    w
}

fn push_csr<T: Pod>(w: &mut FlatWriter, offsets: u16, data: u16, csr: &Csr<T>) {
    w.push_array(offsets, csr.offsets());
    w.push_array(data, csr.data());
}

fn push_graph(w: &mut FlatWriter, graph: &CsrGraph) {
    let (oo, ot, op, io_, is_, ip) = graph.raw_parts();
    w.push_array(SEC_GRAPH_OUT_OFFSETS, oo);
    w.push_array(SEC_GRAPH_OUT_TARGETS, ot);
    w.push_array(SEC_GRAPH_OUT_PROBS, op);
    w.push_array(SEC_GRAPH_IN_OFFSETS, io_);
    w.push_array(SEC_GRAPH_IN_SOURCES, is_);
    w.push_array(SEC_GRAPH_IN_PROBS, ip);
}

fn push_topics(w: &mut FlatWriter, space: &TopicSpace, vocab: Option<&Vocabulary>) {
    let (topic_nodes, node_topics, topic_terms, term_topics) = space.raw_parts();
    push_csr(w, SEC_TOPIC_NODE_OFFSETS, SEC_TOPIC_NODES, topic_nodes);
    push_csr(w, SEC_NODE_TOPIC_OFFSETS, SEC_NODE_TOPICS, node_topics);
    push_csr(w, SEC_TOPIC_TERM_OFFSETS, SEC_TOPIC_TERMS, topic_terms);
    push_csr(w, SEC_TERM_TOPIC_OFFSETS, SEC_TERM_TOPICS, term_topics);
    if let Some(vocab) = vocab {
        push_csr(w, SEC_VOCAB_OFFSETS, SEC_VOCAB_BYTES, vocab.raw_parts());
    }
}

/// Decoded engine settings from the META blob.
struct Meta {
    summarizer: SummarizerKind,
    max_expand_rounds: usize,
    node_count: usize,
    walk_config: WalkConfig,
    walk_parts: WalkIndexParts,
    prop_config: PropIndexConfig,
}

/// Serialize the engine settings the array sections cannot carry:
///
/// ```text
/// summarizer kind      u8   (0 = RCL, 1 = LRW), then its configuration:
///   RCL  c_size u64 | sample_rate f64 | max_tree_nodes u64
///        | refine_centroids u8 | max_cluster_input u64 | seed u64
///   LRW  lambda f64 | mu f64 | rep_count u64 (0 = derive from mu)
///        | init u8 (0 = topic prior, 1 = all ones)
/// max_expand_rounds    u32
/// node_count           u64
/// walk L               u32
/// walk R               u32
/// walk policy          u8   (0 = uniform, 1 = transition-weighted)
/// walk seed            u64
/// walk parts flags     u8   (walks | freq << 1 | reach << 2)
/// propagation theta    f64
/// propagation depth    u32
/// ```
fn encode_meta(engine: &PitEngine) -> Vec<u8> {
    let wc = engine.walks().config();
    let parts = engine.walks().parts();
    let pc = engine.propagation().config();
    let mut meta = Vec::with_capacity(96);
    let len = |n: usize| (n as u64).to_le_bytes();
    match engine.summarizer() {
        SummarizerKind::Rcl(c) => {
            meta.push(0u8);
            meta.extend_from_slice(&len(c.c_size));
            meta.extend_from_slice(&c.sample_rate.to_le_bytes());
            meta.extend_from_slice(&len(c.max_tree_nodes));
            meta.push(u8::from(c.refine_centroids));
            meta.extend_from_slice(&len(c.max_cluster_input));
            meta.extend_from_slice(&c.seed.to_le_bytes());
        }
        SummarizerKind::Lrw(c) => {
            meta.push(1u8);
            meta.extend_from_slice(&c.lambda.to_le_bytes());
            meta.extend_from_slice(&c.mu.to_le_bytes());
            meta.extend_from_slice(&len(c.rep_count.unwrap_or(0)));
            meta.push(match c.init {
                PageRankInit::TopicPrior => 0,
                PageRankInit::AllOnes => 1,
            });
        }
    }
    let rounds = u32::try_from(engine.max_expand_rounds()).unwrap_or(u32::MAX);
    meta.extend_from_slice(&rounds.to_le_bytes());
    meta.extend_from_slice(&len(engine.graph().node_count()));
    meta.extend_from_slice(&(wc.l.min(u32::MAX as usize) as u32).to_le_bytes());
    meta.extend_from_slice(&(wc.r.min(u32::MAX as usize) as u32).to_le_bytes());
    meta.push(match wc.policy {
        WalkPolicy::UniformNeighbor => 0,
        WalkPolicy::TransitionWeighted => 1,
    });
    meta.extend_from_slice(&wc.seed.to_le_bytes());
    meta.push(u8::from(parts.walks) | u8::from(parts.freq) << 1 | u8::from(parts.reach) << 2);
    meta.extend_from_slice(&pc.theta.to_le_bytes());
    let depth = u32::try_from(pc.max_depth).unwrap_or(u32::MAX);
    meta.extend_from_slice(&depth.to_le_bytes());
    meta
}

/// Parse the summarizer kind and configuration at the head of META,
/// rejecting values the summarizers' constructors would refuse (so an
/// `UPDATE` on a loaded engine can never panic on its stored settings).
fn decode_summarizer(r: &mut ByteReader<'_>) -> Result<SummarizerKind, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("meta: {what}"));
    match r.read_u8()? {
        0 => {
            let c = RclConfig {
                c_size: r.read_len()?,
                sample_rate: r.read_f64()?,
                max_tree_nodes: r.read_len()?,
                refine_centroids: match r.read_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("bad refine_centroids flag")),
                },
                max_cluster_input: r.read_len()?,
                seed: r.read_u64()?,
            };
            if c.c_size == 0 || !(0.0..=1.0).contains(&c.sample_rate) {
                return Err(corrupt("RCL configuration out of range"));
            }
            Ok(SummarizerKind::Rcl(c))
        }
        1 => {
            let c = LrwConfig {
                lambda: r.read_f64()?,
                mu: r.read_f64()?,
                rep_count: Some(r.read_len()?).filter(|&n| n > 0),
                init: match r.read_u8()? {
                    0 => PageRankInit::TopicPrior,
                    1 => PageRankInit::AllOnes,
                    _ => return Err(corrupt("unknown PageRank init")),
                },
            };
            if !((0.0..=1.0).contains(&c.lambda) && c.mu > 0.0 && c.mu <= 1.0) {
                return Err(corrupt("LRW configuration out of range"));
            }
            Ok(SummarizerKind::Lrw(c))
        }
        k => Err(corrupt(&format!("unknown summarizer kind {k}"))),
    }
}

/// Parse the META blob through the bounds-checked reader — the one meta
/// parser every loader shares. Every read is length-checked; trailing
/// bytes are rejected.
fn decode_meta(bytes: &[u8]) -> Result<Meta, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("meta: {what}"));
    let mut r = ByteReader::new(bytes, "engine meta");
    let summarizer = decode_summarizer(&mut r)?;
    let max_expand_rounds = r.read_u32()? as usize;
    let node_count = r.read_len()?;
    let l = r.read_u32()? as usize;
    let walk_r = r.read_u32()? as usize;
    let policy = match r.read_u8()? {
        0 => WalkPolicy::UniformNeighbor,
        1 => WalkPolicy::TransitionWeighted,
        k => return Err(corrupt(&format!("unknown walk policy {k}"))),
    };
    let seed = r.read_u64()?;
    let flags = r.read_u8()?;
    if flags & !0b111 != 0 {
        return Err(corrupt("unknown walk part flags"));
    }
    let theta = r.read_f64()?;
    let max_depth = r.read_u32()? as usize;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Meta {
        summarizer,
        max_expand_rounds,
        node_count,
        walk_config: WalkConfig {
            l,
            r: walk_r,
            policy,
            seed,
        },
        walk_parts: WalkIndexParts {
            walks: flags & 0b001 != 0,
            freq: flags & 0b010 != 0,
            reach: flags & 0b100 != 0,
        },
        prop_config: PropIndexConfig { theta, max_depth },
    })
}

/// How much validation and copying a load performs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LoadMode {
    /// Borrow arrays from the mapping; verify every payload checksum.
    Verified,
    /// Borrow arrays from the mapping; skip the checksum pass.
    Fast,
    /// Deep-copy arrays into owned memory and run per-element invariants.
    Owned,
}

/// Load an engine previously written by [`save_engine`], serving every
/// array zero-copy from a read-only mapping of the flat snapshot. Section
/// geometry is validated in O(sections), every payload checksum is
/// verified in one streaming pass, and the topic space, vocabulary and
/// representative index are validated in one linear pass; no per-element
/// copies are made. The summarizer and its full configuration are
/// restored from META, so an `UPDATE` re-summarizes exactly as the
/// offline build did.
pub fn load_engine(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Verified)
}

/// [`load_engine`] without the payload-checksum pass, for `RELOAD` of a
/// snapshot this process (or its deploy pipeline) just wrote and verified.
/// Structural validation — magic, version, table geometry, alignment,
/// array shapes — and the linear topic/representative validation still run
/// in full.
pub fn load_engine_fast(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Fast)
}

/// [`load_engine`] with every array deep-copied into owned memory and the
/// per-element `validate_deep` invariants checked (monotonic offsets,
/// in-range ids, finite probabilities). The paranoid loader for snapshots
/// of unknown provenance — and the baseline the zero-copy loaders are
/// proven bit-identical against in the test battery.
pub fn load_engine_owned(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Owned)
}

/// Fetch section `kind` as a typed array: a borrowed window of the mapping
/// for the zero-copy modes, a deep copy for [`LoadMode::Owned`].
fn section<T: Pod>(flat: &FlatFile, kind: u16, mode: LoadMode) -> Result<Sect<T>, StoreError> {
    if mode == LoadMode::Owned {
        Ok(Sect::from(flat.array_owned::<T>(kind)?))
    } else {
        Ok(flat.array::<T>(kind)?)
    }
}

/// Fetch an offsets/data section pair as a geometry-checked [`Csr`].
fn csr<T: Pod>(
    flat: &FlatFile,
    offsets: u16,
    data: u16,
    mode: LoadMode,
) -> Result<Csr<T>, StoreError> {
    Csr::from_parts(section(flat, offsets, mode)?, section(flat, data, mode)?)
        .map_err(|e| StoreError::Corrupt(format!("section {data}: {e}")))
}

/// Open `path` as a flat container, reporting a missing file (and a legacy
/// per-artifact directory) with a typed error, and verifying payload
/// checksums unless `mode` is [`LoadMode::Fast`].
fn open_flat(dir: &Path, file: &str, mode: LoadMode) -> Result<FlatFile, StoreError> {
    let path = dir.join(file);
    if !path.exists() {
        if dir.join(LEGACY_GRAPH_FILE).exists() {
            return Err(StoreError::UnsupportedVersion(format!(
                "{} holds a legacy per-artifact snapshot; re-run the offline \
                 build to produce a flat {file}",
                dir.display()
            )));
        }
        return Err(StoreError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no {file} in {}", dir.display()),
        )));
    }
    let flat = FlatFile::open(&path)?;
    if mode != LoadMode::Fast {
        flat.verify_checksums()?;
    }
    Ok(flat)
}

fn read_graph(flat: &FlatFile, mode: LoadMode) -> Result<CsrGraph, StoreError> {
    let graph = CsrGraph::from_raw_parts(
        section(flat, SEC_GRAPH_OUT_OFFSETS, mode)?,
        section(flat, SEC_GRAPH_OUT_TARGETS, mode)?,
        section(flat, SEC_GRAPH_OUT_PROBS, mode)?,
        section(flat, SEC_GRAPH_IN_OFFSETS, mode)?,
        section(flat, SEC_GRAPH_IN_SOURCES, mode)?,
        section(flat, SEC_GRAPH_IN_PROBS, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("graph: {e}")))?;
    if mode == LoadMode::Owned {
        graph
            .validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("graph: {e}")))?;
    }
    Ok(graph)
}

/// Read the topic space and, when its sections are present, the
/// vocabulary.
fn read_topics(
    flat: &FlatFile,
    mode: LoadMode,
) -> Result<(TopicSpace, Option<Vocabulary>), StoreError> {
    let space = TopicSpace::from_raw_parts(
        csr::<NodeId>(flat, SEC_TOPIC_NODE_OFFSETS, SEC_TOPIC_NODES, mode)?,
        csr::<TopicId>(flat, SEC_NODE_TOPIC_OFFSETS, SEC_NODE_TOPICS, mode)?,
        csr::<TermId>(flat, SEC_TOPIC_TERM_OFFSETS, SEC_TOPIC_TERMS, mode)?,
        csr::<TopicId>(flat, SEC_TERM_TOPIC_OFFSETS, SEC_TERM_TOPICS, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("topics: {e}")))?;
    if !flat.has(SEC_VOCAB_OFFSETS) {
        return Ok((space, None));
    }
    let vocab = Vocabulary::from_raw_parts(csr(flat, SEC_VOCAB_OFFSETS, SEC_VOCAB_BYTES, mode)?)
        .map_err(|e| StoreError::Corrupt(format!("vocab: {e}")))?;
    Ok((space, Some(vocab)))
}

fn load_flat(dir: &Path, mode: LoadMode) -> Result<PitEngine, StoreError> {
    let flat = open_flat(dir, FLAT_FILE, mode)?;
    let meta = decode_meta(flat.bytes_of(SEC_META)?)?;
    let graph = read_graph(&flat, mode)?;

    let walks = WalkIndex::from_raw_parts(
        meta.walk_config,
        meta.node_count,
        meta.walk_parts,
        section::<u32>(&flat, SEC_WALK_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_WALK_DATA, mode)?,
        section::<f32>(&flat, SEC_WALK_FREQ, mode)?,
        section::<u64>(&flat, SEC_WALK_REACH_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_WALK_REACH_DATA, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("walks: {e}")))?;

    let prop = PropagationIndex::from_raw_parts(
        meta.prop_config,
        section::<u64>(&flat, SEC_PROP_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_PROP_NODES, mode)?,
        section::<f64>(&flat, SEC_PROP_PROBS, mode)?,
        section::<u64>(&flat, SEC_PROP_MARKED_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_PROP_MARKED, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("propagation: {e}")))?;

    let (space, vocab) = read_topics(&flat, mode)?;
    let reps = TopicRepIndex::from_raw_parts(
        graph.node_count(),
        csr(&flat, SEC_REP_OFFSETS, SEC_REP_NODES, mode)?,
        section(&flat, SEC_REP_WEIGHTS, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("representatives: {e}")))?;

    if mode == LoadMode::Owned {
        walks
            .validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("walks: {e}")))?;
        prop.validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("propagation: {e}")))?;
    }

    // Cross-artifact consistency against the META node count.
    let corrupt = |what: &str| StoreError::Corrupt(what.to_string());
    if graph.node_count() != meta.node_count {
        return Err(corrupt("graph node count disagrees with meta"));
    }
    if space.node_count() != graph.node_count()
        || walks.node_count() != graph.node_count()
        || prop.len() != graph.node_count()
    {
        return Err(corrupt("artifact node counts disagree"));
    }
    if reps.len() != space.topic_count() {
        return Err(corrupt("representative index topic count disagrees"));
    }

    Ok(PitEngine::from_parts(
        graph,
        space,
        vocab,
        walks,
        prop,
        reps,
        meta.summarizer,
        meta.max_expand_rounds,
    ))
}

/// Write a generated corpus — graph, topic space and, when given, its
/// vocabulary — to `dir/dataset.pitf` (`dir` is created if absent), in
/// the same sections an engine snapshot uses.
pub fn save_dataset(
    dir: &Path,
    graph: &CsrGraph,
    space: &TopicSpace,
    vocab: Option<&Vocabulary>,
) -> Result<(), StoreError> {
    fs::create_dir_all(dir)?;
    write_synced(
        &dir.join(DATASET_FILE),
        &encode_dataset(graph, space, vocab)?,
    )
}

/// The bytes [`save_dataset`] writes.
pub fn encode_dataset(
    graph: &CsrGraph,
    space: &TopicSpace,
    vocab: Option<&Vocabulary>,
) -> Result<Vec<u8>, StoreError> {
    let mut w = FlatWriter::new();
    push_graph(&mut w, graph);
    push_topics(&mut w, space, vocab);
    Ok(w.to_bytes()?)
}

/// Read a corpus written by [`save_dataset`] into owned memory, with every
/// checksum and per-element invariant checked.
pub fn load_dataset(dir: &Path) -> Result<(CsrGraph, TopicSpace, Option<Vocabulary>), StoreError> {
    let flat = open_flat(dir, DATASET_FILE, LoadMode::Owned)?;
    let graph = read_graph(&flat, LoadMode::Owned)?;
    let (space, vocab) = read_topics(&flat, LoadMode::Owned)?;
    if space.node_count() != graph.node_count() {
        return Err(StoreError::Corrupt(
            "topic space and graph disagree on the node count".into(),
        ));
    }
    Ok((graph, space, vocab))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
    use pit_graph::TermId;
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::WalkConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pit-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Hidden `.{name}.*` siblings of an engine directory.
    fn hidden_siblings(dir: &Path) -> Vec<String> {
        let prefix = format!(".{}.", dir.file_name().unwrap().to_string_lossy());
        let mut names: Vec<String> = fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&prefix))
            .collect();
        names.sort();
        names
    }

    fn build_engine() -> PitEngine {
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
        PitEngine::builder()
            .walk(WalkConfig::new(4, 16).with_seed(3))
            .build_with_vocab(graph, b.build(), Some(vocab))
    }

    #[test]
    fn save_load_roundtrip_preserves_results() {
        let dir = temp_dir("roundtrip");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let loaded = load_engine(&dir).unwrap();

        // The default loader serves the index arrays from the mapping.
        assert_eq!(loaded.snapshot_format(), "flat-mapped");
        assert!(loaded.mapped_bytes() > 0, "no sections were mapped");
        assert_eq!(engine.snapshot_format(), "owned");

        for u in [3u32, 7, 14] {
            let a = engine.search_user_term(user(u), TermId(0), 3);
            let b = loaded.search_user_term(user(u), TermId(0), 3);
            assert_eq!(a.top_k, b.top_k, "user {u} diverged after reload");
        }
        // Keyword search works through the reloaded vocabulary.
        assert!(loaded.search_keywords(user(3), &["phone"], 1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_three_loaders_agree_bit_for_bit() {
        let dir = temp_dir("tiers");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let mapped = load_engine(&dir).unwrap();
        let fast = load_engine_fast(&dir).unwrap();
        let owned = load_engine_owned(&dir).unwrap();
        assert_eq!(owned.snapshot_format(), "owned");
        assert_eq!(owned.mapped_bytes(), 0);
        assert_eq!(fast.snapshot_format(), "flat-mapped");
        for u in 1..=engine.graph().node_count() as u32 {
            let a = mapped.search_user_term(user(u), TermId(0), 3);
            let b = owned.search_user_term(user(u), TermId(0), 3);
            let c = fast.search_user_term(user(u), TermId(0), 3);
            assert_eq!(a.top_k, b.top_k, "mapped vs owned diverged at user {u}");
            assert_eq!(a.top_k, c.top_k, "mapped vs fast diverged at user {u}");
            for (x, y) in a.top_k.iter().zip(&b.top_k) {
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score bits diverged at user {u}"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_never_clobbers_the_previous_engine() {
        let dir = temp_dir("atomic");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();

        // Simulate a crash mid-save: a staging directory holding only a
        // prefix of the flat snapshot.
        let staging = dir.parent().unwrap().join(format!(
            ".{}.staging.crashed",
            dir.file_name().unwrap().to_string_lossy()
        ));
        fs::create_dir_all(&staging).unwrap();
        let full = fs::read(dir.join(FLAT_FILE)).unwrap();
        fs::write(staging.join(FLAT_FILE), &full[..full.len() / 2]).unwrap();

        // The torn staging dir is not loadable, and the target still is.
        assert!(
            load_engine(&staging).is_err(),
            "partial write must not load"
        );
        let loaded = load_engine(&dir).expect("target engine survived the crash");
        assert_eq!(
            engine.search_user_term(user(3), TermId(0), 3).top_k,
            loaded.search_user_term(user(3), TermId(0), 3).top_k
        );
        drop(loaded);

        // A later save replaces the engine wholesale under its own staging
        // name — it never touches another save's staging directory — and
        // leaves no hidden siblings of its own behind.
        save_engine(&dir, &engine).unwrap();
        assert!(load_engine(&dir).is_ok());
        let staging_name = staging.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(hidden_siblings(&dir), vec![staging_name]);
        fs::remove_dir_all(&staging).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_of_one_target_never_tear_it() {
        let dir = temp_dir("concurrent");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let want = fs::read(dir.join(FLAT_FILE)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..5 {
                        // Each save commits or fails with a typed error.
                        match save_engine(&dir, &engine) {
                            Ok(()) | Err(StoreError::Io(_)) => {}
                            Err(e) => panic!("unexpected save error: {e}"),
                        }
                    }
                });
            }
        });
        assert_eq!(fs::read(dir.join(FLAT_FILE)).unwrap(), want);
        let loaded = load_engine(&dir).unwrap();
        for u in 1..=engine.graph().node_count() as u32 {
            let a = engine.search_user_term(user(u), TermId(0), 3);
            let b = loaded.search_user_term(user(u), TermId(0), 3);
            assert_eq!(a.top_k, b.top_k, "user {u} diverged");
        }
        assert!(
            hidden_siblings(&dir).is_empty(),
            "{:?}",
            hidden_siblings(&dir)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An `UPDATE` on a loaded engine must re-summarize under the stored
    /// configuration (here a fixed representative count and non-default
    /// RCL settings), not the summarizer's defaults.
    #[test]
    fn summarizer_configuration_survives_a_reload() {
        let spec = pit_datasets::DatasetSpec {
            name: "store-meta".into(),
            nodes: 200,
            kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 3 },
            topics: pit_datasets::spec::scaled_topic_config(200, 5),
            seed: 5,
        };
        let ds = pit_datasets::generate(&spec);
        let lrw = pit_summarize::LrwConfig {
            rep_count: Some(16),
            ..pit_summarize::LrwConfig::default()
        };
        let rcl = pit_summarize::RclConfig {
            c_size: 4,
            sample_rate: 0.1,
            refine_centroids: true,
            seed: 9,
            ..pit_summarize::RclConfig::default()
        };
        let new_edges = (1..ds.graph.node_count() as u32)
            .map(|v| (NodeId(0), NodeId(v), 0.5))
            .filter(|&(u, v, _)| !ds.graph.has_edge(u, v))
            .take(2)
            .collect();
        let t0 = pit_graph::TopicId(0);
        let joiner = ds.graph.nodes().find(|&v| !ds.space.node_has_topic(v, t0));
        let delta = crate::Delta {
            new_edges,
            new_assignments: joiner.map(|v| (v, t0)).into_iter().collect(),
        };
        for kind in [SummarizerKind::Lrw(lrw), SummarizerKind::Rcl(rcl)] {
            let dir = temp_dir(&format!("meta-{}", kind.name()));
            let built = PitEngine::builder()
                .walk(WalkConfig::new(3, 8).with_seed(2))
                .summarizer(kind.clone())
                .build_with_vocab(ds.graph.clone(), ds.space.clone(), Some(ds.vocab.clone()));
            save_engine(&dir, &built).unwrap();
            let loaded = load_engine_fast(&dir).unwrap();
            assert_eq!(format!("{:?}", loaded.summarizer()), format!("{kind:?}"));

            let (want, _) = built.with_delta_scoped(&delta, None).unwrap();
            let (got, _) = loaded.with_delta_scoped(&delta, None).unwrap();
            assert_eq!(got.reps().total_reps(), want.reps().total_reps());
            for t in want.space().topics() {
                assert_eq!(got.reps().get(t), want.reps().get(t), "topic {t}");
            }
            for u in 0..20 {
                let a = want.search_user_term(NodeId(u), TermId(0), 5);
                let b = got.search_user_term(NodeId(u), TermId(0), 5);
                let bits = |o: &pit_search_core::SearchOutcome| -> Vec<(u32, u64)> {
                    o.top_k
                        .iter()
                        .map(|s| (s.topic.0, s.score.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&a), bits(&b), "user {u}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dataset_roundtrips_and_reports_legacy_corpora() {
        let dir = temp_dir("dataset");
        let engine = build_engine();
        save_dataset(&dir, engine.graph(), engine.space(), engine.vocab()).unwrap();
        let (graph, space, vocab) = load_dataset(&dir).unwrap();
        assert_eq!(graph.raw_parts(), engine.graph().raw_parts());
        assert_eq!(space.raw_parts(), engine.space().raw_parts());
        assert_eq!(vocab.unwrap().get("phone"), Some(TermId(0)));
        fs::remove_dir_all(&dir).unwrap();

        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LEGACY_GRAPH_FILE), b"PITGxxxx").unwrap();
        assert!(matches!(
            load_dataset(&dir),
            Err(StoreError::UnsupportedVersion(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_an_existing_engine_wholesale() {
        let dir = temp_dir("replace");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        // Drop a stray file into the live dir; a re-save must not keep it
        // (the directory is replaced, not patched file-by-file).
        fs::write(dir.join("stray.bin"), b"junk").unwrap();
        save_engine(&dir, &engine).unwrap();
        assert!(!dir.join("stray.bin").exists(), "stale artifact survived");
        assert!(load_engine(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_missing_artifacts() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reports_legacy_layout_as_version_skew() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        // A directory with the old per-artifact layout must be reported as
        // a version problem, not decoded into garbage or a plain I/O error.
        fs::write(dir.join(LEGACY_GRAPH_FILE), b"PITGxxxx").unwrap();
        assert!(matches!(
            load_engine(&dir),
            Err(StoreError::UnsupportedVersion(_))
        ));
        let msg = match load_engine(&dir) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("legacy layout loaded"),
        };
        assert!(msg.starts_with("unsupported-version:"), "got: {msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_artifact() {
        let dir = temp_dir("corrupt");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        // Truncate the flat snapshot.
        let path = dir.join(FLAT_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verified_load_catches_payload_bit_flip_that_fast_load_skips() {
        let dir = temp_dir("bitflip");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let path = dir.join(FLAT_FILE);

        // Flip one byte inside the out-probs payload: structurally valid,
        // checksum-invalid.
        let info = *FlatFile::open(&path)
            .unwrap()
            .section(SEC_GRAPH_OUT_PROBS)
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[info.offset] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        // The default loader pays the checksum pass and rejects the flip;
        // the fast loader (structural only, for trusted staging) does not.
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        assert!(load_engine_fast(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_mismatched_artifacts() {
        // Topic space over a different node count than the graph.
        let dir = temp_dir("mismatch");
        let engine = build_engine();
        let mut b = TopicSpaceBuilder::new(3, 1);
        let t = b.add_topic(vec![TermId(0)]);
        b.assign(pit_graph::NodeId(0), t);
        let mismatched = PitEngine::from_parts(
            engine.graph().clone(),
            b.build(),
            None,
            engine.walks().clone(),
            engine.propagation().clone(),
            engine.reps().clone(),
            SummarizerKind::default_rcl(),
            engine.max_expand_rounds(),
        );
        save_engine(&dir, &mismatched).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
