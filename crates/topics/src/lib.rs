//! # pit-topics
//!
//! The topic space `T` of the PIT-Search model, with both inverted indexes
//! the paper's algorithms consume:
//!
//! * the **inverted node index** `topic → V_t` (Algorithms 1, 7, 8 all begin
//!   with "Get topic node set `V_t` for `t` from inverted node index"), and
//! * the **keyword → topic** term index used by the online search
//!   (Algorithm 10 line 1: "Get query-related topics `T_q` from topic space").
//!
//! The paper builds its topic space from 50 M tweets with LDA plus the
//! HetRec-2011 tag vocabulary. That corpus is proprietary, so [`synth`]
//! implements the closest synthetic equivalent (documented in DESIGN.md §5):
//! Zipf-distributed topic popularity, per-user topic sets drawn with
//! popularity bias, and per-topic term bags that share common "query terms"
//! so a single keyword matches many topics — the statistic that actually
//! drives search cost (the paper reports ~500+ topics matched per query tag).

#![forbid(unsafe_code)]

pub mod lda;
pub mod query;
pub mod space;
pub mod synth;
pub mod vocab;
pub mod zipf;

pub use lda::{extract_topic_space, LdaConfig, LdaModel};
pub use query::{KeywordQuery, QueryWorkload};
pub use space::{TopicSpace, TopicSpaceBuilder};
pub use synth::{generate_topic_space, SyntheticTopicConfig};
pub use vocab::Vocabulary;
