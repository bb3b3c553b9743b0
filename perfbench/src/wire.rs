//! The benchmark's wire client: one blocking connection, reply
//! classification by the server's `ERR` taxonomy, per-op-type accounting,
//! and `METRICS` scraping.

use crate::json::J;
use pit_server::{read_frame, write_frame, Response};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { stream })
    }

    /// Send one frame and wait for its reply frame.
    pub fn call(&mut self, frame: &str) -> io::Result<String> {
        write_frame(&mut self.stream, frame)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

/// The words an `ERR` reply's reason starts with.
const TAXONOMY: [&str; 6] = [
    "timeout",
    "overloaded",
    "malformed",
    "internal",
    "reload-failed",
    "shutting-down",
];

/// Bucket an `ERR` reason by its taxonomy word.
pub fn taxonomy(reason: &str) -> &'static str {
    let word = reason
        .split(|c: char| c == ':' || c.is_ascii_whitespace())
        .next()
        .unwrap_or("");
    TAXONOMY
        .iter()
        .find(|&&w| w == word)
        .copied()
        .unwrap_or("other")
}

/// What a reply frame means to the load generator.
pub enum Reply {
    Topics(Vec<(u32, f64)>),
    Generation(u64),
    /// A failure, bucketed: a taxonomy word, `io`, or `unexpected`.
    Failed(&'static str),
}

pub fn classify(reply: io::Result<String>) -> Reply {
    let text = match reply {
        Ok(t) => t,
        Err(_) => return Reply::Failed("io"),
    };
    match Response::parse(&text) {
        Ok(Response::Topics {
            ranked, partial, ..
        }) if partial.is_empty() => Reply::Topics(ranked),
        Ok(Response::Generation(g)) => Reply::Generation(g),
        Ok(Response::Err(reason)) => Reply::Failed(taxonomy(&reason)),
        _ => Reply::Failed("unexpected"),
    }
}

#[derive(Clone, Debug, Default)]
pub struct OpCount {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: BTreeMap<&'static str, u64>,
}

/// Attempted / succeeded / failed-by-reason counts per op type.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    ops: BTreeMap<&'static str, OpCount>,
}

impl Ledger {
    pub fn ok(&mut self, op: &'static str) {
        let c = self.ops.entry(op).or_default();
        c.attempted += 1;
        c.succeeded += 1;
    }

    pub fn fail(&mut self, op: &'static str, reason: &'static str) {
        let c = self.ops.entry(op).or_default();
        c.attempted += 1;
        *c.failed.entry(reason).or_default() += 1;
    }

    /// Account `n` successful `op`s at once.
    pub fn ok_n(&mut self, op: &'static str, n: u64) {
        let c = self.ops.entry(op).or_default();
        c.attempted += n;
        c.succeeded += n;
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (op, c) in &other.ops {
            let mine = self.ops.entry(op).or_default();
            mine.attempted += c.attempted;
            mine.succeeded += c.succeeded;
            for (r, n) in &c.failed {
                *mine.failed.entry(r).or_default() += n;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|c| c.attempted - c.succeeded).sum()
    }

    pub fn to_json(&self) -> J {
        J::obj(self.ops.iter().map(|(op, c)| {
            (
                *op,
                J::obj([
                    ("ops_attempted", J::Int(c.attempted)),
                    ("ops_succeeded", J::Int(c.succeeded)),
                    ("ops_failed", J::Int(c.attempted - c.succeeded)),
                    (
                        "failed_by_reason",
                        J::obj(c.failed.iter().map(|(r, n)| (*r, J::Int(*n)))),
                    ),
                ]),
            )
        }))
    }
}

/// Unlabelled samples of one `METRICS` exposition (`name value` lines).
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn take(client: &mut Client) -> io::Result<Scrape> {
        let text = client.call("METRICS")?;
        let mut values = BTreeMap::new();
        for line in text.lines().skip(1) {
            if line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            if let (Some(name), Some(v)) = (it.next(), it.next()) {
                if let Ok(v) = v.parse::<f64>() {
                    values.insert(name.to_string(), v);
                }
            }
        }
        Ok(Scrape { values })
    }

    /// Counter growth between `before` and `self`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of histogram `name` over the interval since `before`
    /// (0 when nothing was observed).
    pub fn mean_since(&self, before: &Scrape, name: &str) -> f64 {
        crate::stats::ratio(
            self.delta(before, &format!("{name}_sum")),
            self.delta(before, &format!("{name}_count")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_reasons_bucket_by_their_first_word() {
        assert_eq!(taxonomy("timeout"), "timeout");
        assert_eq!(taxonomy("malformed: QUERY k 0"), "malformed");
        assert_eq!(taxonomy("reload-failed: no engine"), "reload-failed");
        assert_eq!(taxonomy("internal: home shard 1"), "internal");
        assert_eq!(taxonomy("shutting-down"), "shutting-down");
        assert_eq!(taxonomy("weird"), "other");
    }

    #[test]
    fn ledger_counts_failures_by_op_and_reason() {
        let mut l = Ledger::default();
        l.ok("query");
        l.fail("query", "timeout");
        l.fail("update", "reload-failed");
        let mut m = Ledger::default();
        m.merge(&l);
        m.ok("query");
        assert_eq!(m.attempted(), 4);
        assert_eq!(m.failed(), 2);
    }
}
