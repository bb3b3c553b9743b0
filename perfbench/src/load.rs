//! Closed-loop query clients and the check of sampled served replies
//! against in-process rankings.

use crate::gen::Query;
use crate::span::{Spans, ROOT};
use crate::stats::Latencies;
use crate::wire::{classify, Client, Ledger, Reply};
use std::net::SocketAddr;
use std::time::Instant;

/// Every this many successful replies, one is kept for the answer check.
const SAMPLE_EVERY: usize = 8;

/// A served reply kept for checking.
pub struct Sample {
    pub conn: u64,
    pub query: usize,
    pub sent: Instant,
    pub recv: Instant,
    pub ranked: Vec<(u32, f64)>,
}

/// What one client connection saw.
#[derive(Default)]
pub struct ClientLog {
    pub lat: Latencies,
    pub ledger: Ledger,
    pub samples: Vec<Sample>,
    pub spans: Option<Spans>,
    pub started: Option<Instant>,
    pub finished: Option<Instant>,
    answered: u64,
    rtt_ns: u128,
}

impl ClientLog {
    pub fn new(traced: bool) -> Self {
        ClientLog {
            spans: traced.then(Spans::new),
            ..ClientLog::default()
        }
    }

    /// Account one query round trip. Latency runs from `due`, when the
    /// query was meant to go out; the round trip from `sent`. They differ
    /// only when an open-loop generator runs late.
    pub fn query(
        &mut self,
        conn: u64,
        i: usize,
        due: Instant,
        sent: Instant,
        reply: std::io::Result<String>,
    ) {
        let recv = Instant::now();
        self.rtt_ns += (recv - sent).as_nanos();
        self.started.get_or_insert(due);
        self.finished = Some(recv);
        if let Some(spans) = &mut self.spans {
            spans.record("client.query", ROOT, (conn << 32) | i as u64, due, recv);
        }
        match classify(reply) {
            Reply::Topics(ranked) => {
                self.lat.push_ns((recv - due).as_nanos() as u64);
                self.ledger.ok("query");
                self.answered += 1;
                if self.answered.is_multiple_of(SAMPLE_EVERY as u64) {
                    self.samples.push(Sample {
                        conn,
                        query: i,
                        sent: due,
                        recv,
                        ranked,
                    });
                }
            }
            Reply::Failed(why) => {
                self.lat.push_failed();
                self.ledger.fail("query", why);
            }
            Reply::Generation(_) => {
                self.lat.push_failed();
                self.ledger.fail("query", "unexpected");
            }
        }
    }
}

impl ClientLog {
    /// Mean client round trip of every query, in microseconds.
    pub fn rtt_mean_us(&self) -> f64 {
        crate::stats::ratio(self.rtt_ns as f64, self.lat.len() as f64) / 1e3
    }

    /// Fold another connection's log into this one.
    pub fn merge(&mut self, other: ClientLog) {
        self.lat.extend(&other.lat);
        self.ledger.merge(&other.ledger);
        self.samples.extend(other.samples);
        self.answered += other.answered;
        self.rtt_ns += other.rtt_ns;
        self.started = match (self.started, other.started) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.finished = self.finished.max(other.finished);
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }

    /// Answered queries per second over the closed loop's window, as the
    /// median of its time slices.
    pub fn sliced_qps(&self) -> f64 {
        self.lat.sliced_rate()
    }

    /// Answered queries per second between the first send and last reply.
    pub fn qps(&self) -> f64 {
        match (self.started, self.finished) {
            (Some(a), Some(b)) if b > a => self.answered as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Send `q` once and require a ranked reply: the "first reply" that ends
/// a served set-up.
pub fn first_reply(addr: SocketAddr, q: &Query) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match classify(client.call(&q.frame())) {
        Reply::Topics(_) => Ok(()),
        _ => Err("first query did not get a ranked reply".to_string()),
    }
}

/// Run `per_conn` closed-loop connections in parallel until `deadline`,
/// connection `c` cycling through `queries[c]` from `offset`.
pub fn closed_loops(
    addr: SocketAddr,
    queries: &[Vec<Query>],
    offset: usize,
    deadline: Instant,
    traced: bool,
) -> Result<ClientLog, String> {
    let logs: Vec<std::io::Result<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(c, qs)| {
                scope.spawn(move || closed_loop(addr, c as u64, qs, offset, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::new(traced);
    for log in logs {
        all.merge(log.map_err(|e| format!("client: {e}"))?);
    }
    Ok(all)
}

/// One connection sending `queries` (cycling from `offset`) back to back
/// until `deadline`.
pub fn closed_loop(
    addr: SocketAddr,
    conn: u64,
    queries: &[Query],
    offset: usize,
    deadline: Instant,
    traced: bool,
) -> std::io::Result<ClientLog> {
    let frames: Vec<String> = queries.iter().map(Query::frame).collect();
    let mut client = Client::connect(addr)?;
    let mut log = ClientLog::new(traced);
    let mut i = offset;
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let idx = i % frames.len();
        let reply = client.call(&frames[idx]);
        log.query(conn, idx, sent, sent, reply);
        i += 1;
    }
    Ok(log)
}

/// Check sampled replies against `oracle`, the in-process ranking of a
/// connection's query index. Returns `(checked, mismatched)`.
pub fn check_samples(
    samples: &[Sample],
    mut oracle: impl FnMut(u64, usize) -> Vec<(u32, f64)>,
) -> (usize, usize) {
    let mismatched = samples
        .iter()
        .filter(|s| !crate::layers::same_ranking(&s.ranked, &oracle(s.conn, s.query)))
        .count();
    (samples.len(), mismatched)
}
