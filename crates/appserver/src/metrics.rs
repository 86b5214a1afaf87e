//! Server-side metrics for the Figure 2 experiment: how much work and
//! traffic each deployment (server-rendered vs migrated) costs the server.
//!
//! Every counter is declared once, on the instance that owns it: the
//! server's own traffic counters in [`ServerMetrics`]; the engine,
//! durability and plan-cache counters on its database; the overload
//! counters on the request governor; the replication, fleet, integrity and
//! resharding counters on the cluster. Each stats struct names its
//! counters next to its fields (a `counters()` list that destructures the
//! struct exhaustively, so a new field does not compile until it is named),
//! and `render` concatenates those lists into the `/metrics` body.

use std::fmt::Write as _;

use crate::cluster::{IntegrityStats, ReplicationStats, ReshardStats};
use crate::fleet::FleetStats;
use crate::governor::OverloadStats;
use crate::server::AppServer;
use crate::xmldb::XmlDb;

/// The counters the application server itself owns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerMetrics {
    /// HTTP requests handled.
    pub requests: u64,
    /// Bytes shipped to clients.
    pub bytes_out: u64,
    /// Leader `/doc` bodies digest-verified before being served.
    pub doc_reads_verified: u64,
    /// Leader `/doc` bodies refused with `XQIB0019` (digest mismatch).
    pub doc_reads_refused: u64,
}

/// The counter groups owned by the layers wrapped around a server, handed
/// to its `/metrics` route as whole values. An absent group reports zeros.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OuterStats<'a> {
    /// The request governor's.
    pub overload: Option<&'a OverloadStats>,
    /// The cluster's.
    pub replication: Option<&'a ReplicationStats>,
    /// The last fleet run's, as handed to the cluster.
    pub fleet: Option<&'a FleetStats>,
    /// The cluster's.
    pub integrity: Option<&'a IntegrityStats>,
    /// The cluster's.
    pub reshard: Option<&'a ReshardStats>,
}

/// The `/metrics` body: `server`'s counters (zeros when no server answers)
/// and the `outer` groups, as `<metrics><name>value</name>…</metrics>`.
pub(crate) fn render(server: Option<&AppServer>, outer: &OuterStats<'_>) -> String {
    let ServerMetrics {
        requests,
        bytes_out,
        doc_reads_verified,
        doc_reads_refused,
    } = server.map(|s| s.metrics).unwrap_or_default();
    let db = server.map(|s| &s.db);
    let engine = db.map(XmlDb::engine_stats).unwrap_or_default();
    let durability = db.map(XmlDb::durability_stats).unwrap_or_default();
    let plans = db.map(XmlDb::plan_stats).unwrap_or_default();
    let mut out = String::from("<metrics>");
    let mut put = |counters: &[(&str, u64)]| {
        for (name, value) in counters {
            let _ = write!(out, "<{name}>{value}</{name}>");
        }
    };
    put(&[
        ("requests", requests),
        ("bytes-out", bytes_out),
        ("xquery-evals", db.map_or(0, |db| db.evals)),
    ]);
    put(&engine.counters());
    put(&durability.counters());
    put(&outer.overload.cloned().unwrap_or_default().counters());
    put(&plans.counters());
    put(&outer.replication.cloned().unwrap_or_default().counters());
    put(&outer.fleet.cloned().unwrap_or_default().counters());
    put(&outer.integrity.cloned().unwrap_or_default().counters());
    put(&[
        ("doc-reads-verified", doc_reads_verified),
        ("doc-reads-refused", doc_reads_refused),
    ]);
    put(&outer.reshard.cloned().unwrap_or_default().counters());
    out.push_str("</metrics>");
    out
}

/// The `pct`-th percentile of `samples` by the nearest-rank (ceiling)
/// convention — p99 of 5 samples is the max; 0 when there are none. The
/// one percentile behind every latency and queue-delay figure reported.
pub(crate) fn nearest_rank(samples: impl Iterator<Item = u64>, pct: u64) -> u64 {
    let mut sorted: Vec<u64> = samples.collect();
    if sorted.is_empty() {
        return 0;
    }
    sorted.sort_unstable();
    let rank = (sorted.len() * pct.min(100) as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}
