//! # Replicated XmlDb cluster
//!
//! A leader/follower tier over N [`XmlDb`] shards. Documents are routed to
//! shards by a consistent-hash ring; each shard is one durable leader
//! ([`AppServer`]) plus K followers that replicate by **WAL shipping**: the
//! leader sends its committed WAL frames — the exact on-disk bytes, CRC
//! and all — over a fault-injected [`VirtualNetwork`]. A follower is a
//! durable [`XmlDb`] too, on its own seat's disk: it replays shipped
//! frames through the same redo step recovery uses, appending the raw
//! frames to its *own* WAL so its disk image stays a byte-prefix of the
//! leader's log (modulo its own checkpoints), and it keeps the digests the
//! shipped digest frames seal, exactly as the leader does. One type owns
//! "durable store" for every seat; a follower adds only its role state
//! (shard, term, topology) and the shipping protocol.
//!
//! The protocol leans on three properties the storage tier already has:
//!
//! * **Torn-tail tolerance** — a truncated shipment decodes to the longest
//!   intact frame prefix ([`xqib_storage::Wal::scan_bytes`]), so a cut-off
//!   message just acks less and the rest is resent.
//! * **Idempotent replay** — frames at or below the follower's applied
//!   sequence are skipped, so a resend after a lost ack
//!   ([`xqib_browser::net::Fault::ReplyLost`]) is harmless.
//! * **Checkpoint = snapshot** — when the leader has checkpointed past a
//!   straggler's position (log gap), it ships a
//!   [`xqib_storage::Checkpoint`] as a full snapshot instead.
//!
//! An update is **acked** (HTTP 200 surfaced to the client) only once the
//! leader has fsynced it *and* at least `ack_replicas` followers have
//! durably acknowledged its sequence. On leader crash, the cluster waits
//! `FAILOVER_DETECT_MS`, then probes followers over the (possibly
//! partitioned) network until it hears from `K - ack_replicas + 1` of them
//! — a set that must intersect every ack quorum — and promotes the one
//! with the greatest `(term, acked)` pair (Raft's election restriction)
//! via the ordinary [`AppServer::recover`] path. The
//! new term starts by asserting the new leader's state: every surviving
//! follower gets a term-stamped snapshot, which fences stale leaders and
//! erases any un-acked divergent suffix a partitioned follower may hold
//! (a deliberately simplified Raft-style log reset). Under partition the
//! blackout simply extends until a quorum is reachable — consistency over
//! availability, by construction.
//!
//! Everything runs on virtual time and seeded draws: identical seeds give
//! bit-identical replication schedules, failovers and reports.
//!
//! # Online membership & live resharding
//!
//! Topology is no longer fixed at construction: the ring is versioned by a
//! [`TopologyEpoch`], and [`Cluster::add_shard`] /
//! [`Cluster::decommission_shard`] / [`Cluster::rebalance`] reshape it
//! *live*. A ring change never moves routing by itself — every document
//! stays **homed** on the shard currently serving it until its own
//! two-phase migration completes: (1) a checkpoint-style snapshot copy is
//! installed at the destination leader (journaled like any load, so the
//! destination's followers pick it up over the ordinary WAL-shipping
//! resync path) while the source keeps serving; then (2) after the copy
//! window, the destination is integrity-checked (rot forces a clean
//! re-copy, never a rotten cutover), the WAL tail of updates the source
//! accepted during the copy is forwarded, and the cutover fence is
//! stamped atomically: the source refuses the document with 421 + the new
//! epoch, and routing flips to the destination in the same tick.
//! Decommission drains every homed document this way, then retires the
//! shard's seats. Migrations compose with crashes, partitions and decay:
//! a step that needs a leader simply waits for failover to supply one.
//!
//! # Layout
//!
//! This module holds the cluster's state, its configuration, request
//! serving and the one [`Cluster::advance`] tick. Each decision the tick
//! makes has a module of its own — `topology`, `migration`,
//! `replication`, `failover` and `scrub` — whose doc names it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use xqib_browser::recovery::{CircuitBreaker, RecoveryStats};
use xqib_browser::{FaultPlan, VirtualNetwork};
use xqib_storage::{mix64, StorageFaultPlan, VirtualDisk};

use crate::fleet::FleetStats;
use crate::governor::Class;
use crate::metrics::{self, OuterStats};
use crate::render;
use crate::server::{param, split_url, AppServer, ServerResponse};
use crate::xmldb::{DurabilityConfig, XmlDb};

mod failover;
mod migration;
mod replication;
mod scrub;
mod topology;

pub(crate) use failover::FAILOVER_DETECT_MS;
use migration::Migration;
pub use migration::ReshardStats;
pub(crate) use replication::LINK_LATENCY_MS;
pub use replication::{ReplicaNode, ReplicationStats};
use replication::{BREAKER_FAILURES, BREAKER_OPEN_MS};
pub use scrub::IntegrityStats;
use scrub::SeatHealth;
use topology::Topology;
pub use topology::{Router, TopologyChange, TopologyEpoch};

/// First `u64` attribute with this name in a tiny XML reply.
fn parse_attr(xml: &str, name: &str) -> Option<u64> {
    let pat = format!("{name}=\"");
    let start = xml.find(&pat)? + pat.len();
    let rest = &xml[start..];
    rest[..rest.find('"')?].parse().ok()
}

/// Removes and returns the entries of a time-sorted schedule due at `now`.
fn take_due<T>(schedule: &mut Vec<(u64, T)>, now: u64) -> Vec<T> {
    let due = schedule.partition_point(|(at, _)| *at <= now);
    schedule.drain(..due).map(|(_, entry)| entry).collect()
}

/// Cluster topology and replication tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub seed: u64,
    /// Shards (consistent-hash partitions), each with its own leader.
    pub shards: usize,
    /// Followers per shard.
    pub followers: usize,
    /// Followers that must durably ack an update before the client sees
    /// 200 (clamped to the live follower count; 0 = leader-only acks).
    pub ack_replicas: usize,
    /// Durability of every seat: the checkpoint threshold applies to
    /// leaders and followers alike; group commit is the leader's, since a
    /// follower fsyncs once per accepted shipment, which its ack promises.
    pub durability: DurabilityConfig,
    /// Fault plan template for every replication link; reseeded per
    /// follower host so links fail independently.
    pub repl_fault: Option<FaultPlan>,
    /// ‰ of shipments truncated in flight by the cluster itself (exercises
    /// torn-frame acceptance end to end, on top of any network plan).
    pub ship_truncate_permille: u16,
    /// Pending updates time out with 503 after this long un-acked.
    pub ack_timeout_ms: u64,
    /// Fault plan template for every seat's virtual disk; reseeded per seat
    /// so disks fail independently.
    pub disk_fault: Option<StorageFaultPlan>,
    /// Anti-entropy scrub interval, virtual ms (`0` disables scrubbing).
    pub scrub_interval_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 0,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            durability: DurabilityConfig::default(),
            repl_fault: None,
            ship_truncate_permille: 0,
            ack_timeout_ms: 1500,
            disk_fault: None,
            scrub_interval_ms: 250,
        }
    }
}

/// One node slot in a shard: a stable host name and disk, plus the
/// leader-side link state used while the seat is a follower.
struct Seat {
    host: String,
    disk: VirtualDisk,
    /// `Some` while this seat is a follower; `None` while it's the leader.
    replica: Rc<RefCell<Option<ReplicaNode>>>,
    /// Leader's knowledge of this follower's durable position — learned
    /// exclusively from ack replies, never by peeking.
    acked: u64,
    /// Highest frame seq ever put on the wire to this seat, counted after
    /// in-flight truncation; frames at or below it are retries when
    /// re-shipped.
    shipped_top: u64,
    attempt: u32,
    next_send_at: u64,
    /// Ship a term-stamped snapshot before any frames (new-term reset).
    force_snapshot: bool,
    breaker: CircuitBreaker,
    rstats: RecoveryStats,
    /// Scrubber-managed read-pool standing.
    health: SeatHealth,
}

impl Seat {
    /// Forgets what the leader knew of this follower's link — its acked
    /// position, shipped top and retry count — so shipping restarts from
    /// nothing at `now`, with a term-stamped snapshot first when
    /// `force_snapshot` is set.
    fn reset_link(&mut self, now: u64, force_snapshot: bool) {
        self.acked = 0;
        self.shipped_top = 0;
        self.attempt = 0;
        self.force_snapshot = force_snapshot;
        self.next_send_at = now;
    }
}

/// A request as it arrived: the identity every completion of it repeats.
struct Arrival {
    id: u64,
    shard: usize,
    class: Class,
    url: String,
    arrival: u64,
}

impl Arrival {
    /// The request's completion at `finished`.
    fn finish(
        self,
        finished: u64,
        outcome: ClusterOutcome,
        response: ServerResponse,
    ) -> ClusterCompletion {
        ClusterCompletion {
            id: self.id,
            shard: self.shard,
            class: self.class,
            url: self.url,
            arrival: self.arrival,
            finished,
            outcome,
            response,
        }
    }

    /// The request, completed in the tick it arrived.
    fn done(self, outcome: ClusterOutcome, response: ServerResponse) -> Submitted {
        let now = self.arrival;
        Submitted::Done(Box::new(self.finish(now, outcome, response)))
    }
}

/// An update applied on the leader but not yet covered by the ack rule.
struct PendingUpdate {
    req: Arrival,
    seq: u64,
    response: ServerResponse,
}

struct Shard {
    term: u64,
    leader: Option<AppServer>,
    leader_seat: usize,
    seats: Vec<Seat>,
    pending: VecDeque<PendingUpdate>,
    leaderless_since: Option<u64>,
    next_probe_at: u64,
    /// Probe answers `(term, acked)` gathered during the current failover.
    probed: Vec<Option<(u64, u64)>>,
    /// Decommission in progress: out of the ring, still serving its homed
    /// documents until each one's migration cuts over.
    draining: bool,
    /// Fully drained and shut down; refuses everything with 421.
    retired: bool,
}

impl Shard {
    /// The leader's committed sequence; `None` while leaderless.
    fn committed(&self) -> Option<u64> {
        self.leader.as_ref().map(|l| l.db.committed_seq())
    }

    /// The follower seats: every seat but the leader's that holds a
    /// replica.
    fn followers(&self) -> impl Iterator<Item = &Seat> {
        self.seats
            .iter()
            .enumerate()
            .filter(|(i, seat)| *i != self.leader_seat && seat.replica.borrow().is_some())
            .map(|(_, seat)| seat)
    }
}

/// How a cluster request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOutcome {
    /// Served by the shard leader (any class, any status).
    Served,
    /// Render read served by an in-sync follower.
    FollowerRead,
    /// Render read served stale by a follower during a blackout.
    DegradedRead,
    /// Update durably acked per the replication ack rule.
    AckedUpdate,
    /// Update applied on the leader but not ack-covered in time.
    AckTimeout,
    /// Update applied on a leader that crashed before the ack rule held;
    /// the promoted leader does not have it.
    LostInFailover,
    /// No leader and no degraded path could serve it.
    NoLeader,
    /// The target shard does not own the document.
    Misrouted,
}

/// A finished cluster request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCompletion {
    pub id: u64,
    pub shard: usize,
    pub class: Class,
    pub url: String,
    pub arrival: u64,
    pub finished: u64,
    pub outcome: ClusterOutcome,
    pub response: ServerResponse,
}

/// What `submit` produced: an immediate completion, or a pending update id
/// whose completion a later [`Cluster::advance`] will emit.
#[derive(Debug)]
pub enum Submitted {
    Done(Box<ClusterCompletion>),
    Pending(u64),
}

/// The replicated tier. See the module docs for the protocol.
pub struct Cluster {
    cfg: ClusterConfig,
    topology: Topology,
    /// Seed of the currently installed ring; [`Cluster::rebalance`] folds
    /// a salt into it.
    ring_seed: u64,
    net: VirtualNetwork,
    shards: Vec<Shard>,
    stats: Rc<RefCell<ReplicationStats>>,
    istats: IntegrityStats,
    rstats: ReshardStats,
    /// The last fleet run's totals ([`Cluster::record_fleet`]).
    fleet: FleetStats,
    migrations: Vec<Migration>,
    topo_schedule: Vec<(u64, TopologyChange)>,
    crashes: Vec<(u64, usize)>,
    next_id: u64,
    read_rr: u64,
    send_seq: u64,
    next_scrub_at: u64,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let nshards = cfg.shards.max(1);
        let topology = Topology::new(Router::new(nshards, cfg.seed));
        let stats = Rc::new(RefCell::new(ReplicationStats::default()));
        let mut net = VirtualNetwork::new();
        let mut shards = Vec::with_capacity(nshards);
        for s in 0..nshards {
            shards.push(Cluster::spawn_shard(&cfg, &mut net, &topology, &stats, s));
        }
        Cluster {
            ring_seed: cfg.seed,
            cfg,
            topology,
            net,
            shards,
            stats,
            istats: IntegrityStats::default(),
            rstats: ReshardStats::default(),
            fleet: FleetStats::default(),
            migrations: Vec::new(),
            topo_schedule: Vec::new(),
            crashes: Vec::new(),
            next_id: 0,
            read_rr: 0,
            send_seq: 0,
            next_scrub_at: 0,
        }
    }

    /// Builds one shard's seats (leader + followers) and wires its hosts
    /// into the network. Associated so [`Cluster::add_shard`] can call it
    /// with disjoint field borrows.
    fn spawn_shard(
        cfg: &ClusterConfig,
        net: &mut VirtualNetwork,
        topology: &Topology,
        stats: &Rc<RefCell<ReplicationStats>>,
        s: usize,
    ) -> Shard {
        let mut seats = Vec::with_capacity(cfg.followers + 1);
        for slot in 0..=cfg.followers {
            let host = format!("s{s}r{slot}.xqib");
            let disk = match &cfg.disk_fault {
                Some(plan) => {
                    let mut plan = plan.clone();
                    plan.seed = mix64(cfg.seed ^ 0xd15c ^ ((s as u64) << 32) ^ slot as u64);
                    VirtualDisk::with_plan(plan)
                }
                None => VirtualDisk::new(),
            };
            let replica: Rc<RefCell<Option<ReplicaNode>>> = Rc::new(RefCell::new(None));
            if slot != 0 {
                let db = XmlDb::durable(disk.clone(), cfg.durability);
                *replica.borrow_mut() = Some(ReplicaNode::new(s, 0, db, topology, stats));
                if let Some(plan) = &cfg.repl_fault {
                    let mut plan = plan.clone();
                    plan.seed = mix64(cfg.seed ^ ((s as u64) << 32) ^ slot as u64);
                    net.set_fault_plan(&host, plan);
                }
            }
            let handler_node = replica.clone();
            net.register(&format!("http://{host}/"), LINK_LATENCY_MS, move |req| {
                ReplicaNode::handle(&handler_node, req)
            });
            seats.push(Seat {
                host,
                disk,
                replica,
                acked: 0,
                shipped_top: 0,
                attempt: 0,
                next_send_at: 0,
                force_snapshot: false,
                breaker: CircuitBreaker::new(BREAKER_FAILURES, BREAKER_OPEN_MS),
                rstats: RecoveryStats::default(),
                health: SeatHealth::Healthy,
            });
        }
        let db = XmlDb::durable(seats[0].disk.clone(), cfg.durability);
        Shard {
            term: 1,
            leader: Some(AppServer::from_db(db)),
            leader_seat: 0,
            seats,
            pending: VecDeque::new(),
            leaderless_since: None,
            next_probe_at: 0,
            probed: vec![None; cfg.followers + 1],
            draining: false,
            retired: false,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Serialized document from the owning shard's leader.
    pub fn serialize(&self, uri: &str) -> Option<String> {
        let shard = &self.shards[self.topology.owner(uri)];
        shard.leader.as_ref().and_then(|l| l.db.serialize(uri))
    }

    /// True when the owning leader's copy of `uri` contains `needle`.
    pub fn contains(&self, uri: &str, needle: &str) -> bool {
        self.serialize(uri).is_some_and(|xml| xml.contains(needle))
    }

    /// Loads a document into its owning shard and pins its home there;
    /// returns the shard index.
    pub fn load(&mut self, uri: &str, xml: &str) -> Option<usize> {
        let s = self.topology.owner(uri);
        let leader = self.shards[s].leader.as_mut()?;
        leader.db.load(uri, xml).ok()?;
        let _ = leader.db.commit();
        self.topology.note_home(uri, s);
        Some(s)
    }

    /// The document URI a request routes by — what clients should cache
    /// routing decisions against (and re-resolve on a 421).
    pub fn routing_uri(url: &str) -> String {
        let (path, query) = split_url(url);
        if let Some(uri) = param(&query, "uri") {
            return uri;
        }
        if path == "/query" || path == "/update" {
            if let Some(xq) = param(&query, "xq") {
                if let Some(uri) = first_doc_literal(&xq) {
                    return uri;
                }
            }
        }
        render::CORPUS_URI.to_string()
    }

    /// Routes a request to its owning shard and serves it.
    pub fn submit(&mut self, url: &str, now: u64) -> Submitted {
        let shard = self.topology.owner(&Self::routing_uri(url));
        self.serve_at(shard, url, now)
    }

    /// Serves a request on a specific shard, refusing documents the shard
    /// does not own or no longer serves (421 + the current epoch, so
    /// clients can re-resolve). `submit` always routes correctly; this is
    /// the enforcement point a stale client or migrated-away document hits.
    pub fn serve_at(&mut self, shard: usize, url: &str, now: u64) -> Submitted {
        let class = Class::of_url(url);
        let req = Arrival {
            id: self.next_id,
            shard,
            class,
            url: url.to_string(),
            arrival: now,
        };
        self.next_id += 1;
        if split_url(url).0 == "/metrics" {
            return req.done(ClusterOutcome::Served, self.metrics_response());
        }
        let uri = Self::routing_uri(url);
        let owner = self.topology.owner(&uri);
        if owner != shard || self.shards[shard].retired {
            self.stats.borrow_mut().ownership_rejections += 1;
            let epoch = self.topology.epoch();
            let refusal = ServerResponse::misrouted(shard, &uri, owner, epoch);
            return req.done(ClusterOutcome::Misrouted, refusal);
        }
        match class {
            Class::Update => self.serve_update(req),
            Class::Query => match self.shards[shard].leader.as_mut() {
                Some(leader) => {
                    let resp = leader.handle(url);
                    req.done(ClusterOutcome::Served, resp)
                }
                None => req.done(ClusterOutcome::NoLeader, no_leader_response()),
            },
            Class::Render => self.serve_render(req, &uri),
        }
    }

    fn serve_update(&mut self, req: Arrival) -> Submitted {
        let sh = &mut self.shards[req.shard];
        let Some(leader) = sh.leader.as_mut() else {
            return req.done(ClusterOutcome::NoLeader, no_leader_response());
        };
        let response = leader.handle(&req.url);
        if response.status != 200 {
            return req.done(ClusterOutcome::Served, response);
        }
        let seq = leader.db.appended_seq();
        let _ = leader.db.commit();
        if sh.acked(seq, self.cfg.ack_replicas) {
            return req.done(ClusterOutcome::AckedUpdate, response);
        }
        let id = req.id;
        sh.pending.push_back(PendingUpdate { req, seq, response });
        Submitted::Pending(id)
    }

    fn serve_render(&mut self, req: Arrival, uri: &str) -> Submitted {
        let (shard, now) = (req.shard, req.arrival);
        let whole_doc = split_url(&req.url).0 == "/doc";
        if self.shards[shard].leader.is_some() {
            // bounded-staleness follower read for whole-document fetches
            if whole_doc {
                if let Some(resp) = self.follower_doc(shard, uri, false, now) {
                    return req.done(ClusterOutcome::FollowerRead, resp);
                }
            }
            let resp = match self.shards[shard].leader.as_mut() {
                Some(leader) => leader.handle(&req.url),
                None => no_leader_response(),
            };
            return req.done(ClusterOutcome::Served, resp);
        }
        // Blackout: a stale whole-document read beats a 503 for the
        // render surface — same contract as the governor's degrade path.
        let stale_uri = if whole_doc {
            uri.to_string()
        } else {
            render::CORPUS_URI.to_string()
        };
        if self.topology.owner(&stale_uri) == shard {
            if let Some(resp) = self.follower_doc(shard, &stale_uri, true, now) {
                let resp = resp.with_header("X-XQIB-Degraded", "no-leader");
                return req.done(ClusterOutcome::DegradedRead, resp);
            }
        }
        req.done(ClusterOutcome::NoLeader, no_leader_response())
    }

    /// One tick of cluster housekeeping, in a fixed order: latent disk
    /// decay accrues, due crashes and topology changes apply, the
    /// anti-entropy scrubber runs, failovers progress, migrations step,
    /// pending updates resolve, and replication links pump. Returns the
    /// completions that finished at `now`.
    pub fn advance(&mut self, now: u64) -> Vec<ClusterCompletion> {
        let mut out = Vec::new();
        // latent bit rot accrues with virtual time on every seat disk,
        // leader and follower alike — decay never waits for a crash
        for sh in &self.shards {
            for seat in &sh.seats {
                seat.disk.decay_at(now);
            }
        }
        self.crash_due(now);
        self.apply_due_changes(now);
        self.scrub_due(now);
        for s in 0..self.shards.len() {
            self.try_failover(s, now, &mut out);
        }
        // migrations step after failover (a fresh leader may unblock a
        // copy or cutover this very tick) and before pending resolution
        self.drive_migrations(now);
        // resolve before pumping: an ack earned by this tick's shipment is
        // only *observed* on a later tick, so acks always cost wall time
        for s in 0..self.shards.len() {
            self.resolve_pending(s, now, &mut out);
        }
        for s in 0..self.shards.len() {
            self.pump(s, now);
        }
        out
    }

    /// Steps virtual time from `from` until every shard has a leader, no
    /// update is pending, and every follower is fully caught up (or the
    /// iteration cap trips). Returns the final time and the completions.
    pub fn quiesce(&mut self, from: u64) -> (u64, Vec<ClusterCompletion>) {
        let step = LINK_LATENCY_MS;
        let mut now = from;
        let mut out = Vec::new();
        for _ in 0..200_000 {
            out.extend(self.advance(now));
            if self.settled() {
                break;
            }
            now += step;
        }
        (now, out)
    }

    fn settled(&self) -> bool {
        if !self.migrations.is_empty() || !self.topo_schedule.is_empty() {
            return false;
        }
        self.shards.iter().all(|sh| {
            if sh.retired {
                return true; // shut down for good; nothing to wait on
            }
            let Some(committed) = sh.committed() else {
                return false;
            };
            sh.pending.is_empty() && sh.followers().all(|seat| seat.acked >= committed)
        })
    }

    /// The `/metrics` surface: the first live leader's counters (shard 0
    /// may be retired; zeros when no shard has a leader) with the
    /// cluster's replication, fleet, integrity and resharding groups.
    fn metrics_response(&mut self) -> ServerResponse {
        let replication = self.stats();
        let integrity = self.integrity_stats();
        let outer = OuterStats {
            overload: None,
            replication: Some(&replication),
            fleet: Some(&self.fleet),
            integrity: Some(&integrity),
            reshard: Some(&self.rstats),
        };
        match self.shards.iter_mut().find_map(|sh| sh.leader.as_mut()) {
            Some(leader) => leader.handle_with("/metrics", None, &outer).0,
            None => ServerResponse::new(200, metrics::render(None, &outer)),
        }
    }

    /// Hands a fleet run's totals to the cluster, so the next `/metrics`
    /// render reports the client side of the deployment alongside the
    /// server and replication counters.
    pub fn record_fleet(&mut self, stats: &FleetStats) {
        self.fleet = stats.clone();
    }
}

fn no_leader_response() -> ServerResponse {
    ServerResponse::new(
        503,
        "<error code=\"XQIB0016\">no leader; failover in progress</error>",
    )
    .with_header("Retry-After", "1")
}

/// First `doc("…")` / `doc('…')` literal in an XQuery — the routing key
/// for `/query` and `/update` requests that don't pass `uri=` explicitly.
fn first_doc_literal(xq: &str) -> Option<String> {
    let start = xq.find("doc(")? + 4;
    let rest = &xq[start..];
    let quote = rest.chars().next()?;
    if quote != '"' && quote != '\'' {
        return None;
    }
    let inner = &rest[1..];
    Some(inner[..inner.find(quote)?].to_string())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    pub(super) fn doc_url(uri: &str) -> String {
        format!("/doc?uri={uri}")
    }

    pub(super) fn update_url(uri: &str, marker: &str) -> String {
        format!("/update?xq=insert node <m id=\"{marker}\"/> into doc(\"{uri}\")/*")
    }

    pub(super) fn seeded(mut cfg: ClusterConfig) -> Cluster {
        cfg.seed = 42;
        let mut c = Cluster::new(cfg);
        for i in 0..6 {
            let uri = format!("d{i}.xml");
            c.load(&uri, &format!("<root n=\"{i}\"/>")).unwrap();
        }
        c
    }

    /// Drives `c` until the pending update `id` completes (or panics).
    pub(super) fn await_update(c: &mut Cluster, id: u64, mut now: u64) -> (ClusterCompletion, u64) {
        for _ in 0..10_000 {
            for done in c.advance(now) {
                if done.id == id {
                    return (done, now);
                }
            }
            now += 1;
        }
        panic!("update {id} never completed");
    }

    /// Loads `docs` documents and writes one acked marker into each;
    /// returns the markers keyed by URI and the advanced clock.
    pub(super) fn marked(
        c: &mut Cluster,
        docs: usize,
        mut now: u64,
    ) -> (Vec<(String, String)>, u64) {
        let mut markers = Vec::new();
        for i in 0..docs {
            let uri = format!("m{i}.xml");
            c.load(&uri, &format!("<root n=\"{i}\"/>")).unwrap();
            let marker = format!("mk{i}");
            now = put_marker(c, &uri, &marker, now);
            markers.push((uri, marker));
        }
        (markers, now)
    }

    /// Submits one update and drives it to an ack; returns the new clock.
    pub(super) fn put_marker(c: &mut Cluster, uri: &str, marker: &str, now: u64) -> u64 {
        match c.submit(&update_url(uri, marker), now) {
            Submitted::Done(d) => {
                assert_eq!(d.outcome, ClusterOutcome::AckedUpdate, "{uri}/{marker}");
                now + 1
            }
            Submitted::Pending(id) => {
                let (done, at) = await_update(c, id, now);
                assert_eq!(done.outcome, ClusterOutcome::AckedUpdate, "{uri}/{marker}");
                at + 1
            }
        }
    }

    #[test]
    fn misrouted_requests_are_refused_with_421() {
        let mut c = seeded(ClusterConfig {
            shards: 4,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let owner = c.owner("d0.xml");
        let wrong = (owner + 1) % c.shard_count();
        let before = c.stats().ownership_rejections;
        let done = match c.serve_at(wrong, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("misroute cannot pend"),
        };
        assert_eq!(done.response.status, 421);
        assert_eq!(done.outcome, ClusterOutcome::Misrouted);
        assert_eq!(c.stats().ownership_rejections, before + 1);
        // and the rightful owner serves it fine
        let ok = match c.serve_at(owner, &doc_url("d0.xml"), 0) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(ok.response.status, 200);
    }

    #[test]
    fn metrics_surface_carries_replication_counters() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        match c.submit(&update_url("d5.xml", "mx"), 0) {
            Submitted::Pending(id) => {
                let _ = await_update(&mut c, id, 0);
            }
            Submitted::Done(_) => {}
        }
        let done = match c.submit("/metrics", 100) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("metrics cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        assert!(
            done.response.body.contains("<repl-frames-shipped>"),
            "metrics body missing replication counters: {}",
            done.response.body
        );
    }

    #[test]
    fn metrics_surface_carries_reshard_counters() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let (_, now) = marked(&mut c, 12, 0);
        let _ = c.add_shard(now);
        let (settled, _) = c.quiesce(now);
        let done = match c.submit("/metrics", settled) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("metrics cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        for needle in [
            "<reshard-epoch-bumps>",
            "<reshard-docs-moved>",
            "<reshard-cutover-fences>",
        ] {
            assert!(
                done.response.body.contains(needle),
                "metrics body missing {needle}: {}",
                done.response.body
            );
        }
    }
}
