//! How followers catch up, and when an update counts as acked: the
//! follower replica and its `/replicate` handler, the wire format of a
//! shipment, the per-link pump that ships committed WAL frames (or a
//! snapshot) with breaker and backoff, the ack rule and the pending
//! updates it resolves, and bounded-staleness follower reads.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use xqib_browser::recovery::RetryPolicy;
use xqib_browser::{NetOutcome, Request, Response};
use xqib_storage::{content_digest, mix64, Checkpoint, ShippedFrame, Wal, WalRecord};
use xqib_xquery::wire;

use super::failover::PROBE_RETRY_MS;
use super::scrub::SeatHealth;
use super::topology::Topology;
use super::{parse_attr, Cluster, ClusterCompletion, ClusterOutcome, Seat, Shard};
use crate::server::ServerResponse;
use crate::xmldb::XmlDb;

/// Max frames per shipment.
const MAX_BATCH_FRAMES: usize = 64;
/// Round-trip latency of every replication link, virtual ms.
pub(crate) const LINK_LATENCY_MS: u64 = 5;
/// Backoff schedule for failed shipments.
const RETRY: RetryPolicy = RetryPolicy::DEFAULT;
/// Consecutive link failures before a link breaker opens.
pub(super) const BREAKER_FAILURES: u32 = 5;
/// How long an open link breaker stays open, virtual ms.
pub(super) const BREAKER_OPEN_MS: u64 = 100;
/// Bounded staleness for healthy-path follower `/doc` reads, in frames.
const MAX_READ_LAG: u64 = 64;

/// Cumulative replication counters, reported on the cluster's `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplicationStats {
    /// WAL frames shipped to followers (every attempt, including resends).
    pub frames_shipped: u64,
    /// Frame sequence numbers durably acknowledged by followers.
    pub frames_acked: u64,
    /// Frames re-shipped after a lost/failed attempt.
    pub frames_retried: u64,
    /// Full snapshots shipped (log gap, or term-change reset).
    pub snapshots_shipped: u64,
    /// Failover probes sent to followers.
    pub probes: u64,
    /// Leader promotions performed.
    pub failovers: u64,
    /// Render reads served by a follower instead of the leader.
    pub follower_reads: u64,
    /// Shipments or requests refused because the document is not owned by
    /// the shard.
    pub ownership_rejections: u64,
    /// Total virtual milliseconds some shard spent leaderless.
    pub blackout_ms: u64,
    /// High-water replica lag (leader committed − follower acked frames).
    pub max_replica_lag: u64,
}

impl ReplicationStats {
    /// Every counter under its `/metrics` element name, in report order.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        let ReplicationStats {
            frames_shipped,
            frames_acked,
            frames_retried,
            snapshots_shipped,
            probes,
            failovers,
            follower_reads,
            ownership_rejections,
            blackout_ms,
            max_replica_lag,
        } = *self;
        [
            ("repl-frames-shipped", frames_shipped),
            ("repl-frames-acked", frames_acked),
            ("repl-frames-retried", frames_retried),
            ("repl-snapshots-shipped", snapshots_shipped),
            ("repl-probes", probes),
            ("repl-failovers", failovers),
            ("repl-follower-reads", follower_reads),
            ("repl-ownership-rejections", ownership_rejections),
            ("repl-blackout-ms", blackout_ms),
            ("repl-max-replica-lag", max_replica_lag),
        ]
    }
}

/// Tag byte of a shipment that carries committed WAL frames.
const FRAMES_TAG: u8 = b'F';
/// Tag byte of a shipment that carries a checkpoint snapshot.
const SNAPSHOT_TAG: u8 = b'S';

/// One replication message as it goes on the wire: a tag byte, then the
/// raw payload — committed WAL frames byte for byte as the leader's log
/// holds them, or an encoded checkpoint snapshot.
struct Shipment {
    body: Vec<u8>,
    /// Each shipped frame's sequence and the body offset its bytes end at.
    frame_ends: Vec<(u64, usize)>,
}

impl Shipment {
    fn frames(frames: &[ShippedFrame]) -> Shipment {
        let mut body = vec![FRAMES_TAG];
        let mut frame_ends = Vec::with_capacity(frames.len());
        for f in frames {
            body.extend_from_slice(&f.bytes);
            frame_ends.push((f.seq, body.len()));
        }
        Shipment { body, frame_ends }
    }

    fn snapshot(ck: &Checkpoint) -> Shipment {
        let mut body = vec![SNAPSHOT_TAG];
        body.extend_from_slice(&ck.encode());
        Shipment {
            body,
            frame_ends: Vec::new(),
        }
    }

    fn is_snapshot(&self) -> bool {
        self.body.first() == Some(&SNAPSHOT_TAG)
    }

    /// The frames a shipment cut to its first `delivered` bytes still
    /// carries whole — the ones that count as put on the wire.
    fn sent(&self, delivered: usize) -> Vec<u64> {
        self.frame_ends
            .iter()
            .take_while(|&&(_, end)| end <= delivered)
            .map(|&(seq, _)| seq)
            .collect()
    }
}

/// An XML reply from a follower's `/replicate` handler.
fn reply(status: u16, body: String) -> Response {
    Response {
        status,
        body,
        content_type: "application/xml".to_string(),
    }
}

/// A follower replica: a durable [`XmlDb`] on its seat's disk, fed by
/// shipped frames, plus its role state. Lives behind the seat's network
/// handler; the leader only ever talks to it through `VirtualNetwork`
/// messages. The database's appended sequence is the highest frame
/// applied to memory, its committed sequence the highest durable on this
/// replica's own disk — the position its acks report.
pub struct ReplicaNode {
    shard: usize,
    term: u64,
    pub(super) db: XmlDb,
    topology: Topology,
    stats: Rc<RefCell<ReplicationStats>>,
}

impl ReplicaNode {
    /// A replica of `shard` at `term` over `db` — a freshly wiped seat's
    /// empty database at term 0, or a demoted leader's own.
    pub(super) fn new(
        shard: usize,
        term: u64,
        db: XmlDb,
        topology: &Topology,
        stats: &Rc<RefCell<ReplicationStats>>,
    ) -> ReplicaNode {
        ReplicaNode {
            shard,
            term,
            db,
            topology: topology.clone(),
            stats: stats.clone(),
        }
    }

    fn owns(&self, record: &WalRecord) -> bool {
        match record {
            WalRecord::Load { uri, .. } | WalRecord::Digest { uri, .. } => {
                self.topology.replicable_at(self.shard, uri)
            }
            WalRecord::Pul(bytes) => match wire::pul_doc_uris(bytes) {
                Ok(uris) => uris
                    .iter()
                    .all(|u| self.topology.replicable_at(self.shard, u)),
                Err(_) => false,
            },
        }
    }

    /// Replays a shipped byte stream: skip what's already applied, stop at
    /// the first gap, foreign document or inapplicable record, persist the
    /// accepted raw frames, and report the new durable position plus
    /// whether the batch was refused over ownership. `None` fences a
    /// stale-term sender.
    fn accept_frames(&mut self, term: u64, data: &[u8]) -> Option<(u64, bool)> {
        if term < self.term {
            return None;
        }
        self.term = term;
        let replay = Wal::scan_bytes(data);
        let mut start = 0usize;
        let mut refused = false;
        for (seq, record, end) in replay.records {
            let bytes = &data[start..end];
            start = end;
            let applied = self.db.appended_seq();
            if seq <= applied {
                continue; // idempotent resend after a lost ack
            }
            if seq != applied + 1 {
                break; // gap: the sender must fall back to a snapshot
            }
            if !self.owns(&record) {
                self.stats.borrow_mut().ownership_rejections += 1;
                refused = true;
                break;
            }
            if !self.db.accept_frame(seq, &record, bytes) {
                break;
            }
        }
        self.db.commit_shipment();
        Some((self.db.committed_seq(), refused))
    }

    /// Installs a full snapshot (log-gap resync or new-term reset),
    /// replacing local state wholesale. `None` fences stale terms, refuses
    /// foreign documents and undecodable payloads.
    fn install_snapshot(&mut self, term: u64, data: &[u8]) -> Option<u64> {
        if term < self.term {
            return None;
        }
        let ck = Checkpoint::decode(data)?;
        for (uri, _) in &ck.docs {
            if !self.topology.replicable_at(self.shard, uri) {
                self.stats.borrow_mut().ownership_rejections += 1;
                return None;
            }
        }
        if !self.db.install_snapshot(ck) {
            return None;
        }
        self.term = term;
        Some(self.db.committed_seq())
    }

    /// Fault-injection hook: silently replaces a document in the replica's
    /// *memory*, modelling the divergence a mis-apply or memory fault
    /// would cause. Disk and shipped digests are untouched, so only a
    /// digest cross-check can notice.
    pub fn poison_document(&mut self, uri: &str) -> bool {
        if self.db.store.borrow().doc_by_uri(uri).is_none() {
            return false;
        }
        let Ok(doc) = xqib_dom::parse_document("<rotted/>") else {
            return false;
        };
        self.db.store.borrow_mut().add_document(doc, Some(uri));
        true
    }

    /// The seat's `/replicate` endpoint: a probe reports the replica's
    /// term and positions; a shipment is acked with the new durable
    /// position, refused with 421 over ownership, fenced with 409 from a
    /// stale term, and rejected with 400 unless its first byte is a tag.
    pub(super) fn handle(node: &Rc<RefCell<Option<ReplicaNode>>>, req: &Request) -> Response {
        let mut guard = node.borrow_mut();
        let Some(n) = guard.as_mut() else {
            return reply(503, "<error>not a replica</error>".to_string());
        };
        if req.query_param("probe").is_some() {
            return Response::ok(format!(
                "<state term=\"{}\" acked=\"{}\" applied=\"{}\"/>",
                n.term,
                n.db.committed_seq(),
                n.db.appended_seq()
            ));
        }
        let term = req
            .query_param("term")
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        let acked = match req.body.as_deref().unwrap_or_default().split_first() {
            Some((&FRAMES_TAG, frames)) => n.accept_frames(term, frames),
            Some((&SNAPSHOT_TAG, snapshot)) => {
                n.install_snapshot(term, snapshot).map(|a| (a, false))
            }
            _ => return reply(400, "<error>bad replication payload</error>".to_string()),
        };
        match acked {
            Some((seq, false)) => Response::ok(format!("<ack seq=\"{seq}\"/>")),
            // foreign document in the batch: a non-200 reply makes the
            // leader count a failure (backoff, breaker) instead of
            // hot-looping the identical shipment on every tick
            Some((seq, true)) => reply(421, format!("<nack reason=\"ownership\" seq=\"{seq}\"/>")),
            None => reply(409, format!("<nack term=\"{}\"/>", n.term)),
        }
    }
}

impl Shard {
    /// The ack rule: update `seq` is acked once the leader holds it
    /// durably and at least `ack_replicas` followers — clamped to the
    /// followers the shard has — have durably acknowledged it.
    pub(super) fn acked(&self, seq: u64, ack_replicas: usize) -> bool {
        let acks = self.followers().filter(|seat| seat.acked >= seq).count();
        self.committed().is_some_and(|c| c >= seq)
            && acks >= ack_replicas.min(self.followers().count())
    }
}

impl Seat {
    /// Counts a failed attempt on this link and schedules the next one on
    /// its backoff curve (`s`, `i` salt the jitter per shard and seat).
    fn back_off(&mut self, now: u64, s: usize, i: usize) {
        self.attempt += 1;
        let salt = mix64(((s as u64) << 8) | i as u64);
        self.next_send_at = now + RETRY.backoff_delay(self.attempt, salt);
    }
}

impl Cluster {
    pub fn stats(&self) -> ReplicationStats {
        self.stats.borrow().clone()
    }

    /// Leader committed sequence, `None` during a blackout.
    pub fn leader_committed(&self, shard: usize) -> Option<u64> {
        self.shards[shard].committed()
    }

    /// Per-follower lag (leader committed − follower acked), leader's view.
    pub fn replica_lag(&self, shard: usize) -> Vec<u64> {
        let sh = &self.shards[shard];
        let committed = sh.committed().unwrap_or(0);
        sh.followers()
            .map(|seat| committed.saturating_sub(seat.acked))
            .collect()
    }

    /// Ships committed WAL frames (or snapshots) to every follower link
    /// whose send timer is due, with breaker + backoff on failures.
    pub(super) fn pump(&mut self, s: usize, now: u64) {
        for i in 0..self.shards[s].seats.len() {
            // phase 1: decide what to ship (leader + seat borrows only)
            let (shipment, host, term) = {
                let sh = &mut self.shards[s];
                let Some(leader) = sh.leader.as_mut() else {
                    return;
                };
                let seat = &mut sh.seats[i];
                if i == sh.leader_seat || seat.replica.borrow().is_none() {
                    continue;
                }
                if now < seat.next_send_at {
                    continue;
                }
                if !seat.breaker.allow(now, &mut seat.rstats) {
                    seat.next_send_at = now + PROBE_RETRY_MS;
                    continue;
                }
                let mut snapshot = seat.force_snapshot;
                let mut frames = Vec::new();
                if !snapshot {
                    match leader.db.committed_frames_after(seat.acked) {
                        Some(f) if f.is_empty() => continue, // caught up
                        Some(f) => frames = f,
                        None => snapshot = true, // log gap: checkpointed past
                    }
                }
                let shipment = if snapshot {
                    match leader.db.replication_snapshot() {
                        Some(ck) => Shipment::snapshot(&ck),
                        None => {
                            seat.back_off(now, s, i);
                            continue;
                        }
                    }
                } else {
                    frames.truncate(MAX_BATCH_FRAMES);
                    Shipment::frames(&frames)
                };
                (shipment, seat.host.clone(), sh.term)
            };
            // deterministic in-flight truncation (torn shipments)
            let draw = mix64(self.cfg.seed ^ 0x5eed ^ self.send_seq);
            self.send_seq += 1;
            let len = shipment.body.len();
            let delivered = if self.cfg.ship_truncate_permille > 0
                && draw % 1000 < u64::from(self.cfg.ship_truncate_permille)
            {
                (1 + (mix64(draw) as usize) % len.max(2)).min(len)
            } else {
                len
            };
            let sent = shipment.sent(delivered);
            {
                let shipped_top = self.shards[s].seats[i].shipped_top;
                let mut st = self.stats.borrow_mut();
                if shipment.is_snapshot() {
                    st.snapshots_shipped += 1;
                } else {
                    st.frames_shipped += sent.len() as u64;
                    st.frames_retried += sent.iter().filter(|&&q| q <= shipped_top).count() as u64;
                }
            }
            // phase 2: the network call (handler may borrow replica/stats)
            let req = Request::post(
                &format!("http://{host}/replicate?shard={s}&term={term}"),
                &shipment.body[..delivered],
            );
            let outcome = self.net.fetch_at(&req, now);
            // phase 3: apply the outcome to the link
            let seat = &mut self.shards[s].seats[i];
            if let Some(&top) = sent.last() {
                seat.shipped_top = seat.shipped_top.max(top);
            }
            let (seq, latency_ms) = match outcome {
                NetOutcome::Reply { resp, latency_ms } => (
                    parse_attr(&resp.body, "seq"),
                    (resp.status == 200).then_some(latency_ms),
                ),
                _ => (None, None),
            };
            // any reply that carries the follower's durable position is
            // learned: an ownership refusal reports it for the frames
            // before the break
            if let Some(a) = seq.filter(|&a| a > seat.acked) {
                self.stats.borrow_mut().frames_acked += a - seat.acked;
                seat.acked = a;
            }
            match (seq, latency_ms) {
                (Some(ack), Some(latency_ms)) => {
                    seat.breaker.on_success(&mut seat.rstats);
                    seat.attempt = 0;
                    if shipment.is_snapshot() {
                        seat.force_snapshot = false;
                        // log reset: frames beyond the snapshot are fresh
                        seat.shipped_top = ack;
                    }
                    // an ack below the shipped top (torn shipment) leaves
                    // committed frames unshipped: the next tick resends
                    seat.next_send_at = now + latency_ms.max(1);
                }
                _ => {
                    seat.breaker.on_failure(now, &mut seat.rstats);
                    seat.back_off(now, s, i);
                }
            }
            let committed = self.shards[s].committed().unwrap_or(0);
            let lag = committed.saturating_sub(self.shards[s].seats[i].acked);
            let mut st = self.stats.borrow_mut();
            if lag > st.max_replica_lag {
                st.max_replica_lag = lag;
            }
        }
    }

    /// Emits completions for pending updates whose ack rule now holds, and
    /// times out the rest per `ack_timeout_ms`.
    pub(super) fn resolve_pending(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        let ack_replicas = self.cfg.ack_replicas;
        let timeout = self.cfg.ack_timeout_ms;
        let sh = &mut self.shards[s];
        let mut keep = VecDeque::new();
        while let Some(p) = sh.pending.pop_front() {
            if sh.acked(p.seq, ack_replicas) {
                out.push(p.req.finish(now, ClusterOutcome::AckedUpdate, p.response));
            } else if now.saturating_sub(p.req.arrival) >= timeout {
                let response = ServerResponse::new(
                    503,
                    "<error code=\"XQIB0017\">replication ack timeout; \
                     update applied on the leader but not replicated</error>",
                )
                .with_header("Retry-After", "1");
                out.push(p.req.finish(now, ClusterOutcome::AckTimeout, response));
            } else {
                keep.push_back(p);
            }
        }
        sh.pending = keep;
    }

    /// A `/doc` body served from a follower replica. Healthy path
    /// (`any_lag = false`): round-robin over *healthy* followers within
    /// `MAX_READ_LAG`, and the body's content digest is verified against
    /// the leader's recorded digest before it leaves the cluster — a
    /// mismatch quarantines the seat for resync and falls back to the
    /// leader. Blackout path (`any_lag = true`): the most caught-up
    /// non-quarantined follower, whatever its lag.
    pub(super) fn follower_doc(
        &mut self,
        shard: usize,
        uri: &str,
        any_lag: bool,
        now: u64,
    ) -> Option<ServerResponse> {
        let sh = &self.shards[shard];
        let committed = sh.committed();
        let mut candidates: Vec<(usize, u64, u64)> = Vec::new(); // (seat, lag, applied)
        for (i, seat) in sh.seats.iter().enumerate() {
            if i == sh.leader_seat {
                continue;
            }
            let usable = if any_lag {
                !matches!(seat.health, SeatHealth::Quarantined { .. })
            } else {
                seat.health == SeatHealth::Healthy
            };
            if !usable {
                continue;
            }
            let guard = seat.replica.borrow();
            let Some(node) = guard.as_ref() else {
                continue;
            };
            let applied = node.db.appended_seq();
            let lag = committed.unwrap_or(applied).saturating_sub(seat.acked);
            if !any_lag && lag > MAX_READ_LAG {
                continue;
            }
            candidates.push((i, lag, applied));
        }
        if candidates.is_empty() {
            return None;
        }
        let (seat_idx, lag, applied) = if any_lag {
            // most caught-up wins; ties go to the lowest seat
            *candidates
                .iter()
                .max_by_key(|&&(i, _, applied)| (applied, usize::MAX - i))?
        } else {
            let pick = candidates[(self.read_rr as usize) % candidates.len()];
            self.read_rr += 1;
            pick
        };
        let (body, host, want) = {
            let sh = &self.shards[shard];
            let seat = &sh.seats[seat_idx];
            let guard = seat.replica.borrow();
            let body = guard.as_ref()?.db.serialize(uri)?;
            let want = sh.leader.as_ref().and_then(|l| l.db.digest_of(uri));
            (body, seat.host.clone(), want)
        };
        // End-to-end read verification: a caught-up follower's body must
        // hash to the digest the leader sealed at journal time. A lagged
        // follower is serving an older (but internally consistent)
        // version, which bounded staleness already permits — only an
        // in-sync body that hashes wrong is corruption.
        if let (Some(c), Some(want)) = (committed, want) {
            if applied >= c {
                if content_digest(uri, &body) != want {
                    self.istats.reads_refused += 1;
                    self.quarantine_and_resync(shard, seat_idx, now);
                    return None;
                }
                self.istats.reads_verified += 1;
            }
        }
        self.stats.borrow_mut().follower_reads += 1;
        Some(
            ServerResponse::new(200, body)
                .with_header("X-XQIB-Replica", &host)
                .with_header("X-XQIB-Replica-Lag", &lag.to_string()),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use std::collections::BTreeMap;

    use super::super::tests::{await_update, doc_url, seeded, update_url};
    use super::super::topology::Router;
    use super::*;
    use crate::cluster::{ClusterConfig, Submitted};
    use crate::xmldb::DurabilityConfig;
    use proptest::prelude::*;
    use xqib_browser::FaultPlan;
    use xqib_storage::{VirtualDisk, WAL_FILE};

    #[test]
    fn replicated_update_acks_only_after_the_follower_is_durable() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let url = update_url("d0.xml", "k1");
        let id = match c.submit(&url, 10) {
            Submitted::Pending(id) => id,
            Submitted::Done(d) => panic!("acked before replication: {:?}", d.outcome),
        };
        let (done, _) = await_update(&mut c, id, 10);
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        assert_eq!(done.response.status, 200);
        assert!(done.finished > done.arrival, "ack must cost round trips");
        // the follower replica holds the marker via shipped WAL frames
        let sh0 = &c.shards[0];
        let follower = sh0.seats[1].replica.borrow();
        let xml = follower.as_ref().unwrap().db.serialize("d0.xml").unwrap();
        assert!(xml.contains("k1"), "follower missing the update: {xml}");
        let stats = c.stats();
        assert!(stats.frames_shipped > 0);
        assert!(stats.frames_acked > 0);
        // clean links: every shipped frame acks exactly once, none re-sent
        assert_eq!(stats.frames_shipped, stats.frames_acked);
        assert_eq!(stats.frames_retried, 0);
    }

    #[test]
    fn followers_refuse_shipped_frames_for_foreign_documents() {
        // Craft a follower for shard 0 and feed it frames that belong to a
        // different shard: it must refuse and not advance its ack.
        let topology = Topology::new(Router::new(4, 9));
        let stats = Rc::new(RefCell::new(ReplicationStats::default()));
        let mut foreign = None;
        for i in 0..64 {
            let uri = format!("x{i}.xml");
            if topology.ring_owner(&uri) != 0 {
                foreign = Some(uri);
                break;
            }
        }
        let foreign = foreign.expect("some uri must hash off shard 0");
        let db = XmlDb::durable(VirtualDisk::new(), DurabilityConfig::default());
        let mut node = ReplicaNode::new(0, 0, db, &topology, &stats);
        // build a real frame stream via a scratch durable db
        let scratch = VirtualDisk::new();
        let mut db = XmlDb::durable(scratch.clone(), DurabilityConfig::default());
        db.load(&foreign, "<root/>").unwrap();
        db.commit().unwrap();
        let data = scratch.read(WAL_FILE).unwrap();
        let (acked, refused) = node.accept_frames(1, &data).unwrap();
        assert_eq!(acked, 0, "foreign document must not be acked");
        assert!(refused, "ownership break must be reported");
        assert_eq!(node.db.appended_seq(), 0);
        assert_eq!(stats.borrow().ownership_rejections, 1);
        assert!(node.db.serialize(&foreign).is_none());
        // over the wire the refusal is a non-200 reply, so a leader with a
        // broken router backs off instead of hot-looping the same batch
        let node = Rc::new(RefCell::new(Some(node)));
        let req = Request::post(
            "http://s0r1.xqib/replicate?shard=0&term=1",
            &[&[FRAMES_TAG][..], &data].concat(),
        );
        let resp = ReplicaNode::handle(&node, &req);
        assert_eq!(
            resp.status, 421,
            "ownership refusal must not read as success"
        );
        assert_eq!(stats.borrow().ownership_rejections, 2);
        // a body whose first byte is neither tag (here the first byte of a
        // two-byte character), or no body byte at all, is a malformed
        // request, not a panic
        for body in ["é00".as_bytes(), b""] {
            let req = Request::post("http://s0r1.xqib/replicate?shard=0&term=1", body);
            assert_eq!(ReplicaNode::handle(&node, &req).status, 400);
        }
    }

    /// A frames shipment cut at every byte offset: the follower acks
    /// exactly the last frame [`Shipment::sent`] counts as whole, or keeps
    /// its previous position when the cut leaves no frame whole.
    #[test]
    fn a_torn_shipment_acks_exactly_the_frames_counted_as_sent() {
        let cfg = DurabilityConfig::default();
        let topology = Topology::new(Router::new(1, 3));
        let stats = Rc::new(RefCell::new(ReplicationStats::default()));
        let mut leader = XmlDb::durable(VirtualDisk::new(), cfg);
        leader.load("a.xml", "<r><v>1</v></r>").unwrap();
        leader.load("b.xml", "<r/>").unwrap();
        leader
            .query("insert node <m/> into doc('a.xml')/r")
            .unwrap();
        leader.commit().unwrap();
        // the follower already holds a.xml's load and digest frames
        let prior = 2;
        let head = leader.committed_frames_after(0).unwrap();
        let held: Vec<u8> = head[..prior as usize]
            .iter()
            .flat_map(|f| f.bytes.iter().copied())
            .collect();
        let shipment = Shipment::frames(&leader.committed_frames_after(prior).unwrap());
        assert!(
            shipment.frame_ends.len() > 1,
            "the shipment must be multi-frame"
        );
        for delivered in 1..=shipment.body.len() {
            let db = XmlDb::durable(VirtualDisk::new(), cfg);
            let mut node = ReplicaNode::new(0, 0, db, &topology, &stats);
            assert_eq!(node.accept_frames(1, &held), Some((prior, false)));
            let node = Rc::new(RefCell::new(Some(node)));
            let req = Request::post(
                "http://s0r1.xqib/replicate?shard=0&term=1",
                &shipment.body[..delivered],
            );
            let resp = ReplicaNode::handle(&node, &req);
            assert_eq!(resp.status, 200, "cut at {delivered}");
            let want = shipment.sent(delivered).last().copied().unwrap_or(prior);
            assert_eq!(
                parse_attr(&resp.body, "seq"),
                Some(want),
                "cut at {delivered}"
            );
        }
    }

    /// Ships one batch to `node` as a leader would: a snapshot when the
    /// batch is `None`, else its frames — recorded in `shipped`, cut to
    /// `cut % (len + 1)` bytes when given, and sent twice on `resend`.
    fn ship(
        leader: &mut XmlDb,
        node: &mut ReplicaNode,
        shipped: &mut BTreeMap<u64, Vec<u8>>,
        batch: Option<Vec<ShippedFrame>>,
        cut: Option<usize>,
        resend: bool,
    ) {
        let Some(frames) = batch else {
            let snap = leader.replication_snapshot().unwrap();
            let seq = node.install_snapshot(1, &snap.encode());
            assert_eq!(seq, Some(snap.seq), "snapshot refused");
            return;
        };
        let mut bytes: Vec<u8> = Vec::new();
        for f in &frames {
            shipped.insert(f.seq, f.bytes.clone());
            bytes.extend_from_slice(&f.bytes);
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let (acked, refused) = node.accept_frames(1, &bytes).unwrap();
        assert!(!refused);
        assert_eq!(acked, node.db.committed_seq());
        if resend {
            // a duplicated shipment changes nothing
            assert_eq!(node.accept_frames(1, &bytes), Some((acked, false)));
        }
    }

    proptest! {
        /// The follower's accept path against its leader: random loads and
        /// updates on a leader `XmlDb`, shipped as `committed_frames_after`
        /// batches from a random resend point at or below the follower's
        /// position, some cut mid-stream and some sent twice, plus one
        /// forced snapshot install. Small checkpoint thresholds interleave
        /// leader log gaps (snapshot resyncs) with follower checkpoints.
        /// Whenever the follower has caught up it mirrors the leader.
        #[test]
        fn follower_accept_path_mirrors_the_leader(
            ops in prop::collection::vec((0u8..5, 0usize..3, any::<u16>()), 4..40),
            snapshot_at in 0usize..4,
        ) {
            let cfg = DurabilityConfig {
                group_commit: 1,
                checkpoint_threshold: 768,
            };
            let mut leader = XmlDb::durable(VirtualDisk::new(), cfg);
            let fdisk = VirtualDisk::new();
            let stats = Rc::new(RefCell::new(ReplicationStats::default()));
            let topology = Topology::new(Router::new(1, 3));
            let db = XmlDb::durable(fdisk.clone(), cfg);
            let mut node = ReplicaNode::new(0, 0, db, &topology, &stats);
            // every frame ever shipped, by sequence: the leader's own log
            // loses them to its checkpoints
            let mut shipped: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let docs = ["a.xml", "b.xml", "c.xml"];
            for (step, &(kind, doc, n)) in ops.iter().enumerate() {
                let uri = docs[doc];
                let _ = match kind {
                    0 => leader
                        .load(uri, &format!("<r n=\"{n}\"><v>{n}</v></r>"))
                        .map(|_| String::new()),
                    1 => leader.query(&format!(
                        "insert node <m k=\"{n}\"/> into doc('{uri}')/r"
                    )),
                    2 => leader.query(&format!(
                        "replace value of node doc('{uri}')//v with 'x{n}'"
                    )),
                    3 => leader.query(&format!("delete node (doc('{uri}')//m)[1]")),
                    _ => leader.query(&format!(
                        "for $m in doc('{uri}')//m return insert node <c/> into $m"
                    )),
                };
                // ship once from a resend point up to three frames back
                let applied = node.db.appended_seq();
                let after = applied.saturating_sub(u64::from(n % 4));
                let batch = match step == snapshot_at {
                    true => None,
                    false => leader.committed_frames_after(after),
                };
                let cut = (n % 3 == 0).then_some(usize::from(n));
                ship(&mut leader, &mut node, &mut shipped, batch, cut, n % 5 == 0);
                if n % 2 == 1 {
                    continue; // stay behind: the leader may checkpoint past us
                }
                while node.db.appended_seq() < leader.committed_seq() {
                    let batch = leader.committed_frames_after(node.db.appended_seq());
                    ship(&mut leader, &mut node, &mut shipped, batch, None, false);
                }
                // caught up: memory, digests, log and recovery all agree
                prop_assert_eq!(node.db.appended_seq(), leader.committed_seq());
                prop_assert_eq!(node.db.committed_seq(), node.db.appended_seq());
                prop_assert_eq!(node.db.dump(), leader.dump(), "step {}", step);
                prop_assert_eq!(node.db.recorded_digests(), leader.recorded_digests());
                let ckpt_seq = Checkpoint::read_latest(&fdisk).map_or(0, |c| c.seq);
                let mut want = Vec::new();
                for seq in ckpt_seq + 1..=node.db.appended_seq() {
                    want.extend_from_slice(&shipped[&seq]);
                }
                prop_assert_eq!(fdisk.read(WAL_FILE).unwrap_or_default(), want);
                let recovered = XmlDb::recover(fdisk.clone_image(), cfg).unwrap();
                prop_assert_eq!(recovered.dump(), node.db.dump());
                prop_assert_eq!(recovered.committed_seq(), node.db.committed_seq());
            }
        }
    }

    #[test]
    fn follower_reads_carry_replica_and_lag_headers() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, _) = c.quiesce(0);
        let done = match c.submit(&doc_url("d1.xml"), 500) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(done.outcome, ClusterOutcome::FollowerRead);
        assert_eq!(done.response.status, 200);
        assert!(done.response.header("X-XQIB-Replica").is_some());
        assert_eq!(done.response.header("X-XQIB-Replica-Lag"), Some("0"));
        assert!(c.stats().follower_reads > 0);
    }

    #[test]
    fn blackout_doc_reads_degrade_to_the_most_caught_up_follower() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        c.crash_leader(0, now + 1);
        // before failover completes, a doc read still gets a stale body
        let done = match c.submit(&doc_url("d2.xml"), now + 2) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("doc reads cannot pend"),
        };
        assert_eq!(done.outcome, ClusterOutcome::DegradedRead);
        assert_eq!(done.response.status, 200);
        assert_eq!(done.response.header("X-XQIB-Degraded"), Some("no-leader"));
        // but an update during the blackout is refused
        let refused = match c.submit(&update_url("d2.xml", "nope"), now + 3) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("no leader to pend on"),
        };
        assert_eq!(refused.outcome, ClusterOutcome::NoLeader);
        assert_eq!(refused.response.status, 503);
    }

    #[test]
    fn lost_replies_and_truncated_shipments_still_converge() {
        let mut cfg = ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 2,
            ship_truncate_permille: 250,
            ..ClusterConfig::default()
        };
        cfg.repl_fault = Some(FaultPlan::seeded(0).with_reply_lost_permille(200));
        let mut c = seeded(cfg);
        let mut now = 0;
        let mut ids = Vec::new();
        for i in 0..10 {
            match c.submit(&update_url("d3.xml", &format!("t{i}")), now) {
                Submitted::Pending(id) => ids.push(id),
                Submitted::Done(d) => assert_eq!(d.outcome, ClusterOutcome::AckedUpdate),
            }
            now += 3;
        }
        let (_, done) = c.quiesce(now);
        for d in &done {
            assert_eq!(
                d.outcome,
                ClusterOutcome::AckedUpdate,
                "update should ack despite lost replies: {d:?}"
            );
        }
        assert_eq!(done.len(), ids.len());
        // both followers hold every marker, byte-for-byte the same doc
        let leader_xml = c.serialize("d3.xml").unwrap();
        for slot in 0..3 {
            if slot == c.leader_seat(0) {
                continue;
            }
            let guard = c.shards[0].seats[slot].replica.borrow();
            let xml = guard.as_ref().unwrap().db.serialize("d3.xml").unwrap();
            assert_eq!(xml, leader_xml, "follower {slot} diverged");
        }
        // shipped counts only frames whose bytes survived the in-flight
        // cut, so every per-seat ack maps to a counted shipment
        let stats = c.stats();
        assert!(stats.frames_acked <= stats.frames_shipped);
        assert!(stats.frames_retried <= stats.frames_shipped);
        assert!(
            stats.frames_retried > 0,
            "chaos config must exercise resends"
        );
    }

    #[test]
    fn snapshot_resync_catches_up_a_follower_behind_a_checkpoint() {
        let mut cfg = ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 0,
            ..ClusterConfig::default()
        };
        // tiny leader checkpoint threshold: the log truncates constantly
        cfg.durability.checkpoint_threshold = 64;
        // keep the follower dark while the leader churns
        let mut c = seeded(cfg);
        c.partition(0, 1, 0, 5_000);
        let mut now = 0;
        for i in 0..12 {
            match c.submit(&update_url("d4.xml", &format!("s{i}")), now) {
                Submitted::Done(d) => assert_eq!(d.outcome, ClusterOutcome::AckedUpdate),
                Submitted::Pending(_) => panic!("ack_replicas=0 acks synchronously"),
            }
            now += 5;
        }
        let (_, _) = c.quiesce(5_100);
        assert!(
            c.stats().snapshots_shipped > 0,
            "resync must ship a snapshot"
        );
        let guard = c.shards[0].seats[1].replica.borrow();
        let xml = guard.as_ref().unwrap().db.serialize("d4.xml").unwrap();
        for i in 0..12 {
            assert!(
                xml.contains(&format!("s{i}")),
                "follower missing s{i}: {xml}"
            );
        }
    }

    #[test]
    fn identical_seeds_produce_identical_replication_stats() {
        let run = || {
            let mut cfg = ClusterConfig {
                shards: 2,
                followers: 1,
                ack_replicas: 1,
                ship_truncate_permille: 150,
                ..ClusterConfig::default()
            };
            cfg.repl_fault = Some(FaultPlan::seeded(0).with_reply_lost_permille(100));
            let mut c = seeded(cfg);
            let mut now = 0;
            let mut done = Vec::new();
            for i in 0..12 {
                let uri = format!("d{}.xml", i % 6);
                match c.submit(&update_url(&uri, &format!("det{i}")), now) {
                    Submitted::Done(d) => done.push(*d),
                    Submitted::Pending(_) => {}
                }
                now += 7;
            }
            c.crash_leader_at(now + 10, 0);
            let (_, rest) = c.quiesce(now);
            done.extend(rest);
            (done, c.stats())
        };
        let (a_done, a_stats) = run();
        let (b_done, b_stats) = run();
        assert_eq!(a_stats, b_stats, "stats must be bit-identical per seed");
        assert_eq!(a_done, b_done, "completions must be bit-identical per seed");
    }
}
