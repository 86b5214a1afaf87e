//! Who leads a shard after its leader is gone: crash and partition
//! injection, the probe rounds that gather a quorum of follower positions,
//! and the promotion of the `(term, acked)`-greatest follower — Raft's
//! election restriction — followed by the new term's log reset and the
//! failure of pending updates the new leader does not hold.

use std::cmp::Reverse;
use std::collections::VecDeque;

use xqib_browser::{FaultPlan, NetOutcome, Request};
use xqib_storage::mix64;

use super::replication::ReplicaNode;
use super::scrub::disk_verdicts;
use super::{parse_attr, take_due, Cluster, ClusterCompletion, ClusterOutcome};
use crate::server::{AppServer, ServerResponse};
use crate::xmldb::XmlDb;

/// Leaderless time before failover probing starts, virtual ms.
pub(crate) const FAILOVER_DETECT_MS: u64 = 150;
/// Delay between probe rounds while gathering the failover quorum, virtual
/// ms.
pub(super) const PROBE_RETRY_MS: u64 = 25;

impl Cluster {
    pub fn term(&self, shard: usize) -> u64 {
        self.shards[shard].term
    }

    pub fn leader_seat(&self, shard: usize) -> usize {
        self.shards[shard].leader_seat
    }

    pub fn has_leader(&self, shard: usize) -> bool {
        self.shards[shard].leader.is_some()
    }

    /// Schedules a leader crash; [`advance`](Self::advance) executes it.
    pub fn crash_leader_at(&mut self, at: u64, shard: usize) {
        self.crashes.push((at, shard));
        self.crashes.sort_unstable();
    }

    /// Executes every scheduled crash due at `now`.
    pub(super) fn crash_due(&mut self, now: u64) {
        for s in take_due(&mut self.crashes, now) {
            self.crash_leader(s, now);
        }
    }

    /// Crashes the shard's leader now: power-loss on its disk (torn
    /// unsynced tail), leadership vacated.
    pub fn crash_leader(&mut self, shard: usize, now: u64) {
        let sh = &mut self.shards[shard];
        if sh.leader.take().is_none() {
            return;
        }
        sh.seats[sh.leader_seat].disk.crash();
        sh.leaderless_since = Some(now);
        sh.next_probe_at = now + FAILOVER_DETECT_MS;
        sh.probed = vec![None; sh.seats.len()];
    }

    /// Partitions one follower link for `[from, to)` virtual ms.
    pub fn partition(&mut self, shard: usize, slot: usize, from: u64, to: u64) {
        let host = self.shards[shard].seats[slot].host.clone();
        let mut plan = self
            .cfg
            .repl_fault
            .clone()
            .unwrap_or_else(|| FaultPlan::seeded(0));
        plan.seed = mix64(self.cfg.seed ^ ((shard as u64) << 32) ^ slot as u64);
        plan.flaps.push((from, to));
        self.net.set_fault_plan(&host, plan);
    }

    pub(super) fn try_failover(&mut self, s: usize, now: u64, out: &mut Vec<ClusterCompletion>) {
        if self.shards[s].retired || self.shards[s].leader.is_some() {
            return;
        }
        let since = self.shards[s].leaderless_since.unwrap_or(now);
        if now < since + FAILOVER_DETECT_MS {
            return;
        }
        let follower_seats: Vec<usize> = self.shards[s]
            .seats
            .iter()
            .enumerate()
            .filter(|(_, seat)| seat.replica.borrow().is_some())
            .map(|(i, _)| i)
            .collect();
        if follower_seats.is_empty() {
            // leader-only shard: recover from the crashed disk itself
            let seat = self.shards[s].leader_seat;
            let disk = self.shards[s].seats[seat].disk.clone();
            match AppServer::recover(disk, self.cfg.durability) {
                Ok(server) => self.install_leader(s, seat, server, since, now, out),
                Err(_) => self.shards[s].next_probe_at = now + PROBE_RETRY_MS,
            }
            return;
        }
        // probe round: every follower we have not heard from yet
        if now >= self.shards[s].next_probe_at {
            for &i in &follower_seats {
                if self.shards[s].probed[i].is_some() {
                    continue;
                }
                let host = self.shards[s].seats[i].host.clone();
                self.stats.borrow_mut().probes += 1;
                let req = Request::get(&format!("http://{host}/replicate?probe=1"));
                if let NetOutcome::Reply { resp, .. } = self.net.fetch_at(&req, now) {
                    if resp.status == 200 {
                        if let (Some(term), Some(acked)) = (
                            parse_attr(&resp.body, "term"),
                            parse_attr(&resp.body, "acked"),
                        ) {
                            self.shards[s].probed[i] = Some((term, acked));
                        }
                    }
                }
            }
            self.shards[s].next_probe_at = now + PROBE_RETRY_MS;
        }
        // Quorum: any K − ack_replicas + 1 followers must include one that
        // holds every acked update (pigeonhole against the ack rule).
        let k = follower_seats.len();
        let quorum = k - self.cfg.ack_replicas.min(k) + 1;
        let heard: Vec<(usize, (u64, u64))> = follower_seats
            .iter()
            .filter_map(|&i| self.shards[s].probed[i].map(|ta| (i, ta)))
            .collect();
        if heard.len() < quorum {
            return;
        }
        // Raft's election restriction, lexicographic on (term, acked): a
        // longer log from a dead term must never beat a shorter one that
        // holds acked updates from a newer term. Ties go to the lowest seat.
        let win = heard
            .iter()
            .max_by_key(|&&(i, ta)| (ta, Reverse(i)))
            .map_or(follower_seats[0], |&(i, _)| i);
        // Promotion guard: the winner's disk may carry latent rot that
        // recovery would truncate at, silently dropping acked frames its
        // memory still holds — and rot on the log's last frames is
        // indistinguishable from an ordinary torn tail, so detection can
        // never be complete. A live follower's memory is always at least
        // as new as its disk (`applied >= acked`), so unconditionally
        // checkpoint from memory — truncating whatever the log carried —
        // before handing the disk to recovery.
        {
            let rep = self.shards[s].seats[win].replica.clone();
            let mut guard = rep.borrow_mut();
            if let Some(node) = guard.as_mut() {
                let (wal_rot, verdicts) = disk_verdicts(&node.db);
                if node.db.checkpoint_memory().is_ok() && (wal_rot || !verdicts.is_empty()) {
                    self.istats.promote_heals += 1;
                }
            }
        }
        let disk = self.shards[s].seats[win].disk.clone();
        match AppServer::recover(disk, self.cfg.durability) {
            Ok(server) => self.install_leader(s, win, server, since, now, out),
            Err(_) => {
                // damaged candidate: drop it and re-probe the rest
                self.shards[s].probed[win] = None;
                self.shards[s].next_probe_at = now + PROBE_RETRY_MS;
            }
        }
    }

    /// Seats `server` as shard `s`'s leader at seat `win`, demotes the old
    /// leader seat to a fresh follower, resets every surviving follower
    /// with a term-stamped snapshot, and fails pending updates the new
    /// leader does not have.
    fn install_leader(
        &mut self,
        s: usize,
        win: usize,
        server: AppServer,
        since: u64,
        now: u64,
        out: &mut Vec<ClusterCompletion>,
    ) {
        let committed = server.db.committed_seq();
        let sh = &mut self.shards[s];
        let old = sh.leader_seat;
        if old != win {
            // the crashed leader's seat rejoins as an empty follower and
            // resyncs over the wire like any straggler
            let oseat = &mut sh.seats[old];
            let db = XmlDb::durable(oseat.disk.clone(), self.cfg.durability);
            *oseat.replica.borrow_mut() =
                Some(ReplicaNode::new(s, 0, db, &self.topology, &self.stats));
            oseat.reset_link(now, false);
            *sh.seats[win].replica.borrow_mut() = None;
        }
        sh.leader_seat = win;
        sh.leader = Some(server);
        sh.term += 1;
        sh.leaderless_since = None;
        sh.probed = vec![None; sh.seats.len()];
        for (i, seat) in sh.seats.iter_mut().enumerate() {
            if i == win || i == old || seat.replica.borrow().is_none() {
                continue;
            }
            // new term asserts the new leader's log: snapshot reset wipes
            // any divergent un-acked suffix and fences the old term
            seat.reset_link(now, true);
        }
        {
            let mut st = self.stats.borrow_mut();
            st.failovers += 1;
            st.blackout_ms += now.saturating_sub(since);
        }
        // pending updates beyond the new leader's log are gone for good
        let mut keep = VecDeque::new();
        while let Some(p) = self.shards[s].pending.pop_front() {
            if p.seq > committed {
                let response = ServerResponse::new(
                    503,
                    "<error code=\"XQIB0016\">update lost in failover; retry</error>",
                )
                .with_header("Retry-After", "1");
                out.push(p.req.finish(now, ClusterOutcome::LostInFailover, response));
            } else {
                keep.push_back(p);
            }
        }
        self.shards[s].pending = keep;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::{await_update, seeded, update_url};
    use crate::cluster::{ClusterConfig, ClusterOutcome, Submitted};

    #[test]
    fn leader_only_cluster_acks_immediately_and_self_recovers() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        let done = match c.submit(&update_url("d0.xml", "solo"), 5) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("leader-only update should ack synchronously"),
        };
        assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
        c.crash_leader(0, 100);
        assert!(!c.has_leader(0));
        let (_, _) = c.quiesce(100);
        assert!(c.has_leader(0), "self-recovery should restore the leader");
        assert!(
            c.contains("d0.xml", "solo"),
            "acked update lost in self-recovery"
        );
        assert_eq!(c.stats().failovers, 1);
    }

    #[test]
    fn leader_crash_promotes_a_follower_and_keeps_every_acked_update() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let mut acked = Vec::new();
        let mut now = 0;
        for i in 0..8 {
            let marker = format!("m{i}");
            match c.submit(&update_url("d0.xml", &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
            acked.push(marker);
        }
        c.crash_leader(0, now);
        let (_, _) = c.quiesce(now);
        assert!(c.has_leader(0), "failover should elect a new leader");
        assert_ne!(c.leader_seat(0), 0, "a follower must have been promoted");
        assert_eq!(c.term(0), 2);
        for marker in &acked {
            assert!(
                c.contains("d0.xml", marker),
                "acked update {marker} lost across failover"
            );
        }
        assert_eq!(c.stats().failovers, 1);
        assert!(c.stats().blackout_ms > 0);
    }

    #[test]
    fn double_failover_is_idempotent_on_acked_state() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let mut now = 0;
        for round in 0..2 {
            let marker = format!("r{round}");
            match c.submit(&update_url("d0.xml", &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(_) => now += 1,
            }
            c.crash_leader(0, now);
            let (settled, _) = c.quiesce(now);
            now = settled + 1;
            assert!(c.has_leader(0), "round {round}: no leader after failover");
        }
        assert_eq!(c.term(0), 3);
        assert_eq!(c.stats().failovers, 2);
        for round in 0..2 {
            assert!(
                c.contains("d0.xml", &format!("r{round}")),
                "acked update r{round} lost after double failover"
            );
        }
    }

    #[test]
    fn stale_term_follower_with_longer_log_never_wins_failover() {
        // In term 1, follower B (seat 2) alone durably holds a tail of
        // updates the client never saw acked; term 2 then acks new updates
        // through the other seats while B is partitioned. When the term-2
        // leader crashes and B is heard again, promotion must weigh
        // (term, acked): promoting B on raw acked length would resurrect
        // the dead term-1 tail and drop the acked term-2 updates.
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 3,
            ack_replicas: 2,
            ..ClusterConfig::default()
        });
        // A = seat 1 dark for all of term 1, C = seat 3 dark only for the
        // un-acked tail, B = seat 2 dark from just before the first crash
        // until the second one
        c.partition(0, 1, 0, 500);
        c.partition(0, 3, 300, 650);
        c.partition(0, 2, 490, 900);
        let mut now = 10;
        for i in 0..3 {
            match c.submit(&update_url("d0.xml", &format!("m{i}")), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
        }
        assert!(now < 300, "acked phase must finish before C goes dark");
        // un-acked tail: only B receives e0..e2 (C dark, so 1 ack < 2)
        now = 310;
        for i in 0..3 {
            match c.submit(&update_url("d0.xml", &format!("e{i}")), now) {
                Submitted::Pending(_) => {}
                Submitted::Done(d) => panic!("tail update cannot ack: {:?}", d.outcome),
            }
            now += 5;
        }
        while now < 480 {
            let _ = c.advance(now);
            now += 5;
        }
        // every load/update journals a content-digest frame alongside its
        // redo record, so seqs advance by 2: 6 seed loads + 3 acked + 3
        // tail updates put B at 24; C stops at the acked prefix (18)
        assert_eq!(c.shards[0].seats[2].acked, 24, "B must hold the tail");
        assert_eq!(
            c.shards[0].seats[3].acked, 18,
            "C stops at the acked prefix"
        );
        // first failover: B is unheard, C (acked 9) beats A (acked 0)
        c.crash_leader(0, 500);
        now = 500;
        while !c.has_leader(0) && now < 900 {
            let _ = c.advance(now);
            now += 5;
        }
        assert!(c.has_leader(0), "first failover must complete");
        assert_eq!(c.leader_seat(0), 3, "most-caught-up heard follower wins");
        assert_eq!(c.term(0), 2);
        // term 2 acks two updates through seat 0 and A while B stays dark
        for i in 0..2 {
            match c.submit(&update_url("d0.xml", &format!("n{i}")), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(&mut c, id, now);
                    assert_eq!(done.outcome, ClusterOutcome::AckedUpdate);
                    now = at + 1;
                }
                Submitted::Done(d) => {
                    assert_eq!(d.outcome, ClusterOutcome::AckedUpdate);
                    now += 1;
                }
            }
        }
        assert!(now < 900, "term-2 acks must land before B heals");
        // second failover: B (term 1, acked 12) is heard alongside seats
        // at (term 2, acked 11) — the newer term wins despite less log
        c.crash_leader(0, 900);
        let (_, _) = c.quiesce(900);
        assert!(c.has_leader(0), "second failover must complete");
        assert_ne!(c.leader_seat(0), 2, "stale-term B must not be promoted");
        assert_eq!(c.term(0), 3);
        for marker in ["m0", "m1", "m2", "n0", "n1"] {
            assert!(c.contains("d0.xml", marker), "acked update {marker} lost");
        }
        for marker in ["e0", "e1", "e2"] {
            assert!(
                !c.contains("d0.xml", marker),
                "dead term-1 tail {marker} resurrected"
            );
        }
    }

    #[test]
    fn partition_extends_the_blackout_until_a_quorum_is_reachable() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 2,
            ..ClusterConfig::default()
        });
        let (now, _) = c.quiesce(0);
        // with ack_replicas = 2, quorum is 1 probe — partition BOTH
        // followers so no probe lands until the window closes
        c.partition(0, 1, now, now + 2_000);
        c.partition(0, 2, now, now + 2_000);
        c.crash_leader(0, now + 1);
        let mut t = now + 1;
        while t < now + 1_900 {
            let _ = c.advance(t);
            t += 10;
        }
        assert!(!c.has_leader(0), "partitioned shard must stay leaderless");
        let (_, _) = c.quiesce(now + 2_100);
        assert!(c.has_leader(0), "healed partition should allow promotion");
        let stats = c.stats();
        assert!(
            stats.blackout_ms >= 2_000,
            "blackout should span the partition: {}ms",
            stats.blackout_ms
        );
    }
}
