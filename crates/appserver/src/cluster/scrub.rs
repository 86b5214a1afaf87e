//! Whether a seat's bytes can be trusted: the anti-entropy scrubber probes
//! every seat's disk and cross-checks replica digests against the ones the
//! leader sealed at journal time, demotes a leader sitting on a rotten log,
//! and drives a follower's read-pool standing ([`SeatHealth`]) through
//! quarantine, repair and verified readmission.

use xqib_storage::{content_digest, IntegrityError};

use super::replication::ReplicaNode;
use super::{Cluster, FAILOVER_DETECT_MS};
use crate::xmldb::XmlDb;

/// How long a quarantined follower stays out of the read pool before
/// probation, virtual ms; readmission still requires its digests to match.
const QUARANTINE_MS: u64 = 400;

/// Typed verdicts for a seat's durable image: whether its WAL holds
/// mid-prefix damage (a torn tail is the expected crash shape, not
/// damage), and every corrupt checkpoint slot.
pub(super) fn disk_verdicts(db: &XmlDb) -> (bool, Vec<IntegrityError>) {
    let wal_rot = matches!(
        db.wal_integrity(),
        Some(IntegrityError::WalCorruption { .. })
    );
    (wal_rot, db.checkpoint_integrity())
}

/// Cumulative end-to-end integrity counters: latent decay observed, scrub
/// verdicts, quarantines and verified repairs, reported on the cluster's
/// `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Anti-entropy scrub cycles run across the cluster.
    pub scrub_cycles: u64,
    /// Per-document digest comparisons performed by the scrubber.
    pub scrub_docs_checked: u64,
    /// Replica documents whose content digest disagreed with the digest
    /// the leader recorded at journal time.
    pub scrub_digest_mismatches: u64,
    /// Mid-prefix WAL damage the scrubber found on a live node's disk
    /// (never a legal crash shape — latent rot or a replication fault).
    pub scrub_wal_corruptions: u64,
    /// Corrupt checkpoint slots the scrubber found.
    pub scrub_ckpt_corruptions: u64,
    /// Scrub passes that found every written checkpoint slot corrupt.
    pub scrub_ckpt_lost: u64,
    /// Followers pulled from the read pool over damage or divergence.
    pub quarantines: u64,
    /// Repairs begun (node-local re-checkpoint or full snapshot resync).
    pub repairs_started: u64,
    /// Quarantined followers readmitted to the read pool after their
    /// digests matched the leader's again.
    pub repairs_verified: u64,
    /// Leaders demoted for sitting on a damaged WAL; failover follows
    /// rather than ever serving bad bytes.
    pub leader_demotions: u64,
    /// Failover winners healed from intact memory before promotion, so
    /// recovery would not truncate acked state at a rotted frame.
    pub promote_heals: u64,
    /// Follower `/doc` bodies digest-verified before being served.
    pub reads_verified: u64,
    /// Follower `/doc` bodies refused (and the seat quarantined) over a
    /// digest mismatch.
    pub reads_refused: u64,
    /// Decay periods swept across every seat disk.
    pub decay_sweeps: u64,
    /// At-rest synced sectors hit by latent bit rot.
    pub sectors_decayed: u64,
}

impl IntegrityStats {
    /// Counts one scrub probe of a seat's durable image — leader or
    /// follower alike — and returns `(mid-prefix WAL rot, checkpoint-slot
    /// damage)`.
    fn count_disk_damage(&mut self, db: &XmlDb) -> (bool, bool) {
        let (wal_rot, verdicts) = disk_verdicts(db);
        if wal_rot {
            self.scrub_wal_corruptions += 1;
        }
        for v in &verdicts {
            match v {
                IntegrityError::CheckpointSlotCorrupt { .. } => self.scrub_ckpt_corruptions += 1,
                IntegrityError::AllCheckpointSlotsCorrupt => self.scrub_ckpt_lost += 1,
                _ => {}
            }
        }
        (wal_rot, !verdicts.is_empty())
    }

    /// Every counter under its `/metrics` element name, in report order.
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        let IntegrityStats {
            scrub_cycles,
            scrub_docs_checked,
            scrub_digest_mismatches,
            scrub_wal_corruptions,
            scrub_ckpt_corruptions,
            scrub_ckpt_lost,
            quarantines,
            repairs_started,
            repairs_verified,
            leader_demotions,
            promote_heals,
            reads_verified,
            reads_refused,
            decay_sweeps,
            sectors_decayed,
        } = *self;
        [
            ("scrub-cycles", scrub_cycles),
            ("scrub-docs-checked", scrub_docs_checked),
            ("scrub-digest-mismatches", scrub_digest_mismatches),
            ("scrub-wal-corruptions", scrub_wal_corruptions),
            ("scrub-ckpt-corruptions", scrub_ckpt_corruptions),
            ("scrub-ckpt-lost", scrub_ckpt_lost),
            ("integrity-quarantines", quarantines),
            ("integrity-repairs-started", repairs_started),
            ("integrity-repairs-verified", repairs_verified),
            ("integrity-leader-demotions", leader_demotions),
            ("integrity-promote-heals", promote_heals),
            ("integrity-reads-verified", reads_verified),
            ("integrity-reads-refused", reads_refused),
            ("decay-sweeps", decay_sweeps),
            ("decay-sectors", sectors_decayed),
        ]
    }
}

/// Read-pool standing of a follower seat — the same trip/cool-off/probe
/// shape as `xqib_browser::quarantine`, driven by the scrubber instead of
/// listener failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SeatHealth {
    /// In the read pool; digests clean as far as the scrubber knows.
    Healthy,
    /// Out of the read pool while a repair is in flight; stays out at
    /// least until the deadline even if it catches up sooner.
    Quarantined { until: u64 },
    /// Cool-off served; readmission waits on the scrubber verifying the
    /// seat is caught up with matching digests.
    Probation,
}

impl Cluster {
    /// Cluster-wide integrity counters; decay sweeps and rotted sectors
    /// are summed live from every seat disk's own stats.
    pub fn integrity_stats(&self) -> IntegrityStats {
        let mut st = self.istats.clone();
        for sh in &self.shards {
            for seat in &sh.seats {
                let ds = seat.disk.stats();
                st.decay_sweeps += ds.decay_sweeps;
                st.sectors_decayed += ds.sectors_decayed;
            }
        }
        st
    }

    /// Quarantines a follower seat over divergence and restarts it from
    /// nothing: files wiped, a fresh replica installed, and the leader
    /// forced to ship a full checkpoint snapshot (the ordinary straggler
    /// resync path). The seat re-enters the read pool only after the
    /// scrubber sees it caught up with matching digests.
    pub(super) fn quarantine_and_resync(&mut self, s: usize, i: usize, now: u64) {
        let seat = &mut self.shards[s].seats[i];
        let db = XmlDb::durable(seat.disk.clone(), self.cfg.durability);
        *seat.replica.borrow_mut() = Some(ReplicaNode::new(s, 0, db, &self.topology, &self.stats));
        seat.reset_link(now, true);
        seat.health = SeatHealth::Quarantined {
            until: now + QUARANTINE_MS,
        };
        self.istats.quarantines += 1;
        self.istats.repairs_started += 1;
    }

    /// One anti-entropy pass over every shard, once per scrub interval
    /// (never when the interval is `0`): probe the leader's own WAL and
    /// checkpoint slots, probe every follower's disk, cross-check replica
    /// digests against the leader's recorded digests, and drive the
    /// quarantine → repair → verified-readmission lifecycle.
    pub(super) fn scrub_due(&mut self, now: u64) {
        if self.cfg.scrub_interval_ms == 0 || now < self.next_scrub_at {
            return;
        }
        self.next_scrub_at = now + self.cfg.scrub_interval_ms;
        self.istats.scrub_cycles += 1;
        for s in 0..self.shards.len() {
            if self.shards[s].retired {
                continue;
            }
            self.scrub_shard(s, now);
        }
    }

    fn scrub_shard(&mut self, s: usize, now: u64) {
        // --- leader side -------------------------------------------------
        let istats = &mut self.istats;
        let leader_probe = self.shards[s]
            .leader
            .as_ref()
            .map(|l| istats.count_disk_damage(&l.db));
        if let Some((mid_prefix, slot_damage)) = leader_probe {
            if mid_prefix && self.shards[s].followers().next().is_some() {
                // The durable log under an otherwise-live leader is rotten.
                // Demote it and let the ordinary election promote a replica
                // whose bytes still verify, rather than ever serving or
                // shipping from damaged media. Unlike a crash, a voluntary
                // step-down must not shrink the candidate set: right after
                // a failover, acked state can exist on the leader alone
                // (follower acks are reset under the new term until their
                // snapshots land). So first supersede the rot with a
                // checkpoint from intact memory, then leave the seat behind
                // as a follower candidate carrying the full committed log —
                // the election restriction re-promotes it, or an equally
                // caught-up peer, with nothing lost. Backdating
                // `leaderless_since` makes the failover detector fire
                // immediately.
                let sh = &mut self.shards[s];
                if let Some(leader) = sh.leader.take() {
                    let mut db = leader.db;
                    let _ = db.checkpoint();
                    let seat = &mut sh.seats[sh.leader_seat];
                    *seat.replica.borrow_mut() = Some(ReplicaNode::new(
                        s,
                        sh.term,
                        db,
                        &self.topology,
                        &self.stats,
                    ));
                    seat.health = SeatHealth::Healthy;
                }
                sh.leaderless_since = Some(now.saturating_sub(FAILOVER_DETECT_MS));
                sh.next_probe_at = now;
                sh.probed = vec![None; sh.seats.len()];
                self.istats.leader_demotions += 1;
                return; // follower scrubbing resumes once a leader exists
            }
            if mid_prefix || slot_damage {
                // No quorum to hand off to (or only slot damage): rewrite
                // durable state from intact memory — checkpoint + truncate
                // supersede the damaged bytes.
                if let Some(leader) = self.shards[s].leader.as_mut() {
                    let _ = leader.db.checkpoint();
                }
            }
        }
        // --- follower side -----------------------------------------------
        let Some(leader) = self.shards[s].leader.as_ref() else {
            return;
        };
        let committed = leader.db.committed_seq();
        let digests = leader.db.recorded_digests();
        let leader_seat = self.shards[s].leader_seat;
        for i in 0..self.shards[s].seats.len() {
            if i == leader_seat {
                continue;
            }
            // lifecycle: a quarantine cool-off elapses into probation
            if let SeatHealth::Quarantined { until } = self.shards[s].seats[i].health {
                if now >= until {
                    self.shards[s].seats[i].health = SeatHealth::Probation;
                }
            }
            let rep = self.shards[s].seats[i].replica.clone();
            let mut guard = rep.borrow_mut();
            let Some(node) = guard.as_mut() else {
                continue;
            };
            // own-disk probe: typed damage self-heals from intact memory
            // (every applied frame was CRC-checked on arrival), so a fresh
            // checkpoint supersedes the rot without losing acked state
            let (wal_rot, slot_damage) = self.istats.count_disk_damage(&node.db);
            if wal_rot || slot_damage {
                let _ = node.db.checkpoint_memory();
                self.istats.repairs_started += 1;
                if self.shards[s].seats[i].health == SeatHealth::Healthy {
                    self.shards[s].seats[i].health = SeatHealth::Quarantined {
                        until: now + QUARANTINE_MS,
                    };
                    self.istats.quarantines += 1;
                }
            }
            // digest cross-check: only meaningful when the replica claims
            // to hold the leader's whole committed log — a lagged replica
            // is old, not wrong
            let caught_up = node.db.appended_seq() >= committed;
            let mut diverged = false;
            if caught_up {
                for (uri, want) in &digests {
                    self.istats.scrub_docs_checked += 1;
                    let got = node.db.serialize(uri).map(|xml| content_digest(uri, &xml));
                    if got != Some(*want) {
                        self.istats.scrub_digest_mismatches += 1;
                        diverged = true;
                    }
                }
            }
            drop(guard);
            if diverged {
                // divergence means this replica's *memory* can no longer be
                // trusted: wipe and resync from a leader snapshot
                self.quarantine_and_resync(s, i, now);
                continue;
            }
            // probation → healthy only once caught up with clean digests
            if self.shards[s].seats[i].health == SeatHealth::Probation
                && caught_up
                && self.shards[s].seats[i].acked >= committed
            {
                self.shards[s].seats[i].health = SeatHealth::Healthy;
                self.istats.repairs_verified += 1;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::{await_update, doc_url, seeded, update_url};
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterOutcome, Submitted};
    use crate::xmldb::DurabilityConfig;
    use xqib_storage::{VirtualDisk, WAL_FILE};

    /// Runs `n` sequential acked updates against `uri`, asserting each one
    /// reaches `AckedUpdate`; returns the markers and the time after the
    /// last ack.
    fn acked_markers(
        c: &mut Cluster,
        uri: &str,
        n: usize,
        mut now: u64,
        tag: &str,
    ) -> (Vec<String>, u64) {
        let mut acked = Vec::new();
        for i in 0..n {
            let marker = format!("{tag}{i}");
            match c.submit(&update_url(uri, &marker), now) {
                Submitted::Pending(id) => {
                    let (done, at) = await_update(c, id, now);
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
        (acked, now)
    }

    /// Advances the cluster tick by tick across `[from, to)`.
    fn drive(c: &mut Cluster, from: u64, to: u64) -> u64 {
        for t in from..to {
            let _ = c.advance(t);
        }
        to
    }

    /// Flips one payload byte of the first WAL frame on `disk`: with later
    /// frames behind it, the scan must classify this as mid-prefix CRC
    /// damage (an alarm), never as an ordinary torn tail.
    fn rot_first_frame(disk: &VirtualDisk) {
        let mut img = disk.read(WAL_FILE).expect("a journaled WAL to rot");
        // frame layout [len u32][crc u32][seq u64][tag u8][payload]: byte
        // 17 is the first payload byte
        img[17] ^= 0x01;
        disk.write_file(WAL_FILE, &img);
    }

    #[test]
    fn scrub_repairs_a_follower_with_mid_prefix_wal_rot() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 3, 10, "rot");
        let disk = c.shards[0].seats[1].disk.clone();
        rot_first_frame(&disk);
        {
            let rep = c.shards[0].seats[1].replica.borrow();
            let (rot, _) = disk_verdicts(&rep.as_ref().unwrap().db);
            assert!(rot, "the flip must read as mid-prefix WAL damage");
        }
        // the next scrub pass detects the rot, re-checkpoints the replica
        // from intact memory and pulls the seat out of the read pool
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + scrub + 2);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_wal_corruptions >= 1,
            "rot went undetected: {ist:?}"
        );
        assert!(ist.repairs_started >= 1);
        assert_eq!(ist.quarantines, 1);
        assert!(matches!(
            c.shards[0].seats[1].health,
            SeatHealth::Quarantined { .. }
        ));
        {
            let rep = c.shards[0].seats[1].replica.borrow();
            let (rot, verdicts) = disk_verdicts(&rep.as_ref().unwrap().db);
            assert!(
                !rot && verdicts.is_empty(),
                "the repair checkpoint must supersede the rot"
            );
        }
        // cool-off elapses into probation; the scrubber readmits the seat
        // only after seeing it caught up with matching digests
        let end = now + QUARANTINE_MS + 2 * scrub + 10;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
    }

    #[test]
    fn a_divergent_follower_is_wiped_resynced_and_readmitted() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (acked, now) = acked_markers(&mut c, "d0.xml", 2, 10, "div");
        {
            let rep = c.shards[0].seats[1].replica.clone();
            let mut guard = rep.borrow_mut();
            assert!(guard.as_mut().unwrap().poison_document("d0.xml"));
        }
        // disk and WAL digests are untouched — only the digest cross-check
        // against the leader's sealed digests can notice the divergence
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + scrub + 2);
        let ist = c.integrity_stats();
        assert!(
            ist.scrub_digest_mismatches >= 1,
            "divergence unseen: {ist:?}"
        );
        assert_eq!(ist.quarantines, 1);
        assert!(matches!(
            c.shards[0].seats[1].health,
            SeatHealth::Quarantined { .. }
        ));
        // the wiped seat resyncs from a leader snapshot, serves cool-off,
        // and is readmitted once its digests match again
        let end = now + QUARANTINE_MS + 3 * scrub;
        drive(&mut c, now, end);
        assert_eq!(c.shards[0].seats[1].health, SeatHealth::Healthy);
        assert!(c.integrity_stats().repairs_verified >= 1);
        let rep = c.shards[0].seats[1].replica.borrow();
        let xml = rep.as_ref().unwrap().db.serialize("d0.xml").unwrap();
        assert!(!xml.contains("rotted"), "poison survived the resync: {xml}");
        for m in &acked {
            assert!(xml.contains(m.as_str()), "resync lost acked {m}: {xml}");
        }
    }

    #[test]
    fn a_leader_on_rotted_wal_is_demoted_without_losing_acked_updates() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 2,
            ack_replicas: 1,
            // never checkpoint on its own: the damaged log must survive
            // until the scrubber looks at it
            durability: DurabilityConfig {
                group_commit: 1,
                checkpoint_threshold: 0,
            },
            ..ClusterConfig::default()
        });
        let (acked, now) = acked_markers(&mut c, "d0.xml", 4, 10, "dem");
        let seat = c.shards[0].leader_seat;
        rot_first_frame(&c.shards[0].seats[seat].disk.clone());
        // the next scrub pass steps the leader down rather than ever
        // serving or shipping from damaged media; the backdated failover
        // detector re-elects within the same housekeeping tick, with the
        // demoted seat still in the candidate set carrying its full log
        let scrub = c.cfg.scrub_interval_ms;
        let now = drive(&mut c, now, now + 2 * scrub + 2);
        let ist = c.integrity_stats();
        assert_eq!(ist.leader_demotions, 1, "rot must demote the leader");
        assert!(ist.scrub_wal_corruptions >= 1);
        assert!(c.has_leader(0), "demotion must end in a new election");
        assert_eq!(c.stats().failovers, 1);
        let (_, _) = c.quiesce(now);
        for m in &acked {
            assert!(c.contains("d0.xml", m), "acked {m} lost across demotion");
        }
    }

    #[test]
    fn a_poisoned_follower_read_is_refused_and_served_by_the_leader() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (_, now) = acked_markers(&mut c, "d0.xml", 1, 10, "rr");
        {
            let rep = c.shards[0].seats[1].replica.clone();
            let mut guard = rep.borrow_mut();
            assert!(guard.as_mut().unwrap().poison_document("d0.xml"));
        }
        // the follower is in-sync and healthy, so the read router picks it;
        // its body hashes wrong against the leader's sealed digest, so the
        // read is refused, the seat quarantined, and the leader serves
        let done = match c.submit(&doc_url("d0.xml"), now) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("reads cannot pend"),
        };
        assert_eq!(done.response.status, 200);
        assert_eq!(done.outcome, ClusterOutcome::Served, "leader fallback");
        assert!(
            done.response.body.contains("rr0"),
            "the verified body must carry the acked update: {}",
            done.response.body
        );
        assert!(
            !done.response.body.contains("rotted"),
            "a digest-mismatched body must never be served"
        );
        let ist = c.integrity_stats();
        assert_eq!(ist.reads_refused, 1);
        assert_eq!(ist.quarantines, 1);
    }
}
