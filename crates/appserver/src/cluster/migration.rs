//! When a document moves, and how: the two-phase migration a ring change
//! plans for every document it claims elsewhere — a snapshot copy to the
//! destination leader, then, after the copy window, an integrity check, the
//! WAL-tail forward and the cutover fence — plus the drain that retires a
//! decommissioned shard once nothing is homed on it.

use xqib_storage::{content_digest, IntegrityError};

use super::Cluster;

/// Copy-phase window of a document migration, virtual ms: how long the
/// source keeps serving (accumulating a WAL tail) after the snapshot lands
/// at the destination, before tail-forwarding and cutover.
const MIGRATION_COPY_MS: u64 = 40;

/// Cumulative resharding counters, reported on the cluster's `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReshardStats {
    /// Ring installs (add, decommission, rebalance) — each bumps the epoch.
    pub epoch_bumps: u64,
    /// Per-document migrations that entered the copy phase.
    pub migrations_started: u64,
    /// Migrations that reached cutover.
    pub migrations_completed: u64,
    /// Copy phases abandoned: destination rot forced a re-copy, or a ring
    /// change retargeted the document mid-flight.
    pub migrations_aborted: u64,
    /// Documents whose home moved to a new shard.
    pub docs_moved: u64,
    /// Committed WAL records the source accepted during a copy window and
    /// forwarded to the destination before cutover.
    pub tail_frames_forwarded: u64,
    /// Fences stamped at cutover (source starts refusing with 421 + epoch).
    pub cutover_fences: u64,
    /// Decommissioned shards fully drained and retired.
    pub drains: u64,
}

impl ReshardStats {
    /// Every counter under its `/metrics` element name, in report order.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        let ReshardStats {
            epoch_bumps,
            migrations_started,
            migrations_completed,
            migrations_aborted,
            docs_moved,
            tail_frames_forwarded,
            cutover_fences,
            drains,
        } = *self;
        [
            ("reshard-epoch-bumps", epoch_bumps),
            ("reshard-migrations-started", migrations_started),
            ("reshard-migrations-completed", migrations_completed),
            ("reshard-migrations-aborted", migrations_aborted),
            ("reshard-docs-moved", docs_moved),
            ("reshard-tail-frames-forwarded", tail_frames_forwarded),
            ("reshard-cutover-fences", cutover_fences),
            ("reshard-drains", drains),
        ]
    }
}

/// One in-flight two-phase document migration.
#[derive(Debug, Clone)]
pub(super) struct Migration {
    uri: String,
    from: usize,
    to: usize,
    phase: MigrationPhase,
}

#[derive(Debug, Clone)]
enum MigrationPhase {
    /// Waiting for live leaders on both ends to start the copy.
    Pending,
    /// Snapshot installed at the destination; the source keeps serving
    /// until `done_at`, then the tail is forwarded and the fence stamped.
    Copying {
        done_at: u64,
        base_seq: u64,
        copy_digest: u64,
    },
}

/// Outcome of one cutover attempt.
enum CutoverStep {
    /// Fence stamped; the migration is finished.
    Done,
    /// Destination integrity failed — restart the copy phase.
    Recopy,
    /// A needed leader is missing, or the destination copy is not yet
    /// follower-durable; try again next tick.
    Wait,
    /// The source accepted updates during the copy window: the refreshed
    /// snapshot was re-installed at the destination and must replicate
    /// there before the fence is considered again.
    Forwarded {
        base_seq: u64,
        copy_digest: u64,
        tail: u64,
    },
}

impl Cluster {
    /// Cumulative resharding counters.
    pub fn reshard_stats(&self) -> ReshardStats {
        self.rstats.clone()
    }

    /// Document migrations currently in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Whether a shard has been decommissioned, drained and shut down.
    pub fn is_retired(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|sh| sh.retired)
    }

    /// Whether a shard is draining toward retirement.
    pub fn is_draining(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|sh| sh.draining)
    }

    /// Reconciles the migration queue against the freshly installed ring:
    /// in-flight migrations whose destination the new ring disagrees with
    /// are aborted (their copies stay resident, harmlessly), and every
    /// homed document the ring wants elsewhere gets a migration.
    pub(super) fn plan_migrations(&mut self, _now: u64) {
        let mut i = 0;
        while i < self.migrations.len() {
            let keep = {
                let m = &self.migrations[i];
                self.topology.ring_owner(&m.uri) == m.to
            };
            if keep {
                i += 1;
            } else {
                self.migrations.remove(i);
                self.rstats.migrations_aborted += 1;
            }
        }
        for (uri, home) in self.topology.homes() {
            if self.shards[home].retired {
                continue; // already moved; stale schedule entry
            }
            let want = self.topology.ring_owner(&uri);
            if want == home || self.shards[want].retired {
                continue;
            }
            if self.migrations.iter().any(|m| m.uri == uri) {
                continue;
            }
            self.migrations.push(Migration {
                uri,
                from: home,
                to: want,
                phase: MigrationPhase::Pending,
            });
        }
    }

    /// Drives every in-flight migration one step. Each step needs live
    /// leaders on both ends — a crash mid-migration simply pauses the
    /// document until failover supplies a leader again.
    pub(super) fn drive_migrations(&mut self, now: u64) {
        let mut finished: Vec<usize> = Vec::new();
        for mi in 0..self.migrations.len() {
            let (uri, from, to, phase) = {
                let m = &self.migrations[mi];
                (m.uri.clone(), m.from, m.to, m.phase.clone())
            };
            match phase {
                MigrationPhase::Pending => {
                    // A home pin can outlive the bytes: a pre-migration
                    // failover may have promoted a follower that never
                    // replicated the document. Such a move is vacuous —
                    // nothing to copy, so the pin just flips at a fresh
                    // epoch and the ring converges instead of waiting
                    // forever for a snapshot that cannot exist.
                    let src_empty = match self.shards[from].leader.as_mut() {
                        Some(l) => {
                            let _ = l.db.commit();
                            l.db.serialize(&uri).is_none()
                        }
                        None => false,
                    };
                    if src_empty {
                        let _ = self.topology.cutover(&uri, to);
                        self.rstats.cutover_fences += 1;
                        self.rstats.migrations_completed += 1;
                        finished.push(mi);
                    } else if let Some(next) = self.start_copy(&uri, from, to, now) {
                        self.migrations[mi].phase = next;
                    }
                }
                MigrationPhase::Copying {
                    done_at,
                    base_seq,
                    copy_digest,
                } => {
                    if now < done_at {
                        continue;
                    }
                    match self.try_cutover(&uri, from, to, base_seq, copy_digest) {
                        CutoverStep::Done => finished.push(mi),
                        CutoverStep::Recopy => {
                            self.rstats.migrations_aborted += 1;
                            self.migrations[mi].phase = MigrationPhase::Pending;
                        }
                        CutoverStep::Wait => {}
                        CutoverStep::Forwarded {
                            base_seq,
                            copy_digest,
                            tail,
                        } => {
                            self.rstats.tail_frames_forwarded += tail;
                            // a forwarded tail is a fresh copy: it pays the
                            // same settle delay before the next fence check,
                            // so a hot document is re-checked per copy
                            // window, not per tick
                            self.migrations[mi].phase = MigrationPhase::Copying {
                                done_at: now + MIGRATION_COPY_MS,
                                base_seq,
                                copy_digest,
                            };
                        }
                    }
                }
            }
        }
        for mi in finished.into_iter().rev() {
            self.migrations.remove(mi);
        }
        self.retire_drained(now);
    }

    /// Phase 1: snapshot the document at the source and install it at the
    /// destination leader (journaled like any load, so the destination's
    /// followers replicate it over the ordinary WAL-shipping path). The
    /// source keeps serving throughout.
    fn start_copy(
        &mut self,
        uri: &str,
        from: usize,
        to: usize,
        now: u64,
    ) -> Option<MigrationPhase> {
        if self.shards[from].leader.is_none() || self.shards[to].leader.is_none() {
            return None; // wait for failover to supply leaders
        }
        let (xml, base_seq) = {
            let leader = self.shards[from].leader.as_mut()?;
            let _ = leader.db.commit();
            let xml = leader.db.serialize(uri)?;
            (xml, leader.db.committed_seq())
        };
        let copy_digest = content_digest(uri, &xml);
        // the destination is a legitimate resident from here on, so its
        // followers accept the shipped frames
        self.topology.begin_copy(uri, to);
        {
            let leader = self.shards[to].leader.as_mut()?;
            leader.db.load(uri, &xml).ok()?;
            let _ = leader.db.commit();
        }
        self.rstats.migrations_started += 1;
        Some(MigrationPhase::Copying {
            done_at: now + MIGRATION_COPY_MS,
            base_seq,
            copy_digest,
        })
    }

    /// Phase 2: integrity-check the destination copy, forward the WAL tail
    /// the source accepted during the window, and stamp the fence — the
    /// home pin flips to the destination in the same tick, so no two
    /// shards ever accept updates for the document in one epoch.
    fn try_cutover(
        &mut self,
        uri: &str,
        from: usize,
        to: usize,
        base_seq: u64,
        copy_digest: u64,
    ) -> CutoverStep {
        if self.shards[from].leader.is_none() || self.shards[to].leader.is_none() {
            return CutoverStep::Wait;
        }
        // Destination integrity cross-check (migration × scrubber).
        // Latent rot on the destination mid-copy — WAL mid-prefix damage,
        // a digest mismatch against the journal-time seal, or a divergent
        // content digest — forces a clean re-copy, never a rotten cutover.
        // A torn WAL *tail* is the legal crash shape and does not count.
        let rotten = {
            let Some(dest) = self.shards[to].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            let wal_rot = matches!(
                dest.db.wal_integrity(),
                Some(IntegrityError::WalCorruption { .. })
            );
            let body_ok = matches!(dest.db.verified_serialize(uri), Ok(Some(_)));
            let digest_ok = dest.db.digest_of(uri) == Some(copy_digest);
            wal_rot || !body_ok || !digest_ok
        };
        if rotten {
            // supersede the damaged bytes from intact memory, then re-copy
            if let Some(dest) = self.shards[to].leader.as_mut() {
                let _ = dest.db.checkpoint();
            }
            return CutoverStep::Recopy;
        }
        // Forward the tail: updates the source accepted during the copy
        // window. The snapshot re-install is idempotent — the final bytes
        // land whether the tail was one record or a hundred — but it is
        // only the destination *leader's* state so far, so the fence must
        // wait until the forwarded copy has replicated there too.
        let src_view = {
            let Some(src) = self.shards[from].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            let _ = src.db.commit();
            src.db.serialize(uri).map(|xml| {
                let tail = src.db.tail_records_touching(uri, base_seq);
                (xml, src.db.committed_seq(), tail)
            })
        };
        let Some((final_xml, new_base, tail)) = src_view else {
            // The source durably lost the document mid-copy — a failover
            // promoted a follower that never replicated it. There is no
            // tail left to forward; the destination's intact copy is the
            // best surviving state, so fence to it once it is durable
            // rather than waiting forever for bytes that no longer exist.
            return self.fence(uri, to);
        };
        let final_digest = content_digest(uri, &final_xml);
        if final_digest != copy_digest {
            let Some(dest) = self.shards[to].leader.as_mut() else {
                return CutoverStep::Wait;
            };
            if dest.db.load(uri, &final_xml).is_err() {
                return CutoverStep::Recopy;
            }
            let _ = dest.db.commit();
            return CutoverStep::Forwarded {
                base_seq: new_base,
                copy_digest: final_digest,
                tail,
            };
        }
        self.fence(uri, to)
    }

    /// Stamps the cutover fence once the destination copy is as durable as
    /// an acked update: the ack-rule quorum of destination followers has to
    /// hold it before the source may stop being the home. Otherwise a
    /// destination-leader crash right after cutover would promote a
    /// follower that never saw the document — losing updates that were
    /// acked (durably!) back on the source. The fence itself flips routing,
    /// bumps the epoch and makes the source refuse with 421 + the new
    /// epoch, atomically in this tick.
    fn fence(&mut self, uri: &str, to: usize) -> CutoverStep {
        let sh = &self.shards[to];
        if !sh
            .committed()
            .is_some_and(|c| sh.acked(c, self.cfg.ack_replicas))
        {
            return CutoverStep::Wait;
        }
        let _ = self.topology.cutover(uri, to);
        self.rstats.docs_moved += 1;
        self.rstats.cutover_fences += 1;
        self.rstats.migrations_completed += 1;
        CutoverStep::Done
    }

    /// Retires draining shards that no longer home any document and have
    /// no in-flight migration or pending update: leadership and every
    /// follower seat shut down; the shard refuses everything with 421.
    fn retire_drained(&mut self, _now: u64) {
        for s in 0..self.shards.len() {
            if !self.shards[s].draining || self.shards[s].retired {
                continue;
            }
            if self.topology.homes().iter().any(|(_, h)| *h == s) {
                continue;
            }
            if self.migrations.iter().any(|m| m.from == s) {
                continue;
            }
            if !self.shards[s].pending.is_empty() {
                continue;
            }
            let sh = &mut self.shards[s];
            sh.retired = true;
            sh.leader = None;
            sh.leaderless_since = None;
            for seat in &mut sh.seats {
                *seat.replica.borrow_mut() = None;
            }
            self.rstats.drains += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::{doc_url, marked, put_marker, update_url};
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterOutcome, Submitted};

    #[test]
    fn add_shard_migrates_documents_and_fences_stale_routes() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let owners_before: Vec<usize> = markers.iter().map(|(u, _)| c.owner(u)).collect();
        let epoch_before = c.epoch();

        let new_shard = c.add_shard(now);
        assert_eq!(new_shard, 2);
        assert_eq!(
            c.epoch(),
            epoch_before + 1,
            "ring install must bump the epoch"
        );
        assert!(
            c.migrations_in_flight() > 0,
            "the new ring must claim documents"
        );
        let (settled, _) = c.quiesce(now);

        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "no document migrated to the new shard");
        assert_eq!(rs.migrations_completed, rs.docs_moved);
        assert_eq!(c.migrations_in_flight(), 0);
        let mut moved = 0;
        for ((uri, marker), before) in markers.iter().zip(&owners_before) {
            let owner = c.owner(uri);
            assert!(
                c.contains(uri, marker),
                "acked marker {marker} lost while resharding {uri}"
            );
            if owner == *before {
                continue;
            }
            moved += 1;
            assert_eq!(
                owner, new_shard,
                "documents can only move to the joining shard"
            );
            // the stale route hits the old owner's fence: 421 plus the
            // pointers a client needs to re-resolve
            let done = match c.serve_at(*before, &doc_url(uri), settled) {
                Submitted::Done(d) => d,
                Submitted::Pending(_) => panic!("fence cannot pend"),
            };
            assert_eq!(done.response.status, 421);
            assert_eq!(done.outcome, ClusterOutcome::Misrouted);
            assert_eq!(
                done.response.header("X-XQIB-Owner"),
                Some(new_shard.to_string().as_str())
            );
            assert_eq!(
                done.response.header("X-XQIB-Epoch"),
                Some(c.epoch().to_string().as_str())
            );
            // and the routed path serves the moved document fine
            let ok = match c.submit(&doc_url(uri), settled) {
                Submitted::Done(d) => d,
                Submitted::Pending(_) => panic!("doc reads cannot pend"),
            };
            assert_eq!(ok.response.status, 200);
        }
        assert_eq!(moved as u64, rs.docs_moved);
        // a moved document accepts updates at its new home
        let moved_uri = markers
            .iter()
            .zip(&owners_before)
            .find(|((u, _), b)| c.owner(u) != **b)
            .map(|((u, _), _)| u.clone())
            .unwrap();
        let _ = put_marker(&mut c, &moved_uri, "after-move", settled + 1);
        assert!(c.contains(&moved_uri, "after-move"));
    }

    #[test]
    fn writes_during_a_copy_window_are_forwarded_at_cutover() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        for i in 0..12 {
            c.load(&format!("m{i}.xml"), &format!("<root n=\"{i}\"/>"))
                .unwrap();
        }
        c.add_shard(0);
        // writes keep landing while documents are in flight, so some copies
        // are re-installed with the forwarded tail
        let mut now = 0;
        while c.migrations_in_flight() > 0 {
            if now % 20 == 0 {
                let uri = format!("m{}.xml", now / 20 % 12);
                let _ = c.submit(&update_url(&uri, &format!("t{now}")), now);
            }
            now += 1;
            c.advance(now);
            assert!(now < 100_000, "migrations never settled");
        }
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "nothing migrated");
        assert!(rs.tail_frames_forwarded > 0, "no copy was re-installed");
    }

    #[test]
    fn decommission_drains_documents_and_retires_the_seats() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 3,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let homed_on_1 = markers.iter().filter(|(u, _)| c.owner(u) == 1).count();
        assert!(
            homed_on_1 > 0,
            "seed must home documents on the leaving shard"
        );

        assert!(c.decommission_shard(1, now));
        assert!(c.is_draining(1));
        assert!(
            !c.decommission_shard(1, now),
            "double decommission must refuse"
        );
        let (settled, _) = c.quiesce(now);

        assert!(c.is_retired(1), "drained shard must retire");
        let rs = c.reshard_stats();
        assert_eq!(rs.drains, 1);
        assert!(rs.docs_moved as usize >= homed_on_1);
        for (uri, marker) in &markers {
            assert_ne!(c.owner(uri), 1, "{uri} still routed to the retired shard");
            assert!(
                c.contains(uri, marker),
                "acked marker {marker} lost draining {uri}"
            );
        }
        // the retired shard refuses everything with the fence
        let done = match c.serve_at(1, &doc_url(&markers[0].0), settled) {
            Submitted::Done(d) => d,
            Submitted::Pending(_) => panic!("fence cannot pend"),
        };
        assert_eq!(done.response.status, 421);
        // and a retired shard never blocks quiescence
        let (_, _) = c.quiesce(settled);
    }

    #[test]
    fn rebalance_moves_keys_without_losing_acked_updates() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 3,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        c.rebalance(7, now);
        assert_eq!(c.epoch(), 1);
        let (_, _) = c.quiesce(now);
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0, "a reseeded ring must move some keys");
        for (uri, marker) in &markers {
            assert!(
                c.contains(uri, marker),
                "{marker} lost in rebalance of {uri}"
            );
        }
    }

    #[test]
    fn leader_crash_mid_migration_pauses_until_failover_then_completes() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 2,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let new_shard = c.add_shard(now);
        // the destination loses its leader before any copy can start: every
        // migration to it parks until failover elects a replacement
        c.crash_leader(new_shard, now);
        let _ = c.advance(now + 1);
        assert!(c.migrations_in_flight() > 0);
        let (_, _) = c.quiesce(now + 1);
        assert!(
            c.has_leader(new_shard),
            "failover must restaff the destination"
        );
        assert_eq!(
            c.migrations_in_flight(),
            0,
            "migrations must finish after failover"
        );
        let rs = c.reshard_stats();
        assert!(rs.docs_moved > 0);
        for (uri, marker) in &markers {
            assert!(
                c.contains(uri, marker),
                "{marker} lost migrating {uri} across a destination crash"
            );
        }
    }

    /// Migration × scrubber: latent rot on the migration destination
    /// mid-copy is caught by the cutover digest cross-check; the cluster
    /// re-copies cleanly instead of cutting over to rot.
    #[test]
    fn rotten_destination_copy_is_recopied_never_cut_over() {
        let mut c = Cluster::new(ClusterConfig {
            seed: 42,
            shards: 2,
            followers: 1,
            ack_replicas: 1,
            scrub_interval_ms: 0, // isolate the migration's own cross-check
            ..ClusterConfig::default()
        });
        let (markers, now) = marked(&mut c, 24, 0);
        let dest = c.add_shard(now);
        // first tick starts the copies
        let _ = c.advance(now);
        let copying: Vec<String> = c
            .migrations
            .iter()
            .filter(|m| matches!(m.phase, MigrationPhase::Copying { .. }))
            .map(|m| m.uri.clone())
            .collect();
        assert!(!copying.is_empty(), "no copy started on the first tick");
        // silent rot between the destination's store and its seal, exactly
        // the divergence a digest cross-check exists to catch
        let poisoned = &copying[0];
        assert!(c.shards[dest]
            .leader
            .as_mut()
            .unwrap()
            .db
            .poison_recorded_digest(poisoned));
        let before = c.reshard_stats().migrations_aborted;
        let (_, _) = c.quiesce(now + 1);
        let rs = c.reshard_stats();
        assert!(
            rs.migrations_aborted > before,
            "rotten copy must abort and re-copy, not cut over: {rs:?}"
        );
        assert_eq!(c.migrations_in_flight(), 0);
        assert_eq!(
            c.owner(poisoned),
            dest,
            "re-copy must still complete the move"
        );
        for (uri, marker) in &markers {
            assert!(c.contains(uri, marker), "{marker} lost on {uri}");
        }
    }
}
