//! Which shard owns a document: the consistent-hash ring, the epoch that
//! versions it, and the per-document home pins that keep routing still
//! while migrations are in flight. Every ring change goes through
//! [`Cluster::install_ring`], which bumps the epoch and hands the new ring
//! to the migration planner.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use xqib_storage::{fnv1a, mix64};

use super::{take_due, Cluster};

/// Consistent-hash ring mapping document URIs to shards. Every member
/// contributes `VNODES` seeded points; a URI belongs to the first point at
/// or after its own hash (wrapping). Deterministic in `(members, seed)`.
/// A member's points depend only on its own id, so growing the ring moves
/// the minimum: only the keys that land on the new member's arcs.
#[derive(Debug, Clone)]
pub struct Router {
    ring: Vec<(u64, usize)>,
    members: Vec<usize>,
}

/// Virtual points per member. Load imbalance of a random-point ring
/// scales as `1/sqrt(VNODES)` — 128 points keeps the max/min shard load
/// within 3× with wide margin for any realistic member count (the
/// ring-balance property test in `tests/reshard.rs` enforces this).
const VNODES: u64 = 128;

impl Router {
    pub fn new(shards: usize, seed: u64) -> Router {
        let members: Vec<usize> = (0..shards.max(1)).collect();
        Router::with_members(&members, seed)
    }

    /// A ring over an explicit member set — live topologies are sparse
    /// (a decommissioned shard's id never comes back).
    pub fn with_members(members: &[usize], seed: u64) -> Router {
        let mut members = members.to_vec();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            members.push(0);
        }
        let mut ring = Vec::with_capacity(members.len() * VNODES as usize);
        for &s in &members {
            for v in 0..VNODES {
                ring.push((mix64(seed ^ ((s as u64) << 20) ^ v), s));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|(h, _)| *h);
        Router { ring, members }
    }

    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// The shard ids participating in this ring, sorted.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shard that owns `uri`.
    pub fn owner(&self, uri: &str) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let h = mix64(fnv1a(uri.as_bytes()));
        let i = match self.ring.binary_search_by(|(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }
}

/// Monotonic version of the cluster's routing state. Bumped on every ring
/// change; surfaced in 421 fencing refusals so clients re-resolve.
pub type TopologyEpoch = u64;

/// A scheduled membership / ring operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChange {
    /// Grow the ring by one fresh shard (next free id).
    AddShard,
    /// Drain every document homed on this shard, then retire its seats.
    Decommission(usize),
    /// Reseed the ring over the same members (moves a salted subset of
    /// keys — the "hot shard" relief valve).
    Rebalance(u64),
}

/// Shared routing state: the ring, its epoch, and the per-document *home*
/// pins that keep routing stable while migrations are in flight. Cheap to
/// clone — all holders see every install and cutover instantly.
#[derive(Clone)]
pub(crate) struct Topology {
    state: Rc<RefCell<TopologyState>>,
}

struct TopologyState {
    router: Router,
    epoch: TopologyEpoch,
    /// Documents pinned to the shard currently serving them. Routing
    /// consults homes *before* the ring, so a ring install moves no
    /// traffic until the per-document cutover flips the pin.
    homes: BTreeMap<String, usize>,
    /// Every shard that has ever legitimately held a copy of the document.
    /// Grows monotonically: the store has no removal API, so source
    /// replicas and aborted-copy destinations keep the bytes and must keep
    /// accepting replication frames for them.
    resident: BTreeMap<String, Vec<usize>>,
}

impl TopologyState {
    /// Adds `shard` to the document's residents.
    fn add_resident(&mut self, uri: &str, shard: usize) {
        let res = self.resident.entry(uri.to_string()).or_default();
        if !res.contains(&shard) {
            res.push(shard);
        }
    }
}

impl Topology {
    pub(super) fn new(router: Router) -> Topology {
        Topology {
            state: Rc::new(RefCell::new(TopologyState {
                router,
                epoch: 0,
                homes: BTreeMap::new(),
                resident: BTreeMap::new(),
            })),
        }
    }

    pub(super) fn epoch(&self) -> TopologyEpoch {
        self.state.borrow().epoch
    }

    /// The shard a request for `uri` must go to *now*: its home pin if it
    /// has one, else the ring.
    pub(super) fn owner(&self, uri: &str) -> usize {
        let st = self.state.borrow();
        match st.homes.get(uri) {
            Some(&s) => s,
            None => st.router.owner(uri),
        }
    }

    /// Where the current ring says `uri` should eventually live.
    pub(super) fn ring_owner(&self, uri: &str) -> usize {
        self.state.borrow().router.owner(uri)
    }

    fn members(&self) -> Vec<usize> {
        self.state.borrow().router.members().to_vec()
    }

    /// Whether `shard` may hold/replicate `uri`: it is the home, or a
    /// past/under-copy resident.
    pub(super) fn replicable_at(&self, shard: usize, uri: &str) -> bool {
        let st = self.state.borrow();
        match st.homes.get(uri) {
            Some(&home) if home == shard => return true,
            None if st.router.owner(uri) == shard => return true,
            _ => {}
        }
        st.resident.get(uri).is_some_and(|r| r.contains(&shard))
    }

    /// Installs a new ring and bumps the epoch.
    fn install(&self, router: Router) -> TopologyEpoch {
        let mut st = self.state.borrow_mut();
        st.router = router;
        st.epoch += 1;
        st.epoch
    }

    /// Pins `uri` to the shard that loaded it.
    pub(super) fn note_home(&self, uri: &str, shard: usize) {
        let mut st = self.state.borrow_mut();
        st.homes.insert(uri.to_string(), shard);
        st.add_resident(uri, shard);
    }

    /// Marks `to` a legitimate resident while the copy runs.
    pub(super) fn begin_copy(&self, uri: &str, to: usize) {
        self.state.borrow_mut().add_resident(uri, to);
    }

    /// Atomic cutover: the home pin flips to `to` and the epoch bumps in
    /// one tick, so the source's acceptances (old epoch) and the
    /// destination's (new epoch) can never share an epoch. `from` stays
    /// resident (its replicas keep the bytes forever).
    pub(super) fn cutover(&self, uri: &str, to: usize) -> TopologyEpoch {
        let mut st = self.state.borrow_mut();
        st.homes.insert(uri.to_string(), to);
        st.add_resident(uri, to);
        st.epoch += 1;
        st.epoch
    }

    /// Snapshot of every document's current home, sorted by URI.
    pub(super) fn homes(&self) -> Vec<(String, usize)> {
        self.state
            .borrow()
            .homes
            .iter()
            .map(|(u, &s)| (u.clone(), s))
            .collect()
    }
}

impl Cluster {
    pub fn owner(&self, uri: &str) -> usize {
        self.topology.owner(uri)
    }

    /// Current topology epoch; bumped by every ring install.
    pub fn epoch(&self) -> TopologyEpoch {
        self.topology.epoch()
    }

    /// Schedules a topology change; [`advance`](Self::advance) applies it.
    pub fn schedule_topology(&mut self, at: u64, change: TopologyChange) {
        self.topo_schedule.push((at, change));
        self.topo_schedule.sort_by_key(|(t, _)| *t);
    }

    /// Grows the cluster by one fresh shard (next free id), installs a
    /// ring that includes it, and plans migrations for every document the
    /// new ring claims. Returns the new shard's id.
    pub fn add_shard(&mut self, now: u64) -> usize {
        let s = self.shards.len();
        let shard = Cluster::spawn_shard(&self.cfg, &mut self.net, &self.topology, &self.stats, s);
        self.shards.push(shard);
        let mut members = self.topology.members();
        members.push(s);
        self.install_ring(&members, now);
        s
    }

    /// Starts decommissioning a shard: it leaves the ring, every document
    /// homed on it is queued for migration, and once drained its seats are
    /// retired. Returns false if the shard cannot be decommissioned (bad
    /// id, already draining/retired, or last member standing).
    pub fn decommission_shard(&mut self, s: usize, now: u64) -> bool {
        let Some(sh) = self.shards.get(s) else {
            return false;
        };
        if sh.draining || sh.retired {
            return false;
        }
        let members: Vec<usize> = self
            .topology
            .members()
            .into_iter()
            .filter(|&m| m != s)
            .collect();
        if members.is_empty() {
            return false;
        }
        self.shards[s].draining = true;
        self.install_ring(&members, now);
        true
    }

    /// Reseeds the ring over the same members, moving a salted subset of
    /// keys — relief for a hot shard without changing membership.
    pub fn rebalance(&mut self, salt: u64, now: u64) {
        self.ring_seed = mix64(self.ring_seed ^ 0x4eba ^ salt);
        let members = self.topology.members();
        self.install_ring(&members, now);
    }

    fn install_ring(&mut self, members: &[usize], now: u64) {
        self.topology
            .install(Router::with_members(members, self.ring_seed));
        self.rstats.epoch_bumps += 1;
        self.plan_migrations(now);
    }

    /// Applies every scheduled [`TopologyChange`] due at `now`.
    pub(super) fn apply_due_changes(&mut self, now: u64) {
        for change in take_due(&mut self.topo_schedule, now) {
            match change {
                TopologyChange::AddShard => {
                    self.add_shard(now);
                }
                TopologyChange::Decommission(s) => {
                    self.decommission_shard(s, now);
                }
                TopologyChange::Rebalance(salt) => self.rebalance(salt, now),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::super::tests::seeded;
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn router_is_deterministic_and_covers_every_shard() {
        let a = Router::new(4, 7);
        let b = Router::new(4, 7);
        let mut hit = [false; 4];
        for i in 0..200 {
            let uri = format!("doc-{i}.xml");
            assert_eq!(a.owner(&uri), b.owner(&uri));
            hit[a.owner(&uri)] = true;
        }
        assert!(hit.iter().all(|h| *h), "200 URIs should touch all 4 shards");
    }

    #[test]
    fn the_last_shard_cannot_be_decommissioned() {
        let mut c = seeded(ClusterConfig {
            shards: 1,
            followers: 1,
            ack_replicas: 1,
            ..ClusterConfig::default()
        });
        assert!(!c.decommission_shard(0, 0));
        assert!(!c.is_draining(0));
        assert_eq!(c.epoch(), 0);
    }

    #[test]
    fn scheduled_topology_changes_apply_at_their_time() {
        let mut c = seeded(ClusterConfig {
            shards: 2,
            followers: 0,
            ack_replicas: 0,
            ..ClusterConfig::default()
        });
        c.schedule_topology(500, TopologyChange::AddShard);
        let _ = c.advance(100);
        assert_eq!(c.shard_count(), 2, "topology change applied early");
        let _ = c.advance(600);
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.epoch(), 1);
    }
}
