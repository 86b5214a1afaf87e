//! The XML database (the MarkLogic stand-in of §6.1): a document store
//! with a server-side XQuery execution facility, optionally made durable
//! over a fault-injected [`VirtualDisk`].
//!
//! # Durability
//!
//! In durable mode every mutation is journaled to a write-ahead log
//! *before* it is acknowledged: document loads as [`WalRecord::Load`],
//! applied pending update lists as wire-encoded [`WalRecord::Pul`] redo
//! records (see `xqib_xquery::wire`). Appends are grouped: the log is
//! fsynced once every [`DurabilityConfig::group_commit`] operations. An
//! fsync failure is *soft* — the operation stays applied in memory, the
//! committed sequence simply does not advance, and the next group commit
//! retries the whole outstanding batch (fsync covers the file, not a
//! range).
//!
//! When the log outgrows [`DurabilityConfig::checkpoint_threshold`], a
//! [`Checkpoint`] snapshot of every bound document is written to the
//! alternate slot and the log is truncated. Checkpoints record the WAL
//! sequence they absorb, so [`XmlDb::recover`] — checkpoint load + replay
//! of the committed WAL suffix, stopping at the first torn or corrupt
//! frame — is idempotent even when a crash lands between the checkpoint
//! write and the log truncation.
//!
//! A replication follower (`cluster::ReplicaNode`) is the same durable
//! database, fed by a leader's shipped WAL frames instead of queries: it
//! applies them through the redo step recovery uses, appends the exact
//! frame bytes to its own log, installs shipped snapshots through the
//! checkpoint loader recovery uses, and so keeps the same recorded digests
//! as its leader.

use std::collections::BTreeMap;
use std::rc::Rc;

use xqib_dom::store::shared_store;
use xqib_dom::{DocId, Document, EngineStats, SharedStore};
use xqib_storage::{
    content_digest, mix64, Checkpoint, DiskError, DurabilityStats, IntegrityError, ShippedFrame,
    VirtualDisk, Wal, WalRecord, CKPT_SLOTS, WAL_FILE,
};
use xqib_xdm::{Item, Sequence, XdmResult};
use xqib_xquery::context::{DynamicContext, StaticContext};
use xqib_xquery::plan::CompiledPlan;
use xqib_xquery::plancache::{compile_plan, static_fingerprint, PlanCache, PlanCacheStats};
use xqib_xquery::runtime::{self, ModuleRegistry};
use xqib_xquery::wire;

/// Plans kept per database. Render workloads cycle through a handful of
/// templates; 64 leaves generous room for ad-hoc `/query` traffic while
/// keeping the O(n) LRU scan trivial.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Binds every document of a checkpoint into a fresh store, alongside
/// the digests the checkpoint records. The one loader behind
/// [`XmlDb::recover`] and a follower's snapshot install.
fn checkpoint_store(ckpt: &Checkpoint) -> XdmResult<(SharedStore, BTreeMap<String, u64>)> {
    let store = shared_store();
    {
        let mut s = store.borrow_mut();
        for (uri, xml) in &ckpt.docs {
            let doc = xqib_dom::parse_document(xml).map_err(|e| {
                xqib_xdm::XdmError::new(
                    wire::WIRE_ERR,
                    format!("checkpoint document {uri} unreadable: {e}"),
                )
            })?;
            s.add_document(doc, Some(uri));
        }
    }
    Ok((store, ckpt.digests().into_iter().collect()))
}

/// Tuning knobs for durable mode.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Fsync the WAL once every `group_commit` journaled operations.
    pub group_commit: u64,
    /// Checkpoint (and truncate the WAL) once the log exceeds this many
    /// bytes. `0` disables automatic checkpoints.
    pub checkpoint_threshold: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 64 * 1024,
        }
    }
}

/// Durable-mode state: the device, the open log, and commit bookkeeping.
struct Durable {
    disk: VirtualDisk,
    wal: Wal,
    cfg: DurabilityConfig,
    /// Generation of the newest checkpoint on disk.
    ckpt_gen: u64,
    /// Highest WAL sequence acknowledged by a successful fsync (or covered
    /// by the recovery checkpoint).
    last_committed: u64,
    /// Highest WAL sequence appended (≥ `last_committed`).
    last_appended: u64,
    /// Journaled operations since the last successful fsync.
    pending_ops: u64,
    stats: DurabilityStats,
}

/// A query ready to run: a plan shared out of the cache, or a one-shot
/// interpreter compilation when plan mode is off.
enum Executable {
    Plan(Rc<CompiledPlan>),
    Interp(runtime::CompiledQuery),
}

impl Executable {
    fn static_context(&self) -> Rc<StaticContext> {
        match self {
            Executable::Plan(p) => p.static_context().clone(),
            Executable::Interp(q) => q.sctx.clone(),
        }
    }

    fn run(&self, ctx: &mut DynamicContext) -> XdmResult<Sequence> {
        match self {
            Executable::Plan(p) => p.execute(ctx),
            Executable::Interp(q) => q.execute(ctx),
        }
    }
}

/// A server-side XML database.
pub struct XmlDb {
    pub store: SharedStore,
    /// number of queries evaluated (CPU proxy)
    pub evals: u64,
    /// Library modules visible to server-side queries (`import module`).
    modules: ModuleRegistry,
    /// Compiled plans keyed by (query text, static-context fingerprint).
    plans: PlanCache,
    /// `false` routes every query through the tree-walking interpreter
    /// instead of the compiled pipeline — the differential-testing and
    /// regression-triage escape hatch.
    pub plan_mode: bool,
    durable: Option<Durable>,
    /// Recorded content digest per document, sealed at journal time
    /// (durable mode only): what the read path and the scrubber verify
    /// served bytes against.
    digests: BTreeMap<String, u64>,
}

impl Default for XmlDb {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlDb {
    /// An ephemeral, in-memory database (no journaling).
    pub fn new() -> Self {
        XmlDb {
            store: shared_store(),
            evals: 0,
            modules: ModuleRegistry::new(),
            plans: PlanCache::new(PLAN_CACHE_CAPACITY),
            plan_mode: true,
            durable: None,
            digests: BTreeMap::new(),
        }
    }

    /// A fresh durable database over `disk`, wiping any previous image.
    pub fn durable(disk: VirtualDisk, cfg: DurabilityConfig) -> Self {
        disk.delete(WAL_FILE);
        for slot in CKPT_SLOTS {
            disk.delete(slot);
        }
        let wal = Wal::create(disk.clone(), WAL_FILE);
        XmlDb {
            durable: Some(Durable {
                disk,
                wal,
                cfg,
                ckpt_gen: 0,
                last_committed: 0,
                last_appended: 0,
                pending_ops: 0,
                stats: DurabilityStats::default(),
            }),
            ..XmlDb::new()
        }
    }

    /// Recovers a durable database from a (possibly crashed) disk image:
    /// loads the newest intact checkpoint, then replays the committed WAL
    /// suffix, stopping at the first torn or corrupt frame (the
    /// prefix-durability contract). Recovering the same image twice yields
    /// the same state.
    pub fn recover(disk: VirtualDisk, cfg: DurabilityConfig) -> XdmResult<XmlDb> {
        let mut stats = DurabilityStats {
            recoveries: 1,
            ..Default::default()
        };
        let (ckpt, slot_verdicts) = Checkpoint::read_latest_verified(&disk);
        if slot_verdicts
            .iter()
            .any(|v| matches!(v, IntegrityError::AllCheckpointSlotsCorrupt))
        {
            stats.ckpt_slots_lost = 1;
        }
        let (ckpt_gen, ckpt_seq) = ckpt.as_ref().map_or((0, 0), |c| (c.gen, c.seq));

        let mut db = XmlDb::new();
        if let Some(ckpt) = &ckpt {
            (db.store, db.digests) = checkpoint_store(ckpt)?;
        }

        let mut replay = Wal::scan(&disk, WAL_FILE);
        if replay.mid_prefix_damage() {
            stats.wal_corruptions = 1;
        }
        let mut torn = replay.torn_tail_dropped;
        let mut applied_seq = ckpt_seq;
        let mut good = 0usize;
        for (seq, record, _end) in &replay.records {
            if *seq <= ckpt_seq {
                good += 1; // absorbed by the checkpoint; keep the frame
                continue;
            }
            if !db.redo(record) {
                if let WalRecord::Digest { .. } = record {
                    // the replayed state no longer hashes to what was
                    // acknowledged: silent damage, not a torn append
                    stats.recovery_digest_mismatches += 1;
                }
                torn = true;
                break;
            }
            good += 1;
            applied_seq = *seq;
        }
        if good < replay.records.len() {
            replay.records.truncate(good);
            replay.valid_bytes = replay.records.last().map_or(0, |(_, _, end)| *end);
        }
        let mut wal = Wal::open_after(disk.clone(), WAL_FILE, &replay);
        wal.fast_forward(ckpt_seq);
        if torn {
            stats.torn_tails_dropped = 1;
        }
        db.durable = Some(Durable {
            disk,
            wal,
            cfg,
            ckpt_gen,
            last_committed: applied_seq,
            last_appended: applied_seq,
            pending_ops: 0,
            stats,
        });
        Ok(db)
    }

    /// One redo step, shared by [`Self::recover`]'s replay and a
    /// follower's accept loop: applies `record` to the store and records
    /// a digest frame's value once the store hashes to it. `false` when
    /// the record cannot be applied (unparseable document, undecodable or
    /// inapplicable PUL, digest mismatch) — both callers stop there,
    /// keeping state at a frame boundary.
    fn redo(&mut self, record: &WalRecord) -> bool {
        let mut s = self.store.borrow_mut();
        match record {
            WalRecord::Load { uri, xml } => match xqib_dom::parse_document(xml) {
                Ok(doc) => {
                    match s.doc_by_uri(uri) {
                        Some(id) => s.replace_document(id, doc),
                        None => {
                            s.add_document(doc, Some(uri));
                        }
                    }
                    true
                }
                Err(_) => false,
            },
            WalRecord::Pul(bytes) => match wire::decode_pul(&mut s, bytes) {
                Ok(pul) => pul.apply(&mut s).is_ok(),
                Err(_) => false,
            },
            WalRecord::Digest { uri, digest } => {
                let sealed = s.doc_by_uri(uri).is_some_and(|id| {
                    let xml = xqib_dom::serialize::serialize_document(s.doc(id));
                    content_digest(uri, &xml) == *digest
                });
                if sealed {
                    self.digests.insert(uri.clone(), *digest);
                }
                sealed
            }
        }
    }

    /// A follower's accept step: applies one shipped frame through the
    /// redo step, then appends its exact bytes to this database's own WAL,
    /// so the log stays a byte-prefix of the sender's. `false` (nothing
    /// appended) when the record cannot be applied.
    pub(crate) fn accept_frame(&mut self, seq: u64, record: &WalRecord, frame: &[u8]) -> bool {
        if !self.redo(record) {
            return false;
        }
        if let Some(d) = &mut self.durable {
            d.wal.append_frame(seq, frame);
            d.stats.wal_appends += 1;
            d.last_appended = seq;
        }
        true
    }

    /// A follower's commit of one accepted shipment: one WAL fsync, which
    /// is what its ack promises, then a checkpoint of memory if the log
    /// outgrew its threshold — even when that fsync failed, since the
    /// checkpoint makes the applied state durable by itself.
    pub(crate) fn commit_shipment(&mut self) {
        let _ = self.commit();
        if self.log_over_threshold() {
            let _ = self.checkpoint_memory();
        }
    }

    /// Installs a shipped snapshot as this database's newest checkpoint
    /// and its whole state: the snapshot's documents and digests replace
    /// the store, the WAL is truncated, and both the appended and the
    /// committed sequence move to the snapshot's. `false` (nothing in
    /// memory changed) on an unreadable document, a failed slot write or
    /// an ephemeral database.
    pub(crate) fn install_snapshot(&mut self, snap: Checkpoint) -> bool {
        let Ok((store, digests)) = checkpoint_store(&snap) else {
            return false;
        };
        let Some(d) = &mut self.durable else {
            return false;
        };
        let local = Checkpoint {
            gen: d.ckpt_gen + 1,
            ..snap
        };
        if local.write(&d.disk).is_err() {
            return false;
        }
        d.ckpt_gen += 1;
        d.stats.checkpoints += 1;
        d.wal.truncate();
        d.last_committed = local.seq;
        d.last_appended = local.seq;
        d.pending_ops = 0;
        self.store = store;
        self.digests = digests;
        true
    }

    /// Loads a document under a URI. If the URI is already bound the
    /// binding is **replaced** (same `DocId`, new content). In durable
    /// mode the load is journaled before it is acknowledged.
    pub fn load(&mut self, uri: &str, xml: &str) -> XdmResult<DocId> {
        let doc = xqib_dom::parse_document(xml)
            .map_err(|e| xqib_xdm::XdmError::new("FODC0002", e.to_string()))?;
        if let Some(d) = &mut self.durable {
            d.stats.wal_appends += 1;
            d.last_appended = d.wal.append(&WalRecord::Load {
                uri: uri.to_string(),
                xml: xml.to_string(),
            });
            d.pending_ops += 1;
        }
        let id = {
            let mut store = self.store.borrow_mut();
            match store.doc_by_uri(uri) {
                Some(id) => {
                    store.replace_document(id, doc);
                    id
                }
                None => store.add_document(doc, Some(uri)),
            }
        };
        self.seal(vec![uri.to_string()]);
        self.after_journaled_ops();
        Ok(id)
    }

    /// Serialises a stored document (whole-document REST responses).
    pub fn serialize(&self, uri: &str) -> Option<String> {
        let store = self.store.borrow();
        let id = store.doc_by_uri(uri)?;
        Some(xqib_dom::serialize::serialize_document(store.doc(id)))
    }

    /// Serialises every bound document, sorted by URI (checkpoint and
    /// replication-snapshot input).
    pub fn dump(&self) -> Vec<(String, String)> {
        let store = self.store.borrow();
        store
            .uri_bindings()
            .into_iter()
            .map(|(uri, id)| {
                let xml = xqib_dom::serialize::serialize_document(store.doc(id));
                (uri, xml)
            })
            .collect()
    }

    /// Runs an XQuery against the database; returns the rendered result.
    /// In durable mode any pending update lists the query applies are
    /// journaled as redo records.
    pub fn query(&mut self, src: &str) -> XdmResult<String> {
        self.query_with_deadline(src, None).0
    }

    /// Runs an XQuery under an optional deadline budget, in engine fuel
    /// units (the server converts milliseconds-to-deadline into fuel).
    /// Exhausting the budget raises `XQIB0014`; committing a pending update
    /// list is a point of no return (the budget stops applying), so a
    /// deadline-killed query has applied — and journaled — nothing.
    ///
    /// Returns the result alongside the fuel actually consumed, which the
    /// request governor uses as the virtual-time cost of the evaluation.
    pub fn query_with_deadline(
        &mut self,
        src: &str,
        budget: Option<u64>,
    ) -> (XdmResult<String>, u64) {
        self.run(src, |ctx| {
            if let Some(budget) = budget {
                ctx.set_deadline_fuel(budget);
                ctx.fuel_commit_exempt = true;
            }
            Ok(())
        })
    }

    /// Runs an XQuery with the context item set to a stored document.
    pub fn query_doc(&mut self, uri: &str, src: &str) -> XdmResult<String> {
        self.run(src, |ctx| {
            let root = {
                let store = ctx.store.borrow();
                let id = store.doc_by_uri(uri).ok_or_else(|| {
                    xqib_xdm::XdmError::new("FODC0002", format!("no document {uri}"))
                })?;
                store.root(id)
            };
            ctx.focus = Some(xqib_xquery::context::Focus {
                item: Item::Node(root),
                position: 1,
                size: 1,
            });
            Ok(())
        })
        .0
    }

    /// The one run step behind every query: compile, `setup` a fresh
    /// context, run with the journal installed, journal and seal the
    /// writes, render, free the construction arena. Returns the fuel used.
    fn run(
        &mut self,
        src: &str,
        setup: impl FnOnce(&mut DynamicContext) -> XdmResult<()>,
    ) -> (XdmResult<String>, u64) {
        self.evals += 1;
        let exec = match self.executable(src) {
            Ok(e) => e,
            Err(e) => return (Err(e), 0),
        };
        let mut ctx = DynamicContext::new(self.store.clone(), exec.static_context());
        if let Err(e) = setup(&mut ctx) {
            return (Err(e), 0);
        }
        if self.durable.is_some() {
            ctx.pul_journal = Some(Vec::new());
        }
        let result = exec.run(&mut ctx);
        self.finish_writes(&mut ctx);
        let result = result.map(|r| runtime::render_sequence(&ctx, &r));
        self.free_construction(&ctx);
        (result, ctx.fuel_used)
    }

    /// Resolves `src` to something runnable: a cached (or freshly lowered)
    /// plan in plan mode, a one-shot interpreter compilation otherwise.
    fn executable(&mut self, src: &str) -> XdmResult<Executable> {
        if self.plan_mode {
            let fp = static_fingerprint(&self.modules, false);
            let modules = &self.modules;
            let plan = self
                .plans
                .get_or_compile(src, fp, || compile_plan(src, modules, false))?;
            Ok(Executable::Plan(plan))
        } else {
            Ok(Executable::Interp(runtime::compile_with(
                src,
                &self.modules,
                false,
            )?))
        }
    }

    /// Parses and registers a library module for `import module` in later
    /// queries. The registry feeds the plan-cache fingerprint, so plans
    /// compiled against the previous registry contents stop matching
    /// immediately — no manual invalidation needed.
    pub fn register_module(&mut self, src: &str) -> XdmResult<String> {
        self.modules.register_source(src)
    }

    /// Drops every cached plan (new cache epoch). For environment changes
    /// the static-context fingerprint cannot observe.
    pub fn invalidate_plans(&mut self) {
        self.plans.invalidate();
    }

    /// Plan-cache hit/miss/eviction/invalidation counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Document-order counters of this database's store.
    pub fn engine_stats(&self) -> EngineStats {
        self.store.borrow().engine_stats()
    }

    /// Number of plans currently cached.
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Hard group commit: fsyncs the WAL so every journaled operation
    /// becomes durable. No-op in ephemeral mode.
    pub fn commit(&mut self) -> Result<(), DiskError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        if d.last_committed == d.last_appended {
            d.pending_ops = 0;
            return Ok(());
        }
        d.wal.sync()?;
        d.stats.fsyncs += 1;
        d.last_committed = d.last_appended;
        d.pending_ops = 0;
        Ok(())
    }

    /// Hard checkpoint: commits, then `checkpoint_memory`. Skipped
    /// (with an error) if the commit or the snapshot fsync fails — the
    /// previous checkpoint and the log stay authoritative.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        self.commit()?;
        self.checkpoint_memory()
    }

    /// Snapshots every document in memory into the alternate checkpoint
    /// slot, then truncates the WAL. The snapshot covers every appended
    /// record, so once it is written the whole appended log counts as
    /// committed — which is also how a replica repairs a log whose fsync
    /// failed or whose bytes rotted: memory, whose every frame was checked
    /// on arrival, supersedes the damaged media wholesale.
    pub(crate) fn checkpoint_memory(&mut self) -> Result<(), DiskError> {
        let (Some(mut ckpt), Some(d)) = (self.memory_snapshot(), &mut self.durable) else {
            return Ok(());
        };
        ckpt.gen += 1;
        ckpt.write(&d.disk)?;
        d.ckpt_gen += 1;
        d.stats.checkpoints += 1;
        d.wal.truncate();
        d.last_committed = d.last_appended;
        d.pending_ops = 0;
        Ok(())
    }

    /// The recorded (acknowledged) content digest of a document. `None`
    /// for unbound URIs, ephemeral databases, and loads whose digest frame
    /// was lost to a torn tail before it could seal.
    pub fn digest_of(&self, uri: &str) -> Option<u64> {
        self.digests.get(uri).copied()
    }

    /// Every recorded digest, sorted by URI — the scrubber's cross-check
    /// input, comparable across replicas without shipping bodies.
    pub fn recorded_digests(&self) -> Vec<(String, u64)> {
        self.digests
            .iter()
            .map(|(uri, d)| (uri.clone(), *d))
            .collect()
    }

    /// Serialises a document with the end-to-end check: recomputes the
    /// content digest of the bytes about to be served and refuses to
    /// respond when they no longer hash to what was acknowledged.
    /// `Ok(None)` for unbound URIs; documents without a recorded digest
    /// (ephemeral mode, unsealed loads) serve unchecked.
    pub fn verified_serialize(&self, uri: &str) -> Result<Option<String>, IntegrityError> {
        let Some(xml) = self.serialize(uri) else {
            return Ok(None);
        };
        if let Some(want) = self.digest_of(uri) {
            let got = content_digest(uri, &xml);
            if got != want {
                return Err(IntegrityError::DigestMismatch {
                    uri: uri.to_string(),
                    want,
                    got,
                });
            }
        }
        Ok(Some(xml))
    }

    /// Scrubber probe: rescans the on-disk WAL and classifies the first
    /// break, if any. `None` when the log is clean or the database is
    /// ephemeral. A torn tail is the expected crash shape; mid-prefix
    /// damage means the durable prefix itself rotted after it was acked.
    pub fn wal_integrity(&self) -> Option<IntegrityError> {
        let d = self.durable.as_ref()?;
        Wal::scan(&d.disk, WAL_FILE).integrity_error()
    }

    /// Scrubber probe: typed verdicts for every written-but-corrupt
    /// checkpoint slot on the backing device (empty when clean or
    /// ephemeral).
    pub fn checkpoint_integrity(&self) -> Vec<IntegrityError> {
        match self.durable.as_ref() {
            Some(d) => Checkpoint::read_latest_verified(&d.disk).1,
            None => Vec::new(),
        }
    }

    /// Fault-injection hook: overwrites the recorded digest of `uri`,
    /// simulating undetected rot between the store and its seal so tests
    /// can prove the read path refuses to serve state that no longer
    /// hashes to what was acknowledged. Returns `false` if nothing was
    /// recorded for `uri`.
    pub fn poison_recorded_digest(&mut self, uri: &str) -> bool {
        match self.digests.get_mut(uri) {
            Some(d) => {
                *d = mix64(*d ^ 0xBAD);
                true
            }
            None => false,
        }
    }

    /// Durability counters (zeroed in ephemeral mode).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.durable
            .as_ref()
            .map(|d| d.stats.clone())
            .unwrap_or_default()
    }

    /// Highest WAL sequence known durable (0 in ephemeral mode).
    pub fn committed_seq(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.last_committed)
    }

    /// Highest WAL sequence appended — it may still be awaiting its group
    /// commit (0 in ephemeral mode). The cluster stamps each update with
    /// this to know when the ack rule covers it.
    pub fn appended_seq(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.last_appended)
    }

    /// The backing device, if durable.
    pub fn disk(&self) -> Option<VirtualDisk> {
        self.durable.as_ref().map(|d| d.disk.clone())
    }

    /// The committed WAL frames with `after < seq <= committed_seq`, for
    /// shipping to a follower. `None` when the follower has fallen off the
    /// log — a checkpoint truncated frames it still needs — or the
    /// database is ephemeral; the caller must resync by snapshot instead
    /// ([`Self::replication_snapshot`]).
    pub fn committed_frames_after(&self, after: u64) -> Option<Vec<ShippedFrame>> {
        let d = self.durable.as_ref()?;
        if after >= d.last_committed {
            return Some(Vec::new());
        }
        let frames = d
            .disk
            .with_file(WAL_FILE, |data| {
                Wal::frames_in(data, after, d.last_committed)
            })
            .unwrap_or_default();
        match frames.first() {
            Some(f) if f.seq == after + 1 => Some(frames),
            _ => None, // gap: the needed suffix was absorbed by a checkpoint
        }
    }

    /// How many committed WAL records with `seq > after` touch `uri` — the
    /// size of the update tail a migration source accepted during a copy
    /// window. `0` for ephemeral databases or when a checkpoint already
    /// absorbed the suffix (the caller re-snapshots then anyway).
    pub fn tail_records_touching(&self, uri: &str, after: u64) -> u64 {
        let Some(frames) = self.committed_frames_after(after) else {
            return 0;
        };
        frames
            .iter()
            .filter(|f| match &f.record {
                WalRecord::Load { uri: u, .. } | WalRecord::Digest { uri: u, .. } => u == uri,
                WalRecord::Pul(bytes) => wire::pul_doc_uris(bytes)
                    .map(|uris| uris.iter().any(|u| u == uri))
                    .unwrap_or(false),
            })
            .count() as u64
    }

    /// A consistent snapshot of the committed state, in the checkpoint
    /// wire format, for resyncing a follower that has fallen off the WAL.
    /// Commits first so the document dump and the stamped sequence agree;
    /// `None` when the database is ephemeral or the commit fsync fails
    /// (retry later — shipping an inconsistent snapshot would double-apply
    /// frames at the follower).
    pub fn replication_snapshot(&mut self) -> Option<Checkpoint> {
        self.commit().ok()?;
        self.memory_snapshot()
    }

    /// Every document in memory as a checkpoint covering the whole
    /// appended log, stamped with the newest generation on disk. `None`
    /// for ephemeral databases.
    fn memory_snapshot(&self) -> Option<Checkpoint> {
        let d = self.durable.as_ref()?;
        Some(Checkpoint {
            gen: d.ckpt_gen,
            seq: d.last_appended,
            docs: self.dump(),
        })
    }

    /// Drops a finished query's construction arena. Its nodes were either
    /// serialised into the result or deep-copied into stored documents by
    /// the applied update list, so nothing can reach them any more. An
    /// empty document keeps the `DocId` slot, so ids and cross-document
    /// order do not move, and the store keeps the dropped arena's
    /// order-index rebuild count.
    fn free_construction(&self, ctx: &DynamicContext) {
        self.store
            .borrow_mut()
            .replace_document(ctx.construction_doc, Document::new());
    }

    /// Appends the redo records a query produced — even when the query
    /// later failed, any PUL it already applied (mid-script) must be
    /// journaled — seals the documents it changed, then runs the
    /// group-commit / checkpoint policy.
    fn finish_writes(&mut self, ctx: &mut DynamicContext) {
        if let (Some(journal), Some(d)) = (ctx.pul_journal.take(), &mut self.durable) {
            for bytes in journal {
                d.stats.wal_appends += 1;
                d.last_appended = d.wal.append(&WalRecord::Pul(bytes));
                d.pending_ops += 1;
            }
        }
        let touched = self.uris_of(&ctx.touched_docs);
        self.seal(touched);
        self.after_journaled_ops();
    }

    /// The distinct URIs of `docs`, in order; unbound documents have none.
    fn uris_of(&self, docs: &[DocId]) -> Vec<String> {
        let store = self.store.borrow();
        let mut uris: Vec<String> = Vec::new();
        for &id in docs {
            if let Some(uri) = &store.doc(id).base_uri {
                if !uris.contains(uri) {
                    uris.push(uri.clone());
                }
            }
        }
        uris
    }

    /// Seals the documents a load or an applied PUL changed (durable mode
    /// only): each one's content digest is recomputed from the applied
    /// store, recorded, and journaled as a digest frame — the end-to-end
    /// integrity assertion recovery, replication, the read path and the
    /// scrubber all verify against. Ephemeral databases seal nothing: the
    /// digest map tracks *acknowledged* state, which they lack.
    fn seal(&mut self, uris: Vec<String>) {
        if self.durable.is_none() {
            return;
        }
        for uri in uris {
            let Some(xml) = self.serialize(&uri) else {
                continue;
            };
            let digest = content_digest(&uri, &xml);
            self.digests.insert(uri.clone(), digest);
            if let Some(d) = &mut self.durable {
                d.stats.wal_appends += 1;
                d.last_appended = d.wal.append(&WalRecord::Digest { uri, digest });
                d.pending_ops += 1;
            }
        }
    }

    /// Group-commit policy: soft fsync once enough operations are
    /// outstanding (a failure leaves them pending for the next try), then
    /// checkpoint if the log outgrew its threshold.
    fn after_journaled_ops(&mut self) {
        let Some(d) = &self.durable else { return };
        if d.pending_ops >= d.cfg.group_commit {
            let _ = self.commit();
        }
        if self.log_over_threshold() {
            let _ = self.checkpoint();
        }
    }

    /// Whether the WAL outgrew the automatic-checkpoint threshold.
    fn log_over_threshold(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| {
            d.cfg.checkpoint_threshold > 0 && d.wal.size_bytes() > d.cfg.checkpoint_threshold
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use xqib_storage::StorageFaultPlan;

    #[test]
    fn load_and_query() {
        let mut db = XmlDb::new();
        db.load("lib.xml", "<books><book><title>A</title></book></books>")
            .unwrap();
        let out = db.query("count(doc('lib.xml')//book)").unwrap();
        assert_eq!(out, "1");
        assert_eq!(db.evals, 1);
    }

    #[test]
    fn query_doc_uses_context_item() {
        let mut db = XmlDb::new();
        db.load("lib.xml", "<books><book/><book/></books>").unwrap();
        let out = db.query_doc("lib.xml", "count(//book)").unwrap();
        assert_eq!(out, "2");
    }

    #[test]
    fn serialize_roundtrip() {
        let mut db = XmlDb::new();
        db.load("d.xml", "<r><a x=\"1\"/></r>").unwrap();
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><a x=\"1\"/></r>");
        assert!(db.serialize("missing.xml").is_none());
    }

    #[test]
    fn bad_query_is_error() {
        let mut db = XmlDb::new();
        assert!(db.query("1 +").is_err());
        assert!(db.query_doc("nope.xml", "1").is_err());
    }

    #[test]
    fn reload_replaces_the_binding() {
        let mut db = XmlDb::new();
        let id1 = db.load("d.xml", "<old/>").unwrap();
        let id2 = db.load("d.xml", "<new><child/></new>").unwrap();
        assert_eq!(id1, id2, "same DocId slot");
        assert_eq!(db.serialize("d.xml").unwrap(), "<new><child/></new>");
        assert_eq!(db.query("count(doc('d.xml')//child)").unwrap(), "1");
    }

    #[test]
    fn durable_load_and_update_survive_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.query("replace value of node doc('d.xml')//v with '2'")
            .unwrap();
        assert_eq!(db.serialize("d.xml").unwrap(), "<r><v>2</v></r>");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r><v>2</v></r>");
        assert_eq!(db2.durability_stats().recoveries, 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.query("insert node <a>x</a> into doc('d.xml')/r")
            .unwrap();
        db.checkpoint().unwrap();
        db.query("insert node <b>y</b> into doc('d.xml')/r")
            .unwrap();
        let expect = db.serialize("d.xml").unwrap();
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk.clone(), DurabilityConfig::default()).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), expect);
        let seq = db2.committed_seq();
        drop(db2);
        disk.crash();
        let db3 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db3.serialize("d.xml").unwrap(), expect);
        assert_eq!(db3.committed_seq(), seq);
    }

    #[test]
    fn unsynced_tail_is_dropped_but_committed_prefix_survives() {
        let disk = VirtualDisk::with_plan(StorageFaultPlan::seeded(5));
        // group_commit = 100: nothing fsyncs until commit() is called
        let cfg = DurabilityConfig {
            group_commit: 100,
            checkpoint_threshold: 0,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        db.load("d.xml", "<r><v>committed</v></r>").unwrap();
        db.commit().unwrap();
        db.query("replace value of node doc('d.xml')//v with 'lost-on-crash'")
            .unwrap();
        assert_eq!(db.committed_seq(), 2, "load frame + its digest seal");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, cfg).unwrap();
        assert_eq!(
            db2.serialize("d.xml").unwrap(),
            "<r><v>committed</v></r>",
            "unsynced update is gone, committed load intact"
        );
    }

    #[test]
    fn sync_failure_is_soft_and_retried() {
        // sync always fails at permille 1000
        let disk =
            VirtualDisk::with_plan(StorageFaultPlan::seeded(7).with_sync_fail_permille(1000));
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // group commit fails softly
        assert_eq!(db.committed_seq(), 0, "not acknowledged");
        assert_eq!(db.serialize("d.xml").unwrap(), "<r/>", "still applied");
        // heal the device: the next journaled op commits the whole batch
        disk.set_plan(StorageFaultPlan::seeded(7));
        db.load("e.xml", "<e/>").unwrap();
        assert_eq!(
            db.committed_seq(),
            4,
            "both loads (and their digest seals) acknowledged"
        );
    }

    #[test]
    fn checkpoint_threshold_triggers_and_truncates() {
        let disk = VirtualDisk::new();
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_threshold: 256,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        let big = format!("<r>{}</r>", "<x>padding</x>".repeat(20));
        db.load("d.xml", &big).unwrap();
        assert!(db.durability_stats().checkpoints >= 1, "threshold crossed");
        assert!(disk.len(WAL_FILE) < 256, "log truncated");
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, cfg).unwrap();
        assert_eq!(db2.serialize("d.xml").unwrap(), big);
    }

    #[test]
    fn both_checkpoint_slots_corrupt_recovers_from_the_wal_alone() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.checkpoint().unwrap();
        db.query("insert node <a/> into doc('d.xml')/r").unwrap();
        drop(db);
        // wreck both slots: recovery must fall back cleanly, not panic
        for slot in CKPT_SLOTS {
            if let Some(mut data) = disk.read(slot) {
                let mid = data.len() / 2;
                data[mid] ^= 0xff;
                disk.write_file(slot, &data);
            } else {
                disk.write_file(slot, b"garbage");
            }
        }
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        // the checkpoint absorbed seq 1..=2 and truncated the WAL, so only
        // the post-checkpoint insert replays onto an empty store: with the
        // snapshot gone, its PUL cannot resolve and recovery stops at the
        // empty frame boundary — a clean (if empty) state, never a panic
        assert_eq!(db2.committed_seq(), 0);
        assert!(db2.serialize("d.xml").is_none());
        assert_eq!(
            db2.durability_stats().ckpt_slots_lost,
            1,
            "losing every snapshot slot is surfaced, not silent"
        );
    }

    #[test]
    fn digests_are_sealed_journaled_and_survive_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r><v>1</v></r>").unwrap();
        db.query("replace value of node doc('d.xml')//v with '2'")
            .unwrap();
        let sealed = db.digest_of("d.xml").expect("digest recorded");
        let xml = db.serialize("d.xml").unwrap();
        assert_eq!(sealed, xqib_storage::content_digest("d.xml", &xml));
        drop(db);
        disk.crash();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(db2.digest_of("d.xml"), Some(sealed));
        assert_eq!(db2.durability_stats().recovery_digest_mismatches, 0);
        assert_eq!(
            db2.verified_serialize("d.xml").unwrap().unwrap(),
            "<r><v>2</v></r>"
        );
    }

    #[test]
    fn poisoned_digest_refuses_the_read() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk, DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        assert!(db.verified_serialize("d.xml").is_ok());
        assert!(db.poison_recorded_digest("d.xml"));
        let err = db.verified_serialize("d.xml").unwrap_err();
        assert!(matches!(
            err,
            xqib_storage::IntegrityError::DigestMismatch { .. }
        ));
        // unbound URIs and unpoisoned docs still serve
        assert_eq!(db.verified_serialize("missing.xml").unwrap(), None);
        assert!(!db.poison_recorded_digest("missing.xml"));
    }

    #[test]
    fn mid_prefix_rot_is_counted_and_truncated_by_recovery() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        db.load("e.xml", "<e/>").unwrap(); // seq 3..=4
        drop(db);
        // flip a payload byte inside the second frame: damage strictly
        // inside the durable prefix, which no legal crash produces
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = xqib_storage::Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + 17] ^= 0x40;
        disk.write_file(WAL_FILE, &data);
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        let stats = db2.durability_stats();
        assert_eq!(stats.wal_corruptions, 1, "rot classified as the alarm");
        assert_eq!(db2.committed_seq(), 1, "replay stops before the damage");
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r/>");
        assert!(db2.serialize("e.xml").is_none());
    }

    #[test]
    fn forged_digest_frame_stops_replay_with_a_mismatch_count() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        drop(db);
        // append a digest frame asserting a hash the store cannot match
        let replay = xqib_storage::Wal::scan(&disk, WAL_FILE);
        let mut wal = xqib_storage::Wal::open_after(disk.clone(), WAL_FILE, &replay);
        wal.append(&WalRecord::Digest {
            uri: "d.xml".to_string(),
            digest: 0xBAD0_BAD0_BAD0_BAD0,
        });
        wal.sync().unwrap();
        let db2 = XmlDb::recover(disk, DurabilityConfig::default()).unwrap();
        let stats = db2.durability_stats();
        assert_eq!(stats.recovery_digest_mismatches, 1);
        assert_eq!(db2.committed_seq(), 2, "state stops at the last seal");
        assert_eq!(db2.serialize("d.xml").unwrap(), "<r/>");
    }

    #[test]
    fn wal_and_checkpoint_integrity_probes_classify_the_device() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.load("e.xml", "<e/>").unwrap();
        db.checkpoint().unwrap();
        db.load("f.xml", "<f/>").unwrap();
        assert_eq!(db.wal_integrity(), None, "clean log");
        assert!(db.checkpoint_integrity().is_empty(), "clean slots");
        // rot the WAL mid-prefix and one checkpoint slot
        let mut data = disk.read(WAL_FILE).unwrap();
        let first_end = xqib_storage::Wal::scan(&disk, WAL_FILE).records[0].2;
        data[first_end + 17] ^= 0x01;
        disk.write_file(WAL_FILE, &data);
        let slot = CKPT_SLOTS[1]; // gen 1 went to slot 1
        let mut ck = disk.read(slot).unwrap();
        let mid = ck.len() / 2;
        ck[mid] ^= 0x01;
        disk.write_file(slot, &ck);
        assert!(matches!(
            db.wal_integrity(),
            Some(xqib_storage::IntegrityError::WalCorruption { .. })
        ));
        assert_eq!(
            db.checkpoint_integrity(),
            vec![
                xqib_storage::IntegrityError::CheckpointSlotCorrupt { slot: 1 },
                xqib_storage::IntegrityError::AllCheckpointSlotsCorrupt,
            ],
            "the only written slot rotted: the alarm verdict fires"
        );
        // ephemeral databases have nothing to probe
        assert_eq!(XmlDb::new().wal_integrity(), None);
        assert!(XmlDb::new().checkpoint_integrity().is_empty());
    }

    #[test]
    fn unreadable_checkpoint_document_is_a_typed_recovery_failure() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap();
        db.checkpoint().unwrap();
        drop(db);
        // forge a checkpoint whose CRC is intact but whose document body is
        // not XML: read_latest accepts it, the parse must fail *typed*
        let forged = Checkpoint {
            gen: 2,
            seq: 1,
            docs: vec![("d.xml".into(), "<unclosed".into())],
        };
        forged.write(&disk).unwrap();
        let err = XmlDb::recover(disk, DurabilityConfig::default())
            .err()
            .expect("recovery must fail, not panic");
        assert_eq!(err.code, wire::WIRE_ERR);
        assert!(err.message.contains("d.xml"), "names the bad document");
    }

    #[test]
    fn committed_frames_after_ships_exactly_the_committed_suffix() {
        let disk = VirtualDisk::new();
        let cfg = DurabilityConfig {
            group_commit: 100, // manual commits only
            checkpoint_threshold: 0,
        };
        let mut db = XmlDb::durable(disk.clone(), cfg);
        db.load("d.xml", "<r/>").unwrap(); // seq 1 + digest seq 2
        db.load("e.xml", "<e/>").unwrap(); // seq 3 + digest seq 4
        db.commit().unwrap();
        db.load("f.xml", "<f/>").unwrap(); // seq 5..=6, uncommitted
        assert_eq!(db.appended_seq(), 6);
        assert_eq!(db.committed_seq(), 4);
        let frames = db.committed_frames_after(0).unwrap();
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4],
            "only committed frames ship"
        );
        let tail = db.committed_frames_after(3).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 4);
        assert!(db.committed_frames_after(4).unwrap().is_empty());
        // ephemeral databases have nothing to ship
        assert!(XmlDb::new().committed_frames_after(0).is_none());
    }

    #[test]
    fn frames_absorbed_by_a_checkpoint_force_a_snapshot_resync() {
        let disk = VirtualDisk::new();
        let mut db = XmlDb::durable(disk.clone(), DurabilityConfig::default());
        db.load("d.xml", "<r/>").unwrap(); // seq 1..=2
        db.checkpoint().unwrap(); // truncates the WAL
        db.load("e.xml", "<e/>").unwrap(); // seq 3..=4
        assert!(
            db.committed_frames_after(0).is_none(),
            "seq 1 is gone from the log: follower at 0 needs a snapshot"
        );
        let snap = db.replication_snapshot().unwrap();
        assert_eq!(snap.seq, db.committed_seq());
        assert_eq!(snap.docs.len(), 2);
        // a follower already past the checkpoint still gets frames
        let frames = db.committed_frames_after(2).unwrap();
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![3, 4]);
    }
}
