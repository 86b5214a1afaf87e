//! The three workloads. Each keeps its state bounded (fresh plug-in per
//! session, carts checked out after a fixed item count) so the cost of an
//! interaction does not drift with run length, and each checks the
//! program's outputs as it goes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use xqib_appserver::corpus::article_ids;
use xqib_appserver::{
    generate_corpus, Admission, AppServer, Cluster, ClusterConfig, ClusterOutcome, CorpusSpec,
    GovernedServer, GovernorConfig, Outcome, Submitted,
};
use xqib_browser::net::Response;
use xqib_core::plugin::{Plugin, PluginConfig};
use xqib_xdm::XdmResult;

use crate::trace::{self, LayerTimes};
use crate::{m, percentile, ratio, sorted, Metric, Recorder};

/// Client-read sessions per window (one page load + `VIEWS` views each).
const READ_SESSIONS_PER_WINDOW: usize = 60;
/// Article views per client-read session.
const VIEWS: usize = 20;
/// Server-render navigations per window.
const NAVS_PER_WINDOW: usize = 1_000;
/// Navigations between reference-kernel calls.
const NAVS_PER_REFERENCE: usize = 20;
/// Every `INDEX_EVERY`-th navigation renders the journal index.
const INDEX_EVERY: u64 = 20;
/// Cart sessions per window (one page load, `ITEMS` adds, one checkout):
/// whole passes over the carts, so every window has the same mix of
/// carts on each shard.
const CART_SESSIONS_PER_WINDOW: usize = 2 * CARTS;
/// Items added to a cart before it is checked out (emptied).
const ITEMS: usize = 16;
/// Carts the single client rotates over.
const CARTS: usize = 32;
/// Bound on the plug-in store's documents at every session end.
const PLUGIN_DOC_BOUND: u64 = 64;
/// Fixed ring seed: the cart → shard placement is the same for every
/// workload seed, so seeds change inputs, not the deployment.
const CLUSTER_SEED: u64 = 0xE2E;
/// Cluster virtual-time step while a write waits for its ack, ms.
const ACK_STEP_MS: u64 = 5;
/// Cluster ticks a write may wait before the bridge gives up (503).
const ACK_MAX_TICKS: u64 = 400;

const ORIGIN: &str = "http://origin.xqib/";
const ORIGIN_HOST: &str = "origin.xqib";
const CLUSTER: &str = "http://cluster.xqib/";
const CLUSTER_HOST: &str = "cluster.xqib";

/// The §6.1 page after migration: the article view is rendered in the
/// browser from the cached whole corpus document.
const READ_PAGE: &str = r#"<html><head><title>Reference 2.0 (migrated)</title>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onDoc($readyState, $result) {
  if ($readyState eq 4)
  then
    let $id := string(//span[@id="target"])
    let $a := $result//article[@id = $id]
    let $refs := $a/references/reference
    return {
      delete nodes //div[@id="content"]/*,
      insert node
        <div id="article">
          <h1>{data($a/title)}</h1>
          <p class="author">{data($a/author)}</p>
          <table id="refs">{
            for $r in $refs
            order by number($r/year)
            return <tr><td>{data($r/cited)}</td><td>{data($r/year)}</td></tr>
          }</table>
        </div>
      into //div[@id="content"],
      replace value of node //span[@id="refcount"] with string(count($refs)),
      replace value of node //span[@id="title"] with string($a/title),
      replace value of node //span[@id="mode"] with "fresh"
    }
  else ()
};
declare updating function local:onStale($evt, $obj) {
  replace value of node //span[@id="mode"] with "stale"
};
declare updating function local:onError($evt, $obj) {
  replace value of node //span[@id="mode"] with "error"
};
on event "stale" at //body attach listener local:onStale;
on event "error" at //body attach listener local:onError
]]></script></head>
<body><div id="nav">Reference 2.0</div>
<span id="target"/><span id="title"/><span id="refcount"/><span id="mode"/>
<div id="content"/></body></html>"#;

const READ_BEHIND: &str = r#"on event "stateChanged" behind browser:httpGet("http://origin.xqib/doc?uri=corpus.xml") attach listener local:onDoc"#;

/// The §6.3 XQuery-only cart page: every acked write is listed.
const CART_PAGE: &str = r#"<html><head><title>Cart</title>
<script type="text/xqueryp"><![CDATA[
declare updating function local:onAck($readyState, $result) {
  if ($readyState eq 4)
  then insert node <li class="acked">{string(//span[@id="op"])}</li>
       into //ul[@id="acked"]
  else ()
};
declare updating function local:onFail($evt, $obj) {
  insert node <li class="failed">{string(//span[@id="op"])}</li>
  into //ul[@id="failed"]
};
on event "stale" at //body attach listener local:onFail;
on event "error" at //body attach listener local:onFail
]]></script></head>
<body><span id="op"/><ul id="acked"/><ul id="failed"/></body></html>"#;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ClientRead,
    ServerRender,
    CartWrite,
}

impl WorkloadKind {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "client_read" => Ok(WorkloadKind::ClientRead),
            "server_render" => Ok(WorkloadKind::ServerRender),
            "cart_write" => Ok(WorkloadKind::CartWrite),
            _ => Err(format!("unknown workload {s}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ClientRead => "client_read",
            WorkloadKind::ServerRender => "server_render",
            WorkloadKind::CartWrite => "cart_write",
        }
    }
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1) popularity over the articles. Rank `r` is article
/// `r * RANK_STRIDE mod n`: a fixed spread over document order. The cost
/// of a view depends on where its article sits in the corpus, so a seeded
/// mapping would let the seed move the medians; the seed only draws.
struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<usize>,
}

/// Odd, so it is coprime with the power-of-two article count.
const RANK_STRIDE: usize = 37;

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let rank_to_item = (0..n).map(|r| r * RANK_STRIDE % n).collect();
        Zipf { cdf, rank_to_item }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}

/// 128 articles, twice the server's 64-plan cache and four times the
/// plug-in's 32: page queries embed the article id, so Zipf popularity
/// gives both hits and misses. The size is capped by the governor's
/// default 100 ms render deadline at 100 fuel/ms: the `/index` page costs
/// ~8.7k fuel here and would degrade past ~140 articles.
fn corpus_spec(seed: u64) -> CorpusSpec {
    CorpusSpec {
        journals: 4,
        volumes_per_journal: 4,
        issues_per_volume: 2,
        articles_per_issue: 4,
        references_per_article: 5,
        seed: Rng::new(seed, 1).next() | 1,
    }
}

/// Parses `<metrics><name>n</name>…</metrics>`.
fn parse_metrics(xml: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut rest = xml.strip_prefix("<metrics>").unwrap_or(xml);
    while let Some(open_end) = rest.find('>') {
        let name = &rest[1..open_end];
        let after = &rest[open_end + 1..];
        let Some(close) = after.find("</") else { break };
        if let Ok(v) = after[..close].parse() {
            out.insert(name.to_string(), v);
        }
        let close_tag = format!("</{name}>");
        rest = &after[close + close_tag.len()..];
    }
    out
}

/// Server counters the benchmark reads from `/metrics`, by its names.
const SERVER_COUNTERS: [(&str, &str); 8] = [
    ("plan-cache-hits", "server_plan_hits"),
    ("plan-cache-misses", "server_plan_misses"),
    ("order-index-rebuilds", "order_index_rebuilds"),
    ("sorts-performed", "sorts_performed"),
    ("sorts-elided", "sorts_elided"),
    ("wal-appends", "wal_appends"),
    ("wal-fsyncs", "wal_fsyncs"),
    ("checkpoints", "checkpoints"),
];

fn record_metric_deltas(rec: &mut Recorder, base: &BTreeMap<String, u64>, now: &str) {
    let cur = parse_metrics(now);
    for (xml_name, counter) in SERVER_COUNTERS {
        let v = cur.get(xml_name).copied().unwrap_or(0);
        let b = base.get(xml_name).copied().unwrap_or(0);
        rec.set(counter, v.saturating_sub(b));
    }
}

// ---------------------------------------------------------------------
// Plug-in helpers
// ---------------------------------------------------------------------

fn text_of(p: &Plugin, id: &str) -> String {
    match p.element_by_id(id) {
        Some(n) => p.store.borrow().string_value(n),
        None => String::new(),
    }
}

/// Extracts the text of every `<li class="CLASS">…</li>` in order.
fn li_texts(page: &str, class: &str) -> Vec<String> {
    let needle = format!("<li class=\"{class}\">");
    let mut out = Vec::new();
    let mut rest = page;
    while let Some(start) = rest.find(&needle) {
        rest = &rest[start + needle.len()..];
        let Some(end) = rest.find("</li>") else { break };
        out.push(rest[..end].to_string());
        rest = &rest[end..];
    }
    out
}

fn attr_u64(markup: &str, name: &str) -> u64 {
    let needle = format!("{name}=\"");
    markup
        .find(&needle)
        .and_then(|i| {
            let rest = &markup[i + needle.len()..];
            rest[..rest.find('"')?].parse().ok()
        })
        .unwrap_or(0)
}

/// Session-end bookkeeping shared by the plug-in workloads (untimed):
/// network, recovery and plan-cache counters, and the bounded-state check.
fn end_session(rec: &mut Recorder, p: &mut Plugin, host: &str, behind_calls: u64) {
    {
        let h = p.host.borrow();
        let net = h.net.stats.per_host.get(host);
        rec.add("origin_requests", net.map_or(0, |n| n.requests));
        rec.add("net_bytes", net.map_or(0, |n| n.bytes_received));
        let r = &h.recovery.stats;
        rec.add("retries", r.retries);
        rec.add("stale_served", r.stale_served);
        rec.add("stale_events", r.stale_events);
        rec.add("error_events", r.error_events);
    }
    rec.add("behind_calls", behind_calls);
    rec.add("sessions", 1);
    // the introspection call is itself one (missing) plan lookup
    match p.eval("browser:planCache()") {
        Ok(seq) => {
            let markup = p.render(&seq);
            rec.add("plugin_plan_hits", attr_u64(&markup, "hits"));
            rec.add(
                "plugin_plan_misses",
                attr_u64(&markup, "misses").saturating_sub(1),
            );
        }
        Err(e) => rec.fail(format!("browser:planCache(): {e}")),
    }
    let docs = p.store.borrow().doc_count() as u64;
    rec.max_plugin_docs = rec.max_plugin_docs.max(docs);
    if docs > PLUGIN_DOC_BOUND {
        rec.fail(format!(
            "plug-in store holds {docs} documents at session end (bound {PLUGIN_DOC_BOUND})"
        ));
    }
}

// ---------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------

pub enum Workload {
    ClientRead(ClientRead),
    ServerRender(Box<ServerRender>),
    CartWrite(CartWrite),
}

pub struct ClientRead {
    server: Rc<RefCell<AppServer>>,
    ids: Vec<String>,
    refs_per_article: String,
    zipf: Zipf,
    rng: Rng,
    interaction: u64,
    base: BTreeMap<String, u64>,
}

pub struct ServerRender {
    gs: GovernedServer,
    /// Corpus the server is rebuilt from at every window start.
    corpus_xml: String,
    ids: Vec<String>,
    refs_per_article: String,
    zipf: Zipf,
    rng: Rng,
    nav: u64,
    /// Governor virtual clock (closed loop: next arrival = last finish).
    vnow: u64,
    base: BTreeMap<String, u64>,
    /// `/metrics` counters accumulated by servers replaced by `restart`.
    carried: BTreeMap<&'static str, u64>,
}

/// What the cart bridge observed while driving the cluster.
#[derive(Default)]
struct BridgeStats {
    advance_ticks: u64,
    scrub_ticks: u64,
    ack_waits: Vec<u64>,
    unacked: u64,
}

pub struct CartWrite {
    cluster: Rc<RefCell<Cluster>>,
    clock: Rc<Cell<u64>>,
    bridge: Rc<RefCell<BridgeStats>>,
    order: Vec<usize>,
    rng: Rng,
    session: u64,
    interaction: u64,
    base: BTreeMap<String, u64>,
    base_frames: u64,
    base_snapshots: u64,
}

impl Workload {
    /// Corpus generation plus server or cluster construction and loads:
    /// what `setup_s` times.
    pub fn setup(kind: WorkloadKind, seed: u64) -> Result<Workload, String> {
        let spec = corpus_spec(seed);
        let xml = generate_corpus(&spec);
        let ids = article_ids(&spec);
        let refs_per_article = spec.references_per_article.to_string();
        let rng = Rng::new(seed, 2);
        Ok(match kind {
            WorkloadKind::ClientRead => {
                let server = AppServer::new(&xml).map_err(|e| format!("server: {e}"))?;
                Workload::ClientRead(ClientRead {
                    server: Rc::new(RefCell::new(server)),
                    zipf: Zipf::new(ids.len()),
                    ids,
                    refs_per_article,
                    rng,
                    interaction: 0,
                    base: BTreeMap::new(),
                })
            }
            WorkloadKind::ServerRender => {
                let server = AppServer::new(&xml).map_err(|e| format!("server: {e}"))?;
                Workload::ServerRender(Box::new(ServerRender {
                    gs: GovernedServer::new(server, GovernorConfig::default()),
                    corpus_xml: xml,
                    zipf: Zipf::new(ids.len()),
                    ids,
                    refs_per_article,
                    rng,
                    nav: 0,
                    vnow: 0,
                    base: BTreeMap::new(),
                    carried: BTreeMap::new(),
                }))
            }
            WorkloadKind::CartWrite => {
                let mut cluster = Cluster::new(ClusterConfig {
                    seed: CLUSTER_SEED,
                    ..ClusterConfig::default()
                });
                cluster
                    .load("corpus.xml", &xml)
                    .ok_or("cluster could not load corpus.xml")?;
                for c in 0..CARTS {
                    cluster
                        .load(&cart_uri(c), "<cart/>")
                        .ok_or("cluster could not load a cart")?;
                }
                Workload::CartWrite(CartWrite {
                    cluster: Rc::new(RefCell::new(cluster)),
                    clock: Rc::new(Cell::new(0)),
                    bridge: Rc::new(RefCell::new(BridgeStats::default())),
                    order: Vec::new(),
                    rng,
                    session: 0,
                    interaction: 0,
                    base: BTreeMap::new(),
                    base_frames: 0,
                    base_snapshots: 0,
                })
            }
        })
    }

    /// Reads the counters every later snapshot is a delta from.
    pub fn baseline(&mut self) -> Result<(), String> {
        match self {
            Workload::ClientRead(w) => {
                w.base = parse_metrics(&w.server.borrow_mut().handle("/metrics").body);
            }
            Workload::ServerRender(w) => {
                w.base = parse_metrics(&w.gs.server.handle("/metrics").body);
            }
            Workload::CartWrite(w) => {
                w.base = parse_metrics(&w.metrics_body()?);
                let st = w.cluster.borrow().stats();
                w.base_frames = st.frames_shipped;
                w.base_snapshots = st.snapshots_shipped;
            }
        }
        Ok(())
    }

    pub fn run_window(&mut self, rec: &mut Recorder) -> Result<(), String> {
        match self {
            Workload::ClientRead(w) => {
                for _ in 0..READ_SESSIONS_PER_WINDOW {
                    w.session(rec);
                    rec.reference();
                }
            }
            Workload::ServerRender(w) => {
                if rec.window > 0 {
                    w.restart(rec)?;
                }
                let docs = w.gs.server.db.store.borrow().doc_count() as u64;
                for n in 0..NAVS_PER_WINDOW {
                    w.navigate(rec);
                    if n % NAVS_PER_REFERENCE == NAVS_PER_REFERENCE - 1 {
                        rec.reference();
                    }
                }
                let grown = w.gs.server.db.store.borrow().doc_count() as u64 - docs;
                rec.add("server_store_docs_added", grown);
            }
            Workload::CartWrite(w) => {
                for _ in 0..CART_SESSIONS_PER_WINDOW {
                    w.session(rec);
                    rec.reference();
                }
            }
        }
        Ok(())
    }

    /// Refreshes the counters read from the program (untimed).
    pub fn snapshot_counters(&mut self, rec: &mut Recorder) -> Result<(), String> {
        match self {
            Workload::ClientRead(w) => {
                let body = w.server.borrow_mut().handle("/metrics").body;
                record_metric_deltas(rec, &w.base, &body);
            }
            Workload::ServerRender(w) => {
                let body = w.gs.server.handle("/metrics").body;
                record_metric_deltas(rec, &w.base, &body);
                for (counter, n) in &w.carried {
                    rec.add(counter, *n);
                }
            }
            Workload::CartWrite(w) => {
                let body = w.metrics_body()?;
                record_metric_deltas(rec, &w.base, &body);
                let st = w.cluster.borrow().stats();
                rec.set("frames_shipped", st.frames_shipped - w.base_frames);
                rec.set("snapshots_shipped", st.snapshots_shipped - w.base_snapshots);
                let b = w.bridge.borrow();
                rec.set("advance_ticks", b.advance_ticks);
                rec.set("scrub_ticks", b.scrub_ticks);
                rec.set("unacked_writes", b.unacked);
                rec.ack_wait_ticks.clone_from(&b.ack_waits);
                rec.set("ack_wait_ticks_total", b.ack_waits.iter().sum());
            }
        }
        Ok(())
    }

    /// End-of-run checks.
    pub fn finish(&mut self, rec: &mut Recorder) {
        if let Workload::CartWrite(w) = self {
            w.finish(rec);
        }
    }
}

impl ClientRead {
    /// One session: a fresh plug-in loads the migrated page, then views
    /// `VIEWS` Zipf-drawn articles. The first view fetches the whole
    /// corpus from the origin; the rest hit the plug-in's document cache.
    fn session(&mut self, rec: &mut Recorder) {
        let server = self.server.clone();
        let (mut p, _) = rec.timed(|| {
            let p = Plugin::new(PluginConfig::default());
            p.host.borrow_mut().net.register(ORIGIN, 10, move |req| {
                trace::span("browser.net.service", || {
                    let resp = trace::span("appserver.server.handle", || {
                        server.borrow_mut().handle(&req.url)
                    });
                    Response {
                        status: resp.status,
                        body: resp.body,
                        content_type: "application/xml".to_string(),
                    }
                })
            });
            p
        });
        trace::set_interaction(self.interaction, rec.seg());
        let (loaded, ns) =
            rec.timed(|| trace::span("core.plugin.load_page", || p.load_page(READ_PAGE)));
        rec.page_load(ns);
        if let Err(e) = loaded {
            rec.fail(format!("client_read load_page: {e}"));
            return;
        }
        for _ in 0..VIEWS {
            let id = self.ids[self.zipf.draw(&mut self.rng)].clone();
            self.interaction += 1;
            trace::set_interaction(self.interaction, rec.seg());
            let set = format!(r#"replace value of node //span[@id="target"] with "{id}""#);
            let (res, ns) = rec.timed(|| -> XdmResult<u64> {
                trace::span("core.plugin.eval", || p.eval(&set))?;
                trace::span("core.plugin.eval", || p.eval(READ_BEHIND))?;
                trace::span("core.plugin.run_until_idle", || p.run_until_idle())
            });
            rec.latency(ns);
            if let Err(e) = res {
                rec.fail(format!("client_read view {id}: {e}"));
                continue;
            }
            let (refcount, title, mode) = (
                text_of(&p, "refcount"),
                text_of(&p, "title"),
                text_of(&p, "mode"),
            );
            if refcount != self.refs_per_article
                || !title.ends_with(&format!("({id})"))
                || mode != "fresh"
            {
                rec.fail(format!(
                    "client_read view {id}: refcount {refcount:?}, title {title:?}, mode {mode:?}"
                ));
            }
        }
        rec.add("interactions", VIEWS as u64);
        end_session(rec, &mut p, ORIGIN_HOST, VIEWS as u64);
    }
}

impl ServerRender {
    /// Rebuilds the server between windows (untimed). Every query leaves
    /// its constructed result document in the server's store for good
    /// (`appserver.xmldb.store_docs_per_op`), about 76 KB per `/page`;
    /// the restart keeps memory and per-request cost from drifting with
    /// run length. Counters read so far are carried across it.
    fn restart(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let server = AppServer::new(&self.corpus_xml).map_err(|e| format!("server: {e}"))?;
        self.gs = GovernedServer::new(server, GovernorConfig::default());
        self.vnow = 0;
        for (_, counter) in SERVER_COUNTERS {
            self.carried.insert(counter, rec.count(counter));
        }
        self.base = parse_metrics(&self.gs.server.handle("/metrics").body);
        Ok(())
    }

    /// One navigation: GET `/page?article=ID` (every 20th: `/index`)
    /// through the governor, then the returned HTML loads into a fresh
    /// plug-in.
    fn navigate(&mut self, rec: &mut Recorder) {
        self.nav += 1;
        let article = self.ids[self.zipf.draw(&mut self.rng)].clone();
        let url = if self.nav.is_multiple_of(INDEX_EVERY) {
            "/index".to_string()
        } else {
            format!("/page?article={article}")
        };
        trace::set_interaction(self.nav, rec.seg());
        let gs = &mut self.gs;
        let vnow = self.vnow;
        let (res, ns) = rec.timed(|| {
            let id = match trace::span("appserver.governor.submit", || gs.submit(&url, vnow)) {
                Admission::Queued(id) => id,
                Admission::Rejected(c) => return Err(format!("shed: {:?}", c.outcome)),
            };
            let done = trace::span("appserver.governor.run_until", || gs.run_until(vnow));
            let Some(c) = done.into_iter().find(|c| c.id == id) else {
                return Err("request not served".to_string());
            };
            let t = std::time::Instant::now();
            let mut p = Plugin::new(PluginConfig::default());
            let loaded = trace::span("core.plugin.load_page", || p.load_page(&c.response.body));
            let load_ns = t.elapsed().as_nanos() as u64;
            Ok((c, p, loaded, load_ns))
        });
        rec.latency(ns);
        rec.add("interactions", 1);
        let (c, p, loaded, load_ns) = match res {
            Ok(r) => r,
            Err(e) => {
                rec.fail(format!("server_render {url}: {e}"));
                return;
            }
        };
        rec.page_load(load_ns);
        self.vnow = c.finished;
        let model_ms = c.finished - c.arrival - c.queue_delay_ms;
        rec.add("origin_requests", 1);
        rec.add("net_bytes", c.response.body.len() as u64);
        rec.add("governor_requests", 1);
        rec.add("governor_model_ms", model_ms);
        rec.add(
            "governor_fuel",
            model_ms.saturating_sub(1) * self.gs.gov.cfg.fuel_per_ms,
        );
        if trace::enabled() {
            rec.model_ms_traced += model_ms;
        }
        let body = &c.response.body;
        let ok_page = if url == "/index" {
            body.contains("<ul id=\"journals\">") && body.contains("<li id=\"j3\">")
        } else {
            body.contains("<table id=\"refs\">")
                && body.contains(&format!("({article})"))
                && body.contains(&format!(
                    "<span id=\"refcount\">{}</span>",
                    self.refs_per_article
                ))
        };
        if c.outcome != Outcome::Served || c.response.status != 200 || !ok_page {
            rec.fail(format!(
                "server_render {url}: {:?} status {}, expected content {}",
                c.outcome,
                c.response.status,
                if ok_page { "present" } else { "missing" }
            ));
        }
        if let Err(e) = loaded {
            rec.fail(format!("server_render load_page {url}: {e}"));
        }
        let docs = p.store.borrow().doc_count() as u64;
        rec.max_plugin_docs = rec.max_plugin_docs.max(docs);
        rec.add("sessions", 1);
    }
}

fn cart_uri(c: usize) -> String {
    format!("cart-{c}.xml")
}

fn count_items(xml: &str) -> usize {
    xml.matches("<item ").count()
}

impl CartWrite {
    fn metrics_body(&self) -> Result<String, String> {
        let now = self.clock.get();
        match self.cluster.borrow_mut().submit("/metrics", now) {
            Submitted::Done(c) => Ok(c.response.body),
            Submitted::Pending(_) => Err("/metrics did not answer at once".to_string()),
        }
    }

    /// The bridge from one plug-in's virtual network into the shared
    /// cluster: a write that is not acked at once is resolved by stepping
    /// the cluster clock until its completion appears.
    fn wire(&self, p: &mut Plugin) {
        let cluster = self.cluster.clone();
        let clock = self.clock.clone();
        let bridge = self.bridge.clone();
        p.host.borrow_mut().net.register(CLUSTER, 10, move |req| {
            trace::span("browser.net.service", || {
                let mut t = clock.get();
                let submitted = trace::span("appserver.cluster.submit", || {
                    cluster.borrow_mut().submit(&req.url, t)
                });
                let mut b = bridge.borrow_mut();
                let completion = match submitted {
                    Submitted::Done(c) => Some(*c),
                    Submitted::Pending(id) => {
                        let mut found = None;
                        let mut ticks = 0;
                        while found.is_none() && ticks < ACK_MAX_TICKS {
                            t += ACK_STEP_MS;
                            ticks += 1;
                            let scrubs = cluster.borrow().integrity_stats().scrub_cycles;
                            let sid = trace::enter("appserver.cluster.advance");
                            let out = cluster.borrow_mut().advance(t);
                            trace::exit(sid);
                            if cluster.borrow().integrity_stats().scrub_cycles != scrubs {
                                trace::relabel(sid, "appserver.cluster.scrub_tick");
                                b.scrub_ticks += 1;
                            }
                            found = out.into_iter().find(|c| c.id == id);
                        }
                        b.advance_ticks += ticks;
                        b.ack_waits.push(ticks);
                        found
                    }
                };
                clock.set(t);
                match completion {
                    Some(c)
                        if c.response.status == 200 && c.outcome == ClusterOutcome::AckedUpdate =>
                    {
                        Response {
                            status: 200,
                            body: "<ok/>".to_string(),
                            content_type: "application/xml".to_string(),
                        }
                    }
                    other => {
                        b.unacked += 1;
                        Response {
                            status: other.map_or(503, |c| c.response.status),
                            body: "<error>write not acknowledged</error>".to_string(),
                            content_type: "application/xml".to_string(),
                        }
                    }
                }
            })
        });
    }

    /// One write interaction: stamp the op, issue the `behind` update,
    /// drain until the listener saw the ack.
    fn write(&mut self, rec: &mut Recorder, p: &mut Plugin, marker: &str, xq: &str) {
        self.interaction += 1;
        trace::set_interaction(self.interaction, rec.seg());
        let set = format!(r#"replace value of node //span[@id="op"] with "{marker}""#);
        let behind = format!(
            r#"on event "stateChanged" behind browser:httpGet("{CLUSTER}update?xq={xq}") attach listener local:onAck"#
        );
        let (res, ns) = rec.timed(|| -> XdmResult<u64> {
            trace::span("core.plugin.eval", || p.eval(&set))?;
            trace::span("core.plugin.eval", || p.eval(&behind))?;
            trace::span("core.plugin.run_until_idle", || p.run_until_idle())
        });
        rec.latency(ns);
        rec.add("interactions", 1);
        rec.add("writes", 1);
        if let Err(e) = res {
            rec.fail(format!("cart_write {marker}: {e}"));
        }
    }

    /// One session: a fresh plug-in loads the cart page, adds `ITEMS`
    /// items to one cart, then checks the cart out (deletes every item).
    fn session(&mut self, rec: &mut Recorder) {
        if self.order.is_empty() {
            self.order = (0..CARTS).collect();
            self.rng.shuffle(&mut self.order);
        }
        let cart = self.order.pop().unwrap_or(0);
        let uri = cart_uri(cart);
        self.session += 1;
        let (mut p, _) = rec.timed(|| {
            let mut p = Plugin::new(PluginConfig::default());
            self.wire(&mut p);
            p
        });
        trace::set_interaction(self.interaction, rec.seg());
        let (loaded, ns) =
            rec.timed(|| trace::span("core.plugin.load_page", || p.load_page(CART_PAGE)));
        rec.page_load(ns);
        if let Err(e) = loaded {
            rec.fail(format!("cart_write load_page: {e}"));
            return;
        }
        let on_shard0 = u64::from(self.cluster.borrow().owner(&uri) == 0);
        let mut markers = Vec::with_capacity(ITEMS);
        for k in 0..ITEMS {
            let sku = self.rng.next() % 1_000_000;
            let marker = format!("s{}k{k}-{sku:06}", self.session);
            let xq = format!(
                "insert node <item id=%22{marker}%22 sku=%22{sku:06}%22 qty=%22{}%22/> into doc(%22{uri}%22)/cart",
                1 + sku % 4
            );
            self.write(rec, &mut p, &marker, &xq);
            markers.push(marker);
        }
        // every acked item must be in the cluster, and nothing else
        let page = p.serialize_page();
        let acked = li_texts(&page, "acked");
        let stored = self.cluster.borrow().serialize(&uri).unwrap_or_default();
        let missing: Vec<&String> = acked
            .iter()
            .filter(|m| !stored.contains(m.as_str()))
            .collect();
        if acked != markers || !missing.is_empty() || count_items(&stored) != ITEMS {
            rec.fail(format!(
                "cart_write {uri}: {} acked of {ITEMS}, {} missing, {} stored",
                acked.len(),
                missing.len(),
                count_items(&stored)
            ));
        }
        let checkout = format!("s{}-checkout", self.session);
        let xq = format!("delete nodes doc(%22{uri}%22)/cart/item");
        self.write(rec, &mut p, &checkout, &xq);
        let page = p.serialize_page();
        let stored = self.cluster.borrow().serialize(&uri).unwrap_or_default();
        if !li_texts(&page, "acked").contains(&checkout) || count_items(&stored) != 0 {
            rec.fail(format!("cart_write {uri}: checkout left {stored}"));
        }
        if !li_texts(&page, "failed").is_empty() {
            rec.fail(format!("cart_write {uri}: failed writes on the page"));
        }
        rec.add("writes_shard0", on_shard0 * (ITEMS as u64 + 1));
        end_session(rec, &mut p, CLUSTER_HOST, ITEMS as u64 + 1);
    }

    /// After quiesce every follower has caught up and every cart (all
    /// checked out) is empty.
    fn finish(&mut self, rec: &mut Recorder) {
        let from = self.clock.get();
        let (settled, _) = self.cluster.borrow_mut().quiesce(from);
        self.clock.set(settled);
        let cluster = self.cluster.borrow();
        for s in 0..cluster.shard_count() {
            if cluster.replica_lag(s).iter().any(|&lag| lag != 0) {
                rec.fail(format!("cart_write: shard {s} followers lag after quiesce"));
            }
        }
        for c in 0..CARTS {
            let xml = cluster.serialize(&cart_uri(c)).unwrap_or_default();
            if count_items(&xml) != 0 || !xml.contains("cart") {
                rec.fail(format!(
                    "cart_write: {} not empty after quiesce",
                    cart_uri(c)
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-layer report
// ---------------------------------------------------------------------

fn p_us(layers: &BTreeMap<&'static str, Vec<f64>>, name: &str, pct: f64) -> (f64, usize) {
    match layers.get(name) {
        Some(v) => {
            let s = sorted(v.clone());
            (percentile(&s, pct) / 1e3, s.len())
        }
        None => (0.0, 0),
    }
}

/// Every per-layer metric, by the same names on every workload; a layer a
/// workload bypasses reads 0.
pub fn per_layer(rec: &Recorder, layers: &LayerTimes, spans: usize) -> Vec<Metric> {
    let c = |name: &str| rec.count(name);
    let ops = c("interactions");
    let writes = c("writes");
    let t = &layers.total;
    let lat = |name: &'static str, span: &str, pct: f64| {
        let (v, n) = p_us(t, span, pct);
        m(name, v, "us", n)
    };
    // the app server's handler runs inside `handle` on the client-read
    // origin and inside the governor's `run_until` on server_render
    let handle_span = if t.contains_key("appserver.server.handle") {
        "appserver.server.handle"
    } else {
        "appserver.governor.run_until"
    };
    let (drain_self, drain_n) = p_us(&layers.self_time, "core.plugin.run_until_idle", 50.0);
    let measured_gov_ms: f64 = ["appserver.governor.submit", "appserver.governor.run_until"]
        .iter()
        .filter_map(|n| t.get(n))
        .flatten()
        .sum::<f64>()
        / 1e6;
    let server_lookups = c("server_plan_hits") + c("server_plan_misses");
    let server_ratio = ratio(c("server_plan_hits"), server_lookups);
    let is_write = writes > 0;
    let ack_waits = sorted(rec.ack_wait_ticks.iter().map(|&x| x as f64).collect());
    vec![
        lat(
            "core.plugin.load_page_us_p50",
            "core.plugin.load_page",
            50.0,
        ),
        lat("core.plugin.eval_us_p50", "core.plugin.eval", 50.0),
        m("core.plugin.drain_self_us_p50", drain_self, "us", drain_n),
        m(
            "core.plugin.doc_cache_hit_ratio",
            ratio(
                c("behind_calls").saturating_sub(c("origin_requests")),
                c("behind_calls"),
            ),
            "ratio",
            c("behind_calls") as usize,
        ),
        m(
            "core.plugin.plan_cache_hit_ratio",
            ratio(
                c("plugin_plan_hits"),
                c("plugin_plan_hits") + c("plugin_plan_misses"),
            ),
            "ratio",
            (c("plugin_plan_hits") + c("plugin_plan_misses")) as usize,
        ),
        lat("browser.net.service_us_p50", "browser.net.service", 50.0),
        m(
            "browser.net.bytes_per_op",
            ratio(c("net_bytes"), ops),
            "B",
            ops as usize,
        ),
        m(
            "browser.recovery.retries_per_op",
            ratio(c("retries"), ops),
            "count",
            ops as usize,
        ),
        m(
            "browser.recovery.stale_served",
            c("stale_served") as f64,
            "count",
            1,
        ),
        lat("appserver.server.handle_us_p50", handle_span, 50.0),
        lat("appserver.server.handle_us_p99", handle_span, 99.0),
        m(
            "appserver.governor.fuel_per_op",
            ratio(c("governor_fuel"), c("governor_requests")),
            "count",
            c("governor_requests") as usize,
        ),
        m(
            "appserver.governor.model_over_measured",
            if measured_gov_ms > 0.0 {
                rec.model_ms_traced as f64 / measured_gov_ms
            } else {
                0.0
            },
            "ratio",
            t.get("appserver.governor.run_until").map_or(0, Vec::len),
        ),
        m(
            "xquery.plancache.server_hit_ratio",
            if is_write { 0.0 } else { server_ratio },
            "ratio",
            server_lookups as usize,
        ),
        m(
            "xquery.plancache.write_hit_ratio",
            if is_write { server_ratio } else { 0.0 },
            "ratio",
            server_lookups as usize,
        ),
        m(
            "xquery.plancache.server_hits",
            c("server_plan_hits") as f64,
            "count",
            1,
        ),
        m(
            "xquery.plancache.server_misses",
            c("server_plan_misses") as f64,
            "count",
            1,
        ),
        m(
            "appserver.xmldb.store_docs_per_op",
            ratio(c("server_store_docs_added"), c("governor_requests")),
            "count",
            c("governor_requests") as usize,
        ),
        m(
            "dom.order.index_rebuilds_per_op",
            ratio(c("order_index_rebuilds"), ops),
            "count",
            ops as usize,
        ),
        m(
            "dom.order.sort_elided_ratio",
            ratio(c("sorts_elided"), c("sorts_elided") + c("sorts_performed")),
            "ratio",
            (c("sorts_elided") + c("sorts_performed")) as usize,
        ),
        lat(
            "appserver.cluster.submit_us_p50",
            "appserver.cluster.submit",
            50.0,
        ),
        lat(
            "appserver.cluster.submit_us_p99",
            "appserver.cluster.submit",
            99.0,
        ),
        lat(
            "appserver.cluster.advance_us_p50",
            "appserver.cluster.advance",
            50.0,
        ),
        lat(
            "appserver.cluster.scrub_tick_us_p50",
            "appserver.cluster.scrub_tick",
            50.0,
        ),
        m(
            "appserver.cluster.scrub_ticks_per_op",
            ratio(c("scrub_ticks"), ops),
            "count",
            ops as usize,
        ),
        m(
            "appserver.cluster.ack_wait_ticks_p50",
            percentile(&ack_waits, 50.0),
            "count",
            ack_waits.len(),
        ),
        m(
            "appserver.cluster.frames_shipped_per_write",
            ratio(c("frames_shipped"), writes),
            "count",
            writes as usize,
        ),
        m(
            "appserver.cluster.snapshots_shipped",
            c("snapshots_shipped") as f64,
            "count",
            1,
        ),
        m(
            "storage.wal.appends_per_write",
            ratio(c("wal_appends"), c("writes_shard0")),
            "count",
            c("writes_shard0") as usize,
        ),
        m(
            "storage.wal.fsyncs_per_write",
            ratio(c("wal_fsyncs"), c("writes_shard0")),
            "count",
            c("writes_shard0") as usize,
        ),
        m(
            "storage.checkpoints_per_1k_writes",
            ratio(c("checkpoints") * 1000, c("writes_shard0")),
            "count",
            c("writes_shard0") as usize,
        ),
        m(
            "bench.max_plugin_docs",
            rec.max_plugin_docs as f64,
            "count",
            c("sessions") as usize,
        ),
        m("bench.spans", spans as f64, "count", 1),
    ]
}
