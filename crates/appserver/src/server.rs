//! The application server: HTTP-ish routing over the XML database, with
//! the per-deployment metrics of the Figure 2 experiment.
//!
//! Requests can carry a *deadline budget* (engine fuel units, see
//! [`AppServer::handle_budgeted`]): the evaluator is preempted with
//! `XQIB0014` once the budget is spent, which the HTTP layer maps to 504.
//! The request governor can then degrade a render-class request to the
//! whole stored document instead of failing it
//! ([`AppServer::degraded_snapshot`]) — the paper's own "serve whole
//! documents rather than individual queries to documents" caching argument
//! (§6.1).

use xqib_browser::net::percent_decode;
use xqib_storage::VirtualDisk;
use xqib_xdm::XdmResult;

use crate::metrics::{self, OuterStats, ServerMetrics};
use crate::render;
use crate::xmldb::{DurabilityConfig, XmlDb};

/// An application-server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerResponse {
    pub status: u16,
    pub body: String,
    /// Response headers (`Retry-After`, `X-XQIB-Degraded`, …).
    pub headers: Vec<(String, String)>,
}

impl ServerResponse {
    pub fn new(status: u16, body: impl Into<String>) -> Self {
        ServerResponse {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first header with this name (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The 421 ownership/fencing refusal a shard returns for a document it
    /// does not serve (misroute, or migrated away under a newer topology
    /// epoch). Carries the current owner and epoch so clients re-resolve
    /// instead of retrying the same shard.
    pub fn misrouted(shard: usize, uri: &str, owner: usize, epoch: u64) -> Self {
        ServerResponse::new(
            421,
            format!(
                "<error code=\"XQIB0015\">shard {shard} does not serve {uri}; \
                 owner is shard {owner} at epoch {epoch}</error>"
            ),
        )
        .with_header("X-XQIB-Owner", &owner.to_string())
        .with_header("X-XQIB-Epoch", &epoch.to_string())
    }
}

/// The Reference 2.0 application server.
pub struct AppServer {
    pub db: XmlDb,
    pub metrics: ServerMetrics,
}

impl AppServer {
    /// Builds a server over a corpus document.
    pub fn new(corpus_xml: &str) -> XdmResult<Self> {
        Self::with_db(XmlDb::new(), corpus_xml)
    }

    /// Builds a durable server: the corpus load and every applied update
    /// are journaled to `disk` (see [`XmlDb::durable`]).
    pub fn new_durable(
        corpus_xml: &str,
        disk: VirtualDisk,
        cfg: DurabilityConfig,
    ) -> XdmResult<Self> {
        Self::with_db(XmlDb::durable(disk, cfg), corpus_xml)
    }

    /// Rebuilds a durable server from a crashed disk image (checkpoint +
    /// committed WAL suffix; see [`XmlDb::recover`]).
    pub fn recover(disk: VirtualDisk, cfg: DurabilityConfig) -> XdmResult<Self> {
        Ok(Self::from_db(XmlDb::recover(disk, cfg)?))
    }

    fn with_db(mut db: XmlDb, corpus_xml: &str) -> XdmResult<Self> {
        db.load(render::CORPUS_URI, corpus_xml)?;
        Ok(Self::from_db(db))
    }

    /// Wraps an already-populated database — no corpus load. Cluster
    /// shards use this: only the shard owning `corpus.xml` holds the
    /// corpus; the rest serve whatever documents route to them.
    pub fn from_db(db: XmlDb) -> Self {
        AppServer {
            db,
            metrics: ServerMetrics::default(),
        }
    }

    /// The whole stored document a degraded request falls back to:
    /// `/doc?uri=U` degrades to `U`, every other render-class route
    /// (`/page`, `/index`) to the corpus. The body is the same
    /// digest-checked serialisation a fresh `/doc` serves at that moment —
    /// whole, never torn — but the read is not counted as a `/doc` read.
    /// `None` when the document is unbound or its digest check refuses it.
    /// The response carries an `X-XQIB-Degraded` marker so clients can tell
    /// a fallback from a fresh render.
    pub fn degraded_snapshot(&self, url: &str) -> Option<ServerResponse> {
        let (path, query) = split_url(url);
        let uri = match path.as_str() {
            "/doc" => param(&query, "uri")?,
            _ => render::CORPUS_URI.to_string(),
        };
        let body = self.db.verified_serialize(&uri).ok()??;
        Some(
            ServerResponse::new(200, body)
                .with_header("X-XQIB-Degraded", "whole-document-snapshot"),
        )
    }

    /// Handles one request URL (path + query). Routes:
    ///
    /// * `/page?article=ID` — server-rendered article page (the "before"
    ///   deployment: one XQuery evaluation per interaction);
    /// * `/index` — server-rendered journal index;
    /// * `/doc?uri=U` — a whole stored document (the migrated deployment's
    ///   cache-friendly REST API: "serve whole documents rather than
    ///   individual queries to documents", §6.1);
    /// * `/query?xq=Q` — ad-hoc server-side XQuery (legacy fine-grained API);
    /// * `/update?xq=Q` — updating XQuery (journaled in durable mode);
    /// * `/metrics` — every counter as XML (see the `metrics` module).
    pub fn handle(&mut self, url: &str) -> ServerResponse {
        self.handle_budgeted(url, None).0
    }

    /// Like [`Self::handle`], but with an optional deadline budget in
    /// engine fuel units. Returns the response and the fuel the evaluation
    /// consumed (0 for routes that evaluate nothing), which the request
    /// governor converts back into virtual service time.
    pub fn handle_budgeted(&mut self, url: &str, budget: Option<u64>) -> (ServerResponse, u64) {
        self.handle_with(url, budget, &OuterStats::default())
    }

    /// Like [`Self::handle_budgeted`], on behalf of an outer layer (the
    /// governor, the cluster) whose counter groups `/metrics` reports
    /// alongside the server's own.
    pub(crate) fn handle_with(
        &mut self,
        url: &str,
        budget: Option<u64>,
        outer: &OuterStats<'_>,
    ) -> (ServerResponse, u64) {
        self.metrics.requests += 1;
        let (path, query) = split_url(url);
        let (resp, fuel_used) = match path.as_str() {
            "/page" => match param(&query, "article") {
                Some(id) => self.render_query(&render::article_page_query(&id), budget),
                None => (bad_request("missing article parameter"), 0),
            },
            "/index" => self.render_query(&render::index_page_query(), budget),
            "/doc" => match param(&query, "uri") {
                // the read path recomputes the document's content digest
                // against the one sealed at journal time: bytes that no
                // longer hash to what was acknowledged are never served
                Some(uri) => {
                    let recorded = self.db.digest_of(&uri).is_some();
                    match self.db.verified_serialize(&uri) {
                        Ok(Some(body)) => {
                            if recorded {
                                self.metrics.doc_reads_verified += 1;
                            }
                            (ServerResponse::new(200, body), 0)
                        }
                        Ok(None) => (not_found(&format!("no document {uri}")), 0),
                        Err(e) => {
                            self.metrics.doc_reads_refused += 1;
                            (
                                ServerResponse::new(
                                    500,
                                    format!("<error code=\"XQIB0019\">{e}</error>"),
                                ),
                                0,
                            )
                        }
                    }
                }
                None => (bad_request("missing uri parameter"), 0),
            },
            "/query" | "/update" => match param(&query, "xq") {
                Some(xq) => self.render_query(&xq, budget),
                None => (bad_request("missing xq parameter"), 0),
            },
            "/metrics" => (
                ServerResponse::new(200, metrics::render(Some(self), outer)),
                0,
            ),
            other => (not_found(&format!("no route {other}")), 0),
        };
        self.metrics.bytes_out += resp.body.len() as u64;
        (resp, fuel_used)
    }

    fn render_query(&mut self, xq: &str, budget: Option<u64>) -> (ServerResponse, u64) {
        let (result, fuel_used) = self.db.query_with_deadline(xq, budget);
        let resp = match result {
            Ok(body) => ServerResponse::new(200, body),
            Err(e) => ServerResponse::new(status_for(&e.code), format!("<error>{e}</error>")),
        };
        (resp, fuel_used)
    }
}

/// Maps an engine error code to an HTTP status: a missing source document
/// is the client's 404, static (parse/type) errors are the client's 400, a
/// blown request deadline is a 504, anything dynamic is the server's 500.
fn status_for(code: &str) -> u16 {
    if code == "FODC0002" {
        404
    } else if code.starts_with("XPST") || code.starts_with("XQST") || code.starts_with("XQTY") {
        400
    } else if code == "XQIB0014" {
        504
    } else {
        500
    }
}

/// Splits a request URL into `(path, query)`. The scheme/host prefix and
/// any `#fragment` suffix are stripped; a URL with no path at all
/// (`http://host?x=1`) keeps its query and gets the root path.
pub(crate) fn split_url(url: &str) -> (String, String) {
    // strip #fragment first: fragments are client-side only
    let url = url.split_once('#').map_or(url, |(u, _)| u);
    // strip scheme://host if present; the path starts at the first '/',
    // or at '?' for empty-path URLs
    let rest = match url.split_once("://") {
        Some((_, r)) => match (r.find('/'), r.find('?')) {
            (Some(slash), Some(q)) if q < slash => &r[q..],
            (Some(slash), _) => &r[slash..],
            (None, Some(q)) => &r[q..],
            (None, None) => "",
        },
        None => url,
    };
    match rest.split_once('?') {
        Some((p, q)) => (normalize_path(p), q.to_string()),
        None => (normalize_path(rest), String::new()),
    }
}

fn normalize_path(p: &str) -> String {
    if p.is_empty() {
        "/".to_string()
    } else {
        p.to_string()
    }
}

/// The query parameter `name`, with the same semantics as
/// `xqib_browser::net::Request::query_param`: pairs without `=` are
/// skipped rather than aborting the scan, and values get real `%xx`
/// percent-decoding (one shared helper, not a second buggy copy).
pub(crate) fn param(query: &str, name: &str) -> Option<String> {
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        if k == name {
            return Some(percent_decode(v));
        }
    }
    None
}

fn not_found(msg: &str) -> ServerResponse {
    ServerResponse::new(404, format!("<error>{msg}</error>"))
}

/// A malformed request (missing/invalid parameters) is the client's fault:
/// 400 with a distinct error class, never the 404 of a missing resource.
fn bad_request(msg: &str) -> ServerResponse {
    ServerResponse::new(400, format!("<error class=\"bad-request\">{msg}</error>"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};
    use proptest::prelude::*;

    fn server() -> AppServer {
        AppServer::new(&generate_corpus(&CorpusSpec::default())).unwrap()
    }

    #[test]
    fn page_route_renders_article() {
        let mut s = server();
        let r = s.handle("http://ref2.example/page?article=j0-v0-i0-a0");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("<table id=\"refs\">"));
        assert_eq!(s.metrics.requests, 1);
        assert_eq!(s.db.evals, 1);
        assert!(s.metrics.bytes_out > 0);
        // The counters belong to this server's store, so they are exact.
        // The compiled render streams every path in document order, so it
        // neither sorts nor needs the order index; it takes the article
        // from one probe of the attribute index, built for it.
        assert_eq!(
            s.db.engine_stats(),
            xqib_dom::EngineStats {
                order_index_rebuilds: 0,
                sorts_performed: 0,
                sorts_elided: 0,
                attr_index_builds: 1,
                attr_index_probes: 1,
            }
        );
        // The interpreter renders the same page; its two multi-node steps
        // each run from a single context node, so their normalisation is
        // elided and the render still never needs the order index. It
        // walks instead of probing the attribute index.
        let mut s = server();
        s.db.plan_mode = false;
        let interpreted = s.handle("http://ref2.example/page?article=j0-v0-i0-a0");
        assert_eq!(interpreted.body, r.body);
        assert_eq!(
            s.db.engine_stats(),
            xqib_dom::EngineStats {
                order_index_rebuilds: 0,
                sorts_performed: 0,
                sorts_elided: 2,
                attr_index_builds: 0,
                attr_index_probes: 0,
            }
        );
    }

    /// Nodes held by the store beyond each document's document node.
    fn arena_content(s: &AppServer) -> usize {
        let store = s.db.store.borrow();
        (0..store.doc_count())
            .map(|i| store.doc(xqib_dom::DocId(i as u32)).len() - 1)
            .sum()
    }

    #[test]
    fn renders_free_their_construction_arenas() {
        let mut s = server();
        let pages = ["j0-v0-i0-a0", "j1-v0-i1-a1", "j0-v1-i0-a2"];
        assert_eq!(s.handle("/page?article=j0-v0-i0-a0").status, 200);
        let after_first = arena_content(&s);
        for i in 1..1000 {
            let r = s.handle(&format!("/page?article={}", pages[i % pages.len()]));
            assert_eq!(r.status, 200);
        }
        // each render leaves only an empty document in its arena's slot
        let after = arena_content(&s);
        assert!(
            after <= after_first + 16,
            "arena content grew from {after_first} to {after}"
        );
    }

    #[test]
    fn doc_route_serves_whole_documents_without_evals() {
        let mut s = server();
        let r = s.handle("/doc?uri=corpus.xml");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("<library>"));
        assert_eq!(s.db.evals, 0, "no server-side XQuery");
    }

    #[test]
    fn statuses_split_client_errors_from_missing_resources() {
        let mut s = server();
        // 400: syntactically broken requests (missing required parameters)
        for url in ["/page", "/doc", "/query", "/update", "/doc?x=1"] {
            let r = s.handle(url);
            assert_eq!(r.status, 400, "{url} is a client error");
            assert!(
                r.body.contains("class=\"bad-request\""),
                "{url}: {}",
                r.body
            );
            assert!(r.body.contains("missing"), "{url}: {}", r.body);
        }
        // 404: well-formed requests for resources that do not exist
        for url in ["/nope", "/doc?uri=missing.xml"] {
            let r = s.handle(url);
            assert_eq!(r.status, 404, "{url} is a missing resource");
            assert!(!r.body.contains("bad-request"), "{url}: {}", r.body);
        }
        // 500: a well-formed request whose evaluation fails dynamically
        assert_eq!(s.handle("/query?xq=1+div+0").status, 500);
        assert_eq!(s.metrics.requests, 8);
    }

    #[test]
    fn query_route() {
        let mut s = server();
        let r = s.handle("/query?xq=count(doc('corpus.xml')//article)");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "48");
        let r = s.handle("/query?xq=1+div+0");
        assert_eq!(r.status, 500, "dynamic error stays a server error");
    }

    #[test]
    fn error_codes_map_to_http_statuses() {
        let mut s = server();
        // missing source document → client 404
        let r = s.handle("/query?xq=doc('nope.xml')");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("FODC0002"));
        // parse error → client 400
        let r = s.handle("/query?xq=1+%2B");
        assert_eq!(r.status, 400);
        // unknown function → static error → client 400
        let r = s.handle("/query?xq=no:such-function()");
        assert_eq!(r.status, 400);
    }

    #[test]
    fn params_are_percent_decoded_and_flags_are_skipped() {
        let mut s = server();
        // %28/%29 parens and a valueless flag before the real parameter
        let r = s.handle("/query?flag&xq=count%28doc%28%27corpus.xml%27%29%2F%2Farticle%29");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "48");
    }

    #[test]
    fn update_route_mutates_and_journals() {
        let disk = xqib_storage::VirtualDisk::new();
        let corpus = generate_corpus(&CorpusSpec::default());
        let mut s =
            AppServer::new_durable(&corpus, disk.clone(), DurabilityConfig::default()).unwrap();
        let r = s.handle(
            "/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*",
        );
        assert_eq!(r.status, 200);
        assert!(
            s.db.durability_stats().wal_appends >= 2,
            "corpus load + update journaled"
        );
        let r = s.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "1");
        // the journaled update survives a crash + recovery
        disk.crash();
        let mut s2 = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
        assert_eq!(s2.db.durability_stats().recoveries, 1);
        let r = s2.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "1");
    }

    #[test]
    fn index_route() {
        let mut s = server();
        let r = s.handle("/index");
        assert!(r.body.contains("<ul id=\"journals\">"));
    }

    #[test]
    fn metrics_route_serializes_every_counter() {
        let mut s = server();
        s.handle("/page?article=j0-v0-i0-a0");
        let r = s.handle("/metrics");
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("<metrics>"), "{}", r.body);
        assert!(r.body.ends_with("</metrics>"));
        // a handful of load-bearing fields, incl. the overload counters
        for field in [
            "<requests>2</requests>",
            "<xquery-evals>1</xquery-evals>",
            "<admitted>0</admitted>",
            "<shed>0</shed>",
            "<degraded>0</degraded>",
            "<deadline-exceeded>0</deadline-exceeded>",
            "<queue-delay-p50-ms>0</queue-delay-p50-ms>",
            "<queue-delay-p99-ms>0</queue-delay-p99-ms>",
            "<plan-cache-hits>0</plan-cache-hits>",
            "<plan-cache-misses>1</plan-cache-misses>",
        ] {
            assert!(r.body.contains(field), "missing {field} in {}", r.body);
        }
    }

    #[test]
    fn deadline_budget_preempts_with_504() {
        let mut s = server();
        let (r, fuel) = s.handle_budgeted("/page?article=j0-v0-i0-a0", Some(10));
        assert_eq!(r.status, 504, "{}", r.body);
        assert!(r.body.contains("XQIB0014"), "{}", r.body);
        assert!(fuel >= 10, "charged at least the budget");
        // an unbudgeted retry succeeds
        let (r, fuel) = s.handle_budgeted("/page?article=j0-v0-i0-a0", None);
        assert_eq!(r.status, 200);
        assert!(fuel > 10, "a real render costs far more than the budget");
    }

    #[test]
    fn deadline_killed_update_has_no_effects() {
        let mut s = server();
        let (r, _) = s.handle_budgeted(
            "/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*",
            Some(3),
        );
        assert_eq!(r.status, 504, "{}", r.body);
        let r = s.handle("/query?xq=count(doc('corpus.xml')//note)");
        assert_eq!(r.body, "0", "the killed update applied nothing");
    }

    #[test]
    fn degraded_snapshot_serves_whole_documents() {
        let mut s = server();
        let snap = s.degraded_snapshot("/page?article=j0-v0-i0-a0").unwrap();
        assert_eq!(snap.status, 200);
        assert!(snap.body.starts_with("<library>"));
        assert_eq!(
            snap.header("X-XQIB-Degraded"),
            Some("whole-document-snapshot")
        );
        assert_eq!(
            s.degraded_snapshot("/doc?uri=corpus.xml").unwrap().body,
            snap.body
        );
        assert!(s.degraded_snapshot("/doc?uri=missing.xml").is_none());
        // the degraded body follows every write: a successful update…
        s.handle("/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*");
        let snap = s.degraded_snapshot("/index").unwrap();
        assert!(snap.body.contains("<note>hi</note>"));
        // …and an updating query
        s.handle(&xq_url(
            "/query",
            "insert node <memo>q</memo> into doc('corpus.xml')/*",
        ));
        let snap = s.degraded_snapshot("/page?article=j0-v0-i0-a0").unwrap();
        assert!(snap.body.contains("<memo>q</memo>"));
    }

    #[test]
    fn set_style_on_a_durable_server_is_journaled_and_sealed() {
        for route in ["/query", "/update"] {
            let disk = VirtualDisk::new();
            let corpus = generate_corpus(&CorpusSpec::default());
            let mut s =
                AppServer::new_durable(&corpus, disk.clone(), DurabilityConfig::default()).unwrap();
            let r = s.handle(&xq_url(
                route,
                "set style 'color' of doc('corpus.xml')/* to 'red'",
            ));
            assert_eq!(r.status, 200, "{route}: {}", r.body);
            let r = s.handle("/doc?uri=corpus.xml");
            assert_eq!(r.status, 200, "{route}: {}", r.body);
            assert!(r.body.starts_with("<library style=\"color: red\">"));
            // the rewrite was journaled: the recovered image serves it too
            disk.crash();
            let mut s = AppServer::recover(disk, DurabilityConfig::default()).unwrap();
            let recovered = s.handle("/doc?uri=corpus.xml");
            assert_eq!(recovered.status, 200, "{route}: {}", recovered.body);
            assert_eq!(recovered.body, r.body, "{route}");
        }
    }

    /// `/route?xq=<percent-encoded src>`.
    fn xq_url(route: &str, src: &str) -> String {
        let enc: String = src
            .bytes()
            .map(|b| match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect();
        format!("{route}?xq={enc}")
    }

    /// One step of the differential sequence below, against `doc`; `n`
    /// tags written nodes so every write is distinct. Returns the step's
    /// label.
    fn drive(s: &mut AppServer, kind: u8, doc: &str, n: u8) -> String {
        let into = format!("doc('{doc}')/*");
        match kind {
            0 => {
                let r = s.handle(&xq_url(
                    "/update",
                    &format!("insert node <i n=\"{n}\"/> into {into}"),
                ));
                format!("update {doc}: {}", r.status)
            }
            1 => {
                // fails before applying anything (conflicting renames)
                let r = s.handle(&xq_url(
                    "/update",
                    &format!("(rename node {into} as 'a', rename node {into} as 'b')"),
                ));
                assert_ne!(r.status, 200);
                format!("conflicting update {doc}")
            }
            2 => {
                // fails after its first statement's PUL was applied
                let r = s.handle(&xq_url(
                    "/update",
                    &format!("{{ insert node <half n=\"{n}\"/> into {into}; 1 div 0 }}"),
                ));
                assert_ne!(r.status, 200);
                format!("half-applied script {doc}")
            }
            3 => {
                let (r, _) = s.handle_budgeted(
                    &xq_url("/update", &format!("delete node {into}/*[1]")),
                    Some(3),
                );
                assert_eq!(r.status, 504, "{}", r.body);
                format!("deadline-killed update {doc}")
            }
            4 => {
                s.handle(&xq_url(
                    "/query",
                    &format!("replace value of node {into}/@n with '{n}'"),
                ));
                format!("updating query {doc}")
            }
            5 => {
                s.db.load(doc, &format!("<cart n=\"{n}\"><i/></cart>"))
                    .unwrap();
                format!("load {doc}")
            }
            _ => {
                // rewrites the style attribute through its own update list
                s.handle(&xq_url(
                    "/query",
                    &format!("set style 'color' of {into} to 'c{n}'"),
                ));
                format!("set style {doc}")
            }
        }
    }

    proptest! {
        /// Differential test of the degraded read: random successful,
        /// failing, half-applied and deadline-killed updates, updating
        /// queries, `set style` rewrites and loads, against an ephemeral
        /// and a durable server (small checkpoint threshold, so checkpoints
        /// interleave). After every step each document's degraded body
        /// equals the body of a fresh 200 `/doc`, or both are absent.
        #[test]
        fn degraded_snapshot_equals_a_fresh_doc_read(
            ops in prop::collection::vec((0u8..7, 0usize..3, any::<u8>()), 1..24),
        ) {
            let corpus = generate_corpus(&CorpusSpec {
                journals: 1,
                volumes_per_journal: 1,
                issues_per_volume: 1,
                articles_per_issue: 2,
                ..CorpusSpec::default()
            });
            let cfg = DurabilityConfig {
                group_commit: 2,
                checkpoint_threshold: 4096,
            };
            let mut servers = [
                AppServer::new(&corpus).unwrap(),
                AppServer::new_durable(&corpus, VirtualDisk::new(), cfg).unwrap(),
            ];
            let docs = [render::CORPUS_URI, "a.xml", "b.xml"];
            for s in &mut servers {
                let steps = std::iter::once(None).chain(ops.iter().map(Some));
                for (i, op) in steps.enumerate() {
                    let step = match op {
                        None => "construction".to_string(),
                        Some(&(kind, doc, n)) => drive(s, kind, docs[doc], n),
                    };
                    for d in docs {
                        let url = format!("/doc?uri={d}");
                        let degraded = s.degraded_snapshot(&url);
                        let fresh = s.handle(&url);
                        match degraded {
                            Some(r) => prop_assert!(
                                fresh.status == 200 && r.body == fresh.body,
                                "{} diverged from /doc after step {} ({})", d, i, step
                            ),
                            None => prop_assert!(
                                fresh.status != 200,
                                "{} missing its degraded body after step {} ({})", d, i, step
                            ),
                        }
                    }
                }
            }
        }
    }

    // ----- split_url / param edge cases -------------------------------------

    #[test]
    fn split_url_edge_cases() {
        assert_eq!(split_url("/page?a=1"), ("/page".into(), "a=1".into()));
        assert_eq!(
            split_url("http://h/page?a=1"),
            ("/page".into(), "a=1".into())
        );
        // fragments are stripped from path and query alike
        assert_eq!(split_url("/page#frag"), ("/page".into(), "".into()));
        assert_eq!(
            split_url("http://h/page?a=1#frag"),
            ("/page".into(), "a=1".into())
        );
        // empty-path URLs keep their query
        assert_eq!(split_url("http://h?x=1"), ("/".into(), "x=1".into()));
        assert_eq!(split_url("http://h"), ("/".into(), "".into()));
        assert_eq!(split_url("http://h#f"), ("/".into(), "".into()));
        // '?' before the first '/' still means empty path
        assert_eq!(
            split_url("http://h?x=/page"),
            ("/".into(), "x=/page".into())
        );
    }

    #[test]
    fn param_edge_cases() {
        assert_eq!(param("a=1&&b=2", "b").as_deref(), Some("2"));
        assert_eq!(param("a=1&b=2&", "b").as_deref(), Some("2"));
        assert_eq!(param("&a=1", "a").as_deref(), Some("1"));
        assert_eq!(param("flag&a=1", "flag"), None, "valueless pair skipped");
        // truncated %-escapes survive undecoded rather than panicking
        assert_eq!(param("a=%4", "a").as_deref(), Some("%4"));
        assert_eq!(param("a=%", "a").as_deref(), Some("%"));
        assert_eq!(param("a=%zz", "a").as_deref(), Some("%zz"));
    }

    proptest! {
        /// Round trip: a path/query pair assembled into each URL shape
        /// splits back into exactly the same pair, with or without a
        /// scheme/host prefix or a fragment suffix.
        #[test]
        fn split_url_round_trips(
            path_seg in "[a-z]{0,8}",
            query in "[a-z0-9=&%+]{0,16}",
            frag in "[a-z]{0,4}",
            host in "[a-z]{1,6}",
        ) {
            let path = format!("/{path_seg}");
            let assembled = [
                format!("{path}?{query}"),
                format!("http://{host}{path}?{query}"),
                format!("{path}?{query}#{frag}"),
                format!("http://{host}{path}?{query}#{frag}"),
            ];
            for url in &assembled {
                let (p, q) = split_url(url);
                prop_assert_eq!(&p, &path, "{}", url);
                prop_assert_eq!(&q, &query, "{}", url);
            }
        }

        /// `param` never panics and finds a present key through arbitrary
        /// junk separators (`&&`, trailing `&`, truncated escapes).
        #[test]
        fn param_is_total_and_finds_planted_keys(
            junk in "[a-z0-9=&%+]{0,24}",
            value in "[a-z0-9+%]{0,8}",
        ) {
            let q = format!("{junk}&needle={value}&{junk}");
            let got = param(&q, "needle");
            // the planted pair is always found unless the junk itself
            // plants an earlier `needle=`; either way a value comes back
            prop_assert!(got.is_some(), "{}", q);
            let _ = param(&junk, "absent"); // must not panic
        }
    }
}
