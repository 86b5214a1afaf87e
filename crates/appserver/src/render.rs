//! Server-side page rendering: the XQuery that the Reference 2.0
//! application server runs to produce article pages (the "before"
//! deployment of §6.1). The same rendering logic later runs in the browser
//! after migration — that is the whole point of the scenario.

/// The corpus document URI inside the XML database.
pub const CORPUS_URI: &str = "corpus.xml";

/// XQuery producing the browse page for one article: title, author, the
/// reference table and the reference statistics ("statistics, years…").
/// This is shared by the server renderer and the migrated client script.
pub fn article_body_query(article_id: &str) -> String {
    format!(
        r#"let $a := doc("{CORPUS_URI}")//article[@id="{article_id}"]
let $refs := $a/references/reference
return
  <div id="content">
    <h1>{{data($a/title)}}</h1>
    <p class="author">{{data($a/author)}}</p>
    <table id="refs">{{
      for $r in $refs
      order by number($r/year)
      return <tr><td>{{data($r/cited)}}</td><td>{{data($r/year)}}</td></tr>
    }}</table>
    <div id="stats">
      <span id="refcount">{{count($refs)}}</span>
      <span id="minyear">{{min(for $r in $refs return number($r/year))}}</span>
      <span id="maxyear">{{max(for $r in $refs return number($r/year))}}</span>
    </div>
  </div>"#
    )
}

/// XQuery producing the whole server-rendered page (HTML envelope around
/// the article body).
pub fn article_page_query(article_id: &str) -> String {
    format!(
        r#"<html>
  <head><title>Reference 2.0</title></head>
  <body>
    <div id="nav">Reference 2.0</div>
    {{ {body} }}
  </body>
</html>"#,
        body = article_body_query(article_id)
    )
}

/// XQuery for the journal index page (the entry point of a browse session).
pub fn index_page_query() -> String {
    format!(
        r#"<html>
  <head><title>Reference 2.0</title></head>
  <body>
    <div id="nav">Reference 2.0</div>
    <ul id="journals">{{
      for $j in doc("{CORPUS_URI}")//journal
      return <li id="{{data($j/@id)}}">{{data($j/title)}}
        ({{count($j//article)}} articles)</li>
    }}</ul>
  </body>
</html>"#
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};
    use crate::xmldb::XmlDb;

    fn db() -> XmlDb {
        let mut db = XmlDb::new();
        let xml = generate_corpus(&CorpusSpec::default());
        db.load(CORPUS_URI, &xml).unwrap();
        db
    }

    #[test]
    fn article_page_renders() {
        let mut db = db();
        let html = db.query(&article_page_query("j0-v0-i0-a0")).unwrap();
        assert!(html.contains("<h1>"), "{html}");
        assert!(html.contains("<table id=\"refs\">"));
        assert!(html.contains("<span id=\"refcount\">5</span>"));
        assert!(html.contains("(j0-v0-i0-a0)"));
    }

    #[test]
    fn references_sorted_by_year() {
        let mut db = db();
        let html = db.query(&article_page_query("j0-v0-i0-a1")).unwrap();
        // extract years from the table and check ordering
        let years: Vec<i32> = html
            .split("<td>")
            .filter_map(|part| {
                let v = part.split('<').next()?;
                v.parse::<i32>().ok()
            })
            .collect();
        assert!(!years.is_empty());
        let mut sorted = years.clone();
        sorted.sort_unstable();
        assert_eq!(years, sorted);
    }

    /// Both render queries lower with no interpreter fallback and, on the
    /// end-to-end benchmark's corpus (128 articles), charge no more fuel
    /// compiled than interpreted and fit the default render deadline.
    #[test]
    fn render_queries_run_compiled_within_the_render_deadline() {
        use crate::governor::{Class, GovernorConfig};
        let spec = CorpusSpec {
            journals: 4,
            volumes_per_journal: 4,
            issues_per_volume: 2,
            articles_per_issue: 4,
            references_per_article: 5,
            ..CorpusSpec::default()
        };
        let xml = generate_corpus(&spec);
        let cfg = GovernorConfig::default();
        let budget = cfg.deadline_ms[Class::Render.index()] * cfg.fuel_per_ms;
        for q in [article_page_query("j3-v3-i1-a3"), index_page_query()] {
            let plan = xqib_xquery::plan::lower(&xqib_xquery::runtime::compile(&q).unwrap());
            assert_eq!(plan.stats().fallbacks, 0, "{q}");
            let fuel = |plan_mode: bool| {
                let mut db = XmlDb::new();
                db.plan_mode = plan_mode;
                db.load(CORPUS_URI, &xml).unwrap();
                let (html, fuel) = db.query_with_deadline(&q, None);
                (html.unwrap(), fuel)
            };
            let (compiled, interpreted) = (fuel(true), fuel(false));
            assert_eq!(compiled.0, interpreted.0);
            assert!(
                compiled.1 <= interpreted.1,
                "{} vs {}",
                compiled.1,
                interpreted.1
            );
            assert!(compiled.1 < budget, "{} fuel of {budget}", compiled.1);
        }
    }

    #[test]
    fn index_page_lists_journals() {
        let mut db = db();
        let html = db.query(&index_page_query()).unwrap();
        assert_eq!(html.matches("<li ").count(), 2);
        assert!(html.contains("24 articles"));
    }
}
