//! The `/metrics` surface end to end: a golden body for a scripted
//! governed server and for a cluster render, and the engine counters'
//! isolation between server instances.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use xqib_appserver::{
    generate_corpus, AppServer, Cluster, ClusterConfig, CorpusSpec, DurabilityConfig, FleetStats,
    GovernedServer, GovernorConfig, Submitted,
};
use xqib_storage::VirtualDisk;

/// `/metrics` of the governed durable server after [`governed_traffic`].
const GOVERNED: &str = "<metrics>\
    <requests>6</requests>\
    <bytes-out>25978</bytes-out>\
    <xquery-evals>4</xquery-evals>\
    <order-index-rebuilds>0</order-index-rebuilds>\
    <sorts-performed>0</sorts-performed>\
    <sorts-elided>0</sorts-elided>\
    <attr-index-builds>1</attr-index-builds>\
    <attr-index-probes>2</attr-index-probes>\
    <wal-appends>4</wal-appends>\
    <wal-fsyncs>2</wal-fsyncs>\
    <checkpoints>0</checkpoints>\
    <recoveries>0</recoveries>\
    <torn-tails-dropped>0</torn-tails-dropped>\
    <ckpt-slots-lost>0</ckpt-slots-lost>\
    <wal-corruptions>0</wal-corruptions>\
    <recovery-digest-mismatches>0</recovery-digest-mismatches>\
    <admitted>5</admitted>\
    <shed>1</shed>\
    <degraded>0</degraded>\
    <deadline-exceeded>0</deadline-exceeded>\
    <queue-delay-p50-ms>0</queue-delay-p50-ms>\
    <queue-delay-p99-ms>3</queue-delay-p99-ms>\
    <plan-cache-hits>0</plan-cache-hits>\
    <plan-cache-misses>4</plan-cache-misses>\
    <plan-cache-evictions>0</plan-cache-evictions>\
    <plan-cache-invalidations>0</plan-cache-invalidations>\
    <repl-frames-shipped>0</repl-frames-shipped>\
    <repl-frames-acked>0</repl-frames-acked>\
    <repl-frames-retried>0</repl-frames-retried>\
    <repl-snapshots-shipped>0</repl-snapshots-shipped>\
    <repl-probes>0</repl-probes>\
    <repl-failovers>0</repl-failovers>\
    <repl-follower-reads>0</repl-follower-reads>\
    <repl-ownership-rejections>0</repl-ownership-rejections>\
    <repl-blackout-ms>0</repl-blackout-ms>\
    <repl-max-replica-lag>0</repl-max-replica-lag>\
    <fleet-clients>0</fleet-clients>\
    <fleet-interactions>0</fleet-interactions>\
    <fleet-behind-calls>0</fleet-behind-calls>\
    <fleet-attempts>0</fleet-attempts>\
    <fleet-retries>0</fleet-retries>\
    <fleet-timeouts>0</fleet-timeouts>\
    <fleet-fetch-errors>0</fleet-fetch-errors>\
    <fleet-breaker-opens>0</fleet-breaker-opens>\
    <fleet-breaker-fast-fails>0</fleet-breaker-fast-fails>\
    <fleet-stale-served>0</fleet-stale-served>\
    <fleet-stale-events>0</fleet-stale-events>\
    <fleet-error-events>0</fleet-error-events>\
    <fleet-completions>0</fleet-completions>\
    <fleet-evictions>0</fleet-evictions>\
    <fleet-quarantine-trips>0</fleet-quarantine-trips>\
    <fleet-retry-after-honored>0</fleet-retry-after-honored>\
    <fleet-degraded-observed>0</fleet-degraded-observed>\
    <fleet-origin-requests>0</fleet-origin-requests>\
    <fleet-cache-hit-permille>0</fleet-cache-hit-permille>\
    <scrub-cycles>0</scrub-cycles>\
    <scrub-docs-checked>0</scrub-docs-checked>\
    <scrub-digest-mismatches>0</scrub-digest-mismatches>\
    <scrub-wal-corruptions>0</scrub-wal-corruptions>\
    <scrub-ckpt-corruptions>0</scrub-ckpt-corruptions>\
    <scrub-ckpt-lost>0</scrub-ckpt-lost>\
    <integrity-quarantines>0</integrity-quarantines>\
    <integrity-repairs-started>0</integrity-repairs-started>\
    <integrity-repairs-verified>0</integrity-repairs-verified>\
    <integrity-leader-demotions>0</integrity-leader-demotions>\
    <integrity-promote-heals>0</integrity-promote-heals>\
    <integrity-reads-verified>0</integrity-reads-verified>\
    <integrity-reads-refused>0</integrity-reads-refused>\
    <decay-sweeps>0</decay-sweeps>\
    <decay-sectors>0</decay-sectors>\
    <doc-reads-verified>1</doc-reads-verified>\
    <doc-reads-refused>0</doc-reads-refused>\
    <reshard-epoch-bumps>0</reshard-epoch-bumps>\
    <reshard-migrations-started>0</reshard-migrations-started>\
    <reshard-migrations-completed>0</reshard-migrations-completed>\
    <reshard-migrations-aborted>0</reshard-migrations-aborted>\
    <reshard-docs-moved>0</reshard-docs-moved>\
    <reshard-tail-frames-forwarded>0</reshard-tail-frames-forwarded>\
    <reshard-cutover-fences>0</reshard-cutover-fences>\
    <reshard-drains>0</reshard-drains>\
    </metrics>";

/// `/metrics` of a one-shard cluster after one replicated update, two
/// virtual seconds and [`fleet`].
const CLUSTER: &str = "<metrics>\
    <requests>1</requests>\
    <bytes-out>0</bytes-out>\
    <xquery-evals>0</xquery-evals>\
    <order-index-rebuilds>0</order-index-rebuilds>\
    <sorts-performed>0</sorts-performed>\
    <sorts-elided>0</sorts-elided>\
    <attr-index-builds>0</attr-index-builds>\
    <attr-index-probes>0</attr-index-probes>\
    <wal-appends>0</wal-appends>\
    <wal-fsyncs>0</wal-fsyncs>\
    <checkpoints>0</checkpoints>\
    <recoveries>0</recoveries>\
    <torn-tails-dropped>0</torn-tails-dropped>\
    <ckpt-slots-lost>0</ckpt-slots-lost>\
    <wal-corruptions>0</wal-corruptions>\
    <recovery-digest-mismatches>0</recovery-digest-mismatches>\
    <admitted>0</admitted>\
    <shed>0</shed>\
    <degraded>0</degraded>\
    <deadline-exceeded>0</deadline-exceeded>\
    <queue-delay-p50-ms>0</queue-delay-p50-ms>\
    <queue-delay-p99-ms>0</queue-delay-p99-ms>\
    <plan-cache-hits>0</plan-cache-hits>\
    <plan-cache-misses>0</plan-cache-misses>\
    <plan-cache-evictions>0</plan-cache-evictions>\
    <plan-cache-invalidations>0</plan-cache-invalidations>\
    <repl-frames-shipped>4</repl-frames-shipped>\
    <repl-frames-acked>4</repl-frames-acked>\
    <repl-frames-retried>0</repl-frames-retried>\
    <repl-snapshots-shipped>0</repl-snapshots-shipped>\
    <repl-probes>0</repl-probes>\
    <repl-failovers>0</repl-failovers>\
    <repl-follower-reads>0</repl-follower-reads>\
    <repl-ownership-rejections>0</repl-ownership-rejections>\
    <repl-blackout-ms>0</repl-blackout-ms>\
    <repl-max-replica-lag>0</repl-max-replica-lag>\
    <fleet-clients>101</fleet-clients>\
    <fleet-interactions>102</fleet-interactions>\
    <fleet-behind-calls>103</fleet-behind-calls>\
    <fleet-attempts>104</fleet-attempts>\
    <fleet-retries>105</fleet-retries>\
    <fleet-timeouts>106</fleet-timeouts>\
    <fleet-fetch-errors>107</fleet-fetch-errors>\
    <fleet-breaker-opens>108</fleet-breaker-opens>\
    <fleet-breaker-fast-fails>109</fleet-breaker-fast-fails>\
    <fleet-stale-served>110</fleet-stale-served>\
    <fleet-stale-events>111</fleet-stale-events>\
    <fleet-error-events>112</fleet-error-events>\
    <fleet-completions>113</fleet-completions>\
    <fleet-evictions>114</fleet-evictions>\
    <fleet-quarantine-trips>115</fleet-quarantine-trips>\
    <fleet-retry-after-honored>116</fleet-retry-after-honored>\
    <fleet-degraded-observed>117</fleet-degraded-observed>\
    <fleet-origin-requests>118</fleet-origin-requests>\
    <fleet-cache-hit-permille>119</fleet-cache-hit-permille>\
    <scrub-cycles>8</scrub-cycles>\
    <scrub-docs-checked>7</scrub-docs-checked>\
    <scrub-digest-mismatches>0</scrub-digest-mismatches>\
    <scrub-wal-corruptions>0</scrub-wal-corruptions>\
    <scrub-ckpt-corruptions>0</scrub-ckpt-corruptions>\
    <scrub-ckpt-lost>0</scrub-ckpt-lost>\
    <integrity-quarantines>0</integrity-quarantines>\
    <integrity-repairs-started>0</integrity-repairs-started>\
    <integrity-repairs-verified>0</integrity-repairs-verified>\
    <integrity-leader-demotions>0</integrity-leader-demotions>\
    <integrity-promote-heals>0</integrity-promote-heals>\
    <integrity-reads-verified>0</integrity-reads-verified>\
    <integrity-reads-refused>0</integrity-reads-refused>\
    <decay-sweeps>0</decay-sweeps>\
    <decay-sectors>0</decay-sectors>\
    <doc-reads-verified>0</doc-reads-verified>\
    <doc-reads-refused>0</doc-reads-refused>\
    <reshard-epoch-bumps>0</reshard-epoch-bumps>\
    <reshard-migrations-started>0</reshard-migrations-started>\
    <reshard-migrations-completed>0</reshard-migrations-completed>\
    <reshard-migrations-aborted>0</reshard-migrations-aborted>\
    <reshard-docs-moved>0</reshard-docs-moved>\
    <reshard-tail-frames-forwarded>0</reshard-tail-frames-forwarded>\
    <reshard-cutover-fences>0</reshard-cutover-fences>\
    <reshard-drains>0</reshard-drains>\
    </metrics>";

/// Page, update, `/doc` and index traffic through a two-slot governor,
/// one page shed at admission.
fn governed_traffic() -> GovernedServer {
    let corpus = generate_corpus(&CorpusSpec::default());
    let server =
        AppServer::new_durable(&corpus, VirtualDisk::new(), DurabilityConfig::default()).unwrap();
    let mut g = GovernedServer::new(
        server,
        GovernorConfig {
            queue_capacity: 2,
            ..Default::default()
        },
    );
    g.submit("/page?article=j0-v0-i0-a0", 0);
    g.submit("/page?article=j0-v0-i0-a1", 0);
    g.submit("/page?article=j0-v0-i0-a2", 0); // shed: queue full
    g.drain();
    g.submit(
        "/update?xq=insert+node+%3Cnote%3Ehi%3C%2Fnote%3E+into+doc(%27corpus.xml%27)%2F*",
        1000,
    );
    g.drain();
    g.submit("/doc?uri=corpus.xml", 2000);
    g.submit("/index", 2000);
    g.drain();
    g
}

/// A fleet total with a distinct value per counter.
fn fleet() -> FleetStats {
    FleetStats {
        clients: 101,
        interactions: 102,
        behind_calls: 103,
        attempts: 104,
        retries: 105,
        timeouts: 106,
        fetch_errors: 107,
        breaker_opens: 108,
        breaker_fast_fails: 109,
        stale_served: 110,
        stale_events: 111,
        error_events: 112,
        completions: 113,
        evictions: 114,
        quarantine_trips: 115,
        retry_after_honored: 116,
        degraded_observed: 117,
        origin_requests: 118,
        cache_hit_permille: 119,
    }
}

#[test]
fn governed_server_metrics_match_the_golden_body() {
    let mut g = governed_traffic();
    let first = g.metrics().body;
    assert_eq!(first, GOVERNED);
    // the scrape itself is counted: one more request, its bytes shipped
    let again = g.metrics().body;
    let bytes = 25978 + first.len();
    let expected = GOVERNED
        .replace("<requests>6</requests>", "<requests>7</requests>")
        .replace(
            "<bytes-out>25978</bytes-out>",
            &format!("<bytes-out>{bytes}</bytes-out>"),
        );
    assert_eq!(again, expected);
}

#[test]
fn cluster_metrics_match_the_golden_body() {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.load("news.xml", "<root/>").unwrap();
    let url = r#"/update?xq=insert node <m id="scoop"/> into doc("news.xml")/*"#;
    let _ = cluster.submit(url, 0);
    for now in 1..=2000 {
        let _ = cluster.advance(now);
    }
    cluster.record_fleet(&fleet());
    let body = match cluster.submit("/metrics", 2000) {
        Submitted::Done(d) => d.response.body,
        Submitted::Pending(_) => panic!("/metrics answers at once"),
    };
    assert_eq!(body, CLUSTER);
}

/// The engine counters in a `/metrics` body.
fn engine_counters(body: &str) -> Vec<u64> {
    ["order-index-rebuilds", "sorts-performed", "sorts-elided"]
        .iter()
        .map(|name| {
            let open = format!("<{name}>");
            let start = body.find(&open).expect("counter present") + open.len();
            let len = body[start..].find('<').expect("closing tag");
            body[start..start + len].parse().expect("a number")
        })
        .collect()
}

/// Two servers evaluating interleaved in one thread each count only their
/// own work: the same counts as when each runs alone.
#[test]
fn engine_counters_are_per_server() {
    let corpus = generate_corpus(&CorpusSpec::default());
    // Compiled renders stream in document order and count nothing, so
    // each server also runs queries whose plans sort (`..`, `ancestor`)
    // and elide (an arithmetic predicate forces the eager replay, whose
    // single-node and disjoint inputs skip normalisation).
    let a_urls = [
        "/query?xq=count(doc('corpus.xml')/library/journal[position() %2B 0 = 1]/volume/issue/..)",
        "/query?xq=count(doc('corpus.xml')//title/..)",
        "/page?article=j0-v0-i0-a0",
    ];
    let b_urls = [
        "/query?xq=count(doc('corpus.xml')//article/ancestor::*)",
        "/page?article=j1-v0-i0-a1",
        "/query?xq=count(doc('corpus.xml')//reference[year %2B 0 > 0]/../..)",
    ];
    let alone = |urls: &[&str]| {
        let mut s = AppServer::new(&corpus).unwrap();
        for url in urls {
            assert_eq!(s.handle(url).status, 200, "{url}");
        }
        engine_counters(&s.handle("/metrics").body)
    };
    let (a_alone, b_alone) = (alone(&a_urls), alone(&b_urls));
    assert!(a_alone.iter().all(|&n| n > 0), "{a_alone:?}");
    assert!(b_alone.iter().all(|&n| n > 0), "{b_alone:?}");

    let mut a = AppServer::new(&corpus).unwrap();
    let mut b = AppServer::new(&corpus).unwrap();
    for (ua, ub) in a_urls.iter().zip(&b_urls) {
        a.handle(ua);
        b.handle(ub);
    }
    assert_eq!(engine_counters(&a.handle("/metrics").body), a_alone);
    assert_eq!(engine_counters(&b.handle("/metrics").body), b_alone);
}
