//! Differential property tests for the compiled query pipeline: across
//! random queries × random documents × random fuel budgets, the plan
//! evaluator (`plan::lower` + `exec`) must be observationally identical to
//! the tree-walking interpreter — same result sequence, same dynamic error
//! codes, same applied-update effects. The single sanctioned divergence is
//! one-sided: under a fuel budget a streamed plan may *succeed* where the
//! interpreter preempts, but whenever it completes it must produce the
//! interpreter's unlimited-fuel answer, and whenever it fails it must fail
//! with the fuel code.
//!
//! Deterministic CI matrix hook: `XQIB_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! query space while any single failure stays reproducible.

use proptest::prelude::*;
use xqib_dom::name::LOCAL_NS;
use xqib_dom::store::shared_store;
use xqib_dom::{QName, SharedStore};
use xqib_xdm::Item;
use xqib_xquery::eval;
use xqib_xquery::plan::lower;
use xqib_xquery::plancache::{compile_plan, static_fingerprint, PlanCache};
use xqib_xquery::runtime::{self, ModuleRegistry};
use xqib_xquery::DynamicContext;

fn env_seed() -> u64 {
    std::env::var("XQIB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64, same shape as the other fault-matrix suites: proptest
/// drives the top-level seed, this fans it out into shaping decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

// ----- generators -----------------------------------------------------------

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const IDS: [&str; 3] = ["k1", "k2", "k3"];

/// Values of the numeric-looking `n` attribute: equal as numbers, not as
/// strings, and one that no numeric comparison can cast (`FORG0001`).
const NS: [&str; 4] = ["1", "1.0", "2", "x"];

/// A small random element tree with attributes and numeric text.
fn gen_doc(rng: &mut Rng) -> String {
    gen_doc_with(rng, false)
}

/// [`gen_doc`], optionally with an `n` attribute drawn from [`NS`] on
/// some elements.
fn gen_doc_with(rng: &mut Rng, n_attrs: bool) -> String {
    fn node(rng: &mut Rng, out: &mut String, depth: u64, n_attrs: bool) {
        let tag = rng.pick(&TAGS);
        out.push('<');
        out.push_str(tag);
        if rng.below(2) == 0 {
            out.push_str(&format!(" id=\"{}\"", rng.pick(&IDS)));
        }
        if n_attrs && rng.below(2) == 0 {
            out.push_str(&format!(" n=\"{}\"", rng.pick(&NS)));
        }
        out.push('>');
        let kids = rng.below(if depth == 0 { 1 } else { 4 });
        if kids == 0 {
            out.push_str(&rng.below(100).to_string());
        } else {
            for _ in 0..kids {
                node(rng, out, depth - 1, n_attrs);
            }
        }
        out.push_str(&format!("</{tag}>"));
    }
    let mut xml = String::from("<r>");
    for _ in 0..(1 + rng.below(4)) {
        node(rng, &mut xml, 3, n_attrs);
    }
    xml.push_str("</r>");
    xml
}

fn gen_step(rng: &mut Rng) -> String {
    let sep = if rng.below(3) == 0 { "//" } else { "/" };
    let test = match rng.below(6) {
        0 => "*".to_string(),
        1 => "@id".to_string(),
        _ => rng.pick(&TAGS).to_string(),
    };
    let pred = match rng.below(8) {
        0 => "[1]".to_string(),
        1 => "[last()]".to_string(),
        2 => format!("[@id = '{}']", rng.pick(&IDS)),
        3 => format!("[{}]", rng.pick(&TAGS)),
        4 => format!("[position() < {}]", 1 + rng.below(4)),
        _ => String::new(),
    };
    // predicates on attribute steps are legal but rarely interesting
    if test == "@id" {
        format!("{sep}{test}")
    } else {
        format!("{sep}{test}{pred}")
    }
}

fn gen_path(rng: &mut Rng) -> String {
    let mut p = String::from("doc('t.xml')");
    for _ in 0..(1 + rng.below(3)) {
        p.push_str(&gen_step(rng));
    }
    p
}

fn gen_expr(rng: &mut Rng, depth: u64) -> String {
    if depth == 0 {
        return match rng.below(3) {
            0 => rng.below(20).to_string(),
            1 => format!("'{}'", rng.pick(&IDS)),
            _ => gen_path(rng),
        };
    }
    match rng.below(13) {
        0 => format!(
            "{} {} {}",
            gen_expr(rng, depth - 1),
            rng.pick(&["+", "-", "*"]),
            gen_expr(rng, depth - 1)
        ),
        1 => format!("{} to {}", rng.below(8), rng.below(12)),
        2 => format!(
            "{} {} {}",
            gen_expr(rng, depth - 1),
            rng.pick(&["=", "!=", "<", ">="]),
            gen_expr(rng, depth - 1)
        ),
        3 => format!("exists({})", gen_path(rng)),
        4 => format!("empty({})", gen_path(rng)),
        5 => format!("count({})", gen_path(rng)),
        6 => format!("not({})", gen_expr(rng, depth - 1)),
        7 => {
            let src = if rng.below(2) == 0 {
                gen_path(rng)
            } else {
                format!("{} to {}", rng.below(5), rng.below(9))
            };
            let wher = match rng.below(3) {
                0 => format!(" where $v{d}/@id = '{}'", rng.pick(&IDS), d = depth),
                1 => format!(" where $v{d} = $v{d}", d = depth),
                _ => String::new(),
            };
            let order = if rng.below(3) == 0 {
                format!(" order by $v{d} descending", d = depth)
            } else {
                String::new()
            };
            format!(
                "for $v{d} in {src}{wher}{order} return ($v{d}, {})",
                gen_expr(rng, depth - 1),
                d = depth
            )
        }
        8 => format!(
            "if ({}) then {} else {}",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        9 => format!(
            "({}, {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        10 => format!(
            "some $s in {} satisfies $s = {}",
            gen_path(rng),
            gen_expr(rng, depth - 1)
        ),
        11 => match rng.below(3) {
            0 => format!("({})/node()", gen_ctor(rng, depth - 1)),
            1 => format!(
                "(let $e{d} := {} return ($e{d}/*/.. is $e{d}, $e{d}/*[1] is $e{d}/*[1]))",
                gen_ctor(rng, depth - 1),
                d = depth
            ),
            _ => gen_ctor(rng, depth - 1),
        },
        _ => format!("sum(({}))", gen_expr(rng, depth - 1)),
    }
}

/// A direct element constructor: attribute value templates, literal text,
/// enclosed atomics and nodes, nested direct elements, comments and PIs,
/// and now and then an attribute after content (`XQTY0024`).
fn gen_ctor(rng: &mut Rng, depth: u64) -> String {
    let tag = rng.pick(&TAGS);
    let mut out = format!("<{tag}");
    if rng.below(2) == 0 {
        // leaf expressions only: they hold no quotes or braces
        out.push_str(&format!(
            " id=\"{}-{{{}}}\"",
            rng.pick(&IDS),
            gen_expr(rng, 0)
        ));
    }
    out.push('>');
    for _ in 0..rng.below(4) {
        match rng.below(7) {
            0 => out.push_str("t "),
            1 => out.push_str(&format!("{{{}}}", gen_expr(rng, depth.saturating_sub(1)))),
            2 => out.push_str(&format!("{{{}, {}}}", rng.below(9), gen_path(rng))),
            3 if depth > 0 => out.push_str(&gen_ctor(rng, depth - 1)),
            3 => out.push_str(&format!("<{}/>", rng.pick(&TAGS))),
            4 => out.push_str("<!--c-->"),
            5 => out.push_str("<?p d?>"),
            _ => out.push_str(&format!(
                "{{({}, attribute x {{'v'}})}}",
                rng.pick(&["()", "1", "<e/>"])
            )),
        }
    }
    out.push_str(&format!("</{tag}>"));
    out
}

/// Randomised updating statements over the generated document, exercising
/// the PUL through the compiled pipeline.
fn gen_update(rng: &mut Rng) -> String {
    let target = format!("(doc('t.xml')//{})[1]", rng.pick(&TAGS));
    match rng.below(4) {
        0 => format!(
            "let $n := {} return insert node $n into {target}",
            gen_ctor(rng, 2)
        ),
        1 => format!("delete node {target}"),
        2 => format!("rename node {target} as 'z{}'", rng.below(5)),
        _ => format!("replace value of node {target} with '{}'", rng.below(50)),
    }
}

/// Values for `$v` in `[@a = $v]`. The attribute index answers only the
/// string-like singletons; every other shape walks, and must agree with
/// the interpreter value for value and error for error.
const PROBE_VALUES: [&str; 11] = [
    "'k1'",                          // xs:string
    "xs:untypedAtomic('k2')",        // untyped
    "'1.0'",                         // a string that is a number
    "1",                             // integer: equals n="1.0" numerically
    "1.0e0",                         // double
    "true()",                        // boolean: "x", "2" cannot cast
    "()",                            // empty
    "('k1', 'k3')",                  // several items
    "(doc('t.xml')//*[@id])[1]/@id", // an attribute node
    "<v>k2</v>",                     // an element node
    "xs:integer('2')",
];

/// A query whose path filters on `[@a = $v]` (or `[$v = @a]`), in the
/// shapes the index serves — the step from the document node, later
/// stages, streaming consumers, a function parameter — and some it must
/// not serve.
fn gen_probe_query(rng: &mut Rng) -> String {
    let attr = rng.pick(&["id", "n"]);
    let tag = rng.pick(&["*", "a", "b", "c", "d"]);
    let pred = if rng.below(2) == 0 {
        format!("[@{attr} = $v]")
    } else {
        format!("[$v = @{attr}]")
    };
    let step = format!("//{tag}{pred}");
    let shape = match rng.below(8) {
        0 => format!("doc('t.xml'){step}"),
        1 => format!("doc('t.xml'){step}/@id"),
        2 => format!("count(doc('t.xml'){step})"),
        3 => format!("exists(doc('t.xml'){step})"),
        4 => format!("doc('t.xml'){step}[{}]", rng.pick(&TAGS)),
        5 => format!("for $x in doc('t.xml'){step} return string($x/@id)"),
        // not from the document node: the walk serves these
        6 => format!("doc('t.xml')/r{step}"),
        _ => format!("(doc('t.xml')//{tag})[position() < 3]{pred}"),
    };
    let value = rng.pick(&PROBE_VALUES);
    if rng.below(3) == 0 {
        format!("declare function local:f($v) {{ {shape} }}; local:f({value})")
    } else {
        format!("let $v := {value} return {shape}")
    }
}

/// An updating function and a sequential one over the generated
/// document. Both probe the attribute index through their parameter,
/// and the sequential one reads its own applied updates.
fn gen_user_functions(rng: &mut Rng) -> String {
    let tag = rng.pick(&TAGS);
    let update = match rng.below(6) {
        0 => format!("insert node <e id=\"{{$k}}\"/> into (doc('t.xml')//{tag})[1]"),
        1 => format!("delete nodes doc('t.xml')//{tag}[@id = $k]"),
        2 => format!(
            "for $t in doc('t.xml')//*[@id = $k] return replace value of node $t/@id with 'k{}'",
            1 + rng.below(3)
        ),
        3 => format!(
            "for $t in doc('t.xml')//{tag}[@id = $k] return rename node $t as 'z{}'",
            rng.below(3)
        ),
        4 => format!("rename node (doc('t.xml')//{tag})[1]/@id as 'key'"),
        _ => format!(
            "(insert node <e/> into (doc('t.xml')//{tag})[1], delete node (doc('t.xml')//{tag})[1])"
        ),
    };
    let exit = match rng.below(3) {
        0 => "if ($n > 1) then exit with ('exit', $n) else ();",
        1 => "exit with $n;",
        _ => "",
    };
    format!(
        "declare updating function local:u($k) {{ {update} }};\n\
         declare sequential function local:s($k) {{\n\
           declare variable $n := count(doc('t.xml')//*[@id = $k]);\n\
           local:u($k);\n\
           set $n := $n + count(doc('t.xml')//*[@id = $k]);\n\
           while ($n > 3) {{ set $n := $n - 2; }};\n\
           {exit}\n\
           ($n, count(doc('t.xml')//*))\n\
         }};\n"
    )
}

// ----- harness --------------------------------------------------------------

fn store_with_doc(xml: &str) -> SharedStore {
    let store = shared_store();
    let doc = xqib_dom::parse_document(xml).expect("generated doc parses");
    store.borrow_mut().add_document(doc, Some("t.xml"));
    store
}

/// Runs on the given engine; returns the rendered result (or the error
/// code) plus the serialized document afterwards (update visibility).
fn run(
    src: &str,
    xml: &str,
    fuel: Option<u64>,
    use_plan: bool,
) -> (Result<String, String>, String) {
    let store = store_with_doc(xml);
    let result = (|| {
        let q = runtime::compile(src).map_err(|e| e.code)?;
        let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
        ctx.set_fuel(fuel);
        let r = if use_plan {
            lower(&q).execute(&mut ctx)
        } else {
            q.execute(&mut ctx)
        };
        r.map(|seq| runtime::render_sequence(&ctx, &seq))
            .map_err(|e| e.code)
    })();
    let after = {
        let s = store.borrow();
        let id = s.doc_by_uri("t.xml").expect("doc survives");
        xqib_dom::serialize::serialize_document(s.doc(id))
    };
    (result, after)
}

/// Declares `prolog` (run once, interpreted), then invokes the listener
/// `name` with `args` the way the plug-in does: through
/// `runtime::invoke` (the plan tier) or, as the reference, through the
/// interpreter's `call_function` plus the final update application.
fn run_listener(
    prolog: &str,
    name: &str,
    arg: &str,
    xml: &str,
    compiled: bool,
) -> (Result<String, String>, String) {
    let store = store_with_doc(xml);
    let result = (|| {
        let q = runtime::compile(&format!("{prolog}()")).map_err(|e| e.code)?;
        let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
        q.execute(&mut ctx).map_err(|e| e.code)?;
        let name = QName::ns(LOCAL_NS, name);
        let args = vec![vec![Item::string(arg)]];
        let r = if compiled {
            runtime::invoke(&mut ctx, &name, args)
        } else {
            eval::call_function(&mut ctx, &name, args)
                .and_then(|seq| eval::apply_pending(&mut ctx).map(|()| seq))
        };
        r.map(|seq| runtime::render_sequence(&ctx, &seq))
            .map_err(|e| e.code)
    })();
    let after = {
        let s = store.borrow();
        let id = s.doc_by_uri("t.xml").expect("doc survives");
        xqib_dom::serialize::serialize_document(s.doc(id))
    };
    (result, after)
}

proptest! {
    /// Unlimited fuel: results, error codes, and document effects all
    /// match, item for item.
    #[test]
    fn compiled_matches_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let xml = gen_doc(&mut rng);
        let q = gen_expr(&mut rng, 3);
        let (ir, idoc) = run(&q, &xml, None, false);
        let (cr, cdoc) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "result divergence on `{}` over {}", q, xml);
        prop_assert_eq!(&idoc, &cdoc, "document divergence on `{}`", q);
    }

    /// Updating statements: the applied pending-update list leaves both
    /// stores serializing identically.
    #[test]
    fn update_effects_match(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let xml = gen_doc(&mut rng);
        let q = format!("{}, 0", gen_update(&mut rng));
        let (ir, idoc) = run(&q, &xml, None, false);
        let (cr, cdoc) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "update result divergence on `{}`", q);
        prop_assert_eq!(&idoc, &cdoc, "update effect divergence on `{}` over {}", q, xml);
    }

    /// `[@a = $v]` over every kind of `$v`: the index-backed candidates
    /// and the walk agree with the interpreter, errors included; under a
    /// budget the compiled run is the oracle's answer or preemption.
    #[test]
    fn attribute_probes_match_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let xml = gen_doc_with(&mut rng, true);
        let q = gen_probe_query(&mut rng);
        let (ir, _) = run(&q, &xml, None, false);
        let (cr, _) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "probe divergence on `{}` over {}", q, xml);
        let budget = 1 + rng.below(200);
        let (budgeted, _) = run(&q, &xml, Some(budget), true);
        match &budgeted {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(other, &ir, "budgeted probe `{}` with {} fuel", q, budget),
        }
    }

    /// Updating and sequential user functions — scripting blocks,
    /// `exit with`, index probes through a parameter — called from
    /// compiled code and invoked as listeners: the lowered bodies leave
    /// the same results, error codes and documents as the interpreter.
    #[test]
    fn user_function_bodies_match_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xA24B_AED4_963E_E407));
        let xml = gen_doc(&mut rng);
        let prolog = gen_user_functions(&mut rng);
        let k = rng.pick(&IDS);
        let q = format!("{prolog}local:s('{k}'); local:u('{k}'), count(doc('t.xml')//*)");
        let (ir, idoc) = run(&q, &xml, None, false);
        let (cr, cdoc) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "called divergence on `{}` over {}", q, xml);
        prop_assert_eq!(&idoc, &cdoc, "called effect divergence on `{}`", q);
        for name in ["u", "s"] {
            let (ir, idoc) = run_listener(&prolog, name, k, &xml, false);
            let (cr, cdoc) = run_listener(&prolog, name, k, &xml, true);
            prop_assert_eq!(&ir, &cr, "listener {} divergence on `{}` over {}", name, prolog, xml);
            prop_assert_eq!(&idoc, &cdoc, "listener {} effect divergence on `{}`", name, prolog);
        }
    }

    /// Fuel budgets: the compiled engine either reproduces the oracle's
    /// unlimited-fuel answer or raises the preemption code — never a
    /// third thing. (Streaming may legitimately *save* fuel; it must never
    /// spend less and answer differently.)
    #[test]
    fn budgeted_run_is_oracle_result_or_preemption(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x94D0_49BB_1331_11EB));
        let xml = gen_doc(&mut rng);
        let q = gen_expr(&mut rng, 3);
        let budget = 1 + rng.below(3000);
        let (oracle, _) = run(&q, &xml, None, false);
        let (budgeted, _) = run(&q, &xml, Some(budget), true);
        match &budgeted {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(
                other, &oracle,
                "budgeted divergence on `{}` with {} fuel", q, budget
            ),
        }
        // the same one-sided contract holds for the interpreter itself
        let (ibudgeted, _) = run(&q, &xml, Some(budget), false);
        match &ibudgeted {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(other, &oracle, "interpreter budget contract on `{}`", q),
        }
    }
}

/// The plan-cache invalidation regression: a cached plan must not survive
/// a static-context change. Re-registering a module under the same URI
/// changes the fingerprint, so the stale plan (which baked in the old
/// function body) stops matching.
#[test]
fn cached_plan_does_not_survive_static_context_change() {
    let mut reg = ModuleRegistry::new();
    reg.register_source(
        r#"module namespace m = "urn:v";
           declare function m:v() { 1 };"#,
    )
    .unwrap();
    let src = r#"import module namespace m = "urn:v"; m:v()"#;
    let mut cache = PlanCache::new(8);

    let run_cached = |cache: &mut PlanCache, reg: &ModuleRegistry| {
        let fp = static_fingerprint(reg, false);
        let plan = cache
            .get_or_compile(src, fp, || compile_plan(src, reg, false))
            .unwrap();
        let mut ctx = DynamicContext::new(shared_store(), plan.static_context().clone());
        let out = plan.execute(&mut ctx).unwrap();
        runtime::render_sequence(&ctx, &out)
    };

    assert_eq!(run_cached(&mut cache, &reg), "1");
    assert_eq!(run_cached(&mut cache, &reg), "1");
    assert_eq!(cache.stats().hits, 1, "second lookup is a cache hit");

    // the static context changes: same URI, new function body
    reg.register_source(
        r#"module namespace m = "urn:v";
           declare function m:v() { 2 };"#,
    )
    .unwrap();
    assert_eq!(
        run_cached(&mut cache, &reg),
        "2",
        "stale plan served after module re-registration"
    );
    assert_eq!(cache.stats().hits, 1, "new fingerprint must miss");

    // explicit epoch invalidation also recompiles
    cache.invalidate();
    assert_eq!(run_cached(&mut cache, &reg), "2");
    assert_eq!(cache.stats().invalidations, 1);
    assert_eq!(cache.stats().misses, 3);
}

/// The store's attribute-index counters after running `src` on `xml`.
fn probes_after(src: &str, xml: &str, compiled: bool) -> (String, u64, u64) {
    let store = store_with_doc(xml);
    let q = runtime::compile(src).unwrap();
    let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
    let out = if compiled {
        lower(&q).execute(&mut ctx)
    } else {
        q.execute(&mut ctx)
    }
    .unwrap();
    let stats = store.borrow().engine_stats();
    (
        runtime::render_sequence(&ctx, &out),
        stats.attr_index_builds,
        stats.attr_index_probes,
    )
}

/// Only a single string-like `$v` reaches the index; the interpreter
/// never does.
#[test]
fn only_string_like_values_probe_the_index() {
    let xml = r#"<r><t id="k1" n="1.0"/><t id="k2" n="1"/><t id="1" n="2"/></r>"#;
    for (attr, value, probes, want) in [
        ("id", "'k1'", 1, "1"),
        ("id", "xs:untypedAtomic('k2')", 1, "1"),
        ("n", "'1.0'", 1, "1"),
        ("n", "1", 0, "2"),
        ("n", "1.0e0", 0, "2"),
        ("id", "()", 0, "0"),
        ("id", "('k1', 'k2')", 0, "2"),
        ("id", "<v>k1</v>", 0, "1"),
    ] {
        let src = format!("let $v := {value} return count(doc('t.xml')//t[@{attr} = $v])");
        let (got, _, p) = probes_after(&src, xml, true);
        assert_eq!((got.as_str(), p), (want, probes), "{value}");
        assert_eq!(probes_after(&src, xml, false), (want.to_string(), 0, 0));
    }
    // the numeric probe walks, and a non-castable value still raises
    let src = "let $v := 1 return doc('t.xml')//t[@n = $v]/@id";
    let bad = r#"<r><t id="k1" n="x"/></r>"#;
    for compiled in [false, true] {
        assert_eq!(run(src, bad, None, compiled).0, Err("FORG0001".to_string()));
    }
}

/// A value replace and a rename of the probed attribute are seen by the
/// next probe in the same script: the index rebuilds.
#[test]
fn attribute_updates_invalidate_the_index() {
    let xml = r#"<r><t id="k1">one</t><t id="k2">two</t></r>"#;
    let src = "declare variable $e := (doc('t.xml')//t)[1];\n\
         declare variable $before := count(doc('t.xml')//t[@id = 'k1']);\n\
         replace value of node $e/@id with 'k7';\n\
         declare variable $after := count(doc('t.xml')//t[@id = 'k7']);\n\
         rename node $e/@id as 'key';\n\
         ($before, $after, count(doc('t.xml')//t[@id = 'k7']), count(doc('t.xml')//t[@key = 'k7']))";
    let (got, builds, probes) = probes_after(src, xml, true);
    assert_eq!(got, "1 1 0 1");
    assert_eq!(
        (builds, probes),
        (4, 4),
        "every probe after a change rebuilt"
    );
    assert_eq!(probes_after(src, xml, false).0, got);
}

/// A listener invoked like the plug-in does runs its lowered body: the
/// compiled body probes the index, the interpreted reference walks.
#[test]
fn invoked_listeners_run_the_lowered_body() {
    let xml = r#"<r><t id="k1">one</t><t id="k2">two</t></r>"#;
    // the update itself stays with the interpreter; the `let` path is
    // what the plan tier runs
    let prolog = "declare updating function local:on($k) {\n\
         let $t := doc('t.xml')//t[@id = $k]\n\
         return replace value of node $t/text() with 'hit'\n\
       };\n";
    let store = store_with_doc(xml);
    let q = runtime::compile(&format!("{prolog}()")).unwrap();
    let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
    q.execute(&mut ctx).unwrap();
    let name = QName::ns(LOCAL_NS, "on");
    runtime::invoke(&mut ctx, &name, vec![vec![Item::string("k2")]]).unwrap();
    runtime::invoke(&mut ctx, &name, vec![vec![Item::string("k1")]]).unwrap();
    assert_eq!(
        runtime::run_to_string("string-join(doc('t.xml')//t, ',')", store.clone()).unwrap(),
        "hit,hit"
    );
    let stats = store.borrow().engine_stats();
    // a text edit leaves the index fresh: one build serves both probes
    assert_eq!((stats.attr_index_builds, stats.attr_index_probes), (1, 2));
    let (reference, _) = run_listener(prolog, "on", "k2", xml, false);
    assert_eq!(reference, Ok(String::new()));
}
