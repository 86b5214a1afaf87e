//! The attribute-value index against a naive scan: under random mutation
//! sequences (subtree inserts and deletes, attribute inserts, value
//! replaces, renames and removals, text edits) every probe must list
//! exactly the attached elements a walk from the document node finds, in
//! document order. Plus the invalidation regressions: value replaces and
//! renames are seen at once, and a text-only edit does not rebuild.

use proptest::prelude::*;

use xqib_dom::{Document, NodeId, QName};

const VALUES: [&str; 3] = ["x", "y", ""];

#[derive(Debug, Clone)]
enum Op {
    /// Append `<eN aK="v"><eM/>text</eN>` under an element.
    InsertSubtree(usize, u8, u8, u8),
    /// Detach an element (its whole subtree leaves the tree).
    Delete(usize),
    /// `set_attribute`: inserts the attribute or replaces its value.
    SetAttr(usize, u8, u8),
    /// `set_simple_value` on an existing attribute node.
    ReplaceAttrValue(usize, u8),
    /// Renames an element's first attribute.
    RenameAttr(usize, u8),
    RemoveAttr(usize, u8),
    /// `set_simple_value` on the first text child.
    EditText(usize, u8),
    /// Probes the index (so later ops must invalidate a built table).
    Probe(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(p, n, a, v)| Op::InsertSubtree(p, n % 4, a % 3, v % 3)),
        any::<usize>().prop_map(Op::Delete),
        (any::<usize>(), any::<u8>(), any::<u8>()).prop_map(|(p, a, v)| Op::SetAttr(
            p,
            a % 3,
            v % 3
        )),
        (any::<usize>(), any::<u8>()).prop_map(|(p, v)| Op::ReplaceAttrValue(p, v % 3)),
        (any::<usize>(), any::<u8>()).prop_map(|(p, a)| Op::RenameAttr(p, a % 3)),
        (any::<usize>(), any::<u8>()).prop_map(|(p, a)| Op::RemoveAttr(p, a % 3)),
        (any::<usize>(), any::<u8>()).prop_map(|(p, v)| Op::EditText(p, v % 3)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, v)| Op::Probe(a % 3, v % 3)),
    ]
}

fn attr(i: u8) -> QName {
    QName::local(format!("a{i}"))
}

/// The naive answer: a pre-order walk of the attached tree.
fn scan(doc: &Document, name: &QName, value: &str) -> Vec<NodeId> {
    doc.descendants_or_self(doc.root())
        .into_iter()
        .filter(|&n| doc.get_attribute(n, name.ns.as_deref(), &name.local) == Some(value))
        .collect()
}

fn probe(doc: &Document, name: &QName, value: &str) -> Vec<NodeId> {
    doc.elements_with_attribute(name, value).to_vec()
}

fn apply(doc: &mut Document, elems: &mut Vec<NodeId>, root: NodeId, op: &Op) {
    let pick = |i: usize| elems[i % elems.len()];
    match *op {
        Op::InsertSubtree(p, n, a, v) => {
            let e = doc.create_element(QName::local(format!("e{n}")));
            doc.set_attribute(e, attr(a), VALUES[v as usize]).unwrap();
            let kid = doc.create_element(QName::local(format!("e{}", (n + 1) % 4)));
            doc.append_child(e, kid).unwrap();
            let t = doc.create_text("t");
            doc.append_child(e, t).unwrap();
            if doc.append_child(pick(p), e).is_ok() {
                elems.push(e);
                elems.push(kid);
            }
        }
        Op::Delete(p) => {
            let e = pick(p);
            if e != root {
                doc.detach(e).unwrap();
            }
        }
        Op::SetAttr(p, a, v) => {
            doc.set_attribute(pick(p), attr(a), VALUES[v as usize])
                .unwrap();
        }
        Op::ReplaceAttrValue(p, v) => {
            if let Some(&a) = doc.attributes(pick(p)).first() {
                doc.set_simple_value(a, VALUES[v as usize]).unwrap();
            }
        }
        Op::RenameAttr(p, a) => {
            let e = pick(p);
            if let Some(&first) = doc.attributes(e).first() {
                // a rename onto a sibling's name would duplicate it
                if doc.attribute_node(e, None, &attr(a).local).is_none() {
                    doc.rename(first, attr(a)).unwrap();
                }
            }
        }
        Op::RemoveAttr(p, a) => {
            doc.remove_attribute(pick(p), None, &attr(a).local).unwrap();
        }
        Op::EditText(p, v) => {
            let text = doc
                .children(pick(p))
                .iter()
                .copied()
                .find(|&c| doc.kind(c).is_text());
            if let Some(t) = text {
                doc.set_simple_value(t, VALUES[v as usize]).unwrap();
            }
        }
        Op::Probe(a, v) => {
            doc.elements_with_attribute(&attr(a), VALUES[v as usize]);
        }
    }
}

proptest! {
    #[test]
    fn index_probes_agree_with_a_scan(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let mut doc = Document::new();
        let root = doc.create_element(QName::local("root"));
        doc.append_child(doc.root(), root).unwrap();
        let mut elems = vec![root];
        for op in &ops {
            apply(&mut doc, &mut elems, root, op);
            for a in 0..3 {
                for v in VALUES {
                    prop_assert_eq!(
                        probe(&doc, &attr(a), v),
                        scan(&doc, &attr(a), v),
                        "a{}={:?} after {:?}", a, v, op
                    );
                }
            }
        }
    }
}

/// `<r><t id="k1">one</t><t id="k2">two</t></r>` and its two `t`s.
fn sample() -> (Document, NodeId, NodeId) {
    let mut doc =
        xqib_dom::parse_document(r#"<r><t id="k1">one</t><t id="k2">two</t></r>"#).expect("parses");
    let r = doc.children(doc.root())[0];
    let (t1, t2) = (doc.children(r)[0], doc.children(r)[1]);
    // a detached element carrying the probed value is never listed
    let loose = doc.create_element(QName::local("t"));
    doc.set_attribute(loose, QName::local("id"), "k1").unwrap();
    (doc, t1, t2)
}

#[test]
fn value_replace_and_rename_are_seen_at_once() {
    let (mut doc, t1, t2) = sample();
    let id = QName::local("id");
    assert_eq!(probe(&doc, &id, "k1"), [t1]);
    // replace value of node $t2/@id with "k1"
    let a2 = doc.attribute_node(t2, None, "id").unwrap();
    doc.set_simple_value(a2, "k1").unwrap();
    assert_eq!(probe(&doc, &id, "k1"), [t1, t2]);
    assert!(probe(&doc, &id, "k2").is_empty());
    // rename node $t1/@id as "key"
    let a1 = doc.attribute_node(t1, None, "id").unwrap();
    doc.rename(a1, QName::local("key")).unwrap();
    assert_eq!(probe(&doc, &id, "k1"), [t2]);
    assert_eq!(probe(&doc, &QName::local("key"), "k1"), [t1]);
}

#[test]
fn text_edits_do_not_rebuild_the_index() {
    let (mut doc, t1, _) = sample();
    let id = QName::local("id");
    probe(&doc, &id, "k1");
    assert_eq!(doc.attr_index_counts(), (1, 1));
    let text = doc.children(t1)[0];
    doc.set_simple_value(text, "changed").unwrap();
    assert_eq!(probe(&doc, &id, "k1"), [t1]);
    assert_eq!(doc.attr_index_counts(), (1, 2), "a text edit rebuilt it");
    // an attribute value change does rebuild it
    doc.set_attribute(t1, id.clone(), "k3").unwrap();
    assert_eq!(probe(&doc, &id, "k3"), [t1]);
    assert_eq!(doc.attr_index_counts(), (2, 3));
}
