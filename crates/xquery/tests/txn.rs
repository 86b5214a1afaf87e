//! Transactional-apply property tests: random primitive sequences crossed
//! with random crash points must always leave the store serializing exactly
//! as it did before the failed apply (all-or-nothing), and a rolled-back
//! store must stay fully usable.
//!
//! Deterministic CI matrix hook: `XQIB_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! sequence × crash-point space while any single failure stays reproducible.

use proptest::prelude::*;
use xqib_dom::serialize::serialize_document;
use xqib_dom::{DocId, NodeRef, QName, Store};
use xqib_xquery::pul::{CrashPoint, Pul, UpdatePrimitive};

fn env_seed() -> u64 {
    std::env::var("XQIB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64: a tiny deterministic generator for shaping primitives. The
/// proptest strategies drive the top-level seed; this fans it out.
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

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// `<r><c0>t0</c0> … <c4>t4</c4></r>` plus the element/text node lists the
/// generator draws targets from.
fn build_store() -> (Store, DocId, Vec<NodeRef>, Vec<NodeRef>) {
    let mut s = Store::new();
    let d = s.new_document(None);
    let doc = s.doc_mut(d);
    let root = doc.create_element(QName::local("r"));
    doc.append_child(doc.root(), root).unwrap();
    let mut elems = vec![NodeRef::new(d, root)];
    let mut texts = Vec::new();
    for i in 0..5 {
        let c = doc.create_element(QName::local(format!("c{i}")));
        doc.append_child(root, c).unwrap();
        let t = doc.create_text(format!("t{i}"));
        doc.append_child(c, t).unwrap();
        elems.push(NodeRef::new(d, c));
        texts.push(NodeRef::new(d, t));
    }
    (s, d, elems, texts)
}

/// A random but structurally valid primitive sequence over the fixed tree.
/// Sequences may still fail `check()` (duplicate rename/replace targets) —
/// that is part of the property: a rejected list must also apply nothing.
fn gen_pul(
    store: &mut Store,
    d: DocId,
    elems: &[NodeRef],
    texts: &[NodeRef],
    rng: &mut Rng,
    len: usize,
) -> Pul {
    let mut pul = Pul::new();
    for i in 0..len {
        // elems[0] is the root element; children target it freely, but
        // delete/replace/rename draw from the non-root slice
        let inner = &elems[1..];
        let prim = match rng.below(8) {
            0 => {
                let n = store
                    .doc_mut(d)
                    .create_element(QName::local(format!("new{i}")));
                UpdatePrimitive::InsertInto {
                    target: *rng.pick(elems),
                    children: vec![NodeRef::new(d, n)],
                }
            }
            1 => {
                let n = store.doc_mut(d).create_text(format!("ins{i}"));
                UpdatePrimitive::InsertBefore {
                    anchor: *rng.pick(inner),
                    children: vec![NodeRef::new(d, n)],
                }
            }
            2 => {
                let a = store
                    .doc_mut(d)
                    .create_attribute(QName::local(format!("a{}", rng.below(3))), format!("v{i}"));
                UpdatePrimitive::InsertAttributes {
                    target: *rng.pick(inner),
                    attrs: vec![NodeRef::new(d, a)],
                }
            }
            3 => UpdatePrimitive::Delete {
                target: if rng.below(2) == 0 {
                    *rng.pick(inner)
                } else {
                    *rng.pick(texts)
                },
            },
            4 => UpdatePrimitive::ReplaceValue {
                target: *rng.pick(texts),
                value: format!("rv{i}"),
            },
            5 => UpdatePrimitive::ReplaceElementContent {
                target: *rng.pick(inner),
                text: format!("rec{i}"),
            },
            6 => UpdatePrimitive::Rename {
                target: *rng.pick(inner),
                name: QName::local(format!("ren{i}")),
            },
            _ => {
                let n = store
                    .doc_mut(d)
                    .create_element(QName::local(format!("sub{i}")));
                UpdatePrimitive::ReplaceNode {
                    target: *rng.pick(inner),
                    replacements: vec![NodeRef::new(d, n)],
                }
            }
        };
        pul.push(prim);
    }
    pul
}

fn snapshot(s: &Store) -> Vec<String> {
    (0..s.doc_count())
        .map(|i| serialize_document(s.doc(DocId(i as u32))))
        .collect()
}

proptest! {
    /// Crashing at ANY step of ANY random primitive sequence leaves the
    /// store serializing exactly as before the apply, and the rolled-back
    /// store behaves identically to a fresh one on the next apply.
    #[test]
    fn crashed_apply_round_trips_the_store(
        seed in 0u64..1_000_000,
        len in 1usize..7,
        crash in 0u64..48,
    ) {
        let mixed = seed ^ env_seed();
        let (mut store, d, elems, texts) = build_store();
        let pul = gen_pul(&mut store, d, &elems, &texts, &mut Rng(mixed), len);
        let before = snapshot(&store);

        // the reference run: same seed, fresh store, no crash
        let (mut fresh, fd, felems, ftexts) = build_store();
        let fpul = gen_pul(&mut fresh, fd, &felems, &ftexts, &mut Rng(mixed), len);
        let fresh_outcome = fpul.apply_with_crash(&mut fresh, CrashPoint::none());

        match pul.clone().apply_with_crash(&mut store, CrashPoint::at(crash)) {
            Err(_) => {
                prop_assert_eq!(
                    &snapshot(&store), &before,
                    "rollback must restore the pre-apply serialization"
                );
                // the rolled-back store is not wedged: re-applying without a
                // crash point agrees with the fresh-store reference run
                let retry = pul.apply_with_crash(&mut store, CrashPoint::none());
                prop_assert_eq!(
                    retry.as_ref().err().map(|e| e.code.clone()),
                    fresh_outcome.as_ref().err().map(|e| e.code.clone()),
                    "retry after rollback diverged from a fresh apply"
                );
                if retry.is_ok() {
                    prop_assert_eq!(snapshot(&store), snapshot(&fresh));
                }
            }
            Ok(()) => {
                // crash point past the end of the list: a complete apply,
                // which must agree with the reference run exactly
                prop_assert!(fresh_outcome.is_ok());
                prop_assert_eq!(snapshot(&store), snapshot(&fresh));
            }
        }
    }

    /// Sweeping every crash point of one fixed sequence: each injected
    /// failure reports `XQIB0012` and rolls back completely.
    #[test]
    fn every_crash_point_reports_the_injected_code(seed in 0u64..100_000) {
        let mixed = seed ^ env_seed();
        for crash in 0u64..32 {
            let (mut store, d, elems, texts) = build_store();
            let pul = gen_pul(&mut store, d, &elems, &texts, &mut Rng(mixed), 4);
            let before = snapshot(&store);
            if pul.check().is_err() {
                // conflicting list: apply refuses up front, nothing to sweep
                break;
            }
            match pul.apply_with_crash(&mut store, CrashPoint::at(crash)) {
                Err(e) => {
                    prop_assert_eq!(&e.code, "XQIB0012", "unexpected failure: {}", e);
                    prop_assert_eq!(snapshot(&store), before);
                }
                // past the last step: nothing left to crash
                Ok(()) => break,
            }
        }
    }
}
