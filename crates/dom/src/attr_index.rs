//! Attribute-value index.
//!
//! `//article[@id = $id]` is the first step of every article view in the
//! paper's §6.1 page, and without help it walks the whole corpus to find
//! one element — the job a browser answers with a native
//! `getElementById`. This index maps, per attribute name, each value to
//! its owner elements in document order, so the plan tier can take its
//! candidates from a lookup instead of a walk.
//!
//! The index is lazy twice over: nothing is built until the first probe,
//! and each attribute name gets its table on its own first probe. Tables
//! are built by a pre-order walk from the document node, so detached
//! subtrees (tombstones in the arena) are never listed. All tables are
//! dropped together when either of the document's two epochs moves: the
//! structural epoch (see [`crate::order`]) or the attribute epoch, which
//! moves on attribute value changes and renames only — a text edit
//! leaves the index alone (see `DESIGN.md` § "Attribute-value index &
//! invalidation").

use std::collections::HashMap;

use crate::arena::Document;
use crate::name::QName;
use crate::node::NodeId;

/// Per-name `value → owner elements` tables of one [`Document`].
#[derive(Debug, Clone, Default)]
pub struct AttrIndex {
    /// `(structural epoch, attribute epoch)` the tables were built under.
    built_for: Option<(u64, u64)>,
    by_name: HashMap<QName, HashMap<String, Vec<NodeId>>>,
    /// Per-name tables built.
    builds: u64,
    /// Lookups answered.
    probes: u64,
}

impl AttrIndex {
    /// Makes the table for `name` fresh for `epochs` and counts one probe.
    /// A stale index drops every table; a missing table is built by one
    /// pre-order walk of the attached tree.
    pub(crate) fn prepare(&mut self, doc: &Document, epochs: (u64, u64), name: &QName) {
        if self.built_for != Some(epochs) {
            self.by_name.clear();
            self.built_for = Some(epochs);
        }
        self.probes += 1;
        if self.by_name.contains_key(name) {
            return;
        }
        let mut table: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut stack = vec![doc.root()];
        while let Some(n) = stack.pop() {
            if let Some(v) = doc.get_attribute(n, name.ns.as_deref(), &name.local) {
                table.entry(v.to_string()).or_default().push(n);
            }
            stack.extend(doc.children(n).iter().rev());
        }
        self.by_name.insert(name.clone(), table);
        self.builds += 1;
    }

    /// The owner elements of `name = value`, in document order. Only
    /// meaningful right after [`Self::prepare`] for the same name.
    pub(crate) fn get(&self, name: &QName, value: &str) -> &[NodeId] {
        self.by_name
            .get(name)
            .and_then(|t| t.get(value))
            .map_or(&[], Vec::as_slice)
    }

    /// `(tables built, probes answered)` since the document was created.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.builds, self.probes)
    }
}
