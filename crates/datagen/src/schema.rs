//! Schema graphs: typed vertices and typed relations.
//!
//! The paper generates tree queries "by randomly traversing schema graphs"
//! (§5.1). A schema is itself a small graph whose vertices are entity types
//! (vertex labels) and whose edges are relations (edge labels) between
//! types; both datasets expose one.

use tfx_graph::{LabelId, LabelInterner, LabelSet};

/// A typed relation `src_type -label-> dst_type` of a schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Relation {
    /// Index of the source vertex type ([`Schema::type_name`]),
    pub src_type: usize,
    /// the interned edge label,
    pub label: LabelId,
    /// and the index of the destination vertex type.
    pub dst_type: usize,
}

/// A dataset schema: vertex types plus typed relations.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    vertex_type_labels: Vec<Option<LabelId>>,
    vertex_type_names: Vec<String>,
    relations: Vec<Relation>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex type; `label` is `None` for untyped vertices (as in
    /// Netflow, which has no vertex labels). Returns the type index.
    pub fn add_vertex_type(&mut self, name: &str, label: Option<LabelId>) -> usize {
        self.vertex_type_names.push(name.to_owned());
        self.vertex_type_labels.push(label);
        self.vertex_type_names.len() - 1
    }

    /// Adds a relation between two type indices.
    pub fn add_relation(&mut self, src_type: usize, label: LabelId, dst_type: usize) {
        assert!(src_type < self.type_count() && dst_type < self.type_count());
        self.relations.push(Relation { src_type, label, dst_type });
    }

    /// Number of vertex types.
    pub fn type_count(&self) -> usize {
        self.vertex_type_names.len()
    }

    /// The relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The label set for a vertex of type `t` (empty for untyped).
    pub fn type_label_set(&self, t: usize) -> LabelSet {
        match self.vertex_type_labels[t] {
            Some(l) => LabelSet::single(l),
            None => LabelSet::empty(),
        }
    }

    /// Name of type `t`.
    pub fn type_name(&self, t: usize) -> &str {
        &self.vertex_type_names[t]
    }

    /// Relations incident (either direction) to type `t`.
    pub fn incident_relations(&self, t: usize) -> Vec<Relation> {
        self.relations.iter().copied().filter(|r| r.src_type == t || r.dst_type == t).collect()
    }

    /// Relations from `t` to itself (usable for cycles of one type).
    pub fn self_relations(&self, t: usize) -> Vec<Relation> {
        self.relations.iter().copied().filter(|r| r.src_type == t && r.dst_type == t).collect()
    }
}

/// Builds the LSBench-like social-media schema (see `lsbench`).
pub fn social_schema(interner: &mut LabelInterner) -> Schema {
    let mut s = Schema::new();
    let vt = |s: &mut Schema, name: &str, it: &mut LabelInterner| {
        let l = it.intern(name);
        s.add_vertex_type(name, Some(l))
    };
    let user = vt(&mut s, "User", interner);
    let post = vt(&mut s, "Post", interner);
    let comment = vt(&mut s, "Comment", interner);
    let photo = vt(&mut s, "Photo", interner);
    let channel = vt(&mut s, "Channel", interner);
    let tag = vt(&mut s, "Tag", interner);
    let city = vt(&mut s, "City", interner);

    let rel = |s: &mut Schema, a: usize, name: &str, b: usize, it: &mut LabelInterner| {
        let l = it.intern(name);
        s.add_relation(a, l, b);
    };
    rel(&mut s, user, "knows", user, interner);
    rel(&mut s, user, "follows", channel, interner);
    rel(&mut s, user, "creatorOfPost", post, interner);
    rel(&mut s, user, "creatorOfComment", comment, interner);
    rel(&mut s, user, "creatorOfPhoto", photo, interner);
    rel(&mut s, user, "likes", post, interner);
    rel(&mut s, user, "locatedIn", city, interner);
    rel(&mut s, comment, "replyOf", post, interner);
    rel(&mut s, post, "postedIn", channel, interner);
    rel(&mut s, post, "hasTag", tag, interner);
    rel(&mut s, photo, "hasTag", tag, interner);
    rel(&mut s, photo, "takenAt", city, interner);
    s
}

/// Builds the Netflow-like schema: one untyped host type and eight
/// protocol edge labels (the paper: "Netflow has only eight edge labels
/// and no vertex label").
pub fn netflow_schema(interner: &mut LabelInterner) -> Schema {
    let mut s = Schema::new();
    let host = s.add_vertex_type("Host", None);
    for proto in ["tcp", "udp", "icmp", "gre", "esp", "sctp", "ospf", "other"] {
        let l = interner.intern(proto);
        s.add_relation(host, l, host);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_schema_shape() {
        let mut it = LabelInterner::new();
        let s = social_schema(&mut it);
        assert_eq!(s.type_count(), 7);
        assert_eq!(s.relations().len(), 12);
        assert_eq!(s.type_name(0), "User");
        assert!(!s.type_label_set(0).is_empty());
        assert_eq!(s.self_relations(0).len(), 1, "knows is the only self relation");
        assert!(s.incident_relations(0).len() >= 7);
    }

    #[test]
    fn netflow_schema_shape() {
        let mut it = LabelInterner::new();
        let s = netflow_schema(&mut it);
        assert_eq!(s.type_count(), 1);
        assert_eq!(s.relations().len(), 8);
        assert!(s.type_label_set(0).is_empty(), "hosts are unlabeled");
        assert_eq!(s.self_relations(0).len(), 8);
    }
}
