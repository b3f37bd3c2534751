//! Strongly typed identifiers for data vertices and labels.
//!
//! Identifiers are `u32` newtypes: the paper's datasets are tens of millions
//! of vertices at most, and a 4-byte id halves adjacency-list memory traffic
//! compared to `usize` (per the type-size guidance in the Rust Performance
//! Book).

use std::fmt;

/// Identifier of a data vertex in a [`crate::DynamicGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct VertexId(pub u32);

/// Identifier of an interned vertex or edge label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct LabelId(pub u32);

impl VertexId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How far past the vertex table an op or a stream line may name a vertex.
///
/// Vertex ids are dense: creating id `N` makes the graph fill every slot
/// below it ([`crate::DynamicGraph::ensure_vertex`]), so without a bound one
/// op — an insert of `0 → 300000000` — allocates gigabytes. Real streams
/// number their vertices as they meet them; a million ids of headroom lets a
/// file be cut, shuffled or sampled and still refuses the id that is a typo
/// or an attack. The text source refuses such a line, `tfx_core`'s round
/// driver such an op.
pub const MAX_VERTEX_GAP: u32 = 1 << 20;

impl LabelId {
    /// Label ids run `0..LIMIT`. A flat adjacency run's header, a
    /// directory's record and an inline run's handle each pack an edge label
    /// into one 4-byte word beside a byte or the layout bits
    /// ([`crate::adjacency`]), which leaves 24 bits for the label;
    /// [`crate::LabelInterner`] hands out no more ids than that, and
    /// [`crate::DynamicGraph`] stores no edge label at or past it.
    pub const LIMIT: u32 = 1 << 24;

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<u32> for LabelId {
    #[inline]
    fn from(v: u32) -> Self {
        LabelId(v)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from(7u32);
        assert_eq!(v.index(), 7);
        assert_eq!(format!("{v}"), "v7");
        assert_eq!(format!("{v:?}"), "v7");
    }

    #[test]
    fn label_id_roundtrip() {
        let l = LabelId::from(3u32);
        assert_eq!(l.index(), 3);
        assert_eq!(format!("{l}"), "l3");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(LabelId(0) < LabelId(9));
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
    }
}
