//! Flat storage for interned frontier nodes.
//!
//! Every interned node is a run of `u16` words in one contiguous buffer,
//! appended in id order; node `id` is the slice between its predecessor's
//! end offset and its own. All writes happen in the frontier's serial merge
//! phase, so the parallel expand phase only ever reads — `&NodeArena` is
//! freely shared across worker threads.

/// Arena of interned `u16`-word nodes; index = node id. Equality is by
/// content: two arenas are equal iff they hold the same nodes in the same
/// order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct NodeArena {
    /// Every node's words, concatenated in id order.
    words: Vec<u16>,
    /// End offset of each node in `words`.
    ends: Vec<usize>,
}

impl NodeArena {
    /// An empty arena.
    pub fn new() -> Self {
        NodeArena::default()
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of node payload held (excludes the per-node offsets).
    pub fn bytes_resident(&self) -> u64 {
        self.words.len() as u64 * 2
    }

    /// Appends `words` as the next node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the `u32` id space is exhausted.
    pub fn intern(&mut self, words: &[u16]) -> u32 {
        assert!(self.ends.len() < u32::MAX as usize, "arena id space exhausted");
        self.words.extend_from_slice(words);
        self.ends.push(self.words.len());
        (self.ends.len() - 1) as u32
    }

    /// The words of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an interned id.
    pub fn node(&self, id: u32) -> &[u16] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.words[start..self.ends[id]]
    }

    /// The words of node `id` in a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// As [`NodeArena::node`].
    pub fn node_vec(&self, id: u32) -> Vec<u16> {
        self.node(id).to_vec()
    }

    /// All nodes, id order (test/diagnostic helper).
    pub fn snapshot(&self) -> Vec<Vec<u16>> {
        (0..self.len() as u32).map(|i| self.node_vec(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_round_trip_and_compare_by_content() {
        let nodes: [&[u16]; 4] = [&[1, 2, 3], &[], &[7], &[1, 2, 3]];
        let mut a = NodeArena::new();
        for (i, ws) in nodes.iter().enumerate() {
            assert_eq!(a.intern(ws), i as u32);
        }
        assert_eq!(a.len(), 4);
        for (i, ws) in nodes.iter().enumerate() {
            assert_eq!(a.node(i as u32), *ws, "node {i}");
        }
        assert_eq!(a.snapshot(), nodes.map(<[u16]>::to_vec));
        assert_eq!(a.bytes_resident(), 14);

        let mut b = NodeArena::new();
        for ws in nodes {
            b.intern(ws);
        }
        assert_eq!(a, b);
        // Same words, different node boundaries.
        let mut c = NodeArena::new();
        for ws in [&[1, 2][..], &[3], &[7], &[1, 2, 3]] {
            c.intern(ws);
        }
        assert_ne!(a, c);
        b.intern(&[]);
        assert_ne!(a, b);
    }
}
