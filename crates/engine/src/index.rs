//! Dense indexing of a graph's directed channels.

use routelab_spp::{Channel, Graph, NodeId};

/// Assigns a dense id to every directed channel of a graph and precomputes
/// per-node in/out channel lists.
///
/// Ids follow [`Graph::channels`]' `(from, to)` order over the sorted
/// adjacency, so each node's out-channels are ordered by `to` and
/// [`ChannelIndex::id`] is a binary search among them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelIndex {
    channels: Vec<Channel>,
    in_of: Vec<Vec<usize>>,
    out_of: Vec<Vec<usize>>,
}

impl ChannelIndex {
    /// Builds the index for a graph.
    pub fn new(g: &Graph) -> Self {
        let channels: Vec<Channel> = g.channels().collect();
        let mut in_of = vec![Vec::new(); g.node_count()];
        let mut out_of = vec![Vec::new(); g.node_count()];
        for (i, c) in channels.iter().enumerate() {
            out_of[c.from.index()].push(i);
            in_of[c.to.index()].push(i);
        }
        ChannelIndex { channels, in_of, out_of }
    }

    /// Number of directed channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// `true` for a graph without edges.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The dense id of `c`, if `c` is a channel of the graph (`None` also
    /// for endpoints outside it).
    pub fn id(&self, c: Channel) -> Option<usize> {
        let out = self.out_of.get(c.from.index())?;
        let k = out.binary_search_by_key(&c.to, |&i| self.channels[i].to).ok()?;
        Some(out[k])
    }

    /// The channel with dense id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn channel(&self, i: usize) -> Channel {
        self.channels[i]
    }

    /// All channels in id order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Ids of channels read by `v`, in deterministic (neighbor) order.
    pub fn in_channels(&self, v: NodeId) -> &[usize] {
        &self.in_of[v.index()]
    }

    /// Ids of channels written by `v`, in deterministic (neighbor) order.
    pub fn out_channels(&self, v: NodeId) -> &[usize] {
        &self.out_of[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;
    use routelab_spp::generator::{gao_rexford_instance, random_instance, RandomSppConfig};

    #[test]
    fn ids_are_dense_and_bijective() {
        let mut instances = gadgets::corpus();
        let random = random_instance(&RandomSppConfig { nodes: 12, seed: 9, ..Default::default() });
        instances.push(("random", random.unwrap()));
        instances.push(("gao-rexford", gao_rexford_instance(200, 7, 6, 5).unwrap()));
        for (name, inst) in &instances {
            let idx = ChannelIndex::new(inst.graph());
            assert_eq!(idx.len(), 2 * inst.graph().edge_count(), "{name}");
            for i in 0..idx.len() {
                assert_eq!(idx.id(idx.channel(i)), Some(i), "{name}");
            }
        }
    }

    #[test]
    fn id_is_none_off_the_graph() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        assert!(!idx.is_empty());
        let n = inst.node_count() as u32;
        let (d, x) = (inst.dest(), inst.node_by_name("x").unwrap());
        assert!(idx.id(Channel::new(d, x)).is_some());
        // A self pair is in range but not an edge.
        assert_eq!(idx.id(Channel::new(d, d)), None);
        for past in [n, n + 1, u32::MAX] {
            assert_eq!(idx.id(Channel::new(NodeId(past), d)), None);
            assert_eq!(idx.id(Channel::new(d, NodeId(past))), None);
            assert_eq!(idx.id(Channel::new(NodeId(past), NodeId(past))), None);
        }
        // FIG6's d and a are both nodes, but not adjacent.
        let fig6 = gadgets::fig6();
        let idx = ChannelIndex::new(fig6.graph());
        let (d, a) = (fig6.dest(), fig6.node_by_name("a").unwrap());
        assert!(!fig6.graph().has_edge(d, a));
        assert_eq!(idx.id(Channel::new(d, a)), None);
        assert_eq!(idx.id(Channel::new(a, d)), None);
    }

    #[test]
    fn in_out_lists_cover_all_channels() {
        let inst = gadgets::fig6();
        let idx = ChannelIndex::new(inst.graph());
        let mut seen_in = 0;
        let mut seen_out = 0;
        for v in inst.nodes() {
            seen_in += idx.in_channels(v).len();
            seen_out += idx.out_channels(v).len();
            for &i in idx.in_channels(v) {
                assert_eq!(idx.channel(i).to, v);
            }
            for &i in idx.out_channels(v) {
                assert_eq!(idx.channel(i).from, v);
            }
        }
        assert_eq!(seen_in, idx.len());
        assert_eq!(seen_out, idx.len());
    }

    #[test]
    fn empty_graph() {
        let g = routelab_spp::Graph::new(1);
        let idx = ChannelIndex::new(&g);
        assert!(idx.is_empty());
        assert_eq!(idx.in_channels(NodeId(0)), &[] as &[usize]);
    }
}
