//! Dense indexing of a graph's directed channels.

use routelab_spp::{Channel, Graph, NodeId};

/// Assigns a dense id to every directed channel of a graph and precomputes
/// per-node in/out channel lists.
///
/// Ids follow [`Graph::channels`]' `(from, to)` order over the sorted
/// adjacency, so each node's out-channels are a run of consecutive ids
/// ordered by `to`, and [`ChannelIndex::id`] is a binary search among them.
/// The per-node lists are slices of two flat arrays, so an index is five
/// allocations at most, whatever the graph's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelIndex {
    channels: Vec<Channel>,
    /// Every id in increasing order: node `v`'s out-channels are
    /// `ids[out_at[v]..out_at[v + 1]]`.
    ids: Vec<usize>,
    out_at: Vec<usize>,
    /// Ids grouped by receiver, each group in increasing id order: node
    /// `v`'s in-channels are `in_ids[in_at[v]..in_at[v + 1]]`.
    in_ids: Vec<usize>,
    in_at: Vec<usize>,
}

impl ChannelIndex {
    /// Builds the index for a graph.
    pub fn new(g: &Graph) -> Self {
        let channels: Vec<Channel> = g.channels().collect();
        let n = g.node_count();
        let (mut out_at, mut in_at) = (vec![0; n + 1], vec![0; n + 1]);
        for c in &channels {
            out_at[c.from.index() + 1] += 1;
            in_at[c.to.index() + 1] += 1;
        }
        for v in 0..n {
            out_at[v + 1] += out_at[v];
            in_at[v + 1] += in_at[v];
        }
        // Fill each receiver's group in id order, advancing a cursor that
        // starts at the group's beginning.
        let mut next = in_at.clone();
        let mut in_ids = vec![0; channels.len()];
        for (i, c) in channels.iter().enumerate() {
            in_ids[next[c.to.index()]] = i;
            next[c.to.index()] += 1;
        }
        ChannelIndex { ids: (0..channels.len()).collect(), channels, out_at, in_ids, in_at }
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
        if c.from.index() >= self.out_at.len() - 1 {
            return None;
        }
        let out = self.out_channels(c.from);
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
        &self.in_ids[self.in_at[v.index()]..self.in_at[v.index() + 1]]
    }

    /// Ids of channels written by `v`, in deterministic (neighbor) order.
    pub fn out_channels(&self, v: NodeId) -> &[usize] {
        &self.ids[self.out_at[v.index()]..self.out_at[v.index() + 1]]
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
