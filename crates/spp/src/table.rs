//! Interned route tables: the engine hot path's allocation-free view of an
//! instance.
//!
//! An SPP instance has a *finite* route universe: ε plus every permitted
//! path of every node. A [`RouteTable`] interns that universe once, giving
//! each route a dense [`RouteId`] laid out so that the two operations the
//! activation-step hot loop performs become array lookups:
//!
//! * **Preference order is array position.** Node `v`'s permitted paths
//!   occupy the contiguous id block `[base(v), base(v) + |P_v|)` sorted by
//!   `(rank, lex)` — exactly the total order [`SppInstance::choose_best`]
//!   minimizes over (ranks tie only between paths through the same next
//!   hop, where the lexicographic tiebreak applies; both comparisons are
//!   strict, so the order is total and the minimum unique). Choosing the
//!   best candidate reduces to taking the minimum of local positions.
//! * **Extension is a precomputed table.** For every directed channel
//!   `(u, v)` the table stores, per route announcable by `u` (ε or a
//!   permitted path of `u`), the local preference position at `v` of the
//!   extension `v·p` — or [`NO_CANDIDATE`] when the extension loops or is
//!   not permitted. The paper's algorithm action 2 (extend, filter, rank)
//!   costs one indexed load per in-channel, and [`RouteTable::choose`] is
//!   Definition 2.3's best-route choice for every fast kernel.
//!
//! Routes decode back to [`Route`] values by reference ([`RouteTable::route`]),
//! so rendering, traces and the flight recorder stay byte-identical to the
//! route-value engine.

use std::collections::HashMap;

use crate::graph::{Channel, NodeId};
use crate::instance::SppInstance;
use crate::path::{Path, Route};

/// Dense identifier of an interned route. Id 0 is ε; the ids of node `v`'s
/// permitted paths are contiguous in preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouteId(pub u32);

impl RouteId {
    /// The empty route ε.
    pub const EPSILON: RouteId = RouteId(0);

    /// `true` for ε.
    pub fn is_epsilon(self) -> bool {
        self.0 == 0
    }

    /// The id as a usize index into [`RouteTable::route`]'s universe.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel preference position meaning "no feasible candidate" — it
/// compares greater than every real position, so a plain `min` over
/// candidate positions implements choice with infeasibility for free.
pub const NO_CANDIDATE: u32 = u32::MAX;

/// The interned route universe of one instance plus the per-channel
/// extension tables (see the module docs).
///
/// Built once per instance; all queries are `O(1)` and allocation-free.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `routes[0]` is ε, then each node's permitted paths in preference
    /// order, nodes in increasing id order.
    routes: Vec<Route>,
    /// First route id of each node's block.
    base: Vec<u32>,
    /// Block length of each node.
    count: Vec<u32>,
    /// Path → id (paths embed their source, so the map is global).
    intern: HashMap<Path, RouteId>,
    /// Directed channels in [`crate::Graph::channels`] order — the same
    /// dense ids the engine's channel index assigns.
    channels: Vec<Channel>,
    /// The extension entries of every channel, one flat run per channel.
    /// For channel `(u, v)`, slot 0 of its run is ε and slot `1 + j` the
    /// local preference position at `v` of extending `u`'s `j`-th
    /// permitted path (or [`NO_CANDIDATE`]).
    ext: Vec<u32>,
    /// Per channel: the offset of its run in `ext`, and `base(from)`, which
    /// maps a [`RouteId`] to its slot.
    ext_at: Vec<(u32, u32)>,
    dest: NodeId,
    /// The destination's constant choice: its trivial path.
    dest_choice: RouteId,
}

impl RouteTable {
    /// Interns the route universe of a validated instance.
    pub fn new(inst: &SppInstance) -> Self {
        let n = inst.node_count();
        let mut routes = vec![Route::empty()];
        let mut base = Vec::with_capacity(n);
        let mut count = Vec::with_capacity(n);
        let mut intern = HashMap::new();
        for v in inst.nodes() {
            let perms = inst.permitted(v);
            base.push(routes.len() as u32);
            count.push(perms.len() as u32);
            for rp in perms {
                intern.insert(rp.path.clone(), RouteId(routes.len() as u32));
                routes.push(Route::path(rp.path.clone()));
            }
        }
        let channels: Vec<Channel> = inst.graph().channels().collect();
        let mut ext =
            Vec::with_capacity(channels.iter().map(|ch| count[ch.from.index()] as usize + 1).sum());
        let mut ext_at = Vec::with_capacity(channels.len());
        for ch in &channels {
            let u = ch.from.index();
            let v = ch.to;
            ext_at.push((ext.len() as u32, base[u]));
            ext.push(NO_CANDIDATE); // ε never extends
            for j in 0..count[u] as usize {
                let p = routes[base[u] as usize + j].as_path().expect("non-ε block entry");
                let pos = p.prepend(v).ok().and_then(|extended| intern.get(&extended));
                // Extended paths start at v, so the id lies in v's block.
                ext.push(pos.map_or(NO_CANDIDATE, |rid| rid.0 - base[v.index()]));
            }
        }
        let dest = inst.dest();
        // Validation guarantees the destination's block is exactly its
        // trivial path.
        let dest_choice = RouteId(base[dest.index()]);
        debug_assert_eq!(
            routes[dest_choice.index()].as_path().map(Path::is_trivial),
            Some(true),
            "destination block must start with the trivial path"
        );
        RouteTable { routes, base, count, intern, channels, ext, ext_at, dest, dest_choice }
    }

    /// Total number of interned routes (including ε).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Never empty — ε is always interned.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of directed channels the extension tables cover.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.count.len()
    }

    /// The destination node.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// The destination's constant choice (its trivial path).
    pub fn dest_choice(&self) -> RouteId {
        self.dest_choice
    }

    /// Decodes an id to its route value.
    pub fn route(&self, id: RouteId) -> &Route {
        &self.routes[id.index()]
    }

    /// Number of permitted paths at `v`.
    pub fn route_count(&self, v: NodeId) -> usize {
        self.count[v.index()] as usize
    }

    /// The id of `v`'s `pos`-th most preferred path (0-based).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `pos` is out of `v`'s block.
    pub fn route_id(&self, v: NodeId, pos: u32) -> RouteId {
        debug_assert!(pos < self.count[v.index()]);
        RouteId(self.base[v.index()] + pos)
    }

    /// The id of an interned path, or `None` if it is permitted nowhere.
    pub fn intern_path(&self, p: &Path) -> Option<RouteId> {
        self.intern.get(p).copied()
    }

    /// The id of a route value (ε always interns).
    pub fn intern_route(&self, r: &Route) -> Option<RouteId> {
        match r.as_path() {
            None => Some(RouteId::EPSILON),
            Some(p) => self.intern_path(p),
        }
    }

    /// The local preference position at `to(cid)` of extending `learned`
    /// (the route ρ holds for channel `cid` — ε or a permitted path of
    /// `from(cid)`), or [`NO_CANDIDATE`]. This is the hot-path form of
    /// [`SppInstance::candidate`]: one indexed load, no `Path` built.
    #[inline]
    pub fn candidate_pos(&self, cid: usize, learned: RouteId) -> u32 {
        let (offset, base) = self.ext_at[cid];
        debug_assert!(
            learned.is_epsilon()
                || (base..base + self.count[self.channels[cid].from.index()]).contains(&learned.0),
            "channel {cid} carries a route its sender cannot announce"
        );
        let slot = if learned.is_epsilon() { 0 } else { learned.0 - base + 1 };
        self.ext[(offset + slot) as usize]
    }

    /// Definition 2.3's best-route choice at `v`: the minimum of
    /// [`RouteTable::candidate_pos`] over the in-channels `ins` (dense ids,
    /// `learned(c)` giving ρ on channel `c`), decoded in `v`'s block — ε
    /// when no candidate is feasible. The destination always takes
    /// [`RouteTable::dest_choice`]. [`SppInstance::choose_best`] is the
    /// oracle this is tested against.
    #[inline]
    pub fn choose(
        &self,
        v: NodeId,
        ins: &[usize],
        mut learned: impl FnMut(usize) -> RouteId,
    ) -> RouteId {
        if v == self.dest {
            return self.dest_choice;
        }
        let best =
            ins.iter().fold(NO_CANDIDATE, |best, &c| best.min(self.candidate_pos(c, learned(c))));
        if best == NO_CANDIDATE {
            RouteId::EPSILON
        } else {
            RouteId(self.base[v.index()] + best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets;
    use crate::graph::Channel;

    fn tables() -> Vec<(String, SppInstance)> {
        gadgets::corpus().into_iter().map(|(n, i)| (n.to_string(), i)).collect()
    }

    #[test]
    fn epsilon_is_id_zero_and_blocks_are_preference_ordered() {
        for (name, inst) in tables() {
            let t = RouteTable::new(&inst);
            assert!(t.route(RouteId::EPSILON).is_epsilon(), "{name}");
            assert!(!t.is_empty());
            for v in inst.nodes() {
                let perms = inst.permitted(v);
                assert_eq!(t.route_count(v), perms.len(), "{name}");
                for (pos, rp) in perms.iter().enumerate() {
                    let id = t.route_id(v, pos as u32);
                    assert_eq!(t.route(id).as_path(), Some(&rp.path), "{name}");
                    assert_eq!(t.intern_path(&rp.path), Some(id), "{name}");
                }
            }
        }
    }

    #[test]
    fn destination_choice_is_trivial() {
        for (name, inst) in tables() {
            let t = RouteTable::new(&inst);
            let d = inst.dest();
            assert_eq!(t.dest(), d);
            assert_eq!(t.route(t.dest_choice()).as_path(), Some(&Path::trivial(d)), "{name}");
        }
    }

    #[test]
    fn candidate_pos_agrees_with_naive_candidate() {
        for (name, inst) in tables() {
            let t = RouteTable::new(&inst);
            for (cid, ch) in inst.graph().channels().enumerate() {
                let u = ch.from;
                let v = ch.to;
                // ε never extends.
                assert_eq!(t.candidate_pos(cid, RouteId::EPSILON), NO_CANDIDATE, "{name}");
                for (pos, rp) in inst.permitted(u).iter().enumerate() {
                    let learned = Route::path(rp.path.clone());
                    let id = t.route_id(u, pos as u32);
                    let got = t.candidate_pos(cid, id);
                    match inst.candidate(v, &learned) {
                        None => assert_eq!(got, NO_CANDIDATE, "{name} {ch}"),
                        Some((p, _rank)) => {
                            assert_ne!(got, NO_CANDIDATE, "{name} {ch}");
                            let decoded = t.route(t.route_id(v, got));
                            assert_eq!(decoded.as_path(), Some(&p), "{name} {ch}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_position_choice_equals_choose_best() {
        // Exhaustively sweep single-learned-route configurations on each
        // gadget: the min-of-positions rule must reproduce choose_best.
        for (name, inst) in tables() {
            let t = RouteTable::new(&inst);
            let channels: Vec<Channel> = inst.graph().channels().collect();
            for v in inst.nodes() {
                let ins: Vec<usize> =
                    (0..channels.len()).filter(|&c| channels[c].to == v).collect();
                // All-ε plus each channel carrying each of its sender's routes.
                let mut configs: Vec<Vec<RouteId>> = vec![vec![RouteId::EPSILON; ins.len()]];
                for (k, &cid) in ins.iter().enumerate() {
                    let u = channels[cid].from;
                    for pos in 0..t.route_count(u) {
                        let mut cfg = vec![RouteId::EPSILON; ins.len()];
                        cfg[k] = t.route_id(u, pos as u32);
                        configs.push(cfg);
                        // A denser config: every channel carries something.
                        let full: Vec<RouteId> = ins
                            .iter()
                            .map(|&c| {
                                let w = channels[c].from;
                                if t.route_count(w) > 0 {
                                    t.route_id(w, (pos % t.route_count(w)) as u32)
                                } else {
                                    RouteId::EPSILON
                                }
                            })
                            .collect();
                        configs.push(full);
                    }
                }
                for cfg in configs {
                    let k = |c: usize| ins.iter().position(|&i| i == c).expect("an in-channel");
                    let interned = t.choose(v, &ins, |c| cfg[k(c)]);
                    let routes: Vec<Route> = cfg.iter().map(|&id| t.route(id).clone()).collect();
                    let naive = inst.choose_best(v, routes.iter());
                    assert_eq!(t.route(interned), &naive, "{name} node {v}");
                }
            }
        }
    }

    #[test]
    fn intern_route_round_trips() {
        let inst = gadgets::disagree();
        let t = RouteTable::new(&inst);
        assert_eq!(t.intern_route(&Route::empty()), Some(RouteId::EPSILON));
        for id in (0..t.len()).map(|i| RouteId(i as u32)) {
            assert_eq!(t.intern_route(t.route(id)), Some(id));
        }
        // A valid path permitted nowhere does not intern.
        let x = inst.node_by_name("x").unwrap();
        let y = inst.node_by_name("y").unwrap();
        let foreign = Path::new(vec![y, x, inst.dest()]).unwrap().prepend(NodeId(99));
        assert!(foreign.is_err() || t.intern_path(&foreign.unwrap()).is_none());
        let unpermitted = Path::new(vec![x, y, inst.dest()]).ok();
        // xyd IS permitted in DISAGREE; build one that is not: yd reversed.
        assert!(unpermitted.map(|p| t.intern_path(&p).is_some()).unwrap_or(false));
    }
}
