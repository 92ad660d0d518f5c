//! Packed network states: route-interned, flat `u16` encodings.
//!
//! Exhaustive exploration used to intern full [`NetworkState`] clones —
//! four heap structures per state, dozens of `Route` allocations each. But
//! every route a state can ever mention is drawn from a fixed universe
//! derivable from the instance alone: ε plus the permitted paths of every
//! node (a node only ever chooses/announces permitted paths, and ρ/queue
//! entries are neighbors' announcements). The engine's [`RouteTable`]
//! interns exactly that universe, so a state becomes one flat buffer of
//! its [`RouteId`]s narrowed to `u16`:
//!
//! ```text
//! [chosen: n][announced: n][learned: m][queue lens: m][queue contents…]
//! ```
//!
//! (`n` nodes, `m` dense channel ids, queues oldest-first.) The encoding is
//! injective — equal buffers iff equal states — so hash-dedup over
//! [`PackedState`] is exact, at a fraction of the memory of the 654k-state
//! Appendix A.2 sweeps. Each word holds ε or a route of one fixed source
//! node (the node for π and announcements, the sender for ρ and queues),
//! which is what lets the step kernel ([`crate::exec_packed`]) and the
//! reducer read the table's per-channel extension entries directly. One
//! table is built per codec and shared by `Arc`; its ids depend on the
//! instance alone, so packed bytes are reproducible across runs and thread
//! counts.

use std::sync::Arc;

use routelab_engine::index::ChannelIndex;
use routelab_engine::state::NetworkState;
use routelab_spp::{NodeId, Route, RouteId, RouteTable, SppInstance};

use crate::error::ExploreError;

/// A state encoded as a flat route-id buffer (layout in the module docs).
///
/// The buffer is reference-counted: the frontier engine keeps each packed
/// state in several places at once (dedup maps, pending queues, the arena),
/// and `Arc` turns those clones into pointer bumps instead of buffer copies
/// — shared-ownership interning.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedState(Arc<[u16]>);

impl PackedState {
    /// Buffer length in `u16`s (for memory accounting).
    pub fn len_u16(&self) -> usize {
        self.0.len()
    }

    /// The raw route-id buffer (for the reduction layer's canonicalizers).
    pub(crate) fn as_u16s(&self) -> &[u16] {
        &self.0
    }

    /// Wraps a raw buffer produced by a canonicalizer.
    pub(crate) fn from_u16s(buf: Vec<u16>) -> Self {
        PackedState(buf.into())
    }
}

/// The per-instance codec: the instance's route table plus the layout
/// dimensions.
#[derive(Debug, Clone)]
pub struct StateCodec {
    n: usize,
    m: usize,
    table: Arc<RouteTable>,
    /// Instance × model descriptor used to attribute errors to their cell.
    cell: String,
}

impl StateCodec {
    /// Builds the codec for an instance: interns its [`RouteTable`], whose
    /// ids the packed words are.
    ///
    /// # Errors
    ///
    /// [`ExploreErrorKind::RouteTableOverflow`](crate::error::ExploreErrorKind)
    /// when the universe exceeds the `u16` id space.
    pub fn new(
        inst: &SppInstance,
        index: &ChannelIndex,
        cell: impl Into<String>,
    ) -> Result<Self, ExploreError> {
        let cell = cell.into();
        let table = RouteTable::new(inst);
        if table.len() > usize::from(u16::MAX) {
            return Err(ExploreError {
                cell,
                kind: crate::error::ExploreErrorKind::RouteTableOverflow { routes: table.len() },
            });
        }
        Ok(StateCodec { n: inst.node_count(), m: index.len(), table: Arc::new(table), cell })
    }

    /// The cell descriptor errors are attributed to.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// Node count `n` of the layout.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Channel count `m` of the layout.
    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// The route table whose ids the packed words are.
    pub(crate) fn table(&self) -> &RouteTable {
        &self.table
    }

    /// The id of `r` within this instance's route universe, if interned.
    pub fn route_id(&self, r: &Route) -> Option<u16> {
        // The overflow check in `new` makes the narrowing lossless.
        self.table.intern_route(r).map(|id| id.0 as u16)
    }

    fn rid(&self, r: &Route) -> Result<u16, ExploreError> {
        self.route_id(r).ok_or_else(|| ExploreError::unknown_route(&self.cell, format!("{r:?}")))
    }

    /// Encodes a state.
    ///
    /// # Errors
    ///
    /// [`ExploreErrorKind::UnknownRoute`](crate::error::ExploreErrorKind)
    /// when the state mentions a route outside the instance's universe.
    pub fn encode(&self, s: &NetworkState) -> Result<PackedState, ExploreError> {
        let mut buf = Vec::with_capacity(2 * self.n + 2 * self.m + 4);
        self.encode_into(s, &mut buf)?;
        Ok(PackedState(buf.into()))
    }

    /// Encodes a state into a caller-owned buffer (cleared first) — the
    /// allocation-free path for the frontier engine's expansion buffers.
    ///
    /// # Errors
    ///
    /// Same as [`StateCodec::encode`].
    pub fn encode_into(&self, s: &NetworkState, buf: &mut Vec<u16>) -> Result<(), ExploreError> {
        buf.clear();
        for v in 0..self.n {
            buf.push(self.rid(s.chosen(NodeId(v as u32)))?);
        }
        for v in 0..self.n {
            buf.push(self.rid(s.announced(NodeId(v as u32)))?);
        }
        for c in 0..self.m {
            buf.push(self.rid(s.learned(c))?);
        }
        for c in 0..self.m {
            let len = s.queue(c).len();
            let len =
                u16::try_from(len).map_err(|_| ExploreError::path_too_long(&self.cell, c, len))?;
            buf.push(len);
        }
        for c in 0..self.m {
            for r in s.queue(c).iter() {
                buf.push(self.rid(r)?);
            }
        }
        Ok(())
    }

    fn route(&self, id: u16, ws: &[u16]) -> Result<Route, ExploreError> {
        if usize::from(id) >= self.table.len() {
            return Err(ExploreError::corrupt(
                &self.cell,
                format!("route id {id} out of range ({} routes, buffer {ws:?})", self.table.len()),
            ));
        }
        Ok(self.table.route(RouteId(u32::from(id))).clone())
    }

    /// Decodes a packed state back into a [`NetworkState`].
    ///
    /// # Errors
    ///
    /// [`ExploreErrorKind::CorruptState`](crate::error::ExploreErrorKind)
    /// when the buffer does not match the codec's layout.
    pub fn decode(&self, p: &PackedState) -> Result<NetworkState, ExploreError> {
        self.decode_words(&p.0)
    }

    /// Decodes a raw word buffer back into a [`NetworkState`].
    ///
    /// # Errors
    ///
    /// Same as [`StateCodec::decode`].
    pub fn decode_words(&self, ws: &[u16]) -> Result<NetworkState, ExploreError> {
        let header = 2 * self.n + 2 * self.m;
        if ws.len() < header {
            return Err(ExploreError::corrupt(
                &self.cell,
                format!("buffer holds {} u16s, header needs {header}", ws.len()),
            ));
        }
        let chosen =
            ws[..self.n].iter().map(|&id| self.route(id, ws)).collect::<Result<Vec<_>, _>>()?;
        let announced = ws[self.n..2 * self.n]
            .iter()
            .map(|&id| self.route(id, ws))
            .collect::<Result<Vec<_>, _>>()?;
        let learned = ws[2 * self.n..2 * self.n + self.m]
            .iter()
            .map(|&id| self.route(id, ws))
            .collect::<Result<Vec<_>, _>>()?;
        let mut queues = Vec::with_capacity(self.m);
        let mut at = header;
        for c in 0..self.m {
            let len = usize::from(ws[2 * self.n + self.m + c]);
            let end = at + len;
            if end > ws.len() {
                return Err(ExploreError::corrupt(
                    &self.cell,
                    format!("queue {c} runs past the buffer ({end} > {})", ws.len()),
                ));
            }
            queues.push(
                ws[at..end].iter().map(|&id| self.route(id, ws)).collect::<Result<Vec<_>, _>>()?,
            );
            at = end;
        }
        // The cursor must land exactly on the buffer end: a buffer with
        // words after the last queue is not an encoding of any state, and
        // accepting it would break the "equal states iff equal buffers"
        // injectivity that exact dedup rests on.
        if at != ws.len() {
            return Err(ExploreError::corrupt(
                &self.cell,
                format!("{} trailing u16s after the last queue (buffer {})", ws.len() - at, at),
            ));
        }
        Ok(NetworkState::from_parts(chosen, announced, learned, queues))
    }

    /// Queue length of channel `c` — read straight from the packed header.
    pub fn queue_len(&self, p: &PackedState, c: usize) -> usize {
        self.queue_len_words(&p.0, c)
    }

    /// [`StateCodec::queue_len`] over a raw word buffer.
    pub fn queue_len_words(&self, ws: &[u16], c: usize) -> usize {
        usize::from(ws[2 * self.n + self.m + c])
    }

    /// `true` when channel `c`'s queue is empty.
    pub fn queue_empty(&self, p: &PackedState, c: usize) -> bool {
        self.queue_len(p, c) == 0
    }

    /// [`StateCodec::queue_empty`] over a raw word buffer.
    pub fn queue_empty_words(&self, ws: &[u16], c: usize) -> bool {
        self.queue_len_words(ws, c) == 0
    }

    /// `true` when node `v`'s choice equals its last announcement.
    pub fn chosen_eq_announced(&self, p: &PackedState, v: NodeId) -> bool {
        self.chosen_eq_announced_words(&p.0, v)
    }

    /// [`StateCodec::chosen_eq_announced`] over a raw word buffer.
    pub fn chosen_eq_announced_words(&self, ws: &[u16], v: NodeId) -> bool {
        ws[v.index()] == ws[self.n + v.index()]
    }

    /// `true` when the packed state is quiescent (all queues empty, every
    /// choice announced) — mirrors [`NetworkState::is_quiescent`].
    pub fn is_quiescent(&self, p: &PackedState) -> bool {
        self.is_quiescent_words(&p.0)
    }

    /// [`StateCodec::is_quiescent`] over a raw word buffer.
    pub fn is_quiescent_words(&self, ws: &[u16]) -> bool {
        (0..self.m).all(|c| self.queue_len_words(ws, c) == 0)
            && (0..self.n).all(|v| ws[v] == ws[self.n + v])
    }

    /// The packed π region (chosen route ids) — equal slices iff equal path
    /// assignments.
    pub fn pi_ids<'p>(&self, p: &'p PackedState) -> &'p [u16] {
        &p.0[..self.n]
    }

    /// [`StateCodec::pi_ids`] over a raw word buffer.
    pub fn pi_ids_words<'w>(&self, ws: &'w [u16]) -> &'w [u16] {
        &ws[..self.n]
    }

    /// A 64-bit fingerprint of the packed π region (for π-change tests on
    /// the state graph; collisions only ever merge equal-π classes checks,
    /// and the fingerprint is compared for equality, never ordered).
    pub fn pi_fingerprint(&self, p: &PackedState) -> u64 {
        self.pi_fingerprint_words(&p.0)
    }

    /// [`StateCodec::pi_fingerprint`] over a raw word buffer.
    pub fn pi_fingerprint_words(&self, ws: &[u16]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.pi_ids_words(ws).hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
    use routelab_engine::exec::execute_step;
    use routelab_spp::{gadgets, Path};

    fn codec_for(inst: &SppInstance) -> (ChannelIndex, StateCodec) {
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(inst, &index, "test-cell").expect("codec");
        (index, codec)
    }

    /// Rebuilds `s` with channel 0's queue replaced by `queue0` (states are
    /// externally immutable, so tests perturb them through `from_parts`).
    fn with_queue0(
        inst: &SppInstance,
        index: &ChannelIndex,
        s: &NetworkState,
        queue0: Vec<Route>,
    ) -> NetworkState {
        let mut queues: Vec<Vec<Route>> =
            (0..index.len()).map(|c| s.queue(c).iter().cloned().collect()).collect();
        queues[0] = queue0;
        NetworkState::from_parts(
            s.assignment(),
            inst.nodes().map(|v| s.announced(v).clone()).collect(),
            (0..index.len()).map(|c| s.learned(c).clone()).collect(),
            queues,
        )
    }

    #[test]
    fn round_trips_along_real_executions() {
        // Drive a few dozen random-ish steps on each gadget and round-trip
        // every intermediate state through the codec.
        for (name, inst) in gadgets::corpus() {
            let (index, codec) = codec_for(&inst);
            let mut state = NetworkState::initial(&inst, &index);
            let p = codec.encode(&state).expect("encode initial");
            assert_eq!(codec.decode(&p).expect("decode"), state, "{name} initial");
            for round in 0..6 {
                for v in inst.nodes() {
                    let actions = index
                        .in_channels(v)
                        .iter()
                        .map(|&cid| ChannelAction::read_all(index.channel(cid)))
                        .collect();
                    let step = ActivationStep::single(NodeUpdate::new(v, actions));
                    execute_step(&inst, &index, &mut state, &step);
                    let p = codec.encode(&state).expect("encode");
                    let back = codec.decode(&p).expect("decode");
                    assert_eq!(back, state, "{name} round {round} node {v:?}");
                    assert_eq!(codec.is_quiescent(&p), state.is_quiescent());
                    for c in 0..index.len() {
                        assert_eq!(codec.queue_len(&p, c), state.queue(c).len());
                    }
                    for v in inst.nodes() {
                        assert_eq!(
                            codec.chosen_eq_announced(&p, v),
                            state.chosen(v) == state.announced(v)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encoding_is_injective_on_distinct_states() {
        let inst = gadgets::disagree();
        let (index, codec) = codec_for(&inst);
        let a = NetworkState::initial(&inst, &index);
        let b = with_queue0(&inst, &index, &a, vec![Route::empty()]);
        let pa = codec.encode(&a).unwrap();
        let pb = codec.encode(&b).unwrap();
        assert_ne!(pa, pb);
        // And π fingerprints agree exactly when π agrees.
        assert_eq!(codec.pi_fingerprint(&pa), codec.pi_fingerprint(&pb));
        assert_eq!(codec.pi_ids(&pa), codec.pi_ids(&pb));
    }

    #[test]
    fn unknown_route_is_reported_with_cell() {
        let inst = gadgets::disagree();
        let (index, codec) = codec_for(&inst);
        let init = NetworkState::initial(&inst, &index);
        // A route that is no node's permitted path: the bare path (x) —
        // paths must end at the destination, so (x) alone is never
        // permitted.
        let x = inst.node_by_name("x").unwrap();
        let s = with_queue0(&inst, &index, &init, vec![Route::path(Path::trivial(x))]);
        let err = codec.encode(&s).expect_err("foreign route");
        assert_eq!(err.cell, "test-cell");
        assert!(err.to_string().contains("permitted-path universe"), "{err}");
    }

    #[test]
    fn oversized_queue_is_a_checked_error_not_a_truncation() {
        // A queue longer than u16::MAX used to slip past a debug_assert and
        // truncate its length field in release builds; it must now be a
        // typed error carrying the cell and the channel.
        let inst = gadgets::disagree();
        let (index, codec) = codec_for(&inst);
        let init = NetworkState::initial(&inst, &index);
        let huge = vec![Route::empty(); usize::from(u16::MAX) + 1];
        let s = with_queue0(&inst, &index, &init, huge);
        let err = codec.encode(&s).expect_err("oversized queue");
        assert_eq!(err.cell, "test-cell");
        assert!(
            matches!(
                err.kind,
                crate::error::ExploreErrorKind::PathTooLong { channel: 0, len } if len == 65_536
            ),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_buffers_are_reported() {
        let inst = gadgets::line2();
        let (index, codec) = codec_for(&inst);
        let s = NetworkState::initial(&inst, &index);
        let p = codec.encode(&s).unwrap();
        let truncated = PackedState(p.0[..1].to_vec().into());
        let err = codec.decode(&truncated).expect_err("short buffer");
        assert!(matches!(err.kind, crate::error::ExploreErrorKind::CorruptState { .. }));
        assert!(p.len_u16() > 4);
    }

    #[test]
    fn trailing_words_after_the_last_queue_are_corrupt() {
        // decode() used to stop reading at the last queue without checking
        // that it had consumed the whole buffer, so a corrupt state with
        // trailing words silently decoded to the same NetworkState as its
        // clean prefix — breaking the codec's injectivity guarantee.
        for (name, inst) in gadgets::corpus() {
            let (index, codec) = codec_for(&inst);
            let s = NetworkState::initial(&inst, &index);
            let p = codec.encode(&s).unwrap();
            let mut padded = p.0.to_vec();
            padded.push(0);
            let err = codec.decode_words(&padded).expect_err("trailing words");
            assert!(
                matches!(&err.kind, crate::error::ExploreErrorKind::CorruptState { detail }
                    if detail.contains("trailing")),
                "{name}: {err:?}"
            );
            // The clean buffer still decodes.
            assert_eq!(codec.decode_words(&p.0).unwrap(), s, "{name}");
        }
    }
}
