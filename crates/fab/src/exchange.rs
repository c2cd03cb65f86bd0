//! The one exchange engine: every byte that crosses ranks is laid out,
//! packed, sent, received and decoded here.
//!
//! A *round* moves items — plan chunks, restriction chunks, reflux parts,
//! checkpoint bodies, tag sets — whose source rank, destination rank and
//! size every rank derives from replicated metadata. Each rank therefore
//! derives the same [`Layout`]: per peer, which items travel, in item order,
//! at which byte offset. A round sends exactly one message per `(src, dst)`
//! pair — the unit the cost model prices (`CopyPlan::stats().num_messages`,
//! the paper's §VI-B/§VI-C message counts). A round has one tag, which its
//! caller draws from the round counter every rank advances in step
//! ([`crocco_runtime::tags::round`]); receives match on `(sender, tag)`.
//! [`exchange`] runs a fenced round (a
//! broadcast round is packed once, its [`Bytes`] cloned per peer); the
//! RK-stage task graph (`crate::dist_overlap`) packs each peer's message in
//! a task of its own ([`Layout::pack`]) and receives through an [`Inbox`].
//! [`Layout::decode`] checks every received message against its layout: a
//! wrong length is a [`CommError::MalformedPayload`], never a panic.
//!
//! Chunk bytes have one format, written by [`pack_chunk`] and read by
//! [`unpack_chunk`]: component-major, then the region's x-rows, each cell a
//! little-endian `f64` — so a remote unpack writes bitwise what the local
//! copy it replaces would. Deadlock freedom follows from the transport's
//! buffered sends: every rank enqueues all its messages before it blocks.

use crate::multifab::MultiFab;
use crate::plan::{CopyChunk, CopyPlan};
use crate::view::{with_rw, FabRw, FabView};
use bytes::Bytes;
use crocco_geometry::{IndexBox, IntVect};
use crocco_runtime::cluster::{take_field, CommError};
use crocco_runtime::{GroupEndpoint, RecvHandle};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

/// One message of a round: its peer and the items it carries, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Msg {
    /// The peer's logical rank.
    pub peer: usize,
    /// Item indices, ascending.
    pub items: Vec<usize>,
    /// End byte offset of each item (zeros in a counted layout).
    ends: Vec<usize>,
}

impl Msg {
    /// Payload bytes of the message (exact layouts).
    pub fn bytes(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Byte range of the message's `k`-th item (exact layouts).
    pub fn range(&self, k: usize) -> Range<usize> {
        k.checked_sub(1).map_or(0, |j| self.ends[j])..self.ends[k]
    }
}

/// One rank's view of one round: its messages, one per peer, by peer.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    /// Messages this rank sends.
    pub sends: Vec<Msg>,
    /// Messages this rank receives.
    pub recvs: Vec<Msg>,
    /// Per received item: `(position in recvs, position in its message)`.
    slot: Vec<Option<(usize, usize)>>,
    /// Item sizes are the sender's to know: each message leads with one
    /// little-endian `u64` size per item.
    counted: bool,
}

impl Layout {
    /// The layout of a round whose item sizes every rank knows: `routes`
    /// yields `(item, src, dst, bytes)` in ascending item order (a
    /// broadcast item once per destination). Routes with `src == dst` stay
    /// on their rank.
    pub fn new(rank: usize, routes: impl IntoIterator<Item = (usize, usize, usize, usize)>) -> Self {
        let (mut sends, mut recvs) = (BTreeMap::new(), BTreeMap::new());
        for (item, src, dst, bytes) in routes {
            let (side, peer) = match (src == rank, dst == rank) {
                (true, false) => (&mut sends, dst),
                (false, true) => (&mut recvs, src),
                _ => continue,
            };
            let msg: &mut Msg = side.entry(peer).or_insert_with(|| Msg { peer, ..Msg::default() });
            debug_assert!(msg.items.last().is_none_or(|&last| last < item), "items must ascend");
            msg.items.push(item);
            msg.ends.push(msg.bytes() + bytes);
        }
        let recvs: Vec<Msg> = recvs.into_values().collect();
        let nitems = recvs.iter().filter_map(|m| m.items.last()).max().map_or(0, |k| k + 1);
        let mut slot = vec![None; nitems];
        for (m, msg) in recvs.iter().enumerate() {
            for (k, &item) in msg.items.iter().enumerate() {
                slot[item] = Some((m, k));
            }
        }
        Layout { sends: sends.into_values().collect(), recvs, slot, counted: false }
    }

    /// The layout of a round whose item sizes only the sender knows (the
    /// tag union): `routes` yields `(item, src, dst)`.
    pub fn counted(rank: usize, routes: impl IntoIterator<Item = (usize, usize, usize)>) -> Self {
        let routes = routes.into_iter().map(|(item, src, dst)| (item, src, dst, 0));
        Layout { counted: true, ..Layout::new(rank, routes) }
    }

    /// The layout of a plan's rank-crossing chunks, item = chunk index.
    pub fn of_plan(rank: usize, plan: &CopyPlan) -> Self {
        let bytes = |c: &CopyChunk| c.bytes(plan.ncomp) as usize;
        let routes = plan.chunks.iter().enumerate();
        Layout::new(rank, routes.map(|(k, c)| (k, c.src_rank, c.dst_rank, bytes(c))))
    }

    /// Where received item `item` lands in an exact layout: its message's
    /// position in [`Self::recvs`] and its byte range there.
    pub fn recv_slot(&self, item: usize) -> Option<(usize, Range<usize>)> {
        debug_assert!(!self.counted, "a counted message carries its own ranges");
        let (m, k) = (*self.slot.get(item)?)?;
        Some((m, self.recvs[m].range(k)))
    }

    /// Packs outgoing message `msg`; `pack(item, out)` appends an item.
    pub fn pack(&self, msg: &Msg, pack: &mut dyn FnMut(usize, &mut Vec<u8>)) -> Bytes {
        let head = if self.counted { 8 * msg.items.len() } else { 0 };
        let mut out = vec![0; head];
        out.reserve(msg.bytes());
        for (k, &item) in msg.items.iter().enumerate() {
            let start = out.len();
            pack(item, &mut out);
            let len = out.len() - start;
            if self.counted {
                out[8 * k..8 * k + 8].copy_from_slice(&(len as u64).to_le_bytes());
            }
            debug_assert!(self.counted || len == msg.range(k).len(), "item {item} misfits");
        }
        Bytes::from(out)
    }

    /// The one decoder: checks `body`, received under `tag` as message `m`
    /// of [`Self::recvs`], against the layout and returns each item's byte
    /// range. A length the layout (or, counted, the message's own size
    /// directory) does not predict is a [`CommError::MalformedPayload`].
    pub fn decode(&self, m: usize, body: &[u8], tag: u64) -> Result<Vec<Range<usize>>, CommError> {
        let msg = &self.recvs[m];
        let malformed = |expected| CommError::MalformedPayload {
            src: msg.peer,
            tag,
            expected,
            got: body.len(),
        };
        let head = if self.counted { 8 * msg.items.len() } else { 0 };
        let (mut words, mut at) = (body, head);
        let mut ranges = Vec::with_capacity(msg.items.len());
        for k in 0..msg.items.len() {
            let len = if self.counted {
                let size = take_field(&mut words).ok_or(malformed(head))?;
                usize::try_from(u64::from_le_bytes(size)).unwrap_or(usize::MAX)
            } else {
                msg.range(k).len()
            };
            ranges.push(at..at.saturating_add(len));
            at = at.saturating_add(len);
        }
        if at == body.len() {
            Ok(ranges)
        } else {
            Err(malformed(at))
        }
    }
}

/// The items one round delivered to this rank, each a zero-copy slice of
/// its decoded message. Empty by default: nothing is remote.
#[derive(Clone, Debug, Default)]
pub struct Landed(Vec<Option<Bytes>>);

impl Landed {
    /// The bytes of item `item`, if it arrived from another rank.
    pub fn get(&self, item: usize) -> Option<&[u8]> {
        self.0.get(item)?.as_deref()
    }
}

/// The posted receives of one round, one per peer.
pub struct Inbox<'a> {
    layout: &'a Layout,
    handles: Vec<RecvHandle>,
    /// Per message, the decoder's verdict once the message has landed.
    verdicts: Vec<OnceLock<Result<(), CommError>>>,
}

impl<'a> Inbox<'a> {
    /// Posts one receive per incoming message of `layout`, round `tag`.
    pub fn post(gep: &GroupEndpoint<'_>, layout: &'a Layout, tag: u64) -> Self {
        Inbox {
            layout,
            handles: layout.recvs.iter().map(|m| gep.irecv(m.peer, tag)).collect(),
            verdicts: layout.recvs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Message `m`'s verdict, decoded the first time it is seen landed.
    fn verdict(&self, m: usize) -> Option<&Result<(), CommError>> {
        if let Some(v) = self.verdicts[m].get() {
            return Some(v);
        }
        let (body, tag) = (self.handles[m].payload()?, self.handles[m].tag());
        Some(self.verdicts[m].get_or_init(|| self.layout.decode(m, &body, tag).map(|_| ())))
    }

    /// `true` once message `m` has landed and decoded cleanly: a task
    /// graph's receive event. A malformed message never becomes ready.
    pub fn is_ready(&self, m: usize) -> bool {
        matches!(self.verdict(m), Some(Ok(())))
    }

    /// The first landed message that failed to decode, as a typed error —
    /// the task graph's progress pump runs this, so a malformed message
    /// fails the stage instead of leaving its event pending.
    pub fn poll(&self) -> Result<(), CommError> {
        match (0..self.handles.len()).find_map(|m| self.verdict(m)?.as_ref().err()) {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The body of message `m`, once it is ready.
    pub fn body(&self, m: usize) -> Option<Bytes> {
        self.is_ready(m).then(|| self.handles[m].payload()).flatten()
    }

    /// Blocks on every receive and slices each decoded message into items.
    pub fn wait(self, gep: &GroupEndpoint<'_>) -> Result<Landed, CommError> {
        let mut landed = vec![None; self.layout.slot.len()];
        for (m, h) in self.handles.iter().enumerate() {
            let body = gep.wait(h)?;
            let ranges = self.layout.decode(m, &body, h.tag())?;
            for (&item, bytes) in self.layout.recvs[m].items.iter().zip(ranges) {
                landed[item] = Some(body.slice(bytes));
            }
        }
        Ok(Landed(landed))
    }
}

/// Runs one fenced round tagged `tag`: posts this rank's receives, packs and
/// sends one message per destination peer (`pack(item, out)` appends an
/// item), then blocks on every receive. Every
/// group member calls it with the layout of the same routes. A fault —
/// dead member, starved receive, malformed message — is a typed
/// [`CommError`]; the caller rolls back to a checkpoint.
pub fn exchange(
    gep: &GroupEndpoint<'_>,
    layout: &Layout,
    tag: u64,
    pack: &mut dyn FnMut(usize, &mut Vec<u8>),
) -> Result<Landed, CommError> {
    let inbox = Inbox::post(gep, layout, tag);
    let mut last: Option<(&[usize], Bytes)> = None;
    for msg in &layout.sends {
        let body = match last {
            Some((items, body)) if items == msg.items.as_slice() => body,
            _ => layout.pack(msg, pack),
        };
        gep.send(msg.peer, tag, body.clone());
        last = Some((&msg.items, body));
    }
    inbox.wait(gep)
}

/// Appends `region` read out of `src` at `p - shift`: component-major, then
/// x-rows, each cell a little-endian `f64`.
pub fn pack_chunk(
    src: &impl FabView,
    region: IndexBox,
    shift: IntVect,
    ncomp: usize,
    out: &mut Vec<u8>,
) {
    let mut row = vec![0.0; region.size()[0] as usize];
    out.reserve(region.num_points() as usize * ncomp * 8);
    for c in 0..ncomp {
        for p in region.rows() {
            src.read_row(p - shift, c, &mut row);
            row.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        }
    }
}

/// Writes a [`pack_chunk`] payload into `dst` over `region`. `bytes` is an
/// item of a decoded message, so its length is the layout's.
pub fn unpack_chunk(dst: &mut FabRw<'_>, region: IndexBox, ncomp: usize, bytes: &[u8]) {
    debug_assert_eq!(bytes.len(), region.num_points() as usize * ncomp * 8, "{region:?}");
    let mut words = bytes.as_chunks::<8>().0.iter();
    let nx = region.size()[0] as usize;
    for c in 0..ncomp {
        for p in region.rows() {
            for (v, w) in dst.row_mut(p, c, nx).iter_mut().zip(&mut words) {
                *v = f64::from_le_bytes(*w);
            }
        }
    }
}

/// Moves the rank-crossing chunks of `plan` out of `src` in one fenced
/// round tagged `tag` and returns those this rank receives, by chunk index.
/// `src` needs storage only for the patches this rank sends from.
pub fn exchange_chunks(
    src: &MultiFab,
    plan: &CopyPlan,
    gep: &GroupEndpoint<'_>,
    tag: u64,
) -> Result<Landed, CommError> {
    exchange(gep, &Layout::of_plan(gep.rank(), plan), tag, &mut |k, out| {
        let c = &plan.chunks[k];
        pack_chunk(src.fab(c.src_id), c.region, c.shift, plan.ncomp, out);
    })
}

/// Executes `plan` from owned `src` into owned `dst` — a regrid's old→new
/// redistribution, or (with `src` a copy of `dst`) a `FillBoundary`. Chunks
/// apply in plan order, local ones by [`crate::FArrayBox::copy_shifted_from`],
/// so the result is bitwise the replicated execution of the same plan.
pub fn redistribute(
    src: &MultiFab,
    dst: &mut MultiFab,
    plan: &CopyPlan,
    gep: &GroupEndpoint<'_>,
    tag: u64,
) -> Result<(), CommError> {
    assert_eq!(src.ncomp(), dst.ncomp(), "redistribute component mismatch");
    let (ncomp, rank) = (plan.ncomp, gep.rank());
    let landed = exchange_chunks(src, plan, gep, tag)?;
    for (k, c) in plan.chunks.iter().enumerate().filter(|(_, c)| c.dst_rank == rank) {
        let fab = dst.fab_mut(c.dst_id);
        match landed.get(k) {
            Some(bytes) => with_rw(fab, |rw| unpack_chunk(rw, c.region, ncomp, bytes)),
            None => fab.copy_shifted_from(src.fab(c.src_id), c.region, c.shift, ncomp),
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::distribution::{DistributionMapping, DistributionStrategy};
    use crate::plan::{fill_boundary_plan, parallel_copy_plan};
    use crocco_geometry::decompose::ChopParams;
    use crocco_geometry::ProblemDomain;
    use crocco_runtime::{tags, LocalCluster};
    use std::sync::Arc;

    /// Fills the valid cells of every allocated patch with a linear function
    /// of index and component.
    pub(crate) fn fill_linear(mf: &mut MultiFab) {
        let owned: Vec<usize> = (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)).collect();
        for i in owned {
            let (vb, ncomp) = (mf.valid_box(i), mf.ncomp());
            for c in 0..ncomp {
                for p in vb.cells() {
                    let v = (c as f64) * 1e6 + (p[0] * 10_000 + p[1] * 100 + p[2]) as f64;
                    mf.fab_mut(i).set(p, c, v);
                }
            }
        }
    }

    type Grids = (Arc<BoxArray>, Arc<DistributionMapping>);

    fn grids(domain: &ProblemDomain, size: i64, nranks: usize, s: DistributionStrategy) -> Grids {
        let ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(4, size)));
        let dm = Arc::new(DistributionMapping::new(&ba, nranks, s));
        (ba, dm)
    }

    /// Runs `plan` at `nranks` from an owned, linearly filled `src` grid
    /// into an owned `dst` grid, linearly filled first only if `fill_dst`;
    /// one result per rank.
    fn run_owned(n: usize, src: &MultiFab, dst: &MultiFab, plan: &CopyPlan, fill_dst: bool) -> Vec<MultiFab> {
        LocalCluster::run(n, |ep| {
            let gep = GroupEndpoint::full(&ep);
            let owned = |mf: &MultiFab, fill: bool| {
                let (ba, dm) = (mf.boxarray().clone(), mf.distribution().clone());
                let mut own = MultiFab::new_owned(ba, dm, mf.ncomp(), mf.nghost(), gep.rank());
                if fill { fill_linear(&mut own) }
                own
            };
            let (s, mut d) = (owned(src, true), owned(dst, fill_dst));
            redistribute(&s, &mut d, plan, &gep, tags::round(0, 11)).expect("fault-free round");
            d
        })
    }

    /// A chunk packed from its source patch and unpacked into its
    /// destination writes bitwise what the local copy it replaces would.
    #[test]
    fn pack_unpack_matches_local_copy_bitwise() {
        let domain = ProblemDomain::non_periodic(IndexBox::from_extents(16, 8, 8));
        let (ba, dm) = grids(&domain, 8, 2, DistributionStrategy::RoundRobin);
        let mut mf = MultiFab::new(ba, dm, 2, 2);
        fill_linear(&mut mf);
        let plan = mf.fill_boundary(&domain);
        let chunk = plan.chunks.iter().find(|c| !c.region.is_empty()).unwrap();
        let mut payload = Vec::new();
        pack_chunk(mf.fab(chunk.src_id), chunk.region, chunk.shift, 2, &mut payload);
        let mut direct = mf.fab(chunk.dst_id).clone();
        direct.copy_shifted_from(mf.fab(chunk.src_id), chunk.region, chunk.shift, 2);
        let mut via_bytes = mf.fab(chunk.dst_id).clone();
        with_rw(&mut via_bytes, |rw| unpack_chunk(rw, chunk.region, 2, &payload));
        assert_eq!(via_bytes.data(), direct.data());
    }

    /// Owned redistribution across a mapping change reproduces the
    /// replicated `parallel_copy_from` bitwise on every owned patch. Both
    /// destinations start unfilled, so every valid and ghost cell the plan
    /// covers must be written by the round itself.
    #[test]
    fn owned_redistribution_matches_replicated_parallel_copy() {
        let domain = ProblemDomain::new(IndexBox::from_extents(16, 16, 8), [false, false, true]);
        let (src_ba, src_dm) = grids(&domain, 8, 2, DistributionStrategy::RoundRobin);
        let (dst_ba, dst_dm) = grids(&domain, 4, 2, DistributionStrategy::MortonSfc);
        let mut src = MultiFab::new(src_ba.clone(), src_dm.clone(), 2, 1);
        fill_linear(&mut src);
        let mut oracle = MultiFab::new(dst_ba.clone(), dst_dm.clone(), 2, 1);
        let plan = oracle.parallel_copy_from(&src, &domain);
        for (rank, dst) in run_owned(2, &src, &oracle, &plan, false).iter().enumerate() {
            for i in 0..dst.nfabs() {
                if dst.is_allocated(i) {
                    assert_eq!(dst.fab(i).data(), oracle.fab(i).data(), "rank {rank} patch {i}");
                } else {
                    assert_ne!(dst_dm.owner(i), rank);
                }
            }
            // Memory really is owned-sized.
            assert!(dst.local_data_bytes() < oracle.local_data_bytes());
        }
    }

    /// A ghost chunk shifted across a periodic boundary survives the wire.
    #[test]
    fn exchange_handles_periodic_shift_chunks() {
        let domain = ProblemDomain::new(IndexBox::from_extents(8, 8, 8), [true, true, true]);
        let (ba, dm) = grids(&domain, 4, 2, DistributionStrategy::RoundRobin);
        let mut reference = MultiFab::new(ba, dm, 1, 2);
        fill_linear(&mut reference);
        let plan = reference.fill_boundary(&domain);
        assert!(plan.chunks.iter().any(|c| !c.is_local() && c.shift != IntVect::ZERO));
        for (rank, mf) in run_owned(2, &reference, &reference, &plan, true).iter().enumerate() {
            for i in (0..mf.nfabs()).filter(|&i| mf.is_allocated(i)) {
                assert_eq!(mf.fab(i).data(), reference.fab(i).data(), "rank {rank} patch {i}");
            }
        }
    }

    /// The wire agrees with the model: a plan's per-peer layouts send
    /// exactly `CopyPlan::stats().num_messages` messages across the group,
    /// and every rank-crossing chunk travels once, in its `(src, dst)`
    /// pair's message, at its own non-overlapping byte range.
    #[test]
    fn layouts_send_the_modelled_messages_and_place_each_chunk_once() {
        let nranks = 3;
        let domain = ProblemDomain::new(IndexBox::from_extents(24, 16, 8), [true, false, false]);
        let (ba, dm) = grids(&domain, 4, nranks, DistributionStrategy::RoundRobin);
        let (dst_ba, dst_dm) = grids(&domain, 8, nranks, DistributionStrategy::MortonSfc);
        let plans = [
            fill_boundary_plan(&ba, &dm, &domain, 2, 5),
            parallel_copy_plan(&ba, &dm, &dst_ba, &dst_dm, &domain, 1, 3),
        ];
        for plan in &plans {
            let layouts: Vec<Layout> = (0..nranks).map(|r| Layout::of_plan(r, plan)).collect();
            let sent: usize = layouts.iter().map(|l| l.sends.len()).sum();
            assert!(sent > 0, "setup must cross ranks");
            assert_eq!(sent as u64, plan.stats().num_messages);
            let mut seen = vec![0; plan.chunks.len()];
            for (src, l) in layouts.iter().enumerate() {
                for msg in &l.sends {
                    let mut end = 0;
                    for (k, &c) in msg.items.iter().enumerate() {
                        let chunk = &plan.chunks[c];
                        assert_eq!((chunk.src_rank, chunk.dst_rank), (src, msg.peer));
                        assert_eq!(msg.range(k), end..end + chunk.bytes(plan.ncomp) as usize);
                        end = msg.range(k).end;
                        seen[c] += 1;
                    }
                    // The receiver derives the same message.
                    let mirror = layouts[msg.peer].recvs.iter().find(|m| m.peer == src);
                    assert_eq!(mirror.map(|m| (&m.items, m.bytes())), Some((&msg.items, end)));
                }
            }
            for (c, chunk) in plan.chunks.iter().enumerate() {
                assert_eq!(seen[c], usize::from(!chunk.is_local()), "chunk {c}");
            }
        }
    }

    /// Mutation test of the one decoder, after `decode_frame`'s: a message
    /// truncated by 1–8 bytes, extended, or empty is a typed
    /// `MalformedPayload` naming the sender, the tag and both lengths — in
    /// exact and counted layouts, and end to end through [`exchange`].
    #[test]
    fn malformed_messages_are_typed_errors() {
        let tag = tags::round(0, 9);
        let bad = |src, expected, got| Err(CommError::MalformedPayload { src, tag, expected, got });
        let exact = Layout::new(1, [(0, 0, 1, 16), (1, 0, 1, 8)]);
        let good = [7u8; 24];
        assert_eq!(exact.decode(0, &good, tag), Ok(vec![0..16, 16..24]));
        let mut bodies: Vec<Vec<u8>> = (1..=8).map(|cut| good[..24 - cut].to_vec()).collect();
        bodies.extend([[&good[..], &[0; 8]].concat(), [&good[..], &[0]].concat(), Vec::new()]);
        for body in &bodies {
            assert_eq!(exact.decode(0, body, tag), bad(0, 24, body.len()));
        }

        // Counted: items of 3 and 5 bytes behind their size directory.
        let counted = Layout::counted(0, [(0, 1, 0), (1, 1, 0)]);
        let msg = [&3u64.to_le_bytes()[..], &5u64.to_le_bytes(), &[1; 8]].concat();
        assert_eq!(counted.decode(0, &msg, tag), Ok(vec![16..19, 19..24]));
        for cut in 1..=8 {
            assert_eq!(counted.decode(0, &msg[..24 - cut], tag), bad(1, 24, 24 - cut));
        }
        assert_eq!(counted.decode(0, &[msg.as_slice(), &[0]].concat(), tag), bad(1, 24, 25));
        assert_eq!(counted.decode(0, &msg[..12], tag), bad(1, 16, 12));
        assert_eq!(counted.decode(0, &[], tag), bad(1, 16, 0));

        // End to end: rank 0 sends its one message a byte short; rank 1's
        // round fails typed instead of unpacking it.
        let results = LocalCluster::run(2, |ep| {
            let gep = GroupEndpoint::full(&ep);
            if gep.rank() == 0 {
                gep.send(1, tag, Bytes::from(vec![0u8; 23]));
                return Ok(Landed::default());
            }
            exchange(&gep, &exact, tag, &mut |_, _| {})
        });
        assert_eq!(results[1].as_ref().err(), bad(0, 24, 23).err().as_ref());
    }
}
