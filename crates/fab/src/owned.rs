//! Owned-data exchange primitives: chunked point-to-point data motion for
//! MultiFabs that allocate only their rank's patches.
//!
//! Every rank allocates O(owned cells) ([`MultiFab::new_owned`]) and moves
//! *only the plan-enumerated overlap chunks* across ranks. This module
//! supplies the safe building blocks:
//!
//! * [`pack_chunk`] / [`unpack_chunk_into`] — one [`CopyChunk`] as
//!   little-endian `f64` bytes, component-major in `region.cells()` order
//!   (walked as contiguous x-rows):
//!   exactly the wire format of the RK-stage halo payloads
//!   (`dist_overlap::pack_chunk_raw`), so `f64 → bytes → f64` round-trips
//!   bitwise and a remote unpack equals the local
//!   [`FArrayBox::copy_shifted_from`] it replaces.
//! * [`exchange_chunks`] — the fenced all-sends-first / then-receive
//!   discipline over an arbitrary chunk list, returning landed payloads
//!   keyed by chunk index. Used by the coarse→fine gather of FillPatch and
//!   of the regrid remap (`amr::fillpatch::TwoLevelPlans::exchange`).
//! * [`redistribute`] — executes a ParallelCopy plan between two owned
//!   MultiFabs over different BoxArrays/DistributionMappings: the data
//!   redistribution step of a distributed regrid (old mapping → new
//!   mapping), replacing re-replication.
//!
//! All functions take a [`GroupEndpoint`], so chunk ranks are *logical*
//! group ranks and the same code runs unchanged after a chaos recovery
//! shrinks the communicator. Tags are caller-supplied via a `mktag(chunk
//! index)` closure — callers compose them from
//! [`crocco_runtime::tags::owned`] sub-spaces so concurrent exchanges
//! (state vs coordinates, gather vs redistribution) never collide.
//!
//! Everything here is safe code: payloads are built through
//! [`FArrayBox::row`]/[`FArrayBox::row_mut`], and the sequential fenced
//! structure needs no raw views. Deadlock freedom follows from the
//! transport's buffered sends: every rank first enqueues all its outgoing
//! chunks, so the blocking waits always have matching traffic in flight.

use crate::fab::FArrayBox;
use crate::multifab::MultiFab;
use crate::plan::{CopyChunk, CopyPlan};
use bytes::Bytes;
use crocco_runtime::cluster::{take_field, CommError};
use crocco_runtime::GroupEndpoint;
use std::collections::HashMap;

/// Serializes one chunk out of `src`: component-major, then
/// `chunk.region.cells()` order, each source cell `p - shift` as
/// little-endian `f64` bytes. Same wire format as the RK-stage halo
/// payloads; inverse of [`unpack_chunk_into`].
pub fn pack_chunk(src: &FArrayBox, chunk: &CopyChunk, ncomp: usize) -> Bytes {
    let mut out = Vec::with_capacity((chunk.region.num_points() as usize) * ncomp * 8);
    let nx = chunk.region.size()[0] as usize;
    for c in 0..ncomp {
        for p in chunk.region.rows() {
            for v in src.row(p - chunk.shift, c, nx) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    Bytes::from(out)
}

/// Writes a [`pack_chunk`] payload into `dst` over `region` (destination
/// index space, same cell order as the pack). Bitwise-identical to the
/// local `dst.copy_shifted_from(src, region, shift, ncomp)` the payload
/// replaces.
///
/// # Panics
/// Panics if the payload does not carry exactly
/// `region.num_points() * ncomp` doubles.
pub fn unpack_chunk_into(
    dst: &mut FArrayBox,
    region: crocco_geometry::IndexBox,
    ncomp: usize,
    payload: &[u8],
) {
    assert_eq!(
        payload.len(),
        region.num_points() as usize * ncomp * 8,
        "owned-exchange payload size mismatch for region {region:?}"
    );
    let mut words = payload;
    let nx = region.size()[0] as usize;
    for c in 0..ncomp {
        for p in region.rows() {
            for v in dst.row_mut(p, c, nx) {
                let w = take_field(&mut words).expect("payload sized above");
                *v = f64::from_le_bytes(w);
            }
        }
    }
}

/// Moves the rank-crossing chunks of `chunks` between group members: this
/// rank packs and sends every chunk it is the source of, and receives every
/// chunk destined for it, returning the landed payloads keyed by *chunk
/// index* in `chunks`. Purely local chunks (`src_rank == dst_rank`) are
/// ignored — callers copy those directly from their own fabs.
///
/// Every group member must call this with the identical `chunks` list (all
/// ranks hold replicated plan metadata). `src` needs storage only for the
/// patches this rank sends from — an owned MultiFab is sufficient.
///
/// A detected fault (dead member, starved receive) surfaces as a typed
/// [`CommError`]; the caller rolls back to a checkpoint.
pub fn exchange_chunks(
    src: &MultiFab,
    chunks: &[CopyChunk],
    ncomp: usize,
    ep: &GroupEndpoint<'_>,
    mktag: &dyn Fn(usize) -> u64,
) -> Result<HashMap<usize, Bytes>, CommError> {
    let rank = ep.rank();
    // All sends first (buffered), so the blocking waits below always have
    // matching traffic in flight on every rank.
    for (k, c) in chunks.iter().enumerate() {
        if c.src_rank == rank && c.dst_rank != rank && !c.region.is_empty() {
            ep.send(c.dst_rank, mktag(k), pack_chunk(src.fab(c.src_id), c, ncomp));
        }
    }
    let handles: Vec<(usize, crocco_runtime::RecvHandle)> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| c.dst_rank == rank && c.src_rank != rank && !c.region.is_empty())
        .map(|(k, c)| (k, ep.irecv(c.src_rank, mktag(k))))
        .collect();
    let mut landed = HashMap::with_capacity(handles.len());
    for (k, h) in &handles {
        landed.insert(*k, ep.wait(h)?);
    }
    Ok(landed)
}

/// Executes a ParallelCopy `plan` from owned `src` into owned `dst` (two
/// different BoxArrays/DistributionMappings over the same domain): the data
/// redistribution of a distributed regrid. Local chunks copy through
/// [`FArrayBox::copy_shifted_from`]; remote chunks travel as
/// [`pack_chunk`] payloads. Chunks are applied in plan order per
/// destination, so the result is bitwise-identical to the replicated
/// `parallel_copy_from` executing the same plan.
pub fn redistribute(
    src: &MultiFab,
    dst: &mut MultiFab,
    plan: &CopyPlan,
    ep: &GroupEndpoint<'_>,
    mktag: &dyn Fn(usize) -> u64,
) -> Result<(), CommError> {
    assert_eq!(src.ncomp(), dst.ncomp(), "redistribute component mismatch");
    let ncomp = plan.ncomp;
    let rank = ep.rank();
    let landed = exchange_chunks(src, plan.chunks.as_slice(), ncomp, ep, mktag)?;
    for (k, c) in plan.chunks.iter().enumerate() {
        if c.dst_rank != rank || c.region.is_empty() {
            continue;
        }
        if c.src_rank == rank {
            dst.fab_mut(c.dst_id)
                .copy_shifted_from(src.fab(c.src_id), c.region, c.shift, ncomp);
        } else {
            let payload = landed.get(&k).expect("remote chunk was received");
            unpack_chunk_into(dst.fab_mut(c.dst_id), c.region, ncomp, payload);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::distribution::{DistributionMapping, DistributionStrategy};
    use crate::plan::parallel_copy_plan;
    use crocco_geometry::decompose::ChopParams;
    use crocco_geometry::{IndexBox, ProblemDomain};
    use crocco_runtime::{tags, GroupEndpoint, LocalCluster};
    use std::sync::Arc;

    fn fill_linear(mf: &mut MultiFab) {
        let ncomp = mf.ncomp();
        for i in 0..mf.nfabs() {
            if !mf.is_allocated(i) {
                continue;
            }
            let vb = mf.valid_box(i);
            let fab = mf.fab_mut(i);
            for c in 0..ncomp {
                for p in vb.cells() {
                    fab.set(
                        p,
                        c,
                        (c as f64) * 1e6 + (p[0] * 10_000 + p[1] * 100 + p[2]) as f64,
                    );
                }
            }
        }
    }

    #[test]
    fn pack_unpack_matches_local_copy_bitwise() {
        let domain = ProblemDomain::non_periodic(IndexBox::from_extents(16, 8, 8));
        let ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(4, 8)));
        let dm = Arc::new(DistributionMapping::new(
            &ba,
            2,
            DistributionStrategy::RoundRobin,
        ));
        let mut mf = MultiFab::new(ba, dm, 2, 2);
        fill_linear(&mut mf);
        let plan = mf.fill_boundary(&domain);
        let chunk = plan.chunks.iter().find(|c| !c.region.is_empty()).unwrap();
        let payload = pack_chunk(mf.fab(chunk.src_id), chunk, 2);
        let mut direct = mf.fab(chunk.dst_id).clone();
        direct.copy_shifted_from(mf.fab(chunk.src_id), chunk.region, chunk.shift, 2);
        let mut via_bytes = mf.fab(chunk.dst_id).clone();
        unpack_chunk_into(&mut via_bytes, chunk.region, 2, &payload);
        assert_eq!(via_bytes.data(), direct.data());
    }

    /// Owned redistribution across a mapping change reproduces the
    /// replicated `parallel_copy_from` bitwise on every owned patch.
    #[test]
    fn owned_redistribution_matches_replicated_parallel_copy() {
        let nranks = 2usize;
        let domain = ProblemDomain::new(IndexBox::from_extents(16, 16, 8), [false, false, true]);
        let src_ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(4, 8)));
        let src_dm = Arc::new(DistributionMapping::new(
            &src_ba,
            nranks,
            DistributionStrategy::RoundRobin,
        ));
        let dst_ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(8, 8)));
        let dst_dm = Arc::new(DistributionMapping::new(
            &dst_ba,
            nranks,
            DistributionStrategy::MortonSfc,
        ));

        // Replicated oracle.
        let mut oracle_src = MultiFab::new(src_ba.clone(), src_dm.clone(), 2, 1);
        fill_linear(&mut oracle_src);
        let mut oracle_dst = MultiFab::new(dst_ba.clone(), dst_dm.clone(), 2, 1);
        oracle_dst.parallel_copy_from(&oracle_src, &domain);

        let results = LocalCluster::run(nranks, |ep| {
            let gep = GroupEndpoint::full(&ep);
            let rank = gep.rank();
            let mut src = MultiFab::new_owned(src_ba.clone(), src_dm.clone(), 2, 1, rank);
            fill_linear(&mut src);
            let mut dst = MultiFab::new_owned(dst_ba.clone(), dst_dm.clone(), 2, 1, rank);
            let plan =
                parallel_copy_plan(&src_ba, &src_dm, &dst_ba, &dst_dm, &domain, 1, 2);
            redistribute(&src, &mut dst, &plan, &gep, &|k| {
                tags::owned(tags::OWNED_REDIST, 11, 0, k)
            })
            .expect("fault-free redistribution");
            dst
        });
        for (rank, dst) in results.iter().enumerate() {
            for i in 0..dst.nfabs() {
                if dst.is_allocated(i) {
                    assert_eq!(
                        dst.fab(i).data(),
                        oracle_dst.fab(i).data(),
                        "rank {rank} patch {i} diverged"
                    );
                } else {
                    assert_ne!(dst_dm.owner(i), rank);
                }
            }
        }
        // Memory really is owned-sized.
        let full = MultiFab::new(dst_ba.clone(), dst_dm.clone(), 2, 1).local_data_bytes();
        assert!(results.iter().all(|d| d.local_data_bytes() < full));
    }

    /// A ghost chunk shifted across a periodic boundary survives the wire.
    #[test]
    fn exchange_handles_periodic_shift_chunks() {
        let domain = ProblemDomain::new(IndexBox::from_extents(8, 8, 8), [true, true, true]);
        let ba = Arc::new(BoxArray::decompose(domain.bx, ChopParams::new(4, 8)));
        let dm = Arc::new(DistributionMapping::new(
            &ba,
            2,
            DistributionStrategy::RoundRobin,
        ));
        let mut reference = MultiFab::new(ba.clone(), dm.clone(), 1, 2);
        fill_linear(&mut reference);
        reference.fill_boundary(&domain);

        let ba2 = ba.clone();
        let dm2 = dm.clone();
        let results = LocalCluster::run(2, |ep| {
            let gep = GroupEndpoint::full(&ep);
            let rank = gep.rank();
            let mut mf = MultiFab::new_owned(ba2.clone(), dm2.clone(), 1, 2, rank);
            fill_linear(&mut mf);
            let plan = crate::plan::fill_boundary_plan(&ba2, &dm2, &domain, 2, 1);
            let landed = exchange_chunks(&mf, &plan.chunks, 1, &gep, &|k| {
                tags::owned(tags::OWNED_GATHER, 3, 0, k)
            })
            .expect("fault-free exchange");
            for (k, c) in plan.chunks.iter().enumerate() {
                if c.dst_rank != rank || c.region.is_empty() {
                    continue;
                }
                if c.src_rank == rank {
                    let src = mf.fab(c.src_id).clone();
                    mf.fab_mut(c.dst_id)
                        .copy_shifted_from(&src, c.region, c.shift, 1);
                } else {
                    unpack_chunk_into(mf.fab_mut(c.dst_id), c.region, 1, &landed[&k]);
                }
            }
            mf
        });
        for (rank, mf) in results.iter().enumerate() {
            for i in 0..mf.nfabs() {
                if mf.is_allocated(i) {
                    assert_eq!(
                        mf.fab(i).data(),
                        reference.fab(i).data(),
                        "rank {rank} patch {i}"
                    );
                }
            }
        }
    }
}
