//! The SIMD-lane backend: stable-Rust vectorization via `[f64; LANES]`
//! lane arrays.
//!
//! The paper's GPU port got its kernel throughput from mapping the
//! branch-free WENO algebra onto wide data-parallel hardware (§IV-B). On the
//! host we reach the same structure with *lane arrays*: every scalar local
//! of the hot loops becomes a fixed-width `[f64; LANES]`, every operation a
//! hand-unrolled loop over the lanes — a shape LLVM reliably autovectorizes
//! on stable Rust, with no `std::simd` nightly dependency and no `unsafe`
//! (this crate is `#![forbid(unsafe_code)]`).
//!
//! # Lane layout
//!
//! The WENO sweep runs its [`LANES`] lanes across the plane **orthogonal**
//! to the sweep direction: one lane is one pencil, a lane group is LANES
//! neighbouring pencils, and all of them reconstruct the same face index at
//! once. Per patch and direction the nine input fields are copied, row by
//! row through [`FabView::read_row`] / [`FArrayBox::row`], into
//! *direction-major* SoA scratch laid out `[field][index along dir][plane
//! cell]` — y- and z-sweeps copy x-rows as they lie, only the x-sweep
//! transposes — so window position `k` of face `f` is scratch row `f + k`: a
//! unit-stride load of LANES plane cells, in every direction, with no
//! per-cell `get()`. Because a lane never runs *along* the pencil, its
//! length does not matter: an 8- or 12-cell AMR pencil (9 or 13 faces) has
//! no scalar face tail, and a plane that is not a multiple of LANES pads
//! its last lane group with a duplicate pencil whose result is discarded.
//! The split-flux pass before the face loop and the flux difference after
//! it are plain elementwise loops over the same scratch. The scratch is a
//! fixed-size buffer (`SCRATCH_LEN`) per concurrently sweeping thread, kept
//! for the life of the process; regions that exceed it are swept in blocks.
//!
//! The viscous and SGS loops lane across contiguous x-cells of one row;
//! `ComputeDt` is the per-point kernel (laned, it measured slower).
//!
//! # Bitwise identity with Scalar
//!
//! "Identity" is between the two implementations of one algebra: the lane
//! kernels and the scalar kernels agree `to_bits` *with each other*. Neither
//! evaluates the WENO face value in the textbook order `Σ_r (α_r/Σα)·(q̃_r/6)`
//! — both compute `(Σ_r α_r·q̃_r) / (6·Σ_r α_r)`, five divisions instead of
//! twelve, which departs from the textbook order by at most a few
//! ε_mach·max_r|q_r| (see [`crate::weno`], where the form is defined and the
//! bound is tested).
//!
//! Lanes never fuses, reassociates, or reorders the operations *within* one
//! cell or face — it only evaluates independent cells/faces side by side,
//! and the scratch layout is pure storage. Three details make this exact,
//! not approximate:
//!
//! * The α-weight guard `if d[r] == 0.0` and the downwind cap
//!   `if d[3] > 0.0` branch on the *variant's linear weights*, which are
//!   lane-uniform — the branches hoist out of the lane loop unchanged.
//! * Accumulations (`num`, `sum`, the wave-speed sum) start from `0.0` and
//!   add terms in the same order as the scalar code, so every intermediate
//!   rounding matches.
//! * `f64::min`/`max` and the remaining per-lane calls into shared scalar
//!   helpers (`to_primitive`, `sound_speed`, `viscosity`) are the very same
//!   functions the scalar backend runs.
//!
//! Rust does not contract `a*b + c` into FMA, so lane loops and scalar code
//! round identically. Each face flux is a pure function of its six-cell
//! window, so it also equals [`kernels::interface_face_flux`] — what the
//! subcycling flux register records — and a region swept in blocks or tiles
//! equals the region swept whole. The unit tests assert all of this with
//! `to_bits` over random region shapes.
//!
//! # Scalar fallbacks (documented limitation)
//!
//! [`Reconstruction::Characteristic`] builds a Roe eigensystem *per face*
//! and projects through dense 5×5 maps — per-face data-dependent work with
//! no contiguous lane structure — so this backend delegates characteristic
//! sweeps to the scalar kernel wholesale. Row remainders of the viscous
//! and SGS loops run partial lane groups.

// `for l in 0..LANES`-style index loops over several lane arrays at once
// are the whole point of this module: they are what LLVM autovectorizes,
// and the iterator/zip rewrites clippy suggests obscure the lane index
// without changing the generated code.
#![allow(clippy::needless_range_loop)]

use super::KernelBackend;
use crate::eos::PerfectGas;
use crate::kernels;
use crate::metrics::comp as mcomp;
use crate::sgs::Smagorinsky;
use crate::state::{cons, Conserved, NCONS};
use crate::weno::{linear_weights, Reconstruction, WenoVariant, EPS, STENCIL_RADIUS};
use crocco_fab::{tile_boxes, FArrayBox, FabView};
use crocco_geometry::{IndexBox, IntVect};
use std::sync::Mutex;

/// Lane width: 8 × f64 = one ZMM register, two YMM ops, or four NEON ops —
/// wide enough to amortize loop overhead on any of them.
pub const LANES: usize = 8;

/// Fixed-width SIMD lane kernels (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct LanesBackend;

impl KernelBackend for LanesBackend {
    const NAME: &'static str = "lanes";

    fn weno_flux_recon(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        dir: usize,
        gas: &PerfectGas,
        variant: WenoVariant,
        recon: Reconstruction,
    ) {
        if recon == Reconstruction::Characteristic {
            // Per-face Roe eigensystems have no lane structure: scalar path.
            kernels::weno_flux_recon(u, met, rhs, region, dir, gas, variant, recon);
            return;
        }
        weno_flux_lanes(u, met, rhs, region, dir, gas, variant);
    }

    fn viscous_flux_les(
        u: &impl FabView,
        met: &FArrayBox,
        rhs: &mut FArrayBox,
        region: IndexBox,
        gas: &PerfectGas,
        sgs: Option<&Smagorinsky>,
    ) {
        viscous_flux_lanes(u, met, rhs, region, gas, sgs);
    }

    fn compute_dt_patch(
        u: &impl FabView,
        met: &FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
        cfl: f64,
    ) -> f64 {
        // A min-reduction over per-cell `get`s: laning it measured slower
        // than the per-point kernel (BENCH_backend.json), so there is none.
        kernels::compute_dt_patch(u, met, valid, gas, cfl)
    }

    fn eddy_viscosity_field(
        model: &Smagorinsky,
        u: &impl FabView,
        met: &FArrayBox,
        out: &mut FArrayBox,
        valid: IndexBox,
        gas: &PerfectGas,
    ) {
        eddy_viscosity_field_lanes(model, u, met, out, valid, gas);
    }
}

/// Unnormalised WENO candidates `q̃_r = 6·q_r` for [`LANES`] faces at once:
/// `w[k][lane]` is window position `k` of face `lane`. Per-lane operation
/// order matches [`crate::weno`]'s `candidates` exactly.
#[inline(always)]
fn candidates_lanes(w: &[[f64; LANES]; 6]) -> [[f64; LANES]; 4] {
    let mut q = [[0.0; LANES]; 4];
    for l in 0..LANES {
        q[0][l] = 2.0 * w[0][l] - 7.0 * w[1][l] + 11.0 * w[2][l];
        q[1][l] = -w[1][l] + 5.0 * w[2][l] + 2.0 * w[3][l];
        q[2][l] = 2.0 * w[2][l] + 5.0 * w[3][l] - w[4][l];
        q[3][l] = 11.0 * w[3][l] - 7.0 * w[4][l] + 2.0 * w[5][l];
    }
    q
}

/// Jiang–Shu smoothness indicators for [`LANES`] faces at once.
#[inline(always)]
fn smoothness_lanes(w: &[[f64; LANES]; 6]) -> [[f64; LANES]; 4] {
    #[inline(always)]
    fn b(a: f64, b_: f64, c: f64, lin: f64) -> f64 {
        13.0 / 12.0 * (a - 2.0 * b_ + c).powi(2) + 0.25 * lin * lin
    }
    let mut is = [[0.0; LANES]; 4];
    for l in 0..LANES {
        is[0][l] = b(w[0][l], w[1][l], w[2][l], w[0][l] - 4.0 * w[1][l] + 3.0 * w[2][l]);
        is[1][l] = b(w[1][l], w[2][l], w[3][l], w[1][l] - w[3][l]);
        is[2][l] = b(w[2][l], w[3][l], w[4][l], 3.0 * w[2][l] - 4.0 * w[3][l] + w[4][l]);
        is[3][l] = b(w[3][l], w[4][l], w[5][l], 3.0 * w[3][l] - 4.0 * w[4][l] + w[5][l]);
    }
    is
}

/// Face reconstruction for [`LANES`] faces at once, from lane-transposed
/// windows. Bitwise-equal per lane to [`crate::weno::reconstruct_face`]:
/// the `d[r]` branches are lane-uniform, and `num`/`sum` accumulate in the
/// scalar order starting from `0.0`.
///
/// Deliberately `inline(never)`: inlining two of these into the face loop
/// puts ~24 live 6×LANES arrays in one region and the register allocator
/// answers with per-lane stack spills that cost far more than a call.
#[inline(never)]
fn reconstruct_face_lanes(w: &[[f64; LANES]; 6], variant: WenoVariant) -> [f64; LANES] {
    let q = candidates_lanes(w);
    let is = smoothness_lanes(w);
    let d = linear_weights(variant);
    let mut alpha = [[0.0; LANES]; 4];
    for r in 0..4 {
        if d[r] == 0.0 {
            continue;
        }
        for l in 0..LANES {
            let denom = EPS + is[r][l];
            alpha[r][l] = d[r] / (denom * denom);
        }
    }
    if d[3] > 0.0 {
        for l in 0..LANES {
            alpha[3][l] = alpha[3][l].min(alpha[0][l]).min(alpha[1][l]).min(alpha[2][l]);
        }
    }
    let mut num = [0.0; LANES];
    let mut sum = [0.0; LANES];
    for r in 0..4 {
        for l in 0..LANES {
            num[l] += alpha[r][l] * q[r][l];
            sum[l] += alpha[r][l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = num[l] / (6.0 * sum[l]);
    }
    out
}

/// Longest run of cells along the sweep direction one scratch block holds
/// (at two lane groups of pencils); longer regions are swept in blocks of
/// this many cells — the shared face is recomputed, bitwise-equal, by both
/// neighbours, the partition invariance every tiled path already relies on.
const MAX_PENCIL: usize = 128 - 2 * STENCIL_RADIUS;

/// Input fields of a sweep: the conserved state, the three direction
/// metrics, and the Jacobian.
const INPUT_FIELDS: usize = NCONS + 4;

/// Direction-major SoA fields of one scratch block, each `[index along
/// dir][plane cell]`: the inputs (the state rescaled in place to `J·U`), the
/// contravariant flux `F̂`, the wave speed, and the face fluxes.
const SCRATCH_FIELDS: usize = INPUT_FIELDS + 2 * NCONS + 1;

/// Per-thread scratch length in `f64`s — a constant (392 KiB, L2-resident):
/// two lane groups of the longest pencil plus the x-sweep's transposition
/// tile. A block holds as many pencils as fit — all 64 or 144 of an 8- or
/// 12-wide AMR patch.
const SCRATCH_LEN: usize =
    (2 * SCRATCH_FIELDS + INPUT_FIELDS) * LANES * (MAX_PENCIL + 2 * STENCIL_RADIUS);

/// Sweep scratches not in use, each [`SCRATCH_LEN`] long. A sweep takes one
/// and puts it back, so the process allocates one per thread that has ever
/// swept *at the same time*, once. Not a thread-local: the pool executors
/// spawn their workers anew for every RK stage, and a scratch that dies with
/// its thread is mapped, faulted in and unmapped dozens of times per step,
/// at a cost that varies with whatever else the host is doing.
static IDLE_SCRATCH: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Splits `buf` into `N` consecutive slices of `len` elements.
fn carve<const N: usize>(buf: &mut [f64], len: usize) -> ([&mut [f64]; N], &mut [f64]) {
    let (head, rest) = buf.split_at_mut(N * len);
    let mut it = head.chunks_exact_mut(len);
    (std::array::from_fn(|_| it.next().expect("N chunks of len")), rest)
}

/// Plane-laned component-wise WENO sweep (module docs, "Lane layout"): the
/// region is cut into blocks of at most [`MAX_PENCIL`] cells along `dir` ×
/// as many pencils as the scratch holds, each swept by [`sweep_block`] out
/// of one scratch from [`IDLE_SCRATCH`].
fn weno_flux_lanes(
    u: &impl FabView,
    met: &FArrayBox,
    rhs: &mut FArrayBox,
    region: IndexBox,
    dir: usize,
    gas: &PerfectGas,
    variant: WenoVariant,
) {
    // Unbounded across the plane, at most MAX_PENCIL along the sweep.
    let mut extent = IntVect::splat(i64::MAX / 2);
    extent[dir] = MAX_PENCIL as i64;
    let idle = IDLE_SCRATCH.lock().expect("scratch list poisoned").pop();
    let mut scratch = idle.unwrap_or_else(|| vec![0.0; SCRATCH_LEN]);
    for block in tile_boxes(region, extent) {
        let m = block.length(dir) as usize + 2 * STENCIL_RADIUS;
        let plane = (block.num_points() / block.length(dir) as u64) as usize;
        // Equal blocks of whole lane groups, as few as the scratch
        // (less the transposition tile) allows.
        let fit = (SCRATCH_LEN / (LANES * m) - INPUT_FIELDS) / SCRATCH_FIELDS * LANES;
        let step = plane.div_ceil(plane.div_ceil(fit)).next_multiple_of(LANES);
        for p0 in (0..plane).step_by(step) {
            let pc = step.min(plane - p0);
            sweep_block(u, met, rhs, block, dir, p0, pc, gas, variant, &mut scratch);
        }
    }
    IDLE_SCRATCH.lock().expect("scratch list poisoned").push(scratch);
}

/// The x-contiguous pieces of pencils `p0 .. p0 + pc` of a y- or z-sweep
/// over `block`, as `(first cell at sweep offset 0, pencil − p0, length)`.
/// The plane of such a sweep is (x, other) flattened x-fastest, so a pencil
/// range is a run of whole or partial x-rows.
fn row_pieces(
    block: IndexBox,
    dir: usize,
    p0: usize,
    pc: usize,
) -> impl Iterator<Item = (IntVect, usize, usize)> {
    let w = block.length(0) as usize;
    let mut p = p0;
    std::iter::from_fn(move || {
        (p < p0 + pc).then(|| {
            let (row, x) = (p / w, p % w);
            let len = (w - x).min(p0 + pc - p);
            let mut pt = block.lo();
            pt[0] += x as i64;
            pt[3 - dir] += row as i64;
            let piece = (pt, p - p0, len);
            p += len;
            piece
        })
    })
}

/// Calls `f(i, first cell, pencil − p0, length)` for every [`row_pieces`]
/// piece at each sweep offset `i < count`, in fab memory order (z slowest):
/// offsets outermost for a z-sweep, rows outermost for a y-sweep. Either way
/// consecutive visits are consecutive fab rows, which is what the hardware
/// prefetcher follows.
fn for_each_row(
    block: IndexBox,
    dir: usize,
    p0: usize,
    pc: usize,
    count: usize,
    mut f: impl FnMut(usize, IntVect, usize, usize),
) {
    let mut visit = |i: usize, (mut pt, off, w): (IntVect, usize, usize)| {
        pt[dir] += i as i64;
        f(i, pt, off, w);
    };
    if dir == 1 {
        for piece in row_pieces(block, dir, p0, pc) {
            for i in 0..count {
                visit(i, piece);
            }
        }
    } else {
        for i in 0..count {
            for piece in row_pieces(block, dir, p0, pc) {
                visit(i, piece);
            }
        }
    }
}

/// Sweeps pencils `p0 .. p0 + pc` of `block` (all of its cells along `dir`):
///
/// 1. **load** — `read_row`/`row` slices of the nine input fields land in
///    direction-major scratch `[index along dir][plane cell]`; y/z sweeps
///    copy row pieces as they lie, the x-sweep transposes its pencils a
///    lane group at a time;
/// 2. **split flux** — one branch-free pass over the whole block;
/// 3. **faces** — per group of [`LANES`] plane cells, every face's six
///    window rows are unit-stride loads `ps` apart;
/// 4. **difference** — `−(F̂_{i+1} − F̂_i)/J` in scratch, then streamed into
///    the `rhs` rows.
///
/// The pad lanes of a ragged last lane group replicate the last pencil, so
/// the group computes a duplicate that is never stored instead of taking a
/// scalar path.
#[allow(clippy::too_many_arguments)]
fn sweep_block(
    u: &impl FabView,
    met: &FArrayBox,
    rhs: &mut FArrayBox,
    block: IndexBox,
    dir: usize,
    p0: usize,
    pc: usize,
    gas: &PerfectGas,
    variant: WenoVariant,
    scratch: &mut [f64],
) {
    let r = STENCIL_RADIUS;
    let n = block.length(dir) as usize;
    let m = n + 2 * r;
    let nf = n + 1;
    let ps = pc.next_multiple_of(LANES);
    let len = m * ps;
    // The state components, then the metrics `m_dir`, then the Jacobian.
    let (mut inputs, rest) = carve::<INPUT_FIELDS>(scratch, len);
    let (mut fhat, rest) = carve::<NCONS>(rest, len);
    let ([speed], rest) = carve::<1>(rest, len);
    let (mut ff, rest) = carve::<NCONS>(rest, nf * ps);

    // 1. Load. Copies `out.len()` cells of input field `k` from the x-row
    // starting at `pt`.
    let read_input = |k: usize, pt: IntVect, out: &mut [f64]| {
        if k < NCONS {
            u.read_row(pt, k, out);
        } else {
            let comp = [mcomp::M + dir * 3, mcomp::M + dir * 3 + 1, mcomp::M + dir * 3 + 2, mcomp::JAC];
            out.copy_from_slice(met.row(pt, comp[k - NCONS], out.len()));
        }
    };
    let lo = block.lo();
    let ny = block.length(1) as usize;
    // First cell of x-pencil `q` of this block, `back` cells before `lo`.
    let pencil = |q: usize, back: usize| {
        let p = p0 + q;
        IntVect::new(lo[0] - back as i64, lo[1] + (p % ny) as i64, lo[2] + (p / ny) as i64)
    };
    if dir == 0 {
        // Transposition, a lane group at a time: the group's pencils are
        // read, pencil by pencil (nine interleaved streams of consecutive
        // fab rows), into a pencil-major tile per field, which is then
        // spread down the scratch columns as whole LANES-wide rows.
        let (mut tile, _) = carve::<INPUT_FIELDS>(rest, LANES * m);
        for q0 in (0..ps).step_by(LANES) {
            for l in 0..LANES {
                // Pad lanes re-read the last pencil.
                let pt = pencil((q0 + l).min(pc - 1), r);
                for (k, t) in tile.iter_mut().enumerate() {
                    read_input(k, pt, &mut t[l * m..(l + 1) * m]);
                }
            }
            for (field, t) in inputs.iter_mut().zip(&tile) {
                for i in 0..m {
                    let dst = &mut field[i * ps + q0..i * ps + q0 + LANES];
                    for l in 0..LANES {
                        dst[l] = t[l * m + i];
                    }
                }
            }
        }
    } else {
        for_each_row(block, dir, p0, pc, m, |idx, mut pt, off, w| {
            pt[dir] -= r as i64;
            let at = idx * ps + off;
            for (k, field) in inputs.iter_mut().enumerate() {
                read_input(k, pt, &mut field[at..at + w]);
            }
        });
        if pc < ps {
            for row in inputs.iter_mut().flat_map(|f| f.chunks_exact_mut(ps)) {
                let last = row[pc - 1];
                row[pc..].fill(last);
            }
        }
    }

    // 2. Split-flux algebra over the whole block: one branch-free loop on
    // equal-length slices, which LLVM vectorizes end to end (`max`, `abs`,
    // `sqrt`, and division all have packed forms). The per-cell expressions
    // replicate `Conserved::to_primitive` and `PerfectGas::sound_speed`
    // exactly (the unused temperature is dead code the scalar path also
    // drops). The state fields are rescaled in place to `V = J·U`.
    {
        let g1 = gas.gamma - 1.0;
        let [v_rho, v_mx, v_my, v_mz, v_e, m0, m1, m2, jac] = &mut inputs;
        let [f_rho, f_mx, f_my, f_mz, f_e] = &mut fhat;
        // Every operand is a slice of provable length `len`, so the loop is
        // bounds-check-free — one panic branch inside would stop LLVM from
        // vectorizing it.
        let (v_rho, v_mx, v_my, v_mz, v_e) =
            (&mut v_rho[..len], &mut v_mx[..len], &mut v_my[..len], &mut v_mz[..len], &mut v_e[..len]);
        let (f_rho, f_mx, f_my, f_mz, f_e) =
            (&mut f_rho[..len], &mut f_mx[..len], &mut f_my[..len], &mut f_mz[..len], &mut f_e[..len]);
        let (m0, m1, m2, jac) = (&m0[..len], &m1[..len], &m2[..len], &jac[..len]);
        let speed = &mut speed[..len];
        for i in 0..len {
            let (rho, cmx, cmy, cmz, ce) = (v_rho[i], v_mx[i], v_my[i], v_mz[i], v_e[i]);
            let inv = 1.0 / rho;
            let v0 = cmx * inv;
            let v1 = cmy * inv;
            let v2 = cmz * inv;
            let ke = 0.5 * rho * (v0 * v0 + v1 * v1 + v2 * v2);
            let pn = g1 * (ce - ke);
            let a = (gas.gamma * pn.max(1e-300) / rho).sqrt();
            let mnorm = (m0[i] * m0[i] + m1[i] * m1[i] + m2[i] * m2[i]).sqrt();
            let uc = m0[i] * v0 + m1[i] * v1 + m2[i] * v2;
            speed[i] = (uc.abs() + a * mnorm) / jac[i];
            f_rho[i] = rho * uc;
            f_mx[i] = cmx * uc + pn * m0[i];
            f_my[i] = cmy * uc + pn * m1[i];
            f_mz[i] = cmz * uc + pn * m2[i];
            f_e[i] = (ce + pn) * uc;
            v_rho[i] = jac[i] * rho;
            v_mx[i] = jac[i] * cmx;
            v_my[i] = jac[i] * cmy;
            v_mz[i] = jac[i] * cmz;
            v_e[i] = jac[i] * ce;
        }
    }
    let (v, jac) = (&inputs[..NCONS], &*inputs[INPUT_FIELDS - 1]);

    // 3. Face loop: one lane group of plane cells at a time, all faces of
    // its pencils. Window position `k` of face `f` is the scratch row
    // `f + k` — a unit-stride load of LANES plane cells.
    for l0 in (0..ps).step_by(LANES) {
        for f in 0..nf {
            let row = |field: &[f64], k: usize| -> [f64; LANES] {
                let at = (f + k) * ps + l0;
                field[at..at + LANES].try_into().expect("LANES-wide window row")
            };
            // λ per face: max over the six window speeds, in the scalar
            // order (k = 0..5) per lane.
            let mut lambda = [0.0f64; LANES];
            for k in 0..6 {
                let s = row(speed, k);
                for l in 0..LANES {
                    lambda[l] = lambda[l].max(s[l]);
                }
            }
            for c in 0..NCONS {
                let mut wp = [[0.0; LANES]; 6];
                let mut wm = [[0.0; LANES]; 6];
                for k in 0..6 {
                    let (fk, vk) = (row(fhat[c], k), row(v[c], k));
                    for l in 0..LANES {
                        wp[k][l] = 0.5 * (fk[l] + lambda[l] * vk[l]);
                        // Minus flux, reversed orientation.
                        wm[5 - k][l] = 0.5 * (fk[l] - lambda[l] * vk[l]);
                    }
                }
                let rp = reconstruct_face_lanes(&wp, variant);
                let rm = reconstruct_face_lanes(&wm, variant);
                let out = &mut ff[c][f * ps + l0..f * ps + l0 + LANES];
                for l in 0..LANES {
                    out[l] = rp[l] + rm[l];
                }
            }
        }
    }

    // 4. Flux difference, in place over the face rows (row `i` becomes the
    // rhs increment of cell `i`): the scalar kernel's per-cell op
    // `rhs += −(F̂_{i+1} − F̂_i)/J` with the same Jacobian values.
    for ffc in ff.iter_mut() {
        for i in 0..n {
            let (cur, next) = ffc[i * ps..(i + 2) * ps].split_at_mut(ps);
            let j = &jac[(i + r) * ps..(i + r + 1) * ps];
            for l in 0..ps {
                cur[l] = -(next[l] - cur[l]) / j[l];
            }
        }
    }
    if dir == 0 {
        for q in 0..pc {
            let pt = pencil(q, 0);
            for (c, ffc) in ff.iter().enumerate() {
                for (i, x) in rhs.row_mut(pt, c, n).iter_mut().enumerate() {
                    *x += ffc[i * ps + q];
                }
            }
        }
    } else {
        for_each_row(block, dir, p0, pc, n, |i, pt, off, w| {
            let at = i * ps + off;
            for (c, ffc) in ff.iter().enumerate() {
                for (x, &d) in rhs.row_mut(pt, c, w).iter_mut().zip(&ffc[at..at + w]) {
                    *x += d;
                }
            }
        });
    }
}

/// Iterates the rows (fixed `j`, `k`) of `bx` as `(row base point, length)`.
fn rows(bx: IndexBox) -> impl Iterator<Item = (IntVect, usize)> {
    let (lo, hi) = (bx.lo(), bx.hi());
    let len = (hi[0] - lo[0] + 1) as usize;
    (lo[2]..=hi[2]).flat_map(move |k| {
        (lo[1]..=hi[1]).map(move |j| (IntVect::new(lo[0], j, k), len))
    })
}

/// Lane-structured viscous/LES fluxes: same two global-memory-style scratch
/// passes as the scalar kernel, with pass 1's gradient/stress/flux algebra
/// and pass 2's divergence laned across contiguous x-cells of each row. The
/// per-cell primitive fill (pass 0) and the per-point SGS closure call are
/// shared with the scalar kernel verbatim.
fn viscous_flux_lanes(
    u: &impl FabView,
    met: &FArrayBox,
    rhs: &mut FArrayBox,
    valid: IndexBox,
    gas: &PerfectGas,
    sgs: Option<&Smagorinsky>,
) {
    if gas.mu_ref == 0.0 && sgs.is_none() {
        return;
    }
    let work = valid.grow(2);
    let prim_region = work.grow(2);
    let mut prims = FArrayBox::new(prim_region, 4);
    for p in prim_region.cells() {
        let w = Conserved([
            u.get(p, cons::RHO),
            u.get(p, cons::MX),
            u.get(p, cons::MY),
            u.get(p, cons::MZ),
            u.get(p, cons::ENER),
        ])
        .to_primitive(gas);
        prims.set(p, 0, w.vel[0]);
        prims.set(p, 1, w.vel[1]);
        prims.set(p, 2, w.vel[2]);
        prims.set(p, 3, w.t);
    }
    let mut scratch = FArrayBox::new(work, 3 * NCONS);

    // Pass 1, laned: gradients → stress/heat flux → contravariant flux.
    for (row0, len) in rows(work) {
        let mut x0 = 0usize;
        while x0 < len {
            let w_ = LANES.min(len - x0);
            let at = |l: usize| IntVect::new(row0[0] + (x0 + l) as i64, row0[1], row0[2]);
            let mut jac = [0.0; LANES];
            for l in 0..w_ {
                jac[l] = met.get(at(l), mcomp::JAC);
            }
            // Computational gradients of u, v, w, T (4th-order central).
            let mut dcomp = [[[0.0; LANES]; 3]; 4]; // [field][xi][lane]
            for (fi, rowf) in dcomp.iter_mut().enumerate() {
                for (xi, dc) in rowf.iter_mut().enumerate() {
                    let e = IntVect::unit(xi);
                    for l in 0..w_ {
                        let p = at(l);
                        dc[l] = (prims.get(p - e * 2, fi) - 8.0 * prims.get(p - e, fi)
                            + 8.0 * prims.get(p + e, fi)
                            - prims.get(p + e * 2, fi))
                            / 12.0;
                    }
                }
            }
            // Metric rows, loaded once per chunk.
            let mut mm = [[[0.0; LANES]; 3]; 3]; // [d][j][lane]
            for (d, md) in mm.iter_mut().enumerate() {
                for (j, mdj) in md.iter_mut().enumerate() {
                    for l in 0..w_ {
                        mdj[l] = met.get(at(l), mcomp::M + d * 3 + j);
                    }
                }
            }
            // Transform to physical space, same d-accumulation order.
            let mut dphys = [[[0.0; LANES]; 3]; 4];
            for (rowc, dp_row) in dcomp.iter().zip(dphys.iter_mut()) {
                for (j, dp) in dp_row.iter_mut().enumerate() {
                    for l in 0..w_ {
                        let mut s = 0.0;
                        for (d, rc) in rowc.iter().enumerate() {
                            s += mm[d][j][l] / jac[l] * rc[l];
                        }
                        dp[l] = s;
                    }
                }
            }
            let mut w_vel = [[0.0; LANES]; 3];
            let mut w_t = [0.0; LANES];
            for l in 0..w_ {
                let p = at(l);
                w_vel[0][l] = prims.get(p, 0);
                w_vel[1][l] = prims.get(p, 1);
                w_vel[2][l] = prims.get(p, 2);
                w_t[l] = prims.get(p, 3);
            }
            let mut mu = [0.0; LANES];
            let mut kk = [0.0; LANES];
            for l in 0..w_ {
                mu[l] = gas.viscosity(w_t[l]);
                kk[l] = gas.conductivity(w_t[l]);
            }
            if let Some(model) = sgs {
                for l in 0..w_ {
                    // Per-point closure shared with the scalar kernel.
                    let mu_t = model.eddy_viscosity(u, met, at(l), gas);
                    mu[l] += mu_t;
                    kk[l] += mu_t * gas.cp() / 0.9;
                }
            }
            let mut div = [0.0; LANES];
            for l in 0..w_ {
                div[l] = dphys[0][0][l] + dphys[1][1][l] + dphys[2][2][l];
            }
            let mut tau = [[[0.0; LANES]; 3]; 3];
            for i in 0..3 {
                for j in 0..3 {
                    for l in 0..w_ {
                        tau[i][j][l] = mu[l] * (dphys[i][j][l] + dphys[j][i][l]);
                    }
                }
                for l in 0..w_ {
                    tau[i][i][l] -= 2.0 / 3.0 * mu[l] * div[l];
                }
            }
            for d in 0..3 {
                let mut fv = [[0.0; LANES]; NCONS];
                for j in 0..3 {
                    for l in 0..w_ {
                        fv[cons::MX][l] += mm[d][j][l] * tau[0][j][l];
                        fv[cons::MY][l] += mm[d][j][l] * tau[1][j][l];
                        fv[cons::MZ][l] += mm[d][j][l] * tau[2][j][l];
                        let work_term = w_vel[0][l] * tau[0][j][l]
                            + w_vel[1][l] * tau[1][j][l]
                            + w_vel[2][l] * tau[2][j][l];
                        fv[cons::ENER][l] += mm[d][j][l] * (work_term + kk[l] * dphys[3][j][l]);
                    }
                }
                for (c, fvc) in fv.iter().enumerate() {
                    for l in 0..w_ {
                        scratch.set(at(l), d * NCONS + c, fvc[l]);
                    }
                }
            }
            x0 += w_;
        }
    }

    // Pass 2, laned: divergence of the contravariant viscous flux.
    for (row0, len) in rows(valid) {
        let mut x0 = 0usize;
        while x0 < len {
            let w_ = LANES.min(len - x0);
            let at = |l: usize| IntVect::new(row0[0] + (x0 + l) as i64, row0[1], row0[2]);
            let mut jac = [0.0; LANES];
            for l in 0..w_ {
                jac[l] = met.get(at(l), mcomp::JAC);
            }
            for c in 0..NCONS {
                let mut s = [0.0; LANES];
                for d in 0..3 {
                    let e = IntVect::unit(d);
                    for l in 0..w_ {
                        let p = at(l);
                        s[l] += (scratch.get(p - e * 2, d * NCONS + c)
                            - 8.0 * scratch.get(p - e, d * NCONS + c)
                            + 8.0 * scratch.get(p + e, d * NCONS + c)
                            - scratch.get(p + e * 2, d * NCONS + c))
                            / 12.0;
                    }
                }
                for l in 0..w_ {
                    rhs.add(at(l), c, s[l] / jac[l]);
                }
            }
            x0 += w_;
        }
    }
}

/// Lane-structured Smagorinsky eddy-viscosity field: the gradient transform
/// and |S| contraction are laned across contiguous x-cells; per-cell
/// operation order matches [`Smagorinsky::eddy_viscosity`] exactly.
fn eddy_viscosity_field_lanes(
    model: &Smagorinsky,
    u: &impl FabView,
    met: &FArrayBox,
    out: &mut FArrayBox,
    valid: IndexBox,
    gas: &PerfectGas,
) {
    let prim = |q: IntVect| {
        Conserved([
            u.get(q, cons::RHO),
            u.get(q, cons::MX),
            u.get(q, cons::MY),
            u.get(q, cons::MZ),
            u.get(q, cons::ENER),
        ])
        .to_primitive(gas)
    };
    for (row0, len) in rows(valid) {
        let mut x0 = 0usize;
        while x0 < len {
            let w_ = LANES.min(len - x0);
            let at = |l: usize| IntVect::new(row0[0] + (x0 + l) as i64, row0[1], row0[2]);
            let mut jac = [0.0; LANES];
            let mut delta = [0.0; LANES];
            for l in 0..w_ {
                jac[l] = met.get(at(l), mcomp::JAC);
                delta[l] = jac[l].cbrt();
            }
            // Computational velocity gradients (2nd-order central).
            let mut dcomp = [[[0.0; LANES]; 3]; 3]; // [xi][vel comp][lane]
            for (xi, rowx) in dcomp.iter_mut().enumerate() {
                let e = IntVect::unit(xi);
                for l in 0..w_ {
                    let wp = prim(at(l) + e);
                    let wm = prim(at(l) - e);
                    for (i, dc) in rowx.iter_mut().enumerate() {
                        dc[l] = 0.5 * (wp.vel[i] - wm.vel[i]);
                    }
                }
            }
            // Transform: ∂u_i/∂x_j = Σ_d (m_dj / J) ∂u_i/∂ξ_d.
            let mut g = [[[0.0; LANES]; 3]; 3];
            for (i, grow) in g.iter_mut().enumerate() {
                for (j, gij) in grow.iter_mut().enumerate() {
                    for l in 0..w_ {
                        let mut s = 0.0;
                        for (d, drow) in dcomp.iter().enumerate() {
                            s += met.get(at(l), mcomp::M + d * 3 + j) / jac[l] * drow[i][l];
                        }
                        gij[l] = s;
                    }
                }
            }
            let mut ss = [0.0; LANES];
            for (i, grow) in g.iter().enumerate() {
                for (j, gij) in grow.iter().enumerate() {
                    for l in 0..w_ {
                        let sij = 0.5 * (gij[l] + g[j][i][l]);
                        ss[l] += sij * sij;
                    }
                }
            }
            for l in 0..w_ {
                let smag = (2.0 * ss[l]).sqrt();
                let rho = u.get(at(l), cons::RHO);
                out.set(at(l), 0, rho * (model.cs * delta[l]).powi(2) * smag);
            }
            x0 += w_;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{compute_metrics, generate_coords, NCOORDS, NMETRICS};
    use crate::state::Primitive;
    use crocco_fab::{BoxArray, DistributionMapping, MultiFab};
    use crocco_geometry::{IndexBox, RealVect, StretchedMapping};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Sheared, stretched single-patch fixture with a nonlinear flow field:
    /// exercises every metric term and both flux-split signs.
    fn patch(extents: IntVect, gas: &PerfectGas) -> (MultiFab, MultiFab) {
        let bx = IndexBox::from_extents(extents[0], extents[1], extents[2]);
        let ba = Arc::new(BoxArray::new(vec![bx]));
        let dm = Arc::new(DistributionMapping::all_on_root(&ba));
        let map = StretchedMapping::new(RealVect::ZERO, RealVect::splat(1.0), 1.25, 1);
        let mut coords = MultiFab::new(ba.clone(), dm.clone(), NCOORDS, kernels::NGHOST + 2);
        generate_coords(&map, extents, &mut coords);
        let mut metrics = MultiFab::new(ba.clone(), dm.clone(), NMETRICS, kernels::NGHOST);
        compute_metrics(&coords, &mut metrics);
        let mut state = MultiFab::new(ba, dm, NCONS, kernels::NGHOST);
        let all = state.fab(0).bx();
        for p in all.cells() {
            let x = p[0] as f64 / extents[0] as f64;
            let y = p[1] as f64 / extents[1] as f64;
            let w = Primitive {
                rho: 1.0 + 0.25 * (5.0 * x).sin() * (3.0 * y).cos(),
                vel: [0.6 - 0.3 * y, 0.2 * (4.0 * x).cos(), -0.1 + 0.05 * y],
                p: 1.0 + 0.1 * (3.0 * x + 2.0 * y).sin(),
                t: 0.0,
            };
            let u = Conserved::from_primitive(&w, gas);
            for c in 0..NCONS {
                state.fab_mut(0).set(p, c, u.0[c]);
            }
        }
        (state, metrics)
    }

    fn bits(fab: &FArrayBox) -> Vec<u64> {
        fab.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn characteristic_falls_back_to_scalar_bitwise() {
        let gas = PerfectGas::nondimensional();
        let (state, metrics) = patch(IntVect::new(12, 8, 8), &gas);
        let valid = state.valid_box(0);
        let mut r_s = FArrayBox::new(valid, NCONS);
        let mut r_l = FArrayBox::new(valid, NCONS);
        kernels::weno_flux_recon(
            state.fab(0), metrics.fab(0), &mut r_s, valid, 0, &gas, WenoVariant::Js5,
            Reconstruction::Characteristic,
        );
        LanesBackend::weno_flux_recon(
            state.fab(0), metrics.fab(0), &mut r_l, valid, 0, &gas, WenoVariant::Js5,
            Reconstruction::Characteristic,
        );
        assert_eq!(bits(&r_s), bits(&r_l));
    }

    #[test]
    fn viscous_and_les_match_scalar_bitwise() {
        let gas = PerfectGas::air();
        let (state, metrics) = patch(IntVect::new(10, 6, 8), &gas);
        let valid = state.valid_box(0);
        for sgs in [None, Some(Smagorinsky { cs: 0.17 })] {
            let mut r_s = FArrayBox::new(valid, NCONS);
            let mut r_l = FArrayBox::new(valid, NCONS);
            kernels::viscous_flux_les(
                state.fab(0), metrics.fab(0), &mut r_s, valid, &gas, sgs.as_ref(),
            );
            LanesBackend::viscous_flux_les(
                state.fab(0), metrics.fab(0), &mut r_l, valid, &gas, sgs.as_ref(),
            );
            assert_eq!(bits(&r_s), bits(&r_l), "sgs={}", sgs.is_some());
        }
    }

    #[test]
    fn eddy_viscosity_field_matches_scalar_bitwise() {
        let gas = PerfectGas::air();
        let (state, metrics) = patch(IntVect::new(9, 6, 8), &gas);
        let valid = state.valid_box(0);
        let model = Smagorinsky { cs: 0.12 };
        let mut o_s = FArrayBox::new(valid, 1);
        let mut o_l = FArrayBox::new(valid, 1);
        model.eddy_viscosity_field(state.fab(0), metrics.fab(0), &mut o_s, valid, &gas);
        LanesBackend::eddy_viscosity_field(
            &model, state.fab(0), metrics.fab(0), &mut o_l, valid, &gas,
        );
        assert_eq!(bits(&o_s), bits(&o_l));
    }

    const VARIANTS: [WenoVariant; 3] =
        [WenoVariant::Js5, WenoVariant::CentralSym6, WenoVariant::Symbo];

    /// A `dims`-sized region at `offset` inside a 24³ valid box.
    fn region_strategy() -> impl Strategy<Value = IndexBox> {
        // `slab < 3` pins that dimension to the 4-cell boundary-band
        // thickness the task-graph paths pass.
        ((1i64..=20, 1i64..=20, 1i64..=20), 0usize..6, (0u64..1000, 0u64..1000, 0u64..1000))
            .prop_map(|((a, b, c), slab, (ox, oy, oz))| {
                let mut dims = [a, b, c];
                if slab < 3 {
                    dims[slab] = 4;
                }
                let lo = IntVect::new(
                    (ox % (25 - dims[0]) as u64) as i64,
                    (oy % (25 - dims[1]) as u64) as i64,
                    (oz % (25 - dims[2]) as u64) as i64,
                );
                IndexBox::new(lo, lo + IntVect(dims) - IntVect::splat(1))
            })
    }

    /// An rhs fab over `valid` carrying a nonzero pattern, so accumulation
    /// (not overwrite) and untouched cells outside the region both show.
    fn seeded_rhs(valid: IndexBox) -> FArrayBox {
        let mut rhs = FArrayBox::new(valid, NCONS);
        for (i, x) in rhs.data_mut().iter_mut().enumerate() {
            *x = 0.125 * (i % 17) as f64 - 1.0;
        }
        rhs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The plane-laned sweep on AMR-shaped work: random sub-tiles of a
        /// larger fab — ragged planes, 4-thick slabs, single-cell pencils —
        /// in every direction and variant.
        #[test]
        fn weno_sweep_matches_scalar_bitwise_on_any_region(
            region in region_strategy(),
            tile in (1i64..=9, 1i64..=9, 1i64..=9),
        ) {
            let gas = PerfectGas::nondimensional();
            let (state, metrics) = patch(IntVect::splat(24), &gas);
            let (u, met) = (state.fab(0), metrics.fab(0));
            let valid = state.valid_box(0);
            let recon = Reconstruction::ComponentWise;

            // 1. Every direction × variant equals the scalar kernel.
            for variant in VARIANTS {
                for dir in 0..3 {
                    let mut r_s = seeded_rhs(valid);
                    let mut r_l = seeded_rhs(valid);
                    kernels::weno_flux_recon(u, met, &mut r_s, region, dir, &gas, variant, recon);
                    LanesBackend::weno_flux_recon(u, met, &mut r_l, region, dir, &gas, variant, recon);
                    prop_assert!(
                        bits(&r_s) == bits(&r_l),
                        "{:?} dir {} diverged on {:?}", variant, dir, region
                    );
                }
            }

            // 2. Tiled accumulation equals the whole-region sweep.
            let mut whole = seeded_rhs(valid);
            let mut tiled = seeded_rhs(valid);
            for dir in 0..3 {
                LanesBackend::weno_flux_recon(
                    u, met, &mut whole, region, dir, &gas, WenoVariant::Symbo, recon,
                );
            }
            for t in tile_boxes(region, IntVect::new(tile.0, tile.1, tile.2)) {
                for dir in 0..3 {
                    LanesBackend::weno_flux_recon(
                        u, met, &mut tiled, t, dir, &gas, WenoVariant::Symbo, recon,
                    );
                }
            }
            prop_assert!(bits(&whole) == bits(&tiled), "tiling {:?} of {:?} diverged", tile, region);

            // 3. Rebuilding the rhs from per-face `interface_face_flux` calls
            // equals the default kernel — the property the subcycling flux
            // register depends on. (A corner of the region keeps the per-face
            // recomputation cheap; the sweep still runs over all of it.)
            let corner = IndexBox::new(
                region.lo(),
                IntVect::new(
                    region.hi()[0].min(region.lo()[0] + 5),
                    region.hi()[1].min(region.lo()[1] + 5),
                    region.hi()[2].min(region.lo()[2] + 5),
                ),
            );
            let mut rebuilt = seeded_rhs(valid);
            for dir in 0..3 {
                let e = IntVect::unit(dir);
                for p in corner.cells() {
                    let face = |q| {
                        kernels::interface_face_flux(u, met, q, dir, &gas, WenoVariant::Symbo, recon)
                    };
                    let (fm, fp) = (face(p), face(p + e));
                    let jac = met.get(p, mcomp::JAC);
                    for c in 0..NCONS {
                        rebuilt.add(p, c, -(fp[c] - fm[c]) / jac);
                    }
                }
            }
            let mut swept = seeded_rhs(valid);
            crate::backend::BackendKind::default().accumulate_rhs(
                u, met, &mut swept, region, &gas, WenoVariant::Symbo, recon, None,
            );
            for p in corner.cells() {
                for c in 0..NCONS {
                    prop_assert!(
                        swept.get(p, c).to_bits() == rebuilt.get(p, c).to_bits(),
                        "face-rebuilt rhs differs at {:?} comp {} of {:?}", p, c, region
                    );
                }
            }
        }
    }

    #[test]
    fn pencils_longer_than_one_scratch_block_match_scalar_bitwise() {
        // 300 cells along x: two blocks along the sweep sharing one face.
        let gas = PerfectGas::nondimensional();
        let (state, metrics) = patch(IntVect::new(300, 3, 2), &gas);
        let valid = state.valid_box(0);
        assert!(valid.length(0) as usize > MAX_PENCIL);
        let mut r_s = FArrayBox::new(valid, NCONS);
        let mut r_l = FArrayBox::new(valid, NCONS);
        kernels::weno_flux_recon(
            state.fab(0), metrics.fab(0), &mut r_s, valid, 0, &gas, WenoVariant::Symbo,
            Reconstruction::ComponentWise,
        );
        LanesBackend::weno_flux_recon(
            state.fab(0), metrics.fab(0), &mut r_l, valid, 0, &gas, WenoVariant::Symbo,
            Reconstruction::ComponentWise,
        );
        assert_eq!(bits(&r_s), bits(&r_l));
    }
}
