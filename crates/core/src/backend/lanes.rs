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
//! it are plain elementwise loops over the same scratch: a fixed
//! `SCRATCH_LEN` values of a buffer kept, per concurrently running kernel
//! thread, for the life of the process; regions that exceed it are swept in
//! blocks.
//!
//! The viscous and SGS kernels lane across contiguous x-cells of one row.
//! They stage primitives and fluxes in row-padded SoA arrays (a scratch from
//! the same idle list), read every stencil tap as a fixed-width slice load,
//! and compute each metric quotient `m_dj / J` and each primitive once per
//! cell, where the scalar kernels recompute them at every use. `ComputeDt`
//! is the per-point kernel (laned, it measured slower).
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
//! and the scratch layout is pure storage. Four details make this exact,
//! not approximate:
//!
//! * The α-weight guard `if d[r] == 0.0` and the downwind cap
//!   `if d[3] > 0.0` branch on the *variant's linear weights*, which are
//!   lane-uniform — the branches hoist out of the lane loop unchanged.
//! * Accumulations (`num`, `sum`, the wave-speed sum) start from `0.0` and
//!   add terms in the same order as the scalar code, so every intermediate
//!   rounding matches.
//! * `f64::min`/`max` and the remaining per-lane calls into shared scalar
//!   helpers (`to_primitive`, `sound_speed`, `viscosity`, `cbrt`) are the
//!   very same functions the scalar backend runs.
//! * A value the scalar kernels compute several times from the same
//!   operands — a quotient `m_dj / J`, a neighbour's primitive velocity,
//!   μ(T) inside the conductivity — is computed once and reused: the same
//!   operation on the same operands rounds the same way every time.
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
//! sweeps to the scalar kernel wholesale. The ragged last lane group of a
//! viscous or SGS row computes its pad lanes from staging pad cells and
//! stores only the real ones.

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
        // A min-reduction over row slices: laning it measured slower than
        // the per-point kernel (BENCH_backend.json), so there is none.
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

/// Kernel scratches not in use: the WENO sweep's [`SCRATCH_LEN`] blocks and
/// the viscous kernel's staging arrays alike. A kernel takes one, grows it if
/// it is short, and puts it back, so the process allocates one per thread
/// that has ever run a kernel *at the same time*, sized to the largest region
/// it ran, and never zero-fills it again. Not a thread-local: the pool
/// executors spawn their workers anew for every RK stage, and a scratch that
/// dies with its thread is mapped, faulted in and unmapped dozens of times
/// per step, at a cost that varies with whatever else the host is doing.
static IDLE_SCRATCH: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Runs `f` on `len` values of a scratch from [`IDLE_SCRATCH`]. They hold
/// whatever the previous kernel left there: callers write every value whose
/// result they keep before reading it.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let idle = IDLE_SCRATCH.lock().expect("scratch list poisoned").pop();
    let mut buf = idle.unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    IDLE_SCRATCH.lock().expect("scratch list poisoned").push(buf);
    out
}

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
    with_scratch(SCRATCH_LEN, |scratch| {
        for block in tile_boxes(region, extent) {
            let m = block.length(dir) as usize + 2 * STENCIL_RADIUS;
            let plane = (block.num_points() / block.length(dir) as u64) as usize;
            // Equal blocks of whole lane groups, as few as the scratch
            // (less the transposition tile) allows.
            let fit = (SCRATCH_LEN / (LANES * m) - INPUT_FIELDS) / SCRATCH_FIELDS * LANES;
            let step = plane.div_ceil(plane.div_ceil(fit)).next_multiple_of(LANES);
            for p0 in (0..plane).step_by(step) {
                let pc = step.min(plane - p0);
                sweep_block(u, met, rhs, block, dir, p0, pc, gas, variant, scratch);
            }
        }
    });
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

/// A fixed-width load of the LANES values at `at`.
#[inline(always)]
fn ld(s: &[f64], at: usize) -> [f64; LANES] {
    s[at..at + LANES].try_into().expect("LANES-wide load")
}

/// Row-padded layout of one component of the viscous kernel's staging
/// arrays over a box: x-row `(j, k)` starts at [`Staged::row`] and is
/// `stride` values long — the box's cells, then pad cells, so a LANES-wide
/// load at any stencil tap of any lane group of the row stays in the buffer.
/// Pad lanes compute values that are never stored.
#[derive(Clone, Copy)]
struct Staged {
    lo: IntVect,
    ny: usize,
    nz: usize,
    stride: usize,
}

impl Staged {
    fn new(bx: IndexBox, stride: usize) -> Self {
        Staged {
            lo: bx.lo(),
            ny: bx.length(1) as usize,
            nz: bx.length(2) as usize,
            stride,
        }
    }

    /// Values per component.
    fn len(&self) -> usize {
        self.ny * self.nz * self.stride
    }

    /// Offset of the row's first cell, `(lo[0], j, k)`.
    fn row(&self, j: i64, k: i64) -> usize {
        ((k - self.lo[2]) as usize * self.ny + (j - self.lo[1]) as usize) * self.stride
    }

    /// Offsets of the neighbours `−s·e_ξ` and `+s·e_ξ`, for each direction
    /// ξ, of the cell `x` cells into row `(j, k)`.
    fn neighbours(&self, j: i64, k: i64, x: usize, s: i64) -> [[usize; 2]; 3] {
        let c = self.row(j, k) + x;
        let d = s as usize;
        let y = |dj: i64| self.row(j + dj, k) + x;
        let z = |dk: i64| self.row(j, k + dk) + x;
        [[c - d, c + d], [y(-s), y(s)], [z(-s), z(s)]]
    }

    /// The 4th-order central-difference taps `[−2, −1, +1, +2]` along each
    /// direction of the cell `x` cells into row `(j, k)`.
    fn taps(&self, j: i64, k: i64, x: usize) -> [[usize; 4]; 3] {
        let (n1, n2) = (self.neighbours(j, k, x, 1), self.neighbours(j, k, x, 2));
        std::array::from_fn(|xi| [n2[xi][0], n1[xi][0], n1[xi][1], n2[xi][1]])
    }
}

/// Pass 0: velocity and temperature rows of every cell of `bx`, staged in
/// `prims` (laid out by `lay`) by the very [`Conserved::to_primitive`] the
/// scalar kernels call, from `read_row` copies of the five conserved rows
/// (`tmp` holds them: at least `NCONS` × the box's x-length).
fn stage_primitives(
    u: &impl FabView,
    gas: &PerfectGas,
    bx: IndexBox,
    lay: Staged,
    prims: &mut [&mut [f64]; 4],
    tmp: &mut [f64],
) {
    let n = bx.length(0) as usize;
    let (mut rows, _) = carve::<NCONS>(tmp, n);
    for p in bx.rows() {
        for (c, r) in rows.iter_mut().enumerate() {
            u.read_row(p, c, r);
        }
        let at = lay.row(p[1], p[2]);
        let [pu, pv, pw, pt] = prims;
        let (pu, pv, pw, pt) = (
            &mut pu[at..at + n],
            &mut pv[at..at + n],
            &mut pw[at..at + n],
            &mut pt[at..at + n],
        );
        let [rho, mx, my, mz, e] = &rows;
        let (rho, mx, my, mz, e) = (&rho[..n], &mx[..n], &my[..n], &mz[..n], &e[..n]);
        for i in 0..n {
            let w = Conserved([rho[i], mx[i], my[i], mz[i], e[i]]).to_primitive(gas);
            pu[i] = w.vel[0];
            pv[i] = w.vel[1];
            pw[i] = w.vel[2];
            pt[i] = w.t;
        }
    }
}

/// Number of padded row buffers the per-row loads use: the nine metrics,
/// the Jacobian and the density.
const ROW_BUFS: usize = 11;

/// Copies, for the `n` cells from `p`, the nine metric rows, the Jacobian
/// row and — for the closure — the density row into `rows`.
fn load_rows(
    u: &impl FabView,
    met: &FArrayBox,
    p: IntVect,
    n: usize,
    rho: bool,
    rows: &mut [&mut [f64]; ROW_BUFS],
) {
    for (c, r) in rows[..9].iter_mut().enumerate() {
        r[..n].copy_from_slice(met.row(p, mcomp::M + c, n));
    }
    rows[9][..n].copy_from_slice(met.row(p, mcomp::JAC, n));
    if rho {
        u.read_row(p, cons::RHO, &mut rows[10][..n]);
    }
}

/// The metrics `m_dj` (`[d][j]`), the Jacobian and the quotients `m_dj / J`
/// of the lane group at `i0` of the rows [`load_rows`] filled. Each quotient
/// is computed once and shared by every gradient transform and the closure,
/// which the scalar kernels evaluate as the same division of the same
/// operands at each use — so sharing it is exact.
struct GroupMetrics {
    m: [[[f64; LANES]; 3]; 3],
    q: [[[f64; LANES]; 3]; 3],
    jac: [f64; LANES],
}

impl GroupMetrics {
    #[inline(always)]
    fn load(rows: &[&mut [f64]; ROW_BUFS], i0: usize) -> Self {
        let jac = ld(rows[9], i0);
        let m: [[[f64; LANES]; 3]; 3] =
            std::array::from_fn(|d| std::array::from_fn(|j| ld(rows[d * 3 + j], i0)));
        let mut q = [[[0.0; LANES]; 3]; 3];
        for d in 0..3 {
            for j in 0..3 {
                for l in 0..LANES {
                    q[d][j][l] = m[d][j][l] / jac[l];
                }
            }
        }
        GroupMetrics { m, q, jac }
    }
}

/// The Smagorinsky eddy viscosity `μ_t = ρ (C_s Δ)² |S|` of one lane group:
/// per lane the operation sequence of [`Smagorinsky::eddy_viscosity`], with
/// the velocities read from the staged primitives (`vel`, the same
/// `to_primitive` values the closure derives) at the `[−e_ξ, +e_ξ]`
/// neighbour offsets `taps` + `i0`. The one copy of the gradient → |S| → μ_t
/// algebra in this backend: the viscous kernel and the μ_t field both call
/// it.
#[inline(always)]
fn eddy_viscosity_lanes(
    cs: f64,
    vel: [&[f64]; 3],
    taps: &[[usize; 2]; 3],
    i0: usize,
    gm: &GroupMetrics,
    rho: &[f64; LANES],
) -> [f64; LANES] {
    // Computational velocity gradients (2nd-order central).
    let mut dcomp = [[[0.0; LANES]; 3]; 3]; // [ξ][velocity component]
    for (xi, [minus, plus]) in taps.iter().enumerate() {
        for (i, v) in vel.iter().enumerate() {
            let (wm, wp) = (ld(v, minus + i0), ld(v, plus + i0));
            for l in 0..LANES {
                dcomp[xi][i][l] = 0.5 * (wp[l] - wm[l]);
            }
        }
    }
    // Transform: ∂u_i/∂x_j = Σ_d (m_dj / J) ∂u_i/∂ξ_d.
    let mut g = [[[0.0; LANES]; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            for l in 0..LANES {
                let mut s = 0.0;
                for d in 0..3 {
                    s += gm.q[d][j][l] * dcomp[d][i][l];
                }
                g[i][j][l] = s;
            }
        }
    }
    let mut ss = [0.0; LANES];
    for i in 0..3 {
        for j in 0..3 {
            for l in 0..LANES {
                let sij = 0.5 * (g[i][j][l] + g[j][i][l]);
                ss[l] += sij * sij;
            }
        }
    }
    let mut mu_t = [0.0; LANES];
    for l in 0..LANES {
        let delta = gm.jac[l].cbrt();
        let smag = (2.0 * ss[l]).sqrt();
        mu_t[l] = rho[l] * (cs * delta).powi(2) * smag;
    }
    mu_t
}

/// Lane-structured viscous/LES fluxes: the scalar kernel's two
/// global-memory-style staging passes, over row-padded staging arrays from
/// [`IDLE_SCRATCH`], with every operation the scalar kernel performs per
/// cell evaluated once:
///
/// 0. **primitives** — [`stage_primitives`] over `valid.grow(4)`;
/// 1. **fluxes** — per lane group of a `valid.grow(2)` row: the quotients
///    `m_dj / J` once ([`GroupMetrics`]), the 4th-order gradients of u, v,
///    w, T from staged rows, the closure from the same staged velocities
///    ([`eddy_viscosity_lanes`]), μ(T) once for μ and k, then stress, heat
///    flux and the contravariant flux rows;
/// 2. **divergence** — per lane group of a `valid` row, accumulated into
///    `rhs`.
///
/// The density row of the viscous flux is identically zero and is not
/// staged: its divergence is `+0.0`, added as `0.0 / J` exactly as the
/// scalar kernel adds it.
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
    let (work, prim_box) = (valid.grow(2), valid.grow(4));
    let (nx, wx) = (valid.length(0) as usize, work.length(0) as usize);
    // Pass 1 reads prims at lane-group offsets up to `wx` rounded up + the
    // 4-wide stencil; pass 2 reads the fluxes likewise within `nx` + 4.
    let stride = wx.next_multiple_of(LANES) + 4;
    let (prim_lay, flux_lay) = (Staged::new(prim_box, stride), Staged::new(work, stride));
    // Flux rows staged per direction: momentum and energy (`cons::MX..`).
    const NFLUX: usize = NCONS - 1;
    let len = 4 * prim_lay.len() + 3 * NFLUX * flux_lay.len() + ROW_BUFS * stride;
    with_scratch(len, |buf| {
        let (mut prims, rest) = carve::<4>(buf, prim_lay.len());
        let (flux, rest) = carve::<{ 3 * NFLUX }>(rest, flux_lay.len());
        stage_primitives(u, gas, prim_box, prim_lay, &mut prims, rest);
        let (mut rows, _) = carve::<ROW_BUFS>(rest, stride);
        let prims = prims.map(|p| &*p);
        let cp = gas.cp();

        // Pass 1: gradients → stress/heat flux → contravariant flux.
        for p in work.rows() {
            load_rows(u, met, p, wx, sgs.is_some(), &mut rows);
            // Work cell `x` is prims cell `x + 2` of the same row.
            let taps = prim_lay.taps(p[1], p[2], 2);
            let centre = prim_lay.row(p[1], p[2]) + 2;
            let sgs_taps = prim_lay.neighbours(p[1], p[2], 2, 1);
            let out = flux_lay.row(p[1], p[2]);
            for i0 in (0..wx).step_by(LANES) {
                let gm = GroupMetrics::load(&rows, i0);
                // Computational gradients of u, v, w, T (4th-order central).
                let mut dcomp = [[[0.0; LANES]; 3]; 4]; // [field][ξ]
                for (fi, f) in prims.iter().enumerate() {
                    for (xi, t) in taps.iter().enumerate() {
                        let [m2, m1, p1, p2] = t.map(|t| ld(f, t + i0));
                        for l in 0..LANES {
                            dcomp[fi][xi][l] = (m2[l] - 8.0 * m1[l] + 8.0 * p1[l] - p2[l]) / 12.0;
                        }
                    }
                }
                // Transform to physical space: ∂φ/∂x_j = Σ_d (m_dj/J) ∂φ/∂ξ_d.
                let mut dphys = [[[0.0; LANES]; 3]; 4];
                for fi in 0..4 {
                    for j in 0..3 {
                        for l in 0..LANES {
                            let mut s = 0.0;
                            for d in 0..3 {
                                s += gm.q[d][j][l] * dcomp[fi][d][l];
                            }
                            dphys[fi][j][l] = s;
                        }
                    }
                }
                let w_vel: [[f64; LANES]; 3] = std::array::from_fn(|c| ld(prims[c], centre + i0));
                let w_t = ld(prims[3], centre + i0);
                let mut mu = [0.0; LANES];
                let mut kk = [0.0; LANES];
                for l in 0..LANES {
                    mu[l] = gas.viscosity(w_t[l]);
                    kk[l] = gas.conductivity_from_viscosity(mu[l]);
                }
                if let Some(model) = sgs {
                    let rho = ld(rows[10], i0);
                    let vel = [prims[0], prims[1], prims[2]];
                    let mu_t = eddy_viscosity_lanes(model.cs, vel, &sgs_taps, i0, &gm, &rho);
                    for l in 0..LANES {
                        // Turbulent Prandtl number 0.9 for the SGS heat flux.
                        mu[l] += mu_t[l];
                        kk[l] += mu_t[l] * cp / 0.9;
                    }
                }
                let mut div = [0.0; LANES];
                for l in 0..LANES {
                    div[l] = dphys[0][0][l] + dphys[1][1][l] + dphys[2][2][l];
                }
                let mut tau = [[[0.0; LANES]; 3]; 3];
                for i in 0..3 {
                    for j in 0..3 {
                        for l in 0..LANES {
                            tau[i][j][l] = mu[l] * (dphys[i][j][l] + dphys[j][i][l]);
                        }
                    }
                    for l in 0..LANES {
                        tau[i][i][l] -= 2.0 / 3.0 * mu[l] * div[l];
                    }
                }
                let m = &gm.m;
                for d in 0..3 {
                    let mut fv = [[0.0; LANES]; NFLUX];
                    for j in 0..3 {
                        for l in 0..LANES {
                            fv[0][l] += m[d][j][l] * tau[0][j][l];
                            fv[1][l] += m[d][j][l] * tau[1][j][l];
                            fv[2][l] += m[d][j][l] * tau[2][j][l];
                            let work_term = w_vel[0][l] * tau[0][j][l]
                                + w_vel[1][l] * tau[1][j][l]
                                + w_vel[2][l] * tau[2][j][l];
                            fv[3][l] += m[d][j][l] * (work_term + kk[l] * dphys[3][j][l]);
                        }
                    }
                    for (c, fvc) in fv.iter().enumerate() {
                        flux[d * NFLUX + c][out + i0..out + i0 + LANES].copy_from_slice(fvc);
                    }
                }
            }
        }

        // Pass 2: divergence of the contravariant viscous flux.
        let flux = flux.map(|f| &*f);
        for p in valid.rows() {
            rows[9][..nx].copy_from_slice(met.row(p, mcomp::JAC, nx));
            // Valid cell `x` is work cell `x + 2` of the same row.
            let taps = flux_lay.taps(p[1], p[2], 2);
            for c in 0..NCONS {
                let dst = rhs.row_mut(p, c, nx);
                for i0 in (0..nx).step_by(LANES) {
                    let jac = ld(rows[9], i0);
                    let mut inc = [0.0; LANES];
                    if c == cons::RHO {
                        for l in 0..LANES {
                            inc[l] = 0.0 / jac[l];
                        }
                    } else {
                        let mut s = [0.0; LANES];
                        for (d, t) in taps.iter().enumerate() {
                            let f = flux[d * NFLUX + c - cons::MX];
                            let [m2, m1, p1, p2] = t.map(|t| ld(f, t + i0));
                            for l in 0..LANES {
                                s[l] += (m2[l] - 8.0 * m1[l] + 8.0 * p1[l] - p2[l]) / 12.0;
                            }
                        }
                        for l in 0..LANES {
                            inc[l] = s[l] / jac[l];
                        }
                    }
                    let n = LANES.min(nx - i0);
                    for (x, v) in dst[i0..i0 + n].iter_mut().zip(&inc) {
                        *x += v;
                    }
                }
            }
        }
    });
}

/// Lane-structured Smagorinsky eddy-viscosity field: primitives staged over
/// `valid.grow(1)` by [`stage_primitives`], then per lane group of a `valid`
/// row the one closure [`eddy_viscosity_lanes`] — per cell the operation
/// sequence of [`Smagorinsky::eddy_viscosity`].
fn eddy_viscosity_field_lanes(
    model: &Smagorinsky,
    u: &impl FabView,
    met: &FArrayBox,
    out: &mut FArrayBox,
    valid: IndexBox,
    gas: &PerfectGas,
) {
    let prim_box = valid.grow(1);
    let nx = valid.length(0) as usize;
    let stride = nx.next_multiple_of(LANES) + 2;
    let lay = Staged::new(prim_box, stride);
    with_scratch(4 * lay.len() + ROW_BUFS * stride, |buf| {
        let (mut prims, rest) = carve::<4>(buf, lay.len());
        stage_primitives(u, gas, prim_box, lay, &mut prims, rest);
        let (mut rows, _) = carve::<ROW_BUFS>(rest, stride);
        let vel = [&*prims[0], &*prims[1], &*prims[2]];
        for p in valid.rows() {
            load_rows(u, met, p, nx, true, &mut rows);
            // Valid cell `x` is staged cell `x + 1` of the same row.
            let taps = lay.neighbours(p[1], p[2], 1, 1);
            let dst = out.row_mut(p, 0, nx);
            for i0 in (0..nx).step_by(LANES) {
                let gm = GroupMetrics::load(&rows, i0);
                let mu_t = eddy_viscosity_lanes(model.cs, vel, &taps, i0, &gm, &ld(rows[10], i0));
                let n = LANES.min(nx - i0);
                dst[i0..i0 + n].copy_from_slice(&mu_t[..n]);
            }
        }
    });
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

    /// The gas/closure mixes the viscous kernel runs: molecular viscosity
    /// alone, molecular + Smagorinsky, and the closure alone on the inviscid
    /// nondimensional gas (the LES benchmark workload's case). The fixture
    /// state depends on γ only, which all three share.
    fn viscous_cases() -> [(PerfectGas, Option<Smagorinsky>); 3] {
        [
            (PerfectGas::air(), None),
            (PerfectGas::air(), Some(Smagorinsky { cs: 0.17 })),
            (PerfectGas::nondimensional(), Some(Smagorinsky { cs: 0.16 })),
        ]
    }

    /// Asserts the lane viscous kernel over `region` accumulates into a
    /// seeded rhs exactly what the scalar oracle does, in every case.
    fn assert_viscous_matches_scalar(state: &MultiFab, metrics: &MultiFab, region: IndexBox) {
        let (u, met, valid) = (state.fab(0), metrics.fab(0), state.valid_box(0));
        for (gas, sgs) in viscous_cases() {
            let mut r_s = seeded_rhs(valid);
            let mut r_l = seeded_rhs(valid);
            kernels::viscous_flux_les(u, met, &mut r_s, region, &gas, sgs.as_ref());
            LanesBackend::viscous_flux_les(u, met, &mut r_l, region, &gas, sgs.as_ref());
            assert!(
                bits(&r_s) == bits(&r_l),
                "mu_ref {} sgs {:?} diverged on {:?}",
                gas.mu_ref,
                sgs,
                region
            );
        }
    }

    /// Large, small, large again: the second large call runs on a staging
    /// scratch a smaller region has just rewritten, so a value read before
    /// this call wrote it would show.
    #[test]
    fn viscous_reuses_staging_across_region_sizes_bitwise() {
        let (state, metrics) = patch(IntVect::new(20, 12, 10), &PerfectGas::air());
        let valid = state.valid_box(0);
        let small = IndexBox::new(IntVect::new(5, 3, 2), IntVect::new(7, 4, 6));
        for region in [valid, small, valid] {
            assert_viscous_matches_scalar(&state, &metrics, region);
        }
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

        /// The row-sliced viscous/LES kernel on the same AMR-shaped regions
        /// — 4-thick band slabs, rows shorter than LANES, ragged lane
        /// remainders — in every gas/closure case, accumulating into a
        /// seeded rhs.
        #[test]
        fn viscous_and_les_match_scalar_bitwise(region in region_strategy()) {
            let (state, metrics) = patch(IntVect::splat(24), &PerfectGas::air());
            assert_viscous_matches_scalar(&state, &metrics, region);
        }

        /// The μ_t field through the lane backend's one closure.
        #[test]
        fn eddy_viscosity_field_matches_scalar_bitwise(region in region_strategy()) {
            let gas = PerfectGas::air();
            let (state, metrics) = patch(IntVect::splat(24), &gas);
            let (u, met) = (state.fab(0), metrics.fab(0));
            let model = Smagorinsky { cs: 0.12 };
            let mut o_s = FArrayBox::filled(region, 1, -1.0);
            let mut o_l = FArrayBox::filled(region, 1, -1.0);
            model.eddy_viscosity_field(u, met, &mut o_s, region, &gas);
            LanesBackend::eddy_viscosity_field(&model, u, met, &mut o_l, region, &gas);
            prop_assert!(bits(&o_s) == bits(&o_l), "diverged on {:?}", region);
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

    /// Every stored metric component is grid data some kernel reads: a NaN
    /// in one valid cell of any component reaches the RHS (LES on) or the
    /// time step, under both backends. A component written at every regrid
    /// and read by nothing fails here.
    #[test]
    fn every_stored_metric_component_is_read_by_a_kernel() {
        use crate::backend::BackendKind;
        let gas = PerfectGas::nondimensional();
        let sgs = Smagorinsky { cs: 0.16 };
        let (state, clean) = patch(IntVect::new(12, 8, 8), &gas);
        let valid = state.valid_box(0);
        for c in 0..NMETRICS {
            let mut metrics = clean.clone();
            metrics.fab_mut(0).set(IntVect::new(6, 4, 4), c, f64::NAN);
            let met = metrics.fab(0);
            for backend in BackendKind::ALL {
                let mut rhs = FArrayBox::new(valid, NCONS);
                backend.accumulate_rhs(
                    state.fab(0), met, &mut rhs, valid, &gas, WenoVariant::Symbo,
                    Reconstruction::ComponentWise, Some(&sgs),
                );
                let dt = backend.compute_dt_patch(state.fab(0), met, valid, &gas, 0.5);
                assert!(
                    rhs.data().iter().any(|v| !v.is_finite()) || !dt.is_finite(),
                    "metric component {c} is read by no {} kernel",
                    backend.label()
                );
            }
        }
    }
}
