//! Plotfile and checkpoint I/O.
//!
//! AMReX supplies CRoCCo's "grid I/O" (§VII-B); this module provides the
//! equivalents the examples and long runs need:
//!
//! * [`write_plotfile`] — a self-describing dump of every level's conserved
//!   state (text header + little-endian f64 body), easy to parse from any
//!   plotting script,
//! * [`write_checkpoint`] / [`read_checkpoint`] — full simulation state
//!   (step, time, per-level grids + valid data) sufficient to restart a run
//!   bit-for-bit (verified by an integration test).
//!
//! Formats are deliberately simple and dependency-free: a `CROCCO-CHK 2`
//! text header terminated by a blank line, then raw f64 data in box order,
//! sealed by a whole-file CRC-32 trailer (`\ncrc xxxxxxxx\n`) so truncated
//! or bit-flipped checkpoints are rejected with a descriptive error instead
//! of restoring garbage (the chaos runtime's recovery path rolls back to
//! these snapshots, so their integrity is part of the failure model —
//! DESIGN.md §4g). Legacy `CROCCO-CHK 1` files (no trailer) still parse.
//!
//! The serialization also has a byte-level entry point
//! ([`write_checkpoint_bytes`] / [`parse_checkpoint`]): the chaos stepping
//! loop keeps its periodic recovery checkpoints in memory, rank-local,
//! without touching the filesystem.

use crate::driver::Simulation;
use crate::state::NCONS;
use crocco_geometry::{IndexBox, IntVect};
use crocco_runtime::chaos::crc32;
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Cursor, Write};
use std::path::Path;

/// Byte length of the v2 CRC trailer: `"\ncrc "` + 8 hex digits + `"\n"`.
pub(crate) const CRC_TRAILER_LEN: usize = 14;

/// Validates a CRC-sealed byte stream (see [`seal_checkpoint`]) and returns
/// the payload in front of the trailer. Shared by the v2 checkpoint parser
/// and the durable-spill manifest (`core::durable`).
pub(crate) fn verify_sealed(bytes: &[u8]) -> io::Result<&[u8]> {
    if bytes.len() < CRC_TRAILER_LEN {
        return Err(bad_data("sealed object truncated: missing CRC trailer"));
    }
    let (prefix, trailer) = bytes.split_at(bytes.len() - CRC_TRAILER_LEN);
    let stored = trailer
        .strip_prefix(b"\ncrc ")
        .and_then(|t| t.strip_suffix(b"\n"))
        .and_then(|hex| std::str::from_utf8(hex).ok())
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| bad_data("sealed object truncated or malformed: bad CRC trailer"))?;
    let actual = crc32(prefix);
    if actual != stored {
        return Err(bad_data(format!(
            "sealed object corrupt: CRC mismatch (stored {stored:08x}, computed {actual:08x})"
        )));
    }
    Ok(prefix)
}

/// A parsed checkpoint, ready to be restored into a `Simulation` (see
/// [`Simulation::from_checkpoint`]).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Step counter at save time.
    pub step: u32,
    /// Simulation time at save time.
    pub time: f64,
    /// Per-level box lists (coarsest first).
    pub levels: Vec<Vec<IndexBox>>,
    /// Per-level, per-box valid-region data, `NCONS` components each, in
    /// fab layout order.
    pub data: Vec<Vec<Vec<f64>>>,
}

fn write_box(w: &mut impl Write, b: IndexBox) -> io::Result<()> {
    let (lo, hi) = (b.lo(), b.hi());
    writeln!(
        w,
        "box {} {} {} {} {} {}",
        lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]
    )
}

fn parse_box(line: &str) -> io::Result<IndexBox> {
    let nums: Vec<i64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)))
        .collect::<Result<_, _>>()?;
    if nums.len() != 6 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad box line"));
    }
    // Bound coordinates so box arithmetic downstream (`hi - lo + 1`, point
    // counts) cannot overflow on adversarial input. Real grids are many
    // orders of magnitude below this.
    const COORD_BOUND: i64 = 1 << 40;
    if nums.iter().any(|&c| c.abs() > COORD_BOUND) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("box coordinate out of range (|c| > 2^40): {line:?}"),
        ));
    }
    Ok(IndexBox::new(
        IntVect::new(nums[0], nums[1], nums[2]),
        IntVect::new(nums[3], nums[4], nums[5]),
    ))
}

/// Writes every level's conserved state (valid regions) to `path`.
pub fn write_plotfile(sim: &Simulation, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "CROCCO-PLT 1")?;
    writeln!(w, "time {}", sim.time())?;
    writeln!(w, "step {}", sim.step_count())?;
    writeln!(w, "ncomp {NCONS}")?;
    writeln!(w, "nlevels {}", sim.nlevels())?;
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        writeln!(w, "level {l} nboxes {}", state.nfabs())?;
        for i in 0..state.nfabs() {
            write_box(&mut w, state.valid_box(i))?;
        }
    }
    writeln!(w)?;
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        for i in 0..state.nfabs() {
            let valid = state.valid_box(i);
            for c in 0..NCONS {
                for p in valid.cells() {
                    w.write_all(&state.fab(i).get(p, c).to_le_bytes())?;
                }
            }
        }
    }
    w.flush()
}

/// Serializes the checkpoint *header* — magic line, step/time counters, and
/// per-level grid metadata through the blank separator line. The header is a
/// pure function of replicated metadata, so under owned-data distribution
/// every rank produces identical header bytes locally.
pub(crate) fn checkpoint_header(sim: &Simulation) -> Vec<u8> {
    let mut w: Vec<u8> = Vec::new();
    // Writing to a Vec cannot fail.
    writeln!(w, "CROCCO-CHK 2").unwrap();
    writeln!(w, "step {}", sim.step_count()).unwrap();
    writeln!(w, "time {}", sim.time()).unwrap();
    writeln!(w, "nlevels {}", sim.nlevels()).unwrap();
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        writeln!(w, "level {l} nboxes {}", state.nfabs()).unwrap();
        for i in 0..state.nfabs() {
            write_box(&mut w, state.valid_box(i)).unwrap();
        }
    }
    writeln!(w).unwrap();
    w
}

/// Serializes one patch's checkpoint body: component-major little-endian f64
/// over the valid cells of fab `i` (x fastest, the order of
/// `valid_box(i).cells()`), emitted an x-row of the fab at a time — the
/// unit the distributed checkpoint gather ships from each patch's owner.
/// Panics if the patch has no storage (an unowned placeholder).
pub(crate) fn patch_body_bytes(state: &crocco_fab::MultiFab, i: usize) -> Vec<u8> {
    let valid = state.valid_box(i);
    let fab = state.fab(i);
    let (lo, hi) = (valid.lo(), valid.hi());
    let nx = valid.size()[0] as usize;
    let mut w: Vec<[u8; 8]> = Vec::with_capacity(valid.num_points() as usize * NCONS);
    for c in 0..NCONS {
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let row = fab.row(IntVect::new(lo[0], y, z), c, nx);
                w.extend(row.iter().map(|v| v.to_le_bytes()));
            }
        }
    }
    w.into_flattened()
}

/// Seals assembled checkpoint bytes (header + bodies) with the whole-file
/// CRC-32 trailer, completing the v2 format.
pub(crate) fn seal_checkpoint(mut w: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&w);
    write!(w, "\ncrc {crc:08x}\n").unwrap();
    debug_assert!(w.ends_with(b"\n") && w.len() > CRC_TRAILER_LEN);
    w
}

/// Serializes a restartable checkpoint to bytes: `CROCCO-CHK 2` header,
/// little-endian f64 body, and a whole-file CRC-32 trailer.
///
/// The chaos recovery loop calls this directly to keep its periodic
/// snapshots in memory; [`write_checkpoint`] is the file-backed wrapper.
/// Requires every patch allocated (replicated data); the owned-data path
/// assembles the identical bytes from `checkpoint_header` plus gathered
/// `patch_body_bytes` instead.
pub fn write_checkpoint_bytes(sim: &Simulation) -> Vec<u8> {
    let mut w = checkpoint_header(sim);
    for l in 0..sim.nlevels() {
        let state = &sim.level(l).state;
        for i in 0..state.nfabs() {
            w.extend_from_slice(&patch_body_bytes(state, i));
        }
    }
    seal_checkpoint(w)
}

/// Writes a restartable checkpoint.
pub fn write_checkpoint(sim: &Simulation, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&write_checkpoint_bytes(sim))?;
    w.flush()
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parses checkpoint bytes produced by [`write_checkpoint_bytes`].
///
/// Version 2 files are verified against their CRC-32 trailer first, so any
/// truncation or bit flip anywhere in the file is rejected with a
/// descriptive [`io::ErrorKind::InvalidData`] error. Legacy `CROCCO-CHK 1`
/// files (no trailer) are still accepted; unknown versions are rejected.
pub fn parse_checkpoint(bytes: &[u8]) -> io::Result<Checkpoint> {
    const MAGIC_V1: &[u8] = b"CROCCO-CHK 1\n";
    const MAGIC_V2: &[u8] = b"CROCCO-CHK 2\n";
    let payload = if bytes.starts_with(MAGIC_V2) {
        verify_sealed(bytes).map_err(|e| bad_data(format!("checkpoint {e}")))?
    } else if bytes.starts_with(MAGIC_V1) {
        // Legacy format: no integrity trailer, parse as-is.
        bytes
    } else {
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
        return Err(bad_data(format!(
            "bad checkpoint magic {:?} (expected CROCCO-CHK 1 or 2)",
            String::from_utf8_lossy(first)
        )));
    };

    let mut r = Cursor::new(payload);
    let mut line = String::new();
    let mut read_line = |r: &mut Cursor<&[u8]>| -> io::Result<String> {
        line.clear();
        r.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    };
    let _magic = read_line(&mut r)?;
    let field = |s: &str, key: &str| -> io::Result<String> {
        s.strip_prefix(key)
            .map(|v| v.trim().to_string())
            .ok_or_else(|| bad_data(format!("expected {key}")))
    };
    let step: u32 = field(&read_line(&mut r)?, "step")?
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let time: f64 = field(&read_line(&mut r)?, "time")?
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let nlevels: usize = field(&read_line(&mut r)?, "nlevels")?
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    // Adversarial-input guards (the v1 path has no CRC, so every declared
    // count must be bounded by the bytes actually present *before* any
    // allocation sized from it): a level or box header needs at least one
    // line (≥ 2 bytes) of payload each, and a box body needs 8 bytes per
    // value — huge declared counts on a short file are rejected up front
    // instead of attempting a giant allocation or panicking on a slice.
    let remaining = |r: &Cursor<&[u8]>| payload.len().saturating_sub(r.position() as usize);
    if nlevels > remaining(&r) / 2 {
        return Err(bad_data(format!(
            "checkpoint declares {nlevels} levels but only {} bytes remain",
            remaining(&r)
        )));
    }
    let mut levels = Vec::with_capacity(nlevels);
    for _ in 0..nlevels {
        let header = read_line(&mut r)?;
        let nboxes: usize = header
            .split_whitespace()
            .last()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("bad level header"))?;
        if nboxes > remaining(&r) / 2 {
            return Err(bad_data(format!(
                "checkpoint declares {nboxes} boxes but only {} bytes remain",
                remaining(&r)
            )));
        }
        let mut boxes = Vec::with_capacity(nboxes);
        for _ in 0..nboxes {
            boxes.push(parse_box(&read_line(&mut r)?)?);
        }
        levels.push(boxes);
    }
    // Blank separator.
    let _ = read_line(&mut r)?;
    // Body.
    let mut data = Vec::with_capacity(nlevels);
    for boxes in &levels {
        let mut level_data = Vec::with_capacity(boxes.len());
        for b in boxes {
            let n = (b.num_points() as usize)
                .checked_mul(NCONS)
                .and_then(|n| n.checked_mul(8))
                .filter(|&need| need <= remaining(&r))
                .ok_or_else(|| {
                    bad_data(format!(
                        "checkpoint truncated: box {b:?} declares {} values but only {} body \
                         bytes remain",
                        (b.num_points() as usize).saturating_mul(NCONS),
                        remaining(&r)
                    ))
                })?;
            let at = r.position() as usize;
            let (words, _) = payload
                .get(at..at + n)
                .ok_or_else(|| bad_data("checkpoint truncated: body shorter than grid metadata"))?
                .as_chunks::<8>();
            r.set_position((at + n) as u64);
            level_data.push(words.iter().map(|w| f64::from_le_bytes(*w)).collect());
        }
        data.push(level_data);
    }
    Ok(Checkpoint {
        step,
        time,
        levels,
        data,
    })
}

/// Reads a checkpoint written by [`write_checkpoint`].
pub fn read_checkpoint(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
    parse_checkpoint(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodeVersion, SolverConfig};
    use crate::problems::ProblemKind;

    fn sim() -> Simulation {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(32, 4, 4)
            .version(CodeVersion::V1_1)
            .build();
        let mut s = Simulation::new(cfg);
        s.advance_steps(2);
        s
    }

    #[test]
    fn checkpoint_roundtrip_preserves_everything() {
        let s = sim();
        let path = std::env::temp_dir().join("crocco_chk_roundtrip.chk");
        write_checkpoint(&s, &path).unwrap();
        let chk = read_checkpoint(&path).unwrap();
        assert_eq!(chk.step, 2);
        assert_eq!(chk.time, s.time());
        assert_eq!(chk.levels.len(), 1);
        let state = &s.level(0).state;
        assert_eq!(chk.levels[0].len(), state.nfabs());
        // Spot-check data values against the live state.
        for (i, vals) in chk.data[0].iter().enumerate() {
            let valid = state.valid_box(i);
            let mut it = vals.iter();
            for c in 0..NCONS {
                for p in valid.cells() {
                    assert_eq!(*it.next().unwrap(), state.fab(i).get(p, c));
                }
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn plotfile_writes_parseable_header() {
        let s = sim();
        let path = std::env::temp_dir().join("crocco_plt_header.plt");
        write_plotfile(&s, &path).unwrap();
        let content = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&content[..200]);
        assert!(text.starts_with("CROCCO-PLT 1"));
        assert!(text.contains("ncomp 5"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = std::env::temp_dir().join("crocco_chk_bad.chk");
        std::fs::write(&path, b"NOT-A-CHECKPOINT\n").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(path).ok();
    }

    /// The corruption matrix the chaos issue asks for: every class of damage
    /// (truncation anywhere, single bit flips in header / body / trailer,
    /// unknown version) must be rejected with a descriptive error, never
    /// parsed into garbage state.
    #[test]
    fn corruption_matrix_is_rejected_with_descriptive_errors() {
        let bytes = write_checkpoint_bytes(&sim());
        assert!(parse_checkpoint(&bytes).is_ok(), "pristine bytes must parse");

        let header_end = bytes
            .windows(2)
            .position(|w| w == b"\n\n")
            .expect("header/body separator")
            + 2;
        let body_len = bytes.len() - header_end - CRC_TRAILER_LEN;
        assert!(body_len > 0);

        // Truncations: mid-header, mid-body, partial trailer, empty file.
        for cut in [
            5,
            header_end - 1,
            header_end + body_len / 2,
            bytes.len() - 3,
            0,
        ] {
            assert!(
                parse_checkpoint(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        // Single bit flips: header text, first/middle/last body byte, CRC
        // trailer digits. Every one changes the whole-file CRC.
        for pos in [
            2,                            // magic line
            header_end / 2,               // grid metadata
            header_end,                   // first body byte
            header_end + body_len / 2,    // mid body
            header_end + body_len - 1,    // last body byte
            bytes.len() - 4,              // crc hex digit
        ] {
            for bit in [0, 3, 7] {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                let err = parse_checkpoint(&bad).expect_err("bit flip must be rejected");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            }
        }

        // Unknown future version.
        let mut v9 = bytes.clone();
        v9[11] = b'9'; // "CROCCO-CHK 2" -> "CROCCO-CHK 9"
        let err = parse_checkpoint(&v9).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    /// The v2 format pinned byte for byte where it does not depend on
    /// evolved numerics: header text, total length and the CRC trailer of
    /// the unstepped Sod tube (the literals were recorded from the PR 17
    /// writer; `tests/checkpoint_restart.rs` pins a whole evolved AMR file
    /// from that commit the same way).
    #[test]
    fn tiny_checkpoint_header_length_and_trailer_are_pinned() {
        let cfg = SolverConfig::builder()
            .problem(ProblemKind::SodX)
            .extents(32, 4, 4)
            .version(CodeVersion::V1_1)
            .build();
        let bytes = write_checkpoint_bytes(&Simulation::new(cfg));
        let header: &[u8] =
            b"CROCCO-CHK 2\nstep 0\ntime 0\nnlevels 1\nlevel 0 nboxes 1\nbox 0 0 0 31 3 3\n\n";
        assert!(bytes.starts_with(header));
        assert_eq!(bytes.len(), header.len() + 32 * 4 * 4 * NCONS * 8 + CRC_TRAILER_LEN);
        assert_eq!(&bytes[bytes.len() - CRC_TRAILER_LEN..], b"\ncrc 7631d638\n");
    }

    #[test]
    fn legacy_v1_checkpoints_without_trailer_still_parse() {
        let s = sim();
        let v2 = write_checkpoint_bytes(&s);
        // A v1 file is the same layout minus the CRC trailer, with the old
        // version number in the magic line.
        let mut v1 = v2[..v2.len() - CRC_TRAILER_LEN].to_vec();
        v1[11] = b'1';
        let chk = parse_checkpoint(&v1).expect("legacy format must parse");
        assert_eq!(chk.step, 2);
        assert_eq!(chk.time, s.time());
    }

    fn pristine_bytes() -> &'static [u8] {
        use std::sync::OnceLock;
        static PRISTINE: OnceLock<Vec<u8>> = OnceLock::new();
        PRISTINE.get_or_init(|| write_checkpoint_bytes(&sim()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Fuzz-style robustness proof for the parser (ISSUE 10 satellite):
        /// arbitrary byte mutations of a valid checkpoint — including
        /// version downgrades to the CRC-less v1 path, stomps over the
        /// declared counts, and truncations — must either parse or return a
        /// typed error, never panic or abort on a bad slice/allocation.
        #[test]
        fn parser_survives_random_mutations(
            edits in proptest::prelude::prop::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()),
                1..8usize,
            ),
            downgrade in proptest::prelude::any::<bool>(),
            do_truncate in proptest::prelude::any::<bool>(),
            cut in proptest::prelude::any::<u64>(),
        ) {
            let mut bytes = pristine_bytes().to_vec();
            if downgrade {
                // "CROCCO-CHK 2" -> "CROCCO-CHK 1": drop the trailer so the
                // mutations land on the unguarded legacy path.
                bytes[11] = b'1';
                let keep = bytes.len() - CRC_TRAILER_LEN;
                bytes.truncate(keep);
            }
            for &(pos, val) in &edits {
                let pos = (pos % bytes.len() as u64) as usize;
                bytes[pos] = val;
            }
            if do_truncate {
                let keep = (cut % (bytes.len() as u64 + 1)) as usize;
                bytes.truncate(keep);
            }
            // Must not panic; the Result itself is unconstrained.
            let _ = parse_checkpoint(&bytes);
        }
    }

    #[test]
    fn declared_counts_beyond_buffer_are_rejected_descriptively() {
        // A v1 header (no CRC to save it) claiming a huge box on a tiny
        // body: the parser must refuse before sizing any allocation from
        // the declared count.
        let adversarial = b"CROCCO-CHK 1\nstep 0\ntime 0\nnlevels 1\nlevel 0 nboxes 1\nbox 0 0 0 9999999 9999999 9999999\n\nshort".to_vec();
        let err = parse_checkpoint(&adversarial).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("remain"), "{err}");

        // Huge declared level/box *counts* with no matching metadata.
        let many_levels = b"CROCCO-CHK 1\nstep 0\ntime 0\nnlevels 99999999\n".to_vec();
        let err = parse_checkpoint(&many_levels).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Coordinates outside the arithmetic-safe range.
        let huge_coords =
            b"CROCCO-CHK 1\nstep 0\ntime 0\nnlevels 1\nlevel 0 nboxes 1\nbox -9223372036854775807 0 0 9223372036854775807 0 0\n\n".to_vec();
        let err = parse_checkpoint(&huge_coords).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn byte_and_file_roundtrips_agree() {
        let s = sim();
        let from_bytes = parse_checkpoint(&write_checkpoint_bytes(&s)).unwrap();
        let path = std::env::temp_dir().join("crocco_chk_agree.chk");
        write_checkpoint(&s, &path).unwrap();
        let from_file = read_checkpoint(&path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(from_bytes.step, from_file.step);
        assert_eq!(from_bytes.time, from_file.time);
        assert_eq!(from_bytes.levels.len(), from_file.levels.len());
        assert_eq!(from_bytes.data, from_file.data);
    }
}
