//! Workspace dev tasks, invoked as `cargo xtask <task>` (see
//! `.cargo/config.toml` for the alias). Offline and dependency-free.

// Enforced by `cargo xtask lint`: unsafe code is confined to the allowlisted
// fab modules (multifab, view, dist_overlap) — none of it lives here.
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = args
                .next()
                .map(PathBuf::from)
                .unwrap_or_else(default_workspace_root);
            let report = lint::lint_root(&root);
            for d in &report.diagnostics {
                eprintln!("{}:{}: {}", d.path.display(), d.line, d.message);
            }
            for d in &report.durability_advisories {
                eprintln!(
                    "xtask lint: advisory — {}:{}: {}",
                    d.path.display(),
                    d.line,
                    d.message
                );
            }
            for (path, n) in &report.unwrap_audit {
                eprintln!(
                    "xtask lint: ratchet — {}: {} unwrap()/expect() call(s) in non-test code",
                    path.display(),
                    n
                );
            }
            if report.diagnostics.is_empty() {
                eprintln!(
                    "xtask lint: OK — {} files, {} unsafe sites (all allowlisted and justified)",
                    report.files_scanned, report.unsafe_sites
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "xtask lint: {} error(s) in {} files",
                    report.diagnostics.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo xtask lint [workspace-root]");
            eprintln!();
            eprintln!("tasks:");
            eprintln!("  lint    enforce the unsafe-code policy (DESIGN.md §4d):");
            eprintln!("          unsafe only in allowlisted modules, every unsafe");
            eprintln!("          justified by a SAFETY comment, crate roots forbid");
            eprintln!("          unsafe_code, no stray debug/stub macros, raw fab");
            eprintln!("          views only in the fab view layer (DESIGN.md §4i),");
            eprintln!("          every docs/results/*.md cited by the narrative");
            eprintln!("          documents exists, no bare fs::write/File::create on");
            eprintln!("          checkpoint/manifest paths outside the durable writer");
            eprintln!("          (advisory, DESIGN.md §4j), a per-file ratchet on");
            eprintln!("          unwrap()/expect() calls in every source file of an");
            eprintln!("          executed crate, and no `crocco_perfmodel` in them");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root relative to this crate (`crates/xtask`), letting the
/// alias work from any subdirectory.
fn default_workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask must live two levels below the workspace root")
        .to_path_buf()
}
