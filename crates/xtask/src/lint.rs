//! Source-level lint rules for the workspace (`cargo xtask lint`).
//!
//! The checks enforce the unsafe-code policy documented in DESIGN.md §4d:
//!
//! 1. the `unsafe` keyword appears only in allowlisted modules (the fab
//!    plan-execution path) — elsewhere the token itself is an error, even in
//!    positions the compiler would accept;
//! 2. every line containing `unsafe` in an allowlisted module is directly
//!    preceded by (or carries) a `SAFETY:` comment justifying it;
//! 3. every workspace crate root outside the allowlist opens with
//!    `#![forbid(unsafe_code)]`, so the policy survives refactors that move
//!    code between crates;
//! 4. `todo!`, `unimplemented!` and `dbg!` never reach the tree;
//! 5. arch-specific intrinsics and nightly SIMD paths (`std::arch`,
//!    `core::arch`, `std::simd`, `core::simd`) never appear — the SIMD-lane
//!    kernel backend (DESIGN.md §4h) is *stable, safe* Rust by design, and
//!    this keeps later "just one intrinsic" optimizations from eroding
//!    that: vectorization must come from lane-array loops the compiler can
//!    autovectorize, not from per-ISA escape hatches;
//! 6. raw fab views (`FabRd`/`FabRw`/`RawFab`) are constructed only inside
//!    the fab view layer itself — everywhere else goes through the safe
//!    `crocco_fab::with_rw` adapter, so the taskcheck access recorder
//!    (DESIGN.md §4i) observes every view that touches fab memory;
//! 7. every `docs/results/*.md` file and every `tests/*.rs` suite
//!    referenced from the narrative documents ([`DOC_LINK_SOURCES`]) exists
//!    — the docs cite results notes and test suites as evidence, and a
//!    citation to a note nobody wrote or a suite that was deleted (or that
//!    a rename orphaned) silently breaks the audit trail;
//! 8. *(advisory)* checkpoint/manifest files are never written with bare
//!    `fs::write`/`File::create` outside the sanctioned writer modules
//!    ([`DURABLE_WRITER_ALLOWLIST`]) — durability requires the
//!    temp + fsync + atomic-rename sequence in `core::durable`, and a
//!    bare write is exactly the torn-on-crash hazard that subsystem
//!    exists to remove. Advisory because test harnesses legitimately
//!    corrupt checkpoint files on purpose; non-test code flagged here
//!    should be routed through `DiskStore::write_atomic`;
//! 9. the non-test `unwrap()`/`expect()` count of every file under the
//!    `src/` of an executed crate ([`EXECUTED_CRATE_SRC`]) equals that
//!    file's committed ceiling: its [`UNWRAP_AUDIT`] entry, or 0 for a file
//!    the table does not name. A panic on a network-reachable path
//!    fail-stops a whole simulated rank, so wire-reachable decoding returns
//!    typed `CommError`/`FrameError`/`StageError` values, and the residue
//!    (lock poisoning, local invariants) is a ratchet: lowered by the
//!    change that removes a call (a count under its ceiling fails too, so
//!    no ceiling sits above the real count), never raised, and never
//!    started in a new file;
//! 10. the token `crocco_perfmodel` never appears in code under the `src/`
//!     of an *executed* crate ([`EXECUTED_CRATE_SRC`]) — what runs and what
//!     is modeled for Summit stay apart (DESIGN.md §3). The crates'
//!     `Cargo.toml` edges to the model crate are pinned by
//!     `benchmark/Cargo.lock` until the next benchmark issue (ROADMAP
//!     item 4), so the boundary is held here.
//!
//! The scanner is a small hand-rolled Rust lexer (line/nested-block comments,
//! string/raw-string/char literals, char-vs-lifetime disambiguation):
//! grep-level matching would false-positive on the word `unsafe` inside a
//! string or a comment, and the offline container cannot pull a real parser.

use std::fs;
use std::path::{Path, PathBuf};

/// Modules allowed to contain `unsafe` code, as workspace-relative paths.
/// Growing this list is a reviewed decision — see DESIGN.md §4d.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/fab/src/multifab.rs",
    "crates/fab/src/view.rs",
    "crates/fab/src/dist_overlap.rs",
];

/// Crate roots exempt from the `#![forbid(unsafe_code)]` requirement because
/// they host an allowlisted module (the workspace-level `deny` still applies
/// outside the module's own `allow`).
const FORBID_EXEMPT_ROOTS: &[&str] = &["crates/fab/src/lib.rs"];

/// Directory names never descended into. `vendor` holds stand-ins for
/// third-party crates — not workspace code — and `target` is build output.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Macros that must not reach the tree: stubs and debug leftovers.
const BANNED_MACROS: &[&str] = &["todo", "unimplemented", "dbg"];

/// Module paths that must not reach the tree (rule 5): per-ISA intrinsics
/// and nightly SIMD. The kernel backends vectorize through lane-array loops
/// on stable Rust; there is no allowlist for these.
const BANNED_PATHS: &[&str] = &["std::arch", "core::arch", "std::simd", "core::simd"];

/// Modules allowed to construct raw fab views directly (rule 6). The list
/// equals [`UNSAFE_ALLOWLIST`] by design: raw views exist exactly for the
/// plan-execution path, and keeping construction there means the taskcheck
/// access recorder wired into the view layer sees every fab access.
const RAW_VIEW_ALLOWLIST: &[&str] = &[
    "crates/fab/src/multifab.rs",
    "crates/fab/src/view.rs",
    "crates/fab/src/dist_overlap.rs",
];

/// Raw-view constructor tokens banned outside [`RAW_VIEW_ALLOWLIST`].
const RAW_VIEW_TOKENS: &[&str] = &[
    "FabRd::new",
    "FabRd::from_raw",
    "FabRw::from_mut",
    "FabRw::from_raw",
    "RawFab::capture",
    "RawFab::capture_const",
];

/// The executed-crate files (rule 9) allowed non-test `unwrap()`/`expect()`
/// calls, each at its exact count; every other file under
/// [`EXECUTED_CRATE_SRC`] must have none. A panic here fail-stops a
/// simulated rank, so wire-reachable decoding must use typed errors. The
/// ratchet is exact: a file over its ceiling fails the lint, and so does
/// one under it, so a change that removes calls lowers the number here in
/// the same commit (and drops the entry at zero). Counting stops at the
/// first `#[cfg(test)]` line.
const UNWRAP_AUDIT: &[(&str, usize)] = &[
    ("crates/amr/src/fillpatch.rs", 1),
    ("crates/core/src/backend/lanes.rs", 5),
    ("crates/core/src/cluster_step.rs", 4),
    ("crates/core/src/driver.rs", 6),
    ("crates/core/src/io.rs", 8),
    ("crates/core/src/kernels.rs", 1),
    ("crates/core/src/metrics.rs", 1),
    ("crates/fab/src/dist_overlap.rs", 1),
    ("crates/fab/src/distribution.rs", 2),
    ("crates/fab/src/plan_cache.rs", 7),
    ("crates/runtime/src/cluster.rs", 2),
    ("crates/runtime/src/taskcheck.rs", 3),
];

/// Source trees of the crates that execute: none of them may name the
/// model crate (rule 10), and every file in them is on the unwrap ratchet
/// (rule 9).
const EXECUTED_CRATE_SRC: &[&str] = &[
    "crates/geometry/src/",
    "crates/fab/src/",
    "crates/runtime/src/",
    "crates/amr/src/",
    "crates/core/src/",
];

/// Modules sanctioned to open checkpoint/manifest files for writing (rule
/// 8): the checkpoint serializer and the atomic-rename durable writer.
/// Everything else must go through `crocco_solver::durable::DiskStore`.
const DURABLE_WRITER_ALLOWLIST: &[&str] = &[
    "crates/core/src/io.rs",
    "crates/core/src/durable.rs",
];

/// Raw write entry points rule 8 looks for (in the code channel, so string
/// and comment mentions don't count).
const BARE_WRITE_TOKENS: &[&str] = &["fs::write", "File::create"];

/// Checkpoint-ish name fragments that make a bare write suspicious (matched
/// case-insensitively against the *raw* line — the filename usually lives in
/// a string literal, which the code channel blanks).
const CKPT_NAME_HINTS: &[&str] = &["chk", "checkpoint", "manifest", "spill", ".ckpt"];

/// Narrative documents whose `docs/results/*.md` and `tests/*.rs`
/// references must resolve (rule 7). References are workspace-root-relative
/// wherever they appear, so one spelling stays greppable across all the
/// documents.
const DOC_LINK_SOURCES: &[&str] = &[
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "docs/CONTRIBUTING.md",
    "docs/DISTRIBUTED.md",
];

/// What rule 7 resolves: a path that starts with the prefix (at a path
/// boundary, so `crates/x/tests/y.rs` is not read as `tests/y.rs`) and ends
/// with the extension, and what the diagnostic tells the author to do.
const DOC_LINK_KINDS: &[(&str, &str, &str)] = &[
    (
        "docs/results/",
        ".md",
        "write the results note or fix the reference",
    ),
    (
        "tests/",
        ".rs",
        "name a suite that exists or drop the reference",
    ),
];

/// One `file:line: message` finding.
pub struct Diagnostic {
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

/// The outcome of a full workspace scan.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub unsafe_sites: usize,
    /// Non-test `unwrap()`/`expect()` counts of the executed-crate files
    /// that hold any or have an [`UNWRAP_AUDIT`] ceiling; a count off the
    /// file's ceiling is also a diagnostic.
    pub unwrap_audit: Vec<(PathBuf, usize)>,
    /// Advisory rule-8 findings: bare `fs::write`/`File::create` on
    /// checkpoint/manifest-looking paths outside the sanctioned writer
    /// modules (non-test code only). Informational — never fails the lint.
    pub durability_advisories: Vec<Diagnostic>,
}

/// Lints every `.rs` file under `root` (minus [`SKIP_DIRS`]) plus the
/// crate-root attribute rule for each workspace crate found.
pub fn lint_root(root: &Path) -> Report {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();

    let mut report = Report {
        diagnostics: Vec::new(),
        files_scanned: files.len(),
        unsafe_sites: 0,
        unwrap_audit: Vec::new(),
        durability_advisories: Vec::new(),
    };
    let roots = crate_roots(root);
    for rel in &files {
        let src = match fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                report.diagnostics.push(Diagnostic {
                    path: rel.clone(),
                    line: 0,
                    message: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        let rel_str = rel_slashes(rel);
        lint_file(rel, &rel_str, &src, roots.contains(rel), &mut report);
    }
    lint_doc_links(root, &mut report);
    report
}

/// Rule 7: every path of a [`DOC_LINK_KINDS`] kind mentioned in a
/// [`DOC_LINK_SOURCES`] document names a file that exists. Matching is
/// textual (these are Markdown files, not Rust) and tolerant of sentence
/// punctuation after the path. A source document that is absent is skipped —
/// the rule guards against dangling references, and fixture trees in the
/// tests have no narrative documents at all.
fn lint_doc_links(root: &Path, report: &mut Report) {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '-' | '.');
    for rel in DOC_LINK_SOURCES {
        let Ok(text) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        report.files_scanned += 1;
        for (idx, line) in text.lines().enumerate() {
            for &(prefix, ext, fix) in DOC_LINK_KINDS {
                for (at, _) in line.match_indices(prefix) {
                    if line[..at].ends_with(is_path_char) {
                        continue;
                    }
                    let tail = &line[at..];
                    let end = tail.find(|c: char| !is_path_char(c)).unwrap_or(tail.len());
                    let mut target = &tail[..end];
                    // Trailing sentence punctuation is prose, not path.
                    while !target.ends_with(ext) && target.ends_with(['.', ',']) {
                        target = &target[..target.len() - 1];
                    }
                    if target.ends_with(ext) && !root.join(target).exists() {
                        report.diagnostics.push(Diagnostic {
                            path: PathBuf::from(rel),
                            line: idx + 1,
                            message: format!("`{target}` is referenced but does not exist; {fix}"),
                        });
                    }
                }
            }
        }
    }
}

/// Applies all per-file rules to one source file.
fn lint_file(rel: &Path, rel_str: &str, src: &str, is_crate_root: bool, report: &mut Report) {
    let stripped = strip(src);
    let allowlisted = UNSAFE_ALLOWLIST.contains(&rel_str);
    let view_allowed = RAW_VIEW_ALLOWLIST.contains(&rel_str);
    let durable_writer = DURABLE_WRITER_ALLOWLIST.contains(&rel_str);
    let executed = EXECUTED_CRATE_SRC.iter().any(|p| rel_str.starts_with(p));
    // Rule 8 scopes to non-test code: the durable-restart suites corrupt
    // checkpoint files *on purpose* (they are the storage adversary).
    let test_start = stripped
        .code
        .iter()
        .position(|l| l.split_whitespace().collect::<String>() == "#[cfg(test)]")
        .unwrap_or(usize::MAX);
    let raw_lines: Vec<&str> = src.lines().collect();

    for (idx, line) in stripped.code.iter().enumerate() {
        let lineno = idx + 1;
        if token_pos(line, "unsafe").is_some() {
            report.unsafe_sites += 1;
            if !allowlisted {
                report.diagnostics.push(Diagnostic {
                    path: rel.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "`unsafe` outside the allowlisted modules ({}); \
                         move the code there or make it safe",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            } else if !has_safety_comment(&stripped, idx) {
                report.diagnostics.push(Diagnostic {
                    path: rel.to_path_buf(),
                    line: lineno,
                    message: "`unsafe` without a `// SAFETY:` comment directly above it"
                        .to_string(),
                });
            }
        }
        for mac in BANNED_MACROS {
            if macro_pos(line, mac).is_some() {
                report.diagnostics.push(Diagnostic {
                    path: rel.to_path_buf(),
                    line: lineno,
                    message: format!("`{mac}!` must not reach the tree"),
                });
            }
        }
        for path in BANNED_PATHS {
            if line.contains(path) {
                report.diagnostics.push(Diagnostic {
                    path: rel.to_path_buf(),
                    line: lineno,
                    message: format!(
                        "`{path}` must not reach the tree: kernels vectorize \
                         through stable lane-array loops, not per-ISA \
                         intrinsics or nightly SIMD (DESIGN.md §4h)"
                    ),
                });
            }
        }
        if !durable_writer && idx < test_start && !rel_str.contains("/tests/") {
            let bare_write = BARE_WRITE_TOKENS.iter().any(|t| line.contains(t));
            let raw_lower = raw_lines.get(idx).map(|l| l.to_lowercase()).unwrap_or_default();
            if bare_write && CKPT_NAME_HINTS.iter().any(|h| raw_lower.contains(h)) {
                report.durability_advisories.push(Diagnostic {
                    path: rel.to_path_buf(),
                    line: lineno,
                    message: "bare fs::write/File::create on a checkpoint/manifest \
                              path; durable writes must go through \
                              `crocco_solver::durable::DiskStore::write_atomic` \
                              (temp + fsync + atomic rename)"
                        .to_string(),
                });
            }
        }
        if executed && token_pos(line, "crocco_perfmodel").is_some() {
            report.diagnostics.push(Diagnostic {
                path: rel.to_path_buf(),
                line: lineno,
                message: "`crocco_perfmodel` in an executed crate: the Summit models \
                          price plan statistics from `crates/bench`, they are not \
                          called by code that runs (DESIGN.md §3)"
                    .to_string(),
            });
        }
        if !view_allowed {
            for tok in RAW_VIEW_TOKENS {
                if token_pos(line, tok).is_some() {
                    report.diagnostics.push(Diagnostic {
                        path: rel.to_path_buf(),
                        line: lineno,
                        message: format!(
                            "`{tok}` outside the fab view layer ({}); go \
                             through `crocco_fab::with_rw` or a plan-level \
                             API so the taskcheck access recorder sees the \
                             view (DESIGN.md §4i)",
                            RAW_VIEW_ALLOWLIST.join(", ")
                        ),
                    });
                }
            }
        }
    }

    if executed {
        let ceiling = UNWRAP_AUDIT
            .iter()
            .find(|(path, _)| *path == rel_str)
            .map_or(0, |&(_, c)| c);
        let n = count_unwraps(&stripped);
        if n > 0 || ceiling > 0 {
            report.unwrap_audit.push((rel.to_path_buf(), n));
        }
        let fix = match n.cmp(&ceiling) {
            std::cmp::Ordering::Greater => Some(("over", "return a typed error instead".into())),
            std::cmp::Ordering::Less => Some(("under", format!("lower the ceiling to {n}"))),
            std::cmp::Ordering::Equal => None,
        };
        if let Some((side, fix)) = fix {
            report.diagnostics.push(Diagnostic {
                path: rel.to_path_buf(),
                line: 0,
                message: format!(
                    "{n} unwrap()/expect() call(s) in non-test code, {side} this file's \
                     ratchet of {ceiling} (UNWRAP_AUDIT in crates/xtask/src/lint.rs): {fix}"
                ),
            });
        }
    }

    if is_crate_root && !FORBID_EXEMPT_ROOTS.contains(&rel_str) {
        let has_forbid = stripped
            .code
            .iter()
            .any(|l| l.split_whitespace().collect::<String>() == "#![forbid(unsafe_code)]");
        if !has_forbid {
            report.diagnostics.push(Diagnostic {
                path: rel.to_path_buf(),
                line: 1,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }
}

/// True when the comment block directly above line `idx` (or the line's own
/// trailing comment) contains `SAFETY:`.
fn has_safety_comment(stripped: &Stripped, idx: usize) -> bool {
    if stripped.comment[idx].contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code_blank = stripped.code[j].trim().is_empty();
        let comment = stripped.comment[j].trim();
        if code_blank && !comment.is_empty() {
            if stripped.comment[j].contains("SAFETY:") {
                return true;
            }
            // keep walking up through the comment block
        } else {
            break;
        }
    }
    false
}

/// Counts `.unwrap(` / `.expect(` occurrences in the non-test code lines of
/// a stripped file (everything before the first `#[cfg(test)]`). String and
/// comment occurrences were already blanked by the lexer.
fn count_unwraps(stripped: &Stripped) -> usize {
    let mut n = 0;
    for line in &stripped.code {
        if line.split_whitespace().collect::<String>() == "#[cfg(test)]" {
            break;
        }
        n += line.matches(".unwrap(").count() + line.matches(".expect(").count();
    }
    n
}

/// Position of `word` in `line` as a standalone token (identifier
/// boundaries on both sides), or `None`.
fn token_pos(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(off) = line[start..].find(word) {
        let at = start + off;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Position of a `name!` macro invocation in `line`, or `None`.
fn macro_pos(line: &str, name: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(at) = token_pos(&line[start..], name).map(|p| p + start) {
        let rest = line[at + name.len()..].trim_start();
        if rest.starts_with('!') {
            return Some(at);
        }
        start = at + name.len();
        if start >= line.len() {
            break;
        }
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Recursively collects workspace-relative `.rs` paths under `dir`.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// The crate-root source files of the workspace: `src/lib.rs` (or
/// `src/main.rs`) of the root package and of every `crates/*` member that has
/// a `Cargo.toml`.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
    }
    let mut out = Vec::new();
    for d in dirs {
        if !d.join("Cargo.toml").exists() {
            continue;
        }
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let p = d.join(candidate);
            if p.exists() {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_path_buf());
                }
                break;
            }
        }
    }
    out
}

/// Normalizes a relative path to forward slashes for allowlist comparison.
fn rel_slashes(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// A source file split per line into code text (string/char literal contents
/// blanked, comments removed) and comment text.
struct Stripped {
    code: Vec<String>,
    comment: Vec<String>,
}

enum State {
    Code,
    LineComment,
    /// Nesting depth (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Number of `#` marks delimiting the raw string.
    RawStr(u32),
}

/// The hand-rolled lexer: walks `src` once, routing each character to the
/// code or comment channel of the current line.
fn strip(src: &str) -> Stripped {
    let chars: Vec<char> = src.chars().collect();
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw (byte) string openers: r"…", r#"…"#, br"…", … — only
                // when the `r` starts a token (`for` ends in r but is code).
                let prev_ident = code.chars().last().is_some_and(|p| is_ident_byte(p as u8));
                if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal vs lifetime/label: a literal is '\…' or a
                    // single char followed by a closing quote.
                    let is_char_lit = next == Some('\\')
                        || (next.is_some() && chars.get(i + 2) == Some(&'\''));
                    if is_char_lit {
                        code.push_str("' '");
                        i += 1; // consume opening quote
                        if chars.get(i) == Some(&'\\') {
                            i += 2; // escape introducer + escaped char
                            // multi-char escapes (\x41, \u{…}) run to the quote
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                        } else {
                            i += 1; // the single literal char
                        }
                        i += 1; // closing quote
                        continue;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped char (covers \" and \\)
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes as usize)
                        .all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);
    Stripped {
        code: code_lines,
        comment: comment_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn code_of(src: &str) -> Vec<String> {
        strip(src).code
    }

    #[test]
    fn lexer_blanks_strings_and_drops_comments() {
        let s = strip("let x = \"unsafe\"; // unsafe here\n");
        assert!(token_pos(&s.code[0], "unsafe").is_none());
        assert!(s.comment[0].contains("unsafe"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_nested_block_comments() {
        let code = code_of("let r = r#\"unsafe \" quote\"#; /* a /* unsafe */ b */ let y = 1;\n");
        assert!(token_pos(&code[0], "unsafe").is_none());
        assert!(code[0].contains("let y = 1;"));
    }

    #[test]
    fn lexer_distinguishes_lifetimes_from_char_literals() {
        // A lifetime must stay in the code channel; a char literal containing
        // a quote must not desynchronize the string detector.
        let code = code_of("fn f<'a>(x: &'a str) { let q = '\"'; let u = unsafe_name(); }\n");
        assert!(code[0].contains("'a"));
        assert!(token_pos(&code[0], "unsafe").is_none(), "unsafe_name is not the token");
        let code = code_of("let c = '\\''; let d = unsafe_marker;\n");
        assert!(token_pos(&code[0], "unsafe").is_none());
        assert!(code[0].contains("unsafe_marker"));
    }

    #[test]
    fn token_and_macro_matching_respect_boundaries() {
        assert!(token_pos("unsafe {", "unsafe").is_some());
        assert!(token_pos("make_unsafe()", "unsafe").is_none());
        assert!(token_pos("unsafely()", "unsafe").is_none());
        assert!(macro_pos("x(); t o d o", "dbg").is_none());
        assert!(macro_pos("dbg ! (x)", "dbg").is_some());
        assert!(macro_pos("let dbg = 1;", "dbg").is_none());
    }

    #[test]
    fn safety_rule_accepts_block_directly_above() {
        let s = strip("// SAFETY: regions proven disjoint\n// by check_plan.\nunsafe { x() }\n");
        assert!(has_safety_comment(&s, 2));
        let s = strip("let a = 1;\nunsafe { x() }\n");
        assert!(!has_safety_comment(&s, 1));
    }

    // ---- fixture-tree integration tests ----------------------------------

    static FIXTURE_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A throwaway directory tree; removed on drop.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new() -> Self {
            let root = std::env::temp_dir().join(format!(
                "xtask_lint_fixture_{}_{}",
                std::process::id(),
                FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn write(&self, rel: &str, contents: &str) {
            let p = self.root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, contents).unwrap();
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn messages(report: &Report) -> Vec<String> {
        report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{}: {}", d.path.display(), d.line, d.message))
            .collect()
    }

    #[test]
    fn fixture_tree_trips_every_rule() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        // Crate root without the forbid attribute, with banned macros.
        fx.write(
            "src/lib.rs",
            "pub fn f() { dbg!(1); }\npub fn g() { todo!() }\n",
        );
        // Unsafe outside the allowlist.
        fx.write(
            "crates/evil/Cargo.toml",
            "[package]\nname = \"evil\"\n",
        );
        fx.write(
            "crates/evil/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        let has = |frag: &str| msgs.iter().any(|m| m.contains(frag));
        assert!(has("src/lib.rs:1: crate root is missing"), "{msgs:?}");
        assert!(has("`dbg!` must not reach the tree"), "{msgs:?}");
        assert!(has("`todo!` must not reach the tree"), "{msgs:?}");
        assert!(has("`unsafe` outside the allowlisted modules"), "{msgs:?}");
        assert_eq!(report.diagnostics.len(), 4, "{msgs:?}");
    }

    #[test]
    fn fixture_allowlisted_unsafe_requires_safety_comment() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/fab/Cargo.toml", "[package]\nname = \"fab\"\n");
        fx.write("crates/fab/src/lib.rs", "pub mod multifab;\n");
        fx.write(
            "crates/fab/src/multifab.rs",
            "pub fn ok(p: *const u8) -> u8 {\n    \
             // SAFETY: caller guarantees p is valid.\n    \
             unsafe { *p }\n}\n\
             pub fn bad(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("multifab.rs:6"), "{msgs:?}");
        assert!(msgs[0].contains("without a `// SAFETY:`"), "{msgs:?}");
        assert_eq!(report.unsafe_sites, 2);
    }

    #[test]
    fn fixture_intrinsics_and_nightly_simd_are_banned_everywhere() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        // Even the unsafe-allowlisted fab modules get no intrinsics pass.
        fx.write("crates/fab/Cargo.toml", "[package]\nname = \"fab\"\n");
        fx.write("crates/fab/src/lib.rs", "pub mod multifab;\n");
        fx.write(
            "crates/fab/src/multifab.rs",
            "use core::arch::x86_64::_mm512_add_pd;\n\
             pub fn f(x: std::simd::f64x8) {}\n\
             // a comment naming std::arch is fine\n\
             pub const DOC: &str = \"core::simd in a string is fine\";\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("`core::arch` must not reach the tree"), "{msgs:?}");
        assert!(msgs[1].contains("`std::simd` must not reach the tree"), "{msgs:?}");
    }

    #[test]
    fn fixture_raw_views_banned_outside_fab_view_layer() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f(fab: &mut F) { let mut rw = FabRw::from_mut(fab); rw.set(p, 0, 1.0); }\n\
             // FabRd::new in a comment is fine\n\
             pub const DOC: &str = \"RawFab::capture in a string is fine\";\n",
        );
        // The same constructor inside the allowlisted view module passes.
        fx.write("crates/fab/Cargo.toml", "[package]\nname = \"fab\"\n");
        fx.write("crates/fab/src/lib.rs", "pub mod view;\n");
        fx.write(
            "crates/fab/src/view.rs",
            "pub fn with_rw(fab: &mut F) { let _rw = FabRw::from_mut(fab); }\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("src/lib.rs:2"), "{msgs:?}");
        assert!(
            msgs[0].contains("`FabRw::from_mut` outside the fab view layer"),
            "{msgs:?}"
        );
    }

    #[test]
    fn fixture_executed_crates_may_not_name_the_model_crate() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\npub use crocco_perfmodel as perfmodel;\n");
        fx.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
        fx.write(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             //! priced by [`crocco_perfmodel`] — a comment is fine\n\
             pub const DOC: &str = \"crocco_perfmodel in a string is fine\";\n\
             pub mod step;\n",
        );
        fx.write("crates/core/src/step.rs", "use crocco_perfmodel::NetworkModel;\n");
        // The harness crate is where the models are meant to be called.
        fx.write("crates/bench/Cargo.toml", "[package]\nname = \"bench\"\n");
        fx.write(
            "crates/bench/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse crocco_perfmodel::SummitPlatform;\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("crates/core/src/step.rs:1"), "{msgs:?}");
        assert!(msgs[0].contains("`crocco_perfmodel` in an executed crate"), "{msgs:?}");
    }

    #[test]
    fn fixture_bare_checkpoint_writes_are_advised() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
        fx.write(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod durable;\npub mod rogue;\n",
        );
        // A bare write to a checkpoint-looking path outside the durable
        // writer modules draws an advisory; the same call on an unrelated
        // path, inside #[cfg(test)], or in the allowlisted module does not.
        fx.write(
            "crates/core/src/rogue.rs",
            "pub fn spill(dir: &std::path::Path, b: &[u8]) {\n    \
                 let _ = std::fs::write(dir.join(\"chk_A\"), b);\n    \
                 let _ = std::fs::write(dir.join(\"trace.log\"), b);\n}\n\
             #[cfg(test)]\n\
             mod tests {\n    \
                 fn corrupt(d: &std::path::Path) { std::fs::write(d.join(\"MANIFEST\"), b\"x\").unwrap(); }\n\
             }\n",
        );
        fx.write(
            "crates/core/src/durable.rs",
            "pub fn write_atomic(p: &std::path::Path, b: &[u8]) -> std::io::Result<()> {\n    \
                 std::fs::write(p.join(\"chk_B.tmp\"), b)\n}\n",
        );
        let report = lint_root(&fx.root);
        assert!(report.diagnostics.is_empty(), "{:?}", messages(&report));
        assert_eq!(
            report.durability_advisories.len(),
            1,
            "{:?}",
            report
                .durability_advisories
                .iter()
                .map(|d| format!("{}:{}: {}", d.path.display(), d.line, d.message))
                .collect::<Vec<_>>()
        );
        let adv = &report.durability_advisories[0];
        assert!(adv.path.ends_with("rogue.rs"));
        assert_eq!(adv.line, 2);
        assert!(adv.message.contains("write_atomic"));
    }

    #[test]
    fn fixture_unwrap_audit_counts_non_test_code_only() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/runtime/Cargo.toml", "[package]\nname = \"rt\"\n");
        fx.write("crates/runtime/src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write(
            "crates/runtime/src/cluster.rs",
            "pub fn f(m: &M) { m.lock().expect(\"poisoned\"); }\n\
             // a comment saying .unwrap() does not count\n\
             pub fn g(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { x().unwrap(); } }\n",
        );
        let report = lint_root(&fx.root);
        assert!(report.diagnostics.is_empty(), "{:?}", messages(&report));
        assert_eq!(report.unwrap_audit.len(), 1);
        let (path, n) = &report.unwrap_audit[0];
        assert!(path.ends_with("cluster.rs"));
        assert_eq!(*n, 2, "test-module and comment occurrences must not count");
    }

    #[test]
    fn fixture_unwrap_audit_fails_a_file_over_its_ratchet() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/amr/Cargo.toml", "[package]\nname = \"amr\"\n");
        fx.write("crates/amr/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let at_ceiling = "pub fn f(m: &M) { m.lock().expect(\"poisoned\"); }\n";
        fx.write("crates/amr/src/fillpatch.rs", at_ceiling);
        assert!(lint_root(&fx.root).diagnostics.is_empty());

        let over = "pub fn g(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n";
        fx.write("crates/amr/src/fillpatch.rs", &format!("{at_ceiling}{over}"));
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("over this file's ratchet of 1"), "{msgs:?}");
        assert!(report.diagnostics[0].path.ends_with("fillpatch.rs"));
    }

    #[test]
    fn fixture_unwrap_audit_fails_an_unlisted_executed_file() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/geometry/Cargo.toml", "[package]\nname = \"geo\"\n");
        fx.write("crates/geometry/src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/bench/Cargo.toml", "[package]\nname = \"bench\"\n");
        fx.write("crates/bench/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let one = "pub fn g(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n";
        // Outside the executed crates' sources the ratchet does not look.
        fx.write("crates/bench/src/table.rs", one);
        fx.write("crates/geometry/tests/props.rs", one);
        assert!(lint_root(&fx.root).diagnostics.is_empty());

        // A file the table does not name is held at zero.
        fx.write("crates/geometry/src/shift.rs", one);
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("1 unwrap()/expect() call(s)"), "{msgs:?}");
        assert!(msgs[0].contains("over this file's ratchet of 0"), "{msgs:?}");
        assert!(report.diagnostics[0].path.ends_with("shift.rs"));
        assert_eq!(report.unwrap_audit.len(), 1);
    }

    #[test]
    fn fixture_unwrap_audit_fails_a_file_under_its_ratchet() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("crates/amr/Cargo.toml", "[package]\nname = \"amr\"\n");
        fx.write("crates/amr/src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write(
            "crates/amr/src/fillpatch.rs",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("0 unwrap()/expect() call(s)"), "{msgs:?}");
        assert!(
            msgs[0].contains("under this file's ratchet of 1"),
            "{msgs:?}"
        );
        assert!(msgs[0].contains("lower the ceiling to 0"), "{msgs:?}");
        assert!(report.diagnostics[0].path.ends_with("fillpatch.rs"));
    }

    #[test]
    fn fixture_strings_and_comments_do_not_trip_rules() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write(
            "src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             // unsafe in a comment, and todo! too\n\
             pub const DOC: &str = \"unsafe { dbg!(x) } todo!()\";\n",
        );
        let report = lint_root(&fx.root);
        assert!(report.diagnostics.is_empty(), "{:?}", messages(&report));
        assert_eq!(report.unsafe_sites, 0);
    }

    #[test]
    fn fixture_dangling_results_references_are_caught() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("docs/results/real.md", "# exists\n");
        fx.write(
            "DESIGN.md",
            "Numbers in docs/results/real.md and docs/results/ghost.md.\n\
             Also [linked](docs/results/gone.md) and the bare docs/results/ dir.\n",
        );
        // docs/ARCHITECTURE.md is a rule-7 source too: its §Subcycling
        // narrative points at docs/results/subcycle.md, which must resolve.
        fx.write(
            "docs/ARCHITECTURE.md",
            "The payoff is measured in docs/results/subcycle.md.\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 3, "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("DESIGN.md:1")
                && m.contains("`docs/results/ghost.md` is referenced but does not exist")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("DESIGN.md:2") && m.contains("docs/results/gone.md")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("ARCHITECTURE.md:1")
                && m.contains("`docs/results/subcycle.md` is referenced but does not exist")),
            "{msgs:?}"
        );
        // Writing the results file resolves the reference and only the
        // DESIGN.md danglers remain.
        fx.write("docs/results/subcycle.md", "# measured\n");
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 2, "{msgs:?}");
        assert!(
            !msgs.iter().any(|m| m.contains("subcycle.md")),
            "{msgs:?}"
        );
    }

    #[test]
    fn fixture_dangling_test_references_are_caught() {
        let fx = Fixture::new();
        fx.write("Cargo.toml", "[package]\nname = \"fx\"\n");
        fx.write("src/lib.rs", "#![forbid(unsafe_code)]\n");
        fx.write("tests/kept.rs", "");
        fx.write("crates/geo/tests/props.rs", "");
        fx.write(
            "docs/CONTRIBUTING.md",
            "Run `tests/kept.rs` and `tests/deleted.rs`.\n\
             A crate suite, crates/geo/tests/props.rs, is not a root suite.\n",
        );
        fx.write(
            "EXPERIMENTS.md",
            "Every suite: tests/*.rs, e.g. tests/gone.rs.\n",
        );
        let report = lint_root(&fx.root);
        let msgs = messages(&report);
        assert_eq!(report.diagnostics.len(), 2, "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("CONTRIBUTING.md:1")
                && m.contains("`tests/deleted.rs` is referenced but does not exist")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("EXPERIMENTS.md:1") && m.contains("tests/gone.rs")),
            "{msgs:?}"
        );
    }

    #[test]
    fn the_real_workspace_passes() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .unwrap()
            .to_path_buf();
        let report = lint_root(&root);
        assert!(
            report.diagnostics.is_empty(),
            "workspace must lint clean:\n{}",
            messages(&report).join("\n")
        );
        assert!(report.files_scanned > 50, "walk found too few files");
        assert!(report.unsafe_sites > 0, "fab::multifab unsafe sites expected");
        assert_eq!(
            report.unwrap_audit.len(),
            UNWRAP_AUDIT.len(),
            "every audited file must exist in the workspace"
        );
        for &(path, ceiling) in UNWRAP_AUDIT {
            assert!(ceiling > 0, "{path}: a file at zero needs no entry");
            assert!(
                EXECUTED_CRATE_SRC.iter().any(|p| path.starts_with(p)),
                "{path}: only executed-crate files are ratcheted"
            );
        }
    }
}
