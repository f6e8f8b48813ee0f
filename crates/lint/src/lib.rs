//! `wiscape-lint` — a workspace-wide determinism & soundness static
//! analysis for the WiScape codebase.
//!
//! WiScape's scientific claim rests on reproducibility: the
//! coordinator's zone/epoch estimates must be bit-identical for a given
//! seed regardless of worker count. `simcore::exec` guarantees that
//! *dynamically*; this tool guarantees it *statically* by mechanically
//! rejecting the source patterns that reintroduce nondeterminism — a
//! `HashMap` iteration in the coordinator, a stray `thread_rng()`, a
//! wall-clock read inside the simulation — plus two soundness rules for
//! the client-facing ingest surface.
//!
//! The rule set (see [`RULES`]):
//!
//! * **D001** — no `HashMap`/`HashSet` in deterministic crates; use
//!   `BTreeMap`/`BTreeSet` or explicit sorted access. Keyed-lookup-only
//!   caches may suppress with a justification.
//! * **D002** — no wall-clock reads (`Instant::now`, `SystemTime`,
//!   `UNIX_EPOCH`, chrono-style dates) outside the `bench` crate.
//! * **D003** — no ambient randomness (`thread_rng`, `rand::random`,
//!   `OsRng`, entropy seeding); all randomness flows through
//!   `simcore::rng` forked streams.
//! * **D004** — no raw `std::thread::spawn`/`thread::scope` outside
//!   `simcore::exec`; all parallelism goes through the deterministic
//!   executor.
//! * **D005** — no raw-sample retention on the estimation hot path
//!   (`core::coordinator`, `core::zonestats`, `core::agent`,
//!   `channel::server`): a `keep_samples`-style API or a `Vec<f64>`
//!   nested inside a keyed container is an unbounded per-sample
//!   accumulator; fold into a constant-memory sketch
//!   (`wiscape_stats::sketch`) and pull raw values offline via
//!   `wiscape_datasets::offline` instead.
//! * **S001** — every `unsafe` block and `#[allow(...)]` attribute must
//!   carry a `lint:allow(S001)` justification (and is inventoried).
//! * **S002** — no `unwrap()`/`expect()`/`panic!` on the sample-ingest
//!   surface (`core::coordinator`, `core::agent`); malformed input must
//!   degrade gracefully, per the paper's opportunistic-sampling model.
//! * **S003** — no `as` numeric casts on the wire-decode surface
//!   (`channel::codec`); a silently truncating cast on attacker-shaped
//!   bytes is how length fields become buffer confusion. Use
//!   `From`/`TryFrom` or explicit `to_le_bytes`/`from_le_bytes`.
//! * **S004** — no heap allocation inside declared alloc-free hot
//!   functions (the zero-copy decode path in `channel::codec` and the
//!   view-ingest path in `channel::server`): `Vec`, `vec!`, `String`,
//!   `format!`, `collect`, `to_vec`/`to_owned`/`to_string`, `Box`, and
//!   the owning materializers `to_msg`/`to_message` are all rejected —
//!   the whole point of the borrowed-view rewrite is that these paths
//!   touch only the frame buffer.
//! * **O001** — no ad-hoc telemetry (`eprintln!`/`println!`/`print!`/
//!   `dbg!`) on instrumented surfaces (`simcore::exec`,
//!   `core::coordinator`, `channel::{server, link, uplink,
//!   deployment}`): the `wiscape-obs` registry is the single telemetry
//!   path, so every meter stays deterministic, snapshot-visible, and
//!   silent when disabled (see `OBSERVABILITY.md`).
//! * **L001** — a `lint:allow` escape hatch without a justification (or
//!   naming an unknown rule) is itself a violation.
//!
//! Suppression syntax, on the offending line or the line above:
//!
//! ```text
//! // lint:allow(D001): keyed lookup cache, never iterated
//! ```
//!
//! The scanner is deliberately self-contained (no external parser): a
//! line-oriented, token- and brace-aware pass that strips comments and
//! string/char literals (tracking raw strings and nested block
//! comments), tracks `#[cfg(test)]` regions by brace depth, and matches
//! rules on identifier boundaries — in the spirit of the workspace's
//! vendored stand-ins.

#![forbid(unsafe_code)]

pub mod graph;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// One rule's identity and documentation.
#[derive(Debug, Clone, Serialize)]
pub struct RuleInfo {
    /// Rule code (`D001` … `L001`).
    pub code: &'static str,
    /// Diagnostic severity (all current rules are errors).
    pub severity: &'static str,
    /// One-line description shown in reports.
    pub summary: &'static str,
}

/// The rule table (codes, severities, one-line summaries).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "D001",
        severity: "error",
        summary: "HashMap/HashSet in a deterministic crate: iteration order can leak into \
                  results; use BTreeMap/BTreeSet or sorted access",
    },
    RuleInfo {
        code: "D002",
        severity: "error",
        summary: "wall-clock read outside bench: simulation outputs must be a function of \
                  (seed, inputs), never of when the run happened",
    },
    RuleInfo {
        code: "D003",
        severity: "error",
        summary: "ambient randomness: all randomness must flow through simcore::rng forked \
                  streams (seeded, schedule-free)",
    },
    RuleInfo {
        code: "D004",
        severity: "error",
        summary: "raw thread spawn outside simcore::exec: all parallelism goes through the \
                  deterministic executor",
    },
    RuleInfo {
        code: "D005",
        severity: "error",
        summary: "raw-sample retention on the estimation hot path: memory must stay \
                  O(zones), not O(samples); fold into a wiscape_stats sketch and pull raw \
                  values via wiscape_datasets::offline",
    },
    RuleInfo {
        code: "S001",
        severity: "error",
        summary: "unsafe block or #[allow(...)] without an inventoried lint:allow(S001) \
                  justification",
    },
    RuleInfo {
        code: "S002",
        severity: "error",
        summary: "unwrap()/expect()/panic! on the sample-ingest surface: malformed client \
                  input must drop-and-count, not crash the coordinator",
    },
    RuleInfo {
        code: "S003",
        severity: "error",
        summary: "`as` numeric cast on the wire-decode surface: casts silently truncate \
                  attacker-shaped values; use From/TryFrom or to_le_bytes/from_le_bytes",
    },
    RuleInfo {
        code: "S004",
        severity: "error",
        summary: "heap allocation in a declared alloc-free hot function: the zero-copy \
                  decode/ingest paths must touch only the frame buffer; borrow a view or \
                  stage outside the hot function",
    },
    RuleInfo {
        code: "O001",
        severity: "error",
        summary: "ad-hoc telemetry (eprintln!/println!/print!/dbg!) on an instrumented \
                  surface: report through the wiscape-obs registry so the meter is \
                  deterministic, snapshot-visible, and silent when disabled",
    },
    RuleInfo {
        code: "L001",
        severity: "error",
        summary: "lint:allow without a justification string (or naming an unknown rule), or \
                  total suppression count over the committed budget",
    },
    RuleInfo {
        code: "P001",
        severity: "error",
        summary: "transitive panic: a function reachable from the declared ingest/decode \
                  surface contains unwrap/expect/panic-family macros or [idx] indexing; \
                  the diagnostic carries the witness call chain",
    },
    RuleInfo {
        code: "A001",
        severity: "error",
        summary: "transitive allocation: a callee of a declared alloc-free hot function \
                  allocates; alloc-freedom must hold through the whole call chain",
    },
    RuleInfo {
        code: "T001",
        severity: "error",
        summary: "determinism taint: a wall-clock/ambient-randomness source in a \
                  quarantined file is reachable from a deterministic crate's call chain",
    },
    RuleInfo {
        code: "W001",
        severity: "error",
        summary: "panic or wall-clock read on the WAL recovery surface: crash recovery \
                  must replay any bytes found on disk into typed errors, and virtual \
                  time only — a recovery that can panic or drift with the host clock \
                  defeats the durability contract",
    },
];

/// Looks up a rule by code.
pub fn rule_info(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// How the rules apply to one file (derived from its workspace path by
/// [`scope_for`], or supplied directly for fixture tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// D001 applies: this crate's outputs must be reproducible.
    pub deterministic: bool,
    /// D002 does not apply (the bench harness measures wall time).
    pub wallclock_exempt: bool,
    /// D004 does not apply (this *is* the deterministic executor).
    pub executor_module: bool,
    /// S002 applies: client-facing ingest surface.
    pub ingest_surface: bool,
    /// D005 applies: streaming-estimation hot path that must never
    /// retain raw samples.
    pub retention_surface: bool,
    /// S003 applies: wire-decode surface parsing untrusted bytes.
    pub wire_decode_surface: bool,
    /// O001 applies: this surface reports through the `wiscape-obs`
    /// registry; ad-hoc printing would fork the telemetry path.
    pub instrumented_surface: bool,
    /// W001 applies: WAL recovery surface — any bytes found on disk
    /// must decode to typed errors (never panics), and recovery must
    /// run on virtual time only.
    pub wal_recovery_surface: bool,
    /// S004 applies inside these named functions: they are declared
    /// alloc-free hot paths (empty slice = rule off for this file).
    pub alloc_free_fns: &'static [&'static str],
    /// The whole file is test code (integration tests, benches).
    pub all_test_code: bool,
}

/// One diagnostic.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Rule code.
    pub rule: String,
    /// Severity (from the rule table).
    pub severity: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For the transitive rules (P001/A001/T001): the shortest witness
    /// call chain from an analysis root to the offending function,
    /// root symbol first. Empty for the per-file rules.
    pub witness: Vec<String>,
}

/// One `lint:allow` site (the suppression inventory).
#[derive(Debug, Clone, Serialize)]
pub struct Suppression {
    /// Rule being suppressed.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `lint:allow` comment.
    pub line: usize,
    /// The mandatory justification string.
    pub justification: String,
    /// Whether the suppression matched a finding.
    pub used: bool,
}

/// Aggregate counters for the report.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Unsuppressed violations (the CI gate: must be 0).
    pub violations: usize,
    /// `lint:allow` sites.
    pub suppressions: usize,
    /// Violations per rule code.
    pub violations_by_rule: Vec<(String, usize)>,
    /// Suppressions per rule code.
    pub suppressions_by_rule: Vec<(String, usize)>,
    /// The enforced suppression budget (L001 gate), when one applied to
    /// this run; `null` for fixture/partial runs.
    pub allow_budget: Option<usize>,
}

/// The machine-readable lint report (`wiscape-lint --json`).
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Report schema tag.
    pub schema: String,
    /// Tool name and version.
    pub tool: String,
    /// Files scanned.
    pub files_scanned: usize,
    /// The rule table.
    pub rules: Vec<RuleInfo>,
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Every `lint:allow` site, sorted by (file, line).
    pub suppressions: Vec<Suppression>,
    /// Aggregate counters.
    pub summary: Summary,
}

impl Report {
    /// Whether the tree is clean (no unsuppressed violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------
// Source stripping: comments and string/char literals out, line
// structure preserved.
// ---------------------------------------------------------------------

/// One source line after stripping: `code` has comments and literal
/// contents blanked (structure and columns preserved); `comment` holds
/// the text of plain `//` comments only — doc comments (`///`, `//!`)
/// and block comments are prose, so a `lint:allow` mentioned there is
/// documentation, not a directive.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrippedLine {
    pub(crate) code: String,
    pub(crate) comment: String,
    pub(crate) original: String,
}

pub(crate) fn strip_source(source: &str) -> Vec<StrippedLine> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        /// The bool is true for plain `//` comments (directive-bearing),
        /// false for doc comments (`///`, `//!`).
        LineComment(bool),
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = StrippedLine::default();
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment(_)) {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        cur.original.push(c);
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        let plain = !matches!(chars.get(i + 2), Some('/') | Some('!'));
                        mode = Mode::LineComment(plain);
                        cur.code.push(' ');
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        cur.code.push(' ');
                        cur.original.push('*');
                        i += 1;
                    }
                    '"' => {
                        mode = Mode::Str;
                        cur.code.push('"');
                    }
                    'r' | 'b'
                        if (i == 0 || !ident_char(chars[i - 1]))
                            && is_raw_string_start(&chars, i) =>
                    {
                        // r"..."  r#"..."#  br#"..."#  b"..."
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        for k in 1..consumed {
                            cur.original.push(chars[i + k]);
                        }
                        cur.code.push('"');
                        i += consumed - 1;
                        mode = match hashes {
                            None => Mode::Str,
                            Some(h) => Mode::RawStr(h),
                        };
                    }
                    '\'' if is_char_literal_start(&chars, i) => {
                        mode = Mode::Char;
                        cur.code.push('\'');
                    }
                    _ => cur.code.push(c),
                }
            }
            Mode::LineComment(plain) => {
                if plain {
                    cur.comment.push(c);
                }
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    cur.original.push('/');
                    i += 1;
                    if depth == 1 {
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    cur.original.push('*');
                    i += 1;
                    mode = Mode::BlockComment(depth + 1);
                }
            }
            Mode::Str => match c {
                '\\' => {
                    // Skip the escaped character (it may be a quote).
                    if let Some(&e) = chars.get(i + 1) {
                        if e != '\n' {
                            cur.original.push(e);
                            i += 1;
                        }
                    }
                }
                '"' => {
                    cur.code.push('"');
                    mode = Mode::Code;
                }
                _ => {}
            },
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    for k in 0..hashes {
                        cur.original.push(chars[i + 1 + k]);
                    }
                    cur.code.push('"');
                    i += hashes;
                    mode = Mode::Code;
                }
            }
            Mode::Char => match c {
                '\\' => {
                    if let Some(&e) = chars.get(i + 1) {
                        cur.original.push(e);
                        i += 1;
                    }
                }
                '\'' => {
                    cur.code.push('\'');
                    mode = Mode::Code;
                }
                _ => {}
            },
        }
        i += 1;
    }
    lines.push(cur);
    lines
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    raw_string_open(chars, i).1 > 1
}

/// Returns (Some(hash_count) for raw strings / None for plain, chars
/// consumed up to and including the opening quote) when a raw or byte
/// string opens at `i`; (None, 1) otherwise.
fn raw_string_open(chars: &[char], i: usize) -> (Option<usize>, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        let mut hashes = 0;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) == Some(&'"') {
            return (Some(hashes), j - i + 1);
        }
        return (None, 1);
    }
    if chars[i] == 'b' && chars.get(j) == Some(&'"') {
        return (None, j - i + 1);
    }
    (None, 1)
}

fn closes_raw_string(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal (`'a'`, `'\n'`, `'∞'`) from a lifetime
/// (`'a`, `'static`).
fn is_char_literal_start(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if c != '\'' => chars.get(i + 2) == Some(&'\''),
        _ => false,
    }
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------
// Identifier matching.
// ---------------------------------------------------------------------

/// Iterates (byte offset, identifier) over a stripped code line.
pub(crate) fn idents(line: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = line[i..].chars().next().unwrap_or(' ');
        if ident_char(c) && !c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < bytes.len() {
                let cj = line[j..].chars().next().unwrap_or(' ');
                if !ident_char(cj) {
                    break;
                }
                j += cj.len_utf8();
            }
            out.push((start, &line[start..j]));
            i = j;
        } else {
            i += c.len_utf8();
        }
    }
    out.into_iter()
}

pub(crate) fn has_ident(line: &str, name: &str) -> bool {
    idents(line).any(|(_, id)| id == name)
}

/// Numeric primitive type names an `as` cast can silently truncate or
/// round into (S003 targets).
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Finds `<expr> as <numeric-type>` on a stripped code line, returning
/// the target type of the first such cast. Identifier-pair scanning: an
/// `as` keyword immediately followed by a numeric primitive. `use x as
/// y` renames never target primitives, so they cannot false-positive.
fn numeric_as_cast(line: &str) -> Option<&'static str> {
    let ids: Vec<(usize, &str)> = idents(line).collect();
    for pair in ids.windows(2) {
        if pair[0].1 == "as" {
            if let Some(t) = NUMERIC_TYPES.iter().find(|&&t| t == pair[1].1) {
                return Some(t);
            }
        }
    }
    None
}

/// Detects a `Vec<f64>` nested inside another generic type on a
/// stripped code line — `BTreeMap<Key, Vec<f64>>`, `Vec<Vec<f64>>` —
/// the shape of a per-key raw-sample accumulator (D005). A top-level
/// `Vec<f64>` (a wire payload field, a transient local) is *not*
/// matched: the rule targets unbounded keyed retention, not buffers.
fn nested_vec_f64(line: &str) -> bool {
    for (off, id) in idents(line) {
        if id != "Vec" {
            continue;
        }
        let rest = line[off + id.len()..].trim_start();
        let Some(inner) = rest.strip_prefix('<') else {
            continue;
        };
        let Some(tail) = inner.trim_start().strip_prefix("f64") else {
            continue;
        };
        if !tail.trim_start().starts_with('>') {
            continue;
        }
        // Inside an open generic? Count unmatched `<` before this Vec,
        // ignoring the `>` of `->` / `=>` arrows.
        let before = line[..off].replace("->", "  ").replace("=>", "  ");
        let depth = before.chars().filter(|&c| c == '<').count() as i64
            - before.chars().filter(|&c| c == '>').count() as i64;
        if depth > 0 {
            return true;
        }
    }
    false
}

/// Matches `first :: second` on identifier boundaries (whitespace
/// tolerated around the `::`).
pub(crate) fn has_path(line: &str, first: &str, second: &str) -> bool {
    for (off, id) in idents(line) {
        if id != first {
            continue;
        }
        let rest = line[off + id.len()..].trim_start();
        if let Some(after) = rest.strip_prefix("::") {
            let after = after.trim_start();
            if let Some(tail) = after.strip_prefix(second) {
                let end = tail.chars().next();
                if !end.map(ident_char).unwrap_or(false) {
                    return true;
                }
            }
        }
    }
    false
}

/// Detects an `#[allow(...)]` / `#![allow(...)]` attribute on a stripped
/// code line.
fn has_allow_attr(line: &str) -> bool {
    for (off, id) in idents(line) {
        if id != "allow" {
            continue;
        }
        let before: String = line[..off].chars().rev().collect::<String>();
        let mut b = before.trim_start().chars();
        if b.next() == Some('[') {
            let rest: String = b.collect();
            let rest = rest.trim_start();
            if rest.starts_with('#') || rest.starts_with("!#") {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Test-region tracking.
// ---------------------------------------------------------------------

/// Marks each line that belongs to a `#[cfg(test)]` item (module, fn,
/// or single statement), by brace depth.
pub(crate) fn test_regions(lines: &[StrippedLine]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth = 0usize;
    // Armed: a `#[cfg(test)]` was seen at `arm_depth` and we are waiting
    // for the item's opening `{` (region) or a `;` (single item).
    let mut armed_at: Option<usize> = None;
    // Active regions: depths at which a test region closes.
    let mut region_until: Vec<usize> = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let code = &line.code;
        if code.contains("cfg(test)") || code.contains("cfg(all(test") {
            armed_at = Some(depth);
            flags[n] = true;
        }
        if !region_until.is_empty() || armed_at.is_some() {
            flags[n] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(d) = armed_at {
                        if depth == d {
                            region_until.push(d);
                            armed_at = None;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if region_until.last() == Some(&depth) {
                        region_until.pop();
                    }
                }
                ';' => {
                    if let Some(d) = armed_at {
                        if depth == d && region_until.is_empty() {
                            armed_at = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// Marks each line belonging to the body (signature through closing
/// brace) of any `fn` whose name is in `names`, by brace depth — the
/// same tracking as [`test_regions`], armed on `fn <name>` instead of
/// `#[cfg(test)]`.
fn named_fn_regions(lines: &[StrippedLine], names: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    if names.is_empty() {
        return flags;
    }
    let mut depth = 0usize;
    let mut armed_at: Option<usize> = None;
    let mut region_until: Vec<usize> = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let code = &line.code;
        let ids: Vec<(usize, &str)> = idents(code).collect();
        for pair in ids.windows(2) {
            if pair[0].1 == "fn" && names.contains(&pair[1].1) {
                armed_at = Some(depth);
            }
        }
        if !region_until.is_empty() || armed_at.is_some() {
            flags[n] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(d) = armed_at {
                        if depth == d {
                            region_until.push(d);
                            armed_at = None;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if region_until.last() == Some(&depth) {
                        region_until.pop();
                    }
                }
                ';' => {
                    // A bodyless signature (trait method declaration).
                    if let Some(d) = armed_at {
                        if depth == d && region_until.is_empty() {
                            armed_at = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// Identifiers whose presence in an alloc-free hot function means a heap
/// allocation (or an owning materialization) happened on the zero-copy
/// path (S004 targets). `to_msg`/`to_message` are this workspace's
/// view-to-owned materializers — allocation by construction.
pub(crate) const ALLOC_TOKENS: &[&str] = &[
    "Vec",
    "vec",
    "String",
    "format",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "Box",
    "to_msg",
    "to_message",
];

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AllowSite {
    line: usize,
    rule: String,
    justification: String,
    used: bool,
}

/// Parses `lint:allow(RULE): justification` from a comment, returning
/// `(rule, justification)`; an empty justification is reported as such.
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let after = &rest[close + 1..];
    let justification = after
        .strip_prefix(':')
        .map(|j| j.trim().to_string())
        .unwrap_or_default();
    Some((rule, justification))
}

// ---------------------------------------------------------------------
// The per-file pass.
// ---------------------------------------------------------------------

/// Accumulates results across files.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Unsuppressed violations.
    pub violations: Vec<Violation>,
    /// All suppression sites.
    pub suppressions: Vec<Suppression>,
    /// Files scanned.
    pub files_scanned: usize,
}

fn push_violation(out: &mut Vec<(usize, String, String)>, line: usize, rule: &str, msg: String) {
    out.push((line, rule.to_string(), msg));
}

/// Lints one file's source under `scope`, appending to `outcome`.
/// `rel_path` is the workspace-relative path used in diagnostics.
pub fn lint_source(rel_path: &str, source: &str, scope: &FileScope, outcome: &mut Outcome) {
    outcome.files_scanned += 1;
    let lines = strip_source(source);
    let in_test = test_regions(&lines);
    let in_alloc_free = named_fn_regions(&lines, scope.alloc_free_fns);

    // Collect lint:allow sites first (they can suppress findings on
    // their own line or the line below).
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut findings: Vec<(usize, String, String)> = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        if let Some((rule, justification)) = parse_allow(&line.comment) {
            let lineno = n + 1;
            if rule_info(&rule).is_none() {
                push_violation(
                    &mut findings,
                    lineno,
                    "L001",
                    format!("lint:allow names unknown rule '{rule}'"),
                );
            } else if justification.is_empty() {
                push_violation(
                    &mut findings,
                    lineno,
                    "L001",
                    format!("lint:allow({rule}) requires a justification: `lint:allow({rule}): <why this is sound>`"),
                );
            } else {
                allows.push(AllowSite {
                    line: lineno,
                    rule,
                    justification,
                    used: false,
                });
            }
        }
    }

    for (n, line) in lines.iter().enumerate() {
        let lineno = n + 1;
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }
        let test = scope.all_test_code || in_test[n];

        if scope.deterministic && !test {
            for name in ["HashMap", "HashSet"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "D001",
                        format!(
                            "{name} in a deterministic crate: iteration order can leak into \
                             results; use BTree{} or sorted access",
                            &name[4..]
                        ),
                    );
                }
            }
        }
        if !scope.wallclock_exempt && !test {
            for name in ["Instant", "SystemTime", "UNIX_EPOCH", "chrono"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "D002",
                        format!(
                            "wall-clock read ({name}): outputs must be a function of \
                             (seed, inputs), not of when the run happened"
                        ),
                    );
                }
            }
        }
        {
            // D003 applies everywhere, tests included: a test drawing
            // ambient entropy is irreproducible by construction.
            for name in ["thread_rng", "OsRng", "from_entropy", "getrandom"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "D003",
                        format!(
                            "ambient randomness ({name}): derive a StreamRng fork from \
                             the run seed instead"
                        ),
                    );
                }
            }
            if has_path(code, "rand", "random") {
                push_violation(
                    &mut findings,
                    lineno,
                    "D003",
                    "ambient randomness (rand::random): derive a StreamRng fork from the \
                     run seed instead"
                        .to_string(),
                );
            }
        }
        if !scope.executor_module {
            for (first, second) in [("thread", "spawn"), ("thread", "scope")] {
                if has_path(code, first, second) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "D004",
                        format!(
                            "raw {first}::{second}: route parallelism through \
                             simcore::exec::par_map so worker count cannot change results"
                        ),
                    );
                }
            }
            for name in ["rayon", "crossbeam"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "D004",
                        format!("{name} thread pool: use simcore::exec instead"),
                    );
                }
            }
        }
        if !test {
            if has_ident(code, "unsafe") {
                push_violation(
                    &mut findings,
                    lineno,
                    "S001",
                    "unsafe block requires an inventoried justification: \
                     lint:allow(S001): <why this is sound>"
                        .to_string(),
                );
            }
            if has_allow_attr(code) {
                push_violation(
                    &mut findings,
                    lineno,
                    "S001",
                    "#[allow(...)] requires an inventoried justification: \
                     lint:allow(S001): <why the lint does not apply>"
                        .to_string(),
                );
            }
        }
        if scope.retention_surface && !test {
            if has_ident(code, "keep_samples") {
                push_violation(
                    &mut findings,
                    lineno,
                    "D005",
                    "keep_samples-style raw retention on the estimation hot path: fold \
                     into a constant-memory sketch (wiscape_stats::sketch) instead"
                        .to_string(),
                );
            }
            if nested_vec_f64(code) {
                push_violation(
                    &mut findings,
                    lineno,
                    "D005",
                    "keyed Vec<f64> accumulator on the estimation hot path: memory must \
                     stay O(zones), not O(samples); fold into a sketch and pull raw \
                     values via wiscape_datasets::offline"
                        .to_string(),
                );
            }
        }
        if scope.ingest_surface && !test {
            for name in ["unwrap", "expect", "panic"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "S002",
                        format!(
                            "{name} on the sample-ingest surface: malformed client input \
                             must drop-and-count, not crash the coordinator"
                        ),
                    );
                }
            }
        }
        if scope.wal_recovery_surface && !test {
            for name in ["unwrap", "expect", "panic", "todo", "unimplemented"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "W001",
                        format!(
                            "{name} on the WAL recovery surface: whatever bytes a crash \
                             left on disk must replay into a typed WalError, never a \
                             panic"
                        ),
                    );
                }
            }
            for name in ["Instant", "SystemTime", "UNIX_EPOCH"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "W001",
                        format!(
                            "wall-clock read ({name}) on the WAL recovery surface: \
                             recovery must be a function of the log bytes and virtual \
                             time only, or replay diverges from the original run"
                        ),
                    );
                }
            }
        }
        if scope.instrumented_surface && !test {
            for name in ["eprintln", "println", "print", "eprint", "dbg"] {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "O001",
                        format!(
                            "ad-hoc telemetry ({name}!) on an instrumented surface: \
                             report through the wiscape-obs registry instead \
                             (counter/gauge/histogram/span; see OBSERVABILITY.md)"
                        ),
                    );
                }
            }
        }
        if in_alloc_free[n] && !test {
            for name in ALLOC_TOKENS {
                if has_ident(code, name) {
                    push_violation(
                        &mut findings,
                        lineno,
                        "S004",
                        format!(
                            "heap allocation ({name}) in a declared alloc-free hot \
                             function: the zero-copy decode/ingest path must touch only \
                             the frame buffer; borrow a view or stage outside this \
                             function"
                        ),
                    );
                }
            }
        }
        if scope.wire_decode_surface && !test {
            if let Some(target) = numeric_as_cast(code) {
                push_violation(
                    &mut findings,
                    lineno,
                    "S003",
                    format!(
                        "`as {target}` cast on the wire-decode surface: casts silently \
                         truncate attacker-shaped values; use From/TryFrom or \
                         to_le_bytes/from_le_bytes"
                    ),
                );
            }
        }
    }

    // Apply suppressions: a lint:allow on line N covers findings for its
    // rule on lines N and N+1.
    for (lineno, rule, message) in findings {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == rule && (a.line == lineno || a.line + 1 == lineno));
        match suppressed {
            Some(site) => site.used = true,
            None => {
                let info = rule_info(&rule).map(|r| r.severity).unwrap_or("error");
                outcome.violations.push(Violation {
                    rule,
                    severity: info.to_string(),
                    file: rel_path.to_string(),
                    line: lineno,
                    message,
                    snippet: lines[lineno - 1].original.trim().to_string(),
                    witness: Vec::new(),
                });
            }
        }
    }
    for a in allows {
        outcome.suppressions.push(Suppression {
            rule: a.rule,
            file: rel_path.to_string(),
            line: a.line,
            justification: a.justification,
            used: a.used,
        });
    }
}

// ---------------------------------------------------------------------
// Workspace walking and scoping.
// ---------------------------------------------------------------------

/// Crates whose outputs feed published results and must therefore be
/// reproducible (D001 scope). `bench` (measures wall time by design)
/// and `lint` (this tool) are excluded.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "geo",
    "stats",
    "obs",
    "simcore",
    "simnet",
    "mobility",
    "datasets",
    "core",
    "workload",
    "apps",
    "channel",
    "wal",
    "region",
    "experiments",
];

/// The declared alloc-free hot functions, by workspace-relative file:
/// S004 checks each body for allocation tokens, and A001 roots its
/// transitive call-graph proof at them.
const ALLOC_FREE_FNS: &[(&str, &[&str])] = &[
    (
        "crates/channel/src/codec.rs",
        &[
            "crc32",
            "open_frame",
            "decode_body_ref",
            "decode_prefix_ref",
            "next_frame",
        ],
    ),
    (
        "crates/channel/src/server.rs",
        &["handle_report_view", "commit_view"],
    ),
];

/// Derives a file's rule scope from its workspace-relative path.
pub fn scope_for(rel: &Path) -> FileScope {
    let parts: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let crate_name: &str = match parts.as_slice() {
        ["crates", name, ..] => name,
        // Root package (src/, examples/, tests/): deterministic.
        _ => "wiscape",
    };
    let all_test_code = parts.contains(&"tests") || parts.contains(&"benches");
    FileScope {
        deterministic: (DETERMINISTIC_CRATES.contains(&crate_name) || crate_name == "wiscape")
            && !all_test_code,
        // `obs::timing` is the quarantined wall-clock surface: the one
        // module allowed to read `Instant`, feeding the snapshot's
        // byte-identity-exempt `timing` section.
        wallclock_exempt: crate_name == "bench" || rel == Path::new("crates/obs/src/timing.rs"),
        executor_module: rel == Path::new("crates/simcore/src/exec.rs"),
        ingest_surface: rel == Path::new("crates/core/src/coordinator.rs")
            || rel == Path::new("crates/core/src/agent.rs"),
        retention_surface: rel == Path::new("crates/core/src/coordinator.rs")
            || rel == Path::new("crates/core/src/zonestats.rs")
            || rel == Path::new("crates/core/src/agent.rs")
            || rel == Path::new("crates/channel/src/server.rs"),
        wire_decode_surface: rel == Path::new("crates/channel/src/codec.rs"),
        // Every non-test source file of wiscape-wal: the crate exists to
        // turn crash leftovers into typed errors, so the whole surface
        // is held to the panic-free + wall-clock-free recovery contract.
        wal_recovery_surface: crate_name == "wal" && !all_test_code,
        alloc_free_fns: ALLOC_FREE_FNS
            .iter()
            .find(|(file, _)| rel == Path::new(file))
            .map_or(&[], |&(_, fns)| fns),
        instrumented_surface: rel == Path::new("crates/simcore/src/exec.rs")
            || rel == Path::new("crates/core/src/coordinator.rs")
            || rel == Path::new("crates/channel/src/server.rs")
            || rel == Path::new("crates/channel/src/link.rs")
            || rel == Path::new("crates/channel/src/uplink.rs")
            || rel == Path::new("crates/channel/src/deployment.rs"),
        all_test_code,
    }
}

/// Directories never scanned: build output, the offline dependency
/// stand-ins (exempt by design — they are API-compatibility shims, not
/// measurement code), VCS metadata, and the lint fixtures (intentional
/// violations).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "vendor" | ".git" | "results" | "fixtures")
}

/// All `.rs` files to lint under `root`, sorted for deterministic
/// reports.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !skip_dir(name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The committed suppression budget (the L001 gate): the exact number
/// of inventoried `lint:allow` sites in the tree. Adding a suppression
/// without raising this (and defending the raise in review) fails the
/// workspace lint.
pub const ALLOW_BUDGET: usize = 10;

/// Builds the interprocedural-analysis configuration for the real
/// workspace: P001 roots are the ingest/decode surface (coordinator,
/// agent, channel server, the whole wire codec, the shard router /
/// merge surface, and the WAL recovery surface), A001
/// roots are the declared S004 alloc-free hot functions, T001 roots
/// are every deterministic-crate file, and the taint sources are the
/// wall-clock quarantine surfaces (`bench`, `obs::timing`). `files` is
/// the scanned `(rel_path, source)` list — only its paths are
/// consulted.
pub fn workspace_graph_config(files: &[(String, String)]) -> graph::GraphConfig {
    let mut deterministic_files = Vec::new();
    let mut taint_source_files = Vec::new();
    let mut panic_boundaries = Vec::new();
    let mut wal_panic_roots = Vec::new();
    let mut wal_panic_local = Vec::new();
    for (rel, _) in files {
        let scope = scope_for(Path::new(rel));
        if scope.deterministic {
            deterministic_files.push(rel.clone());
        }
        if scope.wallclock_exempt {
            taint_source_files.push(rel.clone());
        }
        // The WAL recovery surface joins the P001 roots: a crash can
        // leave arbitrary bytes on disk, so everything reachable from
        // the recovery path must be transitively panic-free. W001
        // already enforces the local unwrap/expect/panic sites, so the
        // files are also panic-local (P001 reports indexing and
        // transitive panics only).
        if scope.wal_recovery_surface {
            wal_panic_roots.push(graph::FnSpec::file(rel));
            wal_panic_local.push(rel.clone());
        }
        if rel.starts_with("crates/simnet/") {
            panic_boundaries.push((
                rel.clone(),
                "simulator-side field evaluation: agents call probe_train only inside \
                 the simulation harness, never on deployed-client input; the SoA \
                 scratch-buffer indexing there is bounds-established at batch setup"
                    .to_string(),
            ));
        }
    }
    // The shard router and merge tier join the P001 roots: routing a
    // report to the wrong shard is recoverable, but a panic inside the
    // router or the deterministic merge drops the whole ingest stream.
    // The analytics layer joins them too: the regionalizer and the
    // localizers run inside the coordinator's publish path over
    // arbitrary exported state, so a panic there takes down the
    // coordinator exactly like a router panic would.
    let mut panic_roots = vec![
        graph::FnSpec::file("crates/core/src/coordinator.rs"),
        graph::FnSpec::file("crates/core/src/agent.rs"),
        graph::FnSpec::file("crates/core/src/shard.rs"),
        graph::FnSpec::file("crates/channel/src/server.rs"),
        graph::FnSpec::file("crates/channel/src/codec.rs"),
        graph::FnSpec::file("crates/region/src/quadtree.rs"),
        graph::FnSpec::file("crates/region/src/hotspot.rs"),
    ];
    panic_roots.extend(wal_panic_roots);
    let mut panic_local_files = vec![
        "crates/core/src/coordinator.rs".to_string(),
        "crates/core/src/agent.rs".to_string(),
        "crates/region/src/quadtree.rs".to_string(),
        "crates/region/src/hotspot.rs".to_string(),
    ];
    panic_local_files.extend(wal_panic_local);
    graph::GraphConfig {
        panic_roots,
        panic_local_files,
        panic_boundaries,
        alloc_roots: ALLOC_FREE_FNS
            .iter()
            .flat_map(|&(file, fns)| fns.iter().map(move |f| graph::FnSpec::func(file, f)))
            .collect(),
        deterministic_files,
        taint_source_files,
    }
}

/// Merges graph findings into an outcome, honoring `lint:allow`
/// suppressions already collected by the per-file pass (same rule, on
/// the site's line or the line above). `snippet_of(file, line)` supplies
/// the original source line for the diagnostic.
pub fn apply_graph_findings(
    findings: Vec<graph::GraphFinding>,
    snippet_of: &dyn Fn(&str, usize) -> String,
    outcome: &mut Outcome,
) {
    for f in findings {
        let suppressed = outcome.suppressions.iter_mut().find(|s| {
            s.rule == f.rule && s.file == f.file && (s.line == f.line || s.line + 1 == f.line)
        });
        match suppressed {
            Some(site) => site.used = true,
            None => outcome.violations.push(Violation {
                rule: f.rule.to_string(),
                severity: "error".to_string(),
                snippet: snippet_of(&f.file, f.line),
                file: f.file,
                line: f.line,
                message: f.message,
                witness: f.witness,
            }),
        }
    }
}

/// Lints the whole workspace rooted at `root`: the per-file rules plus
/// the interprocedural P001/A001/T001 pass, under the committed
/// suppression budget. Returns the report and the call-graph document.
pub fn lint_workspace_full(root: &Path) -> std::io::Result<(Report, graph::CallGraphDoc)> {
    lint_workspace_with_budget(root, ALLOW_BUDGET)
}

/// [`lint_workspace_full`] with an explicit suppression budget
/// (`lint --max-allows N`).
pub fn lint_workspace_with_budget(
    root: &Path,
    max_allows: usize,
) -> std::io::Result<(Report, graph::CallGraphDoc)> {
    let mut outcome = Outcome::default();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let source = std::fs::read_to_string(&path)?;
        let scope = scope_for(&rel);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        lint_source(&rel_str, &source, &scope, &mut outcome);
        if !scope.all_test_code {
            sources.push((rel_str, source));
        }
    }
    let config = workspace_graph_config(&sources);
    let index = graph::build_index(&sources, &config);
    let findings = graph::analyze(&index, &config);
    let by_file: BTreeMap<&str, &str> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let snippet_of = |file: &str, line: usize| -> String {
        by_file
            .get(file)
            .and_then(|s| s.lines().nth(line.saturating_sub(1)))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    apply_graph_findings(findings, &snippet_of, &mut outcome);
    let doc = graph::callgraph_doc(&index, &config);
    Ok((build_report_with_budget(outcome, Some(max_allows)), doc))
}

/// Lints the whole workspace rooted at `root` (report only).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    lint_workspace_full(root).map(|(report, _)| report)
}

/// Builds the final report from an accumulated outcome (no budget gate;
/// used by fixture tests that exercise individual rules).
pub fn build_report(outcome: Outcome) -> Report {
    build_report_with_budget(outcome, None)
}

/// Builds the final report, enforcing the suppression budget when one
/// is given: more `lint:allow` sites than `budget` is itself an L001
/// violation (anchored to the workspace, not a file), so suppressions
/// cannot silently accumulate.
pub fn build_report_with_budget(mut outcome: Outcome, budget: Option<usize>) -> Report {
    if let Some(b) = budget {
        if outcome.suppressions.len() > b {
            outcome.violations.push(Violation {
                rule: "L001".to_string(),
                severity: "error".to_string(),
                file: "(workspace)".to_string(),
                line: 0,
                message: format!(
                    "suppression budget exceeded: {} lint:allow site(s) against a committed \
                     budget of {b}; remove a suppression or raise ALLOW_BUDGET (and defend \
                     the raise in review)",
                    outcome.suppressions.len()
                ),
                snippet: String::new(),
                witness: Vec::new(),
            });
        }
    }
    outcome
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    outcome
        .suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let mut vby: BTreeMap<String, usize> = BTreeMap::new();
    for v in &outcome.violations {
        *vby.entry(v.rule.clone()).or_default() += 1;
    }
    let mut sby: BTreeMap<String, usize> = BTreeMap::new();
    for s in &outcome.suppressions {
        *sby.entry(s.rule.clone()).or_default() += 1;
    }
    Report {
        schema: "wiscape-lint/2".to_string(),
        tool: format!("wiscape-lint {}", env!("CARGO_PKG_VERSION")),
        files_scanned: outcome.files_scanned,
        rules: RULES.to_vec(),
        summary: Summary {
            violations: outcome.violations.len(),
            suppressions: outcome.suppressions.len(),
            violations_by_rule: vby.into_iter().collect(),
            suppressions_by_rule: sby.into_iter().collect(),
            allow_budget: budget,
        },
        violations: outcome.violations,
        suppressions: outcome.suppressions,
    }
}

/// Renders human-readable diagnostics (one line per violation plus a
/// summary), the default CLI output.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: {} {}: {}\n    {}\n",
            v.file, v.line, v.severity, v.rule, v.message, v.snippet
        ));
        if !v.witness.is_empty() {
            out.push_str(&format!("    witness: {}\n", v.witness.join(" -> ")));
        }
    }
    out.push_str(&format!(
        "wiscape-lint: {} file(s), {} violation(s), {} suppression(s)\n",
        report.files_scanned, report.summary.violations, report.summary.suppressions,
    ));
    for s in &report.suppressions {
        out.push_str(&format!(
            "    allow {} at {}:{} — {}\n",
            s.rule, s.file, s.line, s.justification
        ));
    }
    out
}
