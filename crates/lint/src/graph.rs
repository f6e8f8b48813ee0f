//! Interprocedural analysis: the workspace call graph and the
//! transitive rules P001 / A001 / T001.
//!
//! The per-file rules in the crate root inspect one function at a time;
//! a helper three calls deep can still `unwrap()`, allocate, or read
//! the wall clock without tripping anything. This module closes that
//! gap with a deliberately *conservative* whole-workspace pass:
//!
//! 1. **Indexing.** Every `fn` outside test code is indexed as a
//!    module-path-qualified symbol (`core::coordinator::Coordinator::
//!    ingest_samples`), with a brace-aware body extraction built on the
//!    same [`crate::strip_source`] scanner the local rules use.
//! 2. **Call graph.** Each body yields call sites: bare calls resolve
//!    to same-module functions first (then any function of that name),
//!    path-qualified calls resolve by path-suffix match, and method
//!    calls (`.foo(...)`) resolve by *name suffix* to every indexed
//!    method named `foo` — the ambiguity-widening fallback. Calls that
//!    resolve to nothing are assumed to target `std`/vendored code and
//!    fall outside the perimeter (documented in `DESIGN.md`).
//! 3. **Facts.** Each body is scanned for panic sources (`unwrap(`,
//!    `expect(`, `panic!`/`unreachable!`/`todo!`/`unimplemented!`,
//!    `[idx]` indexing and slicing), allocation tokens (the S004 set),
//!    and determinism taint (wall-clock / ambient-randomness tokens in
//!    files that are *locally exempt* from D002, i.e. the quarantined
//!    timing surfaces).
//! 4. **Propagation.** One multi-source BFS per rule, rooted at the
//!    declared surface, with deterministic tie-breaking (roots and
//!    neighbours visited in sorted symbol order) so the shortest
//!    **witness path** from a root to each offending site is stable
//!    across runs. Every finding carries that chain.
//!
//! The graph itself serializes as `results/CALLGRAPH.json` via
//! [`CallGraphDoc`], making node/edge counts regression-visible.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::Serialize;

use crate::{idents, strip_source, test_regions};

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Selects functions by file (and optionally by name) — used to declare
/// analysis roots and trusted boundaries.
#[derive(Debug, Clone)]
pub struct FnSpec {
    /// Workspace-relative file path.
    pub file: String,
    /// Function name; `None` selects every non-test function in `file`.
    pub func: Option<String>,
}

impl FnSpec {
    /// Every non-test function defined in `file`.
    pub fn file(file: &str) -> Self {
        Self {
            file: file.to_string(),
            func: None,
        }
    }

    /// The single function `func` in `file`.
    pub fn func(file: &str, func: &str) -> Self {
        Self {
            file: file.to_string(),
            func: Some(func.to_string()),
        }
    }

    fn matches(&self, file: &str, name: &str) -> bool {
        self.file == file && self.func.as_deref().map(|f| f == name).unwrap_or(true)
    }
}

/// Declares the analysis surface: which functions root each transitive
/// rule, where local rules already cover a site, and which files sit
/// outside the verified perimeter.
#[derive(Debug, Clone, Default)]
pub struct GraphConfig {
    /// P001 roots: the ingest/decode surface.
    pub panic_roots: Vec<FnSpec>,
    /// Files whose `unwrap`/`expect`/panic-macro sites are already
    /// enforced locally by S002 — P001 skips those kinds there (it
    /// still reports indexing/slicing, which S002 does not cover).
    pub panic_local_files: Vec<String>,
    /// Trusted-boundary files: P001 traversal stops at (never enters)
    /// functions defined in these files. Each entry carries a
    /// justification that is rendered into the call-graph document, so
    /// boundary growth is as visible as suppression growth.
    pub panic_boundaries: Vec<(String, String)>,
    /// A001 roots: the declared alloc-free hot functions (the S004
    /// set). Sites inside the roots themselves are S004's business;
    /// A001 reports allocation in everything they reach.
    pub alloc_roots: Vec<FnSpec>,
    /// T001 roots: files whose outputs must be deterministic (the D001
    /// crate set).
    pub deterministic_files: Vec<String>,
    /// T001 sources: files locally exempt from D002 (wall-clock
    /// quarantine surfaces). Clock/randomness tokens anywhere else are
    /// already local D002/D003 violations.
    pub taint_source_files: Vec<String>,
}

// ---------------------------------------------------------------------
// The function index.
// ---------------------------------------------------------------------

/// Kinds of panic source (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `unwrap(` / `expect(`.
    UnwrapExpect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `x[i]` / `x[a..b]` indexing or slicing.
    Index,
}

/// One fact site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// The offending token, for the diagnostic.
    pub token: String,
}

/// A call site before resolution.
#[derive(Debug, Clone)]
struct CallSite {
    line: usize,
    /// Path segments, last = callee name (`Self` already substituted).
    path: Vec<String>,
    /// `.name(...)` receiver syntax.
    method: bool,
    /// Argument count when the argument list closes on the call line
    /// and contains no closure bars; `None` = unknown (no filtering).
    args: Option<usize>,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Module-path-qualified symbol (unique; `@line` suffix on the rare
    /// collision).
    pub symbol: String,
    /// Bare function name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Non-`self` parameter count when the signature parses cleanly;
    /// `None` = unknown (widening skips the arity filter).
    pub params: Option<usize>,
    /// Panic sources in the body.
    pub panic_sites: Vec<(Site, PanicKind)>,
    /// Allocation tokens in the body (the S004 set).
    pub alloc_sites: Vec<Site>,
    /// Wall-clock / ambient-randomness tokens in the body (recorded
    /// only for files in `taint_source_files`).
    pub taint_sites: Vec<Site>,
    calls: Vec<CallSite>,
}

/// The indexed workspace: functions plus resolved edges.
#[derive(Debug, Clone, Default)]
pub struct FnIndex {
    /// All indexed functions, sorted by symbol.
    pub fns: Vec<FnDef>,
    /// Resolved edges `(caller, callee, line, kind)` by index into
    /// `fns`, deduplicated, sorted.
    pub edges: Vec<(usize, usize, usize, EdgeKind)>,
    /// Files indexed.
    pub files_indexed: usize,
}

/// How a call edge was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Bare or path-qualified call.
    Direct,
    /// `.name(...)` resolved by suffix (possibly widened).
    Method,
}

impl EdgeKind {
    fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Direct => "direct",
            EdgeKind::Method => "method",
        }
    }
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Rust keywords and call-shaped non-calls the extractor skips.
fn is_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "use"
            | "pub"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "mod"
            | "where"
            | "unsafe"
            | "dyn"
            | "break"
            | "continue"
            | "await"
            | "static"
            | "const"
            | "type"
    )
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names the ambiguity-widening fallback never resolves: these
/// are overwhelmingly `std` numeric/float intrinsics (`x.round()`,
/// `a.min(b)`), and widening them to same-named workspace methods
/// (`ChannelDeployment::round`, the sketch `min`/`max` accessors) wires
/// the whole driver loop into every function that does float math.
/// Path-qualified calls (`Type::round(x)`) still resolve normally, so a
/// workspace method shadowed here stays reachable under its explicit
/// path. The precision/soundness trade is documented in `DESIGN.md`.
const PRIMITIVE_METHODS: &[&str] = &[
    "round",
    "floor",
    "ceil",
    "abs",
    "sqrt",
    "min",
    "max",
    "clamp",
    "exp",
    "ln",
    "log10",
    "log2",
    "powi",
    "powf",
    "mul_add",
    "hypot",
    "signum",
    "rem_euclid",
    "div_euclid",
    "to_le_bytes",
    "to_be_bytes",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "pow",
    "is_nan",
    "is_finite",
    "total_cmp",
    "partial_cmp",
];
const CLOCK_TOKENS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH", "chrono"];
const RAND_TOKENS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// Derives the module path for a workspace-relative file:
/// `crates/core/src/coordinator.rs` → `core::coordinator`,
/// `src/lib.rs` → `wiscape`, fixture paths analogously.
fn module_path_of(rel: &str) -> String {
    let no_ext = rel.strip_suffix(".rs").unwrap_or(rel);
    let mut parts: Vec<&str> = no_ext
        .split('/')
        .filter(|p| !p.is_empty() && *p != "crates" && *p != "src")
        .collect();
    while matches!(
        parts.last().copied(),
        Some("lib") | Some("main") | Some("mod")
    ) {
        parts.pop();
    }
    if parts.is_empty() {
        "wiscape".to_string()
    } else {
        parts.join("::")
    }
}

/// Extracts the impl/trait target type name from a header line like
/// `impl<'a> Iterator for SampleIter<'a> {` → `SampleIter`.
fn impl_target(code: &str) -> Option<String> {
    let ids: Vec<(usize, &str)> = idents(code).collect();
    let kw = ids
        .iter()
        .position(|(_, id)| *id == "impl" || *id == "trait")?;
    // `trait Name` — the name directly follows.
    if ids.get(kw).map(|(_, id)| *id) == Some("trait") {
        return ids.get(kw + 1).map(|(_, id)| id.to_string());
    }
    // For `impl ... for Path<...>`, the target is the last path segment
    // after `for`; otherwise the last path segment of the type after
    // the (optional) generic parameter list.
    let after_for = ids
        .iter()
        .position(|(off, id)| *id == "for" && !prefixed_by_quote(code, *off));
    let from = match after_for {
        Some(f) if f > kw => f + 1,
        _ => kw + 1,
    };
    let mut target: Option<String> = None;
    let mut angle: i64 = 0;
    let mut prev_end = 0usize;
    for (off, id) in ids.iter().skip(from) {
        // Track angle depth between identifiers so generic arguments
        // (`Bar<T>`'s `T`) are skipped.
        for c in code[prev_end..*off].chars() {
            match c {
                '<' => angle += 1,
                '>' => angle -= 1,
                '{' => return target,
                _ => {}
            }
        }
        prev_end = off + id.len();
        if angle > 0 || prefixed_by_quote(code, *off) || is_keyword(id) {
            continue;
        }
        target = Some(id.to_string());
    }
    target
}

/// Whether the identifier at `off` is a lifetime (`'a`).
fn prefixed_by_quote(code: &str, off: usize) -> bool {
    off > 0 && code.as_bytes()[off - 1] == b'\''
}

/// Finds `fn <name>` on a stripped line, returning the name and the
/// byte offset just past it.
fn fn_decl(code: &str) -> Option<(String, usize)> {
    let ids: Vec<(usize, &str)> = idents(code).collect();
    for pair in ids.windows(2) {
        if pair[0].1 == "fn" {
            return Some((pair[1].1.to_string(), pair[1].0 + pair[1].1.len()));
        }
    }
    None
}

/// Counts the arguments of a call whose `(` sits at byte `open` of
/// `code`. Returns `None` when the list does not close on this line or
/// contains closure bars (whose own commas would miscount).
fn count_call_args(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0i64;
    let mut commas = 0usize;
    let mut any = false;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { commas + 1 } else { 0 });
                }
            }
            b'|' => return None,
            b',' if depth == 1 => commas += 1,
            b' ' => {}
            _ => {
                if depth == 1 {
                    any = true;
                }
            }
        }
        i += 1;
    }
    None
}

/// Byte offset of the `(` opening a signature's parameter list: the
/// first one after `fn <name>` and its generics, so the `(` of a
/// `pub(crate)` / `pub(super)` visibility is never taken for it.
/// Returns `None` when there is no `fn <name>` or something other than
/// generics sits between the name and the `(`.
fn param_list_open(sig: &str) -> Option<usize> {
    let fn_at = {
        let ids: Vec<(usize, &str)> = idents(sig).collect();
        let mut found = None;
        for pair in ids.windows(2) {
            if pair[0].1 == "fn" {
                found = Some(pair[1].0 + pair[1].1.len());
                break;
            }
        }
        found?
    };
    let bytes = sig.as_bytes();
    let mut i = fn_at;
    // Skip a generic parameter list between the name and the `(`.
    let mut angle = 0i64;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'(' if angle == 0 => return Some(i),
            b' ' => {}
            _ if angle == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Counts a signature's non-`self` parameters. Returns `None` when the
/// signature is too exotic to parse cheaply (see [`param_list_open`],
/// closure-typed parameters, no closing paren in the accumulated text).
fn count_sig_params(sig: &str) -> Option<usize> {
    let bytes = sig.as_bytes();
    let mut i = param_list_open(sig)?;
    // Walk the parameter list: top-level commas only, angle-aware
    // (`BTreeMap<K, V>`), `->` arrows tolerated, closures rejected.
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut commas = 0usize;
    let mut any = false;
    let mut first_is_self = false;
    let mut seg_start = i + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    let seg = &sig[seg_start..i];
                    if commas == 0 {
                        first_is_self = seg_is_self(seg);
                    }
                    let n = if any { commas + 1 } else { 0 };
                    return Some(n.saturating_sub(usize::from(first_is_self)));
                }
            }
            b'<' => angle += 1,
            b'>' => {
                if i > 0 && bytes[i - 1] != b'-' && bytes[i - 1] != b'=' {
                    angle -= 1;
                }
            }
            b'|' => return None,
            b',' if depth == 1 && angle == 0 => {
                if commas == 0 {
                    first_is_self = seg_is_self(&sig[seg_start..i]);
                }
                commas += 1;
                seg_start = i + 1;
            }
            b' ' => {}
            _ => {
                if depth == 1 {
                    any = true;
                }
            }
        }
        i += 1;
    }
    None
}

fn seg_is_self(seg: &str) -> bool {
    idents(seg).any(|(off, id)| id == "self" && !prefixed_by_quote(seg, off))
}

/// Whether a signature's first parameter is a `self` receiver.
fn sig_has_self(sig: &str) -> bool {
    let Some(open) = param_list_open(sig) else {
        return false;
    };
    let head = &sig[open + 1..];
    let first_arg = head.split([',', ')']).next().unwrap_or("");
    idents(first_arg).any(|(off, id)| id == "self" && !prefixed_by_quote(first_arg, off))
}

/// Scans one body line for panic-source facts.
fn panic_facts(code: &str, out: &mut Vec<(usize, String, PanicKind)>, lineno: usize) {
    let bytes = code.as_bytes();
    for (off, id) in idents(code) {
        let after = code[off + id.len()..].trim_start();
        if (id == "unwrap" || id == "expect") && after.starts_with('(') {
            out.push((lineno, format!("{id}()"), PanicKind::UnwrapExpect));
        }
        if PANIC_MACROS.contains(&id) && after.starts_with('!') {
            out.push((lineno, format!("{id}!"), PanicKind::Macro));
        }
    }
    // Indexing/slicing: `[` whose previous non-space char ends an
    // expression (identifier, `)`, or `]`). Attributes (`#[`), array
    // literals/types (`= [`, `: [`, `&[`, `(<`…), and macro brackets
    // (`vec![`) all fail that test. Keyword-ending identifiers
    // (`return [0u8; 4]`) are excluded explicitly.
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            let mut j = i;
            while j > 0 && bytes[j - 1] == b' ' {
                j -= 1;
            }
            if j > 0 {
                let prev = bytes[j - 1] as char;
                let is_expr_end = prev == ')' || prev == ']' || prev == '?' || ident_char(prev);
                if is_expr_end && prev != ')' && prev != ']' && prev != '?' {
                    // Walk back over the identifier and reject keywords.
                    let mut s = j - 1;
                    while s > 0 && ident_char(bytes[s - 1] as char) {
                        s -= 1;
                    }
                    let word = &code[s..j];
                    if !is_keyword(word) && !word.chars().next().unwrap_or('0').is_ascii_digit() {
                        out.push((lineno, format!("{word}[..]"), PanicKind::Index));
                    }
                } else if is_expr_end {
                    out.push((lineno, "[..] indexing".to_string(), PanicKind::Index));
                }
            }
        }
        i += 1;
    }
}

/// Scans one body line for call sites, appending to `calls`.
/// `impl_ty` substitutes `Self` in qualified paths.
fn call_sites(code: &str, impl_ty: Option<&str>, calls: &mut Vec<CallSite>, lineno: usize) {
    let bytes = code.as_bytes();
    let ids: Vec<(usize, &str)> = idents(code).collect();
    for (off, id) in &ids {
        if is_keyword(id) || prefixed_by_quote(code, *off) {
            continue;
        }
        // The callee must be lowercase-initial: uppercase callees are
        // tuple-struct constructors or enum variants.
        if !id
            .chars()
            .next()
            .map(|c| c.is_lowercase() || c == '_')
            .unwrap_or(false)
        {
            continue;
        }
        // After the identifier: optional turbofish, then `(`.
        let mut k = off + id.len();
        while k < bytes.len() && bytes[k] == b' ' {
            k += 1;
        }
        if code[k..].starts_with("::<") {
            // Skip the turbofish generic list.
            let mut depth = 0i64;
            let mut m = k + 2;
            let cs = code.as_bytes();
            while m < cs.len() {
                match cs[m] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            m += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m;
            while k < bytes.len() && bytes[k] == b' ' {
                k += 1;
            }
        }
        if k >= bytes.len() || bytes[k] != b'(' {
            continue;
        }
        // Macro invocation? (`name!(` never reaches here because `!`
        // intervenes, but `name !(` with a space would — reject.)
        // Walk backwards to classify receiver syntax and collect path
        // segments.
        let mut path = vec![id.to_string()];
        let mut b = *off;
        let mut method = false;
        loop {
            while b > 0 && bytes[b - 1] == b' ' {
                b -= 1;
            }
            if b >= 2 && &code[b - 2..b] == "::" {
                let mut s = b - 2;
                while s > 0 && bytes[s - 1] == b' ' {
                    s -= 1;
                }
                // Preceding turbofish or generic close: stop.
                if s == 0 || bytes[s - 1] == b'>' {
                    break;
                }
                let mut e = s;
                while e > 0 && ident_char(bytes[e - 1] as char) {
                    e -= 1;
                }
                if e == s {
                    break;
                }
                path.insert(0, code[e..s].to_string());
                b = e;
            } else if b >= 1 && bytes[b - 1] == b'.' {
                method = true;
                break;
            } else {
                break;
            }
        }
        // Substitute `Self` with the enclosing impl target.
        for seg in path.iter_mut() {
            if seg == "Self" {
                if let Some(t) = impl_ty {
                    *seg = t.to_string();
                }
            }
        }
        // Drop relative-path noise; bail on explicit std paths.
        while matches!(
            path.first().map(String::as_str),
            Some("crate") | Some("self") | Some("super")
        ) {
            path.remove(0);
        }
        if matches!(
            path.first().map(String::as_str),
            Some("std") | Some("core") | Some("alloc")
        ) && path.len() > 1
        {
            continue;
        }
        calls.push(CallSite {
            line: lineno,
            path,
            method,
            args: count_call_args(code, k),
        });
    }
}

/// Indexes one file's functions into `out`.
fn index_file(rel: &str, source: &str, taint_source: bool, out: &mut Vec<FnDef>) {
    let lines = strip_source(source);
    let in_test = test_regions(&lines);
    let module = module_path_of(rel);

    struct OpenFn {
        depth: usize,
        def: FnDef,
    }
    struct PendingFn {
        depth: usize,
        name: String,
        line: usize,
        sig: String,
    }

    let mut depth = 0usize;
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut impl_armed: Option<(usize, String)> = None;
    let mut open: Vec<OpenFn> = Vec::new();
    let mut pending: Option<PendingFn> = None;
    // Paren/bracket nesting inside a pending signature: a `;` inside an
    // array type (`[u32; 256]`) or a `{` inside a const-generic group
    // must not be mistaken for the signature's end.
    let mut sig_group: i64 = 0;

    for (n, line) in lines.iter().enumerate() {
        let code: &str = &line.code;
        let lineno = n + 1;
        let test_line = in_test[n];

        // Arm impl/trait blocks (only outside any fn body).
        if open.is_empty() && pending.is_none() {
            let has_impl = idents(code).any(|(_, id)| id == "impl" || id == "trait");
            if has_impl {
                if let Some(t) = impl_target(code) {
                    impl_armed = Some((depth, t));
                }
            }
        }

        // Arm fn declarations (outside test regions; nested fns attach
        // to the innermost open fn's file scope but are indexed too).
        if pending.is_none() && !test_line {
            if let Some((name, _)) = fn_decl(code) {
                pending = Some(PendingFn {
                    depth,
                    name,
                    line: lineno,
                    sig: String::new(),
                });
                sig_group = 0;
            }
        }
        if let Some(p) = pending.as_mut() {
            p.sig.push_str(code);
            p.sig.push(' ');
        }

        // Body-line fact & call extraction for the innermost open fn.
        // The opening-brace line is handled below with a column slice.
        if let Some(top) = open.last_mut() {
            if !test_line && pending.is_none() {
                extract_line(
                    code,
                    impl_stack.last().map(|(_, t)| t.as_str()),
                    taint_source,
                    lineno,
                    &mut top.def,
                );
            }
        }

        // Brace walk — mirrors `test_regions`.
        for (ci, c) in code.char_indices() {
            if pending.is_some() {
                match c {
                    '(' | '[' => sig_group += 1,
                    ')' | ']' => sig_group -= 1,
                    _ => {}
                }
            }
            match c {
                '{' => {
                    if let Some((d, t)) = impl_armed.clone() {
                        if depth == d && pending.is_none() {
                            impl_stack.push((d, t));
                            impl_armed = None;
                        }
                    }
                    if let Some(p) = pending.take() {
                        if depth == p.depth && sig_group <= 0 {
                            let def = FnDef {
                                symbol: String::new(),
                                name: p.name.clone(),
                                file: rel.to_string(),
                                line: p.line,
                                has_self: sig_has_self(&p.sig),
                                params: count_sig_params(&p.sig),
                                panic_sites: Vec::new(),
                                alloc_sites: Vec::new(),
                                taint_sites: Vec::new(),
                                calls: Vec::new(),
                            };
                            let mut f = OpenFn { depth, def };
                            // Rest of the opening line belongs to the body.
                            if !test_line {
                                extract_line(
                                    &code[ci + 1..],
                                    impl_stack.last().map(|(_, t)| t.as_str()),
                                    taint_source,
                                    lineno,
                                    &mut f.def,
                                );
                            }
                            open.push(f);
                        } else {
                            pending = Some(p);
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if open.last().map(|f| f.depth) == Some(depth) {
                        if let Some(f) = open.pop() {
                            finish_fn(f.def, &module, &impl_stack, out);
                        }
                    }
                    if impl_stack.last().map(|(d, _)| *d) == Some(depth) {
                        impl_stack.pop();
                    }
                }
                ';' => {
                    // Bodyless signature (trait method declaration) —
                    // but not a `;` inside an array type's brackets.
                    if let Some(p) = &pending {
                        if depth == p.depth && sig_group <= 0 {
                            pending = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Unclosed functions at EOF (truncated input): close them anyway.
    while let Some(f) = open.pop() {
        finish_fn(f.def, &module, &impl_stack, out);
    }
}

fn finish_fn(mut def: FnDef, module: &str, impl_stack: &[(usize, String)], out: &mut Vec<FnDef>) {
    let ty = impl_stack.last().map(|(_, t)| t.as_str());
    def.symbol = match ty {
        Some(t) => format!("{module}::{t}::{}", def.name),
        None => format!("{module}::{}", def.name),
    };
    out.push(def);
}

/// Fact + call extraction for one body line (or the post-brace slice of
/// the opening line).
fn extract_line(
    code: &str,
    impl_ty: Option<&str>,
    taint_source: bool,
    lineno: usize,
    def: &mut FnDef,
) {
    if code.trim().is_empty() {
        return;
    }
    let mut panics: Vec<(usize, String, PanicKind)> = Vec::new();
    panic_facts(code, &mut panics, lineno);
    for (l, token, kind) in panics {
        def.panic_sites.push((Site { line: l, token }, kind));
    }
    for name in crate::ALLOC_TOKENS {
        if crate::has_ident(code, name) {
            def.alloc_sites.push(Site {
                line: lineno,
                token: (*name).to_string(),
            });
        }
    }
    if taint_source {
        for name in CLOCK_TOKENS.iter().chain(RAND_TOKENS.iter()) {
            if crate::has_ident(code, name) {
                def.taint_sites.push(Site {
                    line: lineno,
                    token: (*name).to_string(),
                });
            }
        }
        if crate::has_path(code, "rand", "random") {
            def.taint_sites.push(Site {
                line: lineno,
                token: "rand::random".to_string(),
            });
        }
    }
    call_sites(code, impl_ty, &mut def.calls, lineno);
}

/// Builds the function index over `(rel_path, source)` pairs.
/// `taint_source_files` mirrors [`GraphConfig::taint_source_files`].
pub fn build_index(files: &[(String, String)], config: &GraphConfig) -> FnIndex {
    let mut fns: Vec<FnDef> = Vec::new();
    for (rel, source) in files {
        let taint = config.taint_source_files.iter().any(|f| f == rel);
        index_file(rel, source, taint, &mut fns);
    }
    // Deterministic order + unique symbols.
    fns.sort_by(|a, b| (&a.symbol, &a.file, a.line).cmp(&(&b.symbol, &b.file, b.line)));
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for f in fns.iter_mut() {
        let n = seen.entry(f.symbol.clone()).or_insert(0);
        if *n > 0 {
            f.symbol = format!("{}@{}", f.symbol, f.line);
        }
        *n += 1;
    }

    // Name tables for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }

    let mut edges: BTreeSet<(usize, usize, usize, EdgeKind)> = BTreeSet::new();
    let mut resolved: Vec<(usize, usize, usize, EdgeKind)> = Vec::new();
    for (caller, f) in fns.iter().enumerate() {
        for call in &f.calls {
            let name = match call.path.last() {
                Some(n) => n.as_str(),
                None => continue,
            };
            let candidates = match by_name.get(name) {
                Some(c) => c.as_slice(),
                None => continue,
            };
            let kind = if call.method {
                EdgeKind::Method
            } else {
                EdgeKind::Direct
            };
            let mut targets: Vec<usize> = Vec::new();
            if call.method {
                if PRIMITIVE_METHODS.contains(&name) {
                    continue;
                }
                // Suffix-by-name: every method with this name
                // (ambiguity widening), arity-filtered when both sides
                // parsed cleanly — `.values()` cannot target a 2-arg
                // workspace method of the same name.
                targets.extend(candidates.iter().filter(|&&i| {
                    fns[i].has_self
                        && match (call.args, fns[i].params) {
                            (Some(a), Some(p)) => a == p,
                            _ => true,
                        }
                }));
            } else if call.path.len() > 1 {
                // Path-qualified: match trailing symbol segments
                // (`wiscape_stats::sketch::...` → `stats::sketch::...`).
                let quals: Vec<String> = call.path[..call.path.len() - 1]
                    .iter()
                    .map(|s| s.strip_prefix("wiscape_").unwrap_or(s).to_string())
                    .collect();
                for &i in candidates {
                    let segs: Vec<&str> = fns[i].symbol.split("::").collect();
                    // segs = [...modules, (Type,) name]; the qualifier
                    // must be a suffix of the segments before the name.
                    let head = &segs[..segs.len().saturating_sub(1)];
                    if quals.len() <= head.len()
                        && head[head.len() - quals.len()..]
                            .iter()
                            .zip(quals.iter())
                            .all(|(a, b)| *a == b)
                    {
                        targets.push(i);
                    }
                }
                // No fallback: an unresolved qualified call targets a
                // type outside the index (std/vendored) by assumption.
            } else {
                // Bare call: same-file candidates win; otherwise any
                // function of that name (imported free fns).
                let local: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].file == f.file)
                    .collect();
                if local.is_empty() {
                    targets.extend(candidates.iter().copied());
                } else {
                    targets.extend(local);
                }
            }
            for t in targets {
                if t == caller {
                    continue; // self-recursion adds nothing to reachability
                }
                if edges.insert((caller, t, call.line, kind)) {
                    resolved.push((caller, t, call.line, kind));
                }
            }
        }
    }
    resolved.sort_by(|a, b| {
        (&fns[a.0].symbol, &fns[a.1].symbol, a.2).cmp(&(&fns[b.0].symbol, &fns[b.1].symbol, b.2))
    });

    FnIndex {
        fns,
        edges: resolved,
        files_indexed: files.len(),
    }
}

// ---------------------------------------------------------------------
// Propagation.
// ---------------------------------------------------------------------

/// One transitive finding, pre-suppression.
#[derive(Debug, Clone)]
pub struct GraphFinding {
    /// `P001`, `A001`, or `T001`.
    pub rule: &'static str,
    /// File of the offending *site* (suppressions anchor here).
    pub file: String,
    /// 1-based line of the offending site.
    pub line: usize,
    /// Diagnostic text.
    pub message: String,
    /// Witness call chain, root symbol first, offending function last.
    pub witness: Vec<String>,
}

/// Deterministic multi-source BFS. Returns `parent[i]` (usize::MAX for
/// unvisited, `i` for roots) — roots and neighbours are expanded in
/// sorted-symbol order so shortest-path ties break identically across
/// runs.
fn bfs(index: &FnIndex, roots: &[usize], blocked: &dyn Fn(usize) -> bool) -> Vec<usize> {
    let n = index.fns.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b, _, _) in &index.edges {
        adj[a].push(b);
    }
    // `index.edges` is sorted by (caller symbol, callee symbol), and
    // `index.fns` is sorted by symbol, so each adjacency list is
    // already in sorted order; dedup is enough.
    for l in adj.iter_mut() {
        l.dedup();
    }
    let mut parent = vec![usize::MAX; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut sorted_roots = roots.to_vec();
    sorted_roots.sort();
    sorted_roots.dedup();
    for &r in &sorted_roots {
        if !blocked(r) && parent[r] == usize::MAX {
            parent[r] = r;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if parent[v] == usize::MAX && !blocked(v) {
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Reconstructs the witness chain for `target` from `parent`.
fn witness(index: &FnIndex, parent: &[usize], target: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = target;
    loop {
        chain.push(index.fns[cur].symbol.clone());
        let p = parent[cur];
        if p == cur || p == usize::MAX {
            break;
        }
        cur = p;
    }
    chain.reverse();
    chain
}

fn select_roots(index: &FnIndex, specs: &[FnSpec]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, f) in index.fns.iter().enumerate() {
        if specs.iter().any(|s| s.matches(&f.file, &f.name)) {
            out.push(i);
        }
    }
    out
}

fn render_witness(chain: &[String]) -> String {
    chain.join(" -> ")
}

/// Runs the three transitive rules over a built index, returning
/// findings sorted by (file, line, rule).
pub fn analyze(index: &FnIndex, config: &GraphConfig) -> Vec<GraphFinding> {
    let mut findings: Vec<GraphFinding> = Vec::new();

    // ----- P001: panic-freedom of the ingest/decode surface ---------
    let panic_roots = select_roots(index, &config.panic_roots);
    let boundary = |i: usize| -> bool {
        config
            .panic_boundaries
            .iter()
            .any(|(f, _)| *f == index.fns[i].file)
    };
    let parent = bfs(index, &panic_roots, &boundary);
    let root_set: BTreeSet<usize> = panic_roots.iter().copied().collect();
    for (i, f) in index.fns.iter().enumerate() {
        if parent[i] == usize::MAX {
            continue;
        }
        let local = config.panic_local_files.contains(&f.file);
        for (site, kind) in &f.panic_sites {
            if local && matches!(kind, PanicKind::UnwrapExpect | PanicKind::Macro) {
                continue; // S002 enforces these locally on its surface
            }
            let chain = witness(index, &parent, i);
            let via = if root_set.contains(&i) {
                "on the declared surface".to_string()
            } else {
                format!("reached via {}", render_witness(&chain))
            };
            findings.push(GraphFinding {
                rule: "P001",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "{} can panic and is reachable from the ingest/decode surface ({via}); \
                     return a typed error or use a non-panicking access instead",
                    site.token
                ),
                witness: chain,
            });
        }
    }

    // ----- A001: transitive alloc-freedom of the S004 hot set -------
    let alloc_roots = select_roots(index, &config.alloc_roots);
    let parent = bfs(index, &alloc_roots, &|_| false);
    let root_set: BTreeSet<usize> = alloc_roots.iter().copied().collect();
    for (i, f) in index.fns.iter().enumerate() {
        if parent[i] == usize::MAX || root_set.contains(&i) {
            continue; // root-local allocation is S004's finding
        }
        for site in &f.alloc_sites {
            let chain = witness(index, &parent, i);
            findings.push(GraphFinding {
                rule: "A001",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "heap allocation ({}) in a callee of a declared alloc-free hot \
                     function (reached via {}); hoist the allocation out of the hot \
                     path or stage it behind the call boundary",
                    site.token,
                    render_witness(&chain)
                ),
                witness: chain,
            });
        }
    }

    // ----- T001: determinism taint across exempt boundaries ---------
    let det_files: BTreeSet<&str> = config
        .deterministic_files
        .iter()
        .map(|s| s.as_str())
        .collect();
    let src_files: BTreeSet<&str> = config
        .taint_source_files
        .iter()
        .map(|s| s.as_str())
        .collect();
    let taint_roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            det_files.contains(f.file.as_str()) && !src_files.contains(f.file.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    let parent = bfs(index, &taint_roots, &|_| false);
    for (i, f) in index.fns.iter().enumerate() {
        if parent[i] == usize::MAX || !src_files.contains(f.file.as_str()) {
            continue;
        }
        for site in &f.taint_sites {
            let chain = witness(index, &parent, i);
            findings.push(GraphFinding {
                rule: "T001",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "determinism taint: wall-clock/ambient-randomness source ({}) in a \
                     quarantined file is reachable from a deterministic crate \
                     (via {}); keep the chain out of result bytes or justify the \
                     quarantine here",
                    site.token,
                    render_witness(&chain)
                ),
                witness: chain,
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.witness).cmp(&(&b.file, b.line, b.rule, &b.witness))
    });
    // One finding per (rule, site): the BFS already picked the
    // canonical witness; duplicates can only arise from multiple fact
    // tokens on one line.
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

// ---------------------------------------------------------------------
// The serialized call-graph document.
// ---------------------------------------------------------------------

/// One node of `CALLGRAPH.json`.
#[derive(Debug, Clone, Serialize)]
pub struct NodeDoc {
    /// Module-path-qualified symbol.
    pub symbol: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Takes a `self` receiver.
    pub is_method: bool,
    /// Panic-source count in the body.
    pub panic_sites: usize,
    /// Allocation-token count in the body.
    pub alloc_sites: usize,
    /// Taint-source count in the body.
    pub taint_sites: usize,
    /// Roles: `P001-root`, `A001-root`, `T001-root`, `boundary`.
    pub roles: Vec<String>,
}

/// One edge of `CALLGRAPH.json`.
#[derive(Debug, Clone, Serialize)]
pub struct EdgeDoc {
    /// Caller symbol.
    pub caller: String,
    /// Callee symbol.
    pub callee: String,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
    /// `direct` or `method`.
    pub kind: String,
}

/// A declared trusted boundary with its justification.
#[derive(Debug, Clone, Serialize)]
pub struct BoundaryDoc {
    /// Boundary file (P001 traversal stops here).
    pub file: String,
    /// Why the file sits outside the verified perimeter.
    pub justification: String,
}

/// Aggregate counts (the regression-visible surface).
#[derive(Debug, Clone, Serialize)]
pub struct GraphSummary {
    /// Indexed functions.
    pub nodes: usize,
    /// Resolved edges.
    pub edges: usize,
    /// P001 root functions.
    pub panic_roots: usize,
    /// Functions reachable from the P001 roots.
    pub panic_reachable: usize,
    /// A001 root functions.
    pub alloc_roots: usize,
    /// Functions reachable from the A001 roots.
    pub alloc_reachable: usize,
    /// T001 root functions.
    pub taint_roots: usize,
}

/// The full serialized call graph (`results/CALLGRAPH.json`).
#[derive(Debug, Clone, Serialize)]
pub struct CallGraphDoc {
    /// Document schema tag.
    pub schema: String,
    /// Tool name and version.
    pub tool: String,
    /// Files indexed.
    pub files_indexed: usize,
    /// Declared trusted boundaries.
    pub boundaries: Vec<BoundaryDoc>,
    /// All nodes, sorted by symbol.
    pub nodes: Vec<NodeDoc>,
    /// All edges, sorted by (caller, callee, line).
    pub edges: Vec<EdgeDoc>,
    /// Aggregate counts.
    pub summary: GraphSummary,
}

/// Builds the serializable call-graph document for `index` under
/// `config` (roles and reachability are recomputed with the same
/// deterministic BFS the rules use).
pub fn callgraph_doc(index: &FnIndex, config: &GraphConfig) -> CallGraphDoc {
    let panic_roots = select_roots(index, &config.panic_roots);
    let alloc_roots = select_roots(index, &config.alloc_roots);
    let det_files: BTreeSet<&str> = config
        .deterministic_files
        .iter()
        .map(|s| s.as_str())
        .collect();
    let src_files: BTreeSet<&str> = config
        .taint_source_files
        .iter()
        .map(|s| s.as_str())
        .collect();
    let taint_roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            det_files.contains(f.file.as_str()) && !src_files.contains(f.file.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    let boundary = |i: usize| -> bool {
        config
            .panic_boundaries
            .iter()
            .any(|(f, _)| *f == index.fns[i].file)
    };
    let panic_parent = bfs(index, &panic_roots, &boundary);
    let alloc_parent = bfs(index, &alloc_roots, &|_| false);

    let p_roots: BTreeSet<usize> = panic_roots.iter().copied().collect();
    let a_roots: BTreeSet<usize> = alloc_roots.iter().copied().collect();
    let t_roots: BTreeSet<usize> = taint_roots.iter().copied().collect();

    let nodes: Vec<NodeDoc> = index
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut roles = Vec::new();
            if p_roots.contains(&i) {
                roles.push("P001-root".to_string());
            }
            if a_roots.contains(&i) {
                roles.push("A001-root".to_string());
            }
            if t_roots.contains(&i) {
                roles.push("T001-root".to_string());
            }
            if config
                .panic_boundaries
                .iter()
                .any(|(file, _)| *file == f.file)
            {
                roles.push("boundary".to_string());
            }
            NodeDoc {
                symbol: f.symbol.clone(),
                file: f.file.clone(),
                line: f.line,
                is_method: f.has_self,
                panic_sites: f.panic_sites.len(),
                alloc_sites: f.alloc_sites.len(),
                taint_sites: f.taint_sites.len(),
                roles,
            }
        })
        .collect();

    let edges: Vec<EdgeDoc> = index
        .edges
        .iter()
        .map(|&(a, b, line, kind)| EdgeDoc {
            caller: index.fns[a].symbol.clone(),
            callee: index.fns[b].symbol.clone(),
            line,
            kind: kind.as_str().to_string(),
        })
        .collect();

    let mut seen_boundary: BTreeSet<&str> = BTreeSet::new();
    let boundaries: Vec<BoundaryDoc> = config
        .panic_boundaries
        .iter()
        .filter(|(f, _)| seen_boundary.insert(f.as_str()))
        .map(|(f, j)| BoundaryDoc {
            file: f.clone(),
            justification: j.clone(),
        })
        .collect();

    let summary = GraphSummary {
        nodes: nodes.len(),
        edges: edges.len(),
        panic_roots: panic_roots.len(),
        panic_reachable: panic_parent.iter().filter(|&&p| p != usize::MAX).count(),
        alloc_roots: alloc_roots.len(),
        alloc_reachable: alloc_parent.iter().filter(|&&p| p != usize::MAX).count(),
        taint_roots: taint_roots.len(),
    };

    CallGraphDoc {
        schema: "wiscape-callgraph/1".to_string(),
        tool: format!("wiscape-lint {}", env!("CARGO_PKG_VERSION")),
        files_indexed: index.files_indexed,
        boundaries,
        nodes,
        edges,
        summary,
    }
}
