//! Interprocedural-rule tests over the fixture mini-workspace in
//! `tests/fixtures/graph/` (four single-file crates: `ingest` declares
//! the analysis roots, `router` models the shard-router tier fronting
//! it, `util` holds the seeded panic/alloc violations, `clock` is the
//! quarantined taint source). The fixtures are parsed as plain text —
//! they are never compiled and the `fixtures` directory is excluded
//! from the real workspace scan.

use std::fs;
use std::path::{Path, PathBuf};

use wiscape_lint::graph::{self, EdgeKind, FnSpec, GraphConfig, GraphFinding};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf()
}

/// Reads the fixture crates in a fixed order (build_index sorts
/// internally, so input order must not matter — one test shuffles it).
fn fixture_files() -> Vec<(String, String)> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph");
    ["ingest", "router", "util", "clock"]
        .iter()
        .map(|krate| {
            let rel = format!("crates/{krate}/src/lib.rs");
            let source = fs::read_to_string(base.join(&rel)).expect("fixture file");
            (rel, source)
        })
        .collect()
}

fn fixture_config() -> GraphConfig {
    GraphConfig {
        panic_roots: vec![
            FnSpec::file("crates/ingest/src/lib.rs"),
            FnSpec::file("crates/router/src/lib.rs"),
        ],
        panic_local_files: Vec::new(),
        panic_boundaries: Vec::new(),
        alloc_roots: vec![FnSpec::func("crates/ingest/src/lib.rs", "hot_loop")],
        deterministic_files: vec![
            "crates/ingest/src/lib.rs".to_string(),
            "crates/router/src/lib.rs".to_string(),
        ],
        taint_source_files: vec!["crates/clock/src/lib.rs".to_string()],
    }
}

fn fixture_findings() -> Vec<GraphFinding> {
    let files = fixture_files();
    let config = fixture_config();
    let index = graph::build_index(&files, &config);
    graph::analyze(&index, &config)
}

fn witnesses(findings: &[GraphFinding], rule: &str) -> Vec<Vec<String>> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.witness.clone())
        .collect()
}

#[test]
fn index_covers_all_fixture_functions() {
    let files = fixture_files();
    let index = graph::build_index(&files, &fixture_config());
    assert_eq!(index.files_indexed, 4);
    for sym in [
        "ingest::decode_frame",
        "router::route_report",
        "router::merge_counts",
        "util::bucket_of",
        "ingest::decode_fast",
        "ingest::decode_looping",
        "ingest::decode_with_probe",
        "ingest::hot_loop",
        "ingest::stamp",
        "util::parse_header",
        "util::read_u16",
        "util::middle",
        "util::deep_panic",
        "util::ping",
        "util::pong",
        "util::Gauge::poke",
        "util::Dial::poke",
        "util::dial",
        "util::widen",
        "clock::now_micros",
        "clock::idle_clock",
    ] {
        assert!(
            index.fns.iter().any(|f| f.symbol == sym),
            "missing fixture symbol {sym}; indexed: {:?}",
            index.fns.iter().map(|f| &f.symbol).collect::<Vec<_>>()
        );
    }
}

#[test]
fn multi_hop_panic_carries_full_witness() {
    let findings = fixture_findings();
    let expected: Vec<String> = [
        "ingest::decode_frame",
        "util::parse_header",
        "util::read_u16",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert!(
        witnesses(&findings, "P001").contains(&expected),
        "no P001 finding with the 3-hop witness; got {:?}",
        witnesses(&findings, "P001")
    );
}

#[test]
fn router_hop_panic_is_reported_and_merge_stays_clean() {
    // The router crate is a P001 root of its own (modelling the shard
    // router fronting the ingest surface): the unchecked bucket index
    // two files away must be reported with a witness that crosses the
    // router hop, while the benign merge tier stays finding-free.
    let findings = fixture_findings();
    let expected: Vec<String> = ["router::route_report", "util::bucket_of"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        witnesses(&findings, "P001").contains(&expected),
        "no P001 finding crossing the router hop; got {:?}",
        witnesses(&findings, "P001")
    );
    assert!(
        !findings
            .iter()
            .any(|f| f.witness.iter().any(|s| s == "router::merge_counts")),
        "benign merge tier appeared in a finding"
    );
}

#[test]
fn recursion_cycle_terminates_and_still_reports() {
    // build_index + analyze must return despite the ping<->pong cycle,
    // and the panic inside the cycle must carry a witness that enters
    // through the declared root.
    let findings = fixture_findings();
    let expected: Vec<String> = ["ingest::decode_looping", "util::ping", "util::pong"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        witnesses(&findings, "P001").contains(&expected),
        "cycle member not reported with root-anchored witness; got {:?}",
        witnesses(&findings, "P001")
    );
}

#[test]
fn ambiguous_method_widens_to_every_candidate() {
    let files = fixture_files();
    let config = fixture_config();
    let index = graph::build_index(&files, &config);
    let idx_of = |sym: &str| {
        index
            .fns
            .iter()
            .position(|f| f.symbol == sym)
            .unwrap_or_else(|| panic!("symbol {sym} not indexed"))
    };
    let caller = idx_of("ingest::decode_with_probe");
    for target in ["util::Gauge::poke", "util::Dial::poke"] {
        let t = idx_of(target);
        assert!(
            index
                .edges
                .iter()
                .any(|&(a, b, _, kind)| a == caller && b == t && kind == EdgeKind::Method),
            "missing widened method edge decode_with_probe -> {target}"
        );
    }
    // Only the panicking candidate yields a finding; the benign twin
    // must not appear in any witness tail.
    let findings = graph::analyze(&index, &config);
    let tails: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.witness.last())
        .map(String::as_str)
        .collect();
    assert!(tails.contains(&"util::Dial::poke"), "tails: {tails:?}");
    assert!(!tails.contains(&"util::Gauge::poke"), "tails: {tails:?}");
}

#[test]
fn restricted_visibility_receiver_is_a_method() {
    // The `(` of `pub(crate)` is not the parameter list: `check` takes
    // `&self`, so the root's `.check()` call must reach its panic.
    let files = vec![
        (
            "crates/ingest/src/lib.rs".to_string(),
            "pub fn decode(g: &util::Guard) -> u32 {\n    g.check()\n}\n".to_string(),
        ),
        (
            "crates/util/src/lib.rs".to_string(),
            concat!(
                "pub struct Guard;\n",
                "impl Guard {\n",
                "    pub(crate) fn check(&self) -> u32 {\n",
                "        panic!(\"unchecked guard\");\n",
                "    }\n",
                "}\n",
            )
            .to_string(),
        ),
    ];
    let config = GraphConfig {
        panic_roots: vec![FnSpec::file("crates/ingest/src/lib.rs")],
        ..GraphConfig::default()
    };
    let index = graph::build_index(&files, &config);
    let findings = graph::analyze(&index, &config);
    let expected: Vec<String> = ["ingest::decode", "util::Guard::check"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        witnesses(&findings, "P001").contains(&expected),
        "no P001 finding through the pub(crate) method; got {:?}",
        witnesses(&findings, "P001")
    );
}

#[test]
fn witness_prefers_the_shortest_route() {
    // deep_panic is reachable directly from decode_fast (1 hop) and via
    // middle (2 hops); the reported chain must be the direct one.
    let findings = fixture_findings();
    let deep: Vec<Vec<String>> = witnesses(&findings, "P001")
        .into_iter()
        .filter(|w| w.last().map(String::as_str) == Some("util::deep_panic"))
        .collect();
    assert_eq!(
        deep,
        vec![vec![
            "ingest::decode_fast".to_string(),
            "util::deep_panic".to_string()
        ]],
        "expected exactly the 1-hop witness"
    );
}

#[test]
fn alloc_in_callee_of_hot_root_is_reported() {
    let findings = fixture_findings();
    let expected: Vec<String> = ["ingest::hot_loop", "util::widen"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(
        witnesses(&findings, "A001").contains(&expected),
        "A001 witness missing; got {:?}",
        witnesses(&findings, "A001")
    );
}

#[test]
fn taint_crosses_quarantine_only_when_reachable() {
    let findings = fixture_findings();
    let taint = witnesses(&findings, "T001");
    let expected: Vec<String> = ["ingest::stamp", "clock::now_micros"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(taint.contains(&expected), "T001 witnesses: {taint:?}");
    // idle_clock also reads the wall clock but nothing reaches it.
    assert!(
        !taint
            .iter()
            .any(|w| w.last().map(String::as_str) == Some("clock::idle_clock")),
        "unreachable taint source must not be reported: {taint:?}"
    );
}

#[test]
fn fixture_analysis_is_input_order_independent_and_deterministic() {
    let config = fixture_config();
    let mut reversed = fixture_files();
    reversed.reverse();
    let runs: Vec<String> = [fixture_files(), fixture_files(), reversed]
        .iter()
        .map(|files| {
            let index = graph::build_index(files, &config);
            let findings = graph::analyze(&index, &config);
            let doc = graph::callgraph_doc(&index, &config);
            let rendered: Vec<String> = findings
                .iter()
                .map(|f| {
                    format!(
                        "{} {}:{} {}",
                        f.rule,
                        f.file,
                        f.line,
                        f.witness.join(" -> ")
                    )
                })
                .collect();
            format!(
                "{}\n{}",
                serde_json::to_string(&doc).expect("callgraph serializes"),
                rendered.join("\n")
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1], "same-input runs diverged");
    assert_eq!(runs[0], runs[2], "file input order leaked into output");
}

#[test]
fn workspace_artifacts_are_byte_identical_across_runs() {
    let root = workspace_root();
    let serialize = || {
        let (report, doc) = wiscape_lint::lint_workspace_full(&root).expect("workspace scan");
        (
            serde_json::to_string_pretty(&report).expect("report serializes"),
            serde_json::to_string_pretty(&doc).expect("callgraph serializes"),
        )
    };
    let (report_a, doc_a) = serialize();
    let (report_b, doc_b) = serialize();
    assert_eq!(report_a, report_b, "LINT_report.json bytes diverged");
    assert_eq!(doc_a, doc_b, "CALLGRAPH.json bytes diverged");
}

#[test]
fn suppression_budget_gate_fires_when_exceeded() {
    let root = workspace_root();
    let (report, _) = wiscape_lint::lint_workspace_with_budget(&root, 0).expect("workspace scan");
    assert_eq!(report.summary.allow_budget, Some(0));
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "L001" && v.file == "(workspace)"),
        "budget of 0 must trip the L001 gate"
    );
    // The committed budget is not tripped.
    let (clean, _) = wiscape_lint::lint_workspace_full(&root).expect("workspace scan");
    assert_eq!(clean.summary.allow_budget, Some(wiscape_lint::ALLOW_BUDGET));
    assert!(clean.is_clean(), "committed budget must hold");
}

#[test]
fn full_scan_with_graph_stays_under_smoke_floor() {
    if std::env::var_os("WISCAPE_SKIP_PERF_SMOKE").is_some() {
        return;
    }
    let root = workspace_root();
    let started = std::time::Instant::now();
    let (report, doc) = wiscape_lint::lint_workspace_full(&root).expect("workspace scan");
    let elapsed = started.elapsed();
    assert!(report.files_scanned > 50, "wrong root?");
    assert!(doc.nodes.len() > 100, "suspiciously small call graph");
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "full scan + graph build took {elapsed:?} (floor: 10 s)"
    );
}
