//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--seed N] [--full] [--out DIR] [--obs PATH] [--wal DIR] [EXPERIMENT...]
//! ```
//!
//! With no experiment names, runs all of them. Writes one JSON file per
//! experiment into `DIR` (default `results/`) and prints each markdown
//! summary to stdout (the content of `EXPERIMENTS.md`).
//!
//! `--wal`, `--wal-crash-seed`, `--shards` and `--rebalance-seed` pick
//! one `wiscape_experiments::topology::Topology`, installed once for
//! the whole run. `--wal DIR` routes every channel-driven coordinator
//! (fig15) through the `wiscape-wal` event log under `DIR`;
//! `--wal-crash-seed N` additionally injects a deterministic crash
//! (kill + recover) into each such run. `--shards N` runs every
//! channel-driven deployment N-way sharded (zone-range shards behind
//! the one server; per-shard logs when combined with `--wal`; `1` is a
//! one-shard set) and fig16's ingest on N shards, and
//! `--rebalance-seed S` additionally applies one seeded mid-stream
//! zone-range rebalance. Every combination must stay byte-identical to
//! a plain run — `scripts/verify_results.sh` enforces it. Flag values
//! no topology can honour exit 2 before anything runs.
//!
//! `--obs PATH` enables the observability registry and dumps its
//! snapshot (e.g. `results/OBS_repro.json`) after the run. Everything
//! outside the snapshot's `timing` section is byte-identical across
//! runs and `WISCAPE_THREADS` settings; keep the snapshot out of
//! manifest-checked directories because the timing section is not.

use std::io::Write as _;

use wiscape_experiments::topology::{self, Topology};
use wiscape_experiments::{run_many_with_charts, Scale, ALL_EXPERIMENTS};

fn main() {
    let mut seed: u64 = 7;
    let mut scale = Scale::Quick;
    let mut out_dir = String::from("results");
    let mut obs_path: Option<String> = None;
    let mut wal_dir: Option<std::path::PathBuf> = None;
    let mut wal_crash_seed: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut rebalance_seed: Option<u64> = None;
    let mut svg = false;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = int(args.next(), "--seed"),
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--out" => {
                out_dir = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--obs" => {
                obs_path = Some(args.next().unwrap_or_else(|| die("--obs needs a path")));
            }
            "--wal" => {
                wal_dir = Some(
                    args.next()
                        .map(Into::into)
                        .unwrap_or_else(|| die("--wal needs a path")),
                );
            }
            "--wal-crash-seed" => wal_crash_seed = Some(int(args.next(), "--wal-crash-seed")),
            "--shards" => shards = Some(int(args.next(), "--shards")),
            "--rebalance-seed" => rebalance_seed = Some(int(args.next(), "--rebalance-seed")),
            "--svg" => svg = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--seed N] [--full|--quick] [--out DIR] [--obs PATH] \
                     [--wal DIR] [--wal-crash-seed N] [--shards N] [--rebalance-seed S] \
                     [--svg] [EXPERIMENT...]\n\
                     experiments: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        names = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if obs_path.is_some() {
        wiscape_obs::set_enabled(true);
    }
    let topology = Topology::new(shards, rebalance_seed, wal_dir, wal_crash_seed)
        .unwrap_or_else(|e| die(&e.message("--wal-crash-seed")));
    topology::install(topology);
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| die(&format!("mkdir {out_dir}: {e}")));
    println!("# WiScape reproduction run (seed {seed}, scale {scale:?})\n",);
    println!("{}", wiscape_experiments::inventory::table1());
    println!("{}", wiscape_experiments::inventory::table2());
    // All experiments run concurrently on the deterministic executor
    // (worker count: WISCAPE_THREADS, default all cores); outputs are
    // byte-identical to a serial run, and are written in input order.
    // lint:allow(D002): wall-clock timing is stderr progress reporting only; never enters result bytes.
    let wall = std::time::Instant::now();
    let results = run_many_with_charts(&names, seed, scale);
    for (name, result) in names.iter().zip(results) {
        match result {
            Some((summary, json, charts, secs)) => {
                let path = format!("{out_dir}/{name}.json");
                let mut f = std::fs::File::create(&path)
                    .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
                f.write_all(json.as_bytes())
                    .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
                if svg {
                    for (fname, body) in &charts {
                        let cpath = format!("{out_dir}/{fname}");
                        std::fs::write(&cpath, body)
                            .unwrap_or_else(|e| die(&format!("write {cpath}: {e}")));
                    }
                }
                println!("{summary}\n");
                eprintln!(
                    "[{name}] done in {secs:.1}s -> {path} (+{} charts)",
                    if svg { charts.len() } else { 0 }
                );
            }
            None => {
                eprintln!("unknown experiment '{name}' (see --help)");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[repro] {} experiments in {:.1}s on {} worker(s)",
        names.len(),
        wall.elapsed().as_secs_f64(),
        wiscape_simcore::exec::thread_count()
    );
    if let Some(path) = obs_path {
        wiscape_obs::write_snapshot(std::path::Path::new(&path))
            .unwrap_or_else(|e| die(&format!("write obs snapshot {path}: {e}")));
        eprintln!("[repro] obs snapshot -> {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The integer value of `flag`, or exit 2.
fn int<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs an integer")))
}
