//! `repro_quick`: the 19 experiments at `Scale::Quick` through
//! `run_many_with_charts`, as a reader of the paper runs them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use wiscape_experiments::{run_many_with_charts, Scale, ALL_EXPERIMENTS};

use crate::probe::{attribute, Op};
use crate::run::{Bench, PassOut};
use crate::sha256::hex_digest;

/// The seed the committed quick manifest was produced with.
pub const MANIFEST_SEED: u64 = 7;

/// The workload.
pub struct Repro {
    /// Path of `results/QUICK_MANIFEST.sha256`.
    pub manifest: PathBuf,
}

/// The experiment ids and the expected payload hashes.
pub struct ReproInput {
    names: Vec<String>,
    seed: u64,
    expected: BTreeMap<String, String>,
}

/// Parses `sha256sum` output into file name → hex digest.
fn parse_manifest(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let (hash, name) = line.split_once(char::is_whitespace)?;
            Some((name.trim().to_string(), hash.to_string()))
        })
        .collect()
}

impl Repro {
    fn run(&self, input: &ReproInput, check_hashes: bool) -> PassOut {
        let t = Instant::now();
        let results = run_many_with_charts(&input.names, input.seed, Scale::Quick);
        let repro_s = t.elapsed().as_secs_f64();
        let mut out = PassOut {
            wall_s: repro_s,
            repro_s,
            msgs: input.names.len() as u64,
            ..PassOut::default()
        };
        for (name, result) in input.names.iter().zip(results) {
            let Some((_, json, _, secs)) = result else {
                out.failures.push(format!("{name} returned no payload"));
                continue;
            };
            attribute(Op::Experiment, (secs * 1e9) as u64);
            out.counts.push((format!("experiments.{name}_s"), secs));
            if check_hashes {
                let want = input.expected.get(&format!("{name}.json"));
                if want != Some(&hex_digest(json.as_bytes())) {
                    out.failures
                        .push(format!("{name}.json does not match the quick manifest"));
                }
            }
        }
        out
    }
}

impl Bench for Repro {
    type Input = ReproInput;

    /// Reads the manifest, then runs the experiments once untimed: the
    /// first run in a process pays lazy initialisation and heap growth
    /// that later runs do not.
    fn setup(&self, seed: u64) -> ReproInput {
        let text = std::fs::read_to_string(&self.manifest).unwrap_or_default();
        let input = ReproInput {
            names: ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect(),
            seed,
            expected: parse_manifest(&text),
        };
        std::hint::black_box(self.run(&input, false));
        input
    }

    fn pass(&self, input: &ReproInput, _traced: bool, check: bool) -> PassOut {
        self.run(input, check && input.seed == MANIFEST_SEED)
    }

    fn describe(&self, input: &ReproInput) -> Vec<(&'static str, String)> {
        vec![
            ("experiments", input.names.len().to_string()),
            ("scale", "quick".into()),
            ("manifest_entries", input.expected.len().to_string()),
            (
                "manifest_checked",
                (input.seed == MANIFEST_SEED).to_string(),
            ),
        ]
    }

    fn setup_runs(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lines_parse() {
        let m = parse_manifest("abc123  fig01.json\ndef456  tab06.json\n");
        assert_eq!(m.get("fig01.json").map(String::as_str), Some("abc123"));
        assert_eq!(m.len(), 2);
    }
}
