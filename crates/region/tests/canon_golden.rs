//! Byte-identity golden for the region builder's input canonicalizer.
//!
//! The builder sorts its in-grid cells stably by `(zone, network)` and
//! folds each key's cells, in input order, into a fresh sketch. The
//! reference below is the ordered-map fold it replaced: every in-grid
//! cell merged into `BTreeMap<(ZoneId, NetworkId), RunningStats>` via
//! `entry().or_default().merge()`. Both must yield the same regions and
//! the same skipped-cell count on messy input: all three networks,
//! duplicate `(zone, network)` cells, empty sketches, cells outside the
//! grid, in generated, reversed and shuffled order.
//!
//! The digests pin the whole build, per-network leaf folds included,
//! to the bytes of the ordered-map builder on the same fixture.

use std::collections::BTreeMap;

use wiscape_core::{CoordinatorState, ZoneCellState, ZoneId, ZoneIndex};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_region::{region_fingerprint, RegionConfig, RegionSet};
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;
use wiscape_stats::RunningStats;

/// FNV-1a of the ordered-map builder's `region_fingerprint` for the
/// fixture in generated, reversed and shuffled order.
const GOLDEN: [(&str, u64); 3] = [
    ("generated", 0xef83_2775_b04f_905e),
    ("reversed", 0x77c1_d056_01de_d6ab),
    ("shuffled", 0xb4c9_fd59_dc01_36e5),
];

/// SplitMix64: a tiny seeded generator, so the fixture depends on
/// nothing but the seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// FNV-1a over a canonical rendering.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn index() -> ZoneIndex {
    ZoneIndex::around(GeoPoint::new(43.0731, -89.4012).expect("valid"), 4000.0).expect("valid")
}

fn cell(zone: ZoneId, network: NetworkId, sketch: RunningStats) -> ZoneCellState {
    ZoneCellState {
        zone,
        network,
        epoch: SimDuration::from_hours(1),
        epoch_start: SimTime::EPOCH,
        sketch,
        issued_this_epoch: 0,
        published: None,
        quota: None,
    }
}

/// A sketch of `n` samples around `mean` with relative spread `spread`.
fn sketch(mix: &mut Mix, n: u64, mean: f64, spread: f64) -> RunningStats {
    let values: Vec<f64> = (0..n)
        .map(|_| mean * (1.0 + spread * (2.0 * mix.unit() - 1.0)))
        .collect();
    RunningStats::from_slice(&values)
}

/// Cells on most `(zone, network)` keys of the grid, some keys twice or
/// three times, a few empty sketches, and a few cells outside the grid.
/// Level and variability differ by quadrant and in a small patch, so the
/// tree splits at several depths and keeps multi-zone leaves.
fn fixture(index: &ZoneIndex) -> CoordinatorState {
    let mut mix = Mix(0x5eed_0017);
    let (cols, rows) = (index.grid().cols(), index.grid().rows());
    let mut cells = Vec::new();
    for zone in index.zones() {
        let (col, row) = (zone.0.col, zone.0.row);
        let level = if col >= cols / 2 && row < rows / 2 {
            350.0
        } else {
            800.0
        };
        let patch = (3..=5).contains(&col) && (6..=7).contains(&row);
        let spread = if patch { 0.6 } else { 0.05 };
        for (k, network) in NetworkId::ALL.into_iter().enumerate() {
            if !mix.chance(0.85) {
                continue;
            }
            let mean = level * (1.0 + 0.1 * k as f64) + 3.0 * f64::from(col - row);
            for _ in 0..1 + usize::from(mix.chance(0.15)) + usize::from(mix.chance(0.05)) {
                let s = if mix.chance(0.03) {
                    RunningStats::new()
                } else {
                    let n = 1 + mix.below(30);
                    sketch(&mut mix, n, mean, spread)
                };
                cells.push(cell(zone, network, s));
            }
        }
    }
    for (col, row) in [(-1, 0), (0, rows), (cols, 2), (1, -3), (cols + 4, rows + 1)] {
        let s = sketch(&mut mix, 12, 500.0, 0.1);
        let at = mix.below(cells.len() as u64 + 1) as usize;
        cells.insert(at, cell(ZoneId(CellId::new(col, row)), NetworkId::NetB, s));
    }
    CoordinatorState {
        cells,
        ..CoordinatorState::default()
    }
}

/// The fixture in generated, reversed and Fisher–Yates shuffled order.
fn orders(state: &CoordinatorState) -> [(&'static str, CoordinatorState); 3] {
    let mut reversed = state.clone();
    reversed.cells.reverse();
    let mut shuffled = state.clone();
    let mut mix = Mix(0x0005_4f1e);
    for i in (1..shuffled.cells.len()).rev() {
        let j = mix.below(i as u64 + 1) as usize;
        shuffled.cells.swap(i, j);
    }
    [
        ("generated", state.clone()),
        ("reversed", reversed),
        ("shuffled", shuffled),
    ]
}

/// The ordered-map canonicalizer: every in-grid cell merged into its
/// key's entry in input order. Returns the canonical state (one cell per
/// key, ascending) and the number of cells skipped as outside the grid.
fn reference_canonical(state: &CoordinatorState, index: &ZoneIndex) -> (CoordinatorState, u64) {
    let (cols, rows) = (index.grid().cols(), index.grid().rows());
    let mut canon: BTreeMap<(ZoneId, NetworkId), RunningStats> = BTreeMap::new();
    let mut skipped = 0u64;
    for c in &state.cells {
        let in_grid =
            c.zone.0.col >= 0 && c.zone.0.col < cols && c.zone.0.row >= 0 && c.zone.0.row < rows;
        if !in_grid {
            skipped += 1;
            continue;
        }
        canon
            .entry((c.zone, c.network))
            .or_default()
            .merge(&c.sketch);
    }
    let cells = canon
        .into_iter()
        .map(|((zone, network), s)| cell(zone, network, s))
        .collect();
    let canonical = CoordinatorState {
        cells,
        ..CoordinatorState::default()
    };
    (canonical, skipped)
}

#[test]
fn fixture_exercises_every_canonicalizer_path() {
    let index = index();
    let state = fixture(&index);
    let nets = |n: NetworkId| state.cells.iter().filter(|c| c.network == n).count();
    assert!(NetworkId::ALL.into_iter().all(|n| nets(n) > 100));
    let (canonical, skipped) = reference_canonical(&state, &index);
    assert_eq!(skipped, 5);
    assert!(
        state.cells.len() > canonical.cells.len() + 5 + 20,
        "duplicates"
    );
    assert!(state.cells.iter().any(|c| c.sketch.is_empty()));
    let set = RegionSet::build(&state, &index, &RegionConfig::default());
    let multi_zone = set.regions.iter().filter(|r| r.zones > 1).count();
    let three_nets = set
        .regions
        .iter()
        .filter(|r| r.per_network.len() == 3)
        .count();
    assert!(set.regions.len() > 10 && multi_zone > 3 && three_nets > 3);
}

#[test]
fn sorted_fold_matches_the_ordered_map_fold() {
    let index = index();
    let config = RegionConfig::default();
    for (label, state) in orders(&fixture(&index)) {
        let set = RegionSet::build(&state, &index, &config);
        let (canonical, skipped) = reference_canonical(&state, &index);
        let mut reference = RegionSet::build(&canonical, &index, &config);
        assert_eq!(reference.skipped_cells, 0);
        reference.skipped_cells = skipped;
        assert_eq!(set.skipped_cells, skipped, "{label}");
        assert_eq!(
            region_fingerprint(&set),
            region_fingerprint(&reference),
            "{label}"
        );
    }
}

#[test]
fn region_bytes_match_the_ordered_map_builder() {
    let index = index();
    let config = RegionConfig::default();
    for ((label, state), (golden_label, golden)) in orders(&fixture(&index)).into_iter().zip(GOLDEN)
    {
        assert_eq!(label, golden_label);
        let set = RegionSet::build(&state, &index, &config);
        assert_eq!(fnv(&region_fingerprint(&set)), golden, "{label}");
    }
}
