//! Byte-identity golden for the coordinator's `(zone, network)` cell
//! storage.
//!
//! Seeded op streams drive a pair of coordinators through every surface
//! that touches cell state: check-ins (including points outside the zone
//! index, whose cells interleave with in-index ones in key order — row
//! −1 inside an in-range column, column −1, column ≥ `cols`), reports,
//! quota and epoch installs, `take_range`/`install_cells` migrations
//! (some relabelled onto out-of-index keys), `restore_state` and
//! `flush`. The resulting exported state, alert stream, published map
//! and point lookups are pinned to digests: any change to how cells are
//! stored or walked that moves a single bit fails here.
//!
//! The pipeline workloads and the gated artifacts never create a cell
//! outside the index, so this is the byte-identity proof for the
//! out-of-index part of the walk.

use wiscape_core::{
    state_fingerprint, ChangeAlert, Coordinator, CoordinatorConfig, ZoneCellState, ZoneEstimate,
    ZoneId, ZoneIndex,
};
use wiscape_geo::{CellId, GeoPoint};
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;

/// SplitMix64: a tiny seeded generator, so the op stream depends on
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

fn estimate_line(&((zone, network), e): &((ZoneId, NetworkId), ZoneEstimate)) -> String {
    format!(
        "{:?} {:?} {:x} {:x} {} {:?};",
        zone,
        network,
        e.mean.to_bits(),
        e.std_dev.to_bits(),
        e.samples,
        e.formed_at
    )
}

fn alert_line(a: &ChangeAlert) -> String {
    format!(
        "{:?} {:?} {:x} {:x} {:x} {:?};",
        a.zone,
        a.network,
        a.old_mean.to_bits(),
        a.new_mean.to_bits(),
        a.sigmas.to_bits(),
        a.at
    )
}

struct Grid {
    index: ZoneIndex,
    cols: i32,
    rows: i32,
}

impl Grid {
    fn new() -> Self {
        let center = GeoPoint::new(43.0731, -89.4012).unwrap();
        let index = ZoneIndex::around(center, 2500.0).unwrap();
        let (cols, rows) = (index.grid().cols(), index.grid().rows());
        Self { index, cols, rows }
    }

    fn zone(&self, col: i32, row: i32) -> ZoneId {
        ZoneId(CellId::new(col, row))
    }

    fn inside(&self, mix: &mut Mix) -> ZoneId {
        let col = mix.below(self.cols as u64) as i32;
        let row = mix.below(self.rows as u64) as i32;
        self.zone(col, row)
    }

    /// A zone outside the index, from every region of key order: a
    /// row just off either edge of an in-range column (sorts between
    /// in-index keys), and columns before the first or past the last.
    fn outside(&self, mix: &mut Mix) -> ZoneId {
        let col = mix.below(self.cols as u64) as i32;
        let row = mix.below(self.rows as u64 + 2) as i32 - 1;
        match mix.below(6) {
            0 | 1 => self.zone(col, -1),
            2 => self.zone(col, self.rows),
            3 => self.zone(-1, row),
            4 => self.zone(self.cols, row),
            _ => self.zone(self.cols + 2, row),
        }
    }

    fn any(&self, mix: &mut Mix, p_outside: f64) -> ZoneId {
        if mix.chance(p_outside) {
            self.outside(mix)
        } else {
            self.inside(mix)
        }
    }

    fn point(&self, zone: ZoneId) -> GeoPoint {
        let p = self.index.center_of(zone);
        assert_eq!(self.index.zone_of(&p), zone, "zone center round-trips");
        p
    }
}

fn network(mix: &mut Mix) -> NetworkId {
    NetworkId::ALL[mix.below(3) as usize]
}

/// Throughput level for a cell at `t`: a per-cell base that triples in
/// alternate two-hour regimes, so epochs keep crossing the 2σ alert
/// threshold.
fn level(zone: ZoneId, net: NetworkId, t: SimTime) -> f64 {
    let h = (zone.0.col * 31 + zone.0.row * 7) as i64 + net.index() as i64 * 3;
    let base = 400.0 + 60.0 * h.rem_euclid(11) as f64;
    let regime = (t.as_micros() / 7_200_000_000 + h).rem_euclid(2);
    base * (1.0 + 2.0 * regime as f64)
}

fn samples(mix: &mut Mix, zone: ZoneId, net: NetworkId, t: SimTime) -> Vec<f64> {
    let n = mix.below(24) as usize + 1;
    let lvl = level(zone, net, t);
    (0..n)
        .map(|_| match mix.below(40) {
            0 => f64::NAN,
            1 => -5.0,
            _ => lvl * (0.9 + 0.2 * mix.unit()),
        })
        .collect()
}

/// Moves some migrated cells onto out-of-index keys, so installed
/// overflow cells carry sketches and published estimates into later
/// check-in rollovers and flushes.
fn relabel(grid: &Grid, mix: &mut Mix, cells: &mut [ZoneCellState]) {
    for cell in cells.iter_mut() {
        if mix.chance(0.3) {
            cell.zone = grid.outside(mix);
        }
    }
}

struct Digest {
    fingerprint: u64,
    alerts: u64,
    published: u64,
    probes: u64,
    tracked: usize,
}

fn digest(grid: &Grid, c: &Coordinator) -> Digest {
    let alerts: String = c.alerts().iter().map(alert_line).collect();
    let published: String = c.all_published().iter().map(estimate_line).collect();
    let mut probes = String::new();
    for col in -1..=grid.cols {
        for row in -1..=grid.rows {
            let zone = grid.zone(col, row);
            for net in NetworkId::ALL {
                let sketch = c
                    .current_sketch(zone, net)
                    .map(|s| (s.count(), s.mean().to_bits()));
                let published = c
                    .published(zone, net)
                    .map(|e| estimate_line(&((zone, net), e)));
                probes.push_str(&format!(
                    "{:?} {:?} {:?} {} {:?} {:?};",
                    zone,
                    net,
                    c.zone_epoch(zone, net),
                    c.zone_quota(zone, net),
                    sketch,
                    published
                ));
            }
        }
    }
    Digest {
        fingerprint: fnv(&state_fingerprint(&c.export_state())),
        alerts: fnv(&alerts),
        published: fnv(&published),
        probes: fnv(&probes),
        tracked: c.zones_tracked(),
    }
}

/// Runs one seeded stream over coordinators `a` and `b`; returns both
/// digests plus the number of out-of-index cells and out-of-index
/// alerts seen on `a` (coverage guards, not golden values).
fn run(seed: u64, ops: usize) -> (Digest, Digest, usize, usize) {
    let grid = Grid::new();
    let config = || CoordinatorConfig {
        expected_checkins_per_epoch: 8.0,
        ..CoordinatorConfig::default()
    };
    let mut mix = Mix(seed);
    let mut a = Coordinator::new(grid.index.clone(), config());
    let mut b = Coordinator::new(grid.index.clone(), config());
    let mut t = SimTime::at(1, 6.0);
    let mut tasks = 0u64;
    for _ in 0..ops {
        t = t + SimDuration::from_secs(mix.below(150) as i64);
        let roll = mix.below(100);
        let target = if mix.chance(0.8) { &mut a } else { &mut b };
        match roll {
            0..=39 => {
                let zone = grid.any(&mut mix, 0.2);
                let nets: Vec<NetworkId> = NetworkId::ALL
                    .into_iter()
                    .filter(|_| mix.chance(0.7))
                    .collect();
                let client = ClientId(mix.below(50) as u32);
                let coin = mix.unit();
                tasks += target
                    .client_checkin(client, &grid.point(zone), t, &nets, coin)
                    .len() as u64;
            }
            40..=79 => {
                let zone = grid.any(&mut mix, 0.05);
                let net = network(&mut mix);
                let vals = samples(&mut mix, zone, net, t);
                let _ = target.ingest_samples(zone, net, t, vals.iter().copied());
            }
            80..=85 => {
                let zone = grid.any(&mut mix, 0.3);
                let net = network(&mut mix);
                let quota = mix.below(200) as u32;
                target.set_zone_quota(zone, net, quota);
            }
            86..=91 => {
                let zone = grid.any(&mut mix, 0.3);
                let net = network(&mut mix);
                let epoch = SimDuration::from_mins(5 + mix.below(60) as i64);
                target.set_zone_epoch(zone, net, epoch);
            }
            92..=95 => {
                // A zone-range migration, either direction, with bounds
                // that may themselves lie outside the index.
                let lo = grid.any(&mut mix, 0.3);
                let hi = grid.any(&mut mix, 0.3);
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let (donor, receiver) = if mix.chance(0.5) {
                    (&mut a, &mut b)
                } else {
                    (&mut b, &mut a)
                };
                let mut cells = donor.take_range(lo, hi);
                relabel(&grid, &mut mix, &mut cells);
                receiver.install_cells(cells);
            }
            96 | 97 => {
                // Recovery: restore an export into a fresh coordinator,
                // or over a live one (replacing its cells).
                if mix.chance(0.5) {
                    let mut fresh = Coordinator::new(grid.index.clone(), config());
                    fresh.restore_state(a.export_state());
                    a = fresh;
                } else {
                    b.restore_state(a.export_state());
                }
            }
            _ => target.flush(t),
        }
    }
    let end = t + SimDuration::from_hours(3);
    a.flush(end);
    b.flush(end);
    let outside_cells = a
        .export_state()
        .cells
        .iter()
        .filter(|c| !grid.index.in_bounds(c.zone))
        .count();
    let outside_alerts = a
        .alerts()
        .iter()
        .filter(|al| !grid.index.in_bounds(al.zone))
        .count();
    assert!(tasks > 0, "seed {seed}: the stream issues tasks");
    (
        digest(&grid, &a),
        digest(&grid, &b),
        outside_cells,
        outside_alerts,
    )
}

/// Digests of the states the `BTreeMap`-backed coordinator reached:
/// `(seed, [fingerprint, alerts, published, probes] and tracked cells)`
/// for coordinator `a`, then the same for `b`.
type Golden = (u64, [u64; 4], usize, [u64; 4], usize);

const GOLDEN: [Golden; 4] = [
    (
        1,
        [
            11104128578603772847,
            3619997592555966018,
            2611112382111486265,
            13970478281314763001,
        ],
        253,
        [
            13693699200708552638,
            658044639899567927,
            1488922017034261325,
            727617488794448969,
        ],
        213,
    ),
    (
        2,
        [
            662484333728696900,
            4159338697699526936,
            11090331298509908514,
            14676816259410738559,
        ],
        251,
        [
            1435915697061626441,
            18168468912044445240,
            14324069325369126144,
            5873398275282669160,
        ],
        102,
    ),
    (
        3,
        [
            6476832631639593739,
            9008551090193832410,
            1733153756143950805,
            3639977031719934984,
        ],
        258,
        [
            10653680189032394869,
            6249575517171139405,
            12545293077009781870,
            17291633922940978249,
        ],
        165,
    ),
    (
        4,
        [
            2577287589653371388,
            10932399001389355187,
            3775717745239292093,
            5954923789311832391,
        ],
        266,
        [
            17509158489456298856,
            5730018329682275773,
            4338891666367700699,
            16283820604726677079,
        ],
        188,
    ),
];

#[test]
fn cell_storage_is_byte_identical_to_the_ordered_map() {
    for &(seed, want_a, tracked_a, want_b, tracked_b) in &GOLDEN {
        let (a, b, outside_cells, outside_alerts) = run(seed, 4000);
        assert!(outside_cells > 0, "seed {seed}: overflow cells exercised");
        assert!(outside_alerts > 0, "seed {seed}: overflow alerts exercised");
        let got_a = [a.fingerprint, a.alerts, a.published, a.probes];
        let got_b = [b.fingerprint, b.alerts, b.published, b.probes];
        assert_eq!((got_a, a.tracked), (want_a, tracked_a), "seed {seed}: a");
        assert_eq!((got_b, b.tracked), (want_b, tracked_b), "seed {seed}: b");
    }
}
