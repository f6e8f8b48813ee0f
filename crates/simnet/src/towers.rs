//! Procedural cell-tower layouts.
//!
//! Each operator's towers are modeled as a jittered square lattice: cell
//! `(i, j)` of spacing `S` contains exactly one tower, displaced from the
//! cell center by a deterministic hash-based jitter. The lattice is
//! *procedural and unbounded* — the nearest tower to any point is found
//! within the 3×3 neighborhood of lattice cells — so the same layout
//! covers the Madison city area and the 240 km Madison–Chicago corridor
//! without precomputation.
//!
//! Different operators use different stream labels (and therefore
//! different jitters and phases), which is what makes one network beat
//! another in some places and lose in others — the origin of the paper's
//! persistent-dominance structure (§4.2.1).

use serde::{Deserialize, Serialize};
use wiscape_geo::{GeoPoint, LocalProjection, Vec2};
use wiscape_simcore::StreamRng;

/// Width of the box a cell's tower is jittered within, as a fraction of
/// the lattice spacing: ±35% around the cell center.
const JITTER_SPAN: f64 = 0.7;

/// Relative margin by which a neighbor's jitter box must be farther
/// (in squared distance) than the query cell's own tower before the
/// neighbor's tower is skipped. Rounding moves a computed tower or box
/// edge by a few ulps of the coordinates, and a neighbor's box lies at
/// least 0.15 spacings from the query point, so this margin covers that
/// error for any projected point within about 3e8 spacings of the
/// origin (the whole Earth at the 1 m spacing floor).
const PRUNE_MARGIN: f64 = 1e-6;

/// A procedural tower lattice for one operator.
#[derive(Debug, Clone)]
pub struct TowerLayout {
    proj: LocalProjection,
    spacing_m: f64,
    stream: StreamRng,
}

/// Position and distance of the nearest tower to a query point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NearestTower {
    /// Tower position in local meters.
    pub position: Vec2,
    /// Distance from the query point, in meters.
    pub distance_m: f64,
}

impl TowerLayout {
    /// Creates a layout with the given lattice `spacing_m`, anchored at
    /// the projection origin, randomized by `stream`.
    pub fn new(proj: LocalProjection, spacing_m: f64, stream: StreamRng) -> Self {
        Self {
            proj,
            spacing_m: spacing_m.max(1.0),
            stream,
        }
    }

    /// Lattice spacing in meters.
    pub fn spacing_m(&self) -> f64 {
        self.spacing_m
    }

    /// The tower inside lattice cell `(i, j)`, in local meters.
    fn tower_in_cell(&self, i: i64, j: i64) -> Vec2 {
        let zi = ((i << 1) ^ (i >> 63)) as u64;
        let zj = ((j << 1) ^ (j >> 63)) as u64;
        let node = self.stream.fork_idx(zi).fork_idx(zj);
        // Jitter within +/- 35% of spacing keeps towers well separated.
        let jx = (node.fork_idx(0).draw_unit_f64() - 0.5) * JITTER_SPAN * self.spacing_m;
        let jy = (node.fork_idx(1).draw_unit_f64() - 0.5) * JITTER_SPAN * self.spacing_m;
        Vec2::new(
            (i as f64 + 0.5) * self.spacing_m + jx,
            (j as f64 + 0.5) * self.spacing_m + jy,
        )
    }

    /// Squared distance from `v` to the jitter box of cell `(i, j)`, the
    /// box its tower lies in.
    fn box_distance2(&self, i: i64, j: i64, v: &Vec2) -> f64 {
        let half = JITTER_SPAN / 2.0 * self.spacing_m;
        let gap = |cell: i64, x: f64| {
            let center = (cell as f64 + 0.5) * self.spacing_m;
            (center - half - x).max(x - (center + half)).max(0.0)
        };
        let (dx, dy) = (gap(i, v.x), gap(j, v.y));
        dx * dx + dy * dy
    }

    /// The nearest tower to geographic point `p`.
    pub fn nearest(&self, p: &GeoPoint) -> NearestTower {
        self.nearest_xy(&self.proj.to_xy(p))
    }

    /// The nearest tower to projected position `v`: the first strict
    /// minimum of the distance over the 3×3 cells around `v`'s cell, in
    /// `(di, dj)` order.
    ///
    /// The tower of `v`'s own cell is placed first. A neighbor whose
    /// jitter box is farther from `v` than that tower (by more than
    /// [`PRUNE_MARGIN`]) holds a tower strictly farther than the
    /// minimum, which can therefore never be the first minimum, so its
    /// tower is never hashed; the rest are scanned in the full scan's
    /// order with its strict `<`, giving its result bit for bit.
    fn nearest_xy(&self, v: &Vec2) -> NearestTower {
        let ci = (v.x / self.spacing_m).floor() as i64;
        let cj = (v.y / self.spacing_m).floor() as i64;
        let own = self.tower_in_cell(ci, cj);
        let own_distance = own.distance(v);
        let prune_distance2 = own_distance * own_distance * (1.0 + PRUNE_MARGIN);
        let mut best = NearestTower {
            position: Vec2::default(),
            distance_m: f64::INFINITY,
        };
        for di in -1..=1 {
            for dj in -1..=1 {
                let (t, d) = if (di, dj) == (0, 0) {
                    (own, own_distance)
                } else if self.box_distance2(ci + di, cj + dj, v) > prune_distance2 {
                    continue;
                } else {
                    let t = self.tower_in_cell(ci + di, cj + dj);
                    (t, t.distance(v))
                };
                if d < best.distance_m {
                    best = NearestTower {
                        position: t,
                        distance_m: d,
                    };
                }
            }
        }
        best
    }

    /// Signal-quality factor in `(0, 1]` from tower proximity: `1` at the
    /// tower, decaying smoothly with distance (half-quality at roughly
    /// 0.8 lattice spacings). This feeds the throughput field; it is a
    /// coarse path-loss proxy, not an RF model — the paper itself found
    /// RSSI uncorrelated with application throughput (§5) and discarded
    /// it, so only the *spatial structure* matters here.
    pub fn proximity_factor(&self, p: &GeoPoint) -> f64 {
        let d = self.nearest(p).distance_m / self.spacing_m;
        1.0 / (1.0 + (d / 0.8).powi(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(seed: u64) -> TowerLayout {
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        TowerLayout::new(
            LocalProjection::new(origin),
            2000.0,
            StreamRng::new(seed).fork("towers"),
        )
    }

    #[test]
    fn nearest_is_deterministic() {
        let a = layout(1);
        let b = layout(1);
        let p = GeoPoint::new(43.08, -89.39).unwrap();
        assert_eq!(a.nearest(&p), b.nearest(&p));
    }

    #[test]
    fn nearest_distance_is_bounded_by_lattice_geometry() {
        let l = layout(2);
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        // Jitter is ±35% of spacing, so the farthest possible point from
        // every tower is well under 1.5 lattice diagonals.
        let max_possible = 1.5 * l.spacing_m() * std::f64::consts::SQRT_2;
        for i in 0..200 {
            let p = origin.destination((i as f64) * 0.37, (i as f64) * 97.0);
            let d = l.nearest(&p).distance_m;
            assert!(d >= 0.0 && d < max_possible, "d = {d}");
        }
    }

    #[test]
    fn different_operators_have_different_layouts() {
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        let proj = LocalProjection::new(origin);
        let root = StreamRng::new(7);
        let a = TowerLayout::new(proj, 2000.0, root.fork("netA"));
        let b = TowerLayout::new(proj, 2000.0, root.fork("netB"));
        let p = GeoPoint::new(43.09, -89.41).unwrap();
        assert_ne!(a.nearest(&p).position, b.nearest(&p).position);
    }

    #[test]
    fn proximity_factor_in_range_and_decays() {
        let l = layout(3);
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        let near_tower = {
            // Find a point near a tower by querying the nearest tower to
            // the origin and moving there.
            let t = l.nearest(&origin);
            let proj = LocalProjection::new(origin);
            proj.from_xy(&t.position)
        };
        let at_tower = l.proximity_factor(&near_tower);
        assert!(at_tower > 0.95, "at tower: {at_tower}");
        // A point far from that tower has a lower factor.
        let mut worst: f64 = 1.0;
        for i in 0..50 {
            let p = origin.destination(i as f64 * 0.5, 900.0 + i as f64 * 37.0);
            worst = worst.min(l.proximity_factor(&p));
            assert!((0.0..=1.0).contains(&l.proximity_factor(&p)));
        }
        assert!(worst < at_tower);
    }

    #[test]
    fn proximity_is_continuous_along_a_path() {
        let l = layout(4);
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        let mut prev = l.proximity_factor(&origin);
        for i in 1..2000 {
            let p = origin.destination(1.1, i as f64 * 5.0);
            let cur = l.proximity_factor(&p);
            assert!((cur - prev).abs() < 0.05, "jump at step {i}");
            prev = cur;
        }
    }

    /// The scan [`TowerLayout::nearest`] replaced: every tower of the 3×3
    /// neighborhood, in `(di, dj)` order, keeping the first strict
    /// minimum.
    fn nearest_full_scan(l: &TowerLayout, v: &Vec2) -> NearestTower {
        let ci = (v.x / l.spacing_m).floor() as i64;
        let cj = (v.y / l.spacing_m).floor() as i64;
        let mut best = NearestTower {
            position: Vec2::default(),
            distance_m: f64::INFINITY,
        };
        for di in -1..=1 {
            for dj in -1..=1 {
                let t = l.tower_in_cell(ci + di, cj + dj);
                let d = t.distance(v);
                if d < best.distance_m {
                    best = NearestTower {
                        position: t,
                        distance_m: d,
                    };
                }
            }
        }
        best
    }

    fn tower_bits(t: &NearestTower) -> [u64; 3] {
        [
            t.position.x.to_bits(),
            t.position.y.to_bits(),
            t.distance_m.to_bits(),
        ]
    }

    #[test]
    fn pruned_scan_matches_full_scan_bitwise() {
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        let proj = LocalProjection::new(origin);
        let (mut checked, mut neighbor_wins) = (0, 0);
        let mut check = |l: &TowerLayout, v: &Vec2, got: NearestTower| {
            let want = nearest_full_scan(l, v);
            assert_eq!(tower_bits(&got), tower_bits(&want), "{v:?}");
            let ci = (v.x / l.spacing_m).floor() as i64;
            let cj = (v.y / l.spacing_m).floor() as i64;
            neighbor_wins += usize::from(want.position != l.tower_in_cell(ci, cj));
            checked += 1;
        };
        // The constructor's 1 m floor, where rounding is largest against
        // the spacing, and every preset's lattice spacing.
        for spacing in [1.0, 2100.0, 2200.0, 2400.0, 2500.0, 2600.0] {
            let far = (40_000.0 / spacing) as i64 - 1;
            for seed in 0..20 {
                let l = TowerLayout::new(proj, spacing, StreamRng::new(seed).fork("towers"));
                // Random points within ±40 km of the origin, through the
                // public geographic query.
                let draws = StreamRng::new(seed).fork("points");
                for k in 0..150 {
                    let u = |axis| draws.fork_idx(k).fork_idx(axis).draw_unit_f64();
                    let xy = Vec2::new((u(0) - 0.5) * 80_000.0, (u(1) - 0.5) * 80_000.0);
                    let p = proj.from_xy(&xy);
                    check(&l, &proj.to_xy(&p), l.nearest(&p));
                }
                // Cell corners and edges, the jitter boxes' edges, cell
                // centers and the towers themselves, on both sides of
                // the origin.
                for i in [-far, -3, -1, 0, 2, far] {
                    for j in [-far, -1, 0, 1, far] {
                        let mut points: Vec<Vec2> = [0.0, 0.15, 0.5, 0.85]
                            .iter()
                            .flat_map(|fx| {
                                [0.0, 0.15, 0.5, 0.85].iter().map(move |fy| {
                                    Vec2::new((i as f64 + fx) * spacing, (j as f64 + fy) * spacing)
                                })
                            })
                            .collect();
                        points.push(l.tower_in_cell(i, j));
                        for v in points {
                            check(&l, &v, l.nearest_xy(&v));
                        }
                    }
                }
            }
        }
        assert!(neighbor_wins > checked / 20, "{neighbor_wins} of {checked}");
    }

    #[test]
    fn negative_coordinates_have_towers_too() {
        let l = layout(5);
        let origin = GeoPoint::new(43.0731, -89.4012).unwrap();
        let south_west = origin.destination(std::f64::consts::PI * 1.25, 30_000.0);
        let d = l.nearest(&south_west).distance_m;
        assert!(d.is_finite() && d < 1.5 * l.spacing_m() * std::f64::consts::SQRT_2);
    }
}
