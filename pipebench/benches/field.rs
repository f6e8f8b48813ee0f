//! The synthetic throughput field every workload samples from.
//!
//! Zone means carry smooth large-scale structure plus a finer ripple, so
//! the region quadtree splits every large node; the three networks differ by
//! a few percent. Within-zone noise is 4% everywhere except in planted
//! chronic patches, where it is 30% in the core and 15% in a ring around
//! it (the paper's Fig 9 contrast between degraded and healthy zones).
//! The patch list is the ground truth `score_patches` checks recall
//! against.

use wiscape_core::{ZoneId, ZoneIndex};
use wiscape_region::PatchTruth;
use wiscape_simcore::StreamRng;
use wiscape_simnet::NetworkId;

/// A splitmix64 sequence: cheap bulk draws seeded from a [`StreamRng`]
/// node, so generation stays a pure function of the workload seed.
pub struct Draws(u64);

impl Draws {
    /// A sequence rooted at `node`.
    pub fn new(node: StreamRng) -> Self {
        Self(node.draw_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Side of the aligned grid blocks patches are planted in.
const BLOCK: i32 = 8;
const CORE_RADIUS: f64 = 2.3;
const RING_RADIUS: f64 = 3.6;
const BASE_NOISE: f64 = 0.04;
const RING_NOISE: f64 = 0.15;
const CORE_NOISE: f64 = 0.30;

/// Zone-level throughput field with planted chronic patches.
pub struct Field {
    cols: i32,
    rows: i32,
    patches: Vec<(i32, i32)>,
    /// Per-zone noise fraction, row-major over the grid.
    noise: Vec<f32>,
}

impl Field {
    /// A field over `index` with `patches` planted patches whose centres
    /// are drawn from `stream`.
    pub fn new(index: &ZoneIndex, patches: usize, stream: StreamRng) -> Self {
        let (cols, rows) = (index.grid().cols(), index.grid().rows());
        let mut draws = Draws::new(stream.fork("patches"));
        // Each patch sits whole inside one aligned 8x8 block of the grid
        // (the quadtree's node boundaries), in blocks that do not touch.
        let (bx, by) = ((cols / BLOCK).max(0) as u64, (rows / BLOCK).max(0) as u64);
        let mut blocks: Vec<(i32, i32)> = Vec::with_capacity(patches);
        for _ in 0..patches * 64 {
            if blocks.len() == patches || bx == 0 || by == 0 {
                break;
            }
            let b = (draws.below(bx) as i32, draws.below(by) as i32);
            if blocks
                .iter()
                .all(|&(x, y)| (x - b.0).abs() > 1 || (y - b.1).abs() > 1)
            {
                blocks.push(b);
            }
        }
        let centres: Vec<(i32, i32)> = blocks
            .iter()
            .map(|&(x, y)| (x * BLOCK + BLOCK / 2, y * BLOCK + BLOCK / 2))
            .collect();
        let mut noise = vec![BASE_NOISE as f32; (cols.max(0) * rows.max(0)) as usize];
        for &(pc, pr) in &centres {
            let reach = RING_RADIUS.ceil() as i32;
            for r in (pr - reach)..=(pr + reach) {
                for c in (pc - reach)..=(pc + reach) {
                    let d = f64::from((c - pc).pow(2) + (r - pr).pow(2)).sqrt();
                    let level = if d <= CORE_RADIUS {
                        CORE_NOISE
                    } else if d <= RING_RADIUS {
                        RING_NOISE
                    } else {
                        continue;
                    };
                    let i = (r * cols + c) as usize;
                    noise[i] = noise[i].max(level as f32);
                }
            }
        }
        Self {
            cols,
            rows,
            patches: centres,
            noise,
        }
    }

    fn cell(&self, zone: ZoneId) -> Option<usize> {
        let (c, r) = (zone.0.col, zone.0.row);
        (c >= 0 && r >= 0 && c < self.cols && r < self.rows).then(|| (r * self.cols + c) as usize)
    }

    /// Mean throughput (kbit/s) of `network` in `zone`.
    pub fn mean(&self, zone: ZoneId, network: NetworkId) -> f64 {
        let (c, r) = (f64::from(zone.0.col), f64::from(zone.0.row));
        let net = match network {
            NetworkId::NetA => 1.0,
            NetworkId::NetB => 0.97,
            NetworkId::NetC => 1.03,
        };
        let base = 800.0 + 250.0 * (c / 37.0).sin() * (r / 29.0).cos();
        let ripple = 200.0 * (c / 4.0).sin() * (r / 5.0).sin();
        net * (base + ripple)
    }

    /// Appends `n` samples of `network` in `zone` to `out`.
    pub fn sample_into(
        &self,
        zone: ZoneId,
        network: NetworkId,
        n: usize,
        draws: &mut Draws,
        out: &mut Vec<f64>,
    ) {
        let mean = self.mean(zone, network);
        let frac = self
            .cell(zone)
            .map_or(BASE_NOISE, |i| f64::from(self.noise[i]));
        // Uniform noise with standard deviation `frac` of the mean.
        let half_width = frac * 3f64.sqrt();
        for _ in 0..n {
            out.push(mean * (1.0 + half_width * (2.0 * draws.unit() - 1.0)));
        }
    }

    /// The planted patches as scoring truth: core zones must be
    /// recalled, ring zones count as correct flags.
    pub fn truth(&self) -> PatchTruth {
        let mut core = Vec::new();
        let mut affected = Vec::new();
        for &(pc, pr) in &self.patches {
            let reach = RING_RADIUS.ceil() as i32;
            for r in (pr - reach)..=(pr + reach) {
                for c in (pc - reach)..=(pc + reach) {
                    let d = f64::from((c - pc).pow(2) + (r - pr).pow(2)).sqrt();
                    let zone = ZoneId(wiscape_geo::CellId::new(c, r));
                    if d <= CORE_RADIUS {
                        core.push(zone);
                    }
                    if d <= RING_RADIUS {
                        affected.push(zone);
                    }
                }
            }
        }
        PatchTruth {
            core_zones: core,
            affected_zones: affected,
        }
    }

    /// Number of planted patches.
    pub fn patches(&self) -> usize {
        self.patches.len()
    }
}
