//! Client identities and the mobility interface.

use serde::{Deserialize, Serialize};
use wiscape_geo::GeoPoint;
use wiscape_simcore::SimTime;

/// Unique identifier of a measurement client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

impl core::fmt::Display for ClientId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Broad device categories.
///
/// The paper (§3.3) notes that measurements compose *within* a hardware
/// category (laptops/SBCs with cellular modems) but that phones would need
/// normalization; WiScape therefore tracks the category with every sample
/// and aggregates per category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceCategory {
    /// Laptop with a USB or PCMCIA cellular modem.
    LaptopModem,
    /// Single-board computer with a cellular modem (the bus nodes).
    SingleBoardComputer,
    /// Mobile phone (more constrained radio front-end; kept as a separate
    /// composition class).
    Phone,
}

/// A GPS fix: where a client was and how fast it was moving.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PositionFix {
    /// Position.
    pub point: GeoPoint,
    /// Ground speed, meters/second.
    pub speed_mps: f64,
}

/// The stream index under which a client draws day `day`'s randomness
/// (days wrap every 2^20, about 2,870 years).
pub(crate) fn day_key(day: i64) -> u64 {
    day.rem_euclid(1 << 20) as u64
}

/// A measurement client that may be somewhere at a given time.
///
/// Implementations are deterministic: the same `t` always yields the
/// same fix. `None` means the client is offline/out of service.
pub trait MobileClient {
    /// This client's identifier.
    fn id(&self) -> ClientId;

    /// Hardware category (for composition grouping).
    fn category(&self) -> DeviceCategory;

    /// Position fix at time `t`, if in service.
    fn position_at(&self, t: SimTime) -> Option<PositionFix>;

    /// Human-readable platform label (e.g. "transit-bus").
    fn platform(&self) -> &'static str {
        "generic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(GeoPoint);
    impl MobileClient for Fixed {
        fn id(&self) -> ClientId {
            ClientId(7)
        }
        fn category(&self) -> DeviceCategory {
            DeviceCategory::LaptopModem
        }
        fn position_at(&self, _t: SimTime) -> Option<PositionFix> {
            Some(PositionFix {
                point: self.0,
                speed_mps: 0.0,
            })
        }
    }

    #[test]
    fn trait_object_works() {
        let p = GeoPoint::new(43.0, -89.0).unwrap();
        let c: Box<dyn MobileClient> = Box::new(Fixed(p));
        assert_eq!(c.id(), ClientId(7));
        assert_eq!(c.platform(), "generic");
        let fix = c.position_at(SimTime::EPOCH).unwrap();
        assert_eq!(fix.point, p);
        assert_eq!(fix.speed_mps, 0.0);
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(3).to_string(), "client-3");
    }
}
