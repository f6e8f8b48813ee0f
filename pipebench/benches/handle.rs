//! A [`CoordinatorHandle`] wrapper that times each call beneath the
//! channel server, for the traced run.
//!
//! Wrapping a durable coordinator, it also feeds a bare shadow
//! [`Coordinator`] the same commits: the shadow's fold time is the fold
//! share of the durable call, so the rest is the write-ahead log's.

use std::hint::black_box;

use wiscape_core::{
    Coordinator, CoordinatorHandle, IngestError, IngestSummary, MeasurementTask, ZoneCellState,
    ZoneId,
};
use wiscape_geo::GeoPoint;
use wiscape_mobility::ClientId;
use wiscape_simcore::{SimDuration, SimTime};
use wiscape_simnet::NetworkId;

use crate::probe::{span, Op};

/// Counters of the calls that went through the wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandleCounts {
    /// Tasks the coordinator issued.
    pub tasks: u64,
    /// Reports folded.
    pub folded: u64,
    /// Samples folded.
    pub samples: u64,
    /// Reports rejected.
    pub rejected: u64,
}

/// The timing wrapper.
pub struct Traced<C> {
    /// The wrapped handle.
    pub inner: C,
    /// The bare shadow (durable handles only).
    pub shadow: Option<Coordinator>,
    /// Call counters.
    pub counts: HandleCounts,
}

impl<C: CoordinatorHandle> Traced<C> {
    /// Wraps `inner`; pass a shadow when `inner` is durable.
    pub fn new(inner: C, shadow: Option<Coordinator>) -> Self {
        Self {
            inner,
            shadow,
            counts: HandleCounts::default(),
        }
    }

    fn op(&self, bare: Op, durable: Op) -> Op {
        if self.shadow.is_some() {
            durable
        } else {
            bare
        }
    }
}

impl<C: CoordinatorHandle> CoordinatorHandle for Traced<C> {
    fn as_coordinator(&self) -> &Coordinator {
        self.inner.as_coordinator()
    }

    fn checkin_tagged(
        &mut self,
        client: ClientId,
        point: &GeoPoint,
        t: SimTime,
        networks: &[NetworkId],
        coin: f64,
    ) -> Vec<MeasurementTask> {
        let tasks = {
            let _s = span(self.op(Op::CoordCheckin, Op::WalCheckin));
            self.inner.checkin_tagged(client, point, t, networks, coin)
        };
        if let Some(shadow) = self.shadow.as_mut() {
            let _s = span(Op::CoordCheckin);
            black_box(shadow.client_checkin(client, point, t, networks, coin));
        }
        self.counts.tasks += tasks.len() as u64;
        tasks
    }

    fn ingest_samples_tagged<I>(
        &mut self,
        client: ClientId,
        seq: u64,
        zone: ZoneId,
        network: NetworkId,
        t: SimTime,
        samples: I,
    ) -> Result<IngestSummary, IngestError>
    where
        I: Iterator<Item = f64> + ExactSizeIterator + Clone,
    {
        let out = {
            let _s = span(self.op(Op::CoordFold, Op::WalIngest));
            self.inner
                .ingest_samples_tagged(client, seq, zone, network, t, samples.clone())
        };
        if let Some(shadow) = self.shadow.as_mut() {
            let _s = span(Op::CoordFold);
            let _ = black_box(shadow.ingest_samples(zone, network, t, samples));
        }
        match &out {
            Ok(summary) => {
                self.counts.folded += 1;
                self.counts.samples += u64::from(summary.accepted);
            }
            Err(_) => self.counts.rejected += 1,
        }
        out
    }

    fn set_zone_quota_tagged(&mut self, zone: ZoneId, network: NetworkId, quota: u32) {
        self.inner.set_zone_quota_tagged(zone, network, quota);
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.set_zone_quota(zone, network, quota);
        }
    }

    fn set_zone_epoch_tagged(&mut self, zone: ZoneId, network: NetworkId, epoch: SimDuration) {
        self.inner.set_zone_epoch_tagged(zone, network, epoch);
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.set_zone_epoch(zone, network, epoch);
        }
    }

    fn flush_tagged(&mut self, now: SimTime) {
        {
            let _s = span(self.op(Op::CoordFlush, Op::WalFlush));
            self.inner.flush_tagged(now);
        }
        if let Some(shadow) = self.shadow.as_mut() {
            let _s = span(Op::CoordFlush);
            shadow.flush(now);
        }
    }

    fn migrate_out_tagged(&mut self, lo: ZoneId, hi: ZoneId) -> Vec<ZoneCellState> {
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.take_range(lo, hi);
        }
        self.inner.migrate_out_tagged(lo, hi)
    }

    fn migrate_in_tagged(&mut self, cells: Vec<ZoneCellState>) {
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.install_cells(cells.clone());
        }
        self.inner.migrate_in_tagged(cells);
    }
}
