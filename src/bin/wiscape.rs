//! `wiscape` — command-line front end for the WiScape reproduction.
//!
//! ```text
//! wiscape map    [--seed N] [--hours H] [--loss P] [--out map.csv] [--obs OBS.json]
//!                [--wal DIR] [--crash-seed N] [--recover DIR]
//!                [--shards N] [--rebalance-seed S]
//!                [--regions REGIONS.csv] [--hotspots HOTSPOTS.json]
//!                                                           run a deployment, dump the zone map
//!
//!   --wal DIR         route the coordinator through the wiscape-wal event
//!                     log under DIR (write-ahead; with --loss, reports are
//!                     acked when staged and logged when committed, at the
//!                     end of the run)
//!   --crash-seed N    with --wal: deterministically kill and recover the
//!                     coordinator mid-run; the map must stay byte-identical
//!   --recover DIR     skip the simulation entirely: rebuild the coordinator
//!                     from the WAL under DIR (snapshot + replay) and dump
//!                     the zone map it had published; a DIR with no WAL of
//!                     its own (such as a --shards run's) exits 2
//!   --shards N        shard the coordinator into N zone ranges behind the
//!                     one channel server; the map is byte-identical to
//!                     the single-coordinator run for any N. With --wal,
//!                     each shard logs under DIR/shard-<i>.
//!   --rebalance-seed S with --shards: apply a seeded zone-range rebalance
//!                     at the midpoint of the run (still byte-identical)
//!   --regions PATH    also run the adaptive regionalizer (`wiscape-region`)
//!                     over the final coordinator state and dump the merged
//!                     region map as CSV (see ANALYTICS.md)
//!   --hotspots PATH   also run the chronic-patch localizer over the adaptive
//!                     regions and write the ranked hotspot report as JSON
//!
//! wiscape trace  <standalone|wirover|spot|short-segment>
//!                [--seed N] [--days D] [--region wi|nj] [--out trace.csv]
//!                                                           regenerate a dataset as CSV
//! wiscape epoch  [--seed N] [--days D] [--region wi|nj]     Allan-deviation epoch profile
//! wiscape quality [--seed N] [--region wi|nj] [--lat L --lon L] [--hour H]
//!                                                           ground-truth link quality lookup
//! ```
//!
//! Every command exits 2 on a flag its usage line does not list.
//!
//! Every `map` run except `--recover` goes through the one topology
//! runner, `wiscape_experiments::topology::run` (fig15 uses it too): it
//! builds the coordinator handle that `--shards` and `--wal` pick
//! (`--shards 1` is the single coordinator), applies `--rebalance-seed`
//! at the midpoint, drains, and shuts every WAL down. The flag checks
//! that reject combinations no run can honour live beside it, in
//! `Topology::new`.

use wiscape::datasets::{save_csv, short_segment, spot, standalone, wirover};
use wiscape::experiments::topology::{self, Rebalance, RunSummary, Topology};
use wiscape::prelude::*;

struct Args {
    flags: std::collections::BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut flags = std::collections::BTreeMap::new();
        let mut positional = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = raw
                    .next()
                    .unwrap_or_else(|| die(&format!("--{name} needs a value")));
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Self { flags, positional }
    }

    fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.opt_u64(name).unwrap_or(default)
    }

    fn opt_u64(&self, name: &str) -> Option<u64> {
        self.flags.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("--{name}: not an integer: {v}")))
        })
    }

    fn f64_flag(&self, name: &str, default: f64) -> f64 {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name}: not a number: {v}")))
            })
            .unwrap_or(default)
    }

    fn str_flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Exits 2 on a flag that `command`'s usage line (`known`) does not
    /// list, so a misspelt flag fails instead of being ignored.
    fn reject_unknown(&self, command: &str, known: &[&str]) {
        if let Some(name) = self.flags.keys().find(|n| !known.contains(&n.as_str())) {
            let known: Vec<String> = known.iter().map(|n| format!("--{n}")).collect();
            die(&format!(
                "{command}: unknown flag --{name} (it takes {})",
                known.join(", ")
            ));
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("wiscape: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  wiscape map     [--seed N] [--hours H] [--loss P] [--out map.csv] [--obs OBS.json]\n                  \
         [--wal DIR] [--crash-seed N] [--recover DIR] [--shards N] [--rebalance-seed S]\n                  \
         [--regions REGIONS.csv] [--hotspots HOTSPOTS.json]\n  \
         wiscape trace   <standalone|wirover|spot|short-segment> [--seed N] [--days D] [--region wi|nj]\n                  \
         [--out trace.csv]\n  \
         wiscape epoch   [--seed N] [--days D] [--region wi|nj]\n  \
         wiscape quality [--seed N] [--region wi|nj] [--lat L --lon L] [--hour H]"
    );
    std::process::exit(2);
}

fn landscape(args: &Args) -> Landscape {
    let seed = args.u64_flag("seed", 7);
    match args.str_flag("region").unwrap_or("wi") {
        "wi" => Landscape::new(LandscapeConfig::madison(seed)),
        "nj" => Landscape::new(LandscapeConfig::new_brunswick(seed)),
        other => die(&format!("unknown region '{other}' (wi|nj)")),
    }
}

/// The flags of `map`'s usage line.
const MAP_FLAGS: [&str; 12] = [
    "seed",
    "hours",
    "loss",
    "out",
    "obs",
    "wal",
    "crash-seed",
    "recover",
    "shards",
    "rebalance-seed",
    "regions",
    "hotspots",
];

fn cmd_map(args: &Args) {
    args.reject_unknown("map", &MAP_FLAGS);
    let seed = args.u64_flag("seed", 7);
    let hours = args.f64_flag("hours", 8.0);
    let loss = args.f64_flag("loss", 0.0);
    if !(0.0..=1.0).contains(&loss) {
        die(&format!("--loss: must be in [0, 1], got {loss}"));
    }
    let start = SimTime::at(1, 7.0);
    // The run ends at `start + window`, which must fit the i64
    // microsecond clock; NaN and infinities fail these comparisons.
    let window_us = hours * 3600.0 * 1e6;
    if !(hours > 0.0 && window_us < (i64::MAX - start.as_micros()) as f64) {
        die(&format!(
            "--hours: must be > 0 and fit the clock, got {hours}"
        ));
    }
    let window = SimDuration::from_secs_f64(hours * 3600.0);
    let shards = args
        .opt_u64("shards")
        .map(|n| usize::try_from(n).unwrap_or_else(|_| die(&format!("--shards: too large: {n}"))));
    let wal_dir = args.str_flag("wal").map(std::path::PathBuf::from);
    let crash_seed = args.opt_u64("crash-seed");
    let mut topology = Topology::new(shards, args.opt_u64("rebalance-seed"), wal_dir, crash_seed)
        .unwrap_or_else(|e| die(&e.message("--crash-seed")));
    // `--shards 1` is the single coordinator here (`repro` keeps it as
    // a one-shard set).
    topology.shards = topology.shards.filter(|&n| n > 1);
    // Telemetry comes from the shared obs registry: on for --obs (to
    // dump a snapshot) and for lossy runs (to print the channel/ingest
    // meters below).
    let obs_path = args.str_flag("obs");
    if obs_path.is_some() || loss > 0.0 {
        wiscape::obs::set_enabled(true);
    }
    let land = landscape(args);
    let index = ZoneIndex::around(land.origin(), 7000.0).expect("valid zone index");
    let config = if loss > 0.0 {
        report_loss(loss)
    } else {
        perfect_link()
    };
    // --recover: no simulation at all. Rebuild the coordinator from the
    // WAL directory (latest snapshot + log replay) and dump the zone map
    // it had published — byte-identical to the run that wrote the log.
    if let Some(dir) = args.str_flag("recover") {
        let (recovered, report) = wiscape::wal::DurableCoordinator::recover(
            std::path::Path::new(dir),
            index,
            config.deployment.coordinator.clone(),
            wiscape::wal::WalOptions::default(),
        )
        .unwrap_or_else(|e| die(&recover_error(dir, e)));
        eprintln!(
            "recovered: snapshot at {} records, {} replayed, {} torn bytes truncated, {} records",
            report.snapshot_records, report.replayed, report.torn_bytes, report.records
        );
        emit_map(args, recovered.coordinator_ref(), obs_path);
        return;
    }
    let mut fleet = Fleet::new(seed);
    fleet
        .add_transit_buses(5, land.origin(), 6000.0, 10)
        .add_static_spot(land.origin());
    let window_micros = u64::try_from(window.as_micros()).unwrap_or(0);
    let window = (start, start + window);
    topology::run(
        &topology,
        land,
        fleet,
        index,
        config,
        window,
        |coordinator, run| {
            wiscape::obs::span("map/sim_window").record_micros(window_micros);
            print_run(run, loss, topology.shards);
            emit_map(args, coordinator, obs_path);
        },
    )
    .unwrap_or_else(|e| die(&e.to_string()));
}

/// The message for a failed `--recover DIR`. Recovery refuses a
/// directory that holds no WAL of its own before writing to it; when
/// DIR holds the `shard-<i>` WALs of a `--shards N --wal DIR` run
/// instead, they are named, since `--recover` does not rebuild a
/// sharded map.
fn recover_error(dir: &str, e: wiscape::wal::WalError) -> String {
    let msg = format!("recover {dir}: {e}");
    if e != wiscape::wal::NO_WAL {
        return msg;
    }
    let mut shards: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let shard = path.file_name()?.to_str()?.strip_prefix("shard-")?;
            Some((shard.parse().ok()?, path)).filter(|(_, p)| p.is_dir())
        })
        .collect();
    if shards.is_empty() {
        return msg;
    }
    shards.sort();
    let names: Vec<String> = shards
        .iter()
        .map(|(_, p)| p.display().to_string())
        .collect();
    format!(
        "{msg}; it holds only the per-shard WALs of a --shards run ({}), \
         and --recover rebuilds one coordinator's WAL, not a sharded map",
        names.join(", ")
    )
}

/// The run's stderr report: the rebalance, the deployment counters, the
/// channel and ingest meters of a lossy run, and the summed WAL meters.
fn print_run(run: &RunSummary, loss: f64, shards: Option<usize>) {
    match run.rebalance {
        Some(Rebalance::Moved { cells, from, to }) => {
            eprintln!("rebalance: moved {cells} cells from shard {from} to shard {to}")
        }
        Some(Rebalance::NoMove) => eprintln!("rebalance: no applicable move (single range?)"),
        None => {}
    }
    let stats = run.stats;
    eprintln!(
        "deployment: {} checkins, {} tasks, {} packets requested",
        stats.checkins, stats.tasks_issued, stats.packets_requested
    );
    if loss > 0.0 {
        // Ingest-hygiene meters come from the shared obs registry —
        // the same counters every instrumented layer reports through —
        // so the CLI shows the server's dedup drops *and* the
        // coordinator's malformed-sample drops side by side.
        eprintln!(
            "channel: {} control bytes, {} retries, {} duplicates dropped, {} reports pending",
            run.meters.control_bytes(),
            wiscape::obs::counter("channel/uplink_retries").get(),
            wiscape::obs::counter("channel/server_duplicates_dropped").get(),
            run.pending_reports
        );
        eprintln!(
            "ingest: {} reports ingested, {} rejected, {} malformed samples dropped",
            wiscape::obs::counter("channel/server_reports_ingested").get(),
            wiscape::obs::counter("channel/server_reports_rejected").get(),
            wiscape::obs::counter("coordinator/malformed_dropped").get()
        );
    }
    if let Some(m) = run.wal {
        let suffix = shards.map(|n| format!(" ({n} shards)")).unwrap_or_default();
        eprintln!(
            "wal: {} records, {} bytes, {} snapshots, {} recoveries{suffix}",
            m.records, m.bytes_appended, m.snapshots, m.recoveries
        );
    }
}

fn emit_map(args: &Args, coordinator: &Coordinator, obs_path: Option<&str>) {
    let published = coordinator.all_published();
    let mut out =
        String::from("zone_col,zone_row,lat_deg,lon_deg,network,mean_kbps,std_kbps,samples\n");
    for ((zone, network), e) in &published {
        let c = coordinator.index().center_of(*zone);
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{},{:.1},{:.1},{}\n",
            zone.0.col,
            zone.0.row,
            c.lat_deg(),
            c.lon_deg(),
            network,
            e.mean,
            e.std_dev,
            e.samples
        ));
    }
    match args.str_flag("out") {
        Some(path) => {
            std::fs::write(path, out).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!("{} zone estimates -> {path}", published.len());
        }
        None => print!("{out}"),
    }
    if let Some(path) = obs_path {
        wiscape::obs::write_snapshot(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&format!("write obs snapshot {path}: {e}")));
        eprintln!("obs snapshot -> {path}");
    }
    emit_regions(args, coordinator);
}

/// `--regions` / `--hotspots`: run the analytics layer (`wiscape-region`)
/// over the final coordinator state — adaptive quadtree partition and
/// the chronic-patch localizer on top of it (see ANALYTICS.md).
fn emit_regions(args: &Args, coordinator: &Coordinator) {
    let regions_path = args.str_flag("regions");
    let hotspots_path = args.str_flag("hotspots");
    if regions_path.is_none() && hotspots_path.is_none() {
        return;
    }
    let state = coordinator.export_state();
    let set = wiscape::region::RegionSet::build(
        &state,
        coordinator.index(),
        &wiscape::region::RegionConfig::default(),
    );
    if let Some(path) = regions_path {
        let mut out =
            String::from("col0,row0,size,zones,samples,mean_kbps,rel_std_pct,within_rel_std_pct\n");
        for r in &set.regions {
            out.push_str(&format!(
                "{},{},{},{},{},{:.1},{:.2},{:.2}\n",
                r.id.col0,
                r.id.row0,
                r.id.size,
                r.zones,
                r.samples(),
                r.mean(),
                r.rel_std() * 100.0,
                r.within_rel_std() * 100.0
            ));
        }
        std::fs::write(path, out).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("{} adaptive regions -> {path}", set.regions.len());
    }
    if let Some(path) = hotspots_path {
        let spots =
            wiscape::region::locate_hotspots(&set, &wiscape::region::HotspotConfig::default());
        #[derive(serde::Serialize)]
        struct HotspotReport {
            regions: usize,
            hotspots: Vec<wiscape::region::Hotspot>,
        }
        let n = spots.len();
        let report = HotspotReport {
            regions: set.regions.len(),
            hotspots: spots,
        };
        let body = serde_json::to_string_pretty(&report)
            .unwrap_or_else(|e| die(&format!("serialize hotspot report: {e}")));
        std::fs::write(path, body).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("{n} hotspot candidates -> {path}");
    }
}

/// The flags of `trace`'s usage line.
const TRACE_FLAGS: [&str; 4] = ["seed", "days", "region", "out"];

fn cmd_trace(args: &Args) {
    args.reject_unknown("trace", &TRACE_FLAGS);
    let seed = args.u64_flag("seed", 7);
    let days = args.u64_flag("days", 2) as i64;
    let land = landscape(args);
    let which = args
        .positional
        .get(1)
        .unwrap_or_else(|| die("trace needs a dataset name"));
    let ds = match which.as_str() {
        "standalone" => standalone::generate(
            &land,
            seed,
            &standalone::StandaloneParams {
                days,
                ..Default::default()
            },
        ),
        "wirover" => wirover::generate(
            &land,
            seed,
            &wirover::WiRoverParams {
                days,
                ..Default::default()
            },
        ),
        "spot" => {
            let p = wiscape::datasets::representative_static_locations(&land, 1, 5000.0, 100.0)[0]
                .point;
            spot::generate(
                &land,
                ClientId(0),
                p,
                &spot::SpotParams {
                    days,
                    ..Default::default()
                },
            )
        }
        "short-segment" => short_segment::generate(
            &land,
            seed,
            &short_segment::ShortSegmentParams {
                days,
                ..Default::default()
            },
        ),
        other => die(&format!("unknown dataset '{other}'")),
    };
    eprintln!("{}: {} records over {days} day(s)", ds.name, ds.len());
    match args.str_flag("out") {
        Some(path) => {
            save_csv(&ds, std::path::Path::new(path))
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!("-> {path}");
        }
        None => {
            let mut buf = Vec::new();
            wiscape::datasets::write_csv(&ds, &mut buf).expect("in-memory write");
            print!("{}", String::from_utf8_lossy(&buf));
        }
    }
}

/// The flags of `epoch`'s usage line.
const EPOCH_FLAGS: [&str; 3] = ["seed", "days", "region"];

fn cmd_epoch(args: &Args) {
    use wiscape::core::{EpochConfig, EpochEstimator};
    use wiscape::stats::TimedValue;
    args.reject_unknown("epoch", &EPOCH_FLAGS);
    let land = landscape(args);
    let p = wiscape::datasets::representative_static_locations(&land, 1, 5000.0, 100.0)[0].point;
    let days = args.u64_flag("days", 8) as i64;
    eprintln!("collecting {days} day(s) of UDP measurements ...");
    let mut series = Vec::new();
    for day in 0..days {
        let mut t = SimTime::at(day, 0.0);
        while t < SimTime::at(day + 1, 0.0) {
            if let Ok(train) =
                land.probe_train(NetworkId::NetB, TransportKind::Udp, &p, t, 40, 1200)
            {
                if let Some(est) = train.estimated_kbps() {
                    series.push(TimedValue::new(t.as_secs_f64(), est));
                }
            }
            t = t + SimDuration::from_secs(90);
        }
    }
    let est = EpochEstimator::new(EpochConfig::default())
        .estimate(&series)
        .unwrap_or_else(|e| die(&format!("epoch estimation failed: {e}")));
    println!("tau_min,allan_deviation");
    for pt in &est.profile {
        println!("{:.2},{:.6}", pt.tau, pt.deviation);
    }
    eprintln!(
        "argmin {:.0} min -> epoch {:.0} min (true coherence {:.0} min)",
        est.raw_argmin.as_mins_f64(),
        est.epoch.as_mins_f64(),
        land.coherence_time(&p)
            .expect("networks exist")
            .as_mins_f64()
    );
}

/// The flags of `quality`'s usage line.
const QUALITY_FLAGS: [&str; 5] = ["seed", "region", "lat", "lon", "hour"];

fn cmd_quality(args: &Args) {
    args.reject_unknown("quality", &QUALITY_FLAGS);
    let land = landscape(args);
    let lat = args.f64_flag("lat", land.origin().lat_deg());
    let lon = args.f64_flag("lon", land.origin().lon_deg());
    let hour = args.f64_flag("hour", 12.0);
    let p = GeoPoint::new(lat, lon).unwrap_or_else(|e| die(&format!("bad coordinates: {e}")));
    let t = SimTime::at(1, hour);
    println!("network,tcp_kbps,udp_kbps,rtt_ms,jitter_ms,loss_rate,degraded");
    for net in land.networks() {
        let q = land.link_quality(net, &p, t).expect("network present");
        println!(
            "{net},{:.0},{:.0},{:.1},{:.2},{:.4},{}",
            q.tcp_kbps,
            q.udp_kbps,
            q.rtt_ms,
            q.jitter_ms,
            q.loss_rate,
            land.is_degraded(&p)
        );
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    match args.positional.first().map(|s| s.as_str()) {
        Some("map") => cmd_map(&args),
        Some("trace") => cmd_trace(&args),
        Some("epoch") => cmd_epoch(&args),
        Some("quality") => cmd_quality(&args),
        _ => usage(),
    }
}
