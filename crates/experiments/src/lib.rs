//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each module reproduces one artifact (see the per-experiment index in
//! `DESIGN.md`): it generates the required dataset(s) against the
//! simulated landscape, runs the WiScape machinery, and returns a
//! serializable result carrying both the plotted series and the headline
//! numbers the paper quotes. The `repro` binary runs any subset and
//! writes JSON + a markdown summary per experiment.
//!
//! Every experiment takes a master `seed` and a [`Scale`]: `Quick` uses
//! small datasets (seconds of CPU; used by tests and benches), `Full`
//! uses datasets large enough for stable statistics (used to produce
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charts;
pub mod common;
pub mod fig01;
pub mod fig02;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod inventory;
pub mod plot;
pub mod tab03;
pub mod tab04;
pub mod tab05;
pub mod tab06;
pub mod topology;

pub use common::{Experiment, Scale};

/// Every experiment id, in paper order (fig15 is repro-only: the
/// control-channel overhead sweep backing the paper's overhead
/// argument; fig16 is repro-only: the adaptive-regionalization and
/// hotspot-localization study layered on `wiscape-region`).
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "fig01",
    "fig02",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15_overhead",
    "fig16_regions",
    "tab03",
    "tab04",
    "tab05",
    "tab06",
];

/// `(file name, SVG body)` pairs produced by a figure's chart builder.
pub type NamedCharts = Vec<(String, String)>;

/// Runs one experiment by id, returning its markdown summary, JSON
/// payload, and any SVG charts. Unknown ids return `None`.
pub fn run_by_name_with_charts(
    name: &str,
    seed: u64,
    scale: Scale,
) -> Option<(String, String, NamedCharts)> {
    // Per-figure span tree: each experiment's wall time lands under
    // `repro/<name>` in the (byte-identity-exempt) timing section; the
    // run counter lands in the deterministic counters.
    wiscape_obs::counter("experiments/runs").inc();
    let _span = wiscape_obs::timing::wall_span(&format!("repro/{name}"));
    fn pack<R: serde::Serialize>(
        summary: String,
        result: &R,
        charts: NamedCharts,
    ) -> (String, String, NamedCharts) {
        (
            summary,
            serde_json::to_string_pretty(result).expect("results serialize"),
            charts,
        )
    }
    Some(match name {
        "fig01" => {
            let r = fig01::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "fig02" => {
            let r = fig02::run(seed, scale);
            let charts = charts::fig02(&r);
            pack(r.summary(), &r, charts)
        }
        "fig04" => {
            let r = fig04::run(seed, scale);
            let charts = charts::fig04(&r);
            pack(r.summary(), &r, charts)
        }
        "fig05" => {
            let r = fig05::run(seed, scale);
            let charts = charts::fig05(&r);
            pack(r.summary(), &r, charts)
        }
        "fig06" => {
            let r = fig06::run(seed, scale);
            let charts = charts::fig06(&r);
            pack(r.summary(), &r, charts)
        }
        "fig07" => {
            let r = fig07::run(seed, scale);
            let charts = charts::fig07(&r);
            pack(r.summary(), &r, charts)
        }
        "fig08" => {
            let r = fig08::run(seed, scale);
            let charts = charts::fig08(&r);
            pack(r.summary(), &r, charts)
        }
        "fig09" => {
            let r = fig09::run(seed, scale);
            let charts = charts::fig09(&r);
            pack(r.summary(), &r, charts)
        }
        "fig10" => {
            let r = fig10::run(seed, scale);
            let charts = charts::fig10(&r);
            pack(r.summary(), &r, charts)
        }
        "fig11" => {
            let r = fig11::run(seed, scale);
            let charts = charts::fig11(&r);
            pack(r.summary(), &r, charts)
        }
        "fig12" => {
            let r = fig12::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "fig13" => {
            let r = fig13::run(seed, scale);
            let charts = charts::fig13(&r);
            pack(r.summary(), &r, charts)
        }
        "fig14" => {
            let r = fig14::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "fig15_overhead" => {
            let r = fig15::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "fig16_regions" => {
            let r = fig16::run(seed, scale);
            let charts = charts::fig16(&r);
            pack(r.summary(), &r, charts)
        }
        "tab03" => {
            let r = tab03::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "tab04" => {
            let r = tab04::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "tab05" => {
            let r = tab05::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        "tab06" => {
            let r = tab06::run(seed, scale);
            let charts = Vec::new();
            pack(r.summary(), &r, charts)
        }
        _ => return None,
    })
}

/// Runs one experiment by id, returning its markdown summary and JSON
/// payload (no charts). Unknown ids return `None`.
pub fn run_by_name(name: &str, seed: u64, scale: Scale) -> Option<(String, String)> {
    run_by_name_with_charts(name, seed, scale).map(|(s, j, _)| (s, j))
}

/// Runs a list of experiments concurrently on the deterministic
/// executor ([`wiscape_simcore::exec`]), returning per-experiment
/// results **in input order** together with each experiment's
/// wall-clock seconds. Every experiment is a pure function of
/// `(name, seed, scale)`, so the output bytes are identical to running
/// them serially — the worker count (`WISCAPE_THREADS`) only changes
/// how long it takes.
pub fn run_many_with_charts(
    names: &[String],
    seed: u64,
    scale: Scale,
) -> Vec<Option<(String, String, NamedCharts, f64)>> {
    wiscape_simcore::exec::par_map(names, |_, name| {
        // lint:allow(D002): wall-clock duration is stderr diagnostics only; never enters result bytes.
        let started = std::time::Instant::now();
        run_by_name_with_charts(name, seed, scale)
            .map(|(summary, json, charts)| (summary, json, charts, started.elapsed().as_secs_f64()))
    })
}
