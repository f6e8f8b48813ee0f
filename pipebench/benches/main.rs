//! `pipebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Prints a one-line run record, then, as
//! the last line of standard output, the result object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pipebench::run::{Opts, Outcome};
use pipebench::{run_workload, sys, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("pipebench: {msg}");
    eprintln!(
        "usage: pipebench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print(workload: &str, opts: &Opts, context: &[(String, String)], o: &Outcome) {
    let mut fields: Vec<String> = vec![
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{}", opts.seed),
        format!("\"trace\":{}", u8::from(opts.trace)),
        format!("\"seconds\":{}", json_num(opts.seconds)),
    ];
    for (k, v) in context.iter().chain(&o.record) {
        fields.push(format!("{}:{}", json_str(k), json_str(v)));
    }
    let failures: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    fields.push(format!("\"failures\":[{}]", failures.join(",")));
    println!("{{\"record\":{{{}}}}}", fields.join(","));

    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() || !root.join("results").is_dir() {
        eprintln!("pipebench: run from the repository root (crates/ and results/ not found)");
        return ExitCode::from(1);
    }

    // One worker per core unless the caller pinned the executor.
    let nproc = sys::nproc();
    if std::env::var_os("WISCAPE_THREADS").is_none() {
        std::env::set_var("WISCAPE_THREADS", nproc.to_string());
    }
    let threads = wiscape_simcore::exec::thread_count();

    let scratch = root
        .join(".pipebench_tmp")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("pipebench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
    };
    let outcome = run_workload(&workload, false, &root, &scratch, &opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(root.join(".pipebench_tmp"));
    let Some(outcome) = outcome else {
        return usage(&format!("unknown workload {workload}"));
    };

    let shards = if workload == "nation_shards" {
        threads
    } else {
        1
    };
    let context = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("wiscape_threads".to_string(), threads.to_string()),
        ("shards".to_string(), shards.to_string()),
        ("commit".to_string(), sys::commit()),
        ("fs".to_string(), sys::fs_type(Path::new("."))),
    ];
    print(&workload, &opts, &context, &outcome);
    ExitCode::SUCCESS
}
