//! Process and host facts the benchmark records: memory high-water
//! marks, core count, the filesystem under a directory, the commit.

use std::path::Path;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), if present.
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Returns freed heap pages to the kernel so the resident set measured
/// next reflects live data only.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // unused arena memory; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's resident high-water mark (`VmHWM`) to the current
/// resident set. Returns whether the reset took effect.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory added since the last [`reset_peak`] on top of
/// `base_kb`, in MB.
pub fn peak_added_mb(base_kb: u64) -> f64 {
    let hwm = status_kb("VmHWM").unwrap_or(base_kb);
    hwm.saturating_sub(base_kb) as f64 / 1024.0
}

/// The filesystem type of the mount holding `dir` (longest matching
/// mount point in `/proc/self/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if dir.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The checked-out commit, read from `.git` in or above the working
/// directory; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
                return id.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("unknown")
                .to_string();
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}
