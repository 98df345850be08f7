//! The host record printed with every report: core count, CPU model,
//! the filesystem type under the service's job store, and whether a
//! hardware performance-monitoring unit is exposed.

use crate::OUT_DIR;
use std::path::Path;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in `/proc/self/mountinfo` that is a prefix of the canonical path.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn pmu_present() -> bool {
    ["cpu", "cpu_core", "armv8_pmuv3_0"]
        .iter()
        .any(|d| Path::new("/sys/bus/event_source/devices").join(d).exists())
}

/// The host record as one JSON object.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = std::fs::create_dir_all(OUT_DIR);
    let fs = fs_type(Path::new(OUT_DIR));
    let _ = std::fs::remove_dir(OUT_DIR);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"store_fs\": \"{fs}\", \"pmu\": {}}}",
        cpu_model().replace('"', "'"),
        pmu_present()
    )
}
