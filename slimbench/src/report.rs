//! Result bookkeeping shared by the workloads: metrics, checks, sample
//! statistics, peak-RSS measurement, the fingerprint, and the final JSON
//! line.

use std::path::Path;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// One generated input, recorded in the fingerprint.
pub struct Input {
    pub name: String,
    pub n: usize,
    pub m: usize,
    pub file_bytes: u64,
}

/// Self time of one span name in the traced run.
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub self_ms: f64,
    pub total_ms: f64,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub self_times: Vec<SelfTime>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub inputs: Vec<Input>,
    /// Extra human-readable lines (per-op latency breakdowns).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a correctness check; a failed check counts as a failed
    /// operation and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The final stdout line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Full-precision JSON number (`{}` prints the shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets the kernel's resident-set high-water mark for this process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn llc_bytes() -> u64 {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let raw = raw.trim();
    let (digits, scale) = match raw.chars().last() {
        Some('K') => (&raw[..raw.len() - 1], 1u64 << 10),
        Some('M') => (&raw[..raw.len() - 1], 1u64 << 20),
        _ => (raw, 1),
    };
    digits.parse::<u64>().map_or(0, |v| v * scale)
}

/// FNV-1a over every source file the benchmark builds (the checkout it
/// runs in is not a git repository, so this stands in for the commit).
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "slimbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        for byte in path.to_string_lossy().bytes().chain(std::fs::read(path).unwrap_or_default()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-{h:016x} ({} files)", files.len())
}

pub fn fingerprint(seed: u64, inputs: &[Input]) -> Vec<(String, String)> {
    let llc = llc_bytes();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut rows = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("SG_THREADS".to_string(), crate::SG_THREADS.to_string()),
        (
            "profile".to_string(),
            if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        ),
        ("commit".to_string(), source_digest()),
        ("llc_bytes".to_string(), llc.to_string()),
        ("seed".to_string(), seed.to_string()),
    ];
    for input in inputs {
        rows.push((
            format!("input.{}", input.name),
            format!(
                "n={} m={} file_bytes={} file/llc={:.2}",
                input.n,
                input.m,
                input.file_bytes,
                input.file_bytes as f64 / llc.max(1) as f64
            ),
        ));
    }
    rows
}
