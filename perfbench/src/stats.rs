//! Small numeric helpers and the run's result record.

use std::fmt::Write as _;

/// The `q`-quantile (nearest rank) of ascending `sorted` values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Mean of `total` over `n`, 0 when `n` is 0.
pub fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// FNV-1a over a stream of words: the schedule digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: a stateless hash for seeded per-operation decisions.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One reported metric: its value, unit and the number of samples or the
/// base it was computed from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile, or the base of a ratio.
    pub n: u64,
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    /// Failed operations: sheds, conflicts, errors and wrong outputs.
    pub failed: u64,
    /// The metrics reported in the result line.
    pub metrics: Vec<Metric>,
    /// Further figures printed for reading only.
    pub extra: Vec<Metric>,
    /// Free-form facts about the run (digest, sizes, check results).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "{:<44} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
