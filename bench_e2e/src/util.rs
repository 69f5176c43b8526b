//! Small helpers shared by every workload: order statistics, a seeded
//! generator for the query mix, `/proc` readers and JSON field access.

use std::time::Duration;

use daas_obs::json::Value;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the samples (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile (`q` in 0..=1); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: a tiny, fully specified generator, so the same `--seed`
/// draws the same query mix on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Field lookup on a parsed JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_obj()?.get(key)
}

/// Numeric field (`None` when absent or not a number).
pub fn num(v: &Value, key: &str) -> Option<f64> {
    field(v, key)?.as_num()
}

/// Boolean field (`false` when absent).
pub fn flag(v: &Value, key: &str) -> bool {
    matches!(field(v, key), Some(Value::Bool(true)))
}

/// Parses one reply line and insists on `"ok":true`.
pub fn parse_ok(line: &str) -> Result<Value, String> {
    let v = daas_obs::json::parse(line).map_err(|e| format!("unparseable reply ({e}): {}", clip(line)))?;
    if flag(&v, "ok") {
        Ok(v)
    } else {
        Err(format!("error reply: {}", clip(line)))
    }
}

/// The first 200 characters of a line, for messages.
pub fn clip(line: &str) -> &str {
    match line.char_indices().nth(200) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}
