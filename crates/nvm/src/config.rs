//! Configuration parameters of the NVM + cache model.

use serde::{Deserialize, Serialize};

/// Parameters of the persistent-memory model.
///
/// Defaults follow the paper's GPGPU-sim NVM configuration (§VII-3):
/// 326.4 GB/s of memory bandwidth, 160 ns read latency and 480 ns write
/// latency, with a 6 MiB last-level cache in 128-byte lines (Volta-class).
///
/// # Examples
///
/// ```
/// let cfg = nvm::NvmConfig::default();
/// assert_eq!(cfg.line_size, 128);
/// assert!(cfg.write_latency_ns > cfg.read_latency_ns);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Cache-line size in bytes. Must be a power of two.
    pub line_size: usize,
    /// Total number of lines the volatile write-back cache can hold.
    pub cache_lines: usize,
    /// Set associativity of the cache. Must divide `cache_lines`.
    pub associativity: usize,
    /// NVM read latency in nanoseconds (paper: 160 ns).
    pub read_latency_ns: f64,
    /// NVM write latency in nanoseconds (paper: 480 ns).
    pub write_latency_ns: f64,
    /// Sustained NVM bandwidth in GB/s (paper: 326.4 GB/s).
    pub bandwidth_gbps: f64,
}

impl NvmConfig {
    /// A tiny cache configuration that forces frequent evictions; useful in
    /// tests that want to observe natural write-back quickly.
    pub fn tiny_cache() -> Self {
        Self {
            cache_lines: 8,
            associativity: 2,
            ..Self::default()
        }
    }

    /// Number of cache sets (`cache_lines / associativity`).
    pub fn num_sets(&self) -> usize {
        self.cache_lines / self.associativity
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint
    /// (line size not a power of two, associativity not dividing the line
    /// count, or non-positive latency/bandwidth).
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_size.is_power_of_two() {
            return Err(format!(
                "line_size {} is not a power of two",
                self.line_size
            ));
        }
        if self.line_size < 8 {
            // The device persists lines in 8-byte words (the granularity the
            // torn-write-back fault model tears at), so a line must hold at
            // least one word.
            return Err(format!("line_size {} is below 8 bytes", self.line_size));
        }
        if self.associativity == 0 || self.cache_lines == 0 {
            return Err("cache geometry must be non-zero".to_string());
        }
        if !self.cache_lines.is_multiple_of(self.associativity) {
            return Err(format!(
                "associativity {} does not divide cache_lines {}",
                self.associativity, self.cache_lines
            ));
        }
        if self.read_latency_ns <= 0.0 || self.write_latency_ns <= 0.0 {
            return Err("latencies must be positive".to_string());
        }
        if self.bandwidth_gbps <= 0.0 {
            return Err("bandwidth must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self {
            line_size: 128,
            cache_lines: 49_152, // 6 MiB / 128 B
            associativity: 16,
            read_latency_ns: 160.0,
            write_latency_ns: 480.0,
            bandwidth_gbps: 326.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NvmConfig::default().validate().unwrap();
        NvmConfig::tiny_cache().validate().unwrap();
    }

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = NvmConfig::default();
        assert_eq!(cfg.read_latency_ns, 160.0);
        assert_eq!(cfg.write_latency_ns, 480.0);
        assert_eq!(cfg.bandwidth_gbps, 326.4);
    }

    #[test]
    fn num_sets_consistent() {
        let cfg = NvmConfig::default();
        assert_eq!(cfg.num_sets() * cfg.associativity, cfg.cache_lines);
    }

    #[test]
    fn rejects_non_power_of_two_line() {
        let cfg = NvmConfig {
            line_size: 100,
            ..NvmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_sub_word_line() {
        let cfg = NvmConfig {
            line_size: 4,
            ..NvmConfig::default()
        };
        assert!(cfg.validate().is_err());
        let ok = NvmConfig {
            line_size: 8,
            ..NvmConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn rejects_bad_associativity() {
        let cfg = NvmConfig {
            cache_lines: 10,
            associativity: 3,
            ..NvmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_bandwidth() {
        let cfg = NvmConfig {
            bandwidth_gbps: 0.0,
            ..NvmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
