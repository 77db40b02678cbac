//! Configuration parameters of the NVM + cache model.

use serde::{Deserialize, Serialize};

/// Parameters of the persistent-memory model.
///
/// The default is a 6 MiB last-level cache in 128-byte lines, 16-way
/// (Volta-class). The model is untimed: the paper's NVM timing (§VII-3)
/// acts in the GPU simulator, through `simt::DeviceConfig::v100_nvm`'s
/// 326.4 GB/s bandwidth and `simt::CostModel`'s 480 ns persist barrier and
/// 160 ns epoch fence.
///
/// # Examples
///
/// ```
/// let cfg = nvm::NvmConfig::default();
/// assert_eq!(cfg.line_size, 128);
/// assert_eq!(cfg.num_sets(), 3_072);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Cache-line size in bytes. Must be a power of two.
    pub line_size: usize,
    /// Total number of lines the volatile write-back cache can hold.
    pub cache_lines: usize,
    /// Set associativity of the cache. Must divide `cache_lines`.
    pub associativity: usize,
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
    /// (line size not a power of two or below one word, zero geometry, or
    /// associativity not dividing the line count).
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
        Ok(())
    }
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self {
            line_size: 128,
            cache_lines: 49_152, // 6 MiB / 128 B
            associativity: 16,
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
}
