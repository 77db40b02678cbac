//! Sanitizer sweep: the `lp-sanitizer` verdict as an extra campaign oracle.
//!
//! Crash-injection proves recovery works *given* a correct kernel; the
//! sanitizer proves the kernel earned that assumption — no shared-memory
//! races, no conflicting global writes, and every store inside an LP
//! region folded into the checksum. A campaign run with `--sanitize`
//! executes each `(subject, config, seed)` once, crash-free, under full
//! observation and treats any finding as a failure on par with an oracle
//! miss: a kernel that races or skips the checksum can pass every crash
//! trial by luck and still lose data in the field.

use crate::trial::{stage_instance, trial_config, Instance};
use lp_kernels::{subject, Scale, Workload};
use lp_sanitizer::{sanitize_launch_exempt, SanitizerReport};
use serde::{Deserialize, Serialize};
use simt::{AccessObserver, Gpu, LaunchStats};

/// One sanitized, crash-free execution of a campaign subject.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SanitizeRecord {
    /// Subject name from [`lp_kernels::SUBJECT_NAMES`].
    pub workload: String,
    /// LP design point from [`crate::CONFIG_NAMES`].
    pub config: String,
    /// Input-generation seed.
    pub seed: u64,
    /// The full sanitizer report for this run.
    pub report: SanitizerReport,
}

impl SanitizeRecord {
    /// Whether the sanitizer found nothing.
    pub fn clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Runs one subject crash-free under the sanitizer and returns the
/// simulated stats plus the report. `None` for unknown subject or config
/// names.
pub fn sanitize_subject(
    workload: &str,
    config: &str,
    scale: Scale,
    seed: u64,
) -> Option<(LaunchStats, SanitizerReport)> {
    let (gpu, w, mut inst) = instance(workload, config, scale, seed)?;
    let kernel = w.kernel(Some(&inst.rt));
    // The checksum table is shared by design (cuckoo displacement rewrites
    // other blocks' entries); exempt it from the cross-block conflict rule.
    let table = inst.rt.table_ranges();
    Some(
        sanitize_launch_exempt(&gpu, kernel.as_ref(), &mut inst.mem, &table)
            .expect("sanitized launch failed"),
    )
}

/// A crash-free instance of a campaign subject, built the way every trial
/// builds one. `None` for unknown subject or config names.
fn instance(
    workload: &str,
    config: &str,
    scale: Scale,
    seed: u64,
) -> Option<(Gpu, Box<dyn Workload>, Instance)> {
    let cfg = trial_config(config)?;
    Some(stage_instance(subject(workload)?, scale, seed, &cfg.lp))
}

/// The launch geometry and instrumentation layout of one observed,
/// crash-free subject execution, returned by [`observe_subject`].
#[derive(Debug, Clone)]
pub struct ObservedSubject {
    /// Simulated launch statistics.
    pub stats: LaunchStats,
    /// Number of thread blocks in the observed launch.
    pub num_blocks: u64,
    /// Threads per block in the observed launch.
    pub threads_per_block: u64,
    /// `(base, len)` byte ranges of the LP runtime's own persistent
    /// metadata (checksum table, policy journal). Stores landing here are
    /// instrumentation, not workload output — observers comparing against
    /// a workload's store footprint must filter them out.
    pub table_ranges: Vec<(u64, u64)>,
}

/// Runs one subject crash-free under a caller-supplied [`AccessObserver`]
/// and returns the launch geometry the observer's records should be
/// interpreted against. This is the dynamic half of the footprint
/// differential: the static engine claims a byte-level store footprint
/// for the subject's clean twin, and an observer watching the real kernel
/// can hold it to that claim. `None` for unknown subject or config names.
pub fn observe_subject(
    workload: &str,
    config: &str,
    scale: Scale,
    seed: u64,
    observer: &mut dyn AccessObserver,
) -> Option<ObservedSubject> {
    let (gpu, w, mut inst) = instance(workload, config, scale, seed)?;
    let kernel = w.kernel(Some(&inst.rt));
    let stats = gpu
        .launch_observed(kernel.as_ref(), &mut inst.mem, observer)
        .expect("observed launch failed");
    let lc = kernel.config();
    Some(ObservedSubject {
        stats,
        num_blocks: lc.num_blocks(),
        threads_per_block: lc.threads_per_block(),
        table_ranges: inst.rt.table_ranges(),
    })
}

/// Sweeps `{workload} × {config} × {seed}` under the sanitizer. Unknown
/// names are skipped (the campaign validates them before it gets here).
pub fn sanitize_sweep(
    workloads: &[String],
    configs: &[String],
    seeds: &[u64],
    scale: Scale,
) -> Vec<SanitizeRecord> {
    let mut out = Vec::new();
    for w in workloads {
        for c in configs {
            for &seed in seeds {
                if let Some((_, report)) = sanitize_subject(w, c, scale, seed) {
                    out.push(SanitizeRecord {
                        workload: w.clone(),
                        config: c.clone(),
                        seed,
                        report,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::CONFIG_NAMES;
    use lp_kernels::SUBJECT_NAMES;

    #[test]
    fn unknown_names_yield_none() {
        assert!(sanitize_subject("NO-SUCH", "recommended", Scale::Test, 1).is_none());
        assert!(sanitize_subject("SPMV", "no-such-config", Scale::Test, 1).is_none());
    }

    #[test]
    fn every_subject_is_clean_under_every_config() {
        // The extra oracle must hold across the whole default sweep: all
        // 11 subjects, all 4 design points, zero findings.
        for w in SUBJECT_NAMES {
            for c in CONFIG_NAMES {
                let (_, report) =
                    sanitize_subject(w, c, Scale::Test, 5).expect("known subject/config");
                assert!(
                    report.is_clean(),
                    "{w}/{c}: sanitizer found bugs:\n{report}"
                );
                assert!(report.stats.global_stores > 0, "{w}/{c}: nothing observed");
            }
        }
    }

    #[test]
    fn sweep_covers_the_cross_product() {
        let records = sanitize_sweep(
            &["SPMV".into(), "HISTO".into()],
            &["recommended".into(), "quad".into()],
            &[1, 2],
            Scale::Test,
        );
        assert_eq!(records.len(), 8);
        assert!(records.iter().all(SanitizeRecord::clean));
    }
}
