//! Measurement machinery: baseline-vs-LP launches in fresh worlds.

use crate::cli::{Args, Failure};
use crate::report::Table;
use gpu_lp::LpConfig;
use gpu_lp::TableStats;
use lp_kernels::{stage, stage_baseline, world, Scale, Subject, Workload, WORKLOAD_NAMES};
use nvm::NvmConfig;
use serde::{Deserialize, Serialize};
use simt::{DeviceConfig, LaunchStats};

/// The result of one baseline-vs-LP comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Baseline (no LP) launch stats.
    pub baseline: LaunchStats,
    /// LP-instrumented launch stats.
    pub lp: LaunchStats,
    /// `lp / baseline` execution time.
    pub slowdown: f64,
    /// `slowdown − 1` (0.021 = 2.1 %).
    pub overhead: f64,
    /// Checksum-table counters from the LP run (Table II data).
    pub table_stats: TableStats,
    /// Device bytes of the checksum table.
    pub table_bytes: u64,
    /// Persistent payload bytes of the workload (space-overhead denominator).
    pub payload_bytes: u64,
    /// Baseline NVM write-backs (write-amplification denominator).
    pub baseline_nvm_writes: u64,
    /// LP NVM write-backs.
    pub lp_nvm_writes: u64,
}

impl Measurement {
    /// Table V's space overhead: checksum-table bytes over payload bytes.
    pub fn space_overhead(&self) -> f64 {
        self.table_bytes as f64 / self.payload_bytes as f64
    }

    /// §VII-3's write amplification: LP writes over baseline writes.
    pub fn write_amplification(&self) -> f64 {
        self.lp_nvm_writes as f64 / self.baseline_nvm_writes.max(1) as f64
    }
}

/// Measures the workload `build` makes under each of `configs`: one
/// uninstrumented baseline run, then one LP run per config, every run on a
/// fresh instance in a fresh world — the V100 over the paper's 6 MiB
/// cache, or under `nvm_mode` its §VII-3 NVM-bandwidth variant.
pub(crate) fn measure_configs(
    build: &dyn Fn() -> Box<dyn Workload>,
    nvm_mode: bool,
    configs: &[LpConfig],
) -> Vec<Measurement> {
    // One verified run in a fresh world: under `config`, or the
    // uninstrumented baseline for `None`.
    let run = |config: Option<&LpConfig>| {
        let dev = if nvm_mode {
            DeviceConfig::v100_nvm()
        } else {
            DeviceConfig::v100()
        };
        let cache = NvmConfig::default();
        let (gpu, mut mem) = world(dev, cache.cache_lines, cache.associativity);
        let mut w = build();
        let rt = match config {
            Some(config) => Some(stage(w.as_mut(), &gpu, &mut mem, config)),
            None => {
                stage_baseline(w.as_mut(), &gpu, &mut mem);
                None
            }
        };
        let stats = gpu
            .launch(w.kernel(rt.as_ref()).as_ref(), &mut mem)
            .expect("launch");
        mem.flush_all();
        let nvm = mem.stats();
        assert!(
            w.verify(&mut mem),
            "{}: {} verification failed",
            w.info().name,
            if rt.is_some() { "LP" } else { "baseline" }
        );
        (w, stats, nvm, rt)
    };
    let (_, baseline, base_nvm, _) = run(None);
    configs
        .iter()
        .map(|config| {
            let (w, lp, lp_nvm, rt) = run(Some(config));
            let rt = rt.expect("an LP run has a runtime");
            Measurement {
                workload: w.info().name.to_string(),
                blocks: w.launch_config().num_blocks(),
                slowdown: lp.slowdown_vs(&baseline),
                overhead: lp.overhead_vs(&baseline),
                table_stats: rt.table_stats(),
                table_bytes: rt.table_bytes(),
                payload_bytes: w.payload_bytes(),
                baseline_nvm_writes: base_nvm.nvm_writes,
                lp_nvm_writes: lp_nvm.nvm_writes,
                baseline: baseline.clone(),
                lp,
            }
        })
        .collect()
}

/// [`measure_configs`] for one subject and a single config.
pub fn measure_workload(
    subject: &Subject,
    scale: Scale,
    seed: u64,
    config: &LpConfig,
    nvm_mode: bool,
) -> Measurement {
    let build = || (subject.build)(scale, seed);
    measure_configs(&build, nvm_mode, std::slice::from_ref(config))
        .pop()
        .expect("one config in, one measurement out")
}

/// The `Geo Mean` row of a [`Sweep`].
#[derive(Clone, Copy)]
pub(crate) struct GeoMean {
    /// A workload's values to average column-wise.
    pub values: fn(&[Measurement]) -> Vec<f64>,
    /// The cells (after the label) the geometric means print as.
    pub cells: fn(&[f64]) -> Vec<String>,
}

/// One design-space table of the paper (E0–E6, E8): suite workloads down
/// the rows, LP configurations across the columns. An experiment is this
/// data plus three formatting closures; [`Sweep::run`] owns the loop.
pub(crate) struct Sweep<'a> {
    /// Heading line (printed with a blank line after it).
    pub title: &'a str,
    /// Column headers after the leading `Benchmark`.
    pub header: &'a [&'a str],
    /// Workloads swept when `--workload` is not given.
    pub workloads: &'a [&'a str],
    /// Measure in the §VII-3 NVM-timing world instead of the default one.
    pub nvm_mode: bool,
    /// The configurations compared; closures see their measurements in
    /// this order.
    pub configs: &'a [LpConfig],
    /// A workload's cells after its name.
    pub cells: fn(&[Measurement]) -> Vec<String>,
    /// The `Geo Mean` row, for tables that have one.
    pub geomean: Option<GeoMean>,
    /// A workload's `--json` row.
    pub json: fn(&str, &[Measurement]) -> serde_json::Value,
    /// The paper's numbers, printed under the table for comparison.
    pub note: &'a str,
}

impl Sweep<'_> {
    /// Measures, prints the table and, under `--json`, the rows.
    pub(crate) fn run(&self, args: &Args) -> Result<(), Failure> {
        let subjects = args.workloads(&WORKLOAD_NAMES, self.workloads)?;

        println!("{}\n", self.title);
        let header: Vec<&str> = [&["Benchmark"], self.header].concat();
        let mut table = Table::new(&header);
        let mut samples: Vec<Vec<f64>> = Vec::new();
        let mut json_rows = Vec::new();
        for subject in &subjects {
            let name = subject.name;
            let build = || (subject.build)(args.scale, args.seed);
            let m = measure_configs(&build, self.nvm_mode, self.configs);
            table.row(&[vec![name.to_string()], (self.cells)(&m)].concat());
            if let Some(geomean) = self.geomean {
                samples.push((geomean.values)(&m));
            }
            json_rows.push((self.json)(name, &m));
        }
        if let (Some(geomean), true) = (self.geomean, subjects.len() > 1) {
            let means: Vec<f64> = (0..samples[0].len())
                .map(|col| geometric_mean(&samples.iter().map(|s| s[col]).collect::<Vec<_>>()))
                .collect();
            table.row(&[vec!["Geo Mean".to_string()], (geomean.cells)(&means)].concat());
        }
        println!("{}", table.to_markdown());
        println!("{}", self.note);
        if args.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&json_rows).expect("rows serialise")
            );
        }
        Ok(())
    }
}

/// Geometric mean of a sequence of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_kernels::subject;

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn measure_tmm_recommended_is_cheap() {
        let tmm = subject("TMM").unwrap();
        let m = measure_workload(tmm, Scale::Test, 1, &LpConfig::recommended(), false);
        assert!(m.slowdown >= 1.0, "LP cannot be faster than baseline");
        assert!(
            m.overhead < 0.5,
            "global array should be cheap, got {}",
            m.overhead
        );
        assert_eq!(m.table_stats.collisions, 0);
    }

    #[test]
    fn measure_reports_space_and_write_amp() {
        let histo = subject("HISTO").unwrap();
        let m = measure_workload(histo, Scale::Test, 1, &LpConfig::recommended(), false);
        assert!(m.space_overhead() > 0.0);
        assert!(m.write_amplification() >= 1.0);
        assert!(
            m.write_amplification() < 1.5,
            "LP write amplification must be small"
        );
    }
}
