//! `lp-benchmark` — the repository's host-time benchmark.
//!
//! Every layer is measured from outside, by timing calls into its `pub`
//! functions; nothing under `crates/` knows this package exists.
//!
//! ```text
//! lp-benchmark run [--seed N] [--out FILE] [--quick]
//! lp-benchmark drive --workload W --seed N --seconds S --trace 0|1
//! lp-benchmark compare A.json B.json
//! lp-benchmark spec
//! ```
//!
//! `run` is the one command for people: every workload untraced, then
//! traced, every metric printed by name. `drive` is the entry the
//! acceptance driver calls, one workload and one mode per process; `run`
//! spawns the same entry for each workload in turn, so both measure alike.

#![warn(missing_docs)]

mod alloc;
mod compare;
mod corpus;
mod digest;
mod golden;
mod layers;
mod measure;
mod names;
mod probes;
mod replay;
mod report;
mod sim;
mod stats;
mod trace;
mod workloads;

use measure::Budget;
use names::{RUN_SECONDS, WORKLOADS};
use serde::Value;
use serde_json::json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  lp-benchmark run [--seed N] [--out FILE] [--quick]
  lp-benchmark drive --workload NAME --seed N --seconds S --trace 0|1 [--reps R] [--detail FILE]
  lp-benchmark compare A.json B.json
  lp-benchmark spec";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            if switches.contains(&flag.as_str()) {
                out.push((flag.clone(), String::new()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((flag.clone(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: {v:?} is not a number"))
            })
            .transpose()
    }
}

/// The package directory: where `corpus/`, `golden/` and `out/` live.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).expect("a value tree always renders");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// glibc raises its mmap threshold as large blocks are freed; from then on,
/// whether a growing `Vec` is copied (old and new block both resident) or
/// remapped depends on the heap's layout, and the peak RSS of
/// `backend_spectrum` read 35 MB on some runs and 48 MB on others. Pinning
/// the threshold at its initial 128 KiB keeps every large block in a
/// mapping of its own, so `peak_rss_mb` follows what the program holds.
/// glibc reads the variable when a process starts, so a workload always
/// runs in a child that has it set.
const MALLOC_ENV: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// Runs `drive` with `args` in a child process under [`MALLOC_ENV`]; the
/// child inherits standard output, so its contract line stays last.
fn drive_in_child(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("drive")
        .args(args)
        .env(MALLOC_ENV.0, MALLOC_ENV.1)
        .status()
        .map_err(|e| format!("spawning the workload process: {e}"))?;
    Ok(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}

/// One workload, one mode, in this process; the contract line goes last on
/// standard output.
fn drive(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let spec = names::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.number("--seed")?.unwrap_or(golden::DEFAULT_SEED);
    let budget = Budget {
        reps: flags.number("--reps")?,
        seconds: flags.number("--seconds")?.unwrap_or(RUN_SECONDS as f64),
    };
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };

    let outcome = if traced {
        let (outcome, trace) = measure::traced(spec.name, seed, budget);
        let path = package_dir().join(format!("out/trace.{}.json", spec.name));
        write_json(&path, &trace)?;
        outcome
    } else {
        measure::untraced(spec.name, seed, budget)
    };
    if let Some(path) = flags.get("--detail") {
        write_json(Path::new(path), &outcome.detail)?;
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::contract_line(
            outcome.attempted,
            outcome.failed,
            correct,
            report::metrics_object(&outcome.metrics),
        )
    );
    // The line above carries the verdict; the exit code only says that a
    // result was produced.
    Ok(ExitCode::SUCCESS)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Spawns `drive` for one workload and mode and reads its detail file back.
/// Children run one at a time so they never compete for the cores.
fn child(name: &str, seed: u64, traced: bool, reps: u32) -> Result<(Value, bool), String> {
    let detail = package_dir().join(format!(
        "out/{name}.{}.json",
        if traced { "layers" } else { "e2e" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("drive")
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .env(MALLOC_ENV.0, MALLOC_ENV.1)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !status.success() {
        return Err(format!("{name}: the workload process ended with {status}"));
    }
    let detail = read_json(&detail)?;
    let ok = detail.get("failed").and_then(Value::as_u64) == Some(0);
    Ok((detail, ok))
}

fn print_metrics(title: &str, detail: &Value, specs: &[names::MetricSpec]) {
    println!("  {title}");
    for m in specs {
        let v = detail
            .get("metrics")
            .and_then(|ms| ms.get(m.name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        println!("    {:<38} {:>14} {}", m.name, report::human(v), m.unit);
    }
}

/// Every workload untraced, then traced; prints every metric by name.
fn run(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("--seed")?.unwrap_or(golden::DEFAULT_SEED);
    let quick = flags.has("--quick");
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    for w in WORKLOADS {
        let reps = if quick { 1 } else { w.reps };
        println!(
            "== {} (seed {seed}, {reps} reps; item = {})",
            w.name, w.item
        );
        let (e2e, ok) = child(w.name, seed, false, reps)?;
        all_ok &= ok;
        print_metrics("end to end (tracing off)", &e2e, &names::END_TO_END);
        for key in [
            "fail_frac",
            "sim_digest",
            "sim_digest_ok",
            "available_parallelism",
        ] {
            let v = e2e.get(key).cloned().unwrap_or(Value::Null);
            println!(
                "    {key:<38} {:>14}",
                serde_json::to_string(&v).unwrap_or_default()
            );
        }
        let mut entry = vec![
            ("name".to_string(), json!(w.name)),
            ("e2e".to_string(), e2e),
        ];
        // The quick check stops at outputs and digests; the layer
        // experiments alone take longer than its half minute.
        if !quick {
            let (layers, ok) = child(w.name, seed, true, reps.div_ceil(2))?;
            all_ok &= ok;
            print_metrics("per layer (traced run)", &layers, &names::PER_LAYER);
            // Per kernel, so that one kernel cannot hide behind the sum.
            for (kernel, row) in layers
                .get("breakdown")
                .and_then(Value::as_object)
                .into_iter()
                .flatten()
            {
                if let Some(share) = row.get("replay_share").and_then(Value::as_f64) {
                    let label = format!("nvm.replay_share[{kernel}]");
                    println!("    {label:<38} {:>14} ratio", report::human(share));
                }
            }
            entry.push(("layers".to_string(), layers));
            traces.push(read_json(
                &package_dir().join(format!("out/trace.{}.json", w.name)),
            )?);
        }
        workloads.push(Value::Object(entry));
    }
    if !quick {
        write_json(&package_dir().join("out/trace.json"), &Value::Array(traces))?;
    }
    let result = json!({
        "schema": 1u64,
        "env": json!({
            "seed": seed,
            "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "rustc": tool_line("rustc", &["-V"]),
            "commit": tool_line("git", &["rev-parse", "HEAD"]),
            "quick": quick,
        }),
        "workloads": workloads,
    });
    if let Some(path) = flags.get("--out") {
        write_json(Path::new(path), &result)?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if all_ok {
            "all outputs and digests check out (fail_frac = 0 everywhere)"
        } else {
            "FAILED: a verification, oracle or sim_digest check did not hold"
        }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "run" => Flags::parse(rest, &["--quick"]).and_then(|f| run(&f)),
        "drive" if std::env::var_os(MALLOC_ENV.0).is_none() => drive_in_child(rest),
        "drive" => Flags::parse(rest, &[]).and_then(|f| drive(&f)),
        "compare" => compare::main(rest),
        "spec" => {
            let text = serde_json::to_string_pretty(&report::benchmark_json())
                .expect("a value tree always renders");
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unknown subcommand {cmd:?}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("lp-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
