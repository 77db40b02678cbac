//! The one argument parser behind `lp` and `lpcuda-lint` (no external CLI
//! dependency needed). Bad input is an `Err`, never a panic: the driver
//! prints it with the tool's usage line and exits 2.

use gpu_lp::BackendKind;
use lp_kernels::{subject, Scale, Subject};

/// Why a run did not succeed; the driver maps it to the exit code.
#[derive(Debug)]
pub(crate) enum Failure {
    /// The invocation could not run — bad flag, unknown workload,
    /// unreadable file. Printed with the usage line; exit 2.
    Usage(String),
    /// The run finished and failed its own gate, which it has already
    /// reported on stderr. Exit 1.
    Gate,
}

/// Which flag set a tool takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flags {
    /// The experiment sweeps: scale, seed, JSON, one workload, one backend.
    Sweep,
    /// The crash-injection campaign (E14/E20).
    Campaign,
    /// `lpcuda-lint`: report format, fix mode and source files.
    Lint,
}

impl Flags {
    /// The usage line. It is also the flag table: a `--flag` is accepted
    /// iff this line names it, so the two cannot drift.
    pub(crate) fn usage(self) -> &'static str {
        match self {
            Flags::Sweep => {
                "[--scale test|bench|paper] [--seed N] [--json] [--workload NAME] \
                 [--backend lp|eager|epoch|sbrp|adaptive]"
            }
            Flags::Campaign => {
                "[--scale test|bench|paper] [--budget N] [--threads N] [--workload NAME] \
                 [--backend lp|eager|epoch|sbrp|adaptive|all] [--trial-timeout SECS] \
                 [--no-prune] [--prune-smoke] [--sabotage] [--sanitize] [--json] [--quiet]"
            }
            Flags::Lint => "[--json | --sarif] [--fix] [--fixtures] [FILES...]",
        }
    }

    fn accepts(self, flag: &str) -> bool {
        flag.starts_with("--") && self.named().any(|word| word == flag)
    }

    fn named(self) -> impl Iterator<Item = &'static str> {
        self.usage()
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .filter(|word| word.starts_with("--"))
    }
}

/// Parsed command-line options: the sweep flags, then the campaign's,
/// then the lint CLI's. A flag outside the tool's [`Flags`] never parses,
/// so its field keeps the default.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// Problem-size preset (`--scale`; default bench, campaign: test).
    pub scale: Scale,
    /// Input seed (`--seed N`; default 42).
    pub seed: u64,
    /// Machine-readable report on stdout (`--json`).
    pub json: bool,
    /// Restrict to one workload (`--workload NAME`); each experiment
    /// resolves it against its own subjects with [`Args::workload_in`].
    pub workload: Option<String>,
    /// Restrict to one persistency backend (`--backend NAME`).
    pub backend: Option<BackendKind>,

    /// `--backend all`: the four fixed models plus the adaptive policy.
    pub all_backends: bool,
    /// Cap on executed trials (`--budget N`).
    pub budget: Option<usize>,
    /// Worker threads (`--threads N`; 0 = one per core).
    pub threads: usize,
    /// Per-trial watchdog (`--trial-timeout SECS`; 0 disables).
    pub trial_timeout_ms: Option<u64>,
    /// Static crash-site pruning (on unless `--no-prune`).
    pub prune: bool,
    /// `--prune-smoke`: the pruned-vs-unpruned agreement gate (E20).
    pub prune_smoke: bool,
    /// `--sabotage`: sweep the deliberately broken config.
    pub sabotage: bool,
    /// `--sanitize`: add the sanitizer oracle.
    pub sanitize: bool,
    /// `--quiet`: no progress meter, no per-finding detail.
    pub quiet: bool,

    /// `--sarif`: SARIF 2.1.0 on stdout.
    pub sarif: bool,
    /// `--fix`: apply machine-applicable fixes.
    pub fix: bool,
    /// `--fixtures`: lint the embedded clean corpus.
    pub fixtures: bool,
    /// Source files to lint.
    pub files: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program or experiment name) against
    /// `flags`.
    pub(crate) fn from_iter<S: AsRef<str>>(
        flags: Flags,
        argv: impl IntoIterator<Item = S>,
    ) -> Result<Args, String> {
        let mut out = Args {
            scale: if flags == Flags::Campaign {
                Scale::Test
            } else {
                Scale::Bench
            },
            seed: 42,
            json: false,
            workload: None,
            backend: None,
            all_backends: false,
            budget: None,
            threads: 0,
            // No single simulated trial takes minutes, so two of them means
            // a hang, not a slow run.
            trial_timeout_ms: Some(120_000),
            prune: true,
            prune_smoke: false,
            sabotage: false,
            sanitize: false,
            quiet: false,
            sarif: false,
            fix: false,
            fixtures: false,
            files: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let a = a.as_ref();
            if flags == Flags::Lint && !a.starts_with('-') {
                out.files.push(a.to_string());
                continue;
            }
            if !flags.accepts(a) {
                return Err(format!("unknown argument {a:?}"));
            }
            let mut value = || {
                it.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{a} needs a value"))
            };
            match a {
                "--scale" => {
                    out.scale = match value()?.to_ascii_lowercase().as_str() {
                        "test" => Scale::Test,
                        "bench" => Scale::Bench,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale {other:?} (test|bench|paper)")),
                    }
                }
                "--seed" => out.seed = number(a, &value()?, "a u64")?,
                "--workload" => out.workload = Some(value()?),
                "--backend" => {
                    let v = value()?;
                    out.all_backends = flags == Flags::Campaign && v.eq_ignore_ascii_case("all");
                    out.backend = if out.all_backends {
                        None
                    } else {
                        Some(v.parse()?)
                    };
                }
                "--budget" => out.budget = Some(number(a, &value()?, "a count")?),
                "--threads" => out.threads = number(a, &value()?, "a count")?,
                "--trial-timeout" => {
                    let secs: u64 = number(a, &value()?, "a seconds count")?;
                    out.trial_timeout_ms = (secs > 0).then(|| secs.saturating_mul(1000));
                }
                "--json" => out.json = true,
                "--no-prune" => out.prune = false,
                "--prune-smoke" => out.prune_smoke = true,
                "--sabotage" => out.sabotage = true,
                "--sanitize" => out.sanitize = true,
                "--quiet" => out.quiet = true,
                "--sarif" => out.sarif = true,
                "--fix" => out.fix = true,
                "--fixtures" => out.fixtures = true,
                other => unreachable!("usage line names {other} but the parser does not"),
            }
        }
        Ok(out)
    }

    /// `--workload` resolved against an experiment's subjects (`valid`,
    /// canonical names): its row of the subject table, or `None` when the
    /// flag was not given.
    pub(crate) fn workload_in(&self, valid: &[&str]) -> Result<Option<&'static Subject>, Failure> {
        self.workload
            .as_deref()
            .map(|w| resolve(w, valid))
            .transpose()
    }

    /// The one subject an experiment runs: `--workload`, else `default`.
    pub(crate) fn workload_or(
        &self,
        valid: &[&str],
        default: &str,
    ) -> Result<&'static Subject, Failure> {
        resolve(self.workload.as_deref().unwrap_or(default), valid)
    }

    /// The subjects an experiment sweeps: the one `--workload` names, else
    /// all of `default`.
    pub(crate) fn workloads(
        &self,
        valid: &[&str],
        default: &[&str],
    ) -> Result<Vec<&'static Subject>, Failure> {
        match self.workload_in(valid)? {
            Some(subject) => Ok(vec![subject]),
            None => default.iter().map(|name| resolve(name, valid)).collect(),
        }
    }
}

/// A subject name through the subject table's one lookup (any case, any
/// alias), accepted when the experiment runs it (`valid`).
fn resolve(name: &str, valid: &[&str]) -> Result<&'static Subject, Failure> {
    subject(name)
        .filter(|s| valid.contains(&s.name))
        .ok_or_else(|| {
            Failure::Usage(format!(
                "unknown workload {name:?} (one of {})",
                valid.join(", ")
            ))
        })
}

fn number<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} {v:?}: not {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: Flags, line: &str) -> Result<Args, String> {
        Args::from_iter(flags, line.split_whitespace())
    }

    #[test]
    fn defaults() {
        let a = parse(Flags::Sweep, "").unwrap();
        assert_eq!(a.scale, Scale::Bench);
        assert_eq!(a.seed, 42);
        assert!(!a.json);
        // The campaign has always defaulted to the quick scale.
        assert_eq!(parse(Flags::Campaign, "").unwrap().scale, Scale::Test);
    }

    #[test]
    fn parses_everything() {
        let line = "--scale test --seed 7 --json --workload SPMV --backend sbrp";
        let a = parse(Flags::Sweep, line).unwrap();
        assert_eq!(a.scale, Scale::Test);
        assert_eq!(a.seed, 7);
        assert!(a.json);
        assert_eq!(a.workload.as_deref(), Some("SPMV"));
        assert_eq!(a.backend, Some(BackendKind::Sbrp));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let err = |flags, line| parse(flags, line).unwrap_err();
        assert!(err(Flags::Sweep, "--scale huge").contains("unknown scale"));
        assert!(err(Flags::Sweep, "--backend psyche").contains("unknown backend"));
        assert!(err(Flags::Sweep, "--seed -1").contains("not a u64"));
        assert!(err(Flags::Sweep, "--seed").contains("needs a value"));
        assert!(err(Flags::Sweep, "--frobnicate").contains("unknown argument"));
        assert!(err(Flags::Sweep, "stray").contains("unknown argument"));
        assert!(err(Flags::Campaign, "--budget many").contains("not a count"));
    }

    #[test]
    fn each_tool_takes_only_its_own_flags() {
        assert!(parse(Flags::Sweep, "--budget 3").is_err());
        assert!(parse(Flags::Sweep, "--backend all").is_err());
        assert!(parse(Flags::Campaign, "--seed 3").is_err());
        assert!(parse(Flags::Lint, "--scale test").is_err());

        let c = parse(Flags::Campaign, "--backend all --trial-timeout 0").unwrap();
        assert!(c.all_backends && c.backend.is_none());
        assert_eq!(c.trial_timeout_ms, None);

        let l = parse(Flags::Lint, "--sarif a.cu b.cu").unwrap();
        assert!(l.sarif);
        assert_eq!(l.files, ["a.cu", "b.cu"]);
    }

    #[test]
    fn every_flag_a_usage_line_names_is_parsed() {
        for flags in [Flags::Sweep, Flags::Campaign, Flags::Lint] {
            for flag in flags.named() {
                // `Err` (a bad value) is fine; reaching `unreachable!` is not.
                let _ = parse(flags, &format!("{flag} 1"));
            }
        }
    }

    #[test]
    fn workload_resolves_to_its_row_of_the_subject_table() {
        let named = |flag: &str| parse(Flags::Sweep, &format!("--workload {flag}")).unwrap();
        for spelling in ["mri-q", "MRIQ", "MRI-Q"] {
            let row = named(spelling).workload_in(&["TMM", "MRI-Q"]).unwrap();
            assert_eq!(row.map(|s| s.name), Some("MRI-Q"), "{spelling}");
        }
        // A subject the experiment does not run is as unknown as no subject.
        for flag in ["SPMV", "nope"] {
            let Err(Failure::Usage(msg)) = named(flag).workload_in(&["TMM", "MRI-Q"]) else {
                panic!("{flag} must be a usage error");
            };
            assert!(msg.contains("TMM, MRI-Q"), "{msg}");
        }
        let none = parse(Flags::Sweep, "").unwrap();
        assert_eq!(none.workload_in(&["TMM"]).unwrap().map(|s| s.name), None);
        assert_eq!(none.workload_or(&["TMM"], "tmm").unwrap().name, "TMM");
        let swept = none.workloads(&["TMM", "SAD"], &["SAD", "TMM"]).unwrap();
        assert_eq!(
            swept.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["SAD", "TMM"]
        );
        let one = named("sad").workloads(&["TMM", "SAD"], &["TMM"]).unwrap();
        assert_eq!(one.iter().map(|s| s.name).collect::<Vec<_>>(), ["SAD"]);
    }
}
