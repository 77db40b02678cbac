//! The `lp` command line: `lp list`, `lp all [flags]` and
//! `lp <name|E-code> [flags]` over [`EXPERIMENTS`], plus the `lpcuda-lint`
//! entry point. Both return the process exit code: 0 when everything
//! passed, 1 when an experiment's gate failed, 2 on a usage error.

use crate::cli::{Args, Failure, Flags};
use crate::experiments::{lint_cli, Experiment, EXPERIMENTS};
use crate::report::Table;
use std::panic::{catch_unwind, AssertUnwindSafe};

const USAGE: &str = "usage: lp list | all [flags] | <name|E-code> [flags]   \
                     (`lp list` shows the names; `lp <name> --help` the flags)";

/// Reports a usage error under `tool`'s name; returns the exit code.
fn exit_code(tool: &str, flags: Flags, outcome: Result<(), Failure>) -> i32 {
    match outcome {
        Ok(()) => 0,
        Err(Failure::Gate) => 1,
        Err(Failure::Usage(msg)) => {
            eprintln!("{tool}: {msg}\nusage: {tool} {}", flags.usage());
            2
        }
    }
}

/// Parses `argv` for `flags` and runs `run` on it.
fn invoke<S: AsRef<str>>(
    tool: &str,
    flags: Flags,
    run: fn(&Args) -> Result<(), Failure>,
    argv: &[S],
) -> i32 {
    if argv.iter().any(|a| matches!(a.as_ref(), "--help" | "-h")) {
        eprintln!("usage: {tool} {}", flags.usage());
        return 0;
    }
    let outcome = Args::from_iter(flags, argv)
        .map_err(Failure::Usage)
        .and_then(|args| run(&args));
    exit_code(tool, flags, outcome)
}

impl Experiment {
    /// The name usage errors are reported under.
    fn command(&self) -> String {
        format!("lp {}", self.name)
    }

    fn invoke<S: AsRef<str>>(&self, argv: &[S]) -> i32 {
        invoke(&self.command(), self.flags, self.run, argv)
    }
}

fn list() {
    let mut table = Table::new(&["Code", "Name", "Reproduces", "Flags under `lp all`"]);
    for e in &EXPERIMENTS {
        table.row(&[
            e.code.to_string(),
            e.name.to_string(),
            e.artefact.to_string(),
            if e.fixed.is_empty() {
                "forwarded".to_string()
            } else {
                e.fixed.join(" ")
            },
        ]);
    }
    print!("{}", table.to_markdown());
}

/// Runs every experiment in table order, the sweeps on the forwarded
/// `args`. One that fails — by its gate, by rejecting `--workload`, or by
/// panicking — is recorded and the run carries on, so one regression
/// cannot hide the others.
fn all(args: &Args) -> Result<(), Failure> {
    let mut failed = Vec::new();
    for e in &EXPERIMENTS {
        println!("\n================================================================");
        println!("== {} / {}  ({})", e.code, e.artefact, e.tool);
        println!("================================================================\n");
        let code = catch_unwind(AssertUnwindSafe(|| {
            if e.fixed.is_empty() {
                exit_code(&e.command(), e.flags, (e.run)(args))
            } else {
                e.invoke(e.fixed)
            }
        }));
        // A panic has already printed its message through the panic hook.
        if code.unwrap_or(1) != 0 {
            failed.push(e.name);
        }
    }
    if failed.is_empty() {
        println!("\nAll experiments completed.");
        Ok(())
    } else {
        eprintln!("\nFAILED experiments: {failed:?}");
        Err(Failure::Gate)
    }
}

/// The `lp` binary: `argv` is the command line after the program name.
pub fn lp_main(argv: &[String]) -> i32 {
    let Some((selector, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match selector.as_str() {
        "--help" | "-h" => {
            eprintln!("{USAGE}");
            0
        }
        "list" => {
            list();
            0
        }
        "all" => invoke("lp all", Flags::Sweep, all, rest),
        _ => {
            let found = EXPERIMENTS.iter().find(|e| {
                e.name.eq_ignore_ascii_case(selector) || e.code.eq_ignore_ascii_case(selector)
            });
            match found {
                // Named bare, an experiment runs as `lp all` runs it.
                Some(e) if rest.is_empty() => e.invoke(e.fixed),
                Some(e) => e.invoke(rest),
                None => {
                    eprintln!("lp: no experiment named {selector:?}\n{USAGE}");
                    2
                }
            }
        }
    }
}

/// The `lpcuda-lint` binary — `lp lpcuda-lint` under the documented tool
/// name. `argv` is the command line after the program name.
pub fn lint_main(argv: &[String]) -> i32 {
    invoke("lpcuda-lint", Flags::Lint, lint_cli::run, argv)
}
