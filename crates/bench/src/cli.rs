//! The `oi-bench` command-line interface (also reachable as
//! `oic bench`): `snapshot` writes an `oi.bench.v1` document, `compare`
//! diffs two of them with the noise-aware gate, and the four load gates
//! (`loadgen`, `tenantload`, `restartload`, `brownoutload`) are
//! [`crate::scenario::Preset`]s whose `--help` entries come from their
//! flag tables.
//!
//! Exit codes follow the workspace convention: `0` success (and, for
//! `compare`, no regression), `1` runtime failure or a regression, `2`
//! usage error.

use crate::harness;
use crate::snapshot::{compare, take_snapshot_with, SnapshotOptions, DEFAULT_SAMPLES};
use crate::{parse_size, size_name};
use oi_benchmarks::BenchSize;
use oi_support::cli::{Arg, ArgScanner};
use oi_support::Json;

const USAGE_HEAD: &str = "usage: oi-bench <command>

commands:
  snapshot [--size small|default|large] [--samples N] [--profile]
           [--out FILE]
      run every benchmark and write one oi.bench.v1 JSON document
      (stdout by default); OI_BENCH_SAMPLES also sets the sample count;
      --profile embeds a truncated top-N execution profile per row
  compare OLD.json NEW.json [--threshold-pct P] [--wall-advisory]
          [--json] [--out FILE]
      diff two snapshots; exit 1 when a gated metric regressed.
      wall-clock gates statistically (calibrated noise floors) when both
      snapshots carry >= 2 samples; --wall-advisory disarms that gate
      for cross-machine comparisons
";

/// The full usage text: `snapshot` and `compare`, then every gate preset
/// from its own usage strings.
fn usage() -> String {
    [
        USAGE_HEAD.to_string(),
        crate::loadgen::PRESET.help(),
        crate::tenantload::PRESET.help(),
        crate::restartload::PRESET.help(),
        crate::brownoutload::PRESET.help(),
    ]
    .concat()
}

/// Runs the CLI on pre-split arguments and returns the process exit
/// code. `oic bench ...` forwards here, so errors print program-agnostic
/// messages.
pub fn main(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("snapshot") => snapshot_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("loadgen") => crate::loadgen::PRESET.main(&args[1..]),
        Some("tenantload") => crate::tenantload::PRESET.main(&args[1..]),
        Some("restartload") => crate::restartload::PRESET.main(&args[1..]),
        Some("brownoutload") => crate::brownoutload::PRESET.main(&args[1..]),
        Some("--help") | Some("help") => {
            print!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!(
                "unknown command `{other}` (snapshot|compare|loadgen|tenantload|restartload|brownoutload)"
            );
            2
        }
        None => {
            eprint!("{}", usage());
            2
        }
    }
}

/// Prints `msg` on stderr; returns the usage-error exit code 2.
pub(crate) fn usage_error(msg: &str) -> u8 {
    eprintln!("{msg}");
    2
}

fn snapshot_cmd(args: &[String]) -> u8 {
    let mut size = BenchSize::Default;
    let mut samples: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut profile = false;
    let mut scanner = ArgScanner::new(args.to_vec());
    while let Some(arg) = scanner.next() {
        let arg = match arg {
            Ok(arg) => arg,
            Err(msg) => return usage_error(&msg),
        };
        match arg {
            Arg::Flag { name, value: None } => match name.as_str() {
                "size" => {
                    let v = scanner.value_for("--size").unwrap_or_default();
                    match parse_size(&v) {
                        Some(s) => size = s,
                        None => {
                            return usage_error(&format!(
                                "unknown size `{v}` (small|default|large)"
                            ))
                        }
                    }
                }
                "samples" => {
                    let v = scanner.value_for("--samples").unwrap_or_default();
                    match harness::parse_samples(&v) {
                        Some(n) => samples = Some(n),
                        None => {
                            return usage_error(&format!(
                                "`--samples` needs a positive integer, got `{v}`"
                            ))
                        }
                    }
                }
                "profile" => profile = true,
                "out" => match scanner.value_for("--out") {
                    Ok(path) => out = Some(path),
                    Err(_) => return usage_error("`--out` needs a file path"),
                },
                other => return usage_error(&format!("unknown flag `--{other}`")),
            },
            Arg::Flag { name, value } => {
                return usage_error(&format!(
                    "unknown flag `--{name}={}`",
                    value.unwrap_or_default()
                ));
            }
            Arg::Positional(other) => {
                return usage_error(&format!("unexpected argument `{other}`"));
            }
        }
    }
    // Flag beats environment beats default, so CI can pin globally while
    // a one-off invocation still overrides.
    let samples = samples
        .or_else(harness::samples_from_env)
        .unwrap_or(DEFAULT_SAMPLES);

    eprintln!(
        "snapshotting {} suite ({samples} wall-clock samples per benchmark)...",
        size_name(size)
    );
    let opts = SnapshotOptions {
        profile,
        ..SnapshotOptions::default()
    };
    let doc = take_snapshot_with(size, samples, &git_rev(), &opts).to_string();
    write_out(&doc, out.as_deref())
}

fn compare_cmd(args: &[String]) -> u8 {
    let mut threshold: Option<f64> = None;
    let mut json_output = false;
    let mut wall_advisory = false;
    let mut out: Option<String> = None;
    let mut files = Vec::new();
    let mut scanner = ArgScanner::new(args.to_vec());
    while let Some(arg) = scanner.next() {
        let arg = match arg {
            Ok(arg) => arg,
            Err(msg) => return usage_error(&msg),
        };
        match arg {
            Arg::Flag { name, value: None } => match name.as_str() {
                "threshold-pct" => {
                    let v = scanner.value_for("--threshold-pct").unwrap_or_default();
                    match v.parse::<f64>() {
                        Ok(p) if p >= 0.0 && p.is_finite() => threshold = Some(p),
                        _ => {
                            return usage_error(&format!(
                                "`--threshold-pct` needs a non-negative number, got `{v}`"
                            ))
                        }
                    }
                }
                "json" => json_output = true,
                "wall-advisory" => wall_advisory = true,
                "out" => match scanner.value_for("--out") {
                    Ok(path) => out = Some(path),
                    Err(_) => return usage_error("`--out` needs a file path"),
                },
                other => return usage_error(&format!("unknown flag `--{other}`")),
            },
            Arg::Flag { name, value } => {
                return usage_error(&format!(
                    "unknown flag `--{name}={}`",
                    value.unwrap_or_default()
                ));
            }
            Arg::Positional(path) => files.push(path),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return usage_error("compare needs exactly two snapshot files: OLD.json NEW.json");
    };

    let mut docs = Vec::new();
    for path in [old_path, new_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        };
        match Json::parse(&text) {
            Ok(doc) => docs.push(doc),
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                return 1;
            }
        }
    }

    let cmp = match compare(&docs[0], &docs[1], threshold, wall_advisory) {
        Ok(cmp) => cmp,
        Err(msg) => return usage_error(&msg),
    };
    let code = if json_output {
        write_out(&cmp.diff.to_string(), out.as_deref())
    } else {
        write_out(cmp.text.trim_end(), out.as_deref())
    };
    if code != 0 {
        return code;
    }
    u8::from(cmp.regressed)
}

/// Writes `doc` to `path` (with a trailing newline, reporting `wrote
/// PATH` on stderr) or to stdout. Exit code 1 when the file cannot be
/// written.
pub(crate) fn write_out(doc: &str, path: Option<&str>) -> u8 {
    match path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
            eprintln!("wrote {path}");
            0
        }
        None => {
            println!("{doc}");
            0
        }
    }
}

/// The current git revision, for snapshot provenance. Best-effort: any
/// failure (no git, not a checkout) records `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> u8 {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        main(&args)
    }

    #[test]
    fn no_command_is_a_usage_error() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["wat"]), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&["--help"]), 0);
    }

    /// `--help` carries every gate's entry, synopsis generated from its
    /// flag table.
    #[test]
    fn help_lists_every_gate_flag() {
        let help = usage();
        assert!(help.contains(&crate::loadgen::PRESET.help()));
        assert!(help.contains(&crate::tenantload::PRESET.help()));
        assert!(help.contains(&crate::restartload::PRESET.help()));
        assert!(help.contains(&crate::brownoutload::PRESET.help()));
        assert!(help.contains("[--cache-bytes B] [--retries N]"), "{help}");
    }

    #[test]
    fn snapshot_rejects_bad_flags() {
        assert_eq!(run(&["snapshot", "--wat"]), 2);
        assert_eq!(run(&["snapshot", "--size", "huge"]), 2);
        assert_eq!(run(&["snapshot", "--samples", "0"]), 2);
        assert_eq!(run(&["snapshot", "stray"]), 2);
    }

    #[test]
    fn compare_rejects_bad_usage() {
        assert_eq!(run(&["compare"]), 2);
        assert_eq!(run(&["compare", "a.json"]), 2);
        assert_eq!(
            run(&["compare", "a.json", "b.json", "--threshold-pct", "-1"]),
            2
        );
    }

    #[test]
    fn compare_reports_unreadable_files() {
        assert_eq!(
            run(&["compare", "/no/such/old.json", "/no/such/new.json"]),
            1
        );
    }
}
