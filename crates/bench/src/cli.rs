//! Strict command-line parsing for the `run_all` binary.
//!
//! Hand-rolled (the workspace takes no external dependencies) but
//! deliberately unforgiving: unknown flags, missing or malformed flag
//! values and duplicate positionals are hard errors with a usage
//! message, instead of being silently reinterpreted as an output path.

/// Usage line printed on `--help` and on every parse error.
pub const USAGE: &str = "usage: run_all [--config FILE] [--workload-file FILE]... [--jobs N]
               [--filter SUBSTR] [--resume] [--sweep] [--validate]
               [--trace-dir DIR] [--store PATH] [output.md]

  --config FILE   load a SweepRequest JSON document (the same schema sweepd
                  accepts over HTTP; see examples/configs/). Precedence:
                  flags override the file, the file overrides the defaults
  --workload-file FILE
                  register a workload file before the grid is built:
                  .wl (workload DSL spec), .trace (text trace) or .xtrc
                  (binary streamed trace). Repeatable. Without an explicit
                  workload list, the grid is exactly the workloads these
                  files define
  --jobs N        worker threads (default: the file's jobs, else available
                  parallelism)
  --filter SUBSTR only generate report sections whose name contains SUBSTR;
                  with --sweep, keep only sweep cells whose workload or
                  system contains SUBSTR (case-insensitive)
  --resume        skip sweep cells already recorded as successful in the
                  existing run_all manifest (same machine-config hash)
  --store PATH    persistent result store: serve sweep cells committed under
                  the same machine-config hash without re-simulation, append
                  fresh results, and write PATH.report.json with the
                  recovery/heal status (default: the file's store.path;
                  the file's retry and store.compact fields set the retry
                  policy and compact the log after the sweep)
  --sweep         run only the sweep phase (no report sections)
  --validate      run the paper-conformance suite over the sweep grid and
                  write VALIDATE_report.json (or the positional output
                  path); exit 2 when any property is violated
  --trace-dir DIR run sweep cells with the observability layer enabled and
                  write per-cell timeseries.json + obs.jsonl under DIR
  output.md       report path (default: EXPERIMENTS.md)";

/// Parsed `run_all` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunAllArgs {
    /// Path of a `SweepRequest` JSON document to layer under the flags.
    pub config: Option<String>,
    /// Workload files (`.wl`/`.trace`/`.xtrc`) to register, in order.
    pub workload_files: Vec<String>,
    /// Worker threads; `None` means use [`crate::default_jobs`].
    pub jobs: Option<usize>,
    /// Lower-cased section filter.
    pub filter: Option<String>,
    /// Skip sweep cells with a prior successful record.
    pub resume: bool,
    /// Run only the sweep phase.
    pub sweep_only: bool,
    /// Run the paper-conformance suite instead of the report.
    pub validate: bool,
    /// Directory for per-cell observability artifacts; enables tracing.
    pub trace_dir: Option<String>,
    /// Persistent result-store path; `None` falls back to the config
    /// file's `store.path`, and without one the store is off.
    pub store: Option<String>,
    /// Report output path; `None` means `EXPERIMENTS.md`.
    pub out_path: Option<String>,
}

/// Outcome of parsing: a run request or an explicit help request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// Arguments parsed successfully.
    Run(RunAllArgs),
    /// `--help`/`-h` was given.
    Help,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a one-line description for unknown flags, missing or
/// non-numeric flag values, and more than one positional argument.
pub fn parse_args<I>(args: I) -> Result<Parsed, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = RunAllArgs::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--config" => {
                let v = args.next().ok_or("--config requires a value")?;
                if v.is_empty() {
                    return Err("--config value must be non-empty".to_string());
                }
                parsed.config = Some(v);
            }
            "--workload-file" => {
                let v = args.next().ok_or("--workload-file requires a value")?;
                if v.is_empty() {
                    return Err("--workload-file value must be non-empty".to_string());
                }
                parsed.workload_files.push(v);
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs value {v:?} is not an integer"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                parsed.jobs = Some(n);
            }
            "--filter" => {
                let v = args.next().ok_or("--filter requires a value")?;
                if v.is_empty() {
                    return Err("--filter value must be non-empty".to_string());
                }
                parsed.filter = Some(v.to_lowercase());
            }
            "--resume" => parsed.resume = true,
            "--sweep" => parsed.sweep_only = true,
            "--validate" => parsed.validate = true,
            "--trace-dir" => {
                let v = args.next().ok_or("--trace-dir requires a value")?;
                if v.is_empty() {
                    return Err("--trace-dir value must be non-empty".to_string());
                }
                parsed.trace_dir = Some(v);
            }
            "--store" => {
                let v = args.next().ok_or("--store requires a value")?;
                if v.is_empty() {
                    return Err("--store value must be non-empty".to_string());
                }
                parsed.store = Some(v);
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            _ if a.starts_with('-') => return Err(format!("unknown flag {a:?}")),
            _ => {
                if let Some(prev) = &parsed.out_path {
                    return Err(format!(
                        "unexpected extra positional argument {a:?} (output path is already {prev:?})"
                    ));
                }
                parsed.out_path = Some(a);
            }
        }
    }
    if parsed.validate && parsed.sweep_only {
        return Err("--validate cannot be combined with --sweep".to_string());
    }
    Ok(Parsed::Run(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_full_flag_set() {
        let p = parse(&[
            "--jobs",
            "4",
            "--filter",
            "Figure",
            "--resume",
            "--sweep",
            "--trace-dir",
            "target/traces",
            "out.md",
        ]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                jobs: Some(4),
                filter: Some("figure".to_string()),
                resume: true,
                sweep_only: true,
                trace_dir: Some("target/traces".to_string()),
                out_path: Some("out.md".to_string()),
                ..RunAllArgs::default()
            }))
        );
        assert_eq!(parse(&[]), Ok(Parsed::Run(RunAllArgs::default())));
        assert_eq!(parse(&["--help"]), Ok(Parsed::Help));
        assert_eq!(parse(&["-h"]), Ok(Parsed::Help));
    }

    #[test]
    fn parses_config_flag() {
        let p = parse(&["--config", "req.json", "--jobs", "2"]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                config: Some("req.json".to_string()),
                jobs: Some(2),
                ..RunAllArgs::default()
            }))
        );
        assert!(parse(&["--config"]).is_err(), "missing value");
        assert!(parse(&["--config", ""]).is_err(), "empty value");
    }

    #[test]
    fn parses_repeatable_workload_file_flag() {
        let p = parse(&["--workload-file", "a.wl", "--workload-file", "b.xtrc"]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                workload_files: vec!["a.wl".to_string(), "b.xtrc".to_string()],
                ..RunAllArgs::default()
            }))
        );
        assert!(parse(&["--workload-file"]).is_err(), "missing value");
        assert!(parse(&["--workload-file", ""]).is_err(), "empty value");
    }

    #[test]
    fn rejects_malformed_jobs() {
        assert!(parse(&["--jobs"]).is_err(), "missing value");
        assert!(parse(&["--jobs", "many"]).is_err(), "non-numeric");
        assert!(parse(&["--jobs", "0"]).is_err(), "zero workers");
        assert!(parse(&["--jobs", "-3"]).is_err(), "negative");
    }

    #[test]
    fn parses_store_flag() {
        let p = parse(&["--store", "target/results.store", "--resume"]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                store: Some("target/results.store".to_string()),
                resume: true,
                ..RunAllArgs::default()
            }))
        );
        assert!(parse(&["--store"]).is_err(), "missing value");
        assert!(parse(&["--store", ""]).is_err(), "empty value");
    }

    #[test]
    fn rejects_malformed_filter_and_unknown_flags() {
        assert!(parse(&["--filter"]).is_err(), "missing value");
        assert!(parse(&["--filter", ""]).is_err(), "empty value");
        assert!(parse(&["--trace-dir"]).is_err(), "missing value");
        assert!(parse(&["--trace-dir", ""]).is_err(), "empty value");
        assert!(parse(&["--jbos", "4"]).is_err(), "unknown flag");
        assert!(parse(&["--resume=now"]).is_err(), "unknown flag form");
        // The hot-path bench mode and its modifiers are gone.
        for flag in ["--bench", "--no-skip", "--warm-fork"] {
            assert_eq!(parse(&[flag]), Err(format!("unknown flag {flag:?}")));
        }
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(parse(&["a.md", "b.md"]).is_err());
    }

    #[test]
    fn parses_validate_flag() {
        let p = parse(&["--validate", "report.json"]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                validate: true,
                out_path: Some("report.json".to_string()),
                ..RunAllArgs::default()
            }))
        );
        assert!(parse(&["--validate", "--sweep"]).is_err(), "exclusive");
        assert!(
            parse(&["--validate", "--jobs", "2"]).is_ok(),
            "--jobs composes"
        );
    }
}
