//! Strict command-line parsing for the `run_all` and `sweepd` binaries.
//!
//! Hand-rolled (the workspace takes no external dependencies) but
//! deliberately unforgiving: unknown flags, missing or malformed flag
//! values and duplicate positionals are hard errors with a usage
//! message, instead of being silently reinterpreted as an output path.
//! Both binaries read the request flags (`--config`, `--jobs`,
//! `--store`) through [`RequestFlags::take`], so they apply one set of
//! checks.

/// Usage line printed on `--help` and on every parse error.
pub const USAGE: &str = "usage: run_all [--config FILE] [--workload-file FILE]... [--jobs N]
               [--filter SUBSTR] [--sweep] [--validate]
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
  --store PATH    persistent result store: serve sweep cells committed under
                  the same machine-config hash and workload file contents
                  without re-simulation, append fresh results (a killed or
                  failed sweep rerun on the same store simulates only the
                  missing cells), and write PATH.report.json with the
                  recovery/heal status (default: the file's store.path;
                  the file's retry and store.compact fields set the retry
                  policy and compact the log after the sweep)
  --sweep         run only the sweep phase (no report sections)
  --validate      run the paper-conformance suite over the sweep grid and
                  write VALIDATE_report.json (or the positional output
                  path); exit 2 when any property is violated
  --trace-dir DIR run sweep cells with the observability layer enabled and
                  write per-cell timeseries.json + obs.jsonl under DIR
  output.md       report path (default: EXPERIMENTS.md; a --filter run
                  with no path prints its sections to stdout)";

/// The command-line flags that shape the [`crate::SweepRequest`]: the
/// `--config` document and the flags written over it by
/// [`crate::SweepRequest::resolve`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestFlags {
    /// Path of a `SweepRequest` JSON document to layer under the flags.
    pub config: Option<String>,
    /// Workload files (`.wl`/`.trace`/`.xtrc`) to register, in order
    /// (`run_all --workload-file`).
    pub workload_files: Vec<String>,
    /// Worker threads; `None` leaves the file's `jobs`, else
    /// [`crate::default_jobs`].
    pub jobs: Option<usize>,
    /// Persistent result-store path; `None` leaves the file's
    /// `store.path`, and without one the store is off.
    pub store: Option<String>,
}

impl RequestFlags {
    /// Consumes the value of `flag` from `args` when `flag` is
    /// `--config`, `--jobs` or `--store`, and returns whether it was one
    /// of them.
    ///
    /// # Errors
    ///
    /// Returns a one-line description for a missing or empty value and
    /// for a `--jobs` value that is not an integer of at least 1.
    pub fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--config" => self.config = Some(flag_value(flag, args)?),
            "--store" => self.store = Some(flag_value(flag, args)?),
            "--jobs" => {
                let v = flag_value(flag, args)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs value {v:?} is not an integer"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                self.jobs = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The next argument as `flag`'s value.
///
/// # Errors
///
/// Returns a one-line description when the value is missing or empty.
pub fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    let v = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    if v.is_empty() {
        return Err(format!("{flag} value must be non-empty"));
    }
    Ok(v)
}

/// Parsed `run_all` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunAllArgs {
    /// The request flags, resolved over the `--config` document.
    pub request: RequestFlags,
    /// Lower-cased section filter.
    pub filter: Option<String>,
    /// Run only the sweep phase.
    pub sweep_only: bool,
    /// Run the paper-conformance suite instead of the report.
    pub validate: bool,
    /// Directory for per-cell observability artifacts; enables tracing.
    pub trace_dir: Option<String>,
    /// Report output path; `None` means `EXPERIMENTS.md`, or stdout for
    /// a `--filter` run.
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
        if parsed.request.take(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--workload-file" => parsed
                .request
                .workload_files
                .push(flag_value(&a, &mut args)?),
            "--filter" => parsed.filter = Some(flag_value(&a, &mut args)?.to_lowercase()),
            "--sweep" => parsed.sweep_only = true,
            "--validate" => parsed.validate = true,
            "--trace-dir" => parsed.trace_dir = Some(flag_value(&a, &mut args)?),
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
            "--sweep",
            "--trace-dir",
            "target/traces",
            "out.md",
        ]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                request: RequestFlags {
                    jobs: Some(4),
                    ..RequestFlags::default()
                },
                filter: Some("figure".to_string()),
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
                request: RequestFlags {
                    config: Some("req.json".to_string()),
                    jobs: Some(2),
                    ..RequestFlags::default()
                },
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
                request: RequestFlags {
                    workload_files: vec!["a.wl".to_string(), "b.xtrc".to_string()],
                    ..RequestFlags::default()
                },
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
        let p = parse(&["--store", "target/results.store", "--sweep"]);
        assert_eq!(
            p,
            Ok(Parsed::Run(RunAllArgs {
                request: RequestFlags {
                    store: Some("target/results.store".to_string()),
                    ..RequestFlags::default()
                },
                sweep_only: true,
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
        assert!(parse(&["--sweep=now"]).is_err(), "unknown flag form");
        // The hot-path bench mode, its modifiers and manifest resume are
        // gone (a rerun on the same --store replaces resume).
        for name in ["bench", "no-skip", "warm-fork", "resume"] {
            let flag = format!("--{name}");
            assert_eq!(parse(&[&flag]), Err(format!("unknown flag {flag:?}")));
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
