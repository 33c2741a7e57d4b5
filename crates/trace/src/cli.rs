//! Shared command-line handling for the observability flags every
//! example binary accepts: `--threads N`, `--trace FILE`, `--metrics`,
//! `--stats-interval MS`, `--journal DIR`.
//!
//! Each binary used to hand-roll the same match arms; this module
//! centralizes them while leaving usage messages and unknown-argument
//! handling to the binary. [`flag_value`] parses one flag value with the
//! shared diagnostic, and [`ObsFlags::consume`] slots into an argument
//! loop as a guard arm, claiming exactly the shared flags:
//!
//! ```
//! use m7_trace::ObsFlags;
//!
//! let mut obs = ObsFlags::default();
//! let mut args = ["--metrics".to_string(), "--threads".into(), "4".into()].into_iter();
//! while let Some(arg) = args.next() {
//!     match arg.as_str() {
//!         s if obs.consume(s, &mut args) => {}
//!         other => panic!("unknown flag: {other}"),
//!     }
//! }
//! assert_eq!(obs.threads, Some(4));
//! assert!(obs.metrics);
//! ```

/// Pulls the value of `flag` from `rest` and parses it as `T`. On a
/// missing, empty or unparsable value, prints `"{flag} needs {what}"` to
/// stderr and exits with status 2 — the one diagnostic every example
/// binary gives for a bad flag value.
///
/// ```
/// use m7_trace::flag_value;
///
/// let mut rest = ["7".to_string()].into_iter();
/// let seed: u64 = flag_value(&mut rest, "--seed", "an integer");
/// assert_eq!(seed, 7);
/// ```
pub fn flag_value<T: std::str::FromStr>(
    rest: &mut dyn Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    let Some(v) = rest.next().filter(|v| !v.is_empty()).and_then(|v| v.parse().ok()) else {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    };
    v
}

/// The observability flags shared by the example binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// `--threads N`: explicit deterministic-pool width.
    pub threads: Option<usize>,
    /// `--trace FILE`: write a chrome://tracing JSON trace on exit.
    pub trace_out: Option<String>,
    /// `--metrics`: dump `key=value` metrics to stderr on exit.
    pub metrics: bool,
    /// `--stats-interval MS`: telemetry-hub sampling cadence in
    /// milliseconds. Implied (at the default cadence) by `--journal`.
    pub stats_interval: Option<u64>,
    /// `--journal DIR`: stream hub snapshots into a crash-safe flight
    /// journal under DIR (an `m7-serve` segment store).
    pub journal: Option<String>,
}

impl ObsFlags {
    /// Tries to consume `arg` (pulling any value from `rest`). Returns
    /// `true` if the argument was one of the shared flags, `false` to
    /// let the caller handle it. Prints the standard diagnostic and
    /// exits with status 2 on a missing or invalid flag value.
    pub fn consume(&mut self, arg: &str, rest: &mut dyn Iterator<Item = String>) -> bool {
        match arg {
            "--threads" => {
                let v = flag_value(rest, "--threads", "a positive integer");
                if v == 0 {
                    eprintln!("--threads must be at least 1");
                    std::process::exit(2);
                }
                self.threads = Some(v);
                true
            }
            "--trace" => {
                let Some(path) = rest.next() else {
                    eprintln!("--trace needs an output file path");
                    std::process::exit(2);
                };
                self.trace_out = Some(path);
                true
            }
            "--metrics" => {
                self.metrics = true;
                true
            }
            "--stats-interval" => {
                let v = flag_value(rest, "--stats-interval", "a positive integer (milliseconds)");
                if v == 0 {
                    eprintln!("--stats-interval must be at least 1 millisecond");
                    std::process::exit(2);
                }
                self.stats_interval = Some(v);
                true
            }
            "--journal" => {
                self.journal = Some(flag_value(rest, "--journal", "a directory path"));
                true
            }
            _ => false,
        }
    }

    /// Enables tracing if any observability output was requested.
    /// Call once, after the argument loop.
    pub fn activate(&self) {
        if self.trace_out.is_some() || self.metrics || self.wants_hub() {
            crate::enable();
        }
    }

    /// Whether a telemetry hub should run (`--stats-interval` or
    /// `--journal` given). Binaries pass this to the shared pump helper
    /// in `m7-serve` that owns the journal sink.
    #[must_use]
    pub fn wants_hub(&self) -> bool {
        self.stats_interval.is_some() || self.journal.is_some()
    }

    /// The hub cadence: `--stats-interval`, or the [`crate::HubConfig`]
    /// default when only `--journal` was given.
    #[must_use]
    pub fn hub_config(&self) -> crate::hub::HubConfig {
        match self.stats_interval {
            Some(ms) => crate::hub::HubConfig { interval: std::time::Duration::from_millis(ms) },
            None => crate::hub::HubConfig::default(),
        }
    }

    /// Emits the requested outputs: writes the chrome://tracing JSON to
    /// the `--trace` file and dumps `--metrics` to stderr. Returns
    /// `false` (after printing the standard diagnostic) if the trace
    /// file could not be written — callers map that to a failure exit.
    #[must_use]
    pub fn finish(&self) -> bool {
        if let Some(path) = &self.trace_out {
            if let Err(err) = std::fs::write(path, crate::chrome_trace_json()) {
                eprintln!("failed to write trace to {path}: {err}");
                return false;
            }
            eprintln!("wrote chrome://tracing JSON to {path}");
        }
        if self.metrics {
            eprint!("{}", crate::kv_dump());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn consumes_threads_trace_and_metrics() {
        let mut obs = ObsFlags::default();
        let mut rest = iter(&["8"]);
        assert!(obs.consume("--threads", &mut rest));
        let mut rest = iter(&["out.json"]);
        assert!(obs.consume("--trace", &mut rest));
        let mut rest = iter(&[]);
        assert!(obs.consume("--metrics", &mut rest));
        assert_eq!(
            obs,
            ObsFlags {
                threads: Some(8),
                trace_out: Some("out.json".to_string()),
                metrics: true,
                ..ObsFlags::default()
            }
        );
    }

    #[test]
    fn consumes_stats_interval_and_journal() {
        let mut obs = ObsFlags::default();
        let mut rest = iter(&["50"]);
        assert!(obs.consume("--stats-interval", &mut rest));
        let mut rest = iter(&["/tmp/journal"]);
        assert!(obs.consume("--journal", &mut rest));
        assert_eq!(obs.stats_interval, Some(50));
        assert_eq!(obs.journal.as_deref(), Some("/tmp/journal"));
        assert!(obs.wants_hub());
        assert_eq!(obs.hub_config().interval, std::time::Duration::from_millis(50));
        assert!(!ObsFlags::default().wants_hub());
    }

    #[test]
    fn leaves_other_arguments_alone() {
        let mut obs = ObsFlags::default();
        let mut rest = iter(&["value"]);
        assert!(!obs.consume("--serial", &mut rest));
        assert!(!obs.consume("e5", &mut rest));
        assert_eq!(obs, ObsFlags::default());
        assert_eq!(rest.next().as_deref(), Some("value"), "rest must be untouched");
    }

    #[test]
    fn finish_without_outputs_is_a_silent_success() {
        assert!(ObsFlags::default().finish());
    }

    #[test]
    fn finish_reports_unwritable_trace_paths() {
        let obs = ObsFlags {
            trace_out: Some("/nonexistent-dir/trace.json".to_string()),
            ..ObsFlags::default()
        };
        assert!(!obs.finish());
    }
}
