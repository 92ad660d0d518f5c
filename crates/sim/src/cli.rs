//! Shared command-line plumbing of the `routelab` binary.
//!
//! Every subcommand, `routelab exp <name>` included, accepts the same
//! infrastructure flags — `--threads N`, `--quiet`, `--obs`, `--trace`,
//! `--no-reduce` — parsed here once. Parsing also wires
//! the telemetry layer: `--obs` (or a truthy `ROUTELAB_OBS`) enables the NDJSON
//! sink, `--trace` (or a truthy `ROUTELAB_TRACE`) enables the flight
//! recorder, and `--quiet` suppresses progress/heartbeat output on stderr.
//! State-space reduction (queue normal forms + symmetry quotient) is on by
//! default; `--no-reduce` is the escape hatch that forces the explorer to
//! enumerate raw states (verdicts are identical either way — see
//! EXPERIMENTS.md's reduction-soundness section).
//!
//! Progress text goes to **stderr** ([`CommonOpts::progress`]) so stdout
//! stays pipeable: it carries only the experiment's tables and verdicts.
//! The binary must call [`CommonOpts::finish`] before it returns, or the
//! telemetry tail is lost.

use std::path::PathBuf;

use routelab_explore::frontier::{parse_threads, THREADS_ENV};

use crate::pool::PoolConfig;

/// Options shared by every subcommand.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// Worker-pool sizing (`--threads N`, else `ROUTELAB_THREADS`, else all
    /// cores).
    pub pool: PoolConfig,
    /// Suppress progress and heartbeat output (`--quiet`).
    pub quiet: bool,
    /// Telemetry log path when observability is enabled.
    pub obs_log: Option<PathBuf>,
    /// Flight-recorder trace path when tracing is enabled (`--trace` or a
    /// truthy `ROUTELAB_TRACE`).
    pub trace_log: Option<PathBuf>,
    /// Disable state-space reduction (`--no-reduce`); reduction is the
    /// default.
    pub no_reduce: bool,
    /// Positional arguments and unrecognized flags, in order, for the
    /// subcommand's own parsing.
    pub rest: Vec<String>,
}

impl CommonOpts {
    /// Whether explorations should run with state-space reduction (the
    /// default; `--no-reduce` turns it off).
    pub fn reduce(&self) -> bool {
        !self.no_reduce
    }

    /// Prints a progress line to stderr unless `--quiet`.
    pub fn progress(&self, msg: impl AsRef<str>) {
        if !self.quiet {
            eprintln!("{}", msg.as_ref());
        }
    }

    /// Like [`CommonOpts::progress`] but without a trailing newline (for
    /// `surveying X ... done` style updates).
    pub fn progress_part(&self, msg: impl AsRef<str>) {
        if !self.quiet {
            use std::io::Write as _;
            let mut err = std::io::stderr();
            let _ = write!(err, "{}", msg.as_ref());
            let _ = err.flush();
        }
    }

    /// Flushes telemetry. Call once, right before the binary returns.
    pub fn finish(&self) {
        routelab_obs::shutdown();
    }
}

/// Parses the shared flags out of an explicit argument list (everything not
/// recognized lands in [`CommonOpts::rest`]) and initializes telemetry.
///
/// `proc_name` names the binary in usage errors and the telemetry log file.
pub fn parse_common_from<I>(proc_name: &str, args: I) -> CommonOpts
where
    I: IntoIterator<Item = String>,
{
    let mut opts = CommonOpts::default();
    let mut obs_flag = false;
    let mut trace_flag = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let Some(n) = args.next().and_then(|s| s.parse::<usize>().ok()).filter(|&n| n >= 1)
                else {
                    eprintln!("{proc_name}: --threads needs a positive integer");
                    eprintln!(
                        "usage: {proc_name} [--threads N] [--quiet] [--obs] [--no-reduce] ..."
                    );
                    std::process::exit(2);
                };
                opts.pool = PoolConfig::with_threads(n);
            }
            "--quiet" => opts.quiet = true,
            "--obs" => obs_flag = true,
            "--trace" => trace_flag = true,
            "--no-reduce" => opts.no_reduce = true,
            _ => opts.rest.push(arg),
        }
    }
    // Every worker count resolves through `ROUTELAB_THREADS` when no
    // explicit count reaches it, and a bad value panics there; reject it
    // here, once, like a bad `--threads`.
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if parse_threads(&raw).is_none() {
            eprintln!("{proc_name}: {THREADS_ENV} needs a positive integer, got {raw:?}");
            std::process::exit(2);
        }
    }
    routelab_obs::set_quiet(opts.quiet);
    opts.obs_log = if obs_flag {
        routelab_obs::enable_to_dir(&routelab_obs::telemetry_dir(), proc_name)
    } else {
        routelab_obs::init_from_env(proc_name)
    };
    opts.trace_log = if trace_flag {
        routelab_obs::enable_trace_to_dir(&routelab_obs::telemetry_dir(), proc_name)
    } else {
        routelab_obs::init_trace_from_env(proc_name)
    };
    opts
}

/// The most runs or steps a count argument asks for: the longest source
/// run `routelab realize` builds, and the most runs `routelab simulate` and
/// `routelab exp montecarlo` make.
pub const MAX_COUNT: usize = 100_000;

/// Parses a step or run count: a positive integer no larger than
/// [`MAX_COUNT`]. The error names the argument as `what`.
///
/// # Errors
///
/// A message naming `what`, `s` and the accepted range when `s` is not
/// such an integer.
pub fn parse_count(what: &str, s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if (1..=MAX_COUNT).contains(&n) => Ok(n),
        _ => Err(format!("{what} {s:?} is not an integer in 1..={MAX_COUNT}")),
    }
}

/// [`parse_common_from`] over the process's real arguments.
pub fn parse_common(proc_name: &str) -> CommonOpts {
    parse_common_from(proc_name, std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_flags_are_stripped_in_any_position() {
        let o = parse_common_from("t", strs(&["50", "--threads", "3", "--quiet", "--flag"]));
        assert_eq!(o.pool.threads, Some(3));
        assert!(o.quiet);
        assert_eq!(o.rest, vec!["50", "--flag"]);
    }

    #[test]
    fn defaults_with_no_args() {
        let o = parse_common_from("t", Vec::new());
        assert_eq!(o.pool.threads, None);
        assert!(!o.quiet);
        assert!(o.reduce(), "reduction is on by default");
        assert!(o.rest.is_empty());
        assert!(o.trace_log.is_none(), "tracing is off by default");
    }

    #[test]
    fn reduction_flags_toggle_and_strip() {
        let o = parse_common_from("t", strs(&["--no-reduce", "x"]));
        assert!(!o.reduce());
        assert_eq!(o.rest, vec!["x"]);
    }
}
