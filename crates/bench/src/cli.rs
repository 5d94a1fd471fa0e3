//! Table-driven CLI parsing for the `experiments` binary.
//!
//! Each row of the experiment table ([`EXPERIMENTS`]) declares the value
//! flags it accepts; a flag passed alongside experiments none of which
//! accept it is an error (exit 2 in the binary), **listing the valid
//! flags** for the selection — the `--policy=<unknown>` convention
//! extended to the whole command line. `experiments churn --file=x.csv`
//! does not silently ignore `--file` and run with the default trace; it
//! is rejected.

use themis_core::shedder::{lookup_policy, registered_policies, Policy};

use crate::experiments::{lookup, Experiment, EXPERIMENTS};
use crate::scenarios::Scale;

/// Every flag the parser knows, in usage order: name (a trailing `=`
/// marks a value flag matched by prefix) and value placeholder. `--quick`
/// applies to every experiment; the table says who takes the others.
pub(crate) const FLAGS: &[(&str, &str)] = &[
    ("--quick", ""),
    ("--policy=", "<name>"),
    ("--query=", "'<text>'"),
    ("--nodes=", "<n>"),
    ("--shards=", "<k>"),
    ("--secs=", "<s>"),
    ("--sources-procs=", "<n>"),
    ("--file=", "<path>"),
    ("--beat-ms=", "<ms>"),
];

/// Parsed command line of the `experiments` binary: what every runner
/// of the experiment table sees.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Options {
    /// The selected experiments (defaults to `["all"]`).
    pub what: Vec<String>,
    /// `--quick`: reduced bench scale for smoke runs.
    pub quick: bool,
    /// `--policy=<name>`: run one registered shedding policy, not all.
    pub policy: Option<String>,
    /// `--query='<text>'`: an ad-hoc declarative query.
    pub query: Option<String>,
    /// `--nodes=<n>`: engine nodes.
    pub nodes: Option<u64>,
    /// `--shards=<k>`: engine shard threads.
    pub shards: Option<u64>,
    /// `--secs=<s>`: measured run length of an engine gate.
    pub secs: Option<u64>,
    /// `--sources-procs=<n>`: forked source processes.
    pub sources_procs: Option<u64>,
    /// `--file=<path>`: the arrival trace to replay.
    pub file: Option<String>,
    /// `--beat-ms=<ms>`: trace replay-beat rescale.
    pub beat_ms: Option<u64>,
}

impl Options {
    /// True when `name` should run: named explicitly, or a figure (not a
    /// gate) under an explicit (or defaulted) `all`.
    pub fn selected(&self, name: &str) -> bool {
        self.named(name) || (self.named("all") && lookup(name).is_some_and(|e| !e.gate))
    }

    /// True when `name` was named explicitly on the command line (how
    /// the explicit-only gates are requested).
    pub fn named(&self, name: &str) -> bool {
        self.what.iter().any(|w| w == name)
    }

    /// The simulator scale: `--quick` selects the reduced one.
    pub(crate) fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::default_scale()
        }
    }

    /// `--policy` from the shedding registry ([`parse`] rejects unknown
    /// names), else every registered policy.
    pub(crate) fn policies(&self) -> Vec<Policy> {
        match &self.policy {
            Some(name) => vec![lookup_policy(name).expect("parse checked the policy")],
            None => registered_policies(),
        }
    }

    /// `--secs`, else `quick` under `--quick` and `full` without.
    pub(crate) fn run_secs(&self, quick: u64, full: u64) -> u64 {
        self.secs.unwrap_or(if self.quick { quick } else { full })
    }

    /// Whether any selected experiment accepts `flag`.
    fn applies(&self, flag: &str) -> bool {
        let accepts = |e: &Experiment| self.selected(e.name) && e.flags.contains(&flag);
        flag == "--quick" || EXPERIMENTS.iter().any(accepts)
    }

    /// The flags valid for the selection, as a usage string for error
    /// messages.
    fn valid_flags(&self) -> String {
        FLAGS
            .iter()
            .filter(|(flag, _)| self.applies(flag))
            .map(|(flag, placeholder)| format!("{flag}{placeholder}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Parses the argument list (without the program name). Errors are
/// ready-to-print messages; the binary exits 2 on them.
pub fn parse<I, S>(args: I) -> Result<Options, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_string()).collect();
    let mut what: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if let Some(unknown) = what.iter().find(|w| *w != "all" && lookup(w).is_none()) {
        let menu: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment `{unknown}` (expected one of: all, {})",
            menu.join(", ")
        ));
    }
    if what.is_empty() {
        what.push("all".to_string());
    }
    let mut opts = Options {
        what: what.clone(),
        ..Options::default()
    };
    for arg in args.iter().filter(|a| a.starts_with("--")) {
        let matches = |flag: &&str| arg == flag || (flag.ends_with('=') && arg.starts_with(flag));
        let spec = FLAGS.iter().find(|(flag, _)| matches(flag));
        let Some(&(flag, placeholder)) = spec else {
            return Err(format!(
                "unknown option `{arg}` (valid flags for [{}]: {})",
                what.join(", "),
                opts.valid_flags()
            ));
        };
        if !opts.applies(flag) {
            let owners: Vec<&str> = EXPERIMENTS
                .iter()
                .filter(|e| e.flags.contains(&flag))
                .map(|e| e.name)
                .collect();
            return Err(format!(
                "`{flag}{placeholder}` only applies to [{}], none of which is selected by [{}] \
                 (valid flags for this selection: {})",
                owners.join(", "),
                what.join(", "),
                opts.valid_flags()
            ));
        }
        let value = || arg[flag.len()..].to_string();
        let uint = || -> Result<u64, String> {
            value()
                .parse()
                .map_err(|_| format!("invalid value `{}` for {flag}{placeholder}", value()))
        };
        match flag {
            "--quick" => opts.quick = true,
            "--policy=" => {
                lookup_policy(&value()).map_err(|e| e.to_string())?;
                opts.policy = Some(value());
            }
            "--query=" => opts.query = Some(value()),
            "--nodes=" => opts.nodes = Some(uint()?),
            "--shards=" => opts.shards = Some(uint()?),
            "--secs=" => opts.secs = Some(uint()?),
            "--sources-procs=" => opts.sources_procs = Some(uint()?),
            "--file=" => opts.file = Some(value()),
            "--beat-ms=" => opts.beat_ms = Some(uint()?),
            other => unreachable!("flag {other} missing from the assignment match"),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Options, String> {
        parse(args.iter().copied())
    }

    #[test]
    fn defaults_to_all() {
        let o = parse_strs(&[]).unwrap();
        assert_eq!(o.what, vec!["all"]);
        assert!(o.selected("fig8") && o.selected("policies"));
        assert!(!o.selected("churn"), "explicit-only gates stay out of all");
    }

    #[test]
    fn churn_rejects_inapplicable_sources_flag() {
        // No experiment takes `--sources=`: it is unknown, and the message
        // lists churn's actual flags.
        let err = parse_strs(&["churn", "--sources=5"]).unwrap_err();
        assert!(err.contains("unknown option `--sources=5`"), "{err}");
        assert!(err.contains("--nodes=<n>"), "{err}");
        assert!(err.contains("--secs=<s>"), "{err}");
        assert!(!err.contains("--file"), "{err}");
        // A flag some other experiment takes names its owners instead.
        let err = parse_strs(&["churn", "--file=x.csv"]).unwrap_err();
        assert!(err.contains("--file=<path>"), "{err}");
        assert!(err.contains("only applies to [trace]"), "{err}");
        assert!(err.contains("--nodes=<n>"), "{err}");
    }

    #[test]
    fn trace_rejects_unknown_and_inapplicable_flags() {
        let err = parse_strs(&["trace", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown option `--bogus`"), "{err}");
        assert!(err.contains("--file=<path>"), "valid flags listed: {err}");
        let err = parse_strs(&["trace", "--nodes=4"]).unwrap_err();
        assert!(err.contains("--nodes=<n>"), "{err}");
        assert!(err.contains("churn, scale"), "{err}");
    }

    #[test]
    fn retired_perf_races_and_their_flags_are_rejected() {
        // BENCHMARK.json (`themis-benchmark`) is the only perf harness.
        for gone in ["batching", "kernels", "scale-e2e"] {
            let err = parse_strs(&[gone]).unwrap_err();
            assert!(
                err.contains(&format!("unknown experiment `{gone}`")),
                "{err}"
            );
            assert!(err.contains("expected one of: all, table1"), "{err}");
            assert!(lookup(gone).is_none());
        }
        for flag in ["--profile", "--sources=5"] {
            let err = parse_strs(&["scale", flag]).unwrap_err();
            assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
            assert!(err.contains("--shards=<k>"), "valid flags listed: {err}");
        }
    }

    #[test]
    fn trace_takes_file_beat_and_secs() {
        let o = parse_strs(&["trace", "--file=traces/x.csv", "--beat-ms=100", "--secs=3"]).unwrap();
        assert_eq!(o.file.as_deref(), Some("traces/x.csv"));
        assert_eq!(o.beat_ms, Some(100));
        assert_eq!(o.secs, Some(3));
        // But file/beat are trace-only.
        assert!(parse_strs(&["correlated", "--file=x.csv"]).is_err());
        assert!(parse_strs(&["adversarial", "--beat-ms=5"]).is_err());
        assert!(parse_strs(&["correlated", "--secs=2"]).is_ok());
        assert!(parse_strs(&["adversarial", "--secs=2"]).is_ok());
    }

    #[test]
    fn policy_applies_to_policies_and_through_all() {
        assert!(parse_strs(&["policies", "--policy=fifo"]).is_ok());
        assert!(
            parse_strs(&["--policy=fifo"]).is_ok(),
            "all includes policies"
        );
        let err = parse_strs(&["churn", "--policy=fifo"]).unwrap_err();
        assert!(
            err.contains("only applies to [policies, federated]"),
            "{err}"
        );
    }

    #[test]
    fn bad_numbers_are_rejected() {
        let err = parse_strs(&["churn", "--secs=abc"]).unwrap_err();
        assert!(err.contains("invalid value `abc` for --secs=<s>"), "{err}");
    }

    #[test]
    fn unknown_experiment_lists_the_menu() {
        let err = parse_strs(&["chrun"]).unwrap_err();
        assert!(err.contains("unknown experiment `chrun`"), "{err}");
        assert!(err.contains("adversarial"), "{err}");
    }

    #[test]
    fn recovery_is_an_explicit_only_gate_taking_secs() {
        let o = parse_strs(&["recovery", "--secs=5", "--quick"]).unwrap();
        assert!(o.named("recovery"));
        assert_eq!(o.secs, Some(5));
        assert!(o.quick);
        // Explicit-only: `all` must not pull the kill/restore gate in.
        let all = parse_strs(&[]).unwrap();
        assert!(!all.selected("recovery"));
        // The strict flag table still applies.
        let err = parse_strs(&["recovery", "--file=x.csv"]).unwrap_err();
        assert!(err.contains("only applies to [trace]"), "{err}");
        assert!(err.contains("--secs=<s>"), "{err}");
    }

    #[test]
    fn federated_is_an_explicit_only_gate_with_its_own_flags() {
        let o = parse_strs(&[
            "federated",
            "--sources-procs=4",
            "--policy=fifo",
            "--secs=6",
            "--quick",
        ])
        .unwrap();
        assert!(o.named("federated"));
        assert_eq!(o.sources_procs, Some(4));
        assert_eq!(o.policy.as_deref(), Some("fifo"));
        assert_eq!(o.secs, Some(6));
        assert!(o.quick);
        // Explicit-only: `all` must not fork subprocesses.
        let all = parse_strs(&[]).unwrap();
        assert!(!all.selected("federated"));
        // --sources-procs is federated-only; the strict table rejects it
        // elsewhere and lists federated's real flag set in the error.
        let err = parse_strs(&["policies", "--sources-procs=4"]).unwrap_err();
        assert!(err.contains("only applies to [federated]"), "{err}");
        let err = parse_strs(&["federated", "--nodes=4"]).unwrap_err();
        assert!(err.contains("--sources-procs=<n>"), "{err}");
        assert!(err.contains("--secs=<s>"), "{err}");
    }

    #[test]
    fn multiple_experiments_union_their_flags() {
        let o = parse_strs(&["churn", "trace", "--beat-ms=9", "--nodes=8"]).unwrap();
        assert_eq!((o.beat_ms, o.nodes), (Some(9), Some(8)));
        assert!(o.named("churn") && o.named("trace"));
        assert!(!o.named("scale"));
    }
}
