//! The experiment table: every experiment the `experiments` binary knows
//! is one [`Experiment`] row of [`EXPERIMENTS`].
//!
//! Everything that lists experiments derives from the table: the menu an
//! unknown name prints, what `all` expands to (every row that is not a
//! gate), which flags a selection accepts ([`crate::cli`]) and the run
//! order. Every runner returns its tables as [`Output`]s, so one output
//! path in the binary prints and records figures and gates alike; a
//! paper figure simply has no claims.

use std::sync::Arc;

use themis_core::prelude::TimeDelta;
use themis_workloads::traces::TraceData;

use crate::cli::Options;
use crate::figures::correlation::{self, CorrelationQuery};
use crate::figures::fairness::{self, FairnessPoint};
use crate::figures::{ablation, adversarial, churn, correlated, dynamics, federated, overhead};
use crate::figures::{parity, queries, recovery, related, scalability, scale, tables, trace};
use crate::scenarios::Scale;
use crate::table::{Claim, TextTable};

/// The seed of every experiment (SIGMOD'16 started June 26).
const SEED: u64 = 20160626;

/// One table an experiment produced: its results name (the table goes to
/// `results/<name>.csv` and `results/BENCH_<name>.json`), the table, and
/// the claims that gate it (none for a paper figure).
pub type Output = (&'static str, TextTable, Vec<Claim>);

/// What a runner returns: its outputs, or an input error (the binary
/// exits 2 on it).
pub type Outputs = Result<Vec<Output>, String>;

/// Runs one experiment.
pub type Runner = fn(&Options) -> Outputs;

/// One row of the experiment table.
pub struct Experiment {
    /// Name on the command line.
    pub name: &'static str,
    /// An explicit-only gate: it runs when named, never as part of `all`,
    /// so its exit code or machine-sensitive timing cannot fail (or be
    /// polluted by) a full figure-regeneration run.
    pub gate: bool,
    /// The value flags it accepts; `--quick` applies to every row.
    pub flags: &'static [&'static str],
    /// Its runner.
    pub run: Runner,
}

impl Experiment {
    const fn figure(name: &'static str, run: Runner) -> Experiment {
        Experiment {
            name,
            gate: false,
            flags: &[],
            run,
        }
    }

    const fn gate(name: &'static str, flags: &'static [&'static str], run: Runner) -> Experiment {
        Experiment {
            name,
            gate: true,
            flags,
            run,
        }
    }
}

/// Every experiment, in run order: the paper's tables and figures (§7),
/// the extensions, then the fairness/robustness gates.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::figure("table1", |_| figure("table1", tables::table1())),
    Experiment::figure("table2", |_| figure("table2", tables::table2())),
    Experiment::figure("fig6", |c| {
        use CorrelationQuery::{Avg, Count, Max};
        correlations(
            c,
            &[
                (Avg, "fig6a_avg"),
                (Count, "fig6b_count"),
                (Max, "fig6c_max"),
            ],
        )
    }),
    Experiment::figure("fig7", |c| {
        use CorrelationQuery::{Cov, Top5};
        correlations(c, &[(Top5, "fig7a_top5"), (Cov, "fig7b_cov")])
    }),
    Experiment::figure("fig8", |c| {
        let title = "Figure 8: single-node fairness";
        sweep(c, "fig08", title, "queries", fairness::fig8)
    }),
    Experiment::figure("fig9", |c| {
        let title = "Figure 9: shedding interval";
        sweep(c, "fig09", title, "interval", fairness::fig9)
    }),
    Experiment::figure("fig10", |c| {
        let title = "Figure 10: BALANCE-SIC vs random across 18 nodes";
        sweep(c, "fig10", title, "fragments", fairness::fig10)
    }),
    Experiment::figure("fig11", |c| {
        let title = "Figure 11: multi-fragmentation ratio";
        sweep(c, "fig11", title, "ratio-3frag", fairness::fig11)
    }),
    Experiment::figure("fig12", |c| {
        let title = "Figure 12: scaling nodes";
        sweep(c, "fig12", title, "nodes", scalability::fig12)
    }),
    Experiment::figure("fig13", |c| {
        let title = "Figure 13: scaling queries";
        sweep(c, "fig13", title, "queries", scalability::fig13)
    }),
    Experiment::figure("fig14", |c| {
        let title = "Figure 14: burstiness and wide-area latency";
        sweep(c, "fig14", title, "deployment", scalability::fig14)
    }),
    Experiment::figure("related", |c| {
        let rows = related::related_work(&c.scale(), SEED);
        figure("related", related::render(&rows))
    }),
    Experiment::figure("overhead", |c| {
        let rows = overhead::overhead(if c.quick { 4 } else { 10 }, SEED);
        figure("overhead", overhead::render(&rows))
    }),
    Experiment::figure("ablation", |c| {
        use ablation::{batch_order_ablation, policy_comparison, update_sic_ablation};
        let variants = |name, title, points: Sweep| sweep(c, name, title, "variant", points);
        let update_sic = "Ablation: updateSIC dissemination (Figure 4 at scale)";
        let order = "Ablation: Algorithm 1 batch-admission order";
        let policies = "Extension: shedding-policy comparison";
        Ok([
            variants("ablation_update_sic", update_sic, update_sic_ablation)?,
            variants("ablation_batch_order", order, batch_order_ablation)?,
            variants("ablation_policies", policies, policy_comparison)?,
        ]
        .concat())
    }),
    Experiment {
        flags: &["--policy="],
        ..Experiment::figure("policies", |c| {
            let rows =
                parity::policy_parity(&c.policies(), &c.scale(), if c.quick { 1 } else { 3 }, SEED);
            figure("policies", parity::render(&rows))
        })
    },
    Experiment::figure("dynamics", |c| {
        let (points, arrive, depart) = dynamics::dynamics(&c.scale(), SEED);
        figure("dynamics", dynamics::render(&points, arrive, depart))
    }),
    Experiment::gate("churn", &["--nodes=", "--shards=", "--secs="], |c| {
        let nodes = c.nodes.unwrap_or(512) as usize;
        let out = churn::churn(nodes, c.shards.map(|k| k as usize), c.run_secs(2, 4), SEED);
        gated("churn", &out, churn::render, churn::claims)
    }),
    Experiment::gate("queries", &["--query=", "--secs="], |c| {
        let secs = c.run_secs(2, 4);
        // The ad-hoc query runs first, so a query that does not parse
        // exits before the gate spends its run.
        let run = |text: &str| queries::run_declarative(text, secs, SEED);
        let adhoc = c.query.as_deref().map(run);
        let adhoc = adhoc.transpose().map_err(|e| e.to_string())?;
        let out = queries::queries(secs, SEED);
        let mut outputs = gated("queries", &out, queries::render, queries::claims)?;
        outputs.extend(adhoc.map(|run| ("query_adhoc", queries::render_declarative(&run), vec![])));
        Ok(outputs)
    }),
    Experiment::gate("scale", &["--nodes=", "--shards=", "--secs="], |c| {
        let nodes = c.nodes.unwrap_or(1024) as usize;
        let row = scale::scale(nodes, c.shards.map(|k| k as usize), c.run_secs(2, 6), SEED);
        gated("scale", &row, scale::render, scale::claims)
    }),
    Experiment::gate("trace", &["--secs=", "--file=", "--beat-ms="], |c| {
        let file = c.file.as_deref().unwrap_or(DEFAULT_TRACE);
        let data = TraceData::load(file).map_err(|e| e.to_string())?;
        let data = match c.beat_ms {
            Some(0) => return Err(ZERO_BEAT.to_string()),
            Some(ms) => data.with_beat(TimeDelta::from_millis(ms)),
            None => data,
        };
        let mut out = trace::trace_replay(Arc::new(data), c.run_secs(3, 8), SEED);
        out.file = file.to_string();
        gated("trace", &out, trace::render, trace::claims)
    }),
    Experiment::gate("correlated", &["--secs="], |c| {
        let out = correlated::correlated(c.run_secs(3, 8), SEED);
        gated("correlated", &out, correlated::render, correlated::claims)
    }),
    Experiment::gate("recovery", &["--secs="], |c| {
        let out = recovery::recovery(c.run_secs(5, 8), SEED);
        gated("recovery", &out, recovery::render, recovery::claims)
    }),
    Experiment::gate("adversarial", &["--secs="], |c| {
        use adversarial::{claims, render};
        let out = adversarial::adversarial(c.run_secs(2, 4), SEED);
        gated("adversarial", &out, render, claims)
    }),
    Experiment::gate(
        "federated",
        &["--policy=", "--sources-procs=", "--secs="],
        |c| {
            let procs = c.sources_procs.unwrap_or(4).max(1) as usize;
            // Without its own path the binary forks no source pumps: the run
            // reports no arms, which fails the gate rather than the input.
            let out = match std::env::current_exe() {
                Ok(exe) => federated::federated(&c.policies(), procs, c.run_secs(3, 5), SEED, &exe),
                Err(e) => {
                    eprintln!("FAIL federated: cannot locate own binary to fork pumps: {e}");
                    Default::default()
                }
            };
            gated("federated", &out, federated::render, federated::claims)
        },
    ),
];

/// The trace `trace` replays without `--file`: the only tracked one.
const DEFAULT_TRACE: &str = "traces/flashcrowd-spike.json";

const ZERO_BEAT: &str = "invalid value `0` for --beat-ms=<ms> — the beat must be positive";

/// The row named `name`.
pub(crate) fn lookup(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// A paper figure's table: no claims.
fn figure(name: &'static str, table: TextTable) -> Outputs {
    Ok(vec![(name, table, Vec::new())])
}

/// A gate's table and claims, both derived from its outcome.
fn gated<T>(
    name: &'static str,
    out: &T,
    render: fn(&T) -> TextTable,
    claims: fn(&T) -> Vec<Claim>,
) -> Outputs {
    Ok(vec![(name, render(out), claims(out))])
}

/// A fairness sweep's points at a scale and seed.
type Sweep = fn(&Scale, u64) -> Vec<FairnessPoint>;

/// One fairness sweep (mean SIC and Jain per point) as a figure.
fn sweep(c: &Options, name: &'static str, title: &str, x_name: &str, points: Sweep) -> Outputs {
    let points = points(&c.scale(), SEED);
    figure(name, fairness::render(title, x_name, &points))
}

/// The §7.1 correlation figures, one table per query type.
fn correlations(c: &Options, figures: &[(CorrelationQuery, &'static str)]) -> Outputs {
    let table = |&(q, name)| {
        let points = correlation::correlation(q, &c.scale(), SEED);
        (name, correlation::render(q, &points), vec![])
    };
    Ok(figures.iter().map(table).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse, FLAGS};

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.push("all");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len() + 1, "a name is listed twice");
    }

    #[test]
    fn every_name_parses_alone() {
        for e in EXPERIMENTS {
            let o = parse([e.name]).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert!(o.named(e.name) && o.selected(e.name));
            assert_eq!(lookup(e.name).map(|r| r.name), Some(e.name));
        }
    }

    #[test]
    fn all_selects_exactly_the_figures() {
        let all = parse(["all"]).unwrap();
        for e in EXPERIMENTS {
            assert_eq!(all.selected(e.name), !e.gate, "{}", e.name);
        }
    }

    #[test]
    fn every_flag_is_accepted_by_some_row() {
        for &(flag, _) in FLAGS.iter().filter(|(flag, _)| *flag != "--quick") {
            let owned = EXPERIMENTS.iter().any(|e| e.flags.contains(&flag));
            assert!(owned, "{flag} has no owner");
        }
        // And every flag a row names is one the parser knows.
        for e in EXPERIMENTS {
            for flag in e.flags {
                assert!(FLAGS.iter().any(|&(f, _)| f == *flag), "{}: {flag}", e.name);
            }
        }
    }
}
