//! Declarative-query parity: the gate behind the spec-compilation
//! refactor.
//!
//! Every Table-1 template is rendered to its canonical query text
//! ([`Template::text`]), re-parsed through the declarative frontend, and
//! compiled through the staged `QueryDef -> ValidatedQuery ->
//! CompiledQuery` pipeline. The gate asserts two things per template:
//!
//! 1. **Structural parity** — the parsed-text path produces an
//!    operator-for-operator identical [`QuerySpec`] to the preset path.
//! 2. **Behavioural parity** — the same overloaded scenario built from
//!    the text path and from the preset path simulates to *bitwise*
//!    identical mean-SIC and Jain numbers under every policy in the
//!    shedding registry (the simulator is deterministic, so any
//!    divergence is a compilation difference, not noise).
//!
//! A third probe attaches a declarative `GROUP BY` query to the live
//! engine mid-run ([`Engine::attach_spec`]) and asserts the dictionary
//! group-by kernel ([`group_kernel_invocations`]) actually fired —
//! proving text reaches the typed columnar hot path, not a row fallback.
//!
//! [`claims`] turns both checks into the `experiments queries` gate.

use std::time::Duration;

use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_operators::kernels::group_kernel_invocations;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::table::{f, Claim, TextTable};

/// The declarative `GROUP BY` query the engine probe attaches.
pub const GROUP_BY_QUERY: &str = "SELECT host, SUM(value) FROM sensors[4] GROUP BY host";

/// One template x policy simulator comparison.
#[derive(Debug, Clone, Default)]
pub struct PolicyCell {
    /// Registry policy name.
    pub policy: String,
    /// Mean SIC / Jain of the preset-template scenario.
    pub template_sic: (f64, f64),
    /// Mean SIC / Jain of the parsed-text scenario.
    pub spec_sic: (f64, f64),
}

impl PolicyCell {
    /// Bitwise equality of both fairness numbers across the two paths.
    pub fn matches(&self) -> bool {
        self.template_sic.0.to_bits() == self.spec_sic.0.to_bits()
            && self.template_sic.1.to_bits() == self.spec_sic.1.to_bits()
    }
}

/// Parity verdict for one Table-1 template.
#[derive(Debug, Clone, Default)]
pub struct TemplateParityRow {
    /// Template name (Table 1 row).
    pub template: String,
    /// Canonical query text the template renders to.
    pub text: String,
    /// Parsed text compiles to a graph equal to the preset's.
    pub structural_match: bool,
    /// Simulator comparison per registered policy.
    pub policies: Vec<PolicyCell>,
}

impl TemplateParityRow {
    /// Structural plus behavioural mismatches (0 = full parity).
    pub fn mismatches(&self) -> usize {
        usize::from(!self.structural_match) + self.policies.iter().filter(|c| !c.matches()).count()
    }
}

/// Result of the live-engine `GROUP BY` dispatch probe.
#[derive(Debug, Clone, Default)]
pub struct GroupByProbe {
    /// The query text attached.
    pub query: String,
    /// Group-kernel invocations observed during the attached window.
    pub kernel_calls: u64,
    /// Result emissions the attached query produced.
    pub results: usize,
}

/// Full outcome of the `queries` experiment.
#[derive(Debug, Clone, Default)]
pub struct QueriesOutcome {
    /// Per-template parity rows.
    pub parity: Vec<TemplateParityRow>,
    /// The engine `GROUP BY` probe.
    pub group_by: GroupByProbe,
}

/// The parity gate: every template matches on both axes, and the
/// declarative `GROUP BY` ran through the dictionary kernel and emitted
/// grouped results.
pub fn claims(out: &QueriesOutcome) -> Vec<Claim> {
    let mut claims: Vec<Claim> = out
        .parity
        .iter()
        .map(|r| {
            Claim::at_most(
                format!("{}.mismatches", r.template),
                r.mismatches() as f64,
                0.0,
            )
        })
        .collect();
    claims.push(Claim::above(
        "group_by.kernel_calls",
        out.group_by.kernel_calls as f64,
        0.0,
    ));
    claims.push(Claim::above(
        "group_by.results",
        out.group_by.results as f64,
        0.0,
    ));
    claims
}

/// The Table-1 presets the parity gate sweeps (complex templates at the
/// fragment counts Table 1 quotes).
fn table1_templates() -> Vec<Template> {
    vec![
        Template::Avg,
        Template::Max,
        Template::Count,
        Template::AvgAll { fragments: 3 },
        Template::Top5 { fragments: 2 },
        Template::Cov { fragments: 2 },
    ]
}

/// An overloaded little federation for one template: six queries on
/// three undersized nodes, so every policy actually sheds and the
/// fairness numbers it is compared on are non-trivial — while the 6x6
/// sweep stays a smoke.
fn parity_scenario(name: String, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(name, seed)
        .nodes(3)
        .capacity_tps(60)
        .stw_window(TimeDelta::from_secs(3))
        .duration(TimeDelta::from_secs(12))
        .warmup(TimeDelta::from_secs(6))
}

/// Runs the structural + behavioural parity sweep.
pub fn queries_parity(seed: u64) -> Vec<TemplateParityRow> {
    let profile = SourceProfile::steady(40, 4, Dataset::Uniform);
    table1_templates()
        .into_iter()
        .map(|t| {
            let text = t.text();
            let parsed = QueryDef::parse(&text)
                .expect("template text parses")
                .named(t.name())
                .validate()
                .expect("template text validates");
            let mut preset_ids = IdGen::new();
            let mut parsed_ids = IdGen::new();
            let structural_match = parsed.compile(QueryId(0), &mut parsed_ids).into_spec()
                == t.build(QueryId(0), &mut preset_ids);
            let policies = registered_policies()
                .into_iter()
                .map(|policy| {
                    let label = format!("queries-{}-{}", t.name(), policy.name());
                    let via_template = run_scenario(
                        parity_scenario(label.clone(), seed)
                            .add_queries(t, 6, profile)
                            .build()
                            .expect("placement"),
                        SimConfig::with_policy(policy.clone()),
                    );
                    let via_spec = run_scenario(
                        parity_scenario(label, seed)
                            .add_query_defs(&parsed, 6, profile)
                            .build()
                            .expect("placement"),
                        SimConfig::with_policy(policy.clone()),
                    );
                    PolicyCell {
                        policy: policy.name().to_string(),
                        template_sic: (via_template.mean_sic(), via_template.jain()),
                        spec_sic: (via_spec.mean_sic(), via_spec.jain()),
                    }
                })
                .collect();
            TemplateParityRow {
                template: t.name().to_string(),
                text,
                structural_match,
                policies,
            }
        })
        .collect()
}

/// Attaches [`GROUP_BY_QUERY`] to a running engine and measures whether
/// the dictionary group-by kernel fired while it was attached.
pub fn group_by_probe(secs: u64, seed: u64) -> GroupByProbe {
    let stw = TimeDelta::from_secs(1);
    let scenario = ScenarioBuilder::new("queries-group-by", seed)
        .nodes(2)
        .capacity_tps(1_000_000)
        .stw_window(stw)
        .duration(TimeDelta::from_secs(secs.max(2)))
        .warmup(TimeDelta::from_millis(500))
        .add_queries(
            Template::Avg,
            1,
            SourceProfile::steady(200, 5, Dataset::Uniform),
        )
        .build()
        .expect("placement");
    let validated = QueryDef::parse(GROUP_BY_QUERY)
        .expect("probe query parses")
        .validate()
        .expect("probe query validates");

    let mut engine = Engine::start(&scenario, EngineConfig::default());
    engine.run_for(Duration::from_millis(500));
    let calls_before = group_kernel_invocations();
    let attached = engine.attach_spec(&validated, SourceProfile::steady(200, 5, Dataset::Uniform));
    engine.run_for(Duration::from_secs(secs.max(2)));
    let kernel_calls = group_kernel_invocations() - calls_before;
    let report = engine.finish();
    GroupByProbe {
        query: GROUP_BY_QUERY.to_string(),
        kernel_calls,
        results: report.result_counts.get(&attached).copied().unwrap_or(0),
    }
}

/// Runs the whole `queries` experiment.
pub fn queries(secs: u64, seed: u64) -> QueriesOutcome {
    QueriesOutcome {
        parity: queries_parity(seed),
        group_by: group_by_probe(secs, seed),
    }
}

/// One ad-hoc declarative query run end-to-end on the engine
/// (`experiments queries --query='<text>'`).
#[derive(Debug, Clone)]
pub struct DeclarativeRun {
    /// Query name (the canonical text unless renamed).
    pub name: String,
    /// Canonical re-rendered text.
    pub text: String,
    /// Fragments in the compiled graph.
    pub fragments: usize,
    /// Operators in fragment 0.
    pub ops: usize,
    /// Sources feeding the query.
    pub sources: usize,
    /// Mean result SIC over the run.
    pub mean_sic: f64,
    /// Result emissions observed.
    pub results: usize,
}

/// Parses, validates, compiles and runs one declarative query on the
/// engine for `secs` seconds. Errors are the frontend's actionable
/// [`SpecError`] messages, ready to print.
pub fn run_declarative(text: &str, secs: u64, seed: u64) -> Result<DeclarativeRun, SpecError> {
    let validated = QueryDef::parse(text)?.validate()?;
    let canonical = validated.def().text();
    let name = validated.def().name.clone();
    let scenario = ScenarioBuilder::new(format!("declarative: {name}"), seed)
        .nodes(validated.def().fragments.max(1))
        .capacity_tps(1_000_000)
        .stw_window(TimeDelta::from_secs(1))
        .duration(TimeDelta::from_secs(secs.max(2)))
        .warmup(TimeDelta::from_millis(500))
        .add_query_defs(
            &validated,
            1,
            SourceProfile::steady(200, 5, Dataset::Uniform),
        )
        .build()
        .expect("single-query placement");
    let q = &scenario.queries[0];
    let (id, fragments, ops, sources) = (
        q.id,
        q.n_fragments(),
        q.fragments[0].n_operators(),
        q.n_sources(),
    );
    let report = run_engine(&scenario, EngineConfig::default());
    let mean_sic = report
        .per_query_sic
        .iter()
        .find(|(qid, _)| *qid == id)
        .map(|&(_, s)| s)
        .unwrap_or(0.0);
    Ok(DeclarativeRun {
        name,
        text: canonical,
        fragments,
        ops,
        sources,
        mean_sic,
        results: report.result_counts.get(&id).copied().unwrap_or(0),
    })
}

/// Renders the parity sweep plus the group-by probe.
pub fn render(out: &QueriesOutcome) -> TextTable {
    let mut t = TextTable::new(
        "Declarative-query parity: parsed text vs Table-1 presets (all registry policies)",
        &[
            "template",
            "policy",
            "graph",
            "tmpl-sic/jain",
            "spec-sic/jain",
            "match",
        ],
    );
    for row in &out.parity {
        for cell in &row.policies {
            t.row(vec![
                row.template.clone(),
                cell.policy.clone(),
                if row.structural_match {
                    "equal"
                } else {
                    "DIFFERS"
                }
                .to_string(),
                format!("{}/{}", f(cell.template_sic.0), f(cell.template_sic.1)),
                format!("{}/{}", f(cell.spec_sic.0), f(cell.spec_sic.1)),
                if cell.matches() { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.row(vec![
        "GROUP BY probe".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{} kernel calls", out.group_by.kernel_calls),
        format!("{} results", out.group_by.results),
        "-".to_string(),
    ]);
    t
}

/// Renders one ad-hoc declarative run.
pub fn render_declarative(run: &DeclarativeRun) -> TextTable {
    let mut t = TextTable::new(
        format!("Declarative query: {}", run.name),
        &[
            "text",
            "fragments",
            "ops/frag",
            "sources",
            "mean-sic",
            "results",
        ],
    );
    t.row(vec![
        run.text.clone(),
        run.fragments.to_string(),
        run.ops.to_string(),
        run.sources.to_string(),
        f(run.mean_sic),
        run.results.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully matching outcome with `edit` breaking one clause.
    fn passes(edit: impl FnOnce(&mut QueriesOutcome)) -> bool {
        let cell = PolicyCell {
            template_sic: (0.5, 0.9),
            spec_sic: (0.5, 0.9),
            ..Default::default()
        };
        let row = TemplateParityRow {
            structural_match: true,
            policies: vec![cell.clone(), cell],
            ..Default::default()
        };
        let mut out = QueriesOutcome {
            parity: vec![row.clone(), row],
            group_by: GroupByProbe {
                kernel_calls: 1,
                results: 1,
                ..Default::default()
            },
        };
        edit(&mut out);
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        let next_up = |v: &mut f64| *v = f64::from_bits(v.to_bits() + 1);
        assert!(passes(|_| {}));
        assert!(!passes(|o| next_up(
            &mut o.parity[1].policies[1].spec_sic.0
        )));
        assert!(!passes(|o| next_up(
            &mut o.parity[0].policies[0].spec_sic.1
        )));
        assert!(!passes(|o| o.parity[0].structural_match = false));
        assert!(!passes(|o| o.group_by.kernel_calls = 0));
        assert!(!passes(|o| o.group_by.results = 0));
    }
}
