//! Correctness checks run by the same command as the measurements; any
//! failure makes the run incorrect and the process exit non-zero.

use std::time::Duration;

use crate::run::Outcome;

/// Runs shorter than this (`--quick`, short traced slices) end before
/// every query has closed a window and before the start-up transient has
/// washed out of the shed fraction; the two checks on settled behaviour
/// apply from here up.
const SETTLED_AFTER: Duration = Duration::from_secs(5);

/// Buffered-at-shutdown allowance, in shedding intervals of offered
/// tuples: one interval of input sits in node buffers by design, and a
/// late last tick leaves a second.
const BUFFERED_INTERVALS: f64 = 2.0;

/// Returns one line per failed check (empty: the run is correct).
pub fn check(o: &Outcome) -> Vec<String> {
    let mut failed = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    require(
        o.errors.is_empty(),
        format!("engine reported errors: {:?}", o.errors),
    );
    let bad_sic = o
        .per_query_sic
        .iter()
        .filter(|s| !(0.0..=1.0 + 1e-9).contains(*s))
        .count();
    require(
        bad_sic == 0,
        format!("{bad_sic} per-query SIC values outside [0, 1]"),
    );
    require(
        !o.per_query_sic.is_empty() && o.arrived > 0,
        "no queries sampled or no tuples arrived".to_string(),
    );
    let accounted = o.kept + o.shed;
    let gap_cap = (BUFFERED_INTERVALS * o.offered_per_interval) as u64 + 1;
    require(
        o.arrived >= accounted && o.arrived - accounted <= gap_cap,
        format!(
            "arrived {} vs kept + shed {accounted}: gap outside [0, {gap_cap}]",
            o.arrived
        ),
    );
    let settled = o.run >= SETTLED_AFTER;
    if let Some(with_results) = o.queries_with_results.filter(|_| settled) {
        let need = (o.per_query_sic.len() as f64 * 0.99).ceil() as usize;
        require(
            with_results >= need,
            format!("{with_results} queries produced a result, need {need}"),
        );
    }
    let shed_fraction = 1.0 - o.kept_fraction;
    match o.workload.overload() {
        Some(_) if !settled => {}
        Some(overload) => {
            let floor = 1.0 - 1.0 / overload - 0.02;
            require(
                shed_fraction >= floor,
                format!("shed fraction {shed_fraction:.4} below the enforced floor {floor:.4}"),
            );
        }
        None => require(
            o.shed == 0,
            format!("{} tuples shed with capacity unenforced", o.shed),
        ),
    }
    if let Some(e) = o.engine.as_ref().filter(|_| o.workload.federated()) {
        // `PeerSender::close` snapshots its sent counter once the queue is
        // empty, which can be before the writer thread has counted the
        // frame it popped last: the bye (and the count the generator
        // prints from it) may trail what the listener decoded by that one
        // frame. More than one apart means batches were lost or invented.
        let said = e.generator.map(|g| g.sent);
        require(
            said == Some(e.remote_sent_batches)
                && matches!(
                    e.remote_batches.checked_sub(e.remote_sent_batches),
                    Some(0 | 1)
                ),
            format!(
                "listener decoded {} batches, bye said {}, generator printed {said:?}",
                e.remote_batches, e.remote_sent_batches
            ),
        );
    }
    if let Some(deterministic) = o.deterministic {
        require(
            deterministic,
            "simulator runs of one seed differ in jain/mean_sic/shed_fraction".to_string(),
        );
    }
    failed
}
