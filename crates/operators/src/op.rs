//! The executable operator: window + black-box logic + Eq.-3 SIC
//! propagation.
//!
//! A [`WindowedOperator`] buffers pushed tuples in its [`WindowBuffer`];
//! whenever a pane closes, the pane's columnar tuple groups are handed
//! atomically to the [`PaneLogic`], whose output batch becomes one
//! [`Emission`] once every output tuple receives `sum(input SIC) /
//! |outputs|` (Eq. 3). Row-preserving logic keeps the originating tuples'
//! timestamps; all other outputs are stamped with the pane's window
//! timestamp. The hot path never materialises owning [`Tuple`]s, and an
//! identity operator hands a pane's single drop-free input batch on by
//! move (re-stamped per Eq. 3 like any output) instead of copying it;
//! behind a pass-through window it does so as the batch is fed, without
//! building a pane at all.

use themis_core::prelude::*;

use crate::logic::{LogicSpec, PaneLogic};
use crate::window::{Pane, WindowBuffer, WindowSpec};

/// An atomic output group of one operator (becomes a batch downstream):
/// a pane timestamp plus a columnar batch of output tuples, each already
/// stamped with its Eq.-3 SIC share.
#[derive(Debug, Clone)]
pub struct Emission {
    /// Emission stamp (pane timestamp).
    pub at: Timestamp,
    batch: TupleBatch,
}

impl Emission {
    /// Wraps an output batch.
    pub fn new(at: Timestamp, batch: TupleBatch) -> Self {
        Emission { at, batch }
    }

    /// Total SIC mass carried by this emission.
    pub fn sic(&self) -> Sic {
        self.batch.sic_total()
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when the emission carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The columnar output batch.
    pub fn batch(&self) -> &TupleBatch {
        &self.batch
    }

    /// Consumes the emission, returning the columnar batch (the zero-copy
    /// hand-off to the downstream fragment's input buffer).
    pub fn into_batch(self) -> TupleBatch {
        self.batch
    }

    /// Iterates the output rows as borrowed views.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> + Clone {
        self.batch.iter()
    }

    /// Materialises the output rows as owning tuples (report/test edge).
    pub fn tuples(&self) -> Vec<Tuple> {
        self.batch.to_tuples()
    }
}

/// Declarative operator description used by query graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    /// Window that atomically groups the operator's input.
    pub window: WindowSpec,
    /// Black-box processing logic.
    pub logic: LogicSpec,
    /// Lateness grace for time windows; templates grow this along fragment
    /// chains so downstream windows wait for delayed upstream partials.
    pub grace: TimeDelta,
}

/// Default lateness grace: covers one shedding interval (250 ms) plus LAN
/// latency and processing time.
pub const DEFAULT_GRACE: TimeDelta = TimeDelta(500_000);

impl OperatorSpec {
    /// Creates a spec with the default grace.
    pub fn new(window: WindowSpec, logic: LogicSpec) -> Self {
        OperatorSpec {
            window,
            logic,
            grace: DEFAULT_GRACE,
        }
    }

    /// Creates a spec with an explicit grace.
    pub fn with_grace(window: WindowSpec, logic: LogicSpec, grace: TimeDelta) -> Self {
        OperatorSpec {
            window,
            logic,
            grace,
        }
    }

    /// A pass-through operator (receiver, forwarder, output).
    pub fn identity() -> Self {
        OperatorSpec::new(WindowSpec::PassThrough, LogicSpec::Identity)
    }

    /// Instantiates the executable operator.
    pub fn build(&self) -> WindowedOperator {
        WindowedOperator::new(
            self.window,
            self.logic.build(),
            self.logic.ports(),
            self.grace,
        )
    }

    /// Number of input ports.
    pub fn ports(&self) -> usize {
        self.logic.ports()
    }
}

/// An instantiated, stateful operator.
pub struct WindowedOperator {
    buffer: WindowBuffer,
    logic: Box<dyn PaneLogic>,
    /// [`PaneLogic::forwards_input`], read once.
    forwards: bool,
    /// A forwarding logic behind a pass-through window: every fed batch is
    /// its own pane, so it becomes an [`Emission`] at once, without
    /// building a [`Pane`].
    direct: bool,
    /// Emissions of the direct path awaiting the next drain, in feed order.
    emitted: Vec<Emission>,
    processed_tuples: u64,
}

impl WindowedOperator {
    /// Wires a window to logic over `ports` input ports.
    pub fn new(
        window: WindowSpec,
        logic: Box<dyn PaneLogic>,
        ports: usize,
        grace: TimeDelta,
    ) -> Self {
        let forwards = logic.forwards_input();
        WindowedOperator {
            buffer: WindowBuffer::new(window, ports, grace),
            forwards,
            direct: forwards && window == WindowSpec::PassThrough,
            emitted: Vec::new(),
            logic,
            processed_tuples: 0,
        }
    }

    /// Logic name, for diagnostics.
    pub fn name(&self) -> &'static str {
        self.logic.name()
    }

    /// Attaches a [`BatchPool`]: spent input batches (after their rows
    /// slice into panes) and processed pane batches (after the logic
    /// runs) recycle into it instead of round-tripping the allocator.
    pub fn set_pool(&mut self, pool: BatchPool) {
        self.buffer.set_pool(pool);
    }

    /// Feeds a batch into `port` without draining. Callers delivering to
    /// multi-port operators must feed *all* ports before calling
    /// [`WindowedOperator::tick`], otherwise a due pane could close with
    /// only part of its input (e.g. a join seeing one side only).
    pub fn feed(&mut self, port: usize, batch: impl Into<TupleBatch>, now: Timestamp) {
        if !self.direct {
            self.buffer.push(port, batch, now);
            return;
        }
        // The pane a pass-through window would build holds this one batch,
        // stamped with its latest timestamp.
        let batch = batch.into();
        if batch.is_empty() {
            return;
        }
        let (at, input_sic) = (batch.max_ts(), batch.sic_total());
        self.processed_tuples += batch.len() as u64;
        let out = if batch.drops().dropped() == 0 {
            batch
        } else {
            // Dropped rows are compacted out by the copying path.
            let out = self.logic.apply(&[&batch], at);
            if let Some(pool) = self.buffer.pool() {
                pool.recycle(batch);
            }
            out
        };
        push_stamped(&mut self.emitted, at, input_sic, out);
    }

    /// Feeds a batch into `port` and drains immediately; returns emissions
    /// that become ready (pass-through and filled count windows). Only safe
    /// for single-port operators or when ports are fed in lock-step.
    pub fn push(
        &mut self,
        port: usize,
        batch: impl Into<TupleBatch>,
        now: Timestamp,
    ) -> Vec<Emission> {
        self.feed(port, batch, now);
        self.drain(now)
    }

    /// Advances logical time, closing due panes.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Emission> {
        self.drain(now)
    }

    /// When [`WindowedOperator::tick`] next has a pane to close: at once
    /// (`Timestamp::ZERO`) when an emission or pane is ready, otherwise
    /// [`WindowBuffer::next_due`].
    pub fn next_due(&self) -> Option<Timestamp> {
        if self.emitted.is_empty() {
            self.buffer.next_due()
        } else {
            Some(Timestamp::ZERO)
        }
    }

    /// True when [`WindowedOperator::tick`] at `now` has a pane to close
    /// ([`WindowedOperator::next_due`] has passed).
    pub fn has_due(&self, now: Timestamp) -> bool {
        self.next_due().is_some_and(|due| due <= now)
    }

    /// Tuples processed by the logic so far (cost-model accounting).
    pub fn processed_tuples(&self) -> u64 {
        self.processed_tuples
    }

    /// Tuples currently buffered in open windows.
    pub fn buffered_tuples(&self) -> usize {
        self.buffer.buffered()
    }

    /// Exports the window buffer's panes for checkpointing
    /// ([`WindowBuffer::export_state`]).
    pub fn export_window(&self) -> Vec<(PaneKey, usize, TupleBatch)> {
        self.buffer.export_state()
    }

    /// Restores one checkpointed pane into the window buffer
    /// ([`WindowBuffer::import_state`]).
    pub fn import_window(&mut self, key: PaneKey, port: usize, batch: TupleBatch) {
        self.buffer.import_state(key, port, batch);
    }

    fn drain(&mut self, now: Timestamp) -> Vec<Emission> {
        let mut out = std::mem::take(&mut self.emitted);
        for mut pane in self.buffer.close_up_to(now) {
            let input_sic = pane.input_sic();
            self.processed_tuples += pane.input_len() as u64;
            let batch = match self.forwarded_port(&pane) {
                // The pane's one drop-free input already is the identity
                // output: hand it on by move instead of copying it.
                Some(port) => std::mem::take(&mut pane.inputs[port]),
                None => {
                    let batch = match pane.inputs.as_slice() {
                        [one] => self.logic.apply(&[one], pane.at),
                        inputs => {
                            let groups: Vec<&TupleBatch> = inputs.iter().collect();
                            self.logic.apply(&groups, pane.at)
                        }
                    };
                    // The pane's columns are spent; with a pool attached
                    // they go back for the next emission/pane of the same
                    // schema.
                    if let Some(pool) = self.buffer.pool() {
                        for b in pane.inputs.drain(..) {
                            pool.recycle(b);
                        }
                    }
                    batch
                }
            };
            push_stamped(&mut out, pane.at, input_sic, batch);
        }
        out
    }

    /// The port of `pane`'s only non-empty input when the logic forwards
    /// its input unchanged and that input has no dropped rows — the case
    /// where moving the batch on equals what `apply` would copy. A batch
    /// with dropped rows takes the copying path, which compacts them out.
    fn forwarded_port(&self, pane: &Pane) -> Option<usize> {
        if !self.forwards {
            return None;
        }
        let mut inputs = pane.inputs.iter().enumerate().filter(|(_, b)| b.rows() > 0);
        let (port, batch) = inputs.next()?;
        (inputs.next().is_none() && batch.drops().dropped() == 0).then_some(port)
    }
}

/// Appends `batch` to `out` as an emission stamped `at`. A pane yielding
/// no derived tuples emits nothing (its mass is lost — the paper's model);
/// otherwise Eq. 3 re-stamps every output with an equal share of the
/// pane's input mass.
fn push_stamped(out: &mut Vec<Emission>, at: Timestamp, input_sic: Sic, mut batch: TupleBatch) {
    if !batch.is_empty() {
        batch.set_uniform_sic(Sic::derived_tuple(input_sic, batch.len()));
        out.push(Emission::new(at, batch));
    }
}

impl std::fmt::Debug for WindowedOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedOperator")
            .field("logic", &self.logic.name())
            .field("window", &self.buffer.spec())
            .field("buffered", &self.buffer.buffered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{CmpOp, Predicate};

    fn t(ms: u64, sic: f64, v: f64) -> Tuple {
        Tuple::measurement(Timestamp::from_millis(ms), Sic(sic), v)
    }

    fn spec_no_grace(window: WindowSpec, logic: LogicSpec) -> OperatorSpec {
        OperatorSpec::with_grace(window, logic, TimeDelta::ZERO)
    }

    #[test]
    fn avg_operator_propagates_sic() {
        let spec = spec_no_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Avg { field: 0 },
        );
        let mut op = spec.build();
        assert!(op
            .push(
                0,
                vec![t(100, 0.25, 10.0), t(600, 0.25, 30.0)],
                Timestamp::from_millis(600),
            )
            .is_empty());
        let out = op.tick(Timestamp::from_secs(1));
        assert_eq!(out.len(), 1);
        let e = &out[0];
        assert_eq!(e.len(), 1);
        let row = e.tuples().remove(0);
        assert_eq!(row.f64(0), 20.0);
        // Eq. 3: 0.5 total input SIC over 1 output.
        assert!((row.sic.value() - 0.5).abs() < 1e-12);
        // Aggregate output is stamped 1 us before the window end.
        assert_eq!(row.ts, Timestamp(999_999));
        assert_eq!(op.processed_tuples(), 2);
    }

    #[test]
    fn grace_defers_emission() {
        let spec = OperatorSpec::new(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Avg { field: 0 },
        );
        assert_eq!(spec.grace, DEFAULT_GRACE);
        let mut op = spec.build();
        op.push(0, vec![t(100, 0.1, 1.0)], Timestamp::from_millis(100));
        assert!(op.tick(Timestamp::from_secs(1)).is_empty());
        assert_eq!(op.tick(Timestamp::from_millis(1500)).len(), 1);
    }

    #[test]
    fn filter_redistributes_mass_over_survivors() {
        let spec = spec_no_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Filter(Predicate::new(0, CmpOp::Ge, 50.0)),
        );
        let mut op = spec.build();
        op.push(
            0,
            vec![t(0, 0.1, 10.0), t(1, 0.1, 60.0), t(2, 0.1, 70.0)],
            Timestamp::from_millis(2),
        );
        let out = op.tick(Timestamp::from_secs(1));
        let e = &out[0];
        assert_eq!(e.len(), 2);
        // 0.3 input mass over 2 survivors: 0.15 each.
        for tu in e.iter() {
            assert!((tu.sic.value() - 0.15).abs() < 1e-12);
        }
        assert!((e.sic().value() - 0.3).abs() < 1e-12);
        // Row-preserving: original timestamps kept.
        assert_eq!(e.batch().row(0).ts, Timestamp::from_millis(1));
    }

    #[test]
    fn empty_output_loses_mass() {
        let spec = spec_no_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Filter(Predicate::new(0, CmpOp::Ge, 1000.0)),
        );
        let mut op = spec.build();
        op.push(0, vec![t(0, 0.1, 10.0)], Timestamp(0));
        let out = op.tick(Timestamp::from_secs(2));
        assert!(out.is_empty(), "no emission when all rows filtered");
    }

    #[test]
    fn passthrough_emits_on_push() {
        let mut op = OperatorSpec::identity().build();
        let out = op.push(0, vec![t(5, 0.2, 1.0)], Timestamp::from_millis(9));
        assert_eq!(out.len(), 1);
        let row = out[0].batch().row(0);
        assert_eq!(row.sic, Sic(0.2));
        assert_eq!(row.f64(0), 1.0);
        // Identity keeps the tuple's own timestamp.
        assert_eq!(row.ts, Timestamp::from_millis(5));
    }

    #[test]
    fn pooled_operator_recycles_input_and_pane_batches() {
        let spec = spec_no_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Avg { field: 0 },
        );
        let mut op = spec.build();
        let pool = BatchPool::new();
        op.set_pool(pool.clone());
        let schema = Schema::new([("v", FieldType::F64)]);
        let mut batch = pool.acquire(&schema, 2);
        batch.push_row(Timestamp::from_millis(100), Sic(0.25), &[Value::F64(10.0)]);
        batch.push_row(Timestamp::from_millis(600), Sic(0.25), &[Value::F64(30.0)]);
        op.push(0, batch, Timestamp::from_millis(600));
        // The spent input batch pooled at push time.
        assert_eq!(pool.idle(), 1);
        let out = op.tick(Timestamp::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuples()[0].f64(0), 20.0);
        // The processed pane (the source's schema) joined it at drain; the
        // emission's derived `[avg]` schema is not pooled.
        assert_eq!(pool.idle(), 2);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn two_port_join_spreads_combined_mass() {
        let spec = spec_no_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Join {
                left_key: 0,
                right_key: 0,
            },
        );
        let mut op = spec.build();
        let row = |id: i64, v: f64, sic: f64| {
            Tuple::new(
                Timestamp::from_millis(10),
                Sic(sic),
                vec![Value::I64(id), Value::F64(v)],
            )
        };
        op.push(
            0,
            vec![row(1, 0.9, 0.2), row(2, 0.5, 0.2)],
            Timestamp::from_millis(10),
        );
        op.push(1, vec![row(1, 128.0, 0.3)], Timestamp::from_millis(10));
        let out = op.tick(Timestamp::from_secs(1));
        assert_eq!(out.len(), 1);
        let e = &out[0];
        assert_eq!(e.len(), 1, "only id 1 matches");
        // Combined input mass 0.7 over one output row.
        assert!((e.batch().row(0).sic.value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn figure2_three_operator_query() {
        // Reproduces Figure 2 (no shedding): operators b and c feed a.
        // b: 4 source tuples (SIC 0.125) -> 2 derived (0.25 each).
        // c: 2 source tuples (SIC 0.25)  -> 2 derived (0.25 each).
        // a: 4 derived -> results carrying total qSIC = 1.
        let win = WindowSpec::tumbling(TimeDelta::from_secs(1));
        let mut b = WindowedOperator::new(
            WindowSpec::Count { count: 2 },
            LogicSpec::Avg { field: 0 }.build(),
            1,
            TimeDelta::ZERO,
        );
        let mut c = WindowedOperator::new(
            WindowSpec::Count { count: 1 },
            LogicSpec::Identity.build(),
            1,
            TimeDelta::ZERO,
        );
        let mut a =
            WindowedOperator::new(win, LogicSpec::Avg { field: 0 }.build(), 1, TimeDelta::ZERO);

        let now = Timestamp::from_millis(10);
        let b_in: Vec<Tuple> = (0..4).map(|i| t(10, 0.125, i as f64)).collect();
        let c_in: Vec<Tuple> = (0..2).map(|i| t(10, 0.25, i as f64)).collect();
        let mut b_out = TupleBatch::new();
        for e in b.push(0, b_in, now) {
            b_out.append_batch(e.batch());
        }
        let mut c_out = TupleBatch::new();
        for e in c.push(0, c_in, now) {
            c_out.append_batch(e.batch());
        }
        assert_eq!(b_out.len(), 2);
        assert!(b_out.iter().all(|t| (t.sic.value() - 0.25).abs() < 1e-12));
        assert_eq!(c_out.len(), 2);

        a.push(0, b_out, now);
        a.push(0, c_out, now);
        let results = a.tick(Timestamp::from_secs(1));
        let total: f64 = results.iter().map(|e| e.sic().value()).sum();
        assert!((total - 1.0).abs() < 1e-12, "qSIC = {total}");
    }
}
