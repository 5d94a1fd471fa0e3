//! Windows that atomically emit tuples for operator processing.
//!
//! The paper's model (§3): "for each operator o ∈ O, there exists a time or
//! count window that atomically emits tuples for processing by o". The
//! window therefore defines the *atomic input group* (`T_in` of Eq. 3); the
//! operator distributes the group's SIC mass over its outputs.
//!
//! Panes are stored as columnar [`TupleBatch`]es, one per input port, and
//! time panes sit in one deque ordered by pane index. A drop-free batch
//! whose rows all fall into one tumbling pane, pushed into a port that has
//! no rows in that pane yet, *becomes* that port's batch by move — the
//! common case of a slow source, whose every batch opens its own pane.
//! Every other push (sliding and count windows, a batch spanning panes or
//! joining rows already buffered, a batch with shed rows) copies the live
//! rows column to column into the target panes. The two paths hold the
//! same rows, so closed panes and checkpoints are bit for bit the same.
//!
//! Two timing details matter for multi-fragment queries:
//!
//! * **Grace**: in a distributed deployment tuples reach a window after
//!   network latency and input-buffer queueing, so a time window only closes
//!   `grace` after its end. Query templates grow the grace along fragment
//!   chains so downstream windows wait for upstream partials.
//! * **Stamping**: a closed pane carries the timestamp that aggregate
//!   outputs are stamped with — one microsecond *before* the window end, so
//!   downstream windows of the same length assign derived results to the
//!   same window index instead of cascading one window of latency per hop.

use std::collections::VecDeque;

use themis_core::prelude::*;

/// How an operator's input is grouped into atomic panes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// Every pushed batch is processed immediately as its own pane
    /// (per-batch operators: receivers, pass-through filters, forwarders).
    PassThrough,
    /// Tumbling time window: pane `k` covers `[k·size, (k+1)·size)` and
    /// closes `grace` after logical time passes its end.
    Tumbling {
        /// Window length.
        size: TimeDelta,
    },
    /// Sliding time window: panes of `size` every `slide`. A tuple belongs
    /// to `size/slide` panes; its SIC value is divided by that overlap so
    /// mass is conserved (§6 "we also provide a practical way to divide the
    /// SIC value of an input tuple across all its derived tuples per
    /// slide").
    Sliding {
        /// Window length.
        size: TimeDelta,
        /// Slide between pane starts.
        slide: TimeDelta,
    },
    /// Count window: a pane closes after `count` tuples (per port).
    Count {
        /// Tuples per pane.
        count: usize,
    },
}

impl WindowSpec {
    /// Tumbling window helper.
    pub fn tumbling(size: TimeDelta) -> Self {
        WindowSpec::Tumbling { size }
    }

    /// Sliding window helper; a slide of zero or larger than `size`
    /// degenerates to a tumbling window.
    pub fn sliding(size: TimeDelta, slide: TimeDelta) -> Self {
        if slide.is_zero() || slide >= size {
            WindowSpec::Tumbling { size }
        } else {
            WindowSpec::Sliding { size, slide }
        }
    }

    /// Number of panes a tuple participates in.
    pub fn overlap(&self) -> u64 {
        match self {
            WindowSpec::Sliding { size, slide } => size.div(*slide).max(1),
            _ => 1,
        }
    }

    /// True for time-based windows (the ones affected by grace).
    pub fn is_timed(&self) -> bool {
        matches!(
            self,
            WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
        )
    }

    /// End of time pane `idx`, in microseconds (0 for untimed windows).
    fn pane_end(&self, idx: u64) -> u64 {
        match *self {
            WindowSpec::Tumbling { size } => (idx + 1) * size.as_micros().max(1),
            WindowSpec::Sliding { size, slide } => {
                idx * slide.as_micros().max(1) + size.as_micros().max(1)
            }
            _ => 0,
        }
    }
}

/// A closed pane ready for operator processing.
#[derive(Debug, Clone)]
pub struct Pane {
    /// Stamp for derived aggregate outputs: one microsecond before the
    /// window end for time windows, the latest input timestamp otherwise.
    pub at: Timestamp,
    /// The atomic tuple groups, one columnar batch per input port.
    pub inputs: Vec<TupleBatch>,
}

impl Pane {
    /// Total SIC mass across all ports (the `Σ SIC(T_in)` of Eq. 3).
    pub fn input_sic(&self) -> Sic {
        self.inputs.iter().map(TupleBatch::sic_total).sum()
    }

    /// Total tuples across all ports.
    pub fn input_len(&self) -> usize {
        self.inputs.iter().map(TupleBatch::len).sum()
    }

    fn max_ts(&self) -> Timestamp {
        self.inputs
            .iter()
            .map(TupleBatch::max_ts)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }
}

/// Multi-port pane buffer implementing [`WindowSpec`].
#[derive(Debug)]
pub struct WindowBuffer {
    spec: WindowSpec,
    ports: usize,
    grace: TimeDelta,
    /// Time windows: open panes in ascending index order, each with its
    /// per-port columnar batches.
    panes: VecDeque<(u64, Vec<TupleBatch>)>,
    /// Count windows: per-port pending columns (empty for other kinds).
    pending: Vec<TupleBatch>,
    /// Pass-through and count windows: panes ready to close, in order.
    ready: VecDeque<Pane>,
    /// Recycles spent input batches after their rows are copied into
    /// panes (time windows) or appended to pending columns (count
    /// windows); `None` drops them. An adopted batch is not spent: it
    /// recycles with its pane.
    pool: Option<BatchPool>,
}

impl WindowBuffer {
    /// Creates a buffer for `ports` input ports; time windows close `grace`
    /// after their end.
    pub fn new(spec: WindowSpec, ports: usize, grace: TimeDelta) -> Self {
        WindowBuffer {
            spec,
            ports: ports.max(1),
            grace,
            panes: VecDeque::new(),
            pending: match spec {
                WindowSpec::Count { .. } => vec![TupleBatch::new(); ports.max(1)],
                _ => Vec::new(),
            },
            ready: VecDeque::new(),
            pool: None,
        }
    }

    /// Attaches a [`BatchPool`]; spent input batches recycle into it
    /// instead of hitting the allocator.
    pub fn set_pool(&mut self, pool: BatchPool) {
        self.pool = Some(pool);
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&BatchPool> {
        self.pool.as_ref()
    }

    /// The configured window.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Number of input ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Lateness grace applied to time windows.
    pub fn grace(&self) -> TimeDelta {
        self.grace
    }

    /// Buffered tuple count (for memory accounting).
    pub fn buffered(&self) -> usize {
        let in_panes: usize = self
            .panes
            .iter()
            .map(|(_, ps)| ps.iter().map(TupleBatch::len).sum::<usize>())
            .sum();
        let in_pending: usize = self.pending.iter().map(TupleBatch::len).sum();
        in_panes + in_pending
    }

    /// Pushes a columnar batch into `port` at logical time `now`.
    pub fn push(&mut self, port: usize, batch: impl Into<TupleBatch>, now: Timestamp) {
        let batch = batch.into();
        let port = port.min(self.ports - 1);
        match self.spec {
            WindowSpec::PassThrough => {
                if !batch.is_empty() {
                    let mut inputs = vec![TupleBatch::new(); self.ports];
                    inputs[port] = batch;
                    let mut pane = Pane { at: now, inputs };
                    pane.at = pane.max_ts();
                    self.ready.push_back(pane);
                }
            }
            WindowSpec::Tumbling { size } => {
                let size_us = size.as_micros().max(1);
                if let Some(idx) = single_pane(&batch, size_us) {
                    let slot = self.pane_port(idx, port);
                    if slot.schema().is_none() && batch.drops().words().is_empty() {
                        // A fresh port store would adopt this schema and
                        // copy exactly these rows: take the batch instead.
                        // (An all-live bitmap would reach checkpoints,
                        // where a copied pane has none.)
                        *slot = batch;
                        return;
                    }
                    // The same rows push_ref would copy one by one.
                    slot.append_batch(&batch);
                } else {
                    for r in batch.iter() {
                        let idx = r.ts.as_micros() / size_us;
                        // push_ref keeps typed batches typed: the pane
                        // adopts the batch's schema and copies
                        // column-to-column.
                        self.pane_port(idx, port).push_ref(r);
                    }
                }
                self.recycle_spent(batch);
            }
            WindowSpec::Sliding { slide, .. } => {
                // A tuple at time τ belongs to panes whose span covers τ.
                // Pane p covers [p·slide, p·slide + size); SIC is divided by
                // the overlap to conserve mass (§6).
                let slide_us = slide.as_micros().max(1);
                let overlap = self.spec.overlap();
                for r in batch.iter() {
                    let last = r.ts.as_micros() / slide_us;
                    let first = last.saturating_sub(overlap - 1);
                    // Divide by the number of panes the tuple actually
                    // joins: near the stream start there are fewer than
                    // `overlap` panes, and dividing by the full overlap
                    // would silently lose SIC mass.
                    let n_panes = last - first + 1;
                    let shared = Sic(r.sic.value() / n_panes as f64);
                    for idx in first..=last {
                        self.pane_port(idx, port).push_ref_sic(r, shared);
                    }
                }
                self.recycle_spent(batch);
            }
            WindowSpec::Count { count } => {
                let count = count.max(1);
                self.pending[port].append_batch(&batch);
                self.recycle_spent(batch);
                while self.pending[port].len() >= count {
                    let full = self.pending[port].split_front(count);
                    let mut inputs = vec![TupleBatch::new(); self.ports];
                    inputs[port] = full;
                    let mut pane = Pane { at: now, inputs };
                    pane.at = pane.max_ts();
                    self.ready.push_back(pane);
                }
            }
        }
    }

    /// The per-port column store of time pane `idx`, inserted in index
    /// order on demand.
    fn pane_port(&mut self, idx: u64, port: usize) -> &mut TupleBatch {
        // Rows land in the newest pane almost always.
        let pos = match self.panes.back() {
            Some(&(last, _)) if last < idx => Err(self.panes.len()),
            _ => self.panes.binary_search_by_key(&idx, |&(i, _)| i),
        };
        let pos = pos.unwrap_or_else(|pos| {
            let pane = (idx, vec![TupleBatch::new(); self.ports]);
            self.panes.insert(pos, pane);
            pos
        });
        &mut self.panes[pos].1[port]
    }

    /// Returns a spent input batch to the pool (no-op without one; the
    /// pool itself ignores schemas no producer acquires).
    fn recycle_spent(&self, batch: TupleBatch) {
        if let Some(pool) = &self.pool {
            pool.recycle(batch);
        }
    }

    /// Exports every buffered pane for checkpointing: one
    /// `(key, port, batch)` entry per non-empty per-port column store.
    /// The transient `ready` queue is not exported — pass-through and
    /// just-closed panes are consumed within the same tick, which is the
    /// bounded divergence the checkpoint accepts (AF-Stream style).
    pub fn export_state(&self) -> Vec<(PaneKey, usize, TupleBatch)> {
        let mut out = Vec::new();
        for (idx, ports) in &self.panes {
            for (port, batch) in ports.iter().enumerate() {
                if !batch.is_empty() {
                    out.push((PaneKey::Time(*idx), port, batch.clone()));
                }
            }
        }
        for (port, batch) in self.pending.iter().enumerate() {
            if !batch.is_empty() {
                out.push((PaneKey::Pending, port, batch.clone()));
            }
        }
        out
    }

    /// Restores one checkpointed pane, replacing whatever the buffer holds
    /// under the same key/port (restore targets a freshly-built buffer).
    pub fn import_state(&mut self, key: PaneKey, port: usize, batch: TupleBatch) {
        let port = port.min(self.ports - 1);
        match key {
            PaneKey::Time(idx) => *self.pane_port(idx, port) = batch,
            // Only a count window exports pending columns.
            PaneKey::Pending => {
                if let Some(pending) = self.pending.get_mut(port) {
                    *pending = batch;
                }
            }
        }
    }

    /// When [`WindowBuffer::close_next`] next has a pane to close: at
    /// once (`Timestamp::ZERO`) when a pass-through or count pane is
    /// ready, at the oldest time pane's end plus grace otherwise, and
    /// never (`None`) while the buffer holds no pane. Lets an idle tick
    /// skip the close (and its allocations) altogether.
    pub fn next_due(&self) -> Option<Timestamp> {
        if !self.ready.is_empty() {
            return Some(Timestamp::ZERO);
        }
        if !self.spec.is_timed() {
            return None;
        }
        let &(idx, _) = self.panes.front()?;
        Some(Timestamp(self.spec.pane_end(idx) + self.grace.as_micros()))
    }

    /// Closes the next due pane: a ready pass-through/count pane first,
    /// else the oldest time pane whose end (plus grace) has passed `now`;
    /// `None` once nothing is due. Closing pane by pane lets the caller
    /// hand each one on without collecting them.
    pub fn close_next(&mut self, now: Timestamp) -> Option<Pane> {
        if let Some(pane) = self.ready.pop_front() {
            return Some(pane);
        }
        if !self.spec.is_timed() {
            return None;
        }
        let deadline = now.as_micros().saturating_sub(self.grace.as_micros());
        while let Some(&(idx, _)) = self.panes.front() {
            let end = self.spec.pane_end(idx);
            if end > deadline {
                break;
            }
            let (_, inputs) = self.panes.pop_front().expect("front pane exists");
            if inputs.iter().all(TupleBatch::is_empty) {
                continue;
            }
            // Stamp 1 us before the end so downstream windows assign the
            // derived tuples to this same window index.
            let at = Timestamp(end.saturating_sub(1));
            return Some(Pane { at, inputs });
        }
        None
    }

    /// Closes every time pane whose end (plus grace) has passed `now` and
    /// returns them in order, together with any pass-through/count panes
    /// accumulated since the last call.
    pub fn close_up_to(&mut self, now: Timestamp) -> Vec<Pane> {
        std::iter::from_fn(|| self.close_next(now)).collect()
    }
}

/// The tumbling pane (of `size_us` microseconds) holding every row of a
/// non-empty `batch` with no shed row; `None` when the batch is empty,
/// has shed rows or spans panes.
fn single_pane(batch: &TupleBatch, size_us: u64) -> Option<u64> {
    if batch.drops().dropped() != 0 {
        return None;
    }
    let mut panes = batch.ts_column().iter().map(|t| t.as_micros() / size_us);
    let idx = panes.next()?;
    panes.all(|i| i == idx).then_some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64, sic: f64, v: f64) -> Tuple {
        Tuple::measurement(Timestamp::from_millis(ms), Sic(sic), v)
    }

    fn buf(spec: WindowSpec, ports: usize) -> WindowBuffer {
        WindowBuffer::new(spec, ports, TimeDelta::ZERO)
    }

    #[test]
    fn passthrough_emits_immediately() {
        let mut w = buf(WindowSpec::PassThrough, 1);
        w.push(0, vec![t(1, 0.1, 5.0)], Timestamp::from_millis(3));
        let panes = w.close_up_to(Timestamp::from_millis(3));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].input_len(), 1);
        // Stamped with the max input ts, not the push time.
        assert_eq!(panes[0].at, Timestamp::from_millis(1));
        assert!(w.close_up_to(Timestamp::from_millis(10)).is_empty());
    }

    #[test]
    fn tumbling_closes_on_time() {
        let size = TimeDelta::from_secs(1);
        let mut w = buf(WindowSpec::tumbling(size), 1);
        w.push(
            0,
            vec![t(100, 0.1, 1.0), t(900, 0.1, 2.0)],
            Timestamp::from_millis(900),
        );
        w.push(0, vec![t(1100, 0.1, 3.0)], Timestamp::from_millis(1100));
        assert!(w.close_up_to(Timestamp::from_millis(999)).is_empty());
        let panes = w.close_up_to(Timestamp::from_millis(1000));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].input_len(), 2);
        // Stamped 1 us before the window end.
        assert_eq!(panes[0].at, Timestamp(1_000_000 - 1));
        let panes = w.close_up_to(Timestamp::from_secs(2));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].inputs[0].row(0).f64(0), 3.0);
    }

    #[test]
    fn grace_delays_closing() {
        let mut w = WindowBuffer::new(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            1,
            TimeDelta::from_millis(500),
        );
        w.push(0, vec![t(500, 0.1, 1.0)], Timestamp::from_millis(500));
        assert!(w.close_up_to(Timestamp::from_millis(1000)).is_empty());
        assert!(w.close_up_to(Timestamp::from_millis(1499)).is_empty());
        // Late tuple arrives during the grace period and still counts.
        w.push(0, vec![t(990, 0.1, 2.0)], Timestamp::from_millis(1200));
        let panes = w.close_up_to(Timestamp::from_millis(1500));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].input_len(), 2);
    }

    #[test]
    fn tumbling_skips_empty_panes() {
        let mut w = buf(WindowSpec::tumbling(TimeDelta::from_secs(1)), 1);
        w.push(0, vec![t(100, 0.1, 1.0)], Timestamp::from_millis(100));
        w.push(0, vec![t(5100, 0.1, 2.0)], Timestamp::from_millis(5100));
        let panes = w.close_up_to(Timestamp::from_secs(10));
        assert_eq!(panes.len(), 2, "gap windows are not emitted");
    }

    #[test]
    fn sliding_divides_sic_across_overlap() {
        // 1 s window sliding by 250 ms: overlap 4.
        let spec = WindowSpec::sliding(TimeDelta::from_secs(1), TimeDelta::from_millis(250));
        assert_eq!(spec.overlap(), 4);
        let mut w = buf(spec, 1);
        w.push(0, vec![t(1000, 0.4, 1.0)], Timestamp::from_secs(1));
        // The tuple at t=1 s belongs to panes starting 250,500,750,1000 ms.
        let panes = w.close_up_to(Timestamp::from_millis(2100));
        assert_eq!(panes.len(), 4);
        let total: f64 = panes.iter().map(|p| p.input_sic().value()).sum();
        assert!((total - 0.4).abs() < 1e-12, "mass conserved: {total}");
        for p in &panes {
            assert!((p.inputs[0].row(0).sic.value() - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn sliding_degenerates_to_tumbling() {
        let spec = WindowSpec::sliding(TimeDelta::from_secs(1), TimeDelta::from_secs(2));
        assert_eq!(spec, WindowSpec::tumbling(TimeDelta::from_secs(1)));
    }

    #[test]
    fn count_window_batches_per_port() {
        let mut w = buf(WindowSpec::Count { count: 3 }, 1);
        w.push(0, vec![t(1, 0.1, 1.0), t(2, 0.1, 2.0)], Timestamp(2));
        assert!(w.close_up_to(Timestamp(2)).is_empty());
        w.push(0, vec![t(3, 0.1, 3.0), t(4, 0.1, 4.0)], Timestamp(4));
        let panes = w.close_up_to(Timestamp(4));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].input_len(), 3);
        assert_eq!(w.buffered(), 1, "fourth tuple pending");
    }

    #[test]
    fn two_port_tumbling_aligns_panes() {
        let mut w = buf(WindowSpec::tumbling(TimeDelta::from_secs(1)), 2);
        w.push(0, vec![t(100, 0.1, 1.0)], Timestamp::from_millis(100));
        w.push(1, vec![t(200, 0.2, 2.0)], Timestamp::from_millis(200));
        let panes = w.close_up_to(Timestamp::from_secs(1));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].inputs[0].len(), 1);
        assert_eq!(panes[0].inputs[1].len(), 1);
        assert!((panes[0].input_sic().value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stamping_avoids_cascaded_window_latency() {
        // A chain of two identical tumbling windows: results of window 1
        // stamped at end-1us land in the *same* index of window 2, which can
        // close at the same logical instant.
        let size = TimeDelta::from_secs(1);
        let mut w1 = buf(WindowSpec::tumbling(size), 1);
        let mut w2 = buf(WindowSpec::tumbling(size), 1);
        w1.push(0, vec![t(300, 0.1, 1.0)], Timestamp::from_millis(300));
        let p1 = w1.close_up_to(Timestamp::from_secs(1));
        assert_eq!(p1.len(), 1);
        // Re-stamp as an aggregate output would be.
        let derived = Tuple::measurement(p1[0].at, Sic(0.1), 42.0);
        w2.push(0, vec![derived], Timestamp::from_secs(1));
        let p2 = w2.close_up_to(Timestamp::from_secs(1));
        assert_eq!(p2.len(), 1, "no extra window of latency");
    }

    #[test]
    fn buffered_accounting() {
        let mut w = buf(WindowSpec::tumbling(TimeDelta::from_secs(1)), 1);
        assert_eq!(w.buffered(), 0);
        w.push(0, vec![t(1, 0.1, 1.0), t(2, 0.1, 1.0)], Timestamp(2));
        assert_eq!(w.buffered(), 2);
        w.close_up_to(Timestamp::from_secs(1));
        assert_eq!(w.buffered(), 0);
    }

    #[test]
    fn pooled_buffer_recycles_spent_typed_batches() {
        let schema = Schema::new([("v", FieldType::F64)]);
        let pool = BatchPool::new();
        let mut batch = pool.acquire(&schema, 2);
        batch.push_row(Timestamp::from_millis(100), Sic(0.1), &[Value::F64(1.0)]);
        let mut w = buf(WindowSpec::tumbling(TimeDelta::from_secs(1)), 1);
        w.set_pool(pool.clone());
        w.push(0, batch, Timestamp::from_millis(100));
        // The batch fits one pane: the pane adopted it, nothing is spent.
        assert_eq!(pool.idle(), 0, "adopted batch pooled at push");
        // It leaves with its pane; the operator closing the pane recycles
        // it.
        let panes = w.close_up_to(Timestamp::from_secs(1));
        assert_eq!(panes[0].input_len(), 1);
        assert_eq!(pool.idle(), 0);
        // A batch spanning two panes is copied into both and is spent.
        let mut batch = pool.acquire(&schema, 2);
        batch.push_row(Timestamp::from_millis(1_100), Sic(0.1), &[Value::F64(2.0)]);
        batch.push_row(Timestamp::from_millis(2_100), Sic(0.1), &[Value::F64(3.0)]);
        w.push(0, batch, Timestamp::from_millis(2_100));
        assert_eq!(pool.idle(), 1, "spent spanning batch pooled");
        assert_eq!(w.close_up_to(Timestamp::from_secs(3)).len(), 2);
        // Batches of a schema no producer acquires pass the recycle
        // point without pooling.
        w.push(
            0,
            vec![t(3_100, 0.1, 2.0), t(4_100, 0.1, 2.0)],
            Timestamp::from_millis(4_100),
        );
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn dropped_rows_never_enter_panes() {
        let mut batch = TupleBatch::from_tuples(vec![t(100, 0.1, 1.0), t(200, 0.1, 2.0)]);
        batch.drop_row(0);
        let mut w = buf(WindowSpec::tumbling(TimeDelta::from_secs(1)), 1);
        w.push(0, batch, Timestamp::from_millis(200));
        let panes = w.close_up_to(Timestamp::from_secs(1));
        assert_eq!(panes.len(), 1);
        assert_eq!(panes[0].input_len(), 1);
        assert_eq!(panes[0].inputs[0].row(0).f64(0), 2.0);
    }
}
