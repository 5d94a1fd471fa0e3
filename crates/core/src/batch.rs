//! Columnar tuple batches — the allocation-free hot-path representation.
//!
//! The seed moved `Vec<Tuple>` through every hot loop: each [`Tuple`]
//! owns a heap-allocated `Vec<Value>` payload, so building a source
//! batch costs one allocation per tuple, shedding spliced tuple vectors,
//! and every window pane re-allocated the tuples it grouped. THEMIS's
//! premise is that fair shedding only pays off while the *mechanism*
//! stays negligible, so the enforcement path must not pay a per-tuple
//! allocator round-trip.
//!
//! [`TupleBatch`] stores the same data column-wise:
//!
//! * a contiguous **timestamp column** (`τ` of the §3 data model),
//! * a contiguous **SIC column** shared by the shedder and the Eq.-3
//!   propagation (the per-tuple SIC tags of §4),
//! * the **payload**: one contiguous native [`Column`] (`Vec<f64>` /
//!   `Vec<i64>` / bitset / dictionary codes) per field of the batch's
//!   [`Schema`], so aggregate kernels read plain slices with no
//!   per-element enum match,
//! * a [`DropBitmap`] marking shed rows, so dropping tuples flips bits
//!   instead of splicing vectors.
//!
//! Every batch with rows has a schema: sources and operator logic declare
//! theirs, window panes adopt the schema of the first batch they receive,
//! and the edge converters ([`TupleBatch::from_tuples`], `FromIterator`,
//! [`TupleBatch::push_row`] into an empty batch) infer one from the first
//! row's [`Value`] variants ([`Schema::infer`]).
//!
//! Row views are provided by [`TupleRef`] (a borrowed `(τ, SIC, V)`
//! triple whose values are a [`RowValues`] view over the columns) and
//! [`TupleBatch::iter`]; the edges of the system — tests building
//! batches, reports materialising result rows — convert from and to
//! `Vec<Tuple>` via [`TupleBatch::from_tuples`] and
//! [`TupleBatch::into_tuples`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bits::BitVec;
use crate::schema::{BoolColumn, Column, Schema, TagColumn};
use crate::sic::Sic;
use crate::time::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;

/// Count of capacity-carrying batch constructions
/// ([`TupleBatch::with_schema_capacity`] and checkpoint decodes) since
/// process start. [`BatchPool`] reuse skips these constructors, so the
/// benchmark reports deltas of this counter to make pooling's effect
/// visible next to throughput.
static BATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide batch-allocation counter (monotonic; compare
/// deltas around a measured region).
pub fn batch_allocs() -> u64 {
    BATCH_ALLOCS.load(Ordering::Relaxed)
}

/// A bitmap over batch rows; a set bit means the row has been dropped
/// (shed). Bits are allocated lazily: a batch that never sheds carries an
/// empty bitmap. Callers that know the row count up front (a
/// [`ShedDecision`](crate::shedder::ShedDecision) covering a whole input
/// buffer) pre-size the words with [`DropBitmap::with_rows`] so marking
/// bits never reallocates.
///
/// Equality is semantic: trailing zero words do not distinguish bitmaps,
/// so a pre-sized empty bitmap equals a lazy one.
///
/// The word storage is a [`BitVec`] (the workspace's one shared bitset);
/// this wrapper only pins the drop-bitmap vocabulary and semantics.
#[derive(Debug, Clone, Default)]
pub struct DropBitmap {
    bits: BitVec,
}

impl DropBitmap {
    /// An empty bitmap: every row is live.
    pub fn new() -> Self {
        DropBitmap::default()
    }

    /// An empty bitmap pre-sized for `rows` rows, so [`DropBitmap::drop_row`]
    /// on any row below `rows` never grows the word vector.
    pub fn with_rows(rows: usize) -> Self {
        DropBitmap {
            bits: BitVec::with_bits(rows),
        }
    }

    /// Grows the word vector (if needed) to cover `rows` rows in one
    /// resize, instead of one word at a time per [`DropBitmap::drop_row`].
    pub fn ensure_rows(&mut self, rows: usize) {
        self.bits.ensure_bits(rows);
    }

    /// Marks row `i` dropped; returns `true` when the bit was newly set.
    pub fn drop_row(&mut self, i: usize) -> bool {
        self.bits.set(i)
    }

    /// True when row `i` has been dropped.
    #[inline]
    pub fn is_dropped(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of dropped rows.
    #[inline]
    pub fn dropped(&self) -> usize {
        self.bits.count_ones()
    }

    /// The `w`-th 64-row word of drop bits (0 beyond the allocated words,
    /// meaning "all live"). Kernels walk the bitmap word-at-a-time: a zero
    /// word admits a whole 64-row block to the vectorized path.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.bits.word(w)
    }

    /// The allocated drop words (rows past the end are live).
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }

    /// Resets the bitmap: every row is live again.
    pub fn clear(&mut self) {
        self.bits.clear();
    }
}

impl PartialEq for DropBitmap {
    fn eq(&self, other: &Self) -> bool {
        if self.dropped() != other.dropped() {
            return false;
        }
        let n = self.bits.words().len().max(other.bits.words().len());
        (0..n).all(|i| self.word(i) == other.word(i))
    }
}

/// A borrowed view of one row's payload values: it indexes the batch's
/// native columns, materialising a [`Value`] only at the access site.
/// Equality is semantic on the materialised values (note that
/// `Value::F64(1.0) != Value::I64(1)`, so an `f64` column never equals an
/// `i64` one).
#[derive(Debug, Clone, Copy)]
pub struct RowValues<'a> {
    schema: &'a Schema,
    columns: &'a [Column],
    row: usize,
}

impl<'a> RowValues<'a> {
    /// Number of payload fields in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the row has no payload fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Field `i`, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Value> {
        self.columns.get(i).map(|c| c.value(self.row))
    }

    /// Field `i` (panics if out of range).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        self.columns[i].value(self.row)
    }

    /// Numeric view of field `i` (panics if out of range).
    #[inline]
    pub fn f64(&self, i: usize) -> f64 {
        self.columns[i].f64_at(self.row)
    }

    /// Integer view of field `i` (panics if out of range).
    #[inline]
    pub fn i64(&self, i: usize) -> i64 {
        self.value(i).as_i64()
    }

    /// Iterates the row's values in field order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Materialises the row as an owning value vector (edge use).
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().collect()
    }

    /// Field `i` as its column and physical row, for native copies
    /// ([`TupleBatch::push_cells`]).
    #[inline]
    pub fn cell(&self, i: usize) -> Option<(&'a Column, usize)> {
        self.columns.get(i).map(|c| (c, self.row))
    }

    /// Every field as its column and physical row, in field order.
    pub fn cells(&self) -> impl Iterator<Item = (&'a Column, usize)> + 'a {
        let row = self.row;
        self.columns.iter().map(move |c| (c, row))
    }
}

impl PartialEq for RowValues<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A borrowed row view: the `(τ, SIC, V)` triple of one tuple without
/// materialising an owning [`Tuple`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRef<'a> {
    /// Logical timestamp of the tuple.
    pub ts: Timestamp,
    /// SIC mass carried by the tuple.
    pub sic: Sic,
    /// Payload fields (a borrowed view over the batch's columns).
    pub values: RowValues<'a>,
}

impl TupleRef<'_> {
    /// Numeric view of field `i` (panics if out of range).
    #[inline]
    pub fn f64(&self, i: usize) -> f64 {
        self.values.f64(i)
    }

    /// Integer view of field `i` (panics if out of range).
    #[inline]
    pub fn i64(&self, i: usize) -> i64 {
        self.values.i64(i)
    }

    /// Field `i`, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Value> {
        self.values.get(i)
    }

    /// Materialises an owning [`Tuple`] (edge/report use only — this is
    /// the per-tuple allocation the batch representation avoids).
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.ts, self.sic, self.values.to_vec())
    }
}

/// A columnar batch of tuples: contiguous timestamp/SIC columns, one
/// native [`Column`] per field of the batch's [`Schema`], and a
/// [`DropBitmap`] for shed rows.
///
/// Pushed values are coerced to their field's type; short rows pad with
/// the type's zero value and long rows truncate (the same semantics as
/// the scalar `values.get(i).unwrap_or(0.0)` reads).
/// [`TupleBatch::f64_column`] / [`TupleBatch::i64_column`] expose the raw
/// slices that the aggregate kernels consume.
///
/// The empty batch of [`TupleBatch::new`] has no schema yet and allocates
/// nothing; it adopts the schema of the first row or batch it receives
/// (window panes stay typed that way), or infers one from the first
/// [`Value`] row pushed into it.
///
/// ```
/// use themis_core::prelude::*;
///
/// let mut batch = TupleBatch::with_schema(Schema::new([("v", FieldType::F64)]));
/// for (ms, v) in [(10u64, 1.0), (20, 2.0), (30, 3.0)] {
///     batch.push_row(Timestamp::from_millis(ms), Sic(0.1), &[Value::F64(v)]);
/// }
/// // Shedding marks a bit — no rows move.
/// batch.drop_row(1);
/// assert_eq!(batch.rows(), 3);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.column_f64(0).sum::<f64>(), 4.0);
/// assert!((batch.sic_total().value() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleBatch {
    ts: Vec<Timestamp>,
    sic: Vec<Sic>,
    /// `None` only while the batch is empty and has not adopted a layout.
    schema: Option<Schema>,
    /// One column per schema field; tag columns share the schema's
    /// dictionary.
    columns: Vec<Column>,
    drops: DropBitmap,
}

impl TupleBatch {
    /// An empty batch without a schema; the first row or batch it
    /// receives decides the layout.
    pub fn new() -> Self {
        TupleBatch::default()
    }

    /// An empty schema-typed batch: one native column per declared field.
    pub fn with_schema(schema: Schema) -> Self {
        TupleBatch::with_schema_capacity(schema, 0)
    }

    /// An empty schema-typed batch with room for `rows`. Tag fields get
    /// columns sharing the schema's dictionary ([`Schema::column_for`]).
    pub fn with_schema_capacity(schema: Schema, rows: usize) -> Self {
        BATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TupleBatch {
            ts: Vec::with_capacity(rows),
            sic: Vec::with_capacity(rows),
            columns: schema_columns(&schema, rows),
            schema: Some(schema),
            drops: DropBitmap::new(),
        }
    }

    /// Builds a batch from owning tuples (the test/report edge), typed by
    /// the schema [`Schema::infer`] reads off the first tuple.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        let Some(first) = tuples.first() else {
            return TupleBatch::new();
        };
        let mut b = TupleBatch::with_schema_capacity(Schema::infer(&first.values), tuples.len());
        for t in &tuples {
            b.push_tuple(t);
        }
        b
    }

    /// The batch's schema (`None` only for an empty batch that has not
    /// adopted one yet).
    #[inline]
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// Payload fields per row (the schema length; 0 without a schema).
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Physical rows, dropped ones included.
    #[inline]
    pub fn rows(&self) -> usize {
        self.ts.len()
    }

    /// Live (not dropped) rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ts.len() - self.drops.dropped()
    }

    /// True when no live rows remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gives a schema-less (hence empty) batch the layout of `schema`.
    fn adopt(&mut self, schema: &Schema) {
        debug_assert!(self.ts.is_empty());
        self.columns = schema_columns(schema, 0);
        self.schema = Some(schema.clone());
    }

    /// Appends one row, coercing each value to its column type, padding
    /// short rows with the field type's zero and truncating long ones. A
    /// batch without a schema first infers one from `values`.
    #[inline]
    pub fn push_row(&mut self, ts: Timestamp, sic: Sic, values: &[Value]) {
        if self.schema.is_none() {
            self.adopt(&Schema::infer(values));
        }
        self.ts.push(ts);
        self.sic.push(sic);
        for (i, col) in self.columns.iter_mut().enumerate() {
            let v = match values.get(i) {
                Some(&v) => v,
                None => col.field_type().default_value(),
            };
            col.push_value(v);
        }
    }

    /// Appends `n` rows stamped `ts` and `sic`, a column at a time: the
    /// leading fields take `n` copies of `lead`'s values, the next field
    /// the `n` floats `draw` yields in row order, and any further field
    /// its type's zero. The rows equal `n` [`TupleBatch::push_row`] calls
    /// with `[lead.., Value::F64(draw())]` (same coercion, padding and
    /// truncation), and `draw` runs exactly `n` times even when no field
    /// is left for its values. The batch must have a schema.
    pub fn extend_rows(
        &mut self,
        n: usize,
        ts: Timestamp,
        sic: Sic,
        lead: &[Value],
        mut draw: impl FnMut() -> f64,
    ) {
        debug_assert!(self.schema.is_some(), "extend_rows needs a schema");
        self.ts.resize(self.ts.len() + n, ts);
        self.sic.resize(self.sic.len() + n, sic);
        let mut drawn = false;
        for (i, col) in self.columns.iter_mut().enumerate() {
            match lead.get(i) {
                Some(&v) => col.extend_repeat(v, n),
                None if i == lead.len() => {
                    col.extend_drawn(n, &mut draw);
                    drawn = true;
                }
                None => col.extend_repeat(col.field_type().default_value(), n),
            }
        }
        if !drawn {
            (0..n).for_each(|_| {
                draw();
            });
        }
    }

    /// Appends an owning tuple's row.
    #[inline]
    pub fn push_tuple(&mut self, t: &Tuple) {
        self.push_row(t.ts, t.sic, &t.values);
    }

    /// Appends a borrowed row, copying native values column to column
    /// (coercing across field types, re-interning tags across
    /// dictionaries). A batch without a schema adopts the row's first, so
    /// window panes sliced from typed batches stay typed.
    #[inline]
    pub fn push_ref(&mut self, r: TupleRef<'_>) {
        self.push_ref_sic(r, r.sic);
    }

    /// [`TupleBatch::push_ref`] with an overridden SIC value (sliding
    /// windows divide a tuple's SIC across its panes).
    pub fn push_ref_sic(&mut self, r: TupleRef<'_>, sic: Sic) {
        if self.schema.is_none() {
            self.adopt(r.values.schema);
        }
        self.push_cells(r.ts, sic, r.values.cells().map(Some));
    }

    /// Appends one row assembled from other batches' columns: field `j`
    /// copies the `j`-th cell natively (coercing across field types,
    /// re-interning tags across dictionaries), and a missing cell pads
    /// the field type's zero. This is how logic deriving rows from input
    /// rows (projection, join) fills the schema it declared; the batch
    /// must have one.
    pub fn push_cells<'c>(
        &mut self,
        ts: Timestamp,
        sic: Sic,
        cells: impl IntoIterator<Item = Option<(&'c Column, usize)>>,
    ) {
        debug_assert!(self.schema.is_some(), "push_cells needs a schema");
        self.ts.push(ts);
        self.sic.push(sic);
        let mut cells = cells.into_iter();
        for d in &mut self.columns {
            match cells.next().flatten() {
                Some((s, i)) => d.push_from(s, i),
                None => {
                    let pad = d.field_type().default_value();
                    d.push_value(pad);
                }
            }
        }
    }

    /// Borrowed view of physical row `i` (dropped rows included; check
    /// [`TupleBatch::is_live`] when iterating manually).
    #[inline]
    pub fn row(&self, i: usize) -> TupleRef<'_> {
        TupleRef {
            ts: self.ts[i],
            sic: self.sic[i],
            values: RowValues {
                schema: self
                    .schema
                    .as_ref()
                    .expect("a batch with rows has a schema"),
                columns: &self.columns,
                row: i,
            },
        }
    }

    /// True when physical row `i` has not been dropped.
    #[inline]
    pub fn is_live(&self, i: usize) -> bool {
        !self.drops.is_dropped(i)
    }

    /// Marks physical row `i` dropped (shed); returns `true` when the row
    /// was live before. This is the shedder's O(1) alternative to
    /// splicing a `Vec<Tuple>`.
    #[inline]
    pub fn drop_row(&mut self, i: usize) -> bool {
        debug_assert!(i < self.ts.len());
        self.drops.drop_row(i)
    }

    /// Marks every row dropped (a whole-batch shed). Pre-sizes the bitmap
    /// to the row count so the loop never reallocates.
    pub fn drop_all(&mut self) {
        self.drops.ensure_rows(self.ts.len());
        for i in 0..self.ts.len() {
            self.drops.drop_row(i);
        }
    }

    /// The drop bitmap.
    #[inline]
    pub fn drops(&self) -> &DropBitmap {
        &self.drops
    }

    /// The raw timestamp column, dropped rows included (the checkpoint
    /// codec, and windows assigning a whole batch to one pane).
    #[inline]
    pub fn ts_column(&self) -> &[Timestamp] {
        &self.ts
    }

    /// The raw SIC column, dropped rows included (checkpoint codec read
    /// path).
    #[inline]
    pub(crate) fn sic_column(&self) -> &[Sic] {
        &self.sic
    }

    /// Rebuilds a batch from decoded checkpoint parts.
    pub(crate) fn from_typed_parts(
        schema: Schema,
        ts: Vec<Timestamp>,
        sic: Vec<Sic>,
        columns: Vec<Column>,
        drops: DropBitmap,
    ) -> Self {
        debug_assert_eq!(ts.len(), sic.len());
        debug_assert_eq!(columns.len(), schema.len());
        debug_assert!(columns.iter().all(|c| c.len() == ts.len()));
        BATCH_ALLOCS.fetch_add(1, Ordering::Relaxed);
        TupleBatch {
            ts,
            sic,
            schema: Some(schema),
            columns,
            drops,
        }
    }

    /// Iterates the live rows in physical order. Batches without drops
    /// (the common case) skip the bitmap test entirely.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> + Clone {
        let all_live = self.drops.dropped() == 0;
        (0..self.ts.len())
            .filter(move |&i| all_live || self.is_live(i))
            .map(move |i| self.row(i))
    }

    /// Streams the numeric view of one payload column over the live rows
    /// — the scalar read path for fields that are not native `f64`
    /// columns; kernels use [`TupleBatch::f64_column`] for slice access
    /// instead.
    ///
    /// The `field` index must be in range for a non-empty batch
    /// (`debug_assert`ed); in release builds an out-of-range field
    /// silently reads as 0.0 for every row, matching the scalar
    /// `values.get(i).unwrap_or(0.0)` semantics.
    pub fn column_f64(&self, field: usize) -> impl Iterator<Item = f64> + '_ {
        debug_assert!(
            self.ts.is_empty() || field < self.width(),
            "column_f64: field {field} out of range for width {}",
            self.width()
        );
        let all_live = self.drops.dropped() == 0;
        let col = self.columns.get(field);
        (0..self.ts.len())
            .filter(move |&i| all_live || self.is_live(i))
            .map(move |i| col.map_or(0.0, |c| c.f64_at(i)))
    }

    /// Every payload column, in schema order (dropped rows included;
    /// checkpoint codec read path).
    #[inline]
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The raw column at `field`, if in range.
    #[inline]
    pub fn column(&self, field: usize) -> Option<&Column> {
        self.columns.get(field)
    }

    /// The contiguous `f64` slice of an `F64` field (dropped rows
    /// *included* — pair with [`TupleBatch::drops`] for masked kernels).
    /// `None` for non-`F64` or out-of-range fields.
    #[inline]
    pub fn f64_column(&self, field: usize) -> Option<&[f64]> {
        match self.column(field) {
            Some(Column::F64(v)) => Some(v),
            _ => None,
        }
    }

    /// The contiguous `i64` slice of an `I64` field (dropped rows
    /// included). `None` for non-`I64` or out-of-range fields.
    #[inline]
    pub fn i64_column(&self, field: usize) -> Option<&[i64]> {
        match self.column(field) {
            Some(Column::I64(v)) => Some(v),
            _ => None,
        }
    }

    /// The word-packed column of a `Bool` field (dropped rows included).
    /// `None` for non-`Bool` or out-of-range fields.
    #[inline]
    pub fn bool_column(&self, field: usize) -> Option<&BoolColumn> {
        match self.column(field) {
            Some(Column::Bool(v)) => Some(v),
            _ => None,
        }
    }

    /// The dictionary-encoded column of a `Tag` field (dropped rows
    /// included — pair with [`TupleBatch::drops`] for masked kernels).
    /// `None` for non-`Tag` or out-of-range fields.
    #[inline]
    pub fn tag_column(&self, field: usize) -> Option<&TagColumn> {
        match self.column(field) {
            Some(Column::Tag(v)) => Some(v),
            _ => None,
        }
    }

    /// Sum of the live rows' SIC column.
    pub fn sic_total(&self) -> Sic {
        if self.drops.dropped() == 0 {
            self.sic.iter().copied().sum()
        } else {
            (0..self.sic.len())
                .filter(|&i| self.is_live(i))
                .map(|i| self.sic[i])
                .sum()
        }
    }

    /// Overwrites the SIC column of every live row (the STW assigner's
    /// per-slide re-stamping, §6 "SIC maintenance").
    pub fn set_uniform_sic(&mut self, sic: Sic) {
        if self.drops.dropped() == 0 {
            self.sic.fill(sic);
        } else {
            for i in 0..self.sic.len() {
                if self.is_live(i) {
                    self.sic[i] = sic;
                }
            }
        }
    }

    /// Latest live timestamp, or `Timestamp::ZERO` when empty. A plain
    /// walk of the timestamp column when nothing has been dropped.
    pub fn max_ts(&self) -> Timestamp {
        if self.drops.dropped() == 0 {
            self.ts.iter().copied().max().unwrap_or(Timestamp::ZERO)
        } else {
            (0..self.ts.len())
                .filter(|&i| self.is_live(i))
                .map(|i| self.ts[i])
                .max()
                .unwrap_or(Timestamp::ZERO)
        }
    }

    /// Appends `other`'s live rows. When both batches share a schema and
    /// `other` has no drops this is a handful of contiguous column copies
    /// — the batch path's replacement for per-tuple moves. A batch
    /// without a schema adopts `other`'s first, so typed batches stay
    /// typed across pane appends.
    pub fn append_batch(&mut self, other: &TupleBatch) {
        let Some(schema) = &other.schema else {
            return;
        };
        if other.ts.is_empty() {
            return;
        }
        if self.schema.is_none() {
            self.adopt(schema);
        }
        if self.schema == other.schema && other.drops.dropped() == 0 {
            self.ts.extend_from_slice(&other.ts);
            self.sic.extend_from_slice(&other.sic);
            for (d, s) in self.columns.iter_mut().zip(&other.columns) {
                d.extend_from(s);
            }
        } else {
            for r in other.iter() {
                self.push_ref(r);
            }
        }
    }

    /// Appends the rows of `other` whose bit is set in `mask` (one bit
    /// per physical row, word-packed like the drop bitmap). Callers are
    /// expected to have cleared the bits of dropped rows already — the
    /// filter kernel's predicate mask does. Same-schema copies gather
    /// column by column, one type dispatch per column rather than per
    /// row.
    pub fn append_gathered(&mut self, other: &TupleBatch, mask: &[u64]) {
        let Some(schema) = &other.schema else {
            return;
        };
        if self.schema.is_none() {
            self.adopt(schema);
        }
        let mut idx = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let i = w * 64 + m.trailing_zeros() as usize;
                if i >= other.rows() {
                    break;
                }
                idx.push(i);
                m &= m - 1;
            }
        }
        if self.schema != other.schema {
            for &i in &idx {
                self.push_ref(other.row(i));
            }
            return;
        }
        self.ts.extend(idx.iter().map(|&i| other.ts[i]));
        self.sic.extend(idx.iter().map(|&i| other.sic[i]));
        for (d, s) in self.columns.iter_mut().zip(&other.columns) {
            for &i in &idx {
                d.push_from(s, i);
            }
        }
    }

    /// The rows of this batch whose bit is set in `mask`, as a fresh
    /// compact batch of the same schema (see
    /// [`TupleBatch::append_gathered`]).
    pub fn gather(&self, mask: &[u64]) -> TupleBatch {
        let mut out = TupleBatch::new();
        out.append_gathered(self, mask);
        out
    }

    /// Splits off and returns the first `n` physical rows, leaving the
    /// rest in place. Only valid on batches without drops (count-window
    /// pending buffers never shed).
    pub fn split_front(&mut self, n: usize) -> TupleBatch {
        debug_assert_eq!(self.drops.dropped(), 0, "split_front on a shed batch");
        let n = n.min(self.ts.len());
        let tail_ts = self.ts.split_off(n);
        let tail_sic = self.sic.split_off(n);
        TupleBatch {
            ts: std::mem::replace(&mut self.ts, tail_ts),
            sic: std::mem::replace(&mut self.sic, tail_sic),
            schema: self.schema.clone(),
            columns: self.columns.iter_mut().map(|c| c.split_front(n)).collect(),
            drops: DropBitmap::new(),
        }
    }

    /// Materialises the live rows as owning tuples (edge/report use).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().map(|r| r.to_tuple()).collect()
    }

    /// Consumes the batch, materialising the live rows (edge/report use).
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.to_tuples()
    }

    /// Materialises the live rows' payloads (result reporting).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(|r| r.values.to_vec()).collect()
    }

    /// Clears every row while keeping the schema, the column allocations
    /// and (for tag columns) the shared dictionary — the [`BatchPool`]
    /// recycle path.
    pub fn clear_rows(&mut self) {
        self.ts.clear();
        self.sic.clear();
        self.drops.clear();
        for c in &mut self.columns {
            c.clear();
        }
    }
}

/// Empty columns with room for `rows`, one per field of `schema`.
fn schema_columns(schema: &Schema, rows: usize) -> Vec<Column> {
    (0..schema.len())
        .map(|i| schema.column_for(i, rows).expect("field in range"))
        .collect()
}

/// Counters describing a [`BatchPool`]'s traffic since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a recycled slot (no fresh allocation).
    pub reused: u64,
    /// Acquisitions that fell through to a fresh construction.
    pub fresh: u64,
    /// Batches returned to the pool (capped or unwanted drops not
    /// included).
    pub recycled: u64,
}

#[derive(Debug, Default)]
struct Slots {
    /// One stack per structurally distinct schema some producer has
    /// acquired; only batches of these schemas are worth keeping.
    stacks: Vec<Stack>,
    /// Batches over all stacks.
    idle: usize,
}

/// The cleared batches of one schema, waiting for a producer.
#[derive(Debug)]
struct Stack {
    schema: Schema,
    /// The most rows a producer of this schema has asked for. A batch
    /// that grew past it (a pane that gathered many batches' rows) is
    /// freed rather than kept: handed to a producer, it would carry a
    /// pane's memory through every later use.
    rows: usize,
    idle: Vec<TupleBatch>,
}

#[derive(Debug, Default)]
struct PoolInner {
    slots: Mutex<Slots>,
    reused: AtomicU64,
    fresh: AtomicU64,
    recycled: AtomicU64,
}

/// A shared recycling pool of [`TupleBatch`]es, keyed by schema.
///
/// The hot path allocates one batch per source tick and drops it again a
/// window later; at 10⁵+ sources that is hundreds of thousands of
/// allocator round-trips per second for identically-shaped buffers. The
/// pool keeps cleared batches (rows gone, column capacity and tag
/// dictionaries kept) and hands them back to any producer of the same
/// schema. Clones share the pool, so the source pump, shard ingest and
/// window eviction can recycle into one pool across threads.
///
/// Only batches of a schema some producer has acquired enter the pool:
/// operator outputs derive schemas no producer asks for, and keeping
/// them would fill the slots with batches every `acquire` scans past.
///
/// ```
/// use themis_core::prelude::*;
///
/// let pool = BatchPool::new();
/// let schema = Schema::new([("v", FieldType::F64)]);
/// let mut b = pool.acquire(&schema, 64);
/// b.push_row(Timestamp(0), Sic(0.1), &[Value::F64(1.0)]);
/// pool.recycle(b);
/// let b = pool.acquire(&schema, 64);
/// assert_eq!(b.rows(), 0, "recycled batches come back empty");
/// assert_eq!(pool.stats().reused, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchPool {
    inner: Arc<PoolInner>,
}

/// Idle batches a pool keeps at least. Beyond this it keeps no more than it
/// has built ([`PoolStats::fresh`]), so idle memory stays within what its
/// producers once held at a time. Windows that adopt source batches hand
/// a whole second's worth back in one burst as their panes close; a
/// fixed cap would drop most of it and make the producers allocate it
/// again.
const POOL_CAP: usize = 256;

impl BatchPool {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        BatchPool::default()
    }

    /// A batch for `schema` with room for `rows`: a recycled slot of the
    /// same schema when one is pooled, else a fresh
    /// [`TupleBatch::with_schema_capacity`].
    pub fn acquire(&self, schema: &Schema, rows: usize) -> TupleBatch {
        let mut slots = self.inner.slots.lock().expect("batch pool lock poisoned");
        let at = match slots.stacks.iter().position(|s| s.schema == *schema) {
            Some(at) => at,
            None => {
                slots.stacks.push(Stack {
                    schema: schema.clone(),
                    rows: 0,
                    idle: Vec::new(),
                });
                slots.stacks.len() - 1
            }
        };
        let stack = &mut slots.stacks[at];
        stack.rows = stack.rows.max(rows);
        if let Some(batch) = stack.idle.pop() {
            slots.idle -= 1;
            drop(slots);
            self.inner.reused.fetch_add(1, Ordering::Relaxed);
            return batch;
        }
        drop(slots);
        self.inner.fresh.fetch_add(1, Ordering::Relaxed);
        TupleBatch::with_schema_capacity(schema.clone(), rows)
    }

    /// Returns a batch to the pool: rows are cleared, allocations kept.
    /// Batches of a schema no producer has acquired, batches with room
    /// for more rows than any producer of their schema asked for, and
    /// overflow beyond the pool's cap (256 idle batches, or as many as the
    /// pool has built if that is more), are simply dropped.
    pub fn recycle(&self, mut batch: TupleBatch) {
        let cap = POOL_CAP.max(self.inner.fresh.load(Ordering::Relaxed) as usize);
        let mut slots = self.inner.slots.lock().expect("batch pool lock poisoned");
        if slots.idle >= cap {
            return;
        }
        let schema = batch.schema();
        let Some(stack) = slots.stacks.iter_mut().find(|s| Some(&s.schema) == schema) else {
            return;
        };
        if batch.ts.capacity() > stack.rows {
            return;
        }
        batch.clear_rows();
        stack.idle.push(batch);
        slots.idle += 1;
        self.inner.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of idle batches currently pooled.
    pub fn idle(&self) -> usize {
        self.inner
            .slots
            .lock()
            .expect("batch pool lock poisoned")
            .idle
    }

    /// Traffic counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reused: self.inner.reused.load(Ordering::Relaxed),
            fresh: self.inner.fresh.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
        }
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(tuples: Vec<Tuple>) -> Self {
        TupleBatch::from_tuples(tuples)
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = TupleRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = TupleRef<'a>> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<Tuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut b = TupleBatch::new();
        for t in iter {
            b.push_tuple(&t);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;

    fn t(ts: u64, sic: f64, v: f64) -> Tuple {
        Tuple::measurement(Timestamp(ts), Sic(sic), v)
    }

    fn keyed_schema() -> Schema {
        Schema::new([("key", FieldType::I64), ("value", FieldType::F64)])
    }

    fn typed_batch(rows: &[(i64, f64)]) -> TupleBatch {
        let mut b = TupleBatch::with_schema_capacity(keyed_schema(), rows.len());
        for (i, &(k, v)) in rows.iter().enumerate() {
            b.push_row(
                Timestamp(i as u64),
                Sic(0.1),
                &[Value::I64(k), Value::F64(v)],
            );
        }
        b
    }

    #[test]
    fn columns_round_trip_tuples() {
        let tuples = vec![t(1, 0.1, 10.0), t(2, 0.2, 20.0), t(3, 0.3, 30.0)];
        let b = TupleBatch::from_tuples(tuples.clone());
        assert_eq!(b.rows(), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.width(), 1);
        assert_eq!(b.to_tuples(), tuples);
        assert!((b.sic_total().value() - 0.6).abs() < 1e-12);
        assert_eq!(b.max_ts(), Timestamp(3));
    }

    #[test]
    fn drop_marks_bits_without_moving_rows() {
        let mut b = TupleBatch::from_tuples(vec![t(1, 0.1, 1.0), t(2, 0.2, 2.0), t(3, 0.3, 3.0)]);
        assert!(b.drop_row(1));
        assert!(!b.drop_row(1), "double drop is idempotent");
        assert_eq!(b.rows(), 3, "physical rows untouched");
        assert_eq!(b.len(), 2);
        assert!(!b.is_live(1));
        let live: Vec<f64> = b.iter().map(|r| r.f64(0)).collect();
        assert_eq!(live, vec![1.0, 3.0]);
        assert!((b.sic_total().value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn drop_all_empties_the_batch() {
        let mut b = TupleBatch::from_tuples(vec![t(1, 0.1, 1.0), t(2, 0.1, 2.0)]);
        b.drop_all();
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
        assert_eq!(b.sic_total(), Sic::ZERO);
    }

    #[test]
    fn uniform_sic_restamps_live_rows_only() {
        let mut b = TupleBatch::from_tuples(vec![t(1, 0.0, 1.0), t(2, 0.0, 2.0), t(3, 0.0, 3.0)]);
        b.drop_row(0);
        b.set_uniform_sic(Sic(0.25));
        assert!((b.sic_total().value() - 0.5).abs() < 1e-12);
        assert_eq!(b.row(0).sic, Sic::ZERO, "dropped row untouched");
    }

    #[test]
    fn append_batch_is_contiguous_and_skips_drops() {
        let mut a = TupleBatch::from_tuples(vec![t(1, 0.1, 1.0)]);
        let mut other = TupleBatch::from_tuples(vec![t(2, 0.2, 2.0), t(3, 0.3, 3.0)]);
        other.drop_row(0);
        a.append_batch(&other);
        assert_eq!(a.len(), 2);
        let vals: Vec<f64> = a.iter().map(|r| r.f64(0)).collect();
        assert_eq!(vals, vec![1.0, 3.0]);
        // Fast path: no drops, same width.
        let c = TupleBatch::from_tuples(vec![t(4, 0.4, 4.0)]);
        a.append_batch(&c);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn split_front_keeps_remainder() {
        let mut b = TupleBatch::from_tuples(vec![t(1, 0.1, 1.0), t(2, 0.1, 2.0), t(3, 0.1, 3.0)]);
        let front = b.split_front(2);
        assert_eq!(front.len(), 2);
        assert_eq!(front.row(1).f64(0), 2.0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.row(0).f64(0), 3.0);
    }

    #[test]
    fn ragged_rows_pad_and_truncate() {
        let mut b = TupleBatch::new();
        b.push_row(Timestamp(0), Sic(0.1), &[Value::I64(1), Value::F64(2.0)]);
        b.push_row(Timestamp(1), Sic(0.1), &[Value::I64(9)]);
        b.push_row(
            Timestamp(2),
            Sic(0.1),
            &[Value::I64(3), Value::F64(4.0), Value::Bool(true)],
        );
        assert_eq!(b.width(), 2);
        assert_eq!(b.row(1).f64(1), 0.0, "short row padded with 0.0");
        assert_eq!(b.row(2).values.len(), 2, "long row truncated");
    }

    #[test]
    fn empty_batch_behaviour() {
        let b = TupleBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.rows(), 0);
        assert_eq!(b.sic_total(), Sic::ZERO);
        assert_eq!(b.max_ts(), Timestamp::ZERO);
        assert!(b.to_tuples().is_empty());
        assert_eq!(b.schema(), None);
    }

    #[test]
    fn bitmap_grows_lazily() {
        let mut bm = DropBitmap::new();
        assert!(!bm.is_dropped(1000));
        assert!(bm.drop_row(130));
        assert!(bm.is_dropped(130));
        assert!(!bm.is_dropped(129));
        assert_eq!(bm.dropped(), 1);
        bm.clear();
        assert!(!bm.is_dropped(130));
        assert_eq!(bm.dropped(), 0);
    }

    #[test]
    fn bitmap_presizing_matches_lazy_semantics() {
        let mut pre = DropBitmap::with_rows(130);
        assert_eq!(pre.words().len(), 3, "130 rows need 3 words");
        let lazy = DropBitmap::new();
        assert_eq!(pre, lazy, "trailing zero words do not distinguish");
        pre.drop_row(5);
        let mut lazy = DropBitmap::new();
        lazy.drop_row(5);
        assert_eq!(pre, lazy);
        assert_eq!(pre.word(0), 1 << 5);
        assert_eq!(pre.word(99), 0, "beyond the words reads all-live");
        pre.ensure_rows(1000);
        assert_eq!(pre.words().len(), 16);
        assert_eq!(pre, lazy, "pre-sizing never changes semantics");
    }

    #[test]
    fn column_f64_strides_live_rows() {
        let mut b = TupleBatch::new();
        b.push_row(Timestamp(0), Sic(0.1), &[Value::I64(1), Value::F64(10.0)]);
        b.push_row(Timestamp(1), Sic(0.1), &[Value::I64(2), Value::F64(20.0)]);
        b.push_row(Timestamp(2), Sic(0.1), &[Value::I64(3), Value::F64(30.0)]);
        assert_eq!(b.column_f64(1).sum::<f64>(), 60.0);
        b.drop_row(1);
        assert_eq!(b.column_f64(1).sum::<f64>(), 40.0);
        // An empty batch accepts any field index (no rows to read).
        assert_eq!(TupleBatch::new().column_f64(9).sum::<f64>(), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn column_f64_bounds_are_debug_asserted() {
        let b = TupleBatch::from_tuples(vec![t(0, 0.1, 1.0)]);
        // Release builds read 0.0 here (documented); debug builds panic.
        let _ = b.column_f64(9).sum::<f64>();
    }

    #[test]
    fn from_iterator_collects() {
        let b: TupleBatch = (0..4).map(|i| t(i, 0.1, i as f64)).collect();
        assert_eq!(b.len(), 4);
        let sum: f64 = (&b).into_iter().map(|r| r.f64(0)).sum();
        assert_eq!(sum, 6.0);
    }

    #[test]
    fn typed_batch_exposes_native_columns() {
        let b = typed_batch(&[(1, 10.0), (2, 20.0), (3, 30.0)]);
        assert_eq!(b.schema().unwrap().len(), 2);
        assert_eq!(b.width(), 2);
        assert_eq!(b.i64_column(0), Some(&[1i64, 2, 3][..]));
        assert_eq!(b.f64_column(1), Some(&[10.0, 20.0, 30.0][..]));
        assert_eq!(b.f64_column(0), None, "type mismatch");
        assert_eq!(b.i64_column(9), None, "out of range");
        assert_eq!(b.column_f64(1).sum::<f64>(), 60.0);
        // Row views read through the columns.
        assert_eq!(b.row(1).i64(0), 2);
        assert_eq!(b.row(1).f64(1), 20.0);
        assert_eq!(b.row(1).get(5), None);
    }

    #[test]
    fn typed_batch_coerces_pads_and_truncates() {
        let mut b = TupleBatch::with_schema(keyed_schema());
        // Coercion to the declared types.
        b.push_row(Timestamp(0), Sic(0.1), &[Value::F64(7.9), Value::I64(4)]);
        // Short row pads with the type's zero; long row truncates.
        b.push_row(Timestamp(1), Sic(0.1), &[Value::I64(1)]);
        b.push_row(
            Timestamp(2),
            Sic(0.1),
            &[Value::I64(2), Value::F64(5.0), Value::Bool(true)],
        );
        assert_eq!(b.i64_column(0), Some(&[7i64, 1, 2][..]));
        assert_eq!(b.f64_column(1), Some(&[4.0, 0.0, 5.0][..]));
        assert_eq!(b.row(2).values.len(), 2);
    }

    /// Column-at-a-time rows equal `push_row` rows under coercion,
    /// padding and truncation, and the draws happen even when no field is
    /// left for them.
    #[test]
    fn extend_rows_equals_push_row() {
        let wide = Schema::new([
            ("flag", FieldType::Bool),
            ("n", FieldType::I64),
            ("tag", FieldType::Tag),
            ("v", FieldType::F64),
        ]);
        let leads: [&[Value]; 4] = [
            &[],
            &[Value::I64(3)],
            &[Value::Bool(true), Value::F64(2.5)],
            &[
                Value::I64(1),
                Value::I64(2),
                Value::Tag(4),
                Value::F64(9.0),
                Value::I64(5),
            ],
        ];
        for schema in [wide, keyed_schema(), tagged_schema()] {
            for lead in leads {
                let (mut col, mut row) = (0.0, 0.0);
                let mut by_col = TupleBatch::with_schema(schema.clone());
                by_col.push_row(Timestamp(1), Sic(0.5), &[Value::I64(8)]);
                let mut by_row = by_col.clone();
                by_col.extend_rows(5, Timestamp(2), Sic(0.25), lead, || {
                    col += 1.5;
                    col
                });
                for _ in 0..5 {
                    row += 1.5;
                    let values: Vec<Value> =
                        lead.iter().copied().chain([Value::F64(row)]).collect();
                    by_row.push_row(Timestamp(2), Sic(0.25), &values);
                }
                assert_eq!(by_col, by_row, "{schema} lead {lead:?}");
                assert_eq!(col, row, "one draw per row");
            }
        }
    }

    #[test]
    fn typed_round_trip_to_tuples() {
        let b = typed_batch(&[(1, 10.0), (2, 20.0)]);
        let tuples = b.to_tuples();
        assert_eq!(
            tuples[0].values,
            vec![Value::I64(1), Value::F64(10.0)],
            "typed columns materialise their declared Value types"
        );
        assert_eq!(tuples[1].ts, Timestamp(1));
    }

    #[test]
    fn typed_append_fast_path_and_split() {
        let mut a = typed_batch(&[(1, 1.0)]);
        let b = typed_batch(&[(2, 2.0), (3, 3.0)]);
        a.append_batch(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.f64_column(1), Some(&[1.0, 2.0, 3.0][..]));
        let front = a.split_front(2);
        assert_eq!(front.i64_column(0), Some(&[1i64, 2][..]));
        assert_eq!(a.i64_column(0), Some(&[3i64][..]));
        assert!(front.schema().is_some(), "split keeps the schema");
    }

    #[test]
    fn empty_batch_adopts_typed_layout() {
        let src = typed_batch(&[(1, 1.0), (2, 2.0)]);
        // append_batch adoption.
        let mut pane = TupleBatch::new();
        pane.append_batch(&src);
        assert!(pane.schema().is_some(), "pane adopted the schema");
        assert_eq!(pane.f64_column(1), Some(&[1.0, 2.0][..]));
        // push_ref adoption (the window slicing path).
        let mut pane = TupleBatch::new();
        for r in src.iter() {
            pane.push_ref(r);
        }
        assert_eq!(pane.schema(), src.schema());
        assert_eq!(pane.i64_column(0), Some(&[1i64, 2][..]));
    }

    #[test]
    fn cross_layout_append_coerces() {
        let mut typed = typed_batch(&[(1, 1.0)]);
        // An inferred `[f64, i64]` schema: other names, swapped types.
        let other = TupleBatch::from_tuples(vec![Tuple::new(
            Timestamp(9),
            Sic(0.2),
            vec![Value::F64(5.9), Value::I64(50)],
        )]);
        assert_ne!(other.schema(), typed.schema());
        typed.append_batch(&other);
        assert_eq!(typed.len(), 2);
        assert_eq!(typed.i64_column(0), Some(&[1i64, 5][..]));
        assert_eq!(typed.f64_column(1), Some(&[1.0, 50.0][..]));
    }

    #[test]
    fn first_row_infers_the_schema() {
        let mut b = TupleBatch::new();
        assert_eq!(b.schema(), None, "the empty batch has no layout yet");
        b.push_row(
            Timestamp(0),
            Sic(0.1),
            &[Value::I64(1), Value::F64(2.5), Value::Bool(true)],
        );
        let fields: Vec<(&str, FieldType)> = b.schema().unwrap().fields().collect();
        assert_eq!(
            fields,
            vec![
                ("f0", FieldType::I64),
                ("f1", FieldType::F64),
                ("f2", FieldType::Bool)
            ]
        );
        assert_eq!(b.i64_column(0), Some(&[1i64][..]));
        assert_eq!(b.bool_column(2).map(|c| c.get(0)), Some(true));
        // Later rows coerce to the inferred types.
        b.push_row(Timestamp(1), Sic(0.1), &[Value::F64(7.9)]);
        assert_eq!(b.i64_column(0), Some(&[1i64, 7][..]));
        assert_eq!(b.f64_column(1), Some(&[2.5, 0.0][..]));
    }

    #[test]
    fn gather_selects_masked_rows() {
        let b = typed_batch(&[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        // Keep rows 0 and 2.
        let out = b.gather(&[0b0101]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.i64_column(0), Some(&[1i64, 3][..]));
        assert_eq!(out.row(1).ts, Timestamp(2));
        assert!(out.schema().is_some());
        // Inferred-schema gather too.
        let inferred = TupleBatch::from_tuples(vec![t(0, 0.1, 1.0), t(1, 0.1, 2.0)]);
        let out = inferred.gather(&[0b10]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0).f64(0), 2.0);
        // Mask bits past the end are ignored.
        assert_eq!(inferred.gather(&[!0u64]).len(), 2);
    }

    #[test]
    fn push_ref_sic_overrides_mass() {
        let src = typed_batch(&[(1, 1.0)]);
        let mut out = TupleBatch::new();
        out.push_ref_sic(src.row(0), Sic(0.5));
        assert_eq!(out.row(0).sic, Sic(0.5));
        assert_eq!(out.row(0).f64(1), 1.0);
    }

    #[test]
    fn typed_drop_and_sic_paths() {
        let mut b = typed_batch(&[(1, 10.0), (2, 1000.0), (3, 30.0)]);
        b.drop_row(1);
        assert_eq!(b.column_f64(1).sum::<f64>(), 40.0);
        let live: Vec<i64> = b.iter().map(|r| r.i64(0)).collect();
        assert_eq!(live, vec![1, 3]);
        b.set_uniform_sic(Sic(0.2));
        assert!((b.sic_total().value() - 0.4).abs() < 1e-12);
    }

    fn tagged_schema() -> Schema {
        Schema::new([("tag", FieldType::Tag), ("value", FieldType::F64)])
    }

    fn tagged_batch(schema: &Schema, rows: &[(&str, f64)]) -> TupleBatch {
        let dict = schema.interner().unwrap().clone();
        let mut b = TupleBatch::with_schema_capacity(schema.clone(), rows.len());
        for (i, &(tag, v)) in rows.iter().enumerate() {
            let code = dict.intern(tag);
            b.push_row(
                Timestamp(i as u64),
                Sic(0.1),
                &[Value::Tag(code), Value::F64(v)],
            );
        }
        b
    }

    #[test]
    fn tag_columns_thread_through_batch_ops() {
        let schema = tagged_schema();
        let mut b = tagged_batch(&schema, &[("a", 1.0), ("b", 2.0), ("a", 3.0)]);
        let tags = b.tag_column(0).expect("tag column");
        assert_eq!(tags.len(), 3);
        assert_eq!(tags.resolve(0).as_deref(), Some("a"));
        assert_eq!(tags.resolve(1).as_deref(), Some("b"));
        assert_eq!(tags.codes()[0], tags.codes()[2], "same tag, same code");
        assert_eq!(b.tag_column(1), None, "type mismatch");
        // column_f64 reads codes numerically.
        assert!(b.column_f64(0).sum::<f64>() > 0.0);
        // Append keeps the dictionary (same schema fast path).
        let more = tagged_batch(&schema, &[("c", 4.0)]);
        b.append_batch(&more);
        assert_eq!(b.tag_column(0).unwrap().resolve(3).as_deref(), Some("c"));
        // Split keeps both halves resolvable.
        let front = b.split_front(2);
        assert_eq!(
            front.tag_column(0).unwrap().resolve(1).as_deref(),
            Some("b")
        );
        assert_eq!(b.tag_column(0).unwrap().resolve(0).as_deref(), Some("a"));
        // Gather preserves codes.
        let out = b.gather(&[0b10]);
        assert_eq!(out.tag_column(0).unwrap().resolve(0).as_deref(), Some("c"));
    }

    #[test]
    fn tag_panes_stay_dictionary_typed_through_push_ref() {
        let schema = tagged_schema();
        let src = tagged_batch(&schema, &[("x", 1.0), ("y", 2.0)]);
        let mut pane = TupleBatch::new();
        for r in src.iter() {
            pane.push_ref(r);
        }
        assert_eq!(pane.schema(), src.schema());
        let tags = pane.tag_column(0).expect("adopted pane keeps tag layout");
        assert!(
            Arc::ptr_eq(tags.dict(), schema.interner().unwrap()),
            "adopted pane shares the source dictionary"
        );
        assert_eq!(tags.resolve(1).as_deref(), Some("y"));
        // Round trip to tuples keeps the codes.
        let tuples = pane.to_tuples();
        assert_eq!(tuples[0].values[0], Value::Tag(src.row(0).i64(0) as u32));
    }

    #[test]
    fn short_tag_rows_pad_with_the_empty_string() {
        let schema = tagged_schema();
        let mut b = TupleBatch::with_schema(schema.clone());
        b.push_row(Timestamp(0), Sic(0.1), &[]);
        let tags = b.tag_column(0).unwrap();
        assert_eq!(tags.resolve(0).as_deref(), Some(""));
    }

    #[test]
    fn pool_keeps_only_schemas_a_producer_acquires() {
        let pool = BatchPool::new();
        let source = keyed_schema();
        drop(pool.acquire(&source, 4));
        // A derived schema no producer acquires stays out of the slots.
        let derived = Schema::new([("avg", FieldType::F64)]);
        let mut out = TupleBatch::with_schema(derived.clone());
        out.push_row(Timestamp(0), Sic(0.1), &[Value::F64(1.0)]);
        pool.recycle(out);
        pool.recycle(TupleBatch::new());
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.stats().recycled, 0);
        // A structurally equal schema from another declaration (a decoded
        // wire batch) is pooled and serves the producer.
        pool.recycle(typed_batch(&[(1, 1.0)]));
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire(&source, 4);
        assert_eq!((b.rows(), pool.stats().reused), (0, 1));
        // Once a producer acquires the derived schema, its batches pool.
        drop(pool.acquire(&derived, 1));
        pool.recycle(TupleBatch::with_schema(derived));
        assert_eq!(pool.idle(), 1);
    }

    /// Regression (burst drop): with a fixed 256-slot cap, a burst of
    /// batches coming back at once — panes closing together — was mostly
    /// dropped, and the producer built it again. The pool keeps as many
    /// as it built, and no more.
    #[test]
    fn pool_keeps_a_burst_it_built() {
        let pool = BatchPool::new();
        let schema = keyed_schema();
        let burst: Vec<TupleBatch> = (0..300).map(|_| pool.acquire(&schema, 1)).collect();
        for b in burst {
            pool.recycle(b);
        }
        assert_eq!(pool.idle(), 300);
        // Batches the pool did not build do not grow it further.
        pool.recycle(TupleBatch::with_schema(schema.clone()));
        assert_eq!(pool.idle(), 300);
        for _ in 0..300 {
            drop(pool.acquire(&schema, 1));
        }
        let stats = pool.stats();
        assert_eq!((stats.fresh, stats.reused, stats.recycled), (300, 300, 300));
    }

    /// Regression (pane memory through the pump): a pane that gathered
    /// many batches' rows came back with a pane's capacity, and kept in
    /// the pool it carried that memory through every later source batch.
    /// The pool frees a batch with room for more rows than any producer
    /// of its schema asked for.
    #[test]
    fn pool_frees_a_batch_grown_past_its_producers() {
        let pool = BatchPool::new();
        let schema = keyed_schema();
        let mut grown = pool.acquire(&schema, 2);
        for i in 0..9 {
            grown.push_row(Timestamp(i), Sic(0.1), &[Value::I64(1), Value::F64(1.0)]);
        }
        pool.recycle(grown);
        assert_eq!((pool.idle(), pool.stats().recycled), (0, 0));
        // Once a producer asks for that many rows, such a batch is kept.
        drop(pool.acquire(&schema, 16));
        let mut b = TupleBatch::with_schema_capacity(schema.clone(), 16);
        b.push_row(Timestamp(0), Sic(0.1), &[Value::I64(1), Value::F64(1.0)]);
        pool.recycle(b);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_clones_share_slots() {
        let pool = BatchPool::new();
        let schema = keyed_schema();
        pool.recycle(pool.acquire(&schema, 0));
        let other = pool.clone();
        assert_eq!(other.idle(), 1);
        let _ = other.acquire(&schema, 0);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn row_values_equality_is_semantic() {
        let typed = typed_batch(&[(1, 10.0)]);
        let inferred_same = TupleBatch::from_tuples(vec![Tuple::new(
            Timestamp(0),
            Sic(0.1),
            vec![Value::I64(1), Value::F64(10.0)],
        )]);
        assert_ne!(typed.schema(), inferred_same.schema(), "field names differ");
        assert_eq!(typed.row(0).values, inferred_same.row(0).values);
        let inferred_diff = TupleBatch::from_tuples(vec![Tuple::new(
            Timestamp(0),
            Sic(0.1),
            vec![Value::F64(1.0), Value::F64(10.0)],
        )]);
        assert_ne!(typed.row(0).values, inferred_diff.row(0).values);
    }
}
