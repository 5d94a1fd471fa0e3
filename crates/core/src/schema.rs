//! Declared tuple schemas and typed column storage.
//!
//! THEMIS treats query logic as a black box (§4), but its *evaluation*
//! workloads (Table 1) all move rows with a small, fixed shape —
//! `[value]` or `[key, value]`. When a query declares that shape as a
//! [`Schema`] up front, the hot path can store each field as a
//! contiguous **native column** ([`Column`]: `Vec<f64>` / `Vec<i64>` /
//! a word-packed bitset / dictionary codes) instead of a dynamically-typed
//! [`Value`] per field, removing the per-element enum match from every
//! aggregate read and letting slice kernels auto-vectorize.
//!
//! A [`Schema`] is an ordered list of `field name →` [`FieldType`]
//! entries, shared cheaply across batches through an [`Arc`]. Query
//! templates declare one schema per query; sources build typed batches
//! against it, every window slice and pane hand-off preserves it, and
//! operator logic declares the schema of the rows it derives. Rows that
//! arrive without a declaration get one inferred ([`Schema::infer`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use crate::bits::BitVec;
use crate::value::Value;

/// The native type of one schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 64-bit float (sensor measurements, aggregates).
    F64,
    /// 64-bit signed integer (identifiers, counts).
    I64,
    /// Boolean (filter outcomes), stored word-packed.
    Bool,
    /// Dictionary-encoded tag string: the column stores `u32` codes and
    /// the strings live once in the schema's shared [`TagInterner`].
    Tag,
}

impl FieldType {
    /// Display name of the type.
    pub fn name(&self) -> &'static str {
        match self {
            FieldType::F64 => "f64",
            FieldType::I64 => "i64",
            FieldType::Bool => "bool",
            FieldType::Tag => "tag",
        }
    }

    /// The column default used to pad short rows: `0.0`, `0`, `false` or
    /// the empty-string tag.
    pub fn default_value(&self) -> Value {
        match self {
            FieldType::F64 => Value::F64(0.0),
            FieldType::I64 => Value::I64(0),
            FieldType::Bool => Value::Bool(false),
            FieldType::Tag => Value::Tag(TagInterner::EMPTY),
        }
    }
}

/// An append-only, thread-safe string dictionary shared by every tag
/// column of one schema.
///
/// Sources intern their tag once at construction and push bare `u32`
/// codes per row, so the hot path never touches the lock; resolution
/// back to strings only happens on output edges. Code
/// [`TagInterner::EMPTY`] is always the empty string — it backs the
/// short-row pad of [`FieldType::Tag`].
///
/// ```
/// use themis_core::prelude::*;
///
/// let dict = TagInterner::new();
/// let code = dict.intern("host-17");
/// assert_eq!(dict.intern("host-17"), code, "idempotent");
/// assert_eq!(dict.resolve(code).as_deref(), Some("host-17"));
/// assert_eq!(dict.resolve(TagInterner::EMPTY).as_deref(), Some(""));
/// ```
#[derive(Debug)]
pub struct TagInterner {
    inner: RwLock<InternerInner>,
}

#[derive(Debug, Default)]
struct InternerInner {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl TagInterner {
    /// The code of the empty string, pre-interned by [`TagInterner::new`]
    /// (the pad for short rows).
    pub const EMPTY: u32 = 0;

    /// A fresh interner holding only the empty string.
    pub fn new() -> Self {
        let it = TagInterner {
            inner: RwLock::new(InternerInner::default()),
        };
        it.intern("");
        it
    }

    /// Interns `s`, returning its stable code (idempotent).
    pub fn intern(&self, s: &str) -> u32 {
        if let Some(&code) = self.inner.read().unwrap().index.get(s) {
            return code;
        }
        let mut inner = self.inner.write().unwrap();
        if let Some(&code) = inner.index.get(s) {
            return code;
        }
        let code = inner.strings.len() as u32;
        let owned: Arc<str> = Arc::from(s);
        inner.strings.push(owned.clone());
        inner.index.insert(owned, code);
        code
    }

    /// The string behind `code`, if interned.
    pub fn resolve(&self, code: u32) -> Option<Arc<str>> {
        self.inner
            .read()
            .unwrap()
            .strings
            .get(code as usize)
            .cloned()
    }

    /// Number of interned strings (at least 1: the empty string).
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().strings.len()
    }

    /// Never true: the empty string is always interned.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Default for TagInterner {
    fn default() -> Self {
        TagInterner::new()
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
struct SchemaInner {
    fields: Vec<(String, FieldType)>,
    /// Shared tag dictionary, `Some` iff any field is [`FieldType::Tag`].
    interner: Option<Arc<TagInterner>>,
}

/// Structural equality over the declared fields; schemas with tag fields
/// additionally compare interner *identity*, because tag codes are only
/// comparable relative to one dictionary.
impl PartialEq for SchemaInner {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
            && match (&self.interner, &other.interner) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for SchemaInner {}

/// An ordered `field name → type` declaration for one query's tuples.
///
/// Schemas are immutable and cheap to clone (the field list is behind an
/// [`Arc`]), so every batch, window pane and emission of a query can
/// carry one. Equality compares the declared fields; two independently
/// built schemas with the same fields are equal — except schemas with
/// [`FieldType::Tag`] fields, which also compare dictionary identity
/// (tag codes are only comparable relative to one [`TagInterner`]).
///
/// ```
/// use themis_core::prelude::*;
///
/// // Declare the TOP-5 workload's keyed rows: `[key: i64, value: f64]`.
/// let schema = Schema::new([("key", FieldType::I64), ("value", FieldType::F64)]);
/// assert_eq!(schema.len(), 2);
/// assert_eq!(schema.index_of("value"), Some(1));
/// assert_eq!(schema.field_type(0), Some(FieldType::I64));
///
/// // Batches built against the schema store native columns, so kernels
/// // read `&[f64]` slices instead of matching a `Value` enum per field.
/// let mut batch = TupleBatch::with_schema(schema.clone());
/// batch.push_row(Timestamp(0), Sic(0.1), &[Value::I64(7), Value::F64(42.0)]);
/// assert_eq!(batch.schema(), Some(&schema));
/// assert_eq!(batch.i64_column(0), Some(&[7i64][..]));
/// assert_eq!(batch.f64_column(1), Some(&[42.0][..]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

impl Schema {
    /// Declares a schema from `(name, type)` fields, in row order. If any
    /// field is [`FieldType::Tag`], a fresh shared [`TagInterner`] is
    /// created for the schema's tag columns.
    pub fn new<N: Into<String>>(fields: impl IntoIterator<Item = (N, FieldType)>) -> Self {
        let fields: Vec<(String, FieldType)> =
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect();
        let interner = fields
            .iter()
            .any(|(_, t)| *t == FieldType::Tag)
            .then(|| Arc::new(TagInterner::new()));
        Schema {
            inner: Arc::new(SchemaInner { fields, interner }),
        }
    }

    /// Declares a schema whose tag columns share an existing dictionary —
    /// the way derived schemas (group-by outputs, projections) keep their
    /// tag codes resolvable against the input's interner. The interner is
    /// dropped again when no field is [`FieldType::Tag`].
    pub fn with_interner<N: Into<String>>(
        fields: impl IntoIterator<Item = (N, FieldType)>,
        dict: Arc<TagInterner>,
    ) -> Self {
        let fields: Vec<(String, FieldType)> =
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect();
        let interner = fields
            .iter()
            .any(|(_, t)| *t == FieldType::Tag)
            .then_some(dict);
        Schema {
            inner: Arc::new(SchemaInner { fields, interner }),
        }
    }

    /// Infers a schema from one row's value variants, naming the fields
    /// `f0`, `f1`, … — how the edge converters type rows that arrive
    /// without a declaration. A tag field gets a fresh dictionary, so a
    /// [`Value::Tag`] code only resolves against the dictionary it was
    /// interned in, never this one.
    pub fn infer(values: &[Value]) -> Schema {
        Schema::new(values.iter().enumerate().map(|(i, v)| {
            let ty = match v {
                Value::F64(_) => FieldType::F64,
                Value::I64(_) => FieldType::I64,
                Value::Bool(_) => FieldType::Bool,
                Value::Tag(_) => FieldType::Tag,
            };
            (format!("f{i}"), ty)
        }))
    }

    /// The shared tag dictionary (`Some` iff any field is
    /// [`FieldType::Tag`]).
    pub fn interner(&self) -> Option<&Arc<TagInterner>> {
        self.inner.interner.as_ref()
    }

    /// Builds an empty column for field `i`, sharing the schema's tag
    /// dictionary when the field is a tag.
    pub fn column_for(&self, i: usize, rows: usize) -> Option<Column> {
        let ty = self.field_type(i)?;
        Some(match ty {
            FieldType::Tag => Column::Tag(TagColumn::with_capacity(
                self.inner
                    .interner
                    .clone()
                    .unwrap_or_else(|| Arc::new(TagInterner::new())),
                rows,
            )),
            other => Column::with_capacity(other, rows),
        })
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.inner.fields.len()
    }

    /// True when the schema declares no fields.
    pub fn is_empty(&self) -> bool {
        self.inner.fields.is_empty()
    }

    /// The type of field `i`, if declared.
    pub fn field_type(&self, i: usize) -> Option<FieldType> {
        self.inner.fields.get(i).map(|(_, t)| *t)
    }

    /// The name of field `i`, if declared.
    pub fn field_name(&self, i: usize) -> Option<&str> {
        self.inner.fields.get(i).map(|(n, _)| n.as_str())
    }

    /// Index of the field named `name`, if declared.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.inner.fields.iter().position(|(n, _)| n == name)
    }

    /// Iterates `(name, type)` pairs in field order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, FieldType)> {
        self.inner.fields.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// True when both handles share one declaration (O(1)); used as the
    /// fast path before a field-by-field comparison.
    pub fn same_as(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (n, t)) in self.inner.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{n}: {t}")?;
        }
        f.write_str("]")
    }
}

/// A word-packed boolean column (a length-tracked [`BitVec`] underneath —
/// the same shared bitset the drop bitmap and the predicate-mask kernels
/// use).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoolColumn {
    bits: BitVec,
}

impl BoolColumn {
    /// An empty column.
    pub fn new() -> Self {
        BoolColumn::default()
    }

    /// An empty column with room for `rows` bits.
    pub fn with_capacity(rows: usize) -> Self {
        // Pre-sizing words is free for equality (BitVec compares
        // semantically), and push never reallocates below `rows`.
        BoolColumn {
            bits: BitVec::with_bits(rows),
        }
    }

    /// Number of stored bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends one bit.
    pub fn push(&mut self, v: bool) {
        self.bits.push(v);
    }

    /// Bit `i` (`false` when out of range).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.bits.len() && self.bits.get(i)
    }

    /// The packed words (the last word's bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }

    /// Splits off and returns the first `n` bits, keeping the rest —
    /// word-level copies (front) and shift-merges (tail), not a per-bit
    /// rebuild.
    pub fn split_front(&mut self, n: usize) -> BoolColumn {
        BoolColumn {
            bits: self.bits.split_front(n),
        }
    }
}

impl FromIterator<bool> for BoolColumn {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut c = BoolColumn::new();
        for b in iter {
            c.push(b);
        }
        c
    }
}

/// A dictionary-encoded string column: contiguous `u32` codes plus a
/// shared [`TagInterner`] holding each distinct string once. Batch
/// operations (push/append/split/gather) move bare codes; crossing into a
/// column with a *different* dictionary re-interns through the strings
/// (a cold path guarded by `Arc::ptr_eq`).
#[derive(Debug, Clone)]
pub struct TagColumn {
    codes: Vec<u32>,
    dict: Arc<TagInterner>,
}

impl TagColumn {
    /// An empty column over `dict`.
    pub fn new(dict: Arc<TagInterner>) -> Self {
        TagColumn {
            codes: Vec::new(),
            dict,
        }
    }

    /// An empty column over `dict` with room for `rows` codes.
    pub fn with_capacity(dict: Arc<TagInterner>, rows: usize) -> Self {
        TagColumn {
            codes: Vec::with_capacity(rows),
            dict,
        }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The stored codes.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Arc<TagInterner> {
        &self.dict
    }

    /// Appends a bare code (the hot source path: the caller interned the
    /// tag against this column's dictionary up front).
    #[inline]
    pub fn push_code(&mut self, code: u32) {
        self.codes.push(code);
    }

    /// Interns `s` into this column's dictionary and appends its code.
    pub fn push_str(&mut self, s: &str) -> u32 {
        let code = self.dict.intern(s);
        self.codes.push(code);
        code
    }

    /// The code at row `i` (panics if out of range).
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// The string at row `i`, if its code is interned.
    pub fn resolve(&self, i: usize) -> Option<Arc<str>> {
        self.dict.resolve(self.codes[i])
    }

    /// Appends entry `i` of `src`, re-interning when the dictionaries
    /// differ.
    #[inline]
    pub fn push_from(&mut self, src: &TagColumn, i: usize) {
        if Arc::ptr_eq(&self.dict, &src.dict) {
            self.codes.push(src.codes[i]);
        } else {
            let s = src.resolve(i).unwrap_or_else(|| Arc::from(""));
            self.codes.push(self.dict.intern(&s));
        }
    }

    /// Appends all of `src`'s codes (a contiguous copy when the
    /// dictionaries match, per-row re-interning otherwise).
    pub fn extend_from(&mut self, src: &TagColumn) {
        if Arc::ptr_eq(&self.dict, &src.dict) {
            self.codes.extend_from_slice(&src.codes);
        } else {
            for i in 0..src.len() {
                self.push_from(src, i);
            }
        }
    }

    /// Splits off and returns the first `n` codes, keeping the rest; both
    /// halves share the dictionary.
    pub fn split_front(&mut self, n: usize) -> TagColumn {
        let tail = self.codes.split_off(n.min(self.codes.len()));
        TagColumn {
            codes: std::mem::replace(&mut self.codes, tail),
            dict: self.dict.clone(),
        }
    }
}

/// Same-dictionary columns compare codes; columns over different
/// dictionaries compare the resolved strings.
impl PartialEq for TagColumn {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            return self.codes == other.codes;
        }
        self.len() == other.len() && (0..self.len()).all(|i| self.resolve(i) == other.resolve(i))
    }
}

/// One typed column of a batch: the contiguous native storage of one
/// schema field.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Contiguous 64-bit floats.
    F64(Vec<f64>),
    /// Contiguous 64-bit signed integers.
    I64(Vec<i64>),
    /// Word-packed booleans.
    Bool(BoolColumn),
    /// Dictionary-encoded tag strings (`u32` codes + shared interner).
    Tag(TagColumn),
}

impl Column {
    /// An empty column of the given type.
    pub fn new(ty: FieldType) -> Self {
        Column::with_capacity(ty, 0)
    }

    /// An empty column of the given type with room for `rows` entries.
    /// A [`FieldType::Tag`] column built this way gets a *fresh*
    /// dictionary — batch construction goes through
    /// [`Schema::column_for`] instead so tag columns share the schema's
    /// interner.
    pub fn with_capacity(ty: FieldType, rows: usize) -> Self {
        match ty {
            FieldType::F64 => Column::F64(Vec::with_capacity(rows)),
            FieldType::I64 => Column::I64(Vec::with_capacity(rows)),
            FieldType::Bool => Column::Bool(BoolColumn::with_capacity(rows)),
            FieldType::Tag => {
                Column::Tag(TagColumn::with_capacity(Arc::new(TagInterner::new()), rows))
            }
        }
    }

    /// The column's field type.
    pub fn field_type(&self) -> FieldType {
        match self {
            Column::F64(_) => FieldType::F64,
            Column::I64(_) => FieldType::I64,
            Column::Bool(_) => FieldType::Bool,
            Column::Tag(_) => FieldType::Tag,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Tag(v) => v.len(),
        }
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a [`Value`], coercing it to the column type (`as_f64` /
    /// `as_i64` / `as_bool` — the numeric views of [`Value`]).
    /// A [`Value::Tag`] pushed into a tag column appends its bare code;
    /// the caller guarantees the code came from this column's dictionary
    /// (batch paths check schema equality, which compares interner
    /// identity, before taking this route).
    #[inline]
    pub fn push_value(&mut self, v: Value) {
        match self {
            Column::F64(c) => c.push(v.as_f64()),
            Column::I64(c) => c.push(v.as_i64()),
            Column::Bool(c) => c.push(v.as_bool()),
            Column::Tag(c) => c.push_code(v.as_i64().max(0) as u32),
        }
    }

    /// Appends `n` copies of `v`, coerced as [`Column::push_value`]
    /// coerces it, with one fill instead of `n` pushes.
    pub(crate) fn extend_repeat(&mut self, v: Value, n: usize) {
        match self {
            Column::F64(c) => c.resize(c.len() + n, v.as_f64()),
            Column::I64(c) => c.resize(c.len() + n, v.as_i64()),
            Column::Bool(c) => (0..n).for_each(|_| c.push(v.as_bool())),
            Column::Tag(c) => c.codes.resize(c.codes.len() + n, v.as_i64().max(0) as u32),
        }
    }

    /// Appends `n` floats, `draw`'s results in call order, coerced as
    /// [`Column::push_value`] coerces a [`Value::F64`]; `draw` runs exactly
    /// `n` times.
    pub(crate) fn extend_drawn(&mut self, n: usize, mut draw: impl FnMut() -> f64) {
        match self {
            Column::F64(c) => c.extend((0..n).map(|_| draw())),
            other => (0..n).for_each(|_| other.push_value(Value::F64(draw()))),
        }
    }

    /// Entry `i` as a [`Value`] (panics if out of range).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::F64(c) => Value::F64(c[i]),
            Column::I64(c) => Value::I64(c[i]),
            Column::Bool(c) => Value::Bool(c.get(i)),
            Column::Tag(c) => Value::Tag(c.code(i)),
        }
    }

    /// Numeric view of entry `i` (panics if out of range).
    #[inline]
    pub fn f64_at(&self, i: usize) -> f64 {
        match self {
            Column::F64(c) => c[i],
            Column::I64(c) => c[i] as f64,
            Column::Bool(c) => c.get(i) as i64 as f64,
            Column::Tag(c) => c.code(i) as f64,
        }
    }

    /// Copies entry `i` of `src` onto the end of `self`. The columns must
    /// share a type (callers check the schema first); mismatches coerce
    /// through [`Value`], and tag-to-tag copies across dictionaries
    /// re-intern.
    #[inline]
    pub fn push_from(&mut self, src: &Column, i: usize) {
        match (self, src) {
            (Column::F64(d), Column::F64(s)) => d.push(s[i]),
            (Column::I64(d), Column::I64(s)) => d.push(s[i]),
            (Column::Bool(d), Column::Bool(s)) => d.push(s.get(i)),
            (Column::Tag(d), Column::Tag(s)) => d.push_from(s, i),
            (d, s) => d.push_value(s.value(i)),
        }
    }

    /// Appends all of `src`'s entries (a contiguous copy when the types
    /// match).
    pub fn extend_from(&mut self, src: &Column) {
        match (self, src) {
            (Column::F64(d), Column::F64(s)) => d.extend_from_slice(s),
            (Column::I64(d), Column::I64(s)) => d.extend_from_slice(s),
            (Column::Bool(d), Column::Bool(s)) => {
                for i in 0..s.len() {
                    d.push(s.get(i));
                }
            }
            (Column::Tag(d), Column::Tag(s)) => d.extend_from(s),
            (d, s) => {
                for i in 0..s.len() {
                    d.push_value(s.value(i));
                }
            }
        }
    }

    /// Splits off and returns the first `n` entries, keeping the rest.
    pub fn split_front(&mut self, n: usize) -> Column {
        match self {
            Column::F64(v) => {
                let tail = v.split_off(n.min(v.len()));
                Column::F64(std::mem::replace(v, tail))
            }
            Column::I64(v) => {
                let tail = v.split_off(n.min(v.len()));
                Column::I64(std::mem::replace(v, tail))
            }
            Column::Bool(v) => Column::Bool(v.split_front(n)),
            Column::Tag(v) => Column::Tag(v.split_front(n)),
        }
    }

    /// Clears the stored entries, keeping the allocation (and, for tag
    /// columns, the dictionary) — the batch-pool recycle path.
    pub fn clear(&mut self) {
        match self {
            Column::F64(v) => v.clear(),
            Column::I64(v) => v.clear(),
            Column::Bool(v) => *v = BoolColumn::new(),
            Column::Tag(v) => v.codes.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_declares_fields_in_order() {
        let s = Schema::new([("key", FieldType::I64), ("value", FieldType::F64)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.field_name(0), Some("key"));
        assert_eq!(s.field_type(1), Some(FieldType::F64));
        assert_eq!(s.index_of("value"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field_type(9), None);
        assert_eq!(s.to_string(), "[key: i64, value: f64]");
    }

    #[test]
    fn schema_equality_is_structural() {
        let a = Schema::new([("v", FieldType::F64)]);
        let b = Schema::new([("v", FieldType::F64)]);
        let c = Schema::new([("v", FieldType::I64)]);
        assert_eq!(a, b);
        assert!(!a.same_as(&b), "distinct allocations");
        assert!(a.same_as(&a.clone()), "clones share the declaration");
        assert_ne!(a, c);
    }

    #[test]
    fn bool_column_packs_words() {
        let mut c = BoolColumn::new();
        for i in 0..130 {
            c.push(i % 3 == 0);
        }
        assert_eq!(c.len(), 130);
        assert!(c.get(0));
        assert!(!c.get(1));
        assert!(c.get(129));
        assert!(!c.get(500), "out of range reads false");
        let front = c.split_front(65);
        assert_eq!(front.len(), 65);
        assert_eq!(c.len(), 65);
        assert!(front.get(63) == (63 % 3 == 0));
        assert!(c.get(0) == (65 % 3 == 0));
        assert!(!front.get(65), "front bits past len read false");
    }

    #[test]
    fn bool_column_split_at_any_offset() {
        // Word-boundary and unaligned splits both preserve every bit.
        for split in [0usize, 1, 63, 64, 65, 128, 200] {
            let bits: Vec<bool> = (0..200).map(|i| (i * 7) % 5 < 2).collect();
            let mut c: BoolColumn = bits.iter().copied().collect();
            let front = c.split_front(split);
            assert_eq!(front.len(), split);
            assert_eq!(c.len(), 200 - split);
            for (i, &b) in bits.iter().enumerate() {
                if i < split {
                    assert_eq!(front.get(i), b, "split {split}, front bit {i}");
                } else {
                    assert_eq!(c.get(i - split), b, "split {split}, rest bit {i}");
                }
            }
        }
    }

    #[test]
    fn column_coerces_values() {
        let mut c = Column::new(FieldType::I64);
        c.push_value(Value::F64(2.9));
        c.push_value(Value::Bool(true));
        assert_eq!(c.value(0), Value::I64(2));
        assert_eq!(c.f64_at(1), 1.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.field_type(), FieldType::I64);
    }

    #[test]
    fn column_copies_and_splits() {
        let mut a = Column::with_capacity(FieldType::F64, 4);
        for v in [1.0, 2.0, 3.0] {
            a.push_value(Value::F64(v));
        }
        let mut b = Column::new(FieldType::F64);
        b.push_from(&a, 1);
        b.extend_from(&a);
        assert_eq!(b.len(), 4);
        assert_eq!(b.value(0), Value::F64(2.0));
        let front = a.split_front(2);
        assert_eq!(front.len(), 2);
        assert_eq!(a.len(), 1);
        assert_eq!(a.value(0), Value::F64(3.0));
    }

    #[test]
    fn mismatched_column_copy_coerces() {
        let mut f = Column::new(FieldType::F64);
        f.push_value(Value::F64(1.5));
        let mut i = Column::new(FieldType::I64);
        i.push_from(&f, 0);
        i.extend_from(&f);
        assert_eq!(i.value(0), Value::I64(1));
        assert_eq!(i.value(1), Value::I64(1));
    }

    #[test]
    fn field_type_defaults() {
        assert_eq!(FieldType::F64.default_value(), Value::F64(0.0));
        assert_eq!(FieldType::I64.default_value(), Value::I64(0));
        assert_eq!(FieldType::Bool.default_value(), Value::Bool(false));
        assert_eq!(
            FieldType::Tag.default_value(),
            Value::Tag(TagInterner::EMPTY)
        );
        assert_eq!(FieldType::Bool.to_string(), "bool");
        assert_eq!(FieldType::Tag.to_string(), "tag");
    }

    #[test]
    fn interner_is_idempotent_and_resolves() {
        let dict = TagInterner::new();
        assert_eq!(dict.len(), 1, "empty string pre-interned");
        assert_eq!(dict.resolve(TagInterner::EMPTY).as_deref(), Some(""));
        let a = dict.intern("alpha");
        let b = dict.intern("beta");
        assert_ne!(a, b);
        assert_eq!(dict.intern("alpha"), a);
        assert_eq!(dict.resolve(b).as_deref(), Some("beta"));
        assert_eq!(dict.resolve(999), None);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn tag_schemas_compare_dictionary_identity() {
        let a = Schema::new([("tag", FieldType::Tag), ("v", FieldType::F64)]);
        let b = Schema::new([("tag", FieldType::Tag), ("v", FieldType::F64)]);
        assert_ne!(a, b, "independent dictionaries, incomparable codes");
        assert_eq!(a, a.clone());
        let shared = Schema::with_interner(
            [("tag", FieldType::Tag), ("v", FieldType::F64)],
            a.interner().unwrap().clone(),
        );
        assert_eq!(a, shared, "same fields, same dictionary");
        assert!(b.interner().is_some());
        assert!(Schema::new([("v", FieldType::F64)]).interner().is_none());
        assert_eq!(a.to_string(), "[tag: tag, v: f64]");
    }

    #[test]
    fn tag_column_round_trips_codes_and_strings() {
        let dict = Arc::new(TagInterner::new());
        let mut c = TagColumn::with_capacity(dict.clone(), 4);
        let a = c.push_str("host-1");
        c.push_str("host-2");
        c.push_code(a);
        assert_eq!(c.len(), 3);
        assert_eq!(c.codes(), &[a, a + 1, a]);
        assert_eq!(c.resolve(1).as_deref(), Some("host-2"));
        let front = c.split_front(2);
        assert_eq!(front.len(), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resolve(0).as_deref(), Some("host-1"));
        assert!(Arc::ptr_eq(front.dict(), c.dict()));
    }

    #[test]
    fn tag_copies_across_dictionaries_reintern() {
        let mut src = TagColumn::new(Arc::new(TagInterner::new()));
        src.push_str("x");
        src.push_str("y");
        let mut dst = TagColumn::new(Arc::new(TagInterner::new()));
        dst.push_str("filler"); // skew the code space
        dst.push_from(&src, 1);
        dst.extend_from(&src);
        assert_eq!(dst.resolve(1).as_deref(), Some("y"));
        assert_eq!(dst.resolve(2).as_deref(), Some("x"));
        assert_eq!(dst.resolve(3).as_deref(), Some("y"));
        assert_ne!(dst.code(2), src.code(0), "codes re-numbered, strings kept");
        // Semantic equality across dictionaries compares strings.
        let mut same = TagColumn::new(Arc::new(TagInterner::new()));
        same.push_str("x");
        same.push_str("y");
        assert_eq!(src, same);
        same.push_str("z");
        assert_ne!(src, same);
    }

    #[test]
    fn schema_column_for_shares_the_dictionary() {
        let s = Schema::new([("tag", FieldType::Tag), ("v", FieldType::F64)]);
        let (c0, c1) = (s.column_for(0, 8).unwrap(), s.column_for(1, 8).unwrap());
        assert_eq!(c0.field_type(), FieldType::Tag);
        assert_eq!(c1.field_type(), FieldType::F64);
        match (&c0, s.interner()) {
            (Column::Tag(t), Some(dict)) => assert!(Arc::ptr_eq(t.dict(), dict)),
            _ => panic!("tag column must share the schema dictionary"),
        }
        assert!(s.column_for(9, 0).is_none());
    }

    #[test]
    fn column_clear_keeps_layout() {
        let s = Schema::new([("tag", FieldType::Tag)]);
        let mut c = s.column_for(0, 4).unwrap();
        c.push_value(Value::Tag(0));
        c.clear();
        assert!(c.is_empty());
        match &c {
            Column::Tag(t) => assert!(Arc::ptr_eq(t.dict(), s.interner().unwrap())),
            _ => panic!("clear keeps the tag dictionary"),
        }
    }
}
