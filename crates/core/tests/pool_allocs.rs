//! [`BatchPool`] recycling, checked against the process-wide
//! [`batch_allocs`] counter. The counter is global, so this test lives in
//! a binary of its own: no other test constructs batches while it reads
//! the counter's exact delta.

use std::sync::Arc;

use themis_core::prelude::*;

#[test]
fn pool_recycles_by_schema() {
    let pool = BatchPool::new();
    let tagged = Schema::new([("tag", FieldType::Tag), ("value", FieldType::F64)]);
    let plain = Schema::new([("key", FieldType::I64), ("value", FieldType::F64)]);
    let before = batch_allocs();
    let mut a = pool.acquire(&tagged, 8);
    let code = tagged.interner().unwrap().intern("host");
    a.push_row(Timestamp(0), Sic(0.1), &[Value::Tag(code), Value::F64(1.0)]);
    a.drop_row(0);
    pool.recycle(a);
    assert_eq!(pool.idle(), 1);
    // Wrong schema misses the slot; right schema reuses it.
    let b = pool.acquire(&plain, 8);
    assert!(b.schema().unwrap().same_as(&plain));
    let c = pool.acquire(&tagged, 8);
    assert_eq!(c.rows(), 0, "recycled batch is empty");
    assert_eq!(c.drops().dropped(), 0, "drop bitmap cleared");
    assert!(
        Arc::ptr_eq(c.tag_column(0).unwrap().dict(), tagged.interner().unwrap()),
        "recycled batch keeps the dictionary"
    );
    let stats = pool.stats();
    assert_eq!((stats.reused, stats.fresh, stats.recycled), (1, 2, 1));
    assert_eq!(
        batch_allocs() - before,
        2,
        "only the fresh acquisitions constructed batches"
    );
}
