//! Order-independent (multiset) checksums of query results and catalogs.
//!
//! A row hashes a canonical byte encoding of its values. Floats are
//! rounded to nine significant digits first: parallel `SUM`/`AVG` may
//! re-associate float additions (the only documented divergence between
//! the parallel path and the serial reference), and the check must not
//! read that as a wrong answer.

use perm_storage::Catalog;
use perm_types::{Tuple, Value};

use crate::rng::mix64;

/// Multiset checksum: row count plus two independently mixed sums of the
/// row hashes, so reordering rows leaves it unchanged while a changed,
/// missing or duplicated row changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    pub rows: u64,
    a: u64,
    b: u64,
}

impl Checksum {
    pub fn add_hash(&mut self, h: u64) {
        self.rows += 1;
        self.a = self.a.wrapping_add(mix64(h));
        self.b = self.b.wrapping_add(mix64(h ^ 0xA5A5_A5A5_5A5A_5A5A));
    }

    pub fn of_rows(rows: &[Tuple]) -> Checksum {
        let mut c = Checksum::default();
        for r in rows {
            c.add_hash(row_hash(r));
        }
        c
    }

    /// Fold this checksum into a single word (for combining per-table
    /// checksums into a catalog checksum).
    pub fn digest(&self) -> u64 {
        mix64(self.rows ^ mix64(self.a ^ mix64(self.b)))
    }
}

/// FNV-1a over bytes, finalized with the SplitMix mixer.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hash of one value's canonical encoding, chained onto `h`.
fn value_hash(v: &Value, h: u64) -> u64 {
    match v {
        Value::Null => fnv(&[0], h),
        Value::Bool(b) => fnv(&[1, *b as u8], h),
        Value::Int(i) => fnv(&i.to_le_bytes(), fnv(&[2], h)),
        Value::Float(f) => {
            let canon = if *f == 0.0 { 0.0 } else { *f };
            fnv(format!("{canon:.9e}").as_bytes(), fnv(&[3], h))
        }
        Value::Text(s) => fnv(
            s.as_bytes(),
            fnv(&(s.len() as u64).to_le_bytes(), fnv(&[4], h)),
        ),
    }
}

/// Hash of one row (order of values matters, as in the row itself).
pub fn row_hash(row: &Tuple) -> u64 {
    mix64(
        row.values()
            .iter()
            .fold(FNV_OFFSET, |h, v| value_hash(v, h)),
    )
}

/// Ordered row hashes: equal exactly when two results hold the same rows
/// in the same order.
pub fn ordered_hashes(rows: &[Tuple]) -> Vec<u64> {
    rows.iter().map(row_hash).collect()
}

/// Checksum of every base table's contents (rows as a multiset, keyed by
/// table name) plus the set of view names.
pub fn catalog_checksum(catalog: &Catalog) -> u64 {
    let mut names: Vec<&str> = catalog.relation_names();
    names.sort_unstable();
    let mut h = FNV_OFFSET;
    for name in names {
        h = fnv(name.as_bytes(), h);
        match catalog.table(name) {
            Ok(t) => h = mix64(h ^ Checksum::of_rows(t.rows()).digest()),
            Err(_) => h = fnv(b"view", h),
        }
    }
    mix64(h)
}

/// Logical bytes of a value: 8 for numbers, the UTF-8 length for text,
/// 1 for booleans and NULL. Used as "bytes of live data" in space
/// amplification.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Text(s) => s.len() as u64,
    }
}

/// Logical bytes of every base-table row in the catalog.
pub fn live_bytes(catalog: &Catalog) -> u64 {
    catalog
        .relation_names()
        .into_iter()
        .filter_map(|n| catalog.table(n).ok())
        .flat_map(|t| t.rows().iter())
        .map(|r| r.values().iter().map(value_bytes).sum::<u64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn multiset_checksum_ignores_order_but_not_content() {
        let a = row(vec![Value::Int(1), Value::text("x")]);
        let b = row(vec![Value::Int(2), Value::Null]);
        let ab = Checksum::of_rows(&[a.clone(), b.clone()]);
        let ba = Checksum::of_rows(&[b.clone(), a.clone()]);
        assert_eq!(ab, ba);
        assert_ne!(ab, Checksum::of_rows(&[a.clone(), a.clone()]));
        assert_ne!(ab, Checksum::of_rows(&[a]));
    }

    #[test]
    fn floats_compare_at_nine_significant_digits() {
        let x = row(vec![Value::Float(0.1 + 0.2)]);
        let y = row(vec![Value::Float(0.3)]);
        assert_eq!(row_hash(&x), row_hash(&y));
        let z = row(vec![Value::Float(0.3001)]);
        assert_ne!(row_hash(&x), row_hash(&z));
    }
}
