//! Seeded data for the three workloads, and the SQL script that loads it.
//!
//! Rows come from the repository's own generators (`perm_bench::forum`,
//! `perm_bench::tpch`), so the benchmark measures the data shapes the
//! figure harness and the earlier micro-benches use. The program under
//! test receives them only as SQL text: `CREATE TABLE`, then multi-row
//! `INSERT` statements that commit through the durable write path one by
//! one, then the `v1` view and the indexes.

use std::fmt::Write as _;
use std::sync::Arc;

use perm_storage::Catalog;
use perm_types::{DataType, Value};

/// What one workload loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSpec {
    /// `perm_bench::forum` scale: messages; users = scale/10, imports =
    /// scale/2, approved = 2 × scale.
    pub forum_scale: usize,
    /// `perm_bench::tpch` lineitem count (`None` = no TPC-H-lite tables).
    pub tpch_lineitems: Option<usize>,
    /// Create the hot-path indexes (`users.uid`, `messages.mid`,
    /// `approved.mid`) after the load.
    pub hotpath_indexes: bool,
    /// Rows per `INSERT` statement of the load.
    pub rows_per_insert: usize,
}

/// The view every forum workload defines (Figure 1, q2).
pub const VIEW_V1: &str = perm_core::fixtures::Q2;

/// The hot-path indexes, as `(table, column)`.
pub const HOTPATH_INDEXES: [(&str, &str); 3] =
    [("users", "uid"), ("messages", "mid"), ("approved", "mid")];

/// Generate the base tables of `spec` for `seed`, merged into one catalog
/// (forum tables plus, optionally, the TPC-H-lite tables).
pub fn generate(spec: &DataSpec, seed: u64) -> Catalog {
    let mut catalog = Catalog::new();
    let mut sources: Vec<Arc<Catalog>> = vec![perm_bench::forum(spec.forum_scale, seed).catalog()];
    if let Some(lineitems) = spec.tpch_lineitems {
        sources.push(perm_bench::tpch(lineitems, seed ^ 0x7C9D).catalog());
    }
    for source in sources {
        let mut names = source.relation_names();
        names.sort_unstable();
        for name in names {
            if let Ok(t) = source.table(name) {
                catalog
                    .create_table(t.clone())
                    .expect("generated table names are distinct");
            }
        }
    }
    catalog
}

fn type_sql(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Text | DataType::Unknown => "text",
    }
}

/// A value as a SQL literal that parses back to the same value.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Int(i) => i.to_string(),
        // `{:?}` prints the shortest representation that round-trips.
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// The load script for `catalog`: one `CREATE TABLE` per table, then
/// `INSERT` statements of at most `rows_per_insert` rows each.
pub fn load_script(catalog: &Catalog, rows_per_insert: usize) -> Vec<String> {
    let mut names = catalog.relation_names();
    names.sort_unstable();
    let mut script = Vec::new();
    for name in &names {
        let t = catalog.table(name).expect("generated relations are tables");
        let cols: Vec<String> = t
            .schema()
            .iter()
            .map(|c| {
                let not_null = if c.nullable { "" } else { " NOT NULL" };
                format!("{} {}{not_null}", c.name, type_sql(c.ty))
            })
            .collect();
        script.push(format!("CREATE TABLE {name} ({})", cols.join(", ")));
    }
    for name in &names {
        let t = catalog.table(name).expect("generated relations are tables");
        for chunk in t.rows().chunks(rows_per_insert.max(1)) {
            let mut sql = format!("INSERT INTO {name} VALUES ");
            for (i, row) in chunk.iter().enumerate() {
                if i > 0 {
                    sql.push_str(", ");
                }
                let vals: Vec<String> = row.values().iter().map(literal).collect();
                let _ = write!(sql, "({})", vals.join(", "));
            }
            script.push(sql);
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_round_trip_through_the_parser() {
        let server = perm_core::PermServer::new();
        let s = server.session();
        s.execute("CREATE TABLE t (a int, b float, c text, d bool)")
            .unwrap();
        let row = [
            Value::Int(-7),
            Value::Float(0.07),
            Value::text("it's"),
            Value::Bool(true),
        ];
        let vals: Vec<String> = row.iter().map(literal).collect();
        s.execute(&format!("INSERT INTO t VALUES ({})", vals.join(", ")))
            .unwrap();
        let back = s.query("SELECT a, b, c, d FROM t").unwrap();
        assert_eq!(back.row(0), &row);
    }
}
