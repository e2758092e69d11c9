//! Seeded statement streams of the three workloads.
//!
//! Every read statement carries its provenance-free counterpart (`plain`):
//! the traced run binds it without the rewriter to split binding time
//! into the binder's share and the rewrite's share.

use perm_bench::{QueryClass, TpchQuery};

use crate::data::DataSpec;
use crate::rng::SplitMix64;

/// One read statement: the SQL the workload sends and its provenance-free
/// counterpart (equal to `sql` for statements without provenance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Template the statement was drawn from; latency medians, overhead
    /// factors and the geometric mean are taken per template.
    pub template: &'static str,
    pub sql: String,
    pub plain: String,
}

impl Stmt {
    pub fn is_provenance(&self) -> bool {
        self.sql != self.plain
    }
}

// --------------------------------------------------------------------
// browse_small
// --------------------------------------------------------------------

/// `browse_small` data: forum scale 200 plus TPC-H-lite with 1000
/// lineitems, loaded 50 rows per `INSERT`.
pub const BROWSE_DATA: DataSpec = DataSpec {
    forum_scale: 200,
    tpch_lineitems: Some(1000),
    hotpath_indexes: false,
    rows_per_insert: 50,
};

/// Distinct literal draws per `browse_small` template.
pub const BROWSE_INSTANCES: usize = 16;

/// Every `browse_small` template name, in pool order.
pub const BROWSE_TEMPLATES: [&str; 14] = [
    "spj",
    "agg",
    "setop",
    "nested",
    "tpch_q1",
    "tpch_q3",
    "tpch_q4",
    "sec24_influence",
    "sec24_query_provenance",
    "sec24_baserelation",
    "copy_partial",
    "copy_complete",
    "lineage",
    "view_v1",
];

/// One `browse_small` statement of template `t` with literals from `rng`.
/// Literal ranges follow the data: forum message ids `0..200`, import ids
/// `200..300`, user ids `0..20`; TPC-H-lite dates `0..120`.
fn browse_statement(t: &'static str, rng: &mut SplitMix64) -> Stmt {
    let prov = |semantics: &str, rest: &str| {
        (
            format!("SELECT PROVENANCE {semantics}{rest}"),
            format!("SELECT {rest}"),
        )
    };
    let (sql, plain) = match t {
        "spj" => {
            let k = rng.range(2, 9);
            let r = rng.range(0, k);
            prov(
                "",
                &format!(
                    "m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
                     WHERE m.mid % {k} = {r}"
                ),
            )
        }
        "agg" => prov(
            "",
            &format!(
                "a.mid, count(*) FROM messages m JOIN approved a ON m.mid = a.mid \
                 WHERE a.mid < {} GROUP BY a.mid",
                rng.range(20, 200)
            ),
        ),
        "setop" => {
            let x = rng.range(20, 200);
            let y = rng.range(200, 300);
            prov(
                "",
                &format!(
                    "mid, text FROM messages WHERE mid < {x} \
                     UNION SELECT mid, text FROM imports WHERE mid > {y}"
                ),
            )
        }
        "nested" => prov(
            "",
            &format!(
                "text FROM messages WHERE mid IN (SELECT mid FROM approved WHERE uid < {})",
                rng.range(2, 20)
            ),
        ),
        "tpch_q1" => prov(
            "",
            &format!(
                "returnflag, count(*), sum(extendedprice), avg(discount) FROM lineitem \
                 WHERE shipdate <= {} GROUP BY returnflag",
                rng.range(10, 120)
            ),
        ),
        "tpch_q3" => {
            let seg = ["BUILDING", "AUTOMOBILE", "MACHINERY"][rng.index(3)];
            prov(
                "",
                &format!(
                    "o.okey, sum(l.extendedprice), o.odate FROM customer c \
                     JOIN orders o ON c.ckey = o.ckey JOIN lineitem l ON o.okey = l.okey \
                     WHERE c.segment = '{seg}' AND o.odate < {} GROUP BY o.okey, o.odate",
                    rng.range(10, 100)
                ),
            )
        }
        "tpch_q4" => prov(
            "",
            &format!(
                "o.priority, count(*) FROM orders o WHERE o.odate < {} AND o.okey IN \
                 (SELECT okey FROM lineitem WHERE commitdate < receiptdate) GROUP BY o.priority",
                rng.range(10, 100)
            ),
        ),
        "sec24_influence" => prov(
            "ON CONTRIBUTION (INFLUENCE) ",
            &format!(
                "count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
                 WHERE a.uid <> {} GROUP BY v1.mId",
                rng.range(0, 20)
            ),
        ),
        "sec24_query_provenance" => {
            let c = rng.range(0, 3);
            let m = rng.range(20, 200);
            (
                format!(
                    "SELECT text, prov_public_messages_mid FROM \
                     (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
                      GROUP BY v1.mId) AS prov \
                     WHERE count > {c} AND prov_public_messages_mid < {m}"
                ),
                format!(
                    "SELECT text FROM \
                     (SELECT count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
                      GROUP BY v1.mId) AS prov \
                     WHERE count > {c}"
                ),
            )
        }
        "sec24_baserelation" => {
            let x = rng.range(0, 300);
            (
                format!("SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > {x}"),
                format!("SELECT text FROM v1 WHERE mid > {x}"),
            )
        }
        "copy_partial" => prov(
            "ON CONTRIBUTION (COPY PARTIAL) ",
            &format!(
                "m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE u.uid < {}",
                rng.range(2, 20)
            ),
        ),
        "copy_complete" => prov(
            "ON CONTRIBUTION (COPY COMPLETE) ",
            &format!(
                "m.mid, m.text FROM messages m JOIN approved a ON m.mid = a.mid \
                 WHERE a.uid < {}",
                rng.range(2, 20)
            ),
        ),
        "lineage" => {
            let k = rng.range(2, 9);
            let r = rng.range(0, k);
            prov(
                "ON CONTRIBUTION (LINEAGE) ",
                &format!("mid, text FROM v1 WHERE mid % {k} = {r}"),
            )
        }
        "view_v1" => {
            let k = rng.range(2, 9);
            let r = rng.range(0, k);
            prov("", &format!("mid, text FROM v1 WHERE mid % {k} = {r}"))
        }
        other => unreachable!("unknown browse_small template {other}"),
    };
    Stmt {
        template: t,
        sql,
        plain,
    }
}

/// The `browse_small` statement pool: [`BROWSE_INSTANCES`] seeded draws
/// of every template. Draws may repeat a literal; the pool keeps repeats,
/// as a real browsing session would.
pub fn browse_pool(seed: u64) -> Vec<Stmt> {
    let mut rng = SplitMix64::new(seed ^ 0xB0B5);
    let mut pool = Vec::with_capacity(BROWSE_TEMPLATES.len() * BROWSE_INSTANCES);
    for _ in 0..BROWSE_INSTANCES {
        for t in BROWSE_TEMPLATES {
            pool.push(browse_statement(t, &mut rng));
        }
    }
    pool
}

/// The order in which `browse_small` sends pool statements: uniform
/// seeded draws.
#[derive(Debug, Clone)]
pub struct PoolStream {
    rng: SplitMix64,
    len: usize,
}

impl PoolStream {
    pub fn new(seed: u64, len: usize) -> PoolStream {
        PoolStream {
            rng: SplitMix64::new(seed ^ 0x57EA),
            len,
        }
    }
}

impl Iterator for PoolStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(self.rng.index(self.len))
    }
}

// --------------------------------------------------------------------
// paper_overhead
// --------------------------------------------------------------------

/// `paper_overhead` data: forum scale 10000 (approved = 20000 rows, above
/// the 10k-row parallel threshold) plus TPC-H-lite with 10000 lineitems,
/// loaded 200 rows per `INSERT`.
pub const PAPER_DATA: DataSpec = DataSpec {
    forum_scale: 10_000,
    tpch_lineitems: Some(10_000),
    hotpath_indexes: false,
    rows_per_insert: 200,
};

/// The overhead study's fourteen statements: q and q+ of each query
/// class and TPC-H-lite query, q before q+.
pub fn paper_statements() -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut pair = |names: [&'static str; 2], q: &str, qp: String| {
        out.push(Stmt {
            template: names[0],
            sql: q.to_string(),
            plain: q.to_string(),
        });
        out.push(Stmt {
            template: names[1],
            sql: qp,
            plain: q.to_string(),
        });
    };
    for class in QueryClass::ALL {
        let names = match class {
            QueryClass::Spj => ["spj.q", "spj.q+"],
            QueryClass::Aggregation => ["agg.q", "agg.q+"],
            QueryClass::SetOperation => ["setop.q", "setop.q+"],
            QueryClass::Nested => ["nested.q", "nested.q+"],
        };
        pair(names, class.original_sql(), class.provenance_sql());
    }
    for q in TpchQuery::ALL {
        let names = match q {
            TpchQuery::PricingSummary => ["tpch_q1.q", "tpch_q1.q+"],
            TpchQuery::ShippingPriority => ["tpch_q3.q", "tpch_q3.q+"],
            TpchQuery::OrderPriority => ["tpch_q4.q", "tpch_q4.q+"],
        };
        pair(names, q.original_sql(), q.provenance_sql());
    }
    out
}

/// Round-robin over `len` statements from a seeded starting point.
pub fn round_robin(seed: u64, len: usize) -> impl Iterator<Item = usize> {
    let start = (SplitMix64::new(seed ^ 0x0E4D).next_u64() % len as u64) as usize;
    (0..).map(move |i| (start + i) % len)
}

// --------------------------------------------------------------------
// server_mixed
// --------------------------------------------------------------------

/// `server_mixed` data: forum scale 6000 (approved = 12000 rows, above the
/// parallel threshold) with the hot-path indexes, loaded 200 rows per
/// `INSERT`.
pub const MIXED_DATA: DataSpec = DataSpec {
    forum_scale: 6000,
    tpch_lineitems: None,
    hotpath_indexes: true,
    rows_per_insert: 200,
};

/// Client A's prepared reads: the five `provenance_join` queries.
pub fn mixed_prepared() -> Vec<Stmt> {
    perm_bench::hotpath::provenance_join_queries()
        .into_iter()
        .map(|(name, sql)| Stmt {
            template: name,
            plain: sql.replacen("SELECT PROVENANCE ", "SELECT ", 1),
            sql,
        })
        .collect()
}

/// Template name of client A's streamed first page.
pub const STREAM_TEMPLATE: &str = "stream_first_page";
/// Rows client A pulls from the stream.
pub const STREAM_PAGE: usize = 20;

/// Client A's streamed first page: a provenance scan of `approved` with a
/// seeded predicate and `LIMIT 20`.
pub fn mixed_stream_statement(rng: &mut SplitMix64) -> Stmt {
    let rest = format!(
        "uid, mid FROM approved WHERE uid <> {} LIMIT {STREAM_PAGE}",
        rng.range(0, 600)
    );
    Stmt {
        template: STREAM_TEMPLATE,
        sql: format!("SELECT PROVENANCE {rest}"),
        plain: format!("SELECT {rest}"),
    }
}

/// Message ids client B inserts start here, far above generated ids.
pub const WRITE_MID_BASE: i64 = 10_000_000;

/// One cycle of client B: insert a message and an approval of it, rename
/// a user, read the new message back with provenance, then delete both
/// inserted rows so table sizes stay constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCycle {
    pub mid: i64,
    pub author: i64,
    pub approver: i64,
    pub text: String,
    pub renamed_uid: i64,
    pub new_name: String,
    /// Which read-your-writes query this cycle runs (alternates).
    pub ryw_join: bool,
}

impl WriteCycle {
    /// The writes before the read, in order.
    pub fn writes_before(&self) -> [String; 3] {
        [
            format!(
                "INSERT INTO messages VALUES ({}, '{}', {})",
                self.mid, self.text, self.author
            ),
            format!(
                "INSERT INTO approved VALUES ({}, {})",
                self.approver, self.mid
            ),
            format!(
                "UPDATE users SET name = '{}' WHERE uid = {}",
                self.new_name, self.renamed_uid
            ),
        ]
    }

    /// The read-your-writes provenance query.
    pub fn ryw(&self) -> Stmt {
        if self.ryw_join {
            let rest = format!(
                "m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid = {}",
                self.mid
            );
            Stmt {
                template: "ryw_join",
                sql: format!("SELECT PROVENANCE {rest}"),
                plain: format!("SELECT {rest}"),
            }
        } else {
            let rest = format!(
                "a.mid, count(*) FROM messages m JOIN approved a ON m.mid = a.mid \
                 WHERE a.mid = {} GROUP BY a.mid",
                self.mid
            );
            Stmt {
                template: "ryw_agg",
                sql: format!("SELECT PROVENANCE {rest}"),
                plain: format!("SELECT {rest}"),
            }
        }
    }

    /// The writes after the read, in order.
    pub fn writes_after(&self) -> [String; 2] {
        [
            format!("DELETE FROM approved WHERE mid = {}", self.mid),
            format!("DELETE FROM messages WHERE mid = {}", self.mid),
        ]
    }
}

/// Client B's seeded cycles over a forum with `users` users.
#[derive(Debug, Clone)]
pub struct WriteStream {
    rng: SplitMix64,
    users: u64,
    cycle: i64,
}

impl WriteStream {
    pub fn new(seed: u64, users: usize) -> WriteStream {
        WriteStream {
            rng: SplitMix64::new(seed ^ 0x3817),
            users: users as u64,
            cycle: 0,
        }
    }
}

impl Iterator for WriteStream {
    type Item = WriteCycle;

    fn next(&mut self) -> Option<WriteCycle> {
        let n = self.cycle;
        self.cycle += 1;
        Some(WriteCycle {
            mid: WRITE_MID_BASE + n,
            author: self.rng.range(0, self.users) as i64,
            approver: self.rng.range(0, self.users) as i64,
            text: format!("posted {n} #{}", self.rng.range(0, 1_000_000)),
            renamed_uid: self.rng.range(0, self.users) as i64,
            new_name: format!("renamed {n}"),
            ryw_join: n % 2 == 0,
        })
    }
}
