//! The workload seed fixes everything the program receives: the same seed
//! must give the same statement streams and the same data, and another
//! seed must change both.

use perfbench::checksum::catalog_checksum;
use perfbench::data::{self, DataSpec};
use perfbench::stmts::{self, PoolStream, WriteStream};

/// The first `n` statements `browse_small` sends for `seed`.
fn browse_stream(seed: u64, n: usize) -> Vec<String> {
    let pool = stmts::browse_pool(seed);
    PoolStream::new(seed, pool.len())
        .take(n)
        .map(|i| pool[i].sql.clone())
        .collect()
}

/// The first `n` statements `paper_overhead` sends for `seed`.
fn paper_stream(seed: u64, n: usize) -> Vec<String> {
    let all = stmts::paper_statements();
    stmts::round_robin(seed, all.len())
        .take(n)
        .map(|i| all[i].sql.clone())
        .collect()
}

/// The first `n` write cycles `server_mixed` runs for `seed`, as SQL.
fn write_stream(seed: u64, n: usize) -> Vec<String> {
    WriteStream::new(seed, 600)
        .take(n)
        .flat_map(|c| {
            let mut v = c.writes_before().to_vec();
            v.push(c.ryw().sql);
            v.extend(c.writes_after());
            v
        })
        .collect()
}

fn data_checksum(spec: &DataSpec, seed: u64) -> u64 {
    catalog_checksum(&data::generate(spec, seed))
}

#[test]
fn same_seed_gives_identical_statements_and_data() {
    for seed in [1, 42] {
        assert_eq!(browse_stream(seed, 500), browse_stream(seed, 500));
        assert_eq!(paper_stream(seed, 28), paper_stream(seed, 28));
        assert_eq!(write_stream(seed, 50), write_stream(seed, 50));
        for spec in [stmts::BROWSE_DATA, stmts::MIXED_DATA] {
            assert_eq!(data_checksum(&spec, seed), data_checksum(&spec, seed));
        }
    }
}

#[test]
fn another_seed_changes_statements_and_data() {
    assert_ne!(browse_stream(1, 500), browse_stream(2, 500));
    assert_ne!(write_stream(1, 50), write_stream(2, 50));
    // The overhead study's statements are fixed; the seed picks where the
    // round robin starts.
    let starts: std::collections::HashSet<String> = (0..8)
        .map(|seed| paper_stream(seed, 1)[0].clone())
        .collect();
    assert!(
        starts.len() > 1,
        "every seed starts the round robin at the same statement"
    );
    for spec in [stmts::BROWSE_DATA, stmts::MIXED_DATA] {
        assert_ne!(data_checksum(&spec, 1), data_checksum(&spec, 2));
    }
}

#[test]
fn load_script_reproduces_the_generated_data() {
    let spec = DataSpec {
        forum_scale: 60,
        tpch_lineitems: Some(120),
        hotpath_indexes: false,
        rows_per_insert: 7,
    };
    let generated = data::generate(&spec, 5);
    let server = perm_core::PermServer::new();
    let session = server.session();
    for sql in data::load_script(&generated, spec.rows_per_insert) {
        session.execute(&sql).unwrap();
    }
    assert_eq!(
        catalog_checksum(&server.snapshot()),
        catalog_checksum(&generated)
    );
}

#[test]
fn every_browse_template_is_in_the_pool() {
    let pool = stmts::browse_pool(3);
    for t in stmts::BROWSE_TEMPLATES {
        assert_eq!(
            pool.iter().filter(|s| s.template == t).count(),
            stmts::BROWSE_INSTANCES,
            "{t}"
        );
    }
}
