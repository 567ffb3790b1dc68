//! Fig. 12 — four systems across seven TPC-H templates.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig12_tpch(&opts);
}
