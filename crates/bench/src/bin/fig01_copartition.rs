//! Fig. 1 — shuffle vs co-partitioned join.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig01_copartition(&opts);
}
