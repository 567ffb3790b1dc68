//! Fig. 17 — ILP vs approximate grouping.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig17_ilp(&opts);
}
