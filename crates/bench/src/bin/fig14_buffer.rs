//! Fig. 14 — effect of the hyper-join memory buffer.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig14_buffer(&opts);
}
