//! Fig. 7 — map-job response time vs data locality.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig07_locality(&opts);
}
