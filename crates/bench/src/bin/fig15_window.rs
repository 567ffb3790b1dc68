//! Fig. 15 — query-window size 5 vs 35.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig15_window(&opts);
}
