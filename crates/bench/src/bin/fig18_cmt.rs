//! Fig. 18 — the CMT production trace across four systems.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig18_cmt(&opts);
}
