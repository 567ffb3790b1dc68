//! Fig. 8 — shuffle-join running time vs dataset size.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    adaptdb_bench::figures::fig08_dataset_size(&opts);
}
