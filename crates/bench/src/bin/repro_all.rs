//! Run every figure in sequence — the full evaluation reproduction.
//! `--quick` shrinks sweeps for a fast smoke pass.
fn main() {
    let (opts, _) = adaptdb_bench::parse_args(&[]);
    println!("# AdaptDB reproduction — all figures (scale {}, seed {})", opts.scale, opts.seed);
    adaptdb_bench::figures::fig01_copartition(&opts);
    adaptdb_bench::figures::fig07_locality(&opts);
    adaptdb_bench::figures::fig08_dataset_size(&opts);
    adaptdb_bench::figures::fig12_tpch(&opts);
    adaptdb_bench::figures::fig13_workloads(&opts, true, true);
    adaptdb_bench::figures::fig14_buffer(&opts);
    adaptdb_bench::figures::fig15_window(&opts);
    adaptdb_bench::figures::fig16_levels(&opts, true);
    adaptdb_bench::figures::fig16_levels(&opts, false);
    adaptdb_bench::figures::fig17_ilp(&opts);
    adaptdb_bench::figures::fig18_cmt(&opts);
    println!("\nAll figures complete.");
}
