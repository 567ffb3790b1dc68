//! Fig. 16 — join levels per tree (pass --no-predicates for Fig. 16b;
//! default prints both).
fn main() {
    let (opts, rest) = adaptdb_bench::parse_args(&["--no-predicates"]);
    let only_b = rest.iter().any(|a| a == "--no-predicates");
    if !only_b {
        adaptdb_bench::figures::fig16_levels(&opts, true);
    }
    adaptdb_bench::figures::fig16_levels(&opts, false);
}
