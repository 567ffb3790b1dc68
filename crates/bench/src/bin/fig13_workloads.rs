//! Fig. 13 — switching / shifting workloads (pass --switching or
//! --shifting to run only one; default runs both).
fn main() {
    let (opts, rest) = adaptdb_bench::parse_args(&["--switching", "--shifting"]);
    let only_sw = rest.iter().any(|a| a == "--switching");
    let only_sh = rest.iter().any(|a| a == "--shifting");
    let (sw, sh) = if only_sw || only_sh { (only_sw, only_sh) } else { (true, true) };
    adaptdb_bench::figures::fig13_workloads(&opts, sw, sh);
}
