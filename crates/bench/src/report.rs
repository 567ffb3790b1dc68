//! One writer for every `BENCH_*.json`. A figure describes each cell
//! once, field by field: its name, its JSON literal at the figure's
//! precision, and whether it is wall-clock. The printed tables and the
//! JSON file both come from that description, and the file declares
//! its wall-clock fields under `"wall_clock"` so that
//! `scripts/check_bench.py` can diff every other value exactly.

use std::fmt::Display;

use crate::{print_table, BenchOpts};

/// One field of a cell.
struct Field {
    name: &'static str,
    json: String,
    /// Machine-dependent: never compared with a baseline.
    wall: bool,
}

/// One cell: a JSON object whose fields keep the order they were added.
#[derive(Default)]
pub struct Fields(Vec<Field>);

impl Fields {
    /// The fields every report opens with: the figure's name, scale
    /// and seed.
    pub fn header(bench: &str, opts: &BenchOpts) -> Self {
        Fields::default().text("bench", bench).lit("scale", opts.scale).lit("seed", opts.seed)
    }

    fn push(mut self, name: &'static str, json: String, wall: bool) -> Self {
        self.0.push(Field { name, json, wall });
        self
    }

    /// A value whose `Display` is its JSON literal: an integer, a
    /// boolean, or a float at shortest round-trip precision.
    pub fn lit(self, name: &'static str, v: impl Display) -> Self {
        self.push(name, v.to_string(), false)
    }

    /// A float at `decimals` places.
    pub fn fixed(self, name: &'static str, x: f64, decimals: usize) -> Self {
        self.push(name, format!("{x:.decimals$}"), false)
    }

    /// A wall-clock float at `decimals` places.
    pub fn wall(self, name: &'static str, x: f64, decimals: usize) -> Self {
        self.push(name, format!("{x:.decimals$}"), true)
    }

    /// A string; it must need no JSON escaping.
    pub fn text(self, name: &'static str, s: &str) -> Self {
        assert!(!s.contains(['"', '\\']), "{name}: {s:?} needs escaping");
        self.push(name, format!("\"{s}\""), false)
    }

    /// A value that may be absent (`null`).
    pub fn opt(self, name: &'static str, v: Option<impl Display>) -> Self {
        self.push(name, v.map_or("null".to_string(), |v| v.to_string()), false)
    }

    fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|f| format!("\"{}\": {}", f.name, f.json)).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

enum Section {
    Table { title: String, rows: Vec<Fields> },
    Object(Report),
}

/// A figure's whole output: header fields, then titled tables of
/// cells and nested objects, in the order they were added.
pub struct Report {
    head: Fields,
    sections: Vec<(&'static str, Section)>,
    /// Every value depends on the machine and the run's flags.
    all_wall: bool,
}

impl Report {
    /// A report (or nested object) that opens with `head`'s fields.
    pub fn new(head: Fields) -> Self {
        Report { head, sections: Vec::new(), all_wall: false }
    }

    /// A list of cells under `key`, printed as a table titled `title`.
    pub fn table(mut self, key: &'static str, title: impl Into<String>, rows: Vec<Fields>) -> Self {
        self.sections.push((key, Section::Table { title: title.into(), rows }));
        self
    }

    /// A nested object under `key`.
    pub fn object(mut self, key: &'static str, obj: Report) -> Self {
        self.sections.push((key, Section::Object(obj)));
        self
    }

    /// Declare every value wall-clock, so that only the key structure
    /// is comparable between runs (declared as `"wall_clock": ["*"]`).
    pub fn all_wall_clock(mut self) -> Self {
        self.all_wall = true;
        self
    }

    /// Print every table, nested ones included.
    pub fn print(&self) {
        for (_, section) in &self.sections {
            match section {
                Section::Table { title, rows } => {
                    let headers: Vec<&str> =
                        rows.first().map_or(vec![], |r| r.0.iter().map(|f| f.name).collect());
                    let cells: Vec<Vec<String>> = rows
                        .iter()
                        .map(|r| r.0.iter().map(|f| f.json.trim_matches('"').to_string()).collect())
                        .collect();
                    print_table(title, &headers, &cells);
                }
                Section::Object(obj) => obj.print(),
            }
        }
    }

    /// The JSON text: one line per header field, one line per cell.
    pub fn render(&self) -> String {
        let mut entries = self.entries("  ");
        let mut wall = Vec::new();
        if self.all_wall {
            wall.push("*");
        } else {
            self.wall_fields(&mut wall);
        }
        if !wall.is_empty() {
            let names: Vec<String> = wall.iter().map(|n| format!("\"{n}\"")).collect();
            entries.push(format!("  \"wall_clock\": [{}]", names.join(", ")));
        }
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }

    /// Write [`Report::render`] to `path`.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    fn entries(&self, pad: &str) -> Vec<String> {
        let mut out: Vec<String> =
            self.head.0.iter().map(|f| format!("{pad}\"{}\": {}", f.name, f.json)).collect();
        for (key, section) in &self.sections {
            out.push(match section {
                Section::Table { rows, .. } => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("{pad}  {}", r.render())).collect();
                    format!("{pad}\"{key}\": [\n{}\n{pad}]", rows.join(",\n"))
                }
                Section::Object(obj) => {
                    let inner = obj.entries(&format!("{pad}  "));
                    format!("{pad}\"{key}\": {{\n{}\n{pad}}}", inner.join(",\n"))
                }
            });
        }
        out
    }

    /// Add the names of this report's wall-clock fields to `names`,
    /// each once: the header's, the tables', then nested objects'.
    fn wall_fields(&self, names: &mut Vec<&'static str>) {
        let rows = self.sections.iter().flat_map(|(_, s)| match s {
            Section::Table { rows, .. } => rows.as_slice(),
            Section::Object(_) => &[],
        });
        for f in std::iter::once(&self.head).chain(rows).flat_map(|r| &r.0) {
            if f.wall && !names.contains(&f.name) {
                names.push(f.name);
            }
        }
        for (_, section) in &self.sections {
            if let Section::Object(obj) = section {
                obj.wall_fields(names);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SKEW_COUNTERS: [&str; 10] = [
        "input_blocks",
        "spill_blocks",
        "build_spill_blocks",
        "broadcast_fetches",
        "local_fetches",
        "remote_fetches",
        "split_partitions",
        "peak_mem_blocks",
        "max_recursion_depth",
        "rows_out",
    ];

    /// A skew cell described the way `fig_skew` describes it.
    fn skew_row(budget: Option<usize>, split: bool, counts: [usize; 10], secs: [f64; 5]) -> Fields {
        let mut row =
            Fields::default().fixed("s", 1.2, 1).opt("budget", budget).lit("split", split);
        for (name, n) in SKEW_COUNTERS.into_iter().zip(counts) {
            row = row.lit(name, n);
        }
        let [p99, max, mean, cost, sim] = secs;
        row.fixed("p99_task_secs", p99, 6)
            .fixed("max_task_secs", max, 6)
            .fixed("mean_task_secs", mean, 6)
            .fixed("cost_per_block", cost, 4)
            .fixed("sim_secs", sim, 4)
    }

    #[test]
    fn two_cells_render_as_the_committed_skew_rows() {
        let opts = BenchOpts::default();
        let rows = vec![
            skew_row(
                Some(4),
                true,
                [40, 60, 16, 8, 15, 45, 1, 4, 1, 63597],
                [3.16, 3.16, 2.315625, 5.0, 23.275],
            ),
            skew_row(
                None,
                false,
                [40, 60, 0, 0, 15, 45, 0, 5, 0, 63597],
                [2.575, 2.575, 1.93125, 4.0, 18.725],
            ),
        ];
        let report = Report::new(Fields::header("skew", &opts).lit("rows_per_block", 100)).table(
            "cells",
            "two skew cells",
            rows,
        );
        let want_rows = [
            r#"{"s": 1.2, "budget": 4, "split": true, "input_blocks": 40, "spill_blocks": 60, "build_spill_blocks": 16, "broadcast_fetches": 8, "local_fetches": 15, "remote_fetches": 45, "split_partitions": 1, "peak_mem_blocks": 4, "max_recursion_depth": 1, "rows_out": 63597, "p99_task_secs": 3.160000, "max_task_secs": 3.160000, "mean_task_secs": 2.315625, "cost_per_block": 5.0000, "sim_secs": 23.2750}"#,
            r#"{"s": 1.2, "budget": null, "split": false, "input_blocks": 40, "spill_blocks": 60, "build_spill_blocks": 0, "broadcast_fetches": 0, "local_fetches": 15, "remote_fetches": 45, "split_partitions": 0, "peak_mem_blocks": 5, "max_recursion_depth": 0, "rows_out": 63597, "p99_task_secs": 2.575000, "max_task_secs": 2.575000, "mean_task_secs": 1.931250, "cost_per_block": 4.0000, "sim_secs": 18.7250}"#,
        ];
        let committed = include_str!("../../../BENCH_skew.json");
        for row in want_rows {
            assert!(committed.contains(row), "not a committed BENCH_skew.json row: {row}");
        }
        let want = format!(
            "{{\n  \"bench\": \"skew\",\n  \"scale\": 0.2,\n  \"seed\": 42,\n  \
             \"rows_per_block\": 100,\n  \"cells\": [\n    {},\n    {}\n  ]\n}}\n",
            want_rows[0], want_rows[1]
        );
        assert_eq!(report.render(), want);
    }

    #[test]
    fn wall_fields_are_declared_once_and_nested_objects_indent() {
        let cell = |ms: f64| Fields::default().lit("n", 1).wall("wall_ms", ms, 3);
        let inner = Report::new(Fields::default().lit("workers", 2)).table(
            "lanes",
            "lanes",
            vec![cell(1.0)],
        );
        let report = Report::new(Fields::default().text("bench", "x").wall("speedup", 2.0, 2))
            .table("cells", "cells", vec![cell(1.0), cell(2.0)])
            .object("mixed", inner);
        assert_eq!(
            report.render(),
            "{\n  \"bench\": \"x\",\n  \"speedup\": 2.00,\n  \"cells\": [\n    \
             {\"n\": 1, \"wall_ms\": 1.000},\n    {\"n\": 1, \"wall_ms\": 2.000}\n  ],\n  \
             \"mixed\": {\n    \"workers\": 2,\n    \"lanes\": [\n      \
             {\"n\": 1, \"wall_ms\": 1.000}\n    ]\n  },\n  \
             \"wall_clock\": [\"speedup\", \"wall_ms\"]\n}\n"
        );
        let all = Report::new(Fields::default().lit("n", 1)).all_wall_clock();
        assert_eq!(all.render(), "{\n  \"n\": 1,\n  \"wall_clock\": [\"*\"]\n}\n");
    }
}
