//! The prose quotes the tree, and the tree answers: every `figures`
//! name, `--test`/`--example`/`--bin` target, repo path and
//! `DESIGN §<id>` that README, DESIGN, EXPERIMENTS, the verify skill,
//! ROADMAP or CI names resolves, and every number in EXPERIMENTS.md's
//! per-figure tables is its `results-paper/*.csv` row at the precision
//! shown.

use pvfs_bench::FIGURES;
use std::fs;
use std::path::{Path, PathBuf};

/// The markdown files whose quotes are checked.
const PROSE: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    "ROADMAP.md",
];
/// CI's workflow: every line of it is a command.
const CI: &str = ".github/workflows/ci.yml";
/// A quoted path names a file of the repo when it starts with one of these.
const ROOTS: [&str; 11] = [
    "crates/",
    "src/",
    "tests/",
    "examples/",
    "scripts/",
    "vendor/",
    "perf/",
    "results/",
    "results-paper/",
    ".github/",
    ".claude/",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// What a markdown file quotes as code: its inline spans (which may
/// wrap a line) and each line of its fenced blocks.
fn quoted(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut prose = String::new();
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            out.push(line.to_string());
        } else {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    out.extend(prose.split('`').skip(1).step_by(2).map(str::to_string));
    out
}

/// Every quoted command line: the markdown files' code, and CI whole.
fn commands() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&str, String)> = PROSE
        .iter()
        .flat_map(|f| quoted(&read(f)).into_iter().map(move |q| (*f, q)))
        .collect();
    out.extend(read(CI).lines().map(|l| (CI, l.to_string())));
    out
}

/// The word after each `flag` in `text`, flags skipped.
fn operands<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| w[0] == flag && !w[1].starts_with('-'))
        .map(|w| w[1].trim_end_matches([',', ';', ')', '`', '\'', '"']))
        .collect()
}

/// Files that exist among `dir/<name><suffix>` for `dir` in `dirs`.
fn exists_in(dirs: &[&str], name: &str, suffixes: &[&str]) -> bool {
    let crates = fs::read_dir(root().join("crates")).unwrap();
    let mut bases: Vec<PathBuf> = crates.map(|c| c.unwrap().path()).collect();
    bases.push(root());
    bases.iter().any(|base| {
        dirs.iter().any(|d| {
            suffixes
                .iter()
                .any(|s| base.join(d).join(format!("{name}{s}")).exists())
        })
    })
}

/// A `[[bin]]` of a manifest that declares any, or a `src/bin/` file.
fn bin_exists(name: &str) -> bool {
    let declared = ["crates/bench/Cargo.toml", "perf/Cargo.toml"]
        .iter()
        .any(|toml| {
            let bins = read(toml);
            let named = format!("name = \"{name}\"");
            bins.split("[[bin]]")
                .skip(1)
                .any(|b| b.trim_start().starts_with(&named))
        });
    declared || exists_in(&["src/bin"], name, &[".rs"])
}

/// The figures a quoted command runs: the word after `figures` where
/// the quote opens with it, or after `--bin figures --`.
fn figure_names(text: &str) -> Vec<&str> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut names = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let name = match (*word, i.checked_sub(1).map(|j| words[j])) {
            ("figures", None) => words.get(1),
            ("figures", Some("--bin")) if words.get(i + 1) == Some(&"--") => words.get(i + 2),
            _ => None,
        };
        names.extend(
            name.filter(|n| !n.starts_with('-'))
                .map(|n| n.trim_end_matches(['`', ','])),
        );
    }
    names
}

#[test]
fn every_quoted_figure_and_target_exists() {
    let mut wrong = Vec::new();
    for (file, text) in commands() {
        for name in figure_names(&text) {
            if name != "all" && !FIGURES.contains(&name) {
                wrong.push(format!("{file}: `figures {name}`: no such figure"));
            }
        }
        for name in operands(&text, "--test") {
            if !exists_in(&["tests"], name, &[".rs", "/main.rs"]) {
                wrong.push(format!("{file}: `--test {name}`: no such test target"));
            }
        }
        for name in operands(&text, "--example") {
            if !exists_in(&["examples"], name, &[".rs"]) {
                wrong.push(format!("{file}: `--example {name}`: no such example"));
            }
        }
        for name in operands(&text, "--bin") {
            if !bin_exists(name) {
                wrong.push(format!("{file}: `--bin {name}`: no such binary"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// A quoted token as a repo path — punctuation, an item path
/// (`file.rs::name`) and a line number (`file.rs:12`) cut off — or
/// `None` for anything else and for a pattern (`*`, `<name>`, `{a,b}`).
fn as_path(token: &str) -> Option<&str> {
    let t = token.trim_start_matches(['(', '"', '\'']);
    let t = t.split("::").next()?;
    let t = t.split(':').next()?;
    let t = t.trim_end_matches([',', ';', '.', ')', '"', '\'']);
    let pattern = t.contains(['*', '<', '{']);
    (ROOTS.iter().any(|r| t.starts_with(r)) && !pattern).then_some(t)
}

#[test]
fn every_quoted_repo_path_exists() {
    let mut wrong = Vec::new();
    for file in PROSE {
        for text in quoted(&read(file)) {
            // A directory a command writes (`--out DIR`) need not exist yet.
            let written = operands(&text, "--out");
            let paths = text.split_whitespace().filter_map(as_path);
            for path in paths.filter(|p| !written.contains(p)) {
                if !root().join(path).exists() {
                    wrong.push(format!("{file}: `{path}` does not exist"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The section ids of DESIGN.md's headings: `### 4e. Title` is `4e`.
fn design_sections() -> Vec<String> {
    read("DESIGN.md")
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| l.trim_start_matches('#').split_whitespace().next())
        .map(|id| id.trim_end_matches('.').to_string())
        .filter(|id| id.starts_with(|c: char| c.is_ascii_digit()))
        .collect()
}

/// Each `DESIGN §<id>` (or `DESIGN.md §<id>`) in `text`, `<id>` a
/// number and at most one letter.
fn design_citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for cite in ["DESIGN §", "DESIGN.md §"] {
        for (at, _) in text.match_indices(cite) {
            let rest = &text[at + cite.len()..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let letter = rest[digits..].starts_with(|c: char| c.is_ascii_lowercase());
            if digits > 0 {
                out.push(rest[..digits + usize::from(letter)].to_string());
            }
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_design_section_cited_is_a_heading() {
    let sections = design_sections();
    let mut cited: Vec<(String, String)> = PROSE
        .iter()
        .chain([&CI])
        .map(|f| (f.to_string(), read(f)))
        .collect();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut sources);
    }
    for path in sources {
        let name = path.strip_prefix(root()).unwrap().display().to_string();
        cited.push((name, fs::read_to_string(&path).unwrap()));
    }
    let mut wrong = Vec::new();
    for (file, text) in cited {
        for id in design_citations(&text) {
            if !sections.contains(&id) {
                wrong.push(format!("{file}: DESIGN §{id} is no heading of DESIGN.md"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The workspace crates (`pvfs-` dropped) in a manifest's `[dependencies]`.
fn workspace_dependencies(manifest: &str) -> Vec<String> {
    let section = manifest.split("\n[dependencies]\n").nth(1).unwrap_or("");
    let section = section.split("\n[").next().unwrap();
    let mut deps: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("pvfs-"))
        .map(|l| l.split(['.', ' ', '=']).next().unwrap().to_string())
        .collect();
    deps.sort();
    deps
}

#[test]
fn design_lists_every_crate_with_its_dependencies() {
    let design = read("DESIGN.md");
    let inventory = design.split("\n## 3.").nth(1).unwrap();
    let inventory = inventory.split("\n## 4.").next().unwrap();
    let mut listed = Vec::new();
    let mut wrong = Vec::new();
    for row in inventory.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let name = cells[0].split('`').nth(1).unwrap();
        let manifest = match name {
            "pvfs" => "Cargo.toml".to_string(),
            crate_dir => format!("crates/{crate_dir}/Cargo.toml"),
        };
        let mut said: Vec<String> = cells[cells.len() - 1]
            .split(", ")
            .filter(|d| *d != "—")
            .map(str::to_string)
            .collect();
        said.sort();
        let actual = workspace_dependencies(&read(&manifest));
        if said != actual {
            wrong.push(format!(
                "{name}: DESIGN says {said:?}, {manifest} has {actual:?}"
            ));
        }
        listed.push(name.to_string());
    }
    let mut crates: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|c| c.unwrap().file_name().to_string_lossy().into_owned())
        .chain(["pvfs".to_string()])
        .collect();
    crates.sort();
    listed.sort();
    assert_eq!(listed, crates, "DESIGN §3 lists every workspace crate once");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// One row of a `results-paper/*.csv`.
struct CsvRow {
    panel: String,
    series: String,
    x: u64,
    seconds: f64,
    requests: u64,
}

fn csv(name: &str) -> Vec<CsvRow> {
    read(&format!("results-paper/{name}.csv"))
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            CsvRow {
                panel: f[1].to_string(),
                series: f[2].to_string(),
                x: f[3].parse().unwrap(),
                seconds: f[4].parse().unwrap(),
                requests: f[5].parse().unwrap(),
            }
        })
        .collect()
}

/// A table header's method name as the CSVs' series.
fn series(name: &str) -> String {
    match name {
        "Data sieving" => "Data Sieving I/O".to_string(),
        other => format!("{other} I/O"),
    }
}

/// `value` printed with as many decimals as `shown` has.
fn at_precision(value: f64, shown: &str) -> String {
    let decimals = shown.split_once('.').map_or(0, |(_, d)| d.len());
    format!("{value:.decimals$}")
}

/// Checks one table against `rows`: each row is keyed by its first
/// cell, an `x` or a panel (within `panel`, when the caption names
/// one), and a column is a method's seconds (`List`), its requests
/// (`List requests`) or the ratio of two methods' seconds
/// (`Multiple/List`, printed with `×`).
fn check_table(rows: &[CsvRow], panel: Option<&str>, table: &[&str], wrong: &mut Vec<String>) {
    let cells = |line: &str| -> Vec<String> {
        let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
        inner.split('|').map(|c| c.trim().to_string()).collect()
    };
    let header = cells(table[0]);
    for line in &table[2..] {
        let row = cells(line);
        if row.len() != header.len() {
            wrong.push(format!(
                "{line}: {} cells under {} columns",
                row.len(),
                header.len()
            ));
        }
        let key = row[0].replace(' ', "");
        let find = |name: &str| -> Option<&CsvRow> {
            let found: Vec<&CsvRow> = rows
                .iter()
                .filter(|r| r.series == series(name) && panel.is_none_or(|p| r.panel == p))
                .filter(|r| r.panel.replace(' ', "") == key || r.x.to_string() == key)
                .collect();
            (found.len() == 1).then(|| found[0])
        };
        for (column, shown) in header.iter().zip(&row).skip(1) {
            let cell = shown.replace([' ', '×'], "");
            let expected = if let Some(name) = column.strip_suffix(" requests") {
                find(name).map(|r| r.requests.to_string())
            } else if let Some((a, b)) = column.split_once('/') {
                find(a)
                    .zip(find(b))
                    .map(|(a, b)| at_precision(a.seconds / b.seconds, &cell))
            } else {
                find(column).map(|r| at_precision(r.seconds, &cell))
            };
            if expected.as_deref() != Some(cell.as_str()) {
                wrong.push(format!(
                    "{} / {column}: the table says {shown}, the CSV {expected:?}",
                    row[0]
                ));
            }
        }
    }
}

/// Every table in EXPERIMENTS.md under a caption naming
/// `results-paper/<figure>.csv` (and `panel `<panel>``, if one) is
/// checked, and every `## Fig.` section has one.
#[test]
fn experiments_figure_tables_are_the_paper_grid_csvs() {
    let text = read("EXPERIMENTS.md");
    let lines: Vec<&str> = text.lines().collect();
    let mut wrong = Vec::new();
    let mut heading = "";
    let mut caption: Option<(&str, Option<&str>)> = None;
    let mut checked = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if line.starts_with('#') {
            (heading, caption) = (line, None);
        } else if let Some((name, _)) = line
            .split_once("`results-paper/")
            .and_then(|(_, rest)| rest.split_once(".csv`"))
        {
            let panel = line
                .split_once("panel `")
                .map(|(_, p)| p.split('`').next().unwrap());
            caption = Some((name, panel));
        } else if line.starts_with('|') {
            let end = (i..lines.len())
                .find(|&j| !lines[j].starts_with('|'))
                .unwrap_or(lines.len());
            if let Some((name, panel)) = caption {
                check_table(&csv(name), panel, &lines[i..end], &mut wrong);
                checked.push(heading);
            }
            i = end;
            continue;
        }
        i += 1;
    }
    for figure in lines.iter().filter(|l| l.starts_with("## Fig. ")) {
        assert!(checked.contains(figure), "no checked table under {figure}");
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
