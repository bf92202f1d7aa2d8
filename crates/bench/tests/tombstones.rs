//! What the tree must not hold again, and the clippy rules that hold
//! the rest: every row of `tombstones.txt` (its head says how to read
//! one) finds nothing, however the line spells a name — renamed by a
//! `use … as` or reached by a path — and every crate that replaces the
//! root `clippy.toml` with its own keeps all of the root's rules.

mod repo;

use repo::{read, root, rows, TABLE};
use std::fs;
use std::path::Path;

/// Every file of the repo, repo-relative, but under `target` and dot
/// directories.
fn files(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            files(&path, out);
        } else if path.is_file() {
            let rel = path.strip_prefix(root()).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Whether the repo-relative `path` starts as `glob` does, `*` standing
/// for any run of characters.
fn under<'a>(path: &'a str, glob: &str) -> bool {
    let mut parts = glob.split('*');
    let rest = path.strip_prefix(parts.next().unwrap());
    let after = |rest: &'a str, part: &str| rest.find(part).map(|at| &rest[at + part.len()..]);
    rest.and_then(|rest| parts.try_fold(rest, after)).is_some()
}

/// The numbered lines of the file `path` a row reads (`tombstones.txt`).
fn lines<'a>(path: &str, text: &'a str, scope: &str) -> Vec<(usize, &'a str)> {
    let numbered = text.lines().enumerate().map(|(n, line)| (n + 1, line));
    if scope == "all" {
        return numbered.collect();
    }
    let test = |line: &str| line.starts_with("#[cfg(test)]") || line.starts_with("#![cfg(test)]");
    let comment = |line: &str| scope == "code" && line.trim_start().starts_with("//");
    numbered
        .take_while(|(_, line)| !test(line) && !path.ends_with("/tests.rs"))
        .filter(|(_, line)| !comment(line))
        .collect()
}

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The `use … as` renames of a file's text, `(alias, name)`, from its
/// `use` items, one line or many.
fn renames(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        let item = line
            .trim_start()
            .trim_start_matches("pub ")
            .trim_start_matches("pub(crate) ");
        inside |= item.starts_with("use ");
        if !inside {
            continue;
        }
        for (at, _) in line.match_indices(" as ") {
            let name = line[..at].rsplit(|c| !ident(c)).next().unwrap();
            let alias = line[at + 4..].split(|c| !ident(c)).next().unwrap();
            if !name.is_empty() && !alias.is_empty() {
                out.push((alias, name));
            }
        }
        inside &= !line.contains(';');
    }
    out
}

/// The spellings of `line` a row checks: as written, with each renamed
/// identifier back to its name, and that again with every path
/// qualifier (`a::b::`) dropped — `Arc<pvfs_types::PieceMap>` and, after
/// `use pvfs_types::PieceMap as Map;`, `Arc<Map>` both read
/// `Arc<PieceMap>`.
fn spellings(line: &str, renames: &[(&str, &str)]) -> [String; 3] {
    let mut named = String::new();
    let mut word = String::new();
    for c in line.chars().map(Some).chain([None]) {
        if let Some(c) = c.filter(|c| ident(*c)) {
            word.push(c);
            continue;
        }
        let rename = renames.iter().find(|(alias, _)| *alias == word);
        named.push_str(rename.map_or(word.as_str(), |(_, name)| name));
        named.extend(c);
        word.clear();
    }
    let mut bare = String::new();
    let mut rest = named.as_str();
    while let Some(at) = rest.find("::") {
        bare.push_str(rest[..at].trim_end_matches(ident));
        rest = &rest[at + 2..];
    }
    bare.push_str(rest);
    [line.to_string(), named, bare]
}

/// Whether `line` holds `pattern`, case ignored; a `\b` at an end of the
/// pattern asks for a word boundary there.
fn holds(line: &str, pattern: &str) -> bool {
    let (line, pattern) = (line.to_lowercase(), pattern.to_lowercase());
    let word = pattern.trim_start_matches("\\b").trim_end_matches("\\b");
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        (!pattern.starts_with("\\b") || !ident(line[..at].chars().next_back()))
            && (!pattern.ends_with("\\b") || !ident(line[at + word.len()..].chars().next()))
    })
}

#[test]
fn no_tombstone_is_dug_up() {
    let table = read(TABLE);
    let mut all = Vec::new();
    files(&root(), &mut all);
    let mut wrong = Vec::new();
    for [name, scope, patterns, paths, _reason] in rows(&table) {
        assert!(
            matches!(scope, "all" | "program" | "code"),
            "{name}: {scope}"
        );
        let globs: Vec<&str> = paths.split(", ").collect();
        let matched = all
            .iter()
            .filter(|f| *f != TABLE && globs.iter().any(|g| under(f, g)));
        if patterns == "—" {
            wrong.extend(matched.map(|file| format!("{file}: {name}")));
            continue;
        }
        let (exempt, banned): (Vec<&str>, Vec<&str>) =
            patterns.split(", ").partition(|p| p.starts_with('!'));
        let exempt: Vec<(&str, &str)> = exempt
            .iter()
            .map(|p| p[1..].split_once(':').expect("!file:text"))
            .inspect(|(file, _)| assert!(root().join(file).is_file(), "{name}: no {file}"))
            .collect();
        let mut read_any = false;
        for file in matched {
            let Ok(text) = fs::read_to_string(root().join(file)) else {
                continue;
            };
            read_any = true;
            let renames = renames(&text);
            for (n, line) in lines(file, &text, scope) {
                let forms = spellings(line, &renames);
                let hit = banned.iter().find(|p| forms.iter().any(|f| holds(f, p)));
                if hit.is_some() && !exempt.iter().any(|&(f, p)| f == file && holds(line, p)) {
                    wrong.push(format!("{file}:{n}: {line}\n    ({name}: {hit:?})"));
                }
            }
        }
        assert!(read_any, "{name}: its paths name no file to check");
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The `path = "…"` entries of a `clippy.toml`.
fn rules(toml: &str) -> Vec<&str> {
    let quoted = toml.split("path = \"").skip(1);
    quoted.map(|rest| rest.split('"').next().unwrap()).collect()
}

#[test]
fn every_crate_clippy_toml_keeps_the_roots_rules() {
    let root_toml = read("clippy.toml");
    let mut all = Vec::new();
    files(&root(), &mut all);
    let crate_tomls: Vec<&String> = all.iter().filter(|f| f.ends_with("/clippy.toml")).collect();
    assert!(!crate_tomls.is_empty(), "crates/decide has a clippy.toml");
    for file in crate_tomls {
        let text = read(file);
        let lost: Vec<&str> = rules(&root_toml)
            .into_iter()
            .filter(|rule| !rules(&text).contains(rule))
            .collect();
        assert!(lost.is_empty(), "{file} lacks the root's {lost:?}");
    }
}
