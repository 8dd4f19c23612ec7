//! The size report: non-test lines per crate under `crates/`, and in total.
//!
//! A line counts when it is outside every `#[cfg(test)]` item, by the brace
//! rule the lints use ([`crate::lint::non_test_lines`]); blank and comment
//! lines count. A crate is a directory holding a `Cargo.toml` (the vendored
//! stand-ins under `crates/compat/` are crates of their own), and each `.rs`
//! file below it counts toward it.

use crate::lint::non_test_lines;
use std::path::Path;

/// `(crate, non-test lines)` for every crate under `root/crates`, sorted by
/// crate path (`compat/serde`, say).
pub fn per_crate(root: &Path) -> Vec<(String, usize)> {
    let mut crates = Vec::new();
    visit(&root.join("crates"), "", &mut crates);
    crates.sort();
    crates
}

/// Add the crates at or below `dir` (named `name` relative to `crates/`).
fn visit(dir: &Path, name: &str, crates: &mut Vec<(String, usize)>) {
    if dir.join("Cargo.toml").is_file() {
        crates.push((name.to_string(), count_rs(dir)));
        return;
    }
    for sub in subdirs(dir) {
        let sub_name = sub.file_name().map_or(String::new(), |n| {
            let n = n.to_string_lossy();
            if name.is_empty() {
                n.into_owned()
            } else {
                format!("{name}/{n}")
            }
        });
        visit(&sub, &sub_name, crates);
    }
}

/// Non-test lines of every `.rs` file at or below `dir`.
fn count_rs(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_rs(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            total += non_test_lines(&text).len();
        }
    }
    total
}

/// The directories directly inside `dir`, sorted.
fn subdirs(dir: &Path) -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_non_test_lines_per_crate_with_compat_crates_apart() {
        let dir = std::env::temp_dir().join("xtask-lines-test");
        let _ = std::fs::remove_dir_all(&dir);
        for sub in [
            "crates/a/src/bin",
            "crates/compat/shim/src",
            "crates/notacrate",
        ] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        for krate in ["crates/a", "crates/compat/shim"] {
            std::fs::write(dir.join(krate).join("Cargo.toml"), "[package]\n").unwrap();
        }
        // Three live lines, then a test module the brace rule skips.
        let lib = "pub fn f() {\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        std::fs::write(dir.join("crates/a/src/lib.rs"), lib).unwrap();
        std::fs::write(dir.join("crates/a/src/bin/main.rs"), "fn main() {}\n").unwrap();
        std::fs::write(dir.join("crates/a/src/notes.txt"), "not rust\n").unwrap();
        std::fs::write(dir.join("crates/compat/shim/src/lib.rs"), "pub fn g() {}\n").unwrap();
        std::fs::write(dir.join("crates/notacrate/x.rs"), "fn h() {}\n").unwrap();
        let counts = per_crate(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            counts,
            [("a".to_string(), 4), ("compat/shim".to_string(), 1)]
        );
    }
}
