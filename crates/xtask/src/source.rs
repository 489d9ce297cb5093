//! Source loading: files, crates, and the parsed workspace.
//!
//! Every file is lexed and parsed exactly once at load time; passes run as
//! visitors over the shared result ([`SourceFile::trees`] for token-level
//! scans, [`SourceFile::items`] and the workspace [`ast::index::Index`]
//! for item- and call-graph-level analysis). `#[cfg(test)]` items are
//! stripped from both views, and comment/string contents never survive
//! lexing, so no pass can fire on prose or test code. Escape-hatch markers
//! (`lint:allow(...)`) are read from the raw text, since they live in
//! comments.

use std::fs;
use std::path::Path;

use crate::ast::{self, index::Index, items::FileItems, tree::Tree};

/// One source file: raw text plus the parsed, test-stripped AST.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative display path.
    pub path: String,
    /// Original text, `#[cfg(test)]` items included (read for `lint:allow`
    /// markers and for the names of pinning tests).
    pub raw: String,
    /// Token-tree forest with `#[cfg(test)]` items removed.
    pub trees: Vec<Tree>,
    /// Items parsed from `trees`.
    pub items: FileItems,
}

impl SourceFile {
    /// Builds a file from in-memory contents (used by fixture tests).
    #[must_use]
    pub fn from_contents(path: &str, raw: &str) -> Self {
        let trees = ast::index::strip_test_items(&ast::tree::build(&ast::lex::lex(raw)));
        let items = ast::items::parse(&trees);
        SourceFile {
            path: path.to_string(),
            raw: raw.to_string(),
            trees,
            items,
        }
    }

    /// Whether a `lint:allow(name)` marker covers `line` (0-based).
    ///
    /// A marker counts if it appears on the line itself or anywhere in the
    /// contiguous run of `//` comment lines immediately above it.
    #[must_use]
    pub fn is_allowed(&self, line: usize, name: &str) -> bool {
        let needle = format!("lint:allow({name})");
        let lines: Vec<&str> = self.raw.lines().collect();
        let has = |i: usize| lines.get(i).is_some_and(|l| l.contains(&needle));
        if has(line) {
            return true;
        }
        let mut i = line;
        while i > 0 {
            i -= 1;
            let trimmed = lines.get(i).map_or("", |l| l.trim_start());
            if !trimmed.starts_with("//") {
                return false;
            }
            if has(i) {
                return true;
            }
        }
        false
    }
}

/// A workspace member crate: its package name plus all `src/**/*.rs` files.
#[derive(Debug, Clone)]
pub struct CrateSrc {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Source files; the crate root (`lib.rs` or `main.rs`) comes first.
    pub files: Vec<SourceFile>,
}

impl CrateSrc {
    /// Builds a crate from in-memory parts (used by fixture tests).
    #[must_use]
    pub fn from_parts(name: &str, files: Vec<SourceFile>) -> Self {
        CrateSrc {
            name: name.to_string(),
            files,
        }
    }
}

/// All member crates of the workspace under `root`.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Member crates, the facade package first, then `crates/*` by path.
    pub crates: Vec<CrateSrc>,
}

impl Workspace {
    /// Loads the facade package (`root/src`) and every `root/crates/*`.
    ///
    /// # Errors
    ///
    /// Returns a message when a manifest cannot be read, when a member does
    /// not opt into the workspace lint table (`[lints] workspace = true`) —
    /// it would escape every rustc and clippy level the gate leaves to the
    /// toolchain — or when the root holds no crates at all: a lint run that
    /// scans zero files would otherwise report green on a mistyped `--root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut crates = Vec::new();
        if root.join("Cargo.toml").exists() && root.join("src").exists() {
            crates.push(load_crate(root, root)?);
        }
        let crates_dir = root.join("crates");
        if let Ok(entries) = fs::read_dir(&crates_dir) {
            let mut dirs: Vec<_> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").exists())
                .collect();
            dirs.sort();
            for dir in dirs {
                crates.push(load_crate(root, &dir)?);
            }
        }
        if crates.is_empty() {
            return Err(format!(
                "no crates found under {} — wrong --root?",
                root.display()
            ));
        }
        Ok(Workspace { crates })
    }

    /// A workspace of `(crate name, [(path, source)])` crates (unit-test
    /// fixtures).
    #[cfg(test)]
    pub(crate) fn of(crates: &[(&str, &[(&str, &str)])]) -> Self {
        let crates = crates
            .iter()
            .map(|(name, files)| {
                let files = files
                    .iter()
                    .map(|(p, s)| SourceFile::from_contents(p, s))
                    .collect();
                CrateSrc::from_parts(name, files)
            })
            .collect();
        Workspace { crates }
    }

    /// All files across all crates.
    pub fn files(&self) -> impl Iterator<Item = &SourceFile> {
        self.crates.iter().flat_map(|c| c.files.iter())
    }

    /// Builds the workspace-wide item index over every crate.
    ///
    /// The gate's own crate is excluded: no codec path calls into the lint
    /// tool, and its helper names (`get`, `parse`, …) would only add
    /// resolution ambiguity.
    #[must_use]
    pub fn build_index(&self) -> Index {
        let mut idx = Index::default();
        for krate in &self.crates {
            if krate.name == "xtask" {
                continue;
            }
            for file in &krate.files {
                idx.add_file(&krate.name, &file.path, &file.items);
            }
        }
        idx
    }
}

fn load_crate(root: &Path, dir: &Path) -> Result<CrateSrc, String> {
    let manifest_path = dir.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
    let name = manifest
        .lines()
        .find_map(|l| {
            let l = l.trim();
            l.strip_prefix("name").map(|rest| {
                rest.trim_start_matches(['=', ' ', '"'])
                    .trim_end_matches('"')
            })
        })
        .unwrap_or("?")
        .to_string();
    if !opts_into_workspace_lints(&manifest) {
        return Err(format!(
            "{}: missing `[lints] workspace = true`; every member must opt into \
             the workspace lint table",
            manifest_path.display()
        ));
    }
    let mut files = Vec::new();
    collect_rs(root, &dir.join("src"), &mut files)?;
    // Crate root first, then alphabetical, for humans reading reports.
    files.sort_by_key(|f| {
        let is_root = f.path.ends_with("lib.rs") || f.path.ends_with("main.rs");
        (!is_root, f.path.clone())
    });
    Ok(CrateSrc { name, files })
}

/// Whether a manifest carries `workspace = true` in its `[lints]` table.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let raw =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let display = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            out.push(SourceFile::from_contents(&display, &raw));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_parse_to_test_free_items() {
        let f = SourceFile::from_contents(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n",
        );
        let names: Vec<&str> = f.items.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["live", "tail"]);
    }

    #[test]
    fn allow_markers_cover_line_and_preceding_comment_block() {
        let src = "a\n// lint:allow(panic): reason spans\n// two lines\nx.unwrap();\ny.unwrap(); // lint:allow(panic)\nz.unwrap();\n";
        let f = SourceFile::from_contents("a.rs", src);
        assert!(f.is_allowed(3, "panic"));
        assert!(f.is_allowed(4, "panic"));
        assert!(!f.is_allowed(5, "panic"));
        assert!(!f.is_allowed(3, "range"));
    }

    #[test]
    fn workspace_index_merges_crates() {
        let a = CrateSrc::from_parts(
            "crate-a",
            vec![SourceFile::from_contents(
                "crates/a/src/lib.rs",
                "pub fn shared() -> u8 { 0 }\n",
            )],
        );
        let b = CrateSrc::from_parts(
            "crate-b",
            vec![SourceFile::from_contents(
                "crates/b/src/lib.rs",
                "pub fn shared() -> u16 { 0 }\npub fn caller() { shared(); }\n",
            )],
        );
        let ws = Workspace { crates: vec![a, b] };
        let idx = ws.build_index();
        assert_eq!(idx.resolve("shared").len(), 2);
        let caller = idx.resolve("caller")[0];
        assert!(idx.fns[caller].calls.contains("shared"));
    }

    #[test]
    fn a_member_without_the_lints_opt_in_stops_the_load() {
        let root = std::env::temp_dir().join(format!("xtask-optin-{}", std::process::id()));
        let src = root.join("crates/demo/src");
        fs::create_dir_all(&src).expect("temp crate");
        fs::write(src.join("lib.rs"), "//! Demo.\n").expect("lib.rs");
        let manifest = root.join("crates/demo/Cargo.toml");
        // `workspace = true` under another table does not count.
        fs::write(
            &manifest,
            "[package]\nname = \"demo\"\n\n[dependencies.foo]\nworkspace = true\n",
        )
        .expect("manifest");
        let err = Workspace::load(&root).expect_err("the opt-in is missing");
        assert!(err.contains("[lints] workspace = true"), "{err}");
        fs::write(
            &manifest,
            "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true\n",
        )
        .expect("manifest");
        let ws = Workspace::load(&root).expect("the opt-in is present");
        assert_eq!(ws.crates[0].name, "demo");
        fs::remove_dir_all(&root).expect("clean up");
    }
}
