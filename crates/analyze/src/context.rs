//! Per-file analysis context: code tokens vs comments, `#[cfg(test)]` /
//! `#[test]` region detection, and `pt-analyze: allow(...)` pragmas.

use crate::lexer::{Tok, TokKind};
use crate::lints::LINTS;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// A suppression pragma parsed from a line comment:
///
/// ```text
/// // pt-analyze: allow(library-unwrap) — poisoned lock is unrecoverable here
/// ```
///
/// A pragma on its own line suppresses findings on the **next** line; a
/// trailing pragma (after code) suppresses findings on its **own** line.
/// The reason after the dash is mandatory — a pragma without one does not
/// suppress anything and is itself reported (`invalid-pragma`), so every
/// suppression in the tree carries a written justification.
#[derive(Debug)]
pub struct Pragma {
    /// Lint names listed in `allow(...)`.
    pub lints: Vec<String>,
    /// Line whose findings this pragma suppresses.
    pub applies_to: u32,
    /// Line the comment itself is on (for reporting).
    pub at: u32,
    /// Justification text after the dash.
    pub reason: String,
    /// Set when a finding was actually suppressed (drives `unused-pragma`).
    pub used: std::cell::Cell<bool>,
}

/// Everything the lint passes need about one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Crate key: `core`, `shims/proptest`, `pwdft-rt` for the root crate.
    pub crate_key: String,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok<'a>>,
    /// Comment tokens, in order.
    pub comments: Vec<Tok<'a>>,
    /// True when the whole file is test/bench/example code by path.
    pub test_file: bool,
    /// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<RangeInclusive<u32>>,
    /// Valid pragmas, and parse errors for malformed ones.
    pub pragmas: Vec<Pragma>,
    pub pragma_errors: Vec<(u32, String)>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &'a str, toks: Vec<Tok<'a>>) -> Self {
        let (code, comments): (Vec<_>, Vec<_>) = toks
            .into_iter()
            .partition(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
        let test_regions = find_test_regions(&code);
        let (pragmas, pragma_errors) = parse_pragmas(&code, &comments);
        FileCtx {
            path,
            crate_key: crate_key(path),
            code,
            comments,
            test_file: is_test_path(path),
            test_regions,
            pragmas,
            pragma_errors,
        }
    }

    /// Is `line` inside test-only code (whole-file or `#[cfg(test)]` item)?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_file || self.test_regions.iter().any(|r| r.contains(&line))
    }

    /// Does a valid pragma for `lint` cover `line`? Marks it used.
    pub fn suppressed(&self, lint: &str, line: u32) -> bool {
        let mut hit = false;
        for p in &self.pragmas {
            if p.applies_to == line && p.lints.iter().any(|l| l == lint) {
                p.used.set(true);
                hit = true;
            }
        }
        hit
    }
}

/// Crate key of a workspace-relative path: directory under `crates/`
/// (with one extra level for `crates/shims/*`), or `pwdft-rt` for the
/// root crate's own `src`/`tests`/`examples`.
pub fn crate_key(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", "shims", shim, ..] => format!("shims/{shim}"),
        ["crates", name, ..] => (*name).to_string(),
        _ => "pwdft-rt".to_string(),
    }
}

/// Test/bench/example classification by path: integration-test trees,
/// benches, examples, and the conventional `src/tests.rs` unit-test module
/// file are all non-shipping code.
pub fn is_test_path(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts.iter().any(|p| {
        matches!(*p, "tests" | "benches" | "examples")
            || p.ends_with("tests.rs")
            || *p == "build.rs"
    })
}

/// Line ranges of items annotated `#[test]` or `#[cfg(test)]` (any
/// attribute whose token stream mentions `test`, which also catches
/// `#[cfg(all(test, …))]`). The range runs from the attribute to the
/// closing brace of the item body; out-of-line `mod tests;` items get
/// no region (the referenced file is classified by path instead).
fn find_test_regions(code: &[Tok<'_>]) -> Vec<RangeInclusive<u32>> {
    let mut regions: Vec<RangeInclusive<u32>> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is(TokKind::Punct, "#")
            && matches!(code.get(i + 1), Some(t) if t.is(TokKind::Punct, "[")))
        {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        // scan the attribute body for `test`, tracking bracket depth
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut mentions_test = false;
        while j < code.len() && depth > 0 {
            let t = &code[j];
            match (t.kind, t.text) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => depth -= 1,
                (TokKind::Ident, "test") => mentions_test = true,
                _ => {}
            }
            j += 1;
        }
        if !mentions_test {
            i = j;
            continue;
        }
        // find the item body: first `{` before any item-ending `;`
        // (skipping over further attributes)
        let mut k = j;
        let mut body_open = None;
        while k < code.len() {
            let t = &code[k];
            if t.is(TokKind::Punct, "{") {
                body_open = Some(k);
                break;
            }
            if t.is(TokKind::Punct, ";") {
                break; // out-of-line item: no inline body
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = k + 1;
            continue;
        };
        let mut brace = 0usize;
        let mut end_line = code[open].line;
        let mut m = open;
        while m < code.len() {
            match (code[m].kind, code[m].text) {
                (TokKind::Punct, "{") => brace += 1,
                (TokKind::Punct, "}") => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = code[m].line;
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        regions.push(attr_line..=end_line);
        i = m + 1;
    }
    regions
}

/// Parse `pt-analyze:` pragmas out of the comment stream. Returns valid
/// pragmas plus (line, message) parse errors for malformed ones.
fn parse_pragmas(code: &[Tok<'_>], comments: &[Tok<'_>]) -> (Vec<Pragma>, Vec<(u32, String)>) {
    let mut code_lines: BTreeMap<u32, bool> = BTreeMap::new();
    for t in code {
        code_lines.insert(t.line, true);
    }
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Pragmas are plain `//` comments whose text *starts* with the
        // marker. Doc comments (`///`, `//!`) are prose — an example
        // pragma quoted in documentation must not suppress anything —
        // and a mid-sentence mention is not a pragma either.
        if c.kind != TokKind::LineComment || c.text.starts_with("///") || c.text.starts_with("//!")
        {
            continue;
        }
        let Some(body) = c
            .text
            .trim_start_matches('/')
            .trim_start()
            .strip_prefix("pt-analyze:")
        else {
            continue;
        };
        let body = body.trim_start();
        let Some(rest) = body.strip_prefix("allow(") else {
            errors.push((
                c.line,
                "expected `allow(<lint>, …)` after `pt-analyze:`".into(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            errors.push((c.line, "unclosed `allow(` in pragma".into()));
            continue;
        };
        let names: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if names.is_empty() {
            errors.push((c.line, "empty `allow()` list".into()));
            continue;
        }
        let mut bad = false;
        for n in &names {
            if !LINTS.iter().any(|l| l.name == *n) {
                errors.push((c.line, format!("unknown lint `{n}` in pragma")));
                bad = true;
            }
        }
        if bad {
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':', ' '])
            .trim()
            .to_string();
        if reason.is_empty() {
            errors.push((
                c.line,
                "pragma has no reason — write `allow(<lint>) — <why this is sound>`".into(),
            ));
            continue;
        }
        // trailing comment (code earlier on the same line) applies to its
        // own line; a comment alone on its line applies to the next line
        let trailing = code_lines.contains_key(&c.line);
        pragmas.push(Pragma {
            lints: names,
            applies_to: if trailing { c.line } else { c.line + 1 },
            at: c.line,
            reason,
            used: std::cell::Cell::new(false),
        });
    }
    (pragmas, errors)
}
