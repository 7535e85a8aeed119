//! `bft-lint` — protocol-aware static analysis for the workspace.
//!
//! Bracha-style protocols are correct only because every acceptance rule
//! sits on an exact quorum bound (`f + 1`, `2f + 1`, `⌈(n+f+1)/2⌉` under
//! `n ≥ 3f + 1`): a single transposed threshold silently breaks agreement
//! without failing any happy-path test. This crate machine-checks the
//! discipline DESIGN.md states in prose, with three rule families
//! (see [`rules`]):
//!
//! 1. **`quorum-arith`** — threshold arithmetic lives only in
//!    `types::Config` accessors and tests; protocol code calls the named
//!    accessor.
//! 2. **`determinism`** — no unordered-iteration collections, wall-clock
//!    reads, sleeps, or stray randomness in protocol crates.
//! 3. **`panic`** — no `unwrap`/`expect`/`panic!`/literal indexing in
//!    message-handling code, with a per-site escape hatch:
//!    `// lint: allow(<rule>) — <reason>`.
//!
//! The analyzer is fully self-contained (`std` plus the workspace's own
//! `bft-obs` JSON writer): it needs no `syn`, no registry access, and no
//! build of the code it checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod expr;
pub mod lexer;
pub mod rules;
mod wire_rules;

use bft_obs::json::JsonValue;
use bft_types::hash::fnv1a64;
use rules::{Rule, ScanOptions};
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The crates the analyzer walks (each crate's `src/` tree).
pub const PROTOCOL_CRATES: &[&str] = &[
    "types",
    "core",
    "rbc",
    "ec",
    "coin",
    "sim",
    "adversary",
    "net",
    "order",
    "smr",
    "obs",
    "shim-poll",
];

/// Crates holding pure protocol state machines: these must be RNG-free
/// (randomness enters only through the injected `CoinScheme`).
pub const STATE_MACHINE_CRATES: &[&str] = &["types", "core", "rbc", "ec"];

/// Crates whose structs hold long-lived per-peer/per-epoch protocol
/// state: the `unbounded-map` (W2) rule applies to their fields.
pub const LONG_LIVED_STATE_CRATES: &[&str] = &["core", "rbc", "ec", "coin", "net", "order", "smr"];

/// Files where quorum arithmetic is *defined* rather than used — the
/// `types::Config` accessors — and therefore exempt from `quorum-arith`.
pub const QUORUM_EXEMPT_FILES: &[&str] = &["crates/types/src/config.rs"];

/// Version stamp carried in reports and baselines.
pub const TOOL_VERSION: &str = env!("CARGO_PKG_VERSION");

/// A confirmed violation (post allow-annotation filtering).
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule family violated.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable description.
    pub message: String,
    /// For taint findings (W1/W4): the source → sink propagation path.
    pub trace: Vec<String>,
    /// Stable identity for baselining: hash of rule, file, snippet and
    /// same-snippet ordinal — survives unrelated line-number churn.
    pub fingerprint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.col, self.rule, self.message, self.snippet
        )?;
        if !self.trace.is_empty() {
            write!(f, "\n    taint: {}", self.trace.join(" → "))?;
        }
        Ok(())
    }
}

/// A violation silenced by a reasoned `lint: allow` annotation — kept in
/// the report so every escape hatch stays auditable.
#[derive(Clone, Debug)]
pub struct AllowedSite {
    /// The rule that was allowed.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the silenced finding.
    pub line: usize,
    /// The annotation's reason text.
    pub reason: String,
}

/// The result of analyzing a file set.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Silenced sites, same order.
    pub allowed: Vec<AllowedSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Splits findings into (new, baselined) against a baseline set.
    pub fn split_by_baseline<'a>(
        &'a self,
        baseline: &BTreeSet<String>,
    ) -> (Vec<&'a Finding>, Vec<&'a Finding>) {
        self.findings.iter().partition(|f| !baseline.contains(&f.fingerprint))
    }
}

/// One parsed `lint: allow(<rule>) — <reason>` annotation.
#[derive(Clone, Debug)]
struct Allow {
    line: usize,
    rule: Result<Rule, String>,
    reason: String,
    used: bool,
}

/// Analyzes one file's source text.
///
/// `rel_path` is the workspace-relative path used in findings; `opts`
/// carries the per-file rule scoping.
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    opts: ScanOptions,
) -> (Vec<Finding>, Vec<AllowedSite>) {
    let masked = lexer::mask_source(src);
    let tokens = lexer::tokenize(&masked.code_lines);
    let test_regions = find_test_regions(&tokens);
    let mut allows = parse_allows(&masked.comment_lines);
    let mut raw = rules::scan(&tokens, opts);
    // Wire-safety families: expression-level taint (W1/W4) and
    // structural map/lock rules (W2/W3).
    let functions = expr::parse_functions(&tokens);
    dataflow::check(&functions, &mut raw);
    wire_rules::scan_lock_discipline(&tokens, &mut raw);
    if opts.long_lived_state {
        wire_rules::scan_unbounded_maps(&tokens, &mut raw);
    }
    raw.sort_by_key(|f| (f.line, f.col));
    let src_lines: Vec<&str> = src.lines().collect();

    let in_tests = |line: usize| test_regions.iter().any(|&(s, e)| line >= s && line <= e);

    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for f in raw {
        if in_tests(f.line) {
            continue;
        }
        // An annotation on the same line or the line above silences the
        // finding — but only with a known rule and a non-empty reason.
        let matching = allows.iter_mut().find(|a| {
            (a.line == f.line || a.line + 1 == f.line)
                && a.rule.as_ref() == Ok(&f.rule)
                && !a.reason.is_empty()
        });
        if let Some(a) = matching {
            a.used = true;
            allowed.push(AllowedSite {
                rule: f.rule,
                file: rel_path.to_string(),
                line: f.line,
                reason: a.reason.clone(),
            });
            continue;
        }
        let snippet = src_lines.get(f.line - 1).map(|l| l.trim()).unwrap_or("").to_string();
        findings.push(Finding {
            rule: f.rule,
            file: rel_path.to_string(),
            line: f.line,
            col: f.col,
            snippet,
            message: f.message,
            trace: f.trace,
            fingerprint: String::new(), // filled below, needs ordinals
        });
    }

    // Annotation hygiene: unknown rules, missing reasons, and annotations
    // that silence nothing are themselves findings.
    for a in &allows {
        if in_tests(a.line) {
            continue;
        }
        let (message, bad) = match &a.rule {
            Err(name) => (
                format!(
                    "`lint: allow({name})` names an unknown rule (expected quorum-arith, \
                     determinism, panic, taint-alloc, unbounded-map, lock-discipline, or \
                     wire-overflow)"
                ),
                true,
            ),
            Ok(rule) if a.reason.is_empty() => (
                format!(
                    "`lint: allow({rule})` has no reason — the escape hatch requires \
                     `// lint: allow({rule}) — <why this site is safe>`"
                ),
                true,
            ),
            Ok(rule) if !a.used => (
                format!("`lint: allow({rule})` suppresses nothing — remove the stale annotation"),
                true,
            ),
            Ok(_) => (String::new(), false),
        };
        if bad {
            let snippet = src_lines.get(a.line - 1).map(|l| l.trim()).unwrap_or("").to_string();
            findings.push(Finding {
                rule: Rule::Annotation,
                file: rel_path.to_string(),
                line: a.line,
                col: 1,
                snippet,
                message,
                trace: Vec::new(),
                fingerprint: String::new(),
            });
        }
    }

    findings.sort_by_key(|a| (a.line, a.col, a.rule));
    assign_fingerprints(&mut findings);
    (findings, allowed)
}

/// Fills each finding's fingerprint: FNV-1a over rule, file, snippet and
/// the ordinal among same-keyed findings (stable under line renumbering).
fn assign_fingerprints(findings: &mut [Finding]) {
    let mut seen: Vec<(Rule, String)> = Vec::new();
    for f in findings.iter_mut() {
        let key = (f.rule, f.snippet.clone());
        let ordinal = seen.iter().filter(|k| **k == key).count();
        seen.push(key);
        let material = format!("{}|{}|{}|{}", f.rule, f.file, f.snippet, ordinal);
        f.fingerprint = format!("{:016x}", fnv1a64(material.as_bytes()));
    }
}

/// Extracts `lint: allow(...)` annotations from the per-line comments.
fn parse_allows(comment_lines: &[Option<String>]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        let Some(text) = comment else { continue };
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            rest = &rest[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let name = rest[..close].trim().to_string();
            let reason = rest[close + 1..]
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ',')
                })
                .trim()
                .to_string();
            out.push(Allow {
                line: idx + 1,
                rule: Rule::from_allow_name(&name).ok_or(name),
                reason,
                used: false,
            });
            rest = &rest[close + 1..];
        }
    }
    out
}

/// Finds `#[cfg(test)]`-gated brace regions as inclusive line ranges.
fn find_test_regions(tokens: &[lexer::Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = tokens[i].is_punct("#")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(")"))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct("]"));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // The next `{` opens the gated item; a `;` first means the
        // attribute gated a braceless item (use/static) — skip it.
        let mut j = i + 7;
        let mut open = None;
        while j < tokens.len() {
            if tokens[j].is_punct(";") {
                break;
            }
            if tokens[j].is_punct("{") {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(start) = open else {
            i += 7;
            continue;
        };
        let mut depth = 0usize;
        let mut k = start;
        while k < tokens.len() {
            if tokens[k].is_punct("{") {
                depth += 1;
            } else if tokens[k].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let end_line = tokens.get(k).map(|t| t.line).unwrap_or(usize::MAX);
        regions.push((tokens[i].line, end_line));
        i = k + 1;
    }
    regions
}

/// Analyzes the workspace rooted at `root`: every `.rs` file under
/// `crates/<protocol crate>/src`, in sorted path order.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for krate in PROTOCOL_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        collect_rs_files(&dir, &mut files)?;
    }
    files.sort();
    let mut report = Report::default();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let krate = rel.split('/').nth(1).unwrap_or("");
        let opts = ScanOptions {
            quorum_exempt: QUORUM_EXEMPT_FILES.contains(&rel.as_str()),
            state_machine_crate: STATE_MACHINE_CRATES.contains(&krate),
            long_lived_state: LONG_LIVED_STATE_CRATES.contains(&krate),
        };
        let (findings, allowed) = analyze_source(&rel, &src, opts);
        report.findings.extend(findings);
        report.allowed.extend(allowed);
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("expected protocol crate source dir {}", dir.display()),
        ));
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------

/// Header of the baseline file (also its entire content when clean).
pub const BASELINE_HEADER: &str =
    "# bft-lint baseline v1 — one accepted finding per line; regenerate with\n\
     #   cargo run -p lint -- --write-baseline\n";

/// Renders the deterministic baseline for a report (byte-for-byte
/// reproducible for identical sources).
pub fn render_baseline(report: &Report) -> String {
    let mut out = String::from(BASELINE_HEADER);
    for f in &report.findings {
        out.push_str(&format!(
            "{} {} {}:{} {}\n",
            f.fingerprint, f.rule, f.file, f.line, f.snippet
        ));
    }
    out
}

/// Parses a baseline file into its fingerprint set. Lines starting with
/// `#` and blank lines are ignored.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Renders the human-readable report.
pub fn render_text(report: &Report, baseline: &BTreeSet<String>) -> String {
    let (new, baselined) = report.split_by_baseline(baseline);
    let mut out = String::new();
    for f in &new {
        out.push_str(&format!("{f}\n"));
    }
    out.push_str(&format!(
        "bft-lint: {} file(s) scanned, {} finding(s) ({} baselined), {} allowed site(s)\n",
        report.files_scanned,
        new.len(),
        baselined.len(),
        report.allowed.len()
    ));
    out
}

/// Renders the machine-readable JSON report (single line).
pub fn render_json(report: &Report, baseline: &BTreeSet<String>) -> String {
    let (new, baselined) = report.split_by_baseline(baseline);
    let finding_json = |f: &Finding, baselined: bool| {
        JsonValue::Obj(vec![
            ("rule".into(), JsonValue::str(f.rule.name())),
            ("rule_family".into(), JsonValue::str(f.rule.family())),
            ("file".into(), JsonValue::str(&f.file)),
            ("line".into(), JsonValue::U64(f.line as u64)),
            ("col".into(), JsonValue::U64(f.col as u64)),
            ("message".into(), JsonValue::str(&f.message)),
            ("snippet".into(), JsonValue::str(&f.snippet)),
            ("taint_trace".into(), JsonValue::Arr(f.trace.iter().map(JsonValue::str).collect())),
            ("fingerprint".into(), JsonValue::str(&f.fingerprint)),
            ("baselined".into(), JsonValue::Bool(baselined)),
        ])
    };
    let allowed_json = |a: &AllowedSite| {
        JsonValue::Obj(vec![
            ("rule".into(), JsonValue::str(a.rule.name())),
            ("file".into(), JsonValue::str(&a.file)),
            ("line".into(), JsonValue::U64(a.line as u64)),
            ("reason".into(), JsonValue::str(&a.reason)),
        ])
    };
    let mut findings: Vec<JsonValue> = Vec::new();
    findings.extend(new.iter().map(|f| finding_json(f, false)));
    findings.extend(baselined.iter().map(|f| finding_json(f, true)));
    JsonValue::Obj(vec![
        ("tool".into(), JsonValue::str("bft-lint")),
        ("version".into(), JsonValue::str(TOOL_VERSION)),
        (
            "rules".into(),
            JsonValue::Arr(Rule::ALL.iter().map(|r| JsonValue::str(r.name())).collect()),
        ),
        ("files_scanned".into(), JsonValue::U64(report.files_scanned as u64)),
        (
            "summary".into(),
            JsonValue::Obj(vec![
                ("new".into(), JsonValue::U64(new.len() as u64)),
                ("baselined".into(), JsonValue::U64(baselined.len() as u64)),
                ("allowed".into(), JsonValue::U64(report.allowed.len() as u64)),
            ]),
        ),
        ("findings".into(), JsonValue::Arr(findings)),
        ("allowed".into(), JsonValue::Arr(report.allowed.iter().map(allowed_json).collect())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTS: ScanOptions =
        ScanOptions { quorum_exempt: false, state_machine_crate: true, long_lived_state: true };

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); let z = 2 * f + 1; }\n\
                   }\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_swallow_file() {
        let src = "#[cfg(test)]\nuse std::collections::BTreeMap;\nfn live() { x.unwrap(); }\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn allow_with_reason_silences_and_is_recorded() {
        let src = "// lint: allow(panic) — slot invariant upheld by install()\n\
                   fn live() { x.unwrap(); }\n";
        let (findings, allowed) = analyze_source("a.rs", src, OPTS);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].reason, "slot invariant upheld by install()");
    }

    #[test]
    fn same_line_allow_works() {
        let src = "fn live() { x.unwrap(); } // lint: allow(panic) — infallible here\n";
        let (findings, allowed) = analyze_source("a.rs", src, OPTS);
        assert!(findings.is_empty());
        assert_eq!(allowed.len(), 1);
    }

    #[test]
    fn allow_without_reason_does_not_silence() {
        let src = "fn live() { x.unwrap(); } // lint: allow(panic)\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert_eq!(findings.len(), 2); // the unwrap + the bad annotation
        assert!(findings.iter().any(|f| f.rule == Rule::Annotation));
    }

    #[test]
    fn allow_with_wrong_rule_does_not_silence() {
        let src = "fn live() { x.unwrap(); } // lint: allow(determinism) — wrong family\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert!(findings.iter().any(|f| f.rule == Rule::Panic));
        // The determinism allow is unused → annotation finding too.
        assert!(findings.iter().any(|f| f.rule == Rule::Annotation));
    }

    #[test]
    fn unknown_rule_is_flagged() {
        let src = "fn live() {} // lint: allow(quorum) — typo'd rule name\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::Annotation);
        assert!(findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn fingerprints_are_stable_under_line_shifts() {
        let a = analyze_source("a.rs", "fn live() { x.unwrap(); }\n", OPTS).0;
        let b = analyze_source("a.rs", "\n\n\nfn live() { x.unwrap(); }\n", OPTS).0;
        assert_eq!(a[0].fingerprint, b[0].fingerprint);
    }

    #[test]
    fn duplicate_snippets_get_distinct_fingerprints() {
        let src = "fn a() { x.unwrap(); }\nfn b() { x.unwrap(); }\n";
        let (findings, _) = analyze_source("a.rs", src, OPTS);
        assert_eq!(findings.len(), 2);
        assert_ne!(findings[0].fingerprint, findings[1].fingerprint);
    }

    #[test]
    fn baseline_round_trips() {
        let (findings, _) =
            analyze_source("a.rs", "fn live() { x.unwrap(); let q = n - f; }\n", OPTS);
        let report = Report { findings, allowed: Vec::new(), files_scanned: 1 };
        let text = render_baseline(&report);
        let set = parse_baseline(&text);
        let (new, baselined) = report.split_by_baseline(&set);
        assert!(new.is_empty());
        assert_eq!(baselined.len(), 2);
        // Byte-for-byte reproducible.
        assert_eq!(text, render_baseline(&report));
    }

    #[test]
    fn json_render_shape() {
        let (findings, _) = analyze_source("a.rs", "fn live() { x.unwrap(); }\n", OPTS);
        let report = Report { findings, allowed: Vec::new(), files_scanned: 1 };
        let json = render_json(&report, &BTreeSet::new());
        assert!(json.starts_with(r#"{"tool":"bft-lint""#));
        assert!(json.contains(r#""rule":"panic""#));
        assert!(json.contains(r#""baselined":false"#));
    }
}
