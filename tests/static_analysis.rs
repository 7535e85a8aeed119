//! Tier-1 gate: the workspace must satisfy `bft-lint` with an empty
//! baseline, and the baseline file must be byte-for-byte reproducible.
//!
//! This is the same check CI's `bft-lint` job runs, wired into `cargo
//! test` so a bare threshold, stray wall-clock read, or naked unwrap
//! fails the ordinary test suite too.

use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = bft_lint::analyze_workspace(workspace_root()).expect("workspace readable");
    assert!(report.files_scanned > 30, "walk looks truncated: {}", report.files_scanned);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "bft-lint found {} non-baselined violation(s):\n{}\n\nFix the code or add a \
         reasoned `// lint: allow(<rule>) — <reason>` at the site.",
        report.findings.len(),
        rendered.join("\n")
    );
}

#[test]
fn checked_in_baseline_is_current_and_reproducible() {
    let report = bft_lint::analyze_workspace(workspace_root()).expect("workspace readable");
    let rendered = bft_lint::render_baseline(&report);
    let on_disk = std::fs::read_to_string(workspace_root().join("lint.baseline"))
        .expect("lint.baseline is checked in");
    assert_eq!(
        rendered, on_disk,
        "lint.baseline is stale; regenerate with `cargo run -p lint -- --write-baseline`"
    );
    // Reproducible: a second analysis renders identical bytes.
    let again = bft_lint::analyze_workspace(workspace_root()).expect("workspace readable");
    assert_eq!(bft_lint::render_baseline(&again), rendered);
}

#[test]
fn baseline_is_empty() {
    // The acceptance bar for this workspace: no grandfathered findings at
    // all. Every pre-existing violation was fixed or carries a reasoned
    // per-site annotation.
    let on_disk = std::fs::read_to_string(workspace_root().join("lint.baseline"))
        .expect("lint.baseline is checked in");
    assert!(
        bft_lint::parse_baseline(&on_disk).is_empty(),
        "the baseline must stay empty; fix or annotate new findings instead of baselining them"
    );
}

#[test]
fn escape_hatches_are_reasoned_and_bounded() {
    let report = bft_lint::analyze_workspace(workspace_root()).expect("workspace readable");
    for site in &report.allowed {
        assert!(
            site.reason.len() >= 10,
            "{}:{} allow annotation reason is too thin: {:?}",
            site.file,
            site.line,
            site.reason
        );
    }
    // Growth guard: new escape hatches deserve review. Raise this only
    // with a reason in the PR description. Raised 16 → 24 when bft-net
    // joined the walked crates: a wall-clock TCP transport legitimately
    // reads real time and sleeps (all concentrated in its clock module)
    // and uses `expect` on unrecoverable host-setup failures. Raised
    // 24 → 26 with the reactor transport: shim-poll's non-Linux
    // fallback parks with a real sleep (determinism), and the client
    // gateway's per-client resume windows are a keyed map with no safe
    // eviction (unbounded-map).
    assert!(
        report.allowed.len() <= 26,
        "allowed-site count grew to {}; keep the escape hatch rare",
        report.allowed.len()
    );
}

#[test]
fn net_crate_is_walked_and_annotated() {
    // Regression guard for the transport crate's lint registration: the
    // walk must include `crates/net`, and its wall-clock escape hatches
    // must carry reasoned annotations (they show up in `allowed`, not in
    // `findings`).
    let report = bft_lint::analyze_workspace(workspace_root()).expect("workspace readable");
    assert!(
        report.allowed.iter().any(|site| site.file.starts_with("crates/net/")),
        "expected annotated allow sites under crates/net; is the crate registered in \
         PROTOCOL_CRATES?"
    );
    assert!(
        report.findings.iter().all(|f| !f.file.starts_with("crates/net/")),
        "bft-net has unannotated lint findings"
    );
}

/// The dependency names a manifest's `[dependencies]` table lists.
fn dependencies(manifest: &str) -> Vec<String> {
    let text = std::fs::read_to_string(workspace_root().join(manifest)).expect("manifest readable");
    text.lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .filter_map(|l| l.split(['.', '=']).next().map(|k| k.trim().to_string()))
        .collect()
}

#[test]
fn transport_depends_on_no_protocol_crate() {
    // The transport moves bytes; every message format lives with its type
    // (`bft_types::wire` and the protocol crates), so bft-net needs none
    // of them, and the replicated service reaches the wire without it.
    let mut net = dependencies("crates/net/Cargo.toml");
    net.sort();
    assert_eq!(net, ["bft-obs", "bft-types", "poll"]);
    assert!(!dependencies("crates/smr/Cargo.toml").iter().any(|d| d == "bft-net"));
    // Coins are pure functions of their seeds: the protocols observe the
    // flips they consume, so the coin crate needs no observer either.
    let mut coin = dependencies("crates/coin/Cargo.toml");
    coin.sort();
    assert_eq!(coin, ["bft-types", "rand", "rand_chacha"]);

    let crates = std::fs::read_dir(workspace_root().join("crates")).expect("crates/ readable");
    let manifests = crates
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .chain([workspace_root().join("Cargo.toml")]);
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest readable");
        for gone in ["bft-runtime", "crossbeam", "parking_lot"] {
            assert!(!text.contains(gone), "{} names {gone}", manifest.display());
        }
    }
}

#[test]
fn rbc_vote_thresholds_have_one_home() {
    // The Ready amplification and delivery quorums are the shared vote
    // core's (`crates/rbc/src/vote.rs`): an instance that counts Readys
    // against them itself has forked the vote rule.
    let dir = workspace_root().join("crates/rbc/src");
    let mut sites: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("crates/rbc/src readable") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("source readable");
        let live = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in live.lines().enumerate() {
            for read in ["ready_threshold()", "decide_threshold()"] {
                if line.contains(read) {
                    sites.push((read.to_string(), format!("{}:{}", path.display(), i + 1)));
                }
            }
        }
    }
    for read in ["ready_threshold()", "decide_threshold()"] {
        let at: Vec<&String> = sites.iter().filter(|(r, _)| r == read).map(|(_, at)| at).collect();
        assert_eq!(at.len(), 1, "`{read}` must be read in exactly one place: {at:?}");
    }
}

/// Every `.rs` file under `dir`, build output excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `path`'s source lines with strings and comments blanked out.
fn code_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("source readable");
    bft_lint::lexer::mask_source(&text).code_lines
}

#[test]
fn unsafe_code_stays_in_its_two_modules() {
    // `unsafe` is confined to the raw `poll(2)` syscall and to the AVX2
    // GF(2⁸) kernel; tokens are read from masked source, so the word in a
    // string or a comment does not count.
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut holders: Vec<String> = files
        .iter()
        .filter(|path| {
            let tokens = bft_lint::lexer::tokenize(&code_lines(path));
            tokens.iter().any(|t| t.is_ident("unsafe"))
        })
        .map(|path| path.strip_prefix(root).expect("under the root").display().to_string())
        .collect();
    holders.sort();
    assert_eq!(holders, ["crates/ec/src/avx2.rs", "crates/shim-poll/src/lib.rs"]);

    // Every other library root forbids it outright; `bft-ec` denies it
    // and allows it on the kernel module alone.
    let has =
        |path: &Path, attr: &str| code_lines(path).iter().filter(|l| l.trim() == attr).count();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    let roots = crates.map(|e| e.expect("dir entry").path().join("src/lib.rs"));
    for lib in roots.chain([root.join("src/lib.rs")]) {
        let name = lib.strip_prefix(root).expect("under the root").display().to_string();
        match name.as_str() {
            "crates/shim-poll/src/lib.rs" => {}
            "crates/ec/src/lib.rs" => {
                assert_eq!(has(&lib, "#![deny(unsafe_code)]"), 1, "{name}");
                assert_eq!(has(&lib, "#[allow(unsafe_code)]"), 1, "{name}");
                let lines = code_lines(&lib);
                let allowed = lines.iter().position(|l| l.trim() == "#[allow(unsafe_code)]");
                let item = allowed.and_then(|i| lines.get(i + 1)).map(|l| l.trim());
                assert_eq!(item, Some("mod avx2;"), "{name}: the allow covers the kernel only");
            }
            _ => assert_eq!(has(&lib, "#![forbid(unsafe_code)]"), 1, "{name}"),
        }
    }
}
