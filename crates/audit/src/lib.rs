//! `clb-audit` — static enforcement of the workspace determinism contract.
//!
//! The simulator's results must be a pure function of `(seed, config)`: the same
//! experiment must produce bit-identical reports across thread counts, shard
//! counts, retention modes and fault plans. Most of that contract is pinned
//! dynamically (determinism suites, proptest round-trips); this crate pins the
//! part a test cannot see — source patterns that are *latently* nondeterministic
//! or that silently break the wire format. The rules are documented in
//! `docs/DETERMINISM.md`; the lexer is hand-rolled (see [`lexer`]) so the crate
//! has zero dependencies and audits the workspace without trusting it.
//!
//! Run it two ways:
//!
//! * `cargo run -p clb-audit -- --deny-warnings` — the CI entry point;
//! * `cargo test -p clb-audit` — the `repo_clean` tier-1 test audits the
//!   workspace in-process, and fixture tests pin each rule's behaviour.

pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use rules::{Finding, Registry, SourceClass};

/// Directory names never descended into: build output, vendored dependency
/// stubs (external code is not held to our contract), rule fixtures (they are
/// *deliberately* in violation), and VCS metadata.
const SKIP_DIRS: [&str; 4] = ["target", "stubs", "fixtures", ".git"];

/// Workspace-relative path of the domain-tag registry (the one file allowed to
/// declare `*_DOMAIN` constants).
pub const REGISTRY_PATH: &str = "crates/rng/src/domains.rs";

/// Workspace-relative path of the wire module held to the panic-path and
/// fingerprint rules.
pub const WIRE_PATH: &str = "crates/core/src/shard/wire.rs";

/// Workspace-relative path of the pinned wire fingerprints.
pub const PINS_PATH: &str = "crates/audit/wire_fingerprints.txt";

/// The result of auditing one source text (post-allow-matching).
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Findings that survived allow matching, plus `allow-syntax` findings for
    /// malformed annotations.
    pub findings: Vec<Finding>,
    /// How many allow annotations suppressed at least one finding.
    pub allows_used: usize,
}

/// The result of auditing the whole workspace.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Surviving violations as `(workspace-relative path, finding)` pairs,
    /// sorted by path then line.
    pub violations: Vec<(String, Finding)>,
    /// Allow annotations that suppressed at least one finding, across all files.
    pub allows_in_effect: usize,
}

impl AuditOutcome {
    /// The one-line machine-greppable summary CI asserts on.
    pub fn summary_line(&self) -> String {
        format!(
            "clb-audit: {} rules run, {} files scanned, {} violations, {} allows in effect",
            rules::RULE_NAMES.len(),
            self.files_scanned,
            self.violations.len(),
            self.allows_in_effect
        )
    }
}

/// Audits one source text: runs every token rule, converts malformed allow
/// annotations into `allow-syntax` findings, and suppresses findings covered by
/// a well-formed `// clb-audit: allow(<rule>) -- <reason>` on the same line
/// (trailing) or the line above (standalone).
pub fn audit_source(source: &str, class: SourceClass, registry: &Registry) -> FileAudit {
    let lexed = lexer::lex(source);
    let raw = rules::scan_tokens(&lexed, class, registry);

    let mut used = vec![false; lexed.allows.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for finding in raw {
        let covered = lexed.allows.iter().enumerate().find(|(_, a)| {
            a.rule == finding.rule
                && (a.line == finding.line || (a.standalone && a.line + 1 == finding.line))
        });
        match covered {
            Some((idx, _)) => used[idx] = true,
            None => findings.push(finding),
        }
    }
    for bad in &lexed.malformed {
        findings.push(Finding {
            rule: "allow-syntax",
            line: bad.line,
            col: 1,
            message: format!(
                "malformed clb-audit annotation ({}); the escape hatch is \
                 `// clb-audit: allow(<rule>) -- <reason>`",
                bad.problem
            ),
        });
    }
    findings.sort_by_key(|f| (f.line, f.col));
    FileAudit {
        findings,
        allows_used: used.iter().filter(|&&u| u).count(),
    }
}

/// Classifies a workspace-relative path (forward-slash separated).
pub fn classify(rel: &str) -> SourceClass {
    let test_code = rel
        .split('/')
        .any(|part| part == "tests" || part == "examples");
    SourceClass {
        test_code,
        bench_crate: rel.starts_with("crates/bench/"),
        registry_file: rel == REGISTRY_PATH,
        wire_file: rel == WIRE_PATH,
    }
}

/// Audits the workspace rooted at `root`. Fails with a message (not a finding)
/// only when the workspace itself is unreadable.
pub fn audit_repo(root: &Path) -> Result<AuditOutcome, String> {
    let registry_src = fs::read_to_string(root.join(REGISTRY_PATH))
        .map_err(|e| format!("cannot read {REGISTRY_PATH}: {e}"))?;
    let registry = rules::parse_registry(&registry_src);

    let mut outcome = AuditOutcome::default();
    if registry.is_empty() {
        outcome.violations.push((
            REGISTRY_PATH.to_string(),
            Finding {
                rule: "rng-domain",
                line: 1,
                col: 1,
                message: "no `const *_DOMAIN: u64` items found in the registry; every \
                          subsystem's domain tag must be declared here"
                    .to_string(),
            },
        ));
    }
    if let Some((a, b)) = rules::registry_collision(&registry) {
        outcome.violations.push((
            REGISTRY_PATH.to_string(),
            Finding {
                rule: "rng-domain",
                line: 1,
                col: 1,
                message: format!(
                    "registered domain tags `{a}` and `{b}` share a value; streams \
                     derived from the same seed would correlate across subsystems"
                ),
            },
        ));
    }

    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    for path in files {
        let rel = relative_label(root, &path);
        let source = fs::read_to_string(&path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let audit = audit_source(&source, classify(&rel), &registry);
        outcome.files_scanned += 1;
        outcome.allows_in_effect += audit.allows_used;
        for finding in audit.findings {
            outcome.violations.push((rel.clone(), finding));
        }
    }

    // The wire-fingerprint rule reads the pin file; a missing pin file is not an
    // IO error but an un-pinned format, which the check reports as a violation.
    let wire_src = fs::read_to_string(root.join(WIRE_PATH))
        .map_err(|e| format!("cannot read {WIRE_PATH}: {e}"))?;
    let pins = fs::read_to_string(root.join(PINS_PATH)).unwrap_or_default();
    for finding in rules::check_wire_fingerprint(&wire_src, &rules::parse_pins(&pins)) {
        outcome.violations.push((WIRE_PATH.to_string(), finding));
    }

    outcome
        .violations
        .sort_by(|(pa, fa), (pb, fb)| (pa, fa.line, fa.col).cmp(&(pb, fb.line, fb.col)));
    Ok(outcome)
}

fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", relative_label(root, dir)))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("bad directory entry under {dir:?}: {e}"))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        vec![("PROTOCOL_DOMAIN".to_string(), 1)]
    }

    #[test]
    fn trailing_allow_suppresses_same_line_finding() {
        let src = "fn f() { let m: HashMap<u32, u32> = make(); } \
                   // clb-audit: allow(unordered-collection) -- membership only\n";
        let audit = audit_source(src, SourceClass::default(), &reg());
        assert!(audit.findings.is_empty(), "{:?}", audit.findings);
        assert_eq!(audit.allows_used, 1);
    }

    #[test]
    fn standalone_allow_covers_next_line_only() {
        let src = "// clb-audit: allow(unordered-collection) -- membership only\n\
                   fn f() { let m: HashMap<u32, u32> = make(); }\n\
                   fn g() { let s: HashSet<u32> = make(); }\n";
        let audit = audit_source(src, SourceClass::default(), &reg());
        assert_eq!(audit.findings.len(), 1, "{:?}", audit.findings);
        assert_eq!(audit.findings[0].line, 3);
        assert_eq!(audit.allows_used, 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src = "fn f() { let m: HashMap<u32, u32> = make(); } \
                   // clb-audit: allow(wall-clock) -- wrong rule\n";
        let audit = audit_source(src, SourceClass::default(), &reg());
        assert_eq!(audit.findings.len(), 1);
        assert_eq!(audit.allows_used, 0);
    }

    #[test]
    fn malformed_allow_becomes_a_finding() {
        let src = "fn f() {} // clb-audit: allow(unordered-collection)\n";
        let audit = audit_source(src, SourceClass::default(), &reg());
        assert_eq!(audit.findings.len(), 1);
        assert_eq!(audit.findings[0].rule, "allow-syntax");
    }

    #[test]
    fn classification_by_path() {
        assert!(classify("crates/core/tests/determinism.rs").test_code);
        assert!(classify("crates/bench/src/bin/exp_scale_stress.rs").bench_crate);
        assert!(classify(REGISTRY_PATH).registry_file);
        assert!(classify(WIRE_PATH).wire_file);
        let plain = classify("crates/core/src/scenario.rs");
        assert!(!plain.test_code && !plain.bench_crate && !plain.registry_file);
    }

    #[test]
    fn summary_line_shape() {
        let outcome = AuditOutcome {
            files_scanned: 12,
            violations: Vec::new(),
            allows_in_effect: 3,
        };
        assert_eq!(
            outcome.summary_line(),
            "clb-audit: 6 rules run, 12 files scanned, 0 violations, 3 allows in effect"
        );
    }
}
