//! The determinism-contract rules, expressed over the token stream.
//!
//! Each rule is a lexical pattern with a precise scope (test code is exempt,
//! `crates/bench` may read wall clocks, only the wire module is held to the
//! panic-path rule). Rules produce [`Finding`]s; the orchestrator in `lib.rs` is
//! responsible for matching findings against `clb-audit: allow(...)` annotations,
//! so everything here is annotation-blind and therefore easy to pin with fixtures.

use crate::lexer::{test_region_mask, Lexed, Token, TokenKind};

/// The names of every token-pattern rule plus the wire-fingerprint check, in the
/// order they are documented in `docs/DETERMINISM.md`.
pub const RULE_NAMES: [&str; 6] = [
    "rng-domain",
    "unordered-collection",
    "wall-clock",
    "relaxed-load",
    "panic-path",
    "wire-fingerprint",
];

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired (one of [`RULE_NAMES`], or `allow-syntax` for a
    /// malformed annotation).
    pub rule: &'static str,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable explanation with the fix spelled out.
    pub message: String,
}

/// How the orchestrator classified a source file; determines which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceClass {
    /// Integration tests and examples: every token rule is off (test
    /// code may use unordered collections, clocks and arbitrary domain tags).
    pub test_code: bool,
    /// `crates/bench`: experiment binaries, which may time themselves.
    pub bench_crate: bool,
    /// `crates/rng/src/domains.rs`: the one file allowed to declare `*_DOMAIN`.
    pub registry_file: bool,
    /// `crates/core/src/shard/wire.rs`: held to the panic-path rule.
    pub wire_file: bool,
}

/// A registered domain constant, parsed out of `crates/rng/src/domains.rs`.
pub type Registry = Vec<(String, u64)>;

/// Parses the `pub const NAME_DOMAIN: u64 = <literal>;` items out of the
/// registry file's source.
pub fn parse_registry(source: &str) -> Registry {
    let lexed = crate::lexer::lex(source);
    let toks = &lexed.tokens;
    let mut registry = Registry::new();
    let mut i = 0usize;
    while i + 4 < toks.len() {
        if toks[i].text == "const"
            && toks[i + 1].kind == TokenKind::Ident
            && toks[i + 1].text.ends_with("_DOMAIN")
        {
            // const NAME : u64 = <int> ;
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            let mut value = None;
            while j < toks.len() && toks[j].text != ";" {
                if toks[j].kind == TokenKind::Int {
                    value = parse_int(&toks[j].text);
                    break;
                }
                j += 1;
            }
            if let Some(v) = value {
                registry.push((name, v));
            }
            i = j;
        }
        i += 1;
    }
    registry
}

/// Returns the first pair of registry entries that share a tag value, if any.
pub fn registry_collision(registry: &Registry) -> Option<(&str, &str)> {
    for (i, (name_a, value_a)) in registry.iter().enumerate() {
        for (name_b, value_b) in &registry[i + 1..] {
            if value_a == value_b {
                return Some((name_a, name_b));
            }
        }
    }
    None
}

/// Parses a Rust integer literal (hex/octal/binary prefixes, `_` separators,
/// type suffixes). Returns `None` for malformed or overflowing literals.
pub fn parse_int(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let (radix, digits) = match cleaned.as_bytes() {
        [b'0', b'x' | b'X', ..] => (16, &cleaned[2..]),
        [b'0', b'o' | b'O', ..] => (8, &cleaned[2..]),
        [b'0', b'b' | b'B', ..] => (2, &cleaned[2..]),
        _ => (10, cleaned.as_str()),
    };
    // Stop at the type suffix (`3u32`): take the leading digit run only.
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Runs every token-pattern rule (all of [`RULE_NAMES`] except
/// `wire-fingerprint`, which needs the pin file) over one lexed file.
pub fn scan_tokens(lexed: &Lexed, class: SourceClass, registry: &Registry) -> Vec<Finding> {
    if class.test_code {
        return Vec::new();
    }
    let toks = &lexed.tokens;
    let mask = test_region_mask(toks);
    let mut findings = Vec::new();

    check_domain_rule(toks, &mask, class, registry, &mut findings);
    check_unordered_collections(toks, &mask, &mut findings);
    if !class.bench_crate {
        check_wall_clock(toks, &mask, &mut findings);
    }
    check_relaxed_loads(toks, &mask, &mut findings);
    if class.wire_file {
        check_panic_path(toks, &mask, &mut findings);
    }

    // One finding per (rule, line) is enough for a human to act on.
    findings.sort_by_key(|f| (f.rule, f.line, f.col));
    findings.dedup_by_key(|f| (f.rule, f.line));
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// `rng-domain`: `*_DOMAIN` constants may only be declared in the registry, and
/// every `.domain(...)` argument must be a registered constant by name.
fn check_domain_rule(
    toks: &[Token],
    mask: &[bool],
    class: SourceClass,
    registry: &Registry,
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        // const NAME_DOMAIN outside the registry file.
        if !class.registry_file
            && toks[i].text == "const"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text.ends_with("_DOMAIN"))
        {
            let t = &toks[i + 1];
            findings.push(Finding {
                rule: "rng-domain",
                line: t.line,
                col: t.col,
                message: format!(
                    "domain tag `{}` declared outside the central registry; move it to \
                     crates/rng/src/domains.rs and import it from clb_rng::domains",
                    t.text
                ),
            });
        }
        // .domain( ARG ) — the argument must name a registered constant.
        if toks[i].text == "."
            && toks.get(i + 1).is_some_and(|t| t.text == "domain")
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
        {
            let mut depth = 1u32;
            let mut j = i + 3;
            let mut args: Vec<&Token> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    args.push(&toks[j]);
                }
                j += 1;
            }
            let site = &toks[i + 1];
            let path_shaped = !args.is_empty()
                && args
                    .iter()
                    .all(|t| t.kind == TokenKind::Ident || t.text == ":");
            let last_ident = args.iter().rev().find(|t| t.kind == TokenKind::Ident);
            let registered = last_ident.is_some_and(|t| {
                t.text.ends_with("_DOMAIN") && registry.iter().any(|(name, _)| *name == t.text)
            });
            if !(path_shaped && registered) {
                let shown: String = args
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join("");
                findings.push(Finding {
                    rule: "rng-domain",
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "`.domain({shown})` does not name a constant registered in \
                         clb_rng::domains; ad-hoc tags cannot be checked for collisions"
                    ),
                });
            }
        }
    }
}

const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITERATION_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// `unordered-collection`: hash collections in result-path code. Declaration and
/// construction sites must carry an allow annotation stating the use is
/// membership-only; *iterating* one is flagged with a sharper message because no
/// annotation should excuse order-dependent results.
fn check_unordered_collections(toks: &[Token], mask: &[bool], findings: &mut Vec<Finding>) {
    // Pass 1: names bound to an unordered collection, via type ascription
    // (`name: HashMap<..>`) or inferred let (`let name = HashSet::new()`).
    let mut tracked: Vec<String> = Vec::new();
    let mut in_use_decl = false;
    for i in 0..toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "use" {
            in_use_decl = true;
        } else if toks[i].text == ";" {
            in_use_decl = false;
        }
        if mask[i] || in_use_decl {
            continue;
        }
        if toks[i].kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 2).is_some_and(|t| t.text != ":")
            && type_span_mentions_unordered(toks, i + 2)
        {
            tracked.push(toks[i].text.clone());
        }
        if toks[i].text == "let" {
            let name_at = if toks.get(i + 1).is_some_and(|t| t.text == "mut") {
                i + 2
            } else {
                i + 1
            };
            if toks
                .get(name_at)
                .is_some_and(|t| t.kind == TokenKind::Ident)
                && init_span_mentions_unordered(toks, name_at + 1)
            {
                tracked.push(toks[name_at].text.clone());
            }
        }
    }

    // Pass 2: flag the type names themselves, and iteration over tracked names.
    let mut in_use_decl = false;
    for i in 0..toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "use" {
            in_use_decl = true;
        } else if toks[i].text == ";" {
            in_use_decl = false;
        }
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if !in_use_decl && t.kind == TokenKind::Ident && UNORDERED_TYPES.contains(&t.text.as_str())
        {
            findings.push(Finding {
                rule: "unordered-collection",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in result-path code: iteration order is nondeterministic across \
                     runs; use a Vec/BTree structure, or annotate the line with \
                     `// clb-audit: allow(unordered-collection) -- <why membership-only>`",
                    t.text
                ),
            });
        }
        // name.iter() / name.keys() / ... on a tracked binding or field.
        if t.kind == TokenKind::Ident
            && tracked.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.text == ".")
            && toks
                .get(i + 2)
                .is_some_and(|m| ITERATION_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            let m = &toks[i + 2];
            findings.push(Finding {
                rule: "unordered-collection",
                line: m.line,
                col: m.col,
                message: format!(
                    "iterating unordered collection `{}` via `.{}()`: visit order varies \
                     between runs, so anything accumulated from it is nondeterministic; \
                     collect and sort first, or switch to a BTree structure",
                    t.text, m.text
                ),
            });
        }
        // for x in [&[mut]] name { ... }
        if t.kind == TokenKind::Ident && t.text == "for" {
            if let Some(in_at) = (i + 1..(i + 8).min(toks.len())).find(|&j| toks[j].text == "in") {
                let body_at = (in_at + 1..(in_at + 8).min(toks.len()))
                    .find(|&j| toks[j].text == "{")
                    .unwrap_or(toks.len());
                let idents: Vec<&Token> = toks[in_at + 1..body_at.min(toks.len())]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident && t.text != "mut")
                    .collect();
                if let [only] = idents.as_slice() {
                    if tracked.contains(&only.text) {
                        findings.push(Finding {
                            rule: "unordered-collection",
                            line: only.line,
                            col: only.col,
                            message: format!(
                                "`for` loop over unordered collection `{}`: visit order \
                                 varies between runs; collect and sort first, or switch \
                                 to a BTree structure",
                                only.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `wall-clock`: `Instant`/`SystemTime` anywhere outside `crates/bench` — results
/// must depend only on (seed, config), never on elapsed time.
fn check_wall_clock(toks: &[Token], mask: &[bool], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            findings.push(Finding {
                rule: "wall-clock",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` outside crates/bench: wall-clock reads make results depend on \
                     machine speed; timing belongs in the bench crate only",
                    t.text
                ),
            });
        }
    }
}

/// `relaxed-load`: `.load(Ordering::Relaxed)` in result-path code. Relaxed loads
/// of values that feed reports need a justification that ordering cannot change
/// the observed value (e.g. the load happens after all writers joined).
fn check_relaxed_loads(toks: &[Token], mask: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        if toks[i].text == "."
            && toks.get(i + 1).is_some_and(|t| t.text == "load")
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
        {
            let mut depth = 1u32;
            let mut j = i + 3;
            let mut relaxed = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "Relaxed" => relaxed = true,
                    _ => {}
                }
                j += 1;
            }
            if relaxed {
                let t = &toks[i + 1];
                findings.push(Finding {
                    rule: "relaxed-load",
                    line: t.line,
                    col: t.col,
                    message: "relaxed atomic load in result-path code: if this value feeds \
                              a report field, justify why ordering cannot change it with \
                              `// clb-audit: allow(relaxed-load) -- <reason>`"
                        .to_string(),
                });
            }
        }
    }
}

/// `panic-path`: no `.unwrap()`/`.expect()` in the wire module — corrupt or
/// truncated frames must surface as `ShardError::Corrupt`, not a worker abort.
fn check_panic_path(toks: &[Token], mask: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        if toks[i].text == "."
            && toks
                .get(i + 1)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
        {
            let t = &toks[i + 1];
            findings.push(Finding {
                rule: "panic-path",
                line: t.line,
                col: t.col,
                message: format!(
                    "`.{}()` in the wire module: malformed frames must return \
                     ShardError::Corrupt so the runner can diagnose which shard \
                     produced them, not abort the worker",
                    t.text
                ),
            });
        }
    }
}

fn type_span_mentions_unordered(toks: &[Token], start: usize) -> bool {
    let mut angle = 0i32;
    for t in toks.iter().skip(start).take(24) {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "=" | ";" | "{" | ")" if angle <= 0 => return false,
            "," if angle <= 0 => return false,
            _ => {
                if t.kind == TokenKind::Ident && UNORDERED_TYPES.contains(&t.text.as_str()) {
                    return true;
                }
            }
        }
    }
    false
}

fn init_span_mentions_unordered(toks: &[Token], start: usize) -> bool {
    let mut saw_eq = false;
    for t in toks.iter().skip(start).take(32) {
        match t.text.as_str() {
            "=" => saw_eq = true,
            ";" => return false,
            _ => {
                if saw_eq
                    && t.kind == TokenKind::Ident
                    && UNORDERED_TYPES.contains(&t.text.as_str())
                {
                    return true;
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// wire-fingerprint
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The computed layout fingerprint of the wire module: the declared
/// `WIRE_VERSION` plus an FNV-1a hash of the layout-defining token sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFingerprint {
    /// Value of the `WIRE_VERSION` constant.
    pub version: u64,
    /// FNV-1a 64 over the tokens of layout-defining items.
    pub hash: u64,
}

/// Computes the fingerprint of the wire module's *layout-defining* items: the
/// magic/version constants and every `put_*`/`encode_*` function (the write
/// path IS the format — decode mirrors it, so hashing one side suffices and
/// lets pure decode hardening land without a version bump).
pub fn wire_fingerprint(source: &str) -> Option<WireFingerprint> {
    let lexed = crate::lexer::lex(source);
    let toks = &lexed.tokens;
    let mut hash = FNV_OFFSET;
    let mut version = None;
    let mut i = 0usize;
    while i < toks.len() {
        let item_end = if toks[i].text == "const"
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident
                    && (t.text.contains("MAGIC") || t.text.contains("VERSION"))
            }) {
            if toks[i + 1].text == "WIRE_VERSION" {
                version = toks[i + 2..]
                    .iter()
                    .take(8)
                    .find(|t| t.kind == TokenKind::Int)
                    .and_then(|t| parse_int(&t.text));
            }
            // const items end at the terminating semicolon.
            Some(
                (i..toks.len())
                    .find(|&j| toks[j].text == ";")
                    .map_or(toks.len(), |j| j + 1),
            )
        } else if toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident
                    && (t.text.starts_with("put_") || t.text.starts_with("encode_"))
            })
        {
            // fn items end at the matching brace of their body.
            let mut depth = 0i32;
            let mut end = toks.len();
            for (j, tok) in toks.iter().enumerate().skip(i) {
                match tok.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            Some(end)
        } else {
            None
        };
        if let Some(end) = item_end {
            for t in &toks[i..end] {
                fnv1a(&mut hash, t.text.as_bytes());
                fnv1a(&mut hash, &[0x1f]);
            }
            i = end;
        } else {
            i += 1;
        }
    }
    version.map(|version| WireFingerprint { version, hash })
}

/// Parses a pin file: `<version> <16-hex-digit-hash>` per line, `#` comments.
pub fn parse_pins(text: &str) -> Vec<(u64, u64)> {
    let mut pins = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let version = parts.next().and_then(|p| p.parse::<u64>().ok());
        let hash = parts.next().and_then(|p| u64::from_str_radix(p, 16).ok());
        if let (Some(version), Some(hash)) = (version, hash) {
            pins.push((version, hash));
        }
    }
    pins
}

/// Checks the wire module's computed fingerprint against the pinned ones.
pub fn check_wire_fingerprint(source: &str, pins: &[(u64, u64)]) -> Vec<Finding> {
    let Some(fp) = wire_fingerprint(source) else {
        return vec![Finding {
            rule: "wire-fingerprint",
            line: 1,
            col: 1,
            message: "could not locate a WIRE_VERSION constant in the wire module; the \
                      fingerprint check has nothing to anchor to"
                .to_string(),
        }];
    };
    match pins.iter().find(|&&(v, _)| v == fp.version) {
        None => vec![Finding {
            rule: "wire-fingerprint",
            line: 1,
            col: 1,
            message: format!(
                "WIRE_VERSION {} has no pinned fingerprint; if the bump is intentional, \
                 run `cargo run -p clb-audit -- --print-wire-fingerprint` and append the \
                 line to crates/audit/wire_fingerprints.txt",
                fp.version
            ),
        }],
        Some(&(_, pinned)) if pinned != fp.hash => vec![Finding {
            rule: "wire-fingerprint",
            line: 1,
            col: 1,
            message: format!(
                "wire layout tokens changed but WIRE_VERSION is still {}: computed \
                 fingerprint {:016x} != pinned {:016x}. Readers of the old format would \
                 misparse the new frames. Bump WIRE_VERSION and pin the new fingerprint, \
                 or revert the layout change",
                fp.version, fp.hash, pinned
            ),
        }],
        Some(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn registry() -> Registry {
        vec![
            ("DEFAULT_DOMAIN".to_string(), 0),
            ("PROTOCOL_DOMAIN".to_string(), 0x70726f74),
        ]
    }

    fn rules_fired(src: &str, class: SourceClass) -> Vec<&'static str> {
        scan_tokens(&lex(src), class, &registry())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn parse_int_handles_rust_literals() {
        assert_eq!(parse_int("0x70726f74"), Some(0x70726f74));
        assert_eq!(parse_int("0x6465_6772"), Some(0x6465_6772));
        assert_eq!(parse_int("42u64"), Some(42));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("xyz"), None);
    }

    #[test]
    fn registered_domain_call_is_clean() {
        let src = "fn f(s: u64) { let x = StreamFactory::new(s).domain(PROTOCOL_DOMAIN); }";
        assert!(rules_fired(src, SourceClass::default()).is_empty());
    }

    #[test]
    fn literal_domain_argument_is_flagged() {
        let src = "fn f(s: u64) { let x = StreamFactory::new(s).domain(7); }";
        assert_eq!(rules_fired(src, SourceClass::default()), ["rng-domain"]);
    }

    #[test]
    fn unregistered_constant_argument_is_flagged() {
        let src = "fn f(s: u64) { let x = StreamFactory::new(s).domain(ROGUE_DOMAIN); }";
        assert_eq!(rules_fired(src, SourceClass::default()), ["rng-domain"]);
    }

    #[test]
    fn local_domain_const_is_flagged_outside_registry() {
        let src = "const LOCAL_DOMAIN: u64 = 7;";
        assert_eq!(rules_fired(src, SourceClass::default()), ["rng-domain"]);
        let class = SourceClass {
            registry_file: true,
            ..SourceClass::default()
        };
        assert!(rules_fired(src, class).is_empty());
    }

    #[test]
    fn iteration_over_tracked_collection_is_flagged() {
        let src = "fn f() {\n  let mut seen = std::collections::HashSet::new();\n\
                   for x in &seen { use_it(x); }\n}";
        let fired = rules_fired(src, SourceClass::default());
        // Once for the HashSet construction, once for the `for` loop.
        assert_eq!(fired, ["unordered-collection", "unordered-collection"]);
        let src = "struct S { seen: HashSet<u32> }\n\
                   fn g(s: &S) { let v: Vec<_> = s.seen.iter().collect(); }";
        let fired = rules_fired(src, SourceClass::default());
        assert_eq!(fired.len(), 2, "field decl + .iter() call: {fired:?}");
    }

    #[test]
    fn use_declarations_are_not_flagged() {
        let src = "use std::collections::HashMap;\nfn f() {}";
        assert!(rules_fired(src, SourceClass::default()).is_empty());
    }

    #[test]
    fn wall_clock_respects_bench_exemption() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_fired(src, SourceClass::default()),
            ["wall-clock", "wall-clock"]
        );
        let class = SourceClass {
            bench_crate: true,
            ..SourceClass::default()
        };
        assert!(rules_fired(src, class).is_empty());
    }

    #[test]
    fn relaxed_load_is_flagged_but_fetch_add_is_not() {
        let src = "fn f(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed); \
                   c.load(Ordering::Relaxed) }";
        assert_eq!(rules_fired(src, SourceClass::default()), ["relaxed-load"]);
    }

    #[test]
    fn panic_path_applies_to_wire_file_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"always\") }";
        assert!(rules_fired(src, SourceClass::default()).is_empty());
        let class = SourceClass {
            wire_file: true,
            ..SourceClass::default()
        };
        assert_eq!(rules_fired(src, class), ["panic-path"]);
    }

    #[test]
    fn test_code_is_exempt_from_all_rules() {
        let src = "use std::time::Instant;\nfn f() { let m = HashMap::new(); }";
        let class = SourceClass {
            test_code: true,
            ..SourceClass::default()
        };
        assert!(rules_fired(src, class).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_inline() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let m = HashMap::new(); } }\nfn real() {}";
        assert!(rules_fired(src, SourceClass::default()).is_empty());
    }

    const WIRE_A: &str = "pub const WIRE_VERSION: u32 = 3;\n\
                          fn put_header(b: &mut B) { b.put_u32(1); }\n\
                          fn helper() { unrelated(); }";

    #[test]
    fn fingerprint_is_stable_under_non_layout_edits() {
        let a = wire_fingerprint(WIRE_A).expect("version found");
        let reformatted = WIRE_A.replace("fn helper() { unrelated(); }", "fn helper() {\n}");
        let b = wire_fingerprint(&reformatted).expect("version found");
        assert_eq!(a, b, "non-layout helpers must not affect the fingerprint");
    }

    #[test]
    fn fingerprint_moves_when_layout_code_changes() {
        let a = wire_fingerprint(WIRE_A).expect("version found");
        let edited = WIRE_A.replace("b.put_u32(1)", "b.put_u64(1)");
        let b = wire_fingerprint(&edited).expect("version found");
        assert_eq!(a.version, b.version);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn fingerprint_check_flags_drift_and_missing_pins() {
        let fp = wire_fingerprint(WIRE_A).expect("version found");
        assert!(check_wire_fingerprint(WIRE_A, &[(fp.version, fp.hash)]).is_empty());
        let drift = check_wire_fingerprint(WIRE_A, &[(fp.version, fp.hash ^ 1)]);
        assert_eq!(drift.len(), 1);
        assert!(
            drift[0].message.contains("without a WIRE_VERSION bump")
                || drift[0].message.contains("still")
        );
        let missing = check_wire_fingerprint(WIRE_A, &[]);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].message.contains("no pinned fingerprint"));
    }

    #[test]
    fn pin_file_parsing() {
        let pins = parse_pins("# comment\n3 00ff00ff00ff00ff\n\n4 0123456789abcdef\n");
        assert_eq!(pins, vec![(3, 0x00ff00ff00ff00ff), (4, 0x0123456789abcdef)]);
    }

    #[test]
    fn registry_parsing_and_collisions() {
        let src = "pub const A_DOMAIN: u64 = 1;\npub const B_DOMAIN: u64 = 0x2;\n";
        let reg = parse_registry(src);
        assert_eq!(
            reg,
            vec![("A_DOMAIN".to_string(), 1), ("B_DOMAIN".to_string(), 2)]
        );
        assert!(registry_collision(&reg).is_none());
        let dup = parse_registry("const A_DOMAIN: u64 = 5; const B_DOMAIN: u64 = 5;");
        assert_eq!(registry_collision(&dup), Some(("A_DOMAIN", "B_DOMAIN")));
    }
}
