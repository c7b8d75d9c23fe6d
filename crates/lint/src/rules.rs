//! The rule catalog. Each rule is a pure function from a parsed
//! [`SourceFile`] to raw findings (pragma suppression is applied later
//! by the engine). Scoping — which paths a rule even looks at — lives
//! here too, so the catalog in LINTS.md and the code stay one thing.

use crate::source::SourceFile;
use crate::tokens::{Tok, TokKind};

/// One diagnostic, before pragma filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (kebab-case, as used in pragmas and `--rule`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
}

/// All rule ids, in catalog order. `pragma-hygiene` is the meta-rule:
/// it fires on pragmas that are malformed, unjustified, or name an
/// unknown rule.
pub const RULE_IDS: &[&str] = &[
    "no-panic-path",
    "no-wall-clock",
    "typed-errors-only",
    "no-lossy-cast",
    "no-float-eq",
    "counts-via-monoid",
    "must-use-results",
    "bounded-alloc-decode",
    "pragma-hygiene",
];

/// Whether `rule` is a known rule id.
pub fn is_known_rule(rule: &str) -> bool {
    RULE_IDS.contains(&rule)
}

/// One-line description per rule (drives `--help` and LINTS.md parity).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "no-panic-path" => "no unwrap/expect/panic!/slice-index on the untrusted-input paths (server + DFLT decode)",
        "no-wall-clock" => "df-core and df-obs never read Instant::now/SystemTime::now outside the audited Clock seam (replay determinism)",
        "typed-errors-only" => "errors are typed DfError variants, not ad-hoc strings",
        "no-lossy-cast" => "no `as` narrowing casts in the codec decode path; use try_from + CorruptCounts",
        "no-float-eq" => "no ==/!= against float literals outside the approved numerics helpers",
        "counts-via-monoid" => "cell-count arithmetic flows through the PartialCounts monoid",
        "must-use-results" => "no `let _ =` discards of fallible results without a justified pragma",
        "bounded-alloc-decode" => "decode-path allocations are bounded by remaining input, not attacker-chosen headers",
        "pragma-hygiene" => "every df-lint pragma names known rules and carries a `-- justification`",
        _ => "unknown rule",
    }
}

/// Runs every rule on `file`, returning unsuppressed-candidate findings.
pub fn run_all(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    no_panic_path(file, &mut out);
    no_wall_clock(file, &mut out);
    typed_errors_only(file, &mut out);
    no_lossy_cast(file, &mut out);
    no_float_eq(file, &mut out);
    counts_via_monoid(file, &mut out);
    must_use_results(file, &mut out);
    bounded_alloc_decode(file, &mut out);
    pragma_hygiene(file, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rule: &'static str, file: &SourceFile, line: u32, msg: String) {
    out.push(Finding {
        rule,
        path: file.path.clone(),
        line,
        message: msg,
    });
}

// ---------------------------------------------------------------- scopes

fn in_server_request_path(path: &str) -> bool {
    path.starts_with("crates/server/src/") && !path.ends_with("client.rs")
}

fn in_decode_path(path: &str) -> bool {
    path == "crates/core/src/fleet/codec.rs"
        || path == "crates/data/src/replay.rs"
        || path == "crates/prob/src/wire.rs"
}

/// no-panic-path scope: server request/connection path + the untrusted
/// binary decoders (DFLT snapshots, DFRL replay logs, and the wire
/// primitives both are read with).
fn panic_scope(path: &str) -> bool {
    in_server_request_path(path) || in_decode_path(path)
}

fn in_core(path: &str) -> bool {
    path.starts_with("crates/core/src/")
}

/// no-wall-clock scope: df-core (replay determinism) plus df-obs, whose
/// only sanctioned clock read is the audited `Clock` seam in
/// `crates/obs/src/clock.rs` — everything else must take time through an
/// injected `Clock` or a caller-observed duration.
fn wall_clock_scope(path: &str) -> bool {
    in_core(path) || path.starts_with("crates/obs/src/")
}

/// Approved home for exact float comparison helpers.
fn float_eq_exempt(path: &str) -> bool {
    path == "crates/prob/src/numerics.rs"
}

/// Approved home for direct cell-vector arithmetic: the monoid itself
/// and its dense storage layer.
fn monoid_exempt(path: &str) -> bool {
    path == "crates/prob/src/partial.rs" || path == "crates/prob/src/contingency.rs"
}

/// bounded-alloc-decode scope: the binary decoders plus the server's
/// request parser and ingest body decoder.
fn in_alloc_scope(path: &str) -> bool {
    in_decode_path(path)
        || path == "crates/server/src/http.rs"
        || path == "crates/server/src/decode.rs"
}

// ----------------------------------------------------------------- rules

/// `no-panic-path`: `.unwrap()` / `.expect(` / panicking macros /
/// direct index expressions in non-test code of the untrusted paths.
fn no_panic_path(file: &SourceFile, out: &mut Vec<Finding>) {
    if !panic_scope(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            push(
                out,
                "no-panic-path",
                file,
                t.line,
                format!(".{}() on an untrusted-input path can abort the connection; return a typed DfError", t.text),
            );
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic"
                    | "unreachable"
                    | "todo"
                    | "unimplemented"
                    | "assert"
                    | "assert_eq"
                    | "assert_ne"
                    | "debug_assert"
            )
            && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
        {
            push(
                out,
                "no-panic-path",
                file,
                t.line,
                format!("{}! can take down a worker mid-request; map the condition to an error response", t.text),
            );
        }
        // Index expressions: `[` whose previous significant token ends an
        // expression (ident, `)`, `]`, `?`). Excludes `#[attr]`, `&[T]`,
        // `vec![…]` (macro bang precedes), and array-type positions.
        if t.is_punct("[") && i > 0 {
            let p = &toks[i - 1];
            let expr_before = matches!(p.kind, TokKind::Ident) && !is_keyword(&p.text)
                || p.is_punct(")")
                || p.is_punct("]")
                || p.is_punct("?");
            let macro_bang =
                i >= 2 && toks[i - 1].kind == TokKind::Ident && toks[i - 2].is_punct("!");
            if expr_before && !macro_bang {
                push(
                    out,
                    "no-panic-path",
                    file,
                    t.line,
                    "direct index/slice can panic on attacker-shaped input; use .get()/.get_mut() and map None to an error".to_string(),
                );
            }
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut"
            | "ref"
            | "in"
            | "as"
            | "dyn"
            | "impl"
            | "where"
            | "return"
            | "break"
            | "const"
            | "static"
            | "else"
            | "move"
    )
}

/// `no-wall-clock`: `Instant::now` / `SystemTime::now` in df-core or
/// df-obs.
fn no_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if !wall_clock_scope(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_line(toks[i].line) {
            continue;
        }
        if toks[i].kind == TokKind::Ident
            && (toks[i].text == "Instant" || toks[i].text == "SystemTime")
            && toks.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_ident("now")).unwrap_or(false)
        {
            push(
                out,
                "no-wall-clock",
                file,
                toks[i].line,
                format!("{}::now() here breaks replay determinism; thread the deadline in from the caller or go through the audited Clock seam", toks[i].text),
            );
        }
    }
}

/// `typed-errors-only`: `Err("...")`, `Err(format!(...))`, and
/// `Result<_, String>` error positions outside `error.rs` files.
fn typed_errors_only(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path.ends_with("error.rs") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_line(toks[i].line) {
            continue;
        }
        if toks[i].is_ident("Err") && toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false) {
            let next = toks.get(i + 2);
            let stringy = match next {
                Some(t) if t.kind == TokKind::Str => true,
                Some(t)
                    if t.is_ident("format")
                        && toks.get(i + 3).map(|n| n.is_punct("!")).unwrap_or(false) =>
                {
                    true
                }
                _ => false,
            };
            if stringy {
                push(
                    out,
                    "typed-errors-only",
                    file,
                    toks[i].line,
                    "Err(<string>) bypasses DfError; callers can't classify it into an HTTP status"
                        .to_string(),
                );
            }
        }
        // `Result<..., String>` — String at the top-level error position
        // (commas nested in tuples/slices/inner generics don't count).
        if toks[i].is_ident("Result") && toks.get(i + 1).map(|t| t.is_punct("<")).unwrap_or(false) {
            let mut depth = 1i32;
            let mut nest = 0i32;
            let mut j = i + 2;
            let mut after_comma_at_depth1 = false;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(">") {
                    depth -= 1;
                } else if t.is_punct(">>") {
                    depth -= 2;
                } else if t.is_punct("(") || t.is_punct("[") {
                    nest += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    nest -= 1;
                } else if t.is_punct(",") && depth == 1 && nest == 0 {
                    after_comma_at_depth1 = true;
                } else if after_comma_at_depth1 && depth == 1 && nest == 0 && t.is_ident("String") {
                    push(
                        out,
                        "typed-errors-only",
                        file,
                        t.line,
                        "Result<_, String> loses error structure; use a DfError (or crate error enum) instead".to_string(),
                    );
                }
                j += 1;
            }
        }
    }
}

/// Types considered "narrowing" targets for `no-lossy-cast`.
const NARROW: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "f32", "usize", "isize",
];

/// `no-lossy-cast`: `as <narrow>` inside the codec decode file.
fn no_lossy_cast(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_decode_path(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_line(toks[i].line) {
            continue;
        }
        if toks[i].is_ident("as") {
            if let Some(t) = toks.get(i + 1) {
                if t.kind == TokKind::Ident && NARROW.contains(&t.text.as_str()) {
                    push(
                        out,
                        "no-lossy-cast",
                        file,
                        toks[i].line,
                        format!("`as {}` silently truncates decoded values (32-bit targets included); use try_from + CorruptCounts", t.text),
                    );
                }
            }
        }
    }
}

/// `no-float-eq`: `==` / `!=` with a float literal or `f64::CONST`
/// operand, outside the approved numerics helpers.
fn no_float_eq(file: &SourceFile, out: &mut Vec<Finding>) {
    if float_eq_exempt(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_punct("==") || t.is_punct("!=")) || file.is_test_line(t.line) {
            continue;
        }
        let float_left = i >= 1 && operand_is_floaty(toks, i - 1, true);
        let float_right = operand_is_floaty(toks, i + 1, false);
        if float_left || float_right {
            push(
                out,
                "no-float-eq",
                file,
                t.line,
                "exact float comparison; use the approved helpers in df-prob numerics (exactly_zero / exactly)".to_string(),
            );
        }
    }
}

/// Whether the operand adjacent to a comparison is a float literal or a
/// float-constant path like `f64::INFINITY` / `f64::NAN`.
fn operand_is_floaty(toks: &[Tok], i: usize, left: bool) -> bool {
    match toks.get(i) {
        Some(t) if t.is_float() => true,
        // Right side: unary minus in front of the literal (`x == -1.0`).
        Some(t) if !left && t.is_punct("-") => {
            toks.get(i + 1).map(|n| n.is_float()).unwrap_or(false)
        }
        // Right side: `f64::CONST`. Left side: CONST preceded by `f64::`.
        Some(t) if !left && (t.text == "f64" || t.text == "f32") => {
            toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
        }
        Some(t) if left && t.kind == TokKind::Ident => {
            i >= 2
                && toks[i - 1].is_punct("::")
                && matches!(toks[i - 2].text.as_str(), "f64" | "f32")
        }
        _ => false,
    }
}

/// `counts-via-monoid`: compound assignment touching a `data` cell
/// vector outside the monoid's own files.
fn counts_via_monoid(file: &SourceFile, out: &mut Vec<Finding>) {
    if monoid_exempt(&file.path) || !in_core_or_prob(&file.path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_punct("+=") || t.is_punct("-=") || t.is_punct("*=")) || file.is_test_line(t.line)
        {
            continue;
        }
        // Look back across the statement (to the previous `;`, `{`, or
        // `}`) for a `data` / `counts` / `cells` identifier — the shapes
        // cell-count storage takes in this codebase.
        let mut j = i;
        let mut touches_counts = false;
        while j > 0 {
            j -= 1;
            let p = &toks[j];
            if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
                break;
            }
            if p.kind == TokKind::Ident
                && matches!(p.text.as_str(), "data" | "counts" | "cells" | "dst")
            {
                touches_counts = true;
            }
        }
        if touches_counts {
            push(
                out,
                "counts-via-monoid",
                file,
                t.line,
                "direct cell-count arithmetic outside partial.rs; route the mutation through the PartialCounts monoid so fleet merges stay byte-identical".to_string(),
            );
        }
    }
}

fn in_core_or_prob(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/prob/src/")
}

/// `must-use-results`: `let _ =` discards. `let _ = write!(...)` /
/// `writeln!(...)` into a String is exempt (infallible by design).
fn must_use_results(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_line(toks[i].line) {
            continue;
        }
        if toks[i].is_ident("let")
            && toks.get(i + 1).map(|t| t.is_ident("_")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_punct("=")).unwrap_or(false)
        {
            let exempt = toks
                .get(i + 3)
                .map(|t| t.is_ident("write") || t.is_ident("writeln"))
                .unwrap_or(false)
                && toks.get(i + 4).map(|t| t.is_punct("!")).unwrap_or(false);
            if !exempt {
                push(
                    out,
                    "must-use-results",
                    file,
                    toks[i].line,
                    "`let _ =` silently discards a result; handle it, or justify the discard with a pragma".to_string(),
                );
            }
        }
    }
}

/// `bounded-alloc-decode`: in the decode paths, `with_capacity(...)` /
/// `reserve(...)` arguments must be literals or values tied to the
/// remaining input (`len`, `remaining`, or an identifier bounded by an
/// earlier `count(`/`remaining(` call) — never a raw attacker-chosen
/// header value.
fn bounded_alloc_decode(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_alloc_scope(&file.path) {
        return;
    }
    let toks = &file.tokens;
    // Identifiers bound from a bounded source anywhere in the file:
    // `let <id> ... count(...)` or any statement mentioning `remaining`.
    let mut bounded_ids: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("let") {
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                // Scan the statement for a bounding call.
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct(";") {
                    if toks[j].is_ident("count")
                        || toks[j].is_ident("remaining")
                        || toks[j].is_ident("min")
                    {
                        bounded_ids.push(name.text.as_str());
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.is_test_line(t.line) {
            continue;
        }
        if !(t.is_ident("with_capacity") || t.is_ident("reserve"))
            || !toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            continue;
        }
        // Collect the argument tokens. An argument that takes a `.len()`
        // / `remaining()` / `.min(..)` anywhere is proportional to data
        // we already hold, so the whole expression is bounded; otherwise
        // every identifier must itself be a known-bounded binding.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut all_bounded = true;
        let mut any_bounding_call = false;
        let mut any_ident = false;
        while j < toks.len() {
            let a = &toks[j];
            if a.is_punct("(") {
                depth += 1;
            } else if a.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident {
                any_ident = true;
                let id = a.text.as_str();
                if id.contains("len") || id == "remaining" || id == "capacity" || id == "min" {
                    any_bounding_call = true;
                }
                let fine = id == "self"
                    || NARROW.contains(&id)
                    || id == "u64"
                    || bounded_ids.contains(&id);
                if !fine {
                    all_bounded = false;
                }
            }
            j += 1;
        }
        if any_ident && !all_bounded && !any_bounding_call {
            push(
                out,
                "bounded-alloc-decode",
                file,
                t.line,
                "allocation sized by a decoded value that isn't visibly bounded by remaining input; clamp it (e.g. via Reader::count) first".to_string(),
            );
        }
    }
}

/// `pragma-hygiene`: every pragma must carry a justification and name
/// only known rules.
fn pragma_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for p in &file.pragmas {
        if p.justification.is_none() {
            push(
                out,
                "pragma-hygiene",
                file,
                p.line,
                "df-lint pragma without a `-- justification`; an unexplained suppression is itself a violation".to_string(),
            );
        }
        for r in &p.rules {
            if !is_known_rule(r) {
                push(
                    out,
                    "pragma-hygiene",
                    file,
                    p.line,
                    format!("df-lint pragma names unknown rule `{}`", r),
                );
            }
        }
        if p.rules.is_empty() {
            push(
                out,
                "pragma-hygiene",
                file,
                p.line,
                "df-lint pragma allows no rules; delete it or name the rule being suppressed"
                    .to_string(),
            );
        }
    }
}
