//! Golden-fixture suite: proves every rule fires on its violating
//! fixture, stays silent on the clean one, is silenced by a justified
//! pragma, and treats an unjustified pragma as no suppression at all
//! (plus a `pragma-hygiene` finding).
//!
//! Each fixture is linted under a *virtual* in-scope path via
//! [`df_lint::lint_source`], so path-scoped rules (server request path,
//! codec decode path, df-core) see the path they police — the files on
//! disk under `tests/fixtures/` are never walked by `--workspace`.

use df_lint::{lint_source, Report};

fn count(report: &Report, rule: &str) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

/// Runs the four-fixture contract for one rule at one virtual path.
fn check_rule(rule: &str, path: &str, fixtures: [&str; 4]) {
    let [violating, clean, suppressed, missing] = fixtures;

    let v = lint_source(path, violating, &[]);
    assert!(
        count(&v, rule) >= 1,
        "{rule}: violating fixture must fire; got {:?}",
        v.violations
    );
    assert_eq!(
        count(&v, "pragma-hygiene"),
        0,
        "{rule}: violating fixture has no pragmas to get wrong"
    );

    let c = lint_source(path, clean, &[]);
    assert!(
        c.violations.is_empty(),
        "{rule}: clean fixture must be silent under every rule; got {:?}",
        c.violations
    );

    let s = lint_source(path, suppressed, &[]);
    assert_eq!(
        count(&s, rule),
        0,
        "{rule}: justified pragma must suppress; got {:?}",
        s.violations
    );
    assert!(
        s.suppressed >= 1,
        "{rule}: suppression must be counted, not silently dropped"
    );
    assert_eq!(
        count(&s, "pragma-hygiene"),
        0,
        "{rule}: a justified pragma is hygienic"
    );

    let m = lint_source(path, missing, &[]);
    assert!(
        count(&m, rule) >= 1,
        "{rule}: unjustified pragma must NOT suppress; got {:?}",
        m.violations
    );
    assert!(
        count(&m, "pragma-hygiene") >= 1,
        "{rule}: unjustified pragma is itself a violation; got {:?}",
        m.violations
    );
}

macro_rules! fixture {
    ($rule:literal, $name:literal) => {
        include_str!(concat!("fixtures/", $rule, "/", $name, ".rs"))
    };
}

macro_rules! fixture_set {
    ($rule:literal) => {
        [
            fixture!($rule, "violating"),
            fixture!($rule, "clean"),
            fixture!($rule, "suppressed"),
            fixture!($rule, "missing_justification"),
        ]
    };
}

#[test]
fn no_panic_path_fixtures() {
    check_rule(
        "no-panic-path",
        "crates/server/src/http.rs",
        fixture_set!("no-panic-path"),
    );
}

#[test]
fn no_wall_clock_fixtures() {
    check_rule(
        "no-wall-clock",
        "crates/core/src/fleet/ingest.rs",
        fixture_set!("no-wall-clock"),
    );
}

#[test]
fn typed_errors_only_fixtures() {
    check_rule(
        "typed-errors-only",
        "crates/core/src/lib.rs",
        fixture_set!("typed-errors-only"),
    );
}

#[test]
fn no_lossy_cast_fixtures() {
    check_rule(
        "no-lossy-cast",
        "crates/core/src/fleet/codec.rs",
        fixture_set!("no-lossy-cast"),
    );
}

#[test]
fn no_float_eq_fixtures() {
    check_rule(
        "no-float-eq",
        "crates/core/src/edf.rs",
        fixture_set!("no-float-eq"),
    );
}

#[test]
fn counts_via_monoid_fixtures() {
    check_rule(
        "counts-via-monoid",
        "crates/core/src/monitor/snapshot.rs",
        fixture_set!("counts-via-monoid"),
    );
}

#[test]
fn must_use_results_fixtures() {
    check_rule(
        "must-use-results",
        "crates/core/src/lib.rs",
        fixture_set!("must-use-results"),
    );
}

#[test]
fn bounded_alloc_decode_fixtures() {
    check_rule(
        "bounded-alloc-decode",
        "crates/core/src/fleet/codec.rs",
        fixture_set!("bounded-alloc-decode"),
    );
}

/// The server's ingest body decoder sizes its code columns from the
/// body, so it is held to the same rule as the binary decoders.
#[test]
fn ingest_body_decoder_is_in_alloc_scope() {
    check_rule(
        "bounded-alloc-decode",
        "crates/server/src/decode.rs",
        fixture_set!("bounded-alloc-decode"),
    );
    let r = lint_source(
        "crates/server/src/handlers.rs",
        fixture!("bounded-alloc-decode", "violating"),
        &[],
    );
    assert_eq!(
        count(&r, "bounded-alloc-decode"),
        0,
        "got {:?}",
        r.violations
    );
}

/// The wire primitives both binary decoders read with are held to every
/// decode-path rule.
#[test]
fn wire_module_is_in_decode_scope() {
    let wire = "crates/prob/src/wire.rs";
    check_rule("no-panic-path", wire, fixture_set!("no-panic-path"));
    check_rule("no-lossy-cast", wire, fixture_set!("no-lossy-cast"));
    let alloc = fixture_set!("bounded-alloc-decode");
    check_rule("bounded-alloc-decode", wire, alloc);
}

// `pragma-hygiene` is the meta-rule: it has no "suppressed" variant
// because hygiene findings are never pragma-suppressible by design.
#[test]
fn pragma_hygiene_fixtures() {
    let v = lint_source(
        "crates/core/src/lib.rs",
        fixture!("pragma-hygiene", "violating"),
        &[],
    );
    // Three distinct sins: missing justification, unknown rule name,
    // empty allow list.
    assert_eq!(count(&v, "pragma-hygiene"), 3, "got {:?}", v.violations);

    let c = lint_source(
        "crates/server/src/http.rs",
        fixture!("pragma-hygiene", "clean"),
        &[],
    );
    assert!(
        c.violations.is_empty(),
        "a well-formed justified pragma is hygienic; got {:?}",
        c.violations
    );
    assert_eq!(c.suppressed, 1, "and its suppression is counted");
}

/// A pragma cannot excuse its own hygiene violation: even
/// `allow(pragma-hygiene)` with a justification does not silence the
/// finding about a *different* malformed pragma, and an unjustified one
/// still fires on itself.
#[test]
fn pragma_hygiene_is_never_suppressible() {
    let src = "pub fn f() -> u32 {\n    // df-lint: allow(pragma-hygiene)\n    0\n}\n";
    let r = lint_source("crates/core/src/lib.rs", src, &[]);
    assert_eq!(count(&r, "pragma-hygiene"), 1, "got {:?}", r.violations);
    assert_eq!(r.suppressed, 0);
}

/// `--rule` filtering applies to fixtures the same way the CLI does.
#[test]
fn rule_filter_isolates_one_rule() {
    let src = fixture!("no-panic-path", "violating");
    let only = lint_source(
        "crates/server/src/http.rs",
        src,
        &["no-wall-clock".to_string()],
    );
    assert!(only.violations.is_empty());
    let hit = lint_source(
        "crates/server/src/http.rs",
        src,
        &["no-panic-path".to_string()],
    );
    assert!(!hit.violations.is_empty());
}

/// Scoping: the same violating source outside a rule's scope is silent.
#[test]
fn out_of_scope_paths_are_silent() {
    // Wall-clock reads are fine outside df-core (e.g. the server).
    let wall = fixture!("no-wall-clock", "violating");
    let r = lint_source("crates/server/src/lib.rs", wall, &[]);
    assert_eq!(count(&r, "no-wall-clock"), 0, "got {:?}", r.violations);

    // Narrowing casts are fine outside the codec decode path.
    let cast = fixture!("no-lossy-cast", "violating");
    let r = lint_source("crates/core/src/edf.rs", cast, &[]);
    assert_eq!(count(&r, "no-lossy-cast"), 0, "got {:?}", r.violations);

    // Float-eq is allowed inside the approved numerics module.
    let feq = fixture!("no-float-eq", "violating");
    let r = lint_source("crates/prob/src/numerics.rs", feq, &[]);
    assert_eq!(count(&r, "no-float-eq"), 0, "got {:?}", r.violations);
}

/// df-obs is in the wall-clock scope: a bare clock read anywhere in the
/// crate fires, and only the audited `Clock` seam pragma silences it.
#[test]
fn obs_crate_is_in_wall_clock_scope() {
    let wall = fixture!("no-wall-clock", "violating");
    let r = lint_source("crates/obs/src/metrics.rs", wall, &[]);
    assert!(count(&r, "no-wall-clock") > 0, "got {:?}", r.violations);

    let seam = "pub fn origin() -> Instant {\n    \
        // df-lint: allow(no-wall-clock) -- the audited Clock seam: telemetry durations only\n    \
        Instant::now()\n}\n";
    let r = lint_source("crates/obs/src/clock.rs", seam, &[]);
    assert_eq!(count(&r, "no-wall-clock"), 0, "got {:?}", r.violations);
    assert_eq!(r.suppressed, 1);
}
