//! `no-panic-in-request-path`: panics past the flb-service
//! catch_unwind boundary.
//!
//! Request handling must answer malformed input with structured error
//! replies, never a worker panic. The rule flags `unwrap`/`expect`,
//! panicking macros, and (in the wire-facing files) `[]` indexing,
//! which can panic on out-of-range offsets.

use crate::context::FileCtx;
use crate::lexer::TokKind;
use crate::report::Finding;

pub const ID: &str = "no-panic-in-request-path";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Files where `[]` indexing is also flagged: these parse wire bytes
/// (or, for `journal.rs`, bytes recovered from a possibly-torn disk;
/// for `fingerprint.rs`, request payloads peeked before decoding), so
/// every index is a potential remote-triggered panic.
const INDEXING_FILES: [&str; 5] = [
    "proto.rs",
    "server.rs",
    "snapshot.rs",
    "journal.rs",
    "fingerprint.rs",
];

/// Files exempt from the rule entirely: test harness transports and
/// the test client, which live in src/ but never run in a server.
const EXEMPT_FILES: [&str; 2] = ["chaos.rs", "client.rs"];

pub fn run(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.rel_path.starts_with("crates/flb-service/src/") {
        return;
    }
    let file = ctx.rel_path.rsplit('/').next().unwrap_or("");
    if EXEMPT_FILES.contains(&file) {
        return;
    }
    let check_indexing = INDEXING_FILES.contains(&file);

    for i in ctx.code_tokens() {
        let tok = ctx.tokens[i];
        if ctx.in_test(tok.start) {
            continue;
        }
        match tok.kind {
            TokKind::Ident => {
                let text = tok.text(&ctx.text);
                if (text == "unwrap" || text == "expect")
                    && ctx.prev_code(i).is_some_and(|p| ctx.is_punct(p, b'.'))
                    && ctx.next_code(i).is_some_and(|n| ctx.is_punct(n, b'('))
                {
                    out.push(super::finding(
                        ctx,
                        ID,
                        tok.start,
                        format!("`.{text}()` can panic in the request path; return a structured error instead"),
                    ));
                } else if PANIC_MACROS.contains(&text)
                    && ctx.next_code(i).is_some_and(|n| ctx.is_punct(n, b'!'))
                {
                    out.push(super::finding(
                        ctx,
                        ID,
                        tok.start,
                        format!("`{text}!` in the request path"),
                    ));
                }
            }
            TokKind::Punct(b'[') if check_indexing && is_index_expr(ctx, i) => {
                out.push(super::finding(
                    ctx,
                    ID,
                    tok.start,
                    "`[]` indexing can panic on wire data; use `.get()` or waive with the bounds argument".into(),
                ));
            }
            _ => {}
        }
    }
}

/// `expr[…]` (prev token ends an expression) as opposed to array
/// literals, types, attributes, or slice patterns.
fn is_index_expr(ctx: &FileCtx, i: usize) -> bool {
    let Some(p) = ctx.prev_code(i) else {
        return false;
    };
    matches!(
        ctx.tokens[p].kind,
        TokKind::Ident | TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Str
    ) && !ctx.is_ident(p, "mut")
        && !is_keyword_before_index(ctx, p)
}

/// `return [..]`, `let [..] =`, `in [..]` etc. start array literals or
/// patterns, not indexing.
fn is_keyword_before_index(ctx: &FileCtx, p: usize) -> bool {
    const KEYWORDS: [&str; 7] = ["return", "in", "if", "else", "match", "break", "let"];
    ctx.tokens[p].kind == TokKind::Ident && KEYWORDS.contains(&ctx.tokens[p].text(&ctx.text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let ctx = FileCtx::new(path.into(), src.into());
        let mut out = Vec::new();
        run(&ctx, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_panics_and_indexing() {
        let src = "\
fn handle(buf: &[u8]) -> u32 {
    let a = buf.first().unwrap();
    let b = buf.get(1).expect(\"b\");
    if *a == 0 { panic!(\"zero\"); }
    let c = buf[2];
    u32::from(*a) + u32::from(*b) + u32::from(c)
}
";
        let out = run_on("crates/flb-service/src/proto.rs", src);
        let rules: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(rules, [2, 3, 4, 5]);
    }

    #[test]
    fn other_crates_and_exempt_files_are_ignored() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        assert!(run_on("crates/flb-core/src/lib.rs", src).is_empty());
        assert!(run_on("crates/flb-service/src/chaos.rs", src).is_empty());
    }

    #[test]
    fn indexing_only_checked_in_wire_files() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        assert!(run_on("crates/flb-service/src/overload.rs", src).is_empty());
        assert_eq!(run_on("crates/flb-service/src/snapshot.rs", src).len(), 1);
        // The journal decodes bytes read back from a possibly-torn disk:
        // indexing is held to the same standard as the wire files.
        assert_eq!(run_on("crates/flb-service/src/journal.rs", src).len(), 1);
        // The cache-key peek parses request payloads before decoding.
        assert_eq!(
            run_on("crates/flb-service/src/fingerprint.rs", src).len(),
            1
        );
        // The replay client is NOT exempt — a hostile trace must not be
        // able to panic the replay rig (only panic calls are flagged
        // there, like every other non-wire service file).
        let panicky = "fn g() { Option::<u8>::None.unwrap(); }";
        assert_eq!(run_on("crates/flb-service/src/replay.rs", panicky).len(), 1);
    }

    #[test]
    fn array_literals_attrs_and_unwrap_or_are_fine() {
        let src = "\
#[derive(Debug)]
struct S;
fn f(x: Option<u8>) -> [u8; 2] {
    let _ = x.unwrap_or(0);
    [0, 1]
}
";
        assert!(run_on("crates/flb-service/src/proto.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
        assert!(run_on("crates/flb-service/src/proto.rs", src).is_empty());
    }
}
