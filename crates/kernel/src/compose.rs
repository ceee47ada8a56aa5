//! Source-level UDF composition support.
//!
//! Kernel fusion (the `plan` subsystem in `skelcl`) concatenates several
//! user-defined functions into one generated kernel. Two independently
//! written UDFs may both define a helper called `clamp`, or both name their
//! function `func` — valid in isolation, a redefinition error once fused.
//! This module provides the two primitives the fusion pass needs:
//!
//! * [`defined_functions`] — the function names a source fragment defines,
//!   so the fuser can detect collisions across stages, and
//! * [`rename_identifiers`] — a token-level, deterministic rename of chosen
//!   identifiers that preserves the source otherwise verbatim (comments and
//!   formatting included), so renamed stages stay readable in diagnostics.
//!
//! A third, [`lift_float_literals`], turns every `float` literal into a
//! parameter, so sources that differ only in those literals become one text
//! (a packed launch binds each job's values; see `skelcl`'s `kernelgen`).
//!
//! Renaming uniformly rewrites *every* occurrence of an identifier within
//! one stage's source. The language has a single flat scope per function and
//! no shadowing across the renamed set (function names, parameters and
//! locals share the identifier namespace), so a uniform rewrite is
//! semantics-preserving for the stage in isolation — which is exactly the
//! property fusion needs before concatenating stages.

use std::collections::{BTreeMap, HashSet};

use crate::diag::KernelError;
use crate::lexer;
use crate::parser;
use crate::token::TokenKind;

/// Names of all functions defined by `source`, in definition order.
///
/// Errors if the source does not lex or parse; the caller (kernel
/// generation) reports that through its usual diagnostics path.
pub fn defined_functions(source: &str) -> Result<Vec<String>, KernelError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens, source)?;
    Ok(unit.functions.iter().map(|f| f.name.clone()).collect())
}

/// Rewrite every occurrence of the identifiers in `renames` (old name →
/// new name) and return the new source.
///
/// The rewrite works on the token stream: text between identifier tokens is
/// copied verbatim, so whitespace and comments survive. Identifiers not in
/// the map — including ones inside comments or string-free literals — are
/// untouched.
pub fn rename_identifiers(
    source: &str,
    renames: &BTreeMap<String, String>,
) -> Result<String, KernelError> {
    if renames.is_empty() {
        return Ok(source.to_string());
    }
    let tokens = lexer::lex(source)?;
    let mut out = String::with_capacity(source.len() + 64);
    let mut cursor = 0usize;
    for token in &tokens {
        if let TokenKind::Ident(name) = &token.kind {
            if let Some(new_name) = renames.get(name) {
                out.push_str(&source[cursor..token.span.start]);
                out.push_str(new_name);
                cursor = token.span.end;
            }
        }
    }
    out.push_str(&source[cursor..]);
    Ok(out)
}

/// Prefix of the parameters [`lift_float_literals`] introduces; the `i`-th
/// literal of a source becomes `skelcl_lit{i}`.
pub const LIFTED_PREFIX: &str = "skelcl_lit";

/// A source whose `float` literals were lifted into parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The rewritten source.
    pub source: String,
    /// Per lifted parameter, in source order, the value its literal had —
    /// exactly what both engines evaluate the literal to.
    pub values: Vec<f32>,
}

/// Lift every `float` literal of `source` into a trailing `float`
/// parameter: the `i`-th literal, in source order, becomes
/// [`LIFTED_PREFIX`]`{i}`, every defined function takes all of them after
/// its own parameters, and every call of a defined function passes them
/// on. Integer literals stay inline: they decide trip counts, indices and
/// shifts. Literals are typed `float` wherever they stand, so the rewritten
/// source computes, bit for bit, what `source` computes once the parameters
/// are bound to [`Lifted::values`]. A source without `float` literals comes
/// back unchanged.
///
/// Like [`rename_identifiers`] the rewrite works on the token stream and
/// keeps the text between tokens verbatim. A name followed by `(` at brace
/// depth 0 is a definition (there are no prototypes); inside a body, a call.
pub fn lift_float_literals(source: &str) -> Result<Lifted, KernelError> {
    let tokens = lexer::lex(source)?;
    let defined: HashSet<String> = defined_functions(source)?.into_iter().collect();
    let values: Vec<f32> = tokens
        .iter()
        .filter_map(|t| match t.kind {
            TokenKind::FloatLit(v) => Some(v as f32),
            _ => None,
        })
        .collect();
    if values.is_empty() {
        return Ok(Lifted {
            source: source.to_string(),
            values,
        });
    }
    let names: Vec<String> = (0..values.len())
        .map(|i| format!("{LIFTED_PREFIX}{i}"))
        .collect();
    let params = names
        .iter()
        .map(|n| format!("float {n}"))
        .collect::<Vec<_>>();
    let (params, args) = (params.join(", "), names.join(", "));
    // Edits as (byte range replaced, text), in source order.
    let mut edits: Vec<(usize, usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut lit = 0;
    for (i, token) in tokens.iter().enumerate() {
        match &token.kind {
            TokenKind::LBrace => depth += 1,
            TokenKind::RBrace => depth = depth.saturating_sub(1),
            TokenKind::FloatLit(_) => {
                edits.push((token.span.start, token.span.end, names[lit].clone()));
                lit += 1;
            }
            TokenKind::Ident(name)
                if defined.contains(name)
                    && tokens.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) =>
            {
                let close = matching_paren(&tokens, i + 1);
                let empty = close == i + 2;
                let list = if depth == 0 { &params } else { &args };
                let text = if empty {
                    list.clone()
                } else {
                    format!(", {list}")
                };
                let at = tokens[close].span.start;
                edits.push((at, at, text));
            }
            _ => {}
        }
    }
    edits.sort_by_key(|&(start, end, _)| (start, end));
    let mut out = String::with_capacity(source.len() + edits.len() * 24);
    let mut cursor = 0usize;
    for (start, end, text) in edits {
        out.push_str(&source[cursor..start]);
        out.push_str(&text);
        cursor = end;
    }
    out.push_str(&source[cursor..]);
    Ok(Lifted {
        source: out,
        values,
    })
}

/// Index of the `)` closing the `(` at `open` (the source parsed, so it
/// exists).
fn matching_paren(tokens: &[crate::token::Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate().skip(open) {
        match token.kind {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_defined_functions_in_order() {
        let src = "float helper(float x) { return x + 1.0f; }\n\
                   float func(float x) { return helper(x) * 2.0f; }";
        assert_eq!(defined_functions(src).unwrap(), vec!["helper", "func"]);
    }

    #[test]
    fn rename_rewrites_all_occurrences_and_preserves_text() {
        let src = "/* doubles x */\nfloat func(float x) { float y = x + x; return y; }";
        let mut renames = BTreeMap::new();
        renames.insert("func".to_string(), "stage0_func".to_string());
        renames.insert("x".to_string(), "stage0_x".to_string());
        let out = rename_identifiers(src, &renames).unwrap();
        assert_eq!(
            out,
            "/* doubles x */\nfloat stage0_func(float stage0_x) \
             { float y = stage0_x + stage0_x; return y; }"
        );
    }

    #[test]
    fn rename_with_empty_map_is_identity() {
        let src = "float func(float x) { return x; }";
        assert_eq!(rename_identifiers(src, &BTreeMap::new()).unwrap(), src);
    }

    #[test]
    fn renamed_source_still_compiles() {
        let src = "float scale(float v) { return v * 3.0f; }\n\
                   float func(float x) { return scale(x); }";
        let mut renames = BTreeMap::new();
        renames.insert("scale".to_string(), "skelcl_s1_scale".to_string());
        renames.insert("func".to_string(), "skelcl_s1_func".to_string());
        let out = rename_identifiers(src, &renames).unwrap();
        assert_eq!(
            defined_functions(&out).unwrap(),
            vec!["skelcl_s1_scale", "skelcl_s1_func"]
        );
    }

    #[test]
    fn lifting_threads_the_literals_through_helpers_and_calls() {
        let src = "float half(float v) { return v * 0.5f; }\n\
                   float func(float x, int k) { return half(x + 2.0f) + (float) k * 1e-3f + 3; }";
        let lifted = lift_float_literals(src).unwrap();
        assert_eq!(lifted.values, [0.5, 2.0, 1e-3]);
        assert_eq!(
            lifted.source,
            "float half(float v, float skelcl_lit0, float skelcl_lit1, float skelcl_lit2) \
             { return v * skelcl_lit0; }\n\
             float func(float x, int k, float skelcl_lit0, float skelcl_lit1, float skelcl_lit2) \
             { return half(x + skelcl_lit1, skelcl_lit0, skelcl_lit1, skelcl_lit2) \
             + (float) k * skelcl_lit2 + 3; }"
        );
        assert_eq!(defined_functions(&lifted.source).unwrap(), ["half", "func"]);
    }

    #[test]
    fn lifting_fills_empty_parameter_lists_and_leaves_literal_free_sources() {
        let src = "float one() { return 1.0f; }\nfloat func(float x) { return x + one(); }";
        let lifted = lift_float_literals(src).unwrap();
        assert_eq!(
            lifted.source,
            "float one(float skelcl_lit0) { return skelcl_lit0; }\n\
             float func(float x, float skelcl_lit0) { return x + one(skelcl_lit0); }"
        );
        let plain = "int func(int x) { return x * 3 + 1; }";
        let same = lift_float_literals(plain).unwrap();
        assert_eq!((same.source.as_str(), same.values.len()), (plain, 0));
    }

    #[test]
    fn rename_errors_on_unlexable_source() {
        let mut renames = BTreeMap::new();
        renames.insert("a".to_string(), "b".to_string());
        assert!(rename_identifiers("float func(@) {}", &renames).is_err());
    }
}
