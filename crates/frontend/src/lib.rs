//! `ocl-front` — OpenCL-C subset front end.
//!
//! Implements the shared "Kernel Compiler" front half of the paper's
//! Figure 2: preprocess → lex → parse → type-check/lower → verified IR.
//! Both tool flows (`hls-flow` and `vortex-cc`) consume the resulting
//! [`ocl_ir::Module`], mirroring how the paper runs *identical kernel source*
//! through the Intel AOC compiler and the Vortex/PoCL compiler.
//!
//! Every entry point fails with a [`ReproError`]: `Frontend`, naming the
//! stage (`preprocess`, `lex`, `parse` or `sema`) and the line and column in
//! the preprocessed text, or `Verify` when the lowered IR fails the verifier.

pub mod ast;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod preprocess;

use ocl_ir::Module;
use repro_util::diag::ReproError;

/// The failure of front-end stage `stage` ("lex", "parse" or "sema") at
/// `(line, col)` of the preprocessed text. Each stage keeps its own error
/// struct, with the span this is computed from.
fn stage_error(stage: &'static str, message: String, (line, col): (usize, usize)) -> ReproError {
    ReproError::Frontend {
        stage,
        message,
        line: line as u32,
        col: col as u32,
    }
}

/// Compile OpenCL-C subset source to a verified IR module.
pub fn compile(src: &str) -> Result<Module, ReproError> {
    compile_with_defines(src, &[])
}

/// Compile with `-D`-style predefined macros.
///
/// Each stage reports a wall-clock span into the `repro_util::metrics`
/// registry (`frontend.preprocess` … `frontend.verify`) — a no-op unless a
/// harness has enabled collection.
pub fn compile_with_defines(src: &str, defines: &[(&str, &str)]) -> Result<Module, ReproError> {
    compile_lexed(&lex_source(src, defines)?)
}

/// A source after the first two front-end stages. The compile cache
/// fingerprints `tokens` and, on a miss, hands the same value to
/// [`compile_lexed`], so a cold source is preprocessed and lexed once.
#[derive(Debug)]
pub struct Lexed {
    /// The preprocessed text every token span (and error position) refers to.
    pub pp: String,
    pub tokens: Vec<lex::Token>,
}

/// Preprocess and lex: the `frontend.preprocess` and `frontend.lex` stages.
pub fn lex_source(src: &str, defines: &[(&str, &str)]) -> Result<Lexed, ReproError> {
    use repro_util::metrics;
    let pp = metrics::time("frontend.preprocess", || {
        preprocess::preprocess(src, defines)
    })
    .map_err(|e| ReproError::Frontend {
        stage: "preprocess",
        message: e.message,
        line: e.line as u32,
        col: 0,
    })?;
    let tokens = metrics::time("frontend.lex", || lex::lex(&pp))
        .map_err(|e| stage_error("lex", e.message, e.span.line_col(&pp)))?;
    Ok(Lexed { pp, tokens })
}

/// Parse, lower and verify: the `frontend.parse`, `frontend.lower` and
/// `frontend.verify` stages. `compile_lexed(&lex_source(src, d)?)` is
/// [`compile_with_defines`]`(src, d)`.
pub fn compile_lexed(lexed: &Lexed) -> Result<Module, ReproError> {
    compile_parsed(lexed, parse::parse)
}

/// [`compile_lexed`] of the kernels `names` lists, in source order: the
/// others' bodies are skipped unparsed ([`parse::parse_selected`]), so only
/// the named kernels are lowered and verified, and a syntax or type error
/// inside another kernel's body is not reported. A name the source does not
/// define is not an error; the module just lacks it.
pub fn compile_lexed_kernels(lexed: &Lexed, names: &[&str]) -> Result<Module, ReproError> {
    compile_parsed(lexed, |tokens| parse::parse_selected(tokens, names))
}

fn compile_parsed(
    lexed: &Lexed,
    parse: impl FnOnce(&[lex::Token]) -> Result<ast::TranslationUnit, parse::ParseError>,
) -> Result<Module, ReproError> {
    use repro_util::metrics;
    let Lexed { pp, tokens } = lexed;
    let unit = metrics::time("frontend.parse", || parse(tokens))
        .map_err(|e| stage_error("parse", e.message, e.span.line_col(pp)))?;
    let module = metrics::time("frontend.lower", || lower::lower(&unit))
        .map_err(|e| stage_error("sema", e.message, e.span.line_col(pp)))?;
    metrics::time("frontend.verify", || ocl_ir::verify::verify_module(&module)).map_err(|e| {
        ReproError::Verify {
            message: e.to_string(),
        }
    })?;
    Ok(module)
}
