//! `ocl-front` — OpenCL-C subset front end.
//!
//! Implements the shared "Kernel Compiler" front half of the paper's
//! Figure 2: preprocess → lex → parse → type-check/lower → verified IR.
//! Both tool flows (`hls-flow` and `vortex-cc`) consume the resulting
//! [`ocl_ir::Module`], mirroring how the paper runs *identical kernel source*
//! through the Intel AOC compiler and the Vortex/PoCL compiler.

pub mod ast;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod preprocess;

use ocl_ir::Module;

/// A front-end failure from any stage, with a human-readable rendering that
/// includes line/column when available.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Preprocess(preprocess::PreprocessError),
    Lex {
        message: String,
        line: usize,
        col: usize,
    },
    Parse {
        message: String,
        line: usize,
        col: usize,
    },
    Lower {
        message: String,
        line: usize,
        col: usize,
    },
    Verify(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Preprocess(e) => write!(f, "{e}"),
            CompileError::Lex { message, line, col } => {
                write!(f, "lex error at {line}:{col}: {message}")
            }
            CompileError::Parse { message, line, col } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            CompileError::Lower { message, line, col } => {
                write!(f, "semantic error at {line}:{col}: {message}")
            }
            CompileError::Verify(m) => write!(f, "internal IR verification failed: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CompileError> for repro_util::diag::ReproError {
    fn from(e: CompileError) -> Self {
        use repro_util::diag::ReproError;
        match e {
            CompileError::Preprocess(p) => ReproError::Frontend {
                stage: "preprocess",
                message: p.message,
                line: p.line as u32,
                col: 0,
            },
            CompileError::Lex { message, line, col } => ReproError::Frontend {
                stage: "lex",
                message,
                line: line as u32,
                col: col as u32,
            },
            CompileError::Parse { message, line, col } => ReproError::Frontend {
                stage: "parse",
                message,
                line: line as u32,
                col: col as u32,
            },
            CompileError::Lower { message, line, col } => ReproError::Frontend {
                stage: "sema",
                message,
                line: line as u32,
                col: col as u32,
            },
            CompileError::Verify(message) => ReproError::Verify { message },
        }
    }
}

/// Compile OpenCL-C subset source to a verified IR module.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    compile_with_defines(src, &[])
}

/// Compile with `-D`-style predefined macros.
///
/// Each stage reports a wall-clock span into the `repro_util::metrics`
/// registry (`frontend.preprocess` … `frontend.verify`) — a no-op unless a
/// harness has enabled collection.
pub fn compile_with_defines(src: &str, defines: &[(&str, &str)]) -> Result<Module, CompileError> {
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
pub fn lex_source(src: &str, defines: &[(&str, &str)]) -> Result<Lexed, CompileError> {
    use repro_util::metrics;
    let pp = metrics::time("frontend.preprocess", || {
        preprocess::preprocess(src, defines)
    })
    .map_err(CompileError::Preprocess)?;
    let tokens = metrics::time("frontend.lex", || lex::lex(&pp)).map_err(|e| {
        let (line, col) = e.span.line_col(&pp);
        CompileError::Lex {
            message: e.message,
            line,
            col,
        }
    })?;
    Ok(Lexed { pp, tokens })
}

/// Parse, lower and verify: the `frontend.parse`, `frontend.lower` and
/// `frontend.verify` stages. `compile_lexed(&lex_source(src, d)?)` is
/// [`compile_with_defines`]`(src, d)`.
pub fn compile_lexed(lexed: &Lexed) -> Result<Module, CompileError> {
    compile_parsed(lexed, parse::parse)
}

/// [`compile_lexed`] of the kernels `names` lists, in source order: the
/// others' bodies are skipped unparsed ([`parse::parse_selected`]), so only
/// the named kernels are lowered and verified, and a syntax or type error
/// inside another kernel's body is not reported. A name the source does not
/// define is not an error; the module just lacks it.
pub fn compile_lexed_kernels(lexed: &Lexed, names: &[&str]) -> Result<Module, CompileError> {
    compile_parsed(lexed, |tokens| parse::parse_selected(tokens, names))
}

fn compile_parsed(
    lexed: &Lexed,
    parse: impl FnOnce(&[lex::Token]) -> Result<ast::TranslationUnit, parse::ParseError>,
) -> Result<Module, CompileError> {
    use repro_util::metrics;
    let Lexed { pp, tokens } = lexed;
    let unit = metrics::time("frontend.parse", || parse(tokens)).map_err(|e| {
        let (line, col) = e.span.line_col(pp);
        CompileError::Parse {
            message: e.message,
            line,
            col,
        }
    })?;
    let module = metrics::time("frontend.lower", || lower::lower(&unit)).map_err(|e| {
        let (line, col) = e.span.line_col(pp);
        CompileError::Lower {
            message: e.message,
            line,
            col,
        }
    })?;
    metrics::time("frontend.verify", || ocl_ir::verify::verify_module(&module))
        .map_err(|e| CompileError::Verify(e.to_string()))?;
    Ok(module)
}
