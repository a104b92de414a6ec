//! Minimal preprocessor: object-like `#define`, `#undef`, and `#ifdef` /
//! `#ifndef` / `#else` / `#endif` over defined-ness. This covers the macro
//! usage in the Rodinia / NVIDIA SDK kernels the suite ports (constants such
//! as `ETA`, `MOMENTUM`, block sizes).

use rustc_hash::FxHashMap;

/// Preprocessing failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessError {
    pub message: String,
    pub line: usize,
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "preprocess error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PreprocessError {}

/// Expand directives and macros; returns plain OpenCL-C subset source.
///
/// `predefined` allows the host to inject `-D`-style macros (used by suite
/// benchmarks to set problem-size constants).
pub fn preprocess(src: &str, predefined: &[(&str, &str)]) -> Result<String, PreprocessError> {
    let mut macros: FxHashMap<String, String> = predefined
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut out = String::with_capacity(src.len());
    // Conditional-inclusion stack: each entry is "currently emitting".
    let mut cond_stack: Vec<bool> = Vec::new();
    for (ln, raw) in src.lines().enumerate() {
        let line_no = ln + 1;
        let trimmed = raw.trim_start();
        let emitting = cond_stack.iter().all(|&b| b);
        if let Some(rest) = trimmed.strip_prefix('#') {
            let rest = rest.trim_start();
            let (directive, tail) = split_word(rest);
            match directive {
                "define" if emitting => {
                    let (name, body) = split_word(tail);
                    if name.is_empty() {
                        return Err(PreprocessError {
                            message: "#define requires a name".into(),
                            line: line_no,
                        });
                    }
                    // Function-like macros have `(` immediately after the
                    // name; object-like bodies that start with `(` are
                    // separated by whitespace.
                    if body.starts_with('(') {
                        return Err(PreprocessError {
                            message: format!(
                                "function-like macro `{name}` is not supported by the subset"
                            ),
                            line: line_no,
                        });
                    }
                    macros.insert(name.to_string(), body.trim().to_string());
                }
                "undef" if emitting => {
                    let (name, _) = split_word(tail);
                    macros.remove(name);
                }
                "ifdef" => {
                    let (name, _) = split_word(tail);
                    cond_stack.push(macros.contains_key(name));
                }
                "ifndef" => {
                    let (name, _) = split_word(tail);
                    cond_stack.push(!macros.contains_key(name));
                }
                "else" => {
                    let top = cond_stack.last_mut().ok_or(PreprocessError {
                        message: "#else without #ifdef".into(),
                        line: line_no,
                    })?;
                    *top = !*top;
                }
                "endif" => {
                    cond_stack.pop().ok_or(PreprocessError {
                        message: "#endif without #ifdef".into(),
                        line: line_no,
                    })?;
                }
                "pragma" | "include" => {
                    // `#pragma OPENCL EXTENSION ...` and `#include` headers
                    // are ignored: the subset has all builtins built in.
                }
                _ if !emitting => {}
                other => {
                    return Err(PreprocessError {
                        message: format!("unsupported directive `#{other}`"),
                        line: line_no,
                    })
                }
            }
            out.push('\n');
            continue;
        }
        if emitting {
            out.push_str(&substitute(raw, &macros, 0).map_err(|m| PreprocessError {
                message: m,
                line: line_no,
            })?);
        }
        out.push('\n');
    }
    if !cond_stack.is_empty() {
        return Err(PreprocessError {
            message: "unterminated #ifdef".into(),
            line: src.lines().count(),
        });
    }
    Ok(out)
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    (&s[..end], &s[end..])
}

/// Replace identifier occurrences of macro names, skipping string literals
/// and comments. Recursion depth is bounded to catch self-referential macros.
/// Everything else is copied through as text, so non-ASCII characters are
/// never split.
fn substitute(
    line: &str,
    macros: &FxHashMap<String, String>,
    depth: u32,
) -> Result<String, String> {
    if depth > 16 {
        return Err("macro expansion too deep (recursive #define?)".into());
    }
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    // `line[copied..]` has not been written to `out` yet.
    let mut copied = 0;
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            match c {
                // Skip the escaped byte too.
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
            i += 1;
            continue;
        }
        // Line comment: the rest is copied verbatim.
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            break;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if let Some(body) = macros.get(&line[start..i]) {
                let expanded = substitute(body, macros, depth + 1)?;
                out.push_str(&line[copied..start]);
                out.push('(');
                out.push_str(expanded.trim());
                out.push(')');
                copied = i;
            }
            continue;
        }
        if c == b'"' {
            in_str = true;
        }
        i += 1;
    }
    out.push_str(&line[copied..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_object_macro() {
        let src = "#define ETA 0.3f\nx = ETA * y;\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(out.contains("x = (0.3f) * y;"), "got: {out}");
    }

    #[test]
    fn nested_macros_expand() {
        let src = "#define A 2\n#define B (A + 1)\ny = B;\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(out.contains("y = (((2) + 1));"), "got: {out}");
    }

    #[test]
    fn predefined_macros_injected() {
        let out = preprocess("n = SIZE;\n", &[("SIZE", "256")]).unwrap();
        assert!(out.contains("n = (256);"), "got: {out}");
    }

    #[test]
    fn ifdef_excludes_inactive_branch() {
        let src = "#ifdef MISSING\nbad();\n#else\ngood();\n#endif\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(out.contains("good();"));
        assert!(!out.contains("bad();"));
    }

    #[test]
    fn ifndef_with_define() {
        let src = "#define X 1\n#ifndef X\nbad();\n#endif\nok();\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(!out.contains("bad();"));
        assert!(out.contains("ok();"));
    }

    #[test]
    fn recursive_macro_is_an_error() {
        let src = "#define A A\nx = A;\n";
        let e = preprocess(src, &[]).unwrap_err();
        assert!(e.message.contains("deep"), "{e}");
    }

    #[test]
    fn function_like_macro_rejected() {
        let e = preprocess("#define SQ(x) ((x)*(x))\n", &[]).unwrap_err();
        assert!(e.message.contains("function-like"), "{e}");
    }

    #[test]
    fn strings_not_substituted() {
        let src = "#define d 1\nprintf(\"d=%d\", d);\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(out.contains("\"d=%d\""), "got: {out}");
        assert!(out.contains(", (1));"), "got: {out}");
    }

    #[test]
    fn non_ascii_text_passes_through_whole() {
        let src = "#define d 1\nprintf(\"café \\µ=%d\", d); /* µ */ x = d; // é d\n";
        let out = preprocess(src, &[]).unwrap();
        assert_eq!(
            out,
            "\nprintf(\"café \\µ=%d\", (1)); /* µ */ x = (1); // é d\n"
        );
    }

    #[test]
    fn pragma_and_include_ignored() {
        let src = "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n#include <x.h>\nok();\n";
        let out = preprocess(src, &[]).unwrap();
        assert!(out.contains("ok();"));
    }

    #[test]
    fn unterminated_ifdef_errors() {
        assert!(preprocess("#ifdef A\n", &[]).is_err());
    }

    #[test]
    fn line_numbers_preserved_for_lexer_spans() {
        // Directive lines become empty lines, so spans still map correctly.
        let out = preprocess("#define A 1\nx;\n", &[]).unwrap();
        assert_eq!(out.lines().count(), 2);
        assert_eq!(out.lines().nth(1).unwrap(), "x;");
    }
}
