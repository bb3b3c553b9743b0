//! A minimal JSON value for the result lines (the workspace has no serde).

use std::fmt;

#[derive(Clone, Debug)]
pub enum J {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Bool(b) => write!(f, "{b}"),
            J::Int(i) => write!(f, "{i}"),
            // Shortest round-trip form: every digit as measured.
            J::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::Num(1.5)),
            ("b", J::Arr(vec![J::Int(2), J::Bool(true)])),
            ("c", J::str("x\"y")),
            ("d", J::Num(3.0)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 1.5, "b": [2, true], "c": "x\"y", "d": 3.0}"#
        );
    }
}
