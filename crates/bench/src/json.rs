//! Minimal JSON emission for the machine-readable `BENCH_*.json` baseline
//! files. The build environment has no serde, so this is a tiny by-hand
//! writer: objects and arrays are built as strings, with string escaping
//! and non-finite-float handling centralized here.

use std::fmt::Write;

/// An ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        let v = escape(value);
        self.fields.push((key.to_string(), format!("\"{v}\"")));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (6 significant decimals; non-finite → `null`).
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        let v = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a field whose value is already-rendered JSON (a nested object
    /// or array).
    pub fn raw(mut self, key: &str, value: String) -> Obj {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push('}');
        out
    }
}

/// The shared machine/profile stamp every committed `BENCH_*.json`
/// carries. Hardware thread count and cargo profile make the
/// "single-core container, release build" caveat machine-readable: a
/// consumer comparing baselines can reject apples-to-oranges numbers
/// (different core counts, or a dev-profile run) without parsing prose.
pub fn machine_stamp() -> String {
    Obj::new()
        .int(
            "hardware_threads",
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        )
        .str("os", std::env::consts::OS)
        .str("arch", std::env::consts::ARCH)
        .str(
            "cargo_profile",
            if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            },
        )
        .build()
}

/// Renders a JSON array from already-rendered element strings.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Pretty-prints a compact JSON string with two-space indentation — enough
/// for the structures this crate emits (no escaped quotes containing
/// braces are ever present in our keys/values beyond `escape` output).
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for ch in compact.chars() {
        if in_str {
            out.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                depth += 1;
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(ch);
            }
            ',' => {
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            ':' => {
                out.push(ch);
                out.push(' ');
            }
            _ => out.push(ch),
        }
    }
    out.push('\n');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_rendering() {
        let o = Obj::new()
            .str("name", "he said \"hi\"")
            .int("n", 3)
            .num("x", 1.5)
            .num("bad", f64::NAN)
            .bool("ok", true)
            .raw("arr", array(vec!["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            o,
            r#"{"name":"he said \"hi\"","n":3,"x":1.500000,"bad":null,"ok":true,"arr":[1,2]}"#
        );
    }

    #[test]
    fn machine_stamp_has_the_caveat_fields() {
        let stamp = machine_stamp();
        for key in ["hardware_threads", "os", "arch", "cargo_profile"] {
            assert!(
                stamp.contains(&format!("\"{key}\":")),
                "missing {key}: {stamp}"
            );
        }
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().build(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }

    #[test]
    fn pretty_is_reversible_whitespace() {
        let compact = Obj::new()
            .str("a", "x")
            .raw("b", array(vec![Obj::new().int("c", 1).build()]))
            .build();
        let pretty = pretty(&compact);
        let stripped: String = {
            // Strip only whitespace outside strings.
            let mut out = String::new();
            let mut in_str = false;
            let mut escaped = false;
            for ch in pretty.chars() {
                if in_str {
                    out.push(ch);
                    if escaped {
                        escaped = false;
                    } else if ch == '\\' {
                        escaped = true;
                    } else if ch == '"' {
                        in_str = false;
                    }
                } else if ch == '"' {
                    in_str = true;
                    out.push(ch);
                } else if !ch.is_whitespace() {
                    out.push(ch);
                }
            }
            out
        };
        assert_eq!(stripped, compact);
    }
}
