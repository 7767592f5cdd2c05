//! The few lines of JSON writing the harness needs (reading goes
//! through the repo's own `report::json::parse`).

/// A JSON number with all the digits the `f64` has; `null` for a value
/// that is not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// An object from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedup_stacks::report::json::parse;

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(1e-7), "0.0000001");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn what_is_written_parses_back() {
        let doc = object([
            ("name", string("a \"quoted\" \\ line\nnext\u{1}")),
            ("values", array([num(1.5), num(-2.0)])),
        ]);
        let v = parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("name").and_then(|s| s.as_str()),
            Some("a \"quoted\" \\ line\nnext\u{1}")
        );
        assert_eq!(
            v.get("values").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(2)
        );
    }
}
