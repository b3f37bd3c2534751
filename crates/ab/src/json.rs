//! Just enough JSON for an A/B summary and `BENCHMARK.json` (the build has
//! no serde): objects with their keys in document order, arrays, strings,
//! numbers (`NaN` too, as Python's `json` writes it), `true` / `false` /
//! `null`; and a writer in Python's `json.dump(..., indent=1)` layout.

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The field `key` of an object, to change.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets the field `key` of an object, appending it when it is new.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An object's fields, in document order; none for any other value.
    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// An array's items; none for any other value.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), at: 0 };
    let v = p.value()?;
    p.space();
    match p.at == p.s.len() {
        true => Ok(v),
        false => Err(format!("trailing text at byte {}", p.at)),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.s[self.at..].starts_with(token.as_bytes());
        self.at += if hit { token.len() } else { 0 };
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.s.get(self.at) != Some(&byte) {
            return Err(format!("expected `{}` at byte {}", byte as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.space();
        let v = match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if !self.eat("}") {
                    loop {
                        self.space();
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value()?));
                        self.space();
                        if self.eat("}") {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Value::Obj(fields)
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if !self.eat("]") {
                    loop {
                        items.push(self.value()?);
                        self.space();
                        if self.eat("]") {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Value::Arr(items)
            }
            Some(b'"') => Value::Str(self.string()?),
            _ if self.eat("true") => Value::Bool(true),
            _ if self.eat("false") => Value::Bool(false),
            _ if self.eat("null") => Value::Null,
            _ if self.eat("NaN") => Value::Num(f64::NAN),
            _ => {
                let start = self.at;
                let num = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
                while self.s.get(self.at).is_some_and(num) {
                    self.at += 1;
                }
                let token = std::str::from_utf8(&self.s[start..self.at]).unwrap_or_default();
                Value::Num(token.parse().map_err(|_| format!("bad value at byte {start}"))?)
            }
        };
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.at..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '"' | '\\' | '/' => e,
                        _ => return Err(format!("unsupported escape `\\{e}`")),
                    });
                }
                c => out.push(c),
            }
        }
    }
}

/// `v` in Python's `json.dump(v, f, indent=1)` layout, and a newline.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write(v, 0, &mut out);
    out.push('\n');
    out
}

fn write(v: &Value, depth: usize, out: &mut String) {
    let pad = |depth: usize, out: &mut String| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', depth));
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_nan() => out.push_str("NaN"),
        // Integral values as Python prints an int: no `.0`.
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => out.push_str(&format!("{n:.0}")),
        Value::Num(n) => out.push_str(&format!("{n:?}")),
        Value::Str(s) => quote(s, out),
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                pad(depth + 1, out);
                write(item, depth + 1, out);
            }
            pad(depth, out);
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                pad(depth + 1, out);
                quote(key, out);
                out.push_str(": ");
                write(value, depth + 1, out);
            }
            pad(depth, out);
            out.push('}');
        }
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_survives_a_write_and_a_parse() {
        let text =
            "{\"a\": [1, 2.5, -3e-05, NaN], \"b\": {\"c\": \"x\\\"y\"}, \"d\": [], \"e\": null}";
        let v = parse(text).unwrap();
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str), Some("x\"y"));
        assert_eq!(v.get("a").map(|a| a.items().len()), Some(4));
        let again = parse(&to_string(&v)).unwrap();
        assert_eq!(again.get("a").unwrap().items()[2].as_f64(), Some(-3e-05));
        assert!(again.get("a").unwrap().items()[3].as_f64().unwrap().is_nan());
        assert_eq!(again.get("d"), Some(&Value::Arr(Vec::new())));
        assert!(to_string(&v).starts_with("{\n \"a\": [\n  1,\n  2.5,"));
    }

    #[test]
    fn malformed_text_is_an_error() {
        for bad in ["{\"a\" 1}", "[1, 2", "{\"a\": tru}", "\"open", "1 2"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
