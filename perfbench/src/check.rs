//! The answer checker: reads the program's JSON replies with a parser of
//! its own and compares their rows with rows computed from the model, so
//! no check trusts the program's own rendering or parsing code.

use std::collections::BTreeMap;
use std::fmt;

/// One answer cell as the protocol renders it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    Int(i64),
    Str(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Str(s) => write!(f, "{s:?}"),
        }
    }
}

pub type Row = Vec<Cell>;

/// What the checker made of one reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The program reported a failure (`ok:false`, a partial answer, or a
    /// reply that is not a protocol object).
    Failed(String),
    /// The program answered, but with rows the model does not predict.
    Wrong(String),
}

/// A JSON value, just enough of it for protocol replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    m.insert(key, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                Ok(Json::Num(
                    String::from_utf8_lossy(&self.s[start..self.i]).into_owned(),
                ))
            }
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("bad escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                                .map_err(|e| e.to_string())?;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// The `rows` array of a reply, as cells.
fn rows_of(doc: &Json) -> Result<Vec<Row>, String> {
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("reply has no `rows` array".into());
    };
    rows.iter()
        .map(|row| match row {
            Json::Arr(cells) => cells
                .iter()
                .map(|c| match c {
                    Json::Str(s) => Ok(Cell::Str(s.clone())),
                    Json::Num(n) => n
                        .parse::<i64>()
                        .map(Cell::Int)
                        .map_err(|_| format!("non-integer cell {n}")),
                    other => Err(format!("unexpected cell {other:?}")),
                })
                .collect(),
            other => Err(format!("row is not an array: {other:?}")),
        })
        .collect()
}

/// Compare rows as multisets: answer order is the program's business.
fn compare(mut got: Vec<Row>, expected: &[Row]) -> Verdict {
    let mut want = expected.to_vec();
    got.sort();
    want.sort();
    if got == want {
        return Verdict::Ok;
    }
    let show = |r: &Row| {
        let cells: Vec<String> = r.iter().map(Cell::to_string).collect();
        format!("[{}]", cells.join(","))
    };
    if let Some(r) = want.iter().find(|r| !got.contains(r)) {
        return Verdict::Wrong(format!(
            "missing row {} ({} rows, {} expected)",
            show(r),
            got.len(),
            want.len()
        ));
    }
    if let Some(r) = got.iter().find(|r| !want.contains(r)) {
        return Verdict::Wrong(format!(
            "unexpected row {} ({} rows, {} expected)",
            show(r),
            got.len(),
            want.len()
        ));
    }
    Verdict::Wrong(format!(
        "row multiplicities differ ({} rows, {} expected)",
        got.len(),
        want.len()
    ))
}

/// Check one `fedoo serve` query reply line against the expected rows.
pub fn check_query_reply(line: &str, expected: &[Row]) -> Verdict {
    let doc = match parse_json(line) {
        Ok(doc) => doc,
        Err(e) => return Verdict::Failed(format!("unparseable reply ({e}): {line}")),
    };
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Verdict::Failed(format!("not ok: {line}"));
    }
    if doc.get("complete") != Some(&Json::Bool(true)) {
        return Verdict::Failed(format!("incomplete answer: {line}"));
    }
    check_rows(&doc, expected)
}

fn check_rows(doc: &Json, expected: &[Row]) -> Verdict {
    let rows = match rows_of(doc) {
        Ok(rows) => rows,
        Err(e) => return Verdict::Wrong(e),
    };
    if let Some(Json::Num(n)) = doc.get("count") {
        if n.parse::<usize>().ok() != Some(rows.len()) {
            return Verdict::Wrong(format!("count {n} but {} rows", rows.len()));
        }
    }
    compare(rows, expected)
}

/// Check a mutate reply: it must succeed and name the object identity
/// the model predicts for the inserted book.
pub fn check_mutate_reply(line: &str, expected_oid: &str) -> Verdict {
    let doc = match parse_json(line) {
        Ok(doc) => doc,
        Err(e) => return Verdict::Failed(format!("unparseable reply ({e}): {line}")),
    };
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Verdict::Failed(format!("not ok: {line}"));
    }
    match doc.get("oid").and_then(Json::as_str) {
        Some(oid) if oid == expected_oid => Verdict::Ok,
        other => Verdict::Wrong(format!(
            "mutate returned oid {other:?}, expected {expected_oid}"
        )),
    }
}

/// The checker's own test: it must flag a wrong row set, a missing row,
/// a failed reply and a partial answer, and accept a right one. Run at
/// the start of every benchmark run, so a checker that accepts anything
/// cannot go unnoticed.
pub fn self_test() -> Result<(), String> {
    let row = |oid: &str, title: &str, year: i64| {
        vec![
            Cell::Str(oid.into()),
            Cell::Str(title.into()),
            Cell::Int(year),
        ]
    };
    let expected = vec![
        row("@book.1", "b0", 1900),
        row("@publication.1", "b1", 1901),
    ];
    let reply = |rows: &str, ok: bool, complete: bool| {
        format!(
            "{{\"ok\":{ok},\"request_id\":\"r1\",\"op\":\"query\",\"generation\":0,\
             \"vars\":[\"X\",\"T\",\"Y\"],\"rows\":[{rows}],\"count\":{},\
             \"from_cache\":false,\"complete\":{complete}}}",
            rows.matches('[').count()
        )
    };
    let both = r#"["@publication.1","b1",1901],["@book.1","b0",1900]"#;
    let cases = [
        ("right rows", reply(both, true, true), true),
        (
            "wrong row set",
            reply(
                r#"["@book.1","b0",1900],["@publication.1","b1",1902]"#,
                true,
                true,
            ),
            false,
        ),
        (
            "missing row",
            reply(r#"["@book.1","b0",1900]"#, true, true),
            false,
        ),
        ("ok:false", reply(both, false, true), false),
        ("complete:false", reply(both, true, false), false),
    ];
    for (name, line, accept) in cases {
        let verdict = check_query_reply(&line, &expected);
        if (verdict == Verdict::Ok) != accept {
            return Err(format!("checker self-test `{name}`: got {verdict:?}"));
        }
    }
    if check_mutate_reply(r#"{"ok":true,"oid":"@book.9"}"#, "@book.8") == Verdict::Ok {
        return Err("checker self-test: wrong mutate oid accepted".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn flags_wrong_row_set_and_missing_row() {
        let expected = vec![
            vec![Cell::Str("@book.1".into()), Cell::Int(1900)],
            vec![Cell::Str("@book.2".into()), Cell::Int(1901)],
        ];
        let wrong =
            r#"{"ok":true,"rows":[["@book.1",1900],["@book.2",1999]],"count":2,"complete":true}"#;
        assert!(matches!(
            check_query_reply(wrong, &expected),
            Verdict::Wrong(_)
        ));
        let missing = r#"{"ok":true,"rows":[["@book.1",1900]],"count":1,"complete":true}"#;
        assert!(matches!(
            check_query_reply(missing, &expected),
            Verdict::Wrong(_)
        ));
        let right =
            r#"{"ok":true,"rows":[["@book.2",1901],["@book.1",1900]],"count":2,"complete":true}"#;
        assert_eq!(check_query_reply(right, &expected), Verdict::Ok);
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let doc = parse_json(r#"{"a":[1,"x\"y",{"b":null}],"c":true}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        let Some(Json::Arr(items)) = doc.get("a") else {
            panic!("array expected")
        };
        assert_eq!(items[1], Json::Str("x\"y".into()));
    }
}
