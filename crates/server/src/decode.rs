//! Ingest body decoding: a JSON or CSV record body goes in one pass
//! straight to column-major `u32` codes, ready to push as a
//! [`CodeChunk`].
//!
//! The label → code [`Catalog`] is built once from the server's axes.
//! Interning *is* the validation: a label outside its axis's vocabulary,
//! or a row with the wrong number of labels, is a failed lookup that
//! rejects the whole body before anything reaches a shard. Labels are
//! looked up where they lie in the body; only a JSON label holding an
//! escape or a CSV field holding `""` is copied first. The code columns
//! are sized from the body length, never from a count the body declares.
//!
//! JSON bodies follow `serde_json::parse`'s grammar exactly: ASCII
//! whitespace between tokens, `\uXXXX` escapes including surrogate
//! pairs, object keys in any order, unknown keys (their values are
//! checked and skipped), duplicate keys (the first one wins), `at` as an
//! integer, a float or `null`, and the bare top-level array of rows.
//! Skipped values are walked without recursion, so nesting depth costs
//! heap, not stack. CSV bodies are read by `df_data::csv`'s own record
//! and field readers under `CsvOptions::default()`.

use df_core::{DfError, Result};
use df_data::csv::{CsvOptions, Fields, Records};
use df_data::replay::{CodeChunk, CodeSchema};
use df_data::DataError;
use df_prob::contingency::Axis;
use std::collections::HashMap;
use std::sync::Arc;

/// Longest label echoed back in an error message.
const SHOWN_LABEL_BYTES: usize = 64;

/// Most rows a coder reserves room for up front; a larger body grows its
/// columns as it goes.
const MAX_RESERVED_ROWS: usize = 1 << 16;

/// The server's label → code catalog: the schema every chunk shares,
/// plus one label → code map per axis.
pub(crate) struct Catalog {
    schema: Arc<CodeSchema>,
    lookups: Vec<HashMap<String, u32>>,
}

impl Catalog {
    /// The catalog of `axes`, in record order.
    pub(crate) fn new(axes: &[Axis]) -> Self {
        let schema = CodeSchema::from_axes(axes);
        let lookups = schema
            .columns()
            .iter()
            .map(|(_, labels)| (0u32..).zip(labels).map(|(c, l)| (l.clone(), c)).collect())
            .collect();
        Self {
            schema: Arc::new(schema),
            lookups,
        }
    }

    /// Decodes a JSON body: an array of label rows, or an object with a
    /// `rows` array and an optional `at` timestamp, which is returned.
    pub(crate) fn decode_json(&self, body: &[u8]) -> Result<(CodeChunk, Option<f64>)> {
        let text = std::str::from_utf8(body)
            .map_err(|_| DfError::Invalid("JSON body is not valid UTF-8".into()))?;
        let mut json = Json {
            text,
            pos: 0,
            scratch: String::new(),
        };
        let mut coder = self.coder(self.rows_in(text.len()));
        json.skip_ws();
        let at = match json.peek() {
            Some(b'[') => {
                json.rows(&mut coder)?;
                None
            }
            Some(b'{') => json.object(&mut coder)?,
            _ => {
                return Err(DfError::Invalid(
                    "ingest body must be an array of label rows or an object with `rows`".into(),
                ))
            }
        };
        json.skip_ws();
        if json.pos != text.len() {
            return Err(json.error("trailing input"));
        }
        Ok((coder.finish()?, at))
    }

    /// Decodes a header-less CSV body, one record per row.
    pub(crate) fn decode_csv(&self, body: &[u8]) -> Result<CodeChunk> {
        let bad = |e: DataError| DfError::Invalid(format!("bad CSV body: {e}"));
        let opts = CsvOptions::default();
        let mut records = Records::new(body);
        let mut coder = self.coder(self.rows_in(body.len()));
        while let Some((line, record)) = records.next_record(&opts).map_err(bad)? {
            let mut fields = Fields::new(record, &opts, line);
            while let Some(label) = fields.next_field().map_err(bad)? {
                coder.cell(label)?;
            }
            coder.end_row()?;
        }
        coder.finish()
    }

    /// Interns rows of label strings, with the same checks and errors as
    /// the body decoders.
    pub(crate) fn encode_rows(&self, rows: &[Vec<String>]) -> Result<CodeChunk> {
        let mut coder = self.coder(rows.len());
        for row in rows {
            for label in row {
                coder.cell(label)?;
            }
            coder.end_row()?;
        }
        coder.finish()
    }

    /// The rows a body of `body_len` bytes holds at two bytes per label:
    /// the code columns are sized from the body length, never from a
    /// count the body declares.
    fn rows_in(&self, body_len: usize) -> usize {
        body_len / (2 * self.lookups.len()).max(1)
    }

    /// A coder with room for `rows` rows, up to [`MAX_RESERVED_ROWS`].
    fn coder(&self, rows: usize) -> Coder<'_> {
        let reserved = rows.min(MAX_RESERVED_ROWS);
        Coder {
            catalog: self,
            columns: (0..self.lookups.len())
                .map(|_| Vec::with_capacity(reserved))
                .collect(),
            row: 0,
            cells: 0,
        }
    }

    /// The code of `label` on axis `axis`, if it is one of its labels.
    fn code(&self, axis: usize, label: &str) -> Option<u32> {
        self.lookups.get(axis)?.get(label).copied()
    }

    fn axis_name(&self, axis: usize) -> &str {
        self.schema
            .columns()
            .get(axis)
            .map_or("", |(name, _)| name.as_str())
    }
}

/// Interns one body's rows into code columns, a cell at a time.
struct Coder<'c> {
    catalog: &'c Catalog,
    columns: Vec<Vec<u32>>,
    /// The row being read (0-based) and the cells read from it so far.
    row: usize,
    cells: usize,
}

impl Coder<'_> {
    /// Interns the next cell of the current row. Cells past the schema's
    /// arity are only counted, for [`Coder::end_row`] to report.
    fn cell(&mut self, label: &str) -> Result<()> {
        if let Some(column) = self.columns.get_mut(self.cells) {
            let code = self.catalog.code(self.cells, label).ok_or_else(|| {
                DfError::Invalid(format!(
                    "row {}: `{}` is not a label of axis `{}`",
                    self.row,
                    shown(label),
                    self.catalog.axis_name(self.cells)
                ))
            })?;
            column.push(code);
        }
        self.cells += 1;
        Ok(())
    }

    /// Closes the current row, which must hold one label per axis.
    fn end_row(&mut self) -> Result<()> {
        let axes = self.columns.len();
        if self.cells != axes {
            let names: Vec<&str> = (0..axes).map(|a| self.catalog.axis_name(a)).collect();
            return Err(DfError::Invalid(format!(
                "row {} has {} fields; the schema has {axes} axes ({})",
                self.row,
                self.cells,
                names.join(", ")
            )));
        }
        self.row += 1;
        self.cells = 0;
        Ok(())
    }

    fn finish(self) -> Result<CodeChunk> {
        if self.row == 0 {
            return Err(DfError::Invalid("no records in request body".into()));
        }
        CodeChunk::new(Arc::clone(&self.catalog.schema), self.columns)
            .map_err(|e| DfError::Invalid(e.to_string()))
    }
}

/// `label` as quoted in an error message: cut to [`SHOWN_LABEL_BYTES`]
/// on a char boundary, so a megabyte label does not come back whole.
fn shown(label: &str) -> String {
    if label.len() <= SHOWN_LABEL_BYTES {
        return label.to_string();
    }
    let cut = label.floor_char_boundary(SHOWN_LABEL_BYTES);
    format!(
        "{}… ({} bytes)",
        label.get(..cut).unwrap_or_default(),
        label.len()
    )
}

/// A cursor over a JSON body.
struct Json<'a> {
    text: &'a str,
    pos: usize,
    /// The unescaped text of the last string that held an escape.
    scratch: String,
}

impl Json<'_> {
    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    fn peek(&self) -> Option<u8> {
        self.byte(self.pos)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn error(&self, what: &str) -> DfError {
        DfError::Invalid(format!("bad JSON body: {what} at byte {}", self.pos))
    }

    fn eat(&mut self, byte: u8) -> Result<()> {
        if self.peek() != Some(byte) {
            return Err(self.error(&format!("expected `{}`", char::from(byte))));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if !self
            .text
            .get(self.pos..)
            .unwrap_or_default()
            .starts_with(word)
        {
            return Err(self.error("unexpected token"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// Reads a bracketed, comma-separated list whose opening bracket is
    /// at the cursor, calling `item` at the start of each element.
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or a closing bracket")),
            }
        }
    }

    /// Reads the `{"rows": […], "at": t}` form and returns `at`. The first
    /// `rows` and the first `at` count; every other member is checked and
    /// skipped.
    fn object(&mut self, coder: &mut Coder<'_>) -> Result<Option<f64>> {
        let mut rows = false;
        let mut at = None;
        self.list(b'}', |json| {
            let key = json.string()?;
            let (is_rows, is_at) = (key == "rows", key == "at");
            json.skip_ws();
            json.eat(b':')?;
            json.skip_ws();
            if is_rows && !rows {
                rows = true;
                json.rows(coder)
            } else if is_at && at.is_none() {
                at = Some(json.at()?);
                Ok(())
            } else {
                json.skip_value()
            }
        })?;
        if !rows {
            return Err(DfError::Invalid(
                "ingest body object has no `rows` array".into(),
            ));
        }
        Ok(at.flatten())
    }

    /// The body timestamp: a number, or `null` for none.
    fn at(&mut self) -> Result<Option<f64>> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| None),
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => Err(DfError::Invalid("`at` must be a number or null".into())),
        }
    }

    /// Reads the array of label rows into `coder`.
    fn rows(&mut self, coder: &mut Coder<'_>) -> Result<()> {
        if self.peek() != Some(b'[') {
            return Err(DfError::Invalid(
                "`rows` must be an array of label rows".into(),
            ));
        }
        self.list(b']', |json| {
            if json.peek() != Some(b'[') {
                return Err(DfError::Invalid(format!(
                    "row {} is not an array of labels",
                    coder.row
                )));
            }
            json.list(b']', |json| {
                if json.peek() != Some(b'"') {
                    return Err(DfError::Invalid(format!(
                        "row {} holds a non-string where a label string was expected",
                        coder.row
                    )));
                }
                let label = json.string()?;
                coder.cell(label)
            })?;
            coder.end_row()
        })
    }

    /// Reads a string, borrowed from the body unless it holds an escape.
    fn string(&mut self) -> Result<&str> {
        self.eat(b'"')?;
        let start = self.pos;
        let end = self.plain_run_end();
        if self.byte(end) == Some(b'"') {
            self.pos = end + 1;
            return Ok(self.text.get(start..end).unwrap_or_default());
        }
        self.scratch.clear();
        loop {
            let end = self.plain_run_end();
            self.scratch
                .push_str(self.text.get(self.pos..end).unwrap_or_default());
            self.pos = end;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.scratch);
                }
                Some(b'\\') => self.escape()?,
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The end of the run of plain string bytes at the cursor: the next
    /// `"` or `\`, or the end of the body. Both are char boundaries.
    fn plain_run_end(&self) -> usize {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        self.pos
            + rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len())
    }

    /// Decodes the escape whose `\` is at the cursor onto `scratch` and
    /// moves past it.
    fn escape(&mut self) -> Result<()> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hi = self.hex4()?;
                let code = if (0xD800..=0xDBFF).contains(&hi) {
                    // A high surrogate pairs with the low surrogate escape
                    // that must follow it.
                    if self.byte(self.pos + 1) != Some(b'\\')
                        || self.byte(self.pos + 2) != Some(b'u')
                    {
                        return Err(self.error("unpaired high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("bad \\u code point"))?
            }
            _ => return Err(self.error("bad escape")),
        };
        self.scratch.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits after the `u` at the cursor, parsed as
    /// `serde_json::parse` parses them; leaves the cursor on the last.
    fn hex4(&mut self) -> Result<u32> {
        let code = self
            .text
            .as_bytes()
            .get(self.pos + 1..self.pos + 5)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads a number as `serde_json::parse` does: an `i64` when the token
    /// is one, an `f64` otherwise.
    fn number(&mut self) -> Result<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = self.text.get(start..self.pos).unwrap_or_default();
        let value = if float {
            token.parse().ok()
        } else {
            token
                .parse::<i64>()
                .map(|i| i as f64)
                .ok()
                .or_else(|| token.parse().ok())
        };
        value.ok_or_else(|| self.error("bad number"))
    }

    /// Checks and skips one value of any shape. Open containers are kept
    /// on a heap stack (`true` for an object), not the call stack.
    fn skip_value(&mut self) -> Result<()> {
        let mut open: Vec<bool> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(open_bracket @ (b'[' | b'{')) => {
                    let object = open_bracket == b'{';
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(if object { b'}' } else { b']' }) {
                        self.pos += 1;
                    } else {
                        open.push(object);
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                _ => return Err(self.error("expected a value")),
            }
            // A value ended: close every container it completes.
            loop {
                let Some(&object) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if object {
                            self.skip_ws();
                            self.key()?;
                        }
                        break;
                    }
                    Some(b']') if !object => {
                        self.pos += 1;
                        open.pop();
                    }
                    Some(b'}') if object => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ => return Err(self.error("expected `,` or a closing bracket")),
                }
            }
        }
    }

    /// Checks and skips an object key and its `:`.
    fn key(&mut self) -> Result<()> {
        self.string()?;
        self.skip_ws();
        self.eat(b':')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::classify;
    use df_data::chunks::CsvChunks;
    use proptest::prelude::*;
    use serde_json::Value;

    /// Labels that need escaping in JSON or quoting in CSV, an empty
    /// label, a long label and a twenty-label axis.
    fn axes() -> Vec<Axis> {
        vec![
            Axis::from_strs("y", &["no", "yes", "y0"]).unwrap(),
            Axis::from_strs("g", &["a", "\u{e9}", "\u{1F600} x", "c,d", ""]).unwrap(),
            Axis::from_strs(
                "r",
                &[
                    "q\"t",
                    "back\\s",
                    "line\nbreak",
                    " pad ",
                    "/",
                    "a much longer label",
                ],
            )
            .unwrap(),
            Axis::new("z", (0..20).map(|i| format!("z{i}")).collect()).unwrap(),
        ]
    }

    fn codes(chunk: &CodeChunk) -> Vec<Vec<u32>> {
        chunk.columns().to_vec()
    }

    fn assert_invalid(result: Result<impl std::fmt::Debug>, body: &str) {
        match result {
            Ok(v) => panic!("{body:?} was accepted as {v:?}"),
            Err(e) => assert_eq!(classify(&e), (400, "invalid"), "{body:?}: {e}"),
        }
    }

    #[test]
    fn every_json_form_decodes_to_the_same_codes() {
        let catalog = Catalog::new(&axes());
        let expected = vec![vec![1], vec![1], vec![4], vec![3]];
        for (body, at) in [
            (r#"{"rows":[["yes","é","/","z3"]],"at":5}"#, Some(5.0)),
            (
                " \t{\n\"at\"\r:\x0C5.0 , \"rows\" : [ [ \"yes\" ,\"\u{e9}\",\"/\" , \"z3\" ] ] }\n",
                Some(5.0),
            ),
            (r#"{"rows":[["\u0079es","\u00E9","\/","z\u0033"]],"at":5e0}"#, Some(5.0)),
            (r#"{"\u0072ows":[["yes","é","/","z3"]],"\u0061t":null}"#, None),
            (r#"{"rows":[["yes","é","/","z3"]]}"#, None),
            (r#"[["yes","é","/","z3"]]"#, None),
            (
                r#"{"note":{"deep":[1,2.5,-3e2,null,true,false,"s\"\\",{}]},"rows":[["yes","é","/","z3"]],
                   "at":-0,"rows":[["bogus"]],"at":"x","note":[]}"#,
                Some(0.0),
            ),
        ] {
            let (chunk, got) = catalog.decode_json(body.as_bytes()).unwrap();
            assert_eq!(codes(&chunk), expected, "{body}");
            assert_eq!(got, at, "{body}");
        }
        // Surrogate pairs, escaped quotes and backslashes, and the
        // issue-style all-escape label.
        let (chunk, _) = catalog
            .decode_json(
                br#"[["\u0079\u0030","\ud83d\ude00 x","q\"t","z19"],["no","","back\\s","z0"]]"#,
            )
            .unwrap();
        assert_eq!(
            codes(&chunk),
            vec![vec![2, 0], vec![2, 4], vec![0, 1], vec![19, 0]]
        );
    }

    #[test]
    fn malformed_json_bodies_are_invalid() {
        let catalog = Catalog::new(&axes());
        for body in [
            "",
            "  ",
            "null",
            "5",
            "\"rows\"",
            "[]",
            "{}",
            r#"{"rows":5}"#,
            r#"{"rows":null,"rows":[["no","a","/","z0"]]}"#,
            r#"{"rows":[5]}"#,
            r#"{"rows":[[5]]}"#,
            r#"[["maybe","a","/","z0"]]"#,
            r#"[["no"]]"#,
            r#"[[]]"#,
            r#"[["no","a","/","z0","extra"]]"#,
            r#"[["no","a","/","z0"]] x"#,
            r#"[["no","a","/","z0"],]"#,
            r#"[["no","a","/","z0"]"#,
            r#"{"rows":[["no","a","/","z0"]],"at":"5"}"#,
            r#"{"rows":[["no","a","/","z0"]],"at":true}"#,
            r#"{"rows":[["no","a","/","z0"]],"at":-}"#,
            r#"{"rows":[["no","a","/","z0"]],"x":[1,]}"#,
            r#"{"rows":[["no","a","/","z0"]],"x":nul}"#,
            r#"{"rows":[["no","a","/","z0"]],"x":"\q"}"#,
            r#"{"rows":[["no","a","/","z0"]] "at":1}"#,
            r#"[["\ud83d","a","/","z0"]]"#,
            r#"[["\ud83d\u0041","a","/","z0"]]"#,
            r#"[["\udc00","a","/","z0"]]"#,
            r#"[["\u00","a","/","z0"]]"#,
            r#"[["no"#,
        ] {
            assert_invalid(catalog.decode_json(body.as_bytes()), body);
        }
        assert_invalid(catalog.decode_json(b"[[\"n\xffo\"]]"), "invalid UTF-8");
    }

    #[test]
    fn lookup_errors_name_the_row_the_label_and_the_axis() {
        let catalog = Catalog::new(&axes());
        let err = catalog
            .decode_json(br#"[["no","a","/","z0"],["no","zz","/","z0"]]"#)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("row 1") && msg.contains("`zz`") && msg.contains("axis `g`"),
            "{msg}"
        );
        let err = catalog.decode_csv(b"no,a,/,z0\nno,a,/\n").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("row 1 has 3 fields") && msg.contains("(y, g, r, z)"),
            "{msg}"
        );
        // A huge label comes back cut, with its length.
        let huge = "\u{e9}".repeat(100_000);
        let err = catalog
            .decode_json(format!("[[\"{huge}\"]]").as_bytes())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.len() < 300 && msg.contains("(200000 bytes)"), "{msg}");
    }

    #[test]
    fn skipped_values_nest_without_recursion() {
        let catalog = Catalog::new(&axes());
        let depth = 200_000;
        let nested = format!("{}0{}", "[{\"k\":".repeat(depth), "}]".repeat(depth));
        let body = format!(r#"{{"x":{nested},"rows":[["no","a","/","z0"]]}}"#);
        assert!(catalog.decode_json(body.as_bytes()).is_ok());
        let unclosed = format!(
            r#"{{"rows":[["no","a","/","z0"]],"x":{}}}"#,
            "[".repeat(depth)
        );
        assert_invalid(catalog.decode_json(unclosed.as_bytes()), "unclosed nesting");
    }

    #[test]
    fn every_csv_form_decodes_to_the_same_codes() {
        let catalog = Catalog::new(&axes());
        let expected = vec![vec![1, 0], vec![3, 4], vec![0, 2], vec![3, 19]];
        for body in [
            "yes,\"c,d\",\"q\"\"t\",z3\nno,,\"line\nbreak\",z19\n",
            "\r\n  yes , \"c,d\" ,\"q\"\"t\" ,z3\r\n\t\r\nno,  ,\"line\nbreak\",z19",
            "\n\n\"yes\",\"c,d\",\"q\"\"t\",\"z3\"\nno,\"\",\"line\nbreak\",z19\n\n",
        ] {
            let chunk = catalog.decode_csv(body.as_bytes()).unwrap();
            assert_eq!(codes(&chunk), expected, "{body:?}");
        }
        for body in [
            "",
            "\n \r\n\t\n",
            "no,a,/,\"z0",
            "no,a,/,\"z0\"x",
            "no,a,/\n",
            "no,a,/,z0,z1\n",
            "no,b,/,z0\n",
            "no,a,\"pad\",z0\n",
        ] {
            assert_invalid(catalog.decode_csv(body.as_bytes()), body);
        }
        assert_invalid(catalog.decode_csv(b"no,\xff,/,z0\n"), "invalid UTF-8");
    }

    #[test]
    fn label_rows_intern_like_bodies() {
        let catalog = Catalog::new(&axes());
        let row = |cells: &[&str]| cells.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        let chunk = catalog
            .encode_rows(&[row(&["yes", "c,d", " pad ", "z3"])])
            .unwrap();
        assert_eq!(codes(&chunk), vec![vec![1], vec![3], vec![3], vec![3]]);
        assert_invalid(catalog.encode_rows(&[]), "no rows");
        assert_invalid(catalog.encode_rows(&[row(&["yes", "a", "/"])]), "arity");
        assert_invalid(
            catalog.encode_rows(&[row(&["yes", "b", "/", "z0"])]),
            "label",
        );
    }

    // -------------------------------------------------------------------
    // Differential suite: the one-pass decoders against the string path
    // they replaced.
    // -------------------------------------------------------------------

    /// The replaced JSON path: `serde_json::parse`, then label rows out of
    /// the `Value` tree, then the vocabulary checks of [`oracle_codes`].
    fn oracle_json_rows(body: &[u8]) -> Result<(Vec<Vec<String>>, Option<f64>)> {
        let invalid = |m: String| DfError::Invalid(m);
        let text = std::str::from_utf8(body).map_err(|e| invalid(e.to_string()))?;
        let value = serde_json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let (rows_value, at) = match &value {
            Value::Arr(_) => (&value, None),
            Value::Obj(_) => {
                let at = match value.field("at") {
                    Value::Null => None,
                    Value::Float(f) => Some(*f),
                    Value::Int(i) => Some(*i as f64),
                    other => return Err(invalid(format!("at: {}", other.kind()))),
                };
                (value.field("rows"), at)
            }
            other => return Err(invalid(format!("body: {}", other.kind()))),
        };
        let outer = rows_value
            .as_arr("rows")
            .map_err(|e| invalid(e.to_string()))?;
        let mut rows = Vec::new();
        for row in outer {
            let cells = row.as_arr("row").map_err(|e| invalid(e.to_string()))?;
            let mut labels = Vec::new();
            for cell in cells {
                match cell {
                    Value::Str(s) => labels.push(s.clone()),
                    other => return Err(invalid(format!("cell: {}", other.kind()))),
                }
            }
            rows.push(labels);
        }
        Ok((rows, at))
    }

    /// The replaced CSV path: `CsvChunks` over the body into label rows.
    fn oracle_csv_rows(body: &[u8]) -> Result<Vec<Vec<String>>> {
        let invalid = |e: DataError| DfError::Invalid(e.to_string());
        let chunks = CsvChunks::new(body, CsvOptions::default(), 1 << 20).map_err(invalid)?;
        let mut rows = Vec::new();
        for chunk in chunks {
            rows.extend(chunk.map_err(invalid)?.rows().iter().cloned());
        }
        Ok(rows)
    }

    /// The replaced validation: arity, then vocabulary membership.
    fn oracle_codes(rows: &[Vec<String>], axes: &[Axis]) -> Result<Vec<Vec<u32>>> {
        if rows.is_empty() {
            return Err(DfError::Invalid("no records".into()));
        }
        let mut columns = vec![Vec::new(); axes.len()];
        for row in rows {
            if row.len() != axes.len() {
                return Err(DfError::Invalid("arity".into()));
            }
            for ((label, axis), column) in row.iter().zip(axes).zip(&mut columns) {
                let code = axis
                    .index_of(label)
                    .ok_or_else(|| DfError::Invalid("label".into()))?;
                column.push(code as u32);
            }
        }
        Ok(columns)
    }

    /// Same decision, same `(status, kind)` on reject, same codes and
    /// timestamp bits on accept.
    fn agree<T: PartialEq>(a: &Result<T>, b: &Result<T>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => classify(a) == classify(b),
            _ => false,
        }
    }

    /// A small deterministic generator (xorshift64*) for the bodies.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\n", "\t", "\r\n  ", "\x0C"])
        }
    }

    /// A label for cell `j`: usually one of its axis's labels, sometimes
    /// an unknown one.
    fn label(g: &mut Gen, axes: &[Axis], j: usize) -> String {
        if g.one_in(40) {
            return g
                .pick(&[
                    "maybe",
                    "YES",
                    "a ",
                    "z20",
                    "q\"t ",
                    "e\u{301}",
                    "line\r\nbreak",
                    "a much longer label",
                    "sixteen bytes!!!",
                ])
                .to_string();
        }
        let labels = axes[j % axes.len()].labels();
        labels[g.below(labels.len())].clone()
    }

    /// A row's cell count: usually the schema's arity.
    fn arity(g: &mut Gen, axes: &[Axis]) -> usize {
        if g.one_in(25) {
            g.below(axes.len() + 2)
        } else {
            axes.len()
        }
    }

    /// `s` as a JSON string, each character randomly escaped.
    fn json_string(g: &mut Gen, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str(if g.one_in(2) { "\\\"" } else { "\\u0022" }),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str(if g.one_in(2) { "\\n" } else { "\\u000A" }),
                '\r' => out.push_str("\\r"),
                '/' if g.one_in(2) => out.push_str("\\/"),
                c if g.one_in(4) => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn json_list(g: &mut Gen, open: char, items: &[String], close: char) -> String {
        let mut out = String::from(open);
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(g.ws());
            out.push_str(item);
            out.push_str(g.ws());
        }
        out.push(close);
        out
    }

    fn json_rows(g: &mut Gen, axes: &[Axis]) -> String {
        let rows: Vec<String> = (0..g.below(5) + usize::from(!g.one_in(8)))
            .map(|_| {
                if g.one_in(60) {
                    return g.pick(&["\"no\"", "{}", "null", "7"]).to_string();
                }
                let cells: Vec<String> = (0..arity(g, axes))
                    .map(|j| {
                        if g.one_in(60) {
                            g.pick(&["5", "null", "[]", "{\"a\":1}", "true", "-2.5"])
                                .to_string()
                        } else {
                            let l = label(g, axes, j);
                            json_string(g, &l)
                        }
                    })
                    .collect();
                json_list(g, '[', &cells, ']')
            })
            .collect();
        json_list(g, '[', &rows, ']')
    }

    /// Any JSON value, nested up to `depth`.
    fn json_value(g: &mut Gen, depth: usize) -> String {
        match g.below(if depth == 0 { 3 } else { 5 }) {
            0 => g
                .pick(&[
                    "0",
                    "-1",
                    "2.5",
                    "1e3",
                    "-0.0",
                    "12345678901234567890",
                    "null",
                    "true",
                    "false",
                ])
                .to_string(),
            1 => {
                let s = g
                    .pick(&["", "x", "\u{e9}\u{1F600}", "a\"b\\c/", "rows", "\n"])
                    .to_string();
                json_string(g, &s)
            }
            2 => g.pick(&["[]", "{}", "[[]]", "{\"\":{}}"]).to_string(),
            3 => {
                let items: Vec<String> =
                    (0..g.below(4)).map(|_| json_value(g, depth - 1)).collect();
                json_list(g, '[', &items, ']')
            }
            _ => {
                let members: Vec<String> = (0..g.below(4))
                    .map(|_| {
                        let key = g.pick(&["k", "rows", "at", ""]).to_string();
                        let key = json_string(g, &key);
                        format!("{key}{}:{}{}", g.ws(), g.ws(), json_value(g, depth - 1))
                    })
                    .collect();
                json_list(g, '{', &members, '}')
            }
        }
    }

    fn json_at(g: &mut Gen) -> String {
        let valid = [
            "12",
            "1000.5",
            "-0",
            "1e3",
            "1E-2",
            "null",
            "99999999999999999999",
            "01",
            "1.",
            "-.5",
        ];
        let invalid = ["\"5\"", "true", "[]", "-", "1e", "+1", "1.5.5"];
        let choices = if g.one_in(6) {
            &invalid[..]
        } else {
            &valid[..]
        };
        g.pick(choices).to_string()
    }

    /// Shuffled members: `rows` (usually), `at` (often), unknown keys and
    /// duplicates of both, keys spelled with random escapes.
    fn json_body(g: &mut Gen, axes: &[Axis]) -> Vec<u8> {
        let rows = json_rows(g, axes);
        let text = if g.one_in(4) {
            format!("{}{rows}{}", g.ws(), g.ws())
        } else {
            let mut members: Vec<(String, String)> = Vec::new();
            if !g.one_in(10) {
                members.push((json_string(g, "rows"), rows));
            }
            if !g.one_in(3) {
                members.push((json_string(g, "at"), json_at(g)));
            }
            for _ in 0..g.below(3) {
                let key = g
                    .pick(&["note", "ROWS", "row", "rows ", "", "A"])
                    .to_string();
                members.push((json_string(g, &key), json_value(g, 3)));
            }
            if g.one_in(4) {
                members.push((json_string(g, "rows"), json_rows(g, axes)));
            }
            if g.one_in(4) {
                members.push((json_string(g, "at"), json_at(g)));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, g.below(i + 1));
            }
            let members: Vec<String> = members
                .into_iter()
                .map(|(k, v)| format!("{k}{}:{}{v}", g.ws(), g.ws()))
                .collect();
            json_list(g, '{', &members, '}')
        };
        mutated(g, text.into_bytes())
    }

    /// `label` as a CSV field: quoted when it must be and sometimes when
    /// it need not, padded with whitespace trimming removes.
    fn csv_field(g: &mut Gen, label: &str) -> String {
        let must_quote = label.contains([',', '"', '\n', '\r']) || label.trim() != label;
        let (lead, trail) = (g.pick(&["", "", " ", "\t"]), g.pick(&["", "", " ", "  "]));
        if must_quote || g.one_in(4) {
            format!("{lead}\"{}\"{trail}", label.replace('"', "\"\""))
        } else {
            format!("{lead}{label}{trail}")
        }
    }

    fn csv_body(g: &mut Gen, axes: &[Axis]) -> Vec<u8> {
        let mut text = String::new();
        for _ in 0..g.below(5) + usize::from(!g.one_in(8)) {
            let eol = if g.one_in(2) { "\n" } else { "\r\n" };
            if g.one_in(5) {
                text.push_str(g.pick(&["", "  ", "\t", " \t "]));
                text.push_str(eol);
            }
            let fields: Vec<String> = (0..arity(g, axes))
                .map(|j| {
                    let l = label(g, axes, j);
                    csv_field(g, &l)
                })
                .collect();
            text.push_str(&fields.join(","));
            text.push_str(eol);
        }
        if g.one_in(3) {
            text.truncate(text.trim_end_matches(['\r', '\n']).len());
        }
        mutated(g, text.into_bytes())
    }

    /// Usually `body` as is; otherwise one or two byte edits (delete,
    /// insert, overwrite, truncate), which also make invalid UTF-8.
    fn mutated(g: &mut Gen, mut body: Vec<u8>) -> Vec<u8> {
        if !g.one_in(5) {
            return body;
        }
        const BYTES: &[u8] = b"\"\\,[]{}: u0\n\r-\xff\xc3\x80";
        for _ in 0..1 + g.below(2) {
            let at = g.below(body.len() + 1);
            match g.below(4) {
                0 if at < body.len() => {
                    body.remove(at);
                }
                1 => body.insert(at, g.pick(BYTES)),
                2 if at < body.len() => body[at] = g.pick(BYTES),
                _ => body.truncate(at),
            }
        }
        body
    }

    proptest! {
        #[test]
        fn json_decoding_matches_the_string_path(seed in any::<u64>()) {
            let axes = axes();
            let catalog = Catalog::new(&axes);
            let mut g = Gen(seed | 1);
            let mut accepted = 0;
            for _ in 0..64 {
                let body = json_body(&mut g, &axes);
                let new = catalog
                    .decode_json(&body)
                    .map(|(chunk, at)| (codes(&chunk), at.map(f64::to_bits)));
                let rows = oracle_json_rows(&body);
                let old = rows.as_ref().map_err(Clone::clone).and_then(|(rows, at)| {
                    Ok((oracle_codes(rows, &axes)?, at.map(f64::to_bits)))
                });
                prop_assert!(
                    agree(&new, &old),
                    "body {:?}: decoder {:?}, string path {:?}",
                    String::from_utf8_lossy(&body), new, old
                );
                if let Ok((rows, _)) = &rows {
                    let adapted = catalog.encode_rows(rows).map(|chunk| codes(&chunk));
                    prop_assert!(agree(&adapted, &oracle_codes(rows, &axes)), "rows {:?}", rows);
                }
                accepted += usize::from(new.is_ok());
            }
            prop_assert!((4..=60).contains(&accepted), "{} of 64 accepted", accepted);
        }

        #[test]
        fn csv_decoding_matches_the_string_path(seed in any::<u64>()) {
            let axes = axes();
            let catalog = Catalog::new(&axes);
            let mut g = Gen(seed | 1);
            let mut accepted = 0;
            for _ in 0..64 {
                let body = csv_body(&mut g, &axes);
                let new = catalog.decode_csv(&body).map(|chunk| codes(&chunk));
                let old = oracle_csv_rows(&body).and_then(|rows| oracle_codes(&rows, &axes));
                prop_assert!(
                    agree(&new, &old),
                    "body {:?}: decoder {:?}, string path {:?}",
                    String::from_utf8_lossy(&body), new, old
                );
                accepted += usize::from(new.is_ok());
            }
            prop_assert!((4..=60).contains(&accepted), "{} of 64 accepted", accepted);
        }
    }
}
