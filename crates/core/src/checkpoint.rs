//! Streaming JSONL checkpoints for resumable LODO evaluation.
//!
//! [`crate::eval::evaluate_all_resumable`] appends one line per completed
//! (matcher × target) item as soon as the item finishes, so an interrupted
//! sweep loses at most the items that were in flight. A resumed run reads
//! the log back, pre-fills the corresponding result slots and only
//! schedules the remaining items — reproducing the uninterrupted run
//! bit-identically, because the per-seed F1 values round-trip through
//! Rust's shortest-roundtrip float formatting.
//!
//! The format is deliberately tiny: one flat JSON object per line, written
//! with the workspace's one JSON string escaper ([`em_obs::json`]) and
//! parsed by this module alone (no external JSON dependency). A run
//! killed mid-write may leave a partial final line; the reader tolerates
//! exactly that and rejects corruption anywhere else.

use crate::dataset::DatasetId;
use crate::error::{EmError, Result};
use em_obs::json::push_escaped;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// One completed (matcher × target) evaluation item.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRow {
    /// The caller-chosen factory label — the stable identity of the
    /// matcher across runs (display names may collide between configs).
    pub label: String,
    /// Display name of the matcher, as reported by [`crate::Matcher::name`].
    pub name: String,
    /// Parameter count in millions, if any.
    pub params_millions: Option<f64>,
    /// The LODO target dataset.
    pub dataset: DatasetId,
    /// Per-seed F1 scores in percent, in `EvalConfig::seeds` order.
    pub per_seed_f1: Vec<f64>,
    /// Whether the matcher saw the target during its own training.
    pub seen_in_training: bool,
    /// Whether any seed's predictions came from a degraded fallback path
    /// (hosted-LLM circuit breaker open).
    pub degraded: bool,
}

impl CheckpointRow {
    /// Serializes the row as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"label\":");
        push_escaped(&mut out, &self.label);
        out.push_str(",\"name\":");
        push_escaped(&mut out, &self.name);
        out.push_str(",\"params\":");
        match self.params_millions {
            Some(p) => out.push_str(&fmt_f64(p)),
            None => out.push_str("null"),
        }
        out.push_str(",\"dataset\":\"");
        out.push_str(self.dataset.code());
        out.push_str("\",\"f1\":[");
        for (i, v) in self.per_seed_f1.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("],\"seen\":");
        out.push_str(if self.seen_in_training { "true" } else { "false" });
        out.push_str(",\"degraded\":");
        out.push_str(if self.degraded { "true" } else { "false" });
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`CheckpointRow::to_json`].
    pub fn from_json(line: &str) -> Result<CheckpointRow> {
        let obj = parse_object(line)?;
        let get = |key: &str| -> Result<&JsonValue> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| bad(format!("missing key `{key}`")))
        };
        let label = get("label")?.as_string()?;
        let name = get("name")?.as_string()?;
        let params_millions = match get("params")? {
            JsonValue::Null => None,
            v => Some(v.as_number()?),
        };
        let code = get("dataset")?.as_string()?;
        let dataset = DatasetId::parse(&code)
            .ok_or_else(|| bad(format!("unknown dataset code `{code}`")))?;
        let per_seed_f1 = get("f1")?.as_number_array()?;
        let seen_in_training = get("seen")?.as_bool()?;
        let degraded = get("degraded")?.as_bool()?;
        Ok(CheckpointRow {
            label,
            name,
            params_millions,
            dataset,
            per_seed_f1,
            seen_in_training,
            degraded,
        })
    }
}

/// One completed (matcher × perturbation) cell of a sensitivity sweep.
///
/// The perturbation-robustness harness (`sensitivity` bin in `em-bench`)
/// checkpoints each finished cell through the same JSONL machinery as the
/// LODO sweep, so an interrupted matrix run resumes without re-scoring
/// completed cells — and resumes bit-identically, because precision,
/// recall and F1 round-trip through the shortest-roundtrip float format.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Stable matcher label (factory identity across runs).
    pub matcher: String,
    /// Perturbation name, or `"clean"` for the unperturbed baseline.
    pub perturbation: String,
    /// Precision in percent on the perturbed pairs.
    pub precision: f64,
    /// Recall in percent on the perturbed pairs.
    pub recall: f64,
    /// F1 in percent on the perturbed pairs.
    pub f1: f64,
}

impl SensitivityRow {
    /// Serializes the row as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"matcher\":");
        push_escaped(&mut out, &self.matcher);
        out.push_str(",\"perturbation\":");
        push_escaped(&mut out, &self.perturbation);
        out.push_str(",\"precision\":");
        out.push_str(&fmt_f64(self.precision));
        out.push_str(",\"recall\":");
        out.push_str(&fmt_f64(self.recall));
        out.push_str(",\"f1\":");
        out.push_str(&fmt_f64(self.f1));
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`SensitivityRow::to_json`].
    pub fn from_json(line: &str) -> Result<SensitivityRow> {
        let obj = parse_object(line)?;
        let get = |key: &str| -> Result<&JsonValue> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| bad(format!("missing key `{key}`")))
        };
        Ok(SensitivityRow {
            matcher: get("matcher")?.as_string()?,
            perturbation: get("perturbation")?.as_string()?,
            precision: get("precision")?.as_number()?,
            recall: get("recall")?.as_number()?,
            f1: get("f1")?.as_number()?,
        })
    }
}

/// Formats an `f64` so that parsing the text recovers the exact same bits
/// (Rust's `Display` emits the shortest decimal that round-trips; the
/// non-finite spellings below are accepted by `str::parse::<f64>`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "inf".to_owned() } else { "-inf".to_owned() }
    } else {
        format!("{v}")
    }
}

fn bad(msg: String) -> EmError {
    EmError::Checkpoint(format!("malformed checkpoint row: {msg}"))
}

/// The subset of JSON the checkpoint format uses: flat objects whose
/// values are strings, numbers, booleans, `null` or arrays of numbers.
#[derive(Debug)]
enum JsonValue {
    String(String),
    Number(f64),
    Bool(bool),
    Null,
    Numbers(Vec<f64>),
}

impl JsonValue {
    fn as_string(&self) -> Result<String> {
        match self {
            JsonValue::String(s) => Ok(s.clone()),
            other => Err(bad(format!("expected string, got {other:?}"))),
        }
    }
    fn as_number(&self) -> Result<f64> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(bad(format!("expected number, got {other:?}"))),
        }
    }
    fn as_bool(&self) -> Result<bool> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(bad(format!("expected bool, got {other:?}"))),
        }
    }
    fn as_number_array(&self) -> Result<Vec<f64>> {
        match self {
            JsonValue::Numbers(v) => Ok(v.clone()),
            other => Err(bad(format!("expected number array, got {other:?}"))),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                other => return Err(bad(format!("expected `,` or `}}`, got {other:?}"))),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(bad("trailing bytes after object".into()));
    }
    Ok(pairs)
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }
    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }
    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }
    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| bad("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| bad("non-ascii \\u escape".into()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| bad("invalid \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(bad(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are valid UTF-8 (the whole line is a &str);
                    // copy the full multi-byte sequence at once.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| bad("invalid utf-8".into()))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(bad("unterminated string".into())),
            }
        }
    }
    fn number(&mut self) -> Result<f64> {
        // Accepts JSON numbers plus the `NaN` / `inf` / `-inf` spellings
        // `fmt_f64` emits; all are understood by `str::parse::<f64>`.
        let start = self.pos;
        if self.literal("NaN") || self.literal("inf") || self.literal("-inf") {
        } else {
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map_err(|_| bad(format!("bad number `{text}`")))
    }
    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Numbers(out));
                }
                loop {
                    self.skip_ws();
                    out.push(self.number()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Numbers(out));
                        }
                        other => {
                            return Err(bad(format!("expected `,` or `]`, got {other:?}")))
                        }
                    }
                }
            }
            _ => Ok(JsonValue::Number(self.number()?)),
        }
    }
}

/// Reads every complete row from a checkpoint file.
///
/// A partial **final** line (the run was killed mid-write) is silently
/// dropped; a malformed line anywhere else is reported as
/// [`EmError::Checkpoint`], because it indicates corruption rather than
/// interruption.
pub fn read_rows(path: &Path) -> Result<Vec<CheckpointRow>> {
    read_jsonl(path, CheckpointRow::from_json)
}

/// Reads every complete [`SensitivityRow`] from a sensitivity checkpoint,
/// with the same torn-final-line tolerance as [`read_rows`].
pub fn read_sensitivity_rows(path: &Path) -> Result<Vec<SensitivityRow>> {
    read_jsonl(path, SensitivityRow::from_json)
}

fn read_jsonl<T>(path: &Path, parse: impl Fn(&str) -> Result<T>) -> Result<Vec<T>> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| EmError::Checkpoint(format!("read {}: {e}", path.display())))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut rows = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match parse(line) {
            Ok(row) => rows.push(row),
            Err(_) if i + 1 == lines.len() => break, // torn final write
            Err(e) => {
                return Err(EmError::Checkpoint(format!(
                    "{} line {}: {e}",
                    path.display(),
                    i + 1
                )))
            }
        }
    }
    Ok(rows)
}

/// Append-only checkpoint writer shared by the evaluation workers.
///
/// Each [`CheckpointLog::append`] writes one line and flushes, so a row is
/// durable as soon as the item that produced it completes.
pub struct CheckpointLog {
    writer: Mutex<BufWriter<File>>,
}

impl CheckpointLog {
    /// Creates (truncates) the checkpoint file and seeds it with `retained`
    /// rows — the valid rows carried over from a previous interrupted run.
    /// Rewriting instead of appending keeps a torn final line from a killed
    /// run out of the resumed file.
    pub fn create(path: &Path, retained: &[CheckpointRow]) -> Result<CheckpointLog> {
        let file = File::create(path)
            .map_err(|e| EmError::Checkpoint(format!("create {}: {e}", path.display())))?;
        let log = CheckpointLog {
            writer: Mutex::new(BufWriter::new(file)),
        };
        for row in retained {
            log.append(row)?;
        }
        Ok(log)
    }

    /// Creates (truncates) the checkpoint file and seeds it with already
    /// serialized lines — the row-type-agnostic twin of
    /// [`CheckpointLog::create`], used by checkpoints whose rows are not
    /// [`CheckpointRow`] (e.g. the sensitivity matrix).
    pub fn create_lines(path: &Path, retained: &[String]) -> Result<CheckpointLog> {
        let file = File::create(path)
            .map_err(|e| EmError::Checkpoint(format!("create {}: {e}", path.display())))?;
        let log = CheckpointLog {
            writer: Mutex::new(BufWriter::new(file)),
        };
        for line in retained {
            log.append_line(line)?;
        }
        Ok(log)
    }

    /// Appends one completed row and flushes it to disk.
    pub fn append(&self, row: &CheckpointRow) -> Result<()> {
        self.append_line(&row.to_json())
    }

    /// Appends one pre-serialized JSON line and flushes it to disk.
    pub fn append_line(&self, line: &str) -> Result<()> {
        let mut w = self.writer.lock().unwrap();
        writeln!(w, "{line}")
            .and_then(|()| w.flush())
            .map_err(|e| EmError::Checkpoint(format!("append: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> CheckpointRow {
        CheckpointRow {
            label: "gpt4 \"quoted\"\\slash\n".into(),
            name: "MatchGPT [GPT-4]".into(),
            params_millions: Some(1760.0),
            dataset: DatasetId::Beer,
            per_seed_f1: vec![72.5, 0.1 + 0.2, 100.0 / 3.0],
            seen_in_training: false,
            degraded: true,
        }
    }

    #[test]
    fn row_round_trips_bit_exactly() {
        let r = row();
        let back = CheckpointRow::from_json(&r.to_json()).unwrap();
        assert_eq!(back.label, r.label);
        assert_eq!(back.name, r.name);
        assert_eq!(back.params_millions, r.params_millions);
        assert_eq!(back.dataset, r.dataset);
        assert_eq!(back.seen_in_training, r.seen_in_training);
        assert_eq!(back.degraded, r.degraded);
        for (a, b) in back.per_seed_f1.iter().zip(&r.per_seed_f1) {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 must round-trip exactly");
        }
    }

    #[test]
    fn none_params_round_trip() {
        let mut r = row();
        r.params_millions = None;
        let back = CheckpointRow::from_json(&r.to_json()).unwrap();
        assert_eq!(back.params_millions, None);
    }

    #[test]
    fn non_finite_f1_round_trips() {
        let mut r = row();
        r.per_seed_f1 = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let back = CheckpointRow::from_json(&r.to_json()).unwrap();
        assert!(back.per_seed_f1[0].is_nan());
        assert_eq!(back.per_seed_f1[1], f64::INFINITY);
        assert_eq!(back.per_seed_f1[2], f64::NEG_INFINITY);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        for line in [
            "",
            "{",
            "{}",
            "not json",
            r#"{"label":"x"}"#,
            r#"{"label":"x","name":"y","params":null,"dataset":"NOPE","f1":[],"seen":false,"degraded":false}"#,
        ] {
            assert!(CheckpointRow::from_json(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn reader_tolerates_torn_final_line_only() {
        let dir = std::env::temp_dir().join(format!("em-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = row().to_json();

        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, format!("{good}\n{}", &good[..good.len() / 2])).unwrap();
        let rows = read_rows(&torn).unwrap();
        assert_eq!(rows.len(), 1);

        let corrupt = dir.join("corrupt.jsonl");
        std::fs::write(&corrupt, format!("garbage\n{good}\n")).unwrap();
        assert!(matches!(
            read_rows(&corrupt).unwrap_err(),
            EmError::Checkpoint(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn srow() -> SensitivityRow {
        SensitivityRow {
            matcher: "strsim".into(),
            perturbation: "misfield-2".into(),
            precision: 91.0 + 1.0 / 3.0,
            recall: 0.1 + 0.2,
            f1: 55.5,
        }
    }

    #[test]
    fn sensitivity_row_round_trips_bit_exactly() {
        let r = srow();
        let back = SensitivityRow::from_json(&r.to_json()).unwrap();
        assert_eq!(back.matcher, r.matcher);
        assert_eq!(back.perturbation, r.perturbation);
        assert_eq!(back.precision.to_bits(), r.precision.to_bits());
        assert_eq!(back.recall.to_bits(), r.recall.to_bits());
        assert_eq!(back.f1.to_bits(), r.f1.to_bits());
    }

    #[test]
    fn sensitivity_reader_tolerates_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("em-sens-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = srow().to_json();

        let torn = dir.join("torn.jsonl");
        std::fs::write(&torn, format!("{good}\n{}", &good[..good.len() / 2])).unwrap();
        assert_eq!(read_sensitivity_rows(&torn).unwrap(), vec![srow()]);

        let corrupt = dir.join("corrupt.jsonl");
        std::fs::write(&corrupt, format!("garbage\n{good}\n")).unwrap();
        assert!(read_sensitivity_rows(&corrupt).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn line_level_log_cycle() {
        let dir = std::env::temp_dir().join(format!("em-sens-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sens.jsonl");
        let r1 = srow();
        let mut r2 = srow();
        r2.perturbation = "null-1".into();

        let log = CheckpointLog::create_lines(&path, &[r1.to_json()]).unwrap();
        log.append_line(&r2.to_json()).unwrap();
        drop(log);

        assert_eq!(read_sensitivity_rows(&path).unwrap(), vec![r1, r2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_create_append_read_cycle() {
        let dir = std::env::temp_dir().join(format!("em-ckpt-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let r1 = row();
        let mut r2 = row();
        r2.dataset = DatasetId::Abt;
        r2.degraded = false;

        let log = CheckpointLog::create(&path, &[r1.clone()]).unwrap();
        log.append(&r2).unwrap();
        drop(log);

        let rows = read_rows(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], r1);
        assert_eq!(rows[1], r2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
