//! The dependency-free wire format of the distributed campaign engine.
//!
//! The workspace has no serde, so shard manifests and shard reports cross
//! process boundaries as a small hand-rolled **line-oriented** codec: every
//! record is one line of the form
//!
//! ```text
//! tag key=value key=value …
//! ```
//!
//! with values percent-escaped so they never contain spaces, `=`, or
//! newlines. Compound values ([`CampaignReport`], [`ShardManifest`]) encode
//! as a header record carrying a `count` followed by that many child
//! records, so decoding never needs lookahead beyond one line.
//!
//! Two properties are load-bearing and tested:
//!
//! * **round-trip** — `decode(encode(x)) == x` for every wire type;
//! * **order stability** — maps encode in `BTreeMap` order, so equal values
//!   encode to byte-identical strings and merged reports compare bit-for-bit
//!   against single-process runs.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use ba_sim::{
    Bit, CampaignPoint, CampaignReport, ProcessId, Round, ScenarioOutcome, ScenarioStats, SimError,
};

use crate::shard::{
    PartialSweep, PointOutcome, ShardEntry, ShardFailure, ShardManifest, ShardMode, ShardReport,
};

/// FNV-1a over raw bytes — the checksum used by streamed [`PointOutcome`]
/// records so a corrupted line fails decoding with a typed error instead of
/// yielding a plausible-but-wrong value.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A value that can be serialized onto the wire.
pub trait Encode {
    /// Appends this value's records to `out` (each record is a full line).
    fn encode(&self, out: &mut String);

    /// Encodes this value into a fresh string.
    fn to_wire(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out);
        out
    }
}

/// A value that can be parsed back off the wire.
pub trait Decode: Sized {
    /// Reads this value's records from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed, truncated, or mistagged input.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Decodes a complete value from `input`, rejecting trailing records.
    ///
    /// # Errors
    ///
    /// As [`Decode::decode`], plus [`WireError::Trailing`] if input remains.
    fn from_wire(input: &str) -> Result<Self, WireError> {
        let mut reader = WireReader::new(input);
        let value = Self::decode(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }
}

/// A decoding failure, with enough context to locate the bad record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended where another record was required.
    Eof {
        /// The record tag that was expected.
        expected: String,
    },
    /// A record carried an unexpected tag.
    Tag {
        /// The record tag that was expected.
        expected: String,
        /// The tag actually read.
        got: String,
    },
    /// A record is missing a required field or carries an unparsable value.
    Field {
        /// The tag of the offending record.
        tag: String,
        /// The field key.
        key: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A percent-escape was malformed.
    Escape {
        /// The offending escaped text.
        text: String,
    },
    /// Decoding succeeded but unconsumed records remain.
    Trailing {
        /// The first unconsumed line.
        line: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { expected } => {
                write!(f, "unexpected end of input: expected a `{expected}` record")
            }
            WireError::Tag { expected, got } => {
                write!(f, "expected a `{expected}` record, got `{got}`")
            }
            WireError::Field { tag, key, detail } => {
                write!(f, "bad field `{key}` in `{tag}` record: {detail}")
            }
            WireError::Escape { text } => write!(f, "malformed percent-escape in {text:?}"),
            WireError::Trailing { line } => {
                write!(f, "trailing input after a complete value: {line:?}")
            }
        }
    }
}

impl Error for WireError {}

/// Percent-escapes `raw` so the result contains no whitespace, `=`, `%`
/// (other than as escape introducers), or the list separators `,` `|` `:`
/// used by compound fields. Alphanumerics and `-._()` pass through;
/// everything else is escaped byte-wise as `%XX`.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for byte in raw.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => out.push(byte as char),
            b'-' | b'.' | b'_' | b'(' | b')' => out.push(byte as char),
            _ => {
                out.push('%');
                out.push(char::from_digit((byte >> 4) as u32, 16).unwrap());
                out.push(char::from_digit((byte & 0xF) as u32, 16).unwrap());
            }
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// Returns [`WireError::Escape`] on truncated or non-hex escapes, or if the
/// escaped bytes are not valid UTF-8.
pub fn unescape(escaped: &str) -> Result<String, WireError> {
    let err = || WireError::Escape {
        text: escaped.to_string(),
    };
    let mut bytes = Vec::with_capacity(escaped.len());
    let mut chars = escaped.bytes();
    while let Some(b) = chars.next() {
        if b == b'%' {
            let hi = chars.next().ok_or_else(err)?;
            let lo = chars.next().ok_or_else(err)?;
            let hex = |c: u8| (c as char).to_digit(16).ok_or_else(err);
            bytes.push((hex(hi)? as u8) << 4 | hex(lo)? as u8);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).map_err(|_| err())
}

/// One parsed record: a tag plus `key=value` fields (values still escaped).
pub struct Record<'a> {
    tag: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn parse(line: &'a str) -> Result<Self, WireError> {
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let tag = parts.next().ok_or(WireError::Eof {
            expected: "any".into(),
        })?;
        let mut fields = Vec::new();
        for part in parts {
            let (key, value) = part.split_once('=').ok_or_else(|| WireError::Field {
                tag: tag.to_string(),
                key: part.to_string(),
                detail: "missing `=`".into(),
            })?;
            fields.push((key, value));
        }
        Ok(Record { tag, fields })
    }

    /// The record's tag.
    pub fn tag(&self) -> &str {
        self.tag
    }

    fn field_error(&self, key: &str, detail: impl Into<String>) -> WireError {
        WireError::Field {
            tag: self.tag.to_string(),
            key: key.to_string(),
            detail: detail.into(),
        }
    }

    /// The raw (still-escaped) value of a required field.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Field`] if the field is absent.
    pub fn raw(&self, key: &str) -> Result<&'a str, WireError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| self.field_error(key, "missing"))
    }

    /// The unescaped string value of a required field.
    ///
    /// # Errors
    ///
    /// As [`Record::raw`], plus escape errors.
    pub fn text(&self, key: &str) -> Result<String, WireError> {
        unescape(self.raw(key)?)
    }

    /// Parses a required field with `FromStr`.
    ///
    /// # Errors
    ///
    /// As [`Record::raw`], plus a [`WireError::Field`] on parse failure.
    pub fn parse_field<T: FromStr>(&self, key: &str) -> Result<T, WireError> {
        let raw = self.raw(key)?;
        raw.parse()
            .map_err(|_| self.field_error(key, format!("unparsable value {raw:?}")))
    }

    /// Parses a required boolean field (`true` / `false`).
    ///
    /// # Errors
    ///
    /// As [`Record::parse_field`].
    pub fn flag(&self, key: &str) -> Result<bool, WireError> {
        self.parse_field(key)
    }
}

/// A cursor over the lines of an encoded value.
pub struct WireReader<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
}

impl<'a> WireReader<'a> {
    /// Starts reading from `input`.
    pub fn new(input: &'a str) -> Self {
        WireReader {
            lines: input.lines().peekable(),
        }
    }

    /// The tag of the next record, without consuming it.
    pub fn peek_tag(&mut self) -> Option<&'a str> {
        self.lines
            .peek()
            .and_then(|line| line.split(' ').find(|p| !p.is_empty()))
    }

    /// Consumes the next record, requiring the given tag.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Eof`] at end of input and [`WireError::Tag`] on
    /// a tag mismatch.
    pub fn record(&mut self, tag: &str) -> Result<Record<'a>, WireError> {
        let line = self.lines.next().ok_or_else(|| WireError::Eof {
            expected: tag.to_string(),
        })?;
        let record = Record::parse(line)?;
        if record.tag != tag {
            return Err(WireError::Tag {
                expected: tag.to_string(),
                got: record.tag.to_string(),
            });
        }
        Ok(record)
    }

    /// Asserts that all input has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Trailing`] naming the first leftover line.
    pub fn finish(&mut self) -> Result<(), WireError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(WireError::Trailing {
                line: line.to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire impls: ba-sim types
// ---------------------------------------------------------------------------

impl Encode for CampaignPoint {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "point n={} t={} adv={} inputs={}\n",
            self.n,
            self.t,
            escape(&self.adversary),
            escape(&self.inputs)
        ));
    }
}

impl Decode for CampaignPoint {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("point")?;
        Ok(CampaignPoint {
            n: rec.parse_field("n")?,
            t: rec.parse_field("t")?,
            adversary: rec.text("adv")?,
            inputs: rec.text("inputs")?,
        })
    }
}

impl Encode for SimError {
    fn encode(&self, out: &mut String) {
        let line = match self {
            SimError::InvalidResilience { n, t } => {
                format!("error kind=invalid-resilience n={n} t={t}")
            }
            SimError::SelfSend { process, round } => {
                format!(
                    "error kind=self-send process={} round={}",
                    process.0, round.0
                )
            }
            SimError::InvalidReceiver {
                process,
                receiver,
                n,
            } => format!(
                "error kind=invalid-receiver process={} receiver={} n={n}",
                process.0, receiver.0
            ),
            SimError::OmissionByCorrect { process, round } => format!(
                "error kind=omission-by-correct process={} round={}",
                process.0, round.0
            ),
            SimError::ForgeByCorrect { process, round } => format!(
                "error kind=forge-by-correct process={} round={}",
                process.0, round.0
            ),
            SimError::RoutingCount {
                sender,
                round,
                expected,
                got,
            } => format!(
                "error kind=routing-count sender={} round={} expected={expected} got={got}",
                sender.0, round.0
            ),
            SimError::DecisionChanged { process, round } => format!(
                "error kind=decision-changed process={} round={}",
                process.0, round.0
            ),
            SimError::ProposalCount { got, expected } => {
                format!("error kind=proposal-count got={got} expected={expected}")
            }
            SimError::TooManyFaulty { got, t } => {
                format!("error kind=too-many-faulty got={got} t={t}")
            }
            SimError::BehaviorMismatch { process } => {
                format!("error kind=behavior-mismatch process={}", process.0)
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
}

impl Decode for SimError {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("error")?;
        let process =
            |key: &str| -> Result<ProcessId, WireError> { Ok(ProcessId(rec.parse_field(key)?)) };
        let round = |key: &str| -> Result<Round, WireError> { Ok(Round(rec.parse_field(key)?)) };
        match rec.raw("kind")? {
            "invalid-resilience" => Ok(SimError::InvalidResilience {
                n: rec.parse_field("n")?,
                t: rec.parse_field("t")?,
            }),
            "self-send" => Ok(SimError::SelfSend {
                process: process("process")?,
                round: round("round")?,
            }),
            "invalid-receiver" => Ok(SimError::InvalidReceiver {
                process: process("process")?,
                receiver: process("receiver")?,
                n: rec.parse_field("n")?,
            }),
            "omission-by-correct" => Ok(SimError::OmissionByCorrect {
                process: process("process")?,
                round: round("round")?,
            }),
            "forge-by-correct" => Ok(SimError::ForgeByCorrect {
                process: process("process")?,
                round: round("round")?,
            }),
            "routing-count" => Ok(SimError::RoutingCount {
                sender: process("sender")?,
                round: round("round")?,
                expected: rec.parse_field("expected")?,
                got: rec.parse_field("got")?,
            }),
            "decision-changed" => Ok(SimError::DecisionChanged {
                process: process("process")?,
                round: round("round")?,
            }),
            "proposal-count" => Ok(SimError::ProposalCount {
                got: rec.parse_field("got")?,
                expected: rec.parse_field("expected")?,
            }),
            "too-many-faulty" => Ok(SimError::TooManyFaulty {
                got: rec.parse_field("got")?,
                t: rec.parse_field("t")?,
            }),
            "behavior-mismatch" => Ok(SimError::BehaviorMismatch {
                process: process("process")?,
            }),
            other => Err(rec.field_error("kind", format!("unknown error kind {other:?}"))),
        }
    }
}

fn encode_bit(bit: Bit) -> char {
    match bit {
        Bit::Zero => '0',
        Bit::One => '1',
    }
}

fn decode_bit(rec: &Record<'_>, key: &str, text: &str) -> Result<Bit, WireError> {
    match text {
        "0" => Ok(Bit::Zero),
        "1" => Ok(Bit::One),
        other => Err(rec.field_error(key, format!("expected a bit, got {other:?}"))),
    }
}

impl Encode for ScenarioStats<Bit> {
    fn encode(&self, out: &mut String) {
        let decided_by = self
            .decided_by
            .map_or("none".to_string(), |r| r.0.to_string());
        let decisions: Vec<String> = self
            .decisions
            .iter()
            .map(|(pid, d)| match d {
                Some(bit) => format!("{}:{}", pid.0, encode_bit(*bit)),
                None => format!("{}:-", pid.0),
            })
            .collect();
        // Each violation is prefixed with `v` so the empty string survives
        // the `|`-join (an empty field is the empty *list*).
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("v{}", escape(v)))
            .collect();
        out.push_str(&format!(
            "stats mc={} total={} rounds={} quiescent={} decided_by={} decisions={} violations={}\n",
            self.message_complexity,
            self.total_messages,
            self.rounds,
            self.quiescent,
            decided_by,
            decisions.join(","),
            violations.join("|"),
        ));
    }
}

impl Decode for ScenarioStats<Bit> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("stats")?;
        let decided_by = match rec.raw("decided_by")? {
            "none" => None,
            raw => Some(Round(raw.parse().map_err(|_| {
                rec.field_error("decided_by", format!("unparsable round {raw:?}"))
            })?)),
        };
        let mut decisions = BTreeMap::new();
        for chunk in rec.raw("decisions")?.split(',').filter(|c| !c.is_empty()) {
            let (pid, d) = chunk
                .split_once(':')
                .ok_or_else(|| rec.field_error("decisions", format!("missing `:` in {chunk:?}")))?;
            let pid = ProcessId(pid.parse().map_err(|_| {
                rec.field_error("decisions", format!("unparsable process id {pid:?}"))
            })?);
            let decision = match d {
                "-" => None,
                bit => Some(decode_bit(&rec, "decisions", bit)?),
            };
            decisions.insert(pid, decision);
        }
        let mut violations = Vec::new();
        for part in rec.raw("violations")?.split('|').filter(|p| !p.is_empty()) {
            let item = part.strip_prefix('v').ok_or_else(|| {
                rec.field_error("violations", format!("missing `v` prefix in {part:?}"))
            })?;
            violations.push(unescape(item)?);
        }
        Ok(ScenarioStats {
            message_complexity: rec.parse_field("mc")?,
            total_messages: rec.parse_field("total")?,
            rounds: rec.parse_field("rounds")?,
            quiescent: rec.flag("quiescent")?,
            decided_by,
            decisions,
            violations,
        })
    }
}

/// Shared encoding of a `Result<T, SimError>`: an `ok` marker record
/// followed by the payload or the error.
fn encode_result<T: Encode>(result: &Result<T, SimError>, out: &mut String) {
    match result {
        Ok(value) => {
            out.push_str("result ok=true\n");
            value.encode(out);
        }
        Err(err) => {
            out.push_str("result ok=false\n");
            err.encode(out);
        }
    }
}

fn decode_result<T: Decode>(reader: &mut WireReader<'_>) -> Result<Result<T, SimError>, WireError> {
    let rec = reader.record("result")?;
    if rec.flag("ok")? {
        Ok(Ok(T::decode(reader)?))
    } else {
        Ok(Err(SimError::decode(reader)?))
    }
}

impl Encode for ScenarioOutcome<Bit> {
    fn encode(&self, out: &mut String) {
        self.point.encode(out);
        encode_result(&self.result, out);
    }
}

impl Decode for ScenarioOutcome<Bit> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let point = CampaignPoint::decode(reader)?;
        let result = decode_result(reader)?;
        Ok(ScenarioOutcome { point, result })
    }
}

impl Encode for CampaignReport<Bit> {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!("report count={}\n", self.outcomes.len()));
        for outcome in &self.outcomes {
            outcome.encode(out);
        }
    }
}

impl Decode for CampaignReport<Bit> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("report")?;
        let count: usize = rec.parse_field("count")?;
        let mut outcomes = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            outcomes.push(ScenarioOutcome::decode(reader)?);
        }
        Ok(CampaignReport { outcomes })
    }
}

// ---------------------------------------------------------------------------
// Wire impls: shard types
// ---------------------------------------------------------------------------

impl Encode for ShardEntry {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!("entry index={} seed={}\n", self.index, self.seed));
        self.point.encode(out);
    }
}

impl Decode for ShardEntry {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("entry")?;
        let index = rec.parse_field("index")?;
        let seed = rec.parse_field("seed")?;
        let point = CampaignPoint::decode(reader)?;
        Ok(ShardEntry { index, seed, point })
    }
}

impl Encode for ShardManifest {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "manifest shard={} shards={} mode={} protocol={} threads={} count={}\n",
            self.shard,
            self.shards,
            self.mode,
            escape(&self.protocol),
            self.threads,
            self.entries.len(),
        ));
        for entry in &self.entries {
            entry.encode(out);
        }
    }
}

impl Decode for ShardManifest {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("manifest")?;
        let mode = match rec.raw("mode")? {
            "scenarios" => ShardMode::Scenarios,
            "falsifier" => ShardMode::Falsifier,
            "search" => ShardMode::Search,
            "check" => ShardMode::Check,
            other => return Err(rec.field_error("mode", format!("unknown mode {other:?}"))),
        };
        let shard = rec.parse_field("shard")?;
        let shards = rec.parse_field("shards")?;
        let protocol = rec.text("protocol")?;
        let threads = rec.parse_field("threads")?;
        let count: usize = rec.parse_field("count")?;
        let mut entries = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            entries.push(ShardEntry::decode(reader)?);
        }
        Ok(ShardManifest {
            shard,
            shards,
            mode,
            protocol,
            threads,
            entries,
        })
    }
}

impl<T: Encode> Encode for ShardReport<T> {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "shard-report shard={} count={}\n",
            self.shard,
            self.outcomes.len()
        ));
        for (index, result) in &self.outcomes {
            out.push_str(&format!("item index={index}\n"));
            encode_result(result, out);
        }
    }
}

impl<T: Decode> Decode for ShardReport<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("shard-report")?;
        let shard = rec.parse_field("shard")?;
        let count: usize = rec.parse_field("count")?;
        let mut outcomes = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let item = reader.record("item")?;
            let index = item.parse_field("index")?;
            outcomes.push((index, decode_result(reader)?));
        }
        Ok(ShardReport { shard, outcomes })
    }
}

impl<T: Encode> Encode for PointOutcome<T> {
    /// Encodes as exactly **one line**, whatever the payload: the payload's
    /// (multi-line) encoding is percent-escaped into the `data` field and
    /// guarded by an FNV-1a checksum. Streamed mid-shard records therefore
    /// never interleave partially with other output, and any single-line
    /// corruption is detected rather than decoded into a wrong value.
    fn encode(&self, out: &mut String) {
        let mut inner = String::new();
        encode_result(&self.result, &mut inner);
        let data = escape(&inner);
        out.push_str(&format!(
            "outcome index={} sum={:016x} data={}\n",
            self.index,
            fnv64(data.as_bytes()),
            data
        ));
    }
}

impl<T: Decode> Decode for PointOutcome<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("outcome")?;
        let index = rec.parse_field("index")?;
        let raw = rec.raw("data")?;
        let sum_text = rec.raw("sum")?;
        let sum = u64::from_str_radix(sum_text, 16)
            .map_err(|_| rec.field_error("sum", format!("unparsable checksum {sum_text:?}")))?;
        if fnv64(raw.as_bytes()) != sum {
            return Err(rec.field_error("data", "checksum mismatch"));
        }
        let inner = unescape(raw)?;
        let mut inner_reader = WireReader::new(&inner);
        let result = decode_result(&mut inner_reader)?;
        inner_reader.finish()?;
        Ok(PointOutcome { index, result })
    }
}

impl Encode for ShardFailure {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "failure shard={} attempts={} last={}\n",
            self.shard,
            self.attempts,
            escape(&self.last)
        ));
    }
}

impl Decode for ShardFailure {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("failure")?;
        Ok(ShardFailure {
            shard: rec.parse_field("shard")?,
            attempts: rec.parse_field("attempts")?,
            last: rec.text("last")?,
        })
    }
}

impl<T: Encode> Encode for PartialSweep<T> {
    fn encode(&self, out: &mut String) {
        let missing: Vec<String> = self.missing.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!(
            "partial-report grid={} count={} failures={} missing={}\n",
            self.grid_len,
            self.outcomes.len(),
            self.failures.len(),
            missing.join(",")
        ));
        for (index, result) in &self.outcomes {
            out.push_str(&format!("item index={index}\n"));
            encode_result(result, out);
        }
        for failure in &self.failures {
            failure.encode(out);
        }
    }
}

impl<T: Decode> Decode for PartialSweep<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("partial-report")?;
        let grid_len = rec.parse_field("grid")?;
        let count: usize = rec.parse_field("count")?;
        let failure_count: usize = rec.parse_field("failures")?;
        let missing_raw = rec.raw("missing")?;
        let mut missing = Vec::new();
        for part in missing_raw.split(',').filter(|p| !p.is_empty()) {
            missing.push(
                part.parse().map_err(|_| {
                    rec.field_error("missing", format!("unparsable index {part:?}"))
                })?,
            );
        }
        let mut outcomes = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let item = reader.record("item")?;
            let index = item.parse_field("index")?;
            outcomes.push((index, decode_result(reader)?));
        }
        let mut failures = Vec::with_capacity(failure_count.min(1 << 16));
        for _ in 0..failure_count {
            failures.push(ShardFailure::decode(reader)?);
        }
        Ok(PartialSweep {
            grid_len,
            outcomes,
            missing,
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::SimRng;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(value: &T) {
        let encoded = value.to_wire();
        let decoded = T::from_wire(&encoded)
            .unwrap_or_else(|e| panic!("decode failed: {e}\nwire:\n{encoded}"));
        assert_eq!(&decoded, value, "round-trip mismatch for wire:\n{encoded}");
        // Re-encoding the decoded value must be byte-identical (order
        // stability).
        assert_eq!(decoded.to_wire(), encoded);
    }

    /// A deterministic sample of nasty label strings: empty, spaces,
    /// separators, unicode, escape introducers.
    fn label(rng: &mut SimRng) -> String {
        const POOL: &[&str] = &[
            "",
            "none",
            "random-omission",
            "adaptive-worst-case",
            "mobile",
            "scheduler",
            "has space",
            "eq=sign",
            "pipe|comma,colon:",
            "percent%20literal",
            "θ(nt)-sweep",
            "newline\nline2",
            "tab\tchar",
        ];
        POOL[rng.gen_index(0, POOL.len())].to_string()
    }

    fn point(rng: &mut SimRng) -> CampaignPoint {
        CampaignPoint {
            n: rng.gen_index(1, 64),
            t: rng.gen_index(0, 32),
            adversary: label(rng),
            inputs: label(rng),
        }
    }

    fn sim_error(rng: &mut SimRng) -> SimError {
        let p = ProcessId(rng.gen_index(0, 9));
        let r = Round(rng.gen_range(1, 9));
        match rng.gen_index(0, 10) {
            0 => SimError::InvalidResilience {
                n: rng.gen_index(0, 9),
                t: rng.gen_index(0, 9),
            },
            1 => SimError::SelfSend {
                process: p,
                round: r,
            },
            2 => SimError::InvalidReceiver {
                process: p,
                receiver: ProcessId(rng.gen_index(0, 99)),
                n: rng.gen_index(0, 9),
            },
            3 => SimError::OmissionByCorrect {
                process: p,
                round: r,
            },
            4 => SimError::DecisionChanged {
                process: p,
                round: r,
            },
            5 => SimError::ProposalCount {
                got: rng.gen_index(0, 9),
                expected: rng.gen_index(0, 9),
            },
            6 => SimError::TooManyFaulty {
                got: rng.gen_index(0, 9),
                t: rng.gen_index(0, 9),
            },
            7 => SimError::ForgeByCorrect {
                process: p,
                round: r,
            },
            8 => SimError::RoutingCount {
                sender: p,
                round: r,
                expected: rng.gen_index(0, 99),
                got: rng.gen_index(0, 99),
            },
            _ => SimError::BehaviorMismatch { process: p },
        }
    }

    fn stats(rng: &mut SimRng) -> ScenarioStats<Bit> {
        let n = rng.gen_index(0, 8);
        let decisions: BTreeMap<ProcessId, Option<Bit>> = (0..n)
            .map(|i| {
                let d = match rng.gen_index(0, 3) {
                    0 => None,
                    1 => Some(Bit::Zero),
                    _ => Some(Bit::One),
                };
                (ProcessId(i), d)
            })
            .collect();
        let violations = (0..rng.gen_index(0, 4)).map(|_| label(rng)).collect();
        ScenarioStats {
            message_complexity: rng.next_u64() >> 32,
            total_messages: rng.next_u64() >> 32,
            rounds: rng.gen_range(1, 40),
            quiescent: rng.gen_bool(0.5),
            decided_by: rng.gen_bool(0.7).then(|| Round(rng.gen_range(1, 20))),
            decisions,
            violations,
        }
    }

    fn outcome(rng: &mut SimRng) -> ScenarioOutcome<Bit> {
        let result = if rng.gen_bool(0.75) {
            Ok(stats(rng))
        } else {
            Err(sim_error(rng))
        };
        ScenarioOutcome {
            point: point(rng),
            result,
        }
    }

    #[test]
    fn escape_round_trips_arbitrary_text() {
        let mut rng = SimRng::seed_from_u64(0xE5C);
        for _ in 0..200 {
            let text = label(&mut rng);
            let escaped = escape(&text);
            assert!(!escaped.contains(' ') && !escaped.contains('=') && !escaped.contains('\n'));
            assert_eq!(unescape(&escaped).unwrap(), text);
        }
        // Full byte alphabet.
        let every: String = (0u8..128).map(|b| b as char).collect();
        assert_eq!(unescape(&escape(&every)).unwrap(), every);
    }

    #[test]
    fn unescape_rejects_malformed_escapes() {
        assert!(unescape("%").is_err());
        assert!(unescape("%2").is_err());
        assert!(unescape("%zz").is_err());
        // Escaped bytes that are not UTF-8.
        assert!(unescape("%ff%fe").is_err());
    }

    #[test]
    fn campaign_points_round_trip() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            round_trip(&point(&mut rng));
        }
    }

    #[test]
    fn sim_errors_round_trip() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..100 {
            round_trip(&sim_error(&mut rng));
        }
    }

    #[test]
    fn scenario_stats_round_trip() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            round_trip(&stats(&mut rng));
        }
    }

    #[test]
    fn campaign_reports_round_trip() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..25 {
            let report = CampaignReport {
                outcomes: (0..rng.gen_index(0, 6))
                    .map(|_| outcome(&mut rng))
                    .collect(),
            };
            round_trip(&report);
        }
    }

    #[test]
    fn shard_manifests_round_trip() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..25 {
            let manifest = ShardManifest {
                shard: rng.gen_index(0, 8),
                shards: rng.gen_index(1, 9),
                mode: match rng.gen_index(0, 4) {
                    0 => ShardMode::Scenarios,
                    1 => ShardMode::Falsifier,
                    2 => ShardMode::Search,
                    _ => ShardMode::Check,
                },
                protocol: label(&mut rng),
                threads: rng.gen_index(0, 9),
                entries: (0..rng.gen_index(0, 5))
                    .map(|i| ShardEntry {
                        index: i * 3,
                        seed: rng.next_u64(),
                        point: point(&mut rng),
                    })
                    .collect(),
            };
            round_trip(&manifest);
        }
    }

    #[test]
    fn shard_reports_round_trip() {
        let mut rng = SimRng::seed_from_u64(6);
        for _ in 0..25 {
            let report: ShardReport<ScenarioStats<Bit>> = ShardReport {
                shard: rng.gen_index(0, 8),
                outcomes: (0..rng.gen_index(0, 5))
                    .map(|i| {
                        let result = if rng.gen_bool(0.8) {
                            Ok(stats(&mut rng))
                        } else {
                            Err(sim_error(&mut rng))
                        };
                        (i * 7, result)
                    })
                    .collect(),
            };
            round_trip(&report);
        }
    }

    #[test]
    fn decode_rejects_trailing_input() {
        let mut wire = CampaignPoint::new(4, 1).to_wire();
        wire.push_str("point n=5 t=1 adv=none inputs=default\n");
        assert!(matches!(
            CampaignPoint::from_wire(&wire),
            Err(WireError::Trailing { .. })
        ));
    }

    #[test]
    fn decode_reports_tag_mismatches_and_eof() {
        assert!(matches!(
            CampaignPoint::from_wire("stats mc=1\n"),
            Err(WireError::Tag { .. })
        ));
        assert!(matches!(
            CampaignPoint::from_wire(""),
            Err(WireError::Eof { .. })
        ));
        assert!(matches!(
            CampaignPoint::from_wire("point n=4\n"),
            Err(WireError::Field { .. })
        ));
    }

    #[test]
    fn errors_display_informatively() {
        let err = CampaignPoint::from_wire("point n=x t=1 adv=a inputs=b\n").unwrap_err();
        assert!(err.to_string().contains('n'), "{err}");
        let err = WireError::Eof {
            expected: "report".into(),
        };
        assert!(err.to_string().contains("report"));
    }

    // -----------------------------------------------------------------------
    // Adversarial-input hardening: every wire type must survive arbitrary
    // mutations of a valid encoding — truncation mid-byte, line surgery,
    // garbage splices, byte flips — with a typed `WireError`, never a panic.
    // If a mutation happens to still decode, the value must be internally
    // consistent (it re-encodes, and its re-encoding round-trips).
    // -----------------------------------------------------------------------

    /// Feeds every mutation of `wire` to the decoder. Success is simply not
    /// panicking; accidental `Ok`s must re-encode stably.
    fn assault<T: Encode + Decode + PartialEq + fmt::Debug>(value: &T, rng: &mut SimRng) {
        let wire = value.to_wire();
        let mut mutations: Vec<String> = Vec::new();
        // Byte truncations, including mid-UTF-8 (lossy repair mimics what a
        // cut TCP stream or killed process delivers after text recovery).
        let bytes = wire.as_bytes();
        for k in 0..bytes.len() {
            if k % 3 == 0 || k + 4 >= bytes.len() {
                mutations.push(String::from_utf8_lossy(&bytes[..k]).into_owned());
            }
        }
        let lines: Vec<&str> = wire.lines().collect();
        if !lines.is_empty() {
            // Remove one line, duplicate one line, swap two lines.
            let mut removed = lines.clone();
            removed.remove(rng.gen_index(0, lines.len()));
            mutations.push(removed.join("\n") + "\n");
            let mut duplicated = lines.clone();
            let dup_at = rng.gen_index(0, lines.len());
            duplicated.insert(dup_at, lines[dup_at]);
            mutations.push(duplicated.join("\n") + "\n");
            let mut swapped = lines.clone();
            swapped.swap(rng.gen_index(0, lines.len()), rng.gen_index(0, lines.len()));
            mutations.push(swapped.join("\n") + "\n");
        }
        // Garbage splices at a random line boundary.
        for garbage in [
            "garbage\n",
            "outcome index=0 sum=dead data=beef\n",
            "point n=1\n",
            "=\n",
            "% %% %%%\n",
        ] {
            let mut spliced = String::new();
            let at = rng.gen_index(0, lines.len() + 1);
            for (i, line) in lines.iter().enumerate() {
                if i == at {
                    spliced.push_str(garbage);
                }
                spliced.push_str(line);
                spliced.push('\n');
            }
            if at == lines.len() {
                spliced.push_str(garbage);
            }
            mutations.push(spliced);
        }
        // Byte flips (lossy-repaired so the input is a `str` again — the
        // raw-bytes case is the transports' job; decoders take `&str`).
        for _ in 0..8 {
            let mut flipped = bytes.to_vec();
            if flipped.is_empty() {
                break;
            }
            let at = rng.gen_index(0, flipped.len());
            flipped[at] = rng.next_u64() as u8;
            mutations.push(String::from_utf8_lossy(&flipped).into_owned());
        }

        for mutated in &mutations {
            match T::from_wire(mutated) {
                Ok(value) => {
                    // An accidental success must be a self-consistent value.
                    let rewire = value.to_wire();
                    let again = T::from_wire(&rewire).unwrap_or_else(|e| {
                        panic!("re-encoding of an accepted mutation failed to decode: {e}")
                    });
                    assert_eq!(again, value);
                }
                Err(e) => {
                    // The typed error must render without panicking.
                    let _ = e.to_string();
                }
            }
        }
    }

    #[test]
    fn decoders_survive_adversarial_mutations_of_every_wire_type() {
        let mut rng = SimRng::seed_from_u64(0xADE5A17);
        for _ in 0..12 {
            assault(&point(&mut rng), &mut rng);
            assault(&sim_error(&mut rng), &mut rng);
            assault(&stats(&mut rng), &mut rng);
            assault(&outcome(&mut rng), &mut rng);
            let report = CampaignReport {
                outcomes: (0..rng.gen_index(1, 4))
                    .map(|_| outcome(&mut rng))
                    .collect(),
            };
            assault(&report, &mut rng);
            let entry = ShardEntry {
                index: rng.gen_index(0, 99),
                seed: rng.next_u64(),
                point: point(&mut rng),
            };
            assault(&entry, &mut rng);
            let manifest = ShardManifest {
                shard: 0,
                shards: 2,
                mode: ShardMode::Scenarios,
                protocol: label(&mut rng),
                threads: 0,
                entries: vec![entry],
            };
            assault(&manifest, &mut rng);
            let shard_report: ShardReport<ScenarioStats<Bit>> = ShardReport {
                shard: rng.gen_index(0, 8),
                outcomes: vec![(0, Ok(stats(&mut rng))), (1, Err(sim_error(&mut rng)))],
            };
            assault(&shard_report, &mut rng);
            let point_outcome: PointOutcome<ScenarioStats<Bit>> = PointOutcome {
                index: rng.gen_index(0, 99),
                result: if rng.gen_bool(0.5) {
                    Ok(stats(&mut rng))
                } else {
                    Err(sim_error(&mut rng))
                },
            };
            assault(&point_outcome, &mut rng);
            let failure = ShardFailure {
                shard: rng.gen_index(0, 8),
                attempts: rng.gen_index(1, 5),
                last: label(&mut rng),
            };
            assault(&failure, &mut rng);
            let partial: PartialSweep<ScenarioStats<Bit>> = PartialSweep {
                grid_len: 4,
                outcomes: vec![(0, Ok(stats(&mut rng))), (2, Err(sim_error(&mut rng)))],
                missing: vec![1, 3],
                failures: vec![failure],
            };
            assault(&partial, &mut rng);
        }
    }

    #[test]
    fn checksummed_outcome_lines_reject_any_single_character_corruption() {
        // The streamed `outcome` line is the one record harvested mid-crash,
        // so its integrity bar is higher: *any* corruption of the data field
        // must be detected by the checksum — a typed error, never a wrong
        // value decoded as if it were good.
        let mut rng = SimRng::seed_from_u64(0xC4EC);
        let original: PointOutcome<ScenarioStats<Bit>> = PointOutcome {
            index: 3,
            result: Ok(stats(&mut rng)),
        };
        let wire = original.to_wire();
        let data_start = wire.find(" data=").expect("data field") + " data=".len();
        for at in data_start..wire.trim_end().len() {
            for replacement in ['0', 'z', '~'] {
                let mut mutated = wire.clone();
                // Replace one character of the escaped payload.
                mutated.replace_range(at..at + 1, &replacement.to_string());
                if mutated == wire {
                    continue;
                }
                match PointOutcome::<ScenarioStats<Bit>>::from_wire(&mutated) {
                    Ok(decoded) => assert_eq!(
                        decoded, original,
                        "a corrupted line decoded to a different value"
                    ),
                    Err(e) => {
                        let _ = e.to_string();
                    }
                }
            }
        }
    }
}
