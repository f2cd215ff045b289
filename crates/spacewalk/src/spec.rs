//! Design-space specification files.
//!
//! "The Walkers module accepts an input file consisting of the design
//! space specification. In a non-interactive design space exploration,
//! this input file may be specified manually or generated by other
//! scripts." This module parses that file: a small sectioned key/value
//! format, one section per subsystem.
//!
//! ```text
//! # Anything after '#' is a comment.
//! [processors]
//! kinds = 1111 2111 3221
//!
//! [icache]
//! sizes_kb  = 1 2 4 8 16
//! assocs    = 1 2
//! line_bytes = 16 32
//! ports     = 1
//!
//! [dcache]     # same keys as icache
//! sizes_kb  = 1 4 16
//! assocs    = 1 2
//! line_bytes = 32
//!
//! [ucache]
//! sizes_kb  = 16 64 128
//! assocs    = 2 4
//! line_bytes = 64
//!
//! [eval]
//! benchmark = epic
//! events    = 150000
//! l1_miss   = 10
//! l2_miss   = 50
//! ```

use crate::space::{CacheSpace, SystemSpace};
use mhe_cache::Penalties;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;
use std::collections::HashMap;
use std::fmt;

/// Errors from parsing a specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpecError {
    /// A line outside any `[section]` or without `key = value` shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A value failed to parse as the expected type.
    BadValue {
        /// The section and key.
        key: String,
        /// The offending token.
        token: String,
    },
    /// A required section or key is missing.
    Missing {
        /// What is missing.
        what: String,
    },
    /// An unknown processor or benchmark name.
    UnknownName {
        /// The unrecognized token.
        name: String,
    },
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::Malformed { line, text } => {
                write!(f, "malformed line {line}: {text:?}")
            }
            ParseSpecError::BadValue { key, token } => {
                write!(f, "bad value {token:?} for {key}")
            }
            ParseSpecError::Missing { what } => write!(f, "missing {what}"),
            ParseSpecError::UnknownName { name } => write!(f, "unknown name {name:?}"),
        }
    }
}

impl std::error::Error for ParseSpecError {}

/// A fully parsed specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The system design space.
    pub space: SystemSpace,
    /// Benchmark to evaluate.
    pub benchmark: Benchmark,
    /// Dynamic window in block events.
    pub events: usize,
    /// Miss penalties.
    pub penalties: Penalties,
}

impl Spec {
    /// Parses a specification from text.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseSpecError`] encountered.
    pub fn parse(text: &str) -> Result<Spec, ParseSpecError> {
        let sections = split_sections(text)?;
        let procs = parse_processors(&sections)?;
        let icache = parse_cache(&sections, "icache")?;
        let dcache = parse_cache(&sections, "dcache")?;
        let ucache = parse_cache(&sections, "ucache")?;
        let eval = sections
            .get("eval")
            .ok_or_else(|| ParseSpecError::Missing { what: "[eval] section".into() })?;
        let benchmark = parse_benchmark(eval.get("benchmark").map(String::as_str))?;
        let events = match eval.get("events") {
            Some(v) => v.parse().map_err(|_| ParseSpecError::BadValue {
                key: "eval.events".into(),
                token: v.clone(),
            })?,
            None => 200_000,
        };
        let penalties = Penalties {
            l1_miss: parse_scalar(eval, "eval", "l1_miss")?.unwrap_or(10),
            l2_miss: parse_scalar(eval, "eval", "l2_miss")?.unwrap_or(50),
        };
        Ok(Spec {
            space: SystemSpace { processors: procs, icache, dcache, ucache },
            benchmark,
            events,
            penalties,
        })
    }
}

type Sections = HashMap<String, HashMap<String, String>>;

fn split_sections(text: &str) -> Result<Sections, ParseSpecError> {
    let mut sections: Sections = HashMap::new();
    let mut current: Option<String> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim().to_ascii_lowercase();
            current = Some(name.clone());
            sections.entry(name).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseSpecError::Malformed { line: i + 1, text: raw.to_string() });
        };
        let Some(section) = &current else {
            return Err(ParseSpecError::Malformed { line: i + 1, text: raw.to_string() });
        };
        sections
            .entry(section.clone())
            .or_default()
            .insert(key.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(sections)
}

fn parse_list<T: std::str::FromStr>(
    section: &HashMap<String, String>,
    sname: &str,
    key: &str,
) -> Result<Option<Vec<T>>, ParseSpecError> {
    let Some(v) = section.get(key) else { return Ok(None) };
    let mut out = Vec::new();
    for token in v.split_whitespace() {
        out.push(token.parse().map_err(|_| ParseSpecError::BadValue {
            key: format!("{sname}.{key}"),
            token: token.to_string(),
        })?);
    }
    Ok(Some(out))
}

fn parse_scalar(
    section: &HashMap<String, String>,
    sname: &str,
    key: &str,
) -> Result<Option<u64>, ParseSpecError> {
    let Some(v) = section.get(key.rsplit('.').next().unwrap_or(key)) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| ParseSpecError::BadValue { key: format!("{sname}.{key}"), token: v.clone() })
}

fn parse_processors(sections: &Sections) -> Result<Vec<mhe_vliw::Mdes>, ParseSpecError> {
    let section = sections
        .get("processors")
        .ok_or_else(|| ParseSpecError::Missing { what: "[processors] section".into() })?;
    let kinds = section
        .get("kinds")
        .ok_or_else(|| ParseSpecError::Missing { what: "processors.kinds".into() })?;
    let mut out = Vec::new();
    for token in kinds.split_whitespace() {
        if let Some(kind) = ProcessorKind::ALL.iter().find(|k| k.name() == token) {
            out.push(kind.mdes());
        } else if let Some(custom) = sections.get(&format!("processor.{token}")) {
            out.push(parse_custom_processor(token, custom)?);
        } else {
            return Err(ParseSpecError::UnknownName { name: token.to_string() });
        }
    }
    if out.is_empty() {
        return Err(ParseSpecError::Missing { what: "at least one processor".into() });
    }
    Ok(out)
}

/// Parses a `[processor.NAME]` section into a custom machine:
///
/// ```text
/// [processor.wide]
/// units = 4 2 2 2       # int float mem branch
/// regs  = 64 64         # int float (optional, default 32 32)
/// speculation = off     # optional, default on
/// predication = on      # optional, default off
/// ```
fn parse_custom_processor(
    name: &str,
    section: &HashMap<String, String>,
) -> Result<mhe_vliw::Mdes, ParseSpecError> {
    let units: Vec<u32> = parse_list(section, name, "units")?
        .ok_or_else(|| ParseSpecError::Missing { what: format!("processor.{name}.units") })?;
    if units.len() != 4 {
        return Err(ParseSpecError::BadValue {
            key: format!("processor.{name}.units"),
            token: format!("{} entries (need 4: int float mem branch)", units.len()),
        });
    }
    if let Some(&zero) = units.iter().find(|&&u| u == 0) {
        return Err(ParseSpecError::BadValue {
            key: format!("processor.{name}.units"),
            token: format!("{zero} (need at least 1 of each class)"),
        });
    }
    let regs: Vec<u32> = parse_list(section, name, "regs")?.unwrap_or_else(|| vec![32, 32]);
    if regs.len() != 2 {
        return Err(ParseSpecError::BadValue {
            key: format!("processor.{name}.regs"),
            token: format!("{} entries (need 2: int float)", regs.len()),
        });
    }
    if let Some(&few) = regs.iter().find(|&&r| r < 8) {
        return Err(ParseSpecError::BadValue {
            key: format!("processor.{name}.regs"),
            token: format!("{few} (need at least 8 per file)"),
        });
    }
    let flag = |key: &str, default: bool| -> Result<bool, ParseSpecError> {
        match section.get(key).map(String::as_str) {
            None => Ok(default),
            Some("on") | Some("true") | Some("yes") => Ok(true),
            Some("off") | Some("false") | Some("no") => Ok(false),
            Some(other) => Err(ParseSpecError::BadValue {
                key: format!("processor.{name}.{key}"),
                token: other.to_string(),
            }),
        }
    };
    Ok(mhe_vliw::Mdes::builder(name)
        .units(units[0], units[1], units[2], units[3])
        .regs(regs[0], regs[1])
        .speculation(flag("speculation", true)?)
        .predication(flag("predication", false)?)
        .build())
}

fn parse_cache(sections: &Sections, name: &str) -> Result<CacheSpace, ParseSpecError> {
    let section = sections
        .get(name)
        .ok_or_else(|| ParseSpecError::Missing { what: format!("[{name}] section") })?;
    let sizes_kb: Vec<u64> = parse_list(section, name, "sizes_kb")?
        .ok_or_else(|| ParseSpecError::Missing { what: format!("{name}.sizes_kb") })?;
    let assocs = parse_list(section, name, "assocs")?.unwrap_or_else(|| vec![1]);
    let line_bytes = parse_list(section, name, "line_bytes")?.unwrap_or_else(|| vec![32]);
    let ports = parse_list(section, name, "ports")?.unwrap_or_else(|| vec![1]);
    // e.g. `policies = lru fifo plru random:7`.
    let policies =
        parse_list(section, name, "policies")?.unwrap_or_else(|| vec![mhe_cache::Policy::Lru]);
    let sizes_bytes = sizes_kb
        .iter()
        .map(|&k| {
            k.checked_mul(1024).ok_or_else(|| ParseSpecError::BadValue {
                key: format!("{name}.sizes_kb"),
                token: format!("{k} (too large to count in bytes)"),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(CacheSpace { sizes_bytes, assocs, line_bytes, ports, policies })
}

fn parse_benchmark(name: Option<&str>) -> Result<Benchmark, ParseSpecError> {
    // An empty name would suffix-match every benchmark.
    let name = name
        .filter(|name| !name.is_empty())
        .ok_or_else(|| ParseSpecError::Missing { what: "eval.benchmark".into() })?;
    Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name() == name || b.name().ends_with(name))
        .ok_or_else(|| ParseSpecError::UnknownName { name: name.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# comment
[processors]
kinds = 1111 3221

[icache]
sizes_kb = 1 2 4
assocs = 1 2
line_bytes = 32

[dcache]
sizes_kb = 1 4
assocs = 1

[ucache]
sizes_kb = 16 64
assocs = 2
line_bytes = 64

[eval]
benchmark = epic
events = 5000
l1_miss = 8
"#;

    #[test]
    fn parses_a_complete_spec() {
        let spec = Spec::parse(GOOD).unwrap();
        assert_eq!(spec.space.processors.len(), 2);
        assert_eq!(spec.space.icache.sizes_bytes, vec![1024, 2048, 4096]);
        assert_eq!(spec.benchmark, Benchmark::Epic);
        assert_eq!(spec.events, 5000);
        assert_eq!(spec.penalties.l1_miss, 8);
        assert_eq!(spec.penalties.l2_miss, 50); // default
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = Spec::parse(&format!("# leading\n\n{GOOD}\n# trailing")).unwrap();
        assert_eq!(spec.space.ucache.line_bytes, vec![64]);
    }

    #[test]
    fn missing_sections_are_reported() {
        let err = Spec::parse("[processors]\nkinds = 1111\n").unwrap_err();
        assert!(matches!(err, ParseSpecError::Missing { .. }), "{err}");
    }

    #[test]
    fn unknown_processor_is_an_error() {
        let err = Spec::parse(&GOOD.replace("1111 3221", "9999")).unwrap_err();
        assert_eq!(err, ParseSpecError::UnknownName { name: "9999".into() });
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let err = Spec::parse(&GOOD.replace("benchmark = epic", "benchmark = doom")).unwrap_err();
        assert!(matches!(err, ParseSpecError::UnknownName { .. }));
    }

    #[test]
    fn bad_numbers_are_reported_with_context() {
        let err = Spec::parse(&GOOD.replace("events = 5000", "events = soon")).unwrap_err();
        match err {
            ParseSpecError::BadValue { key, token } => {
                assert_eq!(key, "eval.events");
                assert_eq!(token, "soon");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn keys_before_any_section_are_malformed() {
        let err = Spec::parse("kinds = 1111\n").unwrap_err();
        assert!(matches!(err, ParseSpecError::Malformed { line: 1, .. }));
    }

    #[test]
    fn spec_names_accept_suffix_match() {
        // "gcc" matches "085.gcc", as a convenience.
        let spec = Spec::parse(&GOOD.replace("benchmark = epic", "benchmark = gcc")).unwrap();
        assert_eq!(spec.benchmark, Benchmark::Gcc);
    }

    #[test]
    fn custom_processors_parse() {
        let spec_text = GOOD.replace("kinds = 1111 3221", "kinds = 1111 wide")
            + "\n[processor.wide]\nunits = 4 2 2 2\nregs = 64 64\npredication = on\n";
        let spec = Spec::parse(&spec_text).unwrap();
        let wide = &spec.space.processors[1];
        assert_eq!(wide.name, "wide");
        assert_eq!(wide.width(), 10);
        assert!(wide.predication);
        assert!(wide.speculation);
    }

    #[test]
    fn custom_processor_bad_units_reported() {
        let spec_text =
            GOOD.replace("kinds = 1111 3221", "kinds = wide") + "\n[processor.wide]\nunits = 4 2\n";
        let err = Spec::parse(&spec_text).unwrap_err();
        assert!(matches!(err, ParseSpecError::BadValue { .. }), "{err}");
    }

    #[test]
    fn custom_processor_bad_flag_reported() {
        let spec_text = GOOD.replace("kinds = 1111 3221", "kinds = wide")
            + "\n[processor.wide]\nunits = 2 1 1 1\nspeculation = maybe\n";
        let err = Spec::parse(&spec_text).unwrap_err();
        assert!(matches!(err, ParseSpecError::BadValue { .. }), "{err}");
    }

    #[test]
    fn policies_key_parses_and_defaults_to_lru() {
        use mhe_cache::Policy;
        let spec = Spec::parse(GOOD).unwrap();
        assert_eq!(spec.space.icache.policies, vec![Policy::Lru]);
        let spec_text = GOOD
            .replace("line_bytes = 32\n", "line_bytes = 32\npolicies = lru fifo plru random:7\n");
        let spec = Spec::parse(&spec_text).unwrap();
        assert_eq!(
            spec.space.icache.policies,
            vec![Policy::Lru, Policy::Fifo, Policy::PlruTree, Policy::Random(7)]
        );
        // Other caches keep the default.
        assert_eq!(spec.space.dcache.policies, vec![Policy::Lru]);
    }

    #[test]
    fn bad_policy_is_reported_with_context() {
        let spec_text = GOOD.replace("line_bytes = 32\n", "line_bytes = 32\npolicies = mru\n");
        let err = Spec::parse(&spec_text).unwrap_err();
        match err {
            ParseSpecError::BadValue { key, token } => {
                assert_eq!(key, "icache.policies");
                assert_eq!(token, "mru");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn hostile_values_are_errors_naming_their_key() {
        let custom = |body: &str| {
            GOOD.replace("kinds = 1111 3221", "kinds = 1111 x") + "\n[processor.x]\n" + body
        };
        // Each case: the spec text and the key its error must name.
        let cases = [
            (custom("units = 0 0 0 0\n"), "processor.x.units"),
            (custom("units = 1 1 1 0\n"), "processor.x.units"),
            (custom("units = 1 1 1 1\nregs = 7 32\n"), "processor.x.regs"),
            (custom("units = 1 1 1 1\nregs = 32 0\n"), "processor.x.regs"),
            (
                GOOD.replace("sizes_kb = 1 2 4", "sizes_kb = 1 18446744073709551615"),
                "icache.sizes_kb",
            ),
            (GOOD.replace("sizes_kb = 16 64", "sizes_kb = 18014398509481984"), "ucache.sizes_kb"),
            (GOOD.replace("benchmark = epic", "benchmark ="), "eval.benchmark"),
        ];
        for (text, key) in cases {
            let err = Spec::parse(&text).unwrap_err();
            let named = match &err {
                ParseSpecError::BadValue { key, .. } => key,
                ParseSpecError::Missing { what } => what,
                other => panic!("{key}: unexpected error {other:?}"),
            };
            assert_eq!(named, key, "{err}");
        }
    }

    #[test]
    fn errors_display_cleanly() {
        let e = ParseSpecError::Missing { what: "x".into() };
        assert_eq!(e.to_string(), "missing x");
    }
}
