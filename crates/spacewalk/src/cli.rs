//! The command-line knob table and the one argv walker that reads it.
//!
//! A *knob* is a flag, the `MHE_*` variable that may stand in for it, and
//! the validator both go through — written once, as one row below. Each
//! entry point ([`WALK`], [`CONNECT`], [`WORKER`], [`FLEET`] and
//! [`SERVER`]) lists the rows it accepts, and [`Command::parse`] resolves
//! every accepted knob as flag, then variable, then the caller's default,
//! rejecting an invalid flag or variable with a one-line message that
//! names it (the binaries exit 2 on it). An empty variable counts as
//! unset.
//!
//! The library `Default` impls ([`crate::ServiceLimits`],
//! [`crate::ServiceConfig`], [`crate::FleetConfig`],
//! [`crate::ClientBuilder`], [`crate::WorkerOptions`] and
//! [`crate::Server::bind`]) read the same rows through [`Knob::env`],
//! which falls back to the built-in default on an invalid value, because
//! a `Default` cannot report an error.

use mhe_cache::Policy;
use mhe_core::SamplingConfig;
use std::fmt::Display;
use std::num::ParseIntError;
use std::str::FromStr;
use std::time::Duration;

/// What a knob's text must look like, and what it becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A switch: the flag takes no value.
    Switch,
    /// Any text: a path or an address.
    Text,
    /// Non-empty text: a shared secret.
    Token,
    /// A whole number of at least this minimum that fits in 32 bits.
    Count(u32),
    /// Whole seconds, at least this minimum.
    Secs(u64),
    /// A comma-separated replacement-policy list, e.g. `lru,fifo,random:7`.
    Policies,
    /// Interval sampling: `N[:clusters=K,warmup=W]`.
    Sample,
}

/// A checked knob value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A [`Check::Switch`] that was given.
    Switch,
    /// [`Check::Text`] or [`Check::Token`].
    Text(String),
    /// [`Check::Count`].
    Count(u32),
    /// [`Check::Secs`].
    Secs(Duration),
    /// [`Check::Policies`].
    Policies(Vec<Policy>),
    /// [`Check::Sample`].
    Sample(SamplingConfig),
}

/// One row of the knob table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The flag, e.g. `--timeout`.
    pub flag: &'static str,
    /// The value's name in usage text (empty for a switch).
    pub meta: &'static str,
    /// The variable that stands in for an absent flag.
    pub env: Option<&'static str>,
    /// The validator shared by the flag and the variable.
    pub check: Check,
}

const fn knob(flag: &'static str, meta: &'static str, check: Check) -> Knob {
    Knob { flag, meta, env: None, check }
}

const fn env_knob(flag: &'static str, meta: &'static str, env: &'static str, check: Check) -> Knob {
    Knob { flag, meta, env: Some(env), check }
}

/// Prints the usage and exits 0.
pub const HELP: Knob = knob("--help", "", Check::Switch);
/// Text run report on stderr (`MHE_OBS=text`).
pub const OBS: Knob = knob("--obs", "", Check::Switch);
/// JSON run report on stderr (`MHE_OBS=json`).
pub const OBS_JSON: Knob = knob("--obs-json", "", Check::Switch);
/// Demonstrates neighbourhood-ascent pruning before the full walk.
pub const HEURISTIC: Knob = knob("--heuristic", "", Check::Switch);
/// Overrides the replacement-policy dimension of every cache space.
pub const POLICY: Knob = knob("--policy", "LIST", Check::Policies);
/// Routes the reference evaluation through interval sampling.
pub const SAMPLE: Knob = knob("--sample", "N[:clusters=K,warmup=W]", Check::Sample);
/// Evaluation cache: a `.mhec` file for `walk`/`fleet`, a directory of
/// per-scope caches for `mhe-server`.
pub const DB: Knob = knob("--db", "PATH", Check::Text);
/// Also writes the evaluation cache as a text listing.
pub const EXPORT: Knob = knob("--export", "PATH", Check::Text);
/// Checkpoints the evaluation cache into this directory.
pub const CHECKPOINT: Knob = knob("--checkpoint", "DIR", Check::Text);
/// Resumes from (and keeps checkpointing into) this directory.
pub const RESUME: Knob = knob("--resume", "DIR", Check::Text);
/// Client read timeout (`connect`) or coordinator-silence deadline
/// (`worker`).
pub const TIMEOUT: Knob = knob("--timeout", "SECS", Check::Secs(1));
/// Dial retries before a client gives up.
pub const RETRIES: Knob = knob("--retries", "N", Check::Count(0));
/// Wall-clock budget across all dial retries.
pub const RETRY_DEADLINE: Knob = knob("--retry-deadline", "SECS", Check::Secs(1));
/// Worker evaluation threads (`0` = `MHE_THREADS` or all cores).
pub const THREADS: Knob = knob("--threads", "N", Check::Count(0));
/// Redials of a lost coordinator before a worker gives up.
pub const REDIALS: Knob = knob("--redials", "N", Check::Count(0));
/// Fault drill: a worker streams this many points, then dies.
pub const DIE_AFTER_POINTS: Knob = knob("--die-after-points", "N", Check::Count(0));
/// Local worker processes a fleet spawns (`0` = attach them manually).
pub const WORKERS: Knob = knob("--workers", "N", Check::Count(0));
/// The coordinator's listening address.
pub const BIND: Knob = knob("--bind", "ADDR", Check::Text);
/// The daemon's listening address.
pub const ADDR: Knob = knob("--addr", "HOST:PORT", Check::Text);
/// Where to publish the actually-bound address.
pub const PORT_FILE: Knob = knob("--port-file", "PATH", Check::Text);
/// Shards the fleet's key space is partitioned into.
pub const SHARDS: Knob = knob("--shards", "N", Check::Count(1));
/// Unrenewed fleet leases are reclaimed after this long.
pub const LEASE_TIMEOUT: Knob = knob("--lease-timeout", "SECS", Check::Secs(1));
/// A fleet with no progress for this long aborts.
pub const STALL_TIMEOUT: Knob = knob("--stall-timeout", "SECS", Check::Secs(1));
/// Shared secret for daemon and fleet authentication.
pub const AUTH_TOKEN: Knob = env_knob("--auth-token", "TOKEN", "MHE_AUTH_TOKEN", Check::Token);
/// Daemon evaluations allowed to run concurrently.
pub const INFLIGHT: Knob = env_knob("--inflight", "N", "MHE_SERVER_INFLIGHT", Check::Count(1));
/// Daemon requests allowed to wait for a slot before arrivals are rejected.
pub const QUEUE: Knob = env_knob("--queue", "N", "MHE_SERVER_QUEUE", Check::Count(0));
/// Idle daemon sessions expire after this long (`0` = on the next touch).
pub const SESSION_TTL: Knob = env_knob("--session-ttl", "SECS", "MHE_SESSION_TTL", Check::Secs(0));
/// Warm daemon sessions kept before the least recently used is evicted.
pub const MAX_SESSIONS: Knob = env_knob("--max-sessions", "N", "MHE_MAX_SESSIONS", Check::Count(1));

/// An entry point: its operands and the knobs it accepts.
#[derive(Debug)]
pub struct Command {
    /// How the entry point is invoked, e.g. `spacewalker walk`.
    pub name: &'static str,
    /// Names of the operands, all required, in order.
    pub operands: &'static [&'static str],
    /// Knobs that must be given.
    pub required: &'static [Knob],
    /// Optional knobs.
    pub knobs: &'static [Knob],
}

/// `spacewalker walk`: batch exploration.
pub const WALK: Command = Command {
    name: "spacewalker walk",
    operands: &["SPEC"],
    required: &[],
    knobs: &[DB, EXPORT, HEURISTIC, POLICY, SAMPLE, CHECKPOINT, RESUME, OBS, OBS_JSON],
};

/// `spacewalker connect`: the walk, served by a daemon.
pub const CONNECT: Command = Command {
    name: "spacewalker connect",
    operands: &["ADDR", "SPEC"],
    required: &[],
    knobs: &[
        HEURISTIC,
        POLICY,
        SAMPLE,
        TIMEOUT,
        RETRIES,
        RETRY_DEADLINE,
        AUTH_TOKEN,
        OBS,
        OBS_JSON,
    ],
};

/// `spacewalker worker`: one fleet worker.
pub const WORKER: Command = Command {
    name: "spacewalker worker",
    operands: &["ADDR"],
    required: &[],
    knobs: &[THREADS, TIMEOUT, REDIALS, AUTH_TOKEN, DIE_AFTER_POINTS, OBS, OBS_JSON],
};

/// `spacewalker fleet`: the distributed walk's coordinator.
pub const FLEET: Command = Command {
    name: "spacewalker fleet",
    operands: &["SPEC"],
    required: &[WORKERS],
    knobs: &[
        BIND,
        PORT_FILE,
        SHARDS,
        LEASE_TIMEOUT,
        STALL_TIMEOUT,
        AUTH_TOKEN,
        DB,
        EXPORT,
        POLICY,
        SAMPLE,
        CHECKPOINT,
        RESUME,
        OBS,
        OBS_JSON,
    ],
};

/// `mhe-server`: the sweep daemon.
pub const SERVER: Command = Command {
    name: "mhe-server",
    operands: &[],
    required: &[],
    knobs: &[
        ADDR,
        PORT_FILE,
        INFLIGHT,
        QUEUE,
        SESSION_TTL,
        MAX_SESSIONS,
        DB,
        AUTH_TOKEN,
        OBS,
        OBS_JSON,
    ],
};

/// The flags and operands of one invocation, checked against a
/// [`Command`], with absent flags filled from their variables.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, Value)>,
    /// The operands, exactly as many as the command names.
    pub operands: Vec<String>,
}

impl Args {
    /// Whether `knob` was given (by flag or variable).
    pub fn has(&self, knob: &Knob) -> bool {
        self.values.iter().any(|(flag, _)| *flag == knob.flag)
    }

    /// The value of `knob`, if it was given (by flag or variable).
    pub fn get<T: FromValue>(&self, knob: &Knob) -> Option<T> {
        self.values.iter().find(|(flag, _)| *flag == knob.flag).and_then(|(_, v)| T::from_value(v))
    }

    /// Applies `--obs`/`--obs-json` (the JSON sink wins when both are given).
    pub fn apply_obs(&self) {
        if self.has(&OBS_JSON) {
            mhe_obs::set_level(mhe_obs::ObsLevel::Json);
        } else if self.has(&OBS) {
            mhe_obs::set_level(mhe_obs::ObsLevel::Text);
        }
    }
}

impl Command {
    fn accepts(&self) -> impl Iterator<Item = &Knob> {
        self.required.iter().chain(self.knobs).chain([&HELP])
    }

    /// Walks `argv` against the knobs this command accepts, then fills
    /// each absent knob that has a variable from `lookup` (the process
    /// environment in the binaries). A repeated flag keeps its last value.
    /// With `--help` given, operands and required knobs are not checked.
    ///
    /// # Errors
    ///
    /// A one-line message naming the unknown flag, the flag or variable
    /// whose value fails its check, or the missing operand or knob.
    pub fn parse(
        &self,
        argv: &[String],
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                args.operands.push(arg.clone());
                continue;
            }
            let knob = self
                .accepts()
                .find(|k| k.flag == arg)
                .ok_or_else(|| format!("unknown flag {arg:?} (see {} --help)", self.name))?;
            let value = match knob.check {
                Check::Switch => Value::Switch,
                check => {
                    let text = argv.next().ok_or_else(|| format!("{arg} needs {}", knob.meta))?;
                    check.parse(text).map_err(|e| format!("{arg} {text:?}: {e}"))?
                }
            };
            args.values.retain(|(flag, _)| *flag != knob.flag);
            args.values.push((knob.flag, value));
        }
        if args.has(&HELP) {
            return Ok(args);
        }
        if let Some(extra) = args.operands.get(self.operands.len()) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        if args.operands.len() < self.operands.len() {
            let missing = self.operands.join(" ");
            return Err(format!("missing {missing} (see {} --help)", self.name));
        }
        if let Some(knob) = self.required.iter().find(|k| !args.has(k)) {
            return Err(format!("missing {} (see {} --help)", knob.synopsis(), self.name));
        }
        for knob in self.accepts() {
            if !args.has(knob) {
                if let Some(value) = knob.read_var(&lookup)? {
                    args.values.push((knob.flag, value));
                }
            }
        }
        Ok(args)
    }

    /// The synopsis, wrapped at 78 columns (80 once indented in a
    /// usage listing).
    pub fn usage(&self) -> String {
        let words = self.operands.iter().map(|o| o.to_string());
        let words = words.chain(self.required.iter().map(|k| k.synopsis()));
        let words = words.chain(self.knobs.iter().map(|k| format!("[{}]", k.synopsis())));
        let mut out = self.name.to_string();
        let mut width = out.len();
        for word in words {
            if width + 1 + word.len() > 78 {
                out.push_str("\n     ");
                width = 5;
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out
    }
}

impl Knob {
    fn synopsis(&self) -> String {
        format!("{} {}", self.flag, self.meta).trim_end().to_string()
    }

    /// The checked value of this knob's variable in `lookup`: `Ok(None)`
    /// when the knob has no variable or it is unset or empty.
    fn read_var(&self, lookup: &impl Fn(&str) -> Option<String>) -> Result<Option<Value>, String> {
        let Some(var) = self.env else { return Ok(None) };
        match lookup(var).filter(|text| !text.is_empty()) {
            Some(text) => {
                self.check.parse(&text).map(Some).map_err(|e| format!("{var} {text:?}: {e}"))
            }
            None => Ok(None),
        }
    }

    /// The value of this knob's variable in the process environment, or
    /// `None` when it is unset, empty or invalid — the lenient read the
    /// library defaults use.
    pub fn env<T: FromValue>(&self) -> Option<T> {
        let value = self.read_var(&|var| std::env::var(var).ok()).ok().flatten()?;
        T::from_value(&value)
    }
}

impl Check {
    fn parse(self, text: &str) -> Result<Value, String> {
        Ok(match self {
            Check::Switch => Value::Switch,
            Check::Token if text.is_empty() => return Err("must not be empty".into()),
            Check::Text | Check::Token => Value::Text(text.to_string()),
            Check::Count(min) => Value::Count(at_least(text, min)?),
            Check::Secs(min) => Value::Secs(Duration::from_secs(at_least(text, min)?)),
            Check::Policies => Value::Policies(parse_policy_list(text)?),
            Check::Sample => Value::Sample(parse_sample(text)?),
        })
    }
}

fn at_least<T>(text: &str, min: T) -> Result<T, String>
where
    T: FromStr<Err = ParseIntError> + PartialOrd + Display,
{
    let n: T = text.trim().parse().map_err(|e: ParseIntError| e.to_string())?;
    if n < min {
        return Err(format!("must be at least {min}"));
    }
    Ok(n)
}

/// Parses `N[:clusters=K,warmup=W]` into a [`SamplingConfig`] (defaults
/// fill the unnamed fields).
fn parse_sample(arg: &str) -> Result<SamplingConfig, String> {
    let (n, opts) = match arg.split_once(':') {
        Some((n, opts)) => (n, Some(opts)),
        None => (arg, None),
    };
    let interval_accesses: usize = n.parse().map_err(|e| format!("interval size {n:?}: {e}"))?;
    let mut cfg = SamplingConfig { interval_accesses, ..SamplingConfig::default() };
    for pair in opts.iter().flat_map(|o| o.split(',')).filter(|p| !p.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("expected key=value, got {pair:?}"));
        };
        match key {
            "clusters" => {
                cfg.clusters = value.parse().map_err(|e| format!("clusters {value:?}: {e}"))?;
            }
            "warmup" => {
                cfg.warmup = value.parse().map_err(|e| format!("warmup {value:?}: {e}"))?;
            }
            other => return Err(format!("unknown option {other:?} (clusters, warmup)")),
        }
    }
    cfg.validate().map_err(|(field, req)| format!("{field} {req}"))?;
    Ok(cfg)
}

fn parse_policy_list(list: &str) -> Result<Vec<Policy>, String> {
    let mut parsed = Vec::new();
    for token in list.split(',').filter(|t| !t.is_empty()) {
        parsed.push(token.parse::<Policy>().map_err(|e| format!("{token:?}: {e}"))?);
    }
    if parsed.is_empty() {
        return Err("needs at least one policy".into());
    }
    Ok(parsed)
}

/// Conversion from a checked [`Value`] to the type a config field holds.
pub trait FromValue: Sized {
    /// `None` when `value` is of another kind.
    fn from_value(value: &Value) -> Option<Self>;
}

macro_rules! from_value {
    ($($ty:ty: $pat:pat => $out:expr;)*) => {$(
        impl FromValue for $ty {
            fn from_value(value: &Value) -> Option<Self> {
                match value {
                    $pat => $out,
                    _ => None,
                }
            }
        }
    )*};
}

from_value! {
    String: Value::Text(text) => Some(text.clone());
    Duration: Value::Secs(secs) => Some(*secs);
    u32: Value::Count(n) => Some(*n);
    u64: Value::Count(n) => Some(u64::from(*n));
    usize: Value::Count(n) => usize::try_from(*n).ok();
    Vec<Policy>: Value::Policies(list) => Some(list.clone());
    SamplingConfig: Value::Sample(cfg) => Some(*cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a whitespace-separated command line (`''` is an empty
    /// argument) with the variables in `env`.
    fn parse(cmd: &Command, line: &str, env: &[(&str, &str)]) -> Result<Args, String> {
        let argv: Vec<String> =
            line.split_whitespace().map(|w| if w == "''" { "" } else { w }.to_string()).collect();
        cmd.parse(&argv, |var| env.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn invalid_command_lines_are_rejected_with_the_reason() {
        for (cmd, line, want) in [
            // Zero where zero means nothing: one positive-seconds check.
            (&CONNECT, "a:1 s --timeout 0 --retries 2", "--timeout \"0\": must be at least 1"),
            (&CONNECT, "a:1 s --retry-deadline 0", "must be at least 1"),
            (&WORKER, "a:1 --timeout 0", "--timeout \"0\": must be at least 1"),
            (&FLEET, "s --workers 0 --stall-timeout 0", "--stall-timeout \"0\": must be"),
            (&FLEET, "s --workers 0 --lease-timeout 0", "--lease-timeout \"0\": must be"),
            (&FLEET, "s --workers 0 --shards 0", "must be at least 1"),
            (&SERVER, "--inflight 0", "must be at least 1"),
            (&SERVER, "--max-sessions 0", "must be at least 1"),
            // An empty token, by every command that takes one.
            (&CONNECT, "a:1 s --auth-token ''", "--auth-token \"\": must not be empty"),
            (&WORKER, "a:1 --auth-token ''", "--auth-token \"\": must not be empty"),
            (&FLEET, "s --workers 1 --auth-token ''", "--auth-token \"\": must not be empty"),
            (&SERVER, "--auth-token ''", "--auth-token \"\": must not be empty"),
            // Flags, operands and required knobs.
            (&WALK, "s --frobnicate", "unknown flag \"--frobnicate\""),
            (&CONNECT, "a:1 s --db x", "unknown flag"),
            (&WALK, "", "missing SPEC"),
            (&CONNECT, "a:1", "missing ADDR SPEC"),
            (&WALK, "a b", "unexpected argument \"b\""),
            (&FLEET, "s", "missing --workers N"),
            (&WALK, "s --db", "--db needs PATH"),
            (&WALK, "s --policy ,", "at least one policy"),
            (&WALK, "s --sample 64:depth=2", "unknown option"),
            (&SERVER, "--queue many", "--queue \"many\""),
        ] {
            let err = parse(cmd, line, &[]).expect_err(line);
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn valid_command_lines_yield_typed_values() {
        let line = "s.txt --heuristic --policy lru,fifo --sample 64:clusters=4";
        let args = parse(&WALK, line, &[]).expect("valid walk");
        assert_eq!(args.operands, ["s.txt"]);
        assert!(args.has(&HEURISTIC));
        assert_eq!(args.get(&POLICY), Some(vec![Policy::Lru, Policy::Fifo]));
        let sampling: SamplingConfig = args.get(&SAMPLE).expect("sampling");
        assert_eq!((sampling.interval_accesses, sampling.clusters), (64, 4));

        let args = parse(&WORKER, "a:1 --redials 1 --redials 7 --auth-token t", &[]).expect("ok");
        assert_eq!(args.get::<u32>(&REDIALS), Some(7), "the last value wins");
        assert_eq!(args.get::<String>(&AUTH_TOKEN).as_deref(), Some("t"));

        let args = parse(&SERVER, "--session-ttl 0 --queue 0", &[]).expect("zero is valid");
        assert_eq!(args.get(&SESSION_TTL), Some(Duration::ZERO));
        assert_eq!(args.get::<usize>(&QUEUE), Some(0));
        assert!(parse(&FLEET, "--help", &[]).expect("help skips checks").has(&HELP));
    }

    #[test]
    fn knobs_resolve_flag_then_variable_then_default() {
        let env = [("MHE_MAX_SESSIONS", "3"), ("MHE_AUTH_TOKEN", "")];
        let args = parse(&SERVER, "--inflight 2", &env).expect("valid");
        assert_eq!(args.get::<usize>(&INFLIGHT), Some(2));
        assert_eq!(args.get::<usize>(&MAX_SESSIONS), Some(3));
        assert!(!args.has(&QUEUE), "unset: the caller's default applies");
        assert!(!args.has(&AUTH_TOKEN), "an empty variable counts as unset");

        let env = [("MHE_SERVER_INFLIGHT", "abc")];
        let args = parse(&SERVER, "--inflight 5", &env).expect("the flag wins");
        assert_eq!(args.get::<usize>(&INFLIGHT), Some(5));
        for (var, text) in [("MHE_SERVER_INFLIGHT", "abc"), ("MHE_MAX_SESSIONS", "0")] {
            let err = parse(&SERVER, "", &[(var, text)]).expect_err("invalid variable");
            assert!(err.starts_with(var) && !err.contains('\n'), "{err}");
        }
        let args = parse(&CONNECT, "a:1 s", &[("MHE_AUTH_TOKEN", "t")]).expect("from env");
        assert_eq!(args.get::<String>(&AUTH_TOKEN).as_deref(), Some("t"));
    }

    #[test]
    fn usage_lists_every_knob_once_within_78_columns() {
        for cmd in [&WALK, &CONNECT, &WORKER, &FLEET, &SERVER] {
            let usage = cmd.usage();
            assert!(usage.lines().all(|l| l.len() <= 78), "{usage}");
            for knob in cmd.knobs {
                assert_eq!(usage.matches(&format!("[{}]", knob.synopsis())).count(), 1, "{usage}");
            }
        }
        assert!(FLEET.usage().starts_with("spacewalker fleet SPEC --workers N [--bind ADDR]"));
    }
}
