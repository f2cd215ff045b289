//! `mhe-server` — the sweep daemon as a crate.
//!
//! Everything interesting lives in [`mhe_spacewalk::service`]; this crate
//! is the deployment wrapper: flag parsing, port-file publication, and
//! the process lifecycle (bind → announce → serve → drain on SIGTERM).
//! Keeping it a thin shell means the daemon *cannot* diverge from
//! in-process evaluation — both are the same [`EvalService`] code.
//!
//! The flags, their `MHE_*` variables and their checks are the
//! [`cli::SERVER`] rows of the knob table; `mhe-server --help` lists
//! them. `--port-file PATH` writes the actually-bound address once
//! listening, which is how scripts and tests rendezvous with an
//! ephemeral-port daemon (`--addr` defaults to `127.0.0.1:0`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use mhe_spacewalk::cli;
use mhe_spacewalk::{EvalService, Server, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;

pub use mhe_core::{
    EXIT_BAD_CONFIG, EXIT_CANCELLED, EXIT_SERVER_UNAVAILABLE, EXIT_UNAUTHORIZED,
    EXIT_WORKER_FAILURE,
};

/// Parsed daemon configuration: every knob resolved as flag, then
/// variable, then default.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind (default `127.0.0.1:0`).
    pub addr: String,
    /// Where to publish the actually-bound address, if anywhere.
    pub port_file: Option<String>,
    /// Admission limits, session bounds and the persistence directory.
    pub service: ServiceConfig,
    /// The shared token clients must prove, if any.
    pub auth_token: Option<String>,
}

/// Parses daemon flags, reading absent knobs' variables from `lookup`
/// (the process environment in the binary). `--help` yields `Ok(None)`
/// after printing usage. `MHE_THREADS` and `MHE_RETRIES`, which steer
/// every sweep, are checked first, by [`mhe_core::env::check`].
///
/// # Errors
///
/// A one-line diagnostic for unknown flags, missing values, or a flag or
/// variable that fails its check (exit with [`EXIT_BAD_CONFIG`]).
pub fn parse_args(
    argv: &[String],
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<Option<DaemonConfig>, String> {
    mhe_core::env::check(&lookup)?;
    let args = cli::SERVER.parse(argv, lookup)?;
    if args.has(&cli::HELP) {
        eprintln!("usage:\n  {}", cli::SERVER.usage());
        return Ok(None);
    }
    args.apply_obs();
    let mut service = ServiceConfig::default();
    service.limits.max_inflight = args.get(&cli::INFLIGHT).unwrap_or(service.limits.max_inflight);
    service.limits.max_queued = args.get(&cli::QUEUE).unwrap_or(service.limits.max_queued);
    service.session_ttl = args.get(&cli::SESSION_TTL).or(service.session_ttl);
    service.max_sessions = args.get(&cli::MAX_SESSIONS).or(service.max_sessions);
    service.persist_dir = args.get::<String>(&cli::DB).map(PathBuf::from);
    Ok(Some(DaemonConfig {
        addr: args.get(&cli::ADDR).unwrap_or_else(|| "127.0.0.1:0".to_string()),
        port_file: args.get(&cli::PORT_FILE),
        service,
        auth_token: args.get(&cli::AUTH_TOKEN),
    }))
}

/// Runs the daemon to completion: bind, publish the port, serve until a
/// SIGTERM/SIGINT drain, then exit cleanly.
///
/// # Errors
///
/// `(exit_code, message)` — [`EXIT_SERVER_UNAVAILABLE`] when the address
/// cannot be bound, [`EXIT_WORKER_FAILURE`] for serve-loop or port-file
/// I/O failures.
pub fn run(cfg: &DaemonConfig) -> Result<(), (u8, String)> {
    let limits = cfg.service.limits;
    let service = Arc::new(EvalService::with_config(cfg.service.clone()));
    let server = Server::bind(cfg.addr.as_str(), service)
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("cannot bind {}: {e}", cfg.addr)))?
        .with_auth_token(cfg.auth_token.clone());
    server.install_signal_drain();
    let addr =
        server.local_addr().map_err(|e| (EXIT_WORKER_FAILURE, format!("local addr: {e}")))?;
    if let Some(path) = &cfg.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot write {path}: {e}")))?;
    }
    eprintln!(
        "mhe-server: listening on {addr} (inflight {}, queue {}; SIGTERM drains)",
        limits.max_inflight, limits.max_queued
    );
    server.run().map_err(|e| (EXIT_WORKER_FAILURE, format!("serve loop: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(args: &str, env: &[(&str, &str)]) -> Result<Option<DaemonConfig>, String> {
        let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        parse_args(&argv, |var| env.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn resolves_flags_then_variables_then_defaults() {
        let cfg = parse("", &[]).unwrap().unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.port_file, None);

        let cfg = parse(
            "--addr 127.0.0.1:7199 --port-file /tmp/port --inflight 2 --queue 0 \
             --session-ttl 0 --db /tmp/mhe-db --auth-token hunter2",
            &[("MHE_MAX_SESSIONS", "2"), ("MHE_SERVER_INFLIGHT", "abc")],
        )
        .unwrap()
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7199");
        assert_eq!(cfg.port_file.as_deref(), Some("/tmp/port"));
        assert_eq!((cfg.service.limits.max_inflight, cfg.service.limits.max_queued), (2, 0));
        assert_eq!(cfg.service.session_ttl, Some(Duration::ZERO));
        assert_eq!(cfg.service.max_sessions, Some(2), "from the variable");
        assert_eq!(cfg.service.persist_dir, Some(PathBuf::from("/tmp/mhe-db")));
        assert_eq!(cfg.auth_token.as_deref(), Some("hunter2"));
        assert!(parse("--help", &[]).unwrap().is_none());
        let err = parse("", &[("MHE_MAX_SESSIONS", "0")]).unwrap_err();
        assert!(err.starts_with("MHE_MAX_SESSIONS"), "{err}");
    }

    #[test]
    fn rejects_invalid_sweep_variables_naming_them() {
        for (var, value) in [("MHE_THREADS", "0"), ("MHE_THREADS", "abc"), ("MHE_RETRIES", "3:x")] {
            let err = parse("", &[(var, value)]).unwrap_err();
            assert!(err.starts_with(var), "{var}={value}: {err}");
        }
        // Empty counts as unset; valid values pass.
        assert!(parse("", &[("MHE_THREADS", ""), ("MHE_RETRIES", "2:5")]).unwrap().is_some());
    }
}
