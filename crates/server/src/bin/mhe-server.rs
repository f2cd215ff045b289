//! The sweep-daemon executable; see the crate docs for flags.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = mhe_server::parse_args(&args, |var| std::env::var(var).ok())
        .map_err(|msg| (mhe_server::EXIT_BAD_CONFIG, msg))
        .and_then(|cfg| cfg.map_or(Ok(()), |cfg| mhe_server::run(&cfg)));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("mhe-server: {msg}");
            ExitCode::from(code)
        }
    }
}
