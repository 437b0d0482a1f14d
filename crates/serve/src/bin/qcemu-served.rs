//! The emulation daemon binary.
//!
//! ```text
//! qcemu-served [--addr HOST:PORT] [--workers N] [--max-qubits N]
//!              [--cache-capacity N] [--calibrated]
//! ```
//!
//! Binds, prints the listening address on stdout (so scripts can grab an
//! OS-assigned port from `--addr 127.0.0.1:0`), and serves until killed.

use qcemu_serve::{AdmissionPolicy, EmuServer, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: qcemu-served [--addr HOST:PORT] [--workers N] [--max-qubits N]\n\
         \x20                 [--cache-capacity N] [--calibrated]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("qcemu-served: {flag} needs a value");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut policy = AdmissionPolicy::default();
    let mut calibrated = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse(&mut args, "--addr"),
            "--workers" => config.workers = parse(&mut args, "--workers"),
            "--max-qubits" => policy.max_qubits = parse(&mut args, "--max-qubits"),
            "--cache-capacity" => config.plan_cache_capacity = parse(&mut args, "--cache-capacity"),
            "--calibrated" => calibrated = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("qcemu-served: unknown flag {other}");
                usage();
            }
        }
    }
    config.policy = policy;
    if calibrated {
        // Pay the micro-benchmark once at startup so the first tenant
        // doesn't.
        config.model = qcemu_core::CostModel::calibrated();
    }

    let server = match EmuServer::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qcemu-served: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let handle = match server.start() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("qcemu-served: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!("qcemu-served listening on {}", handle.addr());

    loop {
        std::thread::park();
    }
}
