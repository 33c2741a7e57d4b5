//! An idle server costs no CPU: with nothing to do, the event thread
//! blocks in `poll(2)` instead of waking on a timer.
//!
//! Linux only: the event thread's CPU time is read from
//! `/proc/self/task/<tid>/stat`. This file holds one test, so the
//! process runs exactly one `m7-serve-event` thread.
#![cfg(target_os = "linux")]

use magseven::par::ParConfig;
use magseven::serve::wire::Response;
use magseven::serve::{EvalRequest, EvalServer, FramedClient, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

/// `utime + stime`, in clock ticks, of the thread named `name`.
fn thread_ticks(name: &str) -> u64 {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = entry.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if comm.trim_end() != name {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // Fields after the parenthesized command name, which may hold
        // spaces: state is field 3, utime 14 and stime 15.
        let rest = &stat[stat.rfind(')').expect("comm ends with ')'") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields[i - 3].parse::<u64>().expect("tick count");
        found.push(ticks(14) + ticks(15));
    }
    assert_eq!(found.len(), 1, "want exactly one {name} thread");
    found[0]
}

#[test]
fn idle_event_thread_sleeps_in_poll() {
    let server = EvalServer::spawn(
        ServeConfig { par: ParConfig::serial(), ..ServeConfig::default() },
        Arc::new(|r: &EvalRequest| Ok(r.values.iter().sum::<f64>())),
    )
    .expect("bind loopback");
    // One served request, then the connection stays open and idle.
    let mut client = FramedClient::connect(server.addr()).expect("connect");
    let answer = client.eval(&EvalRequest::new("idle", vec![1.0, 2.0], 0)).expect("eval");
    assert_eq!(answer, Response::Cost { cost: 3.0, cached: false });

    let before = thread_ticks("m7-serve-event");
    std::thread::sleep(Duration::from_secs(1));
    let after = thread_ticks("m7-serve-event");
    assert!(after - before <= 1, "idle event thread used {} ticks in 1 s", after - before);
    drop(client);
    server.shutdown();
}
