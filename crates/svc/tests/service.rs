//! End-to-end service tests: a real [`Server`] on an ephemeral port, a
//! real [`Client`] over TCP, and the cache contract the whole PR hangs
//! on — an identical spec submitted twice executes once and both
//! fetches return byte-identical bodies.

use ckpt_core::SystemConfig;
use ckpt_des::SimTime;
use ckpt_harness::ExperimentSpec;
use ckpt_svc::{Client, JobStore, Scheduler, Server, Tuning};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn spec(seed: u64, jobs: usize) -> ExperimentSpec {
    let cfg = SystemConfig::builder().processors(512).build().unwrap();
    ExperimentSpec::builder(cfg)
        .transient(SimTime::from_hours(5.0))
        .horizon(SimTime::from_hours(60.0))
        .replications(3)
        .seed(seed)
        .jobs(jobs)
        .build()
        .unwrap()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt_svc_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &PathBuf, tuning: Tuning) -> (SocketAddr, Arc<Scheduler>) {
    let store = JobStore::open(dir).unwrap();
    let server = Server::bind("127.0.0.1:0", Scheduler::new(store, tuning)).unwrap();
    let addr = server.local_addr().unwrap();
    let sched = server.scheduler();
    std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, sched)
}

#[test]
fn identical_specs_execute_once_and_results_are_byte_identical() {
    let dir = store_dir("once");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "alice");
    client.healthz().unwrap();

    // Different `jobs` values, same fingerprint: worker count is a
    // scheduling decision, not part of the experiment's identity.
    let first = client.submit(&spec(1, 1).to_json()).unwrap();
    assert!(!first.cached);
    let body_first = client
        .wait_result(&first.id, Duration::from_secs(120))
        .unwrap();

    let second = client.submit(&spec(1, 4).to_json()).unwrap();
    assert_eq!(second.id, first.id);
    assert!(second.cached, "identical resubmission must hit the cache");
    let body_second = client.result(&second.id).unwrap().unwrap();

    assert_eq!(body_first, body_second, "cache hits are byte-identical");
    assert_eq!(sched.executed_units(), 1, "the spec executed exactly once");

    let status = client.status(&first.id).unwrap();
    assert!(status.contains("\"state\":\"done\""), "status: {status}");

    let lines = client.progress(&first.id).unwrap();
    assert_eq!(lines.len(), 3, "one progress line per replication");
    assert!(lines.iter().all(|l| l.contains("\"kind\":\"progress\"")));
    assert!(lines[2].contains("\"completed\":3"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_survives_a_server_restart() {
    let dir = store_dir("restart");
    let (addr_a, sched_a) = start_server(&dir, Tuning::default());
    let client_a = Client::new(&addr_a.to_string(), "t");
    let job = client_a.submit(&spec(7, 1).to_json()).unwrap();
    let body = client_a
        .wait_result(&job.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(sched_a.executed_units(), 1);

    // A second server over the same store directory: the result is
    // durable, so the resubmission is a hit with zero executions.
    let (addr_b, sched_b) = start_server(&dir, Tuning::default());
    let client_b = Client::new(&addr_b.to_string(), "t");
    let again = client_b.submit(&spec(7, 1).to_json()).unwrap();
    assert!(again.cached);
    assert_eq!(client_b.result(&again.id).unwrap().unwrap(), body);
    assert_eq!(sched_b.executed_units(), 0, "nothing re-executed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_tuning_changes_scheduling_but_not_the_result_bytes() {
    let dir_a = store_dir("tuning_a");
    let dir_b = store_dir("tuning_b");
    let (addr_a, _) = start_server(&dir_a, Tuning::default());
    let (addr_b, sched_b) = start_server(
        &dir_b,
        Tuning {
            workers: 3,
            shards: 3,
            batch: 1,
            snapshot_every: 1,
        },
    );
    let client_a = Client::new(&addr_a.to_string(), "t");
    let client_b = Client::new(&addr_b.to_string(), "t");
    let s = spec(9, 2);
    let a = client_a.submit(&s.to_json()).unwrap();
    let b = client_b.submit(&s.to_json()).unwrap();
    let body_a = client_a
        .wait_result(&a.id, Duration::from_secs(120))
        .unwrap();
    let body_b = client_b
        .wait_result(&b.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(body_a, body_b, "sharding must not change the result");
    assert!(sched_b.executed_units() >= 3, "the job really was sharded");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn unknown_jobs_and_malformed_specs_are_rejected() {
    let dir = store_dir("reject");
    let (addr, _) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "t");
    assert!(client.submit("{\"not\": \"a spec\"}").is_err());
    // A spec written while the calendar queue backend existed is
    // refused by name, not silently re-run under another fingerprint.
    let old = spec(1, 1).to_json().replacen(
        "\"engine\":\"direct\"",
        "\"engine\":\"direct\",\"queue\":\"calendar\"",
        1,
    );
    assert!(old.contains("\"queue\""));
    let err = client.submit(&old).unwrap_err().to_string();
    assert!(err.contains("(400)") && err.contains("calendar"), "{err}");
    assert!(client.status("00000000deadbeef").is_err());
    assert_eq!(client.result("00000000deadbeef").unwrap(), None);
    assert!(client.progress("00000000deadbeef").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends raw request bytes and returns the whole response.
fn raw_request(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn hostile_bodies_get_an_error_status_and_the_server_stays_up() {
    let dir = store_dir("hostile");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "t");

    // 200 000 nested '[' used to overflow the connection thread's
    // stack in the recursive JSON parser, aborting the whole server.
    let deep = "[".repeat(200_000);
    let response = raw_request(
        addr,
        format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{deep}",
            deep.len()
        )
        .as_bytes(),
    );
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("nesting"), "{response}");
    client.healthz().unwrap();

    // A body over the limit is refused outright instead of being
    // truncated and parsed as a prefix, whether or not the client
    // sends it.
    let response = raw_request(
        addr,
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    assert!(response.contains("exceeds"), "{response}");
    let body = "x".repeat(2 << 20);
    let response = raw_request(
        addr,
        format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    client.healthz().unwrap();
    assert_eq!(sched.executed_units(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
