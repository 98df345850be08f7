//! Minimal HTTP/1.1 + JSON transport over [`std::net::TcpListener`].
//!
//! This is deliberately not a web framework: one thread per
//! connection, one request per connection (`Connection: close`), and
//! exactly the four routes the service contract needs:
//!
//! | route | meaning |
//! |---|---|
//! | `GET /v1/healthz` | liveness probe |
//! | `POST /v1/jobs` | submit a spec (body = [`ExperimentSpec`] JSON, `X-Tenant` header) → job id |
//! | `GET /v1/jobs/{id}` | poll status |
//! | `GET /v1/jobs/{id}/result` | the stored result bytes, verbatim |
//! | `GET /v1/jobs/{id}/progress` | chunked JSONL progress stream until the job is terminal |
//!
//! The result route serves the [`crate::store::JobStore`] bytes
//! unmodified, so two clients fetching the same job — or one client
//! resubmitting an identical spec — can compare responses with `cmp`.

use crate::sched::{JobStatus, Scheduler};
use ckpt_harness::json::JsonValue;
use ckpt_harness::{CkptError, ExperimentSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Largest request body the server will read (a spec is ~1 KiB);
/// a request declaring more is answered `413 Payload Too Large`.
const MAX_BODY: usize = 1 << 20;
/// Poll cadence of the chunked progress stream.
const PROGRESS_POLL: Duration = Duration::from_millis(25);
/// After a 413, at most this much of the refused body is read and
/// discarded, waiting at most [`DRAIN_IDLE`] for each read.
const DRAIN_LIMIT: u64 = 8 * MAX_BODY as u64;
/// Idle limit of one read while discarding a refused body.
const DRAIN_IDLE: Duration = Duration::from_secs(1);

/// The `ckptsim serve` listener: owns the scheduler and serves it over
/// plain TCP.
pub struct Server {
    listener: TcpListener,
    sched: Arc<Scheduler>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front
    /// of `sched`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, sched: Scheduler) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            sched: Arc::new(sched),
        })
    }

    /// Shared handle to the scheduler behind this server — for
    /// embedders (and tests) that inspect the job table directly.
    #[must_use]
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(&self.sched)
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: one thread per connection, forever. Only returns on
    /// an accept error.
    ///
    /// # Errors
    ///
    /// Fatal accept failures.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let sched = Arc::clone(&self.sched);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &sched);
            });
        }
        Ok(())
    }
}

struct Request {
    method: String,
    path: String,
    tenant: String,
    /// The declared `Content-Length`; the body is read only when it is
    /// at most [`MAX_BODY`].
    content_length: usize,
    body: String,
}

fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    let mut tenant = "default".to_string();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("x-tenant") && !value.is_empty() {
                tenant = value.to_string();
            }
        }
    }
    let mut body = Vec::new();
    if content_length <= MAX_BODY {
        body.resize(content_length, 0);
        reader.read_exact(&mut body)?;
    }
    Ok(Some(Request {
        method,
        path,
        tenant,
        content_length,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn error_body(message: &str) -> String {
    let doc = JsonValue::Object(vec![
        ("kind".to_string(), JsonValue::from_text("error")),
        ("message".to_string(), JsonValue::from_text(message)),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

fn status_body(id: &str, status: &JobStatus) -> String {
    let mut fields = vec![
        ("kind".to_string(), JsonValue::from_text("job_status")),
        ("id".to_string(), JsonValue::from_text(id)),
    ];
    match status {
        JobStatus::Queued => {
            fields.push(("state".to_string(), JsonValue::from_text("queued")));
        }
        JobStatus::Running { completed, total } => {
            fields.push(("state".to_string(), JsonValue::from_text("running")));
            fields.push((
                "completed".to_string(),
                JsonValue::from_u64(*completed as u64),
            ));
            fields.push(("total".to_string(), JsonValue::from_u64(*total as u64)));
        }
        JobStatus::Done { cached } => {
            fields.push(("state".to_string(), JsonValue::from_text("done")));
            fields.push(("cached".to_string(), JsonValue::Bool(*cached)));
        }
        JobStatus::Failed { message } => {
            fields.push(("state".to_string(), JsonValue::from_text("failed")));
            fields.push(("message".to_string(), JsonValue::from_text(message)));
        }
    }
    let mut out = JsonValue::Object(fields).to_json();
    out.push('\n');
    out
}

fn submit_body(id: &str, cached: bool, deduplicated: bool) -> String {
    let doc = JsonValue::Object(vec![
        ("kind".to_string(), JsonValue::from_text("job_accepted")),
        ("id".to_string(), JsonValue::from_text(id)),
        ("cached".to_string(), JsonValue::Bool(cached)),
        ("deduplicated".to_string(), JsonValue::Bool(deduplicated)),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

fn handle_connection(mut stream: TcpStream, sched: &Scheduler) -> std::io::Result<()> {
    let Some(req) = read_request(&mut stream)? else {
        return Ok(());
    };
    if req.content_length > MAX_BODY {
        respond(
            &mut stream,
            413,
            "Payload Too Large",
            &error_body(&format!(
                "request body of {} bytes exceeds the {MAX_BODY}-byte limit",
                req.content_length
            )),
        )?;
        // Closing a socket with unread input resets the connection,
        // which can destroy the 413 before the client reads it: finish
        // the response, then discard a bounded amount of the body.
        stream.shutdown(Shutdown::Write)?;
        stream.set_read_timeout(Some(DRAIN_IDLE))?;
        let _ = std::io::copy(&mut (&stream).take(DRAIN_LIMIT), &mut std::io::sink());
        return Ok(());
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => respond(
            &mut stream,
            200,
            "OK",
            "{\"kind\":\"health\",\"status\":\"ok\"}\n",
        ),
        ("POST", "/v1/jobs") => match ExperimentSpec::from_json(&req.body) {
            Ok(spec) => match sched.submit(&req.tenant, &spec) {
                Ok(out) => respond(
                    &mut stream,
                    200,
                    "OK",
                    &submit_body(&out.id, out.cached, out.deduplicated),
                ),
                Err(e) => respond(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &error_body(&e.to_string()),
                ),
            },
            Err(e) => respond(&mut stream, 400, "Bad Request", &error_body(&e.to_string())),
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/result") {
                route_result(&mut stream, sched, id)
            } else if let Some(id) = rest.strip_suffix("/progress") {
                route_progress(&mut stream, sched, id)
            } else {
                route_status(&mut stream, sched, rest)
            }
        }
        _ => respond(&mut stream, 404, "Not Found", &error_body("no such route")),
    }
}

fn route_status(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    match sched.status(id) {
        Ok(Some(status)) => respond(stream, 200, "OK", &status_body(id, &status)),
        Ok(None) => respond(stream, 404, "Not Found", &error_body("unknown job")),
        Err(e) => io_error(stream, &e),
    }
}

fn route_result(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    match sched.result(id) {
        // Verbatim stored bytes: this is the byte-identity contract.
        Ok(Some(body)) => respond(stream, 200, "OK", &body),
        Ok(None) => respond(
            stream,
            404,
            "Not Found",
            &error_body("result not available"),
        ),
        Err(e) => io_error(stream, &e),
    }
}

/// Streams the job's progress lines as chunked JSONL, polling the
/// scheduler until the job reaches a terminal state.
fn route_progress(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    if sched.progress(id, 0).is_none() {
        return respond(stream, 404, "Not Found", &error_body("unknown job"));
    }
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut cursor = 0usize;
    loop {
        let Some((lines, terminal)) = sched.progress(id, cursor) else {
            break;
        };
        for line in &lines {
            let chunk = format!("{line}\n");
            write!(stream, "{:x}\r\n{chunk}\r\n", chunk.len())?;
        }
        cursor += lines.len();
        if terminal {
            break;
        }
        stream.flush()?;
        std::thread::sleep(PROGRESS_POLL);
    }
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

fn io_error(stream: &mut TcpStream, e: &CkptError) -> std::io::Result<()> {
    respond(
        stream,
        500,
        "Internal Server Error",
        &error_body(&e.to_string()),
    )
}
