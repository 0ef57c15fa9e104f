use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::MetricsRegistry;

/// Limits protecting a [`ScrapeServer`] from slow or malformed clients.
///
/// A scraper that connects and never sends a request, trickles bytes, or
/// never reads the response holds exactly one connection for at most
/// `read_deadline + write_deadline`; it can never stall the instrumented
/// process, whose hot paths only share the registry's short mutex.
///
/// ```
/// use std::time::Duration;
/// use ltnc_telemetry::ScrapeOptions;
///
/// let options = ScrapeOptions {
///     read_deadline: Duration::from_millis(200),
///     ..ScrapeOptions::default()
/// };
/// assert!(options.read_deadline < ScrapeOptions::default().read_deadline);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeOptions {
    /// Total time allowed for a client to deliver its request head
    /// (default 1s).
    pub read_deadline: Duration,
    /// Socket write timeout for the response; a client that stops
    /// reading gets disconnected (default 2s).
    pub write_deadline: Duration,
    /// Maximum accepted request-head size; anything longer is rejected
    /// as malformed (default 4096 bytes).
    pub max_request_bytes: usize,
}

impl Default for ScrapeOptions {
    fn default() -> ScrapeOptions {
        ScrapeOptions {
            read_deadline: Duration::from_secs(1),
            write_deadline: Duration::from_secs(2),
            max_request_bytes: 4096,
        }
    }
}

/// Builds the on-demand flight-recorder document served at `/flight`
/// (see [`ScrapeServer::spawn_with_flight`]). Called on the listener
/// thread per request; must be cheap and non-blocking.
pub type FlightHandler = dyn Fn() -> String + Send + Sync;

/// A thread-per-listener TCP endpoint serving metric snapshots.
///
/// Speaks just enough HTTP/1.0 for `curl` and a Prometheus scraper:
///
/// * `GET /metrics` — Prometheus text exposition (cumulative values),
/// * `GET /metrics.json` — the same snapshot as a JSON document,
/// * `GET /healthz` — cheap liveness probe (`200 ok`, no snapshot taken),
/// * `GET /flight` — the live flight-recorder dump, when a
///   [`FlightHandler`] was installed ([`ScrapeServer::spawn_with_flight`]);
///   `404` otherwise,
/// * anything else — `404`; malformed or oversized requests — `400`.
///
/// One dedicated OS thread accepts and serves connections sequentially;
/// every connection is bounded by [`ScrapeOptions`] deadlines, so the
/// endpoint needs no connection pool and cannot accumulate stuck
/// sockets.
///
/// ```no_run
/// use std::sync::Arc;
/// use ltnc_telemetry::{MetricsRegistry, ScrapeOptions, ScrapeServer, Sample};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// registry.register("serve", &[], || vec![Sample::plain("sessions_accepted", 1)]);
/// let server = ScrapeServer::spawn(
///     "127.0.0.1:0".parse().unwrap(),
///     registry,
///     ScrapeOptions::default(),
/// ).unwrap();
/// println!("scrape me at http://{}/metrics", server.local_addr());
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct ScrapeServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (port 0 picks a free port — see
    /// [`ScrapeServer::local_addr`]) and starts the listener thread.
    pub fn spawn(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        options: ScrapeOptions,
    ) -> std::io::Result<ScrapeServer> {
        ScrapeServer::spawn_with_flight(addr, registry, options, None)
    }

    /// [`ScrapeServer::spawn`] with an optional flight-recorder handler:
    /// `GET /flight` answers with whatever JSON document `flight`
    /// renders at request time (an on-demand post-mortem of a live
    /// system). Without a handler the route is a `404`.
    pub fn spawn_with_flight(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        options: ScrapeOptions,
        flight: Option<Arc<FlightHandler>>,
    ) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking accept so the thread notices `stop` promptly.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread =
            std::thread::Builder::new().name("ltnc-scrape".to_string()).spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            serve_client(stream, &registry, &options, flight.as_deref());
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(ScrapeServer { local_addr, stop, thread: Some(thread) })
    }

    /// The bound address (resolves a port-0 bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads one request head within the deadlines and answers it. All
/// errors are per-connection: the listener thread survives anything a
/// client does.
fn serve_client(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    options: &ScrapeOptions,
    flight: Option<&FlightHandler>,
) {
    // Per-read timeout, bounded overall by the deadline loop below.
    let _ = stream.set_read_timeout(Some(options.read_deadline.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(options.write_deadline.max(Duration::from_millis(1))));

    let started = Instant::now();
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let request_line = loop {
        if started.elapsed() > options.read_deadline || head.len() > options.max_request_bytes {
            respond(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Client closed before completing a request head.
                return;
            }
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.len() > options.max_request_bytes {
                    respond(&mut stream, 400, "text/plain", "bad request\n");
                    return;
                }
                if let Some(end) = find_head_end(&head) {
                    match parse_request_line(&head[..end]) {
                        Some(path) => break path,
                        None => {
                            respond(&mut stream, 400, "text/plain", "bad request\n");
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                respond(&mut stream, 400, "text/plain", "bad request\n");
                return;
            }
            Err(_) => return,
        }
    };

    match request_line.as_str() {
        "/metrics" => {
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &registry.snapshot().to_prometheus(),
            );
        }
        "/metrics.json" => {
            respond(&mut stream, 200, "application/json", &registry.snapshot().to_json());
        }
        // Liveness probe: answers without touching the registry, so a
        // harness can poll for "the endpoint is up" without paying for
        // (or parsing) a full scrape.
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        // On-demand flight-recorder dump, when a handler is installed.
        "/flight" => match flight {
            Some(dump) => respond(&mut stream, 200, "application/json", &dump()),
            None => respond(&mut stream, 404, "text/plain", "not found\n"),
        },
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// End of the request head: bare `\n\n` also accepted (lenient parse).
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .or_else(|| head.windows(2).position(|w| w == b"\n\n"))
}

/// Extracts the path from `GET <path> HTTP/1.x`; `None` on anything else.
fn parse_request_line(head: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(head).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    // Ignore a query string; scrape paths carry no parameters.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Bounded by the socket write timeout; a client that stops reading
    // just loses its response.
    if stream.write_all(head.as_bytes()).is_ok() {
        let _ = stream.write_all(body.as_bytes());
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Sample;

    fn test_server(options: ScrapeOptions) -> ScrapeServer {
        let registry = Arc::new(MetricsRegistry::new());
        registry.register("serve", &[("server", "t".to_string())], || {
            vec![Sample::plain("sessions_accepted", 2)]
        });
        ScrapeServer::spawn("127.0.0.1:0".parse().unwrap(), registry, options).unwrap()
    }

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_prometheus_and_json() {
        let server = test_server(ScrapeOptions::default());
        let addr = server.local_addr();
        let text = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(text.starts_with("HTTP/1.0 200"));
        assert!(text.contains("ltnc_serve_sessions_accepted{server=\"t\"} 2"));
        let json = get(addr, "GET /metrics.json HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(json.starts_with("HTTP/1.0 200"));
        assert!(json.contains("\"family\":\"serve\""));
        let missing = get(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"));
        server.shutdown();
    }

    #[test]
    fn flight_route_serves_the_handler_or_404() {
        let server = test_server(ScrapeOptions::default());
        let missing = get(server.local_addr(), "GET /flight HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "no handler installed means 404");
        server.shutdown();

        let registry = Arc::new(MetricsRegistry::new());
        let server = ScrapeServer::spawn_with_flight(
            "127.0.0.1:0".parse().unwrap(),
            registry,
            ScrapeOptions::default(),
            Some(Arc::new(|| "{\"reason\":\"demand\"}".to_string())),
        )
        .unwrap();
        let dump = get(server.local_addr(), "GET /flight HTTP/1.0\r\n\r\n");
        assert!(dump.starts_with("HTTP/1.0 200"));
        assert!(dump.contains("application/json"));
        assert!(dump.ends_with("{\"reason\":\"demand\"}"));
        server.shutdown();
    }

    #[test]
    fn healthz_answers_ok_without_a_scrape() {
        let server = test_server(ScrapeOptions::default());
        let addr = server.local_addr();
        let health = get(addr, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"));
        assert!(health.ends_with("ok\n"));
        // No metric lines ride along on the probe.
        assert!(!health.contains("ltnc_"));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_do_not_stall() {
        let options =
            ScrapeOptions { read_deadline: Duration::from_millis(300), ..ScrapeOptions::default() };
        let server = test_server(options);
        let addr = server.local_addr();
        let bad = get(addr, "BLAH blah\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.0 400"));
        // A well-formed scrape right after is still answered.
        let ok = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200"));
        server.shutdown();
    }

    #[test]
    fn silent_client_is_cut_at_the_read_deadline() {
        let options =
            ScrapeOptions { read_deadline: Duration::from_millis(200), ..ScrapeOptions::default() };
        let server = test_server(options);
        let addr = server.local_addr();
        // Connect, send nothing: within ~the deadline the server must
        // move on and answer the next client.
        let silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let ok = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200"));
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "a silent client stalled the endpoint for {:?}",
            started.elapsed()
        );
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn oversized_request_heads_are_rejected() {
        let options = ScrapeOptions { max_request_bytes: 64, ..ScrapeOptions::default() };
        let server = test_server(options);
        let addr = server.local_addr();
        let huge = format!("GET /metrics{} HTTP/1.0\r\n\r\n", "x".repeat(512));
        let out = get(addr, &huge);
        assert!(out.starts_with("HTTP/1.0 400"));
        server.shutdown();
    }
}
