//! A minimal HTTP/1.0 listener serving `GET /metrics`.
//!
//! Prometheus scrapes are rare (seconds apart), tiny (one request line)
//! and sequential, so the endpoint is deliberately the simplest thing
//! that speaks enough HTTP: one accept thread, one connection at a time,
//! `Connection: close` on every response. It shares the dispatcher with
//! the RESP server, so a scrape sees exactly the counters and
//! histograms the wire surfaces see — rendered by
//! [`Dispatcher::render_prometheus`](crate::dispatch::Dispatcher).
//!
//! Enabled with the `metrics=host:port` flag of `gdpr-server`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::dispatch::Dispatcher;

/// Per-connection socket timeout: a scraper that stalls mid-request
/// cannot wedge the (single) accept loop for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on request bytes read before answering; a request line plus a
/// scraper's headers fit comfortably.
const MAX_REQUEST_BYTES: usize = 4096;

/// A running `/metrics` listener.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and start serving scrapes of `dispatcher` on a
    /// background accept thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(addr: impl ToSocketAddrs, dispatcher: Dispatcher) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("gdpr-metrics-http".to_string())
            .spawn(move || accept_loop(&listener, &dispatcher, &flag))?;
        Ok(MetricsServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` requests).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, dispatcher: &Dispatcher, shutdown: &AtomicBool) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Scrape errors are the scraper's problem; the loop must survive.
        let _ = serve_one(stream, dispatcher);
    }
}

/// Read one request, answer it, close. Only `GET /metrics` (with an
/// optional query string) is served; everything else gets 404.
fn serve_one(mut stream: TcpStream, dispatcher: &Dispatcher) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;

    let mut request = Vec::new();
    let mut chunk = [0u8; 512];
    while !request.windows(2).any(|w| w == b"\r\n") && request.len() < MAX_REQUEST_BYTES {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&chunk[..n]);
    }
    let request_line = request
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("");

    let (status, content_type, body) = if method == "GET" && path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            dispatcher.render_prometheus(),
        )
    } else if method == "GET" && path == "/" {
        // A human poking the port gets a pointer, not a 404.
        (
            "200 OK",
            "text/plain; charset=utf-8",
            "see /metrics\n".to_string(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;

    fn http_get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect metrics");
        stream
            .write_all(format!("GET {target} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn test_dispatcher() -> Dispatcher {
        Dispatcher::kv(KvStore::open(StoreConfig::in_memory()).expect("open store"))
    }

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let server = MetricsServer::start("127.0.0.1:0", test_dispatcher()).expect("start");
        let addr = server.local_addr();

        let ok = http_get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        assert!(
            ok.contains("gdpr_server_command_latency_seconds_bucket"),
            "{ok}"
        );
        assert!(ok.contains("clients_connected"), "{ok}");

        let missing = http_get(addr, "/other");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let root = http_get(addr, "/");
        assert!(root.contains("see /metrics"), "{root}");

        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_accept_thread() {
        let server = MetricsServer::start("127.0.0.1:0", test_dispatcher()).expect("start");
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is gone; a fresh bind of the same
        // port must succeed.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
