//! A keep-alive HTTP client over `skute_server::http`, with bounded
//! transport retries, plus the one-shot scrape of `/metrics`.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use skute_server::http::{self, Response};

/// Transport retries per request before it counts as a failure.
const RETRIES: u32 = 2;

/// One keep-alive connection.
pub struct Conn {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            addr: addr.to_string(),
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its response, reconnecting and
    /// re-sending after a transport error (all requests here are
    /// idempotent: a re-sent put writes the same value).
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let mut attempt = 0;
        loop {
            let result = http::write_request(&mut self.writer, method, target, headers, body)
                .and_then(|()| http::read_response(&mut self.reader));
            match result {
                Ok(r) => return Ok(r),
                Err(e) if attempt >= RETRIES => return Err(e),
                Err(_) => {
                    attempt += 1;
                    thread::sleep(Duration::from_millis(2u64 << attempt));
                    if let Ok(fresh) = Conn::connect(&self.addr) {
                        *self = fresh;
                    }
                }
            }
        }
    }
}

/// The value of one Prometheus sample line (`series` is the full series
/// name including labels, e.g. `x_total{op="get"}`); 0 when absent.
pub fn sample(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(series)?;
            rest.strip_prefix(' ')?.trim().parse().ok()
        })
        .unwrap_or(0.0)
}
