//! A minimal HTTP/1.1 client for `sweepd` (one request per connection,
//! matching the server's `Connection: close`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket read/write timeout: a stalled service fails the run instead
/// of hanging it.
const TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_read_timeout(Some(TIMEOUT))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    s.set_nodelay(true)?;
    Ok(s)
}

fn send(s: &mut TcpStream, method: &str, path: &str, body: &str) -> std::io::Result<()> {
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )?;
    s.flush()
}

fn status_of(line: &str) -> std::io::Result<u16> {
    line.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))
}

/// Sends one request and returns the status code and body.
///
/// # Errors
///
/// Propagates socket errors and malformed responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut s = connect(addr)?;
    send(&mut s, method, path, body)?;
    let mut text = String::new();
    s.read_to_string(&mut text)?;
    let status = status_of(text.lines().next().unwrap_or(""))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// Opens a streaming GET and feeds each body line to `on_line` until it
/// returns `true` or the server closes the stream.
///
/// # Errors
///
/// Propagates socket errors and a non-200 status.
pub fn stream_lines(
    addr: SocketAddr,
    path: &str,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<()> {
    let mut s = connect(addr)?;
    send(&mut s, "GET", path, "")?;
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = status_of(&line)?;
    if status != 200 {
        return Err(std::io::Error::other(format!(
            "GET {path}: status {status}"
        )));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || on_line(line.trim_end()) {
            return Ok(());
        }
    }
}
