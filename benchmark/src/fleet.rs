//! The real `hdk-peer` processes a workload runs against, and the
//! keep-alive HTTP client the load generator speaks through.

use hdk_core::{WireRequest, WireResponse};
use hdk_p2p::{read_wire_frame, write_wire_frame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Builds `hdk-peer` from the root workspace (the run's working
/// directory) and returns the binary's path. A no-op when it is fresh.
pub fn build_peer_binary() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "hdk-peer"])
        // The last stdout line is the result; cargo's chatter is not.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building hdk-peer from the root workspace failed ({status}); \
             run from the repository root"
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let binary = target.join("release").join("hdk-peer");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!(
            "built hdk-peer but {} is missing",
            binary.display()
        ))
    }
}

/// The running peer processes. Dropping the fleet kills whatever is
/// left, so a panic mid-run leaves no process behind.
pub struct Fleet {
    children: Vec<(Child, ChildStdout)>,
    pub addrs: Vec<String>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Fleet {
    pub fn spawn(binary: &Path, nprocs: usize, peers: usize, dfmax: u32) -> Fleet {
        let mut fleet = Fleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for proc_index in 0..nprocs {
            let mut child = Command::new(binary)
                .args(["--listen", "127.0.0.1:0"])
                .args(["--nprocs", &nprocs.to_string()])
                .args(["--proc", &proc_index.to_string()])
                .args(["--peers", &peers.to_string()])
                .args(["--dfmax", &dfmax.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", binary.display()));
            let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut line = String::new();
            stdout.read_line(&mut line).expect("read LISTEN line");
            let addr = line
                .trim()
                .strip_prefix("LISTEN ")
                .unwrap_or_else(|| panic!("unexpected peer banner {line:?}"))
                .to_string();
            // Keep the pipe open: a closed stdout must not be what stops a peer.
            fleet.children.push((child, stdout.into_inner()));
            fleet.addrs.push(addr);
        }
        fleet
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(|(c, _)| c.id()).collect()
    }

    /// Graceful shutdown: every peer acknowledges the frame and exits 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        for ((mut child, _), addr) in self.children.drain(..).zip(&self.addrs) {
            let outcome = (|| {
                let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                write_wire_frame(&mut stream, &WireRequest::Shutdown.encode())
                    .map_err(|e| e.to_string())?;
                let reply = read_wire_frame(&mut stream).map_err(|e| e.to_string())?;
                match WireResponse::decode(&reply) {
                    Ok(WireResponse::ShuttingDown) => Ok(()),
                    other => Err(format!("answered shutdown with {other:?}")),
                }
            })();
            if let Err(e) = outcome {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("peer at {addr}: {e}"));
            }
            let exit = child.wait().map_err(|e| e.to_string())?;
            if !exit.success() {
                return Err(format!("peer at {addr} exited {exit} on Shutdown"));
            }
        }
        Ok(())
    }
}

/// `VmHWM` (peak resident set) of a process in MiB, from `/proc`.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in /proc/{pid}/status"));
    kib / 1024.0
}

/// One keep-alive HTTP/1.1 connection.
pub struct HttpClient {
    stream: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect HTTP front-end");
        stream.set_nodelay(true).expect("set nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        HttpClient {
            stream: BufReader::new(stream),
            line: String::new(),
            body: Vec::new(),
        }
    }

    /// Sends `GET target` and reads the whole reply: the status, the body
    /// and the reply's total size on the wire. A transport error reads as
    /// status 0.
    pub fn get(&mut self, target: &str) -> (u16, &[u8], usize) {
        match self.exchange(target) {
            Ok((status, wire_bytes)) => (status, &self.body, wire_bytes),
            Err(_) => (0, &[], 0),
        }
    }

    fn exchange(&mut self, target: &str) -> std::io::Result<(u16, usize)> {
        // One write per request: a split write meets Nagle + delayed ACK.
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.get_mut().write_all(request.as_bytes())?;
        self.line.clear();
        let mut wire_bytes = self.stream.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {:?}", self.line)))?;
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            wire_bytes += self.stream.read_line(&mut self.line)?;
            let header = self.line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        self.body.resize(content_length, 0);
        self.stream.read_exact(&mut self.body)?;
        Ok((status, wire_bytes + content_length))
    }
}
