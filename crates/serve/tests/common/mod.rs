//! A one-connection TCP relay that cuts the server→client direction at
//! an exact byte count: the replica that dies, or goes mute, mid-fetch,
//! and keeps what the client sent for the test to read back.

// Each test binary that includes this module uses only some of it.
#![allow(dead_code)]

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::Instant;

/// What the relay does once the cut byte has reached the client.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Shut both sockets down: a replica that dies.
    Disconnect,
    /// Stop forwarding but keep both sockets open until the [`Relay`]
    /// drops: a replica alive on the wire that makes no progress.
    Stall,
}

/// A relay between one client and `upstream`; dropping it releases a
/// stall.
pub struct Relay {
    /// The address to point the client at instead of the upstream.
    pub addr: SocketAddr,
    /// The instant the client closed its side of the connection.
    pub client_closed: Receiver<Instant>,
    /// Every byte the client sent, once it closed its side.
    pub client_bytes: Receiver<Vec<u8>>,
    _hold: Sender<()>,
}

/// Relays the first connection to `upstream`, forwarding (and keeping)
/// the client's bytes until EOF and exactly `cut_at` of the server's,
/// then `cut`.
pub fn relay(upstream: SocketAddr, cut_at: u64, cut: Cut) -> Relay {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay addr");
    let (hold, released) = mpsc::channel::<()>();
    let (closed, client_closed) = mpsc::channel();
    let (sent, client_bytes) = mpsc::channel();
    thread::spawn(move || {
        let (client, _) = listener.accept().expect("relay accept");
        let server = TcpStream::connect(upstream).expect("relay connect");
        let (mut from_client, mut to_server) = (&client, &server);
        thread::scope(|scope| {
            scope.spawn(move || {
                let (mut seen, mut buf) = (Vec::new(), [0u8; 4096]);
                while let Ok(n @ 1..) = from_client.read(&mut buf) {
                    seen.extend_from_slice(&buf[..n]);
                    if to_server.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                let _ = closed.send(Instant::now());
                let _ = sent.send(seen);
                let _ = to_server.shutdown(Shutdown::Write);
            });
            let _ = io::copy(&mut (&server).take(cut_at), &mut &client);
            if cut == Cut::Stall {
                let _ = released.recv(); // Err once the Relay drops
            }
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
        });
    });
    Relay { addr, client_closed, client_bytes, _hold: hold }
}
