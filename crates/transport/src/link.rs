//! Packet links: the loopback UDP socket front-end and its deterministic
//! in-memory stand-in.
//!
//! A [`Link`] delivers `(peer, packet)` pairs without blocking forever:
//! `recv` returns `Ok(None)` when nothing is pending (after at most the
//! configured poll timeout for the UDP flavour). [`MemLink`] is a pure
//! FIFO — CI and the soak gate use it so no gate ever depends on socket
//! permissions — while [`UdpLink`] carries the same packets over a real
//! non-blocking loopback socket for the `flowgen → repro` smoke.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use crate::error::LinkError;

/// Largest datagram the UDP receive path accepts (the IPv4 UDP maximum).
pub(crate) const MAX_PACKET: usize = 65_535;

/// A source of `(peer, packet)` pairs. `peer` is a stable 64-bit identity
/// of the sending exporter (for UDP, derived from the source address).
pub trait Link {
    /// Send `packet` as peer `peer` (the in-memory flavour records it
    /// verbatim; the UDP flavour ignores `peer` — the socket's own
    /// source address is the identity the receiver sees).
    fn send(&mut self, peer: u64, packet: &[u8]) -> Result<(), LinkError>;

    /// Receive the next pending packet, or `None` when nothing is ready.
    fn recv(&mut self) -> Result<Option<(u64, Vec<u8>)>, LinkError>;
}

/// Deterministic in-memory link: a FIFO of `(peer, packet)` pairs.
/// Same sends, same receives, byte for byte — the fallback CI uses when
/// UDP binding is denied, and the substrate of `tests/transport_soak.rs`.
#[derive(Debug, Default)]
pub struct MemLink {
    queue: VecDeque<(u64, Vec<u8>)>,
}

impl MemLink {
    /// An empty link.
    pub fn new() -> MemLink {
        MemLink::default()
    }

    /// Packets queued and not yet received.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl Link for MemLink {
    fn send(&mut self, peer: u64, packet: &[u8]) -> Result<(), LinkError> {
        self.queue.push_back((peer, packet.to_vec()));
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<(u64, Vec<u8>)>, LinkError> {
        Ok(self.queue.pop_front())
    }
}

/// Stable 64-bit peer identity of a UDP source address.
pub(crate) fn peer_id(addr: &SocketAddr) -> u64 {
    match addr {
        SocketAddr::V4(v4) => {
            (u64::from(u32::from_be_bytes(v4.ip().octets())) << 16) | u64::from(v4.port())
        }
        SocketAddr::V6(v6) => {
            // Fold the 128-bit address down; loopback testing is v4, but
            // a v6 source must still get a stable identity.
            let o = v6.ip().octets();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in o {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            (h << 16) | u64::from(v6.port())
        }
    }
}

/// The loopback UDP front-end: a socket polled with a short read
/// timeout, so `recv` never blocks longer than `poll` and the caller's
/// idle accounting stays in charge.
#[derive(Debug)]
pub struct UdpLink {
    socket: UdpSocket,
    target: Option<SocketAddr>,
    buf: Vec<u8>,
}

impl UdpLink {
    /// Bind a receiving link on `addr` (e.g. `127.0.0.1:9995`). Fails
    /// closed with [`LinkError::Bind`] when the environment denies it —
    /// the caller is expected to fall back to [`MemLink`] and say why.
    pub fn bind(addr: &str) -> Result<UdpLink, LinkError> {
        let socket = UdpSocket::bind(addr).map_err(LinkError::Bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50))).map_err(LinkError::Bind)?;
        Ok(UdpLink { socket, target: None, buf: vec![0u8; MAX_PACKET] })
    }

    /// Bind an ephemeral sending link aimed at `target`.
    pub fn connect(target: &str) -> Result<UdpLink, LinkError> {
        let socket = UdpSocket::bind("127.0.0.1:0").map_err(LinkError::Bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(50))).map_err(LinkError::Bind)?;
        let target: SocketAddr = target
            .parse()
            .map_err(|_| LinkError::Bind(std::io::Error::other("bad target address")))?;
        Ok(UdpLink { socket, target: Some(target), buf: vec![0u8; MAX_PACKET] })
    }

    /// The bound local address (the port to aim `flowgen` at).
    pub fn local_addr(&self) -> Result<SocketAddr, LinkError> {
        self.socket.local_addr().map_err(LinkError::Bind)
    }
}

impl Link for UdpLink {
    fn send(&mut self, _peer: u64, packet: &[u8]) -> Result<(), LinkError> {
        let Some(target) = self.target else {
            return Err(LinkError::Send(std::io::Error::other("link has no target")));
        };
        self.socket.send_to(packet, target).map_err(LinkError::Send)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<(u64, Vec<u8>)>, LinkError> {
        match self.socket.recv_from(&mut self.buf) {
            Ok((n, from)) => {
                let packet = self.buf.get(..n).unwrap_or_default().to_vec();
                Ok(Some((peer_id(&from), packet)))
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(LinkError::Recv(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memlink_is_fifo_and_lossless() {
        let mut link = MemLink::new();
        for i in 0..10u8 {
            link.send(u64::from(i), &[i]).unwrap();
        }
        assert_eq!(link.pending(), 10);
        for i in 0..10u8 {
            assert_eq!(link.recv().unwrap(), Some((u64::from(i), vec![i])));
        }
        assert_eq!(link.recv().unwrap(), None);
    }

    #[test]
    fn peer_ids_distinguish_address_and_port() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:1001".parse().unwrap();
        let c: SocketAddr = "127.0.0.2:1000".parse().unwrap();
        assert_ne!(peer_id(&a), peer_id(&b));
        assert_ne!(peer_id(&a), peer_id(&c));
        assert_eq!(peer_id(&a), peer_id(&a));
    }

    #[test]
    fn udp_roundtrip_on_loopback_when_permitted() {
        // Socket permissions vary by environment; skip (do not fail) when
        // binding is denied — MemLink covers the deterministic contract.
        let Ok(mut rx) = UdpLink::bind("127.0.0.1:0") else { return };
        let addr = rx.local_addr().unwrap().to_string();
        let Ok(mut tx) = UdpLink::connect(&addr) else { return };
        tx.send(0, b"hello-ixp").unwrap();
        for _ in 0..40 {
            if let Some((_, packet)) = rx.recv().unwrap() {
                assert_eq!(packet, b"hello-ixp");
                return;
            }
        }
        panic!("loopback datagram never arrived");
    }
}
