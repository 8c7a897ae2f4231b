//! What a receiver holds for a connection ends with the connection.
//!
//! * A long-lived receiver does not accumulate descriptors: after 1,000
//!   connect/send/close cycles it tracks no connection and the process
//!   holds as many descriptors as before.
//! * A peer the receiver gives up on — a corrupt frame, a rejected hello
//!   — sees the connection end, rather than hanging on a socket the
//!   receiver still keeps half open.

use neptune_compress::SelectiveCompressor;
use neptune_net::frame::{encode_frame, encode_hello_frame, PROTOCOL_VERSION};
use neptune_net::tcp::{HandshakeGate, TcpReceiver, TcpSender};
use neptune_net::test_support::{wait_for, with_protocol_version, NetRig};
use neptune_net::watermark::WatermarkConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(20);

/// The descriptor count is process-wide: the tests here take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
}

fn roomy() -> WatermarkConfig {
    WatermarkConfig::new(1 << 20, 1 << 10)
}

#[test]
fn a_thousand_connections_leave_no_descriptor_behind() {
    let _turn = SERIAL.lock().unwrap();
    let rig = NetRig::new("fd-cycle");
    let driver = rig.driver();
    let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
    let queue = rx.queue();
    let raw = SelectiveCompressor::disabled();
    let cycle = |i: u64| {
        let tx = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        tx.send(encode_frame(i, 0, &[b"reading".to_vec()], &raw)).unwrap();
        tx.close();
        assert_eq!(queue.pop_timeout(TIMEOUT).expect("frame").link_id, i);
    };
    cycle(0);
    assert!(wait_for(TIMEOUT, || rx.connections() == 0));
    let before = open_fds();
    for i in 1..=1000 {
        cycle(i);
    }
    assert!(
        wait_for(TIMEOUT, || rx.connections() == 0),
        "{} connections still tracked after every peer closed",
        rx.connections()
    );
    // A finished task drops its socket a moment after it leaves the table.
    assert!(
        wait_for(TIMEOUT, || open_fds() == before),
        "{before} descriptors before 1,000 connections, {} after",
        open_fds()
    );
    rx.shutdown();
}

/// Read until the connection ends; a reset counts as an end, a timeout
/// (the socket was left half open) does not.
fn reads_to_the_end(peer: &mut TcpStream) -> bool {
    peer.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut sink = [0u8; 256];
    loop {
        match peer.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) => {
                return !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            }
        }
    }
}

#[test]
fn a_peer_the_receiver_drops_sees_the_connection_end() {
    let _turn = SERIAL.lock().unwrap();
    let rig = NetRig::new("fd-drop");
    let driver = rig.driver();
    let gate = Some(HandshakeGate::default());
    let rx = TcpReceiver::bind_manual_ack("127.0.0.1:0", roomy(), gate, None, &driver).unwrap();

    // One bit flipped in the body: the CRC no longer matches.
    let mut corrupt = TcpStream::connect(rx.local_addr()).unwrap();
    let mut wire = encode_frame(1, 0, &[vec![7u8; 64]], &SelectiveCompressor::disabled());
    *wire.last_mut().unwrap() ^= 0x10;
    corrupt.write_all(&wire).unwrap();
    assert!(reads_to_the_end(&mut corrupt), "corrupt peer left on a half-open socket");
    assert_eq!(rx.decode_errors(), 1);

    // A hello from a protocol version this build does not speak.
    let mut stranger = TcpStream::connect(rx.local_addr()).unwrap();
    let hello = with_protocol_version(encode_hello_frame(1, 0), PROTOCOL_VERSION + 1);
    stranger.write_all(&hello).unwrap();
    assert!(reads_to_the_end(&mut stranger), "rejected peer left on a half-open socket");
    assert_eq!(rx.handshake_rejects(), 1);

    assert!(wait_for(TIMEOUT, || rx.connections() == 0), "dropped peers still tracked");
    rx.shutdown();
}
