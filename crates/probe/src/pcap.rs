//! Pcap capture of probe traffic — the packets this crate builds are real
//! wire-format IPv6, so they can be written to a standard pcap file and
//! inspected with tcpdump/Wireshark. Indispensable when debugging scanner
//! behavior ("what did we actually send?") and for documenting probe
//! formats in bug reports.
//!
//! Format: classic pcap (not pcapng), LINKTYPE_RAW (101) — packets begin
//! directly at the IP header, exactly what [`crate::packet`] produces.

use std::io::{self, Write};

/// LINKTYPE_RAW: packets start at the IP header.
pub const LINKTYPE_RAW: u32 = 101;
/// Classic pcap magic (microsecond timestamps, native byte order).
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;

/// Writes packets to a classic pcap stream.
pub struct PcapWriter<W: Write> {
    out: W,
    packets: u64,
    /// Virtual capture clock in microseconds (simulation has no wall
    /// clock; each packet is stamped monotonically).
    now_us: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the pcap global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&PCAP_MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65535u32.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(PcapWriter {
            out,
            packets: 0,
            now_us: 0,
        })
    }

    /// Append one packet, advancing the virtual clock by `advance_us`.
    pub fn write_packet(&mut self, packet: &[u8], advance_us: u64) -> io::Result<()> {
        self.now_us += advance_us;
        let secs = (self.now_us / 1_000_000) as u32;
        let micros = (self.now_us % 1_000_000) as u32;
        let len = packet.len() as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&micros.to_le_bytes())?;
        self.out.write_all(&len.to_le_bytes())?; // captured length
        self.out.write_all(&len.to_le_bytes())?; // original length
        self.out.write_all(packet)?;
        self.packets += 1;
        Ok(())
    }

    /// Packets written so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A [`crate::transport::Transport`] wrapper that captures every probe and
/// response flowing through it.
pub struct CapturingTransport<T, W: Write> {
    inner: T,
    writer: PcapWriter<W>,
    /// The first capture write that failed; [`Self::finish`] returns it,
    /// and nothing is written after it.
    failed: Option<io::Error>,
}

impl<T: crate::transport::Transport, W: Write> CapturingTransport<T, W> {
    /// Wrap `inner`, writing all traffic to `out`.
    pub fn new(inner: T, out: W) -> io::Result<Self> {
        Ok(CapturingTransport {
            inner,
            writer: PcapWriter::new(out)?,
            failed: None,
        })
    }

    /// Packets captured so far (probes + responses).
    pub fn captured(&self) -> u64 {
        self.writer.packets()
    }

    /// Finish the capture, returning the inner transport and writer — or
    /// the first write error met along the way (a full disk, say): the
    /// scan ran to the end regardless, but its capture is truncated.
    pub fn finish(self) -> io::Result<(T, W)> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        Ok((self.inner, self.writer.finish()?))
    }

    /// Capture one packet unless an earlier write already failed.
    fn capture(&mut self, packet: &[u8], advance_us: u64) {
        if self.failed.is_none() {
            self.failed = self.writer.write_packet(packet, advance_us).err();
        }
    }
}

impl<T: crate::transport::Transport, W: Write> crate::transport::Transport
    for CapturingTransport<T, W>
{
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        // capture failures must not corrupt scan results: the probe goes
        // out either way, and `finish` reports the error
        self.capture(packet, 100);
        let response = self.inner.send(packet);
        if let Some(resp) = &response {
            self.capture(resp, 50);
        }
        response
    }

    fn packets_sent(&self) -> u64 {
        self.inner.packets_sent()
    }

    // The capture is transparent to the state underneath: the fault
    // layer's accounting and clocks are the inner transport's.
    fn carried(&self) -> Option<&crate::Carried> {
        self.inner.carried()
    }

    fn carried_mut(&mut self) -> Option<&mut crate::Carried> {
        self.inner.carried_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::build_probe;
    use crate::transport::{ScriptedTransport, Transport};
    use netmodel::Protocol;

    fn parse_global_header(buf: &[u8]) -> (u32, u16, u16, u32) {
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let major = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        let minor = u16::from_le_bytes(buf[6..8].try_into().unwrap());
        let linktype = u32::from_le_bytes(buf[20..24].try_into().unwrap());
        (magic, major, minor, linktype)
    }

    #[test]
    fn global_header_is_classic_pcap_raw() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24);
        assert_eq!(parse_global_header(&buf), (PCAP_MAGIC, 2, 4, LINKTYPE_RAW));
    }

    #[test]
    fn packets_are_framed_and_clock_advances() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let pkt = build_probe(
            "2001:db8::1".parse().unwrap(),
            "2600::1".parse().unwrap(),
            Protocol::Icmp,
            1,
            None,
        );
        w.write_packet(&pkt, 1_500_000).unwrap();
        w.write_packet(&pkt, 250).unwrap();
        assert_eq!(w.packets(), 2);
        let buf = w.finish().unwrap();
        // record 1 header at offset 24
        let secs1 = u32::from_le_bytes(buf[24..28].try_into().unwrap());
        let us1 = u32::from_le_bytes(buf[28..32].try_into().unwrap());
        let cap1 = u32::from_le_bytes(buf[32..36].try_into().unwrap()) as usize;
        assert_eq!((secs1, us1), (1, 500_000));
        assert_eq!(cap1, pkt.len());
        // record 2 follows immediately after record 1's bytes
        let off2 = 24 + 16 + cap1;
        let secs2 = u32::from_le_bytes(buf[off2..off2 + 4].try_into().unwrap());
        let us2 = u32::from_le_bytes(buf[off2 + 4..off2 + 8].try_into().unwrap());
        assert_eq!((secs2, us2), (1, 500_250));
        // the captured bytes are the packet verbatim (parseable)
        let payload = &buf[off2 + 16..off2 + 16 + cap1];
        assert!(crate::packet::parse_packet(payload).is_ok());
    }

    /// A capture must not hide the fault layer: the captured scan reports
    /// the same drops, throttle time and outcomes as the bare one.
    #[test]
    fn captured_scan_over_a_faulted_world_reports_like_the_bare_scan() {
        use crate::{Scanner, ScannerConfig, SimTransport};
        use std::sync::Arc;
        let mut wc = netmodel::WorldConfig::tiny(0xCA9);
        wc.faults = netmodel::FaultConfig::hostile();
        let world = Arc::new(netmodel::World::build(wc));
        let targets: Vec<_> = world
            .hosts()
            .iter()
            .map(|(a, _)| a)
            .step_by(3)
            .take(300)
            .collect();
        let cfg = ScannerConfig {
            rate_pps: None,
            ..ScannerConfig::default()
        };

        let mut bare = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
        let want = bare.scan(targets.iter().copied(), Protocol::Icmp);
        assert!(
            want.faults_injected > 0 && want.throttled_us > 0,
            "the schedule must bite"
        );

        let capture = CapturingTransport::new(SimTransport::new(world), Vec::new()).unwrap();
        let mut captured = Scanner::new(cfg, capture);
        let got = captured.scan(targets.iter().copied(), Protocol::Icmp);
        assert_eq!(got, want);
        assert_eq!(
            captured
                .transport()
                .carried()
                .map(crate::Carried::fault_rows),
            bare.transport().carried().map(crate::Carried::fault_rows)
        );
        assert!(captured.transport().captured() >= got.packets_sent);
    }

    /// A writer that takes `room` bytes and then fails, like a full disk.
    struct FullAfter {
        room: usize,
        taken: Vec<u8>,
    }

    impl Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.room {
                return Err(io::Error::other("no space left on device"));
            }
            self.room -= buf.len();
            self.taken.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_capture_write_leaves_the_scan_alone_and_fails_finish() {
        let probe = build_probe(
            "2001:db8::1".parse().unwrap(),
            "2600::1".parse().unwrap(),
            Protocol::Icmp,
            1,
            None,
        );
        let mut inner = ScriptedTransport::default();
        for _ in 0..3 {
            inner.script.push_back(Some(probe.clone()));
        }
        // room for the global header and the first exchange, not the second
        let out = FullAfter {
            room: 24 + 2 * (16 + probe.len()) + 10,
            taken: Vec::new(),
        };
        let mut t = CapturingTransport::new(inner, out).unwrap();
        for _ in 0..3 {
            assert!(
                t.send(&probe).is_some(),
                "the scan never sees the capture fail"
            );
        }
        assert_eq!(t.captured(), 2, "nothing is written past the first failure");
        let err = t.finish().err().expect("a truncated capture is reported");
        assert!(err.to_string().contains("no space left"), "{err}");
    }

    #[test]
    fn capturing_transport_records_both_directions() {
        let mut inner = ScriptedTransport::default();
        // one response, one timeout
        let reply = build_probe(
            "2600::1".parse().unwrap(),
            "2001:db8::1".parse().unwrap(),
            Protocol::Icmp,
            1,
            None,
        );
        inner.script.push_back(Some(reply));
        inner.script.push_back(None);
        let mut t = CapturingTransport::new(inner, Vec::new()).unwrap();
        let probe = build_probe(
            "2001:db8::1".parse().unwrap(),
            "2600::1".parse().unwrap(),
            Protocol::Icmp,
            1,
            None,
        );
        assert!(t.send(&probe).is_some()); // probe + response captured
        assert!(t.send(&probe).is_none()); // probe only
        assert_eq!(t.captured(), 3);
        let (_, buf) = t.finish().unwrap();
        assert!(buf.len() > 24 + 3 * 16);
    }
}
