//! Text I/O for seed and alias lists, in the formats the community's real
//! tooling exchanges: one IPv6 address per line for hitlists (the IPv6
//! Hitlist's `responsive-addresses.txt`), one CIDR prefix per line for
//! alias lists (`aliased-prefixes.txt`). Lines starting with `#` are
//! comments; blank lines are ignored; parsing is strict otherwise, because
//! a silently dropped seed biases every downstream experiment.

use std::fmt;
use std::io::{BufRead, Write};
use std::net::Ipv6Addr;

use v6addr::{Prefix, PrefixSet};

/// A parse failure with its line number (1-based).
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending content (truncated).
    pub content: String,
    /// What failed to parse.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: bad {}: {:?}",
            self.line, self.what, self.content
        )
    }
}

impl std::error::Error for ParseError {}

fn clip(s: &str) -> String {
    s.chars().take(60).collect()
}

/// Read an address list (one address per line, `#` comments).
pub fn read_address_list<R: BufRead>(
    reader: R,
) -> Result<Vec<Ipv6Addr>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let addr: Ipv6Addr = trimmed.parse().map_err(|_| ParseError {
            line: i + 1,
            content: clip(trimmed),
            what: "IPv6 address",
        })?;
        out.push(addr);
    }
    Ok(out)
}

/// Write an address list with a provenance header.
pub fn write_address_list<W: Write>(
    mut writer: W,
    addrs: &[Ipv6Addr],
    comment: &str,
) -> std::io::Result<()> {
    writeln!(writer, "# {comment}")?;
    writeln!(writer, "# {} addresses", addrs.len())?;
    for a in addrs {
        writeln!(writer, "{a}")?;
    }
    Ok(())
}

/// Read an alias/blocklist prefix list (one CIDR per line, `#` comments).
/// Bare addresses are accepted as /128s, matching common blocklist usage.
pub fn read_prefix_list<R: BufRead>(reader: R) -> Result<PrefixSet, Box<dyn std::error::Error>> {
    let mut out = PrefixSet::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let prefix: Prefix = if trimmed.contains('/') {
            trimmed.parse().map_err(|_| ParseError {
                line: i + 1,
                content: clip(trimmed),
                what: "CIDR prefix",
            })?
        } else {
            let addr: Ipv6Addr = trimmed.parse().map_err(|_| ParseError {
                line: i + 1,
                content: clip(trimmed),
                what: "CIDR prefix or address",
            })?;
            Prefix::new(addr, 128)
        };
        out.insert(prefix);
    }
    Ok(out)
}

/// Write a prefix list with a provenance header.
pub fn write_prefix_list<W: Write>(
    mut writer: W,
    prefixes: impl IntoIterator<Item = Prefix>,
    comment: &str,
) -> std::io::Result<()> {
    writeln!(writer, "# {comment}")?;
    for p in prefixes {
        writeln!(writer, "{p}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn address_list_roundtrip() {
        let addrs: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2600:9000:2000::dead".parse().unwrap(),
        ];
        let mut buf = Vec::new();
        write_address_list(&mut buf, &addrs, "test list").unwrap();
        let parsed = read_address_list(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, addrs);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n2001:db8::1\n   \n# tail\n2001:db8::2\n";
        let parsed = read_address_list(Cursor::new(text)).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn bad_address_reports_line() {
        let text = "2001:db8::1\nnot-an-address\n";
        let err = read_address_list(Cursor::new(text)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn prefix_list_roundtrip_and_bare_addresses() {
        let text = "# aliases\n2600:9000:2000::/48\n2001:db8::5\n";
        let set = read_prefix_list(Cursor::new(text)).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains_addr("2600:9000:2000::1".parse().unwrap()));
        assert!(set.contains_addr("2001:db8::5".parse().unwrap()));
        assert!(!set.contains_addr("2001:db8::6".parse().unwrap()));

        let mut buf = Vec::new();
        write_prefix_list(&mut buf, set.iter(), "roundtrip").unwrap();
        let set2 = read_prefix_list(Cursor::new(buf)).unwrap();
        assert_eq!(set2.len(), set.len());
    }

    #[test]
    fn bad_prefix_reports_line() {
        let text = "2600::/48\n2600::/200\n";
        let err = read_prefix_list(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    /// ROADMAP 6 for the seed and alias lists: whatever single byte is lost
    /// or changed (invalid UTF-8 included), both readers return a list or
    /// an error, and a refusal names a line that exists.
    #[test]
    fn single_byte_damage_never_panics_the_list_readers() {
        let sample = "# hitlist\n2001:db8::1\n\n  2600:9000:2000::dead  \n2600:9000:2000::/48\n::ffff:1.2.3.4\n";
        assert!(read_prefix_list(Cursor::new(sample)).is_ok());
        assert!(
            read_address_list(Cursor::new(sample)).is_err(),
            "a CIDR is not an address"
        );
        sos_obs::json::single_byte_damage(sample.as_bytes(), |damaged| {
            let lines = damaged.split(|&b| b == b'\n').count();
            for err in [
                read_address_list(Cursor::new(damaged)).err(),
                read_prefix_list(Cursor::new(damaged)).err(),
            ] {
                if let Some(e) = err.as_ref().and_then(|e| e.downcast_ref::<ParseError>()) {
                    assert!(
                        (1..=lines).contains(&e.line) && e.content.chars().count() <= 60,
                        "{e}"
                    );
                }
            }
        });
    }

    #[test]
    fn whole_world_hitlist_roundtrip() {
        // realistic volume: write/read a collected hitlist
        let world = netmodel::World::build(netmodel::WorldConfig::tiny(7));
        let c = crate::hitlists::collect_hitlist(&world, 1);
        let mut buf = Vec::new();
        write_address_list(&mut buf, &c.addrs, "hitlist").unwrap();
        let parsed = read_address_list(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, c.addrs);
    }
}
