//! Per-prefix coverage accounting over the nybble-aligned address space.
//!
//! Attribution (which generator region produced a probe) answers *who*;
//! coverage answers *where*: for every /32 prefix the campaign touched or
//! the world populates, how much probe mass landed there, how many hits
//! came back, and how many discoverable hosts the ground truth actually
//! holds. Folding the three together exposes the two discovery failure
//! modes §4.1's aggregate metrics hide — wasted mass (probes into empty
//! space) and missed mass (populated prefixes never probed).
//!
//! Cells are keyed by the address's top 32 bits, matching the region key
//! [`ProvenanceLog::for_targets`](sos_probe::provenance::ProvenanceLog)
//! uses, so campaign attribution rows and coverage cells line up.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use netmodel::World;
use sos_obs::json::Json;

/// Density ramp for the text heatmap, sparsest to densest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// One /32 prefix's tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCell {
    /// Candidates generated/probed into this prefix.
    pub generated: u64,
    /// §4.1 hits among them.
    pub hits: u64,
    /// Ground truth: modeled hosts here responsive on ≥1 protocol.
    pub truth: u64,
}

impl CoverageCell {
    /// Probe mass that found nothing (the wasted-probe component).
    pub fn wasted(&self) -> u64 {
        self.generated.saturating_sub(self.hits)
    }
}

/// Per-/32 coverage map: generated density vs. ground-truth density.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    cells: BTreeMap<u32, CoverageCell>,
}

fn prefix32(addr: Ipv6Addr) -> u32 {
    (u128::from(addr) >> 96) as u32
}

impl CoverageMap {
    /// Fold a campaign's generated candidates and resulting hits against
    /// the world's ground truth. Every prefix that holds a responsive
    /// modeled host gets a cell even when nothing was generated there —
    /// those are the *missed* prefixes.
    pub fn build(world: &World, generated: &[Ipv6Addr], hits: &[Ipv6Addr]) -> CoverageMap {
        let mut map = CoverageMap::default();
        for (addr, record) in world.hosts().iter() {
            if record.responds_any() {
                map.cells.entry(prefix32(addr)).or_default().truth += 1;
            }
        }
        for &a in generated {
            map.cells.entry(prefix32(a)).or_default().generated += 1;
        }
        for &a in hits {
            map.cells.entry(prefix32(a)).or_default().hits += 1;
        }
        map
    }

    /// Number of /32 cells (probed or populated).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell was recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate `(prefix, cell)` in prefix order.
    pub fn cells(&self) -> impl Iterator<Item = (u32, &CoverageCell)> + '_ {
        self.cells.iter().map(|(&p, c)| (p, c))
    }

    /// `(generated, hits, truth)` summed over all cells.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.cells.values().fold((0, 0, 0), |(g, h, t), c| {
            (g + c.generated, h + c.hits, t + c.truth)
        })
    }

    /// Total wasted probe mass (generated minus hits, per cell).
    pub fn wasted(&self) -> u64 {
        self.cells.values().map(CoverageCell::wasted).sum()
    }

    /// Populated prefixes the campaign never probed.
    pub fn missed_cells(&self) -> usize {
        self.cells
            .values()
            .filter(|c| c.truth > 0 && c.generated == 0)
            .count()
    }

    /// Probed prefixes that hold no responsive host at all — every probe
    /// there was structurally wasted.
    pub fn blind_cells(&self) -> usize {
        self.cells
            .values()
            .filter(|c| c.truth == 0 && c.generated > 0)
            .count()
    }

    /// Encode as sorted rows `[prefix, generated, hits, truth]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.cells
                .iter()
                .map(|(&p, c)| {
                    Json::Arr(vec![
                        Json::U64(p.into()),
                        Json::U64(c.generated),
                        Json::U64(c.hits),
                        Json::U64(c.truth),
                    ])
                })
                .collect(),
        )
    }

    /// Parse the row array [`Self::to_json`] writes. A prefix past 32 bits
    /// is an error, not another prefix's cell.
    pub fn from_json(j: &Json) -> Result<CoverageMap, String> {
        let rows = j.as_arr().ok_or("coverage is not an array")?;
        let mut map = CoverageMap::default();
        for row in rows {
            let items = row
                .as_arr()
                .filter(|a| a.len() == 4)
                .ok_or("bad coverage row")?;
            let u = |i: usize| -> Result<u64, String> {
                // i < 4: length checked above
                items[i]
                    .as_u64()
                    .ok_or_else(|| format!("bad coverage field {i}"))
            };
            map.cells.insert(
                u32::try_from(u(0)?)
                    .map_err(|_| "bad coverage field 0 (prefix exceeds 32 bits)")?,
                CoverageCell {
                    generated: u(1)?,
                    hits: u(2)?,
                    truth: u(3)?,
                },
            );
        }
        Ok(map)
    }

    /// Text address-space heatmap: one row per /16 that has any cell,
    /// `cols` columns splitting that /16's low 16 bits evenly. Each column
    /// shows hit recall against ground truth on the ` .:-=+*#%@` ramp; `x`
    /// marks probe mass into truly empty space and `_` marks populated
    /// space the campaign never probed.
    pub fn heatmap(&self, cols: usize) -> String {
        let cols = cols.clamp(1, 64) as u32;
        let mut rows: BTreeMap<u16, Vec<CoverageCell>> = BTreeMap::new();
        for (&p, c) in &self.cells {
            let bucket = (u32::from(p as u16) * cols) >> 16;
            let row = rows
                .entry((p >> 16) as u16)
                .or_insert_with(|| vec![CoverageCell::default(); cols as usize]);
            let slot = &mut row[bucket as usize]; // bucket < cols by construction
            slot.generated += c.generated;
            slot.hits += c.hits;
            slot.truth += c.truth;
        }
        let mut out = String::new();
        out.push_str(&format!(
            "address-space heatmap ({} /16 row(s) x {cols} col(s); ramp \"{}\", x=blind, _=missed)\n",
            rows.len(),
            std::str::from_utf8(RAMP).unwrap_or(" @"),
        ));
        for (hi, cells) in &rows {
            let mut line = format!("  {hi:04x}::/16 |");
            for c in cells {
                line.push(match (c.truth, c.generated) {
                    (0, 0) => ' ',
                    (0, _) => 'x',
                    (_, 0) => '_',
                    (t, _) => {
                        let recall = c.hits as f64 / t as f64;
                        let idx = ((recall * (RAMP.len() - 1) as f64).round() as usize)
                            .min(RAMP.len() - 1);
                        // nonzero hits never render as blank
                        RAMP[if c.hits > 0 { idx.max(1) } else { idx }] as char
                    }
                });
            }
            line.push('|');
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    fn addr(top: u32, low: u128) -> Ipv6Addr {
        Ipv6Addr::from((u128::from(top) << 96) | low)
    }

    #[test]
    fn build_folds_truth_generated_and_hits() {
        let world = World::build(StudyConfig::tiny(5).world);
        let truth_total = world
            .hosts()
            .iter()
            .filter(|(_, r)| r.responds_any())
            .count() as u64;
        let generated = vec![
            addr(0x3fff_0000, 1),
            addr(0x3fff_0000, 2),
            addr(0x3fff_0001, 9),
        ];
        let hits = vec![addr(0x3fff_0000, 1)];
        let map = CoverageMap::build(&world, &generated, &hits);
        let (g, h, t) = map.totals();
        assert_eq!((g, h), (3, 1));
        assert_eq!(t, truth_total, "every responsive host lands in a cell");
        assert!(
            map.missed_cells() > 0,
            "tiny world has prefixes we never probed"
        );
        assert_eq!(map.blind_cells(), 2, "both 3fff prefixes are empty space");
        assert_eq!(map.wasted(), 2);
    }

    #[test]
    fn json_round_trips() {
        let world = World::build(StudyConfig::tiny(5).world);
        let generated = vec![addr(0x3fff_0000, 1)];
        let map = CoverageMap::build(&world, &generated, &[]);
        let back = CoverageMap::from_json(&map.to_json()).expect("parses");
        assert_eq!(back, map);
        assert!(CoverageMap::from_json(&Json::Arr(vec![]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn from_json_refuses_a_prefix_past_32_bits() {
        let row =
            |prefix: u64| Json::Arr(vec![Json::Arr([prefix, 3, 1, 2].map(Json::U64).to_vec())]);
        assert_eq!(
            CoverageMap::from_json(&row(u32::MAX.into()))
                .unwrap()
                .totals(),
            (3, 1, 2)
        );
        let err = CoverageMap::from_json(&row(1 << 40)).expect_err("2^40 is not a /32");
        assert!(err.contains("coverage") && err.contains("prefix"), "{err}");
    }

    #[test]
    fn heatmap_marks_blind_missed_and_covered_space() {
        let mut map = CoverageMap::default();
        map.cells.insert(
            0x2001_0000,
            CoverageCell {
                generated: 10,
                hits: 9,
                truth: 10,
            },
        );
        map.cells.insert(
            0x2001_8000,
            CoverageCell {
                generated: 5,
                hits: 0,
                truth: 0,
            },
        );
        map.cells.insert(
            0x2600_0000,
            CoverageCell {
                generated: 0,
                hits: 0,
                truth: 3,
            },
        );
        let art = map.heatmap(8);
        assert!(art.contains("2001::/16"), "{art}");
        assert!(art.contains("2600::/16"), "{art}");
        assert!(art.contains('x'), "blind probes marked: {art}");
        assert!(art.contains('_'), "missed truth marked: {art}");
        assert!(
            art.contains('%') || art.contains('@'),
            "high recall is dense: {art}"
        );
    }
}
