//! The end-to-end study: every table and figure, written to
//! `EXPERIMENTS.md` in the paper's order with paper-vs-measured notes.
//!
//! ```sh
//! # study scale (the numbers recorded in the repo; takes several minutes)
//! cargo run --release -p sos-core --example full_study
//! # quicker:
//! cargo run --release -p sos-core --example full_study -- small
//! ```

use std::fmt::Write as _;

use netmodel::{Protocol, PROTOCOLS};
use sos_core::experiments::{self, master_grid};
use sos_core::{Study, StudyConfig};
use tga::TgaId;

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "study".into());
    let cfg = match scale.as_str() {
        "tiny" => StudyConfig::tiny(0xC0FFEE),
        "small" => StudyConfig::small(0xC0FFEE),
        _ => StudyConfig::study(0xC0FFEE),
    };
    let budget = cfg.budget;
    let t0 = sos_obs::now_s();
    eprintln!("[full_study] building study at {scale} scale...");
    let study = Study::new(cfg);
    let stats = study.world().stats().clone();
    eprintln!(
        "[full_study] world ready in {:.1}s: {} hosts / {} responsive",
        sos_obs::now_s() - t0,
        stats.modeled_hosts,
        stats.responsive_any
    );

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. this reproduction\n\n\
         Regenerate with `cargo run --release -p sos-core --example full_study -- {scale}`.\n\n\
         - scale: `{scale}` (seed `0xC0FFEE`), per-TGA budget {budget} (the paper's 50M scaled),\n\
         - world: {} modeled addresses, {} responsive ({} ASes), {} aliased regions,\n\
         - absolute counts are ~300× smaller than the paper's; *shapes* (orderings, ratios,\n\
           crossovers) are the reproduction target — see DESIGN.md for the substitutions.\n",
        stats.modeled_hosts,
        stats.responsive_any,
        stats.responsive_ases,
        study.world().alias_regions().len(),
    );

    let section = |title: &str, paper: &str, body: String, md: &mut String| {
        let _ = writeln!(md, "## {title}\n\n*Paper:* {paper}\n\n```text\n{}```\n", body);
        eprintln!("[full_study] {title} done ({:.1}s elapsed)", sos_obs::now_s() - t0);
    };

    // §5 — dataset composition.
    section(
        "Table 3 — seed source summary",
        "12 sources; hitlists are the best single responsive source (84% of the IPv6 Hitlist \
         answers); traceroute sources (Scamper/RIPE) dominate AS coverage with weak direct \
         responsiveness; ICMP ≫ TCP ≫ UDP everywhere.",
        experiments::summary::dataset_summary(&study).render(),
        &mut md,
    );
    section(
        "Table 8 — domain volume",
        "CT logs and the archival FDNS dominate domain volume; toplists resolve at much \
         higher AAAA rates for their size.",
        experiments::summary::domain_volume(&study).render(),
        &mut md,
    );
    let overlap_full = experiments::summary::overlap_full(&study);
    section(
        "Figure 1 — source overlap (all seeds)",
        "domain sources overlap heavily with each other; Scamper overlaps little by IP yet \
         covers nearly every AS.",
        experiments::summary::render_overlap(&overlap_full, "Figure 1 (IP overlap %)"),
        &mut md,
    );
    let overlap_active = experiments::summary::overlap_active(&study);
    section(
        "Figure 2 — source overlap (responsive subset)",
        "similar structure to Figure 1 on the responsive subset.",
        experiments::summary::render_overlap(&overlap_active, "Figure 2 (IP overlap %)"),
        &mut md,
    );

    // The master grid behind RQ1/RQ2/RQ4/Appendix D.
    let tg = sos_obs::now_s();
    let grid = master_grid(&study);
    eprintln!("[full_study] master grid: {} cells in {:.1}s", grid.len(), sos_obs::now_s() - tg);

    section(
        "Figure 3 — dealiased vs full seeds (RQ1.a)",
        "hits and ASes rise nearly universally with dealiased seeds (dealiased generators \
         found 1.70× hits in 1.32× ASes on average); generated aliases collapse by orders of \
         magnitude; 6Sense moves least (it dealiases internally).",
        experiments::rq1::fig3_dealias_ratio(&grid).render(),
        &mut md,
    );
    section(
        "Table 4 — aliases per dealias regime (ICMP)",
        "magnitudes fall as dealiasing gets more specific (left→right); online-only is not \
         uniformly better than offline-only (rate limiting); joint is lowest overall.",
        experiments::rq1::table4_alias_regimes(&grid).render(),
        &mut md,
    );
    section(
        "Figure 4 — active-only vs dealiased seeds (RQ1.b)",
        "most generators improve on both metrics when unresponsive seeds are dropped \
         (2.28× hits / 1.53× ASes across combined approaches).",
        experiments::rq1::fig4_active_ratio(&grid).render(),
        &mut md,
    );
    section(
        "Figure 5 — port-specific vs all-active seeds (RQ2)",
        "application-protocol hits rise (avg 2.31×, DET most extreme), ICMP barely moves, \
         and AS diversity often pays the price.",
        experiments::rq2::port_specific_ratios(&grid).render(),
        &mut md,
    );

    // RQ3 across all four ports.
    let tr = sos_obs::now_s();
    let rq3 = experiments::rq3::run_rq3(&study, &PROTOCOLS, &TgaId::ALL);
    eprintln!("[full_study] rq3: {} cells in {:.1}s", rq3.len(), sos_obs::now_s() - tr);
    section(
        "Table 5 — combined per-source runs vs one 12×-budget run (ICMP)",
        "the single big run finds ~2× the unique hits, but per-source runs find more ASes \
         for several TGAs (subpopulations buy diversity).",
        experiments::rq3::render_table5(&rq3),
        &mut md,
    );
    section(
        "Table 6 — AS characterization per source × port",
        "domain seeds surface cloud/hosting ASes, traceroute/hitlist seeds surface \
         ISPs/CDNs; total ASes scale with source size.",
        experiments::rq3::render_table6(&experiments::rq3::as_characterization(&study, &rq3)),
        &mut md,
    );
    section(
        "Table 13 — source-specific ICMP raw numbers",
        "hitlist-family sources power the most hits; traceroute sources power AS counts.",
        experiments::rq3::render_source_raw(&rq3, Protocol::Icmp),
        &mut md,
    );
    for proto in [Protocol::Tcp80, Protocol::Tcp443, Protocol::Udp53] {
        section(
            &format!("Tables 14–15 — source-specific {} raw numbers", proto.label()),
            "same experiment on the application protocols.",
            experiments::rq3::render_source_raw(&rq3, proto),
            &mut md,
        );
    }

    // RQ4.
    for proto in PROTOCOLS {
        let hits = experiments::rq4::combination_hits(&grid, proto);
        let ases = experiments::rq4::combination_ases(&grid, proto);
        section(
            &format!("Figure 6 — generator combination on {}", proto.label()),
            "a few generators cover a supermajority of combined yield; the leader differs \
             between the hit and AS metrics.",
            format!(
                "{}\n{}",
                experiments::rq4::render_contribution(&hits, "hit"),
                experiments::rq4::render_contribution(&ases, "AS")
            ),
            &mut md,
        );
    }

    // Appendix D.
    let matrix = experiments::appendix_d::cross_port_matrix(&grid);
    let mut panels = String::new();
    for proto in PROTOCOLS {
        panels.push_str(&matrix.render_panel(proto));
        panels.push('\n');
    }
    section(
        "Figure 7 — cross-port seed/scan matrix (Appendix D)",
        "each port is served best by its own port-specific dataset; ICMP scans perform \
         nearly identically from All-Active and ICMP seeds.",
        panels,
        &mut md,
    );

    // Tables 9–12.
    let mut raws = String::new();
    for proto in PROTOCOLS {
        raws.push_str(&experiments::rq1::raw_numbers_table(&grid, proto));
        raws.push('\n');
    }
    section(
        "Tables 9–12 — raw numbers for RQ1–RQ2",
        "full per-dataset × per-TGA hits and ASes for each scan target.",
        raws,
        &mut md,
    );

    // RQ5.
    let recs = experiments::recommend::recommendations(&grid);
    section(
        "RQ5 — recommendations",
        "dealias (jointly), drop unresponsive seeds, use port-specific seeds for hit volume \
         plus ICMP seeds for coverage, evaluate across ports, and combine generators.",
        experiments::recommend::render(&recs),
        &mut md,
    );

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    eprintln!(
        "[full_study] wrote EXPERIMENTS.md ({} KiB) in {:.1}s total",
        md.len() / 1024,
        sos_obs::now_s() - t0
    );
}
