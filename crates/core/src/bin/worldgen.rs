//! `worldgen` — synthesize a simulated Internet and dump its composition.
//!
//! Useful for inspecting what a given seed/scale produces before running
//! experiments against it, and for exporting ground-truth lists (alias
//! prefixes, responsive addresses) in the standard text formats.
//!
//! ```text
//! worldgen [--scale tiny|small|study] [--seed N] [--dump-dir DIR]
//!          [--manifest FILE] [--trace FILE] [--flame FILE]
//! ```
//!
//! `--manifest FILE` writes a JSON run manifest (configuration, world
//! statistics, phase timings, digests of the dumped ground-truth lists);
//! `--trace FILE` writes a Chrome trace-event timeline and `--flame FILE`
//! a collapsed-stack self-time profile, exactly as in `seedscan`;
//! `SOS_LOG` controls stderr verbosity exactly as in `seedscan`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use netmodel::{AsKind, HostKind, Protocol, World, WorldConfig, PROTOCOLS};
use sos_core::cli::{value, Artifacts};
use sos_core::report::{fmt_count, fmt_pct, Table};
use sos_obs::manifest::Manifest;

struct Args {
    scale: String,
    seed: u64,
    dump_dir: Option<String>,
    artifacts: Artifacts,
}

/// The command line, and the world configuration its `--scale` and
/// `--seed` name. Every value is checked here, before any work.
fn parse_args() -> Result<(Args, WorldConfig), String> {
    let mut args = Args {
        scale: "small".to_string(),
        seed: 0xC0FFEE,
        dump_dir: None,
        artifacts: Artifacts::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.artifacts.flag(&a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--scale" => args.scale = value(&mut it, "--scale")?,
            "--seed" => args.seed = value(&mut it, "--seed")?,
            "--dump-dir" => args.dump_dir = Some(value(&mut it, "--dump-dir")?),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let cfg = match args.scale.as_str() {
        "tiny" => WorldConfig::tiny(args.seed),
        "small" => WorldConfig::small(args.seed),
        "study" => WorldConfig::study(args.seed),
        other => {
            return Err(format!(
                "bad --scale value {other:?}: expected tiny|small|study"
            ))
        }
    };
    Ok((args, cfg))
}

fn main() -> ExitCode {
    sos_obs::log::init_from_env_or(sos_obs::Level::Info);
    let (
        Args {
            scale,
            seed,
            dump_dir,
            artifacts,
        },
        cfg,
    ) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: worldgen [--scale tiny|small|study] [--seed N] [--dump-dir DIR] \
                 [--manifest FILE] [--trace FILE] [--flame FILE]"
            );
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = artifacts.check() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut manifest = Manifest::new("worldgen");
    manifest.config("scale", scale.as_str());
    manifest.config("seed", seed);

    let t0 = sos_obs::now_s();
    let world = {
        let _span = sos_obs::span_detail("world_build", format!("scale={scale}"));
        World::build(cfg)
    };
    sos_obs::info!("worldgen: built in {:.1}s", sos_obs::now_s() - t0);

    let stats = world.stats();
    manifest.config("modeled_hosts", stats.modeled_hosts);
    manifest.config("responsive_any", stats.responsive_any);
    manifest.config("responsive_ases", stats.responsive_ases);
    manifest.config("alias_regions", world.alias_regions().len());
    println!("seed {seed:#x}, scale {scale}");
    println!(
        "{} modeled addresses ({} churned), {} responsive in {} ASes",
        fmt_count(stats.modeled_hosts),
        fmt_count(stats.churned_hosts),
        fmt_count(stats.responsive_any),
        fmt_count(stats.responsive_ases),
    );
    for p in PROTOCOLS {
        println!(
            "  responsive on {:<7} {}",
            p.label(),
            fmt_count(stats.responsive[p.index()])
        );
    }

    // Composition by AS kind and host role.
    let mut by_kind: BTreeMap<&str, (usize, usize)> = BTreeMap::new(); // (ases, hosts)
    for info in world.registry().iter() {
        by_kind.entry(kind_name(info.kind)).or_default().0 += 1;
    }
    let mut by_role: BTreeMap<&str, usize> = BTreeMap::new();
    for (addr, rec) in world.hosts().iter() {
        *by_role.entry(role_name(rec.kind)).or_default() += 1;
        if let Some(asn) = world.asn_of(addr) {
            if let Some(info) = world.registry().info(asn) {
                by_kind.entry(kind_name(info.kind)).or_default().1 += 1;
            }
        }
    }
    let mut t = Table::new("AS composition").header(["Kind", "ASes", "Modeled hosts"]);
    for (k, (ases, hosts)) in &by_kind {
        t.row([k.to_string(), fmt_count(*ases), fmt_count(*hosts)]);
    }
    let rendered = t.render();
    manifest.record_digest("as_composition", &rendered);
    println!("{rendered}");

    let mut t = Table::new("Host roles").header(["Role", "Count"]);
    for (r, n) in &by_role {
        t.row([r.to_string(), fmt_count(*n)]);
    }
    let rendered = t.render();
    manifest.record_digest("host_roles", &rendered);
    println!("{rendered}");

    let published = world.alias_regions().iter().filter(|r| r.published).count();
    let lossy = world
        .alias_regions()
        .iter()
        .filter(|r| r.loss > 0.0)
        .count();
    println!(
        "aliased regions: {} total, {} published ({}), {} rate-limited",
        world.alias_regions().len(),
        published,
        fmt_pct(published as f64 / world.alias_regions().len().max(1) as f64),
        lossy
    );
    if let Some(mega) = world.megapattern() {
        println!(
            "megapattern: {} in {} ({} addresses, {:.1}% responsive)",
            mega.base,
            mega.asn,
            fmt_count(mega.population() as usize),
            100.0 * mega.rate
        );
    }

    if let Some(dir) = dump_dir {
        let _span = sos_obs::span("dump");
        std::fs::create_dir_all(&dir).expect("create dump dir");
        // ground-truth alias list (the full one, not just published)
        let alias_path = format!("{dir}/aliased-prefixes.txt");
        let mut buf = Vec::new();
        seeds::io::write_prefix_list(
            &mut buf,
            world.alias_regions().iter().map(|r| r.prefix),
            &format!("ground-truth aliased prefixes, world seed {seed:#x}"),
        )
        .expect("write alias list");
        manifest.record_digest("aliased_prefixes", &String::from_utf8_lossy(&buf));
        std::fs::write(&alias_path, buf).expect("write alias list");
        sos_obs::info!("wrote {alias_path}");

        // responsive ICMP addresses (ground truth)
        let addrs: Vec<_> = world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .collect();
        let hitlist_path = format!("{dir}/icmp-responsive.txt");
        let mut buf = Vec::new();
        seeds::io::write_address_list(
            &mut buf,
            &addrs,
            &format!("ground-truth ICMP responders, world seed {seed:#x}"),
        )
        .expect("write hitlist");
        manifest.record_digest("icmp_responsive", &String::from_utf8_lossy(&buf));
        std::fs::write(&hitlist_path, buf).expect("write hitlist");
        sos_obs::info!("wrote {hitlist_path}");
    }
    if let Err(e) = artifacts.write(manifest) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn kind_name(k: AsKind) -> &'static str {
    match k {
        AsKind::TransitIsp => "Transit",
        AsKind::AccessIsp => "AccessISP",
        AsKind::Mobile => "Mobile",
        AsKind::CloudHosting => "Cloud",
        AsKind::Cdn => "CDN",
        AsKind::Education => "Education",
        AsKind::Government => "Government",
        AsKind::Enterprise => "Enterprise",
    }
}

fn role_name(k: HostKind) -> &'static str {
    match k {
        HostKind::Router => "router",
        HostKind::WebServer => "web server",
        HostKind::DnsServer => "dns server",
        HostKind::Cpe => "cpe",
        HostKind::Infra => "infra",
    }
}
