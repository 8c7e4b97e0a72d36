//! The simulated Internet itself — `seedscan world`: what a scale and seed
//! produce, for inspection before running experiments against it, and its
//! ground-truth lists (every aliased prefix, every ICMP responder outside
//! them) in the standard text formats `seeds::io` reads back.
//! Not part of `seedscan all`; it builds the world only.

use std::collections::BTreeMap;

use netmodel::{Protocol, World, PROTOCOLS};
use seeds::io::{write_address_list, write_prefix_list};

use crate::experiments::Run;
use crate::report::{fmt_count, fmt_pct, Table};

/// Print the world's composition; with `--dump-dir`, write its
/// ground-truth lists there.
pub(crate) fn emit(r: &Run) -> Result<(), String> {
    let (o, world) = (&r.opts, r.world());
    let stats = world.stats();
    println!("seed {:#x}, scale {}", o.seed, o.scale);
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
    let (by_kind, by_role) = composition(world);
    r.emit("as_composition", by_kind.render())?;
    r.emit("host_roles", by_role.render())?;

    let regions = world.alias_regions();
    let published = regions.iter().filter(|r| r.published).count();
    println!(
        "aliased regions: {} total, {} published ({}), {} rate-limited",
        regions.len(),
        published,
        fmt_pct(published as f64 / regions.len().max(1) as f64),
        regions.iter().filter(|r| r.loss > 0.0).count()
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
    match &o.dump_dir {
        Some(dir) => dump(r, world, dir),
        None => Ok(()),
    }
}

/// ASes and modeled hosts per AS kind, and hosts per role.
fn composition(world: &World) -> (Table, Table) {
    let mut by_kind: BTreeMap<&str, (usize, usize)> = BTreeMap::new(); // (ases, hosts)
    for info in world.registry().iter() {
        by_kind.entry(info.kind.label()).or_default().0 += 1;
    }
    let mut by_role: BTreeMap<&str, usize> = BTreeMap::new();
    for (addr, rec) in world.hosts().iter() {
        *by_role.entry(rec.kind.label()).or_default() += 1;
        let info = world
            .asn_of(addr)
            .and_then(|asn| world.registry().info(asn));
        if let Some(info) = info {
            by_kind.entry(info.kind.label()).or_default().1 += 1;
        }
    }
    let mut kinds = Table::new("AS composition").header(["Kind", "ASes", "Modeled hosts"]);
    for (k, (ases, hosts)) in &by_kind {
        kinds.row([k.to_string(), fmt_count(*ases), fmt_count(*hosts)]);
    }
    let mut roles = Table::new("Host roles").header(["Role", "Count"]);
    for (role, n) in &by_role {
        roles.row([role.to_string(), fmt_count(*n)]);
    }
    (kinds, roles)
}

/// Write the full ground-truth alias list (not just the published one)
/// and the ICMP responders outside it into `dir`, which exists.
fn dump(r: &Run, world: &World, dir: &str) -> Result<(), String> {
    let _span = sos_obs::span("dump");
    let seed = r.opts.seed;
    let header = |what| format!("ground-truth {what}, world seed {seed:#x}");
    let prefixes = world.alias_regions().iter().map(|r| r.prefix);
    r.write_file(
        &format!("{dir}/aliased-prefixes.txt"),
        "aliased_prefixes",
        |w| write_prefix_list(w, prefixes, &header("aliased prefixes")),
    )?;
    let addrs: Vec<_> = world
        .hosts()
        .iter()
        .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
        .map(|(a, _)| a)
        .collect();
    r.write_file(
        &format!("{dir}/icmp-responsive.txt"),
        "icmp_responsive",
        |w| write_address_list(w, &addrs, &header("ICMP responders")),
    )
}
