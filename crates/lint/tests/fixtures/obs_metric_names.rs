//! Fixture for `obs-metric-names`: inline metric-name literals vs names
//! routed through a central const table.

mod names {
    pub const HITS: &str = "probe.hits";
}

pub fn violations() {
    sos_obs::counter("probe.hits").inc();
}

pub fn permitted(label: &str) {
    // The sanctioned shape: names come from the const table.
    sos_obs::counter(names::HITS).inc();
    // Dynamic names are not literals; the rule leaves them alone.
    sos_obs::counter(&format!("tga.{label}.generated_addrs")).inc();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_literals() {
        sos_obs::counter("probe.hits").inc();
    }
}
