//! Fixture for `obs-metric-names`: inline metric-name literals vs names
//! routed through a central const table.

mod names {
    pub const HITS: &str = "probe.hits";
    pub const WAIT_US: &str = "probe.wait_us";
}

pub fn violations() {
    sos_obs::counter("probe.hits").inc();
    sos_obs::histogram("probe.wait_us").record(5);
}

pub fn permitted(label: &str) {
    // The sanctioned shape: names come from the const table.
    sos_obs::counter(names::HITS).inc();
    sos_obs::histogram(names::WAIT_US).record(5);
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
