//! Empty: `sos-probe` declares `bytes` but uses nothing from it.
