//! Empty: `sos-core` declares `parking_lot` but uses nothing from it.
