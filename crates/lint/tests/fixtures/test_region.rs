// Fixture: inside #[cfg(test)] the rules are off — tests may iterate hash
// containers and relax atomics freely.
pub fn add(a: u32, b: u32) -> u32 {
    a + b
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn anything_goes_here() {
        let m: HashMap<u32, u32> = HashMap::new();
        let seen: Vec<u32> = m.keys().copied().collect();
        let c = AtomicU32::new(add(1, 0));
        assert_eq!(c.load(Ordering::Relaxed) as usize, seen.len() + 1);
    }
}
