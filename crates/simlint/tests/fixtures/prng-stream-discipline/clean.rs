//! Fixture: the sanctioned stream discipline. Library code receives a
//! Prng from its caller; per-item randomness inside a fan_out* closure
//! is a split child keyed by stable item identity, never by worker or
//! claim order. Tests may construct roots freely.
use adainf_simcore::parallel::fan_out_collect;
use adainf_simcore::Prng;

pub fn build_all(root: &Prng, jobs: Vec<u64>) -> Vec<u64> {
    fan_out_collect(jobs, 0, Scratch::default, |i, job, _scratch| {
        let mut rng = root.split(0xD21F ^ i as u64);
        rng.next_u64() ^ job
    })
}

#[derive(Default)]
pub struct Scratch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_fine_in_tests() {
        let root = Prng::new(42);
        assert_eq!(build_all(&root, vec![1, 2]).len(), 2);
    }
}
