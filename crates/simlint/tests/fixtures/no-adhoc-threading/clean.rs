//! Fixture: parallelism expressed through the ledger-checked pool,
//! which owns all thread spawning inside simcore/src/parallel.rs.
use adainf_simcore::parallel::fan_out_collect;

pub fn square_all(xs: Vec<u64>) -> Vec<u64> {
    fan_out_collect(xs, 0, || (), |_i, x, ()| x * x)
}
