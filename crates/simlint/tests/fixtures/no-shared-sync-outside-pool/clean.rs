//! Fixture: the sanctioned shape — owned jobs in, owned results out.
//! Each worker writes its own index-addressed slot inside
//! simcore::parallel; no shared-mutability primitive is needed.
use adainf_simcore::parallel::fan_out_collect;

pub fn rebuild(jobs: Vec<Vec<f32>>) -> Vec<f32> {
    let out = fan_out_collect(jobs, 0, Scratch::default, |_i, job, _s| {
        job.iter().copied().sum::<f32>()
    });
    out
}

#[derive(Default)]
pub struct Scratch;
