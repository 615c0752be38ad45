//! Cache-assisted elaboration of the vocoder pipeline: the one place
//! that decides, stage by stage, whether a run replays a recorded
//! segment-cost trace or estimates live and records one. The sweep
//! ([`crate::sweep::evaluate`]) and the `scperf-serve` request engine
//! both elaborate through [`elaborate_cached`], so the two paths share
//! one trace store ([`SegmentCostCache`]) and one reuse policy.

use scperf_core::{table_fingerprint, Platform, Recorder, ResourceKind, Session};
use scperf_workloads::vocoder::pipeline::{
    self, StageTrace, VocoderHandles, VocoderMapping, STAGE_NAMES,
};

use crate::cache::SegmentCostCache;

/// A pipeline elaborated by [`elaborate_cached`]. Run the session, then
/// call [`Elaborated::publish`] to feed what the run learned back into
/// the cache.
#[derive(Debug)]
pub struct Elaborated<'c> {
    /// Handles of the elaborated pipeline (checksums, after the run).
    pub handles: VocoderHandles,
    /// Stages that replay a cached trace instead of running annotated.
    pub replayed_stages: usize,
    cache: Option<&'c SegmentCostCache>,
    /// Attached only when some stage missed.
    recorder: Option<Recorder>,
    /// The cache fingerprint of every stage that missed, by stage.
    missed: [Option<u64>; 5],
}

/// Elaborates the vocoder pipeline mapped by `vm` into `session`,
/// reusing what `cache` holds.
///
/// Each stage looks up a recorded per-segment cycle trace for
/// `(stage, resource fingerprint, nframes)`; hit stages run in replay
/// mode (plain implementations, recorded cycles — bit-identical timing,
/// none of the annotation overhead). When some stage misses, the
/// session is warm-started from the cache's compiled cost programs for
/// the live sequential resources' cost table and a [`Recorder`] is
/// attached, so [`Elaborated::publish`] can store the missed stages'
/// traces after the run. Without a cache every stage runs live and
/// nothing is recorded.
///
/// `platform` must be the platform `session` runs on (it is read for
/// the stage fingerprints).
pub fn elaborate_cached<'c>(
    session: &mut Session,
    platform: &Platform,
    vm: VocoderMapping,
    nframes: usize,
    cache: Option<&'c SegmentCostCache>,
) -> Elaborated<'c> {
    let resources = [vm.lsp, vm.lpc_int, vm.acb, vm.icb, vm.post];
    let mut replays: [StageTrace; 5] = Default::default();
    let mut missed = [None; 5];
    let mut recorder = None;
    if let Some(cache) = cache {
        for (stage, &rid) in resources.iter().enumerate() {
            let fp = SegmentCostCache::fingerprint(platform.resource(rid), nframes);
            replays[stage] = cache.get(stage, fp);
            if replays[stage].is_none() {
                missed[stage] = Some(fp);
            }
        }
        if missed.iter().any(Option::is_some) {
            // Memoization only engages on sequential resources, so the
            // warm set is the one for a live sequential stage's table.
            let live_table = (0..5)
                .filter(|&s| missed[s].is_some())
                .map(|s| platform.resource(resources[s]))
                .find(|r| r.kind == ResourceKind::Sequential)
                .map(|r| table_fingerprint(&r.costs));
            if let Some(set) = live_table.and_then(|fp| cache.programs(fp)) {
                session.model().warm_programs(set);
            }
            recorder = Some(session.recorder());
        }
    }
    let replayed_stages = replays.iter().filter(|r| r.is_some()).count();
    let (sim, model) = session.parts_mut();
    let handles = pipeline::build_hybrid(sim, model, vm, nframes, replays);
    Elaborated {
        handles,
        replayed_stages,
        cache,
        recorder,
        missed,
    }
}

impl Elaborated<'_> {
    /// Stores the traces of the stages that missed and publishes the
    /// cost programs the run compiled. Call after `session` ran to
    /// completion; a no-op when nothing missed.
    pub fn publish(&self, session: &Session) {
        let (Some(cache), Some(recorder)) = (self.cache, &self.recorder) else {
            return;
        };
        for (stage, fp) in self.missed.iter().enumerate() {
            if let Some(fp) = *fp {
                let trace = recorder
                    .replay(STAGE_NAMES[stage])
                    .expect("trace recorded for live stage");
                cache.insert(stage, fp, trace);
            }
        }
        cache.publish_programs(&session.programs());
    }
}
