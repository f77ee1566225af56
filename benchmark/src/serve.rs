//! `serve`: many small-frame cameras through `hdc_serve::serve`.
//!
//! The golden steady regime scaled up: [`STREAMS`] ~30 fps cameras over two
//! shards, served by two workers, with a strict gate. Load stays far under
//! capacity, and the queue bound and deadline leave no room to shed or
//! reject; the resident cap is below the streams per shard, so every round
//! evicts, spills and restores gate state. One operation is one offered
//! frame; one round is one `serve()` call on the same inputs.
//!
//! Checks on every call: offered = admitted + rejected, admitted = decided +
//! shed, nothing shed or rejected, every `Decide` label equals the ungated
//! `recognize` of `ServeInput::frame_for`, and every latency is at most the
//! deadline plus the largest virtual cost. The latencies are virtual
//! (cost-model µs that repeat exactly), so they are checked, not timed.

use crate::report::{median, peak_rss_mb, Metric, RunResult};
use crate::trace::Tracer;
use crate::{timed_setup, RunConfig};
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_runtime::{Micros, SplitMix64, WorkPool};
use hdc_serve::{
    serve, ArrivalSpec, CostModel, EventKind, ServeConfig, ServeInput, ServeReport, StreamBudget,
};
use hdc_vision::temporal::{StreamRecognizer, TemporalConfig};
use hdc_vision::{FrameScratch, PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Camera streams, two shards of 32.
pub const STREAMS: usize = 64;
const FRAMES_PER_STREAM: usize = 48;
const SHARDS: usize = 2;
/// Serve workers: one per core of the 2-thread reference host.
pub const WORKERS: usize = 2;
/// Distinct frame sets the streams cycle over.
const FRAME_SETS: usize = 6;
/// The golden frame geometry.
const WIDTH: u32 = 96;
const HEIGHT: u32 = 72;
const KEYFRAMES: usize = 2;
const DUPS: usize = 3;
/// Untimed calls at the end of set-up.
const WARMUP_CALLS: usize = 4;

/// The serving configuration. The queue holds every stream of a shard, and
/// a full queue drains in well under the deadline at the largest virtual
/// cost, so no frame can be shed or rejected; 24 resident slots for 32
/// streams per shard make every round evict and restore.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        queue_cap: STREAMS / SHARDS * 2,
        resident_cap: 24,
        deadline_us: 50_000,
        budget: StreamBudget { fps: 30, burst: 4 },
        costs: CostModel::default(),
        gate: TemporalConfig::strict(),
        spill: true,
    }
}

/// The largest virtual service cost one decided frame can carry.
pub fn max_cost_us(costs: &CostModel) -> Micros {
    [
        costs.full_run_us,
        costs.strict_hit_us,
        costs.approx_hit_us,
        costs.incremental_hit_us,
        costs.sig_shortcut_us,
    ]
    .into_iter()
    .max()
    .unwrap_or(0)
        + costs.fault_in_us
}

pub struct Inputs {
    pub pipeline: RecognitionPipeline,
    pub frame_sets: Vec<Vec<GrayImage>>,
    pub arrivals: ArrivalSpec,
    /// The ungated decision on every frame of every set.
    pub oracle: Vec<Vec<Option<String>>>,
    pub config: ServeConfig,
}

impl Inputs {
    pub fn input(&self) -> ServeInput<'_> {
        ServeInput {
            frame_sets: &self.frame_sets,
            arrivals: &self.arrivals,
        }
    }
}

/// One frame set: two held signs at a seeded azimuth, each as jittered
/// keyframes repeated by camera oversampling.
fn frame_set(seed: u64, set: usize) -> Vec<GrayImage> {
    let mut draw = SplitMix64::stream(seed ^ 0x5E7F_0000, set as u64);
    let mut view = ViewSpec::paper_default(-12.0 + 30.0 * draw.next_unit_f64(), 5.0, 3.0);
    view.width = WIDTH;
    view.height = HEIGHT;
    view.focal_px = f64::from(WIDTH);
    let mut noise = SmallRng::seed_from_u64(draw.next_u64());
    let first = draw.below(MarshallingSign::ALL.len() as u64) as usize;
    let mut frames = Vec::with_capacity(2 * KEYFRAMES * DUPS);
    for k in 0..2 {
        let base = render_sign(
            MarshallingSign::ALL[(first + k) % MarshallingSign::ALL.len()],
            &view,
        );
        for _ in 0..KEYFRAMES {
            let mut keyframe = base.clone();
            add_salt_pepper(&mut keyframe, 0.002, &mut noise);
            frames.extend(std::iter::repeat_n(keyframe, DUPS));
        }
    }
    frames
}

fn setup(seed: u64, pool: &WorkPool) -> Inputs {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let frame_sets: Vec<Vec<GrayImage>> = (0..FRAME_SETS).map(|s| frame_set(seed, s)).collect();
    let oracle = frame_sets
        .iter()
        .map(|set| set.iter().map(|f| pipeline.recognize(f).decision).collect())
        .collect();
    let inputs = Inputs {
        pipeline,
        frame_sets,
        arrivals: ArrivalSpec {
            streams: STREAMS,
            frames_per_stream: FRAMES_PER_STREAM,
            period_us: 33_333,
            jitter_us: 2_000,
            burst: None,
            seed: SplitMix64::new(seed).next_u64(),
        },
        oracle,
        config: serve_config(),
    };
    // warm-up: untimed calls
    for _ in 0..WARMUP_CALLS {
        std::hint::black_box(serve(
            &inputs.pipeline,
            &inputs.input(),
            &inputs.config,
            pool,
        ));
    }
    inputs
}

/// Offered frames of one call that fail a check. A report that breaks
/// conservation, or sheds or rejects anything, fails every frame.
pub fn failed_frames(inputs: &Inputs, report: &ServeReport) -> u64 {
    let offered = inputs.arrivals.offered();
    let conserved = report.offered() == offered
        && report.offered()
            == report.admitted() + report.rejected_budget() + report.rejected_queue()
        && report.admitted() == report.decided() + report.shed()
        && report.shed() == 0
        && report.rejected_budget() + report.rejected_queue() == 0;
    if !conserved {
        return offered as u64;
    }
    let bound = inputs.config.deadline_us + max_cost_us(&inputs.config.costs);
    let input = inputs.input();
    // decisions per offered frame, and whether each was right and in time
    let mut decisions = vec![0u32; offered];
    let mut right = vec![true; offered];
    for e in &report.events {
        if let EventKind::Decide { label, latency_us } = &e.kind {
            let (stream, frame) = (e.stream as usize, e.frame as usize);
            let set = stream % inputs.frame_sets.len();
            let index = frame % inputs.frame_sets[set].len();
            // the oracle is indexed as `frame_for` picks frames
            assert!(std::ptr::eq(
                input.frame_for(stream, frame),
                &inputs.frame_sets[set][index]
            ));
            let expected = &inputs.oracle[set][index];
            let slot = stream * inputs.arrivals.frames_per_stream + frame;
            decisions[slot] += 1;
            right[slot] &= label == expected && *latency_us <= bound;
        }
    }
    // a frame passes when it was decided exactly once, right and in time
    decisions
        .iter()
        .zip(&right)
        .filter(|&(&n, &ok)| n != 1 || !ok)
        .count() as u64
}

pub fn run(cfg: &RunConfig, start: Instant, tracer: Option<&mut Tracer>) -> RunResult {
    let pool = WorkPool::new(WORKERS);
    let (inputs, setup_s) = timed_setup(start, tracer.is_some(), || setup(cfg.seed, &pool));
    match tracer {
        None => run_timed(cfg, &inputs, &pool, setup_s),
        Some(t) => run_traced(cfg, &inputs, t),
    }
}

fn run_timed(cfg: &RunConfig, inputs: &Inputs, pool: &WorkPool, setup_s: f64) -> RunResult {
    let (mut attempted, mut failed, mut decided, mut serve_s) = (0u64, 0u64, 0u64, 0.0);
    while serve_s < cfg.seconds {
        let t0 = Instant::now();
        let report = serve(&inputs.pipeline, &inputs.input(), &inputs.config, pool);
        serve_s += t0.elapsed().as_secs_f64();
        attempted += inputs.arrivals.offered() as u64;
        decided += report.decided() as u64;
        failed += failed_frames(inputs, &report);
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", decided as f64 / serve_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

fn run_traced(cfg: &RunConfig, inputs: &Inputs, tracer: &mut Tracer) -> RunResult {
    let pools = [WorkPool::new(1), WorkPool::new(WORKERS)];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    let began = Instant::now();
    let mut call = 0u64;
    while began.elapsed().as_secs_f64() < cfg.seconds || call < 2 {
        // alternate one and two workers, so both see the same host state
        let (pool, name) = if call.is_multiple_of(2) {
            (&pools[0], "serve.call_1worker")
        } else {
            (&pools[1], "serve.call")
        };
        let report = tracer.span(name, call, None, || {
            serve(&inputs.pipeline, &inputs.input(), &inputs.config, pool)
        });
        attempted += inputs.arrivals.offered() as u64;
        failed += failed_frames(inputs, &report);
        last = Some(report);
        call += 1;
    }
    let report = last.expect("at least two calls ran");
    // the traced loop's own end-to-end figure, for the tracing overhead
    let two_worker_s: f64 = tracer.micros_of("serve.call").iter().sum::<f64>() / 1e6;
    eprintln!(
        "traced serve ops_per_s: {}",
        (call / 2) as f64 * report.decided() as f64 / two_worker_s
    );

    // every decided frame, replayed serially through per-stream recognisers
    // that are never evicted
    let mut recs: Vec<StreamRecognizer> = (0..STREAMS)
        .map(|_| StreamRecognizer::new(inputs.config.gate))
        .collect();
    let mut scratch = FrameScratch::new();
    let input = inputs.input();
    let replay = tracer.open("serve.replay_recognition", call, None);
    for e in &report.events {
        if matches!(e.kind, EventKind::Decide { .. }) {
            let frame = input.frame_for(e.stream as usize, e.frame as usize);
            let r = recs[e.stream as usize].recognize(&inputs.pipeline, &mut scratch, frame);
            std::hint::black_box(r);
        }
    }
    tracer.close(replay);
    for (s, rec) in recs.iter().enumerate() {
        let ck = tracer.span("vision.checkpoint", s as u64, None, || rec.checkpoint());
        let mut fresh = StreamRecognizer::new(inputs.config.gate);
        tracer.span("vision.restore", s as u64, None, || fresh.restore(&ck));
    }

    let ms = |name: &str| median(&tracer.micros_of(name)) / 1e3;
    let (one, two) = (ms("serve.call_1worker"), ms("serve.call"));
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("serve.call_ms", two, "ms"),
            Metric::new(
                "serve.recognition_share",
                ms("serve.replay_recognition") / one,
                "ratio",
            ),
            Metric::new("runtime.serve_speedup", one / two, "x"),
            Metric::new(
                "vision.checkpoint_us",
                median(&tracer.micros_of("vision.checkpoint")),
                "us",
            ),
            Metric::new(
                "vision.restore_us",
                median(&tracer.micros_of("vision.restore")),
                "us",
            ),
            Metric::new("serve.evictions", report.evictions() as f64, "count/call"),
            Metric::new("serve.restores", report.restores() as f64, "count/call"),
            Metric::new("serve.events", report.events.len() as f64, "count/call"),
            Metric::new("serve.queue_peak", report.queue_peak as f64, "count"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean call fails nothing; one altered oracle label fails exactly
    /// the decided frames that show that image.
    #[test]
    fn checks_pass_clean_and_catch_an_altered_oracle() {
        let pool = WorkPool::new(WORKERS);
        let mut inputs = setup(3, &pool);
        let report = serve(&inputs.pipeline, &inputs.input(), &inputs.config, &pool);
        assert_eq!(failed_frames(&inputs, &report), 0);
        assert!(report.evictions() > 0 && report.restores() > 0);

        let expected = (0..STREAMS)
            .filter(|s| s % FRAME_SETS == 0)
            .map(|_| {
                (0..FRAMES_PER_STREAM)
                    .filter(|f| f % (2 * KEYFRAMES * DUPS) == 0)
                    .count()
            })
            .sum::<usize>() as u64;
        inputs.oracle[0][0] = Some("Maybe".to_owned());
        assert_eq!(failed_frames(&inputs, &report), expected);
    }

    /// A frame decided twice fails, even when both decisions are right.
    #[test]
    fn a_duplicated_decision_fails_its_frame() {
        let pool = WorkPool::new(1);
        let inputs = setup(3, &pool);
        let mut report = serve(&inputs.pipeline, &inputs.input(), &inputs.config, &pool);
        let decide = report
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Decide { .. }))
            .cloned()
            .expect("a decided frame");
        report.events.push(decide.clone());
        assert_eq!(failed_frames(&inputs, &report), 1);
        report.events.push(decide);
        assert_eq!(failed_frames(&inputs, &report), 1);
    }

    #[test]
    fn a_shed_frame_fails_the_whole_call() {
        let pool = WorkPool::new(1);
        let inputs = setup(3, &pool);
        let mut report = serve(&inputs.pipeline, &inputs.input(), &inputs.config, &pool);
        report.per_stream[0].decided -= 1;
        report.per_stream[0].shed += 1;
        assert_eq!(
            failed_frames(&inputs, &report),
            inputs.arrivals.offered() as u64
        );
    }
}
