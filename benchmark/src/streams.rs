//! `streams`: the drone's on-board frame loop at camera rate.
//!
//! [`STREAMS`] VGA cameras at seeded azimuths inside the frontal cone each
//! watch a marshaller hold signs: per hold, `Pose::lerp` transition frames,
//! then sensor-jittered keyframes, each repeated by camera oversampling.
//! Every frame is its own buffer, as from a camera. The streams are
//! interleaved in arrival order and each runs through its own
//! `StreamRecognizer` in the default incremental gate; one pass serves every
//! frame once, starting each recogniser from a reset.
//!
//! All frames, and the ungated decision for each, are made during set-up, so
//! nothing is rendered inside the timed loop. Checks: every decision equals
//! the ungated `RecognitionPipeline::recognize` of the same frame, and every
//! held keyframe decides the sign it was rendered from.

use crate::report::{median, peak_rss_mb, percentile_sorted, Metric, RunResult};
use crate::trace::Tracer;
use crate::{timed_setup, RunConfig};
use hdc_figure::{render_pose, MarshallingSign, Pose, ViewSpec};
use hdc_raster::diff::mask_tile_diff_into;
use hdc_raster::morphology::open_packed_into;
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::threshold::binarize_bytes_into;
use hdc_raster::{
    largest_component_packed_with, trace_outer_contour_packed_into, BitMask, Connectivity,
    GrayImage, LabelScratch,
};
use hdc_runtime::SplitMix64;
use hdc_sax::QueryScratch;
use hdc_vision::temporal::{StreamRecognizer, TemporalConfig};
use hdc_vision::{
    signature_from_contour, trace_contour_packed_with, FrameScratch, PipelineConfig,
    RecognitionPipeline, SignatureScratch,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Concurrent camera streams.
pub const STREAMS: usize = 8;
/// Held signs per stream and pass (cycling through the alphabet).
const HOLDS: usize = 3;
/// Unique `Pose::lerp` frames leading into each hold.
const TRANSITION_FRAMES: usize = 3;
/// Sensor-jitter re-rolls per hold.
const KEYFRAMES: usize = 3;
/// Oversampled repeats of each keyframe.
const DUPS: usize = 6;
/// Salt-and-pepper probability of each keyframe's sensor jitter.
const JITTER: f64 = 0.001;
/// Camera period and arrival jitter, µs (30 fps).
const PERIOD_US: u64 = 33_333;
const ARRIVAL_JITTER_US: u64 = 2_000;
/// Camera azimuths are drawn from this range inside the frontal cone,
/// degrees.
const AZIMUTH_DEG: (f64, f64) = (-12.0, 18.0);
/// A percentile is reported only with at least this many samples beyond it.
const TAIL_SAMPLES: usize = 10;

/// Decision code: the sign's index in `MarshallingSign::ALL`, or one of
/// these two.
const NO_SIGN: u8 = u8::MAX;
const FOREIGN_LABEL: u8 = u8::MAX - 1;

/// Compact code of a decision label, so the timed loop stores no strings.
pub fn label_code(label: Option<&str>) -> u8 {
    match label {
        None => NO_SIGN,
        Some(l) => MarshallingSign::ALL
            .iter()
            .position(|s| s.label() == l)
            .map_or(FOREIGN_LABEL, |i| i as u8),
    }
}

pub struct Frame {
    pub image: GrayImage,
    /// Code of the ungated decision on this frame.
    pub oracle: u8,
    /// Code of the sign a held keyframe was rendered from.
    pub held: Option<u8>,
}

pub struct Inputs {
    pub pipeline: RecognitionPipeline,
    pub streams: Vec<Vec<Frame>>,
    /// `(stream, frame)` in arrival order.
    pub order: Vec<(usize, usize)>,
}

fn camera_view(azimuth_deg: f64) -> ViewSpec {
    ViewSpec::paper_default(azimuth_deg, 5.0, 3.0)
}

/// One stream's frames; the oracle decision is computed once per distinct
/// image and shared by its repeats.
fn stream_frames(pipeline: &RecognitionPipeline, seed: u64, stream: usize) -> Vec<Frame> {
    let mut draw = SplitMix64::stream(seed, stream as u64);
    let azimuth = AZIMUTH_DEG.0 + (AZIMUTH_DEG.1 - AZIMUTH_DEG.0) * draw.next_unit_f64();
    let first_sign = draw.below(MarshallingSign::ALL.len() as u64) as usize;
    let mut noise = SmallRng::seed_from_u64(draw.next_u64());
    let view = camera_view(azimuth);
    let oracle = |img: &GrayImage| label_code(pipeline.recognize(img).decision.as_deref());

    let mut frames = Vec::with_capacity(HOLDS * (TRANSITION_FRAMES + KEYFRAMES * DUPS));
    let mut from = Pose::neutral();
    for hold in 0..HOLDS {
        let sign = (first_sign + hold) % MarshallingSign::ALL.len();
        let to = Pose::for_sign(MarshallingSign::ALL[sign]);
        for step in 1..=TRANSITION_FRAMES {
            let t = step as f64 / (TRANSITION_FRAMES + 1) as f64;
            let image = render_pose(from.lerp(&to, t), &view);
            let oracle = oracle(&image);
            frames.push(Frame {
                image,
                oracle,
                held: None,
            });
        }
        let base = render_pose(to, &view);
        for _ in 0..KEYFRAMES {
            let mut keyframe = base.clone();
            add_salt_pepper(&mut keyframe, JITTER, &mut noise);
            let code = oracle(&keyframe);
            for _ in 0..DUPS {
                frames.push(Frame {
                    image: keyframe.clone(),
                    oracle: code,
                    held: Some(sign as u8),
                });
            }
        }
        from = to;
    }
    frames
}

/// Interleaves the streams by arrival time: each camera starts at a seeded
/// phase and then runs at [`PERIOD_US`] with up to [`ARRIVAL_JITTER_US`] of
/// jitter per frame.
fn arrival_order(seed: u64, frames_per_stream: usize) -> Vec<(usize, usize)> {
    let mut arrivals = Vec::with_capacity(STREAMS * frames_per_stream);
    for s in 0..STREAMS {
        let mut draw = SplitMix64::stream(seed ^ 0xA221_7A15, s as u64);
        let phase = draw.below(PERIOD_US);
        for f in 0..frames_per_stream {
            let t = phase + f as u64 * PERIOD_US + draw.below(ARRIVAL_JITTER_US + 1);
            arrivals.push((t, s, f));
        }
    }
    arrivals.sort_unstable();
    arrivals.into_iter().map(|(_, s, f)| (s, f)).collect()
}

fn recognisers() -> Vec<StreamRecognizer> {
    (0..STREAMS)
        .map(|_| StreamRecognizer::new(TemporalConfig::incremental()))
        .collect()
}

/// One pass over every frame in arrival order; returns each decision's
/// code, in order.
fn pass(inputs: &Inputs, recs: &mut [StreamRecognizer], scratch: &mut FrameScratch) -> Vec<u8> {
    recs.iter_mut().for_each(StreamRecognizer::reset);
    inputs
        .order
        .iter()
        .map(|&(s, f)| {
            let r = recs[s].recognize(&inputs.pipeline, scratch, &inputs.streams[s][f].image);
            label_code(r.decision.as_deref())
        })
        .collect()
}

fn setup(seed: u64) -> Inputs {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&camera_view(0.0));
    let streams: Vec<Vec<Frame>> = (0..STREAMS)
        .map(|s| stream_frames(&pipeline, seed, s))
        .collect();
    let order = arrival_order(seed, streams[0].len());
    let inputs = Inputs {
        pipeline,
        streams,
        order,
    };
    // warm-up: one untimed pass
    std::hint::black_box(pass(&inputs, &mut recognisers(), &mut FrameScratch::new()));
    inputs
}

/// Frames of one pass whose decision fails a check.
pub fn failed_frames(inputs: &Inputs, decided: &[u8]) -> u64 {
    inputs
        .order
        .iter()
        .zip(decided)
        .filter(|(&(s, f), &code)| {
            let frame = &inputs.streams[s][f];
            code != frame.oracle || frame.held.is_some_and(|h| h != code)
        })
        .count() as u64
}

pub fn run(cfg: &RunConfig, start: Instant, tracer: Option<&mut Tracer>) -> RunResult {
    let (inputs, setup_s) = timed_setup(start, tracer.is_some(), || setup(cfg.seed));
    match tracer {
        None => run_timed(cfg, &inputs, setup_s),
        Some(t) => run_traced(cfg, &inputs, t),
    }
}

fn run_timed(cfg: &RunConfig, inputs: &Inputs, setup_s: f64) -> RunResult {
    let mut recs = recognisers();
    let mut scratch = FrameScratch::new();
    let per_pass = inputs.order.len();
    let mut decided = vec![0u8; per_pass];
    let (mut attempted, mut failed, mut loop_s) = (0u64, 0u64, 0.0);
    while loop_s < cfg.seconds {
        recs.iter_mut().for_each(StreamRecognizer::reset);
        let t_pass = Instant::now();
        for (slot, &(s, f)) in decided.iter_mut().zip(&inputs.order) {
            let r = recs[s].recognize(&inputs.pipeline, &mut scratch, &inputs.streams[s][f].image);
            *slot = label_code(r.decision.as_deref());
        }
        loop_s += t_pass.elapsed().as_secs_f64();
        attempted += per_pass as u64;
        failed += failed_frames(inputs, &decided);
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", attempted as f64 / loop_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

/// Gate rung counts over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Rungs {
    frames: u64,
    identity: u64,
    incremental: u64,
    band_patch: u64,
    wholesale: u64,
}

fn run_traced(cfg: &RunConfig, inputs: &Inputs, tracer: &mut Tracer) -> RunResult {
    let mut recs = recognisers();
    let mut scratch = FrameScratch::new();
    let per_pass = inputs.order.len();
    let mut decided = vec![0u8; per_pass];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_pass: Option<Rungs> = None;
    let mut call_us: Vec<f64> = Vec::new();
    let began = Instant::now();
    let mut loop_s = 0.0;
    while began.elapsed().as_secs_f64() < cfg.seconds || call_us.len() < 100 * TAIL_SAMPLES {
        recs.iter_mut().for_each(StreamRecognizer::reset);
        let mut rungs = Rungs::default();
        let t_pass = Instant::now();
        let pass_span = tracer.open("streams.pass", attempted, None);
        for (k, (slot, &(s, f))) in decided.iter_mut().zip(&inputs.order).enumerate() {
            let rec = &mut recs[s];
            let (gate0, dirty0) = (rec.counters(), rec.dirty_stats());
            let span = tracer.open(
                "vision.gate.recognize",
                attempted + k as u64,
                Some(pass_span),
            );
            let r = rec.recognize(&inputs.pipeline, &mut scratch, &inputs.streams[s][f].image);
            tracer.close(span);
            call_us.push(tracer.micros(span));
            *slot = label_code(r.decision.as_deref());
            let (gate, dirty) = (
                rec.counters().since(&gate0),
                rec.dirty_stats().since(&dirty0),
            );
            rungs.frames += 1;
            let name = if gate.strict_hits > 0 {
                rungs.identity += 1;
                "vision.gate.identity"
            } else if gate.incremental_hits > 0 {
                rungs.incremental += 1;
                "vision.gate.incremental_hit"
            } else if dirty.patched > 0 {
                rungs.band_patch += 1;
                "vision.gate.band_patch"
            } else if dirty.full_fallbacks > 0 {
                rungs.wholesale += 1;
                "vision.gate.wholesale"
            } else {
                "vision.gate.cold_run"
            };
            tracer.rename(span, name);
        }
        tracer.close(pass_span);
        loop_s += t_pass.elapsed().as_secs_f64();
        first_pass.get_or_insert(rungs);
        attempted += per_pass as u64;
        failed += failed_frames(inputs, &decided);
    }
    let rungs = first_pass.expect("at least one pass ran");
    // the traced loop's own end-to-end figure, for the tracing overhead
    eprintln!("traced streams ops_per_s: {}", attempted as f64 / loop_s);
    kernel_spans(inputs, tracer);

    let p50 = |name: &str| median(&tracer.micros_of(name));
    let count = |n: u64| n as f64;
    call_us.sort_by(f64::total_cmp);
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new(
                "vision.stream_frame_p50_us",
                percentile_sorted(&call_us, 50.0),
                "us",
            ),
            Metric::new(
                "vision.stream_frame_p99_us",
                percentile_sorted(&call_us, 99.0),
                "us",
            ),
            Metric::new("vision.gate.identity_us", p50("vision.gate.identity"), "us"),
            Metric::new(
                "vision.gate.incremental_hit_us",
                p50("vision.gate.incremental_hit"),
                "us",
            ),
            Metric::new(
                "vision.gate.band_patch_us",
                p50("vision.gate.band_patch"),
                "us",
            ),
            Metric::new(
                "vision.gate.wholesale_us",
                p50("vision.gate.wholesale"),
                "us",
            ),
            Metric::new(
                "vision.gate.identity_hits",
                count(rungs.identity),
                "count/pass",
            ),
            Metric::new(
                "vision.gate.incremental_hits",
                count(rungs.incremental),
                "count/pass",
            ),
            Metric::new(
                "vision.gate.band_patches",
                count(rungs.band_patch),
                "count/pass",
            ),
            Metric::new(
                "vision.gate.wholesale",
                count(rungs.wholesale),
                "count/pass",
            ),
            Metric::new(
                "vision.gate.reuse_ratio",
                (rungs.identity + rungs.incremental) as f64 / rungs.frames as f64,
                "ratio",
            ),
            Metric::new("raster.binarize_pack_us", p50("raster.binarize_pack"), "us"),
            Metric::new("raster.morphology_us", p50("raster.morphology"), "us"),
            Metric::new("raster.label_us", p50("raster.label"), "us"),
            Metric::new("raster.contour_us", p50("raster.contour"), "us"),
            Metric::new(
                "raster.mask_tile_diff_us",
                p50("raster.mask_tile_diff"),
                "us",
            ),
            Metric::new("vision.signature_us", p50("vision.signature"), "us"),
            Metric::new("sax.search_us", p50("sax.search"), "us"),
        ],
    }
}

/// Times the public packed kernels of the default recognition path, one
/// span per call, on every distinct image of the streams (the frames the
/// gate runs fully or patches).
fn kernel_spans(inputs: &Inputs, tracer: &mut Tracer) {
    const REPS: usize = 3;
    let pipeline = &inputs.pipeline;
    let group = u64::MAX;
    let mut bytes = GrayImage::new(1, 1);
    let mut mask = BitMask::new(1, 1);
    let mut prev = BitMask::new(1, 1);
    let (mut eroded, mut opened, mut blob) =
        (BitMask::new(1, 1), BitMask::new(1, 1), BitMask::new(1, 1));
    let mut labels = LabelScratch::new();
    let mut contour = Vec::new();
    let mut sig = SignatureScratch::new();
    let mut query = QueryScratch::new();
    let mut tiles = Vec::new();
    let tile = TemporalConfig::incremental().tile;
    let len = pipeline.config().signature_len;
    for stream in &inputs.streams {
        let mut last: Option<&GrayImage> = None;
        for frame in stream {
            // repeats of a keyframe are the same image: time each image once
            if last.is_some_and(|l| l.pixels() == frame.image.pixels()) {
                continue;
            }
            last = Some(&frame.image);
            for _ in 0..REPS {
                tracer.span("raster.binarize_pack", group, None, || {
                    binarize_bytes_into(&frame.image, 128, &mut bytes);
                    mask.pack_from_bytes(&bytes);
                });
                tracer.span("raster.morphology", group, None, || {
                    open_packed_into(&mask, &mut eroded, &mut opened)
                });
                if prev.width() == mask.width() {
                    tracer.span("raster.mask_tile_diff", group, None, || {
                        mask_tile_diff_into(&mask, &prev, tile, &mut tiles)
                    });
                }
                let comp = tracer.span("raster.label", group, None, || {
                    largest_component_packed_with(
                        &mask,
                        Connectivity::Eight,
                        &mut blob,
                        &mut labels,
                    )
                });
                if comp.is_none() {
                    continue;
                }
                tracer.span("raster.contour", group, None, || {
                    trace_outer_contour_packed_into(&blob, &mut contour)
                });
                if trace_contour_packed_with(&blob, &mut sig).is_err() {
                    continue;
                }
                tracer.span("vision.signature", group, None, || {
                    signature_from_contour(&mut sig, len)
                });
                let best = tracer.span("sax.search", group, None, || {
                    pipeline
                        .index()
                        .best_two_with(sig.series(), &mut query)
                        .map(|(m, _)| m.distance)
                });
                std::hint::black_box(best);
            }
            std::mem::swap(&mut prev, &mut mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams of seed 1, checked against their oracle: a clean pass
    /// fails nothing, and one altered oracle label fails its frames.
    #[test]
    fn checks_pass_clean_and_catch_an_altered_oracle() {
        let mut inputs = setup(1);
        let decided = pass(&inputs, &mut recognisers(), &mut FrameScratch::new());
        assert_eq!(failed_frames(&inputs, &decided), 0);
        // every held keyframe decided its sign
        assert!(inputs
            .streams
            .iter()
            .flatten()
            .all(|f| f.held.is_none_or(|h| h == f.oracle)));

        // alter the oracle of one transition frame: exactly its one
        // appearance in the pass fails
        let (s, f) = inputs.order[0];
        assert!(inputs.streams[s][f].held.is_none());
        inputs.streams[s][f].oracle = FOREIGN_LABEL;
        assert_eq!(failed_frames(&inputs, &decided), 1);
    }

    #[test]
    fn arrival_order_is_a_permutation_keeping_each_stream_in_order() {
        let order = arrival_order(5, 10);
        assert_eq!(order.len(), STREAMS * 10);
        for s in 0..STREAMS {
            let frames: Vec<usize> = order.iter().filter(|o| o.0 == s).map(|o| o.1).collect();
            assert_eq!(frames, (0..10).collect::<Vec<_>>());
        }
        assert_ne!(order, arrival_order(6, 10));
    }

    #[test]
    fn label_codes_round_trip() {
        for (i, s) in MarshallingSign::ALL.iter().enumerate() {
            assert_eq!(label_code(Some(s.label())), i as u8);
        }
        assert_eq!(label_code(None), NO_SIGN);
        assert_eq!(label_code(Some("Maybe")), FOREIGN_LABEL);
    }
}
