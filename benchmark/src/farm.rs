//! `farm`: an orchard day of negotiations on the shared event heap.
//!
//! One round is one `run_session_farm` call over a fixed mix of sessions
//! (see [`MIX`]): scripted and unscripted humans of every role, answering
//! Yes, No, a wave-off or nothing, at varied latencies, over an in-process
//! channel, a lossy datalink or a one-observer cohort. Roles cycle as in
//! the orchard mission (`hdc_orchard::Mission`): supervisor, worker,
//! worker, visitor; an unscripted human consents with the mission's
//! probability, 0.8. The seed draws the start of the role cycle, every
//! consent, latency, position, heading, link impairment and session seed.
//! Every round also carries the four [`KNOWN_FAULTS`] sessions, whose inputs
//! do not depend on the seed and which fail every time today.
//!
//! Checks, made after the timed call: every session is terminal; replayed
//! alone it reaches the same outcome; its log holds one `EnterArea` exactly
//! when it was granted; no datalink lease expired; and a scripted session
//! ends as its script intends (Yes → Granted, No or wave-off → Denied,
//! silent → Abandoned).

use crate::report::{median, peak_rss_mb, Metric, RunResult};
use crate::trace::Tracer;
use crate::{timed_setup, RunConfig};
use hdc_core::{
    CohortConfig, CollaborationSession, DatalinkConfig, HumanScript, LogEntry, ProtocolAction,
    Role, ScriptedResponse, SessionConfig, SessionOutcome, SessionReport,
};
use hdc_figure::{render_signaller, MarshallingSign, Pose, ViewSpec};
use hdc_geometry::azimuth::DEAD_ANGLE_CENTER_RAD;
use hdc_geometry::Vec2;
use hdc_link::LinkQuality;
use hdc_orchard::run_session_farm;
use hdc_runtime::{EventHeap, ScheduleMode, SplitMix64};
use hdc_vision::dynamic::{DynamicConfig, DynamicRecognizer};
use hdc_vision::{FrameScratch, PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Heap tie-break salt for every farm call.
const FARM_SALT: u64 = 0xFA;
/// Azimuth offset of the side observer in a cohort session, radians.
const SIDE_OBSERVER_RAD: f64 = 0.35;
/// The orchard mission's role cycle (`hdc_orchard::Mission::with_backend`).
const ROLES: [Role; 4] = [Role::Supervisor, Role::Worker, Role::Worker, Role::Visitor];
/// The orchard mission's probability that a human consents.
const CONSENT_P: f64 = 0.8;
/// Lease timeout of the lossy datalink, seconds: twelve 0.5 s heartbeat
/// slots. At the default six, a lease on a 5–15%-drop link expires by
/// chance in about one session in 2 500 (six heartbeats lost in a row), so
/// a check on it would fail on some seeds only; at twelve that chance is
/// below 1e-8 per session, so every expiry is counted as failed.
const LEASE_TIMEOUT_S: f64 = 6.0;

/// What a scripted human answers to the area request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Yes,
    No,
    WaveOff,
    /// Ignores the poke and the request alike.
    Silent,
}

impl Answer {
    fn script(self, latency_s: f64) -> HumanScript {
        let attention = ScriptedResponse::Sign(MarshallingSign::AttentionGained);
        let (on_poke, on_request) = match self {
            Answer::Yes => (attention, ScriptedResponse::Sign(MarshallingSign::Yes)),
            Answer::No => (attention, ScriptedResponse::Sign(MarshallingSign::No)),
            Answer::WaveOff => (attention, ScriptedResponse::WaveOff),
            Answer::Silent => (ScriptedResponse::Ignore, ScriptedResponse::Ignore),
        };
        HumanScript {
            on_poke,
            on_request,
            latency_s,
        }
    }

    /// The outcome the script's intent calls for.
    pub fn intended(self) -> SessionOutcome {
        match self {
            Answer::Yes => SessionOutcome::Granted,
            Answer::No | Answer::WaveOff => SessionOutcome::Denied,
            Answer::Silent => SessionOutcome::Abandoned,
        }
    }

    /// Answer latencies the seed draws from, seconds. Consenting scripts
    /// stay below 3.5 s: from there on F2 turns the lowered attention sign
    /// into a wave-off (at latencies in (3.5, 3.7] s and above 4.0 s).
    fn latency_range(self) -> (f64, f64) {
        match self {
            Answer::Yes => (0.8, 3.4),
            _ => (0.8, 6.0),
        }
    }
}

/// How the session's negotiation events travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    InProcess,
    /// A datalink with seeded drop (5–15%) and jitter (0–40 ms) and a
    /// [`LEASE_TIMEOUT_S`] lease.
    LossyLink,
    /// One observer at [`SIDE_OBSERVER_RAD`].
    SideCohort,
    /// One observer at the dead-angle centre.
    DeadAngleCohort,
}

/// The program faults the workload keeps on purpose (see the README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnownFault {
    /// Under event-driven scheduling with a datalink the human cannot read
    /// the area request, so a consenting human ends Denied.
    F1,
    /// `DynamicRecognizer` counts half-cycles against `min_cycles`, so a
    /// lowered attention sign reads as a wave-off and a slow consenting
    /// human ends Denied.
    F2,
}

/// One planned session.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub config: SessionConfig,
    /// The channel and the scripted answer it was planned with (for the
    /// known faults, the cases' own).
    pub channel: Channel,
    pub answer: Option<Answer>,
    /// The outcome the script intends; `None` for an unscripted human.
    pub intended: Option<SessionOutcome>,
    pub fault: Option<KnownFault>,
}

/// The seed-dependent sessions of one round: channel, scripted answer
/// (`None`: an unscripted human following their role profile), count.
///
/// Scripted answers on the lossy datalink are limited to silence: F1 makes
/// any other scripted answer there end by chance (see the README), and a
/// check that fails on some seeds only cannot be kept.
pub const MIX: &[(Channel, Option<Answer>, usize)] = &[
    (Channel::InProcess, Some(Answer::Yes), 3),
    (Channel::InProcess, Some(Answer::No), 3),
    (Channel::InProcess, Some(Answer::WaveOff), 2),
    (Channel::InProcess, Some(Answer::Silent), 2),
    (Channel::InProcess, None, 6),
    (Channel::SideCohort, Some(Answer::Yes), 2),
    (Channel::SideCohort, Some(Answer::No), 1),
    (Channel::SideCohort, Some(Answer::WaveOff), 1),
    (Channel::SideCohort, None, 1),
    (Channel::DeadAngleCohort, Some(Answer::Yes), 2),
    (Channel::DeadAngleCohort, Some(Answer::No), 1),
    (Channel::DeadAngleCohort, Some(Answer::Silent), 1),
    (Channel::DeadAngleCohort, None, 1),
    (Channel::LossyLink, Some(Answer::Silent), 2),
    (Channel::LossyLink, None, 4),
];

/// A fixed session that fails every time today: a consenting scripted
/// human, in process or over a clean datalink, alone or with a side
/// observer.
pub struct FaultCase {
    pub name: &'static str,
    pub fault: KnownFault,
    pub datalink: bool,
    pub cohort: bool,
    pub role: Role,
    pub latency_s: f64,
    pub seed: u64,
}

/// Consenting humans that end Denied every time; each round carries all
/// four, whatever the seed.
pub const KNOWN_FAULTS: [FaultCase; 4] = [
    FaultCase {
        name: "F1a",
        fault: KnownFault::F1,
        datalink: true,
        cohort: false,
        role: Role::Supervisor,
        latency_s: 1.5,
        seed: 0xF1A,
    },
    FaultCase {
        name: "F1b",
        fault: KnownFault::F1,
        datalink: true,
        cohort: false,
        role: Role::Worker,
        latency_s: 3.0,
        seed: 0xF1B,
    },
    FaultCase {
        name: "F2a",
        fault: KnownFault::F2,
        datalink: false,
        cohort: false,
        role: Role::Worker,
        latency_s: 3.6,
        seed: 0xF2A,
    },
    FaultCase {
        name: "F2b",
        fault: KnownFault::F2,
        datalink: false,
        cohort: true,
        role: Role::Visitor,
        latency_s: 4.5,
        seed: 0xF2B,
    },
];

impl FaultCase {
    pub fn planned(&self) -> Planned {
        let mut config = SessionConfig::for_role(self.role, true, self.seed)
            .with_script(Answer::Yes.script(self.latency_s));
        if self.datalink {
            config = config.with_datalink(DatalinkConfig::clean());
        }
        if self.cohort {
            config = config.with_cohort(CohortConfig::single_observer(SIDE_OBSERVER_RAD));
        }
        Planned {
            config,
            channel: if self.cohort {
                Channel::SideCohort
            } else {
                Channel::InProcess
            },
            answer: Some(Answer::Yes),
            intended: Some(Answer::Yes.intended()),
            fault: Some(self.fault),
        }
    }
}

/// Sessions per round.
pub fn round_len() -> usize {
    MIX.iter().map(|(_, _, n)| n).sum::<usize>() + KNOWN_FAULTS.len()
}

/// A uniform draw from `[lo, hi)`.
fn uniform(d: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * d.next_unit_f64()
}

/// The sessions of round `round` under `seed`.
pub fn round_plans(seed: u64, round: u64) -> Vec<Planned> {
    let mut d = SplitMix64::stream(seed, round);
    let mut plans = Vec::with_capacity(round_len());
    let first_role = d.below(ROLES.len() as u64) as usize;
    for &(channel, answer, count) in MIX {
        for _ in 0..count {
            let role = ROLES[(first_role + plans.len()) % ROLES.len()];
            let will_consent = match answer {
                Some(a) => a == Answer::Yes,
                None => d.next_unit_f64() < CONSENT_P,
            };
            let mut config = SessionConfig::for_role(role, will_consent, d.next_u64());
            config.human_position = Vec2::new(
                12.0 + uniform(&mut d, -3.0, 3.0),
                8.0 + uniform(&mut d, -3.0, 3.0),
            );
            config.human_heading = uniform(&mut d, -0.6, 1.2);
            if let Some(a) = answer {
                let (lo, hi) = a.latency_range();
                config = config.with_script(a.script(uniform(&mut d, lo, hi)));
            }
            config = match channel {
                Channel::InProcess => config,
                Channel::LossyLink => {
                    let quality = LinkQuality::clean()
                        .with_drop(uniform(&mut d, 0.05, 0.15))
                        .with_jitter(uniform(&mut d, 0.0, 0.04));
                    let mut link = DatalinkConfig::symmetric(quality);
                    link.lease.timeout_s = LEASE_TIMEOUT_S;
                    config.with_datalink(link)
                }
                Channel::SideCohort => {
                    config.with_cohort(CohortConfig::single_observer(SIDE_OBSERVER_RAD))
                }
                Channel::DeadAngleCohort => {
                    config.with_cohort(CohortConfig::single_observer(DEAD_ANGLE_CENTER_RAD))
                }
            };
            plans.push(Planned {
                config,
                channel,
                answer,
                intended: answer.map(Answer::intended),
                fault: None,
            });
        }
    }
    plans.extend(KNOWN_FAULTS.iter().map(FaultCase::planned));
    plans
}

/// The output check of one session: `outcome` is what the farm reported,
/// `solo` the report of the same session run alone.
pub fn session_ok(plan: &Planned, outcome: SessionOutcome, solo: &SessionReport) -> bool {
    let enters = solo
        .log
        .entries()
        .iter()
        .filter(|(_, e)| matches!(e, LogEntry::Action(ProtocolAction::EnterArea)))
        .count();
    let lease_lost = solo
        .link
        .is_some_and(|l| l.drone_lease_expired || l.supervisor_lease_expired);
    outcome != SessionOutcome::StillRunning
        && solo.outcome == outcome
        && enters == usize::from(outcome == SessionOutcome::Granted)
        && !lease_lost
        && plan.intended.is_none_or(|intended| intended == outcome)
}

/// Runs one session alone, event-driven, to its report.
pub fn run_alone(config: SessionConfig) -> SessionReport {
    let mut session = CollaborationSession::new(config);
    session.run_events();
    session.into_report()
}

/// Tally of checked sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures outside the known-fault sessions.
    pub unexpected: u64,
}

impl Tally {
    pub fn record(&mut self, plan: &Planned, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if plan.fault.is_none() {
                self.unexpected += 1;
            }
        }
    }
}

/// Set-up: the first round's plans and one untimed farm call over them
/// (every session calibrates its pipeline), which also brings the allocator
/// to the steady state of a long orchard day.
fn setup(seed: u64) -> Vec<Planned> {
    let plans = round_plans(seed, 0);
    let configs: Vec<SessionConfig> = plans.iter().map(|p| p.config).collect();
    std::hint::black_box(run_session_farm(
        &configs,
        ScheduleMode::EventDriven,
        FARM_SALT,
    ));
    plans
}

pub fn run(cfg: &RunConfig, start: Instant, tracer: Option<&mut Tracer>) -> RunResult {
    let (first, setup_s) = timed_setup(start, tracer.is_some(), || setup(cfg.seed));
    match tracer {
        None => run_timed(cfg, first, setup_s),
        Some(t) => run_traced(cfg, first, t),
    }
}

fn run_timed(cfg: &RunConfig, first: Vec<Planned>, setup_s: f64) -> RunResult {
    let mut tally = Tally::default();
    let mut farm_s = 0.0;
    let mut terminal = 0u64;
    let mut plans = first;
    let mut round = 0u64;
    loop {
        let configs: Vec<SessionConfig> = plans.iter().map(|p| p.config).collect();
        let t0 = Instant::now();
        let stats = run_session_farm(&configs, ScheduleMode::EventDriven, FARM_SALT);
        farm_s += t0.elapsed().as_secs_f64();
        for (plan, &outcome) in plans.iter().zip(&stats.outcomes) {
            terminal += u64::from(outcome != SessionOutcome::StillRunning);
            let solo = run_alone(plan.config);
            tally.record(plan, session_ok(plan, outcome, &solo));
        }
        round += 1;
        if farm_s >= cfg.seconds {
            break;
        }
        plans = round_plans(cfg.seed, round);
    }
    RunResult {
        correct: tally.unexpected == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", terminal as f64 / farm_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

/// Counts read from the session API and the session reports.
#[derive(Debug, Default)]
struct Counts {
    sessions: u64,
    dispatches: u64,
    drone_ticks: u64,
    frames_processed: u64,
    frames_recognized: u64,
    data_sent: u64,
    retransmits: u64,
    votes_received: u64,
    disagreements: u64,
}

/// The farm's event-driven loop (the same arming rule and salt as
/// `run_session_farm`; a unit test holds the two to the same outcomes),
/// with a span around every `CollaborationSession::new` and every `step_to`.
/// A step whose log gained a `Recognized` entry is a frame step; one that
/// gained none is an idle step. Returns each session's report and the µs
/// spent in its spans.
fn traced_farm(
    configs: &[SessionConfig],
    first_group: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<(SessionReport, f64)> {
    const TICK: f64 = CollaborationSession::TICK_S;
    let round = tracer.open("orchard.farm_round", first_group, None);
    let mut busy_us = vec![0.0; configs.len()];
    let mut sessions: Vec<CollaborationSession> = Vec::with_capacity(configs.len());
    for (i, c) in configs.iter().enumerate() {
        let span = tracer.open("core.session_new", first_group + i as u64, Some(round));
        sessions.push(CollaborationSession::new(*c));
        tracer.close(span);
        busy_us[i] += tracer.micros(span);
    }
    let arm = |heap: &mut EventHeap<f64>, i: usize, s: &mut CollaborationSession| {
        let now = s.time();
        let mut due = s.next_due_after(now);
        if due <= now || due.is_nan() {
            due = now + TICK;
        }
        let due = due.min(configs[i].max_duration_s);
        heap.schedule_at_s(due, i as u64, 0, due);
    };
    let mut heap: EventHeap<f64> = EventHeap::new(FARM_SALT);
    for (i, s) in sessions.iter_mut().enumerate() {
        arm(&mut heap, i, s);
    }
    while let Some(wake) = heap.pop() {
        let i = wake.session as usize;
        let s = &mut sessions[i];
        if s.is_done() || s.time() >= configs[i].max_duration_s {
            continue;
        }
        counts.dispatches += 1;
        let logged = s.log().len();
        let span = tracer.open("core.step_to", first_group + i as u64, Some(round));
        s.step_to(wake.event);
        tracer.close(span);
        busy_us[i] += tracer.micros(span);
        let framed = s.log().entries()[logged..]
            .iter()
            .any(|(_, e)| matches!(e, LogEntry::Recognized(_)));
        let name = match (framed, configs[i].cohort.is_some()) {
            (false, _) => "core.idle_step",
            (true, false) => "core.frame_step",
            (true, true) => "cohort.frame_step",
        };
        tracer.rename(span, name);
        if !s.is_done() && s.time() < configs[i].max_duration_s {
            arm(&mut heap, i, s);
        }
    }
    tracer.close(round);
    sessions
        .into_iter()
        .zip(busy_us)
        .map(|(s, busy)| {
            counts.sessions += 1;
            counts.drone_ticks += s.drone_ticks();
            let r = s.into_report();
            counts.frames_processed += r.frames_processed as u64;
            counts.frames_recognized += r.frames_recognized as u64;
            if let Some(link) = &r.link {
                counts.data_sent +=
                    link.drone_endpoint.data_sent + link.supervisor_endpoint.data_sent;
                counts.retransmits +=
                    link.drone_endpoint.retransmits + link.supervisor_endpoint.retransmits;
            }
            if let Some(cohort) = &r.cohort {
                counts.votes_received += cohort.votes_received;
                counts.disagreements += cohort.disagreements;
            }
            (r, busy)
        })
        .collect()
}

/// Share of the traced farm time each kind of session took, by channel and
/// by scripted answer, printed on standard error: what the farm's
/// `ops_per_s` weighs. Each entry is (kind, sessions, µs).
#[derive(Debug, Default)]
struct Shares {
    channels: Vec<(&'static str, u64, f64)>,
    answers: Vec<(&'static str, u64, f64)>,
}

fn add_share(shares: &mut Vec<(&'static str, u64, f64)>, kind: &'static str, busy_us: f64) {
    match shares.iter_mut().find(|(k, _, _)| *k == kind) {
        Some(entry) => {
            entry.1 += 1;
            entry.2 += busy_us;
        }
        None => shares.push((kind, 1, busy_us)),
    }
}

impl Shares {
    fn record(&mut self, plan: &Planned, busy_us: f64) {
        let channel = match (plan.fault, plan.channel) {
            (Some(_), _) => "known faults",
            (None, Channel::InProcess) => "in process",
            (None, Channel::LossyLink) => "lossy datalink",
            (None, Channel::SideCohort) => "side cohort",
            (None, Channel::DeadAngleCohort) => "dead-angle cohort",
        };
        let answer = match (plan.fault, plan.answer) {
            (Some(_), _) => "known faults",
            (None, Some(Answer::Yes)) => "Yes",
            (None, Some(Answer::No)) => "No",
            (None, Some(Answer::WaveOff)) => "wave-off",
            (None, Some(Answer::Silent)) => "silent",
            (None, None) => "unscripted",
        };
        add_share(&mut self.channels, channel, busy_us);
        add_share(&mut self.answers, answer, busy_us);
    }

    fn print(&self) {
        let total: f64 = self.channels.iter().map(|(_, _, us)| us).sum();
        for (by, shares) in [("channel", &self.channels), ("answer", &self.answers)] {
            for (kind, n, us) in shares {
                eprintln!(
                    "farm time share by {by}, {kind}: {:.3} over {n} sessions ({:.0} us each)",
                    us / total,
                    us / *n as f64
                );
            }
        }
    }
}

/// The poses farm sessions show, seen from the contact geometry: neutral,
/// the three signs exactly and jittered at each role's magnitude, and the
/// wave-off through one period.
fn contact_frames(seed: u64) -> Vec<(Pose, hdc_raster::GrayImage)> {
    let view = ViewSpec::paper_default(0.0, 4.0, 3.0);
    let camera = view.camera();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0417AC7);
    let mut poses = vec![Pose::neutral()];
    for sign in MarshallingSign::ALL {
        poses.push(Pose::for_sign(sign));
        for jitter in [0.03, 0.06, 0.12] {
            for _ in 0..2 {
                poses.push(Pose::for_sign(sign).jittered(jitter, &mut rng));
            }
        }
    }
    poses.extend((0..8).map(|k| Pose::wave_off_phase(f64::from(k) / 8.0)));
    poses
        .into_iter()
        .map(|p| (p, render_signaller(&view.signaller(p), &camera)))
        .collect()
}

/// The session's wave-off detector settings.
fn session_dynamic() -> DynamicRecognizer {
    DynamicRecognizer::new(DynamicConfig {
        window_s: 6.0,
        min_cycles: 2,
        min_amplitude: 0.12,
        static_max_sd: 0.03,
        min_frames: 6,
    })
}

fn run_traced(cfg: &RunConfig, first: Vec<Planned>, tracer: &mut Tracer) -> RunResult {
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut shares = Shares::default();
    let mut plans = first;
    let mut round = 0u64;
    let began = Instant::now();
    let mut farm_s = 0.0;
    loop {
        let configs: Vec<SessionConfig> = plans.iter().map(|p| p.config).collect();
        let first_group = round * round_len() as u64;
        let t0 = Instant::now();
        let reports = traced_farm(&configs, first_group, tracer, &mut counts);
        farm_s += t0.elapsed().as_secs_f64();
        for (plan, (report, busy_us)) in plans.iter().zip(&reports) {
            let solo = run_alone(plan.config);
            tally.record(plan, session_ok(plan, report.outcome, &solo));
            shares.record(plan, *busy_us);
        }
        round += 1;
        if began.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        plans = round_plans(cfg.seed, round);
    }
    // the traced loop's own end-to-end figure, for the tracing overhead
    eprintln!("traced farm ops_per_s: {}", counts.sessions as f64 / farm_s);
    shares.print();

    // single-layer calls at the farm's contact geometry
    let group = u64::MAX;
    for _ in 0..15 {
        let pipeline = tracer.span("vision.calibrate", group, None, || {
            let mut p = RecognitionPipeline::new(PipelineConfig::default());
            p.calibrate_from_views(&ViewSpec::paper_default(0.0, 4.0, 3.0));
            p
        });
        std::hint::black_box(pipeline);
    }
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 4.0, 3.0));
    let frames = contact_frames(cfg.seed);
    let view = ViewSpec::paper_default(0.0, 4.0, 3.0);
    let camera = view.camera();
    let mut scratch = FrameScratch::new();
    let mut dynamic = session_dynamic();
    for rep in 0..5 {
        for (k, (pose, frame)) in frames.iter().enumerate() {
            let signaller = view.signaller(*pose);
            let img = tracer.span("figure.render", group, None, || {
                render_signaller(&signaller, &camera)
            });
            std::hint::black_box(img);
            let r = tracer.span("vision.recognize", group, None, || {
                pipeline.recognize(frame)
            });
            std::hint::black_box(r);
            let r = tracer.span("vision.recognize_with", group, None, || {
                pipeline.recognize_with(&mut scratch, frame).decision
            });
            std::hint::black_box(r);
            let t = (rep * frames.len() + k) as f64 * 0.5;
            let d = tracer.span("vision.dynamic", group, None, || {
                let mask = hdc_raster::threshold::binarize(frame, 128);
                dynamic.push(t, &mask);
                dynamic.decision()
            });
            std::hint::black_box(d);
        }
    }

    let p50 = |name: &str| median(&tracer.micros_of(name));
    let per = |n: u64| n as f64 / counts.sessions as f64;
    RunResult {
        correct: tally.unexpected == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("core.session_new_us", p50("core.session_new"), "us"),
            Metric::new("vision.calibrate_us", p50("vision.calibrate"), "us"),
            Metric::new("core.frame_step_us", p50("core.frame_step"), "us"),
            Metric::new("cohort.frame_step_us", p50("cohort.frame_step"), "us"),
            Metric::new("core.idle_step_us", p50("core.idle_step"), "us"),
            Metric::new("figure.render_us", p50("figure.render"), "us"),
            Metric::new("vision.recognize_us", p50("vision.recognize"), "us"),
            Metric::new(
                "vision.recognize_with_us",
                p50("vision.recognize_with"),
                "us",
            ),
            Metric::new("vision.dynamic_us", p50("vision.dynamic"), "us"),
            Metric::new("core.dispatches", per(counts.dispatches), "count/session"),
            Metric::new("drone.ticks", per(counts.drone_ticks), "count/session"),
            Metric::new(
                "core.frames_processed",
                per(counts.frames_processed),
                "count/session",
            ),
            Metric::new(
                "core.frames_recognized",
                per(counts.frames_recognized),
                "count/session",
            ),
            Metric::new("link.data_sent", per(counts.data_sent), "count/session"),
            Metric::new("link.retransmits", per(counts.retransmits), "count/session"),
            Metric::new(
                "cohort.votes_received",
                per(counts.votes_received),
                "count/session",
            ),
            Metric::new(
                "cohort.disagreements",
                per(counts.disagreements),
                "count/session",
            ),
        ],
    }
}

/// Runs one known-fault session alone and prints its outcome and log.
pub fn replay_case(name: &str) -> Result<(), String> {
    let case = KNOWN_FAULTS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown session {name}; known: F1a F1b F2a F2b"))?;
    let report = run_alone(case.planned().config);
    for (t, entry) in report.log.entries() {
        println!("{t:8.3}  {entry}");
    }
    println!(
        "{name} ({:?}): consenting human, intended Granted, ended {:?}",
        case.fault, report.outcome
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_whole_and_seeded() {
        let a = round_plans(7, 3);
        assert_eq!(a.len(), round_len());
        let b = round_plans(7, 3);
        assert!(a.iter().zip(&b).all(|(x, y)| x.config == y.config));
        let c = round_plans(8, 3);
        assert!(a.iter().zip(&c).any(|(x, y)| x.config != y.config));
        // the known-fault sessions do not depend on the seed
        let tail = |p: &[Planned]| -> Vec<SessionConfig> {
            p[p.len() - KNOWN_FAULTS.len()..]
                .iter()
                .map(|p| p.config)
                .collect()
        };
        assert_eq!(tail(&a), tail(&c));
    }

    /// A clean round fails exactly its known-fault sessions, and a flipped
    /// script intent is counted as failed.
    #[test]
    fn checks_catch_a_flipped_intent_and_pass_a_clean_round() {
        let plans = round_plans(11, 0);
        let configs: Vec<SessionConfig> = plans.iter().map(|p| p.config).collect();
        let stats = run_session_farm(&configs, ScheduleMode::EventDriven, FARM_SALT);
        let mut tally = Tally::default();
        let mut flipped = Tally::default();
        for (plan, &outcome) in plans.iter().zip(&stats.outcomes) {
            let solo = run_alone(plan.config);
            let ok = session_ok(plan, outcome, &solo);
            assert_eq!(
                ok,
                plan.fault.is_none(),
                "session {plan:?} ended {outcome:?}"
            );
            tally.record(plan, ok);
            let mut wrong = *plan;
            if let Some(intended) = plan.intended {
                wrong.intended = Some(if intended == SessionOutcome::Granted {
                    SessionOutcome::Denied
                } else {
                    SessionOutcome::Granted
                });
            }
            flipped.record(&wrong, session_ok(&wrong, outcome, &solo));
        }
        assert_eq!(tally.failed, KNOWN_FAULTS.len() as u64);
        assert_eq!(tally.unexpected, 0);
        let scripted_clean = plans
            .iter()
            .filter(|p| p.intended.is_some() && p.fault.is_none())
            .count() as u64;
        assert_eq!(flipped.unexpected, scripted_clean);
    }

    /// The traced loop is a copy of `run_session_farm`'s: on one round both
    /// reach the same outcomes with the same dispatches and drone ticks.
    #[test]
    fn traced_loop_matches_the_farm() {
        let plans = round_plans(5, 0);
        let configs: Vec<SessionConfig> = plans.iter().map(|p| p.config).collect();
        let stats = run_session_farm(&configs, ScheduleMode::EventDriven, FARM_SALT);
        let mut tracer = Tracer::new();
        let mut counts = Counts::default();
        let traced = traced_farm(&configs, 0, &mut tracer, &mut counts);
        let outcomes: Vec<SessionOutcome> = traced.iter().map(|(r, _)| r.outcome).collect();
        assert_eq!(outcomes, stats.outcomes);
        assert_eq!(counts.dispatches, stats.events_dispatched);
        assert_eq!(counts.drone_ticks, stats.total_drone_ticks);
    }

    /// A session whose datalink lease expired fails the check, whatever its
    /// outcome.
    #[test]
    fn a_lease_expiry_is_caught() {
        let plan = *round_plans(11, 0)
            .iter()
            .find(|p| p.channel == Channel::LossyLink && p.answer == Some(Answer::Silent))
            .expect("a silent lossy-link session");
        let mut solo = run_alone(plan.config);
        assert!(session_ok(&plan, solo.outcome, &solo));
        let link = solo.link.as_mut().expect("a datalink session");
        link.drone_lease_expired = true;
        assert!(!session_ok(&plan, solo.outcome, &solo));
    }

    #[test]
    fn a_missing_enter_area_is_caught() {
        let plan = round_plans(11, 0)[0]; // in-process Yes
        let mut solo = run_alone(plan.config);
        assert_eq!(solo.outcome, SessionOutcome::Granted);
        assert!(session_ok(&plan, solo.outcome, &solo));
        let kept: Vec<_> = solo
            .log
            .entries()
            .iter()
            .filter(|(_, e)| !matches!(e, LogEntry::Action(ProtocolAction::EnterArea)))
            .cloned()
            .collect();
        solo.log = hdc_core::EventLog::new();
        for (t, e) in kept {
            solo.log.push(t, e);
        }
        assert!(!session_ok(&plan, SessionOutcome::Granted, &solo));
    }
}
