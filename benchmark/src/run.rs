//! One run of one workload: set-up, a closed loop of operations with one
//! client, and the metrics folded from them.
//!
//! An untraced run (`--trace 0`) sets up several times, reports the
//! median as `setup_s`, then runs operations back to back for the timed
//! window and reports the end-to-end metrics. A traced run (`--trace 1`)
//! sets up once, alternates untraced and traced operations — their
//! goodput ratio is the tracing overhead — runs the isolated probes and
//! reports the per-layer metrics.

use std::time::{Duration, Instant};

use ltnc_scheme::SchemeKind;

use crate::chain::ChainWorkload;
use crate::fetch::FetchWorkload;
use crate::procstat::Usage;
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, Tail};
use crate::swarm::{Shape, SwarmWorkload};
use crate::trace::Trace;
use crate::workload::{Inputs, Metrics, OpOutcome, Samples, Workload};
use crate::{chain, fetch, probes, swarm};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Share of a traced run's `--seconds` spent on operations; the rest is
/// for the probes.
const TRACED_OPS_SHARE: f64 = 0.65;
/// Warm-up operations draw their inputs from indices no timed operation
/// reaches.
const WARMUP_BASE: u64 = 1 << 32;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the timed window.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
    /// Run exactly this many timed operations instead of a timed window.
    pub ops: Option<u64>,
    /// `--quick`: one set-up with one warm-up, two operations unless
    /// `ops` says otherwise, token probes.
    pub quick: bool,
    /// Test-only, see [`Inputs::corrupt_reference`].
    pub corrupt_reference: bool,
}

/// Operation counts of a run, warm-ups included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that timed out, did not converge or were not bit-exact.
    pub failed: u64,
    /// Operations in which a receiver delivered bytes other than the
    /// generated object.
    pub wrong_bytes: u64,
}

impl Tally {
    fn record(&mut self, outcome: &OpOutcome) {
        self.attempted += 1;
        self.failed += u64::from(!outcome.ok);
        self.wrong_bytes += u64::from(outcome.wrong_bytes);
    }
}

/// What a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// How many operations ran and how they ended.
    pub tally: Tally,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one, in `spec` order.
    pub metrics: Metrics,
    /// The `harness.*` metrics, also of an untraced run: the `all` and
    /// `check` reports print sample counts and spreads beside the figures.
    pub harness: Metrics,
    /// Wall time of every successful timed operation.
    pub op_wall_s: Vec<f64>,
    /// Spans of the traced operations, for the trace file.
    pub trace: Option<Trace>,
}

impl RunResult {
    /// Every output the program produced was bit-exact the generated
    /// input. An operation that produced nothing in time (a timeout, a
    /// swarm that did not converge) is failed, not incorrect.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.wrong_bytes == 0
    }
}

/// Sets a workload up.
fn build(name: &str, seed: u64, corrupt_reference: bool) -> Result<Box<dyn Workload>, String> {
    let inputs = |key| Inputs { seed, key, corrupt_reference };
    Ok(match name {
        "chain_ltnc_k2048" => Box::new(ChainWorkload::new(SchemeKind::Ltnc, inputs("chain_k2048"))),
        "chain_rlnc_k2048" => Box::new(ChainWorkload::new(SchemeKind::Rlnc, inputs("chain_k2048"))),
        "line5_clean_16k" => {
            Box::new(SwarmWorkload::new(Shape::Line5Clean, inputs("line5_clean_16k")))
        }
        "kreg200_loss5_16k" => {
            Box::new(SwarmWorkload::new(Shape::Kreg200Loss5, inputs("kreg200_loss5_16k")))
        }
        "fetch_striped2_4m" => Box::new(FetchWorkload::new(inputs("fetch_striped2_4m"))?),
        other => return Err(format!("no set-up for workload {other:?}")),
    })
}

/// Sets up and runs the warm-up operations of set-up number `rep`.
fn set_up(
    config: &RunConfig,
    spec: &WorkloadSpec,
    rep: u64,
    tally: &mut Tally,
) -> Result<Box<dyn Workload>, String> {
    let mut workload = build(spec.name, config.seed, config.corrupt_reference)?;
    let warmup_ops = if config.quick { 1 } else { spec.warmup_ops };
    let mut untraced = Trace::new(false);
    for warmup in 0..warmup_ops {
        tally.record(&workload.op(WARMUP_BASE + rep * warmup_ops + warmup, &mut untraced));
    }
    Ok(workload)
}

/// One successful operation of a timed window.
#[derive(Clone, Copy)]
struct OpSample {
    wall_s: f64,
    delivered_bytes: u64,
    wire_bytes: u64,
}

/// The successful operations of a timed window.
///
/// The end-to-end figures are means over the operations left after
/// trimming a tenth at each end by wall time. A plain mean would report
/// whether one of the LTNC chain's rare ten-times-slower operations fell
/// into the window; a median would flip between the line's two humps
/// (an operation either waits out a 250 ms pending TTL or does not).
#[derive(Default)]
struct Window(Vec<OpSample>);

impl Window {
    fn record(&mut self, outcome: &OpOutcome) {
        if outcome.ok {
            self.0.push(OpSample {
                wall_s: outcome.wall_s,
                delivered_bytes: outcome.delivered_bytes,
                wire_bytes: outcome.wire_bytes,
            });
        }
    }

    fn wall_s(&self) -> Vec<f64> {
        self.0.iter().map(|op| op.wall_s).collect()
    }

    /// (wall seconds, MB delivered, bytes on the wire) summed over `ops`.
    fn sums(ops: &[OpSample]) -> (f64, f64, f64) {
        ops.iter().fold((0.0, 0.0, 0.0), |(wall_s, mb, wire), op| {
            (wall_s + op.wall_s, mb + op.delivered_bytes as f64 * 1e-6, wire + op.wire_bytes as f64)
        })
    }

    fn trimmed(&self) -> Vec<OpSample> {
        stats::trimmed(&self.0, |op| op.wall_s)
    }

    /// MB delivered per second of operation wall time over the trimmed
    /// operations; 0 with no successful operation.
    fn goodput_mbps(&self) -> f64 {
        let (wall_s, mb, _) = Window::sums(&self.trimmed());
        if wall_s == 0.0 {
            0.0
        } else {
            mb / wall_s
        }
    }
}

/// Runs operations `0, 1, …` back to back until the window closes. In a
/// traced run the odd ones are traced and the even ones are not.
fn timed_ops(
    workload: &mut dyn Workload,
    config: &RunConfig,
    seconds: f64,
    trace: &mut Trace,
    mut each: impl FnMut(u64, &OpOutcome),
) {
    let ops = config.ops.or(config.quick.then_some(2));
    let started = Instant::now();
    let mut op = 0;
    while ops.map_or(op == 0 || started.elapsed().as_secs_f64() < seconds, |ops| op < ops) {
        if config.traced {
            trace.set_enabled(op % 2 == 1);
        }
        let outcome = workload.op(op, trace);
        each(op, &outcome);
        op += 1;
    }
}

/// The `harness.*` metrics: what the sample of operations looked like.
/// A tail percentile the sample cannot support reads 0.
fn harness_metrics(window: &Window, tally: &Tally) -> Metrics {
    let wall_s = window.wall_s();
    let tail = stats::tail(&wall_s).unwrap_or(Tail { percentile: 0.0, value: 0.0 });
    let (total_s, total_mb, _) = Window::sums(&window.0);
    vec![
        ("harness.ops", wall_s.len() as f64),
        ("harness.op_p50_s", stats::median(&wall_s).unwrap_or(0.0)),
        ("harness.op_iqr_s", stats::iqr(&wall_s).unwrap_or(0.0)),
        ("harness.op_tail_s", tail.value),
        ("harness.op_tail_percentile", tail.percentile),
        // Untrimmed: the figure that pays for the tail.
        ("harness.goodput_mean_MBps", if total_s == 0.0 { 0.0 } else { total_mb / total_s }),
        ("harness.fail_ratio", tally.failed as f64 / tally.attempted.max(1) as f64),
    ]
}

fn run_untraced(
    config: &RunConfig,
    spec: &WorkloadSpec,
    process_start: Instant,
) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let reps = if config.quick { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut workload = None;
    for rep in 0..reps {
        // Tear the previous set-up down first: one at a time, as in a
        // run that sets up once.
        drop(workload.take());
        // The first set-up is timed from process start, so that start-up
        // work a change adds before `main` gets here is counted.
        let started = if rep == 0 { process_start } else { Instant::now() };
        workload = Some(set_up(config, spec, rep as u64, &mut tally)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");

    let mut window = Window::default();
    let mut trace = Trace::new(false);
    timed_ops(workload.as_mut(), config, config.seconds, &mut trace, |_, outcome| {
        tally.record(outcome);
        window.record(outcome);
    });
    drop(workload);

    let kept = window.trimmed();
    let (wall_s, mb, wire_bytes) = Window::sums(&kept);
    let per = |sum: f64, of: f64| if of == 0.0 { 0.0 } else { sum / of };
    let metrics = vec![
        ("goodput_MBps", per(mb, wall_s)),
        ("op_time_s", per(wall_s, kept.len() as f64)),
        ("wire_overhead", per(wire_bytes, mb * 1e6)),
        ("peak_rss_MB", Usage::now().peak_rss_mb),
        ("setup_s", stats::median(&setups).expect("at least one set-up ran")),
    ];
    debug_assert!(metrics.iter().map(|m| m.0).eq(END_TO_END.iter().map(|m| m.name)));
    Ok(RunResult {
        tally,
        metrics,
        harness: harness_metrics(&window, &tally),
        op_wall_s: window.wall_s(),
        trace: None,
    })
}

fn run_traced(config: &RunConfig, spec: &WorkloadSpec) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut workload = set_up(config, spec, 0, &mut tally)?;
    samples.extend(&workload.setup_layer());

    let (mut untraced, mut traced, mut all) =
        (Window::default(), Window::default(), Window::default());
    let mut trace = Trace::new(false);
    let usage_before = Usage::now();
    let seconds = config.seconds * TRACED_OPS_SHARE;
    timed_ops(workload.as_mut(), config, seconds, &mut trace, |op, outcome| {
        tally.record(outcome);
        all.record(outcome);
        (if op % 2 == 1 { &mut traced } else { &mut untraced }).record(outcome);
        if outcome.ok {
            samples.extend(&outcome.layer);
        }
    });
    let used = Usage::now().since(&usage_before);
    drop(workload);

    let mut metrics = Metrics::new();
    chain::metrics(&samples, &mut metrics);
    let probe_budget = if config.quick {
        Duration::from_millis(2)
    } else {
        Duration::from_secs_f64(config.seconds * (1.0 - TRACED_OPS_SHARE) / 24.0)
    };
    probes::run(config.seed, probe_budget, &mut metrics);
    let cpu_s = used.user_s + used.sys_s;
    swarm::metrics(&samples, cpu_s, &mut metrics);
    fetch::metrics(&samples, &mut metrics);
    let (_, delivered_mb, _) = Window::sums(&all.0);
    metrics.extend([
        ("proc.cpu_s_per_MB", if delivered_mb == 0.0 { 0.0 } else { cpu_s / delivered_mb }),
        ("proc.user_s", used.user_s),
        ("proc.sys_s", used.sys_s),
        ("proc.vol_ctx_switches", used.vol_ctx_switches as f64),
    ]);
    let harness = harness_metrics(&all, &tally);
    metrics.extend(harness.iter().copied());
    let traced_goodput = traced.goodput_mbps();
    metrics.extend([
        (
            "trace.overhead_ratio",
            if traced_goodput == 0.0 { 0.0 } else { untraced.goodput_mbps() / traced_goodput },
        ),
        ("trace.spans", samples.mean("trace.spans")),
    ]);

    // Report in `spec` order, whatever order the families ran in.
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|layer| {
            let value = metrics.iter().find(|m| m.0 == layer.name).map(|m| m.1);
            (layer.name, value.unwrap_or_else(|| panic!("{} was never measured", layer.name)))
        })
        .collect();
    Ok(RunResult { tally, metrics, harness, op_wall_s: all.wall_s(), trace: Some(trace) })
}

/// Runs one workload once. `process_start` is when the process began.
///
/// # Errors
///
/// An unknown workload name, or a set-up that failed (a server that
/// could not spawn, a warm fetch that was not bit-exact).
pub fn run(config: &RunConfig, process_start: Instant) -> Result<RunResult, String> {
    let spec = WORKLOADS
        .iter()
        .find(|spec| spec.name == config.workload)
        .ok_or_else(|| format!("unknown workload {:?}", config.workload))?;
    if config.traced {
        run_traced(config, spec)
    } else {
        run_untraced(config, spec, process_start)
    }
}
