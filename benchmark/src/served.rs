//! `served_mix`: an open loop through `cublastp_serve::Server`.
//!
//! Interactive full-length queries (with a deadline) and bulk short reads
//! arrive on a fixed inter-arrival schedule at two **absolute** rates,
//! frozen as constants when the benchmark was built — never re-derived
//! from capacity measured in the same run, so a faster commit is not
//! handed more load and two commits can be compared. Latency is timed
//! from when each request was *due*, so a stall of the generator or of
//! the server counts against every request it delays; how late the
//! generator itself ran is reported as `loadgen.lag_ms_p99`.
//!
//! The schedule repeats itself every [`period`] arrivals — the same
//! query, behind the same predecessors — so the `r_mid` step is dozens of
//! repetitions of one short unit, like the passes of a batch workload, and
//! the end-to-end metrics are estimated the same way: every *slot* of the
//! period at its best repetition ([`best_per_slot`]). A request that was
//! refused or ended by its deadline counts as slower than any that was
//! served. The distributions of the whole step as they were are reported
//! per layer.
//!
//! One generator thread submits and polls (`ResponseHandle::try_event`);
//! the server runs one worker, which adds its own overlap thread — at
//! most `nproc` busy threads on the two-core sandbox.

use crate::batch::{reference_keys, IdentityKey, RunConfig, RunResult, SETUPS_UP_FRONT};
use crate::procfs;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Inputs, WorkloadDef};
use blast_core::SearchParams;
use cublastp::{CuBlastpConfig, SearchError};
use cublastp_db::DbImage;
use cublastp_serve::{Event, Priority, Request, ResponseHandle, ServeConfig, Server};
use gpu_sim::DeviceConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Offered load of the first step, requests/s: ≈ 0.6 × what the seed
/// commit's worker serves per second it is busy under this very load on
/// the reference sandbox (`server.service_rate_rps`: 195–210, 170–250 over
/// the sandbox's moods; see README).
pub const R_MID_RPS: f64 = 120.0;
/// Offered load of the second step, requests/s: ≈ 1.7 × that rate.
pub const R_HIGH_RPS: f64 = 340.0;
/// Every n-th arrival is interactive, the rest are bulk.
pub const INTERACTIVE_EVERY: usize = 8;
/// Latency limits of `server.goodput_rps`, frozen. Interactive: 3 × the
/// seed commit's unloaded median. Bulk: about three full 16-deep class
/// queues of unloaded bulk service — 3 × the unloaded median (8 ms) is
/// less than the wait behind one, so every bulk request would miss it
/// under overload and goodput would be pinned at the interactive rate.
pub const INTERACTIVE_LIMIT_MS: f64 = 30.0;
pub const BULK_LIMIT_MS: f64 = 150.0;
/// Deadline carried by interactive requests (10 × unloaded median).
pub const INTERACTIVE_DEADLINE_MS: u64 = 100;
/// What an offered request that was not served — refused, or ended by its
/// deadline — counts as in its class's latency distribution: it missed
/// every latency limit, so it is slower than any served request. An
/// interactive client gives up at its deadline; a bulk client is counted
/// at the bulk latency limit.
pub const INTERACTIVE_MISS_MS: f64 = INTERACTIVE_DEADLINE_MS as f64;
pub const BULK_MISS_MS: f64 = BULK_LIMIT_MS;
/// Share of `--seconds` spent offering each rate; the rest is drain time.
pub const MID_SHARE: f64 = 0.72;
const HIGH_SHARE: f64 = 0.20;
/// An admitted request with no terminal event this long after the last
/// arrival is counted as lost.
const LOST_AFTER: Duration = Duration::from_secs(20);

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of its step.
    pub due: Duration,
    pub class: Priority,
    /// Index into the class's query pool.
    pub query: usize,
}

/// Fixed inter-arrival schedule at `rate` requests/s for `seconds`:
/// arrival `i` is due at `i / rate`, whatever happened to earlier ones.
pub fn schedule(rate: f64, seconds: f64, pools: (usize, usize)) -> Vec<Arrival> {
    let n = (rate * seconds).floor() as usize;
    let (mut next_i, mut next_b) = (0usize, 0usize);
    (0..n)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / rate);
            if i % INTERACTIVE_EVERY == INTERACTIVE_EVERY / 2 {
                next_i += 1;
                Arrival {
                    due,
                    class: Priority::Interactive,
                    query: (next_i - 1) % pools.0,
                }
            } else {
                next_b += 1;
                Arrival {
                    due,
                    class: Priority::Bulk,
                    query: (next_b - 1) % pools.1,
                }
            }
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Arrivals after which [`schedule`] repeats itself: every
/// [`INTERACTIVE_EVERY`] arrivals are one interactive request and the rest
/// bulk, so the interactive pool comes round every `pools.0` such groups
/// and the bulk pool every `pools.1 / gcd(pools.1, INTERACTIVE_EVERY - 1)`.
/// Arrival `i` and arrival `i + period` are the same query behind the
/// same predecessors: one *slot* of the period.
pub fn period(pools: (usize, usize)) -> usize {
    let bulk_groups = pools.1 / gcd(pools.1, INTERACTIVE_EVERY - 1);
    INTERACTIVE_EVERY * pools.0 / gcd(pools.0, bulk_groups) * bulk_groups
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Ending {
    /// Served; the report matched the reference (`identity_ok`).
    Served {
        identity_ok: bool,
        queue_wait_ms: f64,
        service_ms: f64,
        device_model_ms: f64,
    },
    /// Refused at admission (`Overloaded`).
    Refused,
    /// Admitted, then ended with `DeadlineExceeded`.
    DeadlineExceeded,
    /// Any other error, at admission or as the terminal event.
    Failed(String),
    /// Admitted and never heard of again.
    Lost,
}

/// Everything recorded about one request; times are from step start.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub arrival: Arrival,
    /// When the generator called `submit`.
    pub sent: Duration,
    /// When `submit` returned.
    pub submitted: Duration,
    pub first_block: Option<Duration>,
    pub done: Option<Duration>,
    /// Terminal events seen (must be exactly 1 for an admitted request).
    pub terminal_events: u32,
    pub ending: Ending,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Record {
    /// Latency from when the request was *due* — not from when it was
    /// sent — to its terminal event.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| ms(d.saturating_sub(self.arrival.due)))
    }

    /// How late the generator was in sending it.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.arrival.due))
    }

    pub fn served(&self) -> bool {
        matches!(self.ending, Ending::Served { .. })
    }

    /// Latency as the client counts it, ms: from due time to the answer
    /// when the request was served, its class's miss value
    /// ([`INTERACTIVE_MISS_MS`], [`BULK_MISS_MS`]) when it was refused or
    /// ended by its deadline.
    pub fn offered_latency_ms(&self) -> f64 {
        match (self.served(), self.latency_ms(), self.arrival.class) {
            (true, Some(l), _) => l,
            (_, _, Priority::Interactive) => INTERACTIVE_MISS_MS,
            (_, _, Priority::Bulk) => BULK_MISS_MS,
        }
    }

    /// Served correctly and inside its class's latency limit.
    pub fn good(&self) -> bool {
        let limit = match self.arrival.class {
            Priority::Interactive => INTERACTIVE_LIMIT_MS,
            Priority::Bulk => BULK_LIMIT_MS,
        };
        matches!(
            self.ending,
            Ending::Served {
                identity_ok: true,
                ..
            }
        ) && self.latency_ms().is_some_and(|l| l <= limit)
    }
}

/// The server under test plus what is needed to check its answers.
pub struct Service {
    pub server: Server,
    pub inputs: Inputs,
    pub reference: [Vec<IdentityKey>; 2],
    /// The `.cdb` image set-up opens (kept to set up again between steps).
    pub image: PathBuf,
}

/// Set-ups after the warm-up and after each step (see `batch`).
const SETUPS_PER_STEP: usize = 30;

fn class_index(c: Priority) -> usize {
    match c {
        Priority::Interactive => 0,
        Priority::Bulk => 1,
    }
}

/// `workers: 1`, `shards: 1`, every other `ServeConfig` field default
/// (one worker cannot be reserved, so the reserved lane is 0).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        reserved_interactive_workers: 0,
        shards: 1,
        ..ServeConfig::default()
    }
}

pub fn search_config(inputs: &Inputs) -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: inputs.block_size,
        ..CuBlastpConfig::default()
    }
}

/// One set-up: open the `.cdb` image and bring a server up on it.
pub fn set_up(rec: &mut Recorder, inputs: &Inputs, image: &Path) -> Result<Server, String> {
    let root = rec.enter("setup", "bench", 0);
    let s = rec.enter("image_open", "cublastp-db", 0);
    let img = DbImage::open(image).map_err(|e| format!("open image: {e}"))?;
    rec.exit(s);
    let s = rec.enter("server_new", "cublastp-serve", 0);
    let server = Server::from_image(
        &img,
        SearchParams::default(),
        search_config(inputs),
        DeviceConfig::k20c(),
        serve_config(),
    )
    .map_err(|e| format!("start server: {e}"))?;
    rec.exit(s);
    rec.exit(root);
    Ok(server)
}

struct Pending {
    record: usize,
    handle: ResponseHandle,
}

impl Service {
    /// A few more set-ups (a second server next to the idle measured
    /// one), timed into `result.setup_s` and shut down again.
    fn timed_set_ups(&self, rec: &mut Recorder, result: &mut RunResult) {
        for _ in 0..SETUPS_PER_STEP {
            let t0 = Instant::now();
            match set_up(rec, &self.inputs, &self.image) {
                Ok(_server) => result.setup_s.push(t0.elapsed().as_secs_f64()),
                Err(e) => result.fail(format!("served_mix: set-up failed: {e}")),
            }
        }
    }

    /// Remove the image generation wrote to disk.
    pub fn clean_up(&self) {
        if let Some(dir) = self.image.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn request(&self, a: &Arrival) -> Request {
        match a.class {
            Priority::Interactive => {
                Request::interactive(self.inputs.queries[a.query].clone(), "interactive")
                    .with_deadline(Duration::from_millis(INTERACTIVE_DEADLINE_MS))
            }
            Priority::Bulk => Request::bulk(self.inputs.bulk_queries[a.query].clone(), "bulk"),
        }
    }

    /// Drain whatever events `p` has ready into its record.
    fn poll(&self, p: &Pending, records: &mut [Record], t0: Instant) {
        let rec = &mut records[p.record];
        while let Some(ev) = p.handle.try_event() {
            let now = t0.elapsed();
            match ev {
                Event::Block { .. } => {
                    rec.first_block.get_or_insert(now);
                }
                Event::Done(res) => {
                    rec.terminal_events += 1;
                    if rec.terminal_events > 1 {
                        continue;
                    }
                    rec.done = Some(now);
                    rec.ending = match *res {
                        Ok(r) => Ending::Served {
                            identity_ok: r.result.report.identity_key()
                                == self.reference[class_index(rec.arrival.class)]
                                    [rec.arrival.query],
                            queue_wait_ms: r.queue_wait_ms,
                            service_ms: r.service_ms,
                            device_model_ms: r.result.timing.gpu_ms
                                + r.result.timing.h2d_ms
                                + r.result.timing.d2h_ms,
                        },
                        Err(SearchError::DeadlineExceeded { .. }) => Ending::DeadlineExceeded,
                        Err(e) => Ending::Failed(e.to_string()),
                    };
                }
            }
        }
    }

    /// Offer `arrivals` open loop and wait for every admitted request to
    /// end. The process CPU clock is read before the first arrival of
    /// every group of [`INTERACTIVE_EVERY`] that finds nothing in flight,
    /// and after the last request has ended.
    pub fn run_step(&self, arrivals: &[Arrival]) -> Step {
        let mut records: Vec<Record> = Vec::with_capacity(arrivals.len());
        let mut pending: Vec<Pending> = Vec::new();
        let mut level_max = 0.0f64;
        let mut cpu = Vec::new();
        let t0 = Instant::now();
        let mut next = 0usize;
        let mut last_progress = Instant::now();
        while next < arrivals.len() || !pending.is_empty() {
            let now = t0.elapsed();
            while next < arrivals.len() && arrivals[next].due <= now {
                let a = arrivals[next];
                // With nothing in flight, the CPU time used until now is
                // that of the arrivals before this one.
                if next % INTERACTIVE_EVERY == 0 && pending.is_empty() {
                    cpu.push((next, procfs::process_cpu_ms()));
                }
                next += 1;
                let sent = t0.elapsed();
                let outcome = self.server.submit(self.request(&a));
                let submitted = t0.elapsed();
                let ending = match &outcome {
                    Ok(_) => Ending::Lost,
                    Err(SearchError::Overloaded { .. }) => Ending::Refused,
                    Err(e) => Ending::Failed(e.to_string()),
                };
                records.push(Record {
                    arrival: a,
                    sent,
                    submitted,
                    first_block: None,
                    done: None,
                    terminal_events: 0,
                    ending,
                });
                if let Ok(handle) = outcome {
                    pending.push(Pending {
                        record: records.len() - 1,
                        handle,
                    });
                }
                level_max = level_max.max(self.server.level() as u8 as f64);
                last_progress = Instant::now();
            }
            let before = pending.len();
            pending.retain(|p| {
                self.poll(p, &mut records, t0);
                records[p.record].terminal_events == 0
            });
            if pending.len() != before {
                last_progress = Instant::now();
            }
            if next == arrivals.len() && last_progress.elapsed() > LOST_AFTER {
                break; // whatever is still pending stays `Lost`
            }
            // Sleep until the next arrival is due, but never long: the
            // generator also has to notice completions promptly.
            let until_due = arrivals.get(next).map_or(Duration::from_micros(200), |a| {
                a.due.saturating_sub(t0.elapsed())
            });
            std::thread::sleep(
                until_due.clamp(Duration::from_micros(50), Duration::from_micros(200)),
            );
        }
        cpu.push((next, procfs::process_cpu_ms()));
        Step {
            records,
            level_max,
            cpu,
        }
    }
}

/// What one step of the open loop recorded.
pub struct Step {
    /// One record per arrival, in arrival order.
    pub records: Vec<Record>,
    /// Highest degradation level the server reported while the step ran.
    pub level_max: f64,
    /// `(arrivals before the reading, process CPU ms)`, read by the
    /// generator at moments when no request was in flight.
    pub cpu: Vec<(usize, f64)>,
}

/// Latency (from due time, ms) of every *offered* request of `class`, in
/// arrival order ([`Record::offered_latency_ms`]). Queueing delay, shedding
/// and deadline misses all move this distribution.
pub fn offered_latencies(records: &[Record], class: Priority) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.arrival.class == class)
        .map(Record::offered_latency_ms)
        .collect()
}

/// The lowest `f` of every slot of the schedule's period over the slot's
/// repetitions in `records` (one record per arrival, in arrival order);
/// `None` for a slot `f` had no value for.
///
/// The sandbox's speed moves by up to 2 × within seconds and stays low
/// for minutes at a time, with quiet moments tens of milliseconds long
/// (see `batch`): over ten runs, medians over whole seconds of the step
/// spread by 27 % while the batch workloads' best-of estimates, taken in
/// the same hour, spread by 5–8 %. What one slot's
/// request sees does not depend on the sandbox's mood — the server is
/// handed the same query with the same requests ahead of it in every
/// period — so its repetitions are measurements of one number, and the
/// best of them is the one the sandbox left alone. What the *load* does to
/// a request is in every repetition, the best one too: a bulk read that
/// arrives behind an interactive query waits for it in every period, and a
/// request the server sheds at this rate counts at its miss value in
/// every period.
pub fn best_per_slot(
    records: &[Record],
    period: usize,
    f: impl Fn(&Record) -> Option<f64>,
) -> Vec<Option<f64>> {
    let mut best: Vec<Option<f64>> = vec![None; period.min(records.len())];
    for (i, r) in records.iter().enumerate() {
        if let Some(x) = f(r) {
            keep_min(&mut best[i % period], x);
        }
    }
    best
}

fn keep_min(best: &mut Option<f64>, x: f64) {
    *best = Some(best.map_or(x, |y| y.min(x)));
}

/// Requests served per second the worker was busy with them
/// (served ÷ Σ `service_ms`): what the server can sustain on this mix.
pub fn service_rate_rps(records: &[Record]) -> f64 {
    let service_ms = served_field(records, |_, s| s);
    service_ms.len() as f64 * 1e3 / service_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE)
}

/// Modelled device time per offered request, ms: every arrival is billed
/// what the model charged its query, summed in arrival order. The model
/// is a pure function of the query, so the result does not depend on
/// which requests the live server happened to refuse — it is bit-equal
/// between runs at one seed, like the batch workloads'. `Err` when a
/// query of either pool was never served, or when two requests for one
/// query were charged differently.
pub fn offered_model_ms(records: &[Record], pools: (usize, usize)) -> Result<f64, String> {
    let mut model = [vec![None; pools.0], vec![None; pools.1]];
    for r in records {
        if let Ending::Served {
            device_model_ms, ..
        } = r.ending
        {
            let slot = &mut model[class_index(r.arrival.class)][r.arrival.query];
            match *slot {
                None => *slot = Some(device_model_ms),
                Some(m) if m.to_bits() == device_model_ms.to_bits() => {}
                Some(m) => {
                    return Err(format!(
                        "{:?} query {} was modelled at {m} and at {device_model_ms} ms",
                        r.arrival.class, r.arrival.query
                    ))
                }
            }
        }
    }
    let mut sum = 0.0;
    for r in records {
        sum += model[class_index(r.arrival.class)][r.arrival.query].ok_or_else(|| {
            format!(
                "{:?} query {} was never served",
                r.arrival.class, r.arrival.query
            )
        })?;
    }
    Ok(sum / records.len().max(1) as f64)
}

/// The stretches between consecutive CPU readings: `(index of the first
/// arrival, the records of the stretch, CPU ms the process used in it)`.
/// Nothing was in flight at either end, so the CPU time is that of these
/// requests (and of the generator offering them).
fn cpu_windows<'a>(
    cpu: &'a [(usize, f64)],
    records: &'a [Record],
) -> impl Iterator<Item = (usize, &'a [Record], f64)> {
    cpu.windows(2)
        .map(move |w| (w[0].0, &records[w[0].0..w[1].0], w[1].1 - w[0].1))
}

/// CPU-seconds of the process per second the worker was busy: Δcpu ÷ Σ
/// `service_ms` of every stretch between two CPU readings; the median
/// over the stretches that served something, 0 when none did. A slower
/// sandbox stretches both times, so the ratio holds.
pub fn cpu_per_busy_second(cpu: &[(usize, f64)], records: &[Record]) -> f64 {
    let ratios: Vec<f64> = cpu_windows(cpu, records)
        .filter_map(|(_, of_window, cpu_ms)| {
            let busy_ms: f64 = served_field(of_window, |_, s| s).iter().sum();
            (busy_ms > 0.0).then(|| cpu_ms / busy_ms)
        })
        .collect();
    stats::median(&ratios)
}

/// CPU time per served request, ms: every group of [`INTERACTIVE_EVERY`]
/// arrivals of the schedule's period at the cheapest of its repetitions
/// (a repetition counts when the CPU clock was read right before and
/// right after it: Δcpu ÷ requests served), averaged over the groups — a
/// 67 ms unit at `r_mid`, timed some fifty times, where a whole period at
/// its cheapest spread by 11–15 % between runs. 0 without a single such
/// repetition.
pub fn best_cpu_ms_per_request(cpu: &[(usize, f64)], records: &[Record], period: usize) -> f64 {
    let mut best: Vec<Option<f64>> = vec![None; period / INTERACTIVE_EVERY];
    for (first, of_window, cpu_ms) in cpu_windows(cpu, records) {
        let served = of_window.iter().filter(|r| r.served()).count();
        if of_window.len() == INTERACTIVE_EVERY && served > 0 {
            keep_min(
                &mut best[first % period / INTERACTIVE_EVERY],
                cpu_ms / served as f64,
            );
        }
    }
    let best: Vec<f64> = best.into_iter().flatten().collect();
    best.iter().sum::<f64>() / best.len().max(1) as f64
}

/// Count one step's requests into `result`. A lost request, a second
/// terminal event, a wrong report or an untyped error is a failed
/// operation. A typed refusal or deadline miss is the server's designed
/// answer to a backlog: it misses every latency limit (see
/// [`Record::offered_latency_ms`]) and is a failed operation only where
/// the server keeps giving it at `r_mid` ([`check_slots_served`]).
pub fn check_step(records: &[Record], result: &mut RunResult) {
    for (i, r) in records.iter().enumerate() {
        result.attempted += 1;
        let what = match &r.ending {
            Ending::Served {
                identity_ok: false, ..
            } => "report differs from search_sequential".to_string(),
            Ending::Served { .. } if r.terminal_events != 1 => {
                format!("{} terminal events", r.terminal_events)
            }
            Ending::Served { .. } | Ending::Refused | Ending::DeadlineExceeded => continue,
            Ending::Failed(e) => format!("failed: {e}"),
            Ending::Lost => "lost (admitted, no terminal event)".to_string(),
        };
        result.fail(format!(
            "served_mix: request {i} ({:?}) {what}",
            r.arrival.class
        ));
    }
}

/// The `r_mid` gate: the server can serve this rate, so a slot of the
/// period whose request was refused or ended by its deadline in more than
/// half of its repetitions is being shed by the server, not by a stall of
/// the sandbox, and every one of those is a failed operation. (A stall
/// delivers its arrivals as one burst, which fills a class queue, trips
/// the admission ladder and takes a second or two to drain: that hits a
/// few repetitions of many slots. Those are reported as
/// `admission.shed_frac_r_mid` and `server.deadline_exceeded`.)
pub fn check_slots_served(records: &[Record], period: usize, result: &mut RunResult) {
    let missed = |r: &Record| matches!(r.ending, Ending::Refused | Ending::DeadlineExceeded);
    for slot in 0..period.min(records.len()) {
        let of_slot = || records.iter().skip(slot).step_by(period);
        let misses = of_slot().filter(|r| missed(r)).count();
        if 2 * misses <= of_slot().count() {
            continue;
        }
        for r in of_slot().filter(|r| missed(r)) {
            result.fail(format!(
                "served_mix: {:?} request due at {:.3} s of the r_mid step (slot {slot}, \
                 missed in {misses} repetitions): {:?}",
                r.arrival.class,
                r.arrival.due.as_secs_f64(),
                r.ending
            ));
        }
    }
}

fn latencies(records: &[Record], class: Priority) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.arrival.class == class && r.served())
        .filter_map(Record::latency_ms)
        .collect()
}

fn served_field(records: &[Record], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match r.ending {
            Ending::Served {
                queue_wait_ms,
                service_ms,
                ..
            } => Some(f(queue_wait_ms, service_ms)),
            _ => None,
        })
        .collect()
}

fn shed_frac(records: &[Record]) -> f64 {
    let refused = records
        .iter()
        .filter(|r| r.ending == Ending::Refused)
        .count();
    refused as f64 / records.len().max(1) as f64
}

/// Spans of one step, from outside the server: per request a root from
/// *due* to done, with the generator's lag, the `submit` call, and the
/// queue wait and service time the server reported as children.
fn record_spans(rec: &mut Recorder, records: &[Record], step_origin_ns: u64, first_op: u32) {
    let at = |d: Duration| step_origin_ns + d.as_nanos() as u64;
    for (i, r) in records.iter().enumerate() {
        let op = first_op + i as u32;
        let end = r.done.unwrap_or(r.submitted);
        let root = rec.add(
            "request",
            "cublastp-serve",
            op,
            None,
            at(r.arrival.due),
            at(end),
        );
        rec.add(
            "lag",
            "loadgen",
            op,
            Some(root),
            at(r.arrival.due),
            at(r.sent),
        );
        rec.add(
            "submit",
            "admission",
            op,
            Some(root),
            at(r.sent),
            at(r.submitted),
        );
        if let Ending::Served {
            queue_wait_ms,
            service_ms,
            ..
        } = r.ending
        {
            let q_end = at(r.submitted) + (queue_wait_ms * 1e6) as u64;
            rec.add(
                "queue_wait",
                "server",
                op,
                Some(root),
                at(r.submitted),
                q_end,
            );
            rec.add(
                "service",
                "server",
                op,
                Some(root),
                q_end,
                q_end + (service_ms * 1e6) as u64,
            );
        }
    }
}

/// Generate inputs, write the `.cdb`, set up, compute the references;
/// the last set-up's server is the one measured.
pub fn prepare(
    def: &'static WorkloadDef,
    cfg: &RunConfig,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<Service, String> {
    let t_gen = Instant::now();
    let inputs = workloads::generate(def, cfg.seed, cfg.smoke);
    let dir = cfg
        .out_dir
        .join(format!("tmp-{}-{}", def.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let image = dir.join("served.cdb");
    let s = rec.enter("image_build", "cublastp-db", 0);
    let summary = cublastp_db::build_to_file(&inputs.db, inputs.block_size, &image)
        .map_err(|e| format!("build image: {e}"))?;
    rec.exit(s);
    result
        .values
        .set("bio-seq.generate_s", t_gen.elapsed().as_secs_f64());
    result
        .values
        .set("cublastp-db.image_bytes", summary.bytes as f64);

    let mut server = None;
    for _ in 0..SETUPS_UP_FRONT {
        drop(server.take()); // shut the previous one down outside the timing
        let t0 = Instant::now();
        server = Some(set_up(rec, &inputs, &image)?);
        result.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let params = SearchParams::default();
    let reference = [
        reference_keys(&inputs.queries, params, &inputs.db),
        reference_keys(&inputs.bulk_queries, params, &inputs.db),
    ];
    Ok(Service {
        server: server.expect("SETUPS_UP_FRONT > 0"),
        inputs,
        reference,
        image,
    })
}

/// Run both steps and fill in every metric of the workload. The spans
/// come from outside the server, so the traced and the untraced run
/// are the same run; `trace` only decides whether spans are kept.
pub fn run(service: &Service, cfg: &RunConfig, rec: &mut Recorder, result: &mut RunResult) {
    let pools = (
        service.inputs.queries.len(),
        service.inputs.bulk_queries.len(),
    );
    let period = period(pools);
    // Warm the worker's workspace and the page cache of the image.
    let warm = service.run_step(&schedule(R_MID_RPS, 0.25, pools));
    check_step(&warm.records, result);
    service.timed_set_ups(rec, result);

    let seconds = if cfg.smoke { 1.0 } else { cfg.seconds };
    let mid_origin = rec.now_ns();
    let t_mid = Instant::now();
    let mid = service.run_step(&schedule(R_MID_RPS, seconds * MID_SHARE, pools));
    let mid_wall_s = t_mid.elapsed().as_secs_f64();
    check_step(&mid.records, result);
    service.timed_set_ups(rec, result);

    let high_origin = rec.now_ns();
    let high = service.run_step(&schedule(R_HIGH_RPS, seconds * HIGH_SHARE, pools));
    check_step(&high.records, result);
    service.timed_set_ups(rec, result);

    if cfg.trace {
        record_spans(rec, &mid.records, mid_origin, 0);
        record_spans(rec, &high.records, high_origin, mid.records.len() as u32);
    }

    // End to end: every slot of the `r_mid` schedule's period at the best
    // of its repetitions (see `best_per_slot`), like a batch workload's
    // queries over its passes, and CPU time group by group; the modelled
    // time is billed to the whole step.
    check_slots_served(&mid.records, period, result);
    let slot_latency: Vec<f64> = best_per_slot(&mid.records, period, |r| {
        (r.arrival.class == Priority::Interactive).then(|| r.offered_latency_ms())
    })
    .into_iter()
    .flatten()
    .collect();
    let slot_service = best_per_slot(&mid.records, period, |r| match r.ending {
        Ending::Served { service_ms, .. } => Some(service_ms),
        _ => None,
    });
    let interactive = offered_latencies(&mid.records, Priority::Interactive);
    let bulk = offered_latencies(&mid.records, Priority::Bulk);
    match offered_model_ms(&mid.records, pools) {
        Ok(ms) => result.values.set("device_model_ms_per_query", ms),
        Err(e) => result.fail(format!("served_mix: {e}")),
    }
    // Requests served per second the worker is busy with them. A slot
    // nobody ever got an answer in has no service time: the run fails.
    match slot_service.iter().copied().sum::<Option<f64>>() {
        Some(busy_ms) => result.values.set(
            "host_qps",
            slot_service.len() as f64 * 1e3 / busy_ms.max(f64::MIN_POSITIVE),
        ),
        None => result.fail("served_mix: a slot of the r_mid period was never served".into()),
    }
    let v = &mut result.values;
    v.set(
        "host_cpu_ms_per_query",
        best_cpu_ms_per_request(&mid.cpu, &mid.records, period),
    );
    v.set(
        "search.cpu_per_wall",
        cpu_per_busy_second(&mid.cpu, &mid.records),
    );
    v.set("latency_p50_ms", stats::median(&slot_latency));
    v.set("latency_p90_ms", stats::percentile(&slot_latency, 90.0));
    v.set("peak_rss_mib", procfs::peak_rss_mib());

    // cublastp-serve, layer by layer: the distributions as they were.
    let submit_us: Vec<f64> = mid
        .records
        .iter()
        .map(|r| ms(r.submitted.saturating_sub(r.sent)) * 1e3)
        .collect();
    let queue_wait = served_field(&mid.records, |q, _| q);
    let service_ms = served_field(&mid.records, |_, s| s);
    let first_block: Vec<f64> = mid
        .records
        .iter()
        .filter_map(|r| r.first_block.map(|b| ms(b.saturating_sub(r.arrival.due))))
        .collect();
    let lag: Vec<f64> = mid.records.iter().map(Record::lag_ms).collect();
    let good = high.records.iter().filter(|r| r.good()).count();
    let high_window_s = high.records.len() as f64 / R_HIGH_RPS;
    v.set("admission.submit_us_p50", stats::median(&submit_us));
    v.set("admission.shed_frac_r_mid", shed_frac(&mid.records));
    v.set("admission.shed_frac_r_high", shed_frac(&high.records));
    v.set("server.queue_wait_ms_p50", stats::median(&queue_wait));
    v.set(
        "server.queue_wait_ms_p99",
        stats::percentile(&queue_wait, 99.0),
    );
    v.set("server.service_ms_p50", stats::median(&service_ms));
    v.set(
        "server.service_ms_p99",
        stats::percentile(&service_ms, 99.0),
    );
    v.set("server.first_block_ms_p50", stats::median(&first_block));
    v.set("server.interactive_p50_ms", stats::median(&interactive));
    v.set(
        "server.interactive_p90_ms",
        stats::percentile(&interactive, 90.0),
    );
    v.set("server.bulk_p50_ms", stats::median(&bulk));
    v.set("server.bulk_p99_ms", stats::percentile(&bulk, 99.0));
    v.set("server.service_rate_rps", service_rate_rps(&mid.records));
    v.set(
        "server.goodput_rps",
        good as f64 / high_window_s.max(f64::MIN_POSITIVE),
    );
    v.set(
        "server.worker_busy_frac",
        service_ms.iter().sum::<f64>() / (mid_wall_s * 1e3),
    );
    let deadline_exceeded = mid
        .records
        .iter()
        .chain(&high.records)
        .filter(|r| r.ending == Ending::DeadlineExceeded)
        .count();
    v.set("server.deadline_exceeded", deadline_exceeded as f64);
    v.set("controller.level_max", mid.level_max.max(high.level_max));
    v.set("loadgen.lag_ms_p99", stats::percentile(&lag, 99.0));

    result.notes.push(format!(
        "latency: over the {} interactive slots of the {period}-arrival period, each timed by \
         the fastest of its {} repetitions at r_mid",
        slot_latency.len(),
        mid.records.len() / period
    ));
    for (what, xs) in [("interactive", &interactive), ("bulk", &bulk)] {
        let tail = stats::highest_reportable_percentile(xs.len());
        result.notes.push(format!(
            "r_mid {what}: {} samples, highest reportable percentile {}",
            xs.len(),
            tail.map_or("none (median only)".to_string(), |p| format!("p{p}"))
        ));
    }
    for class in [Priority::Interactive, Priority::Bulk] {
        let xs = latencies(&high.records, class);
        result.notes.push(format!(
            "r_high {class:?}: {} served, latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
            xs.len(),
            stats::median(&xs),
            stats::percentile(&xs, 90.0),
            stats::percentile(&xs, 99.0),
            stats::max(&xs)
        ));
    }
    result.notes.push(format!(
        "r_mid {R_MID_RPS} rps for {:.1} s: {} offered, {} served; r_high {R_HIGH_RPS} rps for {:.1} s: {} offered, {} served, {} good",
        mid.records.len() as f64 / R_MID_RPS,
        mid.records.len(),
        mid.records.iter().filter(|r| r.served()).count(),
        high_window_s,
        high.records.len(),
        high.records.iter().filter(|r| r.served()).count(),
        good
    ));
}
