//! The open loop times from when a request was due, not from when it was
//! sent, and its schedule never depends on how the server is doing.

use cublastp_benchmark::batch::RunResult;
use cublastp_benchmark::cli::RUN_SECONDS;
use cublastp_benchmark::served::{
    best_cpu_ms_per_request, best_per_slot, check_slots_served, check_step, cpu_per_busy_second,
    offered_latencies, offered_model_ms, period, schedule, service_rate_rps, Arrival, Ending,
    Record, BULK_MISS_MS, INTERACTIVE_EVERY, MID_SHARE, R_MID_RPS,
};
use cublastp_benchmark::stats::highest_reportable_percentile;
use cublastp_serve::Priority;
use std::time::Duration;

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

fn record(due: u64, sent: u64, done: Option<u64>, ending: Ending) -> Record {
    Record {
        arrival: Arrival {
            due: ms(due),
            class: Priority::Bulk,
            query: 0,
        },
        sent: ms(sent),
        submitted: ms(sent),
        first_block: None,
        done: done.map(ms),
        terminal_events: done.is_some() as u32,
        ending,
    }
}

fn served() -> Ending {
    Ending::Served {
        identity_ok: true,
        queue_wait_ms: 0.0,
        service_ms: 3.0,
        device_model_ms: 0.1,
    }
}

#[test]
fn schedule_is_a_fixed_grid() {
    let arrivals = schedule(200.0, 1.5, (8, 16));
    assert_eq!(arrivals.len(), 300);
    for (i, a) in arrivals.iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / 200.0);
        assert_eq!(a.due, due, "arrival {i} is due at i / rate");
    }
    let interactive = arrivals
        .iter()
        .filter(|a| a.class == Priority::Interactive)
        .count();
    assert_eq!(interactive, 300 / INTERACTIVE_EVERY);
    assert!(arrivals.iter().all(|a| match a.class {
        Priority::Interactive => a.query < 8,
        Priority::Bulk => a.query < 16,
    }));
}

#[test]
fn latency_runs_from_due_time_not_send_time() {
    // The generator was stalled: due at 10 ms, only sent at 60 ms, served
    // 5 ms later. The request waited 55 ms, whoever's fault it was.
    let late = record(10, 60, Some(65), served());
    assert_eq!(late.latency_ms(), Some(55.0));
    assert_eq!(late.lag_ms(), 50.0);
    // Sent on time: lag 0, same arithmetic.
    let prompt = record(10, 10, Some(15), served());
    assert_eq!(prompt.latency_ms(), Some(5.0));
    assert_eq!(prompt.lag_ms(), 0.0);
    // No terminal event, no latency.
    assert_eq!(record(10, 10, None, Ending::Refused).latency_ms(), None);
}

#[test]
fn a_late_request_misses_its_limit_even_if_service_was_fast() {
    assert!(record(0, 0, Some(5), served()).good());
    assert!(
        !record(0, 500, Some(505), served()).good(),
        "505 ms after it was due"
    );
    assert!(!record(0, 0, Some(5), Ending::Refused).good());
}

#[test]
fn typed_refusals_are_misses_not_failed_operations() {
    let records = vec![
        record(0, 0, Some(4), served()),
        record(5, 5, None, Ending::Refused),
        record(10, 10, Some(40), Ending::DeadlineExceeded),
    ];
    let mut result = RunResult::default();
    check_step(&records, &mut result);
    assert_eq!((result.attempted, result.failed), (3, 0));
    assert_eq!(records.iter().filter(|r| r.good()).count(), 1);
}

#[test]
fn lost_duplicate_and_wrong_answers_fail_everywhere() {
    let mut twice = record(0, 0, Some(4), served());
    twice.terminal_events = 2;
    let wrong = record(
        0,
        0,
        Some(4),
        Ending::Served {
            identity_ok: false,
            queue_wait_ms: 0.0,
            service_ms: 3.0,
            device_model_ms: 0.1,
        },
    );
    let records = vec![twice, wrong, record(0, 0, None, Ending::Lost)];
    let mut result = RunResult::default();
    check_step(&records, &mut result);
    assert_eq!((result.attempted, result.failed), (3, 3));
}

#[test]
fn the_schedule_repeats_itself_every_period() {
    assert_eq!(period((4, 14)), 32);
    assert_eq!(period((4, 16)), 128);
    assert_eq!(period((3, 7)), 24);
    for pools in [(4, 14), (4, 16), (3, 7)] {
        let p = period(pools);
        let arrivals = schedule(100.0, 3.0 * p as f64 / 100.0, pools);
        assert_eq!(arrivals.len(), 3 * p);
        for (a, b) in arrivals.iter().zip(&arrivals[p..]) {
            assert_eq!((a.class, a.query), (b.class, b.query));
        }
    }
}

#[test]
fn the_r_mid_step_repeats_its_period_often_and_supports_its_percentiles() {
    let step: Vec<Record> = schedule(R_MID_RPS, f64::from(RUN_SECONDS) * MID_SHARE, (4, 14))
        .into_iter()
        .map(|arrival| Record {
            arrival,
            ..record(0, 0, Some(100_000), served())
        })
        .collect();
    // The end-to-end metrics: as many repetitions of a slot as a batch
    // workload makes passes.
    assert!(step.len() / period((4, 14)) >= 40);
    // server.interactive_p90_ms and server.bulk_p99_ms, over the whole step.
    let count = |class| offered_latencies(&step, class).len();
    assert!(highest_reportable_percentile(count(Priority::Interactive)) >= Some(90.0));
    assert!(highest_reportable_percentile(count(Priority::Bulk)) >= Some(99.0));
}

#[test]
fn a_slot_is_timed_by_its_best_repetition_and_queueing_is_in_every_one() {
    // Period 2, four repetitions. Slot 0 takes 4 ms when the sandbox leaves
    // it alone; slot 1 arrives behind it and waits, 9 ms at best.
    let latency = [[4u64, 9], [30, 35], [4, 12], [6, 9]];
    let mut records = Vec::new();
    for (k, rep) in latency.iter().enumerate() {
        for (slot, l) in rep.iter().enumerate() {
            let due = 100 * k as u64 + 10 * slot as u64;
            records.push(record(due, due, Some(due + l), served()));
        }
    }
    records[2] = record(100, 100, None, Ending::Refused);
    let best = best_per_slot(&records, 2, |r| Some(r.offered_latency_ms()));
    assert_eq!(best, vec![Some(4.0), Some(9.0)]);
    // A slot the server refuses every time counts at its miss value.
    for k in 0..4 {
        records[2 * k + 1] = record(0, 0, None, Ending::Refused);
    }
    let best = best_per_slot(&records, 2, |r| Some(r.offered_latency_ms()));
    assert_eq!(best, vec![Some(4.0), Some(BULK_MISS_MS)]);
    // A slot with no value is `None`; a trailing part of a period counts.
    let service = |r: &Record| r.served().then_some(3.0);
    assert_eq!(best_per_slot(&records, 2, service), vec![Some(3.0), None]);
    assert_eq!(best_per_slot(&records[..1], 2, service), vec![Some(3.0)]);
    assert!(best_per_slot(&[], 2, service).is_empty());
}

#[test]
fn a_stall_is_not_a_failure_but_a_slot_the_server_keeps_shedding_is() {
    // Ten repetitions of a ten-slot period. `shed(k)` says whether
    // repetition `k` refuses its last three slots.
    let step = |shed: &dyn Fn(u64) -> bool| -> Vec<Record> {
        (0..100u64)
            .map(|i| {
                let due = 100 * i;
                if shed(i / 10) && i % 10 >= 7 {
                    record(due, due, None, Ending::Refused)
                } else {
                    record(due, due, Some(due + 4), served())
                }
            })
            .collect()
    };
    let failed = |records: &[Record]| {
        let mut result = RunResult::default();
        check_slots_served(records, 10, &mut result);
        result.failed
    };
    // Repetitions 2 and 6 were hit by a stall.
    assert_eq!(failed(&step(&|k| k == 2 || k == 6)), 0);
    assert_eq!(failed(&step(&|k| k < 5)), 0);
    // A server that refuses three slots in every repetition, or in more
    // than half of them, fails each time it does.
    assert_eq!(failed(&step(&|_| true)), 30);
    assert_eq!(failed(&step(&|k| k < 6)), 18);
}

#[test]
fn the_service_rate_counts_busy_time_only() {
    // Two requests of 3 ms service, however long they waited: 2 / 6 ms.
    let records = vec![
        record(0, 0, Some(400), served()),
        record(10, 10, Some(900), served()),
        record(20, 20, None, Ending::Refused),
    ];
    assert!((service_rate_rps(&records) - 2e3 / 6.0).abs() < 1e-9);
}

#[test]
fn an_unserved_request_is_slower_than_any_served_one() {
    let mut late = record(20, 20, Some(120), Ending::DeadlineExceeded);
    late.terminal_events = 1;
    let records = vec![
        record(0, 0, Some(9), served()),
        record(10, 10, None, Ending::Refused),
        late,
        record(30, 80, Some(84), served()),
    ];
    assert_eq!(
        offered_latencies(&records, Priority::Bulk),
        vec![9.0, BULK_MISS_MS, BULK_MISS_MS, 54.0],
        "every offered request, in arrival order, from due time"
    );
    assert!(offered_latencies(&records, Priority::Interactive).is_empty());
}

#[test]
fn modelled_time_is_billed_per_offered_request_whoever_was_refused() {
    let at = |query: usize, model: f64, ending: Option<Ending>| {
        let mut r = record(0, 0, Some(4), served());
        r.arrival.query = query;
        r.ending = ending.unwrap_or(Ending::Served {
            identity_ok: true,
            queue_wait_ms: 0.0,
            service_ms: 3.0,
            device_model_ms: model,
        });
        r
    };
    // Query 0 costs 1 ms, query 1 costs 3 ms; offered 0, 1, 1, 0.
    let all = vec![
        at(0, 1.0, None),
        at(1, 3.0, None),
        at(1, 3.0, None),
        at(0, 1.0, None),
    ];
    assert_eq!(offered_model_ms(&all, (0, 2)), Ok(2.0));
    // Refusing one of them changes nothing: its query was served elsewhere.
    let mut shed = all.clone();
    shed[2] = at(1, 0.0, Some(Ending::Refused));
    assert_eq!(offered_model_ms(&shed, (0, 2)), Ok(2.0));
    // A query nobody ever got an answer for has no modelled time.
    shed[1] = at(1, 0.0, Some(Ending::Refused));
    assert!(offered_model_ms(&shed, (0, 2))
        .expect_err("query 1 unserved")
        .contains("never served"));
    // The model is a pure function of the query.
    let mut drift = all;
    drift[3] = at(0, 1.5, None);
    assert!(offered_model_ms(&drift, (0, 2)).is_err());
}

/// `n` requests of 3 ms service, all served.
fn served_records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| record(10 * i, 10 * i, Some(10 * i + 4), served()))
        .collect()
}

#[test]
fn cpu_per_request_takes_every_group_at_its_cheapest_repetition() {
    let g = INTERACTIVE_EVERY;
    // A period of two groups, three repetitions, a reading before every
    // group: group 0 costs 80, 40, 48 ms of CPU, group 1 costs 16, 24, 160.
    let costs = [80.0, 16.0, 40.0, 24.0, 48.0, 160.0];
    let mut cpu = vec![(0, 100.0)];
    for (k, c) in costs.iter().enumerate() {
        cpu.push(((k + 1) * g, cpu[k].1 + c));
    }
    let mut records = served_records(6 * g as u64);
    // (40 + 16) ms for 16 requests.
    assert_eq!(best_cpu_ms_per_request(&cpu, &records, 2 * g), 3.5);
    // Refusing half of a group halves its cost, not its cost per request.
    for r in &mut records[2 * g..2 * g + g / 2] {
        r.ending = Ending::Refused;
    }
    cpu.iter_mut().skip(3).for_each(|c| c.1 -= 20.0);
    assert_eq!(best_cpu_ms_per_request(&cpu, &records, 2 * g), 3.5);
    // A reading that was skipped (requests in flight) leaves a stretch of
    // two groups, which is no repetition of either; the third repetition
    // of group 0 now is its cheapest, 48 ms.
    cpu.remove(3);
    assert_eq!(best_cpu_ms_per_request(&cpu, &records, 2 * g), 4.0);
    assert_eq!(best_cpu_ms_per_request(&cpu[..1], &records, 2 * g), 0.0);
}

#[test]
fn cpu_per_busy_second_is_a_ratio_a_slower_sandbox_does_not_move() {
    // A reading every two requests of 3 ms service, 9 ms of CPU in
    // between: 1.5 CPU-seconds per second the worker was busy.
    let run = |slowdown: f64| {
        let cpu: Vec<_> = (0..5usize)
            .map(|i| (2 * i, 50.0 + 9.0 * slowdown * i as f64))
            .collect();
        let mut records = served_records(8);
        for r in &mut records {
            r.ending = Ending::Served {
                identity_ok: true,
                queue_wait_ms: 0.0,
                service_ms: 3.0 * slowdown,
                device_model_ms: 0.1,
            };
        }
        cpu_per_busy_second(&cpu, &records)
    };
    assert!((run(1.0) - 1.5).abs() < 1e-9);
    assert!((run(1.3) - 1.5).abs() < 1e-9);
    assert_eq!(cpu_per_busy_second(&[(0, 1.0), (0, 2.0)], &[]), 0.0);
}
