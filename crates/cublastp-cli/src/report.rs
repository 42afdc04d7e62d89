//! BLAST-like text report rendering.

use crate::args::{Args, OutFmt};
use bio_seq::alphabet::decode;
use bio_seq::Sequence;
use blast_cpu::report::{AlignOp, ReportedHit, SearchReport};
use cublastp::ShardedDb;
use std::time::Duration;

/// Print the report for one query.
pub fn print(
    query: &Sequence,
    db: &ShardedDb,
    report: &SearchReport,
    args: &Args,
    wall: Duration,
    telemetry: &str,
) {
    if args.outfmt == OutFmt::Tab {
        print_tabular(query, report, args);
        return;
    }
    out!("\nQuery= {} ({} letters)", query.id, query.len());
    out!("# {telemetry}");
    out!("# wall time {:.1} ms", wall.as_secs_f64() * 1e3);
    if report.hits.is_empty() {
        out!("  ***** No hits found *****");
        return;
    }
    out!(
        "\n{:<30} {:>6} {:>8} {:>10} {:>7}",
        "Sequences producing significant alignments:",
        "Score",
        "Bits",
        "E-value",
        "Ident"
    );
    for hit in report.hits.iter().take(args.max_hits) {
        out!(
            "{:<30} {:>6} {:>8.1} {:>10.2e} {:>6.1}%",
            truncate(&hit.subject_id, 30),
            hit.alignment.score,
            hit.bit_score,
            hit.evalue,
            hit.alignment.percent_identity()
        );
    }
    if args.alignments {
        for hit in report.hits.iter().take(args.max_hits) {
            print_alignment(query, db, hit);
        }
    }
}

/// BLAST `-outfmt 6`: twelve tab-separated columns, 1-based inclusive
/// coordinates, one line per hit, no headers.
fn print_tabular(query: &Sequence, report: &SearchReport, args: &Args) {
    for hit in report.hits.iter().take(args.max_hits) {
        let a = &hit.alignment;
        let mismatches = a.columns() as u32 - a.identities - a.gaps;
        let gap_opens = a
            .ops
            .windows(2)
            .filter(|w| w[1] != AlignOp::Sub && w[0] != w[1])
            .count() as u32
            + u32::from(a.ops.first().map(|o| *o != AlignOp::Sub).unwrap_or(false));
        out!(
            "{}\t{}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
            query.id,
            hit.subject_id,
            a.percent_identity(),
            a.columns(),
            mismatches,
            gap_opens,
            a.q_start + 1,
            a.q_end,
            a.s_start + 1,
            a.s_end,
            hit.evalue,
            hit.bit_score,
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Render one alignment in BLAST pairwise style (60-column blocks).
fn print_alignment(query: &Sequence, db: &ShardedDb, hit: &ReportedHit) {
    let a = &hit.alignment;
    let subject = db.sequence(hit.subject_index);
    out!(
        "\n> {}\n Score = {:.1} bits ({}), Expect = {:.2e}",
        subject.id,
        hit.bit_score,
        a.score,
        hit.evalue
    );
    out!(
        " Identities = {}/{} ({:.0}%), Positives = {}/{} ({:.0}%), Gaps = {}/{}",
        a.identities,
        a.columns(),
        a.percent_identity(),
        a.positives,
        a.columns(),
        a.percent_positives(),
        a.gaps,
        a.columns(),
    );

    // Expand ops into three parallel strings.
    let mut qline = String::new();
    let mut mline = String::new();
    let mut sline = String::new();
    let mut qi = a.q_start as usize;
    let mut si = a.s_start as usize;
    for op in &a.ops {
        match op {
            AlignOp::Sub => {
                let qr = query.residues()[qi];
                let sr = subject.residues()[si];
                qline.push(decode(qr) as char);
                sline.push(decode(sr) as char);
                mline.push(if qr == sr { decode(qr) as char } else { ' ' });
                qi += 1;
                si += 1;
            }
            AlignOp::Ins => {
                qline.push('-');
                mline.push(' ');
                sline.push(decode(subject.residues()[si]) as char);
                si += 1;
            }
            AlignOp::Del => {
                qline.push(decode(query.residues()[qi]) as char);
                mline.push(' ');
                sline.push('-');
                qi += 1;
            }
        }
    }

    // 60-column blocks with 1-based coordinates.
    let mut qpos = a.q_start as usize + 1;
    let mut spos = a.s_start as usize + 1;
    for block in 0..qline.len().div_ceil(60) {
        let lo = block * 60;
        let hi = (lo + 60).min(qline.len());
        let q = &qline[lo..hi];
        let m = &mline[lo..hi];
        let s = &sline[lo..hi];
        let q_consumed = q.chars().filter(|&c| c != '-').count();
        let s_consumed = s.chars().filter(|&c| c != '-').count();
        out!("Query  {qpos:>5} {q} {}", qpos + q_consumed.max(1) - 1);
        out!("             {m}");
        out!("Sbjct  {spos:>5} {s} {}", spos + s_consumed.max(1) - 1);
        qpos += q_consumed;
        spos += s_consumed;
    }
}
