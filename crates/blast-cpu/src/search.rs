//! End-to-end CPU search drivers.
//!
//! [`search_sequential`] is the FSA-BLAST stand-in: one thread walks the
//! database column-major, interleaving hit detection and ungapped extension
//! (Algorithm 1), then runs gapped extension and traceback. It is both the
//! wall-clock baseline of Fig. 18(a–b) and the correctness oracle every
//! other pipeline is compared against.
//!
//! [`search_parallel`] is the NCBI-BLAST-with-N-threads stand-in of
//! Fig. 18(c–d): the same search with whole subjects (scan + gapped +
//! traceback) claimed by executed threads through [`crate::par::par_map`]
//! and merged in subject order; its times are measured wall-clock.

use crate::gapped::gapped_phase_subject;
use crate::hit::{DiagonalScratch, HitStats};
use crate::par::{executed_threads, par_map};
use crate::report::{PhaseTimes, ReportedHit, SearchReport};
use crate::traceback::traceback;
use crate::ungapped::UngappedExt;
use bio_seq::{Sequence, SequenceDb};
use blast_core::{params::Cutoffs, Dfa, Matrix, Pssm, SearchParams};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Precomputed per-query search state shared by all drivers (CPU and GPU):
/// the DFA, the PSSM, and the derived cutoffs.
pub struct SearchEngine {
    /// The query sequence.
    pub query: Sequence,
    /// Substitution matrix (BLOSUM62 unless configured otherwise).
    pub matrix: Matrix,
    /// Position-specific scoring matrix for the query.
    pub pssm: Pssm,
    /// Hit-detection automaton.
    pub dfa: Dfa,
    /// Search parameters.
    pub params: SearchParams,
    /// Derived score cutoffs for the target database.
    pub cutoffs: Cutoffs,
}

impl SearchEngine {
    /// Build the engine for a query against a database's statistics.
    /// When [`SearchParams::mask_low_complexity`] is set, the DFA is built
    /// from a SEG-masked neighbourhood (masked regions seed nothing);
    /// extensions and scoring still see the full query.
    pub fn new(query: Sequence, params: SearchParams, db: &SequenceDb) -> Self {
        Self::with_db_stats(query, params, db.total_residues(), db.len())
    }

    /// Build the engine from explicit database statistics instead of an
    /// owned [`SequenceDb`]. This is the cross-shard statistics hook
    /// (DESIGN.md §3.10): a sharded search passes the *global* database's
    /// residue and sequence totals here so the Karlin–Altschul search
    /// space, cutoffs and E-values are exactly those of a single-database
    /// run, even though each device only ever sees its own shard.
    pub fn with_db_stats(
        query: Sequence,
        params: SearchParams,
        db_residues: usize,
        db_sequences: usize,
    ) -> Self {
        let matrix = Matrix::blosum62();
        let pssm = Pssm::build(&query, &matrix);
        let dfa = if params.mask_low_complexity {
            let mask = blast_core::seg::default_mask(query.residues());
            let neighborhood = blast_core::words::WordNeighborhood::build_with_mask(
                &query,
                &matrix,
                params.threshold,
                Some(&mask),
            );
            Dfa::from_neighborhood(neighborhood, query.len())
        } else {
            Dfa::build(&query, &matrix, params.threshold)
        };
        let mut cutoffs = params.cutoffs(query.len(), db_residues, db_sequences);
        if params.composition_based_stats {
            cutoffs.gapped_ka =
                blast_core::KarlinAltschul::composition_adjusted_gapped(&matrix, query.residues());
            cutoffs.report_cutoff = cutoffs
                .gapped_ka
                .cutoff_score(params.evalue_cutoff, cutoffs.search_space);
        }
        Self {
            query,
            matrix,
            pssm,
            dfa,
            params,
            cutoffs,
        }
    }

    /// Run gapped extension + traceback + reporting for one subject, given
    /// its ungapped extensions. Shared by every pipeline in the workspace
    /// (the paper keeps these phases on the CPU in cuBLASTP too, §3.6).
    pub fn finish_subject(
        &self,
        subject_index: usize,
        subject: &Sequence,
        ungapped: &[UngappedExt],
        out: &mut SearchReport,
        times: Option<&mut PhaseTimes>,
    ) {
        let mut local_times = PhaseTimes::default();
        let t0 = Instant::now();
        let gapped = gapped_phase_subject(
            &self.pssm,
            subject.residues(),
            ungapped,
            &self.params,
            self.cutoffs.gapped_trigger,
        );
        local_times.gapped = t0.elapsed();

        let t1 = Instant::now();
        self.traceback_and_report(subject_index, subject, &gapped, out);
        local_times.traceback = t1.elapsed();
        if let Some(t) = times {
            t.add(&local_times);
        }
    }

    /// Traceback + reporting only, for pipelines that computed the gapped
    /// pass elsewhere (the §3.6 gapped-on-GPU ablation).
    pub fn finish_subject_from_gapped(
        &self,
        subject_index: usize,
        subject: &Sequence,
        gapped: &[crate::gapped::GappedExt],
        out: &mut SearchReport,
        times: Option<&mut PhaseTimes>,
    ) {
        let mut local_times = PhaseTimes::default();
        let t1 = Instant::now();
        self.traceback_and_report(subject_index, subject, gapped, out);
        local_times.traceback = t1.elapsed();
        if let Some(t) = times {
            t.add(&local_times);
        }
    }

    /// The shared alignment-with-traceback tail: re-align every gapped
    /// extension above the report cutoff, compute its statistics, and
    /// append hits below the e-value cutoff.
    fn traceback_and_report(
        &self,
        subject_index: usize,
        subject: &Sequence,
        gapped: &[crate::gapped::GappedExt],
        out: &mut SearchReport,
    ) {
        for g in gapped {
            if g.score < self.cutoffs.report_cutoff {
                continue;
            }
            let alignment = traceback(
                &self.pssm,
                self.query.residues(),
                subject.residues(),
                g,
                &self.params,
            );
            let evalue = self
                .cutoffs
                .gapped_ka
                .evalue(alignment.score, self.cutoffs.search_space);
            if evalue > self.params.evalue_cutoff {
                continue;
            }
            let bit_score = self.cutoffs.gapped_ka.bit_score(alignment.score);
            out.hits.push(ReportedHit {
                subject_index,
                subject_id: subject.id.clone(),
                alignment,
                bit_score,
                evalue,
            });
        }
    }

    /// Reporting-only tail for alignments recovered elsewhere (the device
    /// gapped backend, DESIGN.md §3.7): compute statistics and append hits
    /// below the e-value cutoff. Callers must pass exactly the alignments
    /// of extensions at or above [`Cutoffs::report_cutoff`], in
    /// gapped-phase order — then the pushed hits are bit-identical to
    /// [`Self::finish_subject`]'s.
    pub fn report_from_alignments(
        &self,
        subject_index: usize,
        subject: &Sequence,
        alignments: &[crate::report::Alignment],
        out: &mut SearchReport,
    ) {
        for alignment in alignments {
            let evalue = self
                .cutoffs
                .gapped_ka
                .evalue(alignment.score, self.cutoffs.search_space);
            if evalue > self.params.evalue_cutoff {
                continue;
            }
            let bit_score = self.cutoffs.gapped_ka.bit_score(alignment.score);
            out.hits.push(ReportedHit {
                subject_index,
                subject_id: subject.id.clone(),
                alignment: alignment.clone(),
                bit_score,
                evalue,
            });
        }
    }
}

/// Result of a CPU search: the ranked report, phase timings, and hit
/// statistics.
pub struct CpuSearchResult {
    /// Ranked hit list.
    pub report: SearchReport,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
    /// Hit-detection counters.
    pub hit_stats: HitStats,
}

/// Sequential FSA-BLAST-style search.
pub fn search_sequential(engine: &SearchEngine, db: &SequenceDb) -> CpuSearchResult {
    let mut report = SearchReport::default();
    let mut times = PhaseTimes::default();
    let mut stats = HitStats::default();
    let mut scratch = DiagonalScratch::new(engine.query.len() + db.max_length() + 1);
    let mut ungapped: Vec<UngappedExt> = Vec::new();

    for (idx, subject) in db.sequences().iter().enumerate() {
        let t0 = Instant::now();
        ungapped.clear();
        crate::hit::scan_subject_mode(
            &engine.dfa,
            &engine.pssm,
            subject.residues(),
            idx as u32,
            engine.params.two_hit,
            engine.params.two_hit_window as i64,
            engine.params.xdrop_ungapped,
            &mut scratch,
            &mut ungapped,
            &mut stats,
        );
        times.hit_ungapped += t0.elapsed();
        engine.finish_subject(idx, subject, &ungapped, &mut report, Some(&mut times));
    }

    let t = Instant::now();
    report.finalize(engine.params.max_reported);
    times.other += t.elapsed();
    CpuSearchResult {
        report,
        times,
        hit_stats: stats,
    }
}

/// The paper's Fig. 13 curve: speedup of gapped extension + traceback
/// with `threads` workers on its quad-core Sandy Bridge (1 / 1.8 / 3.3),
/// as 0.78 parallel efficiency per added thread.
///
/// A `ScheduleModel` number, never a measurement, and no search path
/// applies it: the CPU phases run on executed threads ([`crate::par`]) and
/// report measured wall-clock. It is the *model column* `fig13` prints
/// beside the measured one, for the thread counts this host cannot run.
pub fn modeled_parallel_speedup(threads: usize) -> f64 {
    if threads <= 1 {
        1.0
    } else {
        1.0 + (threads as f64 - 1.0) * 0.78
    }
}

/// `wall` split over the phases in proportion to `summed`, the per-thread
/// phase times added up: what each phase cost on the wall-clock of a
/// parallel region whose threads interleave the phases.
pub fn apportion_wall(wall: Duration, summed: &PhaseTimes) -> PhaseTimes {
    let total = summed.total().as_secs_f64();
    if total <= 0.0 {
        return PhaseTimes::default();
    }
    let share = |d: Duration| wall.mul_f64(d.as_secs_f64() / total);
    PhaseTimes {
        hit_ungapped: share(summed.hit_ungapped),
        gapped: share(summed.gapped),
        traceback: share(summed.traceback),
        other: share(summed.other),
    }
}

thread_local! {
    /// [`search_parallel`]'s per-thread scan state, like the DP rows of
    /// `band` and `traceback`: grown on demand, kept for the thread's life.
    static SCAN: RefCell<(DiagonalScratch, Vec<UngappedExt>)> =
        RefCell::new((DiagonalScratch::new(0), Vec::new()));
}

/// The NCBI-BLAST-with-`threads`-threads stand-in: the search of
/// [`search_sequential`] — same report, same hit statistics — with whole
/// subjects claimed by `min(threads, available_parallelism())` executed
/// threads and their hits merged in subject order. `times` is measured:
/// the parallel region's wall-clock apportioned to the three phases by
/// their share of summed thread time ([`apportion_wall`]), and the final
/// ranking on the calling thread as `other`.
pub fn search_parallel(engine: &SearchEngine, db: &SequenceDb, threads: usize) -> CpuSearchResult {
    let t0 = Instant::now();
    let per_subject = par_map(executed_threads(threads), db.len(), |idx| {
        let subject = &db.sequences()[idx];
        let mut times = PhaseTimes::default();
        let mut stats = HitStats::default();
        let mut found = SearchReport::default();
        SCAN.with_borrow_mut(|(scratch, ungapped)| {
            let t = Instant::now();
            ungapped.clear();
            crate::hit::scan_subject_mode(
                &engine.dfa,
                &engine.pssm,
                subject.residues(),
                idx as u32,
                engine.params.two_hit,
                engine.params.two_hit_window as i64,
                engine.params.xdrop_ungapped,
                scratch,
                ungapped,
                &mut stats,
            );
            times.hit_ungapped = t.elapsed();
            engine.finish_subject(idx, subject, ungapped, &mut found, Some(&mut times));
        });
        (found.hits, times, stats)
    });
    let wall = t0.elapsed();

    let mut report = SearchReport::default();
    let mut summed = PhaseTimes::default();
    let mut hit_stats = HitStats::default();
    for (mut hits, times, stats) in per_subject {
        report.hits.append(&mut hits);
        summed.add(&times);
        hit_stats.hits += stats.hits;
        hit_stats.triggers += stats.triggers;
        hit_stats.extensions += stats.extensions;
    }
    let mut times = apportion_wall(wall, &summed);
    let t = Instant::now();
    report.finalize(engine.params.max_reported);
    times.other = t.elapsed();
    CpuSearchResult {
        report,
        times,
        hit_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};

    fn small_workload() -> (SearchEngine, SequenceDb) {
        let query = make_query(64);
        let spec = DbSpec {
            name: "t",
            num_sequences: 120,
            mean_length: 120,
            homolog_fraction: 0.25,
            seed: 99,
        };
        let synth = generate_db(&spec, &query);
        let engine = SearchEngine::new(query, SearchParams::default(), &synth.db);
        (engine, synth.db)
    }

    #[test]
    fn sequential_finds_planted_homologs() {
        let (engine, db) = small_workload();
        let res = search_sequential(&engine, &db);
        assert!(
            !res.report.hits.is_empty(),
            "planted homologs must be reported"
        );
        // Best hit has a sane alignment.
        let top = &res.report.hits[0];
        assert!(top.alignment.score > 0);
        assert!(top.evalue <= engine.params.evalue_cutoff);
        assert!(top.alignment.identities > 0);
    }

    #[test]
    fn report_is_sorted_by_score() {
        let (engine, db) = small_workload();
        let res = search_sequential(&engine, &db);
        let scores: Vec<i32> = res.report.hits.iter().map(|h| h.alignment.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let (engine, db) = small_workload();
        let seq = search_sequential(&engine, &db);
        for threads in [1, 2, 4] {
            let par = search_parallel(&engine, &db, threads);
            assert_eq!(
                par.report.identity_key(),
                seq.report.identity_key(),
                "threads = {threads}"
            );
            assert_eq!(par.hit_stats, seq.hit_stats);
        }
    }

    #[test]
    fn hit_stats_populated() {
        let (engine, db) = small_workload();
        let res = search_sequential(&engine, &db);
        assert!(res.hit_stats.hits > 0);
        assert!(res.hit_stats.extensions > 0);
        assert!(res.hit_stats.extensions <= res.hit_stats.triggers);
        assert!(res.hit_stats.triggers <= res.hit_stats.hits);
    }

    #[test]
    fn only_the_score_pass_counts_dp_cells() {
        // The `blast-cpu.dp_cells` metric and the `cpusimd` gate read the
        // counter around `finish_subject`: traceback recomputes cells the
        // score pass already counted and must not count them again.
        let (engine, db) = small_workload();
        let mut scratch = DiagonalScratch::new(engine.query.len() + db.max_length() + 1);
        let mut stats = HitStats::default();
        let mut report = SearchReport::default();
        let (mut whole_tail, mut score_pass) = (0u64, 0u64);
        for (idx, subject) in db.sequences().iter().enumerate() {
            let mut ungapped = Vec::new();
            crate::hit::scan_subject_mode(
                &engine.dfa,
                &engine.pssm,
                subject.residues(),
                idx as u32,
                engine.params.two_hit,
                engine.params.two_hit_window as i64,
                engine.params.xdrop_ungapped,
                &mut scratch,
                &mut ungapped,
                &mut stats,
            );
            let c0 = crate::gapped::dp_cells();
            engine.finish_subject(idx, subject, &ungapped, &mut report, None);
            let c1 = crate::gapped::dp_cells();
            gapped_phase_subject(
                &engine.pssm,
                subject.residues(),
                &ungapped,
                &engine.params,
                engine.cutoffs.gapped_trigger,
            );
            whole_tail += c1 - c0;
            score_pass += crate::gapped::dp_cells() - c1;
        }
        assert!(
            !report.hits.is_empty(),
            "the tail must have traced something"
        );
        assert!(score_pass > 0);
        assert_eq!(whole_tail, score_pass);
    }

    #[test]
    fn dp_cells_read_the_same_on_the_caller_at_any_thread_count() {
        // The counter is thread-local; subjects finished on helpers must
        // still show up in a reading taken around the search.
        let (engine, db) = small_workload();
        let around = |search: &dyn Fn() -> CpuSearchResult| {
            let before = crate::gapped::dp_cells();
            search();
            crate::gapped::dp_cells() - before
        };
        let sequential = around(&|| search_sequential(&engine, &db));
        assert!(sequential > 0);
        for threads in [1, 2, 4] {
            let parallel = around(&|| search_parallel(&engine, &db, threads));
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn apportioned_phases_add_up_to_the_wall_clock() {
        let summed = PhaseTimes {
            hit_ungapped: Duration::from_millis(6),
            gapped: Duration::from_millis(3),
            traceback: Duration::from_millis(1),
            other: Duration::ZERO,
        };
        let wall = Duration::from_millis(5);
        let t = apportion_wall(wall, &summed);
        assert_eq!(t.hit_ungapped, Duration::from_millis(3));
        assert_eq!(t.gapped, Duration::from_micros(1500));
        assert_eq!(t.traceback, Duration::from_micros(500));
        assert_eq!(t.total(), wall);
        // Nothing measured, nothing apportioned (and no 0 / 0).
        assert_eq!(
            apportion_wall(wall, &PhaseTimes::default()).total(),
            Duration::ZERO
        );
    }

    #[test]
    fn empty_database_yields_empty_report() {
        let query = make_query(64);
        let db = SequenceDb::new("empty", vec![]);
        let engine = SearchEngine::new(query, SearchParams::default(), &db);
        let res = search_sequential(&engine, &db);
        assert!(res.report.hits.is_empty());
        assert_eq!(res.hit_stats.hits, 0);
    }

    #[test]
    fn self_search_reports_full_length_identity() {
        let query = make_query(100);
        let db = SequenceDb::new("self", vec![query.clone()]);
        let engine = SearchEngine::new(query.clone(), SearchParams::default(), &db);
        let res = search_sequential(&engine, &db);
        assert_eq!(res.report.hits.len(), 1);
        let a = &res.report.hits[0].alignment;
        assert_eq!((a.q_start, a.q_end), (0, 100));
        assert_eq!((a.s_start, a.s_end), (0, 100));
        assert_eq!(a.identities, 100);
    }
}
