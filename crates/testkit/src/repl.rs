//! Partition/lag harness for WAL-shipping replication — the replication
//! counterpart of [`crate::crash`].
//!
//! The harness drives `leader → faulty transport → follower` through a
//! scripted op sequence ([`crate::crash::random_script`]) under a
//! scripted fault schedule, and asserts the replication contract at
//! **every shared epoch** reached:
//!
//! * leader and follower publish the same epoch and live-table count,
//! * every battery query answers **bit-identically** on both sides under
//!   both index strategies ([`crate::assert_same_hits_bitwise`]),
//! * the follower never invokes the encoder
//!   (`lcdd_fcm::table_encode_count` stays flat across a sync),
//! * no injected fault panics — every schedule either converges or
//!   surfaces a typed error the driver heals.
//!
//! Beyond the lag sweep, the harness scripts the three operational
//! stories the robustness suite must pin: a leader crash with frames in
//! flight, a follower restart from a torn WAL tail, and promotion of the
//! newest follower after the leader dies for good.
//!
//! Encode-flatness is asserted against a process-global counter, so every
//! harness entry point serializes on an internal gate — concurrent churn
//! from another test would otherwise show up as phantom re-encodes.

use std::sync::Arc;

use lcdd_engine::{IndexStrategy, Query, SearchOptions};
use lcdd_fcm::table_encode_count;
use lcdd_repl::{
    elect, promote, sync_to_convergence, Attach, ChannelTransport, FaultAction, FaultSchedule,
    FaultyTransport, Follower, FollowerStats, Leader, ReadConsistency, RetryPolicy, SyncStats,
    Transport,
};
use lcdd_store::{latest_manifest, DurableEngine, StoreOptions};
use lcdd_table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::crash::{
    apply_durable, battery, encode_gate as gate, random_script, truncate_file, TempDir,
};
use crate::{assert_same_hits_bitwise, corpus, tiny_engine, CorpusSpec};

/// Shape of one partition/lag sweep.
#[derive(Clone, Debug)]
pub struct ReplCase {
    pub seed: u64,
    /// Base corpus size (ids `0..n_base`), shared by leader and follower.
    pub n_base: usize,
    /// Shard count both engines are built with.
    pub n_shards: usize,
    /// Convergence (and assertion) points: the script is cut into this
    /// many batches and the pair must agree bitwise after each.
    pub n_batches: usize,
    /// Ops per batch; `1` asserts at literally every leader epoch.
    pub ops_per_batch: usize,
    /// Checkpoint cadence on both stores (small values force the leader
    /// to rotate WAL files mid-stream).
    pub checkpoint_every: u64,
    /// Checkpoints retained before GC (small values force snapshot
    /// resyncs of lagging followers).
    pub keep_checkpoints: usize,
    /// Transport fault schedule (empty = clean link).
    pub schedule: FaultSchedule,
    /// Driver round budget per batch before the case counts as partitioned.
    pub max_rounds: u64,
}

impl ReplCase {
    /// A clean-link case: enough history retained that record streaming
    /// never degrades to a snapshot.
    pub fn clean(seed: u64) -> ReplCase {
        ReplCase {
            seed,
            n_base: 6,
            n_shards: 2,
            n_batches: 6,
            ops_per_batch: 4,
            checkpoint_every: 5,
            keep_checkpoints: 4,
            schedule: Vec::new(),
            max_rounds: 64,
        }
    }
}

/// What one harness run observed (for suites to assert fault paths were
/// actually exercised, not silently skipped).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplRun {
    /// Driver stats summed over all batches.
    pub rounds: u64,
    pub records_applied: u64,
    pub duplicates: u64,
    pub gaps_resumed: u64,
    pub resyncs: u64,
    pub send_retries: u64,
    /// Follower-side counters at the end of the run.
    pub follower: FollowerStats,
    /// Shared epochs at which bitwise equality was asserted.
    pub epochs_checked: u64,
    /// Scheduled transport faults that fired.
    pub faults_fired: u64,
}

fn accumulate(run: &mut ReplRun, s: SyncStats) {
    run.rounds += s.rounds;
    run.records_applied += s.records_applied;
    run.duplicates += s.duplicates;
    run.gaps_resumed += s.gaps_resumed;
    run.resyncs += s.resyncs;
    run.send_retries += s.send_retries;
}

/// Store options the harness runs both sides with.
pub fn store_opts(checkpoint_every: u64, keep_checkpoints: usize) -> StoreOptions {
    StoreOptions {
        sync_writes: false,
        checkpoint_every_ops: checkpoint_every,
        keep_checkpoints,
        ..StoreOptions::default()
    }
}

/// A deterministic mixed fault schedule: roughly `density_pct` percent of
/// the first `span` send attempts get a fault, weighted toward the
/// absorbable kinds (drop/dup/reorder/delay) with a tail of corruption
/// and send failures.
pub fn random_schedule(seed: u64, span: u64, density_pct: u32) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_ab1e_0dd5_f00d);
    let mut schedule = Vec::new();
    for attempt in 1..=span {
        if rng.gen_range(0..100) >= density_pct {
            continue;
        }
        let action = match rng.gen_range(0..100u32) {
            0..=24 => FaultAction::Drop,
            25..=44 => FaultAction::Duplicate,
            45..=59 => FaultAction::ReorderNext,
            60..=74 => FaultAction::Delay {
                rounds: rng.gen_range(1..4),
            },
            75..=84 => FaultAction::FailSend,
            85..=94 => FaultAction::CorruptByte {
                offset: rng.gen_range(0..64),
            },
            _ => FaultAction::Truncate {
                keep: rng.gen_range(5..24),
            },
        };
        schedule.push((attempt, action));
    }
    schedule
}

/// Asserts the pair agrees at the current shared epoch: same epoch, same
/// live count, and bit-identical hits for every query under both index
/// strategies. Follower reads go through the read-your-writes contract at
/// the leader's epoch — which a converged replica must honour.
pub fn assert_converged(
    context: &str,
    leader: &DurableEngine,
    follower: &Follower,
    queries: &[Query],
) {
    assert_eq!(
        leader.epoch(),
        follower.epoch(),
        "{context}: epochs diverged"
    );
    assert_eq!(
        leader.len(),
        follower.store().len(),
        "{context}: live table counts diverged"
    );
    let token = leader.epoch();
    let k = leader.len().max(1);
    for (qi, q) in queries.iter().enumerate() {
        for strategy in [IndexStrategy::Hybrid, IndexStrategy::NoIndex] {
            let opts = SearchOptions::top_k(k).with_strategy(strategy);
            let want = leader.search(q, &opts);
            let got = follower.search(q, &opts, ReadConsistency::AtLeastEpoch(token));
            match (want, got) {
                (Ok(want), Ok(got)) => assert_same_hits_bitwise(
                    &format!("{context}: query {qi} ({strategy:?})"),
                    &want,
                    &got,
                ),
                (Err(w), Err(g)) => assert_eq!(
                    w.to_string(),
                    g.to_string(),
                    "{context}: query {qi} errors diverged"
                ),
                (want, got) => {
                    panic!("{context}: query {qi} diverged: leader {want:?} vs replica {got:?}")
                }
            }
        }
    }
}

struct Rig {
    _tmp: TempDir,
    leader: Leader,
    follower: Follower,
    base: Vec<Table>,
}

fn build_rig(tag: &str, case: &ReplCase) -> Rig {
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(case.seed, case.n_base));
    let opts = store_opts(case.checkpoint_every, case.keep_checkpoints);
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), case.n_shards),
        opts.clone(),
    )
    .expect("harness: leader store must create");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base.clone(), case.n_shards),
        opts,
    )
    .expect("harness: follower must create");
    leader.attach("replica", follower.epoch());
    Rig {
        _tmp: tmp,
        leader,
        follower,
        base,
    }
}

/// Runs one scripted partition/lag case end to end; see the module docs
/// for the invariants asserted. Panics (with a labelled context) on any
/// violation; returns the run's observability counters otherwise.
pub fn run_lag_case(tag: &str, case: &ReplCase) -> ReplRun {
    let _serialized = gate();
    let rig = build_rig(tag, case);
    let base_ids: Vec<u64> = rig.base.iter().map(|t| t.id).collect();
    let script = random_script(case.seed, case.n_batches * case.ops_per_batch, &base_ids);
    let queries = battery(&rig.base, &script, 6);
    let transport = FaultyTransport::new(ChannelTransport::default(), case.schedule.clone());
    let mut run = ReplRun::default();
    for (b, chunk) in script.chunks(case.ops_per_batch.max(1)).enumerate() {
        let ctx = format!("[{tag} seed {:#x}] batch {b}", case.seed);
        for op in chunk {
            apply_durable(rig.leader.store(), op);
        }
        // Checkpoints (and the GC behind them) finish on the leader's
        // checkpointer thread. Which history a sync still finds must not
        // depend on how far that thread got: the counters callers assert
        // on (resyncs, gaps) are a function of the case, not of timing.
        rig.leader.store().wait_checkpoint_idle();
        let encodes_before = table_encode_count();
        let stats = sync_to_convergence(
            &rig.leader,
            "replica",
            &transport,
            &rig.follower,
            case.max_rounds,
        )
        .unwrap_or_else(|e| panic!("{ctx}: no convergence: {e}"));
        assert_eq!(
            table_encode_count(),
            encodes_before,
            "{ctx}: the follower re-encoded a shipped batch"
        );
        accumulate(&mut run, stats);
        assert_converged(&ctx, rig.leader.store(), &rig.follower, &queries);
        run.epochs_checked += 1;
    }
    run.follower = rig.follower.stats();
    run.faults_fired = transport.faults_fired();
    run
}

/// Leader crash with frames in flight: the leader pumps a batch into the
/// link and dies before the follower drains it; half the in-flight frames
/// are delivered, the rest die with the connection. The recovered leader
/// (ordinary PR 5 crash recovery of its own store) re-attaches at the
/// follower's epoch and must stream the remainder — bit-identical at the
/// end, nothing acknowledged lost.
pub fn run_leader_crash_mid_stream(tag: &str, seed: u64) {
    let _serialized = gate();
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(seed, 6));
    let opts = store_opts(4, 4);
    let leader_dir = tmp.subdir("leader");
    let leader_store =
        DurableEngine::create(&leader_dir, tiny_engine(base.clone(), 2), opts.clone())
            .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower = Follower::create(
        tmp.subdir("follower"),
        tiny_engine(base.clone(), 2),
        opts.clone(),
    )
    .expect("follower");
    leader.attach("replica", follower.epoch());
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(seed, 18, &base_ids);
    let queries = battery(&base, &script, 6);

    // Phase 1: a fully synced prefix.
    let transport = ChannelTransport::default();
    for op in &script[..6] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "replica", &transport, &follower, 64).expect("phase 1 sync");
    assert_converged(
        &format!("[{tag} {seed:#x}] phase 1"),
        leader.store(),
        &follower,
        &queries,
    );

    // Phase 2: pump a batch into the link, then crash the leader with the
    // frames still in flight. Half get delivered; the connection (and the
    // undelivered half) dies with the process.
    for op in &script[6..12] {
        apply_durable(leader.store(), op);
    }
    leader
        .pump("replica", &transport)
        .expect("pump before crash");
    drop(leader);
    let in_flight = transport.pending();
    for _ in 0..in_flight / 2 {
        if let Some(bytes) = transport.recv().expect("drain") {
            follower
                .apply_frame(&bytes)
                .expect("in-order clean frames apply");
        }
    }
    drop(transport);

    // Phase 3: recover the leader from its own durable state. Everything
    // it shipped was logged first, so recovery covers the follower.
    let (store, report) = DurableEngine::open(&leader_dir, opts).expect("leader crash recovery");
    assert!(
        report.recovered_epoch >= follower.epoch(),
        "recovered leader (epoch {}) must cover everything the follower applied ({})",
        report.recovered_epoch,
        follower.epoch()
    );
    let leader = Leader::new(Arc::new(store), RetryPolicy::immediate());
    leader.attach("replica", follower.epoch());
    let transport = ChannelTransport::default();
    for op in &script[12..] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "replica", &transport, &follower, 64).expect("post-recovery sync");
    assert_converged(
        &format!("[{tag} {seed:#x}] after leader crash"),
        leader.store(),
        &follower,
        &queries,
    );
}

/// Follower restart from a torn WAL tail: the replica is killed, its live
/// generation's WAL loses its last bytes (a torn write), and reopening
/// must truncate the torn record — recovering to an earlier epoch — then
/// resume streaming from there to full bitwise equality.
pub fn run_follower_torn_tail_restart(tag: &str, seed: u64) {
    let _serialized = gate();
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(seed, 6));
    // Huge cadence: the follower's records stay in its WAL tail, so the
    // torn write has something to bite.
    let opts = store_opts(10_000, 2);
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts.clone(),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let follower_root = tmp.subdir("follower");
    let follower = Follower::create(&follower_root, tiny_engine(base.clone(), 2), opts.clone())
        .expect("follower");
    leader.attach("replica", follower.epoch());
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(seed, 12, &base_ids);
    let queries = battery(&base, &script, 6);

    let transport = ChannelTransport::default();
    for op in &script[..8] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "replica", &transport, &follower, 64).expect("pre-crash sync");
    let epoch_before = follower.epoch();

    // Kill the replica and tear the tail of its live generation's WAL.
    let live_dir = follower.store_dir();
    drop(follower);
    let (_, manifest) = latest_manifest(&live_dir)
        .expect("replica manifest readable")
        .expect("replica has a manifest");
    // The live log is the end of the manifest's WAL chain (the replica's
    // own checkpoint hand-offs rotate it ahead of the manifest).
    let live = lcdd_store::wal::chain_end(&live_dir, &manifest).expect("replica WAL chain walks");
    let wal_path = live_dir.join(&live.file);
    let wal_len = std::fs::metadata(&wal_path).expect("wal metadata").len();
    assert!(
        wal_len > lcdd_store::WAL_HEADER_LEN,
        "[{tag} {seed:#x}] the replica's WAL tail must hold records for a torn write to bite"
    );
    truncate_file(&wal_path, wal_len - 3);

    // Restart: recovery truncates the torn record and loses exactly the
    // tail op; streaming resumes from the recovered epoch.
    let (follower, report) =
        Follower::open(&follower_root, opts).expect("reopen replica after torn tail");
    assert!(
        report.truncated_tail.is_some(),
        "[{tag} {seed:#x}] recovery must report the torn tail"
    );
    assert!(
        follower.epoch() < epoch_before,
        "[{tag} {seed:#x}] the torn record must cost exactly the unsynced tail \
         (epoch {} vs {epoch_before})",
        follower.epoch()
    );
    assert_eq!(
        leader.attach("replica", follower.epoch()),
        Attach::Resumed,
        "[{tag} {seed:#x}] the leader's WAL chain still covers the recovered epoch"
    );
    for op in &script[8..] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "replica", &transport, &follower, 64).expect("post-restart sync");
    assert_converged(
        &format!("[{tag} {seed:#x}] after torn-tail restart"),
        leader.store(),
        &follower,
        &queries,
    );
}

/// Full failover story: two replicas at different lags (one behind a
/// lossy link), the leader dies, election picks the replica with the
/// newest recoverable state, promotion reopens it as the new leader, and
/// churn continues — the surviving replica converges bitwise against the
/// promoted store across its still-lossy link.
pub fn run_promote_follower_then_continue_churn(tag: &str, seed: u64) {
    let _serialized = gate();
    let tmp = TempDir::new(tag);
    let base = corpus(&CorpusSpec::sized(seed, 6));
    let opts = store_opts(6, 4);
    let leader_store = DurableEngine::create(
        tmp.subdir("leader"),
        tiny_engine(base.clone(), 2),
        opts.clone(),
    )
    .expect("leader store");
    let leader = Leader::new(Arc::new(leader_store), RetryPolicy::immediate());
    let fast = Follower::create(
        tmp.subdir("fast"),
        tiny_engine(base.clone(), 2),
        opts.clone(),
    )
    .expect("fast follower");
    let slow = Follower::create(
        tmp.subdir("slow"),
        tiny_engine(base.clone(), 2),
        opts.clone(),
    )
    .expect("slow follower");
    leader.attach("fast", fast.epoch());
    leader.attach("slow", slow.epoch());
    let t_fast = ChannelTransport::default();
    let t_slow = FaultyTransport::new(ChannelTransport::default(), random_schedule(seed, 60, 25));
    let base_ids: Vec<u64> = base.iter().map(|t| t.id).collect();
    let script = random_script(seed, 18, &base_ids);
    let queries = battery(&base, &script, 6);

    // Both replicas converge on the prefix (the slow one through its
    // lossy link), then only `fast` sees the second batch.
    for op in &script[..6] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "fast", &t_fast, &fast, 64).expect("fast prefix sync");
    sync_to_convergence(&leader, "slow", &t_slow, &slow, 256).expect("slow prefix sync");
    for op in &script[6..12] {
        apply_durable(leader.store(), op);
    }
    sync_to_convergence(&leader, "fast", &t_fast, &fast, 64).expect("fast mid sync");
    assert!(
        fast.epoch() > slow.epoch(),
        "[{tag} {seed:#x}] the scripted prefix must leave the slow replica behind"
    );

    // The leader dies for good; elect among the surviving replicas.
    drop(leader);
    let fast_dir = fast.store_dir();
    let slow_dir = slow.store_dir();
    let ranking = elect(&[fast_dir.clone(), slow_dir]).expect("electable field");
    assert_eq!(
        ranking[0].dir, fast_dir,
        "[{tag} {seed:#x}] election must pick the replica with the newest recoverable epoch"
    );
    drop(fast);
    let (promoted, _) = promote(&ranking[0], opts).expect("promotion opens cleanly");
    let new_leader = Leader::new(Arc::new(promoted), RetryPolicy::immediate());
    new_leader.attach("slow", slow.epoch());

    // Churn continues on the promoted leader; the surviving replica
    // catches up on everything it missed across the same lossy link.
    for op in &script[12..] {
        apply_durable(new_leader.store(), op);
    }
    sync_to_convergence(&new_leader, "slow", &t_slow, &slow, 256).expect("post-promotion sync");
    assert_converged(
        &format!("[{tag} {seed:#x}] after failover churn"),
        new_leader.store(),
        &slow,
        &queries,
    );
}
