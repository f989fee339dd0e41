// Package core implements the SEBDB engine — the paper's primary
// contribution: a blockchain whose transactions are relational tuples,
// queried through a SQL-like language, stored once in append-only block
// files, and accelerated by the block-level, table-level and layered
// indexes of §IV-B. The engine is the per-node database; consensus
// (internal/consensus) decides the order of transactions and calls
// CommitBlock, while standalone users can let the engine package blocks
// itself via Submit/Flush.
package core

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"sebdb/internal/accessctl"
	"sebdb/internal/auth"
	"sebdb/internal/cache"
	"sebdb/internal/clock"
	"sebdb/internal/contract"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/blockindex"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/merkle"
	"sebdb/internal/obs"
	"sebdb/internal/parallel"
	"sebdb/internal/rdbms"
	"sebdb/internal/schema"
	"sebdb/internal/snapshot"
	"sebdb/internal/storage"
	"sebdb/internal/types"
)

// CacheMode selects which derived cache the engine maintains (§VII-H).
type CacheMode int

const (
	// CacheNone disables caching; every read hits the block files.
	CacheNone CacheMode = iota
	// CacheBlocks caches recently read whole blocks.
	CacheBlocks
	// CacheTxs caches recently read individual transactions.
	CacheTxs
)

// Config configures an engine instance.
type Config struct {
	// Dir is the storage directory for block segment files.
	Dir string
	// SegmentSize overrides the 256 MB default block-file size.
	SegmentSize int64
	// BlockMaxTxs caps the number of transactions packaged per block.
	// Zero means 200 (the paper's write-benchmark setting).
	BlockMaxTxs int
	// CacheMode selects the cache policy; CacheBytes its capacity
	// (default 2 GB, the paper's §VII-H setting). CacheShards stripes
	// the cache over independently locked shards (rounded up to a power
	// of two; zero means cache.DefaultShards) so view reads on
	// different keys stop contending on one mutex.
	CacheMode   CacheMode
	CacheBytes  int64
	CacheShards int
	// Mmap serves sealed (read-only) segments from memory maps where
	// the platform supports it; the active tail segment and any failed
	// map fall back to positional reads. See storage.Options.Mmap.
	Mmap bool
	// CompressAfter enables the background recompression pass: sealed
	// segments at least CompressAfter segments behind the active tail
	// are rewritten with per-record compression. Zero disables the
	// pass; CompressSealed still works for explicit sweeps.
	CompressAfter int
	// MaxOpenSegments bounds the store's per-segment read handles
	// (descriptors or mappings). Zero means
	// storage.DefaultMaxOpenSegments.
	MaxOpenSegments int
	// HistogramDepth is the first-level equal-depth histogram height for
	// continuous layered indexes (default 100, §VII-D).
	HistogramDepth int
	// MBTreeFanout is the ALI page fanout (default mbtree.DefaultFanout).
	MBTreeFanout int
	// Parallelism bounds the worker pool of both the read pipeline
	// (parallel scans, chain replay on Open, index backfill) and the
	// commit pipeline (transaction sealing and Merkle hashing in the
	// prepare stage, per-index fan-out in the index stage). Zero means
	// GOMAXPROCS; 1 makes every pipeline sequential.
	Parallelism int
	// Sync makes the block store fsync appended segments before a commit
	// reports success. Batched commits — FlushAt and consensus batches —
	// are covered by one group fsync per batch rather than one per
	// block; see storage.Store.SyncBatch. Default off: consensus
	// replication is the usual durability story.
	Sync bool
	// Signer names this node as block packager; Key signs headers.
	Signer string
	Key    ed25519.PrivateKey
	// DefaultSender is the SenID used by Execute when no session sender
	// is given.
	DefaultSender string
	// Clock supplies transaction and block timestamps (Unix micros).
	// Nil means the wall clock; tests inject clock.Fixed for
	// deterministic timing.
	Clock clock.Source
	// Obs is the metrics registry the engine and its operators report
	// into. Nil means obs.Default (what the server's /metrics exposes).
	Obs *obs.Registry
	// Recorder is the statement flight recorder: every Execute runs
	// under a sampled trace and slow statements are captured with their
	// span trees (see internal/obs). Nil disables recording — the
	// statement path then pays one nil check.
	Recorder *obs.Recorder
	// Log is the structured event logger the engine reports lifecycle
	// events into (DDL, rollbacks, checkpoints, commits at debug). Nil
	// disables event logging; every call is then a no-op.
	Log *obs.Logger
	// CheckpointInterval writes a derived-state checkpoint every that
	// many blocks (see internal/snapshot). Zero disables automatic
	// checkpointing; WriteCheckpoint still works.
	CheckpointInterval int
	// DisableCheckpointLoad makes Open ignore any existing checkpoint
	// and rebuild by full chain replay — the comparison baseline for
	// recovery benchmarks and crash-equivalence tests.
	DisableCheckpointLoad bool
	// FS injects the filesystem the store and checkpoint directory use.
	// Nil means the real one; tests inject faultfs.Injector to exercise
	// crash-restart behaviour.
	FS faultfs.FS
}

func (c *Config) fill() {
	if c.BlockMaxTxs == 0 {
		c.BlockMaxTxs = 200
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 2 << 30
	}
	if c.HistogramDepth == 0 {
		c.HistogramDepth = 100
	}
	if c.Parallelism == 0 {
		c.Parallelism = parallel.Default()
	}
	if c.Signer == "" {
		c.Signer = "node0"
	}
	if c.Key == nil {
		c.Key = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	}
	if c.DefaultSender == "" {
		c.DefaultSender = c.Signer
	}
	if c.Clock == nil {
		c.Clock = clock.UnixMicro
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
}

// indexSpec remembers a user-created layered index so it can be
// maintained on append.
type indexSpec struct {
	table string // "" for the global system indexes
	col   string
}

func (s indexSpec) key() string { return s.table + "." + s.col }

// Engine is one node's SEBDB instance.
type Engine struct {
	cfg     Config
	store   *storage.Store
	catalog *schema.Catalog
	offDB   *rdbms.DB

	// blockIdx and tableIdx are created once in Open and carry their own
	// internal locks, so readers reach them without taking e.mu.
	blockIdx *blockindex.Index
	tableIdx *bitmap.TableIndex // keys: table names and "senid:<id>"

	// par is the worker bound of the read and commit pipelines
	// (Config.Parallelism), atomic so SetParallelism can retune it while
	// queries and commits run.
	par atomic.Int32

	// commitMu serialises writers through the staged commit pipeline:
	// the prepare stage (Tid assignment against the cursor, parallel
	// transaction sealing and Merkle hashing, header signing, and
	// foreign-block validation) runs under commitMu alone, so readers —
	// which take only e.mu — never wait behind hashing. The short
	// commit+index stages then take e.mu; the group fsync runs after it
	// is released again. Lock order: commitMu before e.mu, never the
	// reverse.
	commitMu sync.Mutex

	mu      sync.RWMutex // guards the index maps and the write path
	lidx    map[string]*layered.Index
	alis    map[string]*auth.ALI
	lastTid uint64
	lastTs  int64

	// snapDir is the checkpoint directory; ckptErr (guarded by e.mu) the
	// outcome of the last automatic checkpoint; recovery the finished
	// Open span tree, written once before the engine is shared.
	snapDir  *snapshot.Dir
	ckptErr  error
	recovery *obs.Span

	// ckptMu serialises checkpoint persists (which run outside e.mu so
	// commits and reads are never stalled behind the fsync) and guards
	// ckptFloor, the height of the newest persisted checkpoint.
	ckptMu    sync.Mutex
	ckptFloor uint64

	mempool   []*types.Transaction
	acl       *accessctl.Controller
	contracts *contract.Registry

	// log is the engine's component logger (Config.Log tagged "core");
	// nil — and therefore a no-op — when event logging is off.
	log *obs.Logger

	// keyMu guards the sender signing keys on their own lock: signing a
	// transaction happens on read paths' write cousins (execCreate,
	// DeployContract, NewTransaction) and must never touch e.mu.
	keyMu sync.RWMutex
	keys  map[string]ed25519.PrivateKey

	blockCache *cache.Sharded
	txCache    *cache.Sharded

	// compactStop/compactDone manage the background recompression
	// goroutine (see compact.go); nil when Config.CompressAfter is 0.
	compactStop chan struct{}
	compactDone chan struct{}

	// view is the published height-pinned read snapshot (see view.go);
	// readers Load it, the commit pipeline Stores a replacement at the
	// end of each index window. viewEpoch numbers the publishes.
	view      atomic.Pointer[View]
	viewEpoch atomic.Uint64

	// follower, when set, makes the local write entry points (Submit,
	// Flush/FlushAt, CommitBlock) fail with ErrFollower: a follower's
	// chain advances only through ApplyBlock on leader-pushed blocks, so
	// a locally minted block would fork it away from the leader.
	follower atomic.Bool

	// heightMu guards heightCh, a broadcast channel closed-and-replaced
	// every time a new view publishes. HeightSignal hands the current
	// channel to tailers (the replica subscription service) that wait
	// for the chain to advance without polling.
	heightMu sync.Mutex
	heightCh chan struct{}

	// mPrepare, mAppend and mIndex time the commit pipeline's three
	// stages into sebdb_stage_micros (stages commit.prepare,
	// commit.append, commit.index), resolved once at construction so the
	// hot path never takes the registry lock. mViewSwap and gViewEpoch
	// track the view publish cost and the running epoch.
	mPrepare, mAppend, mIndex *obs.Histogram
	mViewSwap                 *obs.Histogram
	gViewEpoch                *obs.Gauge
}

// Open opens (creating if needed) an engine over cfg.Dir and rebuilds
// catalog and system indexes — from the newest valid checkpoint plus a
// suffix replay when one exists, by full chain replay otherwise. The
// recovery is traced; ExplainRecovery reports where the time went.
func Open(cfg Config) (*Engine, error) {
	cfg.fill()
	tctx, root := obs.NewTrace(context.Background(), cfg.Obs, "recovery")
	e, err := openTraced(tctx, cfg)
	root.Finish()
	if err != nil {
		return nil, err
	}
	e.recovery = root
	e.log.Info("engine opened",
		"dir", cfg.Dir, "height", e.Height(), "recovery_micros", root.DurationMicros())
	if cfg.CompressAfter > 0 {
		e.startCompactor()
	}
	return e, nil
}

func openTraced(ctx context.Context, cfg Config) (*Engine, error) {
	snapDir := snapshot.NewDir(cfg.FS, cfg.Dir)
	sopts := storage.Options{SegmentSize: cfg.SegmentSize, Sync: cfg.Sync, FS: cfg.FS,
		Mmap: cfg.Mmap, MaxOpenSegments: cfg.MaxOpenSegments,
		Log: cfg.Log.With("storage")}

	// Phase 1: checkpoint. Load the pinned checkpoint, verify its anchor
	// against the segment store by fast-opening with the embedded
	// metadata, and seed the derived state from it. Every failure mode
	// drops back to full replay — never wrong answers, only slower ones.
	_, ckSpan := obs.StartSpan(ctx, "recovery.checkpoint")
	var ck *snapshot.Checkpoint
	if !cfg.DisableCheckpointLoad {
		c, err := snapDir.Load()
		if err != nil {
			ckSpan.Finish()
			return nil, err
		}
		ck = c
	}
	var st *storage.Store
	if ck != nil {
		s, err := storage.OpenWithMeta(cfg.Dir, sopts, ck.Store)
		switch {
		case err == nil:
			st = s
		case errors.Is(err, storage.ErrMetaMismatch):
			// Stale or tampered: the checkpoint does not describe the
			// chain on disk. Discard it.
			cfg.Obs.Counter("sebdb_snapshot_anchor_mismatch_total").Inc()
			ck = nil
		default:
			ckSpan.Finish()
			return nil, err
		}
	}
	if st == nil {
		s, err := storage.Open(cfg.Dir, sopts)
		if err != nil {
			ckSpan.Finish()
			return nil, err
		}
		st = s
	}
	e := newEngine(cfg, st, snapDir)
	var base uint64
	if ck != nil {
		if err := e.restoreCheckpoint(ck); err != nil {
			// The checkpoint decoded but disagrees with itself; rebuild
			// everything from the chain instead.
			cfg.Obs.Counter("sebdb_snapshot_restore_errors_total").Inc()
			if cerr := st.Close(); cerr != nil {
				ckSpan.Finish()
				return nil, cerr
			}
			st, err = storage.Open(cfg.Dir, sopts)
			if err != nil {
				ckSpan.Finish()
				return nil, err
			}
			e = newEngine(cfg, st, snapDir)
		} else {
			base = ck.Height
		}
	}
	ckSpan.Finish()

	// Phase 2: replay the remaining suffix (the whole chain when no
	// checkpoint seeded state): catalog, indexes and counters. Blocks are
	// decoded ahead by the worker pool; indexing itself stays on this
	// goroutine in height order (Tids, bitmaps and layered appends all
	// assume blocks arrive in order).
	_, repSpan := obs.StartSpan(ctx, "recovery.replay")
	defer repSpan.Finish()
	n := uint64(st.Count())
	if n > base {
		it, err := st.Blocks(base, n)
		if err != nil {
			return nil, err
		}
		err = parallel.Ordered(e.Parallelism(), int(n-base),
			func(i int) (*types.Block, error) { return it.Read(base + uint64(i)) },
			func(_ int, b *types.Block) error { return e.indexBlock(b) })
		it.Close()
		if err != nil {
			return nil, err
		}
	}
	cfg.Obs.Counter("sebdb_snapshot_suffix_blocks").Add(n - base)
	repSpan.AddCounter("suffix_blocks", int64(n-base))
	// Replay persisted user index definitions (indexes the checkpoint
	// already restored are kept; ones created after it backfill from the
	// chain).
	if err := e.loadIndexMeta(); err != nil {
		return nil, err
	}
	// Publish the recovered state as the first real view: replay does not
	// publish per block (nobody can read mid-recovery), so this is where
	// readers first see the chain.
	e.publishView()
	return e, nil
}

// newEngine builds the in-memory engine shell over an opened store.
func newEngine(cfg Config, st *storage.Store, snapDir *snapshot.Dir) *Engine {
	e := &Engine{
		cfg:        cfg,
		store:      st,
		catalog:    schema.NewCatalog(),
		offDB:      rdbms.New(),
		blockIdx:   blockindex.New(),
		tableIdx:   bitmap.NewTableIndex(),
		lidx:       make(map[string]*layered.Index),
		alis:       make(map[string]*auth.ALI),
		keys:       make(map[string]ed25519.PrivateKey),
		acl:        accessctl.New(),
		contracts:  contract.NewRegistry(),
		log:        cfg.Log.With("core"),
		snapDir:    snapDir,
		mPrepare:   cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.prepare"}`),
		mAppend:    cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.append"}`),
		mIndex:     cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.index"}`),
		mViewSwap:  cfg.Obs.Histogram("sebdb_view_swap_micros"),
		gViewEpoch: cfg.Obs.Gauge("sebdb_view_epoch"),
	}
	e.par.Store(int32(cfg.Parallelism))
	switch cfg.CacheMode {
	case CacheBlocks:
		e.blockCache = cache.NewSharded(cfg.CacheBytes, cfg.CacheShards)
	case CacheTxs:
		e.txCache = cache.NewSharded(cfg.CacheBytes, cfg.CacheShards)
	}
	// The global track-trace indexes on the system columns are always
	// present (§V-A: "the layered indices on column SenID and Tname are
	// pre-created ... on all tables for all historical transactions").
	// A checkpoint restore replaces them with the serialised state.
	e.lidx[".senid"] = layered.NewDiscrete("senid")
	e.lidx[".tname"] = layered.NewDiscrete("tname")
	e.heightCh = make(chan struct{})
	// Install an empty view so CurrentView never returns nil; the real
	// one is published once recovery has rebuilt the derived state. The
	// shell is not shared yet, so no lock is needed.
	e.view.Store(e.buildView(0))
	return e
}

// RecoveryTrace returns the finished span tree of the last Open: a
// "recovery" root with "recovery.checkpoint" (checkpoint load, anchor
// verification, state restore) and "recovery.replay" (suffix replay and
// index-definition reload) children. Their durations also feed the
// sebdb_stage_micros metrics.
func (e *Engine) RecoveryTrace() *obs.Span { return e.recovery }

// ExplainRecovery renders the recovery trace the way EXPLAIN ANALYZE
// renders a query trace: one row per stage with its wall time, so
// checkpoint-load vs suffix-replay cost is inspectable.
func (e *Engine) ExplainRecovery() *Result {
	if e.recovery == nil {
		return &Result{Columns: []string{"stage", "micros", "blocks_read",
			"txs_examined", "index_probes", "detail"}}
	}
	return renderTrace(e.recovery)
}

// Close stops the background compactor (if running) and releases the
// engine's resources.
func (e *Engine) Close() error {
	e.stopCompactor()
	return e.store.Close()
}

// OffChain returns the node-local off-chain RDBMS.
func (e *Engine) OffChain() *rdbms.DB { return e.offDB }

// AccessControl returns the node's channel/permission configuration
// (paper §III-B's application-layer access control). A fresh engine
// permits everything (all tables in the public channel).
func (e *Engine) AccessControl() *accessctl.Controller { return e.acl }

// Catalog returns the schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.catalog }

// Height returns the chain height (number of blocks).
func (e *Engine) Height() uint64 { return uint64(e.store.Count()) }

// Recorder returns the engine's statement flight recorder (nil when
// tracing is off); callers that run queries below the SQL layer can
// record statements against it directly.
func (e *Engine) Recorder() *obs.Recorder { return e.cfg.Recorder }

// Parallelism returns the read and commit pipelines' worker bound
// (>= 1).
func (e *Engine) Parallelism() int {
	if n := int(e.par.Load()); n > 1 {
		return n
	}
	return 1
}

// SetParallelism retunes the worker bound at runtime; values below 1
// make reads sequential. The benchmark harness uses it to sweep the
// worker axis over one loaded chain.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.par.Store(int32(n))
}

// Headers returns all block headers (what a thin client syncs).
func (e *Engine) Headers() []types.BlockHeader { return e.store.Headers() }

// nowMicro returns the engine clock's current time in Unix
// microseconds.
func (e *Engine) nowMicro() int64 { return e.cfg.Clock() }

// Obs returns the engine's metrics registry; views hand it to the query
// operators, so they report into the same registry the server exposes.
func (e *Engine) Obs() *obs.Registry { return e.cfg.Obs }

// EventLog returns the engine's base event logger (Config.Log, untagged;
// possibly nil — obs.Logger is nil-safe). Subsystems layered over the
// engine (node, replica) derive their component loggers from it.
func (e *Engine) EventLog() *obs.Logger { return e.cfg.Log }

// RegisterKey associates a sender identity with a signing key; Submit
// and Execute sign transactions from that sender.
func (e *Engine) RegisterKey(sender string, key ed25519.PrivateKey) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	e.keys[sender] = key
}

// signFor signs tx with sender's registered key, if any. It is the one
// signing block shared by NewTransaction, execCreate and
// DeployContract; it takes only keyMu, never e.mu.
func (e *Engine) signFor(tx *types.Transaction, sender string) {
	e.keyMu.RLock()
	key, ok := e.keys[sender]
	e.keyMu.RUnlock()
	if ok {
		tx.Sign(key)
	}
}

// txCommitted reports whether tx landed on the chain: a committed
// transaction has a Tid assigned at or below the commit cursor. The DDL
// rollback paths use it to distinguish an append failure (tx never
// committed — roll the local registration back) from a sync failure
// after the commit (tx is chain state — keep the registration).
func (e *Engine) txCommitted(tx *types.Transaction) bool {
	if tx.Tid == 0 {
		return false
	}
	e.mu.RLock()
	last := e.lastTid
	e.mu.RUnlock()
	return tx.Tid <= last
}

// NewTransaction builds (and signs, when the sender has a registered
// key) a transaction for the given table, validating the args against
// the schema. The Tid is assigned at commit time.
func (e *Engine) NewTransaction(sender, tname string, args []types.Value) (*types.Transaction, error) {
	tbl, err := e.catalog.Lookup(tname)
	if err != nil {
		return nil, err
	}
	vals, err := tbl.ValidateArgs(args)
	if err != nil {
		return nil, err
	}
	tx := &types.Transaction{
		Ts:    e.nowMicro(),
		SenID: sender,
		Tname: tbl.Name,
		Args:  vals,
	}
	e.signFor(tx, sender)
	return tx, nil
}

// ErrFollower rejects local write entry points on an engine running in
// follower mode; its chain advances only through ApplyBlock.
var ErrFollower = errors.New("core: engine is a follower; writes go to the leader")

// SetFollower switches the engine's follower mode. A follower rejects
// Submit/Flush/CommitBlock with ErrFollower so it can never mint a block
// that forks it away from its leader; ApplyBlock (replicated, verified
// blocks) stays open, as do all reads.
func (e *Engine) SetFollower(on bool) { e.follower.Store(on) }

// IsFollower reports whether the engine is in follower mode.
func (e *Engine) IsFollower() bool { return e.follower.Load() }

// HeightSignal returns a channel closed the next time a new view
// publishes (commit, apply, DDL, index creation). Waiters select on it,
// then call Height/CurrentView and re-arm by calling HeightSignal again.
// Because the channel is replaced on every publish, a waiter must
// re-check the height after grabbing the channel to close the
// check-then-wait race.
func (e *Engine) HeightSignal() <-chan struct{} {
	e.heightMu.Lock()
	ch := e.heightCh
	e.heightMu.Unlock()
	return ch
}

// bumpHeightSignal wakes every HeightSignal waiter. Called with e.mu
// held (from publishViewLocked); heightMu nests inside e.mu and is never
// held across anything blocking.
func (e *Engine) bumpHeightSignal() {
	e.heightMu.Lock()
	close(e.heightCh)
	e.heightCh = make(chan struct{})
	e.heightMu.Unlock()
}

// Submit appends a transaction to the standalone mempool, packaging a
// block when BlockMaxTxs accumulate. Consensus-driven deployments skip
// Submit and deliver ordered batches through CommitBlock instead.
func (e *Engine) Submit(tx *types.Transaction) error {
	if e.follower.Load() {
		return ErrFollower
	}
	e.mu.Lock()
	e.mempool = append(e.mempool, tx)
	full := len(e.mempool) >= e.cfg.BlockMaxTxs
	e.mu.Unlock()
	if full {
		return e.Flush()
	}
	return nil
}

// Flush packages all pending mempool transactions, stamping blocks with
// the current time.
func (e *Engine) Flush() error { return e.FlushAt(e.nowMicro()) }

// FlushAt packages all pending mempool transactions into blocks stamped
// with the given timestamp (clamped to stay monotonic). Deterministic
// loaders — the benchmark's data generator — use it to control the
// chain's time axis.
func (e *Engine) FlushAt(ts int64) error {
	if e.follower.Load() {
		return ErrFollower
	}
	e.mu.Lock()
	pending := e.mempool
	e.mempool = nil
	e.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	// All blocks of one flush run through the pipeline back to back with
	// the per-block fsync deferred; a single group fsync at the end makes
	// the whole batch durable (see syncCommitted for why a crash in
	// between cannot corrupt the chain).
	e.commitMu.Lock()
	var ck *snapshot.Checkpoint
	var err error
	for len(pending) > 0 && err == nil {
		n := len(pending)
		if n > e.cfg.BlockMaxTxs {
			n = e.cfg.BlockMaxTxs
		}
		var c *snapshot.Checkpoint
		//sebdb:ignore-lockio reason: commitMu is the writer-pipeline lock; it exists to serialise the append+fsync pipeline, and readers never take it
		_, c, err = e.commitOne(pending[:n], ts, false)
		if c != nil {
			ck = c
		}
		pending = pending[n:]
	}
	//sebdb:ignore-lockio reason: the batch group fsync runs under commitMu by design — writers queue behind durability, readers never take commitMu
	if serr := e.syncCommitted(); err == nil {
		err = serr
	}
	e.commitMu.Unlock()
	e.finishCheckpoint(ck)
	return err
}

// CommitBlock packages the ordered transactions into the next block,
// appends it durably and updates every index. It assigns Tids in order
// and is the single entry point consensus uses to apply a decided batch.
//
// The commit is a staged pipeline. The prepare stage — timestamp clamp,
// Tid assignment, sealing and Merkle-hashing every transaction with the
// worker pool, header chain and signature — runs under commitMu only,
// so concurrent readers are never stalled behind hashing. The commit
// and index stages take e.mu for the segment append and the fanned-out
// index maintenance. When the commit lands on a checkpoint-interval
// boundary the state is snapshotted under the lock, but the
// checkpoint's encode and fsync+rename happen after every lock is
// released, so neither reads nor the next commit stall behind
// checkpoint I/O.
func (e *Engine) CommitBlock(txs []*types.Transaction, ts int64) (*types.Block, error) {
	if e.follower.Load() {
		return nil, ErrFollower
	}
	e.commitMu.Lock()
	//sebdb:ignore-lockio reason: commitMu serialises the writer pipeline including the block fsync; readers never take it, and checkpoint I/O is outside it
	b, ck, err := e.commitOne(txs, ts, true)
	e.commitMu.Unlock()
	if err != nil {
		return nil, err
	}
	e.finishCheckpoint(ck)
	return b, nil
}

// commitOne runs one block through the pipeline. Callers hold commitMu.
// syncNow makes the block durable before returning; batch callers pass
// false and issue one group fsync for the whole batch instead.
func (e *Engine) commitOne(txs []*types.Transaction, ts int64, syncNow bool) (*types.Block, *snapshot.Checkpoint, error) {
	start := e.cfg.Obs.Now()
	b := e.prepareBlock(txs, ts)
	prepared := e.cfg.Obs.Now()
	e.mPrepare.Observe(prepared - start)

	e.mu.Lock()
	//sebdb:ignore-lockio reason: AppendNoSync is a buffered segment append — it fsyncs only on segment roll, an audited rarity; the per-block fsync is outside e.mu
	if _, err := e.store.AppendNoSync(b); err != nil {
		e.mu.Unlock()
		return nil, nil, err
	}
	appended := e.cfg.Obs.Now()
	if err := e.indexBlockLocked(b); err != nil {
		e.mu.Unlock()
		return nil, nil, err
	}
	ck := e.maybeBuildCheckpointLocked()
	e.publishViewLocked()
	e.mu.Unlock()
	e.mAppend.Observe(appended - prepared)
	e.mIndex.Observe(e.cfg.Obs.Now() - appended)
	e.log.Debug("block committed",
		"height", b.Header.Height, "txs", len(b.Txs), "first_tid", b.Header.FirstTid)

	if syncNow {
		if err := e.syncCommitted(); err != nil {
			return nil, ck, err
		}
	}
	return b, ck, nil
}

// prepareBlock is the pipeline's lock-free stage: it stamps the batch
// against the commit cursor, seals and leaf-hashes every transaction
// with the worker pool, reduces the Merkle root in parallel, and builds
// the signed header. Callers hold commitMu, which makes the cursor read
// stable — commitMu holders are the only writers of lastTid/lastTs and
// the tip — while e.mu is held only for the brief cursor read.
func (e *Engine) prepareBlock(txs []*types.Transaction, ts int64) *types.Block {
	e.mu.RLock()
	lastTid, lastTs := e.lastTid, e.lastTs
	e.mu.RUnlock()
	// Monotonic block timestamps keep the block-level index's time
	// lookups well-defined.
	if ts <= lastTs {
		ts = lastTs + 1
	}
	for i, tx := range txs {
		tx.Tid = lastTid + uint64(i) + 1
	}
	workers := e.Parallelism()
	leaves := types.TxLeavesWorkers(txs, workers)
	root := merkle.RootWorkers(leaves, workers)
	var prev *types.BlockHeader
	if tip, ok := e.store.Tip(); ok {
		prev = &tip
	}
	b := types.NewBlockFromRoot(prev, txs, root, ts, e.cfg.Signer)
	b.Header.Sign(e.cfg.Key)
	return b
}

// syncCommitted is the pipeline's group fsync, covering every block
// appended with AppendNoSync since the last one. It runs outside e.mu
// (readers proceed; commitMu still serialises writers), which is safe
// because a crash before the fsync can only lose an unsynced suffix of
// appended blocks — recovery's torn-tail truncate restores the last
// durable prefix, never a chain with a gap. A sync failure is reported
// to the committer; the blocks stay applied in memory, since they are
// valid chain state that consensus has already replicated.
func (e *Engine) syncCommitted() error {
	if !e.cfg.Sync {
		return nil
	}
	return e.store.SyncBatch()
}

// ApplyBlock accepts a block produced elsewhere — pulled by gossip,
// pushed to a follower or streamed by fast-sync — and indexes it. It is
// the one place the rule for a foreign block lives: the header must
// extend the local tip (types.BlockHeader.Extends: height, PrevHash,
// packager signature), then the body must match the header's Merkle
// root. It runs the same staged pipeline as CommitBlock with that
// validation — the foreign-block equivalent of prepare — fanned out off
// the engine lock; any due checkpoint is built under the lock and
// persisted outside it.
func (e *Engine) ApplyBlock(b *types.Block) error {
	e.commitMu.Lock()
	//sebdb:ignore-lockio reason: commitMu serialises the foreign-block pipeline including its fsync; readers never take it
	ck, err := e.applyOne(b)
	e.commitMu.Unlock()
	if err != nil {
		return err
	}
	e.finishCheckpoint(ck)
	return nil
}

// applyOne runs a foreign block through the pipeline. Callers hold
// commitMu, which keeps the tip stable: commitMu holders are the only
// appenders.
func (e *Engine) applyOne(b *types.Block) (*snapshot.Checkpoint, error) {
	start := e.cfg.Obs.Now()
	var tip *types.BlockHeader
	if t, ok := e.store.Tip(); ok {
		tip = &t
	}
	if err := b.Header.Extends(tip); err != nil {
		return nil, err
	}
	if err := b.ValidateWorkers(e.Parallelism()); err != nil {
		return nil, err
	}
	prepared := e.cfg.Obs.Now()
	e.mPrepare.Observe(prepared - start)

	e.mu.Lock()
	//sebdb:ignore-lockio reason: AppendNoSync is a buffered segment append — it fsyncs only on segment roll, an audited rarity; the per-block fsync is outside e.mu
	if _, err := e.store.AppendNoSync(b); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	appended := e.cfg.Obs.Now()
	if err := e.indexBlockLocked(b); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	ck := e.maybeBuildCheckpointLocked()
	e.publishViewLocked()
	e.mu.Unlock()
	e.mAppend.Observe(appended - prepared)
	e.mIndex.Observe(e.cfg.Obs.Now() - appended)
	e.log.Debug("block applied",
		"height", b.Header.Height, "txs", len(b.Txs), "signer", b.Header.Signer)
	return ck, e.syncCommitted()
}

// indexBlock locks and indexes (used during replay).
func (e *Engine) indexBlock(b *types.Block) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.indexBlockLocked(b)
}

// indexBlockLocked updates catalog, counters and all indexes for a
// newly appended block. Callers hold e.mu.
func (e *Engine) indexBlockLocked(b *types.Block) error {
	bid := b.Header.Height
	for _, tx := range b.Txs {
		if err := e.catalog.ApplyTx(tx); err != nil {
			return err
		}
		if err := e.contracts.ApplyTx(tx.Tname, tx.Args); err != nil {
			return err
		}
		if tx.Tid > e.lastTid {
			e.lastTid = tx.Tid
		}
	}
	if b.Header.Timestamp > e.lastTs {
		e.lastTs = b.Header.Timestamp
	}

	lastTid := b.Header.FirstTid
	if n := len(b.Txs); n > 0 {
		lastTid = b.Txs[n-1].Tid
	}
	e.blockIdx.Append(bid, b.Header.FirstTid, lastTid, b.Header.Timestamp)

	// Table-level bitmaps on Tname and SenID.
	for _, tx := range b.Txs {
		e.tableIdx.Mark(tx.Tname, int(bid))
		e.tableIdx.Mark("senid:"+tx.SenID, int(bid))
	}

	// Layered indexes and ALIs: the global system ones plus any user
	// indexes. Each index is self-contained, so the per-index extract +
	// append work fans out to the worker pool; the join happens before
	// e.mu is released, so readers never see a block half-indexed and
	// crash/replay fingerprints are identical to the serial walk. Keys
	// are sorted so a failure is always reported for the same index
	// regardless of scheduling.
	tasks := make([]func() error, 0, len(e.lidx)+len(e.alis))
	for _, key := range sortedKeys(e.lidx) {
		idx := e.lidx[key]
		tasks = append(tasks, func() error {
			entries, err := e.entriesFor(key, b)
			if err != nil {
				return err
			}
			idx.AppendBlock(bid, entries)
			return nil
		})
	}
	for _, key := range sortedKeys(e.alis) {
		ali := e.alis[key]
		tasks = append(tasks, func() error {
			recs, err := e.recordsFor(key, b)
			if err != nil {
				return err
			}
			ali.AppendBlock(bid, recs)
			return nil
		})
	}
	return parallel.Ordered(e.Parallelism(), len(tasks),
		func(i int) (struct{}, error) { return struct{}{}, tasks[i]() },
		func(int, struct{}) error { return nil })
}

// entriesFor extracts the layered-index entries of one block for the
// index identified by key ("table.col" or ".senid"/".tname").
func (e *Engine) entriesFor(key string, b *types.Block) ([]layered.Entry, error) {
	value := e.extractorFor(key)
	var out []layered.Entry
	for pos, tx := range b.Txs {
		v, ok, err := value(tx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, layered.Entry{Key: v, Pos: uint32(pos)})
		}
	}
	return out, nil
}

// recordsFor extracts the ALI records of one block. Transactions sealed
// by the commit pipeline contribute their cached encoding as the
// payload — the same bytes an unsealed re-encode would produce.
func (e *Engine) recordsFor(key string, b *types.Block) ([]mbtree.Record, error) {
	value := e.extractorFor(key)
	var out []mbtree.Record
	for _, tx := range b.Txs {
		v, ok, err := value(tx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, mbtree.Record{Key: v, Payload: tx.EncodeBytes()})
		}
	}
	return out, nil
}

// extractorFor resolves one index key's per-transaction value lookup
// once per block and returns the cheap per-transaction closure: the
// schema lookup and column-position resolution that used to repeat for
// every transaction of every index are hoisted out of the loop. The
// closure reports ok=false for transactions outside the indexed table.
// The schema resolves lazily on the first matching transaction, so
// blocks without the indexed table never consult the catalog. Each call
// returns a fresh closure, so extractors may run concurrently — one per
// index task of the commit pipeline's fan-out, or one per block of a
// backfill.
func (e *Engine) extractorFor(key string) func(tx *types.Transaction) (types.Value, bool, error) {
	spec := splitKey(key)
	if spec.table == "" {
		// Global system index: every transaction carries the value.
		return func(tx *types.Transaction) (types.Value, bool, error) {
			v, err := tx.SystemValue(spec.col)
			if err != nil {
				return types.Null, false, err
			}
			return v, true, nil
		}
	}
	col := strings.ToLower(spec.col)
	if _, err := types.SystemColumnKind(col); err == nil {
		// A table-scoped index on a system column needs no schema at all.
		return func(tx *types.Transaction) (types.Value, bool, error) {
			if tx.Tname != spec.table {
				return types.Null, false, nil
			}
			v, err := tx.SystemValue(col)
			if err != nil {
				return types.Null, false, err
			}
			return v, true, nil
		}
	}
	pos := -1
	return func(tx *types.Transaction) (types.Value, bool, error) {
		if tx.Tname != spec.table {
			return types.Null, false, nil
		}
		if pos < 0 {
			tbl, err := e.catalog.Lookup(spec.table)
			if err != nil {
				return types.Null, false, err
			}
			if pos = tbl.ColumnIndex(col); pos < 0 {
				return types.Null, false, fmt.Errorf("core: table %q has no column %q", spec.table, col)
			}
		}
		v, err := tx.Column(pos)
		if err != nil {
			return types.Null, false, err
		}
		return v, true, nil
	}
}

func splitKey(key string) indexSpec {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return indexSpec{table: key[:i], col: key[i+1:]}
		}
	}
	return indexSpec{col: key}
}
