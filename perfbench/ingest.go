package main

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sebdb/internal/bench"
	"sebdb/internal/consensus"
	"sebdb/internal/consensus/kafka"
	"sebdb/internal/core"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// ingest: the write path (Q1). Signed donate transactions go through a
// kafka broker with RequireSigs into one subscriber engine that syncs
// every batch, rolls segments, recompresses sealed ones and writes
// checkpoints. Parsing, exec and reads are idle.

// ingestKeep is the CompressAfter distance, also used by the explicit
// sweep that closes the window.
const ingestKeep = 1

type ingestInstance struct {
	eng        *core.Engine
	cfg        core.Config
	broker     *kafka.Broker
	committer  *tracedCommitter // nil in the untraced pass
	pool       []*types.Transaction
	batch      int
	schemaTxs  int
	schemaHgt  uint64
	engClosed  bool
	brokerDone bool
	// wrongExpect makes the durability check expect one tx too many.
	wrongExpect bool
}

func (in *ingestInstance) close() {
	if !in.brokerDone {
		in.broker.Stop() //sebdb:ignore-err Stop never fails once started; teardown only
		in.brokerDone = true
	}
	if !in.engClosed {
		in.eng.Close() //sebdb:ignore-err teardown of a discarded chain
		in.engClosed = true
	}
}

// signPool draws the run's transactions from the seed and signs them
// across one worker per CPU, so client signing is paid in set-up and
// never inside the timed window.
func signPool(seed int64, n int) []*types.Transaction {
	keys := make([]ed25519.PrivateKey, numSenders)
	for s := range keys {
		keys[s] = senderKey(seed, s)
	}
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	pool := make([]*types.Transaction, n)
	senders := make([]int, n)
	for i := range pool {
		s := rng.Intn(numSenders)
		senders[i] = s
		pool[i] = &types.Transaction{
			Ts:    int64(i + 1),
			SenID: senderName(s),
			Tname: "donate",
			Args: []types.Value{
				types.Str(fmt.Sprintf("donor%06d", rng.Intn(1_000_000))),
				types.Str(fmt.Sprintf("project%02d", rng.Intn(50))),
				types.Dec(float64(rng.Intn(fillerMax))),
			},
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				pool[i].Sign(keys[senders[i]])
			}
		}(w)
	}
	wg.Wait()
	return pool
}

// buildIngest opens an empty engine, creates the schema, the layered
// index on donate.amount and the ALI on senid, and starts the broker.
// A nil pool is drawn and signed here (part of set-up).
func buildIngest(o options, dir string, pool []*types.Transaction, tr *tracer) (*ingestInstance, error) {
	if pool == nil {
		pool = signPool(o.seed, o.size.ingestBatch*opCount(o, o.size.ingestRate))
	}
	cfg := core.Config{
		Dir:                dir,
		Sync:               true,
		SegmentSize:        o.size.ingestSegment,
		CompressAfter:      ingestKeep,
		CheckpointInterval: o.size.ingestCheckpoint,
		DefaultSender:      "bench",
	}
	eng, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	in := &ingestInstance{eng: eng, cfg: cfg, pool: pool, batch: o.size.ingestBatch, brokerDone: true, wrongExpect: o.wrongExpect}
	fail := func(err error) (*ingestInstance, error) {
		in.close()
		return nil, err
	}
	if err := bench.SetupSchema(eng); err != nil {
		return fail(err)
	}
	if err := eng.CreateIndex("donate", "amount"); err != nil {
		return fail(err)
	}
	if err := eng.CreateAuthIndex("", "senid"); err != nil {
		return fail(err)
	}
	in.schemaTxs = chainTxs(eng)
	in.schemaHgt = eng.Height()
	// The timeout sits far above one batch's commit time: every batch is
	// cut because it is full, never by the timer.
	in.broker = kafka.New(kafka.Options{BatchSize: o.size.ingestBatch, BatchTimeout: time.Minute, RequireSigs: true})
	var sub consensus.Committer = eng
	if tr != nil {
		in.committer = &tracedCommitter{eng: eng, tr: tr}
		sub = in.committer
	}
	in.broker.Subscribe(sub)
	if err := in.broker.Start(); err != nil {
		return fail(err)
	}
	in.brokerDone = false
	return in, nil
}

// batchTimes is one batch's client-side timing, relative to a tracer
// epoch: first and last Submit call, last Submit return.
type batchTimes struct {
	firstStart, lastStart, lastEnd time.Duration
}

// ingestPass is what one pass over the batches measured.
type ingestPass struct {
	batches, acked, failed int
	errs                   []string
	w                      *window
	times                  []batchTimes
}

// submit runs every batch of the pool: the client submits one batch's
// transactions at once and waits for every ack before the next. The
// window closes with an explicit sweep of sealed segments, so the
// background recompression the batches triggered is paid for inside
// it. clock stamps the batch times the traced pass turns into spans.
func (in *ingestInstance) submit(o options, clock func() time.Duration) *ingestPass {
	n := len(in.pool) / in.batch
	p := &ingestPass{w: newWindow(n)}
	lats := make([]time.Duration, in.batch)
	starts := make([]time.Duration, in.batch)
	ends := make([]time.Duration, in.batch)
	errs := make([]error, in.batch)
	for b := 0; b < n && !p.w.capped(o); b++ {
		var wg sync.WaitGroup
		for k, tx := range in.pool[b*in.batch : (b+1)*in.batch] {
			wg.Add(1)
			go func(k int, tx *types.Transaction) {
				defer wg.Done()
				starts[k] = clock()
				t0 := time.Now()
				errs[k] = in.broker.Submit(tx)
				lats[k] = time.Since(t0)
				ends[k] = clock()
			}(k, tx)
		}
		wg.Wait()
		p.batches++
		bt := batchTimes{firstStart: starts[0], lastStart: starts[0], lastEnd: ends[0]}
		var acked []time.Duration
		for k := range errs {
			if errs[k] != nil {
				p.failed++
				p.errs = appendErr(p.errs, fmt.Errorf("batch %d tx %d: %w", b, k, errs[k]))
				continue
			}
			acked = append(acked, lats[k])
			bt.firstStart = min(bt.firstStart, starts[k])
			bt.lastStart = max(bt.lastStart, starts[k])
			bt.lastEnd = max(bt.lastEnd, ends[k])
		}
		p.acked += len(acked)
		p.w.record(b, acked...)
		p.times = append(p.times, bt)
	}
	if err := in.eng.CompressSealed(ingestKeep); err != nil {
		p.errs = appendErr(p.errs, fmt.Errorf("closing sweep: %w", err))
	}
	p.w.finish()
	return p
}

// durability closes the engine, reopens its directory and checks that
// height, tip hash and committed-tx count equal what was acked.
func (in *ingestInstance) durability(p *ingestPass) []string {
	var errs []string
	in.broker.Stop() //sebdb:ignore-err Stop never fails once started
	in.brokerDone = true
	wantH := in.schemaHgt + uint64(p.batches)
	wantTxs := in.schemaTxs + p.acked
	if in.wrongExpect {
		wantTxs++
	}
	hs := in.eng.Headers()
	if uint64(len(hs)) != wantH {
		errs = append(errs, fmt.Sprintf("height %d after %d acked batches, want %d", len(hs), p.batches, wantH))
	}
	tip := hs[len(hs)-1].Hash()
	if err := in.eng.Close(); err != nil {
		errs = append(errs, fmt.Sprintf("close: %v", err))
	}
	in.engClosed = true
	re, err := core.Open(in.cfg)
	if err != nil {
		return append(errs, fmt.Sprintf("reopen: %v", err))
	}
	defer re.Close() //sebdb:ignore-err read-only check of a discarded chain
	rh := re.Headers()
	switch {
	case uint64(len(rh)) != wantH:
		errs = append(errs, fmt.Sprintf("reopened height %d, want %d", len(rh), wantH))
	case rh[len(rh)-1].Hash() != tip:
		errs = append(errs, "reopened tip hash differs from the acked tip")
	}
	if n := chainTxs(re); n != wantTxs {
		errs = append(errs, fmt.Sprintf("reopened chain holds %d txs, want %d acked + schema", n, wantTxs))
	}
	return errs
}

func runIngest(o options) (*outcome, error) {
	build := func(dir string) (*ingestInstance, error) { return buildIngest(o, dir, nil, nil) }
	in, setup, err := timedSetups(o, build, (*ingestInstance).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	epoch := time.Now()
	p := in.submit(o, func() time.Duration { return time.Since(epoch) })
	out := &outcome{attempted: p.acked + p.failed, failed: p.failed, errs: p.errs,
		metrics: map[string]metric{}, extra: map[string]metric{}}
	disk, err := in.eng.DiskBytes()
	if err != nil {
		return nil, err
	}
	diskPerTx := float64(disk) / float64(chainTxs(in.eng))
	out.settings = append(out.settings,
		fmt.Sprintf("kafka broker: RequireSigs, BatchSize %d, BatchTimeout 1m; one subscriber engine", in.batch),
		fmt.Sprintf("engine: Sync on, SegmentSize %d, CompressAfter %d, CheckpointInterval %d; layered donate.amount, ALI senid",
			in.cfg.SegmentSize, in.cfg.CompressAfter, in.cfg.CheckpointInterval),
		fmt.Sprintf("batches %d, acked txs %d, disk bytes %d", p.batches, p.acked, disk))
	out.errs = append(out.errs, in.durability(p)...)
	if !o.trace {
		commonMetrics(out, o, setup, p.w, diskPerTx, 0)
		opsGate(out, o, p.batches, "batches")
		return out, nil
	}

	// Traced pass: a fresh chain, the same signed pool, the same number
	// of batches.
	tr := newTracer()
	in2, err := buildIngest(o, filepath.Join(o.dir, "traced"), in.pool, tr)
	if err != nil {
		return nil, err
	}
	defer in2.close()
	reg := obs.Default
	rec0 := reg.Counter("sebdb_storage_segments_recompressed_total").Value()
	saved0 := reg.Counter("sebdb_storage_compress_saved_bytes_total").Value()
	ck0 := reg.Counter("sebdb_snapshot_writes_total").Value()
	p2 := in2.submit(o, tr.now)
	rec1 := reg.Counter("sebdb_storage_segments_recompressed_total").Value()
	saved1 := reg.Counter("sebdb_storage_compress_saved_bytes_total").Value()
	ck1 := reg.Counter("sebdb_snapshot_writes_total").Value()
	out.errs = append(out.errs, p2.errs...)
	in2.committer.mu.Lock()
	calls := in2.committer.calls
	in2.committer.mu.Unlock()
	if len(calls) != len(p2.times) {
		return nil, fmt.Errorf("traced pass: %d commits for %d batches", len(calls), len(p2.times))
	}
	var wait, commit, ack, unattr []float64
	for b, bt := range p2.times {
		c := calls[b]
		root := tr.add("op", b, -1, bt.firstStart, bt.lastEnd)
		tr.add("consensus.batch_wait", b, root, bt.lastStart, c.enter)
		tr.add("core.commit", b, root, c.enter, c.exit)
		tr.add("consensus.ack", b, root, c.exit, bt.lastEnd)
		wait = append(wait, us(c.enter-bt.lastStart))
		commit = append(commit, us(c.exit-c.enter))
		ack = append(ack, us(bt.lastEnd-c.exit))
	}
	t := tr.tree()
	for id, s := range t.spans {
		if s.parent < 0 {
			unattr = append(unattr, us(t.unattributed(id)))
		}
	}
	if err := t.write(spanFile(o)); err != nil {
		return nil, err
	}
	acked := float64(max(p2.acked, 1))
	out.metrics = layerMetrics(map[string]float64{
		"consensus.batch_wait_us":       median(wait),
		"core.commit_us":                median(commit),
		"core.commit_p99_us":            quantile(commit, 0.99),
		"consensus.ack_us":              median(ack),
		"storage.segments_recompressed": float64(rec1 - rec0),
		"storage.saved_bytes_per_tx":    float64(saved1-saved0) / acked,
		"snapshot.checkpoints":          float64(ck1 - ck0),
		"bench.unattributed_us":         median(unattr),
		"bench.traced_op_p50_ms":        median(msValues(p2.w.all)),
		"bench.untraced_op_p50_ms":      median(msValues(p.w.all)),
	})
	out.errs = append(out.errs, in2.durability(p2)...)
	return out, nil
}
