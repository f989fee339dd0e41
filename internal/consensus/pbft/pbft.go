// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99) as SEBDB's BFT consensus plug-in, standing in for the
// Tendermint component of the paper's evaluation (§VII-B) — Tendermint
// is a PBFT-family protocol, and the serial check-then-deliver path the
// paper identifies as its bottleneck is modelled here explicitly.
//
// The cluster runs n = 3f+1 replicas as goroutines exchanging messages
// through in-process inboxes. The normal case is the full three-phase
// protocol: the primary assigns a sequence number and broadcasts
// PRE-PREPARE; replicas broadcast PREPARE and, having collected 2f
// matching ones, COMMIT; a batch executes once 2f+1 COMMITs arrive and
// every lower sequence number has executed. A silent (crashed or
// Byzantine-muted) primary is detected by request timeout and replaced
// through a simplified view change.
package pbft

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/consensus"
	"sebdb/internal/obs"
	"sebdb/internal/parallel"
	"sebdb/internal/types"
)

// Options configures a cluster.
type Options struct {
	// F is the tolerated number of faulty replicas; the cluster has
	// 3F+1 replicas. Default 1 (4 replicas, the paper's deployment).
	F int
	// BatchSize caps transactions per proposal (default 10000, the
	// paper's Tendermint block size).
	BatchSize int
	// BatchTimeout proposes a non-empty partial batch after this delay
	// (default 200 ms).
	BatchTimeout time.Duration
	// ViewChangeTimeout is how long a replica waits for progress on a
	// pending request before suspecting the primary (default 1 s).
	ViewChangeTimeout time.Duration
	// RequireSigs makes the CheckTx step reject transactions without a
	// valid sender signature. The check runs once per proposed batch,
	// fanned out over Parallelism workers — rather than serially per
	// submission, the bottleneck the paper attributes to Tendermint's
	// check-then-deliver path.
	RequireSigs bool
	// Parallelism bounds the batch signature-verification fan-out.
	// Zero means GOMAXPROCS.
	Parallelism int
	// Now supplies block timestamps (default clock.UnixMicro). Injected
	// so replays and tests can pin the timestamps replicas agree on.
	Now clock.Source
	// Log receives structured consensus events (view changes, batch
	// rejections). Nil disables them.
	Log *obs.Logger
}

func (o *Options) fill() {
	if o.F == 0 {
		o.F = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10000
	}
	if o.BatchTimeout == 0 {
		o.BatchTimeout = 200 * time.Millisecond
	}
	if o.ViewChangeTimeout == 0 {
		o.ViewChangeTimeout = time.Second
	}
	if o.Parallelism == 0 {
		o.Parallelism = parallel.Default()
	}
	if o.Now == nil {
		o.Now = clock.UnixMicro
	}
}

type msgKind int

const (
	msgPrePrepare msgKind = iota
	msgPrepare
	msgCommit
	msgViewChange
	msgNewView
)

type message struct {
	kind   msgKind
	view   int
	seq    int
	digest [32]byte
	batch  []*types.Transaction // pre-prepare and new-view only
	from   int
}

// instance tracks one sequence number's three-phase state.
type instance struct {
	digest    [32]byte
	batch     []*types.Transaction
	prepares  map[int]bool
	commits   map[int]bool
	committed bool
}

type request struct {
	tx   *types.Transaction
	done chan error
}

// pending is one proposed batch awaiting its reply quorum: the waiting
// submissions and each replica's execution result so far, as text.
type pending struct {
	reqs    []request
	results map[int]string
}

// replica is one PBFT node.
type replica struct {
	id      int
	cluster *Cluster
	crashed bool

	// view is read by the cluster batcher while the replica loop
	// mutates it, hence atomic.
	view     atomic.Int64
	log      map[int]*instance
	executed int // highest contiguously executed seq
	// done records digests already executed, so a batch re-proposed
	// after a view change does not execute twice.
	done  map[[32]byte]bool
	inbox chan message

	// primary-only state
	nextSeq int

	// view-change state
	vcVotes map[int]map[int]bool // newView -> voters
}

// Cluster is a PBFT deployment driving one committer per replica.
type Cluster struct {
	opts     Options
	n        int
	replicas []*replica
	commit   []consensus.Committer

	mu       sync.Mutex
	queue    []request
	inFlight map[[32]byte]*pending // digest -> waiting clients and replies
	running  bool
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// curView is the highest view any live replica has adopted; the
	// batcher reads it to address proposals and view-change votes.
	// Reading a single replica's view instead would wedge the cluster
	// once that replica crashes and stops adopting new views.
	curView atomic.Int64

	progressCh chan struct{} // signalled on every client reply, feeds the view-change timer
}

// New builds a cluster over the given committers; len(committers) must
// be 3F+1.
func New(opts Options, committers []consensus.Committer) (*Cluster, error) {
	opts.fill()
	n := 3*opts.F + 1
	if len(committers) != n {
		return nil, fmt.Errorf("pbft: need %d committers for f=%d, got %d", n, opts.F, len(committers))
	}
	c := &Cluster{
		opts:       opts,
		n:          n,
		commit:     committers,
		inFlight:   make(map[[32]byte]*pending),
		progressCh: make(chan struct{}, 1),
	}
	for i := 0; i < n; i++ {
		c.replicas = append(c.replicas, &replica{
			id:      i,
			cluster: c,
			log:     make(map[int]*instance),
			done:    make(map[[32]byte]bool),
			inbox:   make(chan message, 4096),
			vcVotes: make(map[int]map[int]bool),
		})
	}
	return c, nil
}

// Crash silences a replica (stops processing and emitting messages),
// simulating a crashed or Byzantine-muted node. Must be called before
// Start or between requests.
func (c *Cluster) Crash(id int) {
	c.replicas[id].crashed = true
}

// View returns replica 0's current view (tests observe view changes).
func (c *Cluster) View() int { return int(c.replicas[0].view.Load()) }

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("pbft: cluster stopped")

// ErrRejected is returned when CheckTx rejects a transaction.
var ErrRejected = errors.New("pbft: transaction rejected by CheckTx")

// Start launches all replica loops and the primary batcher.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("pbft: already started")
	}
	c.running = true
	c.stopCh = make(chan struct{})
	for _, r := range c.replicas {
		c.wg.Add(1)
		go r.loop()
	}
	c.wg.Add(1)
	go c.batcher()
	return nil
}

// Stop shuts the cluster down; pending submissions fail with ErrStopped.
func (c *Cluster) Stop() error {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return nil
	}
	c.running = false
	close(c.stopCh)
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.inFlight {
		for _, r := range p.reqs {
			r.done <- ErrStopped
		}
	}
	for _, r := range c.queue {
		r.done <- ErrStopped
	}
	c.inFlight = make(map[[32]byte]*pending)
	c.queue = nil
	return nil
}

// Submit queues a transaction and blocks until f+1 replicas report the
// same execution result for its batch (the PBFT client reply) — or
// until the batch CheckTx step rejects it with ErrRejected. Signature
// verification happens at batch-cut time, fanned out over the worker
// pool, so submission itself is queue-only.
func (c *Cluster) Submit(tx *types.Transaction) error {
	done := make(chan error, 1)
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return ErrStopped
	}
	c.queue = append(c.queue, request{tx: tx, done: done})
	c.mu.Unlock()
	return <-done
}

// batcher cuts proposals for the current primary.
func (c *Cluster) batcher() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.BatchTimeout)
	defer ticker.Stop()
	vcTimer := time.NewTicker(c.opts.ViewChangeTimeout)
	defer vcTimer.Stop()
	// Stall detection counts vcTimer ticks instead of comparing wall
	// clock readings: two consecutive ticks with pending work and no
	// execution in between span at least one full ViewChangeTimeout.
	stalledTicks := 0
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.progressCh:
			stalledTicks = 0
		case <-vcTimer.C:
			c.mu.Lock()
			pending := len(c.queue) > 0 || len(c.inFlight) > 0
			c.mu.Unlock()
			if !pending {
				stalledTicks = 0
				continue
			}
			stalledTicks++
			if stalledTicks >= 2 {
				c.startViewChange()
				stalledTicks = 0
			}
		case <-ticker.C:
			c.propose()
		}
	}
}

// propose hands the queued requests to the current primary, running the
// batch CheckTx step first when RequireSigs is set.
func (c *Cluster) propose() {
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.mu.Unlock()
		return
	}
	n := len(c.queue)
	if n > c.opts.BatchSize {
		n = c.opts.BatchSize
	}
	batch := c.queue[:n:n]
	c.queue = c.queue[n:]
	c.mu.Unlock()

	if c.opts.RequireSigs {
		start := c.opts.Now()
		batch = c.checkBatch(batch)
		mCheckMicros.Observe(c.opts.Now() - start)
		if len(batch) == 0 {
			return
		}
	}
	txs := make([]*types.Transaction, len(batch))
	for i, r := range batch {
		txs[i] = r.tx
	}
	d := batchDigest(txs)
	c.mu.Lock()
	p := c.inFlight[d]
	if p == nil {
		p = &pending{results: make(map[int]string)}
		c.inFlight[d] = p
	}
	p.reqs = append(p.reqs, batch...)
	view := int(c.curView.Load())
	c.mu.Unlock()

	primary := c.replicas[view%c.n]
	primary.send(message{kind: msgPrePrepare, view: view, batch: txs, from: -1})
}

// checkBatch verifies the batch's sender signatures with the worker
// pool, replies ErrRejected to the failing submissions, and returns the
// surviving requests in their original order. ed25519 verification is
// CPU-bound and per-transaction independent, so the fan-out scales the
// step the paper measures as Tendermint's serial bottleneck.
func (c *Cluster) checkBatch(batch []request) []request {
	ok := make([]bool, len(batch))
	// Verification cannot fail as a task, so Ordered's error is always
	// nil; the per-index results land in ok.
	_ = parallel.Ordered(c.opts.Parallelism, len(batch), //sebdb:ignore-err tasks always return nil; results land in ok
		func(i int) (bool, error) { return batch[i].tx.VerifySig(), nil },
		func(i int, v bool) error { ok[i] = v; return nil })
	kept := make([]request, 0, len(batch))
	for i, r := range batch {
		if ok[i] {
			kept = append(kept, r)
			continue
		}
		mRejected.Inc()
		c.opts.Log.Warn("transaction rejected",
			"sender", r.tx.SenID, "table", r.tx.Tname, "reason", "bad signature")
		r.done <- ErrRejected
	}
	return kept
}

// startViewChange broadcasts VIEW-CHANGE votes from every live replica
// (the simplified detector lives in the cluster batcher rather than in
// per-replica timers).
func (c *Cluster) startViewChange() {
	newView := int(c.curView.Load()) + 1
	c.opts.Log.Warn("primary suspected, starting view change", "new_view", newView)
	for _, r := range c.replicas {
		if !r.crashed {
			c.broadcast(message{kind: msgViewChange, view: newView, from: r.id})
		}
	}
}

func (c *Cluster) broadcast(m message) {
	for _, r := range c.replicas {
		r.send(m)
	}
}

func (r *replica) send(m message) {
	if r.crashed {
		return
	}
	select {
	case r.inbox <- m:
	case <-r.cluster.stopCh:
	}
}

func batchDigest(txs []*types.Transaction) [32]byte {
	e := types.NewEncoder(256 * len(txs))
	for _, tx := range txs {
		tx.Encode(e)
	}
	return sha256.Sum256(e.Bytes())
}

// loop is one replica's event loop.
func (r *replica) loop() {
	defer r.cluster.wg.Done()
	for {
		select {
		case <-r.cluster.stopCh:
			return
		case m := <-r.inbox:
			if r.crashed {
				continue
			}
			r.handle(m)
		}
	}
}

func (r *replica) inst(seq int) *instance {
	in, ok := r.log[seq]
	if !ok {
		in = &instance{prepares: map[int]bool{}, commits: map[int]bool{}}
		r.log[seq] = in
	}
	return in
}

func (r *replica) handle(m message) {
	c := r.cluster
	switch m.kind {
	case msgPrePrepare:
		view := int(r.view.Load())
		// Only the current primary assigns sequence numbers; the message
		// addressed to it carries no seq yet (from == -1).
		if m.from == -1 {
			if r.id != view%c.n || m.view != view {
				// Not primary of this view: ignore; the view-change timer
				// recovers the request.
				return
			}
			r.nextSeq++
			m.seq = r.nextSeq
			m.digest = batchDigest(m.batch)
			m.from = r.id
			c.broadcast(m)
			return
		}
		if m.view != view || m.from != view%c.n {
			return
		}
		in := r.inst(m.seq)
		in.batch = m.batch
		in.digest = m.digest
		c.broadcast(message{kind: msgPrepare, view: view, seq: m.seq, digest: m.digest, from: r.id})
	case msgPrepare:
		if m.view != int(r.view.Load()) {
			return
		}
		in := r.inst(m.seq)
		in.prepares[m.from] = true
		// Prepared: 2f PREPAREs matching the pre-prepare.
		if len(in.prepares) >= 2*c.opts.F && in.batch != nil && !in.commits[r.id] {
			in.commits[r.id] = true
			c.broadcast(message{kind: msgCommit, view: int(r.view.Load()), seq: m.seq, digest: m.digest, from: r.id})
		}
	case msgCommit:
		if m.view != int(r.view.Load()) {
			return
		}
		in := r.inst(m.seq)
		in.commits[m.from] = true
		if len(in.commits) >= 2*c.opts.F+1 && in.batch != nil && !in.committed {
			in.committed = true
			r.executeReady()
		}
	case msgViewChange:
		votes := r.vcVotes[m.view]
		if votes == nil {
			votes = map[int]bool{}
			r.vcVotes[m.view] = votes
		}
		votes[m.from] = true
		if len(votes) >= 2*c.opts.F+1 && m.view > int(r.view.Load()) {
			r.view.Store(int64(m.view))
			// Lift the cluster-level view so the batcher addresses the
			// new primary.
			for {
				cur := c.curView.Load()
				if int64(m.view) <= cur {
					break
				}
				if c.curView.CompareAndSwap(cur, int64(m.view)) {
					mViewChanges.Inc()
					c.opts.Log.Info("view adopted",
						"view", m.view, "primary", m.view%c.n)
					break
				}
			}
			// The new primary re-proposes in-flight batches.
			if r.id == m.view%c.n {
				r.nextSeq = r.executed
				c.mu.Lock()
				var batches [][]*types.Transaction
				for _, p := range c.inFlight {
					txs := make([]*types.Transaction, len(p.reqs))
					for i, q := range p.reqs {
						txs[i] = q.tx
					}
					batches = append(batches, txs)
				}
				c.mu.Unlock()
				for _, b := range batches {
					r.send(message{kind: msgPrePrepare, view: m.view, batch: b, from: -1})
				}
			}
		}
	}
}

// executeReady applies committed instances in sequence order.
func (r *replica) executeReady() {
	c := r.cluster
	for {
		in, ok := r.log[r.executed+1]
		if !ok || !in.committed {
			return
		}
		r.executed++
		var err error
		if !r.done[in.digest] {
			r.done[in.digest] = true
			start := c.opts.Now()
			_, err = c.commit[r.id].CommitBlock(cloneTxs(in.batch), start)
			mBatches.Inc()
			mBatchTxs.Observe(int64(len(in.batch)))
			mCommitMicros.Observe(c.opts.Now() - start)
		}
		c.reply(r.id, in.digest, err)
	}
}

// reply records replica id's execution result for a batch. As in full
// PBFT, the waiting clients accept a result once f+1 replicas report it
// — at least one of them is correct — so Submit returns only after that
// many replicas have executed the batch.
func (c *Cluster) reply(id int, digest [32]byte, err error) {
	c.mu.Lock()
	p := c.inFlight[digest]
	if p == nil {
		c.mu.Unlock()
		return
	}
	p.results[id] = fmt.Sprint(err)
	matching := 0
	for _, res := range p.results {
		if res == p.results[id] {
			matching++
		}
	}
	if matching < c.opts.F+1 {
		c.mu.Unlock()
		return
	}
	delete(c.inFlight, digest)
	c.mu.Unlock()
	for _, q := range p.reqs {
		q.done <- err
	}
	select {
	case c.progressCh <- struct{}{}:
	default:
	}
}

func cloneTxs(txs []*types.Transaction) []*types.Transaction {
	out := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		cp := *tx
		out[i] = &cp
	}
	return out
}

var _ consensus.Consensus = (*Cluster)(nil)
